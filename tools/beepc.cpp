// beepc - the ahead-of-time protocol compiler.
//
// Consumes declarative protocol specs (core/protocol_spec.hpp: the
// bundled factories and/or JSON documents) and emits one C++ TU per
// protocol structure under --out-dir, each instantiating the templated
// round sweep (beeping/compiled_sweep.hpp) once with the protocol's
// transition masks, meta flags and plane layout - plane count and
// patience chains, from the same beeping::make_plane_plan() the
// engine's interpreted sweep binds - baked in as a constexpr Traits
// block. A manifest TU defining
// ensure_builtin_kernels_registered() registers them all in the kernel
// registry; the engine picks them up at bind time by structure match.
//
//   beepc [--out-dir src/beeping/kernels] [--no-builtins] [spec.json ...]
//
// Without arguments beepc regenerates the checked-in builtin kernels
// (bfw, timeout_bfw_t9, bw). Output is deterministic - no timestamps,
// no host state - so CI can re-run beepc and `git diff --exit-code`
// the tree to prove the checked-in kernels are fresh.
//
// Structural matching means one kernel serves a protocol family: the
// stochastic rows' parameter and successors stay runtime data read
// through plane_ctx::rules, so the bfw kernel runs every BFW(p) and the
// timeout kernel every Timeout-BFW with the same T.
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "beeping/plane_kernel.hpp"
#include "beeping/protocol.hpp"
#include "core/protocol_spec.hpp"
#include "support/cli.hpp"

namespace {

using beepkit::beeping::machine_table;
using beepkit::beeping::transition_rule;
using beepkit::core::protocol_spec;

std::string sanitize_identifier(const std::string& name) {
  std::string out;
  bool last_underscore = true;  // also trims leading underscores
  for (const char c : name) {
    const auto uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc) != 0) {
      out += static_cast<char>(std::tolower(uc));
      last_underscore = false;
    } else if (!last_underscore) {
      out += '_';
      last_underscore = true;
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0])) != 0) {
    out.insert(out.begin(), 'k');
  }
  return out;
}

std::string escape_literal(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '\\' || c == '"') out += '\\';
    out += c;
  }
  return out;
}

struct kernel_source {
  std::string name;       // kernel + file + factory identifier
  std::string spec_name;  // human-readable spec name (comment only)
  machine_table table;
  std::string structure;
};

kernel_source make_source(std::string name, const protocol_spec& spec) {
  kernel_source src;
  src.name = std::move(name);
  src.spec_name = spec.name;
  src.table = beepkit::core::compile_spec_table(spec);
  if (src.table.state_count() > 64) {
    throw std::invalid_argument("beepc: spec '" + spec.name + "' has " +
                                std::to_string(src.table.state_count()) +
                                " states; plane kernels cap at 64");
  }
  src.structure = beepkit::beeping::serialize_table_structure(src.table);
  return src;
}

std::string generated_banner() {
  return
      "// Generated by tools/beepc - DO NOT EDIT; regenerate with:\n"
      "//   beepc --out-dir src/beeping/kernels\n";
}

std::string emit_kernel(const kernel_source& src) {
  const machine_table& table = src.table;
  const std::size_t q = table.state_count();
  const beepkit::beeping::plane_plan plan =
      beepkit::beeping::make_plane_plan(table);
  const std::size_t plane_count = plan.plane_count;
  // Stochastic rows get stable slot ids in (state, bot-then-top) order;
  // the kernel resolves them per node through plane_ctx::rules.
  std::vector<int> draw_index(q * 2, -1);
  std::vector<std::size_t> draw_slots;
  for (std::size_t s = 0; s < q; ++s) {
    for (const bool heard : {false, true}) {
      const std::size_t slot = (s << 1) | (heard ? 1U : 0U);
      if (table.rules[slot].draw != transition_rule::draw_kind::none) {
        draw_index[slot] = static_cast<int>(draw_slots.size());
        draw_slots.push_back(slot);
      }
    }
  }
  const auto rule_literal = [&](std::size_t s, bool heard) {
    const std::size_t slot = (s << 1) | (heard ? 1U : 0U);
    std::ostringstream out;
    if (draw_index[slot] >= 0) {
      out << "{true, 0, " << draw_index[slot] << "}";
    } else {
      out << "{false, " << table.rules[slot].next << ", 0}";
    }
    return out.str();
  };

  std::ostringstream out;
  out << generated_banner();
  out << "// Kernel '" << src.name << "' from spec: " << src.spec_name
      << "\n";
  out << "// Structure: " << src.structure << "\n";
  out << "#include \"beeping/compiled_sweep.hpp\"\n\n";
  out << "namespace beepkit::beeping::kernels {\n";
  out << "namespace {\n\n";
  out << "// " << q << " states in " << plane_count << " plane"
      << (plane_count == 1 ? "" : "s") << ", " << draw_slots.size()
      << " stochastic row" << (draw_slots.size() == 1 ? "" : "s") << ", "
      << plan.chains.size() << " patience chain"
      << (plan.chains.size() == 1 ? "" : "s") << ".\n";
  out << "struct " << src.name << "_traits {\n";
  out << "  static constexpr std::size_t state_count = " << q << ";\n";
  out << "  static constexpr std::size_t plane_count = " << plane_count
      << ";\n";
  out << "  static constexpr std::size_t chain_count = " << plan.chains.size()
      << ";\n";
  out << "  static constexpr std::size_t draw_count = " << draw_slots.size()
      << ";\n";
  out << "  static constexpr std::uint8_t meta[state_count] = {";
  for (std::size_t s = 0; s < q; ++s) {
    out << (s == 0 ? "" : ", ") << static_cast<unsigned>(table.meta[s]);
  }
  out << "};\n";
  out << "  static constexpr kernel_rule top[state_count] = {\n";
  for (std::size_t s = 0; s < q; ++s) {
    out << "      " << rule_literal(s, true) << (s + 1 < q ? "," : "")
        << "\n";
  }
  out << "  };\n";
  out << "  static constexpr kernel_rule bot[state_count] = {\n";
  for (std::size_t s = 0; s < q; ++s) {
    out << "      " << rule_literal(s, false) << (s + 1 < q ? "," : "")
        << "\n";
  }
  out << "  };\n";
  out << "  static constexpr bool chain_member[state_count] = {";
  for (std::size_t s = 0; s < q; ++s) {
    out << (s == 0 ? "" : ", ")
        << (plan.chain_member[s] != 0 ? "true" : "false");
  }
  out << "};\n";
  out << "  static constexpr kernel_chain chains[" << std::max<std::size_t>(
      1, plan.chains.size()) << "] = {";
  if (plan.chains.empty()) {
    out << "{}";
  } else {
    for (std::size_t c = 0; c < plan.chains.size(); ++c) {
      const beepkit::beeping::kernel_chain& chain = plan.chains[c];
      out << (c == 0 ? "" : ", ") << "{" << chain.first << ", " << chain.last
          << ", " << chain.top_next << ", "
          << static_cast<unsigned>(chain.meta) << "}";
    }
  }
  out << "};\n";
  out << "  static constexpr std::uint16_t draw_slots[" <<
      std::max<std::size_t>(1, draw_slots.size()) << "] = {";
  if (draw_slots.empty()) {
    out << "0";
  } else {
    for (std::size_t d = 0; d < draw_slots.size(); ++d) {
      out << (d == 0 ? "" : ", ") << draw_slots[d];
    }
  }
  out << "};\n";
  out << "};\n\n";
  out << "}  // namespace\n\n";
  out << "const compiled_kernel& kernel_" << src.name << "() {\n";
  out << "  static const compiled_kernel kernel = [] {\n";
  out << "    compiled_kernel k;\n";
  out << "    k.name = \"" << escape_literal(src.name) << "\";\n";
  out << "    k.structure = \"" << escape_literal(src.structure) << "\";\n";
  out << "    k.sweep = &compiled_sweep<" << src.name << "_traits>;\n";
  out << "    return k;\n";
  out << "  }();\n";
  out << "  return kernel;\n";
  out << "}\n\n";
  out << "}  // namespace beepkit::beeping::kernels\n";
  return out.str();
}

std::string emit_manifest(const std::vector<kernel_source>& sources) {
  std::ostringstream out;
  out << generated_banner();
  out << "#include \"beeping/plane_kernel.hpp\"\n\n";
  out << "namespace beepkit::beeping {\n\n";
  out << "namespace kernels {\n";
  for (const kernel_source& src : sources) {
    out << "const compiled_kernel& kernel_" << src.name << "();\n";
  }
  out << "}  // namespace kernels\n\n";
  out << "void ensure_builtin_kernels_registered() {\n";
  out << "  static const bool registered = [] {\n";
  for (const kernel_source& src : sources) {
    out << "    register_compiled_kernel(kernels::kernel_" << src.name
        << "());\n";
  }
  out << "    return true;\n";
  out << "  }();\n";
  out << "  (void)registered;\n";
  out << "}\n\n";
  out << "}  // namespace beepkit::beeping\n";
  return out.str();
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("beepc: cannot open " + path.string() +
                             " for writing");
  }
  out << text;
  if (!out) {
    throw std::runtime_error("beepc: write to " + path.string() + " failed");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepkit;
  const support::cli args(
      argc, argv, "beepc [flags] [spec.json ...]",
      {{"out-dir", "directory to write the kernels to "
                   "(default src/beeping/kernels)"},
       {"no-builtins", "emit only the given specs", true}});
  const std::filesystem::path out_dir =
      args.get_string("out-dir", "src/beeping/kernels");

  std::vector<kernel_source> sources;
  try {
    if (!args.get_bool("no-builtins", false)) {
      sources.push_back(make_source("bfw", core::bfw_spec(0.5)));
      sources.push_back(
          make_source("timeout_bfw_t9", core::timeout_bfw_spec(0.5, 9)));
      sources.push_back(make_source("bw", core::bw_spec(0.5)));
    }
    for (const std::string& spec_path : args.positionals()) {
      std::ifstream in(spec_path, std::ios::binary);
      if (!in) {
        std::fprintf(stderr, "beepc: cannot read spec %s\n",
                     spec_path.c_str());
        return 1;
      }
      std::ostringstream text;
      text << in.rdbuf();
      const protocol_spec spec =
          protocol_spec::from_json_text(text.view());
      sources.push_back(make_source(sanitize_identifier(spec.name), spec));
    }
    if (sources.empty()) {
      std::fputs(args.help().c_str(), stderr);
      return 2;
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
      for (std::size_t j = i + 1; j < sources.size(); ++j) {
        if (sources[i].name == sources[j].name) {
          throw std::invalid_argument("beepc: duplicate kernel name '" +
                                      sources[i].name + "'");
        }
        if (sources[i].structure == sources[j].structure) {
          throw std::invalid_argument(
              "beepc: kernels '" + sources[i].name + "' and '" +
              sources[j].name +
              "' have identical structure; one kernel already serves both");
        }
      }
    }
    std::filesystem::create_directories(out_dir);
    for (const kernel_source& src : sources) {
      const std::filesystem::path path = out_dir / (src.name + ".gen.cpp");
      write_file(path, emit_kernel(src));
      std::printf("beepc: %s  (%s)\n", path.string().c_str(),
                  src.structure.c_str());
    }
    const std::filesystem::path manifest = out_dir / "manifest.gen.cpp";
    write_file(manifest, emit_manifest(sources));
    std::printf("beepc: %s  (%zu kernels)\n", manifest.string().c_str(),
                sources.size());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 1;
  }
  return 0;
}
