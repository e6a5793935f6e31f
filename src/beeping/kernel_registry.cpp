#include "beeping/plane_kernel.hpp"

#include <memory>
#include <string>

namespace beepkit::beeping {

namespace {

// Stable-address storage: engines cache the pointer returned by
// find_compiled_kernel across rounds, so registration must never move
// an already-registered kernel.
std::vector<std::unique_ptr<compiled_kernel>>& registry() {
  static std::vector<std::unique_ptr<compiled_kernel>> kernels;
  return kernels;
}

}  // namespace

// Runs at every engine bind (find_compiled_kernel), so it appends to
// one std::string instead of formatting through a stream. The bytes
// are baked into kernels/*.gen.cpp and must not change.
std::string serialize_table_structure(const machine_table& table) {
  std::string out;
  const std::size_t q = table.state_count();
  out.reserve(8 + q * 12);
  out += "q=";
  out += std::to_string(q);
  for (std::size_t s = 0; s < q; ++s) {
    out += ';';
    out += std::to_string(static_cast<unsigned>(table.meta[s]));
    for (const bool heard : {false, true}) {
      const transition_rule& rule = table.rule(static_cast<state_id>(s), heard);
      if (rule.draw == transition_rule::draw_kind::none) {
        out += ",d";
        out += std::to_string(rule.next);
      } else {
        // Stochastic rows are structure-equal regardless of successor
        // targets, parameter, or coin-vs-bernoulli: the kernel resolves
        // all three per node through plane_ctx::rules.
        out += ",r";
      }
    }
  }
  return out;
}

void register_compiled_kernel(const compiled_kernel& kernel) {
  for (auto& existing : registry()) {
    if (existing->structure == kernel.structure) {
      *existing = kernel;
      return;
    }
  }
  registry().push_back(std::make_unique<compiled_kernel>(kernel));
}

const compiled_kernel* find_compiled_kernel(const machine_table& table) {
  ensure_builtin_kernels_registered();
  const std::string structure = serialize_table_structure(table);
  for (const auto& kernel : registry()) {
    if (kernel->structure == structure) return kernel.get();
  }
  return nullptr;
}

std::vector<const compiled_kernel*> list_compiled_kernels() {
  ensure_builtin_kernels_registered();
  std::vector<const compiled_kernel*> out;
  out.reserve(registry().size());
  for (const auto& kernel : registry()) out.push_back(kernel.get());
  return out;
}

}  // namespace beepkit::beeping
