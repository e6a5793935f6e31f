// Generated by tools/beepc - DO NOT EDIT; regenerate with:
//   beepc --out-dir src/beeping/kernels
// Kernel 'bw' from spec: BW-ablation(p=0.5)
// Structure: q=4;2,r,d3;3,d0,d0;4,d2,d3;1,d2,d2
#include "beeping/compiled_sweep.hpp"

namespace beepkit::beeping::kernels {
namespace {

// 4 states in 2 planes, 1 stochastic row, 0 patience chains.
struct bw_traits {
  static constexpr std::size_t state_count = 4;
  static constexpr std::size_t plane_count = 2;
  static constexpr std::size_t chain_count = 0;
  static constexpr std::size_t draw_count = 1;
  static constexpr std::uint8_t meta[state_count] = {2, 3, 4, 1};
  static constexpr kernel_rule top[state_count] = {
      {false, 3, 0},
      {false, 0, 0},
      {false, 3, 0},
      {false, 2, 0}
  };
  static constexpr kernel_rule bot[state_count] = {
      {true, 0, 0},
      {false, 0, 0},
      {false, 2, 0},
      {false, 2, 0}
  };
  static constexpr bool chain_member[state_count] = {false, false, false, false};
  static constexpr kernel_chain chains[1] = {{}};
  static constexpr std::uint16_t draw_slots[1] = {0};
};

}  // namespace

const compiled_kernel& kernel_bw() {
  static const compiled_kernel kernel = [] {
    compiled_kernel k;
    k.name = "bw";
    k.structure = "q=4;2,r,d3;3,d0,d0;4,d2,d3;1,d2,d2";
    k.sweep = &compiled_sweep<bw_traits>;
    return k;
  }();
  return kernel;
}

}  // namespace beepkit::beeping::kernels
