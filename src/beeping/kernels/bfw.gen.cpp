// Generated by tools/beepc - DO NOT EDIT; regenerate with:
//   beepc --out-dir src/beeping/kernels
// Kernel 'bfw' from spec: BFW(p=0.5)
// Structure: q=6;2,r,d4;3,d2,d2;2,d0,d0;4,d3,d4;1,d5,d5;0,d3,d3
#include "beeping/compiled_sweep.hpp"

namespace beepkit::beeping::kernels {
namespace {

// 6 states in 3 planes, 1 stochastic row, 0 patience chains.
struct bfw_traits {
  static constexpr std::size_t state_count = 6;
  static constexpr std::size_t plane_count = 3;
  static constexpr std::size_t chain_count = 0;
  static constexpr std::size_t draw_count = 1;
  static constexpr std::uint8_t meta[state_count] = {2, 3, 2, 4, 1, 0};
  static constexpr kernel_rule top[state_count] = {
      {false, 4, 0},
      {false, 2, 0},
      {false, 0, 0},
      {false, 4, 0},
      {false, 5, 0},
      {false, 3, 0}
  };
  static constexpr kernel_rule bot[state_count] = {
      {true, 0, 0},
      {false, 2, 0},
      {false, 0, 0},
      {false, 3, 0},
      {false, 5, 0},
      {false, 3, 0}
  };
  static constexpr bool chain_member[state_count] = {false, false, false, false, false, false};
  static constexpr kernel_chain chains[1] = {{}};
  static constexpr std::uint16_t draw_slots[1] = {0};
};

}  // namespace

const compiled_kernel& kernel_bfw() {
  static const compiled_kernel kernel = [] {
    compiled_kernel k;
    k.name = "bfw";
    k.structure = "q=6;2,r,d4;3,d2,d2;2,d0,d0;4,d3,d4;1,d5,d5;0,d3,d3";
    k.sweep = &compiled_sweep<bfw_traits>;
    return k;
  }();
  return kernel;
}

}  // namespace beepkit::beeping::kernels
