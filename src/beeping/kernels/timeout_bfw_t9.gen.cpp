// Generated by tools/beepc - DO NOT EDIT; regenerate with:
//   beepc --out-dir src/beeping/kernels
// Kernel 'timeout_bfw_t9' from spec: TimeoutBFW(p=0.5,T=9)
// Structure: q=14;2,r,d3;3,d2,d2;2,d0,d0;1,d4,d4;0,d5,d5;0,d6,d3;0,d7,d3;0,d8,d3;0,d9,d3;0,d10,d3;0,d11,d3;0,d12,d3;0,d13,d3;0,d0,d3
#include "beeping/compiled_sweep.hpp"

namespace beepkit::beeping::kernels {
namespace {

// 14 states in 4 planes, 1 stochastic row, 1 patience chain.
struct timeout_bfw_t9_traits {
  static constexpr std::size_t state_count = 14;
  static constexpr std::size_t plane_count = 4;
  static constexpr std::size_t chain_count = 1;
  static constexpr std::size_t draw_count = 1;
  static constexpr std::uint8_t meta[state_count] = {2, 3, 2, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
  static constexpr kernel_rule top[state_count] = {
      {false, 3, 0},
      {false, 2, 0},
      {false, 0, 0},
      {false, 4, 0},
      {false, 5, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0},
      {false, 3, 0}
  };
  static constexpr kernel_rule bot[state_count] = {
      {true, 0, 0},
      {false, 2, 0},
      {false, 0, 0},
      {false, 4, 0},
      {false, 5, 0},
      {false, 6, 0},
      {false, 7, 0},
      {false, 8, 0},
      {false, 9, 0},
      {false, 10, 0},
      {false, 11, 0},
      {false, 12, 0},
      {false, 13, 0},
      {false, 0, 0}
  };
  static constexpr bool chain_member[state_count] = {false, false, false, false, false, true, true, true, true, true, true, true, true, true};
  static constexpr kernel_chain chains[1] = {{5, 13, 3, 0}};
  static constexpr std::uint16_t draw_slots[1] = {0};
};

}  // namespace

const compiled_kernel& kernel_timeout_bfw_t9() {
  static const compiled_kernel kernel = [] {
    compiled_kernel k;
    k.name = "timeout_bfw_t9";
    k.structure = "q=14;2,r,d3;3,d2,d2;2,d0,d0;1,d4,d4;0,d5,d5;0,d6,d3;0,d7,d3;0,d8,d3;0,d9,d3;0,d10,d3;0,d11,d3;0,d12,d3;0,d13,d3;0,d0,d3";
    k.sweep = &compiled_sweep<timeout_bfw_t9_traits>;
    return k;
  }();
  return kernel;
}

}  // namespace beepkit::beeping::kernels
