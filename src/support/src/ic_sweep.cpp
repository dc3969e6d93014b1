// AVX-512 body of the exact IC edge sweep (see ic_sweep.hpp).
#include "eim/support/ic_sweep.hpp"

#if EIM_IC_SWEEP_X86
#include <immintrin.h>

namespace eim::support {

__attribute__((target("avx512f,popcnt"))) IcSweepHit ic_sweep_avx512_scan(
    const std::uint32_t* ins, const float* ws, std::size_t len,
    const std::uint32_t* stamp, std::uint32_t epoch, const float* draws) noexcept {
  const __m512i ep = _mm512_set1_epi32(static_cast<int>(epoch));
  std::size_t t = 0;
  for (std::size_t j = 0; j < len; j += 16) {
    const std::size_t rem = len - j;
    const auto live = rem >= 16 ? static_cast<__mmask16>(0xFFFF)
                                : static_cast<__mmask16>((1u << rem) - 1u);
    // Dead lanes gather nothing and keep the epoch, so they read as visited.
    const __m512i idx = _mm512_maskz_loadu_epi32(live, ins + j);
    const __m512i st = _mm512_mask_i32gather_epi32(ep, live, idx, stamp, 4);
    const __mmask16 unvisited = _mm512_cmpneq_epi32_mask(st, ep);
    // The next popcount(unvisited) draws, in lane order: exactly the draws
    // the scalar loop would hand these edges.
    const __m512 d = _mm512_maskz_expandloadu_ps(unvisited, draws + t);
    const __m512 w = _mm512_maskz_loadu_ps(live, ws + j);
    const __mmask16 fire = _mm512_mask_cmp_ps_mask(unvisited, d, w, _CMP_LT_OQ);
    if (fire == 0) {
      t += static_cast<std::size_t>(__builtin_popcount(unvisited));
      continue;
    }
    const unsigned k = static_cast<unsigned>(__builtin_ctz(fire));
    const unsigned upto = unvisited & ((2u << k) - 1u);  // lanes 0..k
    return {j + k, t + static_cast<std::size_t>(__builtin_popcount(upto))};
  }
  return {len, t};
}

}  // namespace eim::support

#endif  // EIM_IC_SWEEP_X86
