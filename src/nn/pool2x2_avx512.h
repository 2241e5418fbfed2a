// The AVX-512F register core of the 2x2 max-pool, shared by MaxPool2d's
// vector kernels (pooling.cc) and ConvBlock's fused epilogue (conv2d.cc).
//
// Sixteen pool outputs are 64 consecutive input floats (whole row pairs
// when the width divides 16), held in four registers. Only x86-64 builds
// with GCC or Clang include this header; every function is compiled for
// AVX-512F and must only run on hosts that have it.

#ifndef FATS_NN_POOL2X2_AVX512_H_
#define FATS_NN_POOL2X2_AVX512_H_

#include <cstdint>

// _mm512_shuffle_f32x4 and _mm512_max_ps pass _mm512_undefined_ps() as the
// unused merge source and trip -W(maybe-)uninitialized where they are
// inlined (GCC bug 105593, fixed in 12.3); the warning is about the header,
// not this code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop

namespace fats {
namespace internal {

#define FATS_POOL2X2_INLINE \
  __attribute__((target("avx512f"), always_inline)) inline

// Lanes [0, n) of a 16-lane mask, n in [0, 16].
inline __mmask16 PoolLaneMask(int64_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

// The lane maps of one input width. A window position's 16 lanes come from
// registers 0-1 or 2-3 (one two-source permute each, then a blend): `gather`
// and `upper` are that map for the forward scan, `scatter` and `lower` its
// inverse for the backward pass.
struct Pool2x2Lanes {
  __m512i gather[4];
  __mmask16 upper[4];
  __m512i scatter[4];
  __mmask16 lower[4];
};

FATS_POOL2X2_INLINE Pool2x2Lanes MakePool2x2Lanes(int64_t width) {
  const int64_t half = width / 2;
  Pool2x2Lanes lanes;
  alignas(64) int32_t idx[4][16];
  __mmask16 mask[4] = {0, 0, 0, 0};
  for (int64_t l = 0; l < 16; ++l) {
    const int64_t a = 2 * width * (l / half) + 2 * (l % half);
    const int64_t off[4] = {a, a + 1, a + width, a + width + 1};
    for (int p = 0; p < 4; ++p) {
      idx[p][l] = static_cast<int32_t>(off[p] & 31);
      if (off[p] >= 32) {
        mask[p] = static_cast<__mmask16>(mask[p] | (1u << l));
      }
    }
  }
  for (int p = 0; p < 4; ++p) {
    lanes.gather[p] = _mm512_load_si512(idx[p]);
    lanes.upper[p] = mask[p];
    mask[p] = 0;
  }
  // Input float 16·k + i takes lane `idx` of the (top-left, top-right) pair
  // of window registers, or of the (bottom-left, bottom-right) pair where
  // `lower` is set.
  for (int64_t f = 0; f < 64; ++f) {
    const int64_t r = f % (2 * width);
    const int64_t col = r % width;
    const int64_t lane = f / (2 * width) * half + col / 2;
    idx[f / 16][f % 16] = static_cast<int32_t>(lane + 16 * (col & 1));
    if (r >= width) {
      mask[f / 16] =
          static_cast<__mmask16>(mask[f / 16] | (1u << (f % 16)));
    }
  }
  for (int k = 0; k < 4; ++k) {
    lanes.scatter[k] = _mm512_load_si512(idx[k]);
    lanes.lower[k] = mask[k];
  }
  return lanes;
}

// Window position p (0 top-left, 1 top-right, 2 bottom-left, 3 bottom-right)
// of the 16 windows in v[0..3].
FATS_POOL2X2_INLINE __m512 Pool2x2Window(const __m512 v[4],
                                         const Pool2x2Lanes& lanes, int p) {
  return _mm512_mask_blend_ps(
      lanes.upper[p], _mm512_permutex2var_ps(v[0], lanes.gather[p], v[1]),
      _mm512_permutex2var_ps(v[2], lanes.gather[p], v[3]));
}

// The scan of every window, lane-wise, in the order top-left, top-right,
// bottom-left, bottom-right: a strict _CMP_GT_OQ compare is false on a tie
// and on a NaN either side, exactly like `v > best`. Returns the maxima and
// sets *code to the winning position, one 32-bit lane per window.
FATS_POOL2X2_INLINE __m512 Pool2x2Scan(const __m512 v[4],
                                       const Pool2x2Lanes& lanes,
                                       __m512i* code) {
  __m512 best = Pool2x2Window(v, lanes, 0);
  __m512i c = _mm512_setzero_si512();
  for (int p = 1; p < 4; ++p) {
    const __m512 win = Pool2x2Window(v, lanes, p);
    const __mmask16 gt = _mm512_cmp_ps_mask(win, best, _CMP_GT_OQ);
    best = _mm512_mask_mov_ps(best, gt, win);
    c = _mm512_mask_mov_epi32(c, gt, _mm512_set1_epi32(p));
  }
  *code = c;
  return best;
}

// The inverse of the scan for n <= 16 outputs at gy/codes: dense[k] holds
// input floats [16·k, 16·k + 16) of the windows' gradient, `0.0f + g` at
// the position a code names and +0.0f at the other three (the add turns a
// −0.0 gradient into +0.0, as accumulating into a zeroed buffer did). A code
// outside 0-3 names no position, so its window's gradient is all +0.0f.
// Lanes past n read no gradient and come out +0.0f; the codes are one
// 16-byte load, so the buffer needs 15 bytes of slack past the last code.
FATS_POOL2X2_INLINE void Pool2x2Scatter(const float* gy, const uint8_t* codes,
                                        int64_t n, const Pool2x2Lanes& lanes,
                                        __m512 dense[4]) {
  const __mmask16 live = PoolLaneMask(n);
  const __m512 g =
      _mm512_add_ps(_mm512_setzero_ps(), _mm512_maskz_loadu_ps(live, gy));
  const __m512i code = _mm512_maskz_cvtepu8_epi32(
      live, _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes)));
  __m512 win[4];
  for (int p = 0; p < 4; ++p) {
    win[p] = _mm512_maskz_mov_ps(
        _mm512_cmpeq_epi32_mask(code, _mm512_set1_epi32(p)), g);
  }
  for (int k = 0; k < 4; ++k) {
    dense[k] = _mm512_mask_blend_ps(
        lanes.lower[k],
        _mm512_permutex2var_ps(win[0], lanes.scatter[k], win[1]),
        _mm512_permutex2var_ps(win[2], lanes.scatter[k], win[3]));
  }
}

#undef FATS_POOL2X2_INLINE

}  // namespace internal
}  // namespace fats

#endif  // FATS_NN_POOL2X2_AVX512_H_
