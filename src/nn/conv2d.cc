#include "nn/conv2d.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "util/string_util.h"
#include "util/with_rows.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_CONV_X86 1
// _mm512_shuffle_f32x4 and _mm512_max_ps pass _mm512_undefined_ps() as the
// unused merge source and trip -W(maybe-)uninitialized where they are
// inlined (GCC bug 105593, fixed in 12.3); the warning is about the header,
// not this code.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#pragma GCC diagnostic pop
#endif

namespace fats {

namespace {
// kCol is the column matrix, kept from Forward for the weight gradient.
enum Slot { kOut, kCol, kDcol, kGradIn };
// ConvBlock's fused path: the pooled output and the conv-output gradient.
enum BlockSlot { kBlockOut, kBlockGradConv };

// Whole-register code loads (Pool2x2Scatter, BuildWinnerLists) may read 15
// bytes past the last live code.
constexpr size_t kCodeSlack = 15;

#if FATS_CONV_X86
// Calls fn(oc0, std::integral_constant<int, rows>{}) for each block of at
// most kBlock output channels.
template <int kBlock, typename Fn>
void ForEachOcBlock(int64_t out_channels, Fn&& fn) {
  for (int64_t oc0 = 0; oc0 < out_channels; oc0 += kBlock) {
    WithRows<kBlock>(out_channels - oc0, [&](auto rows) { fn(oc0, rows); });
  }
}

// Output channels per register block of the winners-only dW. Six covers the
// zoo's first conv (6 channels) and second (12) in whole blocks.
constexpr int kOcBlock = 6;

// ConvBlock's fused kernels: a 3x3 conv, stride 1, padding 1, over a square
// 8x8 or 4x4 plane, then bias, ReLU and the 2x2 max-pool. The conv runs
// exactly the chains of Conv2d's GEMMs over the column matrix (gemm.h): one
// accumulator per output element, products rounded on their own and added
// in ascending k = (ic, kh, kw), with the same operand order as
// SmallGemmAvx512. A halo tap reads +0.0f, as the column matrix holds
// there, so fl(w·0) still enters the sum and a NaN or Inf weight still
// poisons it.

// `base + offset` floats, formed in integer arithmetic. Masked loads may
// start before or end past their buffer (the masked-off lanes are never
// read), but pointer arithmetic out of bounds would be undefined.
inline const float* FloatAddress(const float* base, int64_t offset) {
  return reinterpret_cast<const float*>(
      reinterpret_cast<uintptr_t>(base) +
      static_cast<uintptr_t>(offset) * sizeof(float));
}

// Lanes [0, n) of a 16-lane mask, n clamped to [0, 16].
inline __mmask16 LanesBelow(int64_t n) {
  return static_cast<__mmask16>(n <= 0    ? 0u
                                : n >= 16 ? 0xFFFFu
                                          : (1u << n) - 1u);
}

// The 2x2 max-pool's register core. Sixteen pool outputs are 64
// consecutive conv-output floats (whole row pairs, since the width divides
// 16), held in four registers. A window position's 16 lanes come from
// registers 0-1 or 2-3 (one two-source permute each, then a blend):
// `gather` and `upper` are that map for the forward scan, `scatter` and
// `lower` its inverse for the backward pass.
struct Pool2x2Lanes {
  __m512i gather[4];
  __mmask16 upper[4];
  __m512i scatter[4];
  __mmask16 lower[4];
};

__attribute__((target("avx512f"), always_inline)) inline Pool2x2Lanes
MakePool2x2Lanes(int64_t width) {
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
__attribute__((target("avx512f"), always_inline)) inline __m512 Pool2x2Window(
    const __m512 v[4], const Pool2x2Lanes& lanes, int p) {
  return _mm512_mask_blend_ps(
      lanes.upper[p], _mm512_permutex2var_ps(v[0], lanes.gather[p], v[1]),
      _mm512_permutex2var_ps(v[2], lanes.gather[p], v[3]));
}

// MaxPool2d's scan of every window, lane-wise, in the order top-left,
// top-right, bottom-left, bottom-right: a strict _CMP_GT_OQ compare is
// false on a tie and on a NaN either side, exactly like `v > best`. Returns
// the maxima and sets *code to the winning position, one 32-bit lane per
// window.
__attribute__((target("avx512f"), always_inline)) inline __m512 Pool2x2Scan(
    const __m512 v[4], const Pool2x2Lanes& lanes, __m512i* code) {
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
// −0.0 gradient into +0.0, as MaxPool2d's backward does). A code outside
// 0-3 names no position, so its window's gradient is all +0.0f. Lanes past
// n read no gradient and come out +0.0f; the codes are one 16-byte load.
__attribute__((target("avx512f"), always_inline)) inline void Pool2x2Scatter(
    const float* gy, const uint8_t* codes, int64_t n,
    const Pool2x2Lanes& lanes, __m512 dense[4]) {
  const __mmask16 live = LanesBelow(n);
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

// Per register q of a plane (output positions 16·q + [0, 16), 16/width
// whole rows) and per tap t = kh·3 + kw: the lanes whose input
// (oh + kh − 1, ow + kw − 1) lies inside the plane.
template <int kRegs>
struct TapMasks {
  __mmask16 lanes[kRegs][9];
  TapMasks(int64_t height, int64_t width) {
    // Per kw, the lanes whose column ow + kw − 1 lies inside the row.
    __mmask16 cols[3] = {0, 0xFFFF, 0};
    for (int l = 0; l < 16; ++l) {
      const int64_t ow = l % width;
      if (ow > 0) cols[0] = static_cast<__mmask16>(cols[0] | (1u << l));
      if (ow + 1 < width) cols[2] = static_cast<__mmask16>(cols[2] | (1u << l));
    }
    const int64_t plane = height * width;
    for (int q = 0; q < kRegs; ++q) {
      const int64_t start = 16 * q;
      const __mmask16 live = LanesBelow(plane - start);
      const __mmask16 row_ok[3] = {
          static_cast<__mmask16>(live & ~LanesBelow(width - start)), live,
          LanesBelow(plane - width - start)};
      for (int t = 0; t < 9; ++t) {
        lanes[q][t] = static_cast<__mmask16>(row_ok[t / 3] & cols[t % 3]);
      }
    }
  }
};

// The tap chains of the kRegs registers of one sample's plane at `xn` for
// kRows output channels: acc[r·kRegs + q] holds positions 16·q + [0, 16) of
// channel r, whose weight row starts at w + r·9·in_channels. Tap
// (ic, kh, kw) of every lane is one masked load at offset
// (kh − 1)·width + kw − 1 from the position.
template <int kRows, int kRegs>
__attribute__((target("avx512f"), always_inline)) inline void Conv3x3Chains(
    const float* xn, int64_t in_channels, int64_t plane, int64_t width,
    const TapMasks<kRegs>& masks, const float* w,
    __m512 (&acc)[kRows * kRegs]) {
  const int64_t k = in_channels * 9;
  for (int i = 0; i < kRows * kRegs; ++i) acc[i] = _mm512_setzero_ps();
  for (int64_t ic = 0; ic < in_channels; ++ic) {
    const float* xc = xn + ic * plane;
    for (int t = 0; t < 9; ++t) {
      const int64_t offset = (t / 3 - 1) * width + t % 3 - 1;
      __m512 xv[kRegs];
      for (int q = 0; q < kRegs; ++q) {
        xv[q] = _mm512_maskz_loadu_ps(masks.lanes[q][t],
                                      FloatAddress(xc, offset + 16 * q));
      }
      for (int r = 0; r < kRows; ++r) {
        const __m512 wv = _mm512_set1_ps(w[r * k + ic * 9 + t]);
        for (int q = 0; q < kRegs; ++q) {
          acc[r * kRegs + q] =
              _mm512_add_ps(acc[r * kRegs + q], _mm512_mul_ps(wv, xv[q]));
        }
      }
    }
  }
}

// The dW kernel's tap registers: lane t = kh·3 + kw holds tap (ic, kh, kw)
// of one output position, lanes 9-15 hold +0.0f. For output position
// (oh, ow), LoadTapRows puts input rows oh − 1..oh + 1 in lanes
// [0, 3·width) of two registers, and one two-source permute by idx[ow]
// picks the 9 taps out of them, sending halo taps to zero lane 31.
constexpr __mmask16 kTapLanes = 0x1FF;

struct TapIndex {
  alignas(64) int32_t idx[8][16];  // per ow; fused widths are <= 8
  explicit TapIndex(int64_t width) {
    constexpr int32_t kZeroLane = 31;
    for (int64_t ow = 0; ow < width; ++ow) {
      for (int t = 0; t < 16; ++t) {
        const int64_t col = ow + t % 3 - 1;
        idx[ow][t] = t < 9 && col >= 0 && col < width
                         ? static_cast<int32_t>(t / 3 * width + col)
                         : kZeroLane;
      }
    }
  }
};

__attribute__((target("avx512f"), always_inline)) inline void LoadTapRows(
    const float* xc, int64_t oh, int64_t height, int64_t width, __m512* lo,
    __m512* hi) {
  // Rows oh − 1 + j for j in [first, last) exist.
  const int64_t first = oh == 0 ? 1 : 0;
  const int64_t last = std::min<int64_t>(3, height + 1 - oh);
  const uint32_t rows =
      ((1u << (last * width)) - 1u) & ~((1u << (first * width)) - 1u);
  const int64_t start = (oh - 1) * width;
  *lo = _mm512_maskz_loadu_ps(static_cast<__mmask16>(rows),
                              FloatAddress(xc, start));
  *hi = _mm512_maskz_loadu_ps(static_cast<__mmask16>(rows >> 16),
                              FloatAddress(xc, start + 16));
}

// A plane of kRegs·16 conv outputs (8x8: 4 registers, one row pair each;
// 4x4: 1 register, two row pairs) is whole row pairs per register, and the
// flat conv output of consecutive channels is consecutive registers, so
// every 4 registers of a channel block pool as one 2x2 pool step of 16
// outputs.

// Pooled outputs and codes of channels [oc0, oc0 + kRows) of every sample:
// `w` and `bias` point at channel oc0's weight row and bias, `y` and
// `codes` at its pooled row in sample 0. Per register, the tap chain,
// + bias after it, then ReLU as max_ps(+0.0, v), which is `v < 0 ? 0 : v`
// bit for bit: it returns its second operand on a tie of zeros and on a
// NaN. The code is the scan's winner, plus kDeadBit where the maximum is
// <= 0 (_CMP_LE_OQ is false on a NaN): there ReLU's backward passes +0.0.
constexpr int kDeadBit = 4;

template <int kRows, int kRegs>
__attribute__((target("avx512f"))) void ConvBlockForwardAvx512(
    const float* x, int64_t batch, int64_t in_channels, int64_t out_channels,
    int64_t height, int64_t width, const float* w, const float* bias,
    float* y, uint8_t* codes) {
  constexpr int kCount = kRows * kRegs;
  const int64_t plane = height * width;
  const TapMasks<kRegs> masks(height, width);
  const Pool2x2Lanes lanes = MakePool2x2Lanes(width);
  const __m512 zero = _mm512_setzero_ps();
  for (int64_t n = 0; n < batch; ++n) {
    const float* xn = x + n * in_channels * plane;
    const int64_t out0 = n * out_channels * plane / 4;
    __m512 acc[kCount];
    Conv3x3Chains<kRows, kRegs>(xn, in_channels, plane, width, masks, w, acc);
    for (int i = 0; i < kCount; ++i) {
      acc[i] = _mm512_max_ps(
          zero, _mm512_add_ps(acc[i], _mm512_set1_ps(bias[i / kRegs])));
    }
    for (int g = 0; g < kCount; g += 4) {
      const __m512 v[4] = {acc[g], g + 1 < kCount ? acc[g + 1] : zero,
                           g + 2 < kCount ? acc[g + 2] : zero,
                           g + 3 < kCount ? acc[g + 3] : zero};
      __m512i code;
      const __m512 best = Pool2x2Scan(v, lanes, &code);
      const __mmask16 dead = _mm512_cmp_ps_mask(best, zero, _CMP_LE_OQ);
      code = _mm512_mask_or_epi32(code, dead, code,
                                  _mm512_set1_epi32(kDeadBit));
      const __mmask16 live = LanesBelow(4 * (kCount - g));
      _mm512_mask_storeu_ps(y + out0 + 4 * g, live, best);
      _mm512_mask_cvtepi32_storeu_epi8(codes + out0 + 4 * g, live, code);
    }
  }
}

// The fused backward over `outputs` pooled gradients `gp` of rows of
// kRegsPerRow·16 conv outputs (one row per (n, oc)). With kWriteGradient,
// writes the whole conv-output gradient `gy` through the pool's scatter: a
// code with the dead bit names no position, so the window gets +0.0f, as
// ReLU's backward writes. Adds each row's bias gradient to
// bias_grad[row % out_channels] in row order, summed as
// Conv2d::AccumulateBiasGrad does: four stripes by p mod 4 in ascending p,
// then (s0 + s1) + (s2 + s3). Lane 4·r + j of one register is stripe j of
// row r of four rows; a 4x4 transpose of 128-bit blocks gives each step's
// addends.
template <int kRegsPerRow, bool kWriteGradient>
__attribute__((target("avx512f"))) void ConvBlockBackwardAvx512(
    const float* gp, const uint8_t* codes, int64_t outputs, int64_t width,
    int64_t out_channels, float* gy, float* bias_grad) {
  const Pool2x2Lanes lanes = MakePool2x2Lanes(width);
  const int64_t rows = 4 * outputs / (16 * kRegsPerRow);
  // 64 pooled outputs per step: 16 registers of conv-output gradient, 4
  // rows at 8x8 and 16 at 4x4.
  for (int64_t o = 0; o < outputs; o += 64) {
    __m512 d[16];
    for (int q = 0; q < 4; ++q) {
      const int64_t at = o + 16 * q;
      const int64_t n = std::clamp<int64_t>(outputs - at, 0, 16);
      if (n == 0) {
        for (int k = 0; k < 4; ++k) d[4 * q + k] = _mm512_setzero_ps();
        continue;
      }
      Pool2x2Scatter(gp + at, codes + at, n, lanes, d + 4 * q);
      if constexpr (kWriteGradient) {
        for (int k = 0; k < 4; ++k) {
          _mm512_mask_storeu_ps(gy + 4 * at + 16 * k,
                                LanesBelow(4 * n - 16 * k), d[4 * q + k]);
        }
      }
    }
    const int64_t row0 = 4 * o / (16 * kRegsPerRow);
    for (int b = 0; b < 4 / kRegsPerRow; ++b) {
      const __m512* quad = d + 4 * b * kRegsPerRow;  // row r, register k:
                                                     // quad[r·kRegsPerRow + k]
      __m512 s = _mm512_setzero_ps();
      for (int k = 0; k < kRegsPerRow; ++k) {
        const __m512 r0 = quad[k];
        const __m512 r1 = quad[kRegsPerRow + k];
        const __m512 r2 = quad[2 * kRegsPerRow + k];
        const __m512 r3 = quad[3 * kRegsPerRow + k];
        const __m512 lo01 = _mm512_shuffle_f32x4(r0, r1, 0x44);
        const __m512 hi01 = _mm512_shuffle_f32x4(r0, r1, 0xEE);
        const __m512 lo23 = _mm512_shuffle_f32x4(r2, r3, 0x44);
        const __m512 hi23 = _mm512_shuffle_f32x4(r2, r3, 0xEE);
        s = _mm512_add_ps(s, _mm512_shuffle_f32x4(lo01, lo23, 0x88));
        s = _mm512_add_ps(s, _mm512_shuffle_f32x4(lo01, lo23, 0xDD));
        s = _mm512_add_ps(s, _mm512_shuffle_f32x4(hi01, hi23, 0x88));
        s = _mm512_add_ps(s, _mm512_shuffle_f32x4(hi01, hi23, 0xDD));
      }
      alignas(64) float stripe[16];
      _mm512_store_ps(stripe, s);
      for (int r = 0; r < 4; ++r) {
        const int64_t row = row0 + 4 * b + r;
        if (row >= rows) break;
        const float* st = stripe + 4 * r;
        bias_grad[row % out_channels] += (st[0] + st[1]) + (st[2] + st[3]);
      }
    }
  }
}

// The winners-only dW (DESIGN.md §7.2). Off a live window's winner the
// conv-output gradient is +0.0f, so that term of an (oc, tap) chain is
// fl(+0.0·x): ±0.0 when the input x is finite. Adding ±0.0 leaves every
// accumulator but −0.0 unchanged, and under round-to-nearest a sum is −0.0
// only when both addends are, so a chain that does not start at −0.0 never
// reaches it. With every input finite and no starting dW lane −0.0, the
// chain over the winners alone is the dense chain, bit for bit.

// True when (bits & mask) == value for some float of [x, x + n).
__attribute__((target("avx512f"))) bool AnyBitsMatch(const float* x,
                                                     int64_t n, uint32_t mask,
                                                     uint32_t value) {
  const __m512i m = _mm512_set1_epi32(static_cast<int32_t>(mask));
  const __m512i v = _mm512_set1_epi32(static_cast<int32_t>(value));
  __mmask16 hit = 0;
  for (int64_t i = 0; i < n; i += 16) {
    const __m512i bits = _mm512_maskz_loadu_epi32(LanesBelow(n - i), x + i);
    hit = static_cast<__mmask16>(
        hit | _mm512_mask_cmpeq_epi32_mask(LanesBelow(n - i),
                                           _mm512_and_si512(bits, m), v));
  }
  return hit != 0;
}

// Each (n, oc) row's live winners of a kWidth x kWidth conv plane (kQ
// pooled outputs), as conv-output positions `pos` and gradients
// `grad` = 0.0f + g, in ascending position: within a pooled row pair every
// top-row winner comes before every bottom-row winner. A row's dead windows
// leave (0, +0.0f) entries at its end, which are dropped-term products too.
//
// A register of 16 pooled outputs (16/kQ rows) feeds 32 slots, one per
// (row, pooled row ph, window row dy, pooled column pw) in that order, so
// slot order is ascending position. Slot s takes window (ph, pw) when its
// code names row dy and carries no dead bit; compressing the taken slots
// gives the list.
template <int kWidth>
__attribute__((target("avx512f"))) void BuildWinnerLists(
    const float* gp, const uint8_t* codes, int64_t rows, int32_t* pos,
    float* grad) {
  constexpr int kHalf = kWidth / 2;
  constexpr int kQ = kHalf * kHalf;
  constexpr int kRowsPerReg = 16 / kQ;
  alignas(64) int32_t src[2][16];   // the slot's window lane
  alignas(64) int32_t want[2][16];  // code & 6 when the slot is taken
  alignas(64) int32_t base[2][16];  // position of the slot's left column
  for (int s = 0; s < 32; ++s) {
    const int t = s % (2 * kQ);
    const int ph = t / kWidth;
    const int dy = t / kHalf % 2;
    const int pw = t % kHalf;
    src[s / 16][s % 16] = s / (2 * kQ) * kQ + ph * kHalf + pw;
    want[s / 16][s % 16] = 2 * dy;
    base[s / 16][s % 16] = (2 * ph + dy) * kWidth + 2 * pw;
  }
  const __m512i six = _mm512_set1_epi32(6);
  const __m512i one = _mm512_set1_epi32(1);
  for (int64_t r0 = 0; r0 < rows; r0 += kRowsPerReg) {
    const int64_t at = r0 * kQ;
    const __mmask16 live = LanesBelow((rows - r0) * kQ);
    const __m512i code = _mm512_maskz_cvtepu8_epi32(
        live, _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + at)));
    const __m512 g = _mm512_add_ps(_mm512_setzero_ps(),
                                   _mm512_maskz_loadu_ps(live, gp + at));
    int filled = 0;  // kQ == 16: entries of row r0 written so far
    for (int h = 0; h < 2; ++h) {
      const __m512i lane = _mm512_load_si512(src[h]);
      const __m512i c = _mm512_permutexvar_epi32(lane, code);
      const __mmask16 taken = _mm512_cmpeq_epi32_mask(
          _mm512_and_si512(c, six), _mm512_load_si512(want[h]));
      const __m512i p = _mm512_add_epi32(_mm512_load_si512(base[h]),
                                         _mm512_and_si512(c, one));
      const __m512 gs = _mm512_permutexvar_ps(lane, g);
      if constexpr (kQ == 16) {
        // Both halves are row r0; the second appends to the first, whose
        // compress left +0 past its taken slots.
        const __mmask16 store =
            h == 0 ? __mmask16{0xFFFF} : LanesBelow(16 - filled);
        _mm512_mask_storeu_epi32(pos + at + filled, store,
                                 _mm512_maskz_compress_epi32(taken, p));
        _mm512_mask_storeu_ps(grad + at + filled, store,
                              _mm512_maskz_compress_ps(taken, gs));
        filled += __builtin_popcount(taken);
      } else {
        // Each half holds two rows of 8 slots.
        for (int k = 0; k < 2; ++k) {
          const int64_t row = r0 + 2 * h + k;
          if (row >= rows) break;
          const __mmask16 mine =
              static_cast<__mmask16>(taken & (0xFFu << (8 * k)));
          _mm512_mask_storeu_epi32(pos + row * kQ, LanesBelow(kQ),
                                   _mm512_maskz_compress_epi32(mine, p));
          _mm512_mask_storeu_ps(grad + row * kQ, LanesBelow(kQ),
                                _mm512_maskz_compress_ps(mine, gs));
        }
      }
    }
  }
}

// dW rows [oc0, oc0 + kRows) over the whole batch from the winner lists of
// a kWidth x kWidth plane: `pos`/`grad` point at channel oc0's list in
// sample 0, `wg` at its gradient row. Each (oc, tap) accumulator is loaded
// once, runs its chain over the whole batch and is stored once; accumulate
// mode continues a GEMM chain through C, so this is Conv2d's per-sample
// SgemmNT chain (dW += gy @ colᵀ, operand order included) with the
// non-winner terms left out. Per (n, ic) the taps of every position go to a
// table once, then each row's list adds (0.0f + g)·taps in ascending
// position.
template <int kRows, int kWidth>
__attribute__((target("avx512f"))) void ConvBlockWeightGradAvx512(
    const float* x, const int32_t* pos, const float* grad, int64_t batch,
    int64_t in_channels, int64_t out_channels, float* wg) {
  constexpr int64_t kPlane = kWidth * kWidth;
  constexpr int64_t kQ = kPlane / 4;
  const int64_t k = in_channels * 9;
  const TapIndex tap(kWidth);
  alignas(64) float taps[kPlane][16];
  for (int64_t ic = 0; ic < in_channels; ++ic) {
    __m512 acc[kRows];
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm512_maskz_loadu_ps(kTapLanes, wg + r * k + ic * 9);
    }
    for (int64_t n = 0; n < batch; ++n) {
      const float* xc = x + (n * in_channels + ic) * kPlane;
      for (int64_t oh = 0; oh < kWidth; ++oh) {
        __m512 lo, hi;
        LoadTapRows(xc, oh, kWidth, kWidth, &lo, &hi);
        for (int64_t ow = 0; ow < kWidth; ++ow) {
          _mm512_store_ps(taps[oh * kWidth + ow],
                          _mm512_permutex2var_ps(
                              lo, _mm512_load_si512(tap.idx[ow]), hi));
        }
      }
      const int32_t* pn = pos + n * out_channels * kQ;
      const float* gn = grad + n * out_channels * kQ;
      for (int64_t j = 0; j < kQ; ++j) {
        for (int r = 0; r < kRows; ++r) {
          const __m512 gv = _mm512_set1_ps(gn[r * kQ + j]);
          acc[r] = _mm512_add_ps(
              acc[r], _mm512_mul_ps(gv, _mm512_load_ps(taps[pn[r * kQ + j]])));
        }
      }
    }
    for (int r = 0; r < kRows; ++r) {
      _mm512_mask_storeu_ps(wg + r * k + ic * 9, kTapLanes, acc[r]);
    }
  }
}

bool DetectAvx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool DetectAvx512() { return false; }
#endif  // FATS_CONV_X86

// Resolved once at static-init time; a pure function of the host CPU. The
// fused and unfused ConvBlock compute the same bits, so the choice never
// shows in a result.
const bool kUseAvx512 = DetectAvx512();

}  // namespace

namespace internal {

bool ConvBlockUsesAvx512() { return kUseAvx512; }

}  // namespace internal

Conv2d::Conv2d(int64_t in_channels, int64_t out_channels, int64_t height,
               int64_t width, int64_t kernel_size, int64_t padding,
               RngStream* rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      height_(height),
      width_(width),
      kernel_size_(kernel_size),
      padding_(padding),
      out_height_(height + 2 * padding - kernel_size + 1),
      out_width_(width + 2 * padding - kernel_size + 1),
      weight_("conv_weight",
              Tensor({out_channels, in_channels * kernel_size * kernel_size})),
      bias_("conv_bias", Tensor({out_channels})) {
  FATS_CHECK_GT(out_height_, 0) << "kernel larger than padded input";
  FATS_CHECK_GT(out_width_, 0);
  InitHeNormal(&weight_.value, in_channels * kernel_size * kernel_size, rng);
}

// Unrolls one sample (CHW at `x`) into the (K x P) column matrix: row
// ic*k² + kh*k + kw holds, for every output position p = oh*out_w + ow, the
// input value under kernel tap (kh, kw) — zero where the tap falls in the
// padding halo.
void Conv2d::Im2Col(const float* x, float* col) const {
  float* dst = col;
  for (int64_t ic = 0; ic < in_channels_; ++ic) {
    const float* xc = x + ic * height_ * width_;
    for (int64_t kh = 0; kh < kernel_size_; ++kh) {
      for (int64_t kw = 0; kw < kernel_size_; ++kw) {
        // ow positions with 0 <= ow + kw - padding_ < width_ read the input;
        // the rest are padding-halo zeros. Splitting the row into
        // zero-prefix / contiguous copy / zero-suffix keeps the per-element
        // bounds test out of the inner loop.
        const int64_t lo =
            std::min(out_width_, std::max<int64_t>(0, padding_ - kw));
        const int64_t hi =
            std::max(lo, std::min(out_width_, width_ - kw + padding_));
        for (int64_t oh = 0; oh < out_height_; ++oh) {
          const int64_t ih = oh + kh - padding_;
          if (ih < 0 || ih >= height_) {
            std::fill(dst, dst + out_width_, 0.0f);
            dst += out_width_;
            continue;
          }
          const float* xrow = xc + ih * width_ + (kw - padding_);
          std::fill(dst, dst + lo, 0.0f);
          if (hi > lo) {
            std::memcpy(dst + lo, xrow + lo,
                        static_cast<size_t>(hi - lo) * sizeof(float));
          }
          std::fill(dst + hi, dst + out_width_, 0.0f);
          dst += out_width_;
        }
      }
    }
  }
}

// Scatters a (K x P) column-gradient matrix back onto the CHW input
// gradient at `gx` (accumulating — positions covered by several receptive
// fields sum their contributions in fixed kh/kw-major order).
void Conv2d::Col2ImAdd(const float* col, float* gx) const {
  const float* src = col;
  for (int64_t ic = 0; ic < in_channels_; ++ic) {
    float* gxc = gx + ic * height_ * width_;
    for (int64_t kh = 0; kh < kernel_size_; ++kh) {
      for (int64_t kw = 0; kw < kernel_size_; ++kw) {
        // Same in-bounds ow range as Im2Col; out-of-range taps contribute
        // nothing, so skipping them outright leaves every gx element's
        // accumulation sequence — and therefore its bits — unchanged.
        const int64_t lo =
            std::min(out_width_, std::max<int64_t>(0, padding_ - kw));
        const int64_t hi =
            std::max(lo, std::min(out_width_, width_ - kw + padding_));
        for (int64_t oh = 0; oh < out_height_; ++oh) {
          const int64_t ih = oh + kh - padding_;
          if (ih < 0 || ih >= height_) {
            src += out_width_;
            continue;
          }
          float* gxrow = gxc + ih * width_ + (kw - padding_);
          for (int64_t ow = lo; ow < hi; ++ow) gxrow[ow] += src[ow];
          src += out_width_;
        }
      }
    }
  }
}

Tensor& Conv2d::BuildColumns(const Tensor& input, Workspace* ws) {
  const int64_t batch = input.dim(0);
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  Tensor& col = ws->Get(this, kCol, batch, K, P);
  for (int64_t n = 0; n < batch; ++n) {
    Im2Col(input.data() + n * in_channels_ * height_ * width_,
           col.data() + n * K * P);
  }
  return col;
}

const Tensor& Conv2d::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), in_channels_ * height_ * width_) << ToString();
  const int64_t batch = input.dim(0);
  cached_input_ = &input;
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  Tensor& out = ws->Get(this, kOut, batch, out_channels_ * P);
  const float* bp = bias_.value.data();
  const Tensor& col = BuildColumns(input, ws);  // kept for Backward
  for (int64_t n = 0; n < batch; ++n) {
    float* y = out.data() + n * out_channels_ * P;
    // y (oc x P) = W (oc x K) @ col (K x P).
    gemm::SgemmNN(out_channels_, P, K, weight_.value.data(), K,
                  col.data() + n * K * P, P, y, P, /*accumulate=*/false);
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      float* yrow = y + oc * P;
      const float b = bp[oc];
      for (int64_t p = 0; p < P; ++p) yrow[p] += b;
    }
  }
  return out;
}

void Conv2d::AccumulateBiasGrad(const Tensor& grad_output) {
  const int64_t batch = grad_output.dim(0);
  const int64_t P = out_height_ * out_width_;
  float* bgrad = bias_.grad.data();
  for (int64_t n = 0; n < batch; ++n) {
    const float* gy = grad_output.data() + n * out_channels_ * P;
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float* gyrow = gy + oc * P;
      // Four interleaved partial sums break the serial FP dependence chain
      // (a single accumulator is latency-bound at ~4 cycles per add). The
      // stripe assignment and combine order are fixed, so the sum is still
      // a pure function of the inputs — deterministic across runs and
      // thread counts, as replay requires.
      float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
      int64_t p = 0;
      for (; p + 4 <= P; p += 4) {
        s0 += gyrow[p];
        s1 += gyrow[p + 1];
        s2 += gyrow[p + 2];
        s3 += gyrow[p + 3];
      }
      float acc = (s0 + s1) + (s2 + s3);
      for (; p < P; ++p) acc += gyrow[p];
      bgrad[oc] += acc;
    }
  }
}

void Conv2d::AccumulateWeightGrad(const Tensor& grad_output, Workspace* ws) {
  FATS_CHECK(cached_input_ != nullptr) << "Backward before Forward";
  const int64_t batch = cached_input_->dim(0);
  FATS_CHECK_EQ(grad_output.dim(0), batch);
  FATS_CHECK_EQ(grad_output.dim(1), out_channels_ * out_height_ * out_width_);
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  const Tensor& col = ws->Peek(this, kCol);
  FATS_CHECK_EQ(col.size(), batch * K * P) << "Backward before Forward";
  for (int64_t n = 0; n < batch; ++n) {
    const float* gy = grad_output.data() + n * out_channels_ * P;
    // dW (oc x K) += gy (oc x P) @ col^T.
    gemm::SgemmNT(out_channels_, K, P, gy, P, col.data() + n * K * P, P,
                  weight_.grad.data(), K, /*accumulate=*/true);
  }
}

void Conv2d::BackwardParameters(const Tensor& grad_output, Workspace* ws) {
  AccumulateWeightGrad(grad_output, ws);  // checks the shapes first
  AccumulateBiasGrad(grad_output);
}

const Tensor& Conv2d::InputGradient(const Tensor& grad_output,
                                    Workspace* ws) {
  const int64_t batch = cached_input_->dim(0);
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  Tensor& dcol = ws->Get(this, kDcol, K, P);
  Tensor& grad_input =
      ws->Get(this, kGradIn, batch, in_channels_ * height_ * width_);
  grad_input.Fill(0.0f);
  for (int64_t n = 0; n < batch; ++n) {
    const float* gy = grad_output.data() + n * out_channels_ * P;
    // dcol (K x P) = W^T @ gy.
    gemm::SgemmTN(K, P, out_channels_, weight_.value.data(), K, gy, P,
                  dcol.data(), P, /*accumulate=*/false);
    Col2ImAdd(dcol.data(),
              grad_input.data() + n * in_channels_ * height_ * width_);
  }
  return grad_input;
}

const Tensor& Conv2d::Backward(const Tensor& grad_output, Workspace* ws) {
  // The input gradient reads only W and gy, so computing it after every
  // sample's parameter gradients leaves both sets of bits unchanged.
  BackwardParameters(grad_output, ws);
  return InputGradient(grad_output, ws);
}

std::string Conv2d::ToString() const {
  return StrFormat("Conv2d(%lldx%lldx%lld -> %lld ch, k=%lld, p=%lld)",
                   static_cast<long long>(in_channels_),
                   static_cast<long long>(height_),
                   static_cast<long long>(width_),
                   static_cast<long long>(out_channels_),
                   static_cast<long long>(kernel_size_),
                   static_cast<long long>(padding_));
}

int64_t Conv2d::OutputFeatures(int64_t input_features) const {
  FATS_CHECK_EQ(input_features, in_channels_ * height_ * width_);
  return out_channels_ * out_height_ * out_width_;
}

ConvBlock::ConvBlock(int64_t in_channels, int64_t out_channels,
                     int64_t height, int64_t width, int64_t kernel_size,
                     int64_t padding, RngStream* rng)
    : conv_(in_channels, out_channels, height, width, kernel_size, padding,
            rng),
      pool_(out_channels, conv_.out_height(), conv_.out_width()),
      fused_(kUseAvx512 && kernel_size == 3 && padding == 1 &&
             height == width && (width == 8 || width == 4)) {}

const Tensor& ConvBlock::Forward(const Tensor& input, Workspace* ws) {
#if FATS_CONV_X86
  if (fused_) {
    FATS_CHECK_EQ(input.rank(), 2);
    FATS_CHECK_EQ(input.dim(1),
                  conv_.in_channels_ * conv_.height_ * conv_.width_)
        << ToString();
    const int64_t batch = input.dim(0);
    conv_.cached_input_ = &input;
    const int64_t K = conv_.in_channels_ * 9;
    const int64_t pooled = conv_.height_ * conv_.width_ / 4;
    Tensor& out = ws->Get(this, kBlockOut, batch, out_channels() * pooled);
    codes_.resize(static_cast<size_t>(out.size()) + kCodeSlack);
    const float* w = conv_.weight_.value.data();
    const float* b = conv_.bias_.value.data();
    auto run = [&](auto regs) {
      // Three channels of four registers at 8x8; one pool step of four
      // channels at 4x4.
      constexpr int kRegs = decltype(regs)::value;
      ForEachOcBlock<kRegs == 4 ? 3 : 4>(
          conv_.out_channels_, [&](int64_t oc0, auto rows) {
            ConvBlockForwardAvx512<decltype(rows)::value, kRegs>(
                input.data(), batch, conv_.in_channels_, conv_.out_channels_,
                conv_.height_, conv_.width_, w + oc0 * K, b + oc0,
                out.data() + oc0 * pooled, codes_.data() + oc0 * pooled);
          });
    };
    if (conv_.width_ == 8) {
      run(std::integral_constant<int, 4>{});
    } else {
      run(std::integral_constant<int, 1>{});
    }
    return out;
  }
#endif
  return pool_.Forward(relu_.Forward(conv_.Forward(input, ws), ws), ws);
}

const Tensor* ConvBlock::FusedBackwardParameters(const Tensor& grad_output,
                                                 Workspace* ws,
                                                 bool keep_grad_conv) {
  FATS_CHECK(conv_.cached_input_ != nullptr) << "Backward before Forward";
  const Tensor& x = *conv_.cached_input_;
  const int64_t batch = x.dim(0);
  const int64_t plane = conv_.height_ * conv_.width_;
  FATS_CHECK_EQ(grad_output.size(), batch * out_channels() * plane / 4);
  Tensor* grad_conv = nullptr;
#if FATS_CONV_X86
  // The winners-only dW's guards: every input finite, and no starting dW
  // lane −0.0. Training always passes them.
  Tensor& wg = conv_.weight_.grad;
  const bool winners_only =
      !AnyBitsMatch(x.data(), x.size(), 0x7F800000u, 0x7F800000u) &&
      !AnyBitsMatch(wg.data(), wg.size(), 0xFFFFFFFFu, 0x80000000u);
  if (keep_grad_conv || !winners_only) {
    grad_conv = &ws->Get(this, kBlockGradConv, batch, out_channels() * plane);
  }
  auto run = [&](auto width) {
    constexpr int kWidth = decltype(width)::value;
    constexpr int kRegsPerRow = kWidth * kWidth / 16;
    float* bias_grad = conv_.bias_.grad.data();
    if (grad_conv != nullptr) {
      ConvBlockBackwardAvx512<kRegsPerRow, true>(
          grad_output.data(), codes_.data(), grad_output.size(), kWidth,
          conv_.out_channels_, grad_conv->data(), bias_grad);
    } else {
      ConvBlockBackwardAvx512<kRegsPerRow, false>(
          grad_output.data(), codes_.data(), grad_output.size(), kWidth,
          conv_.out_channels_, nullptr, bias_grad);
    }
    if (!winners_only) {
      conv_.BuildColumns(x, ws);
      conv_.AccumulateWeightGrad(*grad_conv, ws);
      return;
    }
    constexpr int64_t kQ = kWidth * kWidth / 4;
    const int64_t k = conv_.in_channels_ * 9;
    winner_pos_.resize(static_cast<size_t>(grad_output.size()));
    winner_grad_.resize(static_cast<size_t>(grad_output.size()));
    BuildWinnerLists<kWidth>(grad_output.data(), codes_.data(),
                             batch * out_channels(), winner_pos_.data(),
                             winner_grad_.data());
    ForEachOcBlock<kOcBlock>(
        conv_.out_channels_, [&](int64_t oc0, auto rows) {
          ConvBlockWeightGradAvx512<decltype(rows)::value, kWidth>(
              x.data(), winner_pos_.data() + oc0 * kQ,
              winner_grad_.data() + oc0 * kQ, batch, conv_.in_channels_,
              conv_.out_channels_, wg.data() + oc0 * k);
        });
  };
  if (conv_.width_ == 8) {
    run(std::integral_constant<int, 8>{});
  } else {
    run(std::integral_constant<int, 4>{});
  }
#else
  (void)ws;
  (void)keep_grad_conv;
#endif
  return grad_conv;
}

void ConvBlock::BackwardParameters(const Tensor& grad_output, Workspace* ws) {
  if (fused_) {
    FusedBackwardParameters(grad_output, ws, /*keep_grad_conv=*/false);
    return;
  }
  conv_.BackwardParameters(
      relu_.Backward(pool_.Backward(grad_output, ws), ws), ws);
}

const Tensor& ConvBlock::Backward(const Tensor& grad_output, Workspace* ws) {
  if (fused_) {
    return conv_.InputGradient(
        *FusedBackwardParameters(grad_output, ws, /*keep_grad_conv=*/true),
        ws);
  }
  return conv_.Backward(relu_.Backward(pool_.Backward(grad_output, ws), ws),
                        ws);
}

std::string ConvBlock::ToString() const {
  std::string out = "ConvBlock(";
  out += conv_.ToString();
  out += " -> ReLU -> ";
  out += pool_.ToString();
  out += ")";
  return out;
}

int64_t ConvBlock::OutputFeatures(int64_t input_features) const {
  return pool_.OutputFeatures(conv_.OutputFeatures(input_features));
}

}  // namespace fats
