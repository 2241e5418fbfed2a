#include "nn/pooling.h"

#include <algorithm>

#include "util/string_util.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_POOL_X86 1
#include <immintrin.h>
#endif

namespace fats {

namespace {
enum Slot { kOut, kGradIn };

// BackwardAvx512 loads 16 codes at a time; the slack keeps a load that
// starts at the last live code inside the buffer.
constexpr size_t kCodeSlack = 15;

#if FATS_POOL_X86
// Lanes [0, n) of a 16-lane mask, n in [0, 16].
inline __mmask16 LaneMask(int64_t n) {
  return static_cast<__mmask16>((1u << n) - 1u);
}

// Lanes [0, n - 16·k) of register k of a run of n floats, clamped to [0, 16].
inline __mmask16 RegisterMask(int64_t n, int64_t k) {
  return LaneMask(std::clamp<int64_t>(n - 16 * k, 0, 16));
}

// Widths that divide 16 (every zoo model's 8x8 conv output, then 4x4):
// 16 consecutive outputs are whole row pairs, and read and write 64
// consecutive input floats, held in four registers. A window position's 16
// lanes come from registers 0-1 or 2-3 (one two-source permute each, then a
// blend); `width` fixes the pattern.
__attribute__((target("avx512f"))) void ForwardAvx512(
    const float* x, int64_t outputs, int64_t width, float* y,
    uint8_t* codes) {
  const int64_t half = width / 2;
  alignas(64) int32_t idx[4][16];
  __mmask16 upper[4] = {0, 0, 0, 0};
  for (int64_t l = 0; l < 16; ++l) {
    const int64_t a = 2 * width * (l / half) + 2 * (l % half);
    const int64_t off[4] = {a, a + 1, a + width, a + width + 1};
    for (int p = 0; p < 4; ++p) {
      idx[p][l] = static_cast<int32_t>(off[p] & 31);
      if (off[p] >= 32) {
        upper[p] = static_cast<__mmask16>(upper[p] | (1u << l));
      }
    }
  }
  __m512i gather[4];
  for (int p = 0; p < 4; ++p) gather[p] = _mm512_load_si512(idx[p]);
  for (int64_t o = 0; o < outputs; o += 16) {
    const int64_t n = std::min<int64_t>(16, outputs - o);
    const float* src = x + 4 * o;
    __m512 v[4];
    for (int k = 0; k < 4; ++k) {
      v[k] = _mm512_maskz_loadu_ps(RegisterMask(4 * n, k), src + 16 * k);
    }
    // The scan of every window, lane-wise: a strict _CMP_GT_OQ compare is
    // false on a tie and on a NaN either side, exactly like `v > best`.
    __m512 best = _mm512_mask_blend_ps(
        upper[0], _mm512_permutex2var_ps(v[0], gather[0], v[1]),
        _mm512_permutex2var_ps(v[2], gather[0], v[3]));
    __m512i code = _mm512_setzero_si512();
    for (int p = 1; p < 4; ++p) {
      const __m512 win = _mm512_mask_blend_ps(
          upper[p], _mm512_permutex2var_ps(v[0], gather[p], v[1]),
          _mm512_permutex2var_ps(v[2], gather[p], v[3]));
      const __mmask16 gt = _mm512_cmp_ps_mask(win, best, _CMP_GT_OQ);
      best = _mm512_mask_mov_ps(best, gt, win);
      code = _mm512_mask_mov_epi32(code, gt, _mm512_set1_epi32(p));
    }
    _mm512_mask_storeu_ps(y + o, LaneMask(n), best);
    _mm512_mask_cvtepi32_storeu_epi8(codes + o, LaneMask(n), code);
  }
}

// The inverse of ForwardAvx512's gather: input float 16·k + i takes
// lane `idx` of the (top-left, top-right) pair of window registers, or of
// the (bottom-left, bottom-right) pair where `lower` is set.
__attribute__((target("avx512f"))) void BackwardAvx512(
    const float* gy, const uint8_t* codes, int64_t outputs, int64_t width,
    float* gx) {
  const int64_t half = width / 2;
  alignas(64) int32_t idx[4][16];
  __mmask16 lower[4] = {0, 0, 0, 0};
  for (int64_t f = 0; f < 64; ++f) {
    const int64_t r = f % (2 * width);
    const int64_t col = r % width;
    const int64_t lane = f / (2 * width) * half + col / 2;
    idx[f / 16][f % 16] = static_cast<int32_t>(lane + 16 * (col & 1));
    if (r >= width) {
      lower[f / 16] =
          static_cast<__mmask16>(lower[f / 16] | (1u << (f % 16)));
    }
  }
  __m512i scatter[4];
  for (int k = 0; k < 4; ++k) scatter[k] = _mm512_load_si512(idx[k]);
  for (int64_t o = 0; o < outputs; o += 16) {
    const int64_t n = std::min<int64_t>(16, outputs - o);
    // `0.0f + g` at the coded position (the add turns a −0.0 gradient into
    // +0.0, as accumulating into a zeroed buffer did), +0.0f elsewhere.
    const __m512 g = _mm512_add_ps(_mm512_setzero_ps(),
                                   _mm512_maskz_loadu_ps(LaneMask(n), gy + o));
    const __m512i code = _mm512_maskz_cvtepu8_epi32(
        LaneMask(n),
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + o)));
    __m512 win[4];
    for (int p = 0; p < 4; ++p) {
      win[p] = _mm512_maskz_mov_ps(
          _mm512_cmpeq_epi32_mask(code, _mm512_set1_epi32(p)), g);
    }
    float* dst = gx + 4 * o;
    for (int k = 0; k < 4; ++k) {
      const __m512 v = _mm512_mask_blend_ps(
          lower[k], _mm512_permutex2var_ps(win[0], scatter[k], win[1]),
          _mm512_permutex2var_ps(win[2], scatter[k], win[3]));
      _mm512_mask_storeu_ps(dst + 16 * k, RegisterMask(4 * n, k), v);
    }
  }
}

bool DetectAvx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool DetectAvx512() { return false; }
#endif

// Resolved once at static-init time; a pure function of the host CPU. Both
// paths compute the same bits, so the choice never shows in a result.
const bool kUseAvx512 = DetectAvx512();

}  // namespace

namespace internal {

bool MaxPool2x2UsesAvx512() { return kUseAvx512; }

void MaxPool2x2ForwardPortable(const float* x, int64_t row_pairs,
                               int64_t width, float* y, uint8_t* codes) {
  const int64_t half = width / 2;
  for (int64_t r = 0; r < row_pairs; ++r) {
    const float* top = x + r * 2 * width;
    const float* bottom = top + width;
    for (int64_t j = 0; j < half; ++j) {
      const float win[4] = {top[2 * j], top[2 * j + 1], bottom[2 * j],
                            bottom[2 * j + 1]};
      // Selects, in scan order. GCC 12 still compiles the bottom-left one to
      // a data-dependent branch; a mask-and-or form without it timed no
      // faster at 8x8 and vectorizes into ~4 KB of code.
      float best = win[0];
      uint8_t code = 0;
      for (uint8_t p = 1; p < 4; ++p) {
        const bool better = win[p] > best;
        best = better ? win[p] : best;
        code = better ? p : code;
      }
      y[r * half + j] = best;
      codes[r * half + j] = code;
    }
  }
}

void MaxPool2x2BackwardPortable(const float* gy, const uint8_t* codes,
                                int64_t row_pairs, int64_t width, float* gx) {
  const int64_t half = width / 2;
  for (int64_t r = 0; r < row_pairs; ++r) {
    float* top = gx + r * 2 * width;
    float* bottom = top + width;
    for (int64_t j = 0; j < half; ++j) {
      const float g = 0.0f + gy[r * half + j];
      const uint8_t code = codes[r * half + j];
      top[2 * j] = code == 0 ? g : 0.0f;
      top[2 * j + 1] = code == 1 ? g : 0.0f;
      bottom[2 * j] = code == 2 ? g : 0.0f;
      bottom[2 * j + 1] = code == 3 ? g : 0.0f;
    }
  }
}

}  // namespace internal

MaxPool2d::MaxPool2d(int64_t channels, int64_t height, int64_t width,
                     int64_t window)
    : channels_(channels),
      height_(height),
      width_(width),
      out_height_(height / 2),
      out_width_(width / 2) {
  FATS_CHECK_EQ(window, 2) << "only 2x2 max pooling is implemented";
  FATS_CHECK_EQ(height % 2, 0) << "pool window must divide height";
  FATS_CHECK_EQ(width % 2, 0) << "pool window must divide width";
}

const Tensor& MaxPool2d::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), channels_ * height_ * width_) << ToString();
  const int64_t batch = input.dim(0);
  cached_batch_ = batch;
  Tensor& out =
      ws->Get(this, kOut, batch, channels_ * out_height_ * out_width_);
  codes_.resize(static_cast<size_t>(out.size()) + kCodeSlack);
#if FATS_POOL_X86
  if (kUseAvx512 && 16 % width_ == 0) {
    ForwardAvx512(input.data(), out.size(), width_, out.data(),
                  codes_.data());
    return out;
  }
#endif
  internal::MaxPool2x2ForwardPortable(input.data(),
                                      batch * channels_ * out_height_,
                                      width_, out.data(), codes_.data());
  return out;
}

const Tensor& MaxPool2d::Backward(const Tensor& grad_output, Workspace* ws) {
  FATS_CHECK_GT(cached_batch_, 0) << "Backward before Forward";
  FATS_CHECK_EQ(grad_output.size(),
                cached_batch_ * channels_ * out_height_ * out_width_);
  Tensor& grad_input =
      ws->Get(this, kGradIn, cached_batch_, channels_ * height_ * width_);
#if FATS_POOL_X86
  if (kUseAvx512 && 16 % width_ == 0) {
    BackwardAvx512(grad_output.data(), codes_.data(), grad_output.size(),
                   width_, grad_input.data());
    return grad_input;
  }
#endif
  internal::MaxPool2x2BackwardPortable(
      grad_output.data(), codes_.data(),
      cached_batch_ * channels_ * out_height_, width_, grad_input.data());
  return grad_input;
}

std::string MaxPool2d::ToString() const {
  return StrFormat("MaxPool2d(%lldx%lldx%lld, window=2)",
                   static_cast<long long>(channels_),
                   static_cast<long long>(height_),
                   static_cast<long long>(width_));
}

int64_t MaxPool2d::OutputFeatures(int64_t input_features) const {
  FATS_CHECK_EQ(input_features, channels_ * height_ * width_);
  return channels_ * out_height_ * out_width_;
}

}  // namespace fats
