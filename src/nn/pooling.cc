#include "nn/pooling.h"

#include <algorithm>

#include "util/string_util.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_POOL_X86 1
#include "nn/pool2x2_avx512.h"
#endif

namespace fats {

namespace {
enum Slot { kOut, kGradIn };

// BackwardAvx512 loads 16 codes at a time; the slack keeps a load that
// starts at the last live code inside the buffer.
constexpr size_t kCodeSlack = 15;

#if FATS_POOL_X86
// Lanes [0, n - 16·k) of register k of a run of n floats, clamped to [0, 16].
inline __mmask16 RegisterMask(int64_t n, int64_t k) {
  return internal::PoolLaneMask(std::clamp<int64_t>(n - 16 * k, 0, 16));
}

// Widths that divide 16 (every zoo model's 8x8 conv output, then 4x4):
// 16 consecutive outputs are whole row pairs, and read and write 64
// consecutive input floats, held in four registers (pool2x2_avx512.h).
__attribute__((target("avx512f"))) void ForwardAvx512(
    const float* x, int64_t outputs, int64_t width, float* y,
    uint8_t* codes) {
  const internal::Pool2x2Lanes lanes = internal::MakePool2x2Lanes(width);
  for (int64_t o = 0; o < outputs; o += 16) {
    const int64_t n = std::min<int64_t>(16, outputs - o);
    const float* src = x + 4 * o;
    __m512 v[4];
    for (int k = 0; k < 4; ++k) {
      v[k] = _mm512_maskz_loadu_ps(RegisterMask(4 * n, k), src + 16 * k);
    }
    __m512i code;
    const __m512 best = internal::Pool2x2Scan(v, lanes, &code);
    _mm512_mask_storeu_ps(y + o, internal::PoolLaneMask(n), best);
    _mm512_mask_cvtepi32_storeu_epi8(codes + o, internal::PoolLaneMask(n),
                                     code);
  }
}

__attribute__((target("avx512f"))) void BackwardAvx512(
    const float* gy, const uint8_t* codes, int64_t outputs, int64_t width,
    float* gx) {
  const internal::Pool2x2Lanes lanes = internal::MakePool2x2Lanes(width);
  for (int64_t o = 0; o < outputs; o += 16) {
    const int64_t n = std::min<int64_t>(16, outputs - o);
    __m512 dense[4];
    internal::Pool2x2Scatter(gy + o, codes + o, n, lanes, dense);
    float* dst = gx + 4 * o;
    for (int k = 0; k < 4; ++k) {
      _mm512_mask_storeu_ps(dst + 16 * k, RegisterMask(4 * n, k), dense[k]);
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

MaxPool2d::MaxPool2d(int64_t channels, int64_t height, int64_t width)
    : channels_(channels),
      height_(height),
      width_(width),
      out_height_(height / 2),
      out_width_(width / 2) {
  FATS_CHECK_EQ(height % 2, 0) << "2x2 pooling needs an even height";
  FATS_CHECK_EQ(width % 2, 0) << "2x2 pooling needs an even width";
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
