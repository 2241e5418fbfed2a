#include "nn/conv2d.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "util/string_util.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define FATS_CONV_X86 1
#include <immintrin.h>
#endif

namespace fats {

namespace {
// kCol is the generic path's column matrix; the 3x3 kernels never build it.
enum Slot { kOut, kCol, kDcol, kGradIn };

#if FATS_CONV_X86
// Output channels per register block of the 3x3 kernels. Six covers the zoo's
// first conv (6 channels) and second (12) in whole blocks.
constexpr int64_t kOcBlock = 6;

// Calls fn(oc0, std::integral_constant<int, rows>{}) for each block of at
// most kOcBlock output channels. The row count is a compile-time constant in
// fn so that the kernels' accumulator arrays stay in registers.
template <typename Fn>
void ForEachOcBlock(int64_t out_channels, Fn&& fn) {
  static_assert(kOcBlock == 6, "one case per block size");
  for (int64_t oc0 = 0; oc0 < out_channels; oc0 += kOcBlock) {
    switch (std::min(kOcBlock, out_channels - oc0)) {
      case 6: fn(oc0, std::integral_constant<int, 6>{}); break;
      case 5: fn(oc0, std::integral_constant<int, 5>{}); break;
      case 4: fn(oc0, std::integral_constant<int, 4>{}); break;
      case 3: fn(oc0, std::integral_constant<int, 3>{}); break;
      case 2: fn(oc0, std::integral_constant<int, 2>{}); break;
      default: fn(oc0, std::integral_constant<int, 1>{}); break;
    }
  }
}

// The 3x3 kernels: stride 1, padding 1, width w with 16 % w == 0 and
// 3·w < 32. Both run exactly the chains of the generic path's GEMMs
// (gemm.h): one accumulator per output element, products rounded on their
// own and added in ascending k = (ic, kh, kw), with the same operand order
// as SmallGemmAvx512. A halo tap reads +0.0f, as the column matrix holds
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

// y (rows x P) for output channels [oc0, oc0 + kRows) of every sample: `w`
// and `bias` point at channel oc0's weight row and bias, `y` at its output
// row in sample 0. Lane l of a register is output position p0 + l (16/width
// whole rows), and tap (ic, kh, kw) of every lane is one masked load at
// offset (kh − 1)·width + kw − 1 from p0.
template <int kRows>
__attribute__((target("avx512f"))) void Conv3x3ForwardAvx512(
    const float* x, int64_t batch, int64_t in_channels, int64_t out_channels,
    int64_t height, int64_t width, const float* w, const float* bias,
    float* y) {
  const int64_t plane = height * width;
  const int64_t k = in_channels * 9;
  // Lanes whose column ow + kw − 1 lies inside the row, per kw.
  __mmask16 col_ok[3] = {0, 0xFFFF, 0};
  for (int l = 0; l < 16; ++l) {
    const int64_t ow = l % width;
    if (ow > 0) col_ok[0] = static_cast<__mmask16>(col_ok[0] | (1u << l));
    if (ow + 1 < width) {
      col_ok[2] = static_cast<__mmask16>(col_ok[2] | (1u << l));
    }
  }
  for (int64_t n = 0; n < batch; ++n) {
    const float* xn = x + n * in_channels * plane;
    float* yn = y + n * out_channels * plane;
    for (int64_t p0 = 0; p0 < plane; p0 += 16) {
      // Lanes whose row oh + kh − 1 lies inside the plane, per kh.
      const __mmask16 live = LanesBelow(plane - p0);
      const __mmask16 row_ok[3] = {
          static_cast<__mmask16>(live & ~LanesBelow(width - p0)), live,
          LanesBelow(plane - width - p0)};
      __m512 acc[kRows];
      for (int r = 0; r < kRows; ++r) acc[r] = _mm512_setzero_ps();
      for (int64_t ic = 0; ic < in_channels; ++ic) {
        const float* xc = xn + ic * plane;
        for (int t = 0; t < 9; ++t) {
          const int64_t kh = t / 3;
          const int64_t kw = t % 3;
          const __m512 xv = _mm512_maskz_loadu_ps(
              static_cast<__mmask16>(row_ok[kh] & col_ok[kw]),
              FloatAddress(xc, p0 + (kh - 1) * width + kw - 1));
          for (int r = 0; r < kRows; ++r) {
            const __m512 wv = _mm512_set1_ps(w[r * k + ic * 9 + t]);
            acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(wv, xv));
          }
        }
      }
      for (int r = 0; r < kRows; ++r) {
        _mm512_mask_storeu_ps(
            yn + r * plane + p0, live,
            _mm512_add_ps(acc[r], _mm512_set1_ps(bias[r])));
      }
    }
  }
}

// dW rows [oc0, oc0 + kRows) += gy @ colᵀ over the whole batch: `wg` points
// at channel oc0's gradient row, `gy` at its output-gradient row in sample
// 0. Lane t = kh·3 + kw of a register is tap (ic, kh, kw). Each (oc, tap)
// accumulator is loaded once, runs its chain over every (n, p) in ascending
// order, and is stored once; for output position (oh, ow) one two-source
// permute picks the 9 taps out of input rows oh − 1..oh + 1, held in lanes
// [0, 3·width) of two registers, and sends halo taps to zero lane 31.
template <int kRows>
__attribute__((target("avx512f"))) void Conv3x3WeightGradAvx512(
    const float* x, const float* gy, int64_t batch, int64_t in_channels,
    int64_t out_channels, int64_t height, int64_t width, float* wg) {
  const int64_t plane = height * width;
  const int64_t k = in_channels * 9;
  constexpr int32_t kZeroLane = 31;
  constexpr __mmask16 kTaps = 0x1FF;
  alignas(64) int32_t idx[8][16];  // per ow; eligible widths are <= 8
  for (int64_t ow = 0; ow < width; ++ow) {
    for (int t = 0; t < 16; ++t) {
      const int64_t col = ow + t % 3 - 1;
      idx[ow][t] = t < 9 && col >= 0 && col < width
                       ? static_cast<int32_t>(t / 3 * width + col)
                       : kZeroLane;
    }
  }
  for (int64_t ic = 0; ic < in_channels; ++ic) {
    __m512 acc[kRows];
    for (int r = 0; r < kRows; ++r) {
      acc[r] = _mm512_maskz_loadu_ps(kTaps, wg + r * k + ic * 9);
    }
    for (int64_t n = 0; n < batch; ++n) {
      const float* xc = x + (n * in_channels + ic) * plane;
      const float* g = gy + n * out_channels * plane;
      for (int64_t oh = 0; oh < height; ++oh) {
        // Rows oh − 1 + j for j in [first, last) exist.
        const int64_t first = oh == 0 ? 1 : 0;
        const int64_t last = std::min<int64_t>(3, height + 1 - oh);
        const uint32_t rows =
            ((1u << (last * width)) - 1u) & ~((1u << (first * width)) - 1u);
        const int64_t start = (oh - 1) * width;
        const __m512 lo = _mm512_maskz_loadu_ps(
            static_cast<__mmask16>(rows), FloatAddress(xc, start));
        const __m512 hi = _mm512_maskz_loadu_ps(
            static_cast<__mmask16>(rows >> 16), FloatAddress(xc, start + 16));
        for (int64_t ow = 0; ow < width; ++ow) {
          const __m512 taps = _mm512_permutex2var_ps(
              lo, _mm512_load_si512(idx[ow]), hi);
          const int64_t p = oh * width + ow;
          for (int r = 0; r < kRows; ++r) {
            const __m512 gv = _mm512_set1_ps(g[r * plane + p]);
            acc[r] = _mm512_add_ps(acc[r], _mm512_mul_ps(gv, taps));
          }
        }
      }
    }
    for (int r = 0; r < kRows; ++r) {
      _mm512_mask_storeu_ps(wg + r * k + ic * 9, kTaps, acc[r]);
    }
  }
}

bool DetectAvx512() { return __builtin_cpu_supports("avx512f") != 0; }
#else
bool DetectAvx512() { return false; }
#endif  // FATS_CONV_X86

// Resolved once at static-init time; a pure function of the host CPU. Both
// paths compute the same bits, so the choice never shows in a result.
const bool kUseAvx512 = DetectAvx512();

}  // namespace

namespace internal {

bool Conv3x3UsesAvx512() { return kUseAvx512; }

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
      bias_("conv_bias", Tensor({out_channels})),
      conv3x3_kernel_(kUseAvx512 && kernel_size == 3 && padding == 1 &&
                      width > 0 && 16 % width == 0 && 3 * width < 32) {
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

const Tensor& Conv2d::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), in_channels_ * height_ * width_) << ToString();
  const int64_t batch = input.dim(0);
  cached_input_ = &input;
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  Tensor& out = ws->Get(this, kOut, batch, out_channels_ * P);
  const float* bp = bias_.value.data();
#if FATS_CONV_X86
  if (conv3x3_kernel_) {
    ForEachOcBlock(out_channels_, [&](int64_t oc0, auto rows) {
      Conv3x3ForwardAvx512<decltype(rows)::value>(
          input.data(), batch, in_channels_, out_channels_, height_, width_,
          weight_.value.data() + oc0 * K, bp + oc0, out.data() + oc0 * P);
    });
    return out;
  }
#endif
  Tensor& col = ws->Get(this, kCol, batch, K, P);  // kept for Backward
  for (int64_t n = 0; n < batch; ++n) {
    float* col_n = col.data() + n * K * P;
    Im2Col(input.data() + n * in_channels_ * height_ * width_, col_n);
    float* y = out.data() + n * out_channels_ * P;
    // y (oc x P) = W (oc x K) @ col (K x P).
    gemm::SgemmNN(out_channels_, P, K, weight_.value.data(), K, col_n, P, y, P,
                  /*accumulate=*/false);
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      float* yrow = y + oc * P;
      const float b = bp[oc];
      for (int64_t p = 0; p < P; ++p) yrow[p] += b;
    }
  }
  return out;
}

void Conv2d::BackwardParameters(const Tensor& grad_output, Workspace* ws) {
  FATS_CHECK(cached_input_ != nullptr) << "Backward before Forward";
  const int64_t batch = cached_input_->dim(0);
  FATS_CHECK_EQ(grad_output.dim(0), batch);
  FATS_CHECK_EQ(grad_output.dim(1), out_channels_ * out_height_ * out_width_);
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
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
#if FATS_CONV_X86
  if (conv3x3_kernel_) {
    ForEachOcBlock(out_channels_, [&](int64_t oc0, auto rows) {
      Conv3x3WeightGradAvx512<decltype(rows)::value>(
          cached_input_->data(), grad_output.data() + oc0 * P, batch,
          in_channels_, out_channels_, height_, width_,
          weight_.grad.data() + oc0 * K);
    });
    return;
  }
#endif
  const Tensor& col = ws->Peek(this, kCol);
  FATS_CHECK_EQ(col.size(), batch * K * P) << "Backward before Forward";
  for (int64_t n = 0; n < batch; ++n) {
    const float* gy = grad_output.data() + n * out_channels_ * P;
    // dW (oc x K) += gy (oc x P) @ col^T.
    gemm::SgemmNT(out_channels_, K, P, gy, P, col.data() + n * K * P, P,
                  weight_.grad.data(), K, /*accumulate=*/true);
  }
}

const Tensor& Conv2d::Backward(const Tensor& grad_output, Workspace* ws) {
  // The input gradient reads only W and gy, so computing it after every
  // sample's parameter gradients leaves both sets of bits unchanged.
  BackwardParameters(grad_output, ws);
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

Tensor Conv2d::ForwardDirect(const Tensor& input) const {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), in_channels_ * height_ * width_) << ToString();
  const int64_t batch = input.dim(0);
  Tensor out({batch, out_channels_ * out_height_ * out_width_});
  const float* wp = weight_.value.data();
  const float* bp = bias_.value.data();
  const int64_t ksq = kernel_size_ * kernel_size_;
  for (int64_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * in_channels_ * height_ * width_;
    float* y = out.data() + n * out_channels_ * out_height_ * out_width_;
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float* wk = wp + oc * in_channels_ * ksq;
      for (int64_t oh = 0; oh < out_height_; ++oh) {
        for (int64_t ow = 0; ow < out_width_; ++ow) {
          float acc = bp[oc];
          for (int64_t ic = 0; ic < in_channels_; ++ic) {
            const float* xc = x + ic * height_ * width_;
            const float* wc = wk + ic * ksq;
            for (int64_t kh = 0; kh < kernel_size_; ++kh) {
              const int64_t ih = oh + kh - padding_;
              if (ih < 0 || ih >= height_) continue;
              for (int64_t kw = 0; kw < kernel_size_; ++kw) {
                const int64_t iw = ow + kw - padding_;
                if (iw < 0 || iw >= width_) continue;
                acc += wc[kh * kernel_size_ + kw] * xc[ih * width_ + iw];
              }
            }
          }
          y[(oc * out_height_ + oh) * out_width_ + ow] = acc;
        }
      }
    }
  }
  return out;
}

Tensor Conv2d::BackwardDirect(const Tensor& input, const Tensor& grad_output) {
  const int64_t batch = input.dim(0);
  FATS_CHECK_EQ(grad_output.dim(0), batch);
  FATS_CHECK_EQ(grad_output.dim(1), out_channels_ * out_height_ * out_width_);
  Tensor grad_input(input.shape());
  float* wgrad = weight_.grad.data();
  float* bgrad = bias_.grad.data();
  const float* wp = weight_.value.data();
  const int64_t ksq = kernel_size_ * kernel_size_;
  for (int64_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * in_channels_ * height_ * width_;
    const float* gy =
        grad_output.data() + n * out_channels_ * out_height_ * out_width_;
    float* gx = grad_input.data() + n * in_channels_ * height_ * width_;
    for (int64_t oc = 0; oc < out_channels_; ++oc) {
      const float* wk = wp + oc * in_channels_ * ksq;
      float* wgk = wgrad + oc * in_channels_ * ksq;
      for (int64_t oh = 0; oh < out_height_; ++oh) {
        for (int64_t ow = 0; ow < out_width_; ++ow) {
          const float g = gy[(oc * out_height_ + oh) * out_width_ + ow];
          bgrad[oc] += g;
          for (int64_t ic = 0; ic < in_channels_; ++ic) {
            const float* xc = x + ic * height_ * width_;
            float* gxc = gx + ic * height_ * width_;
            const float* wc = wk + ic * ksq;
            float* wgc = wgk + ic * ksq;
            for (int64_t kh = 0; kh < kernel_size_; ++kh) {
              const int64_t ih = oh + kh - padding_;
              if (ih < 0 || ih >= height_) continue;
              for (int64_t kw = 0; kw < kernel_size_; ++kw) {
                const int64_t iw = ow + kw - padding_;
                if (iw < 0 || iw >= width_) continue;
                wgc[kh * kernel_size_ + kw] += g * xc[ih * width_ + iw];
                gxc[ih * width_ + iw] += g * wc[kh * kernel_size_ + kw];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
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

}  // namespace fats
