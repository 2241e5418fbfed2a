#include "nn/conv2d.h"

#include <algorithm>
#include <cstring>

#include "nn/init.h"
#include "tensor/gemm.h"
#include "util/string_util.h"

namespace fats {

namespace {
enum Slot { kOut, kCol, kDcol, kGradIn };
}  // namespace

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

const Tensor& Conv2d::Forward(const Tensor& input, Workspace* ws) {
  FATS_CHECK_EQ(input.rank(), 2);
  FATS_CHECK_EQ(input.dim(1), in_channels_ * height_ * width_) << ToString();
  const int64_t batch = input.dim(0);
  cached_batch_ = batch;
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  Tensor& col = ws->Get(this, kCol, batch, K, P);  // kept for Backward
  Tensor& out = ws->Get(this, kOut, batch, out_channels_ * P);
  const float* bp = bias_.value.data();
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
  const int64_t batch = cached_batch_;
  FATS_CHECK_GT(batch, 0) << "Backward before Forward";
  FATS_CHECK_EQ(grad_output.dim(0), batch);
  FATS_CHECK_EQ(grad_output.dim(1), out_channels_ * out_height_ * out_width_);
  const int64_t K = in_channels_ * kernel_size_ * kernel_size_;
  const int64_t P = out_height_ * out_width_;
  const Tensor& col = ws->Peek(this, kCol);
  FATS_CHECK_EQ(col.size(), batch * K * P) << "Backward before Forward";
  float* bgrad = bias_.grad.data();
  for (int64_t n = 0; n < batch; ++n) {
    const float* gy = grad_output.data() + n * out_channels_ * P;
    const float* col_n = col.data() + n * K * P;
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
    // dW (oc x K) += gy (oc x P) @ col^T.
    gemm::SgemmNT(out_channels_, K, P, gy, P, col_n, P, weight_.grad.data(), K,
                  /*accumulate=*/true);
  }
}

const Tensor& Conv2d::Backward(const Tensor& grad_output, Workspace* ws) {
  // The input gradient reads only W and gy, so computing it after every
  // sample's parameter gradients leaves both sets of bits unchanged.
  BackwardParameters(grad_output, ws);
  const int64_t batch = cached_batch_;
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
