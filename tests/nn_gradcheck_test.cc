// Numerical gradient checks for every layer's backward pass.
//
// For a layer f and fixed coefficients C, define the scalar
// s(params, x) = Σ_ij C_ij · f(x)_ij. The analytic gradient from
// Backward(C) must match central finite differences of s.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/pooling.h"
#include "nn/sequential.h"
#include "nn/workspace.h"
#include "rng/rng_stream.h"

namespace fats {
namespace {

constexpr float kEps = 1e-2f;
constexpr double kRelTol = 5e-2;
constexpr double kAbsTol = 2e-3;

void ExpectClose(double analytic, double numeric, const std::string& what) {
  const double scale =
      std::max({1.0, std::fabs(analytic), std::fabs(numeric)});
  EXPECT_NEAR(analytic, numeric, std::max(kAbsTol, kRelTol * scale))
      << what << ": analytic=" << analytic << " numeric=" << numeric;
}

double Score(Module* layer, const Tensor& x, const Tensor& coeffs) {
  Tensor y = layer->Forward(x);
  double s = 0.0;
  for (int64_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y[i]) * coeffs[i];
  }
  return s;
}

Tensor RandomTensor(std::vector<int64_t> shape, RngStream* rng,
                    double scale = 1.0) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(scale * rng->NextGaussian());
  }
  return t;
}

/// Checks parameter and input gradients of `layer` on input `x`.
/// `check_input_grad` is disabled for layers whose inputs are ids.
void GradCheck(Module* layer, Tensor x, bool check_input_grad = true) {
  RngStream rng(uint64_t{777});
  Tensor probe = layer->Forward(x);
  Tensor coeffs = RandomTensor(probe.shape(), &rng);

  layer->ZeroGrad();
  Score(layer, x, coeffs);  // forward to populate caches
  Tensor input_grad = layer->Backward(coeffs);

  // Parameter gradients.
  for (Parameter* param : layer->Parameters()) {
    for (int64_t i = 0; i < param->value.size(); i += 7) {  // sample entries
      const float saved = param->value[i];
      param->value[i] = saved + kEps;
      const double plus = Score(layer, x, coeffs);
      param->value[i] = saved - kEps;
      const double minus = Score(layer, x, coeffs);
      param->value[i] = saved;
      const double numeric = (plus - minus) / (2.0 * kEps);
      ExpectClose(param->grad[i], numeric,
                  param->name + "[" + std::to_string(i) + "]");
    }
  }

  // Input gradients.
  if (check_input_grad) {
    for (int64_t i = 0; i < x.size(); i += 5) {
      const float saved = x[i];
      x[i] = saved + kEps;
      const double plus = Score(layer, x, coeffs);
      x[i] = saved - kEps;
      const double minus = Score(layer, x, coeffs);
      x[i] = saved;
      const double numeric = (plus - minus) / (2.0 * kEps);
      ExpectClose(input_grad[i], numeric, "input[" + std::to_string(i) + "]");
    }
  }
}

TEST(GradCheckTest, Linear) {
  RngStream rng(uint64_t{1});
  Linear layer(4, 3, &rng);
  GradCheck(&layer, RandomTensor({2, 4}, &rng));
}

TEST(GradCheckTest, ReLU) {
  RngStream rng(uint64_t{2});
  ReLU layer;
  // Keep inputs away from the kink at 0.
  Tensor x = RandomTensor({3, 5}, &rng);
  for (int64_t i = 0; i < x.size(); ++i) {
    if (std::fabs(x[i]) < 0.1f) x[i] = 0.5f;
  }
  GradCheck(&layer, x);
}

TEST(GradCheckTest, TanhLayer) {
  RngStream rng(uint64_t{3});
  Tanh layer;
  GradCheck(&layer, RandomTensor({2, 6}, &rng, 0.5));
}

TEST(GradCheckTest, SigmoidLayer) {
  RngStream rng(uint64_t{4});
  Sigmoid layer;
  GradCheck(&layer, RandomTensor({2, 6}, &rng, 0.5));
}

TEST(GradCheckTest, Conv2dSamePadding) {
  RngStream rng(uint64_t{5});
  Conv2d layer(2, 3, 5, 5, 3, 1, &rng);
  GradCheck(&layer, RandomTensor({2, 50}, &rng, 0.5));
}

TEST(GradCheckTest, Conv2dValid) {
  RngStream rng(uint64_t{6});
  Conv2d layer(1, 2, 6, 6, 3, 0, &rng);
  GradCheck(&layer, RandomTensor({1, 36}, &rng, 0.5));
}

TEST(GradCheckTest, MaxPool) {
  RngStream rng(uint64_t{7});
  MaxPool2d layer(2, 4, 4);
  // Spread values so the argmax is stable under the probe epsilon.
  Tensor x({1, 32});
  for (int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(i % 9) + 0.2f * static_cast<float>(
        rng.NextGaussian());
  }
  GradCheck(&layer, x);
}

TEST(GradCheckTest, Lstm) {
  RngStream rng(uint64_t{8});
  Lstm layer(3, 4, 3, &rng);
  GradCheck(&layer, RandomTensor({2, 9}, &rng, 0.5));
}

TEST(GradCheckTest, SequentialMlp) {
  RngStream rng(uint64_t{9});
  auto seq = std::make_unique<Sequential>();
  seq->Add(std::make_unique<Linear>(5, 4, &rng));
  seq->Add(std::make_unique<Tanh>());
  seq->Add(std::make_unique<Linear>(4, 3, &rng));
  GradCheck(seq.get(), RandomTensor({2, 5}, &rng, 0.5));
}

// Conv2d's geometry: stride 1, symmetric zero padding, CHW inputs.
struct ConvGeometry {
  int64_t in_ch, out_ch, height, width, kernel, pad;
  int64_t out_height() const { return height + 2 * pad - kernel + 1; }
  int64_t out_width() const { return width + 2 * pad - kernel + 1; }
};

// The direct convolution, one multiply-add per (output, tap): a slow,
// independent reference for Conv2d. `weight` is (out_ch, in_ch·k²).
Tensor DirectConvForward(const ConvGeometry& g, const Tensor& weight,
                         const Tensor& bias, const Tensor& input) {
  const int64_t batch = input.dim(0);
  const int64_t ksq = g.kernel * g.kernel;
  const int64_t oh_n = g.out_height();
  const int64_t ow_n = g.out_width();
  Tensor out({batch, g.out_ch * oh_n * ow_n});
  for (int64_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * g.in_ch * g.height * g.width;
    float* y = out.data() + n * g.out_ch * oh_n * ow_n;
    for (int64_t oc = 0; oc < g.out_ch; ++oc) {
      const float* wk = weight.data() + oc * g.in_ch * ksq;
      for (int64_t oh = 0; oh < oh_n; ++oh) {
        for (int64_t ow = 0; ow < ow_n; ++ow) {
          float acc = bias[oc];
          for (int64_t ic = 0; ic < g.in_ch; ++ic) {
            const float* xc = x + ic * g.height * g.width;
            const float* wc = wk + ic * ksq;
            for (int64_t kh = 0; kh < g.kernel; ++kh) {
              const int64_t ih = oh + kh - g.pad;
              if (ih < 0 || ih >= g.height) continue;
              for (int64_t kw = 0; kw < g.kernel; ++kw) {
                const int64_t iw = ow + kw - g.pad;
                if (iw < 0 || iw >= g.width) continue;
                acc += wc[kh * g.kernel + kw] * xc[ih * g.width + iw];
              }
            }
          }
          y[(oc * oh_n + oh) * ow_n + ow] = acc;
        }
      }
    }
  }
  return out;
}

// The direct backward for (input, grad_output): accumulates the parameter
// gradients into *wgrad and *bgrad and returns the input gradient.
Tensor DirectConvBackward(const ConvGeometry& g, const Tensor& weight,
                          const Tensor& input, const Tensor& grad_output,
                          Tensor* wgrad, Tensor* bgrad) {
  const int64_t batch = input.dim(0);
  const int64_t ksq = g.kernel * g.kernel;
  const int64_t oh_n = g.out_height();
  const int64_t ow_n = g.out_width();
  Tensor grad_input(input.shape());
  for (int64_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * g.in_ch * g.height * g.width;
    const float* gy = grad_output.data() + n * g.out_ch * oh_n * ow_n;
    float* gx = grad_input.data() + n * g.in_ch * g.height * g.width;
    for (int64_t oc = 0; oc < g.out_ch; ++oc) {
      const float* wk = weight.data() + oc * g.in_ch * ksq;
      float* wgk = wgrad->data() + oc * g.in_ch * ksq;
      for (int64_t oh = 0; oh < oh_n; ++oh) {
        for (int64_t ow = 0; ow < ow_n; ++ow) {
          const float gv = gy[(oc * oh_n + oh) * ow_n + ow];
          (*bgrad)[oc] += gv;
          for (int64_t ic = 0; ic < g.in_ch; ++ic) {
            const float* xc = x + ic * g.height * g.width;
            float* gxc = gx + ic * g.height * g.width;
            const float* wc = wk + ic * ksq;
            float* wgc = wgk + ic * ksq;
            for (int64_t kh = 0; kh < g.kernel; ++kh) {
              const int64_t ih = oh + kh - g.pad;
              if (ih < 0 || ih >= g.height) continue;
              for (int64_t kw = 0; kw < g.kernel; ++kw) {
                const int64_t iw = ow + kw - g.pad;
                if (iw < 0 || iw >= g.width) continue;
                wgc[kh * g.kernel + kw] += gv * xc[ih * g.width + iw];
                gxc[ih * g.width + iw] += gv * wc[kh * g.kernel + kw];
              }
            }
          }
        }
      }
    }
  }
  return grad_input;
}

// The im2col + GEMM conv path must agree with the direct convolution above
// everywhere: outputs, input gradients, and parameter gradients. The two
// paths accumulate taps in different orders, so the comparison is AllClose,
// not bitwise; the bitwise guarantees live one level down in
// kernel_contract_test.cc and conv_kernel_test.cc.
void CheckIm2colMatchesDirect(int64_t in_ch, int64_t out_ch, int64_t h,
                              int64_t w, int64_t k, int64_t pad,
                              int64_t batch, uint64_t seed) {
  constexpr float kTol = 5e-4f;
  RngStream rng(seed);
  const ConvGeometry geometry{in_ch, out_ch, h, w, k, pad};
  Conv2d conv(in_ch, out_ch, h, w, k, pad, &rng);
  Workspace ws;
  Tensor x = RandomTensor({batch, in_ch * h * w}, &rng, 0.5);
  Tensor gy =
      RandomTensor({batch, conv.OutputFeatures(in_ch * h * w)}, &rng, 0.5);
  auto params = conv.Parameters();  // [weight, bias]

  conv.ZeroGrad();
  Tensor y_gemm = conv.Forward(x, &ws);  // copy out of the ws slot
  Tensor gx_gemm = conv.Backward(gy, &ws);
  Tensor wg_gemm = params[0]->grad;
  Tensor bg_gemm = params[1]->grad;

  Tensor wg_direct(params[0]->grad.shape());
  Tensor bg_direct(params[1]->grad.shape());
  Tensor y_direct =
      DirectConvForward(geometry, params[0]->value, params[1]->value, x);
  Tensor gx_direct = DirectConvBackward(geometry, params[0]->value, x, gy,
                                        &wg_direct, &bg_direct);

  EXPECT_TRUE(y_gemm.AllClose(y_direct, kTol)) << "forward mismatch";
  EXPECT_TRUE(gx_gemm.AllClose(gx_direct, kTol)) << "input-grad mismatch";
  EXPECT_TRUE(wg_gemm.AllClose(wg_direct, kTol)) << "weight-grad mismatch";
  EXPECT_TRUE(bg_gemm.AllClose(bg_direct, kTol)) << "bias-grad mismatch";
}

TEST(Im2colVsDirectTest, SinglePaddedChannel) {
  CheckIm2colMatchesDirect(1, 2, 6, 6, 3, 1, 2, uint64_t{21});
}

TEST(Im2colVsDirectTest, SingleChannelValid) {
  CheckIm2colMatchesDirect(1, 3, 7, 5, 3, 0, 1, uint64_t{22});
}

TEST(Im2colVsDirectTest, MultiChannelPadded) {
  CheckIm2colMatchesDirect(3, 4, 5, 5, 3, 1, 3, uint64_t{23});
}

TEST(Im2colVsDirectTest, WideKernelWidePadding) {
  CheckIm2colMatchesDirect(2, 2, 8, 8, 5, 2, 2, uint64_t{24});
}

TEST(Im2colVsDirectTest, OneByOneKernel) {
  CheckIm2colMatchesDirect(2, 3, 4, 4, 1, 0, 2, uint64_t{25});
}

TEST(GradCheckTest, SoftmaxCrossEntropyGradient) {
  RngStream rng(uint64_t{10});
  SoftmaxCrossEntropy loss;
  Tensor logits = RandomTensor({3, 4}, &rng);
  std::vector<int64_t> labels = {0, 2, 3};
  Tensor grad;
  loss.Compute(logits, labels, &grad);
  for (int64_t i = 0; i < logits.size(); ++i) {
    const float saved = logits[i];
    logits[i] = saved + kEps;
    const double plus = loss.Compute(logits, labels, nullptr);
    logits[i] = saved - kEps;
    const double minus = loss.Compute(logits, labels, nullptr);
    logits[i] = saved;
    ExpectClose(grad[i], (plus - minus) / (2.0 * kEps),
                "logit[" + std::to_string(i) + "]");
  }
}

}  // namespace
}  // namespace fats
