// 2-D convolution over flat (batch x C*H*W) activations, and the zoo CNN's
// conv → ReLU → max-pool block.

#ifndef FATS_NN_CONV2D_H_
#define FATS_NN_CONV2D_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/module.h"
#include "nn/pooling.h"
#include "rng/rng_stream.h"

namespace fats {

/// Convolution with stride 1 and symmetric zero padding. The input tensor is
/// (batch, in_channels * height * width) in CHW order.
///
/// im2col + GEMM on every host: each sample's receptive fields are unrolled
/// into a (K x P) column matrix (K = in_ch·k², P = out_h·out_w, a Workspace
/// slot kept for the backward pass), forward is one SgemmNN per sample and
/// dW one SgemmNT per sample, so every value is a chain of the GEMM
/// contract (tensor/gemm.h, DESIGN.md §7.2). Backward adds the input
/// gradient as one SgemmTN (dcol) per sample and a col2im scatter;
/// BackwardParameters skips it. This is the reference that ConvBlock's
/// fused conv is pinned to.
class Conv2d : public Module {
 public:
  Conv2d(int64_t in_channels, int64_t out_channels, int64_t height,
         int64_t width, int64_t kernel_size, int64_t padding, RngStream* rng);

  using Module::Forward;
  using Module::Backward;
  const Tensor& Forward(const Tensor& input, Workspace* ws) override;
  const Tensor& Backward(const Tensor& grad_output, Workspace* ws) override;
  void BackwardParameters(const Tensor& grad_output, Workspace* ws) override;
  std::vector<Parameter*> Parameters() override { return {&weight_, &bias_}; }
  std::string ToString() const override;
  int64_t OutputFeatures(int64_t input_features) const override;

  int64_t out_height() const { return out_height_; }
  int64_t out_width() const { return out_width_; }
  int64_t out_channels() const { return out_channels_; }

 private:
  // ConvBlock's fused path runs its own forward, bias sums and
  // winners-only weight gradient, and the column matrix, weight and input
  // gradients below.
  friend class ConvBlock;

  void Im2Col(const float* x, float* col) const;
  // Every sample's column matrix of `input`, in the kCol Workspace slot.
  Tensor& BuildColumns(const Tensor& input, Workspace* ws);
  void Col2ImAdd(const float* col, float* gx) const;
  // The two halves of BackwardParameters: db and dW.
  void AccumulateBiasGrad(const Tensor& grad_output);
  void AccumulateWeightGrad(const Tensor& grad_output, Workspace* ws);
  // The input gradient, which reads only W and grad_output.
  const Tensor& InputGradient(const Tensor& grad_output, Workspace* ws);

  int64_t in_channels_;
  int64_t out_channels_;
  int64_t height_;
  int64_t width_;
  int64_t kernel_size_;
  int64_t padding_;
  int64_t out_height_;
  int64_t out_width_;
  Parameter weight_;  // (out_ch, in_ch * k * k)
  Parameter bias_;    // (out_ch)
  const Tensor* cached_input_ = nullptr;  // borrowed; alive until Backward
};

/// Conv2d → ReLU → 2x2 MaxPool2d as one layer: the zoo CNN's conv block.
/// Parameters() are the conv's {weight, bias}, so the flat parameter layout
/// is the triple's.
///
/// On AVX-512F hosts (decided at construction, from the CPU and the shape),
/// a 3x3, padding-1 conv over an 8x8 or a 4x4 plane runs fused. Forward
/// reads every tap straight from the input and runs Conv2d's GEMM chains
/// for a whole plane in registers, with no column matrix, adds the bias,
/// applies ReLU as max(+0.0, x) and pools the registers, writing only the
/// pooled output and a one-byte code per output: the winning window
/// position, plus a dead bit when the maximum is <= 0 (so the ReLU passed
/// no gradient there). The backward passes make one pass over the pooled
/// gradient that sums each (n, oc) row's bias gradient; Backward also
/// writes the conv-output gradient there (0.0f + g at a live winner, +0.0f
/// everywhere else) for Conv2d's input gradient.
///
/// The weight gradient sums only each live window's winner, as
/// (0.0f + g)·tap, in the dense chain's ascending (n, p) order: within a
/// pooled row pair every top-row winner before every bottom-row winner.
/// The dense chain's other terms are fl(+0.0·x), which is ±0.0 for a
/// finite x, and adding ±0.0 changes no accumulator but −0.0; under
/// round-to-nearest a chain that does not start at −0.0 never reaches it.
/// So this path runs only when every input is finite and no starting
/// weight-gradient value is −0.0 (training always passes both guards);
/// otherwise Conv2d's column matrix and SgemmNT run over the dense
/// conv-output gradient.
/// Every value equals the triple's, bit for bit (DESIGN.md §7.2).
///
/// Every other shape and host runs the Conv2d, ReLU and MaxPool2d layers in
/// order, so its bits are the triple's by construction.
class ConvBlock : public Module {
 public:
  ConvBlock(int64_t in_channels, int64_t out_channels, int64_t height,
            int64_t width, int64_t kernel_size, int64_t padding,
            RngStream* rng);

  using Module::Forward;
  using Module::Backward;
  const Tensor& Forward(const Tensor& input, Workspace* ws) override;
  const Tensor& Backward(const Tensor& grad_output, Workspace* ws) override;
  void BackwardParameters(const Tensor& grad_output, Workspace* ws) override;
  std::vector<Parameter*> Parameters() override { return conv_.Parameters(); }
  std::string ToString() const override;
  int64_t OutputFeatures(int64_t input_features) const override;

  /// The pooled output's geometry.
  int64_t out_channels() const { return conv_.out_channels(); }
  int64_t out_height() const { return pool_.out_height(); }
  int64_t out_width() const { return pool_.out_width(); }

 private:
  // The fused path's dW and db. Writes the conv-output gradient to a
  // Workspace slot and returns it when keep_grad_conv is set or dW takes
  // the dense kernel; returns nullptr otherwise.
  const Tensor* FusedBackwardParameters(const Tensor& grad_output,
                                        Workspace* ws, bool keep_grad_conv);

  Conv2d conv_;
  ReLU relu_;
  MaxPool2d pool_;
  bool fused_;
  // Fused path: window position | dead bit per pooled output, plus slack
  // for whole-register code loads.
  std::vector<uint8_t> codes_;
  // Fused path: each (n, oc) row's winners for the winners-only dW, as
  // conv-output positions and gradients.
  std::vector<int32_t> winner_pos_;
  std::vector<float> winner_grad_;
};

namespace internal {

/// True when eligible ConvBlock layers run the fused AVX-512F kernels on
/// this host.
bool ConvBlockUsesAvx512();

}  // namespace internal

}  // namespace fats

#endif  // FATS_NN_CONV2D_H_
