// 2-D convolution over flat (batch x C*H*W) activations.

#ifndef FATS_NN_CONV2D_H_
#define FATS_NN_CONV2D_H_

#include <string>
#include <vector>

#include "nn/module.h"
#include "rng/rng_stream.h"

namespace fats {

/// Convolution with stride 1 and symmetric zero padding. The input tensor is
/// (batch, in_channels * height * width) in CHW order.
///
/// On AVX-512F hosts (decided once, at static init), a 3x3, padding-1 layer
/// whose width w satisfies 16 % w == 0 and 3·w < 32 (w in {1, 2, 4, 8}: the
/// zoo's 8x8 first and 4x4 second conv) runs two direct kernels. Forward
/// reads every tap straight from the input, 16 output positions per
/// register; BackwardParameters keeps each (oc, tap) weight-gradient chain
/// in a register across the whole batch. Neither builds a column matrix; the
/// layer caches its input by reference (module.h).
///
/// Every other shape and host runs im2col + GEMM: each sample's receptive
/// fields are unrolled into a (K x P) column matrix (K = in_ch·k²,
/// P = out_h·out_w, a Workspace slot kept for the backward pass), forward is
/// one SgemmNN per sample and dW one SgemmNT per sample.
///
/// Both paths compute the GEMM contract's chains (tensor/gemm.h), so they
/// give the same bits (DESIGN.md §7.2). Backward adds the input gradient on
/// either path as one SgemmTN (dcol) per sample and a col2im scatter;
/// BackwardParameters skips it. The original direct convolution is retained
/// as ForwardDirect/BackwardDirect — a slow, independent reference that
/// gradcheck tests compare against.
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

  /// Direct (non-im2col) reference convolution; no caching, no workspace.
  Tensor ForwardDirect(const Tensor& input) const;
  /// Direct reference backward for the pair (input, grad_output); accumulates
  /// parameter gradients and returns the input gradient.
  Tensor BackwardDirect(const Tensor& input, const Tensor& grad_output);

  int64_t out_height() const { return out_height_; }
  int64_t out_width() const { return out_width_; }
  int64_t out_channels() const { return out_channels_; }

 private:
  void Im2Col(const float* x, float* col) const;
  void Col2ImAdd(const float* col, float* gx) const;

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
  // The 3x3 kernels run this layer (host and shape allow it).
  bool conv3x3_kernel_;
  const Tensor* cached_input_ = nullptr;  // borrowed; alive until Backward
};

namespace internal {

/// True when eligible Conv2d layers run the AVX-512F 3x3 kernels on this
/// host.
bool Conv3x3UsesAvx512();

}  // namespace internal

}  // namespace fats

#endif  // FATS_NN_CONV2D_H_
