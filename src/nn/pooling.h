// 2x2 max pooling over flat (batch x C*H*W) activations.

#ifndef FATS_NN_POOLING_H_
#define FATS_NN_POOLING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "nn/module.h"

namespace fats {

/// Non-overlapping 2x2 max pooling. Height and width must be even.
///
/// A CHW batch is `batch·C·H/2` contiguous row pairs of `width` floats, and
/// each row pair pools into one output row, so both passes run one flat loop
/// over row pairs whatever the batch and channel count. Forward scans each
/// window in the order top-left, top-right, bottom-left, bottom-right and
/// keeps a candidate only if it is strictly greater (`v > best`): ties go to
/// the first maximum, and a NaN wins only in the top-left position (every
/// comparison against it is false). It stores the winner's position as a
/// one-byte code per output. Backward writes every 2x2 block whole:
/// `0.0f + g` at the coded position, `+0.0f` at the other three, which is
/// the bit pattern of scattering g into a zeroed gradient (a −0.0 upstream
/// gradient arrives as +0.0). One portable loop runs on every host; it is
/// the reference that ConvBlock's fused pool is pinned to (DESIGN.md §7.2).
class MaxPool2d : public Module {
 public:
  MaxPool2d(int64_t channels, int64_t height, int64_t width);

  using Module::Forward;
  using Module::Backward;
  const Tensor& Forward(const Tensor& input, Workspace* ws) override;
  const Tensor& Backward(const Tensor& grad_output, Workspace* ws) override;
  std::string ToString() const override;
  int64_t OutputFeatures(int64_t input_features) const override;

  int64_t out_height() const { return out_height_; }
  int64_t out_width() const { return out_width_; }

 private:
  int64_t channels_;
  int64_t height_;
  int64_t width_;
  int64_t out_height_;
  int64_t out_width_;
  int64_t cached_batch_ = 0;
  std::vector<uint8_t> codes_;  // in-window argmax code per output element
};

}  // namespace fats

#endif  // FATS_NN_POOLING_H_
