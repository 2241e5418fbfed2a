#include "nn/pooling.h"

#include "util/string_util.h"

namespace fats {

namespace {
enum Slot { kOut, kGradIn };

// The two passes over `row_pairs` pairs of `width`-float rows (width even);
// `y`, `gy` and `codes` hold `row_pairs * width / 2` elements.
void ForwardRows(const float* x, int64_t row_pairs, int64_t width, float* y,
                 uint8_t* codes) {
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

void BackwardRows(const float* gy, const uint8_t* codes, int64_t row_pairs,
                  int64_t width, float* gx) {
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

}  // namespace

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
  codes_.resize(static_cast<size_t>(out.size()));
  ForwardRows(input.data(), batch * channels_ * out_height_, width_,
              out.data(), codes_.data());
  return out;
}

const Tensor& MaxPool2d::Backward(const Tensor& grad_output, Workspace* ws) {
  FATS_CHECK_GT(cached_batch_, 0) << "Backward before Forward";
  FATS_CHECK_EQ(grad_output.size(),
                cached_batch_ * channels_ * out_height_ * out_width_);
  Tensor& grad_input =
      ws->Get(this, kGradIn, cached_batch_, channels_ * height_ * width_);
  BackwardRows(grad_output.data(), codes_.data(),
               cached_batch_ * channels_ * out_height_, width_,
               grad_input.data());
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
