// 2x2 max-pool kernel contract (nn/pooling.h, DESIGN.md §7.2).
//
// MaxPool2d's Forward/Backward must reproduce, bit for bit, the generic
// window loop the layer used to run: a scan of each window in top-left,
// top-right, bottom-left, bottom-right order keeping a strictly greater
// candidate, and a backward that scatters each upstream gradient into a
// zeroed input gradient at that argmax. The loop is kept here as the oracle.

#include "nn/pooling.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "rng/rng_stream.h"

namespace fats {
namespace {

struct Oracle {
  std::vector<float> y;
  std::vector<float> gx;
};

// The pre-vectorization MaxPool2d loop, for window 2.
Oracle ReferencePool(const std::vector<float>& input,
                     const std::vector<float>& grad_output, int64_t batch,
                     int64_t channels, int64_t height, int64_t width) {
  const int64_t window = 2;
  const int64_t out_height = height / window;
  const int64_t out_width = width / window;
  Oracle o;
  o.y.assign(grad_output.size(), 0.0f);
  std::vector<int64_t> argmax(grad_output.size(), 0);
  for (int64_t n = 0; n < batch; ++n) {
    const float* x = input.data() + n * channels * height * width;
    for (int64_t c = 0; c < channels; ++c) {
      const float* xc = x + c * height * width;
      for (int64_t oh = 0; oh < out_height; ++oh) {
        for (int64_t ow = 0; ow < out_width; ++ow) {
          float best = xc[(oh * window) * width + ow * window];
          int64_t best_idx = (oh * window) * width + ow * window;
          for (int64_t dh = 0; dh < window; ++dh) {
            for (int64_t dw = 0; dw < window; ++dw) {
              const int64_t idx =
                  (oh * window + dh) * width + (ow * window + dw);
              const float v = xc[idx];
              const bool better = v > best;
              best = better ? v : best;
              best_idx = better ? idx : best_idx;
            }
          }
          const int64_t out_idx =
              ((n * channels + c) * out_height + oh) * out_width + ow;
          o.y[static_cast<size_t>(out_idx)] = best;
          argmax[static_cast<size_t>(out_idx)] =
              n * channels * height * width + c * height * width + best_idx;
        }
      }
    }
  }
  o.gx.assign(input.size(), 0.0f);
  for (size_t i = 0; i < grad_output.size(); ++i) {
    o.gx[static_cast<size_t>(argmax[i])] += grad_output[i];
  }
  return o;
}

bool BitwiseEqual(const float* a, const std::vector<float>& b) {
  return std::memcmp(a, b.data(), b.size() * sizeof(float)) == 0;
}

enum class Fill {
  kGaussian,
  kFewValues,   // {-1, 0, 1}: many ties
  kAllEqual,    // every window one value
  kSignedZero,  // only +0.0 and -0.0
  kNaNTopLeft,
  kNaNTopRight,
  kNaNBottomLeft,
  kNaNBottomRight,
};

const Fill kFills[] = {Fill::kGaussian,      Fill::kFewValues,
                       Fill::kAllEqual,      Fill::kSignedZero,
                       Fill::kNaNTopLeft,    Fill::kNaNTopRight,
                       Fill::kNaNBottomLeft, Fill::kNaNBottomRight};

std::vector<float> MakeInput(Fill fill, int64_t rows, int64_t width,
                             RngStream* rng) {
  std::vector<float> x(static_cast<size_t>(rows * width));
  for (float& v : x) {
    switch (fill) {
      case Fill::kFewValues:
        v = static_cast<float>(rng->UniformInt(3)) - 1.0f;
        break;
      case Fill::kAllEqual:
        v = 0.5f;
        break;
      case Fill::kSignedZero:
        v = rng->UniformInt(2) == 0 ? 0.0f : -0.0f;
        break;
      default:
        v = static_cast<float>(rng->NextGaussian());
    }
  }
  const int fill_index = static_cast<int>(fill);
  const int nan_pos = fill_index - static_cast<int>(Fill::kNaNTopLeft);
  if (nan_pos >= 0) {
    // A NaN at window position nan_pos in every other window.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (int64_t r = 0; r < rows; r += 2) {
      for (int64_t j = (r / 2) % 2; j < width / 2; j += 2) {
        x[static_cast<size_t>((r + nan_pos / 2) * width + 2 * j +
                              nan_pos % 2)] = nan;
      }
    }
  }
  return x;
}

// Upstream gradient with −0.0 and +0.0 entries among Gaussian ones: the
// −0.0 must reach the input gradient as +0.0.
std::vector<float> MakeGradient(int64_t n, RngStream* rng) {
  std::vector<float> g(static_cast<size_t>(n));
  for (size_t i = 0; i < g.size(); ++i) {
    g[i] = i % 5 == 0   ? -0.0f
           : i % 7 == 0 ? 0.0f
                        : static_cast<float>(rng->NextGaussian());
  }
  return g;
}

struct Geometry {
  int64_t batch, channels;
};

// Widths and heights 2-64; output counts that are and are not multiples of
// 16.
const int64_t kSides[] = {2, 4, 8, 16, 30, 32, 34, 64};
const Geometry kGeometries[] = {{1, 1}, {3, 5}, {2, 7}};

template <typename Fn>
void ForEachCase(Fn&& fn) {
  RngStream rng(uint64_t{2024});
  for (const Geometry& g : kGeometries) {
    for (int64_t h : kSides) {
      for (int64_t w : kSides) {
        for (Fill fill : kFills) {
          const int64_t rows = g.batch * g.channels * h;
          const std::vector<float> x = MakeInput(fill, rows, w, &rng);
          const std::vector<float> gy =
              MakeGradient(rows / 2 * (w / 2), &rng);
          const Oracle want =
              ReferencePool(x, gy, g.batch, g.channels, h, w);
          const std::string where =
              "batch " + std::to_string(g.batch) + " C " +
              std::to_string(g.channels) + " H " + std::to_string(h) +
              " W " + std::to_string(w) + " fill " +
              std::to_string(static_cast<int>(fill));
          fn(g, h, w, x, gy, want, where);
        }
      }
    }
  }
}

TEST(MaxPool2x2KernelTest, MatchesReferenceLoop) {
  ForEachCase([](const Geometry& g, int64_t h, int64_t w,
                 const std::vector<float>& x, const std::vector<float>& gy,
                 const Oracle& want, const std::string& where) {
    MaxPool2d pool(g.channels, h, w);
    Workspace ws;
    Tensor input({g.batch, g.channels * h * w}, x);
    Tensor grad({g.batch, g.channels * (h / 2) * (w / 2)}, gy);
    // A first pass creates the workspace slots; poisoning them shows any
    // position the second pass fails to write.
    const_cast<Tensor&>(pool.Forward(input, &ws)).Fill(7.0f);
    const_cast<Tensor&>(pool.Backward(grad, &ws)).Fill(7.0f);
    const Tensor& y = pool.Forward(input, &ws);
    ASSERT_EQ(static_cast<size_t>(y.size()), want.y.size()) << where;
    EXPECT_TRUE(BitwiseEqual(y.data(), want.y)) << where;
    const Tensor& gx = pool.Backward(grad, &ws);
    ASSERT_EQ(static_cast<size_t>(gx.size()), want.gx.size()) << where;
    EXPECT_TRUE(BitwiseEqual(gx.data(), want.gx)) << where;
  });
}

TEST(MaxPool2x2KernelTest, NegativeZeroGradientArrivesAsPositiveZero) {
  MaxPool2d pool(1, 2, 2);
  Workspace ws;
  pool.Forward(Tensor({1, 4}, {1, 7, 3, 2}), &ws);
  const Tensor& gx = pool.Backward(Tensor({1, 1}, {-0.0f}), &ws);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(std::signbit(gx[i])) << i;
  }
}

}  // namespace
}  // namespace fats
