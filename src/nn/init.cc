#include "nn/init.h"

#include <algorithm>
#include <cmath>

namespace fats {

void InitGaussian(Tensor* t, double stddev, RngStream* rng) {
  float* data = t->data();
  constexpr int64_t kChunk = 256;
  double draws[kChunk];
  for (int64_t i = 0; i < t->size(); i += kChunk) {
    const int64_t m = std::min(kChunk, t->size() - i);
    rng->FillGaussian(draws, static_cast<size_t>(m));
    for (int64_t j = 0; j < m; ++j) {
      data[i + j] = static_cast<float>(stddev * draws[j]);
    }
  }
}

void InitXavierUniform(Tensor* t, int64_t fan_in, int64_t fan_out,
                       RngStream* rng) {
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  float* data = t->data();
  for (int64_t i = 0; i < t->size(); ++i) {
    data[i] = static_cast<float>((2.0 * rng->NextDouble() - 1.0) * a);
  }
}

void InitHeNormal(Tensor* t, int64_t fan_in, RngStream* rng) {
  InitGaussian(t, std::sqrt(2.0 / static_cast<double>(fan_in)), rng);
}

}  // namespace fats
