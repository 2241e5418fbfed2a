#include "rng/sampling.h"

#include <cmath>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace fats {

std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k,
                                              RngStream* rng) {
  FATS_CHECK_GE(k, 0);
  FATS_CHECK_LE(k, n);
  if (n > internal::kDenseSampleMaxN) {
    return internal::SampleWithoutReplacementHashed(n, k, rng);
  }
  // Dense partial Fisher-Yates over a[i] = i: the same UniformInt(n - i)
  // draws and the same swaps as the hashed path, so the same output.
  std::vector<int64_t> a(static_cast<size_t>(n));
  std::iota(a.begin(), a.end(), int64_t{0});
  for (int64_t i = 0; i < k; ++i) {
    const int64_t j = i + static_cast<int64_t>(rng->UniformInt(n - i));
    std::swap(a[static_cast<size_t>(i)], a[static_cast<size_t>(j)]);
  }
  a.resize(static_cast<size_t>(k));
  return a;
}

namespace internal {

std::vector<int64_t> SampleWithoutReplacementHashed(int64_t n, int64_t k,
                                                    RngStream* rng) {
  FATS_CHECK_GE(k, 0);
  FATS_CHECK_LE(k, n);
  // Hash-based Fisher-Yates: conceptually shuffle an array a[i] = i and take
  // the first k entries, but materialize only the touched positions.
  std::unordered_map<int64_t, int64_t> displaced;
  displaced.reserve(static_cast<size_t>(2 * k));
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    int64_t j = i + static_cast<int64_t>(rng->UniformInt(n - i));
    auto it_j = displaced.find(j);
    int64_t value_j = (it_j == displaced.end()) ? j : it_j->second;
    auto it_i = displaced.find(i);
    int64_t value_i = (it_i == displaced.end()) ? i : it_i->second;
    displaced[j] = value_i;
    out.push_back(value_j);
  }
  return out;
}

}  // namespace internal

std::vector<int64_t> SampleWithReplacement(int64_t n, int64_t k,
                                           RngStream* rng) {
  FATS_CHECK_GT(n, 0);
  FATS_CHECK_GE(k, 0);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    out.push_back(static_cast<int64_t>(rng->UniformInt(n)));
  }
  return out;
}

double SampleGamma(double shape, RngStream* rng) {
  FATS_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
    double u = rng->NextDouble();
    if (u <= 0.0) u = 0x1.0p-53;
    return SampleGamma(shape + 1.0, rng) * std::pow(u, 1.0 / shape);
  }
  // Marsaglia-Tsang squeeze method.
  double d = shape - 1.0 / 3.0;
  double c = 1.0 / std::sqrt(9.0 * d);
  while (true) {
    double x = rng->NextGaussian();
    double v = 1.0 + c * x;
    if (v <= 0.0) continue;
    v = v * v * v;
    double u = rng->NextDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v;
    if (u <= 0.0) u = 0x1.0p-53;
    if (std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) return d * v;
  }
}

std::vector<double> SampleDirichlet(const std::vector<double>& alpha,
                                    RngStream* rng) {
  FATS_CHECK(!alpha.empty());
  std::vector<double> out(alpha.size());
  double sum = 0.0;
  for (size_t i = 0; i < alpha.size(); ++i) {
    out[i] = SampleGamma(alpha[i], rng);
    sum += out[i];
  }
  if (sum <= 0.0) {
    // Degenerate draw (all gammas underflowed); fall back to uniform.
    double uniform = 1.0 / static_cast<double>(alpha.size());
    for (double& v : out) v = uniform;
    return out;
  }
  for (double& v : out) v /= sum;
  return out;
}

int64_t SampleCategorical(const std::vector<double>& probs, RngStream* rng) {
  FATS_CHECK(!probs.empty());
  double total = 0.0;
  for (double p : probs) {
    FATS_CHECK_GE(p, 0.0);
    total += p;
  }
  FATS_CHECK_GT(total, 0.0);
  double u = rng->NextDouble() * total;
  double cumulative = 0.0;
  for (size_t i = 0; i < probs.size(); ++i) {
    cumulative += probs[i];
    if (u < cumulative) return static_cast<int64_t>(i);
  }
  return static_cast<int64_t>(probs.size()) - 1;
}

}  // namespace fats
