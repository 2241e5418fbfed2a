// Sampling primitives used by the FL engine and the data layer.
//
// The two samplers that matter for the unlearning proofs:
//   * SampleWithoutReplacement — the client-side mini-batch law ξ(N, b)
//     (uniform over size-b subsets) analysed in Claim 1;
//   * SampleWithReplacement — the server-side client multiset law ν(M, K)
//     analysed in Lemma 1.

#ifndef FATS_RNG_SAMPLING_H_
#define FATS_RNG_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "rng/rng_stream.h"

namespace fats {

/// Draws a uniformly random size-`k` subset of {0, ..., n-1} without
/// replacement. Requires 0 <= k <= n. The result is returned in the order
/// drawn (a uniformly random k-permutation prefix); callers that need set
/// semantics should sort. A partial Fisher-Yates shuffle of a[i] = i: up to
/// internal::kDenseSampleMaxN it runs on a dense array (O(n)); above, only
/// the touched positions live in a hash map, O(k) expected time and space
/// independent of n. Both make the same draws and swaps, so the choice
/// never changes an output.
std::vector<int64_t> SampleWithoutReplacement(int64_t n, int64_t k,
                                              RngStream* rng);

namespace internal {

/// Largest n that SampleWithoutReplacement shuffles densely. The mini-batch
/// draws (N of 8-30 samples) sit far below it; the server's K-of-M client
/// draw (32 of 10^6) far above.
inline constexpr int64_t kDenseSampleMaxN = 256;

/// The hash-map path alone, same contract as SampleWithoutReplacement.
/// Exposed so tests compare both paths below the cutoff; callers use
/// SampleWithoutReplacement.
std::vector<int64_t> SampleWithoutReplacementHashed(int64_t n, int64_t k,
                                                    RngStream* rng);

}  // namespace internal

/// Draws `k` elements of {0, ..., n-1} uniformly with replacement
/// (a multiset, order as drawn). Requires n > 0, k >= 0.
std::vector<int64_t> SampleWithReplacement(int64_t n, int64_t k,
                                           RngStream* rng);

/// Uniformly shuffles `items` in place (Fisher-Yates).
template <typename T>
void Shuffle(std::vector<T>* items, RngStream* rng) {
  for (int64_t i = static_cast<int64_t>(items->size()) - 1; i > 0; --i) {
    int64_t j = static_cast<int64_t>(rng->UniformInt(i + 1));
    std::swap((*items)[i], (*items)[j]);
  }
}

/// Samples a point from the Dirichlet distribution with concentration
/// `alpha` (all entries > 0) via normalized Gamma draws.
std::vector<double> SampleDirichlet(const std::vector<double>& alpha,
                                    RngStream* rng);

/// Samples Gamma(shape, 1) (Marsaglia-Tsang; boosted for shape < 1).
double SampleGamma(double shape, RngStream* rng);

/// Draws one index from the categorical distribution given by `probs`
/// (must be non-negative; normalized internally).
int64_t SampleCategorical(const std::vector<double>& probs, RngStream* rng);

}  // namespace fats

#endif  // FATS_RNG_SAMPLING_H_
