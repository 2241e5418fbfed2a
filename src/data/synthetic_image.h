// Synthetic image-classification data: Gaussian class-prototype clusters.
//
// Substitutes for MNIST / Fashion-MNIST / CIFAR-10 / CIFAR-100 / FEMNIST
// (see DESIGN.md §2). Each class c has a prototype vector mu_c ~ N(0, s^2 I);
// an example of class c is mu_c + N(0, noise^2 I). The Bayes error is
// controlled by the margin s/noise, so accuracy curves show the same
// rise-and-plateau dynamics as the real corpora.
//
// A per-client "style" transform (used for the FEMNIST-like natural
// partition) warps the prototypes per client, reproducing the writer-level
// distribution shift that makes LEAF datasets non-IID.

#ifndef FATS_DATA_SYNTHETIC_IMAGE_H_
#define FATS_DATA_SYNTHETIC_IMAGE_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "rng/rng_stream.h"

namespace fats {

struct SyntheticImageConfig {
  int64_t num_classes = 10;
  int64_t feature_dim = 32;     // flattened C*H*W
  double prototype_scale = 1.0; // stddev of class prototypes
  double noise_stddev = 0.6;    // within-class noise
  /// Strength of the per-client style warp (0 = no warp). Applied as a
  /// client-specific random shift + coordinate rescale of the prototypes.
  double style_strength = 0.0;
  uint64_t seed = 1;            // seeds the prototype draw
};

/// Generates synthetic image-like data.
class SyntheticImageGenerator {
 public:
  explicit SyntheticImageGenerator(const SyntheticImageConfig& config);

  /// `n` examples with class proportions `class_probs` (length num_classes;
  /// pass empty for uniform). `style_client` selects the client style warp
  /// (ignored when style_strength == 0). `sample_stream_seed` addresses the
  /// example-level randomness so different calls are independent.
  InMemoryDataset Generate(int64_t n,
                           const std::vector<double>& class_probs,
                           int64_t style_client,
                           uint64_t sample_stream_seed) const;

  const SyntheticImageConfig& config() const { return config_; }

  /// The prototype of class `c` after the style warp of `style_client`
  /// (style_client < 0 means no warp). Exposed for tests.
  std::vector<float> StyledPrototype(int64_t c, int64_t style_client) const;

 private:
  /// All class prototypes, (num_classes x feature_dim) row-major, under the
  /// style warp of `style_client`. The warp is drawn once per call and
  /// applied to every class.
  std::vector<float> StyledPrototypes(int64_t style_client) const;

  SyntheticImageConfig config_;
  std::vector<float> prototypes_;  // (num_classes x feature_dim)
};

}  // namespace fats

#endif  // FATS_DATA_SYNTHETIC_IMAGE_H_
