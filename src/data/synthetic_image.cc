#include "data/synthetic_image.h"

#include "rng/sampling.h"
#include "util/logging.h"

namespace fats {

SyntheticImageGenerator::SyntheticImageGenerator(
    const SyntheticImageConfig& config)
    : config_(config) {
  FATS_CHECK_GT(config_.num_classes, 0);
  FATS_CHECK_GT(config_.feature_dim, 0);
  prototypes_.resize(
      static_cast<size_t>(config_.num_classes * config_.feature_dim));
  StreamId id;
  id.purpose = RngPurpose::kDataGeneration;
  id.round = 0;
  RngStream rng(config_.seed, id);
  std::vector<double> draws(prototypes_.size());
  rng.FillGaussian(draws.data(), draws.size());
  for (size_t i = 0; i < prototypes_.size(); ++i) {
    prototypes_[i] = static_cast<float>(config_.prototype_scale * draws[i]);
  }
}

std::vector<float> SyntheticImageGenerator::StyledPrototype(
    int64_t c, int64_t style_client) const {
  FATS_CHECK(c >= 0 && c < config_.num_classes);
  const int64_t d = config_.feature_dim;
  const std::vector<float> all = StyledPrototypes(style_client);
  return std::vector<float>(all.begin() + c * d, all.begin() + (c + 1) * d);
}

std::vector<float> SyntheticImageGenerator::StyledPrototypes(
    int64_t style_client) const {
  std::vector<float> protos = prototypes_;
  if (style_client < 0 || config_.style_strength == 0.0) return protos;
  // Client-specific warp: a deterministic shift and coordinate rescale drawn
  // once from the client's own style stream and applied to every class.
  StreamId id;
  id.purpose = RngPurpose::kDataGeneration;
  id.client = static_cast<uint64_t>(style_client);
  id.iteration = 1;  // style sub-stream
  RngStream rng(config_.seed, id);
  const double s = config_.style_strength;
  std::vector<double> shift(static_cast<size_t>(config_.feature_dim));
  std::vector<double> scale(shift.size());
  // Shift and scale are drawn interleaved, one pair per coordinate.
  std::vector<double> draws(2 * shift.size());
  rng.FillGaussian(draws.data(), draws.size());
  for (size_t j = 0; j < shift.size(); ++j) {
    shift[j] = s * draws[2 * j];
    scale[j] = 1.0 + s * 0.5 * draws[2 * j + 1];
  }
  for (size_t row = 0; row < protos.size(); row += shift.size()) {
    for (size_t j = 0; j < shift.size(); ++j) {
      protos[row + j] =
          static_cast<float>(protos[row + j] * scale[j] + shift[j]);
    }
  }
  return protos;
}

InMemoryDataset SyntheticImageGenerator::Generate(
    int64_t n, const std::vector<double>& class_probs, int64_t style_client,
    uint64_t sample_stream_seed) const {
  FATS_CHECK_GE(n, 0);
  std::vector<double> probs = class_probs;
  if (probs.empty()) {
    probs.assign(static_cast<size_t>(config_.num_classes),
                 1.0 / static_cast<double>(config_.num_classes));
  }
  FATS_CHECK_EQ(static_cast<int64_t>(probs.size()), config_.num_classes);

  StreamId id;
  id.purpose = RngPurpose::kDataGeneration;
  id.generation = sample_stream_seed;
  id.client = style_client >= 0 ? static_cast<uint64_t>(style_client)
                                : StreamId::kNoClient;
  RngStream rng(config_.seed, id);

  const int64_t d = config_.feature_dim;
  Tensor features({std::max<int64_t>(n, 1), d});
  std::vector<int64_t> labels;
  labels.reserve(static_cast<size_t>(n));
  const std::vector<float> styled = StyledPrototypes(style_client);
  std::vector<double> noise(static_cast<size_t>(d));
  for (int64_t i = 0; i < n; ++i) {
    // The row's label draw comes first, then its d noise draws.
    const int64_t c = SampleCategorical(probs, &rng);
    labels.push_back(c);
    rng.FillGaussian(noise.data(), noise.size());
    const float* proto = styled.data() + c * d;
    float* row = features.data() + i * d;
    for (int64_t j = 0; j < d; ++j) {
      row[j] = proto[j] + static_cast<float>(config_.noise_stddev *
                                             noise[static_cast<size_t>(j)]);
    }
  }
  if (n == 0) return InMemoryDataset();
  return InMemoryDataset(std::move(features), std::move(labels),
                         config_.num_classes);
}

}  // namespace fats
