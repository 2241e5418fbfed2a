#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>

#include "data/synthetic_image.h"
#include "data/synthetic_text.h"

namespace fats {
namespace {

SyntheticImageConfig ImageConfig() {
  SyntheticImageConfig config;
  config.num_classes = 4;
  config.feature_dim = 8;
  config.noise_stddev = 0.3;
  config.seed = 5;
  return config;
}

TEST(SyntheticImageTest, GeneratesRequestedShape) {
  SyntheticImageGenerator gen(ImageConfig());
  InMemoryDataset ds = gen.Generate(50, {}, -1, 1);
  EXPECT_EQ(ds.size(), 50);
  EXPECT_EQ(ds.feature_dim(), 8);
  EXPECT_EQ(ds.num_classes(), 4);
}

TEST(SyntheticImageTest, ZeroSamplesGivesEmpty) {
  SyntheticImageGenerator gen(ImageConfig());
  EXPECT_EQ(gen.Generate(0, {}, -1, 1).size(), 0);
}

TEST(SyntheticImageTest, DeterministicInSeedAndStream) {
  SyntheticImageGenerator gen_a(ImageConfig());
  SyntheticImageGenerator gen_b(ImageConfig());
  InMemoryDataset a = gen_a.Generate(20, {}, -1, 3);
  InMemoryDataset b = gen_b.Generate(20, {}, -1, 3);
  EXPECT_TRUE(a.features().BitwiseEquals(b.features()));
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(SyntheticImageTest, DifferentStreamsDiffer) {
  SyntheticImageGenerator gen(ImageConfig());
  InMemoryDataset a = gen.Generate(20, {}, -1, 3);
  InMemoryDataset b = gen.Generate(20, {}, -1, 4);
  EXPECT_FALSE(a.features().BitwiseEquals(b.features()));
}

TEST(SyntheticImageTest, ClassProportionsRespected) {
  SyntheticImageGenerator gen(ImageConfig());
  InMemoryDataset ds = gen.Generate(4000, {1.0, 0.0, 0.0, 0.0}, -1, 1);
  for (int64_t i = 0; i < ds.size(); ++i) EXPECT_EQ(ds.label(i), 0);
  InMemoryDataset skew = gen.Generate(4000, {0.7, 0.3, 0.0, 0.0}, -1, 2);
  int64_t zeros = 0;
  for (int64_t i = 0; i < skew.size(); ++i) {
    if (skew.label(i) == 0) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / skew.size(), 0.7, 0.03);
}

TEST(SyntheticImageTest, SamplesClusterAroundPrototype) {
  SyntheticImageConfig config = ImageConfig();
  config.noise_stddev = 0.05;
  SyntheticImageGenerator gen(config);
  InMemoryDataset ds = gen.Generate(200, {1.0, 0.0, 0.0, 0.0}, -1, 1);
  std::vector<float> proto = gen.StyledPrototype(0, -1);
  // Mean feature vector should be close to the class-0 prototype.
  for (int64_t j = 0; j < config.feature_dim; ++j) {
    double mean = 0.0;
    for (int64_t i = 0; i < ds.size(); ++i) {
      mean += ds.features().at(i, j);
    }
    mean /= ds.size();
    EXPECT_NEAR(mean, proto[static_cast<size_t>(j)], 0.05);
  }
}

TEST(SyntheticImageTest, StyleWarpShiftsPrototypes) {
  SyntheticImageConfig config = ImageConfig();
  config.style_strength = 0.5;
  SyntheticImageGenerator gen(config);
  std::vector<float> base = gen.StyledPrototype(0, -1);
  std::vector<float> styled_a = gen.StyledPrototype(0, 1);
  std::vector<float> styled_b = gen.StyledPrototype(0, 2);
  double diff_a = 0.0;
  double diff_ab = 0.0;
  for (size_t j = 0; j < base.size(); ++j) {
    diff_a += std::fabs(styled_a[j] - base[j]);
    diff_ab += std::fabs(styled_a[j] - styled_b[j]);
  }
  EXPECT_GT(diff_a, 0.1);   // warp moves the prototype
  EXPECT_GT(diff_ab, 0.1);  // different clients get different warps
}

TEST(SyntheticImageTest, NoiselessRowsAreTheStyledPrototypes) {
  // With no within-class noise every row Generate emits for a warped client
  // is that client's styled prototype of the row's label, bit for bit: the
  // rows and the public hook share one warp.
  SyntheticImageConfig config = ImageConfig();
  config.noise_stddev = 0.0;
  config.style_strength = 0.4;
  SyntheticImageGenerator gen(config);
  const size_t row_bytes =
      static_cast<size_t>(config.feature_dim) * sizeof(float);
  for (int64_t client : {0, 3, 17}) {
    InMemoryDataset ds = gen.Generate(64, {}, client, 9);
    std::vector<bool> seen(static_cast<size_t>(config.num_classes), false);
    for (int64_t i = 0; i < ds.size(); ++i) {
      const int64_t label = ds.label(i);
      seen[static_cast<size_t>(label)] = true;
      const std::vector<float> proto = gen.StyledPrototype(label, client);
      EXPECT_EQ(std::memcmp(ds.features().data() + i * config.feature_dim,
                            proto.data(), row_bytes),
                0)
          << "client " << client << " row " << i;
    }
    for (bool s : seen) EXPECT_TRUE(s) << "every class should appear";
  }
}

TEST(SyntheticImageTest, ZeroStyleStrengthIsNoop) {
  SyntheticImageGenerator gen(ImageConfig());
  std::vector<float> base = gen.StyledPrototype(1, -1);
  std::vector<float> styled = gen.StyledPrototype(1, 7);
  EXPECT_EQ(base, styled);
}

SyntheticTextConfig TextConfig() {
  SyntheticTextConfig config;
  config.vocab_size = 6;
  config.seq_len = 4;
  config.heterogeneity = 0.5;
  config.seed = 9;
  return config;
}

TEST(SyntheticTextTest, GeneratesValidSequences) {
  SyntheticTextGenerator gen(TextConfig());
  InMemoryDataset ds = gen.Generate(30, 0, 1);
  EXPECT_EQ(ds.size(), 30);
  EXPECT_EQ(ds.feature_dim(), 4);
  EXPECT_EQ(ds.num_classes(), 6);
  for (int64_t i = 0; i < ds.size(); ++i) {
    for (int64_t j = 0; j < 4; ++j) {
      const float v = ds.features().at(i, j);
      EXPECT_GE(v, 0.0f);
      EXPECT_LT(v, 6.0f);
      EXPECT_EQ(v, std::floor(v)) << "ids must be integral";
    }
    EXPECT_GE(ds.label(i), 0);
    EXPECT_LT(ds.label(i), 6);
  }
}

TEST(SyntheticTextTest, DeterministicInInputs) {
  SyntheticTextGenerator gen(TextConfig());
  InMemoryDataset a = gen.Generate(10, 2, 5);
  InMemoryDataset b = gen.Generate(10, 2, 5);
  EXPECT_TRUE(a.features().BitwiseEquals(b.features()));
  EXPECT_EQ(a.labels(), b.labels());
}

TEST(SyntheticTextTest, TransitionRowsAreStochastic) {
  SyntheticTextGenerator gen(TextConfig());
  for (int64_t client : {-1, 0, 3}) {
    for (int64_t current = 0; current < 6; ++current) {
      std::vector<double> row = gen.TransitionRow(client, current);
      double sum = 0.0;
      for (double p : row) {
        EXPECT_GE(p, 0.0);
        sum += p;
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

TEST(SyntheticTextTest, HeterogeneityCreatesClientDifferences) {
  SyntheticTextGenerator gen(TextConfig());
  std::vector<double> a = gen.TransitionRow(0, 0);
  std::vector<double> b = gen.TransitionRow(1, 0);
  double tv = 0.0;
  for (size_t j = 0; j < a.size(); ++j) tv += std::fabs(a[j] - b[j]);
  EXPECT_GT(tv / 2.0, 0.01);
}

TEST(SyntheticTextTest, ZeroHeterogeneityMatchesBaseChain) {
  SyntheticTextConfig config = TextConfig();
  config.heterogeneity = 0.0;
  SyntheticTextGenerator gen(config);
  EXPECT_EQ(gen.TransitionRow(0, 2), gen.TransitionRow(-1, 2));
  EXPECT_EQ(gen.TransitionRow(0, 2), gen.TransitionRow(5, 2));
}

TEST(SyntheticTextTest, ChainIsActuallyLearnableSignal) {
  // With a very concentrated chain, the next char is near-deterministic
  // given the current char, so labels correlate with the final input id.
  SyntheticTextConfig config = TextConfig();
  config.transition_concentration = 0.02;
  config.heterogeneity = 0.0;
  SyntheticTextGenerator gen(config);
  InMemoryDataset ds = gen.Generate(500, 0, 1);
  // Majority label per final char should dominate.
  std::map<int64_t, std::map<int64_t, int64_t>> table;
  for (int64_t i = 0; i < ds.size(); ++i) {
    const int64_t last = static_cast<int64_t>(ds.features().at(i, 3));
    table[last][ds.label(i)]++;
  }
  int64_t majority_hits = 0;
  int64_t total = 0;
  for (const auto& [last, hist] : table) {
    int64_t best = 0;
    int64_t count = 0;
    for (const auto& [label, c] : hist) {
      if (c > best) best = c;
      count += c;
    }
    majority_hits += best;
    total += count;
  }
  EXPECT_GT(static_cast<double>(majority_hits) / total, 0.8);
}

}  // namespace
}  // namespace fats
