#include "rng/sampling.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace fats {
namespace {

RngStream MakeStream(uint64_t key) { return RngStream(key); }

TEST(SampleWithoutReplacementTest, ReturnsDistinctInRange) {
  RngStream rng = MakeStream(1);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<int64_t> s = SampleWithoutReplacement(20, 7, &rng);
    ASSERT_EQ(s.size(), 7u);
    std::set<int64_t> distinct(s.begin(), s.end());
    EXPECT_EQ(distinct.size(), 7u);
    for (int64_t v : s) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(SampleWithoutReplacementTest, FullDrawIsPermutation) {
  RngStream rng = MakeStream(2);
  std::vector<int64_t> s = SampleWithoutReplacement(10, 10, &rng);
  std::sort(s.begin(), s.end());
  for (int64_t i = 0; i < 10; ++i) EXPECT_EQ(s[static_cast<size_t>(i)], i);
}

TEST(SampleWithoutReplacementTest, ZeroDrawIsEmpty) {
  RngStream rng = MakeStream(3);
  EXPECT_TRUE(SampleWithoutReplacement(5, 0, &rng).empty());
}

TEST(SampleWithoutReplacementTest, SubsetsAreUniform) {
  // All C(5,2)=10 subsets of {0..4} should be equally likely.
  RngStream rng = MakeStream(4);
  std::map<std::pair<int64_t, int64_t>, int> counts;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    std::vector<int64_t> s = SampleWithoutReplacement(5, 2, &rng);
    std::sort(s.begin(), s.end());
    counts[{s[0], s[1]}]++;
  }
  ASSERT_EQ(counts.size(), 10u);
  const double expected = draws / 10.0;
  double chi2 = 0.0;
  for (const auto& [subset, c] : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 27.9);  // 99.9% critical value for 9 dof
}

TEST(SampleWithoutReplacementTest, ElementInclusionProbabilityIsKOverN) {
  RngStream rng = MakeStream(5);
  const int draws = 10000;
  int contains_zero = 0;
  for (int i = 0; i < draws; ++i) {
    std::vector<int64_t> s = SampleWithoutReplacement(10, 3, &rng);
    if (std::find(s.begin(), s.end(), 0) != s.end()) ++contains_zero;
  }
  EXPECT_NEAR(static_cast<double>(contains_zero) / draws, 0.3, 0.02);
}

// The dense path below the cutoff and the hashed path make the same draws
// and swaps: equal outputs and equal stream state, on either side of it.
TEST(SampleWithoutReplacementTest, DenseAndHashedPathsAgree) {
  const int64_t cutoff = internal::kDenseSampleMaxN;
  for (int64_t n : {int64_t{1}, int64_t{8}, int64_t{30}, cutoff - 1, cutoff,
                    cutoff + 1, 2 * cutoff}) {
    for (int64_t k : {int64_t{0}, int64_t{1}, n / 2, n}) {
      SCOPED_TRACE(testing::Message() << "n " << n << " k " << k);
      RngStream a = MakeStream(static_cast<uint64_t>(1000 * n + k));
      RngStream b = MakeStream(static_cast<uint64_t>(1000 * n + k));
      EXPECT_EQ(SampleWithoutReplacement(n, k, &a),
                internal::SampleWithoutReplacementHashed(n, k, &b));
      EXPECT_EQ(a.NextUInt64(), b.NextUInt64());
    }
  }
}

TEST(SampleWithReplacementTest, InRangeAndAllowsRepeats) {
  RngStream rng = MakeStream(6);
  std::vector<int64_t> s = SampleWithReplacement(3, 100, &rng);
  ASSERT_EQ(s.size(), 100u);
  std::set<int64_t> distinct(s.begin(), s.end());
  EXPECT_LE(distinct.size(), 3u);
  // With 100 draws over 3 values a repeat is certain.
  EXPECT_LT(distinct.size(), 100u);
  for (int64_t v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 3);
  }
}

TEST(SampleWithReplacementTest, MarginalIsUniform) {
  RngStream rng = MakeStream(7);
  int counts[4] = {0};
  const int draws = 20000;
  std::vector<int64_t> s = SampleWithReplacement(4, draws, &rng);
  for (int64_t v : s) counts[v]++;
  const double expected = draws / 4.0;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 16.3);  // 99.9% for 3 dof
}

TEST(ShuffleTest, ProducesPermutationUniformly) {
  RngStream rng = MakeStream(8);
  std::map<std::vector<int>, int> counts;
  const int draws = 12000;
  for (int i = 0; i < draws; ++i) {
    std::vector<int> v = {0, 1, 2};
    Shuffle(&v, &rng);
    counts[v]++;
  }
  ASSERT_EQ(counts.size(), 6u);
  const double expected = draws / 6.0;
  for (const auto& [perm, c] : counts) {
    EXPECT_NEAR(c, expected, 5 * std::sqrt(expected));
  }
}

TEST(SampleGammaTest, MeanMatchesShape) {
  RngStream rng = MakeStream(9);
  for (double shape : {0.5, 1.0, 3.0}) {
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += SampleGamma(shape, &rng);
    EXPECT_NEAR(sum / n, shape, 0.08 * std::max(1.0, shape));
  }
}

TEST(SampleDirichletTest, SumsToOneAndNonNegative) {
  RngStream rng = MakeStream(10);
  std::vector<double> alpha = {0.5, 0.5, 0.5, 0.5};
  for (int i = 0; i < 100; ++i) {
    std::vector<double> p = SampleDirichlet(alpha, &rng);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(SampleDirichletTest, SymmetricAlphaHasUniformMean) {
  RngStream rng = MakeStream(11);
  std::vector<double> alpha = {1.0, 1.0, 1.0};
  std::vector<double> mean(3, 0.0);
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    std::vector<double> p = SampleDirichlet(alpha, &rng);
    for (int j = 0; j < 3; ++j) mean[static_cast<size_t>(j)] += p[j];
  }
  for (int j = 0; j < 3; ++j) {
    EXPECT_NEAR(mean[static_cast<size_t>(j)] / n, 1.0 / 3.0, 0.01);
  }
}

TEST(SampleDirichletTest, SmallAlphaConcentrates) {
  // β → 0 yields near-one-hot draws (high heterogeneity in LDA terms).
  RngStream rng = MakeStream(12);
  std::vector<double> alpha = {0.05, 0.05, 0.05};
  double max_mass = 0.0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    std::vector<double> p = SampleDirichlet(alpha, &rng);
    max_mass += *std::max_element(p.begin(), p.end());
  }
  EXPECT_GT(max_mass / n, 0.85);
}

TEST(SampleCategoricalTest, MatchesProbabilities) {
  RngStream rng = MakeStream(13);
  std::vector<double> probs = {0.1, 0.2, 0.7};
  int counts[3] = {0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[SampleCategorical(probs, &rng)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.2, 0.015);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.7, 0.015);
}

TEST(SampleCategoricalTest, UnnormalizedWeightsWork) {
  RngStream rng = MakeStream(14);
  std::vector<double> weights = {1.0, 3.0};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (SampleCategorical(weights, &rng) == 1) ++hits;
  }
  EXPECT_NEAR(hits / static_cast<double>(n), 0.75, 0.015);
}

}  // namespace
}  // namespace fats
