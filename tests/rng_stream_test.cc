#include "rng/rng_stream.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace fats {
namespace {

StreamId MakeId(RngPurpose purpose, uint64_t gen, uint64_t round,
                uint64_t client, uint64_t iter) {
  StreamId id;
  id.purpose = purpose;
  id.generation = gen;
  id.round = round;
  id.client = client;
  id.iteration = iter;
  return id;
}

TEST(StreamIdTest, ToStringMentionsFields) {
  StreamId id = MakeId(RngPurpose::kClientSampling, 1, 2, 3, 4);
  std::string s = id.ToString();
  EXPECT_NE(s.find("round=2"), std::string::npos);
  EXPECT_NE(s.find("client=3"), std::string::npos);
}

TEST(DeriveStreamKeyTest, DistinctFieldsGiveDistinctKeys) {
  std::set<uint64_t> keys;
  for (uint64_t gen = 0; gen < 3; ++gen) {
    for (uint64_t round = 0; round < 5; ++round) {
      for (uint64_t client = 0; client < 5; ++client) {
        for (uint64_t iter = 0; iter < 5; ++iter) {
          keys.insert(DeriveStreamKey(
              42, MakeId(RngPurpose::kMinibatchSampling, gen, round, client,
                         iter)));
        }
      }
    }
  }
  EXPECT_EQ(keys.size(), 3u * 5 * 5 * 5);
}

TEST(DeriveStreamKeyTest, PurposeSeparatesStreams) {
  StreamId a = MakeId(RngPurpose::kClientSampling, 0, 1, 0, 0);
  StreamId b = MakeId(RngPurpose::kMinibatchSampling, 0, 1, 0, 0);
  EXPECT_NE(DeriveStreamKey(7, a), DeriveStreamKey(7, b));
}

TEST(DeriveStreamKeyTest, RootSeedSeparatesStreams) {
  StreamId id = MakeId(RngPurpose::kGeneric, 0, 0, 0, 0);
  EXPECT_NE(DeriveStreamKey(1, id), DeriveStreamKey(2, id));
}

TEST(RngStreamTest, ReplayIsBitIdentical) {
  StreamId id = MakeId(RngPurpose::kMinibatchSampling, 0, 3, 2, 17);
  RngStream a(9, id);
  RngStream b(9, id);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.NextUInt64(), b.NextUInt64());
  }
}

TEST(RngStreamTest, GenerationBumpGivesFreshStream) {
  // The core of the unlearning coupling: bumping generation must decouple
  // the stream completely.
  StreamId id0 = MakeId(RngPurpose::kMinibatchSampling, 0, 3, 2, 17);
  StreamId id1 = MakeId(RngPurpose::kMinibatchSampling, 1, 3, 2, 17);
  RngStream a(9, id0);
  RngStream b(9, id1);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextUInt32() == b.NextUInt32()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngStreamTest, NextDoubleInUnitInterval) {
  RngStream rng(123u);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngStreamTest, NextDoubleMeanIsHalf) {
  RngStream rng(55u);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngStreamTest, UniformIntInRangeAndUnbiased) {
  RngStream rng(77u);
  constexpr uint64_t kN = 7;
  int counts[kN] = {0};
  const int draws = 14000;
  for (int i = 0; i < draws; ++i) {
    uint64_t v = rng.UniformInt(kN);
    ASSERT_LT(v, kN);
    counts[v]++;
  }
  const double expected = static_cast<double>(draws) / kN;
  double chi2 = 0.0;
  for (int c : counts) chi2 += (c - expected) * (c - expected) / expected;
  EXPECT_LT(chi2, 22.5);  // 99.9% critical value for 6 dof
}

TEST(RngStreamTest, UniformIntOneAlwaysZero) {
  RngStream rng(3u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngStreamTest, GaussianMomentsMatchStandardNormal) {
  RngStream rng(99u);
  const int n = 40000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngStreamTest, BernoulliFrequencyMatchesP) {
  RngStream rng(4u);
  const int n = 20000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// --- FillGaussian: contractually n calls of NextGaussian -------------------

TEST(FillGaussianTest, EqualsScalarCallsAtEveryOffsetAndLength) {
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t n : {0, 1, 3, 63, 64, 65, 255, 256, 257}) {
      SCOPED_TRACE(testing::Message() << "offset " << offset << " n " << n);
      RngStream bulk(0xFEED00u + offset);
      RngStream scalar(0xFEED00u + offset);
      for (size_t i = 0; i < offset; ++i) {
        ASSERT_EQ(bulk.NextUInt32(), scalar.NextUInt32());
      }
      std::vector<double> out(n);
      bulk.FillGaussian(out.data(), n);
      for (size_t i = 0; i < n; ++i) {
        // Bitwise equality: the same uniforms through the same libm calls.
        ASSERT_EQ(out[i], scalar.NextGaussian()) << "normal " << i;
      }
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(bulk.NextUInt32(), scalar.NextUInt32());
      }
    }
  }
}

TEST(FillGaussianTest, ScalarDrawsInterleaveWithFills) {
  const StreamId id = MakeId(RngPurpose::kDataGeneration, 3, 0, 17, 0);
  RngStream bulk(11, id);
  RngStream scalar(11, id);
  std::vector<double> out;
  for (size_t step = 0; step < 30; ++step) {
    const size_t n = (step * 29) % 90;
    out.assign(n, 0.0);
    bulk.FillGaussian(out.data(), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], scalar.NextGaussian());
    // A label-style draw between rows leaves the engine mid-block.
    ASSERT_EQ(bulk.NextDouble(), scalar.NextDouble());
    if (step % 3 == 0) {
      ASSERT_EQ(bulk.NextGaussian(), scalar.NextGaussian());
    }
    if (step % 5 == 0) {
      ASSERT_EQ(bulk.UniformInt(30), scalar.UniformInt(30));
    }
  }
}

}  // namespace
}  // namespace fats
