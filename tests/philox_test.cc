#include "rng/philox.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace fats {
namespace {

// Known-answer test from the Random123 reference implementation
// (philox4x32-10 counter=ffffffff... key=ffffffff...).
TEST(PhiloxTest, ReferenceVectorAllOnes) {
  PhiloxCounter ctr = {0xffffffffu, 0xffffffffu, 0xffffffffu, 0xffffffffu};
  PhiloxKey key = {0xffffffffu, 0xffffffffu};
  PhiloxBlock out = Philox4x32(ctr, key);
  EXPECT_EQ(out[0], 0x408f276du);
  EXPECT_EQ(out[1], 0x41c83b0eu);
  EXPECT_EQ(out[2], 0xa20bc7c6u);
  EXPECT_EQ(out[3], 0x6d5451fdu);
}

TEST(PhiloxTest, ReferenceVectorZeros) {
  PhiloxCounter ctr = {0, 0, 0, 0};
  PhiloxKey key = {0, 0};
  PhiloxBlock out = Philox4x32(ctr, key);
  EXPECT_EQ(out[0], 0x6627e8d5u);
  EXPECT_EQ(out[1], 0xe169c58du);
  EXPECT_EQ(out[2], 0xbc57ac4cu);
  EXPECT_EQ(out[3], 0x9b00dbd8u);
}

TEST(PhiloxTest, DeterministicForSameInputs) {
  PhiloxCounter ctr = {1, 2, 3, 4};
  PhiloxKey key = {5, 6};
  EXPECT_EQ(Philox4x32(ctr, key), Philox4x32(ctr, key));
}

TEST(PhiloxTest, CounterChangesOutput) {
  PhiloxKey key = {5, 6};
  EXPECT_NE(Philox4x32({1, 0, 0, 0}, key), Philox4x32({2, 0, 0, 0}, key));
}

TEST(PhiloxTest, KeyChangesOutput) {
  PhiloxCounter ctr = {1, 2, 3, 4};
  EXPECT_NE(Philox4x32(ctr, {1, 0}), Philox4x32(ctr, {2, 0}));
}

TEST(PhiloxEngineTest, ReplayIsBitIdentical) {
  PhiloxEngine a(12345);
  PhiloxEngine b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(PhiloxEngineTest, DifferentKeysDiffer) {
  PhiloxEngine a(1);
  PhiloxEngine b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(PhiloxEngineTest, SeekToBlockAddressesStream) {
  PhiloxEngine a(99);
  // Consume 8 values = 2 blocks.
  std::vector<uint32_t> first_run;
  for (int i = 0; i < 12; ++i) first_run.push_back(a());
  PhiloxEngine b(99);
  b.SeekToBlock(2);
  // Block 2 corresponds to outputs 8..11.
  for (int i = 8; i < 12; ++i) {
    EXPECT_EQ(first_run[static_cast<size_t>(i)], b());
  }
}

TEST(PhiloxEngineTest, NextUInt64CombinesTwoOutputs) {
  PhiloxEngine a(7);
  PhiloxEngine b(7);
  uint64_t lo = b();
  uint64_t hi = b();
  EXPECT_EQ(a.NextUInt64(), (hi << 32) | lo);
}

TEST(PhiloxEngineTest, OutputLooksUniformAcrossBuckets) {
  PhiloxEngine engine(2024);
  constexpr int kBuckets = 16;
  constexpr int kDraws = 16000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kDraws; ++i) {
    counts[engine() % kBuckets]++;
  }
  // Chi-square with 15 dof; 99.9% critical value ~ 37.7.
  double chi2 = 0.0;
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    chi2 += (c - expected) * (c - expected) / expected;
  }
  EXPECT_LT(chi2, 37.7);
}

// --- Bulk Fill: contractually n calls of operator() -----------------------

// Fills `n` words from `bulk` and checks them, then the engine state (the
// next words, which may come from a block Fill buffered), against `scalar`.
// Short lengths and groups that would carry run the scalar fallback; the
// rest run the dispatched group kernel.
void ExpectFillMatchesScalar(PhiloxEngine* bulk, PhiloxEngine* scalar,
                             size_t n) {
  std::vector<uint32_t> out(n + 1, 0xDEADBEEFu);
  bulk->Fill(out.data(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], (*scalar)()) << "word " << i << " of " << n;
  }
  EXPECT_EQ(out[n], 0xDEADBEEFu) << "wrote past n";
  for (int i = 0; i < 9; ++i) {
    ASSERT_EQ((*bulk)(), (*scalar)()) << "state after Fill, word " << i;
  }
}

TEST(PhiloxFillTest, EqualsScalarCallsAtEveryOffsetAndLength) {
  for (size_t offset = 0; offset < 4; ++offset) {
    for (size_t n : {0, 1, 3, 63, 64, 65, 255, 256, 257}) {
      SCOPED_TRACE(testing::Message() << "offset " << offset << " n " << n);
      PhiloxEngine bulk(0x5EED0000u + offset);
      PhiloxEngine scalar(0x5EED0000u + offset);
      // Leave both engines `offset` words into a buffered block.
      for (size_t i = 0; i < offset; ++i) ASSERT_EQ(bulk(), scalar());
      ExpectFillMatchesScalar(&bulk, &scalar, n);
    }
  }
}

TEST(PhiloxFillTest, CarriesFromWordZeroIntoWordOne) {
  // Blocks 2^32 - 40 .. 2^32 + 70: groups below, across and above the carry.
  for (uint64_t start = (1ull << 32) - 40; start < (1ull << 32); start += 7) {
    PhiloxEngine bulk(77);
    PhiloxEngine scalar(77);
    bulk.SeekToBlock(start);
    scalar.SeekToBlock(start);
    ExpectFillMatchesScalar(&bulk, &scalar, 4 * 110 + 2);
  }
}

TEST(PhiloxFillTest, CarriesFromWordOneIntoWordTwo) {
  const uint64_t key = 0x0123456789ABCDEFull;
  PhiloxEngine bulk(key);
  PhiloxEngine scalar(key);
  const uint64_t start = ~0ull - 20;  // block 2^64 - 21
  bulk.SeekToBlock(start);
  scalar.SeekToBlock(start);
  std::vector<uint32_t> out(4 * 64);
  bulk.Fill(out.data(), out.size());
  for (uint32_t w : out) ASSERT_EQ(w, scalar());
  // Block 21 of the fill is counter (0, 0, 1, 0): the carry reached word 2.
  const PhiloxBlock expected =
      Philox4x32({0, 0, 1, 0}, {static_cast<uint32_t>(key),
                                static_cast<uint32_t>(key >> 32)});
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(out[4 * 21 + i], expected[i]);
}

TEST(PhiloxFillTest, ScalarDrawsInterleaveWithFills) {
  PhiloxEngine bulk(2718);
  PhiloxEngine scalar(2718);
  std::vector<uint32_t> out;
  for (size_t step = 0; step < 40; ++step) {
    // Lengths cycle through short, group-sized and multi-group fills.
    const size_t n = (step * 37) % 150;
    out.assign(n, 0);
    bulk.Fill(out.data(), n);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(out[i], scalar()) << step;
    for (size_t i = 0; i < step % 3; ++i) ASSERT_EQ(bulk(), scalar());
    if (step % 4 == 1) {
      ASSERT_EQ(bulk.NextUInt64(), scalar.NextUInt64());
    }
  }
}

TEST(SplitMix64Test, KnownValuesAndBijectivityOnSample) {
  // SplitMix64 must be deterministic and collision-free on a sample.
  std::set<uint64_t> outputs;
  for (uint64_t x = 0; x < 2000; ++x) outputs.insert(SplitMix64(x));
  EXPECT_EQ(outputs.size(), 2000u);
  EXPECT_EQ(SplitMix64(0), SplitMix64(0));
  EXPECT_NE(SplitMix64(1), SplitMix64(2));
}

}  // namespace
}  // namespace fats
