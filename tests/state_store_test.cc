#include "fl/state_store.h"

#include <gtest/gtest.h>

namespace fats {
namespace {

TEST(StateStoreTest, ClientSelectionRoundTrip) {
  StateStore store;
  store.SaveClientSelection(1, {3, 1, 3});
  const std::vector<int64_t>* sel = store.GetClientSelection(1);
  ASSERT_NE(sel, nullptr);
  EXPECT_EQ(*sel, (std::vector<int64_t>{3, 1, 3}));
  EXPECT_EQ(store.GetClientSelection(2), nullptr);
}

TEST(StateStoreTest, GlobalModelRoundTrip) {
  StateStore store;
  store.SaveGlobalModel(0, Tensor({2}, {1, 2}));
  store.SaveGlobalModel(3, Tensor({2}, {3, 4}));
  ASSERT_NE(store.GetGlobalModel(0), nullptr);
  EXPECT_FLOAT_EQ((*store.GetGlobalModel(3))[1], 4.0f);
  EXPECT_EQ(store.GetGlobalModel(1), nullptr);
}

TEST(StateStoreTest, MinibatchRoundTrip) {
  StateStore store;
  store.SaveMinibatch(5, 2, {0, 7});
  const std::vector<int64_t>* batch = store.GetMinibatch(5, 2);
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(*batch, (std::vector<int64_t>{0, 7}));
  EXPECT_EQ(store.GetMinibatch(5, 3), nullptr);
  EXPECT_EQ(store.GetMinibatch(6, 2), nullptr);
}

TEST(StateStoreTest, EarliestSampleUseTracksMinimum) {
  StateStore store;
  EXPECT_EQ(store.EarliestSampleUse({1, 0}), -1);
  store.SaveMinibatch(8, 1, {0, 2});
  store.SaveMinibatch(3, 1, {2});
  store.SaveMinibatch(5, 1, {0});
  EXPECT_EQ(store.EarliestSampleUse({1, 0}), 5);
  EXPECT_EQ(store.EarliestSampleUse({1, 2}), 3);
  EXPECT_EQ(store.EarliestSampleUse({1, 9}), -1);
  EXPECT_EQ(store.EarliestSampleUse({2, 0}), -1);  // other client
}

TEST(StateStoreTest, EarliestClientRoundTracksMinimum) {
  StateStore store;
  EXPECT_EQ(store.EarliestClientRound(4), -1);
  store.SaveClientSelection(6, {4});
  store.SaveClientSelection(2, {4, 5});
  EXPECT_EQ(store.EarliestClientRound(4), 2);
  EXPECT_EQ(store.EarliestClientRound(5), 2);
  EXPECT_EQ(store.EarliestClientRound(9), -1);
}

TEST(StateStoreTest, TruncateRemovesSuffixRecords) {
  StateStore store;
  const int64_t e = 3;  // rounds: 1 -> iters 1..3, 2 -> 4..6
  store.SaveGlobalModel(0, Tensor({1}, {0}));
  store.SaveClientSelection(1, {0});
  store.SaveMinibatch(1, 0, {5});
  store.SaveMinibatch(3, 0, {6});
  store.SaveGlobalModel(1, Tensor({1}, {1}));
  store.SaveClientSelection(2, {1});
  store.SaveMinibatch(4, 1, {7});
  store.SaveGlobalModel(2, Tensor({1}, {2}));

  // Truncate from iteration 4 (round 2 start): round 2 records vanish,
  // round 1 records and the initial model survive.
  store.TruncateFromIteration(4, e);
  EXPECT_NE(store.GetGlobalModel(0), nullptr);
  EXPECT_NE(store.GetGlobalModel(1), nullptr);
  EXPECT_EQ(store.GetGlobalModel(2), nullptr);
  EXPECT_NE(store.GetClientSelection(1), nullptr);
  EXPECT_EQ(store.GetClientSelection(2), nullptr);
  EXPECT_NE(store.GetMinibatch(3, 0), nullptr);
  EXPECT_EQ(store.GetMinibatch(4, 1), nullptr);
}

TEST(StateStoreTest, TruncateMidRoundKeepsSelectionDropsRoundModel) {
  StateStore store;
  const int64_t e = 3;
  store.SaveClientSelection(1, {0});
  store.SaveMinibatch(1, 0, {1});
  store.SaveMinibatch(2, 0, {2});
  store.SaveGlobalModel(1, Tensor({1}, {1}));
  // Truncate from iteration 2: the round-1 selection survives (made at
  // iter 1) but the round-1 global model (saved at iter 3) is dropped.
  store.TruncateFromIteration(2, e);
  EXPECT_NE(store.GetClientSelection(1), nullptr);
  EXPECT_NE(store.GetMinibatch(1, 0), nullptr);
  EXPECT_EQ(store.GetMinibatch(2, 0), nullptr);
  EXPECT_EQ(store.GetGlobalModel(1), nullptr);
}

TEST(StateStoreTest, TruncateRebuildsEarliestIndices) {
  StateStore store;
  store.SaveMinibatch(2, 0, {5});
  store.SaveMinibatch(7, 0, {5});
  store.SaveClientSelection(1, {3});
  store.SaveClientSelection(4, {3});
  EXPECT_EQ(store.EarliestSampleUse({0, 5}), 2);
  store.TruncateFromIteration(2, 2);
  // Iteration-2 record gone; earliest must now be -1 (the iter-7 record is
  // also >= 2 so it is gone too).
  EXPECT_EQ(store.EarliestSampleUse({0, 5}), -1);
  // Round 4 starts at iter 7 >= 2 -> dropped; round 1 starts at 1 -> kept.
  EXPECT_EQ(store.EarliestClientRound(3), 1);
}

TEST(StateStoreTest, SampleUsesListsAllIterationsSorted) {
  StateStore store;
  EXPECT_EQ(store.SampleUses({0, 5}), nullptr);
  store.SaveMinibatch(9, 0, {5, 6});
  store.SaveMinibatch(2, 0, {5});
  store.SaveMinibatch(4, 0, {5});
  store.SaveMinibatch(4, 1, {5});  // other client, same local index
  const std::vector<int64_t>* uses = store.SampleUses({0, 5});
  ASSERT_NE(uses, nullptr);
  EXPECT_EQ(*uses, (std::vector<int64_t>{2, 4, 9}));
  ASSERT_NE(store.SampleUses({1, 5}), nullptr);
  EXPECT_EQ(*store.SampleUses({1, 5}), (std::vector<int64_t>{4}));
  EXPECT_EQ(store.SampleUses({0, 7}), nullptr);
}

TEST(StateStoreTest, ClientRoundsListsAllRoundsSorted) {
  StateStore store;
  EXPECT_EQ(store.ClientRounds(3), nullptr);
  store.SaveClientSelection(5, {3, 3, 1});  // repeated in multiset: one posting
  store.SaveClientSelection(2, {3});
  const std::vector<int64_t>* rounds = store.ClientRounds(3);
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(*rounds, (std::vector<int64_t>{2, 5}));
  ASSERT_NE(store.ClientRounds(1), nullptr);
  EXPECT_EQ(*store.ClientRounds(1), (std::vector<int64_t>{5}));
}

TEST(StateStoreTest, MinibatchOverwriteDeindexesOldBatch) {
  StateStore store;
  store.SaveMinibatch(3, 0, {5, 6});
  store.SaveMinibatch(8, 0, {5});
  // Substitution: the new batch at iteration 3 no longer contains sample 5.
  store.SaveMinibatch(3, 0, {6, 7});
  ASSERT_NE(store.SampleUses({0, 5}), nullptr);
  EXPECT_EQ(*store.SampleUses({0, 5}), (std::vector<int64_t>{8}));
  EXPECT_EQ(*store.SampleUses({0, 6}), (std::vector<int64_t>{3}));
  EXPECT_EQ(*store.SampleUses({0, 7}), (std::vector<int64_t>{3}));
  // Replacing the last referencing batch erases the posting key entirely.
  store.SaveMinibatch(8, 0, {7});
  EXPECT_EQ(store.SampleUses({0, 5}), nullptr);
  EXPECT_EQ(store.EarliestSampleUse({0, 5}), -1);
  EXPECT_TRUE(store.IndicesConsistentWithRecords());
}

TEST(StateStoreTest, SelectionOverwriteDeindexesOldMultiset) {
  StateStore store;
  store.SaveClientSelection(2, {1, 2});
  store.SaveClientSelection(4, {1});
  store.SaveClientSelection(2, {2, 3});  // round 2 redrawn without client 1
  ASSERT_NE(store.ClientRounds(1), nullptr);
  EXPECT_EQ(*store.ClientRounds(1), (std::vector<int64_t>{4}));
  EXPECT_EQ(*store.ClientRounds(3), (std::vector<int64_t>{2}));
  store.SaveClientSelection(4, {3});
  EXPECT_EQ(store.ClientRounds(1), nullptr);
  EXPECT_EQ(store.EarliestClientRound(1), -1);
  EXPECT_TRUE(store.IndicesConsistentWithRecords());
}

TEST(StateStoreTest, TruncateMaintainsIndexIncrementally) {
  StateStore store;
  const int64_t e = 2;
  store.SaveClientSelection(1, {0, 1});
  store.SaveClientSelection(2, {0});
  store.SaveClientSelection(3, {1});
  for (int64_t t = 1; t <= 6; ++t) {
    store.SaveMinibatch(t, t % 2, {t, 100});
  }
  ASSERT_TRUE(store.IndicesConsistentWithRecords());
  store.TruncateFromIteration(3, e);  // round 2 start
  EXPECT_TRUE(store.IndicesConsistentWithRecords());
  EXPECT_EQ(*store.ClientRounds(0), (std::vector<int64_t>{1}));
  EXPECT_EQ(*store.ClientRounds(1), (std::vector<int64_t>{1}));
  EXPECT_EQ(store.SampleUses({1, 3}), nullptr);  // iter-3 record erased
  EXPECT_EQ(*store.SampleUses({0, 100}), (std::vector<int64_t>{2}));
  EXPECT_EQ(*store.SampleUses({1, 100}), (std::vector<int64_t>{1}));
}

TEST(StateStoreTest, ClearDropsIndices) {
  StateStore store;
  store.SaveMinibatch(1, 0, {3});
  store.SaveClientSelection(1, {0});
  store.Clear();
  EXPECT_EQ(store.SampleUses({0, 3}), nullptr);
  EXPECT_EQ(store.ClientRounds(0), nullptr);
  EXPECT_TRUE(store.IndicesConsistentWithRecords());
}

TEST(StateStoreTest, ConsistencyAuditDetectsNothingAfterMixedOps) {
  StateStore store;
  const int64_t e = 3;
  for (int64_t r = 1; r <= 4; ++r) {
    store.SaveClientSelection(r, {r % 3, (r + 1) % 3});
    for (int64_t t = (r - 1) * e + 1; t <= r * e; ++t) {
      store.SaveMinibatch(t, r % 3, {t % 5, (t + 2) % 5});
    }
  }
  store.SaveMinibatch(4, 1, {0});      // substitution overwrite
  store.TruncateFromIteration(8, e);   // mid-history truncation
  store.SaveClientSelection(3, {2});   // redraw after truncation
  EXPECT_TRUE(store.IndicesConsistentWithRecords());
}

TEST(StateStoreTest, ApproxBytesGrowsWithRecords) {
  StateStore store;
  const int64_t empty = store.ApproxBytes();
  store.SaveGlobalModel(1, Tensor({100}));
  store.SaveMinibatch(1, 0, {1, 2, 3});
  EXPECT_GT(store.ApproxBytes(), empty + 400);
}

TEST(StateStoreTest, RecordCounters) {
  StateStore store;
  store.SaveMinibatch(1, 0, {1});
  store.SaveMinibatch(2, 0, {1});
  store.SaveClientSelection(1, {0});
  EXPECT_EQ(store.num_minibatch_records(), 2);
  EXPECT_EQ(store.num_rounds_recorded(), 1);
}

TEST(CompactIndexTest, TracksParticipationBits) {
  CompactParticipationIndex index(3, {4, 4, 4});
  EXPECT_FALSE(index.ClientParticipated(1));
  EXPECT_FALSE(index.SampleUsed(1, 2));
  index.RecordClientParticipation(1);
  index.RecordSampleUse(1, 2);
  EXPECT_TRUE(index.ClientParticipated(1));
  EXPECT_TRUE(index.SampleUsed(1, 2));
  EXPECT_FALSE(index.SampleUsed(1, 3));
  EXPECT_FALSE(index.ClientParticipated(0));
}

TEST(CompactIndexTest, ClearResets) {
  CompactParticipationIndex index(2, {2, 2});
  index.RecordClientParticipation(0);
  index.RecordSampleUse(0, 1);
  index.Clear();
  EXPECT_FALSE(index.ClientParticipated(0));
  EXPECT_FALSE(index.SampleUsed(0, 1));
}

TEST(CompactIndexTest, SpaceIsBitsNotWords) {
  // The §5.3.2 point: M + M·N bits, dramatically smaller than the full
  // store.
  CompactParticipationIndex index(100, std::vector<int64_t>(100, 1000));
  EXPECT_LE(index.ApproxBytes(), (100 + 100 * 1000) / 8 + 64);
}

}  // namespace
}  // namespace fats
