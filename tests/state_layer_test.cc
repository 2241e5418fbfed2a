// The tiered state layer: HistoryLog tier transitions, SegmentSpiller file
// lifecycle (orphan sweep, reclamation on release), and the StateStore
// property that matters for unlearning — IndicesConsistentWithRecords()
// holds through compress -> spill -> evict -> reload -> truncate, and the
// empty-posting-list guards return sentinels instead of UB.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "fl/state_store.h"
#include "rng/rng_stream.h"
#include "state/history_codec.h"
#include "state/history_log.h"
#include "state/segment_spill.h"
#include "tensor/tensor.h"

namespace fats {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

int64_t CountSegFiles(const std::string& dir) {
  int64_t n = 0;
  if (!fs::exists(dir)) return 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("seg-", 0) == 0) ++n;
  }
  return n;
}

std::vector<int64_t> ListFor(int64_t k1, int64_t k2) {
  return {k1 * 100 + k2, k1 * 100 + k2 + 1, k1 * 100 + k2 + 7};
}

// --- HistoryLog ---

TEST(HistoryLogTest, ReadsBackAcrossAllTiers) {
  const std::string dir = FreshDir("histlog_tiers");
  state::SegmentSpiller spiller({dir, /*segment_target_bytes=*/256});
  ASSERT_TRUE(spiller.Open().ok());

  state::HistoryLogOptions options;
  options.block_span = 4;
  options.max_open_blocks = 1;
  options.resident_sealed_blocks = 1;
  options.decoded_cache_blocks = 2;
  options.spiller = &spiller;
  state::HistoryLog log(options);

  const int64_t iters = 40;
  for (int64_t t = 1; t <= iters; ++t) {
    for (int64_t k = 0; k < 3; ++k) {
      EXPECT_FALSE(log.Save(t, k, ListFor(t, k)));
    }
  }
  // Tiny budgets with 10 blocks' worth of keys: all three tiers populated.
  EXPECT_EQ(log.spill_errors(), 0);
  EXPECT_GE(log.num_spilled_blocks(), 1);
  EXPECT_GE(log.num_sealed_blocks() + log.num_spilled_blocks(), 8);
  EXPECT_GE(spiller.live_blocks(), 1);

  for (int64_t t = 1; t <= iters; ++t) {
    for (int64_t k = 0; k < 3; ++k) {
      const std::vector<int64_t>* got = log.Get(t, k);
      ASSERT_NE(got, nullptr) << "t=" << t << " k=" << k;
      EXPECT_EQ(*got, ListFor(t, k)) << "t=" << t << " k=" << k;
    }
  }
  EXPECT_EQ(log.Get(iters + 1, 0), nullptr);
  EXPECT_EQ(log.Get(1, 99), nullptr);
}

TEST(HistoryLogTest, SubstitutionReopensColdBlocks) {
  const std::string dir = FreshDir("histlog_subst");
  state::SegmentSpiller spiller({dir, 256});
  ASSERT_TRUE(spiller.Open().ok());
  state::HistoryLogOptions options;
  options.block_span = 2;
  options.max_open_blocks = 1;
  options.resident_sealed_blocks = 0;
  options.spiller = &spiller;
  state::HistoryLog log(options);

  for (int64_t t = 1; t <= 20; ++t) log.Save(t, 0, ListFor(t, 0));
  ASSERT_GE(log.num_spilled_blocks(), 1);

  // Substitute a record whose block is cold: FATS-SU's b' != b rewrite.
  std::vector<int64_t> replaced;
  EXPECT_TRUE(log.Save(3, 0, {777}, &replaced));
  EXPECT_EQ(replaced, ListFor(3, 0));
  ASSERT_NE(log.Get(3, 0), nullptr);
  EXPECT_EQ(*log.Get(3, 0), (std::vector<int64_t>{777}));
  // Neighbors in the reopened block and records in other blocks survive.
  EXPECT_EQ(*log.Get(4, 0), ListFor(4, 0));
  EXPECT_EQ(*log.Get(20, 0), ListFor(20, 0));
}

TEST(HistoryLogTest, TruncateFromVisitsAndReleasesSpill) {
  const std::string dir = FreshDir("histlog_trunc");
  state::SegmentSpiller spiller({dir, 128});
  ASSERT_TRUE(spiller.Open().ok());
  state::HistoryLogOptions options;
  options.block_span = 4;
  options.max_open_blocks = 1;
  options.resident_sealed_blocks = 0;
  options.spiller = &spiller;
  state::HistoryLog log(options);

  for (int64_t t = 1; t <= 32; ++t) log.Save(t, 0, ListFor(t, 0));
  const int64_t spilled_before = spiller.live_blocks();
  ASSERT_GE(spilled_before, 2);

  // Truncate from a mid-block boundary: straddle block keeps t < 10.
  std::vector<int64_t> erased;
  log.TruncateFrom(10, [&erased](int64_t t, int64_t k,
                                 const std::vector<int64_t>& v) {
    erased.push_back(t);
    EXPECT_EQ(v, ListFor(t, k)) << "visitor saw a corrupted record";
  });
  EXPECT_EQ(erased.size(), 23u);  // t = 10..32
  for (int64_t t = 1; t <= 9; ++t) {
    ASSERT_NE(log.Get(t, 0), nullptr) << "t=" << t;
    EXPECT_EQ(*log.Get(t, 0), ListFor(t, 0));
  }
  for (int64_t t = 10; t <= 32; ++t) EXPECT_EQ(log.Get(t, 0), nullptr);
  // Whole truncated blocks dropped their spill refs.
  EXPECT_LT(spiller.live_blocks(), spilled_before);

  // Re-train over the truncated range: the log accepts fresh writes.
  for (int64_t t = 10; t <= 32; ++t) log.Save(t, 0, {t});
  EXPECT_EQ(*log.Get(32, 0), (std::vector<int64_t>{32}));
}

TEST(HistoryLogTest, WorksWithoutSpillerCompressedOnly) {
  state::HistoryLogOptions options;
  options.block_span = 4;
  options.max_open_blocks = 1;
  options.resident_sealed_blocks = 0;  // no spiller: blobs stay resident
  state::HistoryLog log(options);
  for (int64_t t = 1; t <= 20; ++t) log.Save(t, 0, ListFor(t, 0));
  EXPECT_EQ(log.num_spilled_blocks(), 0);
  EXPECT_GE(log.num_sealed_blocks(), 3);
  for (int64_t t = 1; t <= 20; ++t) {
    ASSERT_NE(log.Get(t, 0), nullptr);
    EXPECT_EQ(*log.Get(t, 0), ListFor(t, 0));
  }
}

// --- SegmentSpiller ---

TEST(SegmentSpillerTest, RoundTripsAndValidatesFrames) {
  const std::string dir = FreshDir("spill_roundtrip");
  state::SegmentSpiller spiller({dir, 1 << 20});
  ASSERT_TRUE(spiller.Open().ok());
  const std::string payload = "state layer payload \x01\x02\x00 bytes";
  auto ref = spiller.Write(payload);
  ASSERT_TRUE(ref.ok()) << ref.status().message();
  auto view = spiller.Read(*ref);
  ASSERT_TRUE(view.ok()) << view.status().message();
  EXPECT_EQ(*view, payload);
}

TEST(SegmentSpillerTest, SweepsOrphansOnOpen) {
  const std::string dir = FreshDir("spill_orphans");
  fs::create_directories(dir);
  // A stale segment from a "crashed" prior process.
  { std::FILE* f = std::fopen((dir + "/seg-00000042").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("stale", f);
    std::fclose(f); }
  // An unrelated file the sweep must leave alone.
  { std::FILE* f = std::fopen((dir + "/journal.fatsj").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f); }
  state::SegmentSpiller spiller({dir, 1 << 20});
  ASSERT_TRUE(spiller.Open().ok());
  EXPECT_EQ(spiller.orphans_swept(), 1);
  EXPECT_EQ(CountSegFiles(dir), 0);
  EXPECT_TRUE(fs::exists(dir + "/journal.fatsj"));
}

TEST(SegmentSpillerTest, ReclaimsFilesWhenBlocksReleased) {
  const std::string dir = FreshDir("spill_reclaim");
  // Small target so every few blocks rotate to a new file.
  state::SegmentSpiller spiller({dir, 64});
  ASSERT_TRUE(spiller.Open().ok());
  std::vector<state::SegmentSpiller::BlockRef> refs;
  const std::string payload(48, 'x');
  for (int i = 0; i < 8; ++i) {
    auto ref = spiller.Write(payload);
    ASSERT_TRUE(ref.ok());
    refs.push_back(*ref);
  }
  const int64_t files_at_peak = spiller.num_segment_files();
  ASSERT_GE(files_at_peak, 4);
  // Releasing all blocks reclaims every file except (at most) the current
  // append target.
  for (const auto& ref : refs) spiller.Release(ref);
  EXPECT_EQ(spiller.live_blocks(), 0);
  EXPECT_LE(spiller.num_segment_files(), 1);
  EXPECT_LE(CountSegFiles(dir), 1);
  EXPECT_GE(spiller.files_reclaimed(), files_at_peak - 1);
}

TEST(SegmentSpillerTest, DetectsCorruptFrames) {
  const std::string dir = FreshDir("spill_corrupt");
  state::SegmentSpiller spiller({dir, 1 << 20});
  ASSERT_TRUE(spiller.Open().ok());
  auto ref = spiller.Write("precious history block");
  ASSERT_TRUE(ref.ok());
  // Read once to prove the frame is good, then flip one payload byte on
  // disk behind the spiller's back.
  ASSERT_TRUE(spiller.Read(*ref).ok());
  std::string path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    path = entry.path().string();
  }
  ASSERT_FALSE(path.empty());
  { std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // Past magic(8) + version(4) + len(4) + crc(4): first payload byte.
    ASSERT_EQ(std::fseek(f, 20, SEEK_SET), 0);
    std::fputc('X', f);
    std::fclose(f); }
  EXPECT_FALSE(spiller.Read(*ref).ok());
}

TEST(SegmentSpillerTest, ClearDeletesEverything) {
  const std::string dir = FreshDir("spill_clear");
  state::SegmentSpiller spiller({dir, 64});
  ASSERT_TRUE(spiller.Open().ok());
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(spiller.Write("payload").ok());
  spiller.Clear();
  EXPECT_EQ(spiller.live_blocks(), 0);
  EXPECT_EQ(CountSegFiles(dir), 0);
}

// --- StateStore on the tiered layer ---

StateStoreOptions TinyStoreOptions(const std::string& dir) {
  StateStoreOptions options;
  options.block_iters = 4;
  options.resident_sealed_blocks = 1;
  options.decoded_cache_blocks = 2;
  options.spill_dir = dir;
  options.segment_target_bytes = 256;
  return options;
}

// Drives a store through a FATS-shaped history and checks the inverted
// indices stay consistent at every phase of the tier lifecycle.
TEST(StateStorePropertyTest, IndicesConsistentAcrossTierLifecycle) {
  const std::string dir = FreshDir("store_property");
  StateStore store(TinyStoreOptions(dir));
  const int64_t e = 2;

  StreamId id;
  id.purpose = RngPurpose::kPartition;
  RngStream rng(99, id);
  const int64_t rounds = 24;  // 48 iterations = 12 blocks at span 4
  for (int64_t r = 1; r <= rounds; ++r) {
    std::vector<int64_t> selection;
    for (int64_t j = 0; j < 2; ++j) {
      selection.push_back(static_cast<int64_t>(rng.UniformInt(6)));
    }
    store.SaveClientSelection(r, selection);
    for (int64_t i = 1; i <= e; ++i) {
      const int64_t t = (r - 1) * e + i;
      for (int64_t client : selection) {
        std::vector<int64_t> batch;
        for (int64_t j = 0; j < 3; ++j) {
          batch.push_back(static_cast<int64_t>(rng.UniformInt(10)));
        }
        store.SaveMinibatch(t, client, batch);
      }
    }
    store.SaveGlobalModel(r, Tensor({3}, {0.5f, 0.5f, 0.5f}));
    if (r % 6 == 0) {
      // Mid-history audit: compress/spill is already underway.
      ASSERT_TRUE(store.IndicesConsistentWithRecords()) << "round " << r;
    }
  }
  ASSERT_GT(store.SpilledBytes(), 0) << "workload never reached the tier "
                                        "the test exists to exercise";
  ASSERT_TRUE(store.IndicesConsistentWithRecords());

  // Substitute a cold minibatch (what FATS-SU does: b' replaces b at the
  // same key), then re-audit.
  const int64_t cold_client = (*store.GetClientSelection(2))[0];
  store.SaveMinibatch(3, cold_client, {0, 1, 2});
  ASSERT_TRUE(store.IndicesConsistentWithRecords());

  store.TruncateFromIteration(/*from_iter=*/19, e);
  ASSERT_TRUE(store.IndicesConsistentWithRecords());
  for (int64_t t = 19; t <= rounds * e; ++t) {
    for (int64_t k = 0; k < 6; ++k) {
      EXPECT_EQ(store.GetMinibatch(t, k), nullptr);
    }
  }

  // Everything before the cut is still intact and consistent.
  ASSERT_TRUE(store.IndicesConsistentWithRecords());
  store.Clear();
  ASSERT_TRUE(store.IndicesConsistentWithRecords());
  EXPECT_EQ(store.SpilledBytes(), 0);
}

TEST(StateStoreGuardsTest, EmptyPostingListsReturnSentinels) {
  const std::string dir = FreshDir("store_guards");
  StateStore store(TinyStoreOptions(dir));
  // Never-recorded sample/client: sentinel, not UB.
  EXPECT_EQ(store.EarliestSampleUse({0, 0}), -1);
  EXPECT_EQ(store.EarliestClientRound(0), -1);
  EXPECT_EQ(store.SampleUses({0, 0}), nullptr);
  EXPECT_EQ(store.ClientRounds(0), nullptr);

  // Recorded, then truncated to empty: the posting list exists but has no
  // entries — the guard must treat it exactly like a missing one.
  store.SaveClientSelection(1, {2});
  store.SaveMinibatch(1, 2, {5, 6});
  ASSERT_EQ(store.EarliestSampleUse({2, 5}), 1);
  ASSERT_EQ(store.EarliestClientRound(2), 1);
  store.TruncateFromIteration(1, /*local_iters_e=*/1);
  EXPECT_EQ(store.EarliestSampleUse({2, 5}), -1);
  EXPECT_EQ(store.EarliestClientRound(2), -1);
  EXPECT_EQ(store.SampleUses({2, 5}), nullptr);
  EXPECT_EQ(store.ClientRounds(2), nullptr);
  ASSERT_TRUE(store.IndicesConsistentWithRecords());
}

TEST(StateStoreSpillTest, TruncateAndRetrainReusesSegmentFiles) {
  const std::string dir = FreshDir("store_reuse");
  const int64_t e = 2;
  StateStoreOptions options = TinyStoreOptions(dir);
  int64_t files_after_first_cycle = -1;
  {
    StateStore store(options);
    auto run_history = [&store, e](int64_t from_round, int64_t to_round) {
      for (int64_t r = from_round; r <= to_round; ++r) {
        store.SaveClientSelection(r, {0, 1});
        for (int64_t i = 1; i <= e; ++i) {
          const int64_t t = (r - 1) * e + i;
          store.SaveMinibatch(t, 0, {t % 5, t % 5 + 1});
          store.SaveMinibatch(t, 1, {t % 7});
        }
        store.SaveGlobalModel(r, Tensor({2}, {0.1f, 0.2f}));
      }
    };
    run_history(1, 30);
    ASSERT_GT(store.SpilledBytes(), 0);

    // Repeated truncate-and-retrain cycles (the unlearning loop). Without
    // the release-on-truncate contract each cycle would leak the truncated
    // range's segment files and the count would grow cycle over cycle.
    for (int cycle = 0; cycle < 5; ++cycle) {
      store.TruncateFromIteration(21, e);
      run_history(11, 30);
      ASSERT_TRUE(store.IndicesConsistentWithRecords()) << "cycle " << cycle;
      if (cycle == 0) files_after_first_cycle = CountSegFiles(dir);
    }
    EXPECT_LE(CountSegFiles(dir), files_after_first_cycle + 1)
        << "segment files grew across truncate-retrain cycles: leak";
  }
  // Store destruction releases every segment file.
  EXPECT_EQ(CountSegFiles(dir), 0);
}

}  // namespace
}  // namespace fats
