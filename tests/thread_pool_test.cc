// ThreadPool unit tests. The concurrency cases double as the tsan workload
// for the pool itself (see tools/ci.sh, which runs them under the tsan
// preset).

#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

namespace fats {
namespace {

TEST(ThreadPoolTest, SingleThreadRunsInlineInOrder) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int64_t> order;
  pool.ParallelFor(5, [&](int64_t i, int64_t worker) {
    EXPECT_EQ(worker, 0);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPoolTest, ZeroOrNegativeThreadCountClampsToSerial) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  int64_t runs = 0;
  pool.ParallelFor(3, [&](int64_t, int64_t) { ++runs; });
  EXPECT_EQ(runs, 3);
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&](int64_t, int64_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kTasks = 500;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& hit : hits) hit.store(0);
  pool.ParallelFor(kTasks, [&](int64_t i, int64_t worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_threads());
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SlotWritesNeedNoSynchronization) {
  // The determinism contract: each task writes only its own slot. This is
  // exactly how the trainers use the pool, and it must be race-free.
  ThreadPool pool(4);
  constexpr int64_t kTasks = 200;
  std::vector<int64_t> slots(kTasks, -1);
  pool.ParallelFor(kTasks,
                   [&](int64_t i, int64_t) { slots[static_cast<size_t>(i)] = i * i; });
  for (int64_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(slots[static_cast<size_t>(i)], i * i);
  }
}

TEST(ThreadPoolTest, PerWorkerScratchIsPrivate) {
  // Worker ids partition tasks into private scratch accumulators; their
  // totals must account for every task exactly once.
  ThreadPool pool(3);
  constexpr int64_t kTasks = 300;
  std::vector<int64_t> per_worker(static_cast<size_t>(pool.num_threads()), 0);
  pool.ParallelFor(kTasks, [&](int64_t, int64_t worker) {
    ++per_worker[static_cast<size_t>(worker)];
  });
  int64_t total = 0;
  for (int64_t count : per_worker) total += count;
  EXPECT_EQ(total, kTasks);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const int64_t n = 1 + (round % 7);
    std::vector<int64_t> slots(static_cast<size_t>(n), 0);
    pool.ParallelFor(n, [&](int64_t i, int64_t) {
      slots[static_cast<size_t>(i)] = round + i;
    });
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(slots[static_cast<size_t>(i)], round + i);
    }
  }
}

TEST(ThreadPoolTest, SingleTaskBatchRunsInline) {
  // n == 1 short-circuits to the calling thread even with workers alive.
  ThreadPool pool(4);
  int64_t worker_seen = -1;
  pool.ParallelFor(1, [&](int64_t i, int64_t worker) {
    EXPECT_EQ(i, 0);
    worker_seen = worker;
  });
  EXPECT_EQ(worker_seen, 0);
}

}  // namespace
}  // namespace fats
