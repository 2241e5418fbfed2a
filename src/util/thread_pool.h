// Fixed-size worker pool for deterministic parallel client execution.
//
// This is the ONLY module in the repository allowed to create threads
// (the `raw-thread` rule of fats_analyze, tools/analyze/rules_runtime.cc,
// bans raw threads everywhere else). The pool exposes exactly one
// primitive, ParallelFor, which runs an indexed batch of tasks and blocks
// until all of them finish. Determinism is the caller's contract, not the
// pool's: task i must depend only on state that was frozen before the
// ParallelFor call (pre-derived RNG stream keys, start parameters) and must
// write only slot i of caller-owned output arrays, so results are identical
// regardless of which worker runs which task and in what completion order.
// See DESIGN.md §7 ("deterministic-parallelism contract").
//
// With num_threads <= 1 no threads are ever created and ParallelFor runs
// the tasks inline on the calling thread — the serial engine of record.

#ifndef FATS_UTIL_THREAD_POOL_H_
#define FATS_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace fats {

class ThreadPool {
 public:
  /// Spawns `num_threads` persistent workers (none when num_threads <= 1).
  explicit ThreadPool(int64_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int64_t num_threads() const { return num_threads_; }

  /// Runs fn(i, worker) for every i in [0, n) and returns when all calls
  /// have finished. `worker` is in [0, num_threads) and identifies the
  /// executing worker, so callers can hand each worker a private scratch
  /// resource (e.g. a model replica). Task order across workers is
  /// unspecified; callers must not rely on it (see the determinism contract
  /// above). Not reentrant: fn must not call ParallelFor on this pool.
  void ParallelFor(int64_t n,
                   const std::function<void(int64_t, int64_t)>& fn);

 private:
  void WorkerLoop(int64_t worker);

  const int64_t num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: new batch / shutdown
  std::condition_variable done_cv_;  // signals ParallelFor: batch complete
  // All batch state below is guarded by mu_.
  const std::function<void(int64_t, int64_t)>* fn_ = nullptr;
  int64_t batch_size_ = 0;
  int64_t next_index_ = 0;
  int64_t completed_ = 0;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
};

}  // namespace fats

#endif  // FATS_UTIL_THREAD_POOL_H_
