// Deterministic parallel execution of per-round client updates.
//
// The FATS/FedAvg trainers run the local-SGD work of each sampled client on
// one shared Model. ParallelClientRunner lifts that loop onto a fixed-size
// worker pool without changing a single bit of the result:
//
//   * Pre-drawn substreams — every random decision a client task makes is
//     drawn from a Philox stream whose key the CALLER derives on the main
//     thread, in the exact order the serial schedule derives them, before
//     dispatch. Stream contents are a pure function of the key, so draw
//     order is independent of completion order.
//   * Private model replicas — each worker owns a Model replica; a task
//     fully overwrites the replica's parameters before computing, so the
//     result depends only on the task's inputs, never on which worker ran
//     it or what ran there before. Each replica carries its own Workspace
//     tensor arena (see nn/workspace.h), so the allocation-free hot path
//     needs no locking: arenas, like replicas, are never shared between
//     workers, and steady-state steps touch the heap not at all.
//   * Ordered reduction — tasks write results into a slot indexed by their
//     position in the participant list; the caller commits the slots (store
//     writes, loss accumulation, model averaging) in that fixed order on
//     the main thread, never in completion order.
//
// Under this contract a run with num_threads = N is bit-identical to the
// serial run for the global models, local models, mini-batch history, and
// round log — which is what keeps parallel execution compatible with the
// exact-unlearning guarantee (a recomputation must reproduce the original
// trajectory exactly; see DESIGN.md §7).

#ifndef FATS_FL_PARALLEL_CLIENTS_H_
#define FATS_FL_PARALLEL_CLIENTS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/model_zoo.h"
#include "util/thread_pool.h"

namespace fats {

class ParallelClientRunner {
 public:
  /// Builds max(1, num_threads) model replicas for `spec` (their init from
  /// `init_seed` is irrelevant: tasks overwrite all parameters before use)
  /// and a pool of num_threads workers. num_threads <= 1 creates no threads
  /// and runs every batch inline — the serial engine of record.
  ParallelClientRunner(const ModelSpec& spec, uint64_t init_seed,
                       int64_t num_threads);

  int64_t num_threads() const { return pool_.num_threads(); }

  /// The runner's worker pool, for other deterministic sharded work on the
  /// driver thread between client batches (e.g. tree aggregation). Callers
  /// must not hold it across a ForEachClient call (ParallelFor is not
  /// reentrant).
  ThreadPool* pool() { return &pool_; }

  /// Runs fn(i, model) for every i in [0, n), where `model` is a replica
  /// private to the executing worker, and blocks until all calls finish.
  /// fn must follow the determinism contract above: read only state frozen
  /// before the call, write only slot i of caller-owned outputs, and draw
  /// randomness only from streams keyed before dispatch.
  void ForEachClient(int64_t n,
                     const std::function<void(int64_t, Model*)>& fn);

 private:
  std::vector<std::unique_ptr<Model>> replicas_;
  ThreadPool pool_;
};

}  // namespace fats

#endif  // FATS_FL_PARALLEL_CLIENTS_H_
