// FATS-SU / FATS-CU exact unlearning (Algorithms 2 and 3) as a request
// service: the one implementation of both.
//
// Deletion requests are validated and triaged in O(1) against the
// StateStore's inverted participation index at Submit time; Flush then
// applies every pending dataset mutation and history rewrite
// transactionally — in queue order, with a generation bump per request —
// and performs at most ONE model replay, from the earliest iteration any
// pending request affected. A single request is a one-element queue; a
// simultaneous batch is a queue flushed once; a streaming workload is
// ExecuteStream with a coalescing window.
//
// Why one replay is exact: every history rewrite a request induces is
// model-independent, and the trainer performs it. A sample deletion re-draws
// the affected recorded mini-batches (FatsTrainer::RedrawMinibatch) from the
// reduced active set and keeps the selection history — the per-batch SU_r
// transport of Theorem 1's proof (re-drawing the selections too would
// condition the kept prefix on "the target was not used" and bias the
// selection marginal). A client removal truncates the store and re-draws the
// truncated rounds' selections and mini-batches (FatsTrainer::RedrawRound)
// from the changed measure ν(M−1, K). The service builds no stream key and
// computes no batch size; neither rewrite consults model parameters.
// Processing the queue in order therefore produces bit-for-bit the same
// final sampling history as flushing after every request — and the final
// model is a deterministic function of that history, computed by a single
// ReplayFrom(earliest affected iteration) instead of one replay per request.
// (Communication counters differ: that saving is the point.)
//
// Queue semantics: Submit validates against the *pending* state — the
// dataset as it will be once the queue flushes — so a request that would
// fail mid-flush (repeat deletion, deletion on a departing client, a batch
// that empties a client or the federation) is rejected up front and the
// flush itself cannot half-apply. The caller must not mutate the dataset
// or trainer history between Submit and Flush except through this service.
//
// By Lemma 1 the probability that a request triggers re-computation is at
// most min{ρ_S, 1} (sample) or min{ρ_C, 1} (client) per request.

#ifndef FATS_CORE_UNLEARNING_SERVICE_H_
#define FATS_CORE_UNLEARNING_SERVICE_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/fats_trainer.h"
#include "data/federated_dataset.h"
#include "rng/rng_stream.h"
#include "util/status.h"

namespace fats {

/// A single deletion request: one sample (kSample) or one client (kClient),
/// issued at time step t_u = request_iter.
struct UnlearningRequest {
  enum class Kind { kSample, kClient };
  Kind kind = Kind::kSample;
  SampleRef sample = {};     // when kind == kSample
  int64_t client = -1;       // when kind == kClient
  int64_t request_iter = 0;  // t_u
};

/// What unlearning cost: one Flush, a whole stream (summed with
/// Accumulate), or one call of a rival scheme (CompactUnlearner, FRS, FR²).
///
/// Two cost families. The `recomputed_*` fields are the Theorem 3
/// quantities — the span attributable to the Algorithm 2/3 *trigger*
/// (earliest participation at or before request_iter), summed over the
/// triggered requests. The `replay*` fields count the recomputation actually
/// performed, which can differ: a sample whose only recorded uses fall after
/// request_iter does not trigger, yet its batches are still substituted and
/// the model still replayed; and one coalesced replay serves many triggered
/// requests. Reports of total work done must read `replayed_*`.
struct ServiceFlushStats {
  int64_t requests = 0;
  int64_t sample_requests = 0;
  int64_t client_requests = 0;
  /// Requests whose earliest recorded participation was at or before their
  /// request_iter (the Algorithm 2/3 trigger — the Theorem 3 quantity).
  int64_t triggered_requests = 0;
  /// Σ over triggered requests of T − t_trigger + 1 and of the rounds that
  /// span covers (Theorem 3's unlearning time in steps and rounds).
  int64_t recomputed_iterations = 0;
  int64_t recomputed_rounds = 0;
  /// Recorded mini-batches substituted with fresh reduced-measure draws.
  int64_t substituted_batches = 0;
  /// Rounds whose selection + mini-batches were redrawn after a client
  /// removal truncated the store.
  int64_t redrawn_rounds = 0;
  /// Model replays performed: 0 (nothing affected) or 1 per flush.
  int64_t replays = 0;
  /// First iteration of the single coalesced replay (-1 when replays == 0).
  int64_t replay_start_iteration = -1;
  /// Iterations / rounds the replay actually re-executed.
  int64_t replayed_iterations = 0;
  int64_t replayed_rounds = 0;
  /// What the same queue would have replayed processed one request at a
  /// time (sum of per-request replay spans). The coalescing factor is
  /// sequential_replayed_iterations / replayed_iterations.
  int64_t sequential_replayed_iterations = 0;
  /// Local steps the replay re-ran to rebuild θ_k^(t0−1) when it started
  /// mid-round: ≤ (E−1)·K per flush, not counted in replayed_iterations.
  int64_t prefix_steps = 0;
  double wall_seconds = 0.0;

  /// Sums `other` into this; replay_start_iteration becomes the earliest
  /// start of either.
  void Accumulate(const ServiceFlushStats& other) {
    requests += other.requests;
    sample_requests += other.sample_requests;
    client_requests += other.client_requests;
    triggered_requests += other.triggered_requests;
    recomputed_iterations += other.recomputed_iterations;
    recomputed_rounds += other.recomputed_rounds;
    substituted_batches += other.substituted_batches;
    redrawn_rounds += other.redrawn_rounds;
    replays += other.replays;
    if (other.replay_start_iteration != -1 &&
        (replay_start_iteration == -1 ||
         other.replay_start_iteration < replay_start_iteration)) {
      replay_start_iteration = other.replay_start_iteration;
    }
    replayed_iterations += other.replayed_iterations;
    replayed_rounds += other.replayed_rounds;
    sequential_replayed_iterations += other.sequential_replayed_iterations;
    prefix_steps += other.prefix_steps;
    wall_seconds += other.wall_seconds;
  }
};

class UnlearningService {
 public:
  /// O(1) answer to "must we retrain, and from which iteration?".
  struct Triage {
    /// Earliest recorded participation of the target: first use-iteration
    /// of the sample, or first iteration of the client's first
    /// participating round. -1 when the target never participated (the
    /// deletion needs no replay at all).
    int64_t restart_iteration = -1;
    /// Participation at or before request_iter (Algorithm 2/3 trigger).
    bool triggers = false;
  };

  explicit UnlearningService(FatsTrainer* trainer) : trainer_(trainer) {}

  /// Validates the request against the pending state and enqueues it.
  /// O(1). Errors (nothing is enqueued, nothing is mutated):
  ///   InvalidArgument    — request_iter outside [1, trained_through()]
  ///   OutOfRange         — client or sample index out of range
  ///   FailedPrecondition — target already deleted or pending deletion; a
  ///                        sample of a departing client; a deletion that
  ///                        would empty its client's active sample set or
  ///                        remove the last active client
  Status Submit(const UnlearningRequest& request);

  /// O(1) triage against the inverted index; does not validate or enqueue.
  Triage TriageRequest(const UnlearningRequest& request) const;

  int64_t pending() const { return static_cast<int64_t>(queue_.size()); }

  /// Drains the queue: applies every pending mutation and history rewrite
  /// in submit order inside one durable-journal bracket, then replays the
  /// model once from the earliest affected iteration. A model replayed by
  /// Flush is bitwise-identical to flushing after every single request.
  /// No-op on an empty queue.
  Result<ServiceFlushStats> Flush();

  /// Submits every request in order, flushing whenever `coalesce_window`
  /// requests are pending (coalesce_window <= 0: one flush at the end — a
  /// simultaneous batch). Returns the accumulated stats of every flush
  /// (`replays` counts the flushes that replayed). Window 1 processes the
  /// requests one at a time (streaming semantics). A request Submit rejects
  /// fails the call and discards the window it would have joined; windows
  /// flushed before it stay applied. Streaming forgetting policies — e.g.
  /// the SIFU-style P9/P70 client departure sequences — are this with the
  /// policy's request order.
  Result<ServiceFlushStats> ExecuteStream(
      const std::vector<UnlearningRequest>& requests,
      int64_t coalesce_window = 0);

 private:
  struct PairHash {
    size_t operator()(const std::pair<int64_t, int64_t>& key) const {
      uint64_t h = static_cast<uint64_t>(key.first) * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<uint64_t>(key.second) + 0x7F4A7C15ull + (h << 6);
      return static_cast<size_t>(h);
    }
  };

  /// Applies one sample deletion: removes the sample, bumps the
  /// generation, re-draws every affected recorded batch found via the
  /// inverted index. Returns the first re-drawn iteration or -1.
  Result<int64_t> ApplySampleDeletion(const SampleRef& target,
                                      int64_t t_max, ServiceFlushStats* stats);

  /// Applies one client removal: removes the client; when it participated,
  /// truncates the store, bumps the generation, and re-draws the truncated
  /// rounds' history round by round. Returns the restart iteration or -1.
  Result<int64_t> ApplyClientRemoval(int64_t target, int64_t t_max,
                                     ServiceFlushStats* stats);

  /// Empties the queue and the pending-state overlays.
  void ClearPending();

  FatsTrainer* trainer_;
  std::vector<UnlearningRequest> queue_;

  // Pending-state overlays: what the dataset will look like post-flush.
  std::unordered_set<std::pair<int64_t, int64_t>, PairHash> pending_samples_;
  std::unordered_set<int64_t> pending_clients_;
  std::unordered_map<int64_t, int64_t> pending_sample_counts_;
};

/// Draws `w` distinct random active samples across active clients.
std::vector<SampleRef> PickRandomActiveSamples(const FederatedDataset& data,
                                               int64_t w, RngStream* rng);

/// Draws `w` distinct random active clients.
std::vector<int64_t> PickRandomActiveClients(const FederatedDataset& data,
                                             int64_t w, RngStream* rng);

}  // namespace fats

#endif  // FATS_CORE_UNLEARNING_SERVICE_H_
