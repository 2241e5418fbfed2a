// FATS — Federated Averaging with TV-Stability (Algorithm 1).
//
// The trainer executes T = R·E iterations grouped into R communication
// rounds. At each round start the server draws a multiset of K clients
// *with replacement* (the ν(M,K) law of Lemma 1); each distinct selected
// client runs E local mini-batch SGD iterations over uniformly-sampled
// size-b subsets of its active data (the ξ(N,b) law); at round end the
// server averages the local models with multiset multiplicity.
//
// Everything the unlearning algorithms need is recorded in the StateStore:
// P^(t), B_k^(t), θ^(t) (the save(·) calls of Algorithm 1), plus the
// earliest-use dictionaries for O(1) verification. The store keeps history
// at round boundaries only: a local model θ_k^(t) is a pure function of the
// stored θ^(r−1) and the stored mini-batches of round r up to t, so a pass
// that enters mid-round recomputes it instead of loading it (a deviation
// from §5.3.2's full store, see DESIGN.md §4).
//
// One round loop, RunPass(t0, t_end, pass), implements the general entry
// point FATS(t0, T, E, η, ρ_S, ρ_C) for both pass kinds. They differ only
// in where the sampling history comes from: a kRun pass (Run) draws each
// round's selection and each iteration's mini-batches fresh and records
// them; a kReplay pass (ReplayFrom) loads them from the store. Mid-round
// entry, broadcast, local steps, the availability schedule, upload,
// aggregation and the round record are the same code for both, and the
// mid-round prefix rebuild runs the same local-step dispatch as the loop.
//
// The round record a pass appends to the log (and journals) holds the
// round, its mean local loss and whether it was re-computation. It holds no
// test accuracy: evaluation is not part of Algorithm 1, and Theorem 3 does
// not charge for it. The store keeps every round's global model θ^(r), so a
// reader that wants round r's accuracy asks EvaluateRoundAccuracy(r). That
// value is only valid while θ^(r) is on the current trajectory: once
// unlearning replays round r, the stored model is the new one, so a reader
// that wants the curve from before a request evaluates it before flushing.
//
// The trainer is the only owner of the FATS sampling stream keys; the one
// unlearning implementation (core/unlearning_service.h) rewrites history
// only through it. Sample-level unlearning keeps the stored selections,
// re-draws the affected batches with RedrawMinibatch and replays (the SU_r
// transport of Theorem 1's proof). Client-level unlearning truncates the
// store, bumps the generation, re-draws the truncated rounds from the
// changed measure with RedrawRound and replays. The generation
// field makes every stream drawn after a bump independent of the original
// run, which realizes the fresh part of the coupling in Theorem 1, while
// the untouched prefix realizes the reused part.

#ifndef FATS_CORE_FATS_TRAINER_H_
#define FATS_CORE_FATS_TRAINER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/fats_config.h"
#include "data/federated_dataset.h"
#include "fl/availability.h"
#include "fl/comm_stats.h"
#include "fl/parallel_clients.h"
#include "fl/state_store.h"
#include "fl/train_events.h"
#include "fl/train_log.h"
#include "nn/model_zoo.h"
#include "transport/reliable_channel.h"
#include "transport/transport.h"
#include "util/status.h"

namespace fats {

class FatsTrainer {
 public:
  /// `data` is borrowed and must outlive the trainer. Deletions are applied
  /// to `data` externally (by UnlearningService) between runs.
  FatsTrainer(const ModelSpec& spec, const FatsConfig& config,
              FederatedDataset* data);

  /// Fresh training: records the initial model as round 0 and runs
  /// iterations 1..T. Equivalent to TrainUntil(T).
  void Train();

  /// Incremental training: continues from wherever training previously
  /// stopped up to iteration `t_end` (inclusive). The first call records
  /// the initial model. Used to issue unlearning requests mid-training:
  ///   trainer.TrainUntil(t_u);  // train to the request time
  ///   service.Submit(request);   // request_iter = t_u
  ///   service.Flush();           // exact unlearning of the prefix
  ///   trainer.TrainUntil(T);     // continue on the reduced data
  void TrainUntil(int64_t t_end);

  /// Runs iterations [t0, t_end] (Algorithm 1) as one pass of kind `pass`.
  /// t0 must be in [1, T] and t_end in [t0, T]. If t0 is not a round start,
  /// the round's client selection is loaded from the store and the local
  /// models at t0−1 are rebuilt from the stored θ^(r0−1) and mini-batches
  /// (see prefix_steps()). A kRun pass draws the client selections and
  /// mini-batches of [t0, t_end] at the current generation and records
  /// them; a kReplay pass loads them from the store and recomputes only the
  /// model trajectory. Crash recovery resumes an interrupted pass through
  /// this entry point with the pass kind the journal recorded.
  void RunPass(int64_t t0, int64_t t_end, TrainPassKind pass);

  /// A kRun pass: fresh training, or client-level re-computation, where the
  /// selection measure itself changed. The two-argument form supports
  /// pausing mid-training (e.g. to serve an unlearning request at time t_u
  /// and then continue on the reduced data).
  void Run(int64_t t0) { Run(t0, config_.total_iters_t()); }
  void Run(int64_t t0, int64_t t_end) {
    RunPass(t0, t_end, TrainPassKind::kRun);
  }

  /// A kReplay pass against the *stored* sampling history (which sample-
  /// level unlearning has partially re-drawn). This realizes the SU_r
  /// transport of Theorem 1's proof: the selection history ν is unaffected
  /// by a sample deletion and must be reused, not redrawn — redrawing it
  /// would bias the selection marginal and break exactness.
  void ReplayFrom(int64_t t0) { ReplayFrom(t0, trained_through_); }
  void ReplayFrom(int64_t t0, int64_t t_end) {
    RunPass(t0, t_end, TrainPassKind::kReplay);
  }

  /// Highest iteration executed so far (0 before training). Unlearning
  /// requests issued mid-training re-compute only up to this point;
  /// Run(trained_through()+1, ...) continues training afterwards.
  int64_t trained_through() const { return trained_through_; }

  /// Test accuracy of the model the trainer holds (global_params()).
  double EvaluateTestAccuracy();

  /// Test accuracy of the stored global model θ^(round), round in
  /// [0, trained_through() / E]: the value the round loop used to record.
  /// Leaves global_params() bitwise unchanged.
  double EvaluateRoundAccuracy(int64_t round);

  Tensor global_params() { return model_->GetParameters(); }

  StateStore& store() { return store_; }
  const StateStore& store() const { return store_; }
  const TrainLog& log() const { return log_; }
  TrainLog* mutable_log() { return &log_; }
  CommStats& comm_stats() { return comm_stats_; }
  const FatsConfig& config() const { return config_; }
  Model* model() { return model_.get(); }
  FederatedDataset* data() { return data_; }

  int64_t K() const { return k_; }
  int64_t b() const { return b_; }

  /// Makes all subsequently drawn streams independent of earlier ones.
  void BumpGeneration() {
    ++generation_;
    if (sink_ != nullptr) sink_->OnGenerationBump(generation_);
  }
  uint64_t generation() const { return generation_; }

  /// Attaches an observer of every durable state transition (the journaled
  /// session). Borrowed; pass nullptr to detach. The sink sees events after
  /// the in-memory mutation, in commit order, on the calling thread.
  void set_event_sink(TrainEventSink* sink) { sink_ = sink; }
  TrainEventSink* event_sink() { return sink_; }

  /// Truncates the store from `from_iter` onward (client-level unlearning),
  /// notifying the event sink. Unlearning must use this instead of mutating
  /// store() directly so the durable record stays consistent.
  void TruncateStoreFromIteration(int64_t from_iter) {
    store_.TruncateFromIteration(from_iter, config_.local_iters_e);
    if (sink_ != nullptr) sink_->OnTruncate(from_iter);
  }

  /// Re-draws the recorded mini-batch of (t, client) from the client's
  /// current active set at the current generation (sample-level
  /// unlearning's substitution step), notifying the event sink.
  /// FailedPrecondition when the client has no active sample left.
  Status RedrawMinibatch(int64_t t, int64_t client);

  /// Re-draws round `round`'s client selection, then every participant's
  /// mini-batches for the round's iterations up to `t_last`, at the current
  /// generation — the history a kRun pass would record, without computing
  /// any model (client-level unlearning's redraw step). Notifies the event
  /// sink in the order a kRun pass does. FailedPrecondition when a
  /// participant has no active sample left.
  Status RedrawRound(int64_t round, int64_t t_last);

  /// Unlearning-operation brackets, forwarded to the sink. Everything
  /// between Begin and End is atomic under crash recovery.
  void NotifyUnlearnBegin() {
    if (sink_ != nullptr) sink_->OnUnlearnBegin();
  }
  void NotifyUnlearnEnd() {
    if (sink_ != nullptr) sink_->OnUnlearnEnd();
  }

  /// Dropped client executions retried so far (see fl/availability.h).
  int64_t dropout_retries() const { return dropout_retries_; }

  /// Transport deliveries that exhausted the retry budget and went through
  /// on the forced final attempt (the availability-style degradation path,
  /// see transport/reliable_channel.h).
  int64_t transport_forced_deliveries() const {
    return transport_forced_deliveries_;
  }

  /// The reliable channel every model broadcast/upload travels through.
  /// Exposed for ledger introspection (ChannelStats) in tests and benches.
  const transport::ReliableChannel& channel() const { return *channel_; }

  // Checkpoint-restore support (see io/checkpoint.h). These overwrite the
  // trainer's progress markers; use only when restoring a saved state whose
  // store contents match.
  void set_generation(uint64_t generation) { generation_ = generation; }
  void set_trained_through(int64_t t) { trained_through_ = t; }
  /// Rounds executed while this flag is set are marked in the log.
  void set_recomputation_mode(bool on) { recomputation_mode_ = on; }

  /// Total local SGD iterations executed across all runs (compute cost).
  /// Excludes prefix_steps().
  int64_t local_iterations_executed() const {
    return local_iterations_executed_;
  }

  /// Local steps re-run so far to rebuild θ_k^(t0−1) at mid-round pass
  /// entries: at most (E−1)·|participants| per entry.
  int64_t prefix_steps() const { return prefix_steps_; }

  /// Fused round-start batching (on by default): at every round-start
  /// iteration — where all participants provably start their local step
  /// from the broadcast global model — the K clients' forward/backward
  /// GEMMs share one per-layer weight pack, packed once on the main thread
  /// (DESIGN.md §7.6). Results are bit-identical either way; the switch
  /// exists as a diagnostics escape hatch and for A/B exactness tests.
  void set_fused_round_pack(bool on) { fused_round_pack_ = on; }
  bool fused_round_pack() const { return fused_round_pack_; }

 private:
  /// Emits the iteration-commit mark for iteration `t` to the sink, if any.
  void NotifyIterationComplete(int64_t t, int64_t t_end, TrainPassKind pass);

  struct LocalStep {
    Tensor params;
    double loss = 0.0;
  };
  /// STEP 2's dispatch, shared by the pass loop and the mid-round prefix
  /// rebuild: one local SGD step per participant i from
  /// local_params[participants[i]] on *batches[i], executed 1 + dropped[i]
  /// times, on the client runner. `round_start` enables the fused round
  /// pack. Returns the steps in participant order; commits nothing.
  std::vector<LocalStep> RunLocalSteps(
      bool round_start, const std::vector<int64_t>& participants,
      const std::vector<const std::vector<int64_t>*>& batches,
      const std::vector<int64_t>& dropped,
      const std::map<int64_t, Tensor>& local_params);

  /// Moves one model through the wire (direction, round, iteration, client,
  /// seq address the delivery; see transport/reliable_channel.h), charges
  /// the comm ledger, and returns the decoded parameters — bitwise the
  /// encoded ones, which is what keeps wire runs exact.
  Tensor TransferModel(transport::Direction direction, int64_t round,
                       int64_t iteration, int64_t client, uint32_t seq,
                       const transport::EncodedModel& model);

  /// The two FATS sampling draws, keyed by (seed, generation, round,
  /// client, iteration) at the current generation: round `round`'s client
  /// multiset, and client `client`'s size-min(b, active) mini-batch at
  /// iteration `t` (FailedPrecondition when it has no active sample).
  std::vector<int64_t> DrawClientSelection(int64_t round) const;
  Result<std::vector<int64_t>> DrawMinibatch(int64_t t, int64_t client) const;

  ModelSpec spec_;
  FatsConfig config_;
  FederatedDataset* data_;
  std::unique_ptr<Model> model_;
  Tensor initial_params_;
  Batch test_batch_;
  int64_t k_;
  int64_t b_;
  uint64_t generation_ = 0;
  bool recomputation_mode_ = false;
  bool fused_round_pack_ = true;
  int64_t local_iterations_executed_ = 0;
  int64_t trained_through_ = 0;
  int64_t dropout_retries_ = 0;
  int64_t transport_forced_deliveries_ = 0;
  int64_t prefix_steps_ = 0;
  TrainEventSink* sink_ = nullptr;
  AvailabilitySchedule availability_;
  // The wire: every broadcast/upload is serialized, framed, and delivered
  // through the channel (in-process ring buffer today; the channel is the
  // seam where a socket backend drops in).
  std::unique_ptr<transport::LocalTransport> wire_;
  std::unique_ptr<transport::ReliableChannel> channel_;
  ParallelClientRunner runner_;
  StateStore store_;
  TrainLog log_;
  CommStats comm_stats_;
};

}  // namespace fats

#endif  // FATS_CORE_FATS_TRAINER_H_
