// Observation interface for durable training state.
//
// FatsTrainer emits an event at every state transition the exactness
// contract cares about — the save(·) calls of Algorithm 1, iteration
// commits, store truncations, generation bumps, and unlearning-operation
// brackets. A TrainEventSink (the journaled session in io/train_journal.h)
// turns those events into durable records; a trainer with no sink attached
// behaves exactly as before.
//
// The sink sees events *after* the in-memory StateStore mutation they
// describe, in commit order, on the main thread.

#ifndef FATS_FL_TRAIN_EVENTS_H_
#define FATS_FL_TRAIN_EVENTS_H_

#include <cstdint>
#include <vector>

#include "fl/train_log.h"
#include "tensor/tensor.h"

namespace fats {

/// Where a trainer pass (FatsTrainer::RunPass) takes its sampling history
/// from. Recovery must resume an interrupted pass with the same kind: kRun
/// draws the history from streams and records it, kReplay consumes the
/// stored history.
enum class TrainPassKind : uint8_t {
  kRun = 0,
  kReplay = 1,
};

/// Snapshot of trainer progress at an iteration commit. This is the
/// journal's commit point: a crash after the mark is durable costs nothing,
/// a crash before it re-executes the iteration (bit-identically, because
/// every draw is a pure function of its stream key).
struct IterationMark {
  int64_t iteration = 0;       // t just committed
  int64_t pass_end = 0;        // t_end of the enclosing RunPass
  int64_t trained_through = 0; // trainer progress marker after this commit
  uint64_t generation = 0;
  TrainPassKind pass = TrainPassKind::kRun;
  bool recomputation = false;
  // Comm counters after this commit (CommStats snapshot), so a recovered
  // session's accounting matches the uninterrupted run — including the
  // retransmit ledger, which must reproduce exactly under transport faults
  // (the fault schedule is a pure function of its stream address, so a
  // recovery re-execution re-derives the same retries).
  int64_t comm_rounds = 0;
  int64_t comm_uplink_bytes = 0;
  int64_t comm_downlink_bytes = 0;
  int64_t comm_downlink_messages = 0;
  int64_t comm_uplink_messages = 0;
  int64_t comm_retransmits = 0;
  int64_t comm_retransmit_bytes = 0;
  // No round-loss accumulator: a mid-round resume rebuilds the round's
  // prefix (FatsTrainer::RunPass), which re-accumulates its losses.
};

class TrainEventSink {
 public:
  virtual ~TrainEventSink() = default;

  /// P^(r) saved for round r.
  virtual void OnClientSelection(int64_t round,
                                 const std::vector<int64_t>& selection) = 0;
  /// B_k^(t) saved (drawn by a kRun pass or re-drawn by unlearning).
  virtual void OnMinibatch(int64_t iteration, int64_t client,
                           const std::vector<int64_t>& indices) = 0;
  /// θ_k^(t) computed. Write-only: nothing persists it, because a pass
  /// that enters mid-round recomputes it from the stored history.
  virtual void OnLocalModel(int64_t iteration, int64_t client,
                            const Tensor& params) = 0;
  /// θ^(r) saved (round 0 is the initial model).
  virtual void OnGlobalModel(int64_t round, const Tensor& params) = 0;
  /// Round summary appended to the TrainLog.
  virtual void OnRoundRecord(const RoundRecord& record) = 0;
  /// Iteration t fully committed (store + log + comm stats updated).
  virtual void OnIterationComplete(const IterationMark& mark) = 0;
  /// Store truncated from `from_iteration` onward (client-level unlearning).
  virtual void OnTruncate(int64_t from_iteration) = 0;
  /// Stream generation bumped; all later draws use the new value.
  virtual void OnGenerationBump(uint64_t generation) = 0;
  /// An unlearning operation started mutating trainer state. Everything
  /// between Begin and End is atomic under recovery: a crash inside the
  /// bracket rolls the whole operation back.
  virtual void OnUnlearnBegin() = 0;
  virtual void OnUnlearnEnd() = 0;
};

}  // namespace fats

#endif  // FATS_FL_TRAIN_EVENTS_H_
