// Space-optimized unlearning (§5.3.2): participation bits + full retrain.
//
// The paper's simplified implementation stores only O(N) participation bits
// per client, O(M) bits at the server, and one model each — no mini-batches,
// local models, or client subsets. Verification still costs O(1); on a hit
// the model is fully retrained from scratch (from the same initial model)
// on the reduced data with fresh randomness, giving the same asymptotic
// unlearning time as Theorem 3.
//
// Exactness caveat (documented in DESIGN.md §4 and measured by
// bench_ablation_exactness):
//   * Client level: EXACT. The no-hit path conditions the selection history
//     on "target never selected", and per round ν(M,K | k_u ∉ P) =
//     ν(M−1,K), so the retained state already has the reduced-federation
//     law; the hit path is an independent fresh draw from it.
//   * Sample level: exact only to second order in ρ_S. The no-hit path
//     conditions the *joint* (selection, batch) history on "X_u never
//     drawn", which deflates the target client's selection marginal
//     (P(k_u selected | no use) < P(k_u selected)); a from-scratch retrain
//     cannot repair that conditioning. The residual TV gap is O(ρ_S²).
//     Exact sample-level unlearning needs the per-batch transport of
//     UnlearningService, which requires the full state store.
//
// Both calls report cost as ServiceFlushStats for one request: a hit is a
// full retrain, `replays = 1` from `replay_start_iteration = 1`.

#ifndef FATS_CORE_COMPACT_UNLEARNER_H_
#define FATS_CORE_COMPACT_UNLEARNER_H_

#include <cstdint>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "fl/state_store.h"
#include "util/status.h"

namespace fats {

class CompactUnlearner {
 public:
  /// Builds the participation-bit index from the trainer's recorded history
  /// (a real compact deployment would populate it during training and keep
  /// nothing else).
  explicit CompactUnlearner(FatsTrainer* trainer);

  /// Client-level unlearning: exact.
  Result<ServiceFlushStats> UnlearnClient(int64_t target,
                                          int64_t request_iter);

  /// Sample-level unlearning: full retrain on a hit; exact up to an
  /// O(ρ_S²) TV residual (see the header comment).
  Result<ServiceFlushStats> UnlearnSample(const SampleRef& target,
                                          int64_t request_iter);

  const CompactParticipationIndex& index() const { return index_; }
  /// Resident bytes of the compact index (§5.3.2 space accounting).
  int64_t IndexBytes() const { return index_.ApproxBytes(); }

 private:
  /// Wipes all recorded history and retrains from the initial model on the
  /// (already reduced) dataset with fresh randomness, then rebuilds the
  /// participation bits.
  Result<ServiceFlushStats> RetrainFromScratch();
  void RebuildIndexFromStore();

  FatsTrainer* trainer_;
  CompactParticipationIndex index_;
};

}  // namespace fats

#endif  // FATS_CORE_COMPACT_UNLEARNER_H_
