// FR² — Federated Rapid Retraining (Liu et al., INFOCOM 2022; baseline,
// §6.1.4).
//
// Approximate unlearning: instead of retraining from scratch, FR² continues
// from the deployed model and runs a small number of recovery rounds in
// which clients take diagonal-Fisher-preconditioned steps with momentum on
// their remaining data (the diagonal FIM approximates the Hessian used by
// the paper's AdaHessian variant; momentum stabilizes utility). This is
// cheap but *not* exact: the deleted data's influence is only attenuated,
// which is what the Table 1 membership-inference bench probes. Its cost
// reports as ServiceFlushStats: the recovery rounds are replayed work with
// no replay start (replay_start_iteration = -1), since nothing is rebuilt
// from the recorded history.

#ifndef FATS_BASELINES_FR2_H_
#define FATS_BASELINES_FR2_H_

#include <cstdint>
#include <vector>

#include "core/unlearning_service.h"
#include "data/federated_dataset.h"
#include "fl/fedavg.h"
#include "util/status.h"

namespace fats {

struct Fr2Options {
  /// Recovery rounds run after a deletion (the method's cost knob).
  int64_t recovery_rounds = 5;
  /// Damping added to the Fisher diagonal before inversion. Near a
  /// stationary point the Fisher diagonal is tiny, so the damping floor is
  /// what keeps the preconditioned step bounded (the residual instability
  /// is the fluctuation the paper reports for FR²).
  double damping = 0.25;
  /// Momentum coefficient for the client-side velocity.
  double momentum = 0.9;
  /// Scales the trainer's learning rate during recovery.
  double lr_scale = 0.2;
  /// EMA factor for the Fisher diagonal accumulator.
  double fisher_ema = 0.9;
};

class Fr2Unlearner {
 public:
  Fr2Unlearner(FedAvgTrainer* trainer, FederatedDataset* data,
               const Fr2Options& options)
      : trainer_(trainer), data_(data), options_(options) {}

  Result<ServiceFlushStats> UnlearnSamples(
      const std::vector<SampleRef>& targets);
  Result<ServiceFlushStats> UnlearnClients(
      const std::vector<int64_t>& targets);

 private:
  /// Runs the recovery rounds and reports the cost of `requests` deletions,
  /// every one of which triggered the recovery.
  ServiceFlushStats Recover(int64_t requests);
  /// One FR² recovery round: K clients take E preconditioned-momentum steps
  /// from the global model; the server averages.
  void RecoveryRound(int64_t round);

  FedAvgTrainer* trainer_;
  FederatedDataset* data_;
  Fr2Options options_;
};

}  // namespace fats

#endif  // FATS_BASELINES_FR2_H_
