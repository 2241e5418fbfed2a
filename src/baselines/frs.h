// FRS — Federated Retraining from Scratch (baseline, §6.1.4).
//
// The trivially exact unlearning method: delete the targets, re-initialize
// the model, and retrain FedAvg for the full R rounds on the remaining data.
// Maximal communication and computation cost; the benches use it as the
// upper anchor that FATS is compared against. A retrain reports as one
// replay from iteration 1 in ServiceFlushStats.

#ifndef FATS_BASELINES_FRS_H_
#define FATS_BASELINES_FRS_H_

#include <cstdint>
#include <vector>

#include "core/unlearning_service.h"
#include "data/federated_dataset.h"
#include "fl/fedavg.h"
#include "util/status.h"

namespace fats {

class FrsUnlearner {
 public:
  /// `trainer` holds the deployed model; `data` is the (mutable) federated
  /// dataset the trainer reads. Both are borrowed.
  FrsUnlearner(FedAvgTrainer* trainer, FederatedDataset* data)
      : trainer_(trainer), data_(data) {}

  /// Deletes the samples and retrains from scratch for `retrain_rounds`
  /// rounds (pass the original R for the paper's protocol).
  Result<ServiceFlushStats> UnlearnSamples(
      const std::vector<SampleRef>& targets, int64_t retrain_rounds);

  /// Deletes the clients and retrains from scratch.
  Result<ServiceFlushStats> UnlearnClients(const std::vector<int64_t>& targets,
                                           int64_t retrain_rounds);

 private:
  /// Retrains and reports the cost of `requests` deletions, every one of
  /// which triggered the retrain.
  ServiceFlushStats Retrain(int64_t retrain_rounds, int64_t requests);

  FedAvgTrainer* trainer_;
  FederatedDataset* data_;
};

}  // namespace fats

#endif  // FATS_BASELINES_FRS_H_
