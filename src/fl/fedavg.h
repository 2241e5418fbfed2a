// Generic FedAvg trainer (McMahan et al. 2017).
//
// This is the learning algorithm underneath the paper's baselines FRS and
// FR²: per round, K distinct clients are selected, each runs E local
// mini-batch SGD iterations from the broadcast global model, and the server
// averages the returned models. It shares the client/server runtimes and the
// deterministic stream addressing with FATS, but keeps no algorithmic state
// beyond the current global model — which is exactly why its unlearning
// story requires retraining (FRS) or approximate correction (FR²).

#ifndef FATS_FL_FEDAVG_H_
#define FATS_FL_FEDAVG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "data/federated_dataset.h"
#include "fl/comm_stats.h"
#include "fl/parallel_clients.h"
#include "fl/train_log.h"
#include "nn/model_zoo.h"
#include "transport/reliable_channel.h"
#include "transport/transport.h"

namespace fats {

struct FedAvgOptions {
  int64_t clients_per_round_k = 2;
  int64_t local_iters_e = 5;
  int64_t batch_b = 4;
  double learning_rate = 0.05;
  uint64_t seed = 1;
  /// Worker threads for per-round client execution; 1 = serial. Parallel
  /// runs are bit-identical to serial (see fl/parallel_clients.h).
  int64_t num_threads = 1;
  /// Transport fault schedule for the trainer's wire (see
  /// transport/fault_injection.h). Empty disables (clean wire); either way
  /// the trained model and log are bitwise-identical — only the retransmit
  /// ledger grows under faults.
  std::string transport_fault_spec;
};

class FedAvgTrainer {
 public:
  /// `data` is borrowed and must outlive the trainer. The model is built
  /// and initialized deterministically from `options.seed`.
  FedAvgTrainer(const ModelSpec& spec, const FedAvgOptions& options,
                const FederatedDataset* data);

  /// Runs `num_rounds` additional rounds, continuing the round counter.
  /// Each executed round is evaluated and appended to the log; rounds run
  /// while `recomputation_mode` is set are flagged in the log.
  void RunRounds(int64_t num_rounds);

  /// Re-initializes the model from `init_seed` and resets the round counter
  /// (history and communication stats are kept — they accumulate total cost,
  /// which is what FRS pays for retraining).
  void ResetModel(uint64_t init_seed);

  double EvaluateTestAccuracy();

  Tensor global_params() { return model_->GetParameters(); }
  void set_global_params(const Tensor& params) {
    model_->SetParameters(params);
  }

  int64_t rounds_completed() const { return rounds_completed_; }
  const TrainLog& log() const { return log_; }
  TrainLog* mutable_log() { return &log_; }
  CommStats& comm_stats() { return comm_stats_; }
  Model* model() { return model_.get(); }
  const FederatedDataset* data() const { return data_; }
  const FedAvgOptions& options() const { return options_; }

  /// Bumps the randomness generation: subsequent rounds draw streams
  /// independent of all earlier ones (used for retraining after deletion).
  void BumpGeneration() { ++generation_; }
  uint64_t generation() const { return generation_; }

  void set_recomputation_mode(bool on) { recomputation_mode_ = on; }

  /// Executes per-round client updates; shared with the unlearning
  /// baselines (FR² recovery rounds) so they reuse the same pool and
  /// replicas under the same determinism contract.
  ParallelClientRunner* client_runner() { return &runner_; }

  /// Transport deliveries that exhausted the retry budget and went through
  /// on the forced final attempt (see transport/reliable_channel.h).
  int64_t transport_forced_deliveries() const {
    return transport_forced_deliveries_;
  }

  /// The reliable channel every model broadcast/upload travels through.
  const transport::ReliableChannel& channel() const { return *channel_; }

 private:
  ModelSpec spec_;
  FedAvgOptions options_;
  const FederatedDataset* data_;
  std::unique_ptr<Model> model_;
  Batch test_batch_;
  int64_t rounds_completed_ = 0;
  uint64_t generation_ = 0;
  bool recomputation_mode_ = false;
  int64_t transport_forced_deliveries_ = 0;
  std::unique_ptr<transport::LocalTransport> wire_;
  std::unique_ptr<transport::ReliableChannel> channel_;
  ParallelClientRunner runner_;
  TrainLog log_;
  CommStats comm_stats_;
};

}  // namespace fats

#endif  // FATS_FL_FEDAVG_H_
