#include "core/compact_unlearner.h"

#include <vector>

#include "util/stopwatch.h"

namespace fats {

namespace {

std::vector<int64_t> SamplesPerClient(const FederatedDataset& data) {
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(data.num_clients()));
  for (int64_t k = 0; k < data.num_clients(); ++k) {
    out.push_back(data.samples_of(k));
  }
  return out;
}

}  // namespace

CompactUnlearner::CompactUnlearner(FatsTrainer* trainer)
    : trainer_(trainer),
      index_(trainer->data()->num_clients(),
             SamplesPerClient(*trainer->data())) {
  RebuildIndexFromStore();
}

void CompactUnlearner::RebuildIndexFromStore() {
  index_.Clear();
  const FatsConfig& config = trainer_->config();
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    const std::vector<int64_t>* selection =
        trainer_->store().GetClientSelection(r);
    if (selection == nullptr) continue;
    for (int64_t client : *selection) {
      index_.RecordClientParticipation(client);
      for (int64_t t = (r - 1) * config.local_iters_e + 1;
           t <= r * config.local_iters_e; ++t) {
        const std::vector<int64_t>* batch =
            trainer_->store().GetMinibatch(t, client);
        if (batch == nullptr) continue;
        for (int64_t index : *batch) {
          index_.RecordSampleUse(client, index);
        }
      }
    }
  }
}

Result<ServiceFlushStats> CompactUnlearner::RetrainFromScratch() {
  const FatsConfig& config = trainer_->config();
  const int64_t t_max = trainer_->trained_through();
  trainer_->TruncateStoreFromIteration(1);
  trainer_->BumpGeneration();
  trainer_->set_recomputation_mode(true);
  trainer_->Run(1, t_max);
  trainer_->set_recomputation_mode(false);
  RebuildIndexFromStore();

  ServiceFlushStats stats;
  stats.triggered_requests = 1;
  stats.recomputed_iterations = t_max;
  stats.recomputed_rounds =
      (t_max + config.local_iters_e - 1) / config.local_iters_e;
  stats.replays = 1;
  stats.replay_start_iteration = 1;
  stats.replayed_iterations = stats.recomputed_iterations;
  stats.replayed_rounds = stats.recomputed_rounds;
  return stats;
}

Result<ServiceFlushStats> CompactUnlearner::UnlearnClient(
    int64_t target, int64_t request_iter) {
  Stopwatch timer;
  if (request_iter < 1 || request_iter > trainer_->trained_through()) {
    return Status::InvalidArgument("request_iter out of range");
  }
  if (target < 0 || target >= trainer_->data()->num_clients()) {
    return Status::OutOfRange("target client out of range");
  }
  if (!trainer_->data()->client_active(target)) {
    return Status::FailedPrecondition("target client already removed");
  }
  const bool participated = index_.ClientParticipated(target);
  FATS_RETURN_NOT_OK(trainer_->data()->RemoveClient(target));
  ServiceFlushStats stats;
  if (participated) {
    FATS_ASSIGN_OR_RETURN(stats, RetrainFromScratch());
  }
  stats.requests = 1;
  stats.client_requests = 1;
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

Result<ServiceFlushStats> CompactUnlearner::UnlearnSample(
    const SampleRef& target, int64_t request_iter) {
  Stopwatch timer;
  if (request_iter < 1 || request_iter > trainer_->trained_through()) {
    return Status::InvalidArgument("request_iter out of range");
  }
  if (!trainer_->data()->sample_active(target.client, target.index)) {
    return Status::FailedPrecondition("target sample already deleted");
  }
  const bool used = index_.SampleUsed(target.client, target.index);
  FATS_RETURN_NOT_OK(trainer_->data()->RemoveSample(target));
  ServiceFlushStats stats;
  if (used) {
    FATS_ASSIGN_OR_RETURN(stats, RetrainFromScratch());
  }
  stats.requests = 1;
  stats.sample_requests = 1;
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace fats
