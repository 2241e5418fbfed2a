#include "baselines/frs.h"

#include "rng/philox.h"
#include "util/stopwatch.h"

namespace fats {

Result<ServiceFlushStats> FrsUnlearner::UnlearnSamples(
    const std::vector<SampleRef>& targets, int64_t retrain_rounds) {
  for (const SampleRef& target : targets) {
    FATS_RETURN_NOT_OK(data_->RemoveSample(target));
  }
  ServiceFlushStats stats =
      Retrain(retrain_rounds, static_cast<int64_t>(targets.size()));
  stats.sample_requests = stats.requests;
  return stats;
}

Result<ServiceFlushStats> FrsUnlearner::UnlearnClients(
    const std::vector<int64_t>& targets, int64_t retrain_rounds) {
  for (int64_t target : targets) {
    FATS_RETURN_NOT_OK(data_->RemoveClient(target));
  }
  ServiceFlushStats stats =
      Retrain(retrain_rounds, static_cast<int64_t>(targets.size()));
  stats.client_requests = stats.requests;
  return stats;
}

ServiceFlushStats FrsUnlearner::Retrain(int64_t retrain_rounds,
                                        int64_t requests) {
  Stopwatch timer;
  // Fresh initialization and fresh randomness: a from-scratch run on the
  // reduced data.
  trainer_->BumpGeneration();
  trainer_->ResetModel(SplitMix64(trainer_->options().seed +
                                  trainer_->generation()));
  trainer_->set_recomputation_mode(true);
  trainer_->RunRounds(retrain_rounds);
  trainer_->set_recomputation_mode(false);

  ServiceFlushStats stats;
  stats.requests = requests;
  stats.triggered_requests = requests;
  stats.recomputed_rounds = retrain_rounds;
  stats.recomputed_iterations =
      retrain_rounds * trainer_->options().local_iters_e;
  stats.replays = 1;
  stats.replay_start_iteration = 1;
  stats.replayed_rounds = stats.recomputed_rounds;
  stats.replayed_iterations = stats.recomputed_iterations;
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace fats
