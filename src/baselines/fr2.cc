#include "baselines/fr2.h"

#include <cmath>

#include "fl/client.h"
#include "fl/server.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace fats {

Result<ServiceFlushStats> Fr2Unlearner::UnlearnSamples(
    const std::vector<SampleRef>& targets) {
  for (const SampleRef& target : targets) {
    FATS_RETURN_NOT_OK(data_->RemoveSample(target));
  }
  ServiceFlushStats stats = Recover(static_cast<int64_t>(targets.size()));
  stats.sample_requests = stats.requests;
  return stats;
}

Result<ServiceFlushStats> Fr2Unlearner::UnlearnClients(
    const std::vector<int64_t>& targets) {
  for (int64_t target : targets) {
    FATS_RETURN_NOT_OK(data_->RemoveClient(target));
  }
  ServiceFlushStats stats = Recover(static_cast<int64_t>(targets.size()));
  stats.client_requests = stats.requests;
  return stats;
}

ServiceFlushStats Fr2Unlearner::Recover(int64_t requests) {
  Stopwatch timer;
  trainer_->BumpGeneration();
  trainer_->set_recomputation_mode(true);
  for (int64_t r = 0; r < options_.recovery_rounds; ++r) {
    RecoveryRound(r + 1);
  }
  trainer_->set_recomputation_mode(false);

  ServiceFlushStats stats;
  stats.requests = requests;
  stats.triggered_requests = requests;
  stats.recomputed_rounds = options_.recovery_rounds;
  stats.recomputed_iterations =
      options_.recovery_rounds * trainer_->options().local_iters_e;
  // Continues from the deployed model: recovery work, but no replay of the
  // recorded history.
  stats.replayed_rounds = stats.recomputed_rounds;
  stats.replayed_iterations = stats.recomputed_iterations;
  stats.wall_seconds = timer.ElapsedSeconds();
  return stats;
}

void Fr2Unlearner::RecoveryRound(int64_t round) {
  Model* model = trainer_->model();
  const FedAvgOptions& opts = trainer_->options();
  const int64_t model_params = model->NumParameters();

  StreamId sel_id;
  sel_id.purpose = RngPurpose::kClientSampling;
  sel_id.generation = trainer_->generation();
  sel_id.round = static_cast<uint64_t>(1000000 + round);  // recovery phase
  RngStream sel_stream(opts.seed, sel_id);
  const int64_t k = std::min<int64_t>(opts.clients_per_round_k,
                                      data_->num_active_clients());
  std::vector<int64_t> selected =
      ServerRuntime::SampleClientsWithoutReplacement(*data_, k, &sel_stream);
  trainer_->comm_stats().RecordBroadcast(
      static_cast<int64_t>(selected.size()), model_params);

  // Recovery reuses the trainer's client runner: per-client chains run as
  // independent tasks over pre-derived stream keys (the velocity/Fisher
  // accumulators are task-local), and losses/local models are committed in
  // selection order — bit-identical to the serial loop.
  const Tensor global = model->GetParameters();
  const double lr = opts.learning_rate * options_.lr_scale;
  const size_t n_sel = selected.size();
  struct RecoveryChain {
    Tensor params;
    std::vector<double> step_losses;
  };
  std::vector<RecoveryChain> chains(n_sel);
  std::vector<std::vector<uint64_t>> stream_keys(n_sel);
  std::vector<int64_t> batch_sizes(n_sel);
  for (size_t s = 0; s < n_sel; ++s) {
    const int64_t client = selected[s];
    batch_sizes[s] =
        std::min<int64_t>(opts.batch_b, data_->num_active_samples(client));
    stream_keys[s].reserve(static_cast<size_t>(opts.local_iters_e));
    for (int64_t e = 1; e <= opts.local_iters_e; ++e) {
      StreamId batch_id;
      batch_id.purpose = RngPurpose::kMinibatchSampling;
      batch_id.generation = trainer_->generation();
      batch_id.round = static_cast<uint64_t>(1000000 + round);
      batch_id.client = static_cast<uint64_t>(client);
      batch_id.iteration = static_cast<uint64_t>(e);
      stream_keys[s].push_back(DeriveStreamKey(opts.seed, batch_id));
    }
  }
  trainer_->client_runner()->ForEachClient(
      static_cast<int64_t>(n_sel), [&](int64_t task, Model* m) {
        const size_t s = static_cast<size_t>(task);
        const int64_t client = selected[s];
        m->SetParameters(global);
        ClientRuntime runtime(data_, m);
        // Per-client velocity and Fisher-diagonal accumulators (flat
        // vectors).
        Tensor velocity({model_params});
        Tensor fisher({model_params});
        bool fisher_init = false;
        for (int64_t e = 1; e <= opts.local_iters_e; ++e) {
          if (batch_sizes[s] == 0) break;
          RngStream batch_stream(stream_keys[s][static_cast<size_t>(e - 1)]);
          std::vector<int64_t> indices = runtime.SampleMinibatch(
              client, batch_sizes[s], &batch_stream);
          Batch batch = data_->MakeBatch(client, indices);
          chains[s].step_losses.push_back(
              m->ComputeLossAndGradients(batch.inputs, batch.labels));
          Tensor grad = m->GetGradients();
          // Fisher diagonal EMA: F ← β·F + (1−β)·g⊙g.
          float* fisher_data = fisher.data();
          const float* grad_data = grad.data();
          const float beta = static_cast<float>(options_.fisher_ema);
          for (int64_t i = 0; i < model_params; ++i) {
            const float g2 = grad_data[i] * grad_data[i];
            fisher_data[i] =
                fisher_init ? beta * fisher_data[i] + (1.0f - beta) * g2 : g2;
          }
          fisher_init = true;
          // Momentum velocity and preconditioned step:
          // v ← μ·v + g ; θ ← θ − lr · v / (sqrt(F) + damping).
          Tensor params = m->GetParameters();
          float* param_data = params.data();
          float* velocity_data = velocity.data();
          const float mu = static_cast<float>(options_.momentum);
          const float damping = static_cast<float>(options_.damping);
          const float step = static_cast<float>(lr);
          for (int64_t i = 0; i < model_params; ++i) {
            velocity_data[i] = mu * velocity_data[i] + grad_data[i];
            param_data[i] -= step * velocity_data[i] /
                             (std::sqrt(fisher_data[i]) + damping);
          }
          m->SetParameters(params);
        }
        chains[s].params = m->GetParameters();
      });
  std::vector<Tensor> locals;
  locals.reserve(n_sel);
  double loss_sum = 0.0;
  int64_t loss_count = 0;
  for (size_t s = 0; s < n_sel; ++s) {
    for (double loss : chains[s].step_losses) {
      loss_sum += loss;
      ++loss_count;
    }
    locals.push_back(std::move(chains[s].params));
  }
  trainer_->comm_stats().RecordUpload(static_cast<int64_t>(locals.size()),
                                      model_params);
  trainer_->comm_stats().RecordRound();
  if (!locals.empty()) {
    model->SetParameters(ServerRuntime::AverageModels(locals));
  }

  RoundRecord record;
  record.round = trainer_->rounds_completed() + round;
  record.test_accuracy = trainer_->EvaluateTestAccuracy();
  record.mean_local_loss =
      loss_count > 0 ? loss_sum / static_cast<double>(loss_count) : 0.0;
  record.recomputation = true;
  trainer_->mutable_log()->Append(record);
}

}  // namespace fats
