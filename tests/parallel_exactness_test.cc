// Serial-vs-parallel exactness: with num_threads > 1 the trainers must
// produce bit-identical results to the serial schedule — same global
// parameters, same recorded state store (selections, minibatches, local
// and global models), same round log, same communication counters. This is
// the acceptance gate for the deterministic-parallelism contract
// (DESIGN.md §7): pre-derived Philox substreams, per-worker model
// replicas, and ordered reduction leave no observable difference.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/fr2.h"
#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "fl/fedavg.h"
#include "test_workloads.h"

namespace fats {
namespace {

struct TrainerRun {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

TrainerRun MakeRun(int64_t num_threads) {
  TrainerRun run;
  run.data = TinyImageData(6, 10);
  run.config = TinyFatsConfig(6, 10, /*rounds=*/3, /*e=*/2);
  run.config.num_threads = num_threads;
  run.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), run.config, &run.data);
  return run;
}

/// Simultaneous deletions of `targets`, all issued at `request_iter`.
std::vector<UnlearningRequest> SampleRequests(
    const std::vector<SampleRef>& targets, int64_t request_iter) {
  std::vector<UnlearningRequest> requests;
  for (const SampleRef& target : targets) {
    requests.push_back({.kind = UnlearningRequest::Kind::kSample,
                        .sample = target,
                        .request_iter = request_iter});
  }
  return requests;
}

void ExpectIdenticalState(FatsTrainer* serial, FatsTrainer* parallel) {
  EXPECT_TRUE(serial->global_params().BitwiseEquals(parallel->global_params()))
      << "global parameters diverged";
  EXPECT_EQ(serial->trained_through(), parallel->trained_through());
  EXPECT_EQ(serial->local_iterations_executed(),
            parallel->local_iterations_executed());
  EXPECT_EQ(serial->generation(), parallel->generation());

  const StateStore& a = serial->store();
  const StateStore& b = parallel->store();
  ASSERT_EQ(a.SelectionRounds(), b.SelectionRounds());
  for (int64_t round : a.SelectionRounds()) {
    EXPECT_EQ(*a.GetClientSelection(round), *b.GetClientSelection(round))
        << "selection of round " << round;
  }
  ASSERT_EQ(a.GlobalModelRounds(), b.GlobalModelRounds());
  for (int64_t round : a.GlobalModelRounds()) {
    EXPECT_TRUE(
        a.GetGlobalModel(round)->BitwiseEquals(*b.GetGlobalModel(round)))
        << "global model of round " << round;
  }
  ASSERT_EQ(a.MinibatchKeys(), b.MinibatchKeys());
  for (const auto& [iter, client] : a.MinibatchKeys()) {
    EXPECT_EQ(*a.GetMinibatch(iter, client), *b.GetMinibatch(iter, client))
        << "minibatch at t=" << iter << " client=" << client;
  }

  const auto& log_a = serial->log().records();
  const auto& log_b = parallel->log().records();
  ASSERT_EQ(log_a.size(), log_b.size());
  for (size_t i = 0; i < log_a.size(); ++i) {
    EXPECT_EQ(log_a[i].round, log_b[i].round);
    // Exact double equality on purpose: losses must accumulate in the same
    // order, so even the last bit agrees.
    EXPECT_EQ(log_a[i].mean_local_loss, log_b[i].mean_local_loss);
    EXPECT_EQ(log_a[i].recomputation, log_b[i].recomputation);
  }
  // Records carry no accuracy; every stored round model must evaluate to
  // the same double on both trainers.
  for (int64_t round : a.GlobalModelRounds()) {
    EXPECT_EQ(serial->EvaluateRoundAccuracy(round),
              parallel->EvaluateRoundAccuracy(round))
        << "accuracy of round " << round;
  }

  EXPECT_EQ(serial->comm_stats().rounds(), parallel->comm_stats().rounds());
  EXPECT_EQ(serial->comm_stats().uplink_bytes(),
            parallel->comm_stats().uplink_bytes());
  EXPECT_EQ(serial->comm_stats().downlink_bytes(),
            parallel->comm_stats().downlink_bytes());
  EXPECT_EQ(serial->comm_stats().messages(),
            parallel->comm_stats().messages());
}

TEST(ParallelExactnessTest, TrainingIsBitIdentical) {
  TrainerRun serial = MakeRun(1);
  TrainerRun parallel = MakeRun(4);
  serial.trainer->Train();
  parallel.trainer->Train();
  ExpectIdenticalState(serial.trainer.get(), parallel.trainer.get());
}

TEST(ParallelExactnessTest, FusedRoundPackIsBitIdentical) {
  // A/B over the round-start shared weight pack (DESIGN.md §7.6): routing
  // the clients' GEMMs through one pre-packed weight buffer must be
  // invisible to every recorded bit, serial and parallel alike — in the
  // forward pass AND in ReplayFrom, which sample unlearning exercises.
  for (int64_t threads : {1, 4}) {
    TrainerRun packed = MakeRun(threads);
    TrainerRun unpacked = MakeRun(threads);
    ASSERT_TRUE(packed.trainer->fused_round_pack()) << "expected default-on";
    unpacked.trainer->set_fused_round_pack(false);
    packed.trainer->Train();
    unpacked.trainer->Train();
    ExpectIdenticalState(unpacked.trainer.get(), packed.trainer.get());

    const std::vector<UnlearningRequest> requests =
        SampleRequests({{0, 0}, {2, 2}}, packed.trainer->trained_through());
    UnlearningService service_p(packed.trainer.get());
    UnlearningService service_u(unpacked.trainer.get());
    auto outcome_p = service_p.ExecuteStream(requests);
    auto outcome_u = service_u.ExecuteStream(requests);
    ASSERT_TRUE(outcome_p.ok()) << outcome_p.status().message();
    ASSERT_TRUE(outcome_u.ok()) << outcome_u.status().message();
    ExpectIdenticalState(unpacked.trainer.get(), packed.trainer.get());
  }
}

TEST(ParallelExactnessTest, SampleUnlearningReplayIsBitIdentical) {
  TrainerRun serial = MakeRun(1);
  TrainerRun parallel = MakeRun(4);
  serial.trainer->Train();
  parallel.trainer->Train();

  // Unlearn a spread of samples so at least one recorded minibatch is hit
  // and ReplayFrom's parallel path executes.
  const std::vector<UnlearningRequest> requests =
      SampleRequests({{0, 0}, {1, 1}, {2, 2}, {3, 3}},
                     serial.trainer->trained_through());
  UnlearningService service_s(serial.trainer.get());
  UnlearningService service_p(parallel.trainer.get());
  auto outcome_s = service_s.ExecuteStream(requests);
  auto outcome_p = service_p.ExecuteStream(requests);
  ASSERT_TRUE(outcome_s.ok()) << outcome_s.status().message();
  ASSERT_TRUE(outcome_p.ok()) << outcome_p.status().message();
  EXPECT_EQ(outcome_s->triggered_requests, outcome_p->triggered_requests);
  EXPECT_EQ(outcome_s->replay_start_iteration,
            outcome_p->replay_start_iteration);
  ExpectIdenticalState(serial.trainer.get(), parallel.trainer.get());
}

TEST(ParallelExactnessTest, ClientUnlearningRerunIsBitIdentical) {
  TrainerRun serial = MakeRun(1);
  TrainerRun parallel = MakeRun(4);
  serial.trainer->Train();
  parallel.trainer->Train();

  // Pick a client that certainly participated: the first selected one.
  const std::vector<int64_t>* first_selection =
      serial.trainer->store().GetClientSelection(1);
  ASSERT_NE(first_selection, nullptr);
  ASSERT_FALSE(first_selection->empty());
  const int64_t target = first_selection->front();

  const UnlearningRequest request = {
      .kind = UnlearningRequest::Kind::kClient,
      .client = target,
      .request_iter = serial.trainer->trained_through()};
  UnlearningService service_s(serial.trainer.get());
  UnlearningService service_p(parallel.trainer.get());
  auto outcome_s = service_s.ExecuteStream({request});
  auto outcome_p = service_p.ExecuteStream({request});
  ASSERT_TRUE(outcome_s.ok()) << outcome_s.status().message();
  ASSERT_TRUE(outcome_p.ok()) << outcome_p.status().message();
  ASSERT_EQ(outcome_s->triggered_requests, 1);
  EXPECT_EQ(outcome_s->triggered_requests, outcome_p->triggered_requests);
  ExpectIdenticalState(serial.trainer.get(), parallel.trainer.get());
}

TEST(ParallelExactnessTest, MidTrainingPauseAndResumeIsBitIdentical) {
  // Pausing mid-round exercises Run's store-reload entry path under the
  // parallel runner.
  TrainerRun serial = MakeRun(1);
  TrainerRun parallel = MakeRun(4);
  serial.trainer->TrainUntil(3);
  parallel.trainer->TrainUntil(3);
  ExpectIdenticalState(serial.trainer.get(), parallel.trainer.get());
  serial.trainer->TrainUntil(6);
  parallel.trainer->TrainUntil(6);
  ExpectIdenticalState(serial.trainer.get(), parallel.trainer.get());
}

TEST(ParallelExactnessTest, FedAvgAndFr2RecoveryAreBitIdentical) {
  FederatedDataset data_s = TinyImageData(6, 10);
  FederatedDataset data_p = TinyImageData(6, 10);
  FedAvgOptions options;
  options.clients_per_round_k = 3;
  options.local_iters_e = 2;
  options.batch_b = 4;
  options.seed = 11;

  FedAvgOptions options_p = options;
  options_p.num_threads = 4;
  FedAvgTrainer serial(TinyModelSpec(), options, &data_s);
  FedAvgTrainer parallel(TinyModelSpec(), options_p, &data_p);
  serial.RunRounds(3);
  parallel.RunRounds(3);
  ASSERT_TRUE(serial.global_params().BitwiseEquals(parallel.global_params()));
  ASSERT_EQ(serial.log().records().size(), parallel.log().records().size());
  for (size_t i = 0; i < serial.log().records().size(); ++i) {
    EXPECT_EQ(serial.log().records()[i].mean_local_loss,
              parallel.log().records()[i].mean_local_loss);
  }

  Fr2Options fr2_options;
  fr2_options.recovery_rounds = 2;
  Fr2Unlearner fr2_s(&serial, &data_s, fr2_options);
  Fr2Unlearner fr2_p(&parallel, &data_p, fr2_options);
  auto outcome_s = fr2_s.UnlearnClients({0});
  auto outcome_p = fr2_p.UnlearnClients({0});
  ASSERT_TRUE(outcome_s.ok()) << outcome_s.status().message();
  ASSERT_TRUE(outcome_p.ok()) << outcome_p.status().message();
  EXPECT_TRUE(serial.global_params().BitwiseEquals(parallel.global_params()))
      << "FR2 recovery diverged between serial and parallel";
}

}  // namespace
}  // namespace fats
