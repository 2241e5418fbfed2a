// Deterministic client dropout: unavailable clients are retried by
// re-executing the exact same local work from the exact same Philox stream
// keys, so dropout perturbs *when* work happens but never *what* is
// computed. The availability schedule itself is a pure function of
// (availability_seed, round, iteration, client, attempt), making dropped
// runs replayable and — crucially — trace-identical to a no-dropout run.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/unlearning_service.h"
#include "fl/availability.h"
#include "test_workloads.h"

namespace fats {
namespace {

constexpr int64_t kTotal = 8;  // R=4, E=2

struct Env {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Env MakeEnv(double dropout_rate, int64_t num_threads = 1,
            uint64_t availability_seed = 11) {
  Env env;
  env.data = TinyImageData(5, 8);
  env.config = TinyFatsConfig(5, 8, 4, 2);
  env.config.dropout_rate = dropout_rate;
  env.config.availability_seed = availability_seed;
  env.config.num_threads = num_threads;
  env.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), env.config, &env.data);
  return env;
}

TEST(AvailabilityScheduleTest, IsDeterministic) {
  AvailabilityConfig config;
  config.dropout_rate = 0.4;
  config.seed = 3;
  AvailabilitySchedule a(config);
  AvailabilitySchedule b(config);
  for (int64_t r = 1; r <= 3; ++r) {
    for (int64_t t = 1; t <= 6; ++t) {
      for (int64_t client = 0; client < 5; ++client) {
        EXPECT_EQ(a.DroppedAttempts(r, t, client),
                  b.DroppedAttempts(r, t, client));
        for (int64_t attempt = 0; attempt < 3; ++attempt) {
          EXPECT_EQ(a.Available(r, t, client, attempt),
                    b.Available(r, t, client, attempt));
        }
      }
    }
  }
}

TEST(AvailabilityScheduleTest, ZeroRateNeverDrops) {
  AvailabilityConfig config;
  config.dropout_rate = 0.0;
  AvailabilitySchedule schedule(config);
  EXPECT_FALSE(schedule.enabled());
  for (int64_t t = 1; t <= 10; ++t) {
    EXPECT_EQ(schedule.DroppedAttempts(1, t, t % 3), 0);
  }
}

TEST(AvailabilityScheduleTest, RetriesAreBoundedByMaxRetries) {
  AvailabilityConfig config;
  config.dropout_rate = 0.95;  // nearly always unavailable
  config.seed = 5;
  config.max_retries = 4;
  AvailabilitySchedule schedule(config);
  bool saw_drop = false;
  for (int64_t t = 1; t <= 20; ++t) {
    for (int64_t client = 0; client < 5; ++client) {
      const int64_t dropped = schedule.DroppedAttempts(2, t, client);
      EXPECT_LE(dropped, config.max_retries);
      saw_drop |= dropped > 0;
      // The attempt at max_retries is always granted.
      EXPECT_TRUE(schedule.Available(2, t, client, config.max_retries));
    }
  }
  EXPECT_TRUE(saw_drop);
}

TEST(DropoutTest, TwoDroppedRunsAreBitIdentical) {
  Env a = MakeEnv(0.3);
  Env b = MakeEnv(0.3);
  a.trainer->Train();
  b.trainer->Train();
  EXPECT_TRUE(a.trainer->global_params().BitwiseEquals(b.trainer->global_params()));
  EXPECT_EQ(a.trainer->dropout_retries(), b.trainer->dropout_retries());
  EXPECT_EQ(a.trainer->log().ToCsv(), b.trainer->log().ToCsv());
  EXPECT_EQ(a.trainer->comm_stats().uplink_bytes(),
            b.trainer->comm_stats().uplink_bytes());
  EXPECT_EQ(a.trainer->comm_stats().downlink_bytes(),
            b.trainer->comm_stats().downlink_bytes());
}

// The heart of the exactness argument: dropping and retrying clients must
// leave the entire training trace — selections, mini-batches, local and
// global models — bit-identical to a run with no dropout at all, because
// retries redraw nothing.
TEST(DropoutTest, DroppedRunMatchesNoDropoutTraceExactly) {
  Env dropped = MakeEnv(0.3);
  Env clean = MakeEnv(0.0);
  dropped.trainer->Train();
  clean.trainer->Train();

  // Enough dropout to mean something: at least 10% of client executions
  // were dropped at least once. (Deterministic given the fixed seeds.)
  ASSERT_GT(dropped.trainer->dropout_retries(), 0);
  const double executions =
      static_cast<double>(dropped.trainer->local_iterations_executed());
  ASSERT_GT(executions, 0.0);
  EXPECT_GE(static_cast<double>(dropped.trainer->dropout_retries()),
            0.10 * executions)
      << "dropout_rate=0.3 should drop well over 10% of executions";
  EXPECT_EQ(clean.trainer->dropout_retries(), 0);

  // Model trajectory and logs match bit for bit.
  EXPECT_TRUE(dropped.trainer->global_params().BitwiseEquals(
      clean.trainer->global_params()));
  EXPECT_EQ(dropped.trainer->log().ToCsv(), clean.trainer->log().ToCsv());

  // The stored trace matches record by record.
  const StateStore& ds = dropped.trainer->store();
  const StateStore& cs = clean.trainer->store();
  ASSERT_EQ(ds.SelectionRounds(), cs.SelectionRounds());
  for (int64_t round : ds.SelectionRounds()) {
    ASSERT_NE(ds.GetClientSelection(round), nullptr);
    ASSERT_NE(cs.GetClientSelection(round), nullptr);
    EXPECT_EQ(*ds.GetClientSelection(round), *cs.GetClientSelection(round))
        << "selection differs in round " << round;
  }
  ASSERT_EQ(ds.MinibatchKeys(), cs.MinibatchKeys());
  for (const auto& [iter, client] : ds.MinibatchKeys()) {
    EXPECT_EQ(*ds.GetMinibatch(iter, client), *cs.GetMinibatch(iter, client))
        << "mini-batch differs at (" << iter << ", " << client << ")";
  }
  ASSERT_EQ(ds.GlobalModelRounds(), cs.GlobalModelRounds());
  for (int64_t round : ds.GlobalModelRounds()) {
    EXPECT_TRUE(
        ds.GetGlobalModel(round)->BitwiseEquals(*cs.GetGlobalModel(round)))
        << "global model differs in round " << round;
  }

  // The retries are visible in the communication ledger: each retry is one
  // extra broadcast of the round's global model.
  EXPECT_GT(dropped.trainer->comm_stats().downlink_bytes(),
            clean.trainer->comm_stats().downlink_bytes());
  EXPECT_EQ(dropped.trainer->comm_stats().uplink_bytes(),
            clean.trainer->comm_stats().uplink_bytes());
}

TEST(DropoutTest, ParallelDroppedRunMatchesSerial) {
  Env serial = MakeEnv(0.3, /*num_threads=*/1);
  Env parallel = MakeEnv(0.3, /*num_threads=*/3);
  serial.trainer->Train();
  parallel.trainer->Train();
  EXPECT_TRUE(serial.trainer->global_params().BitwiseEquals(
      parallel.trainer->global_params()));
  EXPECT_EQ(serial.trainer->dropout_retries(),
            parallel.trainer->dropout_retries());
}

TEST(DropoutTest, UnlearningOnDroppedRunMatchesNoDropout) {
  Env dropped = MakeEnv(0.3);
  Env clean = MakeEnv(0.0);
  dropped.trainer->Train();
  clean.trainer->Train();

  // Pick a sample training actually used so the request forces
  // re-computation (both traces are identical, so one probe suffices).
  SampleRef target{0, 0};
  bool found = false;
  for (int64_t client = 0; client < 5 && !found; ++client) {
    for (int64_t index = 0; index < 8 && !found; ++index) {
      if (clean.trainer->store().EarliestSampleUse({client, index}) > 0) {
        target = {client, index};
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);

  const UnlearningRequest request = {.kind = UnlearningRequest::Kind::kSample,
                                     .sample = target,
                                     .request_iter = kTotal};
  UnlearningService dropped_service(dropped.trainer.get());
  UnlearningService clean_service(clean.trainer.get());
  const int64_t retries_before = dropped.trainer->dropout_retries();
  const int64_t dropped_down_before =
      dropped.trainer->comm_stats().downlink_bytes();
  const int64_t clean_down_before =
      clean.trainer->comm_stats().downlink_bytes();
  Result<ServiceFlushStats> doc = dropped_service.ExecuteStream({request});
  Result<ServiceFlushStats> coc = clean_service.ExecuteStream({request});
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(coc.ok()) << coc.status().ToString();
  EXPECT_EQ(doc->triggered_requests, 1);
  EXPECT_EQ(doc->triggered_requests, coc->triggered_requests);
  EXPECT_EQ(doc->replay_start_iteration, coc->replay_start_iteration);
  // The recomputation runs under the same availability schedule, so even
  // the unlearned models match bit for bit.
  EXPECT_TRUE(dropped.trainer->global_params().BitwiseEquals(
      clean.trainer->global_params()));
  // The replay charges the schedule's retries and their re-broadcasts.
  EXPECT_GT(dropped.trainer->dropout_retries(), retries_before);
  EXPECT_GT(dropped.trainer->comm_stats().downlink_bytes() -
                dropped_down_before,
            clean.trainer->comm_stats().downlink_bytes() - clean_down_before);
}

TEST(DropoutTest, DifferentAvailabilitySeedsStillConverge) {
  // Changing only the availability seed changes which attempts drop but
  // not the computed trajectory.
  Env a = MakeEnv(0.3, 1, /*availability_seed=*/11);
  Env b = MakeEnv(0.3, 1, /*availability_seed=*/77);
  a.trainer->Train();
  b.trainer->Train();
  EXPECT_TRUE(a.trainer->global_params().BitwiseEquals(b.trainer->global_params()));
}

}  // namespace
}  // namespace fats
