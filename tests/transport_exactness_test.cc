// The transport exactness contract (DESIGN.md §7.7): FATS trained over a
// wire that drops 20% of frames, bit-flips 5%, and duplicates 5% must
// produce a model, training log, and state store bitwise-identical to the
// fault-free run — only the retransmit ledger may grow. The recovery
// protocol (CRC-reject + deterministic retry/backoff, dedup by seq) redraws
// nothing and re-sends frozen frames, so faults perturb *when* bytes move
// but never *what* arrives. The same holds composed with client dropout,
// under unlearning re-computation, and across a durable crash-recovery
// cycle (the journal carries the retransmit counters).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "core/unlearning_service.h"
#include "fl/fedavg.h"
#include "io/train_journal.h"
#include "test_workloads.h"

namespace fats {
namespace {

constexpr int64_t kTotal = 8;  // R=4, E=2

// The headline fault mix from the issue: 20% drop, 5% corrupt, 5% duplicate.
constexpr const char* kLossySpec =
    "drop=0.2,corrupt=0.05,duplicate=0.05,seed=4";

struct Env {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Env MakeEnv(const std::string& transport_faults, double dropout_rate = 0.0) {
  Env env;
  env.data = TinyImageData(5, 8);
  env.config = TinyFatsConfig(5, 8, 4, 2);
  env.config.transport_fault_spec = transport_faults;
  env.config.dropout_rate = dropout_rate;
  env.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), env.config, &env.data);
  return env;
}

// Full-trace comparison: model, log, selections, mini-batches, local and
// global models, and the clean side of the comm ledger.
void ExpectTraceIdentical(FatsTrainer* faulty, FatsTrainer* clean) {
  EXPECT_TRUE(faulty->global_params().BitwiseEquals(clean->global_params()));
  EXPECT_EQ(faulty->log().ToCsv(), clean->log().ToCsv());

  const StateStore& fs = faulty->store();
  const StateStore& cs = clean->store();
  ASSERT_EQ(fs.SelectionRounds(), cs.SelectionRounds());
  for (int64_t round : fs.SelectionRounds()) {
    ASSERT_NE(fs.GetClientSelection(round), nullptr);
    EXPECT_EQ(*fs.GetClientSelection(round), *cs.GetClientSelection(round))
        << "selection differs in round " << round;
  }
  ASSERT_EQ(fs.MinibatchKeys(), cs.MinibatchKeys());
  for (const auto& [iter, client] : fs.MinibatchKeys()) {
    EXPECT_EQ(*fs.GetMinibatch(iter, client), *cs.GetMinibatch(iter, client))
        << "mini-batch differs at (" << iter << ", " << client << ")";
  }
  ASSERT_EQ(fs.GlobalModelRounds(), cs.GlobalModelRounds());
  for (int64_t round : fs.GlobalModelRounds()) {
    EXPECT_TRUE(
        fs.GetGlobalModel(round)->BitwiseEquals(*cs.GetGlobalModel(round)))
        << "global model differs in round " << round;
  }

  // The clean side of the ledger is untouched by faults: same logical
  // messages, same payload bytes. (This is what keeps the paper's Fig. 2
  // communication totals valid on a lossy wire.)
  EXPECT_EQ(faulty->comm_stats().downlink_bytes(),
            clean->comm_stats().downlink_bytes());
  EXPECT_EQ(faulty->comm_stats().uplink_bytes(),
            clean->comm_stats().uplink_bytes());
  EXPECT_EQ(faulty->comm_stats().downlink_messages(),
            clean->comm_stats().downlink_messages());
  EXPECT_EQ(faulty->comm_stats().uplink_messages(),
            clean->comm_stats().uplink_messages());
  EXPECT_EQ(faulty->comm_stats().rounds(), clean->comm_stats().rounds());
}

TEST(TransportExactnessTest, LossyWireMatchesCleanTraceExactly) {
  Env faulty = MakeEnv(kLossySpec);
  Env clean = MakeEnv("");
  faulty.trainer->Train();
  clean.trainer->Train();

  // The faults actually bit: frames were dropped, corrupted, duplicated.
  const transport::ChannelStats& stats = faulty.trainer->channel().stats();
  ASSERT_GT(stats.retransmits, 0) << "fault mix injected nothing";
  EXPECT_GT(stats.timeouts, 0) << "no frame was ever dropped";
  EXPECT_GT(stats.crc_rejects, 0) << "no frame was ever corrupted";
  EXPECT_GT(stats.duplicates_discarded, 0) << "no duplicate was discarded";
  EXPECT_EQ(clean.trainer->channel().stats().retransmits, 0);

  ExpectTraceIdentical(faulty.trainer.get(), clean.trainer.get());

  // Only the retransmit ledger grew.
  EXPECT_GT(faulty.trainer->comm_stats().retransmit_bytes(), 0);
  EXPECT_GT(faulty.trainer->comm_stats().retransmits(), 0);
  EXPECT_EQ(clean.trainer->comm_stats().retransmit_bytes(), 0);
  EXPECT_EQ(clean.trainer->comm_stats().retransmits(), 0);
}

TEST(TransportExactnessTest, TwoLossyRunsShareTheExactRetransmitLedger) {
  Env a = MakeEnv(kLossySpec);
  Env b = MakeEnv(kLossySpec);
  a.trainer->Train();
  b.trainer->Train();
  EXPECT_TRUE(
      a.trainer->global_params().BitwiseEquals(b.trainer->global_params()));
  EXPECT_EQ(a.trainer->comm_stats().retransmits(),
            b.trainer->comm_stats().retransmits());
  EXPECT_EQ(a.trainer->comm_stats().retransmit_bytes(),
            b.trainer->comm_stats().retransmit_bytes());
  EXPECT_EQ(a.trainer->channel().stats().attempts,
            b.trainer->channel().stats().attempts);
  EXPECT_EQ(a.trainer->channel().stats().backoff_units,
            b.trainer->channel().stats().backoff_units);
}

TEST(TransportExactnessTest, FaultsComposedWithDropoutStillMatchClean) {
  // 30% client dropout on top of the 20%-loss wire: the two fault layers
  // retry through independent deterministic schedules and must compose.
  // The computed trace must stay bitwise that of a run with no wire faults
  // and no dropout at all; the *ledger* baseline is the dropout-only run,
  // since dropout legitimately re-broadcasts (extra clean downlink), while
  // wire faults may only add retransmits on top of that.
  Env faulty = MakeEnv(kLossySpec, /*dropout_rate=*/0.3);
  Env dropout_only = MakeEnv("", /*dropout_rate=*/0.3);
  Env undisturbed = MakeEnv("", /*dropout_rate=*/0.0);
  faulty.trainer->Train();
  dropout_only.trainer->Train();
  undisturbed.trainer->Train();
  ASSERT_GT(faulty.trainer->dropout_retries(), 0) << "dropout never bit";
  ASSERT_GT(faulty.trainer->channel().stats().retransmits, 0)
      << "wire faults never bit";
  ExpectTraceIdentical(faulty.trainer.get(), dropout_only.trainer.get());
  EXPECT_TRUE(faulty.trainer->global_params().BitwiseEquals(
      undisturbed.trainer->global_params()));
  EXPECT_EQ(faulty.trainer->log().ToCsv(),
            undisturbed.trainer->log().ToCsv());
  EXPECT_GT(faulty.trainer->comm_stats().retransmit_bytes(), 0);
  EXPECT_EQ(dropout_only.trainer->comm_stats().retransmit_bytes(), 0);
}

TEST(TransportExactnessTest, UnlearningOverTheLossyWireMatchesClean) {
  Env faulty = MakeEnv(kLossySpec);
  Env clean = MakeEnv("");
  faulty.trainer->Train();
  clean.trainer->Train();

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
  UnlearningService faulty_service(faulty.trainer.get());
  UnlearningService clean_service(clean.trainer.get());
  Result<ServiceFlushStats> foc = faulty_service.ExecuteStream({request});
  Result<ServiceFlushStats> coc = clean_service.ExecuteStream({request});
  ASSERT_TRUE(foc.ok()) << foc.status().ToString();
  ASSERT_TRUE(coc.ok()) << coc.status().ToString();
  EXPECT_EQ(foc->triggered_requests, 1);
  EXPECT_EQ(foc->triggered_requests, coc->triggered_requests);
  EXPECT_EQ(foc->replay_start_iteration, coc->replay_start_iteration);
  EXPECT_TRUE(faulty.trainer->global_params().BitwiseEquals(
      clean.trainer->global_params()));
}

TEST(TransportExactnessTest, RetryExhaustionDegradesIntoForcedDelivery) {
  // Near-total loss with a tiny retry budget: deliveries are forced through
  // on the final attempt (the availability-style degradation path), and the
  // result is still bitwise exact.
  Env exhausted = MakeEnv("drop=0.97,seed=3,max_retries=2");
  Env clean = MakeEnv("");
  exhausted.trainer->Train();
  clean.trainer->Train();
  ASSERT_GT(exhausted.trainer->transport_forced_deliveries(), 0)
      << "retry budget was never exhausted";
  EXPECT_GT(exhausted.trainer->channel().stats().forced_deliveries, 0);
  ExpectTraceIdentical(exhausted.trainer.get(), clean.trainer.get());
}

TEST(TransportExactnessTest, CrashRecoveryReproducesTheRetransmitLedger) {
  // A lossy durable run, interrupted and recovered, must land on the same
  // ledger as an uninterrupted lossy run: the journal's progress marks
  // carry the retransmit counters, and re-execution re-derives the same
  // fault schedule for the replayed suffix.
  const std::string ckpt = testing::TempDir() + "/tx_exact.ckpt";
  const std::string jrn = testing::TempDir() + "/tx_exact.jrn";
  for (const std::string& p : {ckpt, ckpt + ".tmp", jrn, jrn + ".tmp"}) {
    std::remove(p.c_str());
  }

  Env uninterrupted = MakeEnv(kLossySpec);
  uninterrupted.trainer->Train();
  ASSERT_GT(uninterrupted.trainer->comm_stats().retransmits(), 0);

  {
    Env first = MakeEnv(kLossySpec);
    Result<std::unique_ptr<DurableTrainingSession>> session =
        DurableTrainingSession::Open(ckpt, jrn, first.trainer.get());
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    first.trainer->TrainUntil(kTotal / 2);
    ASSERT_TRUE((*session)->status().ok());
  }  // Session closes mid-training: the journal holds the half-run.

  Env recovered = MakeEnv(kLossySpec);
  Result<std::unique_ptr<DurableTrainingSession>> session =
      DurableTrainingSession::Open(ckpt, jrn, recovered.trainer.get());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(recovered.trainer->trained_through(), kTotal / 2);
  recovered.trainer->TrainUntil(kTotal);
  ASSERT_TRUE((*session)->status().ok());

  EXPECT_TRUE(recovered.trainer->global_params().BitwiseEquals(
      uninterrupted.trainer->global_params()));
  EXPECT_EQ(recovered.trainer->comm_stats().retransmits(),
            uninterrupted.trainer->comm_stats().retransmits());
  EXPECT_EQ(recovered.trainer->comm_stats().retransmit_bytes(),
            uninterrupted.trainer->comm_stats().retransmit_bytes());
  EXPECT_EQ(recovered.trainer->comm_stats().downlink_messages(),
            uninterrupted.trainer->comm_stats().downlink_messages());
  EXPECT_EQ(recovered.trainer->comm_stats().uplink_messages(),
            uninterrupted.trainer->comm_stats().uplink_messages());
}

TEST(TransportExactnessTest, FedAvgOverTheLossyWireMatchesClean) {
  FederatedDataset data_faulty = TinyImageData(5, 8);
  FederatedDataset data_clean = TinyImageData(5, 8);
  FedAvgOptions faulty_options;
  faulty_options.clients_per_round_k = 3;
  faulty_options.local_iters_e = 2;
  faulty_options.transport_fault_spec = kLossySpec;
  FedAvgOptions clean_options = faulty_options;
  clean_options.transport_fault_spec = "";
  FedAvgTrainer faulty(TinyModelSpec(), faulty_options, &data_faulty);
  FedAvgTrainer clean(TinyModelSpec(), clean_options, &data_clean);
  faulty.RunRounds(4);
  clean.RunRounds(4);
  ASSERT_GT(faulty.channel().stats().retransmits, 0);
  EXPECT_TRUE(faulty.global_params().BitwiseEquals(clean.global_params()));
  EXPECT_EQ(faulty.log().ToCsv(), clean.log().ToCsv());
  EXPECT_EQ(faulty.comm_stats().downlink_bytes(),
            clean.comm_stats().downlink_bytes());
  EXPECT_EQ(faulty.comm_stats().uplink_bytes(),
            clean.comm_stats().uplink_bytes());
  EXPECT_GT(faulty.comm_stats().retransmit_bytes(), 0);
  EXPECT_EQ(clean.comm_stats().retransmit_bytes(), 0);
}

}  // namespace
}  // namespace fats
