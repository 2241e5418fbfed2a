// Streaming requests interleaved with ongoing training (Appendix A.5
// semantics at full fidelity): train a few rounds, serve a request, train
// more, serve another — state must stay consistent throughout.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/unlearning_service.h"
#include "test_workloads.h"

namespace fats {
namespace {

struct Trained {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Trained MakeEnv(int64_t clients = 12, int64_t n = 10, int64_t rounds = 6,
                int64_t e = 3) {
  Trained t;
  t.data = TinyImageData(clients, n);
  t.config = TinyFatsConfig(clients, n, rounds, e);
  t.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), t.config, &t.data);
  return t;
}

void ExpectConsistentState(const Trained& t) {
  // Every recorded selection references an active client, every recorded
  // mini-batch only active samples, for all executed rounds.
  const int64_t executed_rounds =
      (t.trainer->trained_through() + t.config.local_iters_e - 1) /
      t.config.local_iters_e;
  for (int64_t r = 1; r <= executed_rounds; ++r) {
    const std::vector<int64_t>* selection =
        t.trainer->store().GetClientSelection(r);
    ASSERT_NE(selection, nullptr) << "round " << r;
    for (int64_t k : *selection) {
      EXPECT_TRUE(t.data.client_active(k)) << "round " << r;
      for (int64_t iter = (r - 1) * t.config.local_iters_e + 1;
           iter <= std::min(r * t.config.local_iters_e,
                            t.trainer->trained_through());
           ++iter) {
        const std::vector<int64_t>* batch =
            t.trainer->store().GetMinibatch(iter, k);
        if (batch == nullptr) continue;
        for (int64_t i : *batch) {
          EXPECT_TRUE(t.data.sample_active(k, i))
              << "(" << k << "," << i << ") at iter " << iter;
        }
      }
    }
  }
}

TEST(StreamingMidTrainingTest, InterleavedSampleAndClientRequests) {
  Trained t = MakeEnv();
  UnlearningService service(t.trainer.get());

  t.trainer->TrainUntil(6);  // rounds 1-2
  {
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    RngStream rng(1, id);
    UnlearningRequest request;
    request.kind = UnlearningRequest::Kind::kSample;
    request.sample = PickRandomActiveSamples(t.data, 1, &rng)[0];
    request.request_iter = t.trainer->trained_through();
    ASSERT_TRUE(service.ExecuteStream({request}).ok());
  }
  ExpectConsistentState(t);

  t.trainer->TrainUntil(12);  // rounds 3-4
  {
    StreamId id;
    id.purpose = RngPurpose::kGeneric;
    id.iteration = 2;
    RngStream rng(1, id);
    UnlearningRequest request;
    request.kind = UnlearningRequest::Kind::kClient;
    request.client = PickRandomActiveClients(t.data, 1, &rng)[0];
    request.request_iter = t.trainer->trained_through();
    ASSERT_TRUE(service.ExecuteStream({request}).ok());
  }
  ExpectConsistentState(t);

  t.trainer->TrainUntil(t.config.total_iters_t());
  ExpectConsistentState(t);
  EXPECT_EQ(t.trainer->trained_through(), t.config.total_iters_t());
  const double accuracy = t.trainer->EvaluateTestAccuracy();
  EXPECT_GE(accuracy, 0.0);
  EXPECT_LE(accuracy, 1.0);
}

TEST(StreamingMidTrainingTest, ManySmallInterleavings) {
  Trained t = MakeEnv(16, 8, 8, 2);
  UnlearningService service(t.trainer.get());
  StreamId id;
  id.purpose = RngPurpose::kGeneric;
  RngStream rng(9, id);
  for (int64_t r = 1; r <= 8; ++r) {
    t.trainer->TrainUntil(r * 2);
    UnlearningRequest request;
    if (r % 2 == 0 && t.data.num_active_clients() > 4) {
      request.kind = UnlearningRequest::Kind::kClient;
      request.client = PickRandomActiveClients(t.data, 1, &rng)[0];
    } else {
      request.kind = UnlearningRequest::Kind::kSample;
      request.sample = PickRandomActiveSamples(t.data, 1, &rng)[0];
    }
    request.request_iter = t.trainer->trained_through();
    ASSERT_TRUE(service.ExecuteStream({request}).ok()) << "round " << r;
    ExpectConsistentState(t);
  }
  EXPECT_EQ(t.trainer->trained_through(), t.config.total_iters_t());
}

TEST(StreamingMidTrainingTest, DeterministicInterleavedPipeline) {
  auto run = []() {
    Trained t = MakeEnv();
    UnlearningService service(t.trainer.get());
    t.trainer->TrainUntil(6);
    UnlearningRequest request;
    request.kind = UnlearningRequest::Kind::kSample;
    request.sample = {2, 3};
    request.request_iter = 6;
    FATS_CHECK(service.ExecuteStream({request}).ok());
    t.trainer->TrainUntil(t.config.total_iters_t());
    return t.trainer->global_params();
  };
  EXPECT_TRUE(run().BitwiseEquals(run()));
}

}  // namespace
}  // namespace fats
