// UnlearningService — the one FATS-SU / FATS-CU implementation: O(1)
// triage, Submit-time validation against the pending state, per-request
// Algorithm 2/3 behaviour and cost accounting, batch and stream execution,
// and the coalescing exactness contract — a flushed queue of overlapping
// requests performs exactly one replay and leaves the trainer bitwise-
// identical (model, store, generation) to applying the same requests one at
// a time (ApplySequentially, the independent reference in
// test_workloads.h).

#include "core/unlearning_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "test_workloads.h"

namespace fats {
namespace {

struct Harness {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

Harness MakeTrained(int64_t clients = 8, int64_t n = 8, int64_t rounds = 4,
                int64_t e = 3, double rho_c = 0.5, int64_t train_to = -1) {
  Harness run;
  run.data = TinyImageData(clients, n);
  run.config = TinyFatsConfig(clients, n, rounds, e, /*rho_s=*/0.5, rho_c);
  run.trainer =
      std::make_unique<FatsTrainer>(TinyModelSpec(), run.config, &run.data);
  run.trainer->TrainUntil(train_to < 0 ? run.config.total_iters_t()
                                       : train_to);
  return run;
}

UnlearningRequest SampleReq(int64_t client, int64_t index, int64_t iter) {
  return {.kind = UnlearningRequest::Kind::kSample,
          .sample = {client, index},
          .request_iter = iter};
}

UnlearningRequest ClientReq(int64_t client, int64_t iter) {
  return {.kind = UnlearningRequest::Kind::kClient,
          .client = client,
          .request_iter = iter};
}

// Deterministic target discovery via the inverted index.
bool FindUsedSampleAt(const FatsTrainer* trainer, int64_t client,
                      SampleRef* out) {
  const int64_t n = trainer->config().samples_per_client_n;
  for (int64_t i = 0; i < n; ++i) {
    SampleRef ref;
    ref.client = client;
    ref.index = i;
    if (trainer->store().EarliestSampleUse(ref) >= 1) {
      *out = ref;
      return true;
    }
  }
  return false;
}

int64_t FirstParticipatingClient(const FatsTrainer* trainer,
                                 int64_t skip = -1) {
  for (int64_t k = 0; k < trainer->config().clients_m; ++k) {
    if (k == skip) continue;
    if (trainer->store().EarliestClientRound(k) >= 1) return k;
  }
  return -1;
}

void ExpectIdenticalTrainerState(FatsTrainer* a, FatsTrainer* b) {
  EXPECT_TRUE(a->global_params().BitwiseEquals(b->global_params()))
      << "global parameters diverged";
  EXPECT_EQ(a->trained_through(), b->trained_through());
  EXPECT_EQ(a->generation(), b->generation());

  const StateStore& sa = a->store();
  const StateStore& sb = b->store();
  ASSERT_EQ(sa.SelectionRounds(), sb.SelectionRounds());
  for (int64_t round : sa.SelectionRounds()) {
    EXPECT_EQ(*sa.GetClientSelection(round), *sb.GetClientSelection(round))
        << "selection of round " << round;
  }
  ASSERT_EQ(sa.GlobalModelRounds(), sb.GlobalModelRounds());
  for (int64_t round : sa.GlobalModelRounds()) {
    EXPECT_TRUE(
        sa.GetGlobalModel(round)->BitwiseEquals(*sb.GetGlobalModel(round)))
        << "global model of round " << round;
  }
  ASSERT_EQ(sa.MinibatchKeys(), sb.MinibatchKeys());
  for (const auto& [iter, client] : sa.MinibatchKeys()) {
    EXPECT_EQ(*sa.GetMinibatch(iter, client), *sb.GetMinibatch(iter, client))
        << "minibatch at t=" << iter << " client=" << client;
  }
  EXPECT_TRUE(sa.IndicesConsistentWithRecords());
  EXPECT_TRUE(sb.IndicesConsistentWithRecords());
}

TEST(ServiceTriageTest, MatchesInvertedIndex) {
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  const int64_t t_max = run.trainer->trained_through();

  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(run.trainer.get(),
                               FirstParticipatingClient(run.trainer.get()),
                               &used));
  const int64_t first = run.trainer->store().EarliestSampleUse(used);
  UnlearningService::Triage triage =
      service.TriageRequest(SampleReq(used.client, used.index, t_max));
  EXPECT_EQ(triage.restart_iteration, first);
  EXPECT_TRUE(triage.triggers);

  const int64_t c = FirstParticipatingClient(run.trainer.get());
  const int64_t r0 = run.trainer->store().EarliestClientRound(c);
  triage = service.TriageRequest(ClientReq(c, t_max));
  EXPECT_EQ(triage.restart_iteration,
            (r0 - 1) * run.config.local_iters_e + 1);
  EXPECT_TRUE(triage.triggers);
}

TEST(ServiceTriageTest, RequestIterAtExactRoundBoundaries) {
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  const int64_t e = run.config.local_iters_e;

  // A client whose first participation is NOT round 1, so there is a
  // boundary below it to probe. rho_c = 0.5 over 8 clients makes one
  // near-certain; assert we found one.
  int64_t c = -1;
  int64_t r0 = -1;
  for (int64_t k = 0; k < run.config.clients_m; ++k) {
    const int64_t round = run.trainer->store().EarliestClientRound(k);
    if (round >= 2) {
      c = k;
      r0 = round;
      break;
    }
  }
  ASSERT_NE(c, -1) << "no client first selected after round 1";

  const int64_t round_start = (r0 - 1) * e + 1;
  // Request at the exact first iteration of the first participating round:
  // triggers (participation at or before request time).
  EXPECT_TRUE(service.TriageRequest(ClientReq(c, round_start)).triggers);
  // One iteration earlier — the last iteration of the previous round: the
  // trigger must not fire.
  EXPECT_FALSE(service.TriageRequest(ClientReq(c, round_start - 1)).triggers);
  // Same boundary probing for a sample of that client.
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(run.trainer.get(), c, &used));
  const int64_t first = run.trainer->store().EarliestSampleUse(used);
  ASSERT_GE(first, 2);
  EXPECT_TRUE(
      service.TriageRequest(SampleReq(used.client, used.index, first))
          .triggers);
  EXPECT_FALSE(
      service.TriageRequest(SampleReq(used.client, used.index, first - 1))
          .triggers);
}

TEST(ServiceSubmitTest, ValidatesAgainstPendingState) {
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  const int64_t t_max = run.trainer->trained_through();

  // request_iter range.
  EXPECT_TRUE(service.Submit(SampleReq(0, 0, 0)).code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(service.Submit(SampleReq(0, 0, t_max + 1)).code() == StatusCode::kInvalidArgument);
  // Out-of-range targets.
  EXPECT_TRUE(service.Submit(SampleReq(999, 0, t_max)).code() == StatusCode::kOutOfRange);
  EXPECT_TRUE(service.Submit(ClientReq(999, t_max)).code() == StatusCode::kOutOfRange);

  // Duplicate pending sample.
  ASSERT_TRUE(service.Submit(SampleReq(0, 0, t_max)).ok());
  EXPECT_TRUE(service.Submit(SampleReq(0, 0, t_max)).code() == StatusCode::kFailedPrecondition);

  // A sample of a client that is pending removal.
  ASSERT_TRUE(service.Submit(ClientReq(1, t_max)).ok());
  EXPECT_TRUE(service.Submit(SampleReq(1, 2, t_max)).code() == StatusCode::kFailedPrecondition);
  // Duplicate pending client.
  EXPECT_TRUE(service.Submit(ClientReq(1, t_max)).code() == StatusCode::kFailedPrecondition);

  // Emptying a client's active sample set: n = 8, one already pending.
  for (int64_t i = 1; i <= 6; ++i) {
    ASSERT_TRUE(service.Submit(SampleReq(0, i, t_max)).ok());
  }
  EXPECT_TRUE(service.Submit(SampleReq(0, 7, t_max)).code() == StatusCode::kFailedPrecondition);

  EXPECT_EQ(service.pending(), 8);
}

TEST(ServiceSubmitTest, RepeatDeletionAfterFlushIsRejected) {
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  const int64_t t_max = run.trainer->trained_through();
  ASSERT_TRUE(service.Submit(SampleReq(2, 3, t_max)).ok());
  ASSERT_TRUE(service.Flush().ok());
  EXPECT_FALSE(run.data.sample_active(2, 3));
  // The second deletion of the same sample fails exactly as a streaming
  // sequential run would: the sample is gone.
  EXPECT_TRUE(service.Submit(SampleReq(2, 3, t_max)).code() == StatusCode::kFailedPrecondition);
}

TEST(ServiceSubmitTest, CannotEmptyFederation) {
  Harness run = MakeTrained(/*clients=*/3, /*n=*/6, /*rounds=*/2, /*e=*/2);
  UnlearningService service(run.trainer.get());
  const int64_t t_max = run.trainer->trained_through();
  ASSERT_TRUE(service.Submit(ClientReq(0, t_max)).ok());
  ASSERT_TRUE(service.Submit(ClientReq(1, t_max)).ok());
  EXPECT_TRUE(service.Submit(ClientReq(2, t_max)).code() == StatusCode::kFailedPrecondition);
}

TEST(ServiceFlushTest, EmptyQueueIsNoop) {
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  const uint64_t gen = run.trainer->generation();
  Result<ServiceFlushStats> stats = service.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 0);
  EXPECT_EQ(stats->replays, 0);
  EXPECT_EQ(run.trainer->generation(), gen);
}

TEST(ServiceFlushTest, NeverSelectedClientRemovalNeedsNoReplay) {
  // rho_c = 0.1 -> K = 1: at most `rounds` distinct clients are ever
  // selected, so among 8 clients several never participated.
  Harness run = MakeTrained(8, 8, 4, 3, /*rho_c=*/0.1);
  UnlearningService service(run.trainer.get());
  int64_t never = -1;
  for (int64_t k = 0; k < run.config.clients_m; ++k) {
    if (run.trainer->store().EarliestClientRound(k) == -1) {
      never = k;
      break;
    }
  }
  ASSERT_NE(never, -1);
  const uint64_t gen = run.trainer->generation();
  ASSERT_TRUE(
      service.Submit(ClientReq(never, run.trainer->trained_through())).ok());
  Result<ServiceFlushStats> stats = service.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 0);
  EXPECT_EQ(stats->substituted_batches, 0);
  // Sequential processing does not bump the generation for a request that
  // touches no recorded state; neither does the service.
  EXPECT_EQ(run.trainer->generation(), gen);
  EXPECT_FALSE(run.data.client_active(never));
}

TEST(ServiceFlushTest, CoalescedSampleQueueBitIdenticalToSequential) {
  Harness sequential = MakeTrained();
  Harness coalesced = MakeTrained();

  // Four deletions of recorded-participating samples on distinct clients.
  std::vector<UnlearningRequest> requests;
  const int64_t t_max = sequential.trainer->trained_through();
  for (int64_t k = 0; k < sequential.config.clients_m &&
                      static_cast<int64_t>(requests.size()) < 4;
       ++k) {
    SampleRef used;
    if (FindUsedSampleAt(sequential.trainer.get(), k, &used)) {
      requests.push_back(SampleReq(used.client, used.index, t_max));
    }
  }
  ASSERT_EQ(requests.size(), 4u);

  ApplySequentially(sequential.trainer.get(), requests);

  UnlearningService service(coalesced.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 1);
  EXPECT_EQ(stats->requests, 4);

  ExpectIdenticalTrainerState(sequential.trainer.get(),
                              coalesced.trainer.get());
}

TEST(ServiceFlushTest, CoalescedMixedQueueBitIdenticalToSequential) {
  Harness sequential = MakeTrained(10, 8, 4, 3);
  Harness coalesced = MakeTrained(10, 8, 4, 3);
  const int64_t t_max = sequential.trainer->trained_through();

  // Interleaved queue touching the same client: delete a sample of c1,
  // then remove c1 itself, then delete a sample of another participating
  // client c2 (whose triage runs against the post-removal redrawn history
  // in both execution orders).
  const int64_t c1 = FirstParticipatingClient(sequential.trainer.get());
  ASSERT_NE(c1, -1);
  const int64_t c2 = FirstParticipatingClient(sequential.trainer.get(), c1);
  ASSERT_NE(c2, -1);
  SampleRef s1;
  ASSERT_TRUE(FindUsedSampleAt(sequential.trainer.get(), c1, &s1));
  SampleRef s2;
  ASSERT_TRUE(FindUsedSampleAt(sequential.trainer.get(), c2, &s2));

  std::vector<UnlearningRequest> requests = {
      SampleReq(s1.client, s1.index, t_max),
      ClientReq(c1, t_max),
      SampleReq(s2.client, s2.index, t_max),
  };

  // The reference re-runs the client's rounds with Run; the service
  // re-draws them with RedrawRound and replays once.
  ApplySequentially(sequential.trainer.get(), requests);

  UnlearningService service(coalesced.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 1);
  EXPECT_EQ(stats->client_requests, 1);
  EXPECT_EQ(stats->sample_requests, 2);

  ExpectIdenticalTrainerState(sequential.trainer.get(),
                              coalesced.trainer.get());
}

TEST(ServiceFlushTest, OneReplayFromEarliestAffectedIteration) {
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  const int64_t t_max = run.trainer->trained_through();

  std::vector<UnlearningRequest> requests;
  int64_t earliest = -1;
  for (int64_t k = 0; k < run.config.clients_m &&
                      static_cast<int64_t>(requests.size()) < 3;
       ++k) {
    SampleRef used;
    if (!FindUsedSampleAt(run.trainer.get(), k, &used)) continue;
    const int64_t first = run.trainer->store().EarliestSampleUse(used);
    earliest = (earliest == -1) ? first : std::min(earliest, first);
    requests.push_back(SampleReq(used.client, used.index, t_max));
  }
  ASSERT_EQ(requests.size(), 3u);
  for (const UnlearningRequest& r : requests) {
    ASSERT_TRUE(service.Submit(r).ok());
  }
  Result<ServiceFlushStats> stats = service.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 1);
  EXPECT_EQ(stats->replay_start_iteration, earliest);
  EXPECT_EQ(stats->replayed_iterations, t_max - earliest + 1);
  // The whole point: w requests paid one replay; the per-request sum is
  // strictly larger whenever more than one request needed recomputation.
  EXPECT_GT(stats->sequential_replayed_iterations,
            stats->replayed_iterations);
}

TEST(ServiceFlushTest, MidRoundReplayCountsPrefixSteps) {
  // A replay that starts j iterations into a round first rebuilds the
  // participants' local models from the round's stored history: exactly
  // j·|participants| local steps, none of them at a round start.
  const int64_t e = 3;
  for (int64_t offset = 0; offset < e; ++offset) {
    SCOPED_TRACE(::testing::Message() << "round offset " << offset);
    Harness run = MakeTrained(/*clients=*/8, /*n=*/8, /*rounds=*/4, e);
    const StateStore& store = run.trainer->store();
    SampleRef target{-1, -1};
    int64_t first_use = -1;
    for (int64_t k = 0; k < run.config.clients_m && target.client < 0; ++k) {
      for (int64_t i = 0; i < run.config.samples_per_client_n; ++i) {
        const int64_t use = store.EarliestSampleUse({k, i});
        if (use >= 1 && (use - 1) % e == offset) {
          target = {k, i};
          first_use = use;
          break;
        }
      }
    }
    ASSERT_GE(target.client, 0);
    const int64_t round = (first_use - 1) / e + 1;
    const std::vector<int64_t>* selection = store.GetClientSelection(round);
    ASSERT_NE(selection, nullptr);
    const auto participants = static_cast<int64_t>(
        std::set<int64_t>(selection->begin(), selection->end()).size());

    UnlearningService service(run.trainer.get());
    ASSERT_TRUE(service
                    .Submit(SampleReq(target.client, target.index,
                                      run.trainer->trained_through()))
                    .ok());
    Result<ServiceFlushStats> stats = service.Flush();
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->replay_start_iteration, first_use);
    EXPECT_EQ(stats->prefix_steps, offset * participants);
  }
}

TEST(ServiceFlushTest, UntriggeredReplayStillCounted) {
  // request_iter below the sample's first use: the Algorithm 2 trigger does
  // not fire, but the substitution and replay still happen and must be
  // reported as replayed work.
  Harness run = MakeTrained();
  UnlearningService service(run.trainer.get());
  SampleRef used;
  int64_t target_client = -1;
  int64_t first = -1;
  for (int64_t k = 0; k < run.config.clients_m; ++k) {
    if (!FindUsedSampleAt(run.trainer.get(), k, &used)) continue;
    first = run.trainer->store().EarliestSampleUse(used);
    if (first >= 2) {
      target_client = k;
      break;
    }
  }
  ASSERT_NE(target_client, -1);
  ASSERT_TRUE(service.Submit(SampleReq(used.client, used.index, first - 1)).ok());
  Result<ServiceFlushStats> stats = service.Flush();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 0);
  EXPECT_EQ(stats->replays, 1);
  EXPECT_GT(stats->replayed_iterations, 0);
}

TEST(ServiceFlushTest, MidTrainingFlushThenContinueMatchesSequential) {
  const int64_t t_mid = 6;  // round boundary for e = 3
  Harness sequential = MakeTrained(8, 8, 4, 3, 0.5, t_mid);
  Harness coalesced = MakeTrained(8, 8, 4, 3, 0.5, t_mid);

  std::vector<UnlearningRequest> requests;
  for (int64_t k = 0; k < sequential.config.clients_m &&
                      static_cast<int64_t>(requests.size()) < 2;
       ++k) {
    SampleRef used;
    if (FindUsedSampleAt(sequential.trainer.get(), k, &used)) {
      requests.push_back(SampleReq(used.client, used.index, t_mid));
    }
  }
  ASSERT_EQ(requests.size(), 2u);

  ApplySequentially(sequential.trainer.get(), requests);
  sequential.trainer->TrainUntil(sequential.config.total_iters_t());

  UnlearningService service(coalesced.trainer.get());
  ASSERT_TRUE(service.ExecuteStream(requests).ok());
  coalesced.trainer->TrainUntil(coalesced.config.total_iters_t());

  ExpectIdenticalTrainerState(sequential.trainer.get(),
                              coalesced.trainer.get());
}

TEST(ServiceFlushTest, WindowedStreamFlushesInChunks) {
  Harness run = MakeTrained(10, 8, 4, 3);
  UnlearningService service(run.trainer.get());
  const int64_t t_max = run.trainer->trained_through();
  std::vector<UnlearningRequest> requests;
  for (int64_t k = 0; k < run.config.clients_m &&
                      static_cast<int64_t>(requests.size()) < 4;
       ++k) {
    SampleRef used;
    if (FindUsedSampleAt(run.trainer.get(), k, &used)) {
      requests.push_back(SampleReq(used.client, used.index, t_max));
    }
  }
  ASSERT_EQ(requests.size(), 4u);
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests, 2);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->replays, 2);
  EXPECT_EQ(stats->requests, 4);
  EXPECT_EQ(service.pending(), 0);
  EXPECT_TRUE(run.trainer->store().IndicesConsistentWithRecords());
}

// ---- Algorithm 2 (FATS-SU): sample deletions through the service ----

/// A sample that never participated, or (-1, -1) if every sample was used.
SampleRef FindUnusedSample(const Harness& run) {
  for (int64_t k = 0; k < run.data.num_clients(); ++k) {
    for (int64_t i = 0; i < run.data.samples_of(k); ++i) {
      if (run.trainer->store().EarliestSampleUse({k, i}) == -1) return {k, i};
    }
  }
  return {-1, -1};
}

/// A sample first used strictly after iteration 1 (its first use goes to
/// `first_use`), or (-1, -1) if every used sample was used at iteration 1.
SampleRef FindLateUsedSample(const Harness& run, int64_t* first_use) {
  for (int64_t k = 0; k < run.data.num_clients(); ++k) {
    for (int64_t i = 0; i < run.data.samples_of(k); ++i) {
      const int64_t use = run.trainer->store().EarliestSampleUse({k, i});
      if (use > 1) {
        *first_use = use;
        return {k, i};
      }
    }
  }
  return {-1, -1};
}

TEST(SampleUnlearnerTest, UnusedSampleNeedsNoRecomputation) {
  Harness run = MakeTrained(6, 10);
  const SampleRef unused = FindUnusedSample(run);
  ASSERT_GE(unused.client, 0) << "workload too small: every sample used";
  const Tensor before = run.trainer->global_params();
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {SampleReq(unused.client, unused.index, run.config.total_iters_t())});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 0);
  EXPECT_EQ(stats->recomputed_iterations, 0);
  EXPECT_EQ(stats->replays, 0);
  // Model untouched; sample deleted.
  EXPECT_TRUE(run.trainer->global_params().BitwiseEquals(before));
  EXPECT_FALSE(run.data.sample_active(unused.client, unused.index));
}

TEST(SampleUnlearnerTest, UsedSampleTriggersRecomputationFromFirstUse) {
  Harness run = MakeTrained(6, 10);
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  const int64_t first_use = run.trainer->store().EarliestSampleUse(used);
  const int64_t t_max = run.config.total_iters_t();
  const int64_t e = run.config.local_iters_e;
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats =
      service.ExecuteStream({SampleReq(used.client, used.index, t_max)});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 1);
  EXPECT_EQ(stats->replay_start_iteration, first_use);
  EXPECT_EQ(stats->recomputed_iterations, t_max - first_use + 1);
  EXPECT_EQ(stats->recomputed_rounds,
            run.config.rounds_r - (first_use - 1) / e);
  // One request: the triggered span is the replayed span.
  EXPECT_EQ(stats->replayed_iterations, stats->recomputed_iterations);
  EXPECT_EQ(stats->replayed_rounds, stats->recomputed_rounds);
  EXPECT_FALSE(run.data.sample_active(used.client, used.index));
}

TEST(SampleUnlearnerTest, RecomputedStateNeverReferencesDeletedSample) {
  Harness run = MakeTrained(6, 10);
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  UnlearningService service(run.trainer.get());
  ASSERT_TRUE(service
                  .ExecuteStream({SampleReq(used.client, used.index,
                                            run.config.total_iters_t())})
                  .ok());
  // After unlearning, no recorded mini-batch may contain the sample.
  EXPECT_EQ(run.trainer->store().EarliestSampleUse(used), -1);
}

TEST(SampleUnlearnerTest, UnlearnedModelKeepsUtility) {
  // Remark 4: with O(MN) samples remaining the unlearned model's accuracy
  // stays in the same regime.
  Harness run = MakeTrained(8, 12, 10, 3);
  const double acc_before = run.trainer->EvaluateTestAccuracy();
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  UnlearningService service(run.trainer.get());
  ASSERT_TRUE(service
                  .ExecuteStream({SampleReq(used.client, used.index,
                                            run.config.total_iters_t())})
                  .ok());
  EXPECT_GT(run.trainer->EvaluateTestAccuracy(), acc_before - 0.2);
}

TEST(SampleUnlearnerTest, BatchEmptyingClientRejectedBeforeMutation) {
  Harness run = MakeTrained(6, 10);
  // Every sample of client 0 in one batch would leave it with nothing to
  // train on — rejected whole, before any deletion happens.
  std::vector<UnlearningRequest> all;
  for (int64_t i = 0; i < run.data.samples_of(0); ++i) {
    all.push_back(SampleReq(0, i, run.config.total_iters_t()));
  }
  const uint64_t gen_before = run.trainer->generation();
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(all);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.pending(), 0);
  EXPECT_EQ(run.data.num_active_samples(0), run.data.samples_of(0));
  EXPECT_EQ(run.trainer->generation(), gen_before);
}

TEST(SampleUnlearnerTest, RecomputationAppendsFlaggedLogRecords) {
  Harness run = MakeTrained(6, 10);
  const size_t log_before = run.trainer->log().records().size();
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {SampleReq(used.client, used.index, run.config.total_iters_t())});
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->replays, 1);
  const auto& records = run.trainer->log().records();
  EXPECT_GT(records.size(), log_before);
  for (size_t i = log_before; i < records.size(); ++i) {
    EXPECT_TRUE(records[i].recomputation);
  }
}

TEST(SampleUnlearnerTest, RequestBeforeFirstUseSkipsRecomputation) {
  Harness run = MakeTrained(6, 10);
  int64_t first_use = -1;
  const SampleRef used = FindLateUsedSample(run, &first_use);
  ASSERT_GE(used.client, 0) << "every used sample was used at iteration 1";
  UnlearningService service(run.trainer.get());
  // Request issued before the sample was ever used: no discrepancy within
  // [1, t_u], so no re-computation.
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {SampleReq(used.client, used.index, first_use - 1)});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 0);
  EXPECT_FALSE(run.data.sample_active(used.client, used.index));
}

TEST(SampleUnlearnerTest, UntriggeredBatchStillReportsReplayedWork) {
  // Theorem 3's trigger never fires (recomputed_* zero), yet the
  // substitution forces a replay whose cost must be accounted.
  Harness run = MakeTrained(6, 10);
  int64_t first_use = -1;
  const SampleRef used = FindLateUsedSample(run, &first_use);
  ASSERT_GE(used.client, 0);
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {SampleReq(used.client, used.index, first_use - 1)});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 0);
  EXPECT_EQ(stats->recomputed_iterations, 0);
  EXPECT_EQ(stats->recomputed_rounds, 0);
  EXPECT_EQ(stats->replay_start_iteration, first_use);
  EXPECT_EQ(stats->replayed_iterations,
            run.config.total_iters_t() - first_use + 1);
}

TEST(SampleUnlearnerTest, DoubleUnlearnFails) {
  Harness run = MakeTrained(6, 10);
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  const int64_t t_max = run.config.total_iters_t();
  UnlearningService service(run.trainer.get());
  ASSERT_TRUE(
      service.ExecuteStream({SampleReq(used.client, used.index, t_max)}).ok());
  Result<ServiceFlushStats> again =
      service.ExecuteStream({SampleReq(used.client, used.index, t_max)});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SampleUnlearnerTest, InvalidRequestIterFails) {
  Harness run = MakeTrained(6, 10);
  UnlearningService service(run.trainer.get());
  EXPECT_FALSE(service.ExecuteStream({SampleReq(0, 0, 0)}).ok());
  EXPECT_FALSE(
      service.ExecuteStream({SampleReq(0, 0, run.config.total_iters_t() + 1)})
          .ok());
  EXPECT_TRUE(run.data.sample_active(0, 0));
}

TEST(SampleUnlearnerTest, BatchRestartsFromEarliestUse) {
  Harness run = MakeTrained(8, 12, 5, 3);
  const int64_t t_max = run.config.total_iters_t();
  // Up to three used samples, possibly sharing a client.
  std::vector<UnlearningRequest> requests;
  int64_t min_use = t_max + 1;
  for (int64_t k = 0; k < run.data.num_clients() && requests.size() < 3;
       ++k) {
    for (int64_t i = 0; i < run.data.samples_of(k) && requests.size() < 3;
         ++i) {
      const int64_t use = run.trainer->store().EarliestSampleUse({k, i});
      if (use >= 1) {
        requests.push_back(SampleReq(k, i, t_max));
        min_use = std::min(min_use, use);
      }
    }
  }
  ASSERT_GE(requests.size(), 2u);
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->triggered_requests, 1);
  EXPECT_EQ(stats->replay_start_iteration, min_use);
  for (const UnlearningRequest& r : requests) {
    EXPECT_FALSE(run.data.sample_active(r.sample.client, r.sample.index));
  }
}

TEST(SampleUnlearnerTest, DuplicateTargetInBatchRejectedWithoutMutation) {
  Harness run = MakeTrained(6, 10);
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  const UnlearningRequest request =
      SampleReq(used.client, used.index, run.config.total_iters_t());
  const Tensor before = run.trainer->global_params();
  const uint64_t gen_before = run.trainer->generation();
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream({request, request});
  ASSERT_FALSE(stats.ok());
  // The second copy is already pending.
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  // Validation precedes every mutation: the sample survives, nothing moved.
  EXPECT_TRUE(run.data.sample_active(used.client, used.index));
  EXPECT_TRUE(run.trainer->global_params().BitwiseEquals(before));
  EXPECT_EQ(run.trainer->generation(), gen_before);
}

// ---- Algorithm 3 (FATS-CU): client removals through the service ----

TEST(ClientUnlearnerTest, ParticipantTriggersRecomputationFromFirstRound) {
  Harness run = MakeTrained(10, 10);
  const int64_t target = FirstParticipatingClient(run.trainer.get());
  ASSERT_NE(target, -1);
  const int64_t first_round = run.trainer->store().EarliestClientRound(target);
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats =
      service.ExecuteStream({ClientReq(target, run.config.total_iters_t())});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 1);
  EXPECT_EQ(stats->replay_start_iteration,
            (first_round - 1) * run.config.local_iters_e + 1);
  EXPECT_EQ(stats->recomputed_rounds, run.config.rounds_r - first_round + 1);
  EXPECT_EQ(stats->redrawn_rounds, run.config.rounds_r - first_round + 1);
  EXPECT_FALSE(run.data.client_active(target));
}

TEST(ClientUnlearnerTest, RecomputedSelectionsExcludeRemovedClient) {
  Harness run = MakeTrained(10, 10);
  const int64_t target = FirstParticipatingClient(run.trainer.get());
  UnlearningService service(run.trainer.get());
  ASSERT_TRUE(
      service.ExecuteStream({ClientReq(target, run.config.total_iters_t())})
          .ok());
  // The refreshed state must never select the removed client.
  EXPECT_EQ(run.trainer->store().EarliestClientRound(target), -1);
  for (int64_t r = 1; r <= run.config.rounds_r; ++r) {
    const std::vector<int64_t>* selection =
        run.trainer->store().GetClientSelection(r);
    ASSERT_NE(selection, nullptr);
    for (int64_t k : *selection) EXPECT_NE(k, target);
  }
}

TEST(ClientUnlearnerTest, RequestBeforeFirstParticipationSkips) {
  Harness run = MakeTrained(10, 10);
  // A client whose first participation is strictly after round 1.
  int64_t target = -1;
  int64_t first_round = -1;
  for (int64_t k = 0; k < run.data.num_clients(); ++k) {
    const int64_t round = run.trainer->store().EarliestClientRound(k);
    if (round > 1) {
      target = k;
      first_round = round;
      break;
    }
  }
  ASSERT_GE(target, 0) << "every participant joined in round 1";
  // Issued at the last iteration before that round: no trigger. The later
  // rounds are still purged of the client (replayed, not triggered).
  const int64_t t_u = (first_round - 1) * run.config.local_iters_e;
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats =
      service.ExecuteStream({ClientReq(target, t_u)});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 0);
  EXPECT_EQ(stats->recomputed_rounds, 0);
  EXPECT_EQ(stats->replays, 1);
}

TEST(ClientUnlearnerTest, BatchRemovesAllAndRestartsOnce) {
  Harness run = MakeTrained(12, 10, 5, 3);
  std::vector<UnlearningRequest> requests;
  int64_t earliest = run.config.rounds_r + 1;
  for (int64_t k = 0; k < run.data.num_clients() && requests.size() < 2;
       ++k) {
    const int64_t round = run.trainer->store().EarliestClientRound(k);
    if (round >= 1) {
      requests.push_back(ClientReq(k, run.config.total_iters_t()));
      earliest = std::min(earliest, round);
    }
  }
  ASSERT_EQ(requests.size(), 2u);
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 2);
  EXPECT_EQ(stats->replays, 1);
  EXPECT_EQ(stats->replay_start_iteration,
            (earliest - 1) * run.config.local_iters_e + 1);
  EXPECT_EQ(stats->replayed_rounds, run.config.rounds_r - earliest + 1);
  for (const UnlearningRequest& r : requests) {
    EXPECT_FALSE(run.data.client_active(r.client));
  }
}

TEST(ClientUnlearnerTest, UnlearnedModelKeepsUtility) {
  Harness run = MakeTrained(10, 12, 10, 3);
  const double acc_before = run.trainer->EvaluateTestAccuracy();
  const int64_t target = FirstParticipatingClient(run.trainer.get());
  UnlearningService service(run.trainer.get());
  ASSERT_TRUE(
      service.ExecuteStream({ClientReq(target, run.config.total_iters_t())})
          .ok());
  EXPECT_GT(run.trainer->EvaluateTestAccuracy(), acc_before - 0.2);
}

TEST(ClientUnlearnerTest, SequentialRemovalsKeepWorking) {
  Harness run = MakeTrained(12, 10, 4, 3);
  UnlearningService service(run.trainer.get());
  for (int removed = 0; removed < 3; ++removed) {
    const int64_t target = FirstParticipatingClient(run.trainer.get());
    ASSERT_NE(target, -1);
    ASSERT_TRUE(run.data.client_active(target));
    ASSERT_TRUE(
        service.ExecuteStream({ClientReq(target, run.config.total_iters_t())})
            .ok());
  }
  EXPECT_EQ(run.data.num_active_clients(), 9);
}

TEST(ClientUnlearnerTest, NonParticipantNeedsNoRecomputation) {
  Harness run = MakeTrained(/*clients=*/16, 10);
  int64_t target = -1;
  for (int64_t k = 0; k < run.data.num_clients(); ++k) {
    if (run.trainer->store().EarliestClientRound(k) == -1) {
      target = k;
      break;
    }
  }
  ASSERT_GE(target, 0) << "all clients participated; enlarge M";
  const Tensor before = run.trainer->global_params();
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats =
      service.ExecuteStream({ClientReq(target, run.config.total_iters_t())});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->triggered_requests, 0);
  EXPECT_EQ(stats->replays, 0);
  EXPECT_TRUE(run.trainer->global_params().BitwiseEquals(before));
  EXPECT_FALSE(run.data.client_active(target));
}

TEST(ClientUnlearnerTest, DoubleRemoveFails) {
  Harness run = MakeTrained(10, 10);
  const int64_t target = FirstParticipatingClient(run.trainer.get());
  ASSERT_NE(target, -1);
  const int64_t t_max = run.config.total_iters_t();
  UnlearningService service(run.trainer.get());
  ASSERT_TRUE(service.ExecuteStream({ClientReq(target, t_max)}).ok());
  Result<ServiceFlushStats> again =
      service.ExecuteStream({ClientReq(target, t_max)});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ClientUnlearnerTest, OutOfRangeTargetFails) {
  Harness run = MakeTrained(10, 10);
  UnlearningService service(run.trainer.get());
  for (int64_t client : {int64_t{999}, int64_t{-1}}) {
    Result<ServiceFlushStats> stats =
        service.ExecuteStream({ClientReq(client, 1)});
    ASSERT_FALSE(stats.ok());
    EXPECT_EQ(stats.status().code(), StatusCode::kOutOfRange);
  }
  EXPECT_EQ(run.data.num_active_clients(), 10);
}

TEST(ClientUnlearnerTest, DuplicateClientTargetRejectedWithoutMutation) {
  Harness run = MakeTrained(10, 10);
  const int64_t target = FirstParticipatingClient(run.trainer.get());
  ASSERT_NE(target, -1);
  const UnlearningRequest request =
      ClientReq(target, run.config.total_iters_t());
  const Tensor before = run.trainer->global_params();
  const uint64_t gen_before = run.trainer->generation();
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream({request, request});
  ASSERT_FALSE(stats.ok());
  // The second copy is already pending.
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(run.data.client_active(target));
  EXPECT_TRUE(run.trainer->global_params().BitwiseEquals(before));
  EXPECT_EQ(run.trainer->generation(), gen_before);
}

// ---- ExecuteStream: batches, streams, rejection ----

TEST(ServiceStreamTest, RejectedBatchLeavesNothingQueued) {
  Harness run = MakeTrained();
  const int64_t t_max = run.trainer->trained_through();
  SampleRef used;
  ASSERT_TRUE(FindUsedSampleAt(
      run.trainer.get(), FirstParticipatingClient(run.trainer.get()), &used));
  const int64_t client =
      FirstParticipatingClient(run.trainer.get(), /*skip=*/used.client);
  ASSERT_NE(client, -1);
  const uint64_t gen_before = run.trainer->generation();
  UnlearningService service(run.trainer.get());

  // The duplicate is rejected as already pending, and the whole unflushed
  // window goes with it — the valid requests before it too: nothing stays
  // queued for a later Flush.
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {SampleReq(used.client, used.index, t_max), ClientReq(client, t_max),
       ClientReq(client, t_max)});
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.pending(), 0);
  Result<ServiceFlushStats> flushed = service.Flush();
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed->requests, 0);
  EXPECT_TRUE(run.data.sample_active(used.client, used.index));
  EXPECT_TRUE(run.data.client_active(client));
  EXPECT_EQ(run.trainer->generation(), gen_before);
  // The rejected targets can be resubmitted.
  EXPECT_TRUE(service.Submit(SampleReq(used.client, used.index, t_max)).ok());
  EXPECT_TRUE(service.Submit(ClientReq(client, t_max)).ok());
}

TEST(ServiceStreamTest, RejectionKeepsEarlierWindowsApplied) {
  Harness run = MakeTrained();
  const int64_t t_max = run.trainer->trained_through();
  UnlearningService service(run.trainer.get());
  // The first window flushes two deletions; the duplicate then fails inside
  // the second window, which is discarded whole.
  Result<ServiceFlushStats> stats = service.ExecuteStream(
      {SampleReq(0, 0, t_max), SampleReq(1, 0, t_max), SampleReq(2, 0, t_max),
       SampleReq(2, 0, t_max)},
      /*coalesce_window=*/2);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(service.pending(), 0);
  EXPECT_FALSE(run.data.sample_active(0, 0));
  EXPECT_FALSE(run.data.sample_active(1, 0));
  EXPECT_TRUE(run.data.sample_active(2, 0));
}

TEST(PickersTest, SamplePickerReturnsDistinctActiveRefs) {
  FederatedDataset data = TinyImageData(5, 8);
  ASSERT_TRUE(data.RemoveSample({0, 3}).ok());
  ASSERT_TRUE(data.RemoveClient(4).ok());
  RngStream rng(uint64_t{3});
  std::vector<SampleRef> picks = PickRandomActiveSamples(data, 10, &rng);
  ASSERT_EQ(picks.size(), 10u);
  std::set<std::pair<int64_t, int64_t>> seen;
  for (const SampleRef& ref : picks) {
    EXPECT_TRUE(data.sample_active(ref.client, ref.index));
    EXPECT_NE(ref.client, 4);
    EXPECT_TRUE(seen.insert({ref.client, ref.index}).second);
  }
}

TEST(PickersTest, ClientPickerReturnsDistinctActive) {
  FederatedDataset data = TinyImageData(6, 4);
  ASSERT_TRUE(data.RemoveClient(2).ok());
  RngStream rng(uint64_t{4});
  std::vector<int64_t> picks = PickRandomActiveClients(data, 4, &rng);
  ASSERT_EQ(picks.size(), 4u);
  std::set<int64_t> seen;
  for (int64_t k : picks) {
    EXPECT_NE(k, 2);
    EXPECT_TRUE(seen.insert(k).second);
  }
}

TEST(ExecutorTest, SampleBatchCountsAllRequests) {
  Harness run = MakeTrained(10, 10);
  RngStream rng(uint64_t{5});
  std::vector<UnlearningRequest> requests;
  for (const SampleRef& target : PickRandomActiveSamples(run.data, 4, &rng)) {
    requests.push_back(
        SampleReq(target.client, target.index, run.config.total_iters_t()));
  }
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 4);
  EXPECT_EQ(stats->sample_requests, 4);
  EXPECT_LE(stats->replays, 1);
  for (const UnlearningRequest& r : requests) {
    EXPECT_FALSE(run.data.sample_active(r.sample.client, r.sample.index));
  }
}

TEST(ExecutorTest, ClientBatchRemovesAll) {
  Harness run = MakeTrained(12, 10);
  RngStream rng(uint64_t{6});
  std::vector<UnlearningRequest> requests;
  for (int64_t target : PickRandomActiveClients(run.data, 3, &rng)) {
    requests.push_back(ClientReq(target, run.config.total_iters_t()));
  }
  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats = service.ExecuteStream(requests);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 3);
  EXPECT_EQ(stats->client_requests, 3);
  EXPECT_EQ(run.data.num_active_clients(), 9);
}

TEST(ExecutorTest, StreamProcessesMixedRequests) {
  Harness run = MakeTrained(12, 12, 5, 3);
  RngStream rng(uint64_t{7});
  std::vector<SampleRef> samples = PickRandomActiveSamples(run.data, 2, &rng);
  std::vector<int64_t> clients = PickRandomActiveClients(run.data, 1, &rng);
  // Ensure the client target doesn't own a sample target (that sample
  // would be gone after the client removal).
  while (clients[0] == samples[0].client || clients[0] == samples[1].client) {
    clients = PickRandomActiveClients(run.data, 1, &rng);
  }
  const int64_t t_max = run.config.total_iters_t();
  const std::vector<UnlearningRequest> requests = {
      SampleReq(samples[0].client, samples[0].index, t_max),
      ClientReq(clients[0], t_max),
      SampleReq(samples[1].client, samples[1].index, t_max)};

  UnlearningService service(run.trainer.get());
  Result<ServiceFlushStats> stats =
      service.ExecuteStream(requests, /*coalesce_window=*/1);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->requests, 3);
  EXPECT_FALSE(run.data.sample_active(samples[0].client, samples[0].index));
  EXPECT_FALSE(run.data.client_active(clients[0]));
  EXPECT_LE(stats->triggered_requests, 3);
  EXPECT_LE(stats->replays, 3);
}

TEST(ExecutorTest, SummaryAggregation) {
  ServiceFlushStats total;
  ServiceFlushStats a;
  a.requests = 1;
  a.triggered_requests = 1;
  a.recomputed_iterations = 10;
  a.recomputed_rounds = 2;
  a.replays = 1;
  a.replay_start_iteration = 7;
  a.replayed_iterations = 10;
  a.replayed_rounds = 2;
  ServiceFlushStats b;  // no recomputation
  b.requests = 1;
  ServiceFlushStats c = a;
  c.replay_start_iteration = 3;
  total.Accumulate(a);
  total.Accumulate(b);
  EXPECT_EQ(total.requests, 2);
  EXPECT_EQ(total.triggered_requests, 1);
  EXPECT_EQ(total.recomputed_iterations, 10);
  EXPECT_EQ(total.recomputed_rounds, 2);
  EXPECT_EQ(total.replays, 1);
  EXPECT_EQ(total.replay_start_iteration, 7);
  total.Accumulate(c);
  EXPECT_EQ(total.replays, 2);
  EXPECT_EQ(total.replayed_rounds, 4);
  // The accumulated replay start is the earliest of any flush.
  EXPECT_EQ(total.replay_start_iteration, 3);
}

TEST(ExecutorTest, StreamFailurePropagates) {
  Harness run = MakeTrained(10, 10);
  UnlearningService service(run.trainer.get());
  EXPECT_FALSE(service.ExecuteStream({ClientReq(10000, 1)}).ok());
}

}  // namespace
}  // namespace fats
