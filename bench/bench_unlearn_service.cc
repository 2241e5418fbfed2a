// Benchmarks (google-benchmark) for the unlearning request service: O(1)
// triage against the StateStore's inverted participation index, queue
// throughput at 10^5 requests, and the replay amortization of coalescing.
//
// Feeds the bench-regression smoke: tools/ci.sh runs this binary with
// --benchmark_out=BENCH_unlearn_current.json and tools/bench_check compares
// the result against the checked-in BENCH_unlearn.json baseline.
//
// BM_TriageIndexed vs BM_TriageScan is the acceptance pair: the indexed
// triage must stay flat as T grows while the pre-index scan (reimplemented
// here over the store's public record enumeration) grows linearly.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"

namespace fats {
namespace {

struct Trained {
  FederatedDataset data;
  FatsConfig config;
  std::unique_ptr<FatsTrainer> trainer;
};

DatasetProfile BenchProfile(int64_t clients, int64_t n, int64_t rounds,
                            int64_t e) {
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = clients;
  profile.samples_per_client_n = n;
  profile.rounds_r = rounds;
  profile.local_iters_e = e;
  profile.test_size = 64;
  return profile;
}

std::unique_ptr<Trained> Train(int64_t clients, int64_t n, int64_t rounds,
                               int64_t e, int64_t k, int64_t b) {
  auto t = std::make_unique<Trained>();
  DatasetProfile profile = BenchProfile(clients, n, rounds, e);
  t->data = BuildFederatedData(profile, 11);
  t->config = bench::FatsConfigWithKB(profile, k, b, 11);
  t->trainer =
      std::make_unique<FatsTrainer>(profile.model, t->config, &t->data);
  t->trainer->Train();
  return t;
}

/// One trained harness per round count, trained once and shared by the
/// read-only triage benchmarks.
Trained& CachedTrained(int64_t rounds) {
  static std::map<int64_t, std::unique_ptr<Trained>> cache;
  std::unique_ptr<Trained>& slot = cache[rounds];
  if (slot == nullptr) slot = Train(/*clients=*/40, /*n=*/40, rounds,
                                    /*e=*/2, /*k=*/8, /*b=*/4);
  return *slot;
}

std::vector<UnlearningRequest> SampleRequests(const Trained& t) {
  std::vector<UnlearningRequest> requests;
  for (int64_t client = 0; client < t.data.num_clients(); ++client) {
    for (int64_t index = 0; index < t.data.samples_of(client); ++index) {
      UnlearningRequest request;
      request.kind = UnlearningRequest::Kind::kSample;
      request.sample = {client, index};
      request.request_iter = t.config.total_iters_t();
      requests.push_back(request);
    }
  }
  return requests;
}

/// The pre-index triage: linear scan of every recorded mini-batch for the
/// sample, exactly what EarliestSampleUse did before the inverted index.
int64_t ScanEarliestSampleUse(
    const StateStore& store,
    const std::vector<std::pair<int64_t, int64_t>>& keys,
    const SampleRef& ref) {
  int64_t earliest = -1;
  for (const auto& [iter, client] : keys) {
    if (client != ref.client) continue;
    const std::vector<int64_t>* batch = store.GetMinibatch(iter, client);
    if (batch == nullptr) continue;
    if (std::find(batch->begin(), batch->end(), ref.index) != batch->end()) {
      if (earliest == -1 || iter < earliest) earliest = iter;
    }
  }
  return earliest;
}

void BM_TriageIndexed(benchmark::State& state) {
  Trained& t = CachedTrained(state.range(0));
  UnlearningService service(t.trainer.get());
  const std::vector<UnlearningRequest> requests = SampleRequests(t);
  size_t next = 0;
  for (auto _ : state) {
    UnlearningService::Triage triage =
        service.TriageRequest(requests[next++ % requests.size()]);
    benchmark::DoNotOptimize(triage.restart_iteration);
  }
  state.counters["T"] =
      static_cast<double>(t.config.total_iters_t());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriageIndexed)->Arg(8)->Arg(32)->Arg(128);

void BM_TriageScan(benchmark::State& state) {
  Trained& t = CachedTrained(state.range(0));
  const std::vector<UnlearningRequest> requests = SampleRequests(t);
  // Hoist the key enumeration: the old path walked the live record map, so
  // charging the per-call vector build to the scan would overstate it.
  const std::vector<std::pair<int64_t, int64_t>> keys =
      t.trainer->store().MinibatchKeys();
  size_t next = 0;
  for (auto _ : state) {
    const UnlearningRequest& request = requests[next++ % requests.size()];
    benchmark::DoNotOptimize(
        ScanEarliestSampleUse(t.trainer->store(), keys, request.sample));
  }
  state.counters["T"] =
      static_cast<double>(t.config.total_iters_t());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TriageScan)->Arg(8)->Arg(32)->Arg(128);

// 10^5 queued sample deletions (250 clients x 400 of their 500 samples),
// submitted with O(1) validation and flushed as ONE transactional batch
// with at most one replay. Counters report the coalescing factor
// (requests per replay) and the replay amortization (iterations a
// sequential pass would have replayed vs what the flush replayed).
void BM_ServiceStream100k(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Trained> t = Train(/*clients=*/250, /*n=*/500,
                                       /*rounds=*/4, /*e=*/2, /*k=*/16,
                                       /*b=*/4);
    std::vector<UnlearningRequest> requests;
    requests.reserve(250 * 400);
    for (int64_t client = 0; client < 250; ++client) {
      for (int64_t index = 0; index < 400; ++index) {
        UnlearningRequest request;
        request.kind = UnlearningRequest::Kind::kSample;
        request.sample = {client, index};
        request.request_iter = t->config.total_iters_t();
        requests.push_back(request);
      }
    }
    UnlearningService service(t->trainer.get());
    state.ResumeTiming();
    const ServiceFlushStats stats = service.ExecuteStream(requests).value();
    state.counters["requests"] = static_cast<double>(stats.requests);
    state.counters["replays"] = static_cast<double>(stats.replays);
    state.counters["coalescing_factor"] =
        static_cast<double>(stats.requests) /
        static_cast<double>(std::max<int64_t>(1, stats.replays));
    state.counters["replayed_iters"] =
        static_cast<double>(stats.replayed_iterations);
    state.counters["sequential_replayed_iters"] =
        static_cast<double>(stats.sequential_replayed_iterations);
  }
  state.SetItemsProcessed(state.iterations() * 250 * 400);
}
BENCHMARK(BM_ServiceStream100k)->Unit(benchmark::kMillisecond);

// Replay amortization vs coalesce window: the same 512-request stream
// flushed every `window` requests. Larger windows -> fewer replays ->
// less total replayed work, identical final model.
void BM_FlushWindow(benchmark::State& state) {
  const int64_t window = state.range(0);
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<Trained> t = Train(/*clients=*/32, /*n=*/32,
                                       /*rounds=*/4, /*e=*/2, /*k=*/8,
                                       /*b=*/4);
    std::vector<UnlearningRequest> requests;
    for (int64_t client = 0; client < 32; ++client) {
      for (int64_t index = 0; index < 16; ++index) {
        UnlearningRequest request;
        request.kind = UnlearningRequest::Kind::kSample;
        request.sample = {client, index};
        request.request_iter = t->config.total_iters_t();
        requests.push_back(request);
      }
    }
    UnlearningService service(t->trainer.get());
    state.ResumeTiming();
    const ServiceFlushStats stats =
        service.ExecuteStream(requests, window).value();
    state.counters["replays"] = static_cast<double>(stats.replays);
    state.counters["replayed_iters"] =
        static_cast<double>(stats.replayed_iterations);
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_FlushWindow)->Arg(1)->Arg(16)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  return fats::bench::RunBenchmarks(argc, argv);
}
