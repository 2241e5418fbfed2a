// Benchmarks (google-benchmark) for the million-client state layer: index
// codec throughput, tiered history-log append and cold-read costs, sharded
// deterministic tree aggregation, and lazy shard materialization.
//
// Feeds the bench-regression smoke: tools/ci.sh runs this binary with
// --benchmark_out=BENCH_state_current.json and tools/bench_check compares
// the result against the checked-in BENCH_state.json baseline.
//
// The counters tell the memory story the timings alone would hide:
// BM_HistoryLogAppend reports resident_bytes with and without a spill
// tier — the bounded-RSS claim of DESIGN.md §7.8 is that the spilled
// variant's residency stays flat while the record count grows.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/paper_configs.h"
#include "rng/rng_stream.h"
#include "state/history_codec.h"
#include "state/history_log.h"
#include "state/segment_spill.h"
#include "state/tree_aggregate.h"
#include "tensor/tensor.h"
#include "util/thread_pool.h"

namespace fats {
namespace {

using state::HistoryLog;
using state::SegmentSpiller;
using state::SegmentSpillerOptions;

std::string FreshSpillDir(const std::string& name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / ("fats_bench_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// A sorted minibatch-shaped index list: the workload the codec exists for.
std::vector<int64_t> SortedBatch(int64_t n, uint64_t seed) {
  StreamId id;
  id.purpose = RngPurpose::kPartition;
  RngStream rng(seed, id);
  std::vector<int64_t> values;
  values.reserve(static_cast<size_t>(n));
  int64_t v = 0;
  for (int64_t i = 0; i < n; ++i) {
    v += 1 + static_cast<int64_t>(rng.UniformInt(7));
    values.push_back(v);
  }
  return values;
}

void BM_IndexListEncode(benchmark::State& state) {
  const std::vector<int64_t> values = SortedBatch(state.range(0), 3);
  std::string out;
  for (auto _ : state) {
    out.clear();
    state::AppendIndexList(values, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["encoded_bytes"] = static_cast<double>(out.size());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(values.size()) * 8);
}
BENCHMARK(BM_IndexListEncode)->Arg(16)->Arg(64)->Arg(512);

void BM_IndexListDecode(benchmark::State& state) {
  const std::string bytes =
      state::EncodeIndexList(SortedBatch(state.range(0), 3));
  std::vector<int64_t> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(state::DecodeIndexList(bytes, &out).ok());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_IndexListDecode)->Arg(16)->Arg(64)->Arg(512);

// Forward-training append path: iterations × K clients of minibatch lists
// through the tiering state machine. Arg 1 adds the disk tier with a tiny
// resident budget; resident_bytes is the claim under test.
void BM_HistoryLogAppend(benchmark::State& state) {
  const bool spill = state.range(0) != 0;
  const int64_t iters = 512;
  const int64_t clients_per_iter = 8;
  const std::vector<int64_t> batch = SortedBatch(32, 5);
  int64_t resident = 0;
  int64_t spilled_blocks = 0;
  const std::string dir = FreshSpillDir("log_append");
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<SegmentSpiller> spiller;
    if (spill) {
      SegmentSpillerOptions options;
      options.dir = dir;
      spiller = std::make_unique<SegmentSpiller>(options);
      if (!spiller->Open().ok()) state.SkipWithError("spill dir");
    }
    state::HistoryLogOptions options;
    options.block_span = 16;
    options.resident_sealed_blocks = 2;
    options.spiller = spiller.get();
    HistoryLog log(options);
    state.ResumeTiming();
    for (int64_t t = 1; t <= iters; ++t) {
      for (int64_t k = 0; k < clients_per_iter; ++k) {
        log.Save(t, k, batch);
      }
    }
    resident = log.ApproxResidentBytes();
    spilled_blocks = log.num_spilled_blocks();
    state.PauseTiming();
    log.Clear();
    if (spiller != nullptr) spiller->Clear();
    state.ResumeTiming();
  }
  std::filesystem::remove_all(dir);
  state.counters["resident_bytes"] = static_cast<double>(resident);
  state.counters["spilled_blocks"] = static_cast<double>(spilled_blocks);
  state.SetItemsProcessed(state.iterations() * iters * clients_per_iter);
}
BENCHMARK(BM_HistoryLogAppend)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Replay's read pattern: a sequential sweep over history that long left the
// decoded cache, so every block is a decode (and, with Arg 1, a segment
// read + CRC check) on its first touch.
void BM_HistoryLogColdRead(benchmark::State& state) {
  const bool spill = state.range(0) != 0;
  const int64_t iters = 512;
  const std::string dir = FreshSpillDir("log_cold");
  std::unique_ptr<SegmentSpiller> spiller;
  if (spill) {
    SegmentSpillerOptions spill_options;
    spill_options.dir = dir;
    spiller = std::make_unique<SegmentSpiller>(spill_options);
    if (!spiller->Open().ok()) state.SkipWithError("spill dir");
  }
  state::HistoryLogOptions options;
  options.block_span = 16;
  options.resident_sealed_blocks = 2;
  options.decoded_cache_blocks = 2;
  options.spiller = spiller.get();
  HistoryLog log(options);
  const std::vector<int64_t> batch = SortedBatch(32, 5);
  for (int64_t t = 1; t <= iters; ++t) log.Save(t, 0, batch);
  int64_t total = 0;
  for (auto _ : state) {
    for (int64_t t = 1; t <= iters; ++t) {
      const std::vector<int64_t>* value = log.Get(t, 0);
      benchmark::DoNotOptimize(value);
      total += static_cast<int64_t>(value->size());
    }
  }
  benchmark::DoNotOptimize(total);
  log.Clear();
  if (spiller != nullptr) spiller->Clear();
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(state.iterations() * iters);
}
BENCHMARK(BM_HistoryLogColdRead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Sharded deterministic aggregation: K client updates reduced to one
// tensor. Worker count is the sweep — the result is bit-identical across
// it, so the only thing allowed to change is the time.
void BM_TreeAggregate(benchmark::State& state) {
  const int64_t workers = state.range(0);
  const int64_t k = 64;
  const int64_t dim = 1 << 14;
  StreamId id;
  id.purpose = RngPurpose::kPartition;
  RngStream rng(11, id);
  std::vector<Tensor> inputs;
  inputs.reserve(static_cast<size_t>(k));
  for (int64_t i = 0; i < k; ++i) {
    std::vector<float> values(static_cast<size_t>(dim));
    for (float& v : values) v = static_cast<float>(rng.NextGaussian());
    inputs.push_back(Tensor({dim}, std::move(values)));
  }
  std::unique_ptr<ThreadPool> pool;
  if (workers > 1) pool = std::make_unique<ThreadPool>(workers);
  for (auto _ : state) {
    Tensor sum = state::TreeAggregate(inputs, pool.get());
    benchmark::DoNotOptimize(sum.data());
  }
  state.SetBytesProcessed(state.iterations() * k * dim * 4);
}
BENCHMARK(BM_TreeAggregate)->Arg(1)->Arg(4);

// Lazy shard materialization: the per-client generator cost that replaces
// an O(M) upfront build. Items are shards generated; the cache is sized
// below the walk so every touch is a miss (the worst case).
void BM_LazyShardMaterialize(benchmark::State& state) {
  DatasetProfile profile = ScaledProfile("mnist").value();
  profile.clients_m = 64;
  profile.samples_per_client_n = state.range(0);
  profile.test_size = 16;
  LazyDatasetOptions options;
  options.shard_cache_capacity = 8;
  FederatedDataset data = BuildLazyFederatedData(profile, 13, options);
  for (auto _ : state) {
    for (int64_t k = 0; k < profile.clients_m; ++k) {
      benchmark::DoNotOptimize(data.client_data(k).features().data());
    }
  }
  state.SetItemsProcessed(state.iterations() * profile.clients_m);
}
// Arg is the shard size N: 8 is the million_clients shard shape, where any
// per-shard fixed cost (a generator rebuilt per shard, say) stands out; 32
// weighs the per-sample draws.
BENCHMARK(BM_LazyShardMaterialize)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace fats

int main(int argc, char** argv) {
  return fats::bench::RunBenchmarks(argc, argv);
}
