// fats_e2ebench: the end-to-end benchmark of the FATS library.
//
// One process runs one workload: it builds the data and the trainer
// (set-up), trains round by round through FatsTrainer::TrainUntil, then
// serves a fixed deletion stream through UnlearningService::Submit/Flush in
// a closed loop (one caller; w requests, then Flush). It checks the outputs
// and prints one JSON line of metrics last. The work is a pure function of
// (workload, seed, seconds): the request plan is drawn from the seed before
// the stream starts and windows close on count, never on time.
//
//   fats_e2ebench --workload=unlearn_stream --seed=3 --seconds=20
//                 --trace=0 --state-dir=.bench_build/e2e
//
// --trace=1 attaches a timing TrainEventSink to two training rounds in three
// and to every flush and adds direct calls into each layer; it prints the
// per-layer metrics instead of the end-to-end ones. See README.md.

#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/fats_trainer.h"
#include "core/unlearning_service.h"
#include "data/paper_configs.h"
#include "io/train_journal.h"
#include "layer_probes.h"
#include "rng/rng_stream.h"
#include "timing_sink.h"
#include "util/crc32.h"
#include "util/flags.h"

#ifndef FATS_E2E_BUILD_TYPE
#define FATS_E2E_BUILD_TYPE "unknown"
#endif
#ifndef FATS_E2E_COMPILER
#define FATS_E2E_COMPILER "unknown"
#endif

namespace fats::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Workloads

// One workload: the shape of one instance and how many instances a run
// makes. Instance i of a run with seed s uses seed 1000*s + i for its data,
// its training and its deletion plan, so a run averages over independent
// instances while staying a pure function of (workload, seed, seconds).
struct Workload {
  std::string name;
  DatasetProfile profile;
  bool lazy = false;  // lazy shards, 64 kept resident
  bool spill = false;
  int64_t block_iters = 32;
  int64_t resident_sealed = 8;
  int64_t decoded_cache = 8;
  bool journal = false;
  // Deletion stream: `flushes` windows of `window` requests each.
  int64_t flushes = 0;
  int64_t window = 0;
  // true: delete samples of the earliest recorded mini-batches (the oldest
  // data first). false: draw targets uniformly from the federation, every
  // tenth request a client removal.
  bool oldest_first = false;
  double accuracy_floor = 0.0;
  int64_t instances = 1;
};

// Back-to-back constructions per instance in set-up (the last one is kept).
constexpr int kSetupReps = 3;

// Training rounds between two choices of the quietest CPU.
constexpr int64_t kRoundsPerPin = 20;

// Every timed metric is reported at this clock (see RefNowNs): the rate
// ClockGhz reads on an idle core of the 4-vCPU VM the benchmark was sized
// on, so the figures are what the work takes there unshared.
constexpr double kReferenceGhz = 2.4;
// Dependent adds per clock reading when choosing a CPU (7 us at 2.4 GHz),
// and per reading of the cycle counter's tick (1.7 us).
constexpr int kClockChain = 16384;
constexpr int kTickChain = 4096;
// The cycle counter's tick period.
constexpr int64_t kTickNs = 2'000'000;

// Instances for a run of `seconds`, at `per_instance_s` seconds each as
// measured on the reference machine (see README.md); at least `floor`.
int64_t Instances(double per_instance_s, int64_t seconds, int64_t floor) {
  return std::max<int64_t>(
      floor, static_cast<int64_t>(static_cast<double>(seconds) /
                                  per_instance_s));
}

Result<Workload> MakeWorkload(const std::string& name, int64_t seconds,
                              bool tiny) {
  Workload w;
  w.name = name;
  if (name == "train_cnn") {
    // Compute-bound: FEMNIST-like per-client style warp, 8x8 CNN, 16
    // classes, eager data, resident history, clean wire, no journal.
    w.profile = ScaledProfile("femnist").value();
    w.profile.clients_per_round_k = 8;
    w.profile.local_iters_e = 8;
    w.profile.batch_b = 16;
    w.profile.rounds_r = tiny ? 3 : 100;
    // Its deletion stream deletes the oldest samples (round 1 first), so
    // every flush replays the whole run (rho >> 1 here anyway).
    w.flushes = 2;
    w.window = tiny ? 4 : 25;
    w.oldest_first = true;
    w.instances = tiny ? 2 : Instances(3.3, seconds, 2);
  } else if (name == "million_clients") {
    // The million_client_fats shape at one thread: M = 10^6 lazy clients,
    // spill tier on with one resident sealed block. With rho << 1 almost
    // no uniformly drawn target was ever used, so its stream, too, deletes
    // the oldest samples: a full replay at a million clients per flush.
    w.profile = ScaledProfile("mnist").value();
    w.profile.clients_m = tiny ? 20000 : 1000000;
    w.profile.samples_per_client_n = 8;
    w.profile.clients_per_round_k = 32;
    w.profile.local_iters_e = 2;
    w.profile.batch_b = 4;
    w.profile.test_size = 64;
    w.profile.rounds_r = tiny ? 3 : 100;
    w.lazy = true;
    w.spill = true;
    w.block_iters = 1;
    w.resident_sealed = 1;
    w.decoded_cache = 4;
    w.flushes = 2;
    w.window = tiny ? 4 : 25;
    w.oldest_first = true;
    w.instances = tiny ? 2 : Instances(2.8, seconds, 2);
  } else if (name == "unlearn_stream") {
    // MNIST-like CNN at the paper's stability regime rho_C = K*R/M = 0.5,
    // rho_S = b*K*T/(M*N) = 0.25. Journaled (sync, fsync every round),
    // spill tier on with small budgets. M = 2*F*w keeps each instance's
    // stream within 5% of its clients and samples (9 sample deletions per
    // client removal), so flush cost stays stationary.
    w.profile = ScaledProfile("mnist").value();
    w.flushes = tiny ? 2 : 25;
    w.window = 8;
    w.profile.clients_m = tiny ? 320 : 2 * w.flushes * w.window;
    w.profile.samples_per_client_n = 16;
    w.profile.clients_per_round_k = 8;
    w.profile.local_iters_e = 2;
    w.profile.batch_b = 4;
    w.profile.rounds_r =
        w.profile.clients_m / (2 * w.profile.clients_per_round_k);
    w.journal = true;
    w.spill = true;
    w.block_iters = 2;
    w.resident_sealed = 2;
    w.decoded_cache = 2;
    w.instances = tiny ? 2 : Instances(1.7, seconds, 4);
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  w.accuracy_floor = tiny ? 0.0 : 0.5;
  return w;
}

FatsConfig MakeConfig(const Workload& w, uint64_t seed,
                      const std::string& spill_dir) {
  FatsConfig config = FatsConfig::FromProfile(w.profile);
  config.seed = seed;
  config.num_threads = 1;
  if (w.spill) config.state_spill_dir = spill_dir;
  config.state_block_iters = w.block_iters;
  config.state_resident_sealed_blocks = w.resident_sealed;
  config.state_decoded_cache_blocks = w.decoded_cache;
  return config;
}

// Everything set-up builds. Members are destroyed session -> trainer -> data.
struct Instance {
  FederatedDataset data;
  std::unique_ptr<FatsTrainer> trainer;
  std::unique_ptr<DurableTrainingSession> session;
};

struct Paths {
  std::string root;  // fresh per run, removed at exit
  std::string spill;
  std::string checkpoint;
  std::string journal;
};

// Removes the run's temporary root on every exit path.
class TempRoot {
 public:
  explicit TempRoot(std::string path) : path_(std::move(path)) {}
  ~TempRoot() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  TempRoot(const TempRoot&) = delete;
  TempRoot& operator=(const TempRoot&) = delete;

 private:
  std::string path_;
};

Result<std::unique_ptr<Instance>> BuildInstance(const Workload& w,
                                                const FatsConfig& config,
                                                uint64_t seed,
                                                const Paths& paths,
                                                double* data_build_ms) {
  auto inst = std::make_unique<Instance>();
  const int64_t t0 = NowNs();
  if (w.lazy) {
    LazyDatasetOptions options;
    options.shard_cache_capacity = 64;
    inst->data = BuildLazyFederatedData(w.profile, seed, options);
  } else {
    inst->data = BuildFederatedData(w.profile, seed);
  }
  *data_build_ms = static_cast<double>(NowNs() - t0) / 1e6;
  inst->trainer =
      std::make_unique<FatsTrainer>(w.profile.model, config, &inst->data);
  if (w.journal) {
    FATS_ASSIGN_OR_RETURN(inst->session,
                          DurableTrainingSession::Open(
                              paths.checkpoint, paths.journal,
                              inst->trainer.get(), DurableOptions{}));
  }
  return inst;
}

// ---------------------------------------------------------------------------
// The deletion stream's request plan: a pure function of (seed, dataset).

// Draws `count` distinct deletion targets. Every `client_every`-th request
// removes a client (0: none do); the others delete one sample of a client
// the plan never removes, with no client losing more than a quarter of its
// samples. Targets are drawn uniformly from the active clients and samples,
// or, when `pool` is given, from its samples (and never clients).
std::vector<UnlearningRequest> MakePlan(const FederatedDataset& data,
                                        const std::vector<SampleRef>* pool,
                                        int64_t count, int64_t client_every,
                                        int64_t request_iter, uint64_t seed) {
  const int64_t clients = client_every > 0 ? count / client_every : 0;
  const int64_t m = data.num_clients();
  RngStream rng(seed * 0x2545F4914F6CDD1Dull + 0x5EED);
  auto below = [&rng](int64_t n) {
    return static_cast<int64_t>(rng.UniformInt(static_cast<uint64_t>(n)));
  };
  std::set<int64_t> removed;
  std::vector<int64_t> removed_order;
  while (static_cast<int64_t>(removed_order.size()) < clients) {
    const int64_t k = below(m);
    if (data.client_active(k) && removed.insert(k).second) {
      removed_order.push_back(k);
    }
  }
  std::vector<SampleRef> targets;
  std::set<std::pair<int64_t, int64_t>> chosen;
  std::map<int64_t, int64_t> per_client;
  for (int64_t draws = 0; static_cast<int64_t>(targets.size()) < count - clients;
       ++draws) {
    FATS_CHECK_LT(draws, 1000 * count) << "cannot draw the deletion plan";
    SampleRef ref;
    if (pool != nullptr) {
      ref = (*pool)[static_cast<size_t>(
          below(static_cast<int64_t>(pool->size())))];
    } else {
      ref.client = below(m);
      ref.index = below(data.samples_of(ref.client));
    }
    if (removed.count(ref.client) != 0 || !data.client_active(ref.client) ||
        !data.sample_active(ref.client, ref.index) ||
        per_client[ref.client] + 1 > data.samples_of(ref.client) / 4 ||
        !chosen.emplace(ref.client, ref.index).second) {
      continue;
    }
    ++per_client[ref.client];
    targets.push_back(ref);
  }
  std::vector<UnlearningRequest> plan;
  size_t next_client = 0;
  size_t next_sample = 0;
  for (int64_t i = 0; i < count; ++i) {
    UnlearningRequest request;
    request.request_iter = request_iter;
    if (client_every > 0 && i % client_every == client_every - 1) {
      request.kind = UnlearningRequest::Kind::kClient;
      request.client = removed_order[next_client++];
    } else {
      request.kind = UnlearningRequest::Kind::kSample;
      request.sample = targets[next_sample++];
    }
    plan.push_back(request);
  }
  return plan;
}

// The distinct samples used by the earliest recorded rounds: round 1, plus
// as many following rounds as it takes for `count` targets to fit under
// MakePlan's per-client cap with room to spare.
std::vector<SampleRef> EarliestSamples(const StateStore& store,
                                       const FederatedDataset& data,
                                       int64_t local_iters_e, int64_t count) {
  std::vector<std::pair<int64_t, int64_t>> keys = store.MinibatchKeys();
  std::sort(keys.begin(), keys.end());
  std::vector<SampleRef> pool;
  std::set<std::pair<int64_t, int64_t>> seen;
  std::map<int64_t, int64_t> per_client;
  int64_t capacity = 0;
  for (const auto& [iter, client] : keys) {
    if (iter % local_iters_e == 1 % local_iters_e && capacity >= 2 * count) {
      break;  // a round boundary with enough targets
    }
    for (int64_t index : *store.GetMinibatch(iter, client)) {
      if (!seen.emplace(client, index).second) continue;
      pool.push_back({client, index});
      if (++per_client[client] <= data.samples_of(client) / 4) ++capacity;
    }
  }
  return pool;
}

// ---------------------------------------------------------------------------
// Statistics and reporting

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// Peak resident set size (the kernel's VmHWM) in MiB.
double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return -1.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// nproc busy loops against one: how many cores this process really gets.
double EffectiveParallelism(int nproc) {
  auto spin = [] {
    uint64_t x = 1;
    for (int64_t i = 0; i < 40'000'000; ++i) x = x * 6364136223846793005ull + 1;
    std::atomic_signal_fence(std::memory_order_seq_cst);
    return x;
  };
  std::atomic<uint64_t> sink{0};
  int64_t t0 = NowNs();
  sink += spin();
  const double one = static_cast<double>(NowNs() - t0);
  t0 = NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < nproc; ++i) threads.emplace_back([&] { sink += spin(); });
  for (std::thread& t : threads) t.join();
  const double all = static_cast<double>(NowNs() - t0);
  return static_cast<double>(nproc) * one / all;
}

// The rate of a chain of `adds` dependent integer adds, in adds per ns. One
// add takes one cycle, so this is the clock, in GHz, that the thread gets
// right now. On a shared host it moves by up to 2x within seconds, and
// every core-bound part of the workload moves with it.
double ChainGhz(int adds) {
  uint64_t x = 0;
  const int64_t t0 = NowNs();
  for (int i = 0; i < adds; ++i) {
    x += static_cast<uint64_t>(i);
    asm volatile("" : "+r"(x));  // keeps each add dependent and in place
  }
  const int64_t ns = std::max<int64_t>(1, NowNs() - t0);
  return static_cast<double>(adds) / static_cast<double>(ns);
}

// The best of three readings, which keeps an interrupt out of it.
double ClockGhz() {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) best = std::max(best, ChainGhz(kClockChain));
  return best;
}

// Moves the calling thread to the allowed CPU whose clock reads fastest right
// now. On a host that shares its cores with other tenants, the vCPUs slow
// down independently of each other and for seconds at a time; re-choosing
// the CPU between rounds and flushes keeps the timed work off the busiest
// ones, and keeps the thread on one CPU through each interval. Called only
// between timed intervals.
void PinQuietestCpu() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
    return set;
  }();
  auto pin = [](int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  };
  int best = -1;
  double best_ghz = 0.0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || !pin(cpu)) continue;
    const double ghz = ClockGhz();
    if (ghz > best_ghz) {
      best = cpu;
      best_ghz = ghz;
    }
  }
  if (best >= 0) pin(best);
}

// A software cycle counter for the benchmark thread. A timer interrupts the
// thread every kTickNs; the handler reads the clock with a short add chain
// and adds the wall time since the previous tick, weighted by the mean of
// the two readings, to the count. RefNowNs() is the count so far in
// reference-clock nanoseconds, so an interval measured as the difference of
// two readings is the time its cycles take at kReferenceGhz, whatever the
// clock did inside it. The handler interrupts only this thread; the state is
// lock-free atomics, and `seq` tells a reader that a tick came in between.
namespace cycle_counter {

std::atomic<uint64_t> seq{0};
std::atomic<int64_t> tick_ns{0};  // wall time of the last tick
std::atomic<double> tick_ghz{0.0};  // the clock read at the last tick
std::atomic<double> ref_ns{0.0};  // the count at the last tick
std::atomic<int64_t> ticks{0};
timer_t timer;

void OnTick(int) {
  const int saved_errno = errno;
  const int64_t now = NowNs();
  const double ghz = ChainGhz(kTickChain);
  const double span = static_cast<double>(
      now - tick_ns.load(std::memory_order_relaxed));
  ref_ns.store(ref_ns.load(std::memory_order_relaxed) +
                   span * (tick_ghz.load(std::memory_order_relaxed) + ghz) /
                       (2.0 * kReferenceGhz),
               std::memory_order_relaxed);
  tick_ns.store(now, std::memory_order_relaxed);
  tick_ghz.store(ghz, std::memory_order_relaxed);
  ticks.fetch_add(1, std::memory_order_relaxed);
  seq.fetch_add(1, std::memory_order_release);
  errno = saved_errno;
}

// Starts the counter on the calling thread; false (with errno set) if the
// handler or the timer cannot be installed.
bool Start() {
  tick_ns.store(NowNs());
  tick_ghz.store(ClockGhz());
  struct sigaction action = {};
  action.sa_handler = OnTick;
  action.sa_flags = SA_RESTART;
  sigemptyset(&action.sa_mask);
  if (sigaction(SIGRTMIN, &action, nullptr) != 0) return false;
  struct sigevent event = {};
  event.sigev_notify = SIGEV_THREAD_ID;
  event.sigev_signo = SIGRTMIN;
  event._sigev_un._tid = gettid();
  if (timer_create(CLOCK_MONOTONIC, &event, &timer) != 0) return false;
  struct itimerspec period = {};
  period.it_interval.tv_nsec = kTickNs;
  period.it_value.tv_nsec = kTickNs;
  return timer_settime(timer, 0, &period, nullptr) == 0;
}

void Stop() { timer_delete(timer); }

}  // namespace cycle_counter

// The cycle counter's reading now, in reference-clock nanoseconds.
double RefNowNs() {
  using namespace cycle_counter;
  for (;;) {
    const uint64_t before = seq.load(std::memory_order_acquire);
    const int64_t at = tick_ns.load(std::memory_order_relaxed);
    const double ghz = tick_ghz.load(std::memory_order_relaxed);
    const double count = ref_ns.load(std::memory_order_relaxed);
    const int64_t now = NowNs();
    std::atomic_signal_fence(std::memory_order_seq_cst);
    if (seq.load(std::memory_order_relaxed) == before) {
      return count + static_cast<double>(now - at) * ghz / kReferenceGhz;
    }
  }
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(bool correct, int64_t attempted, int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": ";
    out += FormatNumber(metrics[i].value);
    out += ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

// Compares this run's timing-independent fingerprint with the one recorded
// by the first run of the same key (workload, seed, seconds, shape, code);
// records it if this is the first. Returns false on a mismatch.
bool CheckLedger(const std::string& dir, const std::string& key,
                 const std::string& fingerprint, std::string* message) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  const std::string path = dir + "/" + key + ".txt";
  std::ifstream in(path);
  if (in) {
    std::string recorded;
    std::getline(in, recorded);
    if (recorded != fingerprint) {
      *message = "work differs from an earlier run of the same seed:\n  was " +
                 recorded + "\n  now " + fingerprint;
      return false;
    }
    *message = "identical to the recorded run of this seed";
    return true;
  }
  std::ofstream out(path);
  out << fingerprint << "\n";
  *message = out ? "recorded (first run of this seed)" : "could not record";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// The traced run's per-layer split

// What one instance measured and counted (and, summed, a whole run).
struct InstanceResult {
  // Every time is at the reference clock (RefNowNs).
  std::vector<double> setup_s;  // each back-to-back construction
  std::vector<double> build_ms;
  std::vector<double> round_ms;
  std::vector<double> traced_round_ms;
  std::vector<double> untraced_round_ms;
  double train_s = 0.0;
  int64_t train_samples = 0;
  int64_t rounds = 0;
  int64_t train_comm_bytes = 0;
  transport::ChannelStats channel;
  int64_t shard_generations = 0;
  double resident_mb = 0.0;
  double spilled_mb = 0.0;
  std::vector<double> latency_ms;
  double stream_s = 0.0;
  ServiceFlushStats totals;
  int64_t flushes = 0;
  int64_t stream_comm_bytes = 0;
  double accuracy = 0.0;
  int64_t journal_bytes = 0;
  int64_t rounds_executed = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  std::string fingerprint;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> TraceMetrics(const InstanceResult& in,
                                 const TimingSink& sink,
                                 const ProbeResults& probes) {
  auto at = [](const PhaseTotals& p, Phase phase) {
    return static_cast<double>(p[static_cast<int>(phase)]);
  };
  PhaseTotals train{};
  PhaseTotals flush{};
  double train_wall = 0.0, flush_wall = 0.0;
  double train_passes = 0.0;
  double replay = 0.0, replay_eval = 0.0, replay_journal = 0.0;
  for (const PassTrace& pass : sink.passes()) {
    PhaseTotals& into = pass.pass == PassKind::kTrain ? train : flush;
    for (int i = 0; i < kNumPhases; ++i) into[i] += pass.phases[i];
    if (pass.pass == PassKind::kTrain) {
      train_wall += static_cast<double>(pass.wall_ns);
      train_passes += 1.0;
    } else {
      flush_wall += static_cast<double>(pass.wall_ns);
      replay += static_cast<double>(pass.replay_ns);
      replay_eval += static_cast<double>(pass.replay_eval_ns);
      replay_journal += static_cast<double>(pass.replay_journal_ns);
    }
  }
  // Local SGD per participant, from iterations that do not start a round;
  // the rest of a round-start gap is the broadcast.
  double local_ns = 0.0, local_parts = 0.0, start_ns = 0.0, start_parts = 0.0;
  for (const IterationTrace& it : sink.iterations()) {
    if (it.pass != PassKind::kTrain) continue;
    if (it.round_start) {
      start_ns += static_cast<double>(it.compute_gap_ns);
      start_parts += static_cast<double>(it.participants);
    } else {
      local_ns += static_cast<double>(it.compute_gap_ns);
      local_parts += static_cast<double>(it.participants);
    }
  }
  const double step_ns = Ratio(local_ns, local_parts);
  const double downlink_ns = start_ns - start_parts * step_ns;
  const double aggregate_ns = probes.tree_aggregate_us * 1e3 * train_passes;
  const double rounds_traced = static_cast<double>(sink.rounds_recorded());
  const double requests = static_cast<double>(in.totals.requests);
  const double flushes = static_cast<double>(in.flushes);

  // Module shares of the traced training rounds' wall time.
  const double nn = local_ns + start_parts * step_ns;
  const double transport = downlink_ns + at(train, Phase::kUplinkAggregate) -
                           aggregate_ns;
  const double state = at(train, Phase::kCommit) + aggregate_ns;
  const double fl = at(train, Phase::kSelect) + at(train, Phase::kTail) +
                    at(train, Phase::kOther);
  const double eval = at(train, Phase::kEval);
  const double journal = at(train, Phase::kJournal);
  const double remainder =
      train_wall - (nn + transport + state + fl + eval + journal);
  // Shares of the flushes' wall time.
  const double rewrite = at(flush, Phase::kRewrite);
  const double flush_journal = at(flush, Phase::kJournal);
  const double replay_self = replay - replay_eval - replay_journal;
  const double flush_other =
      flush_wall - (rewrite + replay_self + replay_eval + flush_journal);

  auto pct = [](double part, double whole) {
    return whole > 0.0 ? 100.0 * part / whole : 0.0;
  };
  std::printf("trace: %.0f traced rounds (%.3f s), %.0f flushes (%.3f s)\n",
              train_passes, train_wall / 1e9, flushes, flush_wall / 1e9);
  std::printf("shares of traced round time: fl %.1f%%  nn %.1f%%  "
              "transport %.1f%%  state %.1f%%  metrics %.1f%%  io %.1f%%  "
              "unaccounted %.3f ms (%.2f%%)\n",
              pct(fl, train_wall), pct(nn, train_wall),
              pct(transport, train_wall), pct(state, train_wall),
              pct(eval, train_wall), pct(journal, train_wall),
              remainder / 1e6, pct(remainder, train_wall));
  std::printf("shares of flush time: core.rewrite %.1f%%  core.replay %.1f%%  "
              "metrics.eval %.1f%%  io.journal %.1f%%  unaccounted %.3f ms "
              "(%.2f%%)\n",
              pct(rewrite, flush_wall), pct(replay_self, flush_wall),
              pct(replay_eval, flush_wall), pct(flush_journal, flush_wall),
              flush_other / 1e6, pct(flush_other, flush_wall));
  return {
      {"fl.select_ms_per_round", Ratio(at(train, Phase::kSelect), train_passes) / 1e6, "ms"},
      {"fl.local_step_us", step_ns / 1e3, "us"},
      {"nn.step_us", probes.nn_step_us, "us"},
      {"transport.downlink_ms_per_round", Ratio(downlink_ns, train_passes) / 1e6, "ms"},
      {"transport.uplink_aggregate_ms_per_round",
       Ratio(at(train, Phase::kUplinkAggregate), train_passes) / 1e6, "ms"},
      {"transport.deliver_us", probes.deliver_us, "us"},
      {"transport.messages_per_round",
       Ratio(static_cast<double>(in.channel.messages), static_cast<double>(in.rounds)), "count"},
      {"transport.attempts_per_message",
       Ratio(static_cast<double>(in.channel.attempts), static_cast<double>(in.channel.messages)),
       "count"},
      {"util.crc32_mb_per_s", probes.crc32_mb_per_s, "MB/s"},
      {"state.commit_ms_per_round", Ratio(at(train, Phase::kCommit), train_passes) / 1e6, "ms"},
      {"state.tree_aggregate_us", probes.tree_aggregate_us, "us"},
      {"state.history_scan_ms", probes.history_scan_ms, "ms"},
      {"state.resident_mb", in.resident_mb, "MB"},
      {"state.spilled_mb", in.spilled_mb, "MB"},
      {"data.build_ms", Median(in.build_ms), "ms"},
      {"data.shard_generations_per_round",
       Ratio(static_cast<double>(in.shard_generations), static_cast<double>(in.rounds)), "count"},
      {"metrics.eval_ms_per_round",
       Ratio(eval + at(flush, Phase::kEval), rounds_traced) / 1e6, "ms"},
      {"io.journal_ms_per_round", Ratio(journal + flush_journal, rounds_traced) / 1e6, "ms"},
      {"io.journal_bytes_per_round",
       Ratio(static_cast<double>(in.journal_bytes), static_cast<double>(in.rounds_executed)),
       "bytes"},
      {"core.submit_us", probes.submit_us, "us"},
      {"core.triage_ns", probes.triage_ns, "ns"},
      {"core.rewrite_ms_per_flush", Ratio(rewrite, flushes) / 1e6, "ms"},
      {"core.replay_ms_per_flush", Ratio(replay, flushes) / 1e6, "ms"},
      {"core.triggered_fraction",
       Ratio(static_cast<double>(in.totals.triggered_requests), requests), "fraction"},
      {"core.coalescing_factor",
       Ratio(static_cast<double>(in.totals.sequential_replayed_iterations),
             static_cast<double>(in.totals.replayed_iterations)),
       "ratio"},
      {"core.substituted_batches_per_request",
       Ratio(static_cast<double>(in.totals.substituted_batches), requests), "count"},
      {"core.redrawn_rounds_per_request",
       Ratio(static_cast<double>(in.totals.redrawn_rounds), requests), "count"},
      {"trace.overhead_pct",
       100.0 * (Ratio(Median(in.traced_round_ms),
                      Median(in.untraced_round_ms)) - 1.0),
       "%"},
  };
}

struct Args {
  std::string workload;
  int64_t seed = 1;
  int64_t seconds = 10;
  bool trace = false;
  std::string state_dir;
  std::string code;
  bool tiny = false;
};


// Builds, trains and serves one instance. With `sink`, two rounds in three
// and every flush are traced; with `probes`, the layer probes run on the
// instance's final state.
InstanceResult RunInstance(const Workload& w, uint64_t seed,
                           const Paths& paths, TimingSink* sink,
                           ProbeResults* probes) {
  InstanceResult res;
  std::error_code ec;
  const FatsConfig config = MakeConfig(w, seed, paths.spill);
  const int64_t e = config.local_iters_e;

  // ---- Set-up: back-to-back constructions of the same inputs; keep the
  // last.
  std::unique_ptr<Instance> inst;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    inst.reset();
    fs::remove(paths.checkpoint, ec);
    fs::remove(paths.journal, ec);
    double build_ms = 0.0;
    const double t0 = RefNowNs();
    Result<std::unique_ptr<Instance>> built =
        BuildInstance(w, config, seed, paths, &build_ms);
    const double setup_ns = RefNowNs() - t0;
    if (!built.ok()) {
      res.failures.push_back("set-up failed: " + built.status().ToString());
      ++res.failed;
      return res;
    }
    inst = std::move(built).value();
    res.setup_s.push_back(setup_ns / 1e9);
    res.build_ms.push_back(build_ms);
  }
  FatsTrainer& trainer = *inst->trainer;
  TrainEventSink* base_sink = inst->session.get();
  if (sink != nullptr) sink->set_forward(base_sink);

  // ---- Training: one TrainUntil call per round. The traced run leaves
  // every third round untraced for trace.overhead_pct. Not every other
  // round: history blocks hold a power of two of iterations, and the round
  // that seals one is dearer, so a period of 2 would bias the comparison.
  for (int64_t r = 1; r <= config.rounds_r; ++r) {
    if (r % kRoundsPerPin == 1) PinQuietestCpu();
    const bool traced = sink != nullptr && r % 3 != 0;
    trainer.set_event_sink(traced ? sink : base_sink);
    if (traced) sink->BeginPass(PassKind::kTrain, r);
    const int64_t t0 = NowNs();
    const double ref0 = RefNowNs();
    trainer.TrainUntil(r * e);
    const double ms = (RefNowNs() - ref0) / 1e6;
    if (traced) sink->EndPass(NowNs() - t0);
    ++res.attempted;
    res.round_ms.push_back(ms);
    (traced ? res.traced_round_ms : res.untraced_round_ms).push_back(ms);
    res.train_s += ms / 1e3;
  }
  trainer.set_event_sink(base_sink);
  res.rounds = config.rounds_r;
  res.train_samples = trainer.local_iterations_executed() * trainer.b();
  res.train_comm_bytes = trainer.comm_stats().total_bytes();
  res.channel = trainer.channel().stats();
  res.shard_generations = inst->data.shard_generations();
  res.resident_mb =
      static_cast<double>(trainer.store().ApproxBytes()) / (1024.0 * 1024.0);
  res.spilled_mb =
      static_cast<double>(trainer.store().SpilledBytes()) / (1024.0 * 1024.0);

  // ---- Deletion stream: closed loop, one caller, `window` requests then
  // Flush. The plan is fixed before the stream starts.
  const int64_t requests = w.flushes * w.window;
  std::vector<SampleRef> pool;
  if (w.oldest_first) {
    pool = EarliestSamples(trainer.store(), inst->data, e, requests);
  }
  const std::vector<UnlearningRequest> plan =
      MakePlan(inst->data, w.oldest_first ? &pool : nullptr, requests,
               w.oldest_first ? 0 : 10, trainer.trained_through(), seed);
  int64_t plan_clients = 0;
  for (const UnlearningRequest& request : plan) {
    if (request.kind == UnlearningRequest::Kind::kClient) ++plan_clients;
  }
  if (plan_clients * 20 > inst->data.num_clients() ||
      (requests - plan_clients) * 20 > inst->data.total_active_samples()) {
    res.failures.push_back("deletion plan exceeds 5% of clients or samples");
  }

  UnlearningService service(&trainer);
  if (sink != nullptr) trainer.set_event_sink(sink);
  const int64_t comm_before = trainer.comm_stats().total_bytes();
  std::vector<double> submit_ns(static_cast<size_t>(w.window));
  for (int64_t f = 0; f < w.flushes; ++f) {
    PinQuietestCpu();
    const double window_ns = RefNowNs();
    for (int64_t i = 0; i < w.window; ++i) {
      submit_ns[static_cast<size_t>(i)] = RefNowNs();
      ++res.attempted;
      const Status status =
          service.Submit(plan[static_cast<size_t>(f * w.window + i)]);
      if (!status.ok()) {
        ++res.failed;
        res.failures.push_back("submit rejected: " + status.ToString());
      }
    }
    if (sink != nullptr) sink->BeginPass(PassKind::kFlush, f);
    const int64_t t0 = NowNs();
    Result<ServiceFlushStats> flushed = service.Flush();
    const int64_t t1 = NowNs();
    const double flushed_ns = RefNowNs();
    res.stream_s += (flushed_ns - window_ns) / 1e9;
    if (sink != nullptr) sink->EndPass(t1 - t0);
    ++res.attempted;
    if (!flushed.ok()) {
      ++res.failed;
      res.failures.push_back("flush failed: " + flushed.status().ToString());
      continue;
    }
    ++res.flushes;
    res.totals.Accumulate(*flushed);
    for (int64_t i = 0; i < w.window; ++i) {
      res.latency_ms.push_back(
          (flushed_ns - submit_ns[static_cast<size_t>(i)]) / 1e6);
    }
  }
  trainer.set_event_sink(base_sink);
  res.stream_comm_bytes = trainer.comm_stats().total_bytes() - comm_before;

  // ---- Output checks: every deleted target is gone from the recorded
  // history, the participation index matches the records, the model still
  // learns, and the journal stayed healthy.
  const StateStore& store = trainer.store();
  int64_t remembered = 0;
  for (const UnlearningRequest& request : plan) {
    const bool forgotten =
        request.kind == UnlearningRequest::Kind::kSample
            ? store.EarliestSampleUse(request.sample) == -1 &&
                  !inst->data.sample_active(request.sample.client,
                                            request.sample.index)
            : store.EarliestClientRound(request.client) == -1 &&
                  !inst->data.client_active(request.client);
    if (!forgotten) ++remembered;
  }
  if (remembered > 0) {
    res.failures.push_back(std::to_string(remembered) +
                           " deleted targets still in the recorded history");
  }
  if (!store.IndicesConsistentWithRecords()) {
    res.failures.push_back("participation index disagrees with the records");
  }
  res.accuracy = trainer.EvaluateTestAccuracy();
  if (!(res.accuracy >= w.accuracy_floor)) {
    res.failures.push_back("test accuracy " + FormatNumber(res.accuracy) +
                           " below the floor " +
                           FormatNumber(w.accuracy_floor));
  }
  if (inst->session != nullptr && !inst->session->status().ok()) {
    res.failures.push_back("journal error: " +
                           inst->session->status().ToString());
  }
  const Tensor params = trainer.global_params();
  const uint32_t crc = Crc32(
      params.data(), static_cast<size_t>(params.size()) * sizeof(float));
  if (w.journal) {
    res.journal_bytes = static_cast<int64_t>(fs::file_size(paths.journal, ec));
  }
  res.rounds_executed = static_cast<int64_t>(trainer.log().records().size());

  char crc_hex[16];
  std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc);
  std::ostringstream fp;
  fp << "crc=" << crc_hex << " steps=" << trainer.local_iterations_executed()
     << " comm=" << res.train_comm_bytes << " msgs=" << res.channel.messages
     << " attempts=" << res.channel.attempts
     << " shards=" << res.shard_generations << " flushes=" << res.flushes
     << " requests=" << res.totals.requests
     << " triggered=" << res.totals.triggered_requests
     << " substituted=" << res.totals.substituted_batches
     << " redrawn=" << res.totals.redrawn_rounds
     << " replayed=" << res.totals.replayed_iterations
     << " sequential=" << res.totals.sequential_replayed_iterations
     << " stream_comm=" << res.stream_comm_bytes
     << " rounds_executed=" << res.rounds_executed
     << " journal=" << res.journal_bytes;
  res.fingerprint = fp.str();

  if (probes != nullptr) {
    // Valid requests for the probe service, drawn from what is still
    // active after the stream.
    const std::vector<UnlearningRequest> probe_plan = MakePlan(
        inst->data, nullptr, 40, 10, trainer.trained_through(), ~seed);
    *probes = RunLayerProbes(w.profile.model, &trainer, probe_plan);
    if (probes->rejected_submits > 0) {
      res.failures.push_back("probe requests rejected by Submit");
    }
  }
  return res;
}

int Run(const Args& args) {
  const std::string build_type = FATS_E2E_BUILD_TYPE;
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "fats_e2ebench: refusing an unoptimized build (%s)\n",
               build_type.c_str());
  return 2;
#endif
  if (build_type.find("Debug") != std::string::npos) {
    std::fprintf(stderr, "fats_e2ebench: refusing a Debug build\n");
    return 2;
  }
  Result<Workload> made = MakeWorkload(args.workload, args.seconds, args.tiny);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.status().ToString().c_str());
    return 2;
  }
  const Workload w = *made;
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::printf("context: workload=%s seed=%lld seconds=%lld trace=%d tiny=%d "
              "instances=%lld nproc=%d effective_parallelism=%.2f build=%s "
              "compiler=\"%s\"\n",
              w.name.c_str(), static_cast<long long>(args.seed),
              static_cast<long long>(args.seconds), args.trace ? 1 : 0,
              args.tiny ? 1 : 0, static_cast<long long>(w.instances), nproc,
              EffectiveParallelism(nproc), build_type.c_str(),
              FATS_E2E_COMPILER);

  // A fresh temporary root for spill segments and the journal, removed on
  // every exit path (SegmentSpiller does not create parent directories).
  std::error_code ec;
  fs::create_directories(args.state_dir, ec);
  std::string root_template = args.state_dir + "/run-XXXXXX";
  std::vector<char> root_buf(root_template.begin(), root_template.end());
  root_buf.push_back('\0');
  if (mkdtemp(root_buf.data()) == nullptr) {
    std::fprintf(stderr, "cannot create a temporary root under %s\n",
                 args.state_dir.c_str());
    return 2;
  }
  Paths paths;
  paths.root = root_buf.data();
  TempRoot temp_root(paths.root);
  paths.spill = paths.root + "/spill";
  paths.checkpoint = paths.root + "/train.ckpt";
  paths.journal = paths.root + "/train.journal";
  fs::create_directories(paths.spill, ec);

  TimingSink sink(nullptr, w.profile.local_iters_e);
  ProbeResults probes;
  std::vector<InstanceResult> results;
  if (!cycle_counter::Start()) {
    std::perror("fats_e2ebench: cannot start the cycle counter");
    return 2;
  }
  const int64_t wall0 = NowNs();
  const double ref0 = RefNowNs();
  for (int64_t i = 0; i < w.instances; ++i) {
    const uint64_t seed = static_cast<uint64_t>(args.seed) * 1000 +
                          static_cast<uint64_t>(i);
    const bool last = i + 1 == w.instances;
    PinQuietestCpu();
    results.push_back(RunInstance(w, seed, paths,
                                  args.trace ? &sink : nullptr,
                                  args.trace && last ? &probes : nullptr));
  }
  const double wall_s = static_cast<double>(NowNs() - wall0) / 1e9;
  const double ref_s = (RefNowNs() - ref0) / 1e9;
  cycle_counter::Stop();
  std::printf("clock: %.3f GHz on average over %.3f s of wall time (%lld "
              "ticks); every time below is at the %.1f GHz reference clock "
              "(%.3f s)\n",
              ref_s * kReferenceGhz / wall_s, wall_s,
              static_cast<long long>(cycle_counter::ticks.load()),
              kReferenceGhz, ref_s);

  // ---- Pool the instances.
  InstanceResult all;
  std::vector<double> train_rates;
  std::vector<double> unlearn_rates;
  double accuracy_sum = 0.0;
  uint32_t fingerprint_crc = 0;
  for (const InstanceResult& r : results) {
    auto append = [](std::vector<double>* to, const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    append(&all.setup_s, r.setup_s);
    append(&all.build_ms, r.build_ms);
    append(&all.round_ms, r.round_ms);
    append(&all.traced_round_ms, r.traced_round_ms);
    append(&all.untraced_round_ms, r.untraced_round_ms);
    append(&all.latency_ms, r.latency_ms);
    all.rounds += r.rounds;
    all.train_comm_bytes += r.train_comm_bytes;
    all.channel.messages += r.channel.messages;
    all.channel.attempts += r.channel.attempts;
    all.shard_generations += r.shard_generations;
    all.resident_mb = std::max(all.resident_mb, r.resident_mb);
    all.spilled_mb = std::max(all.spilled_mb, r.spilled_mb);
    all.totals.Accumulate(r.totals);
    all.flushes += r.flushes;
    all.stream_comm_bytes += r.stream_comm_bytes;
    all.journal_bytes += r.journal_bytes;
    all.rounds_executed += r.rounds_executed;
    all.attempted += r.attempted;
    all.failed += r.failed;
    if (r.train_s > 0.0) {
      train_rates.push_back(static_cast<double>(r.train_samples) / r.train_s);
    }
    if (r.stream_s > 0.0) {
      unlearn_rates.push_back(static_cast<double>(r.totals.requests) /
                              r.stream_s);
    }
    accuracy_sum += r.accuracy;
    for (const std::string& f : r.failures) all.failures.push_back(f);
    fingerprint_crc =
        Crc32(r.fingerprint.data(), r.fingerprint.size(), fingerprint_crc);
    std::printf("instance: %s\n", r.fingerprint.c_str());
  }
  const double accuracy = accuracy_sum / static_cast<double>(results.size());

  // The work must not depend on timing: the same (workload, seed, seconds)
  // must reproduce every count and every final model bit for bit.
  char digest[16];
  std::snprintf(digest, sizeof(digest), "%08x", fingerprint_crc);
  const std::string shape = w.profile.ToString() + MakeConfig(w, 0, "").ToString();
  char shape_hex[16];
  std::snprintf(shape_hex, sizeof(shape_hex), "%08x",
                Crc32(shape.data(), shape.size()));
  const std::string key = w.name + "-seed" + std::to_string(args.seed) + "-s" +
                          std::to_string(args.seconds) + "-" + shape_hex +
                          (args.code.empty() ? "" : "-" + args.code);
  std::string ledger_message;
  if (!CheckLedger(args.state_dir + "/ledger", key, digest, &ledger_message)) {
    all.failures.push_back(ledger_message);
  }

  std::printf("work: %lld instances, %lld rounds, %lld flushes, %lld "
              "requests (%lld samples, %lld clients), %lld triggered, %lld "
              "iterations replayed\n",
              static_cast<long long>(results.size()),
              static_cast<long long>(all.rounds),
              static_cast<long long>(all.flushes),
              static_cast<long long>(all.totals.requests),
              static_cast<long long>(all.totals.sample_requests),
              static_cast<long long>(all.totals.client_requests),
              static_cast<long long>(all.totals.triggered_requests),
              static_cast<long long>(all.totals.replayed_iterations));
  std::printf("samples: %zu timed rounds, %zu request latencies over %lld "
              "flushes, %zu set-ups\n",
              all.round_ms.size(), all.latency_ms.size(),
              static_cast<long long>(all.flushes), all.setup_s.size());
  std::printf("work digest: %s (%s)\n", digest, ledger_message.c_str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    const double requests =
        std::max<double>(1.0, static_cast<double>(all.totals.requests));
    metrics = {
        {"setup_s", Median(all.setup_s), "s"},
        {"train_samples_per_s", Median(train_rates), "1/s"},
        {"round_ms_p50", Percentile(all.round_ms, 0.5), "ms"},
        {"round_ms_p90", Percentile(all.round_ms, 0.9), "ms"},
        {"train_comm_bytes_per_round",
         static_cast<double>(all.train_comm_bytes) /
             static_cast<double>(all.rounds),
         "bytes"},
        {"test_accuracy", accuracy, "fraction"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"unlearn_requests_per_s", Median(unlearn_rates), "1/s"},
        {"unlearn_latency_ms_p50", Percentile(all.latency_ms, 0.5), "ms"},
        {"unlearn_latency_ms_p90", Percentile(all.latency_ms, 0.9), "ms"},
        {"unlearn_comm_bytes_per_request",
         static_cast<double>(all.stream_comm_bytes) / requests, "bytes"},
        {"unlearn_replayed_iters_per_request",
         static_cast<double>(all.totals.replayed_iterations) / requests,
         "iterations"},
    };
  } else {
    metrics = TraceMetrics(all, sink, probes);
    fs::create_directories(args.state_dir + "/reports", ec);
    const std::string spans = args.state_dir + "/reports/" + key + ".spans.csv";
    if (!sink.WriteSpans(spans)) {
      all.failures.push_back("could not write " + spans);
    } else {
      std::printf("spans: %zu written to %s\n", sink.spans().size(),
                  spans.c_str());
    }
  }

  const bool correct = all.failures.empty();
  for (const std::string& failure : all.failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  std::printf("checks: %s\n", correct ? "all passed" : "FAILED");
  const std::string json = MetricsJson(correct, all.attempted, all.failed, metrics);
  fs::create_directories(args.state_dir + "/reports", ec);
  std::ofstream(args.state_dir + "/reports/" + key + ".trace" +
                (args.trace ? "1" : "0") + ".json")
      << json << "\n";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fats::e2e

int main(int argc, char** argv) {
  fats::FlagParser flags;
  std::string* workload = flags.AddString(
      "workload", "", "train_cnn | million_clients | unlearn_stream");
  int64_t* seed = flags.AddInt("seed", 1, "workload seed");
  int64_t* seconds =
      flags.AddInt("seconds", 10, "run length the work is sized to");
  int64_t* trace = flags.AddInt("trace", 0, "1: the per-layer (traced) run");
  std::string* state_dir = flags.AddString(
      "state-dir", ".bench_build/e2e",
      "run-local state: temporary roots, the work ledger, reports");
  std::string* code = flags.AddString(
      "code", "", "digest of the sources; keys the work ledger");
  bool* tiny = flags.AddBool("tiny", false, "tiny sizes (smoke test)");
  const fats::Status parsed = flags.Parse(argc, argv);
  if (parsed.code() == fats::StatusCode::kNotFound) return 0;  // --help
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.ToString().c_str());
    return 2;
  }
  fats::e2e::Args args;
  args.workload = *workload;
  args.seed = *seed;
  args.seconds = std::max<int64_t>(1, *seconds);
  args.trace = *trace != 0;
  args.state_dir = *state_dir;
  args.code = *code;
  args.tiny = *tiny;
  return fats::e2e::Run(args);
}
