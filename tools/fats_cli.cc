// fats_cli — drive FATS training and exact unlearning from the shell.
//
//   fats_cli train          --profile=mnist --checkpoint=/tmp/m.ckpt
//                           [--rho_s=0.25 --rho_c=0.5 --rounds=N --seed=S]
//                           [--until_iter=t]           (pause mid-training)
//                           [--threads=N]   (parallel, bit-identical results)
//                           [--journal=/tmp/m.jrn]   (crash-exact durability)
//                           [--log_csv=/tmp/m.csv] [--fault_spec=site:n:act]
//                           [--transport_faults=drop=0.2,seed=4]  (lossy wire)
//   fats_cli resume         --profile=mnist --checkpoint=/tmp/m.ckpt
//                           [--until_iter=t]           (continue training)
//   fats_cli unlearn-sample --profile=mnist --checkpoint=/tmp/m.ckpt
//                           --client=3 --index=7
//   fats_cli unlearn-client --profile=mnist --checkpoint=/tmp/m.ckpt
//                           --client=5
//   fats_cli info           --profile=mnist --checkpoint=/tmp/m.ckpt
//
// The dataset is re-materialized from (profile, seed) on every invocation;
// deletions performed by earlier `unlearn-*` invocations are replayed from
// the checkpoint-adjacent deletion journal (<checkpoint>.deletions), so the
// client-side data view stays consistent across process lifetimes.

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "core/unlearning_service.h"
#include "data/paper_configs.h"
#include "io/checkpoint.h"
#include "io/train_journal.h"
#include "metrics/gradient_diversity.h"
#include "metrics/unlearning_metrics.h"
#include "util/flags.h"

namespace fats {
namespace {

struct CliOptions {
  std::string command;
  std::string profile_name;
  std::string checkpoint;
  double rho_s = 0.25;
  double rho_c = 0.5;
  int64_t rounds = 0;   // 0 = profile default
  int64_t seed = 1;
  int64_t until_iter = 0;  // 0 = train to T
  int64_t client = -1;
  int64_t index = -1;
  int64_t threads = 1;  // worker threads; results are thread-count-invariant
  std::string journal;     // journaled crash-exact session when non-empty
  std::string log_csv;     // write the per-round TrainLog here when non-empty
  std::string fault_spec;  // failpoint arming spec (site:hit:action,...)
  std::string transport_faults;  // lossy-wire spec (drop=..,corrupt=..,...)
};

std::string DeletionJournalPath(const std::string& checkpoint) {
  return checkpoint + ".deletions";
}

/// Applies the deletion journal (one "sample <k> <i>" or "client <k>" per
/// line) so the local data view matches what earlier invocations deleted.
Status ReplayDeletions(const std::string& path, FederatedDataset* data) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::OK();  // no journal yet
  std::string kind;
  while (in >> kind) {
    if (kind == "sample") {
      int64_t client = 0;
      int64_t index = 0;
      if (!(in >> client >> index)) {
        return Status::IoError("corrupt deletion journal: " + path);
      }
      FATS_RETURN_NOT_OK(data->RemoveSample({client, index}));
    } else if (kind == "client") {
      int64_t client = 0;
      if (!(in >> client)) {
        return Status::IoError("corrupt deletion journal: " + path);
      }
      FATS_RETURN_NOT_OK(data->RemoveClient(client));
    } else {
      return Status::IoError("unknown journal entry: " + kind);
    }
  }
  return Status::OK();
}

Status AppendDeletion(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app);
  if (!out.is_open()) return Status::IoError("cannot open journal: " + path);
  out << line << "\n";
  return out.good() ? Status::OK()
                    : Status::IoError("journal write failed");
}

Result<DatasetProfile> ResolveProfile(const CliOptions& options) {
  FATS_ASSIGN_OR_RETURN(DatasetProfile profile,
                        ScaledProfile(options.profile_name));
  if (options.rounds > 0) profile.rounds_r = options.rounds;
  return profile;
}

void PrintStatusLine(FatsTrainer* trainer) {
  std::printf("  progress : iteration %lld / %lld (generation %llu)\n",
              static_cast<long long>(trainer->trained_through()),
              static_cast<long long>(trainer->config().total_iters_t()),
              static_cast<unsigned long long>(trainer->generation()));
  // Bit-exact fingerprint of the global model; two runs that should be
  // exactly equal (e.g. crashed-and-recovered vs uninterrupted) print the
  // same hash.
  const Tensor& params = trainer->global_params();
  std::printf("  model    : crc32=%08x (%lld params)\n",
              Crc32(params.data(),
                    static_cast<size_t>(params.size()) * sizeof(float)),
              static_cast<long long>(params.size()));
  std::printf("  accuracy : %.4f\n", trainer->EvaluateTestAccuracy());
  std::printf("  comm     : %s\n",
              trainer->comm_stats().ToString().c_str());
  std::printf("  store    : %lld minibatch records, %lld bytes\n",
              static_cast<long long>(trainer->store().num_minibatch_records()),
              static_cast<long long>(trainer->store().ApproxBytes()));
}

Status RunTrain(const CliOptions& options, bool resume) {
  FATS_ASSIGN_OR_RETURN(DatasetProfile profile, ResolveProfile(options));
  FederatedDataset data =
      BuildFederatedData(profile, static_cast<uint64_t>(options.seed));
  FATS_RETURN_NOT_OK(
      ReplayDeletions(DeletionJournalPath(options.checkpoint), &data));
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.rho_s = options.rho_s;
  config.rho_c = options.rho_c;
  config.seed = static_cast<uint64_t>(options.seed);
  config.num_threads = options.threads;
  config.fault_spec = options.fault_spec;
  config.transport_fault_spec = options.transport_faults;
  FATS_RETURN_NOT_OK(config.Validate());
  FatsTrainer trainer(profile.model, config, &data);

  std::unique_ptr<DurableTrainingSession> session;
  if (!options.journal.empty()) {
    // Journaled mode: Open loads the checkpoint if present, replays the
    // journal's committed prefix, and finishes any interrupted pass — the
    // train/resume distinction collapses into one recovery path.
    FATS_ASSIGN_OR_RETURN(
        session, DurableTrainingSession::Open(options.checkpoint,
                                              options.journal, &trainer));
    if (session->recovered() || trainer.trained_through() > 0) {
      std::printf("recovered from %s + %s at iteration %lld\n",
                  options.checkpoint.c_str(), options.journal.c_str(),
                  static_cast<long long>(trainer.trained_through()));
    } else {
      std::printf("training %s (journaled): %s\n", profile.name.c_str(),
                  config.ToString().c_str());
    }
  } else if (resume) {
    FATS_RETURN_NOT_OK(LoadTrainerCheckpoint(options.checkpoint, &trainer));
    std::printf("resumed from %s at iteration %lld\n",
                options.checkpoint.c_str(),
                static_cast<long long>(trainer.trained_through()));
  } else {
    std::printf("training %s: %s\n", profile.name.c_str(),
                config.ToString().c_str());
  }
  const int64_t requested = options.until_iter > 0 ? options.until_iter
                                                   : config.total_iters_t();
  // Recovery may already have carried training past the requested target.
  const int64_t target = std::max(requested, trainer.trained_through());
  trainer.TrainUntil(target);
  PrintStatusLine(&trainer);
  if (session != nullptr) {
    FATS_RETURN_NOT_OK(session->status());
    FATS_RETURN_NOT_OK(session->Checkpoint());
  } else {
    FATS_RETURN_NOT_OK(SaveTrainerCheckpoint(&trainer, options.checkpoint));
  }
  std::printf("checkpoint written to %s\n", options.checkpoint.c_str());
  if (!options.log_csv.empty()) {
    FillRoundAccuracy(&trainer, 0, trainer.log().records().size());
    FATS_RETURN_NOT_OK(trainer.log().WriteCsvFile(options.log_csv));
    std::printf("round log written to %s\n", options.log_csv.c_str());
  }
  return Status::OK();
}

Status RunUnlearn(const CliOptions& options, bool client_level) {
  FATS_ASSIGN_OR_RETURN(DatasetProfile profile, ResolveProfile(options));
  if (options.client < 0) {
    return Status::InvalidArgument("--client is required");
  }
  if (!client_level && options.index < 0) {
    return Status::InvalidArgument("--index is required for samples");
  }
  FederatedDataset data =
      BuildFederatedData(profile, static_cast<uint64_t>(options.seed));
  FATS_RETURN_NOT_OK(
      ReplayDeletions(DeletionJournalPath(options.checkpoint), &data));
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.rho_s = options.rho_s;
  config.rho_c = options.rho_c;
  config.seed = static_cast<uint64_t>(options.seed);
  config.num_threads = options.threads;
  config.fault_spec = options.fault_spec;
  config.transport_fault_spec = options.transport_faults;
  FATS_RETURN_NOT_OK(config.Validate());
  FatsTrainer trainer(profile.model, config, &data);
  std::unique_ptr<DurableTrainingSession> session;
  if (!options.journal.empty()) {
    // Journaled unlearning: the operation bracket makes a crashed unlearn
    // roll back atomically instead of corrupting the checkpoint.
    FATS_ASSIGN_OR_RETURN(
        session, DurableTrainingSession::Open(options.checkpoint,
                                              options.journal, &trainer));
    if (trainer.trained_through() == 0) {
      return Status::InvalidArgument("nothing trained yet; run train first");
    }
  } else {
    FATS_RETURN_NOT_OK(LoadTrainerCheckpoint(options.checkpoint, &trainer));
  }

  UnlearningService service(&trainer);
  FATS_RETURN_NOT_OK(service.Submit(
      client_level
          ? UnlearningRequest{.kind = UnlearningRequest::Kind::kClient,
                              .client = options.client,
                              .request_iter = trainer.trained_through()}
          : UnlearningRequest{.kind = UnlearningRequest::Kind::kSample,
                              .sample = {options.client, options.index},
                              .request_iter = trainer.trained_through()}));
  FATS_ASSIGN_OR_RETURN(const ServiceFlushStats stats, service.Flush());
  FATS_RETURN_NOT_OK(AppendDeletion(
      DeletionJournalPath(options.checkpoint),
      client_level ? "client " + std::to_string(options.client)
                   : "sample " + std::to_string(options.client) + " " +
                         std::to_string(options.index)));
  const bool recomputed = stats.triggered_requests > 0;
  std::printf("unlearned %s: recomputed=%s", client_level ? "client"
                                                          : "sample",
              recomputed ? "yes" : "no");
  if (recomputed) {
    std::printf(" (%lld iterations from t=%lld, %lld rounds, %.3fs)",
                static_cast<long long>(stats.recomputed_iterations),
                static_cast<long long>(stats.replay_start_iteration),
                static_cast<long long>(stats.recomputed_rounds),
                stats.wall_seconds);
  }
  std::printf("\n");
  PrintStatusLine(&trainer);
  if (session != nullptr) {
    FATS_RETURN_NOT_OK(session->status());
    FATS_RETURN_NOT_OK(session->Checkpoint());
  } else {
    FATS_RETURN_NOT_OK(SaveTrainerCheckpoint(&trainer, options.checkpoint));
  }
  std::printf("checkpoint updated: %s\n", options.checkpoint.c_str());
  return Status::OK();
}

Status RunInfo(const CliOptions& options) {
  FATS_ASSIGN_OR_RETURN(DatasetProfile profile, ResolveProfile(options));
  FederatedDataset data =
      BuildFederatedData(profile, static_cast<uint64_t>(options.seed));
  FATS_RETURN_NOT_OK(
      ReplayDeletions(DeletionJournalPath(options.checkpoint), &data));
  FatsConfig config = FatsConfig::FromProfile(profile);
  config.rho_s = options.rho_s;
  config.rho_c = options.rho_c;
  config.seed = static_cast<uint64_t>(options.seed);
  config.num_threads = options.threads;
  FATS_RETURN_NOT_OK(config.Validate());
  FatsTrainer trainer(profile.model, config, &data);
  FATS_RETURN_NOT_OK(LoadTrainerCheckpoint(options.checkpoint, &trainer));
  std::printf("%s\n", config.ToString().c_str());
  std::printf("  data     : %s\n", data.ToString().c_str());
  PrintStatusLine(&trainer);
  const double lambda = MaxGradientDiversity(
      trainer.model(), data, trainer.trained_through() /
                                 std::max<int64_t>(config.local_iters_e, 1),
      /*probes=*/4, [&trainer](int64_t round) {
        return trainer.store().GetGlobalModel(round);
      });
  std::printf("  lambda^  : %.3f (gradient diversity, Definition 5)\n",
              lambda);
  return Status::OK();
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: fats_cli <train|resume|unlearn-sample|"
                 "unlearn-client|info> [flags]\nsee --help per command\n");
    return 2;
  }
  CliOptions options;
  options.command = argv[1];

  FlagParser flags;
  std::string* profile = flags.AddString("profile", "mnist",
                                         "scaled profile name");
  std::string* checkpoint =
      flags.AddString("checkpoint", "/tmp/fats.ckpt", "checkpoint path");
  double* rho_s = flags.AddDouble("rho_s", 0.25, "sample TV-stability");
  double* rho_c = flags.AddDouble("rho_c", 0.5, "client TV-stability");
  int64_t* rounds = flags.AddInt("rounds", 0, "override profile rounds R");
  int64_t* seed = flags.AddInt("seed", 1, "workload + algorithm seed");
  int64_t* until_iter = flags.AddInt("until_iter", 0,
                                     "pause training at this iteration");
  int64_t* client = flags.AddInt("client", -1, "target client id");
  int64_t* index = flags.AddInt("index", -1, "target sample index");
  int64_t* threads = flags.AddInt(
      "threads", 1, "worker threads for client updates (bit-identical)");
  std::string* journal = flags.AddString(
      "journal", "",
      "journal path; enables crash-exact journaled sessions (recovers "
      "automatically after a crash)");
  std::string* log_csv = flags.AddString(
      "log_csv", "",
      "write the per-round training log as CSV here; its test_accuracy "
      "column is the accuracy of each round's stored global model");
  std::string* fault_spec = flags.AddString(
      "fault_spec", "",
      "failpoint arming spec 'site:hit_count:action,...' "
      "(action: error|crash|torn-write|delay) for crash testing");
  std::string* transport_faults = flags.AddString(
      "transport_faults", "",
      "lossy-wire fault spec 'drop=0.2,corrupt=0.05,seed=4,...' "
      "(keys: drop|corrupt|truncate|duplicate|delay rates, seed, "
      "max_retries, backoff_base, backoff_cap); the retry protocol keeps "
      "the run trace-identical to a clean wire");
  Status parse = flags.Parse(argc - 1, argv + 1);
  if (parse.code() == StatusCode::kNotFound) return 0;  // --help
  if (!parse.ok()) {
    std::fprintf(stderr, "%s\n%s", parse.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  options.profile_name = *profile;
  options.checkpoint = *checkpoint;
  options.rho_s = *rho_s;
  options.rho_c = *rho_c;
  options.rounds = *rounds;
  options.seed = *seed;
  options.until_iter = *until_iter;
  options.client = *client;
  options.index = *index;
  options.threads = *threads;
  options.journal = *journal;
  options.log_csv = *log_csv;
  options.fault_spec = *fault_spec;
  options.transport_faults = *transport_faults;

  Status status;
  if (options.command == "train") {
    status = RunTrain(options, /*resume=*/false);
  } else if (options.command == "resume") {
    status = RunTrain(options, /*resume=*/true);
  } else if (options.command == "unlearn-sample") {
    status = RunUnlearn(options, /*client_level=*/false);
  } else if (options.command == "unlearn-client") {
    status = RunUnlearn(options, /*client_level=*/true);
  } else if (options.command == "info") {
    status = RunInfo(options);
  } else {
    std::fprintf(stderr, "unknown command: %s\n", options.command.c_str());
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace fats

int main(int argc, char** argv) { return fats::Main(argc, argv); }
