// fats_analyze rule passes.  Every rule reports a Finding (report.h) with a
// stable rule ID; any finding is suppressed by a `// fats-lint: allow(<rule>)`
// directive on its line or the line above (SuppressionMap, code_model.h).
//
// Rule catalog (DESIGN.md §7.4), in --list-rules order:
//
//   banned-rand        std::rand / rand() / srand outside src/rng/.
//   banned-random-device
//                      std::random_device outside src/rng/ (non-
//                      reproducible entropy source).
//   default-engine     default-constructed std::mt19937 /
//                      std::default_random_engine etc. outside src/rng/.
//   time-seed          wall-clock time used as a seed (time(...)/
//                      clock ::now() on a seeding line) outside src/rng/.
//   random-include     #include <random> outside src/rng/.
//   unordered-iteration
//                      iteration over std::unordered_map/set in
//                      src/core/, src/fl/, or src/baselines/ (a range-for
//                      over the container, or name.begin() anywhere),
//                      where order-dependent float accumulation would
//                      break replay.
//   raw-thread         std::thread / std::jthread / std::async outside
//                      src/util/thread_pool.*: ad-hoc threads bypass the
//                      deterministic-parallelism contract (pre-drawn
//                      substreams + ordered reduction); use
//                      fats::ThreadPool.
//   raw-io             std::ofstream / fopen / fwrite in src/core/,
//                      src/fl/, or src/io/ outside the journal module
//                      (io/journal.*): durable state written behind the
//                      journal's back has no CRC framing, no fsync
//                      discipline, and no crash-recovery story.  Route
//                      writes through fats::JournalWriter or the
//                      checkpoint BinaryWriter; read-only probes take a
//                      `// fats-lint: allow(raw-io)` suppression.
//   hot-alloc          in src/nn/, inside the body of a Forward(...),
//                      Backward(...) or BackwardParameters(...) definition
//                      (the per-step hot path), or of a function in the
//                      same file that one calls, directly or transitively:
//                      (a) a Tensor local temporary -- per-step heap
//                      allocation; use a Workspace slot or an Into-style
//                      destination-passing op instead -- or (b), in the
//                      named bodies only, a triple-nested
//                      multiply-accumulate for-loop, i.e. a raw matmul that
//                      bypasses the deterministic blocked kernels in
//                      tensor/gemm.h.  A function of the file that no hot
//                      body calls (a slow reference loop) is exempt.
//   rng-raw-key        PhiloxEngine constructed outside src/rng/, or an
//                      RngStream built from a literal-only raw key: stream
//                      keys must come from DeriveStreamKey over a structured
//                      StreamId, or replay cannot re-derive them.
//   rng-shared-stream  an RNG draw inside a ParallelFor task on a stream
//                      declared outside the task body: worker tasks racing
//                      on one engine make the draw order schedule-dependent.
//                      Per-task streams must be constructed inside the task
//                      from pre-derived keys (slot-indexed receivers are
//                      exempt for that reason).
//   rng-unordered-draw an RNG draw (or stream construction) inside a loop
//                      over an unordered container: hash order decides the
//                      draw order, so two runs consume the stream
//                      differently.
//   sampling-key-owner (src/core only) RngPurpose::kClientSampling or
//                      kMinibatchSampling named outside fats_trainer.*: the
//                      trainer is the one owner of the FATS sampling stream
//                      keys (DrawClientSelection / DrawMinibatch), and core
//                      code re-draws history through RedrawMinibatch /
//                      RedrawRound — a second copy of the key derivation can
//                      drift from the one the round loop uses.
//   nondet-reduction   float/double `+=`/`-=` accumulation onto shared state
//                      inside a ParallelFor task body (not slot-indexed by
//                      the task index), or inside a loop over an unordered
//                      container: the reduction order differs run to run, so
//                      the sum differs in the low bits and the exactness
//                      proof dies.
//   failpoint-gap      a function in src/io that calls a durable-write
//                      primitive (fsync/fdatasync/rename/truncate/fwrite or
//                      fopen for write) with no failpoint site in its body:
//                      the crash matrix cannot kill inside it, so its
//                      recovery path is untested.
//   discarded-status   a Status/Result-returning call used as a bare
//                      statement, or cast to (void) without a
//                      `// fats-lint: allow(discarded-status)` suppression:
//                      silently dropped I/O errors void the durability
//                      contract.
//   layer-order        an #include of a higher-rank module (see
//                      include_graph.h for the layer DAG).
//   layer-cycle        a module-level include cycle among src/ modules.
//   store-mutation-bypass
//                      a StateStore mutator (SaveMinibatch, SaveClient-
//                      Selection, SaveGlobalModel, TruncateFromIteration,
//                      Clear) called on the trainer's
//                      store from src/core outside fats_trainer itself: the
//                      mutation skips the durable event sink and must go
//                      through the trainer's wrapper API instead.
//   unlearn-owner      a call to RedrawMinibatch(, RedrawRound( or
//                      NotifyUnlearnBegin( in src, tools, bench or examples
//                      outside src/core/unlearning_service.cc and
//                      src/core/fats_trainer.*: UnlearningService is the one
//                      FATS-SU / FATS-CU implementation, and a second caller
//                      of its history rewrites is a second implementation.
//   eval-on-read       a call to EvaluateAccuracy(, EvaluateTestAccuracy(
//                      or EvaluateRoundAccuracy( in src/core, src/state,
//                      src/transport or src/io outside the bodies of
//                      FatsTrainer::EvaluateTestAccuracy and
//                      FatsTrainer::EvaluateRoundAccuracy: FATS rounds record
//                      no accuracy, and a reader evaluates a stored round
//                      model on read, off the round and replay path.
//   raw-wire           a frame codec (EncodeFrame/Decode*Payload/...), ring
//                      buffer primitive (PushFrame/PopFrame), or POSIX
//                      socket call outside src/transport within src/core,
//                      src/fl, or src/io: model traffic that skips the
//                      reliable channel skips the retry/backoff/CRC-reject
//                      protocol that keeps lossy runs exact (§7.7).
//   tile-overlap       (src/tensor only) a subscripted write inside a
//                      ParallelFor task body whose index depends on neither
//                      a lambda parameter nor task-local state: workers may
//                      address the same output element, violating the fixed
//                      tile-ownership split that makes multi-threaded
//                      kernels bit-identical to serial (DESIGN.md §7.6).
//   resident-history   (src/fl only) a member/variable declaration of a
//                      container holding std::vector<int64_t> payloads
//                      (map-of-index-lists, vector-of-index-lists): history
//                      records that grow one resident list per (iteration,
//                      client) defeat the state layer's bounded-RSS contract
//                      (DESIGN.md §7.8) — per-record history belongs in
//                      state::HistoryLog, which compresses, tiers, and
//                      spills it. The store's O(1)-triage inverted indices
//                      are the sanctioned exception, via suppression.

#ifndef FATS_TOOLS_ANALYZE_RULES_H_
#define FATS_TOOLS_ANALYZE_RULES_H_

#include <set>
#include <string>
#include <vector>

#include "analyze/code_model.h"
#include "analyze/include_graph.h"
#include "analyze/report.h"

namespace fats::analyze {

inline constexpr const char kRuleBannedRand[] = "banned-rand";
inline constexpr const char kRuleBannedRandomDevice[] = "banned-random-device";
inline constexpr const char kRuleDefaultEngine[] = "default-engine";
inline constexpr const char kRuleTimeSeed[] = "time-seed";
inline constexpr const char kRuleRandomInclude[] = "random-include";
inline constexpr const char kRuleUnorderedIteration[] = "unordered-iteration";
inline constexpr const char kRuleRawThread[] = "raw-thread";
inline constexpr const char kRuleRawIo[] = "raw-io";
inline constexpr const char kRuleHotAlloc[] = "hot-alloc";

inline constexpr const char kRuleRngRawKey[] = "rng-raw-key";
inline constexpr const char kRuleRngSharedStream[] = "rng-shared-stream";
inline constexpr const char kRuleRngUnorderedDraw[] = "rng-unordered-draw";
inline constexpr const char kRuleSamplingKeyOwner[] = "sampling-key-owner";
inline constexpr const char kRuleNondetReduction[] = "nondet-reduction";
inline constexpr const char kRuleFailpointGap[] = "failpoint-gap";
inline constexpr const char kRuleDiscardedStatus[] = "discarded-status";
inline constexpr const char kRuleLayerOrder[] = "layer-order";
inline constexpr const char kRuleLayerCycle[] = "layer-cycle";
inline constexpr const char kRuleStoreMutationBypass[] =
    "store-mutation-bypass";
inline constexpr const char kRuleUnlearnOwner[] = "unlearn-owner";
inline constexpr const char kRuleEvalOnRead[] = "eval-on-read";
inline constexpr const char kRuleRawWire[] = "raw-wire";
inline constexpr const char kRuleTileOverlap[] = "tile-overlap";
inline constexpr const char kRuleResidentHistory[] = "resident-history";

// Every rule ID fats_analyze can emit, in catalog order (--list-rules, the
// SARIF rule table, and DESIGN.md §7.4).
std::vector<std::string> AllAnalyzeRules();

// Cross-file state shared by the rule passes, built in one pass over every
// file before any rule runs.
struct AnalysisIndex {
  // Unqualified names of functions declared to return Status or Result<T>
  // by value, anywhere in the tree.
  std::set<std::string> status_functions;
  // Names also declared with some other return type somewhere (`void
  // Append(` vs `Status Append(`).  Without type resolution a call through
  // such a name is ambiguous, so discarded-status skips it rather than
  // misfire on the void overload.
  std::set<std::string> nonstatus_functions;
  // Failpoint site names registered via FATS_FAILPOINT("..."),
  // FATS_FAILPOINT_STATUS("..."), or failpoint::RegisterSite("...").
  std::set<std::string> failpoint_sites;
  IncludeGraph includes;
};

// Index-building pass.
void IndexFile(const FileModel& model, AnalysisIndex* index);

// Per-file rule passes.  Each appends findings (already marked suppressed
// where a directive covers them).
void CheckRngDiscipline(const FileModel& model,
                        std::vector<Finding>* findings);
void CheckReductions(const FileModel& model,
                     std::vector<Finding>* findings);
void CheckFailpointCoverage(const FileModel& model,
                            std::vector<Finding>* findings);
void CheckStatusDiscipline(const FileModel& model, const AnalysisIndex& index,
                           std::vector<Finding>* findings);
void CheckStoreMutation(const FileModel& model,
                        std::vector<Finding>* findings);
void CheckUnlearnOwner(const FileModel& model,
                       std::vector<Finding>* findings);
void CheckEvalOnRead(const FileModel& model,
                     std::vector<Finding>* findings);
void CheckWireDiscipline(const FileModel& model,
                         std::vector<Finding>* findings);
void CheckTileOwnership(const FileModel& model,
                        std::vector<Finding>* findings);
void CheckRuntimeConfinement(const FileModel& model,
                             std::vector<Finding>* findings);
void CheckHistoryResidency(const FileModel& model,
                           std::vector<Finding>* findings);

// Whole-tree pass over the include graph.
void CheckLayering(const AnalysisIndex& index,
                   const std::vector<FileModel>& models,
                   std::vector<Finding>* findings);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_RULES_H_
