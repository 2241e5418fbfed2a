// fats_analyze rule passes.  Every rule reports fats::lint::Finding with a
// stable rule ID; suppression uses the same `// fats-lint: allow(<rule>)`
// syntax as the token-scanner rules (see fats_lint_lib.h).
//
// Rule catalog (DESIGN.md §7.4):
//
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
//   sampling-key-owner (src/core only) RngPurpose::kClientSampling or
//                      kMinibatchSampling named outside fats_trainer.*: the
//                      trainer is the one owner of the FATS sampling stream
//                      keys (DrawClientSelection / DrawMinibatch), and core
//                      code re-draws history through RedrawMinibatch /
//                      RedrawRound — a second copy of the key derivation can
//                      drift from the one the round loop uses.
//   rng-unordered-draw an RNG draw (or stream construction) inside a loop
//                      over an unordered container: hash order decides the
//                      draw order, so two runs consume the stream
//                      differently.
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
#include "fats_lint_lib.h"

namespace fats::analyze {

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

// The analyzer-pass rule IDs (the full ID space is these plus
// lint::AllRules()).
std::vector<std::string> AnalyzerRules();

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
                        std::vector<lint::Finding>* findings);
void CheckReductions(const FileModel& model,
                     std::vector<lint::Finding>* findings);
void CheckFailpointCoverage(const FileModel& model,
                            std::vector<lint::Finding>* findings);
void CheckStatusDiscipline(const FileModel& model, const AnalysisIndex& index,
                           std::vector<lint::Finding>* findings);
void CheckStoreMutation(const FileModel& model,
                        std::vector<lint::Finding>* findings);
void CheckUnlearnOwner(const FileModel& model,
                       std::vector<lint::Finding>* findings);
void CheckEvalOnRead(const FileModel& model,
                     std::vector<lint::Finding>* findings);
void CheckWireDiscipline(const FileModel& model,
                         std::vector<lint::Finding>* findings);
void CheckTileOwnership(const FileModel& model,
                        std::vector<lint::Finding>* findings);
void CheckHistoryResidency(const FileModel& model,
                           std::vector<lint::Finding>* findings);

// Whole-tree pass over the include graph.
void CheckLayering(const AnalysisIndex& index,
                   const std::vector<FileModel>& models,
                   std::vector<lint::Finding>* findings);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_RULES_H_
