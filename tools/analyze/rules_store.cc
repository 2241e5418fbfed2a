// Store discipline (rule family 6): store-mutation-bypass, unlearn-owner
// and eval-on-read.
//
// store-mutation-bypass.  The
// trainer's StateStore keeps inverted participation indices (sample ->
// use-iterations, client -> participation-rounds) maintained incrementally
// by its own Save*/Truncate methods, and the trainer wraps those in
// RedrawMinibatch / RedrawRound / TruncateStoreFromIteration
// so the durable event sink sees every history rewrite.  Core code that
// grabs the store and mutates it directly —
//
//   trainer_->store().TruncateFromIteration(t, e);   // fires
//   store_.SaveMinibatch(t, k, batch);               // fires (outside the
//                                                    // trainer itself)
//
// — skips the sink, so a crash replays a journal that never saw the
// rewrite.  The rule confines direct mutation to the owning trainer
// (src/core/fats_trainer.*); everything else in src/core must go through
// the trainer's wrappers.  Reads (GetMinibatch, EarliestSampleUse, ...)
// are exempt.
//
// unlearn-owner.  The history rewrites of exact unlearning — re-drawing a
// recorded mini-batch or a whole round, and the durable-journal bracket
// around them — have one caller: UnlearningService.  A call to
// RedrawMinibatch( / RedrawRound( / NotifyUnlearnBegin( anywhere else in
// the scanned trees (src, tools, bench, examples) is a second unlearning
// implementation growing back, and fires.  The trainer, which defines
// them, is exempt too.
//
// eval-on-read.  Test-set evaluation is not part of Algorithm 1, and
// Theorem 3 does not charge for it, yet one evaluation of the full test set
// costs about as much as the rest of a small-batch round.  The round loop
// therefore records no accuracy; the store keeps every global model θ^(r),
// and a reader evaluates it on read through FatsTrainer::
// EvaluateRoundAccuracy.  A call to EvaluateAccuracy( /
// EvaluateTestAccuracy( / EvaluateRoundAccuracy( in the layers that train
// and unlearn (src/core, src/state, src/transport, src/io) would put the
// evaluation back on the round or replay path, and fires.  The bodies of
// the two trainer evaluators are exempt.  FedAvg (src/fl) and FR²
// (src/baselines) evaluate in their loops by design and are out of scope.

#include <algorithm>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// StateStore methods that mutate records (and therefore the inverted
// indices and the durable history).
const std::set<std::string_view>& StoreMutators() {
  static const auto* kSet = new std::set<std::string_view>{
      "SaveMinibatch", "SaveClientSelection", "SaveGlobalModel",
      "TruncateFromIteration", "Clear"};
  return *kSet;
}

// True when the mutator call at token `i` is invoked on the trainer's
// store: `store().Mutator(` or `store_.Mutator(`.
bool OnTrainerStore(const std::vector<Token>& tokens, size_t i) {
  if (i < 2 || !IsPunct(tokens, i - 1, ".")) return false;
  if (IsIdent(tokens, i - 2, "store_")) return true;
  return i >= 4 && IsPunct(tokens, i - 2, ")") && IsPunct(tokens, i - 3, "(") &&
         IsIdent(tokens, i - 4, "store");
}

bool InScope(const std::string& path) {
  if (path.find("src/core/") == std::string::npos) return false;
  // The trainer owns the store; its own wrappers are the sanctioned
  // mutation API.
  return path.find("fats_trainer") == std::string::npos;
}

// The trainer-side entry points only the unlearning service may call.
const std::set<std::string_view>& UnlearnRewrites() {
  static const auto* kSet = new std::set<std::string_view>{
      "RedrawMinibatch", "RedrawRound", "NotifyUnlearnBegin"};
  return *kSet;
}

bool OwnsUnlearning(const std::string& path) {
  return path.find("src/core/unlearning_service.cc") != std::string::npos ||
         path.find("src/core/fats_trainer.") != std::string::npos;
}

bool InEvalScope(const std::string& path) {
  for (const char* dir : {"src/core/", "src/state/", "src/transport/",
                          "src/io/"}) {
    if (path.find(dir) != std::string::npos) return true;
  }
  return false;
}

const std::set<std::string_view>& Evaluators() {
  static const auto* kSet = new std::set<std::string_view>{
      "EvaluateAccuracy", "EvaluateTestAccuracy", "EvaluateRoundAccuracy"};
  return *kSet;
}

// True when the name at token `i` is declared or defined rather than called:
// past any `Scope::` qualifiers it follows a type name (`double Name(`).
bool AtDeclaration(const std::vector<Token>& tokens, size_t i) {
  while (i >= 2 && IsPunct(tokens, i - 1, "::") &&
         tokens[i - 2].kind == TokKind::kIdent) {
    i -= 2;
  }
  if (i == 0 || tokens[i - 1].kind != TokKind::kIdent) return false;
  const std::string_view prev = tokens[i - 1].text;
  return prev != "return" && prev != "co_return" && prev != "case" &&
         prev != "new";
}

}  // namespace

void CheckEvalOnRead(const FileModel& model,
                     std::vector<lint::Finding>* findings) {
  if (!InEvalScope(model.source->path)) return;
  std::vector<std::pair<size_t, size_t>> exempt;
  for (const FunctionDef& fn : model.functions) {
    if (fn.qualified == "FatsTrainer::EvaluateTestAccuracy" ||
        fn.qualified == "FatsTrainer::EvaluateRoundAccuracy") {
      exempt.emplace_back(fn.body_begin, fn.body_end);
    }
  }
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    if (Evaluators().count(tokens[i].text) == 0) continue;
    if (AtDeclaration(tokens, i)) continue;
    if (std::any_of(exempt.begin(), exempt.end(), [i](const auto& body) {
          return i >= body.first && i < body.second;
        })) {
      continue;
    }
    std::string message = "test-set evaluation '";
    message += tokens[i].text;
    message +=
        "' on the training/unlearning path: FATS rounds record no accuracy; "
        "evaluate a stored round model on read with "
        "FatsTrainer::EvaluateRoundAccuracy from the reader instead";
    AddFinding(model, kRuleEvalOnRead, tokens[i].line, std::move(message),
               findings);
  }
}

void CheckUnlearnOwner(const FileModel& model,
                       std::vector<lint::Finding>* findings) {
  if (OwnsUnlearning(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    if (UnlearnRewrites().count(tokens[i].text) == 0) continue;
    std::string message = "unlearning history rewrite '";
    message += tokens[i].text;
    message +=
        "' called outside UnlearningService: submit an UnlearningRequest to "
        "the service instead of re-implementing FATS-SU / FATS-CU";
    AddFinding(model, kRuleUnlearnOwner, tokens[i].line, std::move(message),
               findings);
  }
}

void CheckStoreMutation(const FileModel& model,
                        std::vector<lint::Finding>* findings) {
  if (!InScope(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 2; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    if (StoreMutators().count(tokens[i].text) == 0) continue;
    if (!OnTrainerStore(tokens, i)) continue;
    AddFinding(model, kRuleStoreMutationBypass, tokens[i].line,
               "direct StateStore mutation '" + std::string(tokens[i].text) +
                   "' bypasses the trainer's event sink and the store's "
                   "incremental index maintenance contract; call the "
                   "trainer's wrapper (RedrawMinibatch / RedrawRound / "
                   "TruncateStoreFromIteration) "
                   "instead",
               findings);
  }
}

}  // namespace fats::analyze
