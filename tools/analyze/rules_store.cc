// Store-mutation discipline (rule family 6): store-mutation-bypass and
// unlearn-owner.
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

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// StateStore methods that mutate records (and therefore the inverted
// indices and the durable history).
const std::set<std::string_view>& StoreMutators() {
  static const auto* kSet = new std::set<std::string_view>{
      "SaveMinibatch",    "SaveClientSelection", "SaveLocalModel",
      "SaveGlobalModel",  "TruncateFromIteration", "Clear"};
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

}  // namespace

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
