// RNG stream discipline (rule family 1): rng-raw-key, rng-shared-stream,
// sampling-key-owner, rng-unordered-draw.  See rules.h for the catalog.

#include <algorithm>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// True when the token range [begin, end) contains only numeric literals and
// operator punctuation — i.e. a key expression with no identifier anywhere,
// which can only be a hand-rolled constant key.
bool LiteralOnlyExpression(const std::vector<Token>& tokens, size_t begin,
                           size_t end) {
  bool saw_number = false;
  for (size_t i = begin; i < end; ++i) {
    if (tokens[i].kind == TokKind::kIdent) return false;
    if (tokens[i].kind == TokKind::kNumber) saw_number = true;
  }
  return saw_number;
}

// Counts top-level commas in the argument range [begin, end).
int TopLevelCommas(const std::vector<Token>& tokens, size_t begin,
                   size_t end) {
  int depth = 0;
  int commas = 0;
  for (size_t i = begin; i < end; ++i) {
    if (tokens[i].kind != TokKind::kPunct || tokens[i].text.size() != 1) {
      continue;
    }
    const char c = tokens[i].text[0];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) ++commas;
  }
  return commas;
}

// For a type name at token index i, returns the index of the opening '(' or
// '{' of a construction — either directly (`RngStream(...)`, a temporary)
// or after a variable name (`RngStream rng(...)`).  tokens.size() if the
// mention is not a construction.
size_t ConstructionOpen(const std::vector<Token>& tokens, size_t i) {
  if (IsPunct(tokens, i + 1, "(") || IsPunct(tokens, i + 1, "{")) {
    return i + 1;
  }
  if (i + 2 < tokens.size() && tokens[i + 1].kind == TokKind::kIdent &&
      (IsPunct(tokens, i + 2, "(") || IsPunct(tokens, i + 2, "{"))) {
    return i + 2;
  }
  return tokens.size();
}

void CheckRawKeys(const FileModel& model,
                  std::vector<lint::Finding>* findings) {
  // src/rng/ itself is the engine's home and tests-by-raw-key territory.
  if (!model.file_class.rng_rules) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) continue;
    if (tokens[i].text == "PhiloxEngine") {
      const size_t open = ConstructionOpen(tokens, i);
      if (open == tokens.size()) continue;
      AddFinding(model, kRuleRngRawKey, tokens[i].line,
                 "PhiloxEngine constructed outside src/rng/: raw engines "
                 "bypass the stream-addressing scheme; draw through an "
                 "RngStream keyed by DeriveStreamKey(root_seed, StreamId)",
                 findings);
      continue;
    }
    if (tokens[i].text != "RngStream") continue;
    const size_t open = ConstructionOpen(tokens, i);
    if (open == tokens.size() || !IsPunct(tokens, open, "(")) continue;
    const size_t close = MatchForward(tokens, open);
    if (close == kNoMatch) continue;
    // Single-argument form is the raw-key constructor.  A literal-only key
    // cannot be re-derived by replay; keys must flow from DeriveStreamKey.
    if (TopLevelCommas(tokens, open + 1, close - 1) == 0 &&
        LiteralOnlyExpression(tokens, open + 1, close - 1)) {
      AddFinding(model, kRuleRngRawKey, tokens[i].line,
                 "RngStream constructed from a literal raw key: stream keys "
                 "must come from DeriveStreamKey over a structured StreamId "
                 "(purpose/generation/round/client/iteration) so unlearning "
                 "replay can re-derive them",
                 findings);
    }
  }
}

// Reports draws on streams shared across ParallelFor worker tasks.
void CheckSharedStreams(const FileModel& model,
                        std::vector<lint::Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  for (const auto& [args_begin, args_end] : ParallelForArgRanges(tokens)) {
    for (const LambdaBody& lambda :
         FindLambdas(tokens, args_begin, args_end)) {
      for (size_t i = lambda.body_begin; i + 1 < lambda.body_end; ++i) {
        if (tokens[i].kind != TokKind::kIdent ||
            DrawMethods().count(tokens[i].text) == 0 ||
            !IsPunct(tokens, i + 1, "(")) {
          continue;
        }
        // Receiver chain: `X.Next...` or `X->Next...`.  An indexed receiver
        // (`streams[i].Next...`) is per-task by construction and exempt.
        if (i < 2) continue;
        if (!IsPunct(tokens, i - 1, ".") && !IsPunct(tokens, i - 1, "->")) {
          continue;
        }
        const Token& recv = tokens[i - 2];
        if (recv.kind == TokKind::kPunct && recv.text == "]") continue;
        if (recv.kind != TokKind::kIdent) continue;
        const std::string name(recv.text);
        const bool is_param =
            std::find(lambda.param_names.begin(), lambda.param_names.end(),
                      name) != lambda.param_names.end();
        const bool declared_inside =
            DeclaresVariable(tokens, lambda.body_begin, lambda.body_end,
                             "RngStream", name) ||
            DeclaresVariable(tokens, lambda.body_begin, lambda.body_end,
                             "auto", name);
        if (is_param || declared_inside) continue;
        AddFinding(
            model, kRuleRngSharedStream, tokens[i].line,
            "draw on RNG stream '" + name +
                "' captured from outside a ParallelFor task body: worker "
                "tasks racing on one engine make the draw order depend on "
                "the schedule; pre-derive per-task keys in serial order and "
                "construct the stream inside the task",
            findings);
      }
    }
  }
}

// Reports the FATS sampling purposes named in src/core outside the trainer.
// FedAvg (src/fl) and FR² (src/baselines) draw under their own key
// semantics and are out of scope.
void CheckSamplingKeyOwner(const FileModel& model,
                           std::vector<lint::Finding>* findings) {
  const std::string& path = model.source->path;
  if (path.find("src/core/") == std::string::npos ||
      path.find("fats_trainer") != std::string::npos) {
    return;
  }
  for (const Token& token : model.tokens) {
    if (token.kind != TokKind::kIdent) continue;
    if (token.text != "kClientSampling" &&
        token.text != "kMinibatchSampling") {
      continue;
    }
    std::string message = "FATS sampling stream key (RngPurpose::";
    message += token.text;
    message +=
        ") built outside FatsTrainer: the trainer owns the selection and "
        "mini-batch keys; re-draw history through "
        "FatsTrainer::RedrawMinibatch / RedrawRound instead";
    AddFinding(model, kRuleSamplingKeyOwner, token.line, std::move(message),
               findings);
  }
}

// Reports draws (or stream constructions) inside unordered-container loops.
void CheckUnorderedDraws(const FileModel& model,
                         std::vector<lint::Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  for (const UnorderedLoop& loop :
       FindUnorderedLoops(tokens, model.unordered_names)) {
    for (size_t i = loop.body_begin; i < loop.body_end; ++i) {
      if (tokens[i].kind != TokKind::kIdent) continue;
      const bool is_draw = DrawMethods().count(tokens[i].text) > 0 &&
                           IsPunct(tokens, i + 1, "(") && i >= 1 &&
                           (IsPunct(tokens, i - 1, ".") ||
                            IsPunct(tokens, i - 1, "->"));
      const bool is_ctor = tokens[i].text == "RngStream" &&
                           ConstructionOpen(tokens, i) != tokens.size();
      if (!is_draw && !is_ctor) continue;
      AddFinding(model, kRuleRngUnorderedDraw, tokens[i].line,
                 "RNG use inside iteration over an unordered container: "
                 "hash order decides the draw order, so two runs consume "
                 "the stream differently and replay diverges; iterate in a "
                 "sorted or insertion order instead",
                 findings);
    }
  }
}

}  // namespace

void CheckRngDiscipline(const FileModel& model,
                        std::vector<lint::Finding>* findings) {
  CheckRawKeys(model, findings);
  CheckSharedStreams(model, findings);
  CheckSamplingKeyOwner(model, findings);
  CheckUnorderedDraws(model, findings);
}

}  // namespace fats::analyze
