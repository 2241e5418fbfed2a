// RNG stream discipline (rule family 1): banned-rand, banned-random-device,
// default-engine, time-seed, random-include, rng-raw-key, rng-shared-stream,
// sampling-key-owner, rng-unordered-draw.  See rules.h for the catalog.

#include <algorithm>
#include <set>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

bool IsStdEngine(std::string_view name) {
  return name == "mt19937" || name == "mt19937_64" ||
         name == "default_random_engine" || name == "minstd_rand" ||
         name == "minstd_rand0" || name == "ranlux24" || name == "ranlux48" ||
         name == "ranlux24_base" || name == "ranlux48_base" ||
         name == "knuth_b";
}

// A wall-clock read: `time(` or `<steady|system|high_resolution>_clock::now(`.
bool IsClockRead(const std::vector<Token>& tokens, size_t i) {
  const std::string_view t = tokens[i].text;
  if (t == "time") return IsPunct(tokens, i + 1, "(");
  return (t == "steady_clock" || t == "system_clock" ||
          t == "high_resolution_clock") &&
         IsPunct(tokens, i + 1, "::") && IsIdent(tokens, i + 2, "now") &&
         IsPunct(tokens, i + 3, "(");
}

// A seeding context: `seed`, a `seed...(` call, srand, or an engine name.
bool IsSeedContext(const std::vector<Token>& tokens, size_t i) {
  const std::string_view t = tokens[i].text;
  return t == "seed" ||
         (t.substr(0, 4) == "seed" && IsPunct(tokens, i + 1, "(")) ||
         t == "srand" || t == "mt19937" || t == "default_random_engine";
}

// The randomness bans outside src/rng/: every random bit must come from a
// Philox stream keyed by the experiment config, never from libc, the OS
// entropy pool, a standard engine, or the wall clock.
void CheckBannedRandomness(const FileModel& model,
                           std::vector<Finding>* findings) {
  if (!model.file_class.rng_rules) return;
  const std::vector<Token>& tokens = model.tokens;
  std::set<int> clock_lines;
  std::set<int> seed_lines;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) continue;
    const std::string_view t = tokens[i].text;
    const int line = MatchLine(tokens, i);
    const bool call = IsPunct(tokens, i + 1, "(");
    if ((t == "rand" && (call || IsStdQualified(tokens, i))) ||
        (t == "srand" && call)) {
      AddFinding(model, kRuleBannedRand, line,
                 "libc rand()/srand() is banned: route randomness through "
                 "fats::RngStream (src/rng/) so unlearning replay is "
                 "bit-exact",
                 findings);
    } else if (t == "random_device") {
      AddFinding(model, kRuleBannedRandomDevice, line,
                 "std::random_device is a non-reproducible entropy source; "
                 "derive seeds from the experiment config instead",
                 findings);
    } else if (IsStdEngine(t) && i + 2 < tokens.size() &&
               tokens[i + 1].kind == TokKind::kIdent &&
               (IsPunct(tokens, i + 2, ";") ||
                (IsPunct(tokens, i + 2, "{") && IsPunct(tokens, i + 3, "}")) ||
                (IsPunct(tokens, i + 2, "(") && IsPunct(tokens, i + 3, ")")))) {
      AddFinding(model, kRuleDefaultEngine, line,
                 "default-constructed standard engine: all streams must be "
                 "Philox streams keyed by (seed, stream id) from src/rng/",
                 findings);
    } else if (t == "include" && i >= 1 && IsPunct(tokens, i - 1, "#") &&
               IsPunct(tokens, i + 1, "<") &&
               model.stripped->compare(tokens[i + 1].offset, 8,
                                       "<random>") == 0) {
      AddFinding(model, kRuleRandomInclude, tokens[i - 1].line,
                 "direct <random> include outside src/rng/: use "
                 "rng/rng_stream.h and rng/sampling.h instead",
                 findings);
    }
    if (IsClockRead(tokens, i)) clock_lines.insert(tokens[i].line);
    if (IsSeedContext(tokens, i)) seed_lines.insert(tokens[i].line);
  }
  for (int line : clock_lines) {
    if (seed_lines.count(line) == 0) continue;
    AddFinding(model, kRuleTimeSeed, line,
               "wall-clock time used as a seed: seeds must come from the "
               "experiment config so retraining replays bit-identically",
               findings);
  }
}

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
                  std::vector<Finding>* findings) {
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
                        std::vector<Finding>* findings) {
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
                           std::vector<Finding>* findings) {
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
                         std::vector<Finding>* findings) {
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
                        std::vector<Finding>* findings) {
  CheckBannedRandomness(model, findings);
  CheckRawKeys(model, findings);
  CheckSharedStreams(model, findings);
  CheckSamplingKeyOwner(model, findings);
  CheckUnorderedDraws(model, findings);
}

}  // namespace fats::analyze
