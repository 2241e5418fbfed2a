// Deterministic reductions (rule family 2): nondet-reduction and
// unordered-iteration.  nondet-reduction flags float/double accumulation
// whose order depends on the worker schedule (a ParallelFor task body
// writing shared, non-slot-indexed state) or on hash iteration order (a
// loop over an unordered container); unordered-iteration flags any
// hash-order traversal in the trees whose loops feed training state.  This
// is the bug class that breaks serial/parallel bit-identity: float addition
// is not associative, so any reduction whose operand order can vary between
// runs produces models that differ in the low mantissa bits — enough to void
// the exactness proof.

#include <algorithm>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// For an accumulation operator at token index `op`, identifies the base
// identifier of the left-hand side and whether the LHS is subscripted.
// Returns false when the shape is unrecognized.
struct AccumTarget {
  std::string base;
  bool subscripted = false;
  size_t subscript_begin = 0;  // token range of the subscript expression
  size_t subscript_end = 0;
};

bool ResolveAccumTarget(const std::vector<Token>& tokens, size_t op,
                        AccumTarget* out) {
  if (op == 0) return false;
  size_t i = op - 1;
  if (IsPunct(tokens, i, "]")) {
    // Walk back to the matching '['.
    int depth = 0;
    size_t j = i + 1;
    while (j-- > 0) {
      if (IsPunct(tokens, j, "]")) ++depth;
      if (IsPunct(tokens, j, "[")) {
        if (--depth == 0) break;
      }
      if (j == 0) return false;
    }
    if (j == 0 || tokens[j - 1].kind != TokKind::kIdent) return false;
    out->base = std::string(tokens[j - 1].text);
    out->subscripted = true;
    out->subscript_begin = j + 1;
    out->subscript_end = i;
    return true;
  }
  if (tokens[i].kind == TokKind::kIdent) {
    // `x +=` or `s.field +=` / `s->field +=`: attribute to the chain base.
    size_t base = i;
    while (base >= 2 &&
           (IsPunct(tokens, base - 1, ".") ||
            IsPunct(tokens, base - 1, "->")) &&
           tokens[base - 2].kind == TokKind::kIdent) {
      base -= 2;
    }
    out->base = std::string(tokens[base].text);
    out->subscripted = false;
    return true;
  }
  return false;
}

bool RangeMentionsAny(const std::vector<Token>& tokens, size_t begin,
                      size_t end, const std::vector<std::string>& names) {
  for (size_t i = begin; i < end; ++i) {
    if (tokens[i].kind == TokKind::kIdent &&
        std::find(names.begin(), names.end(), std::string(tokens[i].text)) !=
            names.end()) {
      return true;
    }
  }
  return false;
}

bool DeclaredInRange(const std::vector<Token>& tokens, size_t begin,
                     size_t end, const std::string& name) {
  // Any `Type name` pair with `name` second suffices: we only need to know
  // the accumulator is task-local, whatever its type.
  for (size_t i = begin; i + 1 < end && i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) continue;
    size_t j = i + 1;
    while (IsPunct(tokens, j, "&") || IsPunct(tokens, j, "*")) ++j;
    if (IsIdent(tokens, j, name) &&
        (IsPunct(tokens, j + 1, "=") || IsPunct(tokens, j + 1, ";") ||
         IsPunct(tokens, j + 1, "{") || IsPunct(tokens, j + 1, "("))) {
      return true;
    }
  }
  return false;
}

void CheckRange(const FileModel& model, size_t begin, size_t end,
                const std::vector<std::string>& slot_params,
                const char* where, std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = begin; i < end; ++i) {
    if (tokens[i].kind != TokKind::kPunct ||
        (tokens[i].text != "+=" && tokens[i].text != "-=")) {
      continue;
    }
    AccumTarget target;
    if (!ResolveAccumTarget(tokens, i, &target)) continue;
    // Slot-indexed writes (`out[index] += ...` with `index` a task
    // parameter) are the sanctioned pattern: each task owns its slot.
    if (target.subscripted && !slot_params.empty() &&
        RangeMentionsAny(tokens, target.subscript_begin, target.subscript_end,
                         slot_params)) {
      continue;
    }
    // Task-local accumulators are deterministic per task.
    if (DeclaredInRange(tokens, begin, end, target.base)) continue;
    // Only floating accumulation breaks bit-identity under reordering;
    // integer counters are associative (and races are tsan's department).
    if (!FloatTypedInFile(tokens, target.base)) continue;
    AddFinding(
        model, kRuleNondetReduction, tokens[i].line,
        "float accumulation onto '" + target.base + "' " + where +
            ": the reduction order can differ between runs, so the sum "
            "differs in the low mantissa bits and serial/parallel replay "
            "bit-identity breaks; accumulate into slot-indexed storage and "
            "reduce in a fixed order",
        findings);
  }
}

// Reports every traversal of an unordered container in src/core, src/fl
// and src/baselines: a range-for over one, or a begin()-family call on one
// anywhere (iterator loops, std algorithms, `*name.begin()`).
void CheckUnorderedIteration(const FileModel& model,
                             const std::vector<UnorderedLoop>& loops,
                             std::vector<Finding>* findings) {
  if (!model.file_class.ordered_rules) return;
  const std::vector<Token>& tokens = model.tokens;
  auto report = [&](std::string_view name, int line) {
    std::string message = "iteration over unordered container '";
    message += name;
    message +=
        "': hash-order traversal makes float accumulation order "
        "nondeterministic across runs, breaking TV-stable replay; iterate "
        "over sorted keys or use an ordered container";
    AddFinding(model, kRuleUnorderedIteration, line, std::move(message),
               findings);
  };
  for (const UnorderedLoop& loop : loops) {
    if (!loop.range_over.empty()) report(loop.range_over, loop.line);
  }
  const std::vector<std::string>& names = model.unordered_names;
  for (size_t i = 0; i + 3 < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kIdent && IsPunct(tokens, i + 1, ".") &&
        tokens[i + 2].kind == TokKind::kIdent &&
        IsBeginMember(tokens[i + 2].text) && IsPunct(tokens, i + 3, "(") &&
        std::find(names.begin(), names.end(), tokens[i].text) !=
            names.end()) {
      report(tokens[i].text, tokens[i].line);
    }
  }
}

}  // namespace

void CheckReductions(const FileModel& model,
                     std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  for (const auto& [args_begin, args_end] : ParallelForArgRanges(tokens)) {
    for (const LambdaBody& lambda :
         FindLambdas(tokens, args_begin, args_end)) {
      CheckRange(model, lambda.body_begin, lambda.body_end,
                 lambda.param_names, "inside a ParallelFor task body",
                 findings);
    }
  }
  const std::vector<UnorderedLoop> loops =
      FindUnorderedLoops(tokens, model.unordered_names);
  for (const UnorderedLoop& loop : loops) {
    CheckRange(model, loop.body_begin, loop.body_end, {},
               "inside iteration over an unordered container", findings);
  }
  CheckUnorderedIteration(model, loops, findings);
}

}  // namespace fats::analyze
