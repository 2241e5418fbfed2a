// Fixed tile ownership (rule: tile-overlap).  In src/tensor, every
// ParallelFor worker lambda must derive the output elements it writes from
// its own task index (directly or through task-local state computed from
// it): that fixed ownership split — each worker owns a disjoint row band —
// is what makes multi-threaded kernels bit-identical to serial (DESIGN.md
// §7.6).  A subscripted write whose index mentions neither a lambda
// parameter nor anything declared inside the body can address the same
// element from every worker: overlapping tiles, last-writer-wins, and
// schedule-dependent bits.  nondet-reduction covers the accumulation flavor
// of this bug everywhere; tile-overlap additionally catches plain `=`
// stores, which in kernel code are just as fatal.

#include <algorithm>
#include <string>
#include <vector>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

bool IsWriteOp(const Token& t) {
  return t.kind == TokKind::kPunct &&
         (t.text == "=" || t.text == "+=" || t.text == "-=" ||
          t.text == "*=" || t.text == "/=");
}

// Collects every identifier declared inside [begin, end): `Type name` pairs
// (with optional &/* between) followed by `=`, `;`, `{`, `(`, or `[` —
// locals, loop variables, and task-local buffers.  Heuristic by design,
// like DeclaredInRange in the reduction rule.
std::vector<std::string> LocalNames(const std::vector<Token>& tokens,
                                    size_t begin, size_t end) {
  std::vector<std::string> names;
  for (size_t i = begin; i + 1 < end && i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) continue;
    size_t j = i + 1;
    while (IsPunct(tokens, j, "&") || IsPunct(tokens, j, "*")) ++j;
    if (j < end && tokens[j].kind == TokKind::kIdent &&
        (IsPunct(tokens, j + 1, "=") || IsPunct(tokens, j + 1, ";") ||
         IsPunct(tokens, j + 1, "{") || IsPunct(tokens, j + 1, "(") ||
         IsPunct(tokens, j + 1, "["))) {
      names.emplace_back(tokens[j].text);
    }
  }
  return names;
}

bool MentionsAny(const std::vector<Token>& tokens, size_t begin, size_t end,
                 const std::vector<std::string>& names) {
  for (size_t i = begin; i < end; ++i) {
    if (tokens[i].kind == TokKind::kIdent &&
        std::find(names.begin(), names.end(), std::string(tokens[i].text)) !=
            names.end()) {
      return true;
    }
  }
  return false;
}

void CheckLambda(const FileModel& model, const LambdaBody& lambda,
                 std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  std::vector<std::string> owned = lambda.param_names;
  const std::vector<std::string> locals =
      LocalNames(tokens, lambda.body_begin, lambda.body_end);
  owned.insert(owned.end(), locals.begin(), locals.end());

  for (size_t i = lambda.body_begin; i < lambda.body_end; ++i) {
    if (!IsWriteOp(tokens[i])) continue;
    if (i == 0 || !IsPunct(tokens, i - 1, "]")) continue;
    // Walk back to the matching '[' and the subscripted base identifier.
    int depth = 0;
    size_t j = i;  // first decrement lands on the ']'
    bool matched = false;
    while (j-- > 0) {
      if (IsPunct(tokens, j, "]")) ++depth;
      if (IsPunct(tokens, j, "[")) {
        if (--depth == 0) {
          matched = true;
          break;
        }
      }
      if (j == 0) break;
    }
    if (!matched || j == 0 || j <= lambda.body_begin ||
        tokens[j - 1].kind != TokKind::kIdent) {
      continue;
    }
    const std::string base(tokens[j - 1].text);
    // A task-local buffer is private to the worker by construction.
    if (std::find(locals.begin(), locals.end(), base) != locals.end()) {
      continue;
    }
    // Sanctioned: the subscript depends on a lambda parameter or on a
    // body-local value (itself necessarily derived inside this task).
    if (MentionsAny(tokens, j + 1, i - 1, owned)) continue;
    AddFinding(
        model, kRuleTileOverlap, tokens[i].line,
        "write to '" + base +
            "' inside a ParallelFor task whose subscript depends on "
            "neither the task index nor task-local state: every worker "
            "may address the same element, so tiles overlap and the fixed "
            "tile-ownership determinism contract breaks; derive the "
            "output range from the task/band index",
        findings);
  }
}

}  // namespace

void CheckTileOwnership(const FileModel& model,
                        std::vector<Finding>* findings) {
  // The fixed-ownership contract is a src/tensor kernel discipline; the
  // rest of the tree is covered by nondet-reduction's accumulation check.
  if (model.source->path.find("src/tensor") == std::string::npos) return;
  const std::vector<Token>& tokens = model.tokens;
  for (const auto& [args_begin, args_end] : ParallelForArgRanges(tokens)) {
    for (const LambdaBody& lambda :
         FindLambdas(tokens, args_begin, args_end)) {
      CheckLambda(model, lambda, findings);
    }
  }
}

}  // namespace fats::analyze
