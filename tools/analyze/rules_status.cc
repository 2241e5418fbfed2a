// Status discipline (rule family 4): discarded-status.  A Status or
// Result<T> return that is dropped on the floor silently converts an I/O
// failure into corrupted-but-"successful" state, which is exactly the bug
// class the durability contract exists to kill.  Two shapes fire:
//
//   Append(rec);            // bare-statement call to a Status-returning fn
//   (void)writer.Close();   // explicit discard without an allow() comment
//
// The explicit `(void)` cast is allowed — but only when annotated with
// `// fats-lint: allow(discarded-status)`, so every intentional discard is
// greppable and carries a reviewer-visible justification.

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

// Walks the call chain `a.b->c::Fn` backwards from the name token at `i`.
// Returns the index of the chain's first token.
size_t ChainStart(const std::vector<Token>& tokens, size_t i) {
  size_t start = i;
  while (start >= 2 &&
         (IsPunct(tokens, start - 1, ".") || IsPunct(tokens, start - 1, "->") ||
          IsPunct(tokens, start - 1, "::")) &&
         tokens[start - 2].kind == TokKind::kIdent) {
    start -= 2;
  }
  return start;
}

// True when the token just before `chain_start` marks a statement boundary,
// i.e. the call chain IS the statement (its value has nowhere to go).
bool AtStatementStart(const std::vector<Token>& tokens, size_t chain_start) {
  if (chain_start == 0) return true;
  const Token& prev = tokens[chain_start - 1];
  if (prev.kind == TokKind::kPunct) {
    // `:` is deliberately absent: it would catch `case x: Fn();` but also
    // misfire on the false branch of ternaries (`cond ? a : Fn(...)`).
    return prev.text == ";" || prev.text == "{" || prev.text == "}";
  }
  return prev.kind == TokKind::kIdent &&
         (prev.text == "else" || prev.text == "do");
}

// True when the call chain is prefixed by a `(void)` cast:
// tokens ... `(` `void` `)` chain.
bool VoidCastBefore(const std::vector<Token>& tokens, size_t chain_start) {
  return chain_start >= 3 && IsPunct(tokens, chain_start - 1, ")") &&
         IsIdent(tokens, chain_start - 2, "void") &&
         IsPunct(tokens, chain_start - 3, "(");
}

}  // namespace

void CheckStatusDiscipline(const FileModel& model, const AnalysisIndex& index,
                           std::vector<Finding>* findings) {
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    const std::string name(tokens[i].text);
    if (index.status_functions.count(name) == 0 ||
        index.nonstatus_functions.count(name) > 0) {
      continue;
    }
    const size_t close = MatchForward(tokens, i + 1);
    if (close == kNoMatch) continue;
    // The value must go nowhere: the statement ends right after the call.
    // `Fn(...).ok()`, `x = Fn(...)`, `return Fn(...)` all use the result.
    if (!IsPunct(tokens, close, ";")) continue;
    const size_t chain_start = ChainStart(tokens, i);
    if (AtStatementStart(tokens, chain_start)) {
      AddFinding(model, kRuleDiscardedStatus, tokens[i].line,
                 "return value of Status/Result-returning '" +
                     std::string(tokens[i].text) +
                     "' is discarded: a failed write would be silently "
                     "ignored; check it (FATS_RETURN_NOT_OK) or discard "
                     "explicitly with (void) plus "
                     "`// fats-lint: allow(discarded-status)`",
                 findings);
      continue;
    }
    if (VoidCastBefore(tokens, chain_start)) {
      // Explicit discard: fine only when annotated.  AddFinding marks the
      // finding suppressed when the allow() directive is present, so an
      // annotated cast reports suppressed=true and does not fail the run.
      AddFinding(model, kRuleDiscardedStatus, tokens[i].line,
                 "(void)-discard of Status/Result-returning '" +
                     std::string(tokens[i].text) +
                     "' lacks a `// fats-lint: allow(discarded-status)` "
                     "annotation: intentional discards must be marked so "
                     "they are greppable and reviewed",
                 findings);
    }
  }
}

}  // namespace fats::analyze
