// Index-building pass: one sweep over every file before any rule runs,
// collecting the cross-file state the rules need — the set of functions
// declared to return Status/Result<T> by value (for discarded-status), the
// registered failpoint site names (for diagnostics and tooling), and the
// include graph (for the layering rules).

#include <regex>
#include <set>

#include "analyze/rules.h"

namespace fats::analyze {
namespace {

// Keywords that make an `ident ident (` triple something other than a
// declaration (`else Fn(...)`, `return make(...)`, `case kX(...)`), plus
// type-position words that precede the real return type.
const std::set<std::string_view>& NotAReturnType() {
  static const auto* kSet = new std::set<std::string_view>{
      "if",       "else",     "do",        "while",    "for",
      "switch",   "return",   "case",      "new",      "delete",
      "throw",    "goto",     "co_return", "co_await", "co_yield",
      "sizeof",   "typedef",  "using",     "template", "typename",
      "operator", "Status",   "Result",    "StatusOr"};
  return *kSet;
}

}  // namespace

std::vector<std::string> AnalyzerRules() {
  return {kRuleRngRawKey,      kRuleRngSharedStream,     kRuleRngUnorderedDraw,
          kRuleSamplingKeyOwner, kRuleNondetReduction,   kRuleFailpointGap,
          kRuleDiscardedStatus, kRuleLayerOrder,         kRuleLayerCycle,
          kRuleStoreMutationBypass, kRuleUnlearnOwner, kRuleEvalOnRead,
          kRuleRawWire, kRuleTileOverlap, kRuleResidentHistory};
}

void IndexFile(const FileModel& model, AnalysisIndex* index) {
  const std::vector<Token>& tokens = model.tokens;

  // Status-returning functions: `Status Name(` — by-value return only, so
  // `Status& Accessor(` and `Status::OK()` do not match.  Result<T>:
  // `Result < ... > Name (`.
  for (size_t i = 0; i + 2 < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent) continue;
    // Other-typed declarations of the same names: `void Append(`,
    // `uint64_t U64(` — any `ident ident (` whose first word is not a
    // Status type and not a keyword marks the name ambiguous.
    if (NotAReturnType().count(tokens[i].text) == 0 &&
        tokens[i + 1].kind == TokKind::kIdent &&
        NotAReturnType().count(tokens[i + 1].text) == 0 &&
        IsPunct(tokens, i + 2, "(")) {
      index->nonstatus_functions.insert(std::string(tokens[i + 1].text));
    }
    if (tokens[i].text == "Status") {
      if (tokens[i + 1].kind == TokKind::kIdent &&
          IsPunct(tokens, i + 2, "(")) {
        index->status_functions.insert(std::string(tokens[i + 1].text));
      }
    } else if (tokens[i].text == "Result" || tokens[i].text == "StatusOr") {
      if (!IsPunct(tokens, i + 1, "<")) continue;
      const size_t past = MatchForward(tokens, i + 1);
      if (past >= tokens.size()) continue;
      if (tokens[past].kind == TokKind::kIdent &&
          IsPunct(tokens, past + 1, "(")) {
        index->status_functions.insert(std::string(tokens[past].text));
      }
    }
  }

  // Failpoint sites come from the raw content: the site names are string
  // literals, which the stripped text blanks.
  static const std::regex kSite(
      R"((?:FATS_FAILPOINT(?:_STATUS)?|RegisterSite)\s*\(\s*"([^"]+)\")");
  const std::string& content = model.source->content;
  for (std::sregex_iterator it(content.begin(), content.end(), kSite), end;
       it != end; ++it) {
    index->failpoint_sites.insert((*it)[1].str());
  }

  index->includes.AddFile(model.source->path, content);
}

}  // namespace fats::analyze
