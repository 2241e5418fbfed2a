// History-residency discipline (rule family 9): resident-history.  The
// state layer (src/state, DESIGN.md §7.8) exists so that per-record FATS
// history — one index list per (iteration, client) — lives in compressed
// blocks that tier out to mmap-backed segment files instead of growing the
// resident set without bound.  A declaration in src/fl like
//
//   std::map<Key, std::vector<int64_t>> minibatches_;     // fires
//   std::vector<std::vector<int64_t>> per_round_lists_;   // fires
//
// reintroduces the flat O(T·K) resident layout the layer replaced: at
// M = 10^6 clients such a member is the difference between a bounded-RSS
// run and an OOM kill.  Per-record history belongs in a state::HistoryLog.
// The store's inverted participation indices (sample -> use-iterations,
// client -> rounds) are the sanctioned exception — they are the O(1)
// unlearning triage structure and carry explicit
// `// fats-lint: allow(resident-history)` suppressions.
//
// Matched shape: a member or local *declaration* (not a function return
// type, parameter, or alias target) whose type is a std:: container with a
// std::vector<int64_t> nested anywhere in its template arguments.  Scoped
// to src/fl; src/state itself owns these layouts and is exempt by scope.

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

const std::set<std::string_view>& ContainerHeads() {
  static const auto* kSet = new std::set<std::string_view>{
      "map", "unordered_map", "vector", "deque", "list", "multimap"};
  return *kSet;
}

bool InScope(const std::string& path) {
  return path.find("src/fl/") != std::string::npos;
}

// Walks the template argument list starting at the `<` token at `open`.
// Returns the index one past the matching `>` (accounting for fused `>>`),
// or 0 when unbalanced. Sets `*has_index_list` when a `vector<int64_t>`
// (with or without std::) occurs anywhere inside.
size_t WalkTemplateArgs(const std::vector<Token>& tokens, size_t open,
                        bool* has_index_list) {
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind == TokKind::kPunct) {
      if (tokens[i].text == "<") {
        ++depth;
      } else if (tokens[i].text == ">") {
        if (--depth == 0) return i + 1;
      } else if (tokens[i].text == ">>") {
        depth -= 2;
        if (depth <= 0) return i + 1;
      } else if (tokens[i].text == ";" || tokens[i].text == "{") {
        return 0;  // unbalanced: `a < b;` comparison, not a template
      }
    } else if (i > open && tokens[i].kind == TokKind::kIdent &&
               tokens[i].text == "vector" && IsPunct(tokens, i + 1, "<") &&
               IsIdent(tokens, i + 2, "int64_t")) {
      *has_index_list = true;
    }
  }
  return 0;
}

}  // namespace

void CheckHistoryResidency(const FileModel& model,
                           std::vector<lint::Finding>* findings) {
  if (!InScope(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  for (size_t i = 0; i + 4 < tokens.size(); ++i) {
    // `std :: <container> <`
    if (!IsIdent(tokens, i, "std") || !IsPunct(tokens, i + 1, "::")) continue;
    if (tokens[i + 2].kind != TokKind::kIdent ||
        ContainerHeads().count(tokens[i + 2].text) == 0) {
      continue;
    }
    if (!IsPunct(tokens, i + 3, "<")) continue;
    bool has_index_list = false;
    const size_t after = WalkTemplateArgs(tokens, i + 3, &has_index_list);
    if (after == 0 || !has_index_list) continue;
    // Declaration discriminator: the closing `>` is followed by a bare
    // identifier and then `;`, `=`, `{`, or `(`-free end of declarator.
    // `> Name(` is a function returning the container; `> &name` / `>*` are
    // views over storage owned elsewhere; `>` followed by a further `>` or
    // `,` is a nested position already covered by the outer match.
    if (after >= tokens.size() || tokens[after].kind != TokKind::kIdent) {
      continue;
    }
    const Token& name = tokens[after];
    if (!(IsPunct(tokens, after + 1, ";") || IsPunct(tokens, after + 1, "=") ||
          IsPunct(tokens, after + 1, "{"))) {
      continue;
    }
    // Sequential appends: gcc 12 -O3 reports a false -Wrestrict on a
    // "literal" + std::string chain (GCC bug 105651).
    std::string message = "'";
    message += name.text;
    message +=
        "' keeps one resident index list per record; per-record "
        "history in src/fl must live in a state::HistoryLog "
        "(compressed blocks, segment spill — DESIGN.md §7.8) so "
        "RSS stays bounded at M=10^6 clients. If this is an O(1) "
        "triage index, suppress with "
        "// fats-lint: allow(resident-history)";
    AddFinding(model, kRuleResidentHistory, name.line, std::move(message),
               findings);
    i = after;
  }
}

}  // namespace fats::analyze
