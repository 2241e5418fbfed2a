// Internal helpers shared by the fats_analyze rule passes.

#ifndef FATS_TOOLS_ANALYZE_RULES_UTIL_H_
#define FATS_TOOLS_ANALYZE_RULES_UTIL_H_

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analyze/code_model.h"
#include "analyze/report.h"

namespace fats::analyze {

// Appends a finding, honoring the file's suppression directives.
inline void AddFinding(const FileModel& model, const char* rule, int line,
                       std::string message,
                       std::vector<Finding>* findings) {
  Finding f;
  f.rule = rule;
  f.file = model.source->path;
  f.line = line;
  f.message = std::move(message);
  f.suppressed = model.suppressions.Allows(line, f.rule);
  findings->push_back(std::move(f));
}

// RngStream draw methods: a call to one of these consumes stream state.
inline const std::set<std::string_view>& DrawMethods() {
  static const auto* kSet = new std::set<std::string_view>{
      "NextUInt32", "NextUInt64", "NextDouble",
      "UniformInt", "NextGaussian", "NextBernoulli"};
  return *kSet;
}

// True when tokens[i] is written `std::name` (the `std` is tokens[i - 2]).
inline bool IsStdQualified(const std::vector<Token>& tokens, size_t i) {
  return i >= 2 && IsPunct(tokens, i - 1, "::") &&
         IsIdent(tokens, i - 2, "std");
}

// Line of a match at tokens[i] that includes an optional leading `std::`.
inline int MatchLine(const std::vector<Token>& tokens, size_t i) {
  return tokens[IsStdQualified(tokens, i) ? i - 2 : i].line;
}

// begin() and its c/r/cr variants: traversal always starts at one of them,
// whereas the end() sentinel also appears in order-independent find()
// compares.
inline bool IsBeginMember(std::string_view name) {
  return name == "begin" || name == "cbegin" || name == "rbegin" ||
         name == "crbegin";
}

// Body of the `for` whose keyword is tokens[kw], as the token extent
// [*begin, *end): inside the braces of a braced body, else the single
// statement through its ';'.  False when the header or body does not parse.
bool ForBodyExtent(const std::vector<Token>& tokens, size_t kw, size_t* begin,
                   size_t* end);

// A loop that iterates an unordered container: a range-for whose container
// expression starts with a declared unordered name (`: name`, `: name[k]`,
// `: Owner::name`), or an explicit `name.begin()` iterator loop.  The body
// is the token extent [body_begin, body_end), empty when it cannot be
// parsed.
struct UnorderedLoop {
  size_t body_begin = 0;
  size_t body_end = 0;
  int line = 0;  // line of the `for` keyword
  // The name when the range-for's container expression is exactly that
  // (optionally qualified) name, i.e. the loop walks the hash table itself;
  // empty otherwise.
  std::string_view range_over;
};

// Finds loops over any of `unordered_names` in the token stream.
std::vector<UnorderedLoop> FindUnorderedLoops(
    const std::vector<Token>& tokens,
    const std::vector<std::string>& unordered_names);

// True if an identifier is declared with a float/double(-backed) type
// somewhere in the file: `float x`, `double& x`, `std::vector<float> x`,
// `Tensor x`, or a float/double pointer.  Heuristic by design.
bool FloatTypedInFile(const std::vector<Token>& tokens,
                      std::string_view var_name);

// Token ranges of the argument lists of every `ParallelFor(...)` call in
// the file, as [open_paren + 1, close_paren) extents.
std::vector<std::pair<size_t, size_t>> ParallelForArgRanges(
    const std::vector<Token>& tokens);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_RULES_UTIL_H_
