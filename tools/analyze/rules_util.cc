#include "analyze/rules_util.h"

#include <algorithm>

namespace fats::analyze {
namespace {

// Token index just past the end of the statement starting at `pos`
// (handles nested parens/braces), or tokens.size().
size_t StatementEndTok(const std::vector<Token>& tokens, size_t pos) {
  size_t i = pos;
  while (i < tokens.size()) {
    if (IsPunct(tokens, i, "(") || IsPunct(tokens, i, "{") ||
        IsPunct(tokens, i, "[")) {
      const size_t past = MatchForward(tokens, i);
      if (past == kNoMatch) return tokens.size();
      i = past;
    } else if (IsPunct(tokens, i, ";")) {
      return i + 1;
    } else {
      ++i;
    }
  }
  return tokens.size();
}

}  // namespace

bool ForBodyExtent(const std::vector<Token>& tokens, size_t kw, size_t* begin,
                   size_t* end) {
  if (!IsIdent(tokens, kw, "for") || !IsPunct(tokens, kw + 1, "(")) {
    return false;
  }
  const size_t header_close = MatchForward(tokens, kw + 1);
  if (header_close == kNoMatch) return false;
  if (IsPunct(tokens, header_close, "{")) {
    const size_t body_close = MatchForward(tokens, header_close);
    if (body_close == kNoMatch) return false;
    *begin = header_close + 1;
    *end = body_close - 1;
    return true;
  }
  const size_t statement_end = StatementEndTok(tokens, header_close);
  if (statement_end == tokens.size()) return false;
  *begin = header_close;
  *end = statement_end;
  return true;
}

std::vector<UnorderedLoop> FindUnorderedLoops(
    const std::vector<Token>& tokens,
    const std::vector<std::string>& unordered_names) {
  std::vector<UnorderedLoop> loops;
  if (unordered_names.empty()) return loops;
  auto is_name = [&](size_t k) {
    return k < tokens.size() && tokens[k].kind == TokKind::kIdent &&
           std::find(unordered_names.begin(), unordered_names.end(),
                     tokens[k].text) != unordered_names.end();
  };
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens, i, "for") || !IsPunct(tokens, i + 1, "(")) continue;
    const size_t header_open = i + 1;
    const size_t header_close = MatchForward(tokens, header_open);
    if (header_close == kNoMatch) continue;

    UnorderedLoop loop;
    loop.line = tokens[i].line;
    bool over_unordered = false;
    int depth = 0;
    for (size_t j = header_open + 1; j + 1 < header_close; ++j) {
      if (tokens[j].kind == TokKind::kPunct && tokens[j].text.size() == 1) {
        const char c = tokens[j].text[0];
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') --depth;
      }
      // Range-for: `for (decl : container)` with ':' at top level.  The
      // container expression, past any `Owner::` qualifiers, must start
      // with an unordered name; when it is just that name, the loop
      // traverses the container itself.
      if (depth == 0 && IsPunct(tokens, j, ":")) {
        size_t k = j + 1;
        if (IsPunct(tokens, k, "::")) ++k;
        while (k + 1 < header_close && tokens[k].kind == TokKind::kIdent &&
               IsPunct(tokens, k + 1, "::")) {
          k += 2;
        }
        if (k + 1 < header_close && is_name(k)) {
          over_unordered = true;
          if (k + 2 == header_close && loop.range_over.empty()) {
            loop.range_over = tokens[k].text;
          }
        }
      }
      // Iterator loop: `name.begin()` / `name.cbegin()` in the header.
      if (tokens[j].kind == TokKind::kIdent && IsBeginMember(tokens[j].text) &&
          j >= 2 && IsPunct(tokens, j - 1, ".") && is_name(j - 2)) {
        over_unordered = true;
      }
    }
    if (!over_unordered) continue;

    if (!ForBodyExtent(tokens, i, &loop.body_begin, &loop.body_end)) {
      loop.body_begin = loop.body_end = header_close;
    }
    loops.push_back(loop);
  }
  return loops;
}

bool FloatTypedInFile(const std::vector<Token>& tokens,
                      std::string_view var_name) {
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || tokens[i].text != var_name) {
      continue;
    }
    // Look back a short window for a float/double/Tensor type token with no
    // statement boundary in between: catches `float x`, `double& x`,
    // `std::vector<float> x`, `Tensor x`, `const float* x`.
    const size_t window_begin = i >= 8 ? i - 8 : 0;
    for (size_t j = i; j-- > window_begin;) {
      if (tokens[j].kind == TokKind::kPunct &&
          (tokens[j].text == ";" || tokens[j].text == "{" ||
           tokens[j].text == "}" || tokens[j].text == ")")) {
        break;
      }
      if (tokens[j].kind == TokKind::kIdent &&
          (tokens[j].text == "float" || tokens[j].text == "double" ||
           tokens[j].text == "Tensor")) {
        return true;
      }
    }
  }
  return false;
}

std::vector<std::pair<size_t, size_t>> ParallelForArgRanges(
    const std::vector<Token>& tokens) {
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens, i, "ParallelFor") || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    const size_t close = MatchForward(tokens, i + 1);
    if (close == kNoMatch) continue;
    ranges.emplace_back(i + 2, close - 1);
  }
  return ranges;
}

}  // namespace fats::analyze
