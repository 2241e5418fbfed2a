#include "analyze/code_model.h"

#include <algorithm>
#include <cctype>
#include <set>

namespace fats::analyze {
namespace {

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// True if `path` contains the directory component `dir` (e.g. "src/rng").
// Both '/' and '\\' are accepted as separators.
bool HasComponent(std::string_view path, std::string_view dir) {
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  std::string needle = "/";
  needle += dir;
  needle += '/';
  if (norm.find(needle) != std::string::npos) return true;
  // Repo-relative paths like "src/rng/philox.cc" have no leading slash.
  return std::string_view(norm).starts_with(
      std::string_view(needle).substr(1));
}

size_t SkipSpaces(std::string_view s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

// Index just past the template argument list opened by the `<` at `open`,
// counting every '<'/'>' character so a fused `>>` closes two levels.
// kNoMatch when a ';' intervenes or the list closes inside a token (the
// first '>' of `>>` closing the outermost level: `vector<set<int>> x`
// declares a vector, not a set).
size_t PastTemplateArgs(const std::vector<Token>& tokens, size_t open) {
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kPunct) continue;
    if (tokens[i].text == ";") return kNoMatch;
    const std::string_view text = tokens[i].text;
    for (size_t c = 0; c < text.size(); ++c) {
      if (text[c] == '<') ++depth;
      if (text[c] == '>' && --depth == 0) {
        return c + 1 == text.size() ? i + 1 : kNoMatch;
      }
    }
  }
  return kNoMatch;
}

// Names declared as `unordered_{map,set,multimap,multiset}<...> name`,
// sorted and unique.  `using X = ...;` aliases, references, and functions
// returning the container (`name(` follows) are not variables.
std::vector<std::string> CollectUnorderedNames(
    const std::vector<Token>& tokens) {
  std::vector<std::string> names;
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    const std::string_view t = tokens[i].text;
    if (tokens[i].kind != TokKind::kIdent ||
        (t != "unordered_map" && t != "unordered_set" &&
         t != "unordered_multimap" && t != "unordered_multiset") ||
        !IsPunct(tokens, i + 1, "<")) {
      continue;
    }
    const size_t name = PastTemplateArgs(tokens, i + 1);
    if (name >= tokens.size() || tokens[name].kind != TokKind::kIdent ||
        IsPunct(tokens, name + 1, "(")) {
      continue;
    }
    names.emplace_back(tokens[name].text);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

// Keywords that look like `ident (` but never start a function definition.
const std::set<std::string_view>& ControlKeywords() {
  static const auto* kSet = new std::set<std::string_view>{
      "if", "for", "while", "switch", "catch", "return", "sizeof",
      "alignof", "decltype", "static_assert", "new", "delete", "throw"};
  return *kSet;
}

// Qualifier-ish identifiers allowed between a parameter list's ')' and the
// body '{' of a function definition.
bool IsTrailingQualifier(std::string_view text) {
  return text == "const" || text == "noexcept" || text == "override" ||
         text == "final" || text == "mutable" || text == "try";
}

// Skips a constructor member-init list starting at the ':' token.  Returns
// the index of the body '{', or tokens.size() when the shape is not an init
// list (e.g. `case x:` labels).
size_t SkipInitList(const std::vector<Token>& tokens, size_t colon) {
  size_t i = colon + 1;
  while (i < tokens.size()) {
    if (tokens[i].kind != TokKind::kIdent) return tokens.size();
    ++i;
    // Allow qualified member names (rare) and template args.
    while (IsPunct(tokens, i, "::") && i + 1 < tokens.size() &&
           tokens[i + 1].kind == TokKind::kIdent) {
      i += 2;
    }
    if (IsPunct(tokens, i, "<")) {
      const size_t past = MatchForward(tokens, i);
      if (past == kNoMatch) return tokens.size();
      i = past;
    }
    if (!IsPunct(tokens, i, "(") && !IsPunct(tokens, i, "{")) {
      return tokens.size();
    }
    const size_t past = MatchForward(tokens, i);
    if (past == kNoMatch) return tokens.size();
    i = past;
    if (IsPunct(tokens, i, ",")) {
      ++i;
      continue;
    }
    if (IsPunct(tokens, i, "{")) return i;
    return tokens.size();
  }
  return tokens.size();
}

}  // namespace

std::vector<FunctionDef> ExtractFunctions(const std::vector<Token>& tokens) {
  std::vector<FunctionDef> defs;
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind != TokKind::kIdent || !IsPunct(tokens, i + 1, "(")) {
      continue;
    }
    if (ControlKeywords().count(tokens[i].text) > 0) continue;
    // The callee chain must sit at declaration position, not be a call:
    // a call is preceded by `.`, `->`, `(`, `,`, an operator, `return`, ...
    // A definition's name is preceded by a type token, `::`, `&`, `*`, or
    // starts the file.  Rather than enumerate types, require that walking
    // back over `ident ::` qualifiers lands on something that is NOT one of
    // the call-context punctuators.
    size_t name_idx = i;
    std::string qualified(tokens[i].text);
    size_t back = i;
    while (back >= 2 && IsPunct(tokens, back - 1, "::") &&
           tokens[back - 2].kind == TokKind::kIdent) {
      qualified = std::string(tokens[back - 2].text) + "::" + qualified;
      back -= 2;
    }
    if (back > 0) {
      const Token& prev = tokens[back - 1];
      const bool call_context =
          prev.kind == TokKind::kPunct &&
          (prev.text == "." || prev.text == "->" || prev.text == "(" ||
           prev.text == "," || prev.text == "=" || prev.text == "+" ||
           prev.text == "-" || prev.text == "!" || prev.text == "<" ||
           prev.text == "?" || prev.text == ":" || prev.text == "::" ||
           prev.text == "+=" || prev.text == "-=" || prev.text == "==" ||
           prev.text == "!=" || prev.text == "&&" || prev.text == "||" ||
           // `>>` is NOT call context: `Result<unique_ptr<T>> Fn(` lexes
           // the closing angles as one `>>` token, and the body-brace
           // requirement below already rejects stream-extraction chains.
           prev.text == "<<");
      const bool keyword_context = prev.kind == TokKind::kIdent &&
                                   (prev.text == "return" ||
                                    prev.text == "co_return" ||
                                    prev.text == "case" || prev.text == "new");
      if (call_context || keyword_context) continue;
    }
    const size_t close = MatchForward(tokens, i + 1);
    if (close == kNoMatch) continue;
    size_t j = close;
    // Trailing qualifiers, `-> Type` return specs, and `: init-list`.
    while (j < tokens.size()) {
      if (tokens[j].kind == TokKind::kIdent &&
          IsTrailingQualifier(tokens[j].text)) {
        ++j;
        continue;
      }
      if (IsPunct(tokens, j, "->")) {
        // Trailing return type: skip tokens up to '{', ';', or init ':'.
        ++j;
        while (j < tokens.size() && !IsPunct(tokens, j, "{") &&
               !IsPunct(tokens, j, ";") && !IsPunct(tokens, j, ":")) {
          if (IsPunct(tokens, j, "<")) {
            const size_t past = MatchForward(tokens, j);
            if (past == kNoMatch) break;
            j = past;
          } else {
            ++j;
          }
        }
        continue;
      }
      if (IsPunct(tokens, j, "noexcept") || IsPunct(tokens, j, "(")) {
        // noexcept(expr)
        const size_t past = MatchForward(tokens, j);
        if (past == kNoMatch) break;
        j = past;
        continue;
      }
      break;
    }
    size_t body_open = tokens.size();
    if (IsPunct(tokens, j, "{")) {
      body_open = j;
    } else if (IsPunct(tokens, j, ":")) {
      body_open = SkipInitList(tokens, j);
    }
    if (body_open >= tokens.size()) continue;
    const size_t body_close = MatchForward(tokens, body_open);
    if (body_close == kNoMatch) continue;
    FunctionDef def;
    def.name = std::string(tokens[name_idx].text);
    def.qualified = qualified;
    def.body_begin = body_open + 1;
    def.body_end = body_close - 1;
    def.line = tokens[name_idx].line;
    defs.push_back(std::move(def));
  }
  return defs;
}

std::vector<LambdaBody> FindLambdas(const std::vector<Token>& tokens,
                                    size_t begin, size_t end) {
  std::vector<LambdaBody> lambdas;
  for (size_t i = begin; i < end && i < tokens.size(); ++i) {
    if (!IsPunct(tokens, i, "[")) continue;
    // A lambda introducer is preceded by an expression-starting context;
    // a subscript is preceded by a value (ident, ')', ']', number).
    if (i > 0) {
      const Token& prev = tokens[i - 1];
      if (prev.kind == TokKind::kIdent && prev.text != "return" &&
          prev.text != "case") {
        continue;
      }
      if (prev.kind == TokKind::kNumber) continue;
      if (prev.kind == TokKind::kPunct &&
          (prev.text == ")" || prev.text == "]")) {
        continue;
      }
    }
    const size_t capture_close = MatchForward(tokens, i);
    if (capture_close == kNoMatch) continue;
    size_t j = capture_close;
    LambdaBody lambda;
    lambda.line = tokens[i].line;
    if (IsPunct(tokens, j, "(")) {
      const size_t params_close = MatchForward(tokens, j);
      if (params_close == kNoMatch) continue;
      // Parameter names: the identifier directly before each ',' or the
      // closing ')' (skipping defaulted params is not needed in this tree).
      for (size_t p = j + 1; p < params_close; ++p) {
        if ((IsPunct(tokens, p, ",") || p == params_close - 1) && p > j + 1 &&
            tokens[p - 1].kind == TokKind::kIdent) {
          lambda.param_names.emplace_back(tokens[p - 1].text);
        }
      }
      j = params_close;
    }
    // mutable / noexcept / -> Type
    while (j < tokens.size() && !IsPunct(tokens, j, "{") &&
           !IsPunct(tokens, j, ";") && !IsPunct(tokens, j, ")") &&
           !IsPunct(tokens, j, ",")) {
      ++j;
    }
    if (!IsPunct(tokens, j, "{")) continue;
    const size_t body_close = MatchForward(tokens, j);
    if (body_close == kNoMatch) continue;
    lambda.body_begin = j + 1;
    lambda.body_end = body_close - 1;
    lambdas.push_back(std::move(lambda));
    i = j;  // descend: nested lambdas are found by the continuing scan
  }
  return lambdas;
}

bool DeclaresVariable(const std::vector<Token>& tokens, size_t begin,
                      size_t end, std::string_view type_name,
                      std::string_view var_name) {
  for (size_t i = begin; i + 1 < end && i + 1 < tokens.size(); ++i) {
    if (!IsIdent(tokens, i, type_name)) continue;
    // Allow `Type name`, `Type& name`, `Type* name`.
    size_t j = i + 1;
    while (IsPunct(tokens, j, "&") || IsPunct(tokens, j, "*")) ++j;
    if (IsIdent(tokens, j, var_name)) return true;
  }
  return false;
}

SuppressionMap SuppressionMap::Parse(std::string_view content) {
  static constexpr std::string_view kTag = "fats-lint:";
  SuppressionMap map;
  int line_no = 0;
  for (size_t start = 0; start <= content.size();) {
    size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) nl = content.size();
    const std::string_view line = content.substr(start, nl - start);
    start = nl + 1;
    ++line_no;
    for (size_t pos = line.find(kTag); pos != std::string_view::npos;
         pos = line.find(kTag, pos)) {
      pos += kTag.size();
      size_t cursor = SkipSpaces(line, pos);
      if (line.compare(cursor, 5, "allow") != 0) continue;
      cursor = SkipSpaces(line, cursor + 5);
      if (cursor >= line.size() || line[cursor] != '(') continue;
      const size_t close = line.find(')', cursor);
      if (close == std::string_view::npos) continue;
      // Comma-separated rule list; an empty list (`allow()`) allows
      // nothing, and recording it would make empty() lie.
      std::string item;
      for (size_t i = cursor + 1; i <= close; ++i) {
        if (i < close && line[i] != ',') {
          if (!std::isspace(static_cast<unsigned char>(line[i]))) {
            item += line[i];
          }
        } else if (!item.empty()) {
          map.by_line_[line_no].insert(item);
          item.clear();
        }
      }
      pos = close;
    }
  }
  return map;
}

bool SuppressionMap::Allows(int line, const std::string& rule) const {
  for (int l : {line, line - 1}) {
    auto it = by_line_.find(l);
    if (it == by_line_.end()) continue;
    if (it->second.count(rule) || it->second.count("all")) return true;
  }
  return false;
}

FileClass ClassifyPath(std::string_view path) {
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  FileClass cls;
  cls.rng_rules = !HasComponent(path, "src/rng");
  cls.ordered_rules = HasComponent(path, "src/core") ||
                      HasComponent(path, "src/fl") ||
                      HasComponent(path, "src/baselines");
  // The pool module itself is the single sanctioned thread creator.
  cls.thread_rules = norm.find("util/thread_pool.") == std::string::npos;
  // The journal module is the single sanctioned raw-file writer.
  cls.io_rules = (HasComponent(path, "src/core") ||
                  HasComponent(path, "src/fl") ||
                  HasComponent(path, "src/io")) &&
                 norm.find("io/journal.") == std::string::npos;
  cls.hot_rules = HasComponent(path, "src/nn");
  return cls;
}

bool ShouldLintFile(std::string_view path) {
  return EndsWith(path, ".cc") || EndsWith(path, ".cpp") ||
         EndsWith(path, ".cxx") || EndsWith(path, ".h") ||
         EndsWith(path, ".hpp");
}

std::string StripCommentsAndStrings(std::string_view content) {
  std::string out(content);
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of a raw string
  size_t i = 0;
  auto blank = [&out](size_t pos) {
    if (out[pos] != '\n') out[pos] = ' ';
  };
  while (i < out.size()) {
    char c = out[i];
    char next = (i + 1 < out.size()) ? out[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          blank(i);
          blank(i + 1);
          i += 2;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   out[i - 1])) &&
                               out[i - 1] != '_'))) {
          // R"delim( ... )delim"
          size_t open = out.find('(', i + 2);
          if (open == std::string::npos) {
            ++i;
            break;
          }
          raw_delim.assign(1, ')');
          raw_delim.append(out, i + 2, open - (i + 2));
          raw_delim += '"';
          for (size_t j = i; j <= open; ++j) blank(j);
          i = open + 1;
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
          ++i;
        } else if (c == '\'') {
          state = State::kChar;
          ++i;
        } else {
          ++i;
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          blank(i);
        }
        ++i;
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          blank(i);
          blank(i + 1);
          state = State::kCode;
          i += 2;
        } else {
          blank(i);
          ++i;
        }
        break;
      case State::kString:
      case State::kChar: {
        const char quote = state == State::kString ? '"' : '\'';
        if (c == '\\') {
          blank(i);
          if (i + 1 < out.size()) blank(i + 1);
          i += 2;
        } else if (c == quote) {
          state = State::kCode;
          ++i;
        } else {
          blank(i);
          ++i;
        }
        break;
      }
      case State::kRawString:
        if (out.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t j = i; j < i + raw_delim.size(); ++j) blank(j);
          i += raw_delim.size();
          state = State::kCode;
        } else {
          blank(i);
          ++i;
        }
        break;
    }
  }
  return out;
}

FileModel BuildFileModel(const SourceFile& source) {
  FileModel model;
  model.source = &source;
  model.stripped = std::make_unique<const std::string>(
      StripCommentsAndStrings(source.content));
  model.tokens = Lex(*model.stripped);
  model.suppressions = SuppressionMap::Parse(source.content);
  model.file_class = ClassifyPath(source.path);
  model.functions = ExtractFunctions(model.tokens);
  model.unordered_names = CollectUnorderedNames(model.tokens);
  return model;
}

}  // namespace fats::analyze
