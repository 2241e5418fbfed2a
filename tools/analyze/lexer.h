// Lightweight C++ lexer for the fats_analyze passes.
//
// The lexer runs over comment/string-stripped source (see
// StripCommentsAndStrings in code_model.h), so it never sees string or
// comment content; string literals lex as whitespace.  It produces just enough
// structure for the analyzer's pattern passes: identifiers, numbers, and
// punctuators (with the handful of multi-character operators the rules care
// about — `::`, `+=`, `->`, ... — fused into single tokens).  It is not a
// preprocessor and does not expand macros; macro names lex as identifiers,
// which is exactly what the failpoint-coverage pass wants.

#ifndef FATS_TOOLS_ANALYZE_LEXER_H_
#define FATS_TOOLS_ANALYZE_LEXER_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace fats::analyze {

enum class TokKind {
  kIdent,   // identifiers and keywords (no keyword table; rules match text)
  kNumber,  // numeric literals including 0x / suffixes / digit separators
  kPunct,   // punctuation; multi-char operators fused (see lexer.cc)
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string_view text;  // view into the stripped source passed to Lex
  size_t offset = 0;      // byte offset into that source
  int line = 0;           // 1-based
};

// Lexes stripped source.  The returned tokens view into `stripped`, which
// must outlive them.
std::vector<Token> Lex(std::string_view stripped);

// Token-index helpers.  All return kNoMatch on failure rather than
// asserting, so passes degrade gracefully on code they cannot parse.

// Failure sentinel for MatchForward.  Distinct from tokens.size(): a
// successful match whose closer is the file's last token legitimately
// returns tokens.size(), so that value must not double as "unbalanced".
inline constexpr size_t kNoMatch = static_cast<size_t>(-1);

// Index just past the token matching the opener at `open` (tokens[open]
// must be "(", "[", "{", or "<").  Returns kNoMatch when unbalanced.
size_t MatchForward(const std::vector<Token>& tokens, size_t open);

// True if tokens[i] is an identifier with exactly this text.
bool IsIdent(const std::vector<Token>& tokens, size_t i, std::string_view text);

// True if tokens[i] is a punctuator with exactly this text.
bool IsPunct(const std::vector<Token>& tokens, size_t i, std::string_view text);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_LEXER_H_
