#include "analyze/lexer.h"

#include <cctype>

namespace fats::analyze {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Two-character operators worth fusing so the rule passes can match them as
// single tokens.  Three-character operators (<<=, ...) are irrelevant to the
// rules and lex as two tokens; that is fine.
bool IsFusedPair(char a, char b) {
  switch (a) {
    case ':':
      return b == ':';
    case '+':
      return b == '=' || b == '+';
    case '-':
      return b == '=' || b == '>' || b == '-';
    case '*':
    case '/':
    case '%':
    case '!':
    case '=':
    case '^':
      return b == '=';
    case '<':
      return b == '=' || b == '<';
    case '>':
      return b == '=' || b == '>';
    case '&':
      return b == '&' || b == '=';
    case '|':
      return b == '|' || b == '=';
    default:
      return false;
  }
}

}  // namespace

std::vector<Token> Lex(std::string_view stripped) {
  std::vector<Token> tokens;
  tokens.reserve(stripped.size() / 4);
  int line = 1;
  size_t i = 0;
  while (i < stripped.size()) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    Token tok;
    tok.offset = i;
    tok.line = line;
    if (IsIdentStart(c)) {
      size_t end = i + 1;
      while (end < stripped.size() && IsIdentChar(stripped[end])) ++end;
      tok.kind = TokKind::kIdent;
      tok.text = stripped.substr(i, end - i);
      i = end;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      // Digits, hex/bin prefixes, suffixes, digit separators, and the
      // exponent forms 1e+5 / 0x1p-3.  Over-accepting is fine: the rules
      // only ever ask "is this token a number".
      size_t end = i + 1;
      while (end < stripped.size() &&
             (IsIdentChar(stripped[end]) || stripped[end] == '.' ||
              stripped[end] == '\'' ||
              ((stripped[end] == '+' || stripped[end] == '-') &&
               (stripped[end - 1] == 'e' || stripped[end - 1] == 'E' ||
                stripped[end - 1] == 'p' || stripped[end - 1] == 'P')))) {
        ++end;
      }
      tok.kind = TokKind::kNumber;
      tok.text = stripped.substr(i, end - i);
      i = end;
    } else {
      size_t len = 1;
      if (i + 1 < stripped.size() && IsFusedPair(c, stripped[i + 1])) len = 2;
      tok.kind = TokKind::kPunct;
      tok.text = stripped.substr(i, len);
      i += len;
    }
    tokens.push_back(tok);
  }
  return tokens;
}

size_t MatchForward(const std::vector<Token>& tokens, size_t open) {
  if (open >= tokens.size() || tokens[open].kind != TokKind::kPunct) {
    return kNoMatch;
  }
  char opener = tokens[open].text[0];
  char closer;
  switch (opener) {
    case '(':
      closer = ')';
      break;
    case '[':
      closer = ']';
      break;
    case '{':
      closer = '}';
      break;
    case '<':
      closer = '>';
      break;
    default:
      return kNoMatch;
  }
  int depth = 0;
  for (size_t i = open; i < tokens.size(); ++i) {
    // The lexer fuses `>>`; inside a template argument list it closes two
    // levels, as in `Result<std::unique_ptr<X>>`.
    if (opener == '<' && IsPunct(tokens, i, ">>")) {
      depth -= 2;
      if (depth <= 0) return i + 1;
      continue;
    }
    if (tokens[i].kind != TokKind::kPunct || tokens[i].text.size() != 1) {
      // `<` matching must also bail on statement ends: a stray comparison
      // would otherwise swallow the rest of the file.
      if (opener == '<' && IsPunct(tokens, i, ";")) return kNoMatch;
      continue;
    }
    const char t = tokens[i].text[0];
    if (t == opener) {
      ++depth;
    } else if (t == closer) {
      if (--depth == 0) return i + 1;
    } else if (opener == '<' && t == ';') {
      return kNoMatch;
    }
  }
  return kNoMatch;
}

bool IsIdent(const std::vector<Token>& tokens, size_t i,
             std::string_view text) {
  return i < tokens.size() && tokens[i].kind == TokKind::kIdent &&
         tokens[i].text == text;
}

bool IsPunct(const std::vector<Token>& tokens, size_t i,
             std::string_view text) {
  return i < tokens.size() && tokens[i].kind == TokKind::kPunct &&
         tokens[i].text == text;
}

}  // namespace fats::analyze
