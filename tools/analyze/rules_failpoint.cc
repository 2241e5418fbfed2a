// Failpoint coverage (rule family 3): failpoint-gap.  Cross-references the
// durable-write primitives used in src/io against failpoint sites: every
// function that can make bytes durable (or destroy them) must carry a
// FATS_FAILPOINT / FATS_FAILPOINT_STATUS / failpoint::Evaluate site in its
// body, or the crash matrix (tests/crash_matrix_test.cc) cannot kill the
// process inside it and its recovery path ships untested.

#include <algorithm>
#include <regex>
#include <set>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

const std::set<std::string_view>& DurablePrimitives() {
  static const auto* kSet = new std::set<std::string_view>{
      "fsync", "fdatasync", "rename", "truncate", "ftruncate", "fwrite"};
  return *kSet;
}

const std::set<std::string_view>& CoveringIdents() {
  static const auto* kSet = new std::set<std::string_view>{
      "FATS_FAILPOINT", "FATS_FAILPOINT_STATUS", "Evaluate"};
  return *kSet;
}

std::vector<std::string_view> SplitLinesView(std::string_view content) {
  std::vector<std::string_view> lines;
  size_t start = 0;
  while (start <= content.size()) {
    const size_t nl = content.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(content.substr(start));
      break;
    }
    lines.push_back(content.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

// fopen counts as a durable primitive only in a write/append mode.  The
// mode string is blanked in the stripped text, so consult the raw source:
// a `"w` / `"a` quote on the call line or the next one (the mode argument
// may wrap).
bool FopenIsWrite(const std::vector<std::string_view>& raw_lines, int line) {
  static const std::regex kWriteMode(R"("\s*[wa])");
  for (int l : {line, line + 1}) {
    if (l < 1 || static_cast<size_t>(l) > raw_lines.size()) continue;
    const std::string text(raw_lines[static_cast<size_t>(l) - 1]);
    if (std::regex_search(text, kWriteMode)) return true;
  }
  return false;
}

bool PathInSrcIo(std::string_view path) {
  std::string norm(path);
  std::replace(norm.begin(), norm.end(), '\\', '/');
  return norm.find("src/io/") != std::string::npos ||
         norm.rfind("io/", 0) == 0;
}

}  // namespace

void CheckFailpointCoverage(const FileModel& model,
                            std::vector<Finding>* findings) {
  if (!PathInSrcIo(model.source->path)) return;
  const std::vector<Token>& tokens = model.tokens;
  const std::vector<std::string_view> raw_lines =
      SplitLinesView(model.source->content);

  for (const FunctionDef& fn : model.functions) {
    std::vector<std::string> primitives;
    int first_line = 0;
    bool covered = false;
    for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (tokens[i].kind != TokKind::kIdent) continue;
      if (CoveringIdents().count(tokens[i].text) > 0) {
        covered = true;
        continue;
      }
      if (!IsPunct(tokens, i + 1, "(")) continue;
      const std::string_view name = tokens[i].text;
      bool durable = DurablePrimitives().count(name) > 0;
      if (!durable && name == "fopen") {
        durable = FopenIsWrite(raw_lines, tokens[i].line);
      }
      if (!durable) continue;
      if (std::find(primitives.begin(), primitives.end(),
                    std::string(name)) == primitives.end()) {
        primitives.emplace_back(name);
      }
      if (first_line == 0) first_line = tokens[i].line;
    }
    if (primitives.empty() || covered) continue;
    std::string list;
    for (const std::string& p : primitives) {
      if (!list.empty()) list += ", ";
      list += p;
    }
    AddFinding(
        model, kRuleFailpointGap, first_line,
        "'" + fn.qualified + "' calls durable-write primitive(s) [" + list +
            "] with no failpoint site in its body: the crash matrix cannot "
            "kill inside this path, so its recovery behavior is unproven; "
            "add FATS_FAILPOINT(_STATUS) next to the durable effect",
        findings);
  }
}

}  // namespace fats::analyze
