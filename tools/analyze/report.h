// Findings, report emission (JSON, SARIF 2.1.0), and baseline handling for
// fats_analyze.
//
// The baseline file is a checked-in JSON array of accepted findings:
//
//   [ {"rule": "nondet-reduction", "file": "src/fl/x.cc", "line": 42}, ... ]
//
// `line` is optional — omitting it baselines every finding of that rule in
// that file, which keeps the baseline stable across unrelated edits.  A
// finding matching a baseline entry is reported with suppressed=true (same
// mechanism as an inline allow() comment) so it never fails the run, but
// remains visible in the JSON/SARIF output.  Policy (DESIGN.md §7.4): new
// code takes inline suppressions with a justification; the baseline exists
// to ratchet legacy debt down and should only ever shrink.

#ifndef FATS_TOOLS_ANALYZE_REPORT_H_
#define FATS_TOOLS_ANALYZE_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

namespace fats::analyze {

struct Finding {
  std::string rule;     // one of the rule IDs in rules.h
  std::string file;     // path exactly as handed to the analyzer
  int line = 0;         // 1-based line number
  std::string message;  // human-readable explanation
  bool suppressed = false;
};

// Machine-readable report: a JSON array of finding objects with keys
// rule/file/line/suppressed/message.
std::string ToJson(const std::vector<Finding>& findings);

// Number of findings that are not suppressed (the run's failure count).
int ActiveCount(const std::vector<Finding>& findings);

struct BaselineEntry {
  std::string rule;
  std::string file;
  int line = 0;  // 0 = any line
};

// Parses the baseline JSON.  Returns false (and leaves *entries empty) on
// malformed input; the driver treats that as a hard error rather than
// silently analyzing without the baseline.
bool ParseBaseline(std::string_view json, std::vector<BaselineEntry>* entries);

// Marks findings covered by a baseline entry as suppressed.  Returns the
// number of entries that matched nothing (stale entries to prune).
int ApplyBaseline(const std::vector<BaselineEntry>& entries,
                  std::vector<Finding>* findings);

// SARIF 2.1.0 log with one run; every rule in `rules` is declared in the
// driver metadata, each finding becomes a result with level "error" (or
// "note" when suppressed, with a suppression object attached).
std::string ToSarif(const std::vector<Finding>& findings,
                    const std::vector<std::string>& rules);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_REPORT_H_
