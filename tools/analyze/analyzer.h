// fats_analyze orchestration: builds per-file models, runs the index pass,
// then every rule family (rules.h), and returns one merged, deterministically
// ordered finding list.

#ifndef FATS_TOOLS_ANALYZE_ANALYZER_H_
#define FATS_TOOLS_ANALYZE_ANALYZER_H_

#include <vector>

#include "analyze/code_model.h"
#include "analyze/report.h"
#include "analyze/rules.h"

namespace fats::analyze {

struct AnalysisResult {
  // Sorted by (file, line, rule); suppressed findings included.
  std::vector<Finding> findings;
  AnalysisIndex index;
};

// Analyzes an in-memory file set.  A sibling header present in `files`
// extends a .cc's unordered-container names.
AnalysisResult AnalyzeFiles(const std::vector<SourceFile>& files);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_ANALYZER_H_
