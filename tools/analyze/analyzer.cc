#include "analyze/analyzer.h"

#include <algorithm>
#include <tuple>

namespace fats::analyze {
namespace {

// "src/io/journal.cc" -> "src/io/journal.h"; "" when not a .cc path.
std::string SiblingHeaderPath(const std::string& path) {
  const size_t dot = path.rfind('.');
  if (dot == std::string::npos) return "";
  const std::string ext = path.substr(dot);
  if (ext != ".cc" && ext != ".cpp" && ext != ".cxx") return "";
  return path.substr(0, dot) + ".h";
}

}  // namespace

AnalysisResult AnalyzeFiles(const std::vector<SourceFile>& files) {
  AnalysisResult result;

  std::vector<FileModel> models;
  models.reserve(files.size());
  for (const SourceFile& file : files) {
    models.push_back(BuildFileModel(file));
  }

  // A .cc sees the unordered-container declarations of its sibling header
  // when the header is part of the analyzed set.
  for (size_t i = 0; i < models.size(); ++i) {
    const std::string header = SiblingHeaderPath(files[i].path);
    if (header.empty()) continue;
    for (const FileModel& other : models) {
      if (other.source->path != header) continue;
      for (const std::string& name : other.unordered_names) {
        if (std::find(models[i].unordered_names.begin(),
                      models[i].unordered_names.end(),
                      name) == models[i].unordered_names.end()) {
          models[i].unordered_names.push_back(name);
        }
      }
    }
  }

  for (const FileModel& model : models) {
    IndexFile(model, &result.index);
  }

  for (const FileModel& model : models) {
    CheckRngDiscipline(model, &result.findings);
    CheckReductions(model, &result.findings);
    CheckFailpointCoverage(model, &result.findings);
    CheckStatusDiscipline(model, result.index, &result.findings);
    CheckStoreMutation(model, &result.findings);
    CheckUnlearnOwner(model, &result.findings);
    CheckEvalOnRead(model, &result.findings);
    CheckWireDiscipline(model, &result.findings);
    CheckTileOwnership(model, &result.findings);
    CheckRuntimeConfinement(model, &result.findings);
    CheckHistoryResidency(model, &result.findings);
  }

  CheckLayering(result.index, models, &result.findings);

  std::sort(result.findings.begin(), result.findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return result;
}

}  // namespace fats::analyze
