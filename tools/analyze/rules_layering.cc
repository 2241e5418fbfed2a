// Layering (rule family 5): layer-order and layer-cycle.  The module DAG is
// documented in include_graph.h; this pass turns the graph's violations into
// findings, attributing each to the offending #include line.

#include <map>

#include "analyze/rules.h"
#include "analyze/rules_util.h"

namespace fats::analyze {
namespace {

const FileModel* ModelForPath(const std::vector<FileModel>& models,
                              const std::string& path) {
  for (const FileModel& m : models) {
    if (m.source->path == path) return &m;
  }
  return nullptr;
}

void Add(const std::vector<FileModel>& models, const char* rule,
         const IncludeEdge& edge, std::string message,
         std::vector<Finding>* findings) {
  Finding f;
  f.rule = rule;
  f.file = edge.from_file;
  f.line = edge.line;
  f.message = std::move(message);
  if (const FileModel* m = ModelForPath(models, edge.from_file)) {
    f.suppressed = m->suppressions.Allows(edge.line, f.rule);
  }
  findings->push_back(std::move(f));
}

}  // namespace

void CheckLayering(const AnalysisIndex& index,
                   const std::vector<FileModel>& models,
                   std::vector<Finding>* findings) {
  for (const IncludeEdge& edge : index.includes.RankViolations()) {
    const std::string from = ModuleOf(edge.from_file);
    const std::string to = ModuleOf(edge.target);
    Add(models, kRuleLayerOrder, edge,
        "module '" + from + "' (rank " + std::to_string(ModuleRank(from)) +
            ") includes \"" + edge.target + "\" from higher-rank module '" +
            to + "' (rank " + std::to_string(ModuleRank(to)) +
            "): the layer DAG is tensor/rng <- nn <- data <- fl <- "
            "core/metrics <- io/baselines/attack on top of util; invert the "
            "dependency or move the shared piece down a layer",
        findings);
  }
  for (const std::vector<IncludeEdge>& cycle : index.includes.Cycles()) {
    if (cycle.empty()) continue;
    std::string path;
    for (const IncludeEdge& edge : cycle) {
      if (!path.empty()) path += " -> ";
      path += ModuleOf(edge.from_file);
    }
    path += " -> " + ModuleOf(cycle.front().from_file);
    Add(models, kRuleLayerCycle, cycle.front(),
        "include cycle among src/ modules: " + path +
            "; break the cycle by extracting the shared interface into the "
            "lower layer",
        findings);
  }
}

}  // namespace fats::analyze
