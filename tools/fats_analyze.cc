// fats_analyze driver: the contract-enforcing static analyzer for the FATS
// tree.  It runs every rule family of tools/analyze/rules.h over one code
// model per file: randomness and RNG stream discipline, deterministic
// reductions and iteration, failpoint coverage, Status discipline, runtime
// confinement (threads, raw I/O, hot-path allocation), and include-graph
// layering.
//
// Usage:
//   fats_analyze [--root DIR] [--json FILE|-] [--sarif FILE|-]
//                [--baseline FILE] [--quiet] [--list-rules] [PATH...]
//
// With explicit PATH arguments only those files/directories are analyzed.
// Exit status: 0 clean, 1 unsuppressed findings, 2 usage/read errors.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/report.h"

namespace fs = std::filesystem;

namespace {

std::string ReadFile(const fs::path& p, bool* ok) {
  std::ifstream in(p, std::ios::binary);
  if (!in) {
    *ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

bool IsSkippedDir(const fs::path& p) {
  const std::string name = p.filename().string();
  return name.rfind("build", 0) == 0 || name == ".git" ||
         name == "third_party";
}

void CollectFiles(const fs::path& root, std::vector<fs::path>* out) {
  if (!fs::exists(root)) return;
  if (fs::is_regular_file(root)) {
    if (fats::analyze::ShouldLintFile(root.string())) out->push_back(root);
    return;
  }
  fs::recursive_directory_iterator it(
      root, fs::directory_options::skip_permission_denied);
  for (auto end = fs::recursive_directory_iterator(); it != end; ++it) {
    if (it->is_directory()) {
      if (IsSkippedDir(it->path())) it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() &&
        fats::analyze::ShouldLintFile(it->path().string())) {
      out->push_back(it->path());
    }
  }
}

std::string RelativeTo(const fs::path& p, const fs::path& root) {
  std::error_code ec;
  fs::path rel = fs::relative(p, root, ec);
  if (ec || rel.empty() || rel.string().rfind("..", 0) == 0) {
    return p.generic_string();
  }
  return rel.generic_string();
}

bool WriteReport(const std::string& dest, const std::string& content,
                 const char* what) {
  if (dest == "-") {
    std::cout << content;
    return true;
  }
  std::ofstream out(dest, std::ios::binary);
  out << content;
  if (!out) {
    std::cerr << "fats_analyze: cannot write " << what << " " << dest << "\n";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  fs::path root = ".";
  std::string json_out;
  std::string sarif_out;
  std::string baseline_path;
  bool quiet = false;
  std::vector<std::string> explicit_paths;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      root = argv[++i];
    } else if (arg == "--json" && i + 1 < argc) {
      json_out = argv[++i];
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_out = argv[++i];
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      for (const std::string& r : fats::analyze::AllAnalyzeRules()) {
        std::cout << r << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: fats_analyze [--root DIR] [--json FILE|-] "
                   "[--sarif FILE|-] [--baseline FILE] [--quiet] "
                   "[--list-rules] [PATH...]\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      // A typo'd flag must not silently degrade into an empty scan that
      // "passes".
      std::cerr << "fats_analyze: unknown option '" << arg
                << "' (see --help)\n";
      return 2;
    } else {
      explicit_paths.push_back(arg);
    }
  }

  std::vector<fs::path> paths;
  if (!explicit_paths.empty()) {
    for (const std::string& p : explicit_paths) {
      if (!fs::exists(p)) {
        std::cerr << "fats_analyze: no such file or directory: " << p << "\n";
        return 2;
      }
      CollectFiles(p, &paths);
    }
  } else {
    for (const char* sub : {"src", "tools", "bench", "examples"}) {
      CollectFiles(root / sub, &paths);
    }
  }

  std::vector<fats::analyze::SourceFile> files;
  int read_errors = 0;
  for (const fs::path& path : paths) {
    bool ok = false;
    std::string content = ReadFile(path, &ok);
    if (!ok) {
      std::cerr << "fats_analyze: cannot read " << path << "\n";
      ++read_errors;
      continue;
    }
    files.push_back({RelativeTo(path, root), std::move(content)});
    // The sibling header may live outside the explicit path set (a .cc was
    // named directly); pull it in so member declarations stay visible.
    fs::path header = path;
    header.replace_extension(".h");
    if (header != path && fs::exists(header)) {
      const std::string header_rel = RelativeTo(header, root);
      bool present = false;
      for (const auto& f : files) present = present || f.path == header_rel;
      if (!present) {
        bool hok = false;
        std::string hcontent = ReadFile(header, &hok);
        if (hok) files.push_back({header_rel, std::move(hcontent)});
      }
    }
  }

  fats::analyze::AnalysisResult result = fats::analyze::AnalyzeFiles(files);

  if (!baseline_path.empty()) {
    bool ok = false;
    const std::string baseline_json = ReadFile(baseline_path, &ok);
    if (!ok) {
      std::cerr << "fats_analyze: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    std::vector<fats::analyze::BaselineEntry> entries;
    if (!fats::analyze::ParseBaseline(baseline_json, &entries)) {
      std::cerr << "fats_analyze: malformed baseline " << baseline_path
                << "\n";
      return 2;
    }
    const int stale =
        fats::analyze::ApplyBaseline(entries, &result.findings);
    if (stale > 0 && !quiet) {
      std::cerr << "fats_analyze: " << stale
                << " stale baseline entr(y/ies) matched nothing; prune "
                << baseline_path << "\n";
    }
  }

  if (!quiet) {
    for (const fats::analyze::Finding& f : result.findings) {
      std::cerr << f.file << ":" << f.line << ": [" << f.rule << "]"
                << (f.suppressed ? " (suppressed)" : "") << " " << f.message
                << "\n";
    }
  }

  if (!json_out.empty() &&
      !WriteReport(json_out, fats::analyze::ToJson(result.findings), "json")) {
    return 2;
  }
  if (!sarif_out.empty() &&
      !WriteReport(sarif_out,
                   fats::analyze::ToSarif(result.findings,
                                          fats::analyze::AllAnalyzeRules()),
                   "sarif")) {
    return 2;
  }

  const int active = fats::analyze::ActiveCount(result.findings);
  if (!quiet) {
    std::cerr << "fats_analyze: analyzed " << files.size() << " files, "
              << active << " violation(s), "
              << static_cast<int>(result.findings.size()) - active
              << " suppressed\n";
  }
  if (read_errors > 0) return 2;
  return active > 0 ? 1 : 0;
}
