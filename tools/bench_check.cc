// bench_check: compares two google-benchmark --benchmark_out JSON files and
// reports per-benchmark timing deltas.
//
// Usage:
//   bench_check BASELINE.json CURRENT.json [--max-regress PCT]
//
// For every benchmark name present in both files it prints the baseline and
// current real_time and the ratio. Rows only in the current run print as
// "(new)"; baseline rows missing from the current run print as "(gone)".
// Neither kind is gated. Without --max-regress the tool is report-only
// (exit 0 as long as both files parse and share at least one benchmark).
// With --max-regress PCT it exits 1 when any shared benchmark got slower by
// more than PCT percent; tools/ci.sh's bench gate runs it this way with
// --max-regress 75.
//
// Build-type gate (always on, both modes): a file whose run context records
// a debug build is rejected with exit 2 — debug timings are meaningless as
// baselines, and comparing debug against release manufactures phantom
// regressions. The check prefers the "fats_build_type" custom key (written
// by bench_micro_kernels from its own NDEBUG, so it reflects the code under
// test) and falls back to google-benchmark's "library_build_type" (which
// tracks only how the vendored benchmark library was compiled) for files
// recorded before the custom key existed.
//
// The parser is deliberately minimal: it understands exactly the subset of
// JSON that google-benchmark emits (a "benchmarks" array of flat objects)
// and has no third-party dependencies.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

struct BenchEntry {
  std::string name;
  double real_time = 0.0;
  std::string time_unit;
  double items_per_second = 0.0;  // 0 when absent
};

std::string ReadFile(const std::string& path, bool* ok) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *ok = false;
    return "";
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *ok = true;
  return ss.str();
}

// Extracts a quoted string value for `key` from the object slice [begin,end).
bool FindStringField(const std::string& text, size_t begin, size_t end,
                     const std::string& key, std::string* out) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = text.find(needle, begin);
  if (pos == std::string::npos || pos >= end) return false;
  pos = text.find('"', text.find(':', pos + needle.size()) + 1);
  if (pos == std::string::npos || pos >= end) return false;
  const size_t close = text.find('"', pos + 1);
  if (close == std::string::npos || close > end) return false;
  *out = text.substr(pos + 1, close - pos - 1);
  return true;
}

bool FindNumberField(const std::string& text, size_t begin, size_t end,
                     const std::string& key, double* out) {
  const std::string needle = "\"" + key + "\"";
  size_t pos = text.find(needle, begin);
  if (pos == std::string::npos || pos >= end) return false;
  pos = text.find(':', pos + needle.size());
  if (pos == std::string::npos || pos >= end) return false;
  *out = std::strtod(text.c_str() + pos + 1, nullptr);
  return true;
}

// Run-context fields live before the "benchmarks" array. Returns the value
// of `key` from that prefix, or "" when absent.
std::string ContextField(const std::string& text, const std::string& key) {
  size_t limit = text.find("\"benchmarks\"");
  if (limit == std::string::npos) limit = text.size();
  std::string value;
  if (!FindStringField(text, 0, limit, key, &value)) return "";
  return value;
}

// The recorded build type: "fats_build_type" (bench_micro_kernels' own
// NDEBUG) when present, else "library_build_type". "" when neither exists.
std::string ContextBuildType(const std::string& text) {
  const std::string own = ContextField(text, "fats_build_type");
  if (!own.empty()) return own;
  return ContextField(text, "library_build_type");
}

bool IsDebugBuildType(const std::string& build_type) {
  std::string lower = build_type;
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  return lower.find("debug") != std::string::npos;
}

/// Parses the "benchmarks" array of a google-benchmark JSON file.
bool ParseBenchJson(const std::string& text, std::vector<BenchEntry>* out) {
  const size_t arr = text.find("\"benchmarks\"");
  if (arr == std::string::npos) return false;
  size_t pos = text.find('[', arr);
  if (pos == std::string::npos) return false;
  const size_t arr_end = text.find(']', pos);
  while (true) {
    const size_t obj_begin = text.find('{', pos);
    if (obj_begin == std::string::npos || obj_begin > arr_end) break;
    // Benchmark entries are flat objects — no nested braces.
    const size_t obj_end = text.find('}', obj_begin);
    if (obj_end == std::string::npos) return false;
    BenchEntry e;
    if (FindStringField(text, obj_begin, obj_end, "name", &e.name)) {
      FindNumberField(text, obj_begin, obj_end, "real_time", &e.real_time);
      FindStringField(text, obj_begin, obj_end, "time_unit", &e.time_unit);
      FindNumberField(text, obj_begin, obj_end, "items_per_second",
                      &e.items_per_second);
      // Skip aggregate rows (mean/median/stddev repeats of the same name).
      std::string run_type;
      if (!FindStringField(text, obj_begin, obj_end, "run_type", &run_type) ||
          run_type == "iteration") {
        out->push_back(e);
      }
    }
    pos = obj_end + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string current_path;
  double max_regress_pct = -1.0;  // < 0: report-only smoke mode
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-regress") == 0 && i + 1 < argc) {
      max_regress_pct = std::strtod(argv[++i], nullptr);
    } else if (baseline_path.empty()) {
      baseline_path = argv[i];
    } else if (current_path.empty()) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "bench_check: unexpected argument %s\n", argv[i]);
      return 2;
    }
  }
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(
        stderr,
        "usage: bench_check BASELINE.json CURRENT.json [--max-regress PCT]\n");
    return 2;
  }

  bool ok = false;
  const std::string baseline_text = ReadFile(baseline_path, &ok);
  if (!ok) {
    std::fprintf(stderr, "bench_check: cannot read %s\n",
                 baseline_path.c_str());
    return 2;
  }
  const std::string current_text = ReadFile(current_path, &ok);
  if (!ok) {
    std::fprintf(stderr, "bench_check: cannot read %s\n", current_path.c_str());
    return 2;
  }
  const struct {
    const std::string* path;
    const std::string* text;
    const char* role;
  } inputs[] = {{&baseline_path, &baseline_text, "baseline"},
                {&current_path, &current_text, "current"}};
  for (const auto& input : inputs) {
    const std::string build_type = ContextBuildType(*input.text);
    if (IsDebugBuildType(build_type)) {
      std::fprintf(stderr,
                   "bench_check: %s %s records a debug build "
                   "(build type \"%s\"); re-record from a release build\n",
                   input.role, input.path->c_str(), build_type.c_str());
      return 2;
    }
    std::printf("%s: build_type=%s\n", input.role,
                build_type.empty() ? "(unrecorded)" : build_type.c_str());
  }

  std::vector<BenchEntry> baseline;
  std::vector<BenchEntry> current;
  if (!ParseBenchJson(baseline_text, &baseline)) {
    std::fprintf(stderr, "bench_check: no benchmarks parsed from %s\n",
                 baseline_path.c_str());
    return 2;
  }
  if (!ParseBenchJson(current_text, &current)) {
    std::fprintf(stderr, "bench_check: no benchmarks parsed from %s\n",
                 current_path.c_str());
    return 2;
  }

  std::map<std::string, BenchEntry> base_by_name;
  for (const BenchEntry& e : baseline) base_by_name[e.name] = e;
  std::set<std::string> current_names;
  for (const BenchEntry& e : current) current_names.insert(e.name);

  int shared = 0;
  int regressions = 0;
  std::printf("%-40s %14s %14s %8s\n", "benchmark", "baseline", "current",
              "ratio");
  for (const BenchEntry& cur : current) {
    auto it = base_by_name.find(cur.name);
    if (it == base_by_name.end()) {
      std::printf("%-40s %14s %14.1f %8s\n", cur.name.c_str(), "(new)",
                  cur.real_time, "-");
      continue;
    }
    ++shared;
    const BenchEntry& base = it->second;
    const double ratio =
        base.real_time > 0.0 ? cur.real_time / base.real_time : 0.0;
    const bool regressed =
        max_regress_pct >= 0.0 && ratio > 1.0 + max_regress_pct / 100.0;
    if (regressed) ++regressions;
    std::printf("%-40s %12.1f%-2s %12.1f%-2s %7.2fx%s\n", cur.name.c_str(),
                base.real_time, base.time_unit.c_str(), cur.real_time,
                cur.time_unit.c_str(), ratio, regressed ? "  REGRESSED" : "");
  }
  for (const BenchEntry& base : baseline) {
    if (current_names.count(base.name) == 0) {
      std::printf("%-40s %12.1f%-2s %14s %8s\n", base.name.c_str(),
                  base.real_time, base.time_unit.c_str(), "(gone)", "-");
    }
  }
  if (shared == 0) {
    std::fprintf(stderr,
                 "bench_check: no benchmark names shared between files\n");
    return 2;
  }
  if (max_regress_pct >= 0.0) {
    std::printf("%d/%d benchmarks regressed beyond %.0f%%\n", regressions,
                shared, max_regress_pct);
    return regressions > 0 ? 1 : 0;
  }
  std::printf("%d benchmarks compared (report only; no gating threshold)\n",
              shared);
  return 0;
}
