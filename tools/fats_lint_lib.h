// fats_lint: determinism lint for the FATS codebase.
//
// FATS's exactness guarantee (Theorems 4.3/4.5) requires that unlearning
// retraining replays the original run bit-identically.  That only holds if
// every source of randomness flows through the Philox streams in src/rng/
// and no hot path depends on unordered-container iteration order.  This
// library implements the token scanner that tools/fats_analyze.cc runs as
// its first pass; it is a library so tests/fats_lint_test.cc can drive it
// on known snippets.
//
// Rules (rule IDs are stable; they appear in reports and in suppression
// comments):
//
//   banned-rand           std::rand / rand() / srand outside src/rng/.
//   banned-random-device  std::random_device outside src/rng/ (non-
//                         reproducible entropy source).
//   default-engine        default-constructed std::mt19937 /
//                         std::default_random_engine etc. outside src/rng/.
//   time-seed             wall-clock time used as a seed (time(...)/
//                         clock ::now() on a seeding line).
//   random-include        #include <random> outside src/rng/.
//   unordered-iteration   iteration over std::unordered_map/set in
//                         src/core/, src/fl/, or src/baselines/, where
//                         order-dependent float accumulation would break
//                         replay.
//   raw-thread            std::thread / std::jthread / std::async outside
//                         src/util/thread_pool.*: ad-hoc threads bypass the
//                         deterministic-parallelism contract (pre-drawn
//                         substreams + ordered reduction); use
//                         fats::ThreadPool.
//   raw-io                std::ofstream / fopen / fwrite in src/core/,
//                         src/fl/, or src/io/ outside the journal module
//                         (io/journal.*): durable state written behind the
//                         journal's back has no CRC framing, no fsync
//                         discipline, and no crash-recovery story.  Route
//                         writes through fats::JournalWriter or the
//                         checkpoint BinaryWriter; read-only probes take a
//                         `// fats-lint: allow(raw-io)` suppression.
//   hot-alloc             in src/nn/, inside the body of a Forward(...) or
//                         Backward(...) definition (the per-step hot path):
//                         (a) a Tensor local temporary -- per-step heap
//                         allocation; use a Workspace slot or an Into-style
//                         destination-passing op instead -- or (b) a
//                         triple-nested multiply-accumulate for-loop, i.e. a
//                         raw matmul that bypasses the deterministic blocked
//                         kernels in tensor/gemm.h.  Methods whose name
//                         merely contains Forward/Backward (ForwardDirect,
//                         BackwardDirect -- the retained reference paths)
//                         are exempt.
//
// Suppression: append `// fats-lint: allow(<rule>)` (comma-separated list,
// or `all`) on the offending line or the line directly above it.  Suppressed
// findings are still reported (with suppressed=true) but do not fail the
// lint.  Multiple directives on one line merge; the directive is recognised
// inside block comments (`/* fats-lint: allow(x) */`) and tolerates
// whitespace between `allow` and `(`.
//
// The scanner strips comments and string/char literals before matching, so
// banned tokens inside literals or prose never fire -- including the regex
// pattern strings in this library's own implementation.

#ifndef FATS_TOOLS_FATS_LINT_LIB_H_
#define FATS_TOOLS_FATS_LINT_LIB_H_

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace fats::lint {

// Stable rule identifiers.
inline constexpr const char kRuleBannedRand[] = "banned-rand";
inline constexpr const char kRuleBannedRandomDevice[] = "banned-random-device";
inline constexpr const char kRuleDefaultEngine[] = "default-engine";
inline constexpr const char kRuleTimeSeed[] = "time-seed";
inline constexpr const char kRuleRandomInclude[] = "random-include";
inline constexpr const char kRuleUnorderedIteration[] = "unordered-iteration";
inline constexpr const char kRuleRawThread[] = "raw-thread";
inline constexpr const char kRuleRawIo[] = "raw-io";
inline constexpr const char kRuleHotAlloc[] = "hot-alloc";

// All rule IDs, for --list-rules and for validating allow(...) directives.
std::vector<std::string> AllRules();

struct Finding {
  std::string rule;     // one of the kRule* IDs
  std::string file;     // path exactly as passed to ScanSource
  int line = 0;         // 1-based line number
  std::string message;  // human-readable explanation
  bool suppressed = false;
};

// Parsed `// fats-lint: allow(...)` directives for one file.  The rules
// allowed on a line suppress findings on that line and the line directly
// below it (i.e. a directive suppresses same-line and next-line findings).
// Shared with the fats_analyze passes so every rule family uses one
// suppression syntax.
class SuppressionMap {
 public:
  static SuppressionMap Parse(std::string_view content);

  // True when `rule` is allowed on `line` or the line directly above it.
  bool Allows(int line, const std::string& rule) const;

  bool empty() const { return by_line_.empty(); }

 private:
  std::map<int, std::set<std::string>> by_line_;
};

// Which rule families apply to a file, derived from its path.
struct FileClass {
  // RNG discipline rules (banned-rand, banned-random-device, default-engine,
  // time-seed, random-include).  Off for files under src/rng/, which is the
  // one place allowed to touch <random> and raw engines.
  bool rng_rules = true;
  // unordered-iteration.  On only for src/core/, src/fl/, src/baselines/.
  bool ordered_rules = false;
  // raw-thread.  Off only for the src/util/thread_pool.{h,cc} module, the
  // one place allowed to create threads.
  bool thread_rules = true;
  // raw-io.  On for src/core/, src/fl/, src/io/ except the journal module
  // (io/journal.{h,cc}), the one sanctioned raw-file writer.
  bool io_rules = false;
  // hot-alloc.  On only for src/nn/, where Forward/Backward bodies are the
  // per-training-step hot path covered by the allocation-free contract
  // (DESIGN.md section 7.2).
  bool hot_rules = false;
};

// Classifies a repo-relative path ("src/core/fats_trainer.cc").  Absolute
// paths work too as long as they contain the repo-relative components.
FileClass ClassifyPath(std::string_view path);

// True for C++ translation units and headers the lint should look at.
bool ShouldLintFile(std::string_view path);

// Returns a copy of `content` with comments and string/char literals
// blanked (replaced by spaces, newlines preserved) so offsets and line
// numbers still line up.  Exposed for tests.
std::string StripCommentsAndStrings(std::string_view content);

// Collects names of variables/members declared with an unordered container
// type in `content`.  Used to recognise iteration in a .cc over members
// declared in the matching .h.  Exposed for tests.
std::vector<std::string> CollectUnorderedNames(std::string_view content);

// Scans one file.  `extra_decl_sources` are additional sources (typically
// the sibling header of a .cc) whose unordered-container declarations are
// in scope for the unordered-iteration rule.
std::vector<Finding> ScanSource(
    std::string_view path, std::string_view content, const FileClass& cls,
    const std::vector<std::string_view>& extra_decl_sources = {});

// Convenience overload: classifies `path` itself.
std::vector<Finding> ScanSource(std::string_view path,
                                std::string_view content);

// Machine-readable report: a JSON array of finding objects with keys
// rule/file/line/message/suppressed.
std::string ToJson(const std::vector<Finding>& findings);

// Number of findings that are not suppressed (the lint's failure count).
int ActiveCount(const std::vector<Finding>& findings);

}  // namespace fats::lint

#endif  // FATS_TOOLS_FATS_LINT_LIB_H_
