// Per-file code model for fats_analyze: stripped text, token stream,
// suppression directives, path class, function definitions, lambda bodies,
// and unordered-container names, recovered heuristically from the token
// stream (no full parse, no preprocessor).  The model is deliberately
// conservative: when a construct cannot be parsed, it is omitted rather than
// guessed, and the rules that consume it degrade to not firing.

#ifndef FATS_TOOLS_ANALYZE_CODE_MODEL_H_
#define FATS_TOOLS_ANALYZE_CODE_MODEL_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/lexer.h"

namespace fats::analyze {

// Parsed `// fats-lint: allow(<rule>[, <rule>...])` directives for one file
// (`all` allows every rule).  The rules allowed on a line suppress findings
// on that line and the line directly below it.  Multiple directives on one
// line merge; the directive is recognised inside block comments
// (`/* fats-lint: allow(x) */`) and tolerates whitespace between `allow`
// and `(`.  Suppressed findings are still reported, with suppressed=true.
class SuppressionMap {
 public:
  static SuppressionMap Parse(std::string_view content);

  // True when `rule` is allowed on `line` or the line directly above it.
  bool Allows(int line, const std::string& rule) const;

  bool empty() const { return by_line_.empty(); }

 private:
  std::map<int, std::set<std::string>> by_line_;
};

// Which path-scoped rule families apply to a file, derived from its path.
struct FileClass {
  // RNG discipline rules (banned-rand, banned-random-device, default-engine,
  // time-seed, random-include, rng-raw-key).  Off for files under src/rng/,
  // the one place allowed to touch <random> and raw engines.
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

// True for C++ translation units and headers the analyzer should look at.
bool ShouldLintFile(std::string_view path);

// Returns a copy of `content` with comments and string/char literals
// blanked (replaced by spaces, newlines preserved) so offsets and line
// numbers still line up: banned tokens in prose or literals never fire.
std::string StripCommentsAndStrings(std::string_view content);

// One file handed to the analyzer.  `content` is the raw source.
struct SourceFile {
  std::string path;
  std::string content;
};

// A function (or method / constructor) definition: the tokens of its body,
// [body_begin, body_end) as token indices, body_begin pointing just past the
// opening '{' and body_end at the matching '}'.
struct FunctionDef {
  std::string name;       // unqualified name, e.g. "Append"
  std::string qualified;  // e.g. "JournalWriter::Append" when qualified
  size_t body_begin = 0;
  size_t body_end = 0;
  int line = 0;  // line of the name token
};

// A lambda body, [body_begin, body_end) as token indices (inside the
// braces).  `param_names` are the lambda's parameter identifiers in order.
struct LambdaBody {
  size_t body_begin = 0;
  size_t body_end = 0;
  std::vector<std::string> param_names;
  int line = 0;  // line of the '[' introducer
};

// A fully analyzed file: raw + stripped content, tokens, suppressions, and
// the recovered definitions.  Built once per file and shared by every pass.
struct FileModel {
  const SourceFile* source = nullptr;
  // Heap-held so the token views into it survive moving the model (a
  // short std::string keeps its characters inline and would move them).
  std::unique_ptr<const std::string> stripped;
  std::vector<Token> tokens;
  SuppressionMap suppressions;
  FileClass file_class;
  std::vector<FunctionDef> functions;
  // Variable/member names declared with an unordered container type
  // (`std::unordered_map<...> name`), sorted.  For a .cc the analyzer adds
  // its sibling header's names when the header is in the analyzed set.
  std::vector<std::string> unordered_names;
};

FileModel BuildFileModel(const SourceFile& source);

// Extracts function definitions from a token stream.  Exposed for tests.
std::vector<FunctionDef> ExtractFunctions(const std::vector<Token>& tokens);

// Finds lambda bodies in the token range [begin, end).  Exposed for tests.
std::vector<LambdaBody> FindLambdas(const std::vector<Token>& tokens,
                                    size_t begin, size_t end);

// True when an identifier token sequence `Type name` (declaration of `name`
// with type `type_name`) occurs in [begin, end).
bool DeclaresVariable(const std::vector<Token>& tokens, size_t begin,
                      size_t end, std::string_view type_name,
                      std::string_view var_name);

}  // namespace fats::analyze

#endif  // FATS_TOOLS_ANALYZE_CODE_MODEL_H_
