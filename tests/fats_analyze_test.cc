// Tests for the fats_analyze engine (tools/analyze/): lexer and code-model
// unit tests, include-graph layering, report emission, golden fixtures per
// rule — firing, clean, and suppressed — so every rule's positive and
// negative space is pinned, and a check that DESIGN.md's rule catalog lists
// exactly the rules the analyzer emits.  The token-rule fixtures keep the
// FatsLint* suite names they were written under.  The end-to-end "tree is
// clean" check is the fats_analyze ctest registered in tools/CMakeLists.txt,
// which runs the real binary over the repository.

#include "analyze/analyzer.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "analyze/code_model.h"
#include "analyze/include_graph.h"
#include "analyze/lexer.h"
#include "analyze/report.h"
#include "analyze/rules.h"
#include "gtest/gtest.h"

namespace fats::analyze {
namespace {

std::vector<std::string> ActiveRules(const AnalysisResult& result) {
  std::vector<std::string> rules;
  for (const Finding& f : result.findings) {
    if (!f.suppressed) rules.push_back(f.rule);
  }
  std::sort(rules.begin(), rules.end());
  return rules;
}

AnalysisResult AnalyzeOne(const std::string& path, const std::string& content) {
  return AnalyzeFiles({{path, content}});
}

bool HasRule(const AnalysisResult& result, const std::string& rule,
             bool suppressed = false) {
  for (const Finding& f : result.findings) {
    if (f.rule == rule && f.suppressed == suppressed) return true;
  }
  return false;
}

// --- Lexer ---

TEST(AnalyzeLexer, FusesMultiCharOperators) {
  const std::string src = "a += b; p->q(); m::n << 2; x >>= 1;";
  const std::vector<Token> toks = Lex(src);
  auto has = [&](std::string_view text, TokKind kind) {
    for (const Token& t : toks) {
      if (t.text == text && t.kind == kind) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("+=", TokKind::kPunct));
  EXPECT_TRUE(has("->", TokKind::kPunct));
  EXPECT_TRUE(has("::", TokKind::kPunct));
  EXPECT_TRUE(has("<<", TokKind::kPunct));
  EXPECT_TRUE(has(">>", TokKind::kPunct));
  EXPECT_TRUE(has("a", TokKind::kIdent));
}

TEST(AnalyzeLexer, NumbersAndLineNumbers) {
  const std::vector<Token> toks = Lex("int a = 0x1Fu;\ndouble b = 1e-3;\n");
  bool saw_hex = false;
  int b_line = 0;
  for (const Token& t : toks) {
    if (t.kind == TokKind::kNumber && t.text == "0x1Fu") saw_hex = true;
    if (t.kind == TokKind::kIdent && t.text == "b") b_line = t.line;
  }
  EXPECT_TRUE(saw_hex);
  EXPECT_EQ(b_line, 2);
}

TEST(AnalyzeLexer, MatchForwardNested) {
  const std::vector<Token> toks = Lex("f(a, g(b, h[c]), d); x;");
  ASSERT_TRUE(IsIdent(toks, 0, "f"));
  ASSERT_TRUE(IsPunct(toks, 1, "("));
  const size_t past = MatchForward(toks, 1);
  ASSERT_LT(past, toks.size());
  EXPECT_TRUE(IsPunct(toks, past, ";"));
}

// --- Code model ---

TEST(AnalyzeCodeModel, ExtractsQualifiedMethodDefinition) {
  const std::vector<Token> toks =
      Lex("Status JournalWriter::Append(int p) { return s_; }");
  const std::vector<FunctionDef> defs = ExtractFunctions(toks);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].qualified, "JournalWriter::Append");
  EXPECT_EQ(defs[0].name, "Append");
}

TEST(AnalyzeCodeModel, ExtractsDefWithFusedAngleReturnType) {
  // `Result<std::unique_ptr<W>>` lexes the closing angles as one `>>`
  // token; the extractor must still see a definition (regression guard).
  const std::vector<Token> toks = Lex(
      "Result<std::unique_ptr<W>> W::Open(const std::string& p) {"
      "  return nullptr; }");
  const std::vector<FunctionDef> defs = ExtractFunctions(toks);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].qualified, "W::Open");
}

TEST(AnalyzeCodeModel, ExtractsConstructorWithInitList) {
  const std::vector<Token> toks =
      Lex("Foo::Foo() : a_(1), b_{2} { Init(); }");
  const std::vector<FunctionDef> defs = ExtractFunctions(toks);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].qualified, "Foo::Foo");
}

TEST(AnalyzeCodeModel, CallSitesAreNotDefinitions) {
  const std::vector<Token> toks =
      Lex("void F() { Bar(x); obj.Baz(y); return Qux(z); }");
  const std::vector<FunctionDef> defs = ExtractFunctions(toks);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].name, "F");
}

TEST(AnalyzeCodeModel, FindsLambdaParams) {
  const std::vector<Token> toks =
      Lex("pool.ParallelFor(n, [&](int64_t i, int w) { use(i, w); });");
  const std::vector<LambdaBody> lambdas = FindLambdas(toks, 0, toks.size());
  ASSERT_EQ(lambdas.size(), 1u);
  const std::vector<std::string> expected = {"i", "w"};
  EXPECT_EQ(lambdas[0].param_names, expected);
}

TEST(AnalyzeCodeModel, SubscriptIsNotALambda) {
  const std::vector<Token> toks = Lex("int x = arr[i]; int y = m[k];");
  EXPECT_TRUE(FindLambdas(toks, 0, toks.size()).empty());
}

TEST(AnalyzeCodeModel, ShortFileTokensSurviveModelMove) {
  // Under 16 bytes a std::string keeps its characters inline; the tokens
  // must still view live text after AnalyzeFiles moves the model.
  const AnalysisResult r = AnalyzeOne("src/core/a.cc", "srand(1);\n");
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_EQ(r.findings[0].rule, kRuleBannedRand);
  EXPECT_EQ(r.findings[0].line, 1);
}

// --- Include graph / layering ---

TEST(AnalyzeIncludeGraph, ModuleOfAndRank) {
  EXPECT_EQ(ModuleOf("src/core/fats_trainer.cc"), "core");
  EXPECT_EQ(ModuleOf("src/nn/linear.h"), "nn");
  EXPECT_EQ(ModuleOf("tools/fats_cli.cc"), "");
  EXPECT_EQ(ModuleRank("util"), 0);
  EXPECT_LT(ModuleRank("nn"), ModuleRank("fl"));
  EXPECT_LT(ModuleRank("fl"), ModuleRank("core"));
  EXPECT_LT(ModuleRank("core"), ModuleRank("io"));
  // transport sits beside nn: above the tensors/rng it frames and draws
  // fault schedules from, below the fl/core layers that deliver through it.
  EXPECT_EQ(ModuleRank("transport"), ModuleRank("nn"));
  EXPECT_LT(ModuleRank("transport"), ModuleRank("fl"));
  // state holds compressed tensors/index lists, below everything that
  // records history through it (fl upward) and above what it encodes.
  EXPECT_LT(ModuleRank("tensor"), ModuleRank("state"));
  EXPECT_LT(ModuleRank("state"), ModuleRank("nn"));
  EXPECT_LT(ModuleRank("state"), ModuleRank("fl"));
  EXPECT_EQ(ModuleRank("unknown-module"), -1);
}

TEST(AnalyzeIncludeGraph, RankViolationFiresUpwardOnly) {
  IncludeGraph graph;
  graph.AddFile("src/nn/layer.h", "#include \"fl/server.h\"\n");
  graph.AddFile("src/fl/server.h", "#include \"nn/layer.h\"\n");
  const std::vector<IncludeEdge> bad = graph.RankViolations();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].from_file, "src/nn/layer.h");
  EXPECT_EQ(bad[0].target, "fl/server.h");
}

TEST(AnalyzeIncludeGraph, CycleAmongUnrankedModules) {
  // Unknown modules are exempt from the rank check but still cycle-checked.
  IncludeGraph graph;
  graph.AddFile("src/alpha/a.h", "#include \"beta/b.h\"\n");
  graph.AddFile("src/beta/b.h", "#include \"alpha/a.h\"\n");
  EXPECT_TRUE(graph.RankViolations().empty());
  EXPECT_EQ(graph.Cycles().size(), 1u);
}

// --- Rule fixtures: rng-raw-key ---

TEST(AnalyzeRngRawKey, LiteralKeyFires) {
  const AnalysisResult r = AnalyzeOne("src/fl/x.cc", "RngStream s(12345);\n");
  EXPECT_TRUE(HasRule(r, kRuleRngRawKey));
}

TEST(AnalyzeRngRawKey, PhiloxOutsideRngFires) {
  const AnalysisResult r = AnalyzeOne("src/core/x.cc", "PhiloxEngine e(42);\n");
  EXPECT_TRUE(HasRule(r, kRuleRngRawKey));
}

TEST(AnalyzeRngRawKey, DerivedKeyAndStructuredFormAreClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "RngStream batch(stream_keys[s]);\n"
      "RngStream rng(root_seed, MakeStreamId(kDropout, round, client));\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeRngRawKey, InsideRngDirIsClean) {
  const AnalysisResult r = AnalyzeOne("src/rng/philox_test_util.cc",
                               "PhiloxEngine e(42); RngStream s(7);\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeRngRawKey, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc", "RngStream s(12345);  // fats-lint: allow(rng-raw-key)\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleRngRawKey, /*suppressed=*/true));
}

// --- Rule fixtures: rng-shared-stream ---

TEST(AnalyzeRngSharedStream, CapturedStreamDrawFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void Draw(ThreadPool& pool, RngStream& shared, double* out) {\n"
      "  pool.ParallelFor(4, [&](int64_t i, int w) {\n"
      "    out[i] = shared.NextDouble();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleRngSharedStream));
}

TEST(AnalyzeRngSharedStream, SlotIndexedAndTaskLocalAreClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void Draw(ThreadPool& pool, double* out) {\n"
      "  pool.ParallelFor(4, [&](int64_t i, int w) {\n"
      "    out[i] = streams[w].NextDouble();\n"
      "    RngStream local(keys[i]);\n"
      "    out[i] += local.NextDouble();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeRngSharedStream, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void Draw(ThreadPool& pool, RngStream& shared, double* out) {\n"
      "  pool.ParallelFor(4, [&](int64_t i, int w) {\n"
      "    // fats-lint: allow(rng-shared-stream)\n"
      "    out[i] = shared.NextDouble();\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleRngSharedStream, /*suppressed=*/true));
}

// --- Rule fixtures: sampling-key-owner ---

TEST(AnalyzeSamplingKeyOwner, SamplingPurposeInCoreFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/unlearning_service.cc",
      "void F(uint64_t seed, uint64_t generation) {\n"
      "  StreamId id;\n"
      "  id.purpose = RngPurpose::kMinibatchSampling;\n"
      "  id.generation = generation;\n"
      "  RngStream stream(seed, id);\n"
      "}\n"
      "StreamId G() { return MakeId(RngPurpose::kClientSampling); }\n");
  EXPECT_EQ(ActiveRules(r),
            (std::vector<std::string>{kRuleSamplingKeyOwner,
                                      kRuleSamplingKeyOwner}));
}

TEST(AnalyzeSamplingKeyOwner, RedrawWrappersAndOtherPurposesAreClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/unlearning_service.cc",
      "Status F(FatsTrainer* trainer, uint64_t seed) {\n"
      "  FATS_RETURN_NOT_OK(trainer->RedrawMinibatch(t, k));\n"
      "  FATS_RETURN_NOT_OK(trainer->RedrawRound(r, t_max));\n"
      "  StreamId id;\n"
      "  id.purpose = RngPurpose::kModelInit;\n"
      "  RngStream stream(seed, id);\n"
      "  return Status::OK();\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeSamplingKeyOwner, TrainerItselfIsExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/fats_trainer.cc",
      "std::vector<int64_t> FatsTrainer::DrawClientSelection(int64_t r) {\n"
      "  StreamId id;\n"
      "  id.purpose = RngPurpose::kClientSampling;\n"
      "  RngStream stream(config_.seed, id);\n"
      "  return Sample(&stream);\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeSamplingKeyOwner, OutsideCoreIsExempt) {
  // FedAvg and FR² draw under their own key semantics (local-step index,
  // round offset, selection without replacement).
  for (const char* path : {"src/fl/fedavg.cc", "src/baselines/fr2.cc"}) {
    const AnalysisResult r = AnalyzeOne(
        path,
        "void F(StreamId* id) {\n"
        "  id->purpose = RngPurpose::kClientSampling;\n"
        "  id->purpose = RngPurpose::kMinibatchSampling;\n"
        "}\n");
    EXPECT_TRUE(ActiveRules(r).empty()) << path;
  }
}

TEST(AnalyzeSamplingKeyOwner, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "void F(StreamId* id) {\n"
      "  id->purpose = RngPurpose::kMinibatchSampling;  "
      "// fats-lint: allow(sampling-key-owner)\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleSamplingKeyOwner, /*suppressed=*/true));
}

// --- Rule fixtures: rng-unordered-draw ---
// (src/data paths: the unordered-iteration rule is scoped to
// core/fl/baselines, so only rng-unordered-draw is in play here.)

TEST(AnalyzeRngUnorderedDraw, DrawInsideUnorderedLoopFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/data/x.cc",
      "std::unordered_map<int, int> weights_;\n"
      "void F(RngStream& rng) {\n"
      "  for (auto& kv : weights_) {\n"
      "    double u = rng.NextDouble();\n"
      "    (void)u;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleRngUnorderedDraw));
}

TEST(AnalyzeRngUnorderedDraw, OrderedLoopIsClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/data/x.cc",
      "std::vector<int> weights_;\n"
      "void F(RngStream& rng) {\n"
      "  for (auto& v : weights_) {\n"
      "    double u = rng.NextDouble();\n"
      "    (void)u;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeRngUnorderedDraw, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/data/x.cc",
      "std::unordered_map<int, int> weights_;\n"
      "void F(RngStream& rng) {\n"
      "  for (auto& kv : weights_) {\n"
      "    double u = rng.NextDouble();  // fats-lint: allow(rng-unordered-draw)\n"
      "    (void)u;\n"
      "  }\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleRngUnorderedDraw, /*suppressed=*/true));
}

// --- Rule fixtures: nondet-reduction ---

TEST(AnalyzeNondetReduction, SharedFloatAccumulationFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void Acc(ThreadPool& pool, const std::vector<double>& grad) {\n"
      "  double sum = 0.0;\n"
      "  pool.ParallelFor(grad.size(), [&](int64_t i, int w) {\n"
      "    sum += grad[i];\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleNondetReduction));
}

TEST(AnalyzeNondetReduction, SlotIndexedAndIntCountersAreClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void Acc(ThreadPool& pool, const std::vector<double>& grad) {\n"
      "  std::vector<double> partial(4, 0.0);\n"
      "  int64_t count = 0;\n"
      "  pool.ParallelFor(grad.size(), [&](int64_t i, int w) {\n"
      "    partial[w] += grad[i];\n"
      "    count += 1;\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeNondetReduction, UnorderedLoopAccumulationFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/data/x.cc",
      "std::unordered_map<int, double> w_;\n"
      "double Total() {\n"
      "  double total = 0.0;\n"
      "  for (const auto& kv : w_) total += kv.second;\n"
      "  return total;\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleNondetReduction));
}

TEST(AnalyzeNondetReduction, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void Acc(ThreadPool& pool, const std::vector<double>& grad) {\n"
      "  double sum = 0.0;\n"
      "  pool.ParallelFor(grad.size(), [&](int64_t i, int w) {\n"
      "    sum += grad[i];  // fats-lint: allow(nondet-reduction)\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleNondetReduction, /*suppressed=*/true));
}

// --- Rule fixtures: tile-overlap ---

TEST(AnalyzeTileOverlap, SharedSubscriptWriteFires) {
  // The subscript `row` is neither a lambda parameter nor declared in the
  // body: every worker writes the same output element.
  const AnalysisResult r = AnalyzeOne(
      "src/tensor/x.cc",
      "void Kernel(ThreadPool& pool, float* c, int64_t row) {\n"
      "  pool.ParallelFor(8, [&](int64_t band, int64_t w) {\n"
      "    c[row] = 1.0f;\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleTileOverlap));
}

TEST(AnalyzeTileOverlap, BandDerivedWritesAreClean) {
  // Writes indexed by the task parameter or by body-local state derived
  // from it are the sanctioned fixed-ownership pattern; task-local buffers
  // are private by construction.
  const AnalysisResult r = AnalyzeOne(
      "src/tensor/x.cc",
      "void Kernel(ThreadPool& pool, float* c, int64_t band_rows) {\n"
      "  pool.ParallelFor(8, [&](int64_t band, int64_t w) {\n"
      "    const int64_t row0 = band * band_rows;\n"
      "    float scratch[16];\n"
      "    scratch[0] = 0.0f;\n"
      "    c[band] = 1.0f;\n"
      "    c[row0 + 1] = 2.0f;\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeTileOverlap, OutsideSrcTensorIsExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "void F(ThreadPool& pool, float* c, int64_t row) {\n"
      "  pool.ParallelFor(8, [&](int64_t band, int64_t w) {\n"
      "    c[row] = 1.0f;\n"
      "  });\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, kRuleTileOverlap));
}

// --- Rule fixtures: resident-history ---

TEST(AnalyzeResidentHistory, MemberMapOfIndexListsFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/history.h",
      "struct Store {\n"
      "  std::map<Key, std::vector<int64_t>> minibatches_;\n"
      "};\n");
  EXPECT_TRUE(HasRule(r, kRuleResidentHistory));
}

TEST(AnalyzeResidentHistory, NestedVectorWithInitializerFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/history.h",
      "std::vector<std::vector<int64_t>> per_round = {};\n");
  EXPECT_TRUE(HasRule(r, kRuleResidentHistory));
}

TEST(AnalyzeResidentHistory, UnorderedMapMemberFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/history.h",
      "std::unordered_map<int64_t, std::vector<int64_t>> by_client_;\n");
  EXPECT_TRUE(HasRule(r, kRuleResidentHistory));
}

TEST(AnalyzeResidentHistory, ReturnTypeDoesNotFire) {
  // A function *returning* a map of lists exports a snapshot; it does not
  // keep one resident.
  const AnalysisResult r = AnalyzeOne(
      "src/fl/history.h",
      "std::map<int64_t, std::vector<int64_t>> Export() const;\n");
  EXPECT_FALSE(HasRule(r, kRuleResidentHistory));
}

TEST(AnalyzeResidentHistory, NonIndexPayloadDoesNotFire) {
  // Bounded per-record payloads (flags, pairs) are not history lists.
  const AnalysisResult r = AnalyzeOne(
      "src/fl/history.h",
      "std::vector<std::vector<bool>> sample_used_;\n"
      "std::vector<std::pair<int64_t, int64_t>> keys_;\n");
  EXPECT_FALSE(HasRule(r, kRuleResidentHistory));
}

TEST(AnalyzeResidentHistory, StateLayerIsExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/state/history_log.h",
      "std::map<int64_t, std::vector<int64_t>> records_;\n");
  EXPECT_FALSE(HasRule(r, kRuleResidentHistory));
}

TEST(AnalyzeResidentHistory, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/history.h",
      "std::unordered_map<int64_t, std::vector<int64_t>>\n"
      "    client_rounds_;  // fats-lint: allow(resident-history)\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleResidentHistory, /*suppressed=*/true));
}

TEST(AnalyzeTileOverlap, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/tensor/x.cc",
      "void Kernel(ThreadPool& pool, float* c, int64_t row) {\n"
      "  pool.ParallelFor(8, [&](int64_t band, int64_t w) {\n"
      "    c[row] = 1.0f;  // fats-lint: allow(tile-overlap)\n"
      "  });\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleTileOverlap, /*suppressed=*/true));
}

// --- Rule fixtures: failpoint-gap ---

TEST(AnalyzeFailpointGap, UncoveredFsyncFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/io/seg.cc",
      "Status Flush(std::FILE* f) {\n"
      "  if (::fsync(::fileno(f)) != 0) return Status::IoError(\"x\");\n"
      "  return Status::OK();\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleFailpointGap));
}

TEST(AnalyzeFailpointGap, CoveredFsyncIsClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/io/seg.cc",
      "Status Flush(std::FILE* f) {\n"
      "  FATS_FAILPOINT_STATUS(\"io.flush\");\n"
      "  if (::fsync(::fileno(f)) != 0) return Status::IoError(\"x\");\n"
      "  return Status::OK();\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeFailpointGap, ReadOnlyIoFunctionIsClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/io/seg.cc",
      "int Peek(std::FILE* f) { return std::fgetc(f); }\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeFailpointGap, OutsideSrcIoIsExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/util/x.cc",
      "Status Flush(std::FILE* f) {\n"
      "  if (::fsync(::fileno(f)) != 0) return Status::IoError(\"x\");\n"
      "  return Status::OK();\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeFailpointGap, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/io/seg.cc",
      "Status Flush(std::FILE* f) {\n"
      "  // fats-lint: allow(failpoint-gap)\n"
      "  if (::fsync(::fileno(f)) != 0) return Status::IoError(\"x\");\n"
      "  return Status::OK();\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleFailpointGap, /*suppressed=*/true));
}

// --- Rule fixtures: discarded-status ---

TEST(AnalyzeDiscardedStatus, BareStatementCallFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "Status Append(int rec);\n"
      "void F() { Append(1); }\n");
  EXPECT_TRUE(HasRule(r, kRuleDiscardedStatus));
}

TEST(AnalyzeDiscardedStatus, NestedTemplateResultIsIndexed) {
  // The lexer fuses the closing `>>`; both declarations must still register
  // as Status-returning.
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "Result<std::unique_ptr<int>> OpenThing();\n"
      "Result<std::vector<long>> ReadThing();\n"
      "void F() { OpenThing(); ReadThing(); }\n");
  EXPECT_EQ(ActiveRules(r), (std::vector<std::string>{kRuleDiscardedStatus,
                                                       kRuleDiscardedStatus}));
}

TEST(AnalyzeDiscardedStatus, CheckedAndReturnedCallsAreClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "Status Append(int rec);\n"
      "Status F() {\n"
      "  Status s = Append(1);\n"
      "  if (!Append(2).ok()) return s;\n"
      "  return Append(3);\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeDiscardedStatus, AmbiguousNameDoesNotFire) {
  // `Append` is also declared void elsewhere: without type resolution the
  // call is ambiguous, so the rule must stay quiet.
  const AnalysisResult r = AnalyzeFiles(
      {{"src/core/x.cc",
        "Status Append(int rec);\n"
        "void F() { log.Append(1); }\n"},
       {"src/core/log.h", "void Append(int rec);\n"}});
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeDiscardedStatus, UnannotatedVoidCastFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "Status Close();\n"
      "void F() { (void)Close(); }\n");
  EXPECT_TRUE(HasRule(r, kRuleDiscardedStatus));
}

TEST(AnalyzeDiscardedStatus, AnnotatedVoidCastIsSuppressed) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "Status Close();\n"
      "void F() { (void)Close(); }  // fats-lint: allow(discarded-status)\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleDiscardedStatus, /*suppressed=*/true));
}

// --- Rule fixtures: store-mutation-bypass ---

TEST(AnalyzeStoreMutation, DirectTruncateInCoreFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/compact_unlearner.cc",
      "void F(FatsTrainer* trainer) {\n"
      "  trainer->store().TruncateFromIteration(1, 3);\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleStoreMutationBypass));
}

TEST(AnalyzeStoreMutation, DirectSaveOnMemberFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/unlearning_service.cc",
      "void G() { store_.SaveMinibatch(t, k, batch); }\n");
  EXPECT_TRUE(HasRule(r, kRuleStoreMutationBypass));
}

TEST(AnalyzeStoreMutation, WrapperCallsAndReadsAreClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/unlearning_service.cc",
      "void G(FatsTrainer* trainer) {\n"
      "  trainer->TruncateStoreFromIteration(1);\n"
      "  FATS_RETURN_NOT_OK(trainer->RedrawMinibatch(t, k));\n"
      "  const auto* b = trainer->store().GetMinibatch(t, k);\n"
      "  int64_t first = trainer->store().EarliestSampleUse(ref);\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeStoreMutation, TrainerItselfIsExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/fats_trainer.cc",
      "void FatsTrainer::Reset() { store_.Clear(); }\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeStoreMutation, OutsideCoreIsExempt) {
  // Journal recovery rebuilds a fresh store record-by-record; the rule is
  // scoped to src/core where the trainer wrappers are the contract.
  const AnalysisResult r = AnalyzeOne(
      "src/io/train_journal.cc",
      "void H(StateStore& store) { store.SaveMinibatch(t, k, batch); }\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeStoreMutation, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "void F(FatsTrainer* trainer) {\n"
      "  trainer->store().Clear();  "
      "// fats-lint: allow(store-mutation-bypass)\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleStoreMutationBypass, /*suppressed=*/true));
}

// --- Rule fixtures: unlearn-owner ---

TEST(AnalyzeUnlearnOwner, RewriteCallInBenchFires) {
  const AnalysisResult r = AnalyzeOne(
      "bench/bench_x.cc",
      "void F(FatsTrainer* trainer) {\n"
      "  trainer->NotifyUnlearnBegin();\n"
      "  FATS_CHECK_OK(trainer->RedrawMinibatch(t, k));\n"
      "  FATS_CHECK_OK(trainer->RedrawRound(r, t_max));\n"
      "}\n");
  EXPECT_EQ(ActiveRules(r),
            (std::vector<std::string>{kRuleUnlearnOwner, kRuleUnlearnOwner,
                                      kRuleUnlearnOwner}));
}

TEST(AnalyzeUnlearnOwner, RewriteCallInOtherCoreFileFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/compact_unlearner.cc",
      "void F(FatsTrainer* trainer) { trainer->RedrawRound(1, 3); }\n");
  EXPECT_TRUE(HasRule(r, kRuleUnlearnOwner));
}

TEST(AnalyzeUnlearnOwner, ServiceAndTrainerAreExempt) {
  const std::string body =
      "Status F(FatsTrainer* trainer) {\n"
      "  trainer->NotifyUnlearnBegin();\n"
      "  FATS_RETURN_NOT_OK(trainer->RedrawMinibatch(t, k));\n"
      "  return trainer->RedrawRound(r, t_max);\n"
      "}\n";
  for (const char* path :
       {"src/core/unlearning_service.cc", "src/core/fats_trainer.cc",
        "src/core/fats_trainer.h"}) {
    EXPECT_FALSE(HasRule(AnalyzeOne(path, body), kRuleUnlearnOwner)) << path;
  }
}

TEST(AnalyzeUnlearnOwner, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "examples/x.cpp",
      "void F(FatsTrainer* trainer) {\n"
      "  trainer->NotifyUnlearnBegin();  "
      "// fats-lint: allow(unlearn-owner)\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleUnlearnOwner, /*suppressed=*/true));
}

// --- Rule fixtures: eval-on-read ---

TEST(AnalyzeEvalOnRead, EvaluationInRoundLoopFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/fats_trainer.cc",
      "void FatsTrainer::RunPass(int64_t t0, int64_t t_end,\n"
      "                          TrainPassKind pass) {\n"
      "  for (int64_t t = t0; t <= t_end; ++t) {\n"
      "    RoundRecord record;\n"
      "    record.test_accuracy = EvaluateTestAccuracy();\n"
      "    const double a = model_->EvaluateAccuracy(x, y);\n"
      "    log_.Append(record);\n"
      "  }\n"
      "}\n");
  EXPECT_EQ(ActiveRules(r), (std::vector<std::string>{kRuleEvalOnRead,
                                                      kRuleEvalOnRead}));
}

TEST(AnalyzeEvalOnRead, OnReadCallInServiceOrIoFires) {
  for (const char* path :
       {"src/core/unlearning_service.cc", "src/io/train_journal.cc",
        "src/state/history_log.cc", "src/transport/reliable_channel.cc"}) {
    const AnalysisResult r = AnalyzeOne(
        path,
        "double F(FatsTrainer* trainer) {\n"
        "  return trainer->EvaluateRoundAccuracy(3);\n"
        "}\n");
    EXPECT_TRUE(HasRule(r, kRuleEvalOnRead)) << path;
  }
}

TEST(AnalyzeEvalOnRead, TrainerEvaluatorsAreExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/fats_trainer.cc",
      "double FatsTrainer::EvaluateTestAccuracy() {\n"
      "  return model_->EvaluateAccuracy(test_batch_.inputs,\n"
      "                                  test_batch_.labels);\n"
      "}\n"
      "double FatsTrainer::EvaluateRoundAccuracy(int64_t round) {\n"
      "  model_->SetParameters(*store_.GetGlobalModel(round));\n"
      "  return EvaluateTestAccuracy();\n"
      "}\n");
  EXPECT_FALSE(HasRule(r, kRuleEvalOnRead));
  // Declarations are not calls.
  EXPECT_FALSE(HasRule(AnalyzeOne("src/core/fats_trainer.h",
                                  "class FatsTrainer {\n"
                                  "  double EvaluateTestAccuracy();\n"
                                  "  double EvaluateRoundAccuracy(int64_t r);\n"
                                  "};\n"),
                       kRuleEvalOnRead));
}

TEST(AnalyzeEvalOnRead, FedAvgAndBaselinesAreOutOfScope) {
  const std::string body =
      "void F() {\n"
      "  record.test_accuracy = EvaluateTestAccuracy();\n"
      "  record.test_accuracy = trainer_->EvaluateTestAccuracy();\n"
      "}\n";
  for (const char* path :
       {"src/fl/fedavg.cc", "src/baselines/fr2.cc", "bench/bench_fig1.cc",
        "tools/fats_cli.cc"}) {
    EXPECT_FALSE(HasRule(AnalyzeOne(path, body), kRuleEvalOnRead)) << path;
  }
}

TEST(AnalyzeEvalOnRead, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/x.cc",
      "double F(FatsTrainer* trainer) {\n"
      "  return trainer->EvaluateTestAccuracy();  "
      "// fats-lint: allow(eval-on-read)\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleEvalOnRead, /*suppressed=*/true));
}

// --- Rule fixtures: raw-wire ---

TEST(AnalyzeRawWire, FrameCodecInCoreFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/fats_trainer.cc",
      "void F(const WireMessage& m) {\n"
      "  std::string frame = transport::EncodeFrame(m);\n"
      "}\n");
  EXPECT_TRUE(HasRule(r, kRuleRawWire));
}

TEST(AnalyzeRawWire, RingBufferPushInFlFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/fl/fedavg.cc",
      "void G(std::string_view frame) {\n"
      "  (void)wire_->PushFrame(transport::Direction::kUplink, frame);\n"
      "}  // fats-lint: allow(discarded-status)\n");
  EXPECT_TRUE(HasRule(r, kRuleRawWire));
}

TEST(AnalyzeRawWire, PosixSocketInIoFires) {
  const AnalysisResult r = AnalyzeOne(
      "src/io/remote_journal.cc",
      "int H() { return socket(AF_INET, SOCK_STREAM, 0); }\n");
  EXPECT_TRUE(HasRule(r, kRuleRawWire));
}

TEST(AnalyzeRawWire, ChannelDeliveryIsClean) {
  const AnalysisResult r = AnalyzeOne(
      "src/core/fats_trainer.cc",
      "void F(const transport::EncodedModel& m) {\n"
      "  auto d = channel_->DeliverModel(address, m);\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeRawWire, TransportItselfIsExempt) {
  const AnalysisResult r = AnalyzeOne(
      "src/transport/reliable_channel.cc",
      "void F(Transport* t, std::string_view frame) {\n"
      "  (void)t->PushFrame(Direction::kDownlink, frame);\n"
      "}  // fats-lint: allow(discarded-status)\n");
  EXPECT_FALSE(HasRule(r, kRuleRawWire));
}

TEST(AnalyzeRawWire, DeclarationDoesNotFire) {
  // `Status PushFrame(` is a declaration (a fake transport in a test
  // double), not a call through the primitive.
  const AnalysisResult r = AnalyzeOne(
      "src/fl/comm_stats.h",
      "struct FakeWire { Status PushFrame(Direction d, std::string_view f); "
      "};\n");
  EXPECT_FALSE(HasRule(r, kRuleRawWire));
}

TEST(AnalyzeRawWire, SuppressionDowngrades) {
  const AnalysisResult r = AnalyzeOne(
      "src/io/wire_dump.cc",
      "void F(std::string_view frame) {\n"
      "  auto m = transport::DecodeFrame(frame);  "
      "// fats-lint: allow(raw-wire)\n"
      "}\n");
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleRawWire, /*suppressed=*/true));
}

// --- Rule fixtures: layer-order / layer-cycle ---

TEST(AnalyzeLayering, UpwardIncludeFires) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/nn/layer.h", "#include \"fl/server.h\"\n"}});
  EXPECT_TRUE(HasRule(r, kRuleLayerOrder));
}

TEST(AnalyzeLayering, DownwardIncludeIsClean) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/fl/server.h",
        "#include \"nn/layer.h\"\n#include \"util/status.h\"\n"}});
  EXPECT_TRUE(ActiveRules(r).empty());
}

TEST(AnalyzeLayering, UpwardIncludeSuppressionDowngrades) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/nn/layer.h",
        "#include \"fl/server.h\"  // fats-lint: allow(layer-order)\n"}});
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleLayerOrder, /*suppressed=*/true));
}

TEST(AnalyzeLayering, ModuleCycleFires) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/alpha/a.h", "#include \"beta/b.h\"\n"},
       {"src/beta/b.h", "#include \"alpha/a.h\"\n"}});
  EXPECT_TRUE(HasRule(r, kRuleLayerCycle));
}

// --- Cross-file model behavior ---

TEST(AnalyzeCrossFile, SiblingHeaderUnorderedNamesAreVisible) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/data/store.cc",
        "#include \"data/store.h\"\n"
        "double Store::Total(RngStream& rng) {\n"
        "  double t = 0.0;\n"
        "  for (const auto& kv : weights_) t += rng.NextDouble();\n"
        "  return t;\n"
        "}\n"},
       {"src/data/store.h",
        "struct Store { std::unordered_map<int, double> weights_; };\n"}});
  EXPECT_TRUE(HasRule(r, kRuleRngUnorderedDraw));
}

TEST(AnalyzeIndex, CollectsFailpointSitesAndStatusFns) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/io/x.cc",
        "Status Write() {\n"
        "  FATS_FAILPOINT_STATUS(\"io.write\");\n"
        "  return Status::OK();\n"
        "}\n"}});
  EXPECT_EQ(r.index.failpoint_sites.count("io.write"), 1u);
  EXPECT_EQ(r.index.status_functions.count("Write"), 1u);
}

// --- Reports: baseline + SARIF ---

TEST(AnalyzeBaseline, ParseApplyAndStaleCount) {
  std::vector<BaselineEntry> entries;
  ASSERT_TRUE(ParseBaseline(
      R"([{"rule": "rng-raw-key", "file": "src/fl/x.cc", "line": 1},
          {"rule": "layer-order", "file": "src/gone.cc"}])",
      &entries));
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[1].line, 0);

  AnalysisResult r = AnalyzeOne("src/fl/x.cc", "RngStream s(12345);\n");
  ASSERT_TRUE(HasRule(r, kRuleRngRawKey));
  const int stale = ApplyBaseline(entries, &r.findings);
  EXPECT_EQ(stale, 1);  // the src/gone.cc entry matched nothing
  EXPECT_TRUE(ActiveRules(r).empty());
  EXPECT_TRUE(HasRule(r, kRuleRngRawKey, /*suppressed=*/true));
}

TEST(AnalyzeBaseline, EmptyAndMalformed) {
  std::vector<BaselineEntry> entries;
  EXPECT_TRUE(ParseBaseline("[]", &entries));
  EXPECT_TRUE(entries.empty());
  EXPECT_TRUE(ParseBaseline("  \n", &entries));
  EXPECT_FALSE(ParseBaseline("not json", &entries));
  EXPECT_FALSE(ParseBaseline(R"([{"file": "x.cc"}])", &entries));
}

TEST(AnalyzeSarif, ShapeAndSuppression) {
  AnalysisResult r = AnalyzeOne(
      "src/fl/x.cc",
      "RngStream a(11111);\n"
      "RngStream b(22222);  // fats-lint: allow(rng-raw-key)\n");
  const std::string sarif = ToSarif(r.findings, AllAnalyzeRules());
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"fats_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"rng-raw-key\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
  EXPECT_NE(sarif.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(sarif.find("\"suppressions\""), std::string::npos);
}

TEST(AnalyzeRules, AllRulesSupersetOfLegacy) {
  // One catalog, each ID once, in --list-rules order: the nine token rules
  // first shipped by the fats_lint scanner, then the contract rules.
  const std::vector<std::string> expected = {
      "banned-rand", "banned-random-device", "default-engine", "time-seed",
      "random-include", "unordered-iteration", "raw-thread", "raw-io",
      "hot-alloc", "rng-raw-key", "rng-shared-stream", "rng-unordered-draw",
      "sampling-key-owner", "nondet-reduction", "failpoint-gap",
      "discarded-status", "layer-order", "layer-cycle",
      "store-mutation-bypass", "unlearn-owner", "eval-on-read", "raw-wire",
      "tile-overlap", "resident-history"};
  EXPECT_EQ(AllAnalyzeRules(), expected);
}

TEST(AnalyzeRules, DesignCatalogMatchesAllRules) {
  // The DESIGN.md §7.4 rule table must list exactly the emitted rule IDs,
  // in catalog order: the first backticked word of every table row.
  std::ifstream design(std::string(FATS_SOURCE_DIR) + "/DESIGN.md");
  ASSERT_TRUE(design) << "cannot read DESIGN.md under " << FATS_SOURCE_DIR;
  std::vector<std::string> documented;
  bool in_section = false;
  for (std::string line; std::getline(design, line);) {
    if (line.rfind("##", 0) == 0) {
      in_section = line.rfind("### 7.4 ", 0) == 0;
    } else if (in_section && line.rfind("| `", 0) == 0) {
      documented.push_back(line.substr(3, line.find('`', 3) - 3));
    }
  }
  EXPECT_EQ(documented, AllAnalyzeRules());
}

TEST(AnalyzeResult, FindingsAreSorted) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/fl/z.cc", "RngStream s(12345);\nRngStream t(9);\n"},
       {"src/fl/a.cc", "RngStream u(7);\n"}});
  for (size_t i = 1; i < r.findings.size(); ++i) {
    const Finding& prev = r.findings[i - 1];
    const Finding& cur = r.findings[i];
    EXPECT_LE(std::tie(prev.file, prev.line), std::tie(cur.file, cur.line));
  }
}

// --- Token rules (FatsLint* suites) ---
// The nine rules first shipped by the fats_lint token scanner, with the
// fixtures written for it.  ScanSource reproduces that scanner's view: the
// findings of these nine rules in one file, sorted by (line, rule).

const std::vector<std::string>& TokenRules() {
  static const auto* kRules = new std::vector<std::string>{
      kRuleBannedRand,    kRuleBannedRandomDevice, kRuleDefaultEngine,
      kRuleTimeSeed,      kRuleRandomInclude,      kRuleUnorderedIteration,
      kRuleRawThread,     kRuleRawIo,              kRuleHotAlloc};
  return *kRules;
}

// Analyzes `content` at `path`; a non-empty `sibling_header` is added to the
// file set as the .cc's sibling .h.
std::vector<Finding> ScanSource(const std::string& path,
                                const std::string& content,
                                const std::string& sibling_header = "") {
  std::vector<SourceFile> files = {{path, content}};
  if (!sibling_header.empty()) {
    files.push_back({path.substr(0, path.rfind('.')) + ".h", sibling_header});
  }
  std::vector<Finding> findings;
  for (Finding& f : AnalyzeFiles(files).findings) {
    if (f.file == path && std::count(TokenRules().begin(),
                                     TokenRules().end(), f.rule) > 0) {
      findings.push_back(std::move(f));
    }
  }
  return findings;
}

std::vector<std::string> ActiveRules(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  for (const Finding& f : findings) {
    if (!f.suppressed) rules.push_back(f.rule);
  }
  std::sort(rules.begin(), rules.end());
  return rules;
}

TEST(FatsLintClassify, RngDirIsExemptFromRngRules) {
  const FileClass rng = ClassifyPath("src/rng/philox.cc");
  EXPECT_FALSE(rng.rng_rules);
  EXPECT_FALSE(rng.ordered_rules);

  const FileClass core = ClassifyPath("src/core/fats_trainer.cc");
  EXPECT_TRUE(core.rng_rules);
  EXPECT_TRUE(core.ordered_rules);

  const FileClass fl = ClassifyPath("src/fl/server.cc");
  EXPECT_TRUE(fl.ordered_rules);
  const FileClass baselines = ClassifyPath("src/baselines/frs.cc");
  EXPECT_TRUE(baselines.ordered_rules);

  const FileClass nn = ClassifyPath("src/nn/linear.cc");
  EXPECT_TRUE(nn.rng_rules);
  EXPECT_FALSE(nn.ordered_rules);
  EXPECT_TRUE(nn.hot_rules);
  EXPECT_FALSE(core.hot_rules);
  EXPECT_TRUE(ClassifyPath("/home/u/repo/src/nn/lstm.cc").hot_rules);

  // Absolute paths classify the same way.
  EXPECT_FALSE(ClassifyPath("/home/u/repo/src/rng/sampling.cc").rng_rules);
  EXPECT_TRUE(ClassifyPath("/home/u/repo/src/core/x.cc").ordered_rules);
}

TEST(FatsLintClassify, LintableExtensions) {
  EXPECT_TRUE(ShouldLintFile("src/core/a.cc"));
  EXPECT_TRUE(ShouldLintFile("examples/quickstart.cpp"));
  EXPECT_TRUE(ShouldLintFile("src/nn/module.h"));
  EXPECT_FALSE(ShouldLintFile("CMakeLists.txt"));
  EXPECT_FALSE(ShouldLintFile("tools/ci.sh"));
}

TEST(FatsLintRng, RawStdRandFires) {
  const std::vector<Finding> f = ScanSource(
      "src/nn/init.cc", "int x = std::rand() % 7;\n");
  ASSERT_EQ(ActiveRules(f), std::vector<std::string>{kRuleBannedRand});
  EXPECT_EQ(f[0].line, 1);
  EXPECT_EQ(f[0].file, "src/nn/init.cc");
}

TEST(FatsLintRng, BareRandAndSrandFire) {
  const std::vector<Finding> f = ScanSource(
      "bench/bench_x.cc",
      "void f() {\n  srand(42);\n  int x = rand();\n}\n");
  const std::vector<std::string> expected = {kRuleBannedRand, kRuleBannedRand};
  EXPECT_EQ(ActiveRules(f), expected);
  EXPECT_EQ(f[0].line, 2);
  EXPECT_EQ(f[1].line, 3);
}

TEST(FatsLintRng, RandomDeviceFires) {
  const std::vector<Finding> f = ScanSource(
      "src/data/partition.cc", "std::random_device rd;\n");
  EXPECT_EQ(ActiveRules(f),
            std::vector<std::string>{kRuleBannedRandomDevice});
}

TEST(FatsLintRng, DefaultConstructedEngineFires) {
  EXPECT_EQ(ActiveRules(ScanSource("src/fl/client.cc",
                                   "std::mt19937 gen;\n")),
            std::vector<std::string>{kRuleDefaultEngine});
  EXPECT_EQ(ActiveRules(ScanSource("tools/foo.cc",
                                   "std::default_random_engine eng{};\n")),
            std::vector<std::string>{kRuleDefaultEngine});
  // A seeded engine is not the default-engine pattern (the include ban
  // covers it instead).
  EXPECT_TRUE(ActiveRules(ScanSource("src/fl/client.cc",
                                     "std::mt19937 gen(seed);\n"))
                  .empty());
}

TEST(FatsLintRng, RandomIncludeFiresOutsideRngOnly) {
  const char kSnippet[] = "#include <random>\n";
  EXPECT_EQ(ActiveRules(ScanSource("src/metrics/evaluation.cc", kSnippet)),
            std::vector<std::string>{kRuleRandomInclude});
  EXPECT_TRUE(ActiveRules(ScanSource("src/rng/rng_stream.h", kSnippet))
                  .empty());
}

TEST(FatsLintRng, TimeSeedFires) {
  const std::vector<Finding> f = ScanSource(
      "examples/demo.cpp", "engine.seed(std::time(nullptr));\n");
  EXPECT_EQ(ActiveRules(f), std::vector<std::string>{kRuleTimeSeed});
  // Wall-clock reads without a seeding context (e.g. the stopwatch) pass.
  EXPECT_TRUE(
      ActiveRules(ScanSource("src/util/stopwatch.cc",
                             "auto t = steady_clock::now();\n"))
          .empty());
}

TEST(FatsLintRng, LiteralsAndCommentsDoNotFire) {
  const std::vector<Finding> f = ScanSource(
      "src/util/logging.cc",
      "// std::rand() would be bad here\n"
      "const char* msg = \"never call std::rand()\";\n"
      "const char* re = R\"(\\bstd::random_device\\b)\";\n");
  EXPECT_TRUE(ActiveRules(f).empty());
  EXPECT_TRUE(f.empty());
}

TEST(FatsLintUnordered, RangeForOverMemberFires) {
  const char kSnippet[] =
      "#include <unordered_map>\n"
      "struct S {\n"
      "  std::unordered_map<int, float> weights_;\n"
      "  float Sum() const {\n"
      "    float s = 0;\n"
      "    for (const auto& [k, v] : weights_) s += v;\n"
      "    return s;\n"
      "  }\n"
      "};\n";
  const std::vector<Finding> f = ScanSource("src/core/foo.h", kSnippet);
  ASSERT_EQ(ActiveRules(f),
            std::vector<std::string>{kRuleUnorderedIteration});
  EXPECT_EQ(f[0].line, 6);

  // The same code outside the ordered-discipline trees is fine.
  EXPECT_TRUE(ActiveRules(ScanSource("src/data/foo.h", kSnippet)).empty());
}

TEST(FatsLintUnordered, ExplicitIteratorLoopFires) {
  const char kSnippet[] =
      "std::unordered_set<int> live_;\n"
      "void f() {\n"
      "  for (auto it = live_.begin(); it != live_.end(); ++it) {}\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/baselines/frs.cc", kSnippet);
  ASSERT_EQ(ActiveRules(f),
            std::vector<std::string>{kRuleUnorderedIteration});
  EXPECT_EQ(f[0].line, 3);
}

TEST(FatsLintUnordered, SiblingHeaderDeclsAreVisible) {
  const char kHeader[] =
      "struct Store {\n"
      "  std::unordered_map<long,\n"
      "      std::vector<long>> records_;\n"
      "};\n";
  const char kSource[] =
      "void Store::Dump() {\n"
      "  for (const auto& [k, v] : records_) {}\n"
      "}\n";
  const std::vector<Finding> f =
      ScanSource("src/fl/store.cc", kSource, kHeader);
  ASSERT_EQ(ActiveRules(f),
            std::vector<std::string>{kRuleUnorderedIteration});
  EXPECT_EQ(f[0].line, 2);
  // Without the header context the member is unknown.
  EXPECT_TRUE(ActiveRules(ScanSource("src/fl/store.cc", kSource)).empty());
}

TEST(FatsLintUnordered, LookupsDoNotFire) {
  const char kSnippet[] =
      "std::unordered_map<int, int> idx_;\n"
      "int f(int k) {\n"
      "  auto it = idx_.find(k);\n"
      "  return it == idx_.end() ? -1 : it->second;\n"
      "}\n";
  // find() and the .end() sentinel compare are order-independent and must
  // not fire; only traversal (range-for or begin()) counts as iteration.
  EXPECT_TRUE(ScanSource("src/core/idx.cc", kSnippet).empty());
}

TEST(FatsLintThread, RawThreadFiresOutsidePool) {
  EXPECT_EQ(ActiveRules(ScanSource("src/core/fats_trainer.cc",
                                   "std::thread t([] {});\n")),
            std::vector<std::string>{kRuleRawThread});
  EXPECT_EQ(ActiveRules(ScanSource("src/fl/server.cc",
                                   "auto f = std::async([] {});\n")),
            std::vector<std::string>{kRuleRawThread});
  EXPECT_EQ(ActiveRules(ScanSource("bench/bench_x.cc",
                                   "std::jthread t([] {});\n")),
            std::vector<std::string>{kRuleRawThread});
  // std::this_thread is not thread creation.
  EXPECT_TRUE(ActiveRules(ScanSource("src/util/stopwatch.cc",
                                     "std::this_thread::yield();\n"))
                  .empty());
}

TEST(FatsLintThread, PoolModuleIsExempt) {
  EXPECT_FALSE(ClassifyPath("src/util/thread_pool.h").thread_rules);
  EXPECT_FALSE(ClassifyPath("src/util/thread_pool.cc").thread_rules);
  EXPECT_FALSE(
      ClassifyPath("/home/u/repo/src/util/thread_pool.cc").thread_rules);
  EXPECT_TRUE(ClassifyPath("src/util/stopwatch.cc").thread_rules);
  EXPECT_TRUE(ActiveRules(ScanSource("src/util/thread_pool.h",
                                     "std::vector<std::thread> workers_;\n"))
                  .empty());
}

TEST(FatsLintThread, SuppressionDowngrades) {
  const std::vector<Finding> f = ScanSource(
      "src/core/a.cc",
      "std::thread t;  // fats-lint: allow(raw-thread)\n");
  ASSERT_EQ(static_cast<int>(f.size()), 1);
  EXPECT_TRUE(f[0].suppressed);
  EXPECT_EQ(ActiveCount(f), 0);
}

TEST(FatsLintRawIo, ClassifierScopesTheRule) {
  EXPECT_TRUE(ClassifyPath("src/core/fats_trainer.cc").io_rules);
  EXPECT_TRUE(ClassifyPath("src/fl/train_log.cc").io_rules);
  EXPECT_TRUE(ClassifyPath("src/io/checkpoint.cc").io_rules);
  EXPECT_TRUE(ClassifyPath("src/io/train_journal.cc").io_rules);
  // The journal module is the sanctioned raw-file writer.
  EXPECT_FALSE(ClassifyPath("src/io/journal.cc").io_rules);
  EXPECT_FALSE(ClassifyPath("src/io/journal.h").io_rules);
  // Outside the durable-state trees the rule does not apply.
  EXPECT_FALSE(ClassifyPath("src/util/csv_writer.cc").io_rules);
  EXPECT_FALSE(ClassifyPath("src/nn/linear.cc").io_rules);
  EXPECT_FALSE(ClassifyPath("bench/bench_micro_kernels.cc").io_rules);
}

TEST(FatsLintRawIo, OfstreamAndStdioWritesFire) {
  EXPECT_EQ(ActiveRules(ScanSource(
                "src/io/snapshot.cc",
                "void f() { std::ofstream out(p, std::ios::binary); }\n")),
            std::vector<std::string>{kRuleRawIo});
  EXPECT_EQ(ActiveRules(ScanSource("src/core/dump.cc",
                                   "FILE* f = fopen(path, qq);\n")),
            std::vector<std::string>{kRuleRawIo});
  EXPECT_EQ(ActiveRules(ScanSource("src/fl/spill.cc",
                                   "std::fwrite(buf, 1, n, f);\n")),
            std::vector<std::string>{kRuleRawIo});
}

TEST(FatsLintRawIo, JournalModuleDoesNotFire) {
  EXPECT_TRUE(
      ActiveRules(ScanSource("src/io/journal.cc",
                             "std::FILE* f = std::fopen(p, qq);\n"
                             "std::fwrite(buf, 1, n, f);\n"))
          .empty());
}

TEST(FatsLintRawIo, OutsideDurableTreesDoesNotFire) {
  EXPECT_TRUE(ActiveRules(ScanSource("src/util/csv_writer.cc",
                                     "std::ofstream file_(path);\n"))
                  .empty());
}

TEST(FatsLintRawIo, LiteralsAndCommentsDoNotFire) {
  EXPECT_TRUE(
      ActiveRules(ScanSource("src/io/doc.cc",
                             "// never call fopen here\n"
                             "const char* s = \"std::ofstream out;\";\n"))
          .empty());
}

TEST(FatsLintRawIo, SuppressionDowngrades) {
  const std::vector<Finding> findings = ScanSource(
      "src/io/probe.cc",
      "// Read-only probe.  fats-lint: allow(raw-io)\n"
      "std::FILE* f = std::fopen(p, qq);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, kRuleRawIo);
  EXPECT_TRUE(findings[0].suppressed);
  EXPECT_EQ(ActiveCount(findings), 0);
}

TEST(FatsLintHotAlloc, TensorTemporaryInForwardFires) {
  const char kSnippet[] =
      "const Tensor& Linear::Forward(const Tensor& input, Workspace* ws) {\n"
      "  Tensor out({input.dim(0), out_features_});\n"
      "  return out;\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/nn/linear.cc", kSnippet);
  ASSERT_EQ(ActiveRules(f), std::vector<std::string>{kRuleHotAlloc});
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'out'"), std::string::npos);

  // The identical body outside src/nn/ is not a hot path.
  EXPECT_TRUE(ActiveRules(ScanSource("src/core/foo.cc", kSnippet)).empty());
}

TEST(FatsLintHotAlloc, TensorTemporaryInBackwardParametersFires) {
  // The parameters-only backward runs on every training and replay step
  // (the first layer of every model), so it is as hot as Backward.
  const char kSnippet[] =
      "void Conv2d::BackwardParameters(const Tensor& grad_output,\n"
      "                                Workspace* ws) {\n"
      "  Tensor dw({out_channels_, k_});\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/nn/conv2d.cc", kSnippet);
  ASSERT_EQ(ActiveRules(f), std::vector<std::string>{kRuleHotAlloc});
  EXPECT_EQ(f[0].line, 3);
  EXPECT_NE(f[0].message.find("'dw'"), std::string::npos);
}

TEST(FatsLintHotAlloc, WorkspaceBindingsDoNotFire) {
  const char kSnippet[] =
      "const Tensor& Linear::Forward(const Tensor& input, Workspace* ws) {\n"
      "  Tensor& out = ws->Peek(this, kOut);\n"
      "  const Tensor& col = ws->Peek(this, kCol);\n"
      "  const Tensor* cached = &input;\n"
      "  return out;\n"
      "}\n";
  EXPECT_TRUE(ActiveRules(ScanSource("src/nn/linear.cc", kSnippet)).empty());
}

TEST(FatsLintHotAlloc, TripleLoopMatmulFires) {
  const char kSnippet[] =
      "const Tensor& Foo::Backward(const Tensor& g, Workspace* ws) {\n"
      "  for (int64_t i = 0; i < m; ++i) {\n"
      "    for (int64_t kk = 0; kk < k; ++kk) {\n"
      "      const float aik = a[i * k + kk];\n"
      "      for (int64_t j = 0; j < n; ++j) c[i * n + j] += aik * b[kk * n + j];\n"
      "    }\n"
      "  }\n"
      "  return ws->Peek(this, 0);\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/nn/foo.cc", kSnippet);
  ASSERT_EQ(ActiveRules(f), std::vector<std::string>{kRuleHotAlloc});
  EXPECT_EQ(f[0].line, 5);
  EXPECT_NE(f[0].message.find("triple-nested"), std::string::npos);
}

TEST(FatsLintHotAlloc, NonMacTripleLoopDoesNotFire) {
  // Elementwise work at depth 3 (e.g. the LSTM gate loop, conv bias add) is
  // legitimate: only += with a multiply on one statement looks like matmul.
  const char kSnippet[] =
      "const Tensor& Foo::Forward(const Tensor& x, Workspace* ws) {\n"
      "  for (int64_t t = 0; t < seq; ++t) {\n"
      "    for (int64_t n = 0; n < batch; ++n) {\n"
      "      for (int64_t j = 0; j < h; ++j) dst[j] += src[j];\n"
      "    }\n"
      "  }\n"
      "  return ws->Peek(this, 0);\n"
      "}\n";
  EXPECT_TRUE(ActiveRules(ScanSource("src/nn/foo.cc", kSnippet)).empty());
}

TEST(FatsLintHotAlloc, HelperCalledFromHotBodyIsScanned) {
  // Helper runs on every Forward; Unused runs on none.
  const char kSnippet[] =
      "void Foo::Helper(float* y) {\n"
      "  Tensor scratch({16});\n"
      "}\n"
      "void Foo::Unused(float* y) {\n"
      "  Tensor scratch({16});\n"
      "}\n"
      "const Tensor& Foo::Forward(const Tensor& x, Workspace* ws) {\n"
      "  Helper(ws->Peek(this, 0).data());\n"
      "  return ws->Peek(this, 0);\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/nn/foo.cc", kSnippet);
  ASSERT_EQ(ActiveRules(f), std::vector<std::string>{kRuleHotAlloc});
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'scratch'"), std::string::npos);
}

TEST(FatsLintHotAlloc, CallChainsThroughTemplateKernelsAreFollowed) {
  // Forward -> Kernel<6> -> Pack: the Tensor in Pack is reported. Kernel's
  // raw multiply-accumulate loops are not: only the named hot bodies are
  // checked for them, because a dispatched kernel is a deliberate raw loop.
  const char kSnippet[] =
      "void Pack(float* dst) {\n"
      "  Tensor staging({64});\n"
      "}\n"
      "template <int kRows>\n"
      "void Kernel(const float* a, const float* b, float* c) {\n"
      "  Pack(c);\n"
      "  for (int64_t i = 0; i < kRows; ++i)\n"
      "    for (int64_t kk = 0; kk < k; ++kk)\n"
      "      for (int64_t j = 0; j < n; ++j) c[i * n + j] += a[i] * b[j];\n"
      "}\n"
      "const Tensor& Foo::Forward(const Tensor& x, Workspace* ws) {\n"
      "  Kernel<6>(x.data(), w_.data(), ws->Peek(this, 0).data());\n"
      "  return ws->Peek(this, 0);\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/nn/foo.cc", kSnippet);
  ASSERT_EQ(ActiveRules(f), std::vector<std::string>{kRuleHotAlloc});
  EXPECT_EQ(f[0].line, 2);
  EXPECT_NE(f[0].message.find("'staging'"), std::string::npos);
}

TEST(FatsLintHotAlloc, DirectReferencePathsAreExempt) {
  // A function that no Forward/Backward body calls, such as a direct-conv
  // reference loop, is exempt: Tensor returns and MAC loops are its point.
  const char kSnippet[] =
      "Tensor Conv2d::ForwardDirect(const Tensor& input) const {\n"
      "  Tensor out({input.dim(0), out_features_});\n"
      "  for (int64_t i = 0; i < m; ++i)\n"
      "    for (int64_t kk = 0; kk < k; ++kk)\n"
      "      for (int64_t j = 0; j < n; ++j) c[i * n + j] += a[i] * b[j];\n"
      "  return out;\n"
      "}\n";
  EXPECT_TRUE(ActiveRules(ScanSource("src/nn/conv2d.cc", kSnippet)).empty());
}

TEST(FatsLintHotAlloc, CallsAndDeclarationsDoNotFire) {
  const char kSnippet[] =
      "const Tensor& Forward(const Tensor& input, Workspace* ws) override;\n"
      "void Step() {\n"
      "  Tensor y = layer.Forward(x, &ws);\n"
      "  const Tensor& gx = layer.Backward(g, &ws);\n"
      "}\n";
  // The Tensor temporary lives in Step(), not in a Forward/Backward body;
  // the Forward declaration has no body and the calls are not definitions.
  EXPECT_TRUE(ActiveRules(ScanSource("src/nn/foo.h", kSnippet)).empty());
}

TEST(FatsLintHotAlloc, SuppressionDowngrades) {
  const char kSnippet[] =
      "const Tensor& Foo::Forward(const Tensor& x, Workspace* ws) {\n"
      "  // fats-lint: allow(hot-alloc)\n"
      "  Tensor scratch({4, 4});\n"
      "  return ws->Peek(this, 0);\n"
      "}\n";
  const std::vector<Finding> f = ScanSource("src/nn/foo.cc", kSnippet);
  ASSERT_EQ(static_cast<int>(f.size()), 1);
  EXPECT_TRUE(f[0].suppressed);
  EXPECT_EQ(ActiveCount(f), 0);
}

TEST(FatsLintSuppression, SameLineAndPreviousLine) {
  const std::vector<Finding> same_line = ScanSource(
      "src/core/a.cc",
      "int x = std::rand();  // fats-lint: allow(banned-rand)\n");
  ASSERT_EQ(static_cast<int>(same_line.size()), 1);
  EXPECT_TRUE(same_line[0].suppressed);
  EXPECT_EQ(ActiveCount(same_line), 0);

  const std::vector<Finding> prev_line = ScanSource(
      "src/core/a.cc",
      "// fats-lint: allow(banned-rand)\n"
      "int x = std::rand();\n");
  ASSERT_EQ(static_cast<int>(prev_line.size()), 1);
  EXPECT_TRUE(prev_line[0].suppressed);
}

TEST(FatsLintSuppression, WrongRuleDoesNotSuppress) {
  const std::vector<Finding> f = ScanSource(
      "src/core/a.cc",
      "int x = std::rand();  // fats-lint: allow(time-seed)\n");
  ASSERT_EQ(static_cast<int>(f.size()), 1);
  EXPECT_FALSE(f[0].suppressed);
  EXPECT_EQ(ActiveCount(f), 1);
}

TEST(FatsLintSuppression, ListAndAll) {
  const std::vector<Finding> list = ScanSource(
      "src/core/a.cc",
      "std::random_device rd;  // fats-lint: allow(banned-random-device, "
      "banned-rand)\n");
  ASSERT_EQ(static_cast<int>(list.size()), 1);
  EXPECT_TRUE(list[0].suppressed);

  const std::vector<Finding> all = ScanSource(
      "src/core/a.cc", "int x = std::rand();  // fats-lint: allow(all)\n");
  ASSERT_EQ(static_cast<int>(all.size()), 1);
  EXPECT_TRUE(all[0].suppressed);
}

TEST(FatsLintReport, JsonShape) {
  const std::vector<Finding> f = ScanSource(
      "src/core/a.cc",
      "int x = std::rand();\n"
      "int y = std::rand();  // fats-lint: allow(banned-rand)\n");
  ASSERT_EQ(static_cast<int>(f.size()), 2);
  const std::string json = ToJson(f);
  EXPECT_NE(json.find("\"rule\": \"banned-rand\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": true"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed\": false"), std::string::npos);
  EXPECT_EQ(ToJson({}), "[]\n");
}

TEST(FatsLintReport, AllRulesListed) {
  const std::vector<std::string> rules = AllAnalyzeRules();
  for (const std::string& rule : TokenRules()) {
    EXPECT_EQ(std::count(rules.begin(), rules.end(), rule), 1) << rule;
  }
}

// --- SuppressionMap edge cases (the comment grammar, not the rules) ---

TEST(FatsLintSuppressionMap, MultiRuleListOnOneLine) {
  const SuppressionMap map = SuppressionMap::Parse(
      "int x;  // fats-lint: allow(banned-rand,raw-thread)\n");
  EXPECT_TRUE(map.Allows(1, "banned-rand"));
  EXPECT_TRUE(map.Allows(1, "raw-thread"));
  EXPECT_FALSE(map.Allows(1, "raw-io"));
  // The directive also covers the next line (annotation-above form).
  EXPECT_TRUE(map.Allows(2, "banned-rand"));
  EXPECT_FALSE(map.Allows(3, "banned-rand"));
}

TEST(FatsLintSuppressionMap, TrailingCommentAfterDirective) {
  const SuppressionMap map = SuppressionMap::Parse(
      "f();  // fats-lint: allow(raw-io) -- read-only probe, see DESIGN 7.4\n");
  EXPECT_TRUE(map.Allows(1, "raw-io"));
  // Prose after the close paren must not leak extra rules.
  EXPECT_FALSE(map.Allows(1, "probe"));
}

TEST(FatsLintSuppressionMap, BlockCommentForm) {
  const SuppressionMap map = SuppressionMap::Parse(
      "g(); /* fats-lint: allow(hot-alloc) */ h();\n");
  EXPECT_TRUE(map.Allows(1, "hot-alloc"));
}

TEST(FatsLintSuppressionMap, WhitespaceBetweenAllowAndParen) {
  const SuppressionMap map = SuppressionMap::Parse(
      "x();  // fats-lint: allow ( banned-rand , time-seed )\n");
  EXPECT_TRUE(map.Allows(1, "banned-rand"));
  EXPECT_TRUE(map.Allows(1, "time-seed"));
}

TEST(FatsLintSuppressionMap, MultipleDirectivesOnOneLineMerge) {
  const SuppressionMap map = SuppressionMap::Parse(
      "y();  // fats-lint: allow(raw-io) fats-lint: allow(raw-thread)\n");
  EXPECT_TRUE(map.Allows(1, "raw-io"));
  EXPECT_TRUE(map.Allows(1, "raw-thread"));
}

TEST(FatsLintSuppressionMap, DirectiveTwoLinesAboveDoesNotApply) {
  const std::vector<Finding> f = ScanSource(
      "src/core/a.cc",
      "// fats-lint: allow(banned-rand)\n"
      "int unrelated;\n"
      "int x = std::rand();\n");
  ASSERT_EQ(static_cast<int>(f.size()), 1);
  EXPECT_FALSE(f[0].suppressed);
}

TEST(FatsLintSuppressionMap, WrongLineDoesNotSuppress) {
  // Directive BELOW the finding: only same-line and line-above count.
  const std::vector<Finding> f = ScanSource(
      "src/core/a.cc",
      "int x = std::rand();\n"
      "// fats-lint: allow(banned-rand)\n");
  ASSERT_EQ(static_cast<int>(f.size()), 1);
  EXPECT_FALSE(f[0].suppressed);
}

TEST(FatsLintSuppressionMap, MalformedDirectiveIsIgnored) {
  const SuppressionMap map = SuppressionMap::Parse(
      "a();  // fats-lint: allow banned-rand\n"   // no parens
      "b();  // fats-lint: deny(banned-rand)\n"   // unknown verb
      "c();  // fats-lint: allow()\n");           // empty list
  EXPECT_FALSE(map.Allows(1, "banned-rand"));
  EXPECT_FALSE(map.Allows(2, "banned-rand"));
  EXPECT_FALSE(map.Allows(3, "banned-rand"));
  EXPECT_TRUE(map.empty());
}

TEST(FatsLintStrip, PreservesOffsetsAndNewlines) {
  const std::string stripped = StripCommentsAndStrings(
      "int a; // comment\n\"str\\\"ing\" 'c'\n/* multi\nline */int b;\n");
  EXPECT_EQ(stripped.size(),
            std::string("int a; // comment\n\"str\\\"ing\" 'c'\n/* multi\n"
                        "line */int b;\n")
                .size());
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'), 4);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  EXPECT_EQ(stripped.find("comment"), std::string::npos);
  EXPECT_EQ(stripped.find("str"), std::string::npos);
}

TEST(FatsLintStrip, CollectsMultiLineDeclarations) {
  const SourceFile file{
      "src/fl/x.h",
      "std::unordered_map<std::pair<long, long>, std::vector<long>,\n"
      "                   PairHash>\n"
      "    minibatches_;\n"
      "std::unordered_set<int> live_;\n"
      "using Alias = std::unordered_map<int, int>;\n"
      "std::unordered_map<int, int> Lookup();\n"};
  const std::vector<std::string> expected = {"live_", "minibatches_"};
  EXPECT_EQ(BuildFileModel(file).unordered_names, expected);
}

}  // namespace
}  // namespace fats::analyze
