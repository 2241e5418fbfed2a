// Tests for the fats_analyze engine (tools/analyze/): lexer and code-model
// unit tests, include-graph layering, report emission, and one golden
// fixture triple per analyzer rule — firing, clean, and suppressed — so
// every rule's positive and negative space is pinned.  The end-to-end
// "tree is clean" check is the fats_analyze ctest registered in
// tools/CMakeLists.txt, which runs the real binary over the repository.

#include "analyze/analyzer.h"

#include <algorithm>
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
  for (const lint::Finding& f : result.findings) {
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
  for (const lint::Finding& f : result.findings) {
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
// (src/data paths: the legacy unordered-iteration rule is scoped to
// core/fl/baselines, so only the analyzer rule is in play here.)

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
  const std::vector<std::string> all = AllAnalyzeRules();
  for (const std::string& legacy : lint::AllRules()) {
    EXPECT_NE(std::find(all.begin(), all.end(), legacy), all.end())
        << legacy;
  }
  for (const char* rule :
       {kRuleRngRawKey, kRuleRngSharedStream, kRuleRngUnorderedDraw,
        kRuleNondetReduction, kRuleFailpointGap, kRuleDiscardedStatus,
        kRuleLayerOrder, kRuleLayerCycle, kRuleEvalOnRead, kRuleTileOverlap,
        kRuleResidentHistory}) {
    EXPECT_NE(std::find(all.begin(), all.end(), rule), all.end()) << rule;
  }
}

TEST(AnalyzeResult, FindingsAreSorted) {
  const AnalysisResult r = AnalyzeFiles(
      {{"src/fl/z.cc", "RngStream s(12345);\nRngStream t(9);\n"},
       {"src/fl/a.cc", "RngStream u(7);\n"}});
  for (size_t i = 1; i < r.findings.size(); ++i) {
    const lint::Finding& prev = r.findings[i - 1];
    const lint::Finding& cur = r.findings[i];
    EXPECT_LE(std::tie(prev.file, prev.line), std::tie(cur.file, cur.line));
  }
}

}  // namespace
}  // namespace fats::analyze
