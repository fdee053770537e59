// Fixture tests for the conlint rule engine: each rule gets at least one
// violating snippet and one conforming snippet, plus coverage for the
// suppression/directive machinery, the project index, the call graph, and
// the deterministic file walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "callgraph.h"
#include "index.h"
#include "lint.h"

namespace {

using conlint::CallGraph;
using conlint::Diagnostic;
using conlint::FileLint;
using conlint::ProjectIndex;
using conlint::ProjectLint;

using SourceList = std::vector<std::pair<std::string, std::string>>;

// Builds a fresh project index over `extra` + the file under test, resolves
// the call graph, and lints just the file under test — the same shape the
// CLI uses (index everything, lint a subset).
FileLint run(const std::string& path, const std::string& source,
             const SourceList& extra = {}) {
  ProjectIndex idx;
  for (const auto& [p, s] : extra) idx.add_file(p, s);
  idx.add_file(path, source);
  CallGraph graph(idx);
  return conlint::lint_source(path, source, idx, graph);
}

// Index-only driver for the project-global lock-order rule.
ProjectLint run_project(const SourceList& files) {
  ProjectIndex idx;
  for (const auto& [p, s] : files) idx.add_file(p, s);
  CallGraph graph(idx);
  return conlint::lint_project(idx, graph);
}

int count_rule(const FileLint& fl, const std::string& rule) {
  return static_cast<int>(
      std::count_if(fl.diagnostics.begin(), fl.diagnostics.end(),
                    [&](const Diagnostic& d) { return d.rule == rule; }));
}

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

// ---- lexer-level behaviour --------------------------------------------------

TEST(ConlintLexer, TokenizesAndTracksLines) {
  auto lx = conlint::lex("int a = 1;\nfloat b;\n");
  ASSERT_GE(lx.tokens.size(), 5u);
  EXPECT_EQ(lx.tokens[0].text, "int");
  EXPECT_EQ(lx.tokens[0].line, 1);
  EXPECT_EQ(lx.tokens[5].text, "float");
  EXPECT_EQ(lx.tokens[5].line, 2);
}

TEST(ConlintLexer, IgnoresCodeInStringsAndComments) {
  auto fl = run("src/x.cpp",
                "const char* s = \"rand() time(nullptr)\";\n"
                "// rand() in a comment\n"
                "/* std::random_device in a block comment */\n");
  EXPECT_EQ(count_rule(fl, "determinism"), 0);
}

TEST(ConlintLexer, RawStringsDoNotLeakTokens) {
  auto fl = run("src/x.cpp",
                "const char* s = R\"(std::random_device rd; rand();)\";\n");
  EXPECT_EQ(count_rule(fl, "determinism"), 0);
}

TEST(ConlintLexer, DigitSeparatorsStayOneNumberToken) {
  auto lx = conlint::lex("long n = 1'000'000;\nint m = 0x1'0000;\n");
  bool found_dec = false;
  bool found_hex = false;
  for (const auto& t : lx.tokens) {
    if (t.text == "1'000'000") found_dec = true;
    if (t.text == "0x1'0000") found_hex = true;
    // A separator must never split the literal into number + char-literal.
    EXPECT_NE(t.text, "'000'");
    EXPECT_NE(t.text, "'0000");
  }
  EXPECT_TRUE(found_dec);
  EXPECT_TRUE(found_hex);
}

TEST(ConlintLexer, UnbalancedHotpathIsADirectiveError) {
  auto fl = run("src/x.cpp", "// conlint:hotpath begin\nint a = 0;\n");
  EXPECT_EQ(count_rule(fl, "directive"), 1);
  auto fl2 = run("src/x.cpp", "int a = 0;\n// conlint:hotpath end\n");
  EXPECT_EQ(count_rule(fl2, "directive"), 1);
}

// ---- param-version ----------------------------------------------------------

TEST(ParamVersion, FlagsAssignmentWithoutBump) {
  auto fl = run("src/compress/x.cpp",
                "void strip(nn::Parameter& p) {\n"
                "  p.transform.reset();\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 1);
  EXPECT_EQ(fl.diagnostics[0].line, 2);
}

TEST(ParamVersion, AcceptsAssignmentWithBumpInSameBody) {
  auto fl = run("src/compress/x.cpp",
                "void strip(nn::Parameter& p) {\n"
                "  p.transform.reset();\n"
                "  p.bump_version();\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 0);
}

TEST(ParamVersion, FlagsMaskAssignmentAndElementWrites) {
  auto fl = run("src/compress/x.cpp",
                "void a(nn::Parameter* p) { p->mask = Tensor(); }\n"
                "void b(nn::Parameter& p) { p.value[0] = 1.0f; }\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 2);
}

TEST(ParamVersion, BumpInOtherNonCallingFunctionDoesNotCount) {
  auto fl = run("src/compress/x.cpp",
                "void a(nn::Parameter& p) { p.value = Tensor(); }\n"
                "void b(nn::Parameter& p) { p.bump_version(); }\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 1);
}

TEST(ParamVersion, ConstParameterReadsAreFine) {
  auto fl = run("src/nn/x.cpp",
                "float peek(const nn::Parameter& p) {\n"
                "  return p.value[0] + (p.mask ? 1.0f : 0.0f);\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 0);
}

TEST(ParamVersion, MutatorMethodsAreFlagged) {
  auto fl = run("src/compress/x.cpp",
                "void z(nn::Parameter& p) { p.value.fill(0.0f); }\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 1);
}

// v2: a helper whose every caller bumps is clean — the version write is
// the caller's responsibility and the engine can now see it happen.
TEST(ParamVersion, CallerBumpExcusesHelper) {
  auto fl = run("src/compress/x.cpp",
                "void strip(nn::Parameter& p) {\n"
                "  p.value.fill(0.0f);\n"
                "}\n"
                "void apply(nn::Parameter& p) {\n"
                "  strip(p);\n"
                "  p.bump_version();\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 0);
}

TEST(ParamVersion, NonBumpingCallerIsNamedInTheFinding) {
  auto fl = run("src/compress/x.cpp",
                "void strip(nn::Parameter& p) {\n"
                "  p.value.fill(0.0f);\n"
                "}\n"
                "void apply(nn::Parameter& p) {\n"
                "  strip(p);\n"
                "}\n");
  ASSERT_EQ(count_rule(fl, "param-version"), 1);
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "apply"));
}

TEST(ParamVersion, OneBadCallerAmongGoodOnesStillFires) {
  auto fl = run("src/compress/x.cpp",
                "void strip(nn::Parameter& p) { p.value.fill(0.0f); }\n"
                "void good(nn::Parameter& p) { strip(p); p.bump_version(); }\n"
                "void bad(nn::Parameter& p) { strip(p); }\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 1);
}

TEST(ParamVersion, CrossFileCallerBumpIsSeen) {
  auto fl = run("src/compress/strip.cpp",
                "void strip(nn::Parameter& p) { p.value.fill(0.0f); }\n",
                {{"src/compress/apply.cpp",
                  "void apply(nn::Parameter& p) {\n"
                  "  strip(p);\n"
                  "  p.bump_version();\n"
                  "}\n"}});
  EXPECT_EQ(count_rule(fl, "param-version"), 0);
}

// ---- layer-reentrancy -------------------------------------------------------

const SourceList kLayerHierarchy = {
    {"src/nn/layers_fixture.h",
     "#pragma once\n"
     "class Layer { };\n"
     "class Linear : public Layer { };\n"
     "class FancyLinear : public Linear { };\n"}};

TEST(LayerReentrancy, FlagsMutableMemberInDerivedClass) {
  auto fl = run("src/nn/x.h",
                "#pragma once\n"
                "class Linear : public Layer {\n"
                "  mutable Tensor scratch_;\n"
                "};\n",
                kLayerHierarchy);
  EXPECT_EQ(count_rule(fl, "layer-reentrancy"), 1);
}

TEST(LayerReentrancy, TransitiveDerivationIsRecognized) {
  auto fl = run("src/nn/x.h",
                "#pragma once\n"
                "class FancyLinear : public Linear {\n"
                "  mutable int calls_;\n"
                "};\n",
                kLayerHierarchy);
  EXPECT_EQ(count_rule(fl, "layer-reentrancy"), 1);
}

TEST(LayerReentrancy, NonLayerClassMayUseMutable) {
  auto fl = run("src/obs/x.h",
                "#pragma once\n"
                "class Registry {\n"
                "  mutable std::mutex mu_;\n"
                "};\n",
                kLayerHierarchy);
  EXPECT_EQ(count_rule(fl, "layer-reentrancy"), 0);
}

// A mutable member whose type carries conlint:lockfree is a reviewed
// internally-synchronised cell (telemetry), not hidden per-call state.
TEST(LayerReentrancy, LockfreeAnnotatedMemberTypeIsExempt) {
  SourceList extra = kLayerHierarchy;
  extra.push_back(
      {"src/obs/lazy_fixture.h",
       "#pragma once\n"
       "// conlint:lockfree(single-writer telemetry cell; readers tolerate "
       "staleness)\n"
       "class LazyDist {\n"
       "  std::atomic<long> n_;\n"
       "};\n"});
  auto fl = run("src/nn/x.h",
                "#pragma once\n"
                "class Linear : public Layer {\n"
                "  mutable LazyDist stats_;\n"
                "  mutable Tensor scratch_;\n"
                "};\n",
                extra);
  // The Tensor member still fires; the LazyDist member does not.
  EXPECT_EQ(count_rule(fl, "layer-reentrancy"), 1);
  ASSERT_EQ(fl.diagnostics.size(), 1u);
  EXPECT_EQ(fl.diagnostics[0].line, 4);
}

TEST(LayerReentrancy, FlagsMemberMutationInForward) {
  auto fl = run("src/nn/x.cpp",
                "Tensor Linear::forward(const Tensor& x, bool train,\n"
                "                       TapeSlot& slot) const {\n"
                "  calls_ += 1;\n"
                "  return x;\n"
                "}\n",
                kLayerHierarchy);
  EXPECT_EQ(count_rule(fl, "layer-reentrancy"), 1);
}

TEST(LayerReentrancy, ReadsAndLocalsInForwardAreFine) {
  auto fl = run("src/nn/x.cpp",
                "Tensor Linear::forward(const Tensor& x, bool train,\n"
                "                       TapeSlot& slot) const {\n"
                "  float w = weight_.value[0];\n"
                "  slot.saved = x;\n"
                "  Tensor out = x;\n"
                "  return out;\n"
                "}\n",
                kLayerHierarchy);
  EXPECT_EQ(count_rule(fl, "layer-reentrancy"), 0);
}

// ---- determinism ------------------------------------------------------------

TEST(Determinism, FlagsBannedSources) {
  auto fl = run("src/attacks/x.cpp",
                "int a() { return rand(); }\n"
                "unsigned b() { std::random_device rd; return rd(); }\n"
                "long c() { return time(nullptr); }\n"
                "auto d() { return std::chrono::steady_clock::now(); }\n"
                "int e() { std::mt19937 gen; return (int)gen(); }\n");
  EXPECT_EQ(count_rule(fl, "determinism"), 5);
}

TEST(Determinism, SeededEngineAndExemptPathsAreFine) {
  auto fl = run("src/attacks/x.cpp",
                "int f(unsigned long seed) {\n"
                "  std::mt19937 gen(seed);\n"
                "  return (int)gen();\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "determinism"), 0);

  auto fl2 = run("src/util/timer.cpp",
                 "double g() { return std::chrono::steady_clock::now()\n"
                 "    .time_since_epoch().count(); }\n");
  EXPECT_EQ(count_rule(fl2, "determinism"), 0);

  auto fl3 = run("src/obs/span.cpp",
                 "auto h() { return std::chrono::steady_clock::now(); }\n");
  EXPECT_EQ(count_rule(fl3, "determinism"), 0);

  // src/store/ is exempt for its observational registered-at provenance
  // timestamps (never part of a derivation hash or artifact).
  auto fl4 = run("src/store/store.cpp",
                 "auto i() { return std::chrono::system_clock::now(); }\n");
  EXPECT_EQ(count_rule(fl4, "determinism"), 0);
}

TEST(Determinism, ClockReadsStayExemptUnderObs) {
  // Timing code legitimately reads wall and steady clocks (span
  // timestamps, deadlines). It lives in src/obs/, which the determinism
  // rule exempts — but the exemption is path-based, so the same code
  // pasted into src/core/ must still fire.
  const std::string clock_reader =
      "void run() {\n"
      "  auto deadline = std::chrono::steady_clock::now();\n"
      "  double t = std::chrono::system_clock::now()\n"
      "      .time_since_epoch().count();\n"
      "  (void)deadline; (void)t;\n"
      "}\n";
  auto fl = run("src/obs/obs.cpp", clock_reader);
  EXPECT_EQ(count_rule(fl, "determinism"), 0);
  auto fl2 = run("src/obs/metrics.cpp", clock_reader);
  EXPECT_EQ(count_rule(fl2, "determinism"), 0);
  auto fl3 = run("src/core/clock.cpp", clock_reader);
  EXPECT_EQ(count_rule(fl3, "determinism"), 2);
}

TEST(Determinism, MemberNamedNowOrRandIsFine) {
  auto fl = run("src/core/x.cpp",
                "double f(const Clock& c) { return c.now(); }\n"
                "float g(const Rng& r) { return r.rand(); }\n");
  EXPECT_EQ(count_rule(fl, "determinism"), 0);
}

// ---- transitive-determinism -------------------------------------------------

TEST(TransitiveDeterminism, FlagsExemptTreeSourceReachedFromCore) {
  auto fl = run("src/attacks/x.cpp",
                "int f() {\n"
                "  return jitter();\n"
                "}\n",
                {{"src/util/entropy_fixture.cpp",
                  "int jitter() { return rand(); }\n"}});
  ASSERT_EQ(count_rule(fl, "transitive-determinism"), 1);
  EXPECT_EQ(fl.diagnostics[0].line, 2);
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "jitter"));
}

TEST(TransitiveDeterminism, ReportsTheChainThroughIntermediateCalls) {
  auto fl = run("src/attacks/x.cpp",
                "int f() { return shuffle_seed(); }\n",
                {{"src/core/mid_fixture.cpp",
                  "int shuffle_seed() { return jitter(); }\n"},
                 {"src/util/entropy_fixture.cpp",
                  "int jitter() { return rand(); }\n"}});
  ASSERT_GE(count_rule(fl, "transitive-determinism"), 1);
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "shuffle_seed"));
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "jitter"));
}

TEST(TransitiveDeterminism, SeededHelperIsClean) {
  auto fl = run("src/attacks/x.cpp",
                "int f(unsigned s) { return stable(s); }\n",
                {{"src/util/entropy_fixture.cpp",
                  "int stable(unsigned s) {\n"
                  "  std::mt19937 g(s);\n"
                  "  return (int)g();\n"
                  "}\n"}});
  EXPECT_EQ(count_rule(fl, "transitive-determinism"), 0);
}

TEST(TransitiveDeterminism, NonExemptSourceIsNotDoubleReported) {
  // rand() in src/attacks/ is flagged *at the source* by the direct rule;
  // callers do not repeat it.
  auto fl = run("src/attacks/x.cpp",
                "int f() { return noisy(); }\n",
                {{"src/attacks/noise_fixture.cpp",
                  "int noisy() { return rand(); }\n"}});
  EXPECT_EQ(count_rule(fl, "transitive-determinism"), 0);
}

TEST(TransitiveDeterminism, AllowDeterminismCoversTheTransitiveFamily) {
  auto fl = run("src/attacks/x.cpp",
                "int f() {\n"
                "  // conlint:allow(determinism): startup-only nonce\n"
                "  return jitter();\n"
                "}\n",
                {{"src/util/entropy_fixture.cpp",
                  "int jitter() { return rand(); }\n"}});
  EXPECT_EQ(count_rule(fl, "transitive-determinism"), 0);
  EXPECT_EQ(fl.suppressed.size(), 1u);
}

// ---- hot-path-alloc ---------------------------------------------------------

TEST(HotPathAlloc, FlagsAllocationsInsideRegion) {
  auto fl = run("src/attacks/x.cpp",
                "void f(std::vector<int>& v) {\n"
                "  // conlint:hotpath begin\n"
                "  for (int i = 0; i < 8; ++i) {\n"
                "    v.push_back(i);\n"
                "    Tensor t(shape);\n"
                "    auto* p = new float[4];\n"
                "    std::vector<float> tmp;\n"
                "    std::function<void()> cb;\n"
                "  }\n"
                "  // conlint:hotpath end\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "hot-path-alloc"), 5);
}

TEST(HotPathAlloc, FlagsMakeSharedAndMalloc) {
  auto fl = run("src/attacks/x.cpp",
                "void f() {\n"
                "  // conlint:hotpath begin\n"
                "  auto a = std::make_shared<int>(1);\n"
                "  auto b = std::make_unique<int>(2);\n"
                "  void* c = malloc(16);\n"
                "  // conlint:hotpath end\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "hot-path-alloc"), 3);
}

TEST(HotPathAlloc, OutsideRegionIsFine) {
  auto fl = run("src/attacks/x.cpp",
                "void f(std::vector<int>& v) {\n"
                "  v.push_back(1);\n"
                "  Tensor t(shape);\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "hot-path-alloc"), 0);
}

TEST(HotPathAlloc, TensorReferencesAreNotConstructions) {
  auto fl = run("src/attacks/x.cpp",
                "// conlint:hotpath begin\n"
                "void f(const Tensor& x, Tensor* out) {\n"
                "  const Tensor& y = x;\n"
                "}\n"
                "// conlint:hotpath end\n");
  EXPECT_EQ(count_rule(fl, "hot-path-alloc"), 0);
}

// One-time setup that persists across iterations is not a per-iteration
// allocation: thread_local scratch and static tables are the sanctioned
// way to keep capacity out of the hot loop.
TEST(HotPathAlloc, ThreadLocalAndStaticStorageAreExempt) {
  auto fl = run("src/attacks/x.cpp",
                "void f() {\n"
                "  // conlint:hotpath begin\n"
                "  thread_local std::vector<float> scratch;\n"
                "  static Tensor table(shape);\n"
                "  thread_local auto* arena = new float[1024];\n"
                "  // conlint:hotpath end\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "hot-path-alloc"), 0);
}

// ---- transitive-hot-path-alloc ----------------------------------------------

TEST(TransitiveHotPathAlloc, FlagsCallReachingAllocation) {
  auto fl = run("src/attacks/x.cpp",
                "void fill_buf(std::vector<int>& v) {\n"
                "  v.push_back(1);\n"
                "}\n"
                "void outer(std::vector<int>& v) {\n"
                "  // conlint:hotpath begin\n"
                "  fill_buf(v);\n"
                "  // conlint:hotpath end\n"
                "}\n");
  ASSERT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 1);
  EXPECT_EQ(fl.diagnostics[0].line, 6);
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "fill_buf"));
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "->"));
}

TEST(TransitiveHotPathAlloc, FollowsChainsAcrossFiles) {
  auto fl = run("src/attacks/x.cpp",
                "void outer() {\n"
                "  // conlint:hotpath begin\n"
                "  mid_step();\n"
                "  // conlint:hotpath end\n"
                "}\n",
                {{"src/core/mid_fixture.cpp",
                  "void mid_step() { leaf_alloc(); }\n"},
                 {"src/core/leaf_fixture.cpp",
                  "void leaf_alloc() { auto* p = new int; }\n"}});
  ASSERT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 1);
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "mid_step"));
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "leaf_alloc"));
}

TEST(TransitiveHotPathAlloc, AllocationFreeHelperIsClean) {
  auto fl = run("src/attacks/x.cpp",
                "int helper(int x) { return x + 1; }\n"
                "void outer() {\n"
                "  // conlint:hotpath begin\n"
                "  int y = helper(2);\n"
                "  // conlint:hotpath end\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 0);
}

TEST(TransitiveHotPathAlloc, AllowHotPathAllocCoversTheFamily) {
  // One annotation per site: allow(hot-path-alloc) also covers the
  // transitive finding at the same line.
  auto fl = run("src/attacks/x.cpp",
                "void fill_buf(std::vector<int>& v) { v.push_back(1); }\n"
                "void outer(std::vector<int>& v) {\n"
                "  // conlint:hotpath begin\n"
                "  // conlint:allow(hot-path-alloc): amortised, measured flat\n"
                "  fill_buf(v);\n"
                "  // conlint:hotpath end\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 0);
  EXPECT_EQ(fl.suppressed.size(), 1u);
  EXPECT_EQ(fl.used_allows.size(), 1u);
}

TEST(TransitiveHotPathAlloc, QualifiedCallResolvesByNamespaceSuffix) {
  // scalar::add must resolve to the kernels' scalar namespace, never to the
  // allocating tensor::add of the same spelled name.
  auto fl = run("src/tensor/kernels/k_fixture.cpp",
                "namespace scalar {\n"
                "void add(float* d, const float* s, int n) { d[0] = s[0]; }\n"
                "}\n"
                "void outer(float* d, const float* s, int n) {\n"
                "  // conlint:hotpath begin\n"
                "  scalar::add(d, s, n);\n"
                "  // conlint:hotpath end\n"
                "}\n",
                {{"src/tensor/ops_fixture.cpp",
                  "namespace con::tensor {\n"
                  "Tensor add(const Tensor& a, const Tensor& b) {\n"
                  "  return Tensor(a.shape());\n"
                  "}\n"
                  "}\n"}});
  EXPECT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 0);
}

TEST(TransitiveHotPathAlloc, NamespaceSuffixMatchStillChains) {
  // tensor::scale names the innermost segment of con::tensor: the chain
  // through the qualified call must still be followed.
  auto fl = run("src/attacks/x.cpp",
                "void outer() {\n"
                "  // conlint:hotpath begin\n"
                "  tensor::scale();\n"
                "  // conlint:hotpath end\n"
                "}\n",
                {{"src/tensor/ops_fixture.cpp",
                  "namespace con::tensor {\n"
                  "void scale() { auto* p = new float[4]; }\n"
                  "}\n"}});
  ASSERT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 1);
  EXPECT_TRUE(contains(fl.diagnostics[0].message, "scale"));
}

TEST(TransitiveHotPathAlloc, AllowAtTheSourceIsAPropagationBarrier) {
  // One allow(hot-path-alloc) on the allocation inside the helper covers
  // every hot-path caller — the walk stops at the annotated site.
  auto fl = run("src/attacks/x.cpp",
                "void outer() {\n"
                "  // conlint:hotpath begin\n"
                "  warm_table();\n"
                "  // conlint:hotpath end\n"
                "}\n",
                {{"src/core/table_fixture.cpp",
                  "void warm_table() {\n"
                  "  // conlint:allow(hot-path-alloc): one-shot table build\n"
                  "  auto* t = new int[64];\n"
                  "}\n"}});
  EXPECT_EQ(count_rule(fl, "transitive-hot-path-alloc"), 0);
}

TEST(TransitiveHotPathAlloc, BarrierAllowsAreRecordedAsUsed) {
  // A barrier kills the very finding that would mark it used, so the graph
  // tracks consumption itself; the CLI merges this set before the stale
  // pass.
  ProjectIndex idx;
  idx.add_file("src/core/table_fixture.cpp",
               "void warm_table() {\n"
               "  // conlint:allow(hot-path-alloc): one-shot table build\n"
               "  auto* t = new int[64];\n"
               "}\n");
  const std::string path = "src/attacks/x.cpp";
  const std::string source =
      "void outer() {\n"
      "  // conlint:hotpath begin\n"
      "  warm_table();\n"
      "  // conlint:hotpath end\n"
      "}\n";
  idx.add_file(path, source);
  CallGraph graph(idx);
  FileLint fl = conlint::lint_source(path, source, idx, graph);
  EXPECT_TRUE(fl.diagnostics.empty());
  const auto& barriers = graph.barrier_allows_used();
  auto it = barriers.find("src/core/table_fixture.cpp");
  ASSERT_NE(it, barriers.end());
  EXPECT_EQ(it->second.count({2, "hot-path-alloc"}), 1u);
}

// ---- lock-order -------------------------------------------------------------

TEST(LockOrder, OpposingAcquisitionOrdersFormACycle) {
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct Pair {\n"
        "  std::mutex a_;\n"
        "  std::mutex b_;\n"
        "  void fwd() {\n"
        "    std::lock_guard<std::mutex> g1(a_);\n"
        "    std::lock_guard<std::mutex> g2(b_);\n"
        "  }\n"
        "  void rev() {\n"
        "    std::lock_guard<std::mutex> g1(b_);\n"
        "    std::lock_guard<std::mutex> g2(a_);\n"
        "  }\n"
        "};\n"}});
  ASSERT_EQ(pl.diagnostics.size(), 1u);
  EXPECT_EQ(pl.diagnostics[0].rule, "lock-order");
  EXPECT_TRUE(contains(pl.diagnostics[0].message, "potential deadlock"));
  EXPECT_TRUE(contains(pl.diagnostics[0].message, "Pair::a_"));
  EXPECT_TRUE(contains(pl.diagnostics[0].message, "Pair::b_"));
}

TEST(LockOrder, InterproceduralAcquisitionClosesTheCycle) {
  // fwd holds a_ and calls lock_b() which takes b_; rev takes them in the
  // opposite order directly. The edge through the call must be seen.
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct Pair {\n"
        "  std::mutex a_;\n"
        "  std::mutex b_;\n"
        "  void lock_b() { std::lock_guard<std::mutex> g(b_); }\n"
        "  void fwd() {\n"
        "    std::lock_guard<std::mutex> g(a_);\n"
        "    lock_b();\n"
        "  }\n"
        "  void rev() {\n"
        "    std::lock_guard<std::mutex> g(b_);\n"
        "    std::lock_guard<std::mutex> h(a_);\n"
        "  }\n"
        "};\n"}});
  ASSERT_EQ(pl.diagnostics.size(), 1u);
  EXPECT_EQ(pl.diagnostics[0].rule, "lock-order");
}

TEST(LockOrder, ConsistentOrderIsClean) {
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct Pair {\n"
        "  std::mutex a_;\n"
        "  std::mutex b_;\n"
        "  void fwd() {\n"
        "    std::lock_guard<std::mutex> g1(a_);\n"
        "    std::lock_guard<std::mutex> g2(b_);\n"
        "  }\n"
        "  void also_fwd() {\n"
        "    std::lock_guard<std::mutex> g1(a_);\n"
        "    std::lock_guard<std::mutex> g2(b_);\n"
        "  }\n"
        "};\n"}});
  EXPECT_TRUE(pl.diagnostics.empty());
}

TEST(LockOrder, ScopedLockAcquiresAtomically) {
  // std::scoped_lock(a, b) deadlock-avoids internally; opposite argument
  // orders in two functions must NOT count as opposing acquisition orders.
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct Pair {\n"
        "  std::mutex a_;\n"
        "  std::mutex b_;\n"
        "  void fwd() { std::scoped_lock g(a_, b_); }\n"
        "  void rev() { std::scoped_lock g(b_, a_); }\n"
        "};\n"}});
  EXPECT_TRUE(pl.diagnostics.empty());
}

TEST(LockOrder, SelfDeadlockOnPlainMutexIsACycle) {
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct S {\n"
        "  std::mutex m_;\n"
        "  void f() {\n"
        "    std::lock_guard<std::mutex> g(m_);\n"
        "    std::lock_guard<std::mutex> h(m_);\n"
        "  }\n"
        "};\n"}});
  ASSERT_EQ(pl.diagnostics.size(), 1u);
  EXPECT_TRUE(contains(pl.diagnostics[0].message, "S::m_"));
}

TEST(LockOrder, RecursiveMutexMaySelfNest) {
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct S {\n"
        "  std::recursive_mutex m_;\n"
        "  void f() {\n"
        "    std::lock_guard<std::recursive_mutex> g(m_);\n"
        "    std::lock_guard<std::recursive_mutex> h(m_);\n"
        "  }\n"
        "};\n"}});
  EXPECT_TRUE(pl.diagnostics.empty());
}

TEST(LockOrder, MemberCallDoesNotResolveToTheCallerItself) {
  // p.get() inside Cache::get is a call on another object; resolving it
  // back to the locking get() itself would manufacture a self-deadlock.
  auto pl = run_project(
      {{"src/core/cache_fixture.cpp",
        "struct Cache {\n"
        "  std::mutex mu_;\n"
        "  const int* get(const Ptr& p) {\n"
        "    std::lock_guard<std::mutex> g(mu_);\n"
        "    return p.get();\n"
        "  }\n"
        "};\n"}});
  EXPECT_TRUE(pl.diagnostics.empty());
}

TEST(LockOrder, ReceiverTypedToAnUnindexedClassFormsNoEdge) {
  // w.transform.get() is shared_ptr::get — transform types to a class this
  // tree does not define, so the call must not resolve to the sibling
  // Cache::get and manufacture a self-deadlock on mu_.
  auto pl = run_project(
      {{"src/core/cache_fixture.cpp",
        "struct Param { std::shared_ptr<int> transform; };\n"
        "struct Cache {\n"
        "  std::mutex mu_;\n"
        "  int* get(const Param& p) {\n"
        "    std::lock_guard<std::mutex> g(mu_);\n"
        "    return p.transform.get();\n"
        "  }\n"
        "  int* get_int8(const Param& w) {\n"
        "    std::lock_guard<std::mutex> g(mu_);\n"
        "    return w.transform.get();\n"
        "  }\n"
        "};\n"}});
  EXPECT_TRUE(pl.diagnostics.empty());
}

TEST(LockOrder, ReceiverTypedThroughAKnownClassStillFindsTheCycle) {
  // inner_.poke() types to Inner: the om_ -> im_ edge through the member
  // call must survive receiver typing, closing the cycle with rev().
  auto pl = run_project(
      {{"src/core/nest_fixture.cpp",
        "struct Inner {\n"
        "  std::mutex im_;\n"
        "  void poke() { std::lock_guard<std::mutex> g(im_); }\n"
        "};\n"
        "struct Outer {\n"
        "  std::mutex om_;\n"
        "  Inner inner_;\n"
        "  void fwd() {\n"
        "    std::lock_guard<std::mutex> g(om_);\n"
        "    inner_.poke();\n"
        "  }\n"
        "  void rev() {\n"
        "    std::lock_guard<std::mutex> g(inner_.im_);\n"
        "    std::lock_guard<std::mutex> h(om_);\n"
        "  }\n"
        "};\n"}});
  ASSERT_EQ(pl.diagnostics.size(), 1u);
  EXPECT_TRUE(contains(pl.diagnostics[0].message, "Inner::im_"));
  EXPECT_TRUE(contains(pl.diagnostics[0].message, "Outer::om_"));
}

TEST(LockOrder, AllowAtTheAnchorSuppressesTheCycle) {
  auto pl = run_project(
      {{"src/core/locks_fixture.cpp",
        "struct Pair {\n"
        "  std::mutex a_;\n"
        "  std::mutex b_;\n"
        "  void fwd() {\n"
        "    std::lock_guard<std::mutex> g1(a_);\n"
        "    // conlint:allow(lock-order): fixture for suppression plumbing\n"
        "    std::lock_guard<std::mutex> g2(b_);\n"
        "  }\n"
        "  void rev() {\n"
        "    std::lock_guard<std::mutex> g1(b_);\n"
        "    std::lock_guard<std::mutex> g2(a_);\n"
        "  }\n"
        "};\n"}});
  EXPECT_TRUE(pl.diagnostics.empty());
  ASSERT_EQ(pl.suppressed.size(), 1u);
  EXPECT_EQ(pl.suppressed[0].rule, "lock-order");
  const auto& used = pl.used_allows["src/core/locks_fixture.cpp"];
  EXPECT_EQ(used.count({6, "lock-order"}), 1u);
}

// ---- atomic-discipline ------------------------------------------------------

TEST(AtomicDiscipline, FlagsRelaxedOutsideLockfreeAnnotation) {
  auto fl = run("src/core/x.cpp",
                "void bump(std::atomic<int>& c) {\n"
                "  c.fetch_add(1, std::memory_order_relaxed);\n"
                "}\n");
  ASSERT_EQ(count_rule(fl, "atomic-discipline"), 1);
  EXPECT_EQ(fl.diagnostics[0].line, 2);
}

TEST(AtomicDiscipline, LockfreeFunctionAnnotationPermitsRelaxed) {
  auto fl = run("src/core/x.cpp",
                "// conlint:lockfree(monotonic counter; readers tolerate "
                "staleness)\n"
                "void bump(std::atomic<int>& c) {\n"
                "  c.fetch_add(1, std::memory_order_relaxed);\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "atomic-discipline"), 0);
  EXPECT_EQ(count_rule(fl, "directive"), 0);
}

TEST(AtomicDiscipline, LockfreeClassAnnotationCoversAllMethods) {
  auto fl = run("src/obs/cell.h",
                "#pragma once\n"
                "// conlint:lockfree(single-writer cell; torn reads are "
                "tolerated by samplers)\n"
                "class Cell {\n"
                " public:\n"
                "  void add(long v) { v_.fetch_add(v, "
                "std::memory_order_relaxed); }\n"
                "  long read() const { return v_.load("
                "std::memory_order_relaxed); }\n"
                " private:\n"
                "  std::atomic<long> v_;\n"
                "};\n");
  EXPECT_EQ(count_rule(fl, "atomic-discipline"), 0);
}

TEST(AtomicDiscipline, ClassAnnotationCoversOutOfLineMethodsCrossFile) {
  auto fl = run("src/obs/cell.cpp",
                "void Cell::add(long v) {\n"
                "  v_.fetch_add(v, std::memory_order_relaxed);\n"
                "}\n",
                {{"src/obs/cell_fixture.h",
                  "#pragma once\n"
                  "// conlint:lockfree(single-writer cell; torn reads "
                  "tolerated)\n"
                  "class Cell {\n"
                  " public:\n"
                  "  void add(long v);\n"
                  "  std::atomic<long> v_;\n"
                  "};\n"}});
  EXPECT_EQ(count_rule(fl, "atomic-discipline"), 0);
}

TEST(AtomicDiscipline, RelaxedOutsideAnyFunctionIsStillFlagged) {
  auto fl = run("src/core/x.cpp",
                "std::atomic<int> g{0};\n"
                "static int snapshot = g.load(std::memory_order_relaxed);\n");
  ASSERT_EQ(count_rule(fl, "atomic-discipline"), 1);
  EXPECT_EQ(fl.diagnostics[0].line, 2);
}

TEST(AtomicDiscipline, SequentiallyConsistentOpsNeedNoAnnotation) {
  auto fl = run("src/core/x.cpp",
                "void bump(std::atomic<int>& c) {\n"
                "  c.fetch_add(1);\n"
                "  c.store(2, std::memory_order_release);\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "atomic-discipline"), 0);
}

// ---- lockfree directive machinery -------------------------------------------

TEST(LockfreeDirective, RequiresAReason) {
  auto fl = run("src/core/x.cpp",
                "// conlint:lockfree()\n"
                "class C { };\n");
  EXPECT_EQ(count_rule(fl, "directive"), 1);
}

TEST(LockfreeDirective, UnattachedAnnotationIsAnError) {
  auto fl = run("src/core/x.cpp",
                "int x = 0;\n"
                "// conlint:lockfree(floats in a vacuum)\n"
                "int y = 0;\n");
  EXPECT_EQ(count_rule(fl, "directive"), 1);
}

// ---- include-hygiene --------------------------------------------------------

TEST(IncludeHygiene, FlagsUsingNamespaceInHeader) {
  auto fl = run("src/nn/x.h",
                "#pragma once\n"
                "using namespace std;\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 1);
}

TEST(IncludeHygiene, FlagsMissingPragmaOnce) {
  auto fl = run("src/nn/x.h", "int f();\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 1);
}

TEST(IncludeHygiene, CppFilesMayUseUsingNamespace) {
  auto fl = run("src/nn/x.cpp", "using namespace con;\nint f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 0);
}

TEST(IncludeHygiene, FlagsIntrinsicsHeaderOutsideKernelsTree) {
  auto fl = run("src/tensor/ops.cpp",
                "#include <immintrin.h>\n"
                "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 1);
  auto fl2 = run("src/attacks/fgsm.cpp",
                 "#include <arm_neon.h>\n"
                 "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl2, "include-hygiene"), 1);
}

TEST(IncludeHygiene, AllowsIntrinsicsHeadersInsideKernelsTree) {
  auto fl = run("src/tensor/kernels/kernel_avx2.cpp",
                "#include <immintrin.h>\n"
                "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 0);
  auto fl2 = run("src/tensor/kernels/kernel_neon.cpp",
                 "#include <arm_neon.h>\n"
                 "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl2, "include-hygiene"), 0);
}

TEST(IncludeHygiene, IntrinsicsRuleCoversHeadersToo) {
  auto fl = run("src/nn/fast_math.h",
                "#pragma once\n"
                "#include <emmintrin.h>\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 1);
}

TEST(IncludeHygiene, Int8GemmDriverStaysIntrinsicsFree) {
  // The int8 GEMM driver (gemm_int8.cpp) reaches SIMD only through the
  // kernel table; a direct intrinsics include there would execute without
  // the per-TU ISA flags and bypass the runtime dispatch contract.
  auto fl = run("src/tensor/gemm_int8.cpp",
                "#include <immintrin.h>\n"
                "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 1);
  auto fl2 = run("src/tensor/gemm_int8.h",
                 "#pragma once\n"
                 "#include <arm_neon.h>\n");
  EXPECT_EQ(count_rule(fl2, "include-hygiene"), 1);
}

TEST(IncludeHygiene, ContainmentIsTheKernelsDirectoryNotAFileList) {
  // New kernel TUs (e.g. a split-out int8 micro-kernel file) inherit the
  // exemption from the directory prefix — no lint change needed to add
  // one.
  auto fl = run("src/tensor/kernels/kernel_avx2_int8.cpp",
                "#include <immintrin.h>\n"
                "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl, "include-hygiene"), 0);
  auto fl2 = run("src/tensor/kernels/kernel_neon_int8.cpp",
                 "#include <arm_neon.h>\n"
                 "int f() { return 1; }\n");
  EXPECT_EQ(count_rule(fl2, "include-hygiene"), 0);
}

// ---- suppression machinery --------------------------------------------------

TEST(Suppression, AllowWithReasonSuppressesSameAndNextLine) {
  auto fl = run("src/compress/x.cpp",
                "void a(nn::Parameter& p) {\n"
                "  p.transform.reset();  // conlint:allow(param-version): "
                "caller bumps after the batch of edits\n"
                "}\n"
                "void b(nn::Parameter& p) {\n"
                "  // conlint:allow(param-version): caller bumps\n"
                "  p.mask = Tensor();\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 0);
  EXPECT_EQ(fl.suppressed.size(), 2u);
  EXPECT_EQ(fl.used_allows.size(), 2u);
}

TEST(Suppression, AllowWithoutReasonIsADirectiveError) {
  auto fl = run("src/compress/x.cpp",
                "void a(nn::Parameter& p) {\n"
                "  p.transform.reset();  // conlint:allow(param-version)\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "directive"), 1);
  // And the underlying finding is NOT suppressed.
  EXPECT_EQ(count_rule(fl, "param-version"), 1);
}

TEST(Suppression, AllowForWrongRuleDoesNotSuppress) {
  auto fl = run("src/compress/x.cpp",
                "void a(nn::Parameter& p) {\n"
                "  p.transform.reset();  // conlint:allow(determinism): wrong\n"
                "}\n");
  EXPECT_EQ(count_rule(fl, "param-version"), 1);
}

TEST(Suppression, UnknownRuleNameIsADirectiveError) {
  auto fl = run("src/x.cpp",
                "int a;  // conlint:allow(no-such-rule): why not\n");
  EXPECT_EQ(count_rule(fl, "directive"), 1);
}

// ---- stale-suppression ------------------------------------------------------

TEST(StaleSuppression, AllowSuppressingNothingIsReported) {
  const std::string path = "src/core/x.cpp";
  const std::string source =
      "// conlint:allow(determinism): left over from a removed rand()\n"
      "int f() { return 1; }\n";
  ProjectIndex idx;
  idx.add_file(path, source);
  CallGraph graph(idx);
  FileLint fl = conlint::lint_source(path, source, idx, graph);
  EXPECT_TRUE(fl.diagnostics.empty());

  std::map<std::string, conlint::UsedAllows> used;
  used[path] = fl.used_allows;
  auto stale = conlint::stale_suppressions(idx, {path}, used);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0].rule, "stale-suppression");
  EXPECT_EQ(stale[0].line, 1);
  EXPECT_TRUE(contains(stale[0].message, "suppresses no finding"));
}

TEST(StaleSuppression, ActiveAllowIsNotReported) {
  const std::string path = "src/compress/x.cpp";
  const std::string source =
      "void a(nn::Parameter& p) {\n"
      "  // conlint:allow(param-version): caller bumps\n"
      "  p.mask = Tensor();\n"
      "}\n";
  ProjectIndex idx;
  idx.add_file(path, source);
  CallGraph graph(idx);
  FileLint fl = conlint::lint_source(path, source, idx, graph);
  EXPECT_EQ(fl.suppressed.size(), 1u);

  std::map<std::string, conlint::UsedAllows> used;
  used[path] = fl.used_allows;
  auto stale = conlint::stale_suppressions(idx, {path}, used);
  EXPECT_TRUE(stale.empty());
}

// ---- project index & call graph ---------------------------------------------

TEST(ProjectIndexTest, DerivedFromIsTransitiveAndCrossFile) {
  ProjectIndex idx;
  idx.add_file("src/nn/a_fixture.h",
               "#pragma once\n"
               "class Layer { };\nclass A : public Layer { };\n");
  idx.add_file("src/nn/b_fixture.h",
               "#pragma once\n"
               "class B : public A { };\nclass C : public Other { };\n");
  auto derived = idx.derived_from("Layer");
  EXPECT_TRUE(derived.count("Layer"));
  EXPECT_TRUE(derived.count("A"));
  EXPECT_TRUE(derived.count("B"));
  EXPECT_FALSE(derived.count("C"));
}

TEST(ProjectIndexTest, RecordsQualifiedAndNestedTemplateArgCalls) {
  ProjectIndex idx;
  idx.add_file("src/core/x.cpp",
               "void f() {\n"
               "  util::helper(std::map<int, std::vector<int>>{});\n"
               "  plain(1);\n"
               "  obj.method(2);\n"
               "}\n");
  const auto* ids = idx.functions_named("f");
  ASSERT_NE(ids, nullptr);
  ASSERT_EQ(ids->size(), 1u);
  const conlint::FunctionDef& fn = idx.functions()[(*ids)[0]];
  bool saw_qualified = false;
  bool saw_plain = false;
  bool saw_member = false;
  for (const conlint::CallSite& c : fn.calls) {
    if (c.name == "helper" && contains(c.qualifier, "util")) {
      saw_qualified = true;
    }
    if (c.name == "plain" && c.qualifier.empty() && !c.member) {
      saw_plain = true;
    }
    if (c.name == "method" && c.member) saw_member = true;
    // Template arguments must not be mistaken for call names.
    EXPECT_NE(c.name, "map");
    EXPECT_NE(c.name, "vector");
  }
  EXPECT_TRUE(saw_qualified);
  EXPECT_TRUE(saw_plain);
  EXPECT_TRUE(saw_member);
}

TEST(ProjectIndexTest, DeclarationsAreNotCalls) {
  ProjectIndex idx;
  idx.add_file("src/core/x.cpp",
               "void f() {\n"
               "  Widget w(1);\n"
               "  return helper(w);\n"
               "}\n"
               "int helper(Widget& w);\n");
  const auto* ids = idx.functions_named("f");
  ASSERT_NE(ids, nullptr);
  const conlint::FunctionDef& fn = idx.functions()[(*ids)[0]];
  bool saw_helper = false;
  for (const conlint::CallSite& c : fn.calls) {
    EXPECT_NE(c.name, "w");  // `Widget w(1)` is a declaration
    if (c.name == "helper") saw_helper = true;  // `return helper(w)` is a call
  }
  EXPECT_TRUE(saw_helper);
}

// ---- deterministic file walk (satellite: byte-identical --json) -------------

TEST(CollectLintableFiles, WalkIsSortedAndExtensionFiltered) {
  namespace fs = std::filesystem;
  const fs::path root =
      fs::temp_directory_path() / "conlint_walk_fixture";
  fs::remove_all(root);
  fs::create_directories(root / "src" / "zz");
  fs::create_directories(root / "tests");
  std::ofstream(root / "src" / "b.cpp") << "int b;\n";
  std::ofstream(root / "src" / "a.h") << "#pragma once\n";
  std::ofstream(root / "src" / "zz" / "c.cc") << "int c;\n";
  std::ofstream(root / "src" / "notes.md") << "not lintable\n";
  std::ofstream(root / "tests" / "t.hpp") << "#pragma once\n";

  const auto files = conlint::collect_lintable_files(root);
  std::vector<std::string> got;
  for (const auto& p : files) got.push_back(p.generic_string());

  ASSERT_EQ(got.size(), 4u);
  std::vector<std::string> sorted = got;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(got, sorted);
  for (const std::string& g : got) {
    EXPECT_FALSE(contains(g, "notes.md"));
  }
  fs::remove_all(root);
}

}  // namespace
