#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace con::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NamedStreamsAreIndependent) {
  Rng a(7, "stream-a"), b(7, "stream-b"), a2(7, "stream-a");
  EXPECT_NE(a.next_u64(), b.next_u64());
  Rng a3(7, "stream-a");
  EXPECT_EQ(a3.next_u64(), a2.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatelyHalf) {
  Rng rng(4);
  double acc = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BernoulliProbability) {
  Rng rng(8);
  int hits = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> counts(100);
  parallel_for(0, 100, [&](std::size_t i) { counts[i]++; });
  for (auto& c : counts) EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 20; ++i) pool.submit([&] { done++; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 20);
}

TEST(Cli, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--flag",
                        "--no-color", "pos1"};
  CliFlags flags(7, argv);
  EXPECT_EQ(flags.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(flags.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(flags.get_bool("flag", false));
  EXPECT_FALSE(flags.get_bool("color", true));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "pos1");
  EXPECT_NO_THROW(flags.check_unused());
}

TEST(Cli, FallbacksWhenMissing) {
  const char* argv[] = {"prog"};
  CliFlags flags(1, argv);
  EXPECT_EQ(flags.get_string("name", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("n", 9), 9);
}

TEST(Cli, UnusedFlagDetected) {
  const char* argv[] = {"prog", "--typo=1"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.check_unused(), std::invalid_argument);
}

TEST(Cli, BadBooleanThrows) {
  const char* argv[] = {"prog", "--b=maybe"};
  CliFlags flags(2, argv);
  EXPECT_THROW(flags.get_bool("b", false), std::invalid_argument);
}

// Whether `lookup` throws a std::invalid_argument whose message names
// `flag`.
template <typename F>
::testing::AssertionResult rejects_naming(const char* flag, F&& lookup) {
  try {
    lookup();
  } catch (const std::invalid_argument& e) {
    if (std::string(e.what()).find(flag) != std::string::npos) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << "'" << e.what()
                                         << "' does not name " << flag;
  }
  return ::testing::AssertionFailure() << "no std::invalid_argument";
}

TEST(Cli, BadNumberNamesTheFlag) {
  const char* argv[] = {"prog", "--seed=abc", "--eps=1e999", "--train-size",
                        "60x", "--densities", "1.0,0.5y", "--bitwidths", "8,x",
                        "--attack-size", "", "--grid=abc"};
  CliFlags flags(12, argv);
  EXPECT_TRUE(rejects_naming("--seed", [&] { flags.get_int("seed", 0); }));
  EXPECT_TRUE(rejects_naming("--eps", [&] { flags.get_double("eps", 0.0); }));
  // Trailing junk and empty values are rejected, not silently dropped.
  EXPECT_TRUE(rejects_naming("--train-size",
                             [&] { flags.get_int("train-size", 0); }));
  EXPECT_TRUE(rejects_naming("--densities",
                             [&] { flags.get_list<double>("densities", {}); }));
  EXPECT_TRUE(rejects_naming("--bitwidths",
                             [&] { flags.get_list<int>("bitwidths", {}); }));
  EXPECT_TRUE(rejects_naming("--attack-size",
                             [&] { flags.get_int("attack-size", 0); }));
  EXPECT_TRUE(rejects_naming("--grid",
                             [&] { flags.get_list<double>("grid", {}); }));
}

TEST(Cli, ListsParseEveryElement) {
  const char* argv[] = {"prog", "--densities", "1.0,0.5", "--bits=4,8",
                        "--attacks", "ifgsm,deepfool"};
  CliFlags flags(6, argv);
  EXPECT_EQ(flags.get_list<double>("densities", {}),
            (std::vector<double>{1.0, 0.5}));
  EXPECT_EQ(flags.get_list<int>("bits", {}), (std::vector<int>{4, 8}));
  EXPECT_EQ(flags.get_list<std::string>("attacks", {}),
            (std::vector<std::string>{"ifgsm", "deepfool"}));
  EXPECT_EQ(flags.get_list<int>("absent", {16, 32}),
            (std::vector<int>{16, 32}));
  EXPECT_NO_THROW(flags.check_unused());
}

// `--trace --manifest` gives --trace no value: a path lookup must fail
// naming it rather than read "true" (or the next flag) as the path.
TEST(Cli, BareValueFlagNamesTheFlag) {
  const char* argv[] = {"prog", "--trace", "--manifest"};
  CliFlags flags(3, argv);
  EXPECT_TRUE(flags.get_bool("manifest", false));
  EXPECT_TRUE(rejects_naming("--trace",
                             [&] { flags.get_string("trace", ""); }));
}

TEST(Cli, ErrorsNameTheFlagAsTyped) {
  const char* argv[] = {"prog", "--no-metrics"};
  CliFlags flags(2, argv);
  EXPECT_TRUE(rejects_naming("unknown flag --no-metrics",
                             [&] { flags.check_unused(); }));
}

TEST(TableTest, AlignedRender) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TableTest, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableTest, CsvFormat) {
  Table t({"a", "b"});
  t.add_row_values({1.0, 2.5}, 1);
  EXPECT_EQ(t.to_csv(), "a,b\n1.0,2.5\n");
}

TEST(TableTest, WriteCsvCreatesFile) {
  Table t({"x"});
  t.add_row({"1"});
  const std::string path = "/tmp/con_table_test.csv";
  t.write_csv(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove(path);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 3), "-0.500");
}

}  // namespace
}  // namespace con::util
