// Tests for pm::common: pool registry, money, RNG, thread pool, tables,
// charts, check macros.
#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdint>
#include <cmath>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "common/ascii_chart.h"
#include "common/bench_meta.h"
#include "common/check.h"
#include "common/money.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "common/types.h"

namespace pm {
namespace {

// ---------------------------------------------------------------- check --

TEST(CheckTest, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(PM_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingConditionThrowsCheckFailure) {
  EXPECT_THROW(PM_CHECK(false), CheckFailure);
}

TEST(CheckTest, MessageIsIncluded) {
  try {
    PM_CHECK_MSG(false, "index " << 42 << " bad");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("index 42 bad"),
              std::string::npos);
  }
}

// ------------------------------------------------------- resource kinds --

TEST(ResourceKindTest, RoundTripsThroughStrings) {
  for (ResourceKind kind : kAllResourceKinds) {
    const auto parsed = ParseResourceKind(ToString(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
}

TEST(ResourceKindTest, RejectsUnknownNames) {
  EXPECT_FALSE(ParseResourceKind("gpu").has_value());
  EXPECT_FALSE(ParseResourceKind("CPU").has_value());
  EXPECT_FALSE(ParseResourceKind("").has_value());
}

TEST(ResourceKindTest, UnitsAreDistinct) {
  std::set<std::string_view> units;
  for (ResourceKind kind : kAllResourceKinds) units.insert(UnitOf(kind));
  EXPECT_EQ(units.size(), 3u);
}

// ----------------------------------------------------------- pool registry --

TEST(PoolRegistryTest, InternAssignsDenseIds) {
  PoolRegistry reg;
  const PoolId a = reg.Intern("c1", ResourceKind::kCpu);
  const PoolId b = reg.Intern("c1", ResourceKind::kRam);
  const PoolId c = reg.Intern("c2", ResourceKind::kCpu);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(reg.size(), 3u);
}

TEST(PoolRegistryTest, InternIsIdempotent) {
  PoolRegistry reg;
  const PoolId a = reg.Intern("c1", ResourceKind::kCpu);
  const PoolId again = reg.Intern("c1", ResourceKind::kCpu);
  EXPECT_EQ(a, again);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(PoolRegistryTest, FindDistinguishesKinds) {
  PoolRegistry reg;
  reg.Intern("c1", ResourceKind::kCpu);
  EXPECT_TRUE(reg.Find(PoolKey{"c1", ResourceKind::kCpu}).has_value());
  EXPECT_FALSE(reg.Find(PoolKey{"c1", ResourceKind::kRam}).has_value());
  EXPECT_FALSE(reg.Find(PoolKey{"c2", ResourceKind::kCpu}).has_value());
}

TEST(PoolRegistryTest, KeyOfReturnsInternedKey) {
  PoolRegistry reg;
  const PoolId id = reg.Intern("cluster-7", ResourceKind::kDisk);
  EXPECT_EQ(reg.KeyOf(id).cluster, "cluster-7");
  EXPECT_EQ(reg.KeyOf(id).kind, ResourceKind::kDisk);
  EXPECT_EQ(reg.NameOf(id), "disk@cluster-7");
}

TEST(PoolRegistryTest, KeyOfOutOfRangeThrows) {
  PoolRegistry reg;
  EXPECT_THROW(reg.KeyOf(0), CheckFailure);
}

TEST(PoolRegistryTest, ClusterTableAndPoolsOfKind) {
  PoolRegistry reg;
  for (const char* cl : {"a", "b"}) {
    for (ResourceKind kind : kAllResourceKinds) reg.Intern(cl, kind);
  }
  EXPECT_EQ(reg.PoolsOfKind(ResourceKind::kCpu).size(), 2u);
  EXPECT_EQ(reg.Clusters(), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(reg.FindCluster("b"), std::optional<std::size_t>{1});
  EXPECT_FALSE(reg.FindCluster("c").has_value());
  EXPECT_EQ(reg.PoolOf(0, ResourceKind::kDisk), 2u);
  EXPECT_EQ(reg.PoolOf(1, ResourceKind::kCpu), 3u);
}

TEST(PoolRegistryTest, ClusterTableMarksKindsNeverInterned) {
  PoolRegistry reg;
  reg.Intern("b", ResourceKind::kRam);
  reg.Intern("a", ResourceKind::kCpu);
  reg.Intern("b", ResourceKind::kCpu);
  // Clusters keep first-intern order, not name order.
  EXPECT_EQ(reg.Clusters(), (std::vector<std::string>{"b", "a"}));
  EXPECT_EQ(reg.PoolOf(0, ResourceKind::kRam), 0u);
  EXPECT_EQ(reg.PoolOf(0, ResourceKind::kCpu), 2u);
  EXPECT_EQ(reg.PoolOf(0, ResourceKind::kDisk), kInvalidPool);
  EXPECT_EQ(reg.PoolOf(1, ResourceKind::kCpu), 1u);
  EXPECT_EQ(reg.PoolOf(1, ResourceKind::kRam), kInvalidPool);
  EXPECT_FALSE(reg.Find(PoolKey{"a", ResourceKind::kRam}).has_value());
  EXPECT_THROW(reg.Intern("a", static_cast<ResourceKind>(7)), CheckFailure);
  EXPECT_EQ(reg.size(), 3u);
}

// ------------------------------------------------------------------ money --

TEST(MoneyTest, DefaultIsZero) {
  EXPECT_TRUE(Money().IsZero());
  EXPECT_EQ(Money().micros(), 0);
}

TEST(MoneyTest, FromDollarsExact) {
  EXPECT_EQ(Money::FromDollars(3).micros(), 3'000'000);
  EXPECT_EQ(Money::FromDollars(-2).micros(), -2'000'000);
}

TEST(MoneyTest, RoundingHalfAwayFromZero) {
  EXPECT_EQ(Money::FromDollarsRounded(0.0000005).micros(), 1);
  EXPECT_EQ(Money::FromDollarsRounded(-0.0000005).micros(), -1);
  EXPECT_EQ(Money::FromDollarsRounded(1.25).micros(), 1'250'000);
}

TEST(MoneyTest, NonFiniteConversionThrows) {
  EXPECT_THROW(Money::FromDollarsRounded(
                   std::numeric_limits<double>::quiet_NaN()),
               CheckFailure);
  EXPECT_THROW(Money::FromDollarsRounded(
                   std::numeric_limits<double>::infinity()),
               CheckFailure);
}

TEST(MoneyTest, ArithmeticIsExact) {
  Money m = Money::FromDollars(1);
  for (int i = 0; i < 1000; ++i) m += Money::FromMicros(1);
  EXPECT_EQ(m.micros(), 1'001'000);
  m -= Money::FromMicros(1000);
  EXPECT_EQ(m, Money::FromDollars(1));
}

TEST(MoneyTest, ComparisonAndNegation) {
  EXPECT_LT(Money::FromDollars(1), Money::FromDollars(2));
  EXPECT_EQ(-Money::FromDollars(5), Money::FromDollars(-5));
  EXPECT_TRUE(Money::FromDollars(-1).IsNegative());
}

TEST(MoneyTest, ToStringFormats) {
  EXPECT_EQ(Money::FromDollars(12).ToString(), "$12.000000");
  EXPECT_EQ(Money::FromMicros(-500000).ToString(), "-$0.500000");
}

TEST(MoneyTest, IntegerScaling) {
  EXPECT_EQ(Money::FromDollars(3) * 4, Money::FromDollars(12));
  EXPECT_EQ(2 * Money::FromMicros(5), Money::FromMicros(10));
}

// -------------------------------------------------------------------- rng --

TEST(RngTest, DeterministicAcrossInstances) {
  RandomStream a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextRaw(), b.NextRaw());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  RandomStream a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextRaw() == b.NextRaw()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  RandomStream rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  RandomStream rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-3.0, 7.5);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 7.5);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  RandomStream rng(11);
  std::array<int, 6> counts{};
  for (int i = 0; i < 60000; ++i) {
    const auto v = rng.UniformInt(0, 5);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 5);
    ++counts[static_cast<std::size_t>(v)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);  // ~4.5 sigma.
  }
}

TEST(RngTest, UniformIntBadRangeThrows) {
  RandomStream rng(1);
  EXPECT_THROW(rng.UniformInt(3, 2), CheckFailure);
}

TEST(RngTest, ExponentialMeanMatches) {
  RandomStream rng(33);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ParetoRespectsScale) {
  RandomStream rng(44);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(3.0, 2.0), 3.0);
  }
}

TEST(RngTest, BernoulliProbabilities) {
  RandomStream rng(55);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
  EXPECT_FALSE(RandomStream(1).Bernoulli(0.0));
  EXPECT_TRUE(RandomStream(1).Bernoulli(1.0));
}

TEST(RngTest, PickWeightedFollowsWeights) {
  RandomStream rng(66);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 40000; ++i) {
    ++counts[rng.PickWeighted(weights)];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.2);
}

TEST(RngTest, PickWeightedRejectsAllZero) {
  RandomStream rng(1);
  std::vector<double> weights = {0.0, 0.0};
  EXPECT_THROW(rng.PickWeighted(weights), CheckFailure);
}

TEST(RngTest, ShuffleIsPermutation) {
  RandomStream rng(77);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// -------------------------------------------------------------- threadpool --

TEST(ThreadPoolTest, MinimumOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, RejectsMoreThanMaxThreads) {
  EXPECT_THROW(ThreadPool(kMaxThreads + 1), CheckFailure);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(&pool, 0, touched.size(),
              [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ParallelForTest, WorksWithoutPool) {
  int sum = 0;
  ParallelFor(nullptr, 3, 7, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 3 + 4 + 5 + 6);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(ParallelFor(&pool, 0, 100,
                           [](std::size_t i) {
                             if (i == 31) throw std::runtime_error("x");
                           }),
               std::runtime_error);
}

TEST(ThreadPoolTest, PostRunsFireAndForget) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::promise<void> all_done;
  for (int i = 0; i < 64; ++i) {
    pool.Post([&counter, &all_done] {
      if (++counter == 64) all_done.set_value();
    });
  }
  all_done.get_future().wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(ParallelForTest, ManyChunksCoverLargeRangeExactlyOnce) {
  // A range far larger than the chunk size exercises the atomic-counter
  // dispatch across many claim cycles (and the caller-participation
  // path).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(100000);
  ParallelFor(&pool, 0, touched.size(),
              [&](std::size_t i) { ++touched[i]; });
  for (const auto& t : touched) ASSERT_EQ(t.load(), 1);
}

TEST(ParallelForTest, ExceptionDoesNotAbortOtherChunks) {
  // An exception abandons the remainder of its own chunk only; every
  // other chunk still runs before the rethrow reaches the caller.
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  bool threw = false;
  try {
    ParallelFor(&pool, 0, 10000, [&](std::size_t i) {
      if (i == 0) throw std::runtime_error("first");
      ++visited;
    });
  } catch (const std::runtime_error&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // Chunk 0 lost at most its own tail; all other chunks completed.
  const std::size_t chunk_upper_bound = 10000 / 4;  // Conservative.
  EXPECT_GE(static_cast<std::size_t>(visited.load()),
            10000 - chunk_upper_bound);
}

TEST(ParallelForTest, RethrowsWithSingleIterationRange) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(&pool, 7, 8,
                  [](std::size_t) { throw std::runtime_error("solo"); }),
      std::runtime_error);
}

TEST(ParallelForTest, EmptyRangeWithReversedBoundsIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  ParallelFor(&pool, 9, 4, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

// ------------------------------------------------------------ threads flag --

struct ThreadsFlagResult {
  unsigned threads = 0;
  std::vector<std::string> rest;  // argv[1..argc) after the strip.
};

/// Runs ParseThreadsFlag (fallback 7) over `args` behind a program name.
ThreadsFlagResult ParseThreads(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  int argc = static_cast<int>(argv.size());
  ThreadsFlagResult result;
  result.threads = ParseThreadsFlag(&argc, argv.data(), 7);
  result.rest.assign(argv.begin() + 1, argv.begin() + argc);
  return result;
}

TEST(ParseThreadsFlagTest, AcceptsDecimalCounts) {
  const struct {
    std::vector<std::string> args;
    unsigned threads;
    std::vector<std::string> rest;
  } cases[] = {
      {{}, 7, {}},
      {{"pos"}, 7, {"pos"}},
      {{"--threads", "4"}, 4, {}},
      {{"--threads=0"}, 0, {}},
      {{"a", "--threads", "16", "b"}, 16, {"a", "b"}},
      {{"--threads=2", "--threads", "3"}, 3, {}},
      {{"--threads", "4294967295"}, UINT_MAX, {}},
  };
  for (const auto& c : cases) {
    const ThreadsFlagResult got = ParseThreads(c.args);
    EXPECT_EQ(got.threads, c.threads) << testing::PrintToString(c.args);
    EXPECT_EQ(got.rest, c.rest) << testing::PrintToString(c.args);
  }
}

TEST(ParseThreadsFlagTest, RejectsMalformedValues) {
  const std::vector<std::vector<std::string>> cases = {
      {"--threads"},                          // Missing value.
      {"pos", "--threads"},                   // Missing value, trailing.
      {"--threads", "abc"},                   // Non-numeric.
      {"--threads", "4x"},                    // Trailing characters.
      {"--threads", " 4"},                    // Leading space.
      {"--threads", "-1"},                    // Negative.
      {"--threads=-2"},                       // Negative, joined form.
      {"--threads="},                         // Empty, joined form.
      {"--threads", "4294967296"},            // One past UINT_MAX.
      {"--threads", "99999999999999999999"},  // Far past any width.
  };
  for (const auto& args : cases) {
    EXPECT_THROW(ParseThreads(args), CheckFailure)
        << testing::PrintToString(args);
  }
}

TEST(ParseNumberArgTest, AcceptsWholeDecimalValuesAtOrAboveTheFloor) {
  EXPECT_EQ(ParseNumberArg("--epochs", "8", 1), 8);
  EXPECT_EQ(ParseNumberArg("--epochs", "1", 1), 1);
  EXPECT_EQ(ParseNumberArg<int>("delay", "-3"), -3);
  EXPECT_EQ(ParseNumberArg("--bidders", "1000000", 1LL), 1000000LL);
  EXPECT_EQ(ParseNumberArg<std::uint64_t>("--seed", "18446744073709551615"),
            UINT64_MAX);
  EXPECT_EQ(ParseNumberArg<std::uint64_t>("--seed", "0"), 0u);
  EXPECT_DOUBLE_EQ(ParseNumberArg("drop", "0.1", 0.0), 0.1);
  EXPECT_DOUBLE_EQ(ParseNumberArg("drop", "0", 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ParseNumberArg<double>("x", "-2.5e1"), -25.0);
}

TEST(ParseNumberArgTest, RejectsMalformedValuesAndNamesTheFlag) {
  const auto rejects = [](auto parse, std::string_view flag) {
    try {
      parse();
    } catch (const CheckFailure& e) {
      EXPECT_NE(std::string_view(e.what()).find(flag), std::string_view::npos)
          << e.what();
      return;
    }
    ADD_FAILURE() << flag << " accepted a malformed value";
  };
  // Non-numeric, empty, leading space, trailing characters.
  rejects([] { ParseNumberArg("--epochs", "abc", 1); }, "--epochs");
  rejects([] { ParseNumberArg("--epochs", "", 1); }, "--epochs");
  rejects([] { ParseNumberArg("--epochs", " 3", 1); }, "--epochs");
  rejects([] { ParseNumberArg("--epochs", "3x", 1); }, "--epochs");
  rejects([] { ParseNumberArg("--epochs", "+3", 1); }, "--epochs");
  rejects([] { ParseNumberArg<std::uint64_t>("--seed", "xyz"); }, "--seed");
  rejects([] { ParseNumberArg("drop", "0.1.2", 0.0); }, "drop");
  // Below the floor: a negative count, and a zero where one is the least.
  rejects([] { ParseNumberArg("--epochs", "-1", 1); }, "--epochs");
  rejects([] { ParseNumberArg("--epochs", "0", 1); }, "--epochs");
  rejects([] { ParseNumberArg("teams_per_shard", "3", 4); },
          "teams_per_shard");
  rejects([] { ParseNumberArg<std::uint64_t>("--seed", "-1"); }, "--seed");
  rejects([] { ParseNumberArg("drop", "-0.5", 0.0); }, "drop");
  // Overflow and non-finite values.
  rejects([] { ParseNumberArg("--epochs", "2147483648", 1); }, "--epochs");
  rejects(
      [] { ParseNumberArg<std::uint64_t>("--seed", "18446744073709551616"); },
      "--seed");
  rejects([] { ParseNumberArg("drop", "1e999", 0.0); }, "drop");
  rejects([] { ParseNumberArg("drop", "inf", 0.0); }, "drop");
  rejects([] { ParseNumberArg("drop", "nan", 0.0); }, "drop");
}

// ------------------------------------------------------------------ tables --

TEST(TextTableTest, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "22"});
  const std::string out = t.Render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(out.find("| b     |    22 |"), std::string::npos);
}

TEST(TextTableTest, RowArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), CheckFailure);
}

TEST(TextTableTest, RuleSeparatesSections) {
  TextTable t({"x"});
  t.AddRow({"1"});
  t.AddRule();
  t.AddRow({"2"});
  const std::string out = t.Render();
  // Header rule + top + bottom + explicit = 4 rules.
  std::size_t rules = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++rules;
    pos += 3;
  }
  EXPECT_EQ(rules, 4u);
}

TEST(FormatTest, FormatsNumbers) {
  EXPECT_EQ(FormatF(3.14159, 2), "3.14");
  EXPECT_EQ(FormatPct(0.618, 1), "61.8%");
}

TEST(CsvWriterTest, EscapesSpecialCharacters) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.WriteRow({"plain", "with,comma", "with\"quote"});
  EXPECT_EQ(os.str(), "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// ------------------------------------------------------------------ charts --

TEST(AsciiChartTest, LineChartContainsGlyphsAndLegend) {
  ChartSeries s;
  s.label = "phi";
  s.glyph = '*';
  for (int i = 0; i <= 10; ++i) {
    s.xs.push_back(i);
    s.ys.push_back(i * i);
  }
  ChartOptions opt;
  opt.title = "test-chart";
  const std::string out = RenderLineChart({s}, opt);
  EXPECT_NE(out.find("test-chart"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
  EXPECT_NE(out.find("phi"), std::string::npos);
}

TEST(AsciiChartTest, BarChartShowsReference) {
  ChartOptions opt;
  const std::string out = RenderBarChart(
      {{"r1", 0.5}, {"r2", 1.8}}, opt, 1.0);
  EXPECT_NE(out.find("r1"), std::string::npos);
  EXPECT_NE(out.find("reference = 1.00"), std::string::npos);
}

TEST(AsciiChartTest, BoxplotShowsMedianMarker) {
  BoxplotSpec box;
  box.label = "cpu-bids";
  box.whisker_lo = 10;
  box.q1 = 20;
  box.median = 30;
  box.q3 = 45;
  box.whisker_hi = 60;
  box.outliers = {95.0};
  ChartOptions opt;
  const std::string out = RenderBoxplots({box}, opt);
  EXPECT_NE(out.find('M'), std::string::npos);
  EXPECT_NE(out.find('o'), std::string::npos);
  EXPECT_NE(out.find("cpu-bids"), std::string::npos);
}

TEST(AsciiChartTest, DegenerateRangeDoesNotCrash) {
  ChartSeries s;
  s.label = "flat";
  s.xs = {1.0, 2.0, 3.0};
  s.ys = {5.0, 5.0, 5.0};
  EXPECT_NO_THROW(RenderLineChart({s}, ChartOptions{}));
}

}  // namespace
}  // namespace pm
