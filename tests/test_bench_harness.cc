// Bench-harness tests: robust statistics (median/MAD/outlier rejection
// and the deterministic bootstrap), the BenchSuite measurement loop and
// its BENCH_*.json round trip, the perf-counter fallback tier, the
// compiled-out allocation tracker, and the bench_compare decision rule
// that gates perf regressions in CI.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/bench/compare.h"
#include "obs/bench/harness.h"
#include "obs/bench/stats.h"
#include "obs/perf/alloc.h"
#include "obs/perf/counters.h"

namespace p3gm {
namespace obs {
namespace bench {
namespace {

// ------------------------------------------------------------- stats

TEST(BenchStats, MedianOddEvenEmpty) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({7.0}), 7.0);
  EXPECT_TRUE(std::isnan(Median({})));
}

TEST(BenchStats, MadAroundCenter) {
  // |x - 2| over {1,2,3,10} = {1,0,1,8}; median of that is 1.
  EXPECT_DOUBLE_EQ(Mad({1.0, 2.0, 3.0, 10.0}, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(Mad({5.0, 5.0, 5.0}, 5.0), 0.0);
  EXPECT_TRUE(std::isnan(Mad({}, 0.0)));
}

TEST(BenchStats, RejectOutliersDropsOnlyTheOutlier) {
  const std::vector<double> v = {1.0, 1.1, 0.9, 1.05, 50.0};
  const std::vector<double> kept = RejectOutliers(v, 5.0);
  const std::vector<double> want = {1.0, 1.1, 0.9, 1.05};
  EXPECT_EQ(kept, want);  // Input order preserved.
}

TEST(BenchStats, RejectOutliersKeepsEverythingWhenMadIsZero) {
  // Constant samples have MAD 0; nothing can be "k MADs away".
  const std::vector<double> v = {2.0, 2.0, 2.0, 9.0};
  // MAD around median 2 is 0 -> no rejection even of the 9.
  EXPECT_EQ(RejectOutliers(v, 5.0), v);
  // Fewer than 3 samples: rejection disabled outright.
  const std::vector<double> two = {1.0, 100.0};
  EXPECT_EQ(RejectOutliers(two, 5.0), two);
}

TEST(BenchStats, BootstrapIsDeterministicAndBracketsMedian) {
  const std::vector<double> v = {1.0, 1.2, 0.9, 1.1, 1.05, 0.95};
  const Ci a = BootstrapMedianCi(v, 2000, 0.95, 42);
  const Ci b = BootstrapMedianCi(v, 2000, 0.95, 42);
  EXPECT_DOUBLE_EQ(a.lo, b.lo);
  EXPECT_DOUBLE_EQ(a.hi, b.hi);
  const double med = Median(v);
  EXPECT_LE(a.lo, med);
  EXPECT_GE(a.hi, med);
  // Degenerate n == 1: the interval collapses onto the sample.
  const Ci one = BootstrapMedianCi({3.5}, 100, 0.95, 42);
  EXPECT_DOUBLE_EQ(one.lo, 3.5);
  EXPECT_DOUBLE_EQ(one.hi, 3.5);
}

TEST(BenchStats, SummarizeRejectsAndSummarizes) {
  const SampleStats s = Summarize({1.0, 1.1, 0.9, 1.05, 50.0});
  EXPECT_EQ(s.n, 4u);
  EXPECT_EQ(s.rejected, 1u);
  EXPECT_DOUBLE_EQ(s.min, 0.9);
  EXPECT_DOUBLE_EQ(s.max, 1.1);
  EXPECT_DOUBLE_EQ(s.median, 1.025);
  EXPECT_NEAR(s.mean, (1.0 + 1.1 + 0.9 + 1.05) / 4.0, 1e-12);
  EXPECT_LE(s.ci95_lo, s.median);
  EXPECT_GE(s.ci95_hi, s.median);

  const SampleStats empty = Summarize({});
  EXPECT_EQ(empty.n, 0u);
  EXPECT_EQ(empty.rejected, 0u);
}

// ------------------------------------------------------------ harness

TEST(BenchHarness, RunExecutesWarmupPlusReps) {
  BenchSuite suite("test");
  int calls = 0;
  BenchOptions opt;
  opt.warmup = 2;
  opt.reps = 3;
  opt.reject_outliers = false;
  const BenchResult& r =
      suite.Run("count", [&] { ++calls; }, opt);
  EXPECT_EQ(calls, 5);  // warmup + reps invocations...
  EXPECT_EQ(r.samples_seconds.size(), 3u);  // ...but only reps measured.
  EXPECT_EQ(r.stats.n, 3u);
  for (double s : r.samples_seconds) EXPECT_GE(s, 0.0);
}

TEST(BenchHarness, RunInterleavedRoundRobinsAcrossBenches) {
  // Round r must measure every benchmark once before any benchmark gets
  // rep r+1 — the call sequence after warmup is a,b,a,b,a,b, not
  // a,a,a,b,b,b. That property is what makes machine-load phases hit
  // all benchmarks alike.
  BenchSuite suite("test");
  std::string order;
  BenchOptions opt;
  opt.warmup = 1;
  opt.reps = 3;
  opt.reject_outliers = false;
  suite.RunInterleaved(
      {{"a", [&] { order += 'a'; }}, {"b", [&] { order += 'b'; }}}, opt);
  EXPECT_EQ(order, "ab" + std::string("ababab"));  // warmup pass + rounds.
  ASSERT_EQ(suite.results().size(), 2u);
  EXPECT_EQ(suite.results()[0].name, "a");
  EXPECT_EQ(suite.results()[1].name, "b");
  for (const BenchResult& r : suite.results()) {
    EXPECT_EQ(r.stats.n, 3u);
    EXPECT_EQ(r.samples_seconds.size(), 3u);
  }
}

TEST(BenchHarness, FromEnvHonorsOverrides) {
  setenv("P3GM_BENCH_REPS", "7", 1);
  setenv("P3GM_BENCH_WARMUP", "0", 1);
  const BenchOptions opt = BenchOptions::FromEnv();
  EXPECT_EQ(opt.reps, 7);
  EXPECT_EQ(opt.warmup, 0);
  setenv("P3GM_BENCH_REPS", "not-a-number", 1);
  EXPECT_EQ(BenchOptions::FromEnv().reps, BenchOptions().reps);
  unsetenv("P3GM_BENCH_REPS");
  unsetenv("P3GM_BENCH_WARMUP");
}

TEST(BenchHarness, JsonRoundTripPreservesDataAndHostileNames) {
  BenchSuite suite("round\"trip\\suite");
  suite.runinfo().threads = 3;
  suite.runinfo().wall_seconds = 1.5;
  suite.RecordSample("a \"quoted\"\\bench", 0.25);
  suite.RecordSample("a \"quoted\"\\bench", 0.35);
  suite.RecordSample("plain", 1.0);

  BenchFileData loaded;
  std::string error;
  ASSERT_TRUE(ParseBenchJson(suite.ToJson(), &loaded, &error)) << error;
  EXPECT_EQ(loaded.runinfo.suite, "round\"trip\\suite");
  EXPECT_EQ(loaded.runinfo.schema, kBenchSchemaVersion);
  EXPECT_EQ(loaded.runinfo.threads, 3);
  EXPECT_DOUBLE_EQ(loaded.runinfo.wall_seconds, 1.5);
  ASSERT_EQ(loaded.benchmarks.size(), 2u);

  const BenchResult* q = loaded.Find("a \"quoted\"\\bench");
  ASSERT_NE(q, nullptr);
  ASSERT_EQ(q->samples_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(q->samples_seconds[0], 0.25);
  EXPECT_DOUBLE_EQ(q->samples_seconds[1], 0.35);
  EXPECT_DOUBLE_EQ(q->stats.median, 0.3);
  EXPECT_EQ(loaded.Find("absent"), nullptr);
}

TEST(BenchHarness, WriteAndLoadFileRoundTrip) {
  const std::string path = "test_bench_harness_tmp.json";
  {
    BenchSuite suite("file-suite");
    suite.RecordSample("io", 0.5);
    ASSERT_TRUE(suite.WriteJson(path));
  }
  BenchFileData loaded;
  std::string error;
  ASSERT_TRUE(LoadBenchFile(path, &loaded, &error)) << error;
  EXPECT_EQ(loaded.runinfo.suite, "file-suite");
  ASSERT_NE(loaded.Find("io"), nullptr);
  EXPECT_DOUBLE_EQ(loaded.Find("io")->stats.median, 0.5);
  std::remove(path.c_str());

  EXPECT_FALSE(LoadBenchFile("does_not_exist.json", &loaded, &error));
}

TEST(BenchHarness, ParseRejectsMalformedAndWrongSchema) {
  BenchFileData out;
  std::string error;
  EXPECT_FALSE(ParseBenchJson("{not json", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseBenchJson(
      "{\"schema\": \"p3gm-bench-v0\", \"_runinfo\": {\"suite\": \"x\"}, "
      "\"benchmarks\": []}",
      &out, &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

// ------------------------------------------------------ perf counters

TEST(PerfCounters, ForcedFallbackProducesPortableTier) {
  setenv("P3GM_PERF_NO_HW", "1", 1);
  EXPECT_FALSE(perf::HardwareCountersAvailable());

  perf::PerfCounters counters;
  counters.Start();
  volatile double spin = 0.0;
  for (int i = 0; i < 100000; ++i) spin = spin + 1.0;
  (void)spin;
  const perf::PerfSample sample = counters.Stop();
  EXPECT_FALSE(sample.hw_available);
  EXPECT_EQ(sample.cycles, 0u);
  EXPECT_GT(sample.wall_seconds, 0.0);
  EXPECT_GT(sample.max_rss_kb, 0u);

  // A suite measured under the fallback still emits valid JSON with the
  // hardware tier marked unavailable.
  BenchSuite suite("fallback");
  BenchOptions opt;
  opt.warmup = 0;
  opt.reps = 2;
  suite.Run("noop", [] {}, opt);
  BenchFileData loaded;
  std::string error;
  ASSERT_TRUE(ParseBenchJson(suite.ToJson(), &loaded, &error)) << error;
  EXPECT_FALSE(loaded.runinfo.hw_counters);
  unsetenv("P3GM_PERF_NO_HW");
}

TEST(PerfCounters, AccumulateAddsDeltasAndMaxesRss) {
  perf::PerfSample a;
  a.hw_available = true;
  a.cycles = 100;
  a.wall_seconds = 1.0;
  a.max_rss_kb = 500;
  perf::PerfSample b;
  b.hw_available = false;  // One fallback rep poisons the hw tier...
  b.cycles = 50;
  b.wall_seconds = 0.5;
  b.max_rss_kb = 800;
  a.Accumulate(b);
  EXPECT_FALSE(a.hw_available);  // ...available only if all reps were.
  EXPECT_EQ(a.cycles, 150u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 1.5);
  EXPECT_EQ(a.max_rss_kb, 800u);  // max, not sum.
}

// ------------------------------------------------------------- alloc

TEST(AllocTracking, CompiledOutMeansAllZeros) {
  if (perf::AllocTrackingCompiledIn()) {
    // Hooks live: allocating must move the counters.
    perf::AllocScope scope;
    std::vector<double>* v = new std::vector<double>(4096, 1.0);
    const perf::AllocStats delta = scope.Delta();
    delete v;
    EXPECT_GT(delta.alloc_count, 0u);
  } else {
    // Default build: the query API exists but everything reads zero.
    const perf::AllocStats stats = perf::CurrentAllocStats();
    EXPECT_EQ(stats.alloc_count, 0u);
    EXPECT_EQ(stats.bytes_allocated, 0u);
    perf::AllocScope scope;
    std::vector<double> v(4096, 1.0);
    EXPECT_GT(v[0], 0.0);
    const perf::AllocStats delta = scope.Delta();
    EXPECT_EQ(delta.alloc_count, 0u);
    EXPECT_EQ(delta.peak_live_bytes, 0u);
  }
}

// ------------------------------------------------------------ compare

// Builds a synthetic result whose median/CI are set directly; the
// decision rule only reads stats.
BenchResult MakeResult(const std::string& name, double median, double ci_lo,
                       double ci_hi) {
  BenchResult r;
  r.name = name;
  r.samples_seconds = {median};
  r.stats.n = 1;
  r.stats.median = median;
  r.stats.min = r.stats.max = r.stats.mean = median;
  r.stats.ci95_lo = ci_lo;
  r.stats.ci95_hi = ci_hi;
  return r;
}

TEST(BenchCompare, TwoTimesSlowdownWithDisjointCisRegresses) {
  const CompareOptions opt;
  const BenchResult base = MakeResult("k", 1.0, 0.95, 1.05);
  const BenchResult cand = MakeResult("k", 2.0, 1.9, 2.1);
  const Comparison c = CompareEntry(base, cand, opt);
  EXPECT_EQ(c.verdict, Verdict::kRegressed);
  EXPECT_DOUBLE_EQ(c.ratio, 2.0);
  EXPECT_TRUE(GateFails({c}, opt));
}

TEST(BenchCompare, IdenticalFilesPassTheGate) {
  const CompareOptions opt;
  const BenchResult base = MakeResult("k", 1.0, 0.95, 1.05);
  const Comparison c = CompareEntry(base, base, opt);
  EXPECT_EQ(c.verdict, Verdict::kSame);
  EXPECT_FALSE(GateFails({c}, opt));
}

TEST(BenchCompare, SlowdownWithinSlackIsSame) {
  // Over the median with disjoint CIs but inside the relative slack
  // (default 35%, sized to between-run container drift): leg 1 vetoes.
  const CompareOptions opt;
  const BenchResult base = MakeResult("k", 1.0, 0.999, 1.001);
  const BenchResult cand = MakeResult("k", 1.25, 1.249, 1.251);
  EXPECT_EQ(CompareEntry(base, cand, opt).verdict, Verdict::kSame);
  // Just past the slack with disjoint CIs: regression.
  const BenchResult slow = MakeResult("k", 1.4, 1.399, 1.401);
  EXPECT_EQ(CompareEntry(base, slow, opt).verdict, Verdict::kRegressed);
}

TEST(BenchCompare, OverlappingCisVetoRegression) {
  // 50% slower on the median but the CIs overlap (noisy samples): leg 2
  // vetoes, because the bootstrap cannot distinguish the two runs.
  const CompareOptions opt;
  const BenchResult base = MakeResult("k", 1.0, 0.5, 1.6);
  const BenchResult cand = MakeResult("k", 1.5, 1.0, 2.5);
  EXPECT_EQ(CompareEntry(base, cand, opt).verdict, Verdict::kSame);
}

TEST(BenchCompare, ImprovementsAreReportedButNeverFail) {
  const CompareOptions opt;
  const BenchResult base = MakeResult("k", 2.0, 1.9, 2.1);
  const BenchResult cand = MakeResult("k", 1.0, 0.95, 1.05);
  const Comparison c = CompareEntry(base, cand, opt);
  EXPECT_EQ(c.verdict, Verdict::kImproved);
  EXPECT_FALSE(GateFails({c}, opt));
}

TEST(BenchCompare, MissingAndNewEntries) {
  BenchFileData base, cand;
  base.benchmarks.push_back(MakeResult("only_in_base", 1.0, 0.9, 1.1));
  base.benchmarks.push_back(MakeResult("shared", 1.0, 0.9, 1.1));
  cand.benchmarks.push_back(MakeResult("shared", 1.0, 0.9, 1.1));
  cand.benchmarks.push_back(MakeResult("only_in_cand", 1.0, 0.9, 1.1));

  CompareOptions opt;
  const std::vector<Comparison> cs = CompareFiles(base, cand, opt);
  ASSERT_EQ(cs.size(), 3u);
  EXPECT_EQ(cs[0].name, "only_in_base");
  EXPECT_EQ(cs[0].verdict, Verdict::kMissing);
  EXPECT_EQ(cs[1].verdict, Verdict::kSame);
  EXPECT_EQ(cs[2].name, "only_in_cand");
  EXPECT_EQ(cs[2].verdict, Verdict::kNew);

  // Missing entries fail only under --strict-missing.
  EXPECT_FALSE(GateFails(cs, opt));
  opt.fail_on_missing = true;
  EXPECT_TRUE(GateFails(cs, opt));

  const std::string report = FormatReport(cs, base, cand);
  EXPECT_NE(report.find("only_in_base"), std::string::npos);
  EXPECT_NE(report.find("missing"), std::string::npos);
}

TEST(BenchCompare, UniformSlowdownIsNormalizedAwayAsMachineDrift) {
  // Every benchmark 1.5x slower — the signature of a slower machine
  // phase, not a code regression. The geometric-mean drift factor
  // divides the whole candidate back onto the baseline.
  BenchFileData base, cand;
  for (const char* name : {"a", "b", "c"}) {
    base.benchmarks.push_back(MakeResult(name, 1.0, 0.99, 1.01));
    cand.benchmarks.push_back(MakeResult(name, 1.5, 1.485, 1.515));
  }
  CompareOptions opt;
  EXPECT_NEAR(DriftFactor(base, cand), 1.5, 1e-12);
  const std::vector<Comparison> cs = CompareFiles(base, cand, opt);
  ASSERT_EQ(cs.size(), 3u);
  for (const Comparison& c : cs) {
    EXPECT_EQ(c.verdict, Verdict::kSame);
    EXPECT_NEAR(c.drift, 1.5, 1e-12);
    EXPECT_NEAR(c.ratio, 1.5, 1e-12);  // Raw ratio is still reported.
  }
  EXPECT_FALSE(GateFails(cs, opt));
  // --no-normalize judges the raw medians and fails.
  opt.normalize_drift = false;
  EXPECT_TRUE(GateFails(CompareFiles(base, cand, opt), opt));
}

TEST(BenchCompare, SingleBenchRegressionSurvivesNormalization) {
  // One benchmark 3x slower while five stay flat: the median ratio
  // ignores the outlier, so the drift factor stays 1.0, the 3x clears
  // the slack and the flat benchmarks stay kSame.
  BenchFileData base, cand;
  for (const char* name : {"a", "b", "c", "d", "e"}) {
    base.benchmarks.push_back(MakeResult(name, 1.0, 0.99, 1.01));
    cand.benchmarks.push_back(MakeResult(name, 1.0, 0.99, 1.01));
  }
  base.benchmarks.push_back(MakeResult("hot", 1.0, 0.99, 1.01));
  cand.benchmarks.push_back(MakeResult("hot", 3.0, 2.97, 3.03));

  const CompareOptions opt;
  EXPECT_DOUBLE_EQ(DriftFactor(base, cand), 1.0);
  const std::vector<Comparison> cs = CompareFiles(base, cand, opt);
  ASSERT_EQ(cs.size(), 6u);
  for (const Comparison& c : cs) {
    EXPECT_EQ(c.verdict,
              c.name == "hot" ? Verdict::kRegressed : Verdict::kSame)
        << c.name;
  }
  EXPECT_TRUE(GateFails(cs, opt));
}

TEST(BenchCompare, MinoritySpeedupIsNotMachineDrift) {
  // A change that makes six kernels 4x faster and leaves nine flat. A
  // geometric-mean factor (0.25^(6/15) ~ 0.57) would read the flat nine
  // as 1.74x slower and fail the gate; the median ratio is the flat
  // benchmarks' 1.0.
  BenchFileData base, cand;
  for (int i = 0; i < 6; ++i) {
    const std::string name = "fast" + std::to_string(i);
    base.benchmarks.push_back(MakeResult(name, 1.0, 0.99, 1.01));
    cand.benchmarks.push_back(MakeResult(name, 0.25, 0.2475, 0.2525));
  }
  for (int i = 0; i < 9; ++i) {
    const std::string name = "flat" + std::to_string(i);
    base.benchmarks.push_back(MakeResult(name, 1.0, 0.99, 1.01));
    cand.benchmarks.push_back(MakeResult(name, 1.0, 0.99, 1.01));
  }
  const CompareOptions opt;
  EXPECT_DOUBLE_EQ(DriftFactor(base, cand), 1.0);
  const std::vector<Comparison> cs = CompareFiles(base, cand, opt);
  ASSERT_EQ(cs.size(), 15u);
  int improved = 0, same = 0;
  for (const Comparison& c : cs) {
    if (c.verdict == Verdict::kImproved) ++improved;
    if (c.verdict == Verdict::kSame) ++same;
    EXPECT_EQ(c.verdict, c.name.rfind("fast", 0) == 0 ? Verdict::kImproved
                                                      : Verdict::kSame)
        << c.name;
  }
  EXPECT_EQ(improved, 6);
  EXPECT_EQ(same, 9);
  EXPECT_FALSE(GateFails(cs, opt));
}

TEST(BenchCompare, DriftFactorNeedsTwoSharedBenchmarks) {
  // With one shared benchmark a slowdown cannot be told apart from the
  // machine; normalization must not eat a genuine 2x regression there.
  BenchFileData base, cand;
  base.benchmarks.push_back(MakeResult("only", 1.0, 0.99, 1.01));
  cand.benchmarks.push_back(MakeResult("only", 2.0, 1.98, 2.02));
  EXPECT_DOUBLE_EQ(DriftFactor(base, cand), 1.0);
  const CompareOptions opt;
  const std::vector<Comparison> cs = CompareFiles(base, cand, opt);
  ASSERT_EQ(cs.size(), 1u);
  EXPECT_EQ(cs[0].verdict, Verdict::kRegressed);
  EXPECT_TRUE(GateFails(cs, opt));
}

}  // namespace
}  // namespace bench
}  // namespace obs
}  // namespace p3gm
