// Observability subsystem tests: metrics registry semantics, trace span
// nesting and chrome://tracing export well-formedness, privacy-ledger
// monotonicity and exact agreement with the RDP accountant, and a
// threaded-writers stress. The obs globals (enabled flag, registry,
// recorder, ledger) are process-wide, so every test runs through the
// fixture below, which restores a clean disabled state.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "dp/accountant.h"
#include "obs/event_ring.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/ledger.h"
#include "obs/observability.h"
#include "obs/prometheus.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "obs/trace_context.h"

namespace p3gm {
namespace obs {
namespace {

// Minimal structural JSON check: balanced braces/brackets outside string
// literals, terminated strings, valid escapes. Not a full parser, but it
// catches the classic export bugs (trailing commas are legal to it, but
// unbalanced nesting and unterminated strings are not).
bool JsonBalanced(const std::string& s) {
  std::vector<char> stack;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        break;
      case '{':
      case '[':
        stack.push_back(c);
        break;
      case '}':
        if (stack.empty() || stack.back() != '{') return false;
        stack.pop_back();
        break;
      case ']':
        if (stack.empty() || stack.back() != '[') return false;
        stack.pop_back();
        break;
      default:
        break;
    }
  }
  return !in_string && stack.empty();
}

std::size_t CountOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    Registry::Global().Reset();
    TraceRecorder::Global().Clear();
    PrivacyLedger::Global().Clear();
    PrivacyLedger::Global().SetDelta(1e-5);
  }
  void TearDown() override {
    Registry::Global().Reset();
    TraceRecorder::Global().Clear();
    TraceRecorder::Global().SetCapacityPerThread(1 << 20);
    PrivacyLedger::Global().Clear();
    SetEnabled(false);
  }
};

// ----------------------------------------------------------- registry

#if P3GM_OBSERVABILITY_ENABLED

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  Counter* c = Registry::Global().counter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->Add();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
}

TEST_F(ObsTest, GaugeKeepsLastWrite) {
  Gauge* g = Registry::Global().gauge("test.gauge");
  g->Set(1.5);
  g->Set(-2.25);
  EXPECT_DOUBLE_EQ(g->value(), -2.25);
}

TEST_F(ObsTest, HistogramBucketizesOnUpperBounds) {
  // Bucket i counts v <= bounds[i]; one implicit overflow bucket.
  Histogram* h =
      Registry::Global().histogram("test.hist", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h->Observe(v);
  EXPECT_EQ(h->count(), 5u);
  EXPECT_DOUBLE_EQ(h->sum(), 106.0);
  const std::vector<std::uint64_t> want = {2, 1, 1, 1};
  EXPECT_EQ(h->bucket_counts(), want);
}

TEST_F(ObsTest, HistogramQuantileInterpolatesExactly) {
  // bounds {1,2,4} with observations {0.5, 1.0, 1.5, 3.0, 100.0}:
  // buckets hold {2, 1, 1} plus 1 in overflow (count 5).
  HistogramSample s;
  s.bounds = {1.0, 2.0, 4.0};
  s.bucket_counts = {2, 1, 1, 1};
  s.count = 5;
  s.sum = 106.0;
  // q=0.5 -> rank 2.5 lands 0.5 into the (1, 2] bucket.
  EXPECT_DOUBLE_EQ(s.Quantile(0.5), 1.5);
  // q=0.2 -> rank 1.0, halfway through the first bucket whose lower
  // edge is min(0, bounds[0]) = 0.
  EXPECT_DOUBLE_EQ(s.Quantile(0.2), 0.5);
  // q=0 pins to the first bucket's lower edge.
  EXPECT_DOUBLE_EQ(s.Quantile(0.0), 0.0);
  // q=1 -> rank 5 falls in the overflow bucket, which clamps to the
  // largest finite bound.
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), 4.0);
  // q is clamped into [0, 1].
  EXPECT_DOUBLE_EQ(s.Quantile(-3.0), s.Quantile(0.0));
  EXPECT_DOUBLE_EQ(s.Quantile(7.0), s.Quantile(1.0));
}

TEST_F(ObsTest, HistogramQuantileNegativeLowerEdge) {
  // All-negative bounds: the first bucket's lower edge is
  // min(0, bounds[0]) = bounds[0], so that bucket degenerates to the
  // point -2 (the Prometheus convention — no fabricated range below the
  // smallest bound). The second bucket interpolates normally.
  HistogramSample s;
  s.bounds = {-2.0, -1.0};
  s.bucket_counts = {2, 2, 0};
  s.count = 4;
  // rank 1 lands in the first (point) bucket.
  EXPECT_DOUBLE_EQ(s.Quantile(0.25), -2.0);
  // rank 3 is halfway into the (-2, -1] bucket.
  EXPECT_DOUBLE_EQ(s.Quantile(0.75), -1.5);
  // rank 4 exhausts the second bucket: its upper edge.
  EXPECT_DOUBLE_EQ(s.Quantile(1.0), -1.0);
}

TEST_F(ObsTest, HistogramQuantileEmptyAndMalformedAreNaN) {
  HistogramSample s;  // No bounds, no counts.
  EXPECT_TRUE(std::isnan(s.Quantile(0.5)));
  s.bounds = {1.0};
  s.bucket_counts = {0, 0};
  s.count = 0;  // Empty histogram.
  EXPECT_TRUE(std::isnan(s.Quantile(0.5)));
  s.count = 3;  // Size mismatch: counts must be bounds.size() + 1.
  s.bucket_counts = {3};
  EXPECT_TRUE(std::isnan(s.Quantile(0.5)));
}

TEST_F(ObsTest, LiveHistogramSnapshotQuantileMatchesHandComputed) {
  Histogram* h =
      Registry::Global().histogram("test.quantile.hist", {1.0, 2.0, 4.0});
  for (double v : {0.5, 1.0, 1.5, 3.0, 100.0}) h->Observe(v);
  const Snapshot snap = Registry::Global().TakeSnapshot();
  const HistogramSample* s = nullptr;
  for (const auto& hs : snap.histograms) {
    if (hs.name == "test.quantile.hist") s = &hs;
  }
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->Quantile(0.5), 1.5);
  EXPECT_DOUBLE_EQ(s->Quantile(1.0), 4.0);
}

TEST_F(ObsTest, DisabledUpdatesAreNoOps) {
  Counter* c = Registry::Global().counter("test.disabled.counter");
  Gauge* g = Registry::Global().gauge("test.disabled.gauge");
  Histogram* h = Registry::Global().histogram("test.disabled.hist", {1.0});
  SetEnabled(false);
  c->Add(7);
  g->Set(3.0);
  h->Observe(0.5);
  EXPECT_EQ(c->value(), 0u);
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
  EXPECT_EQ(h->count(), 0u);
}

TEST_F(ObsTest, LookupIsStableAndResetPreservesPointers) {
  Registry& registry = Registry::Global();
  Counter* c = registry.counter("test.stable");
  c->Add(3);
  // Same name must resolve to the same instrument (call sites cache the
  // pointer in a function-local static).
  EXPECT_EQ(registry.counter("test.stable"), c);
  registry.Reset();
  EXPECT_EQ(registry.counter("test.stable"), c);
  c->Add();  // The cached pointer stays usable after Reset.
  EXPECT_EQ(c->value(), 1u);
}

TEST_F(ObsTest, SnapshotIsSortedAndExportsAreWellFormed) {
  Registry& registry = Registry::Global();
  registry.counter("b.counter")->Add(2);
  registry.counter("a.counter")->Add(1);
  registry.gauge("z.gauge")->Set(0.5);
  registry.histogram("m.hist", {1.0, 2.0})->Observe(1.5);

  const Snapshot snap = registry.TakeSnapshot();
  ASSERT_GE(snap.counters.size(), 2u);
  for (std::size_t i = 1; i < snap.counters.size(); ++i) {
    EXPECT_LT(snap.counters[i - 1].name, snap.counters[i].name);
  }

  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"a.counter\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.counter\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"m.hist\""), std::string::npos);

  const std::string csv = snap.ToCsv();
  EXPECT_EQ(csv.rfind("kind,name,field,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,a.counter,value,1"), std::string::npos);
  // Histogram rows: count, sum, one le_* row per bucket + overflow.
  EXPECT_NE(csv.find("histogram,m.hist,count,1"), std::string::npos);
  EXPECT_NE(csv.find("histogram,m.hist,le_inf,0"), std::string::npos);
}

// -------------------------------------------------------------- spans

TEST_F(ObsTest, SpansNestAndRecordOrderedIntervals) {
  std::uint64_t mid_ns = 0;
  {
    P3GM_TRACE_SPAN("test.outer");
    {
      P3GM_TRACE_SPAN("test.inner");
      mid_ns = NowNs();
    }
  }
  const auto events = TraceRecorder::Global().Events();
  const TraceRecorder::Event* outer = nullptr;
  const TraceRecorder::Event* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner interval is contained in the outer one, both on the same
  // thread, and both bracket the timestamp taken inside.
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_LE(inner->start_ns, mid_ns);
  EXPECT_LE(mid_ns, inner->end_ns);
}

TEST_F(ObsTest, ChromeJsonIsWellFormed) {
  for (int i = 0; i < 3; ++i) {
    P3GM_TRACE_SPAN("test.span");
  }
  const TraceRecorder& recorder = TraceRecorder::Global();
  EXPECT_EQ(recorder.EventCount(), 3u);
  const std::string json = recorder.ToChromeJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  // One complete ("X") event per recorded span.
  EXPECT_EQ(CountOccurrences(json, "\"ph\": \"X\""), 3u);
}

TEST_F(ObsTest, ChromeJsonEscapesHostileSpanNames) {
  // A span name containing quotes, backslashes and a newline must not
  // break the trace JSON: chrome://tracing rejects the whole file on a
  // single malformed string.
  {
    P3GM_TRACE_SPAN("test.\"quoted\"\\back\nslash");
  }
  const std::string out = TraceRecorder::Global().ToChromeJson();
  // The raw bytes must carry the escape sequences...
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos) << out;
  EXPECT_NE(out.find("\\\\back"), std::string::npos) << out;
  EXPECT_NE(out.find("\\n"), std::string::npos) << out;
  // ...and a strict JSON parse must round-trip the original name.
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &root, &error)) << error;
  const json::Value* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool found = false;
  for (const auto& e : events->items) {
    if (e.StringOr("name", "") == "test.\"quoted\"\\back\nslash") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << out;
}

TEST_F(ObsTest, RegistryJsonEscapesHostileInstrumentNames) {
  Registry& registry = Registry::Global();
  registry.counter("test.\"evil\"\\name")->Add(3);
  const std::string out = registry.TakeSnapshot().ToJson();
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(out, &root, &error)) << error;
  const json::Value* counters = root.Find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->NumberOr("test.\"evil\"\\name", -1.0), 3.0);
}

TEST_F(ObsTest, LedgerJsonEscapesHostileNames) {
  // Control characters must leave as escapes: a raw LF or 0x01 inside a
  // JSON string makes a strict parser reject the whole ledger.
  const char mechanism[] = "a\"b\\c\nd\x01";
  dp::RdpAccountant acc;
  acc.set_ledger_enabled(true);
  {
    PhaseScope phase("dp\tpca");
    acc.AddPureDp(0.1, mechanism);
  }
  json::Value root;
  std::string error;
  ASSERT_TRUE(json::Parse(PrivacyLedger::Global().ToJson(), &root, &error))
      << error;
  const json::Value* entries = root.Find("entries");
  ASSERT_NE(entries, nullptr);
  ASSERT_EQ(entries->items.size(), 1u);
  EXPECT_EQ(entries->items[0].StringOr("phase", ""), "dp\tpca");
  EXPECT_EQ(entries->items[0].StringOr("mechanism", ""), mechanism);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  SetEnabled(false);
  {
    P3GM_TRACE_SPAN("test.ghost");
  }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
}

TEST_F(ObsTest, CapacityBoundsBufferAndCountsDrops) {
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.SetCapacityPerThread(4);
  for (int i = 0; i < 10; ++i) {
    P3GM_TRACE_SPAN("test.capped");
  }
  EXPECT_EQ(recorder.EventCount(), 4u);
  EXPECT_EQ(recorder.DroppedCount(), 6u);
  recorder.Clear();
  EXPECT_EQ(recorder.DroppedCount(), 0u);
}

// ------------------------------------------------------------- ledger

TEST_F(ObsTest, PhaseScopeNestsWithInnerWinning) {
  EXPECT_STREQ(PhaseScope::Current(), "");
  {
    PhaseScope outer("dp_pca");
    EXPECT_STREQ(PhaseScope::Current(), "dp_pca");
    {
      PhaseScope inner("dp_em");
      EXPECT_STREQ(PhaseScope::Current(), "dp_em");
    }
    EXPECT_STREQ(PhaseScope::Current(), "dp_pca");
  }
  EXPECT_STREQ(PhaseScope::Current(), "");
}

TEST_F(ObsTest, LedgerTracksP3gmCompositionExactly) {
  // The full P3GM composition (Theorem 4) recorded entry by entry:
  // Wishart DP-PCA, 20 DP-EM iterations, 1000 per-step DP-SGD events.
  dp::P3gmPrivacyParams params;
  params.pca_epsilon = 0.1;
  params.em_sigma = 100.0;
  params.em_iters = 20;
  params.mog_components = 3;
  params.sgd_sigma = 2.0;
  params.sgd_sampling_rate = 0.01;
  params.sgd_steps = 1000;

  dp::RdpAccountant acc;
  acc.set_ledger_enabled(true);
  {
    PhaseScope phase("dp_pca");
    acc.AddPureDp(params.pca_epsilon, "wishart");
  }
  {
    PhaseScope phase("dp_em");
    for (std::size_t i = 0; i < params.em_iters; ++i) {
      acc.AddDpEm(params.em_sigma, params.mog_components, 1);
    }
  }
  {
    PhaseScope phase("dp_sgd");
    const std::vector<double> curve = acc.SampledGaussianCurve(
        params.sgd_sampling_rate, params.sgd_sigma);
    dp::MechanismEvent event;
    event.mechanism = "sampled_gaussian";
    event.sigma = params.sgd_sigma;
    event.sampling_rate = params.sgd_sampling_rate;
    for (std::size_t step = 0; step < params.sgd_steps; ++step) {
      acc.AddEvent(event, curve);
    }
  }

  const PrivacyLedger& ledger = PrivacyLedger::Global();
  const auto entries = ledger.Entries();
  ASSERT_EQ(entries.size(), 1u + params.em_iters + params.sgd_steps);

  // Epsilon is monotone non-decreasing along the composition, and every
  // entry carries the phase it was recorded under plus this run's id.
  double prev = 0.0;
  for (const auto& e : entries) {
    EXPECT_GE(e.cumulative_epsilon, prev);
    prev = e.cumulative_epsilon;
    EXPECT_EQ(e.run, acc.run_id());
    EXPECT_DOUBLE_EQ(e.delta, 1e-5);
  }
  EXPECT_EQ(entries[0].phase, "dp_pca");
  EXPECT_EQ(entries[0].mechanism, "wishart");
  EXPECT_EQ(entries[1].phase, "dp_em");
  EXPECT_EQ(entries.back().phase, "dp_sgd");
  EXPECT_EQ(entries.back().mechanism, "sampled_gaussian");

  // The final cumulative epsilon agrees with the one-shot accounting of
  // the same composition to well under the 1e-9 acceptance tolerance.
  const double want = dp::ComputeP3gmEpsilonRdp(params, 1e-5).epsilon;
  EXPECT_NEAR(ledger.CumulativeEpsilon(), want, 1e-9);
  EXPECT_NEAR(ledger.CumulativeEpsilon(), acc.GetEpsilon(1e-5).epsilon,
              1e-12);
}

TEST_F(ObsTest, AccountantsAreSilentWithoutOptIn) {
  // Throwaway accountants (sigma calibration) must not spam the ledger.
  dp::RdpAccountant acc;
  acc.AddGaussian(2.0, 5);
  acc.AddPureDp(0.1);
  EXPECT_EQ(PrivacyLedger::Global().size(), 0u);
  // And an opted-in accountant stays silent while obs is disabled.
  SetEnabled(false);
  dp::RdpAccountant opted;
  opted.set_ledger_enabled(true);
  opted.AddGaussian(2.0, 5);
  EXPECT_EQ(PrivacyLedger::Global().size(), 0u);
}

TEST_F(ObsTest, DistinctRunsGetDistinctIds) {
  dp::RdpAccountant a, b;
  a.set_ledger_enabled(true);
  b.set_ledger_enabled(true);
  EXPECT_NE(a.run_id(), b.run_id());
  a.AddGaussian(2.0, 1);
  b.AddGaussian(2.0, 1);
  const auto entries = PrivacyLedger::Global().Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].run, a.run_id());
  EXPECT_EQ(entries[1].run, b.run_id());
}

TEST_F(ObsTest, LedgerExportsAreWellFormed) {
  dp::RdpAccountant acc;
  acc.set_ledger_enabled(true);
  acc.AddPureDp(0.1, "wishart");
  acc.AddSampledGaussian(0.01, 1.5, 10);
  const PrivacyLedger& ledger = PrivacyLedger::Global();

  const std::string json = ledger.ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"wishart\""), std::string::npos);
  EXPECT_NE(json.find("\"sampled_gaussian\""), std::string::npos);
  EXPECT_NE(json.find("\"rdp_orders\""), std::string::npos);

  const std::string csv = ledger.ToCsv();
  EXPECT_EQ(csv.rfind("index,run,phase,mechanism,count,sigma,sampling_rate,"
                      "pure_eps,cumulative_epsilon,best_order,delta\n",
                      0),
            0u);
  EXPECT_EQ(CountOccurrences(csv, "\n"), 1u + ledger.size());
}

// ------------------------------------------------------------- stress

TEST_F(ObsTest, ThreadedWritersProduceExactTotals) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 20000;
  constexpr std::size_t kSpansPerThread = 50;
  Registry& registry = Registry::Global();
  Counter* counter = registry.counter("stress.counter");
  Histogram* hist = registry.histogram("stress.hist", {0.25, 0.5, 0.75});
  dp::RdpAccountant acc;
  acc.set_ledger_enabled(true);
  const std::vector<double> curve = acc.GaussianCurve(4.0);

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        counter->Add();
        hist->Observe(static_cast<double>((t + i) % 4) * 0.25);
      }
      for (std::size_t i = 0; i < kSpansPerThread; ++i) {
        P3GM_TRACE_SPAN("stress.span");
      }
      dp::MechanismEvent event;
      event.mechanism = "gaussian";
      event.sigma = 4.0;
      acc.AddEvent(event, curve);
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(hist->count(), kThreads * kPerThread);
  // Each residue class 0..3 appears kPerThread/4 times per thread.
  // Values 0.0 and 0.25 both fall in the first bucket (v <= 0.25), 0.5
  // and 0.75 land on their own bounds, and nothing overflows.
  const std::size_t per_class = kThreads * kPerThread / 4;
  const std::vector<std::uint64_t> want = {2 * per_class, per_class,
                                           per_class, 0};
  EXPECT_EQ(hist->bucket_counts(), want);
  EXPECT_EQ(TraceRecorder::Global().EventCount(),
            kThreads * kSpansPerThread);
  EXPECT_EQ(TraceRecorder::Global().DroppedCount(), 0u);
  EXPECT_EQ(PrivacyLedger::Global().size(), kThreads);
  // All 8 concurrent events composed: cumulative epsilon of the last
  // entry equals the accountant's final guarantee.
  EXPECT_NEAR(PrivacyLedger::Global().CumulativeEpsilon(),
              acc.GetEpsilon(1e-5).epsilon, 1e-12);
}

#else  // !P3GM_OBSERVABILITY_ENABLED

// With the layer compiled out (-DP3GM_OBSERVABILITY=OFF) every switch is
// inert and every instrument stays at zero — the zero-overhead contract.
TEST_F(ObsTest, CompiledOutLayerIsInert) {
  EXPECT_FALSE(kCompiledIn);
  SetEnabled(true);
  EXPECT_FALSE(Enabled());
  Counter* c = Registry::Global().counter("test.off");
  c->Add(5);
  EXPECT_EQ(c->value(), 0u);
  {
    P3GM_TRACE_SPAN("test.off.span");
  }
  EXPECT_EQ(TraceRecorder::Global().EventCount(), 0u);
  dp::RdpAccountant acc;
  acc.set_ledger_enabled(true);
  acc.AddGaussian(2.0, 3);
  EXPECT_EQ(PrivacyLedger::Global().size(), 0u);
  // Accounting itself is unaffected by the missing telemetry.
  EXPECT_GT(acc.GetEpsilon(1e-5).epsilon, 0.0);
}

#endif  // P3GM_OBSERVABILITY_ENABLED

// ------------------------------------------------------ trace context
// Request identity is protocol-level plumbing: everything below works
// identically in ON and OFF builds (only span *recording* compiles out).

TEST(TraceContextTest, RootContextsAreValidAndDistinct) {
  const TraceContext a = MakeRootContext();
  const TraceContext b = MakeRootContext();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(a.parent_span_id, 0u);
  EXPECT_FALSE(a.trace_hi == b.trace_hi && a.trace_lo == b.trace_lo);
  EXPECT_NE(a.span_id, b.span_id);
}

TEST(TraceContextTest, ChildKeepsTraceIdAndParentsOnTheSpan) {
  const TraceContext parent = MakeRootContext();
  const TraceContext child = ChildOf(parent);
  EXPECT_EQ(child.trace_hi, parent.trace_hi);
  EXPECT_EQ(child.trace_lo, parent.trace_lo);
  EXPECT_EQ(child.parent_span_id, parent.span_id);
  EXPECT_NE(child.span_id, parent.span_id);
  EXPECT_NE(child.span_id, 0u);
  // An invalid parent degrades to a fresh root.
  const TraceContext orphan = ChildOf(TraceContext{});
  EXPECT_TRUE(orphan.valid());
  EXPECT_EQ(orphan.parent_span_id, 0u);
}

TEST(TraceContextTest, NextSpanIdIsNonzeroAndDistinct) {
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t id = NextSpanId();
    EXPECT_NE(id, 0u);
    ids.insert(id);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(TraceContextTest, FormatAndHexFormsAreExact) {
  TraceContext ctx;
  ctx.trace_hi = 0x0123456789abcdefULL;
  ctx.trace_lo = 0xfedcba9876543210ULL;
  ctx.span_id = 0x00000000000000aaULL;
  EXPECT_EQ(FormatTraceparent(ctx),
            "00-0123456789abcdeffedcba9876543210-00000000000000aa-01");
  EXPECT_EQ(TraceIdHex(ctx), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(SpanIdHex(ctx.span_id), "00000000000000aa");
}

TEST(TraceContextTest, ParseAdoptsTraceIdMintsLocalSpan) {
  TraceContext ctx;
  ASSERT_TRUE(ParseTraceparent(
      "00-0123456789abcdeffedcba9876543210-00000000000000aa-01", &ctx));
  EXPECT_EQ(ctx.trace_hi, 0x0123456789abcdefULL);
  EXPECT_EQ(ctx.trace_lo, 0xfedcba9876543210ULL);
  // The header's parent-id becomes our parent; our span id is fresh.
  EXPECT_EQ(ctx.parent_span_id, 0xaaULL);
  EXPECT_NE(ctx.span_id, 0u);
  EXPECT_NE(ctx.span_id, 0xaaULL);
}

TEST(TraceContextTest, ParseToleratesFutureVersions) {
  // Per the W3C spec, an unknown (non-ff) version with the same prefix
  // layout parses; trailing fields are ignored.
  TraceContext ctx;
  EXPECT_TRUE(ParseTraceparent(
      "01-0123456789abcdeffedcba9876543210-00000000000000aa-01-extra",
      &ctx));
  EXPECT_EQ(ctx.trace_lo, 0xfedcba9876543210ULL);
}

TEST(TraceContextTest, ParseRejectsMalformedAndLeavesOutUntouched) {
  const char* bad[] = {
      "",
      "00",
      "00-0123456789abcdeffedcba9876543210-00000000000000aa",  // Short.
      "00-0123456789abcdeffedcba9876543210_00000000000000aa-01",
      "00-00000000000000000000000000000000-00000000000000aa-01",
      "00-0123456789abcdeffedcba9876543210-0000000000000000-01",
      "ff-0123456789abcdeffedcba9876543210-00000000000000aa-01",
      "00-0123456789ABCDEFFEDCBA9876543210-00000000000000aa-01",  // Case.
      "00-0123456789abcdeffedcba987654321g-00000000000000aa-01",
      "00-0123456789abcdeffedcba9876543210-00000000000000aa-01x",
  };
  for (const char* header : bad) {
    TraceContext ctx;
    ctx.trace_hi = 7;
    ctx.trace_lo = 8;
    ctx.span_id = 9;
    ctx.parent_span_id = 10;
    EXPECT_FALSE(ParseTraceparent(header, &ctx)) << header;
    EXPECT_EQ(ctx.trace_hi, 7u) << header;
    EXPECT_EQ(ctx.span_id, 9u) << header;
  }
}

TEST(TraceContextTest, RequestScopeNestsAndRestores) {
  EXPECT_FALSE(CurrentContext().valid());
  const TraceContext outer = MakeRootContext();
  {
    RequestScope outer_scope(outer);
    EXPECT_EQ(CurrentContext().span_id, outer.span_id);
    const TraceContext inner = ChildOf(outer);
    {
      RequestScope inner_scope(inner);
      EXPECT_EQ(CurrentContext().span_id, inner.span_id);
    }
    EXPECT_EQ(CurrentContext().span_id, outer.span_id);
  }
  EXPECT_FALSE(CurrentContext().valid());
}

#if P3GM_OBSERVABILITY_ENABLED

TEST_F(ObsTest, SpansInsideRequestScopeCarryTheContext) {
  const TraceContext ctx = ChildOf(MakeRootContext());
  {
    RequestScope scope(ctx);
    P3GM_TRACE_SPAN("ctx.stamped");
  }
  {
    P3GM_TRACE_SPAN("ctx.naked");  // Outside any scope: no attribution.
  }
  bool saw_stamped = false, saw_naked = false;
  for (const auto& event : TraceRecorder::Global().Events()) {
    if (std::string(event.name) == "ctx.stamped") {
      saw_stamped = true;
      EXPECT_TRUE(event.has_context());
      EXPECT_EQ(event.trace_hi, ctx.trace_hi);
      EXPECT_EQ(event.trace_lo, ctx.trace_lo);
      EXPECT_EQ(event.span_id, ctx.span_id);
      EXPECT_EQ(event.parent_id, ctx.parent_span_id);
    } else if (std::string(event.name) == "ctx.naked") {
      saw_naked = true;
      EXPECT_FALSE(event.has_context());
    }
  }
  EXPECT_TRUE(saw_stamped);
  EXPECT_TRUE(saw_naked);
  // The chrome export carries the ids as span args.
  const std::string json = TraceRecorder::Global().ToChromeJson();
  EXPECT_NE(json.find("\"trace_id\": \"" + TraceIdHex(ctx) + "\""),
            std::string::npos);
  EXPECT_NE(json.find("\"parent_id\": \"" + SpanIdHex(ctx.parent_span_id)),
            std::string::npos);
  EXPECT_TRUE(JsonBalanced(json));
}

TEST_F(ObsTest, InternedNamesAreStableAndDeduplicated) {
  const std::string dynamic = "serve.decode:" + std::string("alpha");
  const char* a = TraceRecorder::Global().InternName(dynamic);
  const char* b = TraceRecorder::Global().InternName("serve.decode:alpha");
  EXPECT_EQ(a, b);  // Same pointer: safe to store by address.
  EXPECT_STREQ(a, "serve.decode:alpha");
  TraceRecorder::Global().Append(a, 10, 20);
  const auto events = TraceRecorder::Global().Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "serve.decode:alpha");
}

#endif  // P3GM_OBSERVABILITY_ENABLED

// ---------------------------------------------------- flight recorder
// Not gated on obs::Enabled(): the black box records in OFF builds too.

TEST(FlightRecorderTest, RecordsEventsAndDumpsThem) {
  FlightRecorder& flight = FlightRecorder::Global();
  const std::uint64_t before = flight.RecordedCount();
  flight.Record(FlightRecorder::EventKind::kRequest, "test.flight.evt",
                0xabcdULL, 2);
  flight.Record(FlightRecorder::EventKind::kQueueDepth,
                "test.flight.queue", 3, 256);
  EXPECT_GE(flight.RecordedCount(), before + 2);

  const std::string path = ::testing::TempDir() + "p3gm_flight_ut.dump";
  ASSERT_TRUE(flight.DumpToFile(path.c_str()));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  EXPECT_NE(dump.find("=== p3gm flight recorder ==="), std::string::npos);
  EXPECT_NE(dump.find("request test.flight.evt a=000000000000abcd"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("queue test.flight.queue a=3"), std::string::npos);
  EXPECT_NE(dump.find("=== end flight recorder ==="), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, LogEventsKeepAMessagePrefix) {
  FlightRecorder& flight = FlightRecorder::Global();
  const char msg[] = "hello flight recorder test";
  flight.RecordLog("INFO", msg, sizeof(msg) - 1);
  const std::string path = ::testing::TempDir() + "p3gm_flight_log.dump";
  ASSERT_TRUE(flight.DumpToFile(path.c_str()));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  // The two payload words hold the first 16 bytes of the message.
  EXPECT_NE(buffer.str().find("log INFO \"hello flight rec\""),
            std::string::npos)
      << buffer.str();
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, DisabledRecorderDropsEvents) {
  FlightRecorder& flight = FlightRecorder::Global();
  flight.SetEnabled(false);
  const std::uint64_t before = flight.RecordedCount();
  flight.Record(FlightRecorder::EventKind::kRequest, "test.flight.off");
  EXPECT_EQ(flight.RecordedCount(), before);
  flight.SetEnabled(true);
}

TEST(FlightRecorderTest, RingWrapCountsOverwrites) {
  FlightRecorder& flight = FlightRecorder::Global();
  // Capacity applies to threads that have not recorded yet, so use a
  // fresh thread for the tiny ring.
  flight.SetCapacityPerThread(64);
  const std::uint64_t before = flight.OverwrittenCount();
  std::thread writer([&flight] {
    for (int i = 0; i < 200; ++i) {
      flight.Record(FlightRecorder::EventKind::kRequest, "test.wrap",
                    static_cast<std::uint64_t>(i));
    }
  });
  writer.join();
  EXPECT_GE(flight.OverwrittenCount(), before + (200 - 64));
  flight.SetCapacityPerThread(4096);
}

TEST(FlightRecorderTest, DumpKeepsEachThreadsRing) {
  FlightRecorder& flight = FlightRecorder::Global();
  for (const char* label : {"test.ring.first", "test.ring.second"}) {
    std::thread writer([&flight, label] {
      flight.Record(FlightRecorder::EventKind::kRequest, label, 1, 2);
    });
    writer.join();
  }
  const std::string path = ::testing::TempDir() + "p3gm_flight_rings.dump";
  ASSERT_TRUE(flight.DumpToFile(path.c_str()));
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string dump = buffer.str();
  std::remove(path.c_str());
  const std::size_t first = dump.find("request test.ring.first");
  const std::size_t second = dump.find("request test.ring.second");
  ASSERT_NE(first, std::string::npos) << dump;
  ASSERT_NE(second, std::string::npos) << dump;
  // Each label sits under the "-- thread" header of its own ring.
  EXPECT_NE(dump.rfind("-- thread ", first), dump.rfind("-- thread ", second))
      << dump;
}

// ---------------------------------------------------------- event ring

TEST(EventRingTest, ConcurrentWritersWrapAndStayIntact) {
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 10000;
  EventRing<3> ring(1024);
  ASSERT_EQ(ring.capacity(), 1024u);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&ring, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        const std::uint64_t record[3] = {static_cast<std::uint64_t>(w), i,
                                         ~i};
        ring.Append(record, 3);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(ring.written(), kWriters * kPerWriter);
  EXPECT_EQ(ring.lost(), kWriters * kPerWriter - 1024);

  std::uint64_t visited = 0;
  bool intact = true;
  std::vector<std::uint64_t> next(kWriters, 0);  // Lowest i still allowed.
  const std::uint64_t skipped = ring.ForEach([&](const std::uint64_t* r) {
    ++visited;
    if (r[0] >= kWriters || r[2] != ~r[1] || r[1] < next[r[0]]) {
      intact = false;
      return;
    }
    next[r[0]] = r[1] + 1;
  });
  EXPECT_EQ(skipped, 0u);
  EXPECT_EQ(visited, 1024u);
  EXPECT_TRUE(intact);

  ring.Clear();
  EXPECT_EQ(ring.written(), 0u);
  EXPECT_EQ(ring.ForEach([](const std::uint64_t*) { FAIL(); }), 0u);
}

// --------------------------------------------------------- prometheus

TEST(PrometheusTest, SanitizesNamesAndEscapesLabelValues) {
  EXPECT_EQ(SanitizeMetricName("serve.request.latency_seconds"),
            "serve_request_latency_seconds");
  EXPECT_EQ(SanitizeMetricName("a-b/c d"), "a_b_c_d");
  EXPECT_EQ(SanitizeMetricName("7zip"), "_7zip");
  EXPECT_EQ(SanitizeMetricName("ok:name_09"), "ok:name_09");
  EXPECT_EQ(EscapeLabelValue("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
}

TEST(PrometheusTest, LabeledNameComposesCanonically) {
  EXPECT_EQ(LabeledName("base", {}), "base");
  EXPECT_EQ(LabeledName("base", {{"k", "v"}}), "base{k=\"v\"}");
  EXPECT_EQ(
      LabeledName("serve.x", {{"endpoint", "/v1/sample"}, {"r", "a\"b"}}),
      "serve.x{endpoint=\"/v1/sample\",r=\"a\\\"b\"}");
}

TEST(PrometheusTest, ContentTypeIsTheV004TextFormat) {
  EXPECT_STREQ(PrometheusContentType(),
               "text/plain; version=0.0.4; charset=utf-8");
}

// Full exposition pinned against a golden fixture: TYPE grouping across
// label variants, sanitized bases, escaped label values, cumulative le
// buckets with +Inf, and _sum/_count series.
TEST(PrometheusTest, ExpositionMatchesGoldenFixture) {
  Snapshot snapshot;
  snapshot.counters.push_back({"serve.requests", 42});
  snapshot.counters.push_back(
      {LabeledName("serve.sample.results", {{"result", "hit"}}), 7});
  snapshot.counters.push_back(
      {LabeledName("serve.sample.results", {{"result", "fresh"}}), 3});
  snapshot.gauges.push_back({"obs.flight.recorded_events", 128.0});
  snapshot.gauges.push_back({"7seas.depth", 1.5});
  HistogramSample h;
  h.name = LabeledName("serve.request.latency_seconds",
                       {{"endpoint", "/v1/sample"}, {"path", "a\"b\\c"}});
  h.bounds = {0.001, 0.01, 0.1};
  h.bucket_counts = {1, 2, 3, 4};  // Final entry = overflow bucket.
  h.count = 10;
  h.sum = 0.625;
  snapshot.histograms.push_back(h);

  std::ifstream in(std::string(P3GM_GOLDEN_DIR) + "/prometheus_small.txt",
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(ToPrometheusText(snapshot), golden.str());
}

// ---------------------------------------------------------------------
// json::AppendNumber against its specification, printf("%.17g"),
// compared as strings: parsing back would hide a digit, notation or
// sign difference that the wire format would not.

std::string Printf17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Appended(double v) {
  std::string out;
  json::AppendNumber(&out, v);
  return out;
}

// Checks every value of `values` and reports the first few mismatches,
// so a broken formatter fails with examples instead of a million lines.
void ExpectMatchesPrintf(const std::vector<double>& values) {
  std::size_t mismatches = 0;
  for (const double v : values) {
    const std::string got = Appended(v);
    const std::string want = Printf17g(v);
    if (got != want || got.size() > json::kMaxNumberChars) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << "AppendNumber wrote \"" << got << "\", printf \""
                      << want << "\"";
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "of " << values.size() << " values";
}

TEST(JsonNumberTest, SpecialValuesMatchPrintf) {
  using limits = std::numeric_limits<double>;
  const double nan = limits::quiet_NaN();
  ExpectMatchesPrintf({0.0, -0.0, limits::infinity(), -limits::infinity(),
                       nan, std::copysign(nan, -1.0), limits::denorm_min(),
                       -limits::denorm_min(), limits::min(), -limits::min(),
                       limits::max(), -limits::max(), 1.0, -1.0, 0.5, 0.1,
                       1.0 / 3.0, 123456789.25, 1e300, 1e-7});
  EXPECT_EQ(Appended(-0.0), "-0");
  EXPECT_EQ(Appended(std::copysign(nan, -1.0)), "-nan");
  EXPECT_EQ(Appended(-limits::infinity()), "-inf");
  // The longest output, which the documented bound must cover exactly.
  EXPECT_EQ(Appended(-limits::min()), "-2.2250738585072014e-308");
  EXPECT_EQ(Appended(-limits::min()).size(), json::kMaxNumberChars);
}

TEST(JsonNumberTest, NotationSwitchesMatchPrintf) {
  // %g turns to exponent form below 1e-4 and from 1e17 (precision 17)
  // on; each switch point is checked with its neighbours and signs.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values;
  for (const double edge : {1e-5, 1e-4, 1e16, 1e17}) {
    const double down = std::nextafter(edge, 0.0);
    const double up = std::nextafter(edge, inf);
    for (const double v : {std::nextafter(down, 0.0), down, edge, up,
                           std::nextafter(up, inf)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  ExpectMatchesPrintf(values);
  EXPECT_EQ(Appended(1e-4), "0.0001");
  EXPECT_EQ(Appended(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(Appended(1e16), "10000000000000000");
  EXPECT_EQ(Appended(1e17), "1e+17");
}

TEST(JsonNumberTest, ExactDecimalTiesRoundHalfToEvenLikePrintf) {
  // For odd j, j / 2^k has exactly k decimals, the last a 5. With k = 17
  // on [1, 4) and k = 18 on [0.1, 1) that is 18 significant digits: an
  // exact tie at the 17th, which %.17g rounds half to even.
  EXPECT_EQ(Appended(131073.0 / 262144.0), "0.50000381469726562");
  std::vector<double> values;
  for (const int k : {17, 18}) {
    for (std::uint64_t j = 1; j < (std::uint64_t{1} << 19); j += 2) {
      values.push_back(std::ldexp(static_cast<double>(j), -k));
    }
  }
  ExpectMatchesPrintf(values);
}

TEST(JsonNumberTest, SeededRandomDoublesMatchPrintf) {
  std::mt19937_64 rng(0x5eed17);
  std::vector<double> values;
  values.reserve(2'000'000);
  // Every finite and non-finite encoding, uniformly over bit patterns.
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
  }
  // Values in (0, 1), the range of a Bernoulli decoder's outputs.
  for (int i = 0; i < 1'000'000; ++i) {
    values.push_back(std::ldexp(static_cast<double>((rng() >> 11) | 1), -53));
  }
  ExpectMatchesPrintf(values);
}

TEST(JsonNumberTest, AppendsAfterExistingContent) {
  std::string out = "[\"prefix that outgrows the small-string buffer\", ";
  const std::string prefix = out;
  json::AppendNumber(&out, 0.49500016666000024);
  out += ", ";
  json::AppendNumber(&out, -2.5e-300);
  EXPECT_EQ(out, prefix + Printf17g(0.49500016666000024) + ", " +
                     Printf17g(-2.5e-300));
}

}  // namespace
}  // namespace obs
}  // namespace p3gm
