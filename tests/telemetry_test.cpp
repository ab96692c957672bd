// sc::telemetry unit tests: metric primitives, registry semantics, tracer
// ring buffer, and both exporters (including the Prometheus validator that
// gates sc_metrics_dump output in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/tracer.hpp"

namespace sc::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, ConcurrentAddsAreLossless) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.inc();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(Gauge, SetAddSub) {
  Gauge g;
  g.set(10.0);
  g.add(5.0);
  g.sub(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.5);
}

TEST(HistogramSpec, GeometricBounds) {
  const HistogramSpec spec{1.0, 2.0, 4};
  const auto bounds = spec.bounds();
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[1], 2.0);
  EXPECT_DOUBLE_EQ(bounds[2], 4.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
}

TEST(Histogram, BucketsSumAndMean) {
  Histogram h(HistogramSpec{1.0, 2.0, 3});  // bounds 1, 2, 4 (+Inf)
  h.observe(0.5);   // <= 1
  h.observe(1.0);   // <= 1 (le semantics: bound is inclusive)
  h.observe(3.0);   // <= 4
  h.observe(100.0); // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 104.5);
  EXPECT_DOUBLE_EQ(h.mean(), 104.5 / 4.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + Inf
  EXPECT_EQ(buckets[0], 2u);
  EXPECT_EQ(buckets[1], 0u);
  EXPECT_EQ(buckets[2], 1u);
  EXPECT_EQ(buckets[3], 1u);
}

TEST(Histogram, QuantileIsMonotoneAndBracketed) {
  Histogram h(HistogramSpec::latency_seconds());
  for (int i = 1; i <= 1000; ++i) h.observe(0.001 * i);  // 1 ms .. 1 s
  const double p50 = h.quantile(0.5);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p99);
  EXPECT_GT(p50, 0.1);  // true p50 = 0.5 s; bucket-approximate
  EXPECT_LT(p50, 1.0);
  EXPECT_LE(p99, 1.1);
}

TEST(Registry, HandlesAreStableAndShared) {
  Registry reg;
  Counter& a = reg.counter("requests_total", "help");
  Counter& b = reg.counter("requests_total", "help");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, LabelSetsAreDistinctSeries) {
  Registry reg;
  Counter& ok = reg.counter("rpc_total", "h", {{"status", "ok"}});
  Counter& err = reg.counter("rpc_total", "h", {{"status", "err"}});
  EXPECT_NE(&ok, &err);
  ok.add(3);
  err.add(1);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].series.size(), 2u);
}

TEST(Registry, LabelOrderDoesNotSplitSeries) {
  Registry reg;
  Counter& a = reg.counter("x_total", "h", {{"a", "1"}, {"b", "2"}});
  Counter& b = reg.counter("x_total", "h", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, RejectsBadNamesAndReservedLabels) {
  Registry reg;
  EXPECT_THROW(reg.counter("9starts_with_digit", "h"), std::invalid_argument);
  EXPECT_THROW(reg.counter("has space", "h"), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_total", "h", {{"le", "5"}}), std::invalid_argument);
  EXPECT_THROW(reg.counter("ok_total", "h", {{"0bad", "v"}}), std::invalid_argument);
}

TEST(Registry, KindMismatchThrows) {
  Registry reg;
  reg.counter("depth", "h");
  EXPECT_THROW(reg.gauge("depth", "h"), std::logic_error);
  EXPECT_THROW(reg.histogram("depth", "h", HistogramSpec{}), std::logic_error);
}

// A second registration must not silently keep the first spec's buckets.
TEST(Registry, HistogramSpecMismatchThrows) {
  Registry reg;
  Histogram& h = reg.histogram("lat_seconds", "h", HistogramSpec::latency_seconds());
  EXPECT_EQ(&reg.histogram("lat_seconds", "h", HistogramSpec::latency_seconds()), &h);
  EXPECT_THROW(reg.histogram("lat_seconds", "h", HistogramSpec::gas()), std::logic_error);
  EXPECT_THROW(reg.histogram("lat_seconds", "h", HistogramSpec{1e-3, 2.0, 23},
                             {{"k", "v"}}),
               std::logic_error);
}

TEST(Registry, SnapshotIsSortedByNameAndLabels) {
  Registry reg;
  reg.counter("zzz_total", "h");
  reg.counter("aaa_total", "h", {{"k", "2"}});
  reg.counter("aaa_total", "h", {{"k", "1"}});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].name, "aaa_total");
  EXPECT_EQ(snap[1].name, "zzz_total");
  ASSERT_EQ(snap[0].series.size(), 2u);
  EXPECT_EQ(snap[0].series[0].labels[0].second, "1");
  EXPECT_EQ(snap[0].series[1].labels[0].second, "2");
}

TEST(PrometheusExport, FormatsAllKindsAndEscapes) {
  Registry reg;
  reg.counter("req_total", "Requests", {{"path", "a\"b\\c\nd"}}).add(7);
  reg.gauge("depth", "Depth").set(3.5);
  reg.histogram("lat_seconds", "Latency", HistogramSpec{1.0, 2.0, 2}).observe(1.5);

  const std::string text = to_prometheus(reg);
  EXPECT_NE(text.find("# TYPE req_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("req_total{path=\"a\\\"b\\\\c\\nd\"} 7\n"), std::string::npos);
  EXPECT_NE(text.find("depth 3.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 1\n"), std::string::npos);

  std::string error;
  EXPECT_TRUE(validate_prometheus_text(text, &error)) << error;
}

TEST(PrometheusExport, DeterministicAcrossRegistrationOrder) {
  auto build = [](bool reversed) {
    auto reg = std::make_unique<Registry>();
    const std::vector<std::string> values = reversed
        ? std::vector<std::string>{"b", "a"} : std::vector<std::string>{"a", "b"};
    for (const auto& v : values) reg->counter("k_total", "h", {{"v", v}}).add(1);
    reg->gauge("g", "h").set(2);
    return to_prometheus(*reg);
  };
  EXPECT_EQ(build(false), build(true));
}

TEST(PrometheusValidator, RejectsMalformedText) {
  std::string error;
  EXPECT_FALSE(validate_prometheus_text("9bad_name 1\n", &error));
  EXPECT_FALSE(validate_prometheus_text("name{unclosed=\"v\" 1\n", &error));
  EXPECT_FALSE(validate_prometheus_text("name notanumber\n", &error));
  EXPECT_FALSE(validate_prometheus_text("# TYPE x nonsense\n", &error));
  // Histogram suffixes without a histogram TYPE declaration are an error.
  EXPECT_FALSE(validate_prometheus_text(
      "# TYPE x counter\nx_bucket{le=\"+Inf\"} 1\n", &error));
  EXPECT_TRUE(validate_prometheus_text("x_total 5\nx_gauge -1.5e3\n", &error))
      << error;
}

TEST(Tracer, SpansAndInstantsRecordInOrder) {
  Tracer tracer(16);
  tracer.instant("first");
  { auto s = tracer.span("work"); }
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[0].phase, 'i');
  EXPECT_EQ(events[1].name, "work");
  EXPECT_EQ(events[1].phase, 'X');
  EXPECT_GE(events[1].wall_dur_us, 0.0);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[1].seq, 1u);
  // No virtual clock attached.
  EXPECT_DOUBLE_EQ(events[0].virt_time, -1.0);
}

TEST(Tracer, RingDropsOldestAndCounts) {
  Tracer tracer(4);
  for (int i = 0; i < 10; ++i) tracer.instant("e" + std::to_string(i));
  EXPECT_EQ(tracer.total_recorded(), 10u);
  EXPECT_EQ(tracer.dropped(), 6u);
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().name, "e6");  // oldest survivor
  EXPECT_EQ(events.back().name, "e9");
}

TEST(Tracer, VirtualClockStampsSpans) {
  Tracer tracer;
  double now = 100.0;
  tracer.set_virtual_clock([&now] { return now; });
  {
    auto s = tracer.span("sim_work");
    now = 107.5;
  }
  tracer.set_virtual_clock({});
  tracer.instant("after_detach");
  const auto events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].virt_time, 100.0);
  EXPECT_DOUBLE_EQ(events[0].virt_dur, 7.5);
  EXPECT_DOUBLE_EQ(events[1].virt_time, -1.0);
}

TEST(ChromeTraceExport, EmitsWellFormedEvents) {
  Tracer tracer;
  double now = 3.0;
  tracer.set_virtual_clock([&now] { return now; });
  { auto s = tracer.span("connect"); now = 4.0; }
  tracer.set_virtual_clock({});
  const std::string json = to_chrome_trace(tracer);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"connect\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"virt_s\":3"), std::string::npos);
  EXPECT_NE(json.find("\"virt_dur_s\":1"), std::string::npos);
}

TEST(Telemetry, ResolveFallsBackToGlobal) {
  Telemetry local;
  EXPECT_EQ(&resolve(&local), &local);
  EXPECT_EQ(&resolve(nullptr), &global());
  EXPECT_EQ(&global(), &global());  // stable singleton
}

/// A handle struct as instrumented layers declare one; counts its builds.
struct RaceHandles {
  static inline std::atomic<int> built{0};
  explicit RaceHandles(Registry& r)
      : hits(r.counter("race_hits_total", "h")),
        outcomes(r, "race_outcomes_total", "h", "outcome",
                 [](std::size_t i) { return i == 0 ? "won" : "lost"; }) {
    built.fetch_add(1);
  }
  Counter& hits;
  CounterVec<2> outcomes;
};

TEST(Telemetry, HandlesAreBuiltOncePerSink) {
  RaceHandles::built = 0;
  Telemetry a, b;
  RaceHandles& ha = a.handles<RaceHandles>();
  EXPECT_EQ(&a.handles<RaceHandles>(), &ha);
  EXPECT_NE(&b.handles<RaceHandles>(), &ha);
  EXPECT_EQ(RaceHandles::built.load(), 2);
  // Building registers every family and closed-set series, all at zero.
  ha.outcomes[1].inc();
  EXPECT_EQ(a.registry.family_count(), 2u);
  EXPECT_EQ(&a.registry.counter("race_outcomes_total", "h", {{"outcome", "lost"}}),
            &ha.outcomes[1]);
  EXPECT_EQ(ha.outcomes[0].value(), 0u);
}

// Four threads race the first handles<H>() call on a fresh sink while a fifth
// exports: exactly one H is built and no add is lost (run under TSan by
// scripts/check.sh).
TEST(Telemetry, FourThreadsRaceTheFirstHandlesCall) {
  RaceHandles::built = 0;
  Telemetry tel;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;
  std::atomic<bool> go{false}, done{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        tel.handles<RaceHandles>().hits.inc();
    });
  std::thread exporter([&] {
    while (!done.load())
      EXPECT_TRUE(validate_prometheus_text(to_prometheus(tel.registry)));
  });
  go = true;
  for (auto& w : workers) w.join();
  done = true;
  exporter.join();
  EXPECT_EQ(RaceHandles::built.load(), 1);
  EXPECT_EQ(tel.handles<RaceHandles>().hits.value(), kThreads * kPerThread);
  EXPECT_NE(to_prometheus(tel.registry).find("race_hits_total 80000\n"),
            std::string::npos);
}

TEST(Summary, RendersEveryFamily) {
  Registry reg;
  reg.counter("hits_total", "h").add(12);
  reg.gauge("depth", "h").set(3);
  reg.histogram("lat_seconds", "h", HistogramSpec::latency_seconds()).observe(0.25);
  const std::string out = render_summary(reg);
  EXPECT_NE(out.find("hits_total"), std::string::npos);
  EXPECT_NE(out.find("depth"), std::string::npos);
  EXPECT_NE(out.find("lat_seconds"), std::string::npos);
}

}  // namespace
}  // namespace sc::telemetry
