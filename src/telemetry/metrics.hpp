// Metric primitives and the process-wide (but injectable) registry.
//
// Every measurable quantity in the repro — VM steps, tx statuses, mempool
// depth, block-connect counts, network latency — is a *labeled series* inside
// a *metric family* owned by a Registry. Three family kinds:
//
//   Counter    monotonically increasing uint64. Sharded atomics: concurrent
//              writers (the parallel miner's workers) land on different cache
//              lines, so a hot-loop `add()` never contends.
//   Gauge      a double that can go up and down (mempool depth, orphan
//              buffer size).
//   Histogram  log-scale buckets (each bound = first_bound · growth^i) plus
//              exact sum/count, so mean is exact and quantiles are
//              bucket-approximate. Atomic per-bucket counters.
//
// Handles returned by the registry are stable for the registry's lifetime;
// each layer resolves its families once into a handle struct (telemetry.hpp)
// and bumps the cached references. Registration is mutex-guarded; recording
// is lock-free. Naming rules are enforced at registration (see
// docs/telemetry.md) so the Prometheus export always parses.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sc::telemetry {

using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

/// True for Prometheus-legal metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
bool valid_metric_name(std::string_view name);
/// True for Prometheus-legal label names: [a-zA-Z_][a-zA-Z0-9_]*.
bool valid_label_name(std::string_view name);

class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept;
  void inc() noexcept { add(1); }
  std::uint64_t value() const noexcept;

 private:
  // One cache line per shard: writers from different threads never share a
  // line, so the miner's workers can bump the same counter contention-free.
  static constexpr std::size_t kShards = 8;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Shard, kShards> shards_{};
};

class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double v) noexcept { value_.fetch_add(v, std::memory_order_relaxed); }
  void sub(double v) noexcept { add(-v); }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Geometric bucket layout: upper bounds first_bound · growth^i for
/// i = 0..bucket_count-1, plus an implicit +Inf bucket. Log-scale because the
/// measured quantities (gas, latency) span orders of magnitude.
struct HistogramSpec {
  double first_bound = 1e-3;
  double growth = 2.0;
  std::size_t bucket_count = 32;

  std::vector<double> bounds() const;
  bool operator==(const HistogramSpec&) const = default;

  /// Latencies in sim-seconds: 1 ms .. ~2400 s.
  static HistogramSpec latency_seconds() { return {1e-3, 2.0, 22}; }
  /// Gas amounts: 1k .. ~1G gas.
  static HistogramSpec gas() { return {1e3, 2.0, 21}; }
};

class Histogram {
 public:
  explicit Histogram(const HistogramSpec& spec);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double x) noexcept;

  std::uint64_t count() const noexcept;
  double sum() const noexcept;
  double mean() const noexcept;
  /// Per-bucket (non-cumulative) counts; the last entry is the +Inf bucket.
  std::vector<std::uint64_t> bucket_counts() const;
  /// Upper bounds, excluding +Inf. Parallel to bucket_counts()[0..n-1].
  const std::vector<double>& bounds() const { return bounds_; }
  /// Bucket-interpolated quantile in [0, 1]; 0 when empty. Approximate by
  /// construction — use for summaries, not assertions.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  ///< bounds+1 slots.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
std::string_view kind_name(MetricKind kind);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. The returned reference stays valid for the registry's
  /// lifetime; resolve once, then record lock-free. Throws std::invalid_argument
  /// on malformed names/labels and std::logic_error when `name` already exists
  /// with a different kind or (histograms) a different HistogramSpec.
  Counter& counter(std::string_view name, std::string_view help, Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help, Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help,
                       const HistogramSpec& spec, Labels labels = {});

  /// Read-side view for exporters: families sorted by name, series sorted by
  /// their label sets, so export output is deterministic regardless of
  /// registration or bump order.
  struct SeriesView {
    Labels labels;  ///< Sorted by label name.
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };
  struct FamilyView {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    std::vector<SeriesView> series;
  };
  std::vector<FamilyView> snapshot() const;

  std::size_t family_count() const;

 private:
  struct Series {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    std::string help;
    MetricKind kind = MetricKind::kCounter;
    HistogramSpec spec;
    std::map<std::string, Series> series;  ///< keyed by canonical label string
  };

  Series& resolve(std::string_view name, std::string_view help, MetricKind kind,
                  const HistogramSpec& spec, Labels labels);

  mutable std::mutex mu_;
  std::map<std::string, Family, std::less<>> families_;
};

/// A counter family over a closed label set, every series resolved up front
/// and indexed by the layer's enum; `value_of(i)` names label value i.
template <std::size_t N>
class CounterVec {
 public:
  template <class ValueOf>
  CounterVec(Registry& registry, std::string_view name, std::string_view help,
             const std::string& label, ValueOf value_of) {
    for (std::size_t i = 0; i < N; ++i)
      series_[i] = &registry.counter(name, help, {{label, std::string(value_of(i))}});
  }
  Counter& operator[](auto i) const { return *series_[static_cast<std::size_t>(i)]; }

 private:
  std::array<Counter*, N> series_{};
};

}  // namespace sc::telemetry
