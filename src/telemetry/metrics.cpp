#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sc::telemetry {

namespace {

/// Per-thread shard slot, assigned round-robin on first use. The mask keeps
/// it in range for any shard count that is a power of two.
std::size_t shard_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// Canonical key for a label set: labels sorted by name, joined with
/// non-printing separators so no legal label value can collide.
std::string label_key(const Labels& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x1f';
    key += v;
    key += '\x1e';
  }
  return key;
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
  };
  if (!head(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(),
                     [&](char c) { return head(c) || (c >= '0' && c <= '9'); });
}

bool valid_label_name(std::string_view name) {
  if (name.empty()) return false;
  auto head = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!head(name[0])) return false;
  return std::all_of(name.begin() + 1, name.end(),
                     [&](char c) { return head(c) || (c >= '0' && c <= '9'); });
}

void Counter::add(std::uint64_t n) noexcept {
  shards_[shard_slot() & (kShards - 1)].value.fetch_add(n, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const noexcept {
  std::uint64_t total = 0;
  for (const Shard& s : shards_) total += s.value.load(std::memory_order_relaxed);
  return total;
}

std::vector<double> HistogramSpec::bounds() const {
  std::vector<double> out;
  out.reserve(bucket_count);
  double b = first_bound;
  for (std::size_t i = 0; i < bucket_count; ++i) {
    out.push_back(b);
    b *= growth;
  }
  return out;
}

Histogram::Histogram(const HistogramSpec& spec) : bounds_(spec.bounds()) {
  buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
}

void Histogram::observe(double x) noexcept {
  // Prometheus `le` semantics: bucket i counts x <= bounds_[i]; everything
  // above the last bound lands in the +Inf slot.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

std::uint64_t Histogram::count() const noexcept {
  return count_.load(std::memory_order_relaxed);
}

double Histogram::sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::quantile(double q) const {
  const std::vector<std::uint64_t> counts = bucket_counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (static_cast<double>(cumulative + counts[i]) < rank) {
      cumulative += counts[i];
      continue;
    }
    const double lo = i == 0 ? 0.0 : bounds_[i - 1];
    const double hi = i < bounds_.size() ? bounds_[i] : bounds_.back();
    if (counts[i] == 0) return hi;
    const double frac = (rank - static_cast<double>(cumulative)) /
                        static_cast<double>(counts[i]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::string_view kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

Registry::Series& Registry::resolve(std::string_view name, std::string_view help,
                                    MetricKind kind, const HistogramSpec& spec,
                                    Labels labels) {
  if (!valid_metric_name(name))
    throw std::invalid_argument("telemetry: invalid metric name: " + std::string(name));
  for (const auto& [k, v] : labels) {
    (void)v;
    if (!valid_label_name(k) || k == "le")
      throw std::invalid_argument("telemetry: invalid label name: " + k);
  }
  std::sort(labels.begin(), labels.end());

  std::lock_guard<std::mutex> lock(mu_);
  auto [fit, inserted] = families_.try_emplace(std::string(name));
  Family& family = fit->second;
  if (inserted) {
    family.help = std::string(help);
    family.kind = kind;
    family.spec = spec;
  } else if (family.kind != kind) {
    throw std::logic_error("telemetry: metric " + std::string(name) +
                           " re-registered as a different kind");
  } else if (kind == MetricKind::kHistogram && !(family.spec == spec)) {
    throw std::logic_error("telemetry: histogram " + std::string(name) +
                           " re-registered with a different bucket spec");
  }

  auto [sit, fresh] = family.series.try_emplace(label_key(labels));
  Series& series = sit->second;
  if (fresh) {
    series.labels = std::move(labels);
    switch (kind) {
      case MetricKind::kCounter: series.counter = std::make_unique<Counter>(); break;
      case MetricKind::kGauge: series.gauge = std::make_unique<Gauge>(); break;
      case MetricKind::kHistogram:
        series.histogram = std::make_unique<Histogram>(family.spec);
        break;
    }
  }
  return series;
}

Counter& Registry::counter(std::string_view name, std::string_view help, Labels labels) {
  return *resolve(name, help, MetricKind::kCounter, {}, std::move(labels)).counter;
}

Gauge& Registry::gauge(std::string_view name, std::string_view help, Labels labels) {
  return *resolve(name, help, MetricKind::kGauge, {}, std::move(labels)).gauge;
}

Histogram& Registry::histogram(std::string_view name, std::string_view help,
                               const HistogramSpec& spec, Labels labels) {
  return *resolve(name, help, MetricKind::kHistogram, spec, std::move(labels)).histogram;
}

std::vector<Registry::FamilyView> Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<FamilyView> out;
  out.reserve(families_.size());
  for (const auto& [name, family] : families_) {
    FamilyView view;
    view.name = name;
    view.help = family.help;
    view.kind = family.kind;
    for (const auto& [key, series] : family.series) {
      (void)key;
      view.series.push_back({series.labels, series.counter.get(), series.gauge.get(),
                             series.histogram.get()});
    }
    out.push_back(std::move(view));
  }
  return out;
}

std::size_t Registry::family_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return families_.size();
}

}  // namespace sc::telemetry
