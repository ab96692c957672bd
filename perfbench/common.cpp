#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

double quantile(std::vector<double> sample, double q) {
  if (sample.empty()) return 0.0;
  std::sort(sample.begin(), sample.end());
  const double pos = q * static_cast<double>(sample.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sample.size() - 1);
  return sample[lo] + (pos - static_cast<double>(lo)) * (sample[hi] - sample[lo]);
}

double sum(const std::vector<double>& sample) {
  return std::accumulate(sample.begin(), sample.end(), 0.0);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter keeps the parent's peak
  // across fork+exec, so it would report the launcher's size.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  return 0.0;
}

// -- Host-speed calibration -----------------------------------------------------

namespace {

// Eight independent multiply-add chains: high instruction-level parallelism,
// so a busy SMT sibling slows it the way it slows the field arithmetic.
[[gnu::noinline]] std::uint64_t probe_work(std::uint64_t rounds) {
  std::uint64_t a[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  for (std::uint64_t i = 0; i < rounds; ++i)
    for (int k = 0; k < 8; ++k)
      a[k] = a[k] * 0x9E3779B97F4A7C15ULL + (a[(k + 1) & 7] >> 7);
  std::uint64_t r = 0;
  for (std::uint64_t v : a) r ^= v;
  return r;
}

volatile std::uint64_t probe_sink = 0;

}  // namespace

void SpeedProbe::mark() {
  const auto t0 = Clock::now();
  probe_sink = probe_sink + probe_work(100'000);
  marks_.push_back(ms_since(t0));
}

double SpeedProbe::calibrate(double raw_ms) const {
  if (marks_.size() < 2) return raw_ms;
  const double probe = (marks_[marks_.size() - 2] + marks_.back()) / 2.0;
  return raw_ms * kProbeIdleMs / probe;
}

double SpeedProbe::mean_slowdown() const {
  return marks_.empty() ? 1.0 : sum(marks_) / static_cast<double>(marks_.size()) / kProbeIdleMs;
}

// -- Telemetry readers ----------------------------------------------------------

namespace {

const sc::telemetry::Registry::FamilyView* find_family(
    const std::vector<sc::telemetry::Registry::FamilyView>& families,
    std::string_view name) {
  for (const auto& family : families)
    if (family.name == name) return &family;
  return nullptr;
}

}  // namespace

double counter_total(const sc::telemetry::Registry& registry, std::string_view family) {
  const auto families = registry.snapshot();
  const auto* found = find_family(families, family);
  if (!found) return 0.0;
  double total = 0.0;
  for (const auto& series : found->series)
    if (series.counter) total += static_cast<double>(series.counter->value());
  return total;
}

HistogramTotals histogram_totals(const sc::telemetry::Registry& registry,
                                 std::string_view family) {
  HistogramTotals totals;
  const auto families = registry.snapshot();
  const auto* found = find_family(families, family);
  if (!found) return totals;
  for (const auto& series : found->series) {
    const sc::telemetry::Histogram* h = series.histogram;
    if (!h) continue;
    totals.count += h->count();
    totals.sum += h->sum();
    const std::vector<std::uint64_t> counts = h->bucket_counts();
    if (totals.buckets.empty()) {
      totals.buckets.assign(counts.size(), 0);
      totals.bounds = h->bounds();
    }
    for (std::size_t i = 0; i < counts.size() && i < totals.buckets.size(); ++i)
      totals.buckets[i] += counts[i];
  }
  return totals;
}

HistogramTotals HistogramTotals::operator-(const HistogramTotals& earlier) const {
  HistogramTotals out = *this;
  out.count -= earlier.count;
  out.sum -= earlier.sum;
  for (std::size_t i = 0; i < out.buckets.size() && i < earlier.buckets.size(); ++i)
    out.buckets[i] -= earlier.buckets[i];
  return out;
}

double HistogramTotals::quantile(double q) const {
  if (count == 0) return 0.0;
  const double rank = q * static_cast<double>(count);
  double seen = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket > 0.0 && seen + in_bucket >= rank) {
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      // The +Inf bucket has no upper bound: report its lower edge.
      if (i >= bounds.size()) return lower;
      return lower + (bounds[i] - lower) * ((rank - seen) / in_bucket);
    }
    seen += in_bucket;
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

// -- Span log -------------------------------------------------------------------

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (!log_) return;
  begin_ = Clock::now();
  Span span;
  span.name = name;
  span.start_us =
      std::chrono::duration<double, std::micro>(begin_ - log_->epoch_).count();
  span.parent = log_->open_.empty() ? -1 : static_cast<int>(log_->open_.back());
  span.op = log_->op_;
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(span));
  log_->open_.push_back(index_);
}

SpanLog::Scope::~Scope() {
  if (!log_) return;
  log_->spans_[index_].dur_us =
      std::chrono::duration<double, std::micro>(Clock::now() - begin_).count();
  log_->open_.pop_back();
}

void SpanLog::drain(sc::telemetry::Tracer& tracer) {
  if (enabled_) {
    // The tracer stamps wall time from its own epoch; an instant event
    // recorded now pins that epoch against this log's clock.
    tracer.instant("perfbench.sync");
    const double now_us =
        std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
    const std::vector<sc::telemetry::TraceEvent> events = tracer.events();
    const double offset_us = events.empty() ? 0.0 : now_us - events.back().wall_us;
    for (const auto& event : events) {
      if (event.phase != 'X') continue;
      Span span;
      span.name = event.name;
      span.start_us = event.wall_us + offset_us;
      span.dur_us = event.wall_dur_us;
      span.op = op_;
      span.program = true;
      spans_.push_back(std::move(span));
    }
  }
  tracer.clear();
}

std::vector<double> SpanLog::durations_ms(std::string_view name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (span.name == name) out.push_back(span.dur_us / 1000.0);
  return out;
}

double SpanLog::total_ms(std::string_view name) const {
  return sum(durations_ms(name));
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (!out) return false;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"op\":%u,\"parent\":%d}}%s\n",
                 s.name.c_str(), s.program ? "program" : "benchmark", s.start_us,
                 s.dur_us, s.op, s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
