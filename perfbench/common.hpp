// Shared pieces of the repository benchmark: run options, the result record,
// the metric catalogue, sample statistics, readers for the program's exported
// telemetry, and the in-memory span log of the traced run.
//
// The benchmark observes the program only from outside: it times its own calls
// into each module's public functions and reads the counters, histograms and
// tracer spans the program already exports through an injected
// telemetry::Telemetry. Nothing here reaches into src/ internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Every run completes at least this many timed ops, so a p90 has at least
/// ten samples beyond it even on a slow host.
inline constexpr std::uint64_t kMinOps = 100;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< Measured (timed) wall time per run.
  bool trace = false;
  bool smoke = false;     ///< Tiny sizes: exercises code paths, not speed.
  std::string scratch;    ///< Directory for durable stores; removed after use.
};

/// One metric the benchmark reports, with its unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0). Each is the workload's own
/// reading of a user-visible quantity; README.md maps them per workload.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},
    {"txs_per_s", "1/s"},
    {"blocks_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// Printed by every traced run (--trace 1). A layer the workload does not
/// exercise reads 0.
inline constexpr MetricSpec kPerLayer[] = {
    {"core.platform.construct_ms_p50", "ms"},
    {"core.platform.release_ms_p50", "ms"},
    {"core.platform.run_ms_p50", "ms"},
    {"core.platform.mine_block_share", "ratio"},
    {"core.platform.mine_block_ms_p50", "ms"},
    {"core.platform.reveal_win_ratio", "ratio"},
    {"core.platform.report_confirm_sim_s_p50", "s"},
    {"chain.connect_ms_p50", "ms"},
    {"chain.template_ms_p50", "ms"},
    {"chain.blocks_per_release", "count"},
    {"chain.reorgs_per_kblock", "1/kblock"},
    {"chain.reorged_blocks_per_kblock", "1/kblock"},
    {"chain.mempool.add_us_p50", "us"},
    {"chain.mempool.add_busy_share", "ratio"},
    {"chain.mempool.select_ms_p50", "ms"},
    {"chain.mempool.admitted_per_release", "count"},
    {"chain.mempool.rejected_per_release", "count"},
    {"crypto.sig_verifies_per_tx", "count"},
    {"chain.exec.conflict_ratio", "ratio"},
    {"chain.exec.reexecuted_per_block", "count"},
    {"chain.state.root_update_ms_mean", "ms"},
    {"vm.steps_per_tx", "count"},
    {"vm.gas_per_tx", "gas"},
    {"store.fsyncs_per_block", "count"},
    {"store.bytes_per_block", "bytes"},
    {"store.restart_ms_p50", "ms"},
    {"core.node.sync_ms_p50", "ms"},
    {"core.node.sync_retries_per_catchup", "count"},
    {"core.node.sync_timeouts_per_catchup", "count"},
    {"core.node.blocks_rejected", "count"},
    {"sim.net.messages_per_block", "count"},
    {"core.cluster.run_ms_per_block", "ms"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
};

/// What one workload run produced.
struct Result {
  std::vector<std::string> errors;  ///< Failed correctness gates.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
  /// Free-form facts printed before the result line (sample counts, digests).
  std::map<std::string, std::string> info;

  /// Records a correctness gate; a false `ok` fails the run.
  void gate(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
};

// -- Sample statistics --------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> sample, double q);
inline double median(std::vector<double> sample) {
  return quantile(std::move(sample), 0.5);
}
double sum(const std::vector<double>& sample);
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

// -- Host-speed calibration -----------------------------------------------------

/// On a shared host, another tenant busy on this core's SMT sibling slows
/// integer-heavy code by up to ~1.7x, in phases of seconds to minutes — far
/// more than the changes this benchmark must resolve. The benchmark
/// therefore times a fixed block of benchmark-local integer work (independent
/// 64-bit multiply chains, the shape of the 256-bit field arithmetic that
/// dominates the program) at every op boundary and reports op times scaled
/// to the probe's speed on an idle core: calibrated = raw × kProbeIdleMs /
/// probe, with the probe taken as the mean of the readings before and after
/// the op. Raw wall times are printed alongside.
class SpeedProbe {
 public:
  /// The probe's time on an idle core of the host the bounds were set on
  /// (4-vCPU Intel Xeon, RelWithDebInfo).
  static constexpr double kProbeIdleMs = 0.78;

  /// Runs the probe now and records its time.
  void mark();
  /// Calibrated time of an op that ran between the last two marks.
  double calibrate(double raw_ms) const;
  /// Mean probe time over every mark ÷ kProbeIdleMs (1 = idle host).
  double mean_slowdown() const;

 private:
  std::vector<double> marks_;
};

// -- Readers for the program's exported telemetry -----------------------------

/// Sum of every series of a counter family (0 when the family is absent).
double counter_total(const sc::telemetry::Registry& registry, std::string_view family);

struct HistogramTotals {
  std::uint64_t count = 0;
  double sum = 0.0;
  /// Bucket counts summed over series (bounds shared by the family).
  std::vector<std::uint64_t> buckets;
  std::vector<double> bounds;

  HistogramTotals operator-(const HistogramTotals& earlier) const;
  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  /// Bucket-interpolated quantile, as telemetry::Histogram::quantile does it.
  double quantile(double q) const;
};
HistogramTotals histogram_totals(const sc::telemetry::Registry& registry,
                                 std::string_view family);

// -- Spans of the traced run ----------------------------------------------------

/// In-memory span log. The benchmark opens a Scope around each call into a
/// layer; drain() moves the program's own tracer spans (the tracer ring holds
/// only Tracer::kDefaultCapacity events) into the log between ops. Nothing is
/// recorded while disabled, which is how untraced ops run.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;  ///< On this log's clock.
    double dur_us = 0.0;
    int parent = -1;        ///< Index of the enclosing benchmark span.
    std::uint32_t op = 0;
    bool program = false;   ///< Recorded by the program's tracer.
  };

  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
    Clock::time_point begin_;
  };

  SpanLog() : epoch_(Clock::now()) {}

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_op(std::uint32_t op) { op_ = op; }

  [[nodiscard]] Scope scope(const char* name) { return Scope(enabled_ ? this : nullptr, name); }

  /// Moves the tracer's completed spans into the log (when enabled) and
  /// empties its ring either way, so the next op starts from a clean ring.
  void drain(sc::telemetry::Tracer& tracer);

  std::vector<double> durations_ms(std::string_view name) const;
  double total_ms(std::string_view name) const;
  std::size_t size() const { return spans_.size(); }

  /// Chrome trace_event JSON (chrome://tracing, Perfetto).
  bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::uint32_t op_ = 0;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< Stack of open benchmark spans.
};

// -- Workloads ------------------------------------------------------------------

Result run_economy(const Options& options, SpanLog& spans);
Result run_block_pipeline(const Options& options, SpanLog& spans);
Result run_replication(const Options& options, SpanLog& spans);

/// Execution lanes the block_pipeline chain uses: min(hardware threads, 4).
unsigned pipeline_lanes();

}  // namespace perfbench
