// Telemetry overhead harness: proves the instrumentation contract of
// docs/telemetry.md — a metered hot loop must stay within 5% of the same
// loop with metrics compiled OUT entirely.
//
// The workload is the PoW grind (PowScratch::attempt), the hottest
// instrumented loop in the repo. Both variants run in one binary via a
// templated grind: NoopCounter::add() is an empty inline the optimizer
// deletes (the "metrics removed at compile time" baseline), the other
// variant bumps a real telemetry::Counter every attempt — deliberately
// HARSHER than production, where the miner batches into one add() per
// mine() call. Microbench rows time the individual primitives.
//
// One pair of grinds reads the host's drift as much as the counter: the
// overhead of an unchanged grind has read 5.4 % and 3.0 % in consecutive
// runs. So the two variants run in interleaved rounds, alternating which
// goes first, and the gate reads the median round's overhead.
//
// Flags (bench_util.hpp): --runs=small|full|<attempts> sets the grind size
// (attempts per variant per round); --out=PATH.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/pow.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/tracer.hpp"

namespace {

using namespace sc;
using Clock = std::chrono::steady_clock;

chain::BlockHeader bench_header() {
  chain::BlockHeader h;
  h.height = 42;
  for (int i = 0; i < 32; ++i) h.prev_id.bytes[i] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 32; ++i)
    h.merkle_root.bytes[i] = static_cast<std::uint8_t>(255 - i);
  h.timestamp = 1234567;
  // Astronomically hard so the grind never terminates early.
  h.difficulty = ~std::uint64_t{0};
  for (int i = 0; i < 20; ++i) h.miner.bytes[i] = static_cast<std::uint8_t>(i * 7);
  return h;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Compile-time no-op with the Counter recording interface: the baseline a
/// build without telemetry would produce.
struct NoopCounter {
  void add(std::uint64_t = 1) noexcept {}
};

/// One grind loop, counter type resolved at compile time — identical codegen
/// apart from the metric bump.
template <typename CounterT>
double grind_hps(const chain::BlockHeader& header, std::uint64_t attempts,
                 CounterT& attempts_metric) {
  chain::PowScratch scratch(header);
  std::uint64_t hits = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < attempts; ++i) {
    if (scratch.attempt(header.nonce + i)) ++hits;
    attempts_metric.add(1);
  }
  const double elapsed = seconds_since(start);
  if (hits) std::printf("(unexpected hit)\n");
  return static_cast<double>(attempts) / elapsed;
}

/// One round: both variants, in the order it names.
struct Round {
  bool noop_first = true;
  double noop_hps = 0;
  double instrumented_hps = 0;
  double overhead_pct = 0;
};

/// Nanoseconds per call of `fn` over `iters` iterations.
template <typename Fn>
double ns_per_call(std::uint64_t iters, Fn&& fn) {
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) fn(i);
  return seconds_since(start) * 1e9 / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::BenchRun run(argc, argv, "telemetry");
  const std::uint64_t attempts = run.size(50'000, 2'000'000);

  const chain::BlockHeader header = bench_header();

  constexpr int kRounds = 7;  // odd, so the median is one round's reading
  sc::bench::header("telemetry overhead: instrumented PoW grind vs no-op");
  std::printf("attempts per variant per round: %llu, %d rounds (per-attempt add(), worse "
              "than the miner's batched flush)\n",
              static_cast<unsigned long long>(attempts), kRounds);

  NoopCounter noop;
  telemetry::Registry registry;
  telemetry::Counter& real =
      registry.counter("bench_pow_attempts_total", "bench counter");
  grind_hps(header, attempts / 10 + 1, noop);       // warmup
  std::vector<Round> rounds(kRounds);
  for (int i = 0; i < kRounds; ++i) {
    Round& r = rounds[static_cast<std::size_t>(i)];
    r.noop_first = i % 2 == 0;
    if (r.noop_first) r.noop_hps = grind_hps(header, attempts, noop);
    r.instrumented_hps = grind_hps(header, attempts, real);
    if (!r.noop_first) r.noop_hps = grind_hps(header, attempts, noop);
    r.overhead_pct = (r.noop_hps / r.instrumented_hps - 1.0) * 100.0;
  }
  const auto median = [&](double Round::*field) {
    std::vector<double> v;
    for (const Round& r : rounds) v.push_back(r.*field);
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double noop_hps = median(&Round::noop_hps);
  const double instrumented_hps = median(&Round::instrumented_hps);
  const double overhead_pct = median(&Round::overhead_pct);
  const bool within_contract = overhead_pct <= 5.0;

  // Primitive costs, amortized over tight loops.
  const std::uint64_t micro_iters = attempts < 1'000'000 ? 1'000'000 : attempts;
  telemetry::Counter& c = registry.counter("bench_micro_total", "bench");
  const double counter_add_ns = ns_per_call(micro_iters, [&](std::uint64_t) { c.add(1); });
  telemetry::Histogram& h = registry.histogram(
      "bench_micro_seconds", "bench", telemetry::HistogramSpec::latency_seconds());
  const double histogram_observe_ns = ns_per_call(
      micro_iters, [&](std::uint64_t i) { h.observe(1e-3 * static_cast<double>(i % 4096)); });
  telemetry::Tracer tracer;
  const std::uint64_t span_iters = micro_iters / 100;  // spans hit a mutex + clock
  const double tracer_span_ns =
      ns_per_call(span_iters, [&](std::uint64_t) { auto s = tracer.span("bench"); });

  std::printf("\n%-6s %-13s %14s %14s %10s\n", "round", "first", "no-op h/s",
              "counter h/s", "overhead");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    std::printf("%-6zu %-13s %14.0f %14.0f %9.2f%%\n", i,
                r.noop_first ? "no-op" : "instrumented", r.noop_hps, r.instrumented_hps,
                r.overhead_pct);
  }
  std::printf("%-6s %-13s %14.0f %14.0f %9.2f%%\n", "median", "", noop_hps, instrumented_hps,
              overhead_pct);
  std::printf("\nmedian round overhead: %.2f%%  (contract: <= 5%%)  ->  %s\n", overhead_pct,
              within_contract ? "PASS" : "FAIL");
  std::printf("\nprimitive costs:\n");
  std::printf("  Counter::add        %8.1f ns\n", counter_add_ns);
  std::printf("  Histogram::observe  %8.1f ns\n", histogram_observe_ns);
  std::printf("  Tracer span         %8.1f ns\n", tracer_span_ns);

  run.results("    \"attempts\": %llu,\n",
              static_cast<unsigned long long>(attempts));
  run.results("    \"noop_hps\": %.1f,\n", noop_hps);
  run.results("    \"instrumented_hps\": %.1f,\n", instrumented_hps);
  run.results("    \"overhead_pct\": %.3f,\n", overhead_pct);
  run.results("    \"rounds\": [\n");
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const Round& r = rounds[i];
    run.results("      {\"first\": \"%s\", \"noop_hps\": %.1f, \"instrumented_hps\": %.1f, "
                "\"overhead_pct\": %.3f}%s\n",
                r.noop_first ? "noop" : "instrumented", r.noop_hps, r.instrumented_hps,
                r.overhead_pct, i + 1 < rounds.size() ? "," : "");
  }
  run.results("    ],\n");
  run.results("    \"counter_add_ns\": %.2f,\n", counter_add_ns);
  run.results("    \"histogram_observe_ns\": %.2f,\n", histogram_observe_ns);
  run.results("    \"tracer_span_ns\": %.2f,\n", tracer_span_ns);
  run.results("    \"within_contract\": %s", within_contract ? "true" : "false");

  // The smoke run is a syntax/liveness gate, not a perf gate: CI machines are
  // noisy, so the contract check reports but does not fail the build.
  return run.write();
}
