// PoW hash-throughput harness: naive vs midstate vs parallel mining paths.
//
// Measures hashes/sec for (1) the naive path — re-serialize the header and
// run a full double-SHA-256 per nonce, exactly what mine() did before the
// PowScratch rewrite; (2) the midstate + serialize-once path the miner now
// uses; (3) mine_parallel() across the worker pool. Results print as a table
// and persist to BENCH_pow.json (schema documented in EXPERIMENTS.md) so the
// repo's perf trajectory is comparable across PRs.
//
// Flags: --runs=small|full|<attempts> and --out=PATH (bench_util.hpp), plus
//   --threads=N   worker count for the parallel row (default: hardware threads)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "chain/pow.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace sc;
using Clock = std::chrono::steady_clock;

chain::BlockHeader bench_header() {
  chain::BlockHeader h;
  h.height = 42;
  for (int i = 0; i < 32; ++i) h.prev_id.bytes[i] = static_cast<std::uint8_t>(i);
  for (int i = 0; i < 32; ++i) h.merkle_root.bytes[i] = static_cast<std::uint8_t>(255 - i);
  h.timestamp = 1234567;
  // Astronomically hard: the grind never terminates early, so every path
  // performs exactly `attempts` double hashes.
  h.difficulty = ~std::uint64_t{0};
  h.nonce = 0;
  for (int i = 0; i < 20; ++i) h.miner.bytes[i] = static_cast<std::uint8_t>(i * 7);
  return h;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The pre-PowScratch hot path: full serialize + double digest per attempt.
double naive_hps(const chain::BlockHeader& header, std::uint64_t attempts) {
  chain::BlockHeader candidate = header;
  const crypto::U256 target = chain::target_from_difficulty(header.difficulty);
  std::uint64_t hits = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < attempts; ++i) {
    if (crypto::U256::from_hash(candidate.id()) <= target) ++hits;
    ++candidate.nonce;
  }
  const double elapsed = seconds_since(start);
  if (hits) std::printf("(unexpected hit)\n");
  return static_cast<double>(attempts) / elapsed;
}

double midstate_hps(const chain::BlockHeader& header, std::uint64_t attempts) {
  chain::PowScratch scratch(header);
  std::uint64_t hits = 0;
  const auto start = Clock::now();
  for (std::uint64_t i = 0; i < attempts; ++i) {
    if (scratch.attempt(header.nonce + i)) ++hits;
  }
  const double elapsed = seconds_since(start);
  if (hits) std::printf("(unexpected hit)\n");
  return static_cast<double>(attempts) / elapsed;
}

double parallel_hps(const chain::BlockHeader& header, std::uint64_t attempts,
                    unsigned threads) {
  const auto start = Clock::now();
  const auto found = chain::mine_parallel(header, attempts, threads);
  const double elapsed = seconds_since(start);
  if (found) std::printf("(unexpected hit)\n");
  return static_cast<double>(attempts) / elapsed;
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::BenchRun run(argc, argv, "pow");
  const std::uint64_t attempts = run.size(50'000, 2'000'000);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::max(
      1u, static_cast<unsigned>(sc::bench::flag_u64(argc, argv, "threads", hw)));

  const chain::BlockHeader header = bench_header();

  sc::bench::header("PoW hash throughput: naive vs midstate vs parallel");
  std::printf("attempts per path: %llu, hardware threads: %u\n",
              static_cast<unsigned long long>(attempts), hw);

  const double naive = naive_hps(header, attempts);
  const double midstate = midstate_hps(header, attempts);
  const double parallel = parallel_hps(header, attempts, threads);

  // Thread-scaling sweep: 1, 2, 4, ... up to the requested worker count.
  std::vector<std::pair<unsigned, double>> sweep;
  for (unsigned t = 1; t <= threads; t *= 2) {
    sweep.emplace_back(t, parallel_hps(header, attempts, t));
    if (t == threads) break;
    if (t * 2 > threads) {
      sweep.emplace_back(threads, parallel);
      break;
    }
  }

  std::printf("\n%-28s %14s %10s\n", "path", "hashes/sec", "speedup");
  std::printf("%-28s %14.0f %9.2fx\n", "naive (serialize+double)", naive, 1.0);
  std::printf("%-28s %14.0f %9.2fx\n", "midstate+serialize-once", midstate,
              midstate / naive);
  std::printf("%-28s %14.0f %9.2fx\n",
              ("mine_parallel x" + std::to_string(threads)).c_str(), parallel,
              parallel / naive);
  std::printf("\nthread scaling (vs 1-thread midstate):\n");
  for (const auto& [t, hps] : sweep)
    std::printf("  %2u thread(s): %14.0f h/s  (%.2fx)\n", t, hps, hps / midstate);

  run.results("    \"attempts\": %llu,\n",
              static_cast<unsigned long long>(attempts));
  run.results("    \"hardware_threads\": %u,\n", hw);
  run.results("    \"naive_hps\": %.1f,\n", naive);
  run.results("    \"midstate_hps\": %.1f,\n", midstate);
  run.results("    \"midstate_speedup\": %.3f,\n", midstate / naive);
  run.results("    \"parallel_threads\": %u,\n", threads);
  run.results("    \"parallel_hps\": %.1f,\n", parallel);
  run.results("    \"parallel_speedup_vs_naive\": %.3f,\n", parallel / naive);
  run.results("    \"thread_sweep\": [");
  for (std::size_t i = 0; i < sweep.size(); ++i)
    run.results("%s{\"threads\": %u, \"hps\": %.1f}", i ? ", " : "",
                sweep[i].first, sweep[i].second);
  run.results("]");
  return run.write();
}
