// Parallel-execution harness: block-apply throughput vs worker-lane count.
//
// Two workloads over a large (10^5-account) state, each a single block of
// pre-signed transfers applied at 1/2/4/8 lanes:
//   low_conflict  — every transaction has its own sender and its own fresh
//                   recipient, so every speculative result commits and the
//                   block parallelizes perfectly in theory;
//   high_conflict — every transaction pays one of a handful of hot accounts,
//                   so almost every speculative result is discarded and
//                   re-executed sequentially (the adversarial bound).
// One lane runs the sequential journaled executor (the exact pre-parallel
// path); >1 lanes run the optimistic parallel executor. Every parallel run is
// checked receipt-by-receipt against the sequential result before timing is
// reported — a wrong result aborts the bench.
//
// A third measurement times batched signature verification (the other half
// of the tentpole) across the same lane counts: ECDSA verify fan-out is
// embarrassingly parallel and shows the pool's scaling ceiling directly.
// A fourth times what that fan-out buys end to end: Blockchain::submit_block
// of a 64-transfer block on a fresh chain (cold signature cache) at 1 and 4
// lanes — the measurement that keeps crypto::batch_verify's pool path.
//
// NOTE: speedups are bounded by the physical cores of the machine running
// the bench; on a single-core container every lane count measures ~1x.
//
// Results print as tables and persist to BENCH_exec.json (schema in
// EXPERIMENTS.md).
//
// Flags (bench_util.hpp): --runs=small uses 10^3 accounts and a 64-tx block;
// --out=PATH.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/blockchain.hpp"
#include "chain/parallel_executor.hpp"
#include "chain/sig_cache.hpp"
#include "crypto/batch_verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

chain::Address synthetic_address(util::Rng& rng) {
  chain::Address a;
  for (auto& b : a.bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return a;
}

struct ThreadResult {
  unsigned threads = 0;
  double block_ms = 0;    ///< Mean wall ms per block apply.
  double txs_per_s = 0;
  double speedup = 1.0;   ///< vs the 1-lane sequential run of this workload.
};

struct WorkloadResult {
  std::string name;
  std::uint64_t conflicts = 0;  ///< Speculative discards at >1 lanes.
  std::vector<ThreadResult> threads;
};

bool receipts_match(const std::vector<chain::Receipt>& a,
                    const std::vector<chain::Receipt>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].tx_id != b[i].tx_id || a[i].status != b[i].status ||
        a[i].gas_used != b[i].gas_used || a[i].fee_paid != b[i].fee_paid)
      return false;
  return true;
}

WorkloadResult run_workload(const std::string& name, const chain::WorldState& base,
                            const std::vector<chain::Transaction>& txs,
                            const std::vector<unsigned>& lane_counts, int reps) {
  chain::BlockEnv env;
  env.number = 1;
  env.timestamp = 1000;

  // Pre-populate the verified-tx cache as mempool admission would have, so
  // the timed region measures execution, not ECDSA (measured separately).
  chain::SigCache sig_cache;
  for (const chain::Transaction& tx : txs)
    sig_cache.insert(tx.id());

  WorkloadResult result;
  result.name = name;

  std::vector<chain::Receipt> reference;
  {  // Sequential oracle, also the 1-lane measurement's correctness anchor.
    chain::WorldState state = base;
    chain::JournaledState js(state);
    reference = chain::apply_block_body(js, env, txs, chain::kBlockReward,
                                        nullptr, &sig_cache);
    js.commit(0);
  }
  {  // Conflict census: one parallel run against a private telemetry sink.
    telemetry::Telemetry tel;
    util::ThreadPool pool(1);
    chain::WorldState state = base;
    chain::JournaledState js(state);
    (void)chain::apply_block_body_parallel(js, env, txs, chain::kBlockReward,
                                           pool, &tel, &sig_cache);
    js.commit(0);
    result.conflicts =
        tel.registry.counter("parallel_exec_conflicts_total", "probe").value();
  }

  double sequential_ms = 0;
  for (unsigned lanes : lane_counts) {
    // Lane count includes the calling thread: pool holds lanes-1 workers.
    std::unique_ptr<util::ThreadPool> pool;
    if (lanes > 1) pool = std::make_unique<util::ThreadPool>(lanes - 1);

    double total_s = 0;
    for (int rep = 0; rep < reps; ++rep) {
      chain::WorldState state = base;  // Copy outside the timed region.
      chain::JournaledState js(state);
      const auto start = Clock::now();
      const std::vector<chain::Receipt> receipts =
          pool ? chain::apply_block_body_parallel(js, env, txs, chain::kBlockReward,
                                                  *pool, nullptr, &sig_cache)
               : chain::apply_block_body(js, env, txs, chain::kBlockReward,
                                         nullptr, &sig_cache);
      total_s += seconds_since(start);
      js.commit(0);
      if (!receipts_match(reference, receipts)) {
        std::printf("FATAL: %s @ %u lanes diverged from sequential receipts\n",
                    name.c_str(), lanes);
        std::abort();
      }
    }

    ThreadResult tr;
    tr.threads = lanes;
    tr.block_ms = total_s * 1e3 / reps;
    tr.txs_per_s = static_cast<double>(txs.size()) * reps / total_s;
    if (lanes == 1) sequential_ms = tr.block_ms;
    tr.speedup = sequential_ms > 0 ? sequential_ms / tr.block_ms : 1.0;
    result.threads.push_back(tr);
  }
  return result;
}

struct SigBatchResult {
  unsigned threads = 0;
  double us_per_sig = 0;
  double speedup = 1.0;
};

std::vector<SigBatchResult> run_sig_batch(const std::vector<chain::Transaction>& txs,
                                          const std::vector<unsigned>& lane_counts,
                                          int reps) {
  std::vector<crypto::VerifyJob> jobs;
  jobs.reserve(txs.size());
  for (const chain::Transaction& tx : txs)
    jobs.push_back({tx.sender_pubkey, tx.signing_hash(), tx.signature});

  std::vector<SigBatchResult> results;
  double sequential_us = 0;
  for (unsigned lanes : lane_counts) {
    std::unique_ptr<util::ThreadPool> pool;
    if (lanes > 1) pool = std::make_unique<util::ThreadPool>(lanes - 1);
    double total_s = 0;
    for (int rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      if (!crypto::batch_verify_all(jobs, pool.get())) std::abort();
      total_s += seconds_since(start);
    }
    SigBatchResult r;
    r.threads = lanes;
    r.us_per_sig = total_s * 1e6 / (reps * static_cast<double>(jobs.size()));
    if (lanes == 1) sequential_us = r.us_per_sig;
    r.speedup = sequential_us > 0 ? sequential_us / r.us_per_sig : 1.0;
    results.push_back(r);
  }
  return results;
}

struct ConnectResult {
  unsigned threads = 0;
  double connect_ms = 0;  ///< Mean wall ms of one cold-cache submit_block.
  double speedup = 1.0;
};

/// submit_block of one pre-sealed block on a fresh chain per rep, so every
/// signature misses the cache and goes through block pre-validation.
std::vector<ConnectResult> run_connect_cold(const std::vector<crypto::KeyPair>& senders,
                                            const std::vector<chain::Transaction>& txs,
                                            const std::vector<unsigned>& lane_counts,
                                            int reps) {
  chain::GenesisConfig genesis;
  for (const crypto::KeyPair& k : senders)
    genesis.allocations.push_back({k.address(), 10 * chain::kEther});
  const chain::Address miner{};
  chain::Block block;
  {
    chain::Blockchain builder(genesis);
    block = builder.build_block_template(miner, 15, 1, txs);
  }
  std::vector<ConnectResult> results;
  double sequential_ms = 0;
  for (unsigned lanes : lane_counts) {
    genesis.execution.threads = lanes;
    telemetry::Telemetry tel;
    double total_s = 0;
    for (int rep = 0; rep < reps; ++rep) {
      chain::Blockchain chain(genesis, &tel);
      const auto start = Clock::now();
      if (!chain.submit_block(block, nullptr, /*skip_pow=*/true)) std::abort();
      total_s += seconds_since(start);
    }
    ConnectResult r;
    r.threads = lanes;
    r.connect_ms = total_s * 1e3 / reps;
    if (lanes == 1) sequential_ms = r.connect_ms;
    r.speedup = sequential_ms > 0 ? sequential_ms / r.connect_ms : 1.0;
    results.push_back(r);
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::BenchRun run(argc, argv, "exec");
  const bool small = run.small();
  const std::uint64_t accounts = small ? 1'000 : 100'000;
  const std::size_t block_txs = small ? 64 : 512;
  const int reps = small ? 2 : 5;
  const std::vector<unsigned> lane_counts = {1, 2, 4, 8};

  sc::bench::header("Execution layer: parallel block apply vs lane count");
  std::printf("accounts=%llu block_txs=%zu reps=%d\n",
              static_cast<unsigned long long>(accounts), block_txs, reps);

  util::Rng rng(0xE4EC);
  chain::WorldState base;
  for (std::uint64_t i = 0; i < accounts; ++i)
    base.add_balance(synthetic_address(rng), 1 + rng.uniform(1'000'000));

  // Distinct funded senders, shared by both workloads.
  std::vector<crypto::KeyPair> senders;
  senders.reserve(block_txs);
  for (std::size_t i = 0; i < block_txs; ++i) {
    senders.push_back(crypto::KeyPair::generate(rng));
    base.add_balance(senders.back().address(), 10 * chain::kEther);
  }

  auto make_transfer = [](const crypto::KeyPair& from, const chain::Address& to,
                          chain::Amount value) {
    chain::Transaction tx;
    tx.kind = chain::TxKind::kTransfer;
    tx.nonce = 0;
    tx.to = to;
    tx.value = value;
    tx.gas_limit = 21'000;
    tx.sign_with(from);
    return tx;
  };

  std::printf("signing %zu transactions per workload...\n", block_txs);
  std::vector<chain::Transaction> low_conflict;
  for (std::size_t i = 0; i < block_txs; ++i)
    low_conflict.push_back(
        make_transfer(senders[i], synthetic_address(rng), 1 + rng.uniform(1000)));

  std::vector<chain::Address> hot;
  for (int i = 0; i < 4; ++i) hot.push_back(synthetic_address(rng));
  std::vector<chain::Transaction> high_conflict;
  for (std::size_t i = 0; i < block_txs; ++i)
    high_conflict.push_back(make_transfer(senders[i], hot[i % hot.size()],
                                          1 + rng.uniform(1000)));

  std::vector<WorkloadResult> workloads;
  for (const auto& [name, txs] :
       {std::pair<const char*, const std::vector<chain::Transaction>*>{
            "low_conflict", &low_conflict},
        {"high_conflict", &high_conflict}}) {
    std::printf("running %s...\n", name);
    workloads.push_back(run_workload(name, base, *txs, lane_counts, reps));
  }

  std::printf("running sig_batch...\n");
  const std::vector<SigBatchResult> sig_batch =
      run_sig_batch(low_conflict, lane_counts, reps);

  std::printf("running connect_cold...\n");
  constexpr std::size_t kConnectTxs = 64;
  const std::vector<crypto::KeyPair> connect_senders(senders.begin(),
                                                     senders.begin() + kConnectTxs);
  const std::vector<chain::Transaction> connect_txs(low_conflict.begin(),
                                                    low_conflict.begin() + kConnectTxs);
  const std::vector<ConnectResult> connect_cold =
      run_connect_cold(connect_senders, connect_txs, {1, 4}, small ? 3 : 20);

  for (const WorkloadResult& w : workloads) {
    std::printf("\n%s (conflicts: %llu/%zu)\n", w.name.c_str(),
                static_cast<unsigned long long>(w.conflicts), block_txs);
    std::printf("%-8s %12s %14s %9s\n", "lanes", "block ms", "txs/s", "speedup");
    for (const ThreadResult& t : w.threads)
      std::printf("%-8u %12.3f %14.0f %8.2fx\n", t.threads, t.block_ms,
                  t.txs_per_s, t.speedup);
  }
  std::printf("\nbatched signature verification\n");
  std::printf("%-8s %12s %9s\n", "lanes", "µs/sig", "speedup");
  for (const SigBatchResult& r : sig_batch)
    std::printf("%-8u %12.2f %8.2fx\n", r.threads, r.us_per_sig, r.speedup);
  std::printf("\n%zu-tx block connect, cold signature cache\n", kConnectTxs);
  std::printf("%-8s %12s %9s\n", "lanes", "connect ms", "speedup");
  for (const ConnectResult& r : connect_cold)
    std::printf("%-8u %12.3f %8.2fx\n", r.threads, r.connect_ms, r.speedup);

  run.results("    \"accounts\": %llu,\n    \"block_txs\": %zu,\n",
              static_cast<unsigned long long>(accounts), block_txs);
  run.results("    \"workloads\": [\n");
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const WorkloadResult& w = workloads[i];
    run.results("      {\"name\": \"%s\", \"conflicts\": %llu, \"threads\": [\n",
                w.name.c_str(), static_cast<unsigned long long>(w.conflicts));
    for (std::size_t t = 0; t < w.threads.size(); ++t) {
      const ThreadResult& tr = w.threads[t];
      run.results("        {\"threads\": %u, \"block_ms\": %.3f, "
                  "\"txs_per_s\": %.0f, \"speedup\": %.3f}%s\n",
                  tr.threads, tr.block_ms, tr.txs_per_s, tr.speedup,
                  t + 1 < w.threads.size() ? "," : "");
    }
    run.results("      ]}%s\n", i + 1 < workloads.size() ? "," : "");
  }
  run.results("    ],\n    \"sig_batch\": [\n");
  for (std::size_t i = 0; i < sig_batch.size(); ++i) {
    const SigBatchResult& r = sig_batch[i];
    run.results("      {\"threads\": %u, \"us_per_sig\": %.3f, \"speedup\": %.3f}%s\n",
                r.threads, r.us_per_sig, r.speedup,
                i + 1 < sig_batch.size() ? "," : "");
  }
  run.results("    ],\n    \"connect_cold\": {\"block_txs\": %zu, \"threads\": [\n",
              kConnectTxs);
  for (std::size_t i = 0; i < connect_cold.size(); ++i) {
    const ConnectResult& r = connect_cold[i];
    run.results("      {\"threads\": %u, \"connect_ms\": %.3f, \"speedup\": %.3f}%s\n",
                r.threads, r.connect_ms, r.speedup,
                i + 1 < connect_cold.size() ? "," : "");
  }
  run.results("    ]}");
  return run.write();
}
