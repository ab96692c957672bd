// State-layer harness: copy-based vs journaled execution and reorg cost.
//
// Three measurements per account-set scale (10^3 / 10^5 / 10^6):
//   1. Per-tx apply throughput for contract calls. The legacy executor
//      (chain/legacy_executor.hpp) deep-copies the whole WorldState as its
//      per-tx checkpoint — O(accounts) per transaction; the journaled
//      executor records reverse ops — O(changes).
//   2. Reorg-switch latency: materializing the other branch's state. The
//      pre-delta design paid a full state copy per block; the delta walk
//      unapplies/applies only the touched entries.
//   3. Per-block state memory: a full snapshot's footprint vs the block's
//      StateDelta footprint (the O(diff) evidence).
//
// Results print as a table and persist to BENCH_state.json (schema in
// EXPERIMENTS.md) so the perf trajectory is comparable across PRs.
//
// Flags (bench_util.hpp): --runs=small measures the 10^3 scale only;
// --out=PATH.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/legacy_executor.hpp"
#include "chain/state_journal.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"

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

/// Storage counter: every call does SLOAD slot 0, +1, SSTORE — a realistic
/// minimal contract tx (the old executor still copied the whole state for it).
const util::Bytes& counter_code() {
  static const util::Bytes code = [] {
    const auto out = vm::assemble(
        "PUSH1 0x00\nSLOAD\nPUSH1 0x01\nADD\nPUSH1 0x00\nSSTORE\nSTOP");
    if (!out.ok()) std::abort();
    return out.code;
  }();
  return code;
}

struct ScaleResult {
  std::uint64_t accounts = 0;
  std::uint64_t copy_txs = 0;
  std::uint64_t journaled_txs = 0;
  double copy_tx_us = 0;       ///< Mean µs per contract call, legacy path.
  double journaled_tx_us = 0;  ///< Mean µs per contract call, journaled path.
  double copy_reorg_us = 0;
  double journaled_reorg_us = 0;
  std::size_t snapshot_bytes = 0;  ///< Full per-block state footprint (old).
  std::size_t delta_bytes = 0;     ///< Per-block StateDelta footprint (new).

  double apply_speedup() const { return copy_tx_us / journaled_tx_us; }
};

ScaleResult run_scale(std::uint64_t accounts, std::uint64_t copy_txs,
                      std::uint64_t journaled_txs) {
  util::Rng rng(0x5747E + accounts);
  crypto::KeyPair sender = crypto::KeyPair::generate(rng);

  chain::WorldState base;
  for (std::uint64_t i = 0; i < accounts; ++i)
    base.add_balance(synthetic_address(rng), 1 + rng.uniform(1'000'000));
  base.add_balance(sender.address(), 1'000'000 * chain::kEther);

  chain::BlockEnv env;
  env.number = 1;
  env.timestamp = 1000;

  // Deploy the counter into the shared base so both paths call into
  // identical pre-state.
  {
    chain::Transaction deploy;
    deploy.kind = chain::TxKind::kDeploy;
    deploy.nonce = 0;
    deploy.gas_limit = 300'000;
    deploy.data = counter_code();
    deploy.sign_with(sender);
    chain::JournaledState js(base);
    const chain::Receipt r = chain::apply_transaction(js, env, deploy);
    if (!r.ok()) std::abort();
    js.commit(0);
  }
  const chain::Address counter = chain::contract_address(sender.address(), 0);

  // Pre-sign all call txs outside the timed region; signing/verification
  // costs are identical on both paths and not what this bench measures.
  const std::uint64_t max_txs = std::max(copy_txs, journaled_txs);
  std::vector<chain::Transaction> calls;
  calls.reserve(max_txs);
  for (std::uint64_t i = 0; i < max_txs; ++i) {
    chain::Transaction tx;
    tx.kind = chain::TxKind::kCall;
    tx.nonce = 1 + i;
    tx.to = counter;
    tx.gas_limit = 100'000;
    tx.sign_with(sender);
    calls.push_back(std::move(tx));
  }

  ScaleResult result;
  result.accounts = accounts;
  result.copy_txs = copy_txs;
  result.journaled_txs = journaled_txs;

  {  // Legacy path: full-state checkpoint copy per contract tx.
    chain::WorldState state = base;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < copy_txs; ++i) {
      const chain::Receipt r = chain::legacy::apply_transaction(state, env, calls[i]);
      if (!r.ok()) std::abort();
    }
    result.copy_tx_us = seconds_since(start) * 1e6 / static_cast<double>(copy_txs);
  }

  {  // Journaled path: reverse-op checkpoints on the same workload.
    chain::WorldState state = base;
    chain::JournaledState js(state);
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < journaled_txs; ++i) {
      const chain::Receipt r = chain::apply_transaction(js, env, calls[i]);
      if (!r.ok()) std::abort();
    }
    js.commit(0);
    result.journaled_tx_us =
        seconds_since(start) * 1e6 / static_cast<double>(journaled_txs);
  }

  // Reorg switch: two competing 20-tx blocks of transfers over the same
  // parent. The journaled chain unapplies branch A's delta and applies
  // branch B's; the copy-based design materializes branch B's full state.
  constexpr int kBlockTxs = 20;
  auto make_delta = [&](std::uint64_t salt) {
    chain::JournaledState js(base);
    for (int i = 0; i < kBlockTxs; ++i) {
      const chain::Address to = synthetic_address(rng);
      js.transfer(sender.address(), to, 1000 + salt);
      js.bump_nonce(sender.address());
    }
    chain::StateDelta delta = js.collect_delta();
    js.revert_to(0);  // back to the parent state for the next branch
    return delta;
  };
  const chain::StateDelta delta_a = make_delta(1);
  const chain::StateDelta delta_b = make_delta(2);

  {  // Copy-based: the old design's per-block state materialization.
    const chain::WorldState post_b = [&] {
      chain::WorldState s = base;
      delta_b.apply(s);
      return s;
    }();
    const auto start = Clock::now();
    chain::WorldState switched = post_b;  // full copy = old reorg cost
    const double elapsed = seconds_since(start);
    if (switched.account_count() == 0) std::abort();
    result.copy_reorg_us = elapsed * 1e6;
    result.snapshot_bytes = post_b.approx_bytes();
  }

  {  // Journaled: tip currently at A's post-state; walk to B's.
    chain::WorldState tip = base;
    delta_a.apply(tip);
    const auto start = Clock::now();
    delta_a.unapply(tip);
    delta_b.apply(tip);
    const double elapsed = seconds_since(start);
    result.journaled_reorg_us = elapsed * 1e6;
    result.delta_bytes = delta_b.approx_bytes();
  }

  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::BenchRun run(argc, argv, "state");

  // (accounts, copy-path txs, journaled-path txs). The copy path gets fewer
  // iterations at large scales — each tx costs a full state copy.
  std::vector<std::array<std::uint64_t, 3>> plan;
  if (run.small()) {
    plan = {{1'000, 20, 200}};
  } else {
    plan = {{1'000, 200, 2'000}, {100'000, 20, 2'000}, {1'000'000, 5, 2'000}};
  }

  sc::bench::header("State layer: copy-based vs journaled execution");

  std::vector<ScaleResult> results;
  for (const auto& [accounts, copy_txs, journaled_txs] : plan) {
    std::printf("running scale %llu...\n",
                static_cast<unsigned long long>(accounts));
    results.push_back(run_scale(accounts, copy_txs, journaled_txs));
  }

  std::printf("\n%-10s %14s %14s %9s %12s %12s %14s %12s\n", "accounts",
              "copy µs/tx", "journal µs/tx", "speedup", "copy reorg",
              "delta reorg", "snapshot B", "delta B");
  for (const ScaleResult& r : results)
    std::printf("%-10llu %14.2f %14.2f %8.1fx %10.1fµs %10.1fµs %14zu %12zu\n",
                static_cast<unsigned long long>(r.accounts), r.copy_tx_us,
                r.journaled_tx_us, r.apply_speedup(), r.copy_reorg_us,
                r.journaled_reorg_us, r.snapshot_bytes, r.delta_bytes);

  run.results("    \"scales\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    run.results("      {\"accounts\": %llu, \"copy_txs\": %llu, "
                "\"journaled_txs\": %llu,\n"
                "       \"copy_tx_us\": %.3f, \"journaled_tx_us\": %.3f, "
                "\"apply_speedup\": %.2f,\n"
                "       \"copy_reorg_us\": %.3f, \"journaled_reorg_us\": %.3f,\n"
                "       \"snapshot_bytes\": %zu, \"delta_bytes\": %zu}%s\n",
                static_cast<unsigned long long>(r.accounts),
                static_cast<unsigned long long>(r.copy_txs),
                static_cast<unsigned long long>(r.journaled_txs), r.copy_tx_us,
                r.journaled_tx_us, r.apply_speedup(), r.copy_reorg_us,
                r.journaled_reorg_us, r.snapshot_bytes, r.delta_bytes,
                i + 1 < results.size() ? "," : "");
  }
  run.results("    ]");
  return run.write();
}
