// Authenticated-state harness: incremental Merkle root maintenance vs the
// naive full-state rehash, across account-set scales.
//
// The design claim (docs/authenticated-state.md): committing the state in
// every block header is only viable if the per-block root update costs
// O(changes · log n), not O(n). Per scale (10^4 / 10^5 / 10^6 accounts):
//   1. Full rebuild time — what a naive implementation would pay per block.
//   2. Mean incremental update time for a fixed-size block delta (the
//      O(changes · log n) path Blockchain::submit_block runs).
//   3. Proof generation/verification cost and encoded proof size for one
//      account (what a light client transfers and checks).
// Every scale ends with a differential check: a from-scratch rebuild of the
// final state must reproduce the incrementally maintained root, otherwise
// the binary exits non-zero — the perf numbers are worthless if the fast
// path diverges from the oracle.
//
// The acceptance gates this harness exists to prove: the 10^6-account
// incremental update stays within ~10x of the 10^5 cost (log-factor, not
// linear), and beats the full rebuild by >=100x at 10^6.
//
// Results print as a table and persist to BENCH_trie.json (schema in
// EXPERIMENTS.md).
//
// Flags (bench_util.hpp): --runs=small measures the 10^4 scale only;
// --out=PATH.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/state_commitment.hpp"
#include "chain/state_journal.hpp"
#include "util/rng.hpp"

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

struct ScaleResult {
  std::uint64_t accounts = 0;
  std::uint64_t delta_accounts = 0;  ///< Accounts touched per block.
  std::uint64_t blocks = 0;
  double rebuild_s = 0;   ///< Full O(n) rehash — the naive per-block cost.
  double update_us = 0;   ///< Mean incremental root update per block.
  std::size_t trie_nodes = 0;
  std::size_t proof_bytes = 0;
  double prove_us = 0;
  double verify_us = 0;
  bool root_matches = false;  ///< Incremental root == from-scratch rebuild.

  double speedup() const { return rebuild_s * 1e6 / update_us; }
};

ScaleResult run_scale(std::uint64_t accounts, std::uint64_t delta_accounts,
                      std::uint64_t blocks) {
  util::Rng rng(0x7A1E + accounts);
  chain::WorldState state;
  std::vector<chain::Address> population;
  population.reserve(accounts);
  for (std::uint64_t i = 0; i < accounts; ++i) {
    const chain::Address addr = synthetic_address(rng);
    state.add_balance(addr, 1 + rng.uniform(1'000'000));
    population.push_back(addr);
  }
  const chain::Address funder = synthetic_address(rng);
  state.add_balance(funder, 1'000'000 * chain::kEther);

  ScaleResult result;
  result.accounts = accounts;
  result.delta_accounts = delta_accounts;
  result.blocks = blocks;

  chain::StateCommitment commitment;
  {
    const auto start = Clock::now();
    commitment.rebuild(state);
    result.rebuild_s = seconds_since(start);
  }
  result.trie_nodes = commitment.node_count();

  // Simulated blocks: `delta_accounts` transfers from the funder to random
  // existing accounts, exactly the delta shape submit_block hands the
  // commitment. Only the update() call is timed — delta construction is the
  // executor's job, not the trie's.
  double update_total = 0;
  for (std::uint64_t b = 0; b < blocks; ++b) {
    chain::JournaledState js(state);
    for (std::uint64_t i = 0; i < delta_accounts; ++i) {
      const chain::Address& to = population[rng.uniform(population.size())];
      js.transfer(funder, to, 1);
    }
    js.bump_nonce(funder);
    const chain::StateDelta delta = js.collect_delta();
    js.commit(0);
    const auto start = Clock::now();
    commitment.update(delta, state);
    update_total += seconds_since(start);
  }
  result.update_us = update_total * 1e6 / static_cast<double>(blocks);

  {  // Light-client surface: one proof out, one verification in.
    const chain::Address& subject = population[rng.uniform(population.size())];
    const auto prove_start = Clock::now();
    const chain::AccountProof proof = commitment.prove_account(subject, state);
    result.prove_us = seconds_since(prove_start) * 1e6;
    result.proof_bytes = proof.encode().size();
    const auto verify_start = Clock::now();
    const bool ok = proof.verify(commitment.root());
    result.verify_us = seconds_since(verify_start) * 1e6;
    if (!ok) return result;  // root_matches stays false -> exit 1
  }

  // Differential anchor: rebuild the final state from scratch and compare.
  chain::StateCommitment oracle;
  oracle.rebuild(state);
  result.root_matches = oracle.root() == commitment.root();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::BenchRun run(argc, argv, "trie");

  // (accounts, delta accounts per block, measured blocks). The delta size is
  // FIXED across scales — that is what makes the 10^5 vs 10^6 comparison a
  // pure log-factor measurement.
  std::vector<std::array<std::uint64_t, 3>> plan;
  if (run.small()) {
    plan = {{10'000, 100, 10}};
  } else {
    plan = {{10'000, 100, 50}, {100'000, 100, 50}, {1'000'000, 100, 50}};
  }

  sc::bench::header("Authenticated state: incremental root vs full rehash");

  std::vector<ScaleResult> results;
  for (const auto& [accounts, delta, blocks] : plan) {
    std::printf("running scale %llu...\n",
                static_cast<unsigned long long>(accounts));
    results.push_back(run_scale(accounts, delta, blocks));
  }

  std::printf("\n%-10s %12s %14s %10s %12s %10s %10s %8s\n", "accounts",
              "rebuild ms", "update µs/blk", "speedup", "trie nodes",
              "proof B", "prove µs", "verify");
  bool all_match = true;
  for (const ScaleResult& r : results) {
    std::printf("%-10llu %12.2f %14.2f %9.0fx %12zu %10zu %10.2f %7.2fµs%s\n",
                static_cast<unsigned long long>(r.accounts),
                r.rebuild_s * 1e3, r.update_us, r.speedup(), r.trie_nodes,
                r.proof_bytes, r.prove_us, r.verify_us,
                r.root_matches ? "" : "  ROOT MISMATCH");
    all_match = all_match && r.root_matches;
  }

  run.results("    \"scales\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScaleResult& r = results[i];
    run.results("      {\"accounts\": %llu, \"delta_accounts\": %llu, "
                "\"blocks\": %llu,\n"
                "       \"rebuild_s\": %.6f, \"update_us\": %.3f, "
                "\"speedup\": %.1f,\n"
                "       \"trie_nodes\": %zu, \"proof_bytes\": %zu, "
                "\"prove_us\": %.3f, \"verify_us\": %.3f,\n"
                "       \"root_matches\": %s}%s\n",
                static_cast<unsigned long long>(r.accounts),
                static_cast<unsigned long long>(r.delta_accounts),
                static_cast<unsigned long long>(r.blocks), r.rebuild_s,
                r.update_us, r.speedup(), r.trie_nodes, r.proof_bytes,
                r.prove_us, r.verify_us, r.root_matches ? "true" : "false",
                i + 1 < results.size() ? "," : "");
  }
  run.results("    ]");
  const int written = run.write();
  return all_match ? written : 1;
}
