// Execution-layer harness: where block execution's time goes, and what the
// worker lanes buy.
//
// block_apply — the template plus adopted connect of a block_pipeline-shaped
//   block (64 transactions: 3/4 transfers to distinct recipients, 1/4
//   register_initial calls into four registry contracts, half of them to one
//   hot contract) on a chain of 10^5 accounts, signatures already cached as
//   mempool admission leaves them. Two ways to seal the template, in
//   alternating blocks: `known` is build_block_template, which hashes each
//   transaction once for the Merkle root and hands the ids down to execution;
//   `hashed` seals the Merkle root and then calls seal_state_root without
//   ids, so the executor hashes each transaction again (the template path
//   before ids were passed down). Both connects adopt the template.
// sig_batch — batched ECDSA verification at 1/2/4/8 lanes: embarrassingly
//   parallel, it shows the pool's scaling ceiling directly.
// connect_cold — what that fan-out buys end to end: Blockchain::submit_block
//   of a 64-transfer block on a fresh chain (cold signature cache) at 1 and
//   4 lanes, the measurement that keeps crypto::batch_verify's pool path.
//
// Block state transitions run on one thread; lanes only verify signatures.
// Speedups are bounded by the physical cores of the machine running the
// bench; on a single-core container every lane count measures ~1x.
//
// Results print as tables and persist to BENCH_exec.json (schema in
// EXPERIMENTS.md).
//
// Flags (bench_util.hpp): --runs=small uses 10^3 accounts and fewer blocks
// and repetitions; --out=PATH.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/blockchain.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/keccak.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace sc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ms_since(Clock::time_point start) { return seconds_since(start) * 1e3; }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

chain::Address synthetic_address(util::Rng& rng) {
  chain::Address a;
  for (auto& b : a.bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return a;
}

struct BlockApplyResult {
  const char* ids = "";     ///< "known" or "hashed".
  double template_ms = 0;   ///< Median wall ms of sealing the template.
  double connect_ms = 0;    ///< Median wall ms of its adopted submit_block.
};

/// Template + adopted connect of `blocks` block_pipeline-shaped blocks per
/// variant, alternating variants block by block on one chain.
std::vector<BlockApplyResult> run_block_apply(std::uint64_t accounts, int blocks) {
  constexpr std::size_t kTxs = 64;
  constexpr std::size_t kContracts = 4;
  util::Rng rng(0xB10C);
  const crypto::KeyPair deployer = crypto::KeyPair::generate(rng);
  std::vector<crypto::KeyPair> senders;
  chain::GenesisConfig genesis;
  genesis.allocations.push_back({deployer.address(), 100'000 * chain::kEther});
  for (std::size_t i = 0; i < kTxs; ++i) {
    senders.push_back(crypto::KeyPair::generate(rng));
    genesis.allocations.push_back({senders.back().address(), 1000 * chain::kEther});
  }
  std::vector<chain::Address> recipients;
  for (std::uint64_t i = 0; i < accounts; ++i) {
    recipients.push_back(synthetic_address(rng));
    genesis.allocations.push_back({recipients.back(), chain::kEther});
  }
  chain::Blockchain chain(genesis);
  const chain::Address miner = synthetic_address(rng);
  std::uint64_t timestamp = 0;

  auto connect = [&](chain::Block block) {
    if (!chain.submit_block(block, nullptr, /*skip_pow=*/true)) std::abort();
    for (const chain::Receipt& r : *chain.receipts(block.id()))
      if (!r.ok()) {
        std::printf("FATAL: block_apply receipt failed: %s\n", r.error.c_str());
        std::abort();
      }
  };
  std::vector<chain::Address> contracts;
  {
    std::vector<chain::Transaction> deploys;
    for (std::size_t i = 0; i < kContracts; ++i) {
      util::Writer w;
      w.u64(i);
      chain::Transaction tx = contracts::make_deploy_tx(
          i, chain::kEther, chain::kEther / 10, crypto::keccak256(w.data()),
          contracts::pack_metadata("exec-bench-registry", "v1", "sim://exec-bench"));
      tx.sign_with(deployer);
      contracts.push_back(chain::contract_address(deployer.address(), i));
      deploys.push_back(std::move(tx));
    }
    connect(chain.build_block_template(miner, timestamp += 15, 1, std::move(deploys)));
  }

  std::uint64_t nonce = 0, serial = 0;
  std::vector<double> template_ms[2], connect_ms[2];
  for (int b = 0; b < 2 * blocks; ++b) {
    std::vector<chain::Transaction> txs;
    for (std::size_t i = 0; i < kTxs; ++i) {
      chain::Transaction tx;
      tx.nonce = nonce;
      if (i % 4 == 3) {
        tx.kind = chain::TxKind::kCall;
        tx.to = contracts[rng.bernoulli(0.5) ? 0 : 1 + rng.uniform(kContracts - 1)];
        tx.gas_limit = 200'000;
        util::Writer w;
        w.u64(serial);
        tx.data = contracts::register_initial_calldata(crypto::keccak256(w.data()));
      } else {
        tx.to = recipients[(b * kTxs + i) % recipients.size()];
        tx.value = 1000 + serial;
        tx.gas_limit = 50'000;
      }
      ++serial;
      tx.sign_with(senders[i]);
      chain.sig_cache().insert(tx.id());  // As mempool admission leaves it.
      txs.push_back(std::move(tx));
    }
    ++nonce;

    const int known = b % 2 == 0;
    timestamp += 15;
    const auto t0 = Clock::now();
    chain::Block block;
    if (known) {
      block = chain.build_block_template(miner, timestamp, 1, std::move(txs));
    } else {
      block.header.height = chain.best_height() + 1;
      block.header.prev_id = chain.best_head();
      block.header.timestamp = timestamp;
      block.header.miner = miner;
      block.transactions = std::move(txs);
      block.seal_merkle_root();
      chain.seal_state_root(block);
    }
    template_ms[known].push_back(ms_since(t0));
    const auto t1 = Clock::now();
    connect(block);
    connect_ms[known].push_back(ms_since(t1));
  }
  return {{"known", median(template_ms[1]), median(connect_ms[1])},
          {"hashed", median(template_ms[0]), median(connect_ms[0])}};
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
  sc::bench::BenchRun run(argc, argv, "exec", /*version=*/3);
  const bool small = run.small();
  const std::uint64_t accounts = small ? 1'000 : 100'000;
  const std::size_t sig_txs = small ? 64 : 512;
  const int reps = small ? 2 : 5;
  const int apply_blocks = small ? 3 : 100;
  const std::vector<unsigned> lane_counts = {1, 2, 4, 8};

  sc::bench::header("Execution layer: block apply, and what the lanes buy");
  std::printf("accounts=%llu sig_txs=%zu reps=%d apply_blocks=%d\n",
              static_cast<unsigned long long>(accounts), sig_txs, reps, apply_blocks);

  std::printf("running block_apply...\n");
  const std::vector<BlockApplyResult> block_apply = run_block_apply(accounts, apply_blocks);

  // Distinct funded senders, each signing one transfer to a fresh recipient.
  util::Rng rng(0xE4EC);
  std::vector<crypto::KeyPair> senders;
  std::vector<chain::Transaction> transfers;
  std::printf("signing %zu transfers...\n", sig_txs);
  for (std::size_t i = 0; i < sig_txs; ++i) {
    senders.push_back(crypto::KeyPair::generate(rng));
    chain::Transaction tx;
    tx.kind = chain::TxKind::kTransfer;
    tx.to = synthetic_address(rng);
    tx.value = 1 + rng.uniform(1000);
    tx.gas_limit = 21'000;
    tx.sign_with(senders.back());
    transfers.push_back(std::move(tx));
  }

  std::printf("running sig_batch...\n");
  const std::vector<SigBatchResult> sig_batch = run_sig_batch(transfers, lane_counts, reps);

  std::printf("running connect_cold...\n");
  constexpr std::size_t kConnectTxs = 64;
  const std::vector<crypto::KeyPair> connect_senders(senders.begin(),
                                                     senders.begin() + kConnectTxs);
  const std::vector<chain::Transaction> connect_txs(transfers.begin(),
                                                    transfers.begin() + kConnectTxs);
  const std::vector<ConnectResult> connect_cold =
      run_connect_cold(connect_senders, connect_txs, {1, 4}, small ? 3 : 20);

  std::printf("\n64-tx block, template + adopted connect (median of %d blocks each)\n",
              apply_blocks);
  std::printf("%-8s %12s %12s %12s\n", "ids", "template ms", "connect ms", "total ms");
  for (const BlockApplyResult& r : block_apply)
    std::printf("%-8s %12.3f %12.3f %12.3f\n", r.ids, r.template_ms, r.connect_ms,
                r.template_ms + r.connect_ms);
  std::printf("\nbatched signature verification\n");
  std::printf("%-8s %12s %9s\n", "lanes", "µs/sig", "speedup");
  for (const SigBatchResult& r : sig_batch)
    std::printf("%-8u %12.2f %8.2fx\n", r.threads, r.us_per_sig, r.speedup);
  std::printf("\n%zu-tx block connect, cold signature cache\n", kConnectTxs);
  std::printf("%-8s %12s %9s\n", "lanes", "connect ms", "speedup");
  for (const ConnectResult& r : connect_cold)
    std::printf("%-8u %12.3f %8.2fx\n", r.threads, r.connect_ms, r.speedup);

  run.results("    \"accounts\": %llu,\n",
              static_cast<unsigned long long>(accounts));
  run.results("    \"block_apply\": {\"block_txs\": 64, \"blocks\": %d, \"ids\": [\n",
              apply_blocks);
  for (std::size_t i = 0; i < block_apply.size(); ++i) {
    const BlockApplyResult& r = block_apply[i];
    run.results("      {\"ids\": \"%s\", \"template_ms\": %.3f, \"connect_ms\": %.3f, "
                "\"total_ms\": %.3f}%s\n",
                r.ids, r.template_ms, r.connect_ms, r.template_ms + r.connect_ms,
                i + 1 < block_apply.size() ? "," : "");
  }
  run.results("    ]},\n    \"sig_batch\": {\"sigs\": %zu, \"threads\": [\n", sig_txs);
  for (std::size_t i = 0; i < sig_batch.size(); ++i) {
    const SigBatchResult& r = sig_batch[i];
    run.results("      {\"threads\": %u, \"us_per_sig\": %.3f, \"speedup\": %.3f}%s\n",
                r.threads, r.us_per_sig, r.speedup,
                i + 1 < sig_batch.size() ? "," : "");
  }
  run.results("    ]},\n    \"connect_cold\": {\"block_txs\": %zu, \"threads\": [\n",
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
