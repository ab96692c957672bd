// Workload `block_pipeline`: a block's trip from mempool to fsync on a single
// miner — the single-node baseline.
//
// One chain::Blockchain holds 10^5 prefunded accounts, executes with
// min(nproc, 4) lanes and persists to a durable store opened with fsync on.
// Its Mempool shares Blockchain::sig_cache(), as mempool.hpp documents. One op
// is one block: Mempool::add for every pre-signed transaction, then select,
// build_block_template, submit_block and remove. The next block's
// transactions are signed before its timing starts.
//
// The mix is 3/4 transfers between distinct accounts, which rarely conflict,
// and 1/4 register_initial calls into four pre-deployed registry contracts,
// half of them to one hot contract, the way report traffic conflicts.
//
// Why: admission crypto sets txs_per_s; template re-execution (ROADMAP item
// 3), the parallel executor, the 10^5-account trie and the store's
// append+fsync set the block latency. detect, sim and gossip do nothing.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_set>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "common.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "crypto/keccak.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace perfbench {

unsigned pipeline_lanes() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

namespace {

namespace fs = std::filesystem;
using sc::chain::Address;
using sc::chain::kEther;
using sc::chain::Transaction;

constexpr std::size_t kContracts = 4;
constexpr sc::chain::Gas kTransferGas = 50'000;
constexpr sc::chain::Gas kCallGas = 200'000;

struct Sizes {
  std::size_t accounts;
  std::size_t senders;     ///< Accounts with keys, used round-robin.
  std::size_t block_txs;   ///< Multiple of 4; at most `senders`.
  std::uint64_t setups;    ///< Set-up repetitions for the setup_s median.
};

Address derived_address(std::uint64_t seed, std::uint64_t i) {
  sc::util::Writer w;
  w.u64(seed);
  w.u64(i);
  const sc::crypto::Hash256 h = sc::crypto::keccak256(w.data());
  return Address::from_span(sc::util::ByteSpan(h.bytes.data() + 12, 20));
}

/// Signs the transactions of one block. Bodies never repeat: a transaction id
/// hashes the body without the sender, so two identical transfers from two
/// senders would collide and the second would be refused as a duplicate.
class Generator {
 public:
  Generator(std::uint64_t seed, const Sizes& sizes)
      : sizes_(sizes), rng_(seed), deployer_(sc::crypto::KeyPair::generate(rng_)) {
    for (std::size_t i = 0; i < sizes.senders; ++i)
      senders_.push_back(sc::crypto::KeyPair::generate(rng_));
    nonces_.assign(sizes.senders, 0);
    for (std::size_t i = 0; i < sizes.accounts - sizes.senders - 1; ++i)
      recipients_.push_back(derived_address(seed, i));
  }

  sc::chain::GenesisConfig genesis() const {
    sc::chain::GenesisConfig g;
    for (const auto& key : senders_) g.allocations.push_back({key.address(), 1000 * kEther});
    g.allocations.push_back({deployer_.address(), 100'000 * kEther});
    for (const Address& a : recipients_) g.allocations.push_back({a, 1 * kEther});
    g.execution.threads = pipeline_lanes();
    return g;
  }

  std::vector<Transaction> deploys() {
    std::vector<Transaction> txs;
    for (std::size_t i = 0; i < kContracts; ++i) {
      sc::util::Writer w;
      w.u64(i);
      Transaction tx = sc::contracts::make_deploy_tx(
          i, 1 * kEther, kEther / 10, sc::crypto::keccak256(w.data()),
          sc::contracts::pack_metadata("perfbench-registry", "v1", "sim://perfbench"));
      tx.sign_with(deployer_);
      contracts_.push_back(sc::chain::contract_address(deployer_.address(), i));
      txs.push_back(std::move(tx));
    }
    return txs;
  }

  std::vector<Transaction> block(std::uint64_t b) {
    std::vector<Transaction> txs;
    std::unordered_set<Address> recipients;
    for (std::size_t i = 0; i < sizes_.block_txs; ++i) {
      const std::size_t s = (b * sizes_.block_txs + i) % senders_.size();
      Transaction tx;
      tx.nonce = nonces_[s]++;
      if (i % 4 == 3) {
        tx.kind = sc::chain::TxKind::kCall;
        tx.to = contracts_[rng_.bernoulli(0.5) ? 0 : 1 + rng_.uniform(kContracts - 1)];
        tx.gas_limit = kCallGas;
        sc::util::Writer w;
        w.u64(b);
        w.u64(i);
        w.u64(serial_);
        tx.data = sc::contracts::register_initial_calldata(sc::crypto::keccak256(w.data()));
      } else {
        Address to;
        do {
          to = recipients_[rng_.uniform(recipients_.size())];
        } while (!recipients.insert(to).second);
        tx.to = to;
        tx.value = 1000 + serial_;  // unique body
        tx.gas_limit = kTransferGas;
      }
      ++serial_;
      tx.sign_with(senders_[s]);
      if (!ids_.insert(tx.id()).second) ++duplicate_bodies_;
      txs.push_back(std::move(tx));
    }
    return txs;
  }

  std::uint64_t duplicate_bodies() const { return duplicate_bodies_; }

 private:
  Sizes sizes_;
  sc::util::Rng rng_;
  sc::crypto::KeyPair deployer_;
  std::vector<sc::crypto::KeyPair> senders_;
  std::vector<std::uint64_t> nonces_;
  std::vector<Address> recipients_;
  std::vector<Address> contracts_;
  std::unordered_set<sc::crypto::Hash256> ids_;
  std::uint64_t serial_ = 0;
  std::uint64_t duplicate_bodies_ = 0;
};

struct BlockOutcome {
  double total_ms = 0.0;
  double block_ms = 0.0;  ///< select → submit_block returning.
  std::size_t committed = 0;
  std::size_t failed = 0;
  std::string error;
};

/// One op: admission of every transaction, then select → template → connect
/// → remove.
BlockOutcome run_block(sc::chain::Blockchain& chain, sc::chain::Mempool& mempool,
                       const std::vector<Transaction>& txs, std::uint64_t timestamp,
                       const Address& miner, SpanLog& spans) {
  BlockOutcome out;
  const auto t0 = Clock::now();
  std::size_t refused = 0;
  for (const Transaction& tx : txs) {
    const auto span = spans.scope("chain.mempool.add");
    std::string why;
    if (!mempool.add(tx, &why)) ++refused;
  }
  const auto t_select = Clock::now();
  std::vector<Transaction> picked;
  {
    const auto span = spans.scope("chain.mempool.select");
    picked = mempool.select(chain.best_state(), txs.size());
  }
  sc::chain::Block block;
  {
    const auto span = spans.scope("chain.build_block_template");
    block = chain.build_block_template(miner, timestamp, /*difficulty=*/1, std::move(picked));
  }
  bool connected = false;
  {
    const auto span = spans.scope("chain.submit_block");
    connected = chain.submit_block(block, &out.error, /*skip_pow=*/true);
  }
  out.block_ms = ms_since(t_select);
  {
    const auto span = spans.scope("chain.mempool.remove");
    mempool.remove(block.transactions);
  }
  out.total_ms = ms_since(t0);

  if (!connected) {
    out.failed = txs.size();
    return out;
  }
  std::size_t bad_receipts = 0;
  for (const auto& receipt : *chain.receipts(block.id()))
    if (!receipt.ok()) ++bad_receipts;
  out.committed = block.transactions.size() - bad_receipts;
  // Refused, left unselected, or failed on chain.
  out.failed = txs.size() - out.committed;
  if (refused > 0) out.error = std::to_string(refused) + " refused at admission";
  return out;
}

}  // namespace

Result run_block_pipeline(const Options& options, SpanLog& spans) {
  Result result;
  const Sizes sizes = options.smoke ? Sizes{2'000, 64, 16, 1} : Sizes{100'000, 512, 64, 3};
  sc::telemetry::Telemetry tel;
  Generator gen(options.seed, sizes);
  const sc::chain::GenesisConfig genesis = gen.genesis();
  const Address miner = derived_address(options.seed ^ 0x6d696e6572ULL, 0);

  // Set-up time of the program: genesis construction (including the
  // 10^5-account commitment) and opening a fresh durable store. The last
  // set-up is the one the run uses.
  SpeedProbe probe;
  std::vector<double> setup_ms;
  std::unique_ptr<sc::chain::Blockchain> chain;
  std::string store_dir;
  probe.mark();
  for (std::uint64_t i = 0; i < sizes.setups; ++i) {
    chain.reset();
    if (!store_dir.empty()) fs::remove_all(store_dir);
    store_dir = options.scratch + "/pipeline-" + std::to_string(i);
    fs::remove_all(store_dir);
    const auto t0 = Clock::now();
    chain = std::make_unique<sc::chain::Blockchain>(genesis, &tel);
    std::string why;
    sc::chain::PersistenceOptions persistence;
    persistence.fsync = true;
    if (!chain->open(store_dir, persistence, &why)) {
      result.gate(false, "store open failed: " + why);
      return result;
    }
    const double raw = ms_since(t0);
    probe.mark();
    setup_ms.push_back(probe.calibrate(raw));
  }

  sc::chain::Mempool mempool;
  mempool.set_sig_cache(&chain->sig_cache());
  mempool.set_telemetry(&tel);

  // Warm-up (untimed): deploy the registry contracts, then one regular block.
  std::uint64_t height = 0;
  auto timestamp = [&] { return (height + 1) * 15; };
  {
    const BlockOutcome deployed = run_block(*chain, mempool, gen.deploys(), timestamp(), miner, spans);
    ++height;
    result.gate(deployed.failed == 0, "contract deploy block failed: " + deployed.error);
    const BlockOutcome warm = run_block(*chain, mempool, gen.block(0), timestamp(), miner, spans);
    ++height;
    result.gate(warm.failed == 0, "warm-up block failed: " + warm.error);
  }
  if (!result.errors.empty()) return result;

  const auto& reg = tel.registry;
  const std::uint64_t misses_before = chain->sig_cache().misses();
  const double batch_before = counter_total(reg, "chain_sig_batch_verified_total");
  const double speculated_before = counter_total(reg, "parallel_exec_speculated_total");
  const double conflicts_before = counter_total(reg, "parallel_exec_conflicts_total");
  const double reexec_before = counter_total(reg, "parallel_exec_reexecuted_total");
  const double tx_before = counter_total(reg, "chain_tx_total");
  const double steps_before = counter_total(reg, "scvm_steps_total");
  const double fsyncs_before = counter_total(reg, "store_fsyncs_total");
  const double bytes_before = counter_total(reg, "store_bytes_appended_total");
  const auto gas_before = histogram_totals(reg, "chain_tx_gas_used");
  const auto root_before = histogram_totals(reg, "state_root_update_seconds");

  std::vector<double> op_ms, block_ms, raw_block_ms, traced_ms, untraced_ms;
  double timed_ms = 0.0, traced_raw_ms = 0.0;
  std::uint64_t committed = 0;
  const std::uint64_t min_ops = options.smoke ? 3 : kMinOps;
  for (std::uint64_t op = 0; timed_ms < options.seconds * 1000.0 || op < min_ops; ++op) {
    const std::vector<Transaction> txs = gen.block(op + 1);
    probe.mark();
    const bool traced = options.trace && op % 2 == 0;
    spans.set_enabled(traced);
    spans.set_op(static_cast<std::uint32_t>(op));
    const BlockOutcome out = run_block(*chain, mempool, txs, timestamp(), miner, spans);
    spans.set_enabled(false);
    probe.mark();
    ++height;
    timed_ms += out.total_ms;
    op_ms.push_back(probe.calibrate(out.total_ms));
    block_ms.push_back(probe.calibrate(out.block_ms));
    raw_block_ms.push_back(out.block_ms);
    (traced ? traced_ms : untraced_ms).push_back(op_ms.back());
    if (traced) traced_raw_ms += out.total_ms;
    committed += out.committed;
    result.attempted += txs.size();
    result.failed += out.failed;
    if (out.failed > 0 && result.info.count("first_failure") == 0)
      result.info["first_failure"] = "block " + std::to_string(op) + ": " + out.error;
  }
  const double blocks = static_cast<double>(op_ms.size());
  const double seconds = sum(op_ms) / 1000.0;

  result.end_to_end = {
      {"setup_s", median(setup_ms) / 1000.0},
      {"ops_per_s", blocks / seconds},
      {"latency_p50_ms", median(block_ms)},
      {"latency_p90_ms", quantile(block_ms, 0.9)},
      {"txs_per_s", static_cast<double>(committed) / seconds},
      {"blocks_per_s", blocks / seconds},
      {"peak_rss_mb", peak_rss_mb()},
  };

  const double applied = counter_total(reg, "chain_tx_total") - tx_before;
  const auto gas = histogram_totals(reg, "chain_tx_gas_used") - gas_before;
  const auto root = histogram_totals(reg, "state_root_update_seconds") - root_before;
  const double verifies = static_cast<double>(chain->sig_cache().misses() - misses_before) +
                          counter_total(reg, "chain_sig_batch_verified_total") - batch_before;
  result.per_layer = {
      {"chain.connect_ms_p50", median(spans.durations_ms("chain.submit_block"))},
      {"chain.template_ms_p50", median(spans.durations_ms("chain.build_block_template"))},
      {"chain.mempool.add_us_p50", median(spans.durations_ms("chain.mempool.add")) * 1000.0},
      {"chain.mempool.add_busy_share",
       ratio(spans.total_ms("chain.mempool.add"), traced_raw_ms)},
      {"chain.mempool.select_ms_p50", median(spans.durations_ms("chain.mempool.select"))},
      {"crypto.sig_verifies_per_tx", ratio(verifies, static_cast<double>(committed))},
      {"chain.exec.conflict_ratio",
       ratio(counter_total(reg, "parallel_exec_conflicts_total") - conflicts_before,
             counter_total(reg, "parallel_exec_speculated_total") - speculated_before)},
      {"chain.exec.reexecuted_per_block",
       (counter_total(reg, "parallel_exec_reexecuted_total") - reexec_before) / blocks},
      {"chain.state.root_update_ms_mean", root.mean() * 1000.0},
      {"vm.steps_per_tx", ratio(counter_total(reg, "scvm_steps_total") - steps_before, applied)},
      {"vm.gas_per_tx", gas.mean()},
      {"store.fsyncs_per_block", (counter_total(reg, "store_fsyncs_total") - fsyncs_before) / blocks},
      {"store.bytes_per_block",
       (counter_total(reg, "store_bytes_appended_total") - bytes_before) / blocks},
      {"trace.overhead_ratio", ratio(median(traced_ms), median(untraced_ms)) - 1.0},
  };

  // -- Correctness gates ------------------------------------------------------
  result.gate(gen.duplicate_bodies() == 0, "generator produced transactions with equal bodies");
  result.gate(chain->best_height() == height, "chain height does not match blocks submitted");
  result.gate(chain->state_root() == sc::chain::StateCommitment::root_of(chain->best_state()),
              "incremental state root differs from a full rehash of the tip state");
  const sc::crypto::Hash256 head = chain->best_head();
  const sc::crypto::Hash256 root_hash = chain->state_root();
  chain->close();
  chain.reset();
  {
    sc::chain::Blockchain reopened(genesis, &tel);
    std::string why;
    const bool opened = reopened.open(store_dir, {}, &why);
    result.gate(opened, "store failed to reopen: " + why);
    result.gate(!opened || (reopened.best_head() == head && reopened.state_root() == root_hash),
                "reopened store replays to a different head or state root");
  }
  fs::remove_all(store_dir);

  result.info["ops"] = std::to_string(op_ms.size());
  result.info["raw_latency_p50_ms"] = std::to_string(median(raw_block_ms));
  result.info["raw_txs_per_s"] = std::to_string(static_cast<double>(committed) / (timed_ms / 1000.0));
  result.info["host_slowdown"] = std::to_string(probe.mean_slowdown());
  result.info["lanes"] = std::to_string(pipeline_lanes());
  return result;
}

}  // namespace perfbench
