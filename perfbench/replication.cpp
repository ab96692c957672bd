// Workload `replication`: a core::ConsensusCluster of four honest durable
// nodes living through a fixed, seeded fault schedule.
//
// The network is the NetworkConfig default (50 ms base latency, 20 ms mean
// jitter, no loss); the mean block time is 2 s; stores run with fsync off.
// One op is one 120 sim-s fault cycle: crash a node, partition the other
// three 2|1, heal, then restart_node (store replay + range sync) and wait
// until every replica holds the same head. Sparse signed transfers are
// submitted on a fixed sim-time schedule that keeps running through the
// faults; a client re-submits a transfer that a reorg dropped. A cluster lives
// for one epoch of cycles and is then rebuilt from genesis, so store replay
// costs the same in every run however many cycles the machine completes.
//
// Why: the only workload that exercises sim::Network, ConsensusNode gossip
// and sync, reorg walks and the store's read/replay path — the same chain and
// store block_pipeline drives with straight appends. fsync stays off because
// with it on this workload would measure the disk (block_pipeline already
// covers the fsync path). Crypto does little here.
#include <filesystem>
#include <memory>
#include <set>

#include "common.hpp"
#include "core/node.hpp"
#include "crypto/keccak.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using sc::chain::kEther;
using sc::chain::Transaction;

constexpr std::size_t kNodes = 4;
constexpr double kBlockTime = 2.0;
constexpr double kCycle = 120.0;
// Fault times within a cycle (sim-s from its start).
constexpr double kPartitionAt = 10.0;
constexpr double kHealAt = 40.0;
constexpr double kRestartAt = 60.0;
constexpr double kCatchupBudget = 60.0;
constexpr double kCatchupStep = 0.1;
/// Transfers per cycle, due at 5, 20, 35 and 50 sim-s: during the crash and
/// the partition.
constexpr std::size_t kTxsPerCycle = 4;
constexpr double kFirstTxAt = 5.0;
constexpr double kTxEvery = 15.0;
constexpr int kResubmitRounds = 3;

struct Cycle {
  std::size_t victim = 0;
  std::size_t alone = 0;  ///< Minority side of the 2|1 partition.
};

sc::core::ClusterOptions durable_options(const std::string& dir) {
  sc::core::ClusterOptions options;
  options.store_root = dir;
  options.persistence.fsync = false;
  return options;
}

/// The chain of a live node on the shared honest head.
const sc::chain::Blockchain& head_chain(sc::core::ConsensusCluster& cluster) {
  const sc::crypto::Hash256 head = cluster.honest_head();
  for (std::size_t i = 0; i < cluster.size(); ++i)
    if (cluster.node(i).alive() && cluster.node(i).chain().best_head() == head)
      return cluster.node(i).chain();
  return cluster.node(0).chain();
}

struct CycleOutcome {
  double total_ms = 0.0;
  double restart_ms = 0.0;
  double catchup_ms = 0.0;
  double run_ms = 0.0;  ///< Inside ConsensusCluster::run_for.
  bool caught_up = false;
  std::size_t txs_lost = 0;
  std::uint64_t resubmitted = 0;
};

}  // namespace

Result run_replication(const Options& options, SpanLog& spans) {
  Result result;
  sc::telemetry::Telemetry tel;
  const std::uint64_t cycles_per_epoch = options.smoke ? 2 : 8;

  // -- Inputs: one genesis and one set of signed transfers, reused by every
  // epoch (each epoch restarts from genesis, so the same nonces are valid).
  sc::util::Rng rng(options.seed ^ 0x7265706cULL);
  std::vector<sc::crypto::KeyPair> senders;
  for (std::size_t j = 0; j < kTxsPerCycle; ++j)
    senders.push_back(sc::crypto::KeyPair::generate(rng));
  sc::chain::GenesisConfig genesis;
  for (const auto& key : senders) genesis.allocations.push_back({key.address(), 1000 * kEther});
  sc::chain::Amount genesis_total = 0;
  for (const auto& [addr, amount] : genesis.allocations) genesis_total += amount;
  std::vector<std::vector<Transaction>> cycle_txs(cycles_per_epoch);
  for (std::uint64_t c = 0; c < cycles_per_epoch; ++c) {
    for (std::size_t j = 0; j < kTxsPerCycle; ++j) {
      sc::util::Writer w;
      w.u64(options.seed);
      w.u64(c * kTxsPerCycle + j);
      const sc::crypto::Hash256 h = sc::crypto::keccak256(w.data());
      Transaction tx;
      tx.nonce = c;
      tx.to = sc::chain::Address::from_span(sc::util::ByteSpan(h.bytes.data(), 20));
      tx.value = 1000 + c * kTxsPerCycle + j;  // unique body
      tx.gas_limit = 50'000;
      tx.sign_with(senders[j]);
      cycle_txs[c].push_back(std::move(tx));
    }
  }

  const auto& reg = tel.registry;
  SpeedProbe probe;
  std::vector<double> setup_ms, op_ms, catchup_ms, raw_catchup_ms, restart_ms, sync_ms,
      traced_ms, untraced_ms;
  double timed_ms = 0.0, run_ms = 0.0;
  std::uint64_t canonical_blocks = 0, mined = 0, committed_txs = 0, resubmitted = 0;
  double retries_before = 0, timeouts_before = 0, rejected_before = 0, reorgs_before = 0,
         reorged_before = 0, sent_before = 0, bytes_before = 0, fsyncs_before = 0,
         tx_before = 0, steps_before = 0;
  auto snapshot_counters = [&] {
    retries_before = counter_total(reg, "node_sync_retries_total");
    timeouts_before = counter_total(reg, "node_sync_timeouts_total");
    rejected_before = counter_total(reg, "node_blocks_rejected_total");
    reorgs_before = counter_total(reg, "chain_reorgs_total");
    reorged_before = counter_total(reg, "chain_reorged_blocks_total");
    sent_before = counter_total(reg, "net_messages_sent_total");
    bytes_before = counter_total(reg, "store_bytes_appended_total");
    fsyncs_before = counter_total(reg, "store_fsyncs_total");
    tx_before = counter_total(reg, "chain_tx_total");
    steps_before = counter_total(reg, "scvm_steps_total");
  };
  HistogramTotals gas_before, root_before;

  std::uint64_t op = 0;
  // The first epoch is warm-up: its cycles are checked but not timed.
  const std::uint64_t min_ops = options.smoke ? 1 : kMinOps;
  for (std::uint64_t epoch = 0;
       epoch < 2 || timed_ms < options.seconds * 1000.0 || op < min_ops; ++epoch) {
    const bool warmup = epoch == 0;
    if (epoch == 1) {
      snapshot_counters();
      gas_before = histogram_totals(reg, "chain_tx_gas_used");
      root_before = histogram_totals(reg, "state_root_update_seconds");
    }
    // The previous epoch's cluster is gone; its stores go too.
    const std::string dir = options.scratch + "/replication";
    fs::remove_all(dir);
    probe.mark();
    const auto t_setup = Clock::now();
    sc::core::ConsensusCluster cluster(
        options.seed * 1000003 + epoch,
        std::vector<sc::core::ConsensusCluster::NodeSpec>(kNodes, {1.0, true}), genesis,
        /*gate=*/nullptr, kBlockTime, sc::sim::NetworkConfig{}, &tel, durable_options(dir));
    const double raw_setup = ms_since(t_setup);
    probe.mark();
    setup_ms.push_back(probe.calibrate(raw_setup));
    auto& sim = cluster.simulator();

    // The seeded fault schedule of this epoch.
    sc::util::Rng sched(options.seed * 0x9E3779B97F4A7C15ULL + epoch);
    std::vector<Cycle> cycles(cycles_per_epoch);
    for (Cycle& cyc : cycles) {
      cyc.victim = sched.uniform(kNodes);
      cyc.alone = (cyc.victim + 1 + sched.uniform(kNodes - 1)) % kNodes;
    }
    for (std::uint64_t c = 0; c < cycles_per_epoch; ++c) {
      const bool traced = options.trace && !warmup && op % 2 == 0;
      spans.set_enabled(traced);
      spans.set_op(static_cast<std::uint32_t>(op));
      const Cycle& cyc = cycles[c];
      const double start = sim.now();
      const std::uint64_t mined_before = cluster.blocks_mined();
      const std::uint64_t height_before = head_chain(cluster).best_height();
      CycleOutcome out;
      auto run_to = [&](double at) {
        const auto span = spans.scope("core.cluster.run_for");
        const auto t0 = Clock::now();
        cluster.run_for(at - sim.now());
        out.run_ms += ms_since(t0);
      };
      for (std::size_t k = 0; k < kTxsPerCycle; ++k)
        sim.at(start + kFirstTxAt + kTxEvery * static_cast<double>(k),
               [&cluster, tx = cycle_txs[c][k]] { cluster.submit_transaction(tx); });

      probe.mark();
      const auto t_op = Clock::now();
      cluster.crash_node(cyc.victim);
      run_to(start + kPartitionAt);
      std::set<sc::sim::NodeId> majority, minority{cluster.node(cyc.alone).network_id()};
      for (std::size_t i = 0; i < kNodes; ++i)
        if (i != cyc.victim && i != cyc.alone) majority.insert(cluster.node(i).network_id());
      cluster.network().partition_groups({majority, minority});
      run_to(start + kHealAt);
      cluster.network().heal_partition();
      run_to(start + kRestartAt);

      const auto t_restart = Clock::now();
      bool reopened = false;
      {
        const auto span = spans.scope("core.cluster.restart_node");
        reopened = cluster.restart_node(cyc.victim);
      }
      out.restart_ms = ms_since(t_restart);
      {
        const auto span = spans.scope("core.node.catchup");
        auto& node = cluster.node(cyc.victim);
        while (!(reopened && !node.syncing() && cluster.honest_nodes_converged()) &&
               sim.now() < start + kRestartAt + kCatchupBudget)
          run_to(sim.now() + kCatchupStep);
        out.caught_up =
            reopened && !node.syncing() && cluster.honest_nodes_converged();
      }
      out.catchup_ms = ms_since(t_restart);
      run_to(start + kCycle);

      // A transfer a reorg dropped is re-submitted, as its client would.
      for (int round = 0;; ++round) {
        std::vector<const Transaction*> missing;
        const sc::chain::Blockchain& chain = head_chain(cluster);
        for (const Transaction& tx : cycle_txs[c])
          if (!chain.find_transaction(tx.id())) missing.push_back(&tx);
        if (missing.empty() || round == kResubmitRounds) {
          out.txs_lost = missing.size();
          break;
        }
        for (const Transaction* tx : missing) cluster.submit_transaction(*tx);
        out.resubmitted += missing.size();
        run_to(sim.now() + 20.0);
      }
      out.total_ms = ms_since(t_op);
      if (options.trace) spans.drain(tel.tracer);
      spans.set_enabled(false);
      probe.mark();

      result.attempted += kTxsPerCycle + 1;  // the transfers and the catch-up
      result.failed += out.txs_lost + (out.caught_up ? 0 : 1);
      if (warmup) continue;
      ++op;
      timed_ms += out.total_ms;
      run_ms += out.run_ms;
      op_ms.push_back(probe.calibrate(out.total_ms));
      (traced ? traced_ms : untraced_ms).push_back(op_ms.back());
      catchup_ms.push_back(probe.calibrate(out.catchup_ms));
      raw_catchup_ms.push_back(out.catchup_ms);
      restart_ms.push_back(out.restart_ms);
      sync_ms.push_back(out.catchup_ms - out.restart_ms);
      mined += cluster.blocks_mined() - mined_before;
      canonical_blocks += head_chain(cluster).best_height() - height_before;
      committed_txs += kTxsPerCycle - out.txs_lost;
      resubmitted += out.resubmitted;
    }

    // -- Epoch-end gates (untimed): settle, then every replica must agree.
    const std::string tag = "epoch " + std::to_string(epoch) + ": ";
    bool converged = cluster.honest_nodes_converged();
    for (int poll = 0; poll < 20 && !converged; ++poll) {
      cluster.run_for(5.0);
      converged = cluster.honest_nodes_converged();
    }
    result.gate(converged, tag + "honest nodes did not converge");
    const sc::chain::Blockchain& ref = head_chain(cluster);
    const sc::util::Bytes state = ref.best_state().encode();
    for (std::size_t i = 0; i < kNodes; ++i)
      result.gate(cluster.node(i).chain().best_state().encode() == state,
                  tag + "tip state of node " + std::to_string(i) + " differs");
    result.gate(ref.best_state().total_supply() ==
                    genesis_total + ref.best_height() * sc::chain::kBlockReward,
                tag + "supply is not genesis plus one reward per canonical block");
  }
  fs::remove_all(options.scratch + "/replication");

  const double seconds = sum(op_ms) / 1000.0;
  result.end_to_end = {
      {"setup_s", median(setup_ms) / 1000.0},
      {"ops_per_s", static_cast<double>(op_ms.size()) / seconds},
      {"latency_p50_ms", median(catchup_ms)},
      {"latency_p90_ms", quantile(catchup_ms, 0.9)},
      {"txs_per_s", static_cast<double>(committed_txs) / seconds},
      {"blocks_per_s", static_cast<double>(canonical_blocks) / seconds},
      {"peak_rss_mb", peak_rss_mb()},
  };

  const double kblocks = static_cast<double>(canonical_blocks) / 1000.0;
  const double mined_d = static_cast<double>(mined);
  const double catchups = static_cast<double>(catchup_ms.size());
  const auto gas = histogram_totals(reg, "chain_tx_gas_used") - gas_before;
  const auto root = histogram_totals(reg, "state_root_update_seconds") - root_before;
  result.per_layer = {
      {"chain.connect_ms_p50", median(spans.durations_ms("chain.block_connect"))},
      {"chain.reorgs_per_kblock",
       ratio(counter_total(reg, "chain_reorgs_total") - reorgs_before, kblocks)},
      {"chain.reorged_blocks_per_kblock",
       ratio(counter_total(reg, "chain_reorged_blocks_total") - reorged_before, kblocks)},
      {"chain.state.root_update_ms_mean", root.mean() * 1000.0},
      {"vm.steps_per_tx",
       ratio(counter_total(reg, "scvm_steps_total") - steps_before,
             counter_total(reg, "chain_tx_total") - tx_before)},
      {"vm.gas_per_tx", gas.mean()},
      {"store.fsyncs_per_block",
       ratio(counter_total(reg, "store_fsyncs_total") - fsyncs_before, mined_d)},
      {"store.bytes_per_block",
       ratio(counter_total(reg, "store_bytes_appended_total") - bytes_before, mined_d)},
      {"store.restart_ms_p50", median(restart_ms)},
      {"core.node.sync_ms_p50", median(sync_ms)},
      {"core.node.sync_retries_per_catchup",
       ratio(counter_total(reg, "node_sync_retries_total") - retries_before, catchups)},
      {"core.node.sync_timeouts_per_catchup",
       ratio(counter_total(reg, "node_sync_timeouts_total") - timeouts_before, catchups)},
      {"core.node.blocks_rejected",
       counter_total(reg, "node_blocks_rejected_total") - rejected_before},
      {"sim.net.messages_per_block",
       ratio(counter_total(reg, "net_messages_sent_total") - sent_before, mined_d)},
      {"core.cluster.run_ms_per_block", ratio(run_ms, mined_d)},
      {"trace.overhead_ratio", ratio(median(traced_ms), median(untraced_ms)) - 1.0},
  };
  // A block an honest replica refused is a failed op.
  const double rejected = counter_total(reg, "node_blocks_rejected_total") - rejected_before;
  result.attempted += mined;
  result.failed += static_cast<std::uint64_t>(rejected);

  result.info["ops"] = std::to_string(op_ms.size());
  result.info["raw_latency_p50_ms"] = std::to_string(median(raw_catchup_ms));
  result.info["raw_blocks_per_s"] =
      std::to_string(static_cast<double>(canonical_blocks) / (timed_ms / 1000.0));
  result.info["host_slowdown"] = std::to_string(probe.mean_slowdown());
  result.info["resubmitted_txs"] = std::to_string(resubmitted);
  return result;
}

}  // namespace perfbench
