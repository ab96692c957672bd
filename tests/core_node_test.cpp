// Replicated consensus: gossip convergence, record-gate enforcement,
// partitions/reorgs, and chain-level collusion.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <set>

#include "core/node.hpp"
#include "util/rng.hpp"

namespace sc::core {
namespace {

using chain::kEther;

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

chain::GenesisConfig genesis_with(const crypto::KeyPair& funder) {
  return chain::GenesisConfig{{{funder.address(), 1000 * kEther}}, 0, 1};
}

chain::Transaction transfer(const crypto::KeyPair& from, std::uint64_t nonce,
                            bool valid_signature = true) {
  chain::Transaction tx;
  tx.kind = chain::TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = key(999).address();
  tx.value = 1;
  tx.gas_limit = 21000;
  tx.sign_with(from);
  if (!valid_signature) tx.value = 2;  // breaks the signature
  return tx;
}

/// Gate that rejects transactions flagged via protocol payload byte 0xBA
/// (stand-in for a forged detection record failing Algorithm 1).
bool demo_gate(const chain::Transaction& tx) {
  return tx.protocol_payload.empty() || tx.protocol_payload[0] != 0xBA;
}

TEST(ConsensusCluster, HonestNodesConverge) {
  const auto funder = key(1);
  ConsensusCluster cluster(7, {{1.0, true}, {1.0, true}, {1.0, true}},
                           genesis_with(funder), demo_gate);
  cluster.run_for(3000.0);  // ~200 blocks
  cluster.run_for(10.0);    // let final gossip settle
  EXPECT_GT(cluster.blocks_mined(), 100u);
  EXPECT_TRUE(cluster.honest_nodes_converged());
  // All replicas carry real chains of the same height.
  const auto head = cluster.honest_head();
  for (std::size_t i = 0; i < cluster.size(); ++i)
    EXPECT_EQ(cluster.node(i).chain().best_head(), head) << "node " << i;
}

TEST(ConsensusCluster, TransactionsReplicateToAllNodes) {
  const auto funder = key(2);
  ConsensusCluster cluster(8, {{2.0, true}, {1.0, true}}, genesis_with(funder),
                           demo_gate);
  const auto tx = transfer(funder, 0);
  cluster.submit_transaction(tx);
  cluster.run_for(300.0);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.node(i).chain().find_transaction(tx.id()).has_value())
        << "node " << i;
  }
}

TEST(ConsensusCluster, GossipReorderingHandledViaOrphans) {
  const auto funder = key(3);
  // High jitter makes out-of-order block arrival likely.
  sim::NetworkConfig net;
  net.base_latency = 0.05;
  net.latency_jitter = 8.0;
  ConsensusCluster cluster(9, {{1.0, true}, {1.0, true}, {1.0, true}},
                           genesis_with(funder), demo_gate, 10.0, net);
  cluster.run_for(2000.0);
  // With 8 s latency jitter against 10 s blocks, short-lived forks and ties
  // are the NORMAL state; eventual consistency means some settling instant
  // exists where all replicas agree. Poll for one.
  bool converged = false;
  for (int i = 0; i < 60 && !converged; ++i) {
    cluster.run_for(30.0);
    converged = cluster.honest_nodes_converged();
  }
  EXPECT_TRUE(converged);
  std::uint64_t orphans = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i)
    orphans += cluster.node(i).orphans_buffered();
  EXPECT_GT(orphans, 0u);  // the mechanism was actually exercised
}

TEST(ConsensusCluster, HonestMinersExcludeGateFailingRecords) {
  const auto funder = key(4);
  ConsensusCluster cluster(10, {{1.0, true}, {1.0, true}}, genesis_with(funder),
                           demo_gate);
  chain::Transaction forged = transfer(funder, 0);
  forged.protocol = chain::ProtocolKind::kDetailedReport;
  forged.protocol_payload = {0xBA};  // fails the gate
  forged.sign_with(funder);
  cluster.submit_transaction(forged);
  cluster.run_for(600.0);
  for (std::size_t i = 0; i < cluster.size(); ++i)
    EXPECT_FALSE(cluster.node(i).chain().find_transaction(forged.id()).has_value());
}

TEST(ConsensusCluster, MinorityColluderCannotLandForgedRecord) {
  const auto funder = key(5);
  // Node 2 is a colluding miner with 20% hashing power; it will include the
  // forged record, but honest nodes reject its blocks, so its chain loses.
  ConsensusCluster cluster(11, {{4.0, true}, {4.0, true}, {2.0, false}},
                           genesis_with(funder), demo_gate);
  chain::Transaction forged = transfer(funder, 0);
  forged.protocol = chain::ProtocolKind::kDetailedReport;
  forged.protocol_payload = {0xBA};
  forged.sign_with(funder);
  cluster.submit_transaction(forged, /*forged_only_for_dishonest=*/true);
  cluster.run_for(3000.0);
  cluster.run_for(30.0);

  // Honest replicas agree and do NOT contain the forged record (canonically).
  EXPECT_TRUE(cluster.honest_nodes_converged());
  EXPECT_FALSE(cluster.node(0).chain().find_transaction(forged.id()).has_value());
  EXPECT_FALSE(cluster.node(1).chain().find_transaction(forged.id()).has_value());
  // Honest nodes rejected at least one adversarial block.
  EXPECT_GT(cluster.node(0).blocks_rejected() + cluster.node(1).blocks_rejected(),
            0u);
  // The colluder (which follows the heaviest chain it can see) cannot keep
  // its forged block canonical either: the honest majority outruns it.
  EXPECT_FALSE(cluster.node(2).chain().find_transaction(forged.id()).has_value());
}

TEST(ConsensusCluster, MajorityColluderWins51PercentAttack) {
  const auto funder = key(6);
  ConsensusCluster cluster(12, {{2.0, true}, {1.0, true}, {7.0, false}},
                           genesis_with(funder), demo_gate);
  chain::Transaction forged = transfer(funder, 0);
  forged.protocol = chain::ProtocolKind::kDetailedReport;
  forged.protocol_payload = {0xBA};
  forged.sign_with(funder);
  cluster.submit_transaction(forged, /*forged_only_for_dishonest=*/true);
  cluster.run_for(3000.0);
  cluster.run_for(30.0);
  // With 70% of hashing power the colluder's chain dominates: honest nodes
  // cannot adopt it (they reject the records), so they fall behind — the
  // 51% boundary the paper concedes in Section VIII.
  EXPECT_GT(cluster.node(2).chain().best_height(),
            cluster.node(0).chain().best_height());
}

TEST(ConsensusCluster, PartitionDivergesThenHeals) {
  const auto funder = key(7);
  ConsensusCluster cluster(13, {{3.0, true}, {1.0, true}}, genesis_with(funder),
                           demo_gate);
  cluster.run_for(300.0);
  cluster.network().partition({cluster.node(0).network_id()},
                              {cluster.node(1).network_id()});
  cluster.run_for(600.0);
  // Both sides kept mining independently — heads diverged.
  EXPECT_FALSE(cluster.honest_nodes_converged());

  cluster.network().heal_partition();
  // New blocks propagate again; the heavier (higher-HP) side's chain wins,
  // and orphan-backfill lets the loser adopt it once linkage completes.
  cluster.run_for(1500.0);
  cluster.run_for(30.0);
  EXPECT_TRUE(cluster.honest_nodes_converged());
}

TEST(ConsensusCluster, ThreeWayPartitionHealsToOneHead) {
  const auto funder = key(20);
  // Nine honest nodes, then a three-way split: each island keeps mining its
  // own chain; after healing, all nine must converge on a single head.
  std::vector<ConsensusCluster::NodeSpec> specs(9, {1.0, true});
  ConsensusCluster cluster(21, specs, genesis_with(funder), demo_gate);
  cluster.run_for(300.0);

  std::vector<std::set<sim::NodeId>> groups(3);
  for (std::size_t i = 0; i < cluster.size(); ++i)
    groups[i % 3].insert(cluster.node(i).network_id());
  cluster.network().partition_groups(groups);
  cluster.run_for(900.0);
  EXPECT_FALSE(cluster.honest_nodes_converged());
  EXPECT_GT(cluster.network().messages_severed(), 0u);

  cluster.network().heal_partition();
  bool converged = false;
  for (int i = 0; i < 80 && !converged; ++i) {
    cluster.run_for(30.0);
    converged = cluster.honest_nodes_converged();
  }
  EXPECT_TRUE(converged);
  const auto head = cluster.honest_head();
  for (std::size_t i = 0; i < cluster.size(); ++i)
    EXPECT_EQ(cluster.node(i).chain().best_head(), head) << "node " << i;
  // Network accounting stayed consistent through the partition epochs.
  EXPECT_EQ(cluster.network().messages_sent(),
            cluster.network().messages_delivered() +
                cluster.network().messages_dropped() +
                cluster.network().messages_severed());
}

TEST(ConsensusCluster, CrashedNodeCatchesUpViaPullSync) {
  const auto funder = key(22);
  ConsensusCluster cluster(23, {{1.0, true}, {1.0, true}, {1.0, true}},
                           genesis_with(funder), demo_gate);
  cluster.run_for(300.0);

  cluster.crash_node(2);
  EXPECT_FALSE(cluster.node(2).alive());
  // At least 100 blocks mined while node 2 is down: several 16-block batches.
  for (int i = 0; i < 100 && cluster.node(0).chain().best_height() <
                                 cluster.node(2).chain().best_height() + 100;
       ++i)
    cluster.run_for(60.0);
  const auto live_height = cluster.node(0).chain().best_height();
  EXPECT_GE(live_height, cluster.node(2).chain().best_height() + 100);

  EXPECT_TRUE(cluster.restart_node(2));  // RAM-only: restart resyncs from genesis
  bool converged = false;
  for (int i = 0; i < 60 && !converged; ++i) {
    cluster.run_for(30.0);
    converged = cluster.honest_nodes_converged();
  }
  EXPECT_TRUE(converged);
  EXPECT_GE(cluster.node(2).chain().best_height(), live_height);
  // The ranged protocol (not just block gossip) did the catching up: the
  // node was >=100 blocks behind and gossip alone cannot deliver old blocks.
  EXPECT_FALSE(cluster.node(2).syncing());
  // A healthy network answers every range request the first time.
  EXPECT_EQ(cluster.node(2).sync_retries(), 0u);
  EXPECT_EQ(cluster.node(2).sync_timeouts(), 0u);
}

TEST(ConsensusCluster, DurableNodeRestartsFromItsStore) {
  const auto funder = key(24);
  char tmpl[] = "/tmp/sc_node_restart_XXXXXX";
  const std::string root = ::mkdtemp(tmpl);
  ClusterOptions options;
  options.store_root = root;
  options.persistence.fsync = false;
  ConsensusCluster cluster(25, {{1.0, true}, {1.0, true}}, genesis_with(funder),
                           demo_gate, chain::kTargetBlockTime, {}, nullptr,
                           options);
  cluster.run_for(1500.0);
  cluster.crash_node(1);
  cluster.run_for(300.0);
  EXPECT_TRUE(cluster.restart_node(1));
  // The restart replayed the durable prefix instead of starting from
  // genesis: the chain is immediately non-trivial and persistent.
  EXPECT_TRUE(cluster.node(1).chain().persistent());
  EXPECT_GT(cluster.node(1).chain().best_height(), 10u);
  EXPECT_EQ(cluster.node(1).store_reopen_failures(), 0u);
  bool converged = false;
  for (int i = 0; i < 60 && !converged; ++i) {
    cluster.run_for(30.0);
    converged = cluster.honest_nodes_converged();
  }
  EXPECT_TRUE(converged);
  std::filesystem::remove_all(root);
}

TEST(ConsensusNode, OrphanBufferIsBoundedWithOldestParentEviction) {
  sim::Simulator sim(26);
  sim::Network net(sim);
  const auto funder = key(9);
  NodeOptions options;
  options.max_orphans = 4;
  ConsensusNode node(sim, net, genesis_with(funder), "n0", true, demo_gate,
                     nullptr, options);
  // Feed orphans with distinct unknown parents; the buffer must never hold
  // more than max_orphans blocks and must evict the oldest parents first.
  const auto miner = key(10).address();
  for (int i = 0; i < 10; ++i) {
    chain::Block block;
    block.header.height = 5;
    block.header.prev_id.bytes[0] = static_cast<std::uint8_t>(i + 1);
    block.header.timestamp = 50;
    block.header.difficulty = 1;
    block.header.miner = miner;
    block.seal_merkle_root();
    node.on_message({1, "block", block.encode()});
  }
  EXPECT_EQ(node.orphans_buffered(), 10u);
  EXPECT_EQ(node.orphans_evicted(), 6u);  // 10 seen, cap 4
  sim.run();
}

TEST(ConsensusNode, DeadNodeIgnoresTraffic) {
  sim::Simulator sim(27);
  sim::Network net(sim);
  const auto funder = key(11);
  ConsensusNode node(sim, net, genesis_with(funder), "n0", true, demo_gate);
  node.crash();
  EXPECT_FALSE(node.alive());
  node.on_message({99, "block", util::Bytes{1, 2, 3}});
  EXPECT_EQ(node.blocks_rejected(), 0u);  // not even rejected: not heard
  EXPECT_FALSE(node.mine_and_broadcast(key(12).address(), {}));
  EXPECT_TRUE(node.restart());
  EXPECT_TRUE(node.alive());
}

TEST(ConsensusNode, SyncRetriesWithBackoffWhenAlone) {
  sim::Simulator sim(28);
  sim::Network net(sim);
  const auto funder = key(13);
  ConsensusNode node(sim, net, genesis_with(funder), "n0", true, demo_gate);
  // No peers: every status probe times out; the node must keep retrying on
  // an exponential schedule rather than spinning or giving up silently.
  node.start_sync();
  sim.run_until(120.0);
  EXPECT_TRUE(node.syncing());
  EXPECT_GT(node.sync_timeouts(), 2u);
  EXPECT_EQ(node.sync_timeouts(), node.sync_retries());
  // Backoff caps at 30s: in 120s there can be at most ~8 attempts.
  EXPECT_LT(node.sync_retries(), 10u);
}

TEST(ConsensusNode, RejectsMalformedBlockPayload) {
  sim::Simulator sim(14);
  sim::Network net(sim);
  const auto funder = key(8);
  ConsensusNode node(sim, net, genesis_with(funder), "n0", true, demo_gate);
  node.on_message({99, "block", util::Bytes{1, 2, 3}});
  EXPECT_EQ(node.blocks_rejected(), 1u);
  node.on_message({99, "not-a-block", {}});
  EXPECT_EQ(node.blocks_rejected(), 1u);  // unrelated topics ignored
}

}  // namespace
}  // namespace sc::core
