// Replicated consensus nodes: per-provider blockchain replicas synchronized
// by block gossip over the simulated network.
//
// The Platform class models the honest majority with one shared chain; this
// layer drops that simplification and demonstrates the paper's
// "fault-tolerant verification and storage" (Section V-C) at replication
// level: every provider node holds its OWN Blockchain, independently
// validates every gossiped block — linkage, Merkle consistency, and a
// pluggable record gate (Algorithm 1) over the protocol payloads — buffers
// orphans that arrive before their parents, and converges via
// heaviest-chain fork choice. A dishonest node can skip the record gate and
// mine forged records onto its replica; honest nodes refuse those blocks, so
// the attack degenerates into the fork race whose odds the attack harness
// quantifies — here it plays out on real chains.
//
// Churn (this file's second half of Section V-C): a node can crash() —
// losing its RAM state and dirty-detaching its durable store exactly as a
// process death would — and later restart(), reopening the chain from disk
// and catching up through a pull-based sync protocol: ranged block requests
// against scored peers, per-request timeouts, exponential backoff with
// jitter. docs/robustness.md specifies the protocol; tests/chaos_test.cpp
// and tools/sc_chaos drive it under randomized fault schedules.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "crypto/keys.hpp"
#include "sim/mining.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace sc::core {

/// Validates the protocol records inside a block body before the node will
/// accept the block (the per-record Algorithm-1 gate). Return false to
/// reject the whole block.
using RecordGate = std::function<bool(const chain::Transaction&)>;

/// Knobs of the pull-based catch-up protocol (docs/robustness.md).
struct SyncConfig {
  double request_timeout = 3.0;  ///< Sim-seconds before a request is retried.
  double backoff_base = 0.5;     ///< First retry delay.
  double backoff_max = 30.0;     ///< Exponential backoff ceiling.
  double jitter = 0.5;  ///< Retry delay stretches by up to this fraction.
  std::uint32_t batch = 16;      ///< Blocks per range request.
  std::uint32_t max_serve = 128; ///< Cap on blocks served per range request.
  double score_success = 1.0;    ///< Peer score reward for useful blocks.
  double score_timeout = -2.0;   ///< Penalty for timing out on us.
  double score_invalid = -4.0;   ///< Penalty for undecodable/rejected blocks.
};

struct NodeOptions {
  /// Directory of this node's durable store; empty keeps the replica
  /// RAM-only (crash() then loses the whole chain and restart() resyncs
  /// from genesis over the network).
  std::string store_dir;
  chain::PersistenceOptions persistence;
  SyncConfig sync;
  /// Orphan-buffer cap in blocks (oldest-parent eviction past it; 0 = no
  /// bound). Bounds the memory a peer can pin with unconnectable blocks.
  std::size_t max_orphans = 64;
};

class ConsensusNode {
 public:
  /// `honest` nodes enforce `gate` on every incoming/self-mined block;
  /// dishonest nodes ignore it (colluding miner). `tel` is the metrics sink
  /// (nullptr → telemetry::global()), also handed to this node's chain
  /// replica.
  ConsensusNode(sim::Simulator& sim, sim::Network& net,
                const chain::GenesisConfig& genesis, std::string name,
                bool honest, RecordGate gate,
                telemetry::Telemetry* tel = nullptr, NodeOptions options = {});
  ~ConsensusNode();

  sim::NodeId network_id() const { return net_id_; }
  const std::string& name() const { return name_; }
  bool honest() const { return honest_; }
  const chain::Blockchain& chain() const { return *chain_; }

  /// Mines a block on this node's current head from the given transactions
  /// (already record-validated if the node is honest), connects it locally
  /// and gossips it. Returns false if the node itself rejects the block (or
  /// is down).
  bool mine_and_broadcast(const chain::Address& miner,
                          std::vector<chain::Transaction> txs);

  /// Network delivery entry point ("block", "get_block", "sync.*" and
  /// "proof.req" topics).
  void on_message(const sim::Message& msg);

  // -- Crash/restart lifecycle ---------------------------------------------
  /// Simulated process death: RAM state (chain, orphans, peer scores, any
  /// in-flight sync) is lost and the durable store is detached WITHOUT clean
  /// shutdown — the directory keeps exactly the acknowledged prefix. The
  /// node ignores all traffic until restart().
  void crash();
  /// Recovery: reopens the chain from the durable store (replaying whatever
  /// the crash left acknowledged) and starts catch-up sync against the
  /// peers. Returns false when the store could not be reopened — the node
  /// then continues RAM-only from genesis and still syncs (graceful
  /// degradation; the failure is counted, never fatal).
  bool restart();
  bool alive() const { return alive_; }
  /// Kicks off (or re-kicks) the pull-sync state machine; restart() calls
  /// this, tests may call it directly.
  void start_sync();
  bool syncing() const { return syncing_; }

  std::uint64_t blocks_rejected() const { return rejected_; }
  std::uint64_t orphans_buffered() const { return orphans_seen_; }
  std::uint64_t orphans_evicted() const { return orphans_evicted_; }
  std::uint64_t sync_retries() const { return sync_retries_; }
  std::uint64_t sync_timeouts() const { return sync_timeouts_; }
  std::uint64_t store_reopen_failures() const { return store_reopen_failures_; }
  /// Learned score of a peer (0 when never scored); demoted peers serve
  /// ranged requests last.
  double peer_score(sim::NodeId peer) const;

 private:
  bool validate_records(const chain::Block& block) const;
  /// Tries to connect; buffers as orphan when the parent is unknown.
  void try_connect(const chain::Block& block, bool rebroadcast);
  void drain_orphans();
  void buffer_orphan(const chain::Block& block);
  void record_rejection();

  std::unique_ptr<chain::Blockchain> make_chain(bool open_store);
  void send_status_probe();
  void request_next_range();
  void arm_timeout(std::uint64_t req_id);
  void on_sync_timeout();
  void schedule_retry();
  void continue_sync();
  void finish_sync();
  /// Best peer claiming more blocks than we hold (highest score, lowest id
  /// tie-break); -1 when every known claim is satisfied.
  long long pick_sync_peer() const;
  void handle_proof_req(const sim::Message& msg);
  void handle_status_req(const sim::Message& msg);
  void handle_status_resp(const sim::Message& msg);
  void handle_range_req(const sim::Message& msg);
  void handle_range_resp(const sim::Message& msg);

  sim::Simulator& sim_;
  sim::Network& net_;
  sim::NodeId net_id_ = 0;
  std::string name_;
  bool honest_;
  RecordGate gate_;
  telemetry::Telemetry* telemetry_;
  struct Metrics;
  std::unique_ptr<Metrics> metrics_;  ///< Before chain_: a reopen may count.
  chain::GenesisConfig genesis_;  ///< Kept for post-crash chain rebuilds.
  NodeOptions options_;
  std::unique_ptr<chain::Blockchain> chain_;
  bool alive_ = true;
  /// Bumped on every crash/restart; pending timer callbacks from an earlier
  /// life compare it and turn into no-ops.
  std::uint64_t incarnation_ = 0;

  sim::NodeId last_sender_ = 0;  ///< Peer to ask for orphan backfill.
  std::map<crypto::Hash256, std::vector<chain::Block>> orphans_;  ///< by parent id
  std::vector<crypto::Hash256> orphan_order_;  ///< FIFO of parent keys.
  std::size_t orphan_count_ = 0;               ///< Blocks across all buckets.
  std::uint64_t rejected_ = 0;
  std::uint64_t orphans_seen_ = 0;
  std::uint64_t orphans_evicted_ = 0;

  // -- Pull-sync state machine ---------------------------------------------
  bool syncing_ = false;
  double sync_started_ = 0.0;
  double backoff_ = 0.0;
  std::uint64_t next_req_id_ = 1;
  std::uint64_t pending_req_ = 0;   ///< Outstanding request id (0 = none).
  bool pending_is_range_ = false;
  sim::NodeId pending_peer_ = 0;
  std::map<sim::NodeId, std::uint64_t> peer_target_;  ///< Claimed heights.
  std::map<sim::NodeId, double> peer_score_;
  std::uint64_t sync_retries_ = 0;
  std::uint64_t sync_timeouts_ = 0;
  std::uint64_t store_reopen_failures_ = 0;
};

/// Cluster-wide knobs for durable/churn experiments (namespace scope so it
/// can be a defaulted constructor argument).
struct ClusterOptions {
  /// When set, node i persists to `<store_root>/node-<i>`.
  std::string store_root;
  chain::PersistenceOptions persistence;
  SyncConfig sync;
  std::size_t max_orphans = 64;
};

/// A cluster of consensus nodes plus the mining race driving them.
class ConsensusCluster {
 public:
  struct NodeSpec {
    double hash_power = 1.0;
    bool honest = true;
  };

  using ClusterOptions = sc::core::ClusterOptions;

  /// `tel` (nullptr → telemetry::global()) receives the cluster's network and
  /// per-node chain metrics; the cluster also drives the sink's tracer
  /// virtual clock from its simulator for as long as the cluster lives.
  ConsensusCluster(std::uint64_t seed, const std::vector<NodeSpec>& specs,
                   const chain::GenesisConfig& genesis, RecordGate gate,
                   double mean_block_time = chain::kTargetBlockTime,
                   sim::NetworkConfig net_config = {},
                   telemetry::Telemetry* tel = nullptr,
                   ClusterOptions options = {});
  ~ConsensusCluster();

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return net_; }
  ConsensusNode& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }

  /// Queues a transaction for inclusion by the next winning miner. If
  /// `forged_only_for_dishonest` is set, only dishonest miners will include
  /// it (the collusion scenario).
  void submit_transaction(chain::Transaction tx, bool forged_only_for_dishonest = false);

  /// Runs the mining race + gossip for the given duration.
  void run_for(double seconds);

  /// Kills / revives node `i` (see ConsensusNode::crash/restart). A dead
  /// node forfeits the blocks the mining race awards it.
  void crash_node(std::size_t i) { nodes_[i]->crash(); }
  bool restart_node(std::size_t i) { return nodes_[i]->restart(); }

  /// True when all honest LIVE nodes agree on the same best head (dead nodes
  /// have nothing to agree with).
  bool honest_nodes_converged() const;
  /// The best head shared by the (plurality of) live honest nodes.
  crypto::Hash256 honest_head() const;
  std::uint64_t blocks_mined() const { return blocks_mined_; }

 private:
  void schedule_next_block();

  telemetry::Telemetry* telemetry_;
  sim::Simulator sim_;
  sim::Network net_;
  sim::MiningRace race_;
  RecordGate gate_;
  std::vector<std::unique_ptr<ConsensusNode>> nodes_;
  std::vector<crypto::KeyPair> miner_keys_;
  struct QueuedTx {
    chain::Transaction tx;
    bool dishonest_only;
  };
  std::vector<QueuedTx> queue_;
  std::uint64_t blocks_mined_ = 0;
};

}  // namespace sc::core
