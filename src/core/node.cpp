#include "core/node.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/serialize.hpp"

namespace sc::core {

struct ConsensusNode::Metrics {
  telemetry::Registry& r;
  telemetry::Labels node;  ///< {node=name}
  telemetry::Counter& store_reopen_failures =
      r.counter("node_store_reopen_failures_total",
                "Durable-store reopen failures at node (re)start, by node", node);
  telemetry::Counter& blocks_rejected =
      r.counter("node_blocks_rejected_total", "Blocks a replica refused, by node", node);
  telemetry::Gauge& orphan_buffer = r.gauge(
      "node_orphan_buffer_size", "Blocks parked awaiting a parent, by node", node);
  telemetry::Counter& orphans_evicted =
      r.counter("node_orphans_evicted_total",
                "Orphan blocks dropped by the buffer cap, by node", node);
  telemetry::Counter& crashes =
      r.counter("node_crashes_total", "Simulated process deaths, by node", node);
  telemetry::Counter& restarts =
      r.counter("node_restarts_total", "Node restarts, by node", node);
  telemetry::Counter& sync_timeouts = r.counter(
      "node_sync_timeouts_total", "Sync requests that timed out, by node", node);
  telemetry::Counter& sync_retries =
      r.counter("node_sync_retries_total", "Sync retry attempts, by node", node);
  telemetry::Histogram& catchup =
      r.histogram("node_catchup_duration_seconds",
                  "Sim-time from sync start to caught-up, by node",
                  telemetry::HistogramSpec::latency_seconds(), node);
  /// Unlabelled: summed over every serving node.
  telemetry::Counter& proofs_served =
      r.counter("lightclient_proof_served_total",
                "State proofs served to header-only clients over proof.req");
};

ConsensusNode::ConsensusNode(sim::Simulator& sim, sim::Network& net,
                             const chain::GenesisConfig& genesis, std::string name,
                             bool honest, RecordGate gate,
                             telemetry::Telemetry* tel, NodeOptions options)
    : sim_(sim),
      net_(net),
      name_(std::move(name)),
      honest_(honest),
      gate_(std::move(gate)),
      telemetry_(tel),
      metrics_(std::make_unique<Metrics>(
          telemetry::resolve(tel).registry, telemetry::Labels{{"node", name_}})),
      genesis_(genesis),
      options_(std::move(options)),
      chain_(make_chain(/*open_store=*/true)) {
  net_id_ = net_.add_node([this](const sim::Message& msg) { on_message(msg); });
}

ConsensusNode::~ConsensusNode() = default;

std::unique_ptr<chain::Blockchain> ConsensusNode::make_chain(bool open_store) {
  auto chain = std::make_unique<chain::Blockchain>(genesis_, telemetry_);
  if (open_store && !options_.store_dir.empty()) {
    std::string why;
    if (!chain->open(options_.store_dir, options_.persistence, &why)) {
      // Graceful degradation: the node keeps running RAM-only from genesis
      // and relies on sync to catch back up; the failure is only counted.
      ++store_reopen_failures_;
      metrics_->store_reopen_failures.inc();
    }
  }
  return chain;
}

void ConsensusNode::record_rejection() {
  ++rejected_;
  metrics_->blocks_rejected.inc();
}

bool ConsensusNode::validate_records(const chain::Block& block) const {
  if (!honest_ || !gate_) return true;
  return std::all_of(block.transactions.begin(), block.transactions.end(), gate_);
}

bool ConsensusNode::mine_and_broadcast(const chain::Address& miner,
                                       std::vector<chain::Transaction> txs) {
  if (!alive_) return false;
  chain::Block block = chain_->build_block_template(
      miner, static_cast<std::uint64_t>(sim_.now()), /*difficulty=*/1, std::move(txs));
  if (!validate_records(block)) {
    record_rejection();
    return false;
  }
  std::string why;
  if (!chain_->submit_block(block, &why, /*skip_pow=*/true)) {
    record_rejection();
    return false;
  }
  net_.broadcast(net_id_, "block", block.encode());
  drain_orphans();
  return true;
}

void ConsensusNode::on_message(const sim::Message& msg) {
  if (!alive_) return;  // a dead process hears nothing
  if (msg.topic == "block") {
    const auto block = chain::Block::decode(msg.payload);
    if (!block) {
      record_rejection();
      return;
    }
    last_sender_ = msg.from;
    try_connect(*block, /*rebroadcast=*/true);
    return;
  }
  if (msg.topic == "get_block") {
    // Backfill service: a peer is missing one of our ancestors (gossip loss
    // or a healed partition). Serve it from our store if we have it.
    if (msg.payload.size() != 32) return;
    const auto id = crypto::Hash256::from_span(msg.payload);
    if (const chain::Block* block = chain_->block(id))
      net_.unicast(net_id_, msg.from, "block", block->encode());
    return;
  }
  if (msg.topic == "sync.status_req") return handle_status_req(msg);
  if (msg.topic == "sync.status_resp") return handle_status_resp(msg);
  if (msg.topic == "sync.range_req") return handle_range_req(msg);
  if (msg.topic == "sync.range_resp") return handle_range_resp(msg);
  if (msg.topic == "proof.req") return handle_proof_req(msg);
}

void ConsensusNode::handle_proof_req(const sim::Message& msg) {
  // Stateless-verification service: a header-only client asks for a Merkle
  // proof of an account or storage slot against our best head's state_root.
  // Request: req u64 | kind u8 (0 account, 1 storage) | address 20
  //          | slot 32 (big-endian, kind 1 only).
  util::Reader r(msg.payload);
  const auto req = r.u64();
  const auto kind = r.u8();
  const auto addr_bytes = r.raw(20);
  if (!req || !kind || *kind > 1 || !addr_bytes) return;
  const chain::Address addr = chain::Address::from_span(*addr_bytes);
  util::Bytes proof_bytes;
  if (*kind == 0) {
    if (!r.empty()) return;
    proof_bytes = chain_->prove_account(addr).encode();
  } else {
    const auto slot_bytes = r.raw(32);
    if (!slot_bytes || !r.empty()) return;
    proof_bytes =
        chain_->prove_storage(addr, crypto::U256::from_be_bytes(*slot_bytes))
            .encode();
  }
  const crypto::Hash256& head = chain_->best_head();
  util::Writer w;
  w.u64(*req);
  w.u8(*kind);
  w.u64(chain_->best_height());
  w.raw(head.span());
  w.bytes(proof_bytes);
  metrics_->proofs_served.inc();
  net_.unicast(net_id_, msg.from, "proof.resp", std::move(w).take());
}

void ConsensusNode::try_connect(const chain::Block& block, bool rebroadcast) {
  if (chain_->block(block.id()) != nullptr) return;  // already known
  if (!validate_records(block)) {
    // A forged record inside: honest nodes refuse the whole block and will
    // not build on it (Section V-C's fault-tolerant verification).
    record_rejection();
    return;
  }
  if (chain_->block(block.header.prev_id) == nullptr) {
    // Parent not yet seen — gossip reordering or a missed broadcast. Buffer
    // the orphan and ask the sender to backfill the parent; the walk repeats
    // until linkage reaches a known ancestor (or a block we reject).
    buffer_orphan(block);
    net_.unicast(net_id_, last_sender_, "get_block",
                 util::Bytes(block.header.prev_id.bytes.begin(),
                             block.header.prev_id.bytes.end()));
    return;
  }
  std::string why;
  if (!chain_->submit_block(block, &why, /*skip_pow=*/true)) {
    record_rejection();
    return;
  }
  if (rebroadcast) net_.broadcast(net_id_, "block", block.encode());
  drain_orphans();
}

void ConsensusNode::buffer_orphan(const chain::Block& block) {
  ++orphans_seen_;
  auto& bucket = orphans_[block.header.prev_id];
  if (bucket.empty()) orphan_order_.push_back(block.header.prev_id);
  bucket.push_back(block);
  ++orphan_count_;
  // Enforce the cap by evicting whole oldest-parent buckets: the longer a
  // parent has been missing, the less likely its children still matter, and
  // a peer spraying unconnectable blocks can no longer pin unbounded memory.
  while (options_.max_orphans != 0 && orphan_count_ > options_.max_orphans &&
         !orphan_order_.empty()) {
    const crypto::Hash256 victim = orphan_order_.front();
    orphan_order_.erase(orphan_order_.begin());
    const auto it = orphans_.find(victim);
    if (it == orphans_.end()) continue;
    const std::size_t evicted = it->second.size();
    orphan_count_ -= evicted;
    orphans_evicted_ += evicted;
    orphans_.erase(it);
    metrics_->orphans_evicted.add(evicted);
  }
  metrics_->orphan_buffer.set(static_cast<double>(orphan_count_));
}

void ConsensusNode::drain_orphans() {
  // Repeatedly adopt any orphan whose parent has just become known.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto it = orphans_.begin(); it != orphans_.end();) {
      if (chain_->block(it->first) != nullptr) {
        const crypto::Hash256 parent = it->first;
        const std::vector<chain::Block> ready = std::move(it->second);
        orphans_.erase(it);
        orphan_count_ -= ready.size();
        std::erase(orphan_order_, parent);
        for (const chain::Block& block : ready)
          try_connect(block, /*rebroadcast=*/false);
        progress = true;
        break;  // iterator invalidated by recursive inserts; restart scan
      }
      ++it;
    }
  }
  metrics_->orphan_buffer.set(static_cast<double>(orphan_count_));
}

// -- Crash/restart lifecycle --------------------------------------------------

void ConsensusNode::crash() {
  if (!alive_) return;
  alive_ = false;
  ++incarnation_;  // orphan every pending timer from this life
  // Process death: the store keeps exactly the acknowledged prefix (no
  // clean-shutdown records), all RAM state evaporates. A placeholder
  // genesis-only chain keeps chain() valid while the node is down.
  chain_->detach_store();
  chain_ = std::make_unique<chain::Blockchain>(genesis_, telemetry_);
  orphans_.clear();
  orphan_order_.clear();
  orphan_count_ = 0;
  syncing_ = false;
  pending_req_ = 0;
  peer_target_.clear();
  peer_score_.clear();
  metrics_->orphan_buffer.set(0);
  metrics_->crashes.inc();
}

bool ConsensusNode::restart() {
  if (alive_) return true;
  ++incarnation_;
  alive_ = true;
  const bool want_store = !options_.store_dir.empty();
  chain_ = make_chain(/*open_store=*/true);
  metrics_->restarts.inc();
  start_sync();
  return !want_store || chain_->persistent();
}

// -- Pull-based catch-up sync (docs/robustness.md) ----------------------------

void ConsensusNode::start_sync() {
  if (!alive_) return;
  syncing_ = true;
  sync_started_ = sim_.now();
  backoff_ = options_.sync.backoff_base;
  pending_req_ = 0;
  send_status_probe();
}

void ConsensusNode::send_status_probe() {
  const std::uint64_t req = next_req_id_++;
  pending_req_ = req;
  pending_is_range_ = false;
  util::Writer w;
  w.u64(req);
  net_.broadcast(net_id_, "sync.status_req", std::move(w).take());
  arm_timeout(req);
}

void ConsensusNode::request_next_range() {
  const long long peer = pick_sync_peer();
  if (peer < 0) {
    finish_sync();
    return;
  }
  const std::uint64_t req = next_req_id_++;
  pending_req_ = req;
  pending_is_range_ = true;
  pending_peer_ = static_cast<sim::NodeId>(peer);
  util::Writer w;
  w.u64(req);
  w.u64(chain_->best_height() + 1);
  w.u32(options_.sync.batch);
  net_.unicast(net_id_, pending_peer_, "sync.range_req", std::move(w).take());
  arm_timeout(req);
}

void ConsensusNode::arm_timeout(std::uint64_t req_id) {
  sim_.after(options_.sync.request_timeout, [this, inc = incarnation_, req_id] {
    if (inc != incarnation_ || !alive_ || !syncing_) return;
    if (pending_req_ != req_id) return;  // answered in time
    on_sync_timeout();
  });
}

void ConsensusNode::on_sync_timeout() {
  ++sync_timeouts_;
  metrics_->sync_timeouts.inc();
  // Only unicast requests blame a specific peer; a status broadcast that
  // drew no answer blames nobody (everyone may be partitioned away).
  if (pending_is_range_) peer_score_[pending_peer_] += options_.sync.score_timeout;
  pending_req_ = 0;
  schedule_retry();
}

void ConsensusNode::schedule_retry() {
  ++sync_retries_;
  metrics_->sync_retries.inc();
  // Exponential backoff with jitter so simultaneously-healed nodes do not
  // hammer the same peer in lockstep.
  const double delay =
      backoff_ * (1.0 + options_.sync.jitter * sim_.rng().uniform01());
  backoff_ = std::min(backoff_ * 2.0, options_.sync.backoff_max);
  sim_.after(delay, [this, inc = incarnation_] {
    if (inc != incarnation_ || !alive_ || !syncing_) return;
    if (pending_req_ != 0) return;  // a late response revived us meanwhile
    continue_sync();
  });
}

void ConsensusNode::continue_sync() {
  if (pick_sync_peer() >= 0)
    request_next_range();
  else
    send_status_probe();  // no (remaining) claim beats us: re-learn heights
}

void ConsensusNode::finish_sync() {
  if (!syncing_) return;
  syncing_ = false;
  pending_req_ = 0;
  metrics_->catchup.observe(sim_.now() - sync_started_);
}

long long ConsensusNode::pick_sync_peer() const {
  const std::uint64_t height = chain_->best_height();
  long long best = -1;
  double best_score = 0.0;
  for (const auto& [peer, target] : peer_target_) {
    if (target <= height) continue;
    const auto sit = peer_score_.find(peer);
    const double score = sit == peer_score_.end() ? 0.0 : sit->second;
    // Ascending map order makes strict '>' a lowest-id tie-break.
    if (best < 0 || score > best_score) {
      best = static_cast<long long>(peer);
      best_score = score;
    }
  }
  return best;
}

void ConsensusNode::handle_status_req(const sim::Message& msg) {
  util::Reader r(msg.payload);
  const auto req = r.u64();
  if (!req) return;
  const crypto::Hash256& head = chain_->best_head();
  util::Writer w;
  w.u64(*req);
  w.u64(chain_->best_height());
  w.raw(util::ByteSpan(head.bytes.data(), head.bytes.size()));
  net_.unicast(net_id_, msg.from, "sync.status_resp", std::move(w).take());
}

void ConsensusNode::handle_status_resp(const sim::Message& msg) {
  util::Reader r(msg.payload);
  const auto req = r.u64();
  const auto height = r.u64();
  const auto head = r.raw(32);
  if (!req || !height || !head) return;
  auto& target = peer_target_[msg.from];
  target = std::max(target, *height);
  if (!syncing_) {
    // A peer got ahead while we were idle (blocks mined during our downtime
    // whose gossip we never saw). Re-enter catch-up directly.
    if (*height > chain_->best_height()) {
      syncing_ = true;
      sync_started_ = sim_.now();
      backoff_ = options_.sync.backoff_base;
      request_next_range();
    }
    return;
  }
  if (pending_req_ == *req && !pending_is_range_) {
    pending_req_ = 0;  // probe answered; later responses just refine targets
    backoff_ = options_.sync.backoff_base;
  }
  if (pending_req_ == 0) {
    if (pick_sync_peer() >= 0)
      request_next_range();
    else
      finish_sync();
  }
}

void ConsensusNode::handle_range_req(const sim::Message& msg) {
  util::Reader r(msg.payload);
  const auto req = r.u64();
  const auto start = r.u64();
  const auto count = r.u32();
  if (!req || !start || !count) return;
  const std::uint32_t limit = std::min(*count, options_.sync.max_serve);
  std::vector<util::Bytes> blocks;
  for (std::uint32_t i = 0; i < limit; ++i) {
    const chain::Block* block = chain_->block_at(*start + i);
    if (!block) break;  // past our canonical tip
    blocks.push_back(block->encode());
  }
  util::Writer w;
  w.u64(*req);
  w.u32(static_cast<std::uint32_t>(blocks.size()));
  for (const util::Bytes& b : blocks) w.bytes(b);
  net_.unicast(net_id_, msg.from, "sync.range_resp", std::move(w).take());
}

void ConsensusNode::handle_range_resp(const sim::Message& msg) {
  util::Reader r(msg.payload);
  const auto req = r.u64();
  const auto n = r.u32();
  if (!req || !n) return;
  if (!syncing_ || pending_req_ != *req || !pending_is_range_ ||
      msg.from != pending_peer_)
    return;  // stale or spoofed; the timeout/backoff path owns recovery
  pending_req_ = 0;
  last_sender_ = msg.from;  // orphan backfill should chase this peer
  const std::uint64_t before = chain_->best_height();
  const std::uint64_t orphans_before = orphans_seen_;
  bool malformed = false;
  for (std::uint32_t i = 0; i < *n; ++i) {
    const auto raw = r.bytes();
    if (!raw) {
      malformed = true;
      break;
    }
    const auto block = chain::Block::decode(*raw);
    if (!block) {
      malformed = true;
      break;
    }
    try_connect(*block, /*rebroadcast=*/false);
  }
  const std::uint64_t after = chain_->best_height();
  if (!malformed && after > before) {
    peer_score_[msg.from] += options_.sync.score_success;
    backoff_ = options_.sync.backoff_base;
    if (pick_sync_peer() >= 0)
      request_next_range();
    else
      finish_sync();
    return;
  }
  if (!malformed && orphans_seen_ > orphans_before) {
    // The peer's canonical chain diverges below our tip: the blocks parked
    // as orphans while the get_block backfill walk fetches the missing
    // ancestors. No blame; poll again after the backoff.
    schedule_retry();
    return;
  }
  if (!malformed && *n == 0) {
    // Nothing past `start` despite the peer's claim (it reorged or lied):
    // clamp the claim to what it proved and look elsewhere.
    peer_target_[msg.from] = std::min(peer_target_[msg.from], after);
    schedule_retry();
    return;
  }
  // Undecodable payload or blocks we outright rejected: demote and retry.
  peer_score_[msg.from] += options_.sync.score_invalid;
  schedule_retry();
}

double ConsensusNode::peer_score(sim::NodeId peer) const {
  const auto it = peer_score_.find(peer);
  return it == peer_score_.end() ? 0.0 : it->second;
}

// -- Cluster ------------------------------------------------------------------

ConsensusCluster::ConsensusCluster(std::uint64_t seed,
                                   const std::vector<NodeSpec>& specs,
                                   const chain::GenesisConfig& genesis,
                                   RecordGate gate, double mean_block_time,
                                   sim::NetworkConfig net_config,
                                   telemetry::Telemetry* tel,
                                   ClusterOptions options)
    : telemetry_(tel),
      sim_(seed),
      net_(sim_, net_config, tel),
      race_([&] {
        std::vector<double> hp;
        for (const auto& spec : specs) hp.push_back(spec.hash_power);
        return hp;
      }(), mean_block_time),
      gate_(gate) {
  // Trace events carry this cluster's virtual time until the cluster dies
  // (the destructor detaches the clock before sim_ is destroyed).
  telemetry::resolve(telemetry_).tracer.set_virtual_clock(
      [this] { return sim_.now(); });
  for (std::size_t i = 0; i < specs.size(); ++i) {
    miner_keys_.push_back(crypto::KeyPair::generate(sim_.rng()));
    NodeOptions node_options;
    if (!options.store_root.empty())
      node_options.store_dir = options.store_root + "/node-" + std::to_string(i);
    node_options.persistence = options.persistence;
    node_options.sync = options.sync;
    node_options.max_orphans = options.max_orphans;
    nodes_.push_back(std::make_unique<ConsensusNode>(
        sim_, net_, genesis, "provider-" + std::to_string(i), specs[i].honest,
        gate, tel, std::move(node_options)));
  }
  schedule_next_block();
}

ConsensusCluster::~ConsensusCluster() {
  telemetry::resolve(telemetry_).tracer.set_virtual_clock({});
}

void ConsensusCluster::submit_transaction(chain::Transaction tx,
                                          bool forged_only_for_dishonest) {
  queue_.push_back({std::move(tx), forged_only_for_dishonest});
}

void ConsensusCluster::schedule_next_block() {
  const sim::MiningRace::Outcome outcome = race_.next(sim_.rng());
  sim_.after(outcome.interval, [this, winner = outcome.winner] {
    ConsensusNode& node = *nodes_[winner];
    // A dead winner forfeits its block (its hash power went down with it);
    // the race draw is consumed either way, keeping the schedule's RNG
    // stream identical whether or not anything crashed.
    if (node.alive()) {
      // The winner packages the queued transactions it is willing to include:
      // honest miners leave gate-failing (or dishonest-only) transactions in
      // the queue rather than aborting their whole block on them.
      std::vector<chain::Transaction> txs;
      std::erase_if(queue_, [&](const QueuedTx& queued) {
        if (node.honest() && (queued.dishonest_only || (gate_ && !gate_(queued.tx))))
          return false;
        txs.push_back(queued.tx);
        return true;
      });
      if (node.mine_and_broadcast(miner_keys_[winner].address(), std::move(txs)))
        ++blocks_mined_;
    }
    schedule_next_block();
  });
}

void ConsensusCluster::run_for(double seconds) {
  sim_.run_until(sim_.now() + seconds);
}

bool ConsensusCluster::honest_nodes_converged() const {
  crypto::Hash256 head;
  bool first = true;
  for (const auto& node : nodes_) {
    if (!node->honest() || !node->alive()) continue;
    if (first) {
      head = node->chain().best_head();
      first = false;
    } else if (node->chain().best_head() != head) {
      return false;
    }
  }
  return true;
}

crypto::Hash256 ConsensusCluster::honest_head() const {
  std::map<crypto::Hash256, int> votes;
  for (const auto& node : nodes_)
    if (node->honest() && node->alive()) ++votes[node->chain().best_head()];
  crypto::Hash256 best;
  int best_votes = -1;
  for (const auto& [head, count] : votes) {
    if (count > best_votes) {
      best = head;
      best_votes = count;
    }
  }
  return best;
}

}  // namespace sc::core
