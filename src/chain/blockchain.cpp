#include "chain/blockchain.hpp"

#include <chrono>
#include <thread>

#include "chain/pow.hpp"
#include "crypto/batch_verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace sc::chain {
namespace {

/// Historic materializations state_of keeps before dropping the oldest.
constexpr std::size_t kMaxCachedStates = 8;

}  // namespace

struct Blockchain::Metrics {
  static constexpr std::string_view kTemplateOutcomes[] = {"adopted", "reexecuted"};
  telemetry::Registry& r;
  telemetry::Counter& flattens =
      r.counter("chain_delta_flattens_total",
                "Full state snapshots taken at flatten-interval heights");
  telemetry::Gauge& snapshot_bytes =
      r.gauge("state_snapshot_bytes",
              "Approximate retained bytes of all full state snapshots");
  telemetry::Histogram& root_update =
      r.histogram("state_root_update_seconds",
                  "Wall time of the incremental state-root update per connected block",
                  telemetry::HistogramSpec::latency_seconds());
  telemetry::Counter& sig_batch_verified =
      r.counter("chain_sig_batch_verified_total",
                "Signatures verified by block-level batch pre-validation");
  telemetry::Counter& sig_cache_hits =
      r.counter("chain_sig_cache_hits_total",
                "Block-validation signature checks satisfied by the verified-tx cache");
  telemetry::CounterVec<2> template_connects{  // [adopted ? 0 : 1]
      r, "chain_template_connects_total",
      "Connects that found a sealed template held: adopted its result, or "
      "executed the block themselves",
      "outcome", [](std::size_t i) { return kTemplateOutcomes[i]; }};
  telemetry::Counter& store_degraded =
      r.counter("chain_store_degraded_total",
                "Chains that fell back to RAM-only after a store write failure");
  telemetry::Counter& blocks_connected =
      r.counter("chain_blocks_connected_total", "Blocks validated and stored");
  telemetry::Counter& reorgs =
      r.counter("chain_reorgs_total", "Canonical head switches to a competing fork");
  telemetry::Counter& reorged_blocks = r.counter(
      "chain_reorged_blocks_total", "Blocks abandoned by canonical head switches");
  telemetry::Gauge& accounts =
      r.gauge("state_accounts", "Accounts in the canonical-head state");
  telemetry::Gauge& trie_nodes =
      r.gauge("state_trie_nodes",
              "Nodes (leaves + branches) across the account and storage "
              "commitment tries");
  telemetry::Counter& state_cache_hits =
      r.counter("chain_state_cache_hit_total",
                "state_of lookups served by a retained snapshot or cached "
                "materialization");
  telemetry::Counter& state_cache_misses =
      r.counter("chain_state_cache_miss_total",
                "state_of lookups that had to materialize from an ancestor snapshot "
                "by delta replay");
};

Blockchain::Blockchain(const GenesisConfig& genesis, telemetry::Telemetry* tel)
    : telemetry_(tel),
      metrics_(telemetry::resolve(tel).handles<Metrics>()),
      state_cfg_(genesis.state_store) {
  if (state_cfg_.flatten_interval == 0) state_cfg_.flatten_interval = 1;
  // Two entries a bucket: half the bucket array of the tx index, one entry
  // per canonical transaction, the largest per-block term a durable chain
  // keeps in RAM.
  tx_index_.max_load_factor(2.0f);

  unsigned lanes = genesis.execution.threads;
  if (lanes == 0) lanes = std::max(1u, std::thread::hardware_concurrency());
  // The submitting thread is a lane too, so a pool of lanes-1 workers gives
  // exactly `lanes` concurrent verifiers; one lane verifies inline.
  if (lanes > 1) exec_pool_ = std::make_unique<util::ThreadPool>(lanes - 1);

  Block genesis_block;
  genesis_block.header.height = 0;
  genesis_block.header.timestamp = genesis.timestamp;
  genesis_block.header.difficulty = genesis.difficulty;
  genesis_block.seal_merkle_root();

  // Allocations go straight into the tip state: genesis keeps an empty delta,
  // since nothing ever unapplies it (a walk stops at the common ancestor,
  // state_of starts from genesis's snapshot, and the store never logs it).
  for (const auto& [addr, amount] : genesis.allocations)
    tip_state_.add_balance(addr, amount);
  // The genesis header commits the endowed state like any other block —
  // stamped before the id so allocations are part of the chain identity.
  // Every account is new, so the bulk build (one hash per node) gives the
  // root an incremental update would, at a fraction of its cost.
  commitment_.rebuild(tip_state_);
  genesis_block.header.state_root = commitment_.root();
  Entry entry;
  entry.block = genesis_block;
  entry.arrival_order = arrival_counter_++;

  genesis_id_ = genesis_block.id();
  best_head_ = genesis_id_;
  tip_at_ = genesis_id_;
  flatten_into(entry);  // Genesis is always a materialization anchor.
  entries_.emplace(genesis_id_, std::move(entry));
  reindex_canonical();
}

// Defined where ThreadPool is complete (the header only forward-declares it).
Blockchain::~Blockchain() { close(); }

void Blockchain::close() {
  if (!store_) return;
  // Between submits the tip invariantly sits at the best head; make it so
  // explicitly in case a failed submit left it elsewhere.
  move_tip_to(best_head_);
  // A degraded store refuses the clean-shutdown records internally and just
  // closes its descriptors; the next open() scans the intact prefix.
  store_->on_close(best_height(), best_head_, tip_state_);
  store_.reset();
  store_degraded_ = false;
  deep_cache_.clear();
  deep_cache_order_.clear();
}

void Blockchain::detach_store() {
  // No on_close: the dirty-shutdown path. Descriptors close via destructors,
  // leaving the directory exactly as the last acknowledged write shaped it.
  store_.reset();
  store_degraded_ = false;
  deep_cache_.clear();
  deep_cache_order_.clear();
}

bool Blockchain::compact_store(std::uint64_t finality_depth, std::string* why) {
  if (!store_) return true;
  if (store_degraded_) {
    if (why) *why = "store is read-only (degraded)";
    return false;
  }
  // Keep: the whole canonical chain, plus any fork block close enough to the
  // tip that a reorg could still revive it. Genesis is rebuilt from config on
  // every open and is never a log record.
  const std::uint64_t tip_height = best_height();
  const std::uint64_t keep_floor =
      tip_height > finality_depth ? tip_height - finality_depth : 0;
  std::vector<Hash256> keep;
  keep.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    const std::uint64_t height = entry.block.header.height;
    if (height == 0) continue;
    const bool canonical =
        height < canonical_.size() && canonical_[height] == id;
    if (canonical || height >= keep_floor) keep.push_back(id);
  }
  return store_->compact(keep, why);
}

void Blockchain::flatten_into(Entry& entry) {
  if (store_ && !store_degraded_) {
    // Durable node: the store writes the snapshot to disk once its log has
    // paid for it, and materialization reads it back — per-block memory
    // stays O(delta) whatever the chain length (docs/persistence.md).
    std::string why;
    store_->write_snapshot(entry.block.header.height, entry.block.id(),
                           tip_state_, &why);
  } else {
    // RAM-only chain — or a degraded store: post-degradation flatten heights
    // fall back to in-memory snapshots so historic materialization keeps its
    // anchors (pre-degradation disk snapshots stay readable).
    entry.snapshot = std::make_unique<WorldState>(tip_state_);
    snapshot_bytes_ += entry.snapshot->approx_bytes();
  }
  metrics_.flattens.inc();
  metrics_.snapshot_bytes.set(static_cast<double>(snapshot_bytes_));
}

bool Blockchain::move_tip_to(const Hash256& target) {
  drop_sealed();
  if (tip_at_ == target) return true;
  // Collect the blocks whose deltas to unapply (tip side) and apply (target
  // side) up to the two branches' common ancestor.
  std::vector<Hash256> undo, redo;
  Hash256 a = tip_at_;
  Hash256 b = target;
  const Entry* ea = &entries_.at(a);
  const Entry* eb = &entries_.at(b);
  while (ea->block.header.height > eb->block.header.height) {
    undo.push_back(a);
    a = ea->block.header.prev_id;
    ea = &entries_.at(a);
  }
  while (eb->block.header.height > ea->block.header.height) {
    redo.push_back(b);
    b = eb->block.header.prev_id;
    eb = &entries_.at(b);
  }
  while (a != b) {
    undo.push_back(a);
    a = ea->block.header.prev_id;
    ea = &entries_.at(a);
    redo.push_back(b);
    b = eb->block.header.prev_id;
    eb = &entries_.at(b);
  }
  // Deltas that left RAM are read back before anything moves, so an
  // unreadable store leaves the tip where it was. They are kept until the
  // next walk: the walk back to the best head needs the same ones and never
  // reads again.
  std::unordered_map<Hash256, StateDelta> walk;
  for (const std::vector<Hash256>* ids : {&undo, &redo}) {
    for (const Hash256& id : *ids) {
      if (entries_.at(id).resident || last_walk_.contains(id)) continue;
      Block body;
      StateDelta delta;
      if (!store_ || !store_->load_block(id, &body, &delta)) return false;
      walk.emplace(id, std::move(delta));
    }
  }
  // Every read succeeded; only now take over what the previous walk held.
  for (const std::vector<Hash256>* ids : {&undo, &redo})
    for (const Hash256& id : *ids)
      if (!entries_.at(id).resident && !walk.contains(id))
        walk.emplace(id, std::move(last_walk_.at(id)));
  last_walk_ = std::move(walk);
  auto delta_at = [&](const Hash256& id) -> const StateDelta& {
    const Entry& entry = entries_.at(id);
    return entry.resident ? entry.delta : last_walk_.at(id);
  };
  // Each delta step also refreshes the touched leaves of the commitment from
  // the just-transitioned state — the trie rolls backward and forward in
  // O(changes · log n), same as the flat state.
  for (const Hash256& id : undo) {
    const StateDelta& delta = delta_at(id);
    delta.unapply(tip_state_);
    commitment_.update(delta, tip_state_);
  }
  for (auto it = redo.rbegin(); it != redo.rend(); ++it) {
    const StateDelta& delta = delta_at(*it);
    delta.apply(tip_state_);
    commitment_.update(delta, tip_state_);
  }
  tip_at_ = target;
  return true;
}

BlockEnv Blockchain::env_of(const Block& block) const {
  BlockEnv env;
  env.number = block.header.height;
  env.timestamp = block.header.timestamp;
  env.miner = block.header.miner;
  return env;
}

void Blockchain::execute_block_body(const Block& block,
                                    const std::vector<Hash256>* tx_ids,
                                    std::vector<Receipt>* receipts,
                                    StateDelta* delta) {
  JournaledState journal(tip_state_);
  *receipts = apply_block_body(journal, env_of(block), block.transactions, kBlockReward,
                               telemetry_, &sig_cache_, tx_ids);
  *delta = journal.collect_delta();
  journal.commit(0);
}

void Blockchain::roll_commitment(const StateDelta& delta) {
  // This is the per-block O(changes · log n) cost bench/trie_bench quantifies.
  // Reading the root inside the timer charges the dirty-branch flush here.
  const auto t0 = std::chrono::steady_clock::now();
  commitment_.update(delta, tip_state_);
  (void)commitment_.root();
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
  metrics_.root_update.observe(elapsed.count());
}

void Blockchain::drop_sealed() const {
  if (!sealed_) return;
  // update() reads the post-transition truth, so one call over the held
  // delta takes the trie from the template's post-state back to tip_state_.
  commitment_.update(sealed_->delta, tip_state_);
  sealed_.reset();
}

bool Blockchain::SealedTemplate::matches(const Block& block) const {
  const BlockHeader& h = block.header;
  return h.prev_id == header.prev_id && h.height == header.height &&
         h.timestamp == header.timestamp && h.miner == header.miner &&
         h.merkle_root == header.merkle_root && h.state_root == header.state_root;
}

bool Blockchain::seal(Block& block, const std::vector<Hash256>* tx_ids,
                      std::string* why) {
  if (!entries_.contains(block.header.prev_id)) {
    if (why) *why = "unknown parent";
    return false;
  }
  if (!move_tip_to(block.header.prev_id)) {
    if (why) *why = "parent state unreadable from the store";
    return false;
  }
  SealedTemplate sealed;
  execute_block_body(block, tx_ids, &sealed.receipts, &sealed.delta);
  const bool on_best = block.header.prev_id == best_head_;
  // On the best head this is the trie roll the block's connect adopts.
  if (on_best)
    roll_commitment(sealed.delta);
  else
    commitment_.update(sealed.delta, tip_state_);
  block.header.state_root = commitment_.root();
  // The flat state returns to the parent in O(changes), keeping best_state()
  // exact; the trie stays at the post-state until drop_sealed or adoption.
  sealed.delta.unapply(tip_state_);
  if (!on_best) {
    commitment_.update(sealed.delta, tip_state_);
    move_tip_to(best_head_);
    return true;
  }
  sealed.header = block.header;
  sealed.body = block.transactions;
  sealed_ = std::move(sealed);
  return true;
}

bool Blockchain::submit_block(const Block& block, std::string* why, bool skip_pow) {
  const auto connect_span =
      telemetry::resolve(telemetry_).tracer.span("chain.block_connect");

  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };

  const Hash256 id = block.id();
  if (entries_.contains(id)) return fail("duplicate block");

  const auto parent_it = entries_.find(block.header.prev_id);
  if (parent_it == entries_.end()) return fail("unknown parent");
  const Entry& parent = parent_it->second;

  if (block.header.height != parent.block.header.height + 1)
    return fail("height mismatch");
  if (block.header.timestamp < parent.block.header.timestamp)
    return fail("timestamp regression");
  // Each transaction is hashed once per block: the ids serve the Merkle
  // check, the signature cache, execution and the tx index. The body of the
  // template sealed on this header was hashed when it was built, and its
  // receipts carry the ids.
  std::vector<Hash256> tx_ids;
  if (sealed_ && sealed_->matches(block) && block.transactions == sealed_->body) {
    tx_ids.reserve(sealed_->receipts.size());
    for (const Receipt& receipt : sealed_->receipts) tx_ids.push_back(receipt.tx_id);
  } else {
    tx_ids = block.leaves();
  }
  if (crypto::merkle_root(tx_ids) != block.header.merkle_root)
    return fail("merkle root mismatch");
  // `id` was already computed for the duplicate check; reuse it instead of
  // re-hashing the header inside the PoW check.
  if (!skip_pow && !check_pow(block.header, id)) return fail("invalid proof of work");

  // Batch-verify the body's signatures through the verified-tx cache before
  // the per-transaction structural checks: uncached signatures fan out across
  // the worker pool (inline with one lane), successes land in the cache,
  // and every later check of these transactions — the validation loop below,
  // the executor, a competing fork carrying the same tx — is a cache hit.
  // A high-s signature never becomes a job: left uncached, the check below
  // refuses it through Transaction::verify_signature.
  {
    std::vector<crypto::VerifyJob> jobs;
    std::vector<Hash256> job_ids;
    for (std::size_t i = 0; i < tx_ids.size(); ++i) {
      const Transaction& tx = block.transactions[i];
      if (!tx.signature.is_low_s() || sig_cache_.contains(tx_ids[i])) continue;
      jobs.push_back({tx.sender_pubkey, tx.signing_hash(), tx.signature});
      job_ids.push_back(tx_ids[i]);
    }
    const std::vector<bool> ok = crypto::batch_verify(jobs, exec_pool_.get());
    for (std::size_t i = 0; i < ok.size(); ++i)
      if (ok[i]) sig_cache_.insert(job_ids[i]);
    metrics_.sig_batch_verified.add(jobs.size());
  }

  for (std::size_t i = 0; i < tx_ids.size(); ++i) {
    const SigVerdict verdict = sig_cache_.check(block.transactions[i], tx_ids[i]);
    if (verdict == SigVerdict::kInvalid ||
        !validate_transaction_fields(block.transactions[i]))
      return fail("invalid transaction in body");
    if (verdict == SigVerdict::kCacheHit) metrics_.sig_cache_hits.inc();
  }

  Entry entry;
  entry.block = block;
  entry.cumulative_difficulty =
      parent.cumulative_difficulty + std::max<std::uint64_t>(1, block.header.difficulty);
  entry.arrival_order = arrival_counter_++;

  const bool adopt = sealed_ && sealed_->matches(block);
  if (sealed_) metrics_.template_connects[adopt ? 0 : 1].inc();
  if (adopt) {
    // Our own template: tip_state_ is the parent's post-state and the trie
    // already sits at this block's, so applying the held delta completes the
    // transition without executing the body or touching the trie again.
    entry.delta = std::move(sealed_->delta);
    entry.receipts = std::move(sealed_->receipts);
    sealed_.reset();
    entry.delta.apply(tip_state_);
  } else {
    // Execute journaled on the materialized tip, walked to the parent first
    // (a no-op when the block extends the current head). Only the block's
    // net diff is retained.
    if (!move_tip_to(block.header.prev_id))
      return fail("parent state unreadable from the store");
    execute_block_body(block, &tx_ids, &entry.receipts, &entry.delta);
    roll_commitment(entry.delta);
  }
  // Enforce that the header committed exactly this post-state. A wrong root
  // is a consensus violation: unwind state and trie and reject.
  if (block.header.state_root != commitment_.root()) {
    entry.delta.unapply(tip_state_);
    commitment_.update(entry.delta, tip_state_);
    move_tip_to(best_head_);
    return fail("state root mismatch");
  }
  tip_at_ = id;  // Tip now equals the new block's post-state.

  // Durability ordering: the block and its delta must be fsync'd in the log
  // before anything references them (snapshot, tip journal, our own return
  // value). A failed append that leaves the store writable unwinds the
  // in-memory connect so RAM never runs ahead of what disk can recover; a
  // failure that *degraded* the store to read-only instead keeps the
  // validated connect and flips the chain into RAM-only operation — the
  // replica stays available, serving and extending the chain, and rejoins
  // durability after a restart reopens the intact on-disk prefix.
  if (store_ && !store_degraded_ &&
      !store_->append_block(block, entry.delta, why)) {
    if (store_->read_only()) {
      store_degraded_ = true;
      metrics_.store_degraded.inc();
      if (why) why->clear();
    } else {
      entry.delta.unapply(tip_state_);
      commitment_.update(entry.delta, tip_state_);
      tip_at_ = block.header.prev_id;
      move_tip_to(best_head_);
      return false;
    }
  }

  if (block.header.height % state_cfg_.flatten_interval == 0) flatten_into(entry);

  const Entry& current_best = entries_.at(best_head_);
  const bool better =
      entry.cumulative_difficulty > current_best.cumulative_difficulty;
  entries_.emplace(id, std::move(entry));
  if (store_ && !store_degraded_) resident_by_height_[block.header.height].push_back(id);
  metrics_.blocks_connected.inc();
  if (better) {
    const Hash256 old_head = best_head_;
    best_head_ = id;
    if (block.header.prev_id == old_head) {
      // The common case — the head simply grew by one block. Appending to
      // the index keeps chain growth O(block), where the full rebuild would
      // make it quadratic in chain length.
      extend_canonical(id, tx_ids);
    } else {
      // A head switch that doesn't extend the previous head abandons part of
      // the old chain: count the event and how many blocks fell off.
      reindex_canonical();
      const std::uint64_t depth = reorg_depth(old_head);
      if (depth > 0) {
        metrics_.reorgs.inc();
        metrics_.reorged_blocks.add(depth);
      }
    }
  } else {
    // The block lost fork choice: walk the tip back to the canonical head.
    move_tip_to(best_head_);
  }
  // Journal the (possibly unchanged) canonical head last: a tip record never
  // points at bytes that were not durable first. Only after this fsync is the
  // block acknowledged. A tip failure that degraded the store follows the
  // same availability-over-durability fallback as the append path: the block
  // is connected and acknowledged, just not durably journaled.
  if (store_ && !store_degraded_ &&
      !store_->write_tip(best_height(), best_head_, why)) {
    if (!store_->read_only()) return false;
    store_degraded_ = true;
    metrics_.store_degraded.inc();
    if (why) why->clear();
  }
  evict_deep_history();
  metrics_.accounts.set(static_cast<double>(tip_state_.account_count()));
  metrics_.trie_nodes.set(static_cast<double>(commitment_.node_count()));
  return true;
}

std::uint64_t Blockchain::reorg_depth(const Hash256& old_head) const {
  // Walk the abandoned head's ancestry until it rejoins the (already
  // reindexed) canonical chain.
  std::uint64_t depth = 0;
  Hash256 cursor = old_head;
  while (true) {
    const auto it = entries_.find(cursor);
    if (it == entries_.end()) break;
    const std::uint64_t height = it->second.block.header.height;
    if (height < canonical_.size() && canonical_[height] == cursor) break;
    ++depth;
    if (height == 0) break;
    cursor = it->second.block.header.prev_id;
  }
  return depth;
}

std::uint64_t Blockchain::best_height() const {
  return entries_.at(best_head_).block.header.height;
}

const WorldState& Blockchain::best_state() const {
  // Invariant: between submit_block calls the tip sits at the best head.
  return tip_state_;
}

const WorldState* Blockchain::state_of(const Hash256& block_id) const {
  const auto it = entries_.find(block_id);
  if (it == entries_.end()) return nullptr;
  if (it->second.snapshot) {
    metrics_.state_cache_hits.inc();
    return it->second.snapshot.get();
  }
  if (const auto cached = state_cache_.find(block_id); cached != state_cache_.end()) {
    metrics_.state_cache_hits.inc();
    return &cached->second;
  }
  metrics_.state_cache_misses.inc();

  // Materialize: copy the nearest ancestor snapshot — in memory, or on disk
  // when a store is attached — and replay deltas forward.
  std::vector<Hash256> path;
  const Entry* entry = &it->second;
  Hash256 cursor = block_id;
  WorldState state;
  while (true) {
    if (entry->snapshot) {
      state = *entry->snapshot;
      break;
    }
    if (store_ && store_->load_snapshot(cursor, &state)) break;
    path.push_back(cursor);
    cursor = entry->block.header.prev_id;
    entry = &entries_.at(cursor);
  }
  for (auto id = path.rbegin(); id != path.rend(); ++id) {
    const StateDelta* delta = delta_of(*id, entries_.at(*id));
    if (!delta) return nullptr;  // deep history unreadable (store gone)
    delta->apply(state);
  }

  if (state_cache_.size() >= kMaxCachedStates) {
    state_cache_.erase(state_cache_order_.front());
    state_cache_order_.erase(state_cache_order_.begin());
  }
  const auto [inserted, fresh] = state_cache_.emplace(block_id, std::move(state));
  if (fresh) state_cache_order_.push_back(block_id);
  return &inserted->second;
}

void Blockchain::prune_state_cache() const {
  state_cache_.clear();
  state_cache_order_.clear();
}

const Block* Blockchain::block(const Hash256& id) const {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return nullptr;
  if (it->second.resident) return &it->second.block;
  const DeepRecord* record = deep_record(id);
  return record ? &record->block : nullptr;
}

const Block* Blockchain::block_at(std::uint64_t height) const {
  if (height >= canonical_.size()) return nullptr;
  return block(canonical_[height]);
}

const std::vector<Receipt>* Blockchain::receipts(const Hash256& block_id) const {
  const auto it = entries_.find(block_id);
  if (it == entries_.end()) return nullptr;
  const Entry& entry = it->second;
  // Blocks replayed from the store by open() are resident without receipts.
  if (entry.resident && entry.receipts.size() == entry.block.transactions.size())
    return &entry.receipts;
  if (const DeepRecord* record = deep_record(block_id); !record) {
    return nullptr;
  } else if (record->receipts) {
    return &*record->receipts;
  }
  // Receipts are not persisted: re-execute the body on a copy of the
  // parent's post-state, with metrics going to a scratch sink so a read
  // never shows up as chain activity.
  const WorldState* parent = state_of(entry.block.header.prev_id);
  if (!parent) return nullptr;
  WorldState scratch = *parent;
  telemetry::Telemetry quiet;
  DeepRecord* record = deep_record(block_id);  // state_of may have evicted it
  if (!record) return nullptr;
  record->receipts = apply_block_body(scratch, env_of(record->block),
                                      record->block.transactions, kBlockReward,
                                      &quiet);
  return &*record->receipts;
}

const StateDelta* Blockchain::delta_of(const Hash256& block_id) const {
  const auto it = entries_.find(block_id);
  return it == entries_.end() ? nullptr : delta_of(block_id, it->second);
}

const StateDelta* Blockchain::delta_of(const Hash256& id, const Entry& entry) const {
  if (entry.resident) return &entry.delta;
  const DeepRecord* record = deep_record(id);
  return record ? &record->delta : nullptr;
}

Blockchain::DeepRecord* Blockchain::deep_record(const Hash256& id) const {
  if (const auto hit = deep_cache_.find(id); hit != deep_cache_.end()) return &hit->second;
  DeepRecord record;
  if (!store_ || !store_->load_block(id, &record.block, &record.delta)) return nullptr;
  if (deep_cache_.size() >= kDeepCacheEntries) {
    deep_cache_.erase(deep_cache_order_.front());
    deep_cache_order_.pop_front();
  }
  deep_cache_order_.push_back(id);
  return &deep_cache_.emplace(id, std::move(record)).first->second;
}

void Blockchain::evict_deep_history() {
  if (!store_ || store_degraded_) return;
  const std::uint64_t head = best_height();
  if (head <= state_cfg_.flatten_interval) return;
  const std::uint64_t floor = head - state_cfg_.flatten_interval;
  while (!resident_by_height_.empty() && resident_by_height_.begin()->first < floor) {
    for (const Hash256& id : resident_by_height_.begin()->second) {
      Entry& entry = entries_.at(id);
      // Swap with empties so the capacity is returned, not just the size.
      std::vector<Transaction>().swap(entry.block.transactions);
      entry.delta = StateDelta{};
      std::vector<Receipt>().swap(entry.receipts);
      entry.resident = false;
      ++evicted_count_;
    }
    resident_by_height_.erase(resident_by_height_.begin());
  }
}

bool Blockchain::is_confirmed(const Hash256& block_id, std::uint64_t depth) const {
  const auto it = entries_.find(block_id);
  if (it == entries_.end()) return false;
  const std::uint64_t height = it->second.block.header.height;
  if (height >= canonical_.size() || canonical_[height] != block_id) return false;
  return best_height() >= height + depth;
}

std::optional<TxLocation> Blockchain::find_transaction(const Hash256& tx_id) const {
  const auto it = tx_index_.find(tx_id);
  if (it == tx_index_.end()) return std::nullopt;
  const TxSlot& slot = it->second;
  return TxLocation{canonical_[slot.height], slot.height, slot.index};
}

const Receipt* Blockchain::receipt_of(const Hash256& tx_id) const {
  const auto loc = find_transaction(tx_id);
  if (!loc) return nullptr;
  const auto* block_receipts = receipts(loc->block_id);
  if (!block_receipts || loc->index >= block_receipts->size()) return nullptr;
  return &(*block_receipts)[loc->index];
}

bool Blockchain::tx_confirmed(const Hash256& tx_id, std::uint64_t depth) const {
  const auto loc = find_transaction(tx_id);
  return loc && is_confirmed(loc->block_id, depth);
}

Block Blockchain::build_block_template(const Address& miner, std::uint64_t timestamp,
                                       std::uint64_t difficulty,
                                       std::vector<Transaction> txs) {
  const Entry& head = entries_.at(best_head_);
  Block block;
  block.header.height = head.block.header.height + 1;
  block.header.prev_id = best_head_;
  block.header.timestamp = std::max(timestamp, head.block.header.timestamp);
  block.header.difficulty = difficulty;
  block.header.miner = miner;
  block.transactions = std::move(txs);
  // Hashed once, for the Merkle root and for execution.
  const std::vector<Hash256> tx_ids = block.leaves();
  block.header.merkle_root = crypto::merkle_root(tx_ids);
  seal(block, &tx_ids, nullptr);  // Parent is the best head; always succeeds.
  return block;
}

std::vector<std::pair<TxLocation, Transaction>> Blockchain::protocol_records(
    ProtocolKind kind) const {
  std::vector<std::pair<TxLocation, Transaction>> out;
  for (std::uint64_t h = 0; h < canonical_.size(); ++h) {
    const Block* blk = block(canonical_[h]);
    if (!blk) continue;  // deep history unreadable (store gone)
    for (std::size_t i = 0; i < blk->transactions.size(); ++i) {
      const Transaction& tx = blk->transactions[i];
      if (tx.protocol == kind)
        out.push_back({TxLocation{canonical_[h], h, i}, tx});
    }
  }
  return out;
}

void Blockchain::extend_canonical(const Hash256& id,
                                  const std::vector<Hash256>& tx_ids) {
  // Only valid when `id`'s parent is the current canonical head; height was
  // validated as parent+1, so it lands exactly at canonical_.size().
  canonical_.push_back(id);
  const std::uint64_t h = canonical_.size() - 1;
  for (std::size_t i = 0; i < tx_ids.size(); ++i)
    tx_index_[tx_ids[i]] = TxSlot{h, static_cast<std::uint32_t>(i)};
}

void Blockchain::reindex_canonical() {
  // The new head's branch back to the first block already canonical at its
  // height (the fork point); canonical_ keeps everything up to it.
  std::vector<Hash256> branch;
  Hash256 cursor = best_head_;
  while (true) {
    const Entry& entry = entries_.at(cursor);
    const std::uint64_t height = entry.block.header.height;
    if (height < canonical_.size() && canonical_[height] == cursor) break;
    branch.push_back(cursor);
    if (height == 0) break;
    cursor = entry.block.header.prev_id;
  }
  const std::uint64_t keep =
      branch.empty() ? std::min<std::uint64_t>(canonical_.size(), best_height() + 1)
                     : entries_.at(branch.back()).block.header.height;
  // Unindex the abandoned suffix, then index the new branch oldest first. A
  // body the store cannot return is unindexed by a scan of the index.
  for (std::uint64_t h = canonical_.size(); h-- > keep;) {
    const Hash256& abandoned = canonical_[h];
    const Block* blk = block(abandoned);
    if (!blk) {
      std::erase_if(tx_index_, [&](const auto& kv) { return kv.second.height == h; });
      continue;
    }
    for (const Transaction& tx : blk->transactions) {
      const auto it = tx_index_.find(tx.id());
      if (it != tx_index_.end() && it->second.height == h) tx_index_.erase(it);
    }
  }
  canonical_.resize(keep);
  for (auto id = branch.rbegin(); id != branch.rend(); ++id) {
    canonical_.push_back(*id);
    const std::uint64_t h = canonical_.size() - 1;
    const Block* blk = block(*id);
    if (!blk) continue;
    for (std::size_t i = 0; i < blk->transactions.size(); ++i)
      tx_index_[blk->transactions[i].id()] = TxSlot{h, static_cast<std::uint32_t>(i)};
  }
}

}  // namespace sc::chain
