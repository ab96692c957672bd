// chain::Blockchain <-> sc::store glue: the concrete StoreHook and
// Blockchain::open()'s replay-on-open.
//
// Lives in sc_store (not sc_chain) so a RAM-only chain never links the
// storage layer; open() is the only Blockchain member whose definition
// requires it. Replay rebuilds the exact in-memory structures submit_block
// would have produced — cumulative difficulty, arrival order (log append
// order doubles as first-seen order), fork choice, canonical index — then
// materializes the tip from the nearest on-disk snapshot by delta replay and
// cross-checks the write-ahead tip journal. Receipts are not persisted:
// Blockchain::receipts re-executes a block that has left RAM.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "store/block_store.hpp"

namespace sc::chain {
namespace {

inline bool fail(std::string* why, std::string msg) {
  if (why) *why = std::move(msg);
  return false;
}

/// StoreHook over a BlockStore: thin forwarding, plus digest computation on
/// clean close (the only moment a full-state hash is worth its O(accounts)).
class BlockStoreHook final : public StoreHook {
 public:
  explicit BlockStoreHook(std::unique_ptr<store::BlockStore> store)
      : store_(std::move(store)) {}

  bool append_block(const Block& block, const StateDelta& delta,
                    std::string* why) override {
    return store_->append_block(block, delta, why);
  }

  bool write_tip(std::uint64_t height, const Hash256& id,
                 std::string* why) override {
    return store_->write_tip(height, id, why);
  }

  /// Writes only once the log has paid for it (BlockStore::snapshot_due).
  bool write_snapshot(std::uint64_t height, const Hash256& id,
                      const WorldState& state, std::string* why) override {
    return !store_->snapshot_due() || store_->write_snapshot(height, id, state, why);
  }

  bool has_snapshot(const Hash256& id) const override {
    return store_->has_snapshot(id);
  }

  bool load_snapshot(const Hash256& id, WorldState* out) const override {
    auto state = store_->load_snapshot(id);
    if (!state) return false;
    *out = std::move(*state);
    return true;
  }

  bool load_block(const Hash256& id, Block* block, StateDelta* delta) const override {
    auto record = store_->record_by_id(id);
    if (!record) return false;
    *block = std::move(record->first);
    *delta = std::move(record->second);
    return true;
  }

  bool on_close(std::uint64_t height, const Hash256& id,
                const WorldState& tip_state) override {
    return store_->close_clean(height, id, tip_state.digest());
  }

  bool compact(const std::vector<Hash256>& keep, std::string* why) override {
    return store_->compact(keep, why);
  }

  bool read_only() const override { return store_->read_only(); }

  store::BlockStore& store() { return *store_; }

 private:
  std::unique_ptr<store::BlockStore> store_;
};

}  // namespace

bool Blockchain::open(const std::string& dir, const PersistenceOptions& options,
                      std::string* why, RecoveryReport* report) {
  if (store_) return fail(why, "already open");
  if (entries_.size() != 1 || best_head_ != genesis_id_)
    return fail(why, "open() requires a chain holding only genesis");
  // Recovery walks the commitment on from genesis's; a template sealed
  // before open() must not outlive it.
  drop_sealed();

  store::StoreOptions store_options;
  store_options.fsync = options.fsync;
  auto backing = store::BlockStore::open(dir, genesis_id_, store_options,
                                         telemetry_, why);
  if (!backing) return false;

  RecoveryReport local_report;
  RecoveryReport& rep = report ? *report : local_report;
  rep = RecoveryReport{};
  {
    const store::StoreStats stats = backing->stats();
    rep.torn_tail_truncated = stats.torn_tail_truncated;
  }

  // -- Load every block + delta in append order -----------------------------
  // The log only ever received blocks submit_block had already validated, so
  // replay re-checks linkage (a broken link means corruption the CRC layer
  // could not see) but not PoW/signatures/execution.
  bool linked = true;
  std::string link_error;
  const bool scanned = backing->for_each_block(
      [&](Block&& block, StateDelta&& delta) {
        const Hash256 id = block.id();
        if (entries_.contains(id)) {
          linked = false;
          link_error = "store corrupt: duplicate block " + id.hex();
          return false;
        }
        const auto parent_it = entries_.find(block.header.prev_id);
        if (parent_it == entries_.end()) {
          linked = false;
          link_error = "store corrupt: block " + id.hex() + " has no parent";
          return false;
        }
        const Entry& parent = parent_it->second;
        if (block.header.height != parent.block.header.height + 1) {
          linked = false;
          link_error = "store corrupt: height discontinuity at " + id.hex();
          return false;
        }
        Entry entry;
        entry.cumulative_difficulty =
            parent.cumulative_difficulty +
            std::max<std::uint64_t>(1, block.header.difficulty);
        entry.block = std::move(block);
        entry.delta = std::move(delta);
        entry.arrival_order = arrival_counter_++;
        entries_.emplace(id, std::move(entry));
        ++rep.blocks_replayed;
        return true;
      },
      why);
  auto abort_open = [&](std::string msg) {
    // Roll the chain back to pristine genesis so a failed open leaves the
    // object usable (and re-openable against a repaired directory).
    std::vector<Hash256> drop;
    for (const auto& [id, entry] : entries_)
      if (entry.block.header.height != 0) drop.push_back(id);
    for (const Hash256& id : drop) entries_.erase(id);
    arrival_counter_ = 1;
    best_head_ = genesis_id_;
    tip_at_ = genesis_id_;
    tip_state_ = *entries_.at(genesis_id_).snapshot;
    commitment_.rebuild(tip_state_);
    canonical_.clear();
    tx_index_.clear();
    reindex_canonical();
    prune_state_cache();
    return fail(why, std::move(msg));
  };
  if (!linked) return abort_open(std::move(link_error));
  if (!scanned)
    return abort_open(why && !why->empty() ? *why : "store scan failed");

  // -- Fork choice ----------------------------------------------------------
  // Same rule as the live path: greatest cumulative difficulty, first-seen
  // (== log append order) wins ties.
  Hash256 best = genesis_id_;
  {
    const Entry* best_entry = &entries_.at(best);
    for (const auto& [id, entry] : entries_) {
      if (entry.cumulative_difficulty > best_entry->cumulative_difficulty ||
          (entry.cumulative_difficulty == best_entry->cumulative_difficulty &&
           entry.arrival_order < best_entry->arrival_order)) {
        best = id;
        best_entry = &entry;
      }
    }
  }
  best_head_ = best;
  reindex_canonical();

  // -- Materialize the tip --------------------------------------------------
  // Seed from the highest canonical block with a durable snapshot (genesis's
  // in-memory snapshot is the fallback), then delta-walk to the head. A
  // loaded snapshot replaces tip_state_ wholesale, so the commitment is
  // re-anchored on it with one O(n) bulk rebuild; without one the commitment
  // still mirrors genesis exactly. Either way the walk's incremental updates
  // then keep it equal to root_of(tip_state_).
  for (std::size_t i = canonical_.size(); i-- > 1;) {
    const Hash256& id = canonical_[i];
    auto snapshot = backing->load_snapshot(id);
    if (!snapshot) continue;
    tip_state_ = std::move(*snapshot);
    tip_at_ = id;
    commitment_.rebuild(tip_state_);
    rep.snapshot_height = i;
    break;
  }
  move_tip_to(best_head_);

  // -- Cross-check the authenticated state root -----------------------------
  // The replayed tip state must hash to exactly the commitment the recovered
  // head's header advertises — a mismatch means the log's deltas and the
  // header's root disagree, i.e. corruption the CRC layer could not see.
  if (commitment_.root() != entries_.at(best_head_).block.header.state_root)
    return abort_open("recovered state root mismatch at " + best_head_.hex());

  // -- Cross-check the write-ahead tip journal ------------------------------
  const std::optional<store::TipRecord>& tip = backing->journal_tip();
  if (tip) {
    const auto it = entries_.find(tip->block_id);
    if (tip->clean) {
      if (it == entries_.end())
        return abort_open("clean-shutdown record names an unknown block");
      if (tip->block_id != best_head_)
        return abort_open("clean-shutdown record disagrees with fork choice");
      if (tip->state_digest != tip_state_.digest())
        return abort_open("recovered tip state digest mismatch");
      rep.clean_verified = true;
    } else if (it == entries_.end()) {
      // The journal acknowledged a block whose log bytes did not survive the
      // crash (torn tail truncated past it). Everything still stored is a
      // valid acknowledged prefix; surface it and carry on.
      rep.recovered_prefix = true;
    }
  }

  store_ = std::make_unique<BlockStoreHook>(std::move(backing));
  // Replayed history deeper than flatten_interval leaves RAM like live
  // blocks do; the store now serves it.
  for (const auto& [id, entry] : entries_)
    if (entry.block.header.height != 0)
      resident_by_height_[entry.block.header.height].push_back(id);
  evict_deep_history();
  return true;
}

}  // namespace sc::chain
