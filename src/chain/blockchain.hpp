// The blockchain store: validation, fork choice and finality.
//
// Fault-tolerant verification and storage (paper Section V-C): every block is
// fully validated (PoW, linkage, Merkle consistency, executability) before
// being stored; the canonical chain is the one with the greatest cumulative
// difficulty (majority hashing power wins, which is exactly the paper's
// ">50% of IoT providers" argument); a block is *confirmed* once
// kConfirmationDepth descendants extend it, after which its records — SRAs
// and detection reports — are treated as authoritative by consumers and the
// incentive layer.
//
// State storage is diff-based: each block keeps only the `StateDelta` its
// transactions introduced (O(diff) memory), with a full `WorldState`
// snapshot every `StateStoreConfig::flatten_interval` blocks as a
// materialization anchor — in RAM on a RAM-only chain; on a durable one, on
// disk at those flatten heights where the store's byte budget says so (one
// snapshot's bytes of log growth since the last). The canonical-tip state is
// one mutable `WorldState` that submit_block walks across the block tree by
// unapplying/applying deltas — fork switches and reorgs cost O(changed
// entries along the fork), not O(accounts). Historic states
// (`state_of`) are rebuilt from the nearest snapshot on demand and cached.
//
// A durable chain (store attached, not degraded) keeps block bodies, deltas
// and receipts in RAM only for blocks within `flatten_interval` of the best
// head; deeper history is read back from the store on demand (receipts by
// re-executing the body on the parent's state), so RAM per connected block
// is its header and index entries. RAM-only chains keep everything.
//
// A block this chain sealed itself executes once: build_block_template keeps
// the sealed result and its own submit_block adopts it (DESIGN.md §11).
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/executor.hpp"
#include "chain/sig_cache.hpp"
#include "chain/state.hpp"
#include "chain/state_commitment.hpp"
#include "chain/state_journal.hpp"
#include "chain/store_hook.hpp"

namespace sc::util {
class ThreadPool;
}

namespace sc::chain {

/// Knobs for the diff-based state store.
struct StateStoreConfig {
  /// A RAM-only chain keeps a full post-state snapshot every
  /// `flatten_interval` blocks (heights divisible by it; genesis is always
  /// anchored); smaller values trade memory for faster historic
  /// materialization. A durable chain offers the store a snapshot at those
  /// heights, and the store writes one once its log has grown by one
  /// snapshot's bytes (StoreHook::write_snapshot). Either way it bounds the
  /// deltas a durable chain keeps in RAM.
  std::uint64_t flatten_interval = 32;
};

/// Knobs for block execution.
struct ExecutionConfig {
  /// Worker lanes for block validation: >1 fans the batch verification of a
  /// connected block's uncached signatures out over a persistent thread pool
  /// with that many lanes (pool workers + the submitting thread); 0 means
  /// one lane per hardware thread; 1 (the default) verifies inline. State
  /// transitions always run on one thread, in the sequential journaled
  /// executor, so receipts, state, deltas and store bytes are byte-identical
  /// across settings.
  unsigned threads = 1;
};

/// Genesis configuration: initial balances (stakeholder endowments).
struct GenesisConfig {
  std::vector<std::pair<Address, Amount>> allocations;
  std::uint64_t timestamp = 0;
  std::uint64_t difficulty = 1;
  /// Diff/snapshot trade-off of the state store.
  StateStoreConfig state_store;
  /// Signature-verification lanes of block validation.
  ExecutionConfig execution;
};

/// Knobs for the durable store attached by Blockchain::open.
struct PersistenceOptions {
  /// fsync the log/journal at the ordering contract points. Off trades the
  /// durability of the newest blocks for append throughput.
  bool fsync = true;
};

/// What Blockchain::open found and did while replaying an existing store.
struct RecoveryReport {
  std::uint64_t blocks_replayed = 0;
  /// Height of the on-disk snapshot the tip state was rebuilt from (0: none,
  /// the delta walk started at genesis).
  std::uint64_t snapshot_height = 0;
  bool torn_tail_truncated = false;
  /// The tip journal acknowledged a block the (repaired) log no longer holds:
  /// the node crashed inside the append window and a valid prefix of the
  /// chain was recovered instead.
  bool recovered_prefix = false;
  /// Clean-shutdown record present and its state digest matched the replayed
  /// tip state byte-for-byte.
  bool clean_verified = false;
};

/// Where a transaction landed.
struct TxLocation {
  Hash256 block_id;
  std::uint64_t height = 0;
  std::size_t index = 0;  ///< Position in the block body.
};

class Blockchain {
 public:
  /// `tel` is the metrics/trace sink for block-connect spans, connect
  /// counters and reorg accounting (nullptr → telemetry::global()); it is
  /// also forwarded to transaction execution.
  explicit Blockchain(const GenesisConfig& genesis,
                      telemetry::Telemetry* tel = nullptr);
  ~Blockchain();

  /// The chain's verified-signature cache. Batch pre-validation in
  /// submit_block feeds it; hand it to Mempool::set_sig_cache so admission
  /// and block validation verify each signature once between them.
  SigCache& sig_cache() { return sig_cache_; }
  const SigCache& sig_cache() const { return sig_cache_; }

  /// Validates and connects a block. Returns false with a reason if the
  /// block is malformed, unlinked, fails PoW, or fails execution checks.
  /// A block matching the template last sealed on the best head adopts that
  /// template's delta and receipts instead of executing again.
  /// `skip_pow` supports simulation-produced blocks whose production rate is
  /// governed by the event model rather than hash grinding (see DESIGN.md).
  bool submit_block(const Block& block, std::string* why = nullptr,
                    bool skip_pow = false);

  // -- Durability (sc::store; link sc_store to use) -------------------------
  /// Attaches a durable block/state store at `dir`, replaying whatever it
  /// already holds: blocks and deltas are loaded, fork choice is recomputed,
  /// the tip state is rebuilt from the nearest on-disk snapshot by delta
  /// replay, and the result is cross-checked against the write-ahead tip
  /// journal (see docs/persistence.md). Must be called on a chain that holds
  /// only genesis; every subsequently accepted block is persisted before it
  /// is acknowledged. Defined in sc_store (store/blockchain_persist.cpp).
  bool open(const std::string& dir, const PersistenceOptions& options = {},
            std::string* why = nullptr, RecoveryReport* report = nullptr);
  /// Clean shutdown of the attached store: journals the head + tip-state
  /// digest and seals the log with its lookup index. No-op when not open.
  /// History that had left RAM for the store is unreadable afterwards:
  /// reopen the directory with a fresh chain to read it again.
  void close();
  /// True once open() succeeded (and close() has not run).
  bool persistent() const { return store_ != nullptr; }
  /// True once a store write failure flipped this chain into degraded
  /// operation: the store stays attached read-only (old snapshots and blocks
  /// remain loadable) but new blocks live in RAM only, with RAM snapshots at
  /// flatten heights. The chain keeps accepting blocks — availability over
  /// durability; see docs/robustness.md for the contract.
  bool store_degraded() const { return store_degraded_; }
  /// Drops the attached store WITHOUT the clean-shutdown records — the
  /// on-disk state is left exactly as the last acknowledged write put it, as
  /// a process death would. The simulator's crash/restart lifecycle uses
  /// this; a real shutdown wants close(). Like close(), it ends reads of
  /// history that had left RAM.
  void detach_store();
  /// Rewrites the store's log, dropping fork blocks that can no longer reorg
  /// in: keeps the canonical chain plus every block within `finality_depth`
  /// of the tip. No-op (true) when not persistent.
  bool compact_store(std::uint64_t finality_depth = kConfirmationDepth,
                     std::string* why = nullptr);

  const Hash256& genesis_id() const { return genesis_id_; }
  const Hash256& best_head() const { return best_head_; }
  std::uint64_t best_height() const;
  /// Post-state of the best head. The reference stays valid for the chain's
  /// lifetime but its *contents* advance with the canonical head.
  const WorldState& best_state() const;
  /// Post-state of an arbitrary stored block (nullptr if unknown). Blocks
  /// without a retained snapshot are materialized from the nearest ancestor
  /// snapshot and cached; pointers into the cache stay valid until eight
  /// further materializations evict that entry (FIFO).
  const WorldState* state_of(const Hash256& block_id) const;

  /// Pointers returned by block, block_at, receipts, delta_of and
  /// receipt_of stay valid for the chain's lifetime on a RAM-only chain. On a
  /// durable chain, a block deeper than `flatten_interval` below the head is
  /// read back from the store into a small cache, and a pointer into it is
  /// valid until kDeepCacheEntries further deep reads (or close()).
  const Block* block(const Hash256& id) const;
  /// Block at `height` on the canonical chain (nullptr if beyond tip).
  const Block* block_at(std::uint64_t height) const;
  /// Execution receipts. Receipts are not persisted: a durable chain
  /// re-executes the body of a deep or replayed block on its parent's state.
  const std::vector<Receipt>* receipts(const Hash256& block_id) const;

  /// Per-block state diff (always present; empty for no-op blocks and for
  /// genesis, whose allocations are written straight into its snapshot).
  const StateDelta* delta_of(const Hash256& block_id) const;

  /// Deep blocks a durable chain keeps read back from the store at once.
  static constexpr std::size_t kDeepCacheEntries = 64;
  /// Blocks whose body, delta and receipts are in RAM: every block of a
  /// RAM-only chain; those within `flatten_interval` of the head (plus
  /// genesis) on a durable one.
  std::size_t resident_block_count() const { return entries_.size() - evicted_count_; }

  /// True if the block sits on the canonical chain with at least `depth`
  /// blocks on top (default: protocol confirmation depth).
  bool is_confirmed(const Hash256& block_id,
                    std::uint64_t depth = kConfirmationDepth) const;

  /// Locates a transaction on the canonical chain.
  std::optional<TxLocation> find_transaction(const Hash256& tx_id) const;
  /// Receipt of a canonical transaction (nullptr if absent).
  const Receipt* receipt_of(const Hash256& tx_id) const;
  /// True once the containing block is confirmed.
  bool tx_confirmed(const Hash256& tx_id,
                    std::uint64_t depth = kConfirmationDepth) const;

  /// Assembles a successor of the current best head with Merkle root and
  /// state root sealed (the body is speculatively executed to stamp the
  /// post-state commitment — the "miner executes first" rule). Caller mines.
  /// The execution result is held for this block's own submit_block.
  Block build_block_template(const Address& miner, std::uint64_t timestamp,
                             std::uint64_t difficulty,
                             std::vector<Transaction> txs);

  /// Executes `block`'s body on its parent's post-state and stamps
  /// header.state_root with the resulting commitment, leaving the chain's
  /// observable state untouched. On the best head the delta, receipts and
  /// trie roll are held for this block's submit_block (any other commitment
  /// access rolls the trie back first); on any other parent — fork builders
  /// in tests, attack harnesses — everything is undone at once.
  /// build_block_template does this for the canonical path. False if the
  /// parent is unknown.
  bool seal_state_root(Block& block, std::string* why = nullptr) {
    return seal(block, nullptr, why);
  }

  /// Authenticated root of the best head's post-state — equals the best
  /// head's header.state_root between submits.
  const Hash256& state_root() const { return commitment().root(); }
  /// The live tip commitment (proof surface + node accounting).
  const StateCommitment& commitment() const {
    drop_sealed();
    return commitment_;
  }
  /// Merkle proof of an account (or its absence) in the best head's state.
  AccountProof prove_account(const Address& addr) const {
    return commitment().prove_account(addr, tip_state_);
  }
  /// Merkle proof of a contract storage slot's value (zero = absent) in the
  /// best head's state.
  StorageProof prove_storage(const Address& addr, const crypto::U256& slot) const {
    return commitment().prove_storage(addr, slot, tip_state_);
  }

  std::size_t block_count() const { return entries_.size(); }

  /// Drops every cached historic materialization (the snapshots kept at
  /// flatten heights stay).
  void prune_state_cache() const;

  /// All canonical transactions with the given protocol kind, oldest first —
  /// the consumer query surface ("look up the blockchain", Section VI-A).
  /// Returned by value: deep history may be read back from the store.
  std::vector<std::pair<TxLocation, Transaction>> protocol_records(
      ProtocolKind kind) const;

 private:
  struct Entry {
    Block block;  ///< Header always; transactions only while resident.
    std::uint64_t cumulative_difficulty = 0;
    StateDelta delta;                      ///< This block's diff over its parent.
    std::unique_ptr<WorldState> snapshot;  ///< Full post-state at flatten heights.
    std::vector<Receipt> receipts;
    std::uint64_t arrival_order = 0;  ///< Tie-break: first seen wins.
    /// False once body, delta and receipts left RAM for the store (durable
    /// chains, deeper than flatten_interval below the head).
    bool resident = true;
  };

  /// A deep block read back from the store; receipts are filled on demand.
  struct DeepRecord {
    Block block;
    StateDelta delta;
    std::optional<std::vector<Receipt>> receipts;
  };

  /// What seal_state_root computed for a template on the best head, held for
  /// that template's own submit_block. While held, commitment_ sits at the
  /// template's post-state and tip_state_ at the parent's.
  struct SealedTemplate {
    /// As stamped; the PoW nonce is never compared. Tx ids cover signer and
    /// signature, so the Merkle root pins the whole body.
    BlockHeader header;
    /// The executed body; receipts[i].tx_id is body[i]'s id.
    std::vector<Transaction> body;
    StateDelta delta;
    std::vector<Receipt> receipts;

    /// True if `block` (Merkle-consistent) is this template, whatever its nonce.
    bool matches(const Block& block) const;
  };

  /// Brings canonical_ and tx_index_ to best_head_, touching only the blocks
  /// above the old and new branches' fork point.
  void reindex_canonical();
  /// O(block) canonical/tx-index append for the head-extends-head fast path;
  /// `tx_ids` are the block's transaction ids in body order.
  void extend_canonical(const Hash256& id, const std::vector<Hash256>& tx_ids);
  /// Blocks abandoned when the head moved from `old_head` to a block that
  /// does not extend it (0 for plain extensions).
  std::uint64_t reorg_depth(const Hash256& old_head) const;
  /// Walks tip_state_ from tip_at_ to `target` (both must be stored) by
  /// unapplying deltas up to the common ancestor and applying down the other
  /// branch, rolling the state commitment along (after dropping a held
  /// template). O(changed entries along the two branches). False, with
  /// nothing moved, when a delta that left RAM cannot be read back; the walk
  /// back over the same blocks reuses the deltas read and cannot fail.
  bool move_tip_to(const Hash256& target);
  /// seal_state_root, executing with the body's `tx_ids` when the chain
  /// hashed them itself (build_block_template); nullptr hashes in the
  /// executor. Ids never come from outside: the held receipts carry them into
  /// the Merkle check of the template's own connect.
  bool seal(Block& block, const std::vector<Hash256>* tx_ids, std::string* why);
  /// Executes `block`'s body on tip_state_ (which must equal the parent's
  /// post-state), committing the journal and returning the net delta and
  /// receipts. `tx_ids` are the body's ids when the caller has them. The
  /// commitment is NOT updated — callers follow up with commitment_.update
  /// for the direction they need.
  void execute_block_body(const Block& block, const std::vector<Hash256>* tx_ids,
                          std::vector<Receipt>* receipts, StateDelta* delta);
  /// Rolls commitment_ over `delta` to tip_state_ (already transitioned),
  /// timed into state_root_update_seconds: one sample per connected block.
  void roll_commitment(const StateDelta& delta);
  /// Drops a held template, rolling commitment_ back to tip_state_; a no-op
  /// when none is held. Everything that reads or moves the commitment other
  /// than the template's own submit_block calls this first.
  void drop_sealed() const;
  /// Stores a full snapshot for `entry` (assumed == tip_state_) and updates
  /// the flatten telemetry.
  void flatten_into(Entry& entry);
  /// Execution environment of `block` (shared by connect and re-execution).
  BlockEnv env_of(const Block& block) const;
  /// Durable chains: drops body, delta and receipts of every block deeper
  /// than flatten_interval below the head. No-op without a writable store.
  void evict_deep_history();
  /// Reads an evicted block back from the store through the deep cache
  /// (nullptr if the store is gone or the read fails).
  DeepRecord* deep_record(const Hash256& id) const;
  /// Delta of a stored block, resident or read back.
  const StateDelta* delta_of(const Hash256& id, const Entry& entry) const;

  telemetry::Telemetry* telemetry_ = nullptr;
  struct Metrics;
  Metrics& metrics_;  ///< The sink's chain families.
  /// Durable backend attached by open(); null for a RAM-only chain. Concrete
  /// type lives in sc_store — sc_chain sees only the interface.
  std::unique_ptr<StoreHook> store_;
  /// Set when the store degraded to read-only mid-run (see store_degraded()).
  bool store_degraded_ = false;
  StateStoreConfig state_cfg_;
  SigCache sig_cache_;
  /// Worker pool for batched signature verification at connect; null when
  /// execution.threads resolves to 1.
  std::unique_ptr<util::ThreadPool> exec_pool_;
  std::unordered_map<Hash256, Entry> entries_;
  Hash256 genesis_id_;
  Hash256 best_head_;
  std::uint64_t arrival_counter_ = 0;
  /// Canonical chain indices, rebuilt on head change.
  std::vector<Hash256> canonical_;                       ///< height -> block id
  /// Where a canonical tx sits; the block id is canonical_[height], so an
  /// entry is 16 bytes instead of a full TxLocation (one per tx ever
  /// connected, the largest per-block term a durable chain keeps in RAM).
  struct TxSlot {
    std::uint64_t height = 0;
    std::uint32_t index = 0;
  };
  std::unordered_map<Hash256, TxSlot> tx_index_;  ///< canonical txs

  /// The one materialized state, walked across the tree via deltas.
  WorldState tip_state_;
  /// Authenticated commitment mirroring tip_state_, rolled incrementally by
  /// the same delta walks (O(changes · log n) per block/reorg step). Mutable
  /// because const readers settle a held template first (drop_sealed).
  mutable StateCommitment commitment_;
  mutable std::optional<SealedTemplate> sealed_;
  Hash256 tip_at_;  ///< Block whose post-state tip_state_ currently equals.
  std::uint64_t snapshot_bytes_ = 0;  ///< Running approx bytes of all snapshots.
  /// Historic materializations built by state_of (value pointers are stable
  /// under insertion; eviction is FIFO via state_cache_order_).
  mutable std::unordered_map<Hash256, WorldState> state_cache_;
  mutable std::vector<Hash256> state_cache_order_;
  /// Durable chains: resident non-genesis blocks by height, the eviction
  /// queue of evict_deep_history.
  std::map<std::uint64_t, std::vector<Hash256>> resident_by_height_;
  std::size_t evicted_count_ = 0;
  /// Deltas the last move_tip_to read back from the store.
  std::unordered_map<Hash256, StateDelta> last_walk_;
  /// Deep blocks read back from the store, FIFO-bounded at kDeepCacheEntries.
  mutable std::unordered_map<Hash256, DeepRecord> deep_cache_;
  mutable std::deque<Hash256> deep_cache_order_;
};

}  // namespace sc::chain
