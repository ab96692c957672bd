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
// materialization anchor. The canonical-tip state is one mutable
// `WorldState` that submit_block walks across the block tree by
// unapplying/applying deltas — fork switches and reorgs cost O(changed
// entries along the fork), not O(accounts). Historic states
// (`state_of`) are rebuilt from the nearest snapshot on demand and cached.
//
// A block this chain sealed itself executes once: build_block_template keeps
// the sealed result and its own submit_block adopts it (DESIGN.md §11).
#pragma once

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
#include "symex/properties.hpp"

namespace sc::util {
class ThreadPool;
}

namespace sc::chain {

/// Knobs for the diff-based state store.
struct StateStoreConfig {
  /// A full post-state snapshot is kept every `flatten_interval` blocks
  /// (heights divisible by it; genesis is always anchored). Smaller values
  /// trade memory for faster historic materialization.
  std::uint64_t flatten_interval = 32;
  /// Pruning knob for the historic-state cache filled by `state_of`: oldest
  /// materializations are dropped beyond this many entries (0 = unbounded).
  std::size_t max_cached_states = 8;
};

/// Knobs for block execution (chain/parallel_executor.hpp).
struct ExecutionConfig {
  /// Worker lanes for block apply. 1 (the default) keeps the sequential
  /// journaled executor — bit-for-bit the pre-parallel behaviour, and what
  /// the metrics determinism gate pins. >1 enables optimistic parallel
  /// execution over a persistent thread pool with that many lanes
  /// (pool workers + the submitting thread); 0 means one lane per hardware
  /// thread. Receipts, state and deltas are byte-identical across settings.
  unsigned threads = 1;
};

/// Genesis configuration: initial balances (stakeholder endowments).
struct GenesisConfig {
  std::vector<std::pair<Address, Amount>> allocations;
  std::uint64_t timestamp = 0;
  std::uint64_t difficulty = 1;
  /// When true, every block's declared difficulty must equal the per-block
  /// retarget of its parent (chain/difficulty.hpp) — consensus-enforced
  /// difficulty control instead of the paper's fixed testbed value.
  bool dynamic_difficulty = false;
  /// Diff/snapshot trade-off of the state store.
  StateStoreConfig state_store;
  /// Sequential vs parallel block execution + signature caching.
  ExecutionConfig execution;
  /// Opt-in symbolic deploy gate: when enabled, every deploy is bounded
  /// model checked (sc::symex) after static verification and rejected on a
  /// replay-confirmed economic-invariant violation.
  symex::DeepVerifyConfig deep_verify;
};

/// Knobs for the durable store attached by Blockchain::open.
struct PersistenceOptions {
  /// fsync the log/journal at the ordering contract points. Off trades the
  /// durability of the newest blocks for append throughput.
  bool fsync = true;
  /// Tip-journal rewrite cadence (records between compactions).
  std::uint64_t wal_compact_every = 4096;
};

/// What Blockchain::open found and did while replaying an existing store.
struct RecoveryReport {
  std::uint64_t blocks_replayed = 0;
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
  /// this; a real shutdown wants close().
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
  /// snapshot and cached; pointers into the cache stay valid until
  /// `max_cached_states` forces eviction of that entry.
  const WorldState* state_of(const Hash256& block_id) const;

  const Block* block(const Hash256& id) const;
  /// Block at `height` on the canonical chain (nullptr if beyond tip).
  const Block* block_at(std::uint64_t height) const;
  const std::vector<Receipt>* receipts(const Hash256& block_id) const;

  /// Per-block state diff (always present; empty for no-op blocks).
  const StateDelta* delta_of(const Hash256& block_id) const;

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
  /// Under dynamic difficulty, the `difficulty` argument is ignored and the
  /// consensus-mandated value is stamped instead.
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
  bool seal_state_root(Block& block, std::string* why = nullptr);

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

  /// The difficulty consensus requires for a child of the current best head
  /// at the given timestamp.
  std::uint64_t required_difficulty(std::uint64_t child_timestamp) const;

  std::size_t block_count() const { return entries_.size(); }

  /// Drops every cached historic materialization (the snapshots kept at
  /// flatten heights stay). Explicit form of the max_cached_states knob.
  void prune_state_cache() const;

  /// All canonical transactions with the given protocol kind, oldest first —
  /// the consumer query surface ("look up the blockchain", Section VI-A).
  std::vector<std::pair<TxLocation, const Transaction*>> protocol_records(
      ProtocolKind kind) const;

 private:
  struct Entry {
    Block block;
    std::uint64_t cumulative_difficulty = 0;
    StateDelta delta;                      ///< This block's diff over its parent.
    std::unique_ptr<WorldState> snapshot;  ///< Full post-state at flatten heights.
    std::vector<Receipt> receipts;
    std::uint64_t arrival_order = 0;  ///< Tie-break: first seen wins.
  };

  /// What seal_state_root computed for a template on the best head, held for
  /// that template's own submit_block. While held, commitment_ sits at the
  /// template's post-state and tip_state_ at the parent's.
  struct SealedTemplate {
    BlockHeader header;  ///< As stamped; the PoW nonce is never compared.
    /// Per transaction: Transaction::id() leaves the sender out, so the
    /// Merkle root alone would let a re-signed body adopt this delta.
    std::vector<std::pair<crypto::secp256k1::AffinePoint, crypto::secp256k1::Signature>>
        signers;
    StateDelta delta;
    std::vector<Receipt> receipts;

    /// True if `block` (Merkle-consistent) is this template, whatever its nonce.
    bool matches(const Block& block) const;
  };

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
  /// template). O(changed entries along the two branches).
  void move_tip_to(const Hash256& target);
  /// Executes `block`'s body on tip_state_ (which must equal the parent's
  /// post-state), committing the journal and returning the net delta;
  /// receipts are optional. The commitment is NOT updated — callers follow
  /// up with commitment_.update for the direction they need.
  void execute_block_body(const Block& block, std::vector<Receipt>* receipts,
                          StateDelta* delta);
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

  telemetry::Telemetry* telemetry_ = nullptr;
  /// Durable backend attached by open(); null for a RAM-only chain. Concrete
  /// type lives in sc_store — sc_chain sees only the interface.
  std::unique_ptr<StoreHook> store_;
  /// Set when the store degraded to read-only mid-run (see store_degraded()).
  bool store_degraded_ = false;
  StateStoreConfig state_cfg_;
  symex::DeepVerifyConfig deep_verify_;
  SigCache sig_cache_;
  /// Worker pool for parallel execution + batched signature verification;
  /// null when execution.threads resolves to 1 (sequential mode).
  std::unique_ptr<util::ThreadPool> exec_pool_;
  std::unordered_map<Hash256, Entry> entries_;
  bool dynamic_difficulty_ = false;
  Hash256 genesis_id_;
  Hash256 best_head_;
  std::uint64_t arrival_counter_ = 0;
  /// Canonical chain indices, rebuilt on head change.
  std::vector<Hash256> canonical_;                       ///< height -> block id
  std::unordered_map<Hash256, TxLocation> tx_index_;     ///< canonical txs

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
};

}  // namespace sc::chain
