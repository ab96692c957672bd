// Journaled copy-on-write state: O(changes) checkpoints instead of
// O(accounts) deep copies.
//
// `JournaledState` wraps a `WorldState` and applies every mutation directly
// to it while appending the *reverse* operation (previous balance/nonce/
// code/storage value, or "account did not exist") to an in-memory journal —
// the geth StateDB journal technique. A checkpoint is just the journal
// length (`mark()`); rolling back (`revert_to`) pops and undoes ops until
// the mark, touching only what actually changed. Nested marks are free, so
// the VM's sub-call snapshots, the executor's per-tx checkpoint and the
// chain's per-block execution all share one journal.
//
// `collect_delta()` folds the surviving journal into a `StateDelta`: the
// net per-account before/after diff of a block. The blockchain stores one
// delta per block (plus a full snapshot every flatten-interval blocks) and
// walks its materialized tip state across forks by unapply/apply — per-block
// state memory is O(diff), reorg cost is O(changed entries along the fork),
// and historic states are reconstructed from the nearest snapshot.
#pragma once

#include <cstddef>
#include <vector>

#include "chain/state.hpp"

namespace sc::chain {

/// Net state difference introduced by one block: per touched account, the
/// changed fields with both their before and after values, so the delta can
/// be applied forward (snapshot -> child state) and backward (reorg walk).
struct StateDelta {
  struct SlotChange {
    crypto::U256 before;
    crypto::U256 after;  ///< Zero means "slot absent".
  };
  struct AccountChange {
    bool created = false;  ///< Account did not exist before the block.
    std::optional<std::pair<Amount, Amount>> balance;          ///< before, after
    std::optional<std::pair<std::uint64_t, std::uint64_t>> nonce;
    std::optional<std::pair<util::Bytes, util::Bytes>> code;
    std::map<crypto::U256, SlotChange> storage;
  };

  std::unordered_map<Address, AccountChange> changes;

  bool empty() const { return changes.empty(); }
  std::size_t account_count() const { return changes.size(); }

  /// Applies the after-values on top of the block's parent state.
  void apply(WorldState& state) const;
  /// Restores the before-values; exact inverse of apply on the child state.
  void unapply(WorldState& state) const;

  /// Deterministic retained-memory estimate (the bench's O(diff) evidence).
  std::size_t approx_bytes() const;

  /// Canonical serialization (accounts sorted by address) — the per-block
  /// payload of the sc::store block log. Decode rejects truncated or
  /// malformed input with nullopt, never with UB.
  util::Bytes encode() const;
  static std::optional<StateDelta> decode(util::ByteSpan data);
};

/// Mutable state façade with journaled rollback. All writes go straight to
/// the underlying WorldState; the journal only holds reverse ops.
class JournaledState final : public StateView {
 public:
  explicit JournaledState(WorldState& state) : state_(state) {}

  // Reads pass through (writes are already in the underlying state).
  const Account* find(const Address& addr) const override { return state_.find(addr); }

  // -- Mutations (each records its reverse op) ------------------------------
  void add_balance(const Address& addr, Amount amount);
  bool sub_balance(const Address& addr, Amount amount);
  bool transfer(const Address& from, const Address& to, Amount amount);
  void bump_nonce(const Address& addr);
  void set_storage(const Address& contract, const crypto::U256& key,
                   const crypto::U256& value);
  void set_code(const Address& addr, util::Bytes code);

  // -- Checkpoints ----------------------------------------------------------
  /// A checkpoint is the current journal length; nesting is unbounded and
  /// costs nothing.
  std::size_t mark() const { return ops_.size(); }
  /// Undoes (and discards) every op recorded after `mark`.
  void revert_to(std::size_t mark);
  /// Accepts everything since `mark`. Journal entries are kept while outer
  /// marks may still revert them; committing the outermost mark (0) clears
  /// the journal.
  void commit(std::size_t mark);

  /// Folds the surviving journal into a net before/after diff. Before-values
  /// come from the earliest op per (account, field); after-values are read
  /// from the current state. No-op fields (before == after) are dropped.
  StateDelta collect_delta() const;

  std::size_t journal_size() const { return ops_.size(); }
  /// High-water journal length since construction (state_journal_depth gauge).
  std::size_t journal_high_water() const { return high_water_; }

  WorldState& underlying() { return state_; }
  const WorldState& underlying() const { return state_; }

 private:
  enum class OpKind : std::uint8_t { kCreate, kBalance, kNonce, kCode, kStorage };
  struct Op {
    OpKind kind;
    Address addr;
    Amount balance = 0;            ///< kBalance: previous balance.
    std::uint64_t nonce = 0;       ///< kNonce: previous nonce.
    util::Bytes code;              ///< kCode: previous code.
    crypto::U256 key;              ///< kStorage: slot key.
    crypto::U256 value;            ///< kStorage: previous value (zero = absent).
  };

  /// Mutable account access that journals first-touch creation.
  Account& mutable_account(const Address& addr);
  void record(Op op);

  WorldState& state_;
  std::vector<Op> ops_;
  std::size_t high_water_ = 0;
};

}  // namespace sc::chain
