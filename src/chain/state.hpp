// World state: accounts, balances, contract code and storage.
//
// `WorldState` is still a plain value type, but it is no longer copied on the
// hot path: the executor and blockchain mutate one instance through a
// `JournaledState` (state_journal.hpp) that records reverse ops, so rollback
// is O(changes) instead of O(accounts). Read-only consumers (contract state
// readers, the mempool's nonce/balance gate) accept the abstract `StateView`
// so they work over any state representation.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>

#include "chain/types.hpp"
#include "crypto/uint256.hpp"
#include "util/bytes.hpp"

namespace sc::chain {

struct Account {
  Amount balance = 0;
  std::uint64_t nonce = 0;
  util::Bytes code;                        ///< Empty for externally-owned accounts.
  std::map<crypto::U256, crypto::U256> storage;

  bool is_contract() const { return !code.empty(); }
};

/// Read-only account-state surface. Everything that only *reads* state —
/// contract slot readers, mempool admission, analytics — should take a
/// `StateView` so it is agnostic to where the state lives (a full
/// `WorldState`, a journaled overlay, a materialized historic snapshot).
class StateView {
 public:
  virtual ~StateView() = default;

  /// Read-only account lookup; nullptr if absent.
  virtual const Account* find(const Address& addr) const = 0;

  bool exists(const Address& addr) const { return find(addr) != nullptr; }

  Amount balance(const Address& addr) const {
    const Account* acct = find(addr);
    return acct ? acct->balance : 0;
  }

  std::uint64_t nonce(const Address& addr) const {
    const Account* acct = find(addr);
    return acct ? acct->nonce : 0;
  }

  crypto::U256 get_storage(const Address& contract, const crypto::U256& key) const {
    const Account* acct = find(contract);
    if (!acct) return {};
    const auto it = acct->storage.find(key);
    return it == acct->storage.end() ? crypto::U256{} : it->second;
  }

  util::ByteSpan code(const Address& addr) const {
    const Account* acct = find(addr);
    return acct ? util::ByteSpan{acct->code} : util::ByteSpan{};
  }
};

class WorldState final : public StateView {
 public:
  const Account* find(const Address& addr) const override;
  /// Account reference, creating an empty account on first touch.
  Account& touch(const Address& addr);

  void add_balance(const Address& addr, Amount amount);
  /// False (and no change) if funds are insufficient.
  bool sub_balance(const Address& addr, Amount amount);
  /// Atomic transfer; false (no change) on insufficient funds.
  bool transfer(const Address& from, const Address& to, Amount amount);

  void bump_nonce(const Address& addr) { ++touch(addr).nonce; }

  void set_storage(const Address& contract, const crypto::U256& key,
                   const crypto::U256& value);

  void set_code(const Address& addr, util::Bytes code) { touch(addr).code = std::move(code); }

  // -- Journal/delta support ------------------------------------------------
  // Raw field writes used by JournaledState::revert_to and StateDelta
  // apply/unapply. They bypass the invariant-friendly mutators above on
  // purpose: a reverse op must restore the exact prior value.
  void set_balance(const Address& addr, Amount amount) { touch(addr).balance = amount; }
  void set_nonce(const Address& addr, std::uint64_t nonce) { touch(addr).nonce = nonce; }
  /// Removes the account entirely — the reverse of first-touch creation, so
  /// `exists()` / `account_count()` match a state that never saw the account.
  void erase_account(const Address& addr) { accounts_.erase(addr); }

  /// Sum of all balances — the conservation invariant checked by tests.
  Amount total_supply() const;
  std::size_t account_count() const { return accounts_.size(); }

  /// Rough retained-memory estimate (accounts + code + storage slots), used
  /// for the state_snapshot_bytes gauge and the bench's memory accounting.
  std::size_t approx_bytes() const;

  /// Canonical serialization: accounts sorted by address, storage slots in
  /// key order, so two states with equal content encode byte-identically
  /// regardless of hash-map insertion history. This is the on-disk snapshot
  /// payload (sc::store) and the byte-identity basis of the recovery tests.
  util::Bytes encode() const;
  /// Appends encode()'s bytes to `out`, growing it once to the exact size.
  void encode_to(util::Bytes& out) const;
  static std::optional<WorldState> decode(util::ByteSpan data);
  /// SHA-256 over encode() — the state checksum recorded by the store's tip
  /// journal on clean shutdown and re-verified on open.
  Hash256 digest() const;

  /// Authenticated state root: the Merkle-trie commitment over every
  /// account and storage slot (chain/state_commitment.hpp). Full rebuild,
  /// O(n log n) — the oracle/debug surface; the chain keeps its header
  /// root incrementally from per-block deltas instead.
  Hash256 state_root() const;

  /// Iteration for analytics.
  const std::unordered_map<Address, Account>& accounts() const { return accounts_; }

 private:
  std::unordered_map<Address, Account> accounts_;
};

}  // namespace sc::chain
