// Authenticated state commitment: the Merkle trie pair behind `state_root`.
//
// Two-level layout (docs/authenticated-state.md):
//   account trie   key = SHA-256(address), value = account digest
//                  digest = SHA-256(balance_le8 || nonce_le8 ||
//                                   code_hash[32] || storage_root[32])
//   storage tries  one per contract; key = SHA-256(slot_be32),
//                  value = slot_be32 (zero slots are absent leaves)
// `state_root` in the block header is the account trie's root; a storage
// proof chains through the account leaf's `storage_root` field.
//
// The commitment is maintained *incrementally* from per-block `StateDelta`s:
// `update()` refreshes exactly the touched accounts/slots by reading their
// post-transition truth from the state, so one call works for both apply
// (connect) and unapply (reorg walk) directions at O(changes · log n) hash
// cost — never a full-state rehash. Trie writes only mark branches dirty
// (merkle_trie.hpp): each touched storage trie is flushed before the account
// digest that embeds its root, and the account trie is flushed by the next
// root() or proof, so a walk of several update()s before one read hashes
// each distinct dirty branch once. `rebuild()` is the O(n) bottom-up
// construction used for genesis, for a recovery snapshot and as the
// differential oracle.
#pragma once

#include <optional>
#include <unordered_map>

#include "chain/state.hpp"
#include "chain/state_journal.hpp"
#include "crypto/merkle_trie.hpp"

namespace sc::chain {

/// Proof that an account exists with the given fields — or does not exist —
/// under a `state_root`. Self-contained: verification needs only the root.
struct AccountProof {
  Address address;
  bool exists = false;
  Amount balance = 0;
  std::uint64_t nonce = 0;
  Hash256 code_hash;     ///< Zero for code-less (or absent) accounts.
  Hash256 storage_root;  ///< Zero for empty (or absent) storage.
  crypto::TrieProof trie;  ///< Inclusion (exists) or absence proof.

  bool verify(const Hash256& state_root) const;
  util::Bytes encode() const;
  static std::optional<AccountProof> decode(util::ByteSpan data);
};

/// Proof of one storage slot's value (zero = absent) under a `state_root`.
/// Chains an account proof (binding storage_root to the state root) with a
/// slot proof in that account's storage trie. A proof for a slot of a
/// nonexistent account is just the account-absence proof with value zero.
struct StorageProof {
  AccountProof account;
  crypto::U256 slot;
  crypto::U256 value;
  crypto::TrieProof trie;

  bool verify(const Hash256& state_root) const;
  util::Bytes encode() const;
  static std::optional<StorageProof> decode(util::ByteSpan data);
};

class StateCommitment {
 public:
  static Hash256 account_key(const Address& addr);
  static Hash256 slot_key(const crypto::U256& slot);
  /// Identity embedding of a slot value as a 32-byte trie leaf value.
  static Hash256 slot_leaf_value(const crypto::U256& value);
  /// SHA-256 of the code; all-zero for empty code.
  static Hash256 code_hash_of(util::ByteSpan code);
  static Hash256 account_digest(Amount balance, std::uint64_t nonce,
                                const Hash256& code_hash,
                                const Hash256& storage_root);

  /// Full bottom-up reconstruction from a materialized state: O(n) hashes.
  void rebuild(const WorldState& state);

  /// Incremental refresh after `delta` has been applied *or* unapplied to
  /// `state`: every account/slot the delta names is re-read from `state`
  /// (the post-transition truth) and its leaves updated in place. The
  /// account trie's branches are rehashed by the next root()/prove_*().
  void update(const StateDelta& delta, const WorldState& state);

  const Hash256& root() const { return accounts_.root(); }
  /// Leaves + internal nodes across the account and all storage tries.
  std::size_t node_count() const { return accounts_.node_count() + storage_nodes_; }
  std::size_t account_leaves() const { return accounts_.leaf_count(); }
  void clear();

  /// Proofs at the committed state. `state` must be the same state the
  /// commitment currently reflects (the chain's materialized tip).
  AccountProof prove_account(const Address& addr, const StateView& state) const;
  StorageProof prove_storage(const Address& addr, const crypto::U256& slot,
                             const StateView& state) const;

  /// O(n log n) full-rehash oracle: the root a fresh commitment over `state`
  /// would carry. Differential anchor for the incremental path.
  static Hash256 root_of(const WorldState& state);

 private:
  /// Re-reads one account from `state` and refreshes its leaf (and, when
  /// `slots` is non-null, the named slots of its storage trie).
  void refresh_account(const Address& addr, const WorldState& state,
                       const std::map<crypto::U256, StateDelta::SlotChange>* slots,
                       bool code_changed);
  Hash256 storage_root_of(const Address& addr) const;
  Hash256 cached_code_hash(const Address& addr, const Account& acct,
                           bool code_changed);

  crypto::MerkleTrie accounts_;
  std::unordered_map<Address, crypto::MerkleTrie> storage_;
  std::unordered_map<Address, Hash256> code_hashes_;
  std::size_t storage_nodes_ = 0;  ///< Sum of node_count over storage_.
};

}  // namespace sc::chain
