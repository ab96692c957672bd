// Compressed binary Merkle trie (crit-bit / PATRICIA tree with hashes):
// the authenticated key-value commitment behind the chain's state root.
//
// Keys are 256-bit digests (callers hash addresses/slot keys first, which
// keeps the tree balanced at ~log2(n) depth); values are 32-byte digests.
// Internal nodes store the crit-bit index at which their two subtrees first
// differ, so the tree has exactly leaves-1 internal nodes regardless of key
// distribution — unlike a fixed-depth sparse Merkle tree there are no empty
// levels to hash through.
//
// Writes are batched: set/erase hash only the written leaf and mark the
// O(log n) branches on its descent path dirty. The next root() or prove()
// flushes once, bottom-up, hashing each dirty branch exactly once — so k
// writes between two reads cost one hash per *distinct* branch on their
// paths, not one per branch per write. Every ancestor of a dirty branch is
// dirty, which lets the flush skip clean subtrees and the marking stop at
// the first branch that is already dirty. root() and prove() are the only
// readers of branch hashes and both flush first, so no caller can observe
// a stale root; like any first read after a write they must not race with
// another thread's access to the same trie.
//
// Hash rules (docs/authenticated-state.md):
//   empty trie      root = all-zero Hash256
//   leaf            H(0x00 || key[32] || value[32])
//   internal        H(0x01 || crit_bit_be16 || left[32] || right[32])
// with H = single SHA-256. The 0x00/0x01 domain tags make leaves and
// internal nodes unforgeable as each other; committing the crit-bit index
// makes the compressed shape part of the commitment, which is what lets a
// verifier check proofs of absence (see verify_absent below).
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "crypto/hash_types.hpp"
#include "util/bytes.hpp"

namespace sc::crypto {

/// One level of a trie proof: the sibling hash at an internal node, tagged
/// with that node's crit-bit index. Steps run leaf -> root, so the bit
/// indices are strictly decreasing.
struct TrieStep {
  std::uint16_t bit = 0;
  Hash256 sibling;
};

/// Inclusion *or* absence proof. For inclusion, `leaf_key` is the queried
/// key; for absence it is the key of the leaf the query's descent path
/// terminates at (the "best match"), whose path proves the queried key has
/// no leaf of its own. An empty trie proves every key absent with no steps.
struct TrieProof {
  Hash256 leaf_key;
  Hash256 leaf_value;
  std::vector<TrieStep> steps;  ///< Leaf -> root.

  util::Bytes encode() const;
  static std::optional<TrieProof> decode(util::ByteSpan data);
};

class MerkleTrie {
 public:
  MerkleTrie() = default;

  /// Inserts or updates: one leaf hash, O(log n) dirty marks.
  void set(const Hash256& key, const Hash256& value);
  /// Removes a leaf; false (no change) if the key is absent.
  bool erase(const Hash256& key);
  std::optional<Hash256> get(const Hash256& key) const;

  /// All-zero for the empty trie. Flushes pending writes first.
  const Hash256& root() const;
  bool empty() const { return leaf_count_ == 0; }
  std::size_t leaf_count() const { return leaf_count_; }
  /// Leaves + internal nodes (the state_trie_nodes gauge).
  std::size_t node_count() const {
    return leaf_count_ + (leaf_count_ > 0 ? leaf_count_ - 1 : 0);
  }
  void clear();

  /// Proof for `key`: inclusion when present, best-match absence proof when
  /// not. Callers check which case applies via proof.leaf_key == key.
  /// Flushes pending writes first, so it verifies against the next root().
  TrieProof prove(const Hash256& key) const;

  /// Verifies that `key` -> `value` is committed under `root`.
  static bool verify_present(const Hash256& root, const Hash256& key,
                             const Hash256& value, const TrieProof& proof);
  /// Verifies that no leaf with `key` exists under `root`: the proved leaf
  /// must be a different key whose descent path `key` would follow bit for
  /// bit — in a crit-bit tree descent is deterministic, so if the path leads
  /// to someone else's leaf, `key` has no leaf anywhere.
  static bool verify_absent(const Hash256& root, const Hash256& key,
                            const TrieProof& proof);

  /// Bulk bottom-up construction: O(n log n) comparisons, exactly one hash
  /// per node (2n-1 total), returned flushed. Duplicate keys keep the last
  /// value. This is the genesis and recovery-snapshot build and the
  /// full-recompute oracle the incremental path is differentially tested
  /// (and benched) against.
  static MerkleTrie build(std::vector<std::pair<Hash256, Hash256>> leaves);

  // Exposed for tests and the chain-level commitment layer.
  static Hash256 leaf_hash(const Hash256& key, const Hash256& value);
  static Hash256 branch_hash(std::uint16_t bit, const Hash256& left,
                             const Hash256& right);
  /// Bit `i` of a key, MSB-first (bit 0 = top bit of byte 0).
  static unsigned bit_of(const Hash256& key, unsigned i) {
    return (key.bytes[i >> 3] >> (7 - (i & 7))) & 1u;
  }
  /// Index of the first differing bit; 256 when equal.
  static unsigned crit_bit(const Hash256& a, const Hash256& b);

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  static constexpr std::uint32_t kLeafTag = 0x80000000u;

  struct Leaf {
    Hash256 key;
    Hash256 value;
    Hash256 hash;
  };
  struct Branch {
    /// Subtree hash, valid while !dirty. Mutable (as is `dirty`) so that a
    /// const root()/prove() can settle pending writes.
    mutable Hash256 hash;
    std::uint32_t left = kNil;
    std::uint32_t right = kNil;
    std::uint16_t bit = 0;
    /// A write descended through this branch since the last flush. Lives in
    /// what would otherwise be tail padding.
    mutable std::uint8_t dirty = 0;
  };
  static_assert(sizeof(Branch) == sizeof(Hash256) + 12,
                "the dirty mark must not grow Branch");

  static bool is_leaf(std::uint32_t idx) { return idx & kLeafTag; }
  Leaf& leaf(std::uint32_t idx) { return leaves_[idx & ~kLeafTag]; }
  const Leaf& leaf(std::uint32_t idx) const { return leaves_[idx & ~kLeafTag]; }
  Branch& branch(std::uint32_t idx) { return branches_[idx]; }
  const Branch& branch(std::uint32_t idx) const { return branches_[idx]; }
  const Hash256& hash_of(std::uint32_t idx) const {
    return is_leaf(idx) ? leaf(idx).hash : branch(idx).hash;
  }

  std::uint32_t new_leaf(const Hash256& key, const Hash256& value);
  std::uint32_t new_branch(std::uint16_t bit, std::uint32_t left,
                           std::uint32_t right);
  void free_leaf(std::uint32_t idx) { free_leaves_.push_back(idx & ~kLeafTag); }
  void free_branch(std::uint32_t idx) { free_branches_.push_back(idx); }
  /// Marks the branches of `path` (deepest last) dirty and the root stale.
  void mark_dirty(const std::vector<std::uint32_t>& path);
  /// Hashes every dirty branch once, bottom-up, and refreshes root_hash_.
  void flush() const;
  /// Hash of the subtree at `idx`, rehashing its dirty branches first.
  const Hash256& settle(std::uint32_t idx) const;

  std::uint32_t build_range(std::vector<std::pair<Hash256, Hash256>>& kv,
                            std::size_t lo, std::size_t hi);

  std::vector<Leaf> leaves_;
  std::vector<Branch> branches_;
  std::vector<std::uint32_t> free_leaves_;
  std::vector<std::uint32_t> free_branches_;
  std::uint32_t root_ = kNil;
  mutable Hash256 root_hash_;
  /// root_hash_ lags a write (set by every set/erase, cleared by flush()).
  mutable bool stale_ = false;
  std::size_t leaf_count_ = 0;
  /// Scratch for set/erase path collection (avoids per-call allocation).
  mutable std::vector<std::uint32_t> path_;
};

}  // namespace sc::crypto
