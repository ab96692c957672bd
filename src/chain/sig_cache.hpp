// Bounded cache of already-verified transaction signatures.
//
// A transaction's signature is verified at mempool admission, again by the
// per-transaction structural check during block validation, and (before this
// cache) once more by the executor — three ECDSA verifications for one tx,
// each costing two scalar multiplications. The cache remembers "this exact
// (tx id, pubkey, signature) triple verified" so each signature is checked
// once per process, the bitcoind sigcache technique.
//
// The key commits to the *whole* triple, not just the tx id: the id hashes
// only the signed body, so a forged signature over a known body must not
// inherit a cache hit earned by the genuine one.
//
// Thread-safe (mutex around the set; the expensive verification itself runs
// outside the lock) and bounded: insertion beyond capacity evicts in FIFO
// order, which is deterministic — important for the metrics determinism gate.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "chain/transaction.hpp"

namespace sc::chain {

/// How a signature check was satisfied.
enum class SigVerdict : std::uint8_t {
  kCacheHit,   ///< Previously verified; no ECDSA work done.
  kVerified,   ///< Freshly verified OK (and now cached).
  kInvalid,    ///< Verification failed.
};

class SigCache {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit SigCache(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  SigCache(const SigCache&) = delete;
  SigCache& operator=(const SigCache&) = delete;

  /// Cache key: keccak(tx id || pubkey || signature).
  static Hash256 key_of(const Transaction& tx);
  /// Same key from an already-computed `id` (== tx.id()).
  static Hash256 key_of(const Transaction& tx, const Hash256& id);

  bool contains(const Hash256& key) const;
  /// Marks a key as verified (evicting the oldest entry when full).
  void insert(const Hash256& key);

  /// Checks the cache, falling back to a full verification on miss; a fresh
  /// success is inserted so every later check of the same triple hits.
  SigVerdict check(const Transaction& tx);
  /// Same check with the key already computed (== key_of(tx)).
  SigVerdict check(const Transaction& tx, const Hash256& key);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const {
    std::lock_guard lock(mutex_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard lock(mutex_);
    return misses_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_set<Hash256> keys_;
  std::deque<Hash256> order_;  ///< FIFO eviction queue, parallel to keys_.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Cache-aware signature check; a nullptr cache degrades to a plain
/// verification (kVerified / kInvalid).
SigVerdict check_signature(const Transaction& tx, SigCache* cache);

}  // namespace sc::chain
