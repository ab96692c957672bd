// Bounded cache of already-verified transaction signatures.
//
// A transaction's signature is verified at mempool admission, again by the
// per-transaction structural check during block validation, and (before this
// cache) once more by the executor — three ECDSA verifications for one tx,
// each costing two scalar multiplications. The cache remembers "the tx with
// this id verified" so each signature is checked once per process, the
// bitcoind sigcache technique.
//
// The key is the tx id itself: Transaction::id() hashes the full signed
// encoding, so a forged signature over a known body has its own id and can
// never inherit a hit earned by the genuine transaction.
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

  bool contains(const Hash256& id) const;
  /// Marks a tx id as verified (evicting the oldest entry when full).
  void insert(const Hash256& id);

  /// Checks the cache for `id` (== tx.id()), falling back to a full
  /// verification on miss; a fresh success is inserted so every later check
  /// of the same transaction hits.
  SigVerdict check(const Transaction& tx, const Hash256& id);

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
  std::unordered_set<Hash256> ids_;
  std::deque<Hash256> order_;  ///< FIFO eviction queue, parallel to ids_.
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Cache-aware signature check (`id` == tx.id()); a nullptr cache degrades
/// to a plain verification (kVerified / kInvalid).
SigVerdict check_signature(const Transaction& tx, const Hash256& id, SigCache* cache);

}  // namespace sc::chain
