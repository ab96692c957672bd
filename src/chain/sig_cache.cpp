#include "chain/sig_cache.hpp"

namespace sc::chain {

bool SigCache::contains(const Hash256& id) const {
  std::lock_guard lock(mutex_);
  return ids_.contains(id);
}

void SigCache::insert(const Hash256& id) {
  std::lock_guard lock(mutex_);
  if (!ids_.insert(id).second) return;
  order_.push_back(id);
  while (ids_.size() > capacity_) {
    ids_.erase(order_.front());
    order_.pop_front();
  }
}

SigVerdict SigCache::check(const Transaction& tx, const Hash256& id) {
  {
    std::lock_guard lock(mutex_);
    if (ids_.contains(id)) {
      ++hits_;
      return SigVerdict::kCacheHit;
    }
    ++misses_;
  }
  // Verify outside the lock — this is the two-scalar-mul hot spot the cache
  // exists to amortize; holding the mutex here would serialize the pool.
  if (!tx.verify_signature()) return SigVerdict::kInvalid;
  insert(id);
  return SigVerdict::kVerified;
}

std::size_t SigCache::size() const {
  std::lock_guard lock(mutex_);
  return ids_.size();
}

SigVerdict check_signature(const Transaction& tx, const Hash256& id, SigCache* cache) {
  if (cache) return cache->check(tx, id);
  return tx.verify_signature() ? SigVerdict::kVerified : SigVerdict::kInvalid;
}

}  // namespace sc::chain
