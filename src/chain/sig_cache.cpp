#include "chain/sig_cache.hpp"

#include "crypto/keccak.hpp"

namespace sc::chain {

Hash256 SigCache::key_of(const Transaction& tx) { return key_of(tx, tx.id()); }

Hash256 SigCache::key_of(const Transaction& tx, const Hash256& id) {
  util::Bytes material;
  material.reserve(32 + 64 + 64);
  util::append(material, id.span());
  util::append(material, crypto::secp256k1::encode_public(tx.sender_pubkey));
  util::append(material, tx.signature.encode());
  return crypto::keccak256(material);
}

bool SigCache::contains(const Hash256& key) const {
  std::lock_guard lock(mutex_);
  return keys_.contains(key);
}

void SigCache::insert(const Hash256& key) {
  std::lock_guard lock(mutex_);
  if (!keys_.insert(key).second) return;
  order_.push_back(key);
  while (keys_.size() > capacity_) {
    keys_.erase(order_.front());
    order_.pop_front();
  }
}

SigVerdict SigCache::check(const Transaction& tx) { return check(tx, key_of(tx)); }

SigVerdict SigCache::check(const Transaction& tx, const Hash256& key) {
  {
    std::lock_guard lock(mutex_);
    if (keys_.contains(key)) {
      ++hits_;
      return SigVerdict::kCacheHit;
    }
    ++misses_;
  }
  // Verify outside the lock — this is the two-scalar-mul hot spot the cache
  // exists to amortize; holding the mutex here would serialize the pool.
  if (!tx.verify_signature()) return SigVerdict::kInvalid;
  insert(key);
  return SigVerdict::kVerified;
}

std::size_t SigCache::size() const {
  std::lock_guard lock(mutex_);
  return keys_.size();
}

SigVerdict check_signature(const Transaction& tx, SigCache* cache) {
  if (cache) return cache->check(tx);
  return tx.verify_signature() ? SigVerdict::kVerified : SigVerdict::kInvalid;
}

}  // namespace sc::chain
