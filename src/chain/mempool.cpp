#include "chain/mempool.hpp"

#include <algorithm>
#include <map>

#include "chain/sig_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace sc::chain {

struct Mempool::Metrics {
  static constexpr std::string_view kReasons[] = {"invalid", "gate", "duplicate", "full"};
  telemetry::Registry& r;
  telemetry::CounterVec<4> rejected{  // By Reject.
      r, "mempool_rejected_total", "Transactions refused admission, by reason", "reason",
      [](std::size_t i) { return kReasons[i]; }};
  telemetry::Gauge& depth = r.gauge("mempool_depth", "Pending transactions in the pool");
  telemetry::Counter& sig_cache_hits =
      r.counter("mempool_sig_cache_hits_total",
                "Admission signature checks satisfied by the verified-tx cache");
  telemetry::Counter& evictions = r.counter(
      "mempool_evictions_total", "Residents evicted for a higher-paying transaction");
  telemetry::Counter& admitted =
      r.counter("mempool_admitted_total", "Transactions admitted to the pool");
};

Mempool::Metrics& Mempool::metrics() {
  if (!metrics_) metrics_ = &telemetry::resolve(telemetry_).handles<Metrics>();
  return *metrics_;
}

bool Mempool::reject(Reject reason, std::string* why, std::string detail) {
  if (why) *why = std::move(detail);
  metrics().rejected[reason].inc();
  return false;
}

bool Mempool::add(const Transaction& tx, std::string* why) {
  // One hash serves the signature cache and the pool's dedup key.
  const Hash256 id = tx.id();
  std::string reason;
  SigVerdict sig_verdict = SigVerdict::kVerified;
  if (!validate_transaction(tx, id, sig_cache_, &reason, &sig_verdict))
    return reject(Reject::kInvalid, why, reason);
  if (sig_verdict == SigVerdict::kCacheHit) metrics().sig_cache_hits.inc();
  if (gate_ && !gate_(tx, reason))
    return reject(Reject::kGate, why,
                  reason.empty() ? "rejected by admission gate" : reason);
  if (pool_.contains(id)) return reject(Reject::kDuplicate, why, "duplicate");

  if (capacity_ != 0 && pool_.size() >= capacity_) {
    // Evict the lowest-paying resident, with the transaction id as a
    // deterministic tie-break — but only if the newcomer pays strictly more.
    auto victim = pool_.end();
    for (auto it = pool_.begin(); it != pool_.end(); ++it) {
      if (victim == pool_.end() ||
          it->second.gas_price < victim->second.gas_price ||
          (it->second.gas_price == victim->second.gas_price &&
           it->first < victim->first))
        victim = it;
    }
    if (victim == pool_.end() || tx.gas_price <= victim->second.gas_price)
      return reject(Reject::kFull, why, "mempool full");
    pool_.erase(victim);
    ++evictions_;
    metrics().evictions.inc();
  }

  pool_.emplace(id, tx);
  metrics().admitted.inc();
  metrics().depth.set(static_cast<double>(pool_.size()));
  return true;
}

std::vector<Transaction> Mempool::select(const StateView& state,
                                         std::size_t max_count) const {
  // Group by sender, order each group by nonce, then greedily pick the
  // highest-gas-price executable transaction across senders.
  std::map<Address, std::vector<const Transaction*>> by_sender;
  for (const auto& [id, tx] : pool_) by_sender[tx.sender()].push_back(&tx);
  for (auto& [sender, txs] : by_sender)
    std::sort(txs.begin(), txs.end(),
              [](const Transaction* a, const Transaction* b) { return a->nonce < b->nonce; });

  struct Cursor {
    std::vector<const Transaction*>* queue;
    std::size_t next = 0;
    std::uint64_t expected_nonce = 0;
    Amount budget = 0;
  };
  std::vector<Cursor> cursors;
  for (auto& [sender, txs] : by_sender)
    cursors.push_back({&txs, 0, state.nonce(sender), state.balance(sender)});

  std::vector<Transaction> picked;
  while (picked.size() < max_count) {
    Cursor* best = nullptr;
    for (Cursor& c : cursors) {
      if (c.next >= c.queue->size()) continue;
      const Transaction* tx = (*c.queue)[c.next];
      if (tx->nonce != c.expected_nonce) continue;  // gap: later nonces stall
      if (tx->max_cost() > c.budget) continue;
      if (!best || tx->gas_price > (*best->queue)[best->next]->gas_price) best = &c;
    }
    if (!best) break;
    const Transaction* chosen = (*best->queue)[best->next];
    picked.push_back(*chosen);
    ++best->next;
    ++best->expected_nonce;
    best->budget -= chosen->max_cost();
  }
  return picked;
}

void Mempool::remove(const std::vector<Transaction>& txs) {
  for (const auto& tx : txs) pool_.erase(tx.id());
  metrics().depth.set(static_cast<double>(pool_.size()));
}

void Mempool::prune_stale(const StateView& state) {
  std::erase_if(pool_, [&](const auto& entry) {
    return entry.second.nonce < state.nonce(entry.second.sender());
  });
  metrics().depth.set(static_cast<double>(pool_.size()));
}

}  // namespace sc::chain
