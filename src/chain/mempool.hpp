// Mempool: pending transactions awaiting inclusion by a mining provider.
//
// Admission runs the stateless checks (signature etc.) plus an optional
// protocol gate — this is where providers plug Algorithm 1, so forged or
// tampered reports never reach a block. Selection is fee-priority with
// per-sender nonce ordering.
//
// The pool is optionally bounded (set_capacity): when full, an incoming
// transaction evicts the lowest-gas-price resident if and only if it pays
// strictly more; otherwise the newcomer is rejected. Ties break on the
// transaction id so eviction is deterministic regardless of hash-map
// iteration order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/executor.hpp"
#include "chain/state.hpp"
#include "chain/transaction.hpp"

namespace sc::telemetry {
struct Telemetry;
}

namespace sc::chain {

class SigCache;

class Mempool {
 public:
  /// Extra admission predicate (e.g. Algorithm 1 verification of protocol
  /// payloads). Return false to reject; fill `why` for diagnostics.
  using AdmissionGate = std::function<bool(const Transaction&, std::string& why)>;

  void set_gate(AdmissionGate gate) { gate_ = std::move(gate); }

  /// Shares a verified-signature cache (chain/sig_cache.hpp) with admission:
  /// a signature the node already verified — at a previous admission attempt
  /// or during block validation — is not re-verified, and a signature first
  /// verified here is not re-verified when the transaction reaches a block.
  /// Cache hits are counted in mempool_sig_cache_hits_total. Not owned; pass
  /// Blockchain::sig_cache() to share with block validation.
  void set_sig_cache(SigCache* cache) { sig_cache_ = cache; }

  /// Bounds the pool to `capacity` transactions; 0 (the default) means
  /// unbounded. Shrinking below the current size only takes effect through
  /// future admissions — existing residents are not dropped retroactively.
  void set_capacity(std::size_t capacity) { capacity_ = capacity; }
  std::size_t capacity() const { return capacity_; }
  /// Transactions evicted to make room under the capacity bound.
  std::uint64_t evictions() const { return evictions_; }

  /// Metrics sink; nullptr (default) means telemetry::global().
  void set_telemetry(telemetry::Telemetry* tel) {
    telemetry_ = tel;
    metrics_ = nullptr;
  }

  /// Validates and inserts; returns false (with reason) on rejection or dup.
  bool add(const Transaction& tx, std::string* why = nullptr);

  bool contains(const Hash256& tx_id) const { return pool_.contains(tx_id); }
  std::size_t size() const { return pool_.size(); }

  /// Picks up to `max_count` transactions executable against `state`:
  /// fee-price descending, nonces contiguous per sender, total cost covered.
  std::vector<Transaction> select(const StateView& state, std::size_t max_count) const;

  /// Drops the given transactions (after block inclusion).
  void remove(const std::vector<Transaction>& txs);
  /// Drops transactions whose nonce is already consumed in `state`.
  void prune_stale(const StateView& state);

 private:
  struct Metrics;
  /// The sink's handles, resolved at the first record: a pool that is
  /// injected after construction never touches the global sink.
  Metrics& metrics();
  enum class Reject : std::uint8_t { kInvalid, kGate, kDuplicate, kFull };
  bool reject(Reject reason, std::string* why, std::string detail);

  std::unordered_map<Hash256, Transaction> pool_;
  AdmissionGate gate_;
  std::size_t capacity_ = 0;  ///< 0 = unbounded.
  std::uint64_t evictions_ = 0;
  telemetry::Telemetry* telemetry_ = nullptr;
  Metrics* metrics_ = nullptr;
  SigCache* sig_cache_ = nullptr;  ///< Optional, not owned.
};

}  // namespace sc::chain
