#include "chain/parallel_executor.hpp"

#include <atomic>

#include "chain/exec_core.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace sc::chain {

// ---------------------------------------------------------------------------
// SpecWrites

void SpecWrites::collect_addresses(ReadSet& into) const {
  for (const auto& [addr, v] : balances) into.insert(addr);
  for (const auto& [addr, v] : nonces) into.insert(addr);
  for (const auto& [addr, v] : codes) into.insert(addr);
  for (const auto& [addr, v] : storage) into.insert(addr);
}

void SpecWrites::replay(JournaledState& state) const {
  // Field order is irrelevant: the delta collector nets per (account, field)
  // and every before-value is read from the live state at replay time.
  for (const auto& [addr, value] : balances) state.set_balance(addr, value);
  for (const auto& [addr, value] : nonces) state.set_nonce(addr, value);
  for (const auto& [addr, code] : codes) state.set_code(addr, code);
  for (const auto& [addr, slots] : storage)
    for (const auto& [key, value] : slots) state.set_storage(addr, key, value);
}

// ---------------------------------------------------------------------------
// SpecState

Amount SpecState::balance(const Address& addr) const {
  note_read(addr);
  const auto it = writes_.balances.find(addr);
  return it != writes_.balances.end() ? it->second : base_.balance(addr);
}

std::uint64_t SpecState::nonce(const Address& addr) const {
  note_read(addr);
  const auto it = writes_.nonces.find(addr);
  return it != writes_.nonces.end() ? it->second : base_.nonce(addr);
}

util::ByteSpan SpecState::code(const Address& addr) const {
  note_read(addr);
  const auto it = writes_.codes.find(addr);
  // unordered_map guarantees reference stability, so the span stays valid
  // across later overlay inserts (the VM reads deployed code through this).
  return it != writes_.codes.end() ? util::ByteSpan{it->second} : base_.code(addr);
}

crypto::U256 SpecState::get_storage(const Address& contract,
                                    const crypto::U256& key) const {
  note_read(contract);
  const auto acct = writes_.storage.find(contract);
  if (acct != writes_.storage.end()) {
    const auto slot = acct->second.find(key);
    if (slot != acct->second.end()) return slot->second;
  }
  return base_.get_storage(contract, key);
}

void SpecState::add_balance(const Address& addr, Amount amount) {
  const Amount current = balance(addr);
  const auto it = writes_.balances.find(addr);
  ops_.push_back({.kind = OpKind::kBalance,
                  .addr = addr,
                  .had_prior = it != writes_.balances.end(),
                  .balance = it != writes_.balances.end() ? it->second : 0});
  writes_.balances[addr] = current + amount;
}

bool SpecState::sub_balance(const Address& addr, Amount amount) {
  // Check before journaling: a failed sub_balance leaves no trace, matching
  // WorldState/JournaledState semantics.
  const Amount current = balance(addr);
  if (current < amount) return false;
  const auto it = writes_.balances.find(addr);
  ops_.push_back({.kind = OpKind::kBalance,
                  .addr = addr,
                  .had_prior = it != writes_.balances.end(),
                  .balance = it != writes_.balances.end() ? it->second : 0});
  writes_.balances[addr] = current - amount;
  return true;
}

bool SpecState::transfer(const Address& from, const Address& to, Amount amount) {
  if (!sub_balance(from, amount)) return false;
  add_balance(to, amount);
  return true;
}

void SpecState::bump_nonce(const Address& addr) {
  const std::uint64_t current = nonce(addr);
  const auto it = writes_.nonces.find(addr);
  ops_.push_back({.kind = OpKind::kNonce,
                  .addr = addr,
                  .had_prior = it != writes_.nonces.end(),
                  .nonce = it != writes_.nonces.end() ? it->second : 0});
  writes_.nonces[addr] = current + 1;
}

void SpecState::set_storage(const Address& contract, const crypto::U256& key,
                            const crypto::U256& value) {
  // The overlay stores zeros explicitly — "this tx erased the slot" must
  // shadow a non-zero base value and must replay as an erase.
  auto& slots = writes_.storage[contract];
  const auto slot = slots.find(key);
  ops_.push_back({.kind = OpKind::kStorage,
                  .addr = contract,
                  .had_prior = slot != slots.end(),
                  .key = key,
                  .value = slot != slots.end() ? slot->second : crypto::U256{}});
  slots[key] = value;
}

void SpecState::set_code(const Address& addr, util::Bytes code) {
  const auto it = writes_.codes.find(addr);
  Op op{.kind = OpKind::kCode, .addr = addr, .had_prior = it != writes_.codes.end()};
  if (it != writes_.codes.end()) op.code = it->second;
  ops_.push_back(std::move(op));
  writes_.codes[addr] = std::move(code);
}

void SpecState::revert_to(std::size_t mark) {
  while (ops_.size() > mark) {
    Op& op = ops_.back();
    switch (op.kind) {
      case OpKind::kBalance:
        if (op.had_prior) {
          writes_.balances[op.addr] = op.balance;
        } else {
          writes_.balances.erase(op.addr);
        }
        break;
      case OpKind::kNonce:
        if (op.had_prior) {
          writes_.nonces[op.addr] = op.nonce;
        } else {
          writes_.nonces.erase(op.addr);
        }
        break;
      case OpKind::kCode:
        if (op.had_prior) {
          writes_.codes[op.addr] = std::move(op.code);
        } else {
          writes_.codes.erase(op.addr);
        }
        break;
      case OpKind::kStorage: {
        auto& slots = writes_.storage[op.addr];
        if (op.had_prior) {
          slots[op.key] = op.value;
        } else {
          slots.erase(op.key);
          // Drop an emptied slot map so the account does not linger in the
          // write set (collect_addresses would otherwise flag it).
          if (slots.empty()) writes_.storage.erase(op.addr);
        }
        break;
      }
    }
    ops_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Parallel block application

std::vector<Receipt> apply_block_body_parallel(
    JournaledState& state, const BlockEnv& env,
    const std::vector<Transaction>& txs, Amount block_reward,
    util::ThreadPool& pool, telemetry::Telemetry* tel, SigCache* sig_cache) {
  auto& metrics = telemetry::resolve(tel).handles<detail::ExecMetrics>();
  const std::size_t n = txs.size();

  // Phase 1 — speculation wave. Every transaction executes against the
  // *parent* state (the journal's underlying WorldState, which no lane
  // mutates during this phase), buffering writes and recording reads in a
  // private SpecState. Lanes claim transactions through a shared counter;
  // each outcome slot is written by exactly one lane.
  struct SpecOutcome {
    Receipt receipt;
    ReadSet reads;
    SpecWrites writes;
  };
  std::vector<SpecOutcome> outcomes(n);
  if (n > 0) {
    const StateView& base = state.underlying();
    std::atomic<std::size_t> next{0};
    const unsigned lanes = static_cast<unsigned>(
        std::min<std::size_t>(pool.size() + 1, n));
    pool.for_shards(lanes, [&](unsigned) {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        SpecState spec(base);
        std::size_t depth = 0;
        SpecOutcome& out = outcomes[i];
        out.receipt =
            detail::execute_transaction(spec, env, txs[i], tel, depth, sig_cache);
        out.reads = spec.take_reads();
        out.writes = spec.take_writes();
      }
    });
  }

  // Phase 2 — canonical-order validation and commit. A speculative result
  // stands iff nothing it read was written by an earlier transaction of this
  // block; otherwise the transaction re-executes on the live journal, which
  // already holds the committed prefix and is therefore always correct.
  std::vector<Receipt> receipts;
  receipts.reserve(n);
  ReadSet committed_writes;
  Amount fees = 0;
  std::uint64_t conflicts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    SpecOutcome& out = outcomes[i];
    bool conflict = false;
    for (const Address& addr : out.reads) {
      if (committed_writes.contains(addr)) {
        conflict = true;
        break;
      }
    }
    if (!conflict) {
      out.writes.replay(state);
      out.writes.collect_addresses(committed_writes);
      receipts.push_back(std::move(out.receipt));
    } else {
      ++conflicts;
      const std::size_t tx_mark = state.mark();
      std::size_t depth = 0;
      receipts.push_back(
          detail::execute_transaction(state, env, txs[i], tel, depth, sig_cache));
      for (const Address& addr : state.touched_since(tx_mark))
        committed_writes.insert(addr);
    }
    const Receipt& receipt = receipts.back();
    fees += receipt.fee_paid;
    metrics.record(receipt);
  }
  // Miner income: new issuance χ·ν plus the transaction fees ψ·ω (Eq. 8).
  state.add_balance(env.miner, block_reward + fees);

  metrics.speculated.add(n);
  metrics.conflicts.add(conflicts);
  metrics.reexecuted.add(conflicts);
  return receipts;
}

}  // namespace sc::chain
