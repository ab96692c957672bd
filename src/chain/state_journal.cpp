#include "chain/state_journal.hpp"

#include <algorithm>

#include "util/serialize.hpp"

namespace sc::chain {

// ---------------------------------------------------------------------------
// StateDelta

void StateDelta::apply(WorldState& state) const {
  for (const auto& [addr, change] : changes) {
    Account& acct = state.touch(addr);
    if (change.balance) acct.balance = change.balance->second;
    if (change.nonce) acct.nonce = change.nonce->second;
    if (change.code) acct.code = change.code->second;
    for (const auto& [key, slot] : change.storage)
      state.set_storage(addr, key, slot.after);
  }
}

void StateDelta::unapply(WorldState& state) const {
  for (const auto& [addr, change] : changes) {
    if (change.created) {
      state.erase_account(addr);
      continue;
    }
    Account& acct = state.touch(addr);
    if (change.balance) acct.balance = change.balance->first;
    if (change.nonce) acct.nonce = change.nonce->first;
    if (change.code) acct.code = change.code->first;
    for (const auto& [key, slot] : change.storage)
      state.set_storage(addr, key, slot.before);
  }
}

std::size_t StateDelta::approx_bytes() const {
  constexpr std::size_t kPerAccount = sizeof(Address) + sizeof(AccountChange) + 32;
  constexpr std::size_t kPerSlot = sizeof(crypto::U256) + sizeof(SlotChange) + 48;
  std::size_t total = sizeof(StateDelta);
  for (const auto& [addr, change] : changes) {
    total += kPerAccount + change.storage.size() * kPerSlot;
    if (change.code)
      total += change.code->first.size() + change.code->second.size();
  }
  return total;
}

namespace {

// Per-account field presence bits in the encoded form.
constexpr std::uint8_t kFlagCreated = 1 << 0;
constexpr std::uint8_t kFlagBalance = 1 << 1;
constexpr std::uint8_t kFlagNonce = 1 << 2;
constexpr std::uint8_t kFlagCode = 1 << 3;

}  // namespace

util::Bytes StateDelta::encode() const {
  std::vector<const std::pair<const Address, AccountChange>*> sorted;
  sorted.reserve(changes.size());
  for (const auto& entry : changes) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  util::Writer w;
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  std::uint8_t word[32];
  for (const auto* entry : sorted) {
    const auto& [addr, change] = *entry;
    w.raw(addr.span());
    std::uint8_t flags = 0;
    if (change.created) flags |= kFlagCreated;
    if (change.balance) flags |= kFlagBalance;
    if (change.nonce) flags |= kFlagNonce;
    if (change.code) flags |= kFlagCode;
    w.u8(flags);
    if (change.balance) {
      w.u64(change.balance->first);
      w.u64(change.balance->second);
    }
    if (change.nonce) {
      w.u64(change.nonce->first);
      w.u64(change.nonce->second);
    }
    if (change.code) {
      w.bytes(change.code->first);
      w.bytes(change.code->second);
    }
    w.u32(static_cast<std::uint32_t>(change.storage.size()));
    for (const auto& [key, slot] : change.storage) {
      key.to_be_bytes(word);
      w.raw({word, 32});
      slot.before.to_be_bytes(word);
      w.raw({word, 32});
      slot.after.to_be_bytes(word);
      w.raw({word, 32});
    }
  }
  return std::move(w).take();
}

std::optional<StateDelta> StateDelta::decode(util::ByteSpan data) {
  util::Reader r(data);
  const auto count = r.u32();
  if (!count) return std::nullopt;
  StateDelta delta;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto addr = r.raw(20);
    const auto flags = r.u8();
    if (!addr || !flags) return std::nullopt;
    if (*flags & ~(kFlagCreated | kFlagBalance | kFlagNonce | kFlagCode))
      return std::nullopt;
    AccountChange& change = delta.changes[Address::from_span(*addr)];
    change.created = *flags & kFlagCreated;
    if (*flags & kFlagBalance) {
      const auto before = r.u64();
      const auto after = r.u64();
      if (!before || !after) return std::nullopt;
      change.balance.emplace(*before, *after);
    }
    if (*flags & kFlagNonce) {
      const auto before = r.u64();
      const auto after = r.u64();
      if (!before || !after) return std::nullopt;
      change.nonce.emplace(*before, *after);
    }
    if (*flags & kFlagCode) {
      auto before = r.bytes_bounded(r.remaining());
      if (!before) return std::nullopt;
      auto after = r.bytes_bounded(r.remaining());
      if (!after) return std::nullopt;
      change.code.emplace(std::move(*before), std::move(*after));
    }
    const auto slots = r.u32();
    if (!slots) return std::nullopt;
    for (std::uint32_t s = 0; s < *slots; ++s) {
      const auto key = r.raw(32);
      const auto before = r.raw(32);
      const auto after = r.raw(32);
      if (!key || !before || !after) return std::nullopt;
      change.storage[crypto::U256::from_be_bytes(*key)] =
          SlotChange{crypto::U256::from_be_bytes(*before),
                     crypto::U256::from_be_bytes(*after)};
    }
  }
  if (!r.empty()) return std::nullopt;
  return delta;
}

// ---------------------------------------------------------------------------
// JournaledState

Account& JournaledState::mutable_account(const Address& addr) {
  if (!state_.find(addr)) record({.kind = OpKind::kCreate, .addr = addr});
  return state_.touch(addr);
}

void JournaledState::record(Op op) {
  ops_.push_back(std::move(op));
  if (ops_.size() > high_water_) high_water_ = ops_.size();
}

void JournaledState::add_balance(const Address& addr, Amount amount) {
  Account& acct = mutable_account(addr);
  record({.kind = OpKind::kBalance, .addr = addr, .balance = acct.balance});
  acct.balance += amount;
}

bool JournaledState::sub_balance(const Address& addr, Amount amount) {
  // Check before journaling: a failed sub_balance leaves no trace, matching
  // WorldState semantics.
  const Account* acct = state_.find(addr);
  if ((acct ? acct->balance : 0) < amount) return false;
  Account& mut = mutable_account(addr);
  record({.kind = OpKind::kBalance, .addr = addr, .balance = mut.balance});
  mut.balance -= amount;
  return true;
}

bool JournaledState::transfer(const Address& from, const Address& to, Amount amount) {
  if (!sub_balance(from, amount)) return false;
  add_balance(to, amount);
  return true;
}

void JournaledState::bump_nonce(const Address& addr) {
  Account& acct = mutable_account(addr);
  record({.kind = OpKind::kNonce, .addr = addr, .nonce = acct.nonce});
  ++acct.nonce;
}

void JournaledState::set_storage(const Address& contract, const crypto::U256& key,
                                 const crypto::U256& value) {
  (void)mutable_account(contract);  // journal first-touch creation
  record({.kind = OpKind::kStorage,
          .addr = contract,
          .key = key,
          .value = state_.get_storage(contract, key)});
  state_.set_storage(contract, key, value);
}

void JournaledState::set_code(const Address& addr, util::Bytes code) {
  Account& acct = mutable_account(addr);
  record({.kind = OpKind::kCode, .addr = addr, .code = acct.code});
  acct.code = std::move(code);
}

void JournaledState::revert_to(std::size_t mark) {
  while (ops_.size() > mark) {
    Op& op = ops_.back();
    switch (op.kind) {
      case OpKind::kCreate:
        state_.erase_account(op.addr);
        break;
      case OpKind::kBalance:
        state_.set_balance(op.addr, op.balance);
        break;
      case OpKind::kNonce:
        state_.set_nonce(op.addr, op.nonce);
        break;
      case OpKind::kCode:
        state_.set_code(op.addr, std::move(op.code));
        break;
      case OpKind::kStorage:
        state_.set_storage(op.addr, op.key, op.value);
        break;
    }
    ops_.pop_back();
  }
}

void JournaledState::commit(std::size_t mark) {
  // Inner commits keep their ops (an outer mark may still revert them); only
  // committing the outermost scope lets the journal go.
  if (mark == 0) ops_.clear();
}

StateDelta JournaledState::collect_delta() const {
  StateDelta delta;
  // First pass: earliest op per (account, field) fixes the before-value.
  for (const Op& op : ops_) {
    StateDelta::AccountChange& change = delta.changes[op.addr];
    switch (op.kind) {
      case OpKind::kCreate:
        change.created = true;
        break;
      case OpKind::kBalance:
        if (!change.balance) change.balance.emplace(op.balance, 0);
        break;
      case OpKind::kNonce:
        if (!change.nonce) change.nonce.emplace(op.nonce, 0);
        break;
      case OpKind::kCode:
        if (!change.code) change.code.emplace(op.code, util::Bytes{});
        break;
      case OpKind::kStorage:
        change.storage.try_emplace(op.key, StateDelta::SlotChange{op.value, {}});
        break;
    }
  }
  // Second pass: after-values from the current state; drop net no-ops.
  for (auto it = delta.changes.begin(); it != delta.changes.end();) {
    const Address& addr = it->first;
    StateDelta::AccountChange& change = it->second;
    if (change.balance) {
      change.balance->second = state_.balance(addr);
      if (change.balance->first == change.balance->second) change.balance.reset();
    }
    if (change.nonce) {
      change.nonce->second = state_.nonce(addr);
      if (change.nonce->first == change.nonce->second) change.nonce.reset();
    }
    if (change.code) {
      const util::ByteSpan now = state_.code(addr);
      change.code->second.assign(now.begin(), now.end());
      if (change.code->first == change.code->second) change.code.reset();
    }
    for (auto slot = change.storage.begin(); slot != change.storage.end();) {
      slot->second.after = state_.get_storage(addr, slot->first);
      if (slot->second.before == slot->second.after) {
        slot = change.storage.erase(slot);
      } else {
        ++slot;
      }
    }
    const bool net_noop = !change.created && !change.balance && !change.nonce &&
                          !change.code && change.storage.empty();
    it = net_noop ? delta.changes.erase(it) : std::next(it);
  }
  return delta;
}

}  // namespace sc::chain
