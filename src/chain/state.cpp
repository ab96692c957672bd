#include "chain/state.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/sha256.hpp"
#include "util/serialize.hpp"

namespace sc::chain {

const Account* WorldState::find(const Address& addr) const {
  const auto it = accounts_.find(addr);
  return it == accounts_.end() ? nullptr : &it->second;
}

Account& WorldState::touch(const Address& addr) { return accounts_[addr]; }

void WorldState::add_balance(const Address& addr, Amount amount) {
  touch(addr).balance += amount;
}

bool WorldState::sub_balance(const Address& addr, Amount amount) {
  Account& acct = touch(addr);
  if (acct.balance < amount) return false;
  acct.balance -= amount;
  return true;
}

bool WorldState::transfer(const Address& from, const Address& to, Amount amount) {
  if (!sub_balance(from, amount)) return false;
  add_balance(to, amount);
  return true;
}

void WorldState::set_storage(const Address& contract, const crypto::U256& key,
                             const crypto::U256& value) {
  Account& acct = touch(contract);
  if (value.is_zero()) {
    acct.storage.erase(key);
  } else {
    acct.storage[key] = value;
  }
}

Amount WorldState::total_supply() const {
  Amount total = 0;
  for (const auto& [addr, acct] : accounts_) total += acct.balance;
  return total;
}

std::size_t WorldState::approx_bytes() const {
  // Per-account fixed cost (key + Account header + hash-map node overhead)
  // plus dynamic payloads: code bytes and 2x32-byte storage slots with tree
  // node overhead. An estimate, not an allocator audit — it only needs to be
  // deterministic and proportional.
  constexpr std::size_t kPerAccount = sizeof(Address) + sizeof(Account) + 32;
  constexpr std::size_t kPerSlot = 2 * 32 + 48;
  std::size_t total = sizeof(WorldState);
  for (const auto& [addr, acct] : accounts_) {
    total += kPerAccount + acct.code.size() + acct.storage.size() * kPerSlot;
  }
  return total;
}

namespace {

/// One account in encode order: the big-endian first eight bytes of its
/// address, which order almost every pair on their own, and its map entry.
struct EncodeKey {
  std::uint64_t prefix;
  const std::pair<const Address, Account>* entry;

  bool operator<(const EncodeKey& other) const {
    if (prefix != other.prefix) return prefix < other.prefix;
    return std::memcmp(entry->first.bytes.data(), other.entry->first.bytes.data(),
                       Address::size()) < 0;
  }
};

std::uint8_t* put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

std::uint8_t* put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  return p;
}

}  // namespace

void WorldState::encode_to(util::Bytes& out) const {
  // Address order makes the encoding independent of unordered_map history;
  // storage is a std::map, already key-ordered. The sort runs over one
  // contiguous array of 16-byte keys that carry each address's first eight
  // bytes, so a comparison rarely leaves the array (bare pointers into
  // hash-map nodes missed the cache on every one), and the exact size is
  // summed while gathering, so `out` grows once.
  std::vector<EncodeKey> keys(accounts_.size());
  EncodeKey* next = keys.data();
  std::size_t size = 4;
  for (const auto& entry : accounts_) {
    const Account& acct = entry.second;
    *next++ = {entry.first.prefix_u64(), &entry};
    size += Address::size() + 8 + 8 + 4 + acct.code.size() + 4 +
            acct.storage.size() * 64;
  }
  std::sort(keys.begin(), keys.end());

  const std::size_t start = out.size();
  out.resize(start + size);
  std::uint8_t* p = put_u32(out.data() + start, static_cast<std::uint32_t>(keys.size()));
  for (const EncodeKey& key : keys) {
    const auto& [addr, acct] = *key.entry;
    std::memcpy(p, addr.bytes.data(), Address::size());
    p = put_u64(p + Address::size(), acct.balance);
    p = put_u64(p, acct.nonce);
    p = put_u32(p, static_cast<std::uint32_t>(acct.code.size()));
    if (!acct.code.empty()) std::memcpy(p, acct.code.data(), acct.code.size());
    p = put_u32(p + acct.code.size(), static_cast<std::uint32_t>(acct.storage.size()));
    for (const auto& [slot, value] : acct.storage) {
      slot.to_be_bytes(p);
      value.to_be_bytes(p + 32);
      p += 64;
    }
  }
}

util::Bytes WorldState::encode() const {
  util::Bytes out;
  encode_to(out);
  return out;
}

std::optional<WorldState> WorldState::decode(util::ByteSpan data) {
  util::Reader r(data);
  const auto count = r.u32();
  if (!count) return std::nullopt;
  WorldState state;
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto addr = r.raw(20);
    const auto balance = r.u64();
    const auto nonce = r.u64();
    auto code = r.bytes_bounded(r.remaining());
    const auto slots = r.u32();
    if (!addr || !balance || !nonce || !code || !slots) return std::nullopt;
    Account& acct = state.touch(Address::from_span(*addr));
    acct.balance = *balance;
    acct.nonce = *nonce;
    acct.code = std::move(*code);
    for (std::uint32_t s = 0; s < *slots; ++s) {
      const auto key = r.raw(32);
      const auto value = r.raw(32);
      if (!key || !value) return std::nullopt;
      const crypto::U256 v = crypto::U256::from_be_bytes(*value);
      if (v.is_zero()) return std::nullopt;  // zero slots are never encoded
      acct.storage[crypto::U256::from_be_bytes(*key)] = v;
    }
  }
  if (!r.empty()) return std::nullopt;
  return state;
}

Hash256 WorldState::digest() const { return crypto::Sha256::digest(encode()); }

}  // namespace sc::chain
