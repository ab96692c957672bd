// Differential test of WorldState::encode, the on-disk snapshot payload and
// the basis of every byte-identity check: the contiguous-key encoder must
// write exactly the bytes of the straightforward reference below (sort
// pointers to the map's entries by address, then write field by field), and
// decode must give the state back, on seeded states that cover empty
// states, contract code, thousands of storage slots, zero balances and
// addresses that share long prefixes.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "chain/state.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace sc::chain {
namespace {

/// The reference encoder: address-sorted pointers into the account map,
/// each account written through util::Writer.
util::Bytes reference_encode(const WorldState& state) {
  std::vector<const std::pair<const Address, Account>*> sorted;
  sorted.reserve(state.accounts().size());
  for (const auto& entry : state.accounts()) sorted.push_back(&entry);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  util::Writer w;
  w.u32(static_cast<std::uint32_t>(sorted.size()));
  std::uint8_t word[32];
  for (const auto* entry : sorted) {
    const auto& [addr, acct] = *entry;
    w.raw(addr.span());
    w.u64(acct.balance);
    w.u64(acct.nonce);
    w.bytes(acct.code);
    w.u32(static_cast<std::uint32_t>(acct.storage.size()));
    for (const auto& [key, value] : acct.storage) {
      key.to_be_bytes(word);
      w.raw({word, 32});
      value.to_be_bytes(word);
      w.raw({word, 32});
    }
  }
  return std::move(w).take();
}

bool same_state(const WorldState& a, const WorldState& b) {
  if (a.account_count() != b.account_count()) return false;
  for (const auto& [addr, acct] : a.accounts()) {
    const Account* other = b.find(addr);
    if (!other || other->balance != acct.balance || other->nonce != acct.nonce ||
        other->code != acct.code || other->storage != acct.storage)
      return false;
  }
  return true;
}

Address random_address(util::Rng& rng) {
  util::Bytes bytes;
  rng.fill(bytes, Address::size());
  return Address::from_span(bytes);
}

crypto::U256 random_word(util::Rng& rng) {
  return crypto::U256(rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64());
}

/// Checks byte equality with the reference, and that decode inverts encode,
/// including through encode_to's append onto a non-empty buffer.
void expect_encodes_like_reference(const WorldState& state) {
  const util::Bytes expect = reference_encode(state);
  const util::Bytes got = state.encode();
  ASSERT_EQ(got, expect);

  util::Bytes appended = {0xAB, 0xCD};
  state.encode_to(appended);
  ASSERT_EQ(appended.size(), 2 + expect.size());
  EXPECT_TRUE(std::equal(expect.begin(), expect.end(), appended.begin() + 2));

  const auto decoded = WorldState::decode(got);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(same_state(*decoded, state));
  EXPECT_EQ(decoded->encode(), got);
}

TEST(EncodeDifferential, EmptyState) {
  expect_encodes_like_reference(WorldState{});
}

TEST(EncodeDifferential, AccountsWithCodeAndZeroBalances) {
  util::Rng rng(7);
  WorldState state;
  for (int i = 0; i < 500; ++i) {
    const Address addr = random_address(rng);
    state.set_balance(addr, i % 3 == 0 ? 0 : rng.next_u64());
    state.set_nonce(addr, rng.uniform(1000));
    if (i % 5 == 0) {
      util::Bytes code;
      rng.fill(code, 1 + rng.uniform(600));
      state.set_code(addr, std::move(code));
    }
  }
  // An account that only exists: zero balance, zero nonce, no code.
  state.touch(random_address(rng));
  expect_encodes_like_reference(state);
}

TEST(EncodeDifferential, ThousandsOfStorageSlots) {
  util::Rng rng(11);
  WorldState state;
  for (int c = 0; c < 3; ++c) {
    const Address contract = random_address(rng);
    state.set_code(contract, {0x60, 0x00, 0x00});
    for (int s = 0; s < 3000; ++s)
      state.set_storage(contract, random_word(rng), random_word(rng));
    // Small keys too, whose big-endian words are mostly zero bytes.
    for (std::uint64_t s = 0; s < 200; ++s)
      state.set_storage(contract, crypto::U256(s), crypto::U256(s + 1));
  }
  for (int i = 0; i < 100; ++i) state.set_balance(random_address(rng), rng.next_u64());
  expect_encodes_like_reference(state);
}

TEST(EncodeDifferential, AddressesSharingNineteenBytePrefixes) {
  util::Rng rng(13);
  WorldState state;
  for (int group = 0; group < 40; ++group) {
    util::Bytes prefix;
    rng.fill(prefix, Address::size());
    // Every last byte under one 19-byte prefix, in a shuffled order, plus
    // prefixes that differ only after the first eight bytes.
    std::vector<int> last(256);
    for (int b = 0; b < 256; ++b) last[b] = b;
    rng.shuffle(last);
    for (const int b : last) {
      prefix[Address::size() - 1] = static_cast<std::uint8_t>(b);
      state.set_balance(Address::from_span(prefix), static_cast<Amount>(b));
    }
    prefix[8] ^= 0x01;
    state.set_balance(Address::from_span(prefix), 1);
  }
  expect_encodes_like_reference(state);
}

TEST(EncodeDifferential, SeededRandomStates) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    WorldState state;
    const std::uint64_t accounts = rng.uniform(2000);
    std::vector<Address> addrs;
    for (std::uint64_t i = 0; i < accounts; ++i) {
      // One address in four shares all but its last byte with an earlier one.
      Address addr = random_address(rng);
      if (!addrs.empty() && rng.uniform(4) == 0) {
        addr = addrs[rng.uniform(addrs.size())];
        addr.bytes[Address::size() - 1] ^= static_cast<std::uint8_t>(1 + rng.uniform(255));
      }
      addrs.push_back(addr);
      state.set_balance(addr, rng.uniform(3) == 0 ? 0 : rng.next_u64());
      state.set_nonce(addr, rng.uniform(50));
      if (rng.uniform(10) == 0) {
        util::Bytes code;
        rng.fill(code, rng.uniform(200));
        state.set_code(addr, std::move(code));
        for (std::uint64_t s = rng.uniform(40); s > 0; --s)
          state.set_storage(addr, random_word(rng), random_word(rng));
      }
    }
    expect_encodes_like_reference(state);
  }
}

}  // namespace
}  // namespace sc::chain
