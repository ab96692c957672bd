// A fixed 10^3-entry genesis allocation list whose state root, genesis id and
// written store bytes are pinned as hex constants. The constants were taken
// from the tree that still committed genesis through StateCommitment::update
// and rebuilt the commitment on every Blockchain::open; any change to how the
// commitment is built must leave all of them byte-identical.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace sc::chain::pinned {

/// Root and id of the genesis built from allocations().
inline constexpr const char* kGenesisRoot =
    "dfaaf994b4619e509fdac307973626f7a389678ae810979a6c98cef2407c6ab6";
inline constexpr const char* kGenesisId =
    "ec873e8b9a43009554d605c11a2fd9ae3701f927e011768f87917e64948f8850";

/// SHA-256 over the store directory (StoreChain's dir_digest) after ten
/// transfer-bearing blocks on genesis(8) and a clean close.
inline constexpr const char* kStoreDigest =
    "77a7b116e584b941493e84dcfc49a0a625e42c6121ebd91a10b950adf5fa31aa";

/// Address of the `i`-th derived account: the first 20 bytes of SHA-256(i).
inline Address derived(std::uint64_t i) {
  std::uint8_t le[8];
  for (int b = 0; b < 8; ++b) le[b] = static_cast<std::uint8_t>(i >> (8 * b));
  return Address::from_span(crypto::Sha256::digest({le, sizeof(le)}).span().first(20));
}

/// The key a seeded test uses as a sender (KeyPair::generate over Rng(seed)).
inline crypto::KeyPair sender(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

/// 1000 entries over 999 accounts: 997 derived accounts (#42 endowed with
/// zero, #17 allocated a second time at the end) and the senders of seeds 1
/// and 2, so that transfer-bearing blocks can extend this genesis.
inline std::vector<std::pair<Address, Amount>> allocations() {
  std::vector<std::pair<Address, Amount>> out;
  for (std::uint64_t i = 0; i < 997; ++i)
    out.emplace_back(derived(i), i == 42 ? 0 : (i + 1) * kEther / 1000);
  out.emplace_back(sender(1).address(), 500 * kEther);
  out.emplace_back(sender(2).address(), 100 * kEther);
  out.emplace_back(derived(17), 3 * kEther);
  return out;
}

inline GenesisConfig genesis(std::uint64_t flatten_interval = 8) {
  GenesisConfig config;
  config.allocations = allocations();
  config.state_store.flatten_interval = flatten_interval;
  config.execution.threads = 1;
  return config;
}

}  // namespace sc::chain::pinned
