// chain_state_cache_{hit,miss}_total: state_of must count a hit when a
// lookup is served from a retained snapshot or a cached materialization, and
// a miss when it has to replay deltas from an ancestor snapshot.
#include <gtest/gtest.h>

#include <vector>

#include "chain/blockchain.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace sc::chain {
namespace {

constexpr const char* kHitHelp =
    "state_of lookups served by a retained snapshot or cached materialization";
constexpr const char* kMissHelp =
    "state_of lookups that had to materialize from an ancestor snapshot by "
    "delta replay";

Block empty_block(Blockchain& chain, const Hash256& parent,
                  std::uint64_t height, const Address& miner) {
  Block block;
  block.header.height = height;
  block.header.prev_id = parent;
  block.header.timestamp = height * 10;
  block.header.difficulty = 1;
  block.header.miner = miner;
  block.seal_merkle_root();
  EXPECT_TRUE(chain.seal_state_root(block));
  return block;
}

TEST(StateCacheCounters, HitAndMissAccounting) {
  util::Rng rng(9);
  const auto alice = crypto::KeyPair::generate(rng);
  const auto miner = crypto::KeyPair::generate(rng);
  GenesisConfig genesis{{{alice.address(), 10 * kEther}}, 0, 1};
  genesis.state_store.flatten_interval = 16;

  telemetry::Telemetry tel;
  Blockchain chain(genesis, &tel);
  auto& hits = tel.registry.counter("chain_state_cache_hit_total", kHitHelp);
  auto& misses = tel.registry.counter("chain_state_cache_miss_total", kMissHelp);

  std::vector<Hash256> ids{chain.genesis_id()};
  for (std::uint64_t h = 1; h <= 20; ++h) {
    Block block = empty_block(chain, ids.back(), h, miner.address());
    std::string why;
    ASSERT_TRUE(chain.submit_block(block, &why, true)) << why;
    ids.push_back(block.id());
  }
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(misses.value(), 0u);

  // Height 16 sits on a flatten boundary: retained snapshot -> hit.
  ASSERT_NE(chain.state_of(ids[16]), nullptr);
  EXPECT_EQ(hits.value(), 1u);
  EXPECT_EQ(misses.value(), 0u);

  // Height 5 has no snapshot: first lookup materializes (miss), second is
  // served from the cache (hit).
  ASSERT_NE(chain.state_of(ids[5]), nullptr);
  EXPECT_EQ(hits.value(), 1u);
  EXPECT_EQ(misses.value(), 1u);
  ASSERT_NE(chain.state_of(ids[5]), nullptr);
  EXPECT_EQ(hits.value(), 2u);
  EXPECT_EQ(misses.value(), 1u);

  // Eight more materializations (heights 6..13) evict height 5 from the
  // 8-entry cache; looking it up again is a miss again.
  for (std::uint64_t h = 6; h <= 13; ++h) ASSERT_NE(chain.state_of(ids[h]), nullptr);
  EXPECT_EQ(misses.value(), 9u);
  ASSERT_NE(chain.state_of(ids[5]), nullptr);
  EXPECT_EQ(misses.value(), 10u);
  EXPECT_EQ(hits.value(), 2u);

  // Unknown block: neither counter moves.
  Hash256 unknown;
  unknown.bytes.fill(0xEE);
  EXPECT_EQ(chain.state_of(unknown), nullptr);
  EXPECT_EQ(hits.value(), 2u);
  EXPECT_EQ(misses.value(), 10u);

  // prune_state_cache drops cached materializations: hit turns into miss.
  ASSERT_NE(chain.state_of(ids[5]), nullptr);
  EXPECT_EQ(hits.value(), 3u);
  chain.prune_state_cache();
  ASSERT_NE(chain.state_of(ids[5]), nullptr);
  EXPECT_EQ(misses.value(), 11u);
}

}  // namespace
}  // namespace sc::chain
