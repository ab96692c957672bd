// Light client (SPV) and difficulty retargeting tests.
#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "chain/difficulty.hpp"
#include "chain/light_client.hpp"
#include "chain/pow.hpp"
#include "util/rng.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Transaction transfer(const crypto::KeyPair& from, std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = key(404).address();
  tx.value = 1;
  tx.gas_limit = 21000;
  tx.sign_with(from);
  return tx;
}

/// Builds a full chain + matching light client fed only headers.
class LightClientTest : public ::testing::Test {
 protected:
  LightClientTest()
      : funder_(key(1)),
        chain_(GenesisConfig{{{funder_.address(), 1000 * kEther}}, 0, 1}),
        light_(chain_.block_at(0)->header) {}

  Block extend(std::vector<Transaction> txs, std::uint64_t ts = 10) {
    Block block = chain_.build_block_template(key(2).address(), ts, 1,
                                              std::move(txs));
    block.header.nonce = *mine(block.header, 10000);
    EXPECT_TRUE(chain_.submit_block(block));
    return block;
  }

  crypto::KeyPair funder_;
  Blockchain chain_;
  LightClient light_;
};

TEST_F(LightClientTest, FollowsHeaderChain) {
  for (int i = 0; i < 10; ++i) {
    const Block block = extend({});
    EXPECT_TRUE(light_.accept_header(block.header));
  }
  EXPECT_EQ(light_.best_height(), 10u);
  EXPECT_EQ(light_.best_head(), chain_.best_head());
  EXPECT_EQ(light_.header_count(), 11u);
}

TEST_F(LightClientTest, RejectsBadHeaders) {
  const Block block = extend({});
  std::string why;
  // Unknown parent.
  BlockHeader orphan = block.header;
  orphan.prev_id.bytes[0] ^= 1;
  EXPECT_FALSE(light_.accept_header(orphan, &why));
  EXPECT_EQ(why, "unknown parent");
  // Valid one accepted, duplicate rejected.
  EXPECT_TRUE(light_.accept_header(block.header));
  EXPECT_FALSE(light_.accept_header(block.header, &why));
  EXPECT_EQ(why, "duplicate header");
  // Bad PoW.
  BlockHeader fake = block.header;
  fake.height = 2;
  fake.prev_id = block.id();
  fake.difficulty = ~0ULL;
  EXPECT_FALSE(light_.accept_header(fake, &why));
  EXPECT_EQ(why, "invalid proof of work");
}

TEST_F(LightClientTest, SpvInclusionProof) {
  const Transaction tx = transfer(funder_, 0);
  const Block block = extend({tx});
  ASSERT_TRUE(light_.accept_header(block.header));
  const auto proof = block.proof_for(0);

  // Not yet confirmed: 0 blocks on top.
  EXPECT_FALSE(light_.verify_inclusion(tx.id(), block.id(), proof));
  // Accept 6 more headers → confirmed.
  for (int i = 0; i < 6; ++i)
    ASSERT_TRUE(light_.accept_header(extend({}).header));
  EXPECT_TRUE(light_.verify_inclusion(tx.id(), block.id(), proof));

  // A different transaction id fails against the same proof.
  crypto::Hash256 other = tx.id();
  other.bytes[0] ^= 1;
  EXPECT_FALSE(light_.verify_inclusion(other, block.id(), proof));
  // Tampered proof fails.
  auto bad = proof;
  if (!bad.empty()) {
    bad[0].sibling.bytes[0] ^= 1;
    EXPECT_FALSE(light_.verify_inclusion(tx.id(), block.id(), bad));
  }
}

TEST_F(LightClientTest, ForkChoiceMatchesFullNode) {
  // Extend 2 cheap blocks, then feed a heavier fork from genesis.
  const Block b1 = extend({});
  const Block b2 = extend({});
  ASSERT_TRUE(light_.accept_header(b1.header));
  ASSERT_TRUE(light_.accept_header(b2.header));

  BlockHeader fork;
  fork.height = 1;
  fork.prev_id = chain_.genesis_id();
  fork.timestamp = 20;
  fork.difficulty = 16;
  fork.miner = key(3).address();
  Block fork_block;
  fork_block.header = fork;
  fork_block.seal_merkle_root();
  // state_root is part of the PoW preimage: seal it before grinding.
  ASSERT_TRUE(chain_.seal_state_root(fork_block));
  fork_block.header.nonce = *mine(fork_block.header, 1'000'000);
  ASSERT_TRUE(chain_.submit_block(fork_block));
  ASSERT_TRUE(light_.accept_header(fork_block.header));

  EXPECT_EQ(light_.best_head(), chain_.best_head());
  EXPECT_EQ(light_.best_height(), 1u);
  // Old branch no longer canonical: confirmations revoked.
  EXPECT_FALSE(light_.is_confirmed(b1.id(), 0));
}

TEST_F(LightClientTest, HeaderAtCanonicalHeight) {
  const Block b1 = extend({});
  ASSERT_TRUE(light_.accept_header(b1.header));
  const auto header = light_.header_at(1);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->id(), b1.id());
  EXPECT_FALSE(light_.header_at(2).has_value());
}

TEST(Difficulty, PerBlockAdjustmentDirection) {
  RetargetConfig config;
  config.target_block_time = 15.0;
  // Fast child (5 s) → difficulty rises.
  EXPECT_GT(adjust_per_block(100000, 0, 5, config), 100000u);
  // Slow child (60 s) → difficulty falls.
  EXPECT_LT(adjust_per_block(100000, 0, 60, config), 100000u);
  // Never below the floor.
  EXPECT_GE(adjust_per_block(2, 0, 100000, config), config.min_difficulty);
}

TEST(Difficulty, PerBlockConvergesTowardTarget) {
  // Closed-loop simulation: block production rate follows difficulty; the
  // controller should settle near the target interval.
  RetargetConfig config;
  config.target_block_time = 15.0;
  util::Rng rng(33);
  const double hash_rate = 10000.0;      // attempts per second
  std::uint64_t difficulty = 100'000;    // too easy: equilibrium is 150'000
  std::uint64_t ts = 0;
  double total_dt = 0.0;
  int counted = 0;
  for (int i = 0; i < 4000; ++i) {
    const double dt = rng.exponential(static_cast<double>(difficulty) / hash_rate);
    const std::uint64_t child_ts = ts + static_cast<std::uint64_t>(dt + 0.5);
    difficulty = adjust_per_block(difficulty, ts, child_ts, config);
    ts = child_ts;
    if (i >= 3000) {  // measure after convergence
      total_dt += dt;
      ++counted;
    }
  }
  EXPECT_NEAR(total_dt / counted, 15.0, 4.0);
}

}  // namespace
}  // namespace sc::chain
