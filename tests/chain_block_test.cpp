// Block structure, PoW, mempool and blockchain fork-choice tests.
#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "chain/pow.hpp"
#include "util/rng.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Transaction transfer(const crypto::KeyPair& from, const Address& to, Amount value,
                     std::uint64_t nonce = 0, Amount gas_price = kDefaultGasPrice) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = 21000;
  tx.gas_price = gas_price;
  tx.sign_with(from);
  return tx;
}

TEST(Pow, TargetScalesInverselyWithDifficulty) {
  EXPECT_EQ(target_from_difficulty(1), crypto::U256::max_value());
  EXPECT_GT(target_from_difficulty(100), target_from_difficulty(1000));
}

TEST(Pow, MiningFindsValidNonce) {
  BlockHeader header;
  header.height = 1;
  header.difficulty = 16;  // tiny: a handful of attempts
  const auto nonce = mine(header, 100000);
  ASSERT_TRUE(nonce.has_value());
  header.nonce = *nonce;
  EXPECT_TRUE(check_pow(header));
}

TEST(Pow, HardDifficultyFailsWithinBudget) {
  BlockHeader header;
  header.difficulty = ~0ULL;  // astronomically hard
  EXPECT_FALSE(mine(header, 10).has_value());
}

TEST(Pow, DifficultyOneAlwaysPasses) {
  BlockHeader header;
  header.difficulty = 1;
  EXPECT_TRUE(check_pow(header));
}

TEST(Block, HeaderWireLayoutPinned) {
  // Hard numbers on purpose, not the symbolic constants: the v2 store
  // format, the PoW nonce-patching hot path (chain/pow.hpp tail layout) and
  // cross-version wire compatibility all depend on EXACTLY these offsets.
  // If this test fails you changed the header wire layout — bump the store
  // format version and revisit PowScratch before touching these numbers.
  EXPECT_EQ(BlockHeader::kSerializedSize, 148u);
  EXPECT_EQ(BlockHeader::kNonceOffset, 88u);

  // state_root must survive the codec and feed the header id.
  util::Rng rng(0x51a7e);
  BlockHeader h;
  h.height = 7;
  h.timestamp = 70;
  h.difficulty = 3;
  h.nonce = 0x0123456789abcdefULL;
  h.miner = key(5).address();
  for (auto& b : h.state_root.bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  const util::Bytes wire = h.serialize();
  ASSERT_EQ(wire.size(), 148u);
  const auto back = BlockHeader::deserialize(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->state_root, h.state_root);
  EXPECT_EQ(back->id(), h.id());

  BlockHeader other = h;
  other.state_root.bytes[31] ^= 1;
  EXPECT_NE(other.id(), h.id());

  // A pre-state-root (116-byte) header payload must fail to decode, not
  // silently read garbage.
  util::Bytes legacy(wire.begin(), wire.begin() + 116);
  EXPECT_FALSE(BlockHeader::deserialize(legacy).has_value());
}

TEST(Block, MerkleSealAndConsistency) {
  Block block;
  block.transactions.push_back(transfer(key(1), key(2).address(), 5));
  EXPECT_FALSE(block.merkle_consistent());
  block.seal_merkle_root();
  EXPECT_TRUE(block.merkle_consistent());
  block.transactions.push_back(transfer(key(1), key(2).address(), 6, 1));
  EXPECT_FALSE(block.merkle_consistent());
}

TEST(Block, InclusionProofVerifies) {
  Block block;
  for (std::uint64_t i = 0; i < 5; ++i)
    block.transactions.push_back(transfer(key(1), key(2).address(), i + 1, i));
  block.seal_merkle_root();
  for (std::size_t i = 0; i < 5; ++i) {
    const auto proof = block.proof_for(i);
    EXPECT_TRUE(crypto::merkle_verify(block.transactions[i].id(), proof,
                                      block.header.merkle_root));
  }
}

TEST(Block, HeaderIdCommitsToAllFields) {
  BlockHeader h;
  h.height = 3;
  const Hash256 base = h.id();
  auto mutate = h;
  mutate.nonce = 1;
  EXPECT_NE(mutate.id(), base);
  mutate = h;
  mutate.timestamp = 99;
  EXPECT_NE(mutate.id(), base);
  mutate = h;
  mutate.miner.bytes[0] = 1;
  EXPECT_NE(mutate.id(), base);
}

class BlockchainTest : public ::testing::Test {
 protected:
  BlockchainTest()
      : alice_(key(10)),
        bob_(key(11)),
        miner_(key(12)),
        chain_(GenesisConfig{{{alice_.address(), 100 * kEther}}, 0, 1}) {}

  /// Mines and submits a block with the given txs on the best head.
  Block extend(std::vector<Transaction> txs, std::uint64_t timestamp = 10) {
    Block block = chain_.build_block_template(miner_.address(), timestamp, 1,
                                              std::move(txs));
    const auto nonce = mine(block.header, 1000);
    block.header.nonce = *nonce;
    std::string why;
    EXPECT_TRUE(chain_.submit_block(block, &why)) << why;
    return block;
  }

  crypto::KeyPair alice_, bob_, miner_;
  Blockchain chain_;
};

TEST_F(BlockchainTest, GenesisAllocations) {
  EXPECT_EQ(chain_.best_height(), 0u);
  EXPECT_EQ(chain_.best_state().balance(alice_.address()), 100 * kEther);
}

TEST_F(BlockchainTest, ExtendAndExecute) {
  extend({transfer(alice_, bob_.address(), kEther)});
  EXPECT_EQ(chain_.best_height(), 1u);
  EXPECT_EQ(chain_.best_state().balance(bob_.address()), kEther);
  EXPECT_GE(chain_.best_state().balance(miner_.address()), kBlockReward);
}

TEST_F(BlockchainTest, RejectsUnknownParent) {
  Block orphan;
  orphan.header.height = 5;
  orphan.header.prev_id.bytes[0] = 0xaa;
  orphan.seal_merkle_root();
  std::string why;
  EXPECT_FALSE(chain_.submit_block(orphan, &why));
  EXPECT_EQ(why, "unknown parent");
}

TEST_F(BlockchainTest, RejectsBadMerkleRoot) {
  Block block = chain_.build_block_template(miner_.address(), 5, 1,
                                            {transfer(alice_, bob_.address(), 1)});
  block.header.merkle_root.bytes[0] ^= 1;
  std::string why;
  EXPECT_FALSE(chain_.submit_block(block, &why));
  EXPECT_EQ(why, "merkle root mismatch");
}

TEST_F(BlockchainTest, RejectsBadPow) {
  Block block = chain_.build_block_template(miner_.address(), 5, ~0ULL, {});
  std::string why;
  EXPECT_FALSE(chain_.submit_block(block, &why));
  EXPECT_EQ(why, "invalid proof of work");
}

TEST_F(BlockchainTest, SkipPowForSimulatedBlocks) {
  Block block = chain_.build_block_template(miner_.address(), 5, ~0ULL, {});
  EXPECT_TRUE(chain_.submit_block(block, nullptr, /*skip_pow=*/true));
}

TEST_F(BlockchainTest, RejectsHeightGap) {
  Block block = chain_.build_block_template(miner_.address(), 5, 1, {});
  block.header.height += 1;
  block.seal_merkle_root();
  const auto nonce = mine(block.header, 1000);
  block.header.nonce = *nonce;
  std::string why;
  EXPECT_FALSE(chain_.submit_block(block, &why));
  EXPECT_EQ(why, "height mismatch");
}

TEST_F(BlockchainTest, RejectsTimestampRegression) {
  extend({}, 100);
  Block block = chain_.build_block_template(miner_.address(), 50, 1, {});
  // build_block_template clamps, so force the regression manually.
  block.header.timestamp = 50;
  const auto nonce = mine(block.header, 1000);
  block.header.nonce = *nonce;
  std::string why;
  EXPECT_FALSE(chain_.submit_block(block, &why));
  EXPECT_EQ(why, "timestamp regression");
}

TEST_F(BlockchainTest, RejectsDuplicateBlock) {
  const Block block = extend({});
  std::string why;
  EXPECT_FALSE(chain_.submit_block(block, &why));
  EXPECT_EQ(why, "duplicate block");
}

TEST_F(BlockchainTest, ForkChoicePrefersMoreCumulativeWork) {
  // Main chain: 2 blocks at difficulty 1. Fork from genesis: 1 block at
  // difficulty 16 -> cumulative 16 > 2, so the fork wins.
  extend({});
  extend({transfer(alice_, bob_.address(), kEther)});
  EXPECT_EQ(chain_.best_height(), 2u);
  EXPECT_EQ(chain_.best_state().balance(bob_.address()), kEther);

  Block fork;
  fork.header.height = 1;
  fork.header.prev_id = chain_.genesis_id();
  fork.header.timestamp = 11;
  fork.header.difficulty = 16;
  fork.header.miner = key(13).address();
  fork.seal_merkle_root();
  // state_root is part of the PoW preimage: seal it before grinding.
  ASSERT_TRUE(chain_.seal_state_root(fork));
  fork.header.nonce = *mine(fork.header, 1'000'000);
  ASSERT_TRUE(chain_.submit_block(fork));

  EXPECT_EQ(chain_.best_height(), 1u);
  EXPECT_EQ(chain_.best_head(), fork.id());
  // Reorg wiped Bob's transfer: state now reflects the fork branch.
  EXPECT_EQ(chain_.best_state().balance(bob_.address()), 0u);
}

TEST_F(BlockchainTest, TieBreakKeepsFirstSeen) {
  const Block first = extend({});
  Block rival = Block{};
  rival.header.height = 1;
  rival.header.prev_id = chain_.genesis_id();
  rival.header.timestamp = 12;
  rival.header.difficulty = 1;
  rival.header.miner = key(14).address();
  rival.seal_merkle_root();
  ASSERT_TRUE(chain_.seal_state_root(rival));
  rival.header.nonce = *mine(rival.header, 1000);
  ASSERT_TRUE(chain_.submit_block(rival));
  EXPECT_EQ(chain_.best_head(), first.id());
}

TEST_F(BlockchainTest, ConfirmationDepth) {
  const Block block = extend({transfer(alice_, bob_.address(), 7)});
  EXPECT_FALSE(chain_.is_confirmed(block.id()));
  for (int i = 0; i < 5; ++i) extend({});
  EXPECT_FALSE(chain_.is_confirmed(block.id()));  // only 5 on top
  extend({});
  EXPECT_TRUE(chain_.is_confirmed(block.id()));  // 6 on top
}

TEST_F(BlockchainTest, TxLookupAndReceipt) {
  const Transaction tx = transfer(alice_, bob_.address(), 55);
  extend({tx});
  const auto loc = chain_.find_transaction(tx.id());
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->height, 1u);
  const Receipt* receipt = chain_.receipt_of(tx.id());
  ASSERT_NE(receipt, nullptr);
  EXPECT_TRUE(receipt->ok());
  EXPECT_FALSE(chain_.tx_confirmed(tx.id()));
  for (int i = 0; i < 6; ++i) extend({});
  EXPECT_TRUE(chain_.tx_confirmed(tx.id()));
}

TEST_F(BlockchainTest, ProtocolRecordQuery) {
  Transaction tx = transfer(alice_, bob_.address(), 1);
  tx.protocol = ProtocolKind::kSra;
  tx.protocol_payload = util::Bytes{1, 2, 3};
  tx.sign_with(alice_);
  extend({tx});
  const auto records = chain_.protocol_records(ProtocolKind::kSra);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second.protocol_payload, (util::Bytes{1, 2, 3}));
  EXPECT_TRUE(chain_.protocol_records(ProtocolKind::kDetailedReport).empty());
}

TEST(Mempool, AdmissionAndSelection) {
  const auto alice = key(20);
  const auto bob = key(21);
  WorldState state;
  state.add_balance(alice.address(), kEther);
  state.add_balance(bob.address(), kEther);

  Mempool pool;
  const Transaction t1 = transfer(alice, bob.address(), 100, 0, 100);
  const Transaction t2 = transfer(alice, bob.address(), 100, 1, 100);
  const Transaction t3 = transfer(bob, alice.address(), 100, 0, 500);  // higher fee
  EXPECT_TRUE(pool.add(t1));
  EXPECT_TRUE(pool.add(t2));
  EXPECT_TRUE(pool.add(t3));
  EXPECT_FALSE(pool.add(t1));  // duplicate

  const auto picked = pool.select(state, 10);
  ASSERT_EQ(picked.size(), 3u);
  EXPECT_EQ(picked[0].id(), t3.id());  // fee priority
  EXPECT_EQ(picked[1].id(), t1.id());  // nonce order within sender
  EXPECT_EQ(picked[2].id(), t2.id());
}

TEST(Mempool, NonceGapStallsLaterTxs) {
  const auto alice = key(22);
  WorldState state;
  state.add_balance(alice.address(), kEther);
  Mempool pool;
  pool.add(transfer(alice, key(23).address(), 1, 2));  // nonce 2, but state nonce is 0
  EXPECT_TRUE(pool.select(state, 10).empty());
}

TEST(Mempool, BudgetLimitsSelection) {
  const auto alice = key(24);
  WorldState state;
  // Enough for exactly one transfer's max cost.
  state.add_balance(alice.address(), 100 + 21000 * kDefaultGasPrice);
  Mempool pool;
  pool.add(transfer(alice, key(25).address(), 100, 0));
  pool.add(transfer(alice, key(25).address(), 100, 1));
  EXPECT_EQ(pool.select(state, 10).size(), 1u);
}

TEST(Mempool, GateRejects) {
  Mempool pool;
  pool.set_gate([](const Transaction&, std::string& why) {
    why = "algorithm 1 failed";
    return false;
  });
  std::string why;
  EXPECT_FALSE(pool.add(transfer(key(26), key(27).address(), 1), &why));
  EXPECT_EQ(why, "algorithm 1 failed");
}

TEST(Mempool, PruneStaleRemovesConsumedNonces) {
  const auto alice = key(28);
  WorldState state;
  state.add_balance(alice.address(), kEther);
  Mempool pool;
  pool.add(transfer(alice, key(29).address(), 1, 0));
  pool.add(transfer(alice, key(29).address(), 1, 1));
  state.bump_nonce(alice.address());  // nonce 0 consumed
  pool.prune_stale(state);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, SelectRespectsMaxCount) {
  const auto alice = key(30);
  WorldState state;
  state.add_balance(alice.address(), 10 * kEther);
  Mempool pool;
  for (std::uint64_t i = 0; i < 5; ++i)
    pool.add(transfer(alice, key(31).address(), 1, i));
  EXPECT_EQ(pool.select(state, 3).size(), 3u);
}

TEST(Mempool, UnboundedByDefault) {
  const auto alice = key(32);
  Mempool pool;
  EXPECT_EQ(pool.capacity(), 0u);
  for (std::uint64_t i = 0; i < 64; ++i)
    EXPECT_TRUE(pool.add(transfer(alice, key(33).address(), 1, i)));
  EXPECT_EQ(pool.size(), 64u);
  EXPECT_EQ(pool.evictions(), 0u);
}

TEST(Mempool, CapacityEvictsLowestGasPrice) {
  Mempool pool;
  pool.set_capacity(3);
  const Transaction cheap = transfer(key(34), key(40).address(), 1, 0, 100);
  const Transaction mid = transfer(key(35), key(40).address(), 1, 0, 200);
  const Transaction rich = transfer(key(36), key(40).address(), 1, 0, 300);
  ASSERT_TRUE(pool.add(cheap));
  ASSERT_TRUE(pool.add(mid));
  ASSERT_TRUE(pool.add(rich));

  // A better-paying newcomer displaces exactly the cheapest resident.
  const Transaction richer = transfer(key(37), key(40).address(), 1, 0, 400);
  EXPECT_TRUE(pool.add(richer));
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.evictions(), 1u);
  EXPECT_FALSE(pool.contains(cheap.id()));
  EXPECT_TRUE(pool.contains(mid.id()));
  EXPECT_TRUE(pool.contains(richer.id()));
}

TEST(Mempool, FullPoolRejectsEqualOrLowerGasPrice) {
  Mempool pool;
  pool.set_capacity(2);
  ASSERT_TRUE(pool.add(transfer(key(41), key(40).address(), 1, 0, 100)));
  ASSERT_TRUE(pool.add(transfer(key(42), key(40).address(), 2, 0, 200)));

  // Strictly-higher is required: an equal bid must not churn the pool.
  std::string why;
  EXPECT_FALSE(pool.add(transfer(key(43), key(40).address(), 3, 0, 100), &why));
  EXPECT_EQ(why, "mempool full");
  EXPECT_FALSE(pool.add(transfer(key(44), key(40).address(), 4, 0, 50)));
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool.evictions(), 0u);
}

TEST(Mempool, EvictionTieBreaksOnTxId) {
  Mempool pool;
  pool.set_capacity(2);
  // Distinct bodies (tx id hashes the body), identical gas price.
  const Transaction a = transfer(key(45), key(40).address(), 1, 0, 100);
  const Transaction b = transfer(key(46), key(40).address(), 2, 0, 100);
  ASSERT_TRUE(pool.add(a));
  ASSERT_TRUE(pool.add(b));
  const Transaction winner = transfer(key(47), key(40).address(), 3, 0, 500);
  ASSERT_TRUE(pool.add(winner));
  // Same gas price: the smaller tx id goes, independent of insertion or
  // hash-map iteration order.
  const Hash256 expected_victim = a.id() < b.id() ? a.id() : b.id();
  const Hash256 expected_kept = a.id() < b.id() ? b.id() : a.id();
  EXPECT_FALSE(pool.contains(expected_victim));
  EXPECT_TRUE(pool.contains(expected_kept));
  EXPECT_EQ(pool.evictions(), 1u);
}

TEST(Mempool, ShrunkCapacityKeepsResidents) {
  const auto alice = key(48);
  Mempool pool;
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(pool.add(transfer(alice, key(40).address(), 1, i)));
  pool.set_capacity(2);
  EXPECT_EQ(pool.size(), 4u);  // no retroactive dropping
  // But new admissions now face the bound.
  EXPECT_FALSE(pool.add(transfer(alice, key(40).address(), 1, 4)));
}

}  // namespace
}  // namespace sc::chain
