// Differential test: the journaled executor and delta-based blockchain must
// be observationally identical to the frozen copy-based implementation
// (chain/legacy_executor.hpp) — same receipts, same total_supply(), same
// canonical head, same account state — on randomized workloads that include
// reverts, out-of-gas, structural failures and multi-branch reorgs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/legacy_executor.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

bool states_equal(const WorldState& a, const WorldState& b, std::string* why) {
  if (a.account_count() != b.account_count()) {
    if (why)
      *why = "account_count " + std::to_string(a.account_count()) + " vs " +
             std::to_string(b.account_count());
    return false;
  }
  for (const auto& [address, acct] : a.accounts()) {
    const Account* other = b.find(address);
    if (!other) {
      if (why) *why = "missing account " + address.hex();
      return false;
    }
    if (acct.balance != other->balance || acct.nonce != other->nonce ||
        acct.code != other->code || acct.storage != other->storage) {
      if (why) *why = "field mismatch at " + address.hex();
      return false;
    }
  }
  return true;
}

bool logs_equal(const std::vector<vm::LogEntry>& a, const std::vector<vm::LogEntry>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].contract != b[i].contract || a[i].topics != b[i].topics ||
        a[i].data != b[i].data)
      return false;
  return true;
}

::testing::AssertionResult receipts_equal(const Receipt& a, const Receipt& b) {
  if (a.tx_id != b.tx_id) return ::testing::AssertionFailure() << "tx_id";
  if (a.status != b.status)
    return ::testing::AssertionFailure()
           << "status " << to_string(a.status) << " vs " << to_string(b.status)
           << " (" << a.error << " / " << b.error << ")";
  if (a.gas_used != b.gas_used)
    return ::testing::AssertionFailure()
           << "gas_used " << a.gas_used << " vs " << b.gas_used;
  if (a.fee_paid != b.fee_paid) return ::testing::AssertionFailure() << "fee_paid";
  if (a.contract_address != b.contract_address)
    return ::testing::AssertionFailure() << "contract_address";
  if (!logs_equal(a.logs, b.logs)) return ::testing::AssertionFailure() << "logs";
  if (a.return_data != b.return_data)
    return ::testing::AssertionFailure() << "return_data";
  if (a.error != b.error) return ::testing::AssertionFailure() << "error";
  return ::testing::AssertionSuccess();
}

// A contract whose behaviour depends on calldata byte 0: writes a slot and
// returns (1), writes then REVERTs (2), or burns gas until OOG (3). This
// exercises success, revert and out-of-gas paths against live storage.
const util::Bytes& moody_contract() {
  static const util::Bytes code = [] {
    const auto out = vm::assemble(R"(
      PUSH1 0x00
      CALLDATALOAD
      PUSH1 0xf8
      SHR
      DUP1
      PUSH1 0x02
      EQ
      PUSHL @revert
      JUMPI
      DUP1
      PUSH1 0x03
      EQ
      PUSHL @burn
      JUMPI
      PUSH1 0x01
      PUSH1 0x00
      SSTORE
      STOP
    revert:
      JUMPDEST
      PUSH1 0x63
      PUSH1 0x01
      SSTORE
      PUSH1 0x00
      PUSH1 0x00
      REVERT
    burn:
      JUMPDEST
      PUSH1 0x05
      PUSH1 0x02
      SSTORE
      PUSHL @burn
      JUMP
    )");
    EXPECT_TRUE(out.ok());
    return out.code;
  }();
  return code;
}

// Randomized single-stream executor differential: >= 1000 transactions of
// every kind (transfers, deploys, calls with success/revert/OOG, bad nonces,
// underfunded sends) applied to a legacy copy-based state and a journaled
// state in lockstep.
TEST(StateDifferential, ExecutorLockstepRandomWorkload) {
  constexpr int kTxCount = 1200;
  constexpr int kActors = 8;
  util::Rng rng(0xD1FF);

  std::vector<crypto::KeyPair> actors;
  WorldState legacy_state;
  WorldState journaled_root;
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(key(100 + i));
    legacy_state.add_balance(actors.back().address(), 50 * kEther);
    journaled_root.add_balance(actors.back().address(), 50 * kEther);
  }
  JournaledState journaled(journaled_root);

  BlockEnv env;
  env.number = 1;
  env.timestamp = 1000;
  env.miner = key(999).address();

  std::vector<Address> contracts;
  for (int i = 0; i < kTxCount; ++i) {
    const auto& actor = actors[rng.uniform(kActors)];
    Transaction tx;
    tx.nonce = legacy_state.nonce(actor.address());
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 10 || contracts.empty()) {
      tx.kind = TxKind::kDeploy;
      tx.gas_limit = 400'000;
      tx.data = moody_contract();
      if (rng.bernoulli(0.3)) tx.value = rng.uniform(1000);
    } else if (roll < 55) {
      tx.kind = TxKind::kCall;
      tx.to = contracts[rng.uniform(contracts.size())];
      tx.gas_limit = roll < 40 ? 200'000 : 30'000;  // the low limit forces OOG
      tx.data = util::Bytes{static_cast<std::uint8_t>(1 + rng.uniform(3))};
      if (rng.bernoulli(0.2)) tx.value = rng.uniform(500);
    } else {
      tx.kind = TxKind::kTransfer;
      tx.to = actors[rng.uniform(kActors)].address();
      tx.gas_limit = 21'000;
      tx.value = rng.bernoulli(0.05) ? 200 * kEther  // underfunded -> kInvalid
                                     : rng.uniform(kEther);
    }
    if (rng.bernoulli(0.05)) tx.nonce += 1 + rng.uniform(3);  // nonce gap
    tx.sign_with(actor);

    const Receipt legacy_r = legacy::apply_transaction(legacy_state, env, tx);
    const Receipt new_r = apply_transaction(journaled, env, tx);
    ASSERT_TRUE(receipts_equal(legacy_r, new_r)) << "tx " << i;
    if (legacy_r.ok() && tx.kind == TxKind::kDeploy)
      contracts.push_back(legacy_r.contract_address);

    ASSERT_EQ(legacy_state.total_supply(), journaled.underlying().total_supply())
        << "supply diverged at tx " << i;
    if (i % 100 == 0) {
      std::string why;
      ASSERT_TRUE(states_equal(legacy_state, journaled.underlying(), &why))
          << "state diverged at tx " << i << ": " << why;
    }
  }
  journaled.commit(0);
  std::string why;
  EXPECT_TRUE(states_equal(legacy_state, journaled_root, &why)) << why;
}

// Chain-level differential: randomized multi-branch block tree (forks up to
// 3 deep, competing difficulties, reorg flapping) submitted to the
// delta-based Blockchain while a shadow map of full per-block states is
// maintained with the legacy executor. Every block's state_of() and the
// canonical best_state() must match the shadow exactly.
TEST(StateDifferential, BlockchainMatchesShadowCopyStatesAcrossReorgs) {
  util::Rng rng(0xB10C);
  const auto alice = key(1);
  const auto bob = key(2);
  const auto miner_a = key(3);
  const auto miner_b = key(4);

  GenesisConfig genesis{{{alice.address(), 500 * kEther}, {bob.address(), 500 * kEther}},
                        0,
                        1};
  genesis.state_store.flatten_interval = 4;  // exercise snapshot + replay paths
  Blockchain chain(genesis);

  struct Shadow {
    WorldState state;
    std::uint64_t height = 0;
    std::uint64_t cum_difficulty = 0;
  };
  std::unordered_map<Hash256, Shadow> shadow;
  {
    WorldState genesis_state;
    for (const auto& [addr, amount] : genesis.allocations)
      genesis_state.add_balance(addr, amount);
    shadow.emplace(chain.genesis_id(), Shadow{std::move(genesis_state), 0, 0});
  }
  std::vector<Hash256> frontier{chain.genesis_id()};

  std::uint64_t alice_nonce = 0;
  std::uint64_t bob_nonce = 0;
  for (int i = 0; i < 60; ++i) {
    // Extend a random known block — often not the tip, which forces forks.
    const Hash256 parent_id = frontier[rng.uniform(frontier.size())];
    const Shadow& parent = shadow.at(parent_id);
    if (parent.height + 3 < shadow.at(chain.best_head()).height) continue;

    std::vector<Transaction> txs;
    const int tx_count = static_cast<int>(rng.uniform(4));
    for (int t = 0; t < tx_count; ++t) {
      const bool from_alice = rng.bernoulli(0.5);
      Transaction tx;
      tx.kind = TxKind::kTransfer;
      tx.nonce = from_alice ? alice_nonce : bob_nonce;
      tx.to = rng.bernoulli(0.5) ? miner_a.address() : miner_b.address();
      tx.value = rng.uniform(kEther);
      tx.gas_limit = 21'000;
      tx.sign_with(from_alice ? alice : bob);
      // Nonces are tracked per-branch in reality; to keep every branch valid
      // we only send from the canonical-tip nonce when the parent is canonical.
      if (parent.state.nonce(tx.sender()) != tx.nonce) continue;
      txs.push_back(tx);
      (from_alice ? alice_nonce : bob_nonce) = tx.nonce + 1;
    }

    Block block;
    block.header.height = parent.height + 1;
    block.header.prev_id = parent_id;
    block.header.timestamp = 10 * (i + 1);
    block.header.difficulty = 1 + rng.uniform(4);
    block.header.miner = rng.bernoulli(0.5) ? miner_a.address() : miner_b.address();
    block.transactions = txs;
    block.seal_merkle_root();
    ASSERT_TRUE(chain.seal_state_root(block));

    // Shadow execution with the frozen legacy path.
    Shadow next{parent.state, parent.height + 1,
                parent.cum_difficulty + block.header.difficulty};
    BlockEnv env;
    env.number = block.header.height;
    env.timestamp = block.header.timestamp;
    env.miner = block.header.miner;
    legacy::apply_block_body(next.state, env, block.transactions, kBlockReward);

    // The committed root is reproducible from the LEGACY executor's state:
    // three implementations (sealing replay, incremental trie, full rehash
    // of the shadow) must agree byte-for-byte.
    ASSERT_EQ(StateCommitment::root_of(next.state), block.header.state_root);

    std::string why;
    ASSERT_TRUE(chain.submit_block(block, &why, /*skip_pow=*/true)) << why;
    shadow.emplace(block.id(), std::move(next));
    frontier.push_back(block.id());

    // Canonical head state must match its shadow after every submission.
    std::string diff;
    ASSERT_TRUE(states_equal(chain.best_state(), shadow.at(chain.best_head()).state, &diff))
        << "best_state diverged at step " << i << ": " << diff;
  }

  // Every stored block's materialized state matches its shadow — including
  // blocks that need snapshot + delta replay and evicted-cache re-builds.
  for (const auto& [id, sh] : shadow) {
    const WorldState* materialized = chain.state_of(id);
    ASSERT_NE(materialized, nullptr);
    std::string why;
    EXPECT_TRUE(states_equal(*materialized, sh.state, &why))
        << "state_of(" << id.hex() << ") diverged: " << why;
    EXPECT_EQ(materialized->total_supply(), sh.state.total_supply());
  }
}

}  // namespace
}  // namespace sc::chain
