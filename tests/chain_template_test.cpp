// A block the chain sealed itself (build_block_template) is executed and
// trie-hashed once: its own submit_block adopts the held delta and receipts.
// The adopted connect must be byte-identical to a plain re-executing connect,
// a block that differs from the template in its stamped root must take the
// execute path, one with re-signed transactions fails its Merkle root before
// any execution, and every commitment read or competing connect in between
// must see the parent's trie. (A commitment read also drops the held
// template, so tests that count adoptions read the chain before sealing.)
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "telemetry/telemetry.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"

namespace sc::chain {
namespace {

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/sc_chain_template_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string path;
};

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Transaction transfer(const crypto::KeyPair& from, const Address& to, Amount value,
                     std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = 21'000;
  tx.sign_with(from);
  return tx;
}

// Calldata byte 0 selects success-with-SSTORE (1), SSTORE-then-REVERT (2) or
// burn-to-OOG (3).
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

double counter_total(const telemetry::Telemetry& tel, std::string_view family,
                     std::string_view label_value = {}) {
  double total = 0.0;
  for (const auto& fam : tel.registry.snapshot()) {
    if (fam.name != family) continue;
    for (const auto& series : fam.series) {
      if (!series.counter) continue;
      bool selected = label_value.empty();
      for (const auto& [name, value] : series.labels) selected |= value == label_value;
      if (selected) total += static_cast<double>(series.counter->value());
    }
  }
  return total;
}

std::uint64_t root_updates(const telemetry::Telemetry& tel) {
  for (const auto& fam : tel.registry.snapshot())
    if (fam.name == "state_root_update_seconds")
      return fam.series.front().histogram->count();
  return 0;
}

::testing::AssertionResult receipts_equal(const Receipt& a, const Receipt& b) {
  if (a.tx_id != b.tx_id) return ::testing::AssertionFailure() << "tx_id";
  if (a.status != b.status)
    return ::testing::AssertionFailure()
           << "status " << to_string(a.status) << " vs " << to_string(b.status);
  if (a.gas_used != b.gas_used) return ::testing::AssertionFailure() << "gas_used";
  if (a.fee_paid != b.fee_paid) return ::testing::AssertionFailure() << "fee_paid";
  if (a.contract_address != b.contract_address)
    return ::testing::AssertionFailure() << "contract_address";
  if (a.logs.size() != b.logs.size()) return ::testing::AssertionFailure() << "logs";
  for (std::size_t i = 0; i < a.logs.size(); ++i)
    if (a.logs[i].contract != b.logs[i].contract ||
        a.logs[i].topics != b.logs[i].topics || a.logs[i].data != b.logs[i].data)
      return ::testing::AssertionFailure() << "log " << i;
  if (a.return_data != b.return_data)
    return ::testing::AssertionFailure() << "return_data";
  if (a.error != b.error) return ::testing::AssertionFailure() << "error";
  return ::testing::AssertionSuccess();
}

constexpr int kActors = 6;

GenesisConfig funded_genesis(unsigned lanes = 1) {
  GenesisConfig genesis;
  for (int i = 0; i < kActors; ++i)
    genesis.allocations.push_back({key(600 + i).address(), 200 * kEther});
  genesis.execution.threads = lanes;
  return genesis;
}

/// Transfers (some to hot accounts, some underfunded), deploys, and calls
/// that succeed, revert or run out of gas, with intra-block nonce chains and
/// the occasional nonce gap.
std::vector<Transaction> random_body(util::Rng& rng, const WorldState& state,
                                     const std::vector<Address>& contracts,
                                     int count) {
  std::vector<Transaction> txs;
  for (int t = 0; t < count; ++t) {
    const auto actor = key(600 + rng.uniform(kActors));
    std::uint64_t nonce = state.nonce(actor.address());
    for (const Transaction& queued : txs)
      if (queued.sender() == actor.address() && queued.nonce >= nonce)
        nonce = queued.nonce + 1;
    Transaction tx;
    tx.nonce = nonce;
    const std::uint64_t roll = rng.uniform(100);
    if (roll < 8 || contracts.empty()) {
      tx.kind = TxKind::kDeploy;
      tx.gas_limit = 400'000;
      tx.data = moody_contract();
    } else if (roll < 50) {
      tx.kind = TxKind::kCall;
      tx.to = contracts[rng.uniform(contracts.size())];
      tx.gas_limit = roll < 35 ? 200'000 : 30'000;  // The low limit runs OOG.
      tx.data = util::Bytes{static_cast<std::uint8_t>(1 + rng.uniform(3))};
    } else {
      tx.kind = TxKind::kTransfer;
      tx.to = rng.bernoulli(0.5) ? key(600 + rng.uniform(2)).address()
                                 : key(7000 + rng.uniform(40)).address();
      tx.gas_limit = 21'000;
      tx.value = rng.bernoulli(0.04) ? 10'000 * kEther : rng.uniform(kEther);
    }
    if (rng.bernoulli(0.05)) tx.nonce += 1 + rng.uniform(3);
    tx.sign_with(actor);
    txs.push_back(tx);
  }
  return txs;
}

/// Blocks sealed by `miner_chain` and connected there (adopting the template)
/// and on `replica` (no template held: executes) must leave both chains
/// byte-identical, and the template + connect pair must execute each tx and
/// roll the trie exactly once.
void adopted_matches_reexecuted(unsigned lanes) {
  telemetry::Telemetry miner_tel, replica_tel;
  Blockchain miner_chain(funded_genesis(lanes), &miner_tel);
  Blockchain replica(funded_genesis(lanes), &replica_tel);
  const Address miner = key(999).address();
  util::Rng rng(0x7e3a + lanes);
  std::vector<Address> contracts;
  std::size_t statuses[5] = {};

  for (std::uint64_t b = 1; b <= 10; ++b) {
    const std::vector<Transaction> txs =
        random_body(rng, miner_chain.best_state(), contracts, 40);
    const double tx_before = counter_total(miner_tel, "chain_tx_total");
    const std::uint64_t roots_before = root_updates(miner_tel);
    const Block block = miner_chain.build_block_template(miner, 1000 + b, 1, txs);
    std::string why;
    ASSERT_TRUE(miner_chain.submit_block(block, &why, true)) << why;
    EXPECT_EQ(counter_total(miner_tel, "chain_tx_total") - tx_before,
              static_cast<double>(txs.size()));
    EXPECT_EQ(root_updates(miner_tel) - roots_before, 1u);
    ASSERT_TRUE(replica.submit_block(block, &why, true)) << why;

    const Hash256 id = block.id();
    const auto& mine = *miner_chain.receipts(id);
    const auto& theirs = *replica.receipts(id);
    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      EXPECT_TRUE(receipts_equal(mine[i], theirs[i])) << "block " << b << " tx " << i;
      ++statuses[static_cast<int>(mine[i].status)];
      if (mine[i].ok() && txs[i].kind == TxKind::kDeploy)
        contracts.push_back(mine[i].contract_address);
    }
    EXPECT_EQ(miner_chain.delta_of(id)->encode(), replica.delta_of(id)->encode());
    EXPECT_EQ(miner_chain.state_root(), replica.state_root());
    EXPECT_EQ(miner_chain.state_root(), block.header.state_root);
    EXPECT_EQ(miner_chain.best_state().encode(), replica.best_state().encode());
  }
  EXPECT_EQ(miner_chain.state_root(), StateCommitment::root_of(miner_chain.best_state()));
  EXPECT_EQ(counter_total(miner_tel, "chain_template_connects_total", "adopted"), 10.0);
  EXPECT_EQ(counter_total(miner_tel, "chain_template_connects_total", "reexecuted"), 0.0);
  EXPECT_EQ(counter_total(replica_tel, "chain_template_connects_total"), 0.0);
  // The workload really covered every outcome the stash has to carry.
  EXPECT_GT(statuses[static_cast<int>(TxStatus::kSuccess)], 0u);
  EXPECT_GT(statuses[static_cast<int>(TxStatus::kReverted)], 0u);
  EXPECT_GT(statuses[static_cast<int>(TxStatus::kOutOfGas)], 0u);
  EXPECT_GT(statuses[static_cast<int>(TxStatus::kInvalid)], 0u);
}

TEST(ChainTemplate, AdoptedConnectMatchesReexecutionSequential) {
  adopted_matches_reexecuted(1);
}

TEST(ChainTemplate, AdoptedConnectMatchesReexecutionFourLanes) {
  adopted_matches_reexecuted(4);
}

/// Everything a failed connect must leave untouched.
struct ChainView {
  explicit ChainView(const Blockchain& chain)
      : head(chain.best_head()),
        root(chain.state_root()),
        state(chain.best_state().encode()),
        blocks(chain.block_count()) {}
  bool operator==(const ChainView&) const = default;
  Hash256 head;
  Hash256 root;
  util::Bytes state;
  std::size_t blocks;
};

Block sealed_transfers(Blockchain& chain, const crypto::KeyPair& from) {
  std::vector<Transaction> txs;
  for (std::uint64_t n = 0; n < 3; ++n)
    txs.push_back(transfer(from, key(7000 + n).address(), kEther, n));
  return chain.build_block_template(key(999).address(), 1000, 1, std::move(txs));
}

// Transaction ids cover the signer, so a body re-signed by another funded key
// changes every id and with them the Merkle root: the block is refused before
// anything executes, the held template survives, and the genuine block still
// adopts it. The template's ids are reused only for a body equal to the held
// one, so any other body under the template's header — one transaction
// re-signed, one dropped, two swapped, one field changed without re-signing —
// is hashed and fails the same Merkle check.
TEST(ChainTemplate, ResignedBodyIsRejectedBeforeExecution) {
  telemetry::Telemetry tel;
  Blockchain chain(funded_genesis(), &tel);
  const auto alice = key(600);
  const auto mallory = key(601);
  const ChainView before(chain);  // Read first: reads drop a held template.
  const Block genuine = sealed_transfers(chain, alice);
  const double executed = counter_total(tel, "chain_tx_total");

  Block forged = genuine;
  for (Transaction& tx : forged.transactions) tx.sign_with(mallory);
  ASSERT_EQ(forged.transactions[0].signing_hash(),
            genuine.transactions[0].signing_hash());
  ASSERT_NE(forged.transactions[0].id(), genuine.transactions[0].id());
  ASSERT_NE(forged.compute_merkle_root(), genuine.header.merkle_root);

  std::string why;
  EXPECT_FALSE(chain.submit_block(forged, &why, true));
  EXPECT_EQ(why, "merkle root mismatch");

  std::vector<Block> variants(4, genuine);
  variants[0].transactions.back().sign_with(mallory);
  variants[1].transactions.pop_back();
  std::swap(variants[2].transactions[0], variants[2].transactions[1]);
  variants[3].transactions[1].value += 1;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    ASSERT_FALSE(variants[v].transactions == genuine.transactions) << "variant " << v;
    why.clear();
    EXPECT_FALSE(chain.submit_block(variants[v], &why, true)) << "variant " << v;
    EXPECT_EQ(why, "merkle root mismatch") << "variant " << v;
  }
  // Only accessors that leave the template held.
  EXPECT_EQ(chain.best_head(), before.head);
  EXPECT_EQ(chain.block_count(), before.blocks);
  EXPECT_EQ(chain.best_state().encode(), before.state);
  EXPECT_EQ(counter_total(tel, "chain_tx_total"), executed);
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total"), 0.0);

  ASSERT_TRUE(chain.submit_block(genuine, &why, true)) << why;
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total", "adopted"), 1.0);
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total", "reexecuted"), 0.0);
  EXPECT_EQ(counter_total(tel, "chain_tx_total"), executed);
  EXPECT_EQ(chain.state_root(), genuine.header.state_root);
  EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));
}

TEST(ChainTemplate, TamperedStateRootIsNotAdopted) {
  telemetry::Telemetry tel;
  Blockchain chain(funded_genesis(), &tel);
  const ChainView before(chain);
  Block block = sealed_transfers(chain, key(600));
  block.header.state_root.bytes[0] ^= 0x01;

  std::string why;
  EXPECT_FALSE(chain.submit_block(block, &why, true));
  EXPECT_EQ(why, "state root mismatch");
  EXPECT_TRUE(ChainView(chain) == before);
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total", "adopted"), 0.0);
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total", "reexecuted"), 1.0);
}

// While a template is held the trie sits at its post-state; every reader of
// the commitment must still see the best head's.
TEST(ChainTemplate, CommitmentReadsBetweenTemplateAndSubmitSeeParent) {
  Blockchain chain(funded_genesis());
  const auto alice = key(600);
  const Hash256 parent_root = chain.state_root();
  const util::Bytes parent_state = chain.best_state().encode();
  const util::Bytes parent_proof = chain.prove_account(alice.address()).encode();

  const Block block = sealed_transfers(chain, alice);
  ASSERT_NE(block.header.state_root, parent_root);
  EXPECT_EQ(chain.best_state().encode(), parent_state);
  EXPECT_EQ(chain.state_root(), parent_root);
  EXPECT_EQ(chain.commitment().root(), parent_root);
  const AccountProof proof = chain.prove_account(alice.address());
  EXPECT_EQ(proof.encode(), parent_proof);
  EXPECT_TRUE(proof.verify(parent_root));

  std::string why;
  ASSERT_TRUE(chain.submit_block(block, &why, true)) << why;
  EXPECT_EQ(chain.state_root(), block.header.state_root);
  EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));
  EXPECT_TRUE(chain.prove_account(alice.address()).verify(block.header.state_root));
}

// A peer's block at the template's height arrives first and wins (first seen
// breaks the tie); the template then connects as a losing fork.
TEST(ChainTemplate, CompetingBlockBetweenTemplateAndSubmit) {
  telemetry::Telemetry tel;
  Blockchain chain(funded_genesis(), &tel);
  Blockchain peer(funded_genesis());
  const Block template_block = sealed_transfers(chain, key(600));
  const Block competing = sealed_transfers(peer, key(601));
  std::string why;
  ASSERT_TRUE(peer.submit_block(competing, &why, true)) << why;

  ASSERT_TRUE(chain.submit_block(competing, &why, true)) << why;
  EXPECT_EQ(chain.best_head(), competing.id());
  EXPECT_EQ(chain.state_root(), competing.header.state_root);
  EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));

  ASSERT_TRUE(chain.submit_block(template_block, &why, true)) << why;
  EXPECT_EQ(chain.best_head(), competing.id());
  EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));
  EXPECT_EQ(chain.best_state().encode(), peer.best_state().encode());
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total", "reexecuted"), 1.0);
  EXPECT_EQ(counter_total(tel, "chain_template_connects_total", "adopted"), 0.0);
}

// close() with a template held, then reopen: the journaled head and the
// replayed root must agree with a full rehash; a template sealed before
// open() must not survive recovery either.
TEST(ChainTemplate, CloseAndReopenWithTemplateHeld) {
  TempDir dir;
  const auto alice = key(600);
  Hash256 head;
  {
    Blockchain chain(funded_genesis());
    (void)sealed_transfers(chain, alice);  // Held across open().
    std::string why;
    ASSERT_TRUE(chain.open(dir.path, {}, &why)) << why;
    EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));

    const Block first = sealed_transfers(chain, alice);
    ASSERT_TRUE(chain.submit_block(first, &why, true)) << why;
    std::vector<Transaction> txs = {transfer(alice, key(7100).address(), kEther, 3)};
    (void)chain.build_block_template(key(999).address(), 1001, 1, std::move(txs));
    head = chain.best_head();
    chain.close();
    EXPECT_EQ(chain.best_head(), head);
    EXPECT_EQ(chain.state_root(), first.header.state_root);
    EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));
  }
  Blockchain reopened(funded_genesis());
  std::string why;
  RecoveryReport report;
  ASSERT_TRUE(reopened.open(dir.path, {}, &why, &report)) << why;
  EXPECT_TRUE(report.clean_verified);
  EXPECT_EQ(reopened.best_head(), head);
  EXPECT_EQ(reopened.state_root(), StateCommitment::root_of(reopened.best_state()));
}

// A failed open() rebuilds the genesis commitment; a template sealed before
// it must not survive to be adopted against the rebuilt trie.
TEST(ChainTemplate, FailedOpenDropsTheTemplate) {
  TempDir dir;
  const auto alice = key(600);
  {
    Blockchain writer(funded_genesis());
    std::string why;
    ASSERT_TRUE(writer.open(dir.path, {}, &why)) << why;
    ASSERT_TRUE(writer.submit_block(sealed_transfers(writer, alice), &why, true)) << why;
    writer.close();
  }
  Blockchain chain(funded_genesis());
  const Block held = sealed_transfers(chain, alice);
  fault::Policy rot;
  rot.kind = fault::FaultKind::kBitRot;
  fault::Injector::instance().arm("store.log.read", rot);
  std::string why;
  EXPECT_FALSE(chain.open(dir.path, {}, &why));
  fault::Injector::instance().reset();

  ASSERT_TRUE(chain.submit_block(held, &why, true)) << why;
  EXPECT_EQ(chain.state_root(), StateCommitment::root_of(chain.best_state()));
}

}  // namespace
}  // namespace sc::chain
