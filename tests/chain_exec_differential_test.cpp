// The sequential journaled executor must be observationally byte-identical
// to the frozen legacy copy-based executor (chain/legacy_executor.hpp) on
// crafted dependency chains, storage collisions and randomized
// conflict-heavy blocks: same receipts, states, supply and state roots, with
// the journal's delta landing the incremental trie on the full-rehash root.
// Known tx ids must change nothing but who hashes them. And the lane count
// of a chain, which fans out signature checks only, must change no receipt,
// delta, root or store byte; scripts/check.sh runs that lane differential
// under TSan (SC_SANITIZE=thread).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/legacy_executor.hpp"
#include "chain/state_commitment.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"

namespace sc::chain {
namespace {

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/sc_exec_diff_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string sub(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

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

::testing::AssertionResult receipts_equal(const std::vector<Receipt>& a,
                                          const std::vector<Receipt>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "receipt count";
  for (std::size_t i = 0; i < a.size(); ++i)
    if (auto same = receipts_equal(a[i], b[i]); !same) return same << " at tx " << i;
  return ::testing::AssertionSuccess();
}

bool deltas_equal(const StateDelta& a, const StateDelta& b, std::string* why) {
  if (a.encode() == b.encode()) return true;
  if (why) *why = "delta encodings differ";
  return false;
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

Transaction transfer(const crypto::KeyPair& from, const Address& to,
                     Amount value, std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = 21'000;
  tx.sign_with(from);
  return tx;
}

Transaction deploy_moody(const crypto::KeyPair& from, std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kDeploy;
  tx.nonce = nonce;
  tx.gas_limit = 400'000;
  tx.data = moody_contract();
  tx.sign_with(from);
  return tx;
}

/// A call of the moody contract: mode 1 succeeds, 2 reverts, 3 runs out of gas.
Transaction call_moody(const crypto::KeyPair& from, const Address& contract,
                       std::uint8_t mode, std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kCall;
  tx.nonce = nonce;
  tx.to = contract;
  tx.gas_limit = mode == 3 ? 30'000 : 200'000;
  tx.data = util::Bytes{mode};
  tx.sign_with(from);
  return tx;
}

struct RunResult {
  WorldState state;
  std::vector<Receipt> receipts;
  StateDelta delta;
};

RunResult run_sequential(const WorldState& base, const BlockEnv& env,
                         const std::vector<Transaction>& txs,
                         const std::vector<Hash256>* tx_ids = nullptr) {
  RunResult r{base, {}, {}};
  JournaledState journal(r.state);
  r.receipts = apply_block_body(journal, env, txs, kBlockReward, nullptr, nullptr, tx_ids);
  r.delta = journal.collect_delta();
  journal.commit(0);
  return r;
}

/// Runs `txs` through the sequential and the legacy executor from `base`,
/// expects identical receipts, states and supply, and the incremental trie
/// rolled over the sequential delta to land on the legacy state's root.
RunResult expect_matches_legacy(const WorldState& base, const BlockEnv& env,
                                const std::vector<Transaction>& txs) {
  RunResult seq = run_sequential(base, env, txs);
  WorldState legacy_state = base;
  const std::vector<Receipt> legacy_receipts =
      legacy::apply_block_body(legacy_state, env, txs, kBlockReward);
  EXPECT_TRUE(receipts_equal(legacy_receipts, seq.receipts));
  std::string why;
  EXPECT_TRUE(states_equal(legacy_state, seq.state, &why)) << why;
  EXPECT_EQ(legacy_state.total_supply(), seq.state.total_supply());
  StateCommitment commitment;
  commitment.rebuild(base);
  commitment.update(seq.delta, seq.state);
  EXPECT_EQ(commitment.root(), StateCommitment::root_of(legacy_state));
  return seq;
}

BlockEnv env_at(std::uint64_t number) {
  BlockEnv env;
  env.number = number;
  env.timestamp = 1000 + number;
  env.miner = key(999).address();
  return env;
}

// One sender, consecutive nonces: every transaction after the first is only
// valid on the state the previous one left.
TEST(ExecDifferential, SameSenderNonceChainMatchesLegacy) {
  const auto alice = key(1);
  WorldState base;
  base.add_balance(alice.address(), 50 * kEther);
  std::vector<Transaction> txs;
  for (std::uint64_t n = 0; n < 6; ++n)
    txs.push_back(transfer(alice, key(300 + n).address(), kEther, n));

  const RunResult seq = expect_matches_legacy(base, env_at(1), txs);
  for (const Receipt& r : seq.receipts) EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(seq.state.nonce(alice.address()), 6u);
}

// Multiple senders hammering the same contract's storage, with success,
// revert and out-of-gas calls interleaved.
TEST(ExecDifferential, ContractStorageCollisionsMatchLegacy) {
  WorldState base;
  const auto deployer = key(50);
  base.add_balance(deployer.address(), 10 * kEther);
  Address contract;
  {
    JournaledState journal(base);
    const Receipt r = apply_transaction(journal, env_at(1), deploy_moody(deployer, 0));
    ASSERT_TRUE(r.ok()) << r.error;
    journal.commit(0);
    contract = r.contract_address;
  }

  std::vector<Transaction> txs;
  for (int i = 0; i < 9; ++i) {
    const auto sender = key(400 + i);
    base.add_balance(sender.address(), 5 * kEther);
    txs.push_back(call_moody(sender, contract, static_cast<std::uint8_t>(1 + i % 3), 0));
  }
  const RunResult seq = expect_matches_legacy(base, env_at(2), txs);
  EXPECT_EQ(seq.receipts[0].status, TxStatus::kSuccess);
  EXPECT_EQ(seq.receipts[1].status, TxStatus::kReverted);
  EXPECT_EQ(seq.receipts[2].status, TxStatus::kOutOfGas);
}

// Zero-value transfer to a brand-new address: the account is created with
// every field default, and the delta must record the creation although no
// field value changes.
TEST(ExecDifferential, FreshAccountCreationMatchesLegacy) {
  const auto alice = key(1);
  const Address fresh = key(777).address();
  WorldState base;
  base.add_balance(alice.address(), 10 * kEther);

  const RunResult seq = expect_matches_legacy(base, env_at(1), {transfer(alice, fresh, 0, 0)});
  ASSERT_TRUE(seq.receipts[0].ok());
  ASSERT_TRUE(seq.delta.changes.contains(fresh));
  EXPECT_TRUE(seq.delta.changes.at(fresh).created);
  EXPECT_NE(seq.state.find(fresh), nullptr);
}

// Randomized 1000+ transaction differential, blocks of 50: transfers,
// deploys, success/revert/OOG calls, intra-block nonce chains, nonce gaps,
// underfunded sends and hot-account contention. Each block's delta rolls one
// incremental trie that must stay on the legacy state's full-rehash root.
TEST(ExecDifferential, RandomizedBlocksMatchLegacy) {
  constexpr int kBlocks = 21;
  constexpr int kTxPerBlock = 50;
  constexpr int kActors = 6;  // Few actors -> heavy same-sender contention.
  util::Rng rng(0xB57C);

  std::vector<crypto::KeyPair> actors;
  WorldState legacy_state;
  WorldState seq_state;
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(key(600 + i));
    for (WorldState* s : {&legacy_state, &seq_state})
      s->add_balance(actors.back().address(), 200 * kEther);
  }

  std::vector<Address> contracts;
  StateCommitment commitment;
  commitment.rebuild(seq_state);
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<Transaction> txs;
    for (int t = 0; t < kTxPerBlock; ++t) {
      const auto& actor = actors[rng.uniform(kActors)];
      Transaction tx;
      // Intra-block nonce chains: continue from however far this sender got
      // in the transactions already queued this block.
      std::uint64_t nonce = legacy_state.nonce(actor.address());
      for (const Transaction& queued : txs)
        if (queued.sender() == actor.address() && queued.nonce >= nonce)
          nonce = queued.nonce + 1;
      tx.nonce = nonce;
      const std::uint64_t roll = rng.uniform(100);
      if (roll < 8 || contracts.empty()) {
        tx.kind = TxKind::kDeploy;
        tx.gas_limit = 400'000;
        tx.data = moody_contract();
        if (rng.bernoulli(0.3)) tx.value = rng.uniform(1000);
      } else if (roll < 50) {
        tx.kind = TxKind::kCall;
        tx.to = contracts[rng.uniform(contracts.size())];
        tx.gas_limit = roll < 35 ? 200'000 : 30'000;
        tx.data = util::Bytes{static_cast<std::uint8_t>(1 + rng.uniform(3))};
        if (rng.bernoulli(0.2)) tx.value = rng.uniform(500);
      } else {
        tx.kind = TxKind::kTransfer;
        // Half the transfers target two hot accounts.
        tx.to = rng.bernoulli(0.5) ? actors[rng.uniform(2)].address()
                                   : key(7000 + rng.uniform(40)).address();
        tx.gas_limit = 21'000;
        tx.value = rng.bernoulli(0.04) ? 10'000 * kEther  // underfunded
                                       : rng.uniform(kEther);
      }
      if (rng.bernoulli(0.05)) tx.nonce += 1 + rng.uniform(3);  // nonce gap
      tx.sign_with(actor);
      txs.push_back(tx);
    }

    const BlockEnv env = env_at(static_cast<std::uint64_t>(b) + 1);
    const std::vector<Receipt> legacy_receipts =
        legacy::apply_block_body(legacy_state, env, txs, kBlockReward);
    RunResult seq = run_sequential(seq_state, env, txs);

    ASSERT_TRUE(receipts_equal(legacy_receipts, seq.receipts)) << "block " << b;
    for (std::size_t i = 0; i < seq.receipts.size(); ++i)
      if (seq.receipts[i].ok() && txs[i].kind == TxKind::kDeploy)
        contracts.push_back(seq.receipts[i].contract_address);
    std::string why;
    ASSERT_TRUE(states_equal(legacy_state, seq.state, &why)) << "block " << b << ": " << why;
    ASSERT_EQ(legacy_state.total_supply(), seq.state.total_supply()) << "block " << b;
    commitment.update(seq.delta, seq.state);
    ASSERT_EQ(commitment.root(), StateCommitment::root_of(legacy_state)) << "block " << b;
    seq_state = std::move(seq.state);
  }
}

// Ids handed down by a caller that already hashed the body change nothing
// but who hashes: receipts, delta and state equal the run that hashes here.
// An id vector of the wrong length is refused before anything executes.
TEST(ExecDifferential, KnownTxIdsMatchHashingHere) {
  const auto alice = key(1);
  const auto bob = key(2);
  WorldState base;
  base.add_balance(alice.address(), 50 * kEther);
  base.add_balance(bob.address(), 50 * kEther);
  const Address contract = contract_address(alice.address(), 0);
  const std::vector<Transaction> txs = {
      deploy_moody(alice, 0),
      call_moody(bob, contract, 1, 0),
      call_moody(bob, contract, 2, 1),
      transfer(alice, bob.address(), 1000 * kEther, 1),  // underfunded
      transfer(alice, key(3).address(), kEther, 1),
  };
  Block block;
  block.transactions = txs;
  const std::vector<Hash256> ids = block.leaves();

  const RunResult hashed = run_sequential(base, env_at(1), txs);
  const RunResult known = run_sequential(base, env_at(1), txs, &ids);
  EXPECT_TRUE(receipts_equal(hashed.receipts, known.receipts));
  for (std::size_t i = 0; i < txs.size(); ++i) EXPECT_EQ(known.receipts[i].tx_id, ids[i]);
  EXPECT_EQ(hashed.receipts[3].status, TxStatus::kInvalid);
  std::string why;
  EXPECT_TRUE(deltas_equal(hashed.delta, known.delta, &why)) << why;
  EXPECT_TRUE(states_equal(hashed.state, known.state, &why)) << why;

  for (const std::size_t length : {txs.size() - 1, txs.size() + 1}) {
    std::vector<Hash256> wrong(ids.begin(), ids.end());
    wrong.resize(length);
    WorldState state = base;
    JournaledState journal(state);
    EXPECT_THROW(apply_block_body(journal, env_at(1), txs, kBlockReward, nullptr, nullptr,
                                  &wrong),
                 std::invalid_argument);
    EXPECT_EQ(journal.journal_size(), 0u);
  }
}

std::map<std::string, util::Bytes> store_files(const std::string& dir) {
  std::map<std::string, util::Bytes> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(e.path(), std::ios::binary);
    files[e.path().filename().string()] =
        util::Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

// The chain-level lane differential. Durable chains at 1 and 4 lanes connect
// the same blocks, built in turn by each one's own template (so both seal
// and adopt) and connected by the other as a peer block whose signatures are
// not in its cache (so the 4-lane chain batch-verifies them on its pool).
// The blocks carry a deploy, hot-contract calls that succeed, revert and run
// out of gas, a failing transfer and fresh recipients. Receipts, deltas,
// state roots and, after close, every store file byte must be identical.
TEST(ParallelExec, BlockchainParallelConfigMatchesSequentialChain) {
  constexpr int kBlocks = 10;
  std::vector<crypto::KeyPair> senders;
  GenesisConfig genesis;
  for (int i = 0; i < 12; ++i) {
    senders.push_back(key(20 + i));
    genesis.allocations.push_back({senders.back().address(), 100 * kEther});
  }
  genesis.state_store.flatten_interval = 4;
  GenesisConfig four_lanes = genesis;
  four_lanes.execution.threads = 4;

  TempDir dir;
  Blockchain one(genesis);
  Blockchain four(four_lanes);
  ASSERT_EQ(one.genesis_id(), four.genesis_id());
  PersistenceOptions no_fsync;
  no_fsync.fsync = false;
  std::string why;
  ASSERT_TRUE(one.open(dir.sub("one"), no_fsync, &why)) << why;
  ASSERT_TRUE(four.open(dir.sub("four"), no_fsync, &why)) << why;

  const auto miner = key(9);
  const Address contract = contract_address(senders[0].address(), 0);
  std::vector<std::uint64_t> nonces(senders.size(), 0);
  util::Rng rng(0xC4A1);
  for (int b = 0; b < kBlocks; ++b) {
    std::vector<Transaction> txs;
    if (b == 0) txs.push_back(deploy_moody(senders[0], nonces[0]++));
    for (std::size_t s = 1; s < senders.size(); ++s) {
      const std::uint64_t roll = rng.uniform(100);
      if (b > 0 && roll < 50) {
        txs.push_back(call_moody(senders[s], contract,
                                 static_cast<std::uint8_t>(1 + rng.uniform(3)), nonces[s]++));
      } else if (roll < 55) {
        txs.push_back(transfer(senders[s], miner.address(), 1'000 * kEther, nonces[s]++));
      } else {
        const Address to = rng.bernoulli(0.5) ? senders[rng.uniform(senders.size())].address()
                                              : key(8000 + rng.uniform(30)).address();
        txs.push_back(transfer(senders[s], to, rng.uniform(kEther), nonces[s]++));
      }
    }
    Blockchain& builder = b % 2 == 0 ? one : four;
    Blockchain& peer = b % 2 == 0 ? four : one;
    const std::uint64_t peer_misses = peer.sig_cache().misses();
    const Block block =
        builder.build_block_template(miner.address(), 10 * (b + 1), 1, std::move(txs));
    ASSERT_TRUE(builder.submit_block(block, &why, /*skip_pow=*/true)) << why;
    ASSERT_TRUE(peer.submit_block(block, &why, /*skip_pow=*/true)) << why;
    // Batch pre-validation cached every signature, so execution never missed.
    EXPECT_EQ(peer.sig_cache().misses(), peer_misses) << "block " << b;
    EXPECT_TRUE(peer.sig_cache().contains(block.transactions.back().id()));

    const auto* r1 = one.receipts(block.id());
    const auto* r4 = four.receipts(block.id());
    ASSERT_NE(r1, nullptr);
    ASSERT_NE(r4, nullptr);
    ASSERT_TRUE(receipts_equal(*r1, *r4)) << "block " << b;
    ASSERT_EQ(one.delta_of(block.id())->encode(), four.delta_of(block.id())->encode())
        << "block " << b;
    ASSERT_EQ(one.state_root(), block.header.state_root) << "block " << b;
    ASSERT_EQ(four.state_root(), block.header.state_root) << "block " << b;
    ASSERT_EQ(block.header.state_root, StateCommitment::root_of(four.best_state()))
        << "block " << b;
  }
  // The workload reached every receipt status it was built to produce.
  std::map<TxStatus, int> statuses;
  for (std::uint64_t h = 1; h <= one.best_height(); ++h)
    for (const Receipt& r : *one.receipts(one.block_at(h)->id())) ++statuses[r.status];
  EXPECT_GT(statuses[TxStatus::kSuccess], 0);
  EXPECT_GT(statuses[TxStatus::kReverted], 0);
  EXPECT_GT(statuses[TxStatus::kOutOfGas], 0);
  EXPECT_GT(statuses[TxStatus::kInvalid], 0);

  one.close();
  four.close();
  const auto files_one = store_files(dir.sub("one"));
  const auto files_four = store_files(dir.sub("four"));
  ASSERT_FALSE(files_one.empty());
  EXPECT_EQ(files_one.size(), files_four.size());
  for (const auto& [name, bytes] : files_one) {
    const auto it = files_four.find(name);
    ASSERT_NE(it, files_four.end()) << name;
    EXPECT_TRUE(it->second == bytes) << name << " differs";
  }
}

}  // namespace
}  // namespace sc::chain
