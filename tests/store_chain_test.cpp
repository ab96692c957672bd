// End-to-end durability of chain::Blockchain over sc::store: open/close/
// reopen round-trips (clean and simulated-crash), fork-choice and arrival-
// order preservation, genesis binding, compaction, and the honest-memory
// contract (snapshots on disk only, historic states still materialize).
//
// Byte-identity is the bar throughout: a reopened chain's states must
// WorldState::encode() to exactly the bytes of an in-memory reference chain
// fed the same blocks.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/state_commitment.hpp"
#include "crypto/sha256.hpp"
#include "pinned_genesis.hpp"
#include "store/block_store.hpp"
#include "store/record_log.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace sc::chain {
namespace {

struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/sc_store_chain_XXXXXX";
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

/// `chain` executes the body against `parent_id`'s state to stamp the
/// header's state_root (what an honest miner does); any chain that has seen
/// the same blocks produces the same root.
Block make_block(Blockchain& chain, const Hash256& parent_id,
                 std::uint64_t height, std::uint64_t timestamp,
                 std::uint64_t difficulty, const Address& miner,
                 std::vector<Transaction> txs = {}) {
  Block block;
  block.header.height = height;
  block.header.prev_id = parent_id;
  block.header.timestamp = timestamp;
  block.header.difficulty = difficulty;
  block.header.miner = miner;
  block.transactions = std::move(txs);
  block.seal_merkle_root();
  EXPECT_TRUE(chain.seal_state_root(block));
  return block;
}

GenesisConfig test_genesis(std::uint64_t flatten_interval = 8) {
  const auto alice = key(1);
  const auto bob = key(2);
  GenesisConfig genesis{
      {{alice.address(), 500 * kEther}, {bob.address(), 100 * kEther}}, 0, 1};
  genesis.state_store.flatten_interval = flatten_interval;
  return genesis;
}

/// Extends `chain` with `count` deterministic transfer-bearing blocks and
/// mirrors each submit into `also` (when given). Returns the block ids.
std::vector<Hash256> grow(Blockchain& chain, Blockchain* also, int count,
                          std::uint64_t* nonce) {
  const auto alice = key(1);
  const auto bob = key(2);
  const auto miner = key(3);
  std::vector<Hash256> ids;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t h = chain.best_height() + 1;
    std::vector<Transaction> txs;
    txs.push_back(transfer(alice, bob.address(), kEther / 100 + h, (*nonce)++));
    Block block = make_block(chain, chain.best_head(), h, h * 10, 1,
                             miner.address(),
                             std::move(txs));
    std::string why;
    EXPECT_TRUE(chain.submit_block(block, &why, /*skip_pow=*/true)) << why;
    if (also) EXPECT_TRUE(also->submit_block(block, &why, true)) << why;
    ids.push_back(block.id());
  }
  return ids;
}

/// Copies the store directory while its owner still has it open — byte-level
/// crash simulation: the copy has no clean-shutdown record or index footer.
void snapshot_dir(const std::string& from, const std::string& to) {
  std::filesystem::copy(from, to, std::filesystem::copy_options::recursive);
}

TEST(StoreChain, CleanReopenIsByteIdentical) {
  TempDir dir;
  GenesisConfig genesis = test_genesis(/*flatten_interval=*/8);
  util::Bytes expect_tip, expect_mid;
  Hash256 expect_head, mid_id;
  std::uint64_t nonce = 0;
  {
    Blockchain durable(genesis);
    Blockchain reference(genesis);
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
    const auto ids = grow(durable, &reference, 40, &nonce);
    mid_id = ids[20];
    expect_head = durable.best_head();
    EXPECT_EQ(reference.best_head(), expect_head);
    expect_tip = reference.best_state().encode();
    expect_mid = reference.state_of(mid_id)->encode();
    EXPECT_EQ(durable.best_state().encode(), expect_tip);
    durable.close();
    EXPECT_FALSE(durable.persistent());
  }
  Blockchain reopened(genesis);
  RecoveryReport report;
  std::string why;
  ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why, &report)) << why;
  EXPECT_TRUE(reopened.persistent());
  EXPECT_EQ(report.blocks_replayed, 40u);
  EXPECT_TRUE(report.clean_verified);
  EXPECT_FALSE(report.torn_tail_truncated);
  EXPECT_FALSE(report.recovered_prefix);
  EXPECT_EQ(reopened.best_head(), expect_head);
  EXPECT_EQ(reopened.best_height(), 40u);
  EXPECT_EQ(reopened.best_state().encode(), expect_tip);
  // Historic state materializes from an on-disk snapshot + delta replay.
  ASSERT_NE(reopened.state_of(mid_id), nullptr);
  EXPECT_EQ(reopened.state_of(mid_id)->encode(), expect_mid);
  // The canonical tx index was rebuilt: transactions are findable again.
  const Block* mid = reopened.block(mid_id);
  ASSERT_NE(mid, nullptr);
  ASSERT_FALSE(mid->transactions.empty());
  EXPECT_TRUE(reopened.find_transaction(mid->transactions[0].id()).has_value());
  // And the reopened chain keeps growing durably.
  grow(reopened, nullptr, 3, &nonce);
  EXPECT_EQ(reopened.best_height(), 43u);
}

TEST(StoreChain, DirtyReopenRecoversScanAndForkChoice) {
  TempDir dir;
  GenesisConfig genesis = test_genesis();
  Blockchain durable(genesis);
  Blockchain reference(genesis);
  std::string why;
  ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
  std::uint64_t nonce = 0;
  grow(durable, &reference, 25, &nonce);
  // Crash simulation: copy the live directory — fsync'd bytes only, no
  // footer, no clean record.
  snapshot_dir(dir.sub("store"), dir.sub("crashed"));

  Blockchain recovered(genesis);
  RecoveryReport report;
  ASSERT_TRUE(recovered.open(dir.sub("crashed"), {}, &why, &report)) << why;
  EXPECT_EQ(report.blocks_replayed, 25u);
  EXPECT_FALSE(report.clean_verified);
  EXPECT_FALSE(report.recovered_prefix);
  EXPECT_EQ(recovered.best_head(), reference.best_head());
  EXPECT_EQ(recovered.best_state().encode(), reference.best_state().encode());
}

TEST(StoreChain, LongEmptyChainReopensViaFooterAndViaScan) {
  // 10^3 empty blocks: long enough for several flatten-interval snapshots
  // and a footer index with a thousand entries.
  constexpr std::uint64_t kBlocks = 1'000;
  TempDir dir;
  const GenesisConfig genesis = test_genesis(/*flatten_interval=*/256);
  const auto miner = key(3);
  util::Bytes expect_tip;
  {
    Blockchain durable(genesis);
    Blockchain reference(genesis);
    PersistenceOptions options;
    options.fsync = false;
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("store"), options, &why)) << why;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      const Block block =
          durable.build_block_template(miner.address(), (i + 1) * 10, 1, {});
      ASSERT_TRUE(durable.submit_block(block, &why, /*skip_pow=*/true)) << why;
      ASSERT_TRUE(reference.submit_block(block, &why, true)) << why;
    }
    expect_tip = reference.best_state().encode();
    durable.close();
  }
  {  // Clean close: the footer index is used and the clean record verifies.
    Blockchain reopened(genesis);
    RecoveryReport report;
    std::string why;
    ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why, &report)) << why;
    EXPECT_TRUE(report.clean_verified);
    EXPECT_EQ(reopened.best_height(), kBlocks);
    EXPECT_EQ(reopened.best_state().encode(), expect_tip);
    reopened.close();
  }
  // RecordLog::open truncates the clean-close footer away and its plain
  // destructor does not rewrite it, so the next open must scan the log.
  ASSERT_TRUE(store::RecordLog::open(dir.sub("store") + "/blocks.log", false,
                                     nullptr));
  Blockchain scanned(genesis);
  std::string why;
  ASSERT_TRUE(scanned.open(dir.sub("store"), {}, &why)) << why;
  EXPECT_EQ(scanned.best_height(), kBlocks);
  EXPECT_EQ(scanned.best_state().encode(), expect_tip);
}

TEST(StoreChain, ForkAndReorgSurviveReopen) {
  TempDir dir;
  GenesisConfig genesis = test_genesis(/*flatten_interval=*/4);
  const auto miner_a = key(10);
  const auto miner_b = key(11);
  Blockchain durable(genesis);
  Blockchain reference(genesis);
  std::string why;
  ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;

  auto submit_both = [&](const Block& block) {
    ASSERT_TRUE(durable.submit_block(block, &why, true)) << why;
    ASSERT_TRUE(reference.submit_block(block, &why, true)) << why;
  };
  // Main branch: 5 empty difficulty-1 blocks by miner A.
  std::vector<Hash256> main_ids{durable.genesis_id()};
  for (std::uint64_t h = 1; h <= 5; ++h) {
    Block b = make_block(durable, main_ids.back(), h, h * 10, 1, miner_a.address());
    submit_both(b);
    main_ids.push_back(b.id());
  }
  // Fork from height 2 by miner B: same difficulty, arrives later — ties at
  // equal cumulative difficulty must keep the first-seen head.
  std::vector<Hash256> fork_ids{main_ids[2]};
  for (std::uint64_t h = 3; h <= 5; ++h) {
    Block b = make_block(durable, fork_ids.back(), h, h * 10 + 1, 1, miner_b.address());
    submit_both(b);
    fork_ids.push_back(b.id());
  }
  EXPECT_EQ(durable.best_head(), main_ids[5]);
  // One heavier block on the fork wins fork choice — a 3-deep reorg.
  Block heavy = make_block(durable, fork_ids.back(), 6, 62, 2, miner_b.address());
  submit_both(heavy);
  EXPECT_EQ(durable.best_head(), heavy.id());
  EXPECT_EQ(reference.best_head(), heavy.id());
  durable.close();

  Blockchain reopened(genesis);
  RecoveryReport report;
  ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why, &report)) << why;
  EXPECT_TRUE(report.clean_verified);
  EXPECT_EQ(report.blocks_replayed, 9u);  // 5 main + 3 fork + heavy
  EXPECT_EQ(reopened.best_head(), heavy.id());
  EXPECT_EQ(reopened.best_state().encode(), reference.best_state().encode());
  // Fork-side block is still stored and materializable.
  ASSERT_NE(reopened.block(main_ids[5]), nullptr);
  ASSERT_NE(reopened.state_of(main_ids[5]), nullptr);
  EXPECT_EQ(reopened.state_of(main_ids[5])->encode(),
            reference.state_of(main_ids[5])->encode());
}

TEST(StoreChain, GenesisMismatchIsRejected) {
  TempDir dir;
  GenesisConfig genesis = test_genesis();
  {
    Blockchain chain(genesis);
    std::string why;
    ASSERT_TRUE(chain.open(dir.sub("store"), {}, &why)) << why;
    std::uint64_t nonce = 0;
    grow(chain, nullptr, 2, &nonce);
    chain.close();
  }
  GenesisConfig other = test_genesis();
  other.allocations.push_back({key(99).address(), kEther});
  Blockchain wrong(other);
  std::string why;
  EXPECT_FALSE(wrong.open(dir.sub("store"), {}, &why));
  EXPECT_FALSE(wrong.persistent());
  // The right chain can still open the untouched directory.
  Blockchain right(genesis);
  EXPECT_TRUE(right.open(dir.sub("store"), {}, &why)) << why;
}

TEST(StoreChain, OpenRequiresFreshChain) {
  TempDir dir;
  GenesisConfig genesis = test_genesis();
  Blockchain chain(genesis);
  std::uint64_t nonce = 0;
  grow(chain, nullptr, 1, &nonce);
  std::string why;
  EXPECT_FALSE(chain.open(dir.sub("store"), {}, &why));
}

TEST(StoreChain, CompactDropsFinalizedOrphans) {
  TempDir dir;
  GenesisConfig genesis = test_genesis(/*flatten_interval=*/4);
  const auto miner_a = key(10);
  const auto miner_b = key(11);
  Blockchain durable(genesis);
  Blockchain reference(genesis);
  std::string why;
  ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
  auto submit_both = [&](const Block& block) {
    ASSERT_TRUE(durable.submit_block(block, &why, true)) << why;
    ASSERT_TRUE(reference.submit_block(block, &why, true)) << why;
  };
  // A height-1 orphan that loses fork choice immediately, then a long main
  // chain that finalizes past it.
  Block orphan = make_block(durable, durable.genesis_id(), 1, 11, 1, miner_b.address());
  submit_both(orphan);
  Hash256 parent = durable.genesis_id();
  for (std::uint64_t h = 1; h <= 12; ++h) {
    Block b = make_block(durable, parent, h, h * 10, 2, miner_a.address());
    submit_both(b);
    parent = b.id();
  }
  EXPECT_EQ(durable.best_head(), parent);
  ASSERT_TRUE(durable.compact_store(kConfirmationDepth, &why)) << why;
  durable.close();

  Blockchain reopened(genesis);
  RecoveryReport report;
  ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why, &report)) << why;
  EXPECT_EQ(report.blocks_replayed, 12u);  // orphan gone
  EXPECT_EQ(reopened.block(orphan.id()), nullptr);
  EXPECT_EQ(reopened.best_head(), parent);
  EXPECT_EQ(reopened.best_state().encode(), reference.best_state().encode());
}

// Honest memory: with a store attached, flatten-height snapshots live on disk
// (the state_snapshot_bytes gauge stays at its genesis value) yet historic
// states still materialize byte-exactly.
TEST(StoreChain, SnapshotsStayOnDiskOnly) {
  TempDir dir;
  GenesisConfig genesis = test_genesis(/*flatten_interval=*/4);
  telemetry::Telemetry tel;
  Blockchain durable(genesis, &tel);
  Blockchain reference(genesis);
  const char* kGaugeHelp = "Approximate retained bytes of all full state snapshots";
  const double genesis_snapshot_bytes =
      tel.registry.gauge("state_snapshot_bytes", kGaugeHelp).value();
  std::string why;
  ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
  std::uint64_t nonce = 0;
  const auto ids = grow(durable, &reference, 16, &nonce);
  // Four flatten heights passed (4, 8, 12, 16); none grew the in-memory
  // snapshot footprint.
  EXPECT_EQ(tel.registry.gauge("state_snapshot_bytes", kGaugeHelp).value(),
            genesis_snapshot_bytes);
  // Snapshot files landed on disk, and materialization reads them back.
  std::size_t snap_files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir.sub("store")))
    if (e.path().extension() == ".snap") ++snap_files;
  EXPECT_GE(snap_files, 4u);
  for (const std::uint64_t h : {4u, 8u, 12u}) {
    const Hash256& id = ids[h - 1];
    ASSERT_NE(durable.state_of(id), nullptr);
    EXPECT_EQ(durable.state_of(id)->encode(), reference.state_of(id)->encode());
  }
}

/// SHA-256 over every file of a store directory: name, then bytes, in name
/// order.
std::string dir_digest(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(dir))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  util::Bytes all;
  for (const auto& path : files) {
    const std::string name = path.filename().string();
    all.insert(all.end(), name.begin(), name.end());
    std::ifstream in(path, std::ios::binary);
    all.insert(all.end(), std::istreambuf_iterator<char>(in),
               std::istreambuf_iterator<char>());
  }
  return crypto::Sha256::digest(all).hex();
}

// A store grown on the pinned 10^3-entry genesis holds exactly the bytes the
// tree that committed genesis incrementally wrote, and reopens — from the
// height-8 snapshot plus two deltas — to byte-identical state under the same
// root.
TEST(StoreChain, PinnedGenesisStoreIsByteIdenticalAndReopens) {
  TempDir dir;
  const GenesisConfig genesis = pinned::genesis(/*flatten_interval=*/8);
  util::Bytes expect_tip;
  Hash256 expect_head;
  std::uint64_t nonce = 0;
  {
    Blockchain durable(genesis);
    Blockchain reference(genesis);
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
    grow(durable, &reference, 10, &nonce);
    expect_head = reference.best_head();
    expect_tip = reference.best_state().encode();
    durable.close();
  }
  EXPECT_EQ(dir_digest(dir.sub("store")), pinned::kStoreDigest);
  Blockchain reopened(genesis);
  RecoveryReport report;
  std::string why;
  ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why, &report)) << why;
  EXPECT_EQ(report.blocks_replayed, 10u);
  EXPECT_TRUE(report.clean_verified);
  EXPECT_EQ(reopened.best_head(), expect_head);
  EXPECT_EQ(reopened.best_state().encode(), expect_tip);
  EXPECT_EQ(reopened.state_root(), StateCommitment::root_of(reopened.best_state()));
}

// Recovery's root cross-check: a stored delta that disagrees with its block's
// header root fails open() and leaves the chain at pristine genesis. Covers
// both ways open() brings the commitment to the head: walking it on from
// genesis (the bad block sits below the first snapshot height) and
// rebuilding it on a durable snapshot first (the bad block sits above one).
TEST(StoreChain, RecoveryRejectsDeltaThatDisagreesWithHeaderRoot) {
  for (const int honest : {2, 9}) {  // flatten_interval 8: snapshot at 8
    SCOPED_TRACE("honest blocks " + std::to_string(honest));
    TempDir dir;
    const GenesisConfig genesis = test_genesis(/*flatten_interval=*/8);
    Blockchain reference(genesis);
    std::uint64_t nonce = 0;
    std::string why;
    {
      Blockchain durable(genesis);
      ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
      grow(durable, &reference, honest, &nonce);
    }
    std::size_t snap_files = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir.sub("store")))
      if (e.path().extension() == ".snap") ++snap_files;
    EXPECT_EQ(snap_files > 0, honest >= 8);

    // The next honest block, stored with a delta that credits bob one wei
    // more than its header's state root commits to.
    grow(reference, nullptr, 1, &nonce);
    const Hash256 bad_id = reference.best_head();
    StateDelta delta = *reference.delta_of(bad_id);
    StateDelta::AccountChange& bob = delta.changes.at(key(2).address());
    ASSERT_TRUE(bob.balance.has_value());
    bob.balance->second += 1;
    {
      auto store = store::BlockStore::open(dir.sub("store"), reference.genesis_id(),
                                           {}, nullptr, &why);
      ASSERT_TRUE(store) << why;
      ASSERT_TRUE(store->append_block(*reference.block(bad_id), delta, &why)) << why;
    }

    Blockchain victim(genesis);
    const Blockchain pristine(genesis);
    ASSERT_FALSE(victim.open(dir.sub("store"), {}, &why));
    EXPECT_NE(why.find("recovered state root mismatch"), std::string::npos) << why;
    EXPECT_FALSE(victim.persistent());
    EXPECT_EQ(victim.best_height(), 0u);
    EXPECT_EQ(victim.best_head(), victim.genesis_id());
    EXPECT_EQ(victim.best_state().encode(), pristine.best_state().encode());
    EXPECT_EQ(victim.state_root(), pristine.state_root());
    EXPECT_EQ(victim.state_root(), StateCommitment::root_of(victim.best_state()));
    // The failed open left the chain usable.
    EXPECT_TRUE(victim.open(dir.sub("fresh"), {}, &why)) << why;
  }
}

TEST(StoreChain, OldFormatLogIsRejectedWithVersionError) {
  // A pre-state-root (version 1) or signer-blind tx id (version 2) log must
  // fail open() with a message naming both the found and the supported
  // format — never a generic corruption report, and never a silent
  // re-initialization of the directory.
  for (const std::uint32_t old_version : {1u, 2u}) {
    TempDir dir;
    const std::string store_dir = dir.sub("store");
    std::filesystem::create_directory(store_dir);
    const GenesisConfig genesis = test_genesis();
    {
      // Hand-write an old meta record: u8 kind(0x01) | u32 version | genesis.
      const Hash256 genesis_id = Blockchain(genesis).genesis_id();
      auto opened =
          store::RecordLog::open(store_dir + "/blocks.log", false, nullptr);
      ASSERT_TRUE(opened.has_value() && opened->log);
      util::Writer w;
      w.u8(0x01);
      w.u32(old_version);
      w.raw(genesis_id.span());
      ASSERT_TRUE(opened->log->append(std::move(w).take()).has_value());
      ASSERT_TRUE(opened->log->sync());
    }
    Blockchain chain(genesis);
    std::string why;
    ASSERT_FALSE(chain.open(store_dir, {}, &why));
    EXPECT_NE(why.find("unsupported store format version " +
                       std::to_string(old_version)),
              std::string::npos)
        << why;
    EXPECT_NE(why.find("version 3"), std::string::npos) << why;
    EXPECT_FALSE(chain.persistent());
    // The old log is left intact for offline migration: same failure on retry.
    std::string again;
    EXPECT_FALSE(Blockchain(genesis).open(store_dir, {}, &again));
    EXPECT_EQ(again, why);
  }
}


// -- Deep history off the heap --------------------------------------------------

/// Everything a receipt carries, as comparable bytes.
util::Bytes receipt_bytes(const Receipt& r) {
  util::Writer w;
  w.raw(r.tx_id.span());
  w.u8(static_cast<std::uint8_t>(r.status));
  w.u64(r.gas_used);
  w.u64(r.fee_paid);
  w.raw(r.contract_address.span());
  w.u32(static_cast<std::uint32_t>(r.logs.size()));
  for (const auto& log : r.logs) {
    w.raw(log.contract.span());
    for (const auto& topic : log.topics) w.raw(topic.to_hash().span());
    w.bytes(log.data);
  }
  w.bytes(r.return_data);
  w.bytes(util::as_bytes(r.error));
  return std::move(w).take();
}

/// Every history API answers `durable` exactly as `twin`, for every
/// canonical height and every id in `extra`.
void expect_same_history(const Blockchain& durable, const Blockchain& twin,
                         const std::vector<Hash256>& extra) {
  ASSERT_EQ(durable.best_head(), twin.best_head());
  std::vector<Hash256> ids = extra;
  for (std::uint64_t h = 0; h <= twin.best_height(); ++h) {
    const Block* expect = twin.block_at(h);
    const Block* got = durable.block_at(h);
    ASSERT_NE(got, nullptr) << "height " << h;
    EXPECT_EQ(got->encode(), expect->encode()) << "height " << h;
    ids.push_back(expect->id());
    for (const Transaction& tx : expect->transactions) {
      const Receipt* want = twin.receipt_of(tx.id());
      const Receipt* have = durable.receipt_of(tx.id());
      ASSERT_NE(want, nullptr);
      ASSERT_NE(have, nullptr) << "height " << h;
      EXPECT_EQ(receipt_bytes(*have), receipt_bytes(*want)) << "height " << h;
    }
  }
  for (const Hash256& id : ids) {
    ASSERT_NE(durable.block(id), nullptr);
    EXPECT_EQ(durable.block(id)->encode(), twin.block(id)->encode());
    const auto* want = twin.receipts(id);
    const auto* have = durable.receipts(id);
    ASSERT_NE(have, nullptr);
    ASSERT_EQ(have->size(), want->size());
    for (std::size_t i = 0; i < want->size(); ++i)
      EXPECT_EQ(receipt_bytes((*have)[i]), receipt_bytes((*want)[i]));
    EXPECT_EQ(durable.delta_of(id)->encode(), twin.delta_of(id)->encode());
    ASSERT_NE(durable.state_of(id), nullptr);
    EXPECT_EQ(durable.state_of(id)->encode(), twin.state_of(id)->encode());
  }
  const auto want_records = twin.protocol_records(ProtocolKind::kSra);
  const auto have_records = durable.protocol_records(ProtocolKind::kSra);
  ASSERT_EQ(have_records.size(), want_records.size());
  for (std::size_t i = 0; i < want_records.size(); ++i) {
    EXPECT_EQ(have_records[i].first.block_id, want_records[i].first.block_id);
    EXPECT_EQ(have_records[i].first.index, want_records[i].first.index);
    EXPECT_EQ(have_records[i].second.encode(), want_records[i].second.encode());
  }
}

TEST(StoreChain, DeepHistoryMatchesRamOnlyTwin) {
  // K = 8: the durable chain keeps bodies, deltas and receipts for the top
  // eight heights only and reads everything deeper back from the store —
  // across a reorg forked 20 blocks deep and a close -> reopen.
  constexpr std::uint64_t kK = 8;
  TempDir dir;
  const GenesisConfig genesis = test_genesis(kK);
  const auto alice = key(1);
  const auto bob = key(2);
  const auto miner = key(3);
  std::vector<Hash256> fork_ids;
  std::vector<Hash256> main_ids;
  {
    Blockchain durable(genesis);
    Blockchain twin(genesis);
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
    // Main chain: 30 blocks, every third transfer tagged as an SRA record.
    for (std::uint64_t h = 1; h <= 30; ++h) {
      Transaction tx = transfer(alice, bob.address(), kEther / 100 + h, h - 1);
      if (h % 3 == 0) {
        tx.protocol = ProtocolKind::kSra;
        tx.protocol_payload = util::Bytes{static_cast<std::uint8_t>(h)};
        tx.sign_with(alice);
      }
      const Block block = make_block(durable, durable.best_head(), h, h * 10, 1,
                                     miner.address(), {tx});
      ASSERT_TRUE(durable.submit_block(block, &why, true)) << why;
      ASSERT_TRUE(twin.submit_block(block, &why, true)) << why;
      main_ids.push_back(block.id());
    }
    EXPECT_LE(durable.resident_block_count(), kK + 2);
    EXPECT_EQ(twin.resident_block_count(), twin.block_count());
    {
      SCOPED_TRACE("main chain");
      expect_same_history(durable, twin, {});
    }

    // A fork from height 10 (20 below the head) that overtakes at 31: each
    // fork block is sealed on an evicted parent, and the final head switch
    // unindexes main-chain blocks that already left RAM.
    Hash256 parent = main_ids[9];
    for (std::uint64_t h = 11; h <= 34; ++h) {
      Transaction tx = transfer(bob, alice.address(), kEther / 1000 + h, h - 11);
      if (h % 4 == 0) {
        tx.protocol = ProtocolKind::kSra;
        tx.protocol_payload = util::Bytes{static_cast<std::uint8_t>(100 + h)};
        tx.sign_with(bob);
      }
      const Block block = make_block(durable, parent, h, h * 10 + 5, 1,
                                     miner.address(), {tx});
      ASSERT_TRUE(durable.submit_block(block, &why, true)) << why;
      ASSERT_TRUE(twin.submit_block(block, &why, true)) << why;
      parent = block.id();
      fork_ids.push_back(parent);
    }
    ASSERT_EQ(durable.best_head(), fork_ids.back());
    EXPECT_EQ(durable.best_state().encode(), twin.best_state().encode());
    std::vector<Hash256> both = main_ids;
    both.insert(both.end(), fork_ids.begin(), fork_ids.end());
    {
      SCOPED_TRACE("after the reorg");
      expect_same_history(durable, twin, both);
    }

    // Reopen the directory: replay evicts deep history again and answers the
    // same, abandoned main-chain blocks included.
    durable.close();
    Blockchain reopened(genesis);
    ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why)) << why;
    EXPECT_LE(reopened.resident_block_count(), 2 * (kK + 2));
    SCOPED_TRACE("reopened");
    expect_same_history(reopened, twin, both);
  }
}

TEST(StoreChain, RamOnlyChainKeepsAllHistoryResident) {
  // Without a store nothing leaves RAM: every block keeps its body, delta
  // and receipts, and the pointers handed out stay valid as the chain grows.
  const GenesisConfig genesis = test_genesis(/*flatten_interval=*/4);
  Blockchain chain(genesis);
  std::uint64_t nonce = 0;
  const auto ids = grow(chain, nullptr, 40, &nonce);
  const Block* first = chain.block(ids[0]);
  const auto* first_receipts = chain.receipts(ids[0]);
  const StateDelta* first_delta = chain.delta_of(ids[0]);
  grow(chain, nullptr, 10, &nonce);
  EXPECT_EQ(chain.resident_block_count(), chain.block_count());
  EXPECT_EQ(chain.block(ids[0]), first);
  EXPECT_EQ(chain.receipts(ids[0]), first_receipts);
  EXPECT_EQ(chain.delta_of(ids[0]), first_delta);
  EXPECT_EQ(first->transactions.size(), 1u);
  EXPECT_EQ(first_receipts->size(), 1u);
  EXPECT_FALSE(first_delta->empty());
}

// -- Snapshot budget -----------------------------------------------------------
// A durable chain offers the store a snapshot at every flatten height; the
// store writes one only once the block log has grown, since the block of its
// newest snapshot, by at least that snapshot's file bytes.

/// Snapshot files of a store directory: height (from the file name) -> bytes.
std::map<std::uint64_t, std::uintmax_t> snapshot_files(const std::string& dir) {
  std::map<std::uint64_t, std::uintmax_t> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snap_", 0) != 0 || e.path().extension() != ".snap") continue;
    out[std::stoull(name.substr(5, 16), nullptr, 16)] = e.file_size();
  }
  return out;
}

std::uintmax_t log_bytes(const std::string& dir) {
  return std::filesystem::file_size(dir + "/blocks.log");
}

/// `count` blocks of `txs` transfers from alice, each carrying `data` zero
/// bytes of calldata, sealed on a RAM-only chain: the calldata grows the
/// block log without more signatures.
std::vector<Block> fat_blocks(const GenesisConfig& genesis, int count, int txs,
                              std::size_t data) {
  const auto alice = key(1);
  const auto miner = key(3);
  Blockchain chain(genesis);
  std::vector<Block> blocks;
  std::uint64_t nonce = 0;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t h = chain.best_height() + 1;
    std::vector<Transaction> body;
    for (int t = 0; t < txs; ++t) {
      Transaction tx;
      tx.kind = TxKind::kTransfer;
      tx.nonce = nonce++;
      tx.to = pinned::derived(h * 64 + static_cast<std::uint64_t>(t));
      tx.value = kEther / 1000;
      tx.data.assign(data, 0);
      tx.gas_limit = 21'000 + 4 * data;
      tx.sign_with(alice);
      body.push_back(std::move(tx));
    }
    blocks.push_back(make_block(chain, chain.best_head(), h, h * 10, 1,
                                miner.address(), std::move(body)));
    std::string why;
    EXPECT_TRUE(chain.submit_block(blocks.back(), &why, /*skip_pow=*/true)) << why;
  }
  return blocks;
}

/// Submits `blocks[from, to)` to `chain`, asserting each is accepted.
void submit_range(Blockchain& chain, const std::vector<Block>& blocks,
                  std::size_t from, std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    std::string why;
    ASSERT_TRUE(chain.submit_block(blocks[i], &why, /*skip_pow=*/true))
        << "height " << i + 1 << ": " << why;
  }
}

constexpr std::uint64_t kBudgetFlatten = 8;
constexpr int kBudgetBlocks = 48;

/// The chain every budget test grows: test_genesis plus 10^4 derived
/// accounts (a ~440 KB snapshot at ~44 bytes an account) and blocks of
/// ~33 KB of log, so a snapshot pays for itself after roughly fourteen
/// blocks — later than the next flatten height.
const GenesisConfig& budget_genesis() {
  static const GenesisConfig genesis = [] {
    GenesisConfig config = test_genesis(kBudgetFlatten);
    for (std::uint64_t i = 0; i < 10'000; ++i)
      config.allocations.emplace_back(pinned::derived(i), kEther);
    return config;
  }();
  return genesis;
}
const std::vector<Block>& budget_blocks() {
  static const std::vector<Block> blocks =
      fat_blocks(budget_genesis(), kBudgetBlocks, /*txs=*/8, /*data=*/4096);
  return blocks;
}

TEST(SnapshotBudget, FlattenHeightsWaitUntilTheLogPaysForASnapshot) {
  TempDir dir;
  const std::string store_dir = dir.sub("store");
  const std::vector<Block>& blocks = budget_blocks();
  Blockchain durable(budget_genesis());
  std::string why;
  ASSERT_TRUE(durable.open(store_dir, {}, &why)) << why;

  // The rule, replayed from outside: log size after each height (a block's
  // record starts where the previous height left the log), and the height
  // and file bytes of the newest snapshot.
  std::vector<std::uintmax_t> log_after{log_bytes(store_dir)};
  std::optional<std::pair<std::uint64_t, std::uintmax_t>> newest;
  std::vector<std::uint64_t> written, skipped;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    submit_range(durable, blocks, i, i + 1);
    const std::uint64_t h = i + 1;
    log_after.push_back(log_bytes(store_dir));
    if (h % kBudgetFlatten != 0) continue;
    const bool due = !newest || log_after[h] - log_after[newest->first - 1] >=
                                    newest->second;
    const auto files = snapshot_files(store_dir);
    ASSERT_EQ(files.contains(h), due) << "flatten height " << h;
    if (due) {
      newest = {h, files.at(h)};
      written.push_back(h);
    } else {
      skipped.push_back(h);
    }
  }
  // The first flatten height of a fresh store writes; the next ones wait for
  // the log to grow by that snapshot's bytes; then one is written.
  ASSERT_GE(written.size(), 2u);
  EXPECT_EQ(written[0], kBudgetFlatten);
  ASSERT_FALSE(skipped.empty());
  EXPECT_EQ(skipped[0], 2 * kBudgetFlatten);
  EXPECT_GT(written[1], skipped[0]);
  const std::uintmax_t first_bytes = snapshot_files(store_dir).at(written[0]);
  EXPECT_GT(first_bytes, 400'000u);
  EXPECT_GE(log_after[written[1]] - log_after[written[0] - 1], first_bytes);
  EXPECT_LT(log_after[written[1] - kBudgetFlatten] - log_after[written[0] - 1],
            first_bytes);
  // Historic states still materialize across the skipped heights.
  Blockchain reference(budget_genesis());
  submit_range(reference, blocks, 0, blocks.size());
  for (const std::uint64_t h : skipped) {
    const Hash256 id = blocks[h - 1].id();
    ASSERT_NE(durable.state_of(id), nullptr);
    EXPECT_EQ(durable.state_of(id)->encode(), reference.state_of(id)->encode());
  }
}

TEST(SnapshotBudget, DetachBetweenSnapshotsReopensWithinTheBudget) {
  TempDir dir;
  const std::vector<Block>& blocks = budget_blocks();
  // Where the uninterrupted chain writes its first two snapshots, and the
  // log size after each height.
  std::vector<std::uintmax_t> log_after;
  std::map<std::uint64_t, std::uintmax_t> files;
  {
    Blockchain durable(budget_genesis());
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("full"), {}, &why)) << why;
    log_after.push_back(log_bytes(dir.sub("full")));
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      submit_range(durable, blocks, i, i + 1);
      log_after.push_back(log_bytes(dir.sub("full")));
    }
    files = snapshot_files(dir.sub("full"));
  }
  ASSERT_GE(files.size(), 2u);
  const std::uint64_t first = files.begin()->first;
  const std::uint64_t second = std::next(files.begin())->first;
  // The budget in blocks: how many it takes, counting the first snapshot's
  // own, for the log to grow by that snapshot's bytes.
  std::uint64_t budget = 1;
  while (first - 1 + budget < log_after.size() - 1 &&
         log_after[first - 1 + budget] - log_after[first - 1] < files.at(first))
    ++budget;

  // Die one block short of the second snapshot: the deepest the replay gets.
  const std::uint64_t head = second - 1;
  Blockchain reference(budget_genesis());
  submit_range(reference, blocks, 0, head);
  {
    Blockchain durable(budget_genesis());
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
    submit_range(durable, blocks, 0, head);
    durable.detach_store();
  }
  Blockchain reopened(budget_genesis());
  RecoveryReport report;
  std::string why;
  ASSERT_TRUE(reopened.open(dir.sub("store"), {}, &why, &report)) << why;
  EXPECT_FALSE(report.clean_verified);
  EXPECT_EQ(report.blocks_replayed, head);
  EXPECT_EQ(reopened.best_head(), reference.best_head());
  EXPECT_EQ(reopened.state_root(), reference.state_root());
  EXPECT_EQ(reopened.best_state().encode(), reference.best_state().encode());
  // The tip was rebuilt from the first snapshot, with no more deltas on top
  // than the budget's blocks plus one flatten window.
  EXPECT_EQ(report.snapshot_height, first);
  EXPECT_GT(head - report.snapshot_height, kBudgetFlatten);
  EXPECT_LE(head - report.snapshot_height, budget + kBudgetFlatten);
}

TEST(SnapshotBudget, ReopenCountsFromTheNewestSnapshotNotFromTheOpen) {
  TempDir dir;
  const std::vector<Block>& blocks = budget_blocks();
  {
    Blockchain durable(budget_genesis());
    std::string why;
    ASSERT_TRUE(durable.open(dir.sub("straight"), {}, &why)) << why;
    submit_range(durable, blocks, 0, blocks.size());
  }
  const auto straight = snapshot_files(dir.sub("straight"));
  ASSERT_GE(straight.size(), 2u);
  const std::uint64_t first = straight.begin()->first;
  const std::uint64_t second = std::next(straight.begin())->first;
  ASSERT_FALSE(straight.contains(first + kBudgetFlatten));
  // Reopen just after the first snapshot, where a budget the open ignored
  // would write at the next flatten height; and just before the second,
  // where a budget reset by the open would write later. Either way the
  // reopened chain must write exactly the straight run's snapshots.
  for (const std::uint64_t split : {first + 1, second - 1}) {
    SCOPED_TRACE("reopen after height " + std::to_string(split));
    const std::string store_dir = dir.sub("split" + std::to_string(split));
    {
      Blockchain durable(budget_genesis());
      std::string why;
      ASSERT_TRUE(durable.open(store_dir, {}, &why)) << why;
      submit_range(durable, blocks, 0, split);
      durable.close();
    }
    Blockchain reopened(budget_genesis());
    std::string why;
    ASSERT_TRUE(reopened.open(store_dir, {}, &why)) << why;
    submit_range(reopened, blocks, split, blocks.size());
    EXPECT_EQ(snapshot_files(store_dir), straight);
  }
}

TEST(SnapshotBudget, SmallStateSnapshotsAtEveryFlattenHeight) {
  TempDir dir;
  const GenesisConfig genesis = test_genesis(/*flatten_interval=*/4);
  Blockchain durable(genesis);
  std::string why;
  ASSERT_TRUE(durable.open(dir.sub("store"), {}, &why)) << why;
  std::uint64_t nonce = 0;
  grow(durable, nullptr, 40, &nonce);
  std::vector<std::uint64_t> heights;
  for (const auto& [h, bytes] : snapshot_files(dir.sub("store"))) heights.push_back(h);
  EXPECT_EQ(heights, (std::vector<std::uint64_t>{4, 8, 12, 16, 20, 24, 28, 32, 36, 40}));
}

}  // namespace
}  // namespace sc::chain
