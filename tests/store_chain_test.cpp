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

#include <filesystem>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
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

TEST(StoreChain, OldFormatLogIsRejectedWithVersionError) {
  // A pre-state-root (version 1) log must fail open() with a message naming
  // both the found and the supported format — never a generic corruption
  // report, and never a silent re-initialization of the directory.
  TempDir dir;
  const std::string store_dir = dir.sub("store");
  std::filesystem::create_directory(store_dir);
  const GenesisConfig genesis = test_genesis();
  {
    // Hand-write a v1 meta record: u8 kind(0x01) | u32 version(1) | genesis.
    const Hash256 genesis_id = Blockchain(genesis).genesis_id();
    auto opened =
        store::RecordLog::open(store_dir + "/blocks.log", false, nullptr);
    ASSERT_TRUE(opened.has_value() && opened->log);
    util::Writer w;
    w.u8(0x01);
    w.u32(1);
    w.raw(genesis_id.span());
    ASSERT_TRUE(opened->log->append(std::move(w).take()).has_value());
    ASSERT_TRUE(opened->log->sync());
  }
  Blockchain chain(genesis);
  std::string why;
  ASSERT_FALSE(chain.open(store_dir, {}, &why));
  EXPECT_NE(why.find("unsupported store format version 1"), std::string::npos)
      << why;
  EXPECT_NE(why.find("version 2"), std::string::npos) << why;
  EXPECT_FALSE(chain.persistent());
  // The old log is left intact for offline migration: same failure on retry.
  std::string again;
  EXPECT_FALSE(Blockchain(genesis).open(store_dir, {}, &again));
  EXPECT_EQ(again, why);
}

}  // namespace
}  // namespace sc::chain
