// Kill-at-random-point crash recovery — the load-bearing test of sc::store.
//
// Each trial forks a writer child that opens a durable chain in a fresh
// directory and submits a deterministic block sequence with fsync on; the
// parent SIGKILLs it after a random delay, reopens the directory, and
// requires (a) open() succeeds, (b) the recovered chain is a prefix of the
// sequence, and (c) the recovered tip state is byte-identical to the
// in-memory reference state at that height. Over enough trials the kill
// lands in every window of the append -> fsync -> tip-journal ordering.
//
// Trial count defaults small for CI latency; scripts/check.sh raises it via
// SC_CRASH_TRIALS (the acceptance bar is >= 200 across runs). A second case
// runs the same trials on a state large enough that the store's snapshot
// budget skips flatten heights, so kills also land between snapshots that
// are several flatten windows apart.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "pinned_genesis.hpp"
#include "util/rng.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

/// A transfer carrying `data` zero bytes of calldata (which grows the block
/// log without more signatures).
Transaction transfer(const crypto::KeyPair& from, const Address& to, Amount value,
                     std::uint64_t nonce, std::size_t data = 0) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.data.assign(data, 0);
  tx.gas_limit = 21'000 + 4 * data;
  tx.sign_with(from);
  return tx;
}

GenesisConfig crash_genesis() {
  const auto alice = key(1);
  const auto bob = key(2);
  GenesisConfig genesis{
      {{alice.address(), 500 * kEther}, {bob.address(), 100 * kEther}}, 0, 1};
  genesis.state_store.flatten_interval = 4;  // exercise snapshot writes too
  return genesis;
}

/// crash_genesis plus 2 000 derived accounts: a ~90 KB snapshot, which the
/// log of build_sequence(.., 2, 4096) pays for only every few flatten heights.
GenesisConfig large_crash_genesis() {
  GenesisConfig genesis = crash_genesis();
  for (std::uint64_t i = 0; i < 2'000; ++i)
    genesis.allocations.emplace_back(pinned::derived(i), kEther);
  return genesis;
}

/// The deterministic sequence every trial writes: `count` linear blocks of
/// `txs` transfers, each with `data` bytes of calldata.
std::vector<Block> build_sequence(const GenesisConfig& genesis, int count,
                                  int txs = 1, std::size_t data = 0) {
  const auto alice = key(1);
  const auto bob = key(2);
  const auto miner = key(3);
  Blockchain chain(genesis);
  std::vector<Block> blocks;
  for (int i = 0; i < count; ++i) {
    const std::uint64_t h = chain.best_height() + 1;
    Block block;
    block.header.height = h;
    block.header.prev_id = chain.best_head();
    block.header.timestamp = h * 10;
    block.header.difficulty = 1;
    block.header.miner = miner.address();
    for (int t = 0; t < txs; ++t)
      block.transactions.push_back(
          transfer(alice, bob.address(), kEther / 1000 + h,
                   (h - 1) * static_cast<std::uint64_t>(txs) + t, data));
    block.seal_merkle_root();
    EXPECT_TRUE(chain.seal_state_root(block));
    std::string why;
    EXPECT_TRUE(chain.submit_block(block, &why, /*skip_pow=*/true)) << why;
    blocks.push_back(block);
  }
  return blocks;
}

/// Reference tip-state encoding after each height (index 0 = genesis).
std::vector<util::Bytes> reference_states(const GenesisConfig& genesis,
                                          const std::vector<Block>& blocks) {
  Blockchain chain(genesis);
  std::vector<util::Bytes> states{chain.best_state().encode()};
  for (const Block& block : blocks) {
    std::string why;
    EXPECT_TRUE(chain.submit_block(block, &why, true)) << why;
    states.push_back(chain.best_state().encode());
  }
  return states;
}

int env_trials(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (!value || !*value) return fallback;
  const int parsed = std::atoi(value);
  return parsed > 0 ? parsed : fallback;
}

/// Heights of the snapshot files in a store directory (from their names).
std::set<std::uint64_t> snapshot_heights(const std::string& dir) {
  std::set<std::uint64_t> out;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("snap_", 0) == 0 && e.path().extension() == ".snap")
      out.insert(std::stoull(name.substr(5, 16), nullptr, 16));
  }
  return out;
}

/// Kills a writer child of `blocks` at random points and checks every
/// recovery (see the file comment). `calibration_snapshots` receives the
/// snapshot heights the uninterrupted calibration run left on disk.
void run_kill_trials(const GenesisConfig& genesis, const std::vector<Block>& blocks,
                     std::set<std::uint64_t>* calibration_snapshots) {
  const int count = static_cast<int>(blocks.size());
  const std::vector<util::Bytes> references = reference_states(genesis, blocks);
  ASSERT_EQ(references.size(), static_cast<std::size_t>(count) + 1);

  char tmpl[] = "/tmp/sc_store_crash_XXXXXX";
  const std::string root = ::mkdtemp(tmpl);

  // Calibrate the kill window: time one uninterrupted child run.
  const int trials = env_trials("SC_CRASH_TRIALS", 25);
  util::Rng rng(42);
  std::uint64_t full_run_us = 0;
  int completed = 0, killed_mid_write = 0;

  for (int trial = 0; trial <= trials; ++trial) {
    const std::string dir = root + "/t" + std::to_string(trial);
    const bool calibration = trial == 0;
    struct timespec start {};
    clock_gettime(CLOCK_MONOTONIC, &start);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: write the whole sequence with full fsync ordering, then make
      // the shutdown dirty anyway (no close()) — the clean path is covered by
      // store_chain_test; here even a completed run must recover by scan.
      Blockchain chain(genesis);
      PersistenceOptions options;
      options.fsync = true;
      if (!chain.open(dir, options)) _exit(2);
      for (const Block& block : blocks)
        if (!chain.submit_block(block, nullptr, true)) _exit(3);
      _exit(0);
    }

    int status = 0;
    if (calibration) {
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
          << "calibration child failed, status " << status;
      struct timespec end {};
      clock_gettime(CLOCK_MONOTONIC, &end);
      // Signed throughout: tv_nsec of the later sample may be *smaller* than
      // the earlier one, and routing that negative difference through an
      // unsigned cast would wrap to ~2^64 and stall every trial in usleep.
      const std::int64_t elapsed_us =
          (static_cast<std::int64_t>(end.tv_sec) - start.tv_sec) * 1'000'000 +
          (static_cast<std::int64_t>(end.tv_nsec) - start.tv_nsec) / 1000;
      full_run_us = elapsed_us > 0 ? static_cast<std::uint64_t>(elapsed_us) : 0;
      if (full_run_us < 2'000) full_run_us = 2'000;
      // Bound the kill window even if calibration hit a disk stall: a capped
      // window only biases kills earlier, which every assertion tolerates.
      if (full_run_us > 1'000'000) full_run_us = 1'000'000;
      *calibration_snapshots = snapshot_heights(dir);
    } else {
      // Kill somewhere inside (or occasionally after) the write window.
      ::usleep(static_cast<useconds_t>(rng.uniform(full_run_us + full_run_us / 4)));
      ::kill(pid, SIGKILL);
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      if (WIFSIGNALED(status))
        ++killed_mid_write;
      else
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // Recovery: open must succeed and yield a byte-identical prefix.
    Blockchain recovered(genesis);
    RecoveryReport report;
    std::string why;
    ASSERT_TRUE(recovered.open(dir, {}, &why, &report))
        << "trial " << trial << ": " << why;
    const std::uint64_t height = recovered.best_height();
    ASSERT_LE(height, static_cast<std::uint64_t>(count)) << "trial " << trial;
    // The canonical chain must be exactly the first `height` blocks...
    for (std::uint64_t h = 1; h <= height; ++h) {
      const Block* stored = recovered.block_at(h);
      ASSERT_NE(stored, nullptr) << "trial " << trial << " height " << h;
      EXPECT_EQ(stored->id(), blocks[h - 1].id()) << "trial " << trial;
    }
    // ...and the tip state byte-identical to the reference at that height.
    EXPECT_EQ(recovered.best_state().encode(), references[height])
        << "trial " << trial << " recovered height " << height;
    // The journal never acknowledges more than the log can replay, so a
    // recovered prefix is only ever reported when the tail was torn.
    if (report.recovered_prefix) EXPECT_TRUE(report.torn_tail_truncated);
    if (height == static_cast<std::uint64_t>(count)) ++completed;

    // The recovered chain must be writable: extend it by one block.
    if (height < static_cast<std::uint64_t>(count)) {
      ASSERT_TRUE(recovered.submit_block(blocks[height], &why, true))
          << "trial " << trial << ": " << why;
      EXPECT_EQ(recovered.best_state().encode(), references[height + 1]);
    }
    recovered.close();
    std::filesystem::remove_all(dir);
  }
  // Sanity on the harness itself: the kill window actually hit mid-write at
  // least once (otherwise the timing calibration is broken).
  if (trials >= 10) EXPECT_GT(killed_mid_write, 0);
  std::filesystem::remove_all(root);
}

TEST(StoreCrash, RandomKillAlwaysRecoversAPrefix) {
  const GenesisConfig genesis = crash_genesis();
  std::set<std::uint64_t> snapshots;
  run_kill_trials(genesis, build_sequence(genesis, 24), &snapshots);
  // A small state snapshots at every flatten height.
  EXPECT_EQ(snapshots, (std::set<std::uint64_t>{4, 8, 12, 16, 20, 24}));
}

TEST(StoreCrash, RandomKillAcrossSkippedSnapshotHeights) {
  const GenesisConfig genesis = large_crash_genesis();
  std::set<std::uint64_t> snapshots;
  run_kill_trials(genesis, build_sequence(genesis, 32, /*txs=*/2, /*data=*/4096),
                  &snapshots);
  // The budget wrote at the first flatten height, skipped some, and wrote
  // again before the end of the sequence.
  ASSERT_GE(snapshots.size(), 2u);
  EXPECT_EQ(*snapshots.begin(), 4u);
  EXPECT_LT(snapshots.size(), 8u);
}

}  // namespace
}  // namespace sc::chain
