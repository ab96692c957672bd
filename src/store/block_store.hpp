// sc::store::BlockStore — the durable face of a SmartCrowd node.
//
// One directory holds the whole persistent chain:
//
//   blocks.log     append-only CRC-framed records (record_log.hpp): one meta
//                  record {format version, genesis id}, then one record per
//                  connected block carrying the block's wire encoding plus
//                  its StateDelta. A clean close appends an in-file index
//                  (hash -> {height, offset}) so reopen skips the tail scan
//                  and serves O(1) lookups without reading the body.
//   tip.wal        write-ahead tip journal (wal.hpp): fsync-ordered AFTER the
//                  block log so an acknowledged head always has durable bytes.
//   snap_*.snap    periodic full-state snapshots at the chain's flatten
//                  heights (WorldState::encode, CRC-framed, written
//                  tmp+rename so a crash never leaves a half snapshot).
//
// Durability per accepted block: append block+delta -> fsync log -> append
// tip record -> fsync journal -> acknowledge. Crash anywhere in between
// loses at most the unacknowledged suffix; open() repairs torn tails and
// surfaces what it found so chain::Blockchain can replay deltas from the
// nearest snapshot and cross-check the journal (see blockchain_persist.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/state.hpp"
#include "chain/state_journal.hpp"
#include "store/store_error.hpp"
#include "store/wal.hpp"

namespace sc::telemetry {
struct Telemetry;
}

namespace sc::store {

struct StoreOptions {
  /// fsync the log and journal at the contract points. Turning this off
  /// trades crash-durability of the newest blocks for append throughput
  /// (recovery still yields a valid prefix — just an older one).
  bool fsync = true;
};

/// tip.wal is rewritten down to its newest record every this many tip writes.
inline constexpr std::uint64_t kWalCompactEvery = 4096;

struct StoreStats {
  std::uint64_t blocks = 0;
  std::uint64_t max_height = 0;
  std::uint64_t log_bytes = 0;
  std::uint64_t snapshot_count = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t bytes_appended = 0;  ///< This process's appends, framing included.
  bool opened_existing = false;      ///< Log already held blocks at open.
  bool recovered_from_index = false; ///< Clean-close footer was used.
  bool torn_tail_truncated = false;
  std::uint64_t torn_tail_bytes = 0;
  std::optional<TipRecord> journal_tip;
};

class BlockStore {
 public:
  /// Opens (creating if absent) the store in `dir` and runs recovery.
  /// `genesis_id` must match the store's meta record; a mismatch (pointing a
  /// node at some other chain's data) fails the open. nullopt tel -> global.
  static std::unique_ptr<BlockStore> open(const std::string& dir,
                                          const crypto::Hash256& genesis_id,
                                          const StoreOptions& options,
                                          telemetry::Telemetry* tel,
                                          std::string* why);
  ~BlockStore();

  // -- Write path -----------------------------------------------------------
  /// Appends one connected block with its delta and fsyncs the log.
  bool append_block(const chain::Block& block, const chain::StateDelta& delta,
                    std::string* why);
  /// Journals the canonical head (call after append_block per the ordering
  /// contract) and fsyncs the journal.
  bool write_tip(std::uint64_t height, const crypto::Hash256& id,
                 std::string* why);
  /// True when the block log has grown, since the block of the newest
  /// snapshot, by at least that snapshot's file bytes — or when there is no
  /// snapshot yet. The chain offers a snapshot at every flatten height and
  /// the store writes one only when this holds, so snapshot bytes stay
  /// bounded by log bytes whatever the size of the state. After a reopen
  /// the newest snapshot file and its block's log offset restore the count.
  bool snapshot_due() const;
  /// Writes a full-state snapshot for the block (tmp+rename, fsync'd).
  bool write_snapshot(std::uint64_t height, const crypto::Hash256& id,
                      const chain::WorldState& state, std::string* why);
  /// Clean shutdown: clean tip record with the state digest, then the block
  /// log's in-file index footer. The store is unusable afterwards.
  bool close_clean(std::uint64_t height, const crypto::Hash256& id,
                   const crypto::Hash256& state_digest);

  /// Rewrites the block log keeping only `keep` (every id must be stored);
  /// snapshots of dropped blocks are deleted. Relative order is preserved, so
  /// replay semantics (arrival-order tie-breaks) survive compaction.
  bool compact(const std::vector<crypto::Hash256>& keep, std::string* why);

  // -- Read path ------------------------------------------------------------
  /// Visits every stored block in append order; callback returns false to
  /// stop. Returns false on decode failure (corruption past open()'s repair).
  bool for_each_block(
      const std::function<bool(chain::Block&&, chain::StateDelta&&)>& visit,
      std::string* why) const;

  /// Block and delta of one stored record (nullopt if unknown or unreadable).
  std::optional<std::pair<chain::Block, chain::StateDelta>> record_by_id(
      const crypto::Hash256& id) const;

  bool has_snapshot(const crypto::Hash256& id) const;
  std::optional<chain::WorldState> load_snapshot(const crypto::Hash256& id) const;

  const std::optional<TipRecord>& journal_tip() const;
  std::uint64_t block_count() const { return order_.size(); }
  const std::string& dir() const { return dir_; }
  StoreStats stats() const;

  // -- Degradation ----------------------------------------------------------
  /// True once a block-log or tip-journal write failure degraded the store:
  /// every write path is refused, every read path keeps working, and the
  /// on-disk log still ends at the last whole record (failed appends are
  /// rolled back). A degraded store reopens cleanly — the next open() scans
  /// the intact prefix. Snapshot failures do NOT degrade (tmp+rename keeps
  /// them isolated; the next flatten height simply retries).
  bool read_only() const { return read_only_; }
  /// First error that degraded the store (or the most recent non-degrading
  /// snapshot/compact error when not degraded).
  const StoreError& last_error() const { return last_error_; }

 private:
  BlockStore() = default;

  struct IndexEntry {
    std::uint64_t height = 0;
    std::uint64_t offset = 0;
  };

  util::Bytes encode_index() const;
  bool load_index(util::ByteSpan payload);
  bool index_block(const crypto::Hash256& id, std::uint64_t height,
                   std::uint64_t offset);
  void scan_snapshot_dir();
  /// Points the snapshot budget at the snapshot whose block sits latest in
  /// the log (none when no snapshot's block is stored).
  void rebase_snapshot_budget();
  void publish_metrics();
  /// Records an I/O failure (store_io_errors_total{op}); `degrading` flips
  /// the store into read-only mode and pins last_error() to the first such
  /// failure.
  void note_io_error(StoreErrorCode code, int sys_errno, std::string detail,
                     const char* op, bool degrading);

  std::string dir_;
  StoreOptions options_;
  struct Metrics;
  Metrics* metrics_ = nullptr;  ///< The sink's store families, set by open().
  std::unique_ptr<RecordLog> log_;
  std::unique_ptr<TipJournal> journal_;

  std::unordered_map<crypto::Hash256, IndexEntry> by_id_;
  std::vector<crypto::Hash256> order_;  ///< Append order (replay order).
  std::uint64_t max_height_ = 0;
  struct SnapshotFile {
    std::string path;
    std::uint64_t bytes = 0;  ///< File size, framing included.
  };
  std::unordered_map<crypto::Hash256, SnapshotFile> snapshots_;
  /// The newest snapshot's block's log offset and file bytes (snapshot_due).
  struct SnapshotBudget {
    std::uint64_t log_offset = 0;
    std::uint64_t bytes = 0;
  };
  std::optional<SnapshotBudget> budget_;

  crypto::Hash256 index_genesis_;  ///< Genesis id from/for the meta record.
  bool opened_existing_ = false;
  bool recovered_from_index_ = false;
  bool torn_tail_truncated_ = false;
  std::uint64_t torn_tail_bytes_ = 0;
  bool closed_ = false;
  bool read_only_ = false;   ///< Degraded: writes refused, reads served.
  StoreError last_error_;
  std::uint64_t last_log_size_ = 0;  ///< Log size at close (for stats()).
  /// fsyncs/bytes from short-lived RecordLogs (snapshots, compaction).
  std::uint64_t extra_fsyncs_ = 0;
  std::uint64_t extra_bytes_ = 0;

  // Last values pushed into the telemetry counters (counters are cumulative;
  // we publish increments).
  std::uint64_t published_bytes_ = 0;
  std::uint64_t published_fsyncs_ = 0;
  std::uint64_t published_wal_compactions_ = 0;
};

}  // namespace sc::store
