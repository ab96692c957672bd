#include "store/block_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "store/record_log.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hex.hpp"
#include "util/serialize.hpp"

namespace sc::store {
namespace {

namespace fs = std::filesystem;

constexpr std::uint8_t kRecordMeta = 0x01;
constexpr std::uint8_t kRecordBlock = 0x02;
constexpr std::uint8_t kRecordIndex = 0x7F;
// v1: original block log. v2: BlockHeader carries state_root (wire layout of
// every embedded header changed). v3: tx ids hash the signed encoding, so
// every stored Merkle root changed. Older logs are rejected up front with a
// clear version error instead of failing deep inside block validation.
constexpr std::uint32_t kFormatVersion = 3;

std::string format_version_error(const std::string& dir, std::uint32_t found) {
  return dir + ": unsupported store format version " + std::to_string(found) +
         " (this build reads version " + std::to_string(kFormatVersion) +
         "; v3 tx ids commit to the signer, changing every Merkle root — "
         "re-sync or migrate)";
}

bool set_why(std::string* why, std::string msg) {
  if (why) *why = std::move(msg);
  return false;
}

/// fsyncs the directory entry metadata (rename/create durability). False
/// when the directory cannot be opened or the fsync fails — callers surface
/// that through the StoreError path instead of assuming the rename is
/// durable.
bool sync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

util::Bytes encode_meta(const crypto::Hash256& genesis_id) {
  util::Writer w;
  w.u8(kRecordMeta);
  w.u32(kFormatVersion);
  w.raw(genesis_id.span());
  return std::move(w).take();
}

struct MetaRecord {
  std::uint32_t version = 0;
  crypto::Hash256 genesis;
};

/// Structural decode only — the caller compares `version`, so an old-format
/// log earns a precise error instead of a generic corruption report.
std::optional<MetaRecord> decode_meta(util::ByteSpan payload) {
  util::Reader r(payload);
  const auto kind = r.u8();
  const auto version = r.u32();
  const auto genesis = r.raw(32);
  if (!kind || *kind != kRecordMeta || !version || !genesis || !r.empty())
    return std::nullopt;
  return MetaRecord{*version, crypto::Hash256::from_span(*genesis)};
}

util::Bytes encode_block_payload(const chain::Block& block,
                                 const chain::StateDelta& delta) {
  util::Writer w;
  w.u8(kRecordBlock);
  w.bytes(block.encode());
  w.bytes(delta.encode());
  return std::move(w).take();
}

struct DecodedBlock {
  chain::Block block;
  chain::StateDelta delta;
};

std::optional<DecodedBlock> decode_block_payload(util::ByteSpan payload) {
  util::Reader r(payload);
  const auto kind = r.u8();
  if (!kind || *kind != kRecordBlock) return std::nullopt;
  const auto block_bytes = r.bytes_bounded(r.remaining());
  if (!block_bytes) return std::nullopt;
  const auto delta_bytes = r.bytes_bounded(r.remaining());
  if (!delta_bytes || !r.empty()) return std::nullopt;
  auto block = chain::Block::decode(*block_bytes);
  if (!block) return std::nullopt;
  auto delta = chain::StateDelta::decode(*delta_bytes);
  if (!delta) return std::nullopt;
  return DecodedBlock{std::move(*block), std::move(*delta)};
}

/// Indexing fast path: id + height from the header alone, no tx decode.
std::optional<std::pair<crypto::Hash256, std::uint64_t>> peek_block_payload(
    util::ByteSpan payload) {
  util::Reader r(payload);
  const auto kind = r.u8();
  if (!kind || *kind != kRecordBlock) return std::nullopt;
  const auto block_bytes = r.bytes_bounded(r.remaining());
  if (!block_bytes) return std::nullopt;
  util::Reader rb(*block_bytes);
  const auto header_bytes = rb.bytes_bounded(rb.remaining());
  if (!header_bytes) return std::nullopt;
  const auto header = chain::BlockHeader::deserialize(*header_bytes);
  if (!header) return std::nullopt;
  return std::make_pair(header->id(), header->height);
}

std::string snapshot_file_name(std::uint64_t height, const crypto::Hash256& id) {
  char height_hex[17];
  std::snprintf(height_hex, sizeof height_hex, "%016llx",
                static_cast<unsigned long long>(height));
  return std::string("snap_") + height_hex + "_" + id.hex().substr(0, 16) +
         ".snap";
}

/// {height, id, length-prefixed WorldState::encode()}, encoded in place: the
/// state is written straight after its length prefix, which is patched once
/// the size is known, so the payload is the only copy of the state's bytes.
util::Bytes encode_snapshot_payload(std::uint64_t height,
                                    const crypto::Hash256& id,
                                    const chain::WorldState& state) {
  util::Writer w;
  w.u64(height);
  w.raw(id.span());
  w.u32(0);
  util::Bytes payload = std::move(w).take();
  const std::size_t prefix = payload.size();
  state.encode_to(payload);
  const std::size_t length = payload.size() - prefix;
  for (std::size_t i = 0; i < 4; ++i)
    payload[prefix - 4 + i] = static_cast<std::uint8_t>(length >> (8 * i));
  return payload;
}

}  // namespace

struct BlockStore::Metrics {
  telemetry::Registry& r;  ///< Also serves store_io_errors_total{op}, by name.
  telemetry::Counter& recovery_replays = r.counter(
      "store_recovery_replays_total", "Store opens that replayed an existing block log");
  telemetry::Counter& torn_tail_truncations =
      r.counter("store_torn_tail_truncations_total",
                "Torn log tails detected and truncated during recovery");
  telemetry::Counter& log_compactions =
      r.counter("store_log_compactions_total",
                "Block-log rewrites that dropped orphaned fork blocks");
  telemetry::Counter& compacted_blocks_dropped =
      r.counter("store_compacted_blocks_dropped_total",
                "Orphaned blocks removed from the log by compaction");
  telemetry::Counter& bytes_appended =
      r.counter("store_bytes_appended_total",
                "Bytes appended to store files (log, journal, snapshots), "
                "framing included");
  telemetry::Counter& fsyncs =
      r.counter("store_fsyncs_total", "fsync calls issued by the store");
  telemetry::Counter& wal_compactions = r.counter(
      "store_wal_compactions_total", "Tip-journal rewrites down to the newest record");
  telemetry::Counter& snapshots_written =
      r.counter("store_snapshots_written_total", "Full-state snapshot files written");
  telemetry::Gauge& log_bytes =
      r.gauge("store_log_bytes", "Current size of the append-only block log");
  telemetry::Gauge& snapshot_count =
      r.gauge("store_snapshot_count", "State snapshot files on disk");
};

std::unique_ptr<BlockStore> BlockStore::open(const std::string& dir,
                                             const crypto::Hash256& genesis_id,
                                             const StoreOptions& options,
                                             telemetry::Telemetry* tel,
                                             std::string* why) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    set_why(why, "create " + dir + ": " + ec.message());
    return nullptr;
  }

  auto store = std::unique_ptr<BlockStore>(new BlockStore);
  store->dir_ = dir;
  store->options_ = options;
  store->metrics_ = &telemetry::resolve(tel).handles<Metrics>();

  auto opened = RecordLog::open(dir + "/blocks.log", options.fsync, why);
  if (!opened) return nullptr;
  store->log_ = std::move(opened->log);
  store->torn_tail_truncated_ = opened->torn_tail_truncated;
  store->torn_tail_bytes_ = opened->truncated_bytes;

  bool meta_seen = false;
  if (opened->had_footer) {
    if (!store->load_index(opened->footer)) {
      // Distinguish an old-format index from plain corruption.
      util::Reader peek(opened->footer);
      const auto kind = peek.u8();
      const auto version = peek.u32();
      if (kind && *kind == kRecordIndex && version && *version != kFormatVersion)
        return set_why(why, format_version_error(dir, *version)), nullptr;
      return set_why(why, dir + ": corrupt clean-close index"), nullptr;
    }
    meta_seen = true;  // the index payload carries (and verified) the meta
    store->recovered_from_index_ = true;
    if (store->index_genesis_ != genesis_id)
      return set_why(why, dir + ": store belongs to a different genesis"),
             nullptr;
  } else {
    // Scan whatever survived tail repair, indexing headers as we go.
    bool corrupt = false;
    std::string scan_error;
    const bool scan_ok = store->log_->scan([&](std::uint64_t offset,
                                               util::Bytes payload) {
      if (payload.empty()) {
        corrupt = true;
        return false;
      }
      if (!meta_seen) {
        const auto meta = decode_meta(payload);
        if (!meta) {
          corrupt = true;
          return false;
        }
        if (meta->version != kFormatVersion) {
          corrupt = true;
          scan_error = format_version_error(dir, meta->version);
          return false;
        }
        if (meta->genesis != genesis_id) {
          corrupt = true;
          scan_error = dir + ": store belongs to a different genesis";
          return false;
        }
        meta_seen = true;
        return true;
      }
      const auto peeked = peek_block_payload(payload);
      if (!peeked) {
        corrupt = true;
        return false;
      }
      return store->index_block(peeked->first, peeked->second, offset);
    });
    if (!scan_ok || corrupt)
      return set_why(why, scan_error.empty()
                              ? dir + ": unrecoverable block log (bad meta or "
                                      "record kind)"
                              : scan_error),
             nullptr;
  }

  if (!meta_seen) {
    // Fresh (or repaired-to-empty) log: stamp the meta record.
    if (!store->log_->append(encode_meta(genesis_id)) || !store->log_->sync())
      return set_why(why, dir + ": cannot write meta record"), nullptr;
    if (options.fsync && !sync_dir(dir))
      return set_why(why, dir + ": directory fsync failed"), nullptr;
  }
  store->index_genesis_ = genesis_id;
  store->opened_existing_ = !store->order_.empty();

  store->journal_ = TipJournal::open(dir + "/tip.wal", options.fsync,
                                     kWalCompactEvery, why);
  if (!store->journal_) return nullptr;

  store->scan_snapshot_dir();
  store->rebase_snapshot_budget();

  if (store->opened_existing_) store->metrics_->recovery_replays.inc();
  if (store->torn_tail_truncated_) store->metrics_->torn_tail_truncations.inc();
  store->publish_metrics();
  return store;
}

BlockStore::~BlockStore() = default;

bool BlockStore::index_block(const crypto::Hash256& id, std::uint64_t height,
                             std::uint64_t offset) {
  if (by_id_.contains(id)) return false;  // duplicate record = corruption
  by_id_.emplace(id, IndexEntry{height, offset});
  order_.push_back(id);
  max_height_ = std::max(max_height_, height);
  return true;
}

util::Bytes BlockStore::encode_index() const {
  util::Writer w;
  w.u8(kRecordIndex);
  w.u32(kFormatVersion);
  w.raw(index_genesis_.span());
  w.u32(static_cast<std::uint32_t>(order_.size()));
  for (const auto& id : order_) {
    const IndexEntry& entry = by_id_.at(id);
    w.raw(id.span());
    w.u64(entry.height);
    w.u64(entry.offset);
  }
  return std::move(w).take();
}

bool BlockStore::load_index(util::ByteSpan payload) {
  util::Reader r(payload);
  const auto kind = r.u8();
  const auto version = r.u32();
  const auto genesis = r.raw(32);
  const auto count = r.u32();
  if (!kind || *kind != kRecordIndex || !version ||
      *version != kFormatVersion || !genesis || !count)
    return false;
  index_genesis_ = crypto::Hash256::from_span(*genesis);
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto id = r.raw(32);
    const auto height = r.u64();
    const auto offset = r.u64();
    if (!id || !height || !offset) return false;
    if (!index_block(crypto::Hash256::from_span(*id), *height, *offset))
      return false;
  }
  return r.empty();
}

void BlockStore::scan_snapshot_dir() {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() < 10 || name.rfind("snap_", 0) != 0) continue;
    if (name.size() >= 4 && name.substr(name.size() - 4) == ".tmp") {
      // Half-written snapshot from a crash mid-write: never renamed into
      // place, so it holds nothing durable. Drop it.
      fs::remove(entry.path(), ec);
      continue;
    }
    if (name.substr(name.size() - 5) != ".snap") continue;
    // Trust the payload, not the file name: read height + id from the record.
    auto opened =
        RecordLog::open(entry.path().string(), false, nullptr, "store.snap");
    if (!opened || !opened->log) continue;
    opened->log->scan([&](std::uint64_t, util::Bytes payload) {
      util::Reader r(payload);
      const auto height = r.u64();
      const auto id = r.raw(32);
      if (height && id)
        snapshots_[crypto::Hash256::from_span(*id)] = {entry.path().string(),
                                                       opened->log->size()};
      return false;  // single-record file
    });
  }
}

void BlockStore::rebase_snapshot_budget() {
  budget_.reset();
  for (const auto& [id, file] : snapshots_) {
    const auto indexed = by_id_.find(id);
    if (indexed == by_id_.end()) continue;  // its block did not survive
    if (!budget_ || indexed->second.offset > budget_->log_offset)
      budget_ = SnapshotBudget{indexed->second.offset, file.bytes};
  }
}

bool BlockStore::snapshot_due() const {
  return !budget_ || !log_ || log_->size() - budget_->log_offset >= budget_->bytes;
}

void BlockStore::note_io_error(StoreErrorCode code, int sys_errno,
                               std::string detail, const char* op,
                               bool degrading) {
  metrics_->r
      .counter("store_io_errors_total",
               "Store I/O failures surfaced as StoreError, by operation", {{"op", op}})
      .inc();
  StoreError error{code, sys_errno, std::move(detail)};
  if (degrading) {
    if (!read_only_) last_error_ = error;  // first degrading error wins
    read_only_ = true;
  } else if (!read_only_) {
    last_error_ = std::move(error);
  }
}

bool BlockStore::append_block(const chain::Block& block,
                              const chain::StateDelta& delta, std::string* why) {
  if (closed_ || !log_) return set_why(why, "store is closed");
  if (read_only_)
    return set_why(why, "store is read-only (degraded): " +
                            last_error_.to_string());
  const crypto::Hash256 id = block.id();
  if (by_id_.contains(id)) return set_why(why, "block already stored");
  const auto offset = log_->append(encode_block_payload(block, delta));
  if (!offset) {
    // The failed append was rolled back (or the log poisoned itself trying):
    // the durable prefix is intact, so degrade rather than abort — reads and
    // a later reopen keep working.
    note_io_error(StoreErrorCode::kAppendFailed, log_->last_errno(),
                  "block log append, block " + id.hex().substr(0, 16),
                  "append", /*degrading=*/true);
    return set_why(why, "log append failed: " + last_error_.to_string());
  }
  if (!log_->sync()) {
    // The bytes may or may not be durable; the in-memory index must not run
    // ahead of what a reopen can trust, so the block is NOT indexed.
    note_io_error(StoreErrorCode::kFsyncFailed, log_->last_errno(),
                  "block log fsync, block " + id.hex().substr(0, 16), "fsync",
                  /*degrading=*/true);
    return set_why(why, "log fsync failed: " + last_error_.to_string());
  }
  index_block(id, block.header.height, *offset);
  publish_metrics();
  return true;
}

bool BlockStore::write_tip(std::uint64_t height, const crypto::Hash256& id,
                           std::string* why) {
  if (closed_ || !journal_) return set_why(why, "store is closed");
  if (read_only_)
    return set_why(why, "store is read-only (degraded): " +
                            last_error_.to_string());
  if (!journal_->write_tip(height, id)) {
    note_io_error(StoreErrorCode::kTipFailed, errno,
                  "tip journal write at height " + std::to_string(height),
                  "tip", /*degrading=*/true);
    return set_why(why, "tip journal write failed: " + last_error_.to_string());
  }
  publish_metrics();
  return true;
}

bool BlockStore::write_snapshot(std::uint64_t height, const crypto::Hash256& id,
                                const chain::WorldState& state,
                                std::string* why) {
  if (closed_) return set_why(why, "store is closed");
  if (read_only_)
    return set_why(why, "store is read-only (degraded): " +
                            last_error_.to_string());
  // Snapshot failures never degrade the store: the tmp+rename dance keeps a
  // failed write invisible (reopen cleans stray .tmp files) and the next
  // flatten height retries. They are still counted and surfaced.
  auto snapshot_error = [&](std::string detail) {
    note_io_error(StoreErrorCode::kSnapshotFailed, errno, detail, "snapshot",
                  /*degrading=*/false);
    return set_why(why, "snapshot failed: " + std::move(detail));
  };
  const std::string name = snapshot_file_name(height, id);
  const std::string tmp = dir_ + "/" + name + ".tmp";
  const std::string final_path = dir_ + "/" + name;
  std::remove(tmp.c_str());
  std::uint64_t file_bytes = 0;
  {
    auto opened = RecordLog::open(tmp, options_.fsync, why, "store.snap");
    if (!opened || !opened->log)
      return snapshot_error("open " + tmp + " failed");
    if (!opened->log->append(encode_snapshot_payload(height, id, state)))
      return snapshot_error("write " + tmp + " failed");
    if (!opened->log->sync()) return snapshot_error("fsync " + tmp + " failed");
    extra_fsyncs_ += opened->log->fsync_count();
    extra_bytes_ += opened->log->appended_bytes();
    file_bytes = opened->log->size();
  }
  if (std::rename(tmp.c_str(), final_path.c_str()) != 0)
    return snapshot_error("rename to " + final_path + " failed");
  if (options_.fsync && !sync_dir(dir_))
    return snapshot_error("directory fsync after rename failed");
  snapshots_[id] = {final_path, file_bytes};
  const auto indexed = by_id_.find(id);
  budget_ = SnapshotBudget{
      indexed != by_id_.end() ? indexed->second.offset : log_->size(), file_bytes};
  metrics_->snapshots_written.inc();
  publish_metrics();
  return true;
}

bool BlockStore::close_clean(std::uint64_t height, const crypto::Hash256& id,
                             const crypto::Hash256& state_digest) {
  if (closed_) return false;
  closed_ = true;
  if (read_only_) {
    // Degraded close: the log (possibly poisoned) must not be appended to —
    // no clean-tip record, no index footer. Dropping the objects closes the
    // descriptors; the next open() scans the intact prefix.
    if (log_) {
      extra_fsyncs_ += log_->fsync_count();
      extra_bytes_ += log_->appended_bytes();
      last_log_size_ = log_->size();
    }
    journal_.reset();
    log_.reset();
    publish_metrics();
    return false;
  }
  bool ok = true;
  if (journal_) ok = journal_->close_clean(height, id, state_digest) && ok;
  if (log_) {
    // Metrics must capture the footer bytes before the log object is gone.
    ok = log_->close_with_footer(encode_index()) && ok;
    extra_fsyncs_ += log_->fsync_count();
    extra_bytes_ += log_->appended_bytes();
    last_log_size_ = log_->size();
    log_.reset();
  }
  publish_metrics();
  return ok;
}

bool BlockStore::compact(const std::vector<crypto::Hash256>& keep,
                         std::string* why) {
  if (closed_ || !log_) return set_why(why, "store is closed");
  if (read_only_)
    return set_why(why, "store is read-only (degraded): " +
                            last_error_.to_string());
  std::unordered_map<crypto::Hash256, bool> keep_set;
  for (const auto& id : keep) {
    if (!by_id_.contains(id))
      return set_why(why, "compact: id not stored: " + id.hex().substr(0, 16));
    keep_set.emplace(id, true);
  }

  const std::string tmp = dir_ + "/blocks.log.tmp";
  std::remove(tmp.c_str());
  auto fresh = RecordLog::open(tmp, options_.fsync, why);
  if (!fresh || !fresh->log) return false;
  if (!fresh->log->append(encode_meta(index_genesis_)))
    return set_why(why, "compact: meta write failed");

  // Copy kept records in their original append order so replay tie-breaks
  // (first-seen wins) are preserved across compaction.
  std::vector<crypto::Hash256> new_order;
  std::unordered_map<crypto::Hash256, IndexEntry> new_by_id;
  // Failures in this loop leave the original log_ open and untouched: the
  // store keeps serving, only the compaction attempt is abandoned.
  for (const auto& id : order_) {
    if (!keep_set.contains(id)) continue;
    const IndexEntry& entry = by_id_.at(id);
    const auto payload = log_->read_at(entry.offset);
    if (!payload) {
      note_io_error(StoreErrorCode::kReadFailed, errno,
                    "compact source record " + id.hex().substr(0, 16), "read",
                    /*degrading=*/false);
      return set_why(why, "compact: source record unreadable");
    }
    const auto offset = fresh->log->append(*payload);
    if (!offset) {
      note_io_error(StoreErrorCode::kCompactFailed, errno, "compact append",
                    "compact", /*degrading=*/false);
      return set_why(why, "compact: append failed");
    }
    new_by_id.emplace(id, IndexEntry{entry.height, *offset});
    new_order.push_back(id);
  }
  if (!fresh->log->sync()) {
    note_io_error(StoreErrorCode::kCompactFailed, errno, "compact fsync",
                  "compact", /*degrading=*/false);
    return set_why(why, "compact: fsync failed");
  }
  extra_fsyncs_ += fresh->log->fsync_count();
  extra_bytes_ += fresh->log->appended_bytes();
  const std::uint64_t dropped = order_.size() - new_order.size();

  // Swap files under quiesced descriptors; a crash before the rename leaves
  // the original log untouched.
  fresh->log.reset();
  log_.reset();
  if (std::rename(tmp.c_str(), (dir_ + "/blocks.log").c_str()) != 0) {
    const int rename_errno = errno;
    // The original log is still in place — reopen it so the store keeps
    // working; only if that also fails is the store degraded.
    auto back = RecordLog::open(dir_ + "/blocks.log", options_.fsync, nullptr);
    if (back && back->log) {
      log_ = std::move(back->log);
      note_io_error(StoreErrorCode::kCompactFailed, rename_errno,
                    "compact rename", "compact", /*degrading=*/false);
    } else {
      note_io_error(StoreErrorCode::kCompactFailed, rename_errno,
                    "compact rename + log reopen", "compact",
                    /*degrading=*/true);
    }
    return set_why(why, "compact: rename failed: " +
                            std::string(std::strerror(rename_errno)));
  }
  if (options_.fsync && !sync_dir(dir_))
    note_io_error(StoreErrorCode::kCompactFailed, errno,
                  "directory fsync after compact rename", "dir_sync",
                  /*degrading=*/false);
  auto reopened = RecordLog::open(dir_ + "/blocks.log", options_.fsync, why);
  if (!reopened) {
    note_io_error(StoreErrorCode::kCompactFailed, errno,
                  "compacted log reopen", "compact", /*degrading=*/true);
    return false;
  }
  log_ = std::move(reopened->log);

  // Rebuild the in-memory view; drop snapshots of discarded blocks.
  order_ = std::move(new_order);
  by_id_ = std::move(new_by_id);
  max_height_ = 0;
  for (const auto& id : order_)
    max_height_ = std::max(max_height_, by_id_.at(id).height);
  for (auto it = snapshots_.begin(); it != snapshots_.end();) {
    if (keep_set.contains(it->first)) {
      ++it;
    } else {
      std::remove(it->second.path.c_str());
      it = snapshots_.erase(it);
    }
  }
  rebase_snapshot_budget();

  metrics_->log_compactions.inc();
  metrics_->compacted_blocks_dropped.add(dropped);
  publish_metrics();
  return true;
}

bool BlockStore::for_each_block(
    const std::function<bool(chain::Block&&, chain::StateDelta&&)>& visit,
    std::string* why) const {
  if (!log_) return set_why(why, "store is closed");
  for (const auto& id : order_) {
    const auto payload = log_->read_at(by_id_.at(id).offset);
    if (!payload) return set_why(why, "record unreadable at indexed offset");
    auto decoded = decode_block_payload(*payload);
    if (!decoded) return set_why(why, "stored block record fails to decode");
    if (!visit(std::move(decoded->block), std::move(decoded->delta))) break;
  }
  return true;
}

std::optional<std::pair<chain::Block, chain::StateDelta>> BlockStore::record_by_id(
    const crypto::Hash256& id) const {
  if (!log_) return std::nullopt;
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  const auto payload = log_->read_at(it->second.offset);
  if (!payload) return std::nullopt;
  auto decoded = decode_block_payload(*payload);
  if (!decoded) return std::nullopt;
  return std::make_pair(std::move(decoded->block), std::move(decoded->delta));
}

bool BlockStore::has_snapshot(const crypto::Hash256& id) const {
  return snapshots_.contains(id);
}

std::optional<chain::WorldState> BlockStore::load_snapshot(
    const crypto::Hash256& id) const {
  const auto it = snapshots_.find(id);
  if (it == snapshots_.end()) return std::nullopt;
  auto opened = RecordLog::open(it->second.path, false, nullptr, "store.snap");
  if (!opened || !opened->log) return std::nullopt;
  std::optional<chain::WorldState> state;
  opened->log->scan([&](std::uint64_t, util::Bytes payload) {
    util::Reader r(payload);
    const auto height = r.u64();
    const auto rec_id = r.raw(32);
    const auto state_bytes = r.bytes_bounded(r.remaining());
    if (height && rec_id && state_bytes && r.empty() &&
        crypto::Hash256::from_span(*rec_id) == id)
      state = chain::WorldState::decode(*state_bytes);
    return false;
  });
  return state;
}

const std::optional<TipRecord>& BlockStore::journal_tip() const {
  static const std::optional<TipRecord> kNone;
  return journal_ ? journal_->tip() : kNone;
}

StoreStats BlockStore::stats() const {
  StoreStats s;
  s.blocks = order_.size();
  s.max_height = max_height_;
  s.log_bytes = log_ ? log_->size() : last_log_size_;
  s.snapshot_count = snapshots_.size();
  s.fsyncs = (log_ ? log_->fsync_count() : 0) +
             (journal_ ? journal_->fsync_count() : 0) + extra_fsyncs_;
  s.bytes_appended = (log_ ? log_->appended_bytes() : 0) +
                     (journal_ ? journal_->appended_bytes() : 0) + extra_bytes_;
  s.opened_existing = opened_existing_;
  s.recovered_from_index = recovered_from_index_;
  s.torn_tail_truncated = torn_tail_truncated_;
  s.torn_tail_bytes = torn_tail_bytes_;
  s.journal_tip = journal_ ? journal_->tip() : std::nullopt;
  return s;
}

void BlockStore::publish_metrics() {
  const StoreStats s = stats();
  auto publish = [](telemetry::Counter& counter, std::uint64_t now,
                    std::uint64_t& published) {
    if (now <= published) return;
    counter.add(now - published);
    published = now;
  };
  publish(metrics_->bytes_appended, s.bytes_appended, published_bytes_);
  publish(metrics_->fsyncs, s.fsyncs, published_fsyncs_);
  publish(metrics_->wal_compactions, journal_ ? journal_->compactions() : 0,
          published_wal_compactions_);
  metrics_->log_bytes.set(static_cast<double>(s.log_bytes));
  metrics_->snapshot_count.set(static_cast<double>(s.snapshot_count));
}

}  // namespace sc::store
