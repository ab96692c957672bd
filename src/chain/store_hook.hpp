// Persistence hook: the abstract seam between chain::Blockchain and
// sc::store.
//
// sc_chain must not link sc_store (the store depends on chain types), so the
// blockchain only ever talks to this interface. The concrete implementation
// — and Blockchain::open(), which constructs it and replays the on-disk log —
// lives in src/store/blockchain_persist.cpp inside sc_store; binaries that
// want a durable node link sc_store, everything else pays nothing.
//
// Call ordering guaranteed by Blockchain::submit_block for every accepted
// block: append_block (block + delta, fsync'd by the hook) -> optional
// write_snapshot at flatten heights -> write_tip with the post-fork-choice
// canonical head. on_close carries the tip state digest for the clean-
// shutdown record. write_snapshot is an offer: the store decides from its
// byte counts whether this flatten height gets a snapshot file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/types.hpp"

namespace sc::chain {

struct Block;
struct StateDelta;
class WorldState;

class StoreHook {
 public:
  virtual ~StoreHook() = default;

  virtual bool append_block(const Block& block, const StateDelta& delta,
                            std::string* why) = 0;
  virtual bool write_tip(std::uint64_t height, const Hash256& id,
                         std::string* why) = 0;
  /// Offered at every flatten height. The store writes a full-state
  /// snapshot only once its log has grown, since the block of its newest
  /// snapshot, by at least that snapshot's bytes (the first offer to a fresh
  /// store always writes); true when it wrote one or did not need to.
  virtual bool write_snapshot(std::uint64_t height, const Hash256& id,
                              const WorldState& state, std::string* why) = 0;
  /// True when a durable full-state snapshot exists for this block, in which
  /// case load_snapshot can materialize it without delta replay.
  virtual bool has_snapshot(const Hash256& id) const = 0;
  virtual bool load_snapshot(const Hash256& id, WorldState* out) const = 0;
  /// Reads a stored block and its delta back (deep history that left RAM).
  virtual bool load_block(const Hash256& id, Block* block, StateDelta* delta) const = 0;
  /// Clean shutdown: journal the head with the tip state's digest and seal
  /// the log with its index footer.
  virtual bool on_close(std::uint64_t height, const Hash256& id,
                        const WorldState& tip_state) = 0;
  /// Rewrites the log keeping exactly `keep` (append order preserved).
  virtual bool compact(const std::vector<Hash256>& keep, std::string* why) = 0;
  /// True once a write failure degraded the backing store to read-only mode:
  /// further writes are refused, reads (snapshots, blocks) keep working, and
  /// Blockchain::submit_block falls back to RAM-only operation instead of
  /// rejecting blocks (see docs/robustness.md, degradation contract).
  virtual bool read_only() const { return false; }
};

}  // namespace sc::chain
