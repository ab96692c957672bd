// Difficulty retargeting: keeps the block interval near the 15 s target as
// hashing power joins or leaves the provider pool.
//
// The paper fixes difficulty (0xf00000) on its 5-node testbed, and so does
// this chain's consensus: a block's difficulty is checked only by its proof
// of work. A deployable SmartCrowd would need retargeting, because provider
// participation is dynamic; bench/ext_retarget measures how this
// Ethereum-homestead-style per-block controller converges under churn.
#pragma once

#include <cstdint>

#include "chain/block.hpp"

namespace sc::chain {

struct RetargetConfig {
  double target_block_time = kTargetBlockTime;
  std::uint64_t min_difficulty = 1;
};

/// Per-block adjustment (Ethereum-homestead flavour):
/// next = parent + parent/2048 * clamp(1 - (ts_child - ts_parent)/target, -99, 1).
std::uint64_t adjust_per_block(std::uint64_t parent_difficulty,
                               std::uint64_t parent_timestamp,
                               std::uint64_t child_timestamp,
                               const RetargetConfig& config);

}  // namespace sc::chain
