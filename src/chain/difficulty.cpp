#include "chain/difficulty.hpp"

#include <algorithm>

namespace sc::chain {

std::uint64_t adjust_per_block(std::uint64_t parent_difficulty,
                               std::uint64_t parent_timestamp,
                               std::uint64_t child_timestamp,
                               const RetargetConfig& config) {
  const double dt = static_cast<double>(child_timestamp) -
                    static_cast<double>(parent_timestamp);
  const double factor = std::clamp(
      1.0 - dt / config.target_block_time, -99.0, 1.0);
  const double step =
      static_cast<double>(parent_difficulty) / 2048.0 * factor;
  const double next = static_cast<double>(parent_difficulty) + step;
  return std::max<std::uint64_t>(config.min_difficulty,
                                 static_cast<std::uint64_t>(std::max(next, 1.0)));
}

}  // namespace sc::chain
