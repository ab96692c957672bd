// Cross-module integration: light clients against platform-produced chains,
// and long mixed schedules preserving global invariants.
#include <gtest/gtest.h>

#include "chain/light_client.hpp"
#include "core/consumer.hpp"
#include "core/platform.hpp"

namespace sc::core {
namespace {

using chain::kEther;

PlatformConfig base_config(std::uint64_t seed) {
  PlatformConfig config;
  for (double hp : {26.30, 22.10, 14.90, 12.30, 10.10})
    config.providers.push_back({hp, 200'000 * kEther});
  for (unsigned t : {1u, 3u, 5u, 8u}) config.detectors.push_back({t, 1'000 * kEther});
  config.seed = seed;
  return config;
}

TEST(Integration, LightClientVerifiesReportInclusionFromPlatformChain) {
  Platform platform(base_config(71));
  const auto sra = platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1500.0);
  ASSERT_GT(platform.confirmed_vulnerabilities(sra), 0u);

  // A lightweight detector holds only headers, synced from the full node.
  const chain::Blockchain& full = platform.blockchain();
  chain::LightClient light(full.block_at(0)->header);
  for (std::uint64_t h = 1; h <= full.best_height(); ++h) {
    std::string why;
    ASSERT_TRUE(light.accept_header(full.block_at(h)->header, &why,
                                    /*skip_pow=*/true))
        << why << " at height " << h;
  }
  EXPECT_EQ(light.best_head(), full.best_head());

  // SPV-verify every confirmed detailed report: full node provides block id
  // + Merkle proof, the light client checks against its headers only.
  std::size_t verified = 0;
  for (const auto& [loc, tx] :
       full.protocol_records(chain::ProtocolKind::kDetailedReport)) {
    const chain::Receipt* receipt = full.receipt_of(tx.id());
    if (!receipt || !receipt->ok()) continue;
    const chain::Block* block = full.block(loc.block_id);
    const auto proof = block->proof_for(loc.index);
    EXPECT_TRUE(light.verify_inclusion(tx.id(), loc.block_id, proof))
        << "report at height " << loc.height;
    ++verified;
  }
  EXPECT_GT(verified, 0u);
}

TEST(Integration, LongMixedScheduleKeepsInvariants) {
  Platform platform(base_config(72));
  util::Rng schedule_rng(72);
  std::vector<Hash256> sras;
  // 10 releases of varying quality across providers over ~100 minutes.
  for (int r = 0; r < 10; ++r) {
    const double vp = schedule_rng.uniform01();
    sras.push_back(platform.release_system(static_cast<std::size_t>(r % 5), vp,
                                           (100 + 100 * (r % 4)) * kEther,
                                           (1 + r % 3) * 5 * kEther));
    platform.run_for(600.0);
  }
  platform.run_for(800.0);

  // Invariant 1: value conservation (genesis + issuance only).
  const chain::Amount genesis_total =
      5 * 200'000 * kEther + 4 * 1'000 * kEther;
  EXPECT_EQ(platform.blockchain().best_state().total_supply(),
            genesis_total +
                platform.blockchain().best_height() * chain::kBlockReward);

  // Invariant 2: every detector's on-chain balance delta equals tracked
  // income minus tracked gas.
  for (std::size_t d = 0; d < 4; ++d) {
    const auto& stats = platform.detector_stats(d);
    EXPECT_EQ(platform.balance_of(platform.detector_address(d)) + stats.gas_spent,
              1'000 * kEther + stats.bounty_income)
        << "detector " << d;
  }

  // Invariant 3: escrow arithmetic per SRA — initial insurance is split
  // between bounty outflow, remaining balance, and (if clean) reclamation.
  Consumer consumer(platform.blockchain());
  for (const Hash256& sra_id : sras) {
    const auto view = consumer.inspect(sra_id, /*depth=*/0);
    if (!view) continue;
    const chain::Amount left = platform.balance_of(view->sra.contract);
    const auto reports = consumer.detection_reports(sra_id);
    chain::Amount paid = 0;
    for (const auto& report : reports)
      paid += view->sra.bounty_for_tier(
          static_cast<std::uint8_t>(report.description.front().severity));
    if (view->confirmed_vulns > 0) {
      EXPECT_EQ(left + paid, view->sra.insurance) << view->sra.name;
    } else {
      // Clean: either reclaimed (0 left) or reclaim still pending.
      EXPECT_TRUE(left == 0 || left == view->sra.insurance) << view->sra.name;
    }
  }

  // Invariant 4: confirmed vuln counts match the reports the consumer sees.
  for (const Hash256& sra_id : sras) {
    const auto view = consumer.inspect(sra_id, /*depth=*/0);
    if (!view) continue;
    EXPECT_EQ(consumer.detection_reports(sra_id).size(), view->confirmed_vulns);
  }
}

TEST(Integration, ParameterSweepConservesValueAcrossSeeds) {
  for (std::uint64_t seed : {101u, 202u, 303u}) {
    PlatformConfig config = base_config(seed);
    Platform platform(std::move(config));
    platform.release_system(0, 0.7, 500 * kEther, 10 * kEther);
    platform.run_for(900.0);
    const chain::Amount genesis_total =
        5 * 200'000 * kEther + 4 * 1'000 * kEther;
    EXPECT_EQ(platform.blockchain().best_state().total_supply(),
              genesis_total +
                  platform.blockchain().best_height() * chain::kBlockReward)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace sc::core
