// End-to-end platform integration: SRA release → distributed detection →
// two-phase reports → confirmation → automated bounty payout → reclaim.
#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "telemetry/telemetry.hpp"

namespace sc::core {
namespace {

using chain::kEther;

PlatformConfig small_config(std::uint64_t seed = 7) {
  PlatformConfig config;
  // Paper Fig. 3a: top-5 Ethereum pool proportions.
  for (double hp : {26.30, 22.10, 14.90, 12.30, 10.10})
    config.providers.push_back({hp, 100'000 * kEther});
  for (unsigned t = 1; t <= 4; ++t) config.detectors.push_back({t, 1'000 * kEther});
  config.seed = seed;
  config.base_scan_time = 10.0;
  config.reclaim_delay = 300.0;
  return config;
}

TEST(Platform, MinesBlocksAtConfiguredRate) {
  Platform platform(small_config());
  platform.run_for(1500.0);
  const auto& intervals = platform.block_intervals();
  ASSERT_GT(intervals.size(), 50u);
  double sum = 0.0;
  for (double dt : intervals) sum += dt;
  const double mean = sum / static_cast<double>(intervals.size());
  EXPECT_GT(mean, 10.0);
  EXPECT_LT(mean, 20.0);  // target 15 s, wide tolerance for 100-ish samples
}

TEST(Platform, MiningRewardsTrackHashPower) {
  Platform platform(small_config(11));
  platform.run_for(6000.0);  // ~400 blocks
  std::uint64_t total_blocks = 0;
  for (std::size_t i = 0; i < 5; ++i)
    total_blocks += platform.provider_stats(i).blocks_mined;
  ASSERT_GT(total_blocks, 200u);
  // Highest-HP provider mines the most; shares within loose statistical bands.
  const double share0 = static_cast<double>(platform.provider_stats(0).blocks_mined) /
                        static_cast<double>(total_blocks);
  EXPECT_NEAR(share0, 0.263 / 0.857, 0.12);  // 26.30 of 85.7 total weight
  EXPECT_GT(platform.provider_stats(0).blocks_mined,
            platform.provider_stats(4).blocks_mined);
}

TEST(Platform, VulnerableReleaseEndsInBountyPayouts) {
  Platform platform(small_config(13));
  // VP = 1: the release is certainly vulnerable.
  const Hash256 sra_id = platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);  // scan + commit + 6-conf + reveal + 6-conf

  const std::uint64_t confirmed = platform.confirmed_vulnerabilities(sra_id);
  EXPECT_GT(confirmed, 0u);
  EXPECT_FALSE(platform.consumer_would_deploy(sra_id));

  Amount total_bounties = 0;
  std::uint64_t total_confirmed_reports = 0;
  for (std::size_t d = 0; d < 4; ++d) {
    total_bounties += platform.detector_stats(d).bounty_income;
    total_confirmed_reports += platform.detector_stats(d).reports_confirmed;
  }
  EXPECT_EQ(total_confirmed_reports, confirmed);
  EXPECT_EQ(total_bounties, confirmed * 10 * kEther);
  // The provider's escrow paid those bounties.
  EXPECT_EQ(platform.provider_stats(0).bounties_paid, total_bounties);
  EXPECT_EQ(platform.provider_stats(0).sras_vulnerable, 1u);
}

TEST(Platform, CleanReleaseReclaimsInsurance) {
  Platform platform(small_config(17));
  const Hash256 sra_id = platform.release_system(1, 0.0, 500 * kEther, 10 * kEther);
  platform.run_for(1200.0);
  EXPECT_EQ(platform.confirmed_vulnerabilities(sra_id), 0u);
  EXPECT_TRUE(platform.consumer_would_deploy(sra_id));
  const ProviderStats& stats = platform.provider_stats(1);
  EXPECT_EQ(stats.insurance_escrowed, 500 * kEther);
  EXPECT_EQ(stats.insurance_recovered, 500 * kEther);
  EXPECT_EQ(stats.sras_vulnerable, 0u);
}

TEST(Platform, FirstReporterWinsEachVulnerability) {
  Platform platform(small_config(19));
  const Hash256 sra_id = platform.release_system(2, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1500.0);

  // Each ground-truth vulnerability pays at most once even though several
  // detectors find it.
  const std::uint64_t confirmed = platform.confirmed_vulnerabilities(sra_id);
  const auto sra = platform.lookup_sra(sra_id);
  ASSERT_TRUE(sra.has_value());
  const auto* system = platform.corpus().find(sra->system_hash);
  ASSERT_NE(system, nullptr);
  EXPECT_LE(confirmed, system->ground_truth.size());

  std::uint64_t lost = 0;
  for (std::size_t d = 0; d < 4; ++d)
    lost += platform.detector_stats(d).reports_lost_race;
  // With 4 detectors racing over the same vulnerabilities, some must lose.
  EXPECT_GT(lost + confirmed, confirmed);  // at least one race happened
}

TEST(Platform, DetectorBalanceIsBountyMinusGas) {
  Platform platform(small_config(23));
  platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);
  for (std::size_t d = 0; d < 4; ++d) {
    const DetectorStats& stats = platform.detector_stats(d);
    const Amount genesis = 1'000 * kEther;
    const Amount now = platform.balance_of(platform.detector_address(d));
    // On-chain balance delta equals tracked income minus tracked gas.
    EXPECT_EQ(now + stats.gas_spent, genesis + stats.bounty_income)
        << "detector " << d;
  }
}

TEST(Platform, ValueConservation) {
  Platform platform(small_config(29));
  platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.release_system(3, 0.0, 250 * kEther, 5 * kEther);
  platform.run_for(900.0);
  // Total supply = genesis + block rewards; nothing minted or burned by the
  // protocol itself (escrows move value, never create it).
  const Amount genesis_total = 5 * 100'000 * kEther + 4 * 1'000 * kEther;
  const Amount expected =
      genesis_total + platform.blockchain().best_height() * chain::kBlockReward;
  EXPECT_EQ(platform.blockchain().best_state().total_supply(), expected);
}

TEST(Platform, HigherCapabilityEarnsMore) {
  PlatformConfig config = small_config(31);
  config.detectors.clear();
  config.detectors.push_back({1, 1'000 * kEther});
  config.detectors.push_back({8, 1'000 * kEther});
  Platform platform(std::move(config));
  // Several vulnerable releases to accumulate statistics.
  for (int i = 0; i < 4; ++i) {
    platform.release_system(static_cast<std::size_t>(i % 5), 1.0, 1000 * kEther,
                            10 * kEther);
    platform.run_for(400.0);
  }
  platform.run_for(800.0);
  EXPECT_GT(platform.detector_stats(1).bounty_income,
            platform.detector_stats(0).bounty_income);
}

TEST(Platform, ReportsPerBlockAndMeasuredParams) {
  Platform platform(small_config(37));
  platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);
  const IncentiveParams params = platform.measured_params();
  EXPECT_DOUBLE_EQ(params.nu, 5.0);
  EXPECT_GT(params.omega, 0.0);
  EXPECT_GT(params.psi, 0.0);
  EXPECT_LT(params.psi, 0.05);  // per-report fee stays in the 0.01-ish regime
}

TEST(Platform, DetectionWaitsForSraRecordedOnChain) {
  // Regression: with a slow first block, report submissions racing ahead of
  // the SRA deploy used to execute against a code-less address and register
  // nothing. Detection must only start once the registry contract is on
  // chain, so every ground-truth vulnerability is eventually recordable.
  PlatformConfig config;
  config.providers = {{26.3}, {22.1}, {14.9}};
  config.detectors = {{2}, {4}, {6}, {8}};
  config.seed = 2019;  // seed that historically triggered the race
  Platform platform(std::move(config));
  const Hash256 sra_id = platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);
  const auto sra = platform.lookup_sra(sra_id);
  const auto* system = platform.corpus().find(sra->system_hash);
  ASSERT_NE(system, nullptr);
  const std::uint64_t confirmed = platform.confirmed_vulnerabilities(sra_id);
  EXPECT_GT(confirmed, 0u);
  EXPECT_LE(confirmed, system->ground_truth.size());
}

TEST(Platform, TieredBountiesFlowThroughPlatform) {
  PlatformConfig config = small_config(61);
  config.strict_autoverif = true;
  Platform platform(std::move(config));
  // High findings pay 20, medium 10, low 2.
  const contracts::BountySchedule schedule{20 * kEther, 10 * kEther, 2 * kEther};
  const Hash256 sra_id =
      platform.release_system_tiered(0, 1.0, 1000 * kEther, schedule);
  platform.run_for(1500.0);

  const std::uint64_t confirmed = platform.confirmed_vulnerabilities(sra_id);
  ASSERT_GT(confirmed, 0u);

  // Total bounty income across detectors equals the escrow outflow, and
  // every payment is one of the three tier amounts.
  Amount total_income = 0;
  for (std::size_t d = 0; d < 4; ++d)
    total_income += platform.detector_stats(d).bounty_income;
  EXPECT_EQ(platform.provider_stats(0).bounties_paid, total_income);
  const auto sra = platform.lookup_sra(sra_id);
  const Amount escrow_left = platform.balance_of(sra->contract);
  EXPECT_EQ(escrow_left + total_income, 1000 * kEther);
  // Income is expressible as a non-negative combination of 20/10/2 eth and
  // consistent with the confirmed count (between all-low and all-high).
  EXPECT_GE(total_income, confirmed * 2 * kEther);
  EXPECT_LE(total_income, confirmed * 20 * kEther);
}

TEST(Platform, SraLookupRoundTrip) {
  Platform platform(small_config(41));
  const Hash256 sra_id = platform.release_system(0, 0.5, 100 * kEther, kEther);
  const auto sra = platform.lookup_sra(sra_id);
  ASSERT_TRUE(sra.has_value());
  EXPECT_EQ(sra->id, sra_id);
  EXPECT_EQ(verify_sra(*sra), Verdict::kOk);
  EXPECT_FALSE(platform.lookup_sra(Hash256{}).has_value());
}

TEST(Platform, ConfirmationLatencyHistogramPopulated) {
  // Injected sink: the submit→k-confirmation latency histogram must fill
  // from a full two-phase run, with virtual-time samples consistent with the
  // protocol floor (k=6 blocks at ~15 s each) and the matching counter.
  telemetry::Telemetry tel;
  PlatformConfig config = small_config(17);
  config.telemetry = &tel;
  Platform platform(std::move(config));
  platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);

  std::uint64_t committed = 0;
  for (std::size_t d = 0; d < 4; ++d)
    committed += platform.detector_stats(d).reports_committed;
  ASSERT_GT(committed, 0u);

  const telemetry::Histogram& h = tel.registry.histogram(
      "platform_report_confirmation_seconds",
      "Sim-time from R-dagger submission to k-deep confirmation",
      telemetry::HistogramSpec::latency_seconds());
  EXPECT_GT(h.count(), 0u);
  EXPECT_LE(h.count(), committed);
  // Six confirmations at ~15 s blocks: latencies live far above one block
  // and below the run horizon.
  EXPECT_GT(h.mean(), 15.0);
  EXPECT_LT(h.mean(), 1200.0);
  // Families register with their layer, so presence alone proves nothing:
  // at least one reveal must actually have been counted.
  std::uint64_t confirmed = 0;
  for (const auto& family : tel.registry.snapshot())
    if (family.name == "platform_reports_confirmed_total")
      for (const auto& series : family.series) confirmed += series.counter->value();
  EXPECT_GT(confirmed, 0u);
}

// Admission verifies through the chain's signature cache, so neither template
// sealing nor block validation verifies an admitted transaction again: every
// cache miss is one admission attempt, the template and the connect each hit
// once per transaction, and no block-level batch verify finds work left.
TEST(Platform, AdmissionSharesTheChainSignatureCache) {
  telemetry::Telemetry tel;
  PlatformConfig config = small_config(13);
  config.telemetry = &tel;
  Platform platform(std::move(config));
  const chain::SigCache& cache = platform.blockchain().sig_cache();
  platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  EXPECT_EQ(cache.misses(), 1u);  // The SRA, verified once at admission.
  platform.run_for(1200.0);

  std::uint64_t admitted = 0, rejected = 0, batch_verified = 0;
  for (const auto& family : tel.registry.snapshot()) {
    for (const auto& series : family.series) {
      if (!series.counter) continue;
      if (family.name == "mempool_admitted_total") admitted += series.counter->value();
      if (family.name == "mempool_rejected_total") {
        // Lost first-reporter races: refused by the gate after a valid
        // signature. Every reason has a series; only the gate's may count.
        if (series.labels.at(0).second != "gate") {
          ASSERT_EQ(series.counter->value(), 0u) << series.labels.at(0).second;
        }
        rejected += series.counter->value();
      }
      if (family.name == "chain_sig_batch_verified_total")
        batch_verified += series.counter->value();
    }
  }
  ASSERT_GT(admitted, 1u);
  std::uint64_t mined = 0;
  for (std::uint64_t h = 1; h <= platform.blockchain().best_height(); ++h)
    mined += platform.blockchain().block_at(h)->transactions.size();
  EXPECT_EQ(mined, admitted);
  EXPECT_EQ(cache.misses(), admitted + rejected);
  EXPECT_EQ(cache.hits(), 2 * admitted);
  EXPECT_EQ(batch_verified, 0u);
}

}  // namespace
}  // namespace sc::core
