// Consumer API: authoritative references and retrospective alerts.
#include <gtest/gtest.h>

#include "contracts/smartcrowd_contract.hpp"
#include "core/consumer.hpp"
#include "core/platform.hpp"

namespace sc::core {
namespace {

using chain::kEther;

PlatformConfig config_for(std::uint64_t seed) {
  PlatformConfig config;
  for (double hp : {26.30, 22.10, 14.90, 12.30, 10.10})
    config.providers.push_back({hp, 100'000 * kEther});
  for (unsigned t : {2u, 5u, 8u}) config.detectors.push_back({t, 1'000 * kEther});
  config.seed = seed;
  return config;
}

TEST(Consumer, ListsConfirmedSras) {
  Platform platform(config_for(51));
  const auto clean = platform.release_system(0, 0.0, 100 * kEther, kEther);
  const auto dirty = platform.release_system(1, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);

  Consumer consumer(platform.blockchain());
  const auto sras = consumer.list_confirmed_sras();
  ASSERT_EQ(sras.size(), 2u);

  const auto clean_view = consumer.inspect(clean);
  const auto dirty_view = consumer.inspect(dirty);
  ASSERT_TRUE(clean_view.has_value());
  ASSERT_TRUE(dirty_view.has_value());
  EXPECT_TRUE(clean_view->safe_to_deploy());
  EXPECT_FALSE(dirty_view->safe_to_deploy());
  EXPECT_GT(dirty_view->confirmed_vulns, 0u);
  // The dirty release's escrow has paid bounties out.
  EXPECT_FALSE(dirty_view->insurance_intact);
}

// insurance_intact means "no bounty was forfeited": a provider's reclaim
// empties an untouched escrow, and that must not read as a forfeit.
TEST(Consumer, ReclaimedEscrowReadsIntactAndPaidBountyDoesNot) {
  PlatformConfig config = config_for(51);
  config.reclaim_delay = 350.0;
  Platform platform(std::move(config));
  const auto clean = platform.release_system(0, 0.0, 100 * kEther, kEther);
  const auto dirty = platform.release_system(1, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);

  Consumer consumer(platform.blockchain());
  const auto clean_view = consumer.inspect(clean);
  const auto dirty_view = consumer.inspect(dirty);
  ASSERT_TRUE(clean_view.has_value());
  ASSERT_TRUE(dirty_view.has_value());
  const chain::WorldState& state = platform.blockchain().best_state();
  // The clean release was reclaimed: its escrow is empty and closed.
  EXPECT_EQ(clean_view->confirmed_vulns, 0u);
  ASSERT_TRUE(contracts::is_closed(state, clean_view->sra.contract));
  EXPECT_EQ(state.balance(clean_view->sra.contract), 0u);
  EXPECT_TRUE(clean_view->insurance_intact);
  // The dirty release paid bounties out of its escrow and cannot reclaim.
  EXPECT_GT(dirty_view->confirmed_vulns, 0u);
  EXPECT_FALSE(contracts::is_closed(state, dirty_view->sra.contract));
  EXPECT_FALSE(dirty_view->insurance_intact);
}

TEST(Consumer, InspectUnknownReturnsNothing)  {
  Platform platform(config_for(52));
  platform.run_for(100.0);
  Consumer consumer(platform.blockchain());
  EXPECT_FALSE(consumer.inspect(crypto::Hash256{}).has_value());
}

TEST(Consumer, UnconfirmedSraNotListed) {
  Platform platform(config_for(53));
  platform.release_system(0, 0.0, 100 * kEther, kEther);
  platform.run_for(30.0);  // SRA likely included but nowhere near 6-confirmed
  Consumer consumer(platform.blockchain());
  EXPECT_TRUE(consumer.list_confirmed_sras().empty());
}

TEST(Consumer, DetectionReportsExposeConfirmedReveals) {
  Platform platform(config_for(54));
  const auto sra = platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  platform.run_for(1200.0);
  Consumer consumer(platform.blockchain());
  const auto reports = consumer.detection_reports(sra);
  EXPECT_EQ(reports.size(), platform.confirmed_vulnerabilities(sra));
  for (const auto& report : reports) {
    EXPECT_EQ(report.sra_id, sra);
    EXPECT_FALSE(report.description.empty());
  }
}

TEST(Consumer, RetrospectiveAlertOnNewVulnerability) {
  Platform platform(config_for(55));
  const auto sra = platform.release_system(2, 1.0, 1000 * kEther, 10 * kEther);
  Consumer consumer(platform.blockchain());

  // Consumer deploys immediately (before any detection lands) — the risky
  // early-adopter case SmartRetro targets.
  platform.run_for(30.0);
  consumer.deploy(sra);
  EXPECT_TRUE(consumer.poll().empty());

  // Detection unfolds; the poll now raises a retrospective alert.
  platform.run_for(1200.0);
  const auto alerts = consumer.poll();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].sra_id, sra);
  EXPECT_GT(alerts[0].new_vuln_count, 0u);
  EXPECT_EQ(alerts[0].previously_known, 0u);

  // Idempotent: no repeat alert without new findings.
  EXPECT_TRUE(consumer.poll().empty());
}

TEST(Consumer, NoAlertForCleanDeployment) {
  Platform platform(config_for(56));
  const auto sra = platform.release_system(0, 0.0, 100 * kEther, kEther);
  Consumer consumer(platform.blockchain());
  platform.run_for(30.0);
  consumer.deploy(sra);
  platform.run_for(1200.0);
  EXPECT_TRUE(consumer.poll().empty());
}

TEST(Consumer, TracksMultipleDeployments) {
  Platform platform(config_for(57));
  const auto a = platform.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  const auto b = platform.release_system(1, 0.0, 100 * kEther, kEther);
  Consumer consumer(platform.blockchain());
  platform.run_for(30.0);
  consumer.deploy(a);
  consumer.deploy(b);
  EXPECT_TRUE(consumer.has_deployed(a));
  platform.run_for(1200.0);
  const auto alerts = consumer.poll();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].sra_id, a);
}

}  // namespace
}  // namespace sc::core
