// Fig. 5 — balance of IoT providers.
//
// (a) The VP baseline (VPB: vulnerability proportion at which incentives
//     equal punishments) versus hashing power, for observation windows of
//     10/20/30 minutes at 1000 ether insurance. Paper: higher HP → larger
//     VPB (e.g. 0.038 for 14.90% HP at 10 min).
// (b) Provider balance at VPB-0.01 / VPB / VPB+0.01 over a 10-minute window:
//     break-even at VPB, ±0.01 swings the balance by ∓10 ether. Each
//     simulated (b') row also prints the exact integer sum of the net
//     balances it averages, so a one-neth change in any payout shows.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "core/economics.hpp"
#include "core/platform.hpp"

int main(int argc, char** argv) {
  using namespace sc;
  using chain::kEther;
  const std::uint64_t seed = bench::flag_u64(argc, argv, "seed", 5);
  const std::uint64_t trials = bench::flag_u64(argc, argv, "runs", 60);

  bench::header("Fig. 5: balance of IoT providers (insurance 1000 eth)");

  // Calibrate ψ·ω from a quick measurement run so the closed form reflects
  // this implementation's fee level.
  core::PlatformConfig probe_cfg;
  const std::vector<double> hp{26.30, 22.10, 14.90, 12.30, 10.10};
  for (double share : hp) probe_cfg.providers.push_back({share, 100'000 * kEther});
  for (unsigned t : {3u, 6u}) probe_cfg.detectors.push_back({t, 1'000 * kEther});
  probe_cfg.seed = seed;
  core::Platform probe(std::move(probe_cfg));
  probe.release_system(0, 1.0, 1000 * kEther, 10 * kEther);
  probe.run_for(1200.0);
  core::IncentiveParams params = probe.measured_params();
  params.cp = 0.030;
  params.theta = 600.0;  // one release per 10 minutes

  bench::subheader("(a) VPB vs hashing power, for 10/20/30-minute windows");
  std::printf("%-10s %-12s %-12s %-12s\n", "HP (%)", "t=10 min", "t=20 min",
              "t=30 min");
  const auto shares = core::normalized_shares(hp);
  for (std::size_t i = 0; i < hp.size(); ++i) {
    std::printf("%-10.2f", hp[i]);
    for (double window : {600.0, 1200.0, 1800.0}) {
      // Within a window of t seconds the provider makes t/θ releases; VPB is
      // window-independent in the closed form (both sides scale with t), but
      // the paper reports it per window — we mirror that presentation and
      // let θ equal the window (one release per window).
      core::IncentiveParams p = params;
      p.theta = window;
      std::printf(" %-11.4f", core::solve_vpb(p, shares[i], 1000.0));
    }
    std::printf("\n");
  }
  std::printf("(paper reports VPB=0.038 for 14.90%% HP at 10 min; our "
              "economics land\n in the same band — higher HP always yields a "
              "larger VPB)\n");

  bench::subheader("(b) balance at VPB-0.01 / VPB / VPB+0.01 (10-minute window)");
  std::printf("%-10s %-12s %-12s %-12s  (closed form, eth)\n", "HP (%)",
              "VPB-0.01", "VPB", "VPB+0.01");
  core::IncentiveParams p10 = params;
  p10.theta = 600.0;
  for (std::size_t i = 0; i < hp.size(); ++i) {
    std::printf("%-10.2f", hp[i]);
    for (double offset : {-0.01, 0.0, +0.01})
      std::printf(" %-11.2f",
                  core::balance_at_vp_offset(p10, shares[i], 1000.0, 600.0, offset));
    std::printf("\n");
  }
  std::printf("(±0.01 VP swings the balance by ∓10 eth — the paper's "
              "incentive\n for providers to push VP down)\n");

  bench::subheader("(b') empirical: simulated balance for the 14.90% provider");
  const double vpb = core::solve_vpb(p10, shares[2], 1000.0);
  for (double offset : {-0.01, 0.0, +0.01}) {
    const double vp = std::max(0.0, vpb + offset);
    double net = 0.0;
    std::int64_t net_neth = 0;  // the same sum, exact in the chain's base unit
    for (std::uint64_t t = 0; t < trials; ++t) {
      core::PlatformConfig cfg;
      for (double share : hp) cfg.providers.push_back({share, 100'000 * kEther});
      for (unsigned threads : {3u, 6u}) cfg.detectors.push_back({threads, 1'000 * kEther});
      cfg.seed = seed ^ (t * 31 + static_cast<std::uint64_t>((offset + 1.0) * 1000));
      cfg.reclaim_delay = 350.0;
      core::Platform trial(std::move(cfg));
      trial.release_system(2, vp, 1000 * kEther, 10 * kEther);
      trial.run_for(600.0);
      const core::ProviderStats& stats = trial.provider_stats(2);
      net += stats.net_ether();
      net_neth += static_cast<std::int64_t>(stats.incentives()) -
                  static_cast<std::int64_t>(stats.punishments());
    }
    std::printf("VP=VPB%+.2f (%.4f): mean net balance %8.2f eth over %llu runs\n",
                offset, vp, net / static_cast<double>(trials),
                static_cast<unsigned long long>(trials));
    std::printf("  sum of the net balances it averages: %lld neth\n",
                static_cast<long long>(net_neth));
  }
  std::printf("(balance crosses zero near VPB; lossy above, profitable below)\n");
  return 0;
}
