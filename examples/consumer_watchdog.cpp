// Scenario: a smart-home operator running a SmartCrowd watchdog.
//
// The operator deploys IoT systems as vendors release them — sometimes
// before detection has finished (the risky early-adopter window). A
// watchdog built on the Consumer API (a) checks the on-chain reference
// before each deployment, and (b) polls for SmartRetro-style retrospective
// alerts on systems already running, pulling them from the network the
// moment a vulnerability is confirmed. It then lists the chain's confirmed
// releases and the revealed reports behind each alert (the consumer
// look-ups of Section VI-A). A lightweight header-only client
// double-checks one report by SPV proof, showing the consumer needs no full
// node of its own.
//
//   ./build/examples/consumer_watchdog
#include <cstdio>
#include <map>
#include <set>

#include "chain/light_client.hpp"
#include "core/consumer.hpp"
#include "core/platform.hpp"

int main() {
  using namespace sc;
  using chain::kEther;

  core::PlatformConfig config;
  for (double hp : {26.30, 22.10, 14.90, 12.30, 10.10})
    config.providers.push_back({hp, 200'000 * kEther});
  for (unsigned t = 1; t <= 8; ++t) config.detectors.push_back({t, 1'000 * kEther});
  config.seed = 404;
  core::Platform platform(std::move(config));
  core::Consumer watchdog(platform.blockchain());

  std::printf("Operator policy: deploy a release immediately; undeploy on any "
              "confirmed\nvulnerability alert.\n\n");

  std::map<std::string, bool> running;  // system name -> currently deployed
  std::map<crypto::Hash256, std::string> names;
  std::set<crypto::Hash256> alerted;

  // Vendors ship five releases over ~50 minutes; quality varies.
  const double vps[] = {0.0, 1.0, 0.0, 1.0, 0.4};
  for (int r = 0; r < 5; ++r) {
    const auto sra = platform.release_system(static_cast<std::size_t>(r % 5),
                                             vps[r], 1000 * kEther, 10 * kEther);
    platform.run_for(60.0);  // operator deploys shortly after release
    const auto view = watchdog.inspect(sra, /*depth=*/0);
    const std::string name = view ? view->sra.name + "/" + view->sra.version
                                  : "release-" + std::to_string(r);
    names[sra] = name;
    watchdog.deploy(sra);
    running[name] = true;
    std::printf("t=%6.0fs  DEPLOYED %-22s (on-chain vulns so far: %llu)\n",
                platform.simulator().now(), name.c_str(),
                static_cast<unsigned long long>(view ? view->confirmed_vulns : 0));

    // Let detection catch up, polling the watchdog as time passes.
    for (int tick = 0; tick < 9; ++tick) {
      platform.run_for(60.0);
      for (const auto& alert : watchdog.poll()) {
        running[names[alert.sra_id]] = false;
        alerted.insert(alert.sra_id);
        std::printf("t=%6.0fs  !! ALERT: %-18s now has %llu confirmed "
                    "vulnerabilities -> UNDEPLOYED\n",
                    platform.simulator().now(), names[alert.sra_id].c_str(),
                    static_cast<unsigned long long>(alert.new_vuln_count));
      }
    }
  }

  std::printf("\nFinal fleet state:\n");
  int safe = 0;
  for (const auto& [name, deployed] : running) {
    std::printf("  %-22s %s\n", name.c_str(),
                deployed ? "running (no confirmed vulnerabilities)"
                         : "pulled by watchdog");
    safe += deployed ? 1 : 0;
  }

  // The on-chain reference: every confirmed release, and for each alerted
  // one the revealed reports (R*) whose findings the registry confirmed.
  std::printf("\nConfirmed releases on chain:\n");
  for (const core::SraView& view : watchdog.list_confirmed_sras()) {
    std::printf("  %-22s recorded at height %-4llu confirmed vulns: %llu  "
                "escrow: %s\n",
                (view.sra.name + "/" + view.sra.version).c_str(),
                static_cast<unsigned long long>(view.block_height),
                static_cast<unsigned long long>(view.confirmed_vulns),
                view.insurance_intact ? "intact" : "bounties paid");
    if (!alerted.contains(view.sra.id)) continue;
    for (const core::DetailedReport& report : watchdog.detection_reports(view.sra.id))
      for (const detect::Finding& finding : report.description)
        std::printf("      R* %s... confirms vuln %llu: %s\n",
                    report.id.hex().substr(0, 12).c_str(),
                    static_cast<unsigned long long>(finding.vuln_id),
                    finding.description.c_str());
  }

  // SPV spot-check: verify one confirmed report with headers only.
  const auto& full = platform.blockchain();
  chain::LightClient light(full.block_at(0)->header);
  for (std::uint64_t h = 1; h <= full.best_height(); ++h)
    light.accept_header(full.block_at(h)->header, nullptr, /*skip_pow=*/true);
  const auto reports =
      full.protocol_records(chain::ProtocolKind::kDetailedReport);
  for (const auto& [loc, tx] : reports) {
    const chain::Receipt* receipt = full.receipt_of(tx.id());
    if (!receipt || !receipt->ok()) continue;
    const auto proof = full.block(loc.block_id)->proof_for(loc.index);
    std::printf("\nSPV check: report %s... included at height %llu: %s\n",
                tx.id().hex().substr(0, 12).c_str(),
                static_cast<unsigned long long>(loc.height),
                light.verify_inclusion(tx.id(), loc.block_id, proof)
                    ? "VERIFIED with headers only"
                    : "FAILED");
    break;
  }

  std::printf("\n%d of %zu systems remain deployed; every vulnerable release "
              "was pulled\nautomatically from the on-chain reference.\n",
              safe, running.size());
  return 0;
}
