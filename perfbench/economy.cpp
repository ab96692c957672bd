// Workload `economy`: repeated independent release lifecycles in Fig. 6's
// configuration — the paper's own workload.
//
// One op is one core::Platform construction, one release_system call and one
// run_for(700 sim-s) call. Five providers (HP 26.30/22.10/14.90/12.30/10.10 %)
// and eight detectors (1-8 threads); provider 2 releases one vulnerable system
// with 1000 eth insurance and a 10 eth bounty, reclaim_delay 380 s. Each op
// gets its own platform seed derived from the run seed and the op index, so
// a run is a closed loop of one client: the next lifecycle starts when the
// previous one returns.
//
// Why: this is where users of the paper's figures wait, and it is dominated
// by secp256k1 (ROADMAP item 2), the Algorithm-1 gate (core), detection and
// the VM. The store, a large trie, parallel execution and gossip do nothing.
#include <memory>

#include "common.hpp"
#include "core/platform.hpp"
#include "crypto/keccak.hpp"
#include "util/serialize.hpp"

namespace perfbench {
namespace {

using sc::chain::kEther;

constexpr double kLifecycleSimSeconds = 700.0;
constexpr std::size_t kReleasingProvider = 2;
/// Lifecycles whose detector incomes enter the printed determinism digest.
constexpr std::uint64_t kDigestOps = 4;

std::uint64_t lifecycle_seed(std::uint64_t run_seed, std::uint64_t op) {
  return run_seed * 0x9E3779B97F4A7C15ULL + op * 7919 + 1;
}

sc::core::PlatformConfig fig6_config(std::uint64_t seed, sc::telemetry::Telemetry* tel) {
  sc::core::PlatformConfig config;
  for (double share : {26.30, 22.10, 14.90, 12.30, 10.10})
    config.providers.push_back({share, 100'000 * kEther});
  for (unsigned threads = 1; threads <= 8; ++threads)
    config.detectors.push_back({threads, 1'000 * kEther});
  config.seed = seed;
  config.reclaim_delay = 380.0;
  config.telemetry = tel;
  return config;
}

struct Lifecycle {
  double total_ms = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t lost_race = 0;
  sc::crypto::Hash256 incomes;  ///< Digest of every detector's income and gas.
  std::vector<std::string> violations;
};

Lifecycle run_lifecycle(std::uint64_t seed, sc::telemetry::Telemetry& tel,
                        SpanLog& spans) {
  Lifecycle out;
  const auto t0 = Clock::now();
  std::unique_ptr<sc::core::Platform> platform;
  {
    const auto span = spans.scope("core.platform.construct");
    platform = std::make_unique<sc::core::Platform>(fig6_config(seed, &tel));
  }
  sc::crypto::Hash256 sra_id;
  {
    const auto span = spans.scope("core.platform.release_system");
    sra_id = platform->release_system(kReleasingProvider, /*vp=*/1.0, 1000 * kEther,
                                      10 * kEther);
  }
  {
    const auto span = spans.scope("core.platform.run_for");
    platform->run_for(kLifecycleSimSeconds);
  }
  out.total_ms = ms_since(t0);

  // -- Correctness gates (untimed) --------------------------------------------
  const sc::chain::Blockchain& chain = platform->blockchain();
  out.blocks = chain.best_height();
  for (std::uint64_t h = 1; h <= out.blocks; ++h)
    out.txs += chain.block_at(h)->transactions.size();

  const auto sra = platform->lookup_sra(sra_id);
  const sc::chain::Amount locked = sra ? platform->balance_of(sra->contract) : 0;
  for (std::size_t p = 0; p < platform->config().providers.size(); ++p) {
    const auto& stats = platform->provider_stats(p);
    const sc::chain::Amount still_locked = p == kReleasingProvider ? locked : 0;
    if (stats.insurance_escrowed !=
        stats.bounties_paid + stats.insurance_recovered + still_locked)
      out.violations.push_back("escrow not conserved for provider " + std::to_string(p));
  }

  sc::util::Writer incomes;
  for (std::size_t d = 0; d < platform->config().detectors.size(); ++d) {
    const auto& stats = platform->detector_stats(d);
    out.confirmed += stats.reports_confirmed;
    out.lost_race += stats.reports_lost_race;
    incomes.u64(stats.bounty_income);
    incomes.u64(stats.gas_spent);
  }
  out.incomes = sc::crypto::keccak256(incomes.data());

  const std::uint64_t on_chain = platform->confirmed_vulnerabilities(sra_id);
  const std::size_t truth = platform->corpus().systems().back().ground_truth.size();
  if (out.confirmed != on_chain)
    out.violations.push_back("confirmed reports " + std::to_string(out.confirmed) +
                             " != on-chain count " + std::to_string(on_chain));
  if (on_chain > truth)
    out.violations.push_back("more confirmed vulnerabilities than ground truth");
  return out;
}

}  // namespace

Result run_economy(const Options& options, SpanLog& spans) {
  Result result;
  sc::telemetry::Telemetry tel;

  // Set-up time of the program itself: building the platform (keys, genesis,
  // chain) without running it. The median of several builds.
  SpeedProbe probe;
  std::vector<double> setup_ms;
  probe.mark();
  for (std::uint64_t i = 0; i < (options.smoke ? 2 : 15); ++i) {
    const auto t0 = Clock::now();
    double raw = 0.0;
    {
      sc::core::Platform platform(fig6_config(lifecycle_seed(options.seed, i), &tel));
      raw = ms_since(t0);
    }
    probe.mark();
    setup_ms.push_back(probe.calibrate(raw));
  }

  // Warm-up, and the determinism gate: the same seed twice gives the same
  // detector incomes.
  {
    const Lifecycle a = run_lifecycle(lifecycle_seed(options.seed, 0), tel, spans);
    const Lifecycle b = run_lifecycle(lifecycle_seed(options.seed, 0), tel, spans);
    result.gate(a.incomes == b.incomes, "detector incomes differ between two runs of one seed");
  }
  spans.drain(tel.tracer);

  const double admitted_before = counter_total(tel.registry, "mempool_admitted_total");
  const double rejected_before = counter_total(tel.registry, "mempool_rejected_total");
  const double tx_before = counter_total(tel.registry, "chain_tx_total");
  const double steps_before = counter_total(tel.registry, "scvm_steps_total");
  const auto gas_before = histogram_totals(tel.registry, "chain_tx_gas_used");
  const auto root_before = histogram_totals(tel.registry, "state_root_update_seconds");
  const auto confirm_before =
      histogram_totals(tel.registry, "platform_report_confirmation_seconds");

  std::vector<double> op_ms, raw_ms, traced_ms, untraced_ms;
  double timed_ms = 0.0, traced_raw_ms = 0.0;
  std::uint64_t blocks = 0, txs = 0, confirmed = 0, lost_race = 0;
  sc::util::Writer digest;
  const std::uint64_t min_ops = options.smoke ? 2 : kMinOps;
  probe.mark();
  for (std::uint64_t op = 0; timed_ms < options.seconds * 1000.0 || op < min_ops; ++op) {
    // The traced run alternates traced and untraced ops; their difference is
    // the tracing overhead.
    const bool traced = options.trace && op % 2 == 0;
    spans.set_enabled(traced);
    spans.set_op(static_cast<std::uint32_t>(op));
    const Lifecycle life = run_lifecycle(lifecycle_seed(options.seed, op), tel, spans);
    if (options.trace) spans.drain(tel.tracer);
    probe.mark();
    const double calibrated = probe.calibrate(life.total_ms);

    timed_ms += life.total_ms;
    raw_ms.push_back(life.total_ms);
    op_ms.push_back(calibrated);
    (traced ? traced_ms : untraced_ms).push_back(calibrated);
    if (traced) traced_raw_ms += life.total_ms;
    blocks += life.blocks;
    txs += life.txs;
    confirmed += life.confirmed;
    lost_race += life.lost_race;
    if (op < kDigestOps) digest.raw(life.incomes.span());
    ++result.attempted;
    if (!life.violations.empty()) {
      ++result.failed;
      for (const std::string& v : life.violations)
        result.gate(false, "lifecycle " + std::to_string(op) + ": " + v);
    }
  }
  spans.set_enabled(false);
  const double ops = static_cast<double>(op_ms.size());

  // An honest transaction the mempool refused is a failed op, except a reveal
  // that lost the first-reporter race (protocol behaviour, counted apart).
  const double rejected = counter_total(tel.registry, "mempool_rejected_total") - rejected_before;
  const double refused_honest = rejected - static_cast<double>(lost_race);
  if (refused_honest > 0.0) result.failed += static_cast<std::uint64_t>(refused_honest);

  const double seconds = sum(op_ms) / 1000.0;
  result.end_to_end = {
      {"setup_s", median(setup_ms) / 1000.0},
      {"ops_per_s", ops / seconds},
      {"latency_p50_ms", median(op_ms)},
      {"latency_p90_ms", quantile(op_ms, 0.9)},
      {"txs_per_s", static_cast<double>(txs) / seconds},
      {"blocks_per_s", static_cast<double>(blocks) / seconds},
      {"peak_rss_mb", peak_rss_mb()},
  };

  const double applied = counter_total(tel.registry, "chain_tx_total") - tx_before;
  const auto gas = histogram_totals(tel.registry, "chain_tx_gas_used") - gas_before;
  const auto root = histogram_totals(tel.registry, "state_root_update_seconds") - root_before;
  const auto confirm =
      histogram_totals(tel.registry, "platform_report_confirmation_seconds") - confirm_before;
  result.per_layer = {
      {"core.platform.construct_ms_p50", median(spans.durations_ms("core.platform.construct"))},
      {"core.platform.release_ms_p50",
       median(spans.durations_ms("core.platform.release_system"))},
      {"core.platform.run_ms_p50", median(spans.durations_ms("core.platform.run_for"))},
      {"core.platform.mine_block_share",
       ratio(spans.total_ms("platform.mine_block"), traced_raw_ms)},
      {"core.platform.mine_block_ms_p50", median(spans.durations_ms("platform.mine_block"))},
      {"core.platform.reveal_win_ratio",
       ratio(static_cast<double>(confirmed), static_cast<double>(confirmed + lost_race))},
      {"core.platform.report_confirm_sim_s_p50", confirm.quantile(0.5)},
      {"chain.connect_ms_p50", median(spans.durations_ms("chain.block_connect"))},
      {"chain.blocks_per_release", static_cast<double>(blocks) / ops},
      {"chain.mempool.admitted_per_release",
       (counter_total(tel.registry, "mempool_admitted_total") - admitted_before) / ops},
      {"chain.mempool.rejected_per_release", rejected / ops},
      {"chain.state.root_update_ms_mean", root.mean() * 1000.0},
      {"vm.steps_per_tx",
       ratio(counter_total(tel.registry, "scvm_steps_total") - steps_before, applied)},
      {"vm.gas_per_tx", gas.mean()},
      {"trace.overhead_ratio", ratio(median(traced_ms), median(untraced_ms)) - 1.0},
  };

  result.info["ops"] = std::to_string(op_ms.size());
  result.info["raw_latency_p50_ms"] = std::to_string(median(raw_ms));
  result.info["raw_ops_per_s"] = std::to_string(ops / (timed_ms / 1000.0));
  result.info["host_slowdown"] = std::to_string(probe.mean_slowdown());
  result.info["incomes_digest"] = sc::crypto::keccak256(digest.data()).hex();
  return result;
}

}  // namespace perfbench
