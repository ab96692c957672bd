// sc_metrics_dump — seeded end-to-end scenario that exercises every
// instrumented layer, then emits the telemetry in both exporter formats.
//
// Three phases run against ONE injected (local, non-global) telemetry sink:
//
//   1. A ConsensusCluster of four replicas on a lossy network that is
//      partitioned mid-run and healed, populating the net_*, node_* and
//      chain_* families (including reorgs after the heal).
//   2. A Platform economy — three providers releasing vulnerable systems to
//      five detectors — populating the mempool_*, scvm_*, chain_tx_* and
//      platform_* families, including the report submit→k-confirmation
//      latency histogram.
//   3. A durable-chain round trip (write, clean close, reopen/replay,
//      compact) in a scratch directory, populating the store_* families.
//   4. A header-only light client requesting Merkle state proofs from a full
//      node over the sim network — including a proof of absence and a
//      tampered proof it must reject — populating the lightclient_proof_*
//      counters.
//
// All phases are fully seeded, so with the same --seed the Prometheus text
// is byte-identical across runs (the CI determinism gate; pow_* counters go
// to the global sink and thus never pollute the local registry — and the
// store phase's scratch path never appears in a metric). The one family
// whose SAMPLES are wall-clock (state_root_update_seconds, timed with a
// real clock inside submit_block) is normalized before rendering: the
// deterministic _count is kept, every bucket collapses to it and _sum is
// zeroed, so the gate stays a plain byte-compare.
//
//   sc_metrics_dump [--seed N] [--duration SECONDS] [--prom PATH]
//                   [--trace PATH] [--summary] [--check]
//
// Without --prom/--trace/--summary the Prometheus text goes to stdout.
// --check validates the Prometheus output and requires the confirmation
// histogram to be populated; exit 1 when either fails.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/light_node.hpp"
#include "core/node.hpp"
#include "core/platform.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace {

using namespace sc;
using chain::kEther;

int usage() {
  std::cerr << "usage: sc_metrics_dump [--seed N] [--duration SECONDS] "
               "[--prom PATH] [--trace PATH] [--summary] [--check]\n";
  return 2;
}

/// Phase 1: replicated consensus over a lossy, partitioned network.
void run_cluster_phase(std::uint64_t seed, telemetry::Telemetry& tel) {
  util::Rng key_rng(0x5eed + seed);
  const auto funder = crypto::KeyPair::generate(key_rng);
  chain::GenesisConfig genesis{{{funder.address(), 1000 * kEther}}, 0, 1};
  // The determinism gate (--check + byte-compare) pins the dump to one lane,
  // the ExecutionConfig default, so a default change can never silently
  // change what it measures.
  genesis.execution.threads = 1;
  const core::RecordGate gate = [](const chain::Transaction& tx) {
    return tx.protocol != chain::ProtocolKind::kDetailedReport ||
           !tx.protocol_payload.empty();
  };
  sim::NetworkConfig net;
  net.drop_rate = 0.05;  // exercises net_messages_dropped_total
  core::ConsensusCluster cluster(
      seed, {{3.0, true}, {2.0, true}, {2.0, true}, {1.0, true}}, genesis, gate,
      /*mean_block_time=*/15.0, net, &tel);
  cluster.run_for(600.0);
  // Split 2/2, mine divergent chains, then heal: the weaker side's blocks
  // reorg away, populating chain_reorgs_total and the severed counters.
  cluster.network().partition(
      {cluster.node(0).network_id(), cluster.node(1).network_id()},
      {cluster.node(2).network_id(), cluster.node(3).network_id()});
  cluster.run_for(300.0);
  cluster.network().heal_partition();
  cluster.run_for(300.0);
}

/// Phase 2: the full detection economy; returns the platform so callers can
/// keep it alive while exporting (it owns nothing in `tel`, but stats help).
void run_platform_phase(std::uint64_t seed, double duration,
                        telemetry::Telemetry& tel) {
  core::PlatformConfig config;
  for (double hp : {40.0, 35.0, 25.0})
    config.providers.push_back({hp, 200'000 * kEther});
  for (unsigned threads : {1u, 2u, 4u, 8u, 8u})
    config.detectors.push_back({threads, 1'000 * kEther});
  config.seed = seed;
  config.telemetry = &tel;
  config.mempool_capacity = 512;
  core::Platform platform(std::move(config));

  // One release every 5 minutes, round-robin across providers, high VP so
  // the two-phase report pipeline (and its confirmation-latency histogram)
  // is guaranteed to fire.
  std::size_t released = 0;
  double t = 0;
  while (t + 300.0 <= duration) {
    platform.release_system(released % 3, /*vp=*/0.8, 1000 * kEther,
                            10 * kEther);
    platform.run_for(300.0);
    ++released;
    t += 300.0;
  }
  if (t < duration) platform.run_for(duration - t);
}

/// Phase 3: durable store round trip in a scratch directory, populating the
/// store_* families. Everything metric-visible is deterministic: the blocks
/// are seeded and empty (no signatures), so record sizes, fsync counts and
/// the recovery/compaction counters are byte-stable; the directory path
/// never appears in any metric.
void run_store_phase(std::uint64_t seed, telemetry::Telemetry& tel) {
  char tmpl[] = "/tmp/sc_metrics_store_XXXXXX";
  const char* dir = ::mkdtemp(tmpl);
  if (!dir) return;
  const std::string store_dir = std::string(dir) + "/chain";

  util::Rng key_rng(0xd15c + seed);
  const auto funder = crypto::KeyPair::generate(key_rng);
  const auto miner = crypto::KeyPair::generate(key_rng);
  chain::GenesisConfig genesis{{{funder.address(), 100 * kEther}}, 0, 1};
  genesis.execution.threads = 1;  // byte-stability, as in phase 1
  genesis.state_store.flatten_interval = 4;

  auto grow = [&](chain::Blockchain& chain, int count) {
    for (int i = 0; i < count; ++i) {
      const std::uint64_t h = chain.best_height() + 1;
      chain::Block block = chain.build_block_template(
          miner.address(), h * 10, 1, {});
      if (!chain.submit_block(block, nullptr, /*skip_pow=*/true)) return;
    }
  };
  {
    // Write 12 blocks (three flatten snapshots) and shut down cleanly.
    chain::Blockchain writer(genesis, &tel);
    if (writer.open(store_dir)) {
      grow(writer, 12);
      writer.close();
    }
  }
  {
    // Reopen (bumps the recovery-replay counter), extend, compact, close.
    chain::Blockchain reader(genesis, &tel);
    if (reader.open(store_dir)) {
      grow(reader, 4);
      // Historic lookups at fixed heights populate the chain_state_cache_*
      // counters: the first materializes (miss), the repeat hits the cache.
      for (const std::uint64_t h : {6, 6, 9}) {
        if (const chain::Block* b = reader.block_at(h)) reader.state_of(b->id());
      }
      std::string why;
      reader.compact_store(chain::kConfirmationDepth, &why);
      reader.close();
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

/// Phase 4: stateless verification over the network. One full node serves
/// Merkle proofs at its head; a header-only client verifies a present
/// account, an absent account, an absent storage slot, and then rejects a
/// tampered copy of the first proof. Sim-time only — byte-stable counters.
void run_lightclient_phase(std::uint64_t seed, telemetry::Telemetry& tel) {
  util::Rng key_rng(0x11c7 + seed);
  const auto funder = crypto::KeyPair::generate(key_rng);
  const auto miner = crypto::KeyPair::generate(key_rng);
  chain::GenesisConfig genesis{{{funder.address(), 100 * kEther}}, 0, 1};
  genesis.execution.threads = 1;  // byte-stability, as in phase 1
  sim::Simulator sim(seed);
  sim::Network net(sim, {}, &tel);
  core::ConsensusNode full(sim, net, genesis, "proof-server", /*honest=*/true,
                           /*gate=*/nullptr, &tel);
  const chain::BlockHeader genesis_header =
      full.chain().block(full.chain().genesis_id())->header;
  core::LightClientNode light(net, genesis_header, /*skip_pow=*/true, &tel);

  for (int i = 0; i < 3; ++i) {
    full.mine_and_broadcast(miner.address(), {});
    sim.run_until(sim.now() + 10.0);  // deliver the block gossip
  }

  const chain::Address absent{};  // zero address: never funded, never mined to
  light.request_account(full.network_id(), funder.address());
  light.request_account(full.network_id(), absent);
  light.request_storage(full.network_id(), absent, crypto::U256(7));
  sim.run_until(sim.now() + 10.0);  // request + response round trips

  // A forged balance must fail against the same header — the rejected
  // counter is the proof the client actually checks, not just decodes.
  if (!light.results().empty() && light.results().front().verified) {
    chain::AccountProof forged = light.results().front().account;
    forged.balance += 1;
    light.client().verify_account(light.results().front().block_id, forged);
  }
}

/// Collapses the named wall-clock histogram families to their deterministic
/// shape: buckets := _count (every sample "instantaneous"), _sum := 0. The
/// count token is copied verbatim from the family's _count line, so the
/// rewrite can never introduce a formatting difference of its own.
std::string normalize_wallclock_histograms(const std::string& prom) {
  static constexpr const char* kWallClockFamilies[] = {
      "state_root_update_seconds",
  };
  std::vector<std::string> lines;
  std::istringstream in(prom);
  for (std::string line; std::getline(in, line);) lines.push_back(line);

  auto value_token = [](const std::string& line) {
    const auto pos = line.rfind(' ');
    return pos == std::string::npos ? std::string() : line.substr(pos + 1);
  };
  for (const char* family : kWallClockFamilies) {
    const std::string count_prefix = std::string(family) + "_count";
    const std::string bucket_prefix = std::string(family) + "_bucket";
    const std::string sum_prefix = std::string(family) + "_sum";
    std::string count;
    for (const auto& line : lines)
      if (line.rfind(count_prefix, 0) == 0) count = value_token(line);
    if (count.empty()) continue;  // family absent from this run
    for (auto& line : lines) {
      if (line.rfind(bucket_prefix, 0) == 0)
        line = line.substr(0, line.rfind(' ') + 1) + count;
      else if (line.rfind(sum_prefix, 0) == 0)
        line = line.substr(0, line.rfind(' ') + 1) + "0";
    }
  }
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

/// True when the submit→confirmation histogram holds at least one sample.
bool confirmation_histogram_populated(const telemetry::Registry& registry) {
  for (const auto& family : registry.snapshot()) {
    if (family.name != "platform_report_confirmation_seconds") continue;
    for (const auto& series : family.series)
      if (series.histogram && series.histogram->count() > 0) return true;
  }
  return false;
}

bool write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::cerr << "sc_metrics_dump: cannot open " << path << " for writing\n";
    return false;
  }
  out << content;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double duration = 1800.0;
  std::string prom_path, trace_path;
  bool summary = false, check = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--seed") {
      const char* v = next();
      if (!v) return usage();
      seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--duration") {
      const char* v = next();
      if (!v) return usage();
      duration = std::strtod(v, nullptr);
      if (duration <= 0) return usage();
    } else if (arg == "--prom") {
      const char* v = next();
      if (!v) return usage();
      prom_path = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return usage();
      trace_path = v;
    } else if (arg == "--summary") {
      summary = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      return usage();
    }
  }

  // Local sink: nothing from other code paths (or the global registry's pow
  // counters) can leak in, which is what makes the output reproducible.
  telemetry::Telemetry tel;
  run_cluster_phase(seed, tel);
  run_platform_phase(seed, duration, tel);
  run_store_phase(seed, tel);
  run_lightclient_phase(seed, tel);

  const std::string prom =
      normalize_wallclock_histograms(telemetry::to_prometheus(tel.registry));
  if (!prom_path.empty()) {
    if (!write_file(prom_path, prom)) return 2;
  }
  if (!trace_path.empty()) {
    if (!write_file(trace_path, telemetry::to_chrome_trace(tel.tracer))) return 2;
  }
  if (summary) std::cout << telemetry::render_summary(tel.registry);
  if (prom_path.empty() && trace_path.empty() && !summary) std::cout << prom;

  if (check) {
    std::string error;
    if (!telemetry::validate_prometheus_text(prom, &error)) {
      std::cerr << "sc_metrics_dump: invalid Prometheus output: " << error << "\n";
      return 1;
    }
    if (!confirmation_histogram_populated(tel.registry)) {
      std::cerr << "sc_metrics_dump: platform_report_confirmation_seconds is "
                   "empty — scenario did not confirm any report\n";
      return 1;
    }
    std::cerr << "sc_metrics_dump: check ok (" << tel.registry.family_count()
              << " metric families, " << tel.tracer.total_recorded()
              << " trace events)\n";
  }
  return 0;
}
