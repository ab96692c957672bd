// Microbenchmarks for the chain executor and the SCVM (google-benchmark).
// Only rows no other harness measures live here: signing and verification
// are crypto_bench's, PoW is pow_bench's, and block connect is perfbench's
// chain.connect_ms_p50.
#include <benchmark/benchmark.h>

#include "chain/executor.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "core/messages.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"

namespace {

using namespace sc;
using chain::kEther;

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

void BM_ExecutorTransfer(benchmark::State& state) {
  const auto alice = key(3);
  chain::WorldState state_world;
  state_world.add_balance(alice.address(), 1'000'000 * kEther);
  chain::BlockEnv env;
  env.miner = key(4).address();
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    chain::Transaction tx;
    tx.kind = chain::TxKind::kTransfer;
    tx.nonce = nonce++;
    tx.to = key(5).address();
    tx.value = 1;
    tx.gas_limit = 21000;
    tx.sign_with(alice);
    benchmark::DoNotOptimize(chain::apply_transaction(state_world, env, tx));
  }
}
BENCHMARK(BM_ExecutorTransfer);

void BM_VmTightLoop(benchmark::State& state) {
  // 1000-iteration countdown loop: measures dispatch + jump costs.
  const auto code = vm::assemble(R"(
    PUSH2 0x03e8
  loop:
    JUMPDEST
    PUSH1 0x01
    SWAP1
    SUB
    DUP1
    PUSHL @loop
    JUMPI
    STOP
  )");
  class NullHost final : public vm::Host {
   public:
    crypto::U256 get_storage(const crypto::Address&, const crypto::U256&) override {
      return {};
    }
    void set_storage(const crypto::Address&, const crypto::U256&,
                     const crypto::U256&) override {}
    std::uint64_t balance(const crypto::Address&) override { return 0; }
    bool transfer(const crypto::Address&, const crypto::Address&,
                  std::uint64_t) override {
      return true;
    }
    void emit_log(vm::LogEntry) override {}
    std::uint64_t block_timestamp() override { return 0; }
    std::uint64_t block_number() override { return 0; }
  } host;
  vm::Context ctx;
  ctx.gas_limit = 10'000'000;
  for (auto _ : state) benchmark::DoNotOptimize(vm::execute(host, ctx, code.code));
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_VmTightLoop);

void BM_ContractReportSubmission(benchmark::State& state) {
  const auto provider = key(6);
  const auto detector = key(7);
  chain::WorldState world;
  world.add_balance(provider.address(), 1'000'000 * kEther);
  world.add_balance(detector.address(), 1'000'000 * kEther);
  chain::BlockEnv env;
  env.miner = key(8).address();

  chain::Transaction deploy = contracts::make_deploy_tx(
      0, 100'000 * kEther, kEther, crypto::Sha256::digest(util::as_bytes("i")),
      contracts::pack_metadata("bench", "1.0", "sim://bench"));
  deploy.sign_with(provider);
  const auto dr = chain::apply_transaction(world, env, deploy);

  std::uint64_t counter = 0;
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    const auto h = crypto::Sha256::digest(
        util::as_bytes(std::string("r") + std::to_string(counter++)));
    chain::Transaction commit;
    commit.kind = chain::TxKind::kCall;
    commit.nonce = nonce++;
    commit.to = dr.contract_address;
    commit.gas_limit = 200000;
    commit.data = contracts::register_initial_calldata(h);
    commit.sign_with(detector);
    chain::Transaction reveal;
    reveal.kind = chain::TxKind::kCall;
    reveal.nonce = nonce++;
    reveal.to = dr.contract_address;
    reveal.gas_limit = 200000;
    reveal.data = contracts::submit_detailed_calldata(h);
    reveal.sign_with(detector);
    benchmark::DoNotOptimize(chain::apply_transaction(world, env, commit));
    benchmark::DoNotOptimize(chain::apply_transaction(world, env, reveal));
  }
}
BENCHMARK(BM_ContractReportSubmission);

void BM_Algorithm1Verification(benchmark::State& state) {
  const auto detector = key(9);
  core::DetailedReport report;
  report.sra_id = crypto::Sha256::digest(util::as_bytes("sra"));
  report.description = {{1, detect::Severity::kHigh, "overflow"}};
  report.finalize(detector);
  const auto initial = core::InitialReport::commit_to(report, detector);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::verify_detailed_report(
        report, initial, [](const core::DetailedReport&) { return true; }));
  }
}
BENCHMARK(BM_Algorithm1Verification);

}  // namespace

BENCHMARK_MAIN();
