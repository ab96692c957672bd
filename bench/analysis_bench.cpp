// Static-analysis and symbolic-execution throughput harness.
//
// Two stages, both over the bundled SmartCrowd contract plus the adversarial
// corpus (src/symex/corpus.cpp):
//   static   sc::analysis::analyze() — decoder + CFG + stack/gas fixpoint.
//   symex    sc::symex::check_contract() — bounded path exploration, revert
//            classification, economic-invariant checks, witness replays.
// Reported rates are paths/s and solver queries/s (the two quantities the
// symex budget knobs bound) plus wall-clock per full check, so a config or
// solver regression shows up as a rate drop in BENCH_analysis.json.
//
// Flags (bench_util.hpp): --runs=small|full|<reps> sets the repetitions per
// target; --out=PATH.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/verifier.hpp"
#include "bench_util.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "symex/corpus.hpp"
#include "symex/properties.hpp"
#include "vm/assembler.hpp"

namespace {

using namespace sc;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct SymexRow {
  std::string target;
  std::uint64_t reps = 0;
  std::uint64_t paths = 0;          ///< Per check (stable across reps).
  std::uint64_t solver_queries = 0; ///< Per check, quick + full.
  double us_per_check = 0;
  double paths_per_s = 0;
  double queries_per_s = 0;
};

SymexRow bench_symex(const std::string& target, const util::Bytes& code,
                     std::uint64_t reps) {
  SymexRow row;
  row.target = target;
  row.reps = reps;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t i = 0; i < reps; ++i) {
    const symex::SymexReport rep = symex::check_contract(code);
    row.paths = rep.exploration.paths.size();
    row.solver_queries = rep.solver.queries + rep.solver.quick_queries;
  }
  const double elapsed = seconds_since(start);
  row.us_per_check = elapsed * 1e6 / static_cast<double>(reps);
  row.paths_per_s = static_cast<double>(row.paths * reps) / elapsed;
  row.queries_per_s = static_cast<double>(row.solver_queries * reps) / elapsed;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchRun run(argc, argv, "analysis");
  const std::uint64_t reps = run.size(20, 200);

  bench::header("static analysis + symbolic execution throughput");

  // ---- Stage 1: static analyzer over the SmartCrowd contract.
  const util::Bytes& sc_code = contracts::contract_bytecode();
  const Clock::time_point static_start = Clock::now();
  std::size_t blocks = 0;
  for (std::uint64_t i = 0; i < reps; ++i)
    blocks = analysis::analyze(sc_code).block_count();
  const double static_elapsed = seconds_since(static_start);
  const double static_us = static_elapsed * 1e6 / static_cast<double>(reps);
  std::printf("static   smartcrowd  %llu reps  %7.1f us/analysis  (%zu blocks)\n",
              static_cast<unsigned long long>(reps), static_us, blocks);

  // ---- Stage 2: symbolic checker over SmartCrowd + the corpus.
  std::vector<SymexRow> rows;
  rows.push_back(bench_symex("smartcrowd", sc_code, reps));
  for (const symex::CorpusEntry& entry : symex::adversarial_corpus()) {
    const vm::AssembleResult assembled = vm::assemble(entry.source);
    if (!assembled.ok()) {
      std::printf("corpus entry %s failed to assemble\n", entry.name.c_str());
      return 1;
    }
    rows.push_back(
        bench_symex("corpus:" + entry.name, assembled.code, reps));
  }
  for (const SymexRow& r : rows)
    std::printf(
        "symex    %-22s %4llu paths  %4llu queries  %8.1f us/check  "
        "%9.0f paths/s  %9.0f queries/s\n",
        r.target.c_str(), static_cast<unsigned long long>(r.paths),
        static_cast<unsigned long long>(r.solver_queries), r.us_per_check,
        r.paths_per_s, r.queries_per_s);

  run.results("    \"static\": {\"target\": \"smartcrowd\", \"reps\": %llu, "
              "\"blocks\": %zu, \"us_per_analysis\": %.3f},\n",
              static_cast<unsigned long long>(reps), blocks, static_us);
  run.results("    \"symex\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SymexRow& r = rows[i];
    run.results("      {\"target\": \"%s\", \"reps\": %llu, \"paths\": %llu, "
                "\"solver_queries\": %llu,\n"
                "       \"us_per_check\": %.3f, \"paths_per_s\": %.1f, "
                "\"queries_per_s\": %.1f}%s\n",
                r.target.c_str(), static_cast<unsigned long long>(r.reps),
                static_cast<unsigned long long>(r.paths),
                static_cast<unsigned long long>(r.solver_queries),
                r.us_per_check, r.paths_per_s, r.queries_per_s,
                i + 1 < rows.size() ? "," : "");
  }
  run.results("    ]");
  return run.write();
}
