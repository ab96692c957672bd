// sc::symex test suite: expression folding, the layered word-level solver,
// the bounded path explorer, the SmartCrowd economic-invariant goldens and
// the adversarial corpus refutations.
#include <gtest/gtest.h>

#include "contracts/smartcrowd_contract.hpp"
#include "symex/corpus.hpp"
#include "symex/explore.hpp"
#include "symex/properties.hpp"
#include "symex/solver.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/assembler.hpp"

namespace sc::symex {
namespace {

using crypto::U256;

// ---- Expression layer ------------------------------------------------------

TEST(SymexExprFold, ConstantFoldingMatchesVmQuirks) {
  ExprPool pool;
  // Division by zero yields zero (VM semantics, not UB).
  EXPECT_EQ(eval_binary(ExprKind::kDiv, U256{7}, U256::zero()), U256::zero());
  EXPECT_EQ(eval_binary(ExprKind::kMod, U256{7}, U256::zero()), U256::zero());
  // Shift amount is the FIRST operand; >255 shifts to zero.
  EXPECT_EQ(eval_binary(ExprKind::kShl, U256{4}, U256{1}), U256{16});
  EXPECT_EQ(eval_binary(ExprKind::kShl, U256{256}, U256{1}), U256::zero());
  EXPECT_EQ(eval_binary(ExprKind::kShr, U256{224},
                        U256{0x53430001} << 224),
            U256{0x53430001});

  // Hash-consing: structurally equal nodes are pointer-equal.
  ExprRef x = pool.make_var(VarOrigin::kHavoc, "x");
  EXPECT_EQ(pool.add(x, pool.one()), pool.add(x, pool.one()));
  // x - x folds to 0, Eq(x, x) folds to 1.
  EXPECT_EQ(pool.sub(x, x), pool.zero());
  EXPECT_EQ(pool.eq(x, x), pool.one());
  // Folding agrees with evaluation.
  Assignment m;
  m.values[x->var] = U256{41};
  EXPECT_EQ(evaluate(pool.add(x, pool.one()), m), U256{42});
}

// ---- Solver ----------------------------------------------------------------

TEST(SymexSolver, EqualityPinsAndContradicts) {
  ExprPool pool;
  Solver solver(pool);
  ExprRef x = pool.make_var(VarOrigin::kCalldataWord, "cd[0]", 256, 0);

  // x == 5 is SAT with x modelled as 5.
  SolveResult sat = solver.check({{pool.eq(x, pool.constant_u64(5)), true}});
  ASSERT_EQ(sat.status, SolveStatus::kSat);
  EXPECT_EQ(sat.model.value_of(x->var), U256{5});

  // x == 1 and x == 0 together are UNSAT.
  SolveResult unsat = solver.check(
      {{pool.eq(x, pool.one()), true}, {x, false}});
  EXPECT_EQ(unsat.status, SolveStatus::kUnsat);
}

TEST(SymexSolver, IntervalsRefuteImpossibleBounds) {
  ExprPool pool;
  Solver solver(pool);
  ExprRef x = pool.make_var(VarOrigin::kHavoc, "x", 64);
  // Lt(x, 5) means x < 5 (first operand is popped first, like the VM).
  SolveResult r = solver.check({
      {pool.lt(x, pool.constant_u64(5)), true},
      {pool.gt(x, pool.constant_u64(10)), true},
  });
  EXPECT_EQ(r.status, SolveStatus::kUnsat);
}

TEST(SymexSolver, UndecidedParityConflictIsUnknownNeverSat) {
  ExprPool pool;
  Solver solver(pool);
  ExprRef x = pool.make_var(VarOrigin::kHavoc, "x", 8);
  // (x & 3) == 1 forces bit0 = 1, but (x & 1) == 0 forces bit0 = 0. No
  // layer sees through the masks, so the last fallback must give up soundly:
  // kUnknown from the search budget, never a SAT model.
  SolveResult r = solver.check({
      {pool.eq(pool.binary(ExprKind::kAnd, x, pool.constant_u64(3)),
               pool.one()),
       true},
      {pool.binary(ExprKind::kAnd, x, pool.one()), false},
  });
  EXPECT_EQ(r.status, SolveStatus::kUnknown);
  EXPECT_STREQ(r.method, "budget");
  EXPECT_EQ(solver.stats().decisions.at("budget"), 1u);
}

TEST(SymexSolver, FindsMaskedModel) {
  ExprPool pool;
  Solver solver(pool);
  ExprRef x = pool.make_var(VarOrigin::kHavoc, "x", 32);
  SolveResult r = solver.check({
      {pool.eq(pool.binary(ExprKind::kAnd, x, pool.constant_u64(0xf0)),
               pool.constant_u64(0x90)),
       true},
  });
  ASSERT_EQ(r.status, SolveStatus::kSat);
  EXPECT_EQ(r.model.value_of(x->var) & U256{0xf0}, U256{0x90});
}

// ---- Explorer --------------------------------------------------------------

ExploreResult explore_asm(const std::string& src, Env& env,
                          const SymexConfig& config = {}) {
  const vm::AssembleResult assembled = vm::assemble(src);
  EXPECT_TRUE(assembled.ok()) << (assembled.ok() ? "" : assembled.error->message);
  Solver solver(env.pool());
  return explore(assembled.code, env, solver, config);
}

TEST(SymexExplore, ForksAndPrunesDispatcherStyle) {
  // if (cd[0]) revert else stop — two feasible paths, one fork.
  Env env;
  ExploreResult r = explore_asm(R"(  PUSH1 0x00
  CALLDATALOAD
  PUSHL @ok
  JUMPI
  PUSH1 0x00
  PUSH1 0x00
  REVERT
ok:
  JUMPDEST
  STOP
)",
                                env);
  EXPECT_FALSE(r.truncated);
  ASSERT_EQ(r.paths.size(), 2u);
  EXPECT_EQ(r.forks, 1u);
  std::size_t stops = 0, reverts = 0;
  for (const PathResult& p : r.paths) {
    if (p.end == PathEnd::kStop) ++stops;
    if (p.end == PathEnd::kRevert) ++reverts;
  }
  EXPECT_EQ(stops, 1u);
  EXPECT_EQ(reverts, 1u);
}

TEST(SymexExplore, LoopBoundTruncates) {
  Env env;
  ExploreResult r = explore_asm(R"(loop:
  JUMPDEST
  PUSHL @loop
  JUMP
)",
                                env);
  EXPECT_TRUE(r.truncated);
  ASSERT_EQ(r.paths.size(), 1u);
  EXPECT_EQ(r.paths[0].end, PathEnd::kTruncated);
}

TEST(SymexExplore, MergesIdenticalStatesAtJoinPoint) {
  // Each loop iteration forks on a fresh havoc condition (GAS) and the
  // fall-through lands directly on a JUMPDEST with an identical state —
  // exactly the shape the join-point merge collapses.
  Env env;
  ExploreResult r = explore_asm(R"(loop:
  JUMPDEST
  GAS
  PUSHL @loop
  JUMPI
out:
  JUMPDEST
  STOP
)",
                                env);
  EXPECT_GE(r.merges, 1u);
  bool saw_merged_stop = false;
  for (const PathResult& p : r.paths)
    if (p.end == PathEnd::kStop && p.merged) saw_merged_stop = true;
  EXPECT_TRUE(saw_merged_stop);
}

// ---- SmartCrowd goldens ----------------------------------------------------

std::uint64_t decisions_exported(const telemetry::Telemetry& tel,
                                 const std::string& layer,
                                 const std::string& query) {
  std::uint64_t total = 0;
  for (const auto& fam : tel.registry.snapshot()) {
    if (fam.name != "analysis_symex_solver_decisions_total") continue;
    for (const auto& series : fam.series)
      if (series.labels == telemetry::Labels{{"layer", layer}, {"query", query}})
        total += series.counter->value();
  }
  return total;
}

/// Golden for real contracts: every check() is decided by some layer, none
/// runs out of search budget, and the export carries the same counts.
void expect_every_query_decided(const SymexReport& report,
                                const telemetry::Telemetry& tel,
                                const std::string& name) {
  const SolverStats& stats = report.solver;
  EXPECT_EQ(stats.decisions.count("budget"), 0u) << name;
  std::uint64_t checks = 0;
  for (const auto& [layer, n] : stats.decisions) {
    checks += n;
    EXPECT_EQ(decisions_exported(tel, layer, "check"), n) << name << " " << layer;
  }
  EXPECT_EQ(checks, stats.queries) << name;
  std::uint64_t quick = 0;
  for (const auto& [layer, n] : stats.quick_decisions) {
    quick += n;
    EXPECT_EQ(decisions_exported(tel, layer, "quick"), n) << name << " " << layer;
  }
  EXPECT_LE(quick, stats.quick_queries) << name;
}

TEST(SymexSmartCrowd, ProvesEconomicInvariantsWithinBounds) {
  telemetry::Telemetry tel;
  const SymexReport report =
      check_contract(contracts::contract_bytecode(), {}, {}, &tel);
  // The metadata copy loop forces loop-bound truncation, so the strongest
  // honest claim is the bounded one — never kProved, never kUnknown.
  EXPECT_EQ(report.escrow.verdict, PropertyVerdict::kProvedBounded)
      << report.escrow.detail;
  EXPECT_EQ(report.payout.verdict, PropertyVerdict::kProvedBounded)
      << report.payout.detail;
  EXPECT_TRUE(report.ok());
  EXPECT_FALSE(report.has_unknown());
  expect_every_query_decided(report, tel, "smartcrowd");
}

TEST(SymexSmartCrowd, EveryRevertSiteReachableWithReplayedWitness) {
  const SymexReport report = check_contract(contracts::contract_bytecode());
  // The contract has 8 REVERT sites (closed-gate, duplicate, unknown
  // selector, ...), all genuinely reachable.
  ASSERT_EQ(report.reverts.size(), 8u);
  for (const RevertSite& site : report.reverts) {
    EXPECT_EQ(site.status, RevertStatus::kReachable)
        << "revert at offset " << site.offset;
    ASSERT_TRUE(site.witness.has_value());
    EXPECT_TRUE(site.witness->replay_confirmed) << site.witness->replay_note;
    EXPECT_EQ(site.witness->predicted_halt, site.offset);
  }
}

// ---- Adversarial corpus ----------------------------------------------------

TEST(SymexCorpus, RefutesEveryBrokenContractWithReplayedWitness) {
  for (const CorpusEntry& entry : adversarial_corpus()) {
    const vm::AssembleResult assembled = vm::assemble(entry.source);
    ASSERT_TRUE(assembled.ok()) << entry.name;
    telemetry::Telemetry tel;
    const SymexReport report = check_contract(assembled.code, {}, {}, &tel);
    expect_every_query_decided(report, tel, entry.name);

    EXPECT_EQ(report.escrow.verdict, entry.expect_escrow)
        << entry.name << ": " << report.escrow.detail;
    EXPECT_EQ(report.payout.verdict, entry.expect_payout)
        << entry.name << ": " << report.payout.detail;

    // A kViolated verdict is only trustworthy when the witness replayed on
    // the real interpreter — never from symbolic reasoning alone.
    for (const PropertyReport* p : {&report.escrow, &report.payout}) {
      if (p->verdict != PropertyVerdict::kViolated) continue;
      ASSERT_TRUE(p->witness.has_value()) << entry.name;
      EXPECT_TRUE(p->witness->replay_confirmed)
          << entry.name << ": " << p->witness->replay_note;
    }

    std::size_t reachable = 0, unreachable = 0;
    for (const RevertSite& s : report.reverts) {
      if (s.status == RevertStatus::kReachable) {
        ++reachable;
        ASSERT_TRUE(s.witness.has_value()) << entry.name;
        EXPECT_TRUE(s.witness->replay_confirmed) << entry.name;
      }
      if (s.status == RevertStatus::kProvedUnreachable) ++unreachable;
    }
    EXPECT_EQ(reachable, entry.reachable_reverts) << entry.name;
    EXPECT_EQ(unreachable, entry.unreachable_reverts) << entry.name;
  }
}

// Per contract, the verdict scvm_lint --deep reports: which property a broken
// corpus entry violates, and that clean code passes. SmartCrowd's own pass
// is asserted above.
SymexReport check_corpus_entry(const std::string& name) {
  for (const CorpusEntry& entry : adversarial_corpus()) {
    if (entry.name != name) continue;
    const vm::AssembleResult assembled = vm::assemble(entry.source);
    EXPECT_TRUE(assembled.ok()) << name;
    return check_contract(assembled.code);
  }
  ADD_FAILURE() << "no corpus entry " << name;
  return {};
}

TEST(SymexCorpus, NamesTheViolatedPropertyAndPassesCleanCode) {
  const SymexReport pay_any = check_corpus_entry("pay-any-caller");
  EXPECT_FALSE(pay_any.ok());
  EXPECT_EQ(pay_any.payout.verdict, PropertyVerdict::kViolated);
  EXPECT_STREQ(pay_any.payout.name, "payout-requires-deposit");

  const SymexReport rug_pull = check_corpus_entry("rug-pull");
  EXPECT_FALSE(rug_pull.ok());
  EXPECT_EQ(rug_pull.escrow.verdict, PropertyVerdict::kViolated);
  EXPECT_STREQ(rug_pull.escrow.name, "escrow-conservation");

  const SymexReport dead_guard = check_corpus_entry("dead-guard");
  EXPECT_TRUE(dead_guard.ok());
  EXPECT_FALSE(dead_guard.has_unknown());
}

}  // namespace
}  // namespace sc::symex
