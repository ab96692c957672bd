// sc::symex word-level constraint solver.
//
// Decides satisfiability of a conjunction of path-condition literals over the
// hash-consed term language in symex/expr.hpp. No external SMT dependency —
// the pipeline is layered from cheap to expensive, and every layer is only
// trusted in the direction it is sound:
//
//   1. Normalization: peel IsZero chains (flipping polarity), fold constants,
//      split conjunctive shapes (truthy And, falsy Or) into separate literals.
//      Splitting a truthy And over-approximates for non-boolean operands, so
//      it is used for UNSAT only; SAT answers are always re-validated against
//      the ORIGINAL literals by concrete evaluation.
//   2. Equality layer: union-find over terms from Eq literals plus literal
//      polarities (a falsy literal pins its term to 0), constant propagation
//      by substitution through the folding pool, disequality clash detection.
//   3. Interval layer: unsigned [lo, hi] ranges computed bottom-up (variable
//      widths seed the ranges) and refined top-down from comparison literals,
//      iterated to a bounded fixpoint. An infeasible literal => UNSAT.
//   4. Model search: deterministic WalkSAT-style loop with algebraic
//      inversion — unsatisfied literals propose (var, value) candidates by
//      inverting Eq/Add/Sub/Xor/Shl/Shr/... toward a target value. A model
//      that satisfies every original literal under exact VM evaluation is a
//      definitive SAT.
//
// A query no layer decides is kUnknown with method "budget" — never a guess.
// SolverStats counts the decisions per layer; check_contract exports them as
// analysis_symex_solver_decisions_total{layer,query}.
//
// Everything is deterministic (seeded xorshift) so solver verdicts — and the
// counterexamples built from them — are reproducible across runs.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "symex/expr.hpp"

namespace sc::symex {

enum class SolveStatus : std::uint8_t { kSat, kUnsat, kUnknown };

struct SolveResult {
  SolveStatus status = SolveStatus::kUnknown;
  Assignment model;          ///< Populated when status == kSat.
  /// Which layer decided: "fold", "equality", "interval", "search", or
  /// "budget" when none did.
  const char* method = "";
};

struct SolverStats {
  std::uint64_t queries = 0;        ///< check() calls.
  std::uint64_t quick_queries = 0;  ///< quick_check() calls.
  /// check() calls by SolveResult::method, "budget" included.
  std::map<std::string, std::uint64_t> decisions;
  /// quick_check() calls a layer decided, by the same method names.
  std::map<std::string, std::uint64_t> quick_decisions;
};

class Solver {
 public:
  explicit Solver(ExprPool& pool) : pool_(pool) {}

  /// Full pipeline. kSat results carry a model that satisfies every literal
  /// under exact VM evaluation (already validated).
  SolveResult check(const std::vector<Literal>& constraints);

  /// Layers 1-3 only — cheap enough for per-fork path pruning. Only the
  /// kUnsat answer is meaningful; anything undecided returns kUnknown.
  SolveStatus quick_check(const std::vector<Literal>& constraints);

  const SolverStats& stats() const { return stats_; }
  ExprPool& pool() { return pool_; }

 private:
  ExprPool& pool_;
  SolverStats stats_;
};

}  // namespace sc::symex
