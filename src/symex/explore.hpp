// sc::symex path explorer — bounded symbolic execution of SCVM bytecode.
//
// Walks the bytecode with a symbolic stack over symex/expr.hpp terms,
// forking at JUMPI and TRANSFER, pruning infeasible branches with the
// word-level solver's cheap layers, and bounding loops by a per-JUMPDEST
// visit budget. States that reach the same JUMPDEST with identical stack /
// memory / storage / balance are merged by OR-ing their path conditions, so
// the diamond-shaped dispatcher in the SmartCrowd contract does not explode.
//
// The result is a set of terminal paths, each carrying its path condition,
// the ordered storage writes (with the overwritten pre-value), the value
// transfers it performs and the symbolic self-balance at the end — exactly
// the facts the property layer (symex/properties.hpp) needs for the
// economic-invariant checks and for revert-reachability classification.
//
// Soundness posture: over-approximation. Anything the explorer cannot model
// precisely (symbolic memory offsets, CALL, MSTORE8, symbolic jump targets)
// turns into havoc values and sets `imprecise` on the path — the property
// layer only claims kProved from a run with no truncation and no imprecision,
// and every refutation is replayed on the real interpreter before being
// reported.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "symex/expr.hpp"
#include "symex/solver.hpp"
#include "util/bytes.hpp"

namespace sc::telemetry {
struct Telemetry;
}

namespace sc::symex {

struct SymexConfig {
  std::uint32_t max_paths = 256;          ///< Terminal paths to collect.
  std::uint32_t max_loop_visits = 3;      ///< Per-JUMPDEST visits per path.
  std::uint32_t max_steps_per_path = 4096;
  std::uint32_t max_states = 4096;        ///< Global fork-frontier bound.
  std::uint64_t time_budget_ms = 2000;    ///< Wall-clock budget; 0 = none.
};

/// How a symbolic path ended. Mirrors vm::Outcome where the VM has a
/// counterpart; kTruncated marks bound exhaustion (no VM counterpart).
enum class PathEnd : std::uint8_t {
  kStop,          ///< STOP or implicit stop (success, no return data).
  kReturn,        ///< RETURN (success).
  kRevert,        ///< REVERT.
  kInvalid,       ///< VM faults: bad jump, stack misuse, range violation.
  kTransferFail,  ///< TRANSFER with amount > balance.
  kTruncated,     ///< Loop/step/depth budget hit — path abandoned, not ended.
};

const char* path_end_name(PathEnd end);

/// One SSTORE performed on a path, with the value the slot held just before
/// (as seen through earlier writes on the same path).
struct SymStore {
  ExprRef key = nullptr;
  ExprRef value = nullptr;
  ExprRef pre = nullptr;
};

/// One successful TRANSFER performed on a path.
struct SymTransfer {
  ExprRef to = nullptr;
  ExprRef amount = nullptr;
};

struct PathResult {
  std::uint32_t id = 0;
  PathEnd end = PathEnd::kStop;
  /// Byte offset of the terminating instruction (code size for implicit
  /// stop) — must match vm::ExecResult::halt_offset on witness replay.
  std::size_t halt_offset = 0;
  std::vector<Literal> constraints;   ///< Path condition (conjunction).
  std::vector<SymStore> sstores;      ///< In execution order.
  std::vector<SymTransfer> transfers; ///< Successful transfers, in order.
  ExprRef final_balance = nullptr;    ///< Symbolic self-balance at the end.
  bool imprecise = false;  ///< Havoc was introduced somewhere on the path.
  bool merged = false;     ///< Result of at least one state merge.
  std::string note;        ///< Human-readable detail (what truncated, ...).
};

/// Shared symbol environment for one code object: the expression pool plus
/// the memoized environment variables, so every path names "calldata word 4"
/// with the same node and witnesses can be keyed by origin.
class Env {
 public:
  Env();

  ExprPool& pool() { return pool_; }
  const ExprPool& pool() const { return pool_; }

  ExprRef caller() const { return caller_; }
  ExprRef callvalue() const { return callvalue_; }
  ExprRef calldatasize() const { return calldatasize_; }
  ExprRef self_address() const { return self_address_; }
  ExprRef self_balance() const { return self_balance_; }
  ExprRef timestamp() const { return timestamp_; }
  ExprRef number() const { return number_; }

  /// The 32-byte calldata word at a concrete byte offset (memoized).
  ExprRef calldata_word(std::uint64_t offset);
  /// Pre-state storage word for `key` (memoized by key node).
  ExprRef storage_init(ExprRef key);
  /// balance(addr) for a non-self address term (memoized by address node).
  ExprRef balance_of(ExprRef addr);
  /// Keccak of `len` bytes formed by the given 32-byte words (memoized).
  ExprRef keccak(std::uint64_t len, const std::vector<ExprRef>& words);
  /// A fresh unconstrained word (CALL results, unknown memory, ...).
  ExprRef havoc(const std::string& why, unsigned width = 256);

 private:
  ExprPool pool_;
  ExprRef caller_;
  ExprRef callvalue_;
  ExprRef calldatasize_;
  ExprRef self_address_;
  ExprRef self_balance_;
  ExprRef timestamp_;
  ExprRef number_;
  std::unordered_map<std::uint64_t, ExprRef> calldata_words_;
  std::unordered_map<ExprRef, ExprRef> storage_init_;
  std::unordered_map<ExprRef, ExprRef> balances_;
  std::unordered_map<std::string, ExprRef> keccaks_;
  std::uint32_t havoc_count_ = 0;
};

struct ExploreResult {
  std::vector<PathResult> paths;
  /// True when any bound (paths, states, loop visits, steps, wall clock)
  /// cut exploration short — "proved" claims must downgrade to "bounded".
  bool truncated = false;
  std::uint64_t forks = 0;
  std::uint64_t merges = 0;
  std::uint64_t pruned = 0;
  std::uint64_t steps = 0;
  std::size_t code_size = 0;
};

/// Explores `code` and returns the terminal paths. `env` and `solver` must
/// share the same pool (`Solver` is constructed over `env.pool()`).
/// Emits analysis_symex_* counters to `tel` (nullptr => global telemetry).
ExploreResult explore(util::ByteSpan code, Env& env, Solver& solver,
                      const SymexConfig& config,
                      telemetry::Telemetry* tel = nullptr);

}  // namespace sc::symex
