// sc::symex property layer — economic invariants and revert classification
// over the path set produced by symex/explore.hpp, with counterexample
// witnesses replayed on the real interpreter.
//
// Checked properties (the SmartCrowd incentive-escrow contract is the model,
// but any contract following the same storage layout can be checked):
//
//   escrow-conservation   Every successful path either moves no value, pays
//                         exactly one bounty (amount = one of the configured
//                         bounty slots, recipient = msg.sender) while
//                         consuming a commitment record (storage[k]: 1 -> !=1
//                         for a hashed key k), or is the provider reclaim
//                         (recipient = the provider slot, guarded by
//                         vuln_count == 0). Anything else leaks escrow.
//
//   payout-requires-deposit  Every successful payout to a non-provider
//                         recipient consumes a commitment whose pre-value the
//                         path proves to be 1 — i.e. a record created by a
//                         prior register_initial deposit (the paper's SRA
//                         deposit). A path that pays without such a consume
//                         is a violation.
//
// Verdict semantics are deliberately asymmetric:
//   kProved         holds on EVERY path, exploration was exhaustive.
//   kProvedBounded  holds on every explored path, but loops were truncated
//                   or havoc was introduced — a bounded-model-checking claim.
//   kViolated       a counterexample exists AND its concrete witness was
//                   replayed on vm::VM with the predicted outcome. No
//                   violation is ever reported from symbolic reasoning alone.
//   kUnknown        a candidate violation could not be confirmed (solver
//                   budget, witness materialization or replay failed).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/hash_types.hpp"
#include "symex/explore.hpp"
#include "vm/vm.hpp"

namespace sc::symex {

using crypto::Address;

/// Storage layout of the escrow contract under check. Defaults match the
/// SmartCrowd registry contract (contracts/smartcrowd_contract.cpp).
struct ContractSpec {
  std::uint64_t provider_slot = 0;
  std::vector<std::uint64_t> bounty_slots = {1, 8, 9};
  std::uint64_t vuln_count_slot = 3;
  std::uint64_t closed_slot = 6;
};

enum class PropertyVerdict : std::uint8_t {
  kProved,
  kProvedBounded,
  kViolated,
  kUnknown,
};

enum class RevertStatus : std::uint8_t {
  kReachable,               ///< SAT + witness replay hit this exact REVERT.
  kProvedUnreachable,       ///< No feasible path within a complete exploration.
  kUnreachableWithinBounds, ///< Not reached, but exploration was bounded.
  kUnknown,                 ///< Candidate path exists; could not confirm.
};

const char* verdict_name(PropertyVerdict v);
const char* revert_status_name(RevertStatus s);

/// A concrete input materialized from a path-condition model. Replayable on
/// the real VM: `replay_confirmed` is set only when vm::execute on exactly
/// this input halts at `predicted_halt` with the predicted outcome.
struct Witness {
  util::Bytes calldata;
  Address caller;
  Address contract;
  std::uint64_t callvalue = 0;
  std::uint64_t self_balance = 0;
  std::uint64_t timestamp = 0;
  std::uint64_t number = 0;
  /// Pre-state storage of the contract (key, value).
  std::vector<std::pair<U256, U256>> storage;

  std::size_t predicted_halt = 0;
  PathEnd predicted_end = PathEnd::kStop;
  std::uint32_t path_id = 0;

  bool replay_confirmed = false;
  std::string replay_note;
};

/// Classification of one REVERT instruction in the code.
struct RevertSite {
  std::size_t offset = 0;
  RevertStatus status = RevertStatus::kUnknown;
  std::optional<Witness> witness;  ///< Set when status == kReachable.
};

struct PropertyReport {
  const char* name = "";
  PropertyVerdict verdict = PropertyVerdict::kUnknown;
  std::string detail;
  std::optional<Witness> witness;  ///< Set when verdict == kViolated.
};

struct SymexReport {
  ExploreResult exploration;
  std::vector<RevertSite> reverts;
  PropertyReport escrow;
  PropertyReport payout;
  SolverStats solver;

  /// No confirmed violation (kUnknown does NOT fail the report).
  bool ok() const {
    return escrow.verdict != PropertyVerdict::kViolated &&
           payout.verdict != PropertyVerdict::kViolated;
  }
  bool has_unknown() const {
    return escrow.verdict == PropertyVerdict::kUnknown ||
           payout.verdict == PropertyVerdict::kUnknown;
  }
};

/// vm::Outcome a path end must reproduce on replay.
vm::Outcome expected_outcome(PathEnd end);

/// Runs the full pipeline: explore, classify every REVERT site, check the
/// economic invariants, replay every claimed counterexample.
SymexReport check_contract(util::ByteSpan code, const ContractSpec& spec = {},
                           const SymexConfig& config = {},
                           telemetry::Telemetry* tel = nullptr);

/// Human-readable multi-line report (for scvm_lint --deep).
std::string render_report(const SymexReport& report);

}  // namespace sc::symex
