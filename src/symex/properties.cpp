#include "symex/properties.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>

#include "analysis/decode.hpp"
#include "crypto/keccak.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hex.hpp"

namespace sc::symex {

const char* verdict_name(PropertyVerdict v) {
  switch (v) {
    case PropertyVerdict::kProved: return "proved";
    case PropertyVerdict::kProvedBounded: return "proved-bounded";
    case PropertyVerdict::kViolated: return "violated";
    case PropertyVerdict::kUnknown: return "unknown";
  }
  return "?";
}

const char* revert_status_name(RevertStatus s) {
  switch (s) {
    case RevertStatus::kReachable: return "reachable";
    case RevertStatus::kProvedUnreachable: return "proved-unreachable";
    case RevertStatus::kUnreachableWithinBounds:
      return "unreachable-within-bounds";
    case RevertStatus::kUnknown: return "unknown";
  }
  return "?";
}

vm::Outcome expected_outcome(PathEnd end) {
  switch (end) {
    case PathEnd::kStop:
    case PathEnd::kReturn:
      return vm::Outcome::kSuccess;
    case PathEnd::kRevert:
      return vm::Outcome::kRevert;
    case PathEnd::kTransferFail:
      return vm::Outcome::kTransferFailed;
    default:
      return vm::Outcome::kInvalidOp;
  }
}

namespace {

Address word_to_address(const U256& w) {
  std::uint8_t buf[32];
  w.to_be_bytes(buf);
  Address a;
  std::copy(buf + 12, buf + 32, a.bytes.begin());
  return a;
}

bool literals_hold(const std::vector<Literal>& lits, const Assignment& model) {
  for (const Literal& lit : lits)
    if (evaluate(lit.expr, model).is_zero() == lit.truthy) return false;
  return true;
}

std::string hex_offset(std::size_t off) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%04zx", off);
  return buf;
}

// ---------------------------------------------------------------------------
// Witness materialization: model -> concrete calldata / storage / env.
//
// Calldata words may overlap (SmartCrowd reads words at offsets 0 and 4,
// which share 28 bytes), so a per-word model is not directly a byte buffer.
// The builder writes the modelled words into a buffer in ascending offset
// order (later words win on the overlap), REBINDS every calldata variable to
// what the buffer actually reads back, recomputes keccak variables from
// their (rebound) preimages, and then re-checks every path literal under the
// rebound model. Only a model that still satisfies the whole path condition
// becomes a witness — so a witness is correct by construction, never by
// trust in the solver.

std::optional<Witness> materialize(const ExprPool& pool,
                                   const Assignment& model,
                                   const PathResult& path) {
  Assignment rebound = model;

  std::vector<std::pair<std::uint64_t, std::uint32_t>> cd_words;  // offset,var
  std::vector<std::uint32_t> keccak_vars;
  std::vector<std::uint32_t> storage_vars;
  std::optional<std::uint32_t> cds_var;
  Witness w;
  for (std::uint32_t id = 0; id < pool.var_count(); ++id) {
    const VarInfo& info = pool.var_info(id);
    switch (info.origin) {
      case VarOrigin::kCalldataWord:
        cd_words.emplace_back(info.aux, id);
        break;
      case VarOrigin::kKeccak: keccak_vars.push_back(id); break;
      case VarOrigin::kStorageInit: storage_vars.push_back(id); break;
      case VarOrigin::kCalldataSize: cds_var = id; break;
      case VarOrigin::kCaller:
        w.caller = word_to_address(model.value_of(id));
        break;
      case VarOrigin::kSelfAddress:
        w.contract = word_to_address(model.value_of(id));
        break;
      case VarOrigin::kCallValue:
        w.callvalue = model.value_of(id).low64();
        break;
      case VarOrigin::kSelfBalance:
        w.self_balance = model.value_of(id).low64();
        break;
      case VarOrigin::kTimestamp:
        w.timestamp = model.value_of(id).low64();
        break;
      case VarOrigin::kNumber: w.number = model.value_of(id).low64(); break;
      default: break;
    }
  }

  // Calldata buffer: cover every word the code can read; extend to the
  // modelled CALLDATASIZE (capped at 4 KiB) so size checks stay satisfied.
  std::uint64_t len = 0;
  for (const auto& [off, id] : cd_words) len = std::max(len, off + 32);
  if (cds_var) {
    const U256 cds = model.value_of(*cds_var);
    if (cds.bit_length() <= 12) len = std::max(len, cds.low64());
  }
  util::Bytes buffer(len, 0);
  std::sort(cd_words.begin(), cd_words.end());
  for (const auto& [off, id] : cd_words) {
    std::uint8_t word[32];
    model.value_of(id).to_be_bytes(word);
    for (unsigned i = 0; i < 32 && off + i < len; ++i)
      buffer[off + i] = word[i];
  }

  // Rebind calldata variables to what the buffer actually reads (the VM
  // zero-pads reads past the end, and the rebinding mirrors that).
  for (const auto& [off, id] : cd_words) {
    std::uint8_t word[32] = {0};
    for (unsigned i = 0; i < 32; ++i)
      if (off + i < buffer.size()) word[i] = buffer[off + i];
    rebound.values[id] = U256::from_be_bytes({word, 32});
  }
  if (cds_var) rebound.values[*cds_var] = U256{len};

  // Keccak variables in creation order: a hash's preimage words were
  // interned before the hash variable itself, so everything a preimage
  // mentions (calldata, storage, earlier keccaks) is already rebound.
  std::sort(keccak_vars.begin(), keccak_vars.end());
  for (std::uint32_t id : keccak_vars) {
    const VarInfo& info = pool.var_info(id);
    util::Bytes preimage;
    for (ExprRef arg : info.args) {
      std::uint8_t word[32];
      evaluate(arg, rebound).to_be_bytes(word);
      preimage.insert(preimage.end(), word, word + 32);
    }
    preimage.resize(info.aux);
    rebound.values[id] =
        U256::from_hash(crypto::keccak256({preimage.data(), preimage.size()}));
  }

  // The rebinding may have shifted values the path depends on — accept the
  // witness only if every literal still holds concretely.
  if (!literals_hold(path.constraints, rebound)) return std::nullopt;

  // Pre-state storage: concrete key per storage-init variable. Two variables
  // colliding on the same concrete key with different values would be an
  // inconsistent pre-state — reject the witness.
  std::map<U256, U256> storage;
  for (std::uint32_t id : storage_vars) {
    const VarInfo& info = pool.var_info(id);
    const U256 key = evaluate(info.key, rebound);
    const U256 value = rebound.value_of(id);
    const auto it = storage.find(key);
    if (it != storage.end()) {
      if (it->second != value) return std::nullopt;
      continue;
    }
    storage.emplace(key, value);
  }
  for (const auto& [key, value] : storage)
    if (!value.is_zero()) w.storage.emplace_back(key, value);

  w.calldata = std::move(buffer);
  w.predicted_halt = path.halt_offset;
  w.predicted_end = path.end;
  w.path_id = path.id;
  return w;
}

// ---------------------------------------------------------------------------
// Replay on the real interpreter.

class ReplayHost final : public vm::Host {
 public:
  std::map<U256, U256> storage;
  std::map<Address, std::uint64_t> balances;
  struct Transfer {
    Address from;
    Address to;
    std::uint64_t amount;
  };
  std::vector<Transfer> transfers;
  std::uint64_t timestamp = 0;
  std::uint64_t number = 0;

  U256 get_storage(const Address&, const U256& key) override {
    const auto it = storage.find(key);
    return it == storage.end() ? U256::zero() : it->second;
  }
  void set_storage(const Address&, const U256& key,
                   const U256& value) override {
    storage[key] = value;
  }
  std::uint64_t balance(const Address& account) override {
    const auto it = balances.find(account);
    return it == balances.end() ? 0 : it->second;
  }
  bool transfer(const Address& from, const Address& to,
                std::uint64_t amount) override {
    auto& src = balances[from];
    if (src < amount) return false;
    src -= amount;
    balances[to] += amount;
    transfers.push_back({from, to, amount});
    return true;
  }
  void emit_log(vm::LogEntry) override {}
  std::uint64_t block_timestamp() override { return timestamp; }
  std::uint64_t block_number() override { return number; }
};

/// Replays `w` against `code`, filling replay_confirmed / replay_note.
/// `paid_out` (when non-null) receives the total value that left the
/// contract, so violation reports can assert money actually moved.
bool replay(util::ByteSpan code, Witness& w,
            std::uint64_t* paid_out = nullptr) {
  ReplayHost host;
  host.timestamp = w.timestamp;
  host.number = w.number;
  for (const auto& [key, value] : w.storage) host.storage[key] = value;
  host.balances[w.contract] = w.self_balance;

  vm::Context ctx;
  ctx.contract = w.contract;
  ctx.caller = w.caller;
  ctx.value = w.callvalue;
  ctx.calldata = w.calldata;
  ctx.gas_limit = 50'000'000;

  const vm::ExecResult r = vm::execute(host, ctx, code);
  std::uint64_t out = 0;
  for (const auto& t : host.transfers)
    if (t.from == w.contract) out += t.amount;
  if (paid_out) *paid_out = out;

  const bool outcome_ok = r.outcome == expected_outcome(w.predicted_end);
  const bool halt_ok = r.halt_offset == w.predicted_halt;
  w.replay_confirmed = outcome_ok && halt_ok;
  w.replay_note =
      w.replay_confirmed
          ? "replay confirmed (halt @" + hex_offset(r.halt_offset) + ")"
          : "replay mismatch: outcome " +
                std::string(outcome_ok ? "matches" : "differs") + ", halt " +
                hex_offset(r.halt_offset) + " vs predicted " +
                hex_offset(w.predicted_halt);
  return w.replay_confirmed;
}

// ---------------------------------------------------------------------------
// Syntactic path classification.

bool is_slot_var(ExprRef e, const ExprPool& pool, std::uint64_t slot) {
  if (!e->is_var()) return false;
  const VarInfo& info = pool.var_info(e->var);
  return info.origin == VarOrigin::kStorageInit && info.key &&
         info.key->is_const() && info.key->value == U256{slot};
}

bool is_hashed_key_store(const SymStore& st, const ExprPool& pool) {
  if (st.key->is_const()) return false;
  if (st.key->is_var())
    return pool.var_info(st.key->var).origin == VarOrigin::kKeccak;
  return true;  // Computed non-constant key: treat as mapping-style slot.
}

/// Does some path literal pin `e` to exactly 1?
bool implies_one(const std::vector<Literal>& lits, ExprRef e) {
  if (e->is_const()) return e->value == U256::one();
  for (const Literal& lit : lits) {
    if (!lit.truthy || lit.expr->kind != ExprKind::kEq) continue;
    ExprRef a = lit.expr->a;
    ExprRef b = lit.expr->b;
    if ((a == e && b->is_const() && b->value == U256::one()) ||
        (b == e && a->is_const() && a->value == U256::one()))
      return true;
  }
  return false;
}

/// Does the path prove storage[slot] == 0 for a constant slot?
bool proves_slot_zero(const PathResult& path, const ExprPool& pool,
                      std::uint64_t slot) {
  for (const Literal& lit : path.constraints) {
    if (!lit.truthy && is_slot_var(lit.expr, pool, slot)) return true;
    if (!lit.truthy) continue;
    if (lit.expr->kind == ExprKind::kIsZero &&
        is_slot_var(lit.expr->a, pool, slot))
      return true;
    if (lit.expr->kind == ExprKind::kEq) {
      ExprRef a = lit.expr->a;
      ExprRef b = lit.expr->b;
      if ((is_slot_var(a, pool, slot) && b->is_const() && b->value.is_zero()) ||
          (is_slot_var(b, pool, slot) && a->is_const() && a->value.is_zero()))
        return true;
    }
  }
  return false;
}

/// A "commitment consume": an SSTORE to a hashed (mapping) key whose
/// pre-value the path proves to be 1 and whose new value is a constant != 1 —
/// the deposit record is spent, so the payout cannot be replayed.
bool has_commitment_consume(const PathResult& path, const ExprPool& pool) {
  for (const SymStore& st : path.sstores) {
    if (!is_hashed_key_store(st, pool)) continue;
    if (!implies_one(path.constraints, st.pre)) continue;
    if (st.value->is_const() && st.value->value != U256::one()) return true;
  }
  return false;
}

enum class TransferClass { kBounty, kReclaim, kUnclassified };

TransferClass classify_transfer(const PathResult& path, const SymTransfer& t,
                                const ExprPool& pool, const Env& env,
                                const ContractSpec& spec) {
  // R1 — tiered bounty payout: recipient is msg.sender, the amount is read
  // from one of the configured bounty slots, and a commitment is consumed.
  if (t.to == env.caller()) {
    const bool bounty_amount =
        std::any_of(spec.bounty_slots.begin(), spec.bounty_slots.end(),
                    [&](std::uint64_t slot) {
                      return is_slot_var(t.amount, pool, slot);
                    });
    if (bounty_amount && has_commitment_consume(path, pool))
      return TransferClass::kBounty;
  }
  // R2 — provider reclaim: recipient is the provider slot and the path
  // proves vuln_count == 0 (nothing owed to submitters).
  if (is_slot_var(t.to, pool, spec.provider_slot) &&
      proves_slot_zero(path, pool, spec.vuln_count_slot))
    return TransferClass::kReclaim;
  return TransferClass::kUnclassified;
}

bool is_success(PathEnd end) {
  return end == PathEnd::kStop || end == PathEnd::kReturn;
}

// ---------------------------------------------------------------------------
// Violation confirmation.

/// Tries to confirm a candidate violating path with a replayed witness.
/// Returns a confirmed witness or nullopt — the caller reports kUnknown in
/// the latter case, never kViolated. Merged or imprecise paths are never
/// confirmed: a merge ORs path conditions into one literal, which can hide
/// the guard that made the transfer legitimate.
std::optional<Witness> confirm_violation(util::ByteSpan code,
                                         const PathResult& path, Env& env,
                                         Solver& solver,
                                         const SymTransfer& transfer) {
  if (path.imprecise || path.merged) return std::nullopt;
  PathResult strengthened = path;
  // Money must actually move for an economic violation.
  strengthened.constraints.push_back(
      {env.pool().gt(transfer.amount, env.pool().zero()), true});
  const SolveResult res = solver.check(strengthened.constraints);
  if (res.status != SolveStatus::kSat) return std::nullopt;
  std::optional<Witness> w =
      materialize(env.pool(), res.model, strengthened);
  if (!w) return std::nullopt;
  std::uint64_t paid = 0;
  if (!replay(code, *w, &paid)) return std::nullopt;
  if (paid == 0) return std::nullopt;
  return w;
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver.

SymexReport check_contract(util::ByteSpan code, const ContractSpec& spec,
                           const SymexConfig& config,
                           telemetry::Telemetry* tel) {
  Env env;
  Solver solver(env.pool());
  SymexReport report;
  report.exploration = explore(code, env, solver, config, tel);
  const ExploreResult& ex = report.exploration;
  const ExprPool& pool = env.pool();

  const bool bounded =
      ex.truncated || std::any_of(ex.paths.begin(), ex.paths.end(),
                                  [](const PathResult& p) {
                                    return p.imprecise ||
                                           p.end == PathEnd::kTruncated;
                                  });

  // -- Economic invariants --------------------------------------------------
  std::size_t bounty_paths = 0, reclaim_paths = 0, quiet_paths = 0;
  bool escrow_unknown = false, payout_unknown = false;
  report.escrow.name = "escrow-conservation";
  report.payout.name = "payout-requires-deposit";
  for (const PathResult& path : ex.paths) {
    if (!is_success(path.end)) continue;
    if (path.transfers.empty()) {
      ++quiet_paths;
      continue;
    }
    for (const SymTransfer& t : path.transfers) {
      const TransferClass cls = classify_transfer(path, t, pool, env, spec);
      if (cls == TransferClass::kBounty) {
        ++bounty_paths;
        continue;
      }
      if (cls == TransferClass::kReclaim) {
        ++reclaim_paths;
        continue;
      }
      // Candidate violation. Which property it breaks depends on the shape:
      // a payout to a non-provider recipient without a consumed deposit hits
      // payout-requires-deposit; everything else is an escrow leak.
      const bool deposit_violation =
          !is_slot_var(t.to, pool, spec.provider_slot) &&
          !has_commitment_consume(path, pool);
      std::optional<Witness> w =
          confirm_violation(code, path, env, solver, t);
      PropertyReport& target =
          deposit_violation ? report.payout : report.escrow;
      if (w) {
        target.verdict = PropertyVerdict::kViolated;
        if (target.detail.empty())
          target.detail =
              "path " + std::to_string(path.id) + " pays out at halt " +
              hex_offset(path.halt_offset) +
              (deposit_violation ? " without a matching deposit"
                                 : " outside the allowed payout shapes") +
              "; " + w->replay_note;
        if (!target.witness) target.witness = std::move(w);
      } else {
        (deposit_violation ? payout_unknown : escrow_unknown) = true;
      }
    }
  }

  const PropertyVerdict clean_verdict =
      bounded ? PropertyVerdict::kProvedBounded : PropertyVerdict::kProved;
  if (report.escrow.verdict != PropertyVerdict::kViolated) {
    report.escrow.verdict =
        escrow_unknown ? PropertyVerdict::kUnknown : clean_verdict;
    report.escrow.detail =
        std::to_string(bounty_paths) + " bounty payout(s), " +
        std::to_string(reclaim_paths) + " reclaim(s), " +
        std::to_string(quiet_paths) + " transfer-free success path(s)" +
        (escrow_unknown ? "; unconfirmed candidate leak" : "");
  }
  if (report.payout.verdict != PropertyVerdict::kViolated) {
    report.payout.verdict =
        payout_unknown ? PropertyVerdict::kUnknown : clean_verdict;
    report.payout.detail =
        "every payout consumes a deposit commitment (" +
        std::to_string(bounty_paths) + " payout path(s))" +
        (payout_unknown ? "; unconfirmed candidate" : "");
  }

  // -- Revert-site classification ------------------------------------------
  for (const analysis::Instr& instr : analysis::decode(code)) {
    if (static_cast<vm::Op>(instr.opcode) != vm::Op::kRevert) continue;
    RevertSite site;
    site.offset = instr.offset;
    bool any_unknown = false;
    for (const PathResult& path : ex.paths) {
      if (path.end != PathEnd::kRevert || path.halt_offset != instr.offset)
        continue;
      const SolveResult res = solver.check(path.constraints);
      if (res.status == SolveStatus::kUnsat) continue;
      if (res.status == SolveStatus::kUnknown) {
        any_unknown = true;
        continue;
      }
      std::optional<Witness> w = materialize(pool, res.model, path);
      if (!w) {
        any_unknown = true;
        continue;
      }
      if (replay(code, *w)) {
        site.status = RevertStatus::kReachable;
        site.witness = std::move(w);
        break;
      }
      any_unknown = true;
    }
    if (site.status != RevertStatus::kReachable) {
      site.status = any_unknown ? RevertStatus::kUnknown
                    : bounded   ? RevertStatus::kUnreachableWithinBounds
                                : RevertStatus::kProvedUnreachable;
    }
    report.reverts.push_back(std::move(site));
  }

  report.solver = solver.stats();
  auto& registry = telemetry::resolve(tel).registry;
  registry
      .counter("analysis_symex_solver_queries_total",
               "Constraint-solver queries issued during symbolic analysis")
      .add(report.solver.queries + report.solver.quick_queries);
  const auto count_decisions = [&](const char* query, const auto& by_layer) {
    for (const auto& [layer, n] : by_layer)
      registry
          .counter("analysis_symex_solver_decisions_total",
                   "Solver queries by the layer that decided them",
                   {{"layer", layer}, {"query", query}})
          .add(n);
  };
  count_decisions("check", report.solver.decisions);
  count_decisions("quick", report.solver.quick_decisions);
  for (const RevertSite& site : report.reverts)
    registry
        .counter("analysis_symex_reverts_total",
                 "REVERT sites classified by reachability",
                 {{"status", revert_status_name(site.status)}})
        .inc();
  for (const PropertyReport* p : {&report.escrow, &report.payout})
    registry
        .counter("analysis_symex_properties_total",
                 "Economic-invariant verdicts",
                 {{"verdict", verdict_name(p->verdict)}})
        .inc();
  return report;
}

std::string render_report(const SymexReport& report) {
  std::string out;
  const ExploreResult& ex = report.exploration;
  out += "symex: " + std::to_string(ex.paths.size()) + " path(s), " +
         std::to_string(ex.forks) + " fork(s), " + std::to_string(ex.merges) +
         " merge(s), " + std::to_string(ex.pruned) + " pruned, " +
         std::to_string(report.solver.queries + report.solver.quick_queries) +
         " solver queries" + (ex.truncated ? " [bounded]" : "") + "\n";
  for (const RevertSite& site : report.reverts) {
    out += "revert @" + hex_offset(site.offset) + ": " +
           revert_status_name(site.status);
    if (site.witness)
      out += " (calldata=0x" + util::to_hex(site.witness->calldata) + ", " +
             site.witness->replay_note + ")";
    out += "\n";
  }
  for (const PropertyReport* p : {&report.escrow, &report.payout}) {
    out += "property " + std::string(p->name) + ": " +
           verdict_name(p->verdict) + " -- " + p->detail + "\n";
    if (p->witness) {
      out += "  witness: calldata=0x" + util::to_hex(p->witness->calldata) +
             " value=" + std::to_string(p->witness->callvalue) +
             " balance=" + std::to_string(p->witness->self_balance);
      for (const auto& [key, value] : p->witness->storage)
        out += " s[0x" + key.hex() + "]=0x" + value.hex();
      out += "\n  " + p->witness->replay_note + "\n";
    }
  }
  return out;
}

}  // namespace sc::symex
