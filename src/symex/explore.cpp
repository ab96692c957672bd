#include "symex/explore.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "analysis/decode.hpp"
#include "crypto/keccak.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/opcode.hpp"
#include "vm/vm.hpp"

namespace sc::symex {

using vm::Op;

const char* path_end_name(PathEnd end) {
  switch (end) {
    case PathEnd::kStop: return "stop";
    case PathEnd::kReturn: return "return";
    case PathEnd::kRevert: return "revert";
    case PathEnd::kInvalid: return "invalid";
    case PathEnd::kTransferFail: return "transfer_fail";
    case PathEnd::kTruncated: return "truncated";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Env.

Env::Env() {
  caller_ = pool_.make_var(VarOrigin::kCaller, "caller", 160);
  callvalue_ = pool_.make_var(VarOrigin::kCallValue, "callvalue", 64);
  calldatasize_ = pool_.make_var(VarOrigin::kCalldataSize, "cds", 32);
  self_address_ = pool_.make_var(VarOrigin::kSelfAddress, "this", 160);
  self_balance_ = pool_.make_var(VarOrigin::kSelfBalance, "balance0", 64);
  timestamp_ = pool_.make_var(VarOrigin::kTimestamp, "timestamp", 64);
  number_ = pool_.make_var(VarOrigin::kNumber, "number", 64);
}

ExprRef Env::calldata_word(std::uint64_t offset) {
  const auto it = calldata_words_.find(offset);
  if (it != calldata_words_.end()) return it->second;
  ExprRef v = pool_.make_var(VarOrigin::kCalldataWord,
                             "cd[" + std::to_string(offset) + "]", 256, offset);
  calldata_words_.emplace(offset, v);
  return v;
}

ExprRef Env::storage_init(ExprRef key) {
  const auto it = storage_init_.find(key);
  if (it != storage_init_.end()) return it->second;
  ExprRef v = pool_.make_var(
      VarOrigin::kStorageInit,
      "sload#" + std::to_string(storage_init_.size()), 256, 0, key);
  storage_init_.emplace(key, v);
  return v;
}

ExprRef Env::balance_of(ExprRef addr) {
  const auto it = balances_.find(addr);
  if (it != balances_.end()) return it->second;
  ExprRef v = pool_.make_var(VarOrigin::kBalance,
                             "bal#" + std::to_string(balances_.size()), 64, 0,
                             addr);
  balances_.emplace(addr, v);
  return v;
}

ExprRef Env::keccak(std::uint64_t len, const std::vector<ExprRef>& words) {
  std::string memo_key = std::to_string(len);
  for (ExprRef w : words) {
    memo_key += ':';
    memo_key += std::to_string(w->id);
  }
  const auto it = keccaks_.find(memo_key);
  if (it != keccaks_.end()) return it->second;
  ExprRef v = pool_.make_var(VarOrigin::kKeccak,
                             "keccak#" + std::to_string(keccaks_.size()), 256,
                             len, nullptr, words);
  keccaks_.emplace(std::move(memo_key), v);
  return v;
}

ExprRef Env::havoc(const std::string& why, unsigned width) {
  return pool_.make_var(VarOrigin::kHavoc,
                        "havoc#" + std::to_string(havoc_count_++) + ":" + why,
                        width);
}

// ---------------------------------------------------------------------------
// Explorer.

namespace {

/// A 32-byte-aligned symbolic memory write at a concrete offset.
struct MemWrite {
  std::uint64_t offset;
  ExprRef word;
};

struct StoreWrite {
  ExprRef key;
  ExprRef value;
};

struct State {
  std::size_t pc = 0;
  std::vector<ExprRef> stack;
  std::vector<MemWrite> mem;
  std::vector<StoreWrite> store;
  std::vector<Literal> constraints;
  ExprRef balance = nullptr;
  std::vector<SymTransfer> transfers;
  std::vector<SymStore> sstores;
  std::unordered_map<std::size_t, std::uint32_t> visits;  ///< JUMPDEST counts.
  std::uint32_t steps = 0;
  bool imprecise = false;
  bool mem_havoc = false;  ///< An unmodelable write clobbered memory.
  bool merged = false;
};

enum class Alias { kMust, kNever, kMaybe };

bool is_keccak_var(ExprRef e, const ExprPool& pool) {
  return e->is_var() && pool.var_info(e->var).origin == VarOrigin::kKeccak;
}

/// Syntactic storage-key aliasing. Distinct keccak variables (and a keccak
/// against a small constant slot) are treated as never-aliasing — the
/// standard collision-free-hash assumption, documented in
/// docs/static-analysis.md.
Alias alias_check(ExprRef a, ExprRef b, const ExprPool& pool) {
  if (a == b) return Alias::kMust;
  if (a->is_const() && b->is_const()) return Alias::kNever;
  const bool ka = is_keccak_var(a, pool);
  const bool kb = is_keccak_var(b, pool);
  if (ka && kb) return Alias::kNever;  // Distinct nodes => distinct preimages.
  if ((ka && b->is_const()) || (kb && a->is_const())) return Alias::kNever;
  return Alias::kMaybe;
}

class Explorer {
 public:
  Explorer(util::ByteSpan code, Env& env, Solver& solver,
           const SymexConfig& config)
      : code_(code),
        env_(env),
        pool_(env.pool()),
        solver_(solver),
        config_(config),
        jumpdests_(analysis::jumpdest_map(code)) {}

  ExploreResult run() {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(config_.time_budget_ms == 0
                                      ? 1u << 30
                                      : config_.time_budget_ms);
    State initial;
    initial.balance = env_.self_balance();
    work_.push_back(std::move(initial));

    while (!work_.empty()) {
      if (result_.paths.size() >= config_.max_paths ||
          std::chrono::steady_clock::now() > deadline) {
        result_.truncated = true;
        timed_out_ = std::chrono::steady_clock::now() > deadline;
        break;
      }
      State s = std::move(work_.back());
      work_.pop_back();
      step_until_end(std::move(s));
    }
    if (!work_.empty()) result_.truncated = true;
    result_.code_size = code_.size();
    return std::move(result_);
  }

  bool timed_out() const { return timed_out_; }

 private:
  // -- Symbolic memory -----------------------------------------------------

  ExprRef mload(State& s, std::uint64_t off) {
    for (auto it = s.mem.rbegin(); it != s.mem.rend(); ++it) {
      if (it->offset == off) return it->word;
      if (it->offset < off + 32 && off < it->offset + 32) {
        s.imprecise = true;
        return env_.havoc("mload-overlap");
      }
    }
    if (s.mem_havoc) {
      s.imprecise = true;
      return env_.havoc("mload-clobbered");
    }
    return pool_.zero();  // Untouched memory reads as zero.
  }

  /// The words covering [off, off+len) for KECCAK; nullopt if any read is
  /// not exactly word-aligned with the writes.
  std::optional<std::vector<ExprRef>> mem_words(State& s, std::uint64_t off,
                                                std::uint64_t len) {
    if (len % 32 != 0) return std::nullopt;
    std::vector<ExprRef> words;
    for (std::uint64_t k = 0; k < len; k += 32) {
      bool clobbered = false;
      ExprRef word = nullptr;
      for (auto it = s.mem.rbegin(); it != s.mem.rend(); ++it) {
        if (it->offset == off + k) {
          word = it->word;
          break;
        }
        if (it->offset < off + k + 32 && off + k < it->offset + 32) {
          clobbered = true;
          break;
        }
      }
      if (clobbered || (!word && s.mem_havoc)) return std::nullopt;
      words.push_back(word ? word : pool_.zero());
    }
    return words;
  }

  // -- Symbolic storage ----------------------------------------------------

  ExprRef storage_lookup(State& s, ExprRef key) {
    for (auto it = s.store.rbegin(); it != s.store.rend(); ++it) {
      switch (alias_check(key, it->key, pool_)) {
        case Alias::kMust:
          return it->value;
        case Alias::kNever:
          continue;
        case Alias::kMaybe:
          s.imprecise = true;
          return env_.havoc("sload-alias");
      }
    }
    return env_.storage_init(key);
  }

  // -- Path bookkeeping ----------------------------------------------------

  void finalize(State&& s, PathEnd end, std::size_t halt,
                std::string note = {}) {
    if (end == PathEnd::kTruncated) result_.truncated = true;
    if (result_.paths.size() >= config_.max_paths) {
      result_.truncated = true;
      return;
    }
    PathResult p;
    p.id = static_cast<std::uint32_t>(result_.paths.size());
    p.end = end;
    p.halt_offset = halt;
    p.constraints = std::move(s.constraints);
    p.sstores = std::move(s.sstores);
    p.transfers = std::move(s.transfers);
    p.final_balance = s.balance;
    p.imprecise = s.imprecise;
    p.merged = s.merged;
    p.note = std::move(note);
    result_.paths.push_back(std::move(p));
  }

  ExprRef path_condition(const State& s) {
    ExprRef acc = pool_.one();
    for (const Literal& lit : s.constraints) {
      ExprRef t = lit.truthy ? pool_.truthy(lit.expr) : pool_.is_zero(lit.expr);
      acc = pool_.bool_and(acc, t);
    }
    return acc;
  }

  bool mergeable(const State& a, const State& b) const {
    if (a.pc != b.pc || a.stack != b.stack || a.balance != b.balance ||
        a.imprecise != b.imprecise || a.mem_havoc != b.mem_havoc)
      return false;
    auto mem_eq = [](const MemWrite& x, const MemWrite& y) {
      return x.offset == y.offset && x.word == y.word;
    };
    auto store_eq = [](const StoreWrite& x, const StoreWrite& y) {
      return x.key == y.key && x.value == y.value;
    };
    auto sstore_eq = [](const SymStore& x, const SymStore& y) {
      return x.key == y.key && x.value == y.value && x.pre == y.pre;
    };
    auto transfer_eq = [](const SymTransfer& x, const SymTransfer& y) {
      return x.to == y.to && x.amount == y.amount;
    };
    return std::equal(a.mem.begin(), a.mem.end(), b.mem.begin(), b.mem.end(), mem_eq) &&
           std::equal(a.store.begin(), a.store.end(), b.store.begin(), b.store.end(), store_eq) &&
           std::equal(a.sstores.begin(), a.sstores.end(), b.sstores.begin(), b.sstores.end(), sstore_eq) &&
           std::equal(a.transfers.begin(), a.transfers.end(), b.transfers.begin(), b.transfers.end(), transfer_eq);
  }

  /// Enqueues a state, first trying to merge it into a pending state that
  /// reached the same JUMPDEST with identical core state (the path
  /// conditions are OR-ed into one literal).
  void enqueue(State&& s) {
    if (work_.size() + 1 > config_.max_states) {
      result_.truncated = true;
      return;
    }
    if (s.pc < jumpdests_.size() && jumpdests_[s.pc]) {
      for (State& pending : work_) {
        if (!mergeable(pending, s)) continue;
        ExprRef merged_pc =
            pool_.bool_or(path_condition(pending), path_condition(s));
        pending.constraints.clear();
        if (!merged_pc->is_const() || merged_pc->value.is_zero())
          pending.constraints.push_back({merged_pc, true});
        pending.merged = true;
        for (const auto& [dest, count] : s.visits) {
          auto& c = pending.visits[dest];
          c = std::max(c, count);
        }
        pending.steps = std::max(pending.steps, s.steps);
        ++result_.merges;
        return;
      }
    }
    work_.push_back(std::move(s));
  }

  /// Adds `lit` to the state's path condition and reports feasibility via
  /// the solver's cheap layers (kUnsat => prune).
  bool assume(State& s, Literal lit) {
    if (lit.expr->is_const())
      return lit.expr->value.is_zero() != lit.truthy;
    s.constraints.push_back(lit);
    if (solver_.quick_check(s.constraints) == SolveStatus::kUnsat) {
      ++result_.pruned;
      return false;
    }
    return true;
  }

  // -- Stepping ------------------------------------------------------------

  std::optional<ExprRef> pop(State& s) {
    if (s.stack.empty()) return std::nullopt;
    ExprRef e = s.stack.back();
    s.stack.pop_back();
    return e;
  }

  bool push(State& s, ExprRef e) {
    if (s.stack.size() >= vm::kMaxStack) return false;
    s.stack.push_back(e);
    return true;
  }

  /// Concrete value of `e` if it folds to a constant with bit_length <= 32
  /// (the VM's offset-range rule).
  std::optional<std::uint64_t> mem_offset(ExprRef e) {
    if (!e->is_const() || e->value.bit_length() > 32) return std::nullopt;
    return e->value.low64();
  }

  void step_until_end(State s) {
    while (true) {
      ++result_.steps;
      if (++s.steps > config_.max_steps_per_path) {
        finalize(std::move(s), PathEnd::kTruncated, s.pc, "step budget");
        return;
      }
      if (s.pc >= code_.size()) {
        finalize(std::move(s), PathEnd::kStop, code_.size());
        return;
      }
      const std::uint8_t byte = code_[s.pc];
      const std::size_t pc = s.pc;

      // PUSH / DUP / SWAP families first.
      if (vm::is_push(byte)) {
        const unsigned n = vm::push_size(byte);
        std::uint8_t buf[32] = {0};
        for (unsigned i = 0; i < n; ++i) {
          const std::size_t idx = pc + 1 + i;
          // Truncated push zero-pads, exactly like the interpreter.
          buf[32 - n + i] = idx < code_.size() ? code_[idx] : 0;
        }
        if (!push(s, pool_.constant(U256::from_be_bytes({buf, 32})))) {
          finalize(std::move(s), PathEnd::kInvalid, pc, "stack overflow");
          return;
        }
        s.pc = pc + 1 + n;
        continue;
      }
      if (vm::is_dup(byte)) {
        const unsigned n = byte - 0x80 + 1;
        if (s.stack.size() < n || !push(s, s.stack[s.stack.size() - n])) {
          finalize(std::move(s), PathEnd::kInvalid, pc, "dup");
          return;
        }
        s.pc = pc + 1;
        continue;
      }
      if (vm::is_swap(byte)) {
        const unsigned n = byte - 0x90 + 1;
        if (s.stack.size() < n + 1) {
          finalize(std::move(s), PathEnd::kInvalid, pc, "swap underflow");
          return;
        }
        std::swap(s.stack[s.stack.size() - 1], s.stack[s.stack.size() - 1 - n]);
        s.pc = pc + 1;
        continue;
      }

      const Op op = static_cast<Op>(byte);
      // Binary ALU ops share one path.
      ExprKind bin_kind;
      bool is_binary = true;
      switch (op) {
        case Op::kAdd: bin_kind = ExprKind::kAdd; break;
        case Op::kMul: bin_kind = ExprKind::kMul; break;
        case Op::kSub: bin_kind = ExprKind::kSub; break;
        case Op::kDiv: bin_kind = ExprKind::kDiv; break;
        case Op::kSDiv: bin_kind = ExprKind::kSDiv; break;
        case Op::kMod: bin_kind = ExprKind::kMod; break;
        case Op::kSMod: bin_kind = ExprKind::kSMod; break;
        case Op::kExp: bin_kind = ExprKind::kExp; break;
        case Op::kSignExtend: bin_kind = ExprKind::kSignExtend; break;
        case Op::kLt: bin_kind = ExprKind::kLt; break;
        case Op::kGt: bin_kind = ExprKind::kGt; break;
        case Op::kSLt: bin_kind = ExprKind::kSLt; break;
        case Op::kSGt: bin_kind = ExprKind::kSGt; break;
        case Op::kEq: bin_kind = ExprKind::kEq; break;
        case Op::kAnd: bin_kind = ExprKind::kAnd; break;
        case Op::kOr: bin_kind = ExprKind::kOr; break;
        case Op::kXor: bin_kind = ExprKind::kXor; break;
        case Op::kByte: bin_kind = ExprKind::kByte; break;
        case Op::kShl: bin_kind = ExprKind::kShl; break;
        case Op::kShr: bin_kind = ExprKind::kShr; break;
        default: is_binary = false; break;
      }
      if (is_binary) {
        auto a = pop(s);
        auto b = pop(s);
        if (!a || !b) {
          finalize(std::move(s), PathEnd::kInvalid, pc, "alu underflow");
          return;
        }
        push(s, pool_.binary(bin_kind, *a, *b));
        s.pc = pc + 1;
        continue;
      }

      switch (op) {
        case Op::kStop:
          finalize(std::move(s), PathEnd::kStop, pc);
          return;

        case Op::kIsZero:
        case Op::kNot: {
          auto a = pop(s);
          if (!a) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "unary underflow");
            return;
          }
          push(s, pool_.unary(op == Op::kIsZero ? ExprKind::kIsZero
                                                : ExprKind::kNot,
                              *a));
          s.pc = pc + 1;
          break;
        }

        case Op::kKeccak: {
          auto off = pop(s);
          auto len = pop(s);
          if (!off || !len) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "keccak underflow");
            return;
          }
          const auto coff = mem_offset(*off);
          const auto clen = mem_offset(*len);
          if ((*off)->is_const() && !coff) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "keccak range");
            return;
          }
          if ((*len)->is_const() && !clen) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "keccak range");
            return;
          }
          ExprRef result = nullptr;
          if (coff && clen) {
            if (*clen == 0) {
              const crypto::Hash256 h = crypto::keccak256({});
              result = pool_.constant(U256::from_hash(h));
            } else if (auto words = mem_words(s, *coff, *clen)) {
              result = env_.keccak(*clen, *words);
            }
          }
          if (!result) {
            s.imprecise = true;
            result = env_.havoc("keccak");
          }
          push(s, result);
          s.pc = pc + 1;
          break;
        }

        case Op::kBalance: {
          auto a = pop(s);
          if (!a) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "balance underflow");
            return;
          }
          push(s, *a == env_.self_address() ? s.balance : env_.balance_of(*a));
          s.pc = pc + 1;
          break;
        }

        case Op::kSelfAddress:
        case Op::kCaller:
        case Op::kCallValue:
        case Op::kCallDataSize:
        case Op::kTimestamp:
        case Op::kNumber:
        case Op::kSelfBalance: {
          ExprRef v = nullptr;
          switch (op) {
            case Op::kSelfAddress: v = env_.self_address(); break;
            case Op::kCaller: v = env_.caller(); break;
            case Op::kCallValue: v = env_.callvalue(); break;
            case Op::kCallDataSize: v = env_.calldatasize(); break;
            case Op::kTimestamp: v = env_.timestamp(); break;
            case Op::kNumber: v = env_.number(); break;
            case Op::kSelfBalance: v = s.balance; break;
            default: break;
          }
          if (!push(s, v)) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "stack overflow");
            return;
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kCallDataLoad: {
          auto off = pop(s);
          if (!off) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "cdl underflow");
            return;
          }
          if ((*off)->is_const()) {
            // Out-of-range offsets read as zero-padded words; the VM only
            // zeroes wholesale beyond 2^32.
            push(s, (*off)->value.bit_length() > 32
                        ? pool_.zero()
                        : env_.calldata_word((*off)->value.low64()));
          } else {
            s.imprecise = true;
            push(s, env_.havoc("calldataload-offset"));
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kCallDataCopy: {
          auto mem_off = pop(s);
          auto data_off = pop(s);
          auto len = pop(s);
          if (!mem_off || !data_off || !len) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "cdc underflow");
            return;
          }
          const auto cm = mem_offset(*mem_off);
          const auto cd = mem_offset(*data_off);
          const auto cl = mem_offset(*len);
          if (cm && cd && cl && *cl % 32 == 0 &&
              *cm + *cl <= vm::kMaxMemory) {
            for (std::uint64_t k = 0; k < *cl; k += 32)
              s.mem.push_back({*cm + k, env_.calldata_word(*cd + k)});
          } else {
            s.mem_havoc = true;
            s.imprecise = true;
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kMStore8:
          if (pop(s) && pop(s)) {
            s.mem_havoc = true;  // Byte-granular writes are not modelled.
            s.imprecise = true;
            s.pc = pc + 1;
            break;
          }
          finalize(std::move(s), PathEnd::kInvalid, pc, "mstore8 underflow");
          return;

        case Op::kGas:
          if (!push(s, env_.havoc("gasleft", 64))) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "stack overflow");
            return;
          }
          s.pc = pc + 1;
          break;

        case Op::kPop:
          if (!pop(s)) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "pop underflow");
            return;
          }
          s.pc = pc + 1;
          break;

        case Op::kMLoad: {
          auto off = pop(s);
          if (!off) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "mload underflow");
            return;
          }
          if (const auto c = mem_offset(*off)) {
            push(s, mload(s, *c));
          } else if ((*off)->is_const()) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "mload range");
            return;
          } else {
            s.imprecise = true;
            push(s, env_.havoc("mload-offset"));
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kMStore: {
          auto off = pop(s);
          auto value = pop(s);
          if (!off || !value) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "mstore underflow");
            return;
          }
          if (const auto c = mem_offset(*off)) {
            s.mem.push_back({*c, *value});
          } else if ((*off)->is_const()) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "mstore range");
            return;
          } else {
            s.mem_havoc = true;
            s.imprecise = true;
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kSLoad: {
          auto key = pop(s);
          if (!key) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "sload underflow");
            return;
          }
          push(s, storage_lookup(s, *key));
          s.pc = pc + 1;
          break;
        }

        case Op::kSStore: {
          auto key = pop(s);
          auto value = pop(s);
          if (!key || !value) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "sstore underflow");
            return;
          }
          ExprRef pre = storage_lookup(s, *key);
          s.sstores.push_back({*key, *value, pre});
          s.store.push_back({*key, *value});
          s.pc = pc + 1;
          break;
        }

        case Op::kJump:
        case Op::kJumpI: {
          auto dest = pop(s);
          if (!dest) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "jump underflow");
            return;
          }
          ExprRef cond = pool_.one();
          if (op == Op::kJumpI) {
            auto c = pop(s);
            if (!c) {
              finalize(std::move(s), PathEnd::kInvalid, pc, "jumpi underflow");
              return;
            }
            cond = *c;
          }

          // Fall-through branch (JUMPI with a possibly-false condition).
          if (op == Op::kJumpI && !cond->is_const()) {
            State fall = s;
            fall.pc = pc + 1;
            if (assume(fall, {cond, false})) {
              ++result_.forks;
              enqueue(std::move(fall));
            }
          }

          const bool taken = cond->is_const() ? !cond->value.is_zero() : true;
          if (!taken) {
            s.pc = pc + 1;
            break;
          }
          if (op == Op::kJumpI && !cond->is_const() &&
              !assume(s, {cond, true})) {
            return;  // Taken branch infeasible; fall-through already queued.
          }
          if (!(*dest)->is_const()) {
            s.imprecise = true;
            finalize(std::move(s), PathEnd::kTruncated, pc,
                     "symbolic jump target");
            return;
          }
          const U256& d = (*dest)->value;
          if (d.bit_length() > 32 || d.low64() >= code_.size() ||
              !jumpdests_[d.low64()]) {
            finalize(std::move(s), PathEnd::kInvalid, pc,
                     "bad jump destination");
            return;
          }
          s.pc = d.low64();
          break;
        }

        case Op::kJumpDest: {
          auto& visits = s.visits[pc];
          if (++visits > config_.max_loop_visits) {
            finalize(std::move(s), PathEnd::kTruncated, pc, "loop bound");
            return;
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kLog0:
        case Op::kLog1:
        case Op::kLog2: {
          const unsigned pops = 2 + (byte - 0xa0);
          for (unsigned i = 0; i < pops; ++i) {
            if (!pop(s)) {
              finalize(std::move(s), PathEnd::kInvalid, pc, "log underflow");
              return;
            }
          }
          s.pc = pc + 1;
          break;
        }

        case Op::kCall: {
          for (unsigned i = 0; i < 7; ++i) {
            if (!pop(s)) {
              finalize(std::move(s), PathEnd::kInvalid, pc, "call underflow");
              return;
            }
          }
          // A call can run arbitrary callee code: havoc the result, the
          // output memory region and our balance. The path stays explorable
          // but can never support an unreplayed claim.
          s.imprecise = true;
          s.mem_havoc = true;
          s.balance = env_.havoc("balance-after-call", 64);
          push(s, env_.havoc("call-result", 1));
          s.pc = pc + 1;
          break;
        }

        case Op::kTransfer: {
          auto to = pop(s);
          auto amount = pop(s);
          if (!to || !amount) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "transfer underflow");
            return;
          }
          // balance < 2^64, so amount > balance also covers the VM's 64-bit
          // amount overflow check.
          ExprRef overdraft = pool_.gt(*amount, s.balance);
          State fail = s;
          if (assume(fail, {overdraft, true})) {
            ++result_.forks;
            finalize(std::move(fail), PathEnd::kTransferFail, pc,
                     "insufficient balance");
          }
          if (!assume(s, {overdraft, false})) return;
          s.transfers.push_back({*to, *amount});
          s.balance = pool_.sub(s.balance, *amount);
          s.pc = pc + 1;
          break;
        }

        case Op::kReturn:
        case Op::kRevert: {
          auto off = pop(s);
          auto len = pop(s);
          if (!off || !len) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "return underflow");
            return;
          }
          if (((*off)->is_const() && !mem_offset(*off)) ||
              ((*len)->is_const() && !mem_offset(*len))) {
            finalize(std::move(s), PathEnd::kInvalid, pc, "return range");
            return;
          }
          finalize(std::move(s),
                   op == Op::kReturn ? PathEnd::kReturn : PathEnd::kRevert,
                   pc);
          return;
        }

        default:
          finalize(std::move(s), PathEnd::kInvalid, pc, "undefined opcode");
          return;
      }
    }
  }

  util::ByteSpan code_;
  Env& env_;
  ExprPool& pool_;
  Solver& solver_;
  const SymexConfig& config_;
  std::vector<bool> jumpdests_;
  std::vector<State> work_;
  ExploreResult result_;
  bool timed_out_ = false;
};

}  // namespace

ExploreResult explore(util::ByteSpan code, Env& env, Solver& solver,
                      const SymexConfig& config, telemetry::Telemetry* tel) {
  Explorer explorer(code, env, solver, config);
  ExploreResult result = explorer.run();

  auto& registry = telemetry::resolve(tel).registry;
  for (const PathResult& p : result.paths) {
    registry
        .counter("analysis_symex_paths_total",
                 "Terminal paths produced by the symbolic explorer",
                 {{"end", path_end_name(p.end)}})
        .inc();
  }
  registry
      .counter("analysis_symex_forks_total",
               "Path forks taken at JUMPI / TRANSFER")
      .add(result.forks);
  registry
      .counter("analysis_symex_merges_total",
               "States merged at JUMPDEST join points")
      .add(result.merges);
  registry
      .counter("analysis_symex_pruned_total",
               "Branches pruned as infeasible by the quick solver")
      .add(result.pruned);
  registry
      .counter("analysis_symex_steps_total",
               "Symbolic instructions stepped")
      .add(result.steps);
  if (explorer.timed_out())
    registry
        .counter("analysis_symex_timeouts_total",
                 "Explorations cut short by the wall-clock budget")
        .inc();
  return result;
}

}  // namespace sc::symex
