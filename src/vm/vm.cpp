#include "vm/vm.hpp"

#include <algorithm>

#include "crypto/keccak.hpp"
#include "telemetry/telemetry.hpp"

namespace sc::vm {

namespace {

// Two's-complement helpers over U256.
bool is_negative(const U256& v) { return v.bit(255); }
U256 twos_negate(const U256& v) { return U256::zero() - v; }
U256 twos_abs(const U256& v) { return is_negative(v) ? twos_negate(v) : v; }

/// Interpreter state for one execution.
class Machine {
 public:
  Machine(Host& host, const Context& ctx, util::ByteSpan code)
      : host_(host), ctx_(ctx), code_(code), gas_left_(ctx.gas_limit) {
    mark_jumpdests();
  }

  ExecResult run();

  /// Publishes the locally-accumulated step/gas counters to the telemetry
  /// sink's VmMetrics, once per execution, not per instruction.
  void flush_metrics(const ExecResult& result);

 private:
  /// Attributes gas consumed by the in-flight instruction to its opcode
  /// class. Called before starting the next instruction and on every exit
  /// path, so attribution covers exactly the charges made so far. Gas a
  /// sub-call burned is excluded (the sub-machine attributes it itself).
  void settle_attribution() {
    if (!attr_pending_) return;
    attr_pending_ = false;
    std::uint64_t delta = attr_gas_entry_ - gas_left_;
    delta -= std::min(delta, attr_untracked_);
    attr_untracked_ = 0;
    gas_by_class_[static_cast<std::size_t>(attr_class_)] += delta;
  }

  void begin_attribution(std::uint8_t byte) {
    settle_attribution();
    attr_pending_ = true;
    attr_class_ = op_class(byte);
    attr_gas_entry_ = gas_left_;
    ++steps_;
  }
  void mark_jumpdests() {
    jumpdests_.assign(code_.size(), false);
    for (std::size_t i = 0; i < code_.size(); ++i) {
      const std::uint8_t b = code_[i];
      if (b == static_cast<std::uint8_t>(Op::kJumpDest)) {
        jumpdests_[i] = true;
      } else if (is_push(b)) {
        i += push_size(b);  // Skip immediate bytes: they are data, not opcodes.
      }
    }
  }

  bool charge(std::uint64_t amount) {
    if (gas_left_ < amount) {
      gas_left_ = 0;
      return false;
    }
    gas_left_ -= amount;
    return true;
  }

  bool push(const U256& v) {
    if (stack_.size() >= kMaxStack) return false;
    stack_.push_back(v);
    return true;
  }

  bool pop(U256& out) {
    if (stack_.empty()) return false;
    out = stack_.back();
    stack_.pop_back();
    return true;
  }

  /// Grows memory to cover [offset, offset+len) and charges expansion gas.
  bool touch_memory(std::uint64_t offset, std::uint64_t len) {
    if (len == 0) return true;
    const std::uint64_t end = offset + len;
    if (end < offset || end > kMaxMemory) return false;
    if (end <= memory_.size()) return true;
    const std::uint64_t old_words = (memory_.size() + 31) / 32;
    const std::uint64_t new_words = (end + 31) / 32;
    if (!charge((new_words - old_words) * gas::kMemoryPerWord)) return false;
    memory_.resize(new_words * 32, 0);
    return true;
  }

  U256 load_word(std::uint64_t offset) const {
    return U256::from_be_bytes({memory_.data() + offset, 32});
  }

  void store_word(std::uint64_t offset, const U256& v) {
    v.to_be_bytes(memory_.data() + offset);
  }

  U256 calldata_word(std::uint64_t offset) const {
    std::uint8_t buf[32] = {0};
    for (unsigned i = 0; i < 32; ++i) {
      const std::uint64_t idx = offset + i;
      if (idx < ctx_.calldata.size()) buf[i] = ctx_.calldata[idx];
    }
    return U256::from_be_bytes({buf, 32});
  }

  static U256 address_word(const Address& a) {
    std::uint8_t buf[32] = {0};
    std::copy(a.bytes.begin(), a.bytes.end(), buf + 12);
    return U256::from_be_bytes({buf, 32});
  }

  static Address word_address(const U256& w) {
    std::uint8_t buf[32];
    w.to_be_bytes(buf);
    Address a;
    std::copy(buf + 12, buf + 32, a.bytes.begin());
    return a;
  }

  ExecResult fail(Outcome outcome, std::string why) {
    settle_attribution();
    ExecResult r;
    r.outcome = outcome;
    // Failure consumes all remaining gas (EVM semantics), except REVERT.
    r.gas_used = outcome == Outcome::kRevert ? ctx_.gas_limit - gas_left_ : ctx_.gas_limit;
    r.error = std::move(why);
    r.halt_offset = halt_pc_;
    return r;
  }

  Host& host_;
  const Context& ctx_;
  util::ByteSpan code_;
  std::uint64_t gas_left_;
  std::uint64_t refund_ = 0;
  std::size_t halt_pc_ = 0;  ///< Offset of the instruction in flight.
  std::vector<U256> stack_;
  std::vector<std::uint8_t> memory_;
  std::vector<bool> jumpdests_;

  // Local telemetry accumulators; flushed once in flush_metrics().
  std::uint64_t steps_ = 0;
  std::uint64_t gas_by_class_[kOpClassCount] = {};
  bool attr_pending_ = false;
  OpClass attr_class_ = OpClass::kUndefined;
  std::uint64_t attr_gas_entry_ = 0;
  std::uint64_t attr_untracked_ = 0;
};

std::string_view outcome_label(Outcome outcome) {
  switch (outcome) {
    case Outcome::kSuccess: return "success";
    case Outcome::kRevert: return "revert";
    case Outcome::kOutOfGas: return "out_of_gas";
    case Outcome::kInvalidOp: return "invalid_op";
    case Outcome::kTransferFailed: return "transfer_failed";
  }
  return "unknown";
}

/// The SCVM's families; one per sink, shared by every execution.
struct VmMetrics {
  telemetry::Registry& r;
  telemetry::Counter& steps =
      r.counter("scvm_steps_total", "Instructions executed by the SCVM interpreter");
  telemetry::CounterVec<5> executions{  // By Outcome.
      r, "scvm_executions_total", "SCVM executions by final outcome", "outcome",
      [](std::size_t i) { return outcome_label(Outcome(i)); }};
  telemetry::CounterVec<kOpClassCount> gas{
      r, "scvm_gas_total", "Gas charged by the SCVM, by opcode class", "class",
      [](std::size_t i) { return op_class_name(OpClass(i)); }};
};

void Machine::flush_metrics(const ExecResult& result) {
  auto& m = telemetry::resolve(ctx_.telemetry).handles<VmMetrics>();
  m.steps.add(steps_);
  m.executions[result.outcome].inc();
  for (std::size_t i = 0; i < kOpClassCount; ++i)
    if (gas_by_class_[i] != 0) m.gas[i].add(gas_by_class_[i]);
}

ExecResult Machine::run() {
  std::size_t pc = 0;
  // Each iteration: fetch, charge, execute. Any structural violation
  // (stack underflow, bad jump, undefined byte) is kInvalidOp.
  while (pc < code_.size()) {
    const std::uint8_t byte = code_[pc];
    halt_pc_ = pc;
    begin_attribution(byte);

    // PUSH family.
    if (is_push(byte)) {
      if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "push");
      const unsigned n = push_size(byte);
      std::uint8_t imm[32] = {0};
      for (unsigned i = 0; i < n; ++i) {
        const std::size_t idx = pc + 1 + i;
        if (idx < code_.size()) imm[32 - n + i] = code_[idx];
      }
      if (!push(U256::from_be_bytes({imm, 32})))
        return fail(Outcome::kInvalidOp, "stack overflow");
      pc += 1 + n;
      continue;
    }

    // DUP family.
    if (is_dup(byte)) {
      if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "dup");
      const unsigned n = byte - 0x80 + 1;
      if (stack_.size() < n) return fail(Outcome::kInvalidOp, "dup underflow");
      if (!push(stack_[stack_.size() - n]))
        return fail(Outcome::kInvalidOp, "stack overflow");
      ++pc;
      continue;
    }

    // SWAP family.
    if (is_swap(byte)) {
      if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "swap");
      const unsigned n = byte - 0x90 + 1;
      if (stack_.size() < n + 1) return fail(Outcome::kInvalidOp, "swap underflow");
      std::swap(stack_.back(), stack_[stack_.size() - 1 - n]);
      ++pc;
      continue;
    }

    const Op op = static_cast<Op>(byte);
    switch (op) {
      case Op::kStop: {
        settle_attribution();
        ExecResult r;
        r.gas_used = ctx_.gas_limit - gas_left_;
        r.gas_refund = refund_;
        r.halt_offset = halt_pc_;
        return r;
      }

      case Op::kAdd:
      case Op::kSub:
      case Op::kLt:
      case Op::kGt:
      case Op::kEq:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor:
      case Op::kShl:
      case Op::kShr: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "arith");
        U256 a, b;
        if (!pop(a) || !pop(b)) return fail(Outcome::kInvalidOp, "arith underflow");
        U256 r;
        switch (op) {
          case Op::kAdd: r = a + b; break;
          case Op::kSub: r = a - b; break;
          case Op::kLt: r = a < b ? U256::one() : U256::zero(); break;
          case Op::kGt: r = a > b ? U256::one() : U256::zero(); break;
          case Op::kEq: r = a == b ? U256::one() : U256::zero(); break;
          case Op::kAnd: r = a & b; break;
          case Op::kOr: r = a | b; break;
          case Op::kXor: r = a ^ b; break;
          // Shift amount is the FIRST operand (EVM convention).
          case Op::kShl: r = a.bit_length() > 9 ? U256::zero() : b << static_cast<unsigned>(a.low64()); break;
          case Op::kShr: r = a.bit_length() > 9 ? U256::zero() : b >> static_cast<unsigned>(a.low64()); break;
          default: break;
        }
        push(r);
        ++pc;
        break;
      }

      case Op::kMul:
      case Op::kDiv:
      case Op::kMod: {
        if (!charge(gas::kLow)) return fail(Outcome::kOutOfGas, "muldiv");
        U256 a, b;
        if (!pop(a) || !pop(b)) return fail(Outcome::kInvalidOp, "muldiv underflow");
        U256 r;
        if (op == Op::kMul) {
          r = U256::mul_wide(a, b).low();  // wrapping multiply
        } else if (b.is_zero()) {
          r = U256::zero();  // EVM: div/mod by zero yields zero
        } else if (op == Op::kDiv) {
          r = U256::div(a, b);
        } else {
          U256 rem;
          U256::div(a, b, &rem);
          r = rem;
        }
        push(r);
        ++pc;
        break;
      }

      case Op::kSDiv:
      case Op::kSMod: {
        if (!charge(gas::kLow)) return fail(Outcome::kOutOfGas, "signed div");
        U256 a, b;
        if (!pop(a) || !pop(b)) return fail(Outcome::kInvalidOp, "sdiv underflow");
        U256 r;
        if (!b.is_zero()) {
          const U256 abs_a = twos_abs(a);
          const U256 abs_b = twos_abs(b);
          if (op == Op::kSDiv) {
            r = U256::div(abs_a, abs_b);
            if (is_negative(a) != is_negative(b)) r = twos_negate(r);
          } else {
            U256 rem;
            U256::div(abs_a, abs_b, &rem);
            // SMOD takes the dividend's sign (EVM/C semantics).
            r = is_negative(a) ? twos_negate(rem) : rem;
          }
        }
        push(r);
        ++pc;
        break;
      }

      case Op::kSLt:
      case Op::kSGt: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "signed cmp");
        U256 a, b;
        if (!pop(a) || !pop(b)) return fail(Outcome::kInvalidOp, "scmp underflow");
        bool less;
        if (is_negative(a) != is_negative(b)) {
          less = is_negative(a);
        } else {
          less = a < b;  // same sign: two's-complement order matches unsigned
        }
        const bool result = op == Op::kSLt ? less : (!less && a != b);
        push(result ? U256::one() : U256::zero());
        ++pc;
        break;
      }

      case Op::kSignExtend: {
        if (!charge(gas::kLow)) return fail(Outcome::kOutOfGas, "signextend");
        U256 k, x;
        if (!pop(k) || !pop(x)) return fail(Outcome::kInvalidOp, "signextend underflow");
        if (k < U256{31}) {
          const unsigned sign_bit = static_cast<unsigned>(k.low64()) * 8 + 7;
          if (x.bit(sign_bit)) {
            // Set all bits above the sign bit.
            const U256 mask = (U256::max_value() << (sign_bit + 1));
            x = x | mask;
          } else {
            const U256 mask = ~(U256::max_value() << (sign_bit + 1));
            x = x & mask;
          }
        }
        push(x);
        ++pc;
        break;
      }

      case Op::kExp: {
        U256 base, exponent;
        if (!pop(base) || !pop(exponent)) return fail(Outcome::kInvalidOp, "exp underflow");
        const std::uint64_t exp_bytes = (exponent.bit_length() + 7) / 8;
        if (!charge(gas::kExpBase + gas::kExpPerByte * exp_bytes))
          return fail(Outcome::kOutOfGas, "exp");
        // Wrapping square-and-multiply.
        U256 result = U256::one();
        U256 acc = base;
        const unsigned bits = exponent.bit_length();
        for (unsigned i = 0; i < bits; ++i) {
          if (exponent.bit(i)) result = U256::mul_wide(result, acc).low();
          acc = U256::mul_wide(acc, acc).low();
        }
        push(result);
        ++pc;
        break;
      }

      case Op::kByte: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "byte");
        U256 index, word;
        if (!pop(index) || !pop(word)) return fail(Outcome::kInvalidOp, "byte underflow");
        U256 result;
        if (index < U256{32}) {
          std::uint8_t be[32];
          word.to_be_bytes(be);
          result = U256{be[index.low64()]};  // index 0 = most-significant byte
        }
        push(result);
        ++pc;
        break;
      }

      case Op::kIsZero:
      case Op::kNot: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "unary");
        U256 a;
        if (!pop(a)) return fail(Outcome::kInvalidOp, "unary underflow");
        push(op == Op::kIsZero ? (a.is_zero() ? U256::one() : U256::zero()) : ~a);
        ++pc;
        break;
      }

      case Op::kKeccak: {
        U256 off, len;
        if (!pop(off) || !pop(len)) return fail(Outcome::kInvalidOp, "keccak underflow");
        if (off.bit_length() > 32 || len.bit_length() > 32)
          return fail(Outcome::kInvalidOp, "keccak range");
        const std::uint64_t words = (len.low64() + 31) / 32;
        if (!charge(gas::kKeccakBase + gas::kKeccakPerWord * words))
          return fail(Outcome::kOutOfGas, "keccak");
        if (!touch_memory(off.low64(), len.low64()))
          return fail(Outcome::kOutOfGas, "keccak memory");
        const crypto::Hash256 h =
            crypto::keccak256({memory_.data() + off.low64(), len.low64()});
        push(U256::from_hash(h));
        ++pc;
        break;
      }

      case Op::kBalance: {
        if (!charge(gas::kBalanceOp)) return fail(Outcome::kOutOfGas, "balance");
        U256 a;
        if (!pop(a)) return fail(Outcome::kInvalidOp, "balance underflow");
        push(U256{host_.balance(word_address(a))});
        ++pc;
        break;
      }

      case Op::kSelfAddress:
      case Op::kCaller:
      case Op::kCallValue:
      case Op::kCallDataSize:
      case Op::kTimestamp:
      case Op::kNumber:
      case Op::kSelfBalance: {
        if (!charge(gas::kBase)) return fail(Outcome::kOutOfGas, "env");
        U256 v;
        switch (op) {
          case Op::kSelfAddress: v = address_word(ctx_.contract); break;
          case Op::kCaller: v = address_word(ctx_.caller); break;
          case Op::kCallValue: v = U256{ctx_.value}; break;
          case Op::kCallDataSize: v = U256{ctx_.calldata.size()}; break;
          case Op::kTimestamp: v = U256{host_.block_timestamp()}; break;
          case Op::kNumber: v = U256{host_.block_number()}; break;
          case Op::kSelfBalance: v = U256{host_.balance(ctx_.contract)}; break;
          default: break;
        }
        if (!push(v)) return fail(Outcome::kInvalidOp, "stack overflow");
        ++pc;
        break;
      }

      case Op::kCallDataLoad: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "calldataload");
        U256 off;
        if (!pop(off)) return fail(Outcome::kInvalidOp, "calldataload underflow");
        push(off.bit_length() > 32 ? U256::zero() : calldata_word(off.low64()));
        ++pc;
        break;
      }

      case Op::kCallDataCopy: {
        U256 mem_off, data_off, len;
        if (!pop(mem_off) || !pop(data_off) || !pop(len))
          return fail(Outcome::kInvalidOp, "calldatacopy underflow");
        if (mem_off.bit_length() > 32 || len.bit_length() > 32)
          return fail(Outcome::kInvalidOp, "calldatacopy range");
        const std::uint64_t words = (len.low64() + 31) / 32;
        if (!charge(gas::kVeryLow + gas::kCopyPerWord * words))
          return fail(Outcome::kOutOfGas, "calldatacopy");
        if (!touch_memory(mem_off.low64(), len.low64()))
          return fail(Outcome::kOutOfGas, "calldatacopy memory");
        for (std::uint64_t i = 0; i < len.low64(); ++i) {
          // Out-of-range calldata reads as zero (EVM padding semantics).
          const bool in_range = data_off.bit_length() <= 32 &&
                                data_off.low64() + i < ctx_.calldata.size();
          memory_[mem_off.low64() + i] =
              in_range ? ctx_.calldata[data_off.low64() + i] : 0;
        }
        ++pc;
        break;
      }

      case Op::kMStore8: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "mstore8");
        U256 off, value;
        if (!pop(off) || !pop(value))
          return fail(Outcome::kInvalidOp, "mstore8 underflow");
        if (off.bit_length() > 32) return fail(Outcome::kInvalidOp, "mstore8 range");
        if (!touch_memory(off.low64(), 1)) return fail(Outcome::kOutOfGas, "mstore8 grow");
        memory_[off.low64()] = static_cast<std::uint8_t>(value.low64());
        ++pc;
        break;
      }

      case Op::kGas: {
        if (!charge(gas::kBase)) return fail(Outcome::kOutOfGas, "gas");
        if (!push(U256{gas_left_})) return fail(Outcome::kInvalidOp, "stack overflow");
        ++pc;
        break;
      }

      case Op::kPop: {
        if (!charge(gas::kBase)) return fail(Outcome::kOutOfGas, "pop");
        U256 v;
        if (!pop(v)) return fail(Outcome::kInvalidOp, "pop underflow");
        ++pc;
        break;
      }

      case Op::kMLoad:
      case Op::kMStore: {
        if (!charge(gas::kVeryLow)) return fail(Outcome::kOutOfGas, "mem");
        U256 off;
        if (!pop(off)) return fail(Outcome::kInvalidOp, "mem underflow");
        if (off.bit_length() > 32) return fail(Outcome::kInvalidOp, "mem range");
        if (!touch_memory(off.low64(), 32)) return fail(Outcome::kOutOfGas, "mem grow");
        if (op == Op::kMLoad) {
          push(load_word(off.low64()));
        } else {
          U256 v;
          if (!pop(v)) return fail(Outcome::kInvalidOp, "mstore underflow");
          store_word(off.low64(), v);
        }
        ++pc;
        break;
      }

      case Op::kSLoad: {
        if (!charge(gas::kSLoad)) return fail(Outcome::kOutOfGas, "sload");
        U256 key;
        if (!pop(key)) return fail(Outcome::kInvalidOp, "sload underflow");
        push(host_.get_storage(ctx_.contract, key));
        ++pc;
        break;
      }

      case Op::kSStore: {
        U256 key, value;
        if (!pop(key) || !pop(value)) return fail(Outcome::kInvalidOp, "sstore underflow");
        const bool was_zero = host_.get_storage(ctx_.contract, key).is_zero();
        const std::uint64_t cost = was_zero && !value.is_zero() ? gas::kSStoreSet
                                                                : gas::kSStoreReset;
        if (!charge(cost)) return fail(Outcome::kOutOfGas, "sstore");
        if (!was_zero && value.is_zero()) refund_ += gas::kSStoreClearRefund;
        host_.set_storage(ctx_.contract, key, value);
        ++pc;
        break;
      }

      case Op::kJump:
      case Op::kJumpI: {
        if (!charge(op == Op::kJump ? gas::kMid : gas::kHigh))
          return fail(Outcome::kOutOfGas, "jump");
        U256 dest;
        if (!pop(dest)) return fail(Outcome::kInvalidOp, "jump underflow");
        bool take = true;
        if (op == Op::kJumpI) {
          U256 cond;
          if (!pop(cond)) return fail(Outcome::kInvalidOp, "jumpi underflow");
          take = !cond.is_zero();
        }
        if (take) {
          if (dest.bit_length() > 32) return fail(Outcome::kInvalidOp, "jump range");
          const std::uint64_t d = dest.low64();
          if (d >= code_.size() || !jumpdests_[d])
            return fail(Outcome::kInvalidOp, "bad jump destination");
          pc = d;
        } else {
          ++pc;
        }
        break;
      }

      case Op::kJumpDest: {
        if (!charge(gas::kJumpDest)) return fail(Outcome::kOutOfGas, "jumpdest");
        ++pc;
        break;
      }

      case Op::kLog0:
      case Op::kLog1:
      case Op::kLog2: {
        const unsigned topics = byte - 0xa0;
        U256 off, len;
        if (!pop(off) || !pop(len)) return fail(Outcome::kInvalidOp, "log underflow");
        if (off.bit_length() > 32 || len.bit_length() > 32)
          return fail(Outcome::kInvalidOp, "log range");
        if (!charge(gas::kLogBase + gas::kLogPerTopic * topics +
                    gas::kLogPerByte * len.low64()))
          return fail(Outcome::kOutOfGas, "log");
        if (!touch_memory(off.low64(), len.low64()))
          return fail(Outcome::kOutOfGas, "log memory");
        LogEntry entry;
        entry.contract = ctx_.contract;
        for (unsigned i = 0; i < topics; ++i) {
          U256 t;
          if (!pop(t)) return fail(Outcome::kInvalidOp, "log topic underflow");
          entry.topics.push_back(t);
        }
        entry.data.assign(memory_.begin() + static_cast<std::ptrdiff_t>(off.low64()),
                          memory_.begin() + static_cast<std::ptrdiff_t>(off.low64() + len.low64()));
        host_.emit_log(std::move(entry));
        ++pc;
        break;
      }

      case Op::kCall: {
        // Operands (top first): gas, to, value, in_off, in_len, out_off,
        // out_len. Pushes 1 on success, 0 on failure (callee revert/failure
        // rolls the sub-call's state back via host snapshots; the caller
        // continues either way — EVM semantics).
        U256 gas_req, to, value, in_off, in_len, out_off, out_len;
        if (!pop(gas_req) || !pop(to) || !pop(value) || !pop(in_off) ||
            !pop(in_len) || !pop(out_off) || !pop(out_len))
          return fail(Outcome::kInvalidOp, "call underflow");
        if (in_off.bit_length() > 32 || in_len.bit_length() > 32 ||
            out_off.bit_length() > 32 || out_len.bit_length() > 32)
          return fail(Outcome::kInvalidOp, "call range");
        const bool has_value = !value.is_zero();
        if (!charge(gas::kCallOp + (has_value ? gas::kCallValueExtra : 0)))
          return fail(Outcome::kOutOfGas, "call");
        if (!touch_memory(in_off.low64(), in_len.low64()) ||
            !touch_memory(out_off.low64(), out_len.low64()))
          return fail(Outcome::kOutOfGas, "call memory");
        if (ctx_.call_depth + 1 > kMaxCallDepth) {
          push(U256::zero());  // depth exhausted: the call fails, caller continues
          ++pc;
          break;
        }
        // Forward min(requested, all-but-1/64th of remaining) gas.
        const std::uint64_t forwardable = gas_left_ - gas_left_ / 64;
        const std::uint64_t sub_gas =
            gas_req.bit_length() > 63
                ? forwardable
                : std::min<std::uint64_t>(gas_req.low64(), forwardable);

        const Address callee = word_address(to);
        const std::uint64_t checkpoint = host_.snapshot();
        bool success = true;
        util::Bytes sub_return;
        std::uint64_t sub_used = 0;
        if (has_value &&
            !host_.transfer(ctx_.contract, callee, value.low64())) {
          success = false;
        } else {
          const util::Bytes callee_code = host_.account_code(callee);
          if (!callee_code.empty()) {
            vm::Context sub_ctx;
            sub_ctx.contract = callee;
            sub_ctx.caller = ctx_.contract;
            sub_ctx.value = value.low64();
            sub_ctx.calldata.assign(
                memory_.begin() + static_cast<std::ptrdiff_t>(in_off.low64()),
                memory_.begin() +
                    static_cast<std::ptrdiff_t>(in_off.low64() + in_len.low64()));
            sub_ctx.gas_limit = sub_gas;
            sub_ctx.call_depth = ctx_.call_depth + 1;
            sub_ctx.telemetry = ctx_.telemetry;
            const ExecResult sub = execute(host_, sub_ctx, callee_code);
            sub_used = sub.gas_used;
            // The sub-machine attributes this gas to its own opcode classes;
            // exclude it here so class totals sum without double counting.
            attr_untracked_ += sub_used;
            success = sub.ok();
            if (success) refund_ += sub.gas_refund;  // refunds bubble up
            sub_return = sub.return_data;
          }
        }
        if (!charge(sub_used)) return fail(Outcome::kOutOfGas, "call sub-gas");
        if (!success) host_.revert_to(checkpoint);
        // Copy return data into the out buffer (truncated to out_len).
        const std::uint64_t copy_len =
            std::min<std::uint64_t>(out_len.low64(), sub_return.size());
        for (std::uint64_t i = 0; i < copy_len; ++i)
          memory_[out_off.low64() + i] = sub_return[i];
        push(success ? U256::one() : U256::zero());
        ++pc;
        break;
      }

      case Op::kTransfer: {
        if (!charge(gas::kTransferOp)) return fail(Outcome::kOutOfGas, "transfer");
        U256 to, amount;
        if (!pop(to) || !pop(amount)) return fail(Outcome::kInvalidOp, "transfer underflow");
        if (amount.bit_length() > 64) return fail(Outcome::kTransferFailed, "amount overflow");
        if (!host_.transfer(ctx_.contract, word_address(to), amount.low64()))
          return fail(Outcome::kTransferFailed, "insufficient contract balance");
        ++pc;
        break;
      }

      case Op::kReturn:
      case Op::kRevert: {
        U256 off, len;
        if (!pop(off) || !pop(len)) return fail(Outcome::kInvalidOp, "return underflow");
        if (off.bit_length() > 32 || len.bit_length() > 32)
          return fail(Outcome::kInvalidOp, "return range");
        if (!touch_memory(off.low64(), len.low64()))
          return fail(Outcome::kOutOfGas, "return memory");
        settle_attribution();
        ExecResult r;
        r.outcome = op == Op::kReturn ? Outcome::kSuccess : Outcome::kRevert;
        r.gas_used = ctx_.gas_limit - gas_left_;
        if (op == Op::kReturn) r.gas_refund = refund_;  // reverts forfeit refunds
        r.return_data.assign(
            memory_.begin() + static_cast<std::ptrdiff_t>(off.low64()),
            memory_.begin() + static_cast<std::ptrdiff_t>(off.low64() + len.low64()));
        if (op == Op::kRevert) r.error = "explicit revert";
        r.halt_offset = halt_pc_;
        return r;
      }

      default:
        return fail(Outcome::kInvalidOp, "undefined opcode");
    }
  }

  // Fell off the end of code: implicit STOP.
  settle_attribution();
  ExecResult r;
  r.gas_used = ctx_.gas_limit - gas_left_;
  r.gas_refund = refund_;
  r.halt_offset = code_.size();
  return r;
}

}  // namespace

ExecResult execute(Host& host, const Context& ctx, util::ByteSpan code) {
  Machine machine(host, ctx, code);
  ExecResult result = machine.run();
  machine.flush_metrics(result);
  return result;
}

std::uint64_t intrinsic_gas(util::ByteSpan calldata) {
  std::uint64_t total = gas::kTxBase;
  for (std::uint8_t b : calldata)
    total += b == 0 ? gas::kTxDataZeroByte : gas::kTxDataNonZeroByte;
  return total;
}

}  // namespace sc::vm
