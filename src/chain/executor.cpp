#include "chain/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "analysis/verifier.hpp"
#include "chain/sig_cache.hpp"
#include "telemetry/telemetry.hpp"
#include "vm/opcode.hpp"

namespace sc::chain {
namespace {

/// vm::Host over the block's journal + block environment. A VM snapshot is a
/// journal mark plus the log count — pushing one is O(1), and reverting
/// undoes exactly the sub-call's writes.
class ExecHost final : public vm::Host {
 public:
  ExecHost(JournaledState& state, const BlockEnv& env, std::vector<vm::LogEntry>& logs)
      : state_(state), env_(env), logs_(logs) {}

  crypto::U256 get_storage(const Address& contract, const crypto::U256& key) override {
    return state_.get_storage(contract, key);
  }
  void set_storage(const Address& contract, const crypto::U256& key,
                   const crypto::U256& value) override {
    state_.set_storage(contract, key, value);
  }
  std::uint64_t balance(const Address& account) override { return state_.balance(account); }
  bool transfer(const Address& from, const Address& to, std::uint64_t amount) override {
    return state_.transfer(from, to, amount);
  }
  void emit_log(vm::LogEntry entry) override { logs_.push_back(std::move(entry)); }
  std::uint64_t block_timestamp() override { return env_.timestamp; }
  std::uint64_t block_number() override { return env_.number; }

  util::Bytes account_code(const Address& account) override {
    const util::ByteSpan code = state_.code(account);
    return util::Bytes(code.begin(), code.end());
  }
  std::uint64_t snapshot() override {
    snapshots_.push_back({state_.mark(), logs_.size()});
    if (snapshots_.size() > depth_high_water_) depth_high_water_ = snapshots_.size();
    return snapshots_.size() - 1;
  }
  void revert_to(std::uint64_t id) override {
    if (id >= snapshots_.size()) return;
    state_.revert_to(snapshots_[id].mark);
    logs_.resize(snapshots_[id].log_count);
    snapshots_.resize(id);
  }

  /// High-water count of concurrently-open VM snapshots.
  std::size_t depth_high_water() const { return depth_high_water_; }

 private:
  struct Snapshot {
    std::size_t mark;  ///< Journal length at snapshot time.
    std::size_t log_count;
  };

  JournaledState& state_;
  const BlockEnv& env_;
  std::vector<vm::LogEntry>& logs_;
  std::vector<Snapshot> snapshots_;
  std::size_t depth_high_water_ = 0;
};

TxStatus status_from_outcome(vm::Outcome outcome) {
  switch (outcome) {
    case vm::Outcome::kSuccess: return TxStatus::kSuccess;
    case vm::Outcome::kRevert: return TxStatus::kReverted;
    case vm::Outcome::kOutOfGas: return TxStatus::kOutOfGas;
    default: return TxStatus::kReverted;  // invalid op / transfer fail → revert semantics
  }
}

/// The executor's families; reached through Telemetry::handles<ExecMetrics>().
struct ExecMetrics {
  telemetry::Registry& r;
  telemetry::CounterVec<5> tx{  // By TxStatus.
      r, "chain_tx_total", "Transactions applied, by receipt status", "status",
      [](std::size_t i) { return to_string(TxStatus(i)); }};
  telemetry::Histogram& gas_used =
      r.histogram("chain_tx_gas_used", "Gas consumed per applied transaction",
                  telemetry::HistogramSpec::gas());
  telemetry::Gauge& journal_depth =
      r.gauge("state_journal_depth",
              "High-water nested state checkpoint depth (tx mark + VM sub-call "
              "snapshots) of the last applied transaction");
};

/// Executes one transaction whose id is `id` (== tx.id()) against `state`.
/// Records no metrics of its own (apply_one does); `journal_depth` gets the
/// high-water nested checkpoint depth (tx mark + VM snapshots). `sig_cache`
/// (nullable) short-circuits the signature check for ids already verified at
/// mempool admission or block pre-validation.
Receipt execute_transaction(JournaledState& state, const BlockEnv& env,
                            const Transaction& tx, const Hash256& id,
                            telemetry::Telemetry* tel, std::size_t& journal_depth,
                            SigCache* sig_cache) {
  Receipt receipt;
  receipt.tx_id = id;

  std::string why;
  if (!validate_transaction(tx, receipt.tx_id, sig_cache, &why)) {
    receipt.error = why;
    return receipt;
  }

  const Address sender = tx.sender();
  if (state.nonce(sender) != tx.nonce) {
    receipt.error = "nonce mismatch";
    return receipt;
  }
  if (state.balance(sender) < tx.max_cost()) {
    receipt.error = "insufficient funds for value + gas";
    return receipt;
  }

  // Buy gas up front; unused gas is refunded after execution.
  state.sub_balance(sender, tx.gas_limit * tx.gas_price);
  state.bump_nonce(sender);

  const Gas intrinsic = vm::intrinsic_gas(tx.kind == TxKind::kDeploy
                                              ? util::ByteSpan{tx.ctor_calldata}
                                              : util::ByteSpan{tx.data});
  if (intrinsic > tx.gas_limit) {
    // All gas consumed; nothing executed.
    receipt.status = TxStatus::kOutOfGas;
    receipt.gas_used = tx.gas_limit;
    receipt.fee_paid = tx.gas_limit * tx.gas_price;
    receipt.error = "intrinsic gas exceeds limit";
    return receipt;
  }

  Gas gas_used = intrinsic;
  auto finish = [&](TxStatus status, std::string error) {
    receipt.status = status;
    receipt.gas_used = gas_used;
    receipt.fee_paid = gas_used * tx.gas_price;
    receipt.error = std::move(error);
    // Refund unspent gas. The fee itself is credited by apply_block_body so
    // a lone apply_transaction in tests conserves value minus the fee sink.
    state.add_balance(sender, (tx.gas_limit - gas_used) * tx.gas_price);
    return std::move(receipt);
  };

  switch (tx.kind) {
    case TxKind::kTransfer: {
      if (!state.transfer(sender, tx.to, tx.value))
        return finish(TxStatus::kInvalid, "transfer underflow");  // unreachable post-gate
      return finish(TxStatus::kSuccess, {});
    }

    case TxKind::kDeploy: {
      const Address addr = contract_address(sender, tx.nonce);
      if (!state.code(addr).empty())
        return finish(TxStatus::kReverted, "address collision");

      // Static verification gate: code that provably faults (undefined
      // opcodes, jumps to bad static destinations, guaranteed stack
      // under/overflow, dead trailing bytes) never lands on-chain and never
      // reaches the VM. The sender still pays intrinsic gas for the attempt,
      // mirroring the failed-deploy path below.
      std::string verify_why;
      if (!analysis::verify_code(tx.data, &verify_why))
        return finish(TxStatus::kInvalidCode, "static verification: " + verify_why);

      const Gas deposit = vm::gas::kCodeDepositPerByte * tx.data.size();
      if (gas_used + deposit > tx.gas_limit) {
        gas_used = tx.gas_limit;
        return finish(TxStatus::kOutOfGas, "code deposit");
      }
      gas_used += deposit;

      // Install code + endowment, then run the constructor calldata against
      // the fresh contract. Roll everything back to the mark if the
      // constructor fails: the gas purchase and nonce bump sit *before* the
      // mark, so a failed deploy stays charged but state-neutral.
      const std::size_t checkpoint = state.mark();
      state.set_code(addr, tx.data);
      state.transfer(sender, addr, tx.value);

      if (!tx.ctor_calldata.empty()) {
        ExecHost host(state, env, receipt.logs);
        vm::Context ctx;
        ctx.contract = addr;
        ctx.caller = sender;
        ctx.value = tx.value;
        ctx.calldata = tx.ctor_calldata;
        ctx.gas_limit = tx.gas_limit - gas_used;
        ctx.telemetry = tel;
        const vm::ExecResult run = vm::execute(host, ctx, state.code(addr));
        journal_depth = 1 + host.depth_high_water();
        gas_used += run.gas_used;
        if (!run.ok()) {
          state.revert_to(checkpoint);
          receipt.logs.clear();
          return finish(status_from_outcome(run.outcome), run.error);
        }
        // Storage-clearing refund, capped at half the gas spent.
        gas_used -= std::min(run.gas_refund, gas_used / 2);
        receipt.return_data = run.return_data;
      }
      receipt.contract_address = addr;
      return finish(TxStatus::kSuccess, {});
    }

    case TxKind::kCall: {
      const std::size_t checkpoint = state.mark();
      if (!state.transfer(sender, tx.to, tx.value))
        return finish(TxStatus::kInvalid, "value transfer underflow");

      const util::ByteSpan code = state.code(tx.to);
      if (code.empty()) {
        // Plain value send to an EOA via kCall.
        return finish(TxStatus::kSuccess, {});
      }

      ExecHost host(state, env, receipt.logs);
      vm::Context ctx;
      ctx.contract = tx.to;
      ctx.caller = sender;
      ctx.value = tx.value;
      ctx.calldata = tx.data;
      ctx.gas_limit = tx.gas_limit - gas_used;
      ctx.telemetry = tel;
      // Copy the code: a revert inside the VM could otherwise move the bytes
      // the interpreter is reading.
      const util::Bytes code_copy(code.begin(), code.end());
      const vm::ExecResult run = vm::execute(host, ctx, code_copy);
      journal_depth = 1 + host.depth_high_water();
      gas_used += run.gas_used;
      if (!run.ok()) {
        // The mark sits after the gas purchase and nonce bump, so those stay.
        state.revert_to(checkpoint);
        receipt.logs.clear();
        return finish(status_from_outcome(run.outcome), run.error);
      }
      // Storage-clearing refund, capped at half the gas spent.
      gas_used -= std::min(run.gas_refund, gas_used / 2);
      receipt.return_data = run.return_data;
      return finish(TxStatus::kSuccess, {});
    }
  }
  return finish(TxStatus::kInvalid, "unknown kind");
}

/// execute_transaction plus the receipt's metrics.
Receipt apply_one(JournaledState& state, const BlockEnv& env, const Transaction& tx,
                  const Hash256& id, telemetry::Telemetry* tel, ExecMetrics& metrics,
                  SigCache* sig_cache) {
  std::size_t journal_depth = 0;
  Receipt receipt = execute_transaction(state, env, tx, id, tel, journal_depth, sig_cache);
  metrics.tx[receipt.status].inc();
  metrics.gas_used.observe(static_cast<double>(receipt.gas_used));
  metrics.journal_depth.set(static_cast<double>(journal_depth));
  return receipt;
}

}  // namespace

std::string_view to_string(TxStatus status) {
  switch (status) {
    case TxStatus::kSuccess: return "success";
    case TxStatus::kReverted: return "reverted";
    case TxStatus::kOutOfGas: return "out_of_gas";
    case TxStatus::kInvalid: return "invalid";
    case TxStatus::kInvalidCode: return "invalid_code";
  }
  return "unknown";
}

bool validate_transaction(const Transaction& tx, std::string* why) {
  // Without a cache the id is never read, so skip hashing it.
  return validate_transaction(tx, Hash256{}, nullptr, why);
}

bool validate_transaction(const Transaction& tx, const Hash256& id, SigCache* sig_cache,
                          std::string* why, SigVerdict* verdict) {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  const SigVerdict sig = check_signature(tx, id, sig_cache);
  if (verdict) *verdict = sig;
  if (sig == SigVerdict::kInvalid) return fail("bad signature");
  return validate_transaction_fields(tx, why);
}

bool validate_transaction_fields(const Transaction& tx, std::string* why) {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  if (tx.gas_limit == 0) return fail("zero gas limit");
  if (tx.gas_price == 0) return fail("zero gas price");
  if (tx.kind == TxKind::kDeploy && tx.data.empty()) return fail("empty deploy code");
  // Guard fee arithmetic against Amount overflow.
  const Amount fee_cap = tx.gas_limit * tx.gas_price;
  if (tx.gas_limit != 0 && fee_cap / tx.gas_limit != tx.gas_price)
    return fail("fee overflow");
  if (tx.value > tx.value + fee_cap) return fail("cost overflow");
  return true;
}

Receipt apply_transaction(JournaledState& state, const BlockEnv& env,
                          const Transaction& tx, telemetry::Telemetry* tel,
                          SigCache* sig_cache) {
  return apply_one(state, env, tx, tx.id(), tel,
                   telemetry::resolve(tel).handles<ExecMetrics>(), sig_cache);
}

Receipt apply_transaction(WorldState& state, const BlockEnv& env, const Transaction& tx,
                          telemetry::Telemetry* tel, SigCache* sig_cache) {
  JournaledState journal(state);
  Receipt receipt = apply_transaction(journal, env, tx, tel, sig_cache);
  journal.commit(0);
  return receipt;
}

std::vector<Receipt> apply_block_body(JournaledState& state, const BlockEnv& env,
                                      const std::vector<Transaction>& txs,
                                      Amount block_reward,
                                      telemetry::Telemetry* tel,
                                      SigCache* sig_cache,
                                      const std::vector<Hash256>* tx_ids) {
  if (tx_ids && tx_ids->size() != txs.size())
    throw std::invalid_argument("apply_block_body: tx_ids does not match the body");
  ExecMetrics& metrics = telemetry::resolve(tel).handles<ExecMetrics>();
  std::vector<Receipt> receipts;
  receipts.reserve(txs.size());
  Amount fees = 0;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const Transaction& tx = txs[i];
    receipts.push_back(
        apply_one(state, env, tx, tx_ids ? (*tx_ids)[i] : tx.id(), tel, metrics, sig_cache));
    fees += receipts.back().fee_paid;
  }
  // Miner income: new issuance χ·ν plus the transaction fees ψ·ω (Eq. 8).
  state.add_balance(env.miner, block_reward + fees);
  return receipts;
}

std::vector<Receipt> apply_block_body(WorldState& state, const BlockEnv& env,
                                      const std::vector<Transaction>& txs,
                                      Amount block_reward,
                                      telemetry::Telemetry* tel,
                                      SigCache* sig_cache) {
  JournaledState journal(state);
  std::vector<Receipt> receipts =
      apply_block_body(journal, env, txs, block_reward, tel, sig_cache);
  journal.commit(0);
  return receipts;
}

}  // namespace sc::chain
