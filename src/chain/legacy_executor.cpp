#include "chain/legacy_executor.hpp"

#include "analysis/verifier.hpp"
#include "vm/opcode.hpp"

namespace sc::chain::legacy {

namespace {

/// The pre-journal vm::Host: snapshot() deep-copies the entire WorldState.
class CopyStateHost final : public vm::Host {
 public:
  CopyStateHost(WorldState& state, const BlockEnv& env, std::vector<vm::LogEntry>& logs)
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
    snapshots_.push_back({state_, logs_.size()});
    return snapshots_.size() - 1;
  }
  void revert_to(std::uint64_t id) override {
    if (id >= snapshots_.size()) return;
    state_ = snapshots_[id].state;
    logs_.resize(snapshots_[id].log_count);
    snapshots_.resize(id);
  }

 private:
  struct Snapshot {
    WorldState state;
    std::size_t log_count;
  };

  WorldState& state_;
  const BlockEnv& env_;
  std::vector<vm::LogEntry>& logs_;
  std::vector<Snapshot> snapshots_;
};

TxStatus status_from_outcome(vm::Outcome outcome) {
  switch (outcome) {
    case vm::Outcome::kSuccess: return TxStatus::kSuccess;
    case vm::Outcome::kRevert: return TxStatus::kReverted;
    case vm::Outcome::kOutOfGas: return TxStatus::kOutOfGas;
    default: return TxStatus::kReverted;  // invalid op / transfer fail → revert semantics
  }
}

}  // namespace

Receipt apply_transaction(WorldState& state, const BlockEnv& env,
                          const Transaction& tx, telemetry::Telemetry* tel) {
  Receipt receipt;
  receipt.tx_id = tx.id();

  std::string why;
  if (!validate_transaction(tx, &why)) {
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
    state.add_balance(sender, (tx.gas_limit - gas_used) * tx.gas_price);
    return receipt;
  };

  switch (tx.kind) {
    case TxKind::kTransfer: {
      if (!state.transfer(sender, tx.to, tx.value))
        return finish(TxStatus::kInvalid, "transfer underflow");  // unreachable post-gate
      return finish(TxStatus::kSuccess, {});
    }

    case TxKind::kDeploy: {
      const Address addr = contract_address(sender, tx.nonce);
      if (state.find(addr) != nullptr && state.find(addr)->is_contract())
        return finish(TxStatus::kReverted, "address collision");

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
      // the fresh contract. Roll everything back if the constructor fails.
      const WorldState checkpoint = state;
      state.set_code(addr, tx.data);
      state.transfer(sender, addr, tx.value);

      if (!tx.ctor_calldata.empty()) {
        CopyStateHost host(state, env, receipt.logs);
        vm::Context ctx;
        ctx.contract = addr;
        ctx.caller = sender;
        ctx.value = tx.value;
        ctx.calldata = tx.ctor_calldata;
        ctx.gas_limit = tx.gas_limit - gas_used;
        ctx.telemetry = tel;
        // Lifetime-only deviation from the original: copy the code so a
        // sub-call revert (which replaces the whole state mid-run) cannot
        // invalidate the span the interpreter is reading.
        const util::Bytes ctor_code(tx.data.begin(), tx.data.end());
        const vm::ExecResult run = vm::execute(host, ctx, ctor_code);
        gas_used += run.gas_used;
        if (!run.ok()) {
          // The checkpoint already reflects the gas purchase and nonce bump,
          // so restoring it keeps the failed deploy charged but state-neutral.
          state = checkpoint;
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
      const WorldState checkpoint = state;
      if (!state.transfer(sender, tx.to, tx.value))
        return finish(TxStatus::kInvalid, "value transfer underflow");

      const util::ByteSpan code = state.code(tx.to);
      if (code.empty()) {
        // Plain value send to an EOA via kCall.
        return finish(TxStatus::kSuccess, {});
      }

      CopyStateHost host(state, env, receipt.logs);
      vm::Context ctx;
      ctx.contract = tx.to;
      ctx.caller = sender;
      ctx.value = tx.value;
      ctx.calldata = tx.data;
      ctx.gas_limit = tx.gas_limit - gas_used;
      ctx.telemetry = tel;
      // Copy the code: the rollback below may otherwise invalidate the span.
      const util::Bytes code_copy(code.begin(), code.end());
      const vm::ExecResult run = vm::execute(host, ctx, code_copy);
      gas_used += run.gas_used;
      if (!run.ok()) {
        // Checkpoint already includes the gas purchase and nonce bump.
        state = checkpoint;
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

std::vector<Receipt> apply_block_body(WorldState& state, const BlockEnv& env,
                                      const std::vector<Transaction>& txs,
                                      Amount block_reward,
                                      telemetry::Telemetry* tel) {
  std::vector<Receipt> receipts;
  receipts.reserve(txs.size());
  Amount fees = 0;
  for (const Transaction& tx : txs) {
    receipts.push_back(legacy::apply_transaction(state, env, tx, tel));
    fees += receipts.back().fee_paid;
  }
  state.add_balance(env.miner, block_reward + fees);
  return receipts;
}

}  // namespace sc::chain::legacy
