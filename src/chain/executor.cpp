#include "chain/executor.hpp"

#include "chain/exec_core.hpp"
#include "chain/sig_cache.hpp"
#include "telemetry/telemetry.hpp"

namespace sc::chain {

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
  std::size_t journal_depth = 0;
  Receipt receipt =
      detail::execute_transaction(state, env, tx, tel, journal_depth, sig_cache);
  auto& metrics = telemetry::resolve(tel).handles<detail::ExecMetrics>();
  metrics.record(receipt);
  metrics.journal_depth.set(static_cast<double>(journal_depth));
  return receipt;
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
                                      SigCache* sig_cache) {
  std::vector<Receipt> receipts;
  receipts.reserve(txs.size());
  Amount fees = 0;
  for (const Transaction& tx : txs) {
    receipts.push_back(apply_transaction(state, env, tx, tel, sig_cache));
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
