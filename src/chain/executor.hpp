// Transaction execution: validation, gas accounting, VM dispatch, receipts.
//
// The executor is a pure function over (state, tx): it mutates the state and
// returns a receipt. Failed executions (revert/OOG/invalid) roll the state
// back to the pre-VM checkpoint but still charge gas — this is what makes
// report submission costly enough to deter spam (Eq. 10's cost c).
//
// Rollback is journaled (state_journal.hpp): the per-tx checkpoint and every
// VM sub-call snapshot are O(changes) journal marks, never whole-state
// copies. The primary entry points take a JournaledState so a block's worth
// of transactions shares one journal (the blockchain folds it into the
// block's StateDelta); the WorldState overloads wrap a local journal for
// callers that apply standalone transactions.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "chain/state.hpp"
#include "chain/state_journal.hpp"
#include "chain/transaction.hpp"
#include "vm/vm.hpp"

namespace sc::telemetry {
struct Telemetry;
}

namespace sc::chain {

enum class TxStatus : std::uint8_t {
  kSuccess = 0,
  kReverted,
  kOutOfGas,
  kInvalid,        ///< Structural failure (bad signature, nonce, funds).
  kInvalidCode,    ///< Deploy rejected by the static bytecode verifier.
};

/// Stable lower-case label value ("success", "reverted", ...), used as the
/// `status` label on chain_tx_total.
std::string_view to_string(TxStatus status);

struct Receipt {
  Hash256 tx_id;
  TxStatus status = TxStatus::kInvalid;
  Gas gas_used = 0;
  Amount fee_paid = 0;        ///< gas_used * gas_price, credited to the miner.
  Address contract_address;   ///< For deploys: where code landed.
  std::vector<vm::LogEntry> logs;
  util::Bytes return_data;
  std::string error;

  bool ok() const { return status == TxStatus::kSuccess; }
};

class SigCache;
enum class SigVerdict : std::uint8_t;

/// Stateless pre-checks that gate mempool admission: signature validity,
/// sane gas limit. Does not consult state.
bool validate_transaction(const Transaction& tx, std::string* why = nullptr);

/// Cache-aware variant: the signature check consults (and on a fresh verify
/// feeds) `sig_cache` under `id` (== tx.id(), computed once by the caller),
/// so a signature seen at mempool admission or block pre-validation is never
/// re-verified here. `verdict`, when given, reports how the signature check
/// was satisfied (cache hit / verified / invalid) — the mempool uses it for
/// its sig-cache hit counter. Both out-params are optional; a nullptr cache
/// degrades to the plain overload.
bool validate_transaction(const Transaction& tx, const Hash256& id, SigCache* sig_cache,
                          std::string* why = nullptr,
                          SigVerdict* verdict = nullptr);

/// The signature-independent half of validate_transaction (gas, deploy code,
/// fee overflow) for callers that check the signature themselves.
bool validate_transaction_fields(const Transaction& tx, std::string* why = nullptr);

/// Block-environment values visible to contracts.
struct BlockEnv {
  std::uint64_t number = 0;
  std::uint64_t timestamp = 0;
  Address miner;
};

/// Applies one transaction through the journal. On any failure after the
/// nonce/balance gate, the nonce still advances and gas is charged (Ethereum
/// semantics); on structural failure (kInvalid) the state is untouched.
/// Journal entries recorded by the call survive in `state` for the caller to
/// collect/commit/revert.
///
/// `tel` is the metrics sink (nullptr → telemetry::global()); each call
/// records the receipt status, the gas-used histogram and the
/// state_journal_depth gauge, and forwards the sink to the VM for
/// step/gas-class attribution.
Receipt apply_transaction(JournaledState& state, const BlockEnv& env,
                          const Transaction& tx,
                          telemetry::Telemetry* tel = nullptr,
                          SigCache* sig_cache = nullptr);

/// Convenience overload over a bare WorldState: wraps a local journal and
/// commits it on return.
Receipt apply_transaction(WorldState& state, const BlockEnv& env, const Transaction& tx,
                          telemetry::Telemetry* tel = nullptr,
                          SigCache* sig_cache = nullptr);

/// Applies a whole block body: all transactions in order, then credits the
/// miner with the block reward plus collected fees. Returns receipts.
/// `tx_ids`, when given, are the body's transaction ids in order (a caller
/// that hashed them for the Merkle root passes them down, so receipts and
/// signature-cache lookups do not hash each transaction again); nullptr
/// hashes here. Throws std::invalid_argument if its length is not the body's.
std::vector<Receipt> apply_block_body(JournaledState& state, const BlockEnv& env,
                                      const std::vector<Transaction>& txs,
                                      Amount block_reward,
                                      telemetry::Telemetry* tel = nullptr,
                                      SigCache* sig_cache = nullptr,
                                      const std::vector<Hash256>* tx_ids = nullptr);

std::vector<Receipt> apply_block_body(WorldState& state, const BlockEnv& env,
                                      const std::vector<Transaction>& txs,
                                      Amount block_reward,
                                      telemetry::Telemetry* tel = nullptr,
                                      SigCache* sig_cache = nullptr);

}  // namespace sc::chain
