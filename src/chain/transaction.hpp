// Transactions: the unit recorded in SmartCrowd blocks.
//
// The paper's blocks carry ordinary value transfers plus protocol records —
// SRAs (Eq. 1) and two-phase detection reports (Eq. 3/5). We model all of
// them as signed transactions; protocol records additionally carry a typed
// payload that providers verify with Algorithm 1 before inclusion, and whose
// calldata drives the SmartCrowd contract.
#pragma once

#include <optional>

#include "chain/types.hpp"
#include "crypto/keys.hpp"
#include "crypto/secp256k1.hpp"
#include "util/bytes.hpp"

namespace sc::chain {

enum class TxKind : std::uint8_t {
  kTransfer = 0,  ///< Plain value transfer.
  kDeploy = 1,    ///< Installs contract code (data = code, ctor calldata separate).
  kCall = 2,      ///< Calls a contract with calldata.
};

/// Protocol payload classification for block indexing (Fig. 2: blocks record
/// SRAs and detection results alongside transactions).
enum class ProtocolKind : std::uint8_t {
  kNone = 0,
  kSra = 1,             ///< System release announcement Δ.
  kInitialReport = 2,   ///< R† (commitment).
  kDetailedReport = 3,  ///< R* (reveal).
};

struct Transaction {
  // -- Signed body ---------------------------------------------------------
  TxKind kind = TxKind::kTransfer;
  std::uint64_t nonce = 0;
  Address to;                ///< Recipient / contract (unused for deploys).
  Amount value = 0;          ///< neth transferred to `to` / the new contract.
  Gas gas_limit = 0;
  Amount gas_price = kDefaultGasPrice;
  util::Bytes data;          ///< Contract code (deploy) or calldata (call).
  util::Bytes ctor_calldata; ///< Deploy-only: constructor calldata.
  ProtocolKind protocol = ProtocolKind::kNone;
  util::Bytes protocol_payload;  ///< Serialized Δ / R† / R* when protocol != kNone.

  // -- Authentication ------------------------------------------------------
  crypto::secp256k1::AffinePoint sender_pubkey;
  crypto::secp256k1::Signature signature;

  /// Canonical serialization of the signed body (excludes pubkey/signature).
  util::Bytes body_bytes() const;
  /// Digest the signature covers: Keccak-256 of the body.
  Hash256 signing_hash() const;
  /// Transaction id: Keccak-256 of encode(), so it commits to the signer and
  /// the signature. verify_signature's low-s rule makes it unique per tx.
  Hash256 id() const;
  /// Sender account: address of the attached public key.
  Address sender() const;
  /// Signs signing_hash() with `key` and attaches pubkey + signature.
  void sign_with(const crypto::KeyPair& key);
  /// Signature + on-curve + well-formedness check; high-s is invalid.
  bool verify_signature() const;

  /// Maximum neth the sender must hold to submit: value + gas_limit·price.
  Amount max_cost() const { return value + gas_limit * gas_price; }

  /// Full wire encoding (body + pubkey + signature).
  util::Bytes encode() const;
  static std::optional<Transaction> decode(util::ByteSpan data);

  /// Field-for-field equality (signed body and authentication).
  bool operator==(const Transaction&) const = default;
};

/// Deterministic contract address: keccak(sender || nonce), low 20 bytes.
Address contract_address(const Address& sender, std::uint64_t nonce);

}  // namespace sc::chain
