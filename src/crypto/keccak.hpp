// Keccak-f[1600] sponge, exposing Keccak-256 (Ethereum's hash, padding 0x01)
// and FIPS-202 SHA3-256 (padding 0x06).
//
// The paper computes all message identifiers (Δ_id, ID†, ID*) with "SHA-3";
// its Ethereum prototype actually uses Keccak-256 (pre-standardisation
// padding), and it even cites the Solidity/JSON-API padding mismatch as an
// implementation pitfall. We expose both variants and default the protocol
// layer to Keccak-256 to match Ethereum semantics.
#pragma once

#include <cstdint>

#include "crypto/hash_types.hpp"
#include "util/bytes.hpp"

namespace sc::crypto {

/// One-shot Keccak-256 (Ethereum).
Hash256 keccak256(util::ByteSpan data);

/// One-shot FIPS-202 SHA3-256.
Hash256 sha3_256(util::ByteSpan data);

/// Incremental sponge for either variant.
class Keccak {
 public:
  enum class Variant { kKeccak256, kSha3_256 };

  explicit Keccak(Variant v = Variant::kKeccak256) : variant_(v) { reset(); }

  void reset();
  Keccak& update(util::ByteSpan data);
  Hash256 finish();

 private:
  void absorb_byte(std::uint8_t byte);

  static constexpr std::size_t kRate = 136;  // 1088-bit rate for 256-bit output.

  Variant variant_;
  std::uint64_t state_[25];
  std::size_t pos_ = 0;  ///< Bytes absorbed into the current block, < kRate.
};

}  // namespace sc::crypto
