// Differential oracle for crypto/keccak: the library's original sponge, as
// it was apart from its namespace and its interface (an internal Sponge
// class behind two one-shot functions). Its Keccak-f[1600] indexes lanes
// with `%` inside each step and it buffers and absorbs byte by byte: slow
// and obviously FIPS 202. The unrolled permutation and the word-wise absorb
// are checked against it.
#pragma once

#include "crypto/hash_types.hpp"
#include "util/bytes.hpp"

namespace sc::crypto::keccak_oracle {

/// Keccak-256 (padding 0x01), one shot.
Hash256 keccak256(util::ByteSpan data);
/// FIPS-202 SHA3-256 (padding 0x06), one shot.
Hash256 sha3_256(util::ByteSpan data);

}  // namespace sc::crypto::keccak_oracle
