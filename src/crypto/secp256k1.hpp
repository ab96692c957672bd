// secp256k1 elliptic-curve arithmetic and ECDSA, from scratch.
//
// The paper's prototype signs SRAs and detection reports with ECDSA over
// secp256k1 and verifies them in Algorithm 1. We implement:
//   - a dedicated base-field element (four 64-bit limbs, folding
//     2^256 ≡ 0x1000003D1 one limb product at a time, addition-chain square
//     root) and a scalar type modulo the group order n, both inverted by one
//     variable-time Bernstein–Yang divsteps routine,
//   - Jacobian-coordinate point arithmetic with mixed Jacobian+affine adds,
//   - k·G from a precomputed signed-digit fixed-base table (sign, key
//     derivation) and u1·G + u2·Q jointly by a four-way Strauss–Shamir walk
//     over wNAF, each scalar split in two 128-bit halves by the curve's
//     endomorphism (verify),
//   - RFC-6979 deterministic nonces (no RNG dependence; signing is a pure
//     function of key and message, which keeps simulations reproducible),
//   - low-s normalised ECDSA signatures (Ethereum convention).
//
// This is NOT hardened against side channels (variable-time scalar
// multiplication and inversion); it targets protocol correctness in a
// research simulator, not production key handling.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "crypto/hash_types.hpp"
#include "crypto/uint256.hpp"
#include "util/bytes.hpp"

namespace sc::crypto::secp256k1 {

/// Prime modulus of the base field: 2^256 - 2^32 - 977.
const U256& field_prime();
/// Group order n.
const U256& group_order();

namespace detail {

// Limb kernels of the field element, inline so point formulas compile to
// straight-line code with no calls or struct copies between operations.
using u64 = std::uint64_t;
using u128 = unsigned __int128;

/// 2^256 - p: a fold multiplies a limb by this 33-bit constant.
inline constexpr u64 kFold = 0x1000003D1ULL;

/// t = a·b, 512 bits, row by row (each row one carry chain).
[[gnu::always_inline]] inline void mul_512(const u64 a[4], const u64 b[4], u64 t[8]) {
  u128 c = static_cast<u128>(a[0]) * b[0];
  t[0] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[0]) * b[1];
  t[1] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[0]) * b[2];
  t[2] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[0]) * b[3];
  t[3] = static_cast<u64>(c);
  t[4] = static_cast<u64>(c >> 64);
#pragma GCC unroll 3
  for (int i = 1; i < 4; ++i) {
    c = static_cast<u128>(a[i]) * b[0] + t[i];
    t[i] = static_cast<u64>(c);
    c = (c >> 64) + static_cast<u128>(a[i]) * b[1] + t[i + 1];
    t[i + 1] = static_cast<u64>(c);
    c = (c >> 64) + static_cast<u128>(a[i]) * b[2] + t[i + 2];
    t[i + 2] = static_cast<u64>(c);
    c = (c >> 64) + static_cast<u128>(a[i]) * b[3] + t[i + 3];
    t[i + 3] = static_cast<u64>(c);
    t[i + 4] = static_cast<u64>(c >> 64);
  }
}

/// t = a², 512 bits: the six cross products once, doubled by a shift, then
/// the four squares on the diagonal (10 limb products instead of 16).
[[gnu::always_inline]] inline void sqr_512(const u64 a[4], u64 t[8]) {
  u128 c = static_cast<u128>(a[0]) * a[1];
  t[1] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[0]) * a[2];
  t[2] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[0]) * a[3];
  t[3] = static_cast<u64>(c);
  t[4] = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[1]) * a[2] + t[3];
  t[3] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[1]) * a[3] + t[4];
  t[4] = static_cast<u64>(c);
  t[5] = static_cast<u64>(c >> 64);
  c = static_cast<u128>(a[2]) * a[3] + t[5];
  t[5] = static_cast<u64>(c);
  t[6] = static_cast<u64>(c >> 64);
  t[7] = t[6] >> 63;
  t[6] = (t[6] << 1) | (t[5] >> 63);
  t[5] = (t[5] << 1) | (t[4] >> 63);
  t[4] = (t[4] << 1) | (t[3] >> 63);
  t[3] = (t[3] << 1) | (t[2] >> 63);
  t[2] = (t[2] << 1) | (t[1] >> 63);
  t[1] <<= 1;
  c = static_cast<u128>(a[0]) * a[0];
  t[0] = static_cast<u64>(c);
  c = (c >> 64) + t[1];
  t[1] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[1]) * a[1] + t[2];
  t[2] = static_cast<u64>(c);
  c = (c >> 64) + t[3];
  t[3] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[2]) * a[2] + t[4];
  t[4] = static_cast<u64>(c);
  c = (c >> 64) + t[5];
  t[5] = static_cast<u64>(c);
  c = (c >> 64) + static_cast<u128>(a[3]) * a[3] + t[6];
  t[6] = static_cast<u64>(c);
  t[7] += static_cast<u64>(c >> 64);
}

/// r = (carry·2^256 + r) mod p for values below 2p: the value is >= p
/// exactly when it carried or r + (2^256 - p) carries. Branch-free select.
[[gnu::always_inline]] inline void fe_finish(u64 r[4], u64 carry) {
  u128 acc = static_cast<u128>(r[0]) + kFold;
  const u64 s0 = static_cast<u64>(acc);
  acc = (acc >> 64) + r[1];
  const u64 s1 = static_cast<u64>(acc);
  acc = (acc >> 64) + r[2];
  const u64 s2 = static_cast<u64>(acc);
  acc = (acc >> 64) + r[3];
  const u64 s3 = static_cast<u64>(acc);
  const u64 take = 0 - static_cast<u64>((carry | static_cast<u64>(acc >> 64)) != 0);
  r[0] = (s0 & take) | (r[0] & ~take);
  r[1] = (s1 & take) | (r[1] & ~take);
  r[2] = (s2 & take) | (r[2] & ~take);
  r[3] = (s3 & take) | (r[3] & ~take);
}

/// r = t mod p: fold the high half with one 64x64 product per limb, fold the
/// 34-bit overflow once more, then one conditional subtract.
[[gnu::always_inline]] inline void fe_reduce512(const u64 t[8], u64 r[4]) {
  u128 acc = static_cast<u128>(t[4]) * kFold + t[0];
  r[0] = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[5]) * kFold + t[1];
  r[1] = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[6]) * kFold + t[2];
  r[2] = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[7]) * kFold + t[3];
  r[3] = static_cast<u64>(acc);
  acc = static_cast<u128>(static_cast<u64>(acc >> 64)) * kFold + r[0];
  r[0] = static_cast<u64>(acc);
  acc = (acc >> 64) + r[1];
  r[1] = static_cast<u64>(acc);
  acc = (acc >> 64) + r[2];
  r[2] = static_cast<u64>(acc);
  acc = (acc >> 64) + r[3];
  r[3] = static_cast<u64>(acc);
  fe_finish(r, static_cast<u64>(acc >> 64));
}

}  // namespace detail

/// Element of F_p on four little-endian 64-bit limbs, always fully reduced
/// (< p), so equality is limb equality. The arithmetic is inline: point
/// formulas are chains of these operations.
class FieldElement {
 public:
  constexpr FieldElement() = default;  ///< Zero.
  static constexpr FieldElement from_u64(std::uint64_t v) { return FieldElement(v, 0, 0, 0); }
  /// Canonical encodings only: nullopt for v >= p. Every decoder goes through
  /// this, so one field value has exactly one 32-byte form.
  static std::optional<FieldElement> from_canonical(const U256& v);
  /// v mod p, for any 256-bit v.
  static FieldElement reduce(const U256& v) {
    FieldElement r(v.limb[0], v.limb[1], v.limb[2], v.limb[3]);
    detail::fe_finish(r.n_, 0);  // v < 2^256 < 2p
    return r;
  }

  U256 to_u256() const { return {n_[0], n_[1], n_[2], n_[3]}; }
  bool is_zero() const { return (n_[0] | n_[1] | n_[2] | n_[3]) == 0; }
  bool is_odd() const { return n_[0] & 1; }
  friend bool operator==(const FieldElement&, const FieldElement&) = default;

  FieldElement operator+(const FieldElement& o) const {
    using detail::u128;
    FieldElement r;
    u128 acc = static_cast<u128>(n_[0]) + o.n_[0];
    r.n_[0] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) + n_[1] + o.n_[1];
    r.n_[1] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) + n_[2] + o.n_[2];
    r.n_[2] = static_cast<std::uint64_t>(acc);
    acc = (acc >> 64) + n_[3] + o.n_[3];
    r.n_[3] = static_cast<std::uint64_t>(acc);
    detail::fe_finish(r.n_, static_cast<std::uint64_t>(acc >> 64));
    return r;
  }
  FieldElement operator-(const FieldElement& o) const {
    using detail::u128;
    FieldElement r;
    u128 d = static_cast<u128>(n_[0]) - o.n_[0];
    r.n_[0] = static_cast<std::uint64_t>(d);
    d = static_cast<u128>(n_[1]) - o.n_[1] - ((d >> 64) & 1);
    r.n_[1] = static_cast<std::uint64_t>(d);
    d = static_cast<u128>(n_[2]) - o.n_[2] - ((d >> 64) & 1);
    r.n_[2] = static_cast<std::uint64_t>(d);
    d = static_cast<u128>(n_[3]) - o.n_[3] - ((d >> 64) & 1);
    r.n_[3] = static_cast<std::uint64_t>(d);
    // On a borrow add p, i.e. subtract 2^256 - p modulo 2^256 (the result
    // a - b + p is at least 1, so this cannot borrow past the top).
    const std::uint64_t fold = detail::kFold & (0 - static_cast<std::uint64_t>((d >> 64) & 1));
    d = static_cast<u128>(r.n_[0]) - fold;
    r.n_[0] = static_cast<std::uint64_t>(d);
    d = static_cast<u128>(r.n_[1]) - ((d >> 64) & 1);
    r.n_[1] = static_cast<std::uint64_t>(d);
    d = static_cast<u128>(r.n_[2]) - ((d >> 64) & 1);
    r.n_[2] = static_cast<std::uint64_t>(d);
    r.n_[3] -= static_cast<std::uint64_t>((d >> 64) & 1);
    return r;
  }
  FieldElement operator*(const FieldElement& o) const {
    std::uint64_t t[8];
    detail::mul_512(n_, o.n_, t);
    FieldElement r;
    detail::fe_reduce512(t, r.n_);
    return r;
  }
  FieldElement sqr() const {
    std::uint64_t t[8];
    detail::sqr_512(n_, t);
    FieldElement r;
    detail::fe_reduce512(t, r.n_);
    return r;
  }
  FieldElement neg() const { return FieldElement{} - *this; }
  /// Multiplicative inverse by divsteps (variable time); zero maps to zero.
  FieldElement inv() const;
  /// A square root by addition chain (a^((p+1)/4), p ≡ 3 mod 4); nullopt
  /// for non-residues.
  std::optional<FieldElement> sqrt() const;

 private:
  constexpr FieldElement(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d)
      : n_{a, b, c, d} {}
  std::uint64_t n_[4] = {0, 0, 0, 0};
};

/// Integer modulo the group order n, always fully reduced (< n).
class Scalar {
 public:
  Scalar() = default;  ///< Zero.
  /// v mod n, for any 256-bit v.
  static Scalar reduce(const U256& v);

  const U256& to_u256() const { return v_; }
  bool is_zero() const { return v_.is_zero(); }
  friend bool operator==(const Scalar&, const Scalar&) = default;

  Scalar operator+(const Scalar& o) const;
  Scalar operator*(const Scalar& o) const;
  Scalar neg() const;
  /// Multiplicative inverse by divsteps (variable time); zero maps to zero.
  Scalar inv() const;

 private:
  U256 v_;
};

/// Affine point; `infinity` encodes the group identity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  bool operator==(const AffinePoint&) const = default;
  /// Both coordinates canonical (< p) and y^2 == x^3 + 7 (mod p).
  bool is_on_curve() const;
};

/// Jacobian-coordinate point (X/Z^2, Y/Z^3); Z==0 encodes infinity.
struct JacobianPoint {
  FieldElement x;
  FieldElement y;
  FieldElement z;

  static JacobianPoint identity() {
    return {FieldElement::from_u64(1), FieldElement::from_u64(1), FieldElement{}};
  }
  /// Coordinates are taken mod p.
  static JacobianPoint from_affine(const AffinePoint& p);
  bool is_identity() const { return z.is_zero(); }

  AffinePoint to_affine() const;
  JacobianPoint doubled() const;
  JacobianPoint add(const JacobianPoint& o) const;
  JacobianPoint add_affine(const AffinePoint& o) const;
};

/// Generator point G.
const AffinePoint& generator();

/// k·P by wNAF (not constant time); k is taken mod n.
JacobianPoint scalar_mul(const U256& k, const AffinePoint& p);
/// k·G from the precomputed fixed-base table: one mixed add per nonzero
/// signed 7-bit digit, no doublings. k is taken mod n.
JacobianPoint scalar_mul_base(const U256& k);
/// The endomorphism λ·(x, y) = (β·x, y): λ (mod n) and β (mod p) are
/// non-trivial cube roots of unity.
const U256& glv_lambda();
const U256& glv_beta();
/// GLV split: (k1, k2) with k ≡ k1 + λ·k2 (mod n) and |k1|, |k2| < 2^128, a
/// negative half -h returned as n - h.
std::pair<Scalar, Scalar> split_lambda(const Scalar& k);
/// u1·G + u2·Q with one shared doubling chain: both scalars split by λ, then
/// a four-way Strauss–Shamir walk over wNAFs of G, λG, Q and λQ (static
/// odd-multiples tables for G and λG, per-call ones for Q and λQ). Scalars
/// mod n.
JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& q);
/// verify's final step without a field inversion: (p.X/p.Z^2) mod n == r,
/// checked as r·Z^2 == X, and (r+n)·Z^2 == X when r+n < p. `p` must not be
/// the identity and r must be < n.
bool x_mod_n_equals(const JacobianPoint& p, const U256& r);

/// ECDSA signature, low-s normalised.
struct Signature {
  U256 r;
  U256 s;

  bool operator==(const Signature&) const = default;

  /// s <= n/2, the form sign() produces; (r, n-s) verifies too.
  bool is_low_s() const;

  /// 64-byte r||s big-endian encoding.
  util::Bytes encode() const;
  static std::optional<Signature> decode(util::ByteSpan data);
};

/// A private key is a scalar in [1, n-1].
bool is_valid_private_key(const U256& d);

/// Derives the public point d·G. Precondition: valid private key.
AffinePoint derive_public(const U256& d);

/// RFC-6979 deterministic nonce for (key d, message hash z).
U256 rfc6979_nonce(const U256& d, const Hash256& z, std::uint32_t extra = 0);

/// Signs a 32-byte message digest. Deterministic (RFC 6979), low-s.
Signature sign(const U256& d, const Hash256& z);

/// Verifies a signature against a public point.
bool verify(const AffinePoint& pub, const Hash256& z, const Signature& sig);

/// Uncompressed 64-byte X||Y big-endian public-key encoding (no 0x04 tag,
/// matching Ethereum's address preimage).
util::Bytes encode_public(const AffinePoint& pub);
/// Rejects points off the curve and coordinates >= p (a non-canonical alias
/// would hash to a different address than the point's canonical form).
std::optional<AffinePoint> decode_public(util::ByteSpan data);

/// Square root modulo p (p ≡ 3 mod 4, so sqrt(a) = a^((p+1)/4) when a is a
/// quadratic residue). Returns nullopt for non-residues.
std::optional<U256> sqrt_mod_p(const U256& a);

}  // namespace sc::crypto::secp256k1
