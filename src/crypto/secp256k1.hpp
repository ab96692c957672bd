// secp256k1 elliptic-curve arithmetic and ECDSA, from scratch.
//
// The paper's prototype signs SRAs and detection reports with ECDSA over
// secp256k1 and verifies them in Algorithm 1. We implement:
//   - a dedicated base-field element (five 52-bit limbs reduced lazily:
//     carry-free additions, products that fold 2^256 ≡ 0x1000003D1 into
//     their column sums) and a scalar type modulo the group order n, both
//     inverted by one variable-time Bernstein–Yang divsteps routine,
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

/// 2^256 - p: a fold multiplies by this 33-bit constant.
inline constexpr u64 kFold = 0x1000003D1ULL;
inline constexpr u64 kM52 = 0xFFFFFFFFFFFFFULL;  ///< A full 52-bit limb.
inline constexpr u64 kM48 = 0xFFFFFFFFFFFFULL;   ///< The top limb's 48 bits.
/// p's limb 0; its limbs 1-3 are kM52 and limb 4 is kM48.
inline constexpr u64 kP0 = 0xFFFFEFFFFFC2FULL;
/// 2^260 mod p: what the fifth limb position folds to.
inline constexpr u64 kR = kFold << 4;

// The 5×52 product and square (libsecp256k1's field_5x52_int128). Column k
// of the 9-column product sits at 2^(52k); columns 5..8 fold into columns
// 0..3 as they are summed, by 2^260 ≡ kR, in the order 3, 4, 0, 1, 2, 3, 4
// so that no 128-bit accumulator overflows. A column's low 64 bits fold by
// kR and its bits above 64 by kR·2^12, one column lower; bits 256..259 of
// column 4 fold by kFold. Inputs: limbs 0-3 below 2^56, limb 4 below 2^52
// (magnitude 8). Output: limbs 0-3 below 2^52, limb 4 below 2^49
// (magnitude 1).

/// r = a·b mod p, r distinct from a and b.
[[gnu::always_inline]] inline void fe_mul(const u64 a[5], const u64 b[5], u64 r[5]) {
  const u64 a0 = a[0], a1 = a[1], a2 = a[2], a3 = a[3], a4 = a[4];
  u128 d = static_cast<u128>(a0) * b[3] + static_cast<u128>(a1) * b[2] +
           static_cast<u128>(a2) * b[1] + static_cast<u128>(a3) * b[0];
  u128 c = static_cast<u128>(a4) * b[4];
  d += static_cast<u128>(kR) * static_cast<u64>(c);
  c >>= 64;
  const u64 t3 = static_cast<u64>(d) & kM52;
  d >>= 52;

  d += static_cast<u128>(a0) * b[4] + static_cast<u128>(a1) * b[3] +
       static_cast<u128>(a2) * b[2] + static_cast<u128>(a3) * b[1] +
       static_cast<u128>(a4) * b[0];
  d += static_cast<u128>(kR << 12) * static_cast<u64>(c);
  u64 t4 = static_cast<u64>(d) & kM52;
  d >>= 52;
  const u64 tx = t4 >> 48;
  t4 &= kM48;

  c = static_cast<u128>(a0) * b[0];
  d += static_cast<u128>(a1) * b[4] + static_cast<u128>(a2) * b[3] +
       static_cast<u128>(a3) * b[2] + static_cast<u128>(a4) * b[1];
  const u64 u0 = ((static_cast<u64>(d) & kM52) << 4) | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * kFold;
  r[0] = static_cast<u64>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(a0) * b[1] + static_cast<u128>(a1) * b[0];
  d += static_cast<u128>(a2) * b[4] + static_cast<u128>(a3) * b[3] +
       static_cast<u128>(a4) * b[2];
  c += static_cast<u128>(static_cast<u64>(d) & kM52) * kR;
  d >>= 52;
  r[1] = static_cast<u64>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(a0) * b[2] + static_cast<u128>(a1) * b[1] +
       static_cast<u128>(a2) * b[0];
  d += static_cast<u128>(a3) * b[4] + static_cast<u128>(a4) * b[3];
  c += static_cast<u128>(kR) * static_cast<u64>(d);
  d >>= 64;
  r[2] = static_cast<u64>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(kR << 12) * static_cast<u64>(d) + t3;
  r[3] = static_cast<u64>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<u64>(c) + t4;
}

/// r = a² mod p, r distinct from a: fe_mul's columns with each cross
/// product taken once and doubled.
[[gnu::always_inline]] inline void fe_sqr(const u64 a[5], u64 r[5]) {
  u64 a0 = a[0], a4 = a[4];
  const u64 a1 = a[1], a2 = a[2], a3 = a[3];
  u128 d = static_cast<u128>(a0 * 2) * a3 + static_cast<u128>(a1 * 2) * a2;
  u128 c = static_cast<u128>(a4) * a4;
  d += static_cast<u128>(kR) * static_cast<u64>(c);
  c >>= 64;
  const u64 t3 = static_cast<u64>(d) & kM52;
  d >>= 52;

  a4 *= 2;
  d += static_cast<u128>(a0) * a4 + static_cast<u128>(a1 * 2) * a3 +
       static_cast<u128>(a2) * a2;
  d += static_cast<u128>(kR << 12) * static_cast<u64>(c);
  u64 t4 = static_cast<u64>(d) & kM52;
  d >>= 52;
  const u64 tx = t4 >> 48;
  t4 &= kM48;

  c = static_cast<u128>(a0) * a0;
  d += static_cast<u128>(a1) * a4 + static_cast<u128>(a2 * 2) * a3;
  const u64 u0 = ((static_cast<u64>(d) & kM52) << 4) | tx;
  d >>= 52;
  c += static_cast<u128>(u0) * kFold;
  r[0] = static_cast<u64>(c) & kM52;
  c >>= 52;

  a0 *= 2;
  c += static_cast<u128>(a0) * a1;
  d += static_cast<u128>(a2) * a4 + static_cast<u128>(a3) * a3;
  c += static_cast<u128>(static_cast<u64>(d) & kM52) * kR;
  d >>= 52;
  r[1] = static_cast<u64>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(a0) * a2 + static_cast<u128>(a1) * a1;
  d += static_cast<u128>(a3) * a4;
  c += static_cast<u128>(kR) * static_cast<u64>(d);
  d >>= 64;
  r[2] = static_cast<u64>(c) & kM52;
  c >>= 52;

  c += static_cast<u128>(kR << 12) * static_cast<u64>(d) + t3;
  r[3] = static_cast<u64>(c) & kM52;
  c >>= 52;
  r[4] = static_cast<u64>(c) + t4;
}

/// Weak normalization: folds limb 4's bits above 48 by kFold and carries
/// once up the limbs. Limbs below 2^63 in; magnitude 1 out (limbs 0-3 below
/// 2^52, limb 4 at most 2^48), the same value mod p.
[[gnu::always_inline]] inline void fe_normalize_weak(u64 t[5]) {
  t[0] += (t[4] >> 48) * kFold;
  t[4] &= kM48;
  t[1] += t[0] >> 52;
  t[0] &= kM52;
  t[2] += t[1] >> 52;
  t[1] &= kM52;
  t[3] += t[2] >> 52;
  t[2] &= kM52;
  t[4] += t[3] >> 52;
  t[3] &= kM52;
}

}  // namespace detail

/// Element of F_p on five 52-bit limbs, value Σ n[i]·2^(52i), reduced
/// lazily (libsecp256k1's 5×52 form). The value is any representative of
/// its class mod p, and the limbs may exceed 52 bits: an element of
/// magnitude m has limbs 0-3 at most 2m(2^52 - 1) and limb 4 at most
/// 2m(2^48 - 1). No magnitude is tracked at run time; the point formulas
/// stay inside these bounds by construction:
///   - every operand of every operation has magnitude <= 8;
///   - reduce, from_canonical and from_u64 return limbs below 2^52 (limb 4
///     below 2^48), half of magnitude 1's bound;
///   - `*`, `sqr`, `-`, `neg` and `inv` return magnitude 1;
///   - `a + b` adds limb by limb, with no carry: its magnitude is at most
///     the sum of the operands'.
/// ==, is_zero, is_odd and to_u256 see the fully reduced value.
class FieldElement {
 public:
  constexpr FieldElement() = default;  ///< Zero.
  static constexpr FieldElement from_u64(std::uint64_t v) {
    return FieldElement(v & detail::kM52, v >> 52, 0, 0, 0);
  }
  /// Canonical encodings only: nullopt for v >= p. Every decoder goes through
  /// this, so one field value has exactly one 32-byte form.
  static std::optional<FieldElement> from_canonical(const U256& v);
  /// v mod p, for any 256-bit v: v's bits regrouped into 52-bit limbs, a
  /// representative that may be >= p.
  static FieldElement reduce(const U256& v) {
    return FieldElement(v.limb[0] & detail::kM52,
                        ((v.limb[0] >> 52) | (v.limb[1] << 12)) & detail::kM52,
                        ((v.limb[1] >> 40) | (v.limb[2] << 24)) & detail::kM52,
                        ((v.limb[2] >> 28) | (v.limb[3] << 36)) & detail::kM52,
                        v.limb[3] >> 16);
  }

  /// The fully reduced value (< p).
  U256 to_u256() const;
  /// value ≡ 0 (mod p). After one fold the value is below 2p, so it is zero
  /// mod p exactly when its limbs read 0 or p; the low limb settles almost
  /// every non-zero value on its own.
  bool is_zero() const {
    using namespace detail;
    // z0 ORs the limbs (0 for the value 0); z1 ANDs each limb XOR p's limb
    // XOR kM52 (all ones for the value p).
    const u64 t0 = n_[0] + (n_[4] >> 48) * kFold;
    u64 z0 = t0 & kM52;
    u64 z1 = z0 ^ kP0 ^ kM52;
    if (z0 != 0 && z1 != kM52) return false;
    u64 t1 = n_[1] + (t0 >> 52);
    u64 t2 = n_[2] + (t1 >> 52);
    t1 &= kM52;
    z0 |= t1;
    z1 &= t1;
    u64 t3 = n_[3] + (t2 >> 52);
    t2 &= kM52;
    z0 |= t2;
    z1 &= t2;
    const u64 t4 = (n_[4] & kM48) + (t3 >> 52);
    t3 &= kM52;
    z0 |= t3 | t4;
    z1 &= t3 & (t4 ^ kM48 ^ kM52);
    return z0 == 0 || z1 == kM52;
  }
  bool is_odd() const { return to_u256().limb[0] & 1; }
  friend bool operator==(const FieldElement& a, const FieldElement& b) {
    return (a - b).is_zero();
  }

  FieldElement operator+(const FieldElement& o) const {
    return FieldElement(n_[0] + o.n_[0], n_[1] + o.n_[1], n_[2] + o.n_[2], n_[3] + o.n_[3],
                        n_[4] + o.n_[4]);
  }
  /// this + 18p - o, weakly normalized: 18p = 2(8 + 1)p is at least o limb
  /// by limb for any o of magnitude <= 8, so no limb goes negative.
  FieldElement operator-(const FieldElement& o) const {
    using detail::kM52;
    using detail::kM48;
    constexpr std::uint64_t k = 18;
    FieldElement r(n_[0] + k * detail::kP0 - o.n_[0], n_[1] + k * kM52 - o.n_[1],
                   n_[2] + k * kM52 - o.n_[2], n_[3] + k * kM52 - o.n_[3],
                   n_[4] + k * kM48 - o.n_[4]);
    detail::fe_normalize_weak(r.n_);
    return r;
  }
  FieldElement operator*(const FieldElement& o) const {
    FieldElement r;
    detail::fe_mul(n_, o.n_, r.n_);
    return r;
  }
  FieldElement sqr() const {
    FieldElement r;
    detail::fe_sqr(n_, r.n_);
    return r;
  }
  FieldElement neg() const { return FieldElement{} - *this; }
  /// Multiplicative inverse by divsteps (variable time); zero maps to zero.
  FieldElement inv() const;

 private:
  constexpr FieldElement(std::uint64_t a, std::uint64_t b, std::uint64_t c, std::uint64_t d,
                         std::uint64_t e)
      : n_{a, b, c, d, e} {}
  std::uint64_t n_[5] = {0, 0, 0, 0, 0};
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

}  // namespace sc::crypto::secp256k1
