// Differential oracle for crypto/secp256k1: the library's original generic
// implementation, kept verbatim apart from its namespace and two names (the
// Jacobian type is `oracle::Point`, the on-curve check a free function) so
// that nothing clashes with the library's own types.
//
// Arithmetic modulo 2^256 - c over the generic 256x256 -> 512-bit product
// with repeated folds, Fermat inversion, Jacobian points over plain U256
// coordinates, double-and-add scalar multiplication and two independent
// scalar multiplications per verify. Slow and obviously correct; the fast
// field element, wNAF and precomputed tables are checked against it.
#pragma once

#include "crypto/secp256k1.hpp"

namespace sc::crypto::secp256k1::oracle {

/// 512-bit helpers the generic fold reduction needs.
U512 u512_from_parts(const U256& lo, const U256& hi);
/// 512-bit wrapping add.
U512 u512_add(const U512& a, const U512& b);

/// Arithmetic modulo a prime of the form 2^256 - c.
class PrimeField {
 public:
  PrimeField(const U256& modulus, const U256& c) : m_(modulus), c_(c) {}

  const U256& modulus() const { return m_; }

  U256 reduce(const U256& a) const;          ///< a mod m (a < 2m required is NOT assumed).
  U256 reduce512(const U512& t) const;       ///< 512-bit fold reduction.
  U256 add(const U256& a, const U256& b) const;
  U256 sub(const U256& a, const U256& b) const;
  U256 neg(const U256& a) const;
  U256 mul(const U256& a, const U256& b) const;
  U256 sqr(const U256& a) const { return mul(a, a); }
  U256 pow(const U256& base, const U256& exp) const;
  U256 inv(const U256& a) const;  ///< Fermat inverse; a must be non-zero mod m.

 private:
  U256 m_;
  U256 c_;  // 2^256 - m
};

const PrimeField& Fp();  ///< Base field.
const PrimeField& Fn();  ///< Scalar field.

bool is_on_curve(const AffinePoint& p);

/// Jacobian-coordinate point (X/Z^2, Y/Z^3); Z==0 encodes infinity.
struct Point {
  U256 x;
  U256 y;
  U256 z;

  static Point identity() { return {U256::one(), U256::one(), U256::zero()}; }
  static Point from_affine(const AffinePoint& p);
  bool is_identity() const { return z.is_zero(); }

  AffinePoint to_affine() const;
  Point doubled() const;
  Point add(const Point& o) const;
  Point add_affine(const AffinePoint& o) const;
};

/// Scalar multiplication k·P (double-and-add; not constant time).
Point scalar_mul(const U256& k, const AffinePoint& p);
/// k·G.
Point scalar_mul_base(const U256& k);

AffinePoint derive_public(const U256& d);
Signature sign(const U256& d, const Hash256& z);
bool verify(const AffinePoint& pub, const Hash256& z, const Signature& sig);
std::optional<U256> sqrt_mod_p(const U256& a);

}  // namespace sc::crypto::secp256k1::oracle
