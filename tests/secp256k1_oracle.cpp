#include "secp256k1_oracle.hpp"

namespace sc::crypto::secp256k1::oracle {

U512 u512_from_parts(const U256& lo, const U256& hi) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    out.limb[i] = lo.limb[i];
    out.limb[i + 4] = hi.limb[i];
  }
  return out;
}

U512 u512_add(const U512& a, const U512& b) {
  U512 out;
  unsigned char carry = 0;
  for (int i = 0; i < 8; ++i) {
    const __uint128_t s = static_cast<__uint128_t>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<unsigned char>(s >> 64);
  }
  return out;
}

const PrimeField& Fp() {
  static const PrimeField f(field_prime(), U256::zero() - field_prime());  // c = 2^256 - p (wrapping)
  return f;
}

const PrimeField& Fn() {
  static const PrimeField f(group_order(), U256::zero() - group_order());
  return f;
}

U256 PrimeField::reduce(const U256& a) const {
  U256 r = a;
  while (r >= m_) r = r - m_;
  return r;
}

U256 PrimeField::reduce512(const U512& t) const {
  U512 acc = t;
  // Fold 2^256 ≡ c (mod m) until the high half vanishes. For secp256k1's p
  // (c ~ 2^33) this takes 2 iterations; for n (c ~ 2^129) at most 3.
  while (!acc.high_is_zero()) {
    const U512 folded = U256::mul_wide(acc.high(), c_);
    acc = u512_add(u512_from_parts(acc.low(), U256::zero()), folded);
  }
  return reduce(acc.low());
}

U256 PrimeField::add(const U256& a, const U256& b) const {
  U256 out;
  const bool carry = U256::add_with_carry(a, b, out);
  if (carry) out = out + c_;  // 2^256 ≡ c, and a+b < 2m keeps this carry-free.
  return reduce(out);
}

U256 PrimeField::sub(const U256& a, const U256& b) const {
  U256 out;
  const bool borrow = U256::sub_with_borrow(a, b, out);
  if (borrow) out = out + m_;
  return out;
}

U256 PrimeField::neg(const U256& a) const {
  return a.is_zero() ? a : m_ - a;
}

U256 PrimeField::mul(const U256& a, const U256& b) const {
  return reduce512(U256::mul_wide(a, b));
}

U256 PrimeField::pow(const U256& base, const U256& exp) const {
  U256 result = U256::one();
  U256 acc = reduce(base);
  const unsigned bits = exp.bit_length();
  for (unsigned i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = mul(result, acc);
    acc = mul(acc, acc);
  }
  return result;
}

U256 PrimeField::inv(const U256& a) const {
  // Fermat: a^(m-2) mod m for prime m.
  return pow(a, m_ - U256{2});
}

bool is_on_curve(const AffinePoint& p) {
  if (p.infinity) return true;
  const auto& f = Fp();
  const U256 lhs = f.sqr(p.y);
  const U256 rhs = f.add(f.mul(f.sqr(p.x), p.x), U256{7});
  return lhs == rhs;
}

Point Point::from_affine(const AffinePoint& p) {
  if (p.infinity) return identity();
  return {p.x, p.y, U256::one()};
}

AffinePoint Point::to_affine() const {
  if (is_identity()) return {U256::zero(), U256::zero(), true};
  const auto& f = Fp();
  const U256 zinv = f.inv(z);
  const U256 zinv2 = f.sqr(zinv);
  const U256 zinv3 = f.mul(zinv2, zinv);
  return {f.mul(x, zinv2), f.mul(y, zinv3), false};
}

Point Point::doubled() const {
  if (is_identity()) return *this;
  const auto& f = Fp();
  if (y.is_zero()) return identity();
  // dbl-2007-bl for a=0: S = 4XY^2, M = 3X^2, X' = M^2-2S,
  // Y' = M(S-X') - 8Y^4, Z' = 2YZ.
  const U256 y2 = f.sqr(y);
  const U256 s = f.mul(U256{4}, f.mul(x, y2));
  const U256 m = f.mul(U256{3}, f.sqr(x));
  const U256 x3 = f.sub(f.sqr(m), f.add(s, s));
  const U256 y3 = f.sub(f.mul(m, f.sub(s, x3)), f.mul(U256{8}, f.sqr(y2)));
  const U256 z3 = f.mul(U256{2}, f.mul(y, z));
  return {x3, y3, z3};
}

Point Point::add(const Point& o) const {
  if (is_identity()) return o;
  if (o.is_identity()) return *this;
  const auto& f = Fp();
  const U256 z1z1 = f.sqr(z);
  const U256 z2z2 = f.sqr(o.z);
  const U256 u1 = f.mul(x, z2z2);
  const U256 u2 = f.mul(o.x, z1z1);
  const U256 s1 = f.mul(y, f.mul(z2z2, o.z));
  const U256 s2 = f.mul(o.y, f.mul(z1z1, z));
  if (u1 == u2) {
    if (s1 == s2) return doubled();
    return identity();
  }
  const U256 h = f.sub(u2, u1);
  const U256 r = f.sub(s2, s1);
  const U256 h2 = f.sqr(h);
  const U256 h3 = f.mul(h2, h);
  const U256 u1h2 = f.mul(u1, h2);
  const U256 x3 = f.sub(f.sub(f.sqr(r), h3), f.add(u1h2, u1h2));
  const U256 y3 = f.sub(f.mul(r, f.sub(u1h2, x3)), f.mul(s1, h3));
  const U256 z3 = f.mul(h, f.mul(z, o.z));
  return {x3, y3, z3};
}

Point Point::add_affine(const AffinePoint& o) const {
  return add(Point::from_affine(o));
}

Point scalar_mul(const U256& k, const AffinePoint& p) {
  Point acc = Point::identity();
  const unsigned bits = k.bit_length();
  for (int i = static_cast<int>(bits) - 1; i >= 0; --i) {
    acc = acc.doubled();
    if (k.bit(static_cast<unsigned>(i))) acc = acc.add_affine(p);
  }
  return acc;
}

Point scalar_mul_base(const U256& k) { return oracle::scalar_mul(k, generator()); }

AffinePoint derive_public(const U256& d) { return oracle::scalar_mul_base(d).to_affine(); }

Signature sign(const U256& d, const Hash256& z) {
  const auto& fn = Fn();
  const U256 z_scalar = fn.reduce(U256::from_hash(z));
  for (std::uint32_t attempt = 0;; ++attempt) {
    const U256 k = rfc6979_nonce(d, z, attempt);
    const AffinePoint point = oracle::scalar_mul_base(k).to_affine();
    const U256 r = fn.reduce(point.x);
    if (r.is_zero()) continue;
    U256 s = fn.mul(fn.inv(k), fn.add(z_scalar, fn.mul(r, d)));
    if (s.is_zero()) continue;
    // Low-s normalisation: (r, s) and (r, n-s) are both valid; pick the
    // canonical one so signatures are unique (malleability defence).
    const U256 half_n = group_order() >> 1;
    if (s > half_n) s = group_order() - s;
    return {r, s};
  }
}

bool verify(const AffinePoint& pub, const Hash256& z, const Signature& sig) {
  if (pub.infinity || !is_on_curve(pub)) return false;
  const U256& n = group_order();
  if (sig.r.is_zero() || sig.r >= n || sig.s.is_zero() || sig.s >= n) return false;
  const auto& fn = Fn();
  const U256 z_scalar = fn.reduce(U256::from_hash(z));
  const U256 w = fn.inv(sig.s);
  const U256 u1 = fn.mul(z_scalar, w);
  const U256 u2 = fn.mul(sig.r, w);
  const Point sum = oracle::scalar_mul_base(u1).add(oracle::scalar_mul(u2, pub));
  if (sum.is_identity()) return false;
  const AffinePoint point = sum.to_affine();
  return fn.reduce(point.x) == sig.r;
}

std::optional<U256> sqrt_mod_p(const U256& a) {
  const auto& f = Fp();
  const U256 reduced = f.reduce(a);
  if (reduced.is_zero()) return U256::zero();
  // (p+1)/4: since p ≡ 3 (mod 4) the candidate is a^((p+1)/4).
  const U256 exponent = (field_prime() + U256::one()) >> 2;
  const U256 candidate = f.pow(reduced, exponent);
  if (f.sqr(candidate) != reduced) return std::nullopt;  // non-residue
  return candidate;
}

}  // namespace sc::crypto::secp256k1::oracle
