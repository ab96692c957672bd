// Differential suite: the library's dedicated field element, scalar type,
// wNAF / precomputed-table scalar multiplication and ECDSA against the
// original generic implementation kept in secp256k1_oracle.{hpp,cpp}, plus
// sign() goldens recorded from the generic implementation.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "crypto/sha256.hpp"
#include "secp256k1_oracle.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sc::crypto::secp256k1 {
namespace {

U256 rand_u256(util::Rng& rng) {
  return {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
}

U256 rand_scalar(util::Rng& rng) {
  for (;;) {
    const U256 d = rand_u256(rng);
    if (is_valid_private_key(d)) return d;
  }
}

/// Boundary values of F_p, including unreduced ones (>= p), and p's low 208
/// bits alone: the field element's low four 52-bit limbs of p with a zero
/// top limb, which a zero test must not take for p.
std::vector<U256> field_edges() {
  const U256 p = field_prime();
  return {U256::zero(),        U256::one(),          U256{2},
          p - U256::one(),     p - U256{2},          p,
          p + U256::one(),     U256::max_value(),    U256::one() << 255,
          U256{0x1000003D1ULL}, U256{0xFFFFFFFFFFFFFFFFULL}, p >> 1,
          (p << 48) >> 48};
}

/// Edge values first, then a mix of random full-width and reduced values.
U256 field_input(util::Rng& rng, int i) {
  const std::vector<U256> edges = field_edges();
  if (i < static_cast<int>(edges.size() * edges.size()))
    return edges[static_cast<std::size_t>(i) % edges.size()];
  return rand_u256(rng);
}

TEST(Secp256k1Oracle, FieldReduceAndCanonicalContract) {
  util::Rng rng(1);
  const U256 p = field_prime();
  for (int i = 0; i < 2100; ++i) {
    // The last 100 inputs lie in [p, 2^256) (2^256 - p = 0x1000003D1):
    // reduce() keeps them as they are, and every reader must see v - p.
    const U256 v = i < 2000 ? field_input(rng, i) : p + U256{rng.next_u64() % 0x1000003D1ULL};
    const U256 expect = oracle::Fp().reduce(v);
    const FieldElement a = FieldElement::reduce(v);
    EXPECT_EQ(a.to_u256(), expect);
    EXPECT_EQ(a.is_zero(), expect.is_zero());
    EXPECT_EQ(a.is_odd(), expect.bit(0));
    EXPECT_EQ(a, FieldElement::reduce(expect));
    EXPECT_FALSE(a == FieldElement::reduce(expect) + FieldElement::from_u64(1));
    const auto canonical = FieldElement::from_canonical(v);
    EXPECT_EQ(canonical.has_value(), v < field_prime());
    if (canonical) {
      EXPECT_EQ(canonical->to_u256(), v);
    }
  }
}

TEST(Secp256k1Oracle, FieldMulSqrAddSubMatch) {
  util::Rng rng(2);
  const auto& f = oracle::Fp();
  const std::vector<U256> edges = field_edges();
  int cases = 0;
  for (int i = 0; i < 4000; ++i) {
    // Pairs of edges first (all 144 combinations), then random pairs.
    const bool edge = i < static_cast<int>(edges.size() * edges.size());
    const U256 ra = edge ? edges[static_cast<std::size_t>(i) / edges.size()] : rand_u256(rng);
    const U256 rb = edge ? edges[static_cast<std::size_t>(i) % edges.size()] : rand_u256(rng);
    const FieldElement a = FieldElement::reduce(ra);
    const FieldElement b = FieldElement::reduce(rb);
    const U256 oa = f.reduce(ra);
    const U256 ob = f.reduce(rb);
    ASSERT_EQ((a * b).to_u256(), f.mul(oa, ob)) << ra.hex() << " * " << rb.hex();
    ASSERT_EQ(a.sqr().to_u256(), f.sqr(oa)) << ra.hex();
    ASSERT_EQ((a + b).to_u256(), f.add(oa, ob)) << ra.hex() << " + " << rb.hex();
    ASSERT_EQ((a - b).to_u256(), f.sub(oa, ob)) << ra.hex() << " - " << rb.hex();
    ASSERT_EQ(a.neg().to_u256(), f.neg(oa)) << ra.hex();
    cases += 5;
  }
  EXPECT_GE(cases, 10000);
}

/// 8·c the way doubling forms it: c + c, doubled twice, with no carry.
FieldElement times8(const FieldElement& c) {
  FieldElement c8 = c + c;
  c8 = c8 + c8;
  return c8 + c8;
}

TEST(Secp256k1Oracle, FieldAtMaximumMagnitudeMatches) {
  // Every operand may have magnitude up to 8, and the longest sum a point
  // formula builds is 8·C in doubling, from a magnitude-1 square.
  // reduce(2^256 - 1) has every limb all ones, half of magnitude 1's limb
  // bound, so 8·(ones + ones) puts every limb exactly at magnitude 8's.
  util::Rng rng(16);
  const auto& f = oracle::Fp();
  const FieldElement ones = FieldElement::reduce(U256::max_value());
  const U256 ones_value = f.reduce(U256::max_value());
  const FieldElement top = times8(ones + ones);
  const U256 top_value = f.mul(ones_value, U256{16});
  ASSERT_EQ(top.to_u256(), top_value);
  EXPECT_EQ(top, FieldElement::reduce(top_value));
  EXPECT_EQ((top * top).to_u256(), f.mul(top_value, top_value));
  EXPECT_EQ(top.sqr().to_u256(), f.sqr(top_value));
  EXPECT_TRUE((top - top).is_zero());
  EXPECT_TRUE((top + top.neg()).is_zero());
  EXPECT_EQ(top.inv().to_u256(), f.inv(top_value));
  for (int i = 0; i < 200; ++i) {
    const U256 v = rand_u256(rng);
    const U256 w = rand_u256(rng);
    const FieldElement a = FieldElement::reduce(v);
    const FieldElement y = FieldElement::reduce(w);
    const U256 y_value = f.reduce(w);
    // A product's limb 4 may pass 2^48 (magnitude 1 allows up to 2^49), so
    // its 8·C is magnitude 8, not 4.
    const FieldElement c = a * ones;
    const U256 c_value = f.mul(f.reduce(v), ones_value);
    const FieldElement c8 = times8(c);
    const U256 c8_value = f.mul(c_value, U256{8});
    const FieldElement e = c + c + c;
    const U256 e_value = f.mul(c_value, U256{3});
    ASSERT_EQ(c8.to_u256(), c8_value) << v.hex();
    ASSERT_EQ((c8 * y).to_u256(), f.mul(c8_value, y_value)) << v.hex();
    ASSERT_EQ((y * c8).to_u256(), f.mul(c8_value, y_value)) << v.hex();
    ASSERT_EQ((top * c8).to_u256(), f.mul(top_value, c8_value)) << v.hex();
    ASSERT_EQ(c8.sqr().to_u256(), f.sqr(c8_value)) << v.hex();
    ASSERT_EQ((y * y - c8).to_u256(), f.sub(f.sqr(y_value), c8_value)) << v.hex();
    ASSERT_EQ((e * c8).to_u256(), f.mul(e_value, c8_value)) << v.hex();
    ASSERT_EQ(e.sqr().to_u256(), f.sqr(e_value)) << v.hex();
    ASSERT_EQ((c - top).to_u256(), f.sub(c_value, top_value)) << v.hex();
    ASSERT_EQ((top - c8).to_u256(), f.sub(top_value, c8_value)) << v.hex();
    ASSERT_EQ(c8.neg().to_u256(), f.neg(c8_value)) << v.hex();
    ASSERT_EQ(c8.is_odd(), c8_value.bit(0)) << v.hex();
    ASSERT_EQ(c8, FieldElement::reduce(c8_value)) << v.hex();
  }
  // A multiple of p at the bound is zero however it is written.
  const FieldElement p = FieldElement::reduce(field_prime());
  const FieldElement p16 = times8(p + p);
  EXPECT_TRUE(p16.is_zero());
  EXPECT_EQ(p16, FieldElement{});
  EXPECT_EQ(p16.to_u256(), U256::zero());
  EXPECT_TRUE((p16 * top).is_zero());
}

TEST(Secp256k1Oracle, ScalarArithmeticMatches) {
  util::Rng rng(4);
  const auto& fn = oracle::Fn();
  const U256 n = group_order();
  const std::vector<U256> edges = {U256::zero(), U256::one(), n - U256::one(), n,
                                   n + U256::one(), U256::max_value()};
  for (int i = 0; i < 2000; ++i) {
    const U256 ra = i < 36 ? edges[static_cast<std::size_t>(i) / 6] : rand_u256(rng);
    const U256 rb = i < 36 ? edges[static_cast<std::size_t>(i) % 6] : rand_u256(rng);
    const Scalar a = Scalar::reduce(ra);
    const Scalar b = Scalar::reduce(rb);
    ASSERT_EQ(a.to_u256(), fn.reduce(ra));
    ASSERT_EQ((a * b).to_u256(), fn.mul(fn.reduce(ra), fn.reduce(rb)));
    ASSERT_EQ((a + b).to_u256(), fn.add(fn.reduce(ra), fn.reduce(rb)));
    ASSERT_EQ(a.neg().to_u256(), fn.neg(fn.reduce(ra)));
    if (i < 300 && !a.is_zero()) {
      ASSERT_EQ(a.inv().to_u256(), fn.inv(a.to_u256()));
    }
  }
}

std::vector<U256> scalar_edges(util::Rng& rng) {
  const U256 n = group_order();
  return {U256::zero(), U256::one(), U256{2}, n - U256::one(), n,
          U256::max_value(), rand_scalar(rng), rand_scalar(rng)};
}

/// A scalar whose every b-bit window below bit 256 reads `window`.
U256 repeated_window(unsigned b, std::uint64_t window) {
  U256 k;
  for (unsigned bit = 0; bit + b <= 256; bit += b) k = k | (U256{window} << bit);
  return k;
}

TEST(Secp256k1Oracle, BaseMultiplicationMatches) {
  util::Rng rng(5);
  // scalar_edges covers 0 and n (the identity), 1, 2, 2^256 - 1 (reduced
  // first) and n - 1, whose carry runs through every window into the top one.
  std::vector<U256> ks = scalar_edges(rng);
  for (int i = 0; i < 40; ++i) ks.push_back(rand_scalar(rng));
  // The signed recoding at each digit width b a table could use (k·G's uses
  // 7): every window 2^(b-1), the largest positive digit with no carry, and
  // every window 2^(b-1) + 1, a negative digit carrying into the next window.
  for (unsigned b = 5; b <= 8; ++b) {
    ks.push_back(repeated_window(b, 1ULL << (b - 1)));
    ks.push_back(repeated_window(b, (1ULL << (b - 1)) + 1));
  }
  for (const U256& k : ks)
    EXPECT_EQ(scalar_mul_base(k).to_affine(), oracle::scalar_mul_base(k).to_affine())
        << k.hex();
}

TEST(Secp256k1Oracle, PointMultiplicationMatches) {
  util::Rng rng(6);
  for (int p_index = 0; p_index < 4; ++p_index) {
    const AffinePoint p = p_index == 0 ? generator() : derive_public(rand_scalar(rng));
    for (const U256& k : scalar_edges(rng))
      EXPECT_EQ(scalar_mul(k, p).to_affine(), oracle::scalar_mul(k, p).to_affine())
          << k.hex();
  }
  // The identity times anything is the identity.
  const AffinePoint inf{U256::zero(), U256::zero(), true};
  EXPECT_TRUE(scalar_mul(U256{5}, inf).is_identity());
}

/// Scalars at the edges of the GLV split: halves of zero, one or minus one,
/// and at the 2^128 bound of a half.
std::vector<U256> split_edges() {
  const U256 n = group_order();
  const U256 lambda = glv_lambda();
  return {U256::zero(),  U256::one(),          n - U256::one(),
          lambda,        n - lambda,           (U256::one() << 128) - U256::one(),
          U256::one() << 128, oracle::Fn().mul(lambda, U256{5}), n - U256{5}};
}

TEST(Secp256k1Oracle, JointMultiplicationMatches) {
  util::Rng rng(7);
  const AffinePoint q = derive_public(rand_scalar(rng));
  std::vector<U256> ks = scalar_edges(rng);
  for (const U256& k : split_edges()) ks.push_back(k);
  // Halves of ±(2^(w-1) - 1) for verify's G window w = 10: the last entry of
  // the G and λG tables, with both signs.
  const U256 n = group_order();
  const U256 top{(1U << 9) - 1};
  const U256 lambda_top = oracle::Fn().mul(glv_lambda(), top);
  const auto [t1, t2] = split_lambda(Scalar::reduce(lambda_top));
  EXPECT_TRUE(t1.is_zero());
  EXPECT_EQ(t2.to_u256(), top);
  for (const U256& k : {top, n - top, lambda_top, n - lambda_top}) ks.push_back(k);
  for (const U256& u1 : ks) {
    for (const U256& u2 : ks) {
      const AffinePoint expect =
          oracle::scalar_mul_base(u1).add(oracle::scalar_mul(u2, q)).to_affine();
      EXPECT_EQ(double_scalar_mul(u1, u2, q).to_affine(), expect)
          << u1.hex() << " " << u2.hex();
    }
  }
  // u2·Q cancelling u1·G: Q = G, u2 = n - u1.
  const U256 u1 = rand_scalar(rng);
  EXPECT_TRUE(double_scalar_mul(u1, group_order() - u1, generator()).is_identity());
}

/// |k| for k mod n read as a signed value in (-n/2, n/2].
U256 magnitude(const Scalar& k) {
  return k.to_u256() > (group_order() >> 1) ? k.neg().to_u256() : k.to_u256();
}

TEST(Secp256k1Glv, SplitRecombinesWithHalvesBelow2To128) {
  util::Rng rng(12);
  const auto& fn = oracle::Fn();
  const U256 half_n = group_order() >> 1;
  std::vector<U256> ks = split_edges();
  for (int i = 0; i < 10000; ++i) ks.push_back(rand_u256(rng));
  int negative[2] = {0, 0};
  int zero[2] = {0, 0};
  for (const U256& raw : ks) {
    const Scalar k = Scalar::reduce(raw);
    const auto [k1, k2] = split_lambda(k);
    ASSERT_EQ(fn.add(k1.to_u256(), fn.mul(glv_lambda(), k2.to_u256())), k.to_u256())
        << raw.hex();
    ASSERT_TRUE((magnitude(k1) >> 128).is_zero()) << raw.hex();
    ASSERT_TRUE((magnitude(k2) >> 128).is_zero()) << raw.hex();
    const Scalar halves[2] = {k1, k2};
    for (int h = 0; h < 2; ++h) {
      negative[h] += halves[h].to_u256() > half_n;
      zero[h] += halves[h].is_zero();
    }
  }
  // The edges reach every sign: k = λ·5 splits to (0, 5), n - 5 to (-5, 0).
  const auto [a1, a2] = split_lambda(Scalar::reduce(split_edges()[7]));
  EXPECT_TRUE(a1.is_zero());
  EXPECT_EQ(a2.to_u256(), U256{5});
  const auto [b1, b2] = split_lambda(Scalar::reduce(group_order() - U256{5}));
  EXPECT_EQ(magnitude(b1), U256{5});
  EXPECT_TRUE(b2.is_zero());
  for (int h = 0; h < 2; ++h) {
    EXPECT_GT(negative[h], 1000) << "half " << h;
    EXPECT_GT(zero[h], 0) << "half " << h;
  }
}

TEST(Secp256k1Glv, LambdaMapsXToBetaX) {
  util::Rng rng(13);
  const auto& fp = oracle::Fp();
  const auto& fn = oracle::Fn();
  const U256 beta = glv_beta();
  // Non-trivial cube roots of unity in both fields.
  EXPECT_NE(glv_lambda(), U256::one());
  EXPECT_EQ(fn.mul(fn.sqr(glv_lambda()), glv_lambda()), U256::one());
  EXPECT_NE(beta, U256::one());
  EXPECT_EQ(fp.mul(fp.sqr(beta), beta), U256::one());
  for (int i = 0; i < 20; ++i) {
    const AffinePoint p = i == 0 ? generator() : oracle::derive_public(rand_scalar(rng));
    const AffinePoint image = oracle::scalar_mul(glv_lambda(), p).to_affine();
    EXPECT_EQ(image.x, fp.mul(beta, p.x)) << i;
    EXPECT_EQ(image.y, p.y) << i;
    // The library's multiplication by λ goes through its own split and tables.
    EXPECT_EQ(scalar_mul(glv_lambda(), p).to_affine(), image) << i;
  }
}

/// Inverse edges modulo m: small values, m - 1, m - 2, every power of two
/// below m, and values with long runs of zero bits.
std::vector<U256> inverse_edges(const U256& m) {
  std::vector<U256> out = {U256::one(), U256{2}, U256{3}, m - U256::one(), m - U256{2},
                           m >> 1, (m >> 1) + U256::one()};
  for (unsigned k = 0; k < 256; ++k) out.push_back(U256::one() << k);
  for (unsigned k = 1; k < 256; k += 17) {
    out.push_back((U256::one() << 255) | (U256::one() << k));
    out.push_back((U256::one() << k) + U256::one());
    out.push_back(U256::max_value() >> k);
    out.push_back(m - (U256::one() << k));
  }
  return out;
}

TEST(Secp256k1ModInv, ScalarInverseMatchesOracle) {
  util::Rng rng(14);
  const U256 n = group_order();
  std::vector<U256> vs = inverse_edges(n);
  for (int i = 0; i < 2000; ++i) vs.push_back(rand_u256(rng));
  const Scalar one = Scalar::reduce(U256::one());
  for (const U256& raw : vs) {
    const Scalar a = Scalar::reduce(raw);
    if (a.is_zero()) continue;
    const Scalar inv = a.inv();
    ASSERT_EQ(a * inv, one) << raw.hex();
    ASSERT_EQ(inv.to_u256(), oracle::Fn().inv(a.to_u256())) << raw.hex();
    ASSERT_EQ(inv.inv(), a) << raw.hex();
  }
}

TEST(Secp256k1ModInv, FieldInverseMatchesOracle) {
  util::Rng rng(15);
  const U256 p = field_prime();
  std::vector<U256> vs = inverse_edges(p);
  for (int i = 0; i < 2000; ++i) vs.push_back(rand_u256(rng));
  const FieldElement one = FieldElement::from_u64(1);
  for (const U256& raw : vs) {
    const FieldElement a = FieldElement::reduce(raw);
    if (a.is_zero()) continue;
    const FieldElement inv = a.inv();
    ASSERT_EQ(a * inv, one) << raw.hex();
    ASSERT_EQ(inv.to_u256(), oracle::Fp().inv(a.to_u256())) << raw.hex();
    ASSERT_EQ(inv.inv(), a) << raw.hex();
  }
}

TEST(Secp256k1ModInv, ZeroMapsToZero) {
  EXPECT_TRUE(Scalar{}.inv().is_zero());
  EXPECT_TRUE(Scalar::reduce(group_order()).inv().is_zero());
  EXPECT_TRUE(FieldElement{}.inv().is_zero());
  EXPECT_TRUE(FieldElement::reduce(field_prime()).inv().is_zero());
}

/// The same point with a random Z: (X·λ², Y·λ³, Z·λ).
JacobianPoint rescaled(const JacobianPoint& p, util::Rng& rng) {
  const FieldElement l = FieldElement::reduce(rand_scalar(rng));
  const FieldElement l2 = l.sqr();
  return {p.x * l2, p.y * l2 * l, p.z * l};
}

TEST(Secp256k1Oracle, AddPathEdgeCases) {
  util::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    const AffinePoint a = derive_public(rand_scalar(rng));
    const JacobianPoint p = rescaled(JacobianPoint::from_affine(a), rng);
    AffinePoint neg_a = a;
    neg_a.y = FieldElement::reduce(a.y).neg().to_u256();
    const JacobianPoint minus_p = rescaled(JacobianPoint::from_affine(neg_a), rng);
    // P + (-P) through both add paths.
    EXPECT_TRUE(p.add(minus_p).is_identity());
    EXPECT_TRUE(p.add_affine(neg_a).is_identity());
    // P + P through the add path equals doubling, and the oracle's 2P.
    const AffinePoint twice = oracle::scalar_mul(U256{2}, a).to_affine();
    EXPECT_EQ(p.add(rescaled(p, rng)).to_affine(), twice);
    EXPECT_EQ(p.add_affine(a).to_affine(), twice);
    EXPECT_EQ(p.doubled().to_affine(), twice);
    // Identity operands.
    const JacobianPoint id = JacobianPoint::identity();
    EXPECT_EQ(id.add(p).to_affine(), a);
    EXPECT_EQ(p.add(id).to_affine(), a);
    EXPECT_EQ(id.add_affine(a).to_affine(), a);
    EXPECT_EQ(p.add_affine(AffinePoint{U256::zero(), U256::zero(), true}).to_affine(), a);
    EXPECT_TRUE(id.doubled().is_identity());
    EXPECT_TRUE(id.add(id).is_identity());
    // A general sum agrees with the oracle's.
    const AffinePoint b = derive_public(rand_scalar(rng));
    EXPECT_EQ(p.add(rescaled(JacobianPoint::from_affine(b), rng)).to_affine(),
              oracle::Point::from_affine(a).add_affine(b).to_affine());
  }
}

Hash256 rand_digest(util::Rng& rng) {
  util::Bytes raw;
  rng.fill(raw, 32);
  return Hash256::from_span(raw);
}

TEST(Secp256k1Oracle, RandomSignVerifyPairsMatch) {
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const U256 d = rand_scalar(rng);
    const Hash256 z = rand_digest(rng);
    const AffinePoint pub = derive_public(d);
    ASSERT_EQ(pub, oracle::derive_public(d)) << d.hex();
    const Signature sig = sign(d, z);
    ASSERT_EQ(sig, oracle::sign(d, z)) << d.hex();
    ASSERT_TRUE(verify(pub, z, sig));
    if (i % 10 == 0) {
      ASSERT_TRUE(oracle::verify(pub, z, sig));
    }
  }
}

TEST(Secp256k1Oracle, RejectionVerdictsMatch) {
  util::Rng rng(10);
  const U256 n = group_order();
  for (int i = 0; i < 20; ++i) {
    const U256 d = rand_scalar(rng);
    const Hash256 z = rand_digest(rng);
    const AffinePoint pub = derive_public(d);
    const Signature sig = sign(d, z);
    std::vector<std::pair<AffinePoint, Signature>> cases;
    std::vector<Hash256> digests;
    auto add = [&](const AffinePoint& key, const Hash256& digest, const Signature& s) {
      cases.emplace_back(key, s);
      digests.push_back(digest);
    };
    add(pub, rand_digest(rng), sig);                   // tampered digest
    add(derive_public(rand_scalar(rng)), z, sig);      // wrong key
    add(pub, z, {sig.r, n - sig.s});                   // high-s twin: accepted
    add(pub, z, {U256::zero(), sig.s});
    add(pub, z, {sig.r, U256::zero()});
    add(pub, z, {n, sig.s});
    add(pub, z, {sig.r, n});
    add(pub, z, {sig.r + n, sig.s});
    add(pub, z, {sig.r, U256::max_value()});
    AffinePoint off = pub;
    off.y = off.y ^ U256::one();                       // off-curve key
    add(off, z, sig);
    add(AffinePoint{U256::zero(), U256::zero(), true}, z, sig);
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const bool lib = verify(cases[c].first, digests[c], cases[c].second);
      EXPECT_EQ(lib, oracle::verify(cases[c].first, digests[c], cases[c].second))
          << "case " << c;
      EXPECT_EQ(lib, c == 2) << "case " << c;
    }
  }
}

TEST(Secp256k1Oracle, FinalCheckTakesTheRPlusNBranch) {
  // x = r + n (< p) reduces to r mod n; verify's inversion-free final check
  // must accept it through the r+n branch, on any Z.
  util::Rng rng(11);
  const U256 n = group_order();
  for (int i = 0; i < 10; ++i) {
    const U256 r{rng.next_u64(), rng.next_u64(), 0, 0};  // r + n < p
    const FieldElement z = FieldElement::reduce(rand_scalar(rng));
    const FieldElement zz = z.sqr();
    const JacobianPoint with_n{FieldElement::reduce(r + n) * zz, FieldElement::from_u64(1), z};
    EXPECT_TRUE(x_mod_n_equals(with_n, r));
    const JacobianPoint plain{FieldElement::reduce(r) * zz, FieldElement::from_u64(1), z};
    EXPECT_TRUE(x_mod_n_equals(plain, r));
    const JacobianPoint off{FieldElement::reduce(r + n + U256::one()) * zz,
                            FieldElement::from_u64(1), z};
    EXPECT_FALSE(x_mod_n_equals(off, r));
  }
  // r + n >= p: only x == r may match; x == (r + n) mod p must not.
  const U256 r = field_prime() - n;
  const FieldElement z = FieldElement::from_u64(3);
  const JacobianPoint wrapped{FieldElement::reduce(r + n) * z.sqr(), FieldElement::from_u64(1), z};
  EXPECT_FALSE(x_mod_n_equals(wrapped, r));
  const JacobianPoint plain{FieldElement::reduce(r) * z.sqr(), FieldElement::from_u64(1), z};
  EXPECT_TRUE(x_mod_n_equals(plain, r));
}

struct Golden {
  const char* d;
  const char* message;
  const char* r;
  const char* s;
};

// (r, s) recorded from the generic implementation before the limb kernels
// replaced it: RFC 6979 output must stay byte-identical.
constexpr Golden kSignGoldens[] = {
    {"0000000000000000000000000000000000000000000000000000000000000001", "golden message 0", "e0b9e5ba7cefadb626136a8f61f3dfe783e647e700bc1e081d1212a3dd3a0c5e", "1287869ec9f25123aa79ef17c95dc252405b3136cca115d70fca9fda0b24e070"},
    {"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140", "golden message 1", "2fdeec9bea065465b34a509fd020c679ed0587faccccecbb803e8696bc759314", "7f3c422d70692c78e85cd9daf2ba6edfff07e0fe3365b30757cd522d0860f2e1"},
    {"f985e1f2fb897b03d8ab05640214863ae1f591112fb5051bef33f17055244b74", "golden message 2", "4d4ed9a9b3c12770558061be01fa71f03ba3b68d460fa364526c4fa4faf918e0", "2a08882d5fcaceb118e917eeff4bd80a96ed1791640bd1fa2b5d5172aef3da14"},
    {"6c13fd25a31557164e1acb1dbe288cac86f28e3a0746ff9eaf87a5f7e6ce1408", "golden message 3", "2f43c9679b4235fbe8d612edb81fdb6e65350dc64eea591d14fb861baaf7ea2c", "264f5d19bb64f8638c08ae6715a79f91b61dbe492ff5887c9bc65339102ae63c"},
    {"acaedbe9142e28382cbcaebe58709106bbc9adb15e67721ac68396bba4130cfc", "golden message 4", "113def179a781138bb35a81fb448d13ab4644058f3805b8cac1e0a0ad5e3f4d5", "55b28efcc3255c6b4232481e2c89ed903434a4f82636668514e64b6f6b445e8c"},
    {"3f4c13e9094957759bd18870a5b3bc524f5dd53950ae09018a75ea2a2c001b0c", "golden message 5", "8e769b3382ba101cf2cee3b4b2f2be630826bf9d1c08f61ebc4affb3d31a6c79", "5609179fd8b6972c725a06d2fed5d8ab67c2b89e77f71036454998c399a0d09b"},
    {"c410d5f0f1c5f8d24cb6620fc1a9525c8348c3a634509c7f8f6d7ae8fa36bd65", "golden message 6", "c7da7864a2bc0c0f5a10419963658d3de4f98c422030bb928adad04c814ef826", "6dd39d9ebabe0fcd97f2ac83086a4b48ba6e245250f66554255dd3bb6b5aafee"},
    {"d1bc2ceb7e30b51b03402cf1746993bc73c2ea788c42310b6305ca72e745f365", "golden message 7", "26194f30d68577071cf51c02307a915d742e042beda6ba712b23bb2fb5bb7ac0", "7f4afa69897174fc5575064cab81e39d86e7e00bfabe04f4ef6a3888dc7f63d9"},
    {"1f3cbbb163fb280de5aae0e02e036101e73581c0f3ab201800eef1b6bbbaf2e8", "golden message 8", "938f9fede8da3ed64a44e4781fe6c6b36d8d0bb9e4d52ec24c965d452554f76d", "0930f9d950c479ee2684c27d8f793a1230d78d1209346248a56b686a2f7db036"},
    {"9c5ed8bd8b8bed74ab06e963a3dd337e410b0b6bfc1352e14aa79640dfae6cee", "golden message 9", "379cff7b2a7ecf7999df81145db9fb083c435ee311edd702d1225bcf74a00507", "300cf73fbac8b5be1504ba7ff9406c6051e2ee0abfc12b9e09bf8878b3c61cd3"},
    {"4e5d2ca2bd39fa4271d49baecd775bcb3c2ac4c244757c29ccf37341a67dbdff", "golden message 10", "a834c4b1e4828562c4131702b6d077ef81cb5a0911caed06d087393838e5cfe6", "5c0774c61ba825b86ac8872261c2d8df513be25a0fc12468ecf1a16d95d918aa"},
    {"2b23f3306a885f696036f8f3be1f715dc1d88cd25222d652f37375b6b47f4d37", "golden message 11", "0915e11cfb6035f64c575d9513222f52b5613c179eb843b09cd4403437fa2352", "6ffd98fe7b7ee0754f26e3b1d86b4fb1b26ca6a7e0a8c230b706b4b8be97e14e"},
    {"5b825cc04a2e7cdee987b805da556782f9ea203f78175869d14e69f965d0a6ba", "golden message 12", "ec9e3a4f654a90860a8dd98d0dec0957cc7b4f013a7249f4a54f2b32f7e68fcc", "6637ba40c7e7d6253aa8913ade3d3120aecc2278cb49e24d29427fd8ba54212f"},
    {"c0152d3746ebfad331f382d79549a26848864d37345bd09d915fb63a060e49a8", "golden message 13", "efd025133e52f7dcdf4c78a66ab67fc8f4fe18104902ac5f8997632a2d02d501", "1301a23b6e6718fb08a65ba8a5ab43f47cbfbeec2a7a5e56d226a7a39d69a760"},
    {"a384b9879c162ec9ac987703791827250cfa4f73f103e92814bed62da1609f7e", "golden message 14", "52269d62b9d06c00816a1a6ef57ef3d9b21aaa59c0901a1ad510898e1021bc9a", "04d32112d5ff69611d77dac91ac256d0605e43850380206802aa3aff6dbe3787"},
    {"c9a97119c4bea203f3760125c39d4eb2f1e892597020d3aeb91ef2f48729acce", "golden message 15", "efc6e9d98dc3ca96cf47a4ed205eaa7179c310b0c8d1028351f758b9a830b277", "03a04235a0933da349ddea32dfd84f22101edbd70b7718ffabc623e7865610a5"}
};

TEST(Secp256k1Oracle, SignGoldensAreByteIdentical) {
  for (const Golden& g : kSignGoldens) {
    const U256 d = U256::from_hex(g.d);
    const Hash256 z = Sha256::digest(util::as_bytes(g.message));
    const Signature sig = sign(d, z);
    EXPECT_EQ(sig.r.hex(), g.r) << g.message;
    EXPECT_EQ(sig.s.hex(), g.s) << g.message;
    EXPECT_TRUE(verify(derive_public(d), z, sig)) << g.message;
  }
}

TEST(Secp256k1Oracle, FourLanesRaceTheFirstTableUse) {
  // Public keys come from the oracle, so the library's static G tables are
  // first touched by four lanes at once (each ctest case is its own
  // process): two lanes start by signing, which reads the k·G table, and two
  // by verifying, which reads the odd-multiples tables. Under TSan this is
  // the check that the one-time table build is race-free.
  constexpr unsigned kLanes = 4;
  constexpr std::size_t kCount = std::size(kSignGoldens);
  std::vector<Signature> sigs(kCount);
  std::vector<char> verified(kCount, 0);
  util::ThreadPool pool(kLanes - 1);
  pool.for_shards(kLanes, [&](unsigned lane) {
    for (std::size_t i = lane; i < kCount; i += kLanes) {
      const Golden& g = kSignGoldens[i];
      const U256 d = U256::from_hex(g.d);
      const Hash256 z = Sha256::digest(util::as_bytes(g.message));
      const Signature golden{U256::from_hex(g.r), U256::from_hex(g.s)};
      const auto check = [&] { verified[i] = verify(oracle::derive_public(d), z, golden); };
      if (lane % 2 == 1) check();
      sigs[i] = sign(d, z);
      if (lane % 2 == 0) check();
    }
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(sigs[i].r.hex(), kSignGoldens[i].r) << i;
    EXPECT_EQ(sigs[i].s.hex(), kSignGoldens[i].s) << i;
    EXPECT_TRUE(verified[i]) << i;
  }
}

}  // namespace
}  // namespace sc::crypto::secp256k1
