// secp256k1 field, group and ECDSA tests: fixed generator vectors,
// algebraic laws and RFC-6979 determinism. (Differential checks against the
// generic oracle live in crypto_secp256k1_oracle_test.cpp.) The square root
// and the SEC-1 compressed-key codec built on it live here, next to their
// tests: no product code uses them.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "secp256k1_oracle.hpp"
#include "util/rng.hpp"

namespace sc::crypto::secp256k1 {
namespace {

U256 rand_scalar(util::Rng& rng) {
  for (;;) {
    const U256 d{rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
    if (is_valid_private_key(d)) return d;
  }
}

FieldElement rand_fe(util::Rng& rng) { return FieldElement::reduce(rand_scalar(rng)); }

TEST(Secp256k1Field, ModulusShapes) {
  // p = 2^256 - 2^32 - 977, n just below p: both must be odd 256-bit primes
  // (we check the magnitudes and known hex here, primality is literature).
  EXPECT_EQ(field_prime().hex(),
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  EXPECT_EQ(group_order().hex(),
            "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
  EXPECT_LT(group_order(), field_prime());
}

TEST(Secp256k1Field, AddSubRoundTrip) {
  util::Rng rng(1);
  const FieldElement p = FieldElement::reduce(field_prime());
  const FieldElement one = FieldElement::from_u64(1);
  for (int i = 0; i < 100; ++i) {
    const FieldElement a = rand_fe(rng);
    const FieldElement b = rand_fe(rng);
    EXPECT_EQ((a + b) - b, a);
    EXPECT_TRUE((a + a.neg()).is_zero());
    // One value in five representations: canonical, plus p limb by limb, a
    // product, a carry-free sum and a difference. x - x and x + (0 - x) are
    // zero, and == holds across all of them.
    const FieldElement forms[] = {a, a + p, a * one, (a - b) + b, a + a + a + a - (a + a + a)};
    for (const FieldElement& x : forms) {
      EXPECT_TRUE((x - x).is_zero());
      EXPECT_TRUE((x + (FieldElement{} - x)).is_zero());
      EXPECT_EQ(x.to_u256(), a.to_u256());
      for (const FieldElement& y : forms) EXPECT_EQ(x, y);
    }
    EXPECT_FALSE(a + one == a);
  }
}

TEST(Secp256k1Field, MulCommutativeAssociativeDistributive) {
  util::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const FieldElement a = rand_fe(rng);
    const FieldElement b = rand_fe(rng);
    const FieldElement c = rand_fe(rng);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a * b) * c, a * (b * c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
  }
}

TEST(Secp256k1Field, InverseIsTwoSided) {
  util::Rng rng(3);
  const FieldElement one = FieldElement::from_u64(1);
  const Scalar scalar_one = Scalar::reduce(U256::one());
  for (int i = 0; i < 25; ++i) {
    FieldElement a = rand_fe(rng);
    if (a.is_zero()) a = one;
    EXPECT_EQ(a * a.inv(), one);
    EXPECT_EQ(a.inv() * a, one);
    const Scalar s = Scalar::reduce(rand_scalar(rng));
    EXPECT_EQ(s * s.inv(), scalar_one);
    EXPECT_EQ(s.inv() * s, scalar_one);
  }
}

TEST(Secp256k1Field, PowMatchesRepeatedMul) {
  // The oracle's generic pow against the dedicated element's repeated mul.
  const U256 base{12345};
  FieldElement acc = FieldElement::from_u64(1);
  for (int i = 0; i < 10; ++i) acc = acc * FieldElement::from_u64(12345);
  EXPECT_EQ(acc.to_u256(), oracle::Fp().pow(base, U256{10}));
  EXPECT_EQ(oracle::Fp().pow(base, U256::zero()), U256::one());
}

TEST(Secp256k1Field, FermatLittleTheorem) {
  // The addition-chain inverse is a^(p-2); a·a^(p-2) = a^(p-1) = 1.
  const FieldElement a = FieldElement::from_u64(987654321);
  EXPECT_EQ(a.inv().to_u256(), oracle::Fp().pow(a.to_u256(), field_prime() - U256{2}));
  EXPECT_EQ(a * a.inv(), FieldElement::from_u64(1));
}

TEST(Secp256k1Group, GeneratorOnCurve) {
  EXPECT_TRUE(generator().is_on_curve());
}

TEST(Secp256k1Group, OneTimesGIsG) {
  const AffinePoint g1 = scalar_mul_base(U256::one()).to_affine();
  EXPECT_EQ(g1, generator());
}

TEST(Secp256k1Group, TwoGKnownValue) {
  // 2G, a published curve vector.
  const AffinePoint g2 = scalar_mul_base(U256{2}).to_affine();
  EXPECT_EQ(g2.x.hex(), "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(g2.y.hex(), "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
  EXPECT_TRUE(g2.is_on_curve());
}

TEST(Secp256k1Group, NTimesGIsIdentity) {
  EXPECT_TRUE(scalar_mul_base(group_order()).is_identity());
}

TEST(Secp256k1Group, AddMatchesScalarDistribution) {
  // (a+b)G == aG + bG for random scalars.
  util::Rng rng(4);
  for (int i = 0; i < 10; ++i) {
    const U256 a = rand_scalar(rng);
    const U256 b = rand_scalar(rng);
    const AffinePoint lhs =
        scalar_mul_base((Scalar::reduce(a) + Scalar::reduce(b)).to_u256()).to_affine();
    const AffinePoint rhs = scalar_mul_base(a).add(scalar_mul_base(b)).to_affine();
    EXPECT_EQ(lhs, rhs);
  }
}

TEST(Secp256k1Group, DoubleEqualsAddSelf) {
  util::Rng rng(5);
  const U256 k = rand_scalar(rng);
  const JacobianPoint p = scalar_mul_base(k);
  EXPECT_EQ(p.doubled().to_affine(), p.add(p).to_affine());
}

TEST(Secp256k1Group, AddInverseGivesIdentity) {
  const JacobianPoint g = JacobianPoint::from_affine(generator());
  AffinePoint neg_g = generator();
  neg_g.y = FieldElement::reduce(neg_g.y).neg().to_u256();
  EXPECT_TRUE(g.add_affine(neg_g).is_identity());
}

TEST(Secp256k1Group, MulByZeroIsIdentity) {
  EXPECT_TRUE(scalar_mul_base(U256::zero()).is_identity());
  EXPECT_TRUE(scalar_mul(U256{17}, AffinePoint{U256::zero(), U256::zero(), true})
                  .is_identity());
}

TEST(Secp256k1Ecdsa, SignVerifyRoundTrip) {
  util::Rng rng(6);
  const U256 d = rand_scalar(rng);
  const AffinePoint pub = derive_public(d);
  const Hash256 z = Sha256::digest(util::as_bytes("detection report payload"));
  const Signature sig = sign(d, z);
  EXPECT_TRUE(verify(pub, z, sig));
}

TEST(Secp256k1Ecdsa, WrongMessageFails) {
  util::Rng rng(7);
  const U256 d = rand_scalar(rng);
  const AffinePoint pub = derive_public(d);
  const Signature sig = sign(d, Sha256::digest(util::as_bytes("genuine")));
  EXPECT_FALSE(verify(pub, Sha256::digest(util::as_bytes("tampered")), sig));
}

TEST(Secp256k1Ecdsa, WrongKeyFails) {
  util::Rng rng(8);
  const U256 d1 = rand_scalar(rng);
  const U256 d2 = rand_scalar(rng);
  const Hash256 z = Sha256::digest(util::as_bytes("msg"));
  const Signature sig = sign(d1, z);
  EXPECT_FALSE(verify(derive_public(d2), z, sig));
}

TEST(Secp256k1Ecdsa, DeterministicSignatures) {
  const U256 d = U256::from_hex("01");
  const Hash256 z = Sha256::digest(util::as_bytes("same message"));
  EXPECT_EQ(sign(d, z), sign(d, z));
}

TEST(Secp256k1Ecdsa, LowSNormalised) {
  util::Rng rng(9);
  const U256 half_n = group_order() >> 1;
  for (int i = 0; i < 20; ++i) {
    const U256 d = rand_scalar(rng);
    Hash256 z;
    util::Bytes raw;
    rng.fill(raw, 32);
    z = Hash256::from_span(raw);
    const Signature sig = sign(d, z);
    EXPECT_LE(sig.s, half_n);
    EXPECT_FALSE(sig.r.is_zero());
  }
}

TEST(Secp256k1Ecdsa, HighSVariantRejectedByUniqueness) {
  // The complementary signature (r, n-s) verifies mathematically; we only
  // check that OUR signer never emits it (canonical form).
  util::Rng rng(10);
  const U256 d = rand_scalar(rng);
  const Hash256 z = Sha256::digest(util::as_bytes("canonical"));
  const Signature sig = sign(d, z);
  Signature high = sig;
  high.s = group_order() - sig.s;
  EXPECT_TRUE(verify(derive_public(d), z, high));  // Math still holds...
  EXPECT_NE(high, sig);                            // ...but it's not what we produce.
}

TEST(Secp256k1Ecdsa, RejectsOutOfRangeComponents) {
  util::Rng rng(11);
  const U256 d = rand_scalar(rng);
  const AffinePoint pub = derive_public(d);
  const Hash256 z = Sha256::digest(util::as_bytes("m"));
  const Signature sig = sign(d, z);
  Signature bad = sig;
  bad.r = U256::zero();
  EXPECT_FALSE(verify(pub, z, bad));
  bad = sig;
  bad.s = group_order();
  EXPECT_FALSE(verify(pub, z, bad));
}

TEST(Secp256k1Ecdsa, SignatureEncodingRoundTrip) {
  util::Rng rng(12);
  const U256 d = rand_scalar(rng);
  const Signature sig = sign(d, Sha256::digest(util::as_bytes("enc")));
  const auto decoded = Signature::decode(sig.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, sig);
  EXPECT_FALSE(Signature::decode(util::Bytes(63)).has_value());
}

TEST(Secp256k1Ecdsa, PublicKeyEncodingRoundTrip) {
  util::Rng rng(13);
  const U256 d = rand_scalar(rng);
  const AffinePoint pub = derive_public(d);
  const auto decoded = decode_public(encode_public(pub));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, pub);
}

TEST(Secp256k1Ecdsa, DecodePublicRejectsOffCurve) {
  util::Bytes garbage(64, 0x42);
  EXPECT_FALSE(decode_public(garbage).has_value());
}

FieldElement sqr_n(FieldElement a, int n) {
  for (int i = 0; i < n; ++i) a = a.sqr();
  return a;
}

/// A square root by addition chain (a^((p+1)/4), p ≡ 3 mod 4); nullopt for
/// non-residues.
std::optional<FieldElement> field_sqrt(const FieldElement& a) {
  // (p + 1) / 4 = 223 ones, 0, 22 ones, 000000, 11, 00; x_k = a^(2^k - 1).
  const FieldElement x2 = a.sqr() * a;
  const FieldElement x3 = x2.sqr() * a;
  const FieldElement x6 = sqr_n(x3, 3) * x3;
  const FieldElement x9 = sqr_n(x6, 3) * x3;
  const FieldElement x11 = sqr_n(x9, 2) * x2;
  const FieldElement x22 = sqr_n(x11, 11) * x11;
  const FieldElement x44 = sqr_n(x22, 22) * x22;
  const FieldElement x88 = sqr_n(x44, 44) * x44;
  const FieldElement x176 = sqr_n(x88, 88) * x88;
  const FieldElement x220 = sqr_n(x176, 44) * x44;
  const FieldElement x223 = sqr_n(x220, 3) * x3;
  FieldElement t = sqr_n(x223, 23) * x22;
  t = sqr_n(t, 6) * x2;
  const FieldElement root = sqr_n(t, 2);
  if (root.sqr() != a) return std::nullopt;
  return root;
}

/// The root of a mod p as an integer, for any 256-bit a.
std::optional<U256> sqrt_mod_p(const U256& a) {
  const auto root = field_sqrt(FieldElement::reduce(a));
  if (!root) return std::nullopt;
  return root->to_u256();
}

/// SEC-1 compressed 33-byte encoding: 0x02/0x03 parity tag + X.
util::Bytes encode_public_compressed(const AffinePoint& pub) {
  util::Bytes out(33);
  out[0] = pub.y.bit(0) ? 0x03 : 0x02;
  pub.x.to_be_bytes(out.data() + 1);
  return out;
}

/// Decompresses; rejects bad tags and X values off the curve.
std::optional<AffinePoint> decode_public_compressed(util::ByteSpan data) {
  if (data.size() != 33) return std::nullopt;
  if (data[0] != 0x02 && data[0] != 0x03) return std::nullopt;
  const auto x = FieldElement::from_canonical(U256::from_be_bytes(data.subspan(1, 32)));
  if (!x) return std::nullopt;
  // y^2 = x^3 + 7; pick the root whose parity matches the tag.
  const auto y = field_sqrt(x->sqr() * *x + FieldElement::from_u64(7));
  if (!y) return std::nullopt;
  const bool want_odd = data[0] == 0x03;
  AffinePoint p;
  p.x = x->to_u256();
  p.y = (y->is_odd() == want_odd ? *y : y->neg()).to_u256();
  p.infinity = false;
  return p;
}

TEST(Secp256k1Ecdsa, DecodePublicRejectsNonCanonicalCoordinates) {
  // (1, y) is on the curve; (1 + p, y) names the same point non-canonically.
  const auto y = sqrt_mod_p(U256{8});
  ASSERT_TRUE(y.has_value());
  const AffinePoint point{U256::one(), *y, false};
  ASSERT_TRUE(decode_public(encode_public(point)).has_value());
  AffinePoint alias = point;
  alias.x = U256::one() + field_prime();
  EXPECT_FALSE(decode_public(encode_public(alias)).has_value());
  EXPECT_FALSE(FieldElement::from_canonical(alias.x).has_value());
  // A y >= p alias (y + p still fits in 256 bits for small y only): the
  // contract is checked directly on the field element.
  EXPECT_FALSE(FieldElement::from_canonical(field_prime()).has_value());
  EXPECT_TRUE(FieldElement::from_canonical(field_prime() - U256::one()).has_value());
}

TEST(Secp256k1Ecdsa, Rfc6979NonceIsStableAndInRange) {
  const U256 d = U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef");
  const Hash256 z = Sha256::digest(util::as_bytes("nonce input"));
  const U256 k1 = rfc6979_nonce(d, z);
  const U256 k2 = rfc6979_nonce(d, z);
  EXPECT_EQ(k1, k2);
  EXPECT_TRUE(is_valid_private_key(k1));
  // Different extra counter gives a different nonce stream.
  EXPECT_NE(rfc6979_nonce(d, z, 1), k1);
}

TEST(Secp256k1Sqrt, RootOfSquareRecoversValue) {
  util::Rng rng(14);
  for (int i = 0; i < 20; ++i) {
    const FieldElement v = rand_fe(rng);
    const auto root = sqrt_mod_p(v.sqr().to_u256());
    ASSERT_TRUE(root.has_value());
    // The root is v or -v.
    EXPECT_TRUE(*root == v.to_u256() || *root == v.neg().to_u256());
  }
}

TEST(Secp256k1Sqrt, NonResidueRejected) {
  // -1 is a non-residue mod p (p ≡ 3 mod 4).
  EXPECT_FALSE(sqrt_mod_p(field_prime() - U256::one()).has_value());
  EXPECT_EQ(sqrt_mod_p(U256::zero()), U256::zero());
}

TEST(Secp256k1Oracle, FieldInverseAndSqrtMatch) {
  util::Rng rng(3);
  const auto& f = oracle::Fp();
  const U256 p = field_prime();
  // Boundary values of F_p, including unreduced ones (>= p), then random
  // full-width values.
  const std::vector<U256> edges = {U256::zero(),
                                   U256::one(),
                                   U256{2},
                                   p - U256::one(),
                                   p - U256{2},
                                   p,
                                   p + U256::one(),
                                   U256::max_value(),
                                   U256::one() << 255,
                                   U256{0x1000003D1ULL},
                                   U256{0xFFFFFFFFFFFFFFFFULL},
                                   p >> 1};
  for (int i = 0; i < 300; ++i) {
    const U256 v = i < static_cast<int>(edges.size())
                       ? edges[static_cast<std::size_t>(i)]
                       : U256{rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
    const FieldElement a = FieldElement::reduce(v);
    if (a.is_zero()) {
      EXPECT_TRUE(a.inv().is_zero());
    } else {
      ASSERT_EQ(a.inv().to_u256(), f.inv(f.reduce(v))) << v.hex();
    }
    const auto root = field_sqrt(a);
    const auto oracle_root = oracle::sqrt_mod_p(v);
    ASSERT_EQ(root.has_value(), oracle_root.has_value()) << v.hex();
    if (root) {
      EXPECT_EQ(root->to_u256(), *oracle_root);
    }
    // Squares always have a root.
    EXPECT_TRUE(field_sqrt(a.sqr()).has_value());
  }
}

TEST(Secp256k1Compressed, RoundTripBothParities) {
  util::Rng rng(15);
  int odd = 0, even = 0;
  for (int i = 0; i < 20; ++i) {
    const AffinePoint pub = derive_public(rand_scalar(rng));
    const util::Bytes compressed = encode_public_compressed(pub);
    ASSERT_EQ(compressed.size(), 33u);
    (pub.y.bit(0) ? odd : even)++;
    const auto decoded = decode_public_compressed(compressed);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, pub);
  }
  EXPECT_GT(odd, 0);   // both parity branches exercised
  EXPECT_GT(even, 0);
}

TEST(Secp256k1Compressed, GeneratorKnownEncoding) {
  // The canonical compressed generator: 02 79BE667E...F81798.
  const util::Bytes compressed = encode_public_compressed(generator());
  EXPECT_EQ(compressed[0], 0x02);
  EXPECT_EQ(util::to_hex(compressed),
            "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
}

TEST(Secp256k1Compressed, RejectsMalformed) {
  util::Bytes bad(33, 0x00);
  bad[0] = 0x05;  // invalid tag
  EXPECT_FALSE(decode_public_compressed(bad).has_value());
  EXPECT_FALSE(decode_public_compressed(util::Bytes(32, 0x02)).has_value());
  // An x with no curve point: find one by trial.
  util::Bytes probe(33, 0x00);
  probe[0] = 0x02;
  probe[32] = 0x05;  // x = 5: x^3+7 = 132, check handled either way
  const auto decoded = decode_public_compressed(probe);
  if (decoded) {
    EXPECT_TRUE(decoded->is_on_curve());
  }
}

// Property sweep: sign/verify round-trips across a seed-parameterised family.
class EcdsaRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EcdsaRoundTrip, Holds) {
  util::Rng rng(GetParam());
  const U256 d = rand_scalar(rng);
  util::Bytes msg;
  rng.fill(msg, 1 + rng.uniform(100));
  const Hash256 z = Sha256::digest(msg);
  const Signature sig = sign(d, z);
  EXPECT_TRUE(verify(derive_public(d), z, sig));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcdsaRoundTrip,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808));

}  // namespace
}  // namespace sc::crypto::secp256k1
