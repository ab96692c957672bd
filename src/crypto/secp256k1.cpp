#include "crypto/secp256k1.hpp"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <vector>

#include "crypto/hmac.hpp"
#include "util/serialize.hpp"

namespace sc::crypto::secp256k1 {

namespace {

using detail::u64;
using detail::u128;
using detail::mul_512;

// Little-endian limbs, constant-initialised (no static-init order hazard).
constexpr U256 kP{0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL};
constexpr U256 kN{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL, 0xFFFFFFFFFFFFFFFEULL,
                  ~0ULL};
constexpr U256 kGx{0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL, 0x55A06295CE870B07ULL,
                   0x79BE667EF9DCBBACULL};
constexpr U256 kGy{0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL, 0x5DA4FBFC0E1108A8ULL,
                   0x483ADA7726A3C465ULL};

/// 2^256 - n, three limbs (129 bits).
constexpr u64 kNC[3] = {0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1};

// -- Scalar (mod n) limb kernels -----------------------------------------------

/// r = t mod n: folds 2^256 ≡ 2^256 - n (three limbs) until the high half
/// vanishes (at most four rounds), then at most one subtract.
U256 scalar_reduce512(const u64 t[8]) {
  u64 acc[8];
  for (int i = 0; i < 8; ++i) acc[i] = t[i];
  while ((acc[4] | acc[5] | acc[6] | acc[7]) != 0) {
    u64 out[8] = {acc[0], acc[1], acc[2], acc[3], 0, 0, 0, 0};
    for (int i = 0; i < 4; ++i) {
      u64 carry = 0;
      for (int j = 0; j < 3; ++j) {
        const u128 cur = static_cast<u128>(acc[4 + i]) * kNC[j] + out[i + j] + carry;
        out[i + j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      for (int k = i + 3; k < 8 && carry != 0; ++k) {
        const u128 cur = static_cast<u128>(out[k]) + carry;
        out[k] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
    }
    for (int i = 0; i < 8; ++i) acc[i] = out[i];
  }
  U256 r{acc[0], acc[1], acc[2], acc[3]};
  if (r >= kN) r = r - kN;
  return r;
}

// Inline 4-limb helpers for the binary inverse.
inline bool limbs_is_one(const u64 a[4]) { return a[0] == 1 && (a[1] | a[2] | a[3]) == 0; }

inline bool limbs_geq(const u64 a[4], const u64 b[4]) {
  for (int i = 3; i >= 0; --i)
    if (a[i] != b[i]) return a[i] > b[i];
  return true;
}

inline u64 limbs_sub(u64 a[4], const u64 b[4]) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

inline u64 limbs_add(u64 a[4], const u64 b[4]) {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 s = static_cast<u128>(a[i]) + b[i] + carry;
    a[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return carry;
}

inline void limbs_shr1(u64 a[4], u64 top) {
  a[0] = (a[0] >> 1) | (a[1] << 63);
  a[1] = (a[1] >> 1) | (a[2] << 63);
  a[2] = (a[2] >> 1) | (a[3] << 63);
  a[3] = (a[3] >> 1) | (top << 63);
}

/// x/2 mod m (m odd, x < m).
inline void half_mod(u64 x[4], const u64 m[4]) {
  u64 top = 0;
  if (x[0] & 1) top = limbs_add(x, m);
  limbs_shr1(x, top);
}

/// a -= b mod m (a, b < m).
inline void sub_mod(u64 a[4], const u64 b[4], const u64 m[4]) {
  if (limbs_sub(a, b)) limbs_add(a, m);
}

// -- Group internals -------------------------------------------------------------

/// Affine point over field elements: the entries of the precomputed tables.
struct Ge {
  FieldElement x;
  FieldElement y;
};

/// P + Q for Jacobian P and affine Q (madd: 8M + 3S).
JacobianPoint add_ge(const JacobianPoint& p, const Ge& q) {
  if (p.is_identity()) return {q.x, q.y, FieldElement::from_u64(1)};
  const FieldElement z1z1 = p.z.sqr();
  const FieldElement u2 = q.x * z1z1;
  const FieldElement s2 = q.y * z1z1 * p.z;
  const FieldElement h = u2 - p.x;
  const FieldElement r = s2 - p.y;
  if (h.is_zero()) {
    if (r.is_zero()) return p.doubled();
    return JacobianPoint::identity();
  }
  const FieldElement h2 = h.sqr();
  const FieldElement h3 = h2 * h;
  const FieldElement u1h2 = p.x * h2;
  const FieldElement x3 = r.sqr() - h3 - (u1h2 + u1h2);
  const FieldElement y3 = r * (u1h2 - x3) - p.y * h3;
  return {x3, y3, p.z * h};
}

Ge neg_ge(const Ge& g) { return {g.x, g.y.neg()}; }

/// Width-w NAF of k (k < n) into zero-initialised `digits`: digits odd or
/// zero, |digit| < 2^(w-1), at most one non-zero digit in any w consecutive
/// positions. Returns the length.
int wnaf(const U256& k, int w, int digits[257]) {
  u64 v[5] = {k.limb[0], k.limb[1], k.limb[2], k.limb[3], 0};
  const int full = 1 << w;
  const int half = full >> 1;
  int len = 0;
  for (int i = 0; (v[0] | v[1] | v[2] | v[3] | v[4]) != 0; ++i) {
    if (v[0] & 1) {
      int d = static_cast<int>(v[0] & static_cast<u64>(full - 1));
      if (d >= half) d -= full;
      digits[i] = d;
      if (d > 0) {
        u64 borrow = static_cast<u64>(d);
        for (int j = 0; j < 5 && borrow != 0; ++j) {
          const u64 before = v[j];
          v[j] -= borrow;
          borrow = v[j] > before ? 1 : 0;
        }
      } else {
        u64 carry = static_cast<u64>(-d);
        for (int j = 0; j < 5 && carry != 0; ++j) {
          v[j] += carry;
          carry = v[j] < carry ? 1 : 0;
        }
      }
      len = i + 1;
    }
    for (int j = 0; j < 4; ++j) v[j] = (v[j] >> 1) | (v[j + 1] << 63);
    v[4] >>= 1;
  }
  return len;
}

constexpr int kWindowG = 8;  ///< wNAF width for G in verify: 64 odd multiples.
constexpr int kWindowQ = 5;  ///< wNAF width for Q in verify: 8 odd multiples.
constexpr int kCombBits = 4;
constexpr int kCombWindows = 256 / kCombBits;
constexpr int kCombEntries = (1 << kCombBits) - 1;

/// The static G tables, built once on first use (thread-safe static init),
/// odd multiples first, then the comb windows:
///   odd(i)        = (2i+1)·G                       for verify's wNAF (4 KB),
///   comb(w, j)    = j·2^(4w)·G, j = 1..15          for k·G (60 KB).
struct GTables {
  static constexpr std::size_t kOdd = 1 << (kWindowG - 2);
  std::array<Ge, kOdd + kCombWindows * kCombEntries> entries;

  const Ge& odd(std::size_t i) const { return entries[i]; }
  const Ge& comb(int w, unsigned j) const {
    return entries[kOdd + static_cast<std::size_t>(w) * kCombEntries + j - 1];
  }

  GTables() {
    // X and Y go straight into the table while Z waits in `zs`; one field
    // inversion (Montgomery's trick) then scales every entry to affine in
    // place, so the build needs no second copy of the table.
    std::vector<FieldElement> zs;
    zs.reserve(entries.size());
    auto put = [&](const JacobianPoint& p) {
      entries[zs.size()] = {p.x, p.y};
      zs.push_back(p.z);
    };
    const JacobianPoint g = JacobianPoint::from_affine(generator());
    const JacobianPoint g2 = g.doubled();
    JacobianPoint cur = g;
    for (std::size_t i = 0; i < kOdd; ++i) {
      put(cur);
      cur = cur.add(g2);
    }
    JacobianPoint base = g;
    for (int w = 0; w < kCombWindows; ++w) {
      JacobianPoint multiple = base;
      for (int j = 0; j < kCombEntries; ++j) {
        put(multiple);
        multiple = multiple.add(base);
      }
      for (int b = 0; b < kCombBits; ++b) base = base.doubled();
    }
    std::vector<FieldElement> prefix(zs.size());
    FieldElement acc = FieldElement::from_u64(1);
    for (std::size_t i = 0; i < zs.size(); ++i) {
      prefix[i] = acc;
      acc = acc * zs[i];
    }
    FieldElement inv = acc.inv();
    for (std::size_t i = zs.size(); i-- > 0;) {
      const FieldElement zinv = inv * prefix[i];
      inv = inv * zs[i];
      const FieldElement zinv2 = zinv.sqr();
      entries[i] = {entries[i].x * zinv2, entries[i].y * zinv2 * zinv};
    }
  }
};

const GTables& g_tables() {
  static const GTables tables;
  return tables;
}

}  // namespace

const U256& field_prime() { return kP; }
const U256& group_order() { return kN; }

// -- FieldElement ----------------------------------------------------------------

std::optional<FieldElement> FieldElement::from_canonical(const U256& v) {
  if (v >= kP) return std::nullopt;
  return FieldElement(v.limb[0], v.limb[1], v.limb[2], v.limb[3]);
}

namespace {

FieldElement sqr_n(FieldElement a, int n) {
  for (int i = 0; i < n; ++i) a = a.sqr();
  return a;
}

/// x_k = a^(2^k - 1) for the block lengths the exponent chains need.
struct PowerBlocks {
  FieldElement x2, x3, x22, x223;

  explicit PowerBlocks(const FieldElement& a) {
    x2 = a.sqr() * a;
    x3 = x2.sqr() * a;
    const FieldElement x6 = sqr_n(x3, 3) * x3;
    const FieldElement x9 = sqr_n(x6, 3) * x3;
    const FieldElement x11 = sqr_n(x9, 2) * x2;
    x22 = sqr_n(x11, 11) * x11;
    const FieldElement x44 = sqr_n(x22, 22) * x22;
    const FieldElement x88 = sqr_n(x44, 44) * x44;
    const FieldElement x176 = sqr_n(x88, 88) * x88;
    const FieldElement x220 = sqr_n(x176, 44) * x44;
    x223 = sqr_n(x220, 3) * x3;
  }
};

}  // namespace

FieldElement FieldElement::inv() const {
  // p - 2 has blocks of ones of lengths 223, 22, 1, 2, 1 (high to low):
  // 223 ones, 0, 22 ones, 0000, 1, 0, 11, 0, 1.
  const PowerBlocks b(*this);
  FieldElement t = sqr_n(b.x223, 23) * b.x22;
  t = sqr_n(t, 5) * *this;
  t = sqr_n(t, 3) * b.x2;
  return sqr_n(t, 2) * *this;
}

std::optional<FieldElement> FieldElement::sqrt() const {
  // (p + 1) / 4 = 223 ones, 0, 22 ones, 000000, 11, 00.
  const PowerBlocks b(*this);
  FieldElement t = sqr_n(b.x223, 23) * b.x22;
  t = sqr_n(t, 6) * b.x2;
  const FieldElement root = sqr_n(t, 2);
  if (root.sqr() != *this) return std::nullopt;
  return root;
}

// -- Scalar ------------------------------------------------------------------------

Scalar Scalar::reduce(const U256& v) {
  Scalar s;
  s.v_ = v >= kN ? v - kN : v;  // 2n > 2^256: one subtract suffices
  return s;
}

Scalar Scalar::operator+(const Scalar& o) const {
  Scalar s;
  const bool carry = U256::add_with_carry(v_, o.v_, s.v_);
  // With a carry the true sum is 2^256 + s.v_ >= n; 2^256 - n + s.v_ is it
  // minus n, and the wrapping subtract computes exactly that.
  if (carry || s.v_ >= kN) s.v_ = s.v_ - kN;
  return s;
}

Scalar Scalar::operator*(const Scalar& o) const {
  u64 t[8];
  mul_512(v_.limb, o.v_.limb, t);
  Scalar s;
  s.v_ = scalar_reduce512(t);
  return s;
}

Scalar Scalar::neg() const {
  Scalar s;
  if (!v_.is_zero()) s.v_ = kN - v_;
  return s;
}

Scalar Scalar::inv() const {
  if (v_.is_zero()) return {};
  // Binary extended Euclid: invariants x1·a ≡ u and x2·a ≡ v (mod n).
  u64 u[4] = {v_.limb[0], v_.limb[1], v_.limb[2], v_.limb[3]};
  u64 v[4] = {kN.limb[0], kN.limb[1], kN.limb[2], kN.limb[3]};
  u64 x1[4] = {1, 0, 0, 0};
  u64 x2[4] = {0, 0, 0, 0};
  const u64* m = kN.limb;
  while (!limbs_is_one(u) && !limbs_is_one(v)) {
    while ((u[0] & 1) == 0) {
      limbs_shr1(u, 0);
      half_mod(x1, m);
    }
    while ((v[0] & 1) == 0) {
      limbs_shr1(v, 0);
      half_mod(x2, m);
    }
    if (limbs_geq(u, v)) {
      limbs_sub(u, v);
      sub_mod(x1, x2, m);
    } else {
      limbs_sub(v, u);
      sub_mod(x2, x1, m);
    }
  }
  const u64* r = limbs_is_one(u) ? x1 : x2;
  Scalar s;
  s.v_ = U256{r[0], r[1], r[2], r[3]};
  return s;
}

// -- Points --------------------------------------------------------------------------

bool AffinePoint::is_on_curve() const {
  if (infinity) return true;
  const auto fx = FieldElement::from_canonical(x);
  const auto fy = FieldElement::from_canonical(y);
  if (!fx || !fy) return false;
  return fy->sqr() == fx->sqr() * *fx + FieldElement::from_u64(7);
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return identity();
  return {FieldElement::reduce(p.x), FieldElement::reduce(p.y), FieldElement::from_u64(1)};
}

AffinePoint JacobianPoint::to_affine() const {
  if (is_identity()) return {U256::zero(), U256::zero(), true};
  const FieldElement zinv = z.inv();
  const FieldElement zinv2 = zinv.sqr();
  return {(x * zinv2).to_u256(), (y * zinv2 * zinv).to_u256(), false};
}

JacobianPoint JacobianPoint::doubled() const {
  if (is_identity()) return *this;
  if (y.is_zero()) return identity();
  // dbl-2009-l for a=0 (2M + 5S): A = X^2, B = Y^2, C = B^2,
  // D = 2((X+B)^2 - A - C), E = 3A, X' = E^2 - 2D, Y' = E(D - X') - 8C,
  // Z' = 2YZ. Small-constant multiples are additions.
  const FieldElement a = x.sqr();
  const FieldElement b = y.sqr();
  const FieldElement c = b.sqr();
  FieldElement d = (x + b).sqr() - a - c;
  d = d + d;
  const FieldElement e = a + a + a;
  const FieldElement x3 = e.sqr() - (d + d);
  FieldElement c8 = c + c;
  c8 = c8 + c8;
  c8 = c8 + c8;
  const FieldElement y3 = e * (d - x3) - c8;
  const FieldElement yz = y * z;
  return {x3, y3, yz + yz};
}

JacobianPoint JacobianPoint::add(const JacobianPoint& o) const {
  if (is_identity()) return o;
  if (o.is_identity()) return *this;
  const FieldElement z1z1 = z.sqr();
  const FieldElement z2z2 = o.z.sqr();
  const FieldElement u1 = x * z2z2;
  const FieldElement u2 = o.x * z1z1;
  const FieldElement s1 = y * z2z2 * o.z;
  const FieldElement s2 = o.y * z1z1 * z;
  if (u1 == u2) {
    if (s1 == s2) return doubled();
    return identity();
  }
  const FieldElement h = u2 - u1;
  const FieldElement r = s2 - s1;
  const FieldElement h2 = h.sqr();
  const FieldElement h3 = h2 * h;
  const FieldElement u1h2 = u1 * h2;
  const FieldElement x3 = r.sqr() - h3 - (u1h2 + u1h2);
  const FieldElement y3 = r * (u1h2 - x3) - s1 * h3;
  return {x3, y3, h * z * o.z};
}

JacobianPoint JacobianPoint::add_affine(const AffinePoint& o) const {
  if (o.infinity) return *this;
  return add_ge(*this, {FieldElement::reduce(o.x), FieldElement::reduce(o.y)});
}

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) {
  return double_scalar_mul(U256::zero(), k, p);
}

JacobianPoint scalar_mul_base(const U256& k) {
  const U256 v = Scalar::reduce(k).to_u256();
  const GTables& t = g_tables();
  JacobianPoint acc = JacobianPoint::identity();
  for (int w = 0; w < kCombWindows; ++w) {
    const unsigned digit =
        static_cast<unsigned>(v.limb[w / 16] >> ((w % 16) * kCombBits)) & kCombEntries;
    if (digit != 0) acc = add_ge(acc, t.comb(w, digit));
  }
  return acc;
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& q) {
  int dg[257] = {};
  int dq[257] = {};
  const int len_g = wnaf(Scalar::reduce(u1).to_u256(), kWindowG, dg);
  const int len_q = q.infinity ? 0 : wnaf(Scalar::reduce(u2).to_u256(), kWindowQ, dq);
  const int len = std::max(len_g, len_q);

  // Odd multiples Q, 3Q, ..., 15Q, left in Jacobian form (no inversion).
  std::array<JacobianPoint, (1 << (kWindowQ - 2))> q_odd;
  if (len_q > 0) {
    q_odd[0] = JacobianPoint::from_affine(q);
    const JacobianPoint q2 = q_odd[0].doubled();
    for (std::size_t i = 1; i < q_odd.size(); ++i) q_odd[i] = q_odd[i - 1].add(q2);
  }
  const GTables& t = g_tables();

  JacobianPoint r = JacobianPoint::identity();
  for (int i = len - 1; i >= 0; --i) {
    r = r.doubled();
    if (i < len_q && dq[i] != 0) {
      const JacobianPoint& m = q_odd[static_cast<std::size_t>(std::abs(dq[i]) / 2)];
      r = r.add(dq[i] > 0 ? m : JacobianPoint{m.x, m.y.neg(), m.z});
    }
    if (i < len_g && dg[i] != 0) {
      const Ge& m = t.odd(static_cast<std::size_t>(std::abs(dg[i]) / 2));
      r = add_ge(r, dg[i] > 0 ? m : neg_ge(m));
    }
  }
  return r;
}

bool x_mod_n_equals(const JacobianPoint& p, const U256& r) {
  // x = X/Z^2 lies in [0, p); x mod n == r (r < n) iff x == r or, when
  // r + n < p, x == r + n.
  const FieldElement zz = p.z.sqr();
  if (FieldElement::reduce(r) * zz == p.x) return true;
  U256 r_plus_n;
  if (U256::add_with_carry(r, kN, r_plus_n) || r_plus_n >= kP) return false;
  return FieldElement::reduce(r_plus_n) * zz == p.x;
}

util::Bytes Signature::encode() const {
  util::Bytes out(64);
  r.to_be_bytes(out.data());
  s.to_be_bytes(out.data() + 32);
  return out;
}

std::optional<Signature> Signature::decode(util::ByteSpan data) {
  if (data.size() != 64) return std::nullopt;
  Signature sig;
  sig.r = U256::from_be_bytes(data.subspan(0, 32));
  sig.s = U256::from_be_bytes(data.subspan(32, 32));
  return sig;
}

bool is_valid_private_key(const U256& d) { return !d.is_zero() && d < kN; }

AffinePoint derive_public(const U256& d) { return scalar_mul_base(d).to_affine(); }

U256 rfc6979_nonce(const U256& d, const Hash256& z, std::uint32_t extra) {
  // RFC 6979 §3.2 with SHA-256. qlen == hlen == 256 bits, so bits2int is the
  // identity and bits2octets is reduction mod n.
  std::uint8_t d_oct[32];
  d.to_be_bytes(d_oct);
  const U256 z_mod_n = Scalar::reduce(U256::from_hash(z)).to_u256();
  std::uint8_t z_oct[32];
  z_mod_n.to_be_bytes(z_oct);

  Hash256 v_hash;
  Hash256 k_hash;
  v_hash.bytes.fill(0x01);
  k_hash.bytes.fill(0x00);

  auto build = [&](std::uint8_t sep) {
    util::Writer w;
    w.raw(v_hash.span());
    w.u8(sep);
    w.raw({d_oct, 32});
    w.raw({z_oct, 32});
    // `extra` gives distinct nonce streams when a retry is needed (never in
    // practice for secp256k1, but required for completeness).
    if (extra != 0) {
      std::uint8_t e[4] = {
          static_cast<std::uint8_t>(extra >> 24), static_cast<std::uint8_t>(extra >> 16),
          static_cast<std::uint8_t>(extra >> 8), static_cast<std::uint8_t>(extra)};
      w.raw({e, 4});
    }
    return std::move(w).take();
  };

  k_hash = hmac_sha256(k_hash.span(), build(0x00));
  v_hash = hmac_sha256(k_hash.span(), v_hash.span());
  k_hash = hmac_sha256(k_hash.span(), build(0x01));
  v_hash = hmac_sha256(k_hash.span(), v_hash.span());

  for (;;) {
    v_hash = hmac_sha256(k_hash.span(), v_hash.span());
    const U256 k = U256::from_hash(v_hash);
    if (is_valid_private_key(k)) return k;
    const util::Bytes retry = util::concat({v_hash.span(), util::ByteSpan{}});
    util::Bytes retry_msg = retry;
    retry_msg.push_back(0x00);
    k_hash = hmac_sha256(k_hash.span(), retry_msg);
    v_hash = hmac_sha256(k_hash.span(), v_hash.span());
  }
}

Signature sign(const U256& d, const Hash256& z) {
  const Scalar z_scalar = Scalar::reduce(U256::from_hash(z));
  const Scalar d_scalar = Scalar::reduce(d);
  for (std::uint32_t attempt = 0;; ++attempt) {
    const U256 k = rfc6979_nonce(d, z, attempt);
    const AffinePoint point = scalar_mul_base(k).to_affine();
    const Scalar r = Scalar::reduce(point.x);
    if (r.is_zero()) continue;
    U256 s = (Scalar::reduce(k).inv() * (z_scalar + r * d_scalar)).to_u256();
    if (s.is_zero()) continue;
    // Low-s normalisation: (r, s) and (r, n-s) are both valid; pick the
    // canonical one so signatures are unique (malleability defence).
    Signature sig{r.to_u256(), s};
    if (!sig.is_low_s()) sig.s = kN - s;
    return sig;
  }
}

bool Signature::is_low_s() const { return s <= (kN >> 1); }

bool verify(const AffinePoint& pub, const Hash256& z, const Signature& sig) {
  if (pub.infinity || !pub.is_on_curve()) return false;
  if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) return false;
  const Scalar w = Scalar::reduce(sig.s).inv();
  const Scalar u1 = Scalar::reduce(U256::from_hash(z)) * w;
  const Scalar u2 = Scalar::reduce(sig.r) * w;
  const JacobianPoint sum = double_scalar_mul(u1.to_u256(), u2.to_u256(), pub);
  if (sum.is_identity()) return false;
  return x_mod_n_equals(sum, sig.r);
}

util::Bytes encode_public(const AffinePoint& pub) {
  util::Bytes out(64);
  pub.x.to_be_bytes(out.data());
  pub.y.to_be_bytes(out.data() + 32);
  return out;
}

std::optional<AffinePoint> decode_public(util::ByteSpan data) {
  if (data.size() != 64) return std::nullopt;
  AffinePoint p;
  p.x = U256::from_be_bytes(data.subspan(0, 32));
  p.y = U256::from_be_bytes(data.subspan(32, 32));
  p.infinity = false;
  if (!p.is_on_curve()) return std::nullopt;  // also rejects x or y >= p
  return p;
}

std::optional<U256> sqrt_mod_p(const U256& a) {
  const auto root = FieldElement::reduce(a).sqrt();
  if (!root) return std::nullopt;
  return root->to_u256();
}

util::Bytes encode_public_compressed(const AffinePoint& pub) {
  util::Bytes out(33);
  out[0] = pub.y.bit(0) ? 0x03 : 0x02;
  pub.x.to_be_bytes(out.data() + 1);
  return out;
}

std::optional<AffinePoint> decode_public_compressed(util::ByteSpan data) {
  if (data.size() != 33) return std::nullopt;
  if (data[0] != 0x02 && data[0] != 0x03) return std::nullopt;
  const auto x = FieldElement::from_canonical(U256::from_be_bytes(data.subspan(1, 32)));
  if (!x) return std::nullopt;
  // y^2 = x^3 + 7; pick the root whose parity matches the tag.
  const auto y = (x->sqr() * *x + FieldElement::from_u64(7)).sqrt();
  if (!y) return std::nullopt;
  const bool want_odd = data[0] == 0x03;
  AffinePoint p;
  p.x = x->to_u256();
  p.y = (y->is_odd() == want_odd ? *y : y->neg()).to_u256();
  p.infinity = false;
  return p;
}

}  // namespace sc::crypto::secp256k1
