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

// The endomorphism λ·(x, y) = (β·x, y): λ is a cube root of unity mod n, β
// one mod p.
constexpr U256 kLambda{0xDF02967C1B23BD72ULL, 0x122E22EA20816678ULL, 0xA5261C028812645AULL,
                       0x5363AD4CC05C30E0ULL};
constexpr U256 kBeta{0xC1396C28719501EEULL, 0x9CF0497512F58995ULL, 0x6E64479EAC3434E9ULL,
                     0x7AE96A2B657C0710ULL};

// -- Scalar (mod n) limb kernels -----------------------------------------------

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

// -- Modular inverse: Bernstein–Yang divsteps, variable time ----------------------

/// A signed integer on five 62-bit limbs: limbs 0-3 in (-2^62, 2^62), the sign
/// in the top limb.
struct Signed62 {
  std::int64_t v[5];
};

/// A modulus of the divsteps inverse: its signed-62 form and its inverse
/// modulo 2^62.
struct ModInfo {
  Signed62 m;
  u64 m_inv62;
};

/// 2^62 times the matrix of 62 divsteps: [f', g'] = t·[f, g] / 2^62.
struct Trans2x2 {
  std::int64_t u, v, q, r;
};

using i128 = __int128;
constexpr u64 kM62 = ~0ULL >> 2;

/// m^-1 mod 2^62 for odd m by Newton's iteration (3, 6, ..., 96 correct bits).
constexpr u64 inv_mod_2_62(u64 m) {
  u64 x = m;
  for (int i = 0; i < 5; ++i) x *= 2 - m * x;
  return x & kM62;
}

// The moduli in sparse signed-62 form (zero limbs skip their products):
// p = -0x1000003D1 + 256·2^248 and
// n = 0x3FD25E8CD0364141 + 0x2ABB739ABD2280EE·2^62 - 0x15·2^124 + 256·2^248.
constexpr ModInfo kFieldMod{{{-0x1000003D1LL, 0, 0, 0, 256}}, inv_mod_2_62(kP.limb[0])};
constexpr ModInfo kScalarMod{{{0x3FD25E8CD0364141LL, 0x2ABB739ABD2280EELL, -0x15LL, 0, 256}},
                             inv_mod_2_62(kN.limb[0])};

/// 62 divsteps on the low bits of f and g (f odd), a run of zero bits of g at
/// a time; returns the new eta = -delta.
std::int64_t divsteps_62(std::int64_t eta, u64 f0, u64 g0, Trans2x2& t) {
  u64 u = 1, v = 0, q = 0, r = 1;
  u64 f = f0, g = g0;
  int i = 62;
  for (;;) {
    // The sentinel bit stops the count at the i divsteps still to do; each
    // zero bit of g is one divstep that halves g.
    const int zeros = __builtin_ctzll(g | (~0ULL << i));
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    eta -= zeros;
    i -= zeros;
    if (i == 0) break;
    // f and g are odd here. With eta < 0 the step swaps (f, g) to (g, -f).
    u64 w;
    const int limit = static_cast<int>(std::min<std::int64_t>(eta < 0 ? -eta + 1 : eta + 1, i));
    if (eta < 0) {
      eta = -eta;
      g = 0 - std::exchange(f, g);
      q = 0 - std::exchange(u, q);
      r = 0 - std::exchange(v, r);
      // The multiple of f that cancels the bottom min(limit, 6) bits of g.
      const u64 m = (~0ULL >> (64 - limit)) & 63U;
      w = (f * g * (f * f - 2)) & m;
    } else {
      // eta tends to be small here: cancel min(limit, 4) bits.
      const u64 m = (~0ULL >> (64 - limit)) & 15U;
      w = f + (((f + 1) & 4) << 1);
      w = (0 - w * g) & m;
    }
    g += f * w;
    q += u * w;
    r += v * w;
  }
  t = {static_cast<std::int64_t>(u), static_cast<std::int64_t>(v),
       static_cast<std::int64_t>(q), static_cast<std::int64_t>(r)};
  return eta;
}

/// [d, e] = t·[d, e] / 2^62 mod m, adding the multiples of m that make the
/// division exact. d and e stay in (-2m, m).
void update_de(Signed62& d, Signed62& e, const Trans2x2& t, const ModInfo& mod) {
  const std::int64_t sd = d.v[4] >> 63;
  const std::int64_t se = e.v[4] >> 63;
  // Start from m·[u, q] for a negative d and m·[v, r] for a negative e, so
  // the result cannot go below -2m; then fix the bottom 62 bits to zero.
  std::int64_t md = (t.u & sd) + (t.v & se);
  std::int64_t me = (t.q & sd) + (t.r & se);
  i128 cd = static_cast<i128>(t.u) * d.v[0] + static_cast<i128>(t.v) * e.v[0];
  i128 ce = static_cast<i128>(t.q) * d.v[0] + static_cast<i128>(t.r) * e.v[0];
  const auto fix = [&](i128 c, std::int64_t m) {
    return m - static_cast<std::int64_t>((mod.m_inv62 * static_cast<u64>(c) + static_cast<u64>(m)) &
                                         kM62);
  };
  md = fix(cd, md);
  me = fix(ce, me);
  cd += static_cast<i128>(mod.m.v[0]) * md;
  ce += static_cast<i128>(mod.m.v[0]) * me;
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t.u) * d.v[i] + static_cast<i128>(t.v) * e.v[i];
    ce += static_cast<i128>(t.q) * d.v[i] + static_cast<i128>(t.r) * e.v[i];
    if (mod.m.v[i] != 0) {
      cd += static_cast<i128>(mod.m.v[i]) * md;
      ce += static_cast<i128>(mod.m.v[i]) * me;
    }
    d.v[i - 1] = static_cast<std::int64_t>(static_cast<u64>(cd) & kM62);
    e.v[i - 1] = static_cast<std::int64_t>(static_cast<u64>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<std::int64_t>(cd);
  e.v[4] = static_cast<std::int64_t>(ce);
}

/// [f, g] = t·[f, g] / 2^62 (exact) over the low `len` limbs.
void update_fg(int len, Signed62& f, Signed62& g, const Trans2x2& t) {
  i128 cf = static_cast<i128>(t.u) * f.v[0] + static_cast<i128>(t.v) * g.v[0];
  i128 cg = static_cast<i128>(t.q) * f.v[0] + static_cast<i128>(t.r) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < len; ++i) {
    cf += static_cast<i128>(t.u) * f.v[i] + static_cast<i128>(t.v) * g.v[i];
    cg += static_cast<i128>(t.q) * f.v[i] + static_cast<i128>(t.r) * g.v[i];
    f.v[i - 1] = static_cast<std::int64_t>(static_cast<u64>(cf) & kM62);
    g.v[i - 1] = static_cast<std::int64_t>(static_cast<u64>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[len - 1] = static_cast<std::int64_t>(cf);
  g.v[len - 1] = static_cast<std::int64_t>(cg);
}

/// r = a^-1 mod m for a < m (variable time; zero maps to zero). Bernstein–Yang
/// "Fast constant-time gcd computation and modular inversion" in its
/// variable-time form: f = m, g = a, and batches of 62 divsteps until g = 0;
/// d tracks f·a^-1 mod m, so at the end a^-1 = ±d with f = ±1.
void modinv(const u64 a[4], const ModInfo& mod, u64 r[4]) {
  Signed62 d{{0, 0, 0, 0, 0}};
  Signed62 e{{1, 0, 0, 0, 0}};
  Signed62 f = mod.m;
  Signed62 g{{static_cast<std::int64_t>(a[0] & kM62),
              static_cast<std::int64_t>(((a[0] >> 62) | (a[1] << 2)) & kM62),
              static_cast<std::int64_t>(((a[1] >> 60) | (a[2] << 4)) & kM62),
              static_cast<std::int64_t>(((a[2] >> 58) | (a[3] << 6)) & kM62),
              static_cast<std::int64_t>(a[3] >> 56)}};
  int len = 5;
  std::int64_t eta = -1;  // delta = 1
  for (;;) {
    Trans2x2 t;
    eta = divsteps_62(eta, static_cast<u64>(f.v[0]), static_cast<u64>(g.v[0]), t);
    update_de(d, e, t, mod);
    update_fg(len, f, g, t);
    if (g.v[0] == 0) {
      std::int64_t rest = 0;
      for (int j = 1; j < len; ++j) rest |= g.v[j];
      if (rest == 0) break;
    }
    // Drop the top limb once it is only a sign (0 or -1) in both f and g,
    // folding it into the limb below.
    const std::int64_t fn = f.v[len - 1];
    const std::int64_t gn = g.v[len - 1];
    if (len > 1 && (fn ^ (fn >> 63)) == 0 && (gn ^ (gn >> 63)) == 0) {
      f.v[len - 2] += static_cast<std::int64_t>(static_cast<u64>(fn) << 62);
      g.v[len - 2] += static_cast<std::int64_t>(static_cast<u64>(gn) << 62);
      --len;
    }
  }
  // d in (-2m, m) to [0, m): add m if negative, negate if f = -1, then add m
  // again if still negative, carrying between limbs after each step.
  const std::int64_t negate = f.v[len - 1] >> 63;
  auto carry = [&] {
    for (int i = 0; i < 4; ++i) {
      d.v[i + 1] += d.v[i] >> 62;
      d.v[i] &= static_cast<std::int64_t>(kM62);
    }
  };
  auto add_m_if_negative = [&] {
    const std::int64_t neg = d.v[4] >> 63;
    for (int i = 0; i < 5; ++i) d.v[i] += mod.m.v[i] & neg;
  };
  add_m_if_negative();
  for (int i = 0; i < 5; ++i) d.v[i] = (d.v[i] ^ negate) - negate;
  carry();
  add_m_if_negative();
  carry();
  const auto l = [&](int i) { return static_cast<u64>(d.v[i]); };
  r[0] = l(0) | (l(1) << 62);
  r[1] = (l(1) >> 2) | (l(2) << 60);
  r[2] = (l(2) >> 4) | (l(3) << 58);
  r[3] = (l(3) >> 6) | (l(4) << 56);
}

// -- Group internals -------------------------------------------------------------

/// Affine point over field elements: the entries of the per-call Q tables.
struct Ge {
  FieldElement x;
  FieldElement y;
};

/// An affine point as two fully reduced 4×64 coordinates, 64 bytes instead of
/// Ge's 80: the form of the static G tables, unpacked at lookup.
struct PackedGe {
  U256 x;
  U256 y;
};

Ge unpack(const PackedGe& g) { return {FieldElement::reduce(g.x), FieldElement::reduce(g.y)}; }
Ge unpack(const Ge& g) { return g; }

/// P + Q for Jacobian P (not the identity) and affine Q (madd: 8M + 3S).
/// `az` brings Q into P's coordinates: P's own Z, or P's Z times s when P
/// lies on the curve scaled by s, (x, y) -> (s²x, s³y), and Q does not. The
/// sum's Z is P's times h, stored in *zr when asked for.
[[gnu::always_inline]] inline JacobianPoint madd(const JacobianPoint& p, const Ge& q,
                                                 const FieldElement& az,
                                                 FieldElement* zr = nullptr) {
  const FieldElement z1z1 = az.sqr();
  const FieldElement u2 = q.x * z1z1;
  const FieldElement s2 = q.y * z1z1 * az;
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
  if (zr != nullptr) *zr = h;
  return {x3, y3, p.z * h};
}

/// P + Q for Jacobian P and affine Q.
JacobianPoint add_ge(const JacobianPoint& p, const Ge& q) {
  if (p.is_identity()) return {q.x, q.y, FieldElement::from_u64(1)};
  return madd(p, q, p.z);
}

/// P + Q for P on the curve scaled by s and Q on the real curve (one
/// multiplication more than add_ge).
JacobianPoint add_ge_scaled(const JacobianPoint& p, const Ge& q, const FieldElement& s) {
  if (p.is_identity()) {
    const FieldElement s2 = s.sqr();
    return {q.x * s2, q.y * s2 * s, FieldElement::from_u64(1)};
  }
  return madd(p, q, p.z * s);
}

Ge neg_ge(const Ge& g) { return {g.x, g.y.neg()}; }

/// Digits of a wNAF over a magnitude below 2^128: at most 129.
constexpr int kHalfDigits = 129;

/// Width-w NAF of a split half into zero-initialised `digits`: digits odd or
/// zero, |digit| < 2^(w-1), at most one non-zero digit in any w consecutive
/// positions, negated when the half is negative (above n/2, i.e. n - |half|
/// with |half| < 2^128). Returns the length.
int wnaf(const Scalar& half, int w, int digits[kHalfDigits]) {
  const bool negative = half.to_u256() > (kN >> 1);
  const U256 mag = negative ? half.neg().to_u256() : half.to_u256();
  u64 v[3] = {mag.limb[0], mag.limb[1], 0};
  const int full = 1 << w;
  const int sign = negative ? -1 : 1;
  int len = 0;
  for (int i = 0; (v[0] | v[1] | v[2]) != 0; ++i) {
    if (v[0] & 1) {
      int d = static_cast<int>(v[0] & static_cast<u64>(full - 1));
      if (d >= full >> 1) d -= full;
      digits[i] = sign * d;
      if (d > 0) {
        v[0] -= static_cast<u64>(d);  // d is v's low bits: no borrow
      } else {
        v[0] += static_cast<u64>(-d);
        if (v[0] < static_cast<u64>(-d) && ++v[1] == 0) ++v[2];
      }
      len = i + 1;
    }
    v[0] = (v[0] >> 1) | (v[1] << 63);
    v[1] = (v[1] >> 1) | (v[2] << 63);
    v[2] >>= 1;
  }
  return len;
}

constexpr int kWindowG = 10;  ///< wNAF width for G and λG in verify: 256 odd multiples each.
constexpr int kWindowQ = 5;   ///< wNAF width for Q in verify: 8 odd multiples.
constexpr int kCombBits = 7;  ///< Signed digit width of k·G's fixed-base table.
/// Windows of the signed recoding: a digit's carry can reach bit 256, so they
/// must cover 257 bits.
constexpr int kCombWindows = (257 + kCombBits - 1) / kCombBits;
constexpr int kCombEntries = 1 << (kCombBits - 1);  ///< Digits 1..2^(b-1); negatives by y -> -y.

/// Affine forms of n Jacobian points, none the identity, with one field
/// inversion (Montgomery's trick); `out` holds the prefix products of Z on
/// the way forward.
void batch_to_affine(const JacobianPoint* in, Ge* out, std::size_t n) {
  FieldElement acc = FieldElement::from_u64(1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].x = acc;
    acc = acc * in[i].z;
  }
  FieldElement inv = acc.inv();
  for (std::size_t i = n; i-- > 0;) {
    const FieldElement zinv = inv * out[i].x;
    inv = inv * in[i].z;
    const FieldElement zinv2 = zinv.sqr();
    out[i] = {in[i].x * zinv2, in[i].y * zinv2 * zinv};
  }
}

/// The static G tables (180 KB of packed entries), built once on first use
/// (thread-safe static init):
///   odd[i]        = (2i+1)·G                       for verify's wNAF (16 KB),
///   lambda_odd[i] = (2i+1)·λG = (β·x, y) of odd[i] for the split's λ half (16 KB),
///   comb[w][j-1]  = j·2^(7w)·G, j = 1..64          for k·G's signed digits (148 KB).
struct GTables {
  static constexpr std::size_t kOdd = 1 << (kWindowG - 2);
  std::array<PackedGe, kOdd> odd;
  std::array<PackedGe, kOdd> lambda_odd;
  std::array<std::array<PackedGe, kCombEntries>, kCombWindows> comb;

  GTables() {
    // Each row is a run of mixed adds of one affine point, brought to affine
    // by one batch inversion, then packed.
    constexpr std::size_t kRow = std::max<std::size_t>(kOdd, kCombEntries);
    std::vector<JacobianPoint> row(kRow);
    std::vector<Ge> affine(kRow);
    const auto run = [&](const Ge& first, const Ge& step, std::size_t n, PackedGe* out) {
      row[0] = {first.x, first.y, FieldElement::from_u64(1)};
      for (std::size_t i = 1; i < n; ++i) row[i] = madd(row[i - 1], step, row[i - 1].z);
      batch_to_affine(row.data(), affine.data(), n);
      for (std::size_t i = 0; i < n; ++i) out[i] = {affine[i].x.to_u256(), affine[i].y.to_u256()};
    };
    const auto doubled = [](const Ge& p) {
      const JacobianPoint j{p.x, p.y, FieldElement::from_u64(1)};
      const AffinePoint a = j.doubled().to_affine();
      return Ge{FieldElement::reduce(a.x), FieldElement::reduce(a.y)};
    };
    const Ge g{FieldElement::reduce(kGx), FieldElement::reduce(kGy)};
    run(g, doubled(g), kOdd, odd.data());
    const FieldElement beta = FieldElement::reduce(kBeta);
    for (std::size_t i = 0; i < kOdd; ++i)
      lambda_odd[i] = {(beta * FieldElement::reduce(odd[i].x)).to_u256(), odd[i].y};
    // Row w's base is 2^(bw)·G: twice the last entry of row w - 1.
    Ge base = g;
    for (auto& window : comb) {
      run(base, base, kCombEntries, window.data());
      base = doubled(unpack(window.back()));
    }
  }
};

// Every touched table byte shows in a short-lived process's peak RSS.
static_assert(sizeof(GTables) <= 192 * 1024, "static G tables over their 192 KB budget");

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
  return reduce(v);
}

U256 FieldElement::to_u256() const {
  // After a weak normalization the value is below 2p. It is >= p when it
  // reached 2^256, or when limbs 1-4 read p's and limb 0 at least p's;
  // subtracting p then is adding 2^256 - p and dropping bit 256.
  using detail::kM48;
  using detail::kM52;
  u64 t[5] = {n_[0], n_[1], n_[2], n_[3], n_[4]};
  detail::fe_normalize_weak(t);
  const u64 ge_p = (t[4] >> 48) | ((t[4] == kM48) & ((t[1] & t[2] & t[3]) == kM52) &
                                   (t[0] >= detail::kP0));
  t[0] += ge_p * detail::kFold;
  for (int i = 0; i < 4; ++i) {
    t[i + 1] += t[i] >> 52;
    t[i] &= kM52;
  }
  // Bit 256 (limb 4's bit 48) falls off the top in the shift below.
  return {t[0] | (t[1] << 52), (t[1] >> 12) | (t[2] << 40), (t[2] >> 24) | (t[3] << 28),
          (t[3] >> 36) | (t[4] << 16)};
}

FieldElement FieldElement::inv() const {
  U256 r;
  modinv(to_u256().limb, kFieldMod, r.limb);
  return reduce(r);
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
  Scalar s;
  modinv(v_.limb, kScalarMod, s.v_.limb);
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
  // Signed b-bit digits: a window reading more than 2^(b-1) becomes its value
  // minus 2^b and carries one into the next window.
  const U256 v = Scalar::reduce(k).to_u256();
  const GTables& t = g_tables();
  JacobianPoint acc = JacobianPoint::identity();
  int carry = 0;
  for (int w = 0; w < kCombWindows; ++w) {
    const int bit = w * kCombBits;
    u64 bits = v.limb[bit / 64] >> (bit % 64);
    if (bit % 64 + kCombBits > 64 && bit / 64 < 3)
      bits |= v.limb[bit / 64 + 1] << (64 - bit % 64);
    const int raw = static_cast<int>(bits & ((1U << kCombBits) - 1)) + carry;
    carry = raw > kCombEntries;
    const int digit = raw - (carry << kCombBits);
    if (digit > 0) acc = add_ge(acc, unpack(t.comb[w][digit - 1]));
    if (digit < 0) acc = add_ge(acc, neg_ge(unpack(t.comb[w][-digit - 1])));
  }
  return acc;
}

std::pair<Scalar, Scalar> split_lambda(const Scalar& k) {
  // c1 = round(k·g1 / 2^384), c2 = round(k·g2 / 2^384) estimate k's
  // coordinates in the lattice basis {(a1, b1), (a2, b2)} of the kernel of
  // (i, j) -> i + λ·j; k2 = -(c1·b1 + c2·b2) and k1 = k - λ·k2 then lie in
  // (-2^128, 2^128) (GLV, CRYPTO 2001; constants from libsecp256k1).
  static constexpr U256 kG1{0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL, 0xE86C90E49284EB15ULL,
                            0x3086D221A7D46BCDULL};
  static constexpr U256 kG2{0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL, 0x6F547FA90ABFE4C4ULL,
                            0xE4437ED6010E8828ULL};
  static constexpr U256 kMinusB1{0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL, 0, 0};
  static constexpr U256 kMinusB2{0xD765CDA83DB1562CULL, 0x8A280AC50774346DULL,
                                 0xFFFFFFFFFFFFFFFEULL, ~0ULL};
  const auto mul_shift_384 = [&](const U256& g) {
    u64 t[8];
    mul_512(k.to_u256().limb, g.limb, t);
    const u128 c = (static_cast<u128>(t[7]) << 64 | t[6]) + (t[5] >> 63);
    return Scalar::reduce(U256{static_cast<u64>(c), static_cast<u64>(c >> 64), 0, 0});
  };
  const Scalar k2 = mul_shift_384(kG1) * Scalar::reduce(kMinusB1) +
                    mul_shift_384(kG2) * Scalar::reduce(kMinusB2);
  const Scalar k1 = k + (k2 * Scalar::reduce(kLambda)).neg();
  return {k1, k2};
}

const U256& glv_lambda() { return kLambda; }
const U256& glv_beta() { return kBeta; }

constexpr std::size_t kQOdd = 1 << (kWindowQ - 2);

/// Odd multiples Q, 3Q, ..., 15Q, effective-affine: affine on the curve
/// scaled by the returned s, so the walk adds them with madds and no
/// inversion is needed. Each (2i+1)Q is (2i-1)Q + 2Q by madd on the curve
/// scaled by 2Q's Z, where 2Q is affine; one backward pass then brings every
/// entry to the last one's Z by the recorded Z ratios.
FieldElement q_table(const AffinePoint& q, Ge out[kQOdd]) {
  const JacobianPoint q1 = JacobianPoint::from_affine(q);
  const JacobianPoint d = q1.doubled();
  const FieldElement dz2 = d.z.sqr();
  const Ge d_affine{d.x, d.y};
  std::array<JacobianPoint, kQOdd> a;
  std::array<FieldElement, kQOdd> zr;
  a[0] = {q1.x * dz2, q1.y * dz2 * d.z, FieldElement::from_u64(1)};
  for (std::size_t i = 1; i < kQOdd; ++i) a[i] = madd(a[i - 1], d_affine, a[i - 1].z, &zr[i]);
  // zs = Z(last) / Z(i), growing by one ratio per step down.
  FieldElement zs = zr[kQOdd - 1];
  out[kQOdd - 1] = {a[kQOdd - 1].x, a[kQOdd - 1].y};
  for (std::size_t i = kQOdd - 1; i-- > 0;) {
    const FieldElement zs2 = zs.sqr();
    out[i] = {a[i].x * zs2, a[i].y * zs2 * zs};
    if (i > 0) zs = zs * zr[i];
  }
  return d.z * a[kQOdd - 1].z;
}

JacobianPoint double_scalar_mul(const U256& u1, const U256& u2, const AffinePoint& q) {
  // u1·G + u2·Q = k1·G + k2·λG + k3·Q + k4·λQ with every k below 2^128 in
  // magnitude: one walk of at most 129 doublings over four wNAFs.
  int d_g[kHalfDigits] = {};
  int d_lg[kHalfDigits] = {};
  int d_q[kHalfDigits] = {};
  int d_lq[kHalfDigits] = {};
  const auto [k1, k2] = split_lambda(Scalar::reduce(u1));
  int len = std::max(wnaf(k1, kWindowG, d_g), wnaf(k2, kWindowG, d_lg));

  // The walk runs on the curve scaled by s, where the Q and λQ = (β·x, y)
  // tables are affine; the G tables are scaled in on the fly, and the sum
  // comes back by Z·s at the end.
  Ge q_odd[kQOdd];
  Ge q_lambda[kQOdd];
  FieldElement s = FieldElement::from_u64(1);
  if (!q.infinity) {
    const auto [k3, k4] = split_lambda(Scalar::reduce(u2));
    len = std::max({len, wnaf(k3, kWindowQ, d_q), wnaf(k4, kWindowQ, d_lq)});
    s = q_table(q, q_odd);
    const FieldElement beta = FieldElement::reduce(kBeta);
    for (std::size_t i = 0; i < kQOdd; ++i) q_lambda[i] = {beta * q_odd[i].x, q_odd[i].y};
  }
  const GTables& t = g_tables();

  const auto pick = [](const auto* table, int d) {
    const Ge m = unpack(table[std::abs(d) / 2]);
    return d > 0 ? m : neg_ge(m);
  };
  JacobianPoint r = JacobianPoint::identity();
  for (int i = len - 1; i >= 0; --i) {
    r = r.doubled();
    if (d_q[i] != 0) r = add_ge(r, pick(q_odd, d_q[i]));
    if (d_lq[i] != 0) r = add_ge(r, pick(q_lambda, d_lq[i]));
    if (d_g[i] != 0) r = add_ge_scaled(r, pick(t.odd.data(), d_g[i]), s);
    if (d_lg[i] != 0) r = add_ge_scaled(r, pick(t.lambda_odd.data(), d_lg[i]), s);
  }
  r.z = r.z * s;
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

}  // namespace sc::crypto::secp256k1
