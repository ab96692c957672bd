#include "crypto/keccak.hpp"

#include <bit>
#include <cstring>

namespace sc::crypto {

namespace {

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

// One Keccak-f[1600] round from the lanes A## into the lanes E##: θ, then
// ρ and π gather the five lanes of each output row (rotations are
// constants), and χ (plus ι on lane ba) writes that row at once.
//
// Lanes are named by row (b, g, k, m, s for y = 0..4) and column (a, e, i,
// o, u for x = 0..4): lane[x + 5y] of the FIPS 202 state, so `ki` is x=2,
// y=2. The six lanes be, bi, go, ki, mi, sa are held complemented for the
// whole permutation ("lane complementing" from the Keccak team's
// implementation notes). θ, ρ and π are linear, so they carry the
// complements along a fixed pattern; each χ row's mix of AND and OR is the
// one that maps that pattern back onto the same six lanes with one NOT
// instead of five.
#define SC_KECCAK_ROUND(A, E, rc)                                               \
  do {                                                                          \
    const std::uint64_t c0 = A##ba ^ A##ga ^ A##ka ^ A##ma ^ A##sa;             \
    const std::uint64_t c1 = A##be ^ A##ge ^ A##ke ^ A##me ^ A##se;             \
    const std::uint64_t c2 = A##bi ^ A##gi ^ A##ki ^ A##mi ^ A##si;             \
    const std::uint64_t c3 = A##bo ^ A##go ^ A##ko ^ A##mo ^ A##so;             \
    const std::uint64_t c4 = A##bu ^ A##gu ^ A##ku ^ A##mu ^ A##su;             \
    const std::uint64_t d0 = c4 ^ std::rotl(c1, 1), d1 = c0 ^ std::rotl(c2, 1); \
    const std::uint64_t d2 = c1 ^ std::rotl(c3, 1), d3 = c2 ^ std::rotl(c4, 1); \
    const std::uint64_t d4 = c3 ^ std::rotl(c0, 1);                             \
    std::uint64_t x0, x1, x2, x3, x4, n;                                        \
    x0 = A##ba ^ d0; x1 = std::rotl(A##ge ^ d1, 44);                            \
    x2 = std::rotl(A##ki ^ d2, 43); x3 = std::rotl(A##mo ^ d3, 21);             \
    x4 = std::rotl(A##su ^ d4, 14); n = ~x2;                                    \
    E##ba = x0 ^ (x1 | x2) ^ (rc); E##be = x1 ^ (n | x3);                       \
    E##bi = x2 ^ (x3 & x4); E##bo = x3 ^ (x4 | x0);                             \
    E##bu = x4 ^ (x0 & x1);                                                     \
    x0 = std::rotl(A##bo ^ d3, 28); x1 = std::rotl(A##gu ^ d4, 20);             \
    x2 = std::rotl(A##ka ^ d0, 3); x3 = std::rotl(A##me ^ d1, 45);              \
    x4 = std::rotl(A##si ^ d2, 61); n = ~x4;                                    \
    E##ga = x0 ^ (x1 | x2); E##ge = x1 ^ (x2 & x3);                             \
    E##gi = x2 ^ (x3 | n); E##go = x3 ^ (x4 | x0);                              \
    E##gu = x4 ^ (x0 & x1);                                                     \
    x0 = std::rotl(A##be ^ d1, 1); x1 = std::rotl(A##gi ^ d2, 6);               \
    x2 = std::rotl(A##ko ^ d3, 25); x3 = std::rotl(A##mu ^ d4, 8);              \
    x4 = std::rotl(A##sa ^ d0, 18); n = ~x3;                                    \
    E##ka = x0 ^ (x1 | x2); E##ke = x1 ^ (x2 & x3);                             \
    E##ki = x2 ^ (n & x4); E##ko = n ^ (x4 | x0);                               \
    E##ku = x4 ^ (x0 & x1);                                                     \
    x0 = std::rotl(A##bu ^ d4, 27); x1 = std::rotl(A##ga ^ d0, 36);             \
    x2 = std::rotl(A##ke ^ d1, 10); x3 = std::rotl(A##mi ^ d2, 15);             \
    x4 = std::rotl(A##so ^ d3, 56); n = ~x3;                                    \
    E##ma = x0 ^ (x1 & x2); E##me = x1 ^ (x2 | x3);                             \
    E##mi = x2 ^ (n | x4); E##mo = n ^ (x4 & x0);                               \
    E##mu = x4 ^ (x0 | x1);                                                     \
    x0 = std::rotl(A##bi ^ d2, 62); x1 = std::rotl(A##go ^ d3, 55);             \
    x2 = std::rotl(A##ku ^ d4, 39); x3 = std::rotl(A##ma ^ d0, 41);             \
    x4 = std::rotl(A##se ^ d1, 2); n = ~x1;                                     \
    E##sa = x0 ^ (n & x2); E##se = n ^ (x2 | x3);                               \
    E##si = x2 ^ (x3 & x4); E##so = x3 ^ (x4 | x0);                             \
    E##su = x4 ^ (x0 & x1);                                                     \
  } while (0)

void keccak_f1600(std::uint64_t lane[25]) {
  std::uint64_t Aba = lane[0], Abe = ~lane[1], Abi = ~lane[2], Abo = lane[3], Abu = lane[4];
  std::uint64_t Aga = lane[5], Age = lane[6], Agi = lane[7], Ago = ~lane[8], Agu = lane[9];
  std::uint64_t Aka = lane[10], Ake = lane[11], Aki = ~lane[12], Ako = lane[13], Aku = lane[14];
  std::uint64_t Ama = lane[15], Ame = lane[16], Ami = ~lane[17], Amo = lane[18], Amu = lane[19];
  std::uint64_t Asa = ~lane[20], Ase = lane[21], Asi = lane[22], Aso = lane[23], Asu = lane[24];
  std::uint64_t Eba, Ebe, Ebi, Ebo, Ebu;
  std::uint64_t Ega, Ege, Egi, Ego, Egu;
  std::uint64_t Eka, Eke, Eki, Eko, Eku;
  std::uint64_t Ema, Eme, Emi, Emo, Emu;
  std::uint64_t Esa, Ese, Esi, Eso, Esu;
  for (int round = 0; round < 24; round += 2) {
    SC_KECCAK_ROUND(A, E, kRoundConstants[round]);
    SC_KECCAK_ROUND(E, A, kRoundConstants[round + 1]);
  }
  lane[0] = Aba; lane[1] = ~Abe; lane[2] = ~Abi; lane[3] = Abo; lane[4] = Abu;
  lane[5] = Aga; lane[6] = Age; lane[7] = Agi; lane[8] = ~Ago; lane[9] = Agu;
  lane[10] = Aka; lane[11] = Ake; lane[12] = ~Aki; lane[13] = Ako; lane[14] = Aku;
  lane[15] = Ama; lane[16] = Ame; lane[17] = ~Ami; lane[18] = Amo; lane[19] = Amu;
  lane[20] = ~Asa; lane[21] = Ase; lane[22] = Asi; lane[23] = Aso; lane[24] = Asu;
}

#undef SC_KECCAK_ROUND

std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, 8);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}

}  // namespace

void Keccak::reset() {
  std::memset(state_, 0, sizeof(state_));
  pos_ = 0;
}

void Keccak::absorb_byte(std::uint8_t byte) {
  state_[pos_ / 8] ^= static_cast<std::uint64_t>(byte) << (8 * (pos_ % 8));
  if (++pos_ == kRate) {
    keccak_f1600(state_);
    pos_ = 0;
  }
}

Keccak& Keccak::update(util::ByteSpan data) {
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  // Finish a partly filled lane, then absorb whole lanes straight from the
  // input; only the trailing partial lane goes in byte by byte.
  while (p != end && pos_ % 8 != 0) absorb_byte(*p++);
  for (; end - p >= 8; p += 8) {
    state_[pos_ / 8] ^= load_le64(p);
    if ((pos_ += 8) == kRate) {
      keccak_f1600(state_);
      pos_ = 0;
    }
  }
  while (p != end) absorb_byte(*p++);
  return *this;
}

Hash256 Keccak::finish() {
  // Pad: domain byte then 10*1, XORed in place (pos_ < kRate always).
  const std::uint64_t domain = variant_ == Variant::kKeccak256 ? 0x01 : 0x06;
  state_[pos_ / 8] ^= domain << (8 * (pos_ % 8));
  state_[kRate / 8 - 1] ^= std::uint64_t{0x80} << 56;
  keccak_f1600(state_);
  pos_ = 0;

  Hash256 out;
  for (std::size_t i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b)
      out.bytes[8 * i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(state_[i] >> (8 * b));
  }
  return out;
}

Hash256 keccak256(util::ByteSpan data) {
  Keccak k(Keccak::Variant::kKeccak256);
  k.update(data);
  return k.finish();
}

Hash256 sha3_256(util::ByteSpan data) {
  Keccak k(Keccak::Variant::kSha3_256);
  k.update(data);
  return k.finish();
}

}  // namespace sc::crypto
