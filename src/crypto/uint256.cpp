#include "crypto/uint256.hpp"

#include <algorithm>
#include <cassert>

#include "util/hex.hpp"

namespace sc::crypto {

U256 U256::from_be_bytes(util::ByteSpan b) {
  U256 out;
  const std::size_t n = std::min<std::size_t>(b.size(), 32);
  // Walk the trailing n bytes of the input, least-significant first.
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t byte = b[b.size() - 1 - i];
    out.limb[i / 8] |= static_cast<std::uint64_t>(byte) << (8 * (i % 8));
  }
  return out;
}

U256 U256::from_hex(std::string_view hex) {
  if (hex.size() >= 2 && hex[0] == '0' && (hex[1] == 'x' || hex[1] == 'X')) hex.remove_prefix(2);
  std::string padded(hex);
  if (padded.size() % 2 != 0) padded.insert(padded.begin(), '0');
  const auto bytes = util::from_hex(padded);
  return bytes ? from_be_bytes(*bytes) : U256{};
}

void U256::to_be_bytes(std::uint8_t out[32]) const {
  for (std::size_t i = 0; i < 32; ++i)
    out[31 - i] = static_cast<std::uint8_t>(limb[i / 8] >> (8 * (i % 8)));
}

Hash256 U256::to_hash() const {
  Hash256 h;
  to_be_bytes(h.bytes.data());
  return h;
}

std::string U256::hex() const {
  Hash256 h = to_hash();
  return h.hex();
}

unsigned U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0)
      return static_cast<unsigned>(64 * i + 64 - __builtin_clzll(limb[i]));
  }
  return 0;
}

std::strong_ordering U256::operator<=>(const U256& o) const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != o.limb[i]) return limb[i] <=> o.limb[i];
  }
  return std::strong_ordering::equal;
}

bool U256::add_with_carry(const U256& a, const U256& b, U256& out) {
  unsigned char carry = 0;
  for (int i = 0; i < 4; ++i) {
    const __uint128_t s = static_cast<__uint128_t>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<std::uint64_t>(s);
    carry = static_cast<unsigned char>(s >> 64);
  }
  return carry != 0;
}

bool U256::sub_with_borrow(const U256& a, const U256& b, U256& out) {
  unsigned char borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const __uint128_t d =
        static_cast<__uint128_t>(a.limb[i]) - b.limb[i] - borrow;
    out.limb[i] = static_cast<std::uint64_t>(d);
    borrow = static_cast<unsigned char>((d >> 64) & 1);
  }
  return borrow != 0;
}

U256 U256::operator+(const U256& o) const {
  U256 out;
  add_with_carry(*this, o, out);
  return out;
}

U256 U256::operator-(const U256& o) const {
  U256 out;
  sub_with_borrow(*this, o, out);
  return out;
}

U256 U256::operator&(const U256& o) const {
  U256 r;
  for (int i = 0; i < 4; ++i) r.limb[i] = limb[i] & o.limb[i];
  return r;
}

U256 U256::operator|(const U256& o) const {
  U256 r;
  for (int i = 0; i < 4; ++i) r.limb[i] = limb[i] | o.limb[i];
  return r;
}

U256 U256::operator^(const U256& o) const {
  U256 r;
  for (int i = 0; i < 4; ++i) r.limb[i] = limb[i] ^ o.limb[i];
  return r;
}

U256 U256::operator~() const {
  U256 r;
  for (int i = 0; i < 4; ++i) r.limb[i] = ~limb[i];
  return r;
}

U256 U256::operator<<(unsigned n) const {
  if (n >= 256) return {};
  U256 r;
  const unsigned word = n / 64;
  const unsigned bits = n % 64;
  for (int i = 3; i >= 0; --i) {
    const int src = i - static_cast<int>(word);
    std::uint64_t v = 0;
    if (src >= 0) v = limb[src] << bits;
    if (bits != 0 && src - 1 >= 0) v |= limb[src - 1] >> (64 - bits);
    r.limb[i] = v;
  }
  return r;
}

U256 U256::operator>>(unsigned n) const {
  if (n >= 256) return {};
  U256 r;
  const unsigned word = n / 64;
  const unsigned bits = n % 64;
  for (int i = 0; i < 4; ++i) {
    const unsigned src = static_cast<unsigned>(i) + word;
    std::uint64_t v = 0;
    if (src < 4) v = limb[src] >> bits;
    if (bits != 0 && src + 1 < 4) v |= limb[src + 1] << (64 - bits);
    r.limb[i] = v;
  }
  return r;
}

U512 U256::mul_wide(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    std::uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      const __uint128_t cur = static_cast<__uint128_t>(a.limb[i]) * b.limb[j] +
                              out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<std::uint64_t>(cur);
      carry = static_cast<std::uint64_t>(cur >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

U256 U256::div_u64(std::uint64_t divisor, std::uint64_t* remainder) const {
  assert(divisor != 0);
  U256 q;
  __uint128_t rem = 0;
  for (int i = 3; i >= 0; --i) {
    const __uint128_t cur = (rem << 64) | limb[i];
    q.limb[i] = static_cast<std::uint64_t>(cur / divisor);
    rem = cur % divisor;
  }
  if (remainder) *remainder = static_cast<std::uint64_t>(rem);
  return q;
}

U256 U256::div(const U256& a, const U256& b, U256* remainder) {
  assert(!b.is_zero());
  if (b.bit_length() <= 64) {
    std::uint64_t r64 = 0;
    const U256 q = a.div_u64(b.limb[0], &r64);
    if (remainder) *remainder = U256{r64};
    return q;
  }
  // Binary long division — b has >64 bits so the loop count is modest and
  // this path is only used by retarget math, never per-hash.
  U256 q, rem;
  for (int i = static_cast<int>(a.bit_length()) - 1; i >= 0; --i) {
    rem = rem << 1;
    if (a.bit(static_cast<unsigned>(i))) rem.limb[0] |= 1;
    if (rem >= b) {
      rem = rem - b;
      q.limb[static_cast<unsigned>(i) / 64] |= 1ULL << (static_cast<unsigned>(i) % 64);
    }
  }
  if (remainder) *remainder = rem;
  return q;
}

}  // namespace sc::crypto
