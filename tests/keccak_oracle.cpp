#include "keccak_oracle.hpp"

#include <cstring>

namespace sc::crypto::keccak_oracle {
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

constexpr int kRotation[25] = {
    0,  1,  62, 28, 27,  //
    36, 44, 6,  55, 20,  //
    3,  10, 43, 25, 39,  //
    41, 45, 15, 21, 8,   //
    18, 2,  61, 56, 14,
};

inline std::uint64_t rotl(std::uint64_t x, int n) {
  return n == 0 ? x : (x << n) | (x >> (64 - n));
}

void keccak_f1600(std::uint64_t a[25]) {
  for (int round = 0; round < 24; ++round) {
    // θ
    std::uint64_t c[5];
    for (int x = 0; x < 5; ++x)
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    std::uint64_t d[5];
    for (int x = 0; x < 5; ++x) d[x] = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
    for (int x = 0; x < 5; ++x)
      for (int y = 0; y < 5; ++y) a[x + 5 * y] ^= d[x];

    // ρ and π
    std::uint64_t b[25];
    for (int x = 0; x < 5; ++x)
      for (int y = 0; y < 5; ++y)
        b[y + 5 * ((2 * x + 3 * y) % 5)] = rotl(a[x + 5 * y], kRotation[x + 5 * y]);

    // χ
    for (int x = 0; x < 5; ++x)
      for (int y = 0; y < 5; ++y)
        a[x + 5 * y] = b[x + 5 * y] ^ (~b[(x + 1) % 5 + 5 * y] & b[(x + 2) % 5 + 5 * y]);

    // ι
    a[0] ^= kRoundConstants[round];
  }
}

constexpr std::size_t kRate = 136;

/// The byte-wise sponge: buffer a full rate block, then absorb it.
class Sponge {
 public:
  explicit Sponge(std::uint8_t domain) : domain_(domain) {
    std::memset(state_, 0, sizeof(state_));
  }

  void update(util::ByteSpan data) {
    for (std::uint8_t byte : data) {
      buf_[buf_len_++] = byte;
      if (buf_len_ == kRate) absorb_block();
    }
  }

  Hash256 finish() {
    std::memset(buf_ + buf_len_, 0, kRate - buf_len_);
    buf_[buf_len_] = domain_;
    buf_[kRate - 1] |= 0x80;
    buf_len_ = kRate;
    absorb_block();

    Hash256 out;
    for (std::size_t i = 0; i < 4; ++i) {
      for (int b = 0; b < 8; ++b)
        out.bytes[8 * i + static_cast<std::size_t>(b)] =
            static_cast<std::uint8_t>(state_[i] >> (8 * b));
    }
    return out;
  }

 private:
  void absorb_block() {
    for (std::size_t i = 0; i < kRate / 8; ++i) {
      std::uint64_t lane = 0;
      for (int b = 0; b < 8; ++b)
        lane |= static_cast<std::uint64_t>(buf_[8 * i + static_cast<std::size_t>(b)]) << (8 * b);
      state_[i] ^= lane;
    }
    keccak_f1600(state_);
    buf_len_ = 0;
  }

  std::uint8_t domain_;
  std::uint64_t state_[25];
  std::uint8_t buf_[kRate];
  std::size_t buf_len_ = 0;
};

}  // namespace

Hash256 keccak256(util::ByteSpan data) {
  Sponge sponge(0x01);
  sponge.update(data);
  return sponge.finish();
}

Hash256 sha3_256(util::ByteSpan data) {
  Sponge sponge(0x06);
  sponge.update(data);
  return sponge.finish();
}

}  // namespace sc::crypto::keccak_oracle
