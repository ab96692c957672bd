// Keccak-256 (Ethereum) and SHA3-256 (FIPS 202) against published vectors,
// and the unrolled permutation + word-wise absorb against the original
// byte-wise sponge (keccak_oracle.hpp).
#include <gtest/gtest.h>

#include "crypto/keccak.hpp"
#include "keccak_oracle.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sc::crypto {
namespace {

TEST(Keccak256, EmptyString) {
  // The famous Ethereum empty hash.
  EXPECT_EQ(keccak256({}).hex(),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256, Abc) {
  EXPECT_EQ(keccak256(util::as_bytes("abc")).hex(),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256, QuickBrownFox) {
  EXPECT_EQ(keccak256(util::as_bytes("The quick brown fox jumps over the lazy dog")).hex(),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(Sha3_256, EmptyString) {
  EXPECT_EQ(sha3_256({}).hex(),
            "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a");
}

TEST(Sha3_256, Abc) {
  EXPECT_EQ(sha3_256(util::as_bytes("abc")).hex(),
            "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532");
}

TEST(Keccak, VariantsDiffer) {
  EXPECT_NE(keccak256(util::as_bytes("x")), sha3_256(util::as_bytes("x")));
}

TEST(Keccak, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'k');
  Keccak ctx(Keccak::Variant::kKeccak256);
  for (std::size_t i = 0; i < msg.size(); i += 13)
    ctx.update(util::as_bytes(std::string_view(msg).substr(i, 13)));
  EXPECT_EQ(ctx.finish(), keccak256(util::as_bytes(msg)));
}

// Exercise rate-boundary lengths (rate = 136 bytes for 256-bit output).
class KeccakRateBoundary : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KeccakRateBoundary, IncrementalEqualsOneShot) {
  const std::size_t n = GetParam();
  util::Bytes msg(n, 0x5a);
  Keccak ctx;
  for (std::size_t i = 0; i < n; i += 31)
    ctx.update({msg.data() + i, std::min<std::size_t>(31, n - i)});
  EXPECT_EQ(ctx.finish(), keccak256(msg)) << "length " << n;
}

INSTANTIATE_TEST_SUITE_P(Boundaries, KeccakRateBoundary,
                         ::testing::Values(0, 1, 135, 136, 137, 271, 272, 273, 500));

TEST(KeccakOracle, OneShotMatchesAtEveryLengthTo600) {
  // Covers the rate edges 135/136/137 and 271/272/273, and every lane
  // remainder on both sides of them.
  util::Rng rng(0x6A5);
  util::Bytes buf;
  rng.fill(buf, 600 + 7);
  for (std::size_t offset : {0, 3}) {  // aligned and misaligned input
    for (std::size_t n = 0; n <= 600; ++n) {
      const util::ByteSpan data{buf.data() + offset, n};
      ASSERT_EQ(keccak256(data), keccak_oracle::keccak256(data))
          << "offset " << offset << " length " << n;
      ASSERT_EQ(sha3_256(data), keccak_oracle::sha3_256(data))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(KeccakOracle, IncrementalSplitAtEveryOffset) {
  util::Rng rng(0x6A6);
  for (const std::size_t n : {135, 136, 137, 271, 272, 273, 600}) {
    util::Bytes msg;
    rng.fill(msg, n);
    const Hash256 want = keccak_oracle::keccak256(msg);
    for (std::size_t split = 0; split <= n; ++split) {
      const util::ByteSpan head{msg.data(), split};
      const util::ByteSpan tail{msg.data() + split, n - split};
      Keccak ctx;
      ctx.update(head).update(tail);
      ASSERT_EQ(ctx.finish(), want) << "length " << n << " split " << split;
    }
  }
}

TEST(KeccakOracle, ThreeWaySplitsAroundTheRate) {
  // A short first piece leaves the sponge mid-lane, so the second piece
  // starts with the byte-wise lane fill; when it is shorter than the rest
  // of that lane, the fill runs out of input and the third piece resumes
  // mid-lane.
  util::Rng rng(0x6A7);
  util::Bytes msg;
  rng.fill(msg, 300);
  const Hash256 want = keccak_oracle::keccak256(msg);
  for (std::size_t a = 0; a <= 17; ++a) {
    for (std::size_t b = a; b <= 300; b += 7) {
      Keccak ctx;
      ctx.update({msg.data(), a}).update({msg.data() + a, b - a});
      ctx.update({msg.data() + b, msg.size() - b});
      ASSERT_EQ(ctx.finish(), want) << a << " " << b;
    }
  }
}

TEST(Keccak, ResetAfterFinishAllowsReuse) {
  Keccak ctx;
  ctx.update(util::as_bytes("garbage"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(util::as_bytes("abc"));
  EXPECT_EQ(ctx.finish(), keccak256(util::as_bytes("abc")));
}

TEST(Keccak, DistinctInputsDistinctDigests) {
  // Trivial collision smoke check over a small input family.
  const Hash256 a = keccak256(util::as_bytes("report-1"));
  const Hash256 b = keccak256(util::as_bytes("report-2"));
  const Hash256 c = keccak256(util::as_bytes("report-12"));
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
}

}  // namespace
}  // namespace sc::crypto
