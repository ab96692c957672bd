// RIPEMD-160 against the original Dobbertin/Bosselaers/Preneel test vectors.
#include <gtest/gtest.h>

#include <cstring>
#include <ostream>

#include "crypto/ripemd160.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"

namespace sc::crypto {
namespace {

struct Vector {
  const char* msg;
  const char* digest;
};

// gtest would otherwise print the raw pointer bytes, and ctest names each
// case after that printout, so the names would change with every build.
void PrintTo(const Vector& v, std::ostream* os) {
  *os << std::strlen(v.msg) << "-byte message";
}

class Ripemd160Vectors : public ::testing::TestWithParam<Vector> {};

TEST_P(Ripemd160Vectors, MatchesPublishedDigest) {
  const auto& [msg, digest] = GetParam();
  EXPECT_EQ(ripemd160(util::as_bytes(msg)).hex(), digest);
}

INSTANTIATE_TEST_SUITE_P(
    Published, Ripemd160Vectors,
    ::testing::Values(
        Vector{"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"},
        Vector{"a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe"},
        Vector{"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"},
        Vector{"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"},
        Vector{"abcdefghijklmnopqrstuvwxyz",
               "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"},
        Vector{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
               "12a053384a9c0c88e405a06c27dcf49ada62eb2b"},
        Vector{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
               "b0e20b6e3116640286ed3a87a5713079b21f5189"}));

TEST(Ripemd160, MillionA) {
  const std::string msg(1000000, 'a');
  EXPECT_EQ(ripemd160(util::as_bytes(msg)).hex(),
            "52783243c1697bdbe16d37f97f68f08325dc1528");
}

TEST(Ripemd160, Hash160Composition) {
  const auto msg = util::as_bytes("address preimage");
  const Hash256 inner = Sha256::digest(msg);
  EXPECT_EQ(hash160(msg), ripemd160(inner.span()));
}

TEST(Ripemd160, BlockBoundaryLengths) {
  // 55/56 byte messages straddle the single- vs double-final-block split.
  const std::string m55(55, 'q');
  const std::string m56(56, 'q');
  const std::string m64(64, 'q');
  EXPECT_NE(ripemd160(util::as_bytes(m55)), ripemd160(util::as_bytes(m56)));
  EXPECT_NE(ripemd160(util::as_bytes(m56)), ripemd160(util::as_bytes(m64)));
}

}  // namespace
}  // namespace sc::crypto
