// Merkle tree construction and inclusion proofs.
#include <gtest/gtest.h>

#include <thread>

#include "crypto/merkle.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace sc::crypto {
namespace {

std::vector<Hash256> make_leaves(std::size_t n, std::uint64_t seed = 1) {
  util::Rng rng(seed);
  std::vector<Hash256> leaves(n);
  for (auto& leaf : leaves) {
    util::Bytes raw;
    rng.fill(raw, 32);
    leaf = Hash256::from_span(raw);
  }
  return leaves;
}

TEST(Merkle, EmptyTreeIsZero) {
  EXPECT_TRUE(merkle_root({}).is_zero());
}

TEST(Merkle, SingleLeafIsOwnRoot) {
  const auto leaves = make_leaves(1);
  EXPECT_EQ(merkle_root(leaves), leaves[0]);
}

TEST(Merkle, TwoLeavesMatchManualPairHash) {
  const auto leaves = make_leaves(2);
  util::Bytes pre;
  util::append(pre, leaves[0].span());
  util::append(pre, leaves[1].span());
  EXPECT_EQ(merkle_root(leaves), Sha256::double_digest(pre));
}

TEST(Merkle, OddCountDuplicatesLast) {
  // Bitcoin convention: [a, b, c] hashes as [(a,b), (c,c)].
  const auto leaves = make_leaves(3);
  const auto four = std::vector<Hash256>{leaves[0], leaves[1], leaves[2], leaves[2]};
  EXPECT_EQ(merkle_root(leaves), merkle_root(four));
}

TEST(Merkle, RootDependsOnOrder) {
  auto leaves = make_leaves(4);
  const Hash256 original = merkle_root(leaves);
  std::swap(leaves[0], leaves[3]);
  EXPECT_NE(merkle_root(leaves), original);
}

TEST(Merkle, RootDependsOnEveryLeaf) {
  auto leaves = make_leaves(8);
  const Hash256 original = merkle_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    auto mutated = leaves;
    mutated[i].bytes[0] ^= 0xff;
    EXPECT_NE(merkle_root(mutated), original) << "leaf " << i;
  }
}

class MerkleProofSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MerkleProofSweep, EveryLeafProves) {
  const std::size_t n = GetParam();
  const auto leaves = make_leaves(n, 42 + n);
  const Hash256 root = merkle_root(leaves);
  for (std::size_t i = 0; i < n; ++i) {
    const MerkleProof proof = merkle_proof(leaves, i);
    EXPECT_TRUE(merkle_verify(leaves[i], proof, root)) << "leaf " << i << "/" << n;
    // Proof must fail for a different leaf.
    Hash256 wrong = leaves[i];
    wrong.bytes[31] ^= 1;
    EXPECT_FALSE(merkle_verify(wrong, proof, root));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MerkleProofSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 16, 33, 100));

TEST(Merkle, ProofForBadIndexIsEmpty) {
  const auto leaves = make_leaves(4);
  EXPECT_TRUE(merkle_proof(leaves, 4).empty());
}

TEST(Merkle, ProofForWrongIndexRejected) {
  // A valid proof for index i must not verify any other leaf of the same
  // tree, even though both leaves and both proofs are individually genuine.
  const auto leaves = make_leaves(9);  // odd count: duplicate-last padding in play
  const Hash256 root = merkle_root(leaves);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    const MerkleProof proof = merkle_proof(leaves, i);
    for (std::size_t j = 0; j < leaves.size(); ++j) {
      if (j == i) continue;
      EXPECT_FALSE(merkle_verify(leaves[j], proof, root))
          << "proof for " << i << " accepted leaf " << j;
    }
  }
}

TEST(Merkle, ProofAgainstDifferentRootFails) {
  const auto leaves = make_leaves(6);
  const MerkleProof proof = merkle_proof(leaves, 2);
  auto other = leaves;
  other[5].bytes[0] ^= 1;
  EXPECT_TRUE(merkle_verify(leaves[2], proof, merkle_root(leaves)));
  EXPECT_FALSE(merkle_verify(leaves[2], proof, merkle_root(other)));
}

TEST(Merkle, EmptyProofOnlyVerifiesSingleLeafTree) {
  // The empty proof says "this leaf is the root" — true only for n == 1.
  const auto leaves = make_leaves(4);
  EXPECT_FALSE(merkle_verify(leaves[0], MerkleProof{}, merkle_root(leaves)));
  EXPECT_TRUE(merkle_verify(leaves[0], MerkleProof{}, leaves[0]));
}

TEST(Merkle, TamperedProofFails) {
  const auto leaves = make_leaves(8);
  const Hash256 root = merkle_root(leaves);
  MerkleProof proof = merkle_proof(leaves, 3);
  ASSERT_FALSE(proof.empty());
  proof[0].sibling.bytes[0] ^= 1;
  EXPECT_FALSE(merkle_verify(leaves[3], proof, root));
}

TEST(Merkle, ProofLengthIsLogarithmic) {
  const auto leaves = make_leaves(16);
  EXPECT_EQ(merkle_proof(leaves, 0).size(), 4u);
  const auto leaves1k = make_leaves(1024);
  EXPECT_EQ(merkle_proof(leaves1k, 512).size(), 10u);
}

TEST(Sha256Dispatch, FourThreadsRaceTheFirstDigest) {
  // Nothing in this binary hashes before main(), so the SHA-256 kernel is
  // resolved inside this race (each ctest case is its own process). Under
  // TSan this is the check that the one-time dispatch is race-free.
  std::vector<std::string> hex(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < hex.size(); ++t)
    threads.emplace_back([&hex, t] { hex[t] = Sha256::digest(util::as_bytes("abc")).hex(); });
  for (std::thread& th : threads) th.join();
  for (const std::string& h : hex)
    EXPECT_EQ(h, "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

}  // namespace
}  // namespace sc::crypto
