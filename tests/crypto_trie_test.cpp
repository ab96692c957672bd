// MerkleTrie: the authenticated key-value commitment under the chain's
// state root. Unit coverage for the crit-bit structure, inclusion/absence
// proofs and the proof codec, plus the seeded differential fuzz that drives
// random set/erase streams, with root()/prove() reads between the writes,
// against the bulk-build oracle (scripts/check.sh reruns it under ASan/UBSan,
// cranked via SC_TRIE_FUZZ_ROUNDS).
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "crypto/merkle_trie.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace sc::crypto {
namespace {

Hash256 h(std::uint64_t n) {
  std::uint8_t buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(n >> (8 * i));
  return Sha256::digest(util::ByteSpan(buf, 8));
}

Hash256 random_hash(util::Rng& rng) {
  Hash256 out;
  for (auto& b : out.bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return out;
}

TEST(MerkleTrie, EmptyTrieHasZeroRoot) {
  MerkleTrie trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie.root().is_zero());
  EXPECT_EQ(trie.node_count(), 0u);
  // The zero root proves every key absent — and nothing present.
  const TrieProof proof = trie.prove(h(1));
  EXPECT_TRUE(MerkleTrie::verify_absent(trie.root(), h(1), proof));
  EXPECT_FALSE(MerkleTrie::verify_present(trie.root(), h(1), h(2), proof));
}

TEST(MerkleTrie, SingleLeaf) {
  MerkleTrie trie;
  trie.set(h(1), h(100));
  EXPECT_EQ(trie.leaf_count(), 1u);
  EXPECT_EQ(trie.node_count(), 1u);
  // A lone leaf IS the root: no branches, proof has no steps.
  EXPECT_EQ(trie.root(), MerkleTrie::leaf_hash(h(1), h(100)));
  const TrieProof proof = trie.prove(h(1));
  EXPECT_TRUE(proof.steps.empty());
  EXPECT_TRUE(MerkleTrie::verify_present(trie.root(), h(1), h(100), proof));
  // Any other key is proven absent by that same lone leaf.
  const TrieProof absent = trie.prove(h(2));
  EXPECT_EQ(absent.leaf_key, h(1));
  EXPECT_TRUE(MerkleTrie::verify_absent(trie.root(), h(2), absent));
  EXPECT_FALSE(MerkleTrie::verify_absent(trie.root(), h(1), proof));
}

TEST(MerkleTrie, SetGetEraseRoundTrip) {
  MerkleTrie trie;
  for (std::uint64_t i = 0; i < 50; ++i) trie.set(h(i), h(1000 + i));
  EXPECT_EQ(trie.leaf_count(), 50u);
  EXPECT_EQ(trie.node_count(), 99u);  // exactly n-1 internal nodes
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto got = trie.get(h(i));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, h(1000 + i));
  }
  // Update in place: same leaf count, new root.
  const Hash256 before = trie.root();
  trie.set(h(7), h(7777));
  EXPECT_EQ(trie.leaf_count(), 50u);
  EXPECT_NE(trie.root(), before);
  trie.set(h(7), h(1000 + 7));
  EXPECT_EQ(trie.root(), before);  // rollback restores the exact root

  EXPECT_FALSE(trie.erase(h(999)));  // absent key: no change
  EXPECT_EQ(trie.root(), before);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_TRUE(trie.erase(h(i)));
  EXPECT_TRUE(trie.empty());
  EXPECT_TRUE(trie.root().is_zero());
}

TEST(MerkleTrie, IncrementalMatchesBulkBuildAnyOrder) {
  std::vector<std::pair<Hash256, Hash256>> leaves;
  for (std::uint64_t i = 0; i < 33; ++i) leaves.emplace_back(h(i), h(500 + i));
  const MerkleTrie built = MerkleTrie::build(leaves);

  MerkleTrie forward, backward;
  for (const auto& [k, v] : leaves) forward.set(k, v);
  for (auto it = leaves.rbegin(); it != leaves.rend(); ++it)
    backward.set(it->first, it->second);
  EXPECT_EQ(forward.root(), built.root());
  EXPECT_EQ(backward.root(), built.root());

  // Duplicate keys in build(): last value wins.
  auto dup = leaves;
  dup.emplace_back(h(3), h(42));
  const MerkleTrie rebuilt = MerkleTrie::build(dup);
  forward.set(h(3), h(42));
  EXPECT_EQ(rebuilt.root(), forward.root());
}

TEST(MerkleTrie, ProofForWrongKeyOrValueRejected) {
  MerkleTrie trie;
  for (std::uint64_t i = 0; i < 9; ++i) trie.set(h(i), h(100 + i));
  const TrieProof proof = trie.prove(h(4));
  EXPECT_TRUE(MerkleTrie::verify_present(trie.root(), h(4), h(104), proof));
  // Same proof, wrong claims: every variation must fail.
  EXPECT_FALSE(MerkleTrie::verify_present(trie.root(), h(4), h(105), proof));
  EXPECT_FALSE(MerkleTrie::verify_present(trie.root(), h(5), h(105), proof));
  Hash256 other_root = trie.root();
  other_root.bytes[0] ^= 1;
  EXPECT_FALSE(MerkleTrie::verify_present(other_root, h(4), h(104), proof));
  // A present key cannot be proven absent, nor vice versa.
  EXPECT_FALSE(MerkleTrie::verify_absent(trie.root(), h(4), proof));
  const TrieProof absent = trie.prove(h(77));
  EXPECT_TRUE(MerkleTrie::verify_absent(trie.root(), h(77), absent));
  EXPECT_FALSE(
      MerkleTrie::verify_present(trie.root(), h(77), absent.leaf_value, absent));

  // Tampered steps: flipped sibling, reordered levels.
  TrieProof bad = proof;
  ASSERT_FALSE(bad.steps.empty());
  bad.steps[0].sibling.bytes[5] ^= 1;
  EXPECT_FALSE(MerkleTrie::verify_present(trie.root(), h(4), h(104), bad));
  if (proof.steps.size() >= 2) {
    TrieProof swapped = proof;
    std::swap(swapped.steps[0], swapped.steps[1]);
    EXPECT_FALSE(MerkleTrie::verify_present(trie.root(), h(4), h(104), swapped));
  }
}

TEST(MerkleTrie, ProofCodecRoundTrip) {
  MerkleTrie trie;
  for (std::uint64_t i = 0; i < 20; ++i) trie.set(h(i), h(300 + i));
  const TrieProof proof = trie.prove(h(11));
  const util::Bytes wire = proof.encode();
  const auto back = TrieProof::decode(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->leaf_key, proof.leaf_key);
  EXPECT_EQ(back->leaf_value, proof.leaf_value);
  ASSERT_EQ(back->steps.size(), proof.steps.size());
  EXPECT_TRUE(MerkleTrie::verify_present(trie.root(), h(11), h(311), *back));
  // Truncated or padded payloads fail to decode.
  util::Bytes cut(wire.begin(), wire.end() - 1);
  EXPECT_FALSE(TrieProof::decode(cut).has_value());
  util::Bytes padded = wire;
  padded.push_back(0);
  EXPECT_FALSE(TrieProof::decode(padded).has_value());
}

TEST(MerkleTrie, ProofBeforeAnyRootReadVerifiesAgainstNextRoot) {
  // Never-read trie: the proof is the read that flushes.
  MerkleTrie fresh;
  for (std::uint64_t i = 0; i < 25; ++i) fresh.set(h(i), h(200 + i));
  const TrieProof first = fresh.prove(h(9));
  EXPECT_TRUE(MerkleTrie::verify_present(fresh.root(), h(9), h(209), first));

  // Read once, then several writes nobody has read yet: in-place updates, an
  // insert and an erase.
  MerkleTrie trie;
  for (std::uint64_t i = 0; i < 40; ++i) trie.set(h(i), h(100 + i));
  (void)trie.root();
  trie.set(h(3), h(7));
  trie.set(h(40), h(140));
  trie.set(h(17), h(8));
  EXPECT_TRUE(trie.erase(h(21)));
  const TrieProof present = trie.prove(h(3));
  const TrieProof inserted = trie.prove(h(40));
  const TrieProof absent = trie.prove(h(21));
  const Hash256 root = trie.root();
  EXPECT_TRUE(MerkleTrie::verify_present(root, h(3), h(7), present));
  EXPECT_TRUE(MerkleTrie::verify_present(root, h(40), h(140), inserted));
  EXPECT_TRUE(MerkleTrie::verify_absent(root, h(21), absent));

  std::vector<std::pair<Hash256, Hash256>> leaves;
  for (std::uint64_t i = 0; i <= 40; ++i)
    if (i != 21) leaves.emplace_back(h(i), h(100 + i));
  leaves.emplace_back(h(3), h(7));
  leaves.emplace_back(h(17), h(8));
  EXPECT_EQ(root, MerkleTrie::build(leaves).root());
}

/// One read between writes, in either order: root() must equal a fresh bulk
/// build of `model`, and a proof for a present or absent key (which may be
/// the read that flushes) must verify against that root.
::testing::AssertionResult read_matches(const MerkleTrie& trie,
                                        const std::map<Hash256, Hash256>& model,
                                        util::Rng& rng) {
  const Hash256 expect = MerkleTrie::build(std::vector<std::pair<Hash256, Hash256>>(
                                               model.begin(), model.end()))
                             .root();
  const bool pick_present = !model.empty() && rng.bernoulli(0.7);
  const Hash256 key =
      pick_present ? std::next(model.begin(),
                               static_cast<long>(rng.uniform(model.size())))->first
                   : random_hash(rng);
  const bool root_first = rng.bernoulli(0.5);
  Hash256 got;
  if (root_first) got = trie.root();
  const TrieProof proof = trie.prove(key);
  if (!root_first) got = trie.root();
  if (got != expect) return ::testing::AssertionFailure() << "root diverged";
  const auto it = model.find(key);
  const bool ok = it != model.end()
                      ? MerkleTrie::verify_present(expect, key, it->second, proof)
                      : MerkleTrie::verify_absent(expect, key, proof);
  if (!ok) return ::testing::AssertionFailure() << "proof failed";
  return ::testing::AssertionSuccess();
}

// Random set/erase streams against two oracles: a std::map model for
// membership and MerkleTrie::build for the root. root()/prove() reads land at
// random points between writes, so a flush sees anywhere from one to dozens
// of pending writes; every fourth round first drains the trie to empty and
// refills it from the key pool. SC_TRIE_FUZZ_ROUNDS cranks the effort.
TEST(TrieDifferentialFuzz, RandomDeltaStreamsMatchFullRecompute) {
  std::uint64_t rounds = 40;
  if (const char* env = std::getenv("SC_TRIE_FUZZ_ROUNDS"))
    rounds = std::strtoull(env, nullptr, 10);

  util::Rng rng(0xf022);
  MerkleTrie trie;
  std::map<Hash256, Hash256> model;
  std::vector<Hash256> keys;  // insertion pool, including erased ones
  for (std::uint64_t round = 0; round < rounds; ++round) {
    if (round % 4 == 3) {
      // Erase to empty (reads included, always one on the last leaf alone),
      // then re-insert into freed slots.
      while (!model.empty()) {
        if (model.size() == 1 || rng.bernoulli(0.05)) {
          ASSERT_TRUE(read_matches(trie, model, rng)) << "round " << round;
        }
        const auto it = std::next(model.begin(),
                                  static_cast<long>(rng.uniform(model.size())));
        const Hash256 key = it->first;
        model.erase(it);
        ASSERT_TRUE(trie.erase(key));
      }
      ASSERT_TRUE(trie.empty());
      ASSERT_TRUE(read_matches(trie, model, rng)) << "round " << round;
      ASSERT_TRUE(trie.root().is_zero());
    }
    const std::size_t ops = 20 + rng.uniform(60);
    for (std::size_t i = 0; i < ops; ++i) {
      const bool reuse = !keys.empty() && rng.bernoulli(0.5);
      const Hash256 key =
          reuse ? keys[rng.uniform(keys.size())] : random_hash(rng);
      if (!reuse) keys.push_back(key);
      if (rng.bernoulli(0.3)) {
        EXPECT_EQ(trie.erase(key), model.erase(key) > 0);
      } else {
        const Hash256 value = random_hash(rng);
        trie.set(key, value);
        model[key] = value;
      }
      if (rng.bernoulli(0.1)) {
        ASSERT_TRUE(read_matches(trie, model, rng)) << "round " << round;
      }
    }
    ASSERT_TRUE(read_matches(trie, model, rng)) << "round " << round;
    ASSERT_EQ(trie.leaf_count(), model.size());

    if (!model.empty()) {
      const auto it = std::next(model.begin(),
                                static_cast<long>(rng.uniform(model.size())));
      const TrieProof proof = trie.prove(it->first);
      ASSERT_TRUE(MerkleTrie::verify_present(trie.root(), it->first,
                                             it->second, proof));
    }
    Hash256 absent = random_hash(rng);
    while (model.contains(absent)) absent = random_hash(rng);
    ASSERT_TRUE(MerkleTrie::verify_absent(trie.root(), absent, trie.prove(absent)));
  }
}

}  // namespace
}  // namespace sc::crypto
