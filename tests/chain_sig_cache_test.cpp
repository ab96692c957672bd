// Verified-signature cache + batched verification: each signature is ECDSA-
// checked once per process, a forged signature over a known body has its own
// tx id and never inherits a hit, eviction is bounded and FIFO, and the
// mempool/blockchain integration counts its hits.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/executor.hpp"
#include "chain/mempool.hpp"
#include "chain/sig_cache.hpp"
#include "crypto/batch_verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Transaction transfer(const crypto::KeyPair& from, const Address& to,
                     Amount value, std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = 21'000;
  tx.sign_with(from);
  return tx;
}

TEST(SigCache, SecondCheckOfSameTripleIsAHit) {
  SigCache cache;
  const Transaction tx = transfer(key(1), key(2).address(), 100, 0);
  EXPECT_EQ(cache.check(tx, tx.id()), SigVerdict::kVerified);
  EXPECT_EQ(cache.check(tx, tx.id()), SigVerdict::kCacheHit);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SigCache, ForgedSignatureOverKnownBodyDoesNotInheritHit) {
  SigCache cache;
  const auto alice = key(1);
  const auto mallory = key(66);
  Transaction genuine = transfer(alice, key(2).address(), 100, 0);
  EXPECT_EQ(cache.check(genuine, genuine.id()), SigVerdict::kVerified);

  // Same signed body, but the signature was produced by a different key: the
  // tx id covers the signature, so the forgery has its own id, misses, and
  // the full verification rejects it.
  Transaction forged = genuine;
  forged.signature = mallory.sign(forged.signing_hash());
  ASSERT_EQ(forged.signing_hash(), genuine.signing_hash());
  ASSERT_NE(forged.id(), genuine.id());
  EXPECT_EQ(cache.check(forged, forged.id()), SigVerdict::kInvalid);
  EXPECT_FALSE(cache.contains(forged.id()));
  EXPECT_EQ(cache.size(), 1u);
  // The genuine transaction still hits.
  EXPECT_EQ(cache.check(genuine, genuine.id()), SigVerdict::kCacheHit);
}

TEST(SigCache, InvalidSignatureIsNeverCached) {
  SigCache cache;
  Transaction tx = transfer(key(1), key(2).address(), 100, 0);
  tx.signature.r = tx.signature.r + crypto::U256(1);  // Corrupt.
  EXPECT_EQ(cache.check(tx, tx.id()), SigVerdict::kInvalid);
  EXPECT_EQ(cache.check(tx, tx.id()), SigVerdict::kInvalid);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SigCache, EvictionIsBoundedAndFifo) {
  SigCache cache(2);
  const auto alice = key(1);
  const Transaction t0 = transfer(alice, key(2).address(), 1, 0);
  const Transaction t1 = transfer(alice, key(2).address(), 1, 1);
  const Transaction t2 = transfer(alice, key(2).address(), 1, 2);
  cache.insert(t0.id());
  cache.insert(t1.id());
  cache.insert(t2.id());  // Evicts t0 (oldest).
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.contains(t0.id()));
  EXPECT_TRUE(cache.contains(t1.id()));
  EXPECT_TRUE(cache.contains(t2.id()));
}

TEST(SigCache, NullCacheDegradesToPlainVerification) {
  const Transaction good = transfer(key(1), key(2).address(), 1, 0);
  Transaction bad = good;
  bad.signature.s = bad.signature.s + crypto::U256(1);
  EXPECT_EQ(check_signature(good, good.id(), nullptr), SigVerdict::kVerified);
  EXPECT_EQ(check_signature(bad, bad.id(), nullptr), SigVerdict::kInvalid);
}

TEST(BatchVerify, MixedBatchReportsPerJobResults) {
  std::vector<crypto::VerifyJob> jobs;
  std::vector<bool> expected;
  for (int i = 0; i < 12; ++i) {
    Transaction tx = transfer(key(100 + i), key(2).address(), 1, 0);
    if (i % 3 == 0) tx.signature.r = tx.signature.r + crypto::U256(1);  // Every third job is corrupt.
    jobs.push_back({tx.sender_pubkey, tx.signing_hash(), tx.signature});
    expected.push_back(i % 3 != 0);
  }
  // Inline (no pool) and pooled sharding must agree exactly.
  EXPECT_EQ(crypto::batch_verify(jobs, nullptr), expected);
  util::ThreadPool pool(3);
  EXPECT_EQ(crypto::batch_verify(jobs, &pool), expected);
  EXPECT_FALSE(crypto::batch_verify_all(jobs, &pool));
  EXPECT_TRUE(crypto::batch_verify_all({jobs[1], jobs[2]}, &pool));
}

TEST(BatchVerify, OffCurveKeyFailsCleanly) {
  Transaction tx = transfer(key(1), key(2).address(), 1, 0);
  tx.sender_pubkey.x = tx.sender_pubkey.x + crypto::U256(1);  // No longer on the curve.
  const auto ok =
      crypto::batch_verify({{tx.sender_pubkey, tx.signing_hash(), tx.signature}}, nullptr);
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_FALSE(ok[0]);
}

TEST(SigCache, MempoolAdmissionCountsCacheHits) {
  telemetry::Telemetry tel;
  SigCache cache;
  Mempool pool;
  pool.set_telemetry(&tel);
  pool.set_sig_cache(&cache);

  const Transaction tx = transfer(key(1), key(2).address(), 100, 0);
  ASSERT_TRUE(pool.add(tx));  // Fresh verification, no hit.
  auto& hit_counter = tel.registry.counter(
      "mempool_sig_cache_hits_total",
      "Admission signature checks satisfied by the verified-tx cache");
  EXPECT_EQ(hit_counter.value(), 0u);

  // Re-submission is rejected as a duplicate, but the signature check runs
  // first and is satisfied from the cache.
  std::string why;
  EXPECT_FALSE(pool.add(tx, &why));
  EXPECT_EQ(why, "duplicate");
  EXPECT_EQ(hit_counter.value(), 1u);
}

TEST(SigCache, BlockValidationReusesAdmissionVerifications) {
  telemetry::Telemetry tel;
  const auto alice = key(1);
  const auto miner = key(9);
  GenesisConfig genesis{{{alice.address(), 10 * kEther}}, 0, 1};
  Blockchain chain(genesis, &tel);

  Mempool pool;
  pool.set_telemetry(&tel);
  pool.set_sig_cache(&chain.sig_cache());

  std::vector<Transaction> txs;
  for (int i = 0; i < 4; ++i) {
    txs.push_back(transfer(alice, key(20 + i).address(), 1000, i));
    ASSERT_TRUE(pool.add(txs.back()));
  }
  const std::uint64_t verified_at_admission = chain.sig_cache().misses();
  EXPECT_EQ(verified_at_admission, 4u);

  Block block = chain.build_block_template(miner.address(), 100, 1, txs);
  std::string why;
  ASSERT_TRUE(chain.submit_block(block, &why, /*skip_pow=*/true)) << why;

  // Batch pre-validation found every signature cached, so no further ECDSA
  // work happened anywhere in submit_block (structural check + execution
  // both hit).
  EXPECT_EQ(chain.sig_cache().misses(), verified_at_admission);
  EXPECT_EQ(tel.registry
                .counter("chain_sig_batch_verified_total",
                         "Signatures verified by block-level batch pre-validation")
                .value(),
            0u);
  EXPECT_GE(chain.sig_cache().hits(), 8u);  // validate loop + executor, 4 txs each.
}

TEST(SigCache, BlockBatchPreValidationFeedsTheCache) {
  telemetry::Telemetry tel;
  const auto alice = key(1);
  const auto miner = key(9);
  GenesisConfig genesis{{{alice.address(), 10 * kEther}}, 0, 1};
  Blockchain builder(genesis);
  Blockchain chain(genesis, &tel);

  std::vector<Transaction> txs;
  for (int i = 0; i < 3; ++i) txs.push_back(transfer(alice, key(30 + i).address(), 500, i));

  // Built on a SEPARATE chain: the miner's template execution (state-root
  // sealing) warms that chain's own cache, so the receiving replica's first
  // sight of the signatures is submit_block, which batch-verifies them once;
  // the per-tx loop and executor then hit.
  Block block = builder.build_block_template(miner.address(), 100, 1, txs);
  std::string why;
  ASSERT_TRUE(chain.submit_block(block, &why, /*skip_pow=*/true)) << why;
  EXPECT_EQ(tel.registry
                .counter("chain_sig_batch_verified_total",
                         "Signatures verified by block-level batch pre-validation")
                .value(),
            3u);
  EXPECT_EQ(chain.sig_cache().misses(), 0u);  // check() never missed.
  EXPECT_GE(chain.sig_cache().hits(), 6u);
}

TEST(SigCache, InvalidSignatureInBodyStillRejectsBlock) {
  const auto alice = key(1);
  GenesisConfig genesis{{{alice.address(), 10 * kEther}}, 0, 1};
  Blockchain chain(genesis);

  Transaction tx = transfer(alice, key(2).address(), 100, 0);
  tx.signature.r = tx.signature.r + crypto::U256(1);
  Block block = chain.build_block_template(key(9).address(), 100, 1, {tx});
  std::string why;
  EXPECT_FALSE(chain.submit_block(block, &why, /*skip_pow=*/true));
  EXPECT_EQ(why, "invalid transaction in body");
}

}  // namespace
}  // namespace sc::chain
