// One transaction identity: Transaction::id() hashes the full signed encoding
// (body ‖ pubkey ‖ signature), so two keys signing one body are two
// transactions, a copier re-signing a detector's R† cannot crowd it out, and
// the high-s twin of a signature — a second valid encoding that would carry a
// second id — is invalid everywhere a signature is checked. The signature
// itself still covers only the body (signing_hash), byte-identical to the
// signer-blind id it replaced.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/mempool.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "core/messages.hpp"
#include "crypto/keccak.hpp"
#include "telemetry/telemetry.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Transaction transfer(const crypto::KeyPair& from, const Address& to, Amount value,
                     std::uint64_t nonce) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = 21'000;
  tx.sign_with(from);
  return tx;
}

/// (r, n − s): verifies under the primitive, but is not the low-s form.
Transaction high_s_twin(const Transaction& tx) {
  Transaction twin = tx;
  twin.signature.s = crypto::secp256k1::group_order() - tx.signature.s;
  return twin;
}

GenesisConfig funded(const std::vector<crypto::KeyPair>& keys, unsigned lanes = 1) {
  GenesisConfig genesis;
  for (const auto& k : keys) genesis.allocations.push_back({k.address(), 100 * kEther});
  genesis.execution.threads = lanes;
  return genesis;
}

/// Selects from `pool`, seals and connects the next block on `chain`.
Block mine_next(Blockchain& chain, Mempool& pool) {
  const std::vector<Transaction> txs = pool.select(chain.best_state(), 64);
  Block block = chain.build_block_template(key(999).address(),
                                           10 * (chain.best_height() + 1), 1, txs);
  std::string why;
  EXPECT_TRUE(chain.submit_block(block, &why, /*skip_pow=*/true)) << why;
  pool.remove(block.transactions);
  return block;
}

TEST(TxIdentity, TwoSignersOfOneBodyAreTwoTransactions) {
  const auto alice = key(1);
  const auto bob = key(2);
  const Address carol = key(3).address();
  Blockchain chain(funded({alice, bob}));
  Mempool pool;
  pool.set_sig_cache(&chain.sig_cache());

  const Transaction from_alice = transfer(alice, carol, 5, 0);
  const Transaction from_bob = transfer(bob, carol, 5, 0);
  ASSERT_EQ(from_alice.body_bytes(), from_bob.body_bytes());
  ASSERT_NE(from_alice.id(), from_bob.id());

  std::string why;
  ASSERT_TRUE(pool.add(from_alice, &why)) << why;
  ASSERT_TRUE(pool.add(from_bob, &why)) << why;
  EXPECT_EQ(pool.size(), 2u);

  const Block block = mine_next(chain, pool);
  ASSERT_EQ(block.transactions.size(), 2u);
  EXPECT_EQ(chain.best_state().balance(carol), 10u);

  const auto at_alice = chain.find_transaction(from_alice.id());
  const auto at_bob = chain.find_transaction(from_bob.id());
  ASSERT_TRUE(at_alice && at_bob);
  EXPECT_EQ(at_alice->block_id, block.id());
  EXPECT_EQ(at_bob->block_id, block.id());
  EXPECT_NE(at_alice->index, at_bob->index);

  const Receipt* r_alice = chain.receipt_of(from_alice.id());
  const Receipt* r_bob = chain.receipt_of(from_bob.id());
  ASSERT_TRUE(r_alice && r_bob);
  EXPECT_NE(r_alice, r_bob);
  EXPECT_EQ(r_alice->tx_id, from_alice.id());
  EXPECT_EQ(r_bob->tx_id, from_bob.id());
  EXPECT_TRUE(r_alice->ok());
  EXPECT_TRUE(r_bob->ok());
}

TEST(TxIdentity, CopierCannotKeepADetectorsInitialReportOutOfTheNextBlock) {
  const auto detector = key(10);
  const auto copier = key(11);
  Blockchain chain(funded({detector, copier}));
  Mempool pool;
  pool.set_sig_cache(&chain.sig_cache());

  core::DetailedReport detailed;
  detailed.sra_id = crypto::keccak256(util::as_bytes("release"));
  detailed.description = {{7, detect::Severity::kHigh, "overflow"}};
  detailed.finalize(detector);
  const core::InitialReport initial = core::InitialReport::commit_to(detailed, detector);

  Transaction report;
  report.kind = TxKind::kCall;
  report.nonce = 0;
  report.to = key(12).address();  // Stands in for the release's registry contract.
  report.gas_limit = 200'000;
  report.data = contracts::register_initial_calldata(initial.detailed_hash);
  report.protocol = ProtocolKind::kInitialReport;
  report.protocol_payload = initial.serialize();
  report.sign_with(detector);

  // The copier sees R† pending, re-signs its body and gets there first.
  Transaction copy = report;
  copy.sign_with(copier);
  std::string why;
  ASSERT_TRUE(pool.add(copy, &why)) << why;
  ASSERT_TRUE(pool.add(report, &why)) << why;

  const Block block = mine_next(chain, pool);
  const auto at = chain.find_transaction(report.id());
  ASSERT_TRUE(at.has_value());
  EXPECT_EQ(at->block_id, block.id());
  EXPECT_EQ(at->height, 1u);
  const Receipt* receipt = chain.receipt_of(report.id());
  ASSERT_NE(receipt, nullptr);
  EXPECT_TRUE(receipt->ok()) << receipt->error;
  EXPECT_EQ(block.transactions[at->index].sender(), detector.address());
}

TEST(TxIdentity, HighSTwinIsRefusedByMempool) {
  const auto alice = key(1);
  const Transaction tx = transfer(alice, key(2).address(), 5, 0);
  const Transaction twin = high_s_twin(tx);
  ASSERT_TRUE(crypto::secp256k1::verify(twin.sender_pubkey, twin.signing_hash(),
                                        twin.signature));
  ASSERT_NE(twin.id(), tx.id());
  EXPECT_FALSE(twin.verify_signature());

  SigCache cache;
  Mempool pool;
  pool.set_sig_cache(&cache);
  std::string why;
  EXPECT_FALSE(pool.add(twin, &why));
  EXPECT_EQ(why, "bad signature");
  EXPECT_FALSE(cache.contains(twin.id()));
  ASSERT_TRUE(pool.add(tx, &why)) << why;
  EXPECT_FALSE(pool.add(twin, &why));
  EXPECT_EQ(pool.size(), 1u);
}

/// A block whose body carries a high-s twin is refused, though the twin is
/// the replica's first sight of that signature (no cached verdict): the batch
/// pre-validation must not verify it into the cache.
void high_s_twin_refused_by_submit_block(unsigned lanes) {
  telemetry::Telemetry tel;
  const auto alice = key(1);
  const auto bob = key(2);
  const GenesisConfig genesis = funded({alice, bob}, lanes);
  Blockchain builder(genesis);
  Blockchain chain(genesis, &tel);

  std::vector<Transaction> txs;
  for (std::uint64_t n = 0; n < 6; ++n)
    txs.push_back(transfer(alice, key(20 + n).address(), 1000, n));
  txs.push_back(high_s_twin(transfer(bob, key(30).address(), 1000, 0)));
  const Block block = builder.build_block_template(key(9).address(), 100, 1, txs);

  std::string why;
  EXPECT_FALSE(chain.submit_block(block, &why, /*skip_pow=*/true));
  EXPECT_EQ(why, "invalid transaction in body");
  EXPECT_EQ(chain.best_height(), 0u);
  EXPECT_FALSE(chain.sig_cache().contains(txs.back().id()));
  EXPECT_EQ(tel.registry
                .counter("chain_sig_batch_verified_total",
                         "Signatures verified by block-level batch pre-validation")
                .value(),
            6u);

  // The same body with the low-s signature connects.
  txs.back() = high_s_twin(txs.back());
  ASSERT_TRUE(txs.back().verify_signature());
  const Block fixed = builder.build_block_template(key(9).address(), 100, 1, txs);
  ASSERT_TRUE(chain.submit_block(fixed, &why, /*skip_pow=*/true)) << why;
}

TEST(TxIdentity, HighSTwinIsRefusedBySubmitBlockOneLane) {
  high_s_twin_refused_by_submit_block(1);
}

TEST(TxIdentity, HighSTwinIsRefusedBySubmitBlockFourLanes) {
  high_s_twin_refused_by_submit_block(4);
}

TEST(TxIdentity, SigningHashIsTheSignerBlindIdItReplaced) {
  const auto signer = crypto::KeyPair::from_private(crypto::U256(0x5eed));
  ASSERT_TRUE(signer.has_value());
  Transaction tx;
  tx.kind = TxKind::kCall;
  tx.nonce = 3;
  tx.to = key(2).address();
  tx.value = 42;
  tx.gas_limit = 90'000;
  tx.data = util::Bytes{0xde, 0xad, 0xbe, 0xef};
  tx.protocol = ProtocolKind::kInitialReport;
  tx.protocol_payload = util::Bytes{1, 2, 3};
  tx.sign_with(*signer);

  // Keccak-256 of the body: what Transaction::id() returned before ids
  // committed to the signer, so every signature and every wire byte stays
  // as it was.
  EXPECT_EQ(tx.signing_hash().hex(),
            "729d52267b6ae75ba2c59101a7b8f289b2394fabe7444ea6d731d99626f8b6e7");
  EXPECT_EQ(util::to_hex(tx.signature.encode()),
            "cf45fc7a9a14e4de7350db761272fe7273f80c9f6369a1c68832985c2c6c3abb"
            "47bbecaf83cc97d7d6771ee02239a3dcd5e24f2c8d7584d530759802f78566d2");
  EXPECT_EQ(util::to_hex(tx.encode()),
            "490000000203000000000000002b9844a1f306b2937222e99e3abcb2431987fad6"
            "2a00000000000000905f0100000000006400000000000000040000"
            "00deadbeef000000000203000000010203"
            "cca6649424131300f1ff26543e27b7f1e20f7268d707e11210ea53a00171d198"
            "695e5b35f332d455ec8f989d9261c80ab62c882859af3c590de14f9e3c3b1e1a"
            "cf45fc7a9a14e4de7350db761272fe7273f80c9f6369a1c68832985c2c6c3abb"
            "47bbecaf83cc97d7d6771ee02239a3dcd5e24f2c8d7584d530759802f78566d2");
  EXPECT_EQ(tx.id(), crypto::keccak256(tx.encode()));
  EXPECT_NE(tx.id(), tx.signing_hash());
}

}  // namespace
}  // namespace sc::chain
