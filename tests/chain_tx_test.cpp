// Transaction signing, encoding and the executor's gas/fee semantics.
#include <gtest/gtest.h>

#include "chain/executor.hpp"
#include "chain/transaction.hpp"
#include "util/rng.hpp"
#include "vm/assembler.hpp"

namespace sc::chain {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Transaction make_transfer(const crypto::KeyPair& from, const Address& to,
                          Amount value, std::uint64_t nonce = 0) {
  Transaction tx;
  tx.kind = TxKind::kTransfer;
  tx.nonce = nonce;
  tx.to = to;
  tx.value = value;
  tx.gas_limit = 21000;
  tx.gas_price = kDefaultGasPrice;
  tx.sign_with(from);
  return tx;
}

TEST(Transaction, SignVerifyRoundTrip) {
  const auto k = key(1);
  Transaction tx = make_transfer(k, key(2).address(), 100);
  EXPECT_TRUE(tx.verify_signature());
  EXPECT_EQ(tx.sender(), k.address());
}

TEST(Transaction, TamperingBreaksSignature) {
  const auto k = key(1);
  Transaction tx = make_transfer(k, key(2).address(), 100);
  tx.value = 200;
  EXPECT_FALSE(tx.verify_signature());
}

TEST(Transaction, EncodeDecodeRoundTrip) {
  const auto k = key(3);
  Transaction tx = make_transfer(k, key(4).address(), 123, 7);
  tx.protocol = ProtocolKind::kSra;
  tx.protocol_payload = util::Bytes{9, 9, 9};
  tx.sign_with(k);  // re-sign: the signature covers the protocol payload too
  const auto decoded = Transaction::decode(tx.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id(), tx.id());
  EXPECT_EQ(decoded->protocol, ProtocolKind::kSra);
  EXPECT_TRUE(decoded->verify_signature());
}

TEST(Transaction, DecodeRejectsTruncation) {
  const auto k = key(5);
  const Transaction tx = make_transfer(k, key(6).address(), 1);
  util::Bytes wire = tx.encode();
  wire.pop_back();
  EXPECT_FALSE(Transaction::decode(wire).has_value());
}

TEST(Transaction, DecodeRejectsNonCanonicalPubkeyAlias) {
  // The curve point with x = 1, written as x = 1 + p: the same point, but it
  // hashes to another address, so the wire format must accept one form only.
  namespace ec = crypto::secp256k1;
  // y² = 1³ + 7.
  const auto y = crypto::U256::from_hex(
      "4218f20ae6c646b363db68605822fb14264ca8d2587fdd6fbc750d587e76a7ee");
  const ec::AffinePoint canonical{crypto::U256::one(), y, false};
  ASSERT_TRUE(canonical.is_on_curve());
  const ec::AffinePoint alias{crypto::U256::one() + ec::field_prime(), y, false};
  EXPECT_NE(crypto::address_of(alias), crypto::address_of(canonical));
  EXPECT_FALSE(alias.is_on_curve());

  Transaction tx = make_transfer(key(7), key(8).address(), 1);
  tx.sender_pubkey = canonical;
  ASSERT_TRUE(Transaction::decode(tx.encode()).has_value());
  tx.sender_pubkey = alias;
  EXPECT_FALSE(Transaction::decode(tx.encode()).has_value());
  EXPECT_FALSE(tx.verify_signature());
}

TEST(Transaction, IdChangesWithEveryField) {
  const auto k = key(7);
  const Transaction base = make_transfer(k, key(8).address(), 10, 3);
  auto variant = base;
  variant.nonce = 4;
  EXPECT_NE(variant.id(), base.id());
  variant = base;
  variant.gas_price += 1;
  EXPECT_NE(variant.id(), base.id());
  variant = base;
  variant.protocol = ProtocolKind::kInitialReport;
  EXPECT_NE(variant.id(), base.id());
}

TEST(Transaction, ContractAddressDeterministic) {
  const Address sender = key(9).address();
  EXPECT_EQ(contract_address(sender, 0), contract_address(sender, 0));
  EXPECT_NE(contract_address(sender, 0), contract_address(sender, 1));
  EXPECT_NE(contract_address(sender, 0), contract_address(key(10).address(), 0));
}

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : alice_(key(100)), bob_(key(101)) {
    state_.add_balance(alice_.address(), 10 * kEther);
    env_.number = 1;
    env_.timestamp = 1000;
    env_.miner = key(102).address();
  }

  WorldState state_;
  BlockEnv env_;
  crypto::KeyPair alice_;
  crypto::KeyPair bob_;
};

TEST_F(ExecutorTest, SimpleTransfer) {
  const Transaction tx = make_transfer(alice_, bob_.address(), kEther);
  const Receipt r = apply_transaction(state_, env_, tx);
  EXPECT_TRUE(r.ok()) << r.error;
  EXPECT_EQ(state_.balance(bob_.address()), kEther);
  EXPECT_EQ(r.gas_used, 21000u);
  // Alice paid value + fee.
  EXPECT_EQ(state_.balance(alice_.address()),
            10 * kEther - kEther - 21000 * kDefaultGasPrice);
  EXPECT_EQ(state_.nonce(alice_.address()), 1u);
}

TEST_F(ExecutorTest, NonceMismatchRejected) {
  const Transaction tx = make_transfer(alice_, bob_.address(), 1, /*nonce=*/5);
  const Receipt r = apply_transaction(state_, env_, tx);
  EXPECT_EQ(r.status, TxStatus::kInvalid);
  EXPECT_EQ(state_.balance(bob_.address()), 0u);
  EXPECT_EQ(state_.nonce(alice_.address()), 0u);
}

TEST_F(ExecutorTest, InsufficientFundsRejected) {
  const Transaction tx = make_transfer(alice_, bob_.address(), 100 * kEther);
  const Receipt r = apply_transaction(state_, env_, tx);
  EXPECT_EQ(r.status, TxStatus::kInvalid);
  EXPECT_EQ(state_.balance(alice_.address()), 10 * kEther);
}

TEST_F(ExecutorTest, BadSignatureRejected) {
  Transaction tx = make_transfer(alice_, bob_.address(), 1);
  tx.value = 2;  // invalidates the signature
  const Receipt r = apply_transaction(state_, env_, tx);
  EXPECT_EQ(r.status, TxStatus::kInvalid);
}

TEST_F(ExecutorTest, DeployInstallsCodeAndRunsConstructor) {
  // Contract stores 42 at slot 0 when called with any calldata.
  const auto code = vm::assemble("PUSH1 0x2a\nPUSH1 0x00\nSSTORE\nSTOP");
  ASSERT_TRUE(code.ok());

  Transaction tx;
  tx.kind = TxKind::kDeploy;
  tx.nonce = 0;
  tx.value = kEther;  // endowment
  tx.gas_limit = 500000;
  tx.data = code.code;
  tx.ctor_calldata = util::Bytes{0x01};
  tx.sign_with(alice_);

  const Receipt r = apply_transaction(state_, env_, tx);
  ASSERT_TRUE(r.ok()) << r.error;
  const Address addr = r.contract_address;
  EXPECT_EQ(addr, contract_address(alice_.address(), 0));
  EXPECT_FALSE(state_.code(addr).empty());
  EXPECT_EQ(state_.balance(addr), kEther);
  EXPECT_EQ(state_.get_storage(addr, crypto::U256::zero()), crypto::U256{42});
}

TEST_F(ExecutorTest, DeployWithoutConstructorSkipsExecution) {
  const auto code = vm::assemble("PUSH1 0x00\nPUSH1 0x00\nREVERT");  // would fail if run
  ASSERT_TRUE(code.ok());
  Transaction tx;
  tx.kind = TxKind::kDeploy;
  tx.gas_limit = 200000;
  tx.data = code.code;
  tx.sign_with(alice_);
  const Receipt r = apply_transaction(state_, env_, tx);
  EXPECT_TRUE(r.ok());
}

TEST_F(ExecutorTest, FailedConstructorRollsBackButCharges) {
  const auto code = vm::assemble("PUSH1 0x00\nPUSH1 0x00\nREVERT");
  ASSERT_TRUE(code.ok());
  Transaction tx;
  tx.kind = TxKind::kDeploy;
  tx.value = kEther;
  tx.gas_limit = 200000;
  tx.data = code.code;
  tx.ctor_calldata = util::Bytes{0x01};
  tx.sign_with(alice_);

  const Amount before = state_.balance(alice_.address());
  const Receipt r = apply_transaction(state_, env_, tx);
  EXPECT_EQ(r.status, TxStatus::kReverted);
  const Address addr = contract_address(alice_.address(), 0);
  EXPECT_TRUE(state_.code(addr).empty());           // no code installed
  EXPECT_EQ(state_.balance(addr), 0u);              // endowment returned
  EXPECT_LT(state_.balance(alice_.address()), before);  // but gas was charged
  EXPECT_EQ(state_.nonce(alice_.address()), 1u);    // and nonce advanced
}

TEST_F(ExecutorTest, CallRunsContractCode) {
  // Deploy a counter: every call increments slot 0.
  const auto code = vm::assemble(
      "PUSH1 0x00\nSLOAD\nPUSH1 0x01\nADD\nPUSH1 0x00\nSSTORE\nSTOP");
  ASSERT_TRUE(code.ok());
  Transaction deploy;
  deploy.kind = TxKind::kDeploy;
  deploy.gas_limit = 500000;
  deploy.data = code.code;
  deploy.sign_with(alice_);
  const Receipt dr = apply_transaction(state_, env_, deploy);
  ASSERT_TRUE(dr.ok());

  for (std::uint64_t i = 1; i <= 3; ++i) {
    Transaction call;
    call.kind = TxKind::kCall;
    call.nonce = i;
    call.to = dr.contract_address;
    call.gas_limit = 100000;
    call.data = util::Bytes{0x00};
    call.sign_with(alice_);
    const Receipt cr = apply_transaction(state_, env_, call);
    ASSERT_TRUE(cr.ok()) << cr.error;
    EXPECT_EQ(state_.get_storage(dr.contract_address, crypto::U256::zero()),
              crypto::U256{i});
  }
}

TEST_F(ExecutorTest, RevertingCallRollsBackState) {
  const auto code = vm::assemble(
      "PUSH1 0x63\nPUSH1 0x05\nSSTORE\nPUSH1 0x00\nPUSH1 0x00\nREVERT");
  ASSERT_TRUE(code.ok());
  Transaction deploy;
  deploy.kind = TxKind::kDeploy;
  deploy.gas_limit = 500000;
  deploy.data = code.code;
  deploy.sign_with(alice_);
  const Receipt dr = apply_transaction(state_, env_, deploy);
  ASSERT_TRUE(dr.ok());

  Transaction call;
  call.kind = TxKind::kCall;
  call.nonce = 1;
  call.to = dr.contract_address;
  call.value = kEther;
  call.gas_limit = 100000;
  call.sign_with(alice_);
  const Receipt cr = apply_transaction(state_, env_, call);
  EXPECT_EQ(cr.status, TxStatus::kReverted);
  EXPECT_TRUE(state_.get_storage(dr.contract_address, crypto::U256{5}).is_zero());
  EXPECT_EQ(state_.balance(dr.contract_address), 0u);  // value rolled back
}

TEST_F(ExecutorTest, CallToEoaIsPlainTransfer) {
  Transaction call;
  call.kind = TxKind::kCall;
  call.to = bob_.address();
  call.value = 500;
  call.gas_limit = 30000;
  call.sign_with(alice_);
  const Receipt r = apply_transaction(state_, env_, call);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(state_.balance(bob_.address()), 500u);
}

TEST_F(ExecutorTest, BlockBodyCreditsMinerRewardAndFees) {
  const Amount supply_before = state_.total_supply();
  std::vector<Transaction> txs{make_transfer(alice_, bob_.address(), 100)};
  const auto receipts = apply_block_body(state_, env_, txs, kBlockReward);
  ASSERT_EQ(receipts.size(), 1u);
  EXPECT_TRUE(receipts[0].ok());
  EXPECT_EQ(state_.balance(env_.miner), kBlockReward + receipts[0].fee_paid);
  // Conservation: only the block reward is new supply.
  EXPECT_EQ(state_.total_supply(), supply_before + kBlockReward);
}

TEST_F(ExecutorTest, ValueConservationAcrossMixedBlock) {
  const auto code = vm::assemble("PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP");
  ASSERT_TRUE(code.ok());
  Transaction deploy;
  deploy.kind = TxKind::kDeploy;
  deploy.nonce = 0;
  deploy.value = kEther;
  deploy.gas_limit = 500000;
  deploy.data = code.code;
  deploy.ctor_calldata = util::Bytes{1};
  deploy.sign_with(alice_);
  const Transaction transfer = make_transfer(alice_, bob_.address(), 250, 1);

  const Amount supply_before = state_.total_supply();
  apply_block_body(state_, env_, {deploy, transfer}, kBlockReward);
  EXPECT_EQ(state_.total_supply(), supply_before + kBlockReward);
}

}  // namespace
}  // namespace sc::chain
