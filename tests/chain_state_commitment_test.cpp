// StateCommitment: the two-level account/storage trie behind `state_root`.
// Differential coverage of the incremental update path against the full
// rebuild and the static root_of oracle, unapply-direction root rollback,
// account/storage proofs (inclusion and absence), and the proof codecs.
#include <gtest/gtest.h>

#include <vector>

#include "chain/blockchain.hpp"
#include "chain/state_commitment.hpp"
#include "pinned_genesis.hpp"
#include "util/rng.hpp"

namespace sc::chain {
namespace {

Address addr(std::uint8_t tag) {
  Address a{};
  a.bytes[0] = tag;
  return a;
}

/// A populated state with plain accounts, a contract with storage, and code.
WorldState seeded_state() {
  WorldState state;
  for (int i = 1; i <= 12; ++i) {
    state.add_balance(addr(static_cast<std::uint8_t>(i)), 1000u * i);
    state.touch(addr(static_cast<std::uint8_t>(i))).nonce = i;
  }
  state.set_code(addr(3), util::Bytes{0x60, 0x00, 0x55});
  state.set_storage(addr(3), crypto::U256{1}, crypto::U256{11});
  state.set_storage(addr(3), crypto::U256{2}, crypto::U256{22});
  return state;
}

TEST(StateCommitment, EmptyStateHasZeroRoot) {
  WorldState state;
  StateCommitment commitment;
  commitment.rebuild(state);
  EXPECT_TRUE(commitment.root().is_zero());
  EXPECT_EQ(commitment.node_count(), 0u);
  EXPECT_EQ(StateCommitment::root_of(state), commitment.root());
  // Everything is provably absent under the empty root.
  const AccountProof proof = commitment.prove_account(addr(1), state);
  EXPECT_FALSE(proof.exists);
  EXPECT_TRUE(proof.verify(commitment.root()));
}

TEST(StateCommitment, RebuildMatchesOracleAndCountsNodes) {
  const WorldState state = seeded_state();
  StateCommitment commitment;
  commitment.rebuild(state);
  EXPECT_EQ(commitment.root(), StateCommitment::root_of(state));
  EXPECT_EQ(commitment.account_leaves(), state.account_count());
  // 12 account leaves + 11 branches, plus the 2-slot storage trie (2 + 1).
  EXPECT_EQ(commitment.node_count(), 23u + 3u);
}

// Genesis over a fixed 10^3-entry allocation list (one address endowed
// twice, one endowed with zero): the bulk-built root the header commits
// equals the full-rehash oracle, an incremental update over the allocations
// journaled onto an empty state, and the pinned value. Genesis itself keeps
// no delta.
TEST(StateCommitment, PinnedGenesisRootMatchesOracleAndUpdate) {
  const Blockchain chain(pinned::genesis());
  const WorldState& state = chain.best_state();
  EXPECT_EQ(state.account_count(), 999u);
  ASSERT_NE(state.find(pinned::derived(42)), nullptr);  // Zero endowment.
  EXPECT_EQ(state.balance(pinned::derived(17)), 18 * kEther / 1000 + 3 * kEther);
  EXPECT_EQ(chain.state_root(), StateCommitment::root_of(state));
  EXPECT_EQ(chain.block_at(0)->header.state_root, chain.state_root());
  ASSERT_NE(chain.delta_of(chain.genesis_id()), nullptr);
  EXPECT_TRUE(chain.delta_of(chain.genesis_id())->empty());

  WorldState journaled;
  JournaledState journal(journaled);
  for (const auto& [addr, amount] : pinned::genesis().allocations)
    journal.add_balance(addr, amount);
  const StateDelta delta = journal.collect_delta();
  journal.commit(0);
  EXPECT_EQ(journaled.encode(), state.encode());
  StateCommitment incremental;
  incremental.update(delta, journaled);
  EXPECT_EQ(incremental.root(), chain.state_root());
  EXPECT_EQ(chain.state_root().hex(), pinned::kGenesisRoot);
  EXPECT_EQ(chain.genesis_id().hex(), pinned::kGenesisId);
}

TEST(StateCommitment, IncrementalUpdateMatchesFullRebuild) {
  util::Rng rng(0x5C17);
  WorldState state = seeded_state();
  StateCommitment commitment;
  commitment.rebuild(state);

  for (int block = 0; block < 25; ++block) {
    JournaledState js(state);
    const std::size_t ops = 5 + rng.uniform(20);
    for (std::size_t i = 0; i < ops; ++i) {
      const Address a = addr(static_cast<std::uint8_t>(1 + rng.uniform(20)));
      switch (rng.uniform(5)) {
        case 0: js.add_balance(a, 1 + rng.uniform(500)); break;
        case 1: js.sub_balance(a, rng.uniform(200)); break;
        case 2: js.bump_nonce(a); break;
        case 3:
          // Zero writes exercise slot-leaf erasure.
          js.set_storage(a, crypto::U256{rng.uniform(6)},
                         crypto::U256{rng.uniform(3)});
          break;
        default:
          js.set_code(a, util::Bytes{static_cast<std::uint8_t>(rng.uniform(256))});
      }
    }
    const StateDelta delta = js.collect_delta();
    js.commit(0);

    commitment.update(delta, state);
    ASSERT_EQ(commitment.root(), StateCommitment::root_of(state))
        << "block " << block;

    StateCommitment fresh;
    fresh.rebuild(state);
    ASSERT_EQ(commitment.root(), fresh.root()) << "block " << block;
    ASSERT_EQ(commitment.node_count(), fresh.node_count()) << "block " << block;
  }
}

TEST(StateCommitment, UnapplyRollsTheRootBack) {
  WorldState state = seeded_state();
  StateCommitment commitment;
  commitment.rebuild(state);
  const Hash256 parent_root = commitment.root();

  JournaledState js(state);
  ASSERT_TRUE(js.transfer(addr(1), addr(9), 123));
  js.bump_nonce(addr(1));
  js.set_storage(addr(3), crypto::U256{1}, crypto::U256{0});  // clears a slot
  js.set_storage(addr(3), crypto::U256{7}, crypto::U256{77});
  const StateDelta delta = js.collect_delta();
  js.commit(0);

  commitment.update(delta, state);
  const Hash256 child_root = commitment.root();
  EXPECT_NE(child_root, parent_root);
  EXPECT_EQ(child_root, StateCommitment::root_of(state));

  // Reorg direction: unapply the delta, then the SAME update() call reads the
  // restored truth and must land exactly on the parent root.
  delta.unapply(state);
  commitment.update(delta, state);
  EXPECT_EQ(commitment.root(), parent_root);

  // And forward again, byte-identically.
  delta.apply(state);
  commitment.update(delta, state);
  EXPECT_EQ(commitment.root(), child_root);
}

TEST(StateCommitment, AccountProofsIncludingAbsence) {
  const WorldState state = seeded_state();
  StateCommitment commitment;
  commitment.rebuild(state);
  const Hash256 root = commitment.root();

  AccountProof present = commitment.prove_account(addr(5), state);
  EXPECT_TRUE(present.exists);
  EXPECT_EQ(present.balance, 5000u);
  EXPECT_EQ(present.nonce, 5u);
  EXPECT_TRUE(present.verify(root));

  // The contract account binds its code hash and storage root.
  const AccountProof contract = commitment.prove_account(addr(3), state);
  EXPECT_TRUE(contract.verify(root));
  EXPECT_FALSE(contract.code_hash.is_zero());
  EXPECT_FALSE(contract.storage_root.is_zero());

  const AccountProof absent = commitment.prove_account(addr(200), state);
  EXPECT_FALSE(absent.exists);
  EXPECT_TRUE(absent.verify(root));

  // Tampering with any claimed field breaks verification.
  AccountProof forged = present;
  forged.balance += 1;
  EXPECT_FALSE(forged.verify(root));
  forged = present;
  forged.nonce += 1;
  EXPECT_FALSE(forged.verify(root));
  forged = present;
  forged.address = addr(6);
  EXPECT_FALSE(forged.verify(root));
  // An existing account cannot be passed off as absent, nor vice versa.
  forged = present;
  forged.exists = false;
  EXPECT_FALSE(forged.verify(root));
  AccountProof conjured = absent;
  conjured.exists = true;
  conjured.balance = 1'000'000;
  EXPECT_FALSE(conjured.verify(root));
  // A proof is bound to its root.
  Hash256 other_root = root;
  other_root.bytes[0] ^= 1;
  EXPECT_FALSE(present.verify(other_root));
}

TEST(StateCommitment, StorageProofsIncludingAbsence) {
  const WorldState state = seeded_state();
  StateCommitment commitment;
  commitment.rebuild(state);
  const Hash256 root = commitment.root();

  StorageProof set = commitment.prove_storage(addr(3), crypto::U256{1}, state);
  EXPECT_EQ(set.value, crypto::U256{11});
  EXPECT_TRUE(set.verify(root));

  // Absent slot of an existing contract: value zero, still verifiable.
  const StorageProof empty_slot =
      commitment.prove_storage(addr(3), crypto::U256{9}, state);
  EXPECT_TRUE(empty_slot.value.is_zero());
  EXPECT_TRUE(empty_slot.verify(root));

  // Slot of an account with no storage trie at all.
  const StorageProof no_trie =
      commitment.prove_storage(addr(5), crypto::U256{1}, state);
  EXPECT_TRUE(no_trie.value.is_zero());
  EXPECT_TRUE(no_trie.verify(root));

  // Slot of a nonexistent account: absence proof carries the claim.
  const StorageProof no_account =
      commitment.prove_storage(addr(200), crypto::U256{1}, state);
  EXPECT_FALSE(no_account.account.exists);
  EXPECT_TRUE(no_account.value.is_zero());
  EXPECT_TRUE(no_account.verify(root));

  // Tampered value (claiming 12 instead of 11) must fail.
  StorageProof forged = set;
  forged.value = crypto::U256{12};
  EXPECT_FALSE(forged.verify(root));
  // Claiming a set slot is empty must fail too.
  forged = set;
  forged.value = crypto::U256{0};
  EXPECT_FALSE(forged.verify(root));
}

TEST(StateCommitment, ProofCodecRoundTrips) {
  const WorldState state = seeded_state();
  StateCommitment commitment;
  commitment.rebuild(state);
  const Hash256 root = commitment.root();

  for (const Address& a : {addr(3), addr(5), addr(200)}) {
    const AccountProof proof = commitment.prove_account(a, state);
    const auto back = AccountProof::decode(proof.encode());
    ASSERT_TRUE(back.has_value()) << "account " << static_cast<int>(a.bytes[0]);
    EXPECT_EQ(back->address, proof.address);
    EXPECT_EQ(back->exists, proof.exists);
    EXPECT_EQ(back->balance, proof.balance);
    EXPECT_EQ(back->nonce, proof.nonce);
    EXPECT_TRUE(back->verify(root));
  }
  for (const auto& [a, slot] :
       std::vector<std::pair<Address, crypto::U256>>{
           {addr(3), crypto::U256{1}}, {addr(3), crypto::U256{9}},
           {addr(200), crypto::U256{4}}}) {
    const StorageProof proof = commitment.prove_storage(a, slot, state);
    const auto back = StorageProof::decode(proof.encode());
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->slot, proof.slot);
    EXPECT_EQ(back->value, proof.value);
    EXPECT_TRUE(back->verify(root));
  }
  // Truncation fails cleanly.
  const util::Bytes wire = commitment.prove_account(addr(5), state).encode();
  EXPECT_FALSE(
      AccountProof::decode(util::ByteSpan(wire.data(), wire.size() - 1))
          .has_value());
}

}  // namespace
}  // namespace sc::chain
