#include "chain/light_client.hpp"

#include "chain/pow.hpp"
#include "telemetry/telemetry.hpp"

namespace sc::chain {

struct LightClient::Metrics {
  telemetry::Registry& r;
  telemetry::Counter& verified =
      r.counter("lightclient_proof_verified_total",
                "State proofs a light client verified against a header's state_root");
  telemetry::Counter& rejected =
      r.counter("lightclient_proof_rejected_total",
                "State proofs a light client rejected (tampered, mismatched or "
                "for an unconfirmed block)");
};

LightClient::LightClient(const BlockHeader& genesis, telemetry::Telemetry* tel)
    : metrics_(&telemetry::resolve(tel).handles<Metrics>()) {
  Entry entry;
  entry.header = genesis;
  entry.cumulative_difficulty = 0;
  genesis_id_ = genesis.id();
  best_head_ = genesis_id_;
  headers_.emplace(genesis_id_, std::move(entry));
  reindex();
}

bool LightClient::accept_header(const BlockHeader& header, std::string* why,
                                bool skip_pow) {
  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };
  const crypto::Hash256 id = header.id();
  if (headers_.contains(id)) return fail("duplicate header");
  const auto parent_it = headers_.find(header.prev_id);
  if (parent_it == headers_.end()) return fail("unknown parent");
  const Entry& parent = parent_it->second;
  if (header.height != parent.header.height + 1) return fail("height mismatch");
  if (header.timestamp < parent.header.timestamp)
    return fail("timestamp regression");
  if (!skip_pow && !check_pow(header, id)) return fail("invalid proof of work");

  Entry entry;
  entry.header = header;
  entry.cumulative_difficulty =
      parent.cumulative_difficulty + std::max<std::uint64_t>(1, header.difficulty);
  const bool better =
      entry.cumulative_difficulty > headers_.at(best_head_).cumulative_difficulty;
  headers_.emplace(id, std::move(entry));
  if (better) {
    best_head_ = id;
    reindex();
  }
  return true;
}

std::uint64_t LightClient::best_height() const {
  return headers_.at(best_head_).header.height;
}

bool LightClient::is_confirmed(const crypto::Hash256& block_id,
                               std::uint64_t depth) const {
  const auto it = headers_.find(block_id);
  if (it == headers_.end()) return false;
  const std::uint64_t height = it->second.header.height;
  if (height >= canonical_.size() || canonical_[height] != block_id) return false;
  return best_height() >= height + depth;
}

bool LightClient::verify_inclusion(const crypto::Hash256& tx_id,
                                   const crypto::Hash256& block_id,
                                   const crypto::MerkleProof& proof,
                                   std::uint64_t depth) const {
  if (!is_confirmed(block_id, depth)) return false;
  const BlockHeader& header = headers_.at(block_id).header;
  return crypto::merkle_verify(tx_id, proof, header.merkle_root);
}

bool LightClient::count_verdict(bool ok) const {
  (ok ? metrics_->verified : metrics_->rejected).inc();
  return ok;
}

bool LightClient::verify_account(const crypto::Hash256& block_id,
                                 const AccountProof& proof,
                                 std::uint64_t depth) const {
  const auto it = headers_.find(block_id);
  if (it == headers_.end() || !is_confirmed(block_id, depth))
    return count_verdict(false);
  return count_verdict(proof.verify(it->second.header.state_root));
}

bool LightClient::verify_storage(const crypto::Hash256& block_id,
                                 const StorageProof& proof,
                                 std::uint64_t depth) const {
  const auto it = headers_.find(block_id);
  if (it == headers_.end() || !is_confirmed(block_id, depth))
    return count_verdict(false);
  return count_verdict(proof.verify(it->second.header.state_root));
}

std::optional<Amount> LightClient::verified_balance(
    const crypto::Hash256& block_id, const AccountProof& proof,
    std::uint64_t depth) const {
  if (!verify_account(block_id, proof, depth)) return std::nullopt;
  return proof.exists ? proof.balance : 0;
}

std::optional<BlockHeader> LightClient::header_at(std::uint64_t height) const {
  if (height >= canonical_.size()) return std::nullopt;
  return headers_.at(canonical_[height]).header;
}

void LightClient::reindex() {
  canonical_.clear();
  std::vector<crypto::Hash256> reversed;
  crypto::Hash256 cursor = best_head_;
  while (true) {
    reversed.push_back(cursor);
    const Entry& entry = headers_.at(cursor);
    if (entry.header.height == 0) break;
    cursor = entry.header.prev_id;
  }
  canonical_.assign(reversed.rbegin(), reversed.rend());
}

}  // namespace sc::chain
