// Light client: header-only chain tracking with SPV inclusion proofs.
//
// SmartCrowd's detectors are "lightweight" (Section V-B): they neither
// construct nor store the full blockchain. This client keeps only block
// headers (80-ish bytes each), follows the same heaviest-chain fork choice
// as full nodes, and answers two questions a detector or consumer needs:
//   1. is my transaction (report/SRA) included in the canonical chain with
//      k confirmations? — via a Merkle proof against the header's root;
//   2. what is the current canonical head/height?
// Full nodes serve headers and proofs; the client trusts PoW weight, not
// the server.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "chain/block.hpp"
#include "chain/state_commitment.hpp"
#include "chain/types.hpp"
#include "crypto/merkle.hpp"

namespace sc::telemetry {
struct Telemetry;
}

namespace sc::chain {

class LightClient {
 public:
  /// Starts from a trusted genesis header (the bootstrap checkpoint). `tel`
  /// receives the lightclient_proof_{verified,rejected}_total counters
  /// (nullptr → telemetry::global()).
  explicit LightClient(const BlockHeader& genesis,
                       telemetry::Telemetry* tel = nullptr);

  /// Validates linkage, PoW and timestamps, then stores the header. Headers
  /// may arrive out of order across forks; unknown-parent headers are
  /// rejected (callers fetch backwards until they link).
  bool accept_header(const BlockHeader& header, std::string* why = nullptr,
                     bool skip_pow = false);

  const crypto::Hash256& best_head() const { return best_head_; }
  std::uint64_t best_height() const;
  std::size_t header_count() const { return headers_.size(); }

  /// Canonical-chain membership with at least `depth` headers on top.
  bool is_confirmed(const crypto::Hash256& block_id,
                    std::uint64_t depth = kConfirmationDepth) const;

  /// SPV check: `tx_id` is in block `block_id` (per `proof` against that
  /// header's Merkle root), and that block is confirmed on the canonical
  /// chain. This is what lets a detector know its R† landed before it
  /// reveals R*.
  bool verify_inclusion(const crypto::Hash256& tx_id,
                        const crypto::Hash256& block_id,
                        const crypto::MerkleProof& proof,
                        std::uint64_t depth = kConfirmationDepth) const;

  /// Header at a canonical height (nullopt past the tip).
  std::optional<BlockHeader> header_at(std::uint64_t height) const;

  // -- Stateless state queries (against header.state_root) ------------------
  // Each checks the block is canonical with `depth` confirmations, then
  // verifies the proof against that header's state root — no WorldState, no
  // trust in the serving full node. Tampered or mismatched proofs count into
  // lightclient_proof_rejected_total.

  /// Account proof: balance/nonce/code-hash claims, or proof of absence
  /// (proof.exists == false). This is the detector's balance query.
  bool verify_account(const crypto::Hash256& block_id, const AccountProof& proof,
                      std::uint64_t depth = 0) const;
  /// Storage-slot proof (zero value = absent slot). SRA fields and detection
  /// -report commitment states are contract slots, so this is the SRA/report
  /// query surface.
  bool verify_storage(const crypto::Hash256& block_id, const StorageProof& proof,
                      std::uint64_t depth = 0) const;
  /// Convenience: a verified account proof's balance (nullopt when the proof
  /// fails; 0 for a proven-absent account).
  std::optional<Amount> verified_balance(const crypto::Hash256& block_id,
                                         const AccountProof& proof,
                                         std::uint64_t depth = 0) const;

 private:
  bool count_verdict(bool ok) const;
  struct Entry {
    BlockHeader header;
    std::uint64_t cumulative_difficulty = 0;
  };

  void reindex();

  struct Metrics;
  Metrics* metrics_;  ///< The sink's proof counters; never null.
  std::unordered_map<crypto::Hash256, Entry> headers_;
  crypto::Hash256 genesis_id_;
  crypto::Hash256 best_head_;
  std::vector<crypto::Hash256> canonical_;
};

}  // namespace sc::chain
