// Consumer API: the "authoritative reference" view of the blockchain
// (Sections IV-A, VI-A) plus SmartRetro-style retrospective notifications.
//
// Consumers query confirmed SRAs and detection results before deploying a
// system, and can *subscribe* to systems they have already deployed: when a
// later-confirmed vulnerability lands on chain for a deployed system, the
// next poll() surfaces a notification — the retrospective-detection loop of
// the authors' companion work (SmartRetro, MASS'18) that this paper cites
// as the consumer-protection endgame.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/messages.hpp"

namespace sc::core {

/// One confirmed SRA as a consumer sees it.
struct SraView {
  Sra sra;
  std::uint64_t block_height = 0;      ///< Where the SRA was recorded.
  std::uint64_t confirmed_vulns = 0;   ///< Registry-contract count.
  bool insurance_intact = false;       ///< No bounty forfeited from the escrow.

  bool safe_to_deploy() const { return confirmed_vulns == 0; }
};

/// A retrospective alert: a vulnerability was confirmed for a system the
/// consumer already deployed.
struct VulnerabilityAlert {
  Hash256 sra_id;
  std::string system_name;
  std::uint64_t new_vuln_count = 0;   ///< Count now on chain.
  std::uint64_t previously_known = 0; ///< Count when last polled.
};

class Consumer {
 public:
  /// Reads through the given (full-node) blockchain. The consumer itself
  /// holds no chain state beyond its subscriptions.
  explicit Consumer(const chain::Blockchain& chain) : chain_(chain) {}

  /// All SRAs recorded on the canonical chain with >= `depth` confirmations.
  std::vector<SraView> list_confirmed_sras(
      std::uint64_t depth = chain::kConfirmationDepth) const;

  /// Lookup of one SRA by Δ_id (nullopt if absent/unconfirmed).
  std::optional<SraView> inspect(const Hash256& sra_id,
                                 std::uint64_t depth = chain::kConfirmationDepth) const;

  /// Detection reports recorded for an SRA (the R* reveals on chain).
  std::vector<DetailedReport> detection_reports(const Hash256& sra_id) const;

  /// Marks a system as deployed; subsequent poll() calls raise alerts when
  /// its confirmed-vulnerability count grows.
  void deploy(const Hash256& sra_id);
  bool has_deployed(const Hash256& sra_id) const {
    return deployed_.contains(sra_id);
  }

  /// Retrospective check over all deployed systems.
  std::vector<VulnerabilityAlert> poll();

 private:
  std::optional<SraView> view_of(const Sra& sra, std::uint64_t height,
                                 std::uint64_t depth) const;

  const chain::Blockchain& chain_;
  std::set<Hash256> deployed_;
  std::map<Hash256, std::uint64_t> known_counts_;
};

}  // namespace sc::core
