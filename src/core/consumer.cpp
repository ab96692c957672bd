#include "core/consumer.hpp"

#include "contracts/smartcrowd_contract.hpp"

namespace sc::core {

std::optional<SraView> Consumer::view_of(const Sra& sra, std::uint64_t height,
                                         std::uint64_t depth) const {
  if (chain_.best_height() < height + depth) return std::nullopt;
  SraView view;
  view.sra = sra;
  view.block_height = height;
  const chain::WorldState& state = chain_.best_state();
  view.confirmed_vulns = contracts::vuln_count_of(state, sra.contract);
  // A reclaim empties the escrow, but the contract refuses it once any
  // vulnerability is confirmed: a closed release forfeited nothing.
  view.insurance_intact = contracts::is_closed(state, sra.contract) ||
                          state.balance(sra.contract) >= sra.insurance;
  return view;
}

std::vector<SraView> Consumer::list_confirmed_sras(std::uint64_t depth) const {
  std::vector<SraView> out;
  for (const auto& [loc, tx] : chain_.protocol_records(chain::ProtocolKind::kSra)) {
    const auto sra = Sra::deserialize(tx.protocol_payload);
    if (!sra) continue;
    // Consumers re-run the decentralized SRA verification — they never trust
    // a record merely for being on chain.
    if (verify_sra(*sra) != Verdict::kOk) continue;
    if (auto view = view_of(*sra, loc.height, depth)) out.push_back(std::move(*view));
  }
  return out;
}

std::optional<SraView> Consumer::inspect(const Hash256& sra_id,
                                         std::uint64_t depth) const {
  for (const auto& [loc, tx] : chain_.protocol_records(chain::ProtocolKind::kSra)) {
    const auto sra = Sra::deserialize(tx.protocol_payload);
    if (!sra || sra->id != sra_id) continue;
    if (verify_sra(*sra) != Verdict::kOk) return std::nullopt;
    return view_of(*sra, loc.height, depth);
  }
  return std::nullopt;
}

std::vector<DetailedReport> Consumer::detection_reports(const Hash256& sra_id) const {
  std::vector<DetailedReport> out;
  for (const auto& [loc, tx] :
       chain_.protocol_records(chain::ProtocolKind::kDetailedReport)) {
    const auto report = DetailedReport::deserialize(tx.protocol_payload);
    if (!report || report->sra_id != sra_id) continue;
    // Only reveals whose on-chain contract call succeeded actually recorded
    // a vulnerability (and paid the bounty).
    const chain::Receipt* receipt = chain_.receipt_of(tx.id());
    if (receipt && receipt->ok()) out.push_back(std::move(*report));
  }
  return out;
}

void Consumer::deploy(const Hash256& sra_id) {
  deployed_.insert(sra_id);
  if (const auto view = inspect(sra_id, /*depth=*/0))
    known_counts_[sra_id] = view->confirmed_vulns;
  else
    known_counts_.emplace(sra_id, 0);
}

std::vector<VulnerabilityAlert> Consumer::poll() {
  std::vector<VulnerabilityAlert> alerts;
  for (const Hash256& sra_id : deployed_) {
    const auto view = inspect(sra_id, /*depth=*/0);
    if (!view) continue;
    std::uint64_t& known = known_counts_[sra_id];
    if (view->confirmed_vulns > known) {
      alerts.push_back({sra_id, view->sra.name, view->confirmed_vulns, known});
      known = view->confirmed_vulns;
    }
  }
  return alerts;
}

}  // namespace sc::core
