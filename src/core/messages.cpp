#include "core/messages.hpp"

#include "crypto/keccak.hpp"
#include "util/serialize.hpp"

namespace sc::core {

namespace {

void write_findings(util::Writer& w, const std::vector<detect::Finding>& findings) {
  w.u32(static_cast<std::uint32_t>(findings.size()));
  for (const detect::Finding& f : findings) {
    w.u64(f.vuln_id);
    w.u8(static_cast<std::uint8_t>(f.severity));
    w.str(f.description);
  }
}

std::optional<std::vector<detect::Finding>> read_findings(util::Reader& r) {
  const auto count = r.u32();
  if (!count) return std::nullopt;
  std::vector<detect::Finding> findings;
  // Never trust a wire-supplied count for allocation: truncated input fails
  // inside the loop long before a hostile count could matter.
  findings.reserve(std::min<std::uint32_t>(*count, 1024));
  for (std::uint32_t i = 0; i < *count; ++i) {
    const auto id = r.u64();
    const auto sev = r.u8();
    const auto desc = r.str();
    if (!id || !sev || !desc || *sev > 2) return std::nullopt;
    findings.push_back({*id, static_cast<detect::Severity>(*sev), *desc});
  }
  return findings;
}

bool signature_matches(const crypto::secp256k1::AffinePoint& pubkey,
                       const Address& claimed, const Hash256& digest,
                       const crypto::secp256k1::Signature& sig) {
  // The embedded key must both verify the signature AND own the claimed
  // address — otherwise anyone could attach their own key to a victim's id.
  if (crypto::address_of(pubkey) != claimed) return false;
  return crypto::verify_signature(pubkey, digest, sig);
}

}  // namespace

// -- Sra ---------------------------------------------------------------------

Hash256 Sra::compute_id() const {
  // Δ_id = H(P_i || U_n || U_v || U_h || U_l || I_i), Eq. 1.
  util::Writer w;
  w.raw(provider.span());
  w.str(name);
  w.str(version);
  w.raw(system_hash.span());
  w.str(download_link);
  w.u64(insurance);
  w.u64(bounty);
  w.u64(bounty_medium);
  w.u64(bounty_low);
  w.raw(contract.span());
  return crypto::keccak256(w.data());
}

void Sra::finalize(const crypto::KeyPair& provider_key) {
  provider = provider_key.address();
  provider_pubkey = provider_key.public_key();
  id = compute_id();
  signature = provider_key.sign(id);
}

util::Bytes Sra::serialize() const {
  util::Writer w;
  w.raw(id.span());
  w.raw(provider.span());
  w.str(name);
  w.str(version);
  w.raw(system_hash.span());
  w.str(download_link);
  w.u64(insurance);
  w.u64(bounty);
  w.u64(bounty_medium);
  w.u64(bounty_low);
  w.raw(contract.span());
  w.raw(crypto::secp256k1::encode_public(provider_pubkey));
  w.raw(signature.encode());
  return std::move(w).take();
}

std::optional<Sra> Sra::deserialize(util::ByteSpan data) {
  util::Reader r(data);
  Sra sra;
  const auto id = r.raw(32);
  const auto provider = r.raw(20);
  const auto name = r.str();
  const auto version = r.str();
  const auto hash = r.raw(32);
  const auto link = r.str();
  const auto insurance = r.u64();
  const auto bounty = r.u64();
  const auto bounty_medium = r.u64();
  const auto bounty_low = r.u64();
  const auto contract = r.raw(20);
  const auto pub = r.raw(64);
  const auto sig = r.raw(64);
  if (!id || !provider || !name || !version || !hash || !link || !insurance ||
      !bounty || !bounty_medium || !bounty_low || !contract || !pub || !sig ||
      !r.empty())
    return std::nullopt;
  sra.id = Hash256::from_span(*id);
  sra.provider = Address::from_span(*provider);
  sra.name = *name;
  sra.version = *version;
  sra.system_hash = Hash256::from_span(*hash);
  sra.download_link = *link;
  sra.insurance = *insurance;
  sra.bounty = *bounty;
  sra.bounty_medium = *bounty_medium;
  sra.bounty_low = *bounty_low;
  sra.contract = Address::from_span(*contract);
  const auto pubkey = crypto::secp256k1::decode_public(*pub);
  const auto signature = crypto::secp256k1::Signature::decode(*sig);
  if (!pubkey || !signature) return std::nullopt;
  sra.provider_pubkey = *pubkey;
  sra.signature = *signature;
  return sra;
}

// -- DetailedReport ----------------------------------------------------------

Hash256 DetailedReport::compute_id() const {
  // ID* = H(Δ || D_i || W_D || Des), Eq. 5.
  util::Writer w;
  w.raw(sra_id.span());
  w.raw(detector.span());
  w.raw(wallet.span());
  write_findings(w, description);
  return crypto::keccak256(w.data());
}

Hash256 DetailedReport::content_hash() const {
  return crypto::keccak256(serialize());
}

void DetailedReport::finalize(const crypto::KeyPair& detector_key) {
  detector = detector_key.address();
  wallet = detector_key.address();
  detector_pubkey = detector_key.public_key();
  id = compute_id();
  signature = detector_key.sign(id);
}

util::Bytes DetailedReport::serialize() const {
  util::Writer w;
  w.raw(id.span());
  w.raw(sra_id.span());
  w.raw(detector.span());
  w.raw(wallet.span());
  write_findings(w, description);
  w.raw(crypto::secp256k1::encode_public(detector_pubkey));
  w.raw(signature.encode());
  return std::move(w).take();
}

std::optional<DetailedReport> DetailedReport::deserialize(util::ByteSpan data) {
  util::Reader r(data);
  DetailedReport report;
  const auto id = r.raw(32);
  const auto sra = r.raw(32);
  const auto detector = r.raw(20);
  const auto wallet = r.raw(20);
  auto findings = read_findings(r);
  const auto pub = r.raw(64);
  const auto sig = r.raw(64);
  if (!id || !sra || !detector || !wallet || !findings || !pub || !sig || !r.empty())
    return std::nullopt;
  report.id = Hash256::from_span(*id);
  report.sra_id = Hash256::from_span(*sra);
  report.detector = Address::from_span(*detector);
  report.wallet = Address::from_span(*wallet);
  report.description = std::move(*findings);
  const auto pubkey = crypto::secp256k1::decode_public(*pub);
  const auto signature = crypto::secp256k1::Signature::decode(*sig);
  if (!pubkey || !signature) return std::nullopt;
  report.detector_pubkey = *pubkey;
  report.signature = *signature;
  return report;
}

// -- InitialReport -----------------------------------------------------------

Hash256 InitialReport::compute_id() const {
  // ID† = H(Δ || D_i || H_R* || W_D), Eq. 3.
  util::Writer w;
  w.raw(sra_id.span());
  w.raw(detector.span());
  w.raw(detailed_hash.span());
  w.raw(wallet.span());
  return crypto::keccak256(w.data());
}

void InitialReport::finalize(const crypto::KeyPair& detector_key) {
  detector = detector_key.address();
  wallet = detector_key.address();
  detector_pubkey = detector_key.public_key();
  id = compute_id();
  signature = detector_key.sign(id);
}

InitialReport InitialReport::commit_to(const DetailedReport& detailed,
                                       const crypto::KeyPair& detector_key) {
  InitialReport initial;
  initial.sra_id = detailed.sra_id;
  initial.detailed_hash = detailed.content_hash();
  initial.finalize(detector_key);
  return initial;
}

util::Bytes InitialReport::serialize() const {
  util::Writer w;
  w.raw(id.span());
  w.raw(sra_id.span());
  w.raw(detector.span());
  w.raw(detailed_hash.span());
  w.raw(wallet.span());
  w.raw(crypto::secp256k1::encode_public(detector_pubkey));
  w.raw(signature.encode());
  return std::move(w).take();
}

std::optional<InitialReport> InitialReport::deserialize(util::ByteSpan data) {
  util::Reader r(data);
  InitialReport report;
  const auto id = r.raw(32);
  const auto sra = r.raw(32);
  const auto detector = r.raw(20);
  const auto hash = r.raw(32);
  const auto wallet = r.raw(20);
  const auto pub = r.raw(64);
  const auto sig = r.raw(64);
  if (!id || !sra || !detector || !hash || !wallet || !pub || !sig || !r.empty())
    return std::nullopt;
  report.id = Hash256::from_span(*id);
  report.sra_id = Hash256::from_span(*sra);
  report.detector = Address::from_span(*detector);
  report.detailed_hash = Hash256::from_span(*hash);
  report.wallet = Address::from_span(*wallet);
  const auto pubkey = crypto::secp256k1::decode_public(*pub);
  const auto signature = crypto::secp256k1::Signature::decode(*sig);
  if (!pubkey || !signature) return std::nullopt;
  report.detector_pubkey = *pubkey;
  report.signature = *signature;
  return report;
}

// -- Verification ------------------------------------------------------------

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kMalformed: return "malformed";
    case Verdict::kBadIdentifier: return "bad identifier";
    case Verdict::kBadSignature: return "bad signature";
    case Verdict::kUnknownCommitment: return "unknown commitment";
    case Verdict::kHashMismatch: return "hash mismatch";
    case Verdict::kAutoVerifFailed: return "autoverif failed";
    case Verdict::kInsuranceMissing: return "insurance missing";
  }
  return "?";
}

Verdict verify_sra(const Sra& sra) {
  if (sra.compute_id() != sra.id) return Verdict::kBadIdentifier;
  if (!signature_matches(sra.provider_pubkey, sra.provider, sra.id, sra.signature))
    return Verdict::kBadSignature;
  if (sra.insurance == 0) return Verdict::kInsuranceMissing;
  return Verdict::kOk;
}

Verdict verify_initial_report(const InitialReport& report) {
  // Algorithm 1, lines 2-8: recompute ID† and check D†_Sign.
  if (report.compute_id() != report.id) return Verdict::kBadIdentifier;
  if (!signature_matches(report.detector_pubkey, report.detector, report.id,
                         report.signature))
    return Verdict::kBadSignature;
  return Verdict::kOk;
}

Verdict verify_detailed_report(const DetailedReport& report,
                               const InitialReport& initial,
                               const AutoVerifFn& auto_verif) {
  // Algorithm 1, lines 11-23.
  if (report.compute_id() != report.id) return Verdict::kBadIdentifier;
  if (!signature_matches(report.detector_pubkey, report.detector, report.id,
                         report.signature))
    return Verdict::kBadSignature;
  if (initial.sra_id != report.sra_id || initial.detector != report.detector)
    return Verdict::kUnknownCommitment;
  if (report.content_hash() != initial.detailed_hash) return Verdict::kHashMismatch;
  if (auto_verif && !auto_verif(report)) return Verdict::kAutoVerifFailed;
  return Verdict::kOk;
}

}  // namespace sc::core
