// Protocol messages (Δ, R†, R*) and Algorithm-1 verification.
#include <gtest/gtest.h>

#include "core/messages.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace sc::core {
namespace {

crypto::KeyPair key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::KeyPair::generate(rng);
}

Sra make_sra(const crypto::KeyPair& provider) {
  Sra sra;
  sra.name = "smart-lock-fw";
  sra.version = "2.1.0";
  sra.system_hash = crypto::Sha256::digest(util::as_bytes("image-bytes"));
  sra.download_link = "https://vendor.example/fw.bin";
  sra.insurance = 1000 * chain::kEther;
  sra.bounty = 10 * chain::kEther;
  sra.finalize(provider);
  return sra;
}

DetailedReport make_detailed(const crypto::KeyPair& detector, const Hash256& sra_id) {
  DetailedReport report;
  report.sra_id = sra_id;
  report.description = {{42, detect::Severity::kHigh, "buffer overflow in parser"}};
  report.finalize(detector);
  return report;
}

TEST(Messages, SraVerifiesAfterFinalize) {
  const auto sra = make_sra(key(1));
  EXPECT_EQ(verify_sra(sra), Verdict::kOk);
}

TEST(Messages, SraIdMatchesEq1Construction) {
  const auto sra = make_sra(key(1));
  EXPECT_EQ(sra.id, sra.compute_id());
}

TEST(Messages, SpoofedSraRejected) {
  // Attacker frames provider P by announcing a vulnerable system under P's
  // name but signing with its own key (SRA spoofing, Section IV-B).
  auto sra = make_sra(key(1));
  const auto attacker = key(666);
  sra.signature = attacker.sign(sra.id);
  EXPECT_EQ(verify_sra(sra), Verdict::kBadSignature);
  sra.provider_pubkey = attacker.public_key();  // also swap the key...
  EXPECT_EQ(verify_sra(sra), Verdict::kBadSignature);  // ...address mismatch
}

TEST(Messages, TamperedSraFieldRejected) {
  auto sra = make_sra(key(1));
  sra.download_link = "https://evil.example/malware.bin";
  EXPECT_EQ(verify_sra(sra), Verdict::kBadIdentifier);
}

TEST(Messages, UninsuredSraRejected) {
  auto sra = make_sra(key(1));
  sra.insurance = 0;
  sra.finalize(key(1));
  EXPECT_EQ(verify_sra(sra), Verdict::kInsuranceMissing);
}

TEST(Messages, SraSerializationRoundTrip) {
  const auto sra = make_sra(key(2));
  const auto decoded = Sra::deserialize(sra.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, sra.id);
  EXPECT_EQ(decoded->name, sra.name);
  EXPECT_EQ(decoded->insurance, sra.insurance);
  EXPECT_EQ(verify_sra(*decoded), Verdict::kOk);
}

TEST(Messages, SraDeserializeRejectsNonCanonicalPubkeyAlias) {
  // x = 1 + p names the curve point with x = 1 but is not its encoding.
  namespace ec = crypto::secp256k1;
  // y² = 1³ + 7.
  const auto y = crypto::U256::from_hex(
      "4218f20ae6c646b363db68605822fb14264ca8d2587fdd6fbc750d587e76a7ee");
  Sra sra = make_sra(key(2));
  sra.provider_pubkey = {crypto::U256::one(), y, false};
  ASSERT_TRUE(Sra::deserialize(sra.serialize()).has_value());
  sra.provider_pubkey.x = crypto::U256::one() + ec::field_prime();
  EXPECT_FALSE(Sra::deserialize(sra.serialize()).has_value());
}

TEST(Messages, SraDeserializeRejectsTruncation) {
  const auto wire = make_sra(key(2)).serialize();
  for (std::size_t cut : {0u, 10u, 50u}) {
    util::Bytes truncated(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Sra::deserialize(truncated).has_value());
  }
}

TEST(Messages, InitialReportCommitsToDetailed) {
  const auto detector = key(3);
  const auto detailed = make_detailed(detector, make_sra(key(1)).id);
  const auto initial = InitialReport::commit_to(detailed, detector);
  EXPECT_EQ(initial.detailed_hash, detailed.content_hash());
  EXPECT_EQ(initial.sra_id, detailed.sra_id);
  EXPECT_EQ(verify_initial_report(initial), Verdict::kOk);
}

TEST(Messages, InitialReportTamperDetected) {
  const auto detector = key(3);
  const auto detailed = make_detailed(detector, make_sra(key(1)).id);
  auto initial = InitialReport::commit_to(detailed, detector);
  // A compromised peer tampers with the pledged hash to frame the detector
  // (Section IV-A's report-tampering attack).
  initial.detailed_hash.bytes[0] ^= 1;
  EXPECT_EQ(verify_initial_report(initial), Verdict::kBadIdentifier);
}

TEST(Messages, InitialReportForgedSignatureDetected) {
  const auto detector = key(3);
  const auto detailed = make_detailed(detector, make_sra(key(1)).id);
  auto initial = InitialReport::commit_to(detailed, detector);
  initial.signature = key(4).sign(initial.id);
  EXPECT_EQ(verify_initial_report(initial), Verdict::kBadSignature);
}

TEST(Messages, DetailedReportFullVerification) {
  const auto detector = key(5);
  const auto sra = make_sra(key(1));
  const auto detailed = make_detailed(detector, sra.id);
  const auto initial = InitialReport::commit_to(detailed, detector);
  const auto verdict = verify_detailed_report(
      detailed, initial, [](const DetailedReport&) { return true; });
  EXPECT_EQ(verdict, Verdict::kOk);
}

TEST(Messages, DetailedReportHashBindingEnforced) {
  const auto detector = key(5);
  const auto sra = make_sra(key(1));
  auto detailed = make_detailed(detector, sra.id);
  const auto initial = InitialReport::commit_to(detailed, detector);
  // Change the findings after committing: H(R*) no longer matches H_R*.
  detailed.description[0].description = "different text";
  detailed.finalize(detector);  // re-sign so only the binding fails
  EXPECT_EQ(verify_detailed_report(detailed, initial, nullptr),
            Verdict::kHashMismatch);
}

TEST(Messages, PlagiarizedDetailedReportRejected) {
  // Attacker copies the victim's confirmed R* wholesale and swaps in its own
  // identity — the signature check (and the commitment lookup) both fail.
  const auto victim = key(6);
  const auto attacker = key(7);
  const auto sra = make_sra(key(1));
  const auto genuine = make_detailed(victim, sra.id);
  const auto victim_initial = InitialReport::commit_to(genuine, victim);

  DetailedReport stolen = genuine;
  stolen.detector = attacker.address();
  stolen.wallet = attacker.address();
  // Without re-signing: the id is stale.
  EXPECT_EQ(verify_detailed_report(stolen, victim_initial, nullptr),
            Verdict::kBadIdentifier);
  // Re-signed by the attacker: id/signature pass, but the only confirmed
  // commitment for this content belongs to the victim.
  stolen.finalize(attacker);
  EXPECT_EQ(verify_detailed_report(stolen, victim_initial, nullptr),
            Verdict::kUnknownCommitment);
}

TEST(Messages, AutoVerifGateRejectsForgedClaims) {
  const auto detector = key(8);
  const auto sra = make_sra(key(1));
  const auto detailed = make_detailed(detector, sra.id);
  const auto initial = InitialReport::commit_to(detailed, detector);
  const auto verdict = verify_detailed_report(
      detailed, initial, [](const DetailedReport&) { return false; });
  EXPECT_EQ(verdict, Verdict::kAutoVerifFailed);
}

TEST(Messages, DetailedReportSerializationRoundTrip) {
  const auto detector = key(9);
  const auto detailed = make_detailed(detector, make_sra(key(1)).id);
  const auto decoded = DetailedReport::deserialize(detailed.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, detailed.id);
  EXPECT_EQ(decoded->content_hash(), detailed.content_hash());
  ASSERT_EQ(decoded->description.size(), 1u);
  EXPECT_EQ(decoded->description[0].vuln_id, 42u);
}

TEST(Messages, InitialReportSerializationRoundTrip) {
  const auto detector = key(10);
  const auto detailed = make_detailed(detector, make_sra(key(1)).id);
  const auto initial = InitialReport::commit_to(detailed, detector);
  const auto decoded = InitialReport::deserialize(initial.serialize());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, initial.id);
  EXPECT_EQ(decoded->detailed_hash, initial.detailed_hash);
  EXPECT_EQ(verify_initial_report(*decoded), Verdict::kOk);
}

TEST(Messages, VerdictNamesAreStable) {
  EXPECT_STREQ(verdict_name(Verdict::kOk), "ok");
  EXPECT_STREQ(verdict_name(Verdict::kHashMismatch), "hash mismatch");
  EXPECT_STREQ(verdict_name(Verdict::kAutoVerifFailed), "autoverif failed");
}

TEST(Messages, ContentHashCoversSignature) {
  // Two reports identical except for the signing key have different content
  // hashes — the commitment pins the exact bytes that will be revealed.
  const auto sra_id = make_sra(key(1)).id;
  const auto r1 = make_detailed(key(11), sra_id);
  const auto r2 = make_detailed(key(12), sra_id);
  EXPECT_NE(r1.content_hash(), r2.content_hash());
}

}  // namespace
}  // namespace sc::core
