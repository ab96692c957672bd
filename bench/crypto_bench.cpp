// Cryptographic-substrate harness: hashes (generic sizes and the chain's own
// shapes), secp256k1 (sign, verify, and the k·G, joint multiplication and
// inverses under them) and Merkle roots.
//
// Backs the feasibility claim: Algorithm-1 verification (hash + ECDSA) runs
// in well under a millisecond, so providers can gate thousands of reports
// per block interval. Every SRA, report and transaction carries a secp256k1
// signature, which makes verify the per-message cost of the whole protocol.
//
// Each operation runs in batches until ~0.2 s (0.02 s for --runs=small) have
// passed; the reported figure is the median batch's ns per operation, so a
// scheduler hiccup in one batch does not move it. Before timing, sign,
// verify, the joint multiplication, the inverses and the field product and
// square are checked against a fixed key: a fast wrong answer aborts the
// harness.
//
// Results print as a table and persist to BENCH_crypto.json (schema in
// EXPERIMENTS.md).
//
// Flags (bench_util.hpp): --runs=small shortens every timing window;
// --out=PATH.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "chain/block.hpp"
#include "chain/transaction.hpp"
#include "crypto/keccak.hpp"
#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"
#include "crypto/ripemd160.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace sc;
using Clock = std::chrono::steady_clock;

struct OpResult {
  std::string name;
  std::size_t bytes = 0;  ///< Input size for hashes (0 otherwise).
  double ns_per_op = 0;
};

/// Median ns/op over batches of `batch` calls, batches repeated until
/// `window_s` has passed (at least five batches).
OpResult time_op(const std::string& name, std::size_t bytes, int batch, double window_s,
                 const std::function<void()>& op) {
  std::vector<double> per_op;
  const auto begin = Clock::now();
  while (per_op.size() < 5 ||
         std::chrono::duration<double>(Clock::now() - begin).count() < window_s) {
    const auto start = Clock::now();
    for (int i = 0; i < batch; ++i) op();
    per_op.push_back(std::chrono::duration<double, std::nano>(Clock::now() - start).count() /
                     batch);
  }
  std::sort(per_op.begin(), per_op.end());
  return {name, bytes, per_op[per_op.size() / 2]};
}

}  // namespace

int main(int argc, char** argv) {
  sc::bench::BenchRun run(argc, argv, "crypto");
  const double window_s = run.small() ? 0.02 : 0.2;

  sc::bench::header("Crypto layer: hashes, secp256k1, Merkle roots");

  util::Rng rng(0xC2F);
  const crypto::KeyPair key = crypto::KeyPair::generate(rng);
  const crypto::Hash256 digest = crypto::Sha256::digest(util::as_bytes("report"));
  const crypto::secp256k1::Signature sig = key.sign(digest);
  // A fast wrong answer is worthless: the signature must verify, a tampered
  // digest must not, and signing must be deterministic.
  if (!crypto::verify_signature(key.public_key(), digest, sig) ||
      crypto::verify_signature(key.public_key(), crypto::Sha256::digest(util::as_bytes("x")),
                               sig) ||
      key.sign(digest) != sig) {
    std::printf("FATAL: secp256k1 self-check failed\n");
    return 1;
  }

  // The layers under verify and sign, checked the same way: k·G from the
  // fixed-base table against the independent wNAF walk, the joint
  // multiplication against k·G (Q = d·G, so u1·G + u2·Q = (u1 + u2·d)·G),
  // each inverse by a·a^-1 = 1, the field product by (a·b)·b^-1 = a and the
  // square by a² = a·a.
  namespace ec = crypto::secp256k1;
  const ec::Scalar u1 = ec::Scalar::reduce(crypto::U256::from_hash(digest));
  const ec::Scalar u2 = ec::Scalar::reduce(sig.s);
  const ec::Scalar d = ec::Scalar::reduce(key.private_key());
  ec::Scalar scalar_x = u1;
  ec::FieldElement field_x = ec::FieldElement::reduce(sig.r);
  const ec::FieldElement field_y = ec::FieldElement::reduce(sig.s);
  if (ec::scalar_mul_base(d.to_u256()).to_affine() !=
          ec::scalar_mul(d.to_u256(), ec::generator()).to_affine() ||
      ec::double_scalar_mul(u1.to_u256(), u2.to_u256(), key.public_key()).to_affine() !=
          ec::scalar_mul_base((u1 + u2 * d).to_u256()).to_affine() ||
      scalar_x * scalar_x.inv() != ec::Scalar::reduce(crypto::U256::one()) ||
      field_x * field_x.inv() != ec::FieldElement::from_u64(1) ||
      (field_x * field_y) * field_y.inv() != field_x || field_x.sqr() != field_x * field_x) {
    std::printf("FATAL: secp256k1 layer self-check failed\n");
    return 1;
  }

  volatile std::uint64_t sink = 0;
  std::vector<OpResult> ops;
  for (const std::size_t n : {64, 1024, 16384}) {
    util::Bytes data;
    rng.fill(data, n);
    ops.push_back(time_op("sha256", n, 64, window_s,
                          [&] { sink = sink + crypto::Sha256::digest(data).bytes[0]; }));
    ops.push_back(time_op("keccak256", n, 64, window_s,
                          [&] { sink = sink + crypto::keccak256(data).bytes[0]; }));
  }
  // The shapes the chain hashes most: a trie branch node (0x01, the 16-bit
  // crit bit, two child hashes), a block id (double SHA-256 of the 148-byte
  // header) and a transaction id (Keccak-256 of a signed transfer's wire
  // encoding).
  {
    util::Bytes branch;
    rng.fill(branch, 67);
    ops.push_back(time_op("sha256_trie_branch", branch.size(), 64, window_s,
                          [&] { sink = sink + crypto::Sha256::digest(branch).bytes[0]; }));
    util::Bytes header;
    rng.fill(header, chain::BlockHeader::kSerializedSize);
    ops.push_back(time_op("sha256d_header", header.size(), 64, window_s, [&] {
      sink = sink + crypto::Sha256::double_digest(header).bytes[0];
    }));
    chain::Transaction tx;
    tx.nonce = 7;
    tx.to = crypto::KeyPair::generate(rng).address();
    tx.value = chain::kEther;
    tx.gas_limit = 21'000;
    tx.sign_with(key);
    const util::Bytes wire = tx.encode();
    ops.push_back(time_op("keccak256_transfer", wire.size(), 64, window_s,
                          [&] { sink = sink + crypto::keccak256(wire).bytes[0]; }));
  }
  {
    util::Bytes data;
    rng.fill(data, 1024);
    ops.push_back(time_op("ripemd160", 1024, 64, window_s,
                          [&] { sink = sink + crypto::ripemd160(data).bytes[0]; }));
  }
  ops.push_back(time_op("ecdsa_sign", 0, 8, window_s,
                        [&] { sink = sink + key.sign(digest).r.low64(); }));
  ops.push_back(time_op("ecdsa_verify", 0, 8, window_s, [&] {
    sink = sink + crypto::verify_signature(key.public_key(), digest, sig);
  }));
  ops.push_back(time_op("key_generation", 0, 8, window_s, [&] {
    sink = sink + crypto::KeyPair::generate(rng).public_key().x.low64();
  }));
  ops.push_back(time_op("secp256k1_base_mul", 0, 8, window_s, [&] {
    sink = sink + ec::scalar_mul_base(d.to_u256()).z.is_odd();
  }));
  ops.push_back(time_op("secp256k1_joint_mul", 0, 8, window_s, [&] {
    sink = sink + ec::double_scalar_mul(u1.to_u256(), u2.to_u256(), key.public_key()).z.is_odd();
  }));
  // Each inverse feeds the next input (x -> x^-1 + 1), so the variable-time
  // inverses average over inputs instead of repeating one.
  ops.push_back(time_op("scalar_inverse", 0, 64, window_s, [&] {
    scalar_x = scalar_x.inv() + ec::Scalar::reduce(crypto::U256::one());
  }));
  ops.push_back(time_op("field_inverse", 0, 64, window_s, [&] {
    field_x = field_x.inv() + ec::FieldElement::from_u64(1);
  }));
  // The field product and square as dependent chains (x = x·y, x = x²), 256
  // per call so the call itself is amortized: one multiply's latency, the
  // unit every point formula is made of.
  constexpr int kChain = 256;
  ec::FieldElement chain_x = field_x;
  const auto chain = [&](const char* name, auto step) {
    OpResult r = time_op(name, 0, 16, window_s, [&] {
      for (int i = 0; i < kChain; ++i) chain_x = step(chain_x);
    });
    r.ns_per_op /= kChain;
    ops.push_back(r);
  };
  chain("field_mul", [&](const ec::FieldElement& x) { return x * field_y; });
  chain("field_sqr", [](const ec::FieldElement& x) { return x.sqr(); });
  sink = sink + scalar_x.to_u256().low64() + field_x.to_u256().low64() +
         chain_x.to_u256().low64();
  for (const std::size_t n : {16, 256, 1024}) {
    std::vector<crypto::Hash256> leaves(n);
    for (auto& leaf : leaves) {
      util::Bytes raw;
      rng.fill(raw, 32);
      leaf = crypto::Hash256::from_span(raw);
    }
    ops.push_back(time_op("merkle_root_" + std::to_string(n), 0, 4, window_s,
                          [&] { sink = sink + crypto::merkle_root(leaves).bytes[0]; }));
  }

  std::printf("%-20s %8s %14s %10s\n", "op", "bytes", "ns/op", "MB/s");
  for (const OpResult& r : ops) {
    if (r.bytes)
      std::printf("%-20s %8zu %14.1f %10.1f\n", r.name.c_str(), r.bytes, r.ns_per_op,
                  static_cast<double>(r.bytes) * 1e3 / r.ns_per_op);
    else
      std::printf("%-20s %8s %14.1f %10s\n", r.name.c_str(), "-", r.ns_per_op, "-");
  }

  run.results("    \"ops\": [\n");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpResult& r = ops[i];
    run.results("      {\"op\": \"%s\", \"bytes\": %zu, \"ns_per_op\": %.1f}%s\n",
                r.name.c_str(), r.bytes, r.ns_per_op, i + 1 < ops.size() ? "," : "");
  }
  run.results("    ]");
  return run.write();
}
