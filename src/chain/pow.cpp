#include "chain/pow.hpp"

#include <atomic>
#include <cassert>
#include <cstring>
#include <thread>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace sc::chain {

namespace {

/// The grinder's families. mine() is a free function with no injection
/// surface, so they always live in the global sink.
struct PowMetrics {
  telemetry::Registry& r;
  telemetry::Counter& attempts =
      r.counter("pow_attempts_total", "Nonces tried by the PoW grinder");
  telemetry::Counter& mined =
      r.counter("pow_blocks_mined_total", "Successful PoW solutions");
};

/// Settles one mine() call: the grind loops count attempts locally (loop
/// indices, no per-attempt instrumentation cost) and report here on exit.
void record_grind(std::uint64_t attempts, bool mined) {
  auto& metrics = telemetry::global().handles<PowMetrics>();
  metrics.attempts.add(attempts);
  if (mined) metrics.mined.inc();
}

// SHA-256 length padding for the two fixed message sizes in the double hash.
constexpr std::uint64_t kHeaderBits = BlockHeader::kSerializedSize * 8;  // 1184
constexpr std::uint64_t kDigestBits = 256;

void write_be64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

}  // namespace

crypto::U256 target_from_difficulty(std::uint64_t difficulty) {
  if (difficulty <= 1) return crypto::U256::max_value();
  return crypto::U256::max_value().div_u64(difficulty);
}

bool check_pow(const BlockHeader& header) { return check_pow(header, header.id()); }

bool check_pow(const BlockHeader& header, const Hash256& id) {
  const crypto::U256 digest = crypto::U256::from_hash(id);
  return digest <= target_from_difficulty(header.difficulty);
}

PowScratch::PowScratch(const BlockHeader& header)
    : target_(target_from_difficulty(header.difficulty)) {
  const util::Bytes serialized = header.serialize();
  assert(serialized.size() == BlockHeader::kSerializedSize);

  // Constant prefix: compress header bytes [0, 64) once per template.
  midstate_ = crypto::Sha256::initial_state();
  crypto::Sha256::transform(midstate_.h, serialized.data());

  // Inner tail: header bytes [64, 148), then FIPS 180-2 padding (0x80,
  // zeros, 64-bit big-endian message length). 148 mod 64 = 20 < 56, so the
  // tail plus padding fills exactly two compression blocks, with the length
  // field in the second.
  std::memset(tail_, 0, sizeof(tail_));
  std::memcpy(tail_, serialized.data() + 64, BlockHeader::kSerializedSize - 64);
  tail_[BlockHeader::kSerializedSize - 64] = 0x80;
  write_be64(tail_ + 120, kHeaderBits);

  // Outer block: 32-byte inner digest (patched per attempt) + padding.
  std::memset(outer_, 0, sizeof(outer_));
  outer_[32] = 0x80;
  write_be64(outer_ + 56, kDigestBits);
}

Hash256 PowScratch::id_for_nonce(std::uint64_t nonce) {
  // Patch the little-endian nonce at its fixed offset within the tail block.
  std::uint8_t* nonce_at = tail_ + (BlockHeader::kNonceOffset - 64);
  for (int i = 0; i < 8; ++i) nonce_at[i] = static_cast<std::uint8_t>(nonce >> (8 * i));

  // Inner hash: resume from the midstate, compress both patched tail blocks.
  std::uint32_t inner[8];
  std::memcpy(inner, midstate_.h, sizeof(inner));
  crypto::Sha256::transform(inner, tail_);
  crypto::Sha256::transform(inner, tail_ + 64);

  // Outer hash: big-endian inner digest, one compression from the IV.
  for (int i = 0; i < 8; ++i) {
    outer_[4 * i] = static_cast<std::uint8_t>(inner[i] >> 24);
    outer_[4 * i + 1] = static_cast<std::uint8_t>(inner[i] >> 16);
    outer_[4 * i + 2] = static_cast<std::uint8_t>(inner[i] >> 8);
    outer_[4 * i + 3] = static_cast<std::uint8_t>(inner[i]);
  }
  crypto::Sha256State outer_state = crypto::Sha256::initial_state();
  crypto::Sha256::transform(outer_state.h, outer_);

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(outer_state.h[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(outer_state.h[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(outer_state.h[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(outer_state.h[i]);
  }
  return out;
}

bool PowScratch::attempt(std::uint64_t nonce) {
  return crypto::U256::from_hash(id_for_nonce(nonce)) <= target_;
}

std::optional<std::uint64_t> mine(const BlockHeader& header, std::uint64_t max_attempts) {
  PowScratch scratch(header);
  std::uint64_t nonce = header.nonce;
  for (std::uint64_t i = 0; i < max_attempts; ++i, ++nonce) {
    if (scratch.attempt(nonce)) {
      record_grind(i + 1, true);
      return nonce;
    }
  }
  record_grind(max_attempts, false);
  return std::nullopt;
}

std::optional<std::uint64_t> mine_parallel(const BlockHeader& header,
                                           std::uint64_t max_attempts,
                                           unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  // Below a few thousand attempts the thread spawn overhead dominates.
  if (threads == 1 || max_attempts < 4096) return mine(header, max_attempts);

  constexpr std::uint64_t kNoWinner = ~std::uint64_t{0};
  // Smallest winning attempt index found so far (kNoWinner if none). Workers
  // take strided indices i = t, t+T, t+2T, ...: each worker's first hit is
  // its smallest, and a worker past `best` can never improve it, so the
  // final minimum equals the global earliest hit regardless of scheduling.
  std::atomic<std::uint64_t> best{kNoWinner};
  std::atomic<std::uint64_t> total_attempts{0};

  auto worker = [&](unsigned t) {
    PowScratch scratch(header);
    std::uint64_t local_attempts = 0;
    for (std::uint64_t i = t; i < max_attempts; i += threads) {
      if (i > best.load(std::memory_order_relaxed)) break;
      ++local_attempts;
      if (scratch.attempt(header.nonce + i)) {
        std::uint64_t cur = best.load(std::memory_order_relaxed);
        while (i < cur && !best.compare_exchange_weak(cur, i)) {
        }
        break;
      }
    }
    total_attempts.fetch_add(local_attempts, std::memory_order_relaxed);
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker, t);
  worker(0);
  for (auto& th : pool) th.join();

  const std::uint64_t winner = best.load();
  record_grind(total_attempts.load(), winner != kNoWinner);
  if (winner == kNoWinner) return std::nullopt;
  return header.nonce + winner;
}

double expected_attempts(std::uint64_t difficulty) {
  return difficulty == 0 ? 1.0 : static_cast<double>(difficulty);
}

}  // namespace sc::chain
