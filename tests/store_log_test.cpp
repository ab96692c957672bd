// Byte-layer tests for sc::store: CRC32 vectors, record framing, torn-tail
// repair at every byte boundary, bit-flip detection, the clean-close footer,
// and tip-journal recovery/compaction.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "store/crc32.hpp"
#include "store/record_log.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

namespace sc::store {
namespace {

util::ByteSpan span_of(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Fresh scratch directory, removed on destruction.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/sc_store_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string file(const std::string& name) const { return path + "/" + name; }
  std::string path;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
}

TEST(Crc32, KnownVectors) {
  // The classic check value plus a few fixed points.
  EXPECT_EQ(crc32(span_of("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(span_of("")), 0x00000000u);
  EXPECT_EQ(crc32(span_of("a")), 0xE8B7BE43u);
  EXPECT_EQ(crc32(span_of("abc")), 0x352441C2u);
}

TEST(Crc32, StreamingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= data.size(); ++split) {
    std::uint32_t crc = crc32_update(0, span_of(data.substr(0, split)));
    crc = crc32_update(crc, span_of(data.substr(split)));
    EXPECT_EQ(crc, crc32(span_of(data)));
  }
}

/// The byte-at-a-time CRC-32 the store used before slice-by-8: the oracle
/// the sliced loop must match bit for bit, so every stored CRC is unchanged.
std::uint32_t crc32_bytewise(std::uint32_t crc, util::ByteSpan data) {
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  for (std::uint8_t byte : data) {
    c ^= byte;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, SlicedMatchesBytewiseAtEveryLengthAndOffset) {
  util::Rng rng(0xC3C);
  util::Bytes buf;
  rng.fill(buf, 1024 + 8);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 1024; ++len) {
      const util::ByteSpan data{buf.data() + offset, len};
      ASSERT_EQ(crc32(data), crc32_bytewise(0, data)) << "offset " << offset << " len " << len;
    }
  }
}

TEST(Crc32, SlicedStreamingMatchesBytewiseAtEverySplit) {
  util::Rng rng(0xC3D);
  util::Bytes buf;
  rng.fill(buf, 300);
  const std::uint32_t want = crc32_bytewise(0, buf);
  for (std::size_t split = 0; split <= buf.size(); ++split) {
    const util::ByteSpan head{buf.data(), split};
    const util::ByteSpan tail{buf.data() + split, buf.size() - split};
    ASSERT_EQ(crc32_update(crc32_update(0, head), tail), want) << "split " << split;
    // A sliced head resumed byte-wise, and the other way round.
    ASSERT_EQ(crc32_bytewise(crc32_update(0, head), tail), want) << "split " << split;
    ASSERT_EQ(crc32_update(crc32_bytewise(0, head), tail), want) << "split " << split;
  }
}

TEST(RecordLog, AppendReadScanRoundTrip) {
  TempDir dir;
  auto opened = RecordLog::open(dir.file("log"), /*fsync=*/false, nullptr);
  ASSERT_TRUE(opened);
  EXPECT_TRUE(opened->created);

  util::Rng rng(7);
  std::vector<util::Bytes> payloads;
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 64; ++i) {
    util::Bytes payload(rng.uniform(200));  // empty payloads allowed
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.uniform(256));
    const auto offset = opened->log->append(payload);
    ASSERT_TRUE(offset);
    payloads.push_back(std::move(payload));
    offsets.push_back(*offset);
  }
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto back = opened->log->read_at(offsets[i]);
    ASSERT_TRUE(back);
    EXPECT_EQ(*back, payloads[i]);
  }
  std::size_t seen = 0;
  ASSERT_TRUE(opened->log->scan([&](std::uint64_t offset, util::Bytes payload) {
    EXPECT_EQ(offset, offsets[seen]);
    EXPECT_EQ(payload, payloads[seen]);
    ++seen;
    return true;
  }));
  EXPECT_EQ(seen, payloads.size());
}

TEST(RecordLog, ReopenWithoutFooterRecoversEverything) {
  TempDir dir;
  {
    auto opened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(opened);
    for (int i = 0; i < 10; ++i)
      ASSERT_TRUE(opened->log->append(span_of("record-" + std::to_string(i))));
    // Destructor closes the fd without a footer — simulated crash.
  }
  auto reopened = RecordLog::open(dir.file("log"), false, nullptr);
  ASSERT_TRUE(reopened);
  EXPECT_FALSE(reopened->had_footer);
  EXPECT_FALSE(reopened->torn_tail_truncated);
  std::size_t count = 0;
  ASSERT_TRUE(reopened->log->scan([&](std::uint64_t, util::Bytes payload) {
    EXPECT_EQ(std::string(payload.begin(), payload.end()),
              "record-" + std::to_string(count));
    ++count;
    return true;
  }));
  EXPECT_EQ(count, 10u);
}

// Chop the file at EVERY byte boundary: recovery must always yield the
// longest prefix of whole records, flagging truncation iff bytes were cut
// mid-record.
TEST(RecordLog, TornTailRepairAtEveryByteBoundary) {
  TempDir dir;
  std::vector<std::uint64_t> record_ends;  // offsets just past each record
  {
    auto opened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(opened);
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(opened->log->append(span_of("payload-number-" + std::to_string(i))));
      record_ends.push_back(opened->log->size());
    }
  }
  const auto full = read_file(dir.file("log"));
  ASSERT_EQ(full.size(), record_ends.back());

  for (std::size_t cut = 8; cut <= full.size(); ++cut) {
    write_file(dir.file("cut"), {full.begin(), full.begin() + cut});
    auto opened = RecordLog::open(dir.file("cut"), false, nullptr);
    ASSERT_TRUE(opened) << "cut at " << cut;
    std::size_t whole = 0;  // records fully contained in the first `cut` bytes
    while (whole < record_ends.size() && record_ends[whole] <= cut) ++whole;
    const std::uint64_t expect_size = whole ? record_ends[whole - 1] : 8;
    EXPECT_EQ(opened->log->size(), expect_size) << "cut at " << cut;
    EXPECT_EQ(opened->torn_tail_truncated, cut != expect_size) << "cut at " << cut;
    std::size_t recovered = 0;
    ASSERT_TRUE(opened->log->scan([&](std::uint64_t, util::Bytes) {
      ++recovered;
      return true;
    }));
    EXPECT_EQ(recovered, whole) << "cut at " << cut;
  }
}

// Flip one bit somewhere in the body: the CRC must catch it and recovery must
// truncate back to the last record before the flip.
TEST(RecordLog, BitFlipTruncatesFromCorruptRecord) {
  TempDir dir;
  std::vector<std::uint64_t> record_starts;
  {
    auto opened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(opened);
    for (int i = 0; i < 5; ++i) {
      const auto offset = opened->log->append(span_of("sensitive-payload-" + std::to_string(i)));
      ASSERT_TRUE(offset);
      record_starts.push_back(*offset);
    }
  }
  const auto full = read_file(dir.file("log"));
  util::Rng rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = full;
    const std::size_t pos = 8 + rng.uniform(corrupted.size() - 8);
    corrupted[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
    write_file(dir.file("flip"), corrupted);
    auto opened = RecordLog::open(dir.file("flip"), false, nullptr);
    ASSERT_TRUE(opened);
    // Every record before the flipped byte survives; the rest are gone.
    std::size_t intact = 0;
    while (intact < record_starts.size() &&
           (intact + 1 < record_starts.size() ? record_starts[intact + 1]
                                              : full.size()) <= pos)
      ++intact;
    std::size_t recovered = 0;
    ASSERT_TRUE(opened->log->scan([&](std::uint64_t, util::Bytes) {
      ++recovered;
      return true;
    }));
    EXPECT_EQ(recovered, intact) << "flip at byte " << pos;
    EXPECT_TRUE(opened->torn_tail_truncated);
  }
}

TEST(RecordLog, FooterRoundTripAndResumedAppends) {
  TempDir dir;
  const std::string index = "pretend-index-payload";
  std::uint64_t pre_footer_size = 0;
  {
    auto opened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(opened);
    ASSERT_TRUE(opened->log->append(span_of("block-a")));
    ASSERT_TRUE(opened->log->append(span_of("block-b")));
    pre_footer_size = opened->log->size();
    ASSERT_TRUE(opened->log->close_with_footer(span_of(index)));
  }
  {
    auto reopened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(reopened);
    EXPECT_TRUE(reopened->had_footer);
    EXPECT_EQ(std::string(reopened->footer.begin(), reopened->footer.end()), index);
    // Footer region truncated away: appends resume where the index sat.
    EXPECT_EQ(reopened->log->size(), pre_footer_size);
    ASSERT_TRUE(reopened->log->append(span_of("block-c")));
  }
  auto final_open = RecordLog::open(dir.file("log"), false, nullptr);
  ASSERT_TRUE(final_open);
  EXPECT_FALSE(final_open->had_footer);
  std::vector<std::string> seen;
  ASSERT_TRUE(final_open->log->scan([&](std::uint64_t, util::Bytes payload) {
    seen.emplace_back(payload.begin(), payload.end());
    return true;
  }));
  EXPECT_EQ(seen, (std::vector<std::string>{"block-a", "block-b", "block-c"}));
}

// A truncated/corrupted footer must not be trusted: recovery falls back to
// the sequential scan.
TEST(RecordLog, DamagedFooterFallsBackToScan) {
  TempDir dir;
  {
    auto opened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(opened);
    ASSERT_TRUE(opened->log->append(span_of("only-record")));
    ASSERT_TRUE(opened->log->close_with_footer(span_of("the-index")));
  }
  auto full = read_file(dir.file("log"));
  for (std::size_t chop = 1; chop < 16; ++chop) {
    write_file(dir.file("chopped"), {full.begin(), full.end() - chop});
    auto opened = RecordLog::open(dir.file("chopped"), false, nullptr);
    ASSERT_TRUE(opened) << "chop " << chop;
    EXPECT_FALSE(opened->had_footer);
    std::size_t recovered = 0;
    ASSERT_TRUE(opened->log->scan([&](std::uint64_t, util::Bytes) {
      ++recovered;
      return true;
    }));
    // The data record always survives (the damage hit the footer region).
    EXPECT_GE(recovered, 1u) << "chop " << chop;
  }
}

// The inspection path must never write: a clean footer stays on disk, a torn
// tail is reported but not repaired, and appends are refused.
TEST(RecordLog, ReadOnlyOpenLeavesFileUntouched) {
  TempDir dir;
  {
    auto opened = RecordLog::open(dir.file("log"), false, nullptr);
    ASSERT_TRUE(opened);
    ASSERT_TRUE(opened->log->append(span_of("block-a")));
    ASSERT_TRUE(opened->log->append(span_of("block-b")));
    ASSERT_TRUE(opened->log->close_with_footer(span_of("the-index")));
  }
  const auto clean_bytes = read_file(dir.file("log"));
  {
    auto ro = RecordLog::open_read_only(dir.file("log"), nullptr);
    ASSERT_TRUE(ro);
    EXPECT_TRUE(ro->had_footer);
    EXPECT_EQ(std::string(ro->footer.begin(), ro->footer.end()), "the-index");
    EXPECT_FALSE(ro->log->append(span_of("refused")));
    EXPECT_FALSE(ro->log->close_with_footer(span_of("refused")));
    std::vector<std::string> seen;
    ASSERT_TRUE(ro->log->scan([&](std::uint64_t, util::Bytes payload) {
      seen.emplace_back(payload.begin(), payload.end());
      return true;
    }));
    EXPECT_EQ(seen, (std::vector<std::string>{"block-a", "block-b"}));
  }
  EXPECT_EQ(read_file(dir.file("log")), clean_bytes);  // footer still present

  // Torn tail: detected and skipped on read, but the bytes stay on disk.
  auto torn_bytes = clean_bytes;
  torn_bytes.resize(torn_bytes.size() - 3);
  write_file(dir.file("torn"), torn_bytes);
  {
    auto ro = RecordLog::open_read_only(dir.file("torn"), nullptr);
    ASSERT_TRUE(ro);
    EXPECT_FALSE(ro->had_footer);
    EXPECT_TRUE(ro->torn_tail_truncated);
    EXPECT_GT(ro->truncated_bytes, 0u);
    std::size_t recovered = 0;
    ASSERT_TRUE(ro->log->scan([&](std::uint64_t, util::Bytes) {
      ++recovered;
      return true;
    }));
    EXPECT_GE(recovered, 2u);
  }
  EXPECT_EQ(read_file(dir.file("torn")), torn_bytes);

  // Missing file: an error, not an implicit create.
  std::string why;
  EXPECT_FALSE(RecordLog::open_read_only(dir.file("missing"), &why));
  EXPECT_FALSE(std::filesystem::exists(dir.file("missing")));
}

TEST(TipJournal, ReadTipPeeksWithoutModifying) {
  TempDir dir;
  crypto::Hash256 id;
  id.bytes.fill(0x42);
  {
    auto journal = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
    ASSERT_TRUE(journal);
    ASSERT_TRUE(journal->write_tip(3, id));
  }
  const auto before = read_file(dir.file("wal"));
  const auto tip = TipJournal::read_tip(dir.file("wal"), nullptr);
  ASSERT_TRUE(tip);
  EXPECT_EQ(tip->height, 3u);
  EXPECT_EQ(tip->block_id, id);
  EXPECT_EQ(read_file(dir.file("wal")), before);
  EXPECT_FALSE(TipJournal::read_tip(dir.file("absent"), nullptr));
}

TEST(TipJournal, LatestRecordWinsAcrossReopen) {
  TempDir dir;
  crypto::Hash256 id_a, id_b;
  id_a.bytes.fill(0xAA);
  id_b.bytes.fill(0xBB);
  {
    auto journal = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
    ASSERT_TRUE(journal);
    EXPECT_FALSE(journal->tip().has_value());
    ASSERT_TRUE(journal->write_tip(1, id_a));
    ASSERT_TRUE(journal->write_tip(2, id_b));
  }
  auto journal = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
  ASSERT_TRUE(journal);
  ASSERT_TRUE(journal->tip().has_value());
  EXPECT_EQ(journal->tip()->height, 2u);
  EXPECT_EQ(journal->tip()->block_id, id_b);
  EXPECT_FALSE(journal->tip()->clean);
}

TEST(TipJournal, CompactionKeepsNewestOnly) {
  TempDir dir;
  auto journal = TipJournal::open(dir.file("wal"), false, /*compact_every=*/4, nullptr);
  ASSERT_TRUE(journal);
  crypto::Hash256 id;
  for (std::uint64_t h = 1; h <= 20; ++h) {
    id.bytes.fill(static_cast<std::uint8_t>(h));
    ASSERT_TRUE(journal->write_tip(h, id));
  }
  EXPECT_GE(journal->compactions(), 4u);
  journal.reset();
  auto reopened = TipJournal::open(dir.file("wal"), false, 4, nullptr);
  ASSERT_TRUE(reopened);
  ASSERT_TRUE(reopened->tip().has_value());
  EXPECT_EQ(reopened->tip()->height, 20u);
  id.bytes.fill(20);
  EXPECT_EQ(reopened->tip()->block_id, id);
}

TEST(TipJournal, CleanRecordCarriesDigest) {
  TempDir dir;
  crypto::Hash256 id, digest;
  id.bytes.fill(0x01);
  digest.bytes.fill(0x5C);
  {
    auto journal = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
    ASSERT_TRUE(journal);
    ASSERT_TRUE(journal->write_tip(7, id));
    ASSERT_TRUE(journal->close_clean(7, id, digest));
  }
  auto reopened = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
  ASSERT_TRUE(reopened);
  ASSERT_TRUE(reopened->tip().has_value());
  EXPECT_TRUE(reopened->tip()->clean);
  EXPECT_EQ(reopened->tip()->height, 7u);
  EXPECT_EQ(reopened->tip()->state_digest, digest);
}

// A torn tail in the journal (partial tip record) falls back to the previous
// record instead of failing the open.
TEST(TipJournal, TornTipRecordFallsBackToPrevious) {
  TempDir dir;
  crypto::Hash256 id_a, id_b;
  id_a.bytes.fill(0xAA);
  id_b.bytes.fill(0xBB);
  {
    auto journal = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
    ASSERT_TRUE(journal);
    ASSERT_TRUE(journal->write_tip(1, id_a));
    ASSERT_TRUE(journal->write_tip(2, id_b));
  }
  auto bytes = read_file(dir.file("wal"));
  write_file(dir.file("wal"), {bytes.begin(), bytes.end() - 5});
  auto reopened = TipJournal::open(dir.file("wal"), false, 4096, nullptr);
  ASSERT_TRUE(reopened);
  ASSERT_TRUE(reopened->tip().has_value());
  EXPECT_EQ(reopened->tip()->height, 1u);
  EXPECT_EQ(reopened->tip()->block_id, id_a);
}

}  // namespace
}  // namespace sc::store
