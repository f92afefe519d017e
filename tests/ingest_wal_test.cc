// Hostile-input WAL tests (DESIGN.md §16): torn tails (truncated
// length/payload), CRC mismatches, oversized length fields, and
// fingerprint/header damage must never crash, never drop valid records,
// and never let a poisoned tail survive a writer re-open. Plus the
// ingest-batch codec round trip and its bounds checks.

#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/ingest_batch.h"
#include "ingest/wal.h"
#include "scoped_temp_dir.h"

namespace kpef {
namespace {

class WalTest : public ::testing::Test {
 protected:
  static std::vector<uint8_t> Payload(const std::string& s) {
    return std::vector<uint8_t>(s.begin(), s.end());
  }

  std::vector<uint8_t> FileBytes() const {
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
  }

  void WriteFileBytes(const std::vector<uint8_t>& bytes) const {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  /// Writes a WAL with the given payloads and returns the file image.
  std::vector<uint8_t> WriteWal(const std::vector<std::string>& payloads) {
    auto writer = WalWriter::Open(path_, fingerprint_);
    EXPECT_TRUE(writer.ok()) << writer.status().ToString();
    for (const std::string& p : payloads) {
      EXPECT_TRUE(writer->Append(Payload(p)).ok());
    }
    writer->Close();
    return FileBytes();
  }

  WalFingerprint fingerprint_{123, 456};
  ScopedTempDir dir_{"wal_test"};
  std::string path_ = dir_.File("test.wal");
};

TEST_F(WalTest, RoundTrip) {
  WriteWal({"alpha", "bee", "ccc"});
  auto replay = ReadWal(path_, fingerprint_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 3u);
  EXPECT_EQ(replay->records[0], Payload("alpha"));
  EXPECT_EQ(replay->records[1], Payload("bee"));
  EXPECT_EQ(replay->records[2], Payload("ccc"));
  EXPECT_TRUE(replay->truncation_reason.empty());
  EXPECT_EQ(replay->dropped_bytes, 0u);
}

TEST_F(WalTest, TruncatedTailRecoversValidPrefix) {
  std::vector<uint8_t> intact = WriteWal({"first", "second", "third"});
  // Chop the file mid-way through the last record's payload.
  std::vector<uint8_t> torn(intact.begin(), intact.end() - 3);
  WriteFileBytes(torn);

  auto replay = ReadWal(path_, fingerprint_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[1], Payload("second"));
  EXPECT_EQ(replay->truncation_reason, "truncated record");
  EXPECT_GT(replay->dropped_bytes, 0u);

  // Re-opening the writer truncates the torn tail; the next append must
  // land cleanly after "second", not on top of garbage.
  auto writer = WalWriter::Open(path_, fingerprint_);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(Payload("fourth")).ok());
  writer->Close();

  auto healed = ReadWal(path_, fingerprint_);
  ASSERT_TRUE(healed.ok());
  ASSERT_EQ(healed->records.size(), 3u);
  EXPECT_EQ(healed->records[2], Payload("fourth"));
  EXPECT_TRUE(healed->truncation_reason.empty());
}

TEST_F(WalTest, CrcMismatchStopsReplayBeforeCorruptRecord) {
  std::vector<uint8_t> bytes = WriteWal({"first", "second"});
  // Flip a bit in the last payload byte; the length still reads fine.
  bytes.back() ^= 0x40;
  WriteFileBytes(bytes);

  auto replay = ReadWal(path_, fingerprint_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->records[0], Payload("first"));
  EXPECT_EQ(replay->truncation_reason, "crc mismatch");
}

TEST_F(WalTest, OversizedLengthTreatedAsCorruption) {
  std::vector<uint8_t> bytes = WriteWal({"first"});
  // Append a frame whose length field claims > kWalMaxRecordBytes.
  const uint32_t bogus = kWalMaxRecordBytes + 1;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<uint8_t>((bogus >> (8 * i)) & 0xff));
  }
  for (int i = 0; i < 8; ++i) bytes.push_back(0xab);
  WriteFileBytes(bytes);

  auto replay = ReadWal(path_, fingerprint_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  ASSERT_EQ(replay->records.size(), 1u);
  EXPECT_EQ(replay->truncation_reason, "oversized record");

  // The writer refuses to produce such a record in the first place.
  auto writer = WalWriter::Open(path_, fingerprint_);
  ASSERT_TRUE(writer.ok());
  std::vector<uint8_t> huge(kWalMaxRecordBytes + 1, 0x5a);
  EXPECT_EQ(writer->Append(huge).code(), StatusCode::kInvalidArgument);
}

TEST_F(WalTest, FingerprintMismatchRejectsReplay) {
  WriteWal({"first"});
  WalFingerprint wrong{999, 456};
  auto replay = ReadWal(path_, wrong);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.status().code(), StatusCode::kFailedPrecondition);
  auto writer = WalWriter::Open(path_, wrong);
  EXPECT_FALSE(writer.ok());
}

TEST_F(WalTest, DamagedHeaderRejected) {
  std::vector<uint8_t> bytes = WriteWal({"first"});
  bytes[0] ^= 0xff;  // break the magic
  WriteFileBytes(bytes);
  auto replay = ReadWal(path_, fingerprint_);
  EXPECT_FALSE(replay.ok());
}

TEST_F(WalTest, MissingFileIsError) {
  auto replay = ReadWal(path_, fingerprint_);
  EXPECT_FALSE(replay.ok());
}

TEST_F(WalTest, DurableBytesTracksFileSize) {
  auto writer = WalWriter::Open(path_, fingerprint_);
  ASSERT_TRUE(writer.ok());
  const uint64_t header = writer->DurableBytes();
  ASSERT_TRUE(writer->Append(Payload("xyz")).ok());
  EXPECT_EQ(writer->DurableBytes(), header + 8 + 3);
  writer->Close();
  EXPECT_EQ(FileBytes().size(), header + 8 + 3);
}

TEST_F(WalTest, FailedAppendLeavesNoTornFrame) {
  auto writer = WalWriter::Open(path_, fingerprint_);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Append(Payload("kept")).ok());
  const uint64_t durable = writer->DurableBytes();

  // Let only part of the next frame reach the file: the rest of it stays
  // in stdio's buffer or fails with EFBIG (SIGXFSZ ignored), as on a full
  // disk. Only this process's soft limit moves, and it is restored.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = durable + 100;
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &lowered), 0);
  const Status failed = writer->Append(std::vector<uint8_t>(1000, 'x'));
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(writer->DurableBytes(), durable);
  ASSERT_TRUE(writer->Append(Payload("after")).ok());
  writer->Close();
  auto replay = ReadWal(path_, fingerprint_);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->truncation_reason, "");
  ASSERT_EQ(replay->records.size(), 2u);
  EXPECT_EQ(replay->records[0], Payload("kept"));
  EXPECT_EQ(replay->records[1], Payload("after"));
}

// --- Ingest batch codec ----------------------------------------------

TEST(IngestBatchCodecTest, RoundTrip) {
  IngestBatch batch;
  batch.papers.push_back(IngestPaper{"deep graph cores",
                                     {"ada", "grace"},
                                     "icde",
                                     {"graphs", "databases"},
                                     {"older paper"}});
  batch.papers.push_back(IngestPaper{"empty lists ok", {}, "", {}, {}});
  const std::vector<uint8_t> bytes = SerializeBatch(batch);
  auto parsed = ParseBatch(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->papers.size(), 2u);
  EXPECT_EQ(parsed->papers[0].text, "deep graph cores");
  EXPECT_EQ(parsed->papers[0].authors,
            (std::vector<std::string>{"ada", "grace"}));
  EXPECT_EQ(parsed->papers[0].venue, "icde");
  EXPECT_EQ(parsed->papers[0].cites,
            (std::vector<std::string>{"older paper"}));
  EXPECT_EQ(parsed->papers[1].text, "empty lists ok");
  EXPECT_TRUE(parsed->papers[1].authors.empty());
}

TEST(IngestBatchCodecTest, TruncatedAndTrailingBytesRejected) {
  IngestBatch batch;
  batch.papers.push_back(
      IngestPaper{"text", {"a"}, "v", {"t"}, {}});
  std::vector<uint8_t> bytes = SerializeBatch(batch);

  std::vector<uint8_t> truncated(bytes.begin(), bytes.end() - 2);
  EXPECT_FALSE(ParseBatch(truncated).ok());

  std::vector<uint8_t> trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(ParseBatch(trailing).ok());

  // A count field that implies more bytes than the buffer holds must be
  // rejected up front, not trusted into a giant allocation.
  std::vector<uint8_t> huge_count = {0xff, 0xff, 0xff, 0x7f};
  EXPECT_FALSE(ParseBatch(huge_count).ok());
}

}  // namespace
}  // namespace kpef
