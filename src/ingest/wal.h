// Write-ahead log for streaming ingestion (DESIGN.md §16).
//
// Durability contract: an ingest batch is acknowledged only after its
// serialized record is appended and fdatasync'ed here, so a crash
// between the ack and the next snapshot loses nothing — replaying the
// WAL over the base artifacts reconstructs the exact staging state.
//
// On-disk layout (all integers little-endian):
//
//   header  : magic "KPWL" (u32) | version (u32) |
//             base_nodes (u64) | base_edges (u64)
//   record* : payload_len (u32) | crc32(payload) (u32) | payload bytes
//
// The header fingerprint (node/edge counts of the base graph the log
// extends) rejects replay against the wrong artifact set. Records are
// length-prefixed and CRC-checked; a torn tail (truncated length/crc/
// payload, CRC mismatch, or an absurd length) ends replay at the last
// valid record — the reader reports how many bytes were dropped and the
// writer truncates the file back to the valid prefix before appending,
// so a crash mid-append can never poison later records.

#ifndef KPEF_INGEST_WAL_H_
#define KPEF_INGEST_WAL_H_

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace kpef {

/// CRC-32 (IEEE 802.3, reflected) over `data`. Software table; used for
/// WAL record payloads only, not on a hot path.
uint32_t Crc32(std::span<const uint8_t> data);

/// Identity of the base state a WAL extends.
struct WalFingerprint {
  uint64_t base_nodes = 0;
  uint64_t base_edges = 0;
};

/// Result of scanning a WAL file.
struct WalReplay {
  /// Record payloads, in append order, up to the last valid record.
  std::vector<std::vector<uint8_t>> records;
  /// Byte length of the valid prefix (header + intact records).
  uint64_t valid_bytes = 0;
  /// Bytes past the valid prefix that were dropped.
  uint64_t dropped_bytes = 0;
  /// Empty when the file ended cleanly; otherwise why replay stopped
  /// ("truncated record", "crc mismatch", "oversized record").
  std::string truncation_reason;
};

/// Records larger than this are treated as corruption, not data: a
/// length field past the bound means the length itself is damaged.
inline constexpr uint32_t kWalMaxRecordBytes = 64u << 20;

/// Scans `path`, validating the header against `expected` and every
/// record's CRC. Missing file => error. A wrong magic/version/
/// fingerprint is an error (the caller is replaying against the wrong
/// base); torn tails are NOT errors — they surface via truncation_reason
/// and dropped_bytes with all preceding records intact.
StatusOr<WalReplay> ReadWal(const std::string& path,
                            const WalFingerprint& expected);

/// Append-only WAL writer. Open() creates the file (with header) when
/// absent; when present it validates the header and truncates any torn
/// tail so the next Append lands after the last valid record. Not
/// thread-safe (the coordinator serializes appends).
class WalWriter {
 public:
  WalWriter() = default;
  ~WalWriter();
  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  static StatusOr<WalWriter> Open(const std::string& path,
                                  const WalFingerprint& fingerprint);

  /// Appends one record (len | crc | payload) and fdatasyncs it. On
  /// error DurableBytes() does not advance and the file is cut back to
  /// it, so the next append extends the valid prefix; if the cut fails,
  /// the writer closes.
  Status Append(std::span<const uint8_t> payload);

  /// Byte offset after the last synced record (== file size).
  uint64_t DurableBytes() const { return durable_bytes_; }

  const std::string& path() const { return path_; }
  bool is_open() const { return file_ != nullptr; }
  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  uint64_t durable_bytes_ = 0;
};

}  // namespace kpef

#endif  // KPEF_INGEST_WAL_H_
