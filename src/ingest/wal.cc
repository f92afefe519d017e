#include "ingest/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cstring>
#include <filesystem>
#include <utility>

namespace kpef {

namespace {

constexpr uint32_t kWalMagic = 0x4C57504Bu;  // "KPWL" little-endian
constexpr uint32_t kWalVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

/// fsyncs the directory holding `path`, so a newly created entry for
/// `path` survives a crash.
bool SyncParentDir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  out.push_back(static_cast<uint8_t>(v));
  out.push_back(static_cast<uint8_t>(v >> 8));
  out.push_back(static_cast<uint8_t>(v >> 16));
  out.push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>& out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

std::vector<uint8_t> HeaderBytes(const WalFingerprint& fp) {
  std::vector<uint8_t> header;
  header.reserve(kHeaderBytes);
  PutU32(header, kWalMagic);
  PutU32(header, kWalVersion);
  PutU64(header, fp.base_nodes);
  PutU64(header, fp.base_edges);
  return header;
}

/// Reads the whole file; IOError on open/read failure.
StatusOr<std::vector<uint8_t>> ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open WAL: " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::vector<uint8_t> bytes(size > 0 ? static_cast<size_t>(size) : 0);
  if (!bytes.empty() && std::fread(bytes.data(), 1, bytes.size(), f) !=
                            bytes.size()) {
    std::fclose(f);
    return Status::IOError("short read on WAL: " + path);
  }
  std::fclose(f);
  return bytes;
}

/// Scans raw WAL bytes. Header errors are Status failures; torn tails
/// land in WalReplay::truncation_reason.
StatusOr<WalReplay> ScanWal(const std::vector<uint8_t>& bytes,
                            const WalFingerprint& expected) {
  if (bytes.size() < kHeaderBytes) {
    return Status::IOError("WAL shorter than its header");
  }
  if (GetU32(bytes.data()) != kWalMagic) {
    return Status::IOError("WAL magic mismatch (not a KPWL file)");
  }
  if (GetU32(bytes.data() + 4) != kWalVersion) {
    return Status::IOError("unsupported WAL version");
  }
  const WalFingerprint fp{GetU64(bytes.data() + 8), GetU64(bytes.data() + 16)};
  if (fp.base_nodes != expected.base_nodes ||
      fp.base_edges != expected.base_edges) {
    return Status::FailedPrecondition(
        "WAL fingerprint does not match the base graph (" +
        std::to_string(fp.base_nodes) + " nodes/" +
        std::to_string(fp.base_edges) + " edges logged vs " +
        std::to_string(expected.base_nodes) + "/" +
        std::to_string(expected.base_edges) + " loaded)");
  }

  WalReplay replay;
  size_t pos = kHeaderBytes;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < 8) {
      replay.truncation_reason = "truncated record";
      break;
    }
    const uint32_t len = GetU32(bytes.data() + pos);
    const uint32_t crc = GetU32(bytes.data() + pos + 4);
    if (len > kWalMaxRecordBytes) {
      replay.truncation_reason = "oversized record";
      break;
    }
    if (bytes.size() - pos - 8 < len) {
      replay.truncation_reason = "truncated record";
      break;
    }
    const std::span<const uint8_t> payload(bytes.data() + pos + 8, len);
    if (Crc32(payload) != crc) {
      replay.truncation_reason = "crc mismatch";
      break;
    }
    replay.records.emplace_back(payload.begin(), payload.end());
    pos += 8 + len;
  }
  replay.valid_bytes = pos;
  replay.dropped_bytes = bytes.size() - pos;
  return replay;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> data) {
  const auto& table = CrcTable();
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

StatusOr<WalReplay> ReadWal(const std::string& path,
                            const WalFingerprint& expected) {
  KPEF_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, ReadFileBytes(path));
  return ScanWal(bytes, expected);
}

WalWriter::~WalWriter() { Close(); }

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)),
      path_(std::move(other.path_)),
      durable_bytes_(other.durable_bytes_) {}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = std::exchange(other.file_, nullptr);
    path_ = std::move(other.path_);
    durable_bytes_ = other.durable_bytes_;
  }
  return *this;
}

void WalWriter::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

StatusOr<WalWriter> WalWriter::Open(const std::string& path,
                                    const WalFingerprint& fingerprint) {
  uint64_t valid_bytes = 0;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    // Validate the existing log and chop any torn tail so the next
    // append extends the valid prefix.
    KPEF_ASSIGN_OR_RETURN(WalReplay replay, ReadWal(path, fingerprint));
    valid_bytes = replay.valid_bytes;
    if (replay.dropped_bytes > 0) {
      std::filesystem::resize_file(path, valid_bytes, ec);
      if (ec) {
        return Status::IOError("cannot truncate torn WAL tail: " +
                               ec.message());
      }
    }
  } else {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return Status::IOError("cannot create WAL: " + path);
    const std::vector<uint8_t> header = HeaderBytes(fingerprint);
    const bool ok =
        std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
        std::fflush(f) == 0 && ::fsync(fileno(f)) == 0;
    std::fclose(f);
    if (!ok) return Status::IOError("cannot write WAL header: " + path);
    if (!SyncParentDir(path)) {
      return Status::IOError("cannot sync WAL directory: " + path);
    }
    valid_bytes = header.size();
  }

  WalWriter writer;
  writer.file_ = std::fopen(path.c_str(), "ab");
  if (writer.file_ == nullptr) {
    return Status::IOError("cannot open WAL for append: " + path);
  }
  writer.path_ = path;
  writer.durable_bytes_ = valid_bytes;
  return writer;
}

Status WalWriter::Append(std::span<const uint8_t> payload) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (payload.size() > kWalMaxRecordBytes) {
    return Status::InvalidArgument("WAL record exceeds the 64 MiB bound");
  }
  std::vector<uint8_t> frame;
  frame.reserve(8 + payload.size());
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  PutU32(frame, Crc32(payload));
  frame.insert(frame.end(), payload.begin(), payload.end());
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0 || ::fdatasync(fileno(file_)) != 0) {
    // Cut the torn frame off (closing first, so no buffered byte of it
    // lands after the cut); otherwise the next append would sit behind
    // it, where replay never reaches. A log that cannot be cut stays
    // closed, so later appends fail instead of being silently lost.
    Close();
    if (::truncate(path_.c_str(), static_cast<off_t>(durable_bytes_)) == 0) {
      file_ = std::fopen(path_.c_str(), "ab");
    }
    return Status::IOError("WAL append failed: " + path_);
  }
  durable_bytes_ += frame.size();
  return Status::OK();
}

}  // namespace kpef
