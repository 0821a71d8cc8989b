#include "core/checkpoint.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "core/failpoint.hpp"
#include "core/trace.hpp"

namespace icsc::core {

namespace {

constexpr char kSnapshotMagic[8] = {'I', 'C', 'S', 'C', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kJournalMagic = 0x4C4E524AU;  // "JRNL"
// Torn-tail safety valve: a corrupted size field must not drive a
// multi-gigabyte allocation while scanning a journal.
constexpr std::uint64_t kMaxRecordBytes = 1ULL << 32;

/// Whole-file read; nullopt when `path` does not exist (fresh start).
std::optional<std::vector<std::uint8_t>> read_if_present(
    const std::string& path, const char* what) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    throw Error("core::checkpoint", what, path + ": " + std::strerror(errno));
  }
  try {
    auto bytes = frame::read_from(fd, path);
    ::close(fd);
    return bytes;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

/// The records of stream `kind` in `bytes` (frame::scan: a corrupt record
/// mid-file is skipped and counted, only the torn tail is dropped). A
/// first record of another stream means the file belongs to another
/// experiment and throws; a later one ends the scan.
std::vector<JournalRecord> scan_journal(const std::vector<std::uint8_t>& bytes,
                                        std::uint32_t kind,
                                        const std::string& path,
                                        frame::ScanResult* scan) {
  std::vector<JournalRecord> records;
  *scan = frame::scan(
      bytes, kJournalMagic, kMaxRecordBytes, [&](const frame::Frame& record) {
        if (frame::load_u32(record.tag + 4) != kind) {
          if (record.offset == 0) {
            throw Error("core::checkpoint",
                        "journal belongs to another stream", path);
          }
          return false;
        }
        records.push_back({frame::load_u64(record.tag + 8),
                           {record.payload, record.payload + record.size}});
        return true;
      });
  if (scan->skipped_regions > 0) {
    ICSC_TRACE_COUNT("journal.skipped_records", scan->skipped_regions);
  }
  return records;
}

}  // namespace

void SnapshotWriter::put_u32(std::uint32_t value) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 4);
  frame::store_u32(bytes_.data() + at, value);
}

void SnapshotWriter::put_u64(std::uint64_t value) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 8);
  frame::store_u64(bytes_.data() + at, value);
}

void SnapshotWriter::put_f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  put_u64(bits);
}

void SnapshotWriter::put_bytes(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), bytes, bytes + size);
}

void SnapshotWriter::put_string(const std::string& value) {
  put_u64(value.size());
  put_bytes(value.data(), value.size());
}

void SnapshotWriter::save(const std::string& path, std::uint32_t kind,
                          std::uint32_t version) const {
  ICSC_TRACE_SPAN("checkpoint/save");
  ICSC_TRACE_COUNT("checkpoint.saves", 1);
  ICSC_TRACE_COUNT("checkpoint.bytes", bytes_.size());
  frame::Tag tag{};
  std::memcpy(tag.data(), kSnapshotMagic, sizeof(kSnapshotMagic));
  frame::store_u32(tag.data() + 8, kind);
  frame::store_u32(tag.data() + 12, version);
  frame::replace_file(path, "checkpoint/fsync", "checkpoint/rename",
                      [&](int fd, const std::string& tmp) {
                        frame::write_frame("checkpoint/write", fd, tag,
                                           bytes_.data(), bytes_.size(), tmp);
                      });
}

std::optional<SnapshotReader> SnapshotReader::try_load(
    const std::string& path, std::uint32_t kind, std::uint32_t max_version) {
  const auto bytes = read_if_present(path, "cannot open snapshot");
  if (!bytes) return std::nullopt;  // fresh start
  if (bytes->size() < frame::kHeaderSize) {
    throw Error("core::checkpoint", "snapshot truncated (header)", path);
  }
  const std::uint8_t* head = bytes->data();
  if (std::memcmp(head, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    throw Error("core::checkpoint", "bad snapshot magic", path);
  }
  frame::Frame snapshot;
  const frame::Status status = frame::parse(*bytes, 0, UINT64_MAX, &snapshot);
  if (status == frame::Status::kBadHeaderCrc) {
    throw Error("core::checkpoint", "snapshot header CRC mismatch", path);
  }
  if (frame::load_u32(head + 8) != kind) {
    throw Error("core::checkpoint", "snapshot belongs to another stream",
                path);
  }
  const std::uint32_t version = frame::load_u32(head + 12);
  if (version > max_version) {
    throw Error("core::checkpoint", "snapshot version too new", path);
  }
  if (status == frame::Status::kBadSize || snapshot.end != bytes->size()) {
    throw Error("core::checkpoint", "snapshot truncated (payload)", path);
  }
  if (status != frame::Status::kOk) {
    throw Error("core::checkpoint", "snapshot payload CRC mismatch", path);
  }
  return SnapshotReader(
      std::vector<std::uint8_t>(snapshot.payload,
                                snapshot.payload + snapshot.size),
      version);
}

std::uint8_t SnapshotReader::get_u8() {
  if (remaining() < 1) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  return bytes_[cursor_++];
}

std::uint32_t SnapshotReader::get_u32() {
  if (remaining() < 4) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  const std::uint32_t value = frame::load_u32(bytes_.data() + cursor_);
  cursor_ += 4;
  return value;
}

std::uint64_t SnapshotReader::get_u64() {
  if (remaining() < 8) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  const std::uint64_t value = frame::load_u64(bytes_.data() + cursor_);
  cursor_ += 8;
  return value;
}

double SnapshotReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<std::uint8_t> SnapshotReader::get_bytes(std::size_t size) {
  if (remaining() < size) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  std::vector<std::uint8_t> out(bytes_.begin() + cursor_,
                                bytes_.begin() + cursor_ + size);
  cursor_ += size;
  return out;
}

std::string SnapshotReader::get_string() {
  const std::uint64_t size = get_u64();
  if (remaining() < size) {
    throw Error("core::checkpoint", "snapshot payload overrun");
  }
  std::string out(reinterpret_cast<const char*>(bytes_.data()) + cursor_,
                  static_cast<std::size_t>(size));
  cursor_ += static_cast<std::size_t>(size);
  return out;
}

RunJournal::RunJournal(const std::string& path, std::uint32_t kind)
    : path_(path), kind_(kind) {
  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd_ < 0) {
    throw Error("core::checkpoint", "cannot open journal",
                path + ": " + std::strerror(errno));
  }
  try {
    const std::vector<std::uint8_t> bytes = frame::read_from(fd_, path);
    frame::ScanResult scan;
    recovered_ = scan_journal(bytes, kind, path, &scan);
    skipped_ = scan.skipped_regions;
    // Truncate the torn tail (if any) so new records, opened O_APPEND,
    // land right after the last durable one.
    if (scan.valid_end != bytes.size() &&
        failpoint::checked_ftruncate("journal/truncate", fd_,
                                     static_cast<off_t>(scan.valid_end)) !=
            0) {
      throw Error("core::checkpoint", "cannot truncate torn journal tail",
                  path + ": " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
  next_seq_ = recovered_.empty() ? 0 : recovered_.back().seq + 1;
}

RunJournal::RunJournal(RunJournal&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      kind_(other.kind_),
      next_seq_(other.next_seq_),
      appended_(other.appended_),
      skipped_(other.skipped_),
      recovered_(std::move(other.recovered_)) {
  other.fd_ = -1;
}

RunJournal& RunJournal::operator=(RunJournal&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    kind_ = other.kind_;
    next_seq_ = other.next_seq_;
    appended_ = other.appended_;
    skipped_ = other.skipped_;
    recovered_ = std::move(other.recovered_);
    other.fd_ = -1;
  }
  return *this;
}

RunJournal::~RunJournal() { close(); }

void RunJournal::append(const void* data, std::size_t size) {
  ICSC_TRACE_SPAN("journal/append");
  ICSC_TRACE_COUNT("journal.appends", 1);
  ICSC_TRACE_COUNT("journal.bytes", size);
  if (fd_ < 0) {
    throw Error("core::checkpoint", "append on closed journal", path_);
  }
  frame::write_frame("journal/write", fd_,
                     frame::log_tag(kJournalMagic, kind_, next_seq_), data,
                     size, path_);
  if (failpoint::checked_fsync("journal/fsync", fd_) != 0) {
    throw Error("core::checkpoint", "journal fsync failed",
                path_ + ": " + std::strerror(errno));
  }
  ++next_seq_;
  ++appended_;
}

void RunJournal::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::vector<JournalRecord> RunJournal::replay(const std::string& path,
                                              std::uint32_t kind,
                                              std::size_t* skipped_records) {
  const auto bytes = read_if_present(path, "cannot open journal");
  frame::ScanResult scan;
  auto records = bytes ? scan_journal(*bytes, kind, path, &scan)
                       : std::vector<JournalRecord>{};
  if (skipped_records != nullptr) *skipped_records = scan.skipped_regions;
  return records;
}

}  // namespace icsc::core
