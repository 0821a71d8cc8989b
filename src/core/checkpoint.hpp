// Crash-safe persistence for long-running campaigns.
//
// Two durability primitives sit under every resumable campaign in the
// framework (DSE sweeps, Monte-Carlo fault campaigns, DNA archival runs):
//
//   Snapshot (SnapshotWriter / SnapshotReader) -- one versioned,
//     CRC-guarded binary blob written with write-to-temp + fsync + atomic
//     rename, so the file on disk is always a *complete* snapshot: a
//     process killed mid-save leaves the previous snapshot intact.
//
//   RunJournal -- an append-only record log with one fsync per record. A
//     campaign appends a record per completed unit of work; after a crash,
//     replay() recovers every valid record: a torn or corrupt tail is
//     detected by CRC and truncated away (at most the one record being
//     written when the process died is lost), and a CRC-mismatched record
//     *mid-file* (bit-flip) is skipped and counted rather than silently
//     discarding everything after it.
//
// Both are written as CRC frames (on-disk layout and core::crc32 in
// core/frame.hpp); fields are little-endian byte-by-byte, so files are
// portable across compilers and architectures. Corruption (bad magic, CRC
// mismatch, truncated payload, wrong version) is reported as core::Error
// -- a corrupt snapshot must never be silently accepted.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/frame.hpp"

namespace icsc::core {

/// Append-only binary serializer: fixed-width little-endian fields.
class SnapshotWriter {
 public:
  void put_u8(std::uint8_t value) { bytes_.push_back(value); }
  void put_u32(std::uint32_t value);
  void put_u64(std::uint64_t value);
  void put_i32(std::int32_t value) {
    put_u32(static_cast<std::uint32_t>(value));
  }
  void put_i64(std::int64_t value) {
    put_u64(static_cast<std::uint64_t>(value));
  }
  void put_f64(double value);  // IEEE-754 bit pattern, bit-exact round trip
  void put_bool(bool value) { put_u8(value ? 1 : 0); }
  void put_bytes(const void* data, std::size_t size);
  void put_string(const std::string& value);

  const std::vector<std::uint8_t>& payload() const { return bytes_; }

  /// Atomically persists header + payload to `path`: writes `path`.tmp,
  /// fsyncs it, renames over `path`, and fsyncs the directory. `kind` tags
  /// the snapshot stream (each subsystem picks its own constant) and
  /// `version` its format revision; both are checked on load.
  void save(const std::string& path, std::uint32_t kind,
            std::uint32_t version) const;

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a snapshot payload. Reading past the end or
/// loading a corrupt/mismatched file throws core::Error.
class SnapshotReader {
 public:
  /// Loads and validates `path`. Returns nullopt iff the file does not
  /// exist (fresh start); throws core::Error on any corruption -- bad
  /// magic, header/payload CRC mismatch, truncation, wrong `kind`, or a
  /// version newer than `max_version`.
  static std::optional<SnapshotReader> try_load(const std::string& path,
                                                std::uint32_t kind,
                                                std::uint32_t max_version);

  /// Wraps an in-memory payload (journal record bodies reuse the field
  /// codec).
  explicit SnapshotReader(std::vector<std::uint8_t> payload,
                          std::uint32_t version = 0)
      : bytes_(std::move(payload)), version_(version) {}

  std::uint32_t version() const { return version_; }
  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool done() const { return remaining() == 0; }

  std::uint8_t get_u8();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  bool get_bool() { return get_u8() != 0; }
  std::vector<std::uint8_t> get_bytes(std::size_t size);
  std::string get_string();

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
  std::uint32_t version_ = 0;
};

/// One recovered journal record.
struct JournalRecord {
  std::uint64_t seq = 0;
  std::vector<std::uint8_t> payload;
};

/// Append-only, fsync-per-record run journal. Opening an existing file
/// recovers the longest valid record prefix and truncates any torn tail,
/// so append() continues exactly after the last durable record.
class RunJournal {
 public:
  RunJournal() = default;

  /// Opens (creating if absent) `path` for stream `kind`. Records already
  /// present with a matching kind are exposed via recovered(); a corrupt
  /// or torn tail is truncated. A first record of a different kind throws
  /// core::Error (the file belongs to another experiment).
  RunJournal(const std::string& path, std::uint32_t kind);

  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;
  RunJournal(RunJournal&& other) noexcept;
  RunJournal& operator=(RunJournal&& other) noexcept;
  ~RunJournal();

  bool open() const { return fd_ >= 0; }

  /// Path this journal was opened on (empty for a default-constructed
  /// handle). Carried so every I/O failure -- fsync included -- can name
  /// the offending file in its core::Error.
  const std::string& path() const { return path_; }

  /// Records recovered when the journal was opened. A corrupt record
  /// mid-file (bit-flip) is skipped -- the scan resynchronizes on the next
  /// valid record boundary -- so only the torn tail is ever dropped.
  const std::vector<JournalRecord>& recovered() const { return recovered_; }

  /// Corrupt mid-file records skipped during open-time recovery (also
  /// counted on the `journal.skipped_records` trace counter).
  std::size_t skipped() const { return skipped_; }

  /// Sequence number the next append() will carry.
  std::uint64_t next_seq() const { return next_seq_; }

  /// Appends one record and fsyncs; when this returns, the record survives
  /// SIGKILL / power loss.
  void append(const void* data, std::size_t size);
  void append(const SnapshotWriter& writer) {
    append(writer.payload().data(), writer.payload().size());
  }

  /// Records appended through this handle (excludes recovered ones).
  std::size_t appended() const { return appended_; }

  void close();

  /// Read-only replay of `path`: every valid record for `kind`, skipping
  /// (and counting into `*skipped_records`, when non-null) corrupt
  /// mid-file records, up to the torn tail. Missing file yields an empty
  /// vector; a first record of the wrong kind throws core::Error.
  static std::vector<JournalRecord> replay(
      const std::string& path, std::uint32_t kind,
      std::size_t* skipped_records = nullptr);

 private:
  int fd_ = -1;
  std::string path_;
  std::uint32_t kind_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t appended_ = 0;
  std::size_t skipped_ = 0;
  std::vector<JournalRecord> recovered_;
};

}  // namespace icsc::core
