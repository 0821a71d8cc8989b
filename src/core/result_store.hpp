// Crash-safe persistent cross-run result store.
//
// The per-run memoization layers (the DSE EvalCache, campaign snapshots)
// die with the process; this store is the durable tier above them: a
// fingerprint-keyed, append-only, CRC-framed log on disk that survives
// kill -9, torn writes, injected I/O errors, and bit-flips, so a second
// identical exploration -- in the same process, a later run, or another
// process sharing the store directory -- costs ~zero.
//
// On-disk format: one file `store.log` under the store directory, a
// sequence of CRC frames (layout in core/frame.hpp) tagged "RST1" |
// schema_version | fingerprint. Appends are frame-at-a-time + fsync under
// an exclusive flock on `store.lock`, so concurrent writers -- threads or
// whole processes -- never interleave frames.
//
// Robustness contract, enforced by the failpoint torture suite:
//   * Recovery from any crash point: opening scans the log, indexes every
//     valid frame, resynchronizes past corrupt mid-file frames (bit-flips)
//     by searching for the next valid frame boundary, and truncates the
//     torn tail a dying writer left behind.
//   * Quarantine: a frame whose CRC fails is never indexed and never
//     served; a record whose schema version differs from the reader's is
//     counted and reported as a miss, never deserialized.
//   * Failed appends heal: an injected EIO/ENOSPC/fsync failure rolls the
//     log back to the pre-append frame boundary; if even the rollback
//     fails the store seals itself (lookups keep working, puts throw)
//     rather than risk interleaving into a torn frame.
//   * Compaction is copy + fsync + atomic rename (+ directory fsync), so
//     a crash anywhere leaves either the old log or the new one, complete.
//
// Eviction: when the log outgrows `max_bytes` (or holds more than
// `max_records` live records) compaction keeps the most-recently-used
// records -- last-lookup order, insertion order for never-read ones -- and
// drops the rest, bounding disk use for long-lived store directories.
//
// Observability: hits/misses/quarantines/appends/evictions are exported
// through core/trace counters (result_store.*) and via stats().
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace icsc::core {

struct ResultStoreConfig {
  /// Store directory (created, parents included, if absent).
  std::string dir;
  /// Compaction trigger: log size past which put() compacts. 0 disables.
  std::uint64_t max_bytes = 64ULL << 20;
  /// Eviction bound on live records at compaction (0 = unbounded).
  std::size_t max_records = 0;
};

/// Cumulative accounting since open (per handle, not persisted).
struct ResultStoreStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  /// Lookups refused because the stored schema version differs.
  std::uint64_t version_mismatches = 0;
  std::uint64_t appends = 0;
  /// Valid frames indexed from disk (recovery at open + refresh pickups
  /// of other writers' frames), as opposed to appends through this handle.
  std::uint64_t recovered_records = 0;
  /// Corrupt mid-file regions skipped during recovery scans (each region
  /// is at least one unrecoverable record).
  std::uint64_t quarantined_regions = 0;
  std::uint64_t quarantined_bytes = 0;
  /// Torn trailing bytes truncated at open (a writer died mid-frame).
  std::uint64_t torn_tail_bytes = 0;
  /// Appends rolled back after an injected/real I/O failure.
  std::uint64_t failed_appends = 0;
  std::uint64_t evicted = 0;
  std::uint64_t compactions = 0;
  /// Current state.
  std::size_t live_records = 0;
  std::uint64_t file_bytes = 0;
  bool sealed = false;  // puts refused after an unrecoverable append failure
};

/// One open handle on a store directory. Thread-safe; multi-process-safe
/// through the flock protocol described in the header comment.
class ResultStore {
 public:
  explicit ResultStore(ResultStoreConfig config);
  ~ResultStore();

  ResultStore(const ResultStore&) = delete;
  ResultStore& operator=(const ResultStore&) = delete;

  /// Returns the stored payload for (fingerprint, schema_version), or
  /// nullopt on miss. A record whose stored schema version differs is a
  /// counted miss, never served. Never returns bytes whose CRC did not
  /// validate at recovery time.
  std::optional<std::vector<std::uint8_t>> lookup(
      std::uint64_t fingerprint, std::uint32_t schema_version);

  /// Durably appends (fingerprint, schema_version) -> payload; when this
  /// returns, the record survives kill -9. Re-putting an identical record
  /// is a no-op; a different payload for the same key supersedes the old
  /// one (last frame wins on recovery). Throws core::Error on I/O failure
  /// (the log is rolled back to the previous frame boundary first) and on
  /// a sealed store.
  void put(std::uint64_t fingerprint, std::uint32_t schema_version,
           const void* data, std::size_t size);
  void put(std::uint64_t fingerprint, std::uint32_t schema_version,
           const std::vector<std::uint8_t>& payload) {
    put(fingerprint, schema_version, payload.data(), payload.size());
  }

  /// Picks up frames appended by other processes since open()/the last
  /// refresh, and re-opens the log if another process compacted it.
  void refresh();

  /// Rewrites the log to live records only (most-recently-used first,
  /// capped at max_records), via temp file + fsync + atomic rename.
  void compact();

  std::size_t size() const;
  ResultStoreStats stats() const;
  const std::string& dir() const { return config_.dir; }

  /// Log frame header size, exposed for tests that build corrupt frames.
  static constexpr std::size_t kFrameHeaderSize = 32;

 private:
  struct Entry {
    std::uint32_t schema_version = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t last_use = 0;  // monotonically increasing use tick
  };

  void open_and_recover();
  void reopen_log();  // (re)opens store.log for appending, closing the old fd
  void append_frame_locked(std::uint64_t fingerprint,
                           std::uint32_t schema_version, const void* data,
                           std::size_t size);
  void compact_locked();
  void refresh_locked();
  void lock_file();
  void unlock_file();

  ResultStoreConfig config_;
  mutable std::mutex mutex_;
  int lock_fd_ = -1;
  int log_fd_ = -1;
  std::uint64_t scan_offset_ = 0;  // log bytes already indexed
  std::uint64_t use_tick_ = 0;
  bool sealed_ = false;
  std::map<std::uint64_t, Entry> index_;
  ResultStoreStats stats_;
};

}  // namespace icsc::core
