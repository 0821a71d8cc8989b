#include "core/result_store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/failpoint.hpp"
#include "core/frame.hpp"
#include "core/trace.hpp"

namespace icsc::core {

namespace {

constexpr std::uint32_t kStoreMagic = 0x31545352U;  // "RST1"
// Corrupt size fields must not drive huge allocations during recovery.
constexpr std::uint64_t kMaxPayloadBytes = 1ULL << 30;
static_assert(ResultStore::kFrameHeaderSize == frame::kHeaderSize);

/// Creates `dir` and any missing parents (mkdir -p).
void make_dirs(const std::string& dir) {
  std::string prefix;
  std::size_t at = 0;
  while (at <= dir.size()) {
    const std::size_t slash = dir.find('/', at);
    prefix = slash == std::string::npos ? dir : dir.substr(0, slash);
    at = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (prefix.empty()) continue;  // leading '/'
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      throw Error("core::result_store", "cannot create store directory",
                  prefix + ": " + std::strerror(errno));
    }
  }
}

std::uint64_t file_size(int fd, const std::string& path) {
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    throw Error("core::result_store", "fstat failed",
                path + ": " + std::strerror(errno));
  }
  return static_cast<std::uint64_t>(st.st_size);
}

}  // namespace

ResultStore::ResultStore(ResultStoreConfig config)
    : config_(std::move(config)) {
  if (config_.dir.empty()) {
    throw Error("core::result_store", "store directory must be non-empty");
  }
  make_dirs(config_.dir);
  const std::string lock_path = config_.dir + "/store.lock";
  lock_fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (lock_fd_ < 0) {
    throw Error("core::result_store", "cannot open lock file",
                lock_path + ": " + std::strerror(errno));
  }
  try {
    open_and_recover();
  } catch (...) {
    ::close(lock_fd_);
    lock_fd_ = -1;
    if (log_fd_ >= 0) {
      ::close(log_fd_);
      log_fd_ = -1;
    }
    throw;
  }
}

ResultStore::~ResultStore() {
  if (log_fd_ >= 0) ::close(log_fd_);
  if (lock_fd_ >= 0) ::close(lock_fd_);
}

void ResultStore::lock_file() {
  while (::flock(lock_fd_, LOCK_EX) != 0) {
    if (errno == EINTR) continue;
    throw Error("core::result_store", "cannot lock store",
                config_.dir + ": " + std::strerror(errno));
  }
}

void ResultStore::unlock_file() { ::flock(lock_fd_, LOCK_UN); }

void ResultStore::reopen_log() {
  const std::string log_path = config_.dir + "/store.log";
  const int fd = ::open(log_path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    throw Error("core::result_store", "cannot open store log",
                log_path + ": " + std::strerror(errno));
  }
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = fd;
}

void ResultStore::open_and_recover() {
  ICSC_TRACE_SPAN("result_store/open");
  reopen_log();
  lock_file();
  try {
    // A temp file left by a compaction that died pre-rename is garbage.
    ::unlink((config_.dir + "/store.log.tmp").c_str());
    // Recovery is a refresh from offset 0 into the empty index.
    refresh_locked();
  } catch (...) {
    unlock_file();
    throw;
  }
  unlock_file();
}

std::optional<std::vector<std::uint8_t>> ResultStore::lookup(
    std::uint64_t fingerprint, std::uint32_t schema_version) {
  ICSC_TRACE_SPAN("result_store/lookup");
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(fingerprint);
  if (it == index_.end()) {
    ++stats_.misses;
    ICSC_TRACE_COUNT("result_store.misses", 1);
    return std::nullopt;
  }
  if (it->second.schema_version != schema_version) {
    // Version-mismatched records are quarantined at read time: they stay
    // on disk for readers of their own schema, but are never deserialized
    // by this one.
    ++stats_.version_mismatches;
    ++stats_.misses;
    ICSC_TRACE_COUNT("result_store.version_mismatches", 1);
    ICSC_TRACE_COUNT("result_store.misses", 1);
    return std::nullopt;
  }
  it->second.last_use = ++use_tick_;
  ++stats_.hits;
  ICSC_TRACE_COUNT("result_store.hits", 1);
  return it->second.payload;
}

void ResultStore::put(std::uint64_t fingerprint, std::uint32_t schema_version,
                      const void* data, std::size_t size) {
  ICSC_TRACE_SPAN("result_store/put");
  const std::lock_guard<std::mutex> lock(mutex_);
  if (sealed_) {
    throw Error("core::result_store", "store sealed after append failure",
                config_.dir);
  }
  const auto it = index_.find(fingerprint);
  if (it != index_.end() && it->second.schema_version == schema_version &&
      it->second.payload.size() == size &&
      (size == 0 || std::memcmp(it->second.payload.data(), data, size) == 0)) {
    return;  // identical record already durable
  }
  lock_file();
  try {
    append_frame_locked(fingerprint, schema_version, data, size);
    const bool over_bytes =
        config_.max_bytes > 0 && stats_.file_bytes > config_.max_bytes;
    const bool over_records =
        config_.max_records > 0 && index_.size() > config_.max_records;
    if (over_records || over_bytes) {
      // Compacting an all-live log cannot shrink it; only rewrite when
      // there is dead weight to drop or records to evict.
      std::uint64_t live_bytes = 0;
      for (const auto& [fp, entry] : index_) {
        live_bytes += kFrameHeaderSize + entry.payload.size();
      }
      if (over_records || live_bytes < stats_.file_bytes) compact_locked();
    }
  } catch (...) {
    unlock_file();
    throw;
  }
  unlock_file();
}

void ResultStore::append_frame_locked(std::uint64_t fingerprint,
                                      std::uint32_t schema_version,
                                      const void* data, std::size_t size) {
  const std::string log_path = config_.dir + "/store.log";
  // Another process may have appended (or compacted) since our last scan:
  // fold its frames in first so this handle's view stays a superset and
  // the failure rollback below truncates to the true pre-append boundary.
  refresh_locked();
  const std::uint64_t before = file_size(log_fd_, log_path);
  try {
    frame::write_frame("result_store/write", log_fd_,
                       frame::log_tag(kStoreMagic, schema_version, fingerprint),
                       data, size, log_path);
    if (failpoint::checked_fsync("result_store/fsync", log_fd_) != 0) {
      throw Error("core::result_store", "fsync failed",
                  log_path + ": " + std::strerror(errno));
    }
  } catch (const failpoint::CrashError&) {
    // Simulated kill -9 mid-append: the process is gone, so no rollback
    // happens -- exactly the torn tail the next open must recover from.
    // This handle is dead either way.
    sealed_ = true;
    stats_.sealed = true;
    ++stats_.failed_appends;
    throw;
  } catch (...) {
    // The frame may be partially on disk. Roll the log back to the
    // pre-append boundary so later appends cannot interleave into a torn
    // frame; if even that fails, seal the store (lookups keep serving the
    // in-memory index, puts are refused).
    ++stats_.failed_appends;
    ICSC_TRACE_COUNT("result_store.failed_appends", 1);
    bool rolled_back = false;
    try {
      rolled_back = failpoint::checked_ftruncate(
                        "result_store/truncate", log_fd_,
                        static_cast<off_t>(before)) == 0;
    } catch (const failpoint::CrashError&) {
      rolled_back = false;
    }
    if (!rolled_back) {
      sealed_ = true;
      stats_.sealed = true;
    }
    throw;
  }
  Entry& entry = index_[fingerprint];
  entry.schema_version = schema_version;
  entry.payload.assign(static_cast<const std::uint8_t*>(data),
                       static_cast<const std::uint8_t*>(data) + size);
  entry.last_use = ++use_tick_;
  scan_offset_ = before + kFrameHeaderSize + size;
  stats_.file_bytes = scan_offset_;
  stats_.live_records = index_.size();
  ++stats_.appends;
  ICSC_TRACE_COUNT("result_store.appends", 1);
}

void ResultStore::refresh() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lock_file();
  try {
    refresh_locked();
  } catch (...) {
    unlock_file();
    throw;
  }
  unlock_file();
}

void ResultStore::refresh_locked() {
  const std::string log_path = config_.dir + "/store.log";
  // Another process's compaction atomically replaced the log file; our fd
  // still points at the old inode. Reopen and rescan from scratch (the
  // compactor folded every durable frame in before rewriting).
  struct ::stat ours{}, current{};
  if (::fstat(log_fd_, &ours) == 0 &&
      ::stat(log_path.c_str(), &current) == 0 &&
      (ours.st_ino != current.st_ino || ours.st_dev != current.st_dev)) {
    reopen_log();
    scan_offset_ = 0;
    index_.clear();
  }
  const std::uint64_t end = file_size(log_fd_, log_path);
  if (end > scan_offset_) {
    const std::vector<std::uint8_t> tail =
        frame::read_from(log_fd_, scan_offset_, log_path);
    const frame::ScanResult scan = frame::scan(
        tail, kStoreMagic, kMaxPayloadBytes, [&](const frame::Frame& record) {
          // Later frames supersede earlier ones.
          Entry& entry = index_[frame::load_u64(record.tag + 8)];
          entry.schema_version = frame::load_u32(record.tag + 4);
          entry.payload.assign(record.payload, record.payload + record.size);
          entry.last_use = ++use_tick_;
          ++stats_.recovered_records;
          return true;
        });
    // A corrupt mid-file region (bit-flip, interrupted rollback) is
    // quarantined: counted, never indexed.
    stats_.quarantined_regions += scan.skipped_regions;
    stats_.quarantined_bytes += scan.skipped_bytes;
    if (scan.skipped_regions > 0) {
      ICSC_TRACE_COUNT("result_store.quarantined", scan.skipped_regions);
    }
    scan_offset_ += scan.valid_end;
    stats_.live_records = index_.size();
    // Trailing garbage can only be the torn tail of a writer that died
    // while holding the lock we now hold: truncate it away so our next
    // append lands on a frame boundary.
    if (scan_offset_ < end) {
      stats_.torn_tail_bytes += end - scan_offset_;
      if (failpoint::checked_ftruncate("result_store/truncate", log_fd_,
                                       static_cast<off_t>(scan_offset_)) !=
          0) {
        throw Error("core::result_store", "cannot truncate torn tail",
                    log_path + ": " + std::strerror(errno));
      }
    }
  }
  stats_.file_bytes = scan_offset_;
}

void ResultStore::compact() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lock_file();
  try {
    refresh_locked();
    compact_locked();
  } catch (...) {
    unlock_file();
    throw;
  }
  unlock_file();
}

void ResultStore::compact_locked() {
  ICSC_TRACE_SPAN("result_store/compact");
  const std::string log_path = config_.dir + "/store.log";

  // Eviction: keep the max_records most-recently-used entries (insertion
  // counts as a use, so never-read records age out first among peers).
  std::vector<std::uint64_t> victims;
  if (config_.max_records > 0 && index_.size() > config_.max_records) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> by_use;  // (tick, fp)
    by_use.reserve(index_.size());
    for (const auto& [fp, entry] : index_) {
      by_use.emplace_back(entry.last_use, fp);
    }
    std::sort(by_use.begin(), by_use.end());
    const std::size_t drop = index_.size() - config_.max_records;
    for (std::size_t i = 0; i < drop; ++i) victims.push_back(by_use[i].second);
  }
  for (const std::uint64_t fp : victims) {
    index_.erase(fp);
    ++stats_.evicted;
    ICSC_TRACE_COUNT("result_store.evicted", 1);
  }

  std::uint64_t written = 0;
  frame::replace_file(
      log_path, "result_store/fsync", "result_store/rename",
      [&](int fd, const std::string& tmp_path) {
        for (const auto& [fp, entry] : index_) {
          frame::write_frame("result_store/write", fd,
                             frame::log_tag(kStoreMagic, entry.schema_version,
                                            fp),
                             entry.payload.data(), entry.payload.size(),
                             tmp_path);
          written += kFrameHeaderSize + entry.payload.size();
        }
      });
  reopen_log();  // our append fd still points at the replaced inode
  scan_offset_ = written;
  stats_.file_bytes = written;
  stats_.live_records = index_.size();
  ++stats_.compactions;
  ICSC_TRACE_COUNT("result_store.compactions", 1);
}

std::size_t ResultStore::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

ResultStoreStats ResultStore::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace icsc::core
