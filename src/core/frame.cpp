#include "core/frame.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/error.hpp"
#include "core/failpoint.hpp"

namespace icsc::core {

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t crc) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ bytes[i]) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

namespace frame {

namespace {

/// Full write through failpoint `site`, so the torture suites can inject
/// short writes, EIO/ENOSPC and crash-here at this exact boundary.
void write_all(const char* site, int fd, const void* data, std::size_t size,
               const std::string& path) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  while (size > 0) {
    const ssize_t written = failpoint::checked_write(site, fd, bytes, size);
    if (written < 0) {
      if (errno == EINTR) continue;
      throw Error("core::frame", "write failed",
                  path + ": " + std::strerror(errno));
    }
    bytes += written;
    size -= static_cast<std::size_t>(written);
  }
}

}  // namespace

void store_u32(std::uint8_t* at, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

void store_u64(std::uint8_t* at, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

std::uint32_t load_u32(const std::uint8_t* at) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) value |= std::uint32_t{at[i]} << (8 * i);
  return value;
}

std::uint64_t load_u64(const std::uint8_t* at) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value |= std::uint64_t{at[i]} << (8 * i);
  return value;
}

Tag log_tag(std::uint32_t magic, std::uint32_t word, std::uint64_t id) {
  Tag tag{};
  store_u32(tag.data(), magic);
  store_u32(tag.data() + 4, word);
  store_u64(tag.data() + 8, id);
  return tag;
}

Status parse(const std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t max_payload, Frame* out) {
  if (bytes.size() - at < kHeaderSize) return Status::kShortHeader;
  const std::uint8_t* head = bytes.data() + at;
  if (crc32(head, kHeaderSize - 4) != load_u32(head + 28)) {
    return Status::kBadHeaderCrc;
  }
  const std::uint64_t size = load_u64(head + 16);
  if (size > max_payload || bytes.size() - at - kHeaderSize < size) {
    return Status::kBadSize;
  }
  *out = Frame{head, head + kHeaderSize, size, at,
               at + kHeaderSize + static_cast<std::size_t>(size)};
  return crc32(out->payload, static_cast<std::size_t>(size)) ==
                 load_u32(head + 24)
             ? Status::kOk
             : Status::kBadPayloadCrc;
}

ScanResult scan(const std::vector<std::uint8_t>& bytes, std::uint32_t magic,
                std::uint64_t max_payload,
                const std::function<bool(const Frame&)>& visit) {
  Frame found;
  // The u32 magic compare is the cheap prefilter of the resync search.
  const auto valid_at = [&](std::size_t at) {
    return bytes.size() - at >= kHeaderSize &&
           load_u32(bytes.data() + at) == magic &&
           parse(bytes, at, max_payload, &found) == Status::kOk;
  };
  ScanResult result;
  std::size_t cursor = 0;
  while (cursor < bytes.size()) {
    if (valid_at(cursor)) {
      if (!visit(found)) break;
      cursor = found.end;
      result.valid_end = cursor;
      continue;
    }
    // Invalid bytes at `cursor`: resynchronize on the next offset holding
    // a complete valid frame. Found -> the gap was a corrupt mid-file
    // region: count it, go on there. Not found -> torn tail; stop.
    std::size_t next = cursor + 1;
    while (next + kHeaderSize <= bytes.size() && !valid_at(next)) ++next;
    if (next + kHeaderSize > bytes.size()) break;
    ++result.skipped_regions;
    cursor = next;
  }
  return result;
}

void write_frame(const char* site, int fd, const Tag& tag, const void* payload,
                 std::size_t size, const std::string& path) {
  std::array<std::uint8_t, kHeaderSize> header{};
  std::memcpy(header.data(), tag.data(), tag.size());
  store_u64(header.data() + 16, size);
  store_u32(header.data() + 24, crc32(payload, size));
  store_u32(header.data() + 28, crc32(header.data(), kHeaderSize - 4));
  write_all(site, fd, header.data(), header.size(), path);
  write_all(site, fd, payload, size, path);
}

std::vector<std::uint8_t> read_from(int fd, const std::string& path) {
  if (::lseek(fd, 0, SEEK_SET) < 0) {
    throw Error("core::frame", "seek failed",
                path + ": " + std::strerror(errno));
  }
  std::vector<std::uint8_t> bytes;
  std::array<std::uint8_t, 65536> chunk;
  for (;;) {
    const ssize_t got = ::read(fd, chunk.data(), chunk.size());
    if (got < 0) {
      if (errno == EINTR) continue;
      throw Error("core::frame", "read failed",
                  path + ": " + std::strerror(errno));
    }
    if (got == 0) break;
    bytes.insert(bytes.end(), chunk.data(), chunk.data() + got);
  }
  return bytes;
}

void replace_file(const std::string& path, const char* fsync_site,
                  const char* rename_site,
                  const std::function<void(int, const std::string&)>& fill) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw Error("core::frame", "cannot create temp file",
                tmp + ": " + std::strerror(errno));
  }
  try {
    fill(fd, tmp);
    if (failpoint::checked_fsync(fsync_site, fd) != 0) {
      throw Error("core::frame", "fsync failed",
                  tmp + ": " + std::strerror(errno));
    }
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (failpoint::checked_rename(rename_site, tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    throw Error("core::frame", "atomic rename failed",
                path + ": " + std::strerror(err));
  }
  // Best-effort directory fsync makes the rename itself durable.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace frame
}  // namespace icsc::core
