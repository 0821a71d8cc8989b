// The CRC frame under every durable file in the framework: snapshots and
// run journals (core/checkpoint). This header is the one place the layout
// is written down; each caller owns only its tag contents, its payload cap
// and what it does with a bad frame.
//
// A frame is a 32-byte header, then the payload. Integers are little-endian
// byte by byte, so files are portable across compilers and architectures:
//
//   bytes  0..15  caller tag: magic and stream identity (below)
//   bytes 16..23  u64 payload_size
//   bytes 24..27  u32 payload_crc   CRC-32 of the payload
//   bytes 28..31  u32 header_crc    CRC-32 of bytes 0..27
//
// Caller tags:
//   snapshot      "ICSCSNAP" | u32 kind | u32 version   (one frame per file)
//   run journal   u32 "JRNL" | u32 kind | u64 seq
//
// The file helpers' writes, file fsyncs and renames go through failpoint
// sites the caller names (core/failpoint.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace icsc::core {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t crc = 0);

namespace frame {

inline constexpr std::size_t kHeaderSize = 32;
using Tag = std::array<std::uint8_t, 16>;

void store_u32(std::uint8_t* at, std::uint32_t value);
void store_u64(std::uint8_t* at, std::uint64_t value);
std::uint32_t load_u32(const std::uint8_t* at);
std::uint64_t load_u64(const std::uint8_t* at);

/// The run-journal tag: u32 magic | u32 word | u64 id.
Tag log_tag(std::uint32_t magic, std::uint32_t word, std::uint64_t id);

/// A frame inside a byte buffer; the pointers alias the buffer.
struct Frame {
  const std::uint8_t* tag = nullptr;  // Tag-sized
  const std::uint8_t* payload = nullptr;
  std::uint64_t size = 0;
  std::size_t offset = 0;  // first header byte
  std::size_t end = 0;     // one past the payload
};

/// parse() verdicts, in the order the checks run.
enum class Status {
  kOk,
  kShortHeader,    // fewer than kHeaderSize bytes at the offset
  kBadHeaderCrc,
  kBadSize,        // payload_size above the cap or past the buffer end
  kBadPayloadCrc,
};

/// Validates the frame at `bytes[at]` (`at <= bytes.size()`) without
/// looking at its tag. Fills `*out` on kOk, and also on kBadPayloadCrc so
/// a caller can still tell a short file from a damaged one.
Status parse(const std::vector<std::uint8_t>& bytes, std::size_t at,
             std::uint64_t max_payload, Frame* out);

struct ScanResult {
  std::size_t valid_end = 0;        // one past the last frame visited
  std::size_t skipped_regions = 0;  // corrupt regions resynced past
};

/// Forward scan of a log whose tags start with u32 `magic`: calls `visit`
/// on each valid frame in order until it returns false. Invalid bytes
/// followed by a valid frame are a corrupt mid-file region: skipped and
/// counted. Invalid bytes with none after them are the torn tail a dying
/// writer leaves: the scan stops there, at valid_end.
ScanResult scan(const std::vector<std::uint8_t>& bytes, std::uint32_t magic,
                std::uint64_t max_payload,
                const std::function<bool(const Frame&)>& visit);

/// Writes one frame (header, then payload) to `fd` through failpoint
/// `site`, retrying short writes; failure throws core::Error naming `path`.
void write_frame(const char* site, int fd, const Tag& tag, const void* payload,
                 std::size_t size, const std::string& path);

/// Reads the whole file behind `fd`, from byte 0 to the end.
std::vector<std::uint8_t> read_from(int fd, const std::string& path);

/// Atomically replaces `path`: `fill(fd, tmp_path)` writes the new
/// contents to `path`.tmp, which is fsynced, renamed over `path` and made
/// durable by a directory fsync. On failure the temp file is removed, the
/// error propagates and `path` keeps its old contents.
void replace_file(const std::string& path, const char* fsync_site,
                  const char* rename_site,
                  const std::function<void(int, const std::string&)>& fill);

}  // namespace frame
}  // namespace icsc::core
