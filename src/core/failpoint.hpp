// Deterministic failpoint injection for durability code paths.
//
// The crash-safety claims in this framework -- "a process killed mid-save
// leaves the previous snapshot intact", "a journal never replays a corrupt
// record" -- are only worth stating if they are *tested* at every I/O
// boundary, not just at the handful a SIGKILL bench happens to land on.
// This header provides named failpoints: sites compiled into the I/O paths
// of core/checkpoint that can be armed to fire a fault on a specific hit
// of a specific site, chosen deterministically from a seed. Supported
// faults:
//
//   kShortWrite -- the write persists only a prefix of the requested bytes
//                  and the process then "dies" (torn frame on disk).
//   kError      -- the syscall fails with an injected errno (EIO, ENOSPC);
//                  the process survives and must keep its invariants.
//   kFsyncError -- fsync reports failure; durability of the preceding
//                  writes is no longer guaranteed.
//   kCrash      -- simulated kill -9 at this exact point: no further bytes
//                  reach disk through any failpoint-guarded wrapper until
//                  clear_crash(); the wrapper throws CrashError to unwind.
//
// Determinism contract: a schedule is (site, hit index, action) derived
// statelessly from a seed over the site universe observed in a recording
// run, so every torture schedule is reproducible from its seed alone.
// With nothing armed, every wrapper is a plain passthrough behind one
// relaxed atomic load -- production builds pay ~nothing.
//
// Thread safety: arming/disarming and hit accounting are mutex-guarded;
// the fast path (nothing armed, no crash pending) is lock-free.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/error.hpp"

namespace icsc::core::failpoint {

enum class Action : std::uint8_t {
  kNone = 0,
  kShortWrite,  // persist keep_bytes of the buffer, then crash
  kError,       // fail the call with error_code
  kFsyncError,  // fail an fsync with error_code
  kCrash,       // simulated kill -9 at this point
};

const char* action_name(Action action);

/// Arms one fault at one site. `at_hit` is 0-based: the trigger fires on
/// the (at_hit+1)-th time the site is reached after arming.
struct Trigger {
  Action action = Action::kNone;
  std::uint64_t at_hit = 0;
  int error_code = 5;  // EIO; ENOSPC for space-exhaustion schedules
  /// kShortWrite: fraction of the requested bytes that reach disk before
  /// the simulated death, in [0, 1).
  double keep_fraction = 0.5;
};

/// Outcome of one hit() evaluation.
struct Fired {
  Action action = Action::kNone;
  int error_code = 0;
  double keep_fraction = 0.0;
};

/// True when any trigger is armed or a simulated crash is pending. One
/// relaxed atomic load; the wrappers return to the passthrough path
/// immediately when false.
bool enabled();

/// Arms `trigger` at `site` (replacing any trigger already armed there)
/// and resets the site's hit counter.
void arm(const std::string& site, const Trigger& trigger);

/// Removes every trigger and zeroes all hit counters. Does NOT clear a
/// pending crash (see clear_crash()).
void disarm_all();

/// Counts a hit at `site` and returns the fired action, if any. kCrash
/// and kShortWrite flip the process into the crashed state first.
Fired hit(const char* site);

/// Hit counts per site since the last disarm_all(), for recording runs
/// that enumerate the site universe a seeded schedule draws from.
std::map<std::string, std::uint64_t> hit_counts();

/// Simulated kill -9 state: while set, every failpoint-guarded I/O
/// wrapper throws CrashError before touching the file descriptor.
bool crashed();
void clear_crash();

/// Thrown by the wrappers when a crash action fires (or is pending): the
/// in-process stand-in for the process ceasing to exist. Catch it at the
/// torture harness level only; production code never sees one because
/// nothing is ever armed.
class CrashError : public Error {
 public:
  explicit CrashError(const std::string& site)
      : Error("core::failpoint", "simulated crash", site) {}
};

/// One (site, trigger) schedule drawn deterministically from `seed` over
/// the site universe `universe` (site -> hit count from a recording run).
/// Sites and actions are chosen by stateless hashing, so schedule k is
/// reproducible from its seed alone. Returns an empty site when the
/// universe is empty.
struct Schedule {
  std::string site;
  Trigger trigger;
};

Schedule seeded_schedule(std::uint64_t seed,
                         const std::map<std::string, std::uint64_t>& universe);

// ---------------------------------------------------------------------------
// Failpoint-aware syscall wrappers. Passthroughs when nothing is armed.
// All of them throw CrashError when a crash is pending or fires here.

/// ::write with short-write/error/crash injection. Returns the byte count
/// actually written (possibly short), or -1 with errno set.
ssize_t checked_write(const char* site, int fd, const void* data,
                      std::size_t size);

/// ::fsync with fsync-failure/crash injection.
int checked_fsync(const char* site, int fd);

/// ::rename with error/crash injection.
int checked_rename(const char* site, const char* from, const char* to);

/// ::ftruncate with error/crash injection.
int checked_ftruncate(const char* site, int fd, off_t length);

}  // namespace icsc::core::failpoint
