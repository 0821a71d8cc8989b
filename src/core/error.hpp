// Structured error type for invalid inputs across the framework.
//
// Error contract: any API that validates its inputs throws
// icsc::core::Error (a std::runtime_error) whose message carries a
// "subsystem: what went wrong (context)" string. Validation failures are
// programmer-visible conditions -- shape mismatches, out-of-range indices,
// malformed configurations -- and must never manifest as silent garbage or
// debug-only asserts on the library boundary. Hot inner loops may still
// assert; the boundary functions documented as "throws Error" do the
// checking exactly once on entry.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace icsc::core {

class Error : public std::runtime_error {
public:
  /// `where` names the subsystem/function, `what` describes the failure,
  /// `context` (optional) carries offending values, e.g. shapes.
  Error(const std::string& where, const std::string& what,
        const std::string& context = {})
      : std::runtime_error(context.empty()
                               ? where + ": " + what
                               : where + ": " + what + " (" + context + ")"),
        where_(where) {}

  const std::string& where() const { return where_; }

private:
  std::string where_;
};

/// Range checks for config validate() methods: each throws
/// Error(where, "<field> must be finite and ...", "got <value>") unless
/// `value` is finite and inside the range.
inline void require_at_least(const std::string& where, const char* field,
                             double value, double min) {
  if (std::isfinite(value) && value >= min) return;
  char bound[32];
  char got[40];
  std::snprintf(bound, sizeof bound, "%g", min);
  std::snprintf(got, sizeof got, "got %g", value);
  throw Error(where, std::string(field) + " must be finite and >= " + bound,
              got);
}

inline void require_positive(const std::string& where, const char* field,
                             double value) {
  if (std::isfinite(value) && value > 0.0) return;
  char got[40];
  std::snprintf(got, sizeof got, "got %g", value);
  throw Error(where, std::string(field) + " must be finite and > 0", got);
}

/// Checked double -> uint64_t conversion for modelled counts such as
/// cycles. The cast is undefined outside [0, 2^64), and a finite but
/// extreme config value (a 1e30-cycle dispatch, a 1e-300 B/cycle link)
/// reaches that, so this throws Error(where, "<what> must be finite and in
/// [0, 2^64)", "got <value>") instead.
inline std::uint64_t to_u64(const char* where, const char* what,
                            double value) {
  if (value >= 0.0 && value < 0x1p64) {  // false for NaN
    return static_cast<std::uint64_t>(value);
  }
  char got[40];
  std::snprintf(got, sizeof got, "got %g", value);
  throw Error(where, std::string(what) + " must be finite and in [0, 2^64)",
              got);
}

/// a + b for modelled counts: throws Error(where, "<what> overflows
/// uint64") instead of wrapping around.
inline std::uint64_t add_u64(const char* where, const char* what,
                             std::uint64_t a, std::uint64_t b) {
  if (a <= UINT64_MAX - b) return a + b;
  throw Error(where, std::string(what) + " overflows uint64");
}

}  // namespace icsc::core
