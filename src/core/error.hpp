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

}  // namespace icsc::core
