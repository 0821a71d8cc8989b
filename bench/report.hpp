// Reporting helpers shared by the bench binaries: `JSON {...}` lines, one
// wall-clock timer, the google-benchmark run and flag, the header of a
// timing section, and the loader of bench_kernels' --baseline scoreboards.
//
// The paper goldens (paper_golden.py) keep a timing section's header and
// drop its lines; every other line a paper bench prints must be the same
// on every run, build type and SIMD ISA.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/table.hpp"

namespace icsc::report {

/// One flat JSON object, built field by field in print order. Doubles go
/// through core::json_num at a fixed precision, so the bytes do not depend
/// on LC_NUMERIC; strings are escaped.
class Json {
public:
  Json() = default;
  /// A bench line: its first field is "bench".
  explicit Json(std::string_view bench) { str("bench", bench); }

  Json& str(std::string_view key, std::string_view value) {
    return field(key, quoted(value));
  }
  Json& num(std::string_view key, double value, int precision) {
    return field(key, core::json_num(value, precision));
  }
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Json& num(std::string_view key, T value) {
    using Wide = std::conditional_t<std::is_signed_v<T>, std::int64_t,
                                    std::uint64_t>;
    return field(key, core::json_num(static_cast<Wide>(value)));
  }
  Json& flag(std::string_view key, bool value) {
    return field(key, value ? "true" : "false");
  }
  Json& list(std::string_view key, const std::vector<std::size_t>& values) {
    std::string text = "[";
    for (const std::size_t v : values) {
      text += (text.size() > 1 ? "," : "") + core::json_num(std::uint64_t{v});
    }
    return field(key, text + "]");
  }
  /// Appends every field of `other`, in its order.
  Json& fields(const Json& other) {
    body_ += (body_.empty() || other.body_.empty() ? "" : ",") + other.body_;
    return *this;
  }

  std::string text() const { return "{" + body_ + "}"; }
  /// Prints the object as one `JSON {...}` line on stdout.
  void print() const { std::printf("JSON %s\n", text().c_str()); }

private:
  Json& field(std::string_view key, std::string_view value) {
    body_ += (body_.empty() ? "" : ",") + quoted(key) + ':';
    body_ += value;
    return *this;
  }

  static std::string quoted(std::string_view text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) {
        out += c;
      } else {
        char escape[8];
        std::snprintf(escape, sizeof escape, "\\u%04x", c);
        out += escape;
      }
    }
    return out + '"';
  }

  std::string body_;
};

/// Wall-clock milliseconds of one call of `fn`.
template <class Fn>
double wall_ms(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

/// Best of `repeats` calls: the minimum is the noise-robust estimator for
/// single-process timings.
template <class Fn>
double best_of_ms(int repeats, Fn&& fn) {
  double best = wall_ms(fn);
  for (int r = 1; r < repeats; ++r) best = std::min(best, wall_ms(fn));
  return best;
}

/// True when `flag` is on the command line. Removes every copy of it from
/// argv, so google-benchmark's Initialize does not reject it.
inline bool take_flag(int& argc, char** argv, std::string_view flag) {
  int kept = std::min(argc, 1);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) != flag) argv[kept++] = argv[i];
  }
  const bool found = kept < argc;
  argc = kept;
  argv[argc] = nullptr;
  return found;
}

/// Runs the google-benchmark micro timings the command line selects (none
/// with --benchmark_filter=NONE), before the bench prints its tables.
inline void run_micro_timings(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
}

/// Prints the header `=== <title> [timing] ===` of a section whose lines
/// vary from run to run.
inline void timing_section(const std::string& title) {
  std::printf("\n=== %s [timing] ===\n", title.c_str());
}

/// The `new_ms` of `kernel` in a bench_kernels scoreboard (BENCH_PR5.json,
/// BENCH_PR6.json), read from inside the kernel's own `{...}` row. Returns
/// nullopt when the row or its field is missing, or when the value is not
/// a finite number > 0.
inline std::optional<double> scoreboard_new_ms(std::string_view json,
                                               std::string_view kernel) {
  const auto at = json.find("\"kernel\":\"" + std::string(kernel) + "\"");
  const auto open = json.find_last_of("{}", at);
  const auto close = json.find('}', at);
  if (at == json.npos || open == json.npos || json[open] != '{' ||
      close == json.npos) {
    return std::nullopt;
  }
  const auto row = json.substr(open, close - open);
  constexpr std::string_view field = "\"new_ms\":";
  const auto ms = row.find(field);
  double value = 0.0;
  if (ms == row.npos ||
      std::from_chars(row.data() + ms + field.size(), row.data() + row.size(),
                      value).ec != std::errc{} ||
      !std::isfinite(value) || value <= 0.0) {
    return std::nullopt;
  }
  return value;
}

}  // namespace icsc::report
