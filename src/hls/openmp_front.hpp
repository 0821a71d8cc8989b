// Minimal OpenMP-directive front-end for the SPARTA flow (Sec. III).
//
// "SPARTA ... is triggered when the input design contains OpenMP directives
// to parallelize part of the application. In this specialized HLS flow,
// parallel regions are first translated into calls to OpenMP runtime
// primitives by the front-end Clang compiler, and then implemented through
// corresponding low-level hardware components in the synthesis backend."
//
// We model the front-end contract: a `#pragma omp parallel for` annotation
// (thread count, schedule kind, chunking) is lowered to the SPARTA hardware
// parameters (lane count, task partitioning) plus the runtime-primitive
// trace the backend would implement (fork/join, dynamic work stealing is
// approximated by round-robin interleaving).
#pragma once

#include <string>

#include "hls/sparta.hpp"

namespace icsc::hls {

enum class OmpSchedule { kStatic, kDynamic };

/// The subset of `#pragma omp parallel for` the front-end accepts.
struct OmpDirective {
  int num_threads = 4;
  OmpSchedule schedule = OmpSchedule::kDynamic;
};

/// Parses "parallel for num_threads(N) schedule(static|dynamic)".
/// Throws core::Error on an unsupported directive, an unclosed clause, or a
/// num_threads value that is not a positive decimal integer.
OmpDirective parse_omp_directive(const std::string& pragma_text);

/// Lowers the directive onto a SPARTA configuration: threads -> lanes,
/// schedule(static) -> blocked partition, schedule(dynamic) -> round-robin
/// (the hardware's cheap approximation of work stealing).
SpartaConfig lower_omp_to_sparta(const OmpDirective& directive,
                                 const SpartaConfig& base);

/// Runtime primitives the lowered region calls, in order (mirrors the
/// Clang -> libomp contract the SPARTA backend implements in hardware).
std::vector<std::string> lowered_runtime_calls(const OmpDirective& directive);

}  // namespace icsc::hls
