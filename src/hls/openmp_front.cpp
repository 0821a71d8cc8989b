#include "hls/openmp_front.hpp"

#include <charconv>

#include "core/error.hpp"

namespace icsc::hls {

OmpDirective parse_omp_directive(const std::string& pragma_text) {
  constexpr const char* kWhere = "hls::parse_omp_directive";
  if (pragma_text.find("parallel") == std::string::npos ||
      pragma_text.find("for") == std::string::npos) {
    throw core::Error(kWhere, "unsupported OpenMP directive", pragma_text);
  }
  OmpDirective directive;
  const auto nt = pragma_text.find("num_threads(");
  if (nt != std::string::npos) {
    const auto close = pragma_text.find(')', nt);
    if (close == std::string::npos) {
      throw core::Error(kWhere, "malformed num_threads clause", pragma_text);
    }
    const std::string value =
        pragma_text.substr(nt + 12, close - nt - 12);
    const char* const last = value.data() + value.size();
    const auto [end, ec] =
        std::from_chars(value.data(), last, directive.num_threads);
    if (ec != std::errc{} || end != last) {
      throw core::Error(kWhere, "num_threads must be a decimal int", value);
    }
    if (directive.num_threads <= 0) {
      throw core::Error(kWhere, "num_threads must be positive", value);
    }
  }
  if (pragma_text.find("schedule(static") != std::string::npos) {
    directive.schedule = OmpSchedule::kStatic;
  } else if (pragma_text.find("schedule(dynamic") != std::string::npos) {
    directive.schedule = OmpSchedule::kDynamic;
  }
  return directive;
}

SpartaConfig lower_omp_to_sparta(const OmpDirective& directive,
                                 const SpartaConfig& base) {
  SpartaConfig config = base;
  config.lanes = directive.num_threads;
  config.partition = directive.schedule == OmpSchedule::kStatic
                         ? TaskPartition::kBlocked
                         : TaskPartition::kRoundRobin;
  return config;
}

std::vector<std::string> lowered_runtime_calls(const OmpDirective& directive) {
  std::vector<std::string> calls;
  calls.push_back("__kmpc_fork_call(threads=" +
                  std::to_string(directive.num_threads) + ")");
  calls.push_back(directive.schedule == OmpSchedule::kStatic
                      ? "__kmpc_for_static_init"
                      : "__kmpc_dispatch_init");
  calls.push_back(directive.schedule == OmpSchedule::kStatic
                      ? "__kmpc_for_static_fini"
                      : "__kmpc_dispatch_next");
  calls.push_back("__kmpc_barrier");
  return calls;
}

}  // namespace icsc::hls
