#include "hls/binding.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>

namespace icsc::hls {

namespace {

int occupancy_cycles(OpKind kind) {
  return kind == OpKind::kDiv ? op_latency(OpKind::kDiv) : 1;
}

}  // namespace

Binding bind_kernel(const Kernel& kernel, const Schedule& schedule) {
  Binding binding;
  const std::size_t n = kernel.size();
  binding.fu_instance.assign(n, -1);

  // Left-edge per class: sort ops by (start cycle, id), assign each to the
  // first instance whose last occupancy ends at or before its start.
  constexpr FuClass kClasses[] = {FuClass::kAlu, FuClass::kMul, FuClass::kDiv,
                                  FuClass::kMemPort};
  std::array<std::vector<std::pair<int, std::size_t>>, std::size(kClasses)>
      members;  // per class: (start cycle, op id)
  for (std::size_t i = 0; i < n; ++i) {
    const FuClass cls = op_fu_class(kernel.ops()[i].kind);
    if (cls == FuClass::kNone) continue;
    members[static_cast<std::size_t>(cls) - 1].emplace_back(
        schedule.start_cycle[i], i);
  }
  for (const FuClass cls : kClasses) {
    auto& ops = members[static_cast<std::size_t>(cls) - 1];
    if (ops.empty()) continue;
    std::sort(ops.begin(), ops.end());
    std::vector<int> instance_free_at;
    for (const auto& [start, op_id] : ops) {
      const int end = start + occupancy_cycles(kernel.ops()[op_id].kind);
      int chosen = -1;
      for (std::size_t inst = 0; inst < instance_free_at.size(); ++inst) {
        if (instance_free_at[inst] <= start) {
          chosen = static_cast<int>(inst);
          break;
        }
      }
      if (chosen < 0) {
        chosen = static_cast<int>(instance_free_at.size());
        instance_free_at.push_back(0);
      }
      instance_free_at[chosen] = end;
      binding.fu_instance[op_id] = chosen;
    }
    binding.instances[cls] = static_cast<int>(instance_free_at.size());
  }

  // Register estimate: a value is live from its finish until the last
  // consumer's start (inclusive of the producing cycle boundary).
  std::vector<int> last_use(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t operand : kernel.ops()[i].operands) {
      last_use[operand] =
          std::max(last_use[operand], schedule.start_cycle[i]);
    }
  }
  struct Interval {
    int born, dies;
  };
  std::vector<Interval> live_ranges;
  int lo = std::numeric_limits<int>::max();
  int hi = std::numeric_limits<int>::min();
  for (std::size_t i = 0; i < n; ++i) {
    if (last_use[i] < 0) continue;
    const int born = schedule.start_cycle[i] + op_latency(kernel.ops()[i].kind);
    if (last_use[i] <= born) continue;
    live_ranges.push_back({born, last_use[i]});
    lo = std::min(lo, born);
    hi = std::max(hi, last_use[i]);
  }
  if (live_ranges.empty()) return binding;

  // Live-interval sweep along the cycle axis: +1 at each birth, -1 at each
  // last use, the peak taken after all of a cycle's events. The axis is
  // dense from the first birth to the last use, unless a hand-made schedule
  // spreads its cycles far apart: then it holds only the cycles in use.
  std::vector<int> cycles;
  const bool sparse = std::int64_t{hi} - lo >=
                      16 * static_cast<std::int64_t>(live_ranges.size()) + 64;
  if (sparse) {
    for (const Interval& r : live_ranges) {
      cycles.push_back(r.born);
      cycles.push_back(r.dies);
    }
    std::sort(cycles.begin(), cycles.end());
    cycles.erase(std::unique(cycles.begin(), cycles.end()), cycles.end());
  }
  const auto slot = [&](int cycle) {
    return sparse ? static_cast<std::size_t>(
                        std::lower_bound(cycles.begin(), cycles.end(), cycle) -
                        cycles.begin())
                  : static_cast<std::size_t>(cycle - lo);
  };
  std::vector<int> delta(
      sparse ? cycles.size() : static_cast<std::size_t>(hi - lo) + 1, 0);
  for (const Interval& r : live_ranges) {
    ++delta[slot(r.born)];
    --delta[slot(r.dies)];
  }
  int live = 0;
  for (const int d : delta) {
    live += d;
    binding.max_live_values = std::max(binding.max_live_values, live);
  }
  return binding;
}

bool binding_is_valid(const Kernel& kernel, const Schedule& schedule,
                      const Binding& binding) {
  const std::size_t n = kernel.size();
  if (binding.fu_instance.size() != n) return false;
  for (std::size_t a = 0; a < n; ++a) {
    const FuClass cls_a = op_fu_class(kernel.ops()[a].kind);
    if (cls_a == FuClass::kNone) continue;
    if (binding.fu_instance[a] < 0) return false;
    for (std::size_t b = a + 1; b < n; ++b) {
      if (op_fu_class(kernel.ops()[b].kind) != cls_a) continue;
      if (binding.fu_instance[a] != binding.fu_instance[b]) continue;
      const int a0 = schedule.start_cycle[a];
      const int a1 = a0 + occupancy_cycles(kernel.ops()[a].kind);
      const int b0 = schedule.start_cycle[b];
      const int b1 = b0 + occupancy_cycles(kernel.ops()[b].kind);
      if (a0 < b1 && b0 < a1) return false;  // overlap on same instance
    }
  }
  return true;
}

}  // namespace icsc::hls
