#include "hls/scheduling.hpp"

#include <algorithm>
#include <array>
#include <functional>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "core/error.hpp"

namespace icsc::hls {

int ResourceBudget::of(FuClass cls) const {
  switch (cls) {
    case FuClass::kAlu: return alus;
    case FuClass::kMul: return muls;
    case FuClass::kDiv: return divs;
    case FuClass::kMemPort: return mem_ports;
    case FuClass::kNone: return std::numeric_limits<int>::max();
  }
  return 0;
}

Schedule schedule_asap(const Kernel& kernel) {
  Schedule s;
  s.start_cycle.resize(kernel.size(), 0);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    int start = 0;
    for (const std::size_t operand : kernel.ops()[i].operands) {
      start = std::max(start, s.start_cycle[operand] +
                                  op_latency(kernel.ops()[operand].kind));
    }
    s.start_cycle[i] = start;
    s.makespan = std::max(s.makespan, start + op_latency(kernel.ops()[i].kind));
  }
  return s;
}

namespace {

/// ALAP start cycles against a deadline the caller has checked.
std::vector<int> alap_starts(const Kernel& kernel, int deadline) {
  const std::size_t n = kernel.size();
  // finish-by constraint propagated backwards.
  std::vector<int> latest_start(n, std::numeric_limits<int>::max());
  for (std::size_t i = n; i-- > 0;) {
    const int lat = op_latency(kernel.ops()[i].kind);
    if (latest_start[i] == std::numeric_limits<int>::max()) {
      latest_start[i] = deadline - lat;  // no consumers
    }
    for (const std::size_t operand : kernel.ops()[i].operands) {
      const int op_lat = op_latency(kernel.ops()[operand].kind);
      latest_start[operand] =
          std::min(latest_start[operand], latest_start[i] - op_lat);
    }
  }
  return latest_start;
}

}  // namespace

Schedule schedule_alap(const Kernel& kernel, int deadline) {
  const int critical = kernel.critical_path();
  if (deadline < critical) {
    throw core::Error("hls::schedule_alap",
                      "deadline must be at least the critical path",
                      kernel.name() + ": deadline " + std::to_string(deadline) +
                          " < " + std::to_string(critical));
  }
  Schedule s;
  s.start_cycle = alap_starts(kernel, deadline);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    s.makespan = std::max(s.makespan,
                          s.start_cycle[i] + op_latency(kernel.ops()[i].kind));
  }
  return s;
}

std::vector<int> mobility(const Kernel& kernel) {
  // The ASAP makespan is the critical path, so it is a valid deadline.
  const auto asap = schedule_asap(kernel);
  std::vector<int> out = alap_starts(kernel, asap.makespan);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    out[i] -= asap.start_cycle[i];
  }
  return out;
}

ListSchedulePlan::ListSchedulePlan(const Kernel& kernel)
    : mobility_(hls::mobility(kernel)), consumer_begin_(kernel.size() + 1, 0) {
  const auto& ops = kernel.ops();
  for (const Op& op : ops) {
    for (const std::size_t operand : op.operands) {
      ++consumer_begin_[operand + 1];
    }
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    consumer_begin_[i + 1] += consumer_begin_[i];
  }
  consumers_.resize(consumer_begin_.back());
  std::vector<std::size_t> fill(consumer_begin_.begin(),
                                consumer_begin_.end() - 1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    for (const std::size_t operand : ops[i].operands) {
      consumers_[fill[operand]++] = i;
    }
  }
}

namespace {

/// Occupancy interval of an op on its FU: the divider blocks for its full
/// latency (not pipelined); everything else issues for one cycle.
int occupancy_cycles(OpKind kind) {
  return kind == OpKind::kDiv ? op_latency(OpKind::kDiv) : 1;
}

constexpr FuClass kFuClasses[] = {FuClass::kAlu, FuClass::kMul, FuClass::kDiv,
                                  FuClass::kMemPort};

}  // namespace

Schedule schedule_list(const Kernel& kernel, const ResourceBudget& budget) {
  return schedule_list(kernel, ListSchedulePlan(kernel), budget);
}

Schedule schedule_list(const Kernel& kernel, const ListSchedulePlan& plan,
                       const ResourceBudget& budget) {
  const std::size_t n = kernel.size();
  if (plan.size() != n) {
    throw core::Error("hls::schedule_list", "plan was built for another kernel",
                      kernel.name());
  }
  const auto& ops = kernel.ops();
  const std::vector<int>& mob = plan.mobility();
  Schedule s;
  s.start_cycle.assign(n, -1);

  // busy[class - 1][unit] = first free cycle of each FU instance.
  std::array<std::vector<int>, std::size(kFuClasses)> busy;
  for (const FuClass cls : kFuClasses) {
    const int count = budget.of(cls);
    busy[static_cast<std::size_t>(cls) - 1].assign(
        std::max(1, count == std::numeric_limits<int>::max() ? 1 : count), 0);
  }

  std::vector<int> waiting(n);      // operands not yet scheduled
  std::vector<int> earliest(n, 0);  // dependence-ready cycle
  // Min-heap on (mobility, op id): op ids are unique, so it pops exactly
  // the op a full sort of the ready list would put first.
  using Entry = std::pair<int, std::size_t>;
  std::vector<Entry> ready;
  ready.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    waiting[i] = static_cast<int>(ops[i].operands.size());
    if (waiting[i] == 0) ready.emplace_back(mob[i], i);
  }
  std::make_heap(ready.begin(), ready.end(), std::greater<>{});

  // Every kernel is a DAG in topological order (Kernel::add_op), so the
  // heap drains only after all n ops are placed.
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), std::greater<>{});
    const std::size_t op_id = ready.back().second;
    ready.pop_back();

    const OpKind kind = ops[op_id].kind;
    const FuClass cls = op_fu_class(kind);
    int start = earliest[op_id];
    if (cls != FuClass::kNone) {
      // Earliest FU instance that is free at or before `start`.
      auto& units = busy[static_cast<std::size_t>(cls) - 1];
      auto best = std::min_element(units.begin(), units.end());
      start = std::max(start, *best);
      *best = start + occupancy_cycles(kind);
    }
    s.start_cycle[op_id] = start;
    const int finish = start + op_latency(kind);
    s.makespan = std::max(s.makespan, finish);
    for (const std::size_t consumer : plan.consumers(op_id)) {
      earliest[consumer] = std::max(earliest[consumer], finish);
      if (--waiting[consumer] == 0) {
        ready.emplace_back(mob[consumer], consumer);
        std::push_heap(ready.begin(), ready.end(), std::greater<>{});
      }
    }
  }
  return s;
}

bool schedule_is_valid(const Kernel& kernel, const Schedule& schedule,
                       const ResourceBudget& budget) {
  const std::size_t n = kernel.size();
  if (schedule.start_cycle.size() != n) return false;
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::size_t operand : kernel.ops()[i].operands) {
      const int finish = schedule.start_cycle[operand] +
                         op_latency(kernel.ops()[operand].kind);
      if (schedule.start_cycle[i] < finish) return false;
    }
  }
  // Resource usage per cycle.
  std::map<FuClass, std::map<int, int>> usage;
  for (std::size_t i = 0; i < n; ++i) {
    const FuClass cls = op_fu_class(kernel.ops()[i].kind);
    if (cls == FuClass::kNone) continue;
    const int occupancy = occupancy_cycles(kernel.ops()[i].kind);
    for (int c = 0; c < occupancy; ++c) {
      if (++usage[cls][schedule.start_cycle[i] + c] > budget.of(cls)) {
        return false;
      }
    }
  }
  return true;
}

int min_initiation_interval(const Kernel& kernel, const ResourceBudget& budget) {
  const std::string where = "hls::min_initiation_interval";
  core::require_at_least(where, "budget.alus", budget.alus, 1);
  core::require_at_least(where, "budget.muls", budget.muls, 1);
  core::require_at_least(where, "budget.divs", budget.divs, 1);
  core::require_at_least(where, "budget.mem_ports", budget.mem_ports, 1);
  int ii = 1;
  for (const FuClass cls :
       {FuClass::kAlu, FuClass::kMul, FuClass::kDiv, FuClass::kMemPort}) {
    std::size_t uses = 0;
    for (const auto& op : kernel.ops()) {
      if (op_fu_class(op.kind) == cls) {
        uses += static_cast<std::size_t>(occupancy_cycles(op.kind));
      }
    }
    if (uses == 0) continue;
    const int units = budget.of(cls);
    ii = std::max(
        ii, static_cast<int>((uses + units - 1) / static_cast<std::size_t>(units)));
  }
  return ii;
}

}  // namespace icsc::hls
