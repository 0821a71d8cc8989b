// Operation scheduling for the mini HLS flow (Sec. III).
//
// The classic trio: ASAP (dependence-only lower bound), ALAP (against a
// deadline, yields mobility), and resource-constrained list scheduling with
// mobility-based priority -- the algorithm production HLS tools (including
// Bambu) build on. A pipelining helper computes the resource-constrained
// minimum initiation interval for loop kernels.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hls/ir.hpp"

namespace icsc::hls {

/// Available functional units per class (kNone is unconstrained).
struct ResourceBudget {
  int alus = 2;
  int muls = 1;
  int divs = 1;
  int mem_ports = 1;

  int of(FuClass cls) const;
};

struct Schedule {
  std::vector<int> start_cycle;  // per op
  int makespan = 0;              // total cycles (max finish)
};

/// Dependence-only as-soon-as-possible schedule.
Schedule schedule_asap(const Kernel& kernel);

/// As-late-as-possible against `deadline`. Throws core::Error when the
/// deadline is below the critical path.
Schedule schedule_alap(const Kernel& kernel, int deadline);

/// Per-op mobility = ALAP start - ASAP start, with ALAP at the critical
/// path deadline. Zero-mobility ops are on the critical path.
std::vector<int> mobility(const Kernel& kernel);

/// The budget-independent inputs of list scheduling: each op's mobility
/// and its consumers. A sweep that schedules one kernel under many budgets
/// builds this once.
class ListSchedulePlan {
public:
  ListSchedulePlan() = default;
  explicit ListSchedulePlan(const Kernel& kernel);

  /// Ops of the kernel the plan was built from.
  std::size_t size() const { return mobility_.size(); }
  const std::vector<int>& mobility() const { return mobility_; }
  /// The consumers of op i, in ascending id order.
  std::span<const std::size_t> consumers(std::size_t i) const {
    return {consumers_.data() + consumer_begin_[i],
            consumers_.data() + consumer_begin_[i + 1]};
  }

private:
  std::vector<int> mobility_;
  std::vector<std::size_t> consumer_begin_;  // n + 1 offsets into consumers_
  std::vector<std::size_t> consumers_;
};

/// Resource-constrained list scheduling, priority = least mobility first,
/// ties to the lowest op id; each op goes on the FU instance that frees
/// earliest. Functional units are fully pipelined except the divider
/// (II = latency) and memory ports (one issue per cycle).
Schedule schedule_list(const Kernel& kernel, const ResourceBudget& budget);
/// The same with a plan built from `kernel`; throws core::Error when the
/// plan's op count differs from the kernel's.
Schedule schedule_list(const Kernel& kernel, const ListSchedulePlan& plan,
                       const ResourceBudget& budget);

/// Validates a schedule: operands finish before consumers start, and no
/// cycle oversubscribes a resource class.
bool schedule_is_valid(const Kernel& kernel, const Schedule& schedule,
                       const ResourceBudget& budget);

/// Resource-constrained minimum initiation interval of a pipelined loop
/// whose body is `kernel`: max over classes of ceil(uses / units). Throws
/// core::Error unless every class count of `budget` is >= 1.
int min_initiation_interval(const Kernel& kernel, const ResourceBudget& budget);

}  // namespace icsc::hls
