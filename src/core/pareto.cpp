#include "core/pareto.hpp"

#include <algorithm>
#include <string>

#include "core/error.hpp"

namespace icsc::core {

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    throw Error("core::dominates", "objective vectors differ in arity",
                std::to_string(a.size()) + " vs " + std::to_string(b.size()));
  }
  bool strictly_better = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better = true;
  }
  return strictly_better;
}

std::vector<ParetoPoint> pareto_front(const std::vector<ParetoPoint>& points) {
  std::vector<ParetoPoint> front;
  for (const auto& candidate : points) {
    bool dominated = false;
    for (const auto& other : points) {
      if (&other == &candidate) continue;
      if (dominates(other.objectives, candidate.objectives)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) front.push_back(candidate);
  }
  return front;
}

double hypervolume_2d(std::vector<ParetoPoint> front, double ref_x,
                      double ref_y) {
  // Validate arity before anything dereferences objectives[0]/[1]: the
  // former assert vanished under NDEBUG, turning a malformed front (a
  // point with < 2 or > 2 objectives) into an out-of-bounds read.
  for (std::size_t i = 0; i < front.size(); ++i) {
    if (front[i].objectives.size() != 2) {
      throw Error("core::hypervolume_2d",
                  "front points must have exactly 2 objectives",
                  "point " + std::to_string(i) + " has " +
                      std::to_string(front[i].objectives.size()));
    }
  }
  if (front.empty()) return 0.0;
  std::sort(front.begin(), front.end(),
            [](const ParetoPoint& a, const ParetoPoint& b) {
              return a.objectives[0] < b.objectives[0];
            });
  double volume = 0.0;
  double prev_y = ref_y;
  for (const auto& p : front) {
    const double x = p.objectives[0];
    const double y = std::min(p.objectives[1], prev_y);
    if (x >= ref_x || y >= prev_y) continue;  // outside the reference box
    volume += (ref_x - x) * (prev_y - y);
    prev_y = y;
  }
  return volume;
}

}  // namespace icsc::core
