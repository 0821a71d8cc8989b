// Pareto-frontier utilities for design-space exploration (Sec. III).
//
// Every DSE result in the framework is a set of design points with multiple
// minimised objectives (latency, LUTs, energy, ...). These helpers extract
// the non-dominated subset and compute hypervolume-style quality measures
// used by the DSE strategy ablations.
#pragma once

#include <cstddef>
#include <vector>

namespace icsc::core {

/// A design point: opaque id plus objective values (all minimised).
struct ParetoPoint {
  std::size_t id = 0;
  std::vector<double> objectives;
};

/// True if a dominates b: a is <= in every objective and < in at least one.
/// Throws core::Error when a and b differ in arity.
bool dominates(const std::vector<double>& a, const std::vector<double>& b);

/// Returns the non-dominated subset, preserving input order. Duplicate
/// objective vectors are all kept (they do not dominate each other).
/// Throws core::Error when two points differ in arity.
std::vector<ParetoPoint> pareto_front(const std::vector<ParetoPoint>& points);

/// 2-D hypervolume (area dominated) with respect to a reference point that
/// must be dominated by every frontier point. Used to compare DSE strategies.
double hypervolume_2d(std::vector<ParetoPoint> front,
                      double ref_x, double ref_y);

}  // namespace icsc::core
