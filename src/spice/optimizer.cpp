#include "spice/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.hpp"

namespace spice::core {

namespace {
/// σ_sys values within this fraction of the per-κ minimum count as
/// indistinguishable ("insignificant difference").
constexpr double kSysTieFraction = 0.25;
/// Additive floor for the tie test, kcal/mol (thermal scale).
constexpr double kSysTieFloor = 1.0;
}  // namespace

OptimizerReport select_optimal_parameters(
    const std::vector<spice::fe::ParameterScore>& scores) {
  SPICE_REQUIRE(!scores.empty(), "optimizer needs scores");
  OptimizerReport report;

  // Group by κ and average the combined error over velocities.
  std::map<double, std::vector<const spice::fe::ParameterScore*>> by_kappa;
  for (const auto& s : scores) by_kappa[s.kappa_pn].push_back(&s);

  double best_kappa = 0.0;
  double best_kappa_error = std::numeric_limits<double>::infinity();
  for (const auto& [kappa, cell] : by_kappa) {
    double combined = 0.0;
    for (const auto* s : cell) combined += s->combined();
    combined /= static_cast<double>(cell.size());
    std::ostringstream line;
    line << "kappa = " << kappa << " pN/A: mean combined error " << combined << " kcal/mol";
    report.rationale.push_back(line.str());
    if (combined < best_kappa_error) {
      best_kappa_error = combined;
      best_kappa = kappa;
    }
  }
  {
    std::ostringstream line;
    line << "trade-off spring constant: kappa = " << best_kappa << " pN/A";
    report.rationale.push_back(line.str());
  }

  // Within the winning κ: find velocities with indistinguishable σ_sys and
  // take the slowest.
  const auto& cell = by_kappa.at(best_kappa);
  double min_sys = std::numeric_limits<double>::infinity();
  for (const auto* s : cell) min_sys = std::min(min_sys, s->sigma_sys);
  const double tie_limit = min_sys + std::max(kSysTieFloor, kSysTieFraction * min_sys);

  const spice::fe::ParameterScore* chosen = nullptr;
  for (const auto* s : cell) {
    if (s->sigma_sys > tie_limit) continue;
    if (chosen == nullptr || s->velocity_ns < chosen->velocity_ns) chosen = s;
  }
  SPICE_ENSURE(chosen != nullptr, "no velocity under the tie limit");
  {
    std::ostringstream line;
    line << "velocities with sigma_sys <= " << tie_limit
         << " kcal/mol are indistinguishable; slowest of them is v = " << chosen->velocity_ns
         << " A/ns";
    report.rationale.push_back(line.str());
  }
  report.best = *chosen;
  return report;
}

}  // namespace spice::core
