#include "spice/report.hpp"

#include <iomanip>
#include <sstream>

namespace spice::core {

namespace {
void heading(std::ostringstream& os, const std::string& text) {
  os << "\n## " << text << "\n\n";
}
}  // namespace

std::string render_science_summary(const ProductionReport& production) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "| kappa (pN/A) | v (A/ns) | samples | sigma_stat | sigma_sys | combined |\n";
  os << "|---:|---:|---:|---:|---:|---:|\n";
  for (const auto& s : production.sweep.scores) {
    os << "| " << s.kappa_pn << " | " << s.velocity_ns << " | " << s.samples << " | "
       << s.sigma_stat << " | " << s.sigma_sys << " | " << s.combined() << " |\n";
  }
  os << "\nSelection rationale:\n\n";
  for (const auto& line : production.optimal.rationale) {
    os << "- " << line << "\n";
  }
  os << "\n**Optimal parameters: kappa = " << production.optimal.best.kappa_pn
     << " pN/A, v = " << production.optimal.best.velocity_ns << " A/ns**\n";
  return os.str();
}

std::string render_markdown_report(const PipelineReport& report) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(2);
  os << "# SPICE campaign report\n";

  heading(os, "Phase 1 — static structural analysis");
  os << "- constriction: R = " << report.statics.constriction_radius << " A at z = "
     << report.statics.constriction_z << " A\n";
  os << "- vestibule radius: " << report.statics.vestibule_radius << " A\n";
  os << "- barrel radius: " << report.statics.barrel_radius << " A\n";
  os << "\n```\n" << report.statics.rendering << "```\n";

  heading(os, "Phase 2 — interactive MD");
  os << "- co-scheduled window: "
     << (report.interactive.coschedule_feasible ? "booked" : "NOT available")
     << " (start t+" << report.interactive.coschedule_start_hours << " h)\n";
  os << "- network: " << report.interactive.network_used << "\n";
  os << "- simulation efficiency: " << 100.0 * report.interactive.imd.efficiency()
     << "% (stall " << 100.0 * report.interactive.imd.stall_fraction() << "%)\n";
  os << "- steering commands applied: " << report.interactive.imd.commands_applied << "\n";
  os << "- haptic force scale: " << report.interactive.mean_haptic_force
     << " kcal/mol/A -> kappa bracket [" << report.interactive.suggested_kappa_lo_pn
     << ", " << report.interactive.suggested_kappa_hi_pn << "] pN/A\n";

  heading(os, "Phase 3 — preprocessing");
  os << "- coarse sweep cells: " << report.preprocessing.sweep.combos.size() << "\n";
  os << "- retained kappa values:";
  for (const double k : report.preprocessing.retained_kappas_pn) os << " " << k;
  os << "\n";

  heading(os, "Phase 4 — production on the federated grid");
  const auto& production = report.production;
  os << "- jobs: " << production.plan.jobs.size() << " (expected "
     << production.plan.expected_cpu_hours << " CPU-hours)\n";
  os << "- makespan: " << production.execution.makespan_days << " days\n";
  const auto& campaign = production.execution.campaign;
  os << "- completed: " << campaign.completed << ", requeued after "
     << "failures: " << campaign.cpu.restarted_jobs << "\n";
  // Consumed counts every attempt of every job, failed ones included, so
  // consumed = credited + wasted and the efficiency is credited / consumed.
  const auto& cpu = campaign.cpu;
  os << "- cpu-hours: " << cpu.consumed_cpu_hours << " consumed, " << cpu.credited_cpu_hours
     << " credited, " << cpu.wasted_cpu_hours << " wasted";
  if (cpu.consumed_cpu_hours > 0.0) {
    os << " (efficiency " << std::setprecision(1) << 100.0 * cpu.efficiency()
       << std::setprecision(2) << "%)";
  }
  os << "\n";
  if (campaign.held_dispatches > 0 || campaign.checkpoint_restarts > 0) {
    os << "- resilience: " << campaign.held_dispatches << " held dispatches, "
       << campaign.checkpoint_restarts << " checkpoint-credited restarts\n";
  }
  if (campaign.shortfall() > 0) {
    os << "- shortfall: " << campaign.shortfall() << " replicas lost ("
       << (campaign.meets_floor() ? "within" : "BELOW") << " the configured completion floor"
       << (campaign.degraded() ? ", degraded campaign" : "") << ")\n";
  }
  os << "- placement:";
  for (const auto& share : campaign.site_shares) os << " " << share.site << ":" << share.jobs;
  os << "\n- cost vs vanilla 10 us MD: " << production.cost.reduction_vs_vanilla
     << "x cheaper\n";

  heading(os, "Science result");
  os << render_science_summary(production);
  return os.str();
}

}  // namespace spice::core
