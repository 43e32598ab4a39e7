// spice_claims — the one driver for the paper's claims (DESIGN.md §4).
//
//   spice_claims [--smoke] [ID...]
//
// Runs the selected claims in registry order (no ids = all), prints every
// verdict in one format, writes CLAIMS.json into the current directory
// (per claim: checks, metrics and run time; one host block) and exits 0
// only if every selected check passed. An unknown id prints the usage and
// exits non-zero. An id selects every entry that lists it: E2 selects the
// Fig. 4 entry, E21 both E16 and E20. `--smoke` runs the reduced size of
// the claims that have one (E18, E19, E20); the others ignore it.

#include "claims.hpp"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <fstream>

#include "common/json.hpp"
#include "md/simd.hpp"
#include "obs/obs.hpp"

namespace spice::claims {

std::string fmt(const char* format, ...) {
  char buffer[1024];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

namespace {

/// Shortest round-trip decimal; JSON has no inf/nan, so those become null.
std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  return {buffer, std::to_chars(buffer, buffer + sizeof(buffer), value).ptr};
}

}  // namespace

void Claim::record(Verdict verdict, std::string label) {
  if (checks_.empty()) std::printf("\n--- Claim checks ---\n");
  static constexpr const char* kTags[] = {"PASS", "FAIL", "SKIP"};
  std::printf("[%s] %s\n", kTags[static_cast<int>(verdict)], label.c_str());
  checks_.push_back({verdict, std::move(label)});
}

void Claim::set(std::string name, double value) {
  metrics_.emplace_back(std::move(name), json_number(value));
}

void Claim::set(std::string name, std::string_view value) {
  metrics_.emplace_back(std::move(name), json_quote(value));
}

void Claim::set(std::string name, std::span<const double> values) {
  std::string text = "[";
  for (const double v : values) text += (text.size() > 1 ? ", " : "") + json_number(v);
  metrics_.emplace_back(std::move(name), text + "]");
}

void Claim::set_group(std::string_view prefix,
                      std::initializer_list<std::pair<std::string_view, double>> values) {
  for (const auto& [name, value] : values) {
    set(std::string(prefix) + "." + std::string(name), value);
  }
}

bool Claim::passed() const {
  return std::none_of(checks_.begin(), checks_.end(),
                      [](const Check& c) { return c.verdict == Verdict::Fail; });
}

namespace {

struct Entry {
  const char* ids;  ///< DESIGN.md §4 ids, '/'-separated
  const char* section;
  const char* title;
  void (*run)(Claim&);
};

constexpr Entry kRegistry[] = {
    {"E1/E2/E3", "Fig. 4, §IV", "SMD-JE parameter study (kappa x v sweep)", fig4_pmf},
    {"E4", "Fig. 3", "ssDNA translocation snapshots, constriction stretch", fig3_translocation},
    {"E4b", "§IV-A", "Sub-trajectory decomposition over the long pore axis", full_profile},
    {"E5", "§I", "Cost model: why vanilla MD cannot do this problem", cost_model},
    {"E6/E10", "§III, §V-C.4", "Batch campaign on the federated grid", batch_campaign},
    {"E7", "§II-III", "Interactive MD slowdown vs network QoS", imd_qos},
    {"E8", "§V-C.1", "Hidden-IP reachability and the gateway bottleneck", gateway},
    {"E9", "§V-C.3/6", "Manual vs automated cross-site reservations", coscheduling},
    {"E12", "§VI", "Thermodynamic integration on the same pipeline", ti_extension},
    {"E14", "§V-C.1", "Cross-site MPI (MPICH-G2 scenario) on the federation", cross_site_mpi},
    {"E15", "§I refs [1,2]", "Nanopore current blockades", nanopore_events},
    {"E16/E21", "DESIGN.md §8", "Observability overhead ladder", obs_overhead},
    {"E17", "Fig. 4, §IV", "Convergence-gated early stop", convergence_earlystop},
    {"E18", "DESIGN.md §10", "Million-job grid DES at scale", grid_scale},
    {"E19", "DESIGN.md §11", "Batched ensemble MD with SIMD dispatch", ensemble_md},
    {"E20/E21", "DESIGN.md §12", "Multi-tenant steering hub, post-mortem dump", steering_hub},
    {"E22", "DESIGN.md §13", "Exhaustive interleaving model checking", mc_explore},
    {"E23", "§V-C.4", "Checkpoint credit vs restart-from-scratch under faults", grid_faults},
    {"E24", "DESIGN.md §9", "testkit gates catch a 1% force-scaling bug", physics_validation},
    {"A1", "ablation", "Work from sampled forces vs exact accumulation", ablation_work_source},
    {"A2", "ablation", "One-sided JE vs cumulants vs BAR/Crooks", ablation_estimators},
};

bool lists_id(const Entry& entry, std::string_view id) {
  return ("/" + std::string(entry.ids) + "/").find("/" + std::string(id) + "/") != std::string::npos;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  return sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 1;
}

/// Recorder on, metrics and detail off, post-mortem disarmed, registry
/// zeroed: each claim prints the same alone and inside a full run.
void restore_obs_defaults() {
  obs::set_recorder_enabled(true);
  obs::set_metrics_enabled(false);
  obs::set_detail_enabled(false);
  obs::disarm_post_mortem();
  obs::metrics().reset();
}

struct Result {
  const Entry* entry;
  Claim claim;
  double seconds;
};

std::string claims_json(const std::vector<Result>& results, bool smoke, bool passed) {
  auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  std::string out = "{\n \"host\": {\"nproc\": " + std::to_string(available_cpus()) +
                    ", \"simd\": " + json_quote(md::simd::name(md::simd::active())) +
                    ", \"build_type\": " + json_quote(SPICE_BUILD_TYPE) +
                    ", \"compiler\": " + json_quote(SPICE_COMPILER) + "},\n \"smoke\": " +
                    flag(smoke) + ",\n \"passed\": " + flag(passed) + ",\n \"claims\": [";
  static constexpr const char* kVerdicts[] = {"pass", "fail", "skip"};
  std::string claim_sep = "\n  ";
  for (const Result& r : results) {
    out += claim_sep + "{\"id\": " +
           json_quote(r.entry->ids) + ", \"section\": " + json_quote(r.entry->section) +
           ", \"title\": " + json_quote(r.entry->title) + ", \"passed\": " +
           flag(r.claim.passed()) + ", \"seconds\": " + json_number(r.seconds) +
           ",\n   \"checks\": [";
    std::string sep = "\n    ";
    for (const Claim::Check& c : r.claim.checks()) {
      out += sep + "{\"verdict\": \"" + kVerdicts[static_cast<int>(c.verdict)] +
             "\", \"label\": " + json_quote(c.label) + "}";
      sep = ",\n    ";
    }
    out += "],\n   \"metrics\": {";
    sep = "\n    ";
    for (const auto& [name, value] : r.claim.metrics()) {
      out += sep + json_quote(name) + ": " + value;
      sep = ",\n    ";
    }
    out += "}}";
    claim_sep = ",\n  ";
  }
  return out + "\n ]\n}\n";
}

int usage(const char* bad_id) {
  std::fprintf(stderr, "spice_claims: unknown claim id '%s'\nusage: spice_claims [--smoke] [ID...]\nids:",
               bad_id);
  for (const Entry& e : kRegistry) std::fprintf(stderr, " %s", e.ids);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace spice::claims

int main(int argc, char** argv) {
  using namespace spice::claims;
  bool smoke = false;
  std::vector<std::string_view> ids;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (std::none_of(std::begin(kRegistry), std::end(kRegistry),
                            [arg](const Entry& e) { return lists_id(e, arg); })) {
      return usage(argv[i]);
    } else {
      ids.push_back(arg);
    }
  }

  std::vector<Result> results;
  for (const Entry& e : kRegistry) {
    if (!ids.empty() && std::none_of(ids.begin(), ids.end(),
                                     [&e](std::string_view id) { return lists_id(e, id); })) {
      continue;
    }
    restore_obs_defaults();
    std::printf("================================================================\n");
    std::printf("%s | %s | %s\n", e.ids, e.section, e.title);
    std::printf("================================================================\n");
    std::fflush(stdout);
    Claim claim(smoke);
    const double t0 = spice::obs::now_us();
    try {
      e.run(claim);
    } catch (const std::exception& error) {
      claim.check(false, fmt("claim ran to completion (threw: %s)", error.what()));
    }
    const double seconds = (spice::obs::now_us() - t0) * 1e-6;
    std::size_t passes = 0;
    for (const Claim::Check& c : claim.checks()) passes += c.verdict == Claim::Verdict::Pass;
    std::printf("\n=> %s %s: %zu of %zu checks pass (%.1f s)\n\n", e.ids,
                claim.passed() ? "PASS" : "FAIL", passes, claim.checks().size(), seconds);
    std::fflush(stdout);
    results.push_back({&e, std::move(claim), seconds});
  }

  std::size_t failed = 0;
  std::printf("================================================================\n");
  for (const Result& r : results) {
    if (r.claim.passed()) continue;
    ++failed;
    std::printf("FAIL %s\n", r.entry->ids);
  }
  const std::string json = claims_json(results, smoke, failed == 0);
  std::string error;
  bool written = spice::json_is_valid(json, &error);
  if (written) written = static_cast<bool>(std::ofstream("CLAIMS.json") << json);
  std::printf("claims: %zu of %zu pass; %s\n", results.size() - failed, results.size(),
              written ? "wrote CLAIMS.json" : ("CLAIMS.json NOT written: " + error).c_str());
  return failed == 0 && written ? 0 : 1;
}
