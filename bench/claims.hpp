#pragma once
// The claim API of `spice_claims` (bench/claims.cpp). Every paper claim is
// one function `void(Claim&)` in its own bench/<name>.cpp: it runs its
// science, prints its tables and reports through check() and set(). The
// runner owns the rest: the banner, the one verdict format, CLAIMS.json
// and the process exit code.

#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spice::claims {

/// printf into a std::string: check labels carry their measured numbers.
[[nodiscard]] std::string fmt(const char* format, ...) __attribute__((format(printf, 1, 2)));

class Claim {
 public:
  enum class Verdict { Pass, Fail, Skip };
  struct Check {
    Verdict verdict;
    std::string label;
  };

  explicit Claim(bool smoke) : smoke_(smoke) {}

  /// True under `--smoke`; read only by the claims that have a reduced size.
  [[nodiscard]] bool smoke() const { return smoke_; }

  /// Record one verdict and print it as `[PASS] label` or `[FAIL] label`.
  void check(bool ok, std::string label) {
    record(ok ? Verdict::Pass : Verdict::Fail, std::move(label));
  }
  /// A check that does not apply to this run: printed as `[SKIP] label`,
  /// it neither passes nor fails the claim.
  void skip(std::string label) { record(Verdict::Skip, std::move(label)); }

  /// One metric for CLAIMS.json: a number, a string (digests, names) or a
  /// number array (histogram bounds and counts).
  void set(std::string name, double value);
  void set(std::string name, std::string_view value);
  void set(std::string name, std::span<const double> values);
  /// Numeric metrics `prefix.name`, several to a line.
  void set_group(std::string_view prefix,
                 std::initializer_list<std::pair<std::string_view, double>> values);

  [[nodiscard]] const std::vector<Check>& checks() const { return checks_; }
  /// (name, value as JSON text) in the order they were set.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& metrics() const {
    return metrics_;
  }
  /// No check failed (skips do not count).
  [[nodiscard]] bool passed() const;

 private:
  void record(Verdict verdict, std::string label);

  bool smoke_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> metrics_;
};

// The claims, one per bench/<name>.cpp; bench/claims.cpp maps them to ids.
void fig4_pmf(Claim& claim);
void fig3_translocation(Claim& claim);
void full_profile(Claim& claim);
void cost_model(Claim& claim);
void batch_campaign(Claim& claim);
void imd_qos(Claim& claim);
void gateway(Claim& claim);
void coscheduling(Claim& claim);
void ti_extension(Claim& claim);
void cross_site_mpi(Claim& claim);
void nanopore_events(Claim& claim);
void obs_overhead(Claim& claim);
void convergence_earlystop(Claim& claim);
void grid_scale(Claim& claim);
void ensemble_md(Claim& claim);
void steering_hub(Claim& claim);
void mc_explore(Claim& claim);
void grid_faults(Claim& claim);
void physics_validation(Claim& claim);
void ablation_work_source(Claim& claim);
void ablation_estimators(Claim& claim);

}  // namespace spice::claims
