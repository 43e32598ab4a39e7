#include "testkit/golden.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace spice::testkit {

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : bytes) {
    hash ^= b;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

namespace {

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Shared scalar summary of an engine's final state.
void append_engine_observables(md::Engine& engine, GoldenRecord& record) {
  const md::EnergyBreakdown& energies = engine.compute_energies();
  double pos_norm2 = 0.0;
  double vel_norm2 = 0.0;
  for (const Vec3& x : engine.positions()) pos_norm2 += x.norm2();
  for (const Vec3& v : engine.velocities()) vel_norm2 += v.norm2();
  record.observables.push_back({"time_ps", engine.time()});
  record.observables.push_back({"kinetic", engine.kinetic_energy()});
  record.observables.push_back({"potential", energies.total()});
  record.observables.push_back({"bond", energies.bond});
  record.observables.push_back({"angle", energies.angle});
  record.observables.push_back({"dihedral", energies.dihedral});
  record.observables.push_back({"nonbonded", energies.nonbonded});
  record.observables.push_back({"external", energies.external});
  record.observables.push_back({"pos_norm", std::sqrt(pos_norm2)});
  record.observables.push_back({"vel_norm", std::sqrt(vel_norm2)});
}

void fingerprint_checkpoint(const md::Engine& engine, GoldenRecord& record) {
  const md::Checkpoint snapshot = engine.checkpoint();
  record.checkpoint_hash = fnv1a64(snapshot.bytes);
  record.checkpoint_size = snapshot.bytes.size();
}

GoldenRecord golden_chain24(const MdRunConfig& run, md::IntegratorKind integrator) {
  MdRunConfig fixed = run;
  fixed.seed = 77;
  // Committed hashes are scalar-path: host SIMD must not drift them.
  fixed.simd = md::simd::Request::Scalar;
  fixed.integrator = integrator;
  md::Engine engine = make_bead_chain(fixed);
  engine.step(400);
  GoldenRecord record;
  record.system = integrator == md::IntegratorKind::Langevin ? "chain24" : "nve_chain24";
  record.config = "24-bead helix, seed 77, dt 0.01, 400 steps";
  fingerprint_checkpoint(engine, record);
  append_engine_observables(engine, record);
  return record;
}

GoldenRecord golden_harmonic_pull(const MdRunConfig& run) {
  MdRunConfig fixed = run;
  fixed.seed = 1700;
  fixed.simd = md::simd::Request::Scalar;
  HarmonicPull system = make_harmonic_pull(fixed);
  const double work = run_harmonic_pull_work(system);
  GoldenRecord record;
  record.system = "harmonic_pull";
  record.config = "stiff-spring pull from harmonic well, seed 1700, lambda 3";
  fingerprint_checkpoint(system.engine, record);
  append_engine_observables(system.engine, record);
  record.observables.push_back({"work", work});
  record.observables.push_back({"lambda", system.pull->lambda()});
  record.observables.push_back({"xi", system.pull->xi()});
  return record;
}

GoldenRecord golden_pore_chain(const MdRunConfig& run) {
  MdRunConfig fixed = run;
  fixed.seed = 4242;
  fixed.simd = md::simd::Request::Scalar;
  pore::TranslocationSystem system = make_pore_chain(fixed);
  system.engine.step(300);
  GoldenRecord record;
  record.system = "pore_chain";
  record.config = "10-nt ssDNA in hemolysin pore, seed 4242, dt 0.01, 300 steps";
  fingerprint_checkpoint(system.engine, record);
  append_engine_observables(system.engine, record);
  return record;
}

/// E19's ionic cluster at 64 beads (two force slices) with mixed
/// −0.3/+0.7 charges: most pairs are live Debye–Hückel pairs and a few sit
/// between the cutoff and cutoff + skin. The only record whose nonbonded
/// term is non-zero, and the one whose hash shows the Coulomb prefactor's
/// association.
GoldenRecord golden_ionic_cluster(const MdRunConfig& run) {
  MdRunConfig fixed = run;
  fixed.seed = 2005;
  fixed.simd = md::simd::Request::Scalar;
  fixed.integrator = md::IntegratorKind::Langevin;
  md::Engine engine = make_ionic_cluster(fixed, 64, -0.3, 0.7);
  engine.step(400);
  GoldenRecord record;
  record.system = "ionic_cluster";
  record.config = "64-bead -0.3/+0.7 serpentine lattice, seed 2005, dt 0.005, 400 steps";
  fingerprint_checkpoint(engine, record);
  append_engine_observables(engine, record);
  return record;
}

}  // namespace

std::string format_golden(const GoldenRecord& record) {
  std::ostringstream os;
  os << "spice-golden v1\n";
  os << "system " << record.system << "\n";
  os << "config " << record.config << "\n";
  char hash[24];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(record.checkpoint_hash));
  os << "checkpoint " << hash << " " << record.checkpoint_size << "\n";
  for (const GoldenObservable& obs : record.observables) {
    os << "obs " << obs.name << " " << format_double(obs.value) << "\n";
  }
  return os.str();
}

GoldenRecord parse_golden(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  SPICE_REQUIRE(std::getline(is, line) && line == "spice-golden v1",
                "not a spice-golden v1 record");
  GoldenRecord record;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "system") {
      fields >> record.system;
    } else if (key == "config") {
      std::getline(fields, record.config);
      if (!record.config.empty() && record.config.front() == ' ') {
        record.config.erase(0, 1);
      }
    } else if (key == "checkpoint") {
      std::string hex;
      fields >> hex >> record.checkpoint_size;
      record.checkpoint_hash = std::strtoull(hex.c_str(), nullptr, 16);
    } else if (key == "obs") {
      GoldenObservable obs;
      fields >> obs.name >> obs.value;
      SPICE_REQUIRE(!fields.fail(), "malformed golden observable line: " + line);
      record.observables.push_back(std::move(obs));
    } else {
      SPICE_REQUIRE(false, "unknown golden record key: " + key);
    }
  }
  return record;
}

GoldenRecord load_golden(const std::string& path) {
  std::ifstream in(path);
  SPICE_REQUIRE(in.good(), "cannot open golden record: " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse_golden(text.str());
}

void write_golden(const std::string& path, const GoldenRecord& record) {
  std::ofstream out(path);
  SPICE_REQUIRE(out.good(), "cannot write golden record: " + path);
  out << format_golden(record);
  SPICE_REQUIRE(out.good(), "I/O error writing golden record: " + path);
}

std::string GoldenDrift::summary() const {
  std::string text = ok ? "golden: OK" : "golden: DRIFT";
  for (const std::string& line : lines) {
    text += "\n  ";
    text += line;
  }
  return text;
}

GoldenDrift compare_golden(const GoldenRecord& current, const GoldenRecord& reference,
                           GoldenLevel level, double rel_tol, double abs_tol) {
  static obs::Counter& compared = obs::metrics().counter("testkit.golden.compared");
  static obs::Counter& drifted = obs::metrics().counter("testkit.golden.drifted");
  compared.add(1);

  GoldenDrift drift;
  char buf[256];
  auto note = [&drift, &buf](bool passed, const char* fmt, auto... args) {
    std::snprintf(buf, sizeof(buf), fmt, args...);
    drift.lines.emplace_back(std::string(passed ? "ok    " : "DRIFT ") + buf);
    drift.ok = drift.ok && passed;
  };

  if (current.system != reference.system) {
    note(false, "system mismatch: %s vs %s", current.system.c_str(),
         reference.system.c_str());
  }

  const bool hash_match = current.checkpoint_hash == reference.checkpoint_hash &&
                          current.checkpoint_size == reference.checkpoint_size;
  if (level == GoldenLevel::Bitwise) {
    note(hash_match, "checkpoint hash %016llx vs %016llx (%zu vs %zu bytes)",
         static_cast<unsigned long long>(current.checkpoint_hash),
         static_cast<unsigned long long>(reference.checkpoint_hash),
         current.checkpoint_size, reference.checkpoint_size);
  } else {
    // Informational only at this rung: a reassociated sum changes the hash
    // without physical drift.
    std::snprintf(buf, sizeof(buf), "info  checkpoint hash %s (not enforced)",
                  hash_match ? "matches" : "differs");
    drift.lines.emplace_back(buf);
  }

  if (current.observables.size() != reference.observables.size()) {
    note(false, "observable count %zu vs %zu", current.observables.size(),
         reference.observables.size());
  } else {
    for (std::size_t i = 0; i < current.observables.size(); ++i) {
      const GoldenObservable& cur = current.observables[i];
      const GoldenObservable& ref = reference.observables[i];
      if (cur.name != ref.name) {
        note(false, "observable %zu name mismatch: %s vs %s", i, cur.name.c_str(),
             ref.name.c_str());
        continue;
      }
      const double deviation = std::abs(cur.value - ref.value);
      const bool passed = level == GoldenLevel::Bitwise
                              ? cur.value == ref.value
                              : deviation <= abs_tol + rel_tol * std::abs(ref.value);
      note(passed, "%-10s %.17g vs %.17g (|d| = %.3g)", cur.name.c_str(), cur.value,
           ref.value, deviation);
    }
  }

  if (!drift.ok) {
    drifted.add(1);
    SPICE_WARN("golden drift in '" + current.system + "'");
  }
  return drift;
}

std::vector<std::string> golden_system_names() {
  return {"chain24", "harmonic_pull", "ionic_cluster", "nve_chain24", "pore_chain"};
}

GoldenRecord run_golden(const std::string& system, const MdRunConfig& run) {
  if (system == "chain24") return golden_chain24(run, md::IntegratorKind::Langevin);
  if (system == "nve_chain24") return golden_chain24(run, md::IntegratorKind::VelocityVerlet);
  if (system == "harmonic_pull") return golden_harmonic_pull(run);
  if (system == "pore_chain") return golden_pore_chain(run);
  if (system == "ionic_cluster") return golden_ionic_cluster(run);
  SPICE_REQUIRE(false, "unknown golden system: " + system);
  return {};
}

std::string default_golden_dir(const std::string& fallback) {
  if (const char* env = std::getenv("SPICE_GOLDEN_DIR")) {
    if (env[0] != '\0') return env;
  }
  return fallback;
}

std::string golden_path(const std::string& dir, const std::string& system) {
  return dir + "/" + system + ".golden";
}

}  // namespace spice::testkit
