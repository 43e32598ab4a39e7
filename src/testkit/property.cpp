#include "testkit/property.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <vector>

#include <algorithm>

#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "steering/session_log.hpp"
#include "viz/series_writer.hpp"

namespace spice::testkit {

using spice::md::Engine;
using spice::md::MdConfig;
using spice::md::ParticleIndex;

md::Engine make_random_engine(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, /*a=*/0xbead);
  const auto beads = static_cast<std::size_t>(4 + rng.uniform_index(13));  // 4..16

  md::Topology topo;
  for (std::size_t i = 0; i < beads; ++i) {
    topo.add_particle({.mass = rng.uniform(20.0, 400.0),
                       .charge = rng.bernoulli(0.5) ? -1.0 : 0.0,
                       .radius = rng.uniform(1.0, 4.0),
                       .name = "R"});
  }
  const double bond_r0 = rng.uniform(5.0, 8.0);
  for (ParticleIndex i = 0; i + 1 < beads; ++i) {
    topo.add_bond({i, i + 1, rng.uniform(5.0, 20.0), bond_r0});
  }
  if (rng.bernoulli(0.7)) {
    for (ParticleIndex i = 0; i + 2 < beads; ++i) {
      topo.add_angle({i, i + 1, i + 2, rng.uniform(1.0, 6.0), std::numbers::pi});
    }
  }
  if (rng.bernoulli(0.4)) {
    for (ParticleIndex i = 0; i + 3 < beads; ++i) {
      topo.add_dihedral({i, i + 1, i + 2, i + 3, rng.uniform(0.2, 1.0), 1, 0.0});
    }
  }

  MdConfig cfg;
  cfg.dt = rng.uniform(0.002, 0.008);
  cfg.temperature = rng.uniform(250.0, 350.0);
  cfg.friction = rng.uniform(0.5, 4.0);
  cfg.integrator = rng.bernoulli(0.75) ? md::IntegratorKind::Langevin
                                       : md::IntegratorKind::VelocityVerlet;
  cfg.seed = Rng::stream(seed, 0xcafe).next_u64();
  cfg.threads = 1 + rng.uniform_index(4);
  // Retired force-path draw, still consumed so later fuzz inputs stay fixed.
  (void)rng.bernoulli(0.5);

  Engine engine(std::move(topo), md::NonbondedParams{}, cfg);
  std::vector<Vec3> xs(beads);
  for (std::size_t i = 0; i < beads; ++i) {
    // Near-straight chain with jitter: bonded neighbours near r0, no
    // non-neighbour overlap.
    xs[i] = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
             bond_r0 * static_cast<double>(i) + rng.uniform(-0.5, 0.5)};
  }
  engine.set_positions(xs);
  engine.initialize_velocities(cfg.temperature);
  return engine;
}

CheckResult checkpoint_restore_roundtrip(std::uint64_t seed) {
  Engine original = make_random_engine(seed);
  original.step(25);
  const md::Checkpoint snapshot = original.checkpoint();

  Engine replica = make_random_engine(seed);  // same topology, fresh state
  replica.restore(snapshot);
  const bool immediate = replica.checkpoint().bytes == snapshot.bytes;

  // The restored engine must REPLAY, not merely match: advance both and
  // require continued byte identity (catches un-restored hidden state).
  original.step(25);
  replica.step(25);
  const bool replays = replica.checkpoint().bytes == original.checkpoint().bytes;
  return check(immediate && replays,
               "checkpoint restore round-trip, seed " + std::to_string(seed) +
                   (immediate ? "" : " [snapshot mismatch]") +
                   (replays ? "" : " [replay diverged]"));
}

CheckResult restart_resume_equivalence(std::uint64_t seed) {
  Engine straight = make_random_engine(seed);
  straight.step(30);
  const md::Checkpoint midpoint = straight.checkpoint();
  straight.step(40);

  Engine resumed = make_random_engine(seed);
  resumed.step(5);  // desync first, so restore() must do all the work
  resumed.restore(midpoint);
  resumed.step(40);
  return check(resumed.checkpoint().bytes == straight.checkpoint().bytes,
               "restart/resume equivalence, seed " + std::to_string(seed));
}

CheckResult serializer_roundtrip(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, /*a=*/0x5e7);
  const auto fields = static_cast<std::size_t>(8 + rng.uniform_index(25));

  // Generate a random typed record, write it, read it back in the same
  // type order and compare bitwise (doubles included: serialization is
  // byte-exact, not text-mediated).
  std::vector<int> kinds;
  BinaryWriter writer;
  std::vector<std::uint64_t> u64s;
  std::vector<double> f64s;
  std::vector<std::string> strings;
  std::vector<std::vector<double>> spans;
  for (std::size_t i = 0; i < fields; ++i) {
    const int kind = static_cast<int>(rng.uniform_index(4));
    kinds.push_back(kind);
    switch (kind) {
      case 0: {
        u64s.push_back(rng.next_u64());
        writer.write_u64(u64s.back());
        break;
      }
      case 1: {
        // Include extreme magnitudes; NaN is excluded (NaN != NaN would
        // need a special-case compare, and the MD state never stores it).
        const double v = rng.bernoulli(0.1)
                             ? std::numeric_limits<double>::max() * rng.uniform()
                             : rng.gaussian(0.0, 1e6);
        f64s.push_back(v);
        writer.write_f64(f64s.back());
        break;
      }
      case 2: {
        std::string s;
        const std::size_t len = rng.uniform_index(32);
        for (std::size_t c = 0; c < len; ++c) {
          s.push_back(static_cast<char>(rng.uniform_index(256)));
        }
        strings.push_back(std::move(s));
        writer.write_string(strings.back());
        break;
      }
      default: {
        std::vector<double> xs(rng.uniform_index(16));
        for (double& x : xs) x = rng.gaussian();
        spans.push_back(std::move(xs));
        writer.write_f64_span(spans.back());
        break;
      }
    }
  }

  BinaryReader reader(writer.bytes());
  bool ok = true;
  std::size_t iu = 0, id = 0, is = 0, iv = 0;
  for (const int kind : kinds) {
    switch (kind) {
      case 0: ok = ok && reader.read_u64() == u64s[iu++]; break;
      case 1: ok = ok && reader.read_f64() == f64s[id++]; break;
      case 2: ok = ok && reader.read_string() == strings[is++]; break;
      default: ok = ok && reader.read_f64_vector() == spans[iv++]; break;
    }
  }
  ok = ok && reader.at_end();
  return check(ok, "serializer round-trip, seed " + std::to_string(seed));
}

namespace {

double random_double(Rng& rng) {
  const double roll = rng.uniform();
  if (roll < 0.05) return std::numeric_limits<double>::quiet_NaN();
  if (roll < 0.10) return std::numeric_limits<double>::infinity();
  if (roll < 0.15) return -std::numeric_limits<double>::infinity();
  if (roll < 0.20) return rng.bernoulli(0.5) ? 0.0 : -0.0;
  if (roll < 0.30) return std::numeric_limits<double>::max() * rng.uniform();
  return rng.gaussian(0.0, 1e6);
}

steering::SteeringMessage random_message(Rng& rng) {
  steering::SteeringMessage m;
  m.type = static_cast<steering::MessageType>(
      rng.uniform_index(1 + static_cast<std::uint64_t>(steering::MessageType::FrameAck)));
  m.sequence = rng.next_u64();
  const std::size_t len = rng.uniform_index(48);
  for (std::size_t c = 0; c < len; ++c) {
    m.parameter.push_back(static_cast<char>(rng.uniform_index(256)));
  }
  m.value = random_double(rng);
  m.force = {random_double(rng), random_double(rng), random_double(rng)};
  m.frame_id = rng.next_u64();
  m.sim_time = random_double(rng);
  return m;
}

}  // namespace

steering::SteeringMessage make_random_message(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, /*a=*/0x5731);
  return random_message(rng);
}

CheckResult steering_message_roundtrip(std::uint64_t seed) {
  const steering::SteeringMessage original = make_random_message(seed);
  const auto bytes = steering::serialize_message(original);
  const steering::SteeringMessage decoded = steering::deserialize_message(bytes);
  const auto re_encoded = steering::serialize_message(decoded);
  return check(re_encoded == bytes,
               "steering message re-encode byte identity, seed " + std::to_string(seed));
}

CheckResult session_log_roundtrip(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, /*a=*/0x5106);
  const std::size_t count = rng.uniform_index(32);
  std::vector<std::uint64_t> steps(count);
  for (auto& s : steps) s = rng.uniform_index(100000);
  std::sort(steps.begin(), steps.end());  // record() requires step order
  steering::SessionLog log;
  for (const std::uint64_t step : steps) log.record(step, random_message(rng));
  const auto bytes = log.serialize();
  const steering::SessionLog decoded = steering::SessionLog::deserialize(bytes);
  const bool sizes = decoded.size() == log.size();
  const bool identical = decoded.serialize() == bytes;
  return check(sizes && identical,
               "session log re-encode byte identity, seed " + std::to_string(seed) +
                   (sizes ? "" : " [entry count changed]"));
}

CheckResult json_table_roundtrip(std::uint64_t seed) {
  Rng rng = Rng::stream(seed, /*a=*/0x15b);
  const std::size_t columns = 1 + rng.uniform_index(6);
  std::vector<std::string> names;
  for (std::size_t c = 0; c < columns; ++c) names.push_back("col_" + std::to_string(c));
  viz::Table table(names);
  const std::size_t rows = rng.uniform_index(20);
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<double> row(columns);
    for (double& v : row) {
      // Non-finite values must serialize as null, not break the document.
      const double roll = rng.uniform();
      if (roll < 0.05) {
        v = std::numeric_limits<double>::quiet_NaN();
      } else if (roll < 0.1) {
        v = std::numeric_limits<double>::infinity();
      } else {
        v = rng.gaussian(0.0, 1e3);
      }
    }
    table.add_row(row);
  }
  std::ostringstream os;
  table.write_json(os);
  std::string error;
  const bool ok = json_is_valid(os.str(), &error);
  return check(ok, "JSON table parse-back, seed " + std::to_string(seed) +
                       (ok ? "" : " [" + error + "]"));
}

}  // namespace spice::testkit
