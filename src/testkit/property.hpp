#pragma once
// Property / round-trip fuzzing: each property takes a seed, builds a
// RANDOM but seed-deterministic instance (structure generator below), and
// checks an exact round-trip law:
//
//   checkpoint_restore_roundtrip  restore(checkpoint(E)) replays E bitwise
//   restart_resume_equivalence    checkpoint → restore → step n  ==  step n
//   serializer_roundtrip          BinaryReader inverts BinaryWriter
//   json_table_roundtrip          viz::Table::write_json parses back valid
//   steering_message_roundtrip    decode(encode(M)) re-encodes byte-identical
//   session_log_roundtrip         whole-log serialize/deserialize/serialize
//
// Failures replay from the seed alone. Tests drive these over a SeedSweep,
// so SPICE_SWEEP_SEEDS scales the fuzzing effort for nightly runs.

#include <cstdint>

#include "md/engine.hpp"
#include "steering/messages.hpp"
#include "testkit/stat_assert.hpp"

namespace spice::testkit {

/// A random small bead-chain engine: topology size, bonded terms, MD
/// config (integrator, thread count, dt) and initial state are all drawn
/// from `seed`. Same seed ⇒ bit-identical engine.
[[nodiscard]] md::Engine make_random_engine(std::uint64_t seed);

/// A random steering message: every MessageType, adversarial parameter
/// strings (arbitrary bytes, including NULs) and doubles spanning extreme
/// magnitudes, infinities and NaNs. Same seed ⇒ identical message.
[[nodiscard]] steering::SteeringMessage make_random_message(std::uint64_t seed);

[[nodiscard]] CheckResult checkpoint_restore_roundtrip(std::uint64_t seed);
[[nodiscard]] CheckResult restart_resume_equivalence(std::uint64_t seed);
[[nodiscard]] CheckResult serializer_roundtrip(std::uint64_t seed);
[[nodiscard]] CheckResult json_table_roundtrip(std::uint64_t seed);
/// decode(encode(M)) must RE-ENCODE byte-identically — the comparison is on
/// the wire bytes, so NaN payloads and signed zeros are covered without a
/// field-wise special case.
[[nodiscard]] CheckResult steering_message_roundtrip(std::uint64_t seed);
/// Same law for a whole SessionLog (random length, non-decreasing steps).
[[nodiscard]] CheckResult session_log_roundtrip(std::uint64_t seed);

}  // namespace spice::testkit
