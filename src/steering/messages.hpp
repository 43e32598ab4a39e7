#pragma once
// Steering protocol messages — the message vocabulary of the RealityGrid
// steering architecture (paper Fig. 2a): components "communicate by
// exchanging messages through intermediate grid services", and the
// visualizer can send messages directly to the simulation (the dotted
// arrows), which is "used extensively for interactive simulations".

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/vec3.hpp"

namespace spice {
class BinaryWriter;
class BinaryReader;
}  // namespace spice

namespace spice::steering {

enum class MessageType {
  Pause,
  Resume,
  Stop,
  SetParameter,   ///< name/value steerable-parameter update
  ApplyForce,     ///< steering force on the simulation's steered selection
  TakeCheckpoint, ///< snapshot current state under `label`
  CloneRequest,   ///< spawn an independent copy from checkpoint `label`
  Frame,          ///< simulation → visualizer data frame
  FrameAck,       ///< visualizer → simulation flow-control ack
};

struct SteeringMessage {
  MessageType type = MessageType::Pause;
  std::uint64_t sequence = 0;   ///< sender-assigned, for ordering/acks
  std::string parameter{};      ///< SetParameter name / checkpoint label
  double value = 0.0;           ///< SetParameter value
  Vec3 force{};                 ///< ApplyForce payload
  std::uint64_t frame_id = 0;   ///< Frame / FrameAck
  double sim_time = 0.0;        ///< simulation time of a Frame, ps

  [[nodiscard]] static SteeringMessage pause();
  [[nodiscard]] static SteeringMessage resume();
  [[nodiscard]] static SteeringMessage stop();
  [[nodiscard]] static SteeringMessage set_parameter(const std::string& name, double value);
  [[nodiscard]] static SteeringMessage apply_force(const Vec3& force);
  [[nodiscard]] static SteeringMessage take_checkpoint(const std::string& label);
  [[nodiscard]] static SteeringMessage clone_request(const std::string& label);
};

/// Approximate on-wire size of a message in bytes (control messages are
/// tiny; Frame messages carry the coordinate payload and their size is
/// supplied by the simulation).
[[nodiscard]] double control_message_bytes();

// --- serialization ---------------------------------------------------------
// The one canonical wire encoding of a SteeringMessage (the session-log
// entry layout): type u8, sequence u64, parameter string, value f64,
// force vec3, frame_id u64, sim_time f64. write/read compose into larger
// records (SessionLog uses them); serialize/deserialize round-trip one
// standalone message. read_message validates the type tag's enum range.

void write_message(BinaryWriter& writer, const SteeringMessage& message);
[[nodiscard]] SteeringMessage read_message(BinaryReader& reader);
[[nodiscard]] std::vector<std::uint8_t> serialize_message(const SteeringMessage& message);
[[nodiscard]] SteeringMessage deserialize_message(std::span<const std::uint8_t> bytes);

}  // namespace spice::steering
