// Latency/bandwidth communication cost model (LogGP-flavoured).
//
// The analytic model of the paper (Eqs 1-3) charges a halo exchange
// p * (L + m/B [+ c]) where L is network latency, B bandwidth, p the
// neighbour count and c a pack/unpack cost. This struct carries those
// machine parameters; model/machine.cpp provides ARCHER2-like and
// Cirrus-like presets. It is a prediction only: the runtime's
// communicator measures wall time and never consults it.
//
// Calibration: bench_calibrate measures (latency, bandwidth) for three
// rank-pair strides it labels numa / node / net. The model is flat, so
// apply_calibration folds in the net tier only; the other two are parsed
// and validated so a calibration file stays one self-consistent record.
#pragma once

#include <cstdint>
#include <string>

namespace op2ca::sim {

/// Rank-pair stride a calibration tier was measured at, cheapest first.
enum class Tier { Numa = 0, Node = 1, Net = 2 };
inline constexpr int kNumTiers = 3;

inline const char* tier_name(Tier t) {
  switch (t) {
    case Tier::Numa: return "numa";
    case Tier::Node: return "node";
    default: return "net";
  }
}

struct CostModel;

/// Measured wire parameters of one calibration tier.
struct TierParams {
  double latency_s = 0;
  double bandwidth_Bps = 0;
};

/// A parsed BENCH_calibration.json: per-tier (latency, bandwidth)
/// measured by bench_calibrate's ping-pong sweeps over one backend (sim
/// fabric, mpi-stub, or real MPI under mpirun).
struct Calibration {
  std::string backend;  ///< "sim" | "mpi" | "mpi-stub".
  int nranks = 0;
  TierParams tiers[kNumTiers];  ///< indexed by Tier.

  const TierParams& tier(Tier t) const {
    return tiers[static_cast<int>(t)];
  }
};

/// Parses the BENCH_calibration.json text. Validates the schema the CI
/// gate also enforces: all three tiers present with latency > 0,
/// bandwidth > 0, and bandwidth monotone non-increasing / latency
/// monotone non-decreasing up the hierarchy (numa -> node -> net).
/// Raises with context on any violation; keys it does not read are
/// ignored.
Calibration parse_calibration(const std::string& json_text);

/// parse_calibration over a file's contents; raises if unreadable.
Calibration load_calibration(const std::string& path);

/// Folds the measured net tier into a cost model's latency_s /
/// bandwidth_Bps, the L and B of Eqs (1)-(3). Host-side overheads
/// (per_message_overhead_s, channel_overhead_s, pack_bandwidth_Bps) are
/// not measured by the wire sweeps and keep the model's values.
void apply_calibration(const Calibration& cal, CostModel* cm);

struct CostModel {
  std::string name = "default";

  double latency_s = 2.0e-6;          ///< L: per-message network latency.
  double bandwidth_Bps = 12.5e9;      ///< B: network bandwidth.
  double pack_bandwidth_Bps = 20e9;   ///< memcpy bandwidth for (un)packing.
  double per_message_overhead_s = 0;  ///< extra host overhead per message.
  /// Residual host overhead of a message sent through a persistent
  /// channel: the dst/tag/size slot is pre-negotiated, so matching and
  /// envelope setup (per_message_overhead_s) collapse to this.
  double channel_overhead_s = 0;

  /// Time to move one `bytes`-sized message to a neighbour.
  double message_time(std::int64_t bytes) const {
    return latency_s + per_message_overhead_s +
           static_cast<double>(bytes) / bandwidth_Bps;
  }

  /// message_time through a persistent channel: the pre-negotiated slot
  /// replaces the per-message host setup with channel_overhead_s.
  double channel_time(std::int64_t bytes) const {
    return message_time(bytes) - per_message_overhead_s +
           channel_overhead_s;
  }

  /// Pack or unpack cost for `bytes` of staged halo data (the `c` term of
  /// Eq (3) is pack_time + unpack_time of the grouped message).
  double pack_time(std::int64_t bytes) const {
    return static_cast<double>(bytes) / pack_bandwidth_Bps;
  }
};

}  // namespace op2ca::sim
