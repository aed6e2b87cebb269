// Persistent-channel protocol shared by every backend (a la
// MPI_Send_init). An executor's halo exchange, built once per cached
// plan and keyed by the hash that already invalidates it, pre-negotiates
// a (peer, tag, size, hash) slot per message with a ChannelHello
// handshake. Steady-state epochs then post the
// payload headerless on the channel's pre-assigned tag — no per-message
// envelope and no receiver-side validation beyond the fixed slot size. A
// structural mismatch between the two ends (stale channel) fails the
// handshake.
#pragma once

#include <cstddef>
#include <cstdint>

#include "op2ca/comm/transport.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::sim {

/// Tag space: each ordered (src -> dst) pair numbers its channels 0, 1,
/// ... and channel k owns tag base + k. The base sits far above the
/// executor tag ranges (chain tag 512, loop tags 1024 + dat*2 + class).
inline constexpr tag_t kChannelTagBase = 1 << 20;
/// Control tags for the ChannelHello handshake: the sender side of a
/// channel announces on kChannelHelloSend, the receiver side on
/// kChannelHelloRecv, so the two opens pair up FIFO per (src, tag).
inline constexpr tag_t kChannelHelloSend = kChannelTagBase - 2;
inline constexpr tag_t kChannelHelloRecv = kChannelTagBase - 1;

/// A negotiated persistent channel: one direction of one peer's slot.
/// Invalid (id < 0) until Comm::open_channels fills it in.
struct Channel {
  rank_t peer = -1;
  bool sender = false;
  std::int32_t id = -1;        ///< per ordered (src -> dst) pair.
  std::size_t bytes = 0;       ///< fixed slot size.
  std::uint64_t plan_hash = 0;

  bool valid() const { return id >= 0; }
  tag_t tag() const { return kChannelTagBase + id; }
};

/// What one side requests from open_channels.
struct ChannelSpec {
  rank_t peer = -1;
  bool sender = false;
  std::size_t bytes = 0;
  std::uint64_t plan_hash = 0;
};

/// Handshake payload: both ends must announce identical geometry.
struct ChannelHello {
  std::uint32_t magic = 0;
  std::int32_t id = -1;
  std::uint64_t bytes = 0;
  std::uint64_t plan_hash = 0;
};

inline constexpr std::uint32_t kHelloMagic = 0x4f503248;  // "OP2H"
inline constexpr std::size_t kHelloBytes = 32;

void encode_hello(const ChannelHello& h, std::byte* out);
ChannelHello decode_hello(const std::byte* in, std::size_t payload_bytes);

}  // namespace op2ca::sim
