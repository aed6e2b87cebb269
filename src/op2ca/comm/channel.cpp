#include "op2ca/comm/channel.hpp"

#include <cstring>

#include "op2ca/util/error.hpp"

namespace op2ca::sim {
namespace {

template <typename T>
void put(std::byte** p, T v) {
  std::memcpy(*p, &v, sizeof(T));
  *p += sizeof(T);
}

template <typename T>
T get(const std::byte** p) {
  T v;
  std::memcpy(&v, *p, sizeof(T));
  *p += sizeof(T);
  return v;
}

}  // namespace

void encode_hello(const ChannelHello& h, std::byte* out) {
  std::byte* p = out;
  put(&p, h.magic);
  put(&p, h.id);
  put(&p, h.bytes);
  // Pad to keep the hello a fixed 32-byte block.
  put(&p, std::uint64_t{0});
  put(&p, h.plan_hash);
  OP2CA_ASSERT(static_cast<std::size_t>(p - out) == kHelloBytes,
               "channel hello encode size mismatch");
}

ChannelHello decode_hello(const std::byte* in, std::size_t payload_bytes) {
  OP2CA_REQUIRE(payload_bytes == kHelloBytes,
                "channel negotiation message has the wrong size");
  const std::byte* p = in;
  ChannelHello h;
  h.magic = get<std::uint32_t>(&p);
  h.id = get<std::int32_t>(&p);
  h.bytes = get<std::uint64_t>(&p);
  get<std::uint64_t>(&p);
  h.plan_hash = get<std::uint64_t>(&p);
  OP2CA_REQUIRE(h.magic == kHelloMagic,
                "channel negotiation message is corrupt (bad magic)");
  return h;
}

}  // namespace op2ca::sim
