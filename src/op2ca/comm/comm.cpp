#include "op2ca/comm/comm.hpp"

#include <algorithm>
#include <string>

#include "op2ca/util/error.hpp"

namespace op2ca::sim {

void CommStats::reset_epoch() {
  epoch_msgs_sent = 0;
  epoch_bytes_sent = 0;
  epoch_max_msg_bytes = 0;
  epoch_neighbors.clear();
}

Comm::Comm(TransportBackend& transport, rank_t rank,
           const TransportConfig* tcfg)
    : transport_(&transport), rank_(rank) {
  OP2CA_REQUIRE(rank >= 0 && rank < transport.size(),
                "Comm rank out of range");
  if (tcfg != nullptr) tcfg_ = *tcfg;
  dest_mu_ = std::make_unique<std::mutex[]>(
      static_cast<std::size_t>(transport.size()));
  next_send_channel_.assign(static_cast<std::size_t>(transport.size()), 0);
  next_recv_channel_.assign(static_cast<std::size_t>(transport.size()), 0);
}

Request Comm::isend(rank_t dst, tag_t tag,
                    std::span<const std::byte> payload) {
  Message msg;
  msg.payload.assign(payload.begin(), payload.end());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.sends_copied += 1;
  }
  return post_send(dst, tag, std::move(msg));
}

Request Comm::isend(rank_t dst, tag_t tag, ByteBuf payload) {
  Message msg;
  msg.payload = std::move(payload);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.sends_moved += 1;
  }
  return post_send(dst, tag, std::move(msg));
}

Request Comm::post_send(rank_t dst, tag_t tag, Message msg) {
  OP2CA_REQUIRE(dst != rank_, "isend to self is not supported");
  msg.src = rank_;
  msg.dst = dst;
  msg.tag = tag;
  const std::size_t n = msg.payload.size();

  // Concurrent pack tasks of one rank may isend simultaneously. Sends
  // serialise per destination — posts to the same peer keep their
  // (src, dst, tag) FIFO order, posts to different peers proceed in
  // parallel instead of queueing behind one global lock.
  {
    std::lock_guard<std::mutex> lock(dest_mu_[static_cast<std::size_t>(dst)]);
    transport_->post(std::move(msg));
  }
  record_send(dst, n);

  Request req;
  req.kind_ = Request::Kind::Send;
  req.peer = dst;
  req.tag = tag;
  return req;
}

void Comm::record_send(rank_t dst, std::size_t bytes) {
  const auto n = static_cast<std::int64_t>(bytes);
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.msgs_sent += 1;
  stats_.bytes_sent += n;
  stats_.send_neighbors.insert(dst);
  stats_.epoch_msgs_sent += 1;
  stats_.epoch_bytes_sent += n;
  stats_.epoch_max_msg_bytes = std::max(stats_.epoch_max_msg_bytes, n);
  stats_.epoch_neighbors.insert(dst);
}

Request Comm::irecv(rank_t src, tag_t tag, ByteBuf* out) {
  OP2CA_REQUIRE(out != nullptr, "irecv requires an output buffer");
  OP2CA_REQUIRE(src != rank_, "irecv from self is not supported");
  Request req;
  req.kind_ = Request::Kind::Recv;
  req.peer = src;
  req.tag = tag;
  req.recv_buffer = out;
  return req;
}

// ---- Persistent channels. -------------------------------------------------

std::vector<Channel> Comm::open_channels(
    std::span<const ChannelSpec> specs) {
  std::vector<Channel> out;
  out.reserve(specs.size());

  // Phase 1: build local state and announce every channel. Announcing
  // everything before confirming anything keeps the handshake
  // deadlock-free for any SPMD-symmetric open order: a peer confirming
  // its side never waits on a hello we have not yet posted.
  for (const ChannelSpec& spec : specs) {
    OP2CA_REQUIRE(spec.peer >= 0 && spec.peer < size() &&
                      spec.peer != rank_,
                  "open_channels: bad peer rank");
    OP2CA_REQUIRE(spec.bytes > 0, "open_channels: empty channel slot");
    Channel ch;
    ch.peer = spec.peer;
    ch.sender = spec.sender;
    ch.bytes = spec.bytes;
    ch.plan_hash = spec.plan_hash;
    auto& seq = spec.sender
                    ? next_send_channel_[static_cast<std::size_t>(spec.peer)]
                    : next_recv_channel_[static_cast<std::size_t>(spec.peer)];
    ch.id = seq++;

    ChannelHello hello;
    hello.magic = kHelloMagic;
    hello.id = ch.id;
    hello.bytes = ch.bytes;
    hello.plan_hash = ch.plan_hash;
    Message msg;
    msg.payload.resize(kHelloBytes);
    encode_hello(hello, msg.payload.data());
    post_send(ch.peer,
              ch.sender ? kChannelHelloSend : kChannelHelloRecv,
              std::move(msg));
    out.push_back(std::move(ch));
  }

  // Phase 2: confirm each channel against the peer's announcement of the
  // opposite direction. FIFO per (src, tag) pairs the k-th send-side
  // open with the k-th recv-side open.
  for (Channel& ch : out) {
    Message m = match_or_raise(
        ch.peer, ch.sender ? kChannelHelloRecv : kChannelHelloSend,
        "persistent-channel negotiation");
    const ChannelHello peer_hello =
        decode_hello(m.payload.data(), m.payload.size());
    OP2CA_REQUIRE(
        peer_hello.id == ch.id,
        "persistent channel out of sync with rank " +
            std::to_string(ch.peer) + ": local id " +
            std::to_string(ch.id) + " vs peer id " +
            std::to_string(peer_hello.id) +
            " (channels opened in different orders)");
    OP2CA_REQUIRE(
        peer_hello.plan_hash == ch.plan_hash,
        "stale persistent channel to rank " + std::to_string(ch.peer) +
            ": structural plan hash mismatch (one side rebuilt its "
            "exchange plan without renegotiating the channel)");
    OP2CA_REQUIRE(peer_hello.bytes == ch.bytes,
                  "persistent channel geometry mismatch with rank " +
                      std::to_string(ch.peer) + ": local " +
                      std::to_string(ch.bytes) + "B vs peer " +
                      std::to_string(peer_hello.bytes) + "B");
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.channels_opened += 1;
  }
  return out;
}

Request Comm::channel_isend(const Channel& ch, ByteBuf payload) {
  OP2CA_REQUIRE(ch.valid(), "channel_isend on an unopened channel");
  OP2CA_REQUIRE(ch.sender, "channel_isend on a receive-side channel");
  OP2CA_REQUIRE(payload.size() == ch.bytes,
                "channel_isend payload does not fit the negotiated slot "
                "(" + std::to_string(payload.size()) + "B into " +
                    std::to_string(ch.bytes) + "B)");

  // The negotiated geometry already pins (peer, tag, size), so the
  // payload moves zero-copy, headerless.
  Message msg;
  msg.payload = std::move(payload);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.channel_sends += 1;
    stats_.sends_moved += 1;
  }
  return post_send(ch.peer, ch.tag(), std::move(msg));
}

Request Comm::channel_irecv(const Channel& ch, ByteBuf* out) {
  OP2CA_REQUIRE(ch.valid(), "channel_irecv on an unopened channel");
  OP2CA_REQUIRE(!ch.sender, "channel_irecv on a send-side channel");
  OP2CA_REQUIRE(out != nullptr, "channel_irecv requires an output buffer");
  Request req;
  req.kind_ = Request::Kind::ChannelRecv;
  req.peer = ch.peer;
  req.tag = ch.tag();
  req.recv_buffer = out;
  req.channel = &ch;
  return req;
}

// ---- Completion. ----------------------------------------------------------

Message Comm::match_or_raise(rank_t src, tag_t tag, const char* what) {
  Message m;
  if (!transport_->match_for(rank_, src, tag, &m, tcfg_.channel_timeout_s))
    raise(std::string(what) + " from rank " + std::to_string(src) +
          " timed out after " + std::to_string(tcfg_.channel_timeout_s) +
          "s (dropped message or failed peer) — failing loudly rather "
          "than waiting forever");
  return m;
}

void Comm::complete_recv(Request& req) {
  Message msg = transport_->match(rank_, req.peer, req.tag);
  *req.recv_buffer = std::move(msg.payload);
}

void Comm::complete_channel_recv(Request& req) {
  const Channel& ch = *req.channel;
  Message m =
      match_or_raise(ch.peer, ch.tag(), "persistent-channel message");
  OP2CA_REQUIRE(m.payload.size() == ch.bytes,
                "persistent channel from rank " + std::to_string(ch.peer) +
                    " delivered " + std::to_string(m.payload.size()) +
                    "B into a " + std::to_string(ch.bytes) + "B slot");
  *req.recv_buffer = std::move(m.payload);
}

void Comm::wait(Request& req) {
  OP2CA_REQUIRE(req.valid(), "wait on an empty request");
  switch (req.kind_) {
    case Request::Kind::Recv: complete_recv(req); break;
    case Request::Kind::ChannelRecv: complete_channel_recv(req); break;
    default: break;  // Sends complete eagerly at isend time.
  }
  req.kind_ = Request::Kind::None;
}

void Comm::wait_all(std::span<Request> reqs) {
  for (auto& req : reqs)
    if (req.valid()) wait(req);
}

void Comm::barrier() { transport_->barrier(); }

}  // namespace op2ca::sim
