// The halo exchange both executors share: build once per cached plan,
// then post (pack -> isend, irecv) before the core and complete (wait ->
// unpack -> recycle) after it. Only the message shape differs between
// Alg 1 and Alg 2, and that lives in the sides of the GroupedPlan.
#include <algorithm>

#include "op2ca/core/runtime_detail.hpp"

namespace op2ca::core::detail {

Exchange build_exchange(RankState& st, std::span<const DatSync> syncs,
                        sim::tag_t tag, bool per_class,
                        std::uint64_t channel_hash,
                        std::int64_t* plan_builds) {
  Exchange ex;
  const mesh::MeshDef& mesh = st.world->mesh();
  for (const DatSync& s : syncs) {
    RankDat& rd = st.rank_dat(s.dat);
    // st.dats never reallocates after construction, so the descriptor
    // pointer stays valid for the exchange's lifetime (unlike `data`,
    // which post_exchange rebinds every epoch).
    ex.specs.push_back({mesh.dat(s.dat).set, rd.dim, s.depth,
                        rd.data.data(), &rd.layout});
    ex.dats.push_back(s.dat);
  }
  if (per_class) {
    ex.sides = halo::build_grouped_plan(st.rank_plan(), ex.specs, tag,
                                        halo::HaloClasses::kExec)
                   .sides;
    for (halo::GroupedPlan::Side& side :
         halo::build_grouped_plan(st.rank_plan(), ex.specs, tag + 1,
                                  halo::HaloClasses::kNonexec)
             .sides)
      ex.sides.push_back(std::move(side));
  } else {
    ex.sides = halo::build_grouped_plan(st.rank_plan(), ex.specs, tag).sides;
  }

  const std::size_t n = ex.sides.size();
  ex.recv_bufs.resize(n);
  ex.recv_kept.assign(n, false);
  ex.send_spare.assign(n, -1);
  for (std::size_t s = 0; s < n; ++s) {
    const halo::GroupedPlan::Side& side = ex.sides[s];
    if (side.send_bytes == 0) continue;
    for (std::size_t r = 0; r < n && ex.send_spare[s] < 0; ++r)
      if (ex.sides[r].q == side.q && ex.sides[r].recv_bytes > 0 &&
          !ex.recv_kept[r]) {
        ex.send_spare[s] = static_cast<std::int32_t>(r);
        ex.recv_kept[r] = true;
      }
    if (ex.send_spare[s] < 0)
      st.provision_unpaired_send(side.q, side.tag, side.send_bytes);
  }

  // Persistent channels (a la MPI_Send_init): one fixed (peer, tag, size)
  // slot per message. Sides are walked in plan order on both ends (the
  // plan is rank-symmetric), so the k-th send-side open to a peer pairs
  // with that peer's k-th recv-side open.
  if (st.comm.transport_config().persistent) {
    std::vector<sim::ChannelSpec> specs;
    for (const halo::GroupedPlan::Side& side : ex.sides) {
      if (side.send_bytes > 0)
        specs.push_back({side.q, /*sender=*/true, side.send_bytes,
                         channel_hash});
      if (side.recv_bytes > 0)
        specs.push_back({side.q, /*sender=*/false, side.recv_bytes,
                         channel_hash});
    }
    std::vector<sim::Channel> chans = st.comm.open_channels(specs);
    ex.send_channels.resize(n);
    ex.recv_channels.resize(n);
    std::size_t k = 0;
    for (std::size_t s = 0; s < n; ++s) {
      if (ex.sides[s].send_bytes > 0)
        ex.send_channels[s] = std::move(chans[k++]);
      if (ex.sides[s].recv_bytes > 0)
        ex.recv_channels[s] = std::move(chans[k++]);
    }
  }
  *plan_builds += 1;
  return ex;
}

void post_exchange(RankState& st, Exchange& ex, LoopMetrics& m,
                   std::vector<PackTask>& packs) {
  // Rebind data pointers: dat storage can be re-gathered between runs
  // (World::reset_dat), so the cached specs must not pin stale arrays.
  for (std::size_t i = 0; i < ex.dats.size(); ++i)
    ex.specs[i].data = st.rank_dat(ex.dats[i]).data.data();

  // A pooled rank folds each pack into the caller's core epoch as a graph
  // task that any worker may run; otherwise it runs right here. Staging
  // buffers come off the rank thread and request slots are preallocated,
  // so workers fill them without racing; receives post here. Workers may
  // post to different neighbours concurrently — Comm serialises per
  // destination.
  gpu::DeviceSpace* dev = st.device.get();
  std::size_t nslots = 0;
  for (const halo::GroupedPlan::Side& side : ex.sides)
    nslots += (side.send_bytes > 0) + (side.recv_bytes > 0);
  ex.requests.assign(nslots, sim::Request{});
  std::size_t slot = 0;
  for (std::size_t s = 0; s < ex.sides.size(); ++s) {
    const halo::GroupedPlan::Side& side = ex.sides[s];
    if (side.send_bytes > 0) {
      for (const LIdxVec& g : side.gather)
        m.halo_elems += static_cast<std::int64_t>(g.size());
      // Device-side pack: metered here, on the rank thread.
      if (dev != nullptr) dev->stage_out(side.send_bytes);
      // The spare may belong to an earlier side whose irecv is already
      // posted: receives fill their slot only in wait, so this is safe.
      const std::int32_t spare = ex.send_spare[s];
      auto pack = [&st, &ex, &side, s, out = &ex.requests[slot++],
                   buf = st.send_buffer(
                       spare < 0 ? nullptr
                                 : &ex.recv_bufs[static_cast<std::size_t>(
                                       spare)],
                       side.q, side.tag, side.send_bytes)]() mutable {
        halo::pack_grouped(side, ex.specs, buf.data());
        *out = ex.send_channels.empty()
                   ? st.comm.isend(side.q, side.tag, std::move(buf))
                   : st.comm.channel_isend(ex.send_channels[s],
                                           std::move(buf));
      };
      if (st.pool != nullptr) {
        PackTask p{std::move(pack), {}};
        for (std::size_t i = 0; i < ex.dats.size(); ++i)
          p.reads.push_back({ex.dats[i], &side.gather[i]});
        packs.push_back(std::move(p));
      } else {
        pack();
      }
    }
    if (side.recv_bytes > 0)
      ex.requests[slot++] =
          ex.recv_channels.empty()
              ? st.comm.irecv(side.q, side.tag, &ex.recv_bufs[s])
              : st.comm.channel_irecv(ex.recv_channels[s], &ex.recv_bufs[s]);
  }
}

void complete_exchanges(RankState& st, std::span<Exchange* const> exs,
                        Epoch& ep) {
  for (Exchange* ex : exs) st.comm.wait_all(ex->requests);
  ep.mark(Epoch::kWait);

  gpu::DeviceSpace* dev = st.device.get();
  for (Exchange* ex : exs) {
    for (std::size_t s = 0; s < ex->sides.size(); ++s) {
      const halo::GroupedPlan::Side& side = ex->sides[s];
      if (side.recv_bytes == 0) continue;
      halo::unpack_grouped(side, ex->specs, ex->recv_bufs[s]);
      if (dev != nullptr) dev->stage_in(side.recv_bytes);  // device unpack
      // A slot paired with a send keeps its payload for the next pack.
      if (!ex->recv_kept[s])
        st.return_to_sender(std::move(ex->recv_bufs[s]), side.q, side.tag);
    }
    for (std::size_t i = 0; i < ex->dats.size(); ++i) {
      RankDat& rd = st.rank_dat(ex->dats[i]);
      rd.fresh_depth = std::max(rd.fresh_depth, ex->specs[i].depth);
    }
  }
  ep.mark(Epoch::kUnpack);
}

}  // namespace op2ca::core::detail
