// Classic OP2 executor — Alg 1 of the paper.
//
// Per loop: post non-blocking exchanges of the level-1 halos of every dat
// that is read and stale (two messages per dat per neighbour: exec and
// nonexec — the 2 d p m^1 term of Eq (1)); execute the core while they
// are in flight; wait; execute the owned boundary and, for loops with
// indirect writes, the level-1 import-exec halo; reduce globals; mark
// written dats' halos stale.
//
// The per-dat message lists are flattened into a cached LoopExchange on
// first use, and staging buffers cycle through the rank's BufferPool (the
// zero-copy isend hands each send buffer to the receiver, which releases
// it back into its own pool after unpacking) — steady-state loops walk no
// maps and allocate nothing.
#include <algorithm>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core::detail {
namespace {

/// Dats whose level-1 halo must be refreshed before this loop runs.
std::vector<mesh::dat_id> dats_needing_exchange(RankState& st,
                                                const LoopRecord& rec) {
  const bool exec_halo = loop_executes_exec_halo(rec);
  std::vector<mesh::dat_id> out;
  for (const auto& [dat, m] : merge_loop_accesses(rec.spec)) {
    if (!reads_value(m.mode)) continue;
    // Direct reads only touch halo elements when the loop executes them.
    if (!m.indirect && !exec_halo) continue;
    if (st.rank_dat(dat).fresh_depth >= 1) continue;
    out.push_back(dat);
  }
  return out;
}

/// Flattens dat `d`'s level-1 message lists (built once, cached).
LoopExchange& loop_exchange(RankState& st, mesh::dat_id d,
                            std::int64_t* plan_builds) {
  std::unique_ptr<LoopExchange>& slot =
      st.loop_exchanges[static_cast<std::size_t>(d)];
  if (slot != nullptr) return *slot;

  const mesh::DatDef& dd = st.world->mesh().dat(d);
  const int dim = dd.dim;
  const halo::NeighborLists& nl =
      st.rank_plan().lists[static_cast<std::size_t>(dd.set)];
  const sim::tag_t tag_exec = kLoopTagBase + d * 2;
  const sim::tag_t tag_nonexec = kLoopTagBase + d * 2 + 1;

  slot = std::make_unique<LoopExchange>();
  auto add = [dim](std::vector<LoopExchange::Segment>* segs,
                   const std::map<rank_t, std::vector<LIdxVec>>& tab,
                   sim::tag_t tag) {
    for (const auto& [q, layers] : tab) {
      const LIdxVec& idx = layers[0];  // level 1
      if (idx.empty()) continue;
      segs->push_back({q, tag, &idx,
                       idx.size() * static_cast<std::size_t>(dim) *
                           sizeof(double)});
    }
  };
  add(&slot->sends, nl.exp_exec, tag_exec);
  add(&slot->sends, nl.exp_nonexec, tag_nonexec);
  add(&slot->recvs, nl.imp_exec, tag_exec);
  add(&slot->recvs, nl.imp_nonexec, tag_nonexec);
  slot->recv_bufs.resize(slot->recvs.size());
  slot->recv_kept.assign(slot->recvs.size(), false);
  for (const LoopExchange::Segment& seg : slot->sends) {
    std::int32_t spare = -1;
    for (std::size_t i = 0; i < slot->recvs.size() && spare < 0; ++i)
      if (slot->recvs[i].q == seg.q && !slot->recv_kept[i]) {
        spare = static_cast<std::int32_t>(i);
        slot->recv_kept[i] = true;
      }
    slot->send_spare.push_back(spare);
    if (spare < 0) st.provision_unpaired_send(seg.q, seg.tag, seg.bytes);
  }

  // Persistent channels: one slot per cached segment, keyed by the dat
  // (both ends derive the identical hash — the exchange is invalidated
  // with the LoopExchange cache itself). Segment order is (exec,
  // nonexec) x neighbour-sorted on both ranks, so the k-th send-side
  // open pairs with the peer's k-th recv-side open.
  if (st.comm.transport_config().persistent) {
    const std::uint64_t phash =
        0x4c4f4f50ull ^
        (static_cast<std::uint64_t>(d) * 0x9e3779b97f4a7c15ULL);
    std::vector<sim::ChannelSpec> specs;
    for (const LoopExchange::Segment& seg : slot->sends)
      specs.push_back({seg.q, /*sender=*/true, seg.bytes, phash});
    for (const LoopExchange::Segment& seg : slot->recvs)
      specs.push_back({seg.q, /*sender=*/false, seg.bytes, phash});
    std::vector<sim::Channel> chans = st.comm.open_channels(specs);
    slot->send_channels.assign(
        std::make_move_iterator(chans.begin()),
        std::make_move_iterator(chans.begin() +
                                static_cast<std::ptrdiff_t>(
                                    slot->sends.size())));
    slot->recv_channels.assign(
        std::make_move_iterator(chans.begin() +
                                static_cast<std::ptrdiff_t>(
                                    slot->sends.size())),
        std::make_move_iterator(chans.end()));
  }
  *plan_builds += 1;
  return *slot;
}

}  // namespace

LoopMetrics execute_loop_op2(RankState& st, const LoopRecord& rec) {
  Epoch ep(st, {&rec, 1});
  const halo::SetLayout& lay = st.layout(rec.set);
  gpu::DeviceSpace* dev = st.device.get();

  // Snapshot global-INC buffers before any iteration runs.
  GblIncState snap = snapshot_gbl_incs(rec);

  // -- 1. Post halo exchanges (MPI_Isend / MPI_Irecv of Alg 1). --------
  const std::vector<mesh::dat_id> exch = dats_needing_exchange(st, rec);
  std::vector<sim::Request>& requests = st.loop_requests;
  requests.clear();

  std::vector<PackTask> packs;
  // A pooled rank folds each pack into the core epoch as a graph task
  // that any worker may run; otherwise it runs right here. Either way the
  // staging buffer comes off the rank thread and request slots are
  // preallocated, so a pack writes its isend request without racing the
  // vector. Receives stay on the rank thread.
  const bool fold = st.pool != nullptr;
  std::size_t nslots = 0;
  for (mesh::dat_id d : exch) {
    const LoopExchange& ex = loop_exchange(st, d, &ep.metrics.plan_builds);
    nslots += ex.sends.size() + ex.recvs.size();
  }
  requests.assign(nslots, sim::Request{});
  std::size_t slot = 0;
  for (mesh::dat_id d : exch) {
    RankDat& rd = st.rank_dat(d);
    LoopExchange& ex = *st.loop_exchanges[static_cast<std::size_t>(d)];
    for (std::size_t si = 0; si < ex.sends.size(); ++si) {
      const LoopExchange::Segment& seg = ex.sends[si];
      ep.metrics.halo_elems += static_cast<std::int64_t>(seg.idx->size());
      // Device-side pack: export rows leave device memory for the
      // transport staging (metered here, on the rank thread).
      if (dev != nullptr) dev->stage_out(seg.bytes);
      const std::int32_t spare = ex.send_spare[si];
      auto pack = [&st, &rd, &ex, &seg, si, out = &requests[slot++],
                   buf = st.send_buffer(
                       spare < 0 ? nullptr
                                 : &ex.recv_bufs[static_cast<std::size_t>(
                                       spare)],
                       seg.q, seg.tag, seg.bytes)]() mutable {
        halo::gather_region(rd.data.data(), &rd.layout, rd.dim, *seg.idx,
                            buf.data());
        *out = post_send(st.comm, ex.send_channels, si, seg.q, seg.tag,
                         std::move(buf));
      };
      if (fold)
        packs.push_back({std::move(pack), {{d, seg.idx}}});
      else
        pack();
    }
    for (std::size_t i = 0; i < ex.recvs.size(); ++i)
      requests[slot++] = post_recv(st.comm, ex.recv_channels, i,
                                   ex.recvs[i].q, ex.recvs[i].tag,
                                   &ex.recv_bufs[i]);
  }

  ep.mark(Epoch::kPack);

  // -- 2. Core iterations overlap with the exchange (a pooled rank also
  //       runs the pack tasks inside this epoch). -----------------------
  const lidx_t core_end = lay.core_count(1);
  ep.metrics.core_iters = fold ? run_range_tasks(st, rec, 0, core_end, packs)
                               : run_range(st, rec, 0, core_end);
  ep.mark(Epoch::kCore);

  // -- 3. MPI_Wait + unpack. -------------------------------------------
  st.comm.wait_all(requests);
  ep.mark(Epoch::kWait);

  for (mesh::dat_id d : exch) {
    RankDat& rd = st.rank_dat(d);
    LoopExchange& ex = *st.loop_exchanges[static_cast<std::size_t>(d)];
    for (std::size_t i = 0; i < ex.recvs.size(); ++i) {
      const LoopExchange::Segment& seg = ex.recvs[i];
      ByteBuf& buf = ex.recv_bufs[i];
      OP2CA_ASSERT(buf.size() == seg.bytes,
                   "level-1 halo payload size mismatch");
      const std::size_t used = halo::unpack_region(
          rd.data.data(), &rd.layout, rd.dim, *seg.idx, buf, 0);
      OP2CA_ASSERT(used == buf.size(), "level-1 halo unpack short");
      if (dev != nullptr) dev->stage_in(seg.bytes);  // device-side unpack
      if (!ex.recv_kept[i])
        st.return_to_sender(std::move(buf), seg.q, seg.tag);
    }
    rd.fresh_depth = std::max(rd.fresh_depth, 1);
  }
  ep.mark(Epoch::kUnpack);

  // -- 4. Owned boundary + level-1 import-exec halo. --------------------
  ep.metrics.halo_iters = run_range(st, rec, core_end, lay.num_owned);
  if (loop_executes_exec_halo(rec)) {
    const auto [b, e] = lay.exec_layer(1);
    ep.metrics.halo_iters += run_range(st, rec, b, e);
  }
  ep.mark(Epoch::kHalo);

  // -- 5. Global reductions (synchronisation point). --------------------
  if (!snap.snapshots.empty()) {
    // Deltas were accumulated over owned iterations only (no exec halo
    // runs for gbl-INC loops; enforced at submit).
    reduce_gbl_incs(st, snap);
  }

  return ep.finish(st.loop_metrics, rec.name);
}

}  // namespace op2ca::core::detail
