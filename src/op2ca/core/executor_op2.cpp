// Classic OP2 executor — Alg 1 of the paper.
//
// Per loop: post non-blocking exchanges of the level-1 halos of every dat
// that is read and stale (two messages per dat per neighbour: exec and
// nonexec — the 2 d p m^1 term of Eq (1)); execute the core while they
// are in flight; wait; execute the owned boundary and, for loops with
// indirect writes, the level-1 import-exec halo; reduce globals; mark
// written dats' halos stale.
//
// Each dat's exchange is built once as an Exchange of two single-class
// grouped plans and cached. Staging buffers circulate without
// allocating: a receive slot paired with a send to the same peer keeps
// its payload for that send's next pack, and the receiver of an unpaired
// send hands the payload back (RankState::return_to_sender) — so
// steady-state loops walk no maps and allocate nothing.
#include "op2ca/core/runtime_detail.hpp"

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

/// Dat `d`'s level-1 exchange (built once, cached).
Exchange& loop_exchange(RankState& st, mesh::dat_id d,
                        std::int64_t* plan_builds) {
  std::unique_ptr<Exchange>& slot =
      st.loop_exchanges[static_cast<std::size_t>(d)];
  if (slot == nullptr) {
    // Both ends derive the same channel hash from the dat; the channels
    // live and die with this cache entry.
    const DatSync sync{d, 1};
    slot = std::make_unique<Exchange>(build_exchange(
        st, {&sync, 1}, kLoopTagBase + d * 2, /*per_class=*/true,
        0x4c4f4f50ull ^
            (static_cast<std::uint64_t>(d) * 0x9e3779b97f4a7c15ULL),
        plan_builds));
  }
  return *slot;
}

}  // namespace

LoopMetrics execute_loop_op2(RankState& st, const LoopRecord& rec) {
  Epoch ep(st, {&rec, 1});
  const halo::SetLayout& lay = st.layout(rec.set);

  // Snapshot global-INC buffers before any iteration runs.
  GblIncState snap = snapshot_gbl_incs(rec);

  // -- 1. Post halo exchanges (MPI_Isend / MPI_Irecv of Alg 1). --------
  std::vector<Exchange*> exs;
  std::vector<PackTask> packs;
  for (mesh::dat_id d : dats_needing_exchange(st, rec)) {
    exs.push_back(&loop_exchange(st, d, &ep.metrics.plan_builds));
    post_exchange(st, *exs.back(), ep.metrics, packs);
  }
  ep.mark(Epoch::kPack);

  // -- 2. Core iterations overlap with the exchange (a pooled rank also
  //       runs the pack tasks inside this epoch). -----------------------
  const lidx_t core_end = lay.core_count(1);
  ep.metrics.core_iters = st.pool != nullptr
                              ? run_range_tasks(st, rec, 0, core_end, packs)
                              : run_range(st, rec, 0, core_end);
  ep.mark(Epoch::kCore);

  // -- 3. MPI_Wait + unpack. -------------------------------------------
  complete_exchanges(st, exs, ep);

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
