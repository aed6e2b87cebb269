// Communication-avoiding chain executor — Alg 2 of the paper.
//
// 1. Inspect the chain (cached by name + structural hash): Alg-3 halo
//    extensions HE_l, per-loop core shrinks, dats needing a pre-chain
//    sync and their depths, the sparse-tiling exec lists, and — per set
//    of stale dats — a persistent ChainExchange holding the flattened
//    GroupedPlan. Everything is built once; steady-state epochs skip
//    straight to execution.
// 2. Build and post ONE grouped message per neighbour containing every
//    stale dat's exec+nonexec halo layers up to its sync depth (Fig 8),
//    packed through the plan into pooled staging buffers and moved into
//    the mailbox (zero-copy).
// 3. While in flight: run every loop's (shrunken) core in chain order,
//    one region-body call per loop.
// 4. Wait, unpack through the plan's scatter lists, recycle the buffers.
// 5. Run every loop's halo region in chain order: the deferred owned
//    boundary (inward distance <= shrink_l) followed by the import-exec
//    layers 1..HE_l — the redundant computation that replaces the
//    per-loop halo exchanges.
#include <algorithm>

#include "op2ca/core/slice.hpp"
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core::detail {
namespace {

ChainSpec spec_from(const std::string& name,
                    std::span<const LoopRecord> loops) {
  ChainSpec spec;
  spec.name = name;
  spec.loops.reserve(loops.size());
  for (const auto& rec : loops) spec.loops.push_back(rec.spec);
  return spec;
}

/// Returns the persistent grouped exchange for the current stale-dat set
/// (bit i of `mask` = an.syncs[i] participates), building it on miss.
ChainExchange& chain_exchange(RankState& st, ChainPlan& cp,
                              std::uint64_t mask,
                              std::int64_t* plan_builds) {
  auto it = cp.exchanges.find(mask);
  if (it != cp.exchanges.end()) return it->second;

  ChainExchange ex;
  const mesh::MeshDef& mesh = st.world->mesh();
  for (std::size_t i = 0; i < cp.analysis.syncs.size(); ++i) {
    if ((mask & (std::uint64_t{1} << i)) == 0) continue;
    const DatSync& s = cp.analysis.syncs[i];
    RankDat& rd = st.rank_dat(s.dat);
    halo::DatSyncSpec spec;
    spec.set = mesh.dat(s.dat).set;
    spec.dim = rd.dim;
    spec.depth = s.depth;
    spec.data = rd.data.data();
    // st.dats never reallocates after construction, so the descriptor
    // pointer stays valid for the exchange's lifetime (unlike `data`,
    // which is rebound every epoch).
    spec.layout = &rd.layout;
    ex.specs.push_back(spec);
    ex.dats.push_back(s.dat);
  }
  ex.plan = halo::build_grouped_plan(st.rank_plan(), ex.specs);
  ex.recv_bufs.resize(ex.plan.sides.size());
  for (const halo::GroupedPlan::Side& side : ex.plan.sides)
    if (side.send_bytes > 0 && side.recv_bytes == 0)
      st.provision_unpaired_send(side.q, kChainTag, side.send_bytes);

  // Persistent channels (a la MPI_Send_init): negotiate one fixed
  // (peer, tag, size) slot per grouped side, keyed by the same structural
  // hash + stale mask that invalidates this exchange — a rank whose plan
  // went stale renegotiates or fails the handshake loudly, it can never
  // feed an old channel. Sides are walked in plan order on both ends
  // (the grouped plan is rank-symmetric), so the k-th send-side open
  // here pairs with the k-th recv-side open on the peer.
  if (st.comm.transport_config().persistent) {
    const std::uint64_t phash =
        cp.structure ^ (mask * 0x9e3779b97f4a7c15ULL);
    std::vector<sim::ChannelSpec> specs;
    for (const halo::GroupedPlan::Side& side : ex.plan.sides) {
      if (side.send_bytes > 0)
        specs.push_back({side.q, /*sender=*/true, side.send_bytes, phash});
      if (side.recv_bytes > 0)
        specs.push_back({side.q, /*sender=*/false, side.recv_bytes, phash});
    }
    std::vector<sim::Channel> chans = st.comm.open_channels(specs);
    ex.send_channels.resize(ex.plan.sides.size());
    ex.recv_channels.resize(ex.plan.sides.size());
    std::size_t k = 0;
    for (std::size_t s = 0; s < ex.plan.sides.size(); ++s) {
      if (ex.plan.sides[s].send_bytes > 0)
        ex.send_channels[s] = std::move(chans[k++]);
      if (ex.plan.sides[s].recv_bytes > 0)
        ex.recv_channels[s] = std::move(chans[k++]);
    }
  }
  *plan_builds += 1;
  return cp.exchanges.emplace(mask, std::move(ex)).first->second;
}

}  // namespace

ChainPlan& chain_plan(RankState& st, const std::string& key,
                      std::span<const LoopRecord> loops,
                      std::int64_t* plan_builds) {
  const std::uint64_t sig = chain_structural_hash(loops.data(), loops.size());
  ChainPlan& cp = st.chain_plans[key];
  if (cp.structure != sig || cp.analysis.he.size() != loops.size()) {
    cp = {sig, inspect_chain(st.world->mesh(), spec_from(key, loops)), {},
          {}};
    if (plan_builds != nullptr) *plan_builds += 1;
  }
  return cp;
}

void execute_chain_ca(RankState& st, const std::string& name,
                      std::vector<LoopRecord>& loops, int tile,
                      const std::string& plan_key) {
  if (loops.empty()) return;
  Epoch ep(st, loops);
  const std::string& key = plan_key.empty() ? name : plan_key;

  // -- Inspection (cached; the analysis is rank-independent). The plan
  //    key carries the tile geometry, so a fused tile and a partial tile
  //    of the same chain cache distinct plans (and distinct persistent
  //    channels — cp.structure differs, so channels renegotiate exactly
  //    when the tile geometry changes). ----------------------------------
  ChainPlan& cp = chain_plan(st, key, loops, &ep.metrics.plan_builds);
  const ChainAnalysis& an = cp.analysis;

  OP2CA_REQUIRE(
      an.required_depth <= st.world->plan().depth,
      "chain '" + name + "' needs " + std::to_string(an.required_depth) +
          " halo layers but the World was built with halo_depth=" +
          std::to_string(st.world->plan().depth) +
          "; raise WorldConfig::halo_depth");
  const int cap = st.world->config().chains.max_depth(name);
  OP2CA_REQUIRE(cap == 0 || an.required_depth <= cap,
                "chain '" + name + "' exceeds its configured max depth");
  if (cp.exec_lists.size() != loops.size())
    cp.exec_lists = needed_exec_lists(st.world->mesh(), st.rank_plan(),
                                      st.world->plan().depth,
                                      spec_from(key, loops), an);

  // -- Pre-chain grouped exchange (lines 1-7 of Alg 2). ----------------
  // Stale-dat mask (dirty-bit check): identical on every rank — dirty
  // bits evolve under the same SPMD loop sequence everywhere — so both
  // endpoints of every message agree on the grouped layout.
  OP2CA_REQUIRE(an.syncs.size() <= 64,
                "chain '" + name + "' syncs more than 64 dats");
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < an.syncs.size(); ++i)
    if (st.rank_dat(an.syncs[i].dat).fresh_depth < an.syncs[i].depth)
      mask |= std::uint64_t{1} << i;

  gpu::DeviceSpace* dev = st.device.get();
  ChainExchange* ex = nullptr;
  std::vector<PackTask> packs;
  const bool fold = st.pool != nullptr;
  if (mask != 0) {
    ex = &chain_exchange(st, cp, mask, &ep.metrics.plan_builds);
    // Rebind data pointers: dat storage can be re-gathered between runs
    // (World::reset_dat), so the cached specs must not pin stale arrays.
    for (std::size_t i = 0; i < ex->dats.size(); ++i)
      ex->specs[i].data = st.rank_dat(ex->dats[i]).data.data();

    // A pooled rank folds each side's grouped pack into the first
    // loop's core epoch as a graph task (the epoch drains before any
    // later loop runs, so only the first loop's writers need gating);
    // otherwise it runs right here. Staging buffers come off the rank
    // thread; request slots are preallocated so workers fill them without
    // racing; receives post here. Workers may post to different
    // neighbours concurrently — Comm serialises per destination.
    std::size_t nslots = 0;
    for (const halo::GroupedPlan::Side& side : ex->plan.sides)
      nslots += (side.send_bytes > 0) + (side.recv_bytes > 0);
    ex->requests.assign(nslots, sim::Request{});
    std::size_t slot = 0;
    for (std::size_t s = 0; s < ex->plan.sides.size(); ++s) {
      const halo::GroupedPlan::Side& side = ex->plan.sides[s];
      if (side.send_bytes > 0) {
        for (const LIdxVec& g : side.gather)
          ep.metrics.halo_elems += static_cast<std::int64_t>(g.size());
        // Device-side grouped pack: metered here, on the rank thread.
        if (dev != nullptr) dev->stage_out(side.send_bytes);
        auto pack = [&st, ex, &side, s,
                     out = &ex->requests[slot++],
                     buf = st.send_buffer(
                         side.recv_bytes > 0 ? &ex->recv_bufs[s] : nullptr,
                         side.q, kChainTag, side.send_bytes)]() mutable {
          halo::pack_grouped(side, ex->specs, buf.data());
          *out = post_send(st.comm, ex->send_channels, s, side.q, kChainTag,
                           std::move(buf));
        };
        if (fold) {
          PackTask p{std::move(pack), {}};
          for (std::size_t i = 0; i < ex->dats.size(); ++i)
            p.reads.push_back({ex->dats[i], &side.gather[i]});
          packs.push_back(std::move(p));
        } else {
          pack();
        }
      }
      if (side.recv_bytes > 0)
        ex->requests[slot++] = post_recv(st.comm, ex->recv_channels, s,
                                         side.q, kChainTag,
                                         &ex->recv_bufs[s]);
    }
  }

  ep.mark(Epoch::kPack);

  // -- Core phase (lines 8-12): every loop's core in chain order. The
  //    grouped packs ride in the first loop's epoch on a pooled rank. --
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const halo::SetLayout& lay = st.layout(loops[l].set);
    const lidx_t core_end = lay.core_count(an.shrink[l]);
    if (l == 0 && fold)
      ep.metrics.core_iters +=
          run_range_tasks(st, loops[l], 0, core_end, packs);
    else
      ep.metrics.core_iters += run_range(st, loops[l], 0, core_end);
  }

  ep.mark(Epoch::kCore);

  // -- Wait + unpack (line 13). -----------------------------------------
  if (ex != nullptr) {
    st.comm.wait_all(ex->requests);
    ep.mark(Epoch::kWait);
    for (std::size_t s = 0; s < ex->plan.sides.size(); ++s) {
      if (ex->plan.sides[s].recv_bytes == 0) continue;
      halo::unpack_grouped(ex->plan.sides[s], ex->specs, ex->recv_bufs[s],
                           st.pool.get());
      if (dev != nullptr) dev->stage_in(ex->plan.sides[s].recv_bytes);
      // A side that also sends keeps its payload for the next pack.
      if (ex->plan.sides[s].send_bytes == 0)
        st.return_to_sender(std::move(ex->recv_bufs[s]),
                            ex->plan.sides[s].q, kChainTag);
    }
    for (std::size_t i = 0; i < ex->dats.size(); ++i) {
      RankDat& rd = st.rank_dat(ex->dats[i]);
      rd.fresh_depth = std::max(rd.fresh_depth, ex->specs[i].depth);
    }
    ep.mark(Epoch::kUnpack);
  }

  // -- Halo phase (lines 14-18): deferred boundary + exec layers. The
  //    import-exec iterations are the owner-compute redundancy the CA
  //    trade buys its messages with; a fused tile's lists reach deeper,
  //    so they are metered separately as redundant_elems. ----------------
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const halo::SetLayout& lay = st.layout(loops[l].set);
    ep.metrics.halo_iters +=
        run_range(st, loops[l], lay.core_count(an.shrink[l]), lay.num_owned);
    const std::int64_t exec_n = run_list(st, loops[l], cp.exec_lists[l]);
    ep.metrics.halo_iters += exec_n;
    ep.metrics.redundant_elems += exec_n;
  }

  ep.mark(Epoch::kHalo);

  ep.metrics.tile = tile;
  // Per-invocation execution would have paid this epoch's message count
  // once per fused invocation (the stale-dat mask repeats under a steady
  // timestep loop); the fusion posts it once.
  ep.metrics.msgs_saved = static_cast<std::int64_t>(tile - 1) *
                          st.comm.stats().epoch_msgs_sent;
  ep.finish(st.chain_metrics, name);
}

}  // namespace op2ca::core::detail
