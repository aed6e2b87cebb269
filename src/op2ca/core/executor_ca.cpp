// Communication-avoiding chain executor — Alg 2 of the paper.
//
// 1. Inspect the chain (cached by name + structural hash): Alg-3 halo
//    extensions HE_l, per-loop core shrinks, dats needing a pre-chain
//    sync and their depths, the sparse-tiling exec lists, and — per set
//    of stale dats — a cached Exchange holding the flattened grouped
//    plan. Everything is built once; steady-state epochs skip straight
//    to execution.
// 2. Build and post ONE grouped message per neighbour containing every
//    stale dat's exec+nonexec halo layers up to its sync depth (Fig 8),
//    packed through the plan into recycled staging buffers and moved into
//    the mailbox (zero-copy).
// 3. While in flight: run every loop's (shrunken) core in chain order,
//    one region-body call per loop.
// 4. Wait, unpack through the plan's scatter lists, recycle the buffers.
// 5. Run every loop's halo region in chain order: the deferred owned
//    boundary (inward distance <= shrink_l) followed by the import-exec
//    layers 1..HE_l — the redundant computation that replaces the
//    per-loop halo exchanges.
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

/// Returns the cached grouped exchange for the current stale-dat set
/// (bit i of `mask` = an.syncs[i] participates), building it on miss.
Exchange& chain_exchange(RankState& st, ChainPlan& cp, std::uint64_t mask,
                         std::int64_t* plan_builds) {
  auto it = cp.exchanges.find(mask);
  if (it != cp.exchanges.end()) return it->second;
  std::vector<DatSync> syncs;
  for (std::size_t i = 0; i < cp.analysis.syncs.size(); ++i)
    if ((mask & (std::uint64_t{1} << i)) != 0)
      syncs.push_back(cp.analysis.syncs[i]);
  // Channels are keyed by the structural hash and stale mask that key
  // this exchange: a rank whose plan went stale renegotiates or fails the
  // handshake loudly, it can never feed an old channel.
  return cp.exchanges
      .emplace(mask, build_exchange(
                         st, syncs, kChainTag, /*per_class=*/false,
                         cp.structure ^ (mask * 0x9e3779b97f4a7c15ULL),
                         plan_builds))
      .first->second;
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

  // A pooled rank folds the grouped packs into the first loop's core
  // epoch (the epoch drains before any later loop runs, so only the
  // first loop's writers need gating).
  std::vector<Exchange*> exs;
  std::vector<PackTask> packs;
  if (mask != 0) {
    exs.push_back(&chain_exchange(st, cp, mask, &ep.metrics.plan_builds));
    post_exchange(st, *exs.back(), ep.metrics, packs);
  }
  ep.mark(Epoch::kPack);

  // -- Core phase (lines 8-12): every loop's core in chain order. The
  //    grouped packs ride in the first loop's epoch on a pooled rank. --
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const halo::SetLayout& lay = st.layout(loops[l].set);
    const lidx_t core_end = lay.core_count(an.shrink[l]);
    if (l == 0 && st.pool != nullptr)
      ep.metrics.core_iters +=
          run_range_tasks(st, loops[l], 0, core_end, packs);
    else
      ep.metrics.core_iters += run_range(st, loops[l], 0, core_end);
  }

  ep.mark(Epoch::kCore);

  // -- Wait + unpack (line 13). -----------------------------------------
  complete_exchanges(st, exs, ep);

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
