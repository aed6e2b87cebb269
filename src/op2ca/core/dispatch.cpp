// Region dispatch: every core/boundary/exec-halo region of both
// executors funnels through run_range / run_list here.
//
// Serial paths are unchanged from the pre-threading runtime: one
// type-erased region body per range/list (or per element under
// serial_dispatch). With a worker pool (threads_per_rank > 1):
//
//  * Loops without indirect writes split regions into contiguous chunks,
//    one per pool thread. Every element writes only its own rows, so any
//    chunking is race-free and bitwise-identical to serial execution.
//  * Loops with indirect writes run one dependency-driven block sweep.
//    The iteration set is cut into contiguous blocks whose size derives
//    from the rank-local set size alone (kBlockDivisor / kMaxBlock), and
//    the blocks are coloured so that two blocks sharing a written target
//    (through any written-dat map) differ in colour. That block-conflict
//    DAG — edges oriented low colour -> high colour — is built once per
//    (set, conflict maps), compiled once per (loop, region) into dense
//    successor/indegree arrays, and executed by the pool's work-stealing
//    run_graph: a block becomes runnable the moment its conflicting
//    lower-coloured neighbours finish, with no barrier. Ranges run each
//    block as one range body; sorted gather lists (the CA exec-halo
//    slices) run each block's sub-slice run-aware. Every conflicting
//    block pair is ordered by the DAG and intra-block order is
//    ascending, so each memory cell sees the same write sequence at
//    every pool width: results are bitwise-identical across widths >= 2,
//    though increment sums reassociate relative to the width-1 serial
//    region. Executors fold halo-pack tasks into the epoch through
//    run_range_tasks: a pack is a root and the blocks writing its read
//    rows depend on it, so staging overlaps the bulk of core compute.
//  * Loops reducing into a global (arg_gbl INC) fall back to the serial
//    region: the single accumulation buffer is inherently order- and
//    sharing-sensitive.
//
// Device mode with hierarchical colouring replaces the block sweep of
// ranges with the two-level device schedule (sweep_hier_colour).
#include <algorithm>
#include <atomic>

#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/util/error.hpp"

namespace op2ca::core::detail {
namespace {

bool has_gbl_inc(const LoopRecord& rec) {
  for (const Arg& a : rec.args)
    if (a.kind == Arg::Kind::Gbl && a.mode == Access::INC) return true;
  return false;
}

/// The maps through which `rec` writes indirectly (sorted, unique), plus
/// a -1 sentinel for the identity view when one of those written dats is
/// also accessed directly in the same loop.
std::vector<mesh::map_id> conflict_maps(const LoopRecord& rec) {
  std::vector<mesh::map_id> maps;
  bool identity = false;
  for (const ArgSpec& a : rec.spec.args) {
    if (a.dat < 0 || !a.indirect || !writes(a.mode)) continue;
    maps.push_back(a.map);
    for (const ArgSpec& b : rec.spec.args)
      if (b.dat == a.dat && !b.indirect) identity = true;
    // Reads of a written dat through another map conflict too.
    for (const ArgSpec& b : rec.spec.args)
      if (b.dat == a.dat && b.indirect) maps.push_back(b.map);
  }
  std::sort(maps.begin(), maps.end());
  maps.erase(std::unique(maps.begin(), maps.end()), maps.end());
  if (identity) maps.push_back(-1);
  return maps;
}

/// Splits [0, n) into at most `parts` balanced chunks; returns the begin
/// offset of each chunk plus the end sentinel.
std::vector<std::size_t> chunk_offsets(std::size_t n, int parts) {
  const std::size_t p = static_cast<std::size_t>(parts);
  std::vector<std::size_t> off(p + 1, n);
  const std::size_t base = n / p, rem = n % p;
  std::size_t at = 0;
  for (std::size_t t = 0; t < p; ++t) {
    off[t] = at;
    at += base + (t < rem ? 1 : 0);
  }
  off[p] = n;
  return off;
}

/// Elements per dependency block, derived from the rank-local set size
/// alone — never from the pool width, so the block DAG (and with it every
/// result) is the same at every width. total / kBlockDivisor keeps small
/// sets at enough blocks to spread over a pool; kMaxBlock caps large sets
/// at cache-sized blocks.
constexpr lidx_t kBlockDivisor = 64;
constexpr lidx_t kMaxBlock = 256;

lidx_t graph_block_elems(lidx_t total) {
  return std::clamp<lidx_t>(total / kBlockDivisor, 2, kMaxBlock);
}

/// Contiguous-chunk parallel range: safe only for loops whose writes are
/// all direct. Bitwise-identical to the serial region for any width.
std::int64_t run_range_chunked(RankState& st, const LoopRecord& rec,
                               lidx_t begin, lidx_t end) {
  util::ThreadPool& pool = *st.pool;
  const auto n = static_cast<std::size_t>(end - begin);
  const std::vector<std::size_t> off = chunk_offsets(n, pool.threads());
  pool.run([&](int t) {
    const auto b = begin + static_cast<lidx_t>(off[static_cast<std::size_t>(t)]);
    const auto e = begin + static_cast<lidx_t>(off[static_cast<std::size_t>(t) + 1]);
    if (b < e) rec.range_body(b, e);
  });
  std::int64_t chunks = 0;
  for (int t = 0; t < pool.threads(); ++t)
    chunks += off[static_cast<std::size_t>(t)] <
              off[static_cast<std::size_t>(t) + 1];
  st.dispatch_regions += chunks;
  st.dispatch_chunks += chunks;
  return end - begin;
}

/// Contiguous-chunk parallel list (direct-write loops over gather lists).
std::int64_t run_list_chunked(RankState& st, const LoopRecord& rec,
                              const lidx_t* idx, std::size_t n) {
  util::ThreadPool& pool = *st.pool;
  const std::vector<std::size_t> off = chunk_offsets(n, pool.threads());
  pool.run([&](int t) {
    const std::size_t b = off[static_cast<std::size_t>(t)];
    const std::size_t e = off[static_cast<std::size_t>(t) + 1];
    if (b < e) rec.list_body(idx + b, e - b);
  });
  std::int64_t chunks = 0;
  for (int t = 0; t < pool.threads(); ++t)
    chunks += off[static_cast<std::size_t>(t)] <
              off[static_cast<std::size_t>(t) + 1];
  st.dispatch_regions += chunks;
  st.dispatch_chunks += chunks;
  return static_cast<std::int64_t>(n);
}

/// Minimum consecutive-run length worth promoting from the gathered-list
/// body to a contiguous range body (below this the dispatch bookkeeping
/// outweighs the vectorisation win).
constexpr std::size_t kMinRun = 8;

/// Executes idx[0..n) in ascending order through run-aware bodies:
/// maximal consecutive runs of at least kMinRun become range regions
/// (contiguous loads the compiler vectorises), everything between goes
/// through the gathered-list body in one piece. The iteration order is
/// exactly that of a single list_body call over the slice, so results
/// are bitwise-equal to it.
std::int64_t run_aware_span(const LoopRecord& rec, const lidx_t* idx,
                            std::size_t n) {
  std::int64_t regions = 0;
  std::size_t j = 0;
  while (j < n) {
    std::size_t k = j + 1;
    while (k < n && idx[k] == idx[k - 1] + 1) ++k;
    if (k - j >= kMinRun) {
      rec.range_body(idx[j], idx[j] + static_cast<lidx_t>(k - j));
    } else {
      // Merge short runs into one gathered segment.
      while (k < n) {
        std::size_t k2 = k + 1;
        while (k2 < n && idx[k2] == idx[k2 - 1] + 1) ++k2;
        if (k2 - k >= kMinRun) break;
        k = k2;
      }
      rec.list_body(idx + j, k - j);
    }
    ++regions;
    j = k;
  }
  return regions;
}

/// Builds the ColourMapViews of a conflict-map list (the -1 sentinel
/// becomes an identity view backed by `identity`, which must outlive the
/// returned views). Shared by the block-graph and the hierarchical
/// device builders so both see the exact same conflict structure.
std::vector<mesh::ColourMapView> conflict_views(
    RankState& st, mesh::set_id set, const std::vector<mesh::map_id>& maps,
    LIdxVec& identity) {
  const halo::SetLayout& lay = st.layout(set);
  const halo::RankPlan& rp = st.rank_plan();
  std::vector<mesh::ColourMapView> views;
  for (mesh::map_id m : maps) {
    mesh::ColourMapView v;
    if (m < 0) {
      identity.resize(static_cast<std::size_t>(lay.total));
      for (lidx_t e = 0; e < lay.total; ++e)
        identity[static_cast<std::size_t>(e)] = e;
      v.targets = identity.data();
      v.arity = 1;
      v.num_elements = lay.total;
      v.num_targets = lay.total;
    } else {
      const halo::LocalMap& lm = rp.maps[static_cast<std::size_t>(m)];
      const mesh::MapDef& md = st.world->mesh().map(m);
      v.targets = lm.targets.data();
      v.arity = lm.arity;
      v.num_elements =
          static_cast<lidx_t>(lm.targets.size() /
                              static_cast<std::size_t>(lm.arity));
      v.num_targets = rp.sets[static_cast<std::size_t>(md.to)].total;
    }
    views.push_back(v);
  }
  return views;
}

/// One outer-colour phase of the hierarchical device sweep: the phase's
/// blocks spread across the pool ("one block per thread block"), each
/// block executing its elements serially in block_order — inner-colour
/// rounds in ascending order, the simulated shared-memory schedule.
/// Blocks of one outer colour never conflict and every block stays on
/// one thread, so results are a pure function of the schedule —
/// bitwise-identical at every pool width.
void sweep_hier_colour(RankState& st, const LoopRecord& rec,
                       const gpu::HierColouring& h, const LIdxVec& blocks,
                       lidx_t begin, lidx_t end) {
  if (blocks.empty()) return;
  util::ThreadPool& pool = *st.pool;
  const lidx_t be = h.blocks.block_elems;
  const std::vector<std::size_t> off =
      chunk_offsets(blocks.size(), pool.threads());
  std::vector<std::int64_t> regions(
      static_cast<std::size_t>(pool.threads()), 0);
  pool.run([&](int t) {
    LIdxVec partial;  // scratch for blocks straddling the region edge
    for (std::size_t j = off[static_cast<std::size_t>(t)];
         j < off[static_cast<std::size_t>(t) + 1]; ++j) {
      const lidx_t b = blocks[j];
      const std::size_t lo = h.block_off[static_cast<std::size_t>(b)];
      const std::size_t hi = h.block_off[static_cast<std::size_t>(b) + 1];
      if (b * be >= begin &&
          b * be + static_cast<lidx_t>(hi - lo) <= end) {
        // Block fully inside [begin, end): its order slice runs as-is.
        rec.list_body(h.block_order.data() + lo, hi - lo);
      } else {
        partial.clear();
        for (std::size_t k = lo; k < hi; ++k) {
          const lidx_t e = h.block_order[k];
          if (e >= begin && e < end) partial.push_back(e);
        }
        if (partial.empty()) continue;
        rec.list_body(partial.data(), partial.size());
      }
      ++regions[static_cast<std::size_t>(t)];
    }
  });
  for (int t = 0; t < pool.threads(); ++t) {
    st.dispatch_regions += regions[static_cast<std::size_t>(t)];
    st.dispatch_chunks += regions[static_cast<std::size_t>(t)] > 0;
  }
}

/// The rank's cached hierarchical two-level schedule for `rec`'s
/// conflict structure (device mode): outer block colouring plus
/// per-block inner element colouring under the shared-memory clamp.
/// Built on first use, cached in RankState::hier_colourings.
const gpu::HierColouring& loop_hier(RankState& st, const LoopRecord& rec) {
  const std::vector<mesh::map_id> maps = conflict_maps(rec);
  const auto key = std::make_pair(rec.set, maps);
  auto it = st.hier_colourings.find(key);
  if (it != st.hier_colourings.end()) return it->second;

  const halo::SetLayout& lay = st.layout(rec.set);
  LIdxVec identity;
  const std::vector<mesh::ColourMapView> views =
      conflict_views(st, rec.set, maps, identity);
  const gpu::DeviceConfig& dc = st.world->config().device;
  // The shared-memory clamp sizes a block's staging footprint by the
  // widest dat row the mesh declares — conservative, and independent of
  // the particular loop so the (set, maps) cache key stays sufficient.
  int max_dim = 1;
  const mesh::MeshDef& mesh = st.world->mesh();
  for (mesh::dat_id d = 0; d < mesh.num_dats(); ++d)
    max_dim = std::max(max_dim, mesh.dat(d).dim);
  gpu::HierColouring h = gpu::hierarchical_colouring(
      lay.total, views, dc.block_elems, dc.shared_bytes, max_dim);
  return st.hier_colourings.emplace(key, std::move(h)).first->second;
}

/// The rank's cached dependency graph for `rec`'s conflict structure (the
/// maps through which the loop writes indirectly, plus an identity view
/// when a written dat is also accessed directly): the block-conflict DAG
/// of a block colouring at graph_block_elems granularity. Built on first
/// use, cached in RankState::loop_graphs.
LoopGraph& loop_graph(RankState& st, const LoopRecord& rec) {
  const std::vector<mesh::map_id> maps = conflict_maps(rec);
  const auto key = std::make_pair(rec.set, maps);
  auto it = st.loop_graphs.find(key);
  if (it != st.loop_graphs.end()) return it->second;

  const halo::SetLayout& lay = st.layout(rec.set);
  LIdxVec identity;
  const std::vector<mesh::ColourMapView> views =
      conflict_views(st, rec.set, maps, identity);
  const mesh::Colouring col = mesh::block_colouring(
      lay.total, views, graph_block_elems(lay.total));
  LoopGraph lg;
  lg.maps = maps;
  lg.graph = mesh::block_conflict_graph(lay.total, views, col);
  lg.writer_off.resize(views.size());
  lg.writer_blk.resize(views.size());
  return st.loop_graphs.emplace(key, std::move(lg)).first->second;
}

}  // namespace

const mesh::OrderingQuality& loop_quality(RankState& st,
                                          const LoopRecord& rec) {
  const auto it = st.loop_qualities.find(rec.name);
  if (it != st.loop_qualities.end()) return it->second;
  mesh::OrderingQuality q{};
  const halo::RankPlan& rp = st.rank_plan();
  mesh::map_id best = -1;
  int best_arity = 0;
  for (const ArgSpec& a : rec.spec.args)
    if (a.indirect && a.map >= 0) {
      const int ar = rp.maps[static_cast<std::size_t>(a.map)].arity;
      if (ar > best_arity) {
        best_arity = ar;
        best = a.map;
      }
    }
  if (best >= 0) {
    const halo::LocalMap& lm = rp.maps[static_cast<std::size_t>(best)];
    const mesh::MapDef& md = st.world->mesh().map(best);
    q = mesh::ordering_quality(
        lm.targets.data(), lm.arity, st.layout(rec.set).num_owned,
        rp.sets[static_cast<std::size_t>(md.to)].total);
  }
  return st.loop_qualities.emplace(rec.name, q).first->second;
}

namespace {

/// Compiles the block DAG restricted to [begin, end): dense task ids over
/// the intersecting blocks, a successor CSR oriented low colour -> high
/// colour (adjacent blocks always differ in colour), and in-range
/// indegrees — predecessors outside the range are excluded, since region
/// calls are already ordered sequentially on the rank thread. Cached per
/// (begin, end); a loop's region boundaries are stable across calls, so
/// steady-state epochs reuse the arrays untouched.
const LoopGraph::Compiled& compile_range(LoopGraph& lg, lidx_t begin,
                                         lidx_t end) {
  const auto key = std::make_pair(begin, end);
  auto it = lg.ranges.find(key);
  if (it != lg.ranges.end()) return it->second;

  const mesh::BlockGraph& g = lg.graph;
  const lidx_t B = g.block_elems;
  const lidx_t b0 = begin / B;
  const lidx_t b1 = std::min<lidx_t>(g.num_blocks, (end - 1) / B + 1);
  const auto T = static_cast<std::int32_t>(b1 - b0);
  LoopGraph::Compiled c;
  c.first_block = b0;
  c.num_tasks = T;
  c.succ_off.assign(static_cast<std::size_t>(T) + 1, 0);
  c.indeg.assign(static_cast<std::size_t>(T), 0);
  auto each_edge = [&](auto&& fn) {
    for (lidx_t b = b0; b < b1; ++b)
      for (std::size_t r = g.adj_off[static_cast<std::size_t>(b)];
           r < g.adj_off[static_cast<std::size_t>(b) + 1]; ++r) {
        const lidx_t nb = g.adj[r];
        if (nb < b0 || nb >= b1) continue;
        if (g.colour[static_cast<std::size_t>(b)] <
            g.colour[static_cast<std::size_t>(nb)])
          fn(static_cast<std::int32_t>(b - b0),
             static_cast<std::int32_t>(nb - b0));
      }
  };
  each_edge([&](std::int32_t t, std::int32_t nt) {
    ++c.succ_off[static_cast<std::size_t>(t) + 1];
    ++c.indeg[static_cast<std::size_t>(nt)];
  });
  for (std::int32_t t = 0; t < T; ++t)
    c.succ_off[static_cast<std::size_t>(t) + 1] +=
        c.succ_off[static_cast<std::size_t>(t)];
  c.succ.resize(static_cast<std::size_t>(c.succ_off[static_cast<std::size_t>(T)]));
  std::vector<std::int32_t> at(c.succ_off.begin(), c.succ_off.end() - 1);
  each_edge([&](std::int32_t t, std::int32_t nt) {
    c.succ[static_cast<std::size_t>(at[static_cast<std::size_t>(t)]++)] = nt;
  });
  return lg.ranges.emplace(key, std::move(c)).first->second;
}

/// Lazily builds view v's writer incidence: target row -> blocks holding
/// an element that maps onto it (ascending, unique per row). Walked when
/// a pack task's read rows must gate the blocks that overwrite them.
void build_writer_csr(RankState& st, LoopGraph& lg, std::size_t v,
                      mesh::map_id m) {
  if (!lg.writer_off[v].empty()) return;
  const halo::LocalMap& lm =
      st.rank_plan().maps[static_cast<std::size_t>(m)];
  const mesh::MapDef& md = st.world->mesh().map(m);
  const lidx_t ntgt =
      st.rank_plan().sets[static_cast<std::size_t>(md.to)].total;
  const lidx_t B = lg.graph.block_elems;
  const auto nelem = static_cast<lidx_t>(
      lm.targets.size() / static_cast<std::size_t>(lm.arity));
  auto& off = lg.writer_off[v];
  auto& blk = lg.writer_blk[v];
  off.assign(static_cast<std::size_t>(ntgt) + 1, 0);
  // Elements ascend, so each target sees its blocks in ascending order
  // and a last-seen array dedups adjacent repeats (count, then fill).
  LIdxVec last(static_cast<std::size_t>(ntgt), kInvalidLocal);
  auto each = [&](auto&& fn) {
    for (lidx_t e = 0; e < nelem; ++e) {
      const lidx_t b = e / B;
      for (int k = 0; k < lm.arity; ++k) {
        const lidx_t t =
            lm.targets[static_cast<std::size_t>(e) *
                           static_cast<std::size_t>(lm.arity) +
                       static_cast<std::size_t>(k)];
        if (t == kInvalidLocal) continue;
        if (last[static_cast<std::size_t>(t)] == b) continue;
        last[static_cast<std::size_t>(t)] = b;
        fn(t, b);
      }
    }
  };
  each([&](lidx_t t, lidx_t) { ++off[static_cast<std::size_t>(t) + 1]; });
  for (lidx_t t = 0; t < ntgt; ++t)
    off[static_cast<std::size_t>(t) + 1] += off[static_cast<std::size_t>(t)];
  blk.resize(static_cast<std::size_t>(off[static_cast<std::size_t>(ntgt)]));
  std::fill(last.begin(), last.end(), kInvalidLocal);
  std::vector<std::int32_t> at(off.begin(), off.end() - 1);
  each([&](lidx_t t, lidx_t b) {
    blk[static_cast<std::size_t>(at[static_cast<std::size_t>(t)]++)] =
        static_cast<std::int32_t>(b);
  });
}

/// Collects the in-range block-task ids that WRITE any row `pack` reads
/// (sorted, unique) and appends them to `out` — the pack's successor
/// list. Blocks that don't write a packed row never appear, which is the
/// whole point: they run concurrently with the pack.
void append_pack_successors(RankState& st, const LoopRecord& rec,
                            LoopGraph& lg, const PackTask& pack, lidx_t b0,
                            std::int32_t T, std::vector<std::int32_t>& out) {
  const lidx_t B = lg.graph.block_elems;
  std::vector<std::int32_t> blocks;
  auto add = [&](lidx_t wb) {
    if (wb >= b0 && wb < b0 + T)
      blocks.push_back(static_cast<std::int32_t>(wb - b0));
  };
  for (const PackTask::Read& rd : pack.reads) {
    for (const ArgSpec& a : rec.spec.args) {
      if (a.dat != rd.dat || !writes(a.mode)) continue;
      if (!a.indirect) {
        // A directly-written row's writer is its own block (direct writes
        // never conflict, so the identity view need not be in lg.maps).
        for (lidx_t r : *rd.rows) add(r / B);
        continue;
      }
      const auto vit = std::find(lg.maps.begin(), lg.maps.end(), a.map);
      OP2CA_REQUIRE(vit != lg.maps.end(),
                    "block graph: written map missing from conflict views");
      const auto v = static_cast<std::size_t>(vit - lg.maps.begin());
      build_writer_csr(st, lg, v, a.map);
      const auto& off = lg.writer_off[v];
      const auto& blk = lg.writer_blk[v];
      for (lidx_t r : *rd.rows)
        for (std::int32_t i = off[static_cast<std::size_t>(r)];
             i < off[static_cast<std::size_t>(r) + 1]; ++i)
          add(blk[static_cast<std::size_t>(i)]);
    }
  }
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  out.insert(out.end(), blocks.begin(), blocks.end());
}

/// One dependency-graph epoch over a compiled range: block tasks are ids
/// [0, T), pack tasks ride along as ids [T, T + P) — roots whose
/// successors are exactly the blocks writing their read rows. Block-block
/// edges are untouched by the packs, so per-cell write order (and hence
/// the result) is identical with and without staging folded in. With
/// `list` set (ascending, inside [begin, end)) each block task executes
/// that block's sub-slice of the list run-aware instead of the whole
/// block range; blocks the list skips are no-op tasks that still carry
/// their ordering edges.
std::int64_t run_graph_epoch(RankState& st, const LoopRecord& rec,
                             LoopGraph& lg, lidx_t begin, lidx_t end,
                             std::span<PackTask> packs,
                             const LIdxVec* list = nullptr) {
  const LoopGraph::Compiled& c = compile_range(lg, begin, end);
  const lidx_t B = lg.graph.block_elems;
  const lidx_t b0 = c.first_block;
  const std::int32_t T = c.num_tasks;
  const auto P = static_cast<std::int32_t>(packs.size());

  const std::int32_t* soff = c.succ_off.data();
  const std::int32_t* succ = c.succ.data();
  const std::int32_t* ind = c.indeg.data();
  std::vector<std::int32_t> xoff, xsucc, xind;
  if (P > 0) {
    xoff.assign(c.succ_off.begin(), c.succ_off.end());
    xsucc.assign(c.succ.begin(), c.succ.end());
    xind.assign(c.indeg.begin(), c.indeg.end());
    xind.resize(static_cast<std::size_t>(T + P), 0);
    for (std::int32_t p = 0; p < P; ++p) {
      const std::size_t before = xsucc.size();
      append_pack_successors(st, rec, lg, packs[static_cast<std::size_t>(p)],
                             b0, T, xsucc);
      for (std::size_t r = before; r < xsucc.size(); ++r)
        ++xind[static_cast<std::size_t>(xsucc[r])];
      xoff.push_back(static_cast<std::int32_t>(xsucc.size()));
    }
    soff = xoff.data();
    succ = xsucc.data();
    ind = xind.data();
  }

  std::atomic<std::int64_t> list_regions{0};
  const std::function<void(int)> body = [&](int t) {
    if (t >= T) {
      packs[static_cast<std::size_t>(t - T)].body();
      return;
    }
    const lidx_t b = b0 + static_cast<lidx_t>(t);
    const lidx_t lo = std::max(begin, b * B);
    const lidx_t hi = std::min(end, (b + 1) * B);
    if (list == nullptr) {
      rec.range_body(lo, hi);
      return;
    }
    const auto first = std::lower_bound(list->begin(), list->end(), lo);
    const auto last = std::lower_bound(first, list->end(), hi);
    if (first == last) return;
    list_regions += run_aware_span(rec, &*first,
                                   static_cast<std::size_t>(last - first));
  };
  util::GraphStats stats;
  st.pool->run_graph(T + P, soff, succ, ind, body, &stats);
  st.dispatch_tasks += stats.tasks;
  st.dispatch_steals += stats.steals;
  st.dispatch_dep_wait += stats.dep_wait_seconds;
  st.dispatch_regions += list == nullptr ? T : list_regions.load();
  st.dispatch_chunks += T + P;
  st.dispatch_max_colours =
      std::max(st.dispatch_max_colours, lg.graph.num_colours);
  return list == nullptr ? end - begin
                         : static_cast<std::int64_t>(list->size());
}

bool hier_device(const RankState& st) {
  return st.device != nullptr && st.device->config().hierarchical;
}

}  // namespace

std::int64_t run_range_tasks(RankState& st, const LoopRecord& rec,
                             lidx_t begin, lidx_t end,
                             std::span<PackTask> packs) {
  // serial_dispatch never creates a pool, so it falls back here too.
  if (st.pool == nullptr || has_gbl_inc(rec) ||
      !rec.spec.has_indirect_write() || hier_device(st) || end <= begin) {
    // Stage first, then run the region — packs read pre-loop values
    // either way.
    for (PackTask& p : packs) p.body();
    return run_range(st, rec, begin, end);
  }
  return run_graph_epoch(st, rec, loop_graph(st, rec), begin, end, packs);
}

std::int64_t run_range(RankState& st, const LoopRecord& rec, lidx_t begin,
                       lidx_t end) {
  if (end <= begin) return 0;
  if (st.serial_dispatch) {
    for (lidx_t i = begin; i < end; ++i) rec.range_body(i, i + 1);
    st.dispatch_regions += end - begin;
    return end - begin;
  }
  if (st.pool == nullptr || has_gbl_inc(rec)) {
    rec.range_body(begin, end);
    st.dispatch_regions += 1;
    return end - begin;
  }
  if (!rec.spec.has_indirect_write())
    return run_range_chunked(st, rec, begin, end);

  // Hierarchical device sweep (device mode): outer colours execute in
  // ascending order with a phase barrier; each phase launches its blocks
  // across the pool, every block running its inner-colour rounds
  // serially. Wins over the block graph — the device schedule is the
  // point of device mode.
  if (hier_device(st)) {
    const gpu::HierColouring& h = loop_hier(st, rec);
    st.dispatch_max_colours =
        std::max(st.dispatch_max_colours, h.blocks.num_colours);
    const lidx_t be = h.blocks.block_elems;
    LIdxVec phase;
    for (const LIdxVec& blocks : h.colour_blocks) {
      phase.clear();
      for (lidx_t b : blocks)
        if (b * be < end &&
            static_cast<lidx_t>(h.block_off[static_cast<std::size_t>(b) + 1]) >
                static_cast<lidx_t>(h.block_off[static_cast<std::size_t>(b)]) &&
            b * be + static_cast<lidx_t>(
                         h.block_off[static_cast<std::size_t>(b) + 1] -
                         h.block_off[static_cast<std::size_t>(b)]) > begin)
          phase.push_back(b);
      sweep_hier_colour(st, rec, h, phase, begin, end);
    }
    return end - begin;
  }

  return run_graph_epoch(st, rec, loop_graph(st, rec), begin, end, {});
}

std::int64_t run_list(RankState& st, const LoopRecord& rec,
                      const LIdxVec& idx) {
  if (idx.empty()) return 0;
  if (st.serial_dispatch) {
    for (lidx_t i : idx) rec.list_body(&i, 1);
    st.dispatch_regions += static_cast<std::int64_t>(idx.size());
    return static_cast<std::int64_t>(idx.size());
  }
  if (st.pool == nullptr || has_gbl_inc(rec)) {
    rec.list_body(idx.data(), idx.size());
    st.dispatch_regions += 1;
    return static_cast<std::int64_t>(idx.size());
  }
  if (!rec.spec.has_indirect_write())
    return run_list_chunked(st, rec, idx.data(), idx.size());

  // Exec-halo lists are sorted ascending (core/slice), so the list spans
  // [front, back] and each block owns a contiguous sub-slice of it.
  return run_graph_epoch(st, rec, loop_graph(st, rec), idx.front(),
                         idx.back() + 1, {}, &idx);
}

}  // namespace op2ca::core::detail
