// Halo plan construction.
//
// Per rank, a layered classification BFS over the global mesh assigns
// every element reachable from the owned region a class:
//
//   owned            -- partition assignment says so
//   exec layer k     -- foreign element whose forward map targets reach
//                       the region E_{k-1}; executing it redundantly
//                       updates data the rank needs (paper's ieh level k)
//   nonexec layer k  -- read-only fringe: map target of an owned (k = 1)
//                       or layer-k exec element, outside the region
//                       (paper's inh level k)
//
// E_k = owned u exec(<=k) u nonexec(<=k). A nonexec element later found
// to map into the region is promoted to exec at that layer (possible for
// sets that are both map sources and targets, e.g. cells).
//
// Owned elements are ordered by decreasing inward distance din (BFS from
// the partition boundary over symmetric adjacency), so shrinking cores
// are prefixes. Imports are ordered by (layer, global id); export lists
// on the owner mirror the importer's order exactly.
//
// Classes and inward distances live in dense arrays over each global set
// (one set per worker, reset after every rank), and the per-rank pass runs
// rank-parallel (rank_workers.hpp). Export registration stays serial, so
// the plan is bitwise-independent of the worker count.
#include <algorithm>
#include <limits>

#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/halo/rank_workers.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/mesh/adjacency.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/log.hpp"

namespace op2ca::halo {
namespace {

/// Classification code of an element outside the rank's region.
constexpr int kUnreached = std::numeric_limits<int>::min();

using ElemList = std::vector<std::pair<mesh::set_id, gidx_t>>;

struct GlobalContext {
  const mesh::MeshDef* mesh;
  const partition::Partition* part;
  std::vector<mesh::Csr> reverse;                 ///< per map id.
  std::vector<std::vector<GIdxVec>> owned;        ///< [rank][set] gids.
  /// Per-set map indices, so the per-element BFS loops do not scan every
  /// map of the mesh (the builder's hottest paths).
  std::vector<std::vector<mesh::map_id>> maps_from;  ///< [set].
  std::vector<std::vector<mesh::map_id>> maps_to;    ///< [set].
};

/// One worker's dense per-set state, sized to the global sets once (on
/// the calling thread) and returned to its reset state after each rank.
struct Workspace {
  /// cls[set][gid]: +k = exec layer k, -k = nonexec layer k,
  /// kUnreached = outside the region. An owned element holds 0, then
  /// (from compute_din_all on) its inward distance; 0 = not reached.
  std::vector<std::vector<int>> cls;
  /// imports[set]: every foreign element the rank classified, once each.
  std::vector<GIdxVec> imports;
  /// Elements promoted from nonexec layer k to a deeper exec layer, as
  /// aliases[set] = (k, gid). They keep an alias entry in the nonexec
  /// import/export lists at their original layer k: iterations of layer
  /// k read them, so a level-k halo exchange must still deliver their
  /// values even though their local slot lives in the exec segment.
  /// (Arises when a set is both map source and target, e.g. multigrid
  /// nodes reached first as a read fringe and later as redundant work.)
  std::vector<std::vector<std::pair<int, gidx_t>>> aliases;

  explicit Workspace(const mesh::MeshDef& mesh) {
    const auto nsets = static_cast<std::size_t>(mesh.num_sets());
    cls.resize(nsets);
    imports.resize(nsets);
    aliases.resize(nsets);
    for (mesh::set_id s = 0; s < mesh.num_sets(); ++s)
      cls[static_cast<std::size_t>(s)].assign(
          static_cast<std::size_t>(mesh.set(s).size), kUnreached);
  }

  /// Undoes one rank's writes: its region is exactly its local elements.
  void reset(const RankPlan& rp) {
    for (std::size_t s = 0; s < rp.sets.size(); ++s) {
      const SetLayout& lay = rp.sets[s];
      for (gidx_t g : lay.local_to_global)
        cls[s][static_cast<std::size_t>(g)] = kUnreached;
      imports[s].clear();
      aliases[s].clear();
    }
  }
};

/// Walks one rank's classification BFS up to `depth` layers into
/// ws->cls, ws->imports and ws->aliases.
void classify_rank(const GlobalContext& ctx, rank_t r, int depth,
                   Workspace* ws) {
  const mesh::MeshDef& mesh = *ctx.mesh;
  const int nsets = mesh.num_sets();
  auto& cls = ws->cls;

  const auto& owned = ctx.owned[static_cast<std::size_t>(r)];
  for (mesh::set_id s = 0; s < nsets; ++s)
    for (gidx_t g : owned[static_cast<std::size_t>(s)])
      cls[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)] = 0;

  ElemList frontier;  // the region's newest elements (owned at layer 1).
  for (int layer = 1; layer <= depth; ++layer) {
    ElemList next;

    // Phase 1: exec discovery. Any unclassified (or nonexec) element with
    // a forward map target in the frontier's region joins exec layer
    // `layer`. Reverse incidence of frontier elements enumerates exactly
    // those candidates.
    ElemList new_exec;
    auto discover_sources_of = [&](mesh::set_id ts, gidx_t tg) {
      for (mesh::map_id m : ctx.maps_to[static_cast<std::size_t>(ts)]) {
        const mesh::set_id fs = mesh.map(m).from;
        auto& fc = cls[static_cast<std::size_t>(fs)];
        for (gidx_t f : ctx.reverse[static_cast<std::size_t>(m)].row(tg)) {
          int& code = fc[static_cast<std::size_t>(f)];
          if (code == kUnreached) {
            code = layer;
            ws->imports[static_cast<std::size_t>(fs)].push_back(f);
            new_exec.emplace_back(fs, f);
          } else if (code < 0) {
            // Promote nonexec fringe element to exec at this layer,
            // remembering its original read layer for list aliasing.
            ws->aliases[static_cast<std::size_t>(fs)].emplace_back(-code, f);
            code = layer;
            new_exec.emplace_back(fs, f);
          }
        }
      }
    };
    if (layer == 1) {
      for (mesh::set_id s = 0; s < nsets; ++s)
        for (gidx_t g : owned[static_cast<std::size_t>(s)])
          discover_sources_of(s, g);
    }
    for (const auto& [ts, tg] : frontier) discover_sources_of(ts, tg);

    // Phase 2: nonexec fringe — unclassified targets of the new exec
    // elements (and, at layer 1, of all owned from-elements).
    auto add_targets_of = [&](mesh::set_id fs, gidx_t f) {
      for (mesh::map_id m : ctx.maps_from[static_cast<std::size_t>(fs)]) {
        const mesh::MapDef& mp = mesh.map(m);
        auto& tc = cls[static_cast<std::size_t>(mp.to)];
        for (int k = 0; k < mp.arity; ++k) {
          const gidx_t t =
              mp.targets[static_cast<std::size_t>(f * mp.arity + k)];
          int& code = tc[static_cast<std::size_t>(t)];
          if (code == kUnreached) {
            code = -layer;
            ws->imports[static_cast<std::size_t>(mp.to)].push_back(t);
            next.emplace_back(mp.to, t);
          }
        }
      }
    };
    if (layer == 1) {
      for (mesh::set_id s = 0; s < nsets; ++s)
        for (gidx_t g : owned[static_cast<std::size_t>(s)])
          add_targets_of(s, g);
    }
    for (const auto& [fs, f] : new_exec) add_targets_of(fs, f);

    next.insert(next.end(), new_exec.begin(), new_exec.end());
    frontier = std::move(next);
  }
}

/// Inward distances of one rank's owned elements into ws->cls, all sets
/// jointly (after classify_rank has listed the rank's imports): BFS from
/// the partition boundary over the bipartite element graph where one map
/// hop (source <-> target, either direction) is distance 1. These are
/// the units the CA inspector's core-shrink arithmetic uses: an indirect
/// access moves exactly one hop, a direct access zero.
void compute_din_all(const GlobalContext& ctx, Workspace* ws) {
  const mesh::MeshDef& mesh = *ctx.mesh;
  const int nsets = mesh.num_sets();
  auto& cls = ws->cls;

  // Symmetric neighbour visitor across all maps touching an element.
  auto for_each_neighbor = [&](mesh::set_id es, gidx_t eg, auto&& fn) {
    for (mesh::map_id m : ctx.maps_from[static_cast<std::size_t>(es)]) {
      const mesh::MapDef& mp = mesh.map(m);
      for (int k = 0; k < mp.arity; ++k)
        fn(mp.to,
           mp.targets[static_cast<std::size_t>(eg * mp.arity + k)]);
    }
    for (mesh::map_id m : ctx.maps_to[static_cast<std::size_t>(es)]) {
      const mesh::MapDef& mp = mesh.map(m);
      for (gidx_t f : ctx.reverse[static_cast<std::size_t>(m)].row(eg))
        fn(mp.from, f);
    }
  };

  // An owned element still holding 0 has not been reached: give it
  // distance d and queue it.
  ElemList frontier, next;
  auto reach = [&](mesh::set_id ns, gidx_t ng, int d) {
    int& code =
        cls[static_cast<std::size_t>(ns)][static_cast<std::size_t>(ng)];
    if (code == 0) {
      code = d;
      next.emplace_back(ns, ng);
    }
  };

  // Seed: owned elements adjacent to any foreign element have din = 1.
  // Every foreign neighbour of an owned element is a layer-1 import (a
  // map target of an owned element, or a source mapping into one), so
  // walking the imports' neighbours finds the seeds without visiting the
  // interior.
  for (mesh::set_id s = 0; s < nsets; ++s)
    for (gidx_t g : ws->imports[static_cast<std::size_t>(s)])
      for_each_neighbor(s, g, [&](mesh::set_id ns, gidx_t ng) {
        reach(ns, ng, 1);
      });

  for (int level = 1; !next.empty() && level < SetLayout::kDinCap;
       ++level) {
    std::swap(frontier, next);
    next.clear();
    for (const auto& [s, g] : frontier)
      for_each_neighbor(s, g, [&](mesh::set_id ns, gidx_t ng) {
        reach(ns, ng, level + 1);
      });
  }
}

/// Builds rank r's layouts and import lists from its classification, and
/// records the owner-local index of each of its owned elements (entries
/// no other rank writes).
void layout_rank(const GlobalContext& ctx, rank_t r, int depth, Workspace* ws,
                 std::vector<LIdxVec>* owned_local_idx, RankPlan* rp) {
  const partition::Partition& part = *ctx.part;
  const int nsets = ctx.mesh->num_sets();
  rp->sets.resize(static_cast<std::size_t>(nsets));
  rp->lists.resize(static_cast<std::size_t>(nsets));

  for (mesh::set_id s = 0; s < nsets; ++s) {
    SetLayout& lay = rp->sets[static_cast<std::size_t>(s)];
    NeighborLists& nl = rp->lists[static_cast<std::size_t>(s)];
    const std::vector<int>& cls = ws->cls[static_cast<std::size_t>(s)];

    // Owned ordering: din descending, global id ascending — a counting
    // sort on din, stable over the gid-ascending owned list. Bucket 0
    // holds the unreached (din = kDinCap), bucket 1 + max_din - d din d.
    const std::vector<int>& din = cls;  // owned entries hold din.
    const auto& mine = ctx.owned[static_cast<std::size_t>(r)]
                                [static_cast<std::size_t>(s)];
    int max_din = 0;
    for (gidx_t g : mine)
      max_din = std::max(max_din, din[static_cast<std::size_t>(g)]);
    auto bucket = [&](gidx_t g) {
      const int d = din[static_cast<std::size_t>(g)];
      return static_cast<std::size_t>(d == 0 ? 0 : 1 + max_din - d);
    };
    LIdxVec next_slot(static_cast<std::size_t>(max_din) + 2, 0);
    for (gidx_t g : mine) ++next_slot[bucket(g) + 1];
    for (std::size_t b = 1; b < next_slot.size(); ++b)
      next_slot[b] += next_slot[b - 1];

    GIdxVec& imports = ws->imports[static_cast<std::size_t>(s)];
    lay.num_owned = static_cast<lidx_t>(mine.size());
    lay.local_to_global.reserve(mine.size() + imports.size());
    lay.local_to_global.resize(mine.size());
    lay.owned_din.resize(mine.size());
    LIdxVec& owner_local = (*owned_local_idx)[static_cast<std::size_t>(s)];
    for (gidx_t g : mine) {
      const lidx_t i = next_slot[bucket(g)]++;
      const int d = din[static_cast<std::size_t>(g)];
      lay.local_to_global[static_cast<std::size_t>(i)] = g;
      lay.owned_din[static_cast<std::size_t>(i)] =
          d == 0 ? SetLayout::kDinCap : d;
      owner_local[static_cast<std::size_t>(g)] = i;
    }

    // Import layers: exec 1..depth then nonexec 1..depth, each in global
    // id order (one pass over the sorted imports buckets them in order);
    // per-neighbour sublists keep that order.
    std::sort(imports.begin(), imports.end());
    std::vector<GIdxVec> exec_by_layer(static_cast<std::size_t>(depth));
    std::vector<GIdxVec> nonexec_by_layer(static_cast<std::size_t>(depth));
    for (gidx_t g : imports) {
      const int code = cls[static_cast<std::size_t>(g)];
      if (code > 0)
        exec_by_layer[static_cast<std::size_t>(code - 1)].push_back(g);
      else
        nonexec_by_layer[static_cast<std::size_t>(-code - 1)].push_back(g);
    }

    auto add_to_list = [&](std::map<rank_t, std::vector<LIdxVec>>& imp,
                           int k, gidx_t g, lidx_t li) {
      auto& lists = imp[part.owner(s, g)];
      if (lists.empty()) lists.resize(static_cast<std::size_t>(depth));
      lists[static_cast<std::size_t>(k - 1)].push_back(li);
    };

    lay.exec_end.assign(static_cast<std::size_t>(depth) + 1,
                        lay.num_owned);
    for (int k = 1; k <= depth; ++k) {
      for (gidx_t g : exec_by_layer[static_cast<std::size_t>(k - 1)]) {
        add_to_list(nl.imp_exec, k, g,
                    static_cast<lidx_t>(lay.local_to_global.size()));
        lay.local_to_global.push_back(g);
      }
      lay.exec_end[static_cast<std::size_t>(k)] =
          static_cast<lidx_t>(lay.local_to_global.size());
    }

    // Promoted elements re-enter the nonexec lists at their original
    // read layer as aliases: same local slot (in the exec segment, found
    // by bisecting its gid-sorted exec layer), but delivered by any
    // exchange of that depth.
    auto& aliases = ws->aliases[static_cast<std::size_t>(s)];
    std::sort(aliases.begin(), aliases.end());
    auto alias = aliases.begin();

    lay.nonexec_end.assign(static_cast<std::size_t>(depth) + 1,
                           lay.exec_end[static_cast<std::size_t>(depth)]);
    for (int k = 1; k <= depth; ++k) {
      for (gidx_t g : nonexec_by_layer[static_cast<std::size_t>(k - 1)]) {
        add_to_list(nl.imp_nonexec, k, g,
                    static_cast<lidx_t>(lay.local_to_global.size()));
        lay.local_to_global.push_back(g);
      }
      for (; alias != aliases.end() && alias->first == k; ++alias) {
        const gidx_t g = alias->second;
        const auto [b, e] =
            lay.exec_layer(cls[static_cast<std::size_t>(g)]);
        const auto l2g = lay.local_to_global.begin();
        const auto it = std::lower_bound(l2g + b, l2g + e, g);
        OP2CA_ASSERT(it != l2g + e && *it == g,
                     "promoted element missing from exec imports");
        add_to_list(nl.imp_nonexec, k, g, static_cast<lidx_t>(it - l2g));
      }
      lay.nonexec_end[static_cast<std::size_t>(k)] =
          static_cast<lidx_t>(lay.local_to_global.size());
    }

    lay.total = static_cast<lidx_t>(lay.local_to_global.size());

    for (const auto* imp : {&nl.imp_exec, &nl.imp_nonexec}) {
      for (const auto& entry : *imp) {
        OP2CA_ASSERT(entry.first != r, "import from self");
        rp->neighbors.insert(entry.first);
      }
    }
  }
}

}  // namespace

HaloPlan build_halo_plan(const mesh::MeshDef& mesh,
                         const partition::Partition& part,
                         const HaloPlanOptions& options) {
  OP2CA_REQUIRE(options.depth >= 1, "halo depth must be >= 1");
  OP2CA_REQUIRE(part.nranks >= 1, "partition has no ranks");
  OP2CA_REQUIRE(static_cast<int>(part.assignment.size()) == mesh.num_sets(),
                "partition does not cover all sets");

  const int nsets = mesh.num_sets();
  const int depth = options.depth;

  GlobalContext ctx;
  ctx.mesh = &mesh;
  ctx.part = &part;
  ctx.reverse.reserve(static_cast<std::size_t>(mesh.num_maps()));
  ctx.maps_from.assign(static_cast<std::size_t>(nsets), {});
  ctx.maps_to.assign(static_cast<std::size_t>(nsets), {});
  for (mesh::map_id m = 0; m < mesh.num_maps(); ++m) {
    ctx.reverse.push_back(mesh::reverse_map(mesh, m));
    ctx.maps_from[static_cast<std::size_t>(mesh.map(m).from)].push_back(m);
    ctx.maps_to[static_cast<std::size_t>(mesh.map(m).to)].push_back(m);
  }

  ctx.owned.assign(static_cast<std::size_t>(part.nranks),
                   std::vector<GIdxVec>(static_cast<std::size_t>(nsets)));
  for (mesh::set_id s = 0; s < nsets; ++s) {
    const gidx_t n = mesh.set(s).size;
    for (gidx_t g = 0; g < n; ++g)
      ctx.owned[static_cast<std::size_t>(part.owner(s, g))]
          [static_cast<std::size_t>(s)]
              .push_back(g);
  }

  /// owned_local_idx[set][gid] = local index on the owning rank (filled
  /// as each rank's layout is finalized; used for export registration).
  std::vector<LIdxVec> owned_local_idx(static_cast<std::size_t>(nsets));
  for (mesh::set_id s = 0; s < nsets; ++s)
    owned_local_idx[static_cast<std::size_t>(s)].assign(
        static_cast<std::size_t>(mesh.set(s).size), kInvalidLocal);

  HaloPlan plan;
  plan.nranks = part.nranks;
  plan.depth = depth;
  plan.has_local_maps = options.build_local_maps;
  plan.ranks.resize(static_cast<std::size_t>(part.nranks));

  // Pass 1: per-rank classification, layouts and import lists, rank-
  // parallel. Each worker's workspace is allocated here, on the calling
  // thread, so it does not stay behind in a per-thread malloc arena.
  const int workers = detail::rank_workers(part.nranks);
  std::vector<Workspace> workspaces;
  workspaces.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) workspaces.emplace_back(mesh);
  detail::for_each_rank(part.nranks, workers, [&](int w, rank_t r) {
    Workspace& ws = workspaces[static_cast<std::size_t>(w)];
    RankPlan& rp = plan.ranks[static_cast<std::size_t>(r)];
    classify_rank(ctx, r, depth, &ws);
    compute_din_all(ctx, &ws);
    layout_rank(ctx, r, depth, &ws, &owned_local_idx, &rp);
    ws.reset(rp);
  });
  workspaces.clear();

  // Pass 2: export registration. Rank q's import list from owner r maps
  // one-to-one (same order) onto r's export list toward q.
  for (rank_t q = 0; q < part.nranks; ++q) {
    const RankPlan& qp = plan.ranks[static_cast<std::size_t>(q)];
    for (mesh::set_id s = 0; s < nsets; ++s) {
      const SetLayout& qlay = qp.sets[static_cast<std::size_t>(s)];
      const NeighborLists& qnl = qp.lists[static_cast<std::size_t>(s)];

      auto register_exports = [&](const std::map<rank_t,
                                                 std::vector<LIdxVec>>& imp,
                                  bool exec) {
        for (const auto& [owner, layers] : imp) {
          RankPlan& op = plan.ranks[static_cast<std::size_t>(owner)];
          NeighborLists& onl = op.lists[static_cast<std::size_t>(s)];
          auto& exp = exec ? onl.exp_exec[q] : onl.exp_nonexec[q];
          if (exp.empty()) exp.resize(static_cast<std::size_t>(depth));
          op.neighbors.insert(q);
          for (int k = 0; k < depth; ++k) {
            for (lidx_t li : layers[static_cast<std::size_t>(k)]) {
              const gidx_t g =
                  qlay.local_to_global[static_cast<std::size_t>(li)];
              const lidx_t owner_local =
                  owned_local_idx[static_cast<std::size_t>(s)]
                                 [static_cast<std::size_t>(g)];
              OP2CA_ASSERT(owner_local != kInvalidLocal,
                           "imported element has no owner-local index");
              exp[static_cast<std::size_t>(k)].push_back(owner_local);
            }
          }
        }
      };
      register_exports(qnl.imp_exec, /*exec=*/true);
      register_exports(qnl.imp_nonexec, /*exec=*/false);
    }
  }

  // Pass 3: localized maps (optional).
  if (options.build_local_maps) build_local_maps(mesh, &plan);

  return plan;
}

}  // namespace op2ca::halo
