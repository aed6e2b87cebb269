// Halo-plan construction invariants: layouts, layer nesting,
// import/export symmetry, local map completeness, dat gather/scatter and
// grouped message packing.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/halo/renumber.hpp"
#include "op2ca/mesh/annulus.hpp"
#include "op2ca/mesh/multigrid.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/partition/partition.hpp"

namespace op2ca::halo {
namespace {

struct Built {
  mesh::Quad2D q;
  partition::Partition part;
  HaloPlan plan;
};

Built build_quad(gidx_t nx, gidx_t ny, int nranks, int depth) {
  Built b{mesh::make_quad2d(nx, ny), {}, {}};
  b.part = partition::partition_mesh(b.q.mesh, nranks,
                                     partition::Kind::RIB, b.q.nodes);
  HaloPlanOptions opts;
  opts.depth = depth;
  b.plan = build_halo_plan(b.q.mesh, b.part, opts);
  return b;
}

TEST(HaloPlan, SingleRankHasNoHalos) {
  Built b = build_quad(6, 6, 1, 2);
  for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
    const SetLayout& lay = b.plan.layout(0, s);
    EXPECT_EQ(lay.num_owned, b.q.mesh.set(s).size);
    EXPECT_EQ(lay.total, lay.num_owned);
    EXPECT_EQ(lay.core_count(1), lay.num_owned);  // everything is core
    for (int din : lay.owned_din) EXPECT_EQ(din, SetLayout::kDinCap);
  }
  EXPECT_TRUE(b.plan.ranks[0].neighbors.empty());
}

TEST(HaloPlan, LayoutInvariants) {
  Built b = build_quad(12, 12, 4, 2);
  for (rank_t r = 0; r < 4; ++r) {
    for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
      const SetLayout& lay = b.plan.layout(r, s);
      // Segment bounds are monotone and consistent.
      EXPECT_EQ(lay.exec_end[0], lay.num_owned);
      for (size_t k = 1; k < lay.exec_end.size(); ++k)
        EXPECT_GE(lay.exec_end[k], lay.exec_end[k - 1]);
      EXPECT_EQ(lay.nonexec_end[0], lay.exec_end.back());
      for (size_t k = 1; k < lay.nonexec_end.size(); ++k)
        EXPECT_GE(lay.nonexec_end[k], lay.nonexec_end[k - 1]);
      EXPECT_EQ(lay.nonexec_end.back(), lay.total);
      EXPECT_EQ(static_cast<lidx_t>(lay.local_to_global.size()), lay.total);

      // Local ids map to distinct globals; owned ones are really owned.
      std::set<gidx_t> seen;
      for (lidx_t i = 0; i < lay.total; ++i) {
        const gidx_t g = lay.local_to_global[static_cast<size_t>(i)];
        EXPECT_TRUE(seen.insert(g).second);
        if (i < lay.num_owned)
          EXPECT_EQ(b.part.owner(s, g), r);
        else
          EXPECT_NE(b.part.owner(s, g), r);
      }

      // Owned ordering: din non-increasing; core_count consistent.
      for (size_t i = 1; i < lay.owned_din.size(); ++i)
        EXPECT_LE(lay.owned_din[i], lay.owned_din[i - 1]);
      for (int shrink = 0; shrink <= 3; ++shrink) {
        const lidx_t c = lay.core_count(shrink);
        for (lidx_t i = 0; i < c; ++i)
          EXPECT_GT(lay.owned_din[static_cast<size_t>(i)], shrink);
        if (c < lay.num_owned) {
          EXPECT_LE(lay.owned_din[static_cast<size_t>(c)], shrink);
        }
      }
    }
  }
}

TEST(HaloPlan, OwnedPartitionCoverage) {
  Built b = build_quad(10, 8, 3, 2);
  for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
    std::set<gidx_t> covered;
    for (rank_t r = 0; r < 3; ++r) {
      const SetLayout& lay = b.plan.layout(r, s);
      for (lidx_t i = 0; i < lay.num_owned; ++i)
        EXPECT_TRUE(
            covered.insert(lay.local_to_global[static_cast<size_t>(i)])
                .second);
    }
    EXPECT_EQ(static_cast<gidx_t>(covered.size()), b.q.mesh.set(s).size);
  }
}

TEST(HaloPlan, ImportExportSymmetry) {
  Built b = build_quad(14, 10, 5, 2);
  for (rank_t r = 0; r < 5; ++r) {
    const RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    for (mesh::set_id s = 0; s < b.q.mesh.num_sets(); ++s) {
      const NeighborLists& nl = rp.lists[static_cast<size_t>(s)];
      auto check = [&](const std::map<rank_t, std::vector<LIdxVec>>& imp,
                       bool exec) {
        for (const auto& [q, layers] : imp) {
          const NeighborLists& qnl =
              b.plan.ranks[static_cast<size_t>(q)]
                  .lists[static_cast<size_t>(s)];
          const auto& exp_tab = exec ? qnl.exp_exec : qnl.exp_nonexec;
          const auto it = exp_tab.find(r);
          ASSERT_NE(it, exp_tab.end());
          for (size_t k = 0; k < layers.size(); ++k) {
            ASSERT_EQ(layers[k].size(), it->second[k].size());
            // Element-wise: same global ids in the same order.
            const SetLayout& mine = b.plan.layout(r, s);
            const SetLayout& theirs = b.plan.layout(q, s);
            for (size_t i = 0; i < layers[k].size(); ++i) {
              const gidx_t g_imp =
                  mine.local_to_global[static_cast<size_t>(layers[k][i])];
              const gidx_t g_exp = theirs.local_to_global[
                  static_cast<size_t>(it->second[k][i])];
              EXPECT_EQ(g_imp, g_exp);
              EXPECT_EQ(b.part.owner(s, g_imp), q);
            }
          }
        }
      };
      check(nl.imp_exec, true);
      check(nl.imp_nonexec, false);
    }
  }
}

TEST(HaloPlan, ExecLayerTargetsPresentLocally) {
  // Every map row of an owned or import-exec element must resolve to a
  // local element (nonexec fringe guarantees closure).
  Built b = build_quad(9, 9, 4, 2);
  const mesh::MeshDef& m = b.q.mesh;
  for (rank_t r = 0; r < 4; ++r) {
    const RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    for (mesh::map_id mid = 0; mid < m.num_maps(); ++mid) {
      const mesh::MapDef& mp = m.map(mid);
      const SetLayout& from = rp.sets[static_cast<size_t>(mp.from)];
      const LocalMap& lm = rp.maps[static_cast<size_t>(mid)];
      const lidx_t exec_total = from.exec_end.back();
      for (lidx_t f = 0; f < exec_total; ++f)
        for (int k = 0; k < mp.arity; ++k)
          EXPECT_NE(lm.targets[static_cast<size_t>(f) *
                                   static_cast<size_t>(mp.arity) +
                               static_cast<size_t>(k)],
                    kInvalidLocal)
              << "map " << mp.name << " rank " << r << " row " << f;
    }
  }
}

TEST(HaloPlan, LocalMapsAgreeWithGlobal) {
  Built b = build_quad(8, 8, 3, 2);
  const mesh::MeshDef& m = b.q.mesh;
  for (rank_t r = 0; r < 3; ++r) {
    const RankPlan& rp = b.plan.ranks[static_cast<size_t>(r)];
    const mesh::MapDef& e2n = m.map(b.q.e2n);
    const SetLayout& edges = rp.sets[static_cast<size_t>(b.q.edges)];
    const SetLayout& nodes = rp.sets[static_cast<size_t>(b.q.nodes)];
    const LocalMap& lm = rp.maps[static_cast<size_t>(b.q.e2n)];
    for (lidx_t e = 0; e < edges.exec_end.back(); ++e) {
      const gidx_t ge = edges.local_to_global[static_cast<size_t>(e)];
      for (int k = 0; k < 2; ++k) {
        const lidx_t ln =
            lm.targets[static_cast<size_t>(2 * e + k)];
        ASSERT_NE(ln, kInvalidLocal);
        EXPECT_EQ(nodes.local_to_global[static_cast<size_t>(ln)],
                  e2n.targets[static_cast<size_t>(2 * ge + k)]);
      }
    }
  }
}

TEST(HaloPlan, DeeperPlanExtendsShallowerOne) {
  Built b1 = build_quad(12, 12, 4, 1);
  Built b2 = build_quad(12, 12, 4, 3);
  for (rank_t r = 0; r < 4; ++r) {
    for (mesh::set_id s = 0; s < b1.q.mesh.num_sets(); ++s) {
      const SetLayout& l1 = b1.plan.layout(r, s);
      const SetLayout& l2 = b2.plan.layout(r, s);
      EXPECT_EQ(l1.num_owned, l2.num_owned);
      // Exec layer 1 is identical.
      const auto [b1b, b1e] = l1.exec_layer(1);
      const auto [b2b, b2e] = l2.exec_layer(1);
      ASSERT_EQ(b1e - b1b, b2e - b2b);
      for (lidx_t i = 0; i < b1e - b1b; ++i)
        EXPECT_EQ(l1.local_to_global[static_cast<size_t>(b1b + i)],
                  l2.local_to_global[static_cast<size_t>(b2b + i)]);
    }
  }
}

TEST(HaloPlan, AnnulusPeriodicHalosExist) {
  mesh::Annulus an = mesh::make_annulus(4, 6, 10);
  const partition::Partition part = partition::partition_mesh(
      an.mesh, 6, partition::Kind::RIB, an.nodes);
  HaloPlanOptions opts;
  opts.depth = 2;
  const HaloPlan plan = build_halo_plan(an.mesh, part, opts);
  // At least one rank must import pedges (the periodic seam crosses
  // partition boundaries under RIB on an annular wedge).
  std::int64_t pedge_imports = 0;
  for (rank_t r = 0; r < 6; ++r) {
    const SetLayout& lay = plan.layout(r, an.pedges);
    pedge_imports += lay.exec_end.back() - lay.num_owned;
  }
  EXPECT_GT(pedge_imports, 0);
}

TEST(Renumber, GatherScatterRoundTrip) {
  Built b = build_quad(7, 5, 3, 2);
  const mesh::MeshDef& m = b.q.mesh;
  const gidx_t n = m.set(b.q.nodes).size;
  std::vector<double> global(static_cast<size_t>(2 * n));
  for (size_t i = 0; i < global.size(); ++i)
    global[i] = static_cast<double>(i) * 0.5;

  std::vector<double> out(global.size(), -1.0);
  for (rank_t r = 0; r < 3; ++r) {
    const SetLayout& lay = b.plan.layout(r, b.q.nodes);
    const std::vector<double> local = gather_local(global, 2, lay);
    scatter_owned(local, 2, lay, &out);
  }
  EXPECT_EQ(out, global);
}

TEST(Grouped, PackUnpackRows) {
  std::vector<double> src{0, 1, 2, 3, 4, 5, 6, 7};
  const LIdxVec idx{3, 1};
  op2ca::ByteBuf buf;
  pack_rows(src.data(), 2, idx, &buf);
  EXPECT_EQ(buf.size(), 2 * 2 * sizeof(double));

  std::vector<double> dst(8, 0.0);
  const size_t off = unpack_rows(dst.data(), 2, idx, buf, 0);
  EXPECT_EQ(off, buf.size());
  EXPECT_DOUBLE_EQ(dst[6], 6.0);
  EXPECT_DOUBLE_EQ(dst[7], 7.0);
  EXPECT_DOUBLE_EQ(dst[2], 2.0);
  EXPECT_DOUBLE_EQ(dst[3], 3.0);
  EXPECT_DOUBLE_EQ(dst[0], 0.0);
}

TEST(Grouped, MessageBytesMatchPackedSize) {
  Built b = build_quad(10, 10, 4, 2);
  const RankPlan& rp = b.plan.ranks[0];
  // One dat on nodes (dim 3) synced to depth 2.
  const SetLayout& lay = b.plan.layout(0, b.q.nodes);
  std::vector<double> data(static_cast<size_t>(lay.total) * 3, 1.0);
  DatSyncSpec spec;
  spec.set = b.q.nodes;
  spec.dim = 3;
  spec.depth = 2;
  spec.data = data.data();
  const auto bytes = grouped_message_bytes(rp, {&spec, 1});
  for (const auto& [q, n] : bytes) {
    const auto buf = pack_grouped(rp, q, {&spec, 1});
    EXPECT_EQ(static_cast<std::int64_t>(buf.size()), n);
  }
}

TEST(HaloPlan, PromotedElementsStayInLevelOneSyncLists) {
  // Regression test: on meshes where a set is both map source and target
  // (multigrid nodes), a nonexec-layer-1 element can be promoted to a
  // deeper exec layer. Every element READ by a layer-1 exec iteration
  // must still be covered by a level-1 exchange: it must be owned, in
  // exec layer 1, or listed in some level-1 import list (possibly as a
  // promotion alias pointing into the exec segment).
  mesh::MultigridHex mg = mesh::make_multigrid_hex(8, 8, 8, 2);
  const partition::Partition part = partition::partition_mesh(
      mg.mesh, 5, partition::Kind::KWay, mg.levels[0].nodes);
  HaloPlanOptions opts;
  opts.depth = 2;
  const HaloPlan plan = build_halo_plan(mg.mesh, part, opts);

  for (rank_t r = 0; r < 5; ++r) {
    const RankPlan& rp = plan.ranks[static_cast<size_t>(r)];
    // Collect all local indices deliverable by a level-1 exchange.
    std::vector<std::set<lidx_t>> level1(
        static_cast<size_t>(mg.mesh.num_sets()));
    for (mesh::set_id s = 0; s < mg.mesh.num_sets(); ++s) {
      const NeighborLists& nl = rp.lists[static_cast<size_t>(s)];
      for (const auto* tab : {&nl.imp_exec, &nl.imp_nonexec})
        for (const auto& [q, layers] : *tab)
          for (lidx_t i : layers[0])
            level1[static_cast<size_t>(s)].insert(i);
    }
    for (mesh::map_id m = 0; m < mg.mesh.num_maps(); ++m) {
      const mesh::MapDef& mp = mg.mesh.map(m);
      const SetLayout& flay = rp.sets[static_cast<size_t>(mp.from)];
      const SetLayout& tlay = rp.sets[static_cast<size_t>(mp.to)];
      const LocalMap& lm = rp.maps[static_cast<size_t>(m)];
      const auto [b, e] = flay.exec_layer(1);
      for (lidx_t f = b; f < e; ++f) {
        for (int k = 0; k < mp.arity; ++k) {
          const lidx_t t = lm.targets[static_cast<size_t>(f) *
                                          static_cast<size_t>(mp.arity) +
                                      static_cast<size_t>(k)];
          ASSERT_NE(t, kInvalidLocal);
          const bool covered =
              t < tlay.num_owned ||
              (t >= tlay.exec_end[0] && t < tlay.exec_end[1]) ||
              level1[static_cast<size_t>(mp.to)].count(t) != 0;
          EXPECT_TRUE(covered)
              << "rank " << r << " map " << mp.name << " layer-1 source "
              << f << " reads uncovered target " << t;
        }
      }
    }
  }
}

// FNV-1a over every field of a plan: layouts, the four neighbour-list
// maps, the local maps and the neighbour set. Sizes are hashed ahead of
// contents so that moving an element between adjacent lists changes the
// hash.
class PlanHasher {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    i64(static_cast<std::int64_t>(v.size()));
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  void lists(const std::map<rank_t, std::vector<LIdxVec>>& m) {
    i64(static_cast<std::int64_t>(m.size()));
    for (const auto& [q, layers] : m) {
      i64(q);
      i64(static_cast<std::int64_t>(layers.size()));
      for (const LIdxVec& l : layers) vec(l);
    }
  }
  void plan(const HaloPlan& p) {
    i64(p.nranks);
    i64(p.depth);
    i64(p.has_local_maps ? 1 : 0);
    for (const RankPlan& rp : p.ranks) {
      i64(static_cast<std::int64_t>(rp.sets.size()));
      for (const SetLayout& lay : rp.sets) {
        i64(lay.num_owned);
        vec(lay.exec_end);
        vec(lay.nonexec_end);
        i64(lay.total);
        vec(lay.local_to_global);
        vec(lay.owned_din);
      }
      for (const NeighborLists& nl : rp.lists) {
        lists(nl.exp_exec);
        lists(nl.exp_nonexec);
        lists(nl.imp_exec);
        lists(nl.imp_nonexec);
      }
      i64(static_cast<std::int64_t>(rp.maps.size()));
      for (const LocalMap& lm : rp.maps) {
        i64(lm.arity);
        vec(lm.targets);
      }
      i64(static_cast<std::int64_t>(rp.neighbors.size()));
      for (rank_t q : rp.neighbors) i64(q);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

TEST(HaloPlan, MatchesPinnedPlanHashes) {
  // Pinned from the hash-map builder that preceded the dense, rank-parallel
  // one, computed on a checkout of that commit: the dense build must
  // reproduce its plans bit for bit. nranks = 16 exceeds the worker count
  // of small hosts, so workers reuse their workspace across ranks. Order:
  // mesh {quad2d, annulus, multigrid} x nranks {1, 3, 4, 16} x depth
  // {1, 2, 3}. The k-way partitioner is integer-only, so the pinned
  // partitions do not depend on floating-point contraction (RIB's
  // projections may, under -march=native).
  static constexpr std::uint64_t kPinned[] = {
      0x52034e69d6a672f5ULL, 0x5ba90ee6a55879caULL, 0x72c7950a76d55a43ULL,
      0xf4d3b6e590867c11ULL, 0xbad2c063ef1d54ddULL, 0xfff0955e919e55b3ULL,
      0x7c34003877b1a60bULL, 0x3b87339512f1765ULL, 0xb90227778b8955ffULL,
      0xe78e3061e2f48a6dULL, 0x9c6dfd41a7770d11ULL, 0xdeb89d81fc1de9f9ULL,
      0x578d222f351e5d08ULL, 0xa6ea2a669211c3e3ULL, 0x3303447a151776e6ULL,
      0x2a56ba9f9fd404eaULL, 0x47ae95c445b79f74ULL, 0xea7ad51879a34083ULL,
      0xba3edee5c3728d66ULL, 0xe4c1ddcc3965258ULL, 0x61a2ef6ecfb3a809ULL,
      0x2eb1f7f4de76cfc3ULL, 0x717f172c385ed37dULL, 0x6ab06ac03fdb2695ULL,
      0x29a7ba86554c1939ULL, 0x6af77a733e7117d6ULL, 0x3c0799aafcbec833ULL,
      0xb94c08c1910e03b2ULL, 0xc6128a88b58c116cULL, 0x3d1938a0af9a3bf9ULL,
      0x4c61f11a3362d65bULL, 0x839dc1282fa35a43ULL, 0x91bbf42ae97ba4a6ULL,
      0x1a88992d4343cb3dULL, 0xe30b9d80269f7711ULL, 0x744aaa695e356ad5ULL,
  };
  const mesh::Quad2D q = mesh::make_quad2d(12, 10);
  const mesh::Annulus an = mesh::make_annulus(4, 6, 10);
  const mesh::MultigridHex mg = mesh::make_multigrid_hex(8, 8, 8, 3);
  const std::pair<const mesh::MeshDef*, mesh::set_id> inputs[] = {
      {&q.mesh, q.nodes}, {&an.mesh, an.nodes}, {&mg.mesh, mg.levels[0].nodes}};

  std::vector<std::uint64_t> got;
  for (const auto& [m, seed] : inputs) {
    for (int nranks : {1, 3, 4, 16}) {
      const partition::Partition part = partition::partition_mesh(
          *m, nranks, partition::Kind::KWay, seed);
      for (int depth : {1, 2, 3}) {
        HaloPlanOptions opts;
        opts.depth = depth;
        PlanHasher h;
        h.plan(build_halo_plan(*m, part, opts));
        got.push_back(h.value());
      }
    }
  }
  std::ostringstream table;
  for (std::uint64_t v : got) table << "      0x" << std::hex << v << "ULL,\n";
  ASSERT_EQ(got.size(), std::size(kPinned)) << table.str();
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i], kPinned[i]) << "case " << i << "; actual table:\n"
                                  << table.str();
}

TEST(Grouped, UnpackRejectsWrongSize) {
  Built b = build_quad(6, 6, 2, 1);
  const RankPlan& rp = b.plan.ranks[0];
  const SetLayout& lay = b.plan.layout(0, b.q.nodes);
  std::vector<double> data(static_cast<size_t>(lay.total), 0.0);
  DatSyncSpec spec{b.q.nodes, 1, 1, data.data()};
  ASSERT_FALSE(rp.neighbors.empty());
  const rank_t q = *rp.neighbors.begin();
  op2ca::ByteBuf bogus(3);  // not a multiple of a row
  EXPECT_THROW(unpack_grouped(rp, q, {&spec, 1}, bogus), Error);
}

}  // namespace
}  // namespace op2ca::halo
