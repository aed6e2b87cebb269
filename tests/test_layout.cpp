// Property suite for the SIMD data plane (mesh/layout + the layout-aware
// halo pack): descriptor invariants, transpose round-trips, SoA plane
// padding, aligned storage, wire-format equality between the reference and
// plan-driven grouped packs, and the rank<->global boundary transposes.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/mesh/hex3d.hpp"
#include "op2ca/mesh/layout.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/partition/partition.hpp"
#include "op2ca/util/aligned.hpp"
#include "op2ca/util/error.hpp"
#include "op2ca/util/rng.hpp"

namespace op2ca {
namespace {

using mesh::DatLayout;
using mesh::LayoutKind;

std::vector<double> random_rows(lidx_t elems, int dim, std::uint64_t seed) {
  std::vector<double> rows(static_cast<std::size_t>(elems) *
                           static_cast<std::size_t>(dim));
  Rng rng(seed);
  for (auto& v : rows) v = rng.next_range(-2.0, 2.0);
  return rows;
}

TEST(DatLayout, AosIsLegacyRowMajor) {
  const DatLayout lay = DatLayout::make(LayoutKind::AoS, 5, 37);
  EXPECT_EQ(lay.padded, 37);
  EXPECT_EQ(lay.estride, 5);
  EXPECT_EQ(lay.cstride, 1);
  EXPECT_EQ(lay.alloc_doubles(), 37u * 5u);
  for (lidx_t i = 0; i < 37; ++i)
    for (int c = 0; c < 5; ++c)
      EXPECT_EQ(lay.offset(i, c),
                static_cast<std::size_t>(i) * 5 + static_cast<std::size_t>(c));
}

TEST(DatLayout, SoaComponentPlanesAreUnitStride) {
  const DatLayout lay = DatLayout::make(LayoutKind::SoA, 3, 37);
  EXPECT_GE(lay.padded, 37);
  EXPECT_EQ(lay.padded % 8, 0) << "planes must start cache-aligned";
  EXPECT_EQ(lay.estride, 1);
  EXPECT_EQ(lay.cstride, lay.padded);
  for (lidx_t i = 0; i + 1 < 37; ++i)
    for (int c = 0; c < 3; ++c)
      EXPECT_EQ(lay.offset(i + 1, c), lay.offset(i, c) + 1)
          << "component " << c << " not unit-stride at " << i;
}

TEST(DatLayout, OffsetsAreABijectionIntoAllocation) {
  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA}) {
    const DatLayout lay = DatLayout::make(kind, 3, 29);
    std::set<std::size_t> seen;
    for (lidx_t i = 0; i < 29; ++i) {
      for (int c = 0; c < 3; ++c) {
        const std::size_t off = lay.offset(i, c);
        EXPECT_LT(off, lay.alloc_doubles());
        EXPECT_TRUE(seen.insert(off).second)
            << "collision at (" << i << "," << c << ") under "
            << mesh::layout_name(kind);
      }
    }
  }
}

TEST(DatLayout, RoundTripTranspose) {
  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA}) {
    for (const lidx_t elems : {0, 1, 7, 8, 64, 129}) {
      const DatLayout lay = DatLayout::make(kind, 4, elems);
      const std::vector<double> rows = random_rows(elems, 4, 11);
      std::vector<double> store(lay.alloc_doubles(), -1.0);
      mesh::to_layout(rows.data(), lay, store.data());
      std::vector<double> back(rows.size(), 0.0);
      mesh::from_layout(store.data(), lay, back.data());
      EXPECT_EQ(rows, back) << mesh::layout_name(kind) << " " << elems;
    }
  }
}

TEST(DatLayout, PaddingIsZeroFilled) {
  // 13 elements pad each SoA plane to 16 slots.
  const DatLayout lay = DatLayout::make(LayoutKind::SoA, 2, 13);
  EXPECT_EQ(lay.padded, 16);
  const std::vector<double> rows = random_rows(13, 2, 12);
  std::vector<double> store(lay.alloc_doubles(), -7.0);
  mesh::to_layout(rows.data(), lay, store.data());
  // Everything not addressed by a valid (i, c) must be exactly zero.
  std::set<std::size_t> valid;
  for (lidx_t i = 0; i < 13; ++i)
    for (int c = 0; c < 2; ++c) valid.insert(lay.offset(i, c));
  for (std::size_t off = 0; off < store.size(); ++off) {
    if (valid.count(off) == 0) {
      EXPECT_EQ(store[off], 0.0) << off;
    }
  }
}

TEST(DatLayout, NamesRoundTrip) {
  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA})
    EXPECT_EQ(mesh::layout_by_name(mesh::layout_name(kind)), kind);
  EXPECT_THROW(mesh::layout_by_name("rows"), Error);
}

TEST(LayoutConfig, ResolvePrecedence) {
  mesh::LayoutConfig cfg;
  EXPECT_FALSE(cfg.enabled());  // default config is pure AoS
  cfg.per_set["nodes"] = LayoutKind::SoA;
  cfg.per_dat["d3"] = LayoutKind::AoS;
  EXPECT_TRUE(cfg.enabled());
  EXPECT_EQ(cfg.resolve("nodes", "d3"), LayoutKind::AoS);  // per-dat wins
  EXPECT_EQ(cfg.resolve("nodes", "q"), LayoutKind::SoA);   // per-set next
  EXPECT_EQ(cfg.resolve("cells", "q"), LayoutKind::AoS);   // then default
}

// -- Layout-aware halo pack. --------------------------------------------

TEST(GatherRegion, NullAndAosDescriptorsMatchLegacyRows) {
  const lidx_t elems = 40;
  const int dim = 3;
  const DatLayout aos = DatLayout::make(LayoutKind::AoS, dim, elems);
  const std::vector<double> rows = random_rows(elems, dim, 21);
  const LIdxVec idx = {3, 17, 0, 39, 8, 8};

  ByteBuf legacy;
  halo::pack_rows(rows.data(), dim, idx, &legacy);
  ByteBuf with_null(legacy.size()), with_aos(legacy.size());
  halo::gather_region(rows.data(), nullptr, dim, idx, with_null.data());
  halo::gather_region(rows.data(), &aos, dim, idx, with_aos.data());
  EXPECT_EQ(legacy, with_null);
  EXPECT_EQ(legacy, with_aos);
}

TEST(GatherRegion, UnpackInvertsGatherUnderEveryLayout) {
  const lidx_t elems = 53;
  const int dim = 4;
  const LIdxVec idx = {0, 52, 13, 27, 5, 40, 41};
  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA}) {
    const DatLayout lay = DatLayout::make(kind, dim, elems);
    const std::vector<double> rows = random_rows(elems, dim, 31);
    std::vector<double> store(lay.alloc_doubles());
    mesh::to_layout(rows.data(), lay, store.data());

    ByteBuf wire(idx.size() * static_cast<std::size_t>(dim) *
                 sizeof(double));
    halo::gather_region(store.data(), &lay, dim, idx, wire.data());

    std::vector<double> dest(lay.alloc_doubles(), 0.0);
    const std::size_t used =
        halo::unpack_region(dest.data(), &lay, dim, idx, wire, 0);
    EXPECT_EQ(used, wire.size());
    for (const lidx_t i : idx)
      for (int c = 0; c < dim; ++c)
        EXPECT_EQ(dest[lay.offset(i, c)], store[lay.offset(i, c)])
            << mesh::layout_name(kind) << " (" << i << "," << c << ")";
  }
}

TEST(GroupedPack, ReferenceMatchesPlanUnderEveryLayout) {
  // The CA executor packs through the flattened GroupedPlan while the
  // reference walk drives the same wire format from the neighbour
  // lists; both must agree byte-for-byte under every layout (under AoS
  // this is also the legacy wire, proven by the null-descriptor case of
  // the gather test above).
  mesh::Quad2D q = mesh::make_quad2d(32, 32);
  const partition::Partition part =
      partition::partition_mesh(q.mesh, 4, partition::Kind::RIB, q.nodes);
  halo::HaloPlanOptions opts;
  opts.depth = 2;
  const halo::HaloPlan plan = build_halo_plan(q.mesh, part, opts);
  const halo::RankPlan& rp = plan.ranks[0];
  const halo::SetLayout& nl = plan.layout(0, q.nodes);
  const halo::SetLayout& cl = plan.layout(0, q.cells);

  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA}) {
    const DatLayout nlay = DatLayout::make(kind, 5, nl.total);
    const DatLayout clay = DatLayout::make(kind, 2, cl.total);
    const std::vector<double> nrows = random_rows(nl.total, 5, 41);
    const std::vector<double> crows = random_rows(cl.total, 2, 42);
    std::vector<double> nstore(nlay.alloc_doubles());
    std::vector<double> cstore(clay.alloc_doubles());
    mesh::to_layout(nrows.data(), nlay, nstore.data());
    mesh::to_layout(crows.data(), clay, cstore.data());
    std::vector<halo::DatSyncSpec> specs = {
        {q.nodes, 5, 2, nstore.data(), &nlay},
        {q.cells, 2, 1, cstore.data(), &clay}};
    const halo::GroupedPlan gp = halo::build_grouped_plan(rp, specs);
    for (const halo::GroupedPlan::Side& side : gp.sides) {
      if (side.send_bytes == 0) continue;
      const ByteBuf reference = halo::pack_grouped(rp, side.q, specs);
      ByteBuf planned(side.send_bytes);
      halo::pack_grouped(side, specs, planned.data());
      EXPECT_EQ(reference, planned)
          << mesh::layout_name(kind) << " -> rank " << side.q;
    }
  }
}

// -- Rank<->global boundary. --------------------------------------------

core::WorldConfig layout_world_cfg(LayoutKind kind) {
  core::WorldConfig cfg;
  cfg.nranks = 3;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.layout.kind = kind;
  return cfg;
}

TEST(WorldLayout, FetchDatRoundTripsAcrossLayouts) {
  // Build a world, run nothing: fetch_dat must reproduce the global
  // arrays exactly through gather_local -> scatter_owned, whatever the
  // rank storage layout (17^3 nodes: rank-local counts are not
  // cache-line multiples, so padded SoA planes are exercised).
  mesh::Hex3D h = mesh::make_hex3d(17, 17, 17);
  const gidx_t n = h.mesh.set(h.nodes).size;
  std::vector<double> init(static_cast<std::size_t>(n) * 3);
  Rng rng(51);
  for (auto& v : init) v = rng.next_range(-1.0, 1.0);
  const mesh::dat_id d3 = h.mesh.add_dat("d3", h.nodes, 3, init);

  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA}) {
    core::World w(h.mesh, layout_world_cfg(kind));
    w.run([](core::Runtime&) {});
    EXPECT_EQ(w.fetch_dat(d3), init) << mesh::layout_name(kind);
  }
}

TEST(WorldLayout, RankStorageAlignedAndDescribed) {
  mesh::Hex3D h = mesh::make_hex3d(9, 9, 9);
  h.mesh.add_dat("d2", h.nodes, 2);

  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA}) {
    core::World w(h.mesh, layout_world_cfg(kind));
    w.run([&](core::Runtime& rt) {
      const core::Dat d = rt.dat("d2");
      const mesh::DatLayout& lay = rt.dat_layout(d);
      EXPECT_EQ(lay.kind, kind);
      EXPECT_EQ(lay.dim, 2);
      EXPECT_EQ(lay.elems, rt.layout(rt.set("nodes")).total);
      EXPECT_TRUE(util::cache_aligned(rt.dat_data(d)));
    });
  }
}

// -- Exact halo contents after an exchange. ------------------------------
//
// In the distributed-ranges style: every owned element is set to a known
// function of its global id, an exchange runs, and then every halo slot
// the exchange refreshes must hold exactly its owner's value — checked
// directly in the rank's array, under every layout, executor and
// transport the wire and addressing code serve.

double owner_value(gidx_t g, int c) { return 1000.0 + 4.0 * g + c; }

/// One HaloContents configuration. With `ca` the probe pair runs as the
/// CA chain "halo_probe" (grouped exchange of every layer); otherwise on
/// per-loop OP2, which refreshes layer 1. `tile` > 1 runs the chain that
/// many times back to back as one fused window; `lazy` drops the chain
/// brackets and lets the lazy queue form the chain itself.
struct HaloCase {
  LayoutKind kind = LayoutKind::AoS;
  bool ca = false;
  bool persistent = false;
  int threads = 1;
  int tile = 1;
  bool lazy = false;

  int layers() const { return ca || lazy ? 2 : 1; }
  std::string name() const {
    return std::string(mesh::layout_name(kind)) + (ca ? " CA" : " OP2") +
           (persistent ? " persistent" : "") + " threads " +
           std::to_string(threads) + " tile " + std::to_string(tile) +
           (lazy ? " lazy" : "");
  }
};

/// Dirties dat "q" (dim 3 on nodes) with owned values owner_value(gid),
/// runs the two-loop probe chain reading it through e2n, and returns per
/// rank the count of wrong values in halo layers 1..hc.layers() (-1 when
/// a rank checked nothing). `chains` receives the World's chain rows.
std::vector<std::int64_t> halo_errors(
    const HaloCase& hc,
    std::map<std::string, core::LoopMetrics>* chains = nullptr) {
  mesh::Quad2D m = mesh::make_quad2d(24, 24);
  const gidx_t n = m.mesh.set(m.nodes).size;
  std::vector<double> gid(static_cast<std::size_t>(n));
  for (gidx_t g = 0; g < n; ++g) gid[static_cast<std::size_t>(g)] = g;
  m.mesh.add_dat("gid", m.nodes, 1, gid);
  // Stale halo copies start at -1, so a slot the exchange missed shows.
  m.mesh.add_dat("q", m.nodes, 3,
                 std::vector<double>(static_cast<std::size_t>(n) * 3, -1.0));
  m.mesh.add_dat("r", m.nodes, 1);
  m.mesh.add_dat("e", m.edges, 1);
  core::WorldConfig cfg = layout_world_cfg(hc.kind);
  cfg.nranks = 4;
  cfg.transport.persistent = hc.persistent;
  cfg.threads_per_rank = hc.threads;
  cfg.tile = hc.tile;
  cfg.lazy = hc.lazy;
  if (hc.ca) cfg.chains.enable("halo_probe");
  core::World w(m.mesh, cfg);

  std::vector<std::int64_t> wrong(4, -1);
  w.run([&](core::Runtime& rt) {
    const core::Set nodes = rt.set("nodes");
    const core::Map e2n = rt.map("e2n");
    const core::Dat q = rt.dat("q");
    const core::Dat r = rt.dat("r");
    // Kernels index through stride-aware views (auto): under SoA a raw
    // double* would not reach component 1.
    rt.par_loop(
        "set_owned", nodes,
        [](auto qv, auto g) {
          for (int c = 0; c < 3; ++c)
            qv[c] = owner_value(static_cast<gidx_t>(g[0]), c);
        },
        core::arg_dat(q, core::Access::WRITE),
        core::arg_dat(rt.dat("gid"), core::Access::READ));
    // Lazy: flush the writer alone, so the probe pair forms the chain
    // and q's halo reaches it by exchange, not by redundant set_owned.
    if (hc.lazy) rt.barrier();
    // probe_read reads what probe_inc wrote through the map, so under CA
    // probe_inc runs over halo edges and needs q at every layer.
    for (int t = 0; t < hc.tile; ++t) {
      if (!hc.lazy) rt.chain_begin("halo_probe");
      rt.par_loop(
          "probe_inc", rt.set("edges"),
          [](auto a, auto b, auto ra, auto rb) {
            ra[0] += a[1];
            rb[0] += b[2];
          },
          core::arg_dat(q, 0, e2n, core::Access::READ),
          core::arg_dat(q, 1, e2n, core::Access::READ),
          core::arg_dat(r, 0, e2n, core::Access::INC),
          core::arg_dat(r, 1, e2n, core::Access::INC));
      rt.par_loop(
          "probe_read", rt.set("edges"),
          [](auto a, auto b, auto e) { e[0] = a[0] - b[0]; },
          core::arg_dat(r, 0, e2n, core::Access::READ),
          core::arg_dat(r, 1, e2n, core::Access::READ),
          core::arg_dat(rt.dat("e"), core::Access::WRITE));
      if (!hc.lazy) rt.chain_end();
    }

    const halo::SetLayout& sl = rt.layout(nodes);
    const mesh::DatLayout& lay = rt.dat_layout(q);
    const double* data = rt.dat_data(q);  // flushes tiles and lazy loops
    std::int64_t checked = 0, bad = 0;
    for (int k = 1; k <= hc.layers(); ++k)
      for (const auto& [b, e] : {sl.exec_layer(k), sl.nonexec_layer(k)})
        for (lidx_t i = b; i < e; ++i)
          for (int c = 0; c < 3; ++c, ++checked)
            bad += data[lay.offset(i, c)] !=
                   owner_value(sl.local_to_global[static_cast<std::size_t>(i)],
                               c);
    wrong[static_cast<std::size_t>(rt.rank())] = checked > 0 ? bad : -1;
  });
  if (chains != nullptr) *chains = w.chain_metrics();
  return wrong;
}

TEST(HaloContents, EveryHaloSlotHoldsItsOwnersValue) {
  const std::vector<std::int64_t> none(4, 0);
  for (const LayoutKind kind : {LayoutKind::AoS, LayoutKind::SoA})
    for (const bool ca : {false, true})
      for (const bool persistent : {false, true})
        // Width 2 folds the packs into the block graph as root tasks.
        for (const int threads : {1, 2}) {
          const HaloCase hc{kind, ca, persistent, threads};
          EXPECT_EQ(halo_errors(hc), none) << hc.name();
        }
  for (const int threads : {1, 2}) {
    std::map<std::string, core::LoopMetrics> chains;
    // A fused window of two chain invocations: one grouped exchange.
    const HaloCase tiled{LayoutKind::AoS, true, false, threads, 2};
    EXPECT_EQ(halo_errors(tiled, &chains), none) << tiled.name();
    ASSERT_TRUE(chains.count("halo_probe")) << tiled.name();
    EXPECT_EQ(chains.at("halo_probe").tile, 2) << tiled.name();
    // The probe pair without brackets: the lazy queue forms the chain.
    const HaloCase lazy{LayoutKind::AoS, false, false, threads, 1, true};
    EXPECT_EQ(halo_errors(lazy, &chains), none) << lazy.name();
    ASSERT_EQ(chains.size(), 1u) << lazy.name();
    EXPECT_EQ(chains.begin()->first.rfind("lazy:", 0), 0u) << lazy.name();
  }
}

}  // namespace
}  // namespace op2ca
