// End-to-end tests of the baseline (Alg 1) runtime: SPMD execution over
// rank threads, halo exchanges driven by dirty bits, owner-compute
// redundant execution, global reductions, and agreement with single-rank
// sequential execution.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <type_traits>
#include <variant>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/core/runtime_detail.hpp"
#include "op2ca/mesh/quad2d.hpp"
#include "op2ca/util/error.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

/// Small 2D problem with the Fig-3 style dats.
struct QuadProblem {
  mesh::Quad2D q;
  mesh::dat_id res = -1, pres = -1, flux = -1, cw = -1;
};

QuadProblem make_quad_problem(gidx_t nx, gidx_t ny) {
  QuadProblem p{mesh::make_quad2d(nx, ny), -1, -1, -1, -1};
  mesh::MeshDef& m = p.q.mesh;
  const auto nn = static_cast<std::size_t>(m.set(p.q.nodes).size);
  const auto nc = static_cast<std::size_t>(m.set(p.q.cells).size);
  std::vector<double> pres(nn * 2), cw(nc * 4);
  for (std::size_t i = 0; i < pres.size(); ++i)
    pres[i] = 0.5 + 0.001 * static_cast<double>(i % 97);
  for (std::size_t i = 0; i < cw.size(); ++i)
    cw[i] = -0.25 + 0.002 * static_cast<double>(i % 53);
  p.res = m.add_dat("res", p.q.nodes, 2);
  p.pres = m.add_dat("pres", p.q.nodes, 2, std::move(pres));
  p.flux = m.add_dat("flux", p.q.nodes, 2);
  p.cw = m.add_dat("cw", p.q.cells, 4, std::move(cw));
  return p;
}

/// The two loops of Fig 3 (update over edges INCs res from pres reads;
/// edge_flux INCs flux from res and cell-weight reads).
void fig3_kernel_update(double* r1, double* r2, const double* p1,
                        const double* p2) {
  r1[0] += p1[0] - p1[1];
  r1[1] += p2[0] - p2[1];
  r2[0] += p2[1] - p2[0];
  r2[1] += p1[1] - p1[0];
}

void fig3_kernel_flux(double* f1, double* f2, const double* r1,
                      const double* r2, const double* c1,
                      const double* c2) {
  f1[0] += r1[0] * c1[0] - r1[1] * c1[1];
  f1[1] += r2[1] * c1[2] - r2[0] * c1[3];
  f2[0] += r2[1] * c2[2] - r1[1] * c2[3];
  f2[1] += r1[0] * c2[0] - r1[1] * c2[1];
}

void run_fig3_loops(Runtime& rt, int timesteps) {
  const Set edges = rt.set("edges");
  const Dat res = rt.dat("res"), pres = rt.dat("pres"),
            flux = rt.dat("flux"), cw = rt.dat("cw");
  const Map e2n = rt.map("e2n"), e2c = rt.map("e2c");
  for (int t = 0; t < timesteps; ++t) {
    rt.par_loop("update", edges, fig3_kernel_update,
                arg_dat(res, 0, e2n, Access::INC),
                arg_dat(res, 1, e2n, Access::INC),
                arg_dat(pres, 0, e2n, Access::READ),
                arg_dat(pres, 1, e2n, Access::READ));
    rt.par_loop("edge_flux", edges, fig3_kernel_flux,
                arg_dat(flux, 0, e2n, Access::INC),
                arg_dat(flux, 1, e2n, Access::INC),
                arg_dat(res, 0, e2n, Access::READ),
                arg_dat(res, 1, e2n, Access::READ),
                arg_dat(cw, 0, e2c, Access::READ),
                arg_dat(cw, 1, e2c, Access::READ));
  }
}

WorldConfig config_for(int nranks, partition::Kind kind, int depth = 2) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = kind;
  cfg.halo_depth = depth;
  cfg.validate = true;
  return cfg;
}

TEST(RuntimeOp2, MatchesSerialOnFig3Loops) {
  QuadProblem serial_p = make_quad_problem(14, 11);
  QuadProblem par_p = make_quad_problem(14, 11);

  World serial(std::move(serial_p.q.mesh),
               config_for(1, partition::Kind::Block));
  serial.run([](Runtime& rt) { run_fig3_loops(rt, 3); });

  World par(std::move(par_p.q.mesh), config_for(5, partition::Kind::KWay));
  par.run([](Runtime& rt) { run_fig3_loops(rt, 3); });

  expect_allclose(serial.fetch_dat(serial_p.res),
                  par.fetch_dat(par_p.res));
  expect_allclose(serial.fetch_dat(serial_p.flux),
                  par.fetch_dat(par_p.flux));
}

TEST(RuntimeOp2, AllPartitionersAgree) {
  std::vector<double> reference;
  for (partition::Kind kind :
       {partition::Kind::Block, partition::Kind::RIB,
        partition::Kind::KWay}) {
    QuadProblem p = make_quad_problem(10, 10);
    World w(std::move(p.q.mesh), config_for(4, kind));
    w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
    const auto flux = w.fetch_dat(p.flux);
    if (reference.empty())
      reference = flux;
    else
      expect_allclose(reference, flux);
  }
}

TEST(RuntimeOp2, DirtyBitsSkipCleanExchanges) {
  QuadProblem p = make_quad_problem(12, 12);
  const mesh::dat_id pres_id = p.pres;
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([&](Runtime& rt) {
    const Set edges = rt.set("edges");
    const Dat res = rt.dat("res"), pres = rt.dat("pres");
    const Map e2n = rt.map("e2n");
    // Two identical read-only-pres loops: pres halo is fresh at start
    // (gathered at setup), so NO exchange should ever happen for it.
    for (int i = 0; i < 2; ++i)
      rt.par_loop("readonly", edges, fig3_kernel_update,
                  arg_dat(res, 0, e2n, Access::INC),
                  arg_dat(res, 1, e2n, Access::INC),
                  arg_dat(pres, 0, e2n, Access::READ),
                  arg_dat(pres, 1, e2n, Access::READ));
  });
  (void)pres_id;
  const auto metrics = w.loop_metrics();
  EXPECT_EQ(metrics.at("readonly").msgs, 0);
  EXPECT_EQ(metrics.at("readonly").bytes, 0);
}

TEST(RuntimeOp2, WriteDirtiesHaloAndTriggersExchange) {
  QuadProblem p = make_quad_problem(12, 12);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([&](Runtime& rt) { run_fig3_loops(rt, 2); });
  const auto metrics = w.loop_metrics();
  // res is written by update and read by edge_flux -> every edge_flux
  // call exchanges res (2 messages per neighbour pair direction).
  EXPECT_GT(metrics.at("edge_flux").msgs, 0);
  // pres is never written: update never exchanges.
  EXPECT_EQ(metrics.at("update").msgs, 0);
}

/// Direct RW of one dat: leaves its level-1 halo stale.
struct Dirty {
  template <typename D>
  void operator()(D d) const {
    d[0] += 1.0;
  }
};

/// Indirect reads of a node dat and a cell dat into an indirect INC.
struct ReadTwo {
  template <typename F1, typename F2, typename R1, typename R2, typename C1,
            typename C2>
  void operator()(F1 f1, F2 f2, R1 r1, R2 r2, C1 c1, C2 c2) const {
    f1[0] += r1[0] - c2[3];
    f2[1] += r2[1] - c1[2];
  }
};

TEST(RuntimeOp2, LoopMessagesFollowEquationOne) {
  // Alg 1 refreshes each stale dat's level-1 halo with two messages per
  // neighbour, exec and nonexec (the 2 d p m^1 term of Eq (1)), so a
  // loop's traffic follows from the halo plan alone: one message per
  // non-empty level-1 export list, carrying rows * dim doubles. Nodes
  // only have nonexec halos here; cells (the c2n source) have both.
  for (const bool persistent : {false, true})
    for (const mesh::LayoutKind kind :
         {mesh::LayoutKind::AoS, mesh::LayoutKind::SoA}) {
      SCOPED_TRACE(std::string(persistent ? "persistent " : "ad-hoc ") +
                   mesh::layout_name(kind));
      QuadProblem p = make_quad_problem(12, 12);
      std::vector<std::pair<mesh::set_id, int>> stale;  // (set, dim).
      for (mesh::dat_id d : {p.res, p.cw})
        stale.emplace_back(p.q.mesh.dat(d).set, p.q.mesh.dat(d).dim);
      WorldConfig cfg = config_for(4, partition::Kind::KWay);
      cfg.transport.persistent = persistent;
      cfg.layout.kind = kind;
      World w(std::move(p.q.mesh), cfg);
      auto step = [](Runtime& rt) {
        const Dat res = rt.dat("res"), cw = rt.dat("cw"),
                  flux = rt.dat("flux");
        const Map e2n = rt.map("e2n"), e2c = rt.map("e2c");
        rt.par_loop("dirty_res", rt.set("nodes"), Dirty{},
                    arg_dat(res, Access::RW));
        rt.par_loop("dirty_cw", rt.set("cells"), Dirty{},
                    arg_dat(cw, Access::RW));
        rt.par_loop("read_two", rt.set("edges"), ReadTwo{},
                    arg_dat(flux, 0, e2n, Access::INC),
                    arg_dat(flux, 1, e2n, Access::INC),
                    arg_dat(res, 0, e2n, Access::READ),
                    arg_dat(res, 1, e2n, Access::READ),
                    arg_dat(cw, 0, e2c, Access::READ),
                    arg_dat(cw, 1, e2c, Access::READ));
      };
      // The first run builds the exchanges (and negotiates channels,
      // whose handshakes are messages too); the second is steady state.
      w.run(step);
      w.clear_metrics();
      w.run(step);

      std::int64_t msgs[2] = {0, 0}, bytes = 0, elems = 0;
      for (const halo::RankPlan& rp : w.plan().ranks)
        for (const auto& [set, dim] : stale) {
          const halo::NeighborLists& nl =
              rp.lists[static_cast<std::size_t>(set)];
          for (int cls = 0; cls < 2; ++cls)
            for (const auto& [q, layers] :
                 cls == 0 ? nl.exp_exec : nl.exp_nonexec) {
              const std::int64_t rows =
                  layers.empty()
                      ? 0
                      : static_cast<std::int64_t>(layers[0].size());
              if (rows == 0) continue;
              msgs[cls] += 1;
              bytes += rows * dim * 8;
              elems += rows;
            }
        }
      ASSERT_GT(msgs[0], 0);  // both message classes are exercised.
      ASSERT_GT(msgs[1], 0);
      const LoopMetrics m = w.loop_metrics().at("read_two");
      EXPECT_EQ(m.calls, 1);
      EXPECT_EQ(m.msgs, msgs[0] + msgs[1]);
      EXPECT_EQ(m.bytes, bytes);
      EXPECT_EQ(m.halo_elems, elems);
    }
}

TEST(RuntimeOp2, GblReductionSumsOwnedOnly) {
  QuadProblem p = make_quad_problem(9, 7);
  const gidx_t nnodes = p.q.mesh.set(p.q.nodes).size;
  for (int nranks : {1, 3, 6}) {
    QuadProblem pp = make_quad_problem(9, 7);
    World w(std::move(pp.q.mesh),
            config_for(nranks, partition::Kind::RIB));
    double total = 0.0;
    w.run([&](Runtime& rt) {
      const Set nodes = rt.set("nodes");
      const Dat pres = rt.dat("pres");
      double local = 0.0;
      rt.par_loop(
          "count", nodes,
          [](const double* pr, double* acc) { acc[0] += 1.0 + 0.0 * pr[0]; },
          arg_dat(pres, Access::READ), arg_gbl(&local, 1, Access::INC));
      if (rt.rank() == 0) total = local;
    });
    EXPECT_DOUBLE_EQ(total, static_cast<double>(nnodes)) << nranks;
  }
}

TEST(RuntimeOp2, GblReadBroadcastsConstant) {
  QuadProblem p = make_quad_problem(6, 6);
  World w(std::move(p.q.mesh), config_for(2, partition::Kind::Block));
  w.run([&](Runtime& rt) {
    const Set nodes = rt.set("nodes");
    const Dat res = rt.dat("res");
    double alpha = 2.5;
    rt.par_loop(
        "scale", nodes,
        [](double* r, const double* a) {
          r[0] = a[0];
          r[1] = a[0];
        },
        arg_dat(res, Access::WRITE), arg_gbl(&alpha, 1, Access::READ));
  });
  const auto res = w.fetch_dat(p.res);
  for (double v : res) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(RuntimeOp2, FetchAndResetDat) {
  QuadProblem p = make_quad_problem(5, 5);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  const gidx_t n = w.mesh().set(p.q.nodes).size;
  std::vector<double> fresh(static_cast<std::size_t>(2 * n), 7.0);
  w.reset_dat(p.res, fresh);
  EXPECT_EQ(w.fetch_dat(p.res), fresh);
  EXPECT_THROW(w.reset_dat(p.res, std::vector<double>(3)), Error);
}

TEST(RuntimeOp2, MetricsCountIterations) {
  QuadProblem p = make_quad_problem(8, 8);
  const gidx_t nedges = p.q.mesh.set(p.q.edges).size;
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto metrics = w.loop_metrics();
  const LoopMetrics& up = metrics.at("update");
  // Owned iterations = nedges; import-exec layer-1 edges add redundancy.
  EXPECT_GE(up.core_iters + up.halo_iters, nedges);
  EXPECT_GT(up.core_iters, 0);
  EXPECT_GT(up.halo_iters, 0);
}

TEST(RuntimeOp2, ErrorsPropagateAndDontDeadlock) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  EXPECT_THROW(w.run([](Runtime& rt) {
                 if (rt.rank() == 2) raise("rank 2 exploded");
                 rt.barrier();  // others block here until poisoned
               }),
               Error);
}

TEST(RuntimeOp2, RejectsApiMisuse) {
  QuadProblem p = make_quad_problem(6, 6);
  World w(std::move(p.q.mesh), config_for(2, partition::Kind::Block));
  w.run([](Runtime& rt) {
    EXPECT_THROW(rt.set("nope"), Error);
    EXPECT_THROW(rt.map("nope"), Error);
    EXPECT_THROW(rt.dat("nope"), Error);

    const Set nodes = rt.set("nodes");
    const Set edges = rt.set("edges");
    const Dat res = rt.dat("res");
    const Map e2n = rt.map("e2n");
    // Direct arg on the wrong set.
    EXPECT_THROW(rt.par_loop("bad", edges, [](double*) {},
                             arg_dat(res, Access::WRITE)),
                 Error);
    // Map that does not start at the iteration set.
    EXPECT_THROW(rt.par_loop("bad2", nodes, [](double*) {},
                             arg_dat(res, 0, e2n, Access::READ)),
                 Error);
    // Map index out of arity.
    EXPECT_THROW(rt.par_loop("bad3", edges, [](double*) {},
                             arg_dat(res, 5, e2n, Access::READ)),
                 Error);
    // Gbl INC combined with indirect write.
    double acc = 0.0;
    EXPECT_THROW(
        rt.par_loop(
            "bad4", edges, [](double*, double*) {},
            arg_dat(res, 0, e2n, Access::INC),
            arg_gbl(&acc, 1, Access::INC)),
        Error);
  });
}

TEST(RuntimeOp2, MultigridSolverRunsAndReducesResidual) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(3000, 3);
  World w(std::move(prob.mg.mesh), config_for(4, partition::Kind::RIB));
  std::vector<double> history;
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    const auto local = apps::mgcfd::run_solver(rt, h, 5);
    if (rt.rank() == 0) history = local;
  });
  ASSERT_EQ(history.size(), 5u);
  for (double r : history) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

TEST(RuntimeOp2, MgcfdSolverMatchesSerial) {
  apps::mgcfd::Problem sp = apps::mgcfd::build_problem(2000, 2);
  apps::mgcfd::Problem pp = apps::mgcfd::build_problem(2000, 2);
  const mesh::dat_id q0 = sp.levels[0].q;

  World serial(std::move(sp.mg.mesh), config_for(1, partition::Kind::Block));
  serial.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, sp);
    apps::mgcfd::run_solver(rt, h, 3);
  });
  World par(std::move(pp.mg.mesh), config_for(5, partition::Kind::KWay));
  par.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, pp);
    apps::mgcfd::run_solver(rt, h, 3);
  });
  expect_allclose(serial.fetch_dat(q0), par.fetch_dat(pp.levels[0].q));
}

TEST(RuntimeOp2, StatePersistsAcrossRuns) {
  // World::run may be called repeatedly (setup phase, then time loop);
  // dat values and dirty bits must carry over.
  QuadProblem p = make_quad_problem(10, 10);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto after_one = w.fetch_dat(p.flux);
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto after_two = w.fetch_dat(p.flux);
  // Second run accumulated further increments on top of the first.
  double diff = 0.0;
  for (size_t i = 0; i < after_one.size(); ++i)
    diff = std::max(diff, std::abs(after_two[i] - after_one[i]));
  EXPECT_GT(diff, 0.0);

  // And matches a single two-step run from the same initial state.
  QuadProblem p2 = make_quad_problem(10, 10);
  World w2(std::move(p2.q.mesh), config_for(4, partition::Kind::KWay));
  w2.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
  expect_allclose(after_two, w2.fetch_dat(p2.flux));
}

TEST(RuntimeOp2, ResetDatClearsStateMidStream) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::RIB));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
  const gidx_t n = w.mesh().set(p.q.nodes).size;
  w.reset_dat(p.res, std::vector<double>(static_cast<size_t>(2 * n), 0.0));
  w.reset_dat(p.flux, std::vector<double>(static_cast<size_t>(2 * n), 0.0));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  const auto flux_restarted = w.fetch_dat(p.flux);

  QuadProblem p2 = make_quad_problem(8, 8);
  World w2(std::move(p2.q.mesh), config_for(3, partition::Kind::RIB));
  // One fresh step... but pres evolved? pres is never written by the
  // fig3 loops, so a single step from zeroed res/flux is equivalent.
  w2.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  expect_allclose(flux_restarted, w2.fetch_dat(p2.flux));
}

TEST(RuntimeOp2, SchedulingIndependentDeterminism) {
  // Rank threads interleave arbitrarily on the host, but results (and
  // even the FP summation order within each rank) are functions of the
  // plan alone: two runs of the same program must agree bit-for-bit.
  auto run_once = [] {
    QuadProblem p = make_quad_problem(12, 9);
    World w(std::move(p.q.mesh), config_for(6, partition::Kind::KWay));
    w.run([](Runtime& rt) { run_fig3_loops(rt, 3); });
    return w.fetch_dat(p.flux);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // bitwise
}

/// Field `f` of `m` as a double (every kMetricFields value is exact in
/// one for the small values these tests use).
double field_value(const LoopMetrics& m, const MetricField& f) {
  return std::visit([&m](auto p) { return static_cast<double>(m.*p); },
                    f.member);
}

void set_field(LoopMetrics& m, const MetricField& f, double v) {
  std::visit(
      [&m, v](auto p) {
        m.*p = static_cast<std::remove_reference_t<decltype(m.*p)>>(v);
      },
      f.member);
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cols;
  std::istringstream is(line);
  for (std::string c; std::getline(is, c, ',');) cols.push_back(c);
  return cols;
}

TEST(RuntimeOp2, MetricsCsvExport) {
  QuadProblem p = make_quad_problem(8, 8);
  World w(std::move(p.q.mesh), config_for(3, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 1); });
  std::ostringstream os;
  w.write_metrics_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("loop,update"), std::string::npos);
  EXPECT_NE(csv.find("loop,edge_flux"), std::string::npos);

  // One column per kMetricFields entry, plus the derived layout and
  // bytes_per_elem columns, after the row's kind and name.
  const std::vector<std::string> header =
      split_csv_line(csv.substr(0, csv.find('\n')));
  ASSERT_EQ(header.size(), 2 + std::size(kMetricFields) + 2);
  for (const MetricField& f : kMetricFields)
    EXPECT_EQ(std::count(header.begin(), header.end(), f.column), 1)
        << f.column;
  // The columns of earlier releases keep their names and positions;
  // newer ones follow them.
  const std::vector<std::string> stable = {
      "kind", "name", "calls", "core_iters", "halo_iters", "msgs",
      "bytes", "max_msg_bytes", "max_neighbors", "wall_s", "pack_s",
      "core_s", "wait_s", "unpack_s", "halo_s", "regions", "plan_builds",
      "staging_allocs", "chunks", "colours", "busy_s", "tasks", "steals",
      "dep_wait_s", "gather_span", "reuse_gap", "layout", "bytes_per_elem",
      "h2d_bytes", "d2h_bytes", "device_transfers", "device_s", "tile", "redundant_elems",
      "msgs_saved"};
  ASSERT_GE(header.size(), stable.size());
  EXPECT_TRUE(std::equal(stable.begin(), stable.end(), header.begin()));
}

TEST(RuntimeOp2, MetricsTableCoversEveryField) {
  // The static_assert in runtime.hpp pins the entry count to the struct
  // size; distinct offsets then mean every field has exactly one entry.
  LoopMetrics m;
  std::set<std::ptrdiff_t> offsets;
  for (const MetricField& f : kMetricFields)
    std::visit(
        [&](auto p) {
          offsets.insert(reinterpret_cast<const char*>(&(m.*p)) -
                         reinterpret_cast<const char*>(&m));
        },
        f.member);
  EXPECT_EQ(offsets.size(), std::size(kMetricFields));
}

TEST(RuntimeOp2, MetricsMergeTilingFields) {
  // Every field folds by its rule: across ranks (merge_from), across the
  // loops of one call (accumulate) and across calls (record). Each fold
  // touches only its own field.
  for (const MetricField& f : kMetricFields) {
    LoopMetrics a, b;
    set_field(a, f, 5);
    set_field(b, f, 3);
    LoopMetrics ranks = a, ranks_rev = b, loops = a, calls = a;
    ranks.merge_from(b);
    ranks_rev.merge_from(a);
    loops.accumulate(b);
    calls.record(b);
    double r = 0, l = 0, c = 0;
    switch (f.rule) {
      case MetricRule::Sum: r = 8, l = 8, c = 8; break;
      case MetricRule::Max: r = 5, l = 5, c = 5; break;
      case MetricRule::Calls: r = 5, l = 5, c = 6; break;
      case MetricRule::RankBytes: r = 5, l = 8, c = 5; break;
    }
    EXPECT_EQ(field_value(ranks, f), r) << f.column;
    EXPECT_EQ(field_value(ranks_rev, f), r) << f.column;
    EXPECT_EQ(field_value(loops, f), l) << f.column;
    EXPECT_EQ(field_value(calls, f), c) << f.column;
    for (const MetricField& g : kMetricFields) {
      if (&g == &f) continue;
      EXPECT_EQ(field_value(ranks, g), 0) << f.column << " -> " << g.column;
      EXPECT_EQ(field_value(loops, g), 0) << f.column << " -> " << g.column;
      // record() counts the call whatever the folded metrics hold.
      EXPECT_EQ(field_value(calls, g), g.rule == MetricRule::Calls ? 1 : 0)
          << f.column << " -> " << g.column;
    }
  }
}

TEST(RuntimeOp2, MetricsWireRoundTrip) {
  // The SPMD metrics wire carries every field: a map whose fields all
  // hold distinct values decodes to itself.
  std::map<std::string, LoopMetrics> sent;
  double v = 1;
  for (const char* name : {"edge_flux", "", "chain:synthetic"})
    for (const MetricField& f : kMetricFields) {
      // Fractional doubles: a double sent through an integer would show.
      set_field(sent[name], f, f.member.index() == 0 ? v : v + 0.25);
      ++v;
    }
  std::map<std::string, LoopMetrics> got;
  detail::merge_serialized_metrics(detail::serialize_metrics(sent), &got);
  ASSERT_EQ(got.size(), sent.size());
  for (const auto& [name, m] : sent)
    for (const MetricField& f : kMetricFields)
      EXPECT_EQ(field_value(got.at(name), f), field_value(m, f))
          << name << "." << f.column;

  ByteBuf truncated = detail::serialize_metrics(sent);
  truncated.pop_back();
  EXPECT_THROW(detail::merge_serialized_metrics(truncated, &got), Error);
}

TEST(RuntimeOp2, PhaseTimingsSumToWall) {
  QuadProblem p = make_quad_problem(12, 12);
  World w(std::move(p.q.mesh), config_for(4, partition::Kind::KWay));
  w.run([](Runtime& rt) { run_fig3_loops(rt, 2); });
  for (const auto& [name, m] : w.loop_metrics()) {
    const double parts = m.pack_seconds + m.core_seconds + m.wait_seconds +
                         m.unpack_seconds + m.halo_seconds;
    EXPECT_NEAR(parts, m.wall_seconds, 1e-3) << name;
    EXPECT_GE(m.pack_seconds, 0.0);
    EXPECT_GE(m.core_seconds, 0.0);
    EXPECT_GE(m.wait_seconds, 0.0);
    EXPECT_GE(m.unpack_seconds, 0.0);
    EXPECT_GE(m.halo_seconds, 0.0);
  }
}

// The constructors' result types carry the argument kind par_loop
// resolves by; a plain Arg is rejected at compile time.
static_assert(std::is_same_v<decltype(arg_dat(Dat{}, Access::READ)),
                             DirectArg>);
static_assert(std::is_same_v<decltype(arg_dat(Dat{}, 0, Map{},
                                              Access::READ)),
                             IndirectArg>);
static_assert(std::is_same_v<decltype(arg_gbl(nullptr, 1, Access::READ)),
                             GblArg>);
static_assert(!detail::is_typed_arg_v<Arg>);

TEST(ParLoop, RegionBodiesResolveEveryArgKind) {
  using detail::ElemRef;
  using detail::ResolvedArg;
  constexpr lidx_t kEdges = 5, kNodes = 8;
  const std::vector<lidx_t> e2n = {3, 1, 0, 7, 5, 2, 6, 4, 1, 3};
  double gbl_read[2] = {1.0, 2.0};
  double gbl_inc[3] = {0.0, 0.0, 0.0};

  using Call = std::vector<std::pair<const double*, lidx_t>>;
  std::vector<Call> calls;
  const auto record = [&calls](ElemRef e, ElemRef n0, ElemRef n1, ElemRef gr,
                               ElemRef gi) {
    calls.push_back({{e.p, e.stride},
                     {n0.p, n0.stride},
                     {n1.p, n1.stride},
                     {gr.p, gr.stride},
                     {gi.p, gi.stride}});
  };
  using D = DirectArg;
  using In = IndirectArg;
  using G = GblArg;

  for (const mesh::LayoutKind kind :
       {mesh::LayoutKind::AoS, mesh::LayoutKind::SoA}) {
    const mesh::DatLayout el = mesh::DatLayout::make(kind, 2, kEdges);
    const mesh::DatLayout nl = mesh::DatLayout::make(kind, 3, kNodes);
    std::vector<double> edat(el.alloc_doubles()), ndat(nl.alloc_doubles());
    std::vector<ResolvedArg> rargs(5);
    rargs[0].base = edat.data();
    rargs[0].bind_layout(el);
    for (int c = 0; c < 2; ++c) {
      ResolvedArg& ra = rargs[static_cast<std::size_t>(1 + c)];
      ra.base = ndat.data();
      ra.bind_layout(nl);
      ra.map_targets = e2n.data();
      ra.arity = 2;
      ra.idx = c;
    }
    // A gbl resolves to its buffer with stride 1 whatever the layout
    // fields hold.
    rargs[3] = rargs[4] = rargs[0];
    rargs[3].base = gbl_read;
    rargs[4].base = gbl_inc;

    const auto expect_row = [&](const Call& got, lidx_t row) {
      ASSERT_EQ(got.size(), 5U);
      EXPECT_EQ(got[0].first, edat.data() + row * el.estride);
      EXPECT_EQ(got[0].second, el.cstride);
      for (int c = 0; c < 2; ++c) {
        const lidx_t t = e2n[static_cast<std::size_t>(row * 2 + c)];
        EXPECT_EQ(got[static_cast<std::size_t>(1 + c)].first,
                  ndat.data() + t * nl.estride);
        EXPECT_EQ(got[static_cast<std::size_t>(1 + c)].second, nl.cstride);
      }
      EXPECT_EQ(got[3].first, gbl_read);
      EXPECT_EQ(got[3].second, 1);
      EXPECT_EQ(got[4].first, gbl_inc);
      EXPECT_EQ(got[4].second, 1);
    };

    const std::vector<lidx_t> list = {4, 0, 2};
    const auto run_range = [&](bool validate) {
      detail::invoke_kernel_range<D, In, In, G, G>(record, rargs, 1, kEdges,
                                                   validate, "probe");
    };
    const auto run_list = [&](bool validate) {
      detail::invoke_kernel_list<D, In, In, G, G>(
          record, rargs, list.data(), list.size(), validate, "probe");
    };
    for (const bool validate : {false, true}) {
      SCOPED_TRACE(std::string(mesh::layout_name(kind)) +
                   (validate ? " validate" : " unvalidated"));
      calls.clear();
      run_range(validate);
      ASSERT_EQ(calls.size(), static_cast<std::size_t>(kEdges - 1));
      for (lidx_t i = 1; i < kEdges; ++i)
        expect_row(calls[static_cast<std::size_t>(i - 1)], i);

      calls.clear();
      run_list(validate);
      ASSERT_EQ(calls.size(), list.size());
      for (std::size_t j = 0; j < list.size(); ++j)
        expect_row(calls[j], list[j]);
    }

    // Validation still catches an indirect target outside the region.
    std::vector<lidx_t> holed = e2n;
    holed[5] = kInvalidLocal;  // edge 2, column 1
    rargs[2].map_targets = holed.data();
    EXPECT_THROW(run_range(true), Error);
    EXPECT_THROW(run_list(true), Error);
  }
}

}  // namespace
}  // namespace op2ca::core
