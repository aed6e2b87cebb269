// Task-graph executor suite (threaded indirect-write loops).
//
// Part 1 — graph properties, brute-forced on random meshes: every pair of
// conflicting blocks (sharing a written target) is adjacent in the
// BlockGraph and therefore ordered by the colour orientation; adjacency
// is symmetric with no self edges; adjacent blocks never share a colour;
// the low->high colour orientation is acyclic (a Kahn drain covers every
// block); and every block carries a colour in [0, num_colours).
//
// Part 2 — schedule stress: the indirect-INC synthetic sweep runs 39
// times across pool widths 2/4/8 with randomized per-task sleep jitter
// injected through ThreadPool::set_task_jitter. Because the DAG (not the
// schedule) orders every conflicting pair, INC order is fixed by the
// static colour order, and the block size derives from the set size
// alone, every run must produce BIT-IDENTICAL dats — the determinism
// claim of the dependency-driven executor. Width 1 runs the plain serial
// region, not the graph.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/mesh/colouring.hpp"
#include "op2ca/util/rng.hpp"
#include "op2ca/util/thread_pool.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

// -- Part 1: block-graph properties. ------------------------------------

struct RandomIncidence {
  LIdxVec targets;
  mesh::ColourMapView view;
};

/// `n` elements with `arity` random targets each over `ntgt` nodes.
RandomIncidence random_incidence(lidx_t n, lidx_t ntgt, int arity,
                                 std::uint64_t seed) {
  RandomIncidence out;
  Rng rng(seed);
  out.targets.resize(static_cast<std::size_t>(n) *
                     static_cast<std::size_t>(arity));
  for (auto& t : out.targets)
    t = static_cast<lidx_t>(rng.next_int(0, ntgt - 1));
  out.view.targets = out.targets.data();
  out.view.arity = arity;
  out.view.num_elements = n;
  out.view.num_targets = ntgt;
  return out;
}

/// Brute-force conflict relation: blocks b1 != b2 share a target.
std::set<std::pair<lidx_t, lidx_t>> brute_force_conflicts(
    const RandomIncidence& inc, lidx_t n, lidx_t block) {
  std::vector<std::vector<lidx_t>> by_target(
      static_cast<std::size_t>(inc.view.num_targets));
  for (lidx_t e = 0; e < n; ++e)
    for (int k = 0; k < inc.view.arity; ++k)
      by_target[static_cast<std::size_t>(
                    inc.targets[static_cast<std::size_t>(e) *
                                    static_cast<std::size_t>(inc.view.arity) +
                                static_cast<std::size_t>(k)])]
          .push_back(e / block);
  std::set<std::pair<lidx_t, lidx_t>> conflicts;
  for (const auto& blocks : by_target)
    for (lidx_t a : blocks)
      for (lidx_t b : blocks)
        if (a != b) conflicts.insert({a, b});
  return conflicts;
}

TEST(TaskGraphProperties, ConflictingPairsAreAdjacentAndOnlyThose) {
  for (const std::uint64_t seed : {1u, 7u, 42u}) {
    const lidx_t n = 600, ntgt = 180, block = 16;
    const RandomIncidence inc = random_incidence(n, ntgt, 3, seed);
    const std::vector<mesh::ColourMapView> views{inc.view};
    const mesh::Colouring col = mesh::block_colouring(n, views, block);
    const mesh::BlockGraph g = mesh::block_conflict_graph(n, views, col);

    const auto conflicts = brute_force_conflicts(inc, n, block);
    std::set<std::pair<lidx_t, lidx_t>> adjacency;
    for (lidx_t b = 0; b < g.num_blocks; ++b)
      for (std::size_t r = g.adj_off[static_cast<std::size_t>(b)];
           r < g.adj_off[static_cast<std::size_t>(b) + 1]; ++r) {
        EXPECT_NE(g.adj[r], b) << "self edge at block " << b;
        adjacency.insert({b, g.adj[r]});
      }
    EXPECT_EQ(adjacency, conflicts) << "seed " << seed;
    // Symmetry is implied by equality with the (symmetric) brute force,
    // but assert it independently for a sharper failure message.
    for (const auto& [a, b] : adjacency)
      EXPECT_TRUE(adjacency.count({b, a})) << a << " <-> " << b;
  }
}

TEST(TaskGraphProperties, AdjacentBlocksNeverShareAColour) {
  const lidx_t n = 800, block = 32;
  const RandomIncidence inc = random_incidence(n, 200, 2, 5);
  const std::vector<mesh::ColourMapView> views{inc.view};
  const mesh::Colouring col = mesh::block_colouring(n, views, block);
  const mesh::BlockGraph g = mesh::block_conflict_graph(n, views, col);
  for (lidx_t b = 0; b < g.num_blocks; ++b) {
    const int c = g.colour[static_cast<std::size_t>(b)];
    EXPECT_GE(c, 0);
    EXPECT_LT(c, g.num_colours);
    for (std::size_t r = g.adj_off[static_cast<std::size_t>(b)];
         r < g.adj_off[static_cast<std::size_t>(b) + 1]; ++r)
      EXPECT_NE(c, g.colour[static_cast<std::size_t>(g.adj[r])])
          << "blocks " << b << " and " << g.adj[r];
  }
}

TEST(TaskGraphProperties, ColourOrientationIsAcyclicAndCoversAllBlocks) {
  // Orient every conflict edge low colour -> high colour (the executor's
  // dependency direction) and Kahn-drain: every block must be processed
  // exactly once — the graph the work-stealing pool runs has no cycle and
  // no unreachable (block, colour) chunk.
  for (const lidx_t block : {8, 64}) {
    const lidx_t n = 1000;
    const RandomIncidence inc = random_incidence(n, 240, 4, 11);
    const std::vector<mesh::ColourMapView> views{inc.view};
    const mesh::Colouring col = mesh::block_colouring(n, views, block);
    const mesh::BlockGraph g = mesh::block_conflict_graph(n, views, col);

    std::vector<int> indeg(static_cast<std::size_t>(g.num_blocks), 0);
    for (lidx_t b = 0; b < g.num_blocks; ++b)
      for (std::size_t r = g.adj_off[static_cast<std::size_t>(b)];
           r < g.adj_off[static_cast<std::size_t>(b) + 1]; ++r)
        if (g.colour[static_cast<std::size_t>(b)] <
            g.colour[static_cast<std::size_t>(g.adj[r])])
          ++indeg[static_cast<std::size_t>(g.adj[r])];
    std::vector<lidx_t> ready;
    for (lidx_t b = 0; b < g.num_blocks; ++b)
      if (indeg[static_cast<std::size_t>(b)] == 0) ready.push_back(b);
    lidx_t drained = 0;
    while (!ready.empty()) {
      const lidx_t b = ready.back();
      ready.pop_back();
      ++drained;
      for (std::size_t r = g.adj_off[static_cast<std::size_t>(b)];
           r < g.adj_off[static_cast<std::size_t>(b) + 1]; ++r)
        if (g.colour[static_cast<std::size_t>(b)] <
                g.colour[static_cast<std::size_t>(g.adj[r])] &&
            --indeg[static_cast<std::size_t>(g.adj[r])] == 0)
          ready.push_back(g.adj[r]);
    }
    EXPECT_EQ(drained, g.num_blocks) << "block " << block;
    EXPECT_EQ(static_cast<lidx_t>(g.colour.size()), g.num_blocks);
  }
}

// -- Part 2: schedule stress. -------------------------------------------

/// Installs randomized per-task sleep jitter for one scope. Sparse and
/// short (a few tens of microseconds) so 50+ runs stay fast while still
/// desynchronising the workers' deques every run differently.
struct JitterGuard {
  explicit JitterGuard(unsigned seed) {
    util::ThreadPool::set_task_jitter([seed](int task) {
      const unsigned h =
          (static_cast<unsigned>(task) * 2654435761u) ^ (seed * 40503u);
      if (h % 11 == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(h % 60));
    });
  }
  ~JitterGuard() { util::ThreadPool::set_task_jitter(nullptr); }
};

struct SynthResult {
  std::vector<double> sres, sflux, spres;
};

void synth_loops(Runtime& rt, const apps::mgcfd::Handles& h, int pairs) {
  namespace k = apps::mgcfd::kernels;
  rt.par_loop("perturb", h.nodes0, k::synth_perturb,
              arg_dat(rt.dat("spres"), Access::RW));
  for (int c = 0; c < pairs; ++c) {
    rt.par_loop("u", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    rt.par_loop("f", h.edges0, k::synth_edge_flux,
                arg_dat(h.sflux, 0, h.e2n0, Access::INC),
                arg_dat(h.sflux, 1, h.e2n0, Access::INC),
                arg_dat(h.sres, 0, h.e2n0, Access::READ),
                arg_dat(h.sres, 1, h.e2n0, Access::READ),
                arg_dat(h.sewt, Access::READ));
  }
}

/// One full indirect-INC sweep at `width` threads (>= 2: the task graph),
/// optionally returning the World for metrics inspection.
SynthResult run_taskgraph_sweep(int width, World** out_world = nullptr) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(800, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.validate = true;
  cfg.threads_per_rank = width;
  auto w = std::make_unique<World>(std::move(prob.mg.mesh), cfg);
  w->run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < 2; ++t) synth_loops(rt, h, 2);
  });
  SynthResult res{w->fetch_dat(sres), w->fetch_dat(sflux),
                  w->fetch_dat(spres)};
  if (out_world != nullptr) *out_world = w.release();
  return res;
}

void expect_bitwise(const SynthResult& a, const SynthResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.sres, b.sres) << what;
  EXPECT_EQ(a.sflux, b.sflux) << what;
  EXPECT_EQ(a.spres, b.spres) << what;
}

TEST(TaskGraphStress, BitwiseIdenticalUnderScheduleJitterAtEveryWidth) {
  // Reference: width 2, no jitter.
  const SynthResult ref = run_taskgraph_sweep(2);
  // 13 jittered runs at each width (39 total, on top of the reference):
  // every schedule perturbation must reproduce the reference bitwise.
  for (const int width : {2, 4, 8}) {
    for (unsigned run = 0; run < 13; ++run) {
      JitterGuard jitter(width * 100 + run);
      expect_bitwise(ref, run_taskgraph_sweep(width),
                     "width " + std::to_string(width) + " run " +
                         std::to_string(run));
    }
  }
}

TEST(TaskGraphStress, GraphMetricsReportTasks) {
  World* w = nullptr;
  run_taskgraph_sweep(4, &w);
  std::unique_ptr<World> owned(w);
  const auto metrics = owned->loop_metrics();
  // The indirect-INC loops must have executed as graph tasks, one region
  // body per (block, region) task. The derived block size must keep the
  // graph at least half as fine as fixed 16-element blocks were: those
  // gave 130 ("u") and 131 ("f") tasks per call on this problem.
  constexpr double kFixedBlock16TasksPerCall = 130;
  for (const char* name : {"u", "f"}) {
    EXPECT_GE(static_cast<double>(metrics.at(name).tasks) /
                  static_cast<double>(metrics.at(name).calls),
              kFixedBlock16TasksPerCall / 2)
        << name;
    EXPECT_GE(metrics.at(name).steals, 0) << name;
    EXPECT_GE(metrics.at(name).dep_wait_seconds, 0.0) << name;
    EXPECT_GE(metrics.at(name).max_colours, 2) << name;
  }
  // The direct RW loop bypasses the graph (contiguous chunks are already
  // race-free) — no tasks attributed.
  EXPECT_EQ(metrics.at("perturb").tasks, 0);
}

TEST(TaskGraphStress, GraphMatchesSerialRegionToTolerance) {
  // Against the width-1 serial region: same maths, INC sums
  // reassociated by the blocked colour order — allclose, not bitwise.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(800, 1);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  WorldConfig cfg;
  cfg.nranks = 2;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = 2;
  cfg.validate = true;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < 2; ++t) synth_loops(rt, h, 2);
  });
  const SynthResult serial{w.fetch_dat(sres), w.fetch_dat(sflux),
                           w.fetch_dat(spres)};
  const SynthResult graph = run_taskgraph_sweep(4);
  testutil::expect_allclose(serial.sres, graph.sres);
  testutil::expect_allclose(serial.sflux, graph.sflux);
  testutil::expect_allclose(serial.spres, graph.spres);
}

}  // namespace
}  // namespace op2ca::core
