// CA executor (Alg 2) tests: chained execution must produce the same
// owned results as per-loop OP2 execution and as single-rank sequential
// execution, while exchanging a single grouped message per neighbour.
#include <gtest/gtest.h>

#include <type_traits>
#include <variant>

#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/apps/mgcfd/mgcfd_kernels.hpp"
#include "op2ca/core/runtime.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/util/error.hpp"
#include "test_common.hpp"

namespace op2ca::core {
namespace {

using testutil::expect_allclose;

WorldConfig base_config(int nranks, int depth) {
  WorldConfig cfg;
  cfg.nranks = nranks;
  cfg.partitioner = partition::Kind::KWay;
  cfg.halo_depth = depth;
  cfg.validate = true;
  return cfg;
}

/// Runs the MG-CFD synthetic chain for `timesteps` outer iterations and
/// returns the final sres/sflux global values.
struct SynthResult {
  std::vector<double> sres, sflux, spres;
};

SynthResult run_synth(int nranks, int nchains, int timesteps, bool enable_ca,
                      int depth = 2, gidx_t target_nodes = 1200) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(target_nodes, 1);
  WorldConfig cfg = base_config(nranks, depth);
  if (enable_ca) cfg.chains.enable("synthetic", 2 * nchains, depth);
  const mesh::dat_id sres = prob.sres, sflux = prob.sflux,
                     spres = prob.spres;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    for (int t = 0; t < timesteps; ++t)
      apps::mgcfd::run_synthetic_chain(rt, h, nchains);
  });
  return SynthResult{w.fetch_dat(sres), w.fetch_dat(sflux),
                     w.fetch_dat(spres)};
}

TEST(ChainExec, CaMatchesSerial) {
  const SynthResult serial = run_synth(1, 3, 2, false);
  const SynthResult ca = run_synth(6, 3, 2, true);
  expect_allclose(serial.sres, ca.sres);
  expect_allclose(serial.sflux, ca.sflux);
  expect_allclose(serial.spres, ca.spres);
}

TEST(ChainExec, CaMatchesBaselineOp2) {
  const SynthResult op2 = run_synth(5, 4, 2, false);
  const SynthResult ca = run_synth(5, 4, 2, true);
  expect_allclose(op2.sres, ca.sres);
  expect_allclose(op2.sflux, ca.sflux);
}

TEST(ChainExec, LongChainManyRanks) {
  const SynthResult serial = run_synth(1, 8, 1, false);
  const SynthResult ca = run_synth(8, 8, 1, true);
  expect_allclose(serial.sres, ca.sres);
  expect_allclose(serial.sflux, ca.sflux);
}

TEST(ChainExec, SingleMessagePerNeighborPerChain) {
  // One grouped message per neighbour per rank, regardless of the 8
  // loops and multiple dats involved: its size is the grouped message
  // of the chain's stale syncs (Fig 8), fixed by the halo plan alone.
  // Two multigrid levels make level-0 nodes a map source, so they have
  // exec halos too and splitting the classes would show.
  for (const bool persistent : {false, true})
    for (const mesh::LayoutKind kind :
         {mesh::LayoutKind::AoS, mesh::LayoutKind::SoA}) {
      SCOPED_TRACE(std::string(persistent ? "persistent " : "ad-hoc ") +
                   mesh::layout_name(kind));
      apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 2);
      // The steady-state epoch syncs every chain sync of a dat the
      // program writes (perturb re-dirties spres, the chain sres/sflux).
      std::vector<halo::DatSyncSpec> specs;
      for (const DatSync& s :
           inspect_chain(prob.mg.mesh,
                         apps::mgcfd::synthetic_chain_spec(prob, 4))
               .syncs)
        if (s.dat == prob.spres || s.dat == prob.sres || s.dat == prob.sflux)
          specs.push_back({prob.mg.mesh.dat(s.dat).set,
                           prob.mg.mesh.dat(s.dat).dim, s.depth});
      ASSERT_FALSE(specs.empty());
      WorldConfig cfg = base_config(6, 2);
      cfg.chains.enable("synthetic");
      cfg.transport.persistent = persistent;
      cfg.layout.kind = kind;
      World w(std::move(prob.mg.mesh), cfg);
      auto step = [&](Runtime& rt) {
        const auto h = apps::mgcfd::resolve_handles(rt, prob);
        apps::mgcfd::run_synthetic_chain(rt, h, 4);
      };
      // Warm-up: the first invocation syncs only spres (the rest is fresh
      // from set-up), the second every written dat; each builds its
      // exchange and negotiates its channels, whose handshakes are
      // messages too. The third is steady state.
      w.run(step);
      w.run(step);
      w.clear_metrics();
      w.run(step);

      std::int64_t msgs = 0, bytes = 0;
      bool both_classes = false;
      for (const halo::RankPlan& rp : w.plan().ranks) {
        for (const auto& [q, b] : halo::grouped_message_bytes(rp, specs)) {
          msgs += 1;
          bytes += b;
        }
        const halo::NeighborLists& nl =
            rp.lists[static_cast<std::size_t>(specs[0].set)];
        auto level1 = [](const std::vector<LIdxVec>& layers) {
          return !layers.empty() && !layers[0].empty();
        };
        for (const auto& [q, layers] : nl.exp_exec) {
          const auto it = nl.exp_nonexec.find(q);
          both_classes |= level1(layers) && it != nl.exp_nonexec.end() &&
                          level1(it->second);
        }
      }
      ASSERT_TRUE(both_classes);
      const LoopMetrics m = w.chain_metrics().at("synthetic");
      EXPECT_GT(msgs, 0);
      EXPECT_EQ(m.msgs, msgs);
      EXPECT_EQ(m.bytes, bytes);
    }
}

TEST(ChainExec, BaselineSendsManyMoreMessages) {
  auto count_msgs = [](bool enable_ca) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
    WorldConfig cfg = base_config(6, 2);
    if (enable_ca) cfg.chains.enable("synthetic");
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, 8);
    });
    return w.chain_metrics().at("synthetic").msgs;
  };
  const std::int64_t op2 = count_msgs(false);
  const std::int64_t ca = count_msgs(true);
  // 8 chained pairs: baseline re-exchanges sres for every edge_flux
  // (plus spres once); CA sends one grouped message per neighbour.
  EXPECT_GE(op2, 4 * ca);
}

TEST(ChainExec, DisabledChainFallsBackToOp2) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, 2);
  cfg.chains.disable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  // Loops were metered individually (OP2 path) and under the chain name.
  const auto loops = w.loop_metrics();
  EXPECT_GT(loops.at("synth_update").calls, 0);
  const auto chains = w.chain_metrics();
  EXPECT_GT(chains.at("synthetic").calls, 0);
}

TEST(ChainExec, DisabledChainRowIsTheFoldOfItsLoopRows) {
  // An OP2-mode chain row must carry every LoopMetrics column, folded
  // over its loops exactly as LoopMetrics::accumulate folds them. The
  // chain holds one synth_update and one synth_edge_flux, each run once,
  // so their loop rows are single executions. The threaded block graph
  // and the device ledger make the per-executor columns non-zero.
  for (const bool device : {false, true}) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
    WorldConfig cfg = base_config(2, 2);
    cfg.threads_per_rank = 2;
    cfg.device.enabled = device;
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      apps::mgcfd::run_synthetic_chain(
          rt, apps::mgcfd::resolve_handles(rt, prob), 1);
    });
    const auto loops = w.loop_metrics();
    LoopMetrics fold;
    for (const char* name : {"synth_update", "synth_edge_flux"})
      fold.accumulate(loops.at(name));
    fold.tile = 1;  // a chain row is untiled, a loop row has no tile
    const LoopMetrics row = w.chain_metrics().at("synthetic");
    EXPECT_GT(row.msgs, 0);
    EXPECT_GT(device ? row.h2d_bytes : row.tasks, 0);

    // Every field; doubles up to reassociation (the chain row sums loops
    // then ranks, the fold ranks then loops).
    for (const MetricField& f : kMetricFields)
      std::visit(
          [&](auto p) {
            if constexpr (std::is_same_v<decltype(p), double LoopMetrics::*>)
              EXPECT_DOUBLE_EQ(row.*p, fold.*p) << f.column << " " << device;
            else
              EXPECT_EQ(row.*p, fold.*p) << f.column << " " << device;
          },
          f.member);
  }
}

TEST(ChainExec, InsufficientHaloDepthRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, /*depth=*/1);  // chain needs 2
  cfg.chains.enable("synthetic");
  World w(std::move(prob.mg.mesh), cfg);
  EXPECT_THROW(
      w.run([&](Runtime& rt) {
        const auto h = apps::mgcfd::resolve_handles(rt, prob);
        apps::mgcfd::run_synthetic_chain(rt, h, 2);
      }),
      Error);
}

TEST(ChainExec, ConfiguredDepthCapRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(4, 3);
  cfg.chains.enable("synthetic", 0, /*max_depth=*/1);
  World w(std::move(prob.mg.mesh), cfg);
  EXPECT_THROW(
      w.run([&](Runtime& rt) {
        const auto h = apps::mgcfd::resolve_handles(rt, prob);
        apps::mgcfd::run_synthetic_chain(rt, h, 2);
      }),
      Error);
}

TEST(ChainExec, NestedChainBeginRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  World w(std::move(prob.mg.mesh), base_config(2, 2));
  EXPECT_THROW(w.run([](Runtime& rt) {
                 rt.chain_begin("a");
                 rt.chain_begin("b");
               }),
               Error);
  // chain_end without begin is also rejected (fresh world: the previous
  // failure poisoned the first one).
  apps::mgcfd::Problem prob2 = apps::mgcfd::build_problem(1000, 1);
  World w2(std::move(prob2.mg.mesh), base_config(2, 2));
  EXPECT_THROW(w2.run([](Runtime& rt) { rt.chain_end(); }), Error);
}

TEST(ChainExec, GblReductionInsideChainRaises) {
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1000, 1);
  WorldConfig cfg = base_config(2, 2);
  cfg.chains.enable("bad");
  World w(std::move(prob.mg.mesh), cfg);
  EXPECT_THROW(
      w.run([&](Runtime& rt) {
        const Set nodes = rt.set("nodes_l0");
        const Dat sres = rt.dat("sres");
        double acc = 0.0;
        rt.chain_begin("bad");
        rt.par_loop(
            "reduce", nodes,
            [](const double* r, double* a) { a[0] += r[0]; },
            arg_dat(sres, Access::READ), arg_gbl(&acc, 1, Access::INC));
        rt.chain_end();
      }),
      Error);
}

TEST(ChainExec, ChainCoresSmallerThanBaselineCores) {
  // The shrinking cores of Alg 2 must show up in the metrics: CA core
  // iterations < baseline core iterations for the same chain.
  auto core_iters = [](bool enable_ca) {
    apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1500, 1);
    WorldConfig cfg = base_config(6, 2);
    if (enable_ca) cfg.chains.enable("synthetic");
    World w(std::move(prob.mg.mesh), cfg);
    w.run([&](Runtime& rt) {
      const auto h = apps::mgcfd::resolve_handles(rt, prob);
      apps::mgcfd::run_synthetic_chain(rt, h, 6);
    });
    return w.chain_metrics().at("synthetic").core_iters;
  };
  EXPECT_LT(core_iters(true), core_iters(false));
}

TEST(ChainExec, RepeatedChainsUseCachedAnalysis) {
  // Functional check: repeated executions stay correct (the analysis
  // cache returns the same plan) and dirty bits keep the halos synced.
  const SynthResult once = run_synth(1, 2, 6, false);
  const SynthResult many = run_synth(4, 2, 6, true);
  expect_allclose(once.sres, many.sres);
  expect_allclose(once.sflux, many.sflux);
}

TEST(ChainExec, DepthOneSyncDoesNotSatisfyDepthTwoChain) {
  // fresh_depth is layered: a depth-1 sync (vflux-style chain) must not
  // suppress the deeper exchange a depth-2 chain needs afterwards.
  apps::mgcfd::Problem prob = apps::mgcfd::build_problem(1200, 1);
  WorldConfig cfg = base_config(5, 2);
  cfg.chains.enable("shallow");
  cfg.chains.enable("synthetic");
  const mesh::dat_id sres_id = prob.sres, sflux_id = prob.sflux;
  World w(std::move(prob.mg.mesh), cfg);
  w.run([&](Runtime& rt) {
    namespace k = apps::mgcfd::kernels;
    const auto h = apps::mgcfd::resolve_handles(rt, prob);
    // Dirty spres, then a single-loop depth-1 chain reading it.
    rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                arg_dat(h.spres, Access::RW));
    rt.chain_begin("shallow");
    rt.par_loop("shallow_update", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    rt.chain_end();
    // Now the depth-2 synthetic chain: spres level-1 halo is fresh but
    // level 2 is not; the chain must exchange it again (deeper).
    apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  const auto chains = w.chain_metrics();
  EXPECT_GT(chains.at("synthetic").msgs, 0);

  // Equivalence against a serial run of the same program.
  apps::mgcfd::Problem sp = apps::mgcfd::build_problem(1200, 1);
  World ws(std::move(sp.mg.mesh), base_config(1, 2));
  ws.run([&](Runtime& rt) {
    namespace k = apps::mgcfd::kernels;
    const auto h = apps::mgcfd::resolve_handles(rt, sp);
    rt.par_loop("perturb", h.nodes0, k::synth_perturb,
                arg_dat(h.spres, Access::RW));
    rt.par_loop("shallow_update", h.edges0, k::synth_update,
                arg_dat(h.sres, 0, h.e2n0, Access::INC),
                arg_dat(h.sres, 1, h.e2n0, Access::INC),
                arg_dat(h.spres, 0, h.e2n0, Access::READ),
                arg_dat(h.spres, 1, h.e2n0, Access::READ));
    apps::mgcfd::run_synthetic_chain(rt, h, 2);
  });
  expect_allclose(ws.fetch_dat(sp.sres), w.fetch_dat(sres_id));
  expect_allclose(ws.fetch_dat(sp.sflux), w.fetch_dat(sflux_id));
}

}  // namespace
}  // namespace op2ca::core
