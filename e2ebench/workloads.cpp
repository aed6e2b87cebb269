#include "workloads.hpp"

#include <chrono>
#include <set>

#include "op2ca/apps/hydra/hydra.hpp"
#include "op2ca/apps/mgcfd/mgcfd.hpp"
#include "op2ca/core/chain.hpp"
#include "op2ca/model/components.hpp"
#include "op2ca/model/perf_model.hpp"
#include "op2ca/util/error.hpp"

namespace e2e {

namespace {

/// update/edge_flux pairs in MG-CFD's synthetic chain: 16 loops.
constexpr int kNchains = 8;

double since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// Eq (1)/(2) (OP2) or Eq (3) (CA) for one invocation of `spec`.
double predict_chain(const core::World& w, const core::ChainSpec& spec,
                     const std::set<mesh::dat_id>& outer_written,
                     const std::map<std::string, double>& g,
                     const model::Machine& mach, bool ca) {
  const core::ChainAnalysis an = core::inspect_chain(w.mesh(), spec);
  const std::set<mesh::dat_id> stale =
      model::steady_state_stale(spec, outer_written);
  model::ChainComponents comps =
      model::extract_components(w.mesh(), w.plan(), spec, an, &stale);
  model::apply_kernel_costs(spec, g, mach.compute_scale, &comps);
  return ca ? model::t_ca_chain(mach, comps.ca_terms)
            : model::t_op2_chain(mach, comps.op2_terms);
}

class MgcfdCase final : public Case {
public:
  MgcfdCase(const Workload& w, std::uint64_t seed)
      : ca_(w.ca),
        prob_(apps::mgcfd::build_problem(w.nodes, /*num_levels=*/3, seed)),
        spec_(apps::mgcfd::synthetic_chain_spec(prob_, kNchains)) {}

  mesh::MeshDef& mesh() override { return prob_.mg.mesh; }

  void prologue(core::Runtime&) const override {}

  std::function<void(Spans*)> bind(core::Runtime& rt) const override {
    return [&rt, h = apps::mgcfd::resolve_handles(rt, prob_)](Spans* s) {
      if (s == nullptr) {
        apps::mgcfd::solver_iteration(rt, h);
        apps::mgcfd::run_synthetic_chain(rt, h, kNchains);
        return;
      }
      const auto t0 = std::chrono::steady_clock::now();
      apps::mgcfd::solver_iteration(rt, h);
      s->solver_s += since(t0);
      const auto t1 = std::chrono::steady_clock::now();
      apps::mgcfd::run_synthetic_chain(rt, h, kNchains);
      s->chain_s += since(t1);
    };
  }

  std::vector<ChainModel> predict(
      const core::World& w, const std::map<std::string, double>& g,
      const model::Machine& mach) const override {
    return {{"synthetic",
             predict_chain(w, spec_, {prob_.spres}, g, mach, ca_)}};
  }

private:
  bool ca_;
  apps::mgcfd::Problem prob_;
  core::ChainSpec spec_;
};

class HydraCase final : public Case {
public:
  HydraCase(const Workload& w, std::uint64_t seed)
      : prob_(apps::hydra::build_problem(w.nodes, seed)),
        specs_(apps::hydra::chain_specs(prob_)) {}

  mesh::MeshDef& mesh() override { return prob_.an.mesh; }

  void prologue(core::Runtime& rt) const override {
    apps::hydra::run_setup(rt, apps::hydra::resolve_handles(rt, prob_));
  }

  std::function<void(Spans*)> bind(core::Runtime& rt) const override {
    return [&rt, h = apps::hydra::resolve_handles(rt, prob_)](Spans*) {
      apps::hydra::run_rk_iteration(rt, h);
    };
  }

  std::vector<ChainModel> predict(
      const core::World& w, const std::map<std::string, double>& g,
      const model::Machine& mach) const override {
    // Dats the RK stage/update loops re-dirty between chain invocations.
    const std::set<mesh::dat_id> rk_written = {
        prob_.qo,  prob_.qp,  prob_.ql,   prob_.qrg,  prob_.qmu,
        prob_.vol, prob_.xp,  prob_.jacp, prob_.jaca, prob_.jacb};
    std::vector<ChainModel> out;
    for (const auto& [name, spec] : specs_)
      if (w.config().chains.enabled(name))
        out.push_back(
            {name, predict_chain(w, spec, rk_written, g, mach, true)});
    return out;
  }

private:
  apps::hydra::Problem prob_;
  std::map<std::string, core::ChainSpec> specs_;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    Workload wire;
    wire.name = "mgcfd_wire";
    wire.app = AppKind::Mgcfd;
    wire.nodes = 100000;
    wire.partitioner = partition::Kind::KWay;
    wire.ca = true;
    wire.post_delay_s = 300e-6;

    Workload wire_op2 = wire;
    wire_op2.name = "mgcfd_wire_op2";
    wire_op2.ca = false;

    Workload rk;
    rk.name = "hydra_rk";
    rk.app = AppKind::Hydra;
    rk.nodes = 60000;
    rk.partitioner = partition::Kind::RIB;

    Workload threads = rk;
    threads.name = "hydra_rk_threads";
    threads.nranks = 2;
    threads.threads_per_rank = 2;
    return std::vector<Workload>{wire, wire_op2, rk, threads};
  }();
  return all;
}

}  // namespace

const Workload& workload_by_name(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return w;
  raise("unknown workload: " + name);
}

core::WorldConfig world_config(const Workload& w) {
  core::WorldConfig cfg;
  cfg.nranks = w.nranks;
  cfg.threads_per_rank = w.threads_per_rank;
  cfg.partitioner = w.partitioner;
  cfg.halo_depth = kHaloDepth;
  if (w.app == AppKind::Mgcfd) {
    if (w.ca) cfg.chains.enable("synthetic", 2 * kNchains, 2);
  } else {
    // The chains.cfg selection: CA for the chains that win in the
    // paper's Fig 12/13, per-loop OP2 for weight and gradl.
    cfg.chains.disable("weight");
    cfg.chains.enable("period", 6, 2);
    cfg.chains.disable("gradl");
    cfg.chains.enable("vflux", 2, 1);
    cfg.chains.enable("iflux", 2, 1);
    cfg.chains.enable("jacob", 3, 1);
  }
  return cfg;
}

std::unique_ptr<Case> build_case(const Workload& w, std::uint64_t seed) {
  if (w.app == AppKind::Mgcfd) return std::make_unique<MgcfdCase>(w, seed);
  return std::make_unique<HydraCase>(w, seed);
}

model::Machine host_machine(const Workload& w) {
  model::Machine mach;
  mach.name = "host";
  mach.net.latency_s = w.post_delay_s;
  mach.threads_per_rank = w.threads_per_rank;
  return mach;
}

}  // namespace e2e
