// The end-to-end benchmark's fixed workloads (see WORKLOADS.md): what
// each one builds, how its World is configured, what one timestep runs,
// and the Eq (1)/(3) predictions for the chains it measures.
//
// A workload sets only nranks, threads_per_rank, partitioner, halo_depth
// and the chain selection; every other WorldConfig field keeps its
// default.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "op2ca/core/runtime.hpp"
#include "op2ca/model/machine.hpp"

namespace e2e {

using namespace op2ca;

enum class AppKind { Mgcfd, Hydra };

struct Workload {
  std::string name;
  AppKind app = AppKind::Mgcfd;
  gidx_t nodes = 0;              ///< level-0 / mesh node target.
  int nranks = 4;
  int threads_per_rank = 1;
  partition::Kind partitioner = partition::Kind::KWay;
  bool ca = true;                ///< MG-CFD: synthetic chain on CA.
  double post_delay_s = 0;       ///< injected per-message post cost.
};

/// Halo depth of every workload (the paper's r = 2).
inline constexpr int kHaloDepth = 2;

/// Raises on an unknown name.
const Workload& workload_by_name(const std::string& name);

/// The World configuration of `w` (chain selection included).
core::WorldConfig world_config(const Workload& w);

/// Per-rank spans around the public app calls of traced steps.
struct Spans {
  double solver_s = 0;  ///< mgcfd::solver_iteration.
  double chain_s = 0;   ///< mgcfd::run_synthetic_chain.
};

/// One chain's model prediction beside its measurement.
struct ChainModel {
  std::string chain;
  double pred_s = 0;    ///< one invocation, Eq (1)/(2) or (3).
};

/// A built problem of one workload: the mesh (moved into a World) plus
/// the dat handles the app's timestep needs.
class Case {
public:
  virtual ~Case() = default;

  /// The problem's mesh; the caller moves it into the World.
  virtual mesh::MeshDef& mesh() = 0;
  /// Work done once after World construction (Hydra's run_setup).
  virtual void prologue(core::Runtime& rt) const = 0;
  /// Resolves handles on `rt` and returns one timestep; with non-null
  /// `spans`, the step adds the durations of its app calls there.
  virtual std::function<void(Spans*)> bind(core::Runtime& rt) const = 0;
  /// Eq (1)/(3) predictions for the chains the workload runs on CA (and
  /// for MG-CFD's synthetic chain on OP2), from per-loop costs `g` in
  /// seconds per iteration.
  virtual std::vector<ChainModel> predict(
      const core::World& w, const std::map<std::string, double>& g,
      const model::Machine& mach) const = 0;
};

/// Builds the problem of `w`, dats initialised from `seed`.
std::unique_ptr<Case> build_case(const Workload& w, std::uint64_t seed);

/// The model's machine for `w`: the running machine's compute (g as
/// measured), the injected post cost as latency L, and the workload's
/// threads per rank.
model::Machine host_machine(const Workload& w);

}  // namespace e2e
