// e2e_bench — the end-to-end benchmark binary (see WORKLOADS.md).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--episodes <n>] [--setups <k>]
//
// One run: set the workload up `setups` times (problem build, World
// construction, warm-up steps) and keep the last World; then run timed
// episodes for `seconds` (or exactly `episodes` of them). An episode
// restores the post-warm-up dat values, runs one untimed re-warm step in
// one World::run call and 6 timed, barrier-to-barrier
// steps in a second one, and checks its final dats. Finally a 1-rank
// all-OP2 World runs the same seed and step count; every episode's dats
// must match it within 1e-9 relative.
//
// --trace 0 reports the end-to-end metrics (step_s, setup_s,
// peak_rss_mb); --trace 1 reports the per-layer metrics: spans timed
// here around the calls into each module, LoopMetrics counters diffed
// between the two run calls of each episode, and model predictions.
// The last stdout line is one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// where attempted/failed count timed steps (fail_frac = failed /
// attempted).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "op2ca/comm/transport.hpp"
#include "op2ca/halo/halo_plan.hpp"
#include "op2ca/partition/quality.hpp"
#include "op2ca/util/error.hpp"
#include "workloads.hpp"

using namespace op2ca;
using e2e::Workload;
using Clock = std::chrono::steady_clock;

namespace {

/// Untimed steps after World construction: inspection, plan builds and
/// channel set-up happen here.
constexpr int kWarmSteps = 2;
/// Timed steps per episode.
constexpr int kEpisodeSteps = 6;
/// Reference steps timed for the model's per-iteration loop costs.
constexpr int kModelSteps = 8;
/// Relative tolerance of the result check against the 1-rank reference.
constexpr double kRelTol = 1e-9;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  OP2CA_REQUIRE(!v.empty(), "quantile of no samples");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int episodes = 0;  ///< > 0: run exactly this many, ignoring seconds.
  int setups = 5;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    OP2CA_REQUIRE(i + 1 < argc, "missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::stoull(val);
    else if (key == "--seconds") a.seconds = std::stod(val);
    else if (key == "--trace") a.trace = std::stoi(val) != 0;
    else if (key == "--episodes") a.episodes = std::stoi(val);
    else if (key == "--setups") a.setups = std::stoi(val);
    else raise("unknown option " + key);
  }
  OP2CA_REQUIRE(!a.workload.empty(), "--workload is required");
  OP2CA_REQUIRE(a.seconds > 0 && a.setups >= 1 && a.episodes >= 0,
                "--seconds, --setups and --episodes must be positive");
  return a;
}

// ---- dats -----------------------------------------------------------

using Dats = std::vector<std::vector<double>>;

Dats fetch_all(const core::World& w) {
  Dats out;
  for (mesh::dat_id d = 0; d < w.mesh().num_dats(); ++d)
    out.push_back(w.fetch_dat(d));
  return out;
}

void reset_all(core::World& w, const Dats& dats) {
  for (mesh::dat_id d = 0; d < w.mesh().num_dats(); ++d)
    w.reset_dat(d, dats[static_cast<std::size_t>(d)]);
}

/// FNV-1a over the bytes of every dat, one dat fetched at a time.
std::uint64_t hash_all(const core::World& w) {
  std::uint64_t h = 14695981039346656037ull;
  for (mesh::dat_id d = 0; d < w.mesh().num_dats(); ++d) {
    const std::vector<double> v = w.fetch_dat(d);
    const auto* p = reinterpret_cast<const unsigned char*>(v.data());
    for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Largest |a - b| over all elements of a dat, relative to the dat's
/// largest |b|; the maximum over dats.
double max_rel_diff(const Dats& a, const Dats& b) {
  OP2CA_REQUIRE(a.size() == b.size(), "dat count mismatch");
  double worst = 0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    OP2CA_REQUIRE(a[d].size() == b[d].size(), "dat size mismatch");
    double scale = 0, diff = 0;
    for (std::size_t i = 0; i < a[d].size(); ++i) {
      scale = std::max(scale, std::abs(b[d][i]));
      diff = std::max(diff, std::abs(a[d][i] - b[d][i]));
    }
    // NaN anywhere fails the check.
    if (!(diff <= diff) || !(scale <= scale)) return INFINITY;
    worst = std::max(worst, scale > 0 ? diff / scale : diff);
  }
  return worst;
}

// ---- set-up ---------------------------------------------------------

/// Spans of one set-up. partition_s / plan_s (traced runs only) time
/// standalone calls identical to the ones World's constructor makes, so
/// they are children of world_s and not part of total_s.
struct SetupSpans {
  double mesh_s = 0, partition_s = 0, plan_s = 0, world_s = 0,
         warmup_s = 0, total_s = 0;
  double edge_cut = 0, import_elems = 0;
};

struct Instance {
  std::unique_ptr<e2e::Case> app;
  std::unique_ptr<core::World> world;
};

void set_post_delay(core::World& w, double seconds) {
  if (seconds <= 0) return;
  auto* fabric = dynamic_cast<sim::Transport*>(&w.transport());
  OP2CA_REQUIRE(fabric != nullptr, "post delay needs the sim transport");
  for (rank_t r = 0; r < w.config().nranks; ++r)
    fabric->set_post_delay(r, seconds);
}

/// Runs the app's prologue plus `steps` steps in one World::run call.
void run_steps(core::World& w, const e2e::Case& app, bool prologue,
               int steps) {
  w.run([&](core::Runtime& rt) {
    if (prologue) app.prologue(rt);
    const auto step = app.bind(rt);
    for (int s = 0; s < steps; ++s) step(nullptr);
  });
}

Instance set_up(const Workload& wl, std::uint64_t seed, bool trace,
                SetupSpans* sp) {
  const auto t0 = Clock::now();
  Instance in;
  in.app = e2e::build_case(wl, seed);
  sp->mesh_s = since(t0);
  const core::WorldConfig cfg = e2e::world_config(wl);
  if (trace) {
    auto t = Clock::now();
    const partition::Partition part = partition::partition_mesh(
        in.app->mesh(), cfg.nranks, cfg.partitioner, /*seed_set=*/0);
    sp->partition_s = since(t);
    sp->edge_cut = static_cast<double>(
        partition::evaluate_partition(in.app->mesh(), part, 0).edge_cut);
    t = Clock::now();
    halo::HaloPlanOptions opts;
    opts.depth = cfg.halo_depth;
    opts.build_local_maps = true;
    const halo::HaloPlan plan =
        halo::build_halo_plan(in.app->mesh(), part, opts);
    sp->plan_s = since(t);
    for (const halo::RankPlan& rp : plan.ranks)
      for (const halo::SetLayout& lay : rp.sets)
        sp->import_elems += static_cast<double>(lay.total - lay.num_owned);
  }
  auto t = Clock::now();
  in.world = std::make_unique<core::World>(std::move(in.app->mesh()), cfg);
  set_post_delay(*in.world, wl.post_delay_s);
  sp->world_s = since(t);
  t = Clock::now();
  run_steps(*in.world, *in.app, /*prologue=*/true, kWarmSteps);
  sp->warmup_s = since(t);
  sp->total_s = since(t0) - sp->partition_s - sp->plan_s;
  return in;
}

// ---- counters -------------------------------------------------------

using MetricMap = std::map<std::string, core::LoopMetrics>;

struct Snapshot {
  MetricMap loops, chains;
};

Snapshot snapshot(const core::World& w) {
  return {w.loop_metrics(), w.chain_metrics()};
}

/// Additive counters of a window of steps, from two snapshots. Fields
/// merged as a maximum (max_msg_bytes, max_neighbors, max_colours)
/// cannot be diffed; they are the maxima over the whole run so far.
struct Window {
  double pack = 0, core = 0, wait = 0, unpack = 0, halo = 0, busy = 0;
  double core_iters = 0, halo_iters = 0, redundant = 0, regions = 0;
  double plan_builds = 0, staging_allocs = 0, chunks = 0;
  double msgs = 0, bytes = 0;
  double max_msg_bytes = 0, max_neighbors = 0, max_colours = 0;
  double chain_core = 0, chain_iters = 0;
  struct Chain {
    double wall = 0, msgs = 0, calls = 0;
  };
  std::map<std::string, Chain> chains;

  void add(const core::LoopMetrics& a, const core::LoopMetrics& b) {
    pack += a.pack_seconds - b.pack_seconds;
    core += a.core_seconds - b.core_seconds;
    wait += a.wait_seconds - b.wait_seconds;
    unpack += a.unpack_seconds - b.unpack_seconds;
    halo += a.halo_seconds - b.halo_seconds;
    busy += a.busy_seconds - b.busy_seconds;
    core_iters += static_cast<double>(a.core_iters - b.core_iters);
    halo_iters += static_cast<double>(a.halo_iters - b.halo_iters);
    redundant += static_cast<double>(a.redundant_elems - b.redundant_elems);
    regions += static_cast<double>(a.dispatch_regions - b.dispatch_regions);
    plan_builds += static_cast<double>(a.plan_builds - b.plan_builds);
    staging_allocs += static_cast<double>(a.staging_allocs - b.staging_allocs);
    chunks += static_cast<double>(a.chunks - b.chunks);
    msgs += static_cast<double>(a.msgs - b.msgs);
    bytes += static_cast<double>(a.bytes - b.bytes);
    max_msg_bytes =
        std::max(max_msg_bytes, static_cast<double>(a.max_msg_bytes));
    max_neighbors = std::max(max_neighbors, double{1} * a.max_neighbors);
    max_colours = std::max(max_colours, double{1} * a.max_colours);
  }

  /// Adds the window between `before` and `after`. Loops count once:
  /// a CA chain's loops are metered only under the chain, an OP2-mode
  /// chain's under each loop (its chain row repeats them).
  void add(const Snapshot& before, const Snapshot& after,
           const core::ChainConfig& sel) {
    static const core::LoopMetrics zero;
    const auto prev = [](const MetricMap& m,
                         const std::string& k) -> const core::LoopMetrics& {
      const auto it = m.find(k);
      return it == m.end() ? zero : it->second;
    };
    for (const auto& [name, m] : after.loops) add(m, prev(before.loops, name));
    for (const auto& [name, m] : after.chains) {
      const core::LoopMetrics& b = prev(before.chains, name);
      if (sel.enabled(name)) add(m, b);
      Chain& c = chains[name];
      c.wall += m.wall_seconds - b.wall_seconds;
      c.msgs += static_cast<double>(m.msgs - b.msgs);
      c.calls += static_cast<double>(m.calls - b.calls);
      chain_core += static_cast<double>(m.core_iters - b.core_iters);
      chain_iters += static_cast<double>(m.core_iters - b.core_iters +
                                         m.halo_iters - b.halo_iters);
    }
  }
};

// ---- output ---------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << v << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// ---- the run --------------------------------------------------------

int run(const Args& args) {
  const Workload& wl = e2e::workload_by_name(args.workload);
  std::cout << "workload " << wl.name << " seed " << args.seed << ": "
            << wl.nranks << " ranks x " << wl.threads_per_rank
            << " threads, " << partition::kind_name(wl.partitioner)
            << ", depth " << e2e::kHaloDepth << ", post cost "
            << wl.post_delay_s * 1e6 << " us\n";

  // Set-up, `setups` times; the last instance is kept.
  std::vector<SetupSpans> setups;
  Instance in;
  for (int i = 0; i < args.setups; ++i) {
    in = Instance{};  // free the previous World first
    SetupSpans sp;
    in = set_up(wl, args.seed, args.trace, &sp);
    setups.push_back(sp);
  }
  core::World& w = *in.world;
  const e2e::Case& app = *in.app;
  const Dats checkpoint = fetch_all(w);

  // Timed episodes.
  const int nranks = wl.nranks;
  const int E = kEpisodeSteps;
  std::vector<double> plain, traced;  // per-step samples, rank 0.
  std::vector<e2e::Spans> spans(static_cast<std::size_t>(nranks));
  Window win;
  long attempted = 0, failed = 0;
  std::uint64_t first_hash = 0;
  bool have_hash = false, episodes_equal = true;
  const int min_episodes = args.trace ? 2 : 1;
  const auto start = Clock::now();
  for (int ep = 0;; ++ep) {
    const bool more = args.episodes > 0 ? ep < args.episodes
                                        : since(start) < args.seconds;
    if (ep >= min_episodes && !more) break;
    const bool tr = args.trace && ep % 2 == 1;
    std::vector<double> samples;
    attempted += E;
    try {
      reset_all(w, checkpoint);
      run_steps(w, app, /*prologue=*/false, 1);
      const Snapshot before = snapshot(w);
      w.run([&](core::Runtime& rt) {
        const auto step = app.bind(rt);
        e2e::Spans* sp =
            tr ? &spans[static_cast<std::size_t>(rt.rank())] : nullptr;
        rt.barrier();
        for (int s = 0; s < E; ++s) {
          const auto t0 = Clock::now();
          step(sp);
          rt.barrier();
          if (rt.rank() == 0) samples.push_back(since(t0));
        }
      });
      if (tr) win.add(before, snapshot(w), w.config().chains);
      // Every episode starts from the same dats, so every episode must
      // end on the same bits.
      const std::uint64_t h = hash_all(w);
      if (!have_hash) first_hash = h;
      have_hash = true;
      if (h != first_hash) {
        episodes_equal = false;
        failed += E;
      }
    } catch (const std::exception& e) {
      std::cout << "  episode " << ep << " failed: " << e.what() << '\n';
      failed += E;
    }
    (tr ? traced : plain).insert((tr ? traced : plain).end(),
                                 samples.begin(), samples.end());
  }
  const double rss = peak_rss_mb();

  // 1-rank, all-OP2 reference of the same seed and step count. The
  // traced run keeps the World for the model's halo plan; the untraced
  // one frees it so the reference does not share its memory.
  double ref_diff = INFINITY;
  std::map<std::string, double> g;  // seconds per iteration, per loop.
  try {
    const Dats last = fetch_all(w);
    if (!args.trace) in = Instance{};
    std::unique_ptr<e2e::Case> ref_app = e2e::build_case(wl, args.seed);
    core::WorldConfig ref_cfg;
    ref_cfg.nranks = 1;  // default ChainConfig: every chain on OP2
    core::World ref(std::move(ref_app->mesh()), ref_cfg);
    run_steps(ref, *ref_app, /*prologue=*/true, kWarmSteps + 1 + E);
    ref_diff = max_rel_diff(last, fetch_all(ref));
    // The model's per-iteration costs (traced runs): the machine running
    // the benchmark, one rank, steady state.
    const MetricMap warm = ref.loop_metrics();
    if (args.trace) run_steps(ref, *ref_app, /*prologue=*/false, kModelSteps);
    for (const auto& [name, m] : ref.loop_metrics()) {
      const core::LoopMetrics& before = warm.at(name);
      const std::int64_t iters = m.core_iters + m.halo_iters -
                                 before.core_iters - before.halo_iters;
      if (iters > 0)
        g[name] = (m.wall_seconds - before.wall_seconds) /
                  static_cast<double>(iters);
    }
  } catch (const std::exception& e) {
    std::cout << "  reference failed: " << e.what() << '\n';
  }
  if (!(ref_diff <= kRelTol)) failed = attempted;
  const bool correct = failed == 0;

  std::vector<double> all = plain;
  all.insert(all.end(), traced.begin(), traced.end());
  const auto setup_median = [&](double SetupSpans::*f) {
    std::vector<double> v;
    for (const SetupSpans& s : setups) v.push_back(s.*f);
    return median(v);
  };
  // step_s is the 10th percentile of the steps: on a shared host, phases
  // of CPU steal stretch barrier-coupled steps for tens of seconds, which
  // moves the median from run to run about twice as far (WORKLOADS.md).
  const double step_s = quantile(all, 0.1);
  std::cout << std::setprecision(6)
            << "  step_s       " << step_s << " s, p10 of " << all.size()
            << " steps (median " << median(all) << " s, p90 "
            << quantile(all, 0.9) << " s)\n"
            << "  setup_s      " << setup_median(&SetupSpans::total_s)
            << " s, median of " << setups.size() << " set-ups\n"
            << "  peak_rss_mb  " << rss << " MB\n"
            << "  fail_frac    "
            << static_cast<double>(failed) / static_cast<double>(attempted)
            << " (" << failed << " of " << attempted << " steps)\n"
            << "  check        max rel diff " << ref_diff
            << " vs 1-rank reference (tolerance " << kRelTol
            << "), episodes bitwise equal: "
            << (episodes_equal ? "yes" : "no") << '\n';

  if (!args.trace) {
    print_result(correct, attempted, failed,
                 {{"step_s", step_s, "s"},
                  {"setup_s", setup_median(&SetupSpans::total_s), "s"},
                  {"peak_rss_mb", rss, "MB"}});
    return 0;
  }

  // Per-layer metrics: per step, times as the mean over ranks.
  const double steps = static_cast<double>(traced.size());
  const double per_rank_step = 1.0 / (steps * nranks);
  // Phase times are means over the traced steps, so the decomposition
  // is of the mean traced step.
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0;
    for (double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  const double traced_s = mean(traced);
  std::vector<Metric> m = {
      {"mesh.build_s", setup_median(&SetupSpans::mesh_s), "s"},
      {"partition.s", setup_median(&SetupSpans::partition_s), "s"},
      {"partition.edge_cut", setups.back().edge_cut, "count"},
      {"halo.plan_s", setup_median(&SetupSpans::plan_s), "s"},
      {"halo.import_elems", setups.back().import_elems, "count"},
      {"core.world_s", setup_median(&SetupSpans::world_s), "s"},
      {"core.warmup_s", setup_median(&SetupSpans::warmup_s), "s"},
      {"core.pack_s", win.pack * per_rank_step, "s"},
      {"core.core_s", win.core * per_rank_step, "s"},
      {"core.unpack_s", win.unpack * per_rank_step, "s"},
      {"core.halo_s", win.halo * per_rank_step, "s"},
      {"comm.wait_s", win.wait * per_rank_step, "s"},
      {"core.unattributed_s",
       traced_s - (win.pack + win.core + win.unpack + win.halo + win.wait) *
                    per_rank_step,
       "s"},
      {"core.core_iters", win.core_iters / steps, "count"},
      {"core.halo_iters", win.halo_iters / steps, "count"},
      {"core.redundant_elems", win.redundant / steps, "count"},
      {"core.dispatch_regions", win.regions / steps, "count"},
      {"core.overlap_frac",
       win.chain_iters > 0 ? win.chain_core / win.chain_iters : 0, "ratio"},
      {"core.plan_builds", win.plan_builds / steps, "count"},
      {"core.staging_allocs", win.staging_allocs / steps, "count"},
      {"core.max_colours", win.max_colours, "count"},
      {"comm.msgs_per_step", win.msgs / steps, "count"},
      {"comm.bytes_per_step", win.bytes / steps, "B"},
      {"comm.max_msg_bytes", win.max_msg_bytes, "B"},
      {"comm.max_neighbors", win.max_neighbors, "count"},
      {"util.busy_s", win.busy * per_rank_step, "s"},
      {"util.chunks", win.chunks / steps, "count"},
      {"util.idle_frac",
       wl.threads_per_rank > 1
           ? 1.0 - win.busy / (nranks * wl.threads_per_rank *
                               (traced_s * steps))
           : 0.0,
       "ratio"},
  };
  double solver_s = 0, chain_s = 0;  // max over ranks
  for (const e2e::Spans& s : spans) {
    solver_s = std::max(solver_s, s.solver_s / steps);
    chain_s = std::max(chain_s, s.chain_s / steps);
  }
  m.push_back({"mgcfd.solver_s", solver_s, "s"});
  m.push_back({"mgcfd.chain_s", chain_s, "s"});
  for (const char* c : {"gradl", "vflux", "iflux", "jacob", "period"}) {
    const bool hydra = wl.app == e2e::AppKind::Hydra;
    const Window::Chain ch = hydra ? win.chains[c] : Window::Chain{};
    m.push_back({std::string("hydra.") + c + ".s",
                 ch.wall * per_rank_step, "s"});
    m.push_back({std::string("hydra.") + c + ".msgs", ch.msgs / steps,
                 "count"});
  }

  // Model predictions beside the measurements (never gated). The
  // measured chain time is one invocation, mean over ranks; MG-CFD's is
  // the mgcfd.chain_s span.
  std::map<std::string, std::pair<double, double>> model;  // pred, meas
  if (!g.empty()) {
    for (const e2e::ChainModel& cm :
         in.app->predict(*in.world, g, e2e::host_machine(wl))) {
      double meas = chain_s;
      if (wl.app == e2e::AppKind::Hydra) {
        const Window::Chain& ch = win.chains[cm.chain];
        meas = ch.calls > 0 ? ch.wall / nranks / ch.calls : 0;
      }
      model[cm.chain] = {cm.pred_s, meas};
    }
  }
  for (const char* c : {"synthetic", "period", "vflux", "iflux", "jacob"}) {
    const auto it = model.find(c);
    const double pred = it == model.end() ? 0 : it->second.first;
    const double meas = it == model.end() ? 0 : it->second.second;
    m.push_back({std::string("model.") + c + ".pred_s", pred, "s"});
    m.push_back({std::string("model.") + c + ".residual_pct",
                 meas > 0 ? 100.0 * (pred - meas) / meas : 0, "%"});
  }
  const double plain_s = mean(plain);
  m.push_back({"trace.step_s", traced_s, "s"});
  m.push_back(
      {"trace.overhead_pct", 100.0 * (traced_s - plain_s) / plain_s, "%"});
  m.push_back({"apps.step_median_s", median(all), "s"});
  m.push_back({"apps.step_tail_s", quantile(all, 0.9), "s"});
  m.push_back({"apps.step_samples", static_cast<double>(all.size()),
               "count"});
  for (const Metric& x : m)
    std::cout << "  " << std::left << std::setw(26) << x.name << ' '
              << x.value << ' ' << x.unit << '\n';
  print_result(correct, attempted, failed, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << '\n';
    return 1;
  }
}
