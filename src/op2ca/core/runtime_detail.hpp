// Internal runtime structures shared by the executors. Not part of the
// public API.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "op2ca/core/runtime.hpp"
#include "op2ca/gpu/device_space.hpp"
#include "op2ca/gpu/hierarchy.hpp"
#include "op2ca/halo/grouped.hpp"
#include "op2ca/mesh/colouring.hpp"
#include "op2ca/mesh/reorder.hpp"
#include "op2ca/util/buffer_pool.hpp"
#include "op2ca/util/thread_pool.hpp"
#include "op2ca/util/timer.hpp"

namespace op2ca::core::detail {

/// Reserved message tags (user collectives use negative tags; these are
/// distinct positive ranges).
inline constexpr sim::tag_t kChainTag = 512;
inline constexpr sim::tag_t kLoopTagBase = 1024;  // + dat*2 + class.

/// One dat's per-rank storage.
struct RankDat {
  int dim = 0;
  /// Storage descriptor: element order is always the halo-plan order
  /// (owned | exec | nonexec); `layout` says how those elements are
  /// arranged inside `data` (AoS rows by default, SoA planes when
  /// WorldConfig::layout selects them).
  mesh::DatLayout layout;
  /// 64-byte-aligned backing store, layout.alloc_doubles() long.
  util::AlignedDVec data;
  /// Halo layers currently in sync with the owners; 0 = level-1 halo
  /// stale. This generalizes the paper's dirty bit to multi-layer halos.
  int fresh_depth = 0;
};

/// One cached halo exchange, the single message machinery of both
/// executors: the participating dats' sync specs (data pointers rebound
/// each epoch), the grouped-plan sides — each with its peer, tag and
/// flattened gather/scatter lists — and reusable receive slots, requests
/// and persistent channels. The OP2 executor caches one per dat (Eq (1):
/// an exec and a nonexec message per neighbour), the CA executor one per
/// (chain, stale mask) (Fig 8: one grouped message per neighbour).
/// Steady-state epochs touch no maps and allocate nothing.
struct Exchange {
  std::vector<mesh::dat_id> dats;  ///< specs-parallel.
  std::vector<halo::DatSyncSpec> specs;
  std::vector<halo::GroupedPlan::Side> sides;
  /// Receive slots, sides-parallel. A slot paired with a send to the
  /// same peer keeps its payload for that send's next pack.
  std::vector<ByteBuf> recv_bufs;
  /// sides-parallel: the receive slot a side's send packs into (the k-th
  /// send to a peer pairs with the k-th receive from it), or -1 for an
  /// unpaired send.
  std::vector<std::int32_t> send_spare;
  std::vector<bool> recv_kept;  ///< sides-parallel: paired with a send.
  std::vector<sim::Request> requests;  ///< reused capacity.
  /// Persistent channels (WorldConfig::transport.persistent), negotiated
  /// once when the exchange is built and keyed by the hash of whatever
  /// invalidates it. Sides-parallel; empty when persistence is off.
  std::vector<sim::Channel> send_channels;
  std::vector<sim::Channel> recv_channels;
};

/// Everything the CA executor caches per chain name. `structure` is a
/// hash of the loops' (set, args) shape: a name reused with different
/// loops rebuilds the plan instead of executing a stale analysis.
struct ChainPlan {
  std::uint64_t structure = 0;
  ChainAnalysis analysis;
  std::vector<LIdxVec> exec_lists;  ///< per-loop sparse-tiling slice.
  std::map<std::uint64_t, Exchange> exchanges;  ///< by stale mask.
};

/// A staging task folded into a loop's task-graph epoch (pooled
/// ranks): `body` gathers halo rows into a send buffer and posts the
/// isend from whichever worker runs it. `reads` lists the rows the pack
/// reads per dat — the blocks that WRITE any of those rows depend on the
/// pack (it must observe pre-loop values), while every other block runs
/// concurrently with it, which is how packing overlaps core compute.
struct PackTask {
  struct Read {
    mesh::dat_id dat = -1;
    const LIdxVec* rows = nullptr;  ///< target-set row ids.
  };
  std::function<void()> body;
  std::vector<Read> reads;
};

/// The cached dependency structure of one (set, conflict maps) pair, the
/// unit of every threaded indirect-write sweep: the block colouring's
/// block-conflict adjacency (mesh::block_conflict_graph), lazily-built
/// per-view writer incidence (target row -> writing blocks, walked to
/// wire pack tasks ahead of the blocks that overwrite their rows), and
/// per-(begin, end) compiled subgraphs — dense task ids, successor CSR
/// oriented low colour -> high colour, and in-range indegrees — so
/// steady-state epochs reuse arrays without touching the adjacency.
struct LoopGraph {
  std::vector<mesh::map_id> maps;  ///< conflict maps (view order).
  mesh::BlockGraph graph;
  /// writer_off[v]/writer_blk[v]: CSR of view v's targets -> blocks that
  /// contain an element mapping onto the target. Empty until a pack of a
  /// dat written through view v first needs it.
  std::vector<std::vector<std::int32_t>> writer_off;
  std::vector<std::vector<std::int32_t>> writer_blk;
  struct Compiled {
    lidx_t first_block = 0;
    std::int32_t num_tasks = 0;
    std::vector<std::int32_t> succ_off, succ, indeg;
  };
  std::map<std::pair<lidx_t, lidx_t>, Compiled> ranges;
};

struct RankState {
  World* world = nullptr;
  rank_t rank = -1;
  sim::Comm comm;
  std::vector<RankDat> dats;
  bool serial_dispatch = false;  ///< copy of WorldConfig::serial_dispatch.

  // Chain capture.
  bool capturing = false;
  std::string chain_name;
  std::vector<LoopRecord> chain_loops;

  // Lazy-evaluation queue (WorldConfig::lazy): loops deferred until the
  // next synchronisation point, then flushed as an auto-formed chain.
  std::vector<LoopRecord> lazy_queue;

  // Temporal tile accumulator (WorldConfig::tile / ChainConfig tile=):
  // completed chain invocations awaiting fusion — one inner vector per
  // invocation, all of the chain named `tile_chain`, flushed as a single
  // fused epoch when `tile_target` invocations have accumulated or any
  // synchronisation point intervenes. `tile_fallbacks` names the
  // (chain, tile) combinations already warned about, so the loud
  // per-invocation fallback logs once, not every timestep.
  std::vector<std::vector<LoopRecord>> tile_queue;
  std::string tile_chain;
  int tile_target = 1;
  std::set<std::string> tile_fallbacks;

  // Inspector-built plans, cached by chain name (CA executor) and by dat
  // (per-loop executor), plus the staging-buffer pool shared by both.
  std::map<std::string, ChainPlan> chain_plans;
  std::vector<std::unique_ptr<Exchange>> loop_exchanges;  ///< per dat.
  BufferPool staging;
  /// Payloads of this rank's unpaired sends, handed back by their
  /// receivers and keyed by (destination, tag, bytes). Receivers push
  /// from their own threads, so every access holds returned_mu.
  std::mutex returned_mu;
  std::map<std::tuple<rank_t, sim::tag_t, std::size_t>, std::vector<ByteBuf>>
      returned;
  std::int64_t dispatch_regions = 0;  ///< running region-body call count.

  // Intra-rank threading (WorldConfig::threads_per_rank > 1): the worker
  // pool, the block-graph cache — one LoopGraph per (set, conflict maps)
  // combination, living next to the exchange plans — and running
  // counters the executors snapshot into LoopMetrics.
  std::unique_ptr<util::ThreadPool> pool;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>, LoopGraph>
      loop_graphs;
  std::int64_t dispatch_chunks = 0;   ///< running pool-chunk count.
  int dispatch_max_colours = 0;       ///< reset per loop by the executors.
  std::int64_t dispatch_tasks = 0;   ///< graph task bodies executed.
  std::int64_t dispatch_steals = 0;  ///< cross-deque steals.
  double dispatch_dep_wait = 0;      ///< dependency-starved idle seconds.

  // Device-resident execution (WorldConfig::device): the rank's mirror
  // space (null when the device is off) and the hierarchical two-level
  // schedule cache — one HierColouring per (set, conflict maps), the
  // device analogue of `loop_graphs`.
  std::unique_ptr<gpu::DeviceSpace> device;
  std::map<std::pair<mesh::set_id, std::vector<mesh::map_id>>,
           gpu::HierColouring>
      hier_colourings;

  /// Ordering-quality proxies per loop name (mesh::ordering_quality of
  /// the loop's widest indirection, computed once — it is O(iterations)
  /// and belongs to inspection, not the hot path).
  std::map<std::string, mesh::OrderingQuality> loop_qualities;

  // Per-rank metrics, merged by the World after each run.
  std::map<std::string, LoopMetrics> loop_metrics;
  std::map<std::string, LoopMetrics> chain_metrics;

  RankState(World* w, sim::TransportBackend& transport, rank_t r);

  const halo::RankPlan& rank_plan() const;
  const halo::SetLayout& layout(mesh::set_id s) const;
  RankDat& rank_dat(mesh::dat_id d);
  // Staging-buffer circulation. The zero-copy isend gives every packed
  // buffer away, so each send of an exchange needs a buffer per epoch
  // without allocating:
  //  - a send paired with a receive from the same peer packs into that
  //    receive's kept payload (`spare`, once its capacity suffices): the
  //    pair's two buffers ping-pong, whatever the other ranks' timing;
  //  - an unpaired send — an asymmetric exchange, e.g. one of the
  //    V-cycle's, sends a peer more messages than it receives from it —
  //    packs into a payload its receiver handed back (return_to_sender).
  //    While the exchange receives anything from that peer, its next pack
  //    waits on the peer's next post, which the peer makes after
  //    unpacking, so at most one of its payloads is out when it packs:
  //    two buffers, provisioned when the exchange is built, cover every
  //    steady-state epoch.

  /// Staging for one send of `bytes` to `dst` on `tag`.
  ByteBuf send_buffer(ByteBuf* spare, rank_t dst, sim::tag_t tag,
                      std::size_t bytes);
  /// Hands an unpacked payload from `src` on `tag` that no send of this
  /// rank reuses back to its sender. A sender in another process (SPMD
  /// mode) has nothing to get it back; it joins this rank's pool.
  void return_to_sender(ByteBuf buf, rank_t src, sim::tag_t tag);
  /// Provisions the two buffers of an unpaired send (see above).
  void provision_unpaired_send(rank_t dst, sim::tag_t tag,
                               std::size_t bytes);

  /// Re-gathers a dat's local copy from a global array (owned + halos).
  void refresh_dat_from_global(mesh::dat_id d,
                               const std::vector<double>& global_data);
};

/// The bookkeeping every executor epoch shares, over the loops it runs
/// (one for OP2, the chain window for CA). Construction starts the wall
/// timer, resets the comm epoch, snapshots the rank's running counters
/// and opens the device epoch. The executor marks each phase's end and
/// sets its own fields of `metrics` (iterations, halo_elems, plan_builds,
/// the CA tiling ledger); finish() fills the rest.
class Epoch {
public:
  /// An epoch's phases, in order (the paper's Tables 2 and 5).
  enum Phase { kPack, kCore, kWait, kUnpack, kHalo, kPhases };

  Epoch(RankState& st, std::span<const LoopRecord> loops);

  /// Ends phase `p` now, and every later phase until it is marked itself
  /// (a skipped wait or unpack takes no time).
  void mark(Phase p) { std::fill(t_ + p, t_ + kPhases, timer_.elapsed()); }

  /// Closes the device epoch, marks written dats' halos stale, fills
  /// `metrics` and records it as one call under `name` in `into`.
  const LoopMetrics& finish(std::map<std::string, LoopMetrics>& into,
                            const std::string& name);

  LoopMetrics metrics;

private:
  RankState& st_;
  std::span<const LoopRecord> loops_;
  std::vector<mesh::dat_id> written_;
  WallTimer timer_;
  double t_[kPhases] = {};
  LoopMetrics before_;  ///< running counters at construction.
  gpu::DeviceStats dev_before_;
};

/// Builds an exchange of `syncs` (each dat's layers 1..depth) over the
/// rank's halo plan: one exec+nonexec message per neighbour on `tag`, or
/// with `per_class` an exec message on `tag` then a nonexec message on
/// `tag + 1` per neighbour. Pairs each send with a receive slot of the
/// same peer, provisions the unpaired sends' buffers, negotiates
/// persistent channels under `channel_hash` when they are on, and counts
/// one plan build.
Exchange build_exchange(RankState& st, std::span<const DatSync> syncs,
                        sim::tag_t tag, bool per_class,
                        std::uint64_t channel_hash,
                        std::int64_t* plan_builds);

/// Posts `ex`: rebinds its specs to the dats' current storage, packs and
/// sends every outgoing message — inline, or on a pooled rank as tasks
/// appended to `packs` for the caller's core epoch — and posts the
/// receives. Meters halo_elems into `m` and the device-side pack.
void post_exchange(RankState& st, Exchange& ex, LoopMetrics& m,
                   std::vector<PackTask>& packs);

/// Waits for every exchange in `exs` (marking the epoch's wait), unpacks
/// them, recycles their buffers and raises the dats' fresh depth
/// (marking the unpack).
void complete_exchanges(RankState& st, std::span<Exchange* const> exs,
                        Epoch& ep);

/// The SPMD metrics wire: per map entry, [u32 name length | name | each
/// kMetricFields value as 8 bytes].
ByteBuf serialize_metrics(const std::map<std::string, LoopMetrics>& m);
/// Decodes a serialize_metrics blob, merge_from()-ing each entry into
/// `into`.
void merge_serialized_metrics(const ByteBuf& blob,
                              std::map<std::string, LoopMetrics>* into);

/// Executes one loop with the classic OP2 executor (Alg 1). Returns the
/// metrics of this single execution (also accumulated into
/// st.loop_metrics under the loop's name).
LoopMetrics execute_loop_op2(RankState& st, const LoopRecord& rec);

/// The chain plan cached under `key` for this window of loops, inspected
/// (Alg 3) on first sight of the (key, structure) pair — counted in
/// `*plan_builds` when non-null. Throws when the inspector rejects the
/// window. Exec lists are built by the executor on first execution.
ChainPlan& chain_plan(RankState& st, const std::string& key,
                      std::span<const LoopRecord> loops,
                      std::int64_t* plan_builds);

/// Executes a captured chain with the CA executor (Alg 2). A temporally
/// fused tile of `tile` chain invocations (their loops concatenated in
/// `loops`) runs as one CA epoch. `plan_key` (the chain name when empty)
/// keys the ChainPlan / exchange / channel caches (distinct per tile
/// geometry, so a partial flush at a sync point gets its own cached plan
/// and persistent channels renegotiate only when the geometry changes);
/// metrics land under `name` with LoopMetrics::tile = `tile`.
void execute_chain_ca(RankState& st, const std::string& name,
                      std::vector<LoopRecord>& loops, int tile = 1,
                      const std::string& plan_key = {});

/// Flushes the tile accumulator: a full or partial tile of >= 2 queued
/// invocations executes fused when the unrolled window is feasible
/// (inspector accepts it, required depth within the halo plan and the
/// chain's depth cap) — otherwise, and for a single queued invocation,
/// each invocation executes with the per-invocation CA path. Infeasible
/// (chain, tile) combinations warn once.
void flush_tiles(RankState& st);

/// Flushes every deferred-execution queue in program order: accumulated
/// chain tiles first (they always predate lazy entries — chain_begin
/// drains the lazy queue before capturing), then the lazy queue.
void flush_deferred(RankState& st);

/// Flushes the lazy queue: >= 2 queued loops become an automatically
/// formed chain executed with CA when the inspector accepts it and the
/// halo plan is deep enough; otherwise (or for a single loop) the queue
/// executes as plain OP2 loops. Chain names are "lazy:<signature>" so
/// repeated program phases reuse cached analyses.
void flush_lazy(RankState& st);

/// Order-insensitive-to-nothing structural hash of a window of loops:
/// covers names, sets and every access descriptor. Keys the analysis
/// caches and the lazy-chain signatures.
std::uint64_t chain_structural_hash(const LoopRecord* loops, std::size_t n);

/// Shared: runs the loop body over the local index range [begin, end).
/// Paths, in precedence order: element-at-a-time (serial_dispatch), the
/// single-region fast path (no pool — bitwise-identical to previous
/// behaviour), contiguous chunks over the pool (no indirect writes), the
/// hierarchical device sweep (device mode), or the block task graph
/// (every other indirect-write loop; see core/dispatch).
/// Counts region-body invocations in st.dispatch_regions and pool chunks
/// in st.dispatch_chunks.
std::int64_t run_range(RankState& st, const LoopRecord& rec, lidx_t begin,
                       lidx_t end);

/// Shared: runs the loop body over a gathered index list (same paths,
/// except that device mode also takes the block graph). Threaded
/// indirect-write lists must be sorted ascending.
std::int64_t run_list(RankState& st, const LoopRecord& rec,
                      const LIdxVec& idx);

/// run_range with staging folded in: executes [begin, end) as one
/// dependency-graph epoch over the loop's conflict blocks and runs
/// `packs` as extra graph tasks. Each pack is a root; the blocks that
/// write any row a pack reads depend on it (packs observe pre-loop
/// values), so packing overlaps the bulk of core compute instead of
/// serialising ahead of it. Falls back to running the packs first and
/// then run_range when the loop does not run on the graph (no pool,
/// direct loop, serial_dispatch, global INC, hierarchical device sweep).
/// Returns region-body invocations, like run_range.
std::int64_t run_range_tasks(RankState& st, const LoopRecord& rec,
                             lidx_t begin, lidx_t end,
                             std::span<PackTask> packs);

/// The rank's cached hierarchical two-level schedule for `rec`'s
/// conflict structure (device mode): outer block colouring plus
/// per-block inner element colouring under the shared-memory clamp.
/// Ordering-quality proxies of the loop's widest indirect argument over
/// the owned range (cached per loop name; zeros for direct loops).
const mesh::OrderingQuality& loop_quality(RankState& st,
                                          const LoopRecord& rec);

/// True when the loop must redundantly execute import-exec halo layers
/// under owner-compute (it writes through a map).
bool loop_executes_exec_halo(const LoopRecord& rec);

/// Snapshot/restore helpers for global INC arguments.
struct GblIncState {
  std::vector<std::pair<double*, std::vector<double>>> snapshots;
};
GblIncState snapshot_gbl_incs(const LoopRecord& rec);
void reduce_gbl_incs(RankState& st, const GblIncState& snap);

}  // namespace op2ca::core::detail
