// The executor epoch recorder shared by the OP2 and CA executors.
#include "op2ca/core/runtime_detail.hpp"

#include <set>

namespace op2ca::core::detail {

Epoch::Epoch(RankState& st, std::span<const LoopRecord> loops)
    : st_(st), loops_(loops) {
  st.comm.stats().reset_epoch();
  before_.dispatch_regions = st.dispatch_regions;
  before_.chunks = st.dispatch_chunks;
  before_.tasks = st.dispatch_tasks;
  before_.steals = st.dispatch_steals;
  before_.dep_wait_seconds = st.dispatch_dep_wait;
  before_.busy_seconds = st.pool ? st.pool->busy_seconds() : 0.0;
  before_.staging_allocs = st.staging.allocations();
  st.dispatch_max_colours = 0;

  std::set<mesh::dat_id> touched;
  for (const LoopRecord& rec : loops)
    for (const auto& [dat, m] : merge_loop_accesses(rec.spec)) {
      touched.insert(dat);
      if (writes(m.mode)) written_.push_back(dat);
    }
  // Device epoch: upload every touched mirror that is stale (the
  // fully-staged policy re-moves valid ones too). The transfer ledger
  // closes in finish(), charging the staged or pipelined PCIe makespan.
  if (gpu::DeviceSpace* dev = st.device.get()) {
    dev->begin_epoch();
    dev_before_ = dev->stats();
    for (mesh::dat_id d : touched) dev->to_device(d);
  }
}

const LoopMetrics& Epoch::finish(std::map<std::string, LoopMetrics>& into,
                                 const std::string& name) {
  LoopMetrics& m = metrics;
  // Close the device epoch: written mirrors turn DeviceFresh and the
  // ledger charges the (transfers, kernel seconds) makespan.
  if (gpu::DeviceSpace* dev = st_.device.get()) {
    for (mesh::dat_id d : written_) dev->device_wrote(d);
    m.device_seconds = dev->end_epoch((t_[kCore] - t_[kPack]) +
                                      (t_[kHalo] - t_[kUnpack]));
    const gpu::DeviceStats& ds = dev->stats();
    m.h2d_bytes = ds.h2d_bytes - dev_before_.h2d_bytes;
    m.d2h_bytes = ds.d2h_bytes - dev_before_.d2h_bytes;
    m.device_transfers = (ds.h2d_transfers - dev_before_.h2d_transfers) +
                         (ds.d2h_transfers - dev_before_.d2h_transfers);
  }
  // Dirty bits: written dats' halo copies are stale.
  for (mesh::dat_id d : written_) st_.rank_dat(d).fresh_depth = 0;

  const sim::CommStats& cs = st_.comm.stats();
  m.calls = 1;
  m.msgs = cs.epoch_msgs_sent;
  m.bytes = cs.epoch_bytes_sent;
  m.max_msg_bytes = cs.epoch_max_msg_bytes;
  m.max_rank_bytes = cs.epoch_bytes_sent;
  m.max_neighbors = static_cast<std::int64_t>(cs.epoch_neighbors.size());

  m.wall_seconds = timer_.elapsed();
  m.pack_seconds = t_[kPack];
  m.core_seconds = t_[kCore] - t_[kPack];
  m.wait_seconds = t_[kWait] - t_[kCore];
  m.unpack_seconds = t_[kUnpack] - t_[kWait];
  m.halo_seconds = m.wall_seconds - t_[kUnpack];

  m.dispatch_regions = st_.dispatch_regions - before_.dispatch_regions;
  m.chunks = st_.dispatch_chunks - before_.chunks;
  m.tasks = st_.dispatch_tasks - before_.tasks;
  m.steals = st_.dispatch_steals - before_.steals;
  m.dep_wait_seconds = st_.dispatch_dep_wait - before_.dep_wait_seconds;
  m.busy_seconds =
      st_.pool ? st_.pool->busy_seconds() - before_.busy_seconds : 0.0;
  m.staging_allocs = st_.staging.allocations() - before_.staging_allocs;
  m.max_colours = st_.dispatch_max_colours;

  for (const LoopRecord& rec : loops_) {
    const mesh::OrderingQuality& oq = loop_quality(st_, rec);
    m.gather_span = std::max(m.gather_span, oq.gather_span);
    m.reuse_gap = std::max(m.reuse_gap, oq.reuse_gap);
    for (const Arg& a : rec.args)
      if (a.kind != Arg::Kind::Gbl)
        m.layout_code = std::max(
            m.layout_code,
            static_cast<std::int64_t>(st_.rank_dat(a.dat).layout.kind));
  }
  into[name].record(m);
  return m;
}

}  // namespace op2ca::core::detail
