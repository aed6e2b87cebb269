// PCIe cost model of the simulated GPU (Section 3.3 substrate).
//
// No CUDA exists in this environment, so the GPU path is modeled: halo
// exchanges on the GPU cluster stage through the host — D2H copy, MPI,
// H2D copy — and every copy is charged against this transfer model. The
// device ledger that meters those copies is gpu::DeviceSpace
// (device_space.hpp); the pipeline-overlap makespans live in pipeline.hpp.
#pragma once

#include <cstdint>

namespace op2ca::gpu {

/// PCIe-generation-3 x16 class transfer parameters.
struct PcieModel {
  double latency_s = 8.0e-6;       ///< per-transfer launch + DMA setup.
  double bandwidth_Bps = 12.0e9;   ///< sustained H2D/D2H.
  double transfer_time(std::int64_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_Bps;
  }
};

}  // namespace op2ca::gpu
