// Dat data layouts for the SIMD data plane.
//
// Every rank-local dat array is stored one of two ways:
//
//   AoS   element-major rows (the legacy layout): component c of element
//         i lives at  i*dim + c.
//   SoA   component-major planes: c*padded + i. A fixed component is
//         unit-stride across elements, so range bodies and the halo pack
//         become contiguous per-component streams, and kernels touching
//         a subset of components stop dragging whole rows through the
//         cache.
//
// Both reduce to one stride pair, so the hot paths carry a single
// descriptor:
//
//   offset(i, c) = i * estride + c * cstride
//
// (AoS: estride = dim, cstride = 1; SoA: estride = 1, cstride = padded).
// SoA pads the element count so every component plane starts
// cache-aligned; padding slots are zero-filled and never addressed by a
// valid index.
//
// The layout is an in-rank storage detail only: the global MeshDef
// arrays, World::fetch_dat / reset_dat, VTK output and the message wire
// headers all keep the classic AoS view, with transposes at the
// rank<->global boundary (see to_layout / from_layout).
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "op2ca/util/types.hpp"

namespace op2ca::mesh {

enum class LayoutKind { AoS, SoA };

const char* layout_name(LayoutKind k);
/// Parses "aos" | "soa"; raises on anything else.
LayoutKind layout_by_name(const std::string& name);

/// WorldConfig::layout: the default dat layout plus per-set and per-dat
/// overrides (per-dat wins over per-set wins over the default). The
/// default-constructed config is pure AoS — bitwise-identical storage to
/// the pre-layout runtime.
struct LayoutConfig {
  LayoutKind kind = LayoutKind::AoS;
  std::map<std::string, LayoutKind> per_set;
  std::map<std::string, LayoutKind> per_dat;

  /// True when any dat can end up non-AoS.
  bool enabled() const;
  /// Effective kind for a dat named `dat` living on set `set`.
  LayoutKind resolve(const std::string& set, const std::string& dat) const;
};

/// Per-dat storage descriptor. Built once per (rank, dat) and carried by
/// RankDat, ResolvedArg and DatSyncSpec; all addressing on the hot paths
/// goes through the stride pair below.
struct DatLayout {
  LayoutKind kind = LayoutKind::AoS;
  int dim = 1;
  lidx_t elems = 0;    ///< logical element count (layout total).
  lidx_t padded = 0;   ///< allocated element slots (>= elems).
  lidx_t estride = 1;  ///< doubles between consecutive elements.
  lidx_t cstride = 1;  ///< doubles between components of one element.

  static DatLayout make(LayoutKind kind, int dim, lidx_t elems);

  bool is_aos() const { return kind == LayoutKind::AoS; }

  /// First-component offset of element i (doubles).
  std::size_t elem_offset(lidx_t i) const {
    return static_cast<std::size_t>(i) * static_cast<std::size_t>(estride);
  }
  /// Offset of component c of element i (doubles).
  std::size_t offset(lidx_t i, int c) const {
    return elem_offset(i) +
           static_cast<std::size_t>(c) * static_cast<std::size_t>(cstride);
  }
  /// Doubles to allocate (padding included).
  std::size_t alloc_doubles() const {
    return static_cast<std::size_t>(padded) * static_cast<std::size_t>(dim);
  }
};

/// Transposes an AoS row array (elems * dim doubles) into `out`
/// (lay.alloc_doubles() long); padding slots are zero-filled.
void to_layout(const double* aos_rows, const DatLayout& lay, double* out);

/// Inverse of to_layout: recovers the AoS row view.
void from_layout(const double* data, const DatLayout& lay, double* aos_rows);

}  // namespace op2ca::mesh
