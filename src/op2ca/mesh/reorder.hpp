// Cache-aware intra-layer element reordering (the locality layer).
//
// The halo plan fixes a coarse structure per rank and set — owned
// elements sorted by decreasing inward distance, then import-exec and
// import-nonexec layers — but leaves the order *within* those segments
// at global-id order, i.e. whatever the mesh file happened to use.
// Indirect kernels then gather and scatter through maps whose targets
// hop arbitrarily through memory, and the hot path is bound by cache
// misses rather than compute (Sulyok et al., "Locality Optimized
// Unstructured Mesh Algorithms on GPUs").
//
// This header provides the ordering algorithms and the permutation
// plumbing; halo/reorder.hpp applies them to a built HaloPlan without
// crossing any layer boundary:
//
//  * rcm_order — Reverse Cuthill–McKee over the loop-conflict adjacency
//    (elements adjacent when a map entry joins them), the classic
//    bandwidth-minimising order for gather/scatter locality.
//  * sfc_order — Morton space-filling-curve order over element
//    coordinates, which clusters geometric neighbours for sets with a
//    geometric embedding.
//
// Both are *block-constrained*: they permute only within caller-given
// [begin, end) blocks, so layer boundaries (and the din-descending core
// prefix property the CA executor's shrinking cores depend on) survive
// by construction.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "op2ca/mesh/mesh_def.hpp"
#include "op2ca/util/types.hpp"

namespace op2ca::mesh {

enum class ReorderKind {
  None,  ///< keep partition order (bitwise-legacy).
  RCM,   ///< Reverse Cuthill–McKee over the conflict adjacency.
  SFC,   ///< Morton space-filling curve over (derived) coordinates.
  Auto,  ///< SFC when the set has a geometric path, else RCM.
};

const char* reorder_kind_name(ReorderKind k);

/// Per-World reordering policy (WorldConfig::reorder). Off by default:
/// with kind == None and no per-set overrides the runtime is
/// bitwise-identical to the un-reordered build.
struct ReorderConfig {
  ReorderKind kind = ReorderKind::None;  ///< default for every set.
  /// Per-set overrides by set name (may also switch a set *off*).
  std::map<std::string, ReorderKind> per_set;

  bool enabled() const;
  ReorderKind for_set(const std::string& set_name) const;
};

/// A local-element permutation: new_of_old[i] is the new index of the
/// element previously at i, old_of_new its inverse. Empty vectors mean
/// identity (the set was not reordered).
struct Permutation {
  LIdxVec new_of_old;
  LIdxVec old_of_new;

  lidx_t size() const { return static_cast<lidx_t>(new_of_old.size()); }
  bool empty() const { return new_of_old.empty(); }
  bool is_identity() const;
};

/// Builds the inverse and validates bijectivity; raises on a non-permutation.
Permutation make_permutation(LIdxVec new_of_old);
/// Property-test predicate: both directions present, mutually inverse,
/// and each a bijection on [0, size).
bool permutation_valid(const Permutation& p);

/// Half-open [begin, end) index blocks a reordering may not cross.
using BlockVec = std::vector<std::pair<lidx_t, lidx_t>>;
/// True iff p maps every block onto itself (layer boundaries preserved).
bool permutation_preserves_blocks(const Permutation& p,
                                  const BlockVec& blocks);

/// Symmetric local adjacency in CSR form (lidx_t index space).
struct LocalCsr {
  std::vector<std::size_t> offsets;  ///< size = num_rows + 1.
  LIdxVec adj;

  lidx_t num_rows() const {
    return static_cast<lidx_t>(offsets.empty() ? 0 : offsets.size() - 1);
  }
  std::span<const lidx_t> row(lidx_t e) const {
    const std::size_t b = offsets[static_cast<std::size_t>(e)];
    return {adj.data() + b, offsets[static_cast<std::size_t>(e) + 1] - b};
  }
};

/// Builds a CSR from an (unsorted, possibly duplicated) directed edge
/// list over [0, n); callers emit both directions for symmetry.
/// Self-loops and duplicates are dropped; rows come out sorted.
LocalCsr csr_from_edges(lidx_t n,
                        std::vector<std::pair<lidx_t, lidx_t>> edges);

/// Reverse Cuthill–McKee within each block: per connected component a
/// BFS from a minimum-degree seed, neighbours visited in ascending
/// (degree, index) order, then the visit order reversed. Adjacency
/// entries leaving a block are ignored, so blocks permute independently.
Permutation rcm_order(const LocalCsr& adj, const BlockVec& blocks);

/// Morton (Z-order) space-filling-curve order within each block.
/// `coords` is row-major n x dim (dim 2 or 3); each block's bounding box
/// is quantised to a 2^kSfcBits grid and elements sorted by interleaved
/// key (ties by original index — the order is deterministic).
Permutation sfc_order(std::span<const double> coords, int dim, lidx_t n,
                      const BlockVec& blocks);

/// Applies p to row-major data: out[new * dim + c] = in[old * dim + c].
template <typename T>
std::vector<T> permute_rows(const Permutation& p, int dim,
                            const std::vector<T>& in) {
  if (p.empty()) return in;
  std::vector<T> out(in.size());
  const std::size_t d = static_cast<std::size_t>(dim);
  for (lidx_t i = 0; i < p.size(); ++i) {
    const std::size_t src = static_cast<std::size_t>(i) * d;
    const std::size_t dst =
        static_cast<std::size_t>(p.new_of_old[static_cast<std::size_t>(i)]) *
        d;
    for (std::size_t c = 0; c < d; ++c) out[dst + c] = in[src + c];
  }
  return out;
}

/// Inverse of permute_rows: recovers the original row order.
template <typename T>
std::vector<T> unpermute_rows(const Permutation& p, int dim,
                              const std::vector<T>& in) {
  if (p.empty()) return in;
  std::vector<T> out(in.size());
  const std::size_t d = static_cast<std::size_t>(dim);
  for (lidx_t i = 0; i < p.size(); ++i) {
    const std::size_t src =
        static_cast<std::size_t>(p.new_of_old[static_cast<std::size_t>(i)]) *
        d;
    const std::size_t dst = static_cast<std::size_t>(i) * d;
    for (std::size_t c = 0; c < d; ++c) out[dst + c] = in[src + c];
  }
  return out;
}

/// Mesh-quality proxies of one localized map, walked in iteration order:
///  * gather_span — mean |target(e, k) - target(e-1, k)| between
///    consecutive iterations (how far each gather stream jumps, in
///    elements; lower = more cache-line reuse between iterations).
///  * reuse_gap — mean number of iterations between successive touches
///    of the same target (a reuse-distance proxy: lower = the second
///    touch more likely still cached).
struct OrderingQuality {
  double gather_span = 0.0;
  double reuse_gap = 0.0;
};

OrderingQuality ordering_quality(const lidx_t* targets, int arity,
                                 lidx_t num_elements, lidx_t num_targets);

/// Deterministically scrambles every set's global numbering (maps, dats
/// and coords rewritten consistently). Bench/test utility: hex3d comes
/// out of the generator in cache-friendly lexicographic order, which no
/// real mesh file guarantees; scrambling reproduces the arbitrary-order
/// baseline the reordering literature starts from. `perms_out`, when
/// non-null, receives per-set new_of_old global permutations.
MeshDef scramble_mesh(const MeshDef& in, std::uint64_t seed,
                      std::vector<GIdxVec>* perms_out = nullptr);

}  // namespace op2ca::mesh
