// Greedy block colouring for race-free shared-memory execution of
// indirect-increment loops (the classic OP2 intra-rank parallelisation:
// Reguly et al., "Acceleration of a Full-scale Industrial CFD
// Application with OP2"). Two blocks of from-set elements conflict when
// any map entering the colouring sends an element of each onto the same
// target element; the colouring partitions the blocks into classes such
// that no class contains a conflict. The core dispatcher orders
// conflicting blocks by colour in a task DAG (block_conflict_graph); the
// device schedule (gpu/hierarchy) launches each class as one phase.
//
// The colouring is a pure function of (element count, target arrays,
// block size): first-fit over blocks in ascending index order. Thread
// count never enters, which is what makes the sweeps built on it
// deterministic at any pool width.
#pragma once

#include <span>
#include <vector>

#include "op2ca/util/types.hpp"

namespace op2ca::mesh {

/// One map's localized view entering a colouring: row-major targets,
/// `targets[e * arity + k]`. kInvalidLocal entries are ignored (targets
/// outside the rank's region, only reachable from never-executed rows).
/// A view with arity 1 and targets[e] == e expresses identity conflicts
/// (a dat written directly while also accessed through a map).
struct ColourMapView {
  const lidx_t* targets = nullptr;
  int arity = 0;
  lidx_t num_elements = 0;  ///< rows available in `targets`.
  lidx_t num_targets = 0;   ///< size of the target index space.
};

struct Colouring {
  int num_colours = 0;
  std::vector<int> colour;       ///< per element, 0..num_colours-1.
  std::vector<LIdxVec> classes;  ///< per colour, ascending element ids.
  /// Conflict granularity: elements [b*block_elems, (b+1)*block_elems)
  /// form block b and share one colour. 1 = classic per-element
  /// colouring. With block_elems > 1 a colour class is conflict-free
  /// *between* blocks only — elements inside a block may conflict with
  /// each other, so a parallel sweep must keep each block on one thread
  /// and run it in ascending order (one task per block in core/dispatch,
  /// one simulated thread block in gpu/hierarchy).
  lidx_t block_elems = 1;
};

/// First-fit greedy colouring of contiguous blocks of `block_elems`
/// elements over [0, n): each block takes the smallest colour unused by
/// every earlier block it conflicts with (two blocks conflict when any of
/// their elements share a target through any view). Deterministic;
/// classes partition [0, n). block_elems == 1 is the classic
/// per-element colouring; larger blocks make every colour class a union
/// of contiguous runs.
Colouring block_colouring(lidx_t n, std::span<const ColourMapView> views,
                          lidx_t block_elems);

/// Validity predicate (property tests): no two same-colour elements
/// share a target through any view. Honours `c.block_elems`: with
/// blocked colourings the conflict-free unit is the block, so
/// same-block sharing is legal.
bool colouring_valid(const Colouring& c, lidx_t n,
                     std::span<const ColourMapView> views);

/// The block-conflict adjacency underlying a blocked colouring: blocks a
/// and b are adjacent iff some element of a and some element of b share a
/// target through any view. Adjacent blocks always carry distinct
/// colours, so orienting every edge from the lower colour to the higher
/// one yields a DAG — the dependency graph the task-graph executor runs:
/// a block becomes runnable once all its lower-coloured neighbours
/// finished, and per written cell the accumulation order is the static
/// colour order, independent of how the schedule interleaves.
struct BlockGraph {
  lidx_t block_elems = 1;
  lidx_t num_blocks = 0;
  int num_colours = 0;
  std::vector<int> colour;          ///< per block, 0..num_colours-1.
  std::vector<std::size_t> adj_off; ///< CSR offsets, num_blocks + 1.
  LIdxVec adj;  ///< conflicting neighbour blocks, ascending per row.
};

/// Builds the symmetric block-conflict adjacency for `col` (a colouring
/// produced by block_colouring over the same n and views; requires
/// col.block_elems > 1). Deterministic: neighbour lists come out sorted.
BlockGraph block_conflict_graph(lidx_t n,
                                std::span<const ColourMapView> views,
                                const Colouring& col);

}  // namespace op2ca::mesh
