#pragma once
// The Distributed Array Descriptor (DAD), paper §6.
//
// "When a distributed array is passed as an argument to some of the run-time
//  support primitives, it is also necessary to provide information such as
//  its size, distribution among the nodes ... All this information is stored
//  into a structure which is called distributed array descriptor (DAD)."
//
// The DAD encodes stages 1 and 2 of the three-stage mapping (Figure 2):
//   stage 1 (ALIGN):      template_index t = a * g + b   (f and f^-1)
//   stage 2 (DISTRIBUTE): block/cyclic mapping of template cells to the
//                         logical grid (mu and mu^-1)
// Stage 3 (grid -> physical) lives in comm::ProcGrid (phi and phi^-1).
//
// All run-time indices here are 0-based; the front end converts from
// Fortran's declared bounds, and the emitted Fortran77+MP listing converts
// back for readability.
#include <memory>
#include <string>
#include <vector>

#include "comm/proc_grid.hpp"
#include "support/diag.hpp"

namespace f90d::rts {

using Index = long long;

enum class DistKind {
  kBlock,      ///< contiguous chunks of ceil(T/P) template cells
  kCyclic,     ///< block-cyclic: blocks of `block` cells dealt round-robin;
               ///< block == 1 is the paper's plain CYCLIC distribution
  kCollapsed,  ///< dimension not distributed ('*'): whole extent everywhere
  kIndirect,   ///< user-supplied map array: cell t lives on coord map(t)
};

/// Resolved INDIRECT(map) mapping for one dimension: the value-based
/// distribution of PARTI/CHAOS, where a replicated integer map array names
/// the owning grid coordinate of every template cell.  Built once per run
/// (the map array's initializer is read before distributed allocation) and
/// shared by every processor, so all derived schedule keys agree.
struct IndirectTable {
  std::vector<int> owner;          ///< template cell -> owning grid coordinate
  std::vector<Index> local_index;  ///< template cell -> rank among owner's cells
  std::vector<std::vector<Index>> cells;  ///< coord -> owned cells, ascending
  unsigned long long hash = 0;     ///< FNV-1a over `owner` (schedule keys)

  /// Build from 0-based owner coordinates; validates 0 <= owner[t] < nprocs.
  /// `what` names the map array for diagnostics.
  static std::shared_ptr<const IndirectTable> build(std::vector<int> owners,
                                                    int nprocs,
                                                    const std::string& what);
};

[[nodiscard]] const char* to_string(DistKind k);

/// Per-array-dimension mapping information: one row of the paper's §6
/// descriptor table.  "The DAD keeps, for each dimension, the distribution
/// type, distribution block size, ... local and global sizes, local to
/// global and global to local conversion parameters, and overlap
/// information."  Field-by-field against that list:
///
///   distribution type        -> kind (+ grid_dim: which grid axis it uses)
///   distribution block size  -> block (CYCLIC(k)); BLOCK derives its chunk
///                               as ceil(template_extent / P), Dad::block_chunk
///   global size              -> Dad::extents_ / template_extent
///   local size               -> computed per coordinate, Dad::local_extent
///   conversion parameters    -> align_stride/align_offset (stage 1) plus the
///                               stage-2 mu/mu^-1 methods on Dad
///   overlap information      -> overlap_lo / overlap_hi (ghost areas, [16])
struct DimMap {
  DistKind kind = DistKind::kCollapsed;
  int grid_dim = -1;          ///< logical grid dimension; -1 when collapsed
  Index template_extent = 0;  ///< extent of the aligned template dimension
  Index align_stride = 1;     ///< a in t = a*g + b (f of stage 1)
  Index align_offset = 0;     ///< b in t = a*g + b
  /// Distribution block size: for kCyclic, the CYCLIC(k) block width —
  /// template cells are dealt to the grid dimension in contiguous runs of
  /// `block` (block == 1 degenerates to element-wise round-robin CYCLIC).
  /// Ignored for kBlock (chunk = ceil(T/P)) and kCollapsed.  Must be >= 1.
  Index block = 1;
  int overlap_lo = 0;         ///< ghost width below (overlap area, ref [16])
  int overlap_hi = 0;         ///< ghost width above
  /// kIndirect only: name of the INTEGER map array naming each cell's owner
  /// (compile-time; part of mapping identity) and the resolved ownership
  /// table (runtime; filled in by the execution environment before any
  /// distributed allocation).  Identity alignment is required, so t == g.
  std::string map_name;
  std::shared_ptr<const IndirectTable> table;
};

/// Distributed Array Descriptor: global shape + per-dimension mapping +
/// the logical processor grid the template is distributed over.
class Dad {
 public:
  Dad() : grid_({1}) {}

  /// A fully replicated array (every processor holds the whole thing).
  static Dad replicated(std::vector<Index> extents, const comm::ProcGrid& grid);

  /// Grid dimensions used by no array dimension are replication dimensions:
  /// every processor along them holds a copy (this is what `ALIGN A(I) WITH
  /// T(I,*)` produces).  They are computed automatically.
  Dad(std::vector<Index> extents, std::vector<DimMap> dims, comm::ProcGrid grid);

  [[nodiscard]] int rank() const { return static_cast<int>(extents_.size()); }
  [[nodiscard]] Index extent(int d) const { return extents_[static_cast<size_t>(d)]; }
  [[nodiscard]] const std::vector<Index>& extents() const { return extents_; }
  [[nodiscard]] const DimMap& dim(int d) const { return dims_[static_cast<size_t>(d)]; }
  [[nodiscard]] DimMap& dim(int d) { return dims_[static_cast<size_t>(d)]; }
  [[nodiscard]] const comm::ProcGrid& grid() const { return grid_; }
  [[nodiscard]] const std::vector<int>& replicated_grid_dims() const {
    return replicated_grid_dims_;
  }
  /// True when no dimension is distributed (every processor holds a copy).
  [[nodiscard]] bool fully_replicated() const;

  /// Total number of elements in the global array.
  [[nodiscard]] Index global_size() const;

  // --- stage-2 algebra, per dimension -------------------------------------
  // BLOCK:      template cell t lives on coord t / ceil(T/P).
  // CYCLIC(k):  t lives on coord (t / k) mod P; the local index is the rank
  //             of t among the coordinate's owned cells (course-major:
  //             course t / (k*P), then position t mod k within the block).
  //             k == 1 reduces to the classic t mod P round-robin.
  /// Block chunk size: ceil(template_extent / grid_extent).
  [[nodiscard]] Index block_chunk(int d) const;

  /// Grid coordinate (along dim(d).grid_dim) of the owner of global index g.
  /// Collapsed dimensions return 0.
  [[nodiscard]] int owner_coord(int d, Index g) const;

  /// Local index (not counting the overlap_lo offset) of global index g on
  /// its owning processor.  mu applied after f.
  [[nodiscard]] Index local_of_global(int d, Index g) const;

  /// Inverse: global index of local index l on the processor whose
  /// coordinate along this dimension's grid dim is `coord` (mu^-1, f^-1).
  [[nodiscard]] Index global_of_local(int d, Index l, int coord) const;

  /// Number of elements of dimension d owned by grid coordinate `coord`.
  [[nodiscard]] Index local_extent(int d, int coord) const;

  /// Allocated extent including overlap (ghost) areas.
  [[nodiscard]] Index alloc_extent(int d, int coord) const {
    return local_extent(d, coord) + dim(d).overlap_lo + dim(d).overlap_hi;
  }

  /// Does grid coordinate `coord` own global index g along dimension d?
  [[nodiscard]] bool owns(int d, Index g, int coord) const {
    return owner_coord(d, g) == coord;
  }

  // --- whole-array helpers -------------------------------------------------
  /// Logical processor index of the canonical owner of a global element
  /// (replicated grid dimensions resolved to coordinate 0, and grid
  /// dimensions used by no array dimension resolved from `base_coords`,
  /// which is typically the caller's own coordinates).
  [[nodiscard]] int owner_logical(const std::vector<Index>& gidx,
                                  const std::vector<int>& base_coords) const;
  /// owner_logical with a caller-owned coordinate buffer: `coords` holds
  /// the base coordinates on entry and the owner's on return, so hot
  /// callers that keep the buffer allocate nothing.
  [[nodiscard]] int owner_logical_in(const std::vector<Index>& gidx,
                                     std::vector<int>& coords) const;

  /// True when two descriptors imply the same element-to-processor mapping
  /// for conforming arrays (used for schedule reuse and no-comm detection).
  [[nodiscard]] bool same_mapping(const Dad& other) const;

  /// Compact signature string (used as schedule-cache key component).
  [[nodiscard]] std::string signature() const;

 private:
  std::vector<Index> extents_;
  std::vector<DimMap> dims_;
  comm::ProcGrid grid_;
  /// Grid dimensions along which this array is replicated (template dims
  /// that no array dimension aligns with).
  std::vector<int> replicated_grid_dims_;
};

}  // namespace f90d::rts
