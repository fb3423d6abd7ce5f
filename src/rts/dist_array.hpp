#pragma once
// DistArray<T>: the per-processor piece of a distributed array, together
// with its DAD.  This is what the generated SPMD node program manipulates:
// each processor allocates only its local chunk (plus overlap/ghost areas,
// ref. [16] in the paper) and addresses it through the DAD's global<->local
// index algebra.
#include <algorithm>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "comm/grid_comm.hpp"
#include "rts/dad.hpp"

namespace f90d::rts {

template <typename T>
class DistArray {
 public:
  using value_type = T;

  /// Allocate the local chunk for the processor at `my_coords` (zero-filled).
  DistArray(Dad dad, std::vector<int> my_coords)
      : dad_(std::move(dad)), coords_(std::move(my_coords)) {
    require(static_cast<int>(coords_.size()) == dad_.grid().ndims(),
            "DistArray: coords rank matches grid");
    const int r = dad_.rank();
    lext_.resize(static_cast<size_t>(r));
    aext_.resize(static_cast<size_t>(r));
    for (int d = 0; d < r; ++d) {
      const int c = coord_along(d);
      lext_[static_cast<size_t>(d)] = dad_.local_extent(d, c);
      aext_[static_cast<size_t>(d)] = lext_[static_cast<size_t>(d)] +
                                      dad_.dim(d).overlap_lo +
                                      dad_.dim(d).overlap_hi;
    }
    strides_.assign(static_cast<size_t>(r), 1);
    for (int d = r - 2; d >= 0; --d)
      strides_[static_cast<size_t>(d)] =
          strides_[static_cast<size_t>(d + 1)] * aext_[static_cast<size_t>(d + 1)];
    Index total = r == 0 ? 1 : strides_[0] * aext_[0];
    data_.assign(static_cast<size_t>(total), T{});
  }

  /// Convenience: construct from the grid position of a GridComm.
  DistArray(Dad dad, const comm::GridComm& gc)
      : DistArray(std::move(dad), gc.my_coords()) {}

  [[nodiscard]] const Dad& dad() const { return dad_; }
  [[nodiscard]] int rank() const { return dad_.rank(); }
  [[nodiscard]] const std::vector<int>& coords() const { return coords_; }
  [[nodiscard]] Index local_extent(int d) const {
    return lext_[static_cast<size_t>(d)];
  }
  [[nodiscard]] Index alloc_extent(int d) const {
    return aext_[static_cast<size_t>(d)];
  }
  [[nodiscard]] std::vector<T>& storage() { return data_; }
  [[nodiscard]] const std::vector<T>& storage() const { return data_; }

  /// Grid coordinate of this processor along array dimension d's grid dim
  /// (0 for collapsed dimensions).
  [[nodiscard]] int coord_along(int d) const { return dim_coord(d, coords_); }

  /// Local element access.  `l` is in owned-local coordinates; ghost cells
  /// are addressed with l in [-overlap_lo, local_extent + overlap_hi).
  [[nodiscard]] T& at_local(std::span<const Index> l) {
    return data_[static_cast<size_t>(flat_local(l))];
  }
  [[nodiscard]] const T& at_local(std::span<const Index> l) const {
    return data_[static_cast<size_t>(flat_local(l))];
  }

  /// Does this processor own the global element?
  [[nodiscard]] bool owns_global(std::span<const Index> g) const {
    for (int d = 0; d < rank(); ++d)
      if (!dad_.owns(d, g[static_cast<size_t>(d)], coord_along(d))) return false;
    return true;
  }

  /// Access a global element that is either owned or lies in this
  /// processor's overlap (ghost) area after an overlap_shift.  Ghost access
  /// requires BLOCK (or collapsed) dimensions with unit alignment stride.
  [[nodiscard]] T& at_global_ghost(std::span<const Index> g) {
    idx_scratch_.resize(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d) {
      const DimMap& m = dad_.dim(d);
      const Index gd = g[static_cast<size_t>(d)];
      if (m.kind == DistKind::kCollapsed) {
        idx_scratch_[static_cast<size_t>(d)] = gd;
        continue;
      }
      const int c = coord_along(d);
      if (dad_.owns(d, gd, c)) {
        idx_scratch_[static_cast<size_t>(d)] = dad_.local_of_global(d, gd);
        continue;
      }
      require(m.kind == DistKind::kBlock && m.align_stride == 1,
              "ghost access needs BLOCK with unit alignment stride");
      require(local_extent(d) > 0, "ghost access on a non-empty block");
      const Index g_first = dad_.global_of_local(d, 0, c);
      idx_scratch_[static_cast<size_t>(d)] = gd - g_first;
    }
    return at_local(idx_scratch_);
  }

  /// Access an owned global element.
  [[nodiscard]] T& at_global(std::span<const Index> g) {
    idx_scratch_.resize(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d)
      idx_scratch_[static_cast<size_t>(d)] =
          dad_.local_of_global(d, g[static_cast<size_t>(d)]);
    return at_local(idx_scratch_);
  }

  /// Global index of a local element.
  [[nodiscard]] std::vector<Index> global_of_local(
      std::span<const Index> l) const {
    std::vector<Index> g(static_cast<size_t>(rank()));
    for (int d = 0; d < rank(); ++d)
      g[static_cast<size_t>(d)] =
          dad_.global_of_local(d, l[static_cast<size_t>(d)], coord_along(d));
    return g;
  }

  /// Visit every owned element: f(global_indices, element_ref), in
  /// owned-local row-major order.  Walks owned runs: the global index
  /// vector is set once per run and advanced along the run's innermost
  /// dimension, so no element pays a global_of_local or a heap allocation.
  template <typename F>
  void for_each_owned(F&& f) {
    walk_runs(coords_, [&](std::span<const Index> l, std::vector<Index>& g,
                           Index count) {
      T* run = data_.data() + run_offset(l, count);
      for (Index i = 0;;) {
        f(std::as_const(g), run[i]);
        if (++i == count) break;
        ++g.back();
      }
    });
  }

  /// Initialize owned elements from a function of the global indices.
  void fill_global(const std::function<T(std::span<const Index>)>& f) {
    for_each_owned([&](const std::vector<Index>& g, T& v) { v = f(g); });
  }

  /// Number of owned elements on this processor.
  [[nodiscard]] Index local_size() const {
    Index n = 1;
    for (Index e : lext_) n *= e;
    return n;
  }

  /// Collect the full global array (row-major over global extents) on every
  /// processor.  Used by tests/oracles and by the gather-based intrinsics
  /// (PACK/UNPACK/RESHAPE fall into the paper's "unstructured" category).
  [[nodiscard]] std::vector<T> gather_global(comm::GridComm& gc) {
    struct Pair {
      Index flat;
      T value;
    };
    std::vector<Pair> mine;
    mine.reserve(static_cast<size_t>(local_size()));
    for_each_owned([&](const std::vector<Index>& g, T& v) {
      mine.push_back(Pair{flat_global(g), v});
    });
    std::vector<Pair> all =
        gc.concat_all<Pair>(std::span<const Pair>(mine));
    std::vector<T> out(static_cast<size_t>(dad_.global_size()), T{});
    for (const Pair& p : all) out[static_cast<size_t>(p.flat)] = p.value;
    return out;
  }

  /// Collect the full global array on logical processor 0 only (row-major
  /// over global extents); every other processor returns an empty vector.
  /// Ships raw values in owned-local row-major order — half the bytes of
  /// the {index,value} pairs gather_global sends, and no broadcast leg.
  /// Sender and root walk the same owned runs: the sender packs each run
  /// with one copy, and the root places it with one copy at the global
  /// offset it derives from the DAD.
  /// Collective: every processor must call it at the same program point.
  [[nodiscard]] std::vector<T> gather_global_root(comm::GridComm& gc) {
    // Pack owned values only, one run at a time; the sender never needs
    // global indices.
    std::vector<T> mine;
    mine.reserve(static_cast<size_t>(local_size()));
    walk_runs(coords_, [&](std::span<const Index> l, std::vector<Index>&,
                           Index count) {
      const T* run = data_.data() + run_offset(l, count);
      mine.insert(mine.end(), run, run + count);
    });
    std::vector<T> out;
    if (gc.my_logical() == 0)
      out.assign(static_cast<size_t>(dad_.global_size()), T{});
    gc.gather_root<T>(std::span<const T>(mine),
                      [&](int logical, std::span<const T> blk) {
                        place_block(gc.grid().coords_of(logical), blk, out);
                      });
    return out;
  }

  /// Row-major flattening of a global index vector.
  [[nodiscard]] Index flat_global(std::span<const Index> g) const {
    Index flat = 0;
    for (int d = 0; d < rank(); ++d)
      flat = flat * dad_.extent(d) + g[static_cast<size_t>(d)];
    return flat;
  }

 private:
  /// Coordinate along array dimension d's grid dimension of the processor
  /// at grid coordinates `gcoords` (0 for collapsed dimensions).
  [[nodiscard]] int dim_coord(int d, std::span<const int> gcoords) const {
    const DimMap& m = dad_.dim(d);
    return m.kind == DistKind::kCollapsed
               ? 0
               : gcoords[static_cast<size_t>(m.grid_dim)];
  }

  /// The one owned-element walker.  Visits the elements owned by the
  /// processor at grid coordinates `gcoords` one owned run at a time, in
  /// owned-local row-major order: visit(l, g, count), where l and g are the
  /// local and global index vectors of the run's first element and the run
  /// continues for `count` elements along the innermost dimension —
  /// contiguous in local storage and in global row-major order.  An
  /// odometer steps the outer dimensions through their owned runs; the
  /// visitor may advance g.back() (it is reset for every run).
  template <typename V>
  void walk_runs(std::span<const int> gcoords, V&& visit) const {
    const int r = rank();
    std::vector<Index> l(static_cast<size_t>(r), 0);
    std::vector<Index> g(static_cast<size_t>(r), 0);
    if (r == 0) {
      visit(std::span<const Index>(l), g, Index{1});
      return;
    }
    // Every dimension's runs back to back: dimension d's are
    // runs[first[d] .. first[d + 1]); cur[d] is its odometer position.
    std::vector<DimRun> runs;
    std::vector<size_t> first(static_cast<size_t>(r) + 1);
    for (int d = 0; d < r; ++d) {
      first[static_cast<size_t>(d)] = runs.size();
      dad_.owned_runs(d, dim_coord(d, gcoords), runs);
      if (runs.size() == first[static_cast<size_t>(d)]) return;  // owns none
    }
    first[static_cast<size_t>(r)] = runs.size();
    std::vector<size_t> cur(first.begin(), first.end() - 1);
    for (int d = 0; d < r - 1; ++d) {
      l[static_cast<size_t>(d)] = runs[cur[static_cast<size_t>(d)]].local;
      g[static_cast<size_t>(d)] = runs[cur[static_cast<size_t>(d)]].global;
    }
    const size_t inner = static_cast<size_t>(r - 1);
    for (;;) {
      for (size_t i = first[inner]; i < first[inner + 1]; ++i) {
        l[inner] = runs[i].local;
        g[inner] = runs[i].global;
        visit(std::span<const Index>(l), g, runs[i].count);
      }
      int d = r - 2;
      for (; d >= 0; --d) {
        const size_t u = static_cast<size_t>(d);
        const DimRun* run = &runs[cur[u]];
        if (++l[u] < run->local + run->count) {
          ++g[u];
          break;
        }
        const bool wrapped = ++cur[u] == first[u + 1];
        if (wrapped) cur[u] = first[u];
        run = &runs[cur[u]];
        l[u] = run->local;
        g[u] = run->global;
        if (!wrapped) break;
      }
      if (d < 0) break;
    }
  }

  /// Storage offset of an owned run's first element, with its first and
  /// last elements checked against the allocated extent (incl. overlap).
  [[nodiscard]] Index run_offset(std::span<const Index> l, Index count) const {
    const Index flat = flat_local(l);
    if (rank() > 0)
      require(l.back() + count + dad_.dim(rank() - 1).overlap_lo <=
                  aext_.back(),
              "owned run within allocated extent (incl. overlap)");
    return flat;
  }

  /// Scatter one processor's owned block (values in owned-local row-major
  /// order, as packed by gather_global_root) into the full global array,
  /// one owned run at a time.  `gcoords` are that processor's grid
  /// coordinates; its runs come from the DAD alone, in the same walk order
  /// as the sender's pack.
  void place_block(const std::vector<int>& gcoords, std::span<const T> blk,
                   std::vector<T>& out) const {
    Index total = 1;
    for (int d = 0; d < rank(); ++d)
      total *= dad_.local_extent(d, dim_coord(d, gcoords));
    require(static_cast<Index>(blk.size()) == total,
            "gathered block matches the sender's owned extent");
    size_t pos = 0;
    walk_runs(gcoords, [&](std::span<const Index>, std::vector<Index>& g,
                           Index count) {
      const Index flat = flat_global(g);
      require(flat >= 0 && flat + count <= static_cast<Index>(out.size()),
              "placed run within the global array");
      std::copy_n(blk.begin() + static_cast<std::ptrdiff_t>(pos), count,
                  out.begin() + flat);
      pos += static_cast<size_t>(count);
    });
  }

  [[nodiscard]] Index flat_local(std::span<const Index> l) const {
    Index flat = 0;
    for (int d = 0; d < rank(); ++d) {
      const Index shifted = l[static_cast<size_t>(d)] + dad_.dim(d).overlap_lo;
      require(shifted >= 0 && shifted < aext_[static_cast<size_t>(d)],
              "local index within allocated extent (incl. overlap)");
      flat += shifted * strides_[static_cast<size_t>(d)];
    }
    return flat;
  }

  Dad dad_;
  std::vector<int> coords_;
  std::vector<Index> lext_;     // owned local extents
  std::vector<Index> aext_;     // allocated extents (owned + overlap)
  std::vector<Index> strides_;  // row-major strides over aext_
  std::vector<T> data_;
  std::vector<Index> idx_scratch_;
};

}  // namespace f90d::rts
