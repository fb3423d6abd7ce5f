#include "rts/dad.hpp"

#include <algorithm>
#include <sstream>

namespace f90d::rts {

const char* to_string(DistKind k) {
  switch (k) {
    case DistKind::kBlock: return "BLOCK";
    case DistKind::kCyclic: return "CYCLIC";
    case DistKind::kCollapsed: return "*";
    case DistKind::kIndirect: return "INDIRECT";
  }
  return "?";
}

std::shared_ptr<const IndirectTable> IndirectTable::build(
    std::vector<int> owners, int nprocs, const std::string& what) {
  auto tab = std::make_shared<IndirectTable>();
  tab->owner = std::move(owners);
  tab->local_index.resize(tab->owner.size());
  tab->cells.resize(static_cast<size_t>(nprocs));
  unsigned long long h = 1469598103934665603ull;  // FNV-1a
  for (size_t t = 0; t < tab->owner.size(); ++t) {
    const int c = tab->owner[t];
    if (c < 0 || c >= nprocs)
      throw RtsError("INDIRECT map value out of range in " + what + ": cell " +
                     std::to_string(t + 1) + " names processor " +
                     std::to_string(c + 1) + " but the grid dimension has " +
                     std::to_string(nprocs) + " processors");
    auto& owned = tab->cells[static_cast<size_t>(c)];
    tab->local_index[t] = static_cast<Index>(owned.size());
    owned.push_back(static_cast<Index>(t));
    h = (h ^ static_cast<unsigned long long>(c)) * 1099511628211ull;
  }
  h = (h ^ tab->owner.size()) * 1099511628211ull;
  tab->hash = h;
  return tab;
}

namespace {

/// Number of template cells t' in [0, t] owned by `coord` under CYCLIC(k)
/// over p grid coordinates.  Owned cells within each course of k*p cells
/// are the run [coord*k, coord*k + k - 1].
Index cyclic_owned_upto(Index t, int coord, Index k, Index p) {
  if (t < 0) return 0;
  const Index course = k * p;
  const Index full = (t / course) * k;  // cells from completed courses
  const Index r = t % course;           // position within the current course
  const Index in_run = r - static_cast<Index>(coord) * k + 1;
  return full + std::clamp<Index>(in_run, 0, k);
}

}  // namespace

Dad Dad::replicated(std::vector<Index> extents, const comm::ProcGrid& grid) {
  std::vector<DimMap> dims(extents.size());
  for (size_t d = 0; d < extents.size(); ++d) {
    dims[d].kind = DistKind::kCollapsed;
    dims[d].template_extent = extents[d];
  }
  return Dad(std::move(extents), std::move(dims), grid);
}

Dad::Dad(std::vector<Index> extents, std::vector<DimMap> dims,
         comm::ProcGrid grid)
    : extents_(std::move(extents)), dims_(std::move(dims)), grid_(std::move(grid)) {
  require(extents_.size() == dims_.size(), "DAD rank consistent");
  std::vector<bool> used(static_cast<size_t>(grid_.ndims()), false);
  for (size_t d = 0; d < dims_.size(); ++d) {
    const DimMap& m = dims_[d];
    if (m.kind != DistKind::kCollapsed) {
      require(m.grid_dim >= 0 && m.grid_dim < grid_.ndims(),
              "distributed dimension maps to a grid dimension");
      require(m.template_extent > 0, "template extent positive");
      require(m.align_stride != 0, "alignment stride non-zero");
      if (m.kind == DistKind::kCyclic) {
        require(m.align_stride == 1,
                "cyclic distribution requires unit alignment stride");
        require(m.block >= 1, "CYCLIC(k) block size positive");
      }
      if (m.kind == DistKind::kIndirect) {
        require(m.align_stride == 1 && m.align_offset == 0,
                "INDIRECT distribution requires identity alignment");
        require(!m.map_name.empty(), "INDIRECT distribution names a map array");
      }
      used[static_cast<size_t>(m.grid_dim)] = true;
    }
  }
  for (int gd = 0; gd < grid_.ndims(); ++gd)
    if (!used[static_cast<size_t>(gd)]) replicated_grid_dims_.push_back(gd);
}

bool Dad::fully_replicated() const {
  for (const DimMap& m : dims_)
    if (m.kind != DistKind::kCollapsed) return false;
  return true;
}

Index Dad::global_size() const {
  Index n = 1;
  for (Index e : extents_) n *= e;
  return n;
}

Index Dad::block_chunk(int d) const {
  const DimMap& m = dim(d);
  const Index p = grid_.extent(m.grid_dim);
  return (m.template_extent + p - 1) / p;
}

int Dad::owner_coord(int d, Index g) const {
  const DimMap& m = dim(d);
  if (m.kind == DistKind::kCollapsed) return 0;
  const Index t = m.align_stride * g + m.align_offset;
  require(t >= 0 && t < m.template_extent, "aligned index within template");
  if (m.kind == DistKind::kIndirect) {
    require(m.table != nullptr, "INDIRECT map table resolved before use");
    return m.table->owner[static_cast<size_t>(t)];
  }
  if (m.kind == DistKind::kBlock) return static_cast<int>(t / block_chunk(d));
  // CYCLIC(k): blocks of k cells dealt round-robin (k == 1: t mod P).
  return static_cast<int>((t / m.block) % grid_.extent(m.grid_dim));
}

Index Dad::local_of_global(int d, Index g) const {
  const DimMap& m = dim(d);
  if (m.kind == DistKind::kCollapsed) return g;
  const Index t = m.align_stride * g + m.align_offset;
  if (m.kind == DistKind::kIndirect) {
    require(m.table != nullptr, "INDIRECT map table resolved before use");
    return m.table->local_index[static_cast<size_t>(t)];
  }
  if (m.kind == DistKind::kBlock) {
    const Index chunk = block_chunk(d);
    const Index t_start = (t / chunk) * chunk;  // first template cell in block
    // Local position = count of aligned array cells in [t_start, t].
    // With stride a, aligned cells are t' = a*g' + b; the first g' whose
    // aligned cell falls at or after t_start:
    const Index a = m.align_stride, b = m.align_offset;
    if (a == 1) return t - std::max(t_start, b);
    if (a > 0) {
      Index g_first = (t_start - b + a - 1) / a;  // ceil((t_start-b)/a)
      if (g_first < 0) g_first = 0;
      return g - g_first;
    }
    // a < 0: aligned cells descend; count from the top of the block.
    const Index t_end = std::min(t_start + chunk - 1, m.template_extent - 1);
    Index g_first = (b - t_end - a - 1) / (-a);  // smallest g with t <= t_end
    if (g_first < 0) g_first = 0;
    return g - g_first;
  }
  // CYCLIC(k) (align_stride == 1 enforced): local index = rank of t among
  // the owning coordinate's cells, counting from the first aligned cell
  // (t >= align_offset).  For k == 1, b == 0 this is the classic t / P.
  const Index p = grid_.extent(m.grid_dim);
  const int c = static_cast<int>((t / m.block) % p);
  return cyclic_owned_upto(t, c, m.block, p) - 1 -
         cyclic_owned_upto(m.align_offset - 1, c, m.block, p);
}

Index Dad::global_of_local(int d, Index l, int coord) const {
  const DimMap& m = dim(d);
  if (m.kind == DistKind::kCollapsed) return l;
  if (m.kind == DistKind::kIndirect) {
    require(m.table != nullptr, "INDIRECT map table resolved before use");
    const auto& owned = m.table->cells[static_cast<size_t>(coord)];
    require(l >= 0 && l < static_cast<Index>(owned.size()),
            "INDIRECT local index within owned cells");
    return owned[static_cast<size_t>(l)];
  }
  const Index a = m.align_stride, b = m.align_offset;
  if (m.kind == DistKind::kBlock) {
    const Index chunk = block_chunk(d);
    const Index t_start = static_cast<Index>(coord) * chunk;
    if (a == 1) return std::max(t_start, b) - b + l;
    if (a > 0) {
      Index g_first = (t_start - b + a - 1) / a;
      if (g_first < 0) g_first = 0;
      return g_first + l;
    }
    const Index t_end =
        std::min(t_start + chunk - 1, m.template_extent - 1);
    Index g_first = (b - t_end - a - 1) / (-a);
    if (g_first < 0) g_first = 0;
    return g_first + l;
  }
  // CYCLIC(k): the (l + skipped + 1)-th cell owned by `coord`, where
  // `skipped` counts owned cells below the alignment origin.  Cells owned
  // by a coordinate sit course-major: course l'/k, position l'%k inside the
  // block at coord*k.  (k == 1, b == 0: t = coord + l*P.)
  const Index p = grid_.extent(m.grid_dim);
  const Index lp = l + cyclic_owned_upto(b - 1, coord, m.block, p);
  const Index t = (lp / m.block) * m.block * p +
                  static_cast<Index>(coord) * m.block + lp % m.block;
  return t - b;
}

Index Dad::local_extent(int d, int coord) const {
  const DimMap& m = dim(d);
  if (m.kind == DistKind::kCollapsed) return extent(d);
  // Count global indices g in [0, extent) owned by `coord`.
  const Index n = extent(d);
  if (n == 0) return 0;
  if (m.kind == DistKind::kIndirect) {
    require(m.table != nullptr, "INDIRECT map table resolved before use");
    return static_cast<Index>(m.table->cells[static_cast<size_t>(coord)].size());
  }
  if (m.kind == DistKind::kBlock) {
    // Owned template range [lo, hi].
    const Index chunk = block_chunk(d);
    const Index t_lo = static_cast<Index>(coord) * chunk;
    const Index t_hi = std::min(t_lo + chunk - 1, m.template_extent - 1);
    if (t_lo > t_hi) return 0;
    const Index a = m.align_stride, b = m.align_offset;
    if (a > 0) {
      Index g_lo = (t_lo - b + a - 1) / a;   // ceil
      Index g_hi = (t_hi - b) / a;           // floor
      g_lo = std::max<Index>(g_lo, 0);
      g_hi = std::min<Index>(g_hi, n - 1);
      return g_hi >= g_lo ? g_hi - g_lo + 1 : 0;
    }
    Index g_lo = (b - t_hi - a - 1) / (-a);
    Index g_hi = (b - t_lo) / (-a);
    g_lo = std::max<Index>(g_lo, 0);
    g_hi = std::min<Index>(g_hi, n - 1);
    return g_hi >= g_lo ? g_hi - g_lo + 1 : 0;
  }
  // CYCLIC(k), a==1: count t in [b, n-1+b] with (t/k) mod P == coord.
  const Index p = grid_.extent(m.grid_dim);
  const Index b = m.align_offset;
  return cyclic_owned_upto(n - 1 + b, coord, m.block, p) -
         cyclic_owned_upto(b - 1, coord, m.block, p);
}

void Dad::owned_runs(int d, int coord, std::vector<DimRun>& out) const {
  const size_t first = out.size();
  // Extend the last run of this dimension when `g` continues it.
  auto add = [&](Index l, Index g, Index count) {
    if (out.size() > first) {
      DimRun& last = out.back();
      if (last.global + last.count == g) {
        last.count += count;
        return;
      }
    }
    out.push_back(DimRun{l, g, count});
  };
  const Index n = local_extent(d, coord);
  if (n == 0) return;
  const DimMap& m = dim(d);
  if (m.kind == DistKind::kIndirect) {
    const auto& cells = m.table->cells[static_cast<size_t>(coord)];
    for (Index l = 0; l < n; ++l) add(l, cells[static_cast<size_t>(l)], 1);
    return;
  }
  if (m.kind != DistKind::kCyclic) {
    add(0, global_of_local(d, 0, coord), n);
    return;
  }
  // CYCLIC(k): local index l sits at position (l + skipped) mod k of its
  // block, where `skipped` counts the owned cells below the alignment origin.
  const Index p = grid_.extent(m.grid_dim);
  const Index skipped =
      cyclic_owned_upto(m.align_offset - 1, coord, m.block, p);
  for (Index l = 0; l < n;) {
    const Index count = std::min(m.block - (l + skipped) % m.block, n - l);
    add(l, global_of_local(d, l, coord), count);
    l += count;
  }
}

int Dad::owner_logical(const std::vector<Index>& gidx,
                       const std::vector<int>& base_coords) const {
  std::vector<int> coords = base_coords;
  return owner_logical_in(gidx, coords);
}

int Dad::owner_logical_in(const std::vector<Index>& gidx,
                          std::vector<int>& coords) const {
  // Replicated grid dims: keep the caller's coordinate (any replica works
  // and the caller's line minimizes distance); grid dims carrying array
  // dimensions are overwritten with the owner coordinate.
  for (int d = 0; d < rank(); ++d) {
    const DimMap& m = dim(d);
    if (m.kind == DistKind::kCollapsed) continue;
    coords[static_cast<size_t>(m.grid_dim)] =
        owner_coord(d, gidx[static_cast<size_t>(d)]);
  }
  return grid_.linear_of(coords);
}

bool Dad::same_mapping(const Dad& other) const {
  if (rank() != other.rank()) return false;
  if (grid_.dims() != other.grid_.dims()) return false;
  for (int d = 0; d < rank(); ++d) {
    const DimMap& a = dim(d);
    const DimMap& b = other.dim(d);
    if (extent(d) != other.extent(d)) return false;
    if (a.kind != b.kind) return false;
    if (a.kind == DistKind::kCollapsed) continue;
    if (a.grid_dim != b.grid_dim || a.template_extent != b.template_extent ||
        a.align_stride != b.align_stride || a.align_offset != b.align_offset)
      return false;
    if (a.kind == DistKind::kCyclic && a.block != b.block) return false;
    if (a.kind == DistKind::kIndirect) {
      // Same mapping iff the resolved ownership tables agree (same table or
      // equal content hash); fall back to map-name identity pre-resolution.
      if (a.table && b.table) {
        if (a.table != b.table && a.table->hash != b.table->hash) return false;
      } else if (a.map_name != b.map_name) {
        return false;
      }
    }
  }
  return true;
}

std::string Dad::signature() const {
  std::ostringstream os;
  os << "r" << rank() << "[";
  for (int d = 0; d < rank(); ++d) {
    const DimMap& m = dim(d);
    os << extent(d) << ":" << to_string(m.kind);
    if (m.kind == DistKind::kCyclic && m.block > 1) os << "(" << m.block << ")";
    if (m.kind == DistKind::kIndirect) {
      os << "(" << m.map_name;
      if (m.table) os << "#" << std::hex << m.table->hash << std::dec;
      os << ")";
    }
    os << ":" << m.grid_dim << ":" << m.template_extent << ":"
       << m.align_stride << ":" << m.align_offset
       << (d + 1 < rank() ? "," : "");
  }
  os << "]g(";
  for (int gd = 0; gd < grid_.ndims(); ++gd)
    os << grid_.extent(gd) << (gd + 1 < grid_.ndims() ? "x" : "");
  os << ")";
  return os.str();
}

}  // namespace f90d::rts
