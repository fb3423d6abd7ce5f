// The owned-run walker behind fill_global, for_each_owned and
// gather_global_root, checked element by element against a per-element
// reference built from Dad::global_of_local: the same elements, the same
// visiting order, the same storage slots and bit-identical values.  The
// cases cover every distribution kind (BLOCK, CYCLIC, CYCLIC(k), collapsed,
// INDIRECT), strided, reversed and offset alignments, overlap areas,
// ranks 1-3, replicated grid dimensions and grids with more processors
// than elements (empty local blocks).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "comm/grid_comm.hpp"
#include "machine/sim_machine.hpp"
#include "machine/topology.hpp"
#include "rts/dist_array.hpp"

namespace f90d {
namespace {

using rts::Dad;
using rts::DimMap;
using rts::DistArray;
using rts::DistKind;
using rts::Index;

struct Case {
  std::string name;
  std::vector<int> grid;
  std::vector<Index> extents;
  std::vector<DimMap> dims;
};

struct Dim {
  DistKind kind = DistKind::kBlock;
  int grid_dim = 0;
  Index template_extent = 0;
  Index stride = 1;
  Index offset = 0;
  Index block = 1;
  int overlap = 0;  // ghost width on both sides
};

DimMap dim_map(const Dim& s) {
  DimMap m;
  m.kind = s.kind;
  m.grid_dim = s.kind == DistKind::kCollapsed ? -1 : s.grid_dim;
  m.template_extent = s.template_extent;
  m.align_stride = s.stride;
  m.align_offset = s.offset;
  m.block = s.block;
  m.overlap_lo = m.overlap_hi = s.overlap;
  return m;
}

DimMap collapsed(Index n, int overlap = 0) {
  return dim_map({DistKind::kCollapsed, -1, n, 1, 0, 1, overlap});
}

DimMap indirect(std::vector<int> owners, int grid_dim, int nprocs) {
  DimMap m;
  m.kind = DistKind::kIndirect;
  m.grid_dim = grid_dim;
  m.template_extent = static_cast<Index>(owners.size());
  m.map_name = "MAP";
  m.table = rts::IndirectTable::build(std::move(owners), nprocs, "MAP");
  return m;
}

std::vector<Case> cases() {
  using K = DistKind;
  std::vector<Case> c;
  c.push_back({"block_overlap1", {4}, {10}, {dim_map({K::kBlock, 0, 10, 1, 0, 1, 1})}});
  c.push_back({"block_overlap2", {3}, {11}, {dim_map({K::kBlock, 0, 11, 1, 0, 1, 2})}});
  c.push_back({"cyclic", {3}, {11}, {dim_map({K::kCyclic, 0, 11})}});
  c.push_back({"cyclic2_offset", {4}, {13}, {dim_map({K::kCyclic, 0, 16, 1, 3, 2})}});
  c.push_back({"cyclic3_offset", {2}, {17}, {dim_map({K::kCyclic, 0, 20, 1, 2, 3})}});
  c.push_back({"cyclic3_one_proc", {1}, {10}, {dim_map({K::kCyclic, 0, 10, 1, 0, 3})}});
  c.push_back({"block_stride2_offset", {4}, {9}, {dim_map({K::kBlock, 0, 20, 2, 1})}});
  c.push_back({"block_reversed", {3}, {8}, {dim_map({K::kBlock, 0, 8, -1, 7, 1, 1})}});
  c.push_back({"block_stride_neg2", {4}, {7}, {dim_map({K::kBlock, 0, 16, -2, 14})}});
  c.push_back({"block_p_gt_n", {8}, {3}, {dim_map({K::kBlock, 0, 3, 1, 0, 1, 1})}});
  c.push_back({"cyclic2_p_gt_n", {4}, {3}, {dim_map({K::kCyclic, 0, 3, 1, 0, 2})}});
  c.push_back({"indirect", {4}, {12},
               {indirect({0, 0, 1, 3, 3, 3, 1, 0, 0, 2, 2, 0}, 0, 4)}});
  c.push_back({"indirect_empty_owner", {4}, {5}, {indirect({1, 1, 2, 1, 1}, 0, 4)}});
  c.push_back({"collapsed_replicated", {2}, {6}, {collapsed(6, 1)}});
  // Rank 1 on a 2-D grid: grid dimension 0 is a replication dimension.
  c.push_back({"block_on_replicated_grid", {2, 2}, {9},
               {dim_map({K::kBlock, 1, 9, 1, 0, 1, 1})}});
  c.push_back({"block_x_cyclic3", {2, 2}, {7, 10},
               {dim_map({K::kBlock, 0, 7, 1, 0, 1, 2}),
                dim_map({K::kCyclic, 1, 10, 1, 0, 3})}});
  c.push_back({"collapsed_x_block", {4}, {5, 9},
               {collapsed(5), dim_map({K::kBlock, 0, 9, 1, 0, 1, 2})}});
  c.push_back({"cyclic2_x_collapsed", {3}, {8, 4},
               {dim_map({K::kCyclic, 0, 8, 1, 0, 2}), collapsed(4, 1)}});
  c.push_back({"indirect_x_collapsed", {3}, {7, 5},
               {indirect({2, 0, 0, 1, 2, 2, 0}, 0, 3), collapsed(5)}});
  c.push_back({"reversed_x_cyclic_p_gt_n", {2, 4}, {6, 3},
               {dim_map({K::kBlock, 0, 12, -2, 11, 1, 1}),
                dim_map({K::kCyclic, 1, 3})}});
  c.push_back({"cyclic2_x_collapsed_x_stride2", {2, 2}, {5, 3, 6},
               {dim_map({K::kCyclic, 0, 5, 1, 0, 2}), collapsed(3, 1),
                dim_map({K::kBlock, 1, 13, 2, 1, 1, 1})}});
  c.push_back({"block_x_cyclic_x_indirect_p_gt_n", {2, 2, 2}, {1, 5, 6},
               {dim_map({K::kBlock, 0, 1, 1, 0, 1, 2}),
                dim_map({K::kCyclic, 1, 5}),
                indirect({0, 1, 1, 0, 0, 1}, 2, 2)}});
  c.push_back({"indirect_x_collapsed_x_cyclic3_offset", {2, 2}, {4, 3, 8},
               {indirect({1, 1, 0, 1}, 0, 2), collapsed(3),
                dim_map({K::kCyclic, 1, 10, 1, 2, 3})}});
  return c;
}

/// The value every test writes at global index g: nonzero and distinct per
/// element (LOGICAL alternates, so runs of 0 and 1 both appear).
template <typename T>
T value_at(Index flat) {
  if constexpr (std::is_same_v<T, double>) return 0.25 + 1.5 * static_cast<double>(flat);
  if constexpr (std::is_same_v<T, long long>) return 3 + 7 * flat;
  if constexpr (std::is_same_v<T, unsigned char>)
    return static_cast<unsigned char>(flat % 2);
}

Index flat_of(const Dad& dad, const std::vector<Index>& g) {
  Index flat = 0;
  for (int d = 0; d < dad.rank(); ++d)
    flat = flat * dad.extent(d) + g[static_cast<size_t>(d)];
  return flat;
}

/// Per-element reference: this processor's owned local index vectors in
/// owned-local row-major order, with the global index of each element
/// computed through Dad::global_of_local alone.
struct Reference {
  std::vector<std::vector<Index>> local;
  std::vector<std::vector<Index>> global;
};

template <typename T>
Reference reference_walk(const DistArray<T>& a) {
  Reference ref;
  const int r = a.rank();
  for (int d = 0; d < r; ++d)
    if (a.local_extent(d) == 0) return ref;
  std::vector<Index> l(static_cast<size_t>(r), 0);
  for (;;) {
    std::vector<Index> g(static_cast<size_t>(r));
    for (int d = 0; d < r; ++d)
      g[static_cast<size_t>(d)] = a.dad().global_of_local(
          d, l[static_cast<size_t>(d)], a.coord_along(d));
    ref.local.push_back(l);
    ref.global.push_back(std::move(g));
    int d = r - 1;
    for (; d >= 0; --d) {
      if (++l[static_cast<size_t>(d)] < a.local_extent(d)) break;
      l[static_cast<size_t>(d)] = 0;
    }
    if (d < 0) break;
  }
  return ref;
}

template <typename T>
void check_case(const Case& c) {
  SCOPED_TRACE(c.name);
  int nprocs = 1;
  for (int e : c.grid) nprocs *= e;
  machine::SimMachine m(nprocs, machine::CostModel::ipsc860(),
                        machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, comm::ProcGrid(c.grid));
    const Dad dad(c.extents, c.dims, gc.grid());
    const Reference ref = reference_walk(DistArray<T>(dad, gc));
    const size_t n = ref.local.size();

    // fill_global: the Init callback sees exactly the reference global
    // index vectors, in order, and each value lands in its reference slot.
    DistArray<T> filled(dad, gc);
    std::vector<std::vector<Index>> calls;
    filled.fill_global([&](std::span<const Index> g) {
      calls.emplace_back(g.begin(), g.end());
      return value_at<T>(flat_of(dad, calls.back()));
    });
    EXPECT_EQ(calls, ref.global) << "fill_global callback order";
    DistArray<T> expected(dad, gc);
    for (size_t i = 0; i < n; ++i)
      expected.at_local(ref.local[i]) = value_at<T>(flat_of(dad, ref.global[i]));
    EXPECT_EQ(filled.storage(), expected.storage())
        << "fill_global storage (ghost cells included)";

    // for_each_owned: the same elements, by reference, in the same order.
    size_t k = 0;
    filled.for_each_owned([&](const std::vector<Index>& g, T& v) {
      ASSERT_LT(k, n);
      EXPECT_EQ(g, ref.global[k]) << "element " << k;
      EXPECT_EQ(&v, &filled.at_local(ref.local[k])) << "element " << k;
      ++k;
    });
    EXPECT_EQ(k, n) << "for_each_owned visits every owned element";

    // gather_global_root: the root's array holds every global element.
    const std::vector<T> full = filled.gather_global_root(gc);
    if (gc.my_logical() == 0) {
      std::vector<T> want(static_cast<size_t>(dad.global_size()));
      for (Index f = 0; f < dad.global_size(); ++f)
        want[static_cast<size_t>(f)] = value_at<T>(f);
      EXPECT_EQ(full, want) << "gathered global array";
    } else {
      EXPECT_TRUE(full.empty());
    }
  });
}

TEST(DistArrayRuns, RealMatchesPerElementReference) {
  for (const Case& c : cases()) check_case<double>(c);
}

TEST(DistArrayRuns, IntegerMatchesPerElementReference) {
  for (const Case& c : cases()) check_case<long long>(c);
}

TEST(DistArrayRuns, LogicalMatchesPerElementReference) {
  for (const Case& c : cases()) check_case<unsigned char>(c);
}

/// The run builder itself: BLOCK at any stride is one run, CYCLIC(k) runs
/// never exceed k, INDIRECT merges exactly its consecutive cells.
TEST(DistArrayRuns, DimensionRunsCoverOwnedIndicesInOrder) {
  for (const Case& c : cases()) {
    SCOPED_TRACE(c.name);
    const Dad dad(c.extents, c.dims, comm::ProcGrid(c.grid));
    for (int d = 0; d < dad.rank(); ++d) {
      const DimMap& m = dad.dim(d);
      const int coords =
          m.kind == DistKind::kCollapsed ? 1 : dad.grid().extent(m.grid_dim);
      for (int coord = 0; coord < coords; ++coord) {
        std::vector<rts::DimRun> runs;
        dad.owned_runs(d, coord, runs);
        Index l = 0;
        for (const rts::DimRun& run : runs) {
          EXPECT_EQ(run.local, l);
          ASSERT_GT(run.count, 0);
          for (Index i = 0; i < run.count; ++i)
            EXPECT_EQ(dad.global_of_local(d, l + i, coord), run.global + i);
          l += run.count;
        }
        EXPECT_EQ(l, dad.local_extent(d, coord));
        if (m.kind == DistKind::kBlock || m.kind == DistKind::kCollapsed) {
          EXPECT_LE(runs.size(), 1u);
        }
        if (m.kind == DistKind::kCyclic && dad.grid().extent(m.grid_dim) > 1) {
          for (const rts::DimRun& run : runs) EXPECT_LE(run.count, m.block);
        }
        for (size_t i = 1; i < runs.size(); ++i)
          EXPECT_NE(runs[i - 1].global + runs[i - 1].count, runs[i].global)
              << "adjacent runs that continue each other are merged";
      }
    }
  }
}

}  // namespace
}  // namespace f90d
