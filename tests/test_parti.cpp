// PARTI-style inspector/executor runtime (paper §5.1, §5.3.2): the three
// schedule builders, both executors, replica handling, and schedule reuse.
#include <gtest/gtest.h>

#include "comm/grid_comm.hpp"
#include "machine/topology.hpp"
#include "parti/schedule.hpp"
#include "parti/schedule_cache.hpp"
#include "rts/dist_array.hpp"

namespace f90d {
namespace {

using machine::CostModel;
using machine::SimMachine;
using parti::Schedule;
using rts::Dad;
using rts::DimMap;
using rts::DistArray;
using rts::DistKind;
using rts::Index;

Dad block1d(Index n, const comm::ProcGrid& g, DistKind k = DistKind::kBlock) {
  DimMap m;
  m.kind = k;
  m.grid_dim = 0;
  m.template_extent = n;
  return Dad({n}, {m}, g);
}

template <typename F>
void on_machine(int p, F&& body) {
  SimMachine m(p, CostModel::ipsc860(), machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, comm::ProcGrid({p}));
    body(gc);
  });
}

class PartiProcs : public ::testing::TestWithParam<int> {};

/// schedule1 (precomp_read): f(i) = 2*i+1 over the lower half.
TEST_P(PartiProcs, Schedule1ReadInvertibleAffine) {
  const int p = GetParam();
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 64;
    Dad dad = block1d(n, gc.grid());
    DistArray<double> b(dad, gc);
    b.fill_global([](std::span<const Index> g) { return g[0] * 1.0; });

    // Iterations i = 0..n/2-1, block partitioned like the array itself;
    // iteration i needs element 2*i+1.
    auto needs_for = [&](int coord, std::vector<Index>& out) {
      const Index cnt = dad.local_extent(0, coord);
      for (Index l = 0; l < cnt; ++l) {
        const Index i = dad.global_of_local(0, l, coord);
        if (i < n / 2) out.push_back(2 * i + 1);
      }
    };
    std::vector<Index> my_needs;
    needs_for(gc.coord(0), my_needs);
    auto sched = parti::schedule1_read(
        gc, dad, my_needs, [&](int q, std::vector<Index>& out) {
          needs_for(gc.grid().coords_of(q)[0], out);
        });
    EXPECT_EQ(sched->inspector_messages, 0);  // local-only preprocessing
    auto tmp = parti::precomp_read(gc, *sched, b);
    ASSERT_EQ(tmp.size(), my_needs.size());
    for (size_t k = 0; k < my_needs.size(); ++k)
      EXPECT_DOUBLE_EQ(tmp[k], static_cast<double>(my_needs[k]));
  });
}

/// schedule2 (gather): vector-valued subscript known only at run time.
TEST_P(PartiProcs, Schedule2GatherVectorValued) {
  const int p = GetParam();
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 48;
    Dad dad = block1d(n, gc.grid());
    DistArray<double> b(dad, gc);
    b.fill_global([](std::span<const Index> g) { return 1000.0 + g[0]; });
    std::vector<Index> my_needs;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index l = 0; l < cnt; ++l) {
      const Index i = dad.global_of_local(0, l, gc.coord(0));
      my_needs.push_back((i * 13 + 7) % n);  // "V(i)"
    }
    auto sched = parti::schedule2(gc, dad, my_needs);
    if (p > 1) {
      EXPECT_GT(sched->inspector_messages, 0);  // fan-in happened
    }
    auto tmp = parti::gather(gc, *sched, b);
    ASSERT_EQ(tmp.size(), my_needs.size());
    for (size_t k = 0; k < my_needs.size(); ++k)
      EXPECT_DOUBLE_EQ(tmp[k], 1000.0 + my_needs[k]);
  });
}

/// schedule3 (scatter): A(U(i)) = value, U a permutation.
TEST_P(PartiProcs, Schedule3ScatterPermutation) {
  const int p = GetParam();
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 40;
    Dad dad = block1d(n, gc.grid());
    DistArray<double> a(dad, gc);
    std::vector<Index> my_dests;
    std::vector<double> my_vals;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index l = 0; l < cnt; ++l) {
      const Index i = dad.global_of_local(0, l, gc.coord(0));
      my_dests.push_back((i * 7 + 3) % n);  // gcd(7,40)=1: a permutation
      my_vals.push_back(i * 10.0);
    }
    auto sched = parti::schedule3(gc, dad, my_dests);
    parti::scatter(gc, *sched, a, std::span<const double>(my_vals));
    auto full = a.gather_global(gc);
    for (Index i = 0; i < n; ++i)
      EXPECT_DOUBLE_EQ(full[static_cast<size_t>((i * 7 + 3) % n)], i * 10.0);
  });
}

/// schedule1 write flavour (postcomp_write): invertible affine destination.
TEST_P(PartiProcs, Schedule1WritePostcomp) {
  const int p = GetParam();
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 32;
    Dad dad = block1d(n, gc.grid());
    DistArray<double> a(dad, gc);
    // Iterations i over the lower half write element 2*i (strided write).
    auto dests_for = [&](int coord, std::vector<Index>& out) {
      const Index cnt = dad.local_extent(0, coord);
      for (Index l = 0; l < cnt; ++l) {
        const Index i = dad.global_of_local(0, l, coord);
        if (i < n / 2) out.push_back(2 * i);
      }
    };
    std::vector<Index> my_dests;
    dests_for(gc.coord(0), my_dests);
    std::vector<double> vals;
    for (Index d : my_dests) vals.push_back(d + 0.25);
    auto sched = parti::schedule1_write(
        gc, dad, my_dests, [&](int q, std::vector<Index>& out) {
          dests_for(gc.grid().coords_of(q)[0], out);
        });
    EXPECT_EQ(sched->inspector_messages, 0);
    parti::postcomp_write(gc, *sched, a, std::span<const double>(vals));
    auto full = a.gather_global(gc);
    for (Index i = 0; i < n; ++i) {
      const double expect = i % 2 == 0 ? i + 0.25 : 0.0;
      EXPECT_DOUBLE_EQ(full[static_cast<size_t>(i)], expect);
    }
  });
}

/// Writes to a replicated destination reach every copy.
TEST_P(PartiProcs, ScatterToReplicatedReachesAllCopies) {
  const int p = GetParam();
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 16;
    Dad rep = Dad::replicated({n}, gc.grid());
    DistArray<double> a(rep, gc);
    // Only logical 0 contributes values (like a guard line would).
    std::vector<Index> dests;
    std::vector<double> vals;
    if (gc.my_logical() == 0) {
      for (Index i = 0; i < n; ++i) {
        dests.push_back(i);
        vals.push_back(i * 2.0 + 1);
      }
    }
    auto sched = parti::schedule3(gc, rep, dests);
    parti::scatter(gc, *sched, a, std::span<const double>(vals));
    // Every processor's local copy holds the data.
    for (Index i = 0; i < n; ++i) {
      std::vector<Index> gi{i};
      EXPECT_DOUBLE_EQ(a.at_global(gi), i * 2.0 + 1);
    }
  });
}

/// The same schedule re-executes on different (identically mapped) data —
/// the reuse the paper amortizes.
TEST_P(PartiProcs, ScheduleReusedAcrossArrays) {
  const int p = GetParam();
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 24;
    Dad dad = block1d(n, gc.grid());
    DistArray<double> b1(dad, gc), b2(dad, gc);
    b1.fill_global([](std::span<const Index> g) { return g[0] * 1.0; });
    b2.fill_global([](std::span<const Index> g) { return g[0] * -2.0; });
    std::vector<Index> needs;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index l = 0; l < cnt; ++l)
      needs.push_back((dad.global_of_local(0, l, gc.coord(0)) + 5) % n);
    auto sched = parti::schedule2(gc, dad, needs);
    auto t1 = parti::gather(gc, *sched, b1);
    auto t2 = parti::gather(gc, *sched, b2);  // reuse, no new inspector
    for (size_t k = 0; k < needs.size(); ++k) {
      EXPECT_DOUBLE_EQ(t1[k], needs[k] * 1.0);
      EXPECT_DOUBLE_EQ(t2[k], needs[k] * -2.0);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Procs, PartiProcs, ::testing::Values(1, 2, 4, 8, 16));

// --- the localize step --------------------------------------------------------

DimMap dim(DistKind k, int grid_dim, Index extent, Index block = 1,
           int overlap = 0) {
  DimMap m;
  m.kind = k;
  m.grid_dim = k == DistKind::kCollapsed ? -1 : grid_dim;
  m.template_extent = extent;
  m.block = block;
  m.overlap_lo = m.overlap_hi = overlap;
  return m;
}

template <typename F>
void on_grid(const std::vector<int>& shape, F&& body) {
  const comm::ProcGrid grid(shape);
  SimMachine m(grid.size(), CostModel::ipsc860(), machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, grid);
    body(gc);
  });
}

/// Every processor needs, and writes, every element in global-id order.
/// Each localized push list must hold, in the peer's order, the offsets of
/// exactly the elements the peer asks this processor for, and each
/// placement list those of every element this processor holds — each the
/// cell at_global reaches for that id.
void expect_offsets_address_at_global(const std::vector<int>& shape,
                                      const std::vector<Index>& extents,
                                      const std::vector<DimMap>& dims) {
  on_grid(shape, [&](comm::GridComm& gc) {
    const Dad dad(extents, dims, gc.grid());
    DistArray<double> a(dad, gc);
    Index total = 1;
    for (Index e : extents) total *= e;
    std::vector<Index> all(static_cast<size_t>(total));
    for (Index k = 0; k < total; ++k) all[static_cast<size_t>(k)] = k;
    const auto read = parti::schedule2(gc, dad, all);
    const auto write = parti::schedule3(gc, dad, all);
    for (const auto* s : {read.get(), write.get()}) {
      ASSERT_EQ(s->aext.size(), extents.size());
      for (int d = 0; d < a.rank(); ++d)
        EXPECT_EQ(s->aext[static_cast<size_t>(d)], a.alloc_extent(d));
    }
    const double* base = a.storage().data();
    std::vector<Index> g;
    size_t held = 0;
    for (int q = 0; q < gc.nprocs(); ++q) {
      const std::vector<int> qc = gc.grid().coords_of(q);
      const auto& push = read->push_off[static_cast<size_t>(q)];
      const auto& place = write->place_off[static_cast<size_t>(q)];
      size_t jp = 0, jw = 0;
      for (Index id : all) {
        rts::unflatten_global(dad, id, g);
        const bool pushed = dad.owner_logical(g, qc) == gc.my_logical();
        if (!pushed && !a.owns_global(g)) continue;
        const Index cell = &a.at_global(g) - base;
        if (pushed) {
          ASSERT_LT(jp, push.size()) << "peer " << q << " id " << id;
          EXPECT_EQ(push[jp++], cell) << "peer " << q << " id " << id;
        }
        if (a.owns_global(g)) {
          ASSERT_LT(jw, place.size()) << "peer " << q << " id " << id;
          EXPECT_EQ(place[jw++], cell) << "peer " << q << " id " << id;
        }
      }
      EXPECT_EQ(jp, push.size()) << "peer " << q;
      EXPECT_EQ(jw, place.size()) << "peer " << q;
      held = jw;
    }
    size_t owned = 0;
    a.for_each_owned([&](const std::vector<Index>&, double&) { ++owned; });
    EXPECT_EQ(held, owned);
  });
}

TEST(PartiLocalize, OffsetsAddressAtGlobal) {
  using K = DistKind;
  {
    SCOPED_TRACE("BLOCK");
    expect_offsets_address_at_global({4}, {10}, {dim(K::kBlock, 0, 10)});
  }
  {
    SCOPED_TRACE("CYCLIC(3)");
    expect_offsets_address_at_global({4}, {23}, {dim(K::kCyclic, 0, 23, 3)});
  }
  {
    SCOPED_TRACE("INDIRECT");
    DimMap ind = dim(K::kIndirect, 0, 12);
    ind.map_name = "MAP";
    ind.table = rts::IndirectTable::build(
        {3, 0, 0, 2, 1, 3, 3, 0, 2, 1, 1, 0}, 4, "MAP");
    expect_offsets_address_at_global({4}, {12}, {ind});
  }
  {
    SCOPED_TRACE("replicated along grid dimension 1");
    expect_offsets_address_at_global({2, 2}, {10}, {dim(K::kBlock, 0, 10)});
  }
  {
    SCOPED_TRACE("overlap areas (BLOCK x collapsed)");
    expect_offsets_address_at_global(
        {4}, {9, 5},
        {dim(K::kBlock, 0, 9, 1, 1), dim(K::kCollapsed, 0, 5, 1, 1)});
  }
}

TEST(PartiLocalize, ExtentMismatchIsRefused) {
  on_machine(2, [&](comm::GridComm& gc) {
    const Dad plain = block1d(8, gc.grid());
    DimMap m = plain.dim(0);
    m.overlap_lo = m.overlap_hi = 1;
    const Dad ghosted({8}, {m}, gc.grid());
    DistArray<double> a(ghosted, gc);
    std::vector<Index> needs = {static_cast<Index>(gc.my_logical())};
    const auto sched = parti::schedule2(gc, plain, needs);
    std::vector<double> out;
    try {
      parti::execute_read(gc, *sched, a, out);
      FAIL() << "expected the localized-extents diagnostic";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("allocated extents"),
                std::string::npos)
          << e.what();
    }
  });
}

/// LOGICAL storage travels as one byte per element: gathered values read
/// back as stored, scattered values land as "nonzero".
TEST(PartiLocalize, LogicalGatherAndScatter) {
  on_machine(4, [&](comm::GridComm& gc) {
    const Index n = 16;
    const Dad dad = block1d(n, gc.grid());
    DistArray<unsigned char> l(dad, gc);
    l.fill_global([](std::span<const Index> g) {
      return static_cast<unsigned char>(g[0] % 3 == 0 ? 1 : 0);
    });
    std::vector<Index> ids;
    std::vector<double> vals;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index k = 0; k < cnt; ++k) {
      const Index i = dad.global_of_local(0, k, gc.coord(0));
      ids.push_back(n - 1 - i);
      vals.push_back(i % 2 == 0 ? 0.0 : -2.5);
    }
    const auto got = parti::gather(gc, *parti::schedule2(gc, dad, ids), l);
    ASSERT_EQ(got.size(), ids.size());
    for (size_t k = 0; k < ids.size(); ++k)
      EXPECT_EQ(got[k], ids[k] % 3 == 0 ? 1 : 0) << "id " << ids[k];
    parti::scatter(gc, *parti::schedule3(gc, dad, ids), l,
                   std::span<const double>(vals));
    l.for_each_owned([&](const std::vector<Index>& g, unsigned char& v) {
      // Element g was written by iteration n-1-g.
      EXPECT_EQ(v, (n - 1 - g[0]) % 2 == 0 ? 0 : 1) << "element " << g[0];
    });
  });
}

TEST(ScheduleCache, HitsMissesAndDisable) {
  parti::ScheduleCache cache;
  int builds = 0;
  auto build = [&]() {
    ++builds;
    return std::make_shared<const Schedule>();
  };
  auto a = cache.get_or_build("k1", build);
  auto b = cache.get_or_build("k1", build);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  cache.get_or_build("k2", build);
  EXPECT_EQ(builds, 2);
  cache.set_enabled(false);
  cache.get_or_build("k1", build);  // bypassed
  EXPECT_EQ(builds, 3);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
}  // namespace f90d
