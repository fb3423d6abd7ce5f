// Stage 1+2 index algebra (DAD) and the set_BOUND primitive: property-style
// sweeps over sizes, processor counts, distributions, alignment offsets and
// strides.  These are the invariants the whole compiler rests on.  The last
// sweep checks the one level derivation built on set_BOUND
// (exec::derive_level) against brute-force ownership.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "exec/exec_plan.hpp"
#include "rts/dad.hpp"
#include "rts/set_bound.hpp"

namespace f90d {
namespace {

using rts::Dad;
using rts::DimMap;
using rts::DistKind;
using rts::Index;
using rts::LocalRange;

Dad make1d(Index n, int p, DistKind kind, Index a = 1, Index b = 0,
           Index template_extent = -1, Index block = 1) {
  DimMap m;
  m.kind = kind;
  m.grid_dim = 0;
  m.template_extent = template_extent < 0 ? (a > 0 ? a * n + b : n + b) : template_extent;
  m.align_stride = a;
  m.align_offset = b;
  m.block = block;
  return Dad({n}, {m}, comm::ProcGrid({p}));
}

/// Iterate a LocalRange in either of its forms (uniform triplet or the
/// explicit enumeration block-cyclic ranges may produce).
template <typename F>
void for_each_local(const LocalRange& r, F&& f) {
  if (r.empty) return;
  if (r.enumerated()) {
    for (Index l : r.indices) f(l);
    return;
  }
  for (Index l = r.lb; l <= r.ub; l += r.st) f(l);
}

struct DistCase {
  Index n;
  int p;
  DistKind kind;
  Index block = 1;  ///< CYCLIC(k) block size
};

class DistAlgebra : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistAlgebra, OwnershipPartitionsEveryElementExactlyOnce) {
  const auto [n, p, kind, block] = GetParam();
  Dad dad = make1d(n, p, kind, 1, 0, -1, block);
  std::vector<Index> seen(static_cast<size_t>(n), 0);
  Index total = 0;
  for (int c = 0; c < p; ++c) {
    const Index cnt = dad.local_extent(0, c);
    total += cnt;
    for (Index l = 0; l < cnt; ++l) {
      const Index g = dad.global_of_local(0, l, c);
      ASSERT_GE(g, 0);
      ASSERT_LT(g, n);
      seen[static_cast<size_t>(g)] += 1;
      // Round trip: mu^-1 then mu.
      EXPECT_EQ(dad.owner_coord(0, g), c);
      EXPECT_EQ(dad.local_of_global(0, g), l);
    }
  }
  EXPECT_EQ(total, n);
  for (Index g = 0; g < n; ++g)
    EXPECT_EQ(seen[static_cast<size_t>(g)], 1) << "element " << g;
}

TEST_P(DistAlgebra, SetBoundCoversStridedRangesExactlyOnce) {
  const auto [n, p, kind, block] = GetParam();
  Dad dad = make1d(n, p, kind, 1, 0, -1, block);
  for (Index st : {1, 2, 3, 5}) {
    for (Index lo : {Index{0}, Index{1}, n / 3}) {
      const Index hi = n - 1;
      std::multiset<Index> visited;
      for (int c = 0; c < p; ++c) {
        const LocalRange r = rts::set_bound(dad, 0, c, lo, hi, st);
        for_each_local(r, [&](Index l) {
          const Index g = dad.global_of_local(0, l, c);
          // Owned and on the lattice lo, lo+st, ...
          EXPECT_EQ(dad.owner_coord(0, g), c);
          EXPECT_EQ((g - lo) % st, 0);
          EXPECT_GE(g, lo);
          EXPECT_LE(g, hi);
          visited.insert(g);
        });
      }
      // Exactly the global iteration set, each element once.
      std::multiset<Index> expected;
      for (Index g = lo; g <= hi; g += st) expected.insert(g);
      EXPECT_EQ(visited, expected)
          << "n=" << n << " p=" << p << " st=" << st << " lo=" << lo;
    }
  }
}

TEST_P(DistAlgebra, SetBoundNegativeStrideMatchesAscendingSet) {
  const auto [n, p, kind, block] = GetParam();
  Dad dad = make1d(n, p, kind, 1, 0, -1, block);
  std::multiset<Index> down, up;
  for (int c = 0; c < p; ++c) {
    const LocalRange d = rts::set_bound(dad, 0, c, n - 1, 0, -2);
    for_each_local(d, [&](Index l) { down.insert(dad.global_of_local(0, l, c)); });
    const LocalRange u = rts::set_bound(dad, 0, c, (n - 1) % 2, n - 1, 2);
    for_each_local(u, [&](Index l) { up.insert(dad.global_of_local(0, l, c)); });
  }
  EXPECT_EQ(down, up);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistAlgebra,
    ::testing::Values(DistCase{1, 1, DistKind::kBlock},
                      DistCase{16, 4, DistKind::kBlock},
                      DistCase{17, 4, DistKind::kBlock},
                      DistCase{100, 7, DistKind::kBlock},
                      DistCase{1023, 16, DistKind::kBlock},
                      DistCase{16, 4, DistKind::kCyclic},
                      DistCase{17, 4, DistKind::kCyclic},
                      DistCase{100, 7, DistKind::kCyclic},
                      DistCase{1023, 16, DistKind::kCyclic},
                      DistCase{5, 8, DistKind::kBlock},
                      DistCase{5, 8, DistKind::kCyclic},
                      // Block-cyclic CYCLIC(k): even/ragged courses, k both
                      // dividing and not dividing n, and P*k > n.
                      DistCase{16, 4, DistKind::kCyclic, 2},
                      DistCase{17, 4, DistKind::kCyclic, 2},
                      DistCase{23, 4, DistKind::kCyclic, 3},
                      DistCase{100, 7, DistKind::kCyclic, 4},
                      DistCase{1023, 16, DistKind::kCyclic, 5},
                      DistCase{5, 8, DistKind::kCyclic, 2},
                      DistCase{7, 2, DistKind::kCyclic, 16}));

TEST(DadAlignment, OffsetAlignmentShiftsOwnership) {
  // ALIGN A(I) WITH T(I+2) on T(12) BLOCK over 3 procs: chunk 4.
  Dad dad = make1d(10, 3, DistKind::kBlock, 1, 2, 12);
  // Element g has template cell g+2.
  EXPECT_EQ(dad.owner_coord(0, 0), 0);  // t=2
  EXPECT_EQ(dad.owner_coord(0, 1), 0);  // t=3
  EXPECT_EQ(dad.owner_coord(0, 2), 1);  // t=4
  EXPECT_EQ(dad.owner_coord(0, 9), 2);  // t=11
  // local_of_global/global_of_local stay inverse.
  for (Index g = 0; g < 10; ++g) {
    const int c = dad.owner_coord(0, g);
    EXPECT_EQ(dad.global_of_local(0, dad.local_of_global(0, g), c), g);
  }
}

TEST(DadAlignment, StridedAlignmentSpreadsElements) {
  // ALIGN A(I) WITH T(2*I): T(20) BLOCK over 4 procs, chunk 5.
  Dad dad = make1d(10, 4, DistKind::kBlock, 2, 0, 20);
  for (Index g = 0; g < 10; ++g) {
    const int c = dad.owner_coord(0, g);
    EXPECT_EQ(c, static_cast<int>((2 * g) / 5));
    EXPECT_EQ(dad.global_of_local(0, dad.local_of_global(0, g), c), g);
  }
  // Ownership counts sum to the array size.
  Index total = 0;
  for (int c = 0; c < 4; ++c) total += dad.local_extent(0, c);
  EXPECT_EQ(total, 10);
}

TEST(DadAlignment, CyclicOffsetRoundRobins) {
  Dad dad = make1d(10, 4, DistKind::kCyclic, 1, 1, 16);
  for (Index g = 0; g < 10; ++g)
    EXPECT_EQ(dad.owner_coord(0, g), static_cast<int>((g + 1) % 4));
}

TEST(DadBlockCyclic, Cyclic1MatchesPlainCyclicEverywhere) {
  // CYCLIC(1) must degenerate to the element-wise round-robin exactly:
  // same owners, same local indices, same set_BOUND ranges.
  const Index n = 29;
  const int p = 4;
  Dad plain = make1d(n, p, DistKind::kCyclic);
  Dad k1 = make1d(n, p, DistKind::kCyclic, 1, 0, -1, 1);
  for (Index g = 0; g < n; ++g) {
    EXPECT_EQ(plain.owner_coord(0, g), k1.owner_coord(0, g));
    EXPECT_EQ(plain.local_of_global(0, g), k1.local_of_global(0, g));
  }
  for (int c = 0; c < p; ++c) {
    EXPECT_EQ(plain.local_extent(0, c), k1.local_extent(0, c));
    const LocalRange a = rts::set_bound(plain, 0, c, 1, n - 1, 2);
    const LocalRange b = rts::set_bound(k1, 0, c, 1, n - 1, 2);
    EXPECT_EQ(a.empty, b.empty);
    EXPECT_EQ(a.lb, b.lb);
    EXPECT_EQ(a.ub, b.ub);
    EXPECT_EQ(a.st, b.st);
  }
  EXPECT_TRUE(plain.same_mapping(k1));
}

TEST(DadBlockCyclic, Cyclic2DealsPairsRoundRobin) {
  // T(12) CYCLIC(2) over 3 procs: cells 0,1 -> 0; 2,3 -> 1; 4,5 -> 2;
  // 6,7 -> 0; ...  Local indices are course-major within each owner.
  Dad dad = make1d(12, 3, DistKind::kCyclic, 1, 0, -1, 2);
  const int want_owner[12] = {0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2};
  const Index want_local[12] = {0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3};
  for (Index g = 0; g < 12; ++g) {
    EXPECT_EQ(dad.owner_coord(0, g), want_owner[g]) << "g=" << g;
    EXPECT_EQ(dad.local_of_global(0, g), want_local[g]) << "g=" << g;
    EXPECT_EQ(dad.global_of_local(0, want_local[g], want_owner[g]), g);
  }
  for (int c = 0; c < 3; ++c) EXPECT_EQ(dad.local_extent(0, c), 4);
}

TEST(DadBlockCyclic, OversizeBlockBehavesLikeBlock) {
  // k >= ceil(T/P) puts everything in the first course: CYCLIC(8) on T(16)
  // over 2 procs owns [0,7] / [8,15], same partition as BLOCK.
  Dad bc = make1d(16, 2, DistKind::kCyclic, 1, 0, -1, 8);
  Dad blk = make1d(16, 2, DistKind::kBlock);
  for (Index g = 0; g < 16; ++g) {
    EXPECT_EQ(bc.owner_coord(0, g), blk.owner_coord(0, g));
    EXPECT_EQ(bc.local_of_global(0, g), blk.local_of_global(0, g));
  }
}

TEST(DadBlockCyclic, SetBoundEnumeratesIrregularRanges) {
  // T(16) CYCLIC(2) over 2 procs: coord 0 owns globals {0,1,4,5,8,9,12,13}
  // (locals 0..7).  The strided range 0:15:3 = {0,3,6,9,12,15} hits coord
  // 0 at globals {0,9,12} -> locals {0,5,6}: not an arithmetic
  // progression, so set_BOUND must return the enumerated form.
  Dad dad = make1d(16, 2, DistKind::kCyclic, 1, 0, -1, 2);
  const LocalRange r = rts::set_bound(dad, 0, 0, 0, 15, 3);
  ASSERT_FALSE(r.empty);
  ASSERT_TRUE(r.enumerated());
  EXPECT_EQ(r.indices, (std::vector<Index>{0, 5, 6}));
  // Coord 1 gets globals {3,6,15} -> locals {1,2,7}, also irregular.
  const LocalRange r1 = rts::set_bound(dad, 0, 1, 0, 15, 3);
  ASSERT_FALSE(r1.empty);
  ASSERT_TRUE(r1.enumerated());
  EXPECT_EQ(r1.indices, (std::vector<Index>{1, 2, 7}));
  // A unit-stride range over one whole course is locally contiguous: the
  // triplet form survives.
  const LocalRange r2 = rts::set_bound(dad, 0, 0, 0, 3, 1);
  ASSERT_FALSE(r2.empty);
  EXPECT_FALSE(r2.enumerated());
  EXPECT_EQ(r2.lb, 0);
  EXPECT_EQ(r2.ub, 1);
  EXPECT_EQ(r2.st, 1);
}

TEST(DadBlockCyclic, SignatureAndMappingDistinguishBlockSizes) {
  Dad k2 = make1d(16, 4, DistKind::kCyclic, 1, 0, -1, 2);
  Dad k3 = make1d(16, 4, DistKind::kCyclic, 1, 0, -1, 3);
  Dad k1 = make1d(16, 4, DistKind::kCyclic);
  EXPECT_NE(k2.signature(), k3.signature());
  EXPECT_NE(k2.signature(), k1.signature());
  EXPECT_FALSE(k2.same_mapping(k3));
  EXPECT_FALSE(k2.same_mapping(k1));
  EXPECT_TRUE(k2.same_mapping(make1d(16, 4, DistKind::kCyclic, 1, 0, -1, 2)));
}

TEST(DadBlockCyclic, RejectsNonPositiveBlock) {
  DimMap m;
  m.kind = DistKind::kCyclic;
  m.grid_dim = 0;
  m.template_extent = 16;
  m.block = 0;
  EXPECT_THROW(Dad({16}, {m}, comm::ProcGrid({4})), Error);
}

TEST(Dad, CyclicRejectsNonUnitAlignmentStride) {
  DimMap m;
  m.kind = DistKind::kCyclic;
  m.grid_dim = 0;
  m.template_extent = 20;
  m.align_stride = 2;
  EXPECT_THROW(Dad({10}, {m}, comm::ProcGrid({4})), Error);
}

TEST(Dad, ReplicatedGridDimsComputedAutomatically) {
  DimMap m;
  m.kind = DistKind::kBlock;
  m.grid_dim = 1;
  m.template_extent = 8;
  Dad dad({8}, {m}, comm::ProcGrid({2, 4}));
  ASSERT_EQ(dad.replicated_grid_dims().size(), 1u);
  EXPECT_EQ(dad.replicated_grid_dims()[0], 0);
  EXPECT_FALSE(dad.fully_replicated());
  Dad rep = Dad::replicated({8}, comm::ProcGrid({2, 4}));
  EXPECT_TRUE(rep.fully_replicated());
  EXPECT_EQ(rep.replicated_grid_dims().size(), 2u);
}

TEST(Dad, SignatureDistinguishesMappings) {
  Dad a = make1d(16, 4, DistKind::kBlock);
  Dad b = make1d(16, 4, DistKind::kCyclic);
  Dad c = make1d(16, 4, DistKind::kBlock, 1, 2, 18);
  EXPECT_NE(a.signature(), b.signature());
  EXPECT_NE(a.signature(), c.signature());
  EXPECT_TRUE(a.same_mapping(make1d(16, 4, DistKind::kBlock)));
  EXPECT_FALSE(a.same_mapping(b));
}

TEST(SetBound, MasksProcessorsOutsideFixedPosition) {
  Dad dad = make1d(16, 4, DistKind::kBlock);
  // Single-point range 9:9 — only the owner (coord 2) is active.
  for (int c = 0; c < 4; ++c) {
    const LocalRange r = rts::set_bound(dad, 0, c, 9, 9, 1);
    EXPECT_EQ(!r.empty, c == 2);
  }
}

TEST(SetBound, EmptyGlobalRange) {
  Dad dad = make1d(16, 4, DistKind::kBlock);
  for (int c = 0; c < 4; ++c)
    EXPECT_TRUE(rts::set_bound(dad, 0, c, 5, 4, 1).empty);
}

// --- the shared level derivation ---------------------------------------------

/// One partitioning of a FORALL level for the brute-force sweep.
struct LevelCase {
  const char* name;
  DistKind kind;       ///< kCollapsed + !dad: unpartitioned or synthetic
  Index block = 1;     ///< CYCLIC(k)
  bool dad = true;     ///< set_BOUND-partitioned through a descriptor
  bool synth = false;  ///< synthetic BLOCK chunking over grid dimension 0
};

/// A 1-D descriptor of `n` cells over P processors for one case.  INDIRECT
/// owners are scattered irregularly so owned runs are not progressions.
Dad level_dad(const LevelCase& lc, Index n, int p) {
  if (lc.kind != DistKind::kIndirect)
    return make1d(n, p, lc.kind, 1, 0, -1, lc.block);
  std::vector<int> owners;
  for (Index t = 0; t < n; ++t)
    owners.push_back(static_cast<int>((t * t + 3 * t + t / 4) % p));
  DimMap m;
  m.kind = DistKind::kIndirect;
  m.grid_dim = 0;
  m.template_extent = n;
  m.map_name = "MAP";
  m.table = rts::IndirectTable::build(std::move(owners), p, "MAP");
  return Dad({n}, {m}, comm::ProcGrid({p}));
}

TEST(DeriveLevel, YieldsExactlyTheOwnedTripletMembers) {
  const Index n = 13;
  const long long lower = -2;  // source coordinates -2..10
  const LevelCase cases[] = {
      {"BLOCK", DistKind::kBlock},
      {"CYCLIC", DistKind::kCyclic},
      {"CYCLIC(3)", DistKind::kCyclic, 3},
      {"INDIRECT", DistKind::kIndirect},
      {"collapsed", DistKind::kCollapsed},
      {"synthetic", DistKind::kCollapsed, 1, false, true},
      {"unpartitioned", DistKind::kCollapsed, 1, false, false},
  };
  exec::PlanLoop out;  // reused throughout: no state may leak between calls
  long long checked = 0;
  for (const LevelCase& lc : cases) {
    for (int p = 1; p <= 5; ++p) {
      const Dad dad = level_dad(lc, n, p);
      const comm::ProcGrid grid({p});
      compile::IndexPartition ip;
      ip.var = "I";
      if (lc.dad) {
        ip.array = "A";
        ip.dim = 0;
      }
      if (lc.synth) ip.synth_grid_dim = 0;
      for (Index st : {1, 2, 3, -1, -2, -3}) {
        for (Index lo = lower; lo < lower + n; ++lo) {
          for (Index hi = lower - 1; hi <= lower + n; ++hi) {
            // Keep every member inside the array (hi may step one past
            // either end, which only shortens or empties the range).
            if (st < 0 && hi < lower) continue;
            if (st > 0 && hi >= lower + n) continue;
            std::vector<Index> members;
            for (Index v = lo; st > 0 ? v <= hi : v >= hi; v += st)
              members.push_back(v);
            const Index total = static_cast<Index>(members.size());
            for (int c = 0; c < p; ++c) {
              // Brute force: the members owner_coord gives to c (a
              // collapsed dimension or an unpartitioned level gives every
              // processor all of them; a synthetic dimension deals BLOCK
              // chunks of the trip sequence).
              std::vector<Index> want;
              for (Index t = 0; t < total; ++t) {
                const Index v = members[static_cast<size_t>(t)];
                bool mine = true;
                if (lc.dad)
                  mine = lc.kind == DistKind::kCollapsed ||
                         dad.owner_coord(0, v - lower) == c;
                else if (lc.synth)
                  mine = t / ((total + p - 1) / p) == c;
                if (mine) want.push_back(v);
              }
              // set_BOUND normalizes a negative stride to ascending order
              // (FORALL iterations are order-independent); the other
              // levels keep the triplet's order.
              if (lc.dad) std::sort(want.begin(), want.end());
              bool progression = true;
              for (size_t i = 2; i < want.size(); ++i)
                progression = progression &&
                              want[i] - want[i - 1] == want[1] - want[0];

              const int coord[] = {c};
              exec::derive_level(ip, lc.dad ? &dad : nullptr, lower, grid,
                                 coord, lo, hi, st, out);
              const std::string what =
                  std::string(lc.name) + " P=" + std::to_string(p) +
                  " c=" + std::to_string(c) + " " + std::to_string(lo) + ":" +
                  std::to_string(hi) + ":" + std::to_string(st);
              ASSERT_EQ(out.var, "I") << what;
              ASSERT_EQ(out.count, static_cast<Index>(want.size())) << what;
              for (Index i = 0; i < out.count; ++i)
                ASSERT_EQ(out.value_at(i), want[static_cast<size_t>(i)])
                    << what << " at " << i;
              ASSERT_EQ(out.values.empty(), progression) << what;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 10000);
}

}  // namespace
}  // namespace f90d
