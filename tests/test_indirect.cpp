// INDIRECT(map) distributions: the PARTI/CHAOS value-based mapping where a
// replicated INTEGER map array names the owning grid coordinate of every
// template cell.  Covers the resolved IndirectTable, the DAD stage-2
// algebra on non-affine ownership, front-end acceptance/rejection, and
// end-to-end compiled runs (identity reads are communication-free, shifted
// reads go through inspector/executor schedules) differentially tested on
// several machine sizes with tree-walk and planned execution in lockstep.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "compile/driver.hpp"
#include "harness.hpp"
#include "rts/dad.hpp"
#include "support/diag.hpp"

namespace f90d {
namespace {

using interp::Index;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;
using rts::IndirectTable;

// --- IndirectTable -----------------------------------------------------------

TEST(IndirectTable, BuildsOwnerLocalAndCellLists) {
  // cells 0..7 dealt to 3 coords by value: {1,2,0,1, 0,0,2,1}.
  auto t = IndirectTable::build({1, 2, 0, 1, 0, 0, 2, 1}, 3, "MAP");
  ASSERT_EQ(t->owner.size(), 8u);
  EXPECT_EQ(t->cells[0], (std::vector<Index>{2, 4, 5}));
  EXPECT_EQ(t->cells[1], (std::vector<Index>{0, 3, 7}));
  EXPECT_EQ(t->cells[2], (std::vector<Index>{1, 6}));
  // local_index is the rank of the cell within its owner's ascending list.
  EXPECT_EQ(t->local_index[2], 0);
  EXPECT_EQ(t->local_index[4], 1);
  EXPECT_EQ(t->local_index[5], 2);
  EXPECT_EQ(t->local_index[7], 2);
  EXPECT_NE(t->hash, 0u);
}

TEST(IndirectTable, HashDistinguishesDifferentMaps) {
  auto a = IndirectTable::build({0, 1, 0, 1}, 2, "M");
  auto b = IndirectTable::build({1, 0, 1, 0}, 2, "M");
  auto c = IndirectTable::build({0, 1, 0, 1}, 2, "M");
  EXPECT_NE(a->hash, b->hash);
  EXPECT_EQ(a->hash, c->hash);
}

TEST(IndirectTable, OutOfRangeOwnerIsDiagnosed) {
  try {
    (void)IndirectTable::build({0, 3, 1}, 2, "MAP");
    FAIL() << "expected RtsError";
  } catch (const RtsError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("MAP"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cell 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 processors"), std::string::npos) << msg;
  }
}

// --- DAD algebra -------------------------------------------------------------

Dad indirect_dad(std::vector<int> owners, int nprocs,
                 const comm::ProcGrid& grid) {
  const Index n = static_cast<Index>(owners.size());
  DimMap m;
  m.kind = DistKind::kIndirect;
  m.grid_dim = 0;
  m.template_extent = n;
  m.map_name = "MAP";
  m.table = IndirectTable::build(std::move(owners), nprocs, "MAP");
  return Dad({n}, {m}, grid);
}

TEST(DadIndirect, OwnerLocalGlobalRoundTrip) {
  comm::ProcGrid grid({3});
  Dad d = indirect_dad({1, 2, 0, 1, 0, 0, 2, 1}, 3, grid);
  EXPECT_EQ(d.local_extent(0, 0), 3);
  EXPECT_EQ(d.local_extent(0, 1), 3);
  EXPECT_EQ(d.local_extent(0, 2), 2);
  for (Index g = 0; g < 8; ++g) {
    const int c = d.owner_coord(0, g);
    const Index l = d.local_of_global(0, g);
    EXPECT_EQ(d.global_of_local(0, l, c), g) << "cell " << g;
  }
  // The signature carries the map identity, so schedule keys distinguish
  // different INDIRECT mappings of the same extent.
  EXPECT_NE(d.signature().find("MAP"), std::string::npos) << d.signature();
}

TEST(DadIndirect, SameMappingComparesTables) {
  comm::ProcGrid grid({2});
  Dad a = indirect_dad({0, 1, 1, 0}, 2, grid);
  Dad b = indirect_dad({0, 1, 1, 0}, 2, grid);
  Dad c = indirect_dad({1, 0, 0, 1}, 2, grid);
  EXPECT_TRUE(a.same_mapping(b));   // equal hash, distinct table objects
  EXPECT_FALSE(a.same_mapping(c));  // different ownership
}

TEST(DadIndirect, RequiresIdentityAlignment) {
  comm::ProcGrid grid({2});
  DimMap m;
  m.kind = DistKind::kIndirect;
  m.grid_dim = 0;
  m.template_extent = 8;
  m.align_stride = 2;
  m.map_name = "MAP";
  m.table = IndirectTable::build(std::vector<int>(8, 0), 2, "MAP");
  EXPECT_THROW(Dad({4}, {m}, grid), Error);
}

// --- front end ---------------------------------------------------------------

std::string indirect_program(const char* decls, const char* dist) {
  std::string src = "PROGRAM IND\n";
  src += decls;
  src += "C$ PROCESSORS P(2)\n";
  src += "C$ TEMPLATE T(8)\n";
  src += std::string("C$ DISTRIBUTE T(") + dist + ")\n";
  src += "C$ ALIGN A(I) WITH T(I)\n";
  src += "      FORALL (I = 1:8) A(I) = 1.0\n";
  src += "      END PROGRAM IND\n";
  return src;
}

TEST(IndirectFrontend, AcceptsWellFormedDirective) {
  auto c = compile::compile_source(indirect_program(
      "      REAL A(8)\n      INTEGER MAP(8)\n", "INDIRECT(MAP)"));
  const auto& info = c.sema.templates.at("T").dist[0];
  EXPECT_EQ(info.map, "MAP");
}

TEST(IndirectFrontend, RejectsUnknownWrongTypeOrWrongExtentMap) {
  // unknown symbol
  EXPECT_THROW(compile::compile_source(indirect_program(
                   "      REAL A(8)\n", "INDIRECT(NOSUCH)")),
               SemaError);
  // REAL map
  EXPECT_THROW(compile::compile_source(indirect_program(
                   "      REAL A(8)\n      REAL MAP(8)\n", "INDIRECT(MAP)")),
               SemaError);
  // extent mismatch with the template dimension
  EXPECT_THROW(
      compile::compile_source(indirect_program(
          "      REAL A(8)\n      INTEGER MAP(4)\n", "INDIRECT(MAP)")),
      SemaError);
}

TEST(IndirectFrontend, RejectsNonIdentityAlignment) {
  std::string src = R"(PROGRAM IND
      REAL A(4)
      INTEGER MAP(8)
C$ PROCESSORS P(2)
C$ TEMPLATE T(8)
C$ DISTRIBUTE T(INDIRECT(MAP))
C$ ALIGN A(I) WITH T(2*I)
      FORALL (I = 1:4) A(I) = 1.0
      END PROGRAM IND
)";
  EXPECT_THROW(compile::compile_source(src), SemaError);
}

// --- end-to-end --------------------------------------------------------------

std::string indirect_smoke_source(int n, int p) {
  return strformat(R"(PROGRAM INDSMOKE
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER MAP(N)
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(INDIRECT(MAP))
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) A(I) = B(I) * 2.0
      FORALL (I = 1:N-1) A(I) = A(I) + B(I+1)
      END PROGRAM INDSMOKE
)",
                   n, p);
}

/// Scrambled but deterministic ownership: cell i on coord (i*5 + 2) mod p.
int smoke_owner(Index i, int p) { return static_cast<int>((i * 5 + 2) % p); }

std::vector<double> indirect_smoke_oracle(int n) {
  std::vector<double> a(static_cast<size_t>(n));
  auto b = [](Index i) { return i * 3.0 + 1.0; };
  for (int i = 0; i < n; ++i) a[static_cast<size_t>(i)] = b(i) * 2.0;
  for (int i = 0; i < n - 1; ++i) a[static_cast<size_t>(i)] += b(i + 1);
  return a;
}

harness::DiffRun run_indirect_smoke(int n, int p,
                                    const interp::RunOptions& ro = {}) {
  auto compiled = compile::compile_source(indirect_smoke_source(n, p));
  // A charging cost model, so simulated times are comparable, not all 0 s.
  machine::SimMachine m(p, machine::CostModel::ipsc860(),
                        machine::make_hypercube());
  interp::Init init;
  init.ints["MAP"] = [p](std::span<const Index> g) {
    return smoke_owner(g[0], p) + 1;  // directive values are 1-based
  };
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 3.0 + 1.0; };
  auto result = interp::run_compiled(compiled, m, init, ro);
  harness::DiffRun d{"A", result.real_arrays.at("A"),
                     indirect_smoke_oracle(n)};
  harness::fill_counters(d, result);
  return d;
}

TEST(IndirectEndToEnd, MatchesOracleOnSeveralMachineSizes) {
  for (int p : {1, 2, 3, 4}) {
    auto r = run_indirect_smoke(13, p);
    EXPECT_EQ(harness::max_abs_diff(r), 0.0) << "p=" << p;
  }
}

TEST(IndirectEndToEnd, TreeAndPlannedExecutionAgreeBitForBit) {
  for (int p : {2, 4}) {
    interp::RunOptions tree;
    tree.exec_plans = false;
    auto t = run_indirect_smoke(13, p, tree);
    auto planned = run_indirect_smoke(13, p);
    ASSERT_EQ(t.got.size(), planned.got.size());
    for (size_t k = 0; k < t.got.size(); ++k)
      EXPECT_EQ(t.got[k], planned.got[k]) << "p=" << p << " k=" << k;
    EXPECT_GT(t.sim_time, 0.0) << "p=" << p;
    EXPECT_EQ(t.sim_time, planned.sim_time) << "p=" << p;
    EXPECT_EQ(harness::max_abs_diff(t), 0.0) << "p=" << p;
  }
}

/// A map initializer is optional: without one the table falls back to the
/// BLOCK-equivalent ownership, so the program still runs and agrees with
/// the oracle.
TEST(IndirectEndToEnd, MissingMapInitializerFallsBackToBlock) {
  const int n = 13, p = 3;
  auto compiled = compile::compile_source(indirect_smoke_source(n, p));
  machine::SimMachine m = harness::make_machine(p);
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 3.0 + 1.0; };
  auto result = interp::run_compiled(compiled, m, init);
  const auto want = indirect_smoke_oracle(n);
  const auto& got = result.real_arrays.at("A");
  ASSERT_EQ(got.size(), want.size());
  for (size_t k = 0; k < want.size(); ++k) EXPECT_EQ(got[k], want[k]);
}

/// An out-of-range map value surfaces as a runtime diagnostic naming the
/// map array.
TEST(IndirectEndToEnd, OutOfRangeMapValueThrows) {
  const int n = 8, p = 2;
  auto compiled = compile::compile_source(indirect_smoke_source(n, p));
  machine::SimMachine m = harness::make_machine(p);
  interp::Init init;
  init.ints["MAP"] = [](std::span<const Index>) { return 5; };  // p == 2
  init.real["B"] = [](std::span<const Index>) { return 0.0; };
  EXPECT_THROW((void)interp::run_compiled(compiled, m, init), Error);
}

}  // namespace
}  // namespace f90d
