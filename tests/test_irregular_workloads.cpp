// Differential sweeps for the irregular scenario workloads (ELL SpMV,
// unstructured-mesh edge sweep, particle binning): every machine size and
// both BLOCK and INDIRECT(MAP) value distributions must agree bit-for-bit
// with the sequential oracle, the tree walk and the irregular plan must
// produce identical values AND identical simulated times, and steady-state
// runs must reuse their PARTI schedules instead of re-running the inspector.
// Small LOGICAL gathers/scatters and masked buffered writes check the one
// PARTI executor against sequential oracles on every backend.
#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "harness.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

constexpr const char* kDists[] = {"BLOCK", "INDIRECT(MAP)"};

interp::RunOptions tree_walk() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

/// The tree-vs-plan comparisons run on the iPSC/860 model: on the ideal one
/// every clock is 0 s and the simulated-time check would be vacuous.
const machine::CostModel& ipsc() { return machine::CostModel::ipsc860(); }

/// Values bit-identical and simulated clocks equal: the plan path must be
/// indistinguishable from the tree walk on the wire.
void expect_same_run(const DiffRun& t, const DiffRun& p, const char* what) {
  ASSERT_EQ(t.got.size(), p.got.size()) << what;
  for (size_t k = 0; k < t.got.size(); ++k)
    EXPECT_EQ(t.got[k], p.got[k]) << what << " k=" << k;
  EXPECT_GT(t.sim_time, 0.0) << what;
  EXPECT_EQ(t.sim_time, p.sim_time) << what;
}

// --- ELL sparse matrix-vector product ----------------------------------------

TEST(IrregularWorkloads, SpmvMatchesOracleOnGridSweep) {
  const int n = 19, nk = 3, steps = 4;
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4}) {
      auto r = harness::run_spmv_ell(n, nk, steps, p, dist);
      EXPECT_EQ(harness::max_abs_diff(r), 0.0) << dist << " p=" << p;
    }
}

TEST(IrregularWorkloads, SpmvTreeAndPlanBitIdentical) {
  const int n = 19, nk = 3, steps = 3;
  for (const char* dist : kDists)
    for (int p : {2, 4}) {
      auto t =
          harness::run_spmv_ell(n, nk, steps, p, dist, tree_walk(), ipsc());
      auto pl = harness::run_spmv_ell(n, nk, steps, p, dist, {}, ipsc());
      expect_same_run(t, pl, dist);
      EXPECT_EQ(harness::max_abs_diff(t), 0.0) << dist << " p=" << p;
    }
}

/// The gather target X(COL(I,K)) keys one schedule per K value; every outer
/// step after the first reuses all NK of them, and the same holds for the
/// irregular plan entries (one per distinct K in the runtime key).
TEST(IrregularWorkloads, SpmvSteadyStateReusesSchedules) {
  const int n = 19, nk = 3, steps = 5;
  for (const char* dist : kDists) {
    auto r = harness::run_spmv_ell(n, nk, steps, 3, dist);
    EXPECT_EQ(harness::max_abs_diff(r), 0.0) << dist;
    EXPECT_GE(r.schedule_hits, (steps - 1) * nk) << dist;
    EXPECT_GE(r.irregular_hits, (steps - 1) * nk) << dist;
    EXPECT_GT(r.gather_bytes, 0) << dist;
  }
}

// --- Unstructured-mesh edge sweep --------------------------------------------

TEST(IrregularWorkloads, MeshMatchesOracleOnGridSweep) {
  const int nn = 17, ne = 23, steps = 4;
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4}) {
      auto r = harness::run_mesh_sweep(nn, ne, steps, p, dist);
      EXPECT_EQ(harness::max_abs_diff(r), 0.0) << dist << " p=" << p;
    }
}

TEST(IrregularWorkloads, MeshTreeAndPlanBitIdentical) {
  const int nn = 17, ne = 23, steps = 3;
  for (const char* dist : kDists)
    for (int p : {2, 4}) {
      auto t =
          harness::run_mesh_sweep(nn, ne, steps, p, dist, tree_walk(), ipsc());
      auto pl = harness::run_mesh_sweep(nn, ne, steps, p, dist, {}, ipsc());
      expect_same_run(t, pl, dist);
      EXPECT_EQ(harness::max_abs_diff(t), 0.0) << dist << " p=" << p;
    }
}

/// The per-step node update rewrites XN (the gathered data array) but not
/// E1/E2 (the indirection arrays), so both edge-sweep gather schedules must
/// survive every step: data-array writes do not key schedules.
TEST(IrregularWorkloads, MeshSchedulesSurviveDataArrayWrites) {
  const int nn = 17, ne = 23, steps = 6;
  for (const char* dist : kDists) {
    auto r = harness::run_mesh_sweep(nn, ne, steps, 3, dist);
    EXPECT_EQ(harness::max_abs_diff(r), 0.0) << dist;
    EXPECT_GE(r.schedule_hits, 2 * (steps - 1)) << dist;
    EXPECT_GE(r.irregular_hits, steps - 1) << dist;
  }
}

// --- Particle binning (scatter) ----------------------------------------------

TEST(IrregularWorkloads, ParticleBinMatchesOracleOnGridSweep) {
  const int np = 21, steps = 4;
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4}) {
      auto r = harness::run_particle_bin(np, steps, p, dist);
      EXPECT_EQ(harness::max_abs_diff(r), 0.0) << dist << " p=" << p;
    }
}

TEST(IrregularWorkloads, ParticleBinTreeAndPlanBitIdentical) {
  const int np = 21, steps = 3;
  for (const char* dist : kDists)
    for (int p : {2, 4}) {
      auto t =
          harness::run_particle_bin(np, steps, p, dist, tree_walk(), ipsc());
      auto pl = harness::run_particle_bin(np, steps, p, dist, {}, ipsc());
      expect_same_run(t, pl, dist);
      EXPECT_EQ(harness::max_abs_diff(t), 0.0) << dist << " p=" << p;
    }
}

/// The scatter destination set H(BIN(I)) is step-invariant even though the
/// scattered values change (W(I) + IT): the scatter schedule is reused for
/// every trip after the first.
TEST(IrregularWorkloads, ParticleBinScatterScheduleReused) {
  const int np = 21, steps = 5;
  for (const char* dist : kDists) {
    auto r = harness::run_particle_bin(np, steps, 3, dist);
    EXPECT_EQ(harness::max_abs_diff(r), 0.0) << dist;
    EXPECT_GE(r.schedule_hits, steps - 1) << dist;
    EXPECT_GE(r.irregular_hits, steps - 1) << dist;
  }
}

// --- LOGICAL gathers and scatters, masked buffered writes --------------------

struct Backend {
  const char* name;
  interp::RunOptions ro;
};

std::vector<Backend> backends() {
  interp::RunOptions native;
  native.native_backend = true;
  return {{"tree", tree_walk()}, {"plan", {}}, {"native", native}};
}

/// N-element REAL A, B, C, INTEGER U, LOGICAL M, L, all aligned to one
/// template distributed `dist` over P(p), and a replicated INTEGER V; then
/// `body`.
std::string small_source(int n, int p, const char* dist,
                         const std::string& body) {
  return strformat(R"(PROGRAM SMALL
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      REAL C(N)
      INTEGER U(N)
      INTEGER V(N)
      LOGICAL M(N)
      LOGICAL L(N)
      INTEGER K
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ ALIGN M(I) WITH T(I)
C$ ALIGN L(I) WITH T(I)
%s      END PROGRAM SMALL
)",
                   n, p, dist, body.c_str());
}

/// A(I) = 10*I, B(I) = I, M(I) = I > 5 (1-based I), and U(I) = V(I) =
/// `u`(I-1)+1.
interp::Init small_init(const std::function<Index(Index)>& u) {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) { return 10.0 * (g[0] + 1); };
  init.real["B"] = [](std::span<const Index> g) { return g[0] + 1.0; };
  init.ints["U"] = [u](std::span<const Index> g) { return u(g[0]) + 1; };
  init.ints["V"] = init.ints["U"];
  init.logical["M"] = [](std::span<const Index> g) { return g[0] + 1 > 5; };
  return init;
}

/// Runs `src` on every backend: each must give `want` for every array it
/// names, and the same charged simulated time as the tree walk; with
/// plans on, no statement may fall back to the tree walk.
void expect_backends_match(
    const std::string& src, const interp::Init& init,
    const std::map<std::string, std::vector<double>>& want,
    const std::string& what) {
  double tree_time = -1;
  for (const Backend& b : backends()) {
    const auto r = harness::run_source(src, init, b.ro, {}, ipsc());
    if (std::string(b.name) != "tree") {
      EXPECT_EQ(r.tree_walk_stmts, 0) << what << " " << b.name;
    }
    for (const auto& [name, w] : want)
      EXPECT_EQ(r.real_arrays.at(name), w) << what << " " << b.name << " " << name;
    EXPECT_GT(r.machine.exec_time, 0.0) << what << " " << b.name;
    if (tree_time < 0) tree_time = r.machine.exec_time;
    EXPECT_EQ(r.machine.exec_time, tree_time) << what << " " << b.name;
  }
}

TEST(IrregularLogical, GathersAndScattersMatchOracleOnEveryBackend) {
  // A LOGICAL gather in a mask and as a value, and a LOGICAL scatter;
  // C and B make the LOGICAL results visible.
  const std::string body = R"(      FORALL (I = 1:N, M(U(I))) A(I) = 1.0
      FORALL (I = 1:N) L(U(I)) = M(I)
      FORALL (I = 1:N, L(I)) C(I) = 2.0
      FORALL (I = 1:N) L(I) = M(U(I))
      FORALL (I = 1:N, L(I)) B(I) = -1.0
)";
  const int n = 8;
  auto u = [n](Index i) { return (3 * (i + 1)) % n; };  // a permutation
  std::vector<double> a(n), b(n), c(n, 0.0);
  for (Index i = 0; i < n; ++i) {
    const auto m = [](Index j) { return j + 1 > 5; };
    const size_t k = static_cast<size_t>(i);
    a[k] = m(u(i)) ? 1.0 : 10.0 * (i + 1);
    b[k] = m(u(i)) ? -1.0 : i + 1.0;
    if (m(i)) c[static_cast<size_t>(u(i))] = 2.0;
  }
  for (const char* dist : {"BLOCK", "CYCLIC"})
    for (int p : {2, 4})
      expect_backends_match(small_source(n, p, dist, body), small_init(u),
                            {{"A", a}, {"B", b}, {"C", c}},
                            strformat("%s P(%d)", dist, p));
}

TEST(IrregularMasked, MaskedOutIterationsLeaveRemoteDestinations) {
  // U and V reverse the index, so the scatter forms and the
  // postcomp_write form name the same destinations; only iterations 5..8
  // pass the mask, and their destinations 4..1 must keep every other
  // element as it was.  Every form plans (a masked kScatter sink).
  const int n = 8;
  auto u = [n](Index i) { return n - 1 - i; };
  const std::vector<double> want = {8, 7, 6, 5, 50, 60, 70, 80};
  for (const char* lhs : {"A(U(I))", "A(N+1-I)", "A(V(I))"})
    for (const char* dist : {"BLOCK", "CYCLIC"})
      for (int p : {2, 4}) {
        const std::string body =
            strformat("      FORALL (I = 1:N, B(I) .GT. 4.0) %s = B(I)\n", lhs);
        expect_backends_match(small_source(n, p, dist, body), small_init(u),
                              {{"A", want}},
                              strformat("%s %s P(%d)", lhs, dist, p));
      }
}

TEST(IrregularMasked, WritesToOneLhsKeepTheirOwnSchedules) {
  // Same lhs, subscripts and bounds, different masks: complementary masks
  // reading the same array, and an unmasked write followed by a mask that
  // reads no array or scalar.  Each mask sends its own destinations, so no
  // statement may replay another's write schedule.
  const int n = 8;
  auto u = [n](Index i) { return (3 * (i + 1)) % n; };  // a permutation
  for (const char* lhs : {"(U(I))", "(N+1-I)", "(V(I))"}) {
    const std::string body = strformat(
        R"(      FORALL (I = 1:N, B(I) .GT. 4.0) A%s = B(I)
      FORALL (I = 1:N, B(I) .LE. 4.0) A%s = -B(I)
      FORALL (I = 1:N) C%s = B(I)
      FORALL (I = 1:N, I .NE. 3) C%s = 2.0 * B(I)
)",
        lhs, lhs, lhs, lhs);
    auto dest = [&](Index i) {
      return static_cast<size_t>(std::string(lhs) == "(N+1-I)" ? n - 1 - i
                                                               : u(i));
    };
    std::vector<double> a(n), c(n);
    for (Index i = 0; i < n; ++i) {
      const double b = i + 1.0;
      a[dest(i)] = b > 4.0 ? b : -b;
      c[dest(i)] = i + 1 != 3 ? 2.0 * b : b;
    }
    for (const char* dist : {"BLOCK", "CYCLIC"})
      for (int p : {2, 4})
        expect_backends_match(small_source(n, p, dist, body), small_init(u),
                              {{"A", a}, {"C", c}},
                              strformat("A%s %s P(%d)", lhs, dist, p));
  }
}

TEST(IrregularMasked, MaskChangingBetweenTripsRebuildsTheSchedule) {
  // The first mask reads only B, which the loop rewrites; the second reads
  // only the DO variable K.  Each trip changes which iterations send, so
  // each write schedule must be keyed by its mask's arrays and scalars.
  const std::string body = R"(      DO K = 1, 3
        FORALL (I = 1:N, B(I) .GT. 8.0) A(V(I)) = B(I) + K
        FORALL (I = 1:N, I .NE. K + 2) C(U(I)) = B(I)
        FORALL (I = 1:N) B(I) = B(I) + 1.0
      END DO
)";
  const int n = 12;
  auto u = [n](Index i) { return (5 * i + 2) % n; };  // a permutation
  std::vector<double> a(n), b(n), c(n, 0.0);
  for (Index i = 0; i < n; ++i) {
    a[static_cast<size_t>(i)] = 10.0 * (i + 1);
    b[static_cast<size_t>(i)] = i + 1.0;
  }
  for (int k = 1; k <= 3; ++k) {
    for (Index i = 0; i < n; ++i)
      if (b[static_cast<size_t>(i)] > 8.0)
        a[static_cast<size_t>(u(i))] = b[static_cast<size_t>(i)] + k;
    for (Index i = 0; i < n; ++i)
      if (i + 1 != k + 2)
        c[static_cast<size_t>(u(i))] = b[static_cast<size_t>(i)];
    for (double& x : b) x += 1.0;
  }
  for (const char* dist : {"BLOCK", "CYCLIC"})
    for (int p : {2, 4})
      expect_backends_match(small_source(n, p, dist, body), small_init(u),
                            {{"A", a}, {"B", b}, {"C", c}},
                            strformat("%s P(%d)", dist, p));
}

// --- distributed indirection arrays in an lhs subscript ----------------------

/// N-element REAL A, B, C and INTEGER U aligned to T (distributed `dist`),
/// and INTEGER W aligned to a second template distributed `other`, so
/// W(I) is not owned where iteration I runs; then `body`.
std::string lhs_source(int n, int p, const char* dist, const char* other,
                       const std::string& body) {
  return strformat(R"(PROGRAM LHS
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      REAL C(N)
      INTEGER U(N)
      INTEGER W(N)
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ TEMPLATE T2(N)
C$ DISTRIBUTE T2(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ ALIGN W(I) WITH T2(I)
%s      END PROGRAM LHS
)",
                   n, p, dist, other, body.c_str());
}

TEST(IrregularLhs, DistributedIndirectionArraysInTheLhsPlan) {
  // U(I) is read where I runs; W(I) arrives by a PARTI read.  Each lhs
  // subscript's reference is tagged like any read, so every statement
  // plans, and the scatter matches the tree walk on every backend.
  const std::string body = R"(      FORALL (I = 1:N) A(U(I)) = B(I)
      FORALL (I = 1:N) C(W(I)) = B(I) + 1.0
      FORALL (I = 1:N, B(I) .GT. 4.0) A(W(I)) = -B(I)
)";
  const int n = 8;
  auto u = [n](Index i) { return (3 * (i + 1)) % n; };  // a permutation
  auto w = [n](Index i) { return (5 * i + 2) % n; };    // another one
  interp::Init init = small_init(u);
  init.ints["W"] = [w](std::span<const Index> g) { return w(g[0]) + 1; };
  std::vector<double> a(n), b(n), c(n, 0.0);
  for (Index i = 0; i < n; ++i) {
    b[static_cast<size_t>(i)] = i + 1.0;
    a[static_cast<size_t>(u(i))] = i + 1.0;
    c[static_cast<size_t>(w(i))] = i + 2.0;
  }
  for (Index i = 0; i < n; ++i)
    if (i + 1 > 4) a[static_cast<size_t>(w(i))] = -(i + 1.0);
  for (const auto& [dist, other] :
       {std::pair{"BLOCK", "CYCLIC"}, {"CYCLIC", "BLOCK"}})
    for (int p : {2, 4})
      expect_backends_match(lhs_source(n, p, dist, other, body), init,
                            {{"A", a}, {"B", b}, {"C", c}},
                            strformat("%s/%s P(%d)", dist, other, p));
}

}  // namespace
}  // namespace f90d
