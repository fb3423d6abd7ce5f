// Execution-plan layer (exec/exec_plan.hpp): differential plan-on vs
// plan-off (tree walk) sweeps that must be bit-identical at equal simulated
// times, edge cases (zero-trip DO, P > N, enumerated CYCLIC(k) bounds,
// masked FORALL), plan-cache reuse across DO-loop trips, in-place rebinds
// when loop-variant scalars change, the redistribution invalidation
// contract, the PARTI fallback, the statement plan cache's entry, decline
// and shared-namespace rules, and planned reductions and concatenation
// write-backs (including the extrema's seed, empty-set and NaN rules).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "exec/exec_plan.hpp"
#include "exec/statement_plan.hpp"
#include "harness.hpp"
#include "native/jit.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions plans_on() { return {}; }

interp::RunOptions plans_off() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

const machine::CostModel& ipsc() {
  static const machine::CostModel cm = machine::CostModel::ipsc860();
  return cm;
}

/// Bit-identical comparison of the planned and tree-walk runs at equal,
/// charged simulated times, plus both against the oracle.
void expect_bit_identical(const DiffRun& on, const DiffRun& off,
                          double oracle_tol, const std::string& what) {
  ASSERT_EQ(on.got.size(), off.got.size()) << what;
  for (size_t k = 0; k < on.got.size(); ++k)
    ASSERT_EQ(on.got[k], off.got[k]) << what << " element " << k;
  EXPECT_GT(off.sim_time, 0.0) << what;
  EXPECT_EQ(on.sim_time, off.sim_time) << what;
  EXPECT_LE(harness::max_abs_diff(off), oracle_tol) << what;
}

struct GridShape {
  int p;
  int q;
};

class ExecPlanSweep : public ::testing::TestWithParam<GridShape> {
 protected:
  int p() const { return GetParam().p; }
  int q() const { return GetParam().q; }
  int nprocs() const { return p() * q(); }
};

TEST_P(ExecPlanSweep, Jacobi) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
    auto on = harness::run_jacobi(12, 3, p(), q(), dist, plans_on(), ipsc());
    auto off =
        harness::run_jacobi(12, 3, p(), q(), dist, plans_off(), ipsc());
    expect_bit_identical(on, off, 1e-9, std::string("jacobi ") + dist);
    EXPECT_EQ(off.plan_hits + off.plan_misses, 0);
  }
}

TEST_P(ExecPlanSweep, Gauss) {
  const int n = 12;
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    auto on = harness::run_gauss(n, nprocs(), dist, plans_on(), ipsc());
    auto off = harness::run_gauss(n, nprocs(), dist, plans_off(), ipsc());
    ASSERT_EQ(on.got.size(), off.got.size());
    for (size_t k = 0; k < on.got.size(); ++k)
      ASSERT_EQ(on.got[k], off.got[k])
          << "gauss " << dist << " element " << k;
    EXPECT_GT(off.sim_time, 0.0);
    EXPECT_EQ(on.sim_time, off.sim_time) << "gauss " << dist;
    EXPECT_LE(harness::max_abs_diff(off, harness::gauss_defined_region(n)),
              1e-6);
  }
}

TEST_P(ExecPlanSweep, FftButterfly) {
  auto on = harness::run_fft(16, 3, nprocs(), plans_on(), ipsc());
  auto off = harness::run_fft(16, 3, nprocs(), plans_off(), ipsc());
  expect_bit_identical(on, off, 1e-9, "fft");
}

TEST_P(ExecPlanSweep, IrregularFallsBackToParti) {
  auto on = harness::run_irregular(24, 2, nprocs(), plans_on(), ipsc());
  auto off = harness::run_irregular(24, 2, nprocs(), plans_off(), ipsc());
  expect_bit_identical(on, off, 1e-9, "irregular");
  // The vector-subscript kernel gathers and scatters: it is an irregular
  // entry, never a regular plan (no regular hits), and PARTI schedule
  // reuse still works underneath.
  EXPECT_EQ(on.plan_hits, 0);
  if (nprocs() > 1) {
    EXPECT_GT(on.schedule_hits, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecPlanSweep,
    ::testing::Values(GridShape{1, 1}, GridShape{1, 2}, GridShape{2, 1},
                      GridShape{2, 2}, GridShape{1, 4}, GridShape{4, 1},
                      GridShape{4, 2}, GridShape{2, 4}, GridShape{4, 4}),
    [](const ::testing::TestParamInfo<GridShape>& info) {
      return std::to_string(info.param.p) + "x" + std::to_string(info.param.q);
    });

// --- plan-cache behaviour ----------------------------------------------------

TEST(ExecPlanCache, HitsAcrossDoLoopTrips) {
  // Jacobi's two FORALLs have DO-invariant bounds: each is planned once on
  // the first trip and reused on every later trip.
  const int iters = 4;
  auto r = harness::run_jacobi(16, iters, 2, 2, "BLOCK", plans_on());
  EXPECT_LE(harness::max_abs_diff(r), 1e-9);
  EXPECT_EQ(r.plan_misses, 2);
  EXPECT_EQ(r.plan_hits, 2 * (iters - 1));
}

TEST(ExecPlanCache, DisabledRunsCollectNoPlanStats) {
  auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", plans_off());
  EXPECT_EQ(r.plan_hits, 0);
  EXPECT_EQ(r.plan_misses, 0);
}

TEST(ExecPlanCache, ArrayIntrinsicInvalidatesEndToEnd) {
  // A CSHIFT assignment between trips rewrites A wholesale; the
  // redistribution contract requires the plans bound to A to be dropped,
  // so the FORALL re-plans every trip instead of reusing a stale binding.
  const char* src = R"(PROGRAM SHIFTY
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      REAL B(N)
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO IT = 1, 3
        FORALL (I = 1:N) B(I) = A(I) + 1.0
        A = CSHIFT(B, 1)
      END DO
      END PROGRAM SHIFTY
)";
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(4);
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0]);
  };
  auto r = interp::run_compiled(compiled, m, init);
  EXPECT_GT(r.plan_invalidations, 0);

  // Oracle: three rounds of B = A + 1; A = cshift(B, 1).
  std::vector<double> a(16), b(16);
  for (int i = 0; i < 16; ++i) a[static_cast<size_t>(i)] = i;
  for (int it = 0; it < 3; ++it) {
    for (int i = 0; i < 16; ++i)
      b[static_cast<size_t>(i)] = a[static_cast<size_t>(i)] + 1.0;
    for (int i = 0; i < 16; ++i)
      a[static_cast<size_t>(i)] = b[static_cast<size_t>((i + 1) % 16)];
  }
  const auto& got = r.real_arrays.at("A");
  ASSERT_EQ(got.size(), a.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(got[k], a[k]);
}

// --- edge cases --------------------------------------------------------------

/// Compile and run `src` on the charging iPSC/860 model.
interp::ProgramResult run_src(const std::string& src, int p,
                              const interp::RunOptions& ro,
                              double binit_scale = 1.0) {
  auto compiled = compile::compile_source(src);
  machine::SimMachine m(p, ipsc(), machine::make_hypercube());
  interp::Init init;
  init.real["B"] = [binit_scale](std::span<const Index> g) {
    return static_cast<double>(g[0]) * binit_scale;
  };
  return interp::run_compiled(compiled, m, init, ro);
}

std::string edge_prelude(int n, int p, const char* dist) {
  return strformat(R"(PROGRAM EDGE
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER IT
      INTEGER K
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
)",
                   n, p, dist);
}

TEST(ExecPlanEdges, ZeroTripDoLoop) {
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO IT = 1, 0
        FORALL (I = 1:N) A(I) = B(I) + 1.0
      END DO
      END PROGRAM EDGE
)";
  for (const auto& ro : {plans_on(), plans_off()}) {
    auto r = run_src(src, 4, ro);
    const auto& a = r.real_arrays.at("A");
    for (double v : a) EXPECT_EQ(v, 0.0);  // body never ran
    EXPECT_EQ(r.plan_hits, 0);
  }
}

TEST(ExecPlanEdges, MoreProcessorsThanElements) {
  // P = 16 > N = 3: most processors own nothing; their plans are empty
  // nests and the differential stays exact.
  auto on = harness::run_jacobi(3, 2, 4, 4, "BLOCK", plans_on(), ipsc());
  auto off = harness::run_jacobi(3, 2, 4, 4, "BLOCK", plans_off(), ipsc());
  expect_bit_identical(on, off, 1e-9, "jacobi P > N");
}

TEST(ExecPlanEdges, StridedCyclic3UsesEnumeratedBounds) {
  // A strided global range over CYCLIC(3) is not an arithmetic progression
  // in local index space: set_BOUND returns the enumerated form and the
  // plan must drive the loop (and both identity references) off the
  // explicit local-index tables.
  const std::string src = edge_prelude(26, 4, "CYCLIC(3)") +
                          R"(      DO IT = 1, 3
        FORALL (I = 1:N:2) A(I) = B(I) + A(I) + 1.0
      END DO
      END PROGRAM EDGE
)";
  auto on = run_src(src, 4, plans_on());
  auto off = run_src(src, 4, plans_off());
  const auto& a_on = on.real_arrays.at("A");
  const auto& a_off = off.real_arrays.at("A");
  ASSERT_EQ(a_on.size(), a_off.size());
  for (size_t k = 0; k < a_on.size(); ++k) ASSERT_EQ(a_on[k], a_off[k]);
  EXPECT_GT(off.machine.exec_time, 0.0);
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);
  // Planned and reused across the three trips.
  EXPECT_EQ(on.plan_misses, 1);
  EXPECT_EQ(on.plan_hits, 2);
  // Oracle.
  std::vector<double> a(26, 0.0);
  for (int it = 0; it < 3; ++it)
    for (int i = 0; i < 26; i += 2) {
      a[static_cast<size_t>(i)] =
          static_cast<double>(i) + a[static_cast<size_t>(i)] + 1.0;
    }
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(a_on[k], a[k]);
}

TEST(ExecPlanEdges, MaskedForall) {
  // Array-valued mask: the plan evaluates the mask tape per element and
  // leaves rejected elements untouched, exactly like the tree walk.
  const std::string src = edge_prelude(24, 4, "BLOCK") +
                          R"(      DO IT = 1, 2
        FORALL (I = 1:N, B(I) .GT. 10.0) A(I) = B(I) * 2.0 + A(I)
      END DO
      END PROGRAM EDGE
)";
  auto on = run_src(src, 4, plans_on());
  auto off = run_src(src, 4, plans_off());
  const auto& a_on = on.real_arrays.at("A");
  const auto& a_off = off.real_arrays.at("A");
  ASSERT_EQ(a_on.size(), a_off.size());
  for (size_t k = 0; k < a_on.size(); ++k) ASSERT_EQ(a_on[k], a_off[k]);
  EXPECT_GT(off.machine.exec_time, 0.0);
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);
  EXPECT_GT(on.plan_hits, 0);
  for (int i = 0; i < 24; ++i) {
    const double want = i > 10 ? 2.0 * (2.0 * i) : 0.0;
    EXPECT_DOUBLE_EQ(a_on[static_cast<size_t>(i)], want) << "i=" << i;
  }
}

TEST(ExecPlanEdges, JacobiPlansAreUsed) {
  // Guard against the planner silently declining the headline workloads.
  auto r = harness::run_jacobi(16, 3, 2, 2, "BLOCK", plans_on());
  EXPECT_GT(r.plan_misses, 0);
  EXPECT_GT(r.plan_hits, 0);
  auto g = harness::run_gauss(16, 4, "BLOCK", plans_on());
  EXPECT_GT(g.plan_misses, 0);
}

// --- in-place rebinds --------------------------------------------------------
// One cache entry per FORALL.  When a loop-variant scalar changes (a pivot
// K, an ELL column K) the entry is re-bound in place instead of rebuilt.
// Every case runs on the tree walk, the plan tape and native kernels under
// the charging iPSC/860 model: arrays must agree bit for bit, simulated
// times exactly.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_run(const interp::ProgramResult& want,
                     const interp::ProgramResult& got, const std::string& what) {
  EXPECT_GT(want.machine.exec_time, 0.0) << what;
  EXPECT_EQ(got.machine.exec_time, want.machine.exec_time) << what;
  EXPECT_EQ(got.machine.total_messages(), want.machine.total_messages())
      << what;
  EXPECT_EQ(got.machine.total_bytes(), want.machine.total_bytes()) << what;
  ASSERT_EQ(got.real_arrays.size(), want.real_arrays.size()) << what;
  for (const auto& [name, w] : want.real_arrays) {
    const std::vector<double>& g = got.real_arrays.at(name);
    ASSERT_EQ(g.size(), w.size()) << what << " " << name;
    for (size_t k = 0; k < w.size(); ++k)
      ASSERT_TRUE(same_bits(g[k], w[k]))
          << what << " " << name << "[" << k << "]: " << g[k] << " vs "
          << w[k];
  }
  EXPECT_EQ(got.int_arrays, want.int_arrays) << what;
}

interp::RunOptions native_on() {
  interp::RunOptions ro;
  ro.native_backend = true;
  return ro;
}

bool native_available() { return native::NativeCache::instance().available(); }

struct Backends {
  interp::ProgramResult tree, plan, native;
};

/// Run `src` on all three backends.  The native run goes twice so the
/// measured one finds every kernel the program needs already compiled.
Backends run_backends(const std::string& src, const interp::Init& init) {
  Backends b;
  b.tree = harness::run_source(src, init, plans_off(), {}, ipsc());
  b.plan = harness::run_source(src, init, plans_on(), {}, ipsc());
  (void)harness::run_source(src, init, native_on(), {}, ipsc());
  b.native = harness::run_source(src, init, native_on(), {}, ipsc());
  expect_same_run(b.tree, b.plan, "plan");
  expect_same_run(b.tree, b.native, "native");
  return b;
}

/// Exact processor-0 counters of the statement cache.
void expect_plan_counts(const interp::ProgramResult& r, int misses, int hits,
                        int rebinds, int entries) {
  EXPECT_EQ(r.plan_misses, misses);
  EXPECT_EQ(r.plan_hits, hits);
  EXPECT_EQ(r.plan_rebinds, rebinds);
  EXPECT_EQ(r.plan_entries, entries);
}

/// The warm native run compiles nothing, and every non-empty execution on
/// processor 0 runs its kernel.
void expect_all_native(const interp::ProgramResult& r, long long runs) {
  if (!native_available()) return;
  EXPECT_EQ(r.native_compiles, 0);
  EXPECT_EQ(r.native_fallbacks, 0);
  EXPECT_EQ(r.native_runs, runs);
}

TEST(ExecPlanRebind, GaussShapedPivotLoopRebindsOneEntry) {
  // The elimination FORALL's bounds and its pivot-row read A(K, J) move
  // with K: one entry, planned at K = 1 and re-bound at every later step.
  // Processor 0 holds columns 1-4, so its nest is empty from K = 4 on.
  const int n = 12;
  const std::string src = strformat(R"(PROGRAM GK
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N, N+1)
      REAL L(N)
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE TA(N, N+1)
C$ DISTRIBUTE TA(*, BLOCK)
C$ ALIGN A(I, J) WITH TA(I, J)
      DO K = 1, N-1
        FORALL (I = K+1:N, J = K+1:N+1) A(I, J) = A(I, J) - L(I) * A(K, J)
      END DO
      END PROGRAM GK
)",
                                    n);
  interp::Init init;
  init.real["A"] = [n](std::span<const Index> g) {
    return apps::gauss_matrix_entry(n, g[0], g[1]);
  };
  init.real["L"] = [](std::span<const Index> g) { return 0.5 + 0.125 * g[0]; };
  const Backends b = run_backends(src, init);
  expect_plan_counts(b.plan, 1, n - 2, n - 2, 1);
  expect_plan_counts(b.native, 1, n - 2, n - 2, 1);
  expect_all_native(b.native, 3);
  if (native_available()) {
    EXPECT_EQ(b.native.native_attaches, 1);
  }
}

TEST(ExecPlanRebind, SpmvColumnLoopRebindsWithoutThrashing) {
  // DO K = 1, NK inside the time loop: the A(I, K) column of the gather
  // statement moves every trip.  One irregular entry, re-bound per K.
  const int nk = 4, steps = 2;
  auto off = harness::run_spmv_ell(24, nk, steps, 4, "BLOCK", plans_off(),
                                   ipsc());
  auto on =
      harness::run_spmv_ell(24, nk, steps, 4, "BLOCK", plans_on(), ipsc());
  expect_bit_identical(on, off, 1e-9, "spmv");
  EXPECT_EQ(on.irregular_misses, 1);
  EXPECT_EQ(on.irregular_hits, nk * steps - 1);
  EXPECT_EQ(on.irregular_rebinds, nk * steps - 1);
  EXPECT_EQ(on.plan_entries, 1);
  // The PARTI schedules stay keyed per column: built once, reused on the
  // second time step.
  EXPECT_EQ(on.schedule_hits, off.schedule_hits);
  EXPECT_EQ(on.schedule_misses, off.schedule_misses);
}

TEST(ExecPlanRebind, BroadcastRootMovesWithK) {
  // B(K) is a broadcast element: its root (the owner of B(K)) and the
  // root's source offset are re-baked in the statement's comm slot at every
  // trip, as are the loop window and A's offsets.
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO K = 1, N
        FORALL (I = K:N) A(I) = A(I) * 0.5 + B(K)
      END DO
      END PROGRAM EDGE
)";
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 0.25 + 1.0; };
  const Backends b = run_backends(src, init);
  expect_plan_counts(b.plan, 1, 15, 15, 1);
  expect_all_native(b.native, 4);  // processor 0 holds I = 1..4
}

TEST(ExecPlanRebind, SlabMulticastRowMovesWithK) {
  // D(K, J) on a BLOCK x BLOCK grid is a multicast of row K along the
  // grid's first dimension: the slab's root line, offset tables and size
  // are re-baked at every trip.
  const int n = 8;
  const std::string src = strformat(R"(PROGRAM SLAB
      INTEGER N
      PARAMETER (N = %d)
      REAL C(N, N)
      REAL D(N, N)
      INTEGER K
C$ PROCESSORS P(2, 2)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, BLOCK)
C$ ALIGN C(I, J) WITH T(I, J)
C$ ALIGN D(I, J) WITH T(I, J)
      DO K = 1, N
        FORALL (I = 1:N, J = K:N) C(I, J) = C(I, J) + D(K, J)
      END DO
      END PROGRAM SLAB
)",
                                    n);
  interp::Init init;
  init.real["D"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0] * 16 + g[1]) * 0.5;
  };
  const Backends b = run_backends(src, init);
  EXPECT_EQ(b.plan.plan_misses, 1);
  EXPECT_EQ(b.plan.plan_rebinds, n - 1);
  EXPECT_EQ(b.plan.plan_entries, 1);
}

TEST(ExecPlanRebind, EmptyNestTurnsNonEmptyAndBack) {
  // Processor 0 owns I = 1..4.  The first FORALL's window leaves it at
  // K = 5: re-bound to an empty nest, no rebuild.  The second window
  // arrives at K = 12: its entry was built empty (no tapes), so that
  // rebind rebuilds it in its slot — the only extra miss.
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO K = 1, N-1
        FORALL (I = K:K+1) A(I) = A(I) + 1.0
        FORALL (I = N-K:N-K+1) B(I) = B(I) + 2.0
      END DO
      END PROGRAM EDGE
)";
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 0.5; };
  const Backends b = run_backends(src, init);
  expect_plan_counts(b.plan, 3, 27, 27, 2);
  expect_all_native(b.native, 8);
}

TEST(ExecPlanRebind, GuardFlipsToMaskedOutAndBack) {
  // C(K, J) with rows BLOCK-distributed: the owner guard admits processor
  // 0 (rows 1-2) for K <= 2 only.  The entry is masked out in place at
  // K = 3 and re-bound with its body again when the second sweep returns
  // to K = 1.
  const int n = 8;
  const std::string src = strformat(R"(PROGRAM GF
      INTEGER N
      PARAMETER (N = %d)
      REAL C(N, N)
      INTEGER K
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, *)
C$ ALIGN C(I, J) WITH T(I, J)
      DO IT = 1, 2
        DO K = 1, N
          FORALL (J = 1:N) C(K, J) = C(K, J) * 0.5 + REAL(K)
        END DO
      END DO
      END PROGRAM GF
)",
                                    n);
  interp::Init init;
  init.real["C"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0] * 10 + g[1]);
  };
  const Backends b = run_backends(src, init);
  expect_plan_counts(b.plan, 1, 2 * n - 1, 2 * n - 1, 1);
  expect_all_native(b.native, 4);
}

TEST(ExecPlanRebind, StridedCyclic3BoundsVaryWithDoVariable) {
  // I = K:N:2 over CYCLIC(3): set_BOUND's enumerated local sets change
  // with K, and so do the identity references' offset tables.
  const std::string src = edge_prelude(26, 4, "CYCLIC(3)") +
                          R"(      DO K = 1, 6
        FORALL (I = K:N:2) A(I) = B(I) + A(I) + 1.0
      END DO
      END PROGRAM EDGE
)";
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0]);
  };
  const Backends b = run_backends(src, init);
  expect_plan_counts(b.plan, 1, 5, 5, 1);
  // Processor 0 holds 1-3, 13-15 and 25-26: every window reaches it.
  expect_all_native(b.native, 6);

  std::vector<double> a(26, 0.0);
  for (int k = 1; k <= 6; ++k)
    for (int i = k; i <= 26; i += 2)
      a[static_cast<size_t>(i - 1)] += static_cast<double>(i - 1) + 1.0;
  const auto& got = b.plan.real_arrays.at("A");
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(got[k], a[k]);
}

/// The value-dependent parts of two plans agree: loop ranges and every
/// reference's base offset and offset terms.
void expect_same_binding(const exec::ExecPlan& got, const exec::ExecPlan& want) {
  EXPECT_EQ(got.masked_out, want.masked_out);
  ASSERT_EQ(got.loops.size(), want.loops.size());
  for (size_t k = 0; k < want.loops.size(); ++k) {
    EXPECT_EQ(got.loops[k].count, want.loops[k].count);
    EXPECT_EQ(got.loops[k].val0, want.loops[k].val0);
    EXPECT_EQ(got.loops[k].step, want.loops[k].step);
    EXPECT_EQ(got.loops[k].values, want.loops[k].values);
  }
  auto same_ref = [](const exec::RefPlan& g, const exec::RefPlan& w) {
    EXPECT_EQ(g.base, w.base);
    ASSERT_EQ(g.terms.size(), w.terms.size());
    for (size_t k = 0; k < w.terms.size(); ++k) {
      EXPECT_EQ(g.terms[k].stride, w.terms[k].stride);
      EXPECT_EQ(g.terms[k].table, w.terms[k].table);
    }
  };
  ASSERT_EQ(got.refs.size(), want.refs.size());
  for (size_t r = 0; r < want.refs.size(); ++r)
    same_ref(got.refs[r], want.refs[r]);
  same_ref(got.lhs, want.lhs);
  same_ref(got.gids, want.gids);
}

const compile::SpmdStmt& only_forall(const compile::Compiled& c) {
  const compile::SpmdStmt* forall = nullptr;
  auto find = [&](const compile::SpmdStmt& s, auto&& self) -> void {
    if (s.kind == compile::SpmdKind::kForall) forall = &s;
    for (const compile::SpmdStmtPtr& b : s.body) self(*b, self);
  };
  for (const compile::SpmdStmtPtr& s : c.program.body) find(*s, find);
  require(forall != nullptr, "test program has a FORALL");
  return *forall;
}

TEST(ExecPlanRebind, ZeroStrideDeclinesThenRebuildsInSlot) {
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO K = 2, 0, -1
        FORALL (I = 1:N:K) A(I) = B(I) + 1.0
      END DO
      END PROGRAM EDGE
)";
  // End to end, the third trip's zero stride ends the run with the tree
  // walk's own diagnostic on both paths.
  std::string tree_err, plan_err;
  try {
    (void)run_src(src, 4, plans_off());
  } catch (const std::exception& e) {
    tree_err = e.what();
  }
  try {
    (void)run_src(src, 4, plans_on());
  } catch (const std::exception& e) {
    plan_err = e.what();
  }
  EXPECT_NE(tree_err.find("zero stride"), std::string::npos) << tree_err;
  EXPECT_EQ(plan_err, tree_err);

  // In the cache: K = 2 builds, K = 1 re-binds, K = 0 declines (a miss),
  // and K = 1 again rebuilds the plan in the same slot.
  auto compiled = compile::compile_source(src);
  const compile::SpmdStmt& s = only_forall(compiled);
  machine::SimMachine m = harness::make_machine(4);
  std::vector<exec::StatementPlanStats> stats(4);
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, compiled.mapping.grid);
    exec::Env env(compiled, gc);
    exec::CommPlans comm(env, {});
    exec::StatementPlanCache cache;
    auto get = [&](long long k) -> exec::StatementPlan& {
      env.scalars.at("K") = exec::Value::integer(k);
      return cache.get(
          s, env,
          [&](std::span<const std::string> names) {
            return exec::build_statement_plan(s, env, comm, names);
          },
          [&](exec::StatementPlan& e, std::span<const std::string> names) {
            return exec::rebind_statement_plan(s, env, comm, names, e);
          });
    };
    ASSERT_NE(get(2).plan, nullptr);
    const exec::StatementPlan* first = &get(1);
    ASSERT_NE(first->plan, nullptr);
    expect_same_binding(*first->plan, *exec::build_exec_plan(s, env).plan);
    const exec::StatementPlan& declined = get(0);
    EXPECT_EQ(declined.plan, nullptr);
    const exec::StatementPlan& again = get(1);
    EXPECT_EQ(&again, first);  // rebuilt in its slot
    ASSERT_NE(again.plan, nullptr);
    expect_same_binding(*again.plan, *exec::build_exec_plan(s, env).plan);
    EXPECT_EQ(cache.size(), 1u);
    stats[static_cast<size_t>(proc.rank())] = cache.stats();
  });
  for (const exec::StatementPlanStats& st : stats) {
    EXPECT_EQ(st.regular.misses, 2);
    EXPECT_EQ(st.regular.hits, 1);
    EXPECT_EQ(st.regular.rebinds, 1);
    EXPECT_EQ(st.declined.misses, 1);
    EXPECT_EQ(st.declined.hits, 0);
  }
}

TEST(ExecPlanRebind, InvalidateArrayAfterRebind) {
  // Each sweep of a K-dependent FORALL ends with a CSHIFT of its source
  // array: the re-bound entry binds A, so the CSHIFT drops it and the
  // second sweep plans afresh (and loses its entry the same way).
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO IT = 1, 2
        DO K = 1, 3
          FORALL (I = K:N) B(I) = A(I) + B(I) + 1.0
        END DO
        A = CSHIFT(B, 1)
      END DO
      END PROGRAM EDGE
)";
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0]);
  };
  const Backends b = run_backends(src, init);
  expect_plan_counts(b.plan, 2, 4, 4, 0);
  EXPECT_EQ(b.plan.plan_invalidations, 2);
  expect_all_native(b.native, 6);

  std::vector<double> a(16), bb(16, 0.0);
  for (int i = 0; i < 16; ++i) a[static_cast<size_t>(i)] = i;
  for (int it = 0; it < 2; ++it) {
    for (int k = 1; k <= 3; ++k)
      for (int i = k - 1; i < 16; ++i)
        bb[static_cast<size_t>(i)] =
            a[static_cast<size_t>(i)] + bb[static_cast<size_t>(i)] + 1.0;
    for (int i = 0; i < 16; ++i)
      a[static_cast<size_t>(i)] = bb[static_cast<size_t>((i + 1) % 16)];
  }
  const auto& got = b.plan.real_arrays.at("A");
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(got[k], a[k]);
}

TEST(ExecPlanRebind, RealScalarBoundKeysByExactValue) {
  // X = 1.2 gives NINT(X*4.0) = 5 iterations, X = 1.4 gives 6; both
  // truncate to 1 as integers.  The entry must see the change and re-bind,
  // so A(6) is updated on the second trip exactly as the tree walk does.
  const char* src = R"(PROGRAM RX
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      REAL X
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      X = 1.2
      DO IT = 1, 2
        FORALL (I = 1:NINT(X*4.0)) A(I) = A(I) + 1.0
        X = X + 0.2
      END DO
      END PROGRAM RX
)";
  const Backends b = run_backends(src, {});
  const auto& a = b.tree.real_arrays.at("A");
  EXPECT_EQ(a[4], 2.0);
  EXPECT_EQ(a[5], 1.0);
  EXPECT_EQ(a[6], 0.0);
  expect_plan_counts(b.plan, 1, 1, 1, 1);
}

// --- the statement plan cache (exec/statement_plan.hpp) ----------------------

exec::StatementPlan regular_entry(std::vector<std::string> plan_arrays,
                                  std::vector<std::string> comm_arrays = {}) {
  exec::StatementPlan e;
  auto plan = std::make_shared<exec::ExecPlan>();
  plan->arrays = std::move(plan_arrays);
  e.plan = plan;
  e.comm.arrays = std::move(comm_arrays);
  return e;
}

/// Run `body(env)` on one simulated processor with a node environment
/// for `src` (the cache resolves key scalars against Env::scalars).
template <typename F>
void with_env(const std::string& src, F&& body) {
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(1);
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, compiled.mapping.grid);
    exec::Env env(compiled, gc);
    body(compiled, env);
  });
}

/// Unkeyed statement ids for cache-rule tests: no indices, no key scalars.
std::vector<compile::SpmdStmt> numbered_stmts(int n) {
  std::vector<compile::SpmdStmt> out;
  for (int i = 0; i < n; ++i) {
    out.emplace_back(compile::SpmdKind::kForall);
    out.back().stmt_id = i;
  }
  return out;
}

bool never_rebind(exec::StatementPlan&, std::span<const std::string>) {
  return false;
}

TEST(StatementPlanCache, InvalidateArrayDropsWholeEntry) {
  with_env(edge_prelude(8, 1, "BLOCK") + "      END PROGRAM EDGE\n",
           [](const compile::Compiled&, exec::Env& env) {
    const std::vector<compile::SpmdStmt> stmts = numbered_stmts(4);
    exec::StatementPlanCache cache;
    auto get = [&](int id, const std::function<exec::StatementPlan()>& make)
        -> exec::StatementPlan& {
      return cache.get(
          stmts[static_cast<size_t>(id)], env,
          [&](std::span<const std::string>) { return make(); },
          never_rebind);
    };
    // 1: the exec plan binds A, only the comm slots bind B.
    exec::StatementPlan& e1 = get(1, [] { return regular_entry({"A"}, {"B"}); });
    e1.native = std::make_unique<native::Attachment>();  // a first native run
    const std::weak_ptr<exec::ExecPlan> plan1 = e1.plan;
    (void)get(2, [] { return regular_entry({"C"}); });
    // 3: a PARTI entry whose scatter sink binds D; 0: one with a gathered
    // read of E.  Both count as irregular entries.
    (void)get(3, [] {
      exec::StatementPlan e = regular_entry({"D"});
      e.plan->sink = exec::Sink::kScatter;
      return e;
    });
    (void)get(0, [] {
      exec::StatementPlan e = regular_entry({"E"});
      e.plan->gathers.emplace_back().ref_id = 1;
      return e;
    });
    (void)get(1, [] { return regular_entry({}); });
    EXPECT_EQ(cache.stats().regular.misses, 2);
    EXPECT_EQ(cache.stats().regular.hits, 1);
    EXPECT_EQ(cache.stats().regular.rebinds, 0);
    EXPECT_EQ(cache.stats().irregular.misses, 2);
    EXPECT_EQ(cache.size(), 4u);

    // An array bound only by the comm slots drops the whole entry — plan,
    // comm slots and native attachment — and counts it once.
    cache.invalidate_array("B");
    EXPECT_EQ(cache.stats().regular.invalidations, 1);
    EXPECT_EQ(cache.stats().native_invalidations, 1);
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_TRUE(plan1.expired());

    // Re-lookup rebuilds; an array bound only by the exec plan drops it too.
    (void)get(1, [] { return regular_entry({"A"}); });
    EXPECT_EQ(cache.stats().regular.misses, 3);
    cache.invalidate_array("A");
    EXPECT_EQ(cache.stats().regular.invalidations, 2);
    EXPECT_EQ(cache.stats().native_invalidations, 1);  // no attachment now
    EXPECT_EQ(cache.size(), 3u);

    // Entries with a scatter or a gather follow the same rule, and count
    // as irregular drops.
    cache.invalidate_array("D");
    EXPECT_EQ(cache.stats().irregular.invalidations, 1);
    cache.invalidate_array("E");
    EXPECT_EQ(cache.stats().irregular.invalidations, 2);
    EXPECT_EQ(cache.stats().regular.invalidations, 2);
    EXPECT_EQ(cache.size(), 1u);  // 2 (binds only C) survives
  });
}

TEST(StatementPlanCache, DeclineIsMemoizedPerKeyValue) {
  // A masked concatenation into the replicated L declines whatever K is.
  // The decline is an ordinary entry: built once per key value, a hit
  // while K is unchanged, and rebuilt in its slot when K changes.
  const std::string src = R"(PROGRAM CAT
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      REAL L(N)
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      DO K = 1, 2
        FORALL (I = K:N, A(I) .GT. 2.0) L(I) = A(I)
      END DO
      END PROGRAM CAT
)";
  auto compiled = compile::compile_source(src);
  const compile::SpmdStmt& s = only_forall(compiled);

  struct Counts {
    int builds = 0;
    bool same_slot = true;
    exec::StatementPlanStats stats;
    std::string decline;
  };
  std::vector<Counts> per_rank(4);
  machine::SimMachine m = harness::make_machine(4);
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, compiled.mapping.grid);
    exec::Env env(compiled, gc);
    exec::CommPlans comm(env, {});
    exec::StatementPlanCache cache;
    Counts& c = per_rank[static_cast<size_t>(proc.rank())];
    const exec::StatementPlan* first = nullptr;
    for (long long k : {1, 1, 2, 2, 2, 1}) {
      env.scalars.at("K") = exec::Value::integer(k);
      const exec::StatementPlan& e = cache.get(
          s, env,
          [&](std::span<const std::string> names) {
            ++c.builds;
            return exec::build_statement_plan(s, env, comm, names);
          },
          [&](exec::StatementPlan& x, std::span<const std::string> names) {
            return exec::rebind_statement_plan(s, env, comm, names, x);
          });
      if (first == nullptr) first = &e;
      c.same_slot = c.same_slot && &e == first && e.plan == nullptr;
      c.decline = e.decline;
    }
    c.stats = cache.stats();
  });
  for (const Counts& c : per_rank) {
    EXPECT_EQ(c.decline, "masked concatenation");
    EXPECT_TRUE(c.same_slot);
    EXPECT_EQ(c.builds, 3);  // K = 1, 2, 1
    EXPECT_EQ(c.stats.declined.misses, 3);
    EXPECT_EQ(c.stats.declined.hits, 3);
    EXPECT_EQ(c.stats.declined.rebinds, 0);
    EXPECT_EQ(c.stats.regular.misses + c.stats.irregular.misses, 0);
  }
}

// --- planned reductions and concatenation --------------------------------------
// kReduce statements and replicated-lhs (concatenation) FORALLs get entries
// in the same statement cache: the tape folds into a reduction accumulator
// or fills the concatenation payload, and the reduction tree / concat_tree
// run exactly as on the tree walk.  Every case compares planned against
// the tree walk on the charging iPSC/860 model: bit-identical arrays and
// scalars, equal simulated time, and exact processor-0 counters.

void expect_same_scalars(const interp::ProgramResult& want,
                         const interp::ProgramResult& got,
                         const std::string& what) {
  ASSERT_EQ(got.scalars.size(), want.scalars.size()) << what;
  for (const auto& [name, w] : want.scalars)
    EXPECT_TRUE(same_bits(got.scalars.at(name), w))
        << what << " scalar " << name << ": " << got.scalars.at(name)
        << " vs " << w;
}

/// Compile `src`, let `edit` rewrite the IR (masks the frontend cannot
/// spell), and run it on `p` processors of the charging iPSC/860 model.
template <typename Edit>
interp::ProgramResult run_edited(const std::string& src, int p,
                                 const interp::Init& init,
                                 const interp::RunOptions& ro, Edit&& edit) {
  compile::Compiled c = compile::compile_source(src);
  edit(c.program.body);
  machine::SimMachine m(p, ipsc(), machine::make_hypercube());
  return interp::run_compiled(c, m, init, ro);
}

void no_edit(std::vector<compile::SpmdStmtPtr>&) {}

/// Give every reduction the mask MOD(v, 3) .NE. 1 over its first index
/// variable: the frontend has no MASK= argument.
void mask_reductions(std::vector<compile::SpmdStmtPtr>& body) {
  for (compile::SpmdStmtPtr& s : body) {
    mask_reductions(s->body);
    if (s->kind != compile::SpmdKind::kReduce) continue;
    std::vector<ast::ExprPtr> args;
    args.push_back(ast::make_var(s->indices.at(0).var));
    args.push_back(ast::make_int(3));
    s->mask = ast::make_bin(ast::BinOpKind::kNe,
                            ast::make_array_ref("MOD", std::move(args)),
                            ast::make_int(1));
  }
}

/// Tree walk vs plan of one program: bit-identical results at equal,
/// charged simulated time; returns the planned run.
template <typename Edit>
interp::ProgramResult expect_planned_matches(const std::string& src, int p,
                                             const interp::Init& init,
                                             Edit&& edit,
                                             const std::string& what) {
  const auto tree = run_edited(src, p, init, plans_off(), edit);
  const auto plan = run_edited(src, p, init, plans_on(), edit);
  expect_same_run(tree, plan, what);
  expect_same_scalars(tree, plan, what);
  EXPECT_EQ(plan.tree_walk_stmts, 0) << what;
  EXPECT_GT(tree.tree_walk_stmts, 0) << what;
  EXPECT_EQ(tree.plan_misses + tree.plan_hits, 0) << what;
  return plan;
}

void expect_plan_counts(const interp::ProgramResult& r, int misses, int hits,
                        int rebinds, int entries, const std::string& what) {
  EXPECT_EQ(r.plan_misses, misses) << what;
  EXPECT_EQ(r.plan_hits, hits) << what;
  EXPECT_EQ(r.plan_rebinds, rebinds) << what;
  EXPECT_EQ(r.plan_entries, entries) << what;
}

/// All nine reductions over A(K:N) (1-D grid) or B(K:N, :) (2-D grid),
/// inside DO K = 1, T so every entry re-binds on every later trip.
std::string reduce_source(int n, int trips, int p, int q, const char* dist) {
  const bool two_d = q > 0;
  const std::string arr = two_d ? "B(K:N, 1:M)" : "A(K:N)";
  std::string src = strformat(R"(PROGRAM RED
      INTEGER N
      PARAMETER (N = %d)
      INTEGER M
      PARAMETER (M = 5)
      REAL A(N)
      REAL B(N, M)
      REAL S1, S2, S3, S4, S5, S6
      INTEGER C1, K1, K2, K
)",
                              n);
  if (two_d) {
    src += strformat(R"(C$ PROCESSORS P(%d, %d)
C$ TEMPLATE T(N, M)
C$ DISTRIBUTE T(%s, %s)
C$ ALIGN B(I, J) WITH T(I, J)
)",
                     p, q, dist, dist);
  } else {
    src += strformat(R"(C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
)",
                     p, dist);
  }
  src += strformat(R"(      DO K = 1, %d
        S1 = S1 + SUM(%s)
        S2 = S2 + PRODUCT(%s)
        C1 = C1 + COUNT(%s .GT. 0.25)
        S3 = S3 + ANY(%s .GT. 0.75)
        S4 = S4 + ALL(%s .GT. -0.5)
        S5 = S5 + MAXVAL(%s)
        S6 = S6 + MINVAL(%s)
        K1 = K1 + MAXLOC(%s)
        K2 = K2 + MINLOC(%s)
      END DO
      END PROGRAM RED
)",
                   trips, arr.c_str(), arr.c_str(), arr.c_str(), arr.c_str(),
                   arr.c_str(), arr.c_str(), arr.c_str(), arr.c_str(),
                   arr.c_str());
  return src;
}

interp::Init reduce_init(double (*entry)(Index)) {
  interp::Init init;
  init.real["A"] = [entry](std::span<const Index> g) { return entry(g[0]); };
  init.real["B"] = [entry](std::span<const Index> g) {
    return entry(g[0] * 5 + g[1]);
  };
  return init;
}

/// Values in [-1, 1) with repeated extrema (MAXLOC/MINLOC ties).
double tie_entry(Index i) { return static_cast<double>((i * 7) % 8) / 4.0 - 1.0; }

TEST(PlannedReduction, AllOpsMatchTreeWalkOnEveryDistribution) {
  const int n = 10, trips = 4, ops = 9;
  struct Grid {
    int p, q;  // q = 0: 1-D grid
  };
  // P > N on the 16- and 4x4-processor grids: most ranges are empty.
  for (const Grid g : {Grid{3, 0}, Grid{4, 0}, Grid{16, 0}, Grid{2, 2},
                       Grid{4, 4}}) {
    for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
      const std::string src = reduce_source(n, trips, g.p, g.q, dist);
      const int procs = g.q > 0 ? g.p * g.q : g.p;
      for (bool masked : {false, true}) {
        const std::string what = strformat(
            "%dx%d %s%s", g.p, g.q, dist, masked ? " masked" : "");
        auto edit = masked ? mask_reductions : no_edit;
        const auto plan = expect_planned_matches(
            src, procs, reduce_init(tie_entry), edit, what);
        // One entry per reduction, re-bound at every later K.
        expect_plan_counts(plan, ops, ops * (trips - 1), ops * (trips - 1),
                           ops, what);
      }
    }
  }
}

TEST(PlannedReduction, AllNanInputsMatchTreeWalk) {
  const std::string src = reduce_source(10, 2, 4, 0, "CYCLIC");
  const auto plan = expect_planned_matches(
      src, 4, reduce_init([](Index) { return std::nan(""); }), no_edit,
      "all NaN");
  // MAXLOC/MINLOC of all-NaN data: the first index (K), summed over K.
  EXPECT_EQ(plan.scalars.at("K1"), 1.0 + 2.0);
  EXPECT_EQ(plan.scalars.at("K2"), 1.0 + 2.0);
  EXPECT_TRUE(std::isnan(plan.scalars.at("S5")));
}

TEST(PlannedReduction, NanNeverDisplacesANumber) {
  // NaN leads the section (and sits mid-way): the extrema ignore it.
  const std::string src = R"(PROGRAM MIXNAN
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL SMX, SMN
      INTEGER KMX, KMN
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(CYCLIC)
C$ ALIGN A(I) WITH T(I)
      SMX = MAXVAL(A)
      KMX = MAXLOC(A(1:N))
      SMN = MINVAL(A)
      KMN = MINLOC(A(1:N))
      END PROGRAM MIXNAN
)";
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return g[0] == 0 || g[0] == 5 ? std::nan("") : 3.0 - std::fabs(g[0] - 3.0);
  };
  for (const auto& ro : {plans_off(), plans_on()}) {
    const auto r = harness::run_source(src, init, ro, {}, ipsc());
    EXPECT_EQ(r.scalars.at("SMX"), 3.0);
    EXPECT_EQ(r.scalars.at("KMX"), 4);
    EXPECT_EQ(r.scalars.at("SMN"), -1.0);
    EXPECT_EQ(r.scalars.at("KMN"), 8);
  }
}

std::string sentinel_source(const char* sign) {
  return strformat(R"(PROGRAM SENT
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL SMX, SMN
      INTEGER KMX, KMN
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      FORALL (I = 1:N) A(I) = %s1.0E305 * (9 - I)
      SMX = MAXVAL(A)
      KMX = MAXLOC(A(1:N))
      SMN = MINVAL(A)
      KMN = MINLOC(A(1:N))
      END PROGRAM SENT
)",
                   sign);
}

TEST(PlannedReduction, ExtremaBeyondTheOldSentinel) {
  // Every value lies beyond +-1e300: a sentinel-seeded accumulator never
  // moves.  The first element seeds it instead, on both paths.
  for (const auto& ro : {plans_off(), plans_on()}) {
    const auto neg = harness::run_source(sentinel_source("-"), {}, ro, {},
                                         ipsc());
    EXPECT_EQ(neg.scalars.at("SMX"), -1.0e305);
    EXPECT_EQ(neg.scalars.at("KMX"), 8);
    EXPECT_EQ(neg.scalars.at("SMN"), -8.0e305);
    EXPECT_EQ(neg.scalars.at("KMN"), 1);
    const auto pos = harness::run_source(sentinel_source(""), {}, ro, {},
                                         ipsc());
    EXPECT_EQ(pos.scalars.at("SMN"), 1.0e305);
    EXPECT_EQ(pos.scalars.at("KMN"), 8);
    EXPECT_EQ(pos.scalars.at("SMX"), 8.0e305);
    EXPECT_EQ(pos.scalars.at("KMX"), 1);
  }
}

TEST(PlannedReduction, EmptyExtremaAreHuge) {
  // A zero-trip section: MAXVAL is -HUGE, MINVAL +HUGE, MAXLOC 0.
  const std::string src = R"(PROGRAM EMPTY
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL SMX, SMN
      INTEGER KMX
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      SMX = MAXVAL(A(5:4))
      SMN = MINVAL(A(5:4))
      KMX = MAXLOC(A(5:4))
      END PROGRAM EMPTY
)";
  for (const auto& ro : {plans_off(), plans_on()}) {
    const auto r = harness::run_source(src, {}, ro, {}, ipsc());
    EXPECT_EQ(r.scalars.at("SMX"), std::numeric_limits<double>::lowest());
    EXPECT_EQ(r.scalars.at("SMN"), std::numeric_limits<double>::max());
    EXPECT_EQ(r.scalars.at("KMX"), 0);
  }
}

TEST(PlannedReduction, StridedSectionReductionsReadTheirGather) {
  // A section with a stride other than +1 is not aligned with the
  // partitioning of its own elements, so its iterations are split evenly
  // over the processors, the elements arrive by a PARTI gather and the
  // reduction reads the gather buffer, not local storage.  MAXLOC/MINLOC
  // over such a section iterate positions and report the index the
  // winning position stands for; ties keep the first in section order.
  for (const auto& [p, dist] : {std::pair{2, "BLOCK"}, {3, "CYCLIC"},
                                {4, "CYCLIC(3)"}}) {
    const std::string src = strformat(R"(PROGRAM STRIDED
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL B(N)
      REAL S1, S2, S3, S4, S5
      INTEGER K1, K2, K3, K4, K5, K6
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) A(I) = I
      FORALL (I = 1:N) B(I) = (I - 4) * (I - 4)
      S1 = SUM(A(1:8:2))
      S2 = SUM(A(5:1:-1))
      S3 = SUM(A(8:1:-1))
      S4 = SUM(A(7:1:-2))
      S5 = SUM(A(1:5))
      K1 = MINLOC(B(1:8:2))
      K2 = MAXLOC(B(7:1:-2))
      K3 = MINLOC(B(8:1:-1))
      K4 = MAXLOC(B(2:8:3))
      K5 = MAXLOC(B(5:1:2))
      K6 = MINLOC(B(1:6))
      END PROGRAM STRIDED
)",
                                      p, dist);
    double sim_time = -1;
    for (const char* backend : {"tree", "plan", "native"}) {
      const std::string what = strformat("P(%d) %s %s", p, dist, backend);
      service::RunSpec spec;
      spec.run.exec_plans = std::string(backend) != "tree";
      spec.run.native_backend = std::string(backend) == "native";
      spec.cost = ipsc();
      const service::Outcome out = service::compile_and_run(src, spec);
      ASSERT_TRUE(out.ok) << what << ": " << out.error;
      const std::map<std::string, double>& sc = out.result.scalars;
      EXPECT_EQ(sc.at("S1"), 16.0) << what;
      EXPECT_EQ(sc.at("S2"), 15.0) << what;
      EXPECT_EQ(sc.at("S3"), 36.0) << what;
      EXPECT_EQ(sc.at("S4"), 16.0) << what;
      EXPECT_EQ(sc.at("S5"), 15.0) << what;
      EXPECT_EQ(sc.at("K1"), 3) << what;  // B(3) = B(5) = 1
      EXPECT_EQ(sc.at("K2"), 7) << what;  // B(7) = B(1) = 9
      EXPECT_EQ(sc.at("K3"), 4) << what;
      EXPECT_EQ(sc.at("K4"), 8) << what;
      EXPECT_EQ(sc.at("K5"), 0) << what;  // empty section
      EXPECT_EQ(sc.at("K6"), 4) << what;  // unit stride: the index itself
      EXPECT_GT(out.result.schedules_built, 0) << what;
      EXPECT_GT(out.result.machine.exec_time, 0.0) << what;
      // Gathered reductions plan like any other statement: with plans on,
      // nothing tree-walks.
      EXPECT_EQ(out.result.tree_walk_stmts,
                std::string(backend) == "tree" ? 13 : 0)
          << what;
      if (sim_time >= 0) {
        EXPECT_EQ(out.result.machine.exec_time, sim_time) << what;
      }
      sim_time = out.result.machine.exec_time;
    }
  }
}

/// Replicated lhs arrays L (REAL), IL (INTEGER), LL (LOGICAL) and R
/// (2-D), written from the distributed A(N, N+1) / IB(N) / B(N, M).
std::string concat_source(int p, const char* dist, const std::string& body) {
  return strformat(R"(PROGRAM CAT
      INTEGER N
      PARAMETER (N = 12)
      INTEGER M
      PARAMETER (M = 5)
      REAL A(N, N+1)
      REAL L(N)
      REAL B(N, M)
      REAL R(N, M)
      REAL X(N)
      INTEGER IB(N)
      INTEGER IL(N)
      LOGICAL LL(N)
      INTEGER K
C$ PROCESSORS P(%d)
C$ TEMPLATE TA(N, N+1)
C$ DISTRIBUTE TA(*, %s)
C$ ALIGN A(I, J) WITH TA(I, J)
C$ TEMPLATE TB(N)
C$ DISTRIBUTE TB(%s)
C$ ALIGN B(I, J) WITH TB(I)
C$ ALIGN IB(I) WITH TB(I)
C$ ALIGN X(I) WITH TB(I)
%s      END PROGRAM CAT
)",
                   p, dist, dist, body.c_str());
}

interp::Init concat_init() {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return 0.5 + static_cast<double>((g[0] * 13 + g[1] * 7) % 11) / 3.0;
  };
  init.real["B"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0] * 5 + g[1]) * 0.75 - 9.0;
  };
  init.ints["IB"] = [](std::span<const Index> g) { return g[0] * 3 - 10; };
  return init;
}

TEST(PlannedConcatenation, StridedAndKVaryingRangesRebind) {
  // Gauss's multiplier column, strided (one run per element) and
  // contiguous, with bounds that move with K; the rhs reads the lhs, so
  // the write-back must land after the whole rhs was evaluated.
  const std::string body = R"(      DO K = 1, N-1
        L(K+1:N:2) = A(K+1:N:2, K) / A(K, K) + L(K:N-1:2)
        L(K+1:N) = A(K+1:N, K) + L(K+1:N) * 0.5
      END DO
)";
  for (int p : {1, 3, 4, 16}) {
    for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
      const std::string what = strformat("P=%d %s", p, dist);
      const auto plan = expect_planned_matches(concat_source(p, dist, body), p,
                                               concat_init(), no_edit, what);
      expect_plan_counts(plan, 2, 2 * 10, 2 * 10, 2, what);
    }
  }
}

TEST(PlannedConcatenation, TwoDimensionalIntegerAndLogicalLhs) {
  // Every processor contributes its owned rows: several runs per block
  // of the 2-D lhs.  INTEGER destinations convert REAL and INTEGER values
  // like write_element; LOGICAL ones are read back through a mask.
  const std::string body = R"(      FORALL (I = 1:N, J = 1:M) R(I, J) = B(I, J) * 2.0
      FORALL (I = 2:N-1, J = 2:M) R(I, J) = B(I, J) + 1.0
      IL(1:N) = IB(1:N) * 3
      FORALL (I = 2:N:3) IL(I) = X(I) + 2.75
      LL(1:N) = IB(1:N) .GT. 0
      FORALL (I = 1:N, LL(I)) X(I) = 1.5
)";
  for (int p : {1, 2, 4, 16}) {
    for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
      const std::string what = strformat("P=%d %s", p, dist);
      const auto plan = expect_planned_matches(concat_source(p, dist, body), p,
                                               concat_init(), no_edit, what);
      expect_plan_counts(plan, 6, 0, 0, 6, what);
    }
  }
}

TEST(PlannedConcatenation, MaskedConcatenationDeclines) {
  // The concat slot's run table covers every iteration, masked-out ones
  // included, while a masked-out iteration contributes nothing: the
  // statement stays on the tree walk, on every trip.
  const std::string body = R"(      DO K = 1, 3
        FORALL (I = 1:N, A(I, K) .GT. 2.0) L(I) = A(I, K) * 2.0
      END DO
)";
  const std::string src = concat_source(4, "BLOCK", body);
  const auto tree = run_edited(src, 4, concat_init(), plans_off(), no_edit);
  const auto plan = run_edited(src, 4, concat_init(), plans_on(), no_edit);
  expect_same_run(tree, plan, "masked concat");
  EXPECT_EQ(plan.tree_walk_stmts, 3);
  EXPECT_EQ(tree.tree_walk_stmts, 3);
  // One entry, declined under every key value, never a plan.
  expect_plan_counts(plan, 0, 0, 0, 1, "masked concat");
}

TEST(PlannedReduction, GaussRunsNoStatementOnTheTreeWalk) {
  // The pivot search and the multiplier write-back are planned: every
  // elimination statement has one entry, re-bound at each step.  The
  // matrix pivots, so the row-swap branch runs too.
  const int n = 16;
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return static_cast<double>((g[0] * 37 + g[1] * 11) % 23) / 7.0 - 1.5;
  };
  const std::string src = apps::gauss_source(n, 4, "BLOCK");
  const auto tree = harness::run_source(src, init, plans_off(), {}, ipsc());
  const auto plan = harness::run_source(src, init, plans_on(), {}, ipsc());
  expect_same_run(tree, plan, "gauss");
  expect_same_scalars(tree, plan, "gauss");
  EXPECT_EQ(plan.tree_walk_stmts, 0);
  EXPECT_GT(tree.tree_walk_stmts, 0);
  EXPECT_EQ(plan.plan_entries, 6);
  EXPECT_LE(plan.plan_misses, 6);
}

// --- coverage pin: every app source plans whole --------------------------------

/// Runs `src` with plans off and on: with plans on no FORALL or reduction
/// may fall back to the tree walk, and every array and the simulated time
/// must equal the tree walk's.
void expect_fully_planned(const std::string& src, const interp::Init& init,
                          const std::string& what) {
  const auto tree = harness::run_source(src, init, plans_off(), {}, ipsc());
  const auto plan = harness::run_source(src, init, plans_on(), {}, ipsc());
  EXPECT_EQ(plan.tree_walk_stmts, 0) << what;
  EXPECT_GT(tree.tree_walk_stmts, 0) << what;
  EXPECT_EQ(plan.real_arrays, tree.real_arrays) << what;
  EXPECT_EQ(plan.int_arrays, tree.int_arrays) << what;
  EXPECT_GT(tree.machine.exec_time, 0.0) << what;
  EXPECT_EQ(plan.machine.exec_time, tree.machine.exec_time) << what;
}

/// `src` with the BLOCK of its one DISTRIBUTE directive replaced by `dist`
/// (for the app sources that take no distribution).
std::string with_dist(std::string src, const char* dist) {
  const size_t at = src.find("(BLOCK)");
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) src.replace(at, 7, std::string("(") + dist + ")");
  return src;
}

TEST(PlanCoverage, EveryAppSourceRunsNoStatementOnTheTreeWalk) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    const std::string d = dist;
    expect_fully_planned(apps::jacobi_source(12, 2, 2, 3, dist),
                         harness::jacobi_init(), "jacobi " + d);
    expect_fully_planned(apps::jacobi_hoisted_source(12, 2, 2, 3, dist),
                         harness::jacobi_hoisted_init(), "jacobi_hoisted " + d);
    expect_fully_planned(apps::gauss_source(12, 4, dist),
                         harness::gauss_init(12), "gauss " + d);
    expect_fully_planned(with_dist(apps::fft_source(16, 4, 3), dist),
                         harness::fft_init(), "fft " + d);
    // The kernel's U and V are replicated; the variant aligns them with
    // the data, so their reads are distributed too.
    const std::string irr = with_dist(apps::irregular_source(24, 4, 2), dist);
    expect_fully_planned(irr, harness::irregular_init(24), "irregular " + d);
    std::string aligned = irr;
    const std::string anchor = "C$ ALIGN C(I) WITH T(I)\n";
    aligned.insert(aligned.find(anchor) + anchor.size(),
                   "C$ ALIGN U(I) WITH T(I)\nC$ ALIGN V(I) WITH T(I)\n");
    expect_fully_planned(aligned, harness::irregular_init(24),
                         "irregular aligned " + d);
  }
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)", "INDIRECT(MAP)"}) {
    const std::string d = dist;
    expect_fully_planned(apps::spmv_ell_source(19, 3, 4, 2, dist),
                         harness::spmv_ell_init(19, 4), "spmv " + d);
    expect_fully_planned(apps::mesh_sweep_source(17, 23, 4, 2, dist),
                         harness::mesh_sweep_init(17, 4), "mesh " + d);
    expect_fully_planned(apps::particle_bin_source(21, 4, 2, dist),
                         harness::particle_bin_init(21, 4), "particle_bin " + d);
  }
}

// --- the typed store ---------------------------------------------------------
// Multicast and transfer slabs and broadcast elements travel in their
// array's element type: an INTEGER element is 8 exact bytes on the wire, a
// LOGICAL one 1 byte.  Every backend plans them, with the tree walk's
// messages, bytes and times.

/// `body` on INTEGER A and B and LOGICAL L and M, N = 8, on P(2, 2).
std::string typed_slab_source(const char* dist, const std::string& body) {
  return strformat(R"(PROGRAM TYPED
      INTEGER N
      PARAMETER (N = 8)
      INTEGER A(N, N)
      INTEGER B(N, N)
      LOGICAL L(N, N)
      LOGICAL M(N, N)
C$ PROCESSORS P(2, 2)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(%s, %s)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ ALIGN L(I, J) WITH T(I, J)
C$ ALIGN M(I, J) WITH T(I, J)
%s      END PROGRAM TYPED
)",
                   dist, dist, body.c_str());
}

/// B's elements lie beyond 2^53, so a detour through double would show.
constexpr long long kBig = 1LL << 60;

TEST(TypedStore, IntegerAndLogicalSlabsPlanOnEveryBackend) {
  struct Case {
    const char* what;
    const char* body;
    std::uint64_t messages;
    std::uint64_t bytes;              ///< 8 per INTEGER, 1 per LOGICAL
    long long (*want)(Index, Index);  ///< A(i, j), 0-based
  };
  // B(i, j) = 2^60 + 10 i + j + 1 and M(i, j) = (i + 2 j) mod 3 == 0,
  // 0-based.  Each slab is 4 elements, sent by the 2 processors of the
  // source line; a broadcast element reaches the 3 other processors.
  const Case cases[] = {
      {"integer multicast",
       "      FORALL (I = 1:N, J = 1:N) A(I, J) = B(3, J)\n", 2, 2 * 4 * 8,
       [](Index, Index j) { return kBig + 20 + j + 1; }},
      {"integer transfer", "      FORALL (I = 1:N) A(I, 2) = B(I, 7)\n", 2,
       2 * 4 * 8,
       [](Index i, Index j) { return j == 1 ? kBig + 10 * i + 7 : 0; }},
      {"integer broadcast",
       "      FORALL (I = 1:N, J = 1:N) A(I, J) = B(3, 5)\n", 3, 3 * 8,
       [](Index, Index) { return kBig + 25; }},
      {"logical multicast",
       "      FORALL (I = 1:N, J = 1:N) L(I, J) = M(3, J)\n"
       "      WHERE (L) A = 1\n",
       2, 2 * 4,
       [](Index, Index j) { return (2 + 2 * j) % 3 == 0 ? 1LL : 0LL; }},
      {"logical transfer",
       "      FORALL (I = 1:N) L(I, 2) = M(I, 7)\n"
       "      WHERE (L) A = 1\n",
       2, 2 * 4,
       [](Index i, Index j) {
         return j == 1 && (i + 12) % 3 == 0 ? 1LL : 0LL;
       }},
      {"logical broadcast",
       "      FORALL (I = 1:N, J = 1:N) L(I, J) = M(3, 6)\n"
       "      WHERE (L) A = 1\n",
       3, 3, [](Index, Index) { return 1LL; }},
  };
  interp::Init init;
  init.ints["B"] = [](std::span<const Index> g) {
    return kBig + 10 * g[0] + g[1] + 1;
  };
  init.logical["M"] = [](std::span<const Index> g) {
    return (g[0] + 2 * g[1]) % 3 == 0;
  };
  for (const char* dist : {"BLOCK", "CYCLIC"}) {
    for (const Case& c : cases) {
      const std::string what = std::string(c.what) + " " + dist;
      SCOPED_TRACE(what);
      const Backends b = run_backends(typed_slab_source(dist, c.body), init);
      EXPECT_GT(b.tree.tree_walk_stmts, 0);
      EXPECT_EQ(b.plan.tree_walk_stmts, 0);
      EXPECT_EQ(b.native.tree_walk_stmts, 0);
      EXPECT_EQ(b.tree.machine.total_messages(), c.messages);
      EXPECT_EQ(b.tree.machine.total_bytes(), c.bytes);
      // A is the observed result: B's values, or 1 where L became true.
      const std::vector<long long>& a = b.tree.int_arrays.at("A");
      ASSERT_EQ(a.size(), 64u);
      for (Index k = 0; k < 64; ++k)
        EXPECT_EQ(a[static_cast<size_t>(k)], c.want(k / 8, k % 8))
            << "A element " << k;
    }
  }
}

}  // namespace
}  // namespace f90d
