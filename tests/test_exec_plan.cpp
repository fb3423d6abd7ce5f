// Execution-plan layer (exec/exec_plan.hpp): differential plan-on vs
// plan-off (tree walk) sweeps that must be bit-identical at equal simulated
// times, edge cases (zero-trip DO, P > N, enumerated CYCLIC(k) bounds,
// masked FORALL), plan-cache reuse across DO-loop trips, in-place rebinds
// when loop-variant scalars change, the redistribution invalidation
// contract, the PARTI fallback, and the statement plan cache's entry,
// decline and shared-namespace rules.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

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
    auto on = harness::run_jacobi(12, 3, p(), q(), dist, plans_on(), {}, ipsc());
    auto off =
        harness::run_jacobi(12, 3, p(), q(), dist, plans_off(), {}, ipsc());
    expect_bit_identical(on, off, 1e-9, std::string("jacobi ") + dist);
    EXPECT_EQ(off.plan_hits + off.plan_misses, 0);
  }
}

TEST_P(ExecPlanSweep, Gauss) {
  const int n = 12;
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    auto on = harness::run_gauss(n, nprocs(), dist, plans_on(), {}, ipsc());
    auto off = harness::run_gauss(n, nprocs(), dist, plans_off(), {}, ipsc());
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
  // The vector-subscript kernel is structurally outside the planner: the
  // decline is discovered once, then the statement bypasses planning (no
  // cache hits), and PARTI schedule reuse still works underneath.
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
  auto on = harness::run_jacobi(3, 2, 4, 4, "BLOCK", plans_on(), {}, ipsc());
  auto off = harness::run_jacobi(3, 2, 4, 4, "BLOCK", plans_off(), {}, ipsc());
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
  b.tree = harness::run_source(src, init, plans_off(), {}, {}, ipsc());
  b.plan = harness::run_source(src, init, plans_on(), {}, {}, ipsc());
  (void)harness::run_source(src, init, native_on(), {}, {}, ipsc());
  b.native = harness::run_source(src, init, native_on(), {}, {}, ipsc());
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

  // In the cache: K = 2 builds, K = 1 re-binds, K = 0 declines (a miss,
  // not structural), and K = 1 again rebuilds the plan in the same slot.
  auto compiled = compile::compile_source(src);
  const compile::SpmdStmt& s = only_forall(compiled);
  machine::SimMachine m = harness::make_machine(4);
  std::vector<exec::StatementPlanStats> stats(4);
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, compiled.mapping.grid);
    exec::Env env(compiled, gc);
    exec::CommPlans comm(env, {}, false);
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
    EXPECT_FALSE(declined.structural);
    EXPECT_FALSE(cache.declined_structurally(s.stmt_id));
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
    (void)get(3, [] {
      exec::StatementPlan e;
      auto irr = std::make_shared<exec::IrregularPlan>();
      irr->core.arrays = {"D"};
      e.irregular = irr;
      return e;
    });
    (void)get(1, [] { return regular_entry({}); });
    EXPECT_EQ(cache.stats().regular.misses, 2);
    EXPECT_EQ(cache.stats().regular.hits, 1);
    EXPECT_EQ(cache.stats().regular.rebinds, 0);
    EXPECT_EQ(cache.stats().irregular.misses, 1);
    EXPECT_EQ(cache.size(), 3u);

    // An array bound only by the comm slots drops the whole entry — plan,
    // comm slots and native attachment — and counts it once.
    cache.invalidate_array("B");
    EXPECT_EQ(cache.stats().regular.invalidations, 1);
    EXPECT_EQ(cache.stats().native_invalidations, 1);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_TRUE(plan1.expired());

    // Re-lookup rebuilds; an array bound only by the exec plan drops it too.
    (void)get(1, [] { return regular_entry({"A"}); });
    EXPECT_EQ(cache.stats().regular.misses, 3);
    cache.invalidate_array("A");
    EXPECT_EQ(cache.stats().regular.invalidations, 2);
    EXPECT_EQ(cache.stats().native_invalidations, 1);  // no attachment now
    EXPECT_EQ(cache.size(), 2u);

    // Irregular entries follow the same rule through their core plan.
    cache.invalidate_array("D");
    EXPECT_EQ(cache.stats().irregular.invalidations, 1);
    EXPECT_EQ(cache.size(), 1u);  // 2 (binds only C) survives
  });
}

TEST(StatementPlanCache, StructuralDeclineRecordedOnce) {
  // B(2*I+1) is a schedule1 read: the regular planner declines it
  // (schedule-based read buffer) and so does the irregular one (peer-range
  // enumeration), both independently of runtime scalars.
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO IT = 1, 3
        FORALL (I = 1:7) A(I) = B(2*I + 1)
      END DO
      END PROGRAM EDGE
)";
  auto compiled = compile::compile_source(src);
  const compile::SpmdStmt& s = only_forall(compiled);

  struct Counts {
    int builds = 0, skipped = 0;
    exec::StatementPlanStats stats;
    std::string decline;
  };
  std::vector<Counts> per_rank(4);
  machine::SimMachine m = harness::make_machine(4);
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, compiled.mapping.grid);
    exec::Env env(compiled, gc);
    exec::CommPlans comm(env, {}, false);
    exec::StatementPlanCache cache;
    Counts& c = per_rank[static_cast<size_t>(proc.rank())];
    // The interpreter's lookup sequence, one pass per DO trip.
    for (int trip = 0; trip < 3; ++trip) {
      if (cache.declined_structurally(s.stmt_id)) {
        ++c.skipped;
        continue;
      }
      const exec::StatementPlan& e = cache.get(
          s, env,
          [&](std::span<const std::string> names) {
            ++c.builds;
            return exec::build_statement_plan(s, env, comm, names);
          },
          [&](exec::StatementPlan& x, std::span<const std::string> names) {
            return exec::rebind_statement_plan(s, env, comm, names, x);
          });
      c.decline = e.decline;
    }
    c.stats = cache.stats();
  });
  for (const Counts& c : per_rank) {
    EXPECT_EQ(c.builds, 1) << c.decline;
    EXPECT_EQ(c.skipped, 2);  // later trips skip the key compare entirely
    EXPECT_EQ(c.stats.declined.misses, 1);
    EXPECT_EQ(c.stats.declined.hits, 0);
    EXPECT_EQ(c.stats.regular.misses + c.stats.irregular.misses, 0);
  }
}

TEST(StatementPlanCache, SharedMetaUsesOneNamespacePerArtifact) {
  const std::string src = edge_prelude(16, 1, "BLOCK") +
                          R"(      DO K = 1, 3
        FORALL (I = K:N) A(I) = B(I)
      END DO
      END PROGRAM EDGE
)";
  with_env(src, [](const compile::Compiled& compiled, exec::Env& env) {
    const compile::SpmdStmt& keyed = only_forall(compiled);
    compile::SpmdStmt declined(compile::SpmdKind::kForall);
    declined.stmt_id = keyed.stmt_id + 1;
    auto structural = [](std::span<const std::string>) {
      exec::StatementPlan e;
      e.decline = "both planners";
      e.structural = true;
      return e;
    };
    std::vector<std::string> seen;
    auto record = [&](std::span<const std::string> names) {
      seen.assign(names.begin(), names.end());
      return exec::StatementPlan{};
    };
    exec::SharedPlanMeta meta;
    {
      exec::StatementPlanCache cache;
      cache.set_shared(&meta, "artifact-1");
      (void)cache.get(keyed, env, record, never_rebind);
      (void)cache.get(declined, env, structural, never_rebind);
    }
    EXPECT_EQ(seen, (std::vector<std::string>{"K", "N"}));
    // Under the artifact's single namespace: each statement's key-scalar
    // list, plus the structural decline.
    EXPECT_EQ(meta.size(), 3u);
    EXPECT_EQ(meta.stats().installs, 3);

    // A later run of the same artifact answers both from the store.
    seen.clear();
    exec::StatementPlanCache warm;
    warm.set_shared(&meta, "artifact-1");
    EXPECT_TRUE(warm.declined_structurally(declined.stmt_id));
    (void)warm.get(keyed, env, record, never_rebind);
    EXPECT_EQ(seen, (std::vector<std::string>{"K", "N"}));
    EXPECT_EQ(warm.stats().shared_hits, 2);
    EXPECT_EQ(meta.stats().scalar_hits, 1);

    // Another artifact's statement ids never collide with them.
    exec::StatementPlanCache other;
    other.set_shared(&meta, "artifact-2");
    EXPECT_FALSE(other.declined_structurally(declined.stmt_id));
    (void)other.get(keyed, env, record, never_rebind);
    EXPECT_EQ(other.stats().shared_hits, 0);
    EXPECT_EQ(meta.size(), 4u);
  });
}

}  // namespace
}  // namespace f90d
