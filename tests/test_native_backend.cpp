// Native node-program backend (src/native/): differential sweeps of
// native vs plan-interpreter vs tree-walk over the paper workloads (on the
// charging iPSC/860 cost model, so equal simulated times are a real check),
// the invalidation contract on the native path, every intrinsic the
// lowering emits as a compiler builtin, graceful fallback when the
// toolchain is disabled, NativeCache unit behaviour (including a scratch
// directory whose path a shell would mangle), the lazy toolchain probe
// (a broken compiler costs one kernel and one probe, a healthy one no
// probe at all), the structural kernel key (plan_shape) against the
// header-free text lower_plan prints, and vectorized kernels: every vector
// path against the tape, and the re-attach when a rebind flips an
// innermost unit stride.
//
// Every differential test tolerates a missing toolchain by construction:
// when kernels cannot be built the native run degrades to the plan
// interpreter (that is the fallback contract), so the bit-identity
// assertions still hold.  Tests that require kernels to actually execute
// GTEST_SKIP on NativeCache::available() instead.
#include <gtest/gtest.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <random>

#include "harness.hpp"
#include "native/jit.hpp"
#include "native/lower.hpp"
#include "support/diag.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions backend_native() {
  interp::RunOptions ro;
  ro.native_backend = true;
  return ro;
}

interp::RunOptions backend_plan() { return {}; }

interp::RunOptions backend_tree() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

bool native_available() {
  return native::NativeCache::instance().available();
}

/// The sweeps charge on the paper's machine: with the ideal model every
/// simulated clock is zero and the sim_time equalities would be vacuous.
const machine::CostModel& charging() {
  static const machine::CostModel cm = machine::CostModel::ipsc860();
  return cm;
}

/// Bit-identical arrays and identical simulated clocks across two
/// backends, plus the reference run against the oracle.
void expect_same_run(const DiffRun& a, const DiffRun& b, double oracle_tol,
                     const std::string& what) {
  ASSERT_EQ(a.got.size(), b.got.size()) << what;
  for (size_t k = 0; k < a.got.size(); ++k)
    ASSERT_EQ(a.got[k], b.got[k]) << what << " element " << k;
  EXPECT_GT(a.sim_time, 0.0) << what << " simulated time is charged";
  EXPECT_EQ(a.sim_time, b.sim_time) << what << " simulated time";
  EXPECT_LE(harness::max_abs_diff(b), oracle_tol) << what;
}

struct GridShape {
  int p;
  int q;
};

class NativeBackendSweep : public ::testing::TestWithParam<GridShape> {
 protected:
  int p() const { return GetParam().p; }
  int q() const { return GetParam().q; }
  int nprocs() const { return p() * q(); }
};

TEST_P(NativeBackendSweep, Jacobi) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
    auto nat = harness::run_jacobi(12, 3, p(), q(), dist, backend_native(),
                                   charging());
    auto plan = harness::run_jacobi(12, 3, p(), q(), dist, backend_plan(),
                                    charging());
    auto tree = harness::run_jacobi(12, 3, p(), q(), dist, backend_tree(),
                                    charging());
    expect_same_run(nat, plan, 1e-9, std::string("jacobi ") + dist);
    expect_same_run(nat, tree, 1e-9, std::string("jacobi ") + dist);
  }
}

TEST_P(NativeBackendSweep, Gauss) {
  const int n = 12;
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    auto nat =
        harness::run_gauss(n, nprocs(), dist, backend_native(), charging());
    auto plan =
        harness::run_gauss(n, nprocs(), dist, backend_plan(), charging());
    auto tree =
        harness::run_gauss(n, nprocs(), dist, backend_tree(), charging());
    ASSERT_EQ(nat.got.size(), plan.got.size());
    ASSERT_EQ(nat.got.size(), tree.got.size());
    for (size_t k = 0; k < nat.got.size(); ++k) {
      ASSERT_EQ(nat.got[k], plan.got[k]) << "gauss " << dist << " elem " << k;
      ASSERT_EQ(nat.got[k], tree.got[k]) << "gauss " << dist << " elem " << k;
    }
    EXPECT_GT(nat.sim_time, 0.0) << "gauss " << dist;
    EXPECT_EQ(nat.sim_time, plan.sim_time) << "gauss " << dist;
    EXPECT_EQ(nat.sim_time, tree.sim_time) << "gauss " << dist;
    EXPECT_LE(harness::max_abs_diff(tree, harness::gauss_defined_region(n)),
              1e-6);
  }
}

TEST_P(NativeBackendSweep, FftButterfly) {
  auto nat = harness::run_fft(16, 3, nprocs(), backend_native(), charging());
  auto plan = harness::run_fft(16, 3, nprocs(), backend_plan(), charging());
  auto tree = harness::run_fft(16, 3, nprocs(), backend_tree(), charging());
  expect_same_run(nat, plan, 1e-9, "fft");
  expect_same_run(nat, tree, 1e-9, "fft");
}

TEST_P(NativeBackendSweep, IrregularStaysOnParti) {
  // The vector-subscript kernel is planned with a gather and a scatter
  // sink, neither of which has a kernel form: it runs on the tape.
  auto nat =
      harness::run_irregular(24, 2, nprocs(), backend_native(), charging());
  auto tree =
      harness::run_irregular(24, 2, nprocs(), backend_tree(), charging());
  ASSERT_EQ(nat.got.size(), tree.got.size());
  for (size_t k = 0; k < nat.got.size(); ++k)
    ASSERT_EQ(nat.got[k], tree.got[k]) << "irregular element " << k;
  EXPECT_EQ(nat.sim_time, tree.sim_time);
  EXPECT_LE(harness::max_abs_diff(tree), 1e-9);
  EXPECT_EQ(nat.native_runs, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NativeBackendSweep,
    ::testing::Values(GridShape{1, 1}, GridShape{1, 2}, GridShape{2, 1},
                      GridShape{2, 2}, GridShape{1, 4}, GridShape{4, 1},
                      GridShape{4, 2}, GridShape{2, 4}, GridShape{4, 4}),
    [](const ::testing::TestParamInfo<GridShape>& info) {
      return std::to_string(info.param.p) + "x" + std::to_string(info.param.q);
    });

// --- kernels really run ------------------------------------------------------

TEST(NativeBackend, KernelsActuallyExecute) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  auto r = harness::run_jacobi(16, 4, 2, 2, "BLOCK", backend_native());
  EXPECT_LE(harness::max_abs_diff(r), 1e-9);
  // Jacobi's two FORALLs are fully lowerable: every planned trip runs a
  // compiled kernel on rank 0, none fall back.
  EXPECT_GT(r.native_runs, 0);
  EXPECT_EQ(r.native_fallbacks, 0);
  EXPECT_EQ(r.native_runs, r.plan_hits + r.plan_misses);
}

TEST(NativeBackend, PlanBackendCollectsNoNativeStats) {
  auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", backend_plan());
  EXPECT_EQ(r.native_runs, 0);
  EXPECT_EQ(r.native_attaches, 0);
  EXPECT_EQ(r.native_fallbacks, 0);
}

// --- invalidation contract on the native path --------------------------------

TEST(NativeBackend, ArrayIntrinsicInvalidatesNativeAttachments) {
  // Mirror of ExecPlanCache.ArrayIntrinsicInvalidatesEndToEnd: the CSHIFT
  // between trips rewrites A wholesale, which must drop the native
  // function attachments along with the plans — a stale kernel would keep
  // writing through a dangling base pointer.
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
  interp::RunOptions ro = backend_native();
  auto r = interp::run_compiled(compiled, m, init, ro);
  EXPECT_GT(r.plan_invalidations, 0);
  if (native_available()) {
    EXPECT_GT(r.native_runs, 0);
    EXPECT_GT(r.native_invalidations, 0);
  }

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

// --- graceful fallback -------------------------------------------------------

TEST(NativeBackend, EnvKillSwitchFallsBackCleanly) {
  // F90D_NATIVE=0 is the run-time off switch (the sanitizer escape hatch):
  // a native-backend run must degrade to the plan interpreter without
  // running a single kernel — and without erroring.
  ::setenv("F90D_NATIVE", "0", 1);
  auto nat = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_native(),
                                 charging());
  ::unsetenv("F90D_NATIVE");
  auto plan = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_plan(),
                                  charging());
  expect_same_run(nat, plan, 1e-9, "jacobi kill-switch");
  EXPECT_EQ(nat.native_runs, 0);
}

// --- intrinsics --------------------------------------------------------------

/// Every intrinsic and operator the lowering emits as a compiler builtin or
/// helper call, one or two per FORALL so each statement stays a planned,
/// lowerable kernel.  X is positive (SQRT, LOG, real**real); Y crosses zero
/// and hits the .5 ties NINT rounds away from zero; K goes negative for
/// integer MOD and ABS.
std::string intrinsics_source(const char* dist) {
  std::string src = R"(PROGRAM INTRIN
      INTEGER N
      PARAMETER (N = 32)
      REAL X(N)
      REAL Y(N)
      INTEGER K(N)
      REAL R1(N)
      REAL R2(N)
      REAL R3(N)
      REAL R4(N)
      REAL R5(N)
      INTEGER J1(N)
      INTEGER J2(N)
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(@)
C$ ALIGN X(I) WITH T(I)
C$ ALIGN Y(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
C$ ALIGN R1(I) WITH T(I)
C$ ALIGN R2(I) WITH T(I)
C$ ALIGN R3(I) WITH T(I)
C$ ALIGN R4(I) WITH T(I)
C$ ALIGN R5(I) WITH T(I)
C$ ALIGN J1(I) WITH T(I)
C$ ALIGN J2(I) WITH T(I)
      FORALL (I = 1:N) R1(I) = SQRT(X(I)) + EXP(Y(I))
      FORALL (I = 1:N) R2(I) = LOG(X(I)) * SIN(Y(I)) - COS(X(I))
      FORALL (I = 1:N) R3(I) = ABS(Y(I)) + MOD(X(I), 0.75) + MOD(Y(I), X(I))
      FORALL (I = 1:N) R4(I) = X(I) ** Y(I) + Y(I) ** 3
      FORALL (I = 1:N) R5(I) = MIN(X(I), Y(I)) + MAX(X(I), Y(I), 0.5) + REAL(K(I))
      FORALL (I = 1:N) J1(I) = NINT(Y(I)) + NINT(X(I) * 3.7) + INT(Y(I) * 2.3)
      FORALL (I = 1:N) J2(I) = MOD(K(I), 5) + ABS(K(I)) + K(I) ** 2 + MIN(K(I), 3)
      END PROGRAM INTRIN
)";
  src.replace(src.find('@'), 1, dist);
  return src;
}

interp::ProgramResult run_intrinsics(const char* dist,
                                     const interp::RunOptions& ro) {
  interp::Init init;
  init.real["X"] = [](std::span<const Index> g) { return 0.25 + 0.37 * g[0]; };
  init.real["Y"] = [](std::span<const Index> g) { return 0.5 * (g[0] - 16); };
  init.ints["K"] = [](std::span<const Index> g) { return g[0] * 3 - 40; };
  return harness::run_source(intrinsics_source(dist), init, ro, {},
                             charging());
}

/// Every REAL array as raw bit patterns, so -0.0 and 0.0 differ.
std::map<std::string, std::vector<std::uint64_t>> real_bits(
    const interp::ProgramResult& r) {
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (const auto& [name, vals] : r.real_arrays) {
    std::vector<std::uint64_t>& bits = out[name];
    bits.resize(vals.size());
    std::memcpy(bits.data(), vals.data(), vals.size() * sizeof(double));
  }
  return out;
}

TEST(NativeBackend, IntrinsicsMatchTapeBitForBit) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  for (const char* dist : {"BLOCK", "CYCLIC"}) {
    const auto nat = run_intrinsics(dist, backend_native());
    const auto plan = run_intrinsics(dist, backend_plan());
    const auto tree = run_intrinsics(dist, backend_tree());
    // Every FORALL ran as a compiled kernel; none fell back to the tape.
    EXPECT_GT(nat.native_runs, 0) << dist;
    EXPECT_EQ(nat.native_runs, nat.plan_hits + nat.plan_misses) << dist;
    EXPECT_EQ(nat.native_fallbacks, 0) << dist;
    EXPECT_GT(nat.machine.exec_time, 0.0) << dist;
    for (const interp::ProgramResult* other : {&plan, &tree}) {
      EXPECT_EQ(real_bits(nat), real_bits(*other)) << dist;
      EXPECT_EQ(nat.int_arrays, other->int_arrays) << dist;
      EXPECT_EQ(nat.machine.exec_time, other->machine.exec_time) << dist;
    }
  }
}

// --- vectorized kernels -----------------------------------------------------
// Kernels are compiled with the loop vectorizer on, and unit innermost
// strides are baked into the text.  Every vector path — main loop,
// epilogue, runtime alias check with its scalar fallback — must round and
// order exactly like the tape.

/// Run `src` on the tree walk, the plan tape and the native backend (the
/// native run twice, so the measured one finds its kernels compiled) on
/// the charging machine: bit-identical arrays, equal simulated times and
/// traffic, and kernels that actually ran.
interp::ProgramResult expect_native_matches(const std::string& src,
                                            const interp::Init& init,
                                            const std::string& what) {
  const auto tree = harness::run_source(src, init, backend_tree(), {},
                                        charging());
  const auto plan = harness::run_source(src, init, backend_plan(), {},
                                        charging());
  (void)harness::run_source(src, init, backend_native(), {}, charging());
  const auto nat = harness::run_source(src, init, backend_native(), {},
                                       charging());
  EXPECT_GT(nat.native_runs, 0) << what;
  EXPECT_GT(nat.machine.exec_time, 0.0) << what;
  for (const interp::ProgramResult* other : {&plan, &tree}) {
    EXPECT_EQ(real_bits(nat), real_bits(*other)) << what;
    EXPECT_EQ(nat.int_arrays, other->int_arrays) << what;
    EXPECT_EQ(nat.machine.exec_time, other->machine.exec_time) << what;
    EXPECT_EQ(nat.machine.total_messages(), other->machine.total_messages())
        << what;
    EXPECT_EQ(nat.machine.total_bytes(), other->machine.total_bytes())
        << what;
  }
  return nat;
}

/// Six statements per inner trip count 1, 2, 3, 7, 63, 64 and 65 (the J
/// windows are disjoint, so every window's result survives): a shifted
/// read, an in-place update, an INTEGER lhs, a LOGICAL lhs, a masked
/// store, and a broadcast scalar C(1, 1) with the multicast row C(1, J)
/// as a slab.  Then an inner step of 2 and a negative inner step.
std::string vector_source(const char* procs, const char* dist) {
  std::string body;
  int lo = 1;
  for (const int trips : {1, 2, 3, 7, 63, 64, 65}) {
    const std::string j = "J = " + std::to_string(lo) + ":" +
                          std::to_string(lo + trips - 1);
    lo += trips;
    body += "      FORALL (I = 2:M, " + j +
            ") A(I, J) = B(I, J) * 0.5 + C(I-1, J)\n"
            "      FORALL (I = 1:M, " + j +
            ") D(I, J) = D(I, J) * 0.5 + 1.0\n"
            "      FORALL (I = 1:M, " + j +
            ") IA(I, J) = IB(I, J) * 3 + J\n"
            "      FORALL (I = 1:M, " + j +
            ") LA(I, J) = B(I, J) .GT. C(I, J)\n"
            "      FORALL (I = 1:M, " + j +
            ", LA(I, J)) E(I, J) = B(I, J) - C(I, J)\n"
            "      FORALL (I = 1:M, " + j +
            ") F(I, J) = B(I, J) * C(1, 1) + C(1, J) * S\n";
  }
  return strformat(R"(PROGRAM VEC
      INTEGER M
      PARAMETER (M = 6)
      INTEGER N
      PARAMETER (N = 205)
      REAL A(M, N)
      REAL B(M, N)
      REAL C(M, N)
      REAL D(M, N)
      REAL E(M, N)
      REAL F(M, N)
      REAL G(M, N)
      REAL H(M, N)
      INTEGER IA(M, N)
      INTEGER IB(M, N)
      LOGICAL LA(M, N)
      REAL S
C$ PROCESSORS P(%s)
C$ TEMPLATE T(M, N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ ALIGN C(I, J) WITH T(I, J)
C$ ALIGN D(I, J) WITH T(I, J)
C$ ALIGN E(I, J) WITH T(I, J)
C$ ALIGN F(I, J) WITH T(I, J)
C$ ALIGN G(I, J) WITH T(I, J)
C$ ALIGN H(I, J) WITH T(I, J)
C$ ALIGN IA(I, J) WITH T(I, J)
C$ ALIGN IB(I, J) WITH T(I, J)
C$ ALIGN LA(I, J) WITH T(I, J)
      S = 1.25
%s      FORALL (I = 1:M, J = 1:N:2) G(I, J) = B(I, J) + C(I, J)
      FORALL (I = 1:M, J = N:1:-1) H(I, J) = B(I, N+1-J) * 2.0 + C(I, J)
      END PROGRAM VEC
)",
                   procs, dist, body.c_str());
}

interp::Init vector_init() {
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) {
    return 0.1 * static_cast<double>(g[0] * 7 + g[1]) - 40.0;
  };
  init.real["C"] = [](std::span<const Index> g) {
    return 1.0 / static_cast<double>(g[0] + 2 * g[1] + 3);
  };
  init.real["D"] = [](std::span<const Index> g) {
    return 0.3 * static_cast<double>(g[1]) - 1.7 * static_cast<double>(g[0]);
  };
  init.ints["IB"] = [](std::span<const Index> g) { return g[1] - 3 * g[0]; };
  return init;
}

TEST(NativeBackend, VectorizedKernelsMatchTapeBitForBit) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  // Rows BLOCK-distributed, so every J window is a whole inner loop of
  // exactly its trip count; then CYCLIC(2) on the inner dimension.
  expect_native_matches(vector_source("2", "BLOCK, *"), vector_init(),
                        "BLOCK, *");
  expect_native_matches(vector_source("2, 2", "BLOCK, CYCLIC(2)"),
                        vector_init(), "BLOCK, CYCLIC(2)");
}

TEST(NativeBackend, InnerStepFlipRepacksOrReattaches) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  // The inner step KS takes the values 1, 2, 1: each rebind flips the
  // innermost stride between unit and non-unit, which changes the kernel
  // text, so repack refuses and the next run re-attaches.
  const char* src = R"(PROGRAM FLIP
      INTEGER M
      PARAMETER (M = 6)
      INTEGER N
      PARAMETER (N = 40)
      REAL A(M, N)
      REAL B(M, N)
      INTEGER IT
      INTEGER KS
C$ PROCESSORS P(2)
C$ TEMPLATE T(M, N)
C$ DISTRIBUTE T(BLOCK, *)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
      DO IT = 1, 3
        KS = 2 - MOD(IT, 2)
        FORALL (I = 1:M, J = 1:N:KS) A(I, J) = A(I, J) + B(I, J) * 0.5
      END DO
      END PROGRAM FLIP
)";
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) {
    return 0.25 * static_cast<double>(g[0] * 40 + g[1]);
  };
  const native::JitStats before = native::NativeCache::instance().stats();
  const auto nat = expect_native_matches(src, init, "inner step flip");
  const native::JitStats after = native::NativeCache::instance().stats();
  EXPECT_EQ(nat.plan_misses, 1);
  EXPECT_EQ(nat.plan_rebinds, 2);
  EXPECT_EQ(nat.native_attaches, 3);
  EXPECT_EQ(nat.native_invalidations, 2);
  EXPECT_EQ(nat.native_fallbacks, 0);
  EXPECT_EQ(nat.native_runs, 3);
  // One kernel per stride form, over both native runs.
  EXPECT_LE(after.compiles - before.compiles, 2);
}

// --- NativeCache unit behaviour ----------------------------------------------

TEST(NativeJit, CompilesCachesAndRunsAKernel) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  // A hand-written ABI-conforming kernel: out[i] = 2*in[i] + ds[0] over
  // lp[0] elements.  Exercises the whole compile + dlopen + call path
  // without the lowering layer.
  const std::string src = std::string("extern \"C\" void ") +
                          native::kKernelSymbol +
                          "(const long long* lp, const long long* const* lv,"
                          " void* const* base, const long long* rb,"
                          " const long long* st, const long long* const* tb,"
                          " const double* ds, const long long* is,"
                          " const unsigned char* ls) {\n"
                          "  (void)lv; (void)rb; (void)st; (void)tb;"
                          " (void)is; (void)ls;\n"
                          "  const double* in = (const double*)base[0];\n"
                          "  double* out = (double*)base[1];\n"
                          "  for (long long i = 0; i < lp[0]; ++i)"
                          " out[i] = 2.0 * in[i] + ds[0];\n"
                          "}\n";
  native::NativeCache& cache = native::NativeCache::instance();
  const native::JitStats before = cache.stats();
  const std::string key = "test/affine-2x-plus-ds0";
  int generated = 0;
  auto generate = [&] {
    ++generated;
    return src;
  };
  native::KernelFn fn = cache.get_or_compile(key, generate);
  ASSERT_NE(fn, nullptr);

  double in[4] = {1.0, 2.0, 3.0, 4.0};
  double out[4] = {0, 0, 0, 0};
  long long lp[3] = {4, 0, 1};
  void* base[2] = {in, out};
  double ds[1] = {0.5};
  fn(lp, nullptr, base, nullptr, nullptr, nullptr, ds, nullptr, nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], 2.0 * in[i] + 0.5);

  // Second request with the same key is a pure cache hit: the source is
  // not generated again.
  EXPECT_EQ(cache.get_or_compile(key, generate), fn);
  EXPECT_EQ(generated, 1);
  const native::JitStats after = cache.stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_EQ(after.lowerings, before.lowerings + 1);
  EXPECT_GE(after.cache_hits, before.cache_hits + 1);
  EXPECT_GT(after.compile_ms, before.compile_ms);
}

/// A fresh directory under the system temp dir, named from `tmpl` (which
/// ends in XXXXXX); empty when mkdtemp fails.
std::filesystem::path make_scratch(const std::string& tmpl) {
  std::string path = (std::filesystem::temp_directory_path() / tmpl).string();
  if (::mkdtemp(path.data()) == nullptr) return {};
  return path;
}

/// Runs this test binary again as a child, filtered to `test`, with TMPDIR
/// set to `dir` and each "NAME=value" in `extra` added to, or replacing in,
/// this process's environment.  True when the child exits with status 0.
/// Process-wide JIT state (the scratch directory, the toolchain verdict,
/// the compile counters) starts fresh in the child.
bool run_child(const std::string& test, const std::filesystem::path& dir,
               const std::vector<std::string>& extra) {
  std::vector<std::string> env = {"TMPDIR=" + dir.string()};
  env.insert(env.end(), extra.begin(), extra.end());
  const size_t overrides = env.size();
  for (char** e = environ; *e != nullptr; ++e) {
    bool replaced = false;
    for (size_t k = 0; k < overrides && !replaced; ++k)
      replaced = std::strncmp(*e, env[k].c_str(), env[k].find('=') + 1) == 0;
    if (!replaced) env.emplace_back(*e);
  }
  std::vector<char*> envp;
  for (std::string& e : env) envp.push_back(e.data());
  envp.push_back(nullptr);
  std::string exe = "/proc/self/exe";
  std::string filter = "--gtest_filter=" + test;
  char* argv[] = {exe.data(), filter.data(), nullptr};
  pid_t pid = 0;
  if (::posix_spawn(&pid, argv[0], nullptr, nullptr, argv, envp.data()) != 0)
    return false;
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return false;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

TEST(NativeJit, AwkwardTmpdirCompilesAndLeavesNothing) {
  // The scratch directory is made once per process, so the check runs in
  // a child with TMPDIR set to a directory whose name holds a space and a
  // "$HOME" a shell would expand.  The child compiles and runs kernels;
  // after it exits the directory must be empty again.
  if (std::getenv("F90D_TEST_AWKWARD_TMPDIR") != nullptr) {
    auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", backend_native());
    EXPECT_GT(r.native_runs, 0);
    EXPECT_EQ(r.native_fallbacks, 0);
    EXPECT_LE(harness::max_abs_diff(r), 1e-9);
    return;
  }
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  namespace fs = std::filesystem;
  const fs::path dir = make_scratch("f90d test $HOME-XXXXXX");
  ASSERT_FALSE(dir.empty());
  EXPECT_TRUE(run_child("NativeJit.AwkwardTmpdirCompilesAndLeavesNothing",
                        dir, {"F90D_TEST_AWKWARD_TMPDIR=1"}))
      << "child test failed";

  std::vector<std::string> left;
  for (const fs::directory_entry& e : fs::recursive_directory_iterator(dir))
    left.push_back(e.path().string());
  EXPECT_TRUE(left.empty()) << left.front();
  fs::remove_all(dir);
}

TEST(NativeJit, BrokenToolchainCostsOneKernelAndOneProbe) {
  // The toolchain probe is lazy and its verdict lasts for the process, so
  // each broken compiler runs in a child: one that cannot be started and
  // one that always fails.  The first kernel's failed compile triggers the
  // probe; the failed probe turns the backend off, and the runs fall back
  // to the plan interpreter with identical results and simulated time.
  if (std::getenv("F90D_TEST_BROKEN_TOOLCHAIN") != nullptr) {
    native::NativeCache& cache = native::NativeCache::instance();
    auto invocations = [&] {
      const native::JitStats s = cache.stats();
      return s.compiles + s.failures;
    };
    ASSERT_TRUE(cache.available()) << "nothing has failed yet";
    const long long before = invocations();
    auto nat = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_native(),
                                   charging());
    const long long after = invocations();
    ::setenv("F90D_NATIVE", "0", 1);
    auto off = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_native(),
                                   charging());
    ::unsetenv("F90D_NATIVE");
    expect_same_run(nat, off, 1e-9, "jacobi, broken toolchain");
    EXPECT_EQ(nat.native_runs, 0);
    EXPECT_GE(after - before, 1) << "the first kernel tried to compile";
    EXPECT_LE(after - before, 2) << "one kernel and one probe at most";
    EXPECT_EQ(cache.stats().dlopens, 0);
    EXPECT_FALSE(cache.available());

    auto again = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_native(),
                                     charging());
    expect_same_run(again, off, 1e-9, "jacobi, second run");
    EXPECT_EQ(again.native_runs, 0);
    EXPECT_EQ(invocations(), after) << "a second run starts no compiler";
    return;
  }
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  namespace fs = std::filesystem;
  for (const char* cxx : {"/nonexistent/c++", "/bin/false"}) {
    const fs::path dir = make_scratch("f90d-broken-XXXXXX");
    ASSERT_FALSE(dir.empty());
    EXPECT_TRUE(run_child("NativeJit.BrokenToolchainCostsOneKernelAndOneProbe",
                          dir,
                          {"F90D_TEST_BROKEN_TOOLCHAIN=1",
                           std::string("F90D_NATIVE_CXX=") + cxx}))
        << "child test failed with F90D_NATIVE_CXX=" << cxx;
    // A failed compile keeps its .cpp and .log for diagnosis; the child's
    // scratch holds nothing else.
    for (const fs::directory_entry& e :
         fs::recursive_directory_iterator(dir)) {
      if (!e.is_regular_file()) continue;
      EXPECT_TRUE(e.path().extension() == ".cpp" ||
                  e.path().extension() == ".log")
          << e.path();
    }
    fs::remove_all(dir);
  }
}

TEST(NativeJit, HealthyProcessCompilesOnlyItsPlanKernels) {
  // A fresh process with a working compiler never runs the toolchain
  // probe and compiles no communication code: every compiler invocation
  // is one distinct plan key (one lowering), and nothing fails.
  if (std::getenv("F90D_TEST_FRESH_PROCESS") != nullptr) {
    native::NativeCache& cache = native::NativeCache::instance();
    ASSERT_TRUE(cache.available());
    auto r = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_native(),
                                 charging());
    const native::JitStats s = cache.stats();
    EXPECT_GT(r.native_runs, 0);
    EXPECT_EQ(r.native_fallbacks, 0);
    EXPECT_LE(harness::max_abs_diff(r), 1e-9);
    EXPECT_EQ(s.failures, 0);
    EXPECT_EQ(s.compiles, s.lowerings) << "one invocation per plan key";
    // Jacobi's two FORALLs have one structure each on every processor.
    EXPECT_EQ(s.lowerings, 2);
    return;
  }
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  namespace fs = std::filesystem;
  const fs::path dir = make_scratch("f90d-fresh-XXXXXX");
  ASSERT_FALSE(dir.empty());
  EXPECT_TRUE(run_child("NativeJit.HealthyProcessCompilesOnlyItsPlanKernels",
                        dir, {"F90D_TEST_FRESH_PROCESS=1"}))
      << "child test failed";
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(NativeJit, LowerDeclinesGracefully) {
  // A plan with a non-direct lhs must decline with a reason rather than
  // emit broken source.
  exec::ExecPlan p;
  p.loops.push_back(exec::PlanLoop{"I", 4, 0, 1, {}, {}});
  p.lhs.access = compile::Access::kSlabBuf;
  std::string why;
  EXPECT_FALSE(native::lower_plan(p, &why).has_value());
  EXPECT_FALSE(why.empty());
}


// --- structural kernel key ---------------------------------------------------
// plan_shape() must hold exactly what the Lowerer reads: plans that differ
// only in numbers share a key and a text, every structural difference
// changes both, and the walk's scalar slots are the ones the text uses.

using exec::Ins;
using exec::Op;
using exec::RefPlan;
using exec::Value;

Ins op(Op o, int a = 0) {
  Ins i;
  i.op = o;
  i.a = a;
  return i;
}

Ins cst(Value v) {
  Ins i;
  i.op = Op::kConst;
  i.cst = v;
  return i;
}

Ins scalar(const Value* v) {
  Ins i;
  i.op = Op::kScalar;
  i.scalar = v;
  return i;
}

exec::OffsetTerm stride(long long st) { return exec::OffsetTerm{st, {}}; }

/// A hand-built two-level plan and the storage it points at:
///   B(i,j) = A(i,j) * S1 + I + 0.0 - BCAST * S2
/// with A read through a real pointer, BCAST a broadcast scalar slot, and
/// S1, S2 two runtime scalars of the same kind.  A second broadcast slot
/// (reference 2) is bound but unread.
struct HandPlan {
  std::vector<double> a = std::vector<double>(64, 1.0);
  std::vector<double> b = std::vector<double>(64, 0.0);
  std::vector<long long> ia = std::vector<long long>(64, 1);
  Value s1 = Value::real(2.5);
  Value s2 = Value::real(-1.0);
  exec::Buf bcast;
  exec::Buf bcast2;
  exec::ExecPlan p;

  HandPlan() {
    bcast.scalar = Value::real(4.0);
    bcast2.scalar = Value::real(8.0);
    p.loops.push_back(exec::PlanLoop{"I", 4, 1, 1, {}, {}});
    p.loops.push_back(exec::PlanLoop{"J", 3, 2, 2, {}, {}});
    RefPlan ra;
    ra.access = compile::Access::kDirect;
    ra.data = a.data();
    ra.base = 5;
    ra.terms = {stride(8), stride(1)};
    RefPlan rs;
    rs.access = compile::Access::kScalarSlot;
    rs.buf = &bcast;
    rs.terms = {stride(0), stride(0)};
    RefPlan rs2 = rs;
    rs2.buf = &bcast2;
    p.refs = {ra, rs, rs2};
    p.lhs.access = compile::Access::kDirect;
    p.lhs.data = b.data();
    p.lhs.base = 9;
    p.lhs.terms = {stride(8), stride(1)};
    p.rhs.ins = {op(Op::kRef, 0),          op(Op::kScalar),
                 op(Op::kMul),             op(Op::kVar, 0),
                 op(Op::kAdd),             cst(Value::real(0.0)),
                 op(Op::kAdd),             op(Op::kRef, 1),
                 op(Op::kScalar),          op(Op::kMul),
                 op(Op::kSub)};
    p.rhs.ins[1].scalar = &s1;
    p.rhs.ins[8].scalar = &s2;
  }
  HandPlan(const HandPlan&) = delete;
};

struct KeyAndText {
  native::KernelShape shape;
  std::string text;
  std::vector<native::ScalarBind> lowered_binds;
};

KeyAndText key_and_text(const exec::ExecPlan& p) {
  KeyAndText out;
  native::plan_shape(p, out.shape);
  std::string why;
  std::optional<native::Lowered> low = native::lower_plan(p, &why);
  EXPECT_TRUE(low.has_value()) << why;
  if (low) {
    out.text = low->source;
    out.lowered_binds = low->scalars;
  }
  return out;
}

TEST(NativeKey, NumbersKeepTheKeyAndTheText) {
  // Strides change only at the outer level, or innermost from one
  // non-unit value to another: a unit innermost stride is structural.
  HandPlan base;
  base.p.lhs.terms[1].stride = 2;
  const KeyAndText ref = key_and_text(base.p);
  EXPECT_EQ(ref.shape.binds, ref.lowered_binds);

  HandPlan h;
  h.p.loops[0].count = 7;
  h.p.loops[0].val0 = -3;
  h.p.loops[1].step = 5;
  h.p.refs[0].base = 40;
  h.p.refs[0].terms[0].stride = 17;
  h.p.lhs.base = 0;
  h.p.lhs.terms[0].stride = 1;
  h.p.lhs.terms[1].stride = -3;
  h.p.refs[0].data = h.b.data();
  h.s1.d = 99.0;
  h.s2.d = 0.125;
  h.bcast.scalar.d = -7.0;
  h.p.rhs.ins[7].a = 2;  // the other broadcast slot: same kind, same slot
  const KeyAndText got = key_and_text(h.p);
  EXPECT_EQ(got.shape.key, ref.shape.key);
  EXPECT_EQ(got.text, ref.text);
  EXPECT_EQ(got.shape.binds, got.lowered_binds);
  // Same slots and kinds; only the addresses they read differ.
  ASSERT_EQ(got.shape.binds.size(), ref.shape.binds.size());
  for (size_t k = 0; k < got.shape.binds.size(); ++k) {
    EXPECT_EQ(got.shape.binds[k].slot, ref.shape.binds[k].slot);
    EXPECT_EQ(got.shape.binds[k].kind, ref.shape.binds[k].kind);
  }
}

TEST(NativeKey, EveryStructuralFieldChangesKeyAndText) {
  HandPlan base;
  const KeyAndText ref = key_and_text(base.p);
  const std::map<std::string, void (*)(HandPlan&)> flips = {
      {"enumerated level",
       [](HandPlan& h) { h.p.loops[0].values = {1, 2, 4, 8}; }},
      {"table term",
       [](HandPlan& h) { h.p.refs[0].terms[1].table = {0, 1, 3}; }},
      {"ref class",
       [](HandPlan& h) {
         h.p.refs[0].ty = ast::BaseType::kInteger;
         h.p.refs[0].data = h.ia.data();
       }},
      {"mask",
       [](HandPlan& h) {
         h.p.mask.ins = {op(Op::kRef, 0), cst(Value::real(0.0)),
                         op(Op::kGt)};
       }},
      {"scalar kind", [](HandPlan& h) { h.s1 = Value::integer(3); }},
      {"one scalar used twice",
       [](HandPlan& h) { h.p.rhs.ins[8].scalar = &h.s1; }},
      {"negative zero constant",
       [](HandPlan& h) { h.p.rhs.ins[5].cst = Value::real(-0.0); }},
      {"unit innermost stride",
       [](HandPlan& h) { h.p.lhs.terms[1].stride = 2; }},
  };
  for (const auto& [what, flip] : flips) {
    HandPlan h;
    flip(h);
    const KeyAndText got = key_and_text(h.p);
    EXPECT_NE(got.shape.key, ref.shape.key) << what;
    EXPECT_NE(got.text, ref.text) << what;
    EXPECT_EQ(got.shape.binds, got.lowered_binds) << what;
  }
}

TEST(NativeKey, UnitInnermostStridePrintsTheBareCounter) {
  // Only a stride equal to 1 at the innermost level is baked in; the
  // outer level, other strides and tables still read their arguments.
  // References: 0 A {8, 1}, 3 {1, 2}, 4 {8, -1}, 5 {8, table}, lhs 6
  // {8, 1}; the (ref, level) argument index is 2 * ref + level.
  HandPlan h;
  RefPlan r = h.p.refs[0];
  r.terms = {stride(1), stride(2)};
  h.p.refs.push_back(r);
  r.terms = {stride(8), stride(-1)};
  h.p.refs.push_back(r);
  r.terms = {stride(8), exec::OffsetTerm{0, {0, 5, 9}}};
  h.p.refs.push_back(r);
  for (int k = 3; k <= 5; ++k) {
    h.p.rhs.ins.push_back(op(Op::kRef, k));
    h.p.rhs.ins.push_back(op(Op::kAdd));
  }
  const std::string text = key_and_text(h.p).text;
  auto has = [&](const std::string& line) {
    return text.find(line) != std::string::npos;
  };
  EXPECT_TRUE(has("q0_1 = q0_0 + c1;")) << text;
  EXPECT_TRUE(has("q6_1 = q6_0 + c1;")) << text;
  EXPECT_FALSE(has("st[1]")) << text;
  EXPECT_FALSE(has("st[13]")) << text;
  EXPECT_TRUE(has("q0_0 = rb[0] + st[0] * c0;")) << text;
  EXPECT_TRUE(has("q3_0 = rb[3] + st[6] * c0;")) << text;
  EXPECT_TRUE(has("q3_1 = q3_0 + st[7] * c1;")) << text;
  EXPECT_TRUE(has("q4_1 = q4_0 + st[9] * c1;")) << text;
  EXPECT_TRUE(has("q5_1 = q5_0 + tb[11][c1];")) << text;
}

TEST(NativeKey, DeclinedPlansStillGetKeys) {
  // The walk never declines; the cache memoizes the Lowerer's decline
  // under the key.  Non-direct lhs vs direct lhs must not share a key.
  HandPlan h;
  native::KernelShape ok;
  native::plan_shape(h.p, ok);
  h.p.lhs.access = compile::Access::kSlabBuf;
  native::KernelShape slab;
  native::plan_shape(h.p, slab);
  EXPECT_NE(ok.key, slab.key);
  EXPECT_FALSE(native::lower_plan(h.p, nullptr).has_value());
}

/// A random plan.  `structure` draws the skeleton from a small space, so
/// skeletons repeat across draws; `noise` draws the numbers and perturbs
/// the skeleton — enumerated levels, offset tables on scalar slots, stray
/// operands on fixed-arity ops, an aliased scalar, a retargeted reference.
/// Some perturbations change the kernel text and some do not; the property
/// below holds either way.  Scalars and broadcast slots live in `values`
/// and `bufs`, so every plan reads distinct addresses.
exec::ExecPlan random_plan(std::mt19937& structure, std::mt19937& noise,
                           std::deque<Value>& values,
                           std::deque<exec::Buf>& bufs) {
  auto pick = [&](int n) {
    return static_cast<int>(structure() % static_cast<unsigned>(n));
  };
  auto num = [&](int lo, int hi) {
    return lo + static_cast<int>(noise() % static_cast<unsigned>(hi - lo + 1));
  };
  auto maybe = [&](int one_in) { return num(1, one_in) == 1; };
  exec::ExecPlan p;
  const int nv = 1 + pick(2);
  for (int l = 0; l < nv; ++l) {
    exec::PlanLoop loop{"V", num(1, 4), num(-2, 2), num(1, 3), {}, {}};
    if (maybe(3))
      for (Index k = 0; k < loop.count; ++k) loop.values.push_back(num(0, 9));
    p.loops.push_back(loop);
  }
  auto make_terms = [&](RefPlan& r, bool table) {
    for (int l = 0; l < nv; ++l) {
      exec::OffsetTerm t = stride(num(0, 9));
      if (table)
        for (Index k = 0; k < p.loops[static_cast<size_t>(l)].count; ++k)
          t.table.push_back(num(0, 9));
      r.terms.push_back(t);
    }
  };
  const int nr = pick(3);
  for (int r = 0; r < nr; ++r) {
    RefPlan rp;
    switch (pick(5)) {
      case 0: break;  // REAL storage
      case 1: rp.access = compile::Access::kSlabBuf; break;
      case 2: rp.ty = ast::BaseType::kInteger; break;
      case 3: rp.ty = ast::BaseType::kLogical; break;
      default:
        rp.access = compile::Access::kScalarSlot;
        bufs.emplace_back();
        bufs.back().scalar =
            pick(2) == 0 ? Value::real(num(0, 5)) : Value::integer(num(0, 5));
        rp.buf = &bufs.back();
        break;
    }
    rp.base = num(0, 20);
    make_terms(rp, rp.access == compile::Access::kScalarSlot ? maybe(2)
                                                             : pick(4) == 0);
    p.refs.push_back(rp);
  }
  p.lhs.ty = pick(2) == 0 ? ast::BaseType::kReal : ast::BaseType::kInteger;
  p.lhs.base = num(0, 20);
  make_terms(p.lhs, pick(4) == 0);
  // Two scalar variables; the skeleton decides their kinds and which one
  // each load reads, the noise sometimes makes them one variable.
  values.push_back(pick(2) == 0 ? Value::real(num(-3, 3) * 0.5)
                                : Value::integer(num(-3, 3)));
  const Value* sv0 = &values.back();
  values.push_back(pick(2) == 0 ? Value::real(num(-3, 3) * 0.5)
                                : Value::integer(num(-3, 3)));
  const Value* sv1 = maybe(4) ? sv0 : &values.back();
  auto leaf = [&](exec::Tape& t) {
    switch (pick(4)) {
      case 0:
        if (nr > 0) {
          t.ins.push_back(op(Op::kRef, maybe(3) ? num(0, nr - 1) : pick(nr)));
          break;
        }
        [[fallthrough]];
      case 1: t.ins.push_back(op(Op::kVar, pick(nv))); break;
      case 2: t.ins.push_back(scalar(pick(2) == 0 ? sv0 : sv1)); break;
      default: {
        static const double kConsts[] = {0.0, -0.0, 1.5};
        t.ins.push_back(pick(4) == 0 ? cst(Value::integer(2))
                                     : cst(Value::real(kConsts[pick(3)])));
        break;
      }
    }
  };
  auto fixed = [&](Op o) { return op(o, maybe(3) ? num(1, 3) : 0); };
  auto expr = [&](exec::Tape& t) {
    leaf(t);
    const int n_ops = pick(3);
    for (int k = 0; k < n_ops; ++k) {
      switch (pick(4)) {
        case 0: t.ins.push_back(fixed(Op::kNeg)); break;
        case 1: leaf(t); t.ins.push_back(fixed(Op::kAdd)); break;
        case 2: leaf(t); t.ins.push_back(fixed(Op::kMul)); break;
        default: leaf(t); t.ins.push_back(op(Op::kMax, 2)); break;
      }
    }
  };
  if (pick(3) == 0) {
    expr(p.mask);
    leaf(p.mask);
    p.mask.ins.push_back(fixed(Op::kGt));
  }
  expr(p.rhs);
  return p;
}

TEST(NativeKey, EqualKeysIffEqualTexts) {
  // Property: over a few hundred random plans, two plans share a key
  // exactly when their lowered texts are equal — the key never merges two
  // kernels and never splits one kernel into two compiles.  Plans the
  // Lowerer declines must share keys only with other declines.
  std::mt19937 noise(20240517);
  std::deque<Value> values;
  std::deque<exec::Buf> bufs;
  struct Sample {
    std::string key;
    std::optional<std::string> text;
  };
  std::vector<Sample> samples;
  for (int i = 0; i < 400; ++i) {
    // Few distinct skeleton seeds: skeletons repeat with fresh noise.
    std::mt19937 structure(static_cast<unsigned>(i % 60));
    const exec::ExecPlan p = random_plan(structure, noise, values, bufs);
    native::KernelShape shape;
    native::plan_shape(p, shape);
    std::optional<native::Lowered> low = native::lower_plan(p, nullptr);
    if (low) {
      EXPECT_EQ(shape.binds, low->scalars) << "plan " << i;
      // Kernels are header-free; a header would dominate their compile.
      EXPECT_EQ(low->source.find("#include"), std::string::npos)
          << "plan " << i;
    }
    samples.push_back(
        {shape.key, low ? std::optional<std::string>(low->source)
                        : std::nullopt});
  }
  int lowered = 0;
  int shared = 0;
  for (size_t i = 0; i < samples.size(); ++i) {
    lowered += samples[i].text.has_value() ? 1 : 0;
    for (size_t j = i + 1; j < samples.size(); ++j) {
      const bool same_key = samples[i].key == samples[j].key;
      if (same_key) ++shared;
      if (samples[i].text && samples[j].text) {
        EXPECT_EQ(same_key, *samples[i].text == *samples[j].text)
            << "plans " << i << " and " << j;
      } else if (same_key) {
        EXPECT_EQ(samples[i].text.has_value(), samples[j].text.has_value())
            << "plans " << i << " and " << j;
      }
    }
  }
  // The sample must actually exercise both directions.
  EXPECT_GT(lowered, 200);
  EXPECT_GT(shared, 100);
}

TEST(NativeBackend, SecondGaussRunLowersAndCompilesNothing) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  // Gauss re-binds each statement's one cache entry at every elimination
  // step; the entry's attachment keeps its kernel and re-packs its
  // arguments, so a whole run attaches once per statement.  The
  // structural key finds the kernels the first run compiled without
  // printing a line of source.
  native::NativeCache& cache = native::NativeCache::instance();
  harness::run_gauss(16, 4, "CYCLIC", backend_native());
  const native::JitStats before = cache.stats();
  auto r = harness::run_gauss(16, 4, "CYCLIC", backend_native());
  const native::JitStats after = cache.stats();
  EXPECT_GT(r.native_runs, r.native_attaches);
  EXPECT_GE(r.native_attaches, 1);
  EXPECT_LE(r.native_attaches, r.plan_misses);
  EXPECT_EQ(after.lowerings, before.lowerings);
  EXPECT_EQ(after.compiles, before.compiles);
  EXPECT_GE(after.cache_hits - before.cache_hits, r.native_attaches);
}

}  // namespace
}  // namespace f90d
