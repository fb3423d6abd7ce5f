// Interpreter feature coverage beyond the headline workloads: compiled
// reductions, whole-array intrinsic assignments, CYCLIC distributions,
// masks, PRINT, and skeleton-mode cost fidelity.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/gauss_hand.hpp"
#include "apps/sources.hpp"
#include "interp/interp.hpp"
#include "machine/topology.hpp"

namespace f90d {
namespace {

using interp::Index;

machine::SimMachine ideal(int p) {
  return machine::SimMachine(p, machine::CostModel::ideal(),
                             machine::make_hypercube());
}

std::string prelude(const char* dist) {
  return strformat(R"(PROGRAM FEAT
      INTEGER N
      PARAMETER (N = 24)
      REAL A(N)
      REAL B(N)
      REAL S
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
)",
                   dist);
}

interp::ProgramResult run(const std::string& src, int p = 4) {
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = ideal(p);
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) {
    return static_cast<double>((g[0] * 5 + 2) % 9);
  };
  return interp::run_compiled(compiled, m, init);
}

TEST(InterpFeatures, CompiledSumAndMaxval) {
  auto r = run(prelude("BLOCK") + R"(      S = SUM(B(1:N)) + MAXVAL(B)
      END PROGRAM FEAT
)");
  double sum = 0, mx = -1e300;
  for (int i = 0; i < 24; ++i) {
    const double v = (i * 5 + 2) % 9;
    sum += v;
    mx = std::max(mx, v);
  }
  EXPECT_DOUBLE_EQ(r.scalars.at("S"), sum + mx);
}

TEST(InterpFeatures, CompiledDotProduct) {
  auto r = run(prelude("BLOCK") + R"(      S = DOT_PRODUCT(B(1:N), B(1:N))
      END PROGRAM FEAT
)");
  double s = 0;
  for (int i = 0; i < 24; ++i) {
    const double v = (i * 5 + 2) % 9;
    s += v * v;
  }
  EXPECT_DOUBLE_EQ(r.scalars.at("S"), s);
}

TEST(InterpFeatures, CompiledMaxlocReturnsIndexValue) {
  auto r = run(prelude("BLOCK") + R"(      K = MAXLOC(B(1:N))
      END PROGRAM FEAT
)");
  int best = 0;
  double mx = -1;
  for (int i = 0; i < 24; ++i) {
    const double v = (i * 5 + 2) % 9;
    if (v > mx) {
      mx = v;
      best = i + 1;  // 1-based Fortran index
    }
  }
  EXPECT_EQ(static_cast<int>(r.scalars.at("K")), best);
}

TEST(InterpFeatures, CyclicDistributionEndToEnd) {
  // The same forall, CYCLIC instead of BLOCK: shift becomes temporary.
  const std::string src = prelude("CYCLIC") + R"(      FORALL (I = 1:N-2) A(I) = B(I+2)
      END PROGRAM FEAT
)";
  auto compiled = compile::compile_source(src);
  EXPECT_EQ(compiled.program.action_histogram.count("overlap_shift"), 0u);
  EXPECT_GE(compiled.program.action_histogram.count("temporary_shift") +
                compiled.program.action_histogram.count("precomp_read"),
            1u);
  machine::SimMachine m = ideal(4);
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 3.0; };
  auto r = interp::run_compiled(compiled, m, init);
  const auto& a = r.real_arrays.at("A");
  for (int i = 0; i < 22; ++i)
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)], (i + 2) * 3.0);
}

TEST(InterpFeatures, MismatchedBlockCyclicMappingsCommunicate) {
  // A on CYCLIC(2), B on CYCLIC(3), same 1-D grid: the (i, i) reference is
  // NOT local — the interleavings own different element sets, so the
  // compiler must emit communication and the copy must still be exact.
  const std::string src = R"(PROGRAM MIX
      INTEGER N
      PARAMETER (N = 24)
      REAL A(N)
      REAL B(N)
C$ PROCESSORS P(4)
C$ TEMPLATE T1(N)
C$ TEMPLATE T2(N)
C$ DISTRIBUTE T1(CYCLIC(2))
C$ DISTRIBUTE T2(CYCLIC(3))
C$ ALIGN A(I) WITH T1(I)
C$ ALIGN B(I) WITH T2(I)
      FORALL (I = 1:N) A(I) = B(I)
      END PROGRAM MIX
)";
  auto compiled = compile::compile_source(src);
  EXPECT_FALSE(compiled.program.action_histogram.empty())
      << "mismatched CYCLIC(k) mappings misclassified as local:\n"
      << compiled.listing;
  machine::SimMachine m = ideal(4);
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return 10.0 + g[0]; };
  auto r = interp::run_compiled(compiled, m, init);
  const auto& a = r.real_arrays.at("A");
  for (int i = 0; i < 24; ++i)
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)], 10.0 + i) << "A(" << i << ")";
}

TEST(InterpFeatures, MaskedForall) {
  auto r = run(prelude("BLOCK") +
               R"(      FORALL (I = 1:N, B(I) .GT. 4.0) A(I) = 1.0
      END PROGRAM FEAT
)");
  const auto& a = r.real_arrays.at("A");
  for (int i = 0; i < 24; ++i) {
    const double b = (i * 5 + 2) % 9;
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)], b > 4.0 ? 1.0 : 0.0);
  }
}

TEST(InterpFeatures, CompiledCshiftIntrinsic) {
  auto r = run(prelude("BLOCK") + R"(      A = CSHIFT(B, 3)
      END PROGRAM FEAT
)");
  const auto& a = r.real_arrays.at("A");
  for (int i = 0; i < 24; ++i)
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)],
                     static_cast<double>(((i + 3) % 24) * 5 % 9 >= 0
                                             ? ((i + 3) % 24 * 5 + 2) % 9
                                             : 0));
}

TEST(InterpFeatures, IntegerShiftsAndTransposeRunInTheirType) {
  const std::string src = R"(PROGRAM ISH
      INTEGER N
      PARAMETER (N = 6)
      INTEGER A(N, N)
      INTEGER B(N, N)
      INTEGER C(N, N)
      INTEGER D(N, N)
C$ PROCESSORS P(2, 2)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, BLOCK)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ ALIGN C(I, J) WITH T(I, J)
C$ ALIGN D(I, J) WITH T(I, J)
      A = CSHIFT(B, 2)
      C = EOSHIFT(B, -1, 7, 2)
      D = TRANSPOSE(B)
      END PROGRAM ISH
)";
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = ideal(4);
  interp::Init init;
  // Beyond 2^53, so a detour through double would show.
  const long long big = (1LL << 60) + 1;
  init.ints["B"] = [big](std::span<const Index> g) {
    return big + 100 * g[0] + g[1];
  };
  auto r = interp::run_compiled(compiled, m, init);
  const auto& a = r.int_arrays.at("A");
  const auto& c = r.int_arrays.at("C");
  const auto& d = r.int_arrays.at("D");
  auto b = [big](int i, int j) { return big + 100 * i + j; };
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j) {
      const size_t k = static_cast<size_t>(i * 6 + j);
      EXPECT_EQ(a[k], b((i + 2) % 6, j)) << i << "," << j;
      EXPECT_EQ(c[k], j == 0 ? 7 : b(i, j - 1)) << i << "," << j;
      EXPECT_EQ(d[k], b(j, i)) << i << "," << j;
    }
}

TEST(InterpFeatures, PrintOfADistributedElementOnEveryBackend) {
  // A(7) and B(20) live on processors 1 and 3: the PRINT reads them through
  // scalar temporaries, broadcast like `X = A(7)`.
  const std::string src = prelude("BLOCK") + R"(      FORALL (I = 1:N) A(I) = I
      PRINT *, A(7), B(20) + 1.0, K
      END PROGRAM FEAT
)";
  const auto compiled = compile::compile_source(src);
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) {
    return static_cast<double>((g[0] * 5 + 2) % 9);
  };
  for (const char* backend : {"tree", "plan", "native"}) {
    interp::RunOptions ro;
    ro.exec_plans = std::string(backend) != "tree";
    ro.native_backend = std::string(backend) == "native";
    machine::SimMachine m = ideal(4);
    const auto r = interp::run_compiled(compiled, m, init, ro);
    ASSERT_EQ(r.printed.size(), 1u) << backend;
    EXPECT_EQ(r.printed[0], " 7 8 0") << backend;
  }
}

TEST(InterpFeatures, CompiledMatmulIntrinsic) {
  const std::string src = R"(PROGRAM MM
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N, N)
      REAL B(N, N)
      REAL C(N, N)
C$ PROCESSORS P(2, 2)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, BLOCK)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ ALIGN C(I, J) WITH T(I, J)
      C = MATMUL(A, B)
      END PROGRAM MM
)";
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = ideal(4);
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return static_cast<double>((g[0] * 2 + g[1]) % 5);
  };
  init.real["B"] = [](std::span<const Index> g) {
    return static_cast<double>((g[0] + 3 * g[1]) % 7);
  };
  auto r = interp::run_compiled(compiled, m, init);
  const auto& c = r.real_arrays.at("C");
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      double s = 0;
      for (int k = 0; k < 8; ++k)
        s += ((i * 2 + k) % 5) * ((k + 3 * j) % 7);
      EXPECT_DOUBLE_EQ(c[static_cast<size_t>(i * 8 + j)], s) << i << "," << j;
    }
}

TEST(InterpFeatures, IfAndPrintAndSeqDo) {
  auto r = run(prelude("BLOCK") + R"(      S = 0.0
      DO K = 1, 4
        IF (K .GT. 2) THEN
          S = S + K
        ELSE
          S = S - 1.0
        END IF
      END DO
      PRINT *, S
      END PROGRAM FEAT
)");
  EXPECT_DOUBLE_EQ(r.scalars.at("S"), -2.0 + 3 + 4);
  ASSERT_EQ(r.printed.size(), 1u);
  EXPECT_NE(r.printed[0].find("5"), std::string::npos);
}

TEST(InterpFeatures, SkeletonModeMatchesMessageStructure) {
  // Skeleton and full execution of the same GE must exchange the *same*
  // messages (cost fidelity), even though skeleton skips the arithmetic.
  const int n = 32, p = 4;
  auto compiled = compile::compile_source(apps::gauss_source(n, p));
  interp::Init init;
  init.real["A"] = [n](std::span<const Index> g) {
    // Row-permuted diagonally dominant matrix: non-singular, and the pivot
    // differs from row k so the swap path runs in the full execution.
    return apps::gauss_matrix_entry(n, (g[0] + 5) % n, g[1]);
  };
  machine::SimMachine m1(p, machine::CostModel::ipsc860(),
                         machine::make_hypercube());
  interp::RunOptions full;
  auto rf = interp::run_compiled(compiled, m1, init, full);
  machine::SimMachine m2(p, machine::CostModel::ipsc860(),
                         machine::make_hypercube());
  interp::RunOptions skel;
  skel.skeleton = true;
  auto rs = interp::run_compiled(compiled, m2, init, skel);
  EXPECT_EQ(rf.machine.total_messages(), rs.machine.total_messages());
  EXPECT_EQ(rf.machine.total_bytes(), rs.machine.total_bytes());
  // Virtual times agree to within the arithmetic-free parts.
  EXPECT_NEAR(rf.machine.exec_time, rs.machine.exec_time,
              rf.machine.exec_time * 0.05);
}

TEST(InterpFeatures, MachineGridMismatchRejected) {
  auto compiled = compile::compile_source(apps::gauss_source(16, 4));
  machine::SimMachine m = ideal(8);
  EXPECT_THROW(interp::run_compiled(compiled, m, {}), Error);
}

TEST(InterpFeatures, GridOverrideCompilesForAnyMachineSize) {
  // PROCESSORS P(4) in the source, overridden to 2 at compile time —
  // the Table-4 sweep mechanism.
  auto compiled =
      compile::compile_source(apps::gauss_source(16, 4), {2});
  machine::SimMachine m = ideal(2);
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return apps::gauss_matrix_entry(16, g[0], g[1]);
  };
  auto r = interp::run_compiled(compiled, m, init);
  EXPECT_FALSE(r.real_arrays.at("A").empty());
}

}  // namespace
}  // namespace f90d
