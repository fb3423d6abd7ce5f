// Differential fuzzing: ~200 randomly generated (but fixed-seed) 1-D
// programs, each run through the simulated SPMD machine and diffed
// bit-for-bit against a sequential oracle, and across execution backends
// (tree walk vs execution plans vs native JIT).  Programs mix affine
// stencils, gathers through indirection arrays, permutation scatters and
// zero-trip loops over BLOCK / CYCLIC(k) / INDIRECT(MAP) distributions on
// 1..4 processors.
//
// Reproduce a failure with the printed program index and seed:
//   F90D_FUZZ_SEED=<seed> ctest -R FuzzDifferential
// F90D_FUZZ_COUNT overrides the program count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <sstream>

#include "harness.hpp"

namespace f90d {
namespace {

using interp::Index;

// --- random program model ----------------------------------------------------

struct Term {
  enum Kind { kArrShift, kArrU, kArrV, kConst, kIterVar, kStepVar } kind =
      kConst;
  int arr = 0;       ///< 0=A 1=B 2=C
  long long c = 0;   ///< kArrShift subscript offset
  double cval = 0;   ///< kConst value
};

struct FuzzStmt {
  bool scatter = false;  ///< lhs subscripted through the permutation U
  int lhs = 0;
  Term t1, t2;
  char op = '+';  ///< + - *
  Index lo = 1, hi = 0;
};

struct FuzzProg {
  int n = 0, p = 0, steps = 0;
  std::string dist;
  std::vector<FuzzStmt> stmts;
  std::vector<long long> u;    ///< permutation of 1..n (scatter destinations)
  std::vector<long long> v;    ///< arbitrary 1-based gather indices
  std::vector<long long> map;  ///< 1-based INDIRECT owners
};

/// All randomness goes through `rng() % m` (not std::uniform_int_distribution,
/// whose mapping is implementation-defined) so a seed reproduces the same
/// programs on every platform.
FuzzProg gen_prog(std::mt19937& rng) {
  auto pick = [&](int m) { return static_cast<int>(rng() % static_cast<unsigned>(m)); };
  FuzzProg pr;
  pr.n = 8 + pick(17);
  pr.p = 1 + pick(4);
  pr.steps = 2 + pick(3);
  static const char* kDists[] = {"BLOCK",     "BLOCK",         "CYCLIC",
                                 "CYCLIC(2)", "CYCLIC(3)",     "INDIRECT(MAP)",
                                 "INDIRECT(MAP)"};
  pr.dist = kDists[pick(7)];
  pr.u.resize(static_cast<size_t>(pr.n));
  for (int i = 0; i < pr.n; ++i) pr.u[static_cast<size_t>(i)] = i + 1;
  for (int i = pr.n - 1; i > 0; --i)
    std::swap(pr.u[static_cast<size_t>(i)],
              pr.u[static_cast<size_t>(pick(i + 1))]);
  for (int i = 0; i < pr.n; ++i) {
    pr.v.push_back(1 + pick(pr.n));
    pr.map.push_back(1 + pick(pr.p));
  }

  const int ns = 1 + pick(3);
  for (int s = 0; s < ns; ++s) {
    FuzzStmt st;
    st.scatter = pick(4) == 0;
    st.lhs = pick(3);
    // The lhs array may appear on the rhs only at the exact iteration index
    // (no cross-element read-after-write hazards), and never in a scatter
    // statement (whose writes are deferred to the post-action executor).
    auto term = [&]() -> Term {
      Term t;
      switch (pick(6)) {
        case 0:
        case 1:
          t.kind = Term::kArrShift;
          t.arr = pick(3);
          t.c = pick(5) - 2;
          if (t.arr == st.lhs) {
            if (st.scatter)
              t.arr = (t.arr + 1) % 3;
            else
              t.c = 0;
          }
          break;
        case 2:
          t.kind = Term::kArrU;
          t.arr = pick(3);
          if (t.arr == st.lhs) t.arr = (t.arr + 1) % 3;
          break;
        case 3:
          t.kind = Term::kArrV;
          t.arr = pick(3);
          if (t.arr == st.lhs) t.arr = (t.arr + 1) % 3;
          break;
        case 4:
          t.kind = Term::kConst;
          t.cval = (pick(7) + 1) * 0.25;
          break;
        default:
          t.kind = pick(2) == 0 ? Term::kIterVar : Term::kStepVar;
          break;
      }
      return t;
    };
    st.t1 = term();
    st.t2 = term();
    st.op = "+-*"[pick(3)];
    st.lo = 1;
    st.hi = pr.n;
    for (const Term* t : {&st.t1, &st.t2}) {
      if (t->kind != Term::kArrShift) continue;
      st.lo = std::max<Index>(st.lo, 1 - t->c);
      st.hi = std::min<Index>(st.hi, pr.n - t->c);
    }
    if (pick(20) == 0) {  // deliberate zero-trip nest
      st.lo = 2;
      st.hi = 1;
    }
    pr.stmts.push_back(st);
  }
  return pr;
}

// --- rendering ---------------------------------------------------------------

std::string render_term(const Term& t) {
  const char* nm = t.arr == 0 ? "A" : t.arr == 1 ? "B" : "C";
  std::ostringstream os;
  switch (t.kind) {
    case Term::kArrShift:
      os << nm << "(I";
      if (t.c > 0) os << "+" << t.c;
      if (t.c < 0) os << "-" << -t.c;
      os << ")";
      break;
    case Term::kArrU: os << nm << "(U(I))"; break;
    case Term::kArrV: os << nm << "(V(I))"; break;
    case Term::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", t.cval);
      os << buf;
      break;
    }
    case Term::kIterVar: os << "I"; break;
    case Term::kStepVar: os << "IT"; break;
  }
  return os.str();
}

std::string render_prog(const FuzzProg& pr) {
  std::ostringstream os;
  os << "PROGRAM FZ\n"
     << "      INTEGER N\n"
     << "      PARAMETER (N = " << pr.n << ")\n"
     << "      REAL A(N)\n      REAL B(N)\n      REAL C(N)\n"
     << "      INTEGER U(N)\n      INTEGER V(N)\n      INTEGER MAP(N)\n"
     << "      INTEGER IT\n"
     << "C$ PROCESSORS P(" << pr.p << ")\n"
     << "C$ TEMPLATE T(N)\n"
     << "C$ DISTRIBUTE T(" << pr.dist << ")\n"
     << "C$ ALIGN A(I) WITH T(I)\n"
     << "C$ ALIGN B(I) WITH T(I)\n"
     << "C$ ALIGN C(I) WITH T(I)\n"
     << "      DO IT = 1, " << pr.steps << "\n";
  for (const FuzzStmt& st : pr.stmts) {
    const char* nm = st.lhs == 0 ? "A" : st.lhs == 1 ? "B" : "C";
    os << "        FORALL (I = " << st.lo << ":" << st.hi << ") " << nm
       << (st.scatter ? "(U(I)) = " : "(I) = ") << render_term(st.t1) << " "
       << st.op << " " << render_term(st.t2) << "\n";
  }
  os << "      END DO\n      END PROGRAM FZ\n";
  return os.str();
}

// --- sequential oracle -------------------------------------------------------

double init_a(Index i0) { return i0 * 0.5 + 1.0; }
double init_b(Index i0) { return i0 * 0.25 + 2.0; }
double init_c(Index i0) { return (i0 % 5) * 1.5; }

struct Arrays {
  std::vector<double> a, b, c;
  std::vector<double>& of(int k) { return k == 0 ? a : k == 1 ? b : c; }
};

Arrays oracle_run(const FuzzProg& pr) {
  Arrays ar;
  for (Index i = 0; i < pr.n; ++i) {
    ar.a.push_back(init_a(i));
    ar.b.push_back(init_b(i));
    ar.c.push_back(init_c(i));
  }
  for (int it = 1; it <= pr.steps; ++it) {
    for (const FuzzStmt& st : pr.stmts) {
      auto term = [&](const Term& t, Index i) -> double {
        switch (t.kind) {
          case Term::kArrShift:
            return ar.of(t.arr)[static_cast<size_t>(i + t.c - 1)];
          case Term::kArrU:
            return ar.of(t.arr)[static_cast<size_t>(
                pr.u[static_cast<size_t>(i - 1)] - 1)];
          case Term::kArrV:
            return ar.of(t.arr)[static_cast<size_t>(
                pr.v[static_cast<size_t>(i - 1)] - 1)];
          case Term::kConst: return t.cval;
          case Term::kIterVar: return static_cast<double>(i);
          case Term::kStepVar: return static_cast<double>(it);
        }
        return 0;
      };
      auto ev = [&](Index i) {
        const double x = term(st.t1, i), y = term(st.t2, i);
        return st.op == '+' ? x + y : st.op == '-' ? x - y : x * y;
      };
      if (st.scatter) {
        // Deferred writes, like the executor: all reads precede all writes.
        // U is a permutation, so the apply order cannot matter.
        std::vector<std::pair<size_t, double>> writes;
        for (Index i = st.lo; i <= st.hi; ++i)
          writes.emplace_back(
              static_cast<size_t>(pr.u[static_cast<size_t>(i - 1)] - 1),
              ev(i));
        for (const auto& [d, val] : writes) ar.of(st.lhs)[d] = val;
      } else {
        for (Index i = st.lo; i <= st.hi; ++i)
          ar.of(st.lhs)[static_cast<size_t>(i - 1)] = ev(i);
      }
    }
  }
  return ar;
}

// --- simulated run -----------------------------------------------------------

struct SimArrays {
  Arrays ar;
  double sim_time = 0;
};

SimArrays sim_run(const FuzzProg& pr, const interp::RunOptions& ro) {
  auto compiled = compile::compile_source(render_prog(pr));
  // The iPSC/860 model charges every flop and message, so the simulated
  // time comparisons below check the charging, not 0 s against 0 s.
  machine::SimMachine m(pr.p, machine::CostModel::ipsc860(),
                        machine::make_hypercube());
  interp::Init init;
  init.ints["U"] = [&pr](std::span<const Index> g) {
    return pr.u[static_cast<size_t>(g[0])];
  };
  init.ints["V"] = [&pr](std::span<const Index> g) {
    return pr.v[static_cast<size_t>(g[0])];
  };
  init.ints["MAP"] = [&pr](std::span<const Index> g) {
    return pr.map[static_cast<size_t>(g[0])];
  };
  init.real["A"] = [](std::span<const Index> g) { return init_a(g[0]); };
  init.real["B"] = [](std::span<const Index> g) { return init_b(g[0]); };
  init.real["C"] = [](std::span<const Index> g) { return init_c(g[0]); };
  auto r = interp::run_compiled(compiled, m, init, ro);
  SimArrays out;
  out.ar.a = r.real_arrays.at("A");
  out.ar.b = r.real_arrays.at("B");
  out.ar.c = r.real_arrays.at("C");
  out.sim_time = r.machine.exec_time;
  return out;
}

/// Exact elementwise equality across all three arrays.
bool same_arrays(const Arrays& x, const Arrays& y, std::string* why) {
  const char* nms = "ABC";
  for (int k = 0; k < 3; ++k) {
    const auto& xv = const_cast<Arrays&>(x).of(k);
    const auto& yv = const_cast<Arrays&>(y).of(k);
    if (xv.size() != yv.size()) {
      *why = std::string(1, nms[k]) + ": size mismatch";
      return false;
    }
    for (size_t i = 0; i < xv.size(); ++i)
      if (xv[i] != yv[i]) {
        std::ostringstream os;
        os << nms[k] << "(" << i + 1 << "): " << xv[i] << " vs " << yv[i];
        *why = os.str();
        return false;
      }
  }
  return true;
}

TEST(FuzzDifferential, RandomProgramsAgreeAcrossBackendsAndOracle) {
  unsigned seed = 0xF90D;
  if (const char* s = std::getenv("F90D_FUZZ_SEED"))
    seed = static_cast<unsigned>(std::strtoul(s, nullptr, 0));
  int count = 200;
  if (const char* s = std::getenv("F90D_FUZZ_COUNT"))
    count = std::atoi(s);

  std::mt19937 rng(seed);
  // Summed, not checked per program: a zero-trip FORALL costs 0 s anywhere.
  double total_sim_time = 0;
  for (int k = 0; k < count; ++k) {
    const FuzzProg pr = gen_prog(rng);
    const Arrays want = oracle_run(pr);
    std::string why;

    SimArrays plan = sim_run(pr, {});
    EXPECT_TRUE(same_arrays(plan.ar, want, &why))
        << "plan vs oracle: " << why;

    interp::RunOptions tro;
    tro.exec_plans = false;
    SimArrays tree = sim_run(pr, tro);
    EXPECT_TRUE(same_arrays(tree.ar, plan.ar, &why))
        << "tree vs plan: " << why;
    EXPECT_EQ(tree.sim_time, plan.sim_time);
    total_sim_time += plan.sim_time;

    if (k % 5 == 0) {
      interp::RunOptions nro;
      nro.native_backend = true;
      SimArrays native = sim_run(pr, nro);
      EXPECT_TRUE(same_arrays(native.ar, plan.ar, &why))
          << "native vs plan: " << why;
      EXPECT_EQ(native.sim_time, plan.sim_time);
    }

    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence at program " << k << " (seed "
                    << seed << "):\n"
                    << render_prog(pr);
      break;
    }
  }
  if (count > 0) {
    EXPECT_GT(total_sim_time, 0.0);
  }
}

}  // namespace
}  // namespace f90d
