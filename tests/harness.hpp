#pragma once
// Reusable end-to-end harness for the paper workloads (gauss, jacobi,
// fft_butterfly, irregular): sequential C++ oracles, canonical initial
// conditions, and compile-and-run helpers that return both the simulated
// SPMD result and the oracle so any test can diff them on any processor
// grid.  Generalizes the ad-hoc oracles that used to live inline in
// test_integration_compiled.cpp.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "apps/gauss_hand.hpp"
#include "apps/sources.hpp"
#include "comm/grid_comm.hpp"
#include "interp/interp.hpp"
#include "machine/topology.hpp"
#include "rts/dad.hpp"
#include "service/service.hpp"

namespace f90d::harness {

using interp::Index;

inline machine::SimMachine make_machine(int p) {
  return machine::SimMachine(p, machine::CostModel::ideal(),
                             machine::make_hypercube());
}

/// The one compile-and-run path every workload helper below shares: the
/// service core's free function (src/service/service.hpp) with the
/// harness's canonical machine (hypercube; ideal cost model unless the
/// caller passes a charging one) and no cross-run cache sharing, so all
/// counter assertions in the tests keep their exact single-run semantics.
/// Differential tests that compare simulated times pass a charging model
/// (CostModel::ipsc860()): on the ideal one every clock is zero.
inline interp::ProgramResult run_source(
    const std::string& source, interp::Init init,
    const interp::RunOptions& ro = {},
    const compile::CodegenOptions& codegen = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  service::RunSpec spec;
  spec.codegen = codegen;
  spec.cost = cost;
  spec.init = std::move(init);
  spec.run = ro;
  return service::compile_and_run(source, spec).result;
}

/// Run `body(gc)` on every processor of a simulated 1-D machine — the
/// standard bootstrap for exercising rts/parti primitives directly.
template <typename F>
void on_machine(int p, F&& body,
                const machine::CostModel& cm = machine::CostModel::ipsc860()) {
  machine::SimMachine m(p, cm, machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, comm::ProcGrid({p}));
    body(gc);
  });
}

/// 1-D Dad helper: extent-n array distributed with `kind` onto `g`.
/// `block` is the CYCLIC(k) block size (ignored unless kind is kCyclic).
inline rts::Dad dist1d(rts::Index n, const comm::ProcGrid& g,
                       rts::DistKind kind = rts::DistKind::kBlock,
                       int overlap_lo = 0, int overlap_hi = 0,
                       rts::Index block = 1) {
  rts::DimMap m;
  m.kind = kind;
  m.grid_dim = 0;
  m.template_extent = n;
  m.overlap_lo = overlap_lo;
  m.overlap_hi = overlap_hi;
  m.block = block;
  return rts::Dad({n}, {m}, g);
}

/// Outcome of one compiled run diffed against its sequential oracle.
struct DiffRun {
  std::string array;             ///< name of the checked array
  std::vector<double> got;      ///< simulated SPMD result (row-major global)
  std::vector<double> want;     ///< sequential oracle
  int schedule_hits = 0;
  int schedule_misses = 0;
  int plan_hits = 0;
  int plan_rebinds = 0;
  int plan_misses = 0;
  int irregular_hits = 0;
  int irregular_rebinds = 0;
  int irregular_misses = 0;
  int plan_entries = 0;  ///< live statement-cache entries at run end
  long long schedules_built = 0;
  long long gather_bytes = 0;
  long long scatter_bytes = 0;
  double sim_time = 0.0;         ///< simulated execution time (seconds)
  /// Native-backend counters (rank 0 node; zero unless ro.native_backend).
  long long native_runs = 0;
  long long native_attaches = 0;
  long long native_fallbacks = 0;
  long long native_invalidations = 0;
};

/// Copy the run-wide counters a DiffRun reports out of a ProgramResult.
inline void fill_counters(DiffRun& d, const interp::ProgramResult& r) {
  d.schedule_hits = r.schedule_hits;
  d.schedule_misses = r.schedule_misses;
  d.plan_hits = r.plan_hits;
  d.plan_rebinds = r.plan_rebinds;
  d.plan_misses = r.plan_misses;
  d.irregular_hits = r.irregular_hits;
  d.irregular_rebinds = r.irregular_rebinds;
  d.plan_entries = r.plan_entries;
  d.irregular_misses = r.irregular_misses;
  d.schedules_built = r.schedules_built;
  d.gather_bytes = r.gather_bytes;
  d.scatter_bytes = r.scatter_bytes;
  d.sim_time = r.machine.exec_time;
  d.native_runs = r.native_runs;
  d.native_attaches = r.native_attaches;
  d.native_fallbacks = r.native_fallbacks;
  d.native_invalidations = r.native_invalidations;
}

/// Largest |got - want| over the elements selected by `select(flat)`.
/// A size mismatch is itself a failure: infinity trips any tolerance check.
template <typename Select>
double max_abs_diff(const DiffRun& r, Select&& select) {
  if (r.got.size() != r.want.size())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (size_t k = 0; k < r.want.size(); ++k) {
    if (!select(k)) continue;
    const double d = std::fabs(r.got[k] - r.want[k]);
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

inline double max_abs_diff(const DiffRun& r) {
  return max_abs_diff(r, [](size_t) { return true; });
}

// --- Jacobi ------------------------------------------------------------------

/// Canonical initial condition shared by the SPMD run and the oracle.
inline double jacobi_entry(Index i, Index j) {
  return static_cast<double>((i * 13 + j * 7) % 11);
}

inline std::vector<double> jacobi_oracle(int n, int iters) {
  std::vector<double> a(static_cast<size_t>(n * n));
  std::vector<double> b(static_cast<size_t>(n * n), 0.0);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a[static_cast<size_t>(i * n + j)] = jacobi_entry(i, j);
  for (int it = 0; it < iters; ++it) {
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        b[static_cast<size_t>(i * n + j)] =
            0.25 * (a[static_cast<size_t>((i - 1) * n + j)] +
                    a[static_cast<size_t>((i + 1) * n + j)] +
                    a[static_cast<size_t>(i * n + j - 1)] +
                    a[static_cast<size_t>(i * n + j + 1)]);
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        a[static_cast<size_t>(i * n + j)] = b[static_cast<size_t>(i * n + j)];
  }
  return a;
}

inline interp::Init jacobi_init() {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return jacobi_entry(g[0], g[1]);
  };
  return init;
}

inline DiffRun run_jacobi(
    int n, int iters, int p, int q, const char* dist = "BLOCK",
    const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result = run_source(apps::jacobi_source(n, p, q, iters, dist),
                           jacobi_init(), ro, {}, cost);
  DiffRun d{"A", result.real_arrays.at("A"), jacobi_oracle(n, iters)};
  fill_counters(d, result);
  return d;
}

// --- Jacobi with loop-invariant coefficients (comm_opt workload) -------------

inline double jacobi_c_entry(Index i, Index j) {
  return static_cast<double>((i * 5 + j * 3) % 7) * 0.5;
}

inline std::vector<double> jacobi_hoisted_oracle(int n, int iters) {
  std::vector<double> a(static_cast<size_t>(n * n));
  std::vector<double> b(static_cast<size_t>(n * n), 0.0);
  auto c = [](int i, int j) { return jacobi_c_entry(i, j); };
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      a[static_cast<size_t>(i * n + j)] = jacobi_entry(i, j);
  const double s = c(0, 0);
  for (int it = 0; it < iters; ++it) {
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        b[static_cast<size_t>(i * n + j)] =
            c(i - 1, j) + 0.25 * (a[static_cast<size_t>((i - 1) * n + j)] +
                                  a[static_cast<size_t>((i + 1) * n + j)] +
                                  a[static_cast<size_t>(i * n + j - 1)] +
                                  a[static_cast<size_t>(i * n + j + 1)]);
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        a[static_cast<size_t>(i * n + j)] =
            b[static_cast<size_t>(i * n + j)] + c(i - 1, j) - s;
  }
  return a;
}

/// DiffRun plus the simulated machine's wire counters, for the comm_opt
/// ablation assertions (fewer messages at identical results).
struct CountedRun {
  DiffRun diff;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

inline interp::Init jacobi_hoisted_init() {
  interp::Init init = jacobi_init();
  init.real["C"] = [](std::span<const Index> g) {
    return jacobi_c_entry(g[0], g[1]);
  };
  return init;
}

inline CountedRun run_jacobi_hoisted(int n, int iters, int p, int q,
                                     const char* dist = "BLOCK",
                                     const compile::CodegenOptions& opt = {}) {
  auto result = run_source(apps::jacobi_hoisted_source(n, p, q, iters, dist),
                           jacobi_hoisted_init(), {}, opt);
  return CountedRun{DiffRun{"A", result.real_arrays.at("A"),
                            jacobi_hoisted_oracle(n, iters),
                            result.schedule_hits, result.schedule_misses},
                    result.machine.total_messages(),
                    result.machine.total_bytes()};
}

// --- Gaussian elimination ----------------------------------------------------

/// Sequential GE with partial pivoting on the N x (N+1) augmented system
/// whose entries come from `entry(i, j)`; mirrors the compiled program's
/// exact operations (pivot search, row swap, rank-1 update).
template <typename Entry>
std::vector<double> gauss_oracle(int n, Entry&& entry) {
  const int m = n + 1;
  std::vector<double> a(static_cast<size_t>(n * m));
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j)
      a[static_cast<size_t>(i * m + j)] = entry(i, j);
  auto at = [&](int i, int j) -> double& {
    return a[static_cast<size_t>(i * m + j)];
  };
  std::vector<double> l(static_cast<size_t>(n));
  for (int k = 0; k < n - 1; ++k) {
    int piv = k;
    double best = -1;
    for (int i = k; i < n; ++i) {
      if (std::fabs(at(i, k)) > best) {
        best = std::fabs(at(i, k));
        piv = i;
      }
    }
    if (piv != k)
      for (int j = k; j < m; ++j) std::swap(at(k, j), at(piv, j));
    for (int i = k + 1; i < n; ++i)
      l[static_cast<size_t>(i)] = at(i, k) / at(k, k);
    for (int i = k + 1; i < n; ++i)
      for (int j = k + 1; j < m; ++j)
        at(i, j) -= l[static_cast<size_t>(i)] * at(k, j);
  }
  return a;
}

inline std::vector<double> gauss_oracle(int n) {
  return gauss_oracle(
      n, [n](int i, int j) { return apps::gauss_matrix_entry(n, i, j); });
}

/// GE defines the upper triangle + rhs; below the diagonal is scratch.
inline auto gauss_defined_region(int n) {
  return [n](size_t flat) {
    const int m = n + 1;
    const int i = static_cast<int>(flat) / m;
    const int j = static_cast<int>(flat) % m;
    return j >= i;
  };
}

inline interp::Init gauss_init(int n) {
  interp::Init init;
  init.real["A"] = [n](std::span<const Index> g) {
    return apps::gauss_matrix_entry(n, g[0], g[1]);
  };
  return init;
}

inline DiffRun run_gauss(
    int n, int p, const char* dist = "BLOCK",
    const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result =
      run_source(apps::gauss_source(n, p, dist), gauss_init(n), ro, {}, cost);
  DiffRun d{"A", result.real_arrays.at("A"), gauss_oracle(n)};
  fill_counters(d, result);
  return d;
}

/// Gauss with explicit codegen options, counted (comm_opt property tests).
inline CountedRun run_gauss_counted(int n, int p, const char* dist,
                                    const compile::CodegenOptions& opt) {
  auto result =
      run_source(apps::gauss_source(n, p, dist), gauss_init(n), {}, opt);
  return CountedRun{DiffRun{"A", result.real_arrays.at("A"), gauss_oracle(n),
                            result.schedule_hits, result.schedule_misses},
                    result.machine.total_messages(),
                    result.machine.total_bytes()};
}

// --- Irregular gather/scatter ------------------------------------------------

/// Canonical permutation-ish index maps (0-based) used by both sides.
inline Index irregular_u(int n, Index i) { return (i * 7 + 3) % n; }
inline Index irregular_v(int n, Index i) { return (i * 11 + 5) % n; }

/// A(U(i)) = B(V(i)) + C(i) with B(i)=2i, C(i)=100i; idempotent across
/// steps, so one pass suffices.
inline std::vector<double> irregular_oracle(int n) {
  std::vector<double> a(static_cast<size_t>(n), 0.0);
  for (int i = 0; i < n; ++i)
    a[static_cast<size_t>(irregular_u(n, i))] =
        irregular_v(n, i) * 2.0 + i * 100.0;
  return a;
}

inline interp::Init irregular_init(int n) {
  interp::Init init;
  init.ints["U"] = [n](std::span<const Index> g) {
    return irregular_u(n, g[0]) + 1;  // Fortran arrays are 1-based
  };
  init.ints["V"] = [n](std::span<const Index> g) {
    return irregular_v(n, g[0]) + 1;
  };
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 2.0; };
  init.real["C"] = [](std::span<const Index> g) { return g[0] * 100.0; };
  return init;
}

inline DiffRun run_irregular(
    int n, int steps, int p, const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result = run_source(apps::irregular_source(n, p, steps),
                           irregular_init(n), ro, {}, cost);
  DiffRun d{"A", result.real_arrays.at("A"), irregular_oracle(n)};
  fill_counters(d, result);
  return d;
}

// --- Irregular scenario workloads (PARTI inspector/executor) -----------------
// Shared deterministic initial conditions; all index tables are 1-based in
// the Fortran sources and 0-based in the oracles.  `map_owner` is the
// scrambled-but-deterministic ownership every INDIRECT(MAP) run uses.

inline int map_owner(Index i, int p) { return static_cast<int>((i * 5 + 2) % p); }

inline Index spmv_col(int n, Index i, Index k) { return (i * 13 + k * 5 + 1) % n; }
inline double spmv_a(Index i, Index k) { return ((i + 1) * (k + 1)) % 7 + 0.25; }
inline double spmv_x(Index i) { return (i % 17) * 0.5 + 1.0; }

/// ELL SpMV oracle: Y accumulated in the program's exact loop nesting
/// (steps outer, K middle, I inner) so the double sums are bit-identical.
inline std::vector<double> spmv_ell_oracle(int n, int nk, int steps) {
  std::vector<double> y(static_cast<size_t>(n), 0.0);
  for (int it = 0; it < steps; ++it)
    for (Index k = 0; k < nk; ++k)
      for (Index i = 0; i < n; ++i)
        y[static_cast<size_t>(i)] +=
            spmv_a(i, k) * spmv_x(spmv_col(n, i, k));
  return y;
}

inline interp::Init spmv_ell_init(int n, int p) {
  interp::Init init;
  init.ints["MAP"] = [p](std::span<const Index> g) {
    return map_owner(g[0], p) + 1;  // directive values are 1-based
  };
  init.ints["COL"] = [n](std::span<const Index> g) {
    return spmv_col(n, g[0], g[1]) + 1;
  };
  init.real["A"] = [](std::span<const Index> g) { return spmv_a(g[0], g[1]); };
  init.real["X"] = [](std::span<const Index> g) { return spmv_x(g[0]); };
  init.real["Y"] = [](std::span<const Index>) { return 0.0; };
  return init;
}

inline DiffRun run_spmv_ell(
    int n, int nk, int steps, int p, const char* dist = "BLOCK",
    const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result = run_source(apps::spmv_ell_source(n, nk, p, steps, dist),
                           spmv_ell_init(n, p), ro, {}, cost);
  DiffRun d{"Y", result.real_arrays.at("Y"), spmv_ell_oracle(n, nk, steps)};
  fill_counters(d, result);
  return d;
}

inline Index mesh_e1(int nn, Index e) { return (e * 7 + 3) % nn; }
inline Index mesh_e2(int nn, Index e) { return (e * 11 + 5) % nn; }
inline double mesh_xn0(Index i) { return i * 0.5 + 1.0; }

/// Edge-sweep oracle: F recomputed from the current XN each step, then the
/// comm-free node update scales XN by 1.125; the returned F is the final
/// step's sweep.
inline std::vector<double> mesh_sweep_oracle(int nn, int ne, int steps) {
  std::vector<double> xn(static_cast<size_t>(nn));
  for (Index i = 0; i < nn; ++i) xn[static_cast<size_t>(i)] = mesh_xn0(i);
  std::vector<double> f(static_cast<size_t>(ne), 0.0);
  for (int it = 0; it < steps; ++it) {
    for (Index e = 0; e < ne; ++e)
      f[static_cast<size_t>(e)] = xn[static_cast<size_t>(mesh_e2(nn, e))] -
                                  xn[static_cast<size_t>(mesh_e1(nn, e))];
    for (Index i = 0; i < nn; ++i)
      xn[static_cast<size_t>(i)] += 0.125 * xn[static_cast<size_t>(i)];
  }
  return f;
}

inline interp::Init mesh_sweep_init(int nn, int p) {
  interp::Init init;
  init.ints["MAP"] = [p](std::span<const Index> g) {
    return map_owner(g[0], p) + 1;
  };
  init.ints["E1"] = [nn](std::span<const Index> g) {
    return mesh_e1(nn, g[0]) + 1;
  };
  init.ints["E2"] = [nn](std::span<const Index> g) {
    return mesh_e2(nn, g[0]) + 1;
  };
  init.real["XN"] = [](std::span<const Index> g) { return mesh_xn0(g[0]); };
  return init;
}

inline DiffRun run_mesh_sweep(
    int nn, int ne, int steps, int p, const char* dist = "BLOCK",
    const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result = run_source(apps::mesh_sweep_source(nn, ne, p, steps, dist),
                           mesh_sweep_init(nn, p), ro, {}, cost);
  DiffRun d{"F", result.real_arrays.at("F"), mesh_sweep_oracle(nn, ne, steps)};
  fill_counters(d, result);
  return d;
}

/// Reversal-then-rotation: a permutation of 0..np-1 for every np, so the
/// overwrite scatter H(BIN(I)) = ... has no duplicate destinations.
inline Index pbin_bin(int np, Index i) { return (np - 1 - i + 3) % np; }
inline double pbin_w0(Index i) { return i * 0.25 + 1.0; }

/// Binning oracle: each step overwrites H through the permutation with the
/// step-dependent weight W(I) + IT; W is doubled once after the loop.
inline std::vector<double> particle_bin_oracle(int np, int steps) {
  std::vector<double> h(static_cast<size_t>(np), 0.0);
  for (int it = 1; it <= steps; ++it)
    for (Index i = 0; i < np; ++i)
      h[static_cast<size_t>(pbin_bin(np, i))] = pbin_w0(i) + it;
  return h;
}

inline interp::Init particle_bin_init(int np, int p) {
  interp::Init init;
  init.ints["MAP"] = [p](std::span<const Index> g) {
    return map_owner(g[0], p) + 1;
  };
  init.ints["BIN"] = [np](std::span<const Index> g) {
    return pbin_bin(np, g[0]) + 1;
  };
  init.real["W"] = [](std::span<const Index> g) { return pbin_w0(g[0]); };
  init.real["H"] = [](std::span<const Index>) { return 0.0; };
  return init;
}

inline DiffRun run_particle_bin(
    int np, int steps, int p, const char* dist = "BLOCK",
    const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result = run_source(apps::particle_bin_source(np, p, steps, dist),
                           particle_bin_init(np, p), ro, {}, cost);
  DiffRun d{"H", result.real_arrays.at("H"), particle_bin_oracle(np, steps)};
  fill_counters(d, result);
  return d;
}

// --- FFT butterfly (non-canonical lhs) ---------------------------------------

inline std::vector<double> fft_oracle(int nx, int stages) {
  std::vector<double> x(static_cast<size_t>(nx)), t2(static_cast<size_t>(nx));
  for (int i = 0; i < nx; ++i) {
    x[static_cast<size_t>(i)] = i + 1.0;
    t2[static_cast<size_t>(i)] = i * 0.5;
  }
  int incrm = 1;
  for (int s = 0; s < stages; ++s) {
    std::vector<double> nx2 = x;
    for (int i = 1; i <= incrm; ++i)
      for (int j = 0; j <= nx / (2 * incrm) - 1; ++j) {
        const int dst = i + j * incrm * 2 + incrm;  // 1-based
        const int src = i + j * incrm * 2;
        nx2[static_cast<size_t>(dst - 1)] =
            x[static_cast<size_t>(src - 1)] - t2[static_cast<size_t>(dst - 1)];
      }
    x = std::move(nx2);
    incrm *= 2;
  }
  return x;
}

inline interp::Init fft_init() {
  interp::Init init;
  init.real["X"] = [](std::span<const Index> g) { return g[0] + 1.0; };
  init.real["TERM2"] = [](std::span<const Index> g) { return g[0] * 0.5; };
  return init;
}

inline DiffRun run_fft(
    int nx, int stages, int p, const interp::RunOptions& ro = {},
    const machine::CostModel& cost = machine::CostModel::ideal()) {
  auto result =
      run_source(apps::fft_source(nx, p, stages), fft_init(), ro, {}, cost);
  DiffRun d{"X", result.real_arrays.at("X"), fft_oracle(nx, stages)};
  fill_counters(d, result);
  return d;
}

}  // namespace f90d::harness
