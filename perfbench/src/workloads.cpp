// Seeded inputs and independent sequential oracles for the batch workloads,
// the service request family, and the span recorder's output.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "apps/sources.hpp"
#include "bench.hpp"
#include "support/diag.hpp"

namespace perfbench {

using f90d::interp::Index;
using Vec = std::vector<double>;

namespace {

/// Seeded values in [lo, hi), shared by the run's initializer and the oracle.
std::shared_ptr<const Vec> random_vec(Rng& rng, std::size_t n, double lo,
                                      double hi) {
  auto v = std::make_shared<Vec>(n);
  for (double& x : *v) x = lo + (hi - lo) * rng.unit();
  return v;
}

/// Seeded 1-based owner table for DISTRIBUTE ... INDIRECT(MAP).
std::shared_ptr<const std::vector<int>> random_map(Rng& rng, int n, int p) {
  auto v = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n));
  for (int& x : *v) x = rng.range(1, p);
  return v;
}

f90d::service::RunSpec native_spec() {
  f90d::service::RunSpec spec;  // iPSC/860 cost model, hypercube
  spec.run.native_backend = true;
  return spec;
}

void set_real(f90d::service::RunSpec& spec, const std::string& name,
              std::shared_ptr<const Vec> v, Index cols = 0) {
  spec.init.real[name] = [v, cols](std::span<const Index> g) {
    const Index flat = cols == 0 ? g[0] : g[0] * cols + g[1];
    return (*v)[static_cast<std::size_t>(flat)];
  };
}

void set_int(f90d::service::RunSpec& spec, const std::string& name,
             std::shared_ptr<const std::vector<int>> v, Index cols = 0) {
  spec.init.ints[name] = [v, cols](std::span<const Index> g) {
    const Index flat = cols == 0 ? g[0] : g[0] * cols + g[1];
    return static_cast<long long>((*v)[static_cast<std::size_t>(flat)]);
  };
}

// --- stencil: Jacobi relaxation, BLOCK x BLOCK ---------------------------------

Case stencil_case(Rng& rng, bool smoke) {
  const int n = smoke ? 24 : 256;
  const int p = smoke ? 2 : 4;
  // The simulated time does not depend on the data, so the seed also varies
  // the trip count slightly: each seed gets its own sim_s.
  const int iters = smoke ? rng.range(2, 4) : rng.range(99, 101);
  const auto a0 = random_vec(rng, static_cast<std::size_t>(n) * n, 0.0, 10.0);
  Case c;
  c.name = "jacobi";
  c.source = f90d::apps::jacobi_source(n, p, p, iters);
  c.spec = native_spec();
  set_real(c.spec, "A", a0, n);
  c.array = "A";
  Vec a = *a0;
  Vec b(a.size(), 0.0);
  auto at = [n](int i, int j) { return static_cast<std::size_t>(i) * n + j; };
  for (int it = 0; it < iters; ++it) {
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        b[at(i, j)] = 0.25 * (a[at(i - 1, j)] + a[at(i + 1, j)] +
                              a[at(i, j - 1)] + a[at(i, j + 1)]);
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j) a[at(i, j)] = b[at(i, j)];
  }
  c.want = std::move(a);
  return c;
}

// --- gauss: elimination with partial pivoting, (*, BLOCK) --------------------

Case gauss_case(Rng& rng, bool smoke) {
  const int n = smoke ? 24 : 255;
  const int p = smoke ? 4 : 16;
  const int m = n + 1;
  // Random entries: the pivot row changes at almost every step, so the
  // row-swap branch runs (a diagonally dominant matrix never swaps).
  const auto a0 = random_vec(rng, static_cast<std::size_t>(n) * m, -1.0, 1.0);
  Case c;
  c.name = "gauss";
  c.n = n;
  c.source = f90d::apps::gauss_source(n, p);
  c.spec = native_spec();
  set_real(c.spec, "A", a0, m);
  c.array = "A";
  Vec a = *a0;
  auto at = [&a, m](int i, int j) -> double& {
    return a[static_cast<std::size_t>(i) * m + j];
  };
  Vec l(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < n - 1; ++k) {
    int piv = k;  // MAXLOC: first index of the largest magnitude
    double best = -1;
    for (int i = k; i < n; ++i)
      if (std::fabs(at(i, k)) > best) {
        best = std::fabs(at(i, k));
        piv = i;
      }
    if (piv != k)
      for (int j = k; j < m; ++j) std::swap(at(k, j), at(piv, j));
    for (int i = k + 1; i < n; ++i) l[static_cast<std::size_t>(i)] = at(i, k) / at(k, k);
    for (int i = k + 1; i < n; ++i)
      for (int j = k + 1; j < m; ++j)
        at(i, j) = at(i, j) - l[static_cast<std::size_t>(i)] * at(k, j);
  }
  c.want = std::move(a);
  // Below the diagonal is scratch: the program never writes the multipliers
  // back into A.
  c.defined.resize(c.want.size());
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j)
      c.defined[static_cast<std::size_t>(i) * m + j] = j >= i;
  return c;
}

// --- irregular: PARTI scenarios under INDIRECT(MAP) ----------------------------

constexpr int kIrregularProcs = 4;

Case spmv_case(Rng& rng, bool smoke) {
  const int n = smoke ? 256 : 4096;
  const int nk = 4;
  const int steps = smoke ? 1 : 2;
  const int p = kIrregularProcs;
  auto col = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n) * nk);
  for (int& x : *col) x = rng.range(1, n);
  const auto a = random_vec(rng, static_cast<std::size_t>(n) * nk, 0.0, 1.0);
  const auto x = random_vec(rng, static_cast<std::size_t>(n), -1.0, 1.0);
  Case c;
  c.name = "spmv_ell";
  c.source = f90d::apps::spmv_ell_source(n, nk, p, steps, "INDIRECT(MAP)");
  c.spec = native_spec();
  set_int(c.spec, "MAP", random_map(rng, n, p));
  set_int(c.spec, "COL", col, nk);
  set_real(c.spec, "A", a, nk);
  set_real(c.spec, "X", x);
  c.array = "Y";
  Vec y(static_cast<std::size_t>(n), 0.0);
  for (int it = 0; it < steps; ++it)
    for (int k = 0; k < nk; ++k)
      for (int i = 0; i < n; ++i) {
        const std::size_t ik = static_cast<std::size_t>(i) * nk + k;
        y[static_cast<std::size_t>(i)] =
            y[static_cast<std::size_t>(i)] +
            (*a)[ik] * (*x)[static_cast<std::size_t>((*col)[ik] - 1)];
      }
  c.want = std::move(y);
  return c;
}

Case mesh_case(Rng& rng, bool smoke) {
  const int nn = smoke ? 128 : 2048;
  const int ne = 2 * nn;
  const int steps = smoke ? 2 : 4;
  const int p = kIrregularProcs;
  auto e1 = std::make_shared<std::vector<int>>(static_cast<std::size_t>(ne));
  auto e2 = std::make_shared<std::vector<int>>(static_cast<std::size_t>(ne));
  for (int& v : *e1) v = rng.range(1, nn);
  for (int& v : *e2) v = rng.range(1, nn);
  const auto xn0 = random_vec(rng, static_cast<std::size_t>(nn), 0.0, 4.0);
  Case c;
  c.name = "mesh_sweep";
  c.source = f90d::apps::mesh_sweep_source(nn, ne, p, steps, "INDIRECT(MAP)");
  c.spec = native_spec();
  set_int(c.spec, "MAP", random_map(rng, nn, p));
  set_int(c.spec, "E1", e1);
  set_int(c.spec, "E2", e2);
  set_real(c.spec, "XN", xn0);
  c.array = "F";
  Vec xn = *xn0;
  Vec f(static_cast<std::size_t>(ne), 0.0);
  for (int it = 0; it < steps; ++it) {
    for (int e = 0; e < ne; ++e)
      f[static_cast<std::size_t>(e)] =
          xn[static_cast<std::size_t>((*e2)[static_cast<std::size_t>(e)] - 1)] -
          xn[static_cast<std::size_t>((*e1)[static_cast<std::size_t>(e)] - 1)];
    for (double& v : xn) v = v + 0.125 * v;
  }
  c.want = std::move(f);
  return c;
}

Case particle_case(Rng& rng, bool smoke) {
  const int np = smoke ? 256 : 4096;
  const int steps = smoke ? 2 : 4;
  const int p = kIrregularProcs;
  // BIN must be a permutation so the overwrite scatter is deterministic.
  auto bin = std::make_shared<std::vector<int>>(static_cast<std::size_t>(np));
  std::iota(bin->begin(), bin->end(), 1);
  for (int i = np - 1; i > 0; --i)
    std::swap((*bin)[static_cast<std::size_t>(i)],
              (*bin)[static_cast<std::size_t>(rng.range(0, i))]);
  const auto w = random_vec(rng, static_cast<std::size_t>(np), 0.0, 8.0);
  Case c;
  c.name = "particle_bin";
  c.source = f90d::apps::particle_bin_source(np, p, steps, "INDIRECT(MAP)");
  c.spec = native_spec();
  set_int(c.spec, "MAP", random_map(rng, np, p));
  set_int(c.spec, "BIN", bin);
  set_real(c.spec, "W", w);
  c.array = "H";
  Vec h(static_cast<std::size_t>(np), 0.0);
  for (int it = 1; it <= steps; ++it)
    for (int i = 0; i < np; ++i)
      h[static_cast<std::size_t>((*bin)[static_cast<std::size_t>(i)] - 1)] =
          (*w)[static_cast<std::size_t>(i)] + it;
  c.want = std::move(h);
  return c;
}

}  // namespace

std::vector<Case> make_batch(const std::string& workload, std::uint64_t seed,
                             bool smoke) {
  Rng rng(seed);
  if (workload == "stencil") return {stencil_case(rng, smoke)};
  if (workload == "gauss") return {gauss_case(rng, smoke)};
  if (workload == "irregular") {
    std::vector<Case> cs;
    cs.push_back(spmv_case(rng, smoke));
    cs.push_back(mesh_case(rng, smoke));
    cs.push_back(particle_case(rng, smoke));
    return cs;
  }
  throw std::invalid_argument("unknown batch workload: " + workload);
}

bool verify(const Case& c, const f90d::interp::ProgramResult& r) {
  const auto it = r.real_arrays.find(c.array);
  if (it == r.real_arrays.end() || it->second.size() != c.want.size())
    return false;
  for (std::size_t k = 0; k < c.want.size(); ++k) {
    if (!c.defined.empty() && !c.defined[k]) continue;
    if (std::memcmp(&it->second[k], &c.want[k], sizeof(double)) != 0)
      return false;
  }
  return true;
}

// --- service family ------------------------------------------------------------

namespace {

/// Four self-initializing templates: two regular (1-D shift, 2-D 5-point)
/// and two irregular with exactly one PARTI schedule each (gather-only and
/// scatter-only), so a run either hits or builds its whole schedule set and
/// every reply matches a cold or a warm reference exactly.
std::string family_source(int id, int kind, int n, int p, int k1, int k2) {
  using f90d::strformat;
  switch (kind) {
    case 0:
      return strformat(R"(PROGRAM SHIFT%d
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) B(I) = MOD(I * %d, 13) * 0.5
      DO IT = 1, 4
        FORALL (I = 2:N-1) A(I) = 0.5 * (B(I-1) + B(I+1))
        FORALL (I = 2:N-1) B(I) = A(I)
      END DO
      END PROGRAM SHIFT%d
)",
                       id, n, p, k1, id);
    case 1:
      return strformat(R"(PROGRAM GRID%d
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N, N)
      REAL B(N, N)
      INTEGER IT
C$ PROCESSORS P(2, %d)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, BLOCK)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
      FORALL (I = 1:N, J = 1:N) A(I, J) = MOD(I * %d + J * 5, 11)
      DO IT = 1, 3
        FORALL (I = 2:N-1, J = 2:N-1)
          B(I, J) = 0.25 * (A(I-1, J) + A(I+1, J) + A(I, J-1) + A(I, J+1))
        END FORALL
        FORALL (I = 2:N-1, J = 2:N-1) A(I, J) = B(I, J)
      END DO
      END PROGRAM GRID%d
)",
                       id, n / 8, p / 2, k1, id);
    case 2:
      return strformat(R"(PROGRAM GATH%d
      INTEGER N
      PARAMETER (N = %d)
      REAL X(N)
      REAL Y(N)
      INTEGER COL(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN X(I) WITH T(I)
C$ ALIGN Y(I) WITH T(I)
      FORALL (I = 1:N) COL(I) = MOD(I * %d + %d, N) + 1
      FORALL (I = 1:N) X(I) = I * 0.25
      DO IT = 1, 3
        FORALL (I = 1:N) Y(I) = Y(I) + X(COL(I))
      END DO
      END PROGRAM GATH%d
)",
                       id, n, p, k1, k2, id);
    default:
      return strformat(R"(PROGRAM SCAT%d
      INTEGER N
      PARAMETER (N = %d)
      REAL H(N)
      REAL W(N)
      INTEGER BIN(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN H(I) WITH T(I)
C$ ALIGN W(I) WITH T(I)
      FORALL (I = 1:N) BIN(I) = MOD(I * %d + %d, N) + 1
      FORALL (I = 1:N) W(I) = I * 0.5
      DO IT = 1, 3
        FORALL (I = 1:N) H(BIN(I)) = W(I) + IT
      END DO
      END PROGRAM SCAT%d
)",
                       id, n, p, k1, k2, id);
  }
}

}  // namespace

Family make_family(std::uint64_t seed, bool smoke, int length) {
  Rng rng(seed ^ 0x5e41c3ull);
  Family f;
  f.sequence.reserve(static_cast<std::size_t>(length));
  // Every kNewEvery-th request is a program the server has not seen, until
  // there are kMaxPrograms.  New programs cycle through every (kind, size
  // class, grid) combination, so each seed gets the same mix; the seed
  // perturbs sizes and index maps.
  auto fresh = [&] {
    const int id = static_cast<int>(f.sources.size());
    const int kind = id % 4;
    const int size_class = (id / 4) % 7;
    const int p = (id / 28) % 2 == 0 ? 2 : 4;
    const int n = smoke ? 32 + 4 * size_class + rng.range(0, 3)
                        : 128 + 64 * size_class + rng.range(0, 15);
    // k1 coprime with n keeps the scatter's BIN a permutation.
    int k1 = rng.range(3, 97);
    while (std::gcd(k1, n) != 1) ++k1;
    const int k2 = rng.range(0, n - 1);
    f.sources.push_back(family_source(id, kind, n, p, k1, k2));
    return id;
  };
  while (static_cast<int>(f.sequence.size()) < length) {
    if (f.sequence.size() % kNewEvery == 0 && f.sources.size() < kMaxPrograms) {
      const int id = fresh();
      f.sequence.push_back(id);
      // Every other new program is asked for twice back to back: both
      // clients want the same uncompiled source at once (compile coalescing).
      if (id % 2 == 1) f.sequence.push_back(id);
    } else {
      // Repeats are uniform over the programs seen so far, not over past
      // requests, so no early program comes to dominate the mix.
      f.sequence.push_back(rng.range(0, static_cast<int>(f.sources.size()) - 1));
    }
  }
  f.sequence.resize(static_cast<std::size_t>(length));
  return f;
}

// --- span recorder output ------------------------------------------------------------

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = (spans_[i].end_us - spans_[i].start_us) / 1000.0;
  for (const Span& s : spans_)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= (s.end_us - s.start_us) / 1000.0;
  return self;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d,\"request\":%d}}",
                  i ? "," : "", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(), s.thread,
                  s.start_us, s.end_us - s.start_us, s.id, s.parent, s.request);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
