// Communication-plan layer (exec/comm_plan.hpp): differential sweeps of
// planned statements (compiled comm slots) against the tree walk (legacy
// per-action communication) that must be bit-identical in array contents
// AND exactly equal in simulated time / wire traffic (the plans only remove
// host-side recomputation), the compiled PARTI executors against the
// generic ones on the same schedules, cache hit/miss/invalidation
// accounting, pooled payload reuse, and the redistribution invalidation
// contract.
#include <gtest/gtest.h>

#include "compile/driver.hpp"
#include "exec/comm_plan.hpp"
#include "harness.hpp"
#include "parti/schedule.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions comm_on() { return {}; }

/// The reference: the tree walk runs every pre action through the legacy
/// per-action communication code.
interp::RunOptions tree_walk() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

interp::RunOptions comm_on_native() {
  interp::RunOptions ro;
  ro.native_backend = true;
  return ro;
}

/// The faithfulness contract: identical bits and identical simulated time.
void expect_same_run(const DiffRun& on, const DiffRun& off,
                     const std::string& what) {
  ASSERT_EQ(on.got.size(), off.got.size()) << what;
  for (size_t k = 0; k < on.got.size(); ++k)
    ASSERT_EQ(on.got[k], off.got[k]) << what << " element " << k;
  EXPECT_EQ(on.sim_time, off.sim_time) << what << " sim_seconds";
}

TEST(CommPlanParity, JacobiShiftsAcrossGridsAndDists) {
  for (const auto& [p, q] : {std::pair{2, 2}, {1, 4}, {3, 3}}) {
    for (const char* dist : {"BLOCK", "CYCLIC(2)"}) {
      const std::string what = std::string("jacobi ") + std::to_string(p) +
                               "x" + std::to_string(q) + " " + dist;
      auto off = harness::run_jacobi(16, 3, p, q, dist, tree_walk());
      auto on = harness::run_jacobi(16, 3, p, q, dist, comm_on());
      auto nat = harness::run_jacobi(16, 3, p, q, dist, comm_on_native());
      expect_same_run(on, off, what);
      expect_same_run(nat, off, what + " native");
      EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
    }
  }
}

TEST(CommPlanParity, GaussBcastMulticastTransfer) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    const std::string what = std::string("gauss ") + dist;
    auto off = harness::run_gauss(12, 4, dist, tree_walk());
    auto on = harness::run_gauss(12, 4, dist, comm_on());
    auto nat = harness::run_gauss(12, 4, dist, comm_on_native());
    expect_same_run(on, off, what);
    expect_same_run(nat, off, what + " native");
    EXPECT_LE(harness::max_abs_diff(off, harness::gauss_defined_region(12)),
              1e-6)
        << what;
  }
}

TEST(CommPlanParity, IrregularGatherScatterExecutors) {
  {
    auto off = harness::run_irregular(32, 2, 4, tree_walk());
    auto on = harness::run_irregular(32, 2, 4, comm_on());
    expect_same_run(on, off, "irregular");
    EXPECT_LE(harness::max_abs_diff(off), 1e-9);
  }
  for (const char* dist : {"BLOCK", "INDIRECT(MAP)"}) {
    const std::string what = std::string("spmv ") + dist;
    auto off = harness::run_spmv_ell(24, 3, 2, 4, dist, tree_walk());
    auto on = harness::run_spmv_ell(24, 3, 2, 4, dist, comm_on());
    expect_same_run(on, off, what);
    EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
  }
  for (const char* dist : {"BLOCK", "INDIRECT(MAP)"}) {
    const std::string what = std::string("particle_bin ") + dist;
    auto off = harness::run_particle_bin(32, 2, 4, dist, tree_walk());
    auto on = harness::run_particle_bin(32, 2, 4, dist, comm_on());
    expect_same_run(on, off, what);
    EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
  }
}

TEST(CommPlanParity, FftNonCanonicalLhs) {
  auto off = harness::run_fft(16, 3, 4, tree_walk());
  auto on = harness::run_fft(16, 3, 4, comm_on());
  expect_same_run(on, off, "fft");
  EXPECT_LE(harness::max_abs_diff(off), 1e-9);
}

TEST(CommPlanParity, WireTrafficIdentical) {
  // Messages and bytes on the simulated wire must not change by a single
  // message or byte — the plans pack the same slabs to the same peers.
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  const std::string src = apps::jacobi_source(16, 2, 2, 4, "BLOCK");
  auto off = harness::run_source(src, init, tree_walk());
  auto on = harness::run_source(src, init, comm_on());
  EXPECT_EQ(on.machine.total_messages(), off.machine.total_messages());
  EXPECT_EQ(on.machine.total_bytes(), off.machine.total_bytes());
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);
}

TEST(CommPlanStats, WarmTripsHitTheCache) {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  auto r = harness::run_source(apps::jacobi_source(16, 2, 2, 6, "BLOCK"), init,
                               comm_on());
  // First trip builds (misses), the remaining five reuse: strictly more
  // hits than misses on a six-trip loop.
  EXPECT_GT(r.comm_plan_misses, 0);
  EXPECT_GT(r.comm_plan_hits, r.comm_plan_misses);
  EXPECT_EQ(r.comm_plan_invalidations, 0);
  // Jacobi's boundary slabs along the contiguous dimension coalesce to
  // memcpy runs.
  EXPECT_GT(r.comm_plan_fast_bytes, 0);
  // Steady state recycles pooled payload buffers for every message.
  EXPECT_GT(r.pool_reuses, 0);
}

TEST(CommPlanStats, DisabledRunsCollectNoCommPlanStats) {
  // Jacobi has no PARTI schedules, so the executors (which serve both
  // paths) never run, and the tree walk compiles no statement plans.
  auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", tree_walk());
  // DiffRun has no comm-plan counters; re-run through run_source.
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  auto res = harness::run_source(apps::jacobi_source(12, 2, 2, 2, "BLOCK"),
                                 init, tree_walk());
  EXPECT_EQ(res.comm_plan_hits, 0);
  EXPECT_EQ(res.comm_plan_misses, 0);
  EXPECT_EQ(res.comm_plan_invalidations, 0);
  EXPECT_EQ(res.comm_plan_fast_bytes, 0);
  EXPECT_GT(res.machine.total_messages(), 0u);
  EXPECT_LE(harness::max_abs_diff(r), 1e-9);
}

// --- compiled executors vs the generic PARTI executors ----------------------

/// One processor's view after a gather and a scatter, REAL and INTEGER,
/// each run twice on the same schedules (build, then reuse).
struct ExecOutcome {
  std::vector<double> gathered;
  std::vector<long long> gathered_int;
  std::vector<double> a_storage;
  std::vector<long long> k_storage;
  double clock = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  long long compiled_hits = 0;
  long long compiled_misses = 0;
};

std::vector<ExecOutcome> run_executors(bool compiled, const char* dist) {
  const std::string src = strformat(R"(PROGRAM EXECS
      INTEGER N
      PARAMETER (N = 40)
      REAL A(N)
      INTEGER K(N)
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
      FORALL (I = 1:N) A(I) = 0.0
      END PROGRAM EXECS
)",
                                    dist);
  const compile::Compiled c = compile::compile_source(src);
  std::vector<ExecOutcome> out(4);
  // A charging cost model: the ideal one would make every clock zero.
  machine::SimMachine m(4, machine::CostModel::ipsc860(),
                        machine::make_hypercube());
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, c.mapping.grid);
    exec::Env env(c, gc);
    rts::DistArray<double>& a = env.dar.at("A");
    rts::DistArray<long long>& k = env.iar.at("K");
    a.fill_global([](std::span<const Index> g) { return 100.0 + g[0]; });
    k.fill_global([](std::span<const Index> g) { return 7 * g[0]; });
    const rts::Dad& dad = env.dads.at("A");
    std::vector<Index> needs, dests;
    std::vector<double> values;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index l = 0; l < cnt; ++l) {
      const Index i = dad.global_of_local(0, l, gc.coord(0));
      needs.push_back((i * 13 + 5) % 40);
      dests.push_back((i * 7 + 3) % 40);  // gcd(7, 40) = 1: a permutation
      values.push_back(1000.0 + static_cast<double>(i));
    }
    const parti::SchedulePtr rs = parti::schedule2(gc, dad, needs);
    const parti::SchedulePtr ws = parti::schedule3(gc, dad, dests);
    const rts::Dad& kdad = env.dads.at("K");
    const parti::SchedulePtr rsk = parti::schedule2(gc, kdad, needs);
    const parti::SchedulePtr wsk = parti::schedule3(gc, kdad, dests);
    exec::CommPlans plans(env, {}, /*use_native=*/false);
    ExecOutcome& o = out[static_cast<size_t>(gc.my_logical())];
    const std::span<const double> vals(values);
    for (int trip = 0; trip < 2; ++trip) {
      exec::Buf b, bi;
      if (compiled) {
        ASSERT_TRUE(plans.execute_read(rs, "A", b));
        ASSERT_TRUE(plans.execute_read(rsk, "K", bi));
        ASSERT_TRUE(plans.execute_write(ws, "A", vals));
        ASSERT_TRUE(plans.execute_write(wsk, "K", vals));
      } else {
        b.dvals = parti::execute_read(gc, *rs, a);
        bi.ivals = parti::execute_read(gc, *rsk, k);
        parti::execute_write(gc, *ws, a, vals);
        std::vector<long long> iv(values.size());
        for (size_t j = 0; j < values.size(); ++j)
          iv[j] = static_cast<long long>(values[j]);
        parti::execute_write(gc, *wsk, k, std::span<const long long>(iv));
      }
      o.gathered = b.dvals;
      o.gathered_int = bi.ivals;
    }
    o.a_storage = a.storage();
    o.k_storage = k.storage();
    o.clock = proc.clock();
    o.messages = proc.stats().messages_sent;
    o.bytes = proc.stats().bytes_sent;
    o.compiled_hits = plans.stats().hits;
    o.compiled_misses = plans.stats().misses;
  });
  return out;
}

TEST(CommPlanExecutors, CompiledMatchesGenericOnSameSchedules) {
  for (const char* dist : {"BLOCK", "CYCLIC(3)"}) {
    const auto gen = run_executors(/*compiled=*/false, dist);
    const auto cmp = run_executors(/*compiled=*/true, dist);
    for (size_t r = 0; r < gen.size(); ++r) {
      const std::string what = std::string(dist) + " rank " + std::to_string(r);
      EXPECT_FALSE(gen[r].gathered.empty()) << what;
      EXPECT_EQ(cmp[r].gathered, gen[r].gathered) << what;
      EXPECT_EQ(cmp[r].gathered_int, gen[r].gathered_int) << what;
      EXPECT_EQ(cmp[r].a_storage, gen[r].a_storage) << what;
      EXPECT_EQ(cmp[r].k_storage, gen[r].k_storage) << what;
      EXPECT_EQ(cmp[r].clock, gen[r].clock) << what;
      EXPECT_EQ(cmp[r].messages, gen[r].messages) << what;
      EXPECT_EQ(cmp[r].bytes, gen[r].bytes) << what;
      EXPECT_GT(gen[r].messages, 0u) << what;
      EXPECT_GT(gen[r].clock, 0.0) << what;
      // Four compiled entries built on the first trip, reused on the second.
      EXPECT_EQ(cmp[r].compiled_misses, 4) << what;
      EXPECT_EQ(cmp[r].compiled_hits, 4) << what;
    }
  }
}

TEST(CommPlanInvalidate, ArrayIntrinsicDropsBoundPlans) {
  // The FORALL's overlap shift bakes A's storage geometry; the CSHIFT
  // assignment rewrites A wholesale between trips, so the redistribution
  // contract must drop the statement's cache entry (plan and comm slots)
  // and rebuild next trip.
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
        FORALL (I = 1:N-1) B(I) = A(I+1)
        A = CSHIFT(B, 1)
      END DO
      END PROGRAM SHIFTY
)";
  auto run = [&](const interp::RunOptions& ro) {
    auto compiled = compile::compile_source(src);
    machine::SimMachine m = harness::make_machine(4);
    interp::Init init;
    init.real["A"] = [](std::span<const Index> g) {
      return static_cast<double>(g[0]);
    };
    return interp::run_compiled(compiled, m, init, ro);
  };
  auto on = run(comm_on());
  auto off = run(tree_walk());
  EXPECT_GT(on.comm_plan_invalidations, 0);
  ASSERT_EQ(on.real_arrays.at("A").size(), off.real_arrays.at("A").size());
  for (size_t k = 0; k < off.real_arrays.at("A").size(); ++k)
    ASSERT_EQ(on.real_arrays.at("A")[k], off.real_arrays.at("A")[k])
        << "element " << k;
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);

  // Oracle: three rounds of B(1:N-1) = A(2:N); A = CSHIFT(B, 1).
  std::vector<double> a(16), b(16, 0.0);
  for (int i = 0; i < 16; ++i) a[static_cast<size_t>(i)] = i;
  for (int it = 0; it < 3; ++it) {
    for (int i = 0; i < 15; ++i)
      b[static_cast<size_t>(i)] = a[static_cast<size_t>(i + 1)];
    std::vector<double> sh(16);
    for (int i = 0; i < 16; ++i)
      sh[static_cast<size_t>(i)] = b[static_cast<size_t>((i + 1) % 16)];
    a = sh;
  }
  for (size_t k = 0; k < a.size(); ++k)
    EXPECT_EQ(on.real_arrays.at("A")[k], a[k]) << "oracle element " << k;
}

}  // namespace
}  // namespace f90d
