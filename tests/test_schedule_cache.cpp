// ScheduleCache reuse semantics (paper §7 optimization 3): identical index
// sets on identically distributed arrays must hit the cache; changing the
// distribution (and hence the DAD signature in the key) must miss.  Both the
// cache object itself and the end-to-end compiled path are covered.
#include <gtest/gtest.h>

#include "comm/grid_comm.hpp"
#include "harness.hpp"
#include "machine/topology.hpp"
#include "parti/schedule.hpp"
#include "parti/schedule_cache.hpp"
#include "rts/dist_array.hpp"

namespace f90d {
namespace {

using harness::dist1d;
using harness::on_machine;
using parti::ScheduleCache;
using parti::SchedulePtr;
using rts::Dad;
using rts::DistKind;
using rts::Index;

TEST(ScheduleCache, HitOnIdenticalKeyReturnsSamePointer) {
  ScheduleCache cache;
  int builds = 0;
  auto build = [&] {
    ++builds;
    return std::make_shared<const parti::Schedule>();
  };
  SchedulePtr a = cache.get_or_build("k1", build);
  SchedulePtr b = cache.get_or_build("k1", build);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ScheduleCache, MissOnDifferentKey) {
  ScheduleCache cache;
  int builds = 0;
  auto build = [&] {
    ++builds;
    return std::make_shared<const parti::Schedule>();
  };
  (void)cache.get_or_build("k1", build);
  (void)cache.get_or_build("k2", build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 2);
}

TEST(ScheduleCache, DisabledCacheAlwaysRebuildsAndNeverMemoizes) {
  ScheduleCache cache;
  cache.set_enabled(false);
  int builds = 0;
  auto build = [&] {
    ++builds;
    return std::make_shared<const parti::Schedule>();
  };
  (void)cache.get_or_build("k1", build);
  (void)cache.get_or_build("k1", build);
  EXPECT_EQ(builds, 2);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ScheduleCache, ClearResetsCountersAndEntries) {
  ScheduleCache cache;
  (void)cache.get_or_build(
      "k1", [] { return std::make_shared<const parti::Schedule>(); });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.hits(), 0);
  EXPECT_EQ(cache.misses(), 0);
}

/// The key the compiler emits combines the DAD signature with the access
/// pattern: the same gather needs on the same distribution reuse the built
/// schedule, while a redistribution (BLOCK -> CYCLIC) changes the signature
/// and forces a rebuild.
TEST(ScheduleCache, GatherReusedAcrossStepsMissesOnRedistribution) {
  for (int p : {2, 4}) {
    on_machine(p, [&](comm::GridComm& gc) {
      const Index n = 32;
      Dad block = dist1d(n, gc.grid(), DistKind::kBlock);
      Dad cyclic = dist1d(n, gc.grid(), DistKind::kCyclic);

      // Each processor gathers the same permuted needs every "time step".
      std::vector<Index> needs;
      for (Index l = 0; l < block.local_extent(0, gc.coord(0)); ++l)
        needs.push_back((block.global_of_local(0, l, gc.coord(0)) * 7 + 3) % n);

      ScheduleCache cache;
      auto key_for = [&](const Dad& dad) {
        std::string key = "gather:" + dad.signature() + ":";
        for (Index g : needs) key += std::to_string(g) + ",";
        return key;
      };
      auto build_for = [&](const Dad& dad) {
        return [&gc, &dad, &needs] { return parti::schedule2(gc, dad, needs); };
      };

      SchedulePtr s1 = cache.get_or_build(key_for(block), build_for(block));
      SchedulePtr s2 = cache.get_or_build(key_for(block), build_for(block));
      EXPECT_EQ(s1.get(), s2.get()) << "identical index set must hit";
      EXPECT_EQ(cache.hits(), 1);
      EXPECT_EQ(cache.misses(), 1);

      SchedulePtr s3 = cache.get_or_build(key_for(cyclic), build_for(cyclic));
      EXPECT_NE(s1.get(), s3.get()) << "changed distribution must miss";
      EXPECT_EQ(cache.hits(), 1);
      EXPECT_EQ(cache.misses(), 2);

      // The reused schedule still routes values correctly.
      rts::DistArray<double> b(block, gc);
      b.fill_global([](std::span<const Index> g) { return g[0] * 3.0; });
      auto tmp = parti::gather(gc, *s2, b);
      ASSERT_EQ(tmp.size(), needs.size());
      for (size_t k = 0; k < needs.size(); ++k)
        EXPECT_DOUBLE_EQ(tmp[k], needs[k] * 3.0);
    });
  }
}

/// End-to-end: the irregular workload's repeated steps hit the cache when
/// RunOptions.schedule_cache is on and never hit when it is off.
TEST(ScheduleCache, CompiledIrregularHitsOnlyWithCacheEnabled) {
  const int n = 40, steps = 3, p = 4;
  auto compiled = compile::compile_source(apps::irregular_source(n, p, steps));
  interp::Init init;
  init.ints["U"] = [n](std::span<const Index> g) {
    return harness::irregular_u(n, g[0]) + 1;
  };
  init.ints["V"] = [n](std::span<const Index> g) {
    return harness::irregular_v(n, g[0]) + 1;
  };
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 2.0; };
  init.real["C"] = [](std::span<const Index> g) { return g[0] * 100.0; };

  machine::SimMachine m1 = harness::make_machine(p);
  interp::RunOptions with_cache;
  auto cached = interp::run_compiled(compiled, m1, init, with_cache);
  EXPECT_GT(cached.schedule_hits, 0);

  machine::SimMachine m2 = harness::make_machine(p);
  interp::RunOptions no_cache;
  no_cache.schedule_cache = false;
  auto uncached = interp::run_compiled(compiled, m2, init, no_cache);
  EXPECT_EQ(uncached.schedule_hits, 0);

  // Caching is a pure optimization: both runs compute the same answer.
  const auto& a1 = cached.real_arrays.at("A");
  const auto& a2 = uncached.real_arrays.at("A");
  ASSERT_EQ(a1.size(), a2.size());
  for (size_t k = 0; k < a1.size(); ++k) EXPECT_DOUBLE_EQ(a1[k], a2[k]);
}

// --- invalidation contract ---------------------------------------------------

/// Entries registered with a dependency set are dropped when any member is
/// invalidated; legacy entries (no tracked deps) are never touched.
TEST(ScheduleCache, InvalidateArrayDropsDependentEntriesOnly) {
  ScheduleCache cache;
  auto mk = [] { return std::make_shared<const parti::Schedule>(); };
  (void)cache.get_or_build("g1", {"B", "U"}, mk);
  (void)cache.get_or_build("g2", {"B"}, mk);
  (void)cache.get_or_build("g3", mk);
  EXPECT_EQ(cache.size(), 3u);

  cache.invalidate_array("U");
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.invalidations(), 1);

  int builds = 0;
  auto count = [&] {
    ++builds;
    return std::make_shared<const parti::Schedule>();
  };
  (void)cache.get_or_build("g2", {"B"}, count);
  (void)cache.get_or_build("g3", count);
  EXPECT_EQ(builds, 0) << "entries without U in their deps must survive";
  (void)cache.get_or_build("g1", {"B", "U"}, count);
  EXPECT_EQ(builds, 1) << "the dependent entry must rebuild";

  cache.invalidate_array("B");
  EXPECT_EQ(cache.size(), 1u) << "only the dep-less legacy entry survives";
  EXPECT_EQ(cache.invalidations(), 3);

  cache.invalidate_array("NOSUCH");
  EXPECT_EQ(cache.invalidations(), 3);
}

/// Regression (stale-schedule bug): a gather schedule built from
/// indirection array U must NOT be reused after U's values change.  The
/// program rewrites U between DO trips; with the old behaviour the first
/// trip's schedule kept routing the original pattern and the result
/// silently diverged from the oracle.  Write versions embedded in the
/// runtime key force a rebuild on every mutated trip.
TEST(ScheduleCache, GatherRebuiltAfterIndirectionArrayRewritten) {
  const int n = 24, trips = 4;
  const std::string src = strformat(R"(PROGRAM IRRMUT
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER U(N)
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO IT = 1, %d
        FORALL (I = 1:N) A(I) = A(I) + B(U(I))
        FORALL (I = 1:N) U(I) = N + 1 - U(I)
      END DO
      END PROGRAM IRRMUT
)",
                                    n, trips);
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(4);
  interp::Init init;
  auto u0 = [n](Index i) { return (i * 7 + 3) % n + 1; };  // 1-based
  init.ints["U"] = [&](std::span<const Index> g) { return u0(g[0]); };
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 2.0 + 1.0; };
  auto result = interp::run_compiled(compiled, m, init);

  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<long long> u(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) u[static_cast<size_t>(i)] = u0(i);
  for (int it = 0; it < trips; ++it) {
    for (int i = 0; i < n; ++i)
      a[static_cast<size_t>(i)] += (u[static_cast<size_t>(i)] - 1) * 2.0 + 1.0;
    for (int i = 0; i < n; ++i)
      u[static_cast<size_t>(i)] = n + 1 - u[static_cast<size_t>(i)];
  }
  const auto& got = result.real_arrays.at("A");
  ASSERT_EQ(got.size(), a.size());
  for (size_t k = 0; k < a.size(); ++k)
    EXPECT_DOUBLE_EQ(got[k], a[k]) << "k=" << k;

  // The write version is a counter, not a content hash: every trip sees a
  // fresh U version and must rebuild its gather schedule, even though U
  // only alternates between two value patterns.
  EXPECT_GE(result.schedule_misses, trips);
}

/// A REAL scalar in the bounds keys the schedule by its exact value: with
/// X = 1.2 the gather covers I = 1..5, with X = 1.4 it covers 1..6, even
/// though both truncate to the same integer.  Cache on, cache off, tree walk
/// and an oracle must agree.
TEST(ScheduleCache, RealScalarBoundKeysByExactValue) {
  const int n = 16;
  const std::string src = strformat(R"(PROGRAM RXS
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL Z(N)
      INTEGER COL(N)
      REAL X
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN Z(I) WITH T(I)
C$ ALIGN COL(I) WITH T(I)
      X = 1.2
      DO IT = 1, 2
        FORALL (I = 1:NINT(X*4.0)) A(I) = A(I) + Z(COL(I))
        X = X + 0.2
      END DO
      END PROGRAM RXS
)",
                                    n);
  interp::Init init;
  init.ints["COL"] = [n](std::span<const Index> g) { return n - g[0]; };
  init.real["Z"] = [](std::span<const Index> g) { return g[0] + 1.0; };
  auto run = [&](bool plans, bool cache) {
    interp::RunOptions ro;
    ro.exec_plans = plans;
    ro.schedule_cache = cache;
    return harness::run_source(src, init, ro).real_arrays.at("A");
  };
  // Oracle: Z(COL(I)) = N + 1 - I, added for I = 1..5, then I = 1..6.
  std::vector<double> want(static_cast<size_t>(n), 0.0);
  for (int last : {5, 6})
    for (int i = 1; i <= last; ++i)
      want[static_cast<size_t>(i - 1)] += n + 1 - i;
  for (const bool plans : {false, true})
    for (const bool cache : {false, true}) {
      const std::vector<double> got = run(plans, cache);
      ASSERT_EQ(got.size(), want.size());
      for (size_t k = 0; k < want.size(); ++k)
        EXPECT_EQ(got[k], want[k])
            << "plans=" << plans << " cache=" << cache << " k=" << k;
    }
}

/// Steady state: with the indirection arrays untouched, every trip after
/// the first reuses the cached schedules (reuse >= trips - 1 per schedule).
TEST(ScheduleCache, SteadyStateReusesAcrossTrips) {
  const int n = 40, steps = 5, p = 4;
  auto compiled = compile::compile_source(apps::irregular_source(n, p, steps));
  interp::Init init;
  init.ints["U"] = [n](std::span<const Index> g) {
    return harness::irregular_u(n, g[0]) + 1;
  };
  init.ints["V"] = [n](std::span<const Index> g) {
    return harness::irregular_v(n, g[0]) + 1;
  };
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 2.0; };
  init.real["C"] = [](std::span<const Index> g) { return g[0] * 100.0; };
  machine::SimMachine m = harness::make_machine(p);
  auto result = interp::run_compiled(compiled, m, init);
  EXPECT_GE(result.schedule_hits, steps - 1);
  EXPECT_EQ(result.schedule_invalidations, 0);
}

/// Whole-array intrinsic writes invalidate dependent schedules (the
/// redistribute/remap half of the contract) and the run still matches the
/// sequential oracle.
TEST(ScheduleCache, IntrinsicWriteInvalidatesDependentSchedules) {
  const int n = 16, trips = 3;
  const std::string src = strformat(R"(PROGRAM IRRSH
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER U(N)
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO IT = 1, %d
        FORALL (I = 1:N) A(I) = A(I) + B(U(I))
        B = CSHIFT(B, 1)
      END DO
      END PROGRAM IRRSH
)",
                                    n, trips);
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(4);
  interp::Init init;
  auto u0 = [n](Index i) { return (i * 5 + 2) % n + 1; };
  init.ints["U"] = [&](std::span<const Index> g) { return u0(g[0]); };
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 3.0 + 2.0; };
  auto result = interp::run_compiled(compiled, m, init);

  std::vector<double> a(static_cast<size_t>(n), 0.0);
  std::vector<double> b(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) b[static_cast<size_t>(i)] = i * 3.0 + 2.0;
  for (int it = 0; it < trips; ++it) {
    for (int i = 0; i < n; ++i)
      a[static_cast<size_t>(i)] += b[static_cast<size_t>(u0(i) - 1)];
    std::vector<double> nb(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i)
      nb[static_cast<size_t>(i)] = b[static_cast<size_t>((i + 1) % n)];
    b = std::move(nb);
  }
  const auto& got = result.real_arrays.at("A");
  ASSERT_EQ(got.size(), a.size());
  for (size_t k = 0; k < a.size(); ++k)
    EXPECT_DOUBLE_EQ(got[k], a[k]) << "k=" << k;
  EXPECT_GT(result.schedule_invalidations, 0)
      << "CSHIFT into the gather's data array must drop its schedule";
}

}  // namespace
}  // namespace f90d
