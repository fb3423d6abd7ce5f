// Differential sweeps for the irregular scenario workloads (ELL SpMV,
// unstructured-mesh edge sweep, particle binning): every machine size and
// both BLOCK and INDIRECT(MAP) value distributions must agree bit-for-bit
// with the sequential oracle, the tree walk and the irregular plan must
// produce identical values AND identical simulated times, and steady-state
// runs must reuse their PARTI schedules instead of re-running the inspector.
#include <gtest/gtest.h>

#include "harness.hpp"

namespace f90d {
namespace {

using harness::DiffRun;

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

}  // namespace
}  // namespace f90d
