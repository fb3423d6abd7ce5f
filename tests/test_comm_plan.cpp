// Communication-plan layer (exec/comm_plan.hpp): differential sweeps of
// planned statements (compiled comm slots) against the tree walk (its
// per-action communication) that must be bit-identical in array contents
// AND exactly equal in simulated time / wire traffic (the plans only remove
// host-side recomputation), on the charging iPSC/860 cost model so the
// time equalities are not 0 == 0; overlap shifts at every copy depth the
// strided copy has a case for; the PARTI executor against values computed
// from global ids, cache hit/miss/invalidation accounting, pooled payload
// reuse, and the redistribution invalidation contract.
#include <gtest/gtest.h>

#include <map>

#include "compile/driver.hpp"
#include "exec/comm_plan.hpp"
#include "exec/statement_plan.hpp"
#include "harness.hpp"
#include "parti/schedule.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions comm_on() { return {}; }

/// The reference: the tree walk runs every pre action through the
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

/// The sweeps charge on the paper's machine: with the ideal model every
/// simulated clock is zero and the sim_time equalities would be vacuous.
const machine::CostModel& charging() {
  static const machine::CostModel cm = machine::CostModel::ipsc860();
  return cm;
}

/// The faithfulness contract: identical bits and identical, charged,
/// simulated time.
void expect_same_run(const DiffRun& on, const DiffRun& off,
                     const std::string& what) {
  ASSERT_EQ(on.got.size(), off.got.size()) << what;
  for (size_t k = 0; k < on.got.size(); ++k)
    ASSERT_EQ(on.got[k], off.got[k]) << what << " element " << k;
  EXPECT_GT(off.sim_time, 0.0) << what << " simulated time is charged";
  EXPECT_EQ(on.sim_time, off.sim_time) << what << " sim_seconds";
}

TEST(CommPlanParity, JacobiShiftsAcrossGridsAndDists) {
  for (const auto& [p, q] : {std::pair{2, 2}, {1, 4}, {3, 3}}) {
    for (const char* dist : {"BLOCK", "CYCLIC(2)"}) {
      const std::string what = std::string("jacobi ") + std::to_string(p) +
                               "x" + std::to_string(q) + " " + dist;
      auto off =
          harness::run_jacobi(16, 3, p, q, dist, tree_walk(), charging());
      auto on =
          harness::run_jacobi(16, 3, p, q, dist, comm_on(), charging());
      auto nat = harness::run_jacobi(16, 3, p, q, dist, comm_on_native(),
                                     charging());
      expect_same_run(on, off, what);
      expect_same_run(nat, off, what + " native");
      EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
    }
  }
}

TEST(CommPlanParity, GaussBcastMulticastTransfer) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    const std::string what = std::string("gauss ") + dist;
    auto off = harness::run_gauss(12, 4, dist, tree_walk(), charging());
    auto on = harness::run_gauss(12, 4, dist, comm_on(), charging());
    auto nat =
        harness::run_gauss(12, 4, dist, comm_on_native(), charging());
    expect_same_run(on, off, what);
    expect_same_run(nat, off, what + " native");
    EXPECT_LE(harness::max_abs_diff(off, harness::gauss_defined_region(12)),
              1e-6)
        << what;
  }
}

TEST(CommPlanParity, IrregularGatherScatterExecutors) {
  {
    auto off = harness::run_irregular(32, 2, 4, tree_walk(), charging());
    auto on = harness::run_irregular(32, 2, 4, comm_on(), charging());
    expect_same_run(on, off, "irregular");
    EXPECT_LE(harness::max_abs_diff(off), 1e-9);
  }
  for (const char* dist : {"BLOCK", "INDIRECT(MAP)"}) {
    const std::string what = std::string("spmv ") + dist;
    auto off =
        harness::run_spmv_ell(24, 3, 2, 4, dist, tree_walk(), charging());
    auto on = harness::run_spmv_ell(24, 3, 2, 4, dist, comm_on(), charging());
    expect_same_run(on, off, what);
    EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
  }
  for (const char* dist : {"BLOCK", "INDIRECT(MAP)"}) {
    const std::string what = std::string("particle_bin ") + dist;
    auto off =
        harness::run_particle_bin(32, 2, 4, dist, tree_walk(), charging());
    auto on = harness::run_particle_bin(32, 2, 4, dist, comm_on(), charging());
    expect_same_run(on, off, what);
    EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
  }
}

TEST(CommPlanParity, FftNonCanonicalLhs) {
  auto off = harness::run_fft(16, 3, 4, tree_walk(), charging());
  auto on = harness::run_fft(16, 3, 4, comm_on(), charging());
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
  auto off = harness::run_source(src, init, tree_walk(), {}, charging());
  auto on = harness::run_source(src, init, comm_on(), {}, charging());
  EXPECT_EQ(on.machine.total_messages(), off.machine.total_messages());
  EXPECT_EQ(on.machine.total_bytes(), off.machine.total_bytes());
  EXPECT_GT(off.machine.exec_time, 0.0);
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);
}

/// A rank-`rank` BLOCK stencil whose reads reach `width` cells each way
/// along every dimension, on a grid of two processors per dimension (four
/// for rank 1), run for two trips.
std::string shift_source(int rank, int width) {
  const char* idx[] = {"I", "J", "K"};
  const int n = rank == 1 ? 16 : 8;
  auto subs = [&](int d, const std::string& off) {
    std::string out;
    for (int k = 0; k < rank; ++k) {
      if (k > 0) out += ", ";
      out += idx[k];
      if (k == d) out += off;
    }
    return out;
  };
  std::string shape, procs, forall, rhs;
  for (int k = 0; k < rank; ++k) {
    const std::string sep = k > 0 ? ", " : "";
    shape += sep + "N";
    procs += sep + (rank == 1 ? "4" : "2");
    forall += sep + idx[k] + " = " + std::to_string(width + 1) +
              ":N-" + std::to_string(width);
    for (const char* sign : {"-", "+"})
      rhs += std::string(rhs.empty() ? "" : " + ") + "A(" +
             subs(k, sign + std::to_string(width)) + ")";
  }
  std::string dist = "BLOCK";
  for (int k = 1; k < rank; ++k) dist += ", BLOCK";
  const std::string all = subs(-1, "");
  return strformat(R"(PROGRAM SHIFTS
      INTEGER N
      PARAMETER (N = %d)
      REAL A(%s)
      REAL B(%s)
      INTEGER IT
C$ PROCESSORS P(%s)
C$ TEMPLATE T(%s)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(%s) WITH T(%s)
C$ ALIGN B(%s) WITH T(%s)
      DO IT = 1, 2
        FORALL (%s) B(%s) = %s
        FORALL (%s) A(%s) = 0.5 * B(%s)
      END DO
      END PROGRAM SHIFTS
)",
                   n, shape.c_str(), shape.c_str(), procs.c_str(),
                   shape.c_str(), dist.c_str(), all.c_str(), all.c_str(),
                   all.c_str(), all.c_str(), forall.c_str(), all.c_str(),
                   rhs.c_str(), forall.c_str(), all.c_str(), all.c_str());
}

TEST(CommPlanParity, OverlapShiftsAtEveryCopyDepth) {
  // Row-major storage with ghost cells: a shift's slab is one contiguous
  // run (1-D; 2-D along rows at width 1), one level of runs (2-D: one REAL
  // per row along columns at width 1, two at width 2; two rows at width 2
  // along rows) or two levels (3-D), so the strided copy's three cases and
  // both of its levels-1 run sizes all pack and unpack here.
  for (int rank = 1; rank <= 3; ++rank) {
    for (int width = 1; width <= 2; ++width) {
      const std::string what = "rank " + std::to_string(rank) + " width " +
                               std::to_string(width);
      const std::string src = shift_source(rank, width);
      interp::Init init;
      init.real["A"] = [](std::span<const Index> g) {
        double v = 0.375;
        for (Index x : g) v = v * 7.25 + static_cast<double>(x);
        return v;
      };
      auto run = [&](const interp::RunOptions& ro) {
        return harness::run_source(src, init, ro, {}, charging());
      };
      const auto off = run(tree_walk());
      ASSERT_GT(off.machine.total_messages(), 0u) << what;
      EXPECT_GT(off.machine.exec_time, 0.0) << what;
      for (const auto& ro : {comm_on(), comm_on_native()}) {
        const auto on = run(ro);
        EXPECT_EQ(on.real_arrays, off.real_arrays) << what;
        EXPECT_EQ(on.machine.exec_time, off.machine.exec_time) << what;
        EXPECT_EQ(on.machine.total_messages(), off.machine.total_messages())
            << what;
        EXPECT_EQ(on.machine.total_bytes(), off.machine.total_bytes())
            << what;
        EXPECT_GT(on.comm_plan_hits, 0) << what;
      }
    }
  }
}

/// The one dependency order the tree walk and the compiled plans share:
/// eliminated actions dropped, ghost fills / broadcasts / slabs before
/// iteration buffers, each group by descending ref id, ties in source order.
TEST(CommPlanOrder, PreActionsRunInDependencyOrder) {
  using compile::CommKind;
  compile::SpmdStmt s(compile::SpmdKind::kForall);
  auto add = [&](CommKind kind, int ref_id, bool eliminated = false) {
    compile::CommAction a;
    a.kind = kind;
    a.ref_id = ref_id;
    a.eliminated = eliminated;
    s.pre.push_back(std::move(a));
  };
  add(CommKind::kPrecompRead, 1);      // 0
  add(CommKind::kOverlapShift, 0);     // 1
  add(CommKind::kGather, 3);           // 2
  add(CommKind::kBcastElement, 2);     // 3
  add(CommKind::kTemporaryShift, 3);   // 4
  add(CommKind::kMulticast, 4, true);  // 5: eliminated
  add(CommKind::kTransfer, 1);         // 6
  add(CommKind::kOverlapShift, 2);     // 7
  std::vector<int> order;
  for (const compile::CommAction* a : exec::pre_actions_in_order(s))
    order.push_back(static_cast<int>(a - s.pre.data()));
  EXPECT_EQ(order, (std::vector<int>{3, 7, 6, 1, 2, 4, 0}));
}

/// One FORALL whose pre-actions come out of ref order: a gather of
/// B(U(I)) (ref 1), a broadcast of B(K) (ref 3) and a ghost fill for
/// C(I-1) (ref 4), which run ghost fill, broadcast, gather.  K moves the
/// broadcast root on every DO trip.
const char* mixed_pre_source() {
  return R"(PROGRAM MIXED
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      REAL B(N)
      REAL C(N)
      INTEGER U(N)
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
      DO K = 1, 13, 4
        FORALL (I = 2:N) A(I) = B(U(I)) + 0.5 * B(K) + C(I-1)
      END DO
      END PROGRAM MIXED
)";
}

interp::ProgramResult run_mixed_pre(const interp::RunOptions& ro) {
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return 0.25 * g[0] - 1.0; };
  init.real["C"] = [](std::span<const Index> g) { return 3.0 / (g[0] + 1); };
  init.ints["U"] = [](std::span<const Index> g) { return (g[0] * 5 + 3) % 16 + 1; };
  return harness::run_source(mixed_pre_source(), init, ro, {}, charging());
}

TEST(CommPlanOrder, GhostFillBroadcastAndGatherMatchOnEveryBackend) {
  const auto tree = run_mixed_pre(tree_walk());
  const auto plan = run_mixed_pre(comm_on());
  const auto nat = run_mixed_pre(comm_on_native());
  ASSERT_FALSE(tree.real_arrays.at("A").empty());
  EXPECT_GT(tree.machine.exec_time, 0.0);
  EXPECT_EQ(plan.tree_walk_stmts, 0);  // the FORALL ran planned
  for (const interp::ProgramResult* r : {&plan, &nat}) {
    EXPECT_EQ(r->real_arrays, tree.real_arrays);
    EXPECT_EQ(r->machine.exec_time, tree.machine.exec_time);
    EXPECT_EQ(r->machine.proc_times, tree.machine.proc_times);
  }
}

TEST(CommPlanStats, IrregularEntriesRunTheirBroadcastFromASlot) {
  // The gathering FORALL's compiled communication: the broadcast bakes
  // and the gather runs through the gather hook (the ghost fill is hoisted
  // out of the DO loop).  A slot that cannot bake declines the whole
  // entry, so a plan with both slots means every slot baked.
  const compile::Compiled c = compile::compile_source(mixed_pre_source());
  const compile::SpmdStmt* forall = nullptr;
  for (const compile::SpmdStmtPtr& s : c.program.body)
    for (const compile::SpmdStmtPtr& b : s->body)
      if (b->kind == compile::SpmdKind::kForall) forall = b.get();
  ASSERT_NE(forall, nullptr);
  std::vector<int> slots(4, -1), gathers(4, -1);
  machine::SimMachine m(4, charging(), machine::make_hypercube());
  (void)m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, c.mapping.grid);
    exec::Env env(c, gc);
    env.scalars.at("K") = exec::Value::integer(5);
    const size_t me = static_cast<size_t>(gc.my_logical());
    gathers[me] = 0;
    exec::CommHooks hooks;
    // The broadcast subscript is the DO variable K.
    hooks.eval = [&env](const ast::Expr& e) {
      require(e.kind == ast::ExprKind::kVarRef, "scalar subscript");
      return env.scalars.at(e.name);
    };
    hooks.gather = [&](const compile::SpmdStmt&, const compile::CommAction&,
                       const exec::ExecPlan&) { ++gathers[me]; };
    exec::CommPlans comm(env, hooks);
    exec::StatementPlan e = exec::build_statement_plan(
        *forall, env, comm, exec::plan_key_scalars(*forall, env));
    ASSERT_NE(e.plan, nullptr) << e.decline;
    slots[me] = static_cast<int>(e.comm.slots.size());
    comm.run(*forall, e.comm, *e.plan);
  });
  EXPECT_EQ(slots, std::vector<int>(4, 2));
  EXPECT_EQ(gathers, std::vector<int>(4, 1));

  // End to end its lookups are the run's only comm-plan ones (PARTI
  // schedules are counted by the schedule cache alone), with the tree
  // walk's traffic.
  const auto tree = run_mixed_pre(tree_walk());
  const auto plan = run_mixed_pre(comm_on());
  EXPECT_EQ(plan.irregular_misses, 1);
  EXPECT_EQ(plan.irregular_hits, 3);
  EXPECT_EQ(plan.plan_misses + plan.plan_hits, 0);
  EXPECT_EQ(tree.comm_plan_hits + tree.comm_plan_misses, 0);
  EXPECT_EQ(plan.comm_plan_hits, plan.irregular_hits);
  EXPECT_EQ(plan.comm_plan_misses, plan.irregular_misses);
  EXPECT_EQ(plan.schedule_hits, tree.schedule_hits);
  EXPECT_EQ(plan.machine.total_messages(), tree.machine.total_messages());
  EXPECT_EQ(plan.machine.total_bytes(), tree.machine.total_bytes());
  EXPECT_EQ(plan.machine.exec_time, tree.machine.exec_time);
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
  // The tree walk compiles no statement plans, so it counts no comm plans
  // (Jacobi has no PARTI schedules either).
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

// --- the PARTI executor against an independent reference -------------------

/// One processor's view after a gather and a scatter, REAL and INTEGER
/// (negative values read, negative and fractional values written), run
/// twice on the same schedules: the second gather reads what the first
/// scatter wrote.  `messages`/`bytes` count the executors alone; their
/// expected values are derived from the schedule lists.
struct ExecOutcome {
  std::vector<double> gathered[2];
  std::vector<long long> gathered_int[2];
  std::vector<Index> needs;
  std::vector<std::pair<Index, double>> a_owned;     ///< (global id, value)
  std::vector<std::pair<Index, long long>> k_owned;  ///< (global id, value)
  double clock = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t expected_messages = 0;
  std::uint64_t expected_bytes = 0;
};

constexpr Index kExecN = 40;

/// Iteration i needs element (13i+5) mod N and writes element (7i+3) mod N
/// (gcd(7, 40) = 1: a permutation) with this value.
double exec_value(Index i) {
  // Negative and fractional: the INTEGER write truncates toward zero.
  return (i % 3 == 0 ? -0.75 : 1.25) * static_cast<double>(i) - 0.5;
}

std::vector<ExecOutcome> run_executors(const char* dist) {
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
    rts::DistArray<double>& a =
        env.array_as<double>("A", "test", "it is read as REAL");
    rts::DistArray<long long>& k =
        env.array_as<long long>("K", "test", "it is read as INTEGER");
    a.fill_global([](std::span<const Index> g) { return 100.0 + g[0]; });
    k.fill_global([](std::span<const Index> g) { return 7 * g[0] - 100; });
    const rts::Dad& dad = env.dads.at("A");
    ExecOutcome& o = out[static_cast<size_t>(gc.my_logical())];
    std::vector<Index> dests;
    std::vector<double> values;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index l = 0; l < cnt; ++l) {
      const Index i = dad.global_of_local(0, l, gc.coord(0));
      o.needs.push_back((i * 13 + 5) % kExecN);
      dests.push_back((i * 7 + 3) % kExecN);
      values.push_back(exec_value(i));
    }
    const parti::SchedulePtr rs = parti::schedule2(gc, dad, o.needs);
    const parti::SchedulePtr ws = parti::schedule3(gc, dad, dests);
    const rts::Dad& kdad = env.dads.at("K");
    const parti::SchedulePtr rsk = parti::schedule2(gc, kdad, o.needs);
    const parti::SchedulePtr wsk = parti::schedule3(gc, kdad, dests);
    const std::uint64_t msgs0 = proc.stats().messages_sent;
    const std::uint64_t bytes0 = proc.stats().bytes_sent;
    const std::span<const double> vals(values);
    for (int trip = 0; trip < 2; ++trip) {
      parti::execute_read(gc, *rs, a, o.gathered[trip]);
      parti::execute_read(gc, *rsk, k, o.gathered_int[trip]);
      parti::execute_write(gc, *ws, a, vals);
      parti::execute_write(gc, *wsk, k, vals);
    }
    a.for_each_owned([&](const std::vector<Index>& g, double& v) {
      o.a_owned.emplace_back(g[0], v);
    });
    k.for_each_owned([&](const std::vector<Index>& g, long long& v) {
      o.k_owned.emplace_back(g[0], v);
    });
    o.clock = proc.clock();
    o.messages = proc.stats().messages_sent - msgs0;
    o.bytes = proc.stats().bytes_sent - bytes0;
    // One message per peer per executor call, zero-byte ones included;
    // a read ships each peer its push list, a write each peer's positions.
    const int me = gc.my_logical();
    for (int q = 0; q < 4; ++q) {
      if (q == me) continue;
      const size_t uq = static_cast<size_t>(q);
      o.expected_messages += 2 * 4;
      o.expected_bytes +=
          2 * (rs->push_off[uq].size() * sizeof(double) +
               rsk->push_off[uq].size() * sizeof(long long) +
               ws->send_pos[uq].size() * sizeof(double) +
               wsk->send_pos[uq].size() * sizeof(long long));
    }
  });
  return out;
}

TEST(CommPlanExecutors, ExecutorMatchesGlobalIdReference) {
  // The value each global element holds after a scatter: written by the
  // one iteration whose destination it is.
  std::vector<double> scattered(static_cast<size_t>(kExecN));
  for (Index i = 0; i < kExecN; ++i)
    scattered[static_cast<size_t>((i * 7 + 3) % kExecN)] = exec_value(i);
  // Per-rank simulated clocks of the executors this one replaced, on the
  // same schedules and calls.
  const std::map<std::string, std::vector<double>> clocks = {
      {"BLOCK", {0.0029755200000000002, 0.0029755200000000002,
                 0.0029755200000000002, 0.0029755200000000002}},
      {"CYCLIC(3)", {0.0030651200000000006, 0.00304784, 0.0030564800000000003,
                     0.0030651200000000006}}};
  for (const char* dist : {"BLOCK", "CYCLIC(3)"}) {
    const auto got = run_executors(dist);
    size_t owned = 0;
    for (size_t r = 0; r < got.size(); ++r) {
      const ExecOutcome& o = got[r];
      const std::string what = std::string(dist) + " rank " + std::to_string(r);
      ASSERT_FALSE(o.needs.empty()) << what;
      for (size_t j = 0; j < o.needs.size(); ++j) {
        const Index g = o.needs[j];
        const double w = scattered[static_cast<size_t>(g)];
        EXPECT_EQ(o.gathered[0][j], 100.0 + static_cast<double>(g)) << what;
        EXPECT_EQ(o.gathered_int[0][j], 7 * g - 100) << what;
        EXPECT_EQ(o.gathered[1][j], w) << what;
        EXPECT_EQ(o.gathered_int[1][j], static_cast<long long>(w)) << what;
      }
      for (const auto& [g, v] : o.a_owned)
        EXPECT_EQ(v, scattered[static_cast<size_t>(g)]) << what << " A " << g;
      for (const auto& [g, v] : o.k_owned)
        EXPECT_EQ(v, static_cast<long long>(scattered[static_cast<size_t>(g)]))
            << what << " K " << g;
      owned += o.a_owned.size();
      EXPECT_EQ(o.messages, o.expected_messages) << what;
      EXPECT_EQ(o.bytes, o.expected_bytes) << what;
      EXPECT_GT(o.bytes, 0u) << what;
      EXPECT_EQ(o.clock, clocks.at(dist)[r]) << what;
    }
    EXPECT_EQ(owned, static_cast<size_t>(kExecN)) << dist;
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
