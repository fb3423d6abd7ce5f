#pragma once
// The SPMD node-program executor.  Runs the compiled IR on every simulated
// processor — the moral equivalent of compiling the emitted Fortran77+MP
// with a node compiler and running it on the 1993 machines.
//
// Two execution modes:
//  * full:      every element is computed; results are gathered for
//               verification against sequential oracles.
//  * skeleton:  cost-faithful execution for the big benchmark sizes — loop
//               bounds, guards and every communication action run for real
//               (messages carry their true sizes), but per-element
//               arithmetic is charged in bulk instead of interpreted.
//               FORALLs with owner-computes lhs and no schedule-based
//               actions skip iteration entirely.
#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "compile/driver.hpp"
#include "machine/sim_machine.hpp"

namespace f90d::parti {
class SharedScheduleSession;
}

namespace f90d::interp {

using rts::Index;

struct RunOptions {
  bool skeleton = false;
  bool schedule_cache = true;
  /// Compile FORALLs to cached statement plans (exec/statement_plan.hpp:
  /// execution plan plus compiled communication, PARTI gathers included)
  /// before running them; off forces the tree-walking fallback everywhere,
  /// the reference semantics for differential testing and ablation
  /// benches.  Skeleton mode never plans.
  bool exec_plans = true;
  /// Lower cached plans further to JIT-compiled C++ node functions
  /// (src/native/) and run those; plans the lowerer declines — or every
  /// plan, when no toolchain is available — run on the tape interpreter
  /// exactly as with the flag off.  Requires exec_plans.
  bool native_backend = false;
  /// Service mode: this run's collective view of the process-wide schedule
  /// store (src/parti/schedule_cache.hpp).  Per-run object owned by the
  /// caller; run_compiled calls finish() on it after the machine run so
  /// complete schedule sets are installed for later runs.  Null = no
  /// cross-run sharing (the default, and the behaviour all non-service
  /// callers keep).
  parti::SharedScheduleSession* schedule_session = nullptr;
  /// Namespace for shared-cache keys: must identify the compiled artifact
  /// AND the initial data (e.g. "<content-hash>|<init-tag>") — schedule
  /// contents depend on both.  Required when schedule_session is set.
  std::string cache_prefix;
};

/// Per-array initializers: global (0-based) indices -> value.
struct Init {
  std::map<std::string, std::function<double(std::span<const Index>)>> real;
  std::map<std::string, std::function<long long(std::span<const Index>)>> ints;
  std::map<std::string, std::function<bool(std::span<const Index>)>> logical;
  std::map<std::string, double> scalars;
};

struct ProgramResult {
  machine::RunResult machine;
  /// Final global contents (row-major) of every REAL/INTEGER array,
  /// gathered from processor 0's perspective (skipped in skeleton mode).
  std::map<std::string, std::vector<double>> real_arrays;
  std::map<std::string, std::vector<long long>> int_arrays;
  std::map<std::string, double> scalars;
  std::vector<std::string> printed;
  int schedule_hits = 0;
  int schedule_misses = 0;
  int schedule_invalidations = 0;
  /// Service mode: local misses answered by the cross-run shared schedule
  /// store (processor 0's counter; zero unless RunOptions::schedule_session
  /// was set).
  int shared_schedule_hits = 0;
  /// Inspector/executor observability (processor 0's node counters):
  /// schedules actually built by an inspector (= misses plus uncached
  /// builds) and remote payload bytes moved by the read (gather) and write
  /// (scatter) executors, self-copies excluded.
  long long schedules_built = 0;
  long long gather_bytes = 0;
  long long scatter_bytes = 0;
  /// Statement-plan cache statistics (processor 0's cache; the caches are
  /// per-processor but see the same statement sequence), split by entry
  /// kind.  Hits are lookups answered by the statement's live entry,
  /// rebinds the subset that re-bound it in place to new key-scalar values
  /// (a new pivot K, say); misses are entry builds.  Irregular entries
  /// (plans with PARTI reads — schedule1 or schedule2 — or a scatter
  /// sink): planned-inspector reuse across DO trips.
  int irregular_hits = 0;
  int irregular_rebinds = 0;
  int irregular_misses = 0;
  int irregular_invalidations = 0;
  /// Regular entries (every other plan).  Memoized declines count in
  /// neither family.
  int plan_hits = 0;
  int plan_rebinds = 0;
  int plan_misses = 0;
  int plan_invalidations = 0;
  /// Live statement-cache entries at run end, all kinds (at most one per
  /// statement).
  int plan_entries = 0;
  /// Native-backend statistics: processor 0's per-node counters (the
  /// invalidations are kernel attachments dropped with their statement-
  /// cache entry or by a rebind that could not re-pack them), plus this
  /// run's deltas of the process-global JIT cache (codegen-cache hits,
  /// compiler invocations and wall time, dlopen count).  All zero unless
  /// RunOptions::native_backend is set.
  long long native_runs = 0;
  long long native_attaches = 0;
  long long native_fallbacks = 0;
  long long native_invalidations = 0;
  long long native_cache_hits = 0;
  long long native_compiles = 0;
  long long native_dlopens = 0;
  double native_compile_ms = 0;
  /// Communication-plan statistics (processor 0): statement-cache entries
  /// of both kinds (plan_* + irregular_*; each owns its compiled
  /// communication) served / built / dropped after a redistribute/remap,
  /// and payload bytes moved through coalesced contiguous-memcpy
  /// pack/unpack runs.  PARTI schedules are counted by schedule_* alone;
  /// tree-walk runs build no comm plans.
  long long comm_plan_hits = 0;
  long long comm_plan_misses = 0;
  long long comm_plan_invalidations = 0;
  long long comm_plan_fast_bytes = 0;
  /// Pooled payload buffers reused from processor 0's free list (steady
  /// state: every message payload; zero fresh heap allocation per message).
  long long pool_reuses = 0;
  /// FORALL and reduction executions on processor 0 that ran on the
  /// tree-walking fallback (every one with exec_plans off or in skeleton
  /// mode; globally zero-trip FORALLs run on neither path).
  long long tree_walk_stmts = 0;
};

/// Execute the compiled program on `machine`.  Collective: the machine size
/// must equal the compiled logical grid size.
[[nodiscard]] ProgramResult run_compiled(const compile::Compiled& compiled,
                                         machine::SimMachine& machine,
                                         const Init& init = {},
                                         const RunOptions& options = {});

}  // namespace f90d::interp
