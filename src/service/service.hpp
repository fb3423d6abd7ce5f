#pragma once
// The resident compile-and-run service core (docs/SERVICE.md).
//
// Every f90dc invocation used to re-parse, re-lower, re-optimize, and
// re-JIT from scratch, and the plan/schedule/native caches died with the
// process.  The service core lifts the paper's amortize-once-reuse-forever
// idea (PARTI schedule reuse, §7) to the whole compile pipeline:
//
//   * compiled artifacts are immutable and content-hash keyed: one
//     `Artifact` (a shared_ptr<const compile::Compiled>) serves every
//     request with the same source + compile options, and identical
//     in-flight requests coalesce onto one compile (ArtifactCache);
//   * runs share the process-global caches: the PARTI schedule store
//     (parti::SharedScheduleStore) and the native JIT cache
//     (native::NativeCache) are both thread-safe, so a worker pool can
//     run many simulations concurrently and warm requests never
//     serialize on a cache lock;
//   * one code path: the CLI (examples/f90dc.cpp), the test harness
//     (tests/harness.hpp) and the daemon (examples/f90dcd.cpp) all go
//     through compile_and_run / ServiceCore::submit.
//
// ServiceCore::submit never throws: compile and run failures come back as
// Outcome::error (and failed artifacts are memoized, like NativeCache
// failures).  The free compile_and_run propagates compiler diagnostics as
// exceptions — the behaviour single-shot callers always had.
#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/driver.hpp"
#include "interp/interp.hpp"
#include "machine/topology.hpp"
#include "parti/schedule_cache.hpp"

namespace f90d::service {

/// Everything about one compile-and-run request except the source text.
/// The compile-relevant fields (grid, codegen) key the artifact; the rest
/// configure the simulated machine and the run.
struct RunSpec {
  std::vector<int> grid;             ///< PROCESSORS override (-p); empty = directive
  compile::CodegenOptions codegen;   ///< §7 optimization switches
  machine::CostModel cost = machine::CostModel::ipsc860();
  interp::Init init;                 ///< array/scalar initializers
                                     ///< (in-process callers; wire requests
                                     ///< zero-fill)
  /// Names the initial data for shared-cache keys.  Schedule contents
  /// depend on the Init (INDIRECT map tables, indirection arrays), so two
  /// runs may share schedules only under the same tag.  Daemon requests
  /// zero-fill and use the default.
  std::string init_tag = "zero";
  interp::RunOptions run;            ///< skeleton/backends; the core fills
                                     ///< the shared-cache fields itself
  bool compile_only = false;
};

/// One immutable compiled artifact.  `compiled` is null when the compile
/// failed; the diagnostic is memoized in `error` (same source + options
/// deterministically produce the same diagnostic).
struct Artifact {
  std::string key;
  std::shared_ptr<const compile::Compiled> compiled;
  std::string error;
  double compile_ms = 0;
};
using ArtifactPtr = std::shared_ptr<const Artifact>;

/// Stable text encoding of the compile-relevant options: part of the
/// artifact key, and echoed into stats for debugging.
[[nodiscard]] std::string options_tag(const RunSpec& spec);

/// Content hash (FNV-1a over source + options_tag) in hex.  The artifact
/// key, and the prefix namespace of every shared cache entry the run
/// touches.
[[nodiscard]] std::string artifact_key(const std::string& source,
                                       const RunSpec& spec);

/// Compile `source` once (timed, diagnostics captured).  Never throws.
[[nodiscard]] ArtifactPtr compile_artifact(const std::string& source,
                                           const RunSpec& spec);

/// Thread-safe artifact memo with in-flight coalescing: the first thread
/// to ask for a key compiles it; threads asking for the same key while it
/// compiles block on the shared future and reuse the result (`coalesced`);
/// later threads are plain `hits`.
class ArtifactCache {
 public:
  struct Stats {
    long long hits = 0;
    long long misses = 0;
    long long coalesced = 0;
  };

  ArtifactPtr get_or_compile(const std::string& source, const RunSpec& spec);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_future<ArtifactPtr>> map_;
  Stats stats_;
};

/// The result of one request.
struct Outcome {
  bool ok = false;
  std::string error;
  std::string key;                ///< artifact content hash
  bool artifact_hit = false;      ///< artifact came from the cache
  bool artifact_coalesced = false;///< joined an in-flight compile
  double compile_ms = 0;          ///< inside the compiler (0 on a hit)
  double run_ms = 0;              ///< host wall time of the simulated run
  int nprocs = 0;
  std::shared_ptr<const compile::Compiled> compiled;
  interp::ProgramResult result;
};

/// Single-shot compile-and-run (no shared caches): the common pipeline the
/// CLI and the test harness use.  Compiler diagnostics propagate as Error.
[[nodiscard]] Outcome compile_and_run(const std::string& source,
                                      const RunSpec& spec);

/// Run an already-compiled artifact.  `ro` is taken as-is (shared-cache
/// fields included), so ServiceCore and compile_and_run share this path.
[[nodiscard]] Outcome run_artifact(const ArtifactPtr& artifact,
                                   const RunSpec& spec,
                                   const interp::RunOptions& ro);

/// Request admission quotas (docs/SERVICE.md).
struct ServiceOptions {
  std::size_t max_source_bytes = 1u << 20;  ///< reject larger sources
  int max_procs = 256;                      ///< reject larger grids
  /// Attach the shared schedule store to every run (the point of the
  /// service; off only for differential tests of the sharing itself).
  bool share_caches = true;
};

/// Process-resident service state: the artifact cache plus the cross-run
/// schedule and plan-metadata stores.  submit() is safe to call from many
/// worker threads concurrently.
class ServiceCore {
 public:
  explicit ServiceCore(ServiceOptions opt = {});

  /// Compile (or fetch) the artifact for (source, spec) and run it.
  /// Never throws; failures come back in Outcome::error.
  [[nodiscard]] Outcome submit(const std::string& source, const RunSpec& spec);

  [[nodiscard]] const ServiceOptions& options() const { return opt_; }
  [[nodiscard]] ArtifactCache& artifacts() { return artifacts_; }
  [[nodiscard]] parti::SharedScheduleStore& schedules() { return schedules_; }
  [[nodiscard]] long long requests() const { return requests_.load(); }
  [[nodiscard]] long long failures() const { return failures_.load(); }

  /// Aggregate service statistics as one JSON document (the daemon's STATS
  /// verb and the load generator's per-phase records).
  [[nodiscard]] std::string stats_json() const;

 private:
  ServiceOptions opt_;
  ArtifactCache artifacts_;
  parti::SharedScheduleStore schedules_;
  std::atomic<long long> requests_{0};
  std::atomic<long long> failures_{0};
};

}  // namespace f90d::service
