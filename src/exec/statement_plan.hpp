#pragma once
// The statement plan cache: one per-node memo of everything the node
// program decides once per FORALL (paper §4–§6) — set_BOUND ranges and
// strength-reduced references (ExecPlan), the PARTI inspector/executor
// split (IrregularPlan), the compiled pre-communication (CommPlans
// StmtPlan) and the JIT kernel attachment (native::Attachment).
//
// One entry per (statement id × baked runtime scalars), keyed by
// plan_key_into.  An entry is regular (ExecPlan + comm slots + native
// attachment), irregular (IrregularPlan) or a memoized decline.  Declines
// both planners make independently of runtime scalars are also indexed
// by statement id, so the driver skips key construction for them.  One
// invalidation rule: invalidate_array drops a whole entry as soon as any
// of its parts binds the array.  See docs/EXECUTION.md.
#include <functional>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/comm_plan.hpp"
#include "exec/irregular_plan.hpp"
#include "native/native_exec.hpp"

namespace f90d::exec {

/// One cache entry.  At most one of `plan` / `irregular` is set; neither
/// set is a decline.
struct StatementPlan {
  PlanPtr plan;           ///< regular: compiled loop nest and tapes
  IrrPlanPtr irregular;   ///< irregular: inspector/executor plan
  std::string decline;    ///< decline: both planners' reasons
  /// Decline independent of runtime scalars (both planners said so).
  bool structural = false;
  CommPlans::StmtPlan comm;                    ///< regular: pre-communication
  std::unique_ptr<native::Attachment> native;  ///< regular: first native run
};

/// Build one statement's entry: the regular planner first, the irregular
/// planner when the regular one declines (at most one of them accepts a
/// given statement).  A regular plan gets its pre-communication compiled
/// through `comm` right away, under the same key scalars.
[[nodiscard]] StatementPlan build_statement_plan(
    const compile::SpmdStmt& s, Env& env, CommPlans& comm,
    std::span<const std::string> key_names);

/// The one counter set, split by entry kind.
struct StatementPlanStats {
  struct Kind {
    int hits = 0;           ///< lookups answered by an existing entry
    int misses = 0;         ///< entries built
    int invalidations = 0;  ///< entries dropped by invalidate_array
  };
  Kind regular, irregular, declined;
  /// Dropped entries that carried a native attachment.
  long long native_invalidations = 0;
  /// Declines and key-scalar lists answered by the SharedPlanMeta store.
  int shared_hits = 0;
};

class StatementPlanCache {
 public:
  /// Look up `key` (built by plan_key_into for `stmt_id`); on a miss run
  /// `build` and keep its result.  The returned entry stays valid until
  /// it is invalidated.
  StatementPlan& get_or_build(int stmt_id, const std::string& key,
                              const std::function<StatementPlan()>& build);

  /// True when `stmt_id` was declined for reasons independent of runtime
  /// scalar values.  Consults the attached SharedPlanMeta on a local miss
  /// and pulls hits local.
  [[nodiscard]] bool declined_structurally(int stmt_id);

  /// Memoized plan_key_scalars result for `stmt_id` (the name list is
  /// static per statement; only the formatted values change per call).
  const std::vector<std::string>& key_scalars(
      int stmt_id, const std::function<std::vector<std::string>()>& collect);

  /// Drop every entry any part of which binds `array` (plan storage, comm
  /// slots, native attachment).  Must be called by any operation that may
  /// replace an array's descriptor or storage (redistribution/remap).
  void invalidate_array(const std::string& array);

  [[nodiscard]] const StatementPlanStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Attach the cross-run metadata store (service mode).  `ns` identifies
  /// the compiled artifact; statement ids are unique within it.  Null
  /// detaches.
  void set_shared(SharedPlanMeta* meta, std::string ns) {
    shared_ = meta;
    shared_ns_ = std::move(ns);
  }

 private:
  StatementPlanStats::Kind& kind_of(const StatementPlan& e);

  std::unordered_map<std::string, StatementPlan> map_;
  std::set<int> structural_declines_;
  std::unordered_map<int, std::vector<std::string>> key_scalars_;
  SharedPlanMeta* shared_ = nullptr;
  std::string shared_ns_;
  StatementPlanStats stats_;
};

}  // namespace f90d::exec
