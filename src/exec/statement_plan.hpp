#pragma once
// The statement plan cache: one per-node memo of everything the node
// program decides once per FORALL or reduction (paper §4–§6) — set_BOUND
// ranges and strength-reduced references (ExecPlan, whose sink is an lhs
// store, a reduction accumulator, a concatenation payload or a PARTI
// scatter stream, and whose gathered reads carry their inspector tapes),
// the compiled communication (CommPlans StmtPlan: pre-action slots, PARTI
// gathers among them, and the concat write-back) and the JIT kernel
// attachment (native::Attachment).
//
// One entry per statement id: a plan (ExecPlan + comm slots + native
// attachment) or a decline, which runs the whole statement on the tree
// walk.  Its key is the exact values of the runtime scalars the plan bakes
// in (plan_key_scalars), read through slots into the node's scalar table
// and compared by kind and bit pattern.  When they change, the entry is
// re-bound in place (rebind_statement_plan) — the generated node program
// calls set_BOUND with the current K rather than emitting a loop per K —
// and only a structural change, or a decline, rebuilds it in its slot.
// One invalidation rule: invalidate_array drops a whole entry as soon as
// any of its parts binds the array.  See docs/EXECUTION.md.
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/comm_plan.hpp"
#include "native/native_exec.hpp"

namespace f90d::exec {

/// One cache entry: a plan, or a decline when `plan` is null.
struct StatementPlan {
  PlanPtr plan;           ///< compiled loop nest and tapes
  std::string decline;    ///< decline: the planner's reason
  CommPlans::StmtPlan comm;                    ///< communication
  std::unique_ptr<native::Attachment> native;  ///< first native run
};

/// Build one statement's entry.  A plan gets its communication compiled
/// through `comm` right away, under the same key scalars; a slot that
/// cannot be baked declines the entry.
[[nodiscard]] StatementPlan build_statement_plan(
    const compile::SpmdStmt& s, Env& env, CommPlans& comm,
    std::span<const std::string> key_names);

/// Re-bind `e` (built for `s`) in place to the key scalars' current
/// values: the plan's guards, ranges and reference offsets, the comm
/// slots' roots, offsets and tables, and the native attachment's packed
/// arguments (the attachment keeps its kernel while the plan's structural
/// key is unchanged, and is dropped for a re-attach otherwise).  False
/// when the new values change the entry's structure, a comm slot cannot
/// be re-baked, or `e` is a decline: the caller rebuilds it.
[[nodiscard]] bool rebind_statement_plan(const compile::SpmdStmt& s,
                                         Env& env, CommPlans& comm,
                                         std::span<const std::string> key_names,
                                         StatementPlan& e);

/// The one counter set, split by entry kind: an irregular entry is a plan
/// with PARTI iteration-buffer reads (ExecPlan::gathers: schedule1 and
/// schedule2) or a kScatter sink, a regular one any other plan.
struct StatementPlanStats {
  struct Kind {
    int hits = 0;     ///< lookups answered by the live entry, rebinds included
    int rebinds = 0;  ///< hits that re-bound the entry to new key values
    int misses = 0;   ///< entries built
    int invalidations = 0;  ///< entries dropped by invalidate_array
  };
  Kind regular, irregular, declined;
  /// Native attachments dropped: with their entry (invalidated or
  /// rebuilt), or by a rebind whose re-pack refused.
  long long native_invalidations = 0;
};

class StatementPlanCache {
 public:
  /// Make a fresh entry under the key scalars' current values.
  using Build =
      std::function<StatementPlan(std::span<const std::string> key_names)>;
  /// Re-bind an entry in place; false = rebuild it.
  using Rebind = std::function<bool(StatementPlan&,
                                    std::span<const std::string> key_names)>;

  /// The live entry of `s`.  The first lookup resolves the statement's key
  /// scalars (plan_key_scalars) to slots in `env.scalars` and builds the
  /// entry (a miss).  Later lookups compare
  /// the slots' values with the ones the entry is bound to: equal returns
  /// it (a hit); different re-binds it (a hit and a rebind) or, when
  /// `rebind` refuses, rebuilds it in its slot (a miss).  The entry stays
  /// at the same address until invalidate_array drops it.
  StatementPlan& get(const compile::SpmdStmt& s, const Env& env,
                     const Build& build, const Rebind& rebind);

  /// Drop every entry any part of which binds `array` (plan storage, comm
  /// slots, native attachment).  Must be called by any operation that may
  /// replace an array's descriptor or storage (redistribution/remap).
  void invalidate_array(const std::string& array);

  [[nodiscard]] const StatementPlanStats& stats() const { return stats_; }
  /// Live entries (at most one per statement).
  [[nodiscard]] std::size_t size() const;

 private:
  /// Everything the cache keeps for one statement id.
  struct Slot {
    bool keyed = false;  ///< key names resolved to slots
    std::vector<std::string> key_names;
    std::vector<const Value*> key_slots;  ///< into Env::scalars
    std::vector<Value> bound;             ///< values the entry is bound to
    std::unique_ptr<StatementPlan> entry;
  };

  Slot& slot_of(int stmt_id);
  void resolve_key(const compile::SpmdStmt& s, const Env& env, Slot& slot);
  StatementPlanStats::Kind& kind_of(const StatementPlan& e);

  std::vector<Slot> slots_;  ///< by statement id
  StatementPlanStats stats_;
};

}  // namespace f90d::exec
