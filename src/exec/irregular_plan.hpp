#pragma once
// Irregular execution plans: the PARTI inspector/executor (paper §6,
// CHAOS/PARTI runtime) lifted into the "decide once, run many" plan layer.
//
// A regular ExecPlan declines any statement with schedule-based
// communication (gathers of vector-subscripted reads, scatters of
// vector-subscripted writes).  An IrregularPlan accepts exactly those
// statements and splits them the way the paper's inspector/executor does:
//
//   plan-build (once per statement; re-bound in place like a regular plan
//     when its key scalars change): loop nest, guards and every *affine*
//     reference are resolved exactly like a regular plan; each gathered
//     read and the scattered write keep a
//     GlobalIndexer — their subscript expressions compiled to postfix
//     tapes that fold to 0-based flat global element ids.
//   inspector (only on a schedule-cache miss): run_irregular_needs
//     replays the local iteration space through the subscript tapes to
//     enumerate the off-processor elements, in exactly the order the
//     tree walk enumerates them, so both paths build identical PARTI
//     schedules (and charge identical simulated communication).
//   executor (every trip): the gathered values land in iteration-order
//     buffers (RefPlan::kRealIterBuf/kIntIterBuf) and the compute loop is
//     a plain run_exec_plan; scattered writes evaluate the rhs per
//     iteration into (value, destination-id) streams for schedule3.
//
// Schedules themselves stay in the interpreter's ScheduleCache — both
// execution paths share one cache per node, keyed on the schedule key
// plus runtime scalars plus indirection-array write versions, so hit/miss
// behaviour (a collective property) is identical no matter which path
// runs the statement.  See docs/EXECUTION.md for the invalidation
// contract.
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_plan.hpp"

namespace f90d::exec {

/// Subscript tapes of one vector-subscripted reference, folded to 0-based
/// flat global element ids (row-major over the array's global extents —
/// the id space PARTI schedules speak).
struct GlobalIndexer {
  std::string array;                ///< for out-of-range diagnostics
  std::vector<Tape> subs;           ///< one per array dimension
  std::vector<long long> lowers;    ///< declared lower bound per dim
  std::vector<Index> extents;       ///< global extent per dim
  std::vector<long long> gstrides;  ///< row-major global strides
};

/// One gathered read: the kGather action it belongs to, the statement ref
/// it buffers, and the indexer that enumerates its needs.
struct IrrRead {
  const compile::CommAction* action = nullptr;
  int ref_id = -1;    ///< into SpmdStmt::refs
  int buffer_id = -1; ///< Env::bufs slot the executor fills
  GlobalIndexer idx;
};

struct IrregularPlan {
  /// Loop nest, affine references, rhs/mask tapes and (for a direct lhs)
  /// the bound write reference.  Gathered reads appear in core.refs as
  /// iteration-order buffer kinds.
  ExecPlan core;
  bool lhs_buffered = false;
  GlobalIndexer lhs_idx;        ///< destination ids, when lhs_buffered
  /// Gathers in descending ref_id order: inner indirection arrays resolve
  /// before the references that subscript with them (matches the tree
  /// walk's pre-action ordering).
  std::vector<IrrRead> reads;
  const compile::CommAction* scatter = nullptr;  ///< when lhs_buffered
  // A plan built for an empty local nest (or rejected by the guards) has
  // no body (core.has_body): no tapes or indexers, but the reads/scatter
  // metadata is valid — this processor still participates in the
  // collective schedule builds, with empty needs.
};

using IrrPlanPtr = std::shared_ptr<IrregularPlan>;

/// Build outcome; mirrors PlanEntry.  A null plan falls back to the tree
/// walk; the statement plan cache memoizes the decline.
struct IrrPlanEntry {
  IrrPlanPtr plan;
  std::string decline;
  bool structural = false;
};

/// Lower one schedule-bearing kForall into an irregular plan, or decline
/// (no schedule actions at all, schedule1-style reads, masked scatters).
[[nodiscard]] IrrPlanEntry build_irregular_plan(const compile::SpmdStmt& s,
                                                Env& env);

/// rebind_exec_plan for an irregular plan: re-binds the core nest and its
/// affine and iteration-buffer references.  Indexers and tapes read their
/// scalars through slots and are kept.  False = rebuild.
[[nodiscard]] bool rebind_irregular_plan(const compile::SpmdStmt& s, Env& env,
                                         IrregularPlan& p);

/// Inspector: append the flat global id of `read`'s element for every
/// local iteration (mask ignored, exactly like the tree walk's needs
/// enumeration).  Only called when the schedule cache misses — the
/// whole point of the inspector/executor split.  No-op on masked-out or
/// empty nests.
void run_irregular_needs(const IrregularPlan& p, const IrrRead& read,
                         PlanScratch& scratch, std::vector<Index>& out);

/// Executor, buffered-lhs form: evaluate the rhs per local iteration and
/// stream (value, destination flat global id) pairs for the scatter.
/// Returns the iteration count for cost charging.
[[nodiscard]] Index run_irregular_scatter(const IrregularPlan& p,
                                          PlanScratch& scratch,
                                          std::vector<double>& values,
                                          std::vector<Index>& dest_ids);

}  // namespace f90d::exec
