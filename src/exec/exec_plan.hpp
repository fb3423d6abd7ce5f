#pragma once
// Execution plans: the "decide once, run many" split of the SPMD executor.
//
// The paper's generated node programs (§4–§5, Fig. 3) resolve ownership
// once per statement — set_BOUND computes the local loop bounds, and the
// inner loops are strength-reduced local-index loops over preallocated
// storage.  The tree-walking interpreter instead re-evaluated subscript
// trees and re-queried the DAD owner/local algebra for every element on
// every DO-loop trip.  An ExecPlan recovers the compiled shape at run time:
//
//   plan-build (once per statement):
//     * mask and rhs flattened into a compact postfix tape whose loads go
//       through Value* scalar slots and the pre-bound references
//     * every reference given its storage pointer and allocation strides
//   plan-bind (at build, and again whenever the runtime scalars the plan
//     bakes in change — the paper's set_BOUND call with the current K):
//     * guards evaluated, set_BOUND local ranges resolved (including the
//       enumerated CYCLIC(k) case)
//     * every affine subscript strength-reduced to a per-loop-level
//       base + stride (or per-counter table) flat-offset recurrence
//   plan-run (every trip): a counter odometer, incremental offsets, and a
//     stack machine — zero Expr-tree walks, zero DAD calls, zero map
//     lookups per element.
//
// Plans are cached per processor in the statement plan cache
// (exec/statement_plan.hpp), one entry per statement: when the bound,
// guard or subscript scalars change between executions the entry is
// re-bound in place (rebind_exec_plan) instead of rebuilt.  Statements the
// planner declines — PARTI gather/scatter, buffered writes, non-affine
// subscripts — go to the irregular planner or the tree walk; the decline
// itself is cached.
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/spmd_ir.hpp"
#include "exec/exec_env.hpp"
#include "rts/set_bound.hpp"

namespace f90d::exec {

/// One loop level of the planned nest, iterating source-coordinate values.
/// Uniform progressions stay symbolic; block-cyclic CYCLIC(k) intersections
/// that are not arithmetic progressions enumerate their values.
struct PlanLoop {
  std::string var;
  Index count = 0;
  Index val0 = 0;
  Index step = 1;
  std::vector<Index> values;  ///< non-empty = explicit enumeration
  /// set_BOUND local range of a partitioned level (source of the cyclic
  /// references' local index progression); unused otherwise.
  rts::LocalRange bound;

  [[nodiscard]] Index value_at(Index i) const {
    return values.empty() ? val0 + i * step : values[static_cast<size_t>(i)];
  }
};

/// Per-loop-level contribution to a reference's flat local offset: either
/// an affine stride in the loop counter or an explicit per-counter table
/// (enumerated CYCLIC(k) local index lists).
struct OffsetTerm {
  long long stride = 0;
  std::vector<long long> table;

  [[nodiscard]] long long at(Index c) const {
    return table.empty() ? stride * c : table[static_cast<size_t>(c)];
  }
};

/// A pre-bound array reference: storage pointer + offset recurrence.
struct RefPlan {
  enum class Kind {
    kRealDirect,     ///< flat offset into the local REAL chunk (incl. ghosts)
    kIntDirect,      ///< ... INTEGER chunk
    kLogicalDirect,  ///< ... LOGICAL chunk
    kRealSlab,       ///< multicast/transfer slab, offset into Buf::dvals
    kScalarSlot,     ///< broadcast element in Buf::scalar
    kRealIterBuf,    ///< gathered value per iteration, Buf::dvals (irregular)
    kIntIterBuf,     ///< ... Buf::ivals
  };
  Kind kind = Kind::kRealDirect;
  double* dbase = nullptr;
  long long* ibase = nullptr;
  unsigned char* lbase = nullptr;
  Buf* buf = nullptr;            ///< kRealSlab / kScalarSlot
  long long base = 0;            ///< flat offset at all-counters-zero
  std::vector<OffsetTerm> terms; ///< one per loop level
  /// The statement reference this binds; rebinding re-derives base/terms.
  const compile::RefInfo* src = nullptr;
  /// Direct kinds: row-major allocation stride per array dimension.
  std::vector<long long> dim_strides;
};

/// Postfix tape instruction.  Operands live on an explicit Value stack.
enum class Op : unsigned char {
  kConst, kScalar, kVar, kRef, kElem,
  kNeg, kNot,
  kAdd, kSub, kMul, kDiv, kPow,
  kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr,
  kAbs, kSqrt, kExp, kLog, kSin, kCos, kMod, kMin, kMax,
  kToReal, kToInt, kNint,
};

/// A whole-array element access compiled into a tape (kElem): the rank
/// subscript values come off the stack and the element is read directly
/// from storage the executing processor holds in full.  Only fully
/// replicated arrays qualify — the irregular lhs indirection arrays
/// (H(BIN(I)): BIN carries no RefInfo because no communication serves it).
struct ElemRef {
  std::string array;
  const double* dbase = nullptr;  ///< exactly one base is set, by type
  const long long* ibase = nullptr;
  const unsigned char* lbase = nullptr;
  std::vector<long long> lowers;   ///< declared lower bound per dimension
  std::vector<Index> extents;      ///< global extent per dimension
  std::vector<long long> strides;  ///< row-major allocation stride per dim
  std::vector<long long> shifts;   ///< overlap_lo allocation shift per dim
};

struct Ins {
  Op op = Op::kConst;
  int a = 0;                      ///< kVar: loop level; kRef: ref id; kElem: elem id; kMin/kMax: argc
  const Value* scalar = nullptr;  ///< kScalar: bound slot in Env::scalars
  Value cst;                      ///< kConst
};

struct Tape {
  std::vector<Ins> ins;
  std::vector<ElemRef> elems;  ///< kElem descriptors, addressed by Ins::a
  [[nodiscard]] bool empty() const { return ins.empty(); }
};

// --- shared Value semantics --------------------------------------------------
// One implementation serves both the plan tape runner and the tree-walking
// fallback in interp/ — the two execution paths must stay bit-identical,
// so they share the operator tables instead of mirroring them.

[[nodiscard]] Value un_value(Op op, const Value& v);
[[nodiscard]] Value bin_value(Op op, const Value& l, const Value& r);
[[nodiscard]] Value intrinsic_value(Op op, std::span<const Value> args);
[[nodiscard]] Op bin_op_of(ast::BinOpKind k);
/// Intrinsic name -> op + required arg count (-1 = one or more).
/// False when the name is not a supported elementwise intrinsic.
[[nodiscard]] bool intrinsic_op_of(const std::string& n, Op& op, int& argc);
/// Trip count of the inclusive triplet lo:hi:st (st != 0).
[[nodiscard]] Index trip_count(Index lo, Index hi, Index st);

/// Evaluate a postfix tape against bound references.  `varvals` holds the
/// current loop-variable values (kVar), `offs` the flat offset of each
/// reference (kRef, indexed by Ins::a).  Shared by run_exec_plan and the
/// irregular inspector/executor runners.
[[nodiscard]] Value eval_tape(const Tape& t, const std::vector<RefPlan>& refs,
                              const Index* varvals, const long long* offs,
                              std::vector<Value>& stack);

struct ExecPlan {
  int stmt_id = -1;
  /// Guards rejected this processor: the local loop is empty by ownership.
  bool masked_out = false;
  std::vector<PlanLoop> loops;
  std::vector<RefPlan> refs;  ///< read references addressed by kRef
  RefPlan lhs;
  Tape mask;                  ///< empty = unconditional
  Tape rhs;
  /// Arrays whose storage the plan binds (statement-cache invalidation).
  std::vector<std::string> arrays;
  /// Tapes and references were built.  A plan first bound to an empty
  /// nest has none and must be rebuilt once its nest becomes non-empty.
  bool has_body = false;
};

using PlanPtr = std::shared_ptr<ExecPlan>;

/// Build outcome.  A null plan is a decline: the statement runs on the
/// tree-walk fallback.  `structural` declines do not depend on runtime
/// scalar values, so the driver can skip planning the statement for good.
struct PlanEntry {
  PlanPtr plan;
  std::string decline;
  bool structural = false;
};

/// The names of every runtime scalar a statement's plan bakes in (loop
/// bounds, guard subscripts, subscript runtime terms): the statement plan
/// cache's key.  Static per statement — only the values change between
/// executions — so callers memoize it.  Scalars that only appear in the
/// mask/rhs are loaded through Value* slots at run time and do not key the
/// plan.
[[nodiscard]] std::vector<std::string> plan_key_scalars(
    const compile::SpmdStmt& s, const Env& env);

/// Lower one kForall statement into a plan for this processor, or decline.
[[nodiscard]] PlanEntry build_exec_plan(const compile::SpmdStmt& s, Env& env);

/// Re-bind `p` (built by build_exec_plan for `s`) to the current values of
/// its key scalars, in place: guards, set_BOUND ranges and every
/// reference's base offset and offset terms.  Tapes, storage pointers and
/// strides are kept.  The result equals a fresh build under the same
/// values.  False when the new values change the plan's structure — the
/// nest becomes non-empty for a plan built without a body, or the planner
/// would decline — and the caller must rebuild.
[[nodiscard]] bool rebind_exec_plan(const compile::SpmdStmt& s, Env& env,
                                    ExecPlan& p);

/// Reusable run_exec_plan working storage (one per node program): keeps
/// the many small nests of triangular workloads allocation-free.
struct PlanScratch {
  std::vector<Index> counters;
  std::vector<Index> varvals;
  std::vector<long long> offs;
  std::vector<long long> contrib;
  std::vector<Value> stack;
};

/// Run the planned loop nest.  Returns the number of iterations executed
/// (mask-rejected iterations included, matching the tree walk's cost
/// charging).  Pre/post communication actions are NOT run here — the
/// driver runs them around the call.
[[nodiscard]] Index run_exec_plan(const ExecPlan& p, PlanScratch& scratch);

/// Process-wide, cross-run store of the *pointer-free* plan metadata
/// (service mode).  Plan bodies bind raw storage pointers (RefPlan bases,
/// Buf and Value slots) into one run's Env, so they can never outlive a
/// run; what CAN be shared is the per-statement analysis that is identical
/// for every run of the same compiled artifact: structural declines (skip
/// planning for good) and key-scalar name lists (skip plan_key_scalars).
/// Entries are namespaced by a caller-chosen prefix — the artifact content
/// hash — so statement ids from different programs never collide; one
/// statement cache per node covers both planners, so one namespace per
/// artifact suffices.  Thread-safe with a shared-lock read path.
class SharedPlanMeta {
 public:
  struct Stats {
    long long decline_hits = 0;  ///< structural declines answered here
    long long scalar_hits = 0;   ///< key-scalar lists answered here
    long long installs = 0;
  };

  [[nodiscard]] bool declined_structurally(const std::string& ns,
                                           int stmt_id) const;
  void record_structural_decline(const std::string& ns, int stmt_id);

  /// Copy the memoized key-scalar list for (ns, stmt_id) into `out`.
  bool lookup_key_scalars(const std::string& ns, int stmt_id,
                          std::vector<std::string>& out) const;
  void install_key_scalars(const std::string& ns, int stmt_id,
                           const std::vector<std::string>& scalars);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  static std::string slot(const std::string& ns, int stmt_id);
  mutable std::shared_mutex mu_;
  std::set<std::string> declines_;
  std::unordered_map<std::string, std::vector<std::string>> scalars_;
  mutable std::mutex stats_mu_;
  mutable Stats stats_;
};

}  // namespace f90d::exec
