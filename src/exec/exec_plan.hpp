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
//     * every name the bind step reads resolved: bounds and subscript
//       terms to scalar tapes, arrays to descriptor pointers
//   plan-bind (at build, and again whenever the runtime scalars the plan
//     bakes in change — the paper's set_BOUND call with the current K):
//     * guards evaluated, set_BOUND local ranges resolved (including the
//       enumerated CYCLIC(k) case)
//     * every affine subscript strength-reduced to a per-loop-level
//       base + stride (or per-counter table) flat-offset recurrence
//   plan-run (every trip): a counter odometer, incremental offsets, and a
//     stack machine — zero Expr-tree walks, zero DAD calls, zero map
//     lookups per element.  The value goes to the plan's sink: the lhs
//     store of a FORALL, a reduction accumulator (Table 3's local loop
//     before reduce_tree), or the payload of a replicated lhs's
//     concatenation write-back.
//
// PARTI reads and writes (paper §5.3: schedule1, schedule2, schedule3)
// plan like any other statement: an iteration-buffer read — a
// precomp_read, temporary_shift or gather — becomes an iteration-order
// buffer reference plus a GlobalIndexer whose walk over the planned nest
// is this processor's inspector (run_gather_needs, only on a
// schedule-cache miss), and a scattered or postcomp_write lhs becomes the
// kScatter sink, streaming (value, destination id) pairs for the
// post-action.
//
// Plans are cached per processor in the statement plan cache
// (exec/statement_plan.hpp), one entry per statement: when the bound,
// guard or subscript scalars change between executions the entry is
// re-bound in place (rebind_exec_plan) instead of rebuilt.  A statement
// the planner declines — a masked or gathered concatenation, a non-affine
// shape, a value it cannot bake — runs whole on the tree walk; the
// decline is cached under its key values like any entry.
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "compile/spmd_ir.hpp"
#include "exec/exec_env.hpp"
#include "rts/set_bound.hpp"

namespace f90d::exec {

/// Iteration-buffer pre-actions — PARTI precomputed reads, gathers and
/// temporary shifts — fill a statement's read buffers through schedules;
/// every other pre-action fills ghost areas, broadcasts or slabs.
[[nodiscard]] inline bool is_iteration_buffer(compile::CommKind k) {
  return k == compile::CommKind::kPrecompRead ||
         k == compile::CommKind::kGather ||
         k == compile::CommKind::kTemporaryShift;
}

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

/// Fortran forbids a zero FORALL stride and a zero DO step: throws an
/// RtsError naming index variable `var` when `st` is zero.
void require_nonzero_stride(const std::string& var, Index st);

/// The set_BOUND level derivation (§4, Fig. 3): the source-coordinate
/// values processor `coords` iterates for FORALL level `ip` over the
/// triplet lo:hi:st, written into `out`.  A set_BOUND-partitioned level
/// passes its partitioning array's descriptor `dad` and declared lower
/// bound `lower` on ip.dim (null otherwise); a synthetic grid dimension
/// takes its BLOCK chunk of the trip count; an unpartitioned level runs the
/// whole triplet.  BLOCK and CYCLIC ranges stay a val0/step progression.
/// CYCLIC(k) and INDIRECT local ranges are mapped through mu^-1 element by
/// element into `values` (reusing its capacity), which is cleared again
/// when the list is a progression.  The tree walk, the plans and the comm
/// plans all derive their loop levels here.  Throws on a zero stride.
void derive_level(const compile::IndexPartition& ip, const rts::Dad* dad,
                  long long lower, const comm::ProcGrid& grid,
                  std::span<const int> coords, Index lo, Index hi, Index st,
                  PlanLoop& out);

/// The processor-guard test: does processor `coords` own the 0-based global
/// index `val` of dimension `dim` of `dad`?
[[nodiscard]] bool guard_owns(const rts::Dad& dad, int dim, Index val,
                              std::span<const int> coords);

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

/// Postfix tape instruction.  Operands live on an explicit Value stack.
enum class Op : unsigned char {
  kConst, kScalar, kVar, kRef,
  kNeg, kNot,
  kAdd, kSub, kMul, kDiv, kPow,
  kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr,
  kAbs, kSqrt, kExp, kLog, kSin, kCos, kMod, kMin, kMax,
  kToReal, kToInt, kNint,
};

struct Ins {
  Op op = Op::kConst;
  int a = 0;                      ///< kVar: loop level; kRef: ref id; kMin/kMax: argc
  const Value* scalar = nullptr;  ///< kScalar: bound slot in Env::scalars
  Value cst;                      ///< kConst
};

struct Tape {
  std::vector<Ins> ins;
  [[nodiscard]] bool empty() const { return ins.empty(); }
};

/// A pre-bound array reference: how it is reached, its element type and
/// storage pointer, and its offset recurrence.
struct RefPlan {
  /// kDirect: `data` is the array's local piece (ghosts included);
  /// kIterBuf / kSlabBuf: the elements are `buf`'s column; kScalarSlot:
  /// the broadcast element is `buf`'s scalar.
  compile::Access access = compile::Access::kDirect;
  ast::BaseType ty = ast::BaseType::kReal;  ///< the referenced array's
  void* data = nullptr;                     ///< kDirect storage
  Buf* buf = nullptr;                       ///< the buffer kinds
  long long base = 0;            ///< flat offset at all-counters-zero
  std::vector<OffsetTerm> terms; ///< one per loop level
  /// The statement reference this binds; rebinding re-derives base/terms.
  const compile::RefInfo* src = nullptr;
  /// kDirect: row-major allocation stride per array dimension.
  std::vector<long long> dim_strides;
  /// kDirect, resolved at build so a rebind does no name lookups:
  /// the array's descriptor, its declared lower bound per dimension, and
  /// each dimension's runtime subscript term compiled to a scalar tape
  /// (empty = none).
  const rts::Dad* dad = nullptr;
  std::vector<long long> lowers;
  std::vector<Tape> runtime;
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
/// reference (kRef, indexed by Ins::a).  Shared by every plan runner, the
/// gather inspector included.
[[nodiscard]] Value eval_tape(const Tape& t, const std::vector<RefPlan>& refs,
                              const Index* varvals, const long long* offs,
                              std::vector<Value>& stack);

// --- shared reduction semantics ---------------------------------------------
// The paper's reduction intrinsics (Table 3, category 2): a local fold over
// the processor's iteration set, then one reduction tree.  The tree walk and
// the planned reduction both fold through ReduceAcc and finish through
// finish_reduce, so identity, compare, combine and the NaN rule exist once.

enum class ReduceOp : unsigned char {
  kSum, kProduct, kCount, kAny, kAll, kMaxval, kMinval, kMaxloc, kMinloc,
};

/// Fortran reduction name -> op.  False when the name is not supported.
[[nodiscard]] bool reduce_op_of(const std::string& name, ReduceOp& op);

/// One processor's partial reduction.  Extrema are seeded by the first
/// element folded (so values beyond any sentinel reduce correctly); an
/// empty set leaves `valid` false and `v` at lowest()/max(), Fortran's
/// -HUGE/+HUGE.  A NaN never displaces a number, and is kept only when
/// every element is NaN.  MAXLOC/MINLOC record the value of the first
/// index variable at the winning element; ties keep the first in
/// iteration order.
struct ReduceAcc {
  ReduceOp op = ReduceOp::kSum;
  double v = 0;
  Index loc = 0;
  bool valid = false;

  [[nodiscard]] static ReduceAcc identity(ReduceOp op);
  void fold(double x, Index at);
};

/// Combine the partials of every processor through one allreduce tree
/// (collective) and convert the result for a target of type `target`.
/// MAXLOC/MINLOC reduce a (value, location, valid) record — the location
/// of the lowest index among equal extrema, reported as loc_lo + loc_st *
/// location (SpmdStmt::loc_lo), 0 when no element was folded anywhere;
/// the other ops reduce one double.
[[nodiscard]] Value finish_reduce(comm::GridComm& gc, const ReduceAcc& acc,
                                  ast::BaseType target, Index loc_lo = 0,
                                  Index loc_st = 1);

/// Where each unmasked iteration's rhs value goes.
enum class Sink : unsigned char {
  kStore,    ///< FORALL: store into the owned lhs element (ExecPlan::lhs)
  kReduce,   ///< reduction: fold into a ReduceAcc (run_reduce_plan)
  kConcat,   ///< replicated lhs: append to the concatenation payload
             ///< (run_concat_plan), written back by the concat comm slot
  kScatter,  ///< vector-subscripted lhs: stream (value, destination id)
             ///< pairs (run_scatter_plan) for the PARTI scatter
};

/// Subscript tapes of one vector-subscripted reference, folded to 0-based
/// flat global element ids (row-major over the array's global extents —
/// the id space PARTI schedules speak).
struct GlobalIndexer {
  int ref_id = -1;                  ///< into SpmdStmt::refs
  std::string array;                ///< for out-of-range diagnostics
  std::vector<Tape> subs;           ///< one per array dimension
  std::vector<long long> lowers;    ///< declared lower bound per dim
  std::vector<Index> extents;       ///< global extent per dim
  std::vector<long long> gstrides;  ///< row-major global strides
};

/// One loop level's bind-phase inputs, resolved at build: the bounds as
/// scalar tapes and, for a set_BOUND-partitioned level, the partitioning
/// array's descriptor and declared lower bound.
struct LevelBind {
  Tape lo, hi, st;  ///< empty st = unit stride
  const rts::Dad* dad = nullptr;
  long long lower = 0;
};

/// One processor guard's bind-phase inputs, resolved at build.
struct GuardBind {
  const rts::Dad* dad = nullptr;
  long long lower = 0;
  Tape sub;  ///< the guard subscript as a scalar tape
};

struct ExecPlan {
  int stmt_id = -1;
  Sink sink = Sink::kStore;
  ReduceOp reduce = ReduceOp::kSum;  ///< kReduce
  /// Guards rejected this processor: the local loop is empty by ownership.
  bool masked_out = false;
  std::vector<PlanLoop> loops;
  std::vector<RefPlan> refs;  ///< read references addressed by kRef
  RefPlan lhs;                ///< kStore only
  /// kConcat: the lhs reference with base and terms in 0-based row-major
  /// global element ids rather than storage offsets (the concat slot's
  /// run-table source; nothing is loaded or stored through it).
  RefPlan gids;
  /// One per live iteration-buffer pre-action (is_iteration_buffer): the
  /// needs of the gathered read (whose values the tapes load from its
  /// iteration-order buffer).  A plan without a body keeps only each
  /// indexer's ref_id.
  std::vector<GlobalIndexer> gathers;
  GlobalIndexer dests;        ///< kScatter: the lhs destination ids
  Tape mask;                  ///< empty = unconditional
  Tape rhs;
  /// Bind-phase inputs (one per s.indices / s.guards entry) and the
  /// scratch stack their tapes evaluate on: a rebind reads Value* slots
  /// and descriptor pointers, never a name.
  std::vector<LevelBind> level_binds;
  std::vector<GuardBind> guard_binds;
  std::vector<Value> bind_stack;
  /// Arrays whose storage the plan binds (statement-cache invalidation).
  std::vector<std::string> arrays;
  /// Tapes and references were built.  A plan first bound to an empty
  /// nest has none and must be rebuilt once its nest becomes non-empty.
  bool has_body = false;
};

using PlanPtr = std::shared_ptr<ExecPlan>;

/// Build outcome.  A null plan is a decline: the statement runs on the
/// tree-walk fallback.
struct PlanEntry {
  PlanPtr plan;
  std::string decline;
};

/// The names of every runtime scalar a statement's plan bakes in (loop
/// bounds, guard subscripts, subscript runtime terms): the statement plan
/// cache's key.  Static per statement — only the values change between
/// executions — so callers memoize it.  Scalars that only appear in the
/// mask/rhs are loaded through Value* slots at run time and do not key the
/// plan.
[[nodiscard]] std::vector<std::string> plan_key_scalars(
    const compile::SpmdStmt& s, const Env& env);

/// Lower one kForall (owner-computes, replicated concatenation or scattered
/// lhs, gathered reads allowed) or kReduce statement into a plan for this
/// processor, or decline.
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

/// Run the planned loop nest of a kStore plan.  Returns the number of
/// iterations executed (mask-rejected iterations included, matching the
/// tree walk's cost charging).  Pre/post communication actions are NOT run
/// here — the driver runs them around the call.
[[nodiscard]] Index run_exec_plan(const ExecPlan& p, PlanScratch& scratch);

/// Run a kReduce plan's nest, folding every unmasked rhs value into `acc`
/// in the tree walk's iteration order.  Returns the iteration count.
[[nodiscard]] Index run_reduce_plan(const ExecPlan& p, PlanScratch& scratch,
                                    ReduceAcc& acc);

/// Run a kConcat plan's nest, appending every rhs value (as a double, the
/// concatenation payload's element) to `out` in iteration order.  Returns
/// the iteration count.
[[nodiscard]] Index run_concat_plan(const ExecPlan& p, PlanScratch& scratch,
                                    std::vector<double>& out);

/// Inspector of the gather of reference `ref_id`: append the flat global
/// id of its element for every local iteration (mask ignored, exactly like
/// the tree walk's needs enumeration), in iteration order.  Only called
/// when the schedule cache misses.  No-op for masked-out or empty nests.
void run_gather_needs(const ExecPlan& p, int ref_id, PlanScratch& scratch,
                      std::vector<Index>& out);

/// Run a kScatter plan's nest: evaluate the rhs per local iteration and
/// stream (value, destination flat global id) pairs for the scatter.
/// Returns the iteration count.
[[nodiscard]] Index run_scatter_plan(const ExecPlan& p, PlanScratch& scratch,
                                     std::vector<double>& values,
                                     std::vector<Index>& dest_ids);

}  // namespace f90d::exec
