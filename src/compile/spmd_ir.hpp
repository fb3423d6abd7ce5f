#pragma once
// The lowered SPMD intermediate representation: the "node program" the code
// generator produces (paper §2, the output of "Code Generation").  The
// Fortran77+MP emitter renders it as text; the interpreter executes it on
// every simulated processor.
//
// Shape of a compiled FORALL (the paper's loosely synchronous phases):
//     pre-communication actions        (structured/unstructured reads)
//     local loop nest over set_BOUND ranges
//     post-communication actions       (postcomp_write / scatter / concat)
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compile/affine.hpp"
#include "frontend/ast.hpp"

namespace f90d::compile {

// --- array access methods ----------------------------------------------------

enum class Access {
  kDirect,     ///< local element (owner computes); may touch overlap cells
  kIterBuf,    ///< one value per local iteration, from a pre-comm buffer
  kSlabBuf,    ///< multicast/transfer slab indexed by the non-comm vars
  kScalarSlot, ///< broadcast single element, read from a scalar slot
};

/// One array reference in the forall body with its resolved access path.
struct RefInfo {
  std::string array;
  const ast::Expr* expr = nullptr;    ///< the reference inside lhs/rhs/mask
  std::vector<AffineSub> subs;        ///< per-dim classification
  Access access = Access::kDirect;
  int buffer_id = -1;                 ///< kIterBuf / kSlabBuf / kScalarSlot
  /// kSlabBuf: forall variables (in spec order) that index the slab — the
  /// ones appearing in the reference's non-communicated dimensions.
  std::vector<std::string> slab_vars;

  /// Deep copy (AffineSub owns cloned runtime expressions; `expr` stays a
  /// non-owning pointer into the origin statement's AST).
  [[nodiscard]] RefInfo clone() const {
    RefInfo r;
    r.array = array;
    r.expr = expr;
    for (const AffineSub& s : subs) r.subs.push_back(s.clone());
    r.access = access;
    r.buffer_id = buffer_id;
    r.slab_vars = slab_vars;
    return r;
  }
};

// --- communication actions -----------------------------------------------------

enum class CommKind {
  kOverlapShift,    ///< ghost-area fill along one dimension
  kTemporaryShift,  ///< shifted temporary via schedule1 (runtime amounts ok)
  kMulticast,       ///< slab broadcast along grid dims (Fig. 4b)
  kTransfer,        ///< slab line-to-line copy (Fig. 4a)
  kPrecompRead,     ///< schedule1 + vectorized read executor
  kGather,          ///< schedule2 + vectorized read executor
  kPostcompWrite,   ///< schedule1 + vectorized write executor
  kScatter,         ///< schedule3 + vectorized write executor
  kConcatWrite,     ///< replicated-lhs write-back (concatenation)
  kBcastElement,    ///< broadcast one element to all (replicated-lhs reads)
};

[[nodiscard]] const char* to_string(CommKind k);

struct CommAction {
  CommKind kind = CommKind::kPrecompRead;
  int ref_id = -1;     ///< which RefInfo this action serves (reads)
  int buffer_id = -1;  ///< buffer produced/consumed

  // kOverlapShift / kTemporaryShift / kMulticast / kTransfer
  int array_dim = -1;            ///< dimension of the referenced array
  long long shift_amount = 0;    ///< overlap shift constant
  /// Per-dim root subscripts for multicast/transfer (index = array dim):
  /// only dims participating in the action have entries.
  std::vector<std::pair<int, AffineSub>> root_subs;   ///< rhs side (source)
  std::vector<std::pair<int, AffineSub>> dest_subs;   ///< lhs side (transfer)

  /// Schedule-cache key (unstructured actions); empty = do not cache.
  std::string sched_key;

  // --- analysis provenance (written by codegen, consumed by comm_opt) ---
  /// The executing processors already own the referenced data (the guards
  /// or the iteration partitioning pin them to the owning grid line): the
  /// action is a candidate for the §7 "eliminate unnecessary
  /// communications" pass.
  bool covered = false;
  /// kPrecompRead only: how many dimensions of the serviced reference
  /// classified as multicast / constant-shift before falling through to the
  /// unstructured path — the precondition of the fused multicast_shift
  /// primitive.
  int fused_mcast_dims = 0;
  int fused_shift_dims = 0;

  // --- optimizer results ---
  /// Set by the optimizer: action proven redundant and removed.
  bool eliminated = false;
  /// Set by the optimizer: action moved to an enclosing kSeqDo preheader.
  bool hoisted = false;
  /// Human-readable note for the emitted listing.
  std::string note;
};

/// A communication action hoisted out of a kSeqDo body into the loop's
/// preheader (§7 loop-invariant communication): self-contained — it owns a
/// clone of the RefInfo it serves, so it executes without its origin
/// statement's iteration context.  Only context-free kinds are hoisted
/// (kOverlapShift fills the array's own ghost area; kBcastElement fills a
/// program-global scalar slot).
struct PreheaderAction {
  CommAction action;
  RefInfo ref;
};

// --- iteration space ------------------------------------------------------------

/// How one forall variable's global range is split across processors.
struct IndexPartition {
  std::string var;
  ast::ExprPtr lo, hi, st;  ///< global bounds (scalar expressions)
  /// Partitioning source: set_BOUND on dimension `dim` of array `array`
  /// (empty array = unpartitioned: iterate the whole range locally), or a
  /// synthetic BLOCK partition over `synth_grid_dim` for non-canonical lhs.
  std::string array;
  int dim = -1;
  int synth_grid_dim = -1;
  /// True when the local iteration set may not be an arithmetic
  /// progression (strided range over a block-cyclic CYCLIC(k>1)
  /// dimension): the node program must loop over an explicit index list
  /// (set_BOUND_list) instead of a lb:ub:st triplet.
  bool enumerated = false;

  [[nodiscard]] bool partitioned() const {
    return !array.empty() || synth_grid_dim >= 0;
  }
};

/// Processor guard: execute the loop only when my coordinate along
/// `grid_dim` owns `sub` of array `array` dimension `dim` (replicated-lhs
/// statements reading a fixed line of a distributed array).
struct ProcGuard {
  std::string array;
  int dim = -1;
  AffineSub sub;
};

// --- statements -------------------------------------------------------------------

enum class SpmdKind {
  kForall,       ///< comm + local loop nest + comm
  kScalarAssign, ///< replicated scalar computation (with optional pre-comm)
  kReduce,       ///< local partial reduction + reduction tree
  kArrayIntrinsic,
  kSeqDo,
  kIf,
  kPrint,
};

struct SpmdStmt;
using SpmdStmtPtr = std::unique_ptr<SpmdStmt>;

struct SpmdStmt {
  SpmdKind kind;
  SourceLoc loc;
  /// Stable statement id (pre-order over the optimized program), assigned
  /// by the driver after the comm_opt pipeline: provenance for the
  /// execution-plan cache keys (exec/exec_plan.hpp) and --stats reporting.
  int stmt_id = -1;

  // kForall
  std::vector<IndexPartition> indices;
  std::vector<ProcGuard> guards;
  std::vector<CommAction> pre;
  std::vector<CommAction> post;
  /// refs[0] is the lhs, then the rhs, mask and lhs-subscript reads (in
  /// that order, each pre-order).
  std::vector<RefInfo> refs;
  ast::ExprPtr lhs;               ///< elementwise lhs (ArrayRef)
  ast::ExprPtr rhs;               ///< elementwise rhs
  ast::ExprPtr mask;              ///< optional
  /// lhs write mode: direct owner-computes or buffered + post action.
  bool lhs_buffered = false;
  double flops_per_iter = 0.0;    ///< bulk cost charged per iteration

  // kScalarAssign: target scalar name; rhs; pre (kBcastElement actions)
  std::string target;

  // kReduce: reduce_op over `indices` iteration space of rhs
  std::string reduce_op;
  /// MAXLOC/MINLOC over a position-based first axis: the location is
  /// loc_lo + loc_st * position (NormStmt::loc_lo).  Null otherwise.
  ast::ExprPtr loc_lo, loc_st;

  // kArrayIntrinsic
  std::string intrinsic;
  std::string dest_array;
  std::vector<ast::ExprPtr> call_args;

  // kSeqDo
  std::string do_var;
  ast::ExprPtr do_lo, do_hi, do_st;
  /// Loop-invariant communication hoisted out of `body`: executed once
  /// before the first iteration (and emitted just above the DO line).
  std::vector<PreheaderAction> preheader;

  // kIf: mask is the condition
  std::vector<SpmdStmtPtr> body;
  std::vector<SpmdStmtPtr> else_body;

  // kPrint
  std::vector<ast::ExprPtr> items;

  explicit SpmdStmt(SpmdKind k) : kind(k) {}
};

/// A compiled program: SPMD statements plus the overlap (ghost) widths the
/// code generator accumulated per array dimension.
struct SpmdProgram {
  std::vector<SpmdStmtPtr> body;
  /// array -> per-dim (overlap_lo, overlap_hi) ghost widths.
  std::map<std::string, std::vector<std::pair<int, int>>> overlaps;
  /// Number of iteration/slab buffers allocated.
  int buffer_count = 0;
  /// Statistics for reporting: how many of each action kind were generated.
  std::map<std::string, int> action_histogram;
};

}  // namespace f90d::compile
