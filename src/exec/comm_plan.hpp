#pragma once
// CommPlans: compiled communication plans — the comm-side counterpart of
// the execution-plan layer (exec/exec_plan.hpp).
//
// The tree-walking pre-communication actions re-derive the same facts on
// every trip of a DO loop: which neighbour an overlap_shift talks to, which
// storage cells form the boundary slab, which processor owns a broadcast
// element, which local offsets a slab multicast packs.  A CommPlan resolves
// all of it once per statement and processor — and re-binds the
// scalar-dependent parts in place when the baked runtime scalars change —
// into flat descriptors:
//
//   ShiftPlan   overlap_shift lowered to two strided-copy descriptors
//               (pack boundary slab / unpack ghost area) whose innermost
//               contiguous runs collapse to memcpy, plus the baked grid
//               neighbour exchange;
//   BcastPlan   element broadcast with the root and the root's flat
//               storage offset resolved, reusing a persistent scratch;
//   SlabPlan    multicast/transfer slab packing through per-(variable,dim)
//               offset tables (real local_of_global per value, so BLOCK,
//               CYCLIC(k) and collapsed dims all work), feeding the buffer
//               vector in place;
//   ConcatPlan  the replicated-lhs write-back (a post-action): the run
//               table of this processor's contribution bound from the
//               execution plan's global-id recurrence, the payload the
//               plan's values are appended to, concat_tree, and the
//               write-back through precomputed strides — one contiguous
//               copy per run when local and global layouts coincide;
//   GatherSlot  a PARTI iteration-buffer read (schedule1 precomp_read or
//               temporary_shift, schedule2 gather), run through the
//               interpreter's schedule machinery (ScheduleCache, keys and
//               the one PARTI executor, parti::execute_read) with the
//               execution plan's indexer walk as this processor's
//               inspector.  The schedule's inspector already localized it
//               to storage offsets, so nothing about it is baked here.
//
// Faithfulness contract: a compiled plan issues exactly the collective
// calls, tags, message sizes (including zero-byte sends), virtual-time
// charges and element values of the tree-walk path it replaces — the plans
// only remove host-side recomputation and heap churn.  A slot a plan
// cannot bake faithfully declines the whole statement, which then runs on
// the tree walk: a statement plans whole or not at all.
//
// Ownership: a statement's compiled communication (StmtPlan) is built
// together with its execution plan and lives in the same statement-cache
// entry (exec/statement_plan.hpp) — same key scalars, re-bound together
// (rebind), dropped together when any part binds a redistributed array.
// A kScatter plan's scatter or postcomp_write is not a slot: the
// interpreter runs it after the nest through the tree walk's post-action
// code.  CommPlans itself
// holds no per-schedule state: PARTI schedules live in the interpreter's
// ScheduleCache, localized by their inspector (docs/EXECUTION.md).
#include <cstddef>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "exec/exec_env.hpp"
#include "exec/exec_plan.hpp"

namespace f90d::exec {

/// Comm-plan traffic counters (the plans themselves are counted by the
/// statement cache that owns them).
struct CommPlanStats {
  /// Bytes moved through coalesced contiguous memcpy runs (pack+unpack
  /// fast path; strided element copies are not counted).
  long long bytes_memcpy_fast_path = 0;
};

/// Callbacks into the interpreter: plans are built from the same expression
/// evaluation the tree walk uses (and the same set_BOUND level derivation,
/// derive_level), so a baked table is correct by construction for the keyed
/// scalar values.
struct CommHooks {
  /// Evaluate a scalar expression (DO variables and runtime scalars
  /// resolve; no forall frame is active during pre-communication).
  std::function<Value(const ast::Expr&)> eval;
  /// Same, with one forall variable temporarily bound to `val` (offset
  /// table construction).
  std::function<Value(const ast::Expr&, const std::string&, Index)> eval_bound;
  /// Run one PARTI iteration-buffer read through the tree walk's schedule
  /// machinery, with the execution plan's indexer walk (run_gather_needs)
  /// as this processor's inspector on a schedule-cache miss.
  std::function<void(const compile::SpmdStmt&, const compile::CommAction&,
                     const ExecPlan&)>
      gather;
};

/// Strided copy between array storage and a packed buffer: `levels` outer
/// loops (counts and byte strides) around a contiguous run of `chunk`
/// bytes — the innermost levels whose stride equals the accumulated run
/// length are coalesced away at build time, so a fully contiguous slab is
/// one memcpy.
struct CopyDesc {
  Index base = 0;   ///< byte offset of the first element in storage
  Index chunk = 0;  ///< bytes per contiguous run
  Index runs = 0;   ///< number of runs (product of level counts)
  Index total = 0;  ///< chunk * runs
  Index elem = 0;   ///< element size (fast-path accounting: chunk > elem)
  std::vector<Index> counts;   ///< outer loop trip counts (outer..inner)
  std::vector<Index> strides;  ///< byte stride per level
};

/// Baked storage geometry of one distributed array piece: everything a plan
/// needs to turn (global indices, iteration values) into flat byte offsets.
/// Storage pointers are stable for the whole run (DistArray::data_ is
/// allocated once); statement plans are dropped with their cache entry,
/// covering the redistribute escape hatch.
struct ArrayView {
  char* base = nullptr;
  ast::BaseType ty = ast::BaseType::kReal;
  std::size_t elem = 0;  ///< elem_size(ty)
  const rts::Dad* dad = nullptr;
  std::vector<Index> lext;    ///< owned local extents
  std::vector<Index> aext;    ///< allocated extents (owned + overlap)
  std::vector<Index> stride;  ///< row-major element strides over aext
};

/// A statement's live (non-eliminated) pre-actions in dependency order:
/// ghost fills, broadcasts and slabs first, then iteration buffers; each
/// group by descending ref id, so inner indirection arrays resolve before
/// the references that subscript with them.  The tree walk and the
/// compiled plans both run pre-actions in this order.
[[nodiscard]] std::vector<const compile::CommAction*> pre_actions_in_order(
    const compile::SpmdStmt& s);

class CommPlans {
  struct Slot;

 public:
  /// One statement's compiled communication: a slot per non-eliminated
  /// pre-action in the tree walk's order, each a baked plan or a gather,
  /// and the concatenation slot of a kConcat execution plan.
  struct StmtPlan {
    std::vector<Slot> slots;
    std::vector<Slot> post;           ///< kConcat plans: the concat slot
    std::vector<std::string> arrays;  ///< storage the slots bake (invalidation)
  };

  CommPlans(Env& env, CommHooks hooks)
      : env_(&env), hooks_(std::move(hooks)) {}

  /// Compile `s`'s pre-communication, or nothing when a slot cannot be
  /// baked: the statement then declines whole.  `key_names` are the scalar
  /// names the statement's cache key covers — a plan only bakes values
  /// derived from covered scalars (anything else declines, so a stale bake
  /// is impossible by construction).
  /// `xp` is the statement's execution plan, bound to the same values: a
  /// kConcat plan gets its concat slot bound from it.
  [[nodiscard]] std::optional<StmtPlan> build(
      const compile::SpmdStmt& s, std::span<const std::string> key_names,
      const ExecPlan* xp = nullptr);

  /// Re-bind `plan` (built from `s`) in place to the key scalars' current
  /// values: broadcast roots and offsets, slab roots, destinations and
  /// offset tables.  Shift slots depend on no scalar and are kept.  False
  /// when a slot cannot be baked under the new values: the caller rebuilds
  /// the entry (which then declines).  The result equals a fresh build.
  [[nodiscard]] bool rebind(const compile::SpmdStmt& s, StmtPlan& plan,
                            std::span<const std::string> key_names,
                            const ExecPlan* xp = nullptr);

  /// Run every slot of `plan` (built from `s` with execution plan `xp`):
  /// bit-identical messages, tags and charges to the tree walk's pre
  /// actions.  Gather slots pass `xp` to the gather hook, whose inspector
  /// walks its indexers.
  void run(const compile::SpmdStmt& s, StmtPlan& plan, const ExecPlan& xp);

  /// The concat slot's payload, reset to this processor's bound run table:
  /// the execution plan appends its values (run_concat_plan) and run_post
  /// sends it.  The layout — [nruns, (start, count)*, values], empty when
  /// this processor contributes nothing — is the tree walk's, byte for
  /// byte.
  std::vector<double>& concat_payload(StmtPlan& plan);

  /// Run `plan`'s post slots: concat_tree over every processor's payload,
  /// then every run written into the local copy of the replicated lhs
  /// (this processor's own runs included, as in the tree walk, so the
  /// values land after the whole rhs was evaluated).
  void run_post(StmtPlan& plan);

  [[nodiscard]] const CommPlanStats& stats() const { return stats_; }

 private:
  // --- per-kind plans -------------------------------------------------------
  struct ShiftPlan {
    bool noop = false;  ///< collapsed dim / zero amount: consumes nothing
    int grid_dim = 0;
    int offset = 0;           ///< exchange direction (-1 / +1)
    bool expect_recv = false; ///< baked edge test of shift_exchange
    char* base = nullptr;
    std::size_t elem = 0;
    CopyDesc pack, unpack;
  };

  struct BcastPlan {
    int root = 0;  ///< logical rank owning the element
    bool is_root = false;
    const char* base = nullptr;   ///< storage base (root only)
    Index byte_off = 0;           ///< flat byte offset of the element (root)
    int buffer_id = -1;
    std::vector<std::byte> scratch;  ///< persistent bcast payload
    // Bind scratch, kept so a rebind allocates nothing; its element type
    // and size are the broadcast element's.
    ArrayView view;
    std::vector<Index> g;      ///< global element index
    std::vector<int> coords;   ///< owner grid coordinates
  };

  struct SlabPlan {
    bool on_root = false;
    bool is_transfer = false;
    const char* base = nullptr;
    std::vector<std::pair<int, int>> comm_dims;  ///< (grid_dim, root coord)
    std::vector<int> dest_coords;                ///< transfer destinations
    Index slab_size = 0;
    Index base_off = 0;                    ///< constant byte offset part
    std::vector<Index> counts;             ///< per slab var (spec order)
    std::vector<std::vector<Index>> tabs;  ///< per slab var: byte offsets
    int buffer_id = -1;
    std::vector<std::byte> scratch;  ///< transfer receive side
    ArrayView view;  ///< bind scratch; the slab packs in its element type
  };

  struct ConcatPlan {
    /// [nruns, (start, count)*] of this processor's contribution; empty
    /// when it contributes nothing (guarded out or empty nest).
    std::vector<double> header;
    std::vector<double> blk;  ///< payload, then the concatenation
    Index values = 0;         ///< elements this processor contributes
    ast::BaseType ty = ast::BaseType::kReal;
    char* base = nullptr;
    /// Element strides of the local copy per global dimension (overlap
    /// shift folded into `shift`) and the global extents.
    std::vector<Index> gext, stride, shift;
    Index total = 0;          ///< elements of the array
    /// Local copy laid out exactly like the global row-major array.
    bool contiguous = false;
    std::vector<std::pair<Index, Index>> runs;  ///< bind scratch
  };

  struct GatherSlot {};  ///< run through hooks_.gather

  struct Slot {
    const compile::CommAction* action = nullptr;
    std::variant<GatherSlot, ShiftPlan, BcastPlan, SlabPlan, ConcatPlan> plan;
  };

  // --- build ---------------------------------------------------------------
  /// Bake one slot's plan into `slot.plan` (reusing the alternative it
  /// already holds).  False on a failed or throwing bake.  Adds the
  /// array(s) a baked plan binds to `arrays` unless listed.
  [[nodiscard]] bool bake(const compile::SpmdStmt& s, Slot& slot,
                          std::span<const std::string> key_names,
                          std::vector<std::string>& arrays);
  bool build_shift(const compile::CommAction& a, const compile::RefInfo& ref,
                   ShiftPlan& out);
  bool build_bcast(const compile::CommAction& a, const compile::RefInfo& ref,
                   std::span<const std::string> key_names, BcastPlan& out);
  bool build_slab(const compile::SpmdStmt& s, const compile::CommAction& a,
                  const compile::RefInfo& ref,
                  std::span<const std::string> key_names, SlabPlan& out);
  /// The storage half of a concat slot (once per build).
  void build_concat(const compile::SpmdStmt& s, ConcatPlan& out);
  /// The run table of a concat slot from `xp`'s current binding.
  static void bind_concat(const ExecPlan& xp, ConcatPlan& out);

  // --- run ------------------------------------------------------------------
  void run_slot(const compile::SpmdStmt& s, Slot& slot, const ExecPlan& xp);
  void run_shift(ShiftPlan& p);
  void run_bcast(BcastPlan& p);
  void run_slab(SlabPlan& p);
  /// Strided copy through a CopyDesc; `to_buffer` packs storage->buf,
  /// otherwise unpacks buf->storage.  Library code, not a JIT kernel: a
  /// copy has nothing to specialise beyond its depth and direction.
  void run_copy(const CopyDesc& d, char* storage, std::byte* buf,
                bool to_buffer);

  Env* env_;
  CommHooks hooks_;
  CommPlanStats stats_;
};

}  // namespace f90d::exec
