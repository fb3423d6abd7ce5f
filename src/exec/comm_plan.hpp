#pragma once
// CommPlans: compiled communication plans — the comm-side counterpart of
// the execution-plan layer (exec/exec_plan.hpp).
//
// The tree-walking pre-communication actions re-derive the same facts on
// every trip of a DO loop: which neighbour an overlap_shift talks to, which
// storage cells form the boundary slab, which processor owns a broadcast
// element, which local offsets a slab multicast packs, which owned cells a
// PARTI executor pushes per peer.  A CommPlan resolves all of it once per
// statement and processor — and re-binds the scalar-dependent parts in
// place when the baked runtime scalars change — into flat descriptors:
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
//   SchedExec   PARTI read/write executors with the per-peer global-id
//               lists pre-resolved to flat byte offsets, packing pooled
//               payload buffers (machine::PayloadPool) instead of typed
//               temporaries.
//
// Faithfulness contract: a compiled plan issues exactly the collective
// calls, tags, message sizes (including zero-byte sends), virtual-time
// charges and element values of the tree-walk path it replaces — the plans
// only remove host-side recomputation and heap churn.  Anything a plan
// cannot bake faithfully is declined slot-by-slot and runs the legacy
// action through a callback.
//
// Ownership: a statement's compiled pre-communication (StmtPlan) is built
// together with its execution plan and lives in the same statement-cache
// entry (exec/statement_plan.hpp) — same key scalars, re-bound together
// (rebind), dropped together when any part binds a redistributed array.  CommPlans
// itself only keeps the PARTI executor state, keyed by schedule identity;
// those entries re-check the array's storage base on every lookup, so they
// need no invalidation call of their own (docs/EXECUTION.md).
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "exec/exec_env.hpp"
#include "native/lower.hpp"
#include "parti/schedule.hpp"

namespace f90d::exec {

/// PARTI executor counters (statement plans are counted by the statement
/// cache that owns them).
struct CommPlanStats {
  long long hits = 0;           ///< executor calls served from a compiled entry
  long long misses = 0;         ///< executor entries compiled
  long long invalidations = 0;  ///< entries rebuilt: array storage moved
  /// Bytes moved through coalesced contiguous memcpy runs (pack+unpack
  /// fast path; strided element copies are not counted).
  long long bytes_memcpy_fast_path = 0;
};

/// One iteration range of a forall variable as the comm planner needs it
/// (mirror of the interpreter's VarRange; `values` non-empty = explicit
/// enumeration, e.g. block-cyclic local sets).
struct CommRange {
  Index val0 = 0;
  Index step = 1;
  Index count = 0;
  std::vector<Index> values;

  [[nodiscard]] Index value_at(Index i) const {
    return values.empty() ? val0 + i * step : values[static_cast<size_t>(i)];
  }
};

/// Callbacks into the interpreter: plans are built from the same expression
/// evaluation and range machinery the tree walk uses, so a baked table is
/// correct by construction for the keyed scalar values.
struct CommHooks {
  /// Evaluate a scalar expression (DO variables and runtime scalars
  /// resolve; no forall frame is active during pre-communication).
  std::function<Value(const ast::Expr&)> eval;
  /// Same, with one forall variable temporarily bound to `val` (offset
  /// table construction).
  std::function<Value(const ast::Expr&, const std::string&, Index)> eval_bound;
  /// ranges_for_coords_no_guards for this processor, one entry per
  /// s.indices element.
  std::function<std::vector<CommRange>(const compile::SpmdStmt&)> ranges;
  /// Run one action through the tree walk (declined slots).
  std::function<void(const compile::SpmdStmt&, const compile::CommAction&)>
      legacy;
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

/// Element type of a baked storage view (the three DistArray payloads).
enum class ElemTy { kReal, kInt, kLogical };

/// Baked storage geometry of one distributed array piece: everything a plan
/// needs to turn (global indices, iteration values) into flat byte offsets.
/// Storage pointers are stable for the whole run (DistArray::data_ is
/// allocated once); statement plans are dropped with their cache entry and
/// executor entries re-check the base, covering the redistribute escape
/// hatch.
struct ArrayView {
  char* base = nullptr;
  ElemTy ty = ElemTy::kReal;
  std::size_t elem = 0;
  const rts::Dad* dad = nullptr;
  std::vector<Index> lext;    ///< owned local extents
  std::vector<Index> aext;    ///< allocated extents (owned + overlap)
  std::vector<Index> stride;  ///< row-major element strides over aext
};

class CommPlans {
  struct Slot;

 public:
  /// One statement's compiled pre-communication: a slot per non-eliminated
  /// action in the tree walk's order, each a baked plan or a legacy slot.
  struct StmtPlan {
    std::vector<Slot> slots;
    std::vector<std::string> arrays;  ///< storage the slots bake (invalidation)
  };

  /// `use_native`: run copies through native kernels.  The caller checks
  /// NativeCache::available() (once per run) before passing true.
  CommPlans(Env& env, CommHooks hooks, bool use_native)
      : env_(&env), hooks_(std::move(hooks)), use_native_(use_native) {}

  /// Compile `s`'s pre-communication.  `key_names` are the scalar names
  /// the statement's cache key covers — a plan only bakes values derived
  /// from covered scalars (anything else is declined to the legacy action,
  /// so a stale bake is impossible by construction).
  [[nodiscard]] StmtPlan build(const compile::SpmdStmt& s,
                               std::span<const std::string> key_names);

  /// Re-bind `plan` (built from `s`) in place to the key scalars' current
  /// values: broadcast roots and offsets, slab roots, destinations and
  /// offset tables.  Shift slots depend on no scalar and are kept.  A slot
  /// the new values cannot bake runs its legacy action until a later
  /// rebind bakes it again, so the result always equals a fresh build.
  void rebind(const compile::SpmdStmt& s, StmtPlan& plan,
              std::span<const std::string> key_names);

  /// Run every slot of `plan` (built from `s`): bit-identical messages,
  /// tags and charges to the tree walk's pre actions.
  void run(const compile::SpmdStmt& s, StmtPlan& plan);

  /// Compiled PARTI read executor into `b` (dvals or ivals by element
  /// type).  Returns false when the schedule/array cannot be compiled —
  /// the caller falls back to parti::execute_read.  Identical messages,
  /// tags, charges and buffer contents as the generic executor.
  bool execute_read(const parti::SchedulePtr& sched, const std::string& array,
                    Buf& b);

  /// Compiled PARTI write executor (overwrite combine, the interpreter's
  /// only use).  `values` are iteration-ordered doubles; integer
  /// destinations convert exactly like the tree walk.  Returns false to
  /// fall back.
  bool execute_write(const parti::SchedulePtr& sched, const std::string& array,
                     std::span<const double> values);

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
    native::KernelFn pack_kernel = nullptr;
    native::KernelFn unpack_kernel = nullptr;
  };

  struct BcastPlan {
    int root = 0;  ///< logical rank owning the element
    bool is_root = false;
    ElemTy ty = ElemTy::kReal;
    const char* base = nullptr;   ///< storage base (root only)
    Index byte_off = 0;           ///< flat byte offset of the element (root)
    int buffer_id = -1;
    std::vector<double> scratch;  ///< persistent bcast payload
    // Bind scratch, kept so a rebind allocates nothing.
    ArrayView view;
    std::vector<Index> g;      ///< global element index
    std::vector<int> coords;   ///< owner grid coordinates
  };

  struct SlabPlan {
    bool on_root = false;
    bool is_transfer = false;
    ElemTy ty = ElemTy::kReal;  ///< source storage type (the slab itself
                                ///< packs as double, like the tree walk)
    const char* base = nullptr;
    std::vector<std::pair<int, int>> comm_dims;  ///< (grid_dim, root coord)
    std::vector<int> dest_coords;                ///< transfer destinations
    Index slab_size = 0;
    Index base_off = 0;                    ///< constant byte offset part
    std::vector<Index> counts;             ///< per slab var (spec order)
    std::vector<std::vector<Index>> tabs;  ///< per slab var: byte offsets
    int buffer_id = -1;
    std::vector<double> scratch;  ///< transfer receive side
    ArrayView view;               ///< bind scratch
  };

  struct LegacySlot {};  ///< run through hooks_.legacy

  struct Slot {
    const compile::CommAction* action = nullptr;
    std::variant<LegacySlot, ShiftPlan, BcastPlan, SlabPlan> plan;
  };

  /// Compiled executor state for one PARTI schedule.  Keyed by schedule
  /// identity; `owner` keeps the Schedule alive so the key cannot be
  /// recycled (no ABA) while the entry exists.
  struct SchedEntry {
    parti::SchedulePtr owner;
    std::string array;
    ElemTy ty = ElemTy::kReal;
    char* base = nullptr;
    /// Per peer: byte offsets into storage of push_gidx / place_gidx ids,
    /// byte offsets into the temporary buffer of slot_of slots, and byte
    /// offsets into the value vector of send_pos positions.
    std::vector<std::vector<Index>> push_off;
    std::vector<std::vector<Index>> slot_off;
    std::vector<std::vector<Index>> place_off;
    std::vector<std::vector<Index>> pos_off;
    bool read_ready = false;
    bool write_ready = false;
    bool read_failed = false;
    bool write_failed = false;
  };

  // --- build ---------------------------------------------------------------
  /// Bake one slot's plan into `slot.plan` (reusing the alternative it
  /// already holds); a failed or throwing bake leaves a legacy slot.
  /// Adds the array(s) a baked plan binds to `arrays` unless listed.
  void bake(const compile::SpmdStmt& s, Slot& slot,
            std::span<const std::string> key_names,
            std::vector<std::string>& arrays);
  bool build_shift(const compile::CommAction& a, const compile::RefInfo& ref,
                   ShiftPlan& out);
  bool build_bcast(const compile::CommAction& a, const compile::RefInfo& ref,
                   std::span<const std::string> key_names, BcastPlan& out);
  bool build_slab(const compile::SpmdStmt& s, const compile::CommAction& a,
                  const compile::RefInfo& ref,
                  std::span<const std::string> key_names, SlabPlan& out);
  SchedEntry* sched_entry(const parti::SchedulePtr& sched,
                          const std::string& array, bool write);

  // --- run ------------------------------------------------------------------
  void run_slot(const compile::SpmdStmt& s, Slot& slot);
  void run_shift(ShiftPlan& p);
  void run_bcast(BcastPlan& p);
  void run_slab(SlabPlan& p);
  template <typename T>
  void read_impl(const parti::Schedule& sc, SchedEntry& e, std::vector<T>& out);
  template <typename T, typename Cast>
  void write_impl(const parti::Schedule& sc, SchedEntry& e,
                  std::span<const double> values, Cast cast);
  /// Strided copy through a CopyDesc; `to_buffer` packs storage->buf,
  /// otherwise unpacks buf->storage.
  void run_copy(const CopyDesc& d, char* storage, std::byte* buf,
                bool to_buffer, native::KernelFn kernel);
  /// A comm kernel from the process-global NativeCache (its text is only
  /// generated the first time the process sees its key), or null when the
  /// native backend is off for this run or the compile failed.
  native::KernelFn copy_kernel(int levels, bool pack) const;
  native::KernelFn index_kernel(bool gather, bool cast_d2i) const;

  Env* env_;
  CommHooks hooks_;
  bool use_native_ = false;
  CommPlanStats stats_;
  std::map<const parti::Schedule*, SchedEntry> scheds_;
  // Index-copy kernels shared by every schedule entry (8-byte elements).
  native::KernelFn gather8_ = nullptr;
  native::KernelFn scatter8_ = nullptr;
  native::KernelFn gather_d2i_ = nullptr;
  bool index_kernels_ready_ = false;
};

}  // namespace f90d::exec
