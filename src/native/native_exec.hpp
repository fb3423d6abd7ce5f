#pragma once
// Per-node native execution: attach compiled kernels to cached ExecPlans
// and run them through the parameterized KernelFn ABI.
//
// One NativeExec lives inside each simulated processor's node program.
// The attachment itself is stored in the plan's statement-cache entry
// (exec/statement_plan.hpp), so it lives and dies with the plan it binds;
// when the entry re-binds its plan to new scalar values, repack() refreshes
// the packed arguments and the kernel stays.
// Attachment happens lazily on the first native run of a plan: the plan's
// structural key is built (plan_shape, native/lower.hpp), its kernel is
// fetched from the process-global NativeCache (native/jit.hpp) — lowered
// and compiled only the first time the process sees that key — and the
// call-time argument vectors — loop parameters, strides, offset tables,
// storage pointers, scalar slots — are packed once and reused every trip.
//
// try_run() returns the iteration count exactly as run_exec_plan() would
// (the caller charges simulated cost from it, which is what keeps native
// and interpreted runs at equal simulated times), or -1 when the caller
// must fall back to the tape interpreter: lowering declined, the
// toolchain is unavailable, the compile failed (all memoized in the
// attachment), or a runtime scalar changed kind since the kernel was
// compiled (re-verified every call — bit-identity is never traded for
// speed).
#include <memory>
#include <utility>
#include <vector>

#include "exec/exec_plan.hpp"
#include "native/lower.hpp"

namespace f90d::native {

using rts::Index;

/// Per-node counters, reported through ProgramResult / f90dc --stats.
struct NodeStats {
  long long runs = 0;         ///< kernel invocations
  long long attaches = 0;     ///< plans lowered+compiled (or declined) once
  long long fallbacks = 0;    ///< try_run calls answered with -1
};

/// A kernel attached to one ExecPlan: the compiled function and its packed
/// call-time arguments.  Owned by the plan's statement-cache entry.
struct Attachment {
  KernelFn fn = nullptr; ///< nullptr = this plan permanently falls back
  std::vector<ScalarBind> binds;
  // Packed kernel arguments (see KernelFn in native/lower.hpp).
  std::vector<long long> lp;
  std::vector<const long long*> lv;
  std::vector<void*> base;
  std::vector<long long> rb;
  std::vector<long long> st;
  std::vector<const long long*> tb;
  std::vector<double> ds;
  std::vector<long long> is;
  std::vector<unsigned char> ls;
  /// Slab references: base[index] must be re-resolved from the Buf's
  /// current payload every call — communication actions replace the
  /// vector (and therefore the data pointer) between trips.
  std::vector<std::pair<size_t, exec::Buf*>> slabs;
  Index iters = 0;       ///< product of loop counts
};

/// Re-pack `at`'s call-time arguments — loop parameters, enumerated
/// values, base offsets, strides and offset tables — from `p` after the
/// statement plan cache re-bound `p` in place.  False when a loop level or
/// an offset term changed between progression/enumerated or stride/table
/// form, or an innermost term became or stopped being a unit stride: the
/// plan's structural key may differ, so the caller drops the attachment
/// and the next run re-attaches it.
[[nodiscard]] bool repack(const exec::ExecPlan& p, Attachment& at);

class NativeExec {
 public:
  /// `available`: NativeCache::available(), checked once per run by the
  /// caller; false makes every plan fall back without a lookup.
  explicit NativeExec(bool available) : available_(available) {}

  /// Run `plan` natively if possible, attaching it into `slot` on first
  /// use.  Returns the executed iteration count (mask-rejected iterations
  /// included, like run_exec_plan), or -1 when the caller must use the
  /// tape interpreter instead.  `slot` must live exactly as long as the
  /// plan: it holds pointers into the plan's loop and offset tables.
  Index try_run(const exec::ExecPlan& plan, std::unique_ptr<Attachment>& slot);

  [[nodiscard]] const NodeStats& stats() const { return stats_; }

 private:
  void attach(const exec::ExecPlan& plan, Attachment& at);

  bool available_;
  KernelShape shape_;  ///< attach scratch: key and binds of the last plan
  NodeStats stats_;
};

}  // namespace f90d::native
