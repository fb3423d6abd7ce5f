#pragma once
// Plan -> C++ lowering for the native node-program backend.
//
// An ExecPlan already has the compiled *shape* of a FORALL — resolved loop
// nest, strength-reduced flat-offset recurrences, postfix tapes — but the
// tape is still interpreted per element.  lower_plan() turns the plan into
// the source of a real C++ node function: the loop nest becomes `for`
// statements, every offset recurrence becomes a hoisted partial sum, and
// the mask/rhs tapes are expanded into statically-typed straight-line SSA
// temporaries (the postfix order is preserved instruction by instruction,
// so evaluation order — and therefore every floating-point rounding — is
// identical to the tape interpreter's).
//
// The lowered source is deliberately *parameterized*: loop counts, initial
// values, strides, base offsets, storage pointers and runtime scalar values
// arrive as arguments at call time, and only the structure (nest depth,
// stride-vs-table term kinds, the tapes themselves with their constants and
// static value kinds) is baked into the text.  Two processors — or two
// plans of the same statement across DO trips or whole runs — that share a
// structure therefore share one compiled kernel.
//
// One number is baked in: an innermost offset term whose stride is 1 is
// printed as the bare counter (`q + cK`, no `st[]` load).  That gives the
// compiler a unit-stride inner loop it can vectorize; kernels are built
// with GCC's loop vectorizer on (native/jit.cpp), and a vectorized kernel
// stays bit-identical to the tape: element-wise SIMD adds and multiplies
// round like scalar ones, nothing is reassociated (no -ffast-math), the
// vectorizer's runtime alias check falls back to the scalar loop when the
// lhs overlaps a read, and reductions and concatenations are never lowered.
//
// plan_shape() captures exactly that structure as a compact byte string,
// the *structural key*, without printing any source: the NativeCache in
// native/jit.hpp is keyed by it, so a plan whose structure was seen before
// finds its kernel with one short walk and one map lookup, and lower_plan()
// only runs — once per key per process — when the key misses.  The key
// holds exactly what the Lowerer reads:
//   * nest depth; for each level whose loop variable the tapes read,
//     whether its values are enumerated;
//   * the lhs access and element type, and per reference its storage
//     class (the real, int or logical element type letter of storage and
//     slabs alike, scalar slot, iteration buffer) and, per level,
//     whether its offset term is a stride, a table or — innermost level
//     only — a stride equal to 1;
//   * the mask and rhs tapes instruction by instruction: op, the operand
//     the Lowerer reads (loop level, reference id, argument count), each
//     constant's kind and exact bit pattern, and each scalar operand as its
//     first-occurrence slot number plus static kind.
// Keys never contain addresses, so they are shared safely across runs and
// service workers.  The same walk assigns the scalar slots (ScalarBind):
// the Lowerer prints the slots the walk assigned, so slot assignment lives
// in one place and key and text agree on it by construction.
//
// Statements whose tape cannot be statically typed (today: MIN/MAX over
// mixed integer/real arguments, whose result kind is data-dependent) are
// declined; the caller falls back to the plan interpreter, which remains
// bit-identical by construction.
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_plan.hpp"

namespace f90d::native {

/// The exported symbol every generated translation unit defines.  One
/// kernel per TU, always under the same name: each shared object is
/// dlopen'd RTLD_LOCAL, so the names never collide.
inline constexpr const char* kKernelSymbol = "f90d_kernel";

/// Generated kernel signature.  Everything that varies per call (or per
/// plan sharing the same structure) is passed through these arrays:
///   lp    3 entries per loop level: count, val0, step
///   lv    per level: enumerated iteration values, or nullptr (baked which)
///   base  per ref (reads in plan order, then the lhs): storage pointer
///   rb    per ref: base flat offset at all-counters-zero
///   st    per (ref, level): affine stride contribution
///   tb    per (ref, level): per-counter offset table, or nullptr (baked)
///   ds/is/ls  runtime scalar operand values by static kind
using KernelFn = void (*)(const long long* lp, const long long* const* lv,
                          void* const* base, const long long* rb,
                          const long long* st, const long long* const* tb,
                          const double* ds, const long long* is,
                          const unsigned char* ls);

/// One runtime scalar operand of the lowered kernel: where the wrapper
/// reads the value each call, the static kind the source was compiled
/// against (verified per call — a kind mismatch falls back to the tape),
/// and the ds/is/ls slot it is packed into.
struct ScalarBind {
  const exec::Value* src = nullptr;
  exec::Value::K kind = exec::Value::K::kD;
  int slot = 0;

  friend bool operator==(const ScalarBind&, const ScalarBind&) = default;
};

/// True when `rp`'s innermost offset term (level nv-1) is a stride equal
/// to 1 — the one number the Lowerer bakes into the text, so the key, the
/// text and native::repack all ask this one question.
[[nodiscard]] inline bool unit_inner_stride(const exec::RefPlan& rp,
                                            size_t nv) {
  if (nv == 0 || rp.terms.size() < nv) return false;
  const exec::OffsetTerm& t = rp.terms[nv - 1];
  return t.table.empty() && t.stride == 1;
}

/// A plan's structural key and its call-time scalar packing recipe.
/// Reused as scratch: plan_shape() clears it and keeps its capacity.
struct KernelShape {
  std::string key;                ///< exact structural key (no addresses)
  std::vector<ScalarBind> binds;  ///< in first-occurrence order
  int n_ds = 0;                   ///< slots per kind (array sizes)
  int n_is = 0;
  int n_ls = 0;
};

/// Walk `p`'s structure into `out`.  Never declines: plans the Lowerer
/// declines get keys too, and the NativeCache memoizes the decline.
void plan_shape(const exec::ExecPlan& p, KernelShape& out);

struct Lowered {
  std::string source;               ///< complete translation unit text
  /// The scalar binds the text reads, in the order it first reads them —
  /// equal to plan_shape()'s binds (the slots are taken from it).
  std::vector<ScalarBind> scalars;
};

/// Lower one plan to a compilable kernel, or decline (reason in *why).
[[nodiscard]] std::optional<Lowered> lower_plan(const exec::ExecPlan& p,
                                                std::string* why);

}  // namespace f90d::native
