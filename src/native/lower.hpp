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
// plan_shape() captures exactly that structure as a compact byte string,
// the *structural key*, without printing any source: the NativeCache in
// native/jit.hpp is keyed by it, so a plan whose structure was seen before
// finds its kernel with one short walk and one map lookup, and lower_plan()
// only runs — once per key per process — when the key misses.  The key
// holds exactly what the Lowerer reads:
//   * nest depth; for each level whose loop variable the tapes read,
//     whether its values are enumerated;
//   * the lhs kind, and per reference its storage class (real, int or
//     logical pointer, scalar slot, iteration buffer) and, per level,
//     whether its offset term is a stride or a table;
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

// --- communication kernels (exec/comm_plan.hpp) ------------------------------
// Same KernelFn ABI, different argument convention.  Like lower_plan, only
// the structure (loop depth, direction) is baked into the text; counts,
// strides, offsets and tables arrive per call — so every same-shape copy in
// the process shares one compiled kernel.  The *_key functions give each
// kernel's NativeCache key ("copy/<levels>/<pack>", "index/<gather>/<cast>");
// the text is only generated when that key misses.

/// Strided pack/unpack: `levels` outer loops around a contiguous memcpy run.
///   lp      level trip counts            st   level strides (bytes)
///   base[0] array storage                base[1] packed buffer
///   rb[0]   storage byte offset          rb[1]   run length (bytes)
/// `pack` copies storage->buffer; otherwise buffer->storage.
[[nodiscard]] std::string lower_copy_kernel(int levels, bool pack);
[[nodiscard]] std::string copy_kernel_key(int levels, bool pack);

/// Indexed gather/scatter of 8-byte elements through a byte-offset table:
///   lp[0]   element count                tb[0] per-element storage offsets
///   base[0] array storage                base[1] packed buffer
/// `gather` copies buffer[k] = storage[off[k]]; otherwise the reverse.
/// `cast_d2i` (gather only) converts each double to long long on the way
/// out — the integer-destination write executor's value conversion.
[[nodiscard]] std::string lower_index_kernel(bool gather, bool cast_d2i);
[[nodiscard]] std::string index_kernel_key(bool gather, bool cast_d2i);

}  // namespace f90d::native
