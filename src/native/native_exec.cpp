#include "native/native_exec.hpp"

#include "native/jit.hpp"

namespace f90d::native {

using exec::ExecPlan;
using exec::RefPlan;
using exec::Value;

namespace {

/// Loop parameters, offsets, strides and tables: everything in the kernel
/// arguments a rebind can change.
void pack(const ExecPlan& p, Attachment& at) {
  const size_t nv = p.loops.size();
  const size_t nr = p.refs.size();
  at.lp.resize(3 * nv);
  at.lv.resize(nv);
  for (size_t k = 0; k < nv; ++k) {
    const exec::PlanLoop& l = p.loops[k];
    at.lp[3 * k] = l.count;
    at.lp[3 * k + 1] = l.val0;
    at.lp[3 * k + 2] = l.step;
    at.lv[k] = l.values.empty() ? nullptr : l.values.data();
  }
  at.rb.resize(nr + 1);
  at.st.assign((nr + 1) * nv, 0);
  at.tb.assign((nr + 1) * nv, nullptr);
  for (size_t r = 0; r <= nr; ++r) {
    const RefPlan& rp = r < nr ? p.refs[r] : p.lhs;
    at.rb[r] = rp.base;
    for (size_t k = 0; k < nv; ++k) {
      const exec::OffsetTerm& t = rp.terms[k];
      if (t.table.empty())
        at.st[r * nv + k] = t.stride;
      else
        at.tb[r * nv + k] = t.table.data();
    }
  }
  at.iters = 1;
  for (const exec::PlanLoop& l : p.loops) at.iters *= l.count;
}

}  // namespace

Index NativeExec::try_run(const ExecPlan& plan,
                          std::unique_ptr<Attachment>& slot) {
  // Degenerate plans (guarded out, empty nest, zero-trip level) are cheap
  // on the interpreter and never worth a compile.  Gathered reads load
  // from iteration-order buffers the kernel ABI has no argument for, so
  // PARTI plans stay on the tape without an attach.
  if (plan.masked_out || plan.loops.empty() || !plan.gathers.empty())
    return -1;
  for (const exec::PlanLoop& l : plan.loops)
    if (l.count == 0) return -1;

  if (!slot) {
    slot = std::make_unique<Attachment>();
    attach(plan, *slot);
  }
  Attachment& at = *slot;
  if (at.fn == nullptr) {
    ++stats_.fallbacks;
    return -1;
  }
  // Re-verify every runtime scalar's kind against what the kernel was
  // compiled for; a drifted kind (same slot reused with a different type)
  // silently falls back rather than risking a wrong conversion.
  for (const ScalarBind& b : at.binds) {
    if (b.src->k != b.kind) {
      ++stats_.fallbacks;
      return -1;
    }
    switch (b.kind) {
      case Value::K::kD: at.ds[static_cast<size_t>(b.slot)] = b.src->d; break;
      case Value::K::kI: at.is[static_cast<size_t>(b.slot)] = b.src->i; break;
      case Value::K::kB:
        at.ls[static_cast<size_t>(b.slot)] = b.src->b ? 1 : 0;
        break;
    }
  }
  // Slab payload vectors are replaced by every communication action;
  // their data pointers must be re-read at each call.
  for (const auto& [idx, buf] : at.slabs) at.base[idx] = buf->col.data();

  at.fn(at.lp.data(), at.lv.data(), at.base.data(), at.rb.data(),
        at.st.data(), at.tb.data(), at.ds.data(), at.is.data(),
        at.ls.data());
  ++stats_.runs;
  return at.iters;
}

void NativeExec::attach(const ExecPlan& p, Attachment& at) {
  ++stats_.attaches;
  if (!available_) return;  // fn stays null: permanent fallback
  plan_shape(p, shape_);
  at.fn = NativeCache::instance().get_or_compile(shape_.key, [&p] {
    std::optional<Lowered> low = lower_plan(p, nullptr);
    return low ? std::move(low->source) : std::string();
  });
  if (at.fn == nullptr) return;

  const size_t nr = p.refs.size();
  at.binds = shape_.binds;
  at.ds.assign(static_cast<size_t>(shape_.n_ds), 0.0);
  at.is.assign(static_cast<size_t>(shape_.n_is), 0);
  at.ls.assign(static_cast<size_t>(shape_.n_ls), 0);
  at.base.resize(nr + 1);
  for (size_t r = 0; r <= nr; ++r) {
    const RefPlan& rp = r < nr ? p.refs[r] : p.lhs;
    // A scalar slot's value travels via ds/is/ls; iteration buffers never
    // get here (the Lowerer declines them, and attach follows a compile).
    at.base[r] = rp.data;
    if (rp.access == compile::Access::kSlabBuf)
      at.slabs.emplace_back(r, rp.buf);
  }
  pack(p, at);
}

bool repack(const ExecPlan& p, Attachment& at) {
  // A permanent fallback has nothing packed; a plan re-bound to an empty
  // nest never reaches its kernel (try_run returns early), so its
  // arguments are packed by the next non-empty rebind.
  if (at.fn == nullptr || p.masked_out) return true;
  for (const exec::PlanLoop& l : p.loops)
    if (l.count == 0) return true;
  const size_t nv = p.loops.size();
  const size_t nr = p.refs.size();
  for (size_t k = 0; k < nv; ++k)
    if (p.loops[k].values.empty() != (at.lv[k] == nullptr)) return false;
  for (size_t r = 0; r <= nr; ++r) {
    const RefPlan& rp = r < nr ? p.refs[r] : p.lhs;
    for (size_t k = 0; k < nv; ++k) {
      const size_t i = r * nv + k;
      if (rp.terms[k].table.empty() != (at.tb[i] == nullptr)) return false;
      // The kernel text bakes an innermost unit stride in as the bare
      // counter, so a rebind that flips it needs a different kernel.
      const bool packed_unit = at.tb[i] == nullptr && at.st[i] == 1;
      if (k + 1 == nv && unit_inner_stride(rp, nv) != packed_unit)
        return false;
    }
  }
  pack(p, at);
  return true;
}

}  // namespace f90d::native
