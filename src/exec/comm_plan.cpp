#include "exec/comm_plan.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "compile/affine.hpp"
#include "native/jit.hpp"
#include "rts/remap.hpp"
#include "support/diag.hpp"

namespace f90d::exec {

using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using compile::CommAction;
using compile::CommKind;
using compile::RefInfo;
using compile::SpmdStmt;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;

namespace {

/// Upper bound on copy-descriptor nesting: Fortran rank (7) plus headroom.
/// Lets the interpreted odometer run on a stack array instead of a heap
/// vector, keeping warm communication allocation-free.
constexpr size_t kMaxCopyLevels = 8;

template <typename T>
void fill_view(rts::DistArray<T>& a, ArrayView& v) {
  v.base = reinterpret_cast<char*>(a.storage().data());
  v.elem = sizeof(T);
  v.dad = &a.dad();
  const int r = a.rank();
  v.lext.resize(static_cast<size_t>(r));
  v.aext.resize(static_cast<size_t>(r));
  for (int d = 0; d < r; ++d) {
    v.lext[static_cast<size_t>(d)] = a.local_extent(d);
    v.aext[static_cast<size_t>(d)] = a.alloc_extent(d);
  }
  v.stride.assign(static_cast<size_t>(r), 1);
  for (int d = r - 2; d >= 0; --d)
    v.stride[static_cast<size_t>(d)] =
        v.stride[static_cast<size_t>(d + 1)] * v.aext[static_cast<size_t>(d + 1)];
}

bool resolve_view(Env& env, const std::string& name, ArrayView& v) {
  auto sit = env.compiled.sema.symbols.find(name);
  if (sit == env.compiled.sema.symbols.end() || !sit->second.is_array())
    return false;
  if (sit->second.type == ast::BaseType::kReal) {
    auto it = env.dar.find(name);
    if (it == env.dar.end()) return false;
    v.ty = ElemTy::kReal;
    fill_view(it->second, v);
  } else if (sit->second.type == ast::BaseType::kInteger) {
    auto it = env.iar.find(name);
    if (it == env.iar.end()) return false;
    v.ty = ElemTy::kInt;
    fill_view(it->second, v);
  } else {
    auto it = env.lar.find(name);
    if (it == env.lar.end()) return false;
    v.ty = ElemTy::kLogical;
    fill_view(it->second, v);
  }
  return true;
}

/// Current storage base of a REAL or INTEGER array, null otherwise.
char* storage_base(Env& env, const std::string& name) {
  if (auto it = env.dar.find(name); it != env.dar.end())
    return reinterpret_cast<char*>(it->second.storage().data());
  if (auto it = env.iar.find(name); it != env.iar.end())
    return reinterpret_cast<char*>(it->second.storage().data());
  return nullptr;
}

/// Can this expression be evaluated once at plan-build time and baked?
/// Every scalar it reads must be covered by the plan key (same value =>
/// same plan), every variable in `bound` is supplied by the table builder,
/// and array-element reads are never bakeable (array contents are not part
/// of the key).  Intrinsic calls parse as kArrayRef of a non-array symbol
/// and recurse like any operator.
bool expr_bakeable(const Expr& e, const Env& env,
                   std::span<const std::string> key_names,
                   const std::set<std::string>& bound) {
  switch (e.kind) {
    case ExprKind::kVarRef: {
      if (bound.count(e.name)) return true;
      if (std::find(key_names.begin(), key_names.end(), e.name) !=
          key_names.end())
        return true;
      auto sit = env.compiled.sema.symbols.find(e.name);
      return sit != env.compiled.sema.symbols.end() &&
             sit->second.is_parameter;  // constants never go stale
    }
    case ExprKind::kArrayRef: {
      auto sit = env.compiled.sema.symbols.find(e.name);
      if (sit != env.compiled.sema.symbols.end() && sit->second.is_array())
        return false;  // element value would go stale without key coverage
      break;
    }
    default:
      break;
  }
  for (const ExprPtr& a : e.args)
    if (a && !expr_bakeable(*a, env, key_names, bound)) return false;
  return true;
}

void collect_vars(const Expr& e, const std::set<std::string>& among,
                  std::set<std::string>& out) {
  if (e.kind == ExprKind::kVarRef && among.count(e.name)) out.insert(e.name);
  for (const ExprPtr& a : e.args)
    if (a) collect_vars(*a, among, out);
}

/// Per-dimension local index of a global index, mirroring
/// DistArray::at_global_ghost (owned cells resolve through mu, BLOCK ghost
/// cells through the block origin).  Returns false exactly when the legacy
/// access would fail its own requires — the caller declines to the legacy
/// action, which reproduces the original diagnostic.
bool ghost_local(const ArrayView& v, const std::vector<int>& coords, int d,
                 Index gd, Index& l) {
  const Dad& dad = *v.dad;
  const DimMap& m = dad.dim(d);
  if (gd < 0 || gd >= dad.extent(d)) return false;
  if (m.kind == DistKind::kCollapsed) {
    l = gd;
  } else {
    const int c = coords[static_cast<size_t>(m.grid_dim)];
    if (dad.owns(d, gd, c)) {
      l = dad.local_of_global(d, gd);
    } else {
      if (m.kind != DistKind::kBlock || m.align_stride != 1) return false;
      if (v.lext[static_cast<size_t>(d)] <= 0) return false;
      l = gd - dad.global_of_local(d, 0, c);
    }
  }
  const Index shifted = l + m.overlap_lo;
  return shifted >= 0 && shifted < v.aext[static_cast<size_t>(d)];
}

/// Build a strided-copy descriptor over the region [base_l, base_l+count)
/// per dimension (owned-local coordinates; ghost cells allowed).  Levels
/// with a single trip drop out, and innermost levels whose stride equals
/// the accumulated run length coalesce into the contiguous chunk — a fully
/// contiguous region reduces to a single memcpy.
CopyDesc make_desc(const ArrayView& v, std::span<const Index> base_l,
                   std::span<const Index> count) {
  const int r = static_cast<int>(v.lext.size());
  CopyDesc out;
  out.elem = static_cast<Index>(v.elem);
  Index base = 0;
  for (int d = 0; d < r; ++d)
    base += (base_l[static_cast<size_t>(d)] + v.dad->dim(d).overlap_lo) *
            v.stride[static_cast<size_t>(d)];
  out.base = base * out.elem;

  // Innermost-out coalescing in element units, then count==1 elision.
  std::vector<Index> counts(count.begin(), count.end());
  std::vector<Index> strides(v.stride.begin(), v.stride.end());
  Index chunk = 1;  // elements per contiguous run
  int last = r;
  while (last > 0 && strides[static_cast<size_t>(last - 1)] == chunk) {
    chunk *= counts[static_cast<size_t>(last - 1)];
    --last;
  }
  out.chunk = chunk * out.elem;
  out.runs = 1;
  for (int d = 0; d < last; ++d) {
    const Index n = counts[static_cast<size_t>(d)];
    out.runs *= n;
    if (n == 1) continue;  // zero-range loop level: fold into the base
    out.counts.push_back(n);
    out.strides.push_back(strides[static_cast<size_t>(d)] * out.elem);
  }
  if (chunk == 0) out.runs = 0;
  out.total = out.runs * out.chunk;
  return out;
}

void call_copy_kernel(native::KernelFn f, const CopyDesc& d, char* storage,
                      std::byte* buf) {
  void* const bases[2] = {storage, buf};
  const long long rb[2] = {d.base, d.chunk};
  f(d.counts.data(), nullptr, bases, rb, d.strides.data(), nullptr, nullptr,
    nullptr, nullptr);
}

void call_index_kernel(native::KernelFn f, Index n, void* storage, void* buf,
                       const Index* tab) {
  const long long lp[1] = {n};
  void* const bases[2] = {storage, buf};
  const long long* const tbs[1] = {tab};
  f(lp, nullptr, bases, nullptr, nullptr, tbs, nullptr, nullptr, nullptr);
}

}  // namespace

native::KernelFn CommPlans::copy_kernel(int levels, bool pack) const {
  if (!use_native_) return nullptr;
  return native::NativeCache::instance().get_or_compile(
      native::copy_kernel_key(levels, pack),
      [=] { return native::lower_copy_kernel(levels, pack); });
}

native::KernelFn CommPlans::index_kernel(bool gather, bool cast_d2i) const {
  if (!use_native_) return nullptr;
  return native::NativeCache::instance().get_or_compile(
      native::index_kernel_key(gather, cast_d2i),
      [=] { return native::lower_index_kernel(gather, cast_d2i); });
}

void CommPlans::run_copy(const CopyDesc& d, char* storage, std::byte* buf,
                         bool to_buffer, native::KernelFn k) {
  if (d.runs <= 0 || d.chunk <= 0) return;
  if (d.chunk > d.elem) stats_.bytes_memcpy_fast_path += d.total;
  if (k != nullptr) {
    call_copy_kernel(k, d, storage, buf);
    return;
  }
  // Interpreted odometer: one memcpy per contiguous run.
  const size_t levels = d.counts.size();
  if (levels == 0) {
    if (to_buffer)
      std::memcpy(buf, storage + d.base, static_cast<size_t>(d.chunk));
    else
      std::memcpy(storage + d.base, buf, static_cast<size_t>(d.chunk));
    return;
  }
  // Fixed-size odometer: rank is bounded, and the warm path must stay
  // allocation-free (the alloc-regression test counts every operator new).
  require(levels <= kMaxCopyLevels, "copy descriptor rank in range");
  Index c[kMaxCopyLevels] = {};
  std::byte* b = buf;
  for (;;) {
    Index off = d.base;
    for (size_t k2 = 0; k2 < levels; ++k2) off += c[k2] * d.strides[k2];
    if (to_buffer)
      std::memcpy(b, storage + off, static_cast<size_t>(d.chunk));
    else
      std::memcpy(storage + off, b, static_cast<size_t>(d.chunk));
    b += d.chunk;
    size_t k2 = levels;
    while (k2 > 0) {
      --k2;
      if (++c[k2] < d.counts[k2]) break;
      c[k2] = 0;
      if (k2 == 0) return;
    }
  }
}

// --- overlap shift -----------------------------------------------------------

bool CommPlans::build_shift(const CommAction& a, const RefInfo& ref,
                            ShiftPlan& out) {
  ArrayView v;
  if (!resolve_view(*env_, ref.array, v)) return false;
  const Dad& dad = *v.dad;
  const int d = a.array_dim;
  const int amount = static_cast<int>(a.shift_amount);
  const DimMap& m = dad.dim(d);
  if (m.kind == DistKind::kCollapsed || amount == 0) {
    out.noop = true;  // the legacy primitive returns before taking a tag
    return true;
  }
  if (m.kind != DistKind::kBlock) return false;
  const int c = amount > 0 ? amount : -amount;
  if (c > (amount > 0 ? m.overlap_hi : m.overlap_lo)) return false;

  out.grid_dim = m.grid_dim;
  out.offset = amount > 0 ? -1 : +1;
  out.base = v.base;
  out.elem = v.elem;

  const int r = static_cast<int>(v.lext.size());
  const Index lext = v.lext[static_cast<size_t>(d)];
  const Index slab_lo = amount > 0 ? 0 : std::max<Index>(lext - c, 0);
  const Index slab_hi = amount > 0 ? std::min<Index>(c, lext) : lext;
  Index local_size = 1;
  for (Index e : v.lext) local_size *= e;

  std::vector<Index> base_l(static_cast<size_t>(r), 0);
  std::vector<Index> count(v.lext.begin(), v.lext.end());
  if (slab_lo < slab_hi && local_size > 0) {
    base_l[static_cast<size_t>(d)] = slab_lo;
    count[static_cast<size_t>(d)] = slab_hi - slab_lo;
    out.pack = make_desc(v, base_l, count);
  }  // else: empty slab, still exchanged (pack stays zero-run)

  const Index ghost_lo = amount > 0 ? lext : -static_cast<Index>(c);
  base_l.assign(static_cast<size_t>(r), 0);
  count.assign(v.lext.begin(), v.lext.end());
  base_l[static_cast<size_t>(d)] = ghost_lo;
  count[static_cast<size_t>(d)] = c;
  out.unpack = make_desc(v, base_l, count);

  const comm::GridComm& gc = env_->gc;
  const int n = gc.grid().extent(out.grid_dim);
  const int src = gc.coord(out.grid_dim) - out.offset;
  out.expect_recv = n > 1 && src >= 0 && src < n;

  out.pack_kernel =
      copy_kernel(static_cast<int>(out.pack.counts.size()), /*pack=*/true);
  out.unpack_kernel =
      copy_kernel(static_cast<int>(out.unpack.counts.size()), /*pack=*/false);
  return true;
}

void CommPlans::run_shift(ShiftPlan& p) {
  if (p.noop) return;
  machine::Proc& proc = env_->gc.proc();
  std::vector<std::byte> payload =
      proc.acquire_payload(static_cast<size_t>(p.pack.total));
  run_copy(p.pack, p.base, payload.data(), /*to_buffer=*/true, p.pack_kernel);
  std::vector<std::byte> received = env_->gc.shift_exchange_bytes(
      p.grid_dim, p.offset, std::move(payload), /*circular=*/false);
  if (!received.empty()) {
    require(static_cast<Index>(received.size()) >= p.unpack.total,
            "overlap_shift: slab size matches ghost");
    run_copy(p.unpack, p.base, received.data(), /*to_buffer=*/false,
             p.unpack_kernel);
  }
  // The incoming buffer was acquired from the *sender's* pool and migrated
  // here on the message; it joins this processor's pool.  Edge processors
  // that received nothing hold a default vector — pooling that would stack
  // useless zero-capacity entries.
  if (p.expect_recv) proc.release_payload(std::move(received));
}

// --- element broadcast -------------------------------------------------------

bool CommPlans::build_bcast(const CommAction& a, const RefInfo& ref,
                            std::span<const std::string> key_names,
                            BcastPlan& out) {
  const std::set<std::string> none;
  for (size_t d = 0; d < ref.subs.size(); ++d)
    if (!expr_bakeable(*ref.expr->args[d], *env_, key_names, none))
      return false;
  ArrayView& v = out.view;
  if (!resolve_view(*env_, ref.array, v)) return false;
  const Dad& dad = *v.dad;
  std::vector<Index>& g = out.g;
  g.resize(ref.subs.size());
  for (size_t d = 0; d < ref.subs.size(); ++d) {
    g[d] = hooks_.eval(*ref.expr->args[d]).as_i() -
           env_->lower_of(ref.array, static_cast<int>(d));
    if (g[d] < 0 || g[d] >= dad.extent(static_cast<int>(d))) return false;
  }
  out.coords.assign(
      static_cast<size_t>(env_->compiled.mapping.grid.ndims()), 0);
  out.root = dad.owner_logical_in(g, out.coords);
  out.is_root = env_->gc.my_logical() == out.root;
  out.ty = v.ty;
  out.buffer_id = a.buffer_id;
  if (out.is_root) {
    Index flat = 0;
    for (int d = 0; d < dad.rank(); ++d) {
      const Index l = dad.local_of_global(d, g[static_cast<size_t>(d)]);
      const Index shifted = l + dad.dim(d).overlap_lo;
      if (shifted < 0 || shifted >= v.aext[static_cast<size_t>(d)])
        return false;
      flat += shifted * v.stride[static_cast<size_t>(d)];
    }
    out.base = v.base;
    out.byte_off = flat * static_cast<Index>(v.elem);
  }
  out.scratch.reserve(1);
  return true;
}

void CommPlans::run_bcast(BcastPlan& p) {
  std::vector<double>& data = p.scratch;
  data.clear();
  if (p.is_root) {
    double val = 0;
    switch (p.ty) {
      case ElemTy::kReal:
        std::memcpy(&val, p.base + p.byte_off, sizeof(double));
        break;
      case ElemTy::kInt: {
        long long iv = 0;
        std::memcpy(&iv, p.base + p.byte_off, sizeof(long long));
        val = static_cast<double>(iv);
        break;
      }
      case ElemTy::kLogical:
        val = *reinterpret_cast<const unsigned char*>(p.base + p.byte_off) != 0
                  ? 1.0
                  : 0.0;
        break;
    }
    data.push_back(val);
  }
  env_->gc.bcast_all(p.root, data);
  Buf& b = env_->bufs[static_cast<size_t>(p.buffer_id)];
  b.scalar = p.ty == ElemTy::kInt
                 ? Value::integer(static_cast<long long>(data.at(0)))
                 : Value::real(data.at(0));
}

// --- slab multicast / transfer ----------------------------------------------

bool CommPlans::build_slab(const SpmdStmt& s, const CommAction& a,
                           const RefInfo& ref,
                           std::span<const std::string> key_names,
                           SlabPlan& out) {
  ArrayView& v = out.view;
  if (!resolve_view(*env_, ref.array, v)) return false;
  // Slab buffers are double-typed end to end (Buf::dvals); the tree walk
  // has the same restriction.
  if (v.ty != ElemTy::kReal) return false;
  const Dad& dad = *v.dad;
  const comm::GridComm& gc = env_->gc;
  const std::set<std::string> none;

  out.comm_dims.clear();
  out.dest_coords.clear();
  bool on_root = true;
  for (const auto& [d, sub] : a.root_subs) {
    const ExprPtr e = compile::affine_to_expr(sub);
    if (!expr_bakeable(*e, *env_, key_names, none)) return false;
    const Index val = hooks_.eval(*e).as_i() - env_->lower_of(ref.array, d);
    if (val < 0 || val >= dad.extent(d)) return false;
    const int owner = dad.owner_coord(d, val);
    const int gd = dad.dim(d).grid_dim;
    out.comm_dims.emplace_back(gd, owner);
    on_root = on_root && gc.coord(gd) == owner;
  }
  out.on_root = on_root;
  out.is_transfer = a.kind == CommKind::kTransfer;
  out.ty = v.ty;
  out.base = v.base;
  out.buffer_id = a.buffer_id;

  if (out.is_transfer) {
    for (size_t k = 0; k < out.comm_dims.size(); ++k) {
      int dest = out.comm_dims[k].second;
      if (k < a.dest_subs.size()) {
        const auto& [ld, dsub] = a.dest_subs[k];
        const Dad& ldad = env_->dads.at(s.refs[0].array);
        const ExprPtr e = compile::affine_to_expr(dsub);
        if (!expr_bakeable(*e, *env_, key_names, none)) return false;
        const Index dval =
            hooks_.eval(*e).as_i() - env_->lower_of(s.refs[0].array, ld);
        if (dval < 0 || dval >= ldad.extent(ld)) return false;
        dest = ldad.owner_coord(ld, dval);
      }
      out.dest_coords.push_back(dest);
    }
  }

  // Iteration ranges of the slab variables (identical on source line and
  // destinations; bound scalars are key-covered via the statement bounds).
  const std::vector<CommRange> all = hooks_.ranges(s);
  std::vector<CommRange> slab_ranges;
  for (const std::string& vn : ref.slab_vars)
    for (size_t k = 0; k < s.indices.size(); ++k)
      if (s.indices[k].var == vn) slab_ranges.push_back(all[k]);
  if (slab_ranges.size() != ref.slab_vars.size()) return false;
  Index slab_size = 1;
  for (const CommRange& r : slab_ranges) slab_size *= r.count;
  out.slab_size = slab_size;

  if (!(out.on_root && slab_size > 0)) return true;

  // Per-variable byte-offset tables: each subscript dimension is a function
  // of at most one slab variable, so the flat offset decomposes into a
  // constant part plus one table contribution per variable (a variable
  // driving several dimensions sums both into its table).  Tables hold the
  // *actual* local offsets per iteration value, so non-affine locals
  // (CYCLIC(k) course seams) are exact by construction.
  const size_t nv = ref.slab_vars.size();
  const std::set<std::string> svars(ref.slab_vars.begin(),
                                    ref.slab_vars.end());
  out.counts.resize(nv);
  out.tabs.resize(nv);
  for (size_t k = 0; k < nv; ++k) {
    out.counts[k] = slab_ranges[k].count;
    out.tabs[k].assign(static_cast<size_t>(out.counts[k]), 0);
  }
  Index base_off = 0;
  for (size_t dd = 0; dd < ref.expr->args.size(); ++dd) {
    const Expr& e = *ref.expr->args[dd];
    if (!expr_bakeable(e, *env_, key_names, svars)) return false;
    std::set<std::string> used;
    collect_vars(e, svars, used);
    if (used.size() > 1) return false;  // non-separable subscript
    const int d = static_cast<int>(dd);
    const long long lower = env_->lower_of(ref.array, d);
    if (used.empty()) {
      const Index gd = hooks_.eval(e).as_i() - lower;
      Index l = 0;
      if (!ghost_local(v, gc.my_coords(), d, gd, l)) return false;
      base_off += (l + dad.dim(d).overlap_lo) * v.stride[dd] *
                  static_cast<Index>(v.elem);
    } else {
      const std::string& vn = *used.begin();
      const size_t k = static_cast<size_t>(
          std::find(ref.slab_vars.begin(), ref.slab_vars.end(), vn) -
          ref.slab_vars.begin());
      for (Index i = 0; i < out.counts[k]; ++i) {
        const Index val = slab_ranges[k].value_at(i);
        const Index gd = hooks_.eval_bound(e, vn, val).as_i() - lower;
        Index l = 0;
        if (!ghost_local(v, gc.my_coords(), d, gd, l)) return false;
        out.tabs[k][static_cast<size_t>(i)] +=
            (l + dad.dim(d).overlap_lo) * v.stride[dd] *
            static_cast<Index>(v.elem);
      }
    }
  }
  out.base_off = base_off;
  return true;
}

void CommPlans::run_slab(SlabPlan& p) {
  Buf& b = env_->bufs[static_cast<size_t>(p.buffer_id)];
  std::vector<double>& slab = b.dvals;
  slab.clear();
  if (p.on_root && p.slab_size > 0) {
    slab.reserve(static_cast<size_t>(p.slab_size));
    const size_t nv = p.counts.size();
    std::vector<Index> c(nv, 0);
    for (;;) {
      Index off = p.base_off;
      for (size_t k = 0; k < nv; ++k)
        off += p.tabs[k][static_cast<size_t>(c[k])];
      double val;
      std::memcpy(&val, p.base + off, sizeof(double));
      slab.push_back(val);
      bool done = nv == 0;  // odometer, last variable fastest (SlabBuf order)
      size_t k = nv;
      while (k > 0) {
        --k;
        if (++c[k] < p.counts[k]) break;
        c[k] = 0;
        if (k == 0) done = true;
      }
      if (done) break;
    }
  }
  comm::GridComm& gc = env_->gc;
  if (!p.is_transfer) {
    for (const auto& [gd, owner] : p.comm_dims) gc.multicast(gd, owner, slab);
  } else {
    for (size_t k = 0; k < p.comm_dims.size(); ++k) {
      const auto& [gd, owner] = p.comm_dims[k];
      p.scratch.clear();
      const bool received = gc.transfer(
          gd, owner, p.dest_coords[k], std::span<const double>(slab),
          p.scratch);
      if (received)
        slab.swap(p.scratch);
      else if (gc.coord(gd) != owner)
        slab.clear();
    }
  }
}

// --- statement orchestration -------------------------------------------------

CommPlans::StmtPlan CommPlans::build(const SpmdStmt& s,
                                     std::span<const std::string> key_names) {
  StmtPlan plan;
  std::vector<const CommAction*> order;
  for (const CommAction& a : s.pre)
    if (!a.eliminated) order.push_back(&a);
  // The tree walk's dependency order: ghost fills / broadcasts / slabs
  // first, then iteration buffers by descending ref id.
  std::stable_sort(order.begin(), order.end(),
                   [](const CommAction* x, const CommAction* y) {
                     auto cls = [](CommKind k) {
                       return k == CommKind::kPrecompRead ||
                                      k == CommKind::kGather ||
                                      k == CommKind::kTemporaryShift
                                  ? 1
                                  : 0;
                     };
                     if (cls(x->kind) != cls(y->kind))
                       return cls(x->kind) < cls(y->kind);
                     return x->ref_id > y->ref_id;
                   });
  for (const CommAction* a : order) {
    Slot slot;
    slot.action = a;
    bake(s, slot, key_names, plan.arrays);
    plan.slots.push_back(std::move(slot));
  }
  return plan;
}

void CommPlans::bake(const SpmdStmt& s, Slot& slot,
                     std::span<const std::string> key_names,
                     std::vector<std::string>& arrays) {
  const CommAction& a = *slot.action;
  const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
  auto binds = [&arrays](const std::string& name) {
    if (std::find(arrays.begin(), arrays.end(), name) == arrays.end())
      arrays.push_back(name);
  };
  // A build failure — including a thrown runtime error (out-of-range
  // subscript, non-affine sub, unowned element) — declines the slot; the
  // legacy action then raises the original diagnostic at run time.
  try {
    switch (a.kind) {
      case CommKind::kOverlapShift: {
        ShiftPlan p;
        if (build_shift(a, ref, p)) {
          slot.plan = std::move(p);
          binds(ref.array);
          return;
        }
        break;
      }
      case CommKind::kBcastElement: {
        if (!std::holds_alternative<BcastPlan>(slot.plan))
          slot.plan = BcastPlan{};
        if (build_bcast(a, ref, key_names, std::get<BcastPlan>(slot.plan))) {
          binds(ref.array);
          return;
        }
        break;
      }
      case CommKind::kMulticast:
      case CommKind::kTransfer: {
        if (!std::holds_alternative<SlabPlan>(slot.plan))
          slot.plan = SlabPlan{};
        if (build_slab(s, a, ref, key_names, std::get<SlabPlan>(slot.plan))) {
          binds(ref.array);
          if (a.kind == CommKind::kTransfer)
            binds(s.refs[0].array);  // dest coords bake the lhs DAD
          return;
        }
        break;
      }
      default:
        // Schedule-backed read buffers run through gather_via_schedule
        // (their executors are compiled separately, keyed by schedule).
        break;
    }
  } catch (const Error&) {
  }
  slot.plan = LegacySlot{};
}

void CommPlans::rebind(const SpmdStmt& s, StmtPlan& plan,
                       std::span<const std::string> key_names) {
  for (Slot& slot : plan.slots) {
    const CommKind k = slot.action->kind;
    // A slot that bakes again after running legacy may add an array to
    // the entry's list; one that stops baking leaves its array listed
    // (invalidating too eagerly is harmless).
    if (k == CommKind::kBcastElement || k == CommKind::kMulticast ||
        k == CommKind::kTransfer)
      bake(s, slot, key_names, plan.arrays);
  }
}

void CommPlans::run(const SpmdStmt& s, StmtPlan& plan) {
  for (Slot& slot : plan.slots) run_slot(s, slot);
}

void CommPlans::run_slot(const SpmdStmt& s, Slot& slot) {
  if (std::holds_alternative<ShiftPlan>(slot.plan))
    run_shift(std::get<ShiftPlan>(slot.plan));
  else if (std::holds_alternative<BcastPlan>(slot.plan))
    run_bcast(std::get<BcastPlan>(slot.plan));
  else if (std::holds_alternative<SlabPlan>(slot.plan))
    run_slab(std::get<SlabPlan>(slot.plan));
  else
    hooks_.legacy(s, *slot.action);
}

// --- PARTI executors ---------------------------------------------------------

CommPlans::SchedEntry* CommPlans::sched_entry(const parti::SchedulePtr& sched,
                                              const std::string& array,
                                              bool write) {
  auto it = scheds_.find(sched.get());
  if (it != scheds_.end() && it->second.array != array) {
    scheds_.erase(it);
    it = scheds_.end();
  }
  // Baked offsets address the storage the entry was built against; an
  // array whose storage moved (redistribute/remap escape hatch) rebuilds.
  if (it != scheds_.end() && it->second.base != storage_base(*env_, array)) {
    ++stats_.invalidations;
    scheds_.erase(it);
    it = scheds_.end();
  }
  if (it == scheds_.end()) {
    SchedEntry e;
    e.owner = sched;
    e.array = array;
    ArrayView v;
    if (!resolve_view(*env_, array, v)) return nullptr;
    if (v.ty == ElemTy::kLogical) return nullptr;
    e.ty = v.ty;
    e.base = v.base;
    it = scheds_.emplace(sched.get(), std::move(e)).first;
  }
  SchedEntry& e = it->second;

  if (!index_kernels_ready_) {
    index_kernels_ready_ = true;
    gather8_ = index_kernel(/*gather=*/true, false);
    scatter8_ = index_kernel(/*gather=*/false, false);
    gather_d2i_ = index_kernel(/*gather=*/true, true);
  }

  const bool ready = write ? e.write_ready : e.read_ready;
  const bool failed = write ? e.write_failed : e.read_failed;
  if (failed) return nullptr;
  if (ready) {
    ++stats_.hits;
    return &e;
  }

  // Resolve the per-peer global-id lists to flat byte offsets once.  A
  // failure here is exactly a failure the generic executor would hit too
  // (unowned id, out-of-range local) — decline and let it raise.
  ArrayView v;
  if (!resolve_view(*env_, array, v)) return nullptr;
  const Dad& dad = *v.dad;
  auto storage_offsets = [&](const std::vector<std::vector<Index>>& gidx,
                             std::vector<std::vector<Index>>& out) -> bool {
    out.assign(gidx.size(), {});
    std::vector<Index> g;
    for (size_t q = 0; q < gidx.size(); ++q) {
      out[q].reserve(gidx[q].size());
      for (Index flat : gidx[q]) {
        rts::unflatten_global(dad, flat, g);
        Index off = 0;
        for (int d = 0; d < dad.rank(); ++d) {
          const Index l = dad.local_of_global(d, g[static_cast<size_t>(d)]);
          const Index shifted = l + dad.dim(d).overlap_lo;
          if (shifted < 0 || shifted >= v.aext[static_cast<size_t>(d)])
            return false;
          off += shifted * v.stride[static_cast<size_t>(d)];
        }
        out[q].push_back(off * static_cast<Index>(v.elem));
      }
    }
    return true;
  };

  bool ok;
  try {
    if (!write) {
      ok = storage_offsets(sched->push_gidx, e.push_off);
      if (ok) {
        e.slot_off.assign(sched->slot_of.size(), {});
        for (size_t q = 0; q < sched->slot_of.size(); ++q) {
          e.slot_off[q].reserve(sched->slot_of[q].size());
          for (Index slot : sched->slot_of[q])
            e.slot_off[q].push_back(slot * 8);
        }
      }
    } else {
      ok = storage_offsets(sched->place_gidx, e.place_off);
      if (ok) {
        e.pos_off.assign(sched->send_pos.size(), {});
        for (size_t q = 0; q < sched->send_pos.size(); ++q) {
          e.pos_off[q].reserve(sched->send_pos[q].size());
          for (Index pos : sched->send_pos[q]) e.pos_off[q].push_back(pos * 8);
        }
      }
    }
  } catch (const Error&) {
    ok = false;  // the generic executor raises the original diagnostic
  }
  if (!ok) {
    (write ? e.write_failed : e.read_failed) = true;
    return nullptr;
  }
  (write ? e.write_ready : e.read_ready) = true;
  ++stats_.misses;
  return &e;
}

template <typename T>
void CommPlans::read_impl(const parti::Schedule& sc, SchedEntry& e,
                          std::vector<T>& out) {
  comm::GridComm& gc = env_->gc;
  machine::Proc& proc = gc.proc();
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  require(sc.nprocs == p, "schedule built for this machine size");
  out.assign(static_cast<size_t>(sc.tmp_size), T{});
  char* outb = reinterpret_cast<char*>(out.data());

  {  // local traffic: elements I both own and need
    const auto& ids = e.push_off[static_cast<size_t>(me)];
    const auto& slots = e.slot_off[static_cast<size_t>(me)];
    require(ids.size() == slots.size(), "self push/slot lists conform");
    for (size_t j = 0; j < ids.size(); ++j)
      std::memcpy(outb + slots[j], e.base + ids[j], sizeof(T));
    proc.charge_copy(static_cast<double>(ids.size() * sizeof(T)));
  }

  constexpr int kTag = 8101;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    const auto& offs = e.push_off[static_cast<size_t>(to)];
    std::vector<std::byte> payload =
        proc.acquire_payload(offs.size() * sizeof(T));
    if (gather8_ != nullptr) {
      call_index_kernel(gather8_, static_cast<Index>(offs.size()), e.base,
                        payload.data(), offs.data());
    } else {
      for (size_t j = 0; j < offs.size(); ++j)
        std::memcpy(payload.data() + j * sizeof(T), e.base + offs[j],
                    sizeof(T));
    }
    gc.send_payload_logical(to, kTag + step, std::move(payload));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    machine::Message m = gc.recv_message_logical(from, kTag + step);
    const auto& slots = e.slot_off[static_cast<size_t>(from)];
    require(m.payload.size() == slots.size() * sizeof(T),
            "gather payload matches schedule");
    if (scatter8_ != nullptr) {
      call_index_kernel(scatter8_, static_cast<Index>(slots.size()), outb,
                        m.payload.data(), slots.data());
    } else {
      for (size_t j = 0; j < slots.size(); ++j)
        std::memcpy(outb + slots[j], m.payload.data() + j * sizeof(T),
                    sizeof(T));
    }
    proc.release_payload(std::move(m.payload));
  }
}

template <typename T, typename Cast>
void CommPlans::write_impl(const parti::Schedule& sc, SchedEntry& e,
                           std::span<const double> values, Cast cast) {
  comm::GridComm& gc = env_->gc;
  machine::Proc& proc = gc.proc();
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  require(sc.nprocs == p, "schedule built for this machine size");
  const char* valb = reinterpret_cast<const char*>(values.data());
  const bool casting = !std::is_same_v<T, double>;
  const native::KernelFn pack_kernel = casting ? gather_d2i_ : gather8_;

  {  // self traffic
    const auto& pos = sc.send_pos[static_cast<size_t>(me)];
    const auto& ids = e.place_off[static_cast<size_t>(me)];
    require(pos.size() == ids.size(), "self pos/place lists conform");
    for (size_t j = 0; j < pos.size(); ++j) {
      const T v = cast(values[static_cast<size_t>(pos[j])]);
      std::memcpy(e.base + ids[j], &v, sizeof(T));
    }
    proc.charge_copy(static_cast<double>(pos.size() * sizeof(T)));
  }

  constexpr int kTag = 8201;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    const auto& poff = e.pos_off[static_cast<size_t>(to)];
    std::vector<std::byte> payload =
        proc.acquire_payload(poff.size() * sizeof(T));
    if (pack_kernel != nullptr) {
      call_index_kernel(pack_kernel, static_cast<Index>(poff.size()),
                        const_cast<char*>(valb), payload.data(), poff.data());
    } else {
      for (size_t j = 0; j < poff.size(); ++j) {
        double dv;
        std::memcpy(&dv, valb + poff[j], sizeof(double));
        const T v = cast(dv);
        std::memcpy(payload.data() + j * sizeof(T), &v, sizeof(T));
      }
    }
    gc.send_payload_logical(to, kTag + step, std::move(payload));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    machine::Message m = gc.recv_message_logical(from, kTag + step);
    const auto& ids = e.place_off[static_cast<size_t>(from)];
    require(m.payload.size() == ids.size() * sizeof(T),
            "scatter payload matches schedule");
    if (scatter8_ != nullptr) {
      call_index_kernel(scatter8_, static_cast<Index>(ids.size()), e.base,
                        m.payload.data(), ids.data());
    } else {
      for (size_t j = 0; j < ids.size(); ++j)
        std::memcpy(e.base + ids[j], m.payload.data() + j * sizeof(T),
                    sizeof(T));
    }
    proc.release_payload(std::move(m.payload));
  }
}

bool CommPlans::execute_read(const parti::SchedulePtr& sched,
                             const std::string& array, Buf& b) {
  SchedEntry* e = sched_entry(sched, array, /*write=*/false);
  if (e == nullptr) return false;
  if (e->ty == ElemTy::kInt)
    read_impl<long long>(*sched, *e, b.ivals);
  else
    read_impl<double>(*sched, *e, b.dvals);
  return true;
}

bool CommPlans::execute_write(const parti::SchedulePtr& sched,
                              const std::string& array,
                              std::span<const double> values) {
  SchedEntry* e = sched_entry(sched, array, /*write=*/true);
  if (e == nullptr) return false;
  if (e->ty == ElemTy::kInt)
    write_impl<long long>(*sched, *e, values,
                          [](double v) { return static_cast<long long>(v); });
  else
    write_impl<double>(*sched, *e, values, [](double v) { return v; });
  return true;
}

}  // namespace f90d::exec
