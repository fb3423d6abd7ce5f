#include "exec/comm_plan.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "compile/affine.hpp"
#include "rts/remap.hpp"
#include "support/diag.hpp"

namespace f90d::exec {

using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using compile::CommAction;
using compile::CommKind;
using compile::IndexPartition;
using compile::RefInfo;
using compile::SpmdStmt;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;

namespace {

/// Upper bound on copy-descriptor nesting: Fortran rank (7) plus headroom.
/// Lets the copy odometer run on a stack array instead of a heap
/// vector, keeping warm communication allocation-free.
constexpr size_t kMaxCopyLevels = 8;

/// The baked storage geometry of array `name`.
void resolve_view(Env& env, const std::string& name, ArrayView& v) {
  env.with_storage(name, [&](auto& a) {
    using T = typename std::decay_t<decltype(a)>::value_type;
    v.base = reinterpret_cast<char*>(a.storage().data());
    v.ty = kElemType<T>;
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
      v.stride[static_cast<size_t>(d)] = v.stride[static_cast<size_t>(d + 1)] *
                                         v.aext[static_cast<size_t>(d + 1)];
  });
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
/// cells through the block origin).  Returns false exactly when the tree
/// walk's access would fail its own requires — the statement declines, and
/// the tree walk reproduces the original diagnostic.
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

/// One contiguous run of `n` bytes: storage -> buffer when packing.
template <bool kPack>
void copy_run(char* s, std::byte* b, size_t n) {
  if constexpr (kPack)
    std::memcpy(b, s, n);
  else
    std::memcpy(s, b, n);
}

template <bool kPack>
void copy_strided(const CopyDesc& d, char* storage, std::byte* b) {
  const size_t chunk = static_cast<size_t>(d.chunk);
  const size_t levels = d.counts.size();
  if (levels == 0) {
    copy_run<kPack>(storage + d.base, b, chunk);
    return;
  }
  if (levels == 1) {
    char* s = storage + d.base;
    const Index n = d.counts[0];
    const Index st = d.strides[0];
    // The column slab of a 2-D BLOCK shift is a run of one REAL per row:
    // a compile-time size turns each copy into a single load and store.
    if (chunk == 8) {
      for (Index i = 0; i < n; ++i, s += st, b += 8) copy_run<kPack>(s, b, 8);
    } else {
      for (Index i = 0; i < n; ++i, s += st, b += chunk)
        copy_run<kPack>(s, b, chunk);
    }
    return;
  }
  // Fixed-size odometer: rank is bounded, and the warm path must stay
  // allocation-free (the alloc-regression test counts every operator new).
  require(levels <= kMaxCopyLevels, "copy descriptor rank in range");
  Index c[kMaxCopyLevels] = {};
  for (;;) {
    Index off = d.base;
    for (size_t k = 0; k < levels; ++k) off += c[k] * d.strides[k];
    copy_run<kPack>(storage + off, b, chunk);
    b += chunk;
    size_t k = levels;
    while (k > 0) {
      --k;
      if (++c[k] < d.counts[k]) break;
      c[k] = 0;
      if (k == 0) return;
    }
  }
}

}  // namespace

void CommPlans::run_copy(const CopyDesc& d, char* storage, std::byte* buf,
                         bool to_buffer) {
  if (d.runs <= 0 || d.chunk <= 0) return;
  if (d.chunk > d.elem) stats_.bytes_memcpy_fast_path += d.total;
  if (to_buffer)
    copy_strided<true>(d, storage, buf);
  else
    copy_strided<false>(d, storage, buf);
}

// --- overlap shift -----------------------------------------------------------

bool CommPlans::build_shift(const CommAction& a, const RefInfo& ref,
                            ShiftPlan& out) {
  ArrayView v;
  resolve_view(*env_, ref.array, v);
  const Dad& dad = *v.dad;
  const int d = a.array_dim;
  const int amount = static_cast<int>(a.shift_amount);
  const DimMap& m = dad.dim(d);
  if (m.kind == DistKind::kCollapsed || amount == 0) {
    out.noop = true;  // the tree walk's primitive returns before taking a tag
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

  return true;
}

void CommPlans::run_shift(ShiftPlan& p) {
  if (p.noop) return;
  machine::Proc& proc = env_->gc.proc();
  std::vector<std::byte> payload =
      proc.acquire_payload(static_cast<size_t>(p.pack.total));
  run_copy(p.pack, p.base, payload.data(), /*to_buffer=*/true);
  std::vector<std::byte> received = env_->gc.shift_exchange_bytes(
      p.grid_dim, p.offset, std::move(payload), /*circular=*/false);
  if (!received.empty()) {
    require(static_cast<Index>(received.size()) >= p.unpack.total,
            "overlap_shift: slab size matches ghost");
    run_copy(p.unpack, p.base, received.data(), /*to_buffer=*/false);
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
  resolve_view(*env_, ref.array, v);
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
  std::vector<std::byte>& data = p.scratch;
  data.clear();
  if (p.is_root) {
    data.resize(p.view.elem);
    std::memcpy(data.data(), p.base + p.byte_off, p.view.elem);
  }
  env_->gc.bcast_all(p.root, data);
  require(data.size() == p.view.elem, "broadcast element arrived");
  env_->bufs[static_cast<size_t>(p.buffer_id)].scalar =
      load_elem(p.view.ty, data.data(), 0);
}

// --- slab multicast / transfer ----------------------------------------------

bool CommPlans::build_slab(const SpmdStmt& s, const CommAction& a,
                           const RefInfo& ref,
                           std::span<const std::string> key_names,
                           SlabPlan& out) {
  ArrayView& v = out.view;
  resolve_view(*env_, ref.array, v);
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
  std::vector<PlanLoop> slab_ranges(ref.slab_vars.size());
  Index slab_size = 1;
  for (size_t j = 0; j < ref.slab_vars.size(); ++j) {
    auto ip = std::find_if(
        s.indices.begin(), s.indices.end(),
        [&](const IndexPartition& x) { return x.var == ref.slab_vars[j]; });
    if (ip == s.indices.end()) return false;
    const Index lo = hooks_.eval(*ip->lo).as_i();
    const Index hi = hooks_.eval(*ip->hi).as_i();
    const Index st = ip->st ? hooks_.eval(*ip->st).as_i() : 1;
    const bool by_array = !ip->array.empty();
    derive_level(*ip, by_array ? &env_->dads.at(ip->array) : nullptr,
                 by_array ? env_->lower_of(ip->array, ip->dim) : 0,
                 env_->compiled.mapping.grid, gc.my_coords(), lo, hi, st,
                 slab_ranges[j]);
    slab_size *= slab_ranges[j].count;
  }
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
  std::vector<std::byte>& slab = b.col;
  b.ty = p.view.ty;
  slab.clear();
  if (p.on_root && p.slab_size > 0) {
    const size_t elem = p.view.elem;
    slab.resize(static_cast<size_t>(p.slab_size) * elem);
    std::byte* out = slab.data();
    const size_t nv = p.counts.size();
    std::vector<Index> c(nv, 0);
    for (;;) {
      Index off = p.base_off;
      for (size_t k = 0; k < nv; ++k)
        off += p.tabs[k][static_cast<size_t>(c[k])];
      std::memcpy(out, p.base + off, elem);
      out += elem;
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
          gd, owner, p.dest_coords[k], std::span<const std::byte>(slab),
          p.scratch);
      if (received)
        slab.swap(p.scratch);
      else if (gc.coord(gd) != owner)
        slab.clear();
    }
  }
}

// --- concatenation write-back -------------------------------------------------

void CommPlans::build_concat(const SpmdStmt& s, ConcatPlan& out) {
  const std::string& name = s.refs.at(0).array;
  ArrayView v;
  resolve_view(*env_, name, v);
  const Dad& dad = *v.dad;
  out.ty = v.ty;
  out.base = v.base;
  out.total = 1;
  out.contiguous = true;
  for (int d = 0; d < dad.rank(); ++d) {
    const size_t du = static_cast<size_t>(d);
    out.gext.push_back(dad.extent(d));
    out.shift.push_back(dad.dim(d).overlap_lo);
    out.total *= dad.extent(d);
    out.contiguous = out.contiguous && dad.dim(d).overlap_lo == 0 &&
                     v.aext[du] == dad.extent(d);
  }
  out.stride = v.stride;
}

void CommPlans::bind_concat(const ExecPlan& xp, ConcatPlan& out) {
  out.header.clear();
  out.values = 0;
  if (xp.masked_out || !xp.has_body || xp.loops.empty()) return;
  Index n = 1;
  for (const PlanLoop& l : xp.loops) n *= l.count;
  if (n == 0) return;
  out.values = n;
  // Destinations in iteration order (last level fastest), merged into
  // ascending runs exactly like the tree walk's per-element merge.  A unit
  // innermost id step contributes its whole sweep at once.
  std::vector<std::pair<Index, Index>>& runs = out.runs;
  runs.clear();
  auto add = [&runs](Index start, Index count) {
    if (!runs.empty() && runs.back().first + runs.back().second == start)
      runs.back().second += count;
    else
      runs.emplace_back(start, count);
  };
  const RefPlan& g = xp.gids;
  const size_t nv = xp.loops.size();
  const OffsetTerm& inner = g.terms[nv - 1];
  const Index inner_count = xp.loops[nv - 1].count;
  const bool unit_inner = inner.table.empty() && inner.stride == 1;
  std::vector<Index> c(nv - 1, 0);  // outer-level counters
  for (bool more = true; more;) {
    Index outer = g.base;
    for (size_t k = 0; k + 1 < nv; ++k) outer += g.terms[k].at(c[k]);
    if (unit_inner) {
      add(outer, inner_count);
    } else {
      for (Index i = 0; i < inner_count; ++i) add(outer + inner.at(i), 1);
    }
    more = false;
    for (size_t k = nv - 1; k-- > 0;) {
      if (++c[k] < xp.loops[k].count) {
        more = true;
        break;
      }
      c[k] = 0;
    }
  }
  out.header.reserve(1 + 2 * runs.size());
  out.header.push_back(static_cast<double>(runs.size()));
  for (const auto& [start, count] : runs) {
    out.header.push_back(static_cast<double>(start));
    out.header.push_back(static_cast<double>(count));
  }
}

std::vector<double>& CommPlans::concat_payload(StmtPlan& plan) {
  ConcatPlan& p = std::get<ConcatPlan>(plan.post.at(0).plan);
  p.blk.reserve(p.header.size() + static_cast<size_t>(p.values));
  p.blk.assign(p.header.begin(), p.header.end());
  return p.blk;
}

void CommPlans::run_post(StmtPlan& plan) {
  for (Slot& slot : plan.post) {
    ConcatPlan& p = std::get<ConcatPlan>(slot.plan);
    std::vector<double>& blk = p.blk;
    env_->gc.concat_tree<double>(blk);
    size_t pos = 0;
    while (pos < blk.size()) {
      const size_t nruns = static_cast<size_t>(blk[pos++]);
      size_t vpos = pos + 2 * nruns;  // values follow the run table
      for (size_t r = 0; r < nruns; ++r, pos += 2) {
        const Index start = static_cast<Index>(blk[pos]);
        const Index count = static_cast<Index>(blk[pos + 1]);
        require(start >= 0 && count >= 0 && start + count <= p.total &&
                    vpos + static_cast<size_t>(count) <= blk.size(),
                "concatenation run inside the array");
        if (p.contiguous && p.ty == ast::BaseType::kReal) {
          std::memcpy(p.base + start * static_cast<Index>(sizeof(double)),
                      blk.data() + vpos,
                      static_cast<size_t>(count) * sizeof(double));
          vpos += static_cast<size_t>(count);
          continue;
        }
        for (Index k = 0; k < count; ++k) {
          // Row-major global id -> local element offset.
          Index rest = start + k;
          Index off = 0;
          for (size_t d = p.gext.size(); d-- > 0;) {
            off += (rest % p.gext[d] + p.shift[d]) * p.stride[d];
            rest /= p.gext[d];
          }
          // write_element's conversions: as_d / as_i / as_b of a REAL.
          store_elem(p.ty, p.base, off, Value::real(blk[vpos++]));
        }
      }
      pos = vpos;
    }
  }
}

// --- statement orchestration -------------------------------------------------

std::vector<const CommAction*> pre_actions_in_order(const SpmdStmt& s) {
  std::vector<const CommAction*> order;
  for (const CommAction& a : s.pre)
    if (!a.eliminated) order.push_back(&a);
  std::stable_sort(order.begin(), order.end(),
                   [](const CommAction* x, const CommAction* y) {
                     const bool xb = is_iteration_buffer(x->kind);
                     const bool yb = is_iteration_buffer(y->kind);
                     if (xb != yb) return yb;
                     return x->ref_id > y->ref_id;
                   });
  return order;
}

std::optional<CommPlans::StmtPlan> CommPlans::build(
    const SpmdStmt& s, std::span<const std::string> key_names,
    const ExecPlan* xp) {
  StmtPlan plan;
  for (const CommAction* a : pre_actions_in_order(s)) {
    Slot& slot = plan.slots.emplace_back();
    slot.action = a;
    if (!bake(s, slot, key_names, plan.arrays)) return std::nullopt;
  }
  if (xp != nullptr && xp->sink == Sink::kConcat) {
    Slot slot;
    for (const CommAction& a : s.post)
      if (!a.eliminated) slot.action = &a;
    ConcatPlan cp;
    build_concat(s, cp);
    bind_concat(*xp, cp);
    slot.plan = std::move(cp);
    plan.post.push_back(std::move(slot));
    plan.arrays.push_back(s.refs[0].array);
  }
  return plan;
}

bool CommPlans::bake(const SpmdStmt& s, Slot& slot,
                     std::span<const std::string> key_names,
                     std::vector<std::string>& arrays) {
  const CommAction& a = *slot.action;
  const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
  auto binds = [&arrays](const std::string& name) {
    if (std::find(arrays.begin(), arrays.end(), name) == arrays.end())
      arrays.push_back(name);
  };
  // A build failure — including a thrown runtime error (out-of-range
  // subscript, non-affine sub, unowned element) — declines the statement;
  // the tree walk then raises the original diagnostic at run time.
  try {
    switch (a.kind) {
      case CommKind::kOverlapShift: {
        ShiftPlan p;
        if (!build_shift(a, ref, p)) return false;
        slot.plan = std::move(p);
        binds(ref.array);
        return true;
      }
      case CommKind::kBcastElement: {
        if (!std::holds_alternative<BcastPlan>(slot.plan))
          slot.plan = BcastPlan{};
        if (!build_bcast(a, ref, key_names, std::get<BcastPlan>(slot.plan)))
          return false;
        binds(ref.array);
        return true;
      }
      case CommKind::kMulticast:
      case CommKind::kTransfer: {
        if (!std::holds_alternative<SlabPlan>(slot.plan))
          slot.plan = SlabPlan{};
        if (!build_slab(s, a, ref, key_names, std::get<SlabPlan>(slot.plan)))
          return false;
        binds(ref.array);
        if (a.kind == CommKind::kTransfer)
          binds(s.refs[0].array);  // dest coords bake the lhs DAD
        return true;
      }
      case CommKind::kPrecompRead:
      case CommKind::kTemporaryShift:
      case CommKind::kGather:
        // The schedule lives in the interpreter's ScheduleCache, localized
        // by its inspector; nothing is baked here.
        slot.plan = GatherSlot{};
        return true;
      default:
        return false;
    }
  } catch (const Error&) {
    return false;
  }
}

bool CommPlans::rebind(const SpmdStmt& s, StmtPlan& plan,
                       std::span<const std::string> key_names,
                       const ExecPlan* xp) {
  for (Slot& slot : plan.post)
    if (xp != nullptr) bind_concat(*xp, std::get<ConcatPlan>(slot.plan));
  for (Slot& slot : plan.slots) {
    const CommKind k = slot.action->kind;
    if ((k == CommKind::kBcastElement || k == CommKind::kMulticast ||
         k == CommKind::kTransfer) &&
        !bake(s, slot, key_names, plan.arrays))
      return false;
  }
  return true;
}

void CommPlans::run(const SpmdStmt& s, StmtPlan& plan, const ExecPlan& xp) {
  for (Slot& slot : plan.slots) run_slot(s, slot, xp);
}

void CommPlans::run_slot(const SpmdStmt& s, Slot& slot, const ExecPlan& xp) {
  if (std::holds_alternative<ShiftPlan>(slot.plan)) {
    run_shift(std::get<ShiftPlan>(slot.plan));
  } else if (std::holds_alternative<BcastPlan>(slot.plan)) {
    run_bcast(std::get<BcastPlan>(slot.plan));
  } else if (std::holds_alternative<SlabPlan>(slot.plan)) {
    run_slab(std::get<SlabPlan>(slot.plan));
  } else {
    hooks_.gather(s, *slot.action, xp);
  }
}

}  // namespace f90d::exec
