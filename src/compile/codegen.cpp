#include "compile/codegen.hpp"

#include <algorithm>
#include <set>
#include <sstream>

#include "compile/comm_detect.hpp"

namespace f90d::compile {

using namespace ast;
using frontend::Symbol;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;

namespace {

const char* to_cstr(CommKind k) { return to_string(k); }

/// Compose a source-coordinate subscript with the dimension's ALIGN map so
/// it lives in the 0-based template index domain:
///   t0 = a * (sub - lower) + b0
AffineSub compose_align(const AffineSub& sub, const DimMap& m,
                        long long lower) {
  AffineSub t = sub.clone();
  if (t.kind != AffineSub::Kind::kAffine) return t;
  for (auto& [v, c] : t.coefs) c *= m.align_stride;
  t.cst = m.align_stride * (t.cst - lower) + m.align_offset;
  if (t.runtime)
    t.runtime = make_bin(BinOpKind::kMul, make_int(m.align_stride),
                         std::move(t.runtime));
  return t;
}

/// Identical stage-2 distribution of two dimensions: same kind, template
/// domain and CYCLIC(k) block size on the same grid dimension — the
/// precondition for comparing their subscripts in a common template index
/// space (Table 1) or for declaring an (i, i) pair communication-free.
bool same_distribution(const DimMap& a, const DimMap& b) {
  return a.kind == b.kind && a.grid_dim == b.grid_dim &&
         a.template_extent == b.template_extent &&
         (a.kind != DistKind::kCyclic || a.block == b.block) &&
         // Value-based mappings agree only when driven by the same map
         // array (its single resolved table per run makes this exact).
         (a.kind != DistKind::kIndirect || a.map_name == b.map_name);
}

/// Count floating-point operations in an elementwise expression (bulk cost
/// charged per iteration by the simulator).
double count_flops(const Expr& e) {
  double n = 0;
  if (e.kind == ExprKind::kBinOp) {
    switch (e.bin_op) {
      case BinOpKind::kAdd:
      case BinOpKind::kSub:
      case BinOpKind::kMul:
        n += 1;
        break;
      case BinOpKind::kDiv:
      case BinOpKind::kPow:
        n += 4;
        break;
      default:
        n += 1;
        break;
    }
  }
  if (e.kind == ExprKind::kArrayRef &&
      (e.name == "SQRT" || e.name == "EXP" || e.name == "LOG" ||
       e.name == "SIN" || e.name == "COS"))
    n += 8;
  for (const ExprPtr& a : e.args)
    if (a) n += count_flops(*a);
  return n;
}

class Generator {
 public:
  Generator(const NormProgram& norm, const mapping::MappingTable& mapping,
            const std::map<std::string, Symbol>& syms,
            const CodegenOptions& opt)
      : norm_(norm), map_(mapping), syms_(syms), opt_(opt) {}

  SpmdProgram run() {
    for (const NormStmtPtr& s : norm_.body) gen_stmt(*s, prog_.body);
    prog_.buffer_count = n_buffers_;
    return std::move(prog_);
  }

 private:
  [[nodiscard]] bool is_array(const std::string& n) const {
    auto it = syms_.find(n);
    return it != syms_.end() && it->second.is_array();
  }
  [[nodiscard]] const Dad* dad_of(const std::string& n) const {
    auto it = map_.dads.find(n);
    return it == map_.dads.end() ? nullptr : &it->second;
  }
  [[nodiscard]] bool is_distributed(const std::string& n) const {
    const Dad* d = dad_of(n);
    return d != nullptr && !d->fully_replicated();
  }
  [[nodiscard]] long long lower_of(const std::string& n, int d) const {
    return syms_.at(n).lower[static_cast<size_t>(d)];
  }

  void bump(const char* name) { prog_.action_histogram[name] += 1; }

  void note_overlap(const std::string& array, int dim, long long amount) {
    auto& v = prog_.overlaps[array];
    const int r = syms_.at(array).rank();
    if (v.empty()) v.assign(static_cast<size_t>(r), {0, 0});
    auto& [lo, hi] = v[static_cast<size_t>(dim)];
    if (amount > 0) hi = std::max(hi, static_cast<int>(amount));
    if (amount < 0) lo = std::max(lo, static_cast<int>(-amount));
  }

  // --- statement dispatch ----------------------------------------------------
  void gen_stmt(const NormStmt& s, std::vector<SpmdStmtPtr>& out) {
    switch (s.kind) {
      case NKind::kForallAssign:
        out.push_back(gen_forall(s));
        break;
      case NKind::kScalarAssign:
        out.push_back(gen_scalar_assign(s));
        break;
      case NKind::kReduce:
        out.push_back(gen_reduce(s));
        break;
      case NKind::kArrayIntrinsic: {
        auto n = std::make_unique<SpmdStmt>(SpmdKind::kArrayIntrinsic);
        n->loc = s.loc;
        n->intrinsic = s.intrinsic;
        n->dest_array = s.dest_array;
        for (const ExprPtr& a : s.call_args)
          n->call_args.push_back(a ? a->clone() : nullptr);
        bump(("intrinsic:" + s.intrinsic).c_str());
        out.push_back(std::move(n));
        break;
      }
      case NKind::kSeqDo: {
        auto n = std::make_unique<SpmdStmt>(SpmdKind::kSeqDo);
        n->loc = s.loc;
        n->do_var = s.do_var;
        n->do_lo = s.do_lo->clone();
        n->do_hi = s.do_hi->clone();
        n->do_st = s.do_st ? s.do_st->clone() : nullptr;
        for (const NormStmtPtr& b : s.body) gen_stmt(*b, n->body);
        out.push_back(std::move(n));
        break;
      }
      case NKind::kIf: {
        auto n = std::make_unique<SpmdStmt>(SpmdKind::kIf);
        n->loc = s.loc;
        n->mask = s.mask->clone();
        for (const NormStmtPtr& b : s.body) gen_stmt(*b, n->body);
        for (const NormStmtPtr& b : s.else_body) gen_stmt(*b, n->else_body);
        out.push_back(std::move(n));
        break;
      }
      case NKind::kPrint: {
        auto n = std::make_unique<SpmdStmt>(SpmdKind::kPrint);
        n->loc = s.loc;
        for (const ExprPtr& e : s.items) n->items.push_back(e->clone());
        out.push_back(std::move(n));
        break;
      }
    }
  }

  // --- forall ------------------------------------------------------------------
  SpmdStmtPtr gen_forall(const NormStmt& s) {
    auto n = std::make_unique<SpmdStmt>(SpmdKind::kForall);
    n->loc = s.loc;
    n->lhs = s.lhs->clone();
    n->rhs = s.rhs->clone();
    if (s.mask) n->mask = s.mask->clone();

    std::set<std::string> vars;
    for (const ForallSpec& sp : s.specs) vars.insert(sp.var);

    // Index partitions start unpartitioned, bounds copied from the specs.
    for (const ForallSpec& sp : s.specs) {
      IndexPartition ip;
      ip.var = sp.var;
      ip.lo = sp.lo->clone();
      ip.hi = sp.hi->clone();
      ip.st = sp.st ? sp.st->clone() : nullptr;
      n->indices.push_back(std::move(ip));
    }
    auto part_of = [&](const std::string& v) -> IndexPartition* {
      for (IndexPartition& ip : n->indices)
        if (ip.var == v) return &ip;
      return nullptr;
    };

    // ---- analyze the lhs -------------------------------------------------------
    require(n->lhs->kind == ExprKind::kArrayRef, "forall lhs is an array ref");
    const std::string& lhs_name = n->lhs->name;
    const Dad* lhs_dad = dad_of(lhs_name);
    require(lhs_dad != nullptr, "lhs array has a descriptor");

    RefInfo lhs_ref;
    lhs_ref.array = lhs_name;
    lhs_ref.expr = n->lhs.get();
    for (const ExprPtr& a : n->lhs->args)
      lhs_ref.subs.push_back(analyze_subscript(*a, vars, syms_));

    enum class LhsMode { kCanonical, kNoncanonical, kVector, kReplicated };
    LhsMode mode = LhsMode::kCanonical;
    if (lhs_dad->fully_replicated()) {
      mode = LhsMode::kReplicated;
    } else {
      for (int d = 0; d < lhs_dad->rank(); ++d) {
        const AffineSub& sub = lhs_ref.subs[static_cast<size_t>(d)];
        if (lhs_dad->dim(d).kind == DistKind::kCollapsed) continue;
        if (sub.kind == AffineSub::Kind::kVector) {
          mode = LhsMode::kVector;
          break;
        }
        const std::string v = sub.single_var();
        const bool canonical_dim =
            (!v.empty() && sub.coef(v) == 1 && sub.cst == 0 &&
             !sub.has_runtime()) ||
            sub.is_scalar();
        if (!canonical_dim) mode = LhsMode::kNoncanonical;
      }
    }

    // ---- computation partitioning (paper §4) -----------------------------------
    switch (mode) {
      case LhsMode::kCanonical:
        // Owner-computes: every distributed lhs dim with a variable
        // subscript partitions that variable; scalar subscripts mask.
        for (int d = 0; d < lhs_dad->rank(); ++d) {
          if (lhs_dad->dim(d).kind == DistKind::kCollapsed) continue;
          const AffineSub& sub = lhs_ref.subs[static_cast<size_t>(d)];
          const std::string v = sub.single_var();
          if (!v.empty()) {
            IndexPartition* ip = part_of(v);
            if (ip && !ip->partitioned()) {
              ip->array = lhs_name;
              ip->dim = d;
            }
          } else {
            // Fixed position on a distributed dim: processor mask.
            ProcGuard g;
            g.array = lhs_name;
            g.dim = d;
            g.sub = sub.clone();
            n->guards.push_back(std::move(g));
          }
        }
        break;
      case LhsMode::kVector:
        // "our compiler distributes the computation i with respect to the
        //  owner of A(i)" — partition the inner index by the lhs dimension.
        for (int d = 0; d < lhs_dad->rank(); ++d) {
          const AffineSub& sub = lhs_ref.subs[static_cast<size_t>(d)];
          if (lhs_dad->dim(d).kind == DistKind::kCollapsed) continue;
          // The inner index of V(i): a vector sub carries the inner affine's
          // coefficients.
          if (sub.coefs.size() == 1) {
            const std::string& v = sub.coefs.begin()->first;
            IndexPartition* ip = part_of(v);
            if (ip && !ip->partitioned()) {
              ip->array = lhs_name;
              ip->dim = d;
            }
          }
        }
        break;
      case LhsMode::kNoncanonical: {
        // "the compiler equally distributes the iteration space on the
        //  number of processors on which the lhs array is distributed."
        std::vector<int> grid_dims;
        for (int d = 0; d < lhs_dad->rank(); ++d)
          if (lhs_dad->dim(d).kind != DistKind::kCollapsed)
            grid_dims.push_back(lhs_dad->dim(d).grid_dim);
        size_t g = 0;
        for (IndexPartition& ip : n->indices) {
          if (g < grid_dims.size()) ip.synth_grid_dim = grid_dims[g++];
        }
        break;
      }
      case LhsMode::kReplicated:
        // Partition by rhs ownership (handled after rhs collection).
        break;
    }

    // ---- collect read references ------------------------------------------------
    n->refs.push_back(std::move(lhs_ref));  // refs[0] = lhs
    collect_refs(*n->rhs, vars, n->refs);
    if (n->mask) collect_refs(*n->mask, vars, n->refs);
    const size_t n_rhs_refs = n->refs.size();
    // Arrays read by the lhs subscripts (the indirection array U of
    // A(U(I))) come last, so no rhs or mask ref id moves.  They are tagged
    // like any read but do not take part in choosing the partition.
    for (const ExprPtr& a : n->lhs->args) collect_refs(*a, vars, n->refs);

    if (mode == LhsMode::kReplicated) {
      // Iterations follow the owners of the distributed rhs data; fixed
      // positions become processor guards (paper Algorithm 1, line 11 path).
      for (size_t r = 1; r < n_rhs_refs; ++r) {
        RefInfo& ref = n->refs[r];
        const Dad* dad = dad_of(ref.array);
        if (dad == nullptr || dad->fully_replicated()) continue;
        for (int d = 0; d < dad->rank(); ++d) {
          if (dad->dim(d).kind == DistKind::kCollapsed) continue;
          const AffineSub& sub = ref.subs[static_cast<size_t>(d)];
          const std::string v = sub.single_var();
          if (!v.empty() && sub.coef(v) == 1 && sub.cst == 0 &&
              !sub.has_runtime()) {
            IndexPartition* ip = part_of(v);
            if (ip && !ip->partitioned()) {
              ip->array = ref.array;
              ip->dim = d;
            }
          } else if (sub.is_scalar()) {
            bool dup = false;
            for (const ProcGuard& g : n->guards)
              dup = dup || (g.array == ref.array && g.dim == d);
            if (!dup) {
              ProcGuard g;
              g.array = ref.array;
              g.dim = d;
              g.sub = sub.clone();
              n->guards.push_back(std::move(g));
            }
          }
        }
      }
    }

    // ---- Algorithm 1: tag every read reference -----------------------------------
    for (size_t r = 1; r < n->refs.size(); ++r)
      tag_ref(*n, n->refs[r], mode == LhsMode::kCanonical ||
                                  mode == LhsMode::kVector);

    // ---- lhs write path -----------------------------------------------------------
    switch (mode) {
      case LhsMode::kCanonical:
        n->lhs_buffered = false;
        break;
      case LhsMode::kNoncanonical: {
        n->lhs_buffered = true;
        CommAction a;
        bool single_index = true;
        for (const AffineSub& sub : n->refs[0].subs)
          single_index = single_index &&
                         classify_write(sub) == Table2Write::kPostcompWrite;
        // schedule1_write enumerates every peer's destinations locally,
        // which a mask would have to filter; a masked write scatters, and
        // its masked-out iterations simply send nothing.
        a.kind = single_index && !n->mask ? CommKind::kPostcompWrite
                                          : CommKind::kScatter;
        a.ref_id = 0;
        a.sched_key = opt_.reuse_schedules ? sched_key(*n, n->refs[0], "w")
                                           : std::string{};
        bump(to_cstr(a.kind));
        n->post.push_back(std::move(a));
        break;
      }
      case LhsMode::kVector: {
        n->lhs_buffered = true;
        CommAction a;
        a.kind = CommKind::kScatter;
        a.ref_id = 0;
        a.sched_key = opt_.reuse_schedules ? sched_key(*n, n->refs[0], "w")
                                           : std::string{};
        bump(to_cstr(a.kind));
        n->post.push_back(std::move(a));
        break;
      }
      case LhsMode::kReplicated: {
        n->lhs_buffered = true;
        CommAction a;
        a.kind = CommKind::kConcatWrite;
        a.ref_id = 0;
        bump(to_cstr(a.kind));
        n->post.push_back(std::move(a));
        break;
      }
    }

    n->flops_per_iter = count_flops(*n->rhs) + (n->mask ? count_flops(*n->mask) : 0);
    mark_enumerated_partitions(*n);
    return n;
  }

  /// A strided range over a block-cyclic CYCLIC(k>1) dimension owns local
  /// indices that form no arithmetic progression; tag those partitions so
  /// the emitter loops over an explicit set_BOUND_list instead of a
  /// lb:ub:st triplet.  Unit strides (and their descending twins, which
  /// set_BOUND normalizes) keep contiguous local ranks and stay uniform.
  void mark_enumerated_partitions(SpmdStmt& n) const {
    for (IndexPartition& ip : n.indices) {
      if (ip.array.empty()) continue;
      const Dad* dad = dad_of(ip.array);
      if (dad == nullptr) continue;
      const DimMap& m = dad->dim(ip.dim);
      if (m.kind == DistKind::kIndirect) {
        // Value-based ownership: the owned set is arbitrary, so the local
        // range is an explicit set_BOUND_list for every stride.
        ip.enumerated = true;
        continue;
      }
      if (m.kind != DistKind::kCyclic || m.block <= 1) continue;
      ip.enumerated = !is_unit_stride(ip.st);
    }
  }

  [[nodiscard]] static bool is_unit_stride(const ast::ExprPtr& st) {
    if (!st) return true;
    if (st->kind == ExprKind::kIntLit)
      return st->int_value == 1 || st->int_value == -1;
    if (st->kind == ExprKind::kUnOp && st->un_op == UnOpKind::kNeg &&
        st->args[0]->kind == ExprKind::kIntLit)
      return st->args[0]->int_value == 1;
    return false;
  }

  /// Collect array references (pre-order) from an elementwise expression.
  void collect_refs(Expr& e, const std::set<std::string>& vars,
                    std::vector<RefInfo>& refs) {
    if (e.kind == ExprKind::kArrayRef && is_array(e.name)) {
      RefInfo ref;
      ref.array = e.name;
      ref.expr = &e;
      for (const ExprPtr& a : e.args)
        ref.subs.push_back(analyze_subscript(*a, vars, syms_));
      refs.push_back(std::move(ref));
      // Vector-valued subscripts: the indirection array itself is also read
      // per iteration; recurse so V gets its own tag.
    }
    for (ExprPtr& a : e.args)
      if (a) collect_refs(*a, vars, refs);
  }

  /// Algorithm 1 body: tag one read reference (rhs, mask or lhs subscript).
  void tag_ref(SpmdStmt& n, RefInfo& ref, bool canonical_lhs) {
    const Dad* dad = dad_of(ref.array);
    if (dad == nullptr || dad->fully_replicated()) {
      ref.access = Access::kDirect;  // replicated: always local
      return;
    }
    const Dad* lhs_dad = dad_of(n.refs[0].array);
    const Symbol& sym = syms_.at(ref.array);

    // All-scalar reference to a distributed array: one fixed element.  The
    // executing processors may already own it (the guards pin them to the
    // owning grid line); recognizing that is the §7 "eliminate unnecessary
    // communications" optimization.  Without it the compiler broadcasts the
    // element — the extra O(log P) communication §8.2 attributes the
    // hand-written/compiled gap to.  Codegen only records the coverage fact
    // (`covered`); the comm_opt elimination pass acts on it.
    {
      bool all_scalar = true;
      for (const AffineSub& sub : ref.subs)
        all_scalar = all_scalar && sub.is_scalar();
      if (all_scalar) {
        bool covered = true;
        for (int d = 0; d < dad->rank(); ++d) {
          if (dad->dim(d).kind == DistKind::kCollapsed) continue;
          covered = covered && dim_covered_by_partition(
                                   n, ref, d, ref.subs[static_cast<size_t>(d)]);
        }
        CommAction a;
        a.kind = CommKind::kBcastElement;
        a.covered = covered;
        if (covered) a.note = "redundant: executing processors own the element";
        a.ref_id = static_cast<int>(&ref - n.refs.data());
        a.buffer_id = n_buffers_++;
        ref.access = Access::kScalarSlot;
        ref.buffer_id = a.buffer_id;
        bump(to_cstr(a.kind));
        n.pre.push_back(std::move(a));
        return;
      }
    }

    // Per-dimension structured tags.
    enum class DimState { kLocal, kMulticast, kTransfer, kShift, kUnstructured };
    std::vector<DimState> state(static_cast<size_t>(dad->rank()),
                                DimState::kUnstructured);
    std::vector<long long> shift_amt(static_cast<size_t>(dad->rank()), 0);
    std::vector<bool> shift_runtime(static_cast<size_t>(dad->rank()), false);

    for (int d = 0; d < dad->rank(); ++d) {
      const DimMap& m = dad->dim(d);
      const AffineSub& sub = ref.subs[static_cast<size_t>(d)];
      if (m.kind == DistKind::kCollapsed) {
        // Whole extent is local everywhere; any subscript works.
        state[static_cast<size_t>(d)] =
            sub.kind == AffineSub::Kind::kAffine ? DimState::kLocal
                                                 : DimState::kUnstructured;
        if (sub.kind != AffineSub::Kind::kAffine)
          state[static_cast<size_t>(d)] = DimState::kLocal;  // local values
        continue;
      }
      // Find the lhs dimension aligned with the same template (grid) dim.
      int lhs_d = -1;
      if (lhs_dad != nullptr) {
        for (int ld = 0; ld < lhs_dad->rank(); ++ld) {
          if (lhs_dad->dim(ld).kind != DistKind::kCollapsed &&
              lhs_dad->dim(ld).grid_dim == m.grid_dim) {
            lhs_d = ld;
            break;
          }
        }
      }
      if (lhs_d < 0) {
        // No aligned lhs dimension.  If the iteration space is guarded or
        // partitioned to this reference's owners (replicated-lhs path), the
        // dimension is effectively local.
        if (dim_covered_by_partition(n, ref, d, sub)) {
          state[static_cast<size_t>(d)] = DimState::kLocal;
        }
        continue;
      }
      // Two different interleavings on the same grid dim — e.g. lhs
      // CYCLIC(2) vs rhs CYCLIC(3) — own different element sets even for
      // (i, i), so they must fall through to the unstructured
      // (schedule-based) path.
      if (!same_distribution(lhs_dad->dim(lhs_d), m)) {
        if (dim_covered_by_partition(n, ref, d, sub))
          state[static_cast<size_t>(d)] = DimState::kLocal;
        continue;
      }
      const AffineSub lhs_t = compose_align(
          n.refs[0].subs[static_cast<size_t>(lhs_d)], lhs_dad->dim(lhs_d),
          lower_of(n.refs[0].array, lhs_d));
      const AffineSub rhs_t =
          compose_align(sub, m, lower_of(ref.array, d));
      // CYCLIC and CYCLIC(k) dims take the temporary-shift row of Table 1
      // for constant shifts; only BLOCK earns overlap areas.
      const Table1Row row = classify_pair(lhs_t, rhs_t, m);
      switch (row) {
        case Table1Row::kNoComm:
          state[static_cast<size_t>(d)] = DimState::kLocal;
          break;
        case Table1Row::kMulticast:
          state[static_cast<size_t>(d)] = DimState::kMulticast;
          break;
        case Table1Row::kTransfer:
          state[static_cast<size_t>(d)] = DimState::kTransfer;
          break;
        case Table1Row::kOverlapShift:
          state[static_cast<size_t>(d)] = DimState::kShift;
          shift_amt[static_cast<size_t>(d)] = rhs_t.cst - lhs_t.cst;
          break;
        case Table1Row::kTemporaryShift:
          state[static_cast<size_t>(d)] = DimState::kShift;
          shift_runtime[static_cast<size_t>(d)] = true;
          break;
        case Table1Row::kNotStructured:
          if (dim_covered_by_partition(n, ref, d, sub))
            state[static_cast<size_t>(d)] = DimState::kLocal;
          break;
      }
    }

    // Decide the access path from the per-dim states.
    int n_local = 0, n_mcast = 0, n_xfer = 0, n_shift = 0, n_unstr = 0;
    bool any_runtime_shift = false;
    for (int d = 0; d < dad->rank(); ++d) {
      switch (state[static_cast<size_t>(d)]) {
        case DimState::kLocal: ++n_local; break;
        case DimState::kMulticast: ++n_mcast; break;
        case DimState::kTransfer: ++n_xfer; break;
        case DimState::kShift:
          ++n_shift;
          any_runtime_shift =
              any_runtime_shift || shift_runtime[static_cast<size_t>(d)];
          break;
        case DimState::kUnstructured: ++n_unstr; break;
      }
    }
    (void)canonical_lhs;
    (void)sym;

    if (n_unstr == 0 && n_mcast == 0 && n_xfer == 0 && n_shift == 0) {
      ref.access = Access::kDirect;
      return;
    }

    if (n_unstr == 0 && n_shift > 0 && n_mcast == 0 && n_xfer == 0 &&
        !any_runtime_shift) {
      // Pure compile-time shifts: overlap areas (one action per dim).
      ref.access = Access::kDirect;  // ghost cells make it local
      for (int d = 0; d < dad->rank(); ++d) {
        if (state[static_cast<size_t>(d)] != DimState::kShift) continue;
        CommAction a;
        a.kind = CommKind::kOverlapShift;
        a.ref_id = static_cast<int>(&ref - n.refs.data());
        a.array_dim = d;
        a.shift_amount = shift_amt[static_cast<size_t>(d)];
        note_overlap(ref.array, d, a.shift_amount);
        bump(to_cstr(a.kind));
        n.pre.push_back(std::move(a));
      }
      return;
    }

    if (n_unstr == 0 && (n_mcast > 0 || n_xfer > 0) && n_shift == 0) {
      // Pure multicast / transfer slab.
      CommAction a;
      a.kind = n_xfer > 0 ? CommKind::kTransfer : CommKind::kMulticast;
      a.ref_id = static_cast<int>(&ref - n.refs.data());
      a.buffer_id = n_buffers_++;
      for (int d = 0; d < dad->rank(); ++d) {
        const DimState st = state[static_cast<size_t>(d)];
        if (st != DimState::kMulticast && st != DimState::kTransfer) continue;
        a.root_subs.emplace_back(d, ref.subs[static_cast<size_t>(d)].clone());
        // Paired lhs scalar position for transfer.
        const DimMap& m = dad->dim(d);
        if (lhs_dad != nullptr) {
          for (int ld = 0; ld < lhs_dad->rank(); ++ld) {
            if (lhs_dad->dim(ld).kind != DistKind::kCollapsed &&
                lhs_dad->dim(ld).grid_dim == m.grid_dim) {
              a.dest_subs.emplace_back(
                  ld, n.refs[0].subs[static_cast<size_t>(ld)].clone());
              break;
            }
          }
        }
      }
      // Slab index variables: the ones appearing in the reference's
      // non-communicated dimensions (spec order).
      for (const IndexPartition& ip : n.indices) {
        bool used = false;
        for (int d = 0; d < dad->rank(); ++d) {
          const DimState st = state[static_cast<size_t>(d)];
          if (st == DimState::kMulticast || st == DimState::kTransfer) continue;
          used = used || ref.subs[static_cast<size_t>(d)].coef(ip.var) != 0;
        }
        if (used) ref.slab_vars.push_back(ip.var);
      }
      ref.access = Access::kSlabBuf;
      ref.buffer_id = a.buffer_id;
      bump(to_cstr(a.kind));
      n.pre.push_back(std::move(a));
      return;
    }

    // Unstructured fallback: iteration-ordered buffer (Table 2).
    CommAction a;
    Table2Read worst = Table2Read::kPrecompRead;
    for (int d = 0; d < dad->rank(); ++d) {
      if (state[static_cast<size_t>(d)] == DimState::kLocal) continue;
      const Table2Read r = classify_read(ref.subs[static_cast<size_t>(d)]);
      if (r == Table2Read::kGather || r == Table2Read::kGatherUnknown)
        worst = Table2Read::kGather;
    }
    a.kind = worst == Table2Read::kPrecompRead ? CommKind::kPrecompRead
                                               : CommKind::kGather;
    if (worst == Table2Read::kPrecompRead && any_runtime_shift &&
        n_mcast == 0 && n_xfer == 0 && n_unstr == 0) {
      a.kind = CommKind::kTemporaryShift;  // (i, i+s) row of Table 1
    }
    if (a.kind == CommKind::kPrecompRead) {
      a.fused_mcast_dims = n_mcast;
      a.fused_shift_dims = n_shift;
    }
    a.ref_id = static_cast<int>(&ref - n.refs.data());
    a.buffer_id = n_buffers_++;
    a.sched_key =
        opt_.reuse_schedules ? sched_key(n, ref, "r") : std::string{};
    ref.access = Access::kIterBuf;
    ref.buffer_id = a.buffer_id;
    bump(to_cstr(a.kind));
    n.pre.push_back(std::move(a));
  }

  /// Is dimension d of `ref` effectively local given the chosen iteration
  /// partitioning and guards?  `use_guards` enables the guard-based scalar
  /// coverage (disabled when reproducing the unoptimized compiler).
  bool dim_covered_by_partition(const SpmdStmt& n, const RefInfo& ref, int d,
                                const AffineSub& sub,
                                bool use_guards = true) const {
    const Dad* dad = dad_of(ref.array);
    const std::string v = sub.single_var();
    if (!v.empty() && sub.coef(v) == 1 && !sub.has_runtime() &&
        sub.kind == AffineSub::Kind::kAffine) {
      for (const IndexPartition& ip : n.indices) {
        if (ip.var != v || ip.array.empty()) continue;
        const Dad* pd = dad_of(ip.array);
        if (pd == nullptr) continue;
        // Identical mapping of the partitioning dim and this dim?
        const DimMap& a = pd->dim(ip.dim);
        const DimMap& b = dad->dim(d);
        const long long la = lower_of(ip.array, ip.dim);
        const long long lb = lower_of(ref.array, d);
        // Partition dims are canonical by construction: the partition-side
        // subscript is exactly the variable.
        AffineSub canon;
        canon.kind = AffineSub::Kind::kAffine;
        canon.coefs[v] = 1;
        const AffineSub sa = compose_align(canon, a, la);
        const AffineSub sb = compose_align(sub, b, lb);
        if (same_distribution(a, b) &&
            classify_pair(sa, sb, a) == Table1Row::kNoComm)
          return true;
      }
      return false;
    }
    if (sub.is_scalar() && use_guards) {
      for (const ProcGuard& g : n.guards) {
        if (g.array != ref.array || g.dim != d) continue;
        // Same fixed position?
        if (g.sub.cst == sub.cst && g.sub.coefs.empty() &&
            g.sub.runtime_str() == sub.runtime_str())
          return true;
      }
    }
    return false;
  }

  /// Schedule-cache key: array mapping + subscripts + iteration bounds,
  /// and for a write its mask, since masked-out iterations contribute no
  /// destination.
  std::string sched_key(const SpmdStmt& n, const RefInfo& ref,
                        const char* rw) const {
    std::ostringstream os;
    os << rw << ":" << ref.array << ":";
    const Dad* dad = dad_of(ref.array);
    if (dad) os << dad->signature();
    os << ":";
    for (const ExprPtr& a : ref.expr->args) os << ast::to_fortran(*a) << ",";
    os << "|";
    for (const IndexPartition& ip : n.indices) {
      os << ip.var << "=" << ast::to_fortran(*ip.lo) << ":"
         << ast::to_fortran(*ip.hi);
      if (ip.st) os << ":" << ast::to_fortran(*ip.st);
      os << ";";
    }
    if (rw[0] == 'w' && n.mask) os << "?" << ast::to_fortran(*n.mask);
    return os.str();
  }

  // --- scalar assignment ---------------------------------------------------------
  SpmdStmtPtr gen_scalar_assign(const NormStmt& s) {
    auto n = std::make_unique<SpmdStmt>(SpmdKind::kScalarAssign);
    n->loc = s.loc;
    n->target = s.target;
    n->rhs = s.rhs->clone();
    // Distributed single-element reads become broadcasts from the owner.
    std::set<std::string> no_vars;
    collect_refs(*n->rhs, no_vars, n->refs);
    for (RefInfo& ref : n->refs) {
      if (!is_distributed(ref.array)) {
        ref.access = Access::kDirect;
        continue;
      }
      CommAction a;
      a.kind = CommKind::kBcastElement;
      a.ref_id = static_cast<int>(&ref - n->refs.data());
      a.buffer_id = n_buffers_++;
      ref.access = Access::kScalarSlot;
      ref.buffer_id = a.buffer_id;
      bump(to_cstr(a.kind));
      n->pre.push_back(std::move(a));
    }
    return n;
  }

  // --- reductions ------------------------------------------------------------------
  SpmdStmtPtr gen_reduce(const NormStmt& s) {
    auto n = std::make_unique<SpmdStmt>(SpmdKind::kReduce);
    n->loc = s.loc;
    n->target = s.target;
    n->reduce_op = s.reduce_op;
    if (s.loc_lo) {
      n->loc_lo = s.loc_lo->clone();
      n->loc_st = s.loc_st->clone();
    }
    n->rhs = s.rhs->clone();
    if (s.mask) n->mask = s.mask->clone();

    std::set<std::string> vars;
    for (const ForallSpec& sp : s.specs) {
      vars.insert(sp.var);
      IndexPartition ip;
      ip.var = sp.var;
      ip.lo = sp.lo->clone();
      ip.hi = sp.hi->clone();
      ip.st = sp.st ? sp.st->clone() : nullptr;
      n->indices.push_back(std::move(ip));
    }

    // Pseudo-lhs: the first distributed reference anchors the partitioning.
    collect_refs(*n->rhs, vars, n->refs);
    RefInfo* anchor = nullptr;
    for (RefInfo& ref : n->refs)
      if (is_distributed(ref.array)) {
        anchor = &ref;
        break;
      }
    if (anchor != nullptr) {
      const Dad* dad = dad_of(anchor->array);
      for (int d = 0; d < dad->rank(); ++d) {
        if (dad->dim(d).kind == DistKind::kCollapsed) continue;
        const AffineSub& sub = anchor->subs[static_cast<size_t>(d)];
        const std::string v = sub.single_var();
        if (!v.empty() && sub.coef(v) == 1 && !sub.has_runtime()) {
          for (IndexPartition& ip : n->indices) {
            if (ip.var == v && !ip.partitioned()) {
              ip.array = anchor->array;
              ip.dim = d;
            }
          }
        } else if (sub.is_scalar()) {
          ProcGuard g;
          g.array = anchor->array;
          g.dim = d;
          g.sub = sub.clone();
          n->guards.push_back(std::move(g));
        } else {
          // A strided, reversed or offset section (A(1+2*I), A(8-I)) or a
          // vector subscript: no owner partition applies, so the index is
          // equally distributed over the dimension's grid dimension, as for
          // a noncanonical FORALL lhs, and the elements arrive by gather.
          // Left unpartitioned, every processor would fold every element.
          for (const auto& [v2, coef] : sub.coefs) {
            IndexPartition* ip = nullptr;
            for (IndexPartition& x : n->indices)
              if (x.var == v2 && !x.partitioned()) ip = &x;
            if (coef != 0 && ip != nullptr) {
              ip->synth_grid_dim = dad->dim(d).grid_dim;
              break;
            }
          }
        }
      }
    }
    // Remaining refs: local if covered, else unstructured read.
    // Insert a pseudo-lhs RefInfo at position 0 (a copy of the anchor) so
    // ref_id/tagging indexes line up with the forall convention.  It claims
    // no expression: the rhs reads the anchor through the anchor's own
    // RefInfo, which carries its access path (an uncovered anchor reads
    // its gather buffer).
    RefInfo pseudo;
    if (anchor != nullptr) {
      pseudo.array = anchor->array;
      for (const AffineSub& s2 : anchor->subs) pseudo.subs.push_back(s2.clone());
    }
    n->refs.insert(n->refs.begin(), std::move(pseudo));
    for (size_t r = 1; r < n->refs.size(); ++r) {
      RefInfo& ref = n->refs[r];
      if (!is_distributed(ref.array)) {
        ref.access = Access::kDirect;
        continue;
      }
      bool covered = true;
      const Dad* dad = dad_of(ref.array);
      for (int d = 0; d < dad->rank(); ++d) {
        if (dad->dim(d).kind == DistKind::kCollapsed) continue;
        covered = covered &&
                  dim_covered_by_partition(*n, ref, d,
                                           ref.subs[static_cast<size_t>(d)]);
      }
      if (covered) {
        ref.access = Access::kDirect;
        continue;
      }
      CommAction a;
      a.kind = CommKind::kGather;
      a.ref_id = static_cast<int>(r);
      a.buffer_id = n_buffers_++;
      a.sched_key =
          opt_.reuse_schedules ? sched_key(*n, ref, "r") : std::string{};
      ref.access = Access::kIterBuf;
      ref.buffer_id = a.buffer_id;
      bump(to_cstr(a.kind));
      n->pre.push_back(std::move(a));
    }
    n->flops_per_iter = count_flops(*n->rhs) + 1;
    mark_enumerated_partitions(*n);
    bump(("reduce:" + s.reduce_op).c_str());
    return n;
  }

  const NormProgram& norm_;
  const mapping::MappingTable& map_;
  const std::map<std::string, Symbol>& syms_;
  CodegenOptions opt_;
  SpmdProgram prog_;
  int n_buffers_ = 0;
};

}  // namespace

const char* to_string(CommKind k) {
  switch (k) {
    case CommKind::kOverlapShift: return "overlap_shift";
    case CommKind::kTemporaryShift: return "temporary_shift";
    case CommKind::kMulticast: return "multicast";
    case CommKind::kTransfer: return "transfer";
    case CommKind::kPrecompRead: return "precomp_read";
    case CommKind::kGather: return "gather";
    case CommKind::kPostcompWrite: return "postcomp_write";
    case CommKind::kScatter: return "scatter";
    case CommKind::kConcatWrite: return "concatenation";
    case CommKind::kBcastElement: return "broadcast";
  }
  return "?";
}

SpmdProgram generate(const NormProgram& norm,
                     const mapping::MappingTable& mapping,
                     const std::map<std::string, Symbol>& syms,
                     const CodegenOptions& options) {
  Generator g(norm, mapping, syms, options);
  SpmdProgram prog = g.run();
  return prog;
}

}  // namespace f90d::compile
