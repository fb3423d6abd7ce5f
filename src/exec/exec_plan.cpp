#include "exec/exec_plan.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "compile/affine.hpp"
#include "exec/irregular_plan.hpp"
#include "rts/set_bound.hpp"
#include "support/diag.hpp"

namespace f90d::exec {

using ast::BinOpKind;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::UnOpKind;
using compile::Access;
using compile::AffineSub;
using compile::CommAction;
using compile::CommKind;
using compile::IndexPartition;
using compile::ProcGuard;
using compile::RefInfo;
using compile::SpmdKind;
using compile::SpmdStmt;
using frontend::Symbol;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;
using rts::LocalRange;

// --- shared Value semantics ---------------------------------------------------
// One implementation serves the plan tapes, the planner's scalar-context
// evaluation AND the tree-walking fallback (interp/ delegates here), so
// the two execution paths cannot diverge.

Value un_value(Op op, const Value& v) {
  switch (op) {
    case Op::kNeg:
      return v.k == Value::K::kI ? Value::integer(-v.as_i())
                                 : Value::real(-v.as_d());
    case Op::kNot: return Value::logical(!v.as_b());
    default: break;
  }
  throw RtsError("exec plan: bad unary op");
}

Value bin_value(Op op, const Value& l, const Value& r) {
  // AND/OR need no short-circuit here: plan operands are pure loads, so
  // evaluating both sides is value-identical to the interpreter.
  if (op == Op::kAnd) return Value::logical(l.as_b() && r.as_b());
  if (op == Op::kOr) return Value::logical(l.as_b() || r.as_b());
  const bool both_int = l.k == Value::K::kI && r.k == Value::K::kI;
  switch (op) {
    case Op::kAdd:
      return both_int ? Value::integer(l.i + r.i)
                      : Value::real(l.as_d() + r.as_d());
    case Op::kSub:
      return both_int ? Value::integer(l.i - r.i)
                      : Value::real(l.as_d() - r.as_d());
    case Op::kMul:
      return both_int ? Value::integer(l.i * r.i)
                      : Value::real(l.as_d() * r.as_d());
    case Op::kDiv:
      if (both_int) return Value::integer(r.i == 0 ? 0 : l.i / r.i);
      return Value::real(l.as_d() / r.as_d());
    case Op::kPow:
      if (both_int) {
        long long acc = 1;
        for (long long k = 0; k < r.i; ++k) acc *= l.i;
        return Value::integer(acc);
      }
      return Value::real(std::pow(l.as_d(), r.as_d()));
    case Op::kEq: return Value::logical(l.as_d() == r.as_d());
    case Op::kNe: return Value::logical(l.as_d() != r.as_d());
    case Op::kLt: return Value::logical(l.as_d() < r.as_d());
    case Op::kLe: return Value::logical(l.as_d() <= r.as_d());
    case Op::kGt: return Value::logical(l.as_d() > r.as_d());
    case Op::kGe: return Value::logical(l.as_d() >= r.as_d());
    default: break;
  }
  throw RtsError("exec plan: bad binary op");
}

Value intrinsic_value(Op op, std::span<const Value> args) {
  switch (op) {
    case Op::kAbs: {
      const Value& v = args[0];
      return v.k == Value::K::kI ? Value::integer(std::llabs(v.i))
                                 : Value::real(std::fabs(v.as_d()));
    }
    case Op::kSqrt: return Value::real(std::sqrt(args[0].as_d()));
    case Op::kExp: return Value::real(std::exp(args[0].as_d()));
    case Op::kLog: return Value::real(std::log(args[0].as_d()));
    case Op::kSin: return Value::real(std::sin(args[0].as_d()));
    case Op::kCos: return Value::real(std::cos(args[0].as_d()));
    case Op::kMod: {
      const Value& a = args[0];
      const Value& b = args[1];
      if (a.k == Value::K::kI && b.k == Value::K::kI)
        return Value::integer(b.i == 0 ? 0 : a.i % b.i);
      return Value::real(std::fmod(a.as_d(), b.as_d()));
    }
    case Op::kMin:
    case Op::kMax: {
      Value acc = args[0];
      for (size_t k = 1; k < args.size(); ++k) {
        const Value& v = args[k];
        const bool take = op == Op::kMin ? v.as_d() < acc.as_d()
                                         : v.as_d() > acc.as_d();
        if (take) acc = v;
      }
      return acc;
    }
    case Op::kToReal: return Value::real(args[0].as_d());
    case Op::kToInt: return Value::integer(args[0].as_i());
    case Op::kNint:
      return Value::integer(
          static_cast<long long>(std::llround(args[0].as_d())));
    default: break;
  }
  throw RtsError("exec plan: bad intrinsic op");
}

Op bin_op_of(BinOpKind k) {
  switch (k) {
    case BinOpKind::kAdd: return Op::kAdd;
    case BinOpKind::kSub: return Op::kSub;
    case BinOpKind::kMul: return Op::kMul;
    case BinOpKind::kDiv: return Op::kDiv;
    case BinOpKind::kPow: return Op::kPow;
    case BinOpKind::kEq: return Op::kEq;
    case BinOpKind::kNe: return Op::kNe;
    case BinOpKind::kLt: return Op::kLt;
    case BinOpKind::kLe: return Op::kLe;
    case BinOpKind::kGt: return Op::kGt;
    case BinOpKind::kGe: return Op::kGe;
    case BinOpKind::kAnd: return Op::kAnd;
    case BinOpKind::kOr: return Op::kOr;
  }
  throw RtsError("exec plan: bad binop kind");
}

bool intrinsic_op_of(const std::string& n, Op& op, int& argc) {
  struct Row {
    const char* name;
    Op op;
    int argc;
  };
  static const Row kRows[] = {
      {"ABS", Op::kAbs, 1},    {"SQRT", Op::kSqrt, 1}, {"EXP", Op::kExp, 1},
      {"LOG", Op::kLog, 1},    {"SIN", Op::kSin, 1},   {"COS", Op::kCos, 1},
      {"MOD", Op::kMod, 2},    {"MIN", Op::kMin, -1},  {"MAX", Op::kMax, -1},
      {"REAL", Op::kToReal, 1}, {"INT", Op::kToInt, 1}, {"NINT", Op::kNint, 1},
  };
  for (const Row& r : kRows) {
    if (n == r.name) {
      op = r.op;
      argc = r.argc;
      return true;
    }
  }
  return false;
}

Index trip_count(Index lo, Index hi, Index st) {
  if (st > 0) return hi < lo ? 0 : (hi - lo) / st + 1;
  return hi > lo ? 0 : (lo - hi) / (-st) + 1;
}

namespace {

/// Internal control flow of the planner: a decline unwinds the build and
/// becomes a cached PlanEntry with a null plan.
struct Decline {
  std::string reason;
  bool structural = true;
};

/// Add an affine (stride-per-counter) contribution into a merged term.
void term_add_affine(OffsetTerm& t, long long stride, Index count) {
  if (t.table.empty()) {
    t.stride += stride;
  } else {
    for (Index c = 0; c < count; ++c)
      t.table[static_cast<size_t>(c)] += stride * c;
  }
}

/// Add a per-counter table contribution (scaled by `scale`).
void term_add_table(OffsetTerm& t, const std::vector<Index>& tab,
                    long long scale, Index count) {
  if (t.table.empty()) {
    t.table.resize(static_cast<size_t>(count));
    for (Index c = 0; c < count; ++c)
      t.table[static_cast<size_t>(c)] = t.stride * c;
    t.stride = 0;
  }
  for (Index c = 0; c < count; ++c)
    t.table[static_cast<size_t>(c)] += scale * tab[static_cast<size_t>(c)];
}

/// Two array dimensions share one element-to-coordinate mapping.
bool same_dim_map(const DimMap& a, const DimMap& b) {
  return a.kind == b.kind && a.grid_dim == b.grid_dim &&
         a.template_extent == b.template_extent &&
         a.align_stride == b.align_stride && a.align_offset == b.align_offset &&
         a.block == b.block &&
         // INDIRECT: same resolved ownership table (env DADs share the
         // per-map table instance, so pointer identity is exact).
         (a.kind != DistKind::kIndirect ||
          (a.table == b.table && a.table != nullptr));
}

// --- planner -----------------------------------------------------------------

/// Plans one statement in two phases.  The structural phase (tapes,
/// reference kinds, storage pointers, allocation strides) runs once per
/// build.  The bind phase (guards, set_BOUND ranges, reference base
/// offsets and offset terms) runs at build time and again on every rebind,
/// writing into the plan's existing vectors.  A rebind runs exactly the
/// bind code a fresh build runs, so a re-bound plan equals a fresh build
/// under the same scalar values.
class Builder {
 public:
  Builder(const SpmdStmt& s, Env& env, ExecPlan& plan, bool irregular)
      : s_(s),
        env_(env),
        coords_(env.gc.my_coords()),
        irregular_(irregular),
        plan_(plan) {}

  /// Regular plan.  Throws Decline.
  void build() {
    structural_gates();
    plan_.stmt_id = s_.stmt_id;
    if (!bind_nest()) return;  // masked out or empty nest: no body
    index_refs();
    plan_.lhs = make_ref(s_.refs.at(0), /*is_write=*/true);
    compile_body();
  }

  /// Irregular entry point: lower a schedule-bearing kForall into an
  /// inspector/executor plan whose core is plan_.  Throws Decline.
  void build_irr(IrregularPlan& irr) {
    structural_gates();
    plan_.stmt_id = s_.stmt_id;
    irr.lhs_buffered = s_.lhs_buffered;
    for (const CommAction& a : s_.pre) {
      if (a.eliminated || a.kind != CommKind::kGather) continue;
      IrrRead r;
      r.action = &a;
      r.ref_id = a.ref_id;
      r.buffer_id = a.buffer_id;
      irr.reads.push_back(std::move(r));
    }
    // Inner indirection arrays resolve before the references that
    // subscript with them (the tree walk's pre-action order).
    std::sort(irr.reads.begin(), irr.reads.end(),
              [](const IrrRead& x, const IrrRead& y) {
                return x.ref_id > y.ref_id;
              });
    for (const CommAction& a : s_.post)
      if (!a.eliminated && a.kind == CommKind::kScatter) irr.scatter = &a;
    // Masked-out and empty-nest plans keep the reads/scatter metadata but
    // build no body: this processor still participates in the collective
    // schedule builds, with empty needs.
    if (!bind_nest()) return;
    index_refs();
    for (IrrRead& r : irr.reads)
      r.idx = build_indexer(s_.refs.at(static_cast<size_t>(r.ref_id)));
    if (s_.lhs_buffered)
      irr.lhs_idx = build_indexer(s_.refs.at(0));
    else
      plan_.lhs = make_ref(s_.refs.at(0), /*is_write=*/true);
    compile_body();
  }

  /// Re-bind plan_ to the current scalar values.  False = rebuild.
  bool rebind() {
    try {
      if (!bind_nest()) return true;  // nothing runs; the body waits
      if (!plan_.has_body) return false;
      for (RefPlan& r : plan_.refs) bind_ref(r, /*is_write=*/false);
      if (plan_.lhs.src != nullptr) bind_ref(plan_.lhs, /*is_write=*/true);
      return true;
    } catch (const Decline&) {
      return false;
    }
  }

 private:
  [[noreturn]] static void decline(std::string reason, bool structural = true) {
    throw Decline{std::move(reason), structural};
  }

  void structural_gates() const {
    if (s_.kind != SpmdKind::kForall) decline("not a forall");
    if (s_.indices.empty()) decline("no iteration variables");
    if (s_.refs.empty() || !s_.lhs || !s_.rhs) decline("incomplete forall");
    if (!irregular_) {
      if (s_.lhs_buffered) decline("buffered lhs (PARTI/concat write path)");
      if (!s_.post.empty()) decline("post-communication actions");
      for (const CommAction& a : s_.pre) {
        if (a.eliminated) continue;
        if (a.kind == CommKind::kPrecompRead || a.kind == CommKind::kGather ||
            a.kind == CommKind::kTemporaryShift)
          decline("schedule-based read buffers (PARTI)");
      }
      return;
    }
    // Irregular mode accepts exactly the schedule-bearing statements.
    // Gathers (schedule2) enumerate needs from this processor's own
    // iteration space, which the plan replays; the schedule1 kinds also
    // need every *peer's* range enumerated, so they stay on the tree walk.
    bool any_sched = false;
    for (const CommAction& a : s_.pre) {
      if (a.eliminated) continue;
      if (a.kind == CommKind::kPrecompRead ||
          a.kind == CommKind::kTemporaryShift)
        decline("schedule1 read (peer-range enumeration)");
      any_sched = any_sched || a.kind == CommKind::kGather;
    }
    for (const CommAction& a : s_.post) {
      if (a.eliminated) continue;
      if (a.kind != CommKind::kScatter) decline("non-scatter write combining");
      any_sched = true;
    }
    if (!any_sched) decline("no schedule actions (regular plan territory)");
    if (s_.lhs_buffered) {
      if (s_.mask) decline("masked buffered lhs (read-back semantics)");
      if (env_.sym(s_.refs.at(0).array).type != ast::BaseType::kReal)
        decline("non-REAL scattered lhs");
      bool has_scatter = false;
      for (const CommAction& a : s_.post)
        has_scatter =
            has_scatter || (!a.eliminated && a.kind == CommKind::kScatter);
      if (!has_scatter) decline("buffered lhs without scatter");
    }
  }

  Value scalar_value(const std::string& name) const {
    auto it = env_.scalars.find(name);
    if (it == env_.scalars.end()) decline("unbound scalar " + name);
    return it->second;
  }

  /// Mirror of the interpreter's scalar-context eval(): literals, scalar
  /// variables, arithmetic and elementwise intrinsics.  Used for loop
  /// bounds, guard subscripts and runtime subscript terms.
  Value eval_scalar(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: return Value::integer(e.int_value);
      case ExprKind::kRealLit: return Value::real(e.real_value);
      case ExprKind::kLogicalLit: return Value::logical(e.logical_value);
      case ExprKind::kVarRef: return scalar_value(e.name);
      case ExprKind::kUnOp: {
        const Value v = eval_scalar(*e.args[0]);
        if (e.un_op == UnOpKind::kPlus) return v;
        return un_value(e.un_op == UnOpKind::kNeg ? Op::kNeg : Op::kNot, v);
      }
      case ExprKind::kBinOp:
        return bin_value(bin_op_of(e.bin_op), eval_scalar(*e.args[0]),
                         eval_scalar(*e.args[1]));
      case ExprKind::kArrayRef: {
        if (env_.compiled.sema.symbols.count(e.name) &&
            env_.compiled.sema.symbols.at(e.name).is_array())
          decline("array element in scalar context");
        Op op{};
        int argc = 0;
        if (!intrinsic_op_of(e.name, op, argc))
          decline("unsupported intrinsic " + e.name);
        if (argc >= 0 ? e.args.size() != static_cast<size_t>(argc)
                      : e.args.empty())
          decline("bad intrinsic arity " + e.name);
        std::vector<Value> args;
        args.reserve(e.args.size());
        for (const ExprPtr& a : e.args) args.push_back(eval_scalar(*a));
        return intrinsic_value(op, args);
      }
      default:
        decline("unsupported expression in scalar context");
    }
  }

  /// The value of compile::affine_to_expr(a), evaluated term by term in
  /// the same order without building the expression tree.
  Value eval_affine(const AffineSub& a) {
    require(a.kind == AffineSub::Kind::kAffine, "guard subscript is affine");
    Value acc;
    bool any = false;
    auto add = [&](const Value& term) {
      acc = any ? bin_value(Op::kAdd, acc, term) : term;
      any = true;
    };
    for (const auto& [v, c] : a.coefs)
      add(c == 1 ? scalar_value(v)
                 : bin_value(Op::kMul, Value::integer(c), scalar_value(v)));
    if (a.runtime) add(eval_scalar(*a.runtime));
    if (a.cst != 0 || !any) add(Value::integer(a.cst));
    return acc;
  }

  bool guards_pass() {
    for (const ProcGuard& g : s_.guards) {
      const Dad& dad = env_.dads.at(g.array);
      const Index val =
          eval_affine(g.sub).as_i() - env_.lower_of(g.array, g.dim);
      const int owner = dad.owner_coord(g.dim, val);
      const int gd = dad.dim(g.dim).grid_dim;
      if (coords_[static_cast<size_t>(gd)] != owner) return false;
    }
    return true;
  }

  size_t level_of(const std::string& var) const {
    for (size_t k = 0; k < s_.indices.size(); ++k)
      if (s_.indices[k].var == var) return k;
    decline("free variable " + var + " in subscript");
  }

  /// Guards and set_BOUND ranges for the current scalar values.  False
  /// when this processor runs no iteration: the guards reject it or a
  /// level is empty.
  bool bind_nest() {
    plan_.masked_out = !guards_pass();
    if (plan_.masked_out) return false;
    bind_loops();
    for (const PlanLoop& l : plan_.loops)
      if (l.count == 0) return false;
    return true;
  }

  /// set_BOUND-resolved loop levels; mirrors the interpreter's
  /// ranges_for_coords()/range_from_bound() so the planned iteration order
  /// and values are identical to the tree walk's.
  void bind_loops() {
    plan_.loops.resize(s_.indices.size());
    for (size_t k = 0; k < s_.indices.size(); ++k) {
      const IndexPartition& ip = s_.indices[k];
      const Index lo = eval_scalar(*ip.lo).as_i();
      const Index hi = eval_scalar(*ip.hi).as_i();
      const Index st = ip.st ? eval_scalar(*ip.st).as_i() : 1;
      if (st == 0) decline("zero stride", /*structural=*/false);
      PlanLoop& L = plan_.loops[k];
      L.var = ip.var;
      L.count = 0;
      L.val0 = 0;
      L.step = 1;
      L.values.clear();
      if (!ip.array.empty()) {
        const Dad& dad = env_.dads.at(ip.array);
        const long long lower = env_.lower_of(ip.array, ip.dim);
        const int gd = dad.dim(ip.dim).grid_dim;
        const int coord = coords_[static_cast<size_t>(gd)];
        L.bound = rts::set_bound(dad, ip.dim, coord, lo - lower, hi - lower, st);
        const LocalRange& b = L.bound;
        if (!b.empty) {
          L.count = b.count();
          const DimMap& m = dad.dim(ip.dim);
          // INDIRECT joins block-cyclic: local-to-global is non-affine, so
          // uniform local triplets map through mu^-1 element by element
          // (mirrors range_from_bound in the interpreter).
          const bool nonaffine_local =
              (m.kind == DistKind::kCyclic && m.block > 1) ||
              m.kind == DistKind::kIndirect;
          if (b.enumerated() || nonaffine_local) {
            L.values.reserve(static_cast<size_t>(L.count));
            if (b.enumerated()) {
              for (Index l : b.indices)
                L.values.push_back(dad.global_of_local(ip.dim, l, coord) +
                                   lower);
            } else {
              for (Index l = b.lb; l <= b.ub; l += b.st)
                L.values.push_back(dad.global_of_local(ip.dim, l, coord) +
                                   lower);
            }
            L.val0 = L.values.front();
            L.step = L.count > 1 ? L.values[1] - L.values[0] : st;
            bool uniform = true;
            for (size_t i = 2; i < L.values.size(); ++i)
              uniform = uniform && L.values[i] - L.values[i - 1] == L.step;
            if (uniform) L.values.clear();  // progression form is exact
          } else {
            L.val0 = dad.global_of_local(ip.dim, b.lb, coord) + lower;
            L.step = L.count > 1
                         ? dad.global_of_local(ip.dim, b.lb + b.st, coord) +
                               lower - L.val0
                         : st;
          }
        }
      } else if (ip.synth_grid_dim >= 0) {
        const Index total = trip_count(lo, hi, st);
        const Index p = env_.compiled.mapping.grid.extent(ip.synth_grid_dim);
        const Index chunk = (total + p - 1) / p;
        const int coord = coords_[static_cast<size_t>(ip.synth_grid_dim)];
        const Index first = static_cast<Index>(coord) * chunk;
        const Index last = std::min(first + chunk, total);
        L.count = std::max<Index>(0, last - first);
        L.val0 = lo + first * st;
        L.step = st;
      } else {
        L.count = trip_count(lo, hi, st);
        L.val0 = lo;
        L.step = st;
      }
    }
  }

  void index_refs() {
    for (const RefInfo& r : s_.refs)
      if (r.expr != nullptr) ref_of_.emplace(r.expr, &r);
  }

  void compile_body() {
    plan_.rhs = compile_tape(*s_.rhs);
    if (s_.mask) plan_.mask = compile_tape(*s_.mask);
    plan_.arrays.assign(arrays_.begin(), arrays_.end());
    plan_.has_body = true;
  }

  /// Structural part of a reference (kind, storage, strides), then its
  /// first binding.
  RefPlan make_ref(const RefInfo& ref, bool is_write) {
    RefPlan r;
    r.src = &ref;
    switch (ref.access) {
      case Access::kScalarSlot:
        r.kind = RefPlan::Kind::kScalarSlot;
        r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
        break;
      case Access::kSlabBuf:
        if (is_write) decline("slab-buffered lhs");
        if (env_.sym(ref.array).type != ast::BaseType::kReal)
          decline("non-REAL slab buffer");
        r.kind = RefPlan::Kind::kRealSlab;
        r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
        break;
      case Access::kIterBuf: {
        if (!irregular_) decline("iteration buffer (PARTI)");
        if (is_write) decline("iteration-buffered write reference");
        const Symbol& sm = env_.sym(ref.array);
        if (sm.type == ast::BaseType::kInteger)
          r.kind = RefPlan::Kind::kIntIterBuf;
        else if (sm.type == ast::BaseType::kReal)
          r.kind = RefPlan::Kind::kRealIterBuf;
        else
          decline("logical gather buffer");
        r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
        break;
      }
      case Access::kDirect:
        make_direct(ref, r);
        break;
    }
    bind_ref(r, is_write);
    if (ref.access == Access::kIterBuf || ref.access == Access::kDirect)
      arrays_.insert(ref.array);
    return r;
  }

  void make_direct(const RefInfo& ref, RefPlan& rp) {
    std::vector<Index> aext;
    int rank = 0;
    switch (env_.sym(ref.array).type) {
      case ast::BaseType::kReal: {
        auto& a = env_.dar.at(ref.array);
        rp.kind = RefPlan::Kind::kRealDirect;
        rp.dbase = a.storage().data();
        rank = a.rank();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kInteger: {
        auto& a = env_.iar.at(ref.array);
        rp.kind = RefPlan::Kind::kIntDirect;
        rp.ibase = a.storage().data();
        rank = a.rank();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kLogical: {
        auto& a = env_.lar.at(ref.array);
        rp.kind = RefPlan::Kind::kLogicalDirect;
        rp.lbase = a.storage().data();
        rank = a.rank();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
    }
    if (static_cast<int>(ref.subs.size()) != rank)
      decline("subscript rank mismatch");
    rp.dim_strides.assign(static_cast<size_t>(rank), 1);
    for (int d = rank - 2; d >= 0; --d)
      rp.dim_strides[static_cast<size_t>(d)] =
          rp.dim_strides[static_cast<size_t>(d + 1)] *
          aext[static_cast<size_t>(d + 1)];
  }

  /// Value-dependent part of a reference: base offset and per-level terms.
  void bind_ref(RefPlan& r, bool is_write) {
    const size_t nv = plan_.loops.size();
    r.base = 0;
    r.terms.resize(nv);
    for (OffsetTerm& t : r.terms) {
      t.stride = 0;
      t.table.clear();
    }
    const RefInfo& ref = *r.src;
    switch (ref.access) {
      case Access::kScalarSlot:
        return;
      case Access::kSlabBuf: {
        // Slab index: odometer over the slab variables in spec order, last
        // variable fastest (matches the pack order).
        long long mult = 1;
        for (auto it = ref.slab_vars.rbegin(); it != ref.slab_vars.rend();
             ++it) {
          const size_t k = level_of(*it);
          r.terms[k].stride = mult;
          mult *= plan_.loops[k].count;
        }
        return;
      }
      case Access::kIterBuf: {
        // One gathered value per iteration, in exact iteration order: the
        // flat iteration index is an odometer over the loop counts, last
        // variable fastest (matches the tree walk's flat_iter_ slots and
        // the needs enumeration order).
        long long mult = 1;
        for (size_t k = nv; k-- > 0;) {
          r.terms[k].stride = mult;
          mult *= plan_.loops[k].count;
        }
        return;
      }
      case Access::kDirect:
        bind_direct(ref, is_write, r);
        return;
    }
  }

  /// Calls f(level, stride, table, scale) for each per-level contribution
  /// to one dimension's local index: `stride` per loop counter, or
  /// scale * (*table)[counter] when `table` is set.  Simple dimensions
  /// contribute one term per subscript variable; cyclic ones exactly the
  /// set_BOUND local progression of their partitioned level.
  template <typename F>
  void for_each_dim_term(const AffineSub& sub, bool simple, F&& f) const {
    if (!simple) {
      const size_t k = level_of(sub.coefs.begin()->first);
      const LocalRange& b = plan_.loops[k].bound;
      if (b.enumerated())
        f(k, 0LL, &b.indices, 1LL);
      else
        f(k, static_cast<long long>(b.st), nullptr, 0LL);
      return;
    }
    for (const auto& [var, coef] : sub.coefs) {
      if (coef == 0) continue;
      const size_t k = level_of(var);
      const PlanLoop& L = plan_.loops[k];
      if (L.values.empty())
        f(k, coef * L.step, nullptr, 0LL);
      else
        f(k, 0LL, &L.values, coef);
    }
  }

  void bind_direct(const RefInfo& ref, bool is_write, RefPlan& rp) {
    const Dad& dad = env_.dads.at(ref.array);
    long long base = 0;
    for (int d = 0; d < dad.rank(); ++d) {
      const AffineSub& sub = ref.subs[static_cast<size_t>(d)];
      if (sub.kind != AffineSub::Kind::kAffine)
        decline("non-affine subscript");
      const DimMap& m = dad.dim(d);
      const int coord = m.kind == DistKind::kCollapsed
                            ? 0
                            : coords_[static_cast<size_t>(m.grid_dim)];
      const Index lext = dad.local_extent(d, coord);

      // Per-dim local-index decomposition: constant + per-level terms.
      long long c0 = 0;
      const bool simple =
          m.kind == DistKind::kCollapsed ||
          (m.kind == DistKind::kBlock && m.align_stride == 1);
      if (simple) {
        const long long rt =
            sub.runtime ? eval_scalar(*sub.runtime).as_i() : 0;
        c0 = sub.cst + rt - env_.lower_of(ref.array, d);
        if (m.kind == DistKind::kBlock) {
          // local = global - first owned global (unit alignment stride).
          if (lext == 0) decline("empty local block");
          c0 -= dad.global_of_local(d, 0, coord);
        }
        for (const auto& [var, coef] : sub.coefs) {
          if (coef == 0) continue;
          const PlanLoop& L = plan_.loops[level_of(var)];
          if (L.values.empty()) c0 += coef * L.val0;
        }
      } else {
        // CYCLIC / CYCLIC(k) / strided alignment: only the identity access
        // on the dimension the iteration was partitioned by — the local
        // index progression is then exactly the set_BOUND LocalRange.
        const std::string var = sub.single_var();
        if (var.empty() || sub.coef(var) != 1 || sub.has_runtime())
          decline("non-identity subscript on cyclic dimension");
        const size_t k = level_of(var);
        const IndexPartition& ip = s_.indices[k];
        if (ip.array.empty())
          decline("cyclic subscript variable not set_BOUND partitioned");
        const Dad& pdad = env_.dads.at(ip.array);
        if (!same_dim_map(m, pdad.dim(ip.dim)) ||
            dad.extent(d) != pdad.extent(ip.dim))
          decline("cyclic dimension mapped differently from partition source");
        if (sub.cst - env_.lower_of(ref.array, d) !=
            -env_.lower_of(ip.array, ip.dim))
          decline("offset subscript on cyclic dimension");
        const LocalRange& b = plan_.loops[k].bound;
        if (!b.enumerated()) c0 += b.lb;
      }

      // Verify every touched local index stays inside the allocation: reads
      // may use the overlap (ghost) area, writes must be owned.  This is
      // the planner's replacement for the per-element at_global/_ghost
      // require() checks; anything outside falls back to the tree walk.
      long long mn = c0;
      long long mx = c0;
      for_each_dim_term(sub, simple,
                        [&](size_t k, long long stride,
                            const std::vector<Index>* tab, long long scale) {
                          if (tab != nullptr) {
                            long long lo = scale * tab->front();
                            long long hi = lo;
                            for (Index v : *tab) {
                              lo = std::min(lo, scale * v);
                              hi = std::max(hi, scale * v);
                            }
                            mn += lo;
                            mx += hi;
                          } else if (stride != 0) {
                            const long long end =
                                stride * (plan_.loops[k].count - 1);
                            mn += std::min<long long>(0, end);
                            mx += std::max<long long>(0, end);
                          }
                        });
      const long long lo_ok = is_write ? 0 : -static_cast<long long>(m.overlap_lo);
      const long long hi_ok =
          is_write ? lext - 1 : lext + static_cast<long long>(m.overlap_hi) - 1;
      if (mn < lo_ok || mx > hi_ok)
        decline("subscript range outside local allocation",
                /*structural=*/false);

      // Flatten into the merged per-level flat-offset recurrence.
      const long long sd = rp.dim_strides[static_cast<size_t>(d)];
      base += sd * (c0 + m.overlap_lo);
      for_each_dim_term(sub, simple,
                        [&](size_t k, long long stride,
                            const std::vector<Index>* tab, long long scale) {
                          const Index count = plan_.loops[k].count;
                          if (tab != nullptr)
                            term_add_table(rp.terms[k], *tab, sd * scale, count);
                          else if (stride != 0)
                            term_add_affine(rp.terms[k], sd * stride, count);
                        });
    }
    rp.base = base;
  }

  /// Compile one vector-subscripted reference's subscript expressions to
  /// tapes folding to 0-based flat global element ids — the id space the
  /// PARTI schedules speak.  Mirrors the tree walk's eval_subs +
  /// flat_global_of.
  GlobalIndexer build_indexer(const RefInfo& ref) {
    GlobalIndexer gi;
    const Dad& dad = env_.dads.at(ref.array);
    const int rank = dad.rank();
    if (ref.expr == nullptr ||
        static_cast<int>(ref.expr->args.size()) != rank)
      decline("subscript rank mismatch");
    gi.array = ref.array;
    gi.gstrides.assign(static_cast<size_t>(rank), 1);
    for (int d = rank - 2; d >= 0; --d)
      gi.gstrides[static_cast<size_t>(d)] =
          gi.gstrides[static_cast<size_t>(d + 1)] * dad.extent(d + 1);
    for (int d = 0; d < rank; ++d) {
      gi.lowers.push_back(env_.lower_of(ref.array, d));
      gi.extents.push_back(dad.extent(d));
      gi.subs.push_back(compile_tape(*ref.expr->args[static_cast<size_t>(d)]));
    }
    arrays_.insert(ref.array);
    return gi;
  }

  int ref_id_of(const RefInfo* ref) {
    auto it = ref_ids_.find(ref);
    if (it != ref_ids_.end()) return it->second;
    RefPlan rp = make_ref(*ref, /*is_write=*/false);
    const int id = static_cast<int>(plan_.refs.size());
    plan_.refs.push_back(std::move(rp));
    ref_ids_.emplace(ref, id);
    return id;
  }

  Tape compile_tape(const Expr& e) {
    Tape t;
    emit(e, t);
    return t;
  }

  void emit(const Expr& e, Tape& t) {
    std::vector<Ins>& out = t.ins;
    switch (e.kind) {
      case ExprKind::kIntLit:
        out.push_back({Op::kConst, 0, nullptr, Value::integer(e.int_value)});
        return;
      case ExprKind::kRealLit:
        out.push_back({Op::kConst, 0, nullptr, Value::real(e.real_value)});
        return;
      case ExprKind::kLogicalLit:
        out.push_back(
            {Op::kConst, 0, nullptr, Value::logical(e.logical_value)});
        return;
      case ExprKind::kVarRef: {
        for (size_t k = 0; k < s_.indices.size(); ++k) {
          if (s_.indices[k].var == e.name) {
            out.push_back({Op::kVar, static_cast<int>(k), nullptr, {}});
            return;
          }
        }
        auto it = env_.scalars.find(e.name);
        if (it == env_.scalars.end()) decline("unbound scalar " + e.name);
        out.push_back({Op::kScalar, 0, &it->second, {}});
        return;
      }
      case ExprKind::kUnOp: {
        if (e.un_op == UnOpKind::kPlus) {
          emit(*e.args[0], t);
          return;
        }
        emit(*e.args[0], t);
        out.push_back({e.un_op == UnOpKind::kNeg ? Op::kNeg : Op::kNot, 0,
                       nullptr, {}});
        return;
      }
      case ExprKind::kBinOp: {
        emit(*e.args[0], t);
        emit(*e.args[1], t);
        out.push_back({bin_op_of(e.bin_op), 0, nullptr, {}});
        return;
      }
      case ExprKind::kArrayRef: {
        if (env_.compiled.sema.symbols.count(e.name) &&
            env_.compiled.sema.symbols.at(e.name).is_array()) {
          auto rit = ref_of_.find(&e);
          if (rit != ref_of_.end()) {
            out.push_back({Op::kRef, ref_id_of(rit->second), nullptr, {}});
            return;
          }
          emit_elem(e, t);
          return;
        }
        Op op{};
        int argc = 0;
        if (!intrinsic_op_of(e.name, op, argc))
          decline("unsupported intrinsic " + e.name);
        if (argc >= 0 ? e.args.size() != static_cast<size_t>(argc)
                      : e.args.empty())
          decline("bad intrinsic arity " + e.name);
        for (const ExprPtr& a : e.args) emit(*a, t);
        out.push_back({op, static_cast<int>(e.args.size()), nullptr, {}});
        return;
      }
      default:
        decline("unsupported expression kind in forall body");
    }
  }

  /// Array references with no RefInfo: codegen classifies only the reads
  /// that may need communication, so a fully replicated array subscripting
  /// a buffered lhs (H(BIN(I))) reaches the tape compiler unclassified.
  /// It is readable in place on every processor — compile a direct
  /// element access over its (whole-array) local storage.
  void emit_elem(const Expr& e, Tape& t) {
    auto dit = env_.dads.find(e.name);
    if (dit == env_.dads.end() || !dit->second.fully_replicated())
      decline("distributed array element without reference info");
    const Dad& dad = dit->second;
    const int rank = dad.rank();
    if (static_cast<int>(e.args.size()) != rank)
      decline("subscript rank mismatch");
    ElemRef er;
    er.array = e.name;
    std::vector<Index> aext;
    switch (env_.sym(e.name).type) {
      case ast::BaseType::kReal: {
        const auto& a = env_.dar.at(e.name);
        er.dbase = a.storage().data();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kInteger: {
        const auto& a = env_.iar.at(e.name);
        er.ibase = a.storage().data();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kLogical: {
        const auto& a = env_.lar.at(e.name);
        er.lbase = a.storage().data();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
    }
    er.strides.assign(static_cast<size_t>(rank), 1);
    for (int d = rank - 2; d >= 0; --d)
      er.strides[static_cast<size_t>(d)] =
          er.strides[static_cast<size_t>(d + 1)] * aext[static_cast<size_t>(d + 1)];
    for (int d = 0; d < rank; ++d) {
      er.lowers.push_back(env_.lower_of(e.name, d));
      er.extents.push_back(dad.extent(d));
      er.shifts.push_back(dad.dim(d).overlap_lo);
      emit(*e.args[static_cast<size_t>(d)], t);
    }
    arrays_.insert(e.name);
    t.elems.push_back(std::move(er));
    t.ins.push_back(
        {Op::kElem, static_cast<int>(t.elems.size()) - 1, nullptr, {}});
  }

  const SpmdStmt& s_;
  Env& env_;
  const std::vector<int>& coords_;
  bool irregular_ = false;
  ExecPlan& plan_;
  std::map<const Expr*, const RefInfo*> ref_of_;
  std::map<const RefInfo*, int> ref_ids_;
  std::set<std::string> arrays_;
};

// --- runner ------------------------------------------------------------------

Value load_ref(const RefPlan& r, long long off) {
  switch (r.kind) {
    case RefPlan::Kind::kRealDirect:
      return Value::real(r.dbase[off]);
    case RefPlan::Kind::kIntDirect:
      return Value::integer(r.ibase[off]);
    case RefPlan::Kind::kLogicalDirect:
      return Value::logical(r.lbase[off] != 0);
    case RefPlan::Kind::kRealSlab:
    case RefPlan::Kind::kRealIterBuf:
      return Value::real(r.buf->dvals[static_cast<size_t>(off)]);
    case RefPlan::Kind::kIntIterBuf:
      return Value::integer(r.buf->ivals[static_cast<size_t>(off)]);
    case RefPlan::Kind::kScalarSlot:
      return r.buf->scalar;
  }
  return Value::real(0);
}

}  // namespace

Value eval_tape(const Tape& t, const std::vector<RefPlan>& refs,
                const Index* varvals, const long long* offs,
                std::vector<Value>& stack) {
  stack.clear();
  for (const Ins& ins : t.ins) {
    switch (ins.op) {
      case Op::kConst: stack.push_back(ins.cst); break;
      case Op::kScalar: stack.push_back(*ins.scalar); break;
      case Op::kVar:
        stack.push_back(Value::integer(varvals[ins.a]));
        break;
      case Op::kRef:
        stack.push_back(load_ref(refs[static_cast<size_t>(ins.a)],
                                 offs[ins.a]));
        break;
      case Op::kElem: {
        const ElemRef& er = t.elems[static_cast<size_t>(ins.a)];
        const size_t rank = er.lowers.size();
        long long off = 0;
        for (size_t d = 0; d < rank; ++d) {
          const long long sub =
              stack[stack.size() - rank + d].as_i();
          const long long rel = sub - er.lowers[d];
          if (rel < 0 || rel >= er.extents[d])
            throw RtsError(strformat(
                "subscript %lld of %s is out of range [%lld, %lld] in "
                "dimension %d",
                sub, er.array.c_str(), er.lowers[d],
                er.lowers[d] + er.extents[d] - 1, static_cast<int>(d) + 1));
          off += (rel + er.shifts[d]) * er.strides[d];
        }
        stack.resize(stack.size() - rank);
        if (er.dbase != nullptr)
          stack.push_back(Value::real(er.dbase[off]));
        else if (er.ibase != nullptr)
          stack.push_back(Value::integer(er.ibase[off]));
        else
          stack.push_back(Value::logical(er.lbase[off] != 0));
        break;
      }
      case Op::kNeg:
      case Op::kNot:
        stack.back() = un_value(ins.op, stack.back());
        break;
      case Op::kAbs:
      case Op::kSqrt:
      case Op::kExp:
      case Op::kLog:
      case Op::kSin:
      case Op::kCos:
      case Op::kMod:
      case Op::kMin:
      case Op::kMax:
      case Op::kToReal:
      case Op::kToInt:
      case Op::kNint: {
        const size_t argc = static_cast<size_t>(ins.a);
        const Value v = intrinsic_value(
            ins.op, std::span<const Value>(stack.data() + stack.size() - argc,
                                           argc));
        stack.resize(stack.size() - argc);
        stack.push_back(v);
        break;
      }
      default: {
        const Value r = stack.back();
        stack.pop_back();
        stack.back() = bin_value(ins.op, stack.back(), r);
        break;
      }
    }
  }
  return stack.back();
}

Index run_exec_plan(const ExecPlan& p, PlanScratch& scratch) {
  if (p.masked_out) return 0;
  const size_t nv = p.loops.size();
  if (nv == 0) return 0;
  for (const PlanLoop& l : p.loops)
    if (l.count == 0) return 0;

  const size_t nr = p.refs.size();
  std::vector<Index>& counters = scratch.counters;
  std::vector<Index>& varvals = scratch.varvals;
  counters.assign(nv, 0);
  varvals.resize(nv);
  for (size_t k = 0; k < nv; ++k) varvals[k] = p.loops[k].value_at(0);

  // Current flat offsets (reads, then the lhs at index nr), maintained
  // incrementally: when a counter changes, only that level's contribution
  // is swapped out.
  auto ref_at = [&](size_t r) -> const RefPlan& {
    return r < nr ? p.refs[r] : p.lhs;
  };
  std::vector<long long>& offs = scratch.offs;
  std::vector<long long>& contrib = scratch.contrib;
  offs.resize(nr + 1);
  contrib.resize((nr + 1) * nv);
  for (size_t r = 0; r <= nr; ++r) {
    long long off = ref_at(r).base;
    for (size_t k = 0; k < nv; ++k) {
      const long long c = ref_at(r).terms[k].at(0);
      contrib[r * nv + k] = c;
      off += c;
    }
    offs[r] = off;
  }
  auto update_level = [&](size_t k, Index c) {
    for (size_t r = 0; r <= nr; ++r) {
      const long long nc = ref_at(r).terms[k].at(c);
      offs[r] += nc - contrib[r * nv + k];
      contrib[r * nv + k] = nc;
    }
  };

  std::vector<Value>& stack = scratch.stack;
  stack.reserve(p.rhs.ins.size() + p.mask.ins.size() + 4);

  Index iters = 0;
  for (;;) {
    ++iters;
    bool store = true;
    if (!p.mask.empty())
      store =
          eval_tape(p.mask, p.refs, varvals.data(), offs.data(), stack).as_b();
    if (store) {
      const Value v =
          eval_tape(p.rhs, p.refs, varvals.data(), offs.data(), stack);
      const long long off = offs[nr];
      switch (p.lhs.kind) {
        case RefPlan::Kind::kRealDirect: p.lhs.dbase[off] = v.as_d(); break;
        case RefPlan::Kind::kIntDirect: p.lhs.ibase[off] = v.as_i(); break;
        case RefPlan::Kind::kLogicalDirect:
          p.lhs.lbase[off] = static_cast<unsigned char>(v.as_b() ? 1 : 0);
          break;
        default:
          throw RtsError("exec plan: bad lhs kind");
      }
    }
    // Odometer, last variable fastest (matches the tree walk).
    size_t k = nv;
    for (;;) {
      if (k == 0) return iters;
      --k;
      if (++counters[k] < p.loops[k].count) {
        varvals[k] = p.loops[k].value_at(counters[k]);
        update_level(k, counters[k]);
        break;
      }
      counters[k] = 0;
      varvals[k] = p.loops[k].value_at(0);
      update_level(k, 0);
    }
  }
}

PlanEntry build_exec_plan(const SpmdStmt& s, Env& env) {
  auto plan = std::make_shared<ExecPlan>();
  try {
    Builder(s, env, *plan, /*irregular=*/false).build();
  } catch (const Decline& d) {
    return PlanEntry{nullptr, d.reason, d.structural};
  }
  return PlanEntry{std::move(plan), {}, false};
}

bool rebind_exec_plan(const SpmdStmt& s, Env& env, ExecPlan& p) {
  return Builder(s, env, p, /*irregular=*/false).rebind();
}

IrrPlanEntry build_irregular_plan(const SpmdStmt& s, Env& env) {
  auto irr = std::make_shared<IrregularPlan>();
  try {
    Builder(s, env, irr->core, /*irregular=*/true).build_irr(*irr);
  } catch (const Decline& d) {
    return IrrPlanEntry{nullptr, d.reason, d.structural};
  }
  return IrrPlanEntry{std::move(irr), {}, false};
}

bool rebind_irregular_plan(const SpmdStmt& s, Env& env, IrregularPlan& p) {
  return Builder(s, env, p.core, /*irregular=*/true).rebind();
}

std::vector<std::string> plan_key_scalars(const SpmdStmt& s, const Env& env) {
  std::set<std::string> names;
  auto walk = [&](const Expr& e, auto&& self) -> void {
    if (e.kind == ExprKind::kVarRef && env.scalars.count(e.name))
      names.insert(e.name);
    for (const ExprPtr& x : e.args)
      if (x) self(*x, self);
  };
  for (const IndexPartition& ip : s.indices) {
    walk(*ip.lo, walk);
    walk(*ip.hi, walk);
    if (ip.st) walk(*ip.st, walk);
  }
  for (const ProcGuard& g : s.guards)
    if (g.sub.runtime) walk(*g.sub.runtime, walk);
  for (const RefInfo& ref : s.refs)
    for (const AffineSub& sub : ref.subs)
      if (sub.runtime) walk(*sub.runtime, walk);
  return std::vector<std::string>(names.begin(), names.end());
}

// ---------------------------------------------------------------------------
// SharedPlanMeta

std::string SharedPlanMeta::slot(const std::string& ns, int stmt_id) {
  return ns + "#" + std::to_string(stmt_id);
}

bool SharedPlanMeta::declined_structurally(const std::string& ns,
                                           int stmt_id) const {
  std::shared_lock lk(mu_);
  const bool hit = declines_.count(slot(ns, stmt_id)) > 0;
  if (hit) {
    std::lock_guard slk(stats_mu_);
    ++stats_.decline_hits;
  }
  return hit;
}

void SharedPlanMeta::record_structural_decline(const std::string& ns,
                                               int stmt_id) {
  {
    std::unique_lock lk(mu_);
    if (!declines_.insert(slot(ns, stmt_id)).second) return;
  }
  std::lock_guard slk(stats_mu_);
  ++stats_.installs;
}

bool SharedPlanMeta::lookup_key_scalars(const std::string& ns, int stmt_id,
                                        std::vector<std::string>& out) const {
  std::shared_lock lk(mu_);
  auto it = scalars_.find(slot(ns, stmt_id));
  if (it == scalars_.end()) return false;
  out = it->second;
  {
    std::lock_guard slk(stats_mu_);
    ++stats_.scalar_hits;
  }
  return true;
}

void SharedPlanMeta::install_key_scalars(
    const std::string& ns, int stmt_id,
    const std::vector<std::string>& scalars) {
  {
    std::unique_lock lk(mu_);
    if (!scalars_.emplace(slot(ns, stmt_id), scalars).second) return;
  }
  std::lock_guard slk(stats_mu_);
  ++stats_.installs;
}

SharedPlanMeta::Stats SharedPlanMeta::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

std::size_t SharedPlanMeta::size() const {
  std::shared_lock lk(mu_);
  return declines_.size() + scalars_.size();
}

void SharedPlanMeta::clear() {
  {
    std::unique_lock lk(mu_);
    declines_.clear();
    scalars_.clear();
  }
  std::lock_guard slk(stats_mu_);
  stats_ = Stats{};
}

}  // namespace f90d::exec
