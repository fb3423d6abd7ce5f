#include "exec/exec_plan.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>

#include "compile/affine.hpp"
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

// --- the set_BOUND level derivation ---------------------------------------------

void require_nonzero_stride(const std::string& var, Index st) {
  if (st == 0)
    throw RtsError("zero stride for index " + var +
                   " (a FORALL stride or DO step must not be zero)");
}

void derive_level(const IndexPartition& ip, const Dad* dad, long long lower,
                  const comm::ProcGrid& grid, std::span<const int> coords,
                  Index lo, Index hi, Index st, PlanLoop& out) {
  require_nonzero_stride(ip.var, st);
  out.var = ip.var;
  out.count = 0;
  out.val0 = 0;
  out.step = 1;
  out.values.clear();
  if (dad == nullptr) {
    Index first = 0;
    out.count = trip_count(lo, hi, st);
    if (ip.synth_grid_dim >= 0) {
      const Index p = grid.extent(ip.synth_grid_dim);
      const Index chunk = (out.count + p - 1) / p;
      first = coords[static_cast<size_t>(ip.synth_grid_dim)] * chunk;
      out.count = std::max<Index>(0, std::min(first + chunk, out.count) - first);
    }
    out.val0 = lo + first * st;
    out.step = st;
    return;
  }
  const int coord = coords[static_cast<size_t>(dad->dim(ip.dim).grid_dim)];
  out.bound = rts::set_bound(*dad, ip.dim, coord, lo - lower, hi - lower, st);
  const LocalRange& b = out.bound;
  if (b.empty) return;
  out.count = b.count();
  // For BLOCK and CYCLIC(1) a uniform local range maps to a uniform global
  // progression.  Block-cyclic CYCLIC(k>1) and INDIRECT are not affine
  // local-to-global: even a contiguous local range crosses course
  // boundaries (locals 0,1,2,3 may be globals 2,3,6,7), so every local
  // index is mapped through mu^-1.
  const DimMap& m = dad->dim(ip.dim);
  auto global = [&](Index l) {
    return dad->global_of_local(ip.dim, l, coord) + lower;
  };
  if (!b.enumerated() &&
      !(m.kind == DistKind::kCyclic && m.block > 1) &&
      m.kind != DistKind::kIndirect) {
    out.val0 = global(b.lb);
    out.step = out.count > 1 ? global(b.lb + b.st) - out.val0 : st;
    return;
  }
  out.values.reserve(static_cast<size_t>(out.count));
  if (b.enumerated()) {
    for (Index l : b.indices) out.values.push_back(global(l));
  } else {
    for (Index l = b.lb; l <= b.ub; l += b.st) out.values.push_back(global(l));
  }
  out.val0 = out.values.front();
  out.step = out.count > 1 ? out.values[1] - out.values[0] : st;
  bool uniform = true;
  for (size_t i = 2; i < out.values.size() && uniform; ++i)
    uniform = out.values[i] - out.values[i - 1] == out.step;
  if (uniform) out.values.clear();  // the progression form is exact
}

bool guard_owns(const Dad& dad, int dim, Index val,
                std::span<const int> coords) {
  return coords[static_cast<size_t>(dad.dim(dim).grid_dim)] ==
         dad.owner_coord(dim, val);
}

// --- shared reduction semantics ------------------------------------------------

bool reduce_op_of(const std::string& name, ReduceOp& op) {
  static const std::pair<const char*, ReduceOp> kOps[] = {
      {"SUM", ReduceOp::kSum},       {"PRODUCT", ReduceOp::kProduct},
      {"COUNT", ReduceOp::kCount},   {"ANY", ReduceOp::kAny},
      {"ALL", ReduceOp::kAll},       {"MAXVAL", ReduceOp::kMaxval},
      {"MINVAL", ReduceOp::kMinval}, {"MAXLOC", ReduceOp::kMaxloc},
      {"MINLOC", ReduceOp::kMinloc},
  };
  for (const auto& [n, o] : kOps) {
    if (name == n) {
      op = o;
      return true;
    }
  }
  return false;
}

namespace {

bool is_max(ReduceOp op) {
  return op == ReduceOp::kMaxval || op == ReduceOp::kMaxloc;
}

/// `x` strictly beats `best` for an extremum op: a better number, or any
/// number against a NaN.
bool beats(ReduceOp op, double x, double best) {
  if (is_max(op) ? x > best : x < best) return true;
  return std::isnan(best) && !std::isnan(x);
}

/// Saturating double -> INTEGER conversion for reduction results (an empty
/// MAXVAL is -HUGE, beyond any long long).
long long to_integer(double v) {
  if (std::isnan(v)) return 0;
  if (v <= static_cast<double>(std::numeric_limits<long long>::lowest()))
    return std::numeric_limits<long long>::lowest();
  if (v >= static_cast<double>(std::numeric_limits<long long>::max()))
    return std::numeric_limits<long long>::max();
  return static_cast<long long>(v);
}

}  // namespace

ReduceAcc ReduceAcc::identity(ReduceOp op) {
  ReduceAcc a;
  a.op = op;
  switch (op) {
    case ReduceOp::kProduct:
    case ReduceOp::kAll: a.v = 1; break;
    case ReduceOp::kMaxval:
    case ReduceOp::kMaxloc: a.v = std::numeric_limits<double>::lowest(); break;
    case ReduceOp::kMinval:
    case ReduceOp::kMinloc: a.v = std::numeric_limits<double>::max(); break;
    default: a.v = 0; break;
  }
  return a;
}

void ReduceAcc::fold(double x, Index at) {
  switch (op) {
    case ReduceOp::kSum: v += x; return;
    case ReduceOp::kProduct: v *= x; return;
    case ReduceOp::kCount: v += x != 0 ? 1 : 0; return;
    case ReduceOp::kAny: v = (v != 0 || x != 0) ? 1 : 0; return;
    case ReduceOp::kAll: v = (v != 0 && x != 0) ? 1 : 0; return;
    default: break;
  }
  if (!valid || beats(op, x, v)) {
    v = x;
    loc = at;
    valid = true;
  }
}

Value finish_reduce(comm::GridComm& gc, const ReduceAcc& acc,
                    ast::BaseType target, Index loc_lo, Index loc_st) {
  const ReduceOp op = acc.op;
  if (op == ReduceOp::kMaxloc || op == ReduceOp::kMinloc) {
    struct VL {
      double v;
      Index loc;
      unsigned char valid;
    };
    std::vector<VL> box{
        {acc.v, acc.loc, static_cast<unsigned char>(acc.valid ? 1 : 0)}};
    gc.allreduce(box, [op](const VL& x, const VL& y) {
      if (!x.valid) return y;
      if (!y.valid) return x;
      if (beats(op, x.v, y.v)) return x;
      if (beats(op, y.v, x.v)) return y;
      return x.loc <= y.loc ? x : y;
    });
    return Value::integer(box[0].valid ? loc_lo + loc_st * box[0].loc : 0);
  }
  std::vector<double> box{acc.v};
  switch (op) {
    case ReduceOp::kSum:
    case ReduceOp::kCount:
      gc.allreduce(box, [](double x, double y) { return x + y; });
      break;
    case ReduceOp::kProduct:
      gc.allreduce(box, [](double x, double y) { return x * y; });
      break;
    case ReduceOp::kAny:
      gc.allreduce(box, [](double x, double y) {
        return x != 0 || y != 0 ? 1.0 : 0.0;
      });
      break;
    case ReduceOp::kAll:
      gc.allreduce(box, [](double x, double y) {
        return x != 0 && y != 0 ? 1.0 : 0.0;
      });
      break;
    default:  // MAXVAL / MINVAL: an empty partial is the -HUGE/+HUGE seed
      gc.allreduce(box, [op](double x, double y) {
        return beats(op, y, x) ? y : x;
      });
      break;
  }
  return target == ast::BaseType::kInteger ? Value::integer(to_integer(box[0]))
                                           : Value::real(box[0]);
}

namespace {

/// Internal control flow of the planner: a decline unwinds the build and
/// becomes a cached PlanEntry with a null plan.
struct Decline {
  std::string reason;
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
  Builder(const SpmdStmt& s, Env& env, ExecPlan& plan)
      : s_(s), env_(env), coords_(env.gc.my_coords()), plan_(plan) {}

  /// Build plan_.  Throws Decline.
  void build() {
    structural_gates();
    plan_.stmt_id = s_.stmt_id;
    if (s_.kind == SpmdKind::kReduce) {
      plan_.sink = Sink::kReduce;
      (void)reduce_op_of(s_.reduce_op, plan_.reduce);  // gated above
    } else if (s_.lhs_buffered) {
      plan_.sink = concat_lhs() ? Sink::kConcat : Sink::kScatter;
    }
    // Masked-out and empty-nest plans build no body and their gathers no
    // indexer; the gathers still take part in the collective schedule
    // builds, with empty needs.
    for (const CommAction& a : s_.pre)
      if (!a.eliminated && is_iteration_buffer(a.kind))
        plan_.gathers.emplace_back().ref_id = a.ref_id;
    resolve_binds();
    if (!bind_nest()) return;
    index_refs();
    for (GlobalIndexer& g : plan_.gathers) g = build_indexer(g.ref_id);
    switch (plan_.sink) {
      case Sink::kStore:
        plan_.lhs = make_ref(s_.refs.at(0), /*is_write=*/true);
        break;
      case Sink::kConcat:
        plan_.gids.src = &s_.refs.at(0);
        resolve_direct(s_.refs[0], plan_.gids);
        bind_gids(plan_.gids);
        break;
      case Sink::kScatter:
        plan_.dests = build_indexer(0);
        break;
      case Sink::kReduce:
        break;  // no lhs: refs[0] is the partitioning anchor only
    }
    compile_body();
  }

  /// Re-bind plan_ to the current scalar values.  False = rebuild.
  bool rebind() {
    try {
      if (!bind_nest()) return true;  // nothing runs; the body waits
      if (!plan_.has_body) return false;
      for (RefPlan& r : plan_.refs) bind_ref(r, /*is_write=*/false);
      if (plan_.lhs.src != nullptr) bind_ref(plan_.lhs, /*is_write=*/true);
      if (plan_.gids.src != nullptr) bind_gids(plan_.gids);
      return true;
    } catch (const Decline&) {
      return false;
    }
  }

 private:
  [[noreturn]] static void decline(std::string reason) {
    throw Decline{std::move(reason)};
  }

  /// The statement's only live post-action is a concatenation write-back
  /// into a fully replicated lhs.
  bool concat_lhs() const {
    const CommAction* live = nullptr;
    for (const CommAction& a : s_.post) {
      if (a.eliminated) continue;
      if (live != nullptr) return false;
      live = &a;
    }
    if (live == nullptr || live->kind != CommKind::kConcatWrite) return false;
    auto it = env_.dads.find(s_.refs.at(0).array);
    return it != env_.dads.end() && it->second.fully_replicated();
  }

  void structural_gates() const {
    const bool reduce = s_.kind == SpmdKind::kReduce;
    if (!reduce && s_.kind != SpmdKind::kForall) decline("not a forall");
    if (s_.indices.empty()) decline("no iteration variables");
    if (reduce && !s_.rhs) decline("incomplete reduction");
    if (!reduce && (s_.refs.empty() || !s_.lhs || !s_.rhs))
      decline("incomplete forall");
    if (reduce) {
      ReduceOp op{};
      if (!reduce_op_of(s_.reduce_op, op))
        decline("unsupported reduction " + s_.reduce_op);
      return;
    }
    if (!s_.lhs_buffered) {
      if (!s_.post.empty()) decline("post-communication actions");
      return;
    }
    if (concat_lhs()) {
      // The concat slot's run table is bound from every iteration's
      // destination, masked-out ones included.
      if (s_.mask) decline("masked concatenation");
      for (const CommAction& a : s_.pre)
        if (!a.eliminated && is_iteration_buffer(a.kind))
          decline("gathered concatenation");
      return;
    }
    // The scatter (schedule3) and postcomp_write (schedule1) both run as
    // the tree walk's post-action, fed the plan's streams.
    bool scatter = false;
    for (const CommAction& a : s_.post) {
      if (a.eliminated) continue;
      if (a.kind != CommKind::kScatter && a.kind != CommKind::kPostcompWrite)
        decline("non-scatter write combining");
      scatter = true;
    }
    if (!scatter) decline("buffered lhs without scatter");
  }

  void push_scalar(const std::string& name, Tape& t) const {
    auto it = env_.scalars.find(name);
    if (it == env_.scalars.end()) decline("unbound scalar " + name);
    t.ins.push_back({Op::kScalar, 0, &it->second, {}});
  }

  /// Compile a scalar-context expression — literals, scalar variables,
  /// arithmetic and elementwise intrinsics, the interpreter's scalar
  /// eval() — to a tape over Value* slots.  Used for loop bounds, guard
  /// subscripts and runtime subscript terms, which every rebind evaluates.
  void emit_scalar(const Expr& e, Tape& t) const {
    switch (e.kind) {
      case ExprKind::kIntLit:
        t.ins.push_back({Op::kConst, 0, nullptr, Value::integer(e.int_value)});
        return;
      case ExprKind::kRealLit:
        t.ins.push_back({Op::kConst, 0, nullptr, Value::real(e.real_value)});
        return;
      case ExprKind::kLogicalLit:
        t.ins.push_back(
            {Op::kConst, 0, nullptr, Value::logical(e.logical_value)});
        return;
      case ExprKind::kVarRef: push_scalar(e.name, t); return;
      case ExprKind::kUnOp:
        emit_scalar(*e.args[0], t);
        if (e.un_op != UnOpKind::kPlus)
          t.ins.push_back({e.un_op == UnOpKind::kNeg ? Op::kNeg : Op::kNot, 0,
                           nullptr, {}});
        return;
      case ExprKind::kBinOp:
        emit_scalar(*e.args[0], t);
        emit_scalar(*e.args[1], t);
        t.ins.push_back({bin_op_of(e.bin_op), 0, nullptr, {}});
        return;
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
        for (const ExprPtr& a : e.args) emit_scalar(*a, t);
        t.ins.push_back({op, static_cast<int>(e.args.size()), nullptr, {}});
        return;
      }
      default:
        decline("unsupported expression in scalar context");
    }
  }

  Tape scalar_tape(const Expr& e) const {
    Tape t;
    emit_scalar(e, t);
    return t;
  }

  /// compile::affine_to_expr(a) as a scalar tape, term by term in the same
  /// order, without building the expression tree.
  Tape affine_tape(const AffineSub& a) const {
    require(a.kind == AffineSub::Kind::kAffine, "guard subscript is affine");
    Tape t;
    bool any = false;
    auto added = [&] {
      if (any) t.ins.push_back({Op::kAdd, 0, nullptr, {}});
      any = true;
    };
    for (const auto& [v, c] : a.coefs) {
      if (c != 1) t.ins.push_back({Op::kConst, 0, nullptr, Value::integer(c)});
      push_scalar(v, t);
      if (c != 1) t.ins.push_back({Op::kMul, 0, nullptr, {}});
      added();
    }
    if (a.runtime) {
      emit_scalar(*a.runtime, t);
      added();
    }
    if (a.cst != 0 || !any) {
      t.ins.push_back({Op::kConst, 0, nullptr, Value::integer(a.cst)});
      added();
    }
    return t;
  }

  Value eval_bound(const Tape& t) {
    return eval_tape(t, plan_.refs, nullptr, nullptr, plan_.bind_stack);
  }

  /// Resolve the bind phase's names once: loop bounds and guard subscripts
  /// to tapes, partitioning and guard arrays to descriptors and lower
  /// bounds.
  void resolve_binds() {
    plan_.level_binds.clear();
    for (const IndexPartition& ip : s_.indices) {
      LevelBind lb;
      lb.lo = scalar_tape(*ip.lo);
      lb.hi = scalar_tape(*ip.hi);
      if (ip.st) lb.st = scalar_tape(*ip.st);
      if (!ip.array.empty()) {
        lb.dad = &env_.dads.at(ip.array);
        lb.lower = env_.lower_of(ip.array, ip.dim);
      }
      plan_.level_binds.push_back(std::move(lb));
    }
    plan_.guard_binds.clear();
    for (const ProcGuard& g : s_.guards) {
      GuardBind gb;
      gb.dad = &env_.dads.at(g.array);
      gb.lower = env_.lower_of(g.array, g.dim);
      gb.sub = affine_tape(g.sub);
      plan_.guard_binds.push_back(std::move(gb));
    }
  }

  bool guards_pass() {
    for (size_t i = 0; i < s_.guards.size(); ++i) {
      const GuardBind& gb = plan_.guard_binds[i];
      if (!guard_owns(*gb.dad, s_.guards[i].dim,
                      eval_bound(gb.sub).as_i() - gb.lower, coords_))
        return false;
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

  /// The loop levels for the current scalar values, through the shared
  /// set_BOUND level derivation.  A zero stride declines, so the tree walk
  /// raises the diagnostic.
  void bind_loops() {
    plan_.loops.resize(s_.indices.size());
    for (size_t k = 0; k < s_.indices.size(); ++k) {
      const LevelBind& lb = plan_.level_binds[k];
      const Index lo = eval_bound(lb.lo).as_i();
      const Index hi = eval_bound(lb.hi).as_i();
      const Index st = lb.st.empty() ? 1 : eval_bound(lb.st).as_i();
      if (st == 0) decline("zero stride");
      derive_level(s_.indices[k], lb.dad, lb.lower,
                   env_.compiled.mapping.grid, coords_, lo, hi, st,
                   plan_.loops[k]);
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

  /// Structural part of a reference (access, element type, storage,
  /// strides), then its first binding.
  RefPlan make_ref(const RefInfo& ref, bool is_write) {
    RefPlan r;
    r.src = &ref;
    r.access = ref.access;
    if (ref.access == Access::kDirect) {
      make_direct(ref, r);
    } else {
      if (is_write) decline("buffered write reference");
      r.ty = env_.sym(ref.array).type;
      r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
    }
    bind_ref(r, is_write);
    if (ref.access == Access::kIterBuf || ref.access == Access::kDirect)
      arrays_.insert(ref.array);
    return r;
  }

  void make_direct(const RefInfo& ref, RefPlan& rp) {
    std::vector<Index> aext;
    env_.with_storage(ref.array, [&](auto& a) {
      using T = typename std::decay_t<decltype(a)>::value_type;
      rp.ty = kElemType<T>;
      rp.data = a.storage().data();
      for (int d = 0; d < a.rank(); ++d) aext.push_back(a.alloc_extent(d));
    });
    const int rank = static_cast<int>(aext.size());
    if (static_cast<int>(ref.subs.size()) != rank)
      decline("subscript rank mismatch");
    rp.dim_strides.assign(static_cast<size_t>(rank), 1);
    for (int d = rank - 2; d >= 0; --d)
      rp.dim_strides[static_cast<size_t>(d)] =
          rp.dim_strides[static_cast<size_t>(d + 1)] *
          aext[static_cast<size_t>(d + 1)];
    resolve_direct(ref, rp);
  }

  /// The bind inputs of a direct reference: descriptor, lower bounds and
  /// runtime subscript tapes.
  void resolve_direct(const RefInfo& ref, RefPlan& rp) const {
    rp.dad = &env_.dads.at(ref.array);
    const int rank = rp.dad->rank();
    if (static_cast<int>(ref.subs.size()) != rank)
      decline("subscript rank mismatch");
    rp.lowers.clear();
    rp.runtime.assign(static_cast<size_t>(rank), Tape{});
    for (int d = 0; d < rank; ++d) {
      const AffineSub& sub = ref.subs[static_cast<size_t>(d)];
      rp.lowers.push_back(env_.lower_of(ref.array, d));
      if (sub.kind != AffineSub::Kind::kAffine)
        decline("non-affine subscript");
      if (sub.runtime)
        rp.runtime[static_cast<size_t>(d)] = scalar_tape(*sub.runtime);
    }
  }

  /// kConcat: bind the lhs's global-id recurrence (row-major over the
  /// declared extents).  Every id must name an element of the array: an
  /// out-of-range subscript declines to the tree walk, which reports it.
  void bind_gids(RefPlan& rp) {
    const Dad& dad = *rp.dad;
    const size_t nv = plan_.loops.size();
    rp.base = 0;
    rp.terms.assign(nv, OffsetTerm{});
    long long gstride = 1;
    for (int d = dad.rank() - 1; d >= 0; --d) {
      const size_t du = static_cast<size_t>(d);
      const AffineSub& sub = rp.src->subs[du];
      long long c0 = sub.cst - rp.lowers[du];
      if (!rp.runtime[du].empty()) c0 += eval_bound(rp.runtime[du]).as_i();
      for (const auto& [var, coef] : sub.coefs) {
        if (coef == 0) continue;
        const PlanLoop& L = plan_.loops[level_of(var)];
        if (L.values.empty()) c0 += coef * L.val0;
      }
      long long mn = c0;
      long long mx = c0;
      add_dim_terms(sub, /*simple=*/true, gstride, rp, mn, mx);
      if (mn < 0 || mx >= dad.extent(d))
        decline("concatenation subscript out of range");
      rp.base += gstride * c0;
      gstride *= dad.extent(d);
    }
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

  /// Add one dimension's per-level contributions, scaled by the
  /// dimension's flat stride `sd`, into rp's offset terms, and widen
  /// [mn, mx] by the range the dimension's index covers over the nest.
  void add_dim_terms(const AffineSub& sub, bool simple, long long sd,
                     RefPlan& rp, long long& mn, long long& mx) const {
    for_each_dim_term(sub, simple,
                      [&](size_t k, long long stride,
                          const std::vector<Index>* tab, long long scale) {
                        const Index count = plan_.loops[k].count;
                        if (tab != nullptr) {
                          long long lo = scale * tab->front();
                          long long hi = lo;
                          for (Index v : *tab) {
                            lo = std::min(lo, scale * v);
                            hi = std::max(hi, scale * v);
                          }
                          mn += lo;
                          mx += hi;
                          term_add_table(rp.terms[k], *tab, sd * scale, count);
                        } else if (stride != 0) {
                          const long long end = stride * (count - 1);
                          mn += std::min<long long>(0, end);
                          mx += std::max<long long>(0, end);
                          term_add_affine(rp.terms[k], sd * stride, count);
                        }
                      });
  }

  void bind_direct(const RefInfo& ref, bool is_write, RefPlan& rp) {
    const Dad& dad = *rp.dad;
    long long base = 0;
    for (int d = 0; d < dad.rank(); ++d) {
      const size_t du = static_cast<size_t>(d);
      const AffineSub& sub = ref.subs[du];
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
            rp.runtime[du].empty() ? 0 : eval_bound(rp.runtime[du]).as_i();
        c0 = sub.cst + rt - rp.lowers[du];
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
      } else if (sub.coefs.empty()) {
        // A scalar subscript (a guard-selected line, A(I, K)): one owned
        // element, wherever CYCLIC(k) or an alignment stride puts it.
        const long long rt =
            rp.runtime[du].empty() ? 0 : eval_bound(rp.runtime[du]).as_i();
        const Index g = sub.cst + rt - rp.lowers[du];
        if (g < 0 || g >= dad.extent(d) || !dad.owns(d, g, coord))
          decline("scalar subscript on an unowned line");
        c0 = dad.local_of_global(d, g);
      } else {
        // CYCLIC / CYCLIC(k) / strided alignment: only the identity access
        // on the dimension the iteration was partitioned by — the local
        // index progression is then exactly the set_BOUND LocalRange.
        const std::string var = sub.single_var();
        if (var.empty() || sub.coef(var) != 1 || sub.has_runtime())
          decline("non-identity subscript on cyclic dimension");
        const size_t k = level_of(var);
        const IndexPartition& ip = s_.indices[k];
        const LevelBind& lb = plan_.level_binds[k];
        if (lb.dad == nullptr)
          decline("cyclic subscript variable not set_BOUND partitioned");
        const Dad& pdad = *lb.dad;
        if (!same_dim_map(m, pdad.dim(ip.dim)) ||
            dad.extent(d) != pdad.extent(ip.dim))
          decline("cyclic dimension mapped differently from partition source");
        if (sub.cst - rp.lowers[du] != -lb.lower)
          decline("offset subscript on cyclic dimension");
        const LocalRange& b = plan_.loops[k].bound;
        if (!b.enumerated()) c0 += b.lb;
      }

      // Flatten into the merged per-level flat-offset recurrence, and
      // verify every touched local index stays inside the allocation:
      // reads may use the overlap (ghost) area, writes must be owned.
      // This is the planner's replacement for the per-element
      // at_global/_ghost require() checks; anything outside falls back to
      // the tree walk.  A scalar subscript contributes no per-level term.
      const long long sd = rp.dim_strides[static_cast<size_t>(d)];
      long long mn = c0;
      long long mx = c0;
      add_dim_terms(sub, simple || sub.coefs.empty(), sd, rp, mn, mx);
      const long long lo_ok = is_write ? 0 : -static_cast<long long>(m.overlap_lo);
      const long long hi_ok =
          is_write ? lext - 1 : lext + static_cast<long long>(m.overlap_hi) - 1;
      if (mn < lo_ok || mx > hi_ok)
        decline("subscript range outside local allocation");
      base += sd * (c0 + m.overlap_lo);
    }
    rp.base = base;
  }

  /// Compile one vector-subscripted reference's subscript expressions to
  /// tapes folding to 0-based flat global element ids — the id space the
  /// PARTI schedules speak.  Mirrors the tree walk's eval_subs +
  /// flat_global_of.
  GlobalIndexer build_indexer(int ref_id) {
    const RefInfo& ref = s_.refs.at(static_cast<size_t>(ref_id));
    GlobalIndexer gi;
    gi.ref_id = ref_id;
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
          // Codegen gives every array read of a FORALL or reduction —
          // rhs, mask and lhs subscripts — its RefInfo.
          auto rit = ref_of_.find(&e);
          if (rit == ref_of_.end())
            decline("array element without reference info");
          out.push_back({Op::kRef, ref_id_of(rit->second), nullptr, {}});
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

  const SpmdStmt& s_;
  Env& env_;
  const std::vector<int>& coords_;
  ExecPlan& plan_;
  std::map<const Expr*, const RefInfo*> ref_of_;
  std::map<const RefInfo*, int> ref_ids_;
  std::set<std::string> arrays_;
};

// --- runner ------------------------------------------------------------------

Value load_ref(const RefPlan& r, long long off) {
  switch (r.access) {
    case Access::kDirect: return load_elem(r.ty, r.data, off);
    case Access::kScalarSlot: return r.buf->scalar;
    default: return load_elem(r.ty, r.buf->col.data(), off);
  }
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

namespace {

/// The planned loop nest: a counter odometer (last variable fastest, the
/// tree walk's order) with incrementally maintained reference offsets.
/// Calls body(varvals, offs) for every iteration: offs[r] is the flat
/// offset of p.refs[r] and, with `track_lhs`, offs[refs.size()] that of
/// p.lhs (only kStore plans store through it: the gather inspector and
/// the kScatter sink emit global ids through their indexers instead).
/// Returns the iteration count; no-op for masked-out and empty nests.
template <typename Body>
Index walk_nest(const ExecPlan& p, PlanScratch& scratch, bool track_lhs,
                Body&& body) {
  if (p.masked_out) return 0;
  const size_t nv = p.loops.size();
  if (nv == 0) return 0;
  for (const PlanLoop& l : p.loops)
    if (l.count == 0) return 0;

  const size_t nr = p.refs.size();
  const size_t nt = nr + (track_lhs ? 1 : 0);
  std::vector<Index>& counters = scratch.counters;
  std::vector<Index>& varvals = scratch.varvals;
  counters.assign(nv, 0);
  varvals.resize(nv);
  for (size_t k = 0; k < nv; ++k) varvals[k] = p.loops[k].value_at(0);

  // When a counter changes, only that level's contribution to each
  // tracked offset is swapped out.
  auto ref_at = [&](size_t r) -> const RefPlan& {
    return r < nr ? p.refs[r] : p.lhs;
  };
  std::vector<long long>& offs = scratch.offs;
  std::vector<long long>& contrib = scratch.contrib;
  offs.resize(nt);
  contrib.resize(nt * nv);
  for (size_t r = 0; r < nt; ++r) {
    long long off = ref_at(r).base;
    for (size_t k = 0; k < nv; ++k) {
      const long long c = ref_at(r).terms[k].at(0);
      contrib[r * nv + k] = c;
      off += c;
    }
    offs[r] = off;
  }
  auto update_level = [&](size_t k, Index c) {
    for (size_t r = 0; r < nt; ++r) {
      const long long nc = ref_at(r).terms[k].at(c);
      offs[r] += nc - contrib[r * nv + k];
      contrib[r * nv + k] = nc;
    }
  };

  Index iters = 0;
  for (;;) {
    ++iters;
    body(varvals.data(), offs.data());
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

/// The nest of a regular plan: calls sink(value, varvals, offs) for every
/// unmasked iteration, tracking the lhs offset only for kStore plans.
/// Returns the iteration count, mask-rejected iterations included.
template <typename SinkFn>
Index run_nest(const ExecPlan& p, PlanScratch& scratch, SinkFn&& sink) {
  std::vector<Value>& stack = scratch.stack;
  stack.reserve(p.rhs.ins.size() + p.mask.ins.size() + 4);
  return walk_nest(
      p, scratch, p.sink == Sink::kStore,
      [&](const Index* varvals, const long long* offs) {
        if (p.mask.empty() ||
            eval_tape(p.mask, p.refs, varvals, offs, stack).as_b())
          sink(eval_tape(p.rhs, p.refs, varvals, offs, stack), varvals, offs);
      });
}

/// Flat global element id of one vector-subscripted reference at the
/// current iteration point, with the tree walk's range diagnostic.
Index flat_of(const GlobalIndexer& gi, const std::vector<RefPlan>& refs,
              const Index* varvals, const long long* offs,
              std::vector<Value>& stack) {
  long long flat = 0;
  for (size_t d = 0; d < gi.subs.size(); ++d) {
    const long long sub =
        eval_tape(gi.subs[d], refs, varvals, offs, stack).as_i();
    const long long g = sub - gi.lowers[d];
    if (g < 0 || g >= static_cast<long long>(gi.extents[d]))
      throw RtsError(strformat(
          "subscript %lld of %s is out of range [%lld, %lld] in dimension %d",
          sub, gi.array.c_str(), gi.lowers[d],
          gi.lowers[d] + static_cast<long long>(gi.extents[d]) - 1,
          static_cast<int>(d) + 1));
    flat += g * gi.gstrides[d];
  }
  return flat;
}

}  // namespace

Index run_exec_plan(const ExecPlan& p, PlanScratch& scratch) {
  const size_t nr = p.refs.size();
  require(p.lhs.access == Access::kDirect, "exec plan stores a direct lhs");
  return run_nest(p, scratch,
                  [&](const Value& v, const Index*, const long long* offs) {
                    store_elem(p.lhs.ty, p.lhs.data, offs[nr], v);
                  });
}

Index run_reduce_plan(const ExecPlan& p, PlanScratch& scratch,
                      ReduceAcc& acc) {
  // The location is the first index variable's value, as in the tree walk.
  return run_nest(p, scratch,
                  [&](const Value& v, const Index* varvals, const long long*) {
                    acc.fold(v.as_d(), varvals[0]);
                  });
}

Index run_concat_plan(const ExecPlan& p, PlanScratch& scratch,
                      std::vector<double>& out) {
  return run_nest(p, scratch,
                  [&](const Value& v, const Index*, const long long*) {
                    out.push_back(v.as_d());
                  });
}

void run_gather_needs(const ExecPlan& p, int ref_id, PlanScratch& scratch,
                      std::vector<Index>& out) {
  // A plan without a body has no local iteration.
  if (!p.has_body) return;
  const auto gi = std::find_if(
      p.gathers.begin(), p.gathers.end(),
      [ref_id](const GlobalIndexer& g) { return g.ref_id == ref_id; });
  if (gi == p.gathers.end()) return;
  walk_nest(p, scratch, /*track_lhs=*/false,
            [&](const Index* varvals, const long long* offs) {
              out.push_back(flat_of(*gi, p.refs, varvals, offs, scratch.stack));
            });
}

Index run_scatter_plan(const ExecPlan& p, PlanScratch& scratch,
                       std::vector<double>& values,
                       std::vector<Index>& dest_ids) {
  return walk_nest(
      p, scratch, /*track_lhs=*/false,
      [&](const Index* varvals, const long long* offs) {
        // A masked-out iteration contributes no (dest, value) pair.
        if (!p.mask.empty() &&
            !eval_tape(p.mask, p.refs, varvals, offs, scratch.stack).as_b())
          return;
        // Rhs before destination, like the tree walk: an out-of-range
        // destination must not suppress rhs evaluation side ordering.
        const Value v = eval_tape(p.rhs, p.refs, varvals, offs, scratch.stack);
        values.push_back(v.as_d());
        dest_ids.push_back(flat_of(p.dests, p.refs, varvals, offs,
                                   scratch.stack));
      });
}

PlanEntry build_exec_plan(const SpmdStmt& s, Env& env) {
  auto plan = std::make_shared<ExecPlan>();
  try {
    Builder(s, env, *plan).build();
  } catch (const Decline& d) {
    return PlanEntry{nullptr, d.reason};
  }
  return PlanEntry{std::move(plan), {}};
}

bool rebind_exec_plan(const SpmdStmt& s, Env& env, ExecPlan& p) {
  return Builder(s, env, p).rebind();
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

}  // namespace f90d::exec
