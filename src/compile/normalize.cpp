#include "compile/normalize.hpp"

#include <set>

namespace f90d::compile {

using namespace ast;
using frontend::Symbol;

namespace {

const std::set<std::string> kReductionIntrinsics = {
    "SUM",    "PRODUCT", "MAXVAL", "MINVAL",      "COUNT",
    "ANY",    "ALL",     "MAXLOC", "MINLOC",      "DOT_PRODUCT",
    "DOTPRODUCT"};

const std::set<std::string> kArrayIntrinsics = {
    "CSHIFT", "EOSHIFT", "SPREAD", "TRANSPOSE", "RESHAPE",
    "PACK",   "UNPACK",  "MATMUL"};

class Normalizer {
 public:
  Normalizer(const Program& prog, std::map<std::string, Symbol>& syms)
      : prog_(prog), syms_(syms) {}

  NormProgram run() {
    NormProgram out;
    for (const StmtPtr& s : prog_.body) norm_stmt(*s, out.body);
    out.temps = std::move(temps_);
    return out;
  }

 private:
  // --- statement dispatch ---------------------------------------------------
  void norm_stmt(const Stmt& s, std::vector<NormStmtPtr>& out) {
    switch (s.kind) {
      case StmtKind::kAssign:
        norm_assign(s, /*mask=*/nullptr, /*specs=*/{}, out);
        break;
      case StmtKind::kForall: {
        // Per Fortran semantics each body assignment is an independent
        // parallel statement (synchronization between them).
        for (const StmtPtr& b : s.body) {
          require(b->kind == StmtKind::kAssign, "forall body is assignments");
          std::vector<ForallSpec> specs;
          for (const ForallSpec& sp : s.specs) {
            ForallSpec c;
            c.var = sp.var;
            c.lo = sp.lo->clone();
            c.hi = sp.hi->clone();
            c.st = sp.st ? sp.st->clone() : nullptr;
            specs.push_back(std::move(c));
          }
          norm_assign(*b, s.mask ? s.mask->clone() : nullptr, std::move(specs),
                      out);
        }
        break;
      }
      case StmtKind::kWhere: {
        for (const StmtPtr& b : s.body) {
          require(b->kind == StmtKind::kAssign, "where body is assignments");
          norm_assign(*b, s.mask->clone(), {}, out);
        }
        for (const StmtPtr& b : s.else_body) {
          require(b->kind == StmtKind::kAssign, "where body is assignments");
          norm_assign(*b, make_un(UnOpKind::kNot, s.mask->clone()), {}, out);
        }
        break;
      }
      case StmtKind::kDo: {
        auto n = std::make_unique<NormStmt>(NKind::kSeqDo);
        n->loc = s.loc;
        n->do_var = s.do_var;
        n->do_lo = s.do_lo->clone();
        n->do_hi = s.do_hi->clone();
        n->do_st = s.do_st ? s.do_st->clone() : nullptr;
        for (const StmtPtr& b : s.body) norm_stmt(*b, n->body);
        out.push_back(std::move(n));
        break;
      }
      case StmtKind::kIf: {
        auto n = std::make_unique<NormStmt>(NKind::kIf);
        n->loc = s.loc;
        // Hoist intrinsics out of the condition first.
        ExprPtr cond = s.mask->clone();
        hoist_intrinsics(cond, out);
        n->mask = std::move(cond);
        for (const StmtPtr& b : s.body) norm_stmt(*b, n->body);
        for (const StmtPtr& b : s.else_body) norm_stmt(*b, n->else_body);
        out.push_back(std::move(n));
        break;
      }
      case StmtKind::kPrint: {
        auto n = std::make_unique<NormStmt>(NKind::kPrint);
        n->loc = s.loc;
        for (const ExprPtr& e : s.items) {
          ExprPtr c = e->clone();
          hoist_intrinsics(c, out);
          hoist_elements(c, out);
          n->items.push_back(std::move(c));
        }
        out.push_back(std::move(n));
        break;
      }
    }
  }

  // --- assignment normalization ----------------------------------------------
  void norm_assign(const Stmt& s, ExprPtr where_mask,
                   std::vector<ForallSpec> forall_specs,
                   std::vector<NormStmtPtr>& out) {
    ExprPtr lhs = s.lhs->clone();
    ExprPtr rhs = s.rhs->clone();

    // Whole-array intrinsic assignment: A = CSHIFT(B, 1) etc.
    if (rhs->kind == ExprKind::kArrayRef && kArrayIntrinsics.count(rhs->name)) {
      require(forall_specs.empty() && !where_mask,
              "array intrinsics not supported inside FORALL/WHERE");
      auto n = std::make_unique<NormStmt>(NKind::kArrayIntrinsic);
      n->loc = s.loc;
      n->intrinsic = rhs->name;
      require(lhs->kind == ExprKind::kVarRef,
              "array intrinsic target is a whole array");
      n->dest_array = lhs->name;
      for (ExprPtr& a : rhs->args) n->call_args.push_back(std::move(a));
      out.push_back(std::move(n));
      return;
    }

    hoist_intrinsics(rhs, out);
    if (where_mask) hoist_intrinsics(where_mask, out);

    const bool lhs_is_array_name =
        lhs->kind == ExprKind::kVarRef && is_array(lhs->name);
    const bool lhs_has_section =
        lhs->kind == ExprKind::kArrayRef && has_triplet(*lhs);
    const bool rhs_elementwise_array = contains_whole_array_or_section(*rhs);

    if (!forall_specs.empty()) {
      // Already a forall: subscripts are elementwise (sections inside a
      // forall body are not supported by this subset).
      auto n = std::make_unique<NormStmt>(NKind::kForallAssign);
      n->loc = s.loc;
      n->specs = std::move(forall_specs);
      n->mask = std::move(where_mask);
      n->lhs = std::move(lhs);
      n->rhs = std::move(rhs);
      out.push_back(std::move(n));
      return;
    }

    if (!lhs_is_array_name && !lhs_has_section) {
      if (lhs->kind == ExprKind::kVarRef && !is_array(lhs->name) &&
          !rhs_elementwise_array && !where_mask) {
        // Pure scalar assignment.
        auto n = std::make_unique<NormStmt>(NKind::kScalarAssign);
        n->loc = s.loc;
        n->target = lhs->name;
        n->rhs = std::move(rhs);
        out.push_back(std::move(n));
        return;
      }
      if (lhs->kind == ExprKind::kArrayRef && !has_triplet(*lhs) &&
          !rhs_elementwise_array) {
        // Single-element assignment: a degenerate forall (one iteration),
        // which keeps all communication machinery uniform.
        auto n = std::make_unique<NormStmt>(NKind::kForallAssign);
        n->loc = s.loc;
        n->mask = std::move(where_mask);
        n->lhs = std::move(lhs);
        n->rhs = std::move(rhs);
        out.push_back(std::move(n));
        return;
      }
    }

    // Array assignment: synthesize FORALL variables for the section axes.
    auto n = std::make_unique<NormStmt>(NKind::kForallAssign);
    n->loc = s.loc;

    // Determine the lhs axes.
    std::vector<Axis> axes;
    if (lhs_is_array_name) lhs = full_section_ref(lhs->name, s.loc);
    require(lhs->kind == ExprKind::kArrayRef, "array assignment target");
    collect_axes(*lhs, axes, s.loc);
    require(!axes.empty(), "array assignment has at least one section axis");

    // Create the forall specs and rewrite lhs subscripts.
    for (size_t k = 0; k < axes.size(); ++k) {
      Axis& ax = axes[k];
      ForallSpec spec;
      spec.var = fresh_var();
      ax.var = spec.var;
      if (ax.value_based) {
        spec.lo = ax.lo->clone();
        spec.hi = ax.hi->clone();
      } else {
        // position-based: var = 0 .. (hi-lo)/st
        spec.lo = make_int(0);
        spec.hi = make_bin(
            BinOpKind::kDiv,
            make_bin(BinOpKind::kSub, ax.hi->clone(), ax.lo->clone()),
            ax.st->clone());
      }
      n->specs.push_back(std::move(spec));
    }
    rewrite_sections(*lhs, axes, /*is_lhs=*/true, s.loc);
    rewrite_sections(*rhs, axes, /*is_lhs=*/false, s.loc);
    if (where_mask) rewrite_sections(*where_mask, axes, false, s.loc);

    n->mask = std::move(where_mask);
    n->lhs = std::move(lhs);
    n->rhs = std::move(rhs);
    out.push_back(std::move(n));
  }

  struct Axis {
    ExprPtr lo, hi, st;   ///< lhs section triplet (st folded, null = 1)
    bool value_based;     ///< lhs stride 1: var iterates the index values
    std::string var;
  };

  /// Collect section axes from the lhs reference (dims with triplets).
  void collect_axes(Expr& lhs, std::vector<Axis>& axes, SourceLoc loc) {
    const Symbol& sym = syms_.at(lhs.name);
    for (size_t d = 0; d < lhs.args.size(); ++d) {
      ExprPtr& arg = lhs.args[d];
      if (!arg) {
        // bare ':' parses as empty triplet — fill full range
        arg = std::make_unique<Expr>(ExprKind::kTriplet);
        arg->args.resize(3);
      }
      if (arg->kind != ExprKind::kTriplet) continue;
      Axis ax;
      ax.lo = arg->args[0] ? arg->args[0]->clone()
                           : make_int(sym.lower[d]);
      ax.hi = arg->args[1]
                  ? arg->args[1]->clone()
                  : make_int(sym.lower[d] + sym.extent[d] - 1);
      ax.st = (arg->args.size() > 2 && arg->args[2]) ? arg->args[2]->clone()
                                                     : nullptr;
      long long stv = 1;
      bool st_const = true;
      if (ax.st) {
        try {
          stv = frontend::eval_int_const(*ax.st, syms_);
        } catch (const Error&) {
          st_const = false;
        }
      }
      ax.value_based = st_const && stv == 1;
      if (!ax.st) ax.st = make_int(1);
      axes.push_back(std::move(ax));
      (void)loc;
    }
  }

  /// Replace triplets (and whole-array refs) with elementwise subscripts
  /// using the axis variables, matching axes positionally.
  void rewrite_sections(Expr& e, const std::vector<Axis>& axes, bool is_lhs,
                        SourceLoc loc) {
    switch (e.kind) {
      case ExprKind::kVarRef: {
        if (!is_array(e.name)) return;
        // Whole-array value reference: expand to a full elementwise ref.
        const Symbol& sym = syms_.at(e.name);
        require(sym.rank() == static_cast<int>(axes.size()),
                "whole-array operand conforms to assignment axes");
        e.kind = ExprKind::kArrayRef;
        for (int d = 0; d < sym.rank(); ++d) {
          const Axis& ax = axes[static_cast<size_t>(d)];
          // Element index for axis position: value-based vars iterate the
          // lhs index values, so translate by (lower - lhs_lo).
          ExprPtr idx = axis_index(ax, sym.lower[static_cast<size_t>(d)],
                                   /*sec_lo=*/make_int(sym.lower[static_cast<size_t>(d)]),
                                   /*sec_st=*/make_int(1));
          e.args.push_back(std::move(idx));
        }
        return;
      }
      case ExprKind::kArrayRef: {
        // Function-style intrinsics recurse into args.
        if (!is_array(e.name)) {
          for (ExprPtr& a : e.args)
            if (a) rewrite_sections(*a, axes, is_lhs, loc);
          return;
        }
        size_t axis_k = 0;
        for (ExprPtr& arg : e.args) {
          if (!arg) {
            arg = std::make_unique<Expr>(ExprKind::kTriplet);
            arg->args.resize(3);
          }
          if (arg->kind != ExprKind::kTriplet) {
            rewrite_sections(*arg, axes, is_lhs, loc);
            continue;
          }
          require(axis_k < axes.size(),
                  "operand has more section axes than the assignment target");
          const Axis& ax = axes[axis_k++];
          const size_t dim_pos =
              static_cast<size_t>(&arg - e.args.data());
          const Symbol& sym = syms_.at(e.name);
          ExprPtr sec_lo = arg->args[0]
                               ? std::move(arg->args[0])
                               : make_int(sym.lower[dim_pos]);
          ExprPtr sec_st = (arg->args.size() > 2 && arg->args[2])
                               ? std::move(arg->args[2])
                               : make_int(1);
          ExprPtr idx = axis_index(ax, /*unused lower*/ 0, std::move(sec_lo),
                                   std::move(sec_st));
          arg = std::move(idx);
        }
        return;
      }
      case ExprKind::kBinOp:
      case ExprKind::kUnOp:
      case ExprKind::kTriplet:
        for (ExprPtr& a : e.args)
          if (a) rewrite_sections(*a, axes, is_lhs, loc);
        return;
      default:
        return;
    }
  }

  /// Element index of an operand section for a given axis.
  ///   value-based axis (lhs stride 1): var iterates lhs values
  ///       idx = sec_lo + (var - lhs_lo) * sec_st
  ///   position-based axis: var iterates positions 0..cnt-1
  ///       idx = sec_lo + var * sec_st
  ExprPtr axis_index(const Axis& ax, long long /*lower*/, ExprPtr sec_lo,
                     ExprPtr sec_st) {
    const bool unit_st = is_literal_one(*sec_st);
    if (ax.value_based) {
      ExprPtr offset =
          make_bin(BinOpKind::kSub, make_var(ax.var), ax.lo->clone());
      // Common fast path: identical lo and unit stride -> plain var.
      if (unit_st && ast::to_fortran(*sec_lo) == ast::to_fortran(*ax.lo))
        return make_var(ax.var);
      ExprPtr scaled = unit_st ? std::move(offset)
                               : make_bin(BinOpKind::kMul, std::move(sec_st),
                                          std::move(offset));
      return make_bin(BinOpKind::kAdd, std::move(sec_lo), std::move(scaled));
    }
    ExprPtr scaled = unit_st
                         ? make_var(ax.var)
                         : make_bin(BinOpKind::kMul, std::move(sec_st),
                                    make_var(ax.var));
    return make_bin(BinOpKind::kAdd, std::move(sec_lo), std::move(scaled));
  }

  static bool is_literal_one(const Expr& e) {
    return e.kind == ExprKind::kIntLit && e.int_value == 1;
  }

  // --- intrinsic hoisting -----------------------------------------------------
  /// Replace reduction-intrinsic calls inside `e` by compiler temporaries,
  /// emitting Reduce statements for them.
  void hoist_intrinsics(ExprPtr& e, std::vector<NormStmtPtr>& out) {
    if (!e) return;
    if (e->kind == ExprKind::kArrayRef && kReductionIntrinsics.count(e->name)) {
      auto n = std::make_unique<NormStmt>(NKind::kReduce);
      n->loc = e->loc;
      n->reduce_op = e->name == "DOTPRODUCT" ? "DOT_PRODUCT" : e->name;
      require(!e->args.empty(), "reduction intrinsic has an argument");
      ExprPtr arg = std::move(e->args[0]);
      hoist_intrinsics(arg, out);
      // DOT_PRODUCT(a, b) -> SUM over a*b.
      if (n->reduce_op == "DOT_PRODUCT") {
        require(e->args.size() >= 2, "DOT_PRODUCT takes two arguments");
        ExprPtr arg2 = std::move(e->args[1]);
        hoist_intrinsics(arg2, out);
        arg = make_bin(BinOpKind::kMul, std::move(arg), std::move(arg2));
        n->reduce_op = "SUM";
      }
      // Build the reduction iteration space from the argument's sections.
      build_reduce_space(*n, std::move(arg));

      const bool integer_result =
          e->name == "MAXLOC" || e->name == "MINLOC" || e->name == "COUNT";
      const std::string tmp =
          fresh_temp(integer_result ? BaseType::kInteger : BaseType::kReal);
      n->target = tmp;
      out.push_back(std::move(n));
      e = make_var(tmp);
      return;
    }
    for (ExprPtr& a : e->args) hoist_intrinsics(a, out);
  }

  /// Replace every array element read in `e` by a compiler temporary of
  /// the array's type, assigned just before: as for `X = A(7)`, the scalar
  /// assignment broadcasts a distributed element to every processor, so
  /// the PRINT that follows reads only scalars.
  void hoist_elements(ExprPtr& e, std::vector<NormStmtPtr>& out) {
    if (!e) return;
    if (e->kind == ExprKind::kArrayRef && is_array(e->name) &&
        !has_triplet(*e)) {
      const std::string tmp = fresh_temp(syms_.at(e->name).type);
      auto n = std::make_unique<NormStmt>(NKind::kScalarAssign);
      n->loc = e->loc;
      n->target = tmp;
      n->rhs = std::move(e);
      out.push_back(std::move(n));
      e = make_var(tmp);
      return;
    }
    for (ExprPtr& a : e->args) hoist_elements(a, out);
  }

  /// Give a Reduce statement its own iteration space: synthesize axis
  /// variables from the sections of the argument expression.
  void build_reduce_space(NormStmt& n, ExprPtr arg) {
    // Find the first sectioned/whole array reference to define the axes.
    std::vector<Axis> axes;
    Expr* anchor = find_sectioned_ref(*arg);
    if (anchor == nullptr) {
      // Scalar argument (odd but legal): reduce over a single value.
      n.rhs = std::move(arg);
      return;
    }
    if (anchor->kind == ExprKind::kVarRef) {
      ExprPtr expanded = full_section_ref(anchor->name, anchor->loc);
      *anchor = std::move(*expanded);
    }
    collect_axes(*anchor, axes, n.loc);
    for (Axis& ax : axes) {
      ForallSpec spec;
      spec.var = fresh_var();
      ax.var = spec.var;
      if (ax.value_based) {
        spec.lo = ax.lo->clone();
        spec.hi = ax.hi->clone();
      } else {
        spec.lo = make_int(0);
        spec.hi = make_bin(
            BinOpKind::kDiv,
            make_bin(BinOpKind::kSub, ax.hi->clone(), ax.lo->clone()),
            ax.st->clone());
      }
      n.specs.push_back(std::move(spec));
    }
    // The location is the first index variable's value; a position-based
    // axis maps it back to the index it stands for.
    if ((n.reduce_op == "MAXLOC" || n.reduce_op == "MINLOC") &&
        !axes.empty() && !axes.front().value_based) {
      n.loc_lo = axes.front().lo->clone();
      n.loc_st = axes.front().st->clone();
    }
    rewrite_sections(*arg, axes, false, n.loc);
    n.rhs = std::move(arg);
  }

  /// First whole-array or sectioned reference in the tree (pre-order).
  Expr* find_sectioned_ref(Expr& e) {
    if (e.kind == ExprKind::kVarRef && is_array(e.name)) return &e;
    if (e.kind == ExprKind::kArrayRef && is_array(e.name) && has_triplet(e))
      return &e;
    for (ExprPtr& a : e.args) {
      if (!a) continue;
      Expr* r = find_sectioned_ref(*a);
      if (r) return r;
    }
    return nullptr;
  }

  // --- helpers ----------------------------------------------------------------
  [[nodiscard]] bool is_array(const std::string& name) const {
    auto it = syms_.find(name);
    return it != syms_.end() && it->second.is_array();
  }

  static bool has_triplet(const Expr& ref) {
    for (const ExprPtr& a : ref.args)
      if (!a || a->kind == ExprKind::kTriplet) return true;
    return false;
  }

  bool contains_whole_array_or_section(const Expr& e) const {
    if (e.kind == ExprKind::kVarRef && is_array(e.name)) return true;
    if (e.kind == ExprKind::kArrayRef && is_array(e.name) && has_triplet(e))
      return true;
    for (const ExprPtr& a : e.args)
      if (a && contains_whole_array_or_section(*a)) return true;
    return false;
  }

  ExprPtr full_section_ref(const std::string& name, SourceLoc loc) {
    const Symbol& sym = syms_.at(name);
    std::vector<ExprPtr> args;
    for (int d = 0; d < sym.rank(); ++d) {
      auto t = std::make_unique<Expr>(ExprKind::kTriplet);
      t->args.push_back(make_int(sym.lower[static_cast<size_t>(d)]));
      t->args.push_back(make_int(sym.lower[static_cast<size_t>(d)] +
                                 sym.extent[static_cast<size_t>(d)] - 1));
      t->args.push_back(nullptr);
      args.push_back(std::move(t));
    }
    return make_array_ref(name, std::move(args), loc);
  }

  std::string fresh_var() {
    std::string name = "I_" + std::to_string(var_counter_++);
    Symbol s;
    s.type = BaseType::kInteger;
    s.is_index = true;
    syms_.emplace(name, s);
    return name;
  }

  std::string fresh_temp(BaseType type) {
    std::string name = "R_" + std::to_string(tmp_counter_++);
    Symbol s;
    s.type = type;
    syms_.emplace(name, s);
    temps_.emplace(name, s);
    return name;
  }

  const Program& prog_;
  std::map<std::string, Symbol>& syms_;
  std::map<std::string, Symbol> temps_;
  int var_counter_ = 1;
  int tmp_counter_ = 1;
};

}  // namespace

NormProgram normalize(const Program& program,
                      std::map<std::string, Symbol>& syms) {
  return Normalizer(program, syms).run();
}

}  // namespace f90d::compile
