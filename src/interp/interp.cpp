#include "interp/interp.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "comm/grid_comm.hpp"
#include "exec/exec_env.hpp"
#include "exec/exec_plan.hpp"
#include "exec/statement_plan.hpp"
#include "native/jit.hpp"
#include "parti/schedule.hpp"
#include "parti/schedule_cache.hpp"
#include "rts/dist_array.hpp"
#include "rts/intrinsics.hpp"
#include "rts/matmul.hpp"
#include "rts/reductions.hpp"
#include "rts/remap.hpp"
#include "rts/set_bound.hpp"
#include "rts/shift_ops.hpp"

namespace f90d::interp {

using namespace compile;
using ast::BinOpKind;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::UnOpKind;
using exec::Buf;
using exec::Value;
using frontend::Symbol;
using rts::Dad;
using rts::DistArray;
using rts::DistKind;

namespace {

/// One local iteration range of a forall variable.  Uniform-stride ranges
/// (BLOCK, CYCLIC, collapsed) use val0/step; block-cyclic CYCLIC(k) ranges
/// may be irregular, in which case `values` enumerates the iteration values
/// explicitly (val0/step still describe the first element for callers that
/// only need it).
struct VarRange {
  Index val0 = 0;   ///< first value (source coordinates)
  Index step = 1;
  Index count = 0;
  std::vector<Index> values;  ///< non-empty = explicit enumeration

  [[nodiscard]] Index value_at(Index i) const {
    return values.empty() ? val0 + i * step
                          : values[static_cast<size_t>(i)];
  }
};

struct Shared {
  std::mutex mu;
  /// Native kernels usable this run: RunOptions::native_backend and a
  /// working toolchain, checked once per run rather than per attach.
  bool native = false;
  ProgramResult result;
  /// Program-only clock/stats snapshots, taken before the (instrumentation)
  /// result-gathering phase so timings exclude it.
  std::vector<double> clock_snapshot;
  std::vector<machine::ProcStats> stats_snapshot;
};

using exec::trip_count;

/// INDIRECT map arrays resolve their ownership tables from the same
/// initializers that will later fill the (replicated) map array itself, so
/// the table and the visible array contents agree on every processor.
exec::MapResolver map_resolver(const Init& init) {
  return [&init](const std::string& name, Index n) {
    std::vector<long long> out;
    auto f = init.ints.find(name);
    if (f == init.ints.end()) return out;
    out.reserve(static_cast<size_t>(n));
    std::vector<Index> g(1);
    for (Index t = 0; t < n; ++t) {
      g[0] = t;
      out.push_back(f->second(g));
    }
    return out;
  };
}

// --- node program -------------------------------------------------------------
// The node program is a thin driver over the exec layer: every FORALL is
// first looked up in the statement plan cache (exec/statement_plan.hpp),
// whose entries run the strength-reduced loop nest or the planned PARTI
// inspector/executor; statements both planners decline (buffered concat
// writes, schedule1 reads, non-affine subscripts) fall back to the tree
// walk below, which operates on the same exec::Env state.

class Node {
 public:
  Node(const Compiled& c, machine::Proc& proc, const Init& init,
       const RunOptions& opt, Shared& shared)
      : c_(c),
        proc_(proc),
        gc_(proc, c.mapping.grid),
        init_(init),
        opt_(opt),
        shared_(shared),
        env_(c, gc_, map_resolver(init)),
        comm_plans_(env_, make_comm_hooks(), shared.native),
        native_(shared.native) {
    cache_.set_enabled(opt_.schedule_cache);
    if (opt_.schedule_session != nullptr)
      cache_.set_session(opt_.schedule_session, gc_.my_logical());
    if (opt_.plan_meta != nullptr)
      stmt_plans_.set_shared(opt_.plan_meta, opt_.cache_prefix);
    apply_init();
  }

  /// Callbacks the comm-plan builder uses to bake descriptors: the same
  /// expression evaluation and range derivation as the tree walk, plus the
  /// tree walk itself for declined slots.  The lambdas capture `this` and
  /// fire only after construction completes.
  exec::CommHooks make_comm_hooks() {
    exec::CommHooks h;
    h.eval = [this](const Expr& e) { return eval(e); };
    h.eval_bound = [this](const Expr& e, const std::string& var, Index val) {
      frame_[var] = val;
      const exec::Value v = eval(e);
      frame_.erase(var);
      return v;
    };
    h.ranges = [this](const SpmdStmt& s) {
      auto all = ranges_for_coords_no_guards(s, gc_.my_coords());
      std::vector<exec::CommRange> out(all.size());
      for (size_t k = 0; k < all.size(); ++k) {
        out[k].val0 = all[k].val0;
        out[k].step = all[k].step;
        out[k].count = all[k].count;
        out[k].values = std::move(all[k].values);
      }
      return out;
    };
    h.legacy = [this](const SpmdStmt& s, const CommAction& a) {
      run_action(s, a, std::nullopt);
    };
    return h;
  }

  void run() {
    for (const SpmdStmtPtr& s : c_.program.body) exec(*s);
    {
      // Snapshot the node program's virtual time and traffic before the
      // verification gathers below add theirs.
      std::lock_guard<std::mutex> lock(shared_.mu);
      shared_.clock_snapshot[static_cast<size_t>(proc_.rank())] = proc_.clock();
      shared_.stats_snapshot[static_cast<size_t>(proc_.rank())] = proc_.stats();
    }
    collect_results();
  }

 private:
  // --- environment ------------------------------------------------------------
  void apply_init() {
    for (auto& [name, a] : env_.dar) {
      auto f = init_.real.find(name);
      if (f != init_.real.end())
        a.fill_global([&](std::span<const Index> g) { return f->second(g); });
    }
    for (auto& [name, a] : env_.iar) {
      auto f = init_.ints.find(name);
      if (f != init_.ints.end())
        a.fill_global([&](std::span<const Index> g) { return f->second(g); });
    }
    for (auto& [name, a] : env_.lar) {
      auto f = init_.logical.find(name);
      if (f != init_.logical.end())
        a.fill_global([&](std::span<const Index> g) {
          return static_cast<unsigned char>(f->second(g) ? 1 : 0);
        });
    }
    for (auto& [name, v] : env_.scalars) {
      const Symbol& s = env_.sym(name);
      if (s.is_parameter) continue;
      auto f = init_.scalars.find(name);
      if (f == init_.scalars.end()) continue;
      v = s.type == ast::BaseType::kInteger
              ? Value::integer(static_cast<long long>(f->second))
              : Value::real(f->second);
    }
  }

  // --- expression evaluation -----------------------------------------------------
  Value eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: return Value::integer(e.int_value);
      case ExprKind::kRealLit: return Value::real(e.real_value);
      case ExprKind::kLogicalLit: return Value::logical(e.logical_value);
      case ExprKind::kVarRef: {
        auto fit = frame_.find(e.name);
        if (fit != frame_.end()) return Value::integer(fit->second);
        auto sit = env_.scalars.find(e.name);
        require(sit != env_.scalars.end(), "scalar variable bound");
        return sit->second;
      }
      case ExprKind::kUnOp: {
        Value v = eval(*e.args[0]);
        switch (e.un_op) {
          case UnOpKind::kNeg:
            return v.k == Value::K::kI ? Value::integer(-v.as_i())
                                       : Value::real(-v.as_d());
          case UnOpKind::kPlus: return v;
          case UnOpKind::kNot: return Value::logical(!v.as_b());
        }
        return v;
      }
      case ExprKind::kBinOp: return eval_bin(e);
      case ExprKind::kArrayRef: return eval_ref(e);
      default:
        throw RtsError("cannot evaluate expression kind");
    }
  }

  Value eval_bin(const Expr& e) {
    const Value l = eval(*e.args[0]);
    // Short-circuit logicals; everything else shares the exec-layer
    // operator tables with the plan tapes (bit-identical by construction).
    if (e.bin_op == BinOpKind::kAnd)
      return Value::logical(l.as_b() && eval(*e.args[1]).as_b());
    if (e.bin_op == BinOpKind::kOr)
      return Value::logical(l.as_b() || eval(*e.args[1]).as_b());
    return exec::bin_value(exec::bin_op_of(e.bin_op), l, eval(*e.args[1]));
  }

  Value eval_ref(const Expr& e) {
    // Elementwise intrinsics.
    if (!c_.sema.symbols.count(e.name) ||
        !c_.sema.symbols.at(e.name).is_array())
      return eval_intrinsic(e);

    const RefInfo* ref = find_ref(&e);
    const Access access = ref ? ref->access : Access::kDirect;
    switch (access) {
      case Access::kDirect: {
        eval_subs(e, gidx_scratch_);
        return env_.read_element(e.name, gidx_scratch_, /*ghost=*/true);
      }
      case Access::kIterBuf: {
        const Buf& b = env_.bufs[static_cast<size_t>(ref->buffer_id)];
        const Symbol& s = env_.sym(e.name);
        if (s.type == ast::BaseType::kInteger)
          return Value::integer(b.ivals[static_cast<size_t>(flat_iter_)]);
        return Value::real(b.dvals[static_cast<size_t>(flat_iter_)]);
      }
      case Access::kSlabBuf: {
        const Buf& b = env_.bufs[static_cast<size_t>(ref->buffer_id)];
        Index idx = 0;
        for (const std::string& v : ref->slab_vars) {
          const auto& vb = var_state_.at(v);
          idx = idx * vb.count + vb.counter;
        }
        const Symbol& s = env_.sym(e.name);
        if (s.type == ast::BaseType::kInteger)
          return Value::integer(b.ivals[static_cast<size_t>(idx)]);
        return Value::real(b.dvals[static_cast<size_t>(idx)]);
      }
      case Access::kScalarSlot:
        return env_.bufs[static_cast<size_t>(ref->buffer_id)].scalar;
    }
    return Value::real(0);
  }

  Value eval_intrinsic(const Expr& e) {
    exec::Op op{};
    int argc = 0;
    if (!exec::intrinsic_op_of(e.name, op, argc))
      throw RtsError("unsupported intrinsic in node program: " + e.name);
    require(argc >= 0 ? e.args.size() == static_cast<size_t>(argc)
                      : !e.args.empty(),
            "intrinsic argument count");
    // Local buffer: eval() recurses back here for nested intrinsics.
    std::vector<Value> args;
    args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) args.push_back(eval(*a));
    return exec::intrinsic_value(op, args);
  }

  /// Evaluate the subscripts of an array reference into 0-based global
  /// indices.
  void eval_subs(const Expr& ref, std::vector<Index>& out) {
    out.resize(ref.args.size());
    for (size_t d = 0; d < ref.args.size(); ++d) {
      const Index val = eval(*ref.args[d]).as_i();
      out[d] = val - env_.lower_of(ref.name, static_cast<int>(d));
    }
  }

  // --- iteration machinery ----------------------------------------------------
  struct VarState {
    Index value = 0;
    Index counter = 0;
    Index count = 0;
  };

  /// Convert one set_BOUND result into the iteration values of a forall
  /// variable (source coordinates).  For BLOCK and CYCLIC(1) a uniform
  /// local range maps to a uniform global progression, so the triplet
  /// stays symbolic.  For block-cyclic CYCLIC(k>1) even a contiguous
  /// local range crosses course boundaries in global space (locals
  /// 0,1,2,3 may be globals 2,3,6,7), so every local index is mapped
  /// through mu^-1 explicitly; the list collapses back to a progression
  /// when it happens to be uniform.
  VarRange range_from_bound(const Dad& dad, int dim, int coord,
                            long long lower, const rts::LocalRange& lr,
                            Index st) {
    VarRange r;
    if (lr.empty) {
      r.count = 0;
      return r;
    }
    r.count = lr.count();
    const rts::DimMap& m = dad.dim(dim);
    // INDIRECT joins block-cyclic here: local-to-global is not affine, so
    // uniform local triplets must be mapped through mu^-1 element by element.
    const bool nonaffine_local =
        (m.kind == DistKind::kCyclic && m.block > 1) ||
        m.kind == DistKind::kIndirect;
    if (lr.enumerated() || nonaffine_local) {
      r.values.reserve(static_cast<size_t>(r.count));
      if (lr.enumerated()) {
        for (Index l : lr.indices)
          r.values.push_back(dad.global_of_local(dim, l, coord) + lower);
      } else {
        for (Index l = lr.lb; l <= lr.ub; l += lr.st)
          r.values.push_back(dad.global_of_local(dim, l, coord) + lower);
      }
      r.val0 = r.values.front();
      r.step = r.count > 1 ? r.values[1] - r.values[0] : st;
      bool uniform = true;
      for (size_t i = 2; i < r.values.size(); ++i)
        uniform = uniform &&
                  r.values[i] - r.values[i - 1] == r.step;
      if (uniform) r.values.clear();  // progression form is exact
    } else {
      r.val0 = dad.global_of_local(dim, lr.lb, coord) + lower;
      r.step = r.count > 1
                   ? dad.global_of_local(dim, lr.lb + lr.st, coord) + lower -
                         r.val0
                   : st;
    }
    return r;
  }

  /// Ranges a given processor (grid coords) iterates for the statement, or
  /// nullopt when guards mask it out.
  std::optional<std::vector<VarRange>> ranges_for_coords(
      const SpmdStmt& s, const std::vector<int>& coords) {
    for (const ProcGuard& g : s.guards) {
      const Dad& dad = env_.dads.at(g.array);
      const Index val =
          eval(*affine_to_expr(g.sub)).as_i() - env_.lower_of(g.array, g.dim);
      const int owner = dad.owner_coord(g.dim, val);
      const int gd = dad.dim(g.dim).grid_dim;
      if (coords[static_cast<size_t>(gd)] != owner) return std::nullopt;
    }
    return ranges_for_coords_no_guards(s, coords);
  }

  /// Ranges ignoring the processor guards (slab packing: the source line
  /// packs exactly the ranges the destinations iterate).
  std::vector<VarRange> ranges_for_coords_no_guards(
      const SpmdStmt& s, const std::vector<int>& coords) {
    std::vector<VarRange> out;
    for (const IndexPartition& ip : s.indices) {
      const Index lo = eval(*ip.lo).as_i();
      const Index hi = eval(*ip.hi).as_i();
      const Index st = ip.st ? eval(*ip.st).as_i() : 1;
      VarRange r;
      if (!ip.array.empty()) {
        const Dad& dad = env_.dads.at(ip.array);
        const long long lower = env_.lower_of(ip.array, ip.dim);
        const int gd = dad.dim(ip.dim).grid_dim;
        const int coord = coords[static_cast<size_t>(gd)];
        const rts::LocalRange lr =
            rts::set_bound(dad, ip.dim, coord, lo - lower, hi - lower, st);
        r = range_from_bound(dad, ip.dim, coord, lower, lr, st);
      } else if (ip.synth_grid_dim >= 0) {
        const Index total = trip_count(lo, hi, st);
        const Index p = c_.mapping.grid.extent(ip.synth_grid_dim);
        const Index chunk = (total + p - 1) / p;
        const int coord = coords[static_cast<size_t>(ip.synth_grid_dim)];
        const Index first = static_cast<Index>(coord) * chunk;
        const Index last = std::min(first + chunk, total);
        r.count = std::max<Index>(0, last - first);
        r.val0 = lo + first * st;
        r.step = st;
      } else {
        r.count = trip_count(lo, hi, st);
        r.val0 = lo;
        r.step = st;
      }
      out.push_back(r);
    }
    return out;
  }

  /// Iterate a range vector in spec order, invoking f() per iteration with
  /// frame_/var_state_/flat_iter_ set.
  template <typename F>
  void iterate(const SpmdStmt& s, const std::vector<VarRange>& ranges, F&& f) {
    const size_t nv = ranges.size();
    for (const VarRange& r : ranges)
      if (r.count == 0) return;
    std::vector<VarState> st(nv);
    for (size_t k = 0; k < nv; ++k) {
      st[k].value = ranges[k].val0;
      st[k].count = ranges[k].count;
      st[k].counter = 0;
    }
    for (size_t k = 0; k < nv; ++k) {
      frame_[s.indices[k].var] = st[k].value;
      var_state_[s.indices[k].var] = st[k];
    }
    flat_iter_ = 0;
    for (;;) {
      f();
      ++flat_iter_;
      // Odometer: last variable fastest (matches buffer packing order).
      size_t k = nv;
      while (k > 0) {
        --k;
        VarState& v = st[k];
        if (++v.counter < v.count) {
          v.value = ranges[k].value_at(v.counter);
          frame_[s.indices[k].var] = v.value;
          var_state_[s.indices[k].var] = v;
          break;
        }
        v.counter = 0;
        v.value = ranges[k].val0;
        frame_[s.indices[k].var] = v.value;
        var_state_[s.indices[k].var] = v;
        if (k == 0) {
          cleanup_frame(s);
          return;
        }
      }
    }
  }

  void cleanup_frame(const SpmdStmt& s) {
    for (const IndexPartition& ip : s.indices) {
      frame_.erase(ip.var);
      var_state_.erase(ip.var);
    }
  }

  // --- statements ----------------------------------------------------------------
  void exec(const SpmdStmt& s) {
    try {
      exec_inner(s);
    } catch (const Error& e) {
      if (s.kind == SpmdKind::kSeqDo || s.kind == SpmdKind::kIf) throw;
      throw Error(strformat("at source line %d (stmt kind %d): %s", s.loc.line,
                            static_cast<int>(s.kind), e.what()));
    }
  }

  void exec_inner(const SpmdStmt& s) {
    switch (s.kind) {
      case SpmdKind::kForall: exec_forall(s); break;
      case SpmdKind::kScalarAssign: exec_scalar_assign(s); break;
      case SpmdKind::kReduce: exec_reduce(s); break;
      case SpmdKind::kArrayIntrinsic: exec_array_intrinsic(s); break;
      case SpmdKind::kSeqDo: {
        const Index lo = eval(*s.do_lo).as_i();
        const Index hi = eval(*s.do_hi).as_i();
        const Index st = s.do_st ? eval(*s.do_st).as_i() : 1;
        // Hoisted loop-invariant communication: once, before the first
        // iteration.  Guarded on the trip count so a zero-trip loop stays
        // communication-free (and never evaluates hoisted subscripts the
        // original program would not have touched).  Collective-consistent:
        // the bounds are replicated scalars, so every processor agrees.
        if (trip_count(lo, hi, st) > 0) {
          for (const PreheaderAction& pa : s.preheader) {
            if (pa.action.eliminated) continue;
            run_hoisted_action(pa);
          }
        }
        for (Index v = lo; st > 0 ? v <= hi : v >= hi; v += st) {
          env_.scalars[s.do_var] = Value::integer(v);
          for (const SpmdStmtPtr& b : s.body) exec(*b);
        }
        break;
      }
      case SpmdKind::kIf: {
        if (eval(*s.mask).as_b()) {
          for (const SpmdStmtPtr& b : s.body) exec(*b);
        } else {
          for (const SpmdStmtPtr& b : s.else_body) exec(*b);
        }
        break;
      }
      case SpmdKind::kPrint: {
        if (proc_.rank() != 0) break;
        std::ostringstream os;
        bind_refs(s);
        for (const ExprPtr& e : s.items) {
          Value v = eval(*e);
          os << " " << (v.k == Value::K::kI
                            ? std::to_string(v.as_i())
                            : strformat("%g", v.as_d()));
        }
        std::lock_guard<std::mutex> lock(shared_.mu);
        shared_.result.printed.push_back(os.str());
        break;
      }
    }
  }

  void bind_refs(const SpmdStmt& s) {
    ref_of_.clear();
    for (const RefInfo& r : s.refs)
      if (r.expr != nullptr) ref_of_.emplace_back(r.expr, &r);
  }

  [[nodiscard]] const RefInfo* find_ref(const Expr* e) const {
    for (const auto& [expr, ref] : ref_of_)
      if (expr == e) return ref;
    return nullptr;
  }

  /// Planned fast path: one statement-cache lookup per FORALL finds this
  /// statement's entry — built on first use, re-bound in place when its
  /// key scalars changed — and runs it.  Returns false when both planners
  /// declined — the caller falls back to the tree walk.  Structural
  /// declines are remembered per statement so fallback statements skip
  /// the key compare entirely.
  bool try_planned_forall(const SpmdStmt& s) {
    if (opt_.skeleton || !opt_.exec_plans) return false;
    // Unnumbered statements (hand-built programs that bypassed the driver)
    // have no stable cache identity: run them on the tree walk.
    if (s.stmt_id < 0) return false;
    if (stmt_plans_.declined_structurally(s.stmt_id)) return false;
    exec::StatementPlan& entry = stmt_plans_.get(
        s, env_,
        [this, &s](std::span<const std::string> names) {
          return exec::build_statement_plan(s, env_, comm_plans_, names);
        },
        [this, &s](exec::StatementPlan& e,
                   std::span<const std::string> names) {
          return exec::rebind_statement_plan(s, env_, comm_plans_, names, e);
        });
    if (entry.plan) {
      run_regular(s, entry);
      return true;
    }
    if (entry.irregular) {
      run_irregular(s, *entry.irregular);
      return true;
    }
    return false;
  }

  /// Regular entry: pre-communication through the entry's compiled comm
  /// slots (bit-identical messages and charges to the tree walk's pre
  /// actions), then the loop nest.  The planner admits no schedule-based
  /// read buffers, so no guarded iteration ranges are needed here.
  void run_regular(const SpmdStmt& s, exec::StatementPlan& entry) {
    comm_plans_.run(s, entry.comm);
    // Backend ladder: native kernel when enabled and attachable, tape
    // interpreter otherwise.  Both return the same iteration count, so the
    // simulated cost charged below is identical either way.
    Index iters = -1;
    if (opt_.native_backend)
      iters = native_.try_run(*entry.plan, entry.native);
    if (iters < 0) iters = exec::run_exec_plan(*entry.plan, plan_scratch_);
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);
  }

  /// Irregular entry: the planned PARTI inspector/executor.  The plan
  /// replays the local iteration space through compiled subscript tapes;
  /// the needs enumeration (the inspector) only runs when the shared
  /// ScheduleCache misses, so steady-state DO trips skip the subscript
  /// walk entirely.  Schedules, gathers and scatters go through the exact
  /// same machinery as the tree walk — same keys, same messages, same
  /// simulated cost.
  void run_irregular(const SpmdStmt& s, const exec::IrregularPlan& plan) {
    // Non-schedule pre actions (ghost fills, broadcasts, slabs) run
    // through the tree walk's machinery in the tree walk's order: they
    // sort ahead of the schedule class, preserving source order among
    // themselves.
    for (const CommAction& a : s.pre)
      if (!a.eliminated && a.kind != CommKind::kGather) run_action(s, a, {});
    // Gathers in descending ref-id order (inner indirections first); the
    // inspector closure fires only on a schedule-cache miss.
    for (const exec::IrrRead& rd : plan.reads) {
      gather_via_schedule(s, *rd.action,
                          s.refs[static_cast<size_t>(rd.ref_id)],
                          [&](std::vector<Index>& needs) {
                            exec::run_irregular_needs(plan, rd, plan_scratch_,
                                                      needs);
                          });
    }
    Index iters = 0;
    std::vector<double> values;
    std::vector<Index> dest_ids;
    if (plan.lhs_buffered)
      iters = exec::run_irregular_scatter(plan, plan_scratch_, values,
                                          dest_ids);
    else
      iters = exec::run_exec_plan(plan.core, plan_scratch_);
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);
    run_post_actions(s, values, dest_ids);
  }

  /// Collective zero-trip test: FORALL bounds are replicated scalar
  /// expressions, so every processor computes the same answer.  A
  /// zero-trip statement has nothing to inspect — the paper's
  /// inspector/executor (and our planned paths) must not build empty
  /// schedules or exchange empty slabs for it.
  bool globally_zero_trip(const SpmdStmt& s) {
    for (const IndexPartition& ip : s.indices) {
      const Index lo = eval(*ip.lo).as_i();
      const Index hi = eval(*ip.hi).as_i();
      const Index st = ip.st ? eval(*ip.st).as_i() : 1;
      if (st != 0 && exec::trip_count(lo, hi, st) == 0) return true;
    }
    return false;
  }

  void exec_forall(const SpmdStmt& s) {
    bind_refs(s);
    // The destination's contents are about to change: advance its write
    // version so schedule keys derived from it (when it doubles as an
    // indirection array) go stale.  Bumped before key construction and on
    // every processor alike, so cached lookups stay collective.
    if (!s.refs.empty()) env_.bump_version(s.refs[0].array);
    if (globally_zero_trip(s)) return;
    if (try_planned_forall(s)) return;

    auto my_ranges = ranges_for_coords(s, gc_.my_coords());

    // Pre-communication: collective — every processor participates even
    // when guarded out of the local loop.
    run_pre_actions(s, my_ranges);

    Index iters = 0;
    std::vector<double> values;   // buffered lhs values
    std::vector<Index> dest_ids;  // buffered lhs destinations
    const bool need_iteration =
        s.lhs_buffered || stmt_has_iterbuf(s) || !opt_.skeleton;

    if (my_ranges) {
      if (!need_iteration) {
        // Skeleton fast path: bulk cost, no per-element interpretation.
        iters = 1;
        for (const VarRange& r : *my_ranges) iters *= r.count;
        if (iters < 0) iters = 0;
      } else {
        iterate(s, *my_ranges, [&]() {
          ++iters;
          if (s.mask && !opt_.skeleton && !eval(*s.mask).as_b()) {
            if (s.lhs_buffered) {
              // Keep slots aligned with iteration order for executors.
              eval_subs(*s.lhs, gidx_scratch_);
              dest_ids.push_back(flat_global_of(s.refs[0].array, gidx_scratch_));
              values.push_back(read_back(s, gidx_scratch_));
            }
            return;
          }
          const Value v =
              opt_.skeleton ? Value::real(0.0) : eval(*s.rhs);
          if (s.lhs_buffered) {
            eval_subs(*s.lhs, gidx_scratch_);
            dest_ids.push_back(flat_global_of(s.refs[0].array, gidx_scratch_));
            values.push_back(v.as_d());
          } else {
            eval_subs(*s.lhs, gidx_scratch_);
            env_.write_element(s.refs[0].array, gidx_scratch_, v);
          }
        });
      }
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);

    run_post_actions(s, values, dest_ids);
  }

  /// Re-read the current lhs element (masked iterations keep old values in
  /// the buffered-write path).
  double read_back(const SpmdStmt& s, const std::vector<Index>& g) {
    const std::string& name = s.refs[0].array;
    // The element may live remotely for buffered writes; a masked slot will
    // simply rewrite whatever value the owner already has, so send 0 when
    // not locally available (the combine overwrite is benign only when the
    // owner re-receives its own value; to stay safe, read ghost when owned).
    auto& dad = env_.dads.at(name);
    std::vector<int> coords = gc_.my_coords();
    bool owned = true;
    for (int d = 0; d < dad.rank(); ++d) {
      const rts::DimMap& m = dad.dim(d);
      if (m.kind == DistKind::kCollapsed) continue;
      owned = owned && dad.owner_coord(d, g[static_cast<size_t>(d)]) ==
                           coords[static_cast<size_t>(m.grid_dim)];
    }
    if (!owned) return 0.0;
    return env_.read_element(name, g, false).as_d();
  }

  [[nodiscard]] bool stmt_has_iterbuf(const SpmdStmt& s) const {
    for (const CommAction& a : s.pre) {
      if (a.eliminated) continue;
      if (a.kind == CommKind::kPrecompRead || a.kind == CommKind::kGather ||
          a.kind == CommKind::kTemporaryShift)
        return true;
    }
    return false;
  }

  Index flat_global_of(const std::string& name, std::span<const Index> g) {
    const Dad& dad = env_.dads.at(name);
    Index flat = 0;
    for (int d = 0; d < dad.rank(); ++d) {
      const Index gd = g[static_cast<size_t>(d)];
      if (gd < 0 || gd >= dad.extent(d)) {
        const long long lo = env_.lower_of(name, d);
        throw RtsError(strformat(
            "subscript %lld of %s is out of range [%lld, %lld] in dimension "
            "%d",
            static_cast<long long>(gd) + lo, name.c_str(), lo,
            lo + static_cast<long long>(dad.extent(d)) - 1, d + 1));
      }
      flat = flat * dad.extent(d) + gd;
    }
    return flat;
  }

  // --- communication actions --------------------------------------------------
  void run_pre_actions(const SpmdStmt& s,
                       const std::optional<std::vector<VarRange>>& my_ranges) {
    // Dependency order: ghost fills / broadcasts / slabs first, then
    // iteration buffers by descending ref id (inner indirection arrays
    // resolve before the references that subscript with them).
    std::vector<const CommAction*> order;
    for (const CommAction& a : s.pre)
      if (!a.eliminated) order.push_back(&a);
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
    for (const CommAction* a : order) run_action(s, *a, my_ranges);
  }

  void run_action(const SpmdStmt& s, const CommAction& a,
                  const std::optional<std::vector<VarRange>>& my_ranges) {
    const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
    switch (a.kind) {
      case CommKind::kOverlapShift:
        run_overlap_shift(a, ref);
        break;
      case CommKind::kBcastElement:
        run_bcast_element(a, ref);
        break;
      case CommKind::kMulticast:
      case CommKind::kTransfer:
        run_slab_action(s, a, ref);
        break;
      case CommKind::kPrecompRead:
      case CommKind::kTemporaryShift:
      case CommKind::kGather:
        run_read_buffer_action(s, a, ref, my_ranges);
        break;
      default:
        throw RtsError("unexpected pre-action");
    }
  }

  /// Preheader actions are context-free by construction (comm_opt hoists
  /// only overlap shifts and element broadcasts, which carry their own
  /// RefInfo clone).
  void run_hoisted_action(const PreheaderAction& pa) {
    switch (pa.action.kind) {
      case CommKind::kOverlapShift:
        run_overlap_shift(pa.action, pa.ref);
        break;
      case CommKind::kBcastElement:
        run_bcast_element(pa.action, pa.ref);
        break;
      default:
        throw RtsError("unexpected preheader action");
    }
  }

  void run_overlap_shift(const CommAction& a, const RefInfo& ref) {
    const Symbol& sm = env_.sym(ref.array);
    if (sm.type == ast::BaseType::kReal)
      rts::overlap_shift(gc_, env_.dar.at(ref.array), a.array_dim,
                         static_cast<int>(a.shift_amount));
    else if (sm.type == ast::BaseType::kInteger)
      rts::overlap_shift(gc_, env_.iar.at(ref.array), a.array_dim,
                         static_cast<int>(a.shift_amount));
    else
      rts::overlap_shift(gc_, env_.lar.at(ref.array), a.array_dim,
                         static_cast<int>(a.shift_amount));
  }

  /// Owner (canonical line) broadcasts one element to all.
  void run_bcast_element(const CommAction& a, const RefInfo& ref) {
    const Dad& dad = env_.dads.at(ref.array);
    std::vector<Index> g(ref.subs.size());
    for (size_t d = 0; d < ref.subs.size(); ++d)
      g[d] = eval(*ref.expr->args[d]).as_i() -
             env_.lower_of(ref.array, static_cast<int>(d));
    const std::vector<int> zeros(static_cast<size_t>(c_.mapping.grid.ndims()),
                                 0);
    const int root = dad.owner_logical(g, zeros);
    std::vector<double> data;
    if (gc_.my_logical() == root)
      data.push_back(env_.read_element(ref.array, g, false).as_d());
    gc_.bcast_all(root, data);
    Buf& b = env_.bufs[static_cast<size_t>(a.buffer_id)];
    b.scalar = env_.sym(ref.array).type == ast::BaseType::kInteger
                   ? Value::integer(static_cast<long long>(data.at(0)))
                   : Value::real(data.at(0));
  }

  /// Multicast / transfer: the owning grid line packs the slab the
  /// iterating processors need and sends it along the grid (tree broadcast
  /// for multicast, line-to-line copy for transfer).
  void run_slab_action(const SpmdStmt& s, const CommAction& a,
                       const RefInfo& ref) {
    const Dad& dad = env_.dads.at(ref.array);
    // Am I on the source line for every communicated dimension?
    bool on_root = true;
    std::vector<std::pair<int, int>> comm_dims;  // (grid_dim, root coord)
    for (const auto& [d, sub] : a.root_subs) {
      const Index val =
          eval(*affine_to_expr(sub)).as_i() - env_.lower_of(ref.array, d);
      const int owner = dad.owner_coord(d, val);
      const int gd = dad.dim(d).grid_dim;
      comm_dims.emplace_back(gd, owner);
      on_root = on_root && gc_.coord(gd) == owner;
    }

    // The slab covers the iterating ranges of the slab variables; those
    // ranges are identical on the source line and the destination(s).
    std::vector<VarRange> slab_ranges;
    std::vector<std::string> slab_vars = ref.slab_vars;
    {
      auto all = ranges_for_coords_no_guards(s, gc_.my_coords());
      for (const std::string& v : slab_vars)
        for (size_t k = 0; k < s.indices.size(); ++k)
          if (s.indices[k].var == v) slab_ranges.push_back(all[k]);
    }
    Index slab_size = 1;
    for (const VarRange& r : slab_ranges) slab_size *= r.count;

    std::vector<double> slab;
    if (on_root && slab_size > 0) {
      slab.reserve(static_cast<size_t>(slab_size));
      pack_slab(ref, slab_vars, slab_ranges, 0, slab);
    }

    if (a.kind == CommKind::kMulticast) {
      for (const auto& [gd, owner] : comm_dims) gc_.multicast(gd, owner, slab);
    } else {
      // transfer: source line -> destination line given by the lhs pair.
      for (size_t k = 0; k < comm_dims.size(); ++k) {
        const auto& [gd, owner] = comm_dims[k];
        int dest_coord = owner;
        if (k < a.dest_subs.size()) {
          const auto& [ld, dsub] = a.dest_subs[k];
          const Dad& ldad = env_.dads.at(s.refs[0].array);
          const Index dval = eval(*affine_to_expr(dsub)).as_i() -
                             env_.lower_of(s.refs[0].array, ld);
          dest_coord = ldad.owner_coord(ld, dval);
        }
        std::vector<double> out;
        const bool received =
            gc_.transfer(gd, owner, dest_coord, std::span<const double>(slab),
                         out);
        if (received) slab = std::move(out);
        else if (gc_.coord(gd) != owner) slab.clear();
      }
    }
    Buf& b = env_.bufs[static_cast<size_t>(a.buffer_id)];
    b.dvals = std::move(slab);
  }

  /// Recursively pack the slab in slab-variable order (last var fastest,
  /// matching the SlabBuf read index).
  void pack_slab(const RefInfo& ref, const std::vector<std::string>& vars,
                 const std::vector<VarRange>& ranges, size_t k,
                 std::vector<double>& out) {
    if (k == vars.size()) {
      eval_subs(*ref.expr, gidx_scratch_);
      out.push_back(env_.read_element(ref.array, gidx_scratch_, true).as_d());
      return;
    }
    VarState st;
    st.count = ranges[k].count;
    for (Index i = 0; i < ranges[k].count; ++i) {
      st.value = ranges[k].value_at(i);
      st.counter = i;
      frame_[vars[k]] = st.value;
      var_state_[vars[k]] = st;
      pack_slab(ref, vars, ranges, k + 1, out);
    }
    frame_.erase(vars[k]);
    var_state_.erase(vars[k]);
  }

  /// Schedule-based read buffers (precomp_read / temporary_shift / gather),
  /// tree-walk entry: needs enumerate by subscript-tree evaluation over
  /// the guarded iteration ranges.
  void run_read_buffer_action(
      const SpmdStmt& s, const CommAction& a, const RefInfo& ref,
      const std::optional<std::vector<VarRange>>& my_ranges) {
    gather_via_schedule(s, a, ref, [&](std::vector<Index>& needs) {
      if (!my_ranges) return;
      iterate(s, *my_ranges, [&]() {
        eval_subs(*ref.expr, gidx_scratch_);
        needs.push_back(flat_global_of(ref.array, gidx_scratch_));
      });
    });
  }

  /// Build (or hit) the schedule for one read action and run the gather
  /// into the action's buffer.  `my_needs_fn` supplies this processor's
  /// needs in iteration order; it is only invoked on a cache miss — the
  /// inspector/executor split both execution paths share.
  void gather_via_schedule(
      const SpmdStmt& s, const CommAction& a, const RefInfo& ref,
      const std::function<void(std::vector<Index>&)>& my_needs_fn) {
    const Dad& dad = env_.dads.at(ref.array);
    parti::SchedulePtr sched;
    const std::string key = runtime_key(s, a);
    auto build = [&]() -> parti::SchedulePtr {
      ++schedules_built_;
      // My needs, in iteration order (the inspector).
      std::vector<Index> needs;
      my_needs_fn(needs);
      if (a.kind == CommKind::kGather) return parti::schedule2(gc_, dad, needs);
      // schedule1: compute any peer's needs locally.
      auto needs_of_peer = [&](int q, std::vector<Index>& out) {
        const std::vector<int> qc = c_.mapping.grid.coords_of(q);
        auto qr = ranges_for_coords(s, qc);
        if (!qr) return;
        iterate(s, *qr, [&]() {
          eval_subs(*ref.expr, gidx_scratch_);
          out.push_back(flat_global_of(ref.array, gidx_scratch_));
        });
      };
      return parti::schedule1_read(gc_, dad, needs, needs_of_peer);
    };
    if (!key.empty() && opt_.schedule_cache) {
      std::vector<std::string> deps = schedule_dep_arrays(s, a);
      deps.push_back(ref.array);
      sched = cache_.get_or_build(key, deps, build);
    } else {
      sched = build();
    }

    Buf& b = env_.bufs[static_cast<size_t>(a.buffer_id)];
    const Symbol& sm = env_.sym(ref.array);
    // Compiled executor first (pre-resolved offsets, pooled payloads);
    // falls back to the generic executor when the entry declines.  Both
    // produce identical buffers, messages and charges.
    const bool compiled = comm_plans_.execute_read(sched, ref.array, b);
    if (sm.type == ast::BaseType::kInteger) {
      if (!compiled)
        b.ivals = parti::execute_read(gc_, *sched, env_.iar.at(ref.array));
      gather_bytes_ +=
          sched->remote_read_bytes(gc_.my_logical(), sizeof(long long));
    } else {
      if (!compiled)
        b.dvals = parti::execute_read(gc_, *sched, env_.dar.at(ref.array));
      gather_bytes_ +=
          sched->remote_read_bytes(gc_.my_logical(), sizeof(double));
    }
  }

  /// Arrays whose *values* feed the needs/destination computation of a
  /// schedule action: indirection arrays appearing in the reference's
  /// subscripts or the statement's bounds.  These are the schedule's data
  /// dependencies — the send/receive lists go stale when their contents
  /// change, even though the DAD signature does not.
  std::vector<std::string> schedule_dep_arrays(const SpmdStmt& s,
                                               const CommAction& a) {
    std::set<std::string> deps;
    auto walk = [&](const Expr& e, auto&& self) -> void {
      if (e.kind == ExprKind::kArrayRef && c_.sema.symbols.count(e.name) &&
          c_.sema.symbols.at(e.name).is_array())
        deps.insert(e.name);
      for (const ExprPtr& x : e.args)
        if (x) self(*x, self);
    };
    for (const IndexPartition& ip : s.indices) {
      walk(*ip.lo, walk);
      walk(*ip.hi, walk);
      if (ip.st) walk(*ip.st, walk);
    }
    const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
    for (const ExprPtr& x : ref.expr->args)
      if (x) walk(*x, walk);
    return {deps.begin(), deps.end()};
  }

  /// Runtime schedule key: static key + evaluated scalars it references +
  /// the write-versions of every indirection array the needs computation
  /// reads (a write to U between trips of `A(U(I))` must rebuild — the
  /// versions are bumped identically on every processor, so the rebuild
  /// stays collective).
  std::string runtime_key(const SpmdStmt& s, const CommAction& a) {
    if (a.sched_key.empty()) return {};
    std::ostringstream os;
    os << a.sched_key << "@";
    // Append the values of every scalar variable used in bounds/subscripts.
    std::set<std::string> names;
    auto walk = [&](const Expr& e, auto&& self) -> void {
      if (e.kind == ExprKind::kVarRef && env_.scalars.count(e.name))
        names.insert(e.name);
      for (const ExprPtr& x : e.args)
        if (x) self(*x, self);
    };
    for (const IndexPartition& ip : s.indices) {
      walk(*ip.lo, walk);
      walk(*ip.hi, walk);
      if (ip.st) walk(*ip.st, walk);
    }
    const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
    for (const ExprPtr& x : ref.expr->args)
      if (x) walk(*x, walk);
    // Exact values: a REAL scalar keys by its bit pattern, so 1.2 and 1.4
    // (both 1 as integers) never share a schedule.
    for (const std::string& nm : names) {
      const exec::Value& v = env_.scalars.at(nm);
      os << nm << "=";
      if (v.k == exec::Value::K::kD)
        os << "r" << std::hex << std::bit_cast<std::uint64_t>(v.d) << std::dec;
      else
        os << v.as_i();
      os << ";";
    }
    for (const std::string& nm : schedule_dep_arrays(s, a))
      os << "v:" << nm << "=" << env_.version(nm) << ";";
    return os.str();
  }

  // --- post actions ----------------------------------------------------------
  void run_post_actions(const SpmdStmt& s, const std::vector<double>& values,
                        const std::vector<Index>& dest_ids) {
    for (const CommAction& a : s.post) {
      if (a.eliminated) continue;
      const RefInfo& lhs = s.refs[0];
      const Dad& dad = env_.dads.at(lhs.array);
      switch (a.kind) {
        case CommKind::kConcatWrite: {
          // Tree-combined concatenation, run-length encoded: iteration
          // spaces are mostly contiguous, so destinations compress to a few
          // (start, count) runs and the payload is ~one double per value —
          // the same wire cost as the hand-written broadcast of the data.
          // Block layout: [nruns, (start, count)*, values...] per
          // contributor; self-delimiting so tree-combining order is free.
          std::vector<double> blk;
          {
            std::vector<std::pair<Index, Index>> runs;
            for (size_t k = 0; k < dest_ids.size(); ++k) {
              if (!runs.empty() &&
                  runs.back().first + runs.back().second == dest_ids[k]) {
                ++runs.back().second;
              } else {
                runs.emplace_back(dest_ids[k], 1);
              }
            }
            blk.reserve(1 + 2 * runs.size() + values.size());
            blk.push_back(static_cast<double>(runs.size()));
            for (const auto& [start, count] : runs) {
              blk.push_back(static_cast<double>(start));
              blk.push_back(static_cast<double>(count));
            }
            blk.insert(blk.end(), values.begin(), values.end());
            if (values.empty()) blk.clear();  // nothing to contribute
          }
          gc_.concat_tree<double>(blk);
          // Resolve the destination's typed storage once per action; each
          // element keeps write_element's as_d/as_i/as_b conversion.
          rts::DistArray<double>* dst_d = nullptr;
          rts::DistArray<long long>* dst_i = nullptr;
          rts::DistArray<unsigned char>* dst_l = nullptr;
          switch (env_.sym(lhs.array).type) {
            case ast::BaseType::kReal: dst_d = &env_.dar.at(lhs.array); break;
            case ast::BaseType::kInteger: dst_i = &env_.iar.at(lhs.array); break;
            case ast::BaseType::kLogical: dst_l = &env_.lar.at(lhs.array); break;
          }
          std::vector<Index> g;
          size_t pos = 0;
          while (pos < blk.size()) {
            const size_t nruns = static_cast<size_t>(blk[pos++]);
            size_t vpos = pos + 2 * nruns;  // values follow the run table
            for (size_t rr = 0; rr < nruns; ++rr, pos += 2) {
              const Index start = static_cast<Index>(blk[pos]);
              const Index count = static_cast<Index>(blk[pos + 1]);
              for (Index k = 0; k < count; ++k) {
                rts::unflatten_global(dad, start + k, g);
                const Value v = Value::real(blk[vpos++]);
                if (dst_d != nullptr)
                  dst_d->at_global(g) = v.as_d();
                else if (dst_i != nullptr)
                  dst_i->at_global(g) = v.as_i();
                else
                  dst_l->at_global(g) =
                      static_cast<unsigned char>(v.as_b() ? 1 : 0);
              }
            }
            pos = vpos;
          }
          break;
        }
        case CommKind::kPostcompWrite:
        case CommKind::kScatter: {
          parti::SchedulePtr sched;
          const std::string key = runtime_key(s, a);
          auto build = [&]() -> parti::SchedulePtr {
            ++schedules_built_;
            if (a.kind == CommKind::kScatter)
              return parti::schedule3(gc_, dad, dest_ids);
            auto dests_of_peer = [&](int q, std::vector<Index>& out) {
              const std::vector<int> qc = c_.mapping.grid.coords_of(q);
              auto qr = ranges_for_coords(s, qc);
              if (!qr) return;
              iterate(s, *qr, [&]() {
                eval_subs(*s.lhs, gidx_scratch_);
                out.push_back(flat_global_of(lhs.array, gidx_scratch_));
              });
            };
            return parti::schedule1_write(gc_, dad, dest_ids, dests_of_peer);
          };
          if (!key.empty() && opt_.schedule_cache) {
            std::vector<std::string> deps = schedule_dep_arrays(s, a);
            deps.push_back(lhs.array);
            sched = cache_.get_or_build(key, deps, build);
          } else {
            sched = build();
          }
          const Symbol& sm = env_.sym(lhs.array);
          const bool compiled = comm_plans_.execute_write(
              sched, lhs.array, std::span<const double>(values));
          if (sm.type == ast::BaseType::kInteger) {
            if (!compiled) {
              std::vector<long long> iv(values.size());
              for (size_t k = 0; k < values.size(); ++k)
                iv[k] = static_cast<long long>(values[k]);
              parti::execute_write(gc_, *sched, env_.iar.at(lhs.array),
                                   std::span<const long long>(iv));
            }
            scatter_bytes_ +=
                sched->remote_write_bytes(gc_.my_logical(), sizeof(long long));
          } else {
            if (!compiled)
              parti::execute_write(gc_, *sched, env_.dar.at(lhs.array),
                                   std::span<const double>(values));
            scatter_bytes_ +=
                sched->remote_write_bytes(gc_.my_logical(), sizeof(double));
          }
          break;
        }
        default:
          throw RtsError("unexpected post-action");
      }
    }
  }

  // --- scalar assignment / reduction ------------------------------------------
  void exec_scalar_assign(const SpmdStmt& s) {
    bind_refs(s);
    std::optional<std::vector<VarRange>> none;
    for (const CommAction& a : s.pre)
      if (!a.eliminated) run_action(s, a, none);
    const Value v = eval(*s.rhs);
    const Symbol& sm = env_.sym(s.target);
    env_.scalars[s.target] = sm.type == ast::BaseType::kInteger
                                 ? Value::integer(v.as_i())
                                 : (sm.type == ast::BaseType::kLogical
                                        ? Value::logical(v.as_b())
                                        : Value::real(v.as_d()));
    proc_.charge_flops(count_scalar_flops(*s.rhs));
  }

  static double count_scalar_flops(const Expr& e) {
    double n = e.kind == ExprKind::kBinOp ? 1 : 0;
    for (const ExprPtr& a : e.args)
      if (a) n += count_scalar_flops(*a);
    return n;
  }

  void exec_reduce(const SpmdStmt& s) {
    bind_refs(s);
    auto my_ranges = ranges_for_coords(s, gc_.my_coords());
    std::optional<std::vector<VarRange>> ranges_for_actions = my_ranges;
    for (const CommAction& a : s.pre)
      if (!a.eliminated) run_action(s, a, ranges_for_actions);

    const std::string& op = s.reduce_op;
    const bool want_loc = op == "MAXLOC" || op == "MINLOC";

    double acc;
    if (op == "SUM" || op == "COUNT") acc = 0;
    else if (op == "PRODUCT") acc = 1;
    else if (op == "MAXVAL" || op == "MAXLOC") acc = -1e300;
    else if (op == "MINVAL" || op == "MINLOC") acc = 1e300;
    else if (op == "ANY") acc = 0;
    else if (op == "ALL") acc = 1;
    else throw RtsError("unsupported reduction " + op);
    Index loc = 0;
    bool have_loc = false;

    Index iters = 0;
    if (my_ranges) {
      if (opt_.skeleton) {
        Index total = 1;
        for (const VarRange& r : *my_ranges) total *= r.count;
        iters = std::max<Index>(total, 0);
        if (want_loc && !(*my_ranges).empty() && (*my_ranges)[0].count > 0) {
          loc = (*my_ranges)[0].val0;
          have_loc = true;
        }
      } else {
        // MAXLOC/MINLOC stay well-defined even when every value is NaN
        // (comparisons all false): fall back to the first index.
        if (want_loc && !(*my_ranges).empty() && (*my_ranges)[0].count > 0) {
          loc = (*my_ranges)[0].val0;
          have_loc = true;
        }
        iterate(s, *my_ranges, [&]() {
          ++iters;
          if (s.mask && !eval(*s.mask).as_b()) return;
          const double v = eval(*s.rhs).as_d();
          if (op == "SUM") acc += v;
          else if (op == "PRODUCT") acc *= v;
          else if (op == "COUNT") acc += v != 0 ? 1 : 0;
          else if (op == "ANY") acc = (acc != 0 || v != 0) ? 1 : 0;
          else if (op == "ALL") acc = (acc != 0 && v != 0) ? 1 : 0;
          else if (op == "MAXVAL" || op == "MAXLOC") {
            if (v > acc) {
              acc = v;
              loc = frame_.at(s.indices[0].var);
              have_loc = true;
            }
          } else if (op == "MINVAL" || op == "MINLOC") {
            if (v < acc) {
              acc = v;
              loc = frame_.at(s.indices[0].var);
              have_loc = true;
            }
          }
        });
      }
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);

    // Reduction tree (paper Table 3 category 2).
    if (want_loc) {
      struct VL {
        double v;
        Index loc;
        unsigned char valid;
      };
      std::vector<VL> box{
          {acc, loc, static_cast<unsigned char>(have_loc ? 1 : 0)}};
      const bool mx = op == "MAXLOC";
      gc_.allreduce(box, [mx](const VL& x, const VL& y) {
        if (!x.valid) return y;
        if (!y.valid) return x;
        if (mx ? (x.v > y.v) : (x.v < y.v)) return x;
        if (mx ? (y.v > x.v) : (y.v < x.v)) return y;
        return x.loc <= y.loc ? x : y;
      });
      env_.scalars[s.target] = Value::integer(box[0].valid ? box[0].loc : 0);
      return;
    }
    std::vector<double> box{acc};
    if (op == "SUM" || op == "COUNT")
      gc_.allreduce(box, [](double x, double y) { return x + y; });
    else if (op == "PRODUCT")
      gc_.allreduce(box, [](double x, double y) { return x * y; });
    else if (op == "MAXVAL")
      gc_.allreduce(box, [](double x, double y) { return std::max(x, y); });
    else if (op == "MINVAL")
      gc_.allreduce(box, [](double x, double y) { return std::min(x, y); });
    else if (op == "ANY")
      gc_.allreduce(box, [](double x, double y) { return x != 0 || y != 0 ? 1.0 : 0.0; });
    else if (op == "ALL")
      gc_.allreduce(box, [](double x, double y) { return x != 0 && y != 0 ? 1.0 : 0.0; });
    const Symbol& sm = env_.sym(s.target);
    env_.scalars[s.target] = sm.type == ast::BaseType::kInteger
                                 ? Value::integer(static_cast<long long>(box[0]))
                                 : Value::real(box[0]);
  }

  // --- whole-array intrinsics ---------------------------------------------------
  void exec_array_intrinsic(const SpmdStmt& s) {
    auto array_arg = [&](size_t k) -> const std::string& {
      require(k < s.call_args.size() &&
                  s.call_args[k]->kind == ExprKind::kVarRef,
              "array intrinsic argument is a whole array name");
      return s.call_args[k]->name;
    };
    auto int_arg = [&](size_t k) { return eval(*s.call_args[k]).as_i(); };

    DistArray<double>* dest = &env_.dar.at(s.dest_array);
    DistArray<double> result = [&]() -> DistArray<double> {
      if (s.intrinsic == "CSHIFT") {
        const Index sh = int_arg(1);
        const int dim =
            s.call_args.size() > 2 ? static_cast<int>(int_arg(2)) - 1 : 0;
        return rts::cshift(gc_, env_.dar.at(array_arg(0)), dim, sh);
      }
      if (s.intrinsic == "EOSHIFT") {
        const Index sh = int_arg(1);
        const double boundary =
            s.call_args.size() > 2 ? eval(*s.call_args[2]).as_d() : 0.0;
        const int dim =
            s.call_args.size() > 3 ? static_cast<int>(int_arg(3)) - 1 : 0;
        return rts::eoshift(gc_, env_.dar.at(array_arg(0)), dim, sh, boundary);
      }
      if (s.intrinsic == "SPREAD") {
        const int dim = static_cast<int>(int_arg(1)) - 1;
        const Index nc = int_arg(2);
        return rts::spread(gc_, env_.dar.at(array_arg(0)), dim, nc);
      }
      if (s.intrinsic == "TRANSPOSE")
        return rts::transpose(gc_, env_.dar.at(array_arg(0)));
      if (s.intrinsic == "MATMUL")
        return rts::matmul_dist(gc_, env_.dar.at(array_arg(0)),
                                env_.dar.at(array_arg(1)));
      if (s.intrinsic == "RESHAPE")
        return rts::reshape(gc_, env_.dar.at(array_arg(0)), dest->dad());
      if (s.intrinsic == "PACK")
        return rts::pack(gc_, env_.dar.at(array_arg(0)),
                         env_.lar.at(array_arg(1)), dest->dad());
      if (s.intrinsic == "UNPACK")
        return rts::unpack(gc_, env_.dar.at(array_arg(0)),
                           env_.lar.at(array_arg(1)),
                           env_.dar.at(array_arg(2)));
      throw RtsError("unsupported array intrinsic " + s.intrinsic);
    }();

    // Route the result into the destination's own mapping.
    if (result.dad().same_mapping(dest->dad())) {
      result.for_each_owned([&](const std::vector<Index>& g, double& v) {
        dest->at_global(g) = v;
      });
    } else {
      DistArray<double> re = rts::redistribute(gc_, result, dest->dad());
      re.for_each_owned([&](const std::vector<Index>& g, double& v) {
        dest->at_global(g) = v;
      });
    }
    // Redistribution/remap contract (docs/EXECUTION.md): any operation
    // that may replace an array's descriptor or storage invalidates the
    // plans bound to it — and the PARTI schedules whose send/receive lists
    // were derived from it, whether as the data array or as an indirection
    // array feeding another statement's subscripts.
    stmt_plans_.invalidate_array(s.dest_array);
    cache_.invalidate_array(s.dest_array);
    env_.bump_version(s.dest_array);
  }

  // --- result collection -----------------------------------------------------
  void store_cache_stats() {
    shared_.result.schedule_hits = cache_.hits();
    shared_.result.schedule_misses = cache_.misses();
    shared_.result.schedule_invalidations = cache_.invalidations();
    shared_.result.shared_schedule_hits = cache_.shared_hits();
    shared_.result.schedules_built = schedules_built_;
    shared_.result.gather_bytes = gather_bytes_;
    shared_.result.scatter_bytes = scatter_bytes_;
    // Statement-cache counters by entry kind.  Every regular entry owns
    // its comm slots, so its hits/misses/drops are also comm-plan ones.
    const exec::StatementPlanStats& ps = stmt_plans_.stats();
    shared_.result.shared_plan_hits = ps.shared_hits;
    shared_.result.plan_hits = ps.regular.hits;
    shared_.result.plan_rebinds = ps.regular.rebinds;
    shared_.result.plan_misses = ps.regular.misses;
    shared_.result.plan_invalidations = ps.regular.invalidations;
    shared_.result.plan_entries = static_cast<int>(stmt_plans_.size());
    shared_.result.irregular_hits = ps.irregular.hits;
    shared_.result.irregular_rebinds = ps.irregular.rebinds;
    shared_.result.irregular_misses = ps.irregular.misses;
    shared_.result.irregular_invalidations = ps.irregular.invalidations;
    const native::NodeStats& ns = native_.stats();
    shared_.result.native_runs = ns.runs;
    shared_.result.native_attaches = ns.attaches;
    shared_.result.native_fallbacks = ns.fallbacks;
    shared_.result.native_invalidations = ps.native_invalidations;
    const exec::CommPlanStats& cs = comm_plans_.stats();
    shared_.result.comm_plan_hits = ps.regular.hits + cs.hits;
    shared_.result.comm_plan_misses = ps.regular.misses + cs.misses;
    shared_.result.comm_plan_invalidations =
        ps.regular.invalidations + cs.invalidations;
    shared_.result.comm_plan_fast_bytes = cs.bytes_memcpy_fast_path;
    shared_.result.pool_reuses = proc_.stats().pool_reuses;
  }

  void collect_results() {
    if (opt_.skeleton) {
      if (proc_.rank() == 0) {
        std::lock_guard<std::mutex> lock(shared_.mu);
        for (const auto& [name, v] : env_.scalars)
          shared_.result.scalars[name] = v.as_d();
        store_cache_stats();
      }
      return;
    }
    // Collective gathers must run on every processor; only the logical
    // root receives (this runs after the clock/stats snapshot, so it is
    // instrumentation, not simulated traffic — the root-only gather keeps
    // it off the host-wall profile too).
    for (auto& [name, arr] : env_.dar) {
      auto full = arr.gather_global_root(gc_);
      if (gc_.my_logical() == 0) {
        std::lock_guard<std::mutex> lock(shared_.mu);
        shared_.result.real_arrays[name] = std::move(full);
      }
    }
    for (auto& [name, arr] : env_.iar) {
      auto full = arr.gather_global_root(gc_);
      if (gc_.my_logical() == 0) {
        std::lock_guard<std::mutex> lock(shared_.mu);
        shared_.result.int_arrays[name] = std::move(full);
      }
    }
    if (proc_.rank() == 0) {
      std::lock_guard<std::mutex> lock(shared_.mu);
      for (const auto& [name, v] : env_.scalars)
        shared_.result.scalars[name] = v.as_d();
      store_cache_stats();
    }
  }

  const Compiled& c_;
  machine::Proc& proc_;
  comm::GridComm gc_;
  const Init& init_;
  RunOptions opt_;
  Shared& shared_;

  exec::Env env_;
  exec::CommPlans comm_plans_;
  exec::StatementPlanCache stmt_plans_;
  exec::PlanScratch plan_scratch_;
  native::NativeExec native_;
  parti::ScheduleCache cache_;

  std::map<std::string, Index> frame_;
  std::map<std::string, VarState> var_state_;
  long long schedules_built_ = 0;
  long long gather_bytes_ = 0;
  long long scatter_bytes_ = 0;
  Index flat_iter_ = 0;
  /// Flat expr→ref binding for the current statement.  A statement has a
  /// handful of refs, so a linear pointer scan beats a node-based map — and
  /// the reused capacity keeps warm trips allocation-free.
  std::vector<std::pair<const Expr*, const RefInfo*>> ref_of_;
  std::vector<Index> gidx_scratch_;
};

}  // namespace

ProgramResult run_compiled(const compile::Compiled& compiled,
                           machine::SimMachine& machine, const Init& init,
                           const RunOptions& options) {
  require(machine.nprocs() == compiled.mapping.grid.size(),
          "machine size matches the compiled processor grid");
  Shared shared;
  shared.clock_snapshot.assign(static_cast<size_t>(machine.nprocs()), 0.0);
  shared.stats_snapshot.assign(static_cast<size_t>(machine.nprocs()),
                               machine::ProcStats{});
  // The JIT cache is process-global; report this run's share as deltas
  // (the first run's share includes the one-time toolchain probe).
  const native::JitStats jit0 = native::NativeCache::instance().stats();
  shared.native =
      options.native_backend && native::NativeCache::instance().available();
  machine::RunResult mr = machine.run([&](machine::Proc& proc) {
    Node node(compiled, proc, init, options, shared);
    node.run();
  });
  const native::JitStats jit1 = native::NativeCache::instance().stats();
  // Install this run's staged schedules into the shared store (complete
  // per-rank sets only; see SharedScheduleSession::finish).
  if (options.schedule_session != nullptr) options.schedule_session->finish();
  shared.result.native_cache_hits = jit1.cache_hits - jit0.cache_hits;
  shared.result.native_compiles = jit1.compiles - jit0.compiles;
  shared.result.native_dlopens = jit1.dlopens - jit0.dlopens;
  shared.result.native_compile_ms = jit1.compile_ms - jit0.compile_ms;
  // Report program-only timing/traffic (excluding result gathering).
  mr.proc_times = shared.clock_snapshot;
  mr.stats = shared.stats_snapshot;
  mr.exec_time = 0.0;
  for (double t : mr.proc_times) mr.exec_time = std::max(mr.exec_time, t);
  shared.result.machine = std::move(mr);
  return std::move(shared.result);
}

}  // namespace f90d::interp
