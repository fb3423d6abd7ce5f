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
#include "rts/shift_ops.hpp"

namespace f90d::interp {

using namespace compile;
using ast::BinOpKind;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::UnOpKind;
using exec::Buf;
using exec::PlanLoop;
using exec::Value;
using frontend::Symbol;
using rts::Dad;
using rts::DistArray;
using rts::DistKind;

namespace {

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

/// Init's initializers for the arrays stored as T (LOGICAL ones give bool).
template <typename T>
const auto& init_of(const Init& init) {
  if constexpr (std::is_same_v<T, double>)
    return init.real;
  else if constexpr (std::is_same_v<T, long long>)
    return init.ints;
  else
    return init.logical;
}

/// ProgramResult's gathered arrays stored as T (LOGICAL arrays are not
/// gathered).
template <typename T>
auto& result_arrays(ProgramResult& r) {
  if constexpr (std::is_same_v<T, double>)
    return r.real_arrays;
  else
    return r.int_arrays;
}

// --- node program -------------------------------------------------------------
// The node program is a thin driver over the exec layer: every FORALL and
// reduction is first looked up in the statement plan cache
// (exec/statement_plan.hpp), whose entries run their compiled
// communication (PARTI gathers included) and the strength-reduced loop
// nest into an lhs store, a reduction accumulator, a concatenation payload
// or a scatter stream.  A statement the planner declines (masked or
// gathered concatenations, non-affine shapes, values a plan cannot bake)
// runs whole on the tree walk below, which operates on the same exec::Env
// state; no statement mixes the two.

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
        comm_plans_(env_, make_comm_hooks()),
        native_(shared.native) {
    cache_.set_enabled(opt_.schedule_cache);
    if (opt_.schedule_session != nullptr)
      cache_.set_session(opt_.schedule_session, gc_.my_logical());
    apply_init();
  }

  /// Callbacks the comm-plan builder uses to bake descriptors: the same
  /// expression evaluation as the tree walk, plus its schedule machinery
  /// for PARTI reads.  The lambdas capture `this` and fire only after
  /// construction completes.
  exec::CommHooks make_comm_hooks() {
    exec::CommHooks h;
    h.eval = [this](const Expr& e) { return eval(e); };
    h.eval_bound = [this](const Expr& e, const std::string& var, Index val) {
      frame_[var] = val;
      const exec::Value v = eval(e);
      frame_.erase(var);
      return v;
    };
    h.gather = [this](const SpmdStmt& s, const CommAction& a,
                      const exec::ExecPlan& xp) {
      gather_via_schedule(s, a, s.refs[static_cast<size_t>(a.ref_id)],
                          [&](std::vector<Index>& needs) {
                            exec::run_gather_needs(xp, a.ref_id, plan_scratch_,
                                                   needs);
                          });
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
    env_.for_each_array([&](const std::string& name, auto& a) {
      using T = typename std::decay_t<decltype(a)>::value_type;
      const auto& fns = init_of<T>(init_);
      auto f = fns.find(name);
      if (f == fns.end()) return;
      a.fill_global([&](std::span<const Index> g) {
        return static_cast<T>(f->second(g));
      });
    });
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
      case Access::kIterBuf:
        return env_.bufs[static_cast<size_t>(ref->buffer_id)].at(flat_iter_);
      case Access::kSlabBuf: {
        Index idx = 0;
        for (const std::string& v : ref->slab_vars) {
          const auto& vb = var_state_.at(v);
          idx = idx * vb.count + vb.counter;
        }
        return env_.bufs[static_cast<size_t>(ref->buffer_id)].at(idx);
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

  /// Ranges a given processor (grid coords) iterates for the statement, or
  /// nullopt when guards mask it out.
  std::optional<std::vector<PlanLoop>> ranges_for_coords(
      const SpmdStmt& s, const std::vector<int>& coords) {
    for (const ProcGuard& g : s.guards) {
      const Index val =
          eval(*affine_to_expr(g.sub)).as_i() - env_.lower_of(g.array, g.dim);
      if (!exec::guard_owns(env_.dads.at(g.array), g.dim, val, coords))
        return std::nullopt;
    }
    return ranges_for_coords_no_guards(s, coords);
  }

  /// Ranges ignoring the processor guards, one per s.indices entry,
  /// through the shared set_BOUND level derivation.
  std::vector<PlanLoop> ranges_for_coords_no_guards(
      const SpmdStmt& s, const std::vector<int>& coords) {
    std::vector<PlanLoop> out(s.indices.size());
    for (size_t k = 0; k < s.indices.size(); ++k) {
      const IndexPartition& ip = s.indices[k];
      const Index lo = eval(*ip.lo).as_i();
      const Index hi = eval(*ip.hi).as_i();
      const Index st = ip.st ? eval(*ip.st).as_i() : 1;
      const bool by_array = !ip.array.empty();
      exec::derive_level(ip, by_array ? &env_.dads.at(ip.array) : nullptr,
                         by_array ? env_.lower_of(ip.array, ip.dim) : 0,
                         c_.mapping.grid, coords, lo, hi, st, out[k]);
    }
    return out;
  }

  /// Iterate a range vector in spec order, invoking f() per iteration with
  /// frame_/var_state_/flat_iter_ set.
  template <typename F>
  void iterate(const SpmdStmt& s, const std::vector<PlanLoop>& ranges, F&& f) {
    const size_t nv = ranges.size();
    for (const PlanLoop& r : ranges)
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
  /// An error already prefixed with the source line of the statement that
  /// raised it, so enclosing DO and IF statements pass it through.
  struct LocatedError : Error {
    using Error::Error;
  };

  void exec(const SpmdStmt& s) {
    try {
      exec_inner(s);
    } catch (const LocatedError&) {
      throw;  // raised inside a DO or IF body: prefixed once already
    } catch (const Error& e) {
      throw LocatedError(strformat("at source line %d (stmt kind %d): %s",
                                   s.loc.line, static_cast<int>(s.kind),
                                   e.what()));
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
        exec::require_nonzero_stride(s.do_var, st);
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

  /// Planned fast path: one statement-cache lookup per FORALL or reduction
  /// finds this statement's entry — built on first use, re-bound in place
  /// when its key scalars changed — and runs it.  Returns false when the
  /// planner declined — the caller runs the statement on the tree walk.
  bool try_planned(const SpmdStmt& s) {
    if (opt_.skeleton || !opt_.exec_plans) return false;
    // Unnumbered statements (hand-built programs that bypassed the driver)
    // have no stable cache identity: run them on the tree walk.
    if (s.stmt_id < 0) return false;
    exec::StatementPlan& entry = stmt_plans_.get(
        s, env_,
        [this, &s](std::span<const std::string> names) {
          return exec::build_statement_plan(s, env_, comm_plans_, names);
        },
        [this, &s](exec::StatementPlan& e,
                   std::span<const std::string> names) {
          return exec::rebind_statement_plan(s, env_, comm_plans_, names, e);
        });
    if (!entry.plan) return false;
    run_planned(s, entry);
    return true;
  }

  /// Pre-communication through the entry's compiled comm slots
  /// (bit-identical messages and charges to the tree walk's pre actions;
  /// a gather slot inspects through the plan's indexers, only when the
  /// shared ScheduleCache misses), then the loop nest into the plan's
  /// sink, then its post step.
  void run_planned(const SpmdStmt& s, exec::StatementPlan& entry) {
    const exec::ExecPlan& plan = *entry.plan;
    comm_plans_.run(s, entry.comm, plan);
    Index iters = -1;
    std::vector<double> values;   // kScatter: rhs values
    std::vector<Index> dest_ids;  // kScatter: destination ids
    switch (plan.sink) {
      case exec::Sink::kStore:
        // Backend ladder: native kernel when enabled and attachable, tape
        // interpreter otherwise.  Both return the same iteration count, so
        // the simulated cost charged below is identical either way.
        if (opt_.native_backend) iters = native_.try_run(plan, entry.native);
        if (iters < 0) iters = exec::run_exec_plan(plan, plan_scratch_);
        break;
      case exec::Sink::kReduce: {
        // The reduction tree of the tree walk, with the same box layout:
        // same messages, bytes and charges (no int-op charge, as there).
        exec::ReduceAcc acc = exec::ReduceAcc::identity(plan.reduce);
        iters = exec::run_reduce_plan(plan, plan_scratch_, acc);
        proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
        env_.scalars[s.target] = finish_reduce(s, acc);
        return;
      }
      case exec::Sink::kConcat:
        iters = exec::run_concat_plan(plan, plan_scratch_,
                                      comm_plans_.concat_payload(entry.comm));
        break;
      case exec::Sink::kScatter:
        iters = exec::run_scatter_plan(plan, plan_scratch_, values, dest_ids);
        break;
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);
    // The scatter is the tree walk's post-action, fed the plan's streams.
    if (plan.sink == exec::Sink::kScatter)
      run_post_actions(s, values, dest_ids);
    else
      comm_plans_.run_post(entry.comm);
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
    if (try_planned(s)) return;
    ++tree_walk_stmts_;

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
        for (const PlanLoop& r : *my_ranges) iters *= r.count;
        if (iters < 0) iters = 0;
      } else {
        iterate(s, *my_ranges, [&]() {
          ++iters;
          // A masked-out iteration writes nothing: no (dest, value) pair.
          if (s.mask && !opt_.skeleton && !eval(*s.mask).as_b()) return;
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

  [[nodiscard]] bool stmt_has_iterbuf(const SpmdStmt& s) const {
    for (const CommAction& a : s.pre)
      if (!a.eliminated && exec::is_iteration_buffer(a.kind)) return true;
    return false;
  }

  /// Throws the out-of-range diagnostic unless the 0-based index `gd`
  /// lies in dimension `d` of `name`.
  void require_in_range(const std::string& name, int d, Index gd) {
    const Index extent = env_.dads.at(name).extent(d);
    if (gd >= 0 && gd < extent) return;
    const long long lo = env_.lower_of(name, d);
    throw RtsError(strformat(
        "subscript %lld of %s is out of range [%lld, %lld] in dimension %d",
        static_cast<long long>(gd) + lo, name.c_str(), lo,
        lo + static_cast<long long>(extent) - 1, d + 1));
  }

  Index flat_global_of(const std::string& name, std::span<const Index> g) {
    const Dad& dad = env_.dads.at(name);
    Index flat = 0;
    for (int d = 0; d < dad.rank(); ++d) {
      const Index gd = g[static_cast<size_t>(d)];
      require_in_range(name, d, gd);
      flat = flat * dad.extent(d) + gd;
    }
    return flat;
  }

  // --- communication actions --------------------------------------------------
  void run_pre_actions(const SpmdStmt& s,
                       const std::optional<std::vector<PlanLoop>>& my_ranges) {
    for (const CommAction* a : exec::pre_actions_in_order(s))
      run_action(s, *a, my_ranges);
  }

  void run_action(const SpmdStmt& s, const CommAction& a,
                  const std::optional<std::vector<PlanLoop>>& my_ranges) {
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
    env_.with_storage(ref.array, [&](auto& arr) {
      rts::overlap_shift(gc_, arr, a.array_dim,
                         static_cast<int>(a.shift_amount));
    });
  }

  /// Owner (canonical line) broadcasts one element, sizeof(T) bytes in its
  /// array's element type T, to all.
  void run_bcast_element(const CommAction& a, const RefInfo& ref) {
    const Dad& dad = env_.dads.at(ref.array);
    std::vector<Index> g(ref.subs.size());
    for (size_t d = 0; d < ref.subs.size(); ++d) {
      const int dd = static_cast<int>(d);
      g[d] = eval(*ref.expr->args[d]).as_i() - env_.lower_of(ref.array, dd);
      require_in_range(ref.array, dd, g[d]);
    }
    const std::vector<int> zeros(static_cast<size_t>(c_.mapping.grid.ndims()),
                                 0);
    const int root = dad.owner_logical(g, zeros);
    Value& slot = env_.bufs[static_cast<size_t>(a.buffer_id)].scalar;
    env_.with_storage(ref.array, [&](auto& arr) {
      using T = typename std::decay_t<decltype(arr)>::value_type;
      std::vector<T> data;
      if (gc_.my_logical() == root)
        data.push_back(exec::element_of<T>(
            env_.read_element(ref.array, g, /*ghost=*/false)));
      gc_.bcast_all(root, data);
      slot = exec::value_of(data.at(0));
    });
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
      require_in_range(ref.array, d, val);
      const int owner = dad.owner_coord(d, val);
      const int gd = dad.dim(d).grid_dim;
      comm_dims.emplace_back(gd, owner);
      on_root = on_root && gc_.coord(gd) == owner;
    }

    // The slab covers the iterating ranges of the slab variables; those
    // ranges are identical on the source line and the destination(s).
    std::vector<PlanLoop> slab_ranges;
    std::vector<std::string> slab_vars = ref.slab_vars;
    {
      auto all = ranges_for_coords_no_guards(s, gc_.my_coords());
      for (const std::string& v : slab_vars)
        for (size_t k = 0; k < s.indices.size(); ++k)
          if (s.indices[k].var == v) slab_ranges.push_back(std::move(all[k]));
    }
    Index slab_size = 1;
    for (const PlanLoop& r : slab_ranges) slab_size *= r.count;

    // The slab travels in the array's element type: elem_size bytes each.
    Buf& b = env_.bufs[static_cast<size_t>(a.buffer_id)];
    b.ty = env_.sym(ref.array).type;
    b.col.clear();
    if (on_root && slab_size > 0) {
      b.col.reserve(static_cast<size_t>(slab_size) * exec::elem_size(b.ty));
      pack_slab(ref, slab_vars, slab_ranges, 0, b);
    }

    if (a.kind == CommKind::kMulticast) {
      for (const auto& [gd, owner] : comm_dims) gc_.multicast(gd, owner, b.col);
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
          require_in_range(s.refs[0].array, ld, dval);
          dest_coord = ldad.owner_coord(ld, dval);
        }
        std::vector<std::byte> out;
        const bool received = gc_.transfer(
            gd, owner, dest_coord, std::span<const std::byte>(b.col), out);
        if (received) b.col = std::move(out);
        else if (gc_.coord(gd) != owner) b.col.clear();
      }
    }
  }

  /// Recursively pack the slab in slab-variable order (last var fastest,
  /// matching the SlabBuf read index).
  void pack_slab(const RefInfo& ref, const std::vector<std::string>& vars,
                 const std::vector<PlanLoop>& ranges, size_t k, Buf& out) {
    if (k == vars.size()) {
      eval_subs(*ref.expr, gidx_scratch_);
      out.push(env_.read_element(ref.array, gidx_scratch_, true));
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
      const std::optional<std::vector<PlanLoop>>& my_ranges) {
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
    const parti::SchedulePtr sched =
        schedule_for(s, a, ref.array, [&]() -> parti::SchedulePtr {
          // My needs, in iteration order (the inspector).
          std::vector<Index> needs;
          my_needs_fn(needs);
          if (a.kind == CommKind::kGather)
            return parti::schedule2(gc_, dad, needs);
          // schedule1: compute any peer's needs locally.
          return parti::schedule1_read(
              gc_, dad, needs, [&](int q, std::vector<Index>& out) {
                peer_ids(s, *ref.expr, ref.array, q, out);
              });
        });
    Buf& b = env_.bufs[static_cast<size_t>(a.buffer_id)];
    const std::size_t elem = env_.with_storage(ref.array, [&](auto& arr) {
      using T = typename std::decay_t<decltype(arr)>::value_type;
      parti::execute_read(
          gc_, *sched, arr,
          b.reset<T>(static_cast<std::size_t>(sched->tmp_size)));
      return sizeof(T);
    });
    gather_bytes_ += sched->remote_read_bytes(gc_.my_logical(), elem);
  }

  /// Run the write schedule of one post action: ship the iteration-ordered
  /// `values` to their `dest_ids` in the lhs array's own element type.
  void scatter_via_schedule(const SpmdStmt& s, const CommAction& a,
                            const std::vector<double>& values,
                            const std::vector<Index>& dest_ids) {
    const RefInfo& lhs = s.refs[0];
    const Dad& dad = env_.dads.at(lhs.array);
    const parti::SchedulePtr sched =
        schedule_for(s, a, lhs.array, [&]() -> parti::SchedulePtr {
          if (a.kind == CommKind::kScatter)
            return parti::schedule3(gc_, dad, dest_ids);
          return parti::schedule1_write(
              gc_, dad, dest_ids, [&](int q, std::vector<Index>& out) {
                peer_ids(s, *s.lhs, lhs.array, q, out);
              });
        });
    const std::size_t elem = env_.with_storage(lhs.array, [&](auto& arr) {
      parti::execute_write(gc_, *sched, arr, std::span<const double>(values));
      return sizeof(typename std::decay_t<decltype(arr)>::value_type);
    });
    scatter_bytes_ += sched->remote_write_bytes(gc_.my_logical(), elem);
  }

  /// The schedule of one PARTI action: found in the ScheduleCache under its
  /// runtime key — its dependencies are the arrays its lists were computed
  /// from and `array`, whose storage they were localized against — or
  /// built by `inspect` on a miss (always, with no key or caching off).
  parti::SchedulePtr schedule_for(
      const SpmdStmt& s, const CommAction& a, const std::string& array,
      const std::function<parti::SchedulePtr()>& inspect) {
    auto build = [&]() {
      ++schedules_built_;
      return inspect();
    };
    const std::string key = runtime_key(s, a);
    if (key.empty() || !opt_.schedule_cache) return build();
    std::vector<std::string> deps = schedule_dep_arrays(s, a);
    deps.push_back(array);
    return cache_.get_or_build(key, deps, build);
  }

  /// schedule1's local peer enumeration: the global flat ids of `array`
  /// that element expression `e` takes over processor q's iteration
  /// ranges, in q's iteration order.
  void peer_ids(const SpmdStmt& s, const Expr& e, const std::string& array,
                int q, std::vector<Index>& out) {
    auto qr = ranges_for_coords(s, c_.mapping.grid.coords_of(q));
    if (!qr) return;
    iterate(s, *qr, [&]() {
      eval_subs(e, gidx_scratch_);
      out.push_back(flat_global_of(array, gidx_scratch_));
    });
  }

  /// Visits the expressions a schedule's lists are computed from: the
  /// FORALL bounds, the reference's subscripts and — for a write, whose
  /// masked-out iterations contribute no destination — the mask.
  template <typename F>
  static void for_each_schedule_input(const SpmdStmt& s, const CommAction& a,
                                      F&& f) {
    for (const IndexPartition& ip : s.indices) {
      f(*ip.lo);
      f(*ip.hi);
      if (ip.st) f(*ip.st);
    }
    const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
    for (const ExprPtr& x : ref.expr->args)
      if (x) f(*x);
    if (s.mask && (a.kind == CommKind::kScatter ||
                   a.kind == CommKind::kPostcompWrite))
      f(*s.mask);
  }

  /// Arrays whose *values* feed the needs/destination computation of a
  /// schedule action: indirection arrays appearing in the reference's
  /// subscripts or the statement's bounds, and a write's mask arrays.
  /// These are the schedule's data dependencies — the send/receive lists
  /// go stale when their contents change, even though the DAD signature
  /// does not.
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
    for_each_schedule_input(s, a, [&](const Expr& e) { walk(e, walk); });
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
    for_each_schedule_input(s, a, [&](const Expr& e) { walk(e, walk); });
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
          // Each element keeps write_element's as_d/as_i/as_b conversion.
          env_.with_storage(lhs.array, [&](auto& dst) {
            using T = typename std::decay_t<decltype(dst)>::value_type;
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
                  dst.at_global(g) =
                      exec::element_of<T>(Value::real(blk[vpos++]));
                }
              }
              pos = vpos;
            }
          });
          break;
        }
        case CommKind::kPostcompWrite:
        case CommKind::kScatter:
          scatter_via_schedule(s, a, values, dest_ids);
          break;
        default:
          throw RtsError("unexpected post-action");
      }
    }
  }

  // --- scalar assignment / reduction ------------------------------------------
  void exec_scalar_assign(const SpmdStmt& s) {
    bind_refs(s);
    run_pre_actions(s, std::nullopt);
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
    if (try_planned(s)) return;
    ++tree_walk_stmts_;
    bind_refs(s);
    auto my_ranges = ranges_for_coords(s, gc_.my_coords());
    run_pre_actions(s, my_ranges);

    exec::ReduceOp op{};
    if (!exec::reduce_op_of(s.reduce_op, op))
      throw RtsError("unsupported reduction " + s.reduce_op);
    exec::ReduceAcc acc = exec::ReduceAcc::identity(op);

    Index iters = 0;
    if (my_ranges) {
      if (opt_.skeleton) {
        // Values are not computed; the location is the first index.
        Index total = 1;
        for (const PlanLoop& r : *my_ranges) total *= r.count;
        iters = std::max<Index>(total, 0);
        if (!my_ranges->empty() && (*my_ranges)[0].count > 0) {
          acc.loc = (*my_ranges)[0].val0;
          acc.valid = true;
        }
      } else {
        iterate(s, *my_ranges, [&]() {
          ++iters;
          if (s.mask && !eval(*s.mask).as_b()) return;
          acc.fold(eval(*s.rhs).as_d(), frame_.at(s.indices[0].var));
        });
      }
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    // Reduction tree (paper Table 3 category 2).
    env_.scalars[s.target] = finish_reduce(s, acc);
  }

  /// The reduction tree and the result for `s`'s target; a MAXLOC/MINLOC
  /// over a position-based first axis reports the index the winning
  /// position stands for.
  Value finish_reduce(const SpmdStmt& s, const exec::ReduceAcc& acc) {
    Index lo = 0;
    Index st = 1;
    if (s.loc_lo) {
      lo = eval(*s.loc_lo).as_i();
      st = eval(*s.loc_st).as_i();
    }
    return exec::finish_reduce(gc_, acc, env_.sym(s.target).type, lo, st);
  }

  // --- whole-array intrinsics ---------------------------------------------------
  /// Argument `k` of `s` as a whole array stored as T.  A differently typed
  /// array ends in a diagnostic naming it and `why` it must be T.
  template <typename T>
  DistArray<T>& array_arg(const SpmdStmt& s, size_t k, const std::string& why) {
    require(k < s.call_args.size() &&
                s.call_args[k]->kind == ExprKind::kVarRef,
            "array intrinsic argument is a whole array name");
    return env_.array_as<T>(s.call_args[k]->name, s.intrinsic, why);
  }

  /// A whole-array intrinsic in its destination's element type T: the
  /// array arguments must be T as well, masks LOGICAL, MATMUL's REAL.
  void exec_array_intrinsic(const SpmdStmt& s) {
    auto int_arg = [&](size_t k) { return eval(*s.call_args[k]).as_i(); };
    env_.with_storage(s.dest_array, [&](auto& dest) {
      using T = typename std::decay_t<decltype(dest)>::value_type;
      const std::string like = "the destination " + s.dest_array + " is " +
                               ast::to_string(exec::kElemType<T>);
      auto source = [&](size_t k) -> DistArray<T>& {
        return array_arg<T>(s, k, like);
      };
      auto mask = [&](size_t k) -> DistArray<unsigned char>& {
        return array_arg<unsigned char>(s, k, "a mask must be LOGICAL");
      };
      DistArray<T> result = [&]() -> DistArray<T> {
        if (s.intrinsic == "CSHIFT") {
          const Index sh = int_arg(1);
          const int dim =
              s.call_args.size() > 2 ? static_cast<int>(int_arg(2)) - 1 : 0;
          return rts::cshift(gc_, source(0), dim, sh);
        }
        if (s.intrinsic == "EOSHIFT") {
          const Index sh = int_arg(1);
          const T boundary =
              s.call_args.size() > 2
                  ? exec::element_of<T>(eval(*s.call_args[2]))
                  : T{};
          const int dim =
              s.call_args.size() > 3 ? static_cast<int>(int_arg(3)) - 1 : 0;
          return rts::eoshift(gc_, source(0), dim, sh, boundary);
        }
        if (s.intrinsic == "SPREAD") {
          const int dim = static_cast<int>(int_arg(1)) - 1;
          const Index nc = int_arg(2);
          return rts::spread(gc_, source(0), dim, nc);
        }
        if (s.intrinsic == "TRANSPOSE") return rts::transpose(gc_, source(0));
        if (s.intrinsic == "MATMUL") {
          if constexpr (std::is_same_v<T, double>) {
            return rts::matmul_dist(gc_, source(0), source(1));
          } else {
            throw RtsError("MATMUL: the destination " + s.dest_array +
                           " is " + ast::to_string(exec::kElemType<T>) +
                           ", but MATMUL takes REAL arrays");
          }
        }
        if (s.intrinsic == "RESHAPE")
          return rts::reshape(gc_, source(0), dest.dad());
        if (s.intrinsic == "PACK")
          return rts::pack(gc_, source(0), mask(1), dest.dad());
        if (s.intrinsic == "UNPACK")
          return rts::unpack(gc_, source(0), mask(1), source(2));
        throw RtsError("unsupported array intrinsic " + s.intrinsic);
      }();

      // Route the result into the destination's own mapping.
      auto store = [&](DistArray<T>& from) {
        from.for_each_owned([&](const std::vector<Index>& g, T& v) {
          dest.at_global(g) = v;
        });
      };
      if (result.dad().same_mapping(dest.dad())) {
        store(result);
      } else {
        DistArray<T> re = rts::redistribute(gc_, result, dest.dad());
        store(re);
      }
    });
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
    // Statement-cache counters by entry kind.  Every entry owns its comm
    // slots, so its hits/misses/drops are also comm-plan ones.
    const exec::StatementPlanStats& ps = stmt_plans_.stats();
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
    shared_.result.comm_plan_hits = ps.regular.hits + ps.irregular.hits;
    shared_.result.comm_plan_misses = ps.regular.misses + ps.irregular.misses;
    shared_.result.comm_plan_invalidations =
        ps.regular.invalidations + ps.irregular.invalidations;
    shared_.result.comm_plan_fast_bytes =
        comm_plans_.stats().bytes_memcpy_fast_path;
    shared_.result.pool_reuses = proc_.stats().pool_reuses;
    shared_.result.tree_walk_stmts = tree_walk_stmts_;
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
    // root receives.  This runs after the clock/stats snapshot, so it is
    // instrumentation, not simulated traffic — but it is host wall: every
    // processor packs its owned runs and the root places them, one copy
    // per run (DistArray::gather_global_root).
    env_.for_each_array([&](const std::string& name, auto& arr) {
      using T = typename std::decay_t<decltype(arr)>::value_type;
      if constexpr (!std::is_same_v<T, unsigned char>) {
        auto full = arr.gather_global_root(gc_);
        if (gc_.my_logical() == 0) {
          std::lock_guard<std::mutex> lock(shared_.mu);
          result_arrays<T>(shared_.result)[name] = std::move(full);
        }
      }
    });
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
  /// FORALL and reduction executions that ran on the tree walk.
  long long tree_walk_stmts_ = 0;
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
  // The JIT cache is process-global; report this run's share as deltas.
  // available() compiles nothing: the toolchain is probed only after a
  // kernel fails to compile, inside the run whose kernel failed.
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
