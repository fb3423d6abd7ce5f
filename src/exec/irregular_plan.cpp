#include "exec/irregular_plan.hpp"

#include "support/diag.hpp"

namespace f90d::exec {

namespace {

/// Flat global element id of one vector-subscripted reference at the
/// current iteration point; mirrors the tree walk's eval_subs +
/// flat_global_of, including the range diagnostic.
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

/// Odometer over the planned nest with incrementally maintained read
/// offsets — the same traversal (and therefore the same iteration order)
/// as run_exec_plan, minus the lhs offset slot: irregular statements
/// address gathered reads by flat iteration index and the scattered lhs
/// by destination-id streams.  Returns the iteration count; no-op for
/// masked-out and empty nests.
template <typename F>
Index iterate_core(const ExecPlan& p, PlanScratch& scratch, F&& body) {
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

  std::vector<long long>& offs = scratch.offs;
  std::vector<long long>& contrib = scratch.contrib;
  offs.resize(nr);
  contrib.resize(nr * nv);
  for (size_t r = 0; r < nr; ++r) {
    long long off = p.refs[r].base;
    for (size_t k = 0; k < nv; ++k) {
      const long long c = p.refs[r].terms[k].at(0);
      contrib[r * nv + k] = c;
      off += c;
    }
    offs[r] = off;
  }
  auto update_level = [&](size_t k, Index c) {
    for (size_t r = 0; r < nr; ++r) {
      const long long nc = p.refs[r].terms[k].at(c);
      offs[r] += nc - contrib[r * nv + k];
      contrib[r * nv + k] = nc;
    }
  };

  Index iters = 0;
  for (;;) {
    ++iters;
    body(varvals.data(), offs.data());
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

}  // namespace

void run_irregular_needs(const IrregularPlan& p, const IrrRead& read,
                         PlanScratch& scratch, std::vector<Index>& out) {
  iterate_core(p.core, scratch,
               [&](const Index* varvals, const long long* offs) {
                 out.push_back(flat_of(read.idx, p.core.refs, varvals, offs,
                                       scratch.stack));
               });
}

Index run_irregular_scatter(const IrregularPlan& p, PlanScratch& scratch,
                            std::vector<double>& values,
                            std::vector<Index>& dest_ids) {
  return iterate_core(
      p.core, scratch, [&](const Index* varvals, const long long* offs) {
        // Rhs before destination, like the tree walk: an out-of-range
        // destination must not suppress rhs evaluation side ordering.
        const Value v =
            eval_tape(p.core.rhs, p.core.refs, varvals, offs, scratch.stack);
        values.push_back(v.as_d());
        dest_ids.push_back(
            flat_of(p.lhs_idx, p.core.refs, varvals, offs, scratch.stack));
      });
}

}  // namespace f90d::exec
