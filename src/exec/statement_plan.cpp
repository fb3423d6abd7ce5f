#include "exec/statement_plan.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "support/diag.hpp"

namespace f90d::exec {

namespace {

/// Exact key-value equality: same kind and same bit pattern.  A REAL
/// scalar keys by its exact value (1.2 and 1.4 differ even though both
/// truncate to 1).
bool same_value(const Value& a, const Value& b) {
  if (a.k != b.k) return false;
  switch (a.k) {
    case Value::K::kD:
      return std::bit_cast<std::uint64_t>(a.d) ==
             std::bit_cast<std::uint64_t>(b.d);
    case Value::K::kI: return a.i == b.i;
    case Value::K::kB: return a.b == b.b;
  }
  return false;
}

}  // namespace

StatementPlan build_statement_plan(const compile::SpmdStmt& s, Env& env,
                                   CommPlans& comm,
                                   std::span<const std::string> key_names) {
  StatementPlan e;
  PlanEntry built = build_exec_plan(s, env);
  if (!built.plan) {
    e.decline = std::move(built.decline);
    return e;
  }
  std::optional<CommPlans::StmtPlan> slots =
      comm.build(s, key_names, built.plan.get());
  if (!slots) {
    e.decline = "communication slot not bakeable";
    return e;
  }
  e.plan = std::move(built.plan);
  e.comm = std::move(*slots);
  return e;
}

bool rebind_statement_plan(const compile::SpmdStmt& s, Env& env,
                           CommPlans& comm,
                           std::span<const std::string> key_names,
                           StatementPlan& e) {
  // A decline under other values plans afresh.
  if (!e.plan || !rebind_exec_plan(s, env, *e.plan) ||
      !comm.rebind(s, e.comm, key_names, e.plan.get()))
    return false;
  if (e.native && !native::repack(*e.plan, *e.native)) e.native.reset();
  return true;
}

StatementPlanStats::Kind& StatementPlanCache::kind_of(const StatementPlan& e) {
  if (!e.plan) return stats_.declined;
  if (!e.plan->gathers.empty() || e.plan->sink == Sink::kScatter)
    return stats_.irregular;
  return stats_.regular;
}

StatementPlanCache::Slot& StatementPlanCache::slot_of(int stmt_id) {
  require(stmt_id >= 0, "statement plan cache: numbered statement");
  const auto i = static_cast<size_t>(stmt_id);
  if (i >= slots_.size()) slots_.resize(i + 1);
  return slots_[i];
}

void StatementPlanCache::resolve_key(const compile::SpmdStmt& s,
                                     const Env& env, Slot& slot) {
  slot.key_names = plan_key_scalars(s, env);
  // Env::scalars holds every non-array symbol from construction on and
  // never erases one, so the slots stay valid for the whole run.
  slot.key_slots.clear();
  for (const std::string& nm : slot.key_names)
    slot.key_slots.push_back(&env.scalars.at(nm));
  slot.bound.resize(slot.key_slots.size());
  slot.keyed = true;
}

StatementPlan& StatementPlanCache::get(const compile::SpmdStmt& s,
                                       const Env& env, const Build& build,
                                       const Rebind& rebind) {
  Slot& slot = slot_of(s.stmt_id);
  if (!slot.keyed) resolve_key(s, env, slot);
  bool same = true;
  for (size_t k = 0; k < slot.key_slots.size(); ++k) {
    if (!same_value(*slot.key_slots[k], slot.bound[k])) {
      same = false;
      slot.bound[k] = *slot.key_slots[k];
    }
  }
  if (!slot.entry) {
    slot.entry = std::make_unique<StatementPlan>(build(slot.key_names));
    ++kind_of(*slot.entry).misses;
    return *slot.entry;
  }
  StatementPlan& e = *slot.entry;
  if (same) {
    ++kind_of(e).hits;
    return e;
  }
  // A rebind whose kernel arguments cannot be re-packed drops the native
  // attachment (the next run re-attaches), and a rebuild drops it too.
  const bool attached = static_cast<bool>(e.native);
  if (rebind(e, slot.key_names)) {
    StatementPlanStats::Kind& kind = kind_of(e);
    ++kind.hits;
    ++kind.rebinds;
    if (attached && !e.native) ++stats_.native_invalidations;
    return e;
  }
  if (attached) ++stats_.native_invalidations;
  e = build(slot.key_names);
  ++kind_of(e).misses;
  return e;
}

std::size_t StatementPlanCache::size() const {
  return static_cast<std::size_t>(
      std::count_if(slots_.begin(), slots_.end(),
                    [](const Slot& s) { return s.entry != nullptr; }));
}

void StatementPlanCache::invalidate_array(const std::string& array) {
  auto in = [&](const std::vector<std::string>& arrays) {
    return std::find(arrays.begin(), arrays.end(), array) != arrays.end();
  };
  for (Slot& slot : slots_) {
    if (!slot.entry) continue;
    const StatementPlan& e = *slot.entry;
    // The native attachment binds a subset of the plan's arrays.
    if (in(e.comm.arrays) || (e.plan && in(e.plan->arrays))) {
      ++kind_of(e).invalidations;
      if (e.native) ++stats_.native_invalidations;
      slot.entry.reset();
    }
  }
}

}  // namespace f90d::exec
