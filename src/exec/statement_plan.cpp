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
  PlanEntry reg = build_exec_plan(s, env);
  if (reg.plan) {
    e.plan = std::move(reg.plan);
    e.comm = comm.build(s, key_names);
    return e;
  }
  IrrPlanEntry irr = build_irregular_plan(s, env);
  if (irr.plan) {
    e.irregular = std::move(irr.plan);
    return e;
  }
  e.decline = "regular: " + reg.decline + "; irregular: " + irr.decline;
  e.structural = reg.structural && irr.structural;
  return e;
}

bool rebind_statement_plan(const compile::SpmdStmt& s, Env& env,
                           CommPlans& comm,
                           std::span<const std::string> key_names,
                           StatementPlan& e) {
  if (e.plan) {
    if (!rebind_exec_plan(s, env, *e.plan)) return false;
    comm.rebind(s, e.comm, key_names);
    if (e.native && !native::repack(*e.plan, *e.native)) e.native.reset();
    return true;
  }
  if (e.irregular) return rebind_irregular_plan(s, env, *e.irregular);
  return false;  // a decline under other values: plan afresh
}

StatementPlanStats::Kind& StatementPlanCache::kind_of(const StatementPlan& e) {
  if (e.plan) return stats_.regular;
  if (e.irregular) return stats_.irregular;
  return stats_.declined;
}

StatementPlanCache::Slot& StatementPlanCache::slot_of(int stmt_id) {
  require(stmt_id >= 0, "statement plan cache: numbered statement");
  const auto i = static_cast<size_t>(stmt_id);
  if (i >= slots_.size()) slots_.resize(i + 1);
  return slots_[i];
}

void StatementPlanCache::resolve_key(const compile::SpmdStmt& s,
                                     const Env& env, Slot& slot) {
  if (!(shared_ &&
        shared_->lookup_key_scalars(shared_ns_, s.stmt_id, slot.key_names))) {
    slot.key_names = plan_key_scalars(s, env);
    if (shared_)
      shared_->install_key_scalars(shared_ns_, s.stmt_id, slot.key_names);
  } else {
    ++stats_.shared_hits;
  }
  // Env::scalars holds every non-array symbol from construction on and
  // never erases one, so the slots stay valid for the whole run.
  slot.key_slots.clear();
  for (const std::string& nm : slot.key_names)
    slot.key_slots.push_back(&env.scalars.at(nm));
  slot.bound.resize(slot.key_slots.size());
  slot.keyed = true;
}

void StatementPlanCache::built(int stmt_id, Slot& slot) {
  ++kind_of(*slot.entry).misses;
  if (slot.entry->structural && !slot.structural) {
    slot.structural = true;
    if (shared_) shared_->record_structural_decline(shared_ns_, stmt_id);
  }
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
    built(s.stmt_id, slot);
    return *slot.entry;
  }
  StatementPlan& e = *slot.entry;
  if (same) {
    ++kind_of(e).hits;
    return e;
  }
  if (rebind(e, slot.key_names)) {
    StatementPlanStats::Kind& kind = kind_of(e);
    ++kind.hits;
    ++kind.rebinds;
    return e;
  }
  e = build(slot.key_names);
  built(s.stmt_id, slot);
  return e;
}

bool StatementPlanCache::declined_structurally(int stmt_id) {
  if (stmt_id >= 0 && static_cast<size_t>(stmt_id) < slots_.size() &&
      slots_[static_cast<size_t>(stmt_id)].structural)
    return true;
  if (shared_ && shared_->declined_structurally(shared_ns_, stmt_id)) {
    slot_of(stmt_id).structural = true;
    ++stats_.shared_hits;
    return true;
  }
  return false;
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
    if (in(e.comm.arrays) || (e.plan && in(e.plan->arrays)) ||
        (e.irregular && in(e.irregular->core.arrays))) {
      ++kind_of(e).invalidations;
      if (e.native) ++stats_.native_invalidations;
      slot.entry.reset();
    }
  }
}

}  // namespace f90d::exec
