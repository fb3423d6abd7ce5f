#include "exec/statement_plan.hpp"

#include <algorithm>

namespace f90d::exec {

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

StatementPlanStats::Kind& StatementPlanCache::kind_of(const StatementPlan& e) {
  if (e.plan) return stats_.regular;
  if (e.irregular) return stats_.irregular;
  return stats_.declined;
}

StatementPlan& StatementPlanCache::get_or_build(
    int stmt_id, const std::string& key,
    const std::function<StatementPlan()>& build) {
  auto it = map_.find(key);
  if (it != map_.end()) {
    ++kind_of(it->second).hits;
    return it->second;
  }
  StatementPlan e = build();
  ++kind_of(e).misses;
  if (e.structural && stmt_id >= 0) {
    structural_declines_.insert(stmt_id);
    if (shared_) shared_->record_structural_decline(shared_ns_, stmt_id);
  }
  return map_.emplace(key, std::move(e)).first->second;
}

bool StatementPlanCache::declined_structurally(int stmt_id) {
  if (structural_declines_.count(stmt_id) > 0) return true;
  if (shared_ && shared_->declined_structurally(shared_ns_, stmt_id)) {
    structural_declines_.insert(stmt_id);
    ++stats_.shared_hits;
    return true;
  }
  return false;
}

const std::vector<std::string>& StatementPlanCache::key_scalars(
    int stmt_id, const std::function<std::vector<std::string>()>& collect) {
  auto it = key_scalars_.find(stmt_id);
  if (it != key_scalars_.end()) return it->second;
  if (shared_) {
    std::vector<std::string> names;
    if (shared_->lookup_key_scalars(shared_ns_, stmt_id, names)) {
      ++stats_.shared_hits;
      return key_scalars_.emplace(stmt_id, std::move(names)).first->second;
    }
  }
  auto& entry = key_scalars_.emplace(stmt_id, collect()).first->second;
  if (shared_) shared_->install_key_scalars(shared_ns_, stmt_id, entry);
  return entry;
}

void StatementPlanCache::invalidate_array(const std::string& array) {
  auto in = [&](const std::vector<std::string>& arrays) {
    return std::find(arrays.begin(), arrays.end(), array) != arrays.end();
  };
  for (auto it = map_.begin(); it != map_.end();) {
    const StatementPlan& e = it->second;
    // The native attachment binds a subset of the plan's arrays.
    if (in(e.comm.arrays) || (e.plan && in(e.plan->arrays)) ||
        (e.irregular && in(e.irregular->core.arrays))) {
      ++kind_of(e).invalidations;
      if (e.native) ++stats_.native_invalidations;
      it = map_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace f90d::exec
