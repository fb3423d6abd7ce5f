#include "service/stats_json.hpp"

#include "support/json.hpp"

namespace f90d::service {

std::string run_stats_json(const Outcome& out) {
  const interp::ProgramResult& r = out.result;
  JsonWriter w;
  w.begin_object()
      .field("ok", out.ok)
      .field("error", out.error)
      .field("artifact_key", out.key)
      .field("artifact_hit", out.artifact_hit)
      .field("artifact_coalesced", out.artifact_coalesced)
      .field("compile_ms", out.compile_ms)
      .field("run_ms", out.run_ms)
      .field("nprocs", out.nprocs);
  w.key("machine")
      .begin_object()
      .field("virtual_time_s", r.machine.exec_time)
      .field("messages",
             static_cast<unsigned long long>(r.machine.total_messages()))
      .field("bytes", static_cast<unsigned long long>(r.machine.total_bytes()))
      .end_object();
  w.key("schedule_cache")
      .begin_object()
      .field("hits", r.schedule_hits)
      .field("misses", r.schedule_misses)
      .field("invalidations", r.schedule_invalidations)
      .field("shared_hits", r.shared_schedule_hits)
      .field("built", r.schedules_built)
      .end_object();
  w.key("plan_cache")
      .begin_object()
      .field("hits", r.plan_hits)
      .field("rebinds", r.plan_rebinds)
      .field("misses", r.plan_misses)
      .field("invalidations", r.plan_invalidations)
      .field("entries", r.plan_entries)
      .field("shared_hits", r.shared_plan_hits)
      .end_object();
  w.key("irregular_cache")
      .begin_object()
      .field("hits", r.irregular_hits)
      .field("rebinds", r.irregular_rebinds)
      .field("misses", r.irregular_misses)
      .field("invalidations", r.irregular_invalidations)
      .field("gather_bytes", r.gather_bytes)
      .field("scatter_bytes", r.scatter_bytes)
      .end_object();
  w.key("comm_plan_cache")
      .begin_object()
      .field("hits", r.comm_plan_hits)
      .field("misses", r.comm_plan_misses)
      .field("invalidations", r.comm_plan_invalidations)
      .field("bytes_memcpy_fast_path", r.comm_plan_fast_bytes)
      .field("pool_reuses", r.pool_reuses)
      .end_object();
  w.key("native")
      .begin_object()
      .field("runs", r.native_runs)
      .field("attaches", r.native_attaches)
      .field("fallbacks", r.native_fallbacks)
      .field("invalidations", r.native_invalidations)
      .field("cache_hits", r.native_cache_hits)
      .field("compiles", r.native_compiles)
      .field("dlopens", r.native_dlopens)
      .field("compile_ms", r.native_compile_ms)
      .end_object();
  w.key("procs").begin_array();
  for (std::size_t k = 0; k < r.machine.stats.size(); ++k) {
    const machine::ProcStats& ps = r.machine.stats[k];
    w.begin_object()
        .field("rank", static_cast<long long>(k))
        .field("msgs_sent", static_cast<unsigned long long>(ps.messages_sent))
        .field("bytes_sent", static_cast<unsigned long long>(ps.bytes_sent))
        .field("msgs_recv",
               static_cast<unsigned long long>(ps.messages_received))
        .field("compute_s", ps.compute_time)
        .field("comm_s", ps.comm_time)
        .end_object();
  }
  w.end_array().end_object();
  return w.str();
}

}  // namespace f90d::service
