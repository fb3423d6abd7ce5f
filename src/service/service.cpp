#include "service/service.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <utility>

#include "support/json.hpp"

namespace f90d::service {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

unsigned long long fnv1a(const std::string& s, unsigned long long h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string options_tag(const RunSpec& spec) {
  std::string tag = "grid=";
  for (std::size_t i = 0; i < spec.grid.size(); ++i) {
    if (i) tag += 'x';
    tag += std::to_string(spec.grid[i]);
  }
  const compile::CodegenOptions& o = spec.codegen;
  tag += ";opt=";
  tag += o.eliminate_redundant_comm ? '1' : '0';
  tag += o.merge_shifts ? '1' : '0';
  tag += o.fuse_multicast_shift ? '1' : '0';
  tag += o.reuse_schedules ? '1' : '0';
  tag += o.cross_stmt_elimination ? '1' : '0';
  tag += o.hoist_invariant_comm ? '1' : '0';
  tag += o.coalesce_messages ? '1' : '0';
  return tag;
}

std::string artifact_key(const std::string& source, const RunSpec& spec) {
  unsigned long long h = fnv1a(source, 1469598103934665603ull);
  h = fnv1a(options_tag(spec), h);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", h);
  return buf;
}

ArtifactPtr compile_artifact(const std::string& source, const RunSpec& spec) {
  auto a = std::make_shared<Artifact>();
  a->key = artifact_key(source, spec);
  const auto t0 = Clock::now();
  try {
    a->compiled = std::make_shared<const compile::Compiled>(
        compile::compile_source(source, spec.grid, spec.codegen));
  } catch (const Error& e) {
    a->error = e.what();
  }
  a->compile_ms = ms_since(t0);
  return a;
}

// ---------------------------------------------------------------------------
// ArtifactCache

ArtifactPtr ArtifactCache::get_or_compile(const std::string& source,
                                          const RunSpec& spec) {
  const std::string key = artifact_key(source, spec);
  std::shared_future<ArtifactPtr> fut;
  std::promise<ArtifactPtr> prom;
  bool owner = false;
  {
    std::lock_guard lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      fut = it->second;
      const bool ready = fut.wait_for(std::chrono::seconds(0)) ==
                         std::future_status::ready;
      if (ready)
        ++stats_.hits;
      else
        ++stats_.coalesced;
    } else {
      fut = prom.get_future().share();
      map_.emplace(key, fut);
      ++stats_.misses;
      owner = true;
    }
  }
  if (!owner) return fut.get();
  // Compile outside the lock: distinct sources compile concurrently;
  // identical ones block on the future above and reuse this result.
  ArtifactPtr a = compile_artifact(source, spec);
  prom.set_value(a);
  return a;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

std::size_t ArtifactCache::size() const {
  std::lock_guard lk(mu_);
  return map_.size();
}

// ---------------------------------------------------------------------------
// Run path shared by the CLI, harness, and daemon

Outcome run_artifact(const ArtifactPtr& artifact, const RunSpec& spec,
                     const interp::RunOptions& ro) {
  Outcome out;
  out.key = artifact->key;
  out.compile_ms = artifact->compile_ms;
  if (!artifact->compiled) {
    out.error = artifact->error;
    return out;
  }
  out.compiled = artifact->compiled;
  out.nprocs = static_cast<int>(artifact->compiled->mapping.grid.size());
  if (spec.compile_only) {
    out.ok = true;
    return out;
  }
  machine::SimMachine m(out.nprocs, spec.cost, machine::make_hypercube());
  const auto t0 = Clock::now();
  out.result = interp::run_compiled(*artifact->compiled, m, spec.init, ro);
  out.run_ms = ms_since(t0);
  out.ok = true;
  return out;
}

Outcome compile_and_run(const std::string& source, const RunSpec& spec) {
  ArtifactPtr a = compile_artifact(source, spec);
  if (!a->compiled) throw Error(a->error);
  return run_artifact(a, spec, spec.run);
}

// ---------------------------------------------------------------------------
// ServiceCore

ServiceCore::ServiceCore(ServiceOptions opt) : opt_(opt) {}

Outcome ServiceCore::submit(const std::string& source, const RunSpec& spec) {
  ++requests_;
  Outcome out;
  if (source.size() > opt_.max_source_bytes) {
    out.error = "source exceeds max_source_bytes (" +
                std::to_string(opt_.max_source_bytes) + ")";
    ++failures_;
    return out;
  }
  ArtifactCache::Stats before = artifacts_.stats();
  ArtifactPtr a = artifacts_.get_or_compile(source, spec);
  ArtifactCache::Stats after = artifacts_.stats();
  // Attribution is approximate under concurrency (another thread's hit may
  // land between the snapshots); the aggregate Stats are exact.
  out.artifact_hit = after.hits > before.hits;
  out.artifact_coalesced = after.coalesced > before.coalesced;
  if (!a->compiled) {
    out.key = a->key;
    out.error = a->error;
    ++failures_;
    return out;
  }
  const int p = static_cast<int>(a->compiled->mapping.grid.size());
  if (p > opt_.max_procs) {
    out.key = a->key;
    out.error = "grid size " + std::to_string(p) + " exceeds max_procs (" +
                std::to_string(opt_.max_procs) + ")";
    ++failures_;
    return out;
  }
  interp::RunOptions ro = spec.run;
  parti::SharedScheduleSession session(&schedules_,
                                       a->key + "|" + spec.init_tag + "|", p);
  if (opt_.share_caches && !spec.compile_only) {
    ro.schedule_session = &session;
    ro.cache_prefix = a->key + "|" + spec.init_tag;
  }
  try {
    Outcome ran = run_artifact(a, spec, ro);
    ran.artifact_hit = out.artifact_hit;
    ran.artifact_coalesced = out.artifact_coalesced;
    if (!ran.ok) ++failures_;
    return ran;
  } catch (const Error& e) {
    // Run-time failure (e.g. zero-filled indirection arrays out of range).
    out.key = a->key;
    out.error = e.what();
    ++failures_;
    return out;
  } catch (const std::exception& e) {
    // Any other exception is a defect, but one request must not take the
    // daemon down with it: answer it as an internal error.
    out.key = a->key;
    out.error = std::string("internal error: ") + e.what();
    ++failures_;
    return out;
  }
}

std::string ServiceCore::stats_json() const {
  const ArtifactCache::Stats as = artifacts_.stats();
  const parti::SharedScheduleStore::Stats ss = schedules_.stats();
  JsonWriter w;
  w.begin_object()
      .field("requests", requests_.load())
      .field("failures", failures_.load())
      .key("artifacts")
      .begin_object()
      .field("entries", static_cast<long long>(artifacts_.size()))
      .field("hits", as.hits)
      .field("misses", as.misses)
      .field("coalesced", as.coalesced)
      .end_object()
      .key("shared_schedules")
      .begin_object()
      .field("entries", static_cast<long long>(schedules_.size()))
      .field("hits", ss.hits)
      .field("misses", ss.misses)
      .field("installs", ss.installs)
      .end_object()
      .end_object();
  return w.str();
}

}  // namespace f90d::service
