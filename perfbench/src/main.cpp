// perfbench: one workload in one mode in one process.
//
//   perfbench --workload stencil|gauss|irregular|service --seed N
//             --seconds T --mode setup|measure|trace [--smoke]
//             [--trace-file FILE]
//
// setup    time from source text to the first verified result (a fresh
//          process per sample, so the native JIT and every cache start cold)
// measure  setup, then the end-to-end metrics with tracing off
// trace    the per-layer metrics: spans around each layer's public entry
//          points, written as Chrome trace-event JSON to --trace-file
//
// Human-readable lines go to stdout first; the last stdout line is one JSON
// record that perfbench/run.py reads.
#include <dlfcn.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "apps/gauss_hand.hpp"
#include "bench.hpp"
#include "compile/codegen.hpp"
#include "compile/comm_opt.hpp"
#include "compile/emit_f77.hpp"
#include "compile/normalize.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "machine/topology.hpp"
#include "mapping/mapping.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/stats_json.hpp"
#include "support/json.hpp"

// The native JIT keeps its generated sources and shared objects in a
// mkdtemp() directory under /tmp.  The benchmark may write only inside its
// checkout, so this definition (which the static link prefers over libc's)
// creates the directory under $PERFBENCH_SCRATCH instead; run.py points it
// at a per-process directory it deletes afterwards.
extern "C" char* mkdtemp(char* tmpl) noexcept {
  static std::atomic<int> counter{0};
  const char* base = std::getenv("PERFBENCH_SCRATCH");
  if (base == nullptr || *base == '\0') {
    using Real = char* (*)(char*);
    static Real real = reinterpret_cast<Real>(::dlsym(RTLD_NEXT, "mkdtemp"));
    return real != nullptr ? real(tmpl) : nullptr;
  }
  const std::string dir = std::string(base) + "/native-" +
                          std::to_string(::getpid()) + "-" +
                          std::to_string(counter.fetch_add(1));
  if (::mkdir(dir.c_str(), 0700) != 0) return nullptr;
  return ::strdup(dir.c_str());  // lives as long as the JIT cache
}

namespace perfbench {
namespace {

namespace svc = f90d::service;
using f90d::interp::ProgramResult;

struct Args {
  std::string workload;
  std::string mode = "measure";
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;
  std::string trace_file;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double now_s(Clock::time_point t0) { return ms_between(t0, Clock::now()) / 1000.0; }

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Everything that must repeat exactly for one run at one seed: simulated
/// time, traffic, and the exec/parti/native counters.  The process-global
/// JIT cache's compile and hit counts differ cold vs warm by design, so they
/// are left out.
std::string fingerprint(const ProgramResult& r) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "sim=%a msgs=%llu bytes=%llu plan=%d/%d irr=%d/%d cp=%lld/%lld/%lld "
      "sched=%d/%d/%lld parti=%lld/%lld native=%lld/%lld/%lld pool=%lld",
      r.machine.exec_time,
      static_cast<unsigned long long>(r.machine.total_messages()),
      static_cast<unsigned long long>(r.machine.total_bytes()), r.plan_hits,
      r.plan_misses, r.irregular_hits, r.irregular_misses, r.comm_plan_hits,
      r.comm_plan_misses, r.comm_plan_fast_bytes, r.schedule_hits,
      r.schedule_misses, r.schedules_built, r.gather_bytes, r.scatter_bytes,
      r.native_runs, r.native_attaches, r.native_fallbacks, r.pool_reuses);
  return buf;
}

// --- per-layer accounting -------------------------------------------------------

/// Per-layer counts of one or more runs, summed over the workload's programs.
struct Layers {
  double plan_hits = 0, plan_misses = 0, irr_hits = 0, irr_misses = 0;
  double cp_hits = 0, cp_misses = 0, cp_fast_bytes = 0;
  double native_runs = 0, native_fallbacks = 0, native_cache_hits = 0;
  double sched_built = 0, sched_hits = 0, sched_misses = 0;
  double gather_bytes = 0, scatter_bytes = 0;
  double sim_compute = 0, sim_comm = 0, sim_idle = 0, imbalance = 0;
  double max_proc_msgs = 0, pool_reuses = 0, msgs_received = 0;

  /// Machine numbers come from every processor's stats, not processor 0's.
  void add(const ProgramResult& r) {
    plan_hits += r.plan_hits;
    plan_misses += r.plan_misses;
    irr_hits += r.irregular_hits;
    irr_misses += r.irregular_misses;
    cp_hits += static_cast<double>(r.comm_plan_hits);
    cp_misses += static_cast<double>(r.comm_plan_misses);
    cp_fast_bytes += static_cast<double>(r.comm_plan_fast_bytes);
    native_runs += static_cast<double>(r.native_runs);
    native_fallbacks += static_cast<double>(r.native_fallbacks);
    native_cache_hits += static_cast<double>(r.native_cache_hits);
    sched_built += static_cast<double>(r.schedules_built);
    sched_hits += r.schedule_hits;
    sched_misses += r.schedule_misses;
    gather_bytes += static_cast<double>(r.gather_bytes);
    scatter_bytes += static_cast<double>(r.scatter_bytes);
    const auto& m = r.machine;
    double comp = 0, comm = 0, idle = 0, msgs = 0, tmax = 0, tsum = 0;
    for (std::size_t p = 0; p < m.stats.size(); ++p) {
      const auto& s = m.stats[p];
      comp = std::max(comp, s.compute_time);
      comm = std::max(comm, s.comm_time);
      idle = std::max(idle, std::max(0.0, m.exec_time - s.compute_time - s.comm_time));
      msgs = std::max(msgs, static_cast<double>(s.messages_sent));
      pool_reuses += static_cast<double>(s.pool_reuses);
      msgs_received += static_cast<double>(s.messages_received);
    }
    for (double t : m.proc_times) {
      tmax = std::max(tmax, t);
      tsum += t;
    }
    sim_compute += comp;
    sim_comm += comm;
    sim_idle += idle;
    max_proc_msgs = std::max(max_proc_msgs, msgs);
    if (tsum > 0)
      imbalance = std::max(imbalance, tmax / (tsum / static_cast<double>(m.proc_times.size())));
  }
};

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// --- compile layers, traced from outside --------------------------------------

/// Pre-order statement numbering, as compile::compile_source assigns it
/// (the plan caches key on stmt_id).
void number_stmts(std::vector<f90d::compile::SpmdStmtPtr>& body, int& next) {
  for (auto& s : body) {
    s->stmt_id = next++;
    number_stmts(s->body, next);
    number_stmts(s->else_body, next);
  }
}

/// compile::compile_source's pipeline, one span per layer call.
svc::ArtifactPtr traced_compile(const std::string& source, const svc::RunSpec& spec,
                                Tracer& tr, int parent, int req) {
  namespace fe = f90d::frontend;
  namespace cc = f90d::compile;
  auto a = std::make_shared<svc::Artifact>();
  a->key = svc::artifact_key(source, spec);
  const auto t0 = Clock::now();
  try {
    std::optional<f90d::ast::Program> ast;
    {
      Scope s(tr, "frontend.parse", parent, req);
      ast.emplace(fe::parse_program(source));
    }
    std::optional<fe::SemaResult> sema;
    {
      Scope s(tr, "frontend.sema", parent, req);
      sema.emplace(fe::analyze(std::move(*ast)));
    }
    std::optional<f90d::mapping::MappingTable> mapping;
    {
      Scope s(tr, "mapping.build", parent, req);
      mapping.emplace(f90d::mapping::build_mapping(*sema, spec.grid));
    }
    std::optional<cc::NormProgram> norm;
    {
      Scope s(tr, "compile.normalize", parent, req);
      norm.emplace(cc::normalize(sema->program, sema->symbols));
    }
    std::optional<cc::SpmdProgram> prog;
    {
      Scope s(tr, "compile.codegen", parent, req);
      prog.emplace(cc::generate(*norm, *mapping, sema->symbols, spec.codegen));
    }
    {
      Scope s(tr, "compile.comm_opt", parent, req);
      cc::optimize_comm(*prog, spec.codegen);
    }
    int next = 0;
    number_stmts(prog->body, next);
    std::string listing;
    {
      Scope s(tr, "compile.emit", parent, req);
      listing = cc::emit_f77(*prog);
    }
    a->compiled = std::make_shared<const cc::Compiled>(cc::Compiled{
        std::move(*sema), std::move(*mapping), std::move(*prog), std::move(listing)});
  } catch (const f90d::Error& e) {
    a->error = e.what();
  }
  a->compile_ms = ms_between(t0, Clock::now());
  return a;
}

const char* const kCompileLayers[] = {"frontend.parse", "frontend.sema", "mapping.build",
                                      "compile.normalize", "compile.codegen",
                                      "compile.comm_opt", "compile.emit"};

struct Record {
  bool ok = true;
  bool nondeterministic = false;
  long long attempted = 0;
  long long failed = 0;
  std::string fingerprint;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, double>> info;
};

// --- end-to-end statistics -------------------------------------------------------

/// Requests per second the run sustained in its slowest tenth: the run is
/// cut into stretches of whole requests lasting at least kStretchS each, and
/// the p10 of their rates is reported.  `done_s` holds the completion times
/// (seconds into the loop) of the requests that succeeded.
constexpr double kStretchS = 1.0;
double sustained_rate(std::vector<double> done_s, double wall_s) {
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> rates;
  double from = 0;
  int n = 0;
  for (double t : done_s) {
    ++n;
    if (t - from >= kStretchS) {
      rates.push_back(n / (t - from));
      from = t;
      n = 0;
    }
  }
  if (rates.size() < 3) return static_cast<double>(done_s.size()) / wall_s;
  return percentile(rates, 0.1);
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
/// On shared machines the medians of host times flip between a fast and a
/// slow mode from run to run (perfbench/README.md), so they are reported in
/// the record's info but the bounded metrics are the p90s.
struct EndToEnd {
  double setup_s = 0;
  std::vector<double> compile_ms, run_ms, req_ms;
  std::vector<double> done_s;  ///< completion times of the good requests
  double wall_s = 0;
  std::vector<ProgramResult> totals;  ///< the runs sim_s/messages/bytes sum

  void emit(Record& rec) const;
};

// --- batch workloads: stencil, gauss, irregular ---------------------------------

/// One request: compile every program of the workload from source, run it
/// warm-process, and check it against the oracle.
struct Sample {
  double compile_ms = 0;
  double run_ms = 0;
  double total_ms = 0;
  bool ok = true;
  std::string fp;
  std::vector<ProgramResult> results;
};

Sample request(const std::vector<Case>& cases, Tracer& tr, int req,
               const f90d::interp::RunOptions* override_ro = nullptr,
               bool keep = false) {
  Sample s;
  const auto t0 = Clock::now();
  const int root = tr.open("bench.request", -1, req);
  for (const Case& c : cases) {
    try {
      const auto tc = Clock::now();
      svc::ArtifactPtr a = tr.on() ? traced_compile(c.source, c.spec, tr, root, req)
                                   : svc::compile_artifact(c.source, c.spec);
      const auto tr0 = Clock::now();
      s.compile_ms += ms_between(tc, tr0);
      if (!a->compiled) {
        std::printf("compile failed: %s: %s\n", c.name.c_str(), a->error.c_str());
        s.ok = false;
        continue;
      }
      const f90d::interp::RunOptions& ro = override_ro ? *override_ro : c.spec.run;
      svc::Outcome o;
      {
        Scope sp(tr, "interp.run", root, req);
        o = svc::run_artifact(a, c.spec, ro);
      }
      s.run_ms += ms_between(tr0, Clock::now());
      {
        Scope sp(tr, "bench.verify", root, req);
        // Skeleton runs charge arithmetic without doing it: nothing to check.
        if (!ro.skeleton && !verify(c, o.result)) {
          std::printf("wrong result: %s\n", c.name.c_str());
          s.ok = false;
        }
      }
      s.fp += fingerprint(o.result) + ";";
      if (keep) s.results.push_back(std::move(o.result));
    } catch (const std::exception& e) {
      std::printf("run failed: %s: %s\n", c.name.c_str(), e.what());
      s.ok = false;
    }
  }
  tr.close(root);
  s.total_ms = ms_between(t0, Clock::now());
  return s;
}


/// The samples of one window of back-to-back requests.
struct Phase {
  std::vector<double> compile_ms, run_ms, total_ms, done_s;
  double wall_s = 0;
  long long failed = 0;
  bool nondeterministic = false;
};

/// Requests back to back until `budget_s` has passed and at least
/// `min_samples` were taken.  Every result is verified, and (unless the run
/// options are overridden) must repeat the cold run's fingerprint.
Phase request_phase(const std::vector<Case>& cases, Tracer& tr, int& req,
                    const std::string& expect_fp, double budget_s, int min_samples,
                    const f90d::interp::RunOptions* override_ro = nullptr) {
  Phase ph;
  const auto t0 = Clock::now();
  while (static_cast<int>(ph.run_ms.size()) < min_samples || now_s(t0) < budget_s) {
    Sample s = request(cases, tr, ++req, override_ro);
    ph.compile_ms.push_back(s.compile_ms);
    ph.run_ms.push_back(s.run_ms);
    ph.total_ms.push_back(s.ok ? s.total_ms : std::numeric_limits<double>::infinity());
    if (s.ok) ph.done_s.push_back(now_s(t0));
    if (!s.ok) ++ph.failed;
    if (!override_ro && s.ok && s.fp != expect_fp && !ph.nondeterministic) {
      std::printf("nondeterministic: expected %s\n                   got      %s\n",
                  expect_fp.c_str(), s.fp.c_str());
      ph.nondeterministic = true;
    }
  }
  ph.wall_s = now_s(t0);
  return ph;
}

/// Setup: from source text to the first verified result.
Sample setup_batch(const std::vector<Case>& cases, Tracer& tr, double& setup_s) {
  const auto t0 = Clock::now();
  Sample s = request(cases, tr, 0, nullptr, /*keep=*/true);
  setup_s = now_s(t0);
  return s;
}

void EndToEnd::emit(Record& rec) const {
  double sim = 0, msgs = 0, bytes = 0;
  for (const ProgramResult& r : totals) {
    sim += r.machine.exec_time;
    msgs += static_cast<double>(r.machine.total_messages());
    bytes += static_cast<double>(r.machine.total_bytes());
  }
  rec.metrics = {{"setup_s", setup_s, "s"},
                 {"compile_ms_p90", percentile(compile_ms, 0.9), "ms"},
                 {"run_ms_p90", percentile(run_ms, 0.9), "ms"},
                 {"sim_s", sim, "s"},
                 {"messages", msgs, "count"},
                 {"bytes", bytes, "bytes"},
                 {"req_per_s", sustained_rate(done_s, wall_s), "1/s"},
                 {"req_ms_p90", percentile(req_ms, 0.9), "ms"},
                 {"peak_rss_mb", peak_rss_mb(), "MiB"}};
  rec.info.push_back({"compile_ms_p50", median(compile_ms)});
  rec.info.push_back({"run_ms_p50", median(run_ms)});
  rec.info.push_back({"req_ms_p50", median(req_ms)});
  rec.info.push_back({"req_per_s_mean", static_cast<double>(done_s.size()) / wall_s});
  rec.info.push_back({"run_samples", static_cast<double>(run_ms.size())});
}

Record run_batch(const Args& args) {
  Record rec;
  const std::vector<Case> cases = make_batch(args.workload, args.seed, args.smoke);
  Tracer off(false);
  double setup_s = 0;
  Sample cold = setup_batch(cases, off, setup_s);
  rec.attempted = 1;
  rec.failed = cold.ok ? 0 : 1;
  rec.ok = cold.ok;
  rec.fingerprint = cold.fp;
  if (args.mode == "setup" || !cold.ok) {
    rec.metrics.push_back({"setup_s", setup_s, "s"});
    return rec;
  }
  // Every request compiles its programs afresh, so compile_ms, run_ms and
  // req_ms all sample the whole measuring window.
  const int min_samples = args.smoke ? 5 : 100;
  int req = 0;
  Phase ph = request_phase(cases, off, req, cold.fp, args.seconds, min_samples);
  rec.attempted += static_cast<long long>(ph.run_ms.size());
  rec.failed += ph.failed;
  rec.nondeterministic = ph.nondeterministic;
  EndToEnd e{setup_s, ph.compile_ms, ph.run_ms, ph.total_ms, ph.done_s, ph.wall_s,
             std::move(cold.results)};
  e.emit(rec);
  return rec;
}

// --- traced run: per-layer table and metrics ------------------------------------

struct LayerRow {
  int calls = 0;
  double self_ms = 0;
};

/// Per-request sums of each layer's self time (spans named `name` under
/// each root), plus the roots' own self time as `unattributed`.
std::map<std::string, std::vector<double>> per_request_layers(
    const Tracer& tr, const std::string& root_name, int first_req,
    std::map<std::string, LayerRow>& table, double& wall_ms) {
  const auto& spans = tr.spans();
  const std::vector<double> self = tr.self_ms();
  std::map<int, std::map<std::string, double>> by_req;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    if (s.request < first_req) continue;
    const bool root = s.parent < 0;
    if (root && s.name != root_name) continue;
    const std::string name = root ? "unattributed" : s.name;
    by_req[s.request][name] += self[i];
    table[name].calls += 1;
    table[name].self_ms += self[i];
    if (root) wall_ms += (s.end_us - s.start_us) / 1000.0;
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [req, layers] : by_req)
    for (const auto& [name, ms] : layers) out[name].push_back(ms);
  return out;
}

void print_table(const std::map<std::string, LayerRow>& table, double wall_ms) {
  std::printf("%-22s %8s %12s %8s\n", "layer", "calls", "self_ms", "share");
  double sum = 0;
  for (const auto& [name, row] : table) {
    std::printf("%-22s %8d %12.3f %7.2f%%\n", name.c_str(), row.calls, row.self_ms,
                100.0 * ratio(row.self_ms, wall_ms));
    sum += row.self_ms;
  }
  std::printf("%-22s %8s %12.3f %7.2f%%  (traced wall %.3f ms)\n", "total", "",
              sum, 100.0 * ratio(sum, wall_ms), wall_ms);
}

double med_or0(const std::map<std::string, std::vector<double>>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : median(it->second);
}

/// The per-layer metric set, in BENCHMARK.json order.  Values a workload
/// cannot produce (the hand-written GE on `stencil`, service counters on
/// batch workloads) are 0.
struct PerLayer {
  std::map<std::string, std::vector<double>> layer_ms;  // per request
  double comm_actions = 0, comm_eliminated = 0;
  double cold_run_ms = 0, warm_run_ms = 0, skeleton_run_ms = 0, tape_run_ms = 0;
  double native_compiles = 0, native_compile_ms = 0;
  Layers warm;
  double sim_s = 0, handwritten_sim_s = 0;
  double artifact_hit_ratio = 0, coalesced = 0, shared_sched_hits = 0,
         shared_plan_hits = 0, service_run_ms = 0, queue_ms = 0, refused = 0;
  double overhead_ms = 0;
  double error_rate = 0;

  std::vector<Metric> metrics() const {
    std::vector<Metric> m;
    const char* const names[] = {"frontend.parse_ms", "frontend.sema_ms",
                                 "mapping.build_ms", "compile.normalize_ms",
                                 "compile.codegen_ms", "compile.comm_opt_ms",
                                 "compile.emit_ms"};
    for (std::size_t i = 0; i < 7; ++i)
      m.push_back({names[i], med_or0(layer_ms, kCompileLayers[i]), "ms"});
    m.push_back({"compile.comm_actions", comm_actions, "count"});
    m.push_back({"compile.comm_eliminated", comm_eliminated, "count"});
    m.push_back({"interp.cold_run_ms", cold_run_ms, "ms"});
    m.push_back({"interp.warm_run_ms", warm_run_ms, "ms"});
    m.push_back({"interp.skeleton_run_ms", skeleton_run_ms, "ms"});
    m.push_back({"interp.tape_run_ms", tape_run_ms, "ms"});
    m.push_back({"interp.kernel_compute_est_ms",
                 skeleton_run_ms > 0 ? warm_run_ms - skeleton_run_ms : 0, "ms"});
    const Layers& w = warm;
    m.push_back({"exec.plan_hits", w.plan_hits, "count"});
    m.push_back({"exec.plan_misses", w.plan_misses, "count"});
    m.push_back({"exec.plan_hit_ratio", ratio(w.plan_hits, w.plan_hits + w.plan_misses), "ratio"});
    m.push_back({"exec.irregular_hits", w.irr_hits, "count"});
    m.push_back({"exec.irregular_misses", w.irr_misses, "count"});
    m.push_back({"exec.comm_plan_hits", w.cp_hits, "count"});
    m.push_back({"exec.comm_plan_misses", w.cp_misses, "count"});
    m.push_back({"exec.comm_plan_fast_bytes", w.cp_fast_bytes, "bytes"});
    m.push_back({"native.compiles", native_compiles, "count"});
    m.push_back({"native.compile_ms", native_compile_ms, "ms"});
    m.push_back({"native.cache_hits", w.native_cache_hits, "count"});
    m.push_back({"native.runs", w.native_runs, "count"});
    m.push_back({"native.fallbacks", w.native_fallbacks, "count"});
    m.push_back({"native.run_ratio", ratio(w.native_runs, w.native_runs + w.native_fallbacks), "ratio"});
    m.push_back({"machine.sim_compute_s", w.sim_compute, "s"});
    m.push_back({"machine.sim_comm_s", w.sim_comm, "s"});
    m.push_back({"machine.sim_idle_s", w.sim_idle, "s"});
    m.push_back({"machine.load_imbalance", w.imbalance, "ratio"});
    m.push_back({"machine.max_proc_messages", w.max_proc_msgs, "count"});
    m.push_back({"machine.pool_reuse_ratio", ratio(w.pool_reuses, w.msgs_received), "ratio"});
    m.push_back({"gauss.sim_s_handwritten", handwritten_sim_s, "s"});
    m.push_back({"gauss.sim_gap_ratio", ratio(sim_s, handwritten_sim_s), "ratio"});
    m.push_back({"parti.schedules_built", w.sched_built, "count"});
    m.push_back({"parti.schedule_hits", w.sched_hits, "count"});
    m.push_back({"parti.schedule_hit_ratio", ratio(w.sched_hits, w.sched_hits + w.sched_misses), "ratio"});
    m.push_back({"parti.gather_bytes", w.gather_bytes, "bytes"});
    m.push_back({"parti.scatter_bytes", w.scatter_bytes, "bytes"});
    m.push_back({"service.artifact_hit_ratio", artifact_hit_ratio, "ratio"});
    m.push_back({"service.coalesced", coalesced, "count"});
    m.push_back({"service.shared_schedule_hits", shared_sched_hits, "count"});
    m.push_back({"service.shared_plan_hits", shared_plan_hits, "count"});
    m.push_back({"service.run_ms_p50", service_run_ms, "ms"});
    m.push_back({"service.queue_ms_p50", queue_ms, "ms"});
    m.push_back({"service.refused", refused, "count"});
    m.push_back({"trace.overhead_ms", overhead_ms, "ms"});
    m.push_back({"trace.unattributed_ms", med_or0(layer_ms, "unattributed"), "ms"});
    m.push_back({"error_rate", error_rate, "ratio"});
    return m;
  }
};

void count_actions(const std::vector<Case>& cases, PerLayer& pl) {
  for (const Case& c : cases) {
    const auto compiled = f90d::compile::compile_source(c.source, c.spec.grid, c.spec.codegen);
    for (const auto& [kind, n] : compiled.program.action_histogram) {
      if (kind.find("(eliminated)") != std::string::npos)
        pl.comm_eliminated += n;
      else
        pl.comm_actions += n;
    }
  }
}

Record trace_batch(const Args& args) {
  Record rec;
  const std::vector<Case> cases = make_batch(args.workload, args.seed, args.smoke);
  Tracer tr(true);
  PerLayer pl;
  double setup_s = 0;
  Sample cold = setup_batch(cases, tr, setup_s);
  rec.attempted = 1;
  rec.failed = cold.ok ? 0 : 1;
  rec.ok = cold.ok;
  rec.fingerprint = cold.fp;
  if (!cold.ok) return rec;
  pl.cold_run_ms = cold.run_ms;
  for (const ProgramResult& r : cold.results) {
    pl.native_compiles += static_cast<double>(r.native_compiles);
    pl.native_compile_ms += r.native_compile_ms;
    pl.sim_s += r.machine.exec_time;
  }
  count_actions(cases, pl);

  // Untraced, then traced, warm requests: the difference is the overhead.
  const int min_samples = args.smoke ? 3 : 20;
  Tracer off(false);
  int req = 0;
  Phase plain = request_phase(cases, off, req, cold.fp, 0.25 * args.seconds, min_samples);
  const int first_traced = req + 1;
  Phase traced = request_phase(cases, tr, req, cold.fp, 0.35 * args.seconds, min_samples);
  pl.warm_run_ms = median(traced.run_ms);
  pl.overhead_ms = median(traced.run_ms) - median(plain.run_ms);
  Sample warm = request(cases, off, ++req, nullptr, /*keep=*/true);
  for (const ProgramResult& r : warm.results) pl.warm.add(r);

  // Ablations on the same artifacts: skeleton (arithmetic charged, not
  // done) and the tape interpreter (native backend off).
  f90d::interp::RunOptions skel = cases[0].spec.run;
  skel.skeleton = true;
  f90d::interp::RunOptions tape = cases[0].spec.run;
  tape.native_backend = false;
  Phase ps = request_phase(cases, off, req, "", 0.1 * args.seconds, 3, &skel);
  Phase pt = request_phase(cases, off, req, "", 0.15 * args.seconds, 3, &tape);
  pl.skeleton_run_ms = median(ps.run_ms);
  pl.tape_run_ms = median(pt.run_ms);

  if (args.workload == "gauss") {
    const Case& c = cases[0];
    const int p = static_cast<int>(warm.results[0].machine.proc_times.size());
    f90d::machine::SimMachine m(p, c.spec.cost, f90d::machine::make_hypercube());
    const auto hand = f90d::apps::run_gauss_handwritten(m, c.n, /*verify=*/false);
    pl.handwritten_sim_s = hand.run.exec_time;
  }

  rec.attempted += static_cast<long long>(plain.run_ms.size() + traced.run_ms.size() +
                                          ps.run_ms.size() + pt.run_ms.size()) + 1;
  rec.failed += plain.failed + traced.failed + ps.failed + pt.failed + (warm.ok ? 0 : 1);
  rec.nondeterministic = plain.nondeterministic || traced.nondeterministic ||
                         (warm.ok && warm.fp != cold.fp);
  pl.error_rate = ratio(static_cast<double>(rec.failed), static_cast<double>(rec.attempted));

  std::map<std::string, LayerRow> table;
  double wall_ms = 0;
  pl.layer_ms = per_request_layers(tr, "bench.request", first_traced, table, wall_ms);
  std::printf("per-layer self time over %zu traced requests (%s, seed %llu)\n",
              traced.run_ms.size(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  print_table(table, wall_ms);
  std::printf("interp.kernel_compute_est_ms is an estimate: warm minus skeleton run\n");
  rec.metrics = pl.metrics();
  if (!args.trace_file.empty()) std::ofstream(args.trace_file) << tr.chrome_json();
  return rec;
}

// --- service workload -----------------------------------------------------------------

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kFamilyLength = 400000;  ///< more requests than any run completes
constexpr int kTotalsPrograms = 64;    ///< sim_s/messages/bytes: first programs, cold
constexpr int kCompilePrograms = 32;   ///< traced compile layers: first programs
constexpr int kSetupRepeats = 5;

/// One reply, reduced as it arrives to what the benchmark checks and reports.
struct Reply {
  int program = 0;
  bool ok = false;       ///< transport worked and the server answered OK
  bool refused = false;  ///< the server shed the request ("busy")
  bool artifact_hit = false;
  bool compiled = false;  ///< this request's own compile (miss, not coalesced)
  double latency_ms = 0, run_ms = 0, compile_ms = 0;
  double done_s = 0;  ///< completion, seconds into the loop
  double sched_shared = 0, plan_shared = 0;
  std::size_t machine = 0;  ///< hash of the simulated-machine sections
  std::string error;
};

/// Text between `from` and `to` in a reply.
std::string section(const std::string& json, const std::string& from, const std::string& to) {
  const auto a = json.find(from);
  if (a == std::string::npos) return {};
  const auto b = to.empty() ? json.size() : json.find(to, a);
  return b == std::string::npos ? std::string() : json.substr(a, b - a);
}

/// Hash of the parts of run_stats_json that describe the simulated run
/// (virtual time, traffic, every processor's stats); they must match the
/// reference exactly.  0 = missing.
std::size_t machine_hash(const std::string& json) {
  const std::string part = section(json, "\"machine\":", ",\"schedule_cache\"") +
                           section(json, "\"procs\":", "");
  return part.empty() ? 0 : std::hash<std::string>{}(part) | 1;
}

double num_after(const std::string& json, const std::string& from, const std::string& key) {
  const auto a = json.find(from);
  return a == std::string::npos ? 0 : f90d::json_number_or(json.substr(a), key, 0);
}

Reply send(const std::string& socket, const Family& f, int i) {
  Reply r;
  r.program = f.sequence[static_cast<std::size_t>(i)];
  svc::WireRequest req;
  req.source = f.sources[static_cast<std::size_t>(r.program)];
  const auto t0 = Clock::now();
  const svc::ClientResult cr = svc::request(socket, req);
  r.latency_ms = ms_between(t0, Clock::now());
  r.ok = cr.connected && cr.ok;
  r.refused = cr.connected && !cr.ok && cr.body.find("busy") != std::string::npos;
  if (!r.ok) {
    r.error = (cr.error + " " + cr.body).substr(0, 200);
    return r;
  }
  r.run_ms = f90d::json_number_or(cr.body, "run_ms", 0);
  r.artifact_hit = cr.body.find("\"artifact_hit\":true") != std::string::npos;
  r.compiled = !r.artifact_hit &&
               cr.body.find("\"artifact_coalesced\":true") == std::string::npos;
  // On an artifact hit the reply repeats the memoized compile time; this
  // request did not pay it.
  r.compile_ms = r.artifact_hit ? 0 : f90d::json_number_or(cr.body, "compile_ms", 0);
  r.sched_shared = num_after(cr.body, "\"schedule_cache\"", "shared_hits");
  r.plan_shared = num_after(cr.body, "\"plan_cache\"", "shared_hits");
  r.machine = machine_hash(cr.body);
  return r;
}

/// In-process references for the request family.  A reply whose run built
/// its schedules must equal compile_and_run of the same request; one that
/// took them from the shared store must equal a repeat through an
/// in-process ServiceCore (the skipped inspector saves messages).  Every
/// family program has at most one schedule, so no run can mix the two.
class References {
 public:
  explicit References(const Family& f) : f_(f) {}

  static svc::RunSpec spec() { return svc::spec_from_request(svc::WireRequest{}); }

  /// The cold run of program `id` (kept for the first kTotalsPrograms).
  const svc::Outcome& cold(int id) {
    auto it = cold_.find(id);
    if (it == cold_.end()) {
      svc::Outcome o;
      try {
        o = svc::compile_and_run(source(id), spec());
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      cold_hash_[id] = o.ok ? machine_hash(svc::run_stats_json(o)) : 0;
      it = cold_.emplace(id, std::move(o)).first;
    }
    return it->second;
  }

  bool check(const Reply& r) {
    if (!r.ok || r.machine == 0) return false;
    if (r.sched_shared == 0) return r.machine == cold_hash(r.program);
    auto it = warm_hash_.find(r.program);
    if (it == warm_hash_.end()) {
      svc::ServiceCore core;
      (void)core.submit(source(r.program), spec());
      const svc::Outcome o = core.submit(source(r.program), spec());
      it = warm_hash_.emplace(r.program, o.ok ? machine_hash(svc::run_stats_json(o)) : 0).first;
    }
    return r.machine == it->second;
  }

 private:
  const std::string& source(int id) const { return f_.sources[static_cast<std::size_t>(id)]; }
  std::size_t cold_hash(int id) {
    if (auto it = cold_hash_.find(id); it != cold_hash_.end()) return it->second;
    (void)cold(id);
    const std::size_t h = cold_hash_[id];
    if (id >= kTotalsPrograms) cold_.erase(id);  // keep memory flat
    return h;
  }

  const Family& f_;
  std::map<int, svc::Outcome> cold_;
  std::map<int, std::size_t> cold_hash_, warm_hash_;
};

/// The daemon under test, in-process, on a Unix socket in the scratch area.
/// Destruction stops it and joins its threads (Server's destructor).
class LiveServer {
 public:
  LiveServer() {
    const char* base = std::getenv("PERFBENCH_SCRATCH");
    svc::ServerOptions so;
    so.socket_path = std::string(base && *base ? base : ".") + "/s" +
                     std::to_string(::getpid()) + ".sock";
    so.workers = kWorkers;
    server_ = std::make_unique<svc::Server>(so);
    std::string err;
    ok_ = server_->start(err);
    if (!ok_) std::printf("server start failed: %s\n", err.c_str());
  }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& socket() const { return server_->options().socket_path; }
  [[nodiscard]] svc::ServiceCore& core() { return server_->core(); }

 private:
  std::unique_ptr<svc::Server> server_;
  bool ok_ = false;
};

/// Closed loop: kClients callers, each waiting for its reply before taking
/// the next request of the seeded sequence, until `budget_s` has passed.
std::vector<Reply> closed_loop(const std::string& socket, const Family& f,
                               std::atomic<int>& next, double budget_s,
                               Tracer* tr, double& wall_s) {
  std::vector<std::vector<Reply>> per(kClients);
  for (auto& v : per) v.reserve(static_cast<std::size_t>(f.sequence.size()) / kClients);
  std::vector<Tracer> tracers;
  for (int c = 0; c < kClients; ++c) tracers.emplace_back(tr != nullptr);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (int c = 0; c < kClients; ++c)
    pool.emplace_back([&, c] {
      Tracer& t = tracers[static_cast<std::size_t>(c)];
      while (now_s(t0) < budget_s) {
        const int i = next.fetch_add(1);
        if (i >= static_cast<int>(f.sequence.size())) return;
        const double start = t.now_us();
        Reply r = send(socket, f, i);
        r.done_s = now_s(t0);
        if (t.on()) {
          // The server's compile and run durations come back in the reply
          // and are placed at the end of the request span; wire, accept and
          // queueing time stay unattributed.
          const double end = t.now_us();
          const int root = t.add("service.request", start, end, -1, i, c + 1);
          const double run_start = std::max(start, end - 1000.0 * r.run_ms);
          if (r.compile_ms > 0)
            t.add("service.compile", std::max(start, run_start - 1000.0 * r.compile_ms),
                  run_start, root, i, c + 1);
          if (r.ok) t.add("service.run", run_start, end, root, i, c + 1);
        }
        per[static_cast<std::size_t>(c)].push_back(std::move(r));
      }
    });
  for (std::thread& t : pool) t.join();
  wall_s = now_s(t0);
  std::vector<Reply> all;
  all.reserve(per[0].size() + per[1].size());
  for (auto& v : per)
    for (Reply& r : v) all.push_back(std::move(r));
  if (tr != nullptr)
    for (const Tracer& t : tracers) tr->merge(t);
  return all;
}

/// Verify every reply; returns the number of failures.
long long check_replies(const std::vector<Reply>& replies, References& refs) {
  long long failed = 0;
  for (const Reply& r : replies)
    if (!refs.check(r)) {
      if (failed == 0)
        std::printf("bad reply for program %d: %s\n", r.program, r.error.c_str());
      ++failed;
    }
  return failed;
}

/// Fingerprint and totals of the first kTotalsPrograms family programs, cold.
std::string family_totals(const Family& f, References& refs, std::vector<ProgramResult>& out) {
  std::string fp;
  const int n = std::min<int>(kTotalsPrograms, static_cast<int>(f.sources.size()));
  for (int id = 0; id < n; ++id) {
    const svc::Outcome& o = refs.cold(id);
    fp += o.ok ? fingerprint(o.result) + ";" : "error;";
    out.push_back(o.result);
  }
  return fp;
}

/// Set-up: a fresh server from start to its first good reply, kSetupRepeats
/// times; the median.
double service_setup(const Family& f, References& refs, Record& rec) {
  std::vector<double> times;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const auto t0 = Clock::now();
    std::vector<Reply> first;
    {
      LiveServer server;
      if (server.ok()) first.push_back(send(server.socket(), f, 0));
      times.push_back(now_s(t0));
    }
    rec.attempted += 1;
    rec.failed += first.empty() ? 1 : check_replies(first, refs);
  }
  return median(times);
}

Record run_service(const Args& args) {
  Record rec;
  const Family f = make_family(args.seed, args.smoke, kFamilyLength);
  References refs(f);
  const double setup_s = service_setup(f, refs, rec);
  std::vector<ProgramResult> totals;
  rec.fingerprint = family_totals(f, refs, totals);
  rec.ok = rec.failed == 0;
  const bool trace = args.mode == "trace";
  if (args.mode == "setup" || !rec.ok) {
    rec.metrics.push_back({"setup_s", setup_s, "s"});
    return rec;
  }

  std::atomic<int> next{0};
  Tracer tr(trace);
  double wall_s = 0, traced_wall_s = 0;
  std::vector<Reply> plain, traced;
  int first_traced = 0;
  f90d::service::ArtifactCache::Stats astats;
  {
    LiveServer server;
    if (!server.ok()) {
      rec.ok = false;
      return rec;
    }
    plain = closed_loop(server.socket(), f, next, (trace ? 0.4 : 0.95) * args.seconds,
                        nullptr, wall_s);
    first_traced = next.load();
    if (trace)
      traced = closed_loop(server.socket(), f, next, 0.4 * args.seconds, &tr, traced_wall_s);
    astats = server.core().artifacts().stats();
  }  // the daemon is stopped and joined before verification

  rec.attempted += static_cast<long long>(plain.size() + traced.size());
  rec.failed += check_replies(plain, refs) + check_replies(traced, refs);
  std::vector<ProgramResult> again;
  if (family_totals(f, refs, again) != rec.fingerprint) rec.nondeterministic = true;

  auto latencies = [](const std::vector<Reply>& v) {
    std::vector<double> lat;
    for (const Reply& r : v)
      lat.push_back(r.ok ? r.latency_ms : std::numeric_limits<double>::infinity());
    return lat;
  };
  const std::vector<Reply>& window = trace ? traced : plain;
  // compile_ms: the server's compile_source wall for each new program.
  std::vector<double> run_ms, queue_ms, compiles;
  double refused = 0, shared_sched = 0, shared_plan = 0;
  for (const Reply& r : window) {
    refused += r.refused ? 1 : 0;
    if (!r.ok) continue;
    if (r.compiled) compiles.push_back(r.compile_ms);
    run_ms.push_back(r.run_ms);
    queue_ms.push_back(r.latency_ms - r.run_ms - r.compile_ms);
    shared_sched += r.sched_shared;
    shared_plan += r.plan_shared;
  }

  if (!trace) {
    std::vector<double> done;
    for (const Reply& r : plain)
      if (r.ok) done.push_back(r.done_s);
    EndToEnd e{setup_s, compiles, run_ms, latencies(plain), std::move(done), wall_s, totals};
    e.emit(rec);
    rec.info.push_back({"requests", static_cast<double>(plain.size())});
    rec.info.push_back({"distinct_programs", static_cast<double>(astats.misses)});
    return rec;
  }

  PerLayer pl;
  // Compile layers: the first family programs, traced in-process.
  const int nc = std::min<int>(kCompilePrograms, static_cast<int>(f.sources.size()));
  Tracer ctr(true);
  std::vector<Case> fam_cases;
  for (int id = 0; id < nc; ++id) {
    Case c;
    c.source = f.sources[static_cast<std::size_t>(id)];
    c.spec = References::spec();
    fam_cases.push_back(std::move(c));
  }
  for (int rep = 0, req = 0; rep < 5; ++rep)
    for (const Case& c : fam_cases) {
      const int root = ctr.open("bench.compile", -1, ++req);
      (void)traced_compile(c.source, c.spec, ctr, root, req);
      ctr.close(root);
    }
  std::map<std::string, LayerRow> ctable;
  double cwall = 0;
  pl.layer_ms = per_request_layers(ctr, "bench.compile", 0, ctable, cwall);
  count_actions(fam_cases, pl);
  for (const ProgramResult& r : totals) {
    pl.warm.add(r);
    pl.sim_s += r.machine.exec_time;
  }
  pl.cold_run_ms = plain.empty() ? 0 : plain.front().run_ms;
  pl.warm_run_ms = median(run_ms);
  pl.service_run_ms = median(run_ms);
  pl.queue_ms = median(queue_ms);
  pl.artifact_hit_ratio = ratio(static_cast<double>(astats.hits),
                                static_cast<double>(astats.hits + astats.misses + astats.coalesced));
  pl.coalesced = static_cast<double>(astats.coalesced);
  pl.shared_sched_hits = shared_sched;
  pl.shared_plan_hits = shared_plan;
  pl.refused = refused;
  pl.overhead_ms = median(latencies(traced)) - median(latencies(plain));
  pl.error_rate = ratio(static_cast<double>(rec.failed), static_cast<double>(rec.attempted));

  std::map<std::string, LayerRow> table;
  double wall_ms = 0;
  const auto req_layers = per_request_layers(tr, "service.request", first_traced, table, wall_ms);
  for (const auto& [name, v] : req_layers) pl.layer_ms[name] = v;
  std::printf("per-layer self time over %zu traced requests (service, seed %llu)\n",
              traced.size(), static_cast<unsigned long long>(args.seed));
  print_table(table, wall_ms);
  std::printf("compile layers, in-process over %d family programs x 5\n", nc);
  print_table(ctable, cwall);
  rec.metrics = pl.metrics();
  if (!args.trace_file.empty()) {
    tr.merge(ctr);
    std::ofstream(args.trace_file) << tr.chrome_json();
  }
  return rec;
}

// --- main ---------------------------------------------------------------------------

void print_record(const Args& args, const Record& rec) {
  f90d::JsonWriter w;
  w.begin_object()
      .field("workload", args.workload)
      .field("mode", args.mode)
      .field("seed", static_cast<long long>(args.seed))
      .field("ok", rec.ok)
      .field("nondeterministic", rec.nondeterministic)
      .field("attempted", rec.attempted)
      .field("failed", rec.failed)
      .field("fingerprint", rec.fingerprint)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("compiler", PERFBENCH_COMPILER);
  w.key("metrics").begin_object();
  for (const Metric& m : rec.metrics)
    w.key(m.name).begin_object().field("value", m.value).field("unit", m.unit).end_object();
  w.end_object();
  w.key("info").begin_object();
  w.field("error_rate", ratio(static_cast<double>(rec.failed), static_cast<double>(rec.attempted)));
  for (const auto& [k, v] : rec.info) w.field(k, v);
  w.end_object().end_object();
  std::printf("%s\n", w.str().c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload stencil|gauss|irregular|service --seed N\n"
               "                 --seconds T --mode setup|measure|trace [--smoke]\n"
               "                 [--trace-file FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has = i + 1 < argc;
    if (a == "--workload" && has) args.workload = argv[++i];
    else if (a == "--mode" && has) args.mode = argv[++i];
    else if (a == "--seed" && has) args.seed = std::strtoull(argv[++i], nullptr, 10);
    else if (a == "--seconds" && has) args.seconds = std::atof(argv[++i]);
    else if (a == "--trace-file" && has) args.trace_file = argv[++i];
    else if (a == "--smoke") args.smoke = true;
    else return usage();
  }
  const bool batch = args.workload == "stencil" || args.workload == "gauss" ||
                     args.workload == "irregular";
  if ((!batch && args.workload != "service") ||
      (args.mode != "setup" && args.mode != "measure" && args.mode != "trace") ||
      args.seconds <= 0)
    return usage();
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; configure with "
                         "-DCMAKE_BUILD_TYPE=Release\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Record rec;
  if (!batch)
    rec = run_service(args);
  else
    rec = args.mode == "trace" ? trace_batch(args) : run_batch(args);
  print_record(args, rec);
  return rec.ok && !rec.nondeterministic && rec.failed == 0 ? 0 : 1;
}
