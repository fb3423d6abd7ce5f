// f90d_loadgen — load generator for the resident compile service
// (docs/SERVICE.md): N client threads x M programs, cold vs warm, against
// the one-process-per-request baseline.
//
//   f90d_loadgen [--clients=N] [--requests=R] [--programs=M]
//                [--f90dc=PATH]    baseline CLI (default: next to argv[0])
//                [--socket=PATH]   drive a running f90dcd instead of the
//                                  in-process ServiceCore
//                [--json=FILE]     also write the record to FILE
//                [--skip-baseline]
//
// Two workloads are measured: `identical` (every request is the same
// program — the request-batching and warm-cache showcase) and `distinct`
// (requests round-robin over M different programs).  Each workload runs
// three phases:
//
//   baseline  one `f90dc --stats-json` subprocess per request, N at a time
//             (what every request cost before the daemon existed)
//   cold      a fresh service, N concurrent clients
//   warm      the same requests again on the now-warm service
//
// The record (stdout, and --json) holds per-phase throughput, latency
// percentiles, and cache-hit aggregates, plus warm_speedup_vs_baseline —
// the number the ISSUE acceptance gate reads.  The programs are
// self-initializing PARTI workloads (index arrays filled by FORALLs), so
// zero-fill daemon semantics hold and the schedule store sees real reuse.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"
#include "service/service.hpp"
#include "service/stats_json.hpp"
#include "support/diag.hpp"
#include "support/json.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using f90d::JsonWriter;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Self-initializing irregular gather/scatter program: exercises exec
/// plans, the PARTI inspector/executor, and the schedule cache, with no
/// Init transport needed.  `variant` perturbs N so each program is a
/// distinct artifact with distinct schedules.
std::string workload_source(int variant, int nprocs) {
  // Small on purpose: the service's win is eliminating the fixed
  // per-request costs (process spawn, parse/lower/optimize, cold caches),
  // so the interpreted run itself — which both sides pay — stays light.
  const int n = 64 + 16 * variant;
  return f90d::strformat(R"(PROGRAM LOAD%d
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      REAL C(N)
      INTEGER U(N)
      INTEGER V(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
      FORALL (I = 1:N) U(I) = MOD(I * 7 + 3, N) + 1
      FORALL (I = 1:N) V(I) = MOD(I * 11 + 5, N) + 1
      FORALL (I = 1:N) B(I) = I * 2.0
      FORALL (I = 1:N) C(I) = I * 100.0
      DO IT = 1, 2
        FORALL (I = 1:N) A(U(I)) = B(V(I)) + C(I)
      END DO
      END PROGRAM LOAD%d
)",
                         variant, n, nprocs, variant);
}

struct PhaseRecord {
  std::string name;
  int requests = 0;
  int failures = 0;
  double total_s = 0;
  double throughput_rps = 0;
  std::vector<double> latencies_ms;
  // Cache aggregates summed over requests.
  long long artifact_hits = 0;
  long long artifact_coalesced = 0;
  long long schedule_hits = 0;
  long long schedule_misses = 0;
  long long shared_schedule_hits = 0;
  long long native_cache_hits = 0;

  [[nodiscard]] double pct(double q) const {
    if (latencies_ms.empty()) return 0;
    std::vector<double> v = latencies_ms;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    return v[static_cast<std::size_t>(pos + 0.5)];
  }
  [[nodiscard]] double mean() const {
    if (latencies_ms.empty()) return 0;
    double s = 0;
    for (double x : latencies_ms) s += x;
    return s / static_cast<double>(latencies_ms.size());
  }
  /// Hit rate over (hits + misses); 0 when nothing was looked up.
  [[nodiscard]] static double rate(long long hits, long long total) {
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total)
                     : 0.0;
  }
};

struct Config {
  int clients = 4;
  int requests = 32;
  int programs = 4;
  int nprocs = 4;
  std::string f90dc;
  std::string socket;   ///< empty = in-process ServiceCore
  std::string json_path;
  bool skip_baseline = false;
  /// Minimum identical-workload warm speedup before exiting 2 (the
  /// acceptance gate).  0 disables — CI smoke runs on loaded runners.
  double floor = 5.0;
};

/// Run `fn(request_index)` for every request with `clients` threads.
template <typename Fn>
double drive(int requests, int clients, Fn&& fn) {
  std::atomic<int> next{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c)
    pool.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= requests) return;
        fn(i);
      }
    });
  for (std::thread& t : pool) t.join();
  return ms_since(t0) / 1000.0;
}

/// One-process-per-request baseline: each request spawns `f90dc
/// --stats-json <file>`, N at a time.
PhaseRecord run_baseline(const Config& cfg,
                         const std::vector<std::string>& files,
                         bool identical) {
  PhaseRecord rec;
  rec.name = "baseline";
  rec.requests = cfg.requests;
  rec.latencies_ms.assign(static_cast<std::size_t>(cfg.requests), 0.0);
  std::atomic<int> failures{0};
  rec.total_s = drive(cfg.requests, cfg.clients, [&](int i) {
    const std::string& file =
        files[identical ? 0 : static_cast<std::size_t>(i) % files.size()];
    const std::string cmd = "\"" + cfg.f90dc + "\" --stats-json \"" + file +
                            "\" > /dev/null 2>&1";
    const auto t0 = Clock::now();
    const int rc = std::system(cmd.c_str());
    rec.latencies_ms[static_cast<std::size_t>(i)] = ms_since(t0);
    if (rc != 0) ++failures;
  });
  rec.failures = failures.load();
  rec.throughput_rps =
      rec.total_s > 0 ? static_cast<double>(cfg.requests) / rec.total_s : 0;
  return rec;
}

/// One service phase: N clients x R requests against `core` (in-process)
/// or the daemon at cfg.socket.
PhaseRecord run_service_phase(const Config& cfg, f90d::service::ServiceCore* core,
                              const std::vector<std::string>& sources,
                              bool identical, const std::string& name) {
  PhaseRecord rec;
  rec.name = name;
  rec.requests = cfg.requests;
  rec.latencies_ms.assign(static_cast<std::size_t>(cfg.requests), 0.0);
  std::atomic<int> failures{0};
  std::mutex agg_mu;
  rec.total_s = drive(cfg.requests, cfg.clients, [&](int i) {
    const std::string& src =
        sources[identical ? 0 : static_cast<std::size_t>(i) % sources.size()];
    const auto t0 = Clock::now();
    if (core != nullptr) {
      const f90d::service::Outcome out =
          core->submit(src, f90d::service::RunSpec{});
      rec.latencies_ms[static_cast<std::size_t>(i)] = ms_since(t0);
      if (!out.ok) {
        ++failures;
        return;
      }
      std::lock_guard lk(agg_mu);
      rec.artifact_hits += out.artifact_hit ? 1 : 0;
      rec.artifact_coalesced += out.artifact_coalesced ? 1 : 0;
      rec.schedule_hits += out.result.schedule_hits;
      rec.schedule_misses += out.result.schedule_misses;
      rec.shared_schedule_hits += out.result.shared_schedule_hits;
      rec.native_cache_hits += out.result.native_cache_hits;
    } else {
      f90d::service::WireRequest req;
      req.source = src;
      const f90d::service::ClientResult res =
          f90d::service::request(cfg.socket, req);
      rec.latencies_ms[static_cast<std::size_t>(i)] = ms_since(t0);
      if (!res.connected || !res.ok) {
        ++failures;
        return;
      }
      using f90d::json_number_or;
      std::lock_guard lk(agg_mu);
      rec.artifact_hits +=
          res.body.find("\"artifact_hit\":true") != std::string::npos ? 1 : 0;
      rec.artifact_coalesced +=
          res.body.find("\"artifact_coalesced\":true") != std::string::npos
              ? 1
              : 0;
      rec.schedule_hits +=
          static_cast<long long>(json_number_or(res.body, "hits", 0));
      rec.schedule_misses +=
          static_cast<long long>(json_number_or(res.body, "misses", 0));
      rec.shared_schedule_hits +=
          static_cast<long long>(json_number_or(res.body, "shared_hits", 0));
    }
  });
  rec.failures = failures.load();
  rec.throughput_rps =
      rec.total_s > 0 ? static_cast<double>(cfg.requests) / rec.total_s : 0;
  return rec;
}

void emit_phase(JsonWriter& w, const PhaseRecord& rec) {
  w.key(rec.name)
      .begin_object()
      .field("requests", rec.requests)
      .field("failures", rec.failures)
      .field("total_s", rec.total_s)
      .field("throughput_rps", rec.throughput_rps)
      .field("latency_ms_mean", rec.mean())
      .field("latency_ms_p50", rec.pct(0.50))
      .field("latency_ms_p90", rec.pct(0.90))
      .field("latency_ms_p99", rec.pct(0.99))
      .field("artifact_hits", rec.artifact_hits)
      .field("artifact_coalesced", rec.artifact_coalesced)
      .field("artifact_hit_rate",
             PhaseRecord::rate(rec.artifact_hits, rec.requests))
      .field("schedule_hits", rec.schedule_hits)
      .field("schedule_misses", rec.schedule_misses)
      .field("shared_schedule_hits", rec.shared_schedule_hits)
      .field("shared_schedule_hit_rate",
             PhaseRecord::rate(rec.shared_schedule_hits,
                               rec.shared_schedule_hits + rec.schedule_misses))
      .field("native_cache_hits", rec.native_cache_hits)
      .end_object();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace f90d;

  Config cfg;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--clients=", 10) == 0) {
      cfg.clients = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      cfg.requests = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--programs=", 11) == 0) {
      cfg.programs = std::atoi(argv[i] + 11);
    } else if (std::strncmp(argv[i], "--f90dc=", 8) == 0) {
      cfg.f90dc = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      cfg.socket = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      cfg.json_path = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--floor=", 8) == 0) {
      cfg.floor = std::atof(argv[i] + 8);
    } else if (std::strcmp(argv[i], "--skip-baseline") == 0) {
      cfg.skip_baseline = true;
    } else {
      std::fprintf(stderr, "f90d_loadgen: unknown option '%s'\n", argv[i]);
      return 1;
    }
  }
  if (cfg.clients < 1 || cfg.requests < 1 || cfg.programs < 1) {
    std::fprintf(stderr, "f90d_loadgen: counts must be >= 1\n");
    return 1;
  }
  if (cfg.f90dc.empty()) {
    // Default: the f90dc sitting next to this binary in the build tree.
    std::string self = argv[0];
    const std::size_t slash = self.rfind('/');
    cfg.f90dc = (slash == std::string::npos ? std::string(".")
                                            : self.substr(0, slash)) +
                "/f90dc";
  }

  std::vector<std::string> sources;
  sources.reserve(static_cast<std::size_t>(cfg.programs));
  for (int k = 0; k < cfg.programs; ++k)
    sources.push_back(workload_source(k, cfg.nprocs));

  // Baseline subprocesses read the programs from files.
  std::vector<std::string> files;
  if (!cfg.skip_baseline) {
    char tmpl[] = "/tmp/f90d-loadgen-XXXXXX";
    const char* dir = ::mkdtemp(tmpl);
    if (dir == nullptr) {
      std::fprintf(stderr, "f90d_loadgen: mkdtemp failed\n");
      return 1;
    }
    for (int k = 0; k < cfg.programs; ++k) {
      const std::string path =
          std::string(dir) + "/prog" + std::to_string(k) + ".f90d";
      std::ofstream out(path);
      out << sources[static_cast<std::size_t>(k)];
      files.push_back(path);
    }
  }

  JsonWriter w;
  w.begin_object();
  w.key("config")
      .begin_object()
      .field("clients", cfg.clients)
      .field("requests", cfg.requests)
      .field("programs", cfg.programs)
      .field("nprocs", cfg.nprocs)
      .field("transport", cfg.socket.empty() ? "in-process" : "socket")
      .end_object();

  double identical_speedup = 0;
  w.key("workloads").begin_object();
  for (const bool identical : {true, false}) {
    const char* wname = identical ? "identical" : "distinct";
    std::fprintf(stderr, "[loadgen] workload %s: %d clients x %d requests\n",
                 wname, cfg.clients, cfg.requests);
    w.key(wname).begin_object();
    PhaseRecord baseline;
    if (!cfg.skip_baseline) {
      baseline = run_baseline(cfg, files, identical);
      emit_phase(w, baseline);
      std::fprintf(stderr, "[loadgen]   baseline: %.1f req/s (p50 %.1f ms)\n",
                   baseline.throughput_rps, baseline.pct(0.50));
    }
    // Fresh core per workload: the cold phase is genuinely cold (socket
    // mode talks to whatever state the daemon already has).
    service::ServiceCore core;
    service::ServiceCore* cp = cfg.socket.empty() ? &core : nullptr;
    const PhaseRecord cold =
        run_service_phase(cfg, cp, sources, identical, "cold");
    std::fprintf(stderr, "[loadgen]   cold:     %.1f req/s (p50 %.1f ms)\n",
                 cold.throughput_rps, cold.pct(0.50));
    const PhaseRecord warm =
        run_service_phase(cfg, cp, sources, identical, "warm");
    std::fprintf(stderr, "[loadgen]   warm:     %.1f req/s (p50 %.1f ms)\n",
                 warm.throughput_rps, warm.pct(0.50));
    emit_phase(w, cold);
    emit_phase(w, warm);
    const double speedup = baseline.throughput_rps > 0
                               ? warm.throughput_rps / baseline.throughput_rps
                               : 0;
    if (identical) identical_speedup = speedup;
    w.field("warm_speedup_vs_baseline", speedup);
    if (cp != nullptr) w.key("service_stats").raw(cp->stats_json());
    w.end_object();
  }
  w.end_object();
  // The acceptance gate: warm shared-pool throughput vs one process per
  // request, on the all-identical workload.
  w.field("warm_speedup_vs_baseline", identical_speedup);
  w.end_object();

  std::printf("%s\n", w.str().c_str());
  if (!cfg.json_path.empty()) {
    std::ofstream out(cfg.json_path);
    out << w.str() << "\n";
    if (!out) {
      std::fprintf(stderr, "f90d_loadgen: cannot write %s\n",
                   cfg.json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[loadgen] wrote %s\n", cfg.json_path.c_str());
  }
  if (!cfg.skip_baseline && cfg.floor > 0 && identical_speedup < cfg.floor) {
    std::fprintf(stderr,
                 "[loadgen] WARNING: identical-workload warm speedup %.2fx "
                 "is below the %.1fx acceptance floor\n",
                 identical_speedup, cfg.floor);
    return 2;
  }
  return 0;
}
