// f90dc — command-line front door to the compiler, in the spirit of the
// prototype demonstrated at Supercomputing'92:
//
//   f90dc [options] [file.f90d]
//     -p N[,M]      override the PROCESSORS grid (e.g. -p 16 or -p 4,4)
//     -O0           disable the §7 communication optimizations
//     -run          execute on the simulated iPSC/860 after compiling
//     --stats       run in full (non-skeleton) mode and print the
//                   per-processor traffic/time statistics and the
//                   execution-plan + schedule cache summaries (implies -run)
//     --stats-json  like --stats but emit ONE machine-readable JSON
//                   document on stdout and nothing else (implies -run)
//     --backend=native|plan|tree
//                   pick the node-program execution backend (implies -run
//                   and full mode): `native` JIT-compiles execution plans
//                   to shared objects, `plan` interprets the postfix tapes
//                   (the default), `tree` forces the tree-walking fallback
//     (no file: compiles the built-in Gaussian elimination program)
//
//   daemon / client modes (docs/SERVICE.md):
//     --serve           run the resident compile service on --socket
//     --socket=PATH     Unix socket path (default /tmp/f90dcd.sock)
//     --workers=N       worker pool size for --serve (default 4)
//     --client          send the request to the daemon on --socket instead
//                       of compiling locally; prints the JSON response
//     --ping            check the daemon on --socket is alive
//
// Prints the Fortran77+MP node program and the communication-action
// summary; with -run also reports virtual time and message traffic.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "apps/sources.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "service/stats_json.hpp"
#include "support/str_util.hpp"

namespace {

f90d::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->stop();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace f90d;

  std::vector<int> grid;
  bool optimize = true;
  bool run = false;
  bool stats = false;
  bool stats_json = false;
  std::string backend = "plan";
  bool backend_set = false;
  bool serve = false;
  bool client = false;
  bool ping = false;
  std::string socket_path = "/tmp/f90dcd.sock";
  int workers = 4;
  std::string path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-p") == 0 && i + 1 < argc) {
      grid.clear();
      for (const std::string& part : split(argv[++i], ','))
        grid.push_back(std::atoi(part.c_str()));
    } else if (std::strcmp(argv[i], "-O0") == 0) {
      optimize = false;
    } else if (std::strcmp(argv[i], "-run") == 0) {
      run = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      run = true;
      stats = true;
    } else if (std::strcmp(argv[i], "--stats-json") == 0) {
      run = true;
      stats = true;
      stats_json = true;
    } else if (std::strncmp(argv[i], "--backend=", 10) == 0) {
      backend = argv[i] + 10;
      if (backend != "native" && backend != "plan" && backend != "tree") {
        std::fprintf(stderr,
                     "f90dc: unknown backend '%s' (native|plan|tree)\n",
                     backend.c_str());
        return 1;
      }
      run = true;
      backend_set = true;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    } else if (std::strcmp(argv[i], "--client") == 0) {
      client = true;
    } else if (std::strcmp(argv[i], "--ping") == 0) {
      ping = true;
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socket_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::atoi(argv[i] + 10);
    } else {
      path = argv[i];
    }
  }

  if (ping) {
    service::WireRequest req;
    req.verb = "PING";
    const service::ClientResult res = service::request(socket_path, req);
    if (!res.connected) {
      std::fprintf(stderr, "f90dc: %s\n", res.error.c_str());
      return 1;
    }
    std::printf("%s\n", res.body.c_str());
    return res.ok ? 0 : 1;
  }

  if (serve) {
    service::ServerOptions opt;
    opt.socket_path = socket_path;
    opt.workers = workers;
    service::Server server(opt);
    std::string err;
    if (!server.start(err)) {
      std::fprintf(stderr, "f90dc: %s\n", err.c_str());
      return 1;
    }
    g_server = &server;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::printf("f90dc: serving on %s (%d workers)\n", socket_path.c_str(),
                workers);
    std::fflush(stdout);
    server.wait();
    g_server = nullptr;
    return 0;
  }

  std::string source;
  if (path.empty()) {
    if (!stats_json && !client)
      std::printf("(no input file: compiling the built-in Gaussian "
                  "elimination benchmark)\n\n");
    source = apps::gauss_source(64, grid.empty() ? 4 : grid[0]);
  } else {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "f90dc: cannot open %s\n", path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }

  // Skeleton mode reports costs for arbitrary programs; --stats and an
  // explicit backend choice want the real per-element execution paths,
  // which only full execution exercises.
  const bool skeleton = !stats && !backend_set;

  if (client) {
    service::WireRequest req;
    req.source = source;
    req.grid = grid;
    req.optimize = optimize;
    req.skeleton = skeleton;
    req.compile_only = !run;
    req.backend = backend;
    const service::ClientResult res = service::request(socket_path, req);
    if (!res.connected) {
      std::fprintf(stderr, "f90dc: %s\n", res.error.c_str());
      return 1;
    }
    std::printf("%s\n", res.body.c_str());
    return res.ok ? 0 : 1;
  }

  service::RunSpec spec;
  spec.grid = grid;
  if (!optimize) spec.codegen = compile::CodegenOptions::all_off();
  spec.compile_only = !run;
  spec.run.skeleton = skeleton;
  spec.run.exec_plans = backend != "tree";
  spec.run.native_backend = backend == "native";

  try {
    service::Outcome out;
    try {
      out = service::compile_and_run(source, spec);
    } catch (const Error& e) {
      if (!stats || stats_json) throw;
      // Full mode interprets every element on zero-filled inputs; some
      // programs (e.g. indirection through a zero-initialized index
      // array) cannot run that way.
      std::fprintf(stderr,
                   "f90dc: --stats full-mode execution failed: %s\n"
                   "       (zero-initialized inputs may not satisfy this "
                   "program; try plain -run, which uses the cost-faithful "
                   "skeleton mode)\n",
                   e.what());
      return 1;
    }
    const compile::Compiled& compiled = *out.compiled;

    if (stats_json) {
      std::printf("%s\n", service::run_stats_json(out).c_str());
      return out.ok ? 0 : 1;
    }

    std::printf("=== Fortran 77 + MP node program ===\n%s\n",
                compiled.listing.c_str());
    std::printf("=== communication actions ===\n");
    if (compiled.program.action_histogram.empty())
      std::printf("  (none — every reference is local)\n");
    for (const auto& [kind, count] : compiled.program.action_histogram)
      std::printf("  %-20s x%d\n", kind.c_str(), count);
    std::printf("=== mapping ===\n");
    for (const auto& [name, dad] : compiled.mapping.dads)
      std::printf("  %-8s %s\n", name.c_str(), dad.signature().c_str());

    if (run) {
      const interp::ProgramResult& r = out.result;
      std::printf("\n=== simulated run (iPSC/860, %d nodes) ===\n",
                  out.nprocs);
      std::printf("  virtual time : %.6f s\n", r.machine.exec_time);
      std::printf("  messages     : %llu (%llu bytes)\n",
                  static_cast<unsigned long long>(r.machine.total_messages()),
                  static_cast<unsigned long long>(r.machine.total_bytes()));
      std::printf("  schedules    : %d built, %d reused\n",
                  r.schedule_misses, r.schedule_hits);
      if (stats) {
        std::printf("  exec plans   : %d built, %d reused (%d re-bound), "
                    "%d invalidated, %d live entries\n",
                    r.plan_misses, r.plan_hits, r.plan_rebinds,
                    r.plan_invalidations, r.plan_entries);
        std::printf("  irregular    : %d built, %d reused (%d re-bound), "
                    "%d invalidated (inspector plans)\n",
                    r.irregular_misses, r.irregular_hits, r.irregular_rebinds,
                    r.irregular_invalidations);
        std::printf("  PARTI traffic: %lld schedules built, %lld gather "
                    "bytes, %lld scatter bytes\n",
                    r.schedules_built, r.gather_bytes, r.scatter_bytes);
        std::printf("  comm plans   : %lld built, %lld reused, %lld "
                    "invalidated\n",
                    r.comm_plan_misses, r.comm_plan_hits,
                    r.comm_plan_invalidations);
        std::printf("  zero-copy    : %lld bytes on the memcpy fast path, "
                    "%lld pooled payload reuses\n",
                    r.comm_plan_fast_bytes, r.pool_reuses);
        if (backend == "native") {
          std::printf("\n=== native backend (rank 0 node + process JIT) ===\n");
          std::printf("  kernel runs  : %lld (%lld attached, %lld fallbacks, "
                      "%lld invalidated)\n",
                      r.native_runs, r.native_attaches, r.native_fallbacks,
                      r.native_invalidations);
          std::printf("  codegen cache: %lld hits, %lld compiles "
                      "(%.1f ms wall), %lld dlopens\n",
                      r.native_cache_hits, r.native_compiles,
                      r.native_compile_ms, r.native_dlopens);
        }
        std::printf("\n=== per-processor statistics ===\n");
        std::printf("  %4s %12s %12s %12s %12s %12s\n", "rank", "msgs_sent",
                    "bytes_sent", "msgs_recv", "compute_s", "comm_s");
        for (size_t k = 0; k < r.machine.stats.size(); ++k) {
          const machine::ProcStats& ps = r.machine.stats[k];
          std::printf("  %4zu %12llu %12llu %12llu %12.6f %12.6f\n", k,
                      static_cast<unsigned long long>(ps.messages_sent),
                      static_cast<unsigned long long>(ps.bytes_sent),
                      static_cast<unsigned long long>(ps.messages_received),
                      ps.compute_time, ps.comm_time);
        }
      }
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "f90dc: %s\n", e.what());
    return 1;
  }
  return 0;
}
