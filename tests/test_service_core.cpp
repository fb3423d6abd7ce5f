// Service core (src/service/service.hpp): artifact keys, the artifact
// cache, admission quotas, failure memoization, and the machine-readable
// stats documents (run_stats_json / ServiceCore::stats_json).
#include <gtest/gtest.h>

#include <string>

#include "service/service.hpp"
#include "service/stats_json.hpp"
#include "support/json.hpp"

namespace f90d {
namespace {

using service::ArtifactPtr;
using service::Outcome;
using service::RunSpec;
using service::ServiceCore;
using service::ServiceOptions;

/// Self-initializing irregular program (FORALL index-map setup), so it
/// runs correctly from zero-filled storage — the daemon's init contract.
std::string self_init_source(int n, int p) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(PROGRAM SVC
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER U(N)
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) U(I) = MOD(I * 7 + 3, N) + 1
      FORALL (I = 1:N) B(I) = I * 2.0
      FORALL (I = 1:N) A(U(I)) = B(I) + 1.0
      END PROGRAM SVC
)",
                n, p);
  return buf;
}

/// A program whose only work is `body` under S = 0: Fortran forbids a zero
/// FORALL stride and a zero DO step, so every one of these must end in a
/// diagnostic (not a crash, and not a silent zero-trip loop).
std::string zero_stride_source(const std::string& body) {
  return R"(PROGRAM ZERO
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL B(N)
      INTEGER S
      INTEGER K
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      S = 0
)" + body + "      END PROGRAM ZERO\n";
}

TEST(ServiceKeys, StableAndSensitiveToSourceAndOptions) {
  const std::string src = self_init_source(64, 4);
  RunSpec spec;
  const std::string k = service::artifact_key(src, spec);
  EXPECT_EQ(k.size(), 16u);  // fnv1a hex64
  EXPECT_EQ(k, service::artifact_key(src, spec));

  EXPECT_NE(k, service::artifact_key(self_init_source(65, 4), spec));

  RunSpec grid_spec;
  grid_spec.grid = {2};
  EXPECT_NE(k, service::artifact_key(src, grid_spec));

  RunSpec o0_spec;
  o0_spec.codegen = compile::CodegenOptions::all_off();
  EXPECT_NE(k, service::artifact_key(src, o0_spec));

  // Run-only settings are NOT part of the compile key.
  RunSpec run_spec;
  run_spec.run.native_backend = true;
  run_spec.compile_only = true;
  EXPECT_EQ(k, service::artifact_key(src, run_spec));
}

TEST(ServiceArtifactCache, SecondLookupHitsAndSharesTheArtifact) {
  service::ArtifactCache cache;
  const std::string src = self_init_source(64, 4);
  const ArtifactPtr a = cache.get_or_compile(src, RunSpec{});
  const ArtifactPtr b = cache.get_or_compile(src, RunSpec{});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // one immutable artifact, shared
  ASSERT_NE(a->compiled, nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServiceArtifactCache, CompileFailureIsMemoized) {
  service::ArtifactCache cache;
  const std::string bad = "PROGRAM NOPE\n      THIS IS NOT FORTRAN(\n      END\n";
  const ArtifactPtr a = cache.get_or_compile(bad, RunSpec{});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->compiled, nullptr);
  EXPECT_FALSE(a->error.empty());
  const ArtifactPtr b = cache.get_or_compile(bad, RunSpec{});
  EXPECT_EQ(a.get(), b.get());  // no recompile of a known-bad source
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ServiceCoreTest, SubmitRunsAndSecondRequestHitsEverything) {
  ServiceCore core;
  const std::string src = self_init_source(96, 4);
  const Outcome first = core.submit(src, RunSpec{});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.artifact_hit);
  EXPECT_EQ(first.nprocs, 4);
  EXPECT_GT(first.result.real_arrays.at("A").size(), 0u);

  const Outcome second = core.submit(src, RunSpec{});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.artifact_hit);
  // Cross-run sharing: the second run builds no schedules at all.
  EXPECT_EQ(second.result.schedule_misses, 0);
  EXPECT_EQ(second.result.shared_schedule_hits, first.result.schedule_misses);
  EXPECT_EQ(second.result.real_arrays.at("A"),
            first.result.real_arrays.at("A"));
  EXPECT_EQ(core.requests(), 2);
  EXPECT_EQ(core.failures(), 0);
}

TEST(ServiceCoreTest, SourceQuotaRejectsOversizedRequests) {
  ServiceOptions opt;
  opt.max_source_bytes = 16;
  ServiceCore core(opt);
  const Outcome out = core.submit(self_init_source(64, 4), RunSpec{});
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("max_source_bytes"), std::string::npos);
  EXPECT_EQ(core.failures(), 1);
}

TEST(ServiceCoreTest, ProcQuotaRejectsOversizedGrids) {
  ServiceOptions opt;
  opt.max_procs = 2;
  ServiceCore core(opt);
  const Outcome out = core.submit(self_init_source(64, 4), RunSpec{});
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("max_procs"), std::string::npos);
}

TEST(ServiceCoreTest, CompileErrorComesBackAsOutcomeNotThrow) {
  ServiceCore core;
  const Outcome out = core.submit("PROGRAM X\n      FORALL (\n      END\n",
                                  RunSpec{});
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(core.failures(), 1);
}

TEST(ServiceCoreTest, CompileOnlySkipsTheRun) {
  ServiceCore core;
  RunSpec spec;
  spec.compile_only = true;
  const Outcome out = core.submit(self_init_source(64, 4), spec);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.nprocs, 4);
  ASSERT_NE(out.compiled, nullptr);
  EXPECT_EQ(out.result.real_arrays.count("A"), 0u);
}

TEST(ServiceCoreTest, ZeroStrideEndsInADiagnosticOnEveryBackend) {
  const char* bodies[] = {
      // Counting down.
      "      DO K = 5, 1, S\n        A(K) = 1.0\n      END DO\n",
      // Counting up: must not pass as a zero-trip loop.
      "      DO K = 1, 5, S\n        A(K) = 1.0\n      END DO\n",
      // An unpartitioned level (B is not distributed).
      "      FORALL (I = 3:3:S) B(I) = 1.0\n",
      // A set_BOUND-partitioned level.
      "      FORALL (I = 1:N:S) A(I) = 2.0\n",
  };
  ServiceCore core;
  for (const char* body : bodies) {
    for (const char* backend : {"tree", "plan", "native"}) {
      RunSpec spec;
      spec.run.exec_plans = std::string(backend) != "tree";
      spec.run.native_backend = std::string(backend) == "native";
      const Outcome out = core.submit(zero_stride_source(body), spec);
      EXPECT_FALSE(out.ok) << backend << ": " << body;
      EXPECT_NE(out.error.find("zero stride for index"), std::string::npos)
          << backend << ": " << out.error;
      // Located once: a DO header's own error carries the DO's line, and
      // no enclosing statement prefixes it again.
      const size_t at = out.error.find("at source line");
      EXPECT_NE(at, std::string::npos) << backend << ": " << out.error;
      EXPECT_EQ(out.error.find("at source line", at + 1), std::string::npos)
          << backend << ": " << out.error;
    }
  }
  EXPECT_EQ(core.failures(), 12);
}

TEST(ServiceCoreTest, OutOfRangeBroadcastAndMulticastSubscriptsDiagnose) {
  // K lies past B's last row: the broadcast of B(K) and the multicast of
  // the row B(K, :) must name the subscript, not trip an internal check.
  // The planned backends decline the statement (its slot cannot bake), so
  // the tree walk raises the same diagnostic on every backend.
  const std::string one_d = R"(PROGRAM BOUND1
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL B(N)
      INTEGER K
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      K = N + 3
      FORALL (I = 1:N) A(I) = B(K)
      END PROGRAM BOUND1
)";
  const std::string two_d = R"(PROGRAM BOUND2
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N, N)
      REAL B(N, N)
      INTEGER K
C$ PROCESSORS P(2, 2)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, BLOCK)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
      K = N + 3
      FORALL (I = 1:N, J = 1:N) A(I, J) = B(K, J)
      END PROGRAM BOUND2
)";
  ServiceCore core;
  for (const std::string* src : {&one_d, &two_d}) {
    for (const char* backend : {"tree", "plan", "native"}) {
      RunSpec spec;
      spec.run.exec_plans = std::string(backend) != "tree";
      spec.run.native_backend = std::string(backend) == "native";
      const Outcome out = core.submit(*src, spec);
      EXPECT_FALSE(out.ok) << backend;
      EXPECT_NE(out.error.find(
                    "subscript 11 of B is out of range [1, 8] in dimension 1"),
                std::string::npos)
          << backend << ": " << out.error;
      EXPECT_EQ(out.error.find("internal invariant"), std::string::npos)
          << backend << ": " << out.error;
    }
  }
  EXPECT_EQ(core.failures(), 6);
}

TEST(ServiceCoreTest, MistypedArrayIntrinsicsNameTheArray) {
  // A whole-array intrinsic runs in its destination's element type; an
  // argument of another type ends in a diagnostic naming it.
  const std::string prelude = R"(PROGRAM MIXED
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL B(N)
      INTEGER K(N)
      INTEGER M(N)
      REAL X(N, N)
      INTEGER Y(N, N)
C$ PROCESSORS P(2)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
)";
  const std::pair<const char*, const char*> cases[] = {
      {"      A = CSHIFT(K, 1)\n",
       "CSHIFT: K is INTEGER, but the destination A is REAL"},
      {"      K = EOSHIFT(A, 1)\n",
       "EOSHIFT: A is REAL, but the destination K is INTEGER"},
      {"      B = PACK(A, M)\n",
       "PACK: M is INTEGER, but a mask must be LOGICAL"},
      {"      Y = MATMUL(Y, Y)\n",
       "MATMUL: the destination Y is INTEGER, but MATMUL takes REAL arrays"},
  };
  ServiceCore core;
  for (const auto& [body, diag] : cases) {
    const Outcome out =
        core.submit(prelude + body + "      END PROGRAM MIXED\n", RunSpec{});
    EXPECT_FALSE(out.ok) << body;
    EXPECT_NE(out.error.find(diag), std::string::npos) << out.error;
    EXPECT_EQ(out.error.find("internal error"), std::string::npos)
        << out.error;
  }
}

TEST(ServiceStats, RunStatsJsonCarriesTheRunCounters) {
  const Outcome out =
      service::compile_and_run(self_init_source(96, 4), RunSpec{});
  ASSERT_TRUE(out.ok);
  const std::string doc = service::run_stats_json(out);
  EXPECT_NE(doc.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"artifact_key\":\"" + out.key + "\""), std::string::npos);
  double v = 0;
  ASSERT_TRUE(json_find_number(doc, "nprocs", v));
  EXPECT_EQ(static_cast<int>(v), 4);
  ASSERT_TRUE(json_find_number(doc, "misses", v));
  EXPECT_EQ(static_cast<int>(v), out.result.schedule_misses);
  ASSERT_TRUE(json_find_number(doc, "tree_walk_stmts", v));
  EXPECT_EQ(static_cast<long long>(v), out.result.tree_walk_stmts);
  for (const char* key :
       {"machine", "schedule_cache", "plan_cache", "irregular_cache",
        "comm_plan_cache", "bytes_memcpy_fast_path", "pool_reuses", "native",
        "procs"})
    EXPECT_NE(doc.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
}

TEST(ServiceStats, CoreStatsJsonAggregates) {
  ServiceCore core;
  (void)core.submit(self_init_source(96, 4), RunSpec{});
  (void)core.submit(self_init_source(96, 4), RunSpec{});
  const std::string doc = core.stats_json();
  double v = 0;
  ASSERT_TRUE(json_find_number(doc, "requests", v));
  EXPECT_EQ(static_cast<int>(v), 2);
  for (const char* key : {"artifacts", "shared_schedules"})
    EXPECT_NE(doc.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
}

}  // namespace
}  // namespace f90d
