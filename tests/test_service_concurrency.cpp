// Concurrency contract of the resident service (docs/SERVICE.md): many
// worker threads pushing programs through one ServiceCore must produce
// bit-identical results to single-threaded runs, warm passes must be
// served entirely from the shared caches, and the process-global
// NativeCache must coalesce concurrent compiles of one key.  These
// tests are in the TSan leg's target list on purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "native/jit.hpp"
#include "service/service.hpp"

namespace f90d {
namespace {

using service::Outcome;
using service::RunSpec;
using service::ServiceCore;

/// Same shape as the load generator's workload: self-initializing
/// irregular gather/scatter, `variant` perturbs N so each program is a
/// distinct artifact with distinct schedules.
std::string workload(int variant, int p) {
  char buf[1536];
  std::snprintf(buf, sizeof(buf), R"(PROGRAM CONC%d
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
      END PROGRAM CONC%d
)",
                variant, 48 + 16 * variant, p, variant);
  return buf;
}

/// Run `fn(i)` for i in [0, n) on `threads` threads.
template <typename Fn>
void fan_out(int n, int threads, Fn&& fn) {
  std::atomic<int> next{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1);
        if (i >= n) return;
        fn(i);
      }
    });
  for (std::thread& t : pool) t.join();
}

constexpr int kPrograms = 3;
constexpr int kThreads = 8;
constexpr int kRequests = 24;

TEST(ServiceConcurrency, ManyThreadsMatchSingleThreadedBitForBit) {
  std::vector<std::string> sources;
  std::vector<std::vector<double>> want;
  for (int k = 0; k < kPrograms; ++k) {
    sources.push_back(workload(k, 4));
    // Reference: the plain single-shot pipeline, no shared caches.
    const Outcome ref = service::compile_and_run(sources.back(), RunSpec{});
    ASSERT_TRUE(ref.ok) << ref.error;
    want.push_back(ref.result.real_arrays.at("A"));
  }

  ServiceCore core;
  std::vector<Outcome> got(kRequests);
  fan_out(kRequests, kThreads, [&](int i) {
    got[static_cast<std::size_t>(i)] =
        core.submit(sources[static_cast<std::size_t>(i) % kPrograms],
                    RunSpec{});
  });
  for (int i = 0; i < kRequests; ++i) {
    const Outcome& out = got[static_cast<std::size_t>(i)];
    ASSERT_TRUE(out.ok) << i << ": " << out.error;
    // Bit-identical, not approximately equal: sharing schedules and plan
    // metadata must not change a single operation.
    EXPECT_EQ(out.result.real_arrays.at("A"),
              want[static_cast<std::size_t>(i) % kPrograms])
        << "request " << i;
  }
  EXPECT_EQ(core.requests(), kRequests);
  EXPECT_EQ(core.failures(), 0);
}

TEST(ServiceConcurrency, WarmPassIsServedEntirelyFromSharedCaches) {
  std::vector<std::string> sources;
  for (int k = 0; k < kPrograms; ++k) sources.push_back(workload(k, 4));

  ServiceCore core;
  // Cold wave: populate the artifact cache and the shared stores.
  fan_out(kRequests, kThreads, [&](int i) {
    const Outcome out = core.submit(
        sources[static_cast<std::size_t>(i) % kPrograms], RunSpec{});
    ASSERT_TRUE(out.ok) << out.error;
  });

  // Warm wave: every artifact lookup must hit and no run may build a
  // schedule — the shared store already holds every complete set.
  std::atomic<long long> schedule_misses{0};
  std::atomic<long long> shared_schedule_hits{0};
  std::atomic<long long> shared_plan_hits{0};
  std::atomic<int> artifact_hits{0};
  fan_out(kRequests, kThreads, [&](int i) {
    const Outcome out = core.submit(
        sources[static_cast<std::size_t>(i) % kPrograms], RunSpec{});
    ASSERT_TRUE(out.ok) << out.error;
    artifact_hits += out.artifact_hit ? 1 : 0;
    schedule_misses += out.result.schedule_misses;
    shared_schedule_hits += out.result.shared_schedule_hits;
    shared_plan_hits += out.result.shared_plan_hits;
  });
  EXPECT_EQ(artifact_hits.load(), kRequests);
  EXPECT_EQ(schedule_misses.load(), 0);
  EXPECT_GT(shared_schedule_hits.load(), 0);
  EXPECT_GT(shared_plan_hits.load(), 0);
}

TEST(ServiceConcurrency, ArtifactCacheCoalescesIdenticalInFlightCompiles) {
  // One source, many simultaneous first requests: exactly one compile;
  // the rest either coalesce onto it or hit the finished entry.
  service::ArtifactCache cache;
  const std::string src = workload(0, 4);
  std::vector<service::ArtifactPtr> got(kThreads);
  fan_out(kThreads, kThreads,
          [&](int i) { got[static_cast<std::size_t>(i)] =
                           cache.get_or_compile(src, RunSpec{}); });
  for (const service::ArtifactPtr& a : got) {
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a.get(), got[0].get());
  }
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits + s.coalesced, kThreads - 1);
}

TEST(ServiceConcurrency, NativeCacheCoalescesConcurrentCompilesOfOneSource) {
  native::NativeCache& jit = native::NativeCache::instance();
  if (!jit.available())
    GTEST_SKIP() << "no native toolchain in this configuration";
  // A deliberately broken kernel source unique to this test: the compiler
  // runs exactly once, every thread gets the memoized nullptr, and the
  // waiters are counted as coalesced or served from the memo.
  const std::string bad_kernel =
      "#error test_service_concurrency coalesce probe\n";
  const native::JitStats before = jit.stats();
  std::vector<native::KernelFn> got(kThreads);
  fan_out(kThreads, kThreads, [&](int i) {
    got[static_cast<std::size_t>(i)] = jit.get_or_compile(
        "test/service-concurrency-coalesce-probe", [&] { return bad_kernel; });
  });
  const native::JitStats after = jit.stats();
  for (native::KernelFn fn : got) EXPECT_EQ(fn, nullptr);
  // A failed compile keeps its .cpp and .log for diagnosis; this one failed
  // on purpose, so remove that pair and leave the scratch directory clean.
  namespace fs = std::filesystem;
  std::vector<fs::path> failed;
  for (const fs::directory_entry& e :
       fs::directory_iterator(jit.scratch_dir())) {
    std::ifstream in(e.path());
    if (std::string(std::istreambuf_iterator<char>(in), {}) == bad_kernel)
      failed.push_back(e.path());
  }
  ASSERT_EQ(failed.size(), 1u);
  fs::remove(failed[0]);
  fs::remove(failed[0].replace_extension(".log"));
  EXPECT_EQ(after.failures - before.failures, 1);
  EXPECT_EQ(after.compiles - before.compiles, 0);
  EXPECT_EQ(after.lowerings - before.lowerings, 1);
  EXPECT_EQ((after.cache_hits - before.cache_hits) +
                (after.coalesced - before.coalesced),
            kThreads - 1);
}

TEST(ServiceConcurrency, ConcurrentNativeBackendRunsShareTheJit) {
  native::NativeCache& jit = native::NativeCache::instance();
  if (!jit.available())
    GTEST_SKIP() << "no native toolchain in this configuration";
  const std::string src = workload(0, 4);
  RunSpec spec;
  spec.run.native_backend = true;
  const Outcome ref = service::compile_and_run(src, spec);
  ASSERT_TRUE(ref.ok) << ref.error;

  ServiceCore core;
  std::vector<Outcome> got(kThreads);
  fan_out(kThreads, kThreads, [&](int i) {
    got[static_cast<std::size_t>(i)] = core.submit(src, spec);
  });
  for (const Outcome& out : got) {
    ASSERT_TRUE(out.ok) << out.error;
    EXPECT_EQ(out.result.real_arrays.at("A"), ref.result.real_arrays.at("A"));
  }
}

}  // namespace
}  // namespace f90d
