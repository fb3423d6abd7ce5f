// Steady-state allocation regression guard: warm DO-loop trips of the
// planned jacobi path — tape interpreter and native kernels alike — must
// not allocate at all.  Message payloads are pooled (machine::PayloadPool),
// communication plans bake their descriptors on the first trip, plan keys
// are compared through scalar slots, native kernels are found through their
// statement-cache entry, and the interpreted copy odometer runs on a stack
// array — so the per-trip heap-allocation slope of a warm loop is exactly
// zero.  The same holds when a loop-variant scalar changes every trip: the
// statement's entry, its broadcast slot and its kernel arguments are
// re-bound in the storage they already own.  A regression that
// re-introduces per-message (or even per-statement) allocation shows up as
// a positive slope and trips this test.
//
// The global operator new/delete replacements below count every allocation
// in the process.  Sanitizer builds replace the allocator themselves, so
// the counting (and the test) is compiled out under ASan/TSan/MSan.
#include <gtest/gtest.h>

#include "harness.hpp"
#include "native/jit.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define F90D_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define F90D_ALLOC_COUNTING 0
#else
#define F90D_ALLOC_COUNTING 1
#endif
#else
#define F90D_ALLOC_COUNTING 1
#endif

#if F90D_ALLOC_COUNTING

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<long long> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(a), n ? n : 1) != 0)
    throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace f90d {
namespace {

using interp::Index;

struct Measured {
  long long allocs = 0;
  long long messages = 0;
  long long native_runs = 0;
};

Measured run_jacobi_counted(int iters, const interp::RunOptions& ro = {}) {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  const std::string src = apps::jacobi_source(16, 2, 2, iters, "BLOCK");
  const long long a0 = g_allocs.load();
  auto r = harness::run_source(src, init, ro);
  return {g_allocs.load() - a0,
          static_cast<long long>(r.machine.total_messages()), r.native_runs};
}

TEST(AllocRegression, WarmJacobiTripsDoNotAllocatePerMessage) {
  const int kCold = 2, kHot = 12, kExtra = kHot - kCold;
  const Measured cold = run_jacobi_counted(kCold);
  const Measured hot = run_jacobi_counted(kHot);

  const long long msgs_per_trip = (hot.messages - cold.messages) / kExtra;
  const long long allocs_per_trip = (hot.allocs - cold.allocs) / kExtra;
  RecordProperty("allocs_per_trip", std::to_string(allocs_per_trip));
  RecordProperty("messages_per_trip", std::to_string(msgs_per_trip));

  ASSERT_GT(msgs_per_trip, 0);
  // Zero per-message allocation: pooled payloads are recycled, comm and
  // exec plans are served from their caches, and every scratch structure
  // on the warm path (plan keys, ref bindings, copy odometers) reuses
  // preallocated storage.  One-time process setup differs slightly between
  // the two runs, so the slope can dip a few allocations negative; any
  // positive slope means the warm path allocates again.
  EXPECT_LE(allocs_per_trip, 0) << "warm trips allocate again";
}

/// A FORALL whose bounds and broadcast element move with the DO variable:
/// every trip re-binds the statement's one cache entry — its loop range,
/// its offsets, the broadcast's root and source offset, and the kernel's
/// packed arguments.  Under CYCLIC the root moves to the next processor
/// every trip, so over each round of four trips every processor sends as
/// many pooled payloads as it receives.  (Payload pools are per processor:
/// a root that only ever sends drains its own pool and allocates while its
/// receivers' pools grow — a property of one-way traffic, not of the
/// rebind.)
Measured run_rebind_counted(int trips, const interp::RunOptions& ro) {
  const std::string src = strformat(R"(PROGRAM REBIND
      INTEGER N
      PARAMETER (N = 64)
      REAL A(N)
      REAL B(N)
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(CYCLIC)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO K = 1, %d
        FORALL (I = K:N) A(I) = A(I) + B(K)
      END DO
      END PROGRAM REBIND
)",
                                    trips);
  interp::Init init;
  init.real["B"] = [](std::span<const Index> g) { return g[0] * 0.5; };
  const long long a0 = g_allocs.load();
  auto r = harness::run_source(src, init, ro);
  EXPECT_EQ(r.plan_misses, 1);
  EXPECT_EQ(r.plan_rebinds, trips - 1);
  return {g_allocs.load() - a0,
          static_cast<long long>(r.machine.total_messages()), r.native_runs};
}

TEST(AllocRegression, WarmRebindTripsDoNotAllocate) {
  interp::RunOptions native;
  native.native_backend = true;
  for (const bool use_native : {false, true}) {
    if (use_native && !native::NativeCache::instance().available()) continue;
    const interp::RunOptions ro = use_native ? native : interp::RunOptions{};
    // Two full root rotations warm every pool; then whole rotations.
    const int kCold = 8, kHot = 24, kExtra = kHot - kCold;
    (void)run_rebind_counted(kCold, ro);  // prime the JIT cache
    const Measured cold = run_rebind_counted(kCold, ro);
    const Measured hot = run_rebind_counted(kHot, ro);
    const long long allocs_per_trip = (hot.allocs - cold.allocs) / kExtra;
    RecordProperty(use_native ? "native_allocs_per_trip" : "allocs_per_trip",
                   std::to_string(allocs_per_trip));
    ASSERT_GT(hot.messages, cold.messages);
    if (use_native) {
      ASSERT_GT(hot.native_runs, cold.native_runs);
    }
    EXPECT_LE(allocs_per_trip, 0)
        << (use_native ? "native " : "") << "rebind trips allocate";
  }
}

TEST(AllocRegression, WarmNativeJacobiTripsDoNotAllocate) {
  if (!native::NativeCache::instance().available())
    GTEST_SKIP() << "no native toolchain: every plan runs on the tape";
  interp::RunOptions ro;
  ro.native_backend = true;
  const int kCold = 2, kHot = 12, kExtra = kHot - kCold;
  // Prime the process-global JIT cache so neither measured run compiles.
  (void)run_jacobi_counted(kCold, ro);
  const Measured cold = run_jacobi_counted(kCold, ro);
  const Measured hot = run_jacobi_counted(kHot, ro);

  const long long msgs_per_trip = (hot.messages - cold.messages) / kExtra;
  const long long allocs_per_trip = (hot.allocs - cold.allocs) / kExtra;
  RecordProperty("allocs_per_trip", std::to_string(allocs_per_trip));

  ASSERT_GT(msgs_per_trip, 0);
  ASSERT_GT(hot.native_runs, cold.native_runs);
  // Warm trips find the kernel attachment in the statement's cache entry
  // and reuse its packed argument vectors.
  EXPECT_LE(allocs_per_trip, 0) << "warm native trips allocate again";
}

}  // namespace
}  // namespace f90d

#else  // sanitizers own the allocator

TEST(AllocRegression, SkippedUnderSanitizers) { GTEST_SKIP(); }

#endif
