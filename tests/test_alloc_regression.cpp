// Steady-state allocation regression guard: warm DO-loop trips of the
// planned jacobi path — tape interpreter and native kernels alike — must
// not allocate at all.  Message payloads are pooled (machine::PayloadPool),
// communication plans bake their descriptors on the first trip, plan keys
// are compared through scalar slots, native kernels are found through their
// statement-cache entry, and the interpreted copy odometer runs on a stack
// array — so the per-trip heap-allocation slope of a warm loop is exactly
// zero.  The same holds when a loop-variant scalar changes every trip: the
// statement's entry, its broadcast slot and its kernel arguments are
// re-bound in the storage they already own.  The PARTI executor copies by
// the offsets its inspector localized, into caller-owned buffers and pooled
// payloads, so warm gathers and scatters allocate nothing either.  A
// regression that
// re-introduces per-message (or even per-statement) allocation shows up as
// a positive slope and trips this test.
//
// The global operator new/delete replacements below count every allocation
// in the process.  Sanitizer builds replace the allocator themselves, so
// the counting (and the test) is compiled out under ASan/TSan/MSan.
#include <gtest/gtest.h>

#include "harness.hpp"
#include "native/jit.hpp"
#include "parti/schedule.hpp"

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
// Out of line: inlined into the vector code of the DistArray templates this
// file instantiates, g++ 12 pairs the free() with operator new and reports
// a false -Wmismatched-new-delete.
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
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
/// many pooled payloads as it receives.  (A fixed root only sends, so it
/// never blocks in recv, never yields to the event loop, and runs its whole
/// DO loop before any receiver takes a message: every buffer it sends is
/// still in flight when it needs the next one, so it allocates per send
/// and the receivers' mailboxes grow — a property of one-way traffic, not
/// of the rebind or of the pool layout.)
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

/// The allocations of one four-processor machine run that builds a gather
/// (schedule2) and a scatter (schedule3) schedule per element type over a
/// CYCLIC(3) array, then runs `trips` REAL and INTEGER gathers and
/// scatters on them.
long long parti_executor_allocs(int trips) {
  const long long a0 = g_allocs.load();
  harness::on_machine(4, [&](comm::GridComm& gc) {
    const Index n = 40;
    const rts::Dad dad =
        harness::dist1d(n, gc.grid(), rts::DistKind::kCyclic, 0, 0, 3);
    rts::DistArray<double> a(dad, gc);
    rts::DistArray<long long> k(dad, gc);
    std::vector<Index> needs, dests;
    std::vector<double> values;
    const Index cnt = dad.local_extent(0, gc.coord(0));
    for (Index l = 0; l < cnt; ++l) {
      const Index i = dad.global_of_local(0, l, gc.coord(0));
      needs.push_back((i * 13 + 5) % n);
      dests.push_back((i * 7 + 3) % n);
      values.push_back(0.5 * static_cast<double>(i));
    }
    const parti::SchedulePtr rs = parti::schedule2(gc, dad, needs);
    const parti::SchedulePtr ws = parti::schedule3(gc, dad, dests);
    const parti::SchedulePtr rsk = parti::schedule2(gc, dad, needs);
    const parti::SchedulePtr wsk = parti::schedule3(gc, dad, dests);
    std::vector<double> got;
    std::vector<long long> got_int;
    for (int t = 0; t < trips; ++t) {
      parti::execute_read(gc, *rs, a, got);
      parti::execute_read(gc, *rsk, k, got_int);
      parti::execute_write(gc, *ws, a, std::span<const double>(values));
      parti::execute_write(gc, *wsk, k, std::span<const double>(values));
    }
  });
  return g_allocs.load() - a0;
}

TEST(AllocRegression, WarmPartiExecutorsDoNotAllocate) {
  const int kCold = 4, kHot = 20, kExtra = kHot - kCold;
  (void)parti_executor_allocs(kCold);  // one-time process set-up
  const long long cold = parti_executor_allocs(kCold);
  const long long hot = parti_executor_allocs(kHot);
  const long long allocs_per_trip = (hot - cold) / kExtra;
  RecordProperty("allocs_per_trip", std::to_string(allocs_per_trip));
  // Every processor receives as many pooled payloads per call as it sends,
  // so warm pools serve every message; the gather buffers keep their
  // capacity across calls.
  EXPECT_LE(allocs_per_trip, 0) << "warm PARTI executor calls allocate";
}

/// One fill_global and one gather_global_root of a (rows x 24) array with
/// BLOCK rows and ghost rows.
void fill_and_gather(comm::GridComm& gc, Index rows) {
  rts::DimMap m0, m1;
  m0.kind = rts::DistKind::kBlock;
  m0.grid_dim = 0;
  m0.template_extent = rows;
  m0.overlap_lo = m0.overlap_hi = 1;
  m1.template_extent = 24;
  rts::DistArray<double> a(rts::Dad({rows, 24}, {m0, m1}, gc.grid()), gc);
  a.fill_global([](std::span<const Index> g) {
    return static_cast<double>(g[0] * 24 + g[1]);
  });
  const std::vector<double> full = a.gather_global_root(gc);
  if (gc.my_logical() == 0) {
    EXPECT_EQ(full.size(), static_cast<size_t>(rows * 24));
  }
}

/// The allocations of a whole four-processor fill-and-gather machine run,
/// set-up included.
long long fill_gather_allocs(Index rows) {
  const long long a0 = g_allocs.load();
  harness::on_machine(4, [&](comm::GridComm& gc) { fill_and_gather(gc, rows); });
  return g_allocs.load() - a0;
}

/// fill_global and gather_global_root walk owned runs with a fixed set of
/// buffers per array, and the packed block and the gathered array are one
/// allocation each whatever their size: doubling the row count must not
/// change the allocation count.  A per-row or per-element allocation in
/// the walk, the pack or the placement shows up as a difference.
TEST(AllocRegression, FillAndGatherAllocationsIndependentOfRows) {
  (void)fill_gather_allocs(64);  // one-time process set-up
  const long long small = fill_gather_allocs(64);
  const long long large = fill_gather_allocs(128);
  RecordProperty("allocs_64_rows", std::to_string(small));
  RecordProperty("allocs_128_rows", std::to_string(large));
  EXPECT_EQ(small, large) << "fill/gather allocations grow with the rows";
}

}  // namespace
}  // namespace f90d

#else  // sanitizers own the allocator

TEST(AllocRegression, SkippedUnderSanitizers) { GTEST_SKIP(); }

#endif
