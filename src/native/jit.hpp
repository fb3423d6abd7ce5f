#pragma once
// NativeCache: turn kernel keys into callable function pointers.
//
// The cache is process-global (one compiler invocation serves every
// simulated processor, every DO trip, and every run in the process) and
// holds one map: structural kernel key -> KernelFn.  Every key is a plan
// kernel's plan_shape() (native/lower.hpp); communication copies are
// library code (exec/comm_plan.cpp) and never reach the compiler.  The
// caller passes a generator with the key and the C++ text is produced only
// when the key misses — once per key per process (JitStats::lowerings) —
// so a warm lookup never prints source.  A content hash of the text is
// used only to name the scratch files.
//
// Failures are memoized too: a key whose generator declined (empty text) or
// whose text failed to compile never retries.  The toolchain probe (an
// empty kernel) is lazy: it runs only after a non-empty text failed to
// compile, and only while no compile has succeeded, so a healthy process
// never pays for it.  A failing probe makes the backend behave exactly like
// F90D_NATIVE=OFF for the rest of the process.
//
// Thread-safety (service mode: many worker threads attach concurrently):
//   * the map is read under a shared lock, and a hit only bumps an atomic
//     counter — warm requests never serialize on each other;
//   * a cold key registers an in-flight record under the exclusive lock
//     and generates + compiles OUTSIDE any cache lock, so two distinct keys
//     compile concurrently; a second thread asking for the same key while
//     it compiles blocks on that record and reuses the one result
//     (JitStats::coalesced counts these);
//   * dlopen handles are kept in a table (never dlclose'd — cached
//     KernelFn pointers live for the process, like the cache itself);
//   * the miss-path statistics live behind their own mutex and are
//     snapshotted whole.
//
// Scratch files and the compiler:
//   * each process makes one mkdtemp directory, $TMPDIR/f90d-native-XXXXXX
//     (/tmp when TMPDIR is unset or empty), on its first compile;
//   * a kernel's .cpp is compiled by running the compiler directly with
//     posix_spawn (an argv vector, no shell, so no path is ever re-parsed),
//     its stdout and stderr going to the kernel's .log;
//   * a successful compile unlinks its .cpp and .log, and the .so as soon
//     as dlopen has mapped it; a failed compile keeps its .cpp and .log,
//     the only record of its compiler error;
//   * the directory is removed at normal process exit when it is empty,
//     i.e. when no compile failed.
//
// Requirements and switches:
//   * CMake bakes the configure-time compiler path in as F90D_NATIVE_CXX;
//     without the definition (-DF90D_NATIVE=OFF) available() is false and
//     every caller falls back to the tape interpreter.
//   * Env F90D_NATIVE_CXX overrides the baked compiler path.
//   * Env F90D_NATIVE=0 disables the backend at run time (the sanitizer
//     kill-switch; generated objects are built uninstrumented).
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "native/lower.hpp"

namespace f90d::native {

/// Process-global compile statistics (readable while running; the interp
/// layer snapshots deltas around each machine run for per-run reporting).
struct JitStats {
  long long cache_hits = 0;  ///< get_or_compile served from the map
  long long lowerings = 0;   ///< kernel texts generated (one per key)
  long long compiles = 0;    ///< compiler invocations that produced a .so
  long long failures = 0;    ///< compiler invocations that did not
  long long dlopens = 0;
  long long coalesced = 0;   ///< waits joined onto an in-flight compile
  double compile_ms = 0;     ///< wall time inside the system compiler
};

class NativeCache {
 public:
  static NativeCache& instance();

  /// True when generated kernels may run: the backend is compiled in, not
  /// disabled by env, and not yet proven broken (a failed compile whose
  /// probe also failed).  Runs no compiler.
  bool available();

  /// Generates a missed key's kernel source; an empty string declines.
  using SourceFn = std::function<std::string()>;

  /// The compiled kernel for `key`, or nullptr (memoized) when the
  /// generator declined or the compile failed.  `generate` runs only when
  /// the key is not cached yet (and not being compiled by another thread).
  /// Callers check available() first; a hit does not re-check it, and a
  /// miss once the toolchain is proven broken compiles nothing.
  KernelFn get_or_compile(const std::string& key, const SourceFn& generate);

  JitStats stats();

  /// Number of live dlopen handles (the kernels loaded so far).
  std::size_t handle_count();

  /// The scratch directory, created if need be (empty if mkdtemp failed).
  /// Only a failed compile leaves files in it: its .cpp and .log.
  std::string scratch_dir();

 private:
  /// One cold compile in progress; waiters block on cv until done.
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    KernelFn fn = nullptr;
  };

  NativeCache() = default;
  ~NativeCache();

  /// Compile + dlopen with no cache lock held.  Only touches per-call
  /// scratch files (unique names via counter_) and the stats/handles
  /// structures under their own locks.
  KernelFn compile(const std::string& source);
  /// After a kernel text failed to compile: unless some compile already
  /// succeeded, compile an empty kernel; if that fails too, the toolchain
  /// is broken and available() turns false.
  void probe_after_failure();
  bool ensure_dir();

  std::shared_mutex mu_;  ///< guards map_ and inflight_
  std::unordered_map<std::string, KernelFn> map_;  ///< key -> kernel
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::atomic<long long> hits_{0};  ///< warm path: no mutex
  std::mutex stats_mu_;
  JitStats stats_;  ///< everything but cache_hits

  std::mutex handles_mu_;
  std::vector<void*> handles_;  ///< intentionally never dlclose'd

  std::mutex probe_mu_;   ///< serializes the toolchain probe
  /// 0 = unproven, 1 = a compile succeeded, -1 = broken (probe failed).
  std::atomic<int> toolchain_{0};

  std::once_flag dir_once_;
  std::string dir_;       ///< scratch directory (created on first compile)
  std::atomic<int> counter_{0};
};

}  // namespace f90d::native
