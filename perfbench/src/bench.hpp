#pragma once
// Shared pieces of the perfbench driver: the seeded generator, sample
// statistics, the in-memory span recorder, and the workload descriptions.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "service/service.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the same seed gives the same stream on every platform (the
/// <random> distributions are implementation-defined, so none are used).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform integer in [lo, hi].
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

 private:
  std::uint64_t s_;
};

/// Nearest-rank percentile (q in [0,1]) of `v`; +inf entries (failed
/// requests) sort last, so they count as missing every latency limit.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  return v[static_cast<std::size_t>(pos + 0.5)];
}
inline double median(const std::vector<double>& v) { return percentile(v, 0.5); }

// --- spans -------------------------------------------------------------------

/// In-memory span recorder for the traced run.  Spans are recorded from the
/// benchmark's own code around calls into each layer's public functions and
/// written out once, as Chrome trace-event JSON, when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = 0;
    int id = 0;
    int parent = -1;   ///< -1 = root
    int request = 0;
    int thread = 0;    ///< service client (0 = the batch driver)
  };

  explicit Tracer(bool on) : on_(on), t0_(Clock::now()) {}
  [[nodiscard]] bool on() const { return on_; }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - t0_).count();
  }
  /// Open a span; returns its id (or -1 when tracing is off).
  int open(const std::string& name, int parent, int request) {
    return add(name, now_us(), 0, parent, request);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_us = now_us();
  }
  /// Record a span whose interval was measured elsewhere (server-side
  /// durations reported in a service reply).
  int add(const std::string& name, double start_us, double end_us, int parent,
          int request, int thread = 0) {
    if (!on_) return -1;
    Span s{name, start_us, end_us, static_cast<int>(spans_.size()), parent,
           request, thread};
    spans_.push_back(s);
    return s.id;
  }
  /// Append the spans of another recorder (per-client recorders are merged
  /// after their threads join), remapping ids.
  void merge(const Tracer& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      s.id += base;
      if (s.parent >= 0) s.parent += base;
      s.start_us += std::chrono::duration<double, std::micro>(other.t0_ - t0_).count();
      s.end_us += std::chrono::duration<double, std::micro>(other.t0_ - t0_).count();
      spans_.push_back(s);
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of each span: its duration minus the union of its children
  /// (children never overlap each other in this benchmark).
  [[nodiscard]] std::vector<double> self_ms() const;

  /// Chrome trace-event JSON ("X" complete events, times in microseconds).
  [[nodiscard]] std::string chrome_json() const;

 private:
  bool on_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, const std::string& name, int parent, int request)
      : t_(t), id_(t.open(name, parent, request)) {}
  ~Scope() { t_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// --- batch workloads ---------------------------------------------------------

/// One program of a batch workload, with its seeded inputs and the
/// independent sequential oracle's answer for the checked array.
struct Case {
  std::string name;
  int n = 0;                      ///< problem size
  std::string source;
  f90d::service::RunSpec spec;
  std::string array;              ///< checked REAL array
  std::vector<double> want;       ///< oracle result, row-major global
  std::vector<char> defined;      ///< elements the program defines (empty = all)
};

/// `stencil`, `gauss` or `irregular` at `seed`; `smoke` shrinks every size
/// to a few milliseconds of work.
std::vector<Case> make_batch(const std::string& workload, std::uint64_t seed,
                             bool smoke);

/// True when the run's checked array equals the oracle bit for bit.
bool verify(const Case& c, const f90d::interp::ProgramResult& r);

// --- service workload ----------------------------------------------------------

/// Until kMaxPrograms programs exist, one `service` request in kNewEvery
/// names a program the server has not seen (every other one arrives twice
/// back to back); every other request repeats a program drawn uniformly from
/// the distinct programs already requested.  The cap is reached in the first
/// few seconds of a run, so the rest of it is the daemon's warm steady state
/// and the server's caches, and with them peak_rss_mb, end the same size in
/// every run.  224 is 4 rounds of the 56 combinations of program kind, size
/// class and grid.
inline constexpr int kNewEvery = 25;
inline constexpr std::size_t kMaxPrograms = 224;

/// The `service` request stream.  Every program is self-initializing
/// (daemon requests zero-fill), so it travels over the wire as source text.
struct Family {
  std::vector<std::string> sources;  ///< distinct programs, by first use
  std::vector<int> sequence;         ///< request i asks for sources[sequence[i]]
};

/// The seeded request stream of `length` requests for the `service` workload.
Family make_family(std::uint64_t seed, bool smoke, int length);

}  // namespace perfbench
