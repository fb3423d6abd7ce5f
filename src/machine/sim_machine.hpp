#pragma once
// The simulated distributed-memory MIMD machine.
//
// Every simulated processor executes the same node program (SPMD) against a
// per-processor virtual clock that advances with charged computation and
// with message costs from the CostModel.  A message carries its arrival
// timestamp; a receive completes at
//     max(receiver clock, send_completion + (hops-1)*time_per_hop).
// The execution time of a run is the maximum final clock over processors,
// which is exactly what the paper's wall-clock measurements report for its
// loosely synchronous programs.
//
// One engine drives the node programs: a single-threaded virtual-time event
// loop.  Each processor is a resumable fiber; a blocking recv with no
// matching message yields to the scheduler, which always resumes the
// runnable processor with the lowest virtual clock.  Thousand-processor
// machines cost milliseconds of host time, and wildcard receives are a
// deterministic function of virtual time, so repeated runs of a
// deterministic program are bit-identical.
//
// Failure semantics: when any node program throws, every mailbox is
// poisoned so peers blocked in recv unwind instead of waiting forever, and
// run() rethrows the first error.  When every live processor is blocked in
// recv with no matching message (a communication deadlock, e.g. mismatched
// tags), run() fails with a DeadlockError carrying a per-processor
// wait-state report.
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "machine/cost_model.hpp"
#include "machine/mailbox.hpp"
#include "machine/topology.hpp"

namespace f90d::machine {

class SimMachine;

/// Thrown by SimMachine::run when no processor can make progress: every
/// live processor is blocked in recv and no queued message matches any
/// posted receive.  what() carries the per-processor wait-state report.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& report)
      : std::runtime_error(report) {}
};

/// Internal unwinding signal: this processor's mailbox was poisoned (a peer
/// failed, or a deadlock was detected elsewhere) while it was receiving.
/// Never escapes run() — the original error is rethrown instead.
class PoisonedError : public std::runtime_error {
 public:
  explicit PoisonedError(const std::string& reason)
      : std::runtime_error(reason) {}
};

/// Per-processor message-traffic statistics (for experiment analysis).
struct ProcStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t pool_reuses = 0;  ///< payload buffers served from the pool
  double compute_time = 0.0;  ///< time charged to local computation
  double comm_time = 0.0;     ///< time charged to communication (send+wait)
};

/// Per-processor free list of message payload buffers (docs/MACHINE.md).
///
/// Ownership protocol: a sender *acquires* a buffer from its OWN pool, packs
/// it, and hands it to send_payload, which moves it through Mailbox to the
/// receiver; the receiver, once done with the message, *releases* the buffer
/// into its OWN pool.  Each pool is therefore touched by exactly one
/// simulated processor (single-owner, no locking); buffers migrate between
/// pools by riding messages.  A pool stays balanced when its processor
/// receives as often as it sends within each trip; a processor that only
/// sends never yields, runs ahead of its receivers and allocates per send
/// (docs/MACHINE.md).
/// Pool bookkeeping is host-side machinery and charges no virtual time.
class PayloadPool {
 public:
  /// Pop a recycled buffer (LIFO, best cache locality) resized to `bytes`,
  /// or allocate a fresh one when the pool is empty.  `reused` reports
  /// whether the free list served the request.
  std::vector<std::byte> acquire(std::size_t bytes, bool& reused) {
    if (free_.empty()) {
      reused = false;
      return std::vector<std::byte>(bytes);
    }
    reused = true;
    std::vector<std::byte> buf = std::move(free_.back());
    free_.pop_back();
    buf.resize(bytes);
    return buf;
  }

  /// Return a consumed payload buffer to the free list.
  void release(std::vector<std::byte>&& buf) {
    free_.push_back(std::move(buf));
  }

  [[nodiscard]] std::size_t size() const { return free_.size(); }

 private:
  std::vector<std::vector<std::byte>> free_;
};

/// Handle through which a node program interacts with its processor.
/// Only the machine's event loop creates one, one per simulated processor.
class Proc {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int nprocs() const;
  [[nodiscard]] double clock() const { return clock_; }
  [[nodiscard]] const CostModel& cost() const;
  [[nodiscard]] SimMachine& machine() { return *machine_; }
  [[nodiscard]] const ProcStats& stats() const { return stats_; }

  // --- virtual time -------------------------------------------------------
  /// Charge `n` floating-point operations of local computation.
  void charge_flops(double n);
  /// Charge `n` integer / addressing / loop-control operations.
  void charge_int_ops(double n);
  /// Charge a local memory copy of `bytes` (message packing, array copies).
  void charge_copy(double bytes);
  /// Charge raw seconds (used by the runtime for modeled costs).
  void charge_time(double seconds);

  // --- message passing ----------------------------------------------------
  /// Blocking, typed send.  Advances the sender's clock by the injection
  /// cost; the message arrives at `dest` after the wire delay.  Implemented
  /// as acquire_payload + memcpy + send_payload, so the payload buffer comes
  /// from this processor's pool instead of a fresh heap allocation.
  void send_bytes(int dest, int tag, const void* data, std::size_t bytes);

  /// Acquire a payload buffer of `bytes` from this processor's pool.  Free
  /// of virtual-time cost: callers pack directly into the buffer and pass
  /// it to send_payload (the zero-copy send path).
  [[nodiscard]] std::vector<std::byte> acquire_payload(std::size_t bytes);

  /// Return a consumed payload buffer to this processor's pool (typically
  /// the payload of a message this processor received and is done with).
  void release_payload(std::vector<std::byte>&& buf);

  /// Send an already-packed payload without copying it.  Identical cost
  /// model, statistics, and delivery semantics as send_bytes.
  void send_payload(int dest, int tag, std::vector<std::byte>&& payload);

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    send_bytes(dest, tag, data.data(), data.size_bytes());
  }
  template <typename T>
  void send_value(int dest, int tag, const T& v) {
    send_bytes(dest, tag, &v, sizeof(T));
  }

  /// Blocking receive matching (src, tag); advances the clock to the
  /// message arrival time.  Yields to the scheduler until a matching
  /// message is available.
  Message recv(int src, int tag);

  /// Non-blocking probe of this processor's mailbox: true when a message
  /// matching (src, tag) is queued *right now*.  A snapshot, not a wait —
  /// never spin on probe: a spinning processor never yields, so the sender
  /// it is waiting for would never run.
  [[nodiscard]] bool probe(int src, int tag);

  template <typename T>
  std::vector<T> recv_vec(int src, int tag) {
    Message m = recv(src, tag);
    std::vector<T> out(m.payload.size() / sizeof(T));
    if (!out.empty())
      std::memcpy(out.data(), m.payload.data(), out.size() * sizeof(T));
    release_payload(std::move(m.payload));
    return out;
  }
  template <typename T>
  T recv_value(int src, int tag) {
    Message m = recv(src, tag);
    T v{};
    std::memcpy(&v, m.payload.data(), sizeof(T));
    release_payload(std::move(m.payload));
    return v;
  }

 private:
  friend class SimMachine;
  Proc(SimMachine& m, int rank) : machine_(&m), rank_(rank) {}

  SimMachine* machine_;
  int rank_;
  double clock_ = 0.0;
  ProcStats stats_{};
};

/// Result of running one SPMD program on the machine.
struct RunResult {
  double exec_time = 0.0;              ///< max final clock over processors
  std::vector<double> proc_times;      ///< final clock per processor
  std::vector<ProcStats> stats;        ///< per-processor traffic stats

  [[nodiscard]] std::uint64_t total_messages() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
};

class SimMachine {
 public:
  using NodeProgram = std::function<void(Proc&)>;

  SimMachine(int nprocs, const CostModel& cost,
             std::unique_ptr<Topology> topology);

  [[nodiscard]] int nprocs() const { return nprocs_; }
  [[nodiscard]] const CostModel& cost() const { return cost_; }
  [[nodiscard]] const Topology& topology() const { return *topology_; }
  /// Direct mailbox access (diagnostics/tests).
  [[nodiscard]] Mailbox& mailbox(int rank) {
    return *mailboxes_[static_cast<std::size_t>(rank)];
  }
  /// Payload buffer pool of `rank` (single-owner; see PayloadPool).
  [[nodiscard]] PayloadPool& pool(int rank) {
    return pools_[static_cast<std::size_t>(rank)];
  }

  /// Run `program` on every processor and return the virtual-time result.
  /// The first exception thrown by any node program is re-thrown here after
  /// every processor has unwound; a communication deadlock raises
  /// DeadlockError.
  RunResult run(const NodeProgram& program);

 private:
  friend class Proc;
  class EventLoop;

  int nprocs_;
  CostModel cost_;
  std::unique_ptr<Topology> topology_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<PayloadPool> pools_;
  EventLoop* event_ = nullptr;  // non-null while run() is live; Proc sends
                                // and receives through it
};

}  // namespace f90d::machine
