#include "machine/sim_machine.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <exception>
#include <numeric>
#include <utility>

#include "machine/fiber.hpp"
#include "support/diag.hpp"

namespace f90d::machine {

namespace {

/// Stack size of each processor fiber.
constexpr std::size_t kFiberStackBytes = 1024 * 1024;

std::string wildcard(int v) {
  return v == kAnySource ? std::string("ANY") : std::to_string(v);
}

}  // namespace

int Proc::nprocs() const { return machine_->nprocs(); }
const CostModel& Proc::cost() const { return machine_->cost(); }

void Proc::charge_flops(double n) {
  const double t = n * cost().time_per_flop;
  clock_ += t;
  stats_.compute_time += t;
}

void Proc::charge_int_ops(double n) {
  const double t = n * cost().time_per_int_op;
  clock_ += t;
  stats_.compute_time += t;
}

void Proc::charge_copy(double bytes) {
  const double t = bytes * cost().time_per_copy_byte;
  clock_ += t;
  stats_.compute_time += t;
}

void Proc::charge_time(double seconds) {
  clock_ += seconds;
  stats_.compute_time += seconds;
}

void Proc::send_bytes(int dest, int tag, const void* data, std::size_t bytes) {
  std::vector<std::byte> payload = acquire_payload(bytes);
  if (bytes > 0) std::memcpy(payload.data(), data, bytes);
  send_payload(dest, tag, std::move(payload));
}

std::vector<std::byte> Proc::acquire_payload(std::size_t bytes) {
  bool reused = false;
  std::vector<std::byte> buf = machine_->pool(rank_).acquire(bytes, reused);
  if (reused) stats_.pool_reuses += 1;
  return buf;
}

void Proc::release_payload(std::vector<std::byte>&& buf) {
  machine_->pool(rank_).release(std::move(buf));
}

std::uint64_t RunResult::total_messages() const {
  return std::accumulate(stats.begin(), stats.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ProcStats& s) {
                           return acc + s.messages_sent;
                         });
}

std::uint64_t RunResult::total_bytes() const {
  return std::accumulate(stats.begin(), stats.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ProcStats& s) {
                           return acc + s.bytes_sent;
                         });
}

// --- event loop --------------------------------------------------------------
//
// One fiber per simulated processor, driven by a single-threaded scheduler.
// The ready set is ordered by (virtual-time key, rank); the key of a task
// woken from recv is max(its clock, earliest matching arrival).  Because the
// scheduler always resumes the lowest key, by the time a woken receiver runs
// every still-runnable processor has a clock at or beyond that key, so no
// later send can beat the message the receiver is about to take — wildcard
// matching is a pure function of virtual time.
class SimMachine::EventLoop {
 public:
  EventLoop(SimMachine& m, const NodeProgram& program)
      : m_(m), program_(program) {
    const int n = m_.nprocs();
    procs_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) procs_.push_back(Proc(m_, r));
    for (int r = 0; r < n; ++r)
      tasks_.emplace_back([this, r] { body(r); });
    ready_.reserve(static_cast<std::size_t>(4 * n));
    for (int r = 0; r < n; ++r) push_ready(0.0, r);
  }

  RunResult run() {
    const int n = m_.nprocs();
    while (done_ < n) {
      const int r = pop_ready();
      if (r < 0) {
        // No runnable processor, not everyone finished: communication
        // deadlock.  Record the report, then poison and resume every
        // blocked fiber so their stacks unwind before we rethrow.
        if (!first_error_)
          first_error_ =
              std::make_exception_ptr(DeadlockError(deadlock_report()));
        const int woke = poison_and_wake(
            "deadlock: every live processor is blocked in recv");
        require(woke > 0, "event loop: stuck with no blocked processor");
        continue;
      }
      Task& t = tasks_[static_cast<std::size_t>(r)];
      t.state = Task::State::kRunning;
      t.fiber.resume();
      if (t.fiber.finished()) {
        t.state = Task::State::kDone;
        ++done_;
        if (t.error) {
          if (!first_error_) {
            first_error_ = t.error;
            poison_and_wake(
                strformat("node program on rank %d failed; unwinding", r));
          }
          t.error = nullptr;
        }
      }
      // Otherwise the task marked itself kBlocked and yielded from recv.
    }
    if (first_error_) std::rethrow_exception(first_error_);

    RunResult result;
    result.proc_times.reserve(procs_.size());
    result.stats.reserve(procs_.size());
    for (const Proc& p : procs_) {
      result.proc_times.push_back(p.clock());
      result.stats.push_back(p.stats());
      result.exec_time = std::max(result.exec_time, p.clock());
    }
    return result;
  }

  Message blocking_recv(Proc& p, int src, int tag) {
    const int r = p.rank();
    Mailbox& box = m_.mailbox(r);
    Task& t = tasks_[static_cast<std::size_t>(r)];
    for (;;) {
      if (box.poisoned()) throw PoisonedError(box.poison_reason());
      if (auto m = box.try_pop_match(src, tag)) {
        t.in_recv = false;
        return std::move(*m);
      }
      t.state = Task::State::kBlocked;
      t.wait_src = src;
      t.wait_tag = tag;
      t.in_recv = true;
      t.fiber.yield();
    }
  }

  /// Push `m` to `dest`'s mailbox, then wake the receiver if it is waiting
  /// for it, or improve its wake-up key if an earlier-arriving match came in
  /// while it was already scheduled.
  void deliver(int dest, Message m) {
    Task& t = tasks_[static_cast<std::size_t>(dest)];
    const bool wakes = t.in_recv && message_matches(m, t.wait_src, t.wait_tag);
    const double arrival = m.arrival;
    m_.mailbox(dest).push(std::move(m));
    if (!wakes) return;
    const double key =
        std::max(procs_[static_cast<std::size_t>(dest)].clock(), arrival);
    if (t.state == Task::State::kBlocked) {
      t.state = Task::State::kReady;
      t.key = key;
      push_ready(key, dest);
    } else if (t.state == Task::State::kReady && key < t.key) {
      // The old entry stays in the heap; pop_ready discards it because its
      // key no longer matches the task's.
      t.key = key;
      push_ready(key, dest);
    }
  }

 private:
  struct Task {
    explicit Task(std::function<void()> fn)
        : fiber(kFiberStackBytes, std::move(fn)) {}

    enum class State { kReady, kRunning, kBlocked, kDone };
    State state = State::kReady;
    int wait_src = 0;
    int wait_tag = 0;
    bool in_recv = false;   ///< between entering recv and taking a message
    double key = 0.0;       ///< position in the ready set while kReady
    std::exception_ptr error;
    Fiber fiber;
  };

  void body(int r) {
    Task& t = tasks_[static_cast<std::size_t>(r)];
    try {
      program_(procs_[static_cast<std::size_t>(r)]);
    } catch (const PoisonedError&) {
      // Teardown unwinding: the original error is already recorded.
    } catch (...) {
      t.error = std::current_exception();
    }
  }

  int poison_and_wake(const std::string& reason) {
    for (int i = 0; i < m_.nprocs(); ++i) m_.mailbox(i).poison(reason);
    int woke = 0;
    for (int i = 0; i < m_.nprocs(); ++i) {
      Task& t = tasks_[static_cast<std::size_t>(i)];
      if (t.state != Task::State::kBlocked) continue;
      t.state = Task::State::kReady;
      t.key = procs_[static_cast<std::size_t>(i)].clock();
      push_ready(t.key, i);
      ++woke;
    }
    return woke;
  }

  /// Per-processor wait-state report.  Only called when no task is
  /// runnable, so every rank is either blocked in recv or finished.
  std::string deadlock_report() const {
    std::string out =
        "deadlock detected: no runnable processor, every live processor "
        "blocked in recv with no matching message\n";
    for (int r = 0; r < m_.nprocs(); ++r) {
      const Task& t = tasks_[static_cast<std::size_t>(r)];
      const double clock = procs_[static_cast<std::size_t>(r)].clock();
      if (t.state == Task::State::kBlocked)
        out += strformat(
            "  rank %d: blocked in recv(src=%s, tag=%s) at t=%.9g s; "
            "%zu queued message(s)\n",
            r, wildcard(t.wait_src).c_str(), wildcard(t.wait_tag).c_str(),
            clock, m_.mailbox(r).size());
      else
        out += strformat("  rank %d: finished at t=%.9g s\n", r, clock);
    }
    return out;
  }

  /// Push a (key, rank) wake-up entry onto the ready heap.  Superseded
  /// entries for a rank are not erased (a binary heap cannot remove from the
  /// middle cheaply); pop_ready filters them lazily.  Reusing the vector's
  /// capacity keeps the scheduler allocation-free at steady state, where the
  /// std::set it replaces paid one node allocation per block/wake cycle.
  void push_ready(double key, int r) {
    ready_.push_back({key, r});
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }

  /// Pop the runnable task with the lowest (key, rank).  An entry is live
  /// only when its task is still kReady *and* the key matches the task's
  /// current wake-up key — anything else is a stale leftover from a resume
  /// or a key improvement and is discarded.  Returns -1 when no task is
  /// runnable (the deadlock candidate state, equivalent to the old set
  /// being empty).
  int pop_ready() {
    while (!ready_.empty()) {
      const std::pair<double, int> top = ready_.front();
      std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
      ready_.pop_back();
      const Task& t = tasks_[static_cast<std::size_t>(top.second)];
      if (t.state == Task::State::kReady && t.key == top.first)
        return top.second;
    }
    return -1;
  }

  SimMachine& m_;
  const NodeProgram& program_;
  std::vector<Proc> procs_;
  std::deque<Task> tasks_;
  std::vector<std::pair<double, int>> ready_;  ///< min-heap, lazy deletion
  std::exception_ptr first_error_;
  int done_ = 0;
};

// --- Proc messaging: every send and receive goes through the live loop -------

void Proc::send_payload(int dest, int tag, std::vector<std::byte>&& payload) {
  require(dest >= 0 && dest < nprocs(), "send: destination rank in range");
  const std::size_t bytes = payload.size();
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.payload = std::move(payload);

  // Injection: the sender is busy for latency + bytes*beta (blocking send,
  // as on the iPSC/860's store-and-forward style NX layer).
  const double inject =
      cost().msg_latency + static_cast<double>(bytes) * cost().time_per_byte;
  clock_ += inject;
  stats_.comm_time += inject;

  // Wire delay beyond the first hop.
  const int hops = machine_->topology().hops(rank_, dest);
  const double extra =
      hops > 1 ? static_cast<double>(hops - 1) * cost().time_per_hop : 0.0;
  m.arrival = clock_ + extra;

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  machine_->event_->deliver(dest, std::move(m));
}

Message Proc::recv(int src, int tag) {
  Message m = machine_->event_->blocking_recv(*this, src, tag);
  if (m.arrival > clock_) {
    stats_.comm_time += m.arrival - clock_;
    clock_ = m.arrival;
  }
  stats_.messages_received += 1;
  return m;
}

bool Proc::probe(int src, int tag) {
  const Mailbox& box = machine_->mailbox(rank_);
  if (box.poisoned()) throw PoisonedError(box.poison_reason());
  return box.probe(src, tag);
}

SimMachine::SimMachine(int nprocs, const CostModel& cost,
                       std::unique_ptr<Topology> topology)
    : nprocs_(nprocs), cost_(cost), topology_(std::move(topology)) {
  require(nprocs >= 1, "machine needs at least one processor");
  require(topology_ != nullptr, "machine needs a topology");
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  pools_.resize(static_cast<std::size_t>(nprocs));
}

RunResult SimMachine::run(const NodeProgram& program) {
  require(event_ == nullptr, "SimMachine::run is not reentrant");
  EventLoop loop(*this, program);
  event_ = &loop;
  try {
    RunResult result = loop.run();
    event_ = nullptr;
    return result;
  } catch (...) {
    event_ = nullptr;
    throw;
  }
}

}  // namespace f90d::machine
