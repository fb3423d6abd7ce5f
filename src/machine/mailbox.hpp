#pragma once
// Per-processor mailbox with (source, tag) matching, in the style of the
// Express / early-MPI receive semantics the paper's communication library
// was built on.
//
// Matching rule: among the queued messages satisfying (src, tag) — with
// kAnySource / kAnyTag as wildcards — the one with the *earliest virtual
// arrival time* is delivered, ties broken by source rank, then by push
// sequence.  Per (src, tag) pair this degenerates to FIFO (a sender's clock
// is monotone and the hop count per pair is fixed), but wildcard receives
// become a deterministic function of virtual time instead of host thread
// interleaving.
//
// The mailbox itself is NOT internally synchronized: SimMachine's event loop
// runs every processor on one OS thread, so access is serial.  Blocking
// lives in SimMachine, not here.
#include <optional>
#include <string>
#include <vector>

#include "machine/message.hpp"

namespace f90d::machine {

class Mailbox {
 public:
  /// Deposit a message; stamps its per-mailbox push sequence number.
  void push(Message m);

  /// Remove and return the best matching message under the arrival-order
  /// rule, or nullopt when none is queued.
  std::optional<Message> try_pop_match(int src, int tag);

  /// Peek at the best matching message without removing it (nullptr when
  /// none).  The scheduler uses the arrival time as the wake-up key.
  [[nodiscard]] const Message* peek_match(int src, int tag) const;

  /// Non-blocking probe: true if a matching message is queued.
  [[nodiscard]] bool probe(int src, int tag) const {
    return peek_match(src, tag) != nullptr;
  }

  /// Number of queued messages (diagnostics).
  [[nodiscard]] std::size_t size() const { return q_.size(); }

  /// Mark the mailbox dead: a peer failed or a deadlock was detected.
  /// Receivers observe the poison and unwind instead of blocking forever.
  /// The first reason sticks.
  void poison(const std::string& reason);
  [[nodiscard]] bool poisoned() const { return poisoned_; }
  [[nodiscard]] const std::string& poison_reason() const { return reason_; }

 private:
  // Flat storage: queues are short (outstanding messages per processor),
  // matching scans them linearly anyway, and a vector reaches a steady-state
  // capacity instead of allocating a deque chunk per push.
  std::vector<Message> q_;
  std::uint64_t next_seq_ = 0;
  bool poisoned_ = false;
  std::string reason_;
};

}  // namespace f90d::machine
