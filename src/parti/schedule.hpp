#pragma once
// PARTI-style inspector/executor runtime for unstructured communication
// (paper §5.1, §5.3.2; the original was the ICASE PARTI library [21]).
//
// A Schedule captures a reusable communication pattern:
//   * read side (precomp_read / gather): which of my owned source elements
//     each peer needs (push lists) and where arriving elements land in my
//     iteration-ordered temporary buffer (slot lists);
//   * write side (postcomp_write / scatter): which of my computed values go
//     to each peer (position lists) and where arriving values are stored in
//     my owned part of the destination array (placement lists).
//
// Three inspectors, as in the paper:
//   schedule1 — send and receive lists computable with *local* preprocessing
//               only (invertible affine subscript f(i)); used by
//               precomp_read / postcomp_write.
//   schedule2 — receivers know their needs but senders must learn them via
//               a fan-in communication step; used by gather.
//   schedule3 — senders know destinations; one id-list exchange tells the
//               receivers where to place values; used by scatter.
//
// "The same schedule can be reused repeatedly to carry out a particular
//  pattern of data exchange ... the cost of generating the schedules can be
//  amortized" — see ScheduleCache.
//
// The inspectors also *localize* the schedule, as PARTI's do: every push
// list and placement list is resolved, once, from global element ids to
// element offsets into the owner's allocated piece of the array (overlap
// areas included — the cell DistArray::at_global reaches).  The executor
// then copies by offset: no global-id arithmetic, no per-element index
// vectors, no per-call state beyond the caller's buffer.  A schedule
// records the allocated extents it was localized against, and the
// executor refuses an array of any other shape.
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/grid_comm.hpp"
#include "rts/dist_array.hpp"
#include "rts/remap.hpp"

namespace f90d::parti {

using rts::Index;

struct Schedule {
  int nprocs = 0;

  // --- read side (values flow owner -> requester) -------------------------
  /// Element offsets (into my allocated source piece) of the owned elements
  /// each peer asked for, in the peer's iteration order.
  std::vector<std::vector<Index>> push_off;
  /// For elements I receive from each peer: slots in my temporary buffer.
  std::vector<std::vector<Index>> slot_of;
  /// Size of my temporary buffer (= number of iterations I execute); on the
  /// write side, the length of the value vector `send_pos` indexes.
  Index tmp_size = 0;

  // --- write side (values flow computer -> owner) --------------------------
  /// Positions (into my iteration-ordered value vector) to ship per peer.
  std::vector<std::vector<Index>> send_pos;
  /// Element offsets (into my allocated destination piece) where arriving
  /// values are stored, per peer.
  std::vector<std::vector<Index>> place_off;

  /// Allocated extents (owned + overlap) of the array piece the offsets
  /// address.
  std::vector<Index> aext;

  /// Number of messages the inspector itself exchanged (0 for schedule1).
  int inspector_messages = 0;

  /// Payload bytes the read executor moves between *distinct* processors on
  /// behalf of processor `me` (elements received from remote peers;
  /// self-copies excluded).  Feeds the --stats gather-byte counter.
  [[nodiscard]] long long remote_read_bytes(int me,
                                            std::size_t elem_size) const {
    return remote_elements(slot_of, me) * static_cast<long long>(elem_size);
  }
  /// Same for the write executor (elements received for placement from
  /// remote peers).
  [[nodiscard]] long long remote_write_bytes(int me,
                                             std::size_t elem_size) const {
    return remote_elements(place_off, me) * static_cast<long long>(elem_size);
  }

  /// The executors' shape check: `a`'s allocated extents are the ones the
  /// offsets were resolved against.
  template <typename T>
  void require_localized_for(const rts::DistArray<T>& a) const {
    bool same = static_cast<int>(aext.size()) == a.rank();
    for (int d = 0; same && d < a.rank(); ++d)
      same = aext[static_cast<size_t>(d)] == a.alloc_extent(d);
    require(same,
            "PARTI schedule localized against this array's allocated extents");
  }

 private:
  [[nodiscard]] long long remote_elements(
      const std::vector<std::vector<Index>>& per_peer, int me) const {
    long long n = 0;
    for (int q = 0; q < nprocs; ++q)
      if (q != me)
        n += static_cast<long long>(per_peer[static_cast<size_t>(q)].size());
    return n;
  }
};

using SchedulePtr = std::shared_ptr<const Schedule>;

/// schedule1, read flavour (precomp_read): every list is computed locally.
/// `my_needs`: global flat ids of `source_dad` elements my iterations read,
/// in iteration order.  `needs_of_peer(p, out)`: the same list for any peer
/// p, computable locally because the subscript is invertible — each
/// processor derives both its receive and its send lists without
/// communication (paper: "require preprocessing that involves local
/// computations [17]").
SchedulePtr schedule1_read(
    comm::GridComm& gc, const rts::Dad& source_dad,
    const std::vector<Index>& my_needs,
    const std::function<void(int, std::vector<Index>&)>& needs_of_peer);

/// schedule1, write flavour (postcomp_write): `my_dests` gives, per local
/// iteration, the global flat id of the destination element; `dests_of_peer`
/// computes the same for any peer locally.
SchedulePtr schedule1_write(
    comm::GridComm& gc, const rts::Dad& dest_dad,
    const std::vector<Index>& my_dests,
    const std::function<void(int, std::vector<Index>&)>& dests_of_peer);

/// schedule2 (gather): only receivers know their needs (vector-valued or
/// unknown subscripts); a fan-in request exchange builds the send lists.
SchedulePtr schedule2(comm::GridComm& gc, const rts::Dad& source_dad,
                      const std::vector<Index>& my_needs);

/// schedule3 (scatter): only senders know the destinations; one id-list
/// exchange records placement lists on the owners.
SchedulePtr schedule3(comm::GridComm& gc, const rts::Dad& dest_dad,
                      const std::vector<Index>& my_dests);

namespace detail {
/// An iteration value (the interpreter's doubles) as a storage element,
/// converted like exec::Value::real(v).as_d/as_i/as_b: INTEGER truncates,
/// LOGICAL is "nonzero".
template <typename T>
T element_of(double v) {
  if constexpr (std::is_same_v<T, unsigned char>)
    return static_cast<unsigned char>(v != 0.0 ? 1 : 0);
  else
    return static_cast<T>(v);
}
}  // namespace detail

/// Executor, read side: fills `out` (my iteration-ordered temporary buffer,
/// sched.tmp_size elements owned by the caller so its storage is reused)
/// with out[k] = source(need k).  Typed over REAL (double), INTEGER (long
/// long) and LOGICAL (unsigned char) storage.  Used by precomp_read and
/// gather.
template <typename T>
void execute_read(comm::GridComm& gc, const Schedule& sched,
                  const rts::DistArray<T>& source, std::span<T> out);

/// Same, sizing `out` to the schedule first.
template <typename T>
void execute_read(comm::GridComm& gc, const Schedule& sched,
                  const rts::DistArray<T>& source, std::vector<T>& out) {
  out.assign(static_cast<size_t>(sched.tmp_size), T{});
  execute_read(gc, sched, source, std::span<T>(out));
}

/// Executor, write side: ships values[k] (my iteration order), converted to
/// the destination's element type, to the owners of the destination
/// elements recorded in the schedule.  `combine` merges each arriving value
/// into the current element (overwrite when absent) — pass e.g. a sum to
/// give duplicate destination ids accumulate semantics; arriving values are
/// applied in a fixed processor order (self, then peers ascending by ring
/// distance), so the result is machine-independent.  Used by
/// postcomp_write, scatter.
template <typename T>
void execute_write(comm::GridComm& gc, const Schedule& sched,
                   rts::DistArray<T>& dest, std::span<const double> values,
                   const std::function<T(const T&, const T&)>& combine = {});

/// Paper-named wrappers.
template <typename T>
std::vector<T> precomp_read(comm::GridComm& gc, const Schedule& sched,
                            const rts::DistArray<T>& source) {
  std::vector<T> tmp;
  execute_read(gc, sched, source, tmp);
  return tmp;
}
template <typename T>
std::vector<T> gather(comm::GridComm& gc, const Schedule& sched,
                      const rts::DistArray<T>& source) {
  return precomp_read(gc, sched, source);
}
template <typename T>
void postcomp_write(comm::GridComm& gc, const Schedule& sched,
                    rts::DistArray<T>& dest, std::span<const double> values) {
  execute_write(gc, sched, dest, values);
}
template <typename T>
void scatter(comm::GridComm& gc, const Schedule& sched,
             rts::DistArray<T>& dest, std::span<const double> values) {
  execute_write(gc, sched, dest, values);
}

// --- executor definitions ---------------------------------------------------
// Remote elements travel in pooled payload buffers (packed and unpacked by
// memcpy: a payload is bytes, not T-aligned storage), one message per peer
// in ring order, zero-byte messages included.

template <typename T>
void execute_read(comm::GridComm& gc, const Schedule& sched,
                  const rts::DistArray<T>& source, std::span<T> out) {
  machine::Proc& proc = gc.proc();
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  require(sched.nprocs == p, "schedule built for this machine size");
  sched.require_localized_for(source);
  require(out.size() == static_cast<size_t>(sched.tmp_size),
          "gather buffer sized to the schedule");
  const T* src = source.storage().data();

  // Local traffic: elements I both own and need.
  {
    const auto& offs = sched.push_off[static_cast<size_t>(me)];
    const auto& slots = sched.slot_of[static_cast<size_t>(me)];
    require(offs.size() == slots.size(), "self push/slot lists conform");
    for (size_t j = 0; j < offs.size(); ++j)
      out[static_cast<size_t>(slots[j])] = src[offs[j]];
    proc.charge_copy(static_cast<double>(offs.size() * sizeof(T)));
  }

  constexpr int kTag = 8101;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    const auto& offs = sched.push_off[static_cast<size_t>(to)];
    std::vector<std::byte> payload =
        proc.acquire_payload(offs.size() * sizeof(T));
    for (size_t j = 0; j < offs.size(); ++j)
      std::memcpy(payload.data() + j * sizeof(T), src + offs[j], sizeof(T));
    gc.send_payload_logical(to, kTag + step, std::move(payload));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    machine::Message m = gc.recv_message_logical(from, kTag + step);
    const auto& slots = sched.slot_of[static_cast<size_t>(from)];
    require(m.payload.size() == slots.size() * sizeof(T),
            "gather payload matches schedule");
    for (size_t j = 0; j < slots.size(); ++j)
      std::memcpy(&out[static_cast<size_t>(slots[j])],
                  m.payload.data() + j * sizeof(T), sizeof(T));
    proc.release_payload(std::move(m.payload));
  }
}

template <typename T>
void execute_write(comm::GridComm& gc, const Schedule& sched,
                   rts::DistArray<T>& dest, std::span<const double> values,
                   const std::function<T(const T&, const T&)>& combine) {
  machine::Proc& proc = gc.proc();
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  require(sched.nprocs == p, "schedule built for this machine size");
  sched.require_localized_for(dest);
  require(values.size() == static_cast<size_t>(sched.tmp_size),
          "scatter values match the schedule's iterations");
  T* dst = dest.storage().data();
  auto place = [&](Index off, const T& v) {
    T& slot = dst[off];
    slot = combine ? combine(slot, v) : v;
  };

  {
    const auto& pos = sched.send_pos[static_cast<size_t>(me)];
    const auto& offs = sched.place_off[static_cast<size_t>(me)];
    require(pos.size() == offs.size(), "self pos/place lists conform");
    for (size_t j = 0; j < pos.size(); ++j)
      place(offs[j],
            detail::element_of<T>(values[static_cast<size_t>(pos[j])]));
    proc.charge_copy(static_cast<double>(pos.size() * sizeof(T)));
  }

  constexpr int kTag = 8201;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    const auto& pos = sched.send_pos[static_cast<size_t>(to)];
    std::vector<std::byte> payload =
        proc.acquire_payload(pos.size() * sizeof(T));
    for (size_t j = 0; j < pos.size(); ++j) {
      const T v = detail::element_of<T>(values[static_cast<size_t>(pos[j])]);
      std::memcpy(payload.data() + j * sizeof(T), &v, sizeof(T));
    }
    gc.send_payload_logical(to, kTag + step, std::move(payload));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    machine::Message m = gc.recv_message_logical(from, kTag + step);
    const auto& offs = sched.place_off[static_cast<size_t>(from)];
    require(m.payload.size() == offs.size() * sizeof(T),
            "scatter payload matches schedule");
    for (size_t j = 0; j < offs.size(); ++j) {
      T v;
      std::memcpy(&v, m.payload.data() + j * sizeof(T), sizeof(T));
      place(offs[j], v);
    }
    proc.release_payload(std::move(m.payload));
  }
}

}  // namespace f90d::parti
