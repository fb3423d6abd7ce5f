#include "parti/schedule.hpp"

namespace f90d::parti {

namespace {

/// Does the processor at `coords` hold a copy of global element `g`?
bool holds_copy(const rts::Dad& dad, const std::vector<int>& coords,
                const std::vector<Index>& g) {
  for (int d = 0; d < dad.rank(); ++d) {
    const rts::DimMap& m = dad.dim(d);
    if (m.kind == rts::DistKind::kCollapsed) continue;
    if (dad.owner_coord(d, g[static_cast<size_t>(d)]) !=
        coords[static_cast<size_t>(m.grid_dim)])
      return false;
  }
  return true;
}

std::shared_ptr<Schedule> fresh(int nprocs) {
  auto s = std::make_shared<Schedule>();
  s->nprocs = nprocs;
  s->push_off.resize(static_cast<size_t>(nprocs));
  s->slot_of.resize(static_cast<size_t>(nprocs));
  s->send_pos.resize(static_cast<size_t>(nprocs));
  s->place_off.resize(static_cast<size_t>(nprocs));
  return s;
}

/// The localize step: rewrites every global flat id in `lists` as the
/// element offset of that element in this processor's allocated piece of
/// an array mapped by `dad` (owned-local index shifted by the overlap,
/// row-major over the allocated extents — exactly DistArray::at_global's
/// cell), and records those extents in the schedule.  Each inspector
/// collects global ids in push_off / place_off and localizes them last.
void localize(const rts::Dad& dad, const std::vector<int>& coords,
              std::vector<std::vector<Index>>& lists, Schedule& s) {
  const int r = dad.rank();
  s.aext.resize(static_cast<size_t>(r));
  for (int d = 0; d < r; ++d) {
    const rts::DimMap& m = dad.dim(d);
    const int c = m.kind == rts::DistKind::kCollapsed
                      ? 0
                      : coords[static_cast<size_t>(m.grid_dim)];
    s.aext[static_cast<size_t>(d)] = dad.alloc_extent(d, c);
  }
  std::vector<Index> g;
  for (std::vector<Index>& ids : lists) {
    for (Index& id : ids) {
      rts::unflatten_global(dad, id, g);
      Index off = 0;
      for (int d = 0; d < r; ++d) {
        const Index l = dad.local_of_global(d, g[static_cast<size_t>(d)]) +
                        dad.dim(d).overlap_lo;
        const Index ext = s.aext[static_cast<size_t>(d)];
        require(l >= 0 && l < ext,
                "local index within allocated extent (incl. overlap)");
        off = off * ext + l;
      }
      id = off;
    }
  }
}

}  // namespace

SchedulePtr schedule1_read(
    comm::GridComm& gc, const rts::Dad& source_dad,
    const std::vector<Index>& my_needs,
    const std::function<void(int, std::vector<Index>&)>& needs_of_peer) {
  const int p = gc.nprocs();
  auto s = fresh(p);
  s->tmp_size = static_cast<Index>(my_needs.size());

  // Receive side: canonical owner of each needed element, resolved from my
  // own grid line for replicated dimensions.
  std::vector<Index> g;
  for (size_t k = 0; k < my_needs.size(); ++k) {
    rts::unflatten_global(source_dad, my_needs[k], g);
    const int owner = source_dad.owner_logical(g, gc.my_coords());
    s->slot_of[static_cast<size_t>(owner)].push_back(static_cast<Index>(k));
  }

  // Send side: computed locally for every peer (this is what distinguishes
  // schedule1 from schedule2 — no communication in the inspector).
  std::vector<Index> peer_needs;
  for (int q = 0; q < p; ++q) {
    peer_needs.clear();
    needs_of_peer(q, peer_needs);
    const std::vector<int> q_coords = gc.grid().coords_of(q);
    for (Index gid : peer_needs) {
      rts::unflatten_global(source_dad, gid, g);
      if (source_dad.owner_logical(g, q_coords) == gc.my_logical())
        s->push_off[static_cast<size_t>(q)].push_back(gid);
    }
  }
  localize(source_dad, gc.my_coords(), s->push_off, *s);
  gc.proc().charge_int_ops(
      6.0 * static_cast<double>(my_needs.size()) * 2.0);
  s->inspector_messages = 0;
  return s;
}

SchedulePtr schedule1_write(
    comm::GridComm& gc, const rts::Dad& dest_dad,
    const std::vector<Index>& my_dests,
    const std::function<void(int, std::vector<Index>&)>& dests_of_peer) {
  const int p = gc.nprocs();
  auto s = fresh(p);
  s->tmp_size = static_cast<Index>(my_dests.size());

  // Send side: every replica holder of the destination element receives the
  // value.
  std::vector<Index> g;
  std::vector<int> owners;
  for (size_t k = 0; k < my_dests.size(); ++k) {
    rts::unflatten_global(dest_dad, my_dests[k], g);
    rts::detail::owner_replicas(dest_dad, g, gc.my_coords(), owners);
    for (int o : owners)
      s->send_pos[static_cast<size_t>(o)].push_back(static_cast<Index>(k));
  }

  // Receive side, locally computed: walk every peer's destination list in
  // that peer's iteration order and keep the elements I hold.
  std::vector<Index> peer_dests;
  for (int q = 0; q < p; ++q) {
    peer_dests.clear();
    dests_of_peer(q, peer_dests);
    for (Index gid : peer_dests) {
      rts::unflatten_global(dest_dad, gid, g);
      if (holds_copy(dest_dad, gc.my_coords(), g))
        s->place_off[static_cast<size_t>(q)].push_back(gid);
    }
  }
  localize(dest_dad, gc.my_coords(), s->place_off, *s);
  gc.proc().charge_int_ops(6.0 * static_cast<double>(my_dests.size()) * 2.0);
  s->inspector_messages = 0;
  return s;
}

SchedulePtr schedule2(comm::GridComm& gc, const rts::Dad& source_dad,
                      const std::vector<Index>& my_needs) {
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  auto s = fresh(p);
  s->tmp_size = static_cast<Index>(my_needs.size());

  // Receive side: bucket my needs by canonical owner.
  std::vector<std::vector<Index>> req_ids(static_cast<size_t>(p));
  std::vector<Index> g;
  for (size_t k = 0; k < my_needs.size(); ++k) {
    rts::unflatten_global(source_dad, my_needs[k], g);
    const int owner = source_dad.owner_logical(g, gc.my_coords());
    req_ids[static_cast<size_t>(owner)].push_back(my_needs[k]);
    s->slot_of[static_cast<size_t>(owner)].push_back(static_cast<Index>(k));
  }
  gc.proc().charge_int_ops(6.0 * static_cast<double>(my_needs.size()));

  // Fan-in: "each processor transmits a list of required array elements
  // (local_list) to the appropriate processors."
  s->push_off[static_cast<size_t>(me)] = req_ids[static_cast<size_t>(me)];
  constexpr int kTag = 8301;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    gc.send_logical<Index>(to, kTag + step,
                           std::span<const Index>(req_ids[static_cast<size_t>(to)]));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    s->push_off[static_cast<size_t>(from)] =
        gc.recv_logical<Index>(from, kTag + step);
  }
  localize(source_dad, gc.my_coords(), s->push_off, *s);
  s->inspector_messages = 2 * (p - 1);
  return s;
}

SchedulePtr schedule3(comm::GridComm& gc, const rts::Dad& dest_dad,
                      const std::vector<Index>& my_dests) {
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  auto s = fresh(p);
  s->tmp_size = static_cast<Index>(my_dests.size());

  // Send side: bucket (position, id) by every replica owner.
  std::vector<std::vector<Index>> ids(static_cast<size_t>(p));
  std::vector<Index> g;
  std::vector<int> owners;
  for (size_t k = 0; k < my_dests.size(); ++k) {
    rts::unflatten_global(dest_dad, my_dests[k], g);
    rts::detail::owner_replicas(dest_dad, g, gc.my_coords(), owners);
    for (int o : owners) {
      s->send_pos[static_cast<size_t>(o)].push_back(static_cast<Index>(k));
      ids[static_cast<size_t>(o)].push_back(my_dests[k]);
    }
  }
  gc.proc().charge_int_ops(6.0 * static_cast<double>(my_dests.size()));

  // One id-list exchange tells owners where arriving values are stored
  // ("schedule3 does not need to send local index in a separate
  //  communication step" — ids and placement travel together here).
  s->place_off[static_cast<size_t>(me)] = ids[static_cast<size_t>(me)];
  constexpr int kTag = 8401;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    gc.send_logical<Index>(to, kTag + step,
                           std::span<const Index>(ids[static_cast<size_t>(to)]));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    s->place_off[static_cast<size_t>(from)] =
        gc.recv_logical<Index>(from, kTag + step);
  }
  localize(dest_dad, gc.my_coords(), s->place_off, *s);
  s->inspector_messages = 2 * (p - 1);
  return s;
}

}  // namespace f90d::parti
