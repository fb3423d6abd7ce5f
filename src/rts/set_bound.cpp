#include "rts/set_bound.hpp"

namespace f90d::rts {

namespace {

Index floordiv(Index a, Index b) {
  // b > 0
  Index q = a / b;
  if (a % b != 0 && a < 0) --q;
  return q;
}

Index ceildiv(Index a, Index b) {
  // b > 0
  Index q = a / b;
  if (a % b != 0 && a > 0) ++q;
  return q;
}

Index gcd_ll(Index a, Index b) {
  while (b != 0) {
    Index t = a % b;
    a = b;
    b = t;
  }
  return a < 0 ? -a : a;
}

}  // namespace

LocalRange set_bound(const Dad& dad, int d, int coord, Index glb, Index gub,
                     Index gst) {
  require(gst != 0, "set_BOUND: zero stride");
  // FORALL iterations are order-independent; normalize to ascending stride.
  if (gst < 0) {
    if (glb < gub) return LocalRange{};  // counts down from below: empty
    const Index n = (glb - gub) / (-gst);  // number of steps
    const Index last = glb + n * gst;      // smallest element
    glb = last;
    gub = glb + n * (-gst);
    gst = -gst;
  }
  LocalRange r;
  if (glb > gub) return r;  // empty global range

  const DimMap& m = dad.dim(d);

  if (m.kind == DistKind::kCollapsed) {
    // Not distributed: every processor iterates the whole (local == global)
    // range.
    r.lb = glb;
    r.ub = gub;
    r.st = gst;
    r.empty = false;
    return r;
  }

  if (m.kind == DistKind::kIndirect) {
    // Value-based ownership: walk this coordinate's owned cells (ascending
    // globals under identity alignment) and keep lattice members.  Local
    // index is the cell's rank in the owned list, so locals come out
    // ascending; compress to the triplet form when uniformly strided.
    require(m.table != nullptr, "set_BOUND: INDIRECT map table resolved");
    const auto& owned = m.table->cells[static_cast<size_t>(coord)];
    std::vector<Index> locals;
    for (size_t l = 0; l < owned.size(); ++l) {
      const Index g = owned[l];
      if (g < glb || g > gub || (g - glb) % gst != 0) continue;
      locals.push_back(static_cast<Index>(l));
    }
    if (locals.empty()) return r;
    r.empty = false;
    bool uniform = true;
    const Index st0 = locals.size() > 1 ? locals[1] - locals[0] : 1;
    for (size_t i = 2; i < locals.size(); ++i)
      uniform = uniform && locals[i] - locals[i - 1] == st0;
    if (uniform) {
      r.lb = locals.front();
      r.ub = locals.back();
      r.st = st0 > 0 ? st0 : 1;
      return r;
    }
    r.indices = std::move(locals);
    return r;
  }

  if (m.kind == DistKind::kBlock) {
    // Owned global index range [g_lo, g_hi] is contiguous for BLOCK.
    const Index cnt = dad.local_extent(d, coord);
    if (cnt == 0) return r;
    const Index g_lo = dad.global_of_local(d, 0, coord);
    const Index g_hi = dad.global_of_local(d, cnt - 1, coord);
    const Index lo = std::max(glb, g_lo);
    const Index hi = std::min(gub, g_hi);
    if (lo > hi) return r;
    // First iterate >= lo congruent to glb (mod gst).
    const Index g_first = glb + ceildiv(lo - glb, gst) * gst;
    if (g_first > hi) return r;
    const Index g_last = glb + floordiv(hi - glb, gst) * gst;
    // Local index = g - g_lo (counting within the owned range).
    r.lb = dad.local_of_global(d, g_first);
    r.ub = dad.local_of_global(d, g_last);
    r.st = gst;  // local stride equals global stride for BLOCK
    r.empty = false;
    return r;
  }

  if (m.block > 1) {
    // Block-cyclic CYCLIC(k): owned template cells come in runs of k every
    // k*P cells, so the owned subset of a strided range is generally not an
    // arithmetic progression.
    const Index p = dad.grid().extent(m.grid_dim);
    const Index b = m.align_offset;
    const Index k = m.block;
    const Index course = k * p;
    // Template range covered by the global range.
    const Index t_lo = glb + b, t_hi = gub + b;
    if (gst == 1) {
      // Unit stride (the dominant FORALL shape): the owned subset of a
      // template *interval* has contiguous ranks, so the local range is
      // lb:ub:1 — computable in O(1) from the first/last owned cell.
      const Index off = static_cast<Index>(coord) * k;
      Index first = (t_lo / course) * course + off;
      if (first + k - 1 < t_lo) first += course;  // block entirely below
      first = std::max(first, t_lo);
      Index last_bs = (t_hi / course) * course + off;
      if (last_bs > t_hi) last_bs -= course;  // block starts past the range
      const Index last = std::min(last_bs + k - 1, t_hi);
      if (first > t_hi || last < t_lo || first > last) return r;
      r.lb = dad.local_of_global(d, first - b);
      r.ub = dad.local_of_global(d, last - b);
      r.st = 1;
      r.empty = false;
      return r;
    }
    // Strided range: enumerate owned blocks and intersect each with the
    // global lattice {glb, glb+gst, ...}; fall back to the triplet form
    // when the local indices happen to be uniformly strided.
    std::vector<Index> locals;
    // First course containing an owned cell >= t_lo.
    for (Index t_blk = (t_lo / course) * course + static_cast<Index>(coord) * k;
         t_blk <= t_hi; t_blk += course) {
      const Index blk_lo = std::max(t_blk, t_lo);
      const Index blk_hi = std::min(t_blk + k - 1, t_hi);
      if (blk_lo > blk_hi) continue;
      // Lattice points g = glb + j*gst with g+b in [blk_lo, blk_hi].
      const Index j_lo = ceildiv(blk_lo - b - glb, gst);
      const Index j_hi = floordiv(blk_hi - b - glb, gst);
      for (Index j = std::max<Index>(j_lo, 0); j <= j_hi; ++j)
        locals.push_back(dad.local_of_global(d, glb + j * gst));
    }
    if (locals.empty()) return r;
    r.empty = false;
    // Uniform stride (or a single point): return the triplet form.
    bool uniform = true;
    const Index st0 = locals.size() > 1 ? locals[1] - locals[0] : 1;
    for (size_t i = 2; i < locals.size(); ++i)
      uniform = uniform && locals[i] - locals[i - 1] == st0;
    if (uniform) {
      r.lb = locals.front();
      r.ub = locals.back();
      r.st = st0 > 0 ? st0 : 1;
      return r;
    }
    r.indices = std::move(locals);
    return r;
  }

  // CYCLIC (align_stride == 1): owned global indices satisfy
  //   (g + b) mod P == coord.
  // Solutions of glb + k*gst = g with that congruence:
  //   k*gst === coord - b - glb  (mod P)
  const Index p = dad.grid().extent(m.grid_dim);
  const Index b = m.align_offset;
  const Index rhs = (((coord - b - glb) % p) + p) % p;
  const Index g0 = gcd_ll(gst, p);
  if (rhs % g0 != 0) return r;  // no solutions: processor masked out
  const Index kmax = (gub - glb) / gst;
  // Smallest non-negative k with k*gst === rhs (mod P); P is small (#procs),
  // a bounded scan is fine and avoids modular-inverse corner cases.
  Index k0 = -1;
  for (Index k = 0; k < p; ++k) {
    if (((k * gst) % p + p) % p == rhs) {
      k0 = k;
      break;
    }
  }
  require(k0 >= 0, "set_BOUND: congruence solvable");
  if (k0 > kmax) return r;
  const Index kstep = p / g0;
  const Index nsol = (kmax - k0) / kstep + 1;
  const Index g_first = glb + k0 * gst;
  const Index g_last = glb + (k0 + (nsol - 1) * kstep) * gst;
  r.lb = dad.local_of_global(d, g_first);
  r.ub = dad.local_of_global(d, g_last);
  // Consecutive solutions differ by gst*P/g0 in global index, i.e. by
  // gst/g0 in local (cyclic local index = (g+b)/P).
  r.st = nsol > 1 ? (dad.local_of_global(d, glb + (k0 + kstep) * gst) - r.lb)
                  : 1;
  r.empty = false;
  return r;
}

Index local_iteration_count(const Dad& dad, int d, int coord, Index glb,
                            Index gub, Index gst) {
  return set_bound(dad, d, coord, glb, gub, gst).count();
}

}  // namespace f90d::rts
