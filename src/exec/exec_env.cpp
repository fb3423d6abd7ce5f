#include "exec/exec_env.hpp"

namespace f90d::exec {

using rts::Dad;
using rts::DistArray;

Env::Env(const compile::Compiled& c, comm::GridComm& grid_comm,
         const MapResolver& resolve_map)
    : compiled(c), gc(grid_comm) {
  // One resolved ownership table per INDIRECT map array, shared by every
  // DAD dimension distributed through it.
  std::map<std::string, std::shared_ptr<const rts::IndirectTable>> tables;
  auto table_for = [&](const rts::DimMap& m) {
    auto it = tables.find(m.map_name);
    if (it != tables.end()) return it->second;
    const int p = static_cast<int>(gc.grid().extent(m.grid_dim));
    std::vector<long long> owners1;
    if (resolve_map) owners1 = resolve_map(m.map_name, m.template_extent);
    std::vector<int> owners(static_cast<size_t>(m.template_extent));
    if (owners1.empty()) {
      // No initializer: BLOCK-equivalent ownership (contiguous chunks).
      const Index chunk = (m.template_extent + p - 1) / p;
      for (Index t = 0; t < m.template_extent; ++t)
        owners[static_cast<size_t>(t)] = static_cast<int>(t / chunk);
    } else {
      if (static_cast<Index>(owners1.size()) != m.template_extent)
        throw RtsError("INDIRECT map " + m.map_name + " initializer has " +
                       std::to_string(owners1.size()) + " values for " +
                       std::to_string(m.template_extent) + " cells");
      for (size_t t = 0; t < owners1.size(); ++t)
        owners[t] = static_cast<int>(owners1[t] - 1);  // 1-based -> 0-based
    }
    auto tab = rts::IndirectTable::build(std::move(owners), p, m.map_name);
    tables.emplace(m.map_name, tab);
    return tab;
  };
  for (const auto& [name, dad0] : c.mapping.dads) {
    Dad dad = dad0;
    auto ov = c.program.overlaps.find(name);
    if (ov != c.program.overlaps.end()) {
      for (int d = 0; d < dad.rank(); ++d) {
        dad.dim(d).overlap_lo = ov->second[static_cast<size_t>(d)].first;
        dad.dim(d).overlap_hi = ov->second[static_cast<size_t>(d)].second;
      }
    }
    for (int d = 0; d < dad.rank(); ++d)
      if (dad.dim(d).kind == rts::DistKind::kIndirect)
        dad.dim(d).table = table_for(dad.dim(d));
    dads.emplace(name, dad);
    with_elem(sym(name).type, [&](auto x) {
      arrays_.emplace(name, DistArray<decltype(x)>(dad, gc));
    });
  }
  for (const auto& [name, s] : c.sema.symbols) {
    if (s.is_array()) continue;
    Value v;
    if (s.is_parameter) {
      v = s.type == ast::BaseType::kInteger ? Value::integer(s.int_value)
                                            : Value::real(s.real_value);
    } else {
      v = s.type == ast::BaseType::kInteger ? Value::integer(0)
                                            : Value::real(0.0);
    }
    scalars.emplace(name, v);
  }
  bufs.resize(static_cast<size_t>(c.program.buffer_count));
}

Value Env::read_element(const std::string& name, std::span<const Index> g,
                        bool ghost) {
  try {
    return read_element_inner(name, g, ghost);
  } catch (const Error& e) {
    std::string idx;
    for (Index v : g) idx += std::to_string(v) + ",";
    throw Error("reading " + name + "(" + idx + "): " + e.what());
  }
}

Value Env::read_element_inner(const std::string& name,
                              std::span<const Index> g, bool ghost) {
  return with_storage(name, [&](auto& a) {
    return value_of(ghost ? a.at_global_ghost(g) : a.at_global(g));
  });
}

void Env::write_element(const std::string& name, std::span<const Index> g,
                        const Value& v) {
  with_storage(name, [&](auto& a) {
    using T = typename std::decay_t<decltype(a)>::value_type;
    a.at_global(g) = element_of<T>(v);
  });
}

}  // namespace f90d::exec
