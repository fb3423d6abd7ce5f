#pragma once
// The per-processor runtime environment of a node program: the distributed
// array pieces, replicated scalars and communication buffers one simulated
// processor owns while executing the compiled SPMD IR.
//
// This used to live inside the interpreter.  It is its own layer now so the
// execution-plan compiler (exec/exec_plan.hpp) can bind storage pointers and
// scalar slots directly, while the tree-walking fallback in interp/ keeps
// operating on the same state.  Layering: compile/ produces the IR, exec/
// holds the runtime state and the compiled plans, interp/ drives both.
#include <functional>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/grid_comm.hpp"
#include "compile/driver.hpp"
#include "rts/dist_array.hpp"

namespace f90d::exec {

using rts::Index;

/// A dynamically typed scalar: the interpreter's and the plan tape's value
/// representation.  The int/real distinction matters — Fortran integer
/// division and MOD follow integer semantics only when both operands are
/// integers.
struct Value {
  enum class K { kD, kI, kB } k = K::kD;
  double d = 0;
  long long i = 0;
  bool b = false;

  static Value real(double v) { return Value{K::kD, v, 0, false}; }
  static Value integer(long long v) { return Value{K::kI, 0, v, false}; }
  static Value logical(bool v) { return Value{K::kB, 0, 0, v}; }

  [[nodiscard]] double as_d() const {
    switch (k) {
      case K::kD: return d;
      case K::kI: return static_cast<double>(i);
      case K::kB: return b ? 1.0 : 0.0;
    }
    return 0;
  }
  [[nodiscard]] long long as_i() const {
    switch (k) {
      case K::kD: return static_cast<long long>(d);
      case K::kI: return i;
      case K::kB: return b ? 1 : 0;
    }
    return 0;
  }
  [[nodiscard]] bool as_b() const {
    switch (k) {
      case K::kD: return d != 0.0;
      case K::kI: return i != 0;
      case K::kB: return b;
    }
    return false;
  }
};

/// One communication buffer: iteration-ordered values (kIterBuf), a packed
/// slab (kSlabBuf), or a broadcast scalar slot (kScalarSlot).  Buffer
/// objects live for the whole run (the vector is sized once), so plans may
/// hold stable `Buf*` pointers even though the payload vectors are replaced
/// by every communication action.
struct Buf {
  std::vector<double> dvals;
  std::vector<long long> ivals;
  std::vector<unsigned char> lvals;  ///< gathered LOGICAL elements
  Value scalar;

  /// The iteration buffer of a gather from T storage.
  template <typename T>
  std::vector<T>& iter_vals() {
    if constexpr (std::is_same_v<T, double>)
      return dvals;
    else if constexpr (std::is_same_v<T, long long>)
      return ivals;
    else
      return lvals;
  }
};

/// Resolves an INDIRECT map array's initial contents: given the map array
/// name and its extent, returns the 1-based owner numbers per template cell
/// (empty = no initializer; the dimension falls back to a BLOCK-equivalent
/// ownership so undirected runs still work).  Must be deterministic and
/// identical on every processor — the resolved table keys schedule caches.
using MapResolver =
    std::function<std::vector<long long>(const std::string&, Index)>;

class Env {
 public:
  /// Allocate every distributed array (with the program's overlap areas
  /// applied to the DADs) and every replicated scalar for the processor at
  /// `gc`'s grid position.  Arrays are zero-filled; PARAMETER scalars get
  /// their values; the caller applies initial conditions afterwards.
  /// INDIRECT dimensions have their ownership tables resolved (through
  /// `resolve_map`) before any distributed allocation.
  Env(const compile::Compiled& c, comm::GridComm& gc,
      const MapResolver& resolve_map = {});

  [[nodiscard]] const frontend::Symbol& sym(const std::string& n) const {
    return compiled.sema.symbols.at(n);
  }
  [[nodiscard]] long long lower_of(const std::string& n, int d) const {
    return sym(n).lower[static_cast<size_t>(d)];
  }

  /// Read one element by 0-based global indices; `ghost` allows overlap
  /// cells.  Wraps failures with the array name and indices.
  Value read_element(const std::string& name, std::span<const Index> g,
                     bool ghost);
  void write_element(const std::string& name, std::span<const Index> g,
                     const Value& v);

  const compile::Compiled& compiled;
  comm::GridComm& gc;
  std::map<std::string, rts::Dad> dads;
  std::map<std::string, rts::DistArray<double>> dar;
  std::map<std::string, rts::DistArray<long long>> iar;
  std::map<std::string, rts::DistArray<unsigned char>> lar;

  /// Calls f with array `n`'s typed storage (dar, iar or lar by its
  /// declared type) and returns what f returns.
  template <typename F>
  decltype(auto) with_storage(const std::string& n, F&& f) {
    switch (sym(n).type) {
      case ast::BaseType::kInteger: return f(iar.at(n));
      case ast::BaseType::kLogical: return f(lar.at(n));
      case ast::BaseType::kReal: break;
    }
    return f(dar.at(n));
  }
  std::map<std::string, Value> scalars;
  std::vector<Buf> bufs;
  /// Monotone per-array write-version counters.  Bumped identically on
  /// every processor whenever an array is (possibly) written, so runtime
  /// schedule keys that embed the versions of their indirection arrays go
  /// stale — and rebuild collectively — the moment those arrays change.
  std::map<std::string, long long> versions;

  [[nodiscard]] long long version(const std::string& n) const {
    auto it = versions.find(n);
    return it == versions.end() ? 0 : it->second;
  }
  void bump_version(const std::string& n) { ++versions[n]; }

 private:
  Value read_element_inner(const std::string& name, std::span<const Index> g,
                           bool ghost);
};

}  // namespace f90d::exec
