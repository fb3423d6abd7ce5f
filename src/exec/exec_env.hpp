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
#include <cstddef>
#include <cstring>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <variant>
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

// --- the typed store's element codec -----------------------------------------
// Every array and every comm buffer keeps its elements in its declared
// Fortran type's storage type: REAL as double, INTEGER as long long, LOGICAL
// as one byte (0 or 1).  with_elem is the one place a base type picks its
// storage type; everything that reads or writes a type-erased element goes
// through load_elem / store_elem below.

/// The base type whose elements are stored as T.
template <typename T>
inline constexpr ast::BaseType kElemType =
    std::is_same_v<T, double>      ? ast::BaseType::kReal
    : std::is_same_v<T, long long> ? ast::BaseType::kInteger
                                   : ast::BaseType::kLogical;

/// Calls f with a zero element of `ty`'s storage type and returns what f
/// returns.
template <typename F>
decltype(auto) with_elem(ast::BaseType ty, F&& f) {
  switch (ty) {
    case ast::BaseType::kInteger: return f(0LL);
    case ast::BaseType::kLogical: return f(static_cast<unsigned char>(0));
    case ast::BaseType::kReal: break;
  }
  return f(0.0);
}

inline Value value_of(double x) { return Value::real(x); }
inline Value value_of(long long x) { return Value::integer(x); }
inline Value value_of(unsigned char x) { return Value::logical(x != 0); }

/// `v` as a T element: Value::as_d, as_i or as_b.
template <typename T>
T element_of(const Value& v) {
  if constexpr (std::is_same_v<T, double>)
    return v.as_d();
  else if constexpr (std::is_same_v<T, long long>)
    return v.as_i();
  else
    return static_cast<unsigned char>(v.as_b() ? 1 : 0);
}

/// Bytes per element of base type `ty`: what one element costs on the wire.
inline std::size_t elem_size(ast::BaseType ty) {
  return with_elem(ty, [](auto x) { return sizeof(x); });
}

/// Element `off` of `ty`-typed storage starting at `base`.
inline Value load_elem(ast::BaseType ty, const void* base, long long off) {
  return with_elem(ty, [&](auto x) {
    std::memcpy(&x, static_cast<const char*>(base) + off * sizeof(x),
                sizeof(x));
    return value_of(x);
  });
}

/// Store `v`, converted to `ty`, as element `off` of the storage at `base`.
inline void store_elem(ast::BaseType ty, void* base, long long off,
                       const Value& v) {
  with_elem(ty, [&](auto x) {
    x = element_of<decltype(x)>(v);
    std::memcpy(static_cast<char*>(base) + off * sizeof(x), &x, sizeof(x));
  });
}

/// One communication buffer: an iteration-ordered column (kIterBuf) or a
/// packed slab (kSlabBuf), both in the referenced array's element type, or
/// a broadcast element (kScalarSlot), which keeps its type in its Value.
/// Buffer objects live for the whole run (the vector is sized once), so
/// plans may hold stable `Buf*` pointers even though every communication
/// action refills the column.
struct Buf {
  ast::BaseType ty = ast::BaseType::kReal;  ///< element type of `col`
  std::vector<std::byte> col;  ///< elements, elem_size(ty) bytes each
  Value scalar;

  /// Refill the column with `n` zero elements of T, returned for writing.
  template <typename T>
  std::span<T> reset(std::size_t n) {
    ty = kElemType<T>;
    col.assign(n * sizeof(T), std::byte{0});
    return {reinterpret_cast<T*>(col.data()), n};
  }
  [[nodiscard]] Value at(Index k) const {
    require(k >= 0 && static_cast<std::size_t>(k + 1) * elem_size(ty) <=
                          col.size(),
            "buffer element within its column");
    return load_elem(ty, col.data(), k);
  }
  /// Append `v`, converted to the column's type.
  void push(const Value& v) {
    const std::size_t n = col.size();
    col.resize(n + elem_size(ty));
    store_elem(ty, col.data() + n, 0, v);
  }
};

/// One distributed array piece in its declared element type.
using TypedArray =
    std::variant<rts::DistArray<double>, rts::DistArray<long long>,
                 rts::DistArray<unsigned char>>;

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

  /// Calls f with array `n`'s storage, a DistArray<T> of its declared
  /// element type, and returns what f returns: the one way to reach typed
  /// storage.
  template <typename F>
  decltype(auto) with_storage(const std::string& n, F&& f) {
    auto it = arrays_.find(n);
    if (it == arrays_.end()) throw RtsError("no array storage for " + n);
    return std::visit(std::forward<F>(f), it->second);
  }
  /// Array `n`'s storage as DistArray<T>.  When `n` is declared with
  /// another type, throws "<who>: <n> is <TYPE>, but <why>".
  template <typename T>
  rts::DistArray<T>& array_as(const std::string& n, const std::string& who,
                              const std::string& why) {
    return with_storage(n, [&](auto& a) -> rts::DistArray<T>& {
      if constexpr (std::is_same_v<std::decay_t<decltype(a)>,
                                   rts::DistArray<T>>) {
        return a;
      } else {
        throw RtsError(who + ": " + n + " is " + ast::to_string(sym(n).type) +
                       ", but " + why);
      }
    });
  }
  /// Calls f(name, storage) for every array, in name order.
  template <typename F>
  void for_each_array(F&& f) {
    for (auto& [n, a] : arrays_) std::visit([&](auto& x) { f(n, x); }, a);
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
  std::map<std::string, TypedArray> arrays_;

  Value read_element_inner(const std::string& name, std::span<const Index> g,
                           bool ghost);
};

}  // namespace f90d::exec
