#include "native/lower.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>

namespace f90d::native {

namespace {

using exec::ExecPlan;
using exec::Ins;
using exec::Op;
using exec::RefPlan;
using exec::Tape;
using exec::Value;
using K = Value::K;

/// Internal control flow: a decline unwinds the lowering.
struct Fail {
  std::string reason;
};

[[noreturn]] void fail(std::string reason) { throw Fail{std::move(reason)}; }

/// Exact double literal: hexfloat round-trips every finite value bit-for-bit.
std::string dlit(double v) {
  if (!std::isfinite(v)) fail("non-finite real constant");
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return std::string(buf);
}

const char* tname(K k) {
  switch (k) {
    case K::kD: return "double";
    case K::kI: return "long long";
    case K::kB: return "bool";
  }
  return "double";
}

/// One SSA temporary: its C++ name and static value kind.
struct Tmp {
  std::string name;
  K k = K::kD;
};

// --- structural key ----------------------------------------------------------
// Fixed-width fields in a fixed order: each field's width follows from the
// fields before it, so two different structures never encode alike.

void put8(std::string& k, unsigned v) { k.push_back(static_cast<char>(v)); }

void put32(std::string& k, long long v) {
  const auto u = static_cast<std::uint32_t>(v);
  char b[4];
  std::memcpy(b, &u, 4);
  k.append(b, 4);
}

void put64(std::string& k, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  k.append(b, 8);
}

/// A reference's storage class as the Lowerer sees it: real slabs read
/// exactly like real storage (only the call-time pointer differs).
char ref_class(RefPlan::Kind k) {
  switch (k) {
    case RefPlan::Kind::kRealDirect:
    case RefPlan::Kind::kRealSlab: return 'd';
    case RefPlan::Kind::kIntDirect: return 'i';
    case RefPlan::Kind::kLogicalDirect: return 'l';
    case RefPlan::Kind::kScalarSlot: return 's';
    case RefPlan::Kind::kRealIterBuf:
    case RefPlan::Kind::kIntIterBuf: return 'x';
  }
  return 'x';
}

bool tape_reads_var(const Tape& t, size_t level) {
  for (const Ins& ins : t.ins)
    if (ins.op == Op::kVar && static_cast<size_t>(ins.a) == level) return true;
  return false;
}

class ShapeWalk {
 public:
  ShapeWalk(const ExecPlan& p, KernelShape& out) : p_(p), out_(out) {}

  void run() {
    std::string& k = out_.key;
    k.clear();
    out_.binds.clear();
    out_.n_ds = out_.n_is = out_.n_ls = 0;
    const size_t nv = p_.loops.size();
    const size_t nr = p_.refs.size();
    put8(k, 'P');
    put32(k, static_cast<long long>(nv));
    put8(k, static_cast<unsigned>(p_.lhs.kind));
    put32(k, static_cast<long long>(nr));
    for (size_t r = 0; r <= nr; ++r) {
      const RefPlan& rp = r < nr ? p_.refs[r] : p_.lhs;
      const char c = ref_class(rp.kind);
      put8(k, static_cast<unsigned char>(c));
      if (c == 's' || c == 'x') continue;  // no offset recurrence emitted
      for (size_t l = 0; l < nv; ++l)
        put8(k, l < rp.terms.size() && !rp.terms[l].table.empty() ? 1 : 0);
    }
    tape(p_.mask);
    tape(p_.rhs);
    // A level's enumeration only shows in the text when its value is read.
    for (size_t l = 0; l < nv; ++l) {
      const bool used = tape_reads_var(p_.mask, l) || tape_reads_var(p_.rhs, l);
      put8(k, !used ? 0 : p_.loops[l].values.empty() ? 1 : 2);
    }
  }

 private:
  void tape(const Tape& t) {
    std::string& k = out_.key;
    put32(k, static_cast<long long>(t.ins.size()));
    for (const Ins& ins : t.ins) {
      switch (ins.op) {
        case Op::kConst:
          put8(k, static_cast<unsigned>(Op::kConst));
          put8(k, static_cast<unsigned>(ins.cst.k));
          switch (ins.cst.k) {
            case K::kD: {
              std::uint64_t bits = 0;
              std::memcpy(&bits, &ins.cst.d, 8);
              put64(k, bits);
              break;
            }
            case K::kI: put64(k, static_cast<std::uint64_t>(ins.cst.i)); break;
            case K::kB: put8(k, ins.cst.b ? 1 : 0); break;
          }
          break;
        case Op::kScalar: scalar(ins.scalar); break;
        case Op::kRef: {
          const size_t r = static_cast<size_t>(ins.a);
          if (r < p_.refs.size() &&
              p_.refs[r].kind == RefPlan::Kind::kScalarSlot) {
            // Printed exactly like a kScalar load of the same slot.
            scalar(&p_.refs[r].buf->scalar);
            break;
          }
          [[fallthrough]];
        }
        default:
          put8(k, static_cast<unsigned>(ins.op));
          // kVar reads its loop level, kRef its reference id, and every
          // intrinsic (the ops from kAbs on) its argument count; the
          // fixed-arity operators and kElem (always declined) read none.
          if (ins.op == Op::kVar || ins.op == Op::kRef || ins.op >= Op::kAbs)
            put32(k, ins.a);
          break;
      }
    }
  }

  /// A runtime scalar operand: its first-occurrence slot (assigned here,
  /// per static kind) and that kind — never its address.
  void scalar(const Value* src) {
    const ScalarBind* b = nullptr;
    for (const ScalarBind& x : out_.binds)
      if (x.src == src) b = &x;
    if (b == nullptr) {
      ScalarBind nb;
      nb.src = src;
      nb.kind = src->k;
      switch (src->k) {
        case K::kD: nb.slot = out_.n_ds++; break;
        case K::kI: nb.slot = out_.n_is++; break;
        case K::kB: nb.slot = out_.n_ls++; break;
      }
      out_.binds.push_back(nb);
      b = &out_.binds.back();
    }
    put8(out_.key, static_cast<unsigned>(Op::kScalar));
    put32(out_.key, b->slot);
    put8(out_.key, static_cast<unsigned>(b->kind));
  }

  const ExecPlan& p_;
  KernelShape& out_;
};

class Lowerer {
 public:
  Lowerer(const ExecPlan& p, const KernelShape& shape)
      : p_(p), shape_(shape), nv_(p.loops.size()) {}

  Lowered run() {
    if (nv_ == 0) fail("empty loop nest");
    switch (p_.lhs.kind) {
      case RefPlan::Kind::kRealDirect:
      case RefPlan::Kind::kIntDirect:
      case RefPlan::Kind::kLogicalDirect:
        break;
      default:
        fail("non-direct lhs");
    }
    used_var_.assign(nv_, false);

    // Lower the tapes first (into side strings): this discovers which loop
    // variables, references and runtime scalars the body actually uses.
    const std::string body_ind(2 + 2 * nv_, ' ');
    std::ostringstream mos, ros;
    Tmp mask;
    const bool has_mask = !p_.mask.empty();
    if (has_mask) mask = lower_tape(p_.mask, mos, body_ind);
    const std::string rhs_ind = has_mask ? body_ind + "  " : body_ind;
    const Tmp res = lower_tape(p_.rhs, ros, rhs_ind);

    // No #include: the intrinsics are emitted as the GCC/Clang builtins
    // that libstdc++'s std:: overloads for double forward to, so the text
    // rounds exactly like the tape runner while the compiler skips parsing
    // <cmath> — most of a kernel's compile time otherwise.
    std::ostringstream os;
    os << "// generated by the f90d native node-program backend\n"
       << "static inline long long f90d_idiv(long long a, long long b) "
          "{ return b == 0 ? 0 : a / b; }\n"
       << "static inline long long f90d_imod(long long a, long long b) "
          "{ return b == 0 ? 0 : a % b; }\n"
       << "static inline long long f90d_iabs(long long a) "
          "{ return a < 0 ? -a : a; }\n"
       << "static inline long long f90d_ipow(long long a, long long b) "
          "{ long long r = 1; for (long long k = 0; k < b; ++k) r *= a; "
          "return r; }\n"
       << "extern \"C\" void " << kKernelSymbol
       << "(const long long* lp, const long long* const* lv,\n"
       << "    void* const* base, const long long* rb, const long long* st,\n"
       << "    const long long* const* tb, const double* ds,\n"
       << "    const long long* is, const unsigned char* ls) {\n"
       << "  (void)lp; (void)lv; (void)base; (void)rb; (void)st; (void)tb;\n"
       << "  (void)ds; (void)is; (void)ls;\n";

    // Storage pointers: reads in plan order, then the lhs at index nr.
    const size_t nr = p_.refs.size();
    for (size_t r = 0; r <= nr; ++r) {
      const RefPlan& rp = ref(r);
      const char* ty = nullptr;
      switch (rp.kind) {
        case RefPlan::Kind::kRealDirect:
        case RefPlan::Kind::kRealSlab: ty = "double"; break;
        case RefPlan::Kind::kIntDirect: ty = "long long"; break;
        case RefPlan::Kind::kLogicalDirect: ty = "unsigned char"; break;
        case RefPlan::Kind::kScalarSlot: continue;  // value arrives via ds/is/ls
        case RefPlan::Kind::kRealIterBuf:
        case RefPlan::Kind::kIntIterBuf:
          fail("iteration buffer (irregular plan)");
      }
      os << "  " << ty << "* b" << r << " = (" << ty << "*)base[" << r
         << "];\n";
    }
    for (size_t k = 0; k < nv_; ++k)
      os << "  const long long n" << k << " = lp[" << 3 * k << "];\n";

    // The nest.  Per level: the counter, the (optional) source-coordinate
    // value, and one hoisted partial flat offset per direct/slab reference.
    for (size_t k = 0; k < nv_; ++k) {
      const std::string ind(2 + 2 * k, ' ');
      os << ind << "for (long long c" << k << " = 0; c" << k << " < n" << k
         << "; ++c" << k << ") {\n";
      if (used_var_[k]) {
        os << ind << "  const long long v" << k << " = ";
        if (p_.loops[k].values.empty())
          os << "lp[" << 3 * k + 1 << "] + c" << k << " * lp[" << 3 * k + 2
             << "];\n";
        else
          os << "lv[" << k << "][c" << k << "];\n";
      }
      for (size_t r = 0; r <= nr; ++r) {
        if (ref(r).kind == RefPlan::Kind::kScalarSlot) continue;
        os << ind << "  const long long q" << r << "_" << k << " = "
           << (k == 0 ? std::string("rb[") + std::to_string(r) + "]"
                      : std::string("q") + std::to_string(r) + "_" +
                            std::to_string(k - 1))
           << " + " << term(r, k) << ";\n";
      }
    }

    os << mos.str();
    if (has_mask) os << body_ind << "if (" << cvt(mask, K::kB) << ") {\n";
    os << ros.str();
    os << rhs_ind << "b" << nr << "[" << off(nr) << "] = " << store(res)
       << ";\n";
    if (has_mask) os << body_ind << "}\n";
    for (size_t k = nv_; k > 0; --k)
      os << std::string(2 * k, ' ') << "}\n";
    os << "}\n";

    Lowered out;
    out.source = os.str();
    out.scalars = std::move(used_);
    return out;
  }

 private:
  const RefPlan& ref(size_t r) const { return r < p_.refs.size() ? p_.refs[r] : p_.lhs; }

  /// Flat-offset variable of ref r in the innermost scope.
  std::string off(size_t r) const {
    return std::string("q") + std::to_string(r) + "_" +
           std::to_string(nv_ - 1);
  }

  /// Level-k contribution of ref r's offset recurrence (stride or table —
  /// the choice is structural and baked into the source).
  std::string term(size_t r, size_t k) const {
    const size_t idx = r * nv_ + k;
    const exec::OffsetTerm& t = ref(r).terms[k];
    if (!t.table.empty())
      return std::string("tb[") + std::to_string(idx) + "][c" +
             std::to_string(k) + "]";
    return std::string("st[") + std::to_string(idx) + "] * c" +
           std::to_string(k);
  }

  /// Conversion mirroring Value::as_d / as_i / as_b on a static kind.
  std::string cvt(const Tmp& v, K to) const {
    if (v.k == to) return v.name;
    switch (to) {
      case K::kD:
        return v.k == K::kI ? std::string("(double)") + v.name
                            : std::string("(") + v.name + " ? 1.0 : 0.0)";
      case K::kI:
        return v.k == K::kD ? std::string("(long long)") + v.name
                            : std::string("(") + v.name + " ? 1LL : 0LL)";
      case K::kB:
        return v.k == K::kD ? std::string("(") + v.name + " != 0.0)"
                            : std::string("(") + v.name + " != 0)";
    }
    return v.name;
  }

  /// The store expression: Value::as_d/as_i/as_b by the lhs element type.
  std::string store(const Tmp& res) const {
    switch (p_.lhs.kind) {
      case RefPlan::Kind::kRealDirect: return cvt(res, K::kD);
      case RefPlan::Kind::kIntDirect: return cvt(res, K::kI);
      case RefPlan::Kind::kLogicalDirect:
        return std::string("(unsigned char)(") + cvt(res, K::kB) +
               " ? 1 : 0)";
      default: break;
    }
    fail("non-direct lhs");
  }

  /// The ds/is/ls slot plan_shape() assigned to `src`; its kind is baked
  /// into the source and re-verified by the wrapper every call.
  std::string scalar_slot(const Value* src) {
    const ScalarBind* b = nullptr;
    for (const ScalarBind& x : shape_.binds)
      if (x.src == src) b = &x;
    if (b == nullptr) fail("scalar operand missing from the plan shape");
    bool seen = false;
    for (const ScalarBind& x : used_) seen = seen || x.src == src;
    if (!seen) used_.push_back(*b);
    switch (b->kind) {
      case K::kD: return std::string("ds[") + std::to_string(b->slot) + "]";
      case K::kI: return std::string("is[") + std::to_string(b->slot) + "]";
      case K::kB:
        return std::string("(ls[") + std::to_string(b->slot) + "] != 0)";
    }
    return "ds[0]";
  }

  Tmp mk(std::ostringstream& os, const std::string& ind, K k,
         const std::string& expr) {
    Tmp t{std::string("t") + std::to_string(tmp_++), k};
    os << ind << "const " << tname(k) << " " << t.name << " = " << expr
       << ";\n";
    return t;
  }

  Tmp pop(std::vector<Tmp>& stack) {
    if (stack.empty()) fail("tape underflow");
    Tmp t = std::move(stack.back());
    stack.pop_back();
    return t;
  }

  /// Expand one postfix tape into SSA temporaries, in instruction order —
  /// the emitted evaluation order matches the tape runner exactly.
  Tmp lower_tape(const Tape& tape, std::ostringstream& os,
                 const std::string& ind) {
    std::vector<Tmp> stack;
    for (const Ins& ins : tape.ins) {
      switch (ins.op) {
        case Op::kConst:
          switch (ins.cst.k) {
            case K::kD: stack.push_back(mk(os, ind, K::kD, dlit(ins.cst.d))); break;
            case K::kI:
              stack.push_back(
                  mk(os, ind, K::kI, std::to_string(ins.cst.i) + "LL"));
              break;
            case K::kB:
              stack.push_back(mk(os, ind, K::kB, ins.cst.b ? "true" : "false"));
              break;
          }
          break;
        case Op::kScalar:
          stack.push_back(
              mk(os, ind, ins.scalar->k, scalar_slot(ins.scalar)));
          break;
        case Op::kVar: {
          const size_t level = static_cast<size_t>(ins.a);
          used_var_[level] = true;
          stack.push_back(Tmp{std::string("v") + std::to_string(level), K::kI});
          break;
        }
        case Op::kRef: {
          const size_t r = static_cast<size_t>(ins.a);
          const RefPlan& rp = p_.refs[r];
          switch (rp.kind) {
            case RefPlan::Kind::kRealDirect:
            case RefPlan::Kind::kRealSlab:
              stack.push_back(mk(os, ind, K::kD,
                                 std::string("b") + std::to_string(r) + "[" +
                                     off(r) + "]"));
              break;
            case RefPlan::Kind::kIntDirect:
              stack.push_back(mk(os, ind, K::kI,
                                 std::string("b") + std::to_string(r) + "[" +
                                     off(r) + "]"));
              break;
            case RefPlan::Kind::kLogicalDirect:
              stack.push_back(mk(os, ind, K::kB,
                                 std::string("(b") + std::to_string(r) + "[" +
                                     off(r) + "] != 0)"));
              break;
            case RefPlan::Kind::kScalarSlot: {
              const Value* src = &rp.buf->scalar;
              stack.push_back(mk(os, ind, src->k, scalar_slot(src)));
              break;
            }
            case RefPlan::Kind::kRealIterBuf:
            case RefPlan::Kind::kIntIterBuf:
              fail("iteration buffer (irregular plan)");
          }
          break;
        }
        case Op::kElem:
          fail("whole-array element access (irregular plan)");
        case Op::kNeg: {
          const Tmp v = pop(stack);
          if (v.k == K::kI)
            stack.push_back(mk(os, ind, K::kI, std::string("-") + v.name));
          else
            stack.push_back(
                mk(os, ind, K::kD, std::string("-") + cvt(v, K::kD)));
          break;
        }
        case Op::kNot: {
          const Tmp v = pop(stack);
          stack.push_back(
              mk(os, ind, K::kB, std::string("!") + cvt(v, K::kB)));
          break;
        }
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kDiv:
        case Op::kPow:
        case Op::kEq:
        case Op::kNe:
        case Op::kLt:
        case Op::kLe:
        case Op::kGt:
        case Op::kGe:
        case Op::kAnd:
        case Op::kOr: {
          const Tmp r = pop(stack);
          const Tmp l = pop(stack);
          stack.push_back(lower_bin(os, ind, ins.op, l, r));
          break;
        }
        default:
          stack.push_back(lower_intrinsic(os, ind, ins, stack));
          break;
      }
    }
    if (stack.size() != 1) fail("tape leaves wrong stack depth");
    return stack.back();
  }

  Tmp lower_bin(std::ostringstream& os, const std::string& ind, Op op,
                const Tmp& l, const Tmp& r) {
    const bool both_int = l.k == K::kI && r.k == K::kI;
    auto dd = [&](const char* o) {
      return cvt(l, K::kD) + " " + o + " " + cvt(r, K::kD);
    };
    switch (op) {
      case Op::kAnd:
        return mk(os, ind, K::kB, cvt(l, K::kB) + " && " + cvt(r, K::kB));
      case Op::kOr:
        return mk(os, ind, K::kB, cvt(l, K::kB) + " || " + cvt(r, K::kB));
      case Op::kAdd:
        return both_int ? mk(os, ind, K::kI, l.name + " + " + r.name)
                        : mk(os, ind, K::kD, dd("+"));
      case Op::kSub:
        return both_int ? mk(os, ind, K::kI, l.name + " - " + r.name)
                        : mk(os, ind, K::kD, dd("-"));
      case Op::kMul:
        return both_int ? mk(os, ind, K::kI, l.name + " * " + r.name)
                        : mk(os, ind, K::kD, dd("*"));
      case Op::kDiv:
        return both_int
                   ? mk(os, ind, K::kI,
                        "f90d_idiv(" + l.name + ", " + r.name + ")")
                   : mk(os, ind, K::kD, dd("/"));
      case Op::kPow:
        return both_int
                   ? mk(os, ind, K::kI,
                        "f90d_ipow(" + l.name + ", " + r.name + ")")
                   : mk(os, ind, K::kD,
                        std::string("__builtin_pow(") + cvt(l, K::kD) + ", " +
                            cvt(r, K::kD) + ")");
      case Op::kEq: return mk(os, ind, K::kB, dd("=="));
      case Op::kNe: return mk(os, ind, K::kB, dd("!="));
      case Op::kLt: return mk(os, ind, K::kB, dd("<"));
      case Op::kLe: return mk(os, ind, K::kB, dd("<="));
      case Op::kGt: return mk(os, ind, K::kB, dd(">"));
      case Op::kGe: return mk(os, ind, K::kB, dd(">="));
      default: break;
    }
    fail("unexpected binary op");
  }

  Tmp lower_intrinsic(std::ostringstream& os, const std::string& ind,
                      const Ins& ins, std::vector<Tmp>& stack) {
    const size_t argc = static_cast<size_t>(ins.a);
    if (stack.size() < argc) fail("tape underflow");
    std::vector<Tmp> args(stack.end() - static_cast<long>(argc), stack.end());
    stack.resize(stack.size() - argc);
    auto d1 = [&](const char* fn) {
      return mk(os, ind, K::kD,
                std::string(fn) + "(" + cvt(args[0], K::kD) + ")");
    };
    switch (ins.op) {
      case Op::kAbs:
        if (args[0].k == K::kI)
          return mk(os, ind, K::kI, "f90d_iabs(" + args[0].name + ")");
        return d1("__builtin_fabs");
      case Op::kSqrt: return d1("__builtin_sqrt");
      case Op::kExp: return d1("__builtin_exp");
      case Op::kLog: return d1("__builtin_log");
      case Op::kSin: return d1("__builtin_sin");
      case Op::kCos: return d1("__builtin_cos");
      case Op::kMod:
        if (args[0].k == K::kI && args[1].k == K::kI)
          return mk(os, ind, K::kI,
                    "f90d_imod(" + args[0].name + ", " + args[1].name + ")");
        return mk(os, ind, K::kD,
                  std::string("__builtin_fmod(") + cvt(args[0], K::kD) + ", " +
                      cvt(args[1], K::kD) + ")");
      case Op::kMin:
      case Op::kMax: {
        // The tape's accumulator keeps the *Value* of whichever argument
        // wins the as_d comparison; its kind is only static when every
        // argument agrees.
        for (const Tmp& a : args)
          if (a.k != args[0].k) fail("mixed-kind MIN/MAX");
        const char* cmp = ins.op == Op::kMin ? "<" : ">";
        Tmp acc = args[0];
        for (size_t k = 1; k < argc; ++k)
          acc = mk(os, ind, acc.k,
                   std::string("(") + cvt(args[k], K::kD) + " " + cmp + " " +
                       cvt(acc, K::kD) + ") ? " + args[k].name + " : " +
                       acc.name);
        return acc;
      }
      case Op::kToReal: return mk(os, ind, K::kD, cvt(args[0], K::kD));
      case Op::kToInt: return mk(os, ind, K::kI, cvt(args[0], K::kI));
      case Op::kNint:
        return mk(os, ind, K::kI,
                  std::string("__builtin_llround(") + cvt(args[0], K::kD) +
                      ")");
      default: break;
    }
    fail("unexpected intrinsic op");
  }

  const ExecPlan& p_;
  const KernelShape& shape_;
  const size_t nv_;
  int tmp_ = 0;
  std::vector<bool> used_var_;
  std::vector<ScalarBind> used_;  ///< binds the text reads, first use first
};

}  // namespace

void plan_shape(const exec::ExecPlan& p, KernelShape& out) {
  ShapeWalk(p, out).run();
}

std::optional<Lowered> lower_plan(const exec::ExecPlan& p, std::string* why) {
  KernelShape shape;
  plan_shape(p, shape);
  try {
    return Lowerer(p, shape).run();
  } catch (const Fail& f) {
    if (why != nullptr) *why = f.reason;
    return std::nullopt;
  }
}

namespace {

/// Header-free like the plan prelude: copies use __builtin_memcpy.
std::string comm_kernel_head() {
  std::ostringstream os;
  os << "// generated by the f90d comm-plan backend\n"
     << "extern \"C\" void " << kKernelSymbol
     << "(const long long* lp, const long long* const* lv,\n"
     << "    void* const* base, const long long* rb, const long long* st,\n"
     << "    const long long* const* tb, const double* ds,\n"
     << "    const long long* is, const unsigned char* ls) {\n"
     << "  (void)lp; (void)lv; (void)base; (void)rb; (void)st; (void)tb;\n"
     << "  (void)ds; (void)is; (void)ls;\n";
  return os.str();
}

}  // namespace

std::string lower_copy_kernel(int levels, bool pack) {
  std::ostringstream os;
  os << comm_kernel_head();
  os << "  const long long ch = rb[1];\n";
  if (pack) {
    os << "  const char* s0 = (const char*)base[0] + rb[0];\n"
       << "  char* d = (char*)base[1];\n";
  } else {
    os << "  const char* s = (const char*)base[1];\n"
       << "  char* d0 = (char*)base[0] + rb[0];\n";
  }
  for (int k = 0; k < levels; ++k) {
    const std::string ind(2 + 2 * k, ' ');
    os << ind << "for (long long c" << k << " = 0; c" << k << " < lp[" << k
       << "]; ++c" << k << ") {\n";
  }
  const std::string ind(2 + 2 * levels, ' ');
  std::string off;
  for (int k = 0; k < levels; ++k)
    off += " + c" + std::to_string(k) + "*st[" + std::to_string(k) + "]";
  if (pack) {
    os << ind << "__builtin_memcpy(d, s0" << off << ", (unsigned long)ch);\n"
       << ind << "d += ch;\n";
  } else {
    os << ind << "__builtin_memcpy(d0" << off << ", s, (unsigned long)ch);\n"
       << ind << "s += ch;\n";
  }
  for (int k = levels - 1; k >= 0; --k) os << std::string(2 + 2 * k, ' ') << "}\n";
  os << "}\n";
  return os.str();
}

std::string copy_kernel_key(int levels, bool pack) {
  return "copy/" + std::to_string(levels) + (pack ? "/1" : "/0");
}

std::string index_kernel_key(bool gather, bool cast_d2i) {
  return std::string("index/") + (gather ? "1" : "0") + (cast_d2i ? "/1" : "/0");
}

std::string lower_index_kernel(bool gather, bool cast_d2i) {
  std::ostringstream os;
  os << comm_kernel_head();
  os << "  const long long n = lp[0];\n"
     << "  const long long* off = tb[0];\n";
  if (gather && cast_d2i) {
    os << "  const char* s = (const char*)base[0];\n"
       << "  char* d = (char*)base[1];\n"
       << "  for (long long k = 0; k < n; ++k) {\n"
       << "    double v; __builtin_memcpy(&v, s + off[k], 8);\n"
       << "    const long long w = (long long)v;\n"
       << "    __builtin_memcpy(d + 8*k, &w, 8);\n"
       << "  }\n";
  } else if (gather) {
    os << "  const char* s = (const char*)base[0];\n"
       << "  char* d = (char*)base[1];\n"
       << "  for (long long k = 0; k < n; ++k)\n"
       << "    __builtin_memcpy(d + 8*k, s + off[k], 8);\n";
  } else {
    os << "  const char* s = (const char*)base[1];\n"
       << "  char* d = (char*)base[0];\n"
       << "  for (long long k = 0; k < n; ++k)\n"
       << "    __builtin_memcpy(d + off[k], s + 8*k, 8);\n";
  }
  os << "}\n";
  return os.str();
}

}  // namespace f90d::native
