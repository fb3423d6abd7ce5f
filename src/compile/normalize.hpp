#pragma once
// Normalization (paper §2): "our compiler also transforms each array
// assignment statement and where statement into equivalent forall statement
// with no loss of information.  In this way, the subsequent steps need only
// deal with forall statements."
//
// Additional canonicalizations performed here:
//  * whole-array references become full sections, sections become
//    elementwise references indexed by synthesized FORALL variables
//    (value-based when the lhs stride is 1, so canonical lhs forms stay
//    canonical; position-based otherwise);
//  * reduction intrinsics (SUM, MAXVAL, MAXLOC, ...) are hoisted out of
//    expressions into dedicated Reduce statements assigning compiler
//    temporaries;
//  * whole-array intrinsic assignments (CSHIFT/EOSHIFT/SPREAD/TRANSPOSE/
//    MATMUL/...) become ArrayIntrinsic statements bound to run-time
//    routines, as in the paper's intrinsic library (§6).
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "frontend/sema.hpp"

namespace f90d::compile {

enum class NKind {
  kForallAssign,    ///< normalized forall with a single assignment
  kScalarAssign,    ///< scalar = expression (may read distributed elements)
  kReduce,          ///< scalar = REDUCTION(elementwise expr over sections)
  kArrayIntrinsic,  ///< array = CSHIFT/EOSHIFT/SPREAD/TRANSPOSE/MATMUL(...)
  kSeqDo,
  kIf,
  kPrint,
};

struct NormStmt;
using NormStmtPtr = std::unique_ptr<NormStmt>;

struct NormStmt {
  NKind kind;
  SourceLoc loc;

  // kForallAssign
  std::vector<ast::ForallSpec> specs;
  ast::ExprPtr mask;       ///< elementwise mask (WHERE / FORALL mask)
  ast::ExprPtr lhs;        ///< ArrayRef with elementwise subscripts
  ast::ExprPtr rhs;        ///< elementwise expression

  // kScalarAssign / kReduce
  std::string target;      ///< scalar (or temporary) being assigned
  std::string reduce_op;   ///< SUM / MAXVAL / MAXLOC / ...
  // kReduce reuses `specs` for the reduction iteration space, `rhs` for the
  // elementwise argument, `mask` for masked reductions.
  /// MAXLOC/MINLOC whose first axis iterates section positions (a stride
  /// other than +1): the location is loc_lo + loc_st * position.  Null when
  /// the first index variable already iterates the index values.
  ast::ExprPtr loc_lo, loc_st;

  // kArrayIntrinsic
  std::string intrinsic;
  std::string dest_array;
  std::vector<ast::ExprPtr> call_args;  ///< original argument expressions

  // kSeqDo
  std::string do_var;
  ast::ExprPtr do_lo, do_hi, do_st;

  // kIf: mask = condition
  std::vector<NormStmtPtr> body;
  std::vector<NormStmtPtr> else_body;

  // kPrint
  std::vector<ast::ExprPtr> items;

  explicit NormStmt(NKind k) : kind(k) {}
};

struct NormProgram {
  std::vector<NormStmtPtr> body;
  /// Compiler temporaries introduced by hoisting (scalars).
  std::map<std::string, frontend::Symbol> temps;
};

/// Normalize the executable part of an analyzed program.  `syms` is
/// extended with the introduced temporaries.
[[nodiscard]] NormProgram normalize(
    const ast::Program& program,
    std::map<std::string, frontend::Symbol>& syms);

}  // namespace f90d::compile
