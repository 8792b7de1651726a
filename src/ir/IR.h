//===- ir/IR.h - Quad-style control-flow-graph IR --------------*- C++ -*-===//
//
// Part of the PACO project, under the MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mid-level IR the offloading analyses and the interpreter work on:
/// functions of basic blocks of three-address instructions.
///
/// Properties relevant to the paper's algorithms:
///  * Every block ends in exactly one terminator (Br/Jmp/Call/CallInd/
///    Ret); calls terminate blocks so function calls sit on task
///    boundaries, matching the paper's task-branch definition.
///  * Each block carries its symbolic execution count (an affine function
///    of the run-time parameters), computed during lowering from the
///    SymbolicInfo flow analysis; intra-function edges carry counts too.
///  * Memory is addressed through typed abstract locations: every global,
///    local and malloc site is one location; Load/Store use a pointer
///    operand plus an element index.
///
//===----------------------------------------------------------------------===//

#ifndef PACO_IR_IR_H
#define PACO_IR_IR_H

#include "lang/AST.h"
#include "support/LinExpr.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace paco {

/// Sentinel for "no variable / no target".
inline constexpr unsigned KNone = ~0u;

/// MiniC int arithmetic wraps in two's complement. The interpreter and
/// constant folding both compute through these, so a folded program
/// computes exactly what the unfolded one would, and neither relies on
/// signed overflow (undefined behaviour in C++).
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

enum class Opcode : uint8_t {
  // Moves and conversions.
  Copy,
  IntToFloat,
  FloatToInt,
  // Unary.
  Neg,
  Not,
  BitNot,
  // Binary arithmetic/logic (operate on Ty).
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  // Comparisons (result int; compare at Ty).
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
  CmpEq,
  CmpNe,
  // Memory.
  AddrOfVar, ///< Dst = address of the variable named by operand A
  PtrAdd,    ///< Dst = A + B (element offset)
  Load,      ///< Dst = *(A + B)
  Store,     ///< *(A + B) = C
  Malloc,    ///< Dst = new block of A elements (site AllocSite)
  // I/O builtins (pin their task to the client).
  IoRead,     ///< Dst = one input value
  IoWrite,    ///< output value A
  IoReadBuf,  ///< read B elements into buffer A
  IoWriteBuf, ///< write B elements from buffer A
  // Terminators.
  Call,    ///< Dst? = Functions[Callee](Args...); continues at Succ0
  CallInd, ///< indirect call through func value A; continues at Succ0
  Ret,     ///< return A (optional)
  Br,      ///< if A != 0 goto Succ0 else Succ1
  Jmp,     ///< goto Succ0
};

const char *opcodeName(Opcode Op);

/// An instruction operand.
struct Operand {
  enum class Kind : uint8_t {
    None,
    ConstInt,
    ConstFloat,
    Local,   ///< Index into the enclosing function's locals.
    Global,  ///< Index into the module's globals.
    FuncRef, ///< Index of a function (func value).
    RtParam, ///< Declared run-time parameter (ParamId).
  };

  Kind K = Kind::None;
  int64_t IntVal = 0;
  double FloatVal = 0.0;
  unsigned Index = 0;

  static Operand none() { return {}; }
  static Operand constInt(int64_t V) {
    Operand O;
    O.K = Kind::ConstInt;
    O.IntVal = V;
    return O;
  }
  static Operand constFloat(double V) {
    Operand O;
    O.K = Kind::ConstFloat;
    O.FloatVal = V;
    return O;
  }
  static Operand local(unsigned I) {
    Operand O;
    O.K = Kind::Local;
    O.Index = I;
    return O;
  }
  static Operand global(unsigned I) {
    Operand O;
    O.K = Kind::Global;
    O.Index = I;
    return O;
  }
  static Operand funcRef(unsigned I) {
    Operand O;
    O.K = Kind::FuncRef;
    O.Index = I;
    return O;
  }
  static Operand rtParam(unsigned I) {
    Operand O;
    O.K = Kind::RtParam;
    O.Index = I;
    return O;
  }

  bool isNone() const { return K == Kind::None; }
};

/// One three-address instruction.
struct Instr {
  Opcode Op = Opcode::Copy;
  TypeKind Ty = TypeKind::Void; ///< Operate/result type.
  unsigned Dst = KNone;         ///< Destination local, if any.
  Operand A, B, C;
  std::vector<Operand> Args;  ///< Call arguments.
  unsigned Callee = KNone;    ///< Function index for Call.
  unsigned Succ0 = KNone;     ///< Branch target / continuation.
  unsigned Succ1 = KNone;     ///< False target for Br.
  unsigned AllocSite = KNone; ///< Malloc site id.
  /// Cost-model weight: how many workload units executing this
  /// instruction charges. Lowering emits weight 1; an optimization pass
  /// that deletes a reachable instruction folds the deleted weight into a
  /// surviving instruction of the same block, so block workloads -- and
  /// therefore every Theorem-1 capacity and simulated time -- are
  /// bit-identical whether or not the pass pipeline ran.
  unsigned Units = 1;
  SourceLoc Loc;

  bool isTerminator() const {
    switch (Op) {
    case Opcode::Call:
    case Opcode::CallInd:
    case Opcode::Ret:
    case Opcode::Br:
    case Opcode::Jmp:
      return true;
    default:
      return false;
    }
  }
};

/// A local variable slot (parameters first, then named locals and temps).
struct LocalVar {
  std::string Name;
  TypeKind Type = TypeKind::Int;
  bool IsArray = false;
  int64_t ArraySize = 0;
  bool IsTemp = false;
};

/// A module-level variable.
struct GlobalVar {
  std::string Name;
  TypeKind Type = TypeKind::Int;
  bool IsArray = false;
  int64_t ArraySize = 0;
  /// Constant initializers (ConstInt/ConstFloat operands).
  std::vector<Operand> Init;
};

/// A basic block: straight-line instructions plus one terminator at the
/// end, annotated with its symbolic execution count.
struct BasicBlock {
  std::vector<Instr> Instrs;
  LinExpr Count;

  const Instr &terminator() const {
    assert(!Instrs.empty() && Instrs.back().isTerminator() &&
           "block lacks a terminator");
    return Instrs.back();
  }
};

/// Static description of one dynamic allocation site.
struct AllocSiteInfo {
  LinExpr SizeElems;       ///< Elements per allocation.
  LinExpr ExecCount;       ///< How many times the site runs.
  TypeKind ElemType = TypeKind::Int;
  SourceLoc Loc;
};

class IRFunction {
public:
  std::string Name;
  TypeKind RetType = TypeKind::Void;
  unsigned NumParams = 0;
  std::vector<LocalVar> Locals;
  std::vector<BasicBlock> Blocks; ///< Blocks[0] is the entry.
  LinExpr EntryCount;
  /// Symbolic traversal counts of intra-function CFG edges.
  std::map<std::pair<unsigned, unsigned>, LinExpr> EdgeCounts;

  /// Intra-function successors of block \p B (call instructions yield
  /// their continuation; interprocedural edges are the TCFG's concern).
  std::vector<unsigned> successors(unsigned B) const;

  /// Workload units of block \p B (terminator included): the sum of the
  /// instructions' cost weights -- the per-execution workload unit of the
  /// cost model. Equals the instruction count until an optimization pass
  /// folds deleted instructions' weights into survivors.
  unsigned instructionCount(unsigned B) const {
    unsigned N = 0;
    for (const Instr &I : Blocks[B].Instrs)
      N += I.Units;
    return N;
  }
};

class IRModule {
public:
  std::vector<GlobalVar> Globals;
  std::vector<std::unique_ptr<IRFunction>> Functions;
  std::vector<AllocSiteInfo> AllocSites;
  unsigned MainIndex = KNone;

  /// \returns the index of function \p Name or KNone.
  unsigned findFunction(const std::string &Name) const;

  /// Renders the whole module as text (for tests and debugging).
  std::string dump(const ParamSpace &Space) const;
};

} // namespace paco

#endif // PACO_IR_IR_H
