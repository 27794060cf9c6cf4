//===- affine/AffineAccess.cpp - Affine view of array references ---------===//

#include "affine/AffineAccess.h"

#include "lattice/Distance.h"
#include "support/CheckedArith.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

using namespace ardf;

namespace {

/// evalToPoly, except that a coefficient overflow throws
/// std::overflow_error.
std::optional<Poly> evalOrThrow(const Expr &E) {
  switch (E.getKind()) {
  case Expr::Kind::IntLit:
    return Poly::constant(cast<IntLit>(&E)->getValue());
  case Expr::Kind::VarRef:
    return Poly::symbol(cast<VarRef>(&E)->getName());
  case Expr::Kind::ArrayRef:
    return std::nullopt;
  case Expr::Kind::Unary: {
    const auto *UE = cast<UnaryExpr>(&E);
    if (UE->getOp() != UnaryOpKind::Neg)
      return std::nullopt;
    std::optional<Poly> Operand = evalOrThrow(*UE->getOperand());
    if (!Operand)
      return std::nullopt;
    return -*Operand;
  }
  case Expr::Kind::Binary: {
    const auto *BE = cast<BinaryExpr>(&E);
    std::optional<Poly> L = evalOrThrow(*BE->getLHS());
    std::optional<Poly> R = evalOrThrow(*BE->getRHS());
    if (!L || !R)
      return std::nullopt;
    switch (BE->getOp()) {
    case BinaryOpKind::Add:
      return *L + *R;
    case BinaryOpKind::Sub:
      return *L - *R;
    case BinaryOpKind::Mul:
      return *L * *R;
    case BinaryOpKind::Div:
      // Only exact division by a nonzero integer constant is polynomial.
      if (!R->isConstant() || R->getConstant() == 0)
        return std::nullopt;
      return L->dividedBy(R->getConstant());
    default:
      return std::nullopt;
    }
  }
  }
  return std::nullopt;
}

/// linearizeSubscripts, except that a coefficient overflow throws
/// std::overflow_error.
std::optional<Poly> linearizeOrThrow(const ArrayRefExpr &Ref,
                                     const Program &P) {
  unsigned NumDims = Ref.getNumSubscripts();
  if (NumDims == 1)
    return evalOrThrow(*Ref.getSubscript(0));

  const ArrayDecl *Decl = P.getArrayDecl(Ref.getName());
  if (!Decl || Decl->getNumDims() != NumDims)
    return std::nullopt;

  // Row-major: addr = (((s0) * d1 + s1) * d2 + s2) ...  The paper's
  // two-dimensional X[i, j] with first-dimension size N linearizes to
  // N*i + j (Fig. 4 discussion).
  Poly Addr;
  for (unsigned I = 0; I != NumDims; ++I) {
    std::optional<Poly> Sub = evalOrThrow(*Ref.getSubscript(I));
    if (!Sub)
      return std::nullopt;
    if (I == 0) {
      Addr = *Sub;
      continue;
    }
    std::optional<Poly> Dim = evalOrThrow(*Decl->DimSizes[I]);
    if (!Dim)
      return std::nullopt;
    Addr = Addr * *Dim + *Sub;
  }
  return Addr;
}

} // namespace

// A subscript whose polynomial overflows int64 is not affine: the
// occurrence becomes a whole-array kill.
std::optional<Poly> ardf::evalToPoly(const Expr &E) {
  try {
    return evalOrThrow(E);
  } catch (const std::overflow_error &) {
    return std::nullopt;
  }
}

std::optional<Poly> ardf::linearizeSubscripts(const ArrayRefExpr &Ref,
                                              const Program &P) {
  try {
    return linearizeOrThrow(Ref, P);
  } catch (const std::overflow_error &) {
    return std::nullopt;
  }
}

std::string AffineAccess::toString(const std::string &IV) const {
  std::ostringstream OS;
  OS << Array << '[';
  if (!A.isZero()) {
    if (A.isConstant() && A.getConstant() == 1)
      OS << IV;
    else
      OS << '(' << A << ")*" << IV;
    if (!B.isZero())
      OS << " + " << B;
  } else {
    OS << B;
  }
  OS << ']';
  return OS.str();
}

std::optional<AffineAccess> ardf::makeAffineAccess(const ArrayRefExpr &Ref,
                                                   const Program &P,
                                                   const std::string &IV) {
  std::optional<Poly> Linear = linearizeSubscripts(Ref, P);
  if (!Linear)
    return std::nullopt;
  auto Split = Linear->splitAffine(IV);
  if (!Split)
    return std::nullopt;
  // The coefficient of IV must itself be IV-free; splitAffine guarantees
  // this by construction (degree-2 occurrences are rejected).
  AffineAccess Access;
  Access.Array = Ref.getName();
  Access.A = std::move(Split->first);
  Access.B = std::move(Split->second);
  return Access;
}

std::vector<std::string> ardf::writtenScalars(const StmtList &Body) {
  std::vector<std::string> Written;
  auto Add = [&](const std::string &Name) {
    if (std::find(Written.begin(), Written.end(), Name) == Written.end())
      Written.push_back(Name);
  };
  forEachStmt(Body, [&](const Stmt &S) {
    if (const auto *AS = dyn_cast<AssignStmt>(&S)) {
      if (const auto *V = dyn_cast<VarRef>(AS->getLHS()))
        Add(V->getName());
    } else if (const auto *DL = dyn_cast<DoLoopStmt>(&S)) {
      Add(DL->getIndVar());
    }
  });
  return Written;
}

const std::string *
ardf::variantScalar(const AffineAccess &Acc,
                    const std::vector<std::string> &Written) {
  for (const std::string &Name : Written)
    if (Acc.A.mentions(Name) || Acc.B.mentions(Name))
      return &Name;
  return nullptr;
}

std::optional<Rational> ardf::constantReuseDistance(const AffineAccess &From,
                                                    const AffineAccess &To) {
  if (From.Array != To.Array)
    return std::nullopt;
  // f1(i - d) == f2(i) for all i requires equal coefficients on i and
  // d == (B1 - B2) / A1.
  if (From.A != To.A)
    return std::nullopt;
  try {
    Poly Diff = From.B - To.B;
    if (Diff.isZero())
      return Rational(0);
    if (From.A.isZero())
      return std::nullopt;
    return Diff.ratioTo(From.A);
  } catch (const std::overflow_error &) {
    return std::nullopt; // no distance within the int64 range
  }
}

namespace {

/// minOverlapDistance, except that an int64 overflow throws
/// std::overflow_error.
std::optional<int64_t> minOverlapOrThrow(const AffineAccess &From,
                                         const AffineAccess &To, int64_t Pr,
                                         int64_t Trip) {
  Poly Da = From.A - To.A;
  Poly Db = From.B - To.B;

  if (From.A.isZero()) {
    // Invariant source: every instance names the same cell; any overlap
    // holds at every distance, so the minimum is Pr.
    if (To.A.isZero()) {
      if (Db.isZero())
        return Pr;
      if (Db.isConstant())
        return std::nullopt;
      return Pr; // symbolic: conservative
    }
    if (Db.isConstant() && To.A.isConstant()) {
      Rational Hit(Db.getConstant(), To.A.getConstant());
      if (!Hit.isInteger())
        return std::nullopt;
      int64_t I = Hit.asInteger();
      if (I < 1 || (Trip != UnknownTripCount && I > Trip))
        return std::nullopt;
      return Pr;
    }
    return Pr; // symbolic: conservative
  }

  if (Da.isZero()) {
    // delta(i) == Db / A1 constant.
    std::optional<Rational> C = Db.isZero()
                                    ? std::optional<Rational>(Rational(0))
                                    : Db.ratioTo(From.A);
    if (!C)
      return Pr; // symbolic: conservative
    if (!C->isInteger())
      return std::nullopt;
    int64_t D = C->asInteger();
    return D >= Pr ? std::optional<int64_t>(D) : std::nullopt;
  }

  if (!Da.isConstant() || !Db.isConstant() || !From.A.isConstant())
    return Pr; // symbolic: conservative

  // delta(i) = (da*i + db) / a1, monotone linear; find the minimum value
  // >= Pr over integer i in [1, Trip].
  int64_t DaC = Da.getConstant(), DbC = Db.getConstant(),
          A1 = From.A.getConstant();
  auto DeltaAt = [&](int64_t I) {
    return Rational(checkedAdd(checkedMul(DaC, I), DbC), A1);
  };
  // The crossing delta(x*) == Pr.
  Rational XStar(checkedSub(checkedMul(Pr, A1), DbC), DaC);
  bool SlopePositive = (DaC > 0) == (A1 > 0);
  Rational M;
  if (SlopePositive) {
    int64_t I0 = XStar.isInteger() ? XStar.asInteger()
                                   : checkedAdd(XStar.floor(), 1);
    if (I0 < 1)
      I0 = 1;
    if (Trip != UnknownTripCount && I0 > Trip)
      return std::nullopt;
    M = DeltaAt(I0);
  } else {
    int64_t ILast = XStar.isInteger() ? XStar.asInteger()
                                      : checkedSub(XStar.ceil(), 1);
    if (Trip != UnknownTripCount && ILast > Trip)
      ILast = Trip;
    if (ILast < 1)
      return std::nullopt;
    M = DeltaAt(ILast);
  }
  if (M < Rational(Pr))
    return std::nullopt;
  return M.ceil();
}

} // namespace

std::optional<int64_t> ardf::minOverlapDistance(const AffineAccess &From,
                                                const AffineAccess &To,
                                                int64_t Pr, int64_t Trip) {
  try {
    return minOverlapOrThrow(From, To, Pr, Trip);
  } catch (const std::overflow_error &) {
    return Pr; // conservative, as for symbolic forms
  }
}
