//===- affine/Poly.cpp - Multivariate integer polynomials ----------------===//

#include "affine/Poly.h"

#include "support/CheckedArith.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <compare>
#include <iterator>
#include <ostream>

using namespace ardf;

namespace {

/// Appends the decimal digits of \p V.
void appendDecimal(std::string &Out, uint64_t V) {
  char Buf[20];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

} // namespace

Poly Poly::constant(int64_t C) {
  Poly P;
  P.Const = C;
  return P;
}

Poly Poly::symbol(const std::string &Name) {
  Poly P;
  P.Terms.emplace_back(Monomial{Name}, 1);
  return P;
}

int64_t Poly::getConstant() const {
  assert(isConstant() && "polynomial is not a constant");
  return Const;
}

int64_t Poly::getCoeff(const Monomial &M) const {
  if (M.empty())
    return Const;
  auto It = std::lower_bound(
      Terms.begin(), Terms.end(), M,
      [](const Term &T, const Monomial &Key) { return T.first < Key; });
  return It != Terms.end() && It->first == M ? It->second : 0;
}

bool Poly::mentions(const std::string &Name) const {
  for (const auto &[M, C] : Terms)
    if (std::find(M.begin(), M.end(), Name) != M.end())
      return true;
  return false;
}

unsigned Poly::degree() const {
  unsigned D = 0;
  for (const auto &[M, C] : Terms)
    D = std::max<unsigned>(D, M.size());
  return D;
}

Poly Poly::combine(const Poly &L, const Poly &R, bool Subtract) {
  Poly Result;
  Result.Const =
      Subtract ? checkedSub(L.Const, R.Const) : checkedAdd(L.Const, R.Const);
  Result.Terms.reserve(L.Terms.size() + R.Terms.size());
  // Merge the two sorted term lists.
  auto I = L.Terms.begin(), IE = L.Terms.end();
  auto J = R.Terms.begin(), JE = R.Terms.end();
  while (I != IE || J != JE) {
    std::strong_ordering Order = J == JE   ? std::strong_ordering::less
                                 : I == IE ? std::strong_ordering::greater
                                           : I->first <=> J->first;
    if (Order < 0) {
      Result.Terms.push_back(*I++);
    } else if (Order > 0) {
      Result.Terms.emplace_back(J->first,
                                Subtract ? checkedNeg(J->second) : J->second);
      ++J;
    } else {
      int64_t C = Subtract ? checkedSub(I->second, J->second)
                           : checkedAdd(I->second, J->second);
      if (C != 0)
        Result.Terms.emplace_back(I->first, C);
      ++I;
      ++J;
    }
  }
  return Result;
}

Poly Poly::operator+(const Poly &RHS) const {
  return combine(*this, RHS, /*Subtract=*/false);
}

Poly Poly::operator-(const Poly &RHS) const {
  return combine(*this, RHS, /*Subtract=*/true);
}

Poly Poly::operator-() const {
  return combine(Poly(), *this, /*Subtract=*/true);
}

Poly Poly::operator*(const Poly &RHS) const {
  if (RHS.isConstant())
    return scaled(RHS.Const);
  if (isConstant())
    return RHS.scaled(Const);
  // Collect every partial product, then sort by monomial and merge.
  std::vector<Term> Products;
  if (RHS.Const != 0)
    for (const auto &[M, C] : Terms)
      Products.emplace_back(M, checkedMul(C, RHS.Const));
  if (Const != 0)
    for (const auto &[M, C] : RHS.Terms)
      Products.emplace_back(M, checkedMul(C, Const));
  for (const auto &[MA, CA] : Terms) {
    for (const auto &[MB, CB] : RHS.Terms) {
      Monomial M;
      M.reserve(MA.size() + MB.size());
      std::merge(MA.begin(), MA.end(), MB.begin(), MB.end(),
                 std::back_inserter(M));
      Products.emplace_back(std::move(M), checkedMul(CA, CB));
    }
  }
  std::sort(Products.begin(), Products.end(),
            [](const Term &A, const Term &B) { return A.first < B.first; });
  Poly Result;
  Result.Const = checkedMul(Const, RHS.Const);
  for (Term &T : Products) {
    if (!Result.Terms.empty() && Result.Terms.back().first == T.first)
      Result.Terms.back().second =
          checkedAdd(Result.Terms.back().second, T.second);
    else
      Result.Terms.push_back(std::move(T));
  }
  std::erase_if(Result.Terms, [](const Term &T) { return T.second == 0; });
  return Result;
}

Poly Poly::scaled(int64_t C) const {
  Poly Result;
  if (C == 0)
    return Result;
  Result.Const = checkedMul(Const, C);
  Result.Terms.reserve(Terms.size());
  for (const auto &[M, Coeff] : Terms)
    Result.Terms.emplace_back(M, checkedMul(Coeff, C));
  return Result;
}

std::optional<Poly> Poly::dividedBy(int64_t C) const {
  assert(C != 0 && "division by zero");
  // -1 is the one divisor whose quotient can overflow (INT64_MIN / -1).
  if (C == -1)
    return -*this;
  if (Const % C != 0)
    return std::nullopt;
  Poly Result;
  Result.Const = Const / C;
  Result.Terms.reserve(Terms.size());
  for (const auto &[M, Coeff] : Terms) {
    if (Coeff % C != 0)
      return std::nullopt;
    Result.Terms.emplace_back(M, Coeff / C);
  }
  return Result;
}

std::optional<Rational> Poly::ratioTo(const Poly &RHS) const {
  assert(!RHS.isZero() && "ratio to the zero polynomial");
  if (isZero())
    return Rational(0);
  // Monomial sets must match exactly and all coefficient ratios agree.
  if ((Const != 0) != (RHS.Const != 0) || Terms.size() != RHS.Terms.size())
    return std::nullopt;
  std::optional<Rational> Ratio;
  if (Const != 0)
    Ratio = Rational(Const, RHS.Const);
  for (size_t K = 0; K != Terms.size(); ++K) {
    if (Terms[K].first != RHS.Terms[K].first)
      return std::nullopt;
    Rational R(Terms[K].second, RHS.Terms[K].second);
    if (Ratio && *Ratio != R)
      return std::nullopt;
    Ratio = R;
  }
  return Ratio;
}

std::optional<std::pair<Poly, Poly>>
Poly::splitAffine(const std::string &Sym) const {
  Poly A, B;
  B.Const = Const;
  for (const auto &[M, C] : Terms) {
    auto It = std::find(M.begin(), M.end(), Sym);
    if (It == M.end()) {
      B.Terms.emplace_back(M, C);
      continue;
    }
    // Monomials are sorted, so a second occurrence would be adjacent.
    if (It + 1 != M.end() && *(It + 1) == Sym)
      return std::nullopt;
    if (M.size() == 1) {
      A.Const = C;
      continue;
    }
    Monomial Rest;
    Rest.reserve(M.size() - 1);
    Rest.insert(Rest.end(), M.begin(), It);
    Rest.insert(Rest.end(), It + 1, M.end());
    A.Terms.emplace_back(std::move(Rest), C);
  }
  // Dropping Sym can reorder monomials ({a, b} and {a, a, b} without b),
  // and never merges two (each keeps the rest of its multiset).
  std::sort(A.Terms.begin(), A.Terms.end(),
            [](const Term &X, const Term &Y) { return X.first < Y.first; });
  return std::make_pair(std::move(A), std::move(B));
}

Poly Poly::substituted(const std::string &Sym, const Poly &Value) const {
  Poly Result = Poly::constant(Const);
  for (const auto &[M, C] : Terms) {
    Poly Product = Poly::constant(C);
    for (const std::string &S : M)
      Product = Product * (S == Sym ? Value : Poly::symbol(S));
    Result = Result + Product;
  }
  return Result;
}

std::vector<std::string> Poly::symbols() const {
  std::vector<std::string> Names;
  for (const auto &[M, C] : Terms)
    Names.insert(Names.end(), M.begin(), M.end());
  std::sort(Names.begin(), Names.end());
  Names.erase(std::unique(Names.begin(), Names.end()), Names.end());
  return Names;
}

std::string Poly::toString() const {
  if (isZero())
    return "0";
  std::string Out;
  auto Append = [&Out](const Monomial *M, int64_t C) {
    if (!Out.empty())
      Out += C < 0 ? " - " : " + ";
    else if (C < 0)
      Out += '-';
    // The magnitude in uint64_t, where INT64_MIN has one.
    uint64_t Mag = C < 0 ? 0 - uint64_t(C) : uint64_t(C);
    if (!M) {
      appendDecimal(Out, Mag);
      return;
    }
    if (Mag != 1) {
      appendDecimal(Out, Mag);
      Out += '*';
    }
    for (size_t I = 0; I != M->size(); ++I) {
      if (I)
        Out += '*';
      Out += (*M)[I];
    }
  };
  // Higher-degree terms first for readability; the constant last.
  for (unsigned D = degree(); D != 0; --D)
    for (const auto &[M, C] : Terms)
      if (M.size() == D)
        Append(&M, C);
  if (Const != 0)
    Append(nullptr, Const);
  return Out;
}

std::ostream &ardf::operator<<(std::ostream &OS, const Poly &P) {
  return OS << P.toString();
}
