//===- analysis/LoopNest.cpp - Loop-nesting tree + reduction -------------===//

#include "analysis/LoopNest.h"

#include "passes/LoopNormalize.h"
#include "support/FailPoint.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cassert>
#include <new>
#include <stdexcept>

using namespace ardf;

namespace {

/// True when \p Stmts contains a break binding to the loop whose body
/// this is — i.e. one not nested inside a further loop.
bool hasOwnLevelBreak(const StmtList &Stmts) {
  for (const StmtPtr &S : Stmts) {
    switch (S->getKind()) {
    case Stmt::Kind::Break:
      return true;
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S.get());
      if (hasOwnLevelBreak(IS->getThen()) || hasOwnLevelBreak(IS->getElse()))
        return true;
      break;
    }
    case Stmt::Kind::Assign:
    case Stmt::Kind::DoLoop:
    case Stmt::Kind::While:
      break;
    }
  }
  return false;
}

/// True when any statement in \p Stmts (at any depth) assigns scalar
/// \p Name or rebinds it as an inner induction variable, excluding the
/// statement \p Skip.
bool assignsScalar(const StmtList &Stmts, const std::string &Name,
                   const Stmt *Skip) {
  bool Found = false;
  forEachStmt(Stmts, [&](const Stmt &S) {
    if (&S == Skip || Found)
      return;
    if (const auto *AS = dyn_cast<AssignStmt>(&S)) {
      if (const auto *V = dyn_cast<VarRef>(AS->getLHS()))
        if (V->getName() == Name)
          Found = true;
    } else if (const auto *DL = dyn_cast<DoLoopStmt>(&S)) {
      if (DL->getIndVar() == Name)
        Found = true;
    }
  });
  return Found;
}

/// The first statement of \p Stmts (pre-order, at any depth) that
/// assigns scalar \p Name, or null.
const AssignStmt *firstAssignment(const StmtList &Stmts,
                                  const std::string &Name) {
  const AssignStmt *First = nullptr;
  forEachStmt(Stmts, [&](const Stmt &S) {
    if (const auto *AS = dyn_cast<AssignStmt>(&S); AS && !First)
      if (const auto *V = dyn_cast<VarRef>(AS->getLHS()))
        if (V->getName() == Name)
          First = AS;
  });
  return First;
}

/// True when \p E mentions scalar \p Name.
bool mentionsScalar(const Expr &E, const std::string &Name) {
  bool Found = false;
  forEachSubExpr(E, [&](const Expr &Sub) {
    if (const auto *V = dyn_cast<VarRef>(&Sub))
      if (V->getName() == Name)
        Found = true;
  });
  return Found;
}

bool canComplete(const StmtList &Stmts);

/// True when control can fall off the end of \p S: anything but a
/// `break`, or an `if` neither of whose branches can. A loop always can,
/// because its test exits.
bool canComplete(const Stmt &S) {
  if (isa<BreakStmt>(&S))
    return false;
  if (const auto *IS = dyn_cast<IfStmt>(&S))
    return canComplete(IS->getThen()) || canComplete(IS->getElse());
  return true;
}

bool canComplete(const StmtList &Stmts) {
  return std::all_of(Stmts.begin(), Stmts.end(),
                     [](const StmtPtr &S) { return canComplete(*S); });
}

/// Collects the DO loops of \p Stmts that are not nested inside another
/// loop in \p Stmts, in source order.
void collectOwnLevelLoops(const StmtList &Stmts,
                          std::vector<const DoLoopStmt *> &Out) {
  for (const StmtPtr &S : Stmts) {
    switch (S->getKind()) {
    case Stmt::Kind::DoLoop:
      Out.push_back(cast<DoLoopStmt>(S.get()));
      break;
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S.get());
      collectOwnLevelLoops(IS->getThen(), Out);
      collectOwnLevelLoops(IS->getElse(), Out);
      break;
    }
    case Stmt::Kind::While:
      collectOwnLevelLoops(cast<WhileStmt>(S.get())->getBody(), Out);
      break;
    case Stmt::Kind::Assign:
    case Stmt::Kind::Break:
      break;
    }
  }
}

} // namespace

const std::string &NestLoop::iv() const {
  static const std::string Empty;
  return Analyzed ? Analyzed->getIndVar() : Empty;
}

int64_t NestLoop::tripCount() const {
  return Analyzed ? Analyzed->getConstantTripCount() : -1;
}

std::vector<const NestLoop *> NestLoop::ancestors() const {
  std::vector<const NestLoop *> Result;
  for (const NestLoop *A = Parent; A; A = A->Parent)
    Result.push_back(A);
  std::reverse(Result.begin(), Result.end());
  return Result;
}

std::string NestLoop::path() const {
  std::string Result;
  for (const NestLoop *A : ancestors()) {
    Result += A->isSupported() ? A->iv() : "?";
    Result += '/';
  }
  Result += isSupported() ? iv() : "?";
  return Result;
}

LoopNestTree::LoopNestTree(const Program &P) : Prog(&P) {
  telem::Span NestSpan("loop-nest", "nest");

  discover(P.getStmts(), /*End=*/nullptr, /*Break=*/nullptr);

  // Analysis roots: reduced loops with no reduced parent. A supported
  // loop under an unsupported parent is analyzed standalone (its
  // per-level distances above the unsupported ancestor stay unknown).
  for (const std::unique_ptr<NestLoop> &Node : Nodes) {
    if (Node->Reduced && (!Node->Parent || !Node->Parent->Reduced)) {
      Node->Analyzed = Node->Reduced.get();
      assignAnalyzedForms(*Node);
    }
  }

  for (const auto &Node : Nodes)
    if (Node->isSupported())
      ++Supported;

  telem::count(telem::Counter::NestTrees);
  telem::count(telem::Counter::NestReduced, Supported);
  telem::count(telem::Counter::NestUnsupported, Nodes.size() - Supported);
}

void LoopNestTree::forEach(
    const std::function<void(const NestLoop &)> &Fn) const {
  for (const auto &Node : Nodes)
    Fn(*Node);
}

const NestLoop *LoopNestTree::nodeFor(const Stmt &SourceLoop) const {
  for (const auto &Node : Nodes)
    if (Node->Source == &SourceLoop)
      return Node.get();
  return nullptr;
}

void LoopNestTree::discover(const StmtList &Stmts, NestLoop *End,
                            NestLoop *Break) {
  // Statements after the first one that cannot complete normally are
  // unreachable. Every reachable statement before it continues to the
  // same place: the list's end if the whole list completes, a break
  // otherwise.
  size_t Stop = 0;
  while (Stop != Stmts.size() && canComplete(*Stmts[Stop]))
    ++Stop;
  NestLoop *After = Stop == Stmts.size() ? End : Break;

  for (size_t I = 0; I != Stmts.size() && I <= Stop; ++I) {
    const Stmt &S = *Stmts[I];
    if (const auto *IS = dyn_cast<IfStmt>(&S)) {
      discover(IS->getThen(), After, Break);
      discover(IS->getElse(), After, Break);
      continue;
    }
    const auto *DL = dyn_cast<DoLoopStmt>(&S);
    const auto *WS = dyn_cast<WhileStmt>(&S);
    if (!DL && !WS)
      continue;
    const StmtList &Body = DL ? DL->getBody() : WS->getBody();
    // A body that always breaks never reaches the latch: no back edge,
    // so no nest loop, though the loops inside it may still be one.
    if (!canComplete(Body)) {
      discover(Body, /*End=*/nullptr, /*Break=*/After);
      continue;
    }
    // The parent is the nest loop whose latch control reaches after
    // this loop.
    auto Node = std::make_unique<NestLoop>();
    NestLoop &L = *Node;
    L.Source = &S;
    L.Parent = After;
    if (After) {
      L.Depth = After->Depth + 1;
      After->Children.push_back(&L);
    } else {
      Roots.push_back(&L);
    }
    Nodes.push_back(std::move(Node));
    discover(Body, /*End=*/&L, /*Break=*/After);
    reduce(L, I == 0 ? nullptr : Stmts[I - 1].get());
  }
}

void LoopNestTree::reduce(NestLoop &L, const Stmt *Prev) {
  // An induction variable assignment is a fact about the source,
  // recorded before the fault boundary so that a failed reduction still
  // reports it.
  if (const auto *DL = dyn_cast<DoLoopStmt>(L.Source))
    L.IVAssignment = firstAssignment(DL->getBody(), DL->getIndVar());
  // Per-loop fault boundary: one loop failing to reduce (including an
  // armed nest.reduce failpoint) degrades to an unsupported record; the
  // rest of the tree still builds. Allocation failure propagates.
  try {
    failpoint::evaluate("nest.reduce");
    if (const auto *DL = dyn_cast<DoLoopStmt>(L.Source))
      reduceDoLoop(L, *DL);
    else
      reduceWhile(L, *cast<WhileStmt>(L.Source), Prev);
  } catch (const std::bad_alloc &) {
    throw;
  } catch (const std::exception &E) {
    L.Reduced.reset();
    L.UnsupportedReason = std::string("internal error during reduction: ") +
                          E.what();
  }
}

/// Shared rejection checks; returns a non-empty reason to reject.
static std::string commonRejection(const NestLoop &L, const StmtList &Body) {
  if (hasOwnLevelBreak(Body))
    return "loop has an early exit (break); must-facts would be unsound";
  for (const NestLoop *Child : L.Children)
    if (!Child->Reduced)
      return "contains an unsupported inner loop";
  return "";
}

void LoopNestTree::reduceDoLoop(NestLoop &L, const DoLoopStmt &DL) {
  std::string Reason = commonRejection(L, DL.getBody());
  if (Reason.empty() && DL.getStep() == 0)
    Reason = "zero loop step";
  if (Reason.empty() &&
      (L.IVAssignment ||
       assignsScalar(DL.getBody(), DL.getIndVar(), /*Skip=*/nullptr)))
    Reason = "induction variable '" + DL.getIndVar() +
             "' is assigned inside the loop";
  if (Reason.empty() && DL.getBody().empty())
    Reason = "empty loop body";
  if (!Reason.empty()) {
    L.UnsupportedReason = std::move(Reason);
    return;
  }

  auto Raw = std::make_unique<DoLoopStmt>(
      DL.getIndVar(), DL.getLower()->clone(), DL.getUpper()->clone(),
      reduceBody(L, DL.getBody()), DL.getStep());
  Raw->setLoc(DL.getLoc());
  L.Reduced = normalizeLoop(std::move(Raw));
}

void LoopNestTree::reduceWhile(NestLoop &L, const WhileStmt &WS,
                               const Stmt *Prev) {
  std::string Reason = commonRejection(L, WS.getBody());
  if (!Reason.empty()) {
    L.UnsupportedReason = std::move(Reason);
    return;
  }

  // Guard shape: iv <op> bound, op in { <, <=, >, >= }.
  const auto *Cond = dyn_cast<BinaryExpr>(WS.getCond());
  const VarRef *IVRef =
      Cond ? dyn_cast<VarRef>(Cond->getLHS()) : nullptr;
  BinaryOpKind Op = Cond ? Cond->getOp() : BinaryOpKind::Add;
  bool Upward = Op == BinaryOpKind::Lt || Op == BinaryOpKind::Le;
  bool Downward = Op == BinaryOpKind::Gt || Op == BinaryOpKind::Ge;
  if (!Cond || !IVRef || (!Upward && !Downward)) {
    L.UnsupportedReason =
        "loop condition is not a counted form (expected `iv < bound`, "
        "`iv <= bound`, `iv > bound`, or `iv >= bound`)";
    return;
  }
  const std::string &IV = IVRef->getName();
  const Expr *Bound = Cond->getRHS();

  // Initialization: `iv = lo` immediately before the while.
  const auto *Init = Prev ? dyn_cast<AssignStmt>(Prev) : nullptr;
  const VarRef *InitLHS = Init ? dyn_cast<VarRef>(Init->getLHS()) : nullptr;
  if (!InitLHS || InitLHS->getName() != IV) {
    L.UnsupportedReason = "no initialization of '" + IV +
                          "' immediately before the loop";
    return;
  }

  // Increment: a single trailing `iv = iv + c` / `iv = iv - c` /
  // `iv = c + iv` with a non-zero literal c.
  const StmtList &Body = WS.getBody();
  const auto *Incr =
      Body.empty() ? nullptr : dyn_cast<AssignStmt>(Body.back().get());
  const VarRef *IncrLHS = Incr ? dyn_cast<VarRef>(Incr->getLHS()) : nullptr;
  int64_t Step = 0;
  if (IncrLHS && IncrLHS->getName() == IV) {
    if (const auto *RHS = dyn_cast<BinaryExpr>(Incr->getRHS())) {
      const auto *AddL = dyn_cast<VarRef>(RHS->getLHS());
      const auto *AddR = dyn_cast<VarRef>(RHS->getRHS());
      const auto *LitL = dyn_cast<IntLit>(RHS->getLHS());
      const auto *LitR = dyn_cast<IntLit>(RHS->getRHS());
      if (RHS->getOp() == BinaryOpKind::Add && AddL &&
          AddL->getName() == IV && LitR)
        Step = LitR->getValue();
      else if (RHS->getOp() == BinaryOpKind::Add && AddR &&
               AddR->getName() == IV && LitL)
        Step = LitL->getValue();
      else if (RHS->getOp() == BinaryOpKind::Sub && AddL &&
               AddL->getName() == IV && LitR)
        Step = -LitR->getValue();
    }
  }
  if (Step == 0) {
    L.UnsupportedReason =
        "no trailing `" + IV + " = " + IV +
        " + c` increment with a non-zero literal step";
    return;
  }
  if ((Upward && Step < 0) || (Downward && Step > 0)) {
    L.UnsupportedReason = "increment direction contradicts the loop "
                          "condition";
    return;
  }

  // The induction variable must change only through the increment, and
  // the bound must be loop-invariant (a DO loop evaluates it once).
  if (assignsScalar(Body, IV, /*Skip=*/Incr)) {
    L.UnsupportedReason = "induction variable '" + IV +
                          "' is assigned more than once per iteration";
    return;
  }
  if (mentionsScalar(*Bound, IV)) {
    L.UnsupportedReason = "loop bound mentions the induction variable";
    return;
  }
  bool BoundMutated = false;
  forEachSubExpr(*Bound, [&](const Expr &E) {
    if (const auto *V = dyn_cast<VarRef>(&E))
      if (assignsScalar(Body, V->getName(), /*Skip=*/nullptr))
        BoundMutated = true;
  });
  if (BoundMutated) {
    L.UnsupportedReason = "loop bound is modified inside the loop";
    return;
  }
  if (Body.size() == 1) {
    L.UnsupportedReason = "empty loop body";
    return;
  }

  // Inclusive upper bound for the DO form: `<` and `>` are off by one,
  // folded into a literal bound when it fits.
  int64_t Adjust = Op == BinaryOpKind::Lt   ? -1
                   : Op == BinaryOpKind::Gt ? 1
                                            : 0;
  const auto *BoundLit = dyn_cast<IntLit>(Bound);
  int64_t Folded = 0;
  ExprPtr Upper;
  if (BoundLit &&
      !__builtin_add_overflow(BoundLit->getValue(), Adjust, &Folded))
    Upper = std::make_unique<IntLit>(Folded);
  else if (Adjust == 0)
    Upper = Bound->clone();
  else
    Upper = std::make_unique<BinaryExpr>(
        Adjust < 0 ? BinaryOpKind::Sub : BinaryOpKind::Add, Bound->clone(),
        std::make_unique<IntLit>(1));
  Upper->setLoc(Bound->getLoc());

  // The body minus the increment, inner loops replaced by their reduced
  // forms.
  StmtList Reduced = reduceBody(L, Body);
  Reduced.pop_back();

  auto Raw = std::make_unique<DoLoopStmt>(IV, Init->getRHS()->clone(),
                                          std::move(Upper),
                                          std::move(Reduced), Step);
  Raw->setLoc(WS.getLoc());
  L.ConsumedInit = Prev;
  L.Reduced = normalizeLoop(std::move(Raw));
}

StmtList LoopNestTree::reduceBody(const NestLoop &L, const StmtList &Body) {
  StmtList Result;
  Result.reserve(Body.size());
  for (const StmtPtr &S : Body) {
    StmtPtr Copy;
    switch (S->getKind()) {
    case Stmt::Kind::Assign:
    case Stmt::Kind::Break:
      Copy = S->clone();
      break;
    case Stmt::Kind::If: {
      const auto *IS = cast<IfStmt>(S.get());
      Copy = std::make_unique<IfStmt>(IS->getCond()->clone(),
                                      reduceBody(L, IS->getThen()),
                                      reduceBody(L, IS->getElse()));
      Copy->setLoc(S->getLoc());
      break;
    }
    case Stmt::Kind::DoLoop:
    case Stmt::Kind::While: {
      // Every loop reachable without crossing another loop is a direct
      // child; splice in its reduced form.
      const NestLoop *Child = nullptr;
      for (const NestLoop *C : L.Children)
        if (C->Source == S.get())
          Child = C;
      if (!Child || !Child->Reduced)
        throw std::logic_error("reduceBody: inner loop without a reduced "
                               "child record");
      Copy = Child->Reduced->clone();
      break;
    }
    }
    Result.push_back(std::move(Copy));
  }
  return Result;
}

void LoopNestTree::assignAnalyzedForms(NestLoop &Root) {
  // Pair each supported child with its embedded copy inside the parent's
  // analyzed form, in source order, then recurse. The reduced body
  // mirrors the source structure one-to-one, so order matching is exact.
  std::vector<NestLoop *> Work{&Root};
  while (!Work.empty()) {
    NestLoop *Node = Work.back();
    Work.pop_back();
    std::vector<const DoLoopStmt *> Embedded;
    collectOwnLevelLoops(Node->Analyzed->getBody(), Embedded);
    assert(Embedded.size() == Node->Children.size() &&
           "reduced body does not mirror the nest");
    for (unsigned I = 0; I != Node->Children.size(); ++I) {
      Node->Children[I]->Analyzed = Embedded[I];
      Work.push_back(Node->Children[I]);
    }
  }
}
