//===- dataflow/References.cpp - Reference universe of a loop ------------===//

#include "dataflow/References.h"

#include <algorithm>
#include <cassert>

using namespace ardf;

ReferenceUniverse::ReferenceUniverse(const LoopFlowGraph &Graph,
                                     const Program &P,
                                     const std::string &IVOverride,
                                     const std::vector<std::string>
                                         &ExtraWritten)
    : Graph(&Graph), Prog(&P),
      IV(IVOverride.empty() ? Graph.getIndVar() : IVOverride),
      Written(writtenScalars(Graph.getLoop().getBody())) {
  for (const std::string &Name : ExtraWritten)
    if (std::find(Written.begin(), Written.end(), Name) == Written.end())
      Written.push_back(Name);
  ByNode.resize(Graph.getNumNodes());
  for (unsigned Node = 0, E = Graph.getNumNodes(); Node != E; ++Node)
    collectFromNode(Node);
  computeAccessClasses();
}

void ReferenceUniverse::computeAccessClasses() {
  // Arrays and classes are numbered in order of first occurrence. An
  // occurrence joins the class of its array whose representative has
  // the same affine form (A, B), compared as polynomials, or opens the
  // next class; a loop's arrays and an array's classes are few, so both
  // lookups are linear scans that build no key.
  ArrayOf.assign(Occs.size(), 0);
  ClassOf.assign(Occs.size(), noAccessClass);
  std::vector<const std::string *> ArrayNames;
  std::vector<std::vector<unsigned>> ClassesOfArray;
  for (const RefOccurrence &Occ : Occs) {
    auto Named = std::find_if(
        ArrayNames.begin(), ArrayNames.end(),
        [&](const std::string *Name) { return *Name == Occ.arrayName(); });
    unsigned Array = ArrayOf[Occ.Id] = Named - ArrayNames.begin();
    if (Named == ArrayNames.end()) {
      ArrayNames.push_back(&Occ.arrayName());
      ClassesOfArray.emplace_back();
      ArrayClasses.push_back(0);
      ++NumArrays;
    }
    if (!Occ.isTrackable())
      continue;
    const AffineAccess &Form = *Occ.Affine;
    std::vector<unsigned> &Classes = ClassesOfArray[Array];
    auto Same = std::find_if(Classes.begin(), Classes.end(), [&](unsigned C) {
      const AffineAccess &Rep = *Occs[ClassRep[C]].Affine;
      return Rep.A == Form.A && Rep.B == Form.B;
    });
    if (Same != Classes.end()) {
      ClassOf[Occ.Id] = *Same;
      continue;
    }
    ClassOf[Occ.Id] = NumClasses;
    Classes.push_back(NumClasses++);
    ClassRep.push_back(Occ.Id);
    ClassArray.push_back(Array);
    ClassSlot.push_back(ArrayClasses[Array]++);
  }

  PairBase.assign(NumArrays + 1, 0);
  for (unsigned Array = 0; Array != NumArrays; ++Array)
    PairBase[Array + 1] = PairBase[Array] + size_t(ArrayClasses[Array]) *
                                                (ArrayClasses[Array] + 1);
}

void ReferenceUniverse::collectFromNode(unsigned Node) {
  const FlowNode &N = Graph->getNode(Node);
  switch (N.Kind) {
  case FlowNodeKind::Statement: {
    const auto *AS = cast<AssignStmt>(N.S);
    // Uses on the right-hand side first (they are evaluated first), then
    // uses in the target's subscripts, then the definition itself.
    collectExpr(*AS->getRHS(), Node, *N.S, /*InSummary=*/false);
    if (const ArrayRefExpr *Target = AS->getArrayTarget()) {
      for (const ExprPtr &Sub : Target->subscripts())
        collectExpr(*Sub, Node, *N.S, /*InSummary=*/false);
      addOccurrence(*Target, Node, *N.S, /*IsDef=*/true,
                    /*InSummary=*/false);
    }
    break;
  }
  case FlowNodeKind::Guard:
    collectExpr(*cast<IfStmt>(N.S)->getCond(), Node, *N.S,
                /*InSummary=*/false);
    break;
  case FlowNodeKind::Summary:
    collectSummary(*cast<DoLoopStmt>(N.S), Node);
    break;
  case FlowNodeKind::Exit:
    break;
  }
}

void ReferenceUniverse::collectExpr(const Expr &E, unsigned Node,
                                    const Stmt &Owner, bool InSummary) {
  forEachSubExpr(E, [&](const Expr &Sub) {
    if (const auto *AR = dyn_cast<ArrayRefExpr>(&Sub))
      addOccurrence(*AR, Node, Owner, /*IsDef=*/false, InSummary);
  });
}

void ReferenceUniverse::collectSummary(const DoLoopStmt &Inner,
                                       unsigned Node) {
  forEachStmt(Inner.getBody(), [&](const Stmt &S) {
    // Nested inner loops are traversed by forEachStmt itself; only the
    // per-statement references need handling here.
    switch (S.getKind()) {
    case Stmt::Kind::Assign: {
      const auto *AS = cast<AssignStmt>(&S);
      collectExpr(*AS->getRHS(), Node, S, /*InSummary=*/true);
      if (const ArrayRefExpr *Target = AS->getArrayTarget()) {
        for (const ExprPtr &Sub : Target->subscripts())
          collectExpr(*Sub, Node, S, /*InSummary=*/true);
        addOccurrence(*Target, Node, S, /*IsDef=*/true, /*InSummary=*/true);
      }
      break;
    }
    case Stmt::Kind::If:
      collectExpr(*cast<IfStmt>(&S)->getCond(), Node, S, /*InSummary=*/true);
      break;
    case Stmt::Kind::While:
      collectExpr(*cast<WhileStmt>(&S)->getCond(), Node, S,
                  /*InSummary=*/true);
      break;
    case Stmt::Kind::DoLoop:
    case Stmt::Kind::Break:
      break;
    }
  });
}

void ReferenceUniverse::addOccurrence(const ArrayRefExpr &Ref, unsigned Node,
                                      const Stmt &Owner, bool IsDef,
                                      bool InSummary) {
  RefOccurrence Occ;
  Occ.Id = Occs.size();
  Occ.Node = Node;
  Occ.Ref = &Ref;
  Occ.OwnerStmt = &Owner;
  Occ.IsDef = IsDef;
  Occ.InSummary = InSummary;
  // Trackable: affine in the IV, with symbolic terms the loop does not
  // write (an inner loop's IV among them: Section 3.2 tracks summary
  // references of the form X[a * i2 + b] only).
  Occ.Affine = makeAffineAccess(Ref, *Prog, IV);
  if (Occ.Affine && variantScalar(*Occ.Affine, Written))
    Occ.Affine.reset();
  // Untrackable references cannot be reasoned about individually;
  // summary references conservatively kill every same-array instance of
  // the enclosing loop (Section 3.2).
  Occ.KillsWholeArray = !Occ.Affine.has_value() || InSummary;
  ByNode[Node].push_back(Occ.Id);
  Occs.push_back(std::move(Occ));
}
