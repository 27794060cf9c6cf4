//===- dataflow/References.h - Reference universe of a loop ----*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Collects every subscripted reference occurrence of a loop body into a
/// ReferenceUniverse: the raw material from which a problem's G and K
/// sets (Section 3.1) are selected. Each occurrence carries its flow
/// graph node, def/use role, and affine view a*iv + b with respect to the
/// loop's induction variable.
///
/// An occurrence is trackable when its linearized subscript is affine in
/// the induction variable and its symbolic terms stay constant while the
/// loop runs: they mention no scalar the loop body writes, an inner
/// loop's induction variable included (variantScalar). References inside
/// summary nodes (nested loops) follow the paper's Section 3.2
/// conventions: they generate only when trackable, and as killers they
/// always kill the whole array.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_REFERENCES_H
#define ARDF_DATAFLOW_REFERENCES_H

#include "affine/AffineAccess.h"
#include "cfg/LoopFlowGraph.h"

#include <cassert>
#include <optional>
#include <string>
#include <vector>

namespace ardf {

/// One occurrence of a subscripted reference in the loop body.
struct RefOccurrence {
  /// Index of this occurrence in ReferenceUniverse::occurrences().
  unsigned Id = 0;

  /// Flow graph node containing the occurrence.
  unsigned Node = 0;

  /// The syntactic reference (never null).
  const ArrayRefExpr *Ref = nullptr;

  /// The statement the reference occurs in: the AssignStmt for
  /// assignment defs/uses, the IfStmt for guard-condition uses. Never
  /// null. Transformations key rewrite plans on this.
  const Stmt *OwnerStmt = nullptr;

  /// True for definitions (assignment targets), false for uses.
  bool IsDef = false;

  /// True when the occurrence sits inside a summarized inner loop.
  bool InSummary = false;

  /// Affine view with respect to the analyzed loop's induction variable;
  /// nullopt when the subscript is not affine or mentions a scalar the
  /// loop writes (then the occurrence can only act as a whole-array
  /// kill).
  std::optional<AffineAccess> Affine;

  /// True when, acting as a killing reference, this occurrence must be
  /// assumed to kill every instance of any same-array reference:
  /// untrackable subscripts and references inside summary nodes.
  bool KillsWholeArray = false;

  const std::string &arrayName() const { return Ref->getName(); }

  /// True when the occurrence can be tracked by the framework (generate
  /// instances): it needs a valid affine view.
  bool isTrackable() const { return Affine.has_value(); }
};

/// All subscripted reference occurrences of one loop body.
class ReferenceUniverse {
public:
  /// Collects occurrences for \p Graph. \p P supplies array declarations
  /// for multi-dimensional linearization. When \p IVOverride is
  /// non-empty, affine views are taken with respect to that variable
  /// instead of the graph's own induction variable -- the paper's
  /// "separate analysis of the loop body with respect to an enclosing
  /// loop" (Section 3.6), under which the local induction variable acts
  /// as a symbolic constant. \p ExtraWritten adds scalars that vary
  /// while the loop runs beyond those its body writes (an enclosing
  /// level's writes); a subscript over any of them is untrackable.
  ReferenceUniverse(const LoopFlowGraph &Graph, const Program &P,
                    const std::string &IVOverride = "",
                    const std::vector<std::string> &ExtraWritten = {});

  /// The induction variable the affine views are taken against.
  const std::string &getIV() const { return IV; }

  const std::vector<RefOccurrence> &occurrences() const { return Occs; }
  const RefOccurrence &occurrence(unsigned Id) const { return Occs[Id]; }
  unsigned size() const { return Occs.size(); }

  /// Ids of the occurrences located in flow graph node \p Node.
  const std::vector<unsigned> &occurrencesAt(unsigned Node) const {
    return ByNode[Node];
  }

  /// Dense id of the array occurrence \p Id references, in order of
  /// first occurrence. Every occurrence has one, trackable or not; only
  /// same-array references can generate, kill, or reuse each other, so
  /// instances bucket their tracked references by it.
  unsigned arrayId(unsigned Id) const { return ArrayOf[Id]; }
  unsigned numArrays() const { return NumArrays; }

  /// Access-class id of trackable occurrence \p Id: occurrences of the
  /// same array with the same affine subscript form one class. This is
  /// the problem-independent core of the GroupByAccess equivalence (and
  /// the identity the class-pair tables key on); untrackable
  /// occurrences have no class (returns noAccessClass).
  unsigned accessClass(unsigned Id) const { return ClassOf[Id]; }
  unsigned numAccessClasses() const { return NumClasses; }
  static constexpr unsigned noAccessClass = ~0u;

  /// The affine view every member of access class \p Class shares.
  const AffineAccess &classAccess(unsigned Class) const {
    return *Occs[ClassRep[Class]].Affine;
  }

  /// The number of access classes of array \p Array, and the slot of
  /// class \p Class among its array's classes (0-based, in order of
  /// first occurrence).
  unsigned numArrayClasses(unsigned Array) const {
    return ArrayClasses[Array];
  }
  unsigned classSlot(unsigned Class) const { return ClassSlot[Class]; }

  /// Dense index of the ordered pair (\p Row, \p Col) of same-array
  /// access classes, in [0, numClassPairs()). \p Col may be
  /// wholeArrayColumn, which stands for a whole-array kill of \p Row's
  /// array. Tables keyed by class pairs (preserve constants, reuse and
  /// overlap distances) use this index space: the sum over arrays of
  /// C * (C + 1) for an array's C classes, not the square of all
  /// classes.
  size_t classPairIndex(unsigned Row, unsigned Col) const {
    unsigned Array = ClassArray[Row];
    unsigned Width = ArrayClasses[Array] + 1;
    assert((Col == wholeArrayColumn || ClassArray[Col] == Array) &&
           "class pair of different arrays");
    unsigned ColSlot = Col == wholeArrayColumn ? Width - 1 : ClassSlot[Col];
    return PairBase[Array] + size_t(ClassSlot[Row]) * Width + ColSlot;
  }
  size_t numClassPairs() const { return PairBase[NumArrays]; }
  static constexpr unsigned wholeArrayColumn = ~0u;

  const LoopFlowGraph &getGraph() const { return *Graph; }
  const Program &getProgram() const { return *Prog; }

private:
  void collectFromNode(unsigned Node);
  void collectExpr(const Expr &E, unsigned Node, const Stmt &Owner,
                   bool InSummary);
  void addOccurrence(const ArrayRefExpr &Ref, unsigned Node,
                     const Stmt &Owner, bool IsDef, bool InSummary);
  void collectSummary(const DoLoopStmt &Inner, unsigned Node);
  void computeAccessClasses();

  const LoopFlowGraph *Graph;
  const Program *Prog;
  std::string IV;
  /// The scalars the loop body writes (writtenScalars), plus the extra
  /// ones the constructor was given.
  std::vector<std::string> Written;
  std::vector<RefOccurrence> Occs;
  std::vector<std::vector<unsigned>> ByNode;
  std::vector<unsigned> ArrayOf;
  unsigned NumArrays = 0;
  std::vector<unsigned> ClassOf;
  unsigned NumClasses = 0;
  /// Per class: first member, array id, and slot among the array's
  /// classes.
  std::vector<unsigned> ClassRep;
  std::vector<unsigned> ClassArray;
  std::vector<unsigned> ClassSlot;
  /// Per array: class count, and the first classPairIndex of its block
  /// (one extra entry holds the total).
  std::vector<unsigned> ArrayClasses;
  std::vector<size_t> PairBase;
};

} // namespace ardf

#endif // ARDF_DATAFLOW_REFERENCES_H
