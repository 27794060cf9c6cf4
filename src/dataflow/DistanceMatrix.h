//===- dataflow/DistanceMatrix.h - Flat IN/OUT tuple storage ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Contiguous NumNodes x NumTracked storage for the IN/OUT sides of a
/// data flow solution. The solver of Section 3.2 sweeps all nodes once
/// per pass, so a single row-major allocation (one row per flow graph
/// node, one column per tracked reference, 8 bytes per cell) keeps the
/// whole working set in one cache-friendly buffer. Rows are handed out
/// as lightweight views so Result.In[Node][Idx] call sites read like a
/// nested tuple; both solver engines sweep the same storage.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_DISTANCEMATRIX_H
#define ARDF_DATAFLOW_DISTANCEMATRIX_H

#include "lattice/Distance.h"

#include <cstddef>
#include <iosfwd>
#include <vector>

namespace ardf {

/// A NumNodes x NumTracked matrix of lattice values in one allocation.
class DistanceMatrix {
public:
  DistanceMatrix() = default;
  DistanceMatrix(unsigned NumNodes, unsigned NumTracked) {
    reset(NumNodes, NumTracked);
  }

  /// Resizes to NumNodes x NumTracked and fills every cell with
  /// NoInstance (the all-zero encoding).
  void reset(unsigned NumNodes, unsigned NumTracked) {
    Nodes = NumNodes;
    Tracked = NumTracked;
    Data.assign(static_cast<size_t>(NumNodes) * NumTracked, DistanceValue());
  }

  unsigned numNodes() const { return Nodes; }
  unsigned numTracked() const { return Tracked; }
  bool empty() const { return Data.empty(); }

  /// In-place view of one node's tuple (read-only).
  class ConstRow {
  public:
    ConstRow(const DistanceValue *Ptr, unsigned Size)
        : Ptr(Ptr), Len(Size) {}
    const DistanceValue &operator[](unsigned Idx) const { return Ptr[Idx]; }
    unsigned size() const { return Len; }
    const DistanceValue *begin() const { return Ptr; }
    const DistanceValue *end() const { return Ptr + Len; }

  private:
    const DistanceValue *Ptr;
    unsigned Len;
  };

  /// In-place view of one node's tuple (mutable).
  class Row {
  public:
    Row(DistanceValue *Ptr, unsigned Size) : Ptr(Ptr), Len(Size) {}
    DistanceValue &operator[](unsigned Idx) const { return Ptr[Idx]; }
    unsigned size() const { return Len; }
    DistanceValue *begin() const { return Ptr; }
    DistanceValue *end() const { return Ptr + Len; }
    operator ConstRow() const { return ConstRow(Ptr, Len); }

  private:
    DistanceValue *Ptr;
    unsigned Len;
  };

  Row operator[](unsigned Node) {
    return Row(Data.data() + static_cast<size_t>(Node) * Tracked, Tracked);
  }
  ConstRow operator[](unsigned Node) const {
    return ConstRow(Data.data() + static_cast<size_t>(Node) * Tracked,
                    Tracked);
  }

  DistanceValue *data() { return Data.data(); }
  const DistanceValue *data() const { return Data.data(); }

  friend bool operator==(const DistanceMatrix &A, const DistanceMatrix &B) {
    return A.Nodes == B.Nodes && A.Tracked == B.Tracked && A.Data == B.Data;
  }
  friend bool operator!=(const DistanceMatrix &A, const DistanceMatrix &B) {
    return !(A == B);
  }

private:
  unsigned Nodes = 0;
  unsigned Tracked = 0;
  std::vector<DistanceValue> Data;
};

/// Prints every row as a Table 1 style tuple, one node per line (used by
/// the gtest failure reporter).
std::ostream &operator<<(std::ostream &OS, const DistanceMatrix &M);

} // namespace ardf

#endif // ARDF_DATAFLOW_DISTANCEMATRIX_H
