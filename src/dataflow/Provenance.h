//===- dataflow/Provenance.h - Solution derivation recording ---*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Derivation provenance for the reference engine. When
/// SolverOptions::RecordProvenance is set, the scalar solver records,
/// for every schedule layer (the initialization pass is layer 0, each
/// iteration pass the next layer), the post-meet IN and post-apply OUT
/// value of every cell plus every meet operand exactly as it was read --
/// enough to re-derive any solution cell offline: which reference
/// generated it (stmt + location), which preserve constants it survived,
/// at which meet points another path lowered/raised it (and what the
/// losing values were), which pass settled it, and which back-edge
/// increments produced its iteration distance.
///
/// The packed kernel never records; explain flows re-solve the loop
/// through the reference engine on demand and cross-check the result
/// bit-identical against the cached packed solution (the engines are
/// oracle-tested equal, so this never loses information).
///
/// Two consumers are built on the raw recording:
///  - buildDerivation interns the backward slice of one cell into a
///    compact DAG of derivation nodes (shared sub-derivations appear
///    once), printable as a tree and walkable as an evidence trail.
///  - replayProvenance re-applies every recorded derivation step from
///    the recorded constants and meet operands and verifies each value
///    bit-for-bit -- the test-suite oracle that the recording really is
///    the derivation and not a parallel reconstruction.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_DATAFLOW_PROVENANCE_H
#define ARDF_DATAFLOW_PROVENANCE_H

#include "ir/SourceLoc.h"
#include "lattice/Distance.h"

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace ardf {

class FrameworkInstance;

/// The complete recording of one reference-engine solve. Layers:
/// layer 0 is the initialization pass (must: optimistic seed with meets
/// over already-written cells; may: the all-instances guess, no meets),
/// layers 1..Passes are the iteration passes.
struct SolveProvenance {
  unsigned NumNodes = 0;
  unsigned NumTracked = 0;
  /// Iteration passes recorded; total layers = Passes + 1.
  unsigned Passes = 0;
  bool IsMust = true;
  bool Backward = false;
  /// True when the solve degraded (budget breach / fault): per-cell
  /// recordings stop at the breach and must not be interpreted.
  bool Degraded = false;
  int64_t TripCount = UnknownTripCount;
  std::string ProblemName;
  unsigned ExitNode = 0;
  unsigned SourceNode = 0;
  /// Working traversal order (forward: RPO; backward: reversed).
  std::vector<unsigned> Order;
  /// Position of each node in Order (inverse permutation).
  std::vector<unsigned> OrderPos;
  /// Working predecessor lists, flattened: node N's predecessors are
  /// PredList[PredOffset[N] .. PredOffset[N+1]).
  std::vector<unsigned> PredOffset;
  std::vector<unsigned> PredList;

  /// One tracked tuple element (the generating reference; grouped
  /// problems use the representative member).
  struct TrackedInfo {
    unsigned OccId = 0;
    /// Flow node the representative is generated in.
    unsigned Node = 0;
    SourceLoc Loc;
    /// Rendered reference text, e.g. "A[i-1]".
    std::string RefText;
    bool IsDef = false;
  };
  std::vector<TrackedInfo> Tracked;

  struct NodeInfo {
    /// Human label, e.g. "3: C[i] = B[i-1]".
    std::string Label;
    SourceLoc Loc;
    bool IsExit = false;
  };
  std::vector<NodeInfo> Nodes;

  /// Transfer constants per (node, tracked): index Node*NumTracked+Idx.
  /// PreserveAfter is read only where GenAt is set.
  std::vector<DistanceValue> Preserve;
  std::vector<DistanceValue> PreserveAfter;
  std::vector<char> GenAt;

  /// Recorded cell values per layer:
  /// CellIn/CellOut[(Layer*NumNodes + Node)*NumTracked + Idx].
  std::vector<DistanceValue> CellIn;
  std::vector<DistanceValue> CellOut;
  /// Meet operands exactly as read:
  /// MeetIn[(Layer*PredList.size() + PredOffset[Node]+K)*NumTracked+Idx].
  /// Layer-0 slots of a may problem (and of the pinned must source) are
  /// unused and hold NoInstance.
  std::vector<DistanceValue> MeetIn;

  unsigned numPreds(unsigned Node) const {
    return PredOffset[Node + 1] - PredOffset[Node];
  }
  unsigned pred(unsigned Node, unsigned K) const {
    return PredList[PredOffset[Node] + K];
  }
  unsigned cellIndex(unsigned Layer, unsigned Node, unsigned Idx) const {
    return (Layer * NumNodes + Node) * NumTracked + Idx;
  }
  DistanceValue in(unsigned Layer, unsigned Node, unsigned Idx) const {
    return CellIn[cellIndex(Layer, Node, Idx)];
  }
  DistanceValue out(unsigned Layer, unsigned Node, unsigned Idx) const {
    return CellOut[cellIndex(Layer, Node, Idx)];
  }
  DistanceValue meetInput(unsigned Layer, unsigned Node, unsigned K,
                          unsigned Idx) const {
    return MeetIn[(Layer * PredList.size() + PredOffset[Node] + K) *
                      NumTracked +
                  Idx];
  }

  /// The layer a predecessor's OUT was taken from when node \p Node met
  /// at layer \p Layer: the current layer when the predecessor precedes
  /// \p Node in working order (already visited this pass), the previous
  /// one across the back edge.
  unsigned predLayer(unsigned Layer, unsigned Node, unsigned K) const {
    unsigned P = pred(Node, K);
    return (OrderPos[P] < OrderPos[Node] || Layer == 0) ? Layer : Layer - 1;
  }

  /// The first layer at (and after) which the queried cell's value never
  /// changed -- the schedule pass that settled it.
  unsigned settledLayer(unsigned Node, unsigned Idx, bool IsIn) const;

  /// Re-applies the transfer function of \p Node to \p In from the
  /// recorded constants (the offline mirror of
  /// FrameworkInstance::applyNode).
  DistanceValue applyTransfer(unsigned Node, unsigned Idx,
                              DistanceValue In) const;

  /// Captures the static shape + metadata of \p FW (cells are filled by
  /// the solver as it runs).
  static SolveProvenance capture(const FrameworkInstance &FW);
};

/// One interned derivation step. A node is identified by (kind, layer,
/// flow node); the tracked index is fixed per graph.
struct DerivationNode {
  enum class Kind {
    /// Layer-0 OUT: the must initialization seed or the may guess.
    Init,
    /// IN of (layer, node): the meet over predecessor OUTs.
    Meet,
    /// OUT of (layer, node): the flow function applied to IN. At the
    /// exit node this is the back-edge increment.
    Transfer
  };
  Kind K = Kind::Init;
  unsigned Layer = 0;
  unsigned Node = 0;
  DistanceValue Value;
  /// Operand derivation node ids (Meet: one per predecessor; Transfer:
  /// the IN it was applied to; Init: none).
  std::vector<uint32_t> Inputs;
  /// Meet only: operand index whose value equals the result (the
  /// "winning" path; -1 otherwise).
  int Winner = -1;
  /// Meet only: operand values exactly as read (the losing values).
  std::vector<DistanceValue> InputValues;
};

/// The backward slice of one solution cell as an interned DAG.
struct DerivationGraph {
  std::vector<DerivationNode> Nodes;
  uint32_t Root = 0;
  unsigned QueryNode = 0;
  unsigned QueryIdx = 0;
  bool QueryIsIn = true;
  /// The layer that settled the queried cell.
  unsigned SettledLayer = 0;

  const DerivationNode &root() const { return Nodes[Root]; }
};

/// Builds the derivation DAG of cell (\p Node, \p Idx) of the final
/// solution (IN side when \p IsIn). \p P must be a non-degraded
/// recording.
DerivationGraph buildDerivation(const SolveProvenance &P, unsigned Node,
                                unsigned Idx, bool IsIn = true);

/// Pretty-prints \p G as an indented tree with per-step explanations
/// ("met 2 paths", "preserved through", "back edge: distance + 1", ...).
/// Shared sub-derivations print once and are referenced by id after.
void printDerivation(std::ostream &OS, const SolveProvenance &P,
                     const DerivationGraph &G);

/// One chronological evidence step of a derivation (for remarks, SARIF
/// codeFlows, and the text because-trail).
struct ProvenanceStep {
  SourceLoc Loc;
  std::string Message;
};

/// Flattens the winning path of \p G into chronological steps: the
/// generating reference first, then every value-changing transfer, meet
/// (with the losing value), and back-edge increment, ending at the
/// queried cell.
std::vector<ProvenanceStep> derivationTrail(const SolveProvenance &P,
                                            const DerivationGraph &G);

/// Serializes \p G as one compact JSON object (nodes, edges, values,
/// the settled layer) for the JSON renderer and SARIF properties.
std::string derivationToJson(const SolveProvenance &P,
                             const DerivationGraph &G);

/// Re-applies every recorded derivation step: recomputes each layer's
/// meets from the recorded operands, checks each operand against the
/// predecessor cell it claims to be, and recomputes each transfer from
/// the recorded constants; every value must match the recording
/// bit-for-bit. Returns false (with a diagnostic in \p WhyNot, if
/// non-null) on the first mismatch. Degraded recordings replay
/// vacuously true (nothing was recorded).
bool replayProvenance(const SolveProvenance &P,
                      std::string *WhyNot = nullptr);

} // namespace ardf

#endif // ARDF_DATAFLOW_PROVENANCE_H
