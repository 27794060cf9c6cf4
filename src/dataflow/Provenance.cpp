//===- dataflow/Provenance.cpp - Solution derivation recording -----------===//

#include "dataflow/Provenance.h"

#include "cfg/LoopFlowGraph.h"
#include "dataflow/Framework.h"
#include "dataflow/References.h"
#include "ir/PrettyPrinter.h"
#include "support/JsonEscape.h"

#include <cassert>
#include <functional>
#include <ostream>
#include <sstream>
#include <unordered_map>

using namespace ardf;

unsigned SolveProvenance::settledLayer(unsigned Node, unsigned Idx,
                                       bool IsIn) const {
  const std::vector<DistanceValue> &Cells = IsIn ? CellIn : CellOut;
  DistanceValue Final = Cells[cellIndex(Passes, Node, Idx)];
  unsigned L = Passes;
  while (L > 0 && Cells[cellIndex(L - 1, Node, Idx)] == Final)
    --L;
  return L;
}

DistanceValue SolveProvenance::applyTransfer(unsigned Node, unsigned Idx,
                                             DistanceValue In) const {
  if (Node == ExitNode)
    return In.increment(TripCount);
  DistanceValue Out =
      DistanceValue::min(In, Preserve[Node * NumTracked + Idx]);
  if (!GenAt[Node * NumTracked + Idx])
    return Out;
  Out = DistanceValue::max(Out, DistanceValue::finite(0));
  return DistanceValue::min(Out, PreserveAfter[Node * NumTracked + Idx]);
}

SolveProvenance SolveProvenance::capture(const FrameworkInstance &FW) {
  SolveProvenance P;
  const LoopFlowGraph &Graph = FW.getGraph();
  P.NumNodes = Graph.getNumNodes();
  P.NumTracked = FW.getNumTracked();
  P.IsMust = FW.getSpec().isMust();
  P.Backward = FW.getSpec().isBackward();
  P.TripCount = FW.getTripCount();
  P.ProblemName = FW.getSpec().Name;
  P.ExitNode = Graph.getExit();
  P.Order = FW.workingOrder();
  P.SourceNode = P.Order.front();
  P.OrderPos.assign(P.NumNodes, 0);
  for (unsigned I = 0; I != P.Order.size(); ++I)
    P.OrderPos[P.Order[I]] = I;

  P.PredOffset.reserve(P.NumNodes + 1);
  P.PredOffset.push_back(0);
  for (unsigned N = 0; N != P.NumNodes; ++N) {
    const std::vector<unsigned> &Preds = FW.workingPreds(N);
    P.PredList.insert(P.PredList.end(), Preds.begin(), Preds.end());
    P.PredOffset.push_back(P.PredList.size());
  }

  P.Tracked.reserve(P.NumTracked);
  for (unsigned Idx = 0; Idx != P.NumTracked; ++Idx) {
    const RefOccurrence &Occ = FW.getTracked(Idx);
    TrackedInfo TI;
    TI.OccId = Occ.Id;
    TI.Node = Occ.Node;
    TI.Loc = Occ.Ref->getLoc();
    TI.RefText = exprToString(*Occ.Ref);
    TI.IsDef = Occ.IsDef;
    P.Tracked.push_back(std::move(TI));
  }

  P.Nodes.reserve(P.NumNodes);
  for (unsigned N = 0; N != P.NumNodes; ++N) {
    NodeInfo NI;
    NI.Label = Graph.nodeLabel(N);
    if (const Stmt *S = Graph.getNode(N).S)
      NI.Loc = S->getLoc();
    NI.IsExit = N == P.ExitNode;
    P.Nodes.push_back(std::move(NI));
  }

  P.Preserve.resize(P.NumNodes * P.NumTracked);
  P.PreserveAfter.resize(P.NumNodes * P.NumTracked,
                         DistanceValue::allInstances());
  P.GenAt.resize(P.NumNodes * P.NumTracked);
  for (unsigned N = 0; N != P.NumNodes; ++N)
    for (unsigned Idx = 0; Idx != P.NumTracked; ++Idx) {
      P.Preserve[N * P.NumTracked + Idx] = FW.preserveAt(Idx, N);
      P.GenAt[N * P.NumTracked + Idx] = FW.generatesAt(Idx, N);
      if (FW.generatesAt(Idx, N))
        P.PreserveAfter[N * P.NumTracked + Idx] = FW.preserveAfterGen(Idx, N);
    }
  return P;
}

//===----------------------------------------------------------------------===//
// Derivation DAG construction
//===----------------------------------------------------------------------===//

DerivationGraph ardf::buildDerivation(const SolveProvenance &P,
                                      unsigned Node, unsigned Idx,
                                      bool IsIn) {
  assert(!P.Degraded && "no derivation for a degraded recording");
  DerivationGraph G;
  G.QueryNode = Node;
  G.QueryIdx = Idx;
  G.QueryIsIn = IsIn;
  G.SettledLayer = P.settledLayer(Node, Idx, IsIn);

  // Interning memo: (side, layer, node) -> derivation node id. The
  // tracked index is fixed for the whole graph.
  std::unordered_map<uint64_t, uint32_t> Memo;
  auto key = [&P](bool OutSide, unsigned L, unsigned N) {
    return (uint64_t(L) * P.NumNodes + N) * 2 + (OutSide ? 1 : 0);
  };

  std::function<uint32_t(unsigned, unsigned)> outAt;
  std::function<uint32_t(unsigned, unsigned)> inAt;

  // IN of (layer, node): a meet over predecessor OUTs, except the two
  // pinned initializations (must source at layer 0; any may layer-0
  // cell), which are leaves.
  inAt = [&](unsigned L, unsigned N) -> uint32_t {
    auto It = Memo.find(key(false, L, N));
    if (It != Memo.end())
      return It->second;
    uint32_t Id = G.Nodes.size();
    Memo.emplace(key(false, L, N), Id);
    G.Nodes.emplace_back();
    if (L == 0 && (!P.IsMust || N == P.SourceNode)) {
      DerivationNode &D = G.Nodes[Id];
      D.K = DerivationNode::Kind::Init;
      D.Layer = L;
      D.Node = N;
      D.Value = P.in(L, N, Idx);
      return Id;
    }
    unsigned NP = P.numPreds(N);
    std::vector<uint32_t> Inputs;
    std::vector<DistanceValue> Vals;
    Inputs.reserve(NP);
    Vals.reserve(NP);
    for (unsigned K = 0; K != NP; ++K) {
      Inputs.push_back(outAt(P.predLayer(L, N, K), P.pred(N, K)));
      Vals.push_back(P.meetInput(L, N, K, Idx));
    }
    DerivationNode &D = G.Nodes[Id];
    D.K = DerivationNode::Kind::Meet;
    D.Layer = L;
    D.Node = N;
    D.Value = P.in(L, N, Idx);
    D.Inputs = std::move(Inputs);
    D.InputValues = std::move(Vals);
    for (unsigned K = 0; K != NP; ++K)
      if (D.InputValues[K] == D.Value) {
        D.Winner = static_cast<int>(K);
        break;
      }
    return Id;
  };

  // OUT of (layer, node): layer 0 is the initialization seed (for a
  // must non-generating interior node the seed is the propagated
  // layer-0 meet, recorded as its input); later layers apply the node
  // transfer to the same layer's IN.
  outAt = [&](unsigned L, unsigned N) -> uint32_t {
    auto It = Memo.find(key(true, L, N));
    if (It != Memo.end())
      return It->second;
    uint32_t Id = G.Nodes.size();
    Memo.emplace(key(true, L, N), Id);
    G.Nodes.emplace_back();
    if (L == 0) {
      bool Propagated = P.IsMust && !P.GenAt[N * P.NumTracked + Idx] &&
                        N != P.SourceNode;
      std::vector<uint32_t> Inputs;
      if (Propagated)
        Inputs.push_back(inAt(0, N));
      DerivationNode &D = G.Nodes[Id];
      D.K = DerivationNode::Kind::Init;
      D.Layer = 0;
      D.Node = N;
      D.Value = P.out(0, N, Idx);
      D.Inputs = std::move(Inputs);
      return Id;
    }
    uint32_t In = inAt(L, N);
    DerivationNode &D = G.Nodes[Id];
    D.K = DerivationNode::Kind::Transfer;
    D.Layer = L;
    D.Node = N;
    D.Value = P.out(L, N, Idx);
    D.Inputs.push_back(In);
    return Id;
  };

  G.Root = IsIn ? inAt(P.Passes, Node) : outAt(P.Passes, Node);
  return G;
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

namespace {

const char *meetName(const SolveProvenance &P) {
  return P.IsMust ? "must-meet (min)" : "may-meet (max)";
}

/// One-line explanation of \p D in the context of tracked index
/// \p Idx, without operand references.
std::string describeNode(const SolveProvenance &P, const DerivationNode &D,
                         unsigned Idx) {
  const SolveProvenance::TrackedInfo &TI = P.Tracked[Idx];
  const std::string &Label = P.Nodes[D.Node].Label;
  std::ostringstream OS;
  switch (D.K) {
  case DerivationNode::Kind::Init:
    if (!P.IsMust)
      OS << "init [" << Label << "]: may guess T";
    else if (P.GenAt[D.Node * P.NumTracked + Idx])
      OS << "init [" << Label << "]: " << TI.RefText
         << " generated here, optimistic seed T";
    else if (D.Inputs.empty())
      OS << "init [" << Label << "]: loop entry pinned to _";
    else
      OS << "init [" << Label << "]: seed propagated";
    break;
  case DerivationNode::Kind::Meet: {
    OS << "IN pass " << D.Layer << " [" << Label << "]: " << meetName(P)
       << " of " << D.InputValues.size() << " path"
       << (D.InputValues.size() == 1 ? "" : "s");
    bool Lost = false;
    for (unsigned K = 0; K != D.InputValues.size(); ++K)
      if (D.InputValues[K] != D.Value) {
        OS << (Lost ? ", " : "; lost: ") << D.InputValues[K].toString()
           << " from [" << P.Nodes[P.pred(D.Node, K)].Label << "]";
        Lost = true;
      }
    break;
  }
  case DerivationNode::Kind::Transfer: {
    DistanceValue In = P.in(D.Layer, D.Node, Idx);
    if (D.Node == P.ExitNode) {
      OS << "OUT pass " << D.Layer << " [" << Label
         << "]: back edge, distance + 1";
      if (In != D.Value && D.Value.isAllInstances())
        OS << " (saturated to T)";
    } else if (P.GenAt[D.Node * P.NumTracked + Idx]) {
      OS << "OUT pass " << D.Layer << " [" << Label << "]: generates "
         << TI.RefText << ", distance 0";
    } else if (In != D.Value) {
      OS << "OUT pass " << D.Layer << " [" << Label
         << "]: killed here, preserve p="
         << P.Preserve[D.Node * P.NumTracked + Idx].toString();
    } else {
      OS << "OUT pass " << D.Layer << " [" << Label << "]: preserved";
    }
    break;
  }
  }
  return OS.str();
}

} // namespace

void ardf::printDerivation(std::ostream &OS, const SolveProvenance &P,
                           const DerivationGraph &G) {
  unsigned Idx = G.QueryIdx;
  const DerivationNode &Root = G.root();
  OS << "derivation of " << (G.QueryIsIn ? "IN" : "OUT") << "["
     << P.Nodes[G.QueryNode].Label << "] for " << P.Tracked[Idx].RefText
     << " = " << Root.Value.toString() << "  (problem " << P.ProblemName
     << ", settled at pass " << G.SettledLayer << ")\n";

  std::vector<char> Printed(G.Nodes.size(), 0);
  std::function<void(uint32_t, unsigned)> rec = [&](uint32_t Id,
                                                    unsigned Depth) {
    const DerivationNode &D = G.Nodes[Id];
    for (unsigned I = 0; I != Depth; ++I)
      OS << "  ";
    OS << "#" << Id << " = " << D.Value.toString() << "  "
       << describeNode(P, D, Idx);
    if (Printed[Id]) {
      OS << "  (shared, expanded above)\n";
      return;
    }
    Printed[Id] = 1;
    OS << '\n';
    for (uint32_t In : D.Inputs)
      rec(In, Depth + 1);
  };
  rec(G.Root, 1);
}

std::vector<ProvenanceStep>
ardf::derivationTrail(const SolveProvenance &P, const DerivationGraph &G) {
  unsigned Idx = G.QueryIdx;
  const SolveProvenance::TrackedInfo &TI = P.Tracked[Idx];

  // Walk the winning path root -> leaf, then report it in chronological
  // (leaf -> root) order, keeping only the eventful steps.
  std::vector<uint32_t> Path;
  uint32_t Cur = G.Root;
  for (;;) {
    Path.push_back(Cur);
    const DerivationNode &D = G.Nodes[Cur];
    if (D.Inputs.empty())
      break;
    if (D.K == DerivationNode::Kind::Meet)
      Cur = D.Inputs[D.Winner >= 0 ? unsigned(D.Winner) : 0u];
    else
      Cur = D.Inputs.front();
  }

  std::vector<ProvenanceStep> Steps;
  auto locOf = [&](const DerivationNode &D) {
    SourceLoc L = P.Nodes[D.Node].Loc;
    return L.isValid() ? L : TI.Loc;
  };
  for (auto It = Path.rbegin(); It != Path.rend(); ++It) {
    const DerivationNode &D = G.Nodes[*It];
    std::ostringstream Msg;
    bool Keep = false;
    switch (D.K) {
    case DerivationNode::Kind::Init:
      Keep = true;
      if (!P.IsMust)
        Msg << TI.RefText << ": optimistic may guess T";
      else if (P.GenAt[D.Node * P.NumTracked + Idx])
        Msg << TI.RefText << " generated by '" << P.Nodes[D.Node].Label
            << "' (optimistic seed)";
      else if (D.Node == P.SourceNode && D.Inputs.empty())
        Msg << "loop entry: no instance of " << TI.RefText << " yet";
      else
        Msg << "seed propagated to '" << P.Nodes[D.Node].Label << "'";
      break;
    case DerivationNode::Kind::Meet: {
      std::ostringstream Lost;
      for (unsigned K = 0; K != D.InputValues.size(); ++K)
        if (D.InputValues[K] != D.Value)
          Lost << (Lost.tellp() > 0 ? ", " : "")
               << D.InputValues[K].toString() << " from '"
               << P.Nodes[P.pred(D.Node, K)].Label << "'";
      if (Lost.tellp() > 0) {
        Keep = true;
        Msg << meetName(P) << " at '" << P.Nodes[D.Node].Label
            << "' kept " << D.Value.toString() << "; lost "
            << Lost.str();
      }
      break;
    }
    case DerivationNode::Kind::Transfer: {
      DistanceValue In = P.in(D.Layer, D.Node, Idx);
      if (D.Node == P.ExitNode) {
        Keep = true;
        Msg << "back edge: distance + 1 -> " << D.Value.toString();
      } else if (P.GenAt[D.Node * P.NumTracked + Idx]) {
        Keep = true;
        Msg << TI.RefText << " generated by '" << P.Nodes[D.Node].Label
            << "': distance 0";
      } else if (In != D.Value) {
        Keep = true;
        Msg << "killed at '" << P.Nodes[D.Node].Label << "': "
            << In.toString() << " -> " << D.Value.toString()
            << " (preserve "
            << P.Preserve[D.Node * P.NumTracked + Idx].toString() << ")";
      }
      break;
    }
    }
    if (Keep)
      Steps.push_back({locOf(D), Msg.str()});
  }

  const DerivationNode &Root = G.root();
  std::ostringstream Final;
  Final << (G.QueryIsIn ? "IN" : "OUT") << "['" << P.Nodes[G.QueryNode].Label
        << "'] for " << TI.RefText << " settled to "
        << Root.Value.toString() << " at pass " << G.SettledLayer;
  Steps.push_back({locOf(Root), Final.str()});
  return Steps;
}

std::string ardf::derivationToJson(const SolveProvenance &P,
                                   const DerivationGraph &G) {
  std::ostringstream OS;
  OS << "{\"problem\":\"" << jsonEscape(P.ProblemName) << "\",\"cell\":\""
     << jsonEscape(P.Tracked[G.QueryIdx].RefText) << "\",\"node\":"
     << G.QueryNode << ",\"side\":\"" << (G.QueryIsIn ? "in" : "out")
     << "\",\"value\":\"" << G.root().Value.toString()
     << "\",\"settled_pass\":" << G.SettledLayer << ",\"root\":" << G.Root
     << ",\"nodes\":[";
  for (unsigned I = 0; I != G.Nodes.size(); ++I) {
    const DerivationNode &D = G.Nodes[I];
    if (I)
      OS << ',';
    const char *Kind = D.K == DerivationNode::Kind::Init ? "init"
                       : D.K == DerivationNode::Kind::Meet ? "meet"
                                                           : "transfer";
    OS << "{\"id\":" << I << ",\"kind\":\"" << Kind << "\",\"pass\":"
       << D.Layer << ",\"node\":" << D.Node << ",\"label\":\""
       << jsonEscape(P.Nodes[D.Node].Label) << "\",\"value\":\""
       << D.Value.toString() << "\",\"inputs\":[";
    for (unsigned K = 0; K != D.Inputs.size(); ++K)
      OS << (K ? "," : "") << D.Inputs[K];
    OS << ']';
    if (D.K == DerivationNode::Kind::Meet) {
      OS << ",\"winner\":" << D.Winner << ",\"input_values\":[";
      for (unsigned K = 0; K != D.InputValues.size(); ++K)
        OS << (K ? "," : "") << '"' << D.InputValues[K].toString() << '"';
      OS << ']';
    }
    OS << '}';
  }
  OS << "]}";
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Replay oracle
//===----------------------------------------------------------------------===//

bool ardf::replayProvenance(const SolveProvenance &P, std::string *WhyNot) {
  if (P.Degraded)
    return true;
  auto fail = [WhyNot](const std::string &Why) {
    if (WhyNot)
      *WhyNot = Why;
    return false;
  };
  auto meet = [&P](DistanceValue A, DistanceValue B) {
    return P.IsMust ? DistanceValue::min(A, B) : DistanceValue::max(A, B);
  };
  auto cellName = [](unsigned L, unsigned N, unsigned Idx) {
    std::ostringstream OS;
    OS << "layer " << L << " node " << N << " idx " << Idx;
    return OS.str();
  };

  for (unsigned L = 0; L <= P.Passes; ++L) {
    for (unsigned Pos = 0; Pos != P.Order.size(); ++Pos) {
      unsigned N = P.Order[Pos];
      for (unsigned Idx = 0; Idx != P.NumTracked; ++Idx) {
        DistanceValue In, Out;
        if (L == 0 && !P.IsMust) {
          In = DistanceValue::allInstances();
          Out = DistanceValue::allInstances();
        } else if (L == 0 && N == P.SourceNode) {
          In = DistanceValue::noInstance();
          Out = P.GenAt[N * P.NumTracked + Idx]
                    ? DistanceValue::allInstances()
                    : In;
        } else {
          unsigned NP = P.numPreds(N);
          if (NP == 0)
            return fail("node without working predecessors at " +
                        cellName(L, N, Idx));
          In = P.meetInput(L, N, 0, Idx);
          for (unsigned K = 1; K != NP; ++K)
            In = meet(In, P.meetInput(L, N, K, Idx));
          // Each recorded operand must be the predecessor cell it
          // claims to be (the recording is the derivation, not a
          // parallel reconstruction).
          for (unsigned K = 0; K != NP; ++K) {
            unsigned Pred = P.pred(N, K);
            if (L == 0 && P.OrderPos[Pred] >= Pos)
              continue; // not yet written during the init pass
            DistanceValue Claimed =
                P.out(P.predLayer(L, N, K), Pred, Idx);
            if (P.meetInput(L, N, K, Idx) != Claimed)
              return fail("meet operand " + std::to_string(K) +
                          " disagrees with pred OUT at " +
                          cellName(L, N, Idx));
          }
          Out = L == 0 ? (P.GenAt[N * P.NumTracked + Idx]
                              ? DistanceValue::allInstances()
                              : In)
                       : P.applyTransfer(N, Idx, In);
        }
        if (In != P.in(L, N, Idx))
          return fail("replayed IN " + In.toString() +
                      " != recorded " + P.in(L, N, Idx).toString() +
                      " at " + cellName(L, N, Idx));
        if (Out != P.out(L, N, Idx))
          return fail("replayed OUT " + Out.toString() +
                      " != recorded " + P.out(L, N, Idx).toString() +
                      " at " + cellName(L, N, Idx));
      }
    }
  }
  return true;
}
