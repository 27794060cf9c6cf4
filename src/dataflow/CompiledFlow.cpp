//===- dataflow/CompiledFlow.cpp - Compiled packed flow programs ---------===//

#include "dataflow/CompiledFlow.h"

#include "cfg/LoopFlowGraph.h"
#include "telemetry/Telemetry.h"

#include <cassert>

using namespace ardf;

CompiledFlowProgram CompiledFlowProgram::compile(const FrameworkInstance &FW) {
  telem::Telemetry *Telem = telem::Telemetry::current();
  telem::Span S("compile-flow", "flow", FW.getSpec().Name);
  uint64_t Start = Telem ? telem::wallNowNs() : 0;

  CompiledFlowProgram CF;
  CF.NumNodes = FW.getGraph().getNumNodes();
  CF.NumTracked = FW.getNumTracked();
  CF.IsMust = FW.getSpec().isMust();
  CF.ProblemName = FW.getSpec().Name;
  CF.MeetEdgesAll = FW.meetEdges(false);
  CF.MeetEdgesNoSource = FW.meetEdges(true);
  CF.Order = FW.workingOrder();
  assert(!CF.Order.empty() && "flow graph without nodes");
  CF.SourceNode = CF.Order.front();
  CF.ExitNode = FW.getGraph().getExit();
  CF.IncBound = packed::incrementBound(FW.getTripCount());

  // Working predecessor lists, CSR by node id.
  CF.PredOffsets.resize(CF.NumNodes + 1, 0);
  size_t TotalPreds = 0;
  for (unsigned Node = 0; Node != CF.NumNodes; ++Node)
    TotalPreds += FW.workingPreds(Node).size();
  CF.Preds.reserve(TotalPreds);
  for (unsigned Node = 0; Node != CF.NumNodes; ++Node) {
    CF.PredOffsets[Node] = static_cast<uint32_t>(CF.Preds.size());
    for (unsigned Pred : FW.workingPreds(Node))
      CF.Preds.push_back(Pred);
  }
  CF.PredOffsets[CF.NumNodes] = static_cast<uint32_t>(CF.Preds.size());

  // Dense packed preserve constants plus the sparse generate patch
  // lists (a statement generates only for the classes it references, so
  // the generate side of the transfer is a few cells per node).
  CF.Preserve.resize(CF.cells());
  CF.GenOffsets.resize(CF.NumNodes + 1, 0);
  for (unsigned Node = 0; Node != CF.NumNodes; ++Node) {
    CF.GenOffsets[Node] = static_cast<uint32_t>(CF.GenCols.size());
    size_t Row = static_cast<size_t>(Node) * CF.NumTracked;
    for (unsigned Idx = 0; Idx != CF.NumTracked; ++Idx) {
      CF.Preserve[Row + Idx] = packed::pack(FW.preserveAt(Idx, Node));
      if (FW.generatesAt(Idx, Node)) {
        CF.GenCols.push_back(Idx);
        CF.GenQ.push_back(packed::pack(FW.preserveAfterGen(Idx, Node)));
      }
    }
  }
  CF.GenOffsets[CF.NumNodes] = static_cast<uint32_t>(CF.GenCols.size());

  if (Telem) {
    Telem->add(telem::Counter::FlowCompiles);
    Telem->add(telem::Counter::FlowCompiledCells, CF.cells());
    Telem->add(telem::Counter::FlowCompileNs, telem::wallNowNs() - Start);
  }
  if (S.active()) {
    S.arg("cells", CF.cells());
    S.arg("gen_cells", CF.GenCols.size());
    S.arg("pred_edges", CF.Preds.size());
  }
  return CF;
}
