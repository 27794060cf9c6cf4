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
  CF.IncBound = simd::incrementBound(FW.getTripCount());

  // Working predecessor lists, CSR by node id.
  CF.PredOffsets.resize(CF.NumNodes + 1, 0);
  size_t TotalPreds = 0;
  for (unsigned Node = 0; Node != CF.NumNodes; ++Node)
    TotalPreds += FW.workingPreds(Node).size();
  CF.Preds.reserve(TotalPreds);
  for (unsigned Node = 0; Node != CF.NumNodes; ++Node) {
    CF.PredOffsets[Node] = CF.Preds.size();
    for (unsigned Pred : FW.workingPreds(Node))
      CF.Preds.push_back(Pred);
  }
  CF.PredOffsets[CF.NumNodes] = CF.Preds.size();

  // The instance's node-major preserve table and generating-cell CSR
  // already have the kernel's layout: read them in place.
  CF.Preserve = FW.Preserve;
  CF.GenOffsets = FW.GenBegin;
  CF.GenCols = FW.GenCols;
  CF.GenQ = FW.PreserveAfter;

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
