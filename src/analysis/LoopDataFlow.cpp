//===- analysis/LoopDataFlow.cpp - Analysis facade -----------------------===//

#include "analysis/LoopDataFlow.h"

using namespace ardf;

LoopDataFlow::LoopDataFlow(const Program &P, const DoLoopStmt &Loop,
                           ProblemSpec Spec, SolverOptions Opts)
    : Owned(std::make_unique<LoopAnalysisSession>(P, Loop)),
      Session(Owned.get()), FW(&Session->instance(Spec)),
      Result(&Session->solve(Spec, Opts)) {}

LoopDataFlow::LoopDataFlow(const Program &P, const NestLoop &Loop,
                           const NestLoop &Level, ProblemSpec Spec,
                           SolverOptions Opts)
    : Owned(std::make_unique<LoopAnalysisSession>(P, Loop, Level)),
      Session(Owned.get()), FW(&Session->instance(Spec)),
      Result(&Session->solve(Spec, Opts)) {}

LoopDataFlow::LoopDataFlow(LoopAnalysisSession &Session, ProblemSpec Spec,
                           SolverOptions Opts)
    : Session(&Session), FW(&Session.instance(Spec)),
      Result(&Session.solve(Spec, Opts)) {}
