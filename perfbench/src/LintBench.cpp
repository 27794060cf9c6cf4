//===- perfbench/src/LintBench.cpp - Whole-file lint workloads ------------===//
//
// lint_big_loop and lint_many_loops: a serial loop of whole-file lint
// ops, each lintSource plus renderText with ardf-lint's defaults
// (Reference engine, cross-check on, nested loops on).
//
// The traced run pairs every traced op with an untraced one on the same
// file. The traced op calls the public layer entry points in
// lintProgram's order, with a span around each call; it builds and
// solves the lintProblems() specs before the checks run, so a check
// span holds extraction only.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "analysis/LoopAnalysisSession.h"
#include "analysis/LoopNest.h"
#include "frontend/Parser.h"
#include "lint/Checks.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "passes/Validate.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_set>

using namespace ardf;

namespace perfbench {

namespace {

struct InputFile {
  std::string Name;
  std::string Text;
  unsigned Stmts = 0;
};

/// Slices of the measurement (at most), each of whole passes over the
/// pool; each metric is their median.
constexpr unsigned MeasureSlices = 7;

/// Files per pool. The untraced run cycles through the pool; the traced
/// run's counts cover exactly one pass over it.
unsigned poolSize(const std::string &Workload) {
  return Workload == "lint_big_loop" ? 16 : 4;
}

std::vector<InputFile> makePool(const Config &C) {
  bool Big = C.Workload == "lint_big_loop";
  unsigned P = poolSize(C.Workload);
  Rng R(deriveSeed(C.Seed, Big ? 1 : 2));
  // Big loops: one statement count from each of P equal bands of
  // [192, 320], in seeded order, so every seed sees the same size spread
  // and only the statements differ.
  std::vector<unsigned> Sizes;
  if (Big) {
    for (unsigned K = 0; K != P; ++K)
      Sizes.push_back(
          192 + static_cast<unsigned>((K * 129 + R.range(0, 128)) / P));
    for (size_t I = Sizes.size() - 1; I > 0; --I)
      std::swap(Sizes[I], Sizes[static_cast<size_t>(R.range(0, int64_t(I)))]);
  }
  std::vector<InputFile> Pool;
  for (unsigned K = 0; K != P; ++K) {
    InputFile F;
    F.Name = "gen" + std::to_string(K) + ".arf";
    F.Text = Big ? genLoop(R, Sizes[K], R.range(500, 2000))
                 : genManyLoopsFile(R);
    F.Stmts = countStatements(F.Text);
    Pool.push_back(std::move(F));
  }
  return Pool;
}

/// The untraced op: exactly what `ardf-lint FILE` computes.
struct OpOutput {
  std::string Render;
  LintResult Result;
};

OpOutput lintOp(const InputFile &F) {
  OpOutput O;
  O.Result = lintSource(F.Text, F.Name);
  SourceMap Sources;
  Sources.add(F.Name, F.Text);
  std::ostringstream OS;
  renderText(OS, O.Result.Diags, Sources);
  O.Render = OS.str();
  return O;
}

/// Output checks every op must pass: no engine divergence and no
/// degraded analysis.
bool checkOp(const OpOutput &O, const InputFile &F, RunResult &R) {
  unsigned Bad = O.Result.EngineDivergences + O.Result.ChecksDegraded;
  for (const Diagnostic &D : O.Result.Diags)
    Bad += D.CheckId == checkid::EngineDivergence ||
           D.CheckId == checkid::AnalysisDegraded ||
           D.CheckId == checkid::ParseError;
  if (Bad == 0 && O.Result.LoopsAnalyzed != 0)
    return true;
  R.fail("lint: " + F.Name + " has " + std::to_string(Bad) +
         " divergence/degraded/parse diagnostics, " +
         std::to_string(O.Result.LoopsAnalyzed) + " loops analyzed");
  return false;
}

/// Deterministic work counts of the traced op.
struct Counts {
  uint64_t Instances = 0;
  uint64_t TrackedCells = 0;
  uint64_t NodeVisits = 0;
  uint64_t MeetOps = 0;
  uint64_t Diagnostics = 0;
  uint64_t Loops = 0;
  uint64_t Divergences = 0;
  uint64_t RenderBytes = 0;
  uint64_t ParseBytes = 0;
};

DiagSeverity severityOf(IssueSeverity S) {
  return S == IssueSeverity::Error ? DiagSeverity::Error
                                   : DiagSeverity::Warning;
}

/// The traced op: lintProgram's phases through their public entry
/// points, one span per call, then renderText.
std::string tracedLintOp(const InputFile &F, Tracer &T, Counts &N,
                         bool &ParseOk) {
  Scoped Op(&T, "lint.op");
  const std::string &File = F.Name;
  ParseResult Parsed;
  {
    Scoped S(&T, "frontend.parse");
    Parsed = parseProgram(F.Text);
  }
  N.ParseBytes += F.Text.size();
  ParseOk = Parsed.succeeded();
  if (!ParseOk)
    return "";
  const Program &P = Parsed.Prog;
  LintResult Result;
  LintOptions Opts;

  std::unordered_set<const Stmt *> Poisoned;
  {
    Scoped S(&T, "passes.validate");
    for (const ValidationIssue &I : validateForAnalysis(P)) {
      if (I.Severity == IssueSeverity::Error)
        Poisoned.insert(I.Offending);
      Diagnostic D;
      D.CheckId = checkid::Precondition;
      D.Severity = severityOf(I.Severity);
      D.File = File;
      D.Loc = I.Loc;
      D.Message = I.Message;
      D.StmtId = I.StmtId;
      Result.Diags.push_back(std::move(D));
    }
  }

  std::unique_ptr<LoopNestTree> Nest;
  {
    Scoped S(&T, "analysis.nest");
    Nest = std::make_unique<LoopNestTree>(P);
  }
  LintCheckContext Ctx;
  Ctx.File = File;
  Ctx.Solver.Eng = Opts.Engine;
  Ctx.Solver.Budget = Opts.Budget;
  SolverOptions Packed = Ctx.Solver;
  Packed.Eng = SolverOptions::Engine::PackedKernel;
  const std::vector<ProblemSpec> Specs = lintProblems();

  for (const std::unique_ptr<NestLoop> &NodePtr : Nest->all()) {
    const NestLoop &NL = *NodePtr;
    if (NL.Depth > 0 && !Opts.IncludeNested)
      continue;
    bool Skip = false;
    forEachStmt(*NL.Source,
                [&](const Stmt &S) { Skip |= Poisoned.count(&S) > 0; });
    if (Skip)
      continue;
    if (!NL.isSupported()) {
      Diagnostic D;
      D.CheckId = checkid::AnalysisUnsupported;
      D.Severity = DiagSeverity::Warning;
      D.File = File;
      D.Loc = NL.loc();
      D.NestPath = NL.Depth > 0 ? NL.path() : "";
      D.Message = std::string("analysis unsupported: the ") +
                  (NL.isWhile() ? "while" : "do") + " loop at nest path '" +
                  NL.path() + "' was not analyzed: " + NL.UnsupportedReason;
      D.FixHint = "rewrite the loop as a counted form the framework "
                  "supports (see the analyzability preconditions)";
      Result.Diags.push_back(std::move(D));
      continue;
    }
    const DoLoopStmt *Loop = NL.Analyzed;
    Scoped LoopSpan(&T, "lint.loop");

    std::unique_ptr<LoopAnalysisSession> Session;
    std::vector<std::unique_ptr<LoopAnalysisSession>> LevelSessions;
    Ctx.NestPath = NL.Depth > 0 ? NL.path() : "";
    Ctx.Ancestors.clear();
    {
      Scoped S(&T, "analysis.session");
      Session = std::make_unique<LoopAnalysisSession>(P, *Loop);
      for (const NestLoop *A : NL.ancestors()) {
        NestLevel Level;
        if (A->isSupported()) {
          Level.Iv = A->iv();
          LevelSessions.push_back(std::make_unique<LoopAnalysisSession>(
              P, *Loop, A->iv(), A->tripCount()));
          Level.Session = LevelSessions.back().get();
        } else {
          Level.Iv = "?";
        }
        Ctx.Ancestors.push_back(std::move(Level));
      }
    }
    std::vector<LoopAnalysisSession *> All{Session.get()};
    for (const std::unique_ptr<LoopAnalysisSession> &L : LevelSessions)
      All.push_back(L.get());

    // Build, solve and (for the cross-check) lower every spec the checks
    // draw, so the check spans below time extraction only.
    for (LoopAnalysisSession *S : All)
      for (const ProblemSpec &Spec : Specs) {
        Scoped Sp(&T, "dataflow.instance");
        const FrameworkInstance &FW = S->instance(Spec);
        N.TrackedCells +=
            uint64_t(FW.getGraph().getNumNodes()) * FW.getNumTracked();
      }
    for (LoopAnalysisSession *S : All)
      for (const ProblemSpec &Spec : Specs) {
        Scoped Sp(&T, "dataflow.solve");
        const SolveResult &R = S->solve(Spec, Ctx.Solver);
        N.NodeVisits += R.NodeVisits;
        N.MeetOps += R.MeetOps;
      }
    if (Opts.CrossCheck)
      for (const ProblemSpec &Spec : Specs) {
        Scoped Sp(&T, "dataflow.lower");
        Session->compiledFlow(Spec);
      }

    auto RunCheck = [&](const char *SpanName, const char *Name, auto &&Fn) {
      Scoped Sp(&T, SpanName);
      try {
        Fn();
      } catch (const std::exception &E) {
        Diagnostic D;
        D.CheckId = checkid::AnalysisDegraded;
        D.Severity = DiagSeverity::Warning;
        D.File = File;
        D.Loc = Loop->getLoc();
        D.Message = std::string("analysis degraded: check '") + Name +
                    "' aborted for the loop over '" + Loop->getIndVar() +
                    "': " + E.what();
        Result.Diags.push_back(std::move(D));
      }
    };
    LoopAnalysisSession &Sess = *Session;
    RunCheck("lint.check.redundant-load", "redundant-load",
             [&] { checkRedundantLoad(Sess, Ctx, Result.Diags); });
    RunCheck("lint.check.dead-store", "dead-store",
             [&] { checkDeadStore(Sess, Ctx, Result.Diags); });
    RunCheck("lint.check.loop-carried-reuse", "loop-carried-reuse",
             [&] { checkLoopCarriedReuse(Sess, Ctx, Result.Diags); });
    RunCheck("lint.check.cross-iteration-conflict", "cross-iteration-conflict",
             [&] { checkCrossIterationConflict(Sess, Ctx, Result.Diags); });
    if (Opts.CrossCheck) {
      RunCheck("lint.crosscheck", "engine-cross-check", [&] {
        Result.EngineDivergences +=
            checkEngineDivergence(Sess, Ctx, Result.Diags);
      });
      // The packed solves the cross-check ran (session cache hits).
      for (const ProblemSpec &Spec : Specs) {
        const SolveResult &R = Sess.solve(Spec, Packed);
        N.NodeVisits += R.NodeVisits;
        N.MeetOps += R.MeetOps;
      }
    }
    for (LoopAnalysisSession *S : All)
      N.Instances += S->instancesBuilt();
    ++Result.LoopsAnalyzed;
  }
  {
    Scoped S(&T, "lint.sort");
    sortDiagnostics(Result.Diags);
  }
  N.Diagnostics += Result.Diags.size();
  N.Loops += Result.LoopsAnalyzed;
  N.Divergences += Result.EngineDivergences;

  std::string Render;
  {
    Scoped S(&T, "lint.render");
    SourceMap Sources;
    Sources.add(File, F.Text);
    std::ostringstream OS;
    renderText(OS, Result.Diags, Sources);
    Render = OS.str();
  }
  N.RenderBytes += Render.size();
  return Render;
}

/// Set-up: generate the pool, check the goldens, warm up with one op.
std::vector<InputFile> setUp(const Config &C, RunResult &R, double &SetupS) {
  std::vector<double> Times;
  std::vector<InputFile> Pool;
  for (unsigned Rep = 0; Rep != SetupRepeats; ++Rep) {
    RunResult Scratch;
    uint64_t T0 = nowNs();
    Pool = makePool(C);
    checkGoldens(C, Scratch);
    // Warm up on the median-size file, so set-up time does not depend on
    // which size the seed drew first.
    std::vector<const InputFile *> BySize;
    for (const InputFile &F : Pool)
      BySize.push_back(&F);
    std::nth_element(BySize.begin(), BySize.begin() + BySize.size() / 2,
                     BySize.end(), [](const InputFile *A, const InputFile *B) {
                       return A->Stmts < B->Stmts;
                     });
    const InputFile &WarmFile = *BySize[BySize.size() / 2];
    checkOp(lintOp(WarmFile), WarmFile, Scratch);
    Times.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    if (Rep + 1 == SetupRepeats) {
      R.Attempted += Scratch.Attempted;
      R.Failed += Scratch.Failed;
      R.SetupOk = Scratch.SetupOk;
      R.Failures = std::move(Scratch.Failures);
    }
  }
  SetupS = median(Times);
  return Pool;
}

/// One timed op of the untraced run.
struct OpSample {
  double Ms;
  /// Completion time since the measurement started.
  uint64_t DoneNs;
  unsigned Stmts;
};

/// The end-to-end metrics of the ops completed in [From, To).
void addLintMetrics(RunResult &R, const std::vector<OpSample> &Ops,
                    uint64_t From, uint64_t To) {
  std::vector<double> Ms;
  double Stmts = 0, OpSeconds = 0;
  for (const OpSample &O : Ops)
    if (O.DoneNs >= From && O.DoneNs < To) {
      Ms.push_back(O.Ms);
      Stmts += O.Stmts;
      OpSeconds += O.Ms / 1e3;
    }
  addPercentiles(R, "lint_ms", Ms, "ms");
  addPercentiles(R, "op_ms", Ms, "ms");
  R.add("lint_stmts_per_s", OpSeconds > 0 ? Stmts / OpSeconds : 0,
        "stmt/s", Ms.size());
  R.add("ops_per_s",
        static_cast<double>(Ms.size()) / (static_cast<double>(To - From) / 1e9),
        "1/s", Ms.size());
}

void untracedRun(const Config &C, const std::vector<InputFile> &Pool,
                 RunResult &R) {
  std::vector<OpSample> Ops;
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(C.Seconds * 1e9);
  for (size_t I = 0; nowNs() < Deadline; ++I) {
    const InputFile &F = Pool[I % Pool.size()];
    uint64_t T0 = nowNs();
    OpOutput O = lintOp(F);
    uint64_t T1 = nowNs();
    ++R.Attempted;
    checkOp(O, F, R);
    Ops.push_back(OpSample{static_cast<double>(T1 - T0) / 1e6, T1 - Start,
                           F.Stmts});
  }
  // Slices of whole passes over the pool, so every slice holds each file
  // equally often and its percentiles do not depend on where the slice
  // cuts the pool. Ops after the last whole pass are checked, not timed.
  size_t Passes = Ops.size() / Pool.size();
  size_t N = std::min<size_t>(MeasureSlices, Passes);
  std::vector<Slice> Slices;
  uint64_t From = 0;
  for (size_t S = 1; S <= N; ++S) {
    uint64_t To = Ops[S * Passes / N * Pool.size() - 1].DoneNs + 1;
    Slices.push_back({From, To});
    From = To;
  }
  if (Slices.empty()) // a run shorter than one pass
    Slices.push_back({0, nowNs() - Start});
  addSliceMedians(R, Slices,
                  [&](RunResult &Out, uint64_t From, uint64_t To) {
                    addLintMetrics(Out, Ops, From, To);
                  });
}

void tracedRun(const Config &C, const std::vector<InputFile> &Pool,
               RunResult &R) {
  Tracer T;
  Counts N;        // first pass over the pool only: deterministic
  Counts Scratch;  // later passes
  std::vector<double> TracedMs, UntracedMs;
  std::vector<uint64_t> OpSpanIdx;
  uint64_t Deadline = nowNs() + static_cast<uint64_t>(C.Seconds * 1e9);
  for (size_t I = 0; I < Pool.size() || nowNs() < Deadline; ++I) {
    const InputFile &F = Pool[I % Pool.size()];
    uint64_t T0 = nowNs();
    OpOutput Plain = lintOp(F);
    UntracedMs.push_back(static_cast<double>(nowNs() - T0) / 1e6);

    T.beginOp(static_cast<uint32_t>(I));
    OpSpanIdx.push_back(T.spans().size());
    bool ParseOk = false;
    uint64_t T1 = nowNs();
    std::string Render =
        tracedLintOp(F, T, I < Pool.size() ? N : Scratch, ParseOk);
    TracedMs.push_back(static_cast<double>(nowNs() - T1) / 1e6);

    ++R.Attempted;
    if (!checkOp(Plain, F, R))
      continue;
    if (!ParseOk || Render != Plain.Render)
      R.fail("trace: traced op on " + F.Name +
             " does not render byte-identical to lintSource");
  }

  // Self time per layer, averaged over the traced ops.
  double Ops = static_cast<double>(TracedMs.size());
  std::map<std::string, uint64_t> Self = selfTimes(T.spans());
  uint64_t OpNs = 0;
  for (uint64_t Idx : OpSpanIdx)
    OpNs += T.spans()[Idx].End - T.spans()[Idx].Start;
  uint64_t GlueNs = Self["lint.op"] + Self["lint.loop"];
  for (const auto &[Name, Ns] : Self)
    if (Name != "lint.op" && Name != "lint.loop")
      R.add(Name + "_ms", static_cast<double>(Ns) / 1e6 / Ops, "ms",
            TracedMs.size());
  R.add("dataflow.instances", double(N.Instances), "count");
  R.add("dataflow.tracked_cells", double(N.TrackedCells), "count");
  R.add("dataflow.node_visits", double(N.NodeVisits), "count");
  R.add("dataflow.meet_ops", double(N.MeetOps), "count");
  R.add("lint.diagnostics", double(N.Diagnostics), "count");
  R.add("lint.divergences", double(N.Divergences), "count");
  R.add("analysis.loops", double(N.Loops), "count");
  R.add("lint.render_kb",
        double(N.RenderBytes) / 1024.0 / static_cast<double>(Pool.size()),
        "KiB");
  double ParseS = static_cast<double>(Self["frontend.parse"]) / 1e9;
  double ParseMb =
      static_cast<double>(N.ParseBytes + Scratch.ParseBytes) / 1e6;
  R.add("frontend.parse_mb_per_s", ParseS > 0 ? ParseMb / ParseS : 0, "MB/s");
  R.add("trace.coverage",
        OpNs ? 1.0 - static_cast<double>(GlueNs) / static_cast<double>(OpNs)
             : 0,
        "ratio", TracedMs.size());
  R.add("trace.overhead", median(TracedMs) / median(UntracedMs) - 1.0,
        "ratio", TracedMs.size());
  if (!C.TraceOut.empty() && !writeChromeTrace(C.TraceOut, {&T}))
    R.fail("trace: cannot write " + C.TraceOut);
}

} // namespace

std::string lintInputs(const Config &C) {
  std::string Out;
  for (const InputFile &F : makePool(C))
    Out += "// " + F.Name + "\n" + F.Text;
  return Out;
}

RunResult runLintWorkload(const Config &C) {
  RunResult R;
  double SetupS = 0;
  std::vector<InputFile> Pool = setUp(C, R, SetupS);
  if (C.Trace)
    tracedRun(C, Pool, R);
  else
    untracedRun(C, Pool, R);
  R.add("setup_s", SetupS, "s", SetupRepeats);
  R.add("peak_rss_mb", peakRssMb(), "MiB");
  return R;
}

} // namespace perfbench
