//===- perfbench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

void appendRef(std::string &Out, Rng &R) {
  Out += static_cast<char>('A' + R.range(0, 3));
  Out += "[i";
  int64_t Off = R.range(-3, 3);
  if (Off > 0)
    Out += " + " + std::to_string(Off);
  else if (Off < 0)
    Out += " - " + std::to_string(-Off);
  Out += "]";
}

std::string readFile(const std::filesystem::path &P, bool &Ok) {
  std::ifstream In(P, std::ios::binary);
  Ok = In.good();
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

std::string genLoop(Rng &R, unsigned Stmts, int64_t Trip) {
  static const char *const Ops[] = {" + ", " - ", " * "};
  std::string Out = "do i = 1, " + std::to_string(Trip) + " {\n";
  for (unsigned S = 0; S != Stmts; ++S) {
    bool Cond = R.chance(20);
    Out += "  ";
    if (Cond) {
      Out += "if (";
      appendRef(Out, R);
      Out += " > " + std::to_string(R.range(-50, 50)) + ") { ";
    }
    appendRef(Out, R);
    Out += " = ";
    appendRef(Out, R);
    Out += Ops[R.range(0, 2)];
    appendRef(Out, R);
    Out += ";";
    if (Cond)
      Out += " }";
    Out += '\n';
  }
  Out += "}\n";
  return Out;
}

std::string genManyLoopsFile(Rng &R) {
  // Every size in [4, 16] equally often, in seeded order, so the file's
  // statement count is the same for every seed.
  std::vector<unsigned> Sizes;
  for (unsigned L = 0; L != 256; ++L)
    Sizes.push_back(4 + L % 13);
  for (size_t I = Sizes.size() - 1; I > 0; --I)
    std::swap(Sizes[I], Sizes[static_cast<size_t>(R.range(0, int64_t(I)))]);
  std::string Out;
  for (unsigned Stmts : Sizes)
    Out += genLoop(R, Stmts, R.range(100, 2000));
  return Out;
}

unsigned countStatements(const std::string &Text) {
  return static_cast<unsigned>(std::count(Text.begin(), Text.end(), ';'));
}

std::map<std::string, uint64_t>
selfTimes(const std::vector<Tracer::Span> &S) {
  std::vector<uint64_t> ChildNs(S.size(), 0);
  for (const Tracer::Span &Sp : S)
    if (Sp.Parent >= 0)
      ChildNs[Sp.Parent] += Sp.End - Sp.Start;
  std::map<std::string, uint64_t> Self;
  for (size_t I = 0; I != S.size(); ++I) {
    uint64_t Dur = S[I].End - S[I].Start;
    Self[S[I].Name] += Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
  }
  return Self;
}

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  uint64_t Base = UINT64_MAX;
  for (const Tracer *T : Tracers)
    for (const Tracer::Span &S : T->spans())
      Base = std::min(Base, S.Start);
  Out << "{\"traceEvents\":[";
  bool First = true;
  char Buf[256];
  for (size_t Tid = 0; Tid != Tracers.size(); ++Tid) {
    const std::vector<Tracer::Span> &Spans = Tracers[Tid]->spans();
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Tracer::Span &S = Spans[I];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
                    "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,"
                    "\"span\":%zu,\"parent\":%d}}",
                    First ? "" : ",", S.Name, Tid + 1,
                    static_cast<double>(S.Start - Base) / 1e3,
                    static_cast<double>(S.End - S.Start) / 1e3, S.Op, I,
                    S.Parent);
      Out << Buf;
      First = false;
    }
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[Rank == 0 ? 0 : Rank - 1];
}

double median(std::vector<double> V) { return quantile(V, 0.5); }

void addPercentiles(RunResult &R, const std::string &Name,
                    std::vector<double> Samples, const std::string &Unit) {
  size_t N = Samples.size();
  R.add(Name + "_p50", quantile(Samples, 0.5), Unit, N);
  R.add(Name + "_p90", quantile(Samples, 0.9), Unit, N);
}

std::vector<Slice> timeSlices(unsigned MaxSlices, size_t Samples,
                              uint64_t SpanNs) {
  size_t N = std::clamp<size_t>(Samples / 10, 1, MaxSlices);
  std::vector<Slice> Out;
  for (size_t S = 0; S != N; ++S)
    Out.push_back({S * SpanNs / N, (S + 1) * SpanNs / N});
  return Out;
}

void addSliceMedians(
    RunResult &R, const std::vector<Slice> &Slices,
    const std::function<void(RunResult &, uint64_t, uint64_t)> &Fill) {
  std::vector<RunResult> Per(Slices.size());
  for (size_t S = 0; S != Slices.size(); ++S)
    Fill(Per[S], Slices[S].first, Slices[S].second);
  for (size_t M = 0; M != Per[0].Metrics.size(); ++M) {
    std::vector<double> Values;
    size_t Samples = 0;
    for (const RunResult &P : Per) {
      Values.push_back(P.Metrics[M].Value);
      Samples += P.Metrics[M].Samples;
    }
    R.add(Per[0].Metrics[M].Name, median(Values), Per[0].Metrics[M].Unit,
          Samples);
  }
}

void checkGoldens(const Config &C, RunResult &R) {
  namespace fs = std::filesystem;
  fs::path Examples = fs::path(C.Root) / "examples" / "programs";
  fs::path Goldens = fs::path(C.Root) / "tests" / "lint" / "golden";
  std::vector<fs::path> Programs;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Examples, EC))
    if (E.path().extension() == ".arf")
      Programs.push_back(E.path());
  std::sort(Programs.begin(), Programs.end());
  if (Programs.empty()) {
    R.SetupOk = false;
    R.fail("golden: no example programs under " + Examples.string());
    return;
  }
  for (const fs::path &P : Programs) {
    ++R.Attempted;
    bool SrcOk = false, GoldOk = false;
    std::string Src = readFile(P, SrcOk);
    std::string Expected =
        readFile(Goldens / (P.stem().string() + ".expected"), GoldOk);
    std::string File = P.filename().string();
    if (!SrcOk || !GoldOk) {
      R.SetupOk = false;
      R.fail("golden: cannot read " + File + " or its golden file");
      continue;
    }
    ardf::SourceMap Sources;
    Sources.add(File, Src);
    std::ostringstream OS;
    ardf::renderText(OS, ardf::lintSource(Src, File).Diags, Sources);
    if (OS.str() != Expected) {
      R.SetupOk = false;
      R.fail("golden: " + File + " renders differently from its golden file");
    }
  }
}

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace perfbench
