//===- perfbench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of ardf-perfbench shares: the seeded input
/// generator, the in-memory span recorder of the traced run, sample
/// statistics, and the result record the driver prints.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_PERFBENCH_COMMON_H
#define ARDF_PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the only randomness source, so one seed fixes every byte
/// of the generated inputs.
struct Rng {
  uint64_t S;
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo +
           static_cast<int64_t>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  bool chance(unsigned Percent) { return range(1, 100) <= Percent; }
};

/// A child stream for \p Salt, independent of the parent's later draws.
inline uint64_t deriveSeed(uint64_t Seed, uint64_t Salt) {
  Rng R(Seed ^ (Salt * 0xd1342543de82ef95ull));
  return R.next();
}

//===-- Generated inputs --------------------------------------------------===//

/// One `do` loop of \p Stmts statements drawn from the statement pool:
/// four arrays (A-D), affine subscripts with offsets in [-3, 3], 20% of
/// the statements under a conditional.
std::string genLoop(Rng &R, unsigned Stmts, int64_t Trip);

/// lint_many_loops: 256 loops of 4-16 statements each.
std::string genManyLoopsFile(Rng &R);

/// Statement count of generated text (one statement per line inside a
/// loop body).
unsigned countStatements(const std::string &Text);

//===-- Traced run --------------------------------------------------------===//

/// In-memory span recorder of one thread. Spans nest through an explicit
/// stack; each carries its parent's index and the op it belongs to.
class Tracer {
public:
  struct Span {
    const char *Name;
    uint64_t Start;
    uint64_t End;
    int32_t Parent;
    uint32_t Op;
  };

  void beginOp(uint32_t Op) { CurOp = Op; }

  int32_t open(const char *Name) {
    int32_t Parent = Stack.empty() ? -1 : Stack.back();
    Spans.push_back(Span{Name, nowNs(), 0, Parent, CurOp});
    int32_t Idx = static_cast<int32_t>(Spans.size() - 1);
    Stack.push_back(Idx);
    return Idx;
  }

  void close(int32_t Idx) {
    Spans[Idx].End = nowNs();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Stack;
  uint32_t CurOp = 0;
};

/// RAII span; a null tracer records nothing.
class Scoped {
public:
  Scoped(Tracer *T, const char *Name) : T(T), Idx(T ? T->open(Name) : -1) {}
  ~Scoped() {
    if (T)
      T->close(Idx);
  }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer *T;
  int32_t Idx;
};

/// Per-name self time (span duration minus the part its children
/// cover) over a set of spans, in nanoseconds.
std::map<std::string, uint64_t> selfTimes(const std::vector<Tracer::Span> &S);

/// Writes spans as Chrome trace-event JSON, one tid per tracer.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers);

//===-- Statistics and results --------------------------------------------===//

/// Nearest-rank quantile of \p V (sorted in place); 0 when empty.
double quantile(std::vector<double> &V, double Q);

double median(std::vector<double> V);

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  /// Samples behind the value (0 when it is not a sample statistic).
  size_t Samples = 0;
};

/// What a workload hands back to main().
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when a check outside the op stream failed (set-up goldens).
  bool SetupOk = true;
  /// Metrics of the untraced run (trace 0) or the traced run (trace 1).
  std::vector<Metric> Metrics;
  /// One line per failed check, printed before the result.
  std::vector<std::string> Failures;

  void add(std::string Name, double Value, std::string Unit,
           size_t Samples = 0) {
    Metrics.push_back(Metric{std::move(Name), Value, std::move(Unit), Samples});
  }
  void fail(std::string Why) {
    ++Failed;
    if (Failures.size() < 20)
      Failures.push_back(std::move(Why));
  }
};

/// Adds NAME_p50 and NAME_p90 of \p Samples.
void addPercentiles(RunResult &R, const std::string &Name,
                    std::vector<double> Samples, const std::string &Unit);

/// A slice [From, To) of a measurement, in nanoseconds since it started.
using Slice = std::pair<uint64_t, uint64_t>;

/// \p MaxSlices equal time slices of [0, SpanNs), or fewer so that each
/// holds about ten of the run's \p Samples ops.
std::vector<Slice> timeSlices(unsigned MaxSlices, size_t Samples,
                              uint64_t SpanNs);

/// Adds to \p R the median over \p Slices of each metric \p Fill
/// computes on one slice. A slowdown of the shared host that covers less
/// than half of the slices leaves the result unchanged. Sample counts are
/// summed over slices.
void addSliceMedians(
    RunResult &R, const std::vector<Slice> &Slices,
    const std::function<void(RunResult &, uint64_t, uint64_t)> &Fill);

/// Run configuration from the command line.
struct Config {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root (examples/programs and tests/lint/golden live there).
  std::string Root = ".";
  /// Where the traced run writes its spans; empty: not written.
  std::string TraceOut;
};

/// Set-up repetitions per run; setup_s is their median.
constexpr unsigned SetupRepeats = 9;

/// Lints every bundled example and compares the text rendering with its
/// committed golden file; records a failure per mismatch.
void checkGoldens(const Config &C, RunResult &R);

/// Peak resident set of this process, MiB.
double peakRssMb();

RunResult runLintWorkload(const Config &C);
RunResult runServeWorkload(const Config &C);

/// Every generated input of the workload for C.Seed, concatenated: the
/// lint file pool, or the serve clients' first requests.
std::string lintInputs(const Config &C);
std::string serveInputs(const Config &C);

} // namespace perfbench

#endif // ARDF_PERFBENCH_COMMON_H
