//===- perfbench/src/main.cpp - ardf-perfbench entry point ----------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
// Runs one workload for a fixed time and prints its metrics, one per
// line with unit and sample count, after the host and build context.
// The last line is the JSON result: the end-to-end metrics of the
// untraced run (--trace 0), or the per-layer metrics of the traced run
// (--trace 1).
//
//   ardf-perfbench --workload lint_big_loop --seed 7 --seconds 20 --trace 0
//   ardf-perfbench --workload lint_many_loops --seed 7 --dump-inputs
//
// Exit codes: 0 result printed, 2 usage error, 3 refused (non-release
// library).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "dataflow/VectorOps.h"
#include "support/BuildInfo.h"

#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics every workload reports (BENCHMARK.json
/// "end_to_end", in order).
const MetricSpec EndToEnd[] = {
    {"setup_s", "s"},          {"op_ms_p50", "ms"},   {"op_ms_p90", "ms"},
    {"ops_per_s", "1/s"},      {"lint_ms_p50", "ms"}, {"lint_ms_p90", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// The per-layer metrics of the traced run (BENCHMARK.json "per_layer").
/// A layer a workload does not exercise reports 0.
const MetricSpec PerLayer[] = {
    {"frontend.parse_ms", "ms"},
    {"frontend.parse_mb_per_s", "MB/s"},
    {"passes.validate_ms", "ms"},
    {"analysis.nest_ms", "ms"},
    {"analysis.session_ms", "ms"},
    {"analysis.loops", "count"},
    {"dataflow.instance_ms", "ms"},
    {"dataflow.instances", "count"},
    {"dataflow.tracked_cells", "count"},
    {"dataflow.solve_ms", "ms"},
    {"dataflow.node_visits", "count"},
    {"dataflow.meet_ops", "count"},
    {"dataflow.lower_ms", "ms"},
    {"lint.check.redundant-load_ms", "ms"},
    {"lint.check.dead-store_ms", "ms"},
    {"lint.check.loop-carried-reuse_ms", "ms"},
    {"lint.check.cross-iteration-conflict_ms", "ms"},
    {"lint.crosscheck_ms", "ms"},
    {"lint.divergences", "count"},
    {"lint.diagnostics", "count"},
    {"lint.sort_ms", "ms"},
    {"lint.render_ms", "ms"},
    {"lint.render_kb", "KiB"},
    {"driver.rerun_ms", "ms"},
    {"driver.reused_ratio", "ratio"},
    {"driver.run_ms", "ms"},
    {"serve.lint_compute_ms", "ms"},
    {"serve.protocol_us", "us"},
    {"serve.memo_hit_ratio", "ratio"},
    {"serve.evictions", "count"},
    {"serve.resident_mb", "MiB"},
    {"serve.wait_ms.edit", "ms"},
    {"serve.wait_ms.lint", "ms"},
    {"serve.wait_ms.memo", "ms"},
    {"serve.wait_ms.open", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

const char *const Workloads[] = {"lint_big_loop", "lint_many_loops",
                                 "serve_edit_mix"};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "ardf-perfbench: %s\n"
               "usage: ardf-perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--root DIR] [--trace-out FILE]\n"
               "       ardf-perfbench --workload NAME --seed N --dump-inputs\n"
               "workloads: lint_big_loop lint_many_loops serve_edit_mix\n",
               Msg);
  return 2;
}

bool validName(const std::string &N) {
  return !N.empty() && std::all_of(N.begin(), N.end(), [](char Ch) {
    return std::isalnum(static_cast<unsigned char>(Ch)) || Ch == '_' ||
           Ch == '.' || Ch == '-';
  });
}

} // namespace

int main(int Argc, char **Argv) {
  // Keep freed heap memory in the process, as a warm long-running heap
  // does, instead of returning it to the kernel after every op. Otherwise
  // each op re-faults its ~100 MiB working set, and the cost of those
  // faults follows the memory pressure of the shared host: on a 4-vCPU
  // VM it moved lint_big_loop times by 30% from one minute to the next.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  Config C;
  bool Dump = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--dump-inputs") {
      Dump = true;
    } else if (A == "--workload" && (V = Value())) {
      C.Workload = V;
    } else if (A == "--seed" && (V = Value())) {
      C.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds" && (V = Value())) {
      C.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace" && (V = Value())) {
      C.Trace = std::string(V) == "1";
    } else if (A == "--root" && (V = Value())) {
      C.Root = V;
    } else if (A == "--trace-out" && (V = Value())) {
      C.TraceOut = V;
    } else {
      return usage(("bad argument '" + A + "'").c_str());
    }
  }
  if (std::find(std::begin(Workloads), std::end(Workloads), C.Workload) ==
      std::end(Workloads))
    return usage("unknown or missing --workload");
  if (Dump) {
    std::fputs((C.Workload == "serve_edit_mix" ? serveInputs(C)
                                               : lintInputs(C))
                   .c_str(),
               stdout);
    return 0;
  }
  if (!(C.Seconds > 0))
    return usage("--seconds must be positive");

  // Timings of a debug build describe nothing a user runs.
  if (std::strcmp(ardf::libraryBuildType(), "release") != 0) {
    std::fprintf(stderr, "ardf-perfbench: refusing to measure a %s build of "
                         "libardf; build with CMAKE_BUILD_TYPE=Release\n",
                 ardf::libraryBuildType());
    return 3;
  }
  unsigned Nproc = std::max(1u, std::thread::hardware_concurrency());

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              C.Workload.c_str(), static_cast<unsigned long long>(C.Seed),
              C.Seconds, C.Trace ? 1 : 0);
  std::printf("# context nproc=%u isa=%s build=%s\n", Nproc,
              ardf::simd::isaName(ardf::simd::activeIsa()),
              ardf::libraryBuildType());
  std::fflush(stdout);

  RunResult R = C.Workload == "serve_edit_mix" ? runServeWorkload(C)
                                               : runLintWorkload(C);

  for (const std::string &F : R.Failures)
    std::printf("# FAILED %s\n", F.c_str());
  for (const Metric &M : R.Metrics) {
    if (!validName(M.Name)) {
      std::fprintf(stderr, "ardf-perfbench: bad metric name '%s'\n",
                   M.Name.c_str());
      return 2;
    }
    std::printf("# metric %-40s %.6g %s", M.Name.c_str(), M.Value,
                M.Unit.c_str());
    if (M.Samples)
      std::printf(" (samples=%zu)", M.Samples);
    std::printf("\n");
  }
  std::printf("# metric %-40s %.6g failed/attempted (%llu/%llu)\n",
              "fail_ratio",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 0.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));

  std::string Json = "{\"correct\": ";
  Json += R.SetupOk && R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " +
          std::to_string(std::max<uint64_t>(1, R.Attempted));
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  auto Emit = [&](const MetricSpec &S, bool ZeroIfMissing) {
    auto It = std::find_if(R.Metrics.begin(), R.Metrics.end(),
                           [&](const Metric &M) { return M.Name == S.Name; });
    if (It == R.Metrics.end() && !ZeroIfMissing) {
      std::fprintf(stderr, "ardf-perfbench: metric %s was not measured\n",
                   S.Name);
      return false;
    }
    if (It != R.Metrics.end() && It->Unit != S.Unit) {
      std::fprintf(stderr, "ardf-perfbench: metric %s has unit %s, not %s\n",
                   S.Name, It->Unit.c_str(), S.Unit);
      return false;
    }
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  It == R.Metrics.end() ? 0.0 : It->Value);
    Json += std::string(First ? "" : ", ") + "\"" + S.Name +
            "\": {\"value\": " + Buf + ", \"unit\": \"" + S.Unit + "\"}";
    First = false;
    return true;
  };
  if (C.Trace) {
    for (const MetricSpec &S : PerLayer)
      if (!Emit(S, true))
        return 2;
  } else {
    for (const MetricSpec &S : EndToEnd)
      if (!Emit(S, false))
        return 2;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
