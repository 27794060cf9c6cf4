//===- fuzz/lint_explain_fuzzer.cpp - libFuzzer target for --explain ------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the full lint pipeline with remarks enabled (the --explain
/// path: provenance re-solve, bit-identity cross-check, derivation
/// build, all three renderers) over arbitrary bytes. The contract under
/// malformed input is degrade-only:
///
///   1. lintSource with Explain set never crashes or throws (enforced
///      by the fuzzer process plus its sanitizers),
///   2. every attached evidence trail is non-empty and its embedded
///      derivation JSON is brace-delimited,
///   3. the renderers accept whatever diagnostics came back -- the
///      text, JSON-lines, and SARIF writers must not trip on evidence
///      attached to recovered partial programs.
///
/// The first input byte picks the engine and whether a check filter is
/// applied, so the cross-check path is exercised against every fast
/// engine; the rest is the source text.
///
/// Build (requires Clang):
///   cmake -B build-fuzz -DARDF_BUILD_FUZZERS=ON \
///         -DCMAKE_CXX_COMPILER=clang++ && cmake --build build-fuzz
///   build-fuzz/fuzz/lint_explain_fuzzer -max_total_time=60 fuzz/corpus
///
//===----------------------------------------------------------------------===//

#include "lint/LintEngine.h"
#include "lint/Render.h"

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>

using namespace ardf;

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  uint8_t Sel = Size ? Data[0] : 0;
  std::string Source(reinterpret_cast<const char *>(Data + (Size ? 1 : 0)),
                     Size ? Size - 1 : 0);

  LintOptions Opts;
  Opts.Explain = true;
  Opts.Engine = (Sel & 1) ? SolverOptions::Engine::PackedKernel
                          : SolverOptions::Engine::Reference;
  if (Sel & 4)
    Opts.ExplainCheck = "cross-iteration-conflict";

  LintResult R = lintSource(Source, "fuzz.arf", Opts);

  for (const Diagnostic &D : R.Diags) {
    if (D.hasEvidence()) {
      if (D.DerivationJson.empty())
        continue; // trail without DAG is allowed, not the reverse
      if (D.DerivationJson.front() != '{' || D.DerivationJson.back() != '}')
        __builtin_trap(); // embedded derivation must be a JSON object
    } else if (!D.DerivationJson.empty()) {
      __builtin_trap(); // a DAG without a trail is a wiring bug
    }
  }

  // All three renderers must swallow whatever the degraded pipeline
  // produced; rendering throws nothing and the fuzzer traps on crash.
  SourceMap Sources;
  Sources.add("fuzz.arf", Source);
  std::ostringstream Text, Json, Sarif;
  renderText(Text, R.Diags, Sources);
  renderJsonLines(Json, R.Diags);
  renderSarif(Sarif, R.Diags);
  return 0;
}
