//===- tests/tools/CliRobustnessTest.cpp - CLI exit-code contract --------===//
//
// Black-box checks of the shipped binaries: missing, non-regular, and
// oversized inputs exit 2 with a one-line diagnostic; clean inputs exit
// 0; --strict turns degraded checks into exit 1; ARDF_FAILPOINTS arms
// failpoints in a child process without code changes.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

const std::string Lint = ARDF_LINT_BIN;
const std::string Stats = ARDF_STATS_BIN;
const std::string Explain = ARDF_EXPLAIN_BIN;
const std::string Serve = ARDF_SERVE_BIN;
const std::string Example = std::string(ARDF_EXAMPLES_DIR) + "/fig1.arf";
const std::string Fig4 = std::string(ARDF_EXAMPLES_DIR) + "/fig4.arf";

/// Runs a shell command with stdout/stderr discarded; returns the exit
/// code (or -1 if the child died abnormally).
int run(const std::string &Cmd) {
  int Status = std::system((Cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Runs a command and captures combined stdout+stderr.
int runCapture(const std::string &Cmd, std::string &Out) {
  Out.clear();
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

} // namespace

TEST(CliRobustnessTest, CleanInputExitsZero) {
  EXPECT_EQ(run(Lint + " --quiet " + Example), 0);
  EXPECT_EQ(run(Stats + " " + Example), 0);
}

TEST(CliRobustnessTest, MissingInputExitsTwo) {
  EXPECT_EQ(run(Lint + " /nonexistent/input.arf"), 2);
  EXPECT_EQ(run(Stats + " /nonexistent/input.arf"), 2);
  std::string Out;
  EXPECT_EQ(runCapture(Lint + " /nonexistent/input.arf", Out), 2);
  EXPECT_NE(Out.find("no such file"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, DirectoryInputExitsTwo) {
  // A directory opens fine as an ifstream and reads as empty -- the
  // classic silent-success trap. Both tools must refuse it.
  EXPECT_EQ(run(Lint + " " + ARDF_EXAMPLES_DIR), 2);
  EXPECT_EQ(run(Stats + " " + ARDF_EXAMPLES_DIR), 2);
  std::string Out;
  EXPECT_EQ(runCapture(Stats + " " + ARDF_EXAMPLES_DIR, Out), 2);
  EXPECT_NE(Out.find("not a regular file"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, OversizedInputExitsTwo) {
  std::string Out;
  EXPECT_EQ(runCapture(Lint + " --max-input-bytes=4 " + Example, Out), 2);
  EXPECT_NE(Out.find("size cap"), std::string::npos) << Out;
  EXPECT_EQ(run(Stats + " --max-input-bytes=4 " + Example), 2);
  // Raising the cap (or lifting it with 0) restores normal operation.
  EXPECT_EQ(run(Lint + " --quiet --max-input-bytes=0 " + Example), 0);
}

TEST(CliRobustnessTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run(Lint), 2);                       // no inputs
  EXPECT_EQ(run(Lint + " --no-such-option x"), 2);
  EXPECT_EQ(run(Stats + " --budget-visits=0 " + Example), 2);
  // --explain=CHECK-ID takes only a check whose findings carry evidence;
  // any other id would run and explain nothing.
  std::string Out;
  EXPECT_EQ(runCapture(Lint + " --explain=bogus " + Example, Out), 2);
  EXPECT_NE(Out.find("unknown check 'bogus' for --explain (expected one of: "
                     "redundant-load, dead-store, loop-carried-reuse, "
                     "cross-iteration-conflict)"),
            std::string::npos)
      << Out;
  EXPECT_EQ(run(Lint + " --explain=precondition " + Example), 2);
  EXPECT_EQ(run(Lint + " --explain= " + Example), 2);
  EXPECT_EQ(run(Lint + " --quiet --explain=dead-store " + Example), 0);
}

TEST(CliRobustnessTest, EngineNamesAreValidated) {
  // Every spelled engine is accepted by both tools...
  for (const char *Name : {"reference", "packed"}) {
    EXPECT_EQ(run(Lint + " --quiet --engine=" + Name + " " + Example), 0)
        << Name;
    EXPECT_EQ(run(Stats + " --engine=" + Name + " " + Example), 0) << Name;
  }
  // ...and a typo or a retired engine name is a usage error naming the
  // valid spellings, not a silent fallback to the default engine.
  std::string Out;
  for (std::string Name : {"smid", "simd", "summary"}) {
    EXPECT_EQ(runCapture(Lint + " --engine=" + Name + " " + Example, Out), 2)
        << Name;
    EXPECT_NE(Out.find("unknown engine '" + Name + "'"), std::string::npos)
        << Out;
    EXPECT_NE(Out.find("(expected one of: reference, packed)"),
              std::string::npos)
        << Out;
    EXPECT_EQ(run(Stats + " --engine=" + Name + " " + Example), 2) << Name;
  }
  EXPECT_EQ(runCapture(Stats + " --engine=Packed " + Example, Out), 2);
  EXPECT_NE(Out.find("unknown engine 'Packed'"), std::string::npos) << Out;
  EXPECT_EQ(run(Stats + " --engine= " + Example), 2);
}

TEST(CliRobustnessTest, ListChecksPrintsTheCatalog) {
  // --list-checks needs no input file, exits 0, and prints one line per
  // check with its id, bracketed severity, and a description.
  std::string Out;
  EXPECT_EQ(runCapture(Lint + " --list-checks", Out), 0);
  for (const char *Id :
       {"redundant-load", "dead-store", "loop-carried-reuse",
        "cross-iteration-conflict", "precondition", "parse-error",
        "analysis-degraded", "analysis-unsupported", "engine-divergence"})
    EXPECT_NE(Out.find(Id), std::string::npos) << "missing " << Id << " in:\n"
                                               << Out;
  EXPECT_NE(Out.find("[warning]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[error]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("[note]"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, StrictTurnsDegradationIntoFailure) {
  // Without --strict a degraded check is a warning (exit 0); with it,
  // exit 1. The failpoint is armed purely through the environment.
  std::string Armed = "env ARDF_FAILPOINTS=lint.check@2:throw ";
  EXPECT_EQ(run(Armed + Lint + " --quiet " + Example), 0);
  EXPECT_EQ(run(Armed + Lint + " --quiet --strict " + Example), 1);
  std::string Out;
  EXPECT_EQ(runCapture(Armed + Lint + " --quiet --strict " + Example, Out),
            1);
  EXPECT_NE(Out.find("analysis degraded"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, BudgetFlagDegradesButStillSucceeds) {
  // A starvation budget degrades every check -- graceful, exit 0.
  EXPECT_EQ(run(Lint + " --quiet --budget-visits=1 " + Example), 0);
  EXPECT_EQ(run(Lint + " --quiet --strict --budget-visits=1 " + Example), 1);
  std::string Out;
  EXPECT_EQ(runCapture(Stats + " --budget-visits=1 " + Example, Out), 0);
  EXPECT_NE(Out.find("degraded"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, InjectedDriverFaultIsContained) {
  // A loop-level throw inside ardf-stats' driver must not crash the
  // tool; the loop is reported failed and the process exits normally.
  std::string Out;
  int Code = runCapture("env ARDF_FAILPOINTS=driver.loop@1:throw " + Stats +
                            " " + Example,
                        Out);
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("1 failed"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, MalformedFailpointSpecIsNonFatal) {
  std::string Out;
  int Code = runCapture("env ARDF_FAILPOINTS=bogus " + Lint + " --quiet " +
                            Example,
                        Out);
  EXPECT_EQ(Code, 0) << Out;
  EXPECT_NE(Out.find("ARDF_FAILPOINTS"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, ExplainCleanInputExitsZero) {
  EXPECT_EQ(run(Explain + " " + Fig4 +
                " --problem may-reach --loop 1 --cell 'X[i, j]'"),
            0);
  EXPECT_EQ(run(Explain + " " + Fig4 +
                " --problem avail --loop 1 --cell 'X[i, j]' --json"),
            0);
}

TEST(CliRobustnessTest, ExplainUsageAndIoErrorsExitTwo) {
  EXPECT_EQ(run(Explain), 2); // no input
  EXPECT_EQ(run(Explain + " /nonexistent/input.arf --problem may-reach"), 2);
  EXPECT_EQ(run(Explain + " " + std::string(ARDF_EXAMPLES_DIR)), 2);
  EXPECT_EQ(run(Explain + " " + Fig4 + " --no-such-flag"), 2);
  EXPECT_EQ(run(Explain + " " + Fig4 + " --problem bogus"), 2);
  EXPECT_EQ(run(Explain + " " + Fig4 + " --problem may-reach --loop 99"), 2);
  EXPECT_EQ(run(Explain + " " + Fig4 +
                " --max-input-bytes=4 --problem may-reach"),
            2);
  // Malformed --loop/--node numbers are usage errors, in both the = and
  // the space-separated form, never a silent loop or node 0 (or a
  // wrapped -1).
  const std::string Cell = " --problem may-reach --cell 'B[i]'";
  for (const char *Flag : {"--loop=abc", "--loop=0abc", "--loop=-1",
                           "--loop 1x", "--node=abc", "--node=",
                           "--node=1x", "--node 2x"}) {
    std::string Out;
    EXPECT_EQ(runCapture(Explain + " " + Example + Cell + " " + Flag, Out),
              2)
        << Flag;
    EXPECT_NE(Out.find("needs a non-negative integer"), std::string::npos)
        << Flag << ": " << Out;
  }
  EXPECT_EQ(run(Explain + " " + Example + Cell + " --loop 0 --node 2"), 0);
}

TEST(CliRobustnessTest, ExplainCountsLoopsInSourceOrder) {
  // Two sibling nests: --loop=1 is the inner loop of the first nest
  // (b), not the second nest (c). Only b tracks B[b].
  std::string File = testing::TempDir() + "sibling_nests.arf";
  std::ofstream(File) << "do a = 1, 4 {\n"
                         "  do b = 1, 4 { B[b] = B[b - 1] + 1; }\n"
                         "}\n"
                         "do c = 1, 4 {\n"
                         "  do d = 1, 4 { D[d] = D[d - 1] + 1; }\n"
                         "}\n";
  std::string Out;
  EXPECT_EQ(runCapture(Explain + " " + File +
                           " --problem may-reach --loop=1 --cell 'B[b]'",
                       Out),
            0)
      << Out;
  EXPECT_EQ(runCapture(Explain + " " + File +
                           " --problem may-reach --loop=3 --cell 'D[d]'",
                       Out),
            0)
      << Out;
  std::remove(File.c_str());
}

TEST(CliRobustnessTest, ExplainUnknownCellListsCandidates) {
  // A missing or unmatched --cell is a usage error that teaches: the
  // tool lists every tracked cell of the chosen loop with its role.
  std::string Out;
  EXPECT_EQ(runCapture(Explain + " " + Fig4 +
                           " --problem may-reach --loop 1 --cell 'NOPE[q]'",
                       Out),
            2);
  EXPECT_NE(Out.find("candidates"), std::string::npos) << Out;
  EXPECT_NE(Out.find("X[i + 1, j]"), std::string::npos) << Out;
  EXPECT_EQ(runCapture(Explain + " " + Fig4 + " --problem avail --loop 1",
                       Out),
            2);
  EXPECT_NE(Out.find("--cell is required"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, ExplainTortureNeverCrashes) {
  // Malformed inputs, garbage flags, truncated sources, armed
  // failpoints: ardf-explain may refuse (exit 2) or report degradation
  // (exit 1) but must never die on a signal.
  const char *Garbage[] = {
      " --problem", " --cell", " --loop", " --loop -1", " --node 999999",
      " --problem may-reach --loop 1 --cell ''",
      " --problem may-reach --engine smid",
      " --problem=must-reach --loop=1 --cell='X[i, j]' --node=0",
  };
  for (const char *Args : Garbage) {
    int Code = run(Explain + " " + Fig4 + Args);
    EXPECT_GE(Code, 0) << Args; // -1 would mean signal death
    EXPECT_LE(Code, 2) << Args;
  }
  // A solver fault mid-explain degrades instead of crashing.
  int Code = run("env ARDF_FAILPOINTS=solver.pass@1:throw " + Explain + " " +
                 Fig4 + " --problem may-reach --loop 1 --cell 'X[i, j]'");
  EXPECT_GE(Code, 0);
  EXPECT_LE(Code, 2);
}

TEST(CliRobustnessTest, VersionFlagOnEveryTool) {
  // One shared --version contract across the four binaries: exit 0, a
  // single line naming the tool and the build type, no input needed.
  struct {
    const std::string &Bin;
    const char *Name;
  } Tools[] = {{Lint, "ardf-lint"},
               {Stats, "ardf-stats"},
               {Explain, "ardf-explain"},
               {Serve, "ardf-serve"}};
  for (const auto &T : Tools) {
    std::string Out;
    EXPECT_EQ(runCapture(T.Bin + " --version", Out), 0) << T.Name;
    EXPECT_NE(Out.find(T.Name), std::string::npos) << Out;
    EXPECT_NE(Out.find("build="), std::string::npos) << Out;
  }
}

TEST(CliRobustnessTest, ServeUsageErrorsExitTwo) {
  EXPECT_EQ(run(Serve + " --no-such-flag"), 2);
  EXPECT_EQ(run(Serve + " --workers=0"), 2);
  EXPECT_EQ(run(Serve + " --socket=/tmp/a.sock --connect=/tmp/a.sock"), 2);
  // Malformed numbers are usage errors, not a silent 0 (or a negative
  // slack) that turns a server limit off; stdin is empty, so a server
  // that accepted the flag would exit 0 at EOF.
  for (const char *Flag :
       {"--max-request-bytes=abc", "--budget-slack=-1", "--deadline-ms=abc",
        "--budget-visits=abc", "--workers=3abc"})
    EXPECT_EQ(run(Serve + " " + Flag + " </dev/null"), 2) << Flag;
  // A deadline whose nanosecond count overflows uint64_t would wrap to
  // a tiny one; the largest representable deadline is accepted.
  EXPECT_EQ(run(Serve + " --deadline-ms=18446744073710 </dev/null"), 2);
  EXPECT_EQ(run(Serve + " --deadline-ms=18446744073709 </dev/null"), 0);
  // Requests enforce their own deadline; there is no watchdog grace.
  std::string Out;
  EXPECT_EQ(runCapture(Serve + " --grace-ms=1 </dev/null", Out), 2);
  EXPECT_NE(Out.find("unknown option '--grace-ms=1'"), std::string::npos)
      << Out;
}

TEST(CliRobustnessTest, ServeSocketJoinsClosedConnections) {
  // Each connection runs on its own thread. A daemon that kept every
  // closed connection's thread until shutdown would keep its stack
  // mapped: about 8 MiB of VmSize a connection.
  char Dir[] = "/tmp/ardf-serve-test.XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  const std::string Sock = std::string(Dir) + "/s.sock";
  std::string SocketArg = "--socket=" + Sock;
  std::string Bin = Serve;
  char *Argv[] = {Bin.data(), SocketArg.data(), nullptr};
  posix_spawn_file_actions_t Files;
  posix_spawn_file_actions_init(&Files);
  posix_spawn_file_actions_addopen(&Files, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&Files, 2, "/dev/null", O_WRONLY, 0);
  pid_t Daemon = -1;
  int Spawned = posix_spawn(&Daemon, Bin.c_str(), &Files, nullptr, Argv,
                            environ);
  posix_spawn_file_actions_destroy(&Files);
  ASSERT_EQ(Spawned, 0);
  // Reaps the daemon on every exit path; kills it first if it is still
  // running (a failed assertion below).
  struct Reaper {
    pid_t Pid;
    int Status = -1;
    bool Reaped = false;
    int wait() {
      if (!Reaped && waitpid(Pid, &Status, 0) == Pid)
        Reaped = true;
      return Reaped && WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
    }
    ~Reaper() {
      if (!Reaped) {
        kill(Pid, SIGKILL);
        wait();
      }
    }
  } Guard{Daemon};

  for (int Tries = 0; Tries != 200 && !std::filesystem::exists(Sock);
       ++Tries)
    usleep(25000);
  ASSERT_TRUE(std::filesystem::exists(Sock)) << "daemon never bound " << Sock;
  auto Client = [&](const std::string &Request) {
    return run("printf '%s\\n' '" + Request + "' | " + Serve +
               " --connect=" + Sock);
  };
  auto VmSizeKiB = [&] {
    std::ifstream Status("/proc/" + std::to_string(Daemon) + "/status");
    std::string Line;
    while (std::getline(Status, Line))
      if (Line.rfind("VmSize:", 0) == 0)
        return std::strtoll(Line.c_str() + 7, nullptr, 10);
    return 0ll;
  };
  // Warm-up: the first connections set up the allocator's thread arena
  // and the thread stack cache.
  for (int I = 0; I != 5; ++I)
    ASSERT_EQ(Client("{\"method\":\"stats\"}"), 0);
  long long Before = VmSizeKiB();
  ASSERT_GT(Before, 0);
  for (int I = 0; I != 40; ++I)
    ASSERT_EQ(Client("{\"method\":\"stats\"}"), 0) << "client " << I;
  long long After = VmSizeKiB();
  EXPECT_LT(After - Before, 64 * 1024)
      << "VmSize grew from " << Before << " to " << After << " KiB";
  EXPECT_EQ(Client("{\"method\":\"shutdown\"}"), 0);
  EXPECT_EQ(Guard.wait(), 0);
  std::filesystem::remove_all(Dir);
}

TEST(CliRobustnessTest, ServeStdioRenderMatchesLintJson) {
  // The daemon acceptance bar: a lint request over stdio answers with a
  // "render" member bit-identical to a fresh ardf-lint --format=json
  // run over the same bytes.
  std::string LintOut;
  ASSERT_EQ(runCapture(Lint + " --format=json " + Example, LintOut), 0);

  // python3 builds the request line (JSON-escaping the multi-line
  // source) and decodes the response's render member back to raw bytes.
  std::string Cmd =
      "python3 -c \"import json,sys; "
      "src=open('" + Example + "').read(); "
      "print(json.dumps({'method':'lint','id':1,'file':'" + Example +
      "','source':src}))\" | " + Serve;
  std::string Out;
  ASSERT_EQ(runCapture(Cmd, Out), 0) << Out;
  // The response is one JSON line; the render member carries the exact
  // bytes with JSON escapes. Decode it with the same python and diff.
  std::string Decode =
      Cmd + " | python3 -c \"import json,sys; "
            "r=json.loads(sys.stdin.readline()); "
            "assert r['ok'], r; sys.stdout.write(r['result']['render'])\"";
  std::string Render;
  ASSERT_EQ(runCapture(Decode, Render), 0) << Render;
  EXPECT_EQ(Render, LintOut) << "daemon render drifted from ardf-lint";
}

TEST(CliRobustnessTest, ServeStdioSurvivesPoisonLines) {
  // Malformed JSON, a JSON depth bomb, an unknown method, and a missing
  // source, then a good stats request: one response line each, orderly
  // exit 0, and the final response is ok.
  std::string Script =
      "printf '%s\\n' "
      "'{\"method\": nope}' "
      "'" + std::string(300, '[') + "' "
      "'{\"method\":\"frobnicate\"}' "
      "'{\"method\":\"lint\"}' "
      "'{\"method\":\"stats\",\"id\":99}' | " + Serve;
  std::string Out;
  ASSERT_EQ(runCapture(Script, Out), 0) << Out;
  // Five request lines -> five response lines.
  size_t Lines = 0;
  for (char C : Out)
    Lines += C == '\n' ? 1 : 0;
  EXPECT_EQ(Lines, 5u) << Out;
  EXPECT_NE(Out.find("\"id\":99,\"ok\":true"), std::string::npos) << Out;
  EXPECT_NE(Out.find("bad-request"), std::string::npos) << Out;
}

TEST(CliRobustnessTest, LintExplainFlagWorksAndFiltersDegrade) {
  // --explain rides the normal lint exit-code contract: clean inputs
  // stay exit 0 with or without a check filter, and an armed failpoint
  // degrades the explain pass without crashing.
  EXPECT_EQ(run(Lint + " --quiet --explain " + Fig4), 0);
  EXPECT_EQ(run(Lint + " --quiet --explain=loop-carried-reuse " + Fig4), 0);
  EXPECT_EQ(run(Lint + " --quiet --explain --engine=packed " + Fig4), 0);
  std::string Out;
  EXPECT_EQ(runCapture(Lint + " --explain " + Fig4, Out), 0);
  EXPECT_NE(Out.find("because:"), std::string::npos) << Out;
  EXPECT_EQ(run("env ARDF_FAILPOINTS=lint.check:throw " + Lint +
                " --quiet --explain " + Fig4),
            0);
}
