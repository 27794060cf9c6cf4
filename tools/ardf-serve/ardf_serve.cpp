//===- tools/ardf-serve/ardf_serve.cpp - Analysis daemon CLI --------------===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running analysis daemon: newline-delimited JSON requests
/// (analyze, lint, explain, stats, shutdown -- serve/Protocol.h) over
/// stdio or a Unix socket, answered from a warm per-tenant cache so a
/// stream of edits to the same file re-solves only the touched loops.
///
///   ardf-serve                            # stdio, one request per line
///   ardf-serve --socket=/tmp/ardf.sock    # daemon on a Unix socket
///   ardf-serve --connect=/tmp/ardf.sock   # client: pipe stdin lines in
///
///   echo '{"method":"lint","source":"do i = 1, 10 { A[i] = A[i-1]; }"}' |
///       ardf-serve
///
/// Exit codes: 0 orderly shutdown (EOF or a shutdown request), 2 usage
/// or socket failure.
///
//===----------------------------------------------------------------------===//

#include "common/CliFlags.h"
#include "serve/Server.h"
#include "support/BuildInfo.h"
#include "support/Socket.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace ardf;
using namespace ardf::serve;

namespace {

struct CliOptions {
  /// --socket=PATH: serve connections on a Unix socket instead of stdio.
  std::string SocketPath;
  /// --connect=PATH: client mode -- forward stdin lines to a running
  /// daemon and print its response lines.
  std::string ConnectPath;
  ServeOptions Serve;
};

int usage(std::ostream &OS, int Code) {
  OS << "usage: ardf-serve [options]\n"
        "\n"
        "Long-running analysis daemon speaking newline-delimited JSON:\n"
        "one request object per line, one response line per request\n"
        "(methods: analyze, lint, explain, stats, shutdown). Parsed\n"
        "programs, warm analysis sessions, and rendered results are\n"
        "cached per tenant, and edited sources are re-analyzed\n"
        "incrementally (only structurally changed loops re-solve).\n"
        "\n"
        "options:\n"
        "  --socket=PATH           serve on a Unix socket (default:\n"
        "                          stdio, exiting at EOF)\n"
        "  --connect=PATH          client mode: send stdin lines to a\n"
        "                          running daemon, print responses\n"
        "  --workers=N             worker threads (default 1)\n"
        "  --queue-depth=N         bounded request queue; excess requests\n"
        "                          get an overloaded response (default 64)\n"
        "  --max-request-bytes=N   admission cap per request line\n"
        "                          (default 1MiB, 0 = uncapped)\n"
        "  --deadline-ms=N         per-request wall-clock deadline from\n"
        "                          dequeue; a request past it is answered\n"
        "                          deadline (default 2000, 0 disables)\n"
        "  --tenant-quota=N        cached documents per tenant, LRU\n"
        "                          evicted (default 8)\n"
        "  --engine=NAME           default solver engine (default:\n"
        "                          reference; packed = the packed\n"
        "                          kernel, bit-identical results).\n"
        "                          NAME is one of:\n"
        "                          "
     << engineNameList()
     << "\n"
        "  --budget-visits=N       server-wide node-visit ceiling\n"
        "  --budget-slack=F        ceiling at F x the 3N/2N bound\n"
        "  --budget-cells=N        server-wide matrix-cell ceiling\n"
        "  --version               print version and build type\n"
        "  --help                  show this message\n"
        "\n"
        "Requests may tighten the server budgets, never loosen them.\n"
        "exit codes: 0 orderly shutdown, 2 usage/socket failure\n";
  return Code;
}

bool parseArgs(int Argc, char **Argv, CliOptions &Opts, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--help" || Arg == "-h") {
      Err = "help";
      return false;
    } else if (Arg == "--version") {
      Err = "version";
      return false;
    } else if (Arg.rfind("--socket=", 0) == 0) {
      Opts.SocketPath = Arg.substr(strlen("--socket="));
      if (Opts.SocketPath.empty()) {
        Err = "--socket= needs a path";
        return false;
      }
    } else if (Arg.rfind("--connect=", 0) == 0) {
      Opts.ConnectPath = Arg.substr(strlen("--connect="));
      if (Opts.ConnectPath.empty()) {
        Err = "--connect= needs a path";
        return false;
      }
    } else if (cli::countFlag(Arg, "--workers", Opts.Serve.Workers, Err,
                              /*Positive=*/true) ||
               cli::countFlag(Arg, "--queue-depth", Opts.Serve.QueueDepth,
                              Err, /*Positive=*/true) ||
               cli::countFlag(Arg, "--max-request-bytes",
                              Opts.Serve.MaxRequestBytes, Err) ||
               cli::countFlag(Arg, "--deadline-ms",
                              Opts.Serve.RequestDeadlineMs, Err) ||
               cli::countFlag(Arg, "--tenant-quota", Opts.Serve.TenantQuota,
                              Err, /*Positive=*/true) ||
               cli::engineFlag(Arg, Opts.Serve.Engine, Err) ||
               cli::budgetFlag(Arg, Opts.Serve.Budget, Err,
                               /*WithDeadline=*/false)) {
      if (!Err.empty())
        return false;
    } else {
      Err = "unknown option '" + Arg + "'";
      return false;
    }
  }
  if (!Opts.SocketPath.empty() && !Opts.ConnectPath.empty()) {
    Err = "--socket and --connect are mutually exclusive";
    return false;
  }
  // The deadline is counted in nanoseconds.
  if (Opts.Serve.RequestDeadlineMs >
      std::numeric_limits<uint64_t>::max() / 1000000ull) {
    Err = "--deadline-ms is out of range";
    return false;
  }
  return true;
}

/// One client connection's write side, shared with in-flight responses.
/// Closed is flipped (and the fd closed) under the mutex, so a late
/// response after disconnect is skipped instead of writing into a
/// recycled descriptor.
struct ConnectionSink {
  explicit ConnectionSink(int Fd) : Fd(Fd) {}
  std::mutex M;
  int Fd;
  bool Closed = false;

  void writeResponse(const std::string &Line) {
    std::lock_guard<std::mutex> L(M);
    if (Closed)
      return;
    // A failed write (peer vanished mid-response) is not fatal to the
    // daemon; the reader side will see the disconnect and clean up.
    net::writeLine(Fd, Line);
  }

  void close() {
    std::lock_guard<std::mutex> L(M);
    if (Closed)
      return;
    Closed = true;
    net::closeFd(Fd);
  }
};

/// Reads one connection (or stdio) until EOF/shutdown, submitting every
/// line. Returns when the stream ends.
void serveStream(AnalysisServer &Server, net::LineReader &Reader,
                 const std::shared_ptr<ConnectionSink> &Sink) {
  uint64_t Cap = Server.options().MaxRequestBytes;
  std::string Line;
  for (;;) {
    net::LineStatus S = Reader.readLine(Line, Cap);
    if (S == net::LineStatus::Eof || S == net::LineStatus::Error)
      return;
    if (S == net::LineStatus::TooLong) {
      // The reader drained the oversized line without buffering it;
      // refuse it here -- submit() never sees the payload.
      Sink->writeResponse(errorResponse(
          json::Value(), ErrorCode::PayloadTooLarge,
          "request line exceeds the " + std::to_string(Cap) + " byte cap"));
      continue;
    }
    Server.submit(Line, [Sink](std::string Response) {
      Sink->writeResponse(Response);
    });
    if (Server.shutdownRequested())
      return;
  }
}

int runStdio(const CliOptions &Opts) {
  net::ignoreSigpipe();
  AnalysisServer Server(Opts.Serve);
  auto Sink = std::make_shared<ConnectionSink>(1 /* stdout */);
  net::LineReader Reader(0 /* stdin */);
  serveStream(Server, Reader, Sink);
  // Answer everything in flight before exiting; responses drained here
  // keep the one-response-per-line contract even at abrupt EOF.
  Server.drain();
  return 0;
}

int runSocket(const CliOptions &Opts) {
  net::ignoreSigpipe();
  net::UnixListener Listener;
  std::string Error;
  if (!Listener.listen(Opts.SocketPath, Error)) {
    std::cerr << "ardf-serve: error: " << Error << "\n";
    return 2;
  }
  std::cerr << "ardf-serve: listening on " << Opts.SocketPath << "\n";

  AnalysisServer Server(Opts.Serve);

  // A shutdown request arrives on some connection; this watcher shuts
  // the listener down so the accept loop unblocks. This thread closes it.
  std::atomic<bool> Stop{false};
  std::thread ShutdownWatcher([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      if (Server.shutdownRequested()) {
        Listener.shutdown();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  });

  // One noexcept thread per connection, joined when its std::async future
  // is destroyed. Each accept drops the connections that have ended, so
  // a closed connection's stack does not stay mapped until shutdown.
  std::vector<std::future<void>> Connections;
  for (;;) {
    int Fd = Listener.accept();
    if (Fd < 0)
      break; // shut down by the watcher (or a fatal accept error)
    std::erase_if(Connections, [](const std::future<void> &F) {
      return F.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    Connections.push_back(
        std::async(std::launch::async, [&Server, Fd]() noexcept {
          auto Sink = std::make_shared<ConnectionSink>(Fd);
          net::LineReader Reader(Fd);
          serveStream(Server, Reader, Sink);
          Sink->close();
        }));
  }
  Stop.store(true, std::memory_order_relaxed);
  ShutdownWatcher.join();
  Listener.close();
  Connections.clear(); // joins the remaining connection threads
  Server.drain();
  return 0;
}

int runClient(const CliOptions &Opts) {
  net::ignoreSigpipe();
  std::string Error;
  int Fd = net::connectUnix(Opts.ConnectPath, Error);
  if (Fd < 0) {
    std::cerr << "ardf-serve: error: " << Error << "\n";
    return 2;
  }
  net::LineReader In(0 /* stdin */), Peer(Fd);
  std::string Line, Response;
  int Code = 0;
  for (;;) {
    net::LineStatus S = In.readLine(Line);
    if (S != net::LineStatus::Ok)
      break;
    if (!net::writeLine(Fd, Line, &Error)) {
      std::cerr << "ardf-serve: error: send failed: " << Error << "\n";
      Code = 2;
      break;
    }
    net::LineStatus R = Peer.readLine(Response);
    if (R != net::LineStatus::Ok) {
      std::cerr << "ardf-serve: error: daemon closed the connection\n";
      Code = 2;
      break;
    }
    std::cout << Response << "\n" << std::flush;
  }
  net::closeFd(Fd);
  return Code;
}

} // namespace

int main(int Argc, char **Argv) {
  CliOptions Opts;
  std::string Err;
  if (!parseArgs(Argc, Argv, Opts, Err)) {
    if (Err == "help")
      return usage(std::cout, 0);
    if (Err == "version") {
      std::cout << toolVersionLine("ardf-serve") << "\n";
      return 0;
    }
    std::cerr << "ardf-serve: error: " << Err << "\n\n";
    return usage(std::cerr, 2);
  }
  if (!Opts.ConnectPath.empty())
    return runClient(Opts);
  if (!Opts.SocketPath.empty())
    return runSocket(Opts);
  return runStdio(Opts);
}
