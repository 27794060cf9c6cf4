//===- support/Socket.h - Unix-socket and line-IO helpers ------*- C++ -*-===//
//
// Part of ardf, a reproduction of Duesterwald, Gupta & Soffa, PLDI 1993.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal Unix-domain socket plumbing for the analysis daemon: a
/// listener that owns (and unlinks) its socket path, a client connector,
/// and newline-delimited line IO over raw file descriptors. The line
/// reader enforces a byte cap *while reading*: an over-long line is
/// consumed up to its newline and reported as TooLong, so one oversized
/// request costs bounded memory and the connection stays usable -- the
/// admission-control half of the daemon's robustness envelope lives
/// here.
///
/// All writes use MSG_NOSIGNAL (with a process-wide SIGPIPE ignore as
/// belt-and-braces for pipes), so a client that disconnects mid-response
/// surfaces as a write error on that connection, never a fatal signal.
///
//===----------------------------------------------------------------------===//

#ifndef ARDF_SUPPORT_SOCKET_H
#define ARDF_SUPPORT_SOCKET_H

#include <cstdint>
#include <string>
#include <string_view>

namespace ardf {
namespace net {

/// Makes SIGPIPE harmless for the process (idempotent). Every daemon
/// entry point calls this before serving; writeLine additionally sends
/// with MSG_NOSIGNAL.
void ignoreSigpipe();

/// Outcome of LineReader::readLine.
enum class LineStatus : uint8_t {
  Ok,      ///< one line delivered (newline stripped)
  TooLong, ///< line exceeded the cap; drained to its newline and dropped
  Eof,     ///< orderly end of stream (no partial line pending)
  Error,   ///< read failed; errno text in the reader's error()
};

/// Buffered newline-delimited reader over a file descriptor (socket,
/// pipe, or stdin). Not thread-safe; one reader per connection.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}

  /// Reads the next line into \p Line (newline stripped; a final
  /// unterminated line is delivered at EOF). Lines longer than
  /// \p MaxBytes (0 = uncapped) are discarded as they stream in and
  /// reported TooLong -- the reader never buffers more than MaxBytes
  /// plus one read chunk.
  LineStatus readLine(std::string &Line, uint64_t MaxBytes = 0);

  /// The errno text of the last Error outcome.
  const std::string &error() const { return Err; }

private:
  int Fd;
  std::string Buf;
  size_t Pos = 0;
  bool SawEof = false;
  std::string Err;
};

/// Writes \p Line plus a trailing newline atomically-enough for NDJSON
/// (one full write loop; callers serialize per connection). Returns
/// false on a write error (e.g. the peer disconnected mid-response),
/// with the errno text in \p Error if non-null.
bool writeLine(int Fd, std::string_view Line, std::string *Error = nullptr);

/// A listening Unix-domain socket bound to a filesystem path. The path
/// is unlinked on close, and a stale path from a dead prior daemon is
/// unlinked before bind.
class UnixListener {
public:
  UnixListener() = default;
  ~UnixListener() { close(); }
  UnixListener(const UnixListener &) = delete;
  UnixListener &operator=(const UnixListener &) = delete;

  /// Binds and listens on \p Path. Returns false with the reason in
  /// \p Error (errno text included) on failure.
  bool listen(const std::string &Path, std::string &Error, int Backlog = 16);

  /// Accepts one connection; returns the connection fd, or -1 on error
  /// (including shutdown() from another thread, the shutdown path).
  int accept();

  /// Shuts the listening socket down without closing it, which makes a
  /// blocked or later accept() return -1. The one member safe to call
  /// from another thread: it leaves the descriptor unchanged, so it
  /// never races with accept(). The owner closes the listener after its
  /// accept loop ends.
  void shutdown();

  /// Closes the listening socket and unlinks the path. Only the thread
  /// that accepts may call it.
  void close();

  bool listening() const { return Fd >= 0; }
  const std::string &path() const { return Path; }

private:
  int Fd = -1;
  std::string Path;
};

/// Connects to the Unix-domain socket at \p Path; returns the fd, or -1
/// with the errno text in \p Error.
int connectUnix(const std::string &Path, std::string &Error);

/// Closes a connection fd from connectUnix/UnixListener::accept.
void closeFd(int Fd);

} // namespace net
} // namespace ardf

#endif // ARDF_SUPPORT_SOCKET_H
