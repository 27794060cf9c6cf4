//===- support/Socket.cpp - Unix-socket and line-IO helpers ---------------===//

#include "support/Socket.h"

#include "support/FileIO.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace ardf;
using namespace ardf::net;

void net::ignoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }

LineStatus LineReader::readLine(std::string &Line, uint64_t MaxBytes) {
  Line.clear();
  bool Overflow = false;
  for (;;) {
    // Scan what is buffered for a newline.
    size_t Nl = Buf.find('\n', Pos);
    if (Nl != std::string::npos) {
      if (!Overflow)
        Line.assign(Buf, Pos, Nl - Pos);
      Pos = Nl + 1;
      // Compact once the consumed prefix dominates the buffer.
      if (Pos > 4096 && Pos * 2 > Buf.size()) {
        Buf.erase(0, Pos);
        Pos = 0;
      }
      if (Overflow || (MaxBytes != 0 && Line.size() > MaxBytes)) {
        Line.clear();
        return LineStatus::TooLong;
      }
      return LineStatus::Ok;
    }
    // No newline buffered. Enforce the cap before reading more: drop
    // the partial line and switch to drain mode until its newline.
    if (!Overflow && MaxBytes != 0 && Buf.size() - Pos > MaxBytes) {
      Overflow = true;
      Buf.clear();
      Pos = 0;
    }
    if (SawEof) {
      if (Overflow)
        return LineStatus::TooLong;
      if (Pos < Buf.size()) {
        // Final unterminated line.
        Line.assign(Buf, Pos, Buf.size() - Pos);
        Pos = Buf.size();
        if (MaxBytes != 0 && Line.size() > MaxBytes) {
          Line.clear();
          return LineStatus::TooLong;
        }
        return LineStatus::Ok;
      }
      return LineStatus::Eof;
    }
    char Chunk[4096];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = io::errnoText(errno);
      return LineStatus::Error;
    }
    if (N == 0) {
      SawEof = true;
      continue;
    }
    if (Overflow) {
      // Drain mode: only look for the newline, never buffer the body.
      const char *NlPtr = static_cast<const char *>(
          memchr(Chunk, '\n', static_cast<size_t>(N)));
      if (NlPtr) {
        size_t After =
            static_cast<size_t>(N) - static_cast<size_t>(NlPtr - Chunk) - 1;
        Buf.assign(NlPtr + 1, After);
        Pos = 0;
        return LineStatus::TooLong;
      }
      continue;
    }
    Buf.append(Chunk, static_cast<size_t>(N));
  }
}

bool net::writeLine(int Fd, std::string_view Line, std::string *Error) {
  std::string Out;
  Out.reserve(Line.size() + 1);
  Out.append(Line);
  Out.push_back('\n');
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t N = ::send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (N < 0 && errno == ENOTSOCK)
      N = ::write(Fd, Out.data() + Off, Out.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (Error)
        *Error = io::errnoText(errno);
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

bool UnixListener::listen(const std::string &SocketPath, std::string &Error,
                          int Backlog) {
  close();
  sockaddr_un Addr;
  if (SocketPath.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: '" + SocketPath + "'";
    return false;
  }
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    Error = "socket: " + io::errnoText(errno);
    return false;
  }
  // A stale socket file from a crashed daemon would make bind fail with
  // EADDRINUSE even though nothing is listening; remove it first.
  ::unlink(SocketPath.c_str());
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size());
  if (::bind(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = "bind '" + SocketPath + "': " + io::errnoText(errno);
    ::close(S);
    return false;
  }
  if (::listen(S, Backlog) < 0) {
    Error = "listen '" + SocketPath + "': " + io::errnoText(errno);
    ::close(S);
    ::unlink(SocketPath.c_str());
    return false;
  }
  Fd = S;
  Path = SocketPath;
  return true;
}

int UnixListener::accept() {
  if (Fd < 0)
    return -1;
  for (;;) {
    int C = ::accept(Fd, nullptr, nullptr);
    if (C >= 0)
      return C;
    if (errno == EINTR)
      continue;
    return -1;
  }
}

void UnixListener::shutdown() {
  // Breaks a blocked accept() in another thread; close alone is not
  // guaranteed to on all kernels.
  if (Fd >= 0)
    ::shutdown(Fd, SHUT_RDWR);
}

void UnixListener::close() {
  if (Fd < 0)
    return;
  ::close(Fd);
  Fd = -1;
  if (!Path.empty()) {
    ::unlink(Path.c_str());
    Path.clear();
  }
}

int net::connectUnix(const std::string &Path, std::string &Error) {
  sockaddr_un Addr;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    Error = "socket path too long: '" + Path + "'";
    return -1;
  }
  int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (S < 0) {
    Error = "socket: " + io::errnoText(errno);
    return -1;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size());
  if (::connect(S, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error = "connect '" + Path + "': " + io::errnoText(errno);
    ::close(S);
    return -1;
  }
  return S;
}

void net::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}
