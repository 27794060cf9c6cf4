//===- tests/support/SocketTest.cpp - Unix-socket listener -----------------===//

#include "support/Socket.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <string>
#include <thread>

#include <unistd.h>

using namespace ardf;

TEST(SocketTest, ShutdownFromAnotherThreadEndsABlockedAccept) {
  char Dir[] = "/tmp/ardf-socket-test-XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  const std::string Path = std::string(Dir) + "/s.sock";
  net::UnixListener Listener;
  std::string Error;
  ASSERT_TRUE(Listener.listen(Path, Error)) << Error;

  // accept() blocks in one thread until shutdown() from this one; the
  // descriptor stays open (and the path bound) until the owner closes.
  std::future<int> Accepted =
      std::async(std::launch::async, [&] { return Listener.accept(); });
  EXPECT_EQ(Accepted.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  Listener.shutdown();
  ASSERT_EQ(Accepted.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_EQ(Accepted.get(), -1);
  EXPECT_TRUE(Listener.listening());
  EXPECT_EQ(Listener.accept(), -1);

  Listener.close();
  EXPECT_FALSE(Listener.listening());
  EXPECT_NE(access(Path.c_str(), F_OK), 0) << "close unlinks the path";
  rmdir(Dir);
}
