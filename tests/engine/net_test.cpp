// Unit coverage for the kRemote transport layer: endpoint parsing, the
// length-prefixed frame (round trip, clean EOF, malformed and oversized
// headers, truncation, deadlines) and the loopback listener plumbing the
// server and the tests build on.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "engine/net.hpp"

namespace cpsinw::engine::net {
namespace {

/// A connected AF_UNIX stream pair (frames do not care about the address
/// family; this keeps the tests free of port allocation).
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) close(a);
    if (b >= 0) close(b);
  }
};

TEST(NetEndpoint, ParsesHostColonPort) {
  const Endpoint ep = parse_endpoint("127.0.0.1:8080");
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 8080);

  const Endpoint named = parse_endpoint("localhost:65535");
  EXPECT_EQ(named.host, "localhost");
  EXPECT_EQ(named.port, 65535);
}

TEST(NetEndpoint, RejectsMalformedText) {
  for (const char* bad : {"", "localhost", "host:", ":123", "host:abc",
                          "host:0", "host:65536", "host:99999", "a:b:c",
                          "host:12x"}) {
    EXPECT_THROW((void)parse_endpoint(bad), std::invalid_argument)
        << "'" << bad << "' must be rejected";
  }
}

TEST(NetEndpoint, ListRejectsEmptyAndPropagatesEntries) {
  EXPECT_THROW((void)parse_endpoints({}), std::invalid_argument);
  EXPECT_THROW((void)parse_endpoints({"ok:1", "bad"}),
               std::invalid_argument);
  const std::vector<Endpoint> eps =
      parse_endpoints({"a:1", "b:2"});
  ASSERT_EQ(eps.size(), 2u);
  EXPECT_EQ(eps[1].host, "b");
  EXPECT_EQ(eps[1].port, 2);
}

TEST(NetFrame, RoundTripsPayloads) {
  SocketPair pair;
  const Deadline deadline = deadline_after(10.0);
  std::string error;
  // The large payload stays under the socketpair buffer: sender and
  // receiver share this thread, so a payload past the buffer would wedge.
  for (const std::string& payload :
       {std::string(""), std::string("{\"version\":1}"),
        std::string(1 << 15, 'x')}) {
    ASSERT_TRUE(send_frame(pair.a, payload, deadline, &error)) << error;
    std::string got;
    ASSERT_TRUE(
        recv_frame(pair.b, &got, deadline, kMaxFrameBytes, &error))
        << error;
    EXPECT_EQ(got, payload);
  }
}

TEST(NetFrame, BackToBackFramesStayDelimited) {
  SocketPair pair;
  const Deadline deadline = deadline_after(10.0);
  std::string error;
  ASSERT_TRUE(send_frame(pair.a, "first", deadline, &error));
  ASSERT_TRUE(send_frame(pair.a, "second", deadline, &error));
  std::string got;
  ASSERT_TRUE(recv_frame(pair.b, &got, deadline, kMaxFrameBytes, &error));
  EXPECT_EQ(got, "first");
  ASSERT_TRUE(recv_frame(pair.b, &got, deadline, kMaxFrameBytes, &error));
  EXPECT_EQ(got, "second");
}

TEST(NetFrame, CleanEofBetweenFramesLeavesTheErrorEmpty) {
  SocketPair pair;
  close(pair.a);
  pair.a = -1;
  std::string got;
  std::string error = "sentinel";
  EXPECT_FALSE(
      recv_frame(pair.b, &got, deadline_after(10.0), kMaxFrameBytes, &error));
  EXPECT_TRUE(error.empty()) << error;
}

TEST(NetFrame, GarbageHeaderIsRejected) {
  SocketPair pair;
  const std::string junk = "HTTP/1.1 200 OK\n";
  ASSERT_EQ(write(pair.a, junk.data(), junk.size()),
            static_cast<ssize_t>(junk.size()));
  std::string got;
  std::string error;
  EXPECT_FALSE(
      recv_frame(pair.b, &got, deadline_after(10.0), kMaxFrameBytes, &error));
  EXPECT_NE(error.find("bad frame header"), std::string::npos) << error;
}

TEST(NetFrame, OversizedDeclarationIsRejectedBeforeThePayload) {
  SocketPair pair;
  const std::string header =
      std::string(kFrameMagic) + " " + std::to_string(kMaxFrameBytes + 1) +
      "\n";
  ASSERT_EQ(write(pair.a, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  std::string got;
  std::string error;
  EXPECT_FALSE(
      recv_frame(pair.b, &got, deadline_after(10.0), kMaxFrameBytes, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(NetFrame, TruncatedPayloadIsAnError) {
  SocketPair pair;
  const std::string header = std::string(kFrameMagic) + " 100\n";
  const std::string partial = "only a few bytes";
  ASSERT_EQ(write(pair.a, header.data(), header.size()),
            static_cast<ssize_t>(header.size()));
  ASSERT_EQ(write(pair.a, partial.data(), partial.size()),
            static_cast<ssize_t>(partial.size()));
  close(pair.a);
  pair.a = -1;
  std::string got;
  std::string error;
  EXPECT_FALSE(
      recv_frame(pair.b, &got, deadline_after(10.0), kMaxFrameBytes, &error));
  EXPECT_NE(error.find("closed mid-frame"), std::string::npos) << error;
}

TEST(NetFrame, MissedDeadlineReportsTimeout) {
  SocketPair pair;
  std::string got;
  std::string error;
  EXPECT_FALSE(
      recv_frame(pair.b, &got, deadline_after(0.05), kMaxFrameBytes, &error));
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
}

TEST(NetListener, LoopbackRoundTrip) {
  std::string error;
  const int listener = listen_on_loopback(0, &error);
  ASSERT_GE(listener, 0) << error;
  const std::uint16_t port = local_port(listener);
  ASSERT_GT(port, 0);

  const Deadline deadline = deadline_after(10.0);
  const int client =
      connect_endpoint({"127.0.0.1", port}, deadline, &error);
  ASSERT_GE(client, 0) << error;
  const int server = accept_connection(listener, &error);
  ASSERT_GE(server, 0) << error;

  ASSERT_TRUE(send_frame(client, "ping", deadline, &error)) << error;
  std::string got;
  ASSERT_TRUE(recv_frame(server, &got, deadline, kMaxFrameBytes, &error))
      << error;
  EXPECT_EQ(got, "ping");

  close(client);
  close(server);
  close(listener);
}

TEST(NetListener, ConnectionToAClosedPortIsRefused) {
  std::string error;
  const int listener = listen_on_loopback(0, &error);
  ASSERT_GE(listener, 0) << error;
  const std::uint16_t port = local_port(listener);
  close(listener);  // nothing listens here anymore

  const int fd =
      connect_endpoint({"127.0.0.1", port}, deadline_after(5.0), &error);
  EXPECT_LT(fd, 0);
  EXPECT_NE(error.find("connect to 127.0.0.1:"), std::string::npos) << error;
}

}  // namespace
}  // namespace cpsinw::engine::net
