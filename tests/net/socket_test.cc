// Socket + Listener + frame transport over a real loopback connection:
// ephemeral ports, exact-count I/O, send_frame/recv_frame_ex round trips,
// clean failure on EOF and on unreachable peers, and the IoStatus /
// RecvStatus taxonomy: a timeout (slow peer, retryable at a boundary) must
// never be conflated with a close or a desynchronized stream.
#include "net/socket.h"

#include <sys/socket.h>

#include <chrono>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "net/frame.h"

namespace nnr::net {
namespace {

/// A connected loopback (client, server_side) pair.
struct SocketPair {
  Socket client;
  Socket server;
};

SocketPair make_pair_on_loopback(int io_timeout_ms) {
  Listener listener;
  EXPECT_TRUE(listener.listen_on("127.0.0.1", 0));
  SocketPair pair;
  pair.client = connect_tcp("127.0.0.1", listener.port(), 1000, io_timeout_ms);
  EXPECT_TRUE(pair.client.valid());
  for (int i = 0; i < 100 && !pair.server.valid(); ++i) {
    pair.server = listener.accept_conn();
    if (!pair.server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(pair.server.valid());
  return pair;
}

TEST(SocketTest, EphemeralListenerReportsItsPort) {
  Listener listener;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
  EXPECT_GT(listener.port(), 0);
}

TEST(SocketTest, ConnectToClosedPortFailsFast) {
  // Bind then immediately drop a listener to obtain a port that is closed.
  std::uint16_t dead_port = 0;
  {
    Listener listener;
    ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
    dead_port = listener.port();
  }
  Socket sock = connect_tcp("127.0.0.1", dead_port, /*connect_timeout_ms=*/500,
                            /*io_timeout_ms=*/500);
  EXPECT_FALSE(sock.valid());
}

TEST(SocketTest, FramesRoundTripOverLoopback) {
  Listener listener;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));

  // Echo server: one connection, echo every frame with opcode + 1.
  std::thread server([&listener] {
    Socket conn;
    for (int i = 0; i < 100 && !conn.valid(); ++i) {
      conn = listener.accept_conn();
      if (!conn.valid()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    ASSERT_TRUE(conn.valid());
    for (;;) {
      const RecvFrameResult got = recv_frame_ex(conn);
      if (got.status != RecvStatus::kFrame) return;  // client closed
      ASSERT_TRUE(send_frame(conn, got.frame.opcode + 1, got.frame.body));
    }
  });

  Socket client = connect_tcp("127.0.0.1", listener.port(), 1000, 1000);
  ASSERT_TRUE(client.valid());
  for (int i = 0; i < 3; ++i) {
    const std::string body = "message " + std::to_string(i) +
                             std::string(1000 * i, '\xAB');
    ASSERT_TRUE(send_frame(client, static_cast<std::uint8_t>(10 + i), body));
    const RecvFrameResult echoed = recv_frame_ex(client);
    ASSERT_EQ(echoed.status, RecvStatus::kFrame);
    EXPECT_EQ(echoed.frame.opcode, 11 + i);
    EXPECT_EQ(echoed.frame.body, body);
  }
  client.close();
  server.join();
}

TEST(SocketTest, RecvFrameReportsClosedOnEof) {
  Listener listener;
  ASSERT_TRUE(listener.listen_on("127.0.0.1", 0));
  Socket client = connect_tcp("127.0.0.1", listener.port(), 1000, 1000);
  ASSERT_TRUE(client.valid());
  Socket server_side;
  for (int i = 0; i < 100 && !server_side.valid(); ++i) {
    server_side = listener.accept_conn();
    if (!server_side.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_TRUE(server_side.valid());
  client.close();
  EXPECT_EQ(recv_frame_ex(server_side).status, RecvStatus::kClosed);
}

TEST(SocketTest, RecvExactTimeoutOnSilentPeerIsCleanBoundary) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/100);
  char buf[8];
  std::size_t got = 99;
  EXPECT_EQ(pair.client.recv_exact(buf, sizeof(buf), &got),
            IoStatus::kTimeout)
      << "a silent-but-open peer is a timeout, not a close";
  EXPECT_EQ(got, 0u) << "boundary timeout: nothing consumed, safe to retry";
}

TEST(SocketTest, RecvExactPeerCloseIsClosedNotTimeout) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/1000);
  pair.server.close();
  char buf[8];
  std::size_t got = 99;
  EXPECT_EQ(pair.client.recv_exact(buf, sizeof(buf), &got), IoStatus::kClosed);
  EXPECT_EQ(got, 0u);
}

TEST(SocketTest, RecvExactMidMessageTimeoutReportsPartialBytes) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/200);
  ASSERT_EQ(pair.server.send_all("abc", 3), IoStatus::kOk);
  char buf[8];
  std::size_t got = 0;
  EXPECT_EQ(pair.client.recv_exact(buf, sizeof(buf), &got),
            IoStatus::kTimeout);
  EXPECT_EQ(got, 3u) << "a mid-message timeout must expose the partial read "
                        "so the caller can treat the stream as desynced";
  EXPECT_EQ(std::memcmp(buf, "abc", 3), 0);
}

TEST(SocketTest, RecvExactEofMidMessageIsClosed) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/1000);
  ASSERT_EQ(pair.server.send_all("abc", 3), IoStatus::kOk);
  pair.server.close();
  char buf[8];
  std::size_t got = 0;
  EXPECT_EQ(pair.client.recv_exact(buf, sizeof(buf), &got), IoStatus::kClosed);
  EXPECT_EQ(got, 3u);
}

TEST(SocketTest, SendAllToClosedPeerIsClosedNotGenericError) {
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/1000);
  pair.server.close();
  // The first send after the FIN may still land in the kernel buffer (and
  // draws the peer's RST); keep sending until the failure surfaces.
  std::string chunk(64 * 1024, 'x');
  IoStatus status = IoStatus::kOk;
  for (int i = 0; i < 100 && status == IoStatus::kOk; ++i) {
    status = pair.client.send_all(chunk.data(), chunk.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(status, IoStatus::kClosed)
      << "EPIPE/ECONNRESET must map to kClosed, not a generic failure";
}

TEST(SocketTest, SendAllMidFrameShortWriteReportsPartialBytes) {
  // Force the short write: shrink the client's send buffer, never read on
  // the peer, and push far more than the kernel can queue. SO_SNDTIMEO
  // then expires mid-send — the caller must learn exactly how many bytes
  // the kernel accepted, because a partially written frame has
  // desynchronized the stream and must NOT be retried on this connection.
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/200);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof(tiny)),
            0);
  const std::string blob(8 * 1024 * 1024, '\x42');
  std::size_t sent = 0;
  const IoStatus status = pair.client.send_all(blob.data(), blob.size(), &sent);
  EXPECT_EQ(status, IoStatus::kTimeout)
      << "a full send buffer on a blocking socket is SO_SNDTIMEO -> kTimeout";
  EXPECT_GT(sent, 0u) << "some bytes were accepted before the stall";
  EXPECT_LT(sent, blob.size()) << "but not all — this is the desync case";
}

TEST(SocketTest, SendFrameFailsOnShortWriteAndDesyncsTheStream) {
  // The frame layer's contract: any send_all failure (even kTimeout) is
  // terminal for the connection. send_frame must report false, and the
  // bytes already on the wire must not parse as a clean frame.
  SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/200);
  const int tiny = 4096;
  ASSERT_EQ(::setsockopt(pair.client.fd(), SOL_SOCKET, SO_SNDBUF, &tiny,
                         sizeof(tiny)),
            0);
  const std::string body(8 * 1024 * 1024, '\x5A');
  EXPECT_FALSE(send_frame(pair.client, /*opcode=*/7, body));
  // The receiver sees a truncated frame: the length prefix arrived but the
  // payload can never complete — kError (desync), never a clean frame and
  // never the retryable boundary timeout. (accept_conn sockets have no
  // timeout by default; bound the wait so the desync surfaces.)
  pair.server.set_io_timeout_ms(300);
  EXPECT_EQ(recv_frame_ex(pair.server).status, RecvStatus::kError);
}

TEST(SocketTest, RecvFrameExDistinguishesTimeoutFromCloseAndDesync) {
  {  // Silent peer: clean boundary timeout — the caller may re-await.
    SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/100);
    EXPECT_EQ(recv_frame_ex(pair.client).status, RecvStatus::kTimeout);
  }
  {  // Orderly close at a boundary.
    SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/1000);
    pair.server.close();
    EXPECT_EQ(recv_frame_ex(pair.client).status, RecvStatus::kClosed);
  }
  {  // A timeout striking mid-frame has desynchronized the stream: kError,
     // never the retryable kTimeout.
    SocketPair pair = make_pair_on_loopback(/*io_timeout_ms=*/100);
    ASSERT_EQ(pair.server.send_all("\x02", 1), IoStatus::kOk);
    EXPECT_EQ(recv_frame_ex(pair.client).status, RecvStatus::kError);
  }
}

}  // namespace
}  // namespace nnr::net
