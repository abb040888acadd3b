// Wire protocol framing and parsing, plus the Unix-socket transport the
// daemon and client share.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <filesystem>
#include <string>
#include <thread>

#include "service/protocol.h"
#include "support/temp_dir.h"
#include "util/crc32.h"
#include "util/socket.h"

namespace goofi::service {
namespace {

namespace fs = std::filesystem;

TEST(ProtocolTest, ParsesVerbsIdsAndBodies) {
  auto ping = ParseRequest("ping");
  ASSERT_TRUE(ping.ok());
  EXPECT_EQ(ping->verb, "ping");
  EXPECT_FALSE(ping->has_id);

  auto submit = ParseRequest("submit\n[campaign]\nname = x\n");
  ASSERT_TRUE(submit.ok());
  EXPECT_EQ(submit->verb, "submit");
  EXPECT_EQ(submit->body, "[campaign]\nname = x\n");

  auto watch = ParseRequest("watch 42");
  ASSERT_TRUE(watch.ok());
  EXPECT_TRUE(watch->has_id);
  EXPECT_EQ(watch->id, 42u);

  auto bare_status = ParseRequest("status");
  ASSERT_TRUE(bare_status.ok());
  EXPECT_FALSE(bare_status->has_id);

  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("cancel banana").ok());
}

TEST(ProtocolTest, ResponsesRoundTripStatusCodes) {
  EXPECT_EQ(FormatOk(), "ok");
  EXPECT_EQ(FormatOk("id 7"), "ok id 7");
  auto ok = ParseResponse("ok id 7");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, "id 7");
  ASSERT_TRUE(ParseResponse("ok").ok());

  // The error codes the daemon actually emits survive the wire,
  // QUEUE_FULL above all — clients script against it for backpressure.
  const Status queue_full = QueueFullError("queue is full");
  auto parsed = ParseResponse(FormatError(queue_full));
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), ErrorCode::kQueueFull);
  EXPECT_EQ(parsed.status().message(), "queue is full");

  auto not_found = ParseResponse(FormatError(NotFoundError("no 9")));
  EXPECT_EQ(not_found.status().code(), ErrorCode::kNotFound);

  EXPECT_FALSE(ParseResponse("gibberish").ok());
}

TEST(SocketTest, FramesRoundTripAndEofIsClean) {
  const std::string path =
      (TestTempRoot() / "goofi_protocol_test.sock").string();
  auto listener = UnixSocket::Listen(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  std::thread server([&listener] {
    auto connection = listener->Accept();
    ASSERT_TRUE(connection.ok());
    for (;;) {
      auto frame = connection->RecvFrame();
      if (!frame.ok()) break;  // client closed
      ASSERT_TRUE(connection->SendFrame("echo:" + *frame).ok());
    }
  });

  auto client = UnixSocket::Connect(path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  // Small frame, empty frame, and a frame bigger than one pipe buffer.
  for (const std::string& payload :
       {std::string("ping"), std::string(),
        std::string(256 * 1024, '\x7f') + std::string("\0tail", 5)}) {
    ASSERT_TRUE(client->SendFrame(payload).ok());
    auto reply = client->RecvFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(*reply, "echo:" + payload);
  }
  client->Close();
  server.join();

  // A second client connecting after the first closed still works —
  // the listener survives its clients.
  auto again = UnixSocket::Connect(path);
  ASSERT_TRUE(again.ok());
  std::thread server2([&listener] {
    auto connection = listener->Accept();
    ASSERT_TRUE(connection.ok());
    // Consume the request, then close without replying: the client
    // sees clean EOF. (Closing with the frame unread would be a
    // connection reset — kIo — not EOF.)
    ASSERT_TRUE(connection->RecvFrame().ok());
  });
  ASSERT_TRUE(again->SendFrame("hello").ok());
  server2.join();
  auto eof = again->RecvFrame();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), ErrorCode::kNotFound);  // clean EOF
  fs::remove(path);
}

TEST(SocketTest, CorruptedFrameFailsItsCrc) {
  const std::string path = (TestTempRoot() / "goofi_crc_test.sock").string();
  auto listener = UnixSocket::Listen(path);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();

  Result<std::string> received = NotFoundError("never received");
  std::thread server([&listener, &received] {
    auto connection = listener->Accept();
    ASSERT_TRUE(connection.ok());
    received = connection->RecvFrame();
  });

  auto client = UnixSocket::Connect(path);
  ASSERT_TRUE(client.ok());
  // Hand-build a frame whose length prefix is right but whose payload
  // was flipped after the CRC was computed — a desynchronized or
  // corrupted stream must surface as kDataLoss, not parse as a verb.
  const std::string payload = "cancel 1";
  std::string corrupted = payload;
  corrupted[0] ^= 0x20;
  std::string wire;
  const auto length = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = Crc32(payload);
  for (const std::uint32_t word : {length, crc}) {
    wire.push_back(static_cast<char>(word & 0xff));
    wire.push_back(static_cast<char>((word >> 8) & 0xff));
    wire.push_back(static_cast<char>((word >> 16) & 0xff));
    wire.push_back(static_cast<char>((word >> 24) & 0xff));
  }
  wire += corrupted;
  ASSERT_EQ(::send(client->fd(), wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));
  server.join();
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), ErrorCode::kDataLoss);

  // An intact frame on a fresh connection still round-trips.
  auto again = UnixSocket::Connect(path);
  ASSERT_TRUE(again.ok());
  std::thread server2([&listener] {
    auto connection = listener->Accept();
    ASSERT_TRUE(connection.ok());
    auto frame = connection->RecvFrame();
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(*frame, "cancel 1");
  });
  ASSERT_TRUE(again->SendFrame("cancel 1").ok());
  server2.join();
  fs::remove(path);
}

}  // namespace
}  // namespace goofi::service
