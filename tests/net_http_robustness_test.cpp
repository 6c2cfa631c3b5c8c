// Malformed-HTTP robustness: a real HttpServer + HttpStreamSession behind
// TcpTransport, attacked from raw sockets. Oversized request lines, torn
// headers, premature FIN, slow-loris stalls, and binary garbage must all
// end in a counted parse error / idle eviction and a closed connection —
// never a hang or unbounded buffering. Well-formed pipelined requests
// must still be answered in order.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "net/tcp.h"
#include "obs/metrics.h"
#include "websvc/stream.h"

namespace amnesia::websvc {
namespace {

class RobustnessFixture : public ::testing::Test {
 protected:
  RobustnessFixture() : server_(loop_, 4), transport_(loop_, "127.0.0.1", 0) {
    server_.set_metrics(&registry_);
    transport_.set_metrics(&registry_);
    server_.router().add(Method::kGet, "/ping",
                         [](const Request&, const PathParams&,
                            Responder respond) {
                           respond(Response::ok_text("pong"));
                         });
    transport_.listen([this](net::StreamPtr stream) {
      HttpStreamSession::attach(std::move(stream), server_);
    });
  }

  /// Raw non-blocking loopback client; the kernel backlog completes the
  /// handshake before the loop ever polls.
  int raw_connect() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(transport_.local_port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    EXPECT_EQ(::fcntl(fd, F_SETFL, O_NONBLOCK), 0);
    return fd;
  }

  void send_all(int fd, const std::string& data) {
    std::size_t off = 0;
    while (off < data.size()) {
      const ssize_t n =
          ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else {
        ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
            << std::strerror(errno);
        loop_.poll(5'000);
      }
    }
  }

  /// Pumps the loop while draining the socket; returns everything read
  /// until EOF/reset or until `budget_us` elapses.
  std::string drain(int fd, Micros budget_us, bool* saw_eof = nullptr) {
    std::string out;
    const Micros deadline = loop_.clock().now_us() + budget_us;
    char buf[4096];
    while (loop_.clock().now_us() < deadline) {
      loop_.poll(5'000);
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n > 0) {
        out.append(buf, static_cast<std::size_t>(n));
      } else if (n == 0 || (n < 0 && errno == ECONNRESET)) {
        if (saw_eof) *saw_eof = true;
        break;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        ADD_FAILURE() << std::strerror(errno);
        break;
      }
    }
    return out;
  }

  std::uint64_t parse_errors() const {
    return server_.stats().parse_errors;
  }

  net::EventLoop loop_;
  obs::MetricsRegistry registry_;
  HttpServer server_;
  net::TcpTransport transport_;
};

TEST_F(RobustnessFixture, OversizedRequestLineIsRejected) {
  const int fd = raw_connect();
  // 16 KiB of request line with no CRLF: crosses max_start_line (8 KiB)
  // long before a request could complete.
  send_all(fd, "GET /" + std::string(16 * 1024, 'a'));
  bool eof = false;
  const std::string reply = drain(fd, 5'000'000, &eof);
  EXPECT_NE(reply.find("400"), std::string::npos) << reply.substr(0, 80);
  EXPECT_TRUE(eof) << "connection must be closed after the 400";
  EXPECT_EQ(parse_errors(), 1u);
  EXPECT_EQ(registry_.counter("http.parse_errors").value(), 1u);
  ::close(fd);
}

TEST_F(RobustnessFixture, TornHeadersStillParse) {
  const int fd = raw_connect();
  // One valid request dribbled in 7 fragments, split mid-token and
  // mid-CRLF.
  for (const char* piece : {"GE", "T /pi", "ng HT", "TP/1.1\r", "\nHost: x\r\n",
                            "Content-Length: 0\r\n", "\r\n"}) {
    send_all(fd, piece);
    loop_.poll(2'000);
  }
  const std::string reply = drain(fd, 5'000'000);
  EXPECT_NE(reply.find("200"), std::string::npos) << reply.substr(0, 80);
  EXPECT_NE(reply.find("pong"), std::string::npos);
  EXPECT_EQ(parse_errors(), 0u);
  ::close(fd);
}

TEST_F(RobustnessFixture, PrematureFinCountsTruncatedRequest) {
  const int fd = raw_connect();
  send_all(fd, "GET /ping HTTP/1.1\r\nHost: half");  // FIN mid-header
  // Let the bytes land before the FIN.
  const Micros settle = loop_.clock().now_us() + 100'000;
  while (loop_.clock().now_us() < settle) loop_.poll(5'000);
  ::close(fd);
  const Micros deadline = loop_.clock().now_us() + 5'000'000;
  while (parse_errors() == 0) {
    ASSERT_LT(loop_.clock().now_us(), deadline) << "truncation never counted";
    loop_.poll(5'000);
  }
  EXPECT_EQ(parse_errors(), 1u);
}

TEST_F(RobustnessFixture, SlowLorisIsEvictedByIdleTimeout) {
  transport_.set_idle_timeout(80'000);  // applies to the next accept
  const int fd = raw_connect();
  send_all(fd, "GET /ping HT");  // then stall forever
  bool eof = false;
  const Micros t0 = loop_.clock().now_us();
  drain(fd, 10'000'000, &eof);
  EXPECT_TRUE(eof) << "slow-loris connection was never evicted";
  EXPECT_GE(loop_.clock().now_us() - t0, 60'000);
  EXPECT_EQ(registry_.counter("net.idle_timeouts").value(), 1u);
  // Eviction also abandons a half-received request: counted as truncated.
  EXPECT_EQ(parse_errors(), 1u);
  ::close(fd);
}

TEST_F(RobustnessFixture, BinaryGarbageIsRejectedWithoutHanging) {
  const int fd = raw_connect();
  // No CR/LF ever appears in this byte pattern, so the "request
  // line" grows until it crosses max_start_line (8 KiB) and must be
  // rejected rather than buffered forever.
  std::string garbage(40 * 1024, '\0');
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = static_cast<char>((i * 131) & 0xff);
  }
  send_all(fd, garbage);
  bool eof = false;
  drain(fd, 5'000'000, &eof);
  EXPECT_TRUE(eof);
  EXPECT_GE(parse_errors(), 1u);
  ::close(fd);
}

TEST_F(RobustnessFixture, PipelinedRequestsAnswerInOrder) {
  const int fd = raw_connect();
  // Three requests in one segment; responses must come back in order on
  // the same connection.
  const std::string req = "GET /ping HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
  send_all(fd, req + req + req);
  std::string replies;
  const Micros deadline = loop_.clock().now_us() + 5'000'000;
  std::size_t pongs = 0;
  while (pongs < 3) {
    ASSERT_LT(loop_.clock().now_us(), deadline) << "pipelined replies stalled";
    replies += drain(fd, 50'000);
    pongs = 0;
    for (std::size_t at = 0;
         (at = replies.find("pong", at)) != std::string::npos; ++at) {
      ++pongs;
    }
  }
  EXPECT_EQ(pongs, 3u);
  EXPECT_EQ(server_.stats().requests, 3u);
  EXPECT_EQ(server_.stats().responses_2xx, 3u);
  EXPECT_EQ(parse_errors(), 0u);
  ::close(fd);
}

}  // namespace
}  // namespace amnesia::websvc
