// HTTP over a ByteStream: incremental request framing + a per-connection
// session.
//
// handle_bytes() wants one complete serialized request; a real socket
// delivers arbitrary chunks — half a request line, three pipelined
// requests coalesced, a body split mid-byte. HttpStreamParser restores
// message boundaries incrementally (request line + headers up to
// "\r\n\r\n", then a Content-Length body) without re-scanning on every
// chunk, enforcing limits that bound a malicious peer's memory use:
// oversized request lines, unbounded header blocks, and oversized bodies
// all poison the parser instead of buffering forever.
//
// HttpStreamSession owns one connection's lifecycle: it feeds the parser,
// dispatches each complete request to the HttpServer, and flushes
// responses IN REQUEST ORDER even when handlers complete out of order
// (the Amnesia password route waits on a phone round-trip while a later
// pipelined request finishes instantly — HTTP/1.1 still requires ordered
// responses). Sessions are self-owning: the stream's callbacks hold the
// only shared_ptr, so a closed connection releases the session.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "net/transport.h"
#include "websvc/server.h"

namespace amnesia::websvc {

struct HttpLimits {
  std::size_t max_start_line = 8192;         // request line, CRLF included
  std::size_t max_header_bytes = 32 * 1024;  // full head, CRLFCRLF included
  std::size_t max_body_bytes = 1u << 20;
};

class HttpStreamParser {
 public:
  using Limits = HttpLimits;

  /// Receives each complete request's wire bytes (head + body); the view
  /// is valid only during the call.
  using Sink = std::function<void(ByteView)>;

  explicit HttpStreamParser(Limits limits = Limits{}) : limits_(limits) {}

  /// Buffers `chunk`, emits every request it completes. Returns false and
  /// poisons the parser when a limit is breached or the framing is
  /// unparseable — the session should answer 400 and close.
  bool feed(ByteView chunk, const Sink& sink);

  bool poisoned() const { return poisoned_; }
  /// True when bytes of an incomplete request are buffered — a FIN now is
  /// a truncated request (counted as a parse error by the session).
  bool mid_message() const { return !buf_.empty(); }
  const std::string& error() const { return error_; }

 private:
  bool fail(const std::string& why);

  Limits limits_;
  Bytes buf_;
  /// Parsed body length once the head is complete; -1 while still in the
  /// head. Avoids re-scanning the head on every chunk of a large body.
  std::ptrdiff_t head_len_ = -1;
  std::size_t body_len_ = 0;
  bool poisoned_ = false;
  std::string error_;
};

class HttpStreamSession
    : public std::enable_shared_from_this<HttpStreamSession> {
 public:
  /// Wires the session into `stream`'s handlers. The returned pointer is
  /// also captured by those handlers, so callers may drop it (accept
  /// path) or keep it for inspection (tests).
  static std::shared_ptr<HttpStreamSession> attach(
      net::StreamPtr stream, HttpServer& server,
      HttpStreamParser::Limits limits = HttpStreamParser::Limits{});

  bool closed() const { return closed_; }

 private:
  HttpStreamSession(net::StreamPtr stream, HttpServer& server,
                    HttpStreamParser::Limits limits)
      : stream_(std::move(stream)), server_(server), parser_(limits) {}

  void on_data(ByteView chunk);
  void on_request(ByteView wire);
  void on_close();
  void flush_ready();

  net::StreamPtr stream_;
  HttpServer& server_;
  HttpStreamParser parser_;
  std::uint64_t next_issue_ = 0;  // index assigned to the next request
  std::uint64_t next_flush_ = 0;  // next response index to write out
  std::map<std::uint64_t, Bytes> ready_;  // out-of-order completions
  bool closed_ = false;
};

}  // namespace amnesia::websvc
