#include "websvc/stream.h"

#include <algorithm>
#include <cctype>

#include "common/logging.h"
#include "websvc/http.h"

namespace amnesia::websvc {
namespace {

constexpr char kHeadEnd[] = {'\r', '\n', '\r', '\n'};

/// Case-insensitive Content-Length extraction from a complete head.
/// Returns false on a malformed value; `out` stays 0 when absent.
bool find_content_length(ByteView head, std::size_t& out) {
  out = 0;
  std::size_t line_start = 0;
  while (line_start < head.size()) {
    std::size_t line_end = line_start;
    while (line_end + 1 < head.size() &&
           !(head[line_end] == '\r' && head[line_end + 1] == '\n')) {
      ++line_end;
    }
    const std::size_t len = line_end - line_start;
    // "content-length:" is 15 chars.
    if (len > 15) {
      static const char kName[] = "content-length:";
      bool match = true;
      for (std::size_t i = 0; i < 15; ++i) {
        if (std::tolower(head[line_start + i]) != kName[i]) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t pos = line_start + 15;
        while (pos < line_end && head[pos] == ' ') ++pos;
        if (pos == line_end) return false;
        std::size_t value = 0;
        for (; pos < line_end; ++pos) {
          const std::uint8_t c = head[pos];
          if (c < '0' || c > '9') return false;
          if (value > (SIZE_MAX - (c - '0')) / 10) return false;  // overflow
          value = value * 10 + (c - '0');
        }
        out = value;
        return true;
      }
    }
    line_start = line_end + 2;
  }
  return true;
}

}  // namespace

// ---- HttpStreamParser --------------------------------------------------

bool HttpStreamParser::fail(const std::string& why) {
  poisoned_ = true;
  error_ = why;
  buf_.clear();
  head_len_ = -1;
  return false;
}

bool HttpStreamParser::feed(ByteView chunk, const Sink& sink) {
  if (poisoned_) return false;
  append(buf_, chunk);

  while (true) {
    if (head_len_ < 0) {
      const auto it = std::search(buf_.begin(), buf_.end(), kHeadEnd,
                                  kHeadEnd + sizeof(kHeadEnd));
      if (it == buf_.end()) {
        // Head incomplete: bound what a peer can make us buffer.
        const auto eol = std::find(buf_.begin(), buf_.end(), '\n');
        if (eol == buf_.end() && buf_.size() > limits_.max_start_line) {
          return fail("request line exceeds " +
                      std::to_string(limits_.max_start_line) + " bytes");
        }
        if (buf_.size() > limits_.max_header_bytes) {
          return fail("header block exceeds " +
                      std::to_string(limits_.max_header_bytes) + " bytes");
        }
        return true;  // wait for more bytes
      }
      const std::size_t head = static_cast<std::size_t>(it - buf_.begin()) +
                               sizeof(kHeadEnd);
      if (head > limits_.max_header_bytes) {
        return fail("header block exceeds " +
                    std::to_string(limits_.max_header_bytes) + " bytes");
      }
      const auto eol = std::find(buf_.begin(), it, '\n');
      if (static_cast<std::size_t>(eol - buf_.begin()) + 1 >
          limits_.max_start_line) {
        return fail("request line exceeds " +
                    std::to_string(limits_.max_start_line) + " bytes");
      }
      std::size_t body = 0;
      if (!find_content_length(ByteView(buf_.data(), head), body)) {
        return fail("malformed Content-Length header");
      }
      if (body > limits_.max_body_bytes) {
        return fail("body of " + std::to_string(body) + " bytes exceeds " +
                    std::to_string(limits_.max_body_bytes));
      }
      head_len_ = static_cast<std::ptrdiff_t>(head);
      body_len_ = body;
    }

    const std::size_t total = static_cast<std::size_t>(head_len_) + body_len_;
    if (buf_.size() < total) return true;  // body still arriving
    sink(ByteView(buf_.data(), total));
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(total));
    head_len_ = -1;
    body_len_ = 0;
    if (buf_.empty()) return true;  // steady state: nothing pipelined behind
  }
}

// ---- HttpStreamSession -------------------------------------------------

std::shared_ptr<HttpStreamSession> HttpStreamSession::attach(
    net::StreamPtr stream, HttpServer& server,
    HttpStreamParser::Limits limits) {
  auto session = std::shared_ptr<HttpStreamSession>(
      new HttpStreamSession(std::move(stream), server, limits));
  // The handlers hold the only long-lived reference: the session lives
  // exactly as long as its connection.
  net::ByteStream::Handlers handlers;
  handlers.on_data = [session](ByteView chunk) { session->on_data(chunk); };
  handlers.on_close = [session]() { session->on_close(); };
  session->stream_->set_handlers(std::move(handlers));
  return session;
}

void HttpStreamSession::on_data(ByteView chunk) {
  if (closed_) return;
  const bool ok =
      parser_.feed(chunk, [this](ByteView wire) { on_request(wire); });
  if (!ok) {
    server_.note_stream_parse_error();
    AMNESIA_WARN("websvc.stream")
        << stream_->peer() << ": " << parser_.error() << "; closing";
    if (next_flush_ == next_issue_) {
      // Nothing pipelined ahead: a 400 can go out without breaking
      // response ordering before the close.
      stream_->send(serialize(Response::error(400, parser_.error())));
    }
    closed_ = true;
    stream_->close();
  }
}

void HttpStreamSession::on_request(ByteView wire) {
  const std::uint64_t idx = next_issue_++;
  std::weak_ptr<HttpStreamSession> weak = weak_from_this();
  server_.handle_bytes(Bytes(wire.begin(), wire.end()),
                       [weak, idx](Bytes response) {
                         auto self = weak.lock();
                         if (!self || self->closed_) return;
                         self->ready_[idx] = std::move(response);
                         self->flush_ready();
                       });
}

void HttpStreamSession::flush_ready() {
  for (auto it = ready_.find(next_flush_); it != ready_.end();
       it = ready_.find(next_flush_)) {
    if (!stream_->send(it->second)) return;  // stream tore down
    ready_.erase(it);
    ++next_flush_;
  }
}

void HttpStreamSession::on_close() {
  if (closed_) return;
  closed_ = true;
  if (parser_.mid_message()) {
    // FIN in the middle of a request: a truncated message, not a clean
    // keep-alive shutdown.
    server_.note_stream_parse_error();
  }
  ready_.clear();
}

}  // namespace amnesia::websvc
