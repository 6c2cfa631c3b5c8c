#include "server/gateway.h"

#include "common/error.h"

namespace amnesia::server {

// ---- ClockBridge ---------------------------------------------------------

ClockBridge::ClockBridge(simnet::Simulation& sim, net::EventLoop& loop)
    : sim_(sim),
      loop_(loop),
      real_epoch_(loop.clock().now_us()),
      virtual_epoch_(sim.now()) {
  sim_.set_head_hook([this](Micros) {
    if (!pumping_) rearm();
  });
  rearm();
}

ClockBridge::~ClockBridge() {
  sim_.set_head_hook(nullptr);
  if (timer_ != 0) loop_.cancel_timer(timer_);
}

void ClockBridge::pump() {
  const Micros target =
      virtual_epoch_ + (loop_.clock().now_us() - real_epoch_);
  if (target > sim_.now()) {
    // Events scheduled while the sim runs move the head many times; the
    // timer is re-armed once, below, for wherever it ends up.
    pumping_ = true;
    sim_.run_until(target);
    pumping_ = false;
  }
  rearm();
}

void ClockBridge::rearm() {
  const Micros next = sim_.next_event_time();
  if (timer_ != 0 && armed_for_ == next) return;
  if (timer_ != 0) loop_.cancel_timer(timer_);
  timer_ = 0;
  if (next < 0) return;
  armed_for_ = next;
  // Virtual and real time advance 1:1 past the epochs, so the real-time
  // delay to the next virtual event is their difference under the map
  // (negative, and so due at once, when the sim lags real time).
  const Micros real_due = real_epoch_ + (next - virtual_epoch_);
  timer_ = loop_.add_timer(real_due - loop_.clock().now_us(), [this] {
    timer_ = 0;
    pump();
  });
}

// ---- NetGateway ----------------------------------------------------------

NetGateway::NetGateway(net::Transport& secure_transport,
                       net::Transport* http_transport, AmnesiaServer& server,
                       ClockBridge* bridge)
    : secure_transport_(secure_transport),
      server_(server),
      exec_(secure_transport.executor()) {
  const bool on_sim = &exec_ == static_cast<net::Executor*>(&server_.sim());
  if (on_sim == (bridge != nullptr)) {
    throw Error(on_sim ? "NetGateway: a simulation-backed gateway needs no "
                         "ClockBridge"
                       : "NetGateway: a real-time gateway needs its "
                         "simulation's ClockBridge");
  }
  secure_transport_.listen(
      [this](net::StreamPtr stream) { on_secure_stream(std::move(stream)); });
  if (http_transport) {
    http_transport->listen(
        [this](net::StreamPtr stream) { on_http_stream(std::move(stream)); });
  }
}

NetGateway::~NetGateway() {
  // Detach close hooks first: RpcPeer::close() would otherwise call back
  // into peers_ mid-iteration.
  auto peers = std::move(peers_);
  peers_.clear();
  for (auto& [raw, peer] : peers) {
    peer->set_on_close(nullptr);
    peer->close();
  }
}

void NetGateway::on_secure_stream(net::StreamPtr stream) {
  auto peer = net::RpcPeer::attach(std::move(stream), exec_);
  net::RpcPeer* raw = peer.get();
  // Whatever the request schedules in the simulation arms the bridge
  // through the head hook; the handler itself never pumps.
  peer->set_handler(
      [this](const Bytes& body, std::function<void(Bytes)> respond) {
        server_.secure().handle_wire(body, std::move(respond));
      });
  peer->set_on_close([this, raw]() { peers_.erase(raw); });
  peers_[raw] = std::move(peer);
}

void NetGateway::on_http_stream(net::StreamPtr stream) {
  // The session owns itself through the stream's handlers.
  websvc::HttpStreamSession::attach(std::move(stream), server_.http());
}

}  // namespace amnesia::server
