// NetGateway: serves the simulation-hosted Amnesia server over real
// transports.
//
// The full server stack (routes, worker-pool model, rendezvous, phone,
// database) lives inside a simnet::Simulation. The gateway is the seam
// that lets real clients reach it:
//
//   secure transport  framed RPC streams carrying secure-channel
//                     envelopes (what HTTPS carries in the paper) into
//                     SecureServer::handle_wire;
//   http transport    optional plain HTTP byte streams (no channel) into
//                     HttpServer via HttpStreamSession — the /metrics
//                     scrape port.
//
// Virtual/real clock bridge: server-side timeouts (phone wait, CAPTCHA
// TTL, session expiry) are virtual-time events. A ClockBridge pins the
// simulation's virtual time to the event loop's real time 1:1 from the
// moment it is built —
//   run_until(virtual_epoch + (real_now - real_epoch))
// from one loop timer armed for the earliest queued sim event. Draining
// the queue unconditionally instead would fast-forward through pending
// waits (a 30 s phone timeout would fire "immediately"), expiring
// sessions and CAPTCHAs that real clients are still using.
//
// When the transports are themselves simulation-backed
// (SimStreamTransport — the conformance configuration), the executor IS
// the simulation and there is no bridge: events run when the test pumps
// the sim.
#pragma once

#include <map>
#include <memory>

#include "net/event_loop.h"
#include "net/rpc.h"
#include "net/transport.h"
#include "server/server_app.h"
#include "websvc/stream.h"

namespace amnesia::server {

/// Runs one simulation on one event loop's real time. There is one bridge
/// per simulation, built by whoever builds its gateways and passed to each
/// of them (and to the shard router). It owns the epochs, the pump and
/// exactly one cancellable loop timer, armed for the earliest queued sim
/// event. The simulation's head hook re-arms that timer whenever a newly
/// scheduled event becomes the earliest, wherever on the loop it was
/// scheduled from (a gateway handler, a replication ack, a shard mailbox
/// post), so nothing needs to pump just to arm the next wakeup. Loop
/// thread only, like the loop.
class ClockBridge {
 public:
  /// Pins `sim`'s current virtual time to `loop`'s current real time,
  /// installs the head hook (throws Error if `sim` already has one) and
  /// arms for any event already queued.
  ClockBridge(simnet::Simulation& sim, net::EventLoop& loop);
  /// Detaches the head hook and cancels the wakeup timer.
  ~ClockBridge();

  ClockBridge(const ClockBridge&) = delete;
  ClockBridge& operator=(const ClockBridge&) = delete;

  /// Advances virtual time to match real time and runs due sim events.
  /// The shard router calls it before a forwarded request runs, so the
  /// request sees the target shard's current virtual time.
  void pump();

 private:
  /// Points the one wakeup timer at the earliest queued event.
  void rearm();

  simnet::Simulation& sim_;
  net::EventLoop& loop_;
  const Micros real_epoch_;
  const Micros virtual_epoch_;
  net::EventLoop::TimerId timer_ = 0;  // 0: not armed
  Micros armed_for_ = -1;              // virtual time timer_ is armed for
  bool pumping_ = false;  // pump() re-arms once after its run_until
};

class NetGateway {
 public:
  /// Starts listening immediately. `http_transport` may be null (no plain
  /// HTTP port). Both transports must outlive the gateway and share one
  /// executor. When that executor is a net::EventLoop, `bridge` must be
  /// the ClockBridge of `server.sim()` on that loop; when it is the
  /// simulation itself, `bridge` must be null. Throws Error otherwise: a
  /// real-time gateway without a bridge would never run the simulation.
  NetGateway(net::Transport& secure_transport, net::Transport* http_transport,
             AmnesiaServer& server, ClockBridge* bridge = nullptr);
  ~NetGateway();

  NetGateway(const NetGateway&) = delete;
  NetGateway& operator=(const NetGateway&) = delete;

 private:
  void on_secure_stream(net::StreamPtr stream);
  void on_http_stream(net::StreamPtr stream);

  net::Transport& secure_transport_;
  AmnesiaServer& server_;
  net::Executor& exec_;

  std::map<net::RpcPeer*, std::shared_ptr<net::RpcPeer>> peers_;
};

}  // namespace amnesia::server
