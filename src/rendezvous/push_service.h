// Rendezvous push service — the Google Cloud Messaging substitute.
//
// The Amnesia server cannot reach the phone directly (the phone has no
// static address), so password requests R travel server -> rendezvous ->
// phone (paper Fig. 1 step 3). This service reproduces GCM's observable
// behaviour:
//   - devices register and receive an opaque registration id (the paper's
//     Rid, stored server-side in plaintext, Table I);
//   - senders push payloads to a registration id; the service forwards
//     them as one-way datagrams;
//   - pushes to offline devices are queued with a TTL and flushed when the
//     device reconnects (GCM store-and-forward);
//   - traffic through the service is visible to a rendezvous eavesdropper,
//     exactly the adversary of paper section IV-B.
//
// RPC ops (storage::BufWriter framing, first byte = op):
//   0x01 register   : device_node            -> ok + registration_id
//   0x02 push       : reg_id, ttl_us, blob [, trace] -> ok | unknown_id
//   0x03 connect    : reg_id                 -> ok (flushes queued pushes)
//   0x04 unregister : reg_id                 -> ok | unknown_id
//   0x05 lease_acquire : cluster_id, node, epoch, ttl_us
//                        -> status + holder + holder_epoch
//
// The lease ops anchor the cluster layer's primary election: every replica
// already depends on the rendezvous service (it is where pushes must go),
// so it doubles as the tiny shared-arbiter a 2–3 node cluster needs —
// no external consensus service. A lease names at most one primary per
// cluster id; acquire renews for the current holder, grants on expiry,
// and grants immediately to a *higher epoch* (a promoted follower fences
// the crashed primary's epoch). See docs/CLUSTER.md.
//
// The optional trailing trace string on push is a serialized
// obs::TraceContext; the service records a "rendezvous.deliver" span under
// it covering accept-to-forward (including any store-and-forward wait).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/result.h"
#include "obs/metrics.h"
#include "simnet/node.h"

namespace amnesia::rendezvous {

/// Read from the push.* registry counters of the same names, so without
/// a registry (set_metrics) every field reads 0.
struct PushStats {
  std::uint64_t registrations = 0;
  std::uint64_t pushes_accepted = 0;
  std::uint64_t pushes_delivered = 0;
  std::uint64_t pushes_queued = 0;
  std::uint64_t pushes_expired = 0;
  std::uint64_t pushes_dropped_overflow = 0;
  std::uint64_t unknown_registration = 0;
  std::uint64_t lease_grants = 0;
  std::uint64_t lease_rejections = 0;
};

/// The service process, attached to its own simnet node.
class PushService {
 public:
  PushService(simnet::Network& network, simnet::NodeId node_id,
              RandomSource& rng);

  const simnet::NodeId& node_id() const { return node_->id(); }
  PushStats stats() const;

  /// Expires queued messages whose TTL has passed (called internally on
  /// every touch; exposed for tests).
  void reap_expired();

  /// Publishes the push.* counters PushStats reads, plus
  /// push.delivery_latency_us, the accept-to-forward delay in virtual time
  /// (zero for online devices, the store-and-forward wait otherwise).
  void set_metrics(obs::MetricsRegistry* registry);

  /// Caps the store-and-forward queue per registration (drop-oldest on
  /// overflow, counted as pushes_dropped_overflow). GCM does the same:
  /// offline devices get a bounded backlog, not an unbounded one.
  void set_max_queue_per_device(std::size_t n) { max_queue_per_device_ = n; }

 private:
  struct QueuedPush {
    Bytes payload;
    Micros expires_at;
    Micros queued_at;
    // Open "rendezvous.deliver" span covering the store-and-forward wait;
    // invalid when the push arrived untraced.
    obs::TraceContext trace;
  };
  struct Registration {
    simnet::NodeId device;
    std::deque<QueuedPush> queue;
  };
  struct Lease {
    std::string holder;
    std::uint64_t epoch = 0;
    Micros expires_at = 0;
  };

  void handle_rpc(const simnet::NodeId& from, const Bytes& body,
                  std::function<void(Bytes)> respond);
  bool reachable(const Registration& reg) const;

  /// Closes the deliver span of a queued push with an outcome event
  /// (flushed / expired / dropped).
  void end_queued_span(const QueuedPush& push, const char* outcome);

  simnet::Network& network_;
  std::unique_ptr<simnet::Node> node_;
  RandomSource& rng_;
  std::map<std::string, Registration> registrations_;
  std::map<std::string, Lease> leases_;
  std::size_t max_queue_per_device_ = 64;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* delivery_latency_ = nullptr;
  // Each looked up at its first event.
  obs::LazyCounter registered_{"push.registrations"};
  obs::LazyCounter pushes_accepted_{"push.pushes_accepted"};
  obs::LazyCounter pushes_delivered_{"push.pushes_delivered"};
  obs::LazyCounter pushes_queued_{"push.pushes_queued"};
  obs::LazyCounter pushes_expired_{"push.pushes_expired"};
  obs::LazyCounter pushes_dropped_overflow_{"push.pushes_dropped_overflow"};
  obs::LazyCounter unknown_registration_{"push.unknown_registration"};
  obs::LazyCounter lease_grants_{"push.lease_grants"};
  obs::LazyCounter lease_rejections_{"push.lease_rejections"};
};

/// Client helpers used by the phone and the Amnesia server.
class PushClient {
 public:
  PushClient(simnet::Node& node, simnet::NodeId service)
      : node_(node), service_(std::move(service)) {}

  /// Device side: obtain a registration id for this node.
  void register_device(std::function<void(Result<std::string>)> cb);

  /// Device side: announce reachability, flushing queued pushes.
  void connect(const std::string& reg_id, std::function<void(Status)> cb,
               Micros timeout_us = simnet::Node::kDefaultTimeoutUs);

  /// Sender side: push `payload` to the device behind `reg_id`.
  /// `timeout_us` bounds the RPC — the rendezvous breaker path passes a
  /// deadline-clamped value so a dead GCM fails fast.
  void push(const std::string& reg_id, Bytes payload, Micros ttl_us,
            std::function<void(Status)> cb,
            Micros timeout_us = simnet::Node::kDefaultTimeoutUs);

  void unregister(const std::string& reg_id, std::function<void(Status)> cb);

  /// Outcome of a lease RPC: who holds the lease now and at what epoch.
  /// The caller won iff holder == its own node id.
  struct LeaseState {
    std::string holder;
    std::uint64_t epoch = 0;
  };

  /// Cluster side: try to acquire/renew the primary lease for
  /// `cluster_id` as `node_id` at `epoch`. The callback's LeaseState is
  /// the post-call truth (grant or the competing holder on rejection).
  void acquire_lease(const std::string& cluster_id, const std::string& node_id,
                     std::uint64_t epoch, Micros ttl_us,
                     std::function<void(Result<LeaseState>)> cb,
                     Micros timeout_us = simnet::Node::kDefaultTimeoutUs);

 private:
  simnet::Node& node_;
  simnet::NodeId service_;
};

}  // namespace amnesia::rendezvous
