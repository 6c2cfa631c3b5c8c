// ClusterNode: one replica of a primary/follower Amnesia cluster.
//
// Wraps one server::AmnesiaServer with the journal-shipping replication
// role machinery (docs/CLUSTER.md):
//
//   primary   taps the storage commit hook and the tracer start/complete
//             hooks, appends every record to a bounded in-memory log, and
//             ships it to followers (one in-flight append per follower,
//             batched, acked by offset). Renews the rendezvous-anchored
//             primary lease on every heartbeat tick.
//   follower  applies shipped records (storage via apply_replicated, span
//             ends via import_completed, span starts as open stubs),
//             watches for heartbeat silence, and after the failover grace
//             (plus a per-node stagger) races for the lease at epoch+1.
//             Winning promotes: stubs become unfinished spans in the
//             local tracer, server().promote_to_primary() adopts the
//             replicated sessions/rounds/polls, and the node starts
//             shipping to any followers of its own.
//
// There is no consensus protocol: the rendezvous service (which every
// replica already depends on — it is where pushes must go) doubles as the
// tiny lease arbiter, and epochs fence a crashed primary's stragglers.
//
// Transport-agnostic: followers expose handle_repl(body, respond) and the
// primary reaches each follower through a PeerWire function. sim_wire()
// adapts the node's own "<id>.repl" simnet node; the TCP testbed plugs
// net::RpcClient wires in instead (cluster/repl_listener.h accepts them).
// Everything runs on the simulation thread (the TCP variant drives all
// replicas from one event loop, like server::NetGateway).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/replication.h"
#include "rendezvous/push_service.h"
#include "server/server_app.h"
#include "simnet/node.h"
#include "simnet/sim.h"

namespace amnesia::cluster {

struct ClusterConfig {
  std::string cluster_id = "amnesia";
  /// Lease identity; defaults to the server's node id.
  std::string node_name;
  Micros heartbeat_interval_us = 500'000;
  Micros lease_ttl_us = 1'500'000;
  /// Heartbeat silence a follower tolerates before racing for the lease.
  Micros failover_grace_us = 1'500'000;
  /// Extra per-node delay before the race (rank the followers so the
  /// most caught-up one usually wins without a lease conflict).
  Micros takeover_stagger_us = 0;
  /// Timeout on replication RPCs (appends, snapshots, lease calls).
  Micros rpc_timeout_us = 2'000'000;
  /// How long a replication barrier (the semi-sync gate that keeps the
  /// rendezvous push behind follower acks) waits for a silent follower
  /// before letting the round proceed un-replicated.
  Micros barrier_timeout_us = 1'000'000;
  /// In-memory log bound; a follower further behind than this gets a
  /// full snapshot transfer instead of record replay.
  std::size_t log_cap = 1024;
};

/// Read from the cluster.* counters of the same names in the server's
/// registry; lease_races_lost has no counter and is a plain count.
struct ClusterNodeStats {
  std::uint64_t records_shipped = 0;
  std::uint64_t snapshots_sent = 0;
  std::uint64_t records_applied = 0;
  std::uint64_t snapshots_installed = 0;
  std::uint64_t promotions = 0;
  std::uint64_t lease_races_lost = 0;
};

class ClusterNode {
 public:
  enum class Role { kPrimary, kFollower };

  /// How the primary reaches one follower: send `body`, get the reply.
  using PeerWire =
      std::function<void(Bytes, std::function<void(Result<Bytes>)>)>;

  ClusterNode(simnet::Simulation& sim, simnet::Network& network,
              server::AmnesiaServer& server, simnet::NodeId rendezvous_node,
              ClusterConfig config = {});
  ~ClusterNode();

  ClusterNode(const ClusterNode&) = delete;
  ClusterNode& operator=(const ClusterNode&) = delete;

  /// Starts shipping: installs the storage/tracer hooks, arms the
  /// heartbeat + lease-renewal timer, takes the lease at `epoch`.
  void start_as_primary(std::uint64_t epoch = 1);
  /// Starts watching: arms the failover detector.
  void start_as_follower();

  /// Registers a follower the (current or future) primary ships to.
  void add_follower(std::string name, PeerWire wire);

  /// A PeerWire over this node's own "<id>.repl" simnet node, towards
  /// `target` (another replica's repl node id) — the sim-transport glue.
  PeerWire sim_wire(simnet::NodeId target);

  /// Inbound replication traffic (the repl simnet node routes here; the
  /// TCP listener calls it directly). Safe to call on a dead node.
  void handle_repl(const Bytes& body, std::function<void(Bytes)> respond);

  /// Hard-stops the replica: detaches the hooks, cancels timers, takes
  /// the server and repl simnet nodes offline. The cooperative crash
  /// handler the testbeds install on the server routes here.
  void crash();
  bool dead() const { return dead_; }

  Role role() const { return role_; }
  std::uint64_t epoch() const { return epoch_; }
  /// Primary: log tip. Follower: last applied record.
  std::uint64_t log_seq() const {
    return role_ == Role::kPrimary ? log_seq_ : applied_seq_;
  }
  /// Records shipped but not yet acked by the slowest follower.
  std::uint64_t replication_lag() const;
  ClusterNodeStats stats() const;
  server::AmnesiaServer& server() { return server_; }
  const std::string& name() const { return config_.node_name; }

  /// Fires right after a promotion completes (testbeds retarget the
  /// browser/phone here).
  void set_on_promote(std::function<void()> fn) {
    on_promote_ = std::move(fn);
  }

  /// The server-facing /healthz view of this replica.
  server::AmnesiaServer::ClusterStatus status() const;

  /// Semi-sync replication gate: runs `fn` once every follower has acked
  /// the log through the current tip — immediately when there is nothing
  /// outstanding (or no followers), after barrier_timeout_us at the
  /// latest. The server's push path routes through this so R never
  /// reaches the phone before the round record reaches the followers.
  void barrier(std::function<void()> fn);

 private:
  struct Peer {
    std::string name;
    PeerWire wire;
    std::uint64_t acked = 0;
    bool inflight = false;
  };

  void install_primary_hooks();
  void detach_hooks();
  std::uint64_t min_acked() const;
  void release_barriers();
  void arm_barrier_timer();
  void append_record(RecordKind kind, Bytes payload);
  void schedule_flush();
  void flush_all();
  void flush(Peer& peer);
  void send_snapshot(Peer& peer);
  /// Sends one message to `peer`, in flight until on_peer_reply().
  void send(Peer& peer, Bytes message);
  void on_peer_reply(Peer& peer, const Result<Bytes>& result);
  /// Demotes a primary that learned of a newer one.
  void fence();
  void arm_heartbeat();
  void arm_failover_check();
  void renew_lease();
  void race_for_lease();
  void promote(std::uint64_t won_epoch);
  void note_primary_alive(std::uint64_t epoch);
  ReplReply apply_append(const ReplMessage& msg);

  simnet::Simulation& sim_;
  server::AmnesiaServer& server_;
  ClusterConfig config_;
  std::unique_ptr<simnet::Node> repl_node_;
  rendezvous::PushClient lease_;

  Role role_ = Role::kFollower;
  std::uint64_t epoch_ = 0;
  bool dead_ = false;
  bool started_ = false;
  /// Timer callbacks hold a copy; a false value (crash/destruction) makes
  /// them no-ops without having to cancel queued simulation events.
  std::shared_ptr<bool> alive_;

  // -- primary state: the bounded shipping log. log_[i] carries sequence
  // number log_start_seq_ + 1 + i; log_seq_ is the tip.
  std::deque<LogRecord> log_;
  std::uint64_t log_seq_ = 0;
  std::uint64_t log_start_seq_ = 0;
  std::vector<std::unique_ptr<Peer>> peers_;
  bool flush_scheduled_ = false;
  bool heartbeat_armed_ = false;

  /// Rounds holding their rendezvous push until the log through `seq` is
  /// follower-acked (or `deadline` passes). FIFO by construction: seq and
  /// deadline are both monotone.
  struct Barrier {
    std::uint64_t seq;
    Micros deadline;
    std::function<void()> fn;
  };
  std::deque<Barrier> barriers_;
  bool barrier_timer_armed_ = false;

  // -- follower state
  std::uint64_t applied_seq_ = 0;
  Micros last_primary_contact_ = 0;
  bool racing_for_lease_ = false;
  bool failover_armed_ = false;
  /// Spans open on the primary (start shipped, no end yet), imported as
  /// unfinished spans at promotion so the failover trace tree stays
  /// connected. Bounded like the tracer's own open table.
  std::map<obs::SpanId, obs::TraceSpan> open_stubs_;
  static constexpr std::size_t kMaxOpenStubs = 8192;

  std::function<void()> on_promote_;

  // In the server's registry, each looked up at its first event.
  obs::LazyCounter records_shipped_{"cluster.records_shipped"};
  obs::LazyCounter snapshots_sent_{"cluster.snapshots_sent"};
  obs::LazyCounter records_applied_{"cluster.records_applied"};
  obs::LazyCounter snapshots_installed_{"cluster.snapshots_installed"};
  obs::LazyCounter promotions_{"cluster.promotions"};
  obs::LazyCounter barriers_waited_{"cluster.barriers_waited"};
  obs::LazyCounter barrier_timeouts_{"cluster.barrier_timeouts"};
  obs::LazyCounter fenced_{"cluster.fenced"};
  std::uint64_t lease_races_lost_ = 0;
};

}  // namespace amnesia::cluster
