#include "cluster/node.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "simnet/network.h"

namespace amnesia::cluster {

ClusterNode::ClusterNode(simnet::Simulation& sim, simnet::Network& network,
                         server::AmnesiaServer& server,
                         simnet::NodeId rendezvous_node, ClusterConfig config)
    : sim_(sim),
      server_(server),
      config_(std::move(config)),
      repl_node_(std::make_unique<simnet::Node>(network,
                                               server.node_id() + ".repl")),
      lease_(*repl_node_, std::move(rendezvous_node)),
      alive_(std::make_shared<bool>(true)) {
  if (config_.node_name.empty()) config_.node_name = server_.node_id();
  repl_node_->set_rpc_handler([this](const simnet::NodeId&, const Bytes& body,
                                     std::function<void(Bytes)> respond) {
    handle_repl(body, std::move(respond));
  });
}

ClusterNodeStats ClusterNode::stats() const {
  return ClusterNodeStats{records_shipped_.value(), snapshots_sent_.value(),
                          records_applied_.value(),
                          snapshots_installed_.value(), promotions_.value(),
                          lease_races_lost_};
}

ClusterNode::~ClusterNode() {
  *alive_ = false;
  if (!dead_) detach_hooks();
}

void ClusterNode::start_as_primary(std::uint64_t epoch) {
  started_ = true;
  role_ = Role::kPrimary;
  epoch_ = epoch;
  install_primary_hooks();
  renew_lease();
  arm_heartbeat();
}

void ClusterNode::start_as_follower() {
  started_ = true;
  role_ = Role::kFollower;
  last_primary_contact_ = sim_.now();
  arm_failover_check();
}

void ClusterNode::add_follower(std::string name, PeerWire wire) {
  auto peer = std::make_unique<Peer>();
  peer->name = std::move(name);
  peer->wire = std::move(wire);
  peers_.push_back(std::move(peer));
}

ClusterNode::PeerWire ClusterNode::sim_wire(simnet::NodeId target) {
  return [this, target = std::move(target)](
             Bytes body, std::function<void(Result<Bytes>)> cb) {
    repl_node_->request(target, std::move(body), std::move(cb),
                        config_.rpc_timeout_us);
  };
}

std::uint64_t ClusterNode::min_acked() const {
  std::uint64_t acked = log_seq_;
  for (const auto& peer : peers_) acked = std::min(acked, peer->acked);
  return acked;
}

void ClusterNode::barrier(std::function<void()> fn) {
  if (role_ != Role::kPrimary || dead_ || peers_.empty() ||
      min_acked() >= log_seq_) {
    fn();
    return;
  }
  barriers_.push_back(Barrier{log_seq_,
                              sim_.now() + config_.barrier_timeout_us,
                              std::move(fn)});
  barriers_waited_.inc(&server_.metrics());
  schedule_flush();
  arm_barrier_timer();
}

void ClusterNode::release_barriers() {
  const std::uint64_t durable = min_acked();
  while (!barriers_.empty() && barriers_.front().seq <= durable) {
    auto fn = std::move(barriers_.front().fn);
    barriers_.pop_front();
    fn();
  }
}

void ClusterNode::arm_barrier_timer() {
  if (barrier_timer_armed_ || barriers_.empty()) return;
  barrier_timer_armed_ = true;
  const Micros wake = barriers_.front().deadline;
  const std::shared_ptr<bool> alive = alive_;
  sim_.run_after(std::max<Micros>(wake - sim_.now(), 1), [this, alive] {
    if (!*alive) return;
    barrier_timer_armed_ = false;
    const Micros now = sim_.now();
    while (!barriers_.empty() && barriers_.front().deadline <= now) {
      // A silent follower must not wedge logins: past the deadline the
      // round proceeds un-replicated (the documented durability gap).
      auto fn = std::move(barriers_.front().fn);
      barriers_.pop_front();
      barrier_timeouts_.inc(&server_.metrics());
      fn();
    }
    arm_barrier_timer();
  });
}

std::uint64_t ClusterNode::replication_lag() const {
  if (role_ != Role::kPrimary || peers_.empty()) return 0;
  std::uint64_t lag = 0;
  for (const auto& peer : peers_) {
    lag = std::max(lag, log_seq_ - std::min(peer->acked, log_seq_));
  }
  return lag;
}

server::AmnesiaServer::ClusterStatus ClusterNode::status() const {
  server::AmnesiaServer::ClusterStatus s;
  s.role = role_ == Role::kPrimary ? "primary" : "follower";
  s.replication_lag = replication_lag();
  s.followers = peers_.size();
  return s;
}

// --- primary side ---------------------------------------------------------

void ClusterNode::install_primary_hooks() {
  const std::shared_ptr<bool> alive = alive_;
  server_.db().raw().set_commit_hook(
      [this, alive](std::uint64_t, const Bytes& payload) {
        if (!*alive) return;
        append_record(RecordKind::kStorage, payload);
      });
  obs::Tracer& tracer = server_.metrics().tracer();
  tracer.set_on_start([this, alive](const obs::TraceSpan& span) {
    if (!*alive) return;
    append_record(RecordKind::kSpanStart, encode_span(span));
  });
  tracer.set_on_complete([this, alive](const obs::TraceSpan& span) {
    if (!*alive) return;
    append_record(RecordKind::kSpanEnd, encode_span(span));
  });
  server_.set_replication_barrier([this, alive](std::function<void()> fn) {
    if (!*alive) return;  // crashed: the round dies with the process
    barrier(std::move(fn));
  });
}

void ClusterNode::detach_hooks() {
  server_.db().raw().set_commit_hook({});
  obs::Tracer& tracer = server_.metrics().tracer();
  tracer.set_on_start({});
  tracer.set_on_complete({});
  server_.set_replication_barrier({});
  // Barriers queued before a demotion still fire: the deadline timer runs
  // them, and their side effect (a push) is harmless from a fenced zombie
  // because the token lands on whichever primary holds the round now.
}

void ClusterNode::append_record(RecordKind kind, Bytes payload) {
  ++log_seq_;
  log_.push_back(LogRecord{kind, std::move(payload)});
  while (log_.size() > config_.log_cap) {
    log_.pop_front();
    ++log_start_seq_;
  }
  schedule_flush();
}

void ClusterNode::schedule_flush() {
  if (flush_scheduled_ || dead_) return;
  flush_scheduled_ = true;
  const std::shared_ptr<bool> alive = alive_;
  sim_.post([this, alive] {
    if (!*alive) return;
    flush_scheduled_ = false;
    flush_all();
  });
}

void ClusterNode::flush_all() {
  if (role_ != Role::kPrimary || dead_) return;
  for (auto& peer : peers_) flush(*peer);
}

void ClusterNode::flush(Peer& peer) {
  if (peer.inflight || !peer.wire) return;
  if (peer.acked >= log_seq_) return;
  if (peer.acked < log_start_seq_) {
    send_snapshot(peer);
    return;
  }
  // Batch everything from peer.acked+1 through the tip into one append.
  std::vector<LogRecord> batch;
  const std::size_t first = peer.acked - log_start_seq_;
  batch.reserve(log_.size() - first);
  for (std::size_t i = first; i < log_.size(); ++i) batch.push_back(log_[i]);
  records_shipped_.inc(&server_.metrics(), batch.size());
  send(peer, encode_append(epoch_, peer.acked, batch));
}

void ClusterNode::send_snapshot(Peer& peer) {
  const storage::Database& db = server_.db().raw();
  snapshots_sent_.inc(&server_.metrics());
  send(peer, encode_snapshot(epoch_, log_seq_, db.commit_offset(),
                             db.encode_state()));
}

void ClusterNode::send(Peer& peer, Bytes message) {
  peer.inflight = true;
  const std::shared_ptr<bool> alive = alive_;
  Peer* p = &peer;
  peer.wire(std::move(message), [this, alive, p](const Result<Bytes>& result) {
    if (!*alive) return;
    on_peer_reply(*p, result);
  });
}

void ClusterNode::on_peer_reply(Peer& peer, const Result<Bytes>& result) {
  peer.inflight = false;
  if (dead_ || role_ != Role::kPrimary) return;
  if (!result.ok()) return;  // next heartbeat tick retries via flush_all()
  ReplReply reply;
  try {
    reply = decode_reply(result.value());
  } catch (const FormatError&) {
    return;
  }
  switch (reply.status) {
    case ReplStatus::kOk:
    case ReplStatus::kGap:
      // Either way `seq` is the follower's authoritative position; a gap
      // just means our optimistic base was wrong (e.g. right after a
      // promotion) and the next flush re-ships — or snapshots — from there.
      peer.acked = reply.seq;
      release_barriers();
      if (peer.acked < log_seq_) flush(peer);
      break;
    case ReplStatus::kStaleEpoch:
      // A higher-epoch primary exists: we are a fenced zombie. Stop
      // shipping; the lease's epoch check keeps us from ever coming back.
      server_.metrics().events().emit(
          obs::EventLevel::kWarn, "cluster",
          config_.node_name + ": fenced at epoch " + std::to_string(epoch_) +
              " (newer primary elected), demoting");
      fence();
      break;
  }
}

void ClusterNode::fence() {
  fenced_.inc(&server_.metrics());
  detach_hooks();
  role_ = Role::kFollower;
  last_primary_contact_ = sim_.now();
  arm_failover_check();
}

void ClusterNode::arm_heartbeat() {
  if (heartbeat_armed_) return;
  heartbeat_armed_ = true;
  const std::shared_ptr<bool> alive = alive_;
  sim_.run_after(config_.heartbeat_interval_us, [this, alive] {
    if (!*alive) return;
    heartbeat_armed_ = false;
    if (role_ != Role::kPrimary || dead_) return;
    renew_lease();
    for (auto& peer : peers_) {
      if (peer->inflight || !peer->wire) continue;
      if (peer->acked < log_seq_) {
        flush(*peer);  // doubles as the retry path after a failed RPC
        continue;
      }
      send(*peer, encode_heartbeat(epoch_, log_seq_));
    }
    arm_heartbeat();
  });
}

void ClusterNode::renew_lease() {
  const std::shared_ptr<bool> alive = alive_;
  lease_.acquire_lease(
      config_.cluster_id, config_.node_name, epoch_, config_.lease_ttl_us,
      [this, alive](Result<rendezvous::PushClient::LeaseState> result) {
        if (!*alive || dead_ || role_ != Role::kPrimary) return;
        if (!result.ok()) return;  // renew again next heartbeat
        if (result.value().holder != config_.node_name) {
          // Lost the lease while thinking we were primary — same fencing
          // as a stale-epoch reply.
          fence();
        }
      },
      config_.rpc_timeout_us);
}

// --- follower side --------------------------------------------------------

void ClusterNode::handle_repl(const Bytes& body,
                              std::function<void(Bytes)> respond) {
  if (dead_) return;  // a crashed replica answers nothing
  ReplMessage msg;
  try {
    msg = decode_message(body);
  } catch (const FormatError&) {
    respond(encode_reply(ReplStatus::kGap, applied_seq_));
    return;
  }
  if (msg.epoch < epoch_) {
    respond(encode_reply(ReplStatus::kStaleEpoch, applied_seq_));
    return;
  }
  if (msg.epoch > epoch_) {
    epoch_ = msg.epoch;
    if (role_ == Role::kPrimary) {
      // Shouldn't happen with the lease protocol, but be safe: a
      // higher-epoch primary wins, we demote.
      detach_hooks();
      role_ = Role::kFollower;
      arm_failover_check();
    }
  }
  note_primary_alive(msg.epoch);
  switch (msg.op) {
    case ReplOp::kAppend:
      respond([&] {
        const ReplReply reply = apply_append(msg);
        return encode_reply(reply.status, reply.seq);
      }());
      break;
    case ReplOp::kHeartbeat:
      // Replying with our position lets a primary that thinks we are
      // caught up discover we are not (e.g. it just promoted).
      respond(encode_reply(ReplStatus::kOk, applied_seq_));
      break;
    case ReplOp::kSnapshot:
      server_.db().raw().reset_from_state(msg.state, msg.db_offset);
      applied_seq_ = msg.seq;
      // Span stubs that predate the snapshot are gone: a snapshot carries
      // only storage state, so open spans from before the transfer cannot
      // be reconstructed (documented in docs/CLUSTER.md).
      open_stubs_.clear();
      snapshots_installed_.inc(&server_.metrics());
      respond(encode_reply(ReplStatus::kOk, applied_seq_));
      break;
  }
}

ReplReply ClusterNode::apply_append(const ReplMessage& msg) {
  if (msg.base_seq != applied_seq_) {
    return ReplReply{ReplStatus::kGap, applied_seq_};
  }
  for (const LogRecord& record : msg.records) {
    try {
      switch (record.kind) {
        case RecordKind::kStorage:
          server_.db().raw().apply_replicated(record.payload);
          break;
        case RecordKind::kSpanStart: {
          obs::TraceSpan span = decode_span(record.payload);
          if (open_stubs_.size() >= kMaxOpenStubs) {
            open_stubs_.erase(open_stubs_.begin());
          }
          open_stubs_[span.id] = std::move(span);
          break;
        }
        case RecordKind::kSpanEnd: {
          obs::TraceSpan span = decode_span(record.payload);
          open_stubs_.erase(span.id);
          server_.metrics().tracer().import_completed(std::move(span));
          break;
        }
      }
    } catch (const Error&) {
      // A record that fails validation stops the batch; the primary
      // re-ships from our (partially advanced) position.
      return ReplReply{ReplStatus::kGap, applied_seq_};
    }
    ++applied_seq_;
    records_applied_.inc(&server_.metrics());
  }
  return ReplReply{ReplStatus::kOk, applied_seq_};
}

void ClusterNode::note_primary_alive(std::uint64_t) {
  last_primary_contact_ = sim_.now();
}

void ClusterNode::arm_failover_check() {
  if (failover_armed_) return;
  failover_armed_ = true;
  const std::shared_ptr<bool> alive = alive_;
  const Micros interval = std::max<Micros>(config_.heartbeat_interval_us, 1);
  sim_.run_after(interval, [this, alive] {
    if (!*alive) return;
    failover_armed_ = false;
    if (dead_ || role_ != Role::kFollower) return;
    const Micros silence = sim_.now() - last_primary_contact_;
    if (silence > config_.failover_grace_us + config_.takeover_stagger_us) {
      race_for_lease();
    }
    arm_failover_check();
  });
}

void ClusterNode::race_for_lease() {
  if (racing_for_lease_) return;
  racing_for_lease_ = true;
  const std::uint64_t bid_epoch = epoch_ + 1;
  const std::shared_ptr<bool> alive = alive_;
  lease_.acquire_lease(
      config_.cluster_id, config_.node_name, bid_epoch, config_.lease_ttl_us,
      [this, alive, bid_epoch](Result<rendezvous::PushClient::LeaseState> r) {
        if (!*alive) return;
        racing_for_lease_ = false;
        if (dead_ || role_ != Role::kFollower) return;
        if (!r.ok()) return;  // rendezvous unreachable; retry next check
        if (r.value().holder == config_.node_name) {
          promote(bid_epoch);
        } else {
          ++lease_races_lost_;
          epoch_ = std::max(epoch_, r.value().epoch);
          // Someone else won; give the new primary a full grace period to
          // reach us before we consider racing again.
          last_primary_contact_ = sim_.now();
        }
      },
      config_.rpc_timeout_us);
}

void ClusterNode::promote(std::uint64_t won_epoch) {
  role_ = Role::kPrimary;
  epoch_ = won_epoch;
  promotions_.inc(&server_.metrics());
  server_.metrics().events().emit(
      obs::EventLevel::kInfo, "cluster",
      config_.node_name + ": promoted to primary at epoch " +
          std::to_string(won_epoch) + " (applied seq " +
          std::to_string(applied_seq_) + ", " +
          std::to_string(open_stubs_.size()) + " open span stubs)");

  // The shipping log restarts at our applied position; peers that ack
  // below log_start_seq_ get a snapshot, ones equal just stream on.
  log_.clear();
  log_seq_ = applied_seq_;
  log_start_seq_ = applied_seq_;
  for (auto& peer : peers_) {
    peer->acked = applied_seq_;  // optimistic; a kGap reply corrects it
    peer->inflight = false;
  }

  // Adopt the dead primary's still-open spans as unfinished spans so the
  // failover trace tree stays connected: our server.generate span parents
  // under the original protocol.round through these stubs.
  for (auto& [id, stub] : open_stubs_) {
    server_.metrics().tracer().import_completed(std::move(stub));
  }
  open_stubs_.clear();

  // Hooks go in BEFORE promote_to_primary(): the writes promotion makes
  // (expired-poll cleanup etc.) must ship to our own followers.
  install_primary_hooks();
  server_.promote_to_primary();
  arm_heartbeat();
  schedule_flush();
  if (on_promote_) on_promote_();
}

// --- crash ---------------------------------------------------------------

void ClusterNode::crash() {
  if (dead_) return;
  dead_ = true;
  *alive_ = false;
  barriers_.clear();  // the rounds they gate die with the process
  detach_hooks();
  simnet::Network& network = repl_node_->network();
  network.set_online(server_.node_id(), false);
  network.set_online(repl_node_->id(), false);
  server_.metrics().events().emit(
      obs::EventLevel::kError, "cluster",
      config_.node_name + ": replica crashed (log seq " +
          std::to_string(log_seq()) + ")");
}

}  // namespace amnesia::cluster
