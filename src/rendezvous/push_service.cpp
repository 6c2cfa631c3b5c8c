#include "rendezvous/push_service.h"

#include "common/error.h"
#include "common/logging.h"
#include "storage/codec.h"

namespace amnesia::rendezvous {

namespace {

constexpr std::uint8_t kOpRegister = 0x01;
constexpr std::uint8_t kOpPush = 0x02;
constexpr std::uint8_t kOpConnect = 0x03;
constexpr std::uint8_t kOpUnregister = 0x04;
constexpr std::uint8_t kOpLeaseAcquire = 0x05;

constexpr std::uint8_t kStatusOk = 0x00;
constexpr std::uint8_t kStatusUnknownId = 0x01;
constexpr std::uint8_t kStatusMalformed = 0x02;
constexpr std::uint8_t kStatusLeaseHeld = 0x03;

Bytes status_reply(std::uint8_t status) {
  storage::BufWriter w;
  w.u8(status);
  return w.take();
}

}  // namespace

PushService::PushService(simnet::Network& network, simnet::NodeId node_id,
                         RandomSource& rng)
    : network_(network),
      node_(std::make_unique<simnet::Node>(network, std::move(node_id))),
      rng_(rng) {
  node_->set_rpc_handler([this](const simnet::NodeId& from, const Bytes& body,
                                std::function<void(Bytes)> respond) {
    handle_rpc(from, body, std::move(respond));
  });
}

void PushService::set_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  delivery_latency_ =
      registry ? &registry->histogram("push.delivery_latency_us") : nullptr;
}

PushStats PushService::stats() const {
  return PushStats{registered_.value(),    pushes_accepted_.value(),
                   pushes_delivered_.value(), pushes_queued_.value(),
                   pushes_expired_.value(),   pushes_dropped_overflow_.value(),
                   unknown_registration_.value(), lease_grants_.value(),
                   lease_rejections_.value()};
}

void PushService::end_queued_span(const QueuedPush& push,
                                  const char* outcome) {
  if (!metrics_ || !push.trace.valid()) return;
  metrics_->tracer().add_event(push.trace, outcome);
  metrics_->tracer().end(push.trace);
}

void PushService::reap_expired() {
  // Per-push TTLs are independent, so an expired entry can sit behind a
  // fresh queue head — scan the whole queue, not just the front.
  const Micros now = network_.sim().now();
  for (auto& [reg_id, reg] : registrations_) {
    for (auto it = reg.queue.begin(); it != reg.queue.end();) {
      if (it->expires_at <= now) {
        end_queued_span(*it, "expired: ttl passed");
        it = reg.queue.erase(it);
        pushes_expired_.inc(metrics_);
      } else {
        ++it;
      }
    }
  }
}

bool PushService::reachable(const Registration& reg) const {
  // GCM can deliver only when the device is reachable; the network layer
  // knows whether the node is attached and online.
  return network_.attached(reg.device) && network_.online(reg.device);
}

void PushService::handle_rpc(const simnet::NodeId& from, const Bytes& body,
                             std::function<void(Bytes)> respond) {
  reap_expired();
  try {
    storage::BufReader r(body);
    const std::uint8_t op = r.u8();
    switch (op) {
      case kOpRegister: {
        const std::string device = r.str();
        // Registration ids are opaque and unguessable, like GCM tokens.
        const std::string reg_id = "gcm-" + hex_encode(rng_.bytes(16));
        registrations_[reg_id] = Registration{device, {}};
        registered_.inc(metrics_);
        storage::BufWriter w;
        w.u8(kStatusOk);
        w.str(reg_id);
        respond(w.take());
        return;
      }
      case kOpPush: {
        const std::string reg_id = r.str();
        const Micros ttl_us = r.i64();
        const Bytes payload = r.bytes();
        // Optional trailing trace context from the sender; the deliver
        // span makes the GCM hop visible in the login's trace tree.
        std::string trace_str;
        if (!r.done()) trace_str = r.str();
        obs::TraceContext deliver_span;
        if (metrics_) {
          if (const auto parsed = obs::parse_trace_header(trace_str)) {
            deliver_span = metrics_->tracer().start_span("rendezvous.deliver",
                                                         "gcm", *parsed);
          }
        }
        const auto it = registrations_.find(reg_id);
        if (it == registrations_.end()) {
          unknown_registration_.inc(metrics_);
          if (deliver_span.valid()) {
            metrics_->tracer().add_event(deliver_span, "unknown registration");
            metrics_->tracer().end(deliver_span);
          }
          respond(status_reply(kStatusUnknownId));
          return;
        }
        pushes_accepted_.inc(metrics_);
        Registration& reg = it->second;
        if (reachable(reg)) {
          node_->send_oneway(reg.device, payload);
          pushes_delivered_.inc(metrics_);
          if (delivery_latency_) delivery_latency_->record(0);
          if (deliver_span.valid()) metrics_->tracer().end(deliver_span);
        } else {
          const Micros now = network_.sim().now();
          if (reg.queue.size() >= max_queue_per_device_) {
            // Bounded backlog: the oldest queued push is the most likely
            // to be expired/superseded, so it is the one to drop.
            end_queued_span(reg.queue.front(), "dropped: queue overflow");
            reg.queue.pop_front();
            pushes_dropped_overflow_.inc(metrics_);
          }
          if (deliver_span.valid()) {
            metrics_->tracer().add_event(deliver_span,
                                         "queued: device offline");
          }
          reg.queue.push_back(
              QueuedPush{payload, now + ttl_us, now, deliver_span});
          pushes_queued_.inc(metrics_);
        }
        respond(status_reply(kStatusOk));
        return;
      }
      case kOpConnect: {
        const std::string reg_id = r.str();
        const auto it = registrations_.find(reg_id);
        if (it == registrations_.end()) {
          unknown_registration_.inc(metrics_);
          respond(status_reply(kStatusUnknownId));
          return;
        }
        Registration& reg = it->second;
        // The device may have reinstalled on a different node; follow it.
        reg.device = from;
        while (!reg.queue.empty()) {
          node_->send_oneway(reg.device, reg.queue.front().payload);
          pushes_delivered_.inc(metrics_);
          if (delivery_latency_) {
            delivery_latency_->record(network_.sim().now() -
                                      reg.queue.front().queued_at);
          }
          end_queued_span(reg.queue.front(), "flushed on reconnect");
          reg.queue.pop_front();
        }
        respond(status_reply(kStatusOk));
        return;
      }
      case kOpUnregister: {
        const std::string reg_id = r.str();
        if (registrations_.erase(reg_id) == 0) {
          respond(status_reply(kStatusUnknownId));
        } else {
          respond(status_reply(kStatusOk));
        }
        return;
      }
      case kOpLeaseAcquire: {
        const std::string cluster_id = r.str();
        const std::string node = r.str();
        const std::uint64_t epoch = r.u64();
        const Micros ttl_us = r.i64();
        const Micros now = network_.sim().now();
        Lease& lease = leases_[cluster_id];
        const bool expired = lease.holder.empty() || lease.expires_at <= now;
        // Grant on: free/expired lease, a renewal by the current holder,
        // or a strictly higher epoch (a promoted follower fencing the old
        // primary — the crashed holder's renewals then lose, not tie).
        const bool granted =
            expired || (lease.holder == node && epoch >= lease.epoch) ||
            epoch > lease.epoch;
        if (granted) {
          lease = Lease{node, epoch, now + ttl_us};
          lease_grants_.inc(metrics_);
        } else {
          lease_rejections_.inc(metrics_);
        }
        storage::BufWriter w;
        w.u8(granted ? kStatusOk : kStatusLeaseHeld);
        w.str(lease.holder);
        w.u64(lease.epoch);
        respond(w.take());
        return;
      }
      default:
        respond(status_reply(kStatusMalformed));
        return;
    }
  } catch (const FormatError&) {
    respond(status_reply(kStatusMalformed));
  }
}

// ------------------------------------------------------------- PushClient

void PushClient::register_device(
    std::function<void(Result<std::string>)> cb) {
  storage::BufWriter w;
  w.u8(kOpRegister);
  w.str(node_.id());
  node_.request(service_, w.take(), [cb = std::move(cb)](Result<Bytes> r) {
    if (!r.ok()) {
      cb(Result<std::string>(r.failure()));
      return;
    }
    try {
      storage::BufReader reader(r.value());
      if (reader.u8() != kStatusOk) {
        cb(Result<std::string>(Err::kInternal, "rendezvous rejected register"));
        return;
      }
      cb(Result<std::string>(reader.str()));
    } catch (const FormatError& e) {
      cb(Result<std::string>(Err::kInternal, e.what()));
    }
  });
}

namespace {

void expect_ok(Result<Bytes> r, const std::function<void(Status)>& cb) {
  if (!r.ok()) {
    cb(Status(r.failure()));
    return;
  }
  try {
    storage::BufReader reader(r.value());
    const std::uint8_t status = reader.u8();
    if (status == kStatusOk) {
      cb(ok_status());
    } else if (status == kStatusUnknownId) {
      cb(Status(Err::kNotFound, "unknown registration id"));
    } else {
      cb(Status(Err::kInvalidArgument, "malformed rendezvous request"));
    }
  } catch (const FormatError& e) {
    cb(Status(Err::kInternal, e.what()));
  }
}

}  // namespace

void PushClient::connect(const std::string& reg_id,
                         std::function<void(Status)> cb, Micros timeout_us) {
  storage::BufWriter w;
  w.u8(kOpConnect);
  w.str(reg_id);
  node_.request(
      service_, w.take(),
      [cb = std::move(cb)](Result<Bytes> r) { expect_ok(std::move(r), cb); },
      timeout_us);
}

void PushClient::push(const std::string& reg_id, Bytes payload, Micros ttl_us,
                      std::function<void(Status)> cb, Micros timeout_us) {
  storage::BufWriter w;
  w.u8(kOpPush);
  w.str(reg_id);
  w.i64(ttl_us);
  w.bytes(payload);
  if (const obs::TraceContext ctx = obs::current_trace(); ctx.valid()) {
    w.str(obs::format_trace_header(ctx));
  }
  node_.request(
      service_, w.take(),
      [cb = std::move(cb)](Result<Bytes> r) { expect_ok(std::move(r), cb); },
      timeout_us);
}

namespace {

void parse_lease_reply(Result<Bytes> r,
                       const std::function<void(Result<PushClient::LeaseState>)>&
                           cb) {
  if (!r.ok()) {
    cb(Result<PushClient::LeaseState>(r.failure()));
    return;
  }
  try {
    storage::BufReader reader(r.value());
    const std::uint8_t status = reader.u8();
    if (status != kStatusOk && status != kStatusLeaseHeld) {
      cb(Result<PushClient::LeaseState>(Err::kInvalidArgument,
                                        "malformed lease request"));
      return;
    }
    PushClient::LeaseState state;
    state.holder = reader.str();
    state.epoch = reader.u64();
    cb(Result<PushClient::LeaseState>(std::move(state)));
  } catch (const FormatError& e) {
    cb(Result<PushClient::LeaseState>(Err::kInternal, e.what()));
  }
}

}  // namespace

void PushClient::acquire_lease(const std::string& cluster_id,
                               const std::string& node_id, std::uint64_t epoch,
                               Micros ttl_us,
                               std::function<void(Result<LeaseState>)> cb,
                               Micros timeout_us) {
  storage::BufWriter w;
  w.u8(kOpLeaseAcquire);
  w.str(cluster_id);
  w.str(node_id);
  w.u64(epoch);
  w.i64(ttl_us);
  node_.request(
      service_, w.take(),
      [cb = std::move(cb)](Result<Bytes> r) {
        parse_lease_reply(std::move(r), cb);
      },
      timeout_us);
}

void PushClient::unregister(const std::string& reg_id,
                            std::function<void(Status)> cb) {
  storage::BufWriter w;
  w.u8(kOpUnregister);
  w.str(reg_id);
  node_.request(service_, w.take(), [cb = std::move(cb)](Result<Bytes> r) {
    expect_ok(std::move(r), cb);
  });
}

}  // namespace amnesia::rendezvous
