#include "net/gateway.hpp"

#include <stdexcept>
#include <utility>

namespace et::net {

// ---------------------------------------------------------------- types ----

// One connection: its parser, auth state and unsent output.
struct Gateway::Conn {
  std::uint64_t id = 0;
  FrameReader reader;
  std::string outbox;
  bool authed = false;
  std::size_t tenant = TenantTable::npos;
  bool closing = false;  ///< no more frames in or out
};

// One serving engine bound to one pinned model version. The pin is
// declared before the server so destruction releases the engine (and any
// Model copies borrowing the weights) first, the pin last.
struct Gateway::EngineSlot {
  std::string model_name;
  std::uint64_t version = 0;
  serving::ModelPin pin;
  std::unique_ptr<serving::InferenceServer> server;
};

// One in-flight generation: which connection/stream it answers to and
// which engine is decoding it. Engines are heap-stable (unique_ptr), and
// a slot is destroyed only when idle, so the pointer outlives the stream.
// The connection is named by id because it may be gone first.
struct Gateway::StreamRef {
  std::uint64_t conn = 0;
  std::uint64_t stream_id = 0;
  EngineSlot* engine = nullptr;
  serving::RequestHandle handle;
  std::size_t tenant = TenantTable::npos;
};

// ---------------------------------------------------------- construction ----

Gateway::Gateway(TenantTable tenants, serving::ModelRegistry& registry,
                 std::string default_model, serving::ServerConfig engine)
    : tenants_(std::move(tenants)),
      registry_(registry),
      default_model_(std::move(default_model)),
      engine_cfg_(std::move(engine)),
      tenant_state_(tenants_.size()) {
  // Buckets start full: a fresh tenant gets its whole burst.
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    tenant_state_[i].bucket = tenants_.tenant(i).bucket_capacity == kUnlimited
                                  ? 0
                                  : tenants_.tenant(i).bucket_capacity;
  }

  connections_accepted_ = &metrics_.counter("net_connections_accepted");
  connections_rejected_ = &metrics_.counter("net_connections_rejected");
  auth_failures_ = &metrics_.counter("net_auth_failures");
  protocol_errors_ = &metrics_.counter("net_protocol_errors");
  submitted_ = &metrics_.counter("net_requests_submitted");
  completed_ = &metrics_.counter("net_requests_completed");
  rejected_ = &metrics_.counter("net_requests_rejected");
  rate_limited_ = &metrics_.counter("net_rate_limited");
  quota_rejected_ = &metrics_.counter("net_quota_rejected");
  cancelled_ = &metrics_.counter("net_requests_cancelled");
  disconnect_cancels_ = &metrics_.counter("net_disconnect_cancels");
  tokens_streamed_ = &metrics_.counter("net_tokens_streamed");
  connections_open_ = &metrics_.gauge("net_connections_open");
  engines_active_ = &metrics_.gauge("net_engines_active");
  engines_draining_ = &metrics_.gauge("net_engines_draining");
  streams_live_ = &metrics_.gauge("net_streams_live");
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const std::string base = "tenant_" + tenants_.tenant(i).name + "_";
    TenantMetrics tm;
    tm.submitted = &metrics_.counter(base + "submitted");
    tm.completed = &metrics_.counter(base + "completed");
    tm.rejected = &metrics_.counter(base + "rejected");
    tm.tokens = &metrics_.counter(base + "tokens");
    tenant_metrics_.push_back(tm);
  }
  // Registry gauges last, so snapshots taken before the registry existed
  // remain a prefix of the new field list.
  registry_.bind_metrics(metrics_);
}

Gateway::~Gateway() = default;

// ---------------------------------------------------------------- engines ----

Gateway::EngineSlot* Gateway::find_engine(const std::string& name) {
  for (auto& e : engines_) {
    if (e->model_name == name) return e.get();
  }
  return nullptr;
}

std::unique_ptr<Gateway::EngineSlot> Gateway::make_engine(
    const std::string& name, serving::ModelPin pin) {
  auto slot = std::make_unique<EngineSlot>();
  slot->model_name = name;
  slot->version = pin->version();
  slot->pin = std::move(pin);
  slot->server = std::make_unique<serving::InferenceServer>(slot->pin->model(),
                                                            engine_cfg_);
  return slot;
}

void Gateway::serve_model(const std::string& name) {
  serving::ModelPin pin = registry_.acquire(name);
  if (!pin) {
    throw std::invalid_argument("serve_model: registry has no model named '" +
                                name + "'");
  }
  if (find_engine(name) != nullptr) {
    throw std::invalid_argument("serve_model: '" + name +
                                "' is already served; use swap_model");
  }
  engines_.push_back(make_engine(name, std::move(pin)));
}

void Gateway::swap_model(const std::string& name, std::uint64_t version) {
  serving::ModelPin pin = registry_.acquire(name, version);
  if (!pin) {
    throw std::invalid_argument("swap_model: registry has no '" + name +
                                "' version " + std::to_string(version));
  }
  for (auto it = engines_.begin(); it != engines_.end(); ++it) {
    if ((*it)->model_name != name) continue;
    if ((*it)->version == version) return;  // already there; drop the pin
    // The old engine keeps ticking on the draining list until every
    // in-flight request retires; only then is it destroyed and its pin
    // (possibly the model's last) released.
    draining_.push_back(std::move(*it));
    engines_.erase(it);
    registry_.note_swap();
    break;
  }
  engines_.push_back(make_engine(name, std::move(pin)));
}

// ----------------------------------------------------------- connections ----

std::uint64_t Gateway::open() {
  const std::uint64_t id = next_conn_id_++;
  conns_[id].id = id;
  connections_accepted_->inc();
  connections_open_->set(static_cast<double>(conns_.size()));
  return id;
}

std::string Gateway::refuse() {
  connections_rejected_->inc();
  return encode_frame(make_error("server at max_connections"));
}

void Gateway::receive(std::uint64_t conn, std::string_view bytes) {
  const auto it = conns_.find(conn);
  if (it == conns_.end() || closing(conn)) return;
  Conn& c = it->second;
  c.reader.feed(bytes.data(), bytes.size());
  while (!c.closing) {
    const std::optional<Frame> f = c.reader.next();
    if (!f) break;
    dispatch(c, *f);
  }
  if (!c.closing && c.reader.error()) {
    protocol_errors_->inc();
    fail(c, make_error(c.reader.error_detail()));
  }
}

void Gateway::hang_up(std::uint64_t conn) {
  if (conns_.erase(conn) == 0) return;
  connections_open_->set(static_cast<double>(conns_.size()));
  cancel_orphans();
}

std::string& Gateway::outbox(std::uint64_t conn) {
  return conns_.at(conn).outbox;
}

bool Gateway::closing(std::uint64_t conn) const {
  const auto it = conns_.find(conn);
  return drained_ || it == conns_.end() || it->second.closing;
}

void Gateway::send(Conn& conn, const Frame& f) {
  if (conn.closing) return;
  conn.outbox += encode_frame(f);
  if (conn.outbox.size() > kMaxOutboxBytes) {
    // The peer stopped reading. Drop it as a failed send would: its
    // output is discarded now, its streams cancelled after the tick.
    conn.outbox.clear();
    conn.closing = true;
  }
}

void Gateway::send(std::uint64_t conn, const Frame& f) {
  const auto it = conns_.find(conn);
  if (it != conns_.end()) send(it->second, f);
}

void Gateway::fail(Conn& conn, const Frame& last) {
  send(conn, last);
  conn.closing = true;
  cancel_orphans();
}

void Gateway::cancel_orphans() {
  for (StreamRef& s : live_) {
    const auto it = conns_.find(s.conn);
    if (it != conns_.end() && !it->second.closing) continue;
    // Cancelled streams retire through the next harvest(); their kDone
    // frames go nowhere because the connection is closing or gone.
    if (s.engine->server->cancel(s.handle)) {
      disconnect_cancels_->inc();
      cancelled_->inc();
    }
  }
}

// --------------------------------------------------------------- dispatch ----

void Gateway::dispatch(Conn& conn, const Frame& f) {
  switch (f.type) {
    case FrameType::kHello:
      handle_hello(conn, f);
      return;
    case FrameType::kSubmit:
      handle_submit(conn, f);
      return;
    case FrameType::kCancel:
      handle_cancel(conn, f);
      return;
    default:
      // Server-to-client frame types are protocol violations when they
      // arrive inbound.
      protocol_errors_->inc();
      fail(conn, make_error(std::string("unexpected ") +
                            std::string(to_string(f.type)) +
                            " frame from client"));
      return;
  }
}

void Gateway::handle_hello(Conn& conn, const Frame& f) {
  if (conn.authed) {
    protocol_errors_->inc();
    fail(conn, make_error("duplicate hello"));
    return;
  }
  const std::size_t idx = tenants_.find_by_key(f.text);
  if (idx == TenantTable::npos) {
    auth_failures_->inc();
    fail(conn, make_reject(0, NetStatus::kBadKey, "unknown API key"));
    return;
  }
  conn.authed = true;
  conn.tenant = idx;
  send(conn, make_hello_ok(tenants_.tenant(idx).name,
                           tenants_.tenant(idx).tier));
}

void Gateway::reject(Conn& conn, std::uint64_t stream_id, NetStatus status,
                     const std::string& detail) {
  rejected_->inc();
  tenant_metrics_[conn.tenant].rejected->inc();
  send(conn, make_reject(stream_id, status, detail));
}

void Gateway::handle_submit(Conn& conn, const Frame& f) {
  if (!conn.authed) {
    auth_failures_->inc();
    fail(conn, make_reject(f.stream_id, NetStatus::kNotAuthed,
                           "submit before hello"));
    return;
  }
  for (const StreamRef& s : live_) {
    if (s.conn == conn.id && s.stream_id == f.stream_id) {
      protocol_errors_->inc();
      fail(conn, make_error("duplicate stream_id " +
                            std::to_string(f.stream_id)));
      return;
    }
  }
  const Tenant& tenant = tenants_.tenant(conn.tenant);
  TenantState& tstate = tenant_state_[conn.tenant];
  TenantMetrics& tm = tenant_metrics_[conn.tenant];

  if (drain_requested_) {
    reject(conn, f.stream_id, NetStatus::kDraining, "server is draining");
    return;
  }
  const std::string& model_name = f.text.empty() ? default_model_ : f.text;
  EngineSlot* engine = find_engine(model_name);
  if (engine == nullptr) {
    reject(conn, f.stream_id, NetStatus::kUnknownModel,
           "no served model named '" + model_name + "'");
    return;
  }
  if (tenant.max_inflight != kUnlimited &&
      tstate.inflight >= tenant.max_inflight) {
    quota_rejected_->inc();
    reject(conn, f.stream_id, NetStatus::kQuotaExceeded,
           "tenant at max_inflight=" + std::to_string(tenant.max_inflight));
    return;
  }
  if (!try_consume(tenant, tstate)) {
    rate_limited_->inc();
    reject(conn, f.stream_id, NetStatus::kRateLimited,
           "tenant token bucket empty");
    return;
  }

  serving::Request req;
  req.priority = tenant.tier;
  req.max_new_tokens = f.max_new_tokens;
  req.eos_token = f.eos_token;
  if (!f.prompt.empty()) {
    req.first_token = f.prompt.front();
    req.prompt_tokens = f.prompt;
  }
  req.embed = engine->pin->embed_fn();
  req.select = engine->pin->select_fn();
  const std::uint64_t conn_id = conn.id;
  const std::uint64_t sid = f.stream_id;
  serving::Counter* tenant_tokens = tm.tokens;
  req.on_token = [this, conn_id, sid, tenant_tokens](
                     std::uint64_t, std::int32_t token, std::size_t index) {
    tokens_streamed_->inc();
    tenant_tokens->inc();
    send(conn_id, make_token(sid, static_cast<std::uint32_t>(index), token));
  };

  const serving::RequestHandle h = engine->server->submit(std::move(req));
  submitted_->inc();
  tm.submitted->inc();

  if (engine->server->finished(h)) {
    // Decided at the door: either an engine-level reject (typed, reusing
    // RejectReason) or a degenerate instant completion (max_new_tokens
    // == 0).
    const serving::RequestStatus st = engine->server->status(h);
    if (st.reject_reason != serving::RejectReason::kNone) {
      reject(conn, f.stream_id, to_net_status(st.reject_reason),
             std::string(to_string(st.reject_reason)));
    } else {
      const nn::GenerationResult& r = engine->server->result(h);
      completed_->inc();
      tm.completed->inc();
      send(conn, make_done(f.stream_id, r.stop_reason,
                           static_cast<std::uint32_t>(r.tokens.size())));
    }
    return;
  }

  ++tstate.inflight;
  live_.push_back(StreamRef{conn.id, f.stream_id, engine, h, conn.tenant});
}

void Gateway::handle_cancel(Conn& conn, const Frame& f) {
  if (!conn.authed) {
    auth_failures_->inc();
    fail(conn, make_reject(f.stream_id, NetStatus::kNotAuthed,
                           "cancel before hello"));
    return;
  }
  for (StreamRef& s : live_) {
    if (s.conn == conn.id && s.stream_id == f.stream_id) {
      if (s.engine->server->cancel(s.handle)) cancelled_->inc();
      // The stream retires through harvest() like any other finish, so
      // the client still gets its kDone (cancelled).
      return;
    }
  }
  // Unknown stream: already finished or never existed — a no-op, like
  // cancelling a finished request on the engine.
}

// ------------------------------------------------------------------ drive ----

bool Gateway::step(core::ExecContext& ctx) {
  // One deterministic bucket refill per drive iteration — the network
  // layer's tick clock, matching the engines' logical time.
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    refill_bucket(tenants_.tenant(i), tenant_state_[i]);
  }
  for (auto& e : engines_) {
    if (!e->server->idle()) e->server->tick(ctx);
  }
  for (auto& e : draining_) {
    if (!e->server->idle()) e->server->tick(ctx);
  }
  // An outbox that overflowed inside a token callback closed its
  // connection mid-tick; cancelling from inside the tick would re-enter
  // the engine, so its streams are cancelled here.
  cancel_orphans();
  harvest();

  // Destroy drained engines (releasing their model pins): idle means no
  // queued or active requests, and harvest() cleared any finished streams.
  std::erase_if(draining_, [](const std::unique_ptr<EngineSlot>& e) {
    return e->server->idle();
  });

  bool busy = !draining_.empty();
  for (auto& e : engines_) busy = busy || !e->server->idle();
  if (drain_requested_ && !drained_) {
    if (busy && ++drain_result_.drain_ticks_used >= drain_budget_) {
      // Budget exhausted: cancel what remains so clients get a terminal
      // kDone (cancelled) rather than silence.
      for (auto& s : live_) {
        if (s.engine->server->cancel(s.handle)) {
          cancelled_->inc();
          ++drain_result_.cancelled;
        }
      }
      harvest();
      busy = false;
    }
    drained_ = !busy;
  }

  engines_active_->set(static_cast<double>(engines_.size()));
  engines_draining_->set(static_cast<double>(draining_.size()));
  streams_live_->set(static_cast<double>(live_.size()));
  registry_.refresh_gauges();
  return busy;
}

void Gateway::harvest() {
  for (auto it = live_.begin(); it != live_.end();) {
    if (!it->engine->server->finished(it->handle)) {
      ++it;
      continue;
    }
    const nn::GenerationResult& r = it->engine->server->result(it->handle);
    if (r.stop_reason != nn::StopReason::kCancelled) {
      // Cancels are counted by whoever cancelled (client, hang-up, drain).
      completed_->inc();
      tenant_metrics_[it->tenant].completed->inc();
    }
    send(it->conn, make_done(it->stream_id, r.stop_reason,
                             static_cast<std::uint32_t>(r.tokens.size())));
    --tenant_state_[it->tenant].inflight;
    it = live_.erase(it);
  }
}

void Gateway::drain(std::size_t budget) {
  if (drain_requested_) return;
  drain_requested_ = true;
  drain_budget_ = budget;
}

}  // namespace et::net
