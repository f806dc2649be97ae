// The network front-end (ctest label `net`): the frame codec, the token
// bucket, the socket-free net::Gateway, and the net::ApiServer shell on
// real loopback sockets — auth, tenant rate/quota enforcement, framed
// request/stream/cancel round-trips, disconnect-propagates-cancel,
// graceful drain, and the hot-swap capstone: a mid-storm model swap must
// drop zero in-flight requests, keep pre-swap transcripts bit-identical
// to the old version, decode post-swap submissions on the new version,
// and return the registry gauges to steady state once the old engine
// drains.
//
// Gateway tests are scripts: bytes in through receive(), one step() per
// drive iteration, bytes out of each outbox. Nothing races, so every
// count they assert is exact and none of them sleeps, retries or reads a
// clock. Transcripts are compared with references computed in-process
// on the same pinned weights. Socket tests cover only what the shell
// itself does: accepting and turning away, EOF, frames split across
// recv() calls, flushing output, its one drive thread, a client that
// stops reading, and graceful shutdown with a live client.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/auth.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/gateway.hpp"
#include "net/server.hpp"
#include "serving/registry.hpp"

namespace {

using et::net::ApiServer;
using et::net::ApiServerConfig;
using et::net::Client;
using et::net::Frame;
using et::net::FrameReader;
using et::net::FrameType;
using et::net::Gateway;
using et::net::NetStatus;
using et::net::Tenant;
using et::net::TenantTable;
using et::net::encode_frame;
using et::net::make_cancel;
using et::net::make_hello;
using et::net::make_submit;
using et::nn::StopReason;
using et::serving::ModelPin;
using et::serving::ModelRegistry;
using et::serving::Priority;

// ---------------------------------------------------------------------------
// Frame codec (no sockets).
// ---------------------------------------------------------------------------

Frame round_trip(const Frame& in) {
  const std::string wire = encode_frame(in);
  FrameReader reader;
  // Feed byte by byte: the parser must reassemble whatever chunk
  // boundaries TCP hands it.
  for (char c : wire) reader.feed(&c, 1);
  auto f = reader.next();
  EXPECT_TRUE(f.has_value());
  EXPECT_FALSE(reader.error()) << reader.error_detail();
  return f.value_or(Frame{});
}

TEST(FrameCodec, EveryTypeRoundTripsByteByByte) {
  const Frame hello = round_trip(make_hello("key-123"));
  EXPECT_EQ(hello.type, FrameType::kHello);
  EXPECT_EQ(hello.text, "key-123");

  const Frame ok = round_trip(et::net::make_hello_ok("bulk", Priority::kBulk));
  EXPECT_EQ(ok.type, FrameType::kHelloOk);
  EXPECT_EQ(ok.text, "bulk");
  EXPECT_EQ(ok.code, static_cast<std::uint8_t>(Priority::kBulk));

  const Frame submit =
      round_trip(make_submit(42, "model-a", {3, 1, 4, 1, 5}, 16, 7));
  EXPECT_EQ(submit.type, FrameType::kSubmit);
  EXPECT_EQ(submit.stream_id, 42u);
  EXPECT_EQ(submit.text, "model-a");
  EXPECT_EQ(submit.prompt, (std::vector<std::int32_t>{3, 1, 4, 1, 5}));
  EXPECT_EQ(submit.max_new_tokens, 16u);
  EXPECT_EQ(submit.eos_token, 7);

  const Frame token = round_trip(et::net::make_token(42, 3, -9));
  EXPECT_EQ(token.type, FrameType::kToken);
  EXPECT_EQ(token.stream_id, 42u);
  EXPECT_EQ(token.index, 3u);
  EXPECT_EQ(token.token, -9);

  const Frame done = round_trip(et::net::make_done(42, StopReason::kEos, 11));
  EXPECT_EQ(done.type, FrameType::kDone);
  EXPECT_EQ(static_cast<StopReason>(done.code), StopReason::kEos);
  EXPECT_EQ(done.index, 11u);

  const Frame reject = round_trip(
      et::net::make_reject(42, NetStatus::kRateLimited, "bucket empty"));
  EXPECT_EQ(reject.type, FrameType::kReject);
  EXPECT_EQ(static_cast<NetStatus>(reject.code), NetStatus::kRateLimited);
  EXPECT_EQ(reject.text, "bucket empty");

  EXPECT_EQ(round_trip(make_cancel(42)).stream_id, 42u);
  EXPECT_EQ(round_trip(et::net::make_error("boom")).text, "boom");
}

TEST(FrameCodec, TwoFramesInOneFeedPopInOrder) {
  const std::string wire =
      encode_frame(et::net::make_token(1, 0, 5)) +
      encode_frame(et::net::make_done(1, StopReason::kMaxTokens, 1));
  FrameReader reader;
  reader.feed(wire.data(), wire.size());
  const auto a = reader.next();
  const auto b = reader.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->type, FrameType::kToken);
  EXPECT_EQ(b->type, FrameType::kDone);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_FALSE(reader.error());
}

TEST(FrameCodec, MalformedInputIsAPermanentError) {
  {  // oversized length prefix must not allocate, just error
    FrameReader reader;
    const std::uint32_t huge = et::net::kMaxFramePayload + 1;
    char hdr[4];
    std::memcpy(hdr, &huge, 4);
    reader.feed(hdr, 4);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.error());
    EXPECT_NE(reader.error_detail().find("exceeds"), std::string::npos);
  }
  {  // unknown type byte
    FrameReader reader;
    const char frame[] = {5, 0, 0, 0, 99, 0, 0, 0, 0};
    reader.feed(frame, sizeof frame);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.error());
    EXPECT_NE(reader.error_detail().find("unknown frame type"),
              std::string::npos);
  }
  {  // truncated payload: a submit frame cut off before its fields
    FrameReader reader;
    const char frame[] = {2, 0, 0, 0, 3, 9};
    reader.feed(frame, sizeof frame);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.error());
    EXPECT_NE(reader.error_detail().find("truncated"), std::string::npos);
    // Permanent: even a well-formed follow-up frame stays unread.
    const std::string good = encode_frame(make_cancel(1));
    reader.feed(good.data(), good.size());
    EXPECT_FALSE(reader.next().has_value());
  }
}

TEST(TokenBucket, DeterministicRefillAndConsume) {
  Tenant t;
  t.bucket_capacity = 2;
  t.refill_per_tick = 1;
  et::net::TenantState s;
  s.bucket = 2;
  EXPECT_TRUE(et::net::try_consume(t, s));
  EXPECT_TRUE(et::net::try_consume(t, s));
  EXPECT_FALSE(et::net::try_consume(t, s));  // empty
  et::net::refill_bucket(t, s);
  EXPECT_TRUE(et::net::try_consume(t, s));
  // Refill clamps at capacity.
  for (int i = 0; i < 5; ++i) et::net::refill_bucket(t, s);
  EXPECT_EQ(s.bucket, 2u);

  Tenant unlimited;  // default: no rate limit
  et::net::TenantState us;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(et::net::try_consume(unlimited, us));
  }
}

// ---------------------------------------------------------------------------
// Shared fixtures.
// ---------------------------------------------------------------------------

// Long enough for the longest stream any test runs.
constexpr std::size_t kMaxContext = 2048;

struct Stack {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

Stack make_stack(std::uint64_t seed, std::size_t max_context) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  Stack s;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    s.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  s.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg, max_context,
                              /*causal=*/true);
  s.opt.attn.precision = et::numeric::Precision::kFp32;
  return s;
}

/// "m" v1 (seed 100) and v2 (seed 200). serve_model pins the newest
/// version (v2); the hot-swap tests flip to v1 first so their storm swaps
/// 1 -> 2.
void load_models(ModelRegistry& registry,
                 std::size_t max_context = kMaxContext) {
  for (const auto& [version, seed] :
       std::vector<std::pair<std::uint64_t, std::uint64_t>>{{1, 100},
                                                            {2, 200}}) {
    Stack s = make_stack(seed, max_context);
    registry.add("m", version, std::move(s.layers), s.opt, max_context);
  }
}

/// Tenant table the suite uses; deterministic on purpose:
///  - "fast":    interactive, no rate limit, no quota (the happy path);
///  - "limited": burst of 3 that NEVER refills (exact reject counts);
///  - "small":   bulk, in-flight quota of 2, no rate limit;
///  - "bulk":    bulk, no rate limit, no quota (floods).
TenantTable test_tenants() {
  Tenant fast{"fast", "key-fast", Priority::kInteractive};
  Tenant limited{"limited", "key-limited", Priority::kNormal,
                 /*bucket_capacity=*/3, /*refill_per_tick=*/0};
  Tenant small{"small", "key-small", Priority::kBulk};
  small.max_inflight = 2;
  Tenant bulk{"bulk", "key-bulk", Priority::kBulk};
  return TenantTable({fast, limited, small, bulk});
}

et::serving::ServerConfig engine_config(std::size_t max_batch,
                                        std::size_t queue_capacity) {
  et::serving::ServerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.queue_capacity = queue_capacity;
  return cfg;
}

/// The in-process reference transcript for (version, first_token): the
/// same pinned weights and decode head driven through a plain serving
/// engine — what the wire transcript must equal bit for bit.
std::vector<std::int32_t> reference(ModelRegistry& reg, std::uint64_t version,
                                    std::int32_t first_token,
                                    std::size_t tokens) {
  const ModelPin pin = reg.acquire("m", version);
  if (pin == nullptr) {
    ADD_FAILURE() << "version " << version << " not loaded";
    return {};
  }
  et::gpusim::Device dev(et::gpusim::v100s());
  et::core::ExecContext ctx(dev, 1);
  et::serving::InferenceServer server(pin->model(), engine_config(4, 64));
  et::serving::Request req;
  req.first_token = first_token;
  req.max_new_tokens = tokens;
  req.embed = pin->embed_fn();
  req.select = pin->select_fn();
  const auto h = server.submit(std::move(req));
  return server.wait(h, ctx).tokens;
}

/// Collected outcome of one stream.
struct StreamResult {
  std::vector<std::int32_t> tokens;
  bool done = false;
  StopReason stop = StopReason::kMaxTokens;
  bool rejected = false;
  NetStatus reject_status = NetStatus::kQueueFull;

  [[nodiscard]] bool terminal() const { return done || rejected; }
};
using Streams = std::map<std::uint64_t, StreamResult>;

/// File one server frame under its stream, checking token order and the
/// done count along the way.
void record(Streams& out, const Frame& f) {
  StreamResult& r = out[f.stream_id];
  switch (f.type) {
    case FrameType::kToken:
      EXPECT_EQ(f.index, r.tokens.size()) << "token index gap";
      r.tokens.push_back(f.token);
      return;
    case FrameType::kDone:
      r.done = true;
      r.stop = static_cast<StopReason>(f.code);
      EXPECT_EQ(f.index, r.tokens.size()) << "done count mismatch";
      return;
    case FrameType::kReject:
      r.rejected = true;
      r.reject_status = static_cast<NetStatus>(f.code);
      return;
    default:
      ADD_FAILURE() << "unexpected frame " << std::string(to_string(f.type));
  }
}

// ---------------------------------------------------------------------------
// Gateway fixture: scripted, no sockets, no threads.
// ---------------------------------------------------------------------------

/// Steps any scripted run may take before it counts as hung.
constexpr std::size_t kStepCap = 100000;

struct GatewayHarness {
  et::gpusim::Device dev{et::gpusim::v100s()};
  et::core::ExecContext ctx;
  ModelRegistry registry;
  std::unique_ptr<Gateway> gw;

  explicit GatewayHarness(std::size_t threads = 1, std::size_t max_batch = 4,
                          std::size_t queue_capacity = 64,
                          std::size_t max_context = kMaxContext)
      : ctx(dev, threads) {
    load_models(registry, max_context);
    gw = std::make_unique<Gateway>(test_tenants(), registry, "m",
                                   engine_config(max_batch, queue_capacity));
    gw->serve_model("m");
  }

  void send(std::uint64_t conn, const Frame& f) {
    gw->receive(conn, encode_frame(f));
  }

  /// Everything queued for `conn`, taken off its outbox.
  std::string take_bytes(std::uint64_t conn) {
    return std::exchange(gw->outbox(conn), std::string());
  }

  std::vector<Frame> take(std::uint64_t conn) {
    const std::string bytes = take_bytes(conn);
    FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    std::vector<Frame> frames;
    while (auto f = reader.next()) frames.push_back(std::move(*f));
    EXPECT_FALSE(reader.error()) << reader.error_detail();
    return frames;
  }

  /// open() + hello; the hello_ok is checked and consumed.
  std::uint64_t connect(const std::string& key) {
    const std::uint64_t conn = gw->open();
    send(conn, make_hello(key));
    const std::vector<Frame> frames = take(conn);
    EXPECT_EQ(frames.size(), 1u);
    if (!frames.empty()) {
      EXPECT_EQ(frames[0].type, FrameType::kHelloOk);
    }
    return conn;
  }

  void step() { gw->step(ctx); }

  /// Take `conn`'s frames into `out`, stepping until every listed stream
  /// is terminal.
  Streams run(std::uint64_t conn, const std::vector<std::uint64_t>& streams,
              Streams out = {}) {
    for (std::size_t steps = 0;; ++steps) {
      for (const Frame& f : take(conn)) record(out, f);
      bool open = false;
      for (auto id : streams) open = open || !out[id].terminal();
      if (!open) break;
      if (steps == kStepCap) {
        ADD_FAILURE() << "streams still open after " << kStepCap << " steps";
        break;
      }
      step();
    }
    return out;
  }

  [[nodiscard]] double metric(const std::string& name) const {
    for (const auto& f : gw->metrics().scalars()) {
      if (f.name == name) return f.value;
    }
    ADD_FAILURE() << "no metric named " << name;
    return -1.0;
  }
};

// ---------------------------------------------------------------------------
// Socket fixture: the shell on an ephemeral loopback port.
// ---------------------------------------------------------------------------

struct NetHarness {
  et::gpusim::Device dev{et::gpusim::v100s()};
  std::unique_ptr<et::core::ExecContext> ctx;
  ModelRegistry registry;
  std::unique_ptr<ApiServer> server;

  explicit NetHarness(std::size_t threads = 1, std::size_t max_batch = 4,
                      std::size_t queue_capacity = 64) {
    ctx = std::make_unique<et::core::ExecContext>(dev, threads);
    load_models(registry);
    ApiServerConfig cfg;
    cfg.port = 0;
    cfg.max_connections = 8;
    cfg.default_model = "m";
    cfg.engine = engine_config(max_batch, queue_capacity);
    server = std::make_unique<ApiServer>(cfg, test_tenants(), registry);
    server->serve_model("m");
    server->start(*ctx);
  }

  ~NetHarness() {
    if (server) server->shutdown(/*drain_ticks=*/1000);
  }

  Client connect(const std::string& key) {
    Client c;
    c.connect(server->port());
    const auto ok = c.hello(key);
    EXPECT_TRUE(ok.has_value());
    if (ok.has_value()) {
      EXPECT_EQ(ok->type, FrameType::kHelloOk);
    }
    return c;
  }

  double metric(const std::string& name) const {
    return server->scalar_value(name);
  }

  /// For effects the drive thread applies after the client's last call
  /// returned (an EOF it has yet to read).
  bool wait_metric(const std::string& name, double want,
                   int timeout_ms = 10000) const {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (metric(name) == want) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }
};

/// Pump a client until every listed stream is terminal.
Streams pump_streams(Client& client, const std::vector<std::uint64_t>& ids,
                     Streams out = {}) {
  for (auto id : ids) out[id];
  for (;;) {
    bool open = false;
    for (auto id : ids) open = open || !out[id].terminal();
    if (!open) break;
    const auto f = client.next();
    if (!f.has_value()) {
      ADD_FAILURE() << "connection lost: " << client.error_detail();
      break;
    }
    if (out.find(f->stream_id) == out.end()) {
      ADD_FAILURE() << "frame for unknown stream " << f->stream_id;
      break;
    }
    record(out, *f);
  }
  return out;
}

/// A plain loopback socket, for what net::Client does not do: write
/// partial frames, or shrink its receive buffer (before connecting, so
/// the advertised window is small from the start).
int raw_connect(std::uint16_t port, int rcvbuf = 0) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf > 0) {
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t w =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << std::strerror(errno);
    off += static_cast<std::size_t>(w);
  }
}

// ---------------------------------------------------------------------------
// Auth.
// ---------------------------------------------------------------------------
TEST(NetAuth, GoodKeyAuthenticatesWithTierEcho) {
  GatewayHarness h;
  const auto c = h.gw->open();
  h.send(c, make_hello("key-limited"));
  const auto frames = h.take(c);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kHelloOk);
  EXPECT_EQ(frames[0].text, "limited");
  EXPECT_EQ(static_cast<Priority>(frames[0].code), Priority::kNormal);
  EXPECT_FALSE(h.gw->closing(c));
}

TEST(NetAuth, BadKeyIsRejectedAndDisconnected) {
  NetHarness h;
  Client c;
  c.connect(h.server->port());
  const auto r = c.hello("key-wrong");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, FrameType::kReject);
  EXPECT_EQ(static_cast<NetStatus>(r->code), NetStatus::kBadKey);
  EXPECT_FALSE(c.next().has_value());  // server hung up
  EXPECT_FALSE(c.connected());
  // Counted before the reject was written.
  EXPECT_EQ(h.metric("net_auth_failures"), 1.0);
}

TEST(NetAuth, SubmitBeforeHelloIsRejected) {
  GatewayHarness h;
  const auto c = h.gw->open();
  h.send(c, make_submit(1, "", {3}, 4));
  const auto frames = h.take(c);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kReject);
  EXPECT_EQ(static_cast<NetStatus>(frames[0].code), NetStatus::kNotAuthed);
  // The gateway is done with the connection: nothing more is read or sent.
  EXPECT_TRUE(h.gw->closing(c));
  h.send(c, make_hello("key-fast"));
  EXPECT_TRUE(h.take(c).empty());
  EXPECT_EQ(h.metric("net_auth_failures"), 1.0);
}

// ---------------------------------------------------------------------------
// Streaming round-trips.
// ---------------------------------------------------------------------------

class NetStreamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetStreamTest, WireTranscriptMatchesInProcessReference) {
  GatewayHarness h(/*threads=*/GetParam());
  const auto c = h.connect("key-fast");
  h.send(c, make_submit(7, "m", {3}, 6));
  const Streams out = h.run(c, {7});
  const StreamResult& r = out.at(7);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.stop, StopReason::kMaxTokens);
  // The gateway serves the newest version (v2) — pin the expectation.
  EXPECT_EQ(r.tokens, reference(h.registry, 2, 3, 6));
}

TEST_P(NetStreamTest, OneConnectionMultiplexesConcurrentStreams) {
  GatewayHarness h(/*threads=*/GetParam());
  const auto c = h.connect("key-fast");
  const std::vector<std::uint64_t> ids = {1, 2, 3, 4};
  for (auto id : ids) {
    h.send(c, make_submit(id, "", {static_cast<std::int32_t>(id)}, 5));
  }
  const Streams out = h.run(c, ids);
  for (auto id : ids) {
    const StreamResult& r = out.at(id);
    ASSERT_TRUE(r.done) << "stream " << id;
    EXPECT_EQ(r.tokens,
              reference(h.registry, 2, static_cast<std::int32_t>(id), 5))
        << "stream " << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, NetStreamTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& pinfo) {
                           return "threads_" + std::to_string(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// Admission enforcement.
// ---------------------------------------------------------------------------
TEST(NetAdmission, RateLimitRejectsBeyondTheBucket) {
  GatewayHarness h;
  // "limited" has a burst of 3 and a refill of ZERO: of 5 submissions,
  // exactly 3 are admitted and 2 are rate-limited.
  const auto c = h.connect("key-limited");
  const std::vector<std::uint64_t> ids = {1, 2, 3, 4, 5};
  for (auto id : ids) h.send(c, make_submit(id, "", {1}, 2));
  const Streams out = h.run(c, ids);
  std::size_t done = 0;
  std::size_t limited = 0;
  for (const auto& [id, r] : out) {
    if (r.done) ++done;
    if (r.rejected) {
      EXPECT_EQ(r.reject_status, NetStatus::kRateLimited) << "stream " << id;
      ++limited;
    }
  }
  EXPECT_EQ(done, 3u);
  EXPECT_EQ(limited, 2u);
  EXPECT_EQ(h.metric("net_rate_limited"), 2.0);
  EXPECT_EQ(h.metric("tenant_limited_rejected"), 2.0);
  EXPECT_EQ(h.metric("tenant_limited_completed"), 3.0);
}

TEST(NetAdmission, InflightQuotaRejectsAndRecovers) {
  GatewayHarness h;
  // "small" may hold 2 generations in flight; the third submission
  // arrives while both are still queued.
  const auto c = h.connect("key-small");
  h.send(c, make_submit(1, "", {1}, 40));
  h.send(c, make_submit(2, "", {2}, 40));
  h.send(c, make_submit(3, "", {3}, 2));
  const Streams out = h.run(c, {1, 2, 3});
  EXPECT_TRUE(out.at(1).done);
  EXPECT_TRUE(out.at(2).done);
  ASSERT_TRUE(out.at(3).rejected);
  EXPECT_EQ(out.at(3).reject_status, NetStatus::kQuotaExceeded);
  EXPECT_TRUE(out.at(3).tokens.empty());
  // Quota is released with completion: a fresh submit now succeeds.
  h.send(c, make_submit(4, "", {3}, 2));
  EXPECT_TRUE(h.run(c, {4}).at(4).done);
  EXPECT_EQ(h.metric("net_quota_rejected"), 1.0);
}

TEST(NetAdmission, QueueFullRejectReusesEngineRejectReason) {
  // A 1-slot engine with a 2-deep queue: a burst of 8 submissions lands
  // before any tick, so the first 2 fill the queue and the other 6 bounce
  // with the engine's own typed queue_full reject.
  GatewayHarness h(/*threads=*/1, /*max_batch=*/1, /*queue_capacity=*/2);
  const auto c = h.connect("key-fast");
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ids.push_back(id);
    h.send(c, make_submit(id, "", {static_cast<std::int32_t>(id)}, 20));
  }
  const Streams out = h.run(c, ids);
  std::size_t done = 0;
  std::size_t queue_full = 0;
  for (const auto& [id, r] : out) {
    if (r.done) ++done;
    if (r.rejected) {
      EXPECT_EQ(r.reject_status, NetStatus::kQueueFull) << "stream " << id;
      EXPECT_GT(id, 2u);
      ++queue_full;
    }
  }
  EXPECT_EQ(done, 2u);
  EXPECT_EQ(queue_full, 6u);
  EXPECT_EQ(h.metric("net_requests_rejected"), 6.0);
}

TEST(NetAdmission, UnknownModelIsATypedReject) {
  GatewayHarness h;
  const auto c = h.connect("key-fast");
  h.send(c, make_submit(1, "never-loaded", {1}, 2));
  const Streams out = h.run(c, {1});
  ASSERT_TRUE(out.at(1).rejected);
  EXPECT_EQ(out.at(1).reject_status, NetStatus::kUnknownModel);
}

TEST(NetAdmission, DuplicateStreamIdIsAProtocolError) {
  GatewayHarness h;
  const auto c = h.connect("key-fast");
  h.send(c, make_submit(100, "", {1}, 50));
  h.step();  // stream 100 is live and decoding
  h.send(c, make_submit(100, "", {2}, 50));  // same id while it is live
  const auto frames = h.take(c);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kToken);
  ASSERT_EQ(frames[1].type, FrameType::kError);
  EXPECT_NE(frames[1].text.find("duplicate stream_id 100"), std::string::npos);
  EXPECT_TRUE(h.gw->closing(c));
  EXPECT_EQ(h.metric("net_protocol_errors"), 1.0);
  // The dropped connection's live stream was cancelled, not leaked.
  EXPECT_EQ(h.metric("net_disconnect_cancels"), 1.0);
  h.step();
  EXPECT_EQ(h.metric("net_streams_live"), 0.0);
  EXPECT_TRUE(h.take(c).empty());  // nothing follows the error
}

// ---------------------------------------------------------------------------
// Cancel paths.
// ---------------------------------------------------------------------------
TEST(NetCancel, ClientCancelFinishesWithCancelledStop) {
  GatewayHarness h;
  const auto c = h.connect("key-fast");
  h.send(c, make_submit(1, "", {1}, 1000));
  h.step();  // the first token streams
  Streams out = h.run(c, {});
  ASSERT_EQ(out[1].tokens.size(), 1u);
  h.send(c, make_cancel(1));
  EXPECT_EQ(h.metric("net_requests_cancelled"), 1.0);
  // The stream retires on the next step: kDone (cancelled), the one
  // streamed token kept.
  h.step();
  out = h.run(c, {1}, std::move(out));
  ASSERT_TRUE(out.at(1).done);
  EXPECT_EQ(out.at(1).stop, StopReason::kCancelled);
  EXPECT_EQ(out.at(1).tokens.size(), 1u);
  EXPECT_EQ(h.metric("net_requests_cancelled"), 1.0);
}

TEST(NetCancel, DisconnectCancelsEveryLiveStream) {
  GatewayHarness h;
  const auto c = h.connect("key-fast");
  h.send(c, make_submit(1, "", {1}, 1000));
  h.send(c, make_submit(2, "", {2}, 1000));
  h.step();  // both admitted and decoding
  EXPECT_EQ(h.metric("net_streams_live"), 2.0);
  h.gw->hang_up(c);  // abrupt disconnect, no cancel frames
  EXPECT_EQ(h.metric("net_disconnect_cancels"), 2.0);
  EXPECT_EQ(h.metric("net_requests_cancelled"), 2.0);
  EXPECT_EQ(h.metric("net_connections_open"), 0.0);
  // The slots are released: the next step finds nothing to do.
  EXPECT_FALSE(h.gw->step(h.ctx));
  EXPECT_EQ(h.metric("net_streams_live"), 0.0);
}

// ---------------------------------------------------------------------------
// Connection pool bound (shell).
// ---------------------------------------------------------------------------
TEST(NetPool, ConnectionsBeyondTheCapAreTurnedAway) {
  NetHarness h;  // max_connections = 8
  std::vector<Client> held;
  for (int i = 0; i < 8; ++i) held.push_back(h.connect("key-fast"));
  Client extra;
  extra.connect(h.server->port());
  const auto f = extra.next();  // kError, then the door
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kError);
  EXPECT_NE(f->text.find("max_connections"), std::string::npos);
  EXPECT_FALSE(extra.next().has_value());
  EXPECT_EQ(h.metric("net_connections_rejected"), 1.0);
  // The pool recovers: close one held connection (the shell reads its
  // EOF), and the next connect works.
  held.pop_back();
  EXPECT_TRUE(h.wait_metric("net_connections_open", 7.0));
  Client again = h.connect("key-fast");
  EXPECT_TRUE(again.connected());
}

// ---------------------------------------------------------------------------
// Graceful shutdown.
// ---------------------------------------------------------------------------
TEST(NetShutdown, DrainLetsInflightWorkFinish) {
  NetHarness h;
  Client c = h.connect("key-fast");
  c.submit(1, "", {3}, 10);
  const auto first = c.next();  // admitted and streaming
  ASSERT_TRUE(first.has_value());
  ASSERT_EQ(first->type, FrameType::kToken);
  const auto dr = h.server->shutdown(/*drain_ticks=*/1000);
  EXPECT_EQ(dr.cancelled, 0u);  // budget was enough: nothing cancelled
  EXPECT_FALSE(h.server->running());
  // Idempotent: a second shutdown reports the same result.
  const auto again = h.server->shutdown(9);
  EXPECT_EQ(again.cancelled, 0u);
  EXPECT_EQ(again.drain_ticks_used, dr.drain_ticks_used);
  // The client still gets its complete, bit-exact stream, then EOF.
  Streams out;
  record(out, *first);
  out = pump_streams(c, {1}, std::move(out));
  EXPECT_EQ(out.at(1).stop, StopReason::kMaxTokens);
  EXPECT_EQ(out.at(1).tokens, reference(h.registry, 2, 3, 10));
  EXPECT_FALSE(c.next().has_value());
}

TEST(NetShutdown, ExhaustedDrainBudgetCancelsTheRemainder) {
  GatewayHarness h;
  const auto c = h.connect("key-fast");
  // 1000 tokens fit the context, so the stream cannot end early with a
  // kv-full stop.
  h.send(c, make_submit(1, "", {3}, 1000));
  h.step();
  h.gw->drain(/*budget=*/2);
  EXPECT_TRUE(h.gw->step(h.ctx));  // first tick of the budget
  EXPECT_FALSE(h.gw->drained());
  EXPECT_FALSE(h.gw->step(h.ctx));  // second tick spends it: cancelled
  EXPECT_TRUE(h.gw->drained());
  EXPECT_EQ(h.gw->drain_result().drain_ticks_used, 2u);
  EXPECT_EQ(h.gw->drain_result().cancelled, 1u);
  // The wire still ends with a terminal done (cancelled), not silence.
  const Streams out = h.run(c, {1});
  EXPECT_EQ(out.at(1).stop, StopReason::kCancelled);
  EXPECT_EQ(out.at(1).tokens.size(), 3u);
  EXPECT_TRUE(h.gw->closing(c));  // the shell flushes it, then closes
  // A second drain request changes nothing.
  h.gw->drain(9);
  EXPECT_EQ(h.gw->drain_result().cancelled, 1u);
  EXPECT_EQ(h.gw->drain_result().drain_ticks_used, 2u);
}

TEST(NetShutdown, SubmitDuringDrainIsRejectedAsDraining) {
  GatewayHarness h;
  const auto c = h.connect("key-fast");
  h.send(c, make_submit(1, "", {1}, 1000));
  h.step();
  h.gw->drain(/*budget=*/100000);
  h.send(c, make_submit(2, "", {2}, 1));
  Streams out = h.run(c, {2});
  EXPECT_EQ(out.at(2).reject_status, NetStatus::kDraining);
  EXPECT_FALSE(h.gw->closing(c));  // a typed reject, not a hang-up
  // Cancel stream 1 so the drain does not sit through its generation.
  h.send(c, make_cancel(1));
  EXPECT_FALSE(h.gw->step(h.ctx));
  EXPECT_TRUE(h.gw->drained());
  EXPECT_EQ(h.gw->drain_result().cancelled, 0u);
  out = h.run(c, {1}, std::move(out));
  EXPECT_EQ(out.at(1).stop, StopReason::kCancelled);
}

// ---------------------------------------------------------------------------
// The hot-swap capstone.
// ---------------------------------------------------------------------------

class NetSwapTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetSwapTest, HotSwapUnderLoadDropsNothingAndSplitsVersions) {
  GatewayHarness h(/*threads=*/GetParam(), /*max_batch=*/4);
  // The gateway serves newest (v2); flip to v1 so the storm swaps 1 -> 2.
  h.gw->swap_model("m", 1);

  const auto c = h.connect("key-fast");
  constexpr std::size_t kTokens = 12;
  const std::vector<std::uint64_t> pre = {1, 2, 3, 4};
  for (auto id : pre) {
    h.send(c, make_submit(id, "", {static_cast<std::int32_t>(10 + id)},
                          kTokens));
  }
  // Every pre-swap stream is admitted before the swap lands: max_batch=4
  // gives each a slot, so one step starts all four.
  h.step();
  Streams results = h.run(c, {});
  for (auto id : pre) ASSERT_EQ(results[id].tokens.size(), 1u);

  // Swap mid-storm, then submit the post-swap wave on the same wire.
  h.gw->swap_model("m", 2);
  const std::vector<std::uint64_t> post = {11, 12, 13, 14};
  for (auto id : post) {
    h.send(c, make_submit(id, "", {static_cast<std::int32_t>(id)}, kTokens));
  }
  // Run everything to terminal frames: ZERO streams may be dropped.
  std::vector<std::uint64_t> all = pre;
  all.insert(all.end(), post.begin(), post.end());
  results = h.run(c, all, std::move(results));

  // Requests admitted pre-swap completed on the OLD version,
  // bit-identical to an undisturbed v1 run; post-swap submissions used
  // the NEW version. Same first_token on both sides of the swap, so any
  // cross-talk would show up as the wrong transcript.
  for (auto id : pre) {
    const StreamResult& r = results.at(id);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.stop, StopReason::kMaxTokens);
    EXPECT_EQ(r.tokens,
              reference(h.registry, 1, static_cast<std::int32_t>(10 + id),
                        kTokens))
        << "pre-swap stream " << id << " not bit-identical to v1";
  }
  for (auto id : post) {
    const StreamResult& r = results.at(id);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.stop, StopReason::kMaxTokens);
    EXPECT_EQ(r.tokens, reference(h.registry, 2,
                                  static_cast<std::int32_t>(id), kTokens))
        << "post-swap stream " << id << " not on v2";
  }

  // Steady state after the drain: the old engine is destroyed, its pin
  // released — one active engine, one pin, gauges back to baseline.
  EXPECT_EQ(h.metric("net_engines_draining"), 0.0);
  EXPECT_EQ(h.metric("net_streams_live"), 0.0);
  EXPECT_EQ(h.metric("active_pins"), 1.0);
  EXPECT_EQ(h.metric("models_loaded"), 2.0);
  EXPECT_EQ(h.metric("net_engines_active"), 1.0);
  EXPECT_EQ(h.metric("swaps"), 2.0);  // the setup flip + the storm swap
  EXPECT_EQ(h.metric("net_requests_completed"), 8.0);
  EXPECT_EQ(h.metric("net_requests_cancelled"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, NetSwapTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& pinfo) {
                           return "threads_" + std::to_string(pinfo.param);
                         });

// ---------------------------------------------------------------------------
// Gateway determinism: one session against an engine oracle.
// ---------------------------------------------------------------------------

/// Per step: for each connection, the encoded token frames it was sent.
using StepTokens = std::vector<std::map<std::uint64_t, std::string>>;

struct SessionLog {
  std::map<std::uint64_t, std::string> bytes;  ///< everything each conn got
  StepTokens tokens;
  std::vector<double> counts;  ///< the metrics listed in kSessionMetrics
  et::net::DrainResult drain;
};

const std::vector<std::string> kSessionMetrics = {
    "net_protocol_errors", "net_disconnect_cancels", "net_requests_cancelled",
    "net_requests_completed", "swaps"};

// Connections A (fast, interactive), B (small, bulk) and C (limited,
// normal). Three steps with four streams live; A cancels one, B reuses a
// live stream id (protocol error: B dropped), C hangs up, the model swaps
// to v1, A submits on the new engine, and a drain of three ticks runs out
// with A's last stream still decoding.
SessionLog scripted_session(std::size_t threads) {
  GatewayHarness h(threads);
  SessionLog log;
  std::vector<std::uint64_t> open;
  const auto collect = [&](bool stepped) {
    std::map<std::uint64_t, std::string> tokens;
    for (auto it = open.begin(); it != open.end();) {
      const std::string bytes = h.take_bytes(*it);
      log.bytes[*it] += bytes;
      FrameReader reader;
      reader.feed(bytes.data(), bytes.size());
      while (auto f = reader.next()) {
        if (f->type == FrameType::kToken) tokens[*it] += encode_frame(*f);
      }
      if (h.gw->closing(*it)) {  // what the shell does after the flush
        h.gw->hang_up(*it);
        it = open.erase(it);
      } else {
        ++it;
      }
    }
    if (stepped) log.tokens.push_back(std::move(tokens));
  };
  const auto steps = [&](int n) {
    for (int i = 0; i < n; ++i) {
      h.step();
      collect(true);
    }
  };

  const std::uint64_t a = h.gw->open();
  const std::uint64_t b = h.gw->open();
  const std::uint64_t c = h.gw->open();
  open = {a, b, c};
  h.send(a, make_hello("key-fast"));
  h.send(b, make_hello("key-small"));
  h.send(c, make_hello("key-limited"));
  h.send(a, make_submit(1, "", {3}, 12));
  h.send(a, make_submit(2, "", {5, 6}, 20));
  h.send(b, make_submit(1, "", {7}, 16));
  h.send(c, make_submit(9, "", {2}, 30));
  collect(false);
  steps(3);
  h.send(a, make_cancel(2));
  h.send(b, make_submit(1, "", {8}, 4));
  collect(false);
  steps(2);
  h.gw->hang_up(c);
  open.erase(std::find(open.begin(), open.end(), c));
  h.gw->swap_model("m", 1);
  h.send(a, make_submit(3, "", {4}, 40));
  collect(false);
  steps(4);
  h.gw->drain(3);
  for (std::size_t i = 0; !h.gw->drained() && i < kStepCap; ++i) steps(1);
  for (const auto& name : kSessionMetrics) log.counts.push_back(h.metric(name));
  log.drain = h.gw->drain_result();
  return log;
}

// The same session straight on serving engines: the same requests,
// cancels and swap at the same points, each non-idle engine ticked once
// per step (the current engine before the swapped-out one).
StepTokens engine_session() {
  ModelRegistry registry;
  load_models(registry);
  et::gpusim::Device dev(et::gpusim::v100s());
  et::core::ExecContext ctx(dev, 1);
  const ModelPin v2 = registry.acquire("m", 2);
  const ModelPin v1 = registry.acquire("m", 1);
  et::serving::InferenceServer old_engine(v2->model(), engine_config(4, 64));
  std::unique_ptr<et::serving::InferenceServer> new_engine;
  StepTokens log;
  std::map<std::uint64_t, std::string> tokens;
  const auto submit = [&](et::serving::InferenceServer& engine,
                          const ModelPin& pin, std::uint64_t conn,
                          std::uint64_t sid, Priority tier,
                          std::vector<std::int32_t> prompt,
                          std::size_t max_new_tokens) {
    et::serving::Request req;
    req.priority = tier;
    req.max_new_tokens = max_new_tokens;
    req.first_token = prompt.front();
    req.prompt_tokens = std::move(prompt);
    req.embed = pin->embed_fn();
    req.select = pin->select_fn();
    req.on_token = [&tokens, conn, sid](std::uint64_t, std::int32_t token,
                                        std::size_t index) {
      tokens[conn] += encode_frame(et::net::make_token(
          sid, static_cast<std::uint32_t>(index), token));
    };
    return engine.submit(std::move(req));
  };
  const auto steps = [&](int n) {
    for (int i = 0; i < n; ++i) {
      if (new_engine && !new_engine->idle()) new_engine->tick(ctx);
      if (!old_engine.idle()) old_engine.tick(ctx);
      log.push_back(std::exchange(tokens, {}));
    }
  };
  // Connection ids as the gateway hands them out: A=1, B=2, C=3.
  const auto a1 = submit(old_engine, v2, 1, 1, Priority::kInteractive, {3}, 12);
  const auto a2 =
      submit(old_engine, v2, 1, 2, Priority::kInteractive, {5, 6}, 20);
  const auto b1 = submit(old_engine, v2, 2, 1, Priority::kBulk, {7}, 16);
  const auto c9 = submit(old_engine, v2, 3, 9, Priority::kNormal, {2}, 30);
  steps(3);
  old_engine.cancel(a2);
  old_engine.cancel(b1);  // B's duplicate stream id dropped it
  steps(2);
  old_engine.cancel(c9);  // C hung up
  new_engine = std::make_unique<et::serving::InferenceServer>(
      v1->model(), engine_config(4, 64));
  const auto a3 =
      submit(*new_engine, v1, 1, 3, Priority::kInteractive, {4}, 40);
  steps(4);
  steps(3);  // the drain budget; then whatever is left is cancelled
  old_engine.cancel(a1);
  new_engine->cancel(a3);
  return log;
}

TEST(NetGateway, ScriptedSessionIsDeterministicAndMatchesTheEngine) {
  const StepTokens expected = engine_session();
  std::optional<SessionLog> first;
  for (const std::size_t threads : {1, 2, 8}) {
    const SessionLog log = scripted_session(threads);
    // After every step, the token frames sent equal the engine's.
    ASSERT_EQ(log.tokens.size(), expected.size()) << "threads " << threads;
    for (std::size_t s = 0; s < expected.size(); ++s) {
      EXPECT_EQ(log.tokens[s], expected[s])
          << "step " << s << ", threads " << threads;
    }
    if (!first) {
      first = log;
      continue;
    }
    EXPECT_EQ(log.bytes, first->bytes) << "threads " << threads;
    EXPECT_EQ(log.counts, first->counts) << "threads " << threads;
  }
  // The script reached every path it is meant to: B's protocol error, two
  // disconnect cancels (B and C), A's client cancel and the drain cancel,
  // A's stream 1 completed, one swap.
  EXPECT_EQ(first->counts, (std::vector<double>{1, 2, 4, 1, 1}));
  EXPECT_EQ(first->drain.drain_ticks_used, 3u);
  EXPECT_EQ(first->drain.cancelled, 1u);
  EXPECT_EQ(first->bytes.size(), 3u);
}

// ---------------------------------------------------------------------------
// A connection that stops reading.
// ---------------------------------------------------------------------------

/// The bytes `probe` receives while a bulk connection floods 100 streams;
/// the flood's outbox is drained every step only when `drain_flood`.
std::string probe_beside_flood(bool drain_flood, double& disconnect_cancels) {
  GatewayHarness h(/*threads=*/1, /*max_batch=*/32, /*queue_capacity=*/128);
  const auto flood = h.connect("key-bulk");
  const auto probe = h.gw->open();
  h.send(probe, make_hello("key-fast"));
  for (std::uint64_t id = 1; id <= 100; ++id) {
    h.send(flood, make_submit(id, "", {static_cast<std::int32_t>(id)}, 200));
  }
  h.send(probe, make_submit(1, "", {3}, 500));
  std::string probe_bytes;
  bool dropped = false;
  for (std::size_t i = 0; i < kStepCap && h.gw->step(h.ctx); ++i) {
    probe_bytes += h.take_bytes(probe);
    if (drain_flood) {
      h.take_bytes(flood);
    } else if (!dropped) {
      // Never drained, the outbox only grows — until it passes the cap and
      // the gateway drops the connection, discarding its output.
      dropped = h.gw->closing(flood);
      EXPECT_LE(h.gw->outbox(flood).size(), et::net::kMaxOutboxBytes);
      if (dropped) {
        EXPECT_TRUE(h.gw->outbox(flood).empty());
        EXPECT_GT(h.metric("net_disconnect_cancels"), 0.0);
        h.gw->hang_up(flood);
      }
    }
  }
  probe_bytes += h.take_bytes(probe);
  EXPECT_EQ(dropped, !drain_flood);
  disconnect_cancels = h.metric("net_disconnect_cancels");
  // Every flood stream either completed or was cancelled with the drop.
  EXPECT_EQ(h.metric("tenant_bulk_completed") + disconnect_cancels, 100.0);
  return probe_bytes;
}

TEST(NetGateway, UndrainedOutboxIsDroppedAtTheCap) {
  double drained_cancels = 0.0;
  double dropped_cancels = 0.0;
  const std::string reference_run = probe_beside_flood(true, drained_cancels);
  const std::string dropped_run = probe_beside_flood(false, dropped_cancels);
  EXPECT_EQ(drained_cancels, 0.0);
  EXPECT_GT(dropped_cancels, 0.0);
  // The probe's 500-token stream outlives the drop, and its transcript
  // is byte for byte the one it gets beside a well-behaved reader.
  EXPECT_EQ(dropped_run, reference_run);
  Streams out;
  FrameReader reader;
  reader.feed(dropped_run.data(), dropped_run.size());
  ASSERT_TRUE(reader.next().has_value());  // hello_ok
  while (auto f = reader.next()) record(out, *f);
  ASSERT_TRUE(out[1].done);
  EXPECT_EQ(out[1].tokens.size(), 500u);
}

// ---------------------------------------------------------------------------
// Frame-mutation fuzzer through Gateway::receive.
// ---------------------------------------------------------------------------

/// Valid client sessions, as frames: what the mutations start from.
std::vector<std::vector<Frame>> fuzz_seeds() {
  return {
      {make_hello("key-fast"), make_submit(1, "", {3, 7}, 6),
       make_submit(2, "m", {5}, 4), make_cancel(1)},
      {make_hello("key-small"), make_submit(1, "", {1}, 3),
       make_submit(2, "", {2, 9, 9}, 3), make_submit(3, "", {3}, 3)},
      {make_hello("key-limited"), make_submit(9, "", {4, 4, 4}, 5),
       make_submit(9, "", {1}, 2), make_cancel(9)},
      {make_hello("key-fast"), make_submit(4, "nope", {1}, 2),
       make_cancel(77), make_submit(5, "", {}, 0),
       make_submit(6, "", {8}, 3, /*eos_token=*/2)},
  };
}

/// One mutated input: a seed's wire bytes with length fields and type
/// bytes rewritten at frame boundaries, then bit flips, byte inserts,
/// deletes and a truncation.
std::string mutate(const std::vector<Frame>& seed, std::mt19937_64& rng) {
  std::string wire;
  std::vector<std::size_t> starts;
  for (const Frame& f : seed) {
    starts.push_back(wire.size());
    wire += encode_frame(f);
  }
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  const int edits = 1 + static_cast<int>(pick(3));
  for (int e = 0; e < edits && !wire.empty(); ++e) {
    // Earlier edits may have cut the wire short of a seed boundary.
    const std::size_t at = starts[pick(starts.size())];
    const bool framed = at + 5 <= wire.size();
    switch (pick(7)) {
      case 0: {  // length field: 0, over the cap, or off by one
        if (!framed) break;
        std::uint32_t len = 0;
        std::memcpy(&len, wire.data() + at, 4);
        const std::uint32_t lens[] = {
            0, static_cast<std::uint32_t>(et::net::kMaxFramePayload + 1),
            len + 1, len - 1};
        std::memcpy(wire.data() + at, &lens[pick(4)], 4);
        break;
      }
      case 1:  // type byte
        if (framed) wire[at + 4] = static_cast<char>(pick(12));
        break;
      case 2:  // bit flip
        wire[pick(wire.size())] ^= static_cast<char>(1u << pick(8));
        break;
      case 3:  // byte insert
        wire.insert(wire.begin() +
                        static_cast<std::ptrdiff_t>(pick(wire.size() + 1)),
                    static_cast<char>(pick(256)));
        break;
      case 4:  // byte delete
        wire.erase(pick(wire.size()), 1);
        break;
      case 5:  // truncation
        wire.resize(pick(wire.size() + 1));
        break;
      default:  // unchanged: the seed itself, chunked differently
        break;
    }
  }
  return wire;
}

/// The stream invariants over everything one connection was sent.
void check_case(const std::string& input, const std::string& output,
                bool closing, int case_no) {
  SCOPED_TRACE("fuzz case " + std::to_string(case_no));
  FrameReader reader;
  reader.feed(output.data(), output.size());
  std::map<std::uint64_t, std::uint32_t> live;  // stream -> next index
  std::size_t terminals = 0;
  bool errored = false;
  while (auto f = reader.next()) {
    EXPECT_FALSE(errored) << "a frame after kError";
    switch (f->type) {
      case FrameType::kHelloOk:
        break;
      case FrameType::kError:
        errored = true;
        break;
      case FrameType::kToken:
        EXPECT_EQ(f->index, live[f->stream_id]++) << "token index gap";
        break;
      case FrameType::kDone: {
        const auto it = live.find(f->stream_id);
        EXPECT_EQ(f->index, it == live.end() ? 0u : it->second);
        if (it != live.end()) live.erase(it);
        ++terminals;
        break;
      }
      case FrameType::kReject:
        EXPECT_EQ(live.count(f->stream_id), 0u) << "reject of a live stream";
        ++terminals;
        break;
      default:
        ADD_FAILURE() << "server sent " << std::string(to_string(f->type));
    }
  }
  EXPECT_FALSE(reader.error()) << reader.error_detail();
  if (errored) {
    EXPECT_TRUE(closing) << "kError without closing";
  }
  if (closing) return;  // the drop ends its streams
  // Still open: every submit it sent was applied, and each one ended in
  // exactly one done or reject.
  FrameReader in;
  in.feed(input.data(), input.size());
  std::size_t submits = 0;
  while (auto f = in.next()) submits += f->type == FrameType::kSubmit ? 1 : 0;
  EXPECT_EQ(terminals, submits);
  EXPECT_TRUE(live.empty()) << live.size() << " streams never finished";
}

TEST(NetGateway, FuzzedFramesKeepStreamInvariants) {
  constexpr int kCases = 60000;
  // A 32-token context ends any stream within 32 ticks (kv full), however
  // large a mutated max_new_tokens or prompt is.
  GatewayHarness h(/*threads=*/1, /*max_batch=*/4, /*queue_capacity=*/64,
                   /*max_context=*/32);
  std::mt19937_64 rng(0x5eedf00du);
  const auto seeds = fuzz_seeds();
  for (int n = 0; n < kCases; ++n) {
    const std::string input = mutate(seeds[rng() % seeds.size()], rng);
    const auto conn = h.gw->open();
    std::string output;
    // Random chunk splits, the gateway stepped between chunks.
    for (std::size_t pos = 0; pos < input.size();) {
      const std::size_t len = 1 + static_cast<std::size_t>(rng() % 48);
      h.gw->receive(conn, std::string_view(input).substr(pos, len));
      pos += len;
      h.step();
      output += h.take_bytes(conn);
    }
    for (std::size_t i = 0; i < kStepCap && h.gw->step(h.ctx); ++i) {
      output += h.take_bytes(conn);
    }
    output += h.take_bytes(conn);
    check_case(input, output, h.gw->closing(conn), n);
    EXPECT_EQ(h.metric("net_streams_live"), 0.0) << "fuzz case " << n;
    h.gw->hang_up(conn);
  }
  EXPECT_EQ(h.metric("net_connections_open"), 0.0);
}

// ---------------------------------------------------------------------------
// The shell.
// ---------------------------------------------------------------------------

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(NetShell, StartAddsOneThreadAndClientsAddNone) {
  et::gpusim::Device dev(et::gpusim::v100s());
  et::core::ExecContext ctx(dev, 1);
  ModelRegistry registry;
  load_models(registry);
  ApiServerConfig cfg;
  cfg.max_connections = 8;
  cfg.default_model = "m";
  cfg.engine = engine_config(4, 64);
  ApiServer server(cfg, test_tenants(), registry);
  server.serve_model("m");
  // A sanitizer runtime may start a helper thread along with the
  // process's first thread; start and join one so only the server counts.
  std::thread([] {}).join();
  const std::size_t before = thread_count();
  server.start(ctx);
  EXPECT_EQ(thread_count(), before + 1);
  std::vector<Client> clients;
  for (std::int32_t i = 0; i < 8; ++i) {
    Client c;
    c.connect(server.port());
    const auto ok = c.hello("key-fast");
    ASSERT_TRUE(ok.has_value());
    ASSERT_EQ(ok->type, FrameType::kHelloOk);
    c.submit(1, "", {i}, 6);
    clients.push_back(std::move(c));
  }
  EXPECT_EQ(thread_count(), before + 1);
  for (std::int32_t i = 0; i < 8; ++i) {
    const Streams out = pump_streams(clients[static_cast<std::size_t>(i)], {1});
    EXPECT_EQ(out.at(1).tokens, reference(registry, 2, i, 6));
  }
  EXPECT_EQ(thread_count(), before + 1);
  server.shutdown(0);
  EXPECT_EQ(thread_count(), before);
}

TEST(NetShell, FramesSplitAcrossRecvCallsReassemble) {
  NetHarness h;
  // One byte per send() with Nagle off, so the shell's recv() calls see
  // the hello and the submit in fragments.
  const int fd = raw_connect(h.server->port());
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  const std::string wire = encode_frame(make_hello("key-fast")) +
                           encode_frame(make_submit(7, "", {3}, 6));
  for (char byte : wire) send_all(fd, std::string(1, byte));
  FrameReader reader;
  Streams out;
  bool hello_ok = false;
  char buf[4096];
  while (!out[7].terminal()) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    ASSERT_GT(n, 0);
    reader.feed(buf, static_cast<std::size_t>(n));
    while (auto f = reader.next()) {
      if (f->type == FrameType::kHelloOk) {
        hello_ok = true;
      } else {
        record(out, *f);
      }
    }
  }
  ::close(fd);
  EXPECT_TRUE(hello_ok);
  EXPECT_TRUE(out[7].done);
  EXPECT_EQ(out[7].tokens, reference(h.registry, 2, 3, 6));
}

TEST(NetShell, ClientThatStopsReadingIsDroppedWhileOthersAreServed) {
  // 16 slots, and a queue deep enough to admit the whole flood.
  NetHarness h(/*threads=*/1, /*max_batch=*/16, /*queue_capacity=*/1000);
  // A client with a 4 KiB receive buffer floods 1000 bulk streams and
  // never reads. Its output fills the kernel's socket buffers (about
  // 2.5 MB on loopback), then its outbox, which the gateway drops at
  // kMaxOutboxBytes. A drive thread that blocked on the full socket
  // would stall every engine here — and block these metric reads.
  const int slow = raw_connect(h.server->port(), /*rcvbuf=*/4096);
  std::string flood = encode_frame(make_hello("key-bulk"));
  for (std::int32_t id = 1; id <= 1000; ++id) {
    flood += encode_frame(make_submit(static_cast<std::uint64_t>(id), "",
                                      {id % 257}, 200));
  }
  send_all(slow, flood);
  // About 140k token frames before the drop: seconds in Release, around a
  // minute under ThreadSanitizer. The deadline only turns a stalled
  // server into a failure.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(300);
  while (h.metric("net_disconnect_cancels") == 0.0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double cancels = h.metric("net_disconnect_cancels");
  EXPECT_GT(cancels, 0.0);
  EXPECT_EQ(h.metric("tenant_bulk_completed") + cancels, 1000.0);

  // Another tenant is served at once.
  const auto start = std::chrono::steady_clock::now();
  Client probe = h.connect("key-fast");
  probe.submit(1, "", {3}, 5);
  const Streams out = pump_streams(probe, {1});
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(20));
  ASSERT_TRUE(out.at(1).done);
  EXPECT_EQ(out.at(1).tokens, reference(h.registry, 2, 3, 5));
  ::close(slow);
}

}  // namespace
