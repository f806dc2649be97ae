// net::ApiServer loopback integration suite (ctest label `net`): the
// frame codec, tenant auth/rate/quota enforcement, framed
// request/stream/cancel round-trips against a real TCP socket on
// 127.0.0.1, disconnect-propagates-cancel, graceful shutdown, and the
// hot-swap capstone — a mid-storm model swap must drop zero in-flight
// requests, keep pre-swap transcripts bit-identical to the old version,
// decode post-swap submissions on the new version, and return the
// registry gauges to steady state once the old engine drains.
//
// Determinism note: the serving engines under the server keep the repo's
// logical-tick spine, so every transcript assertion is exact (references
// computed in-process on the same pinned weights). Only arrival timing
// crosses the socket, and each test forces the orderings it relies on —
// e.g. waiting for a first streamed token before swapping — instead of
// sleeping and hoping.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/auth.hpp"
#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "serving/registry.hpp"

namespace {

using et::net::ApiServer;
using et::net::ApiServerConfig;
using et::net::Client;
using et::net::Frame;
using et::net::FrameReader;
using et::net::FrameType;
using et::net::NetStatus;
using et::net::Tenant;
using et::net::TenantTable;
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
  const Frame hello = round_trip(et::net::make_hello("key-123"));
  EXPECT_EQ(hello.type, FrameType::kHello);
  EXPECT_EQ(hello.text, "key-123");

  const Frame ok = round_trip(et::net::make_hello_ok("bulk", Priority::kBulk));
  EXPECT_EQ(ok.type, FrameType::kHelloOk);
  EXPECT_EQ(ok.text, "bulk");
  EXPECT_EQ(ok.code, static_cast<std::uint8_t>(Priority::kBulk));

  const Frame submit =
      round_trip(et::net::make_submit(42, "model-a", {3, 1, 4, 1, 5}, 16, 7));
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

  const Frame done =
      round_trip(et::net::make_done(42, et::nn::StopReason::kEos, 11));
  EXPECT_EQ(done.type, FrameType::kDone);
  EXPECT_EQ(static_cast<et::nn::StopReason>(done.code),
            et::nn::StopReason::kEos);
  EXPECT_EQ(done.index, 11u);

  const Frame reject = round_trip(
      et::net::make_reject(42, NetStatus::kRateLimited, "bucket empty"));
  EXPECT_EQ(reject.type, FrameType::kReject);
  EXPECT_EQ(static_cast<NetStatus>(reject.code), NetStatus::kRateLimited);
  EXPECT_EQ(reject.text, "bucket empty");

  EXPECT_EQ(round_trip(et::net::make_cancel(42)).stream_id, 42u);
  EXPECT_EQ(round_trip(et::net::make_error("boom")).text, "boom");
}

TEST(FrameCodec, TwoFramesInOneFeedPopInOrder) {
  const std::string wire =
      encode_frame(et::net::make_token(1, 0, 5)) +
      encode_frame(et::net::make_done(1, et::nn::StopReason::kMaxTokens, 1));
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
    const std::string good = encode_frame(et::net::make_cancel(1));
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
// Loopback fixture.
// ---------------------------------------------------------------------------

struct Stack {
  std::vector<et::nn::EncoderWeights> layers;
  et::nn::EncoderOptions opt;
};

// Deliberately roomy: several tests race a client round-trip (cancel,
// shutdown, disconnect) against a live generation, and the in-flight
// window is measured in engine ticks, not wall-clock — a tick of this
// tiny model takes microseconds, so a short generation would complete
// before the racing frame even lands. A ~1000-token generation keeps the
// stream alive for hundreds of ticks, orders of magnitude beyond any
// loopback round-trip.
constexpr std::size_t kMaxContext = 2048;

// Even a ~1000-tick window is a few milliseconds of wall-clock on this
// model, so a scheduler stall on a loaded machine can still let a
// generation finish before the racing frame (cancel, duplicate submit,
// disconnect RST, shutdown) is processed. Those races are therefore run
// in bounded retry loops: a lost race is detected and retried, and the
// test fails only if the mechanism under test never fires. At an
// (empirically pessimistic) 25% per-attempt loss rate, 25 attempts put
// a spurious failure beyond 1e-15.
constexpr int kRaceRetries = 25;

Stack make_stack(std::uint64_t seed) {
  et::nn::ModelConfig cfg;
  cfg.num_layers = 2;
  cfg.d_model = 32;
  cfg.num_heads = 2;
  cfg.d_ff = 64;
  Stack s;
  for (std::size_t l = 0; l < cfg.num_layers; ++l) {
    s.layers.push_back(et::nn::make_dense_encoder_weights(cfg, seed + l));
  }
  s.opt = et::nn::options_for(et::nn::Pipeline::kET, cfg,
                              /*max_seq=*/kMaxContext, /*causal=*/true);
  s.opt.attn.precision = et::numeric::Precision::kFp32;
  return s;
}

/// Tenant table the suite uses; deterministic on purpose:
///  - "fast":    no rate limit, no quota (the happy-path tenant);
///  - "limited": burst of 3 that NEVER refills (exact reject counts);
///  - "small":   in-flight quota of 2, no rate limit.
TenantTable test_tenants() {
  Tenant fast{"fast", "key-fast", Priority::kInteractive};
  Tenant limited{"limited", "key-limited", Priority::kNormal,
                 /*bucket_capacity=*/3, /*refill_per_tick=*/0};
  Tenant small{"small", "key-small", Priority::kBulk};
  small.max_inflight = 2;
  return TenantTable({fast, limited, small});
}

/// One server over one registry ("m" v1 seed 100, v2 seed 200), started
/// on an ephemeral loopback port. serve_model pins the newest version
/// (v2); the hot-swap test flips to v1 first so its storm swaps 1 -> 2.
struct NetHarness {
  et::gpusim::Device dev{et::gpusim::v100s()};
  std::unique_ptr<et::core::ExecContext> ctx;
  ModelRegistry registry;
  std::unique_ptr<ApiServer> server;

  explicit NetHarness(std::size_t threads = 1, std::size_t max_batch = 4,
                      std::size_t queue_capacity = 64) {
    ctx = std::make_unique<et::core::ExecContext>(dev, threads);
    for (const auto& [version, seed] :
         std::vector<std::pair<std::uint64_t, std::uint64_t>>{{1, 100},
                                                              {2, 200}}) {
      Stack s = make_stack(seed);
      registry.add("m", version, std::move(s.layers), s.opt, kMaxContext);
    }
    ApiServerConfig cfg;
    cfg.port = 0;
    cfg.max_connections = 8;
    cfg.default_model = "m";
    cfg.engine.max_batch = max_batch;
    cfg.engine.queue_capacity = queue_capacity;
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
  et::serving::ServerConfig cfg;
  cfg.max_batch = 4;
  et::serving::InferenceServer server(pin->model(), cfg);
  et::serving::Request req;
  req.first_token = first_token;
  req.max_new_tokens = tokens;
  req.embed = pin->embed_fn();
  req.select = pin->select_fn();
  const auto h = server.submit(std::move(req));
  return server.wait(h, ctx).tokens;
}

/// Collected outcome of one wire stream.
struct StreamResult {
  std::vector<std::int32_t> tokens;
  bool done = false;
  et::nn::StopReason stop = et::nn::StopReason::kMaxTokens;
  bool rejected = false;
  NetStatus reject_status = NetStatus::kQueueFull;
};

/// Pump a client until every listed stream is terminal (done or
/// rejected), checking per-stream token ordering along the way.
std::map<std::uint64_t, StreamResult> pump_streams(
    Client& client, const std::vector<std::uint64_t>& streams) {
  std::map<std::uint64_t, StreamResult> out;
  for (auto id : streams) out[id];
  std::size_t open = streams.size();
  while (open > 0) {
    const auto f = client.next();
    if (!f.has_value()) {
      ADD_FAILURE() << "connection lost: " << client.error_detail();
      break;
    }
    auto it = out.find(f->stream_id);
    if (it == out.end()) {
      ADD_FAILURE() << "frame for unknown stream " << f->stream_id;
      break;
    }
    StreamResult& r = it->second;
    if (f->type == FrameType::kToken) {
      EXPECT_EQ(f->index, r.tokens.size()) << "token index gap";
      r.tokens.push_back(f->token);
    } else if (f->type == FrameType::kDone) {
      r.done = true;
      r.stop = static_cast<et::nn::StopReason>(f->code);
      EXPECT_EQ(f->index, r.tokens.size()) << "done count mismatch";
      --open;
    } else if (f->type == FrameType::kReject) {
      r.rejected = true;
      r.reject_status = static_cast<NetStatus>(f->code);
      --open;
    } else {
      ADD_FAILURE() << "unexpected frame " << std::string(to_string(f->type));
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Auth.
// ---------------------------------------------------------------------------
TEST(NetAuth, GoodKeyAuthenticatesWithTierEcho) {
  NetHarness h;
  Client c;
  c.connect(h.server->port());
  const auto ok = c.hello("key-limited");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->type, FrameType::kHelloOk);
  EXPECT_EQ(ok->text, "limited");
  EXPECT_EQ(static_cast<Priority>(ok->code), Priority::kNormal);
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
  EXPECT_TRUE(h.wait_metric("net_auth_failures", 1.0));
}

TEST(NetAuth, SubmitBeforeHelloIsRejected) {
  NetHarness h;
  Client c;
  c.connect(h.server->port());
  c.submit(1, "", {3}, 4);
  const auto r = c.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->type, FrameType::kReject);
  EXPECT_EQ(static_cast<NetStatus>(r->code), NetStatus::kNotAuthed);
  EXPECT_FALSE(c.next().has_value());
}

// ---------------------------------------------------------------------------
// Streaming round-trips.
// ---------------------------------------------------------------------------

class NetStreamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetStreamTest, WireTranscriptMatchesInProcessReference) {
  NetHarness h(/*threads=*/GetParam());
  Client c = h.connect("key-fast");
  c.submit(7, "m", {3}, 6);
  const auto out = pump_streams(c, {7});
  const StreamResult& r = out.at(7);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.stop, et::nn::StopReason::kMaxTokens);
  // The harness serves the newest version (v2) — pin the expectation.
  EXPECT_EQ(r.tokens, reference(h.registry, 2, 3, 6));
}

TEST_P(NetStreamTest, OneConnectionMultiplexesConcurrentStreams) {
  NetHarness h(/*threads=*/GetParam());
  Client c = h.connect("key-fast");
  const std::vector<std::uint64_t> ids = {1, 2, 3, 4};
  for (auto id : ids) {
    c.submit(id, "", {static_cast<std::int32_t>(id)}, 5);
  }
  auto out = pump_streams(c, ids);
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
// Admission enforcement on the wire.
// ---------------------------------------------------------------------------
TEST(NetAdmission, RateLimitRejectsBeyondTheBucket) {
  NetHarness h;
  // "limited" has a burst of 3 and a refill of ZERO: of 5 submissions,
  // exactly 3 are admitted and 2 are rate-limited, whatever the timing.
  Client c = h.connect("key-limited");
  const std::vector<std::uint64_t> ids = {1, 2, 3, 4, 5};
  for (auto id : ids) c.submit(id, "", {1}, 2);
  auto out = pump_streams(c, ids);
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
  NetHarness h;
  // "small" may hold 2 generations in flight. Long generations keep the
  // first two occupying the quota when the third arrives.
  Client c = h.connect("key-small");
  c.submit(1, "", {1}, 400);
  c.submit(2, "", {2}, 400);
  c.submit(3, "", {3}, 2);
  auto out = pump_streams(c, {1, 2, 3});
  EXPECT_TRUE(out.at(1).done);
  EXPECT_TRUE(out.at(2).done);
  ASSERT_TRUE(out.at(3).rejected);
  EXPECT_EQ(out.at(3).reject_status, NetStatus::kQuotaExceeded);
  // Quota is released with completion: a fresh submit now succeeds.
  c.submit(4, "", {3}, 2);
  auto again = pump_streams(c, {4});
  EXPECT_TRUE(again.at(4).done);
  EXPECT_EQ(h.metric("net_quota_rejected"), 1.0);
}

TEST(NetAdmission, QueueFullRejectReusesEngineRejectReason) {
  // A 1-slot engine with a 2-deep queue: a burst of 8 long submissions
  // must bounce most of them with the engine's own typed queue_full
  // reject on the wire. With 200-token generations the engine cannot
  // complete anything while the burst lands, so at least half the burst
  // is rejected and admitted + rejected always covers all 8.
  NetHarness h(/*threads=*/1, /*max_batch=*/1, /*queue_capacity=*/2);
  Client c = h.connect("key-fast");
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    ids.push_back(id);
    c.submit(id, "", {static_cast<std::int32_t>(id)}, 200);
  }
  auto out = pump_streams(c, ids);
  std::size_t done = 0;
  std::size_t queue_full = 0;
  for (const auto& [id, r] : out) {
    if (r.done) ++done;
    if (r.rejected) {
      EXPECT_EQ(r.reject_status, NetStatus::kQueueFull) << "stream " << id;
      ++queue_full;
    }
  }
  EXPECT_EQ(done + queue_full, 8u);
  EXPECT_GE(queue_full, 4u);
  EXPECT_EQ(h.metric("net_requests_rejected"),
            static_cast<double>(queue_full));
}

TEST(NetAdmission, UnknownModelIsATypedReject) {
  NetHarness h;
  Client c = h.connect("key-fast");
  c.submit(1, "never-loaded", {1}, 2);
  auto out = pump_streams(c, {1});
  ASSERT_TRUE(out.at(1).rejected);
  EXPECT_EQ(out.at(1).reject_status, NetStatus::kUnknownModel);
}

TEST(NetAdmission, DuplicateStreamIdIsAProtocolError) {
  // The duplicate is only an error while the first stream is LIVE. A
  // scheduler stall can let the ~1000-tick generation finish before the
  // duplicate submit is inspected — then it is legitimately admitted as
  // a fresh stream (two kDones, no error). That is a lost race, not a
  // failure: retry on a fresh pair of submissions. The test fails only
  // if the server never flags a duplicate across every attempt.
  NetHarness h;
  Client c = h.connect("key-fast");
  bool saw_error = false;
  for (int attempt = 0; attempt < kRaceRetries && !saw_error; ++attempt) {
    const auto sid = static_cast<std::uint64_t>(100 + attempt);
    c.submit(sid, "", {1}, 1000);
    c.submit(sid, "", {2}, 1000);  // same id while the first is live
    std::size_t dones = 0;
    for (;;) {
      const auto f = c.next();
      if (!f.has_value()) break;  // disconnected after the error
      if (f->type == FrameType::kError) {
        saw_error = true;
        EXPECT_NE(f->text.find("duplicate stream_id"), std::string::npos);
        break;
      }
      if (f->type == FrameType::kDone && ++dones == 2) break;  // lost race
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_TRUE(h.wait_metric("net_protocol_errors", 1.0));
  // The dropped connection's live stream was cancelled, not leaked.
  EXPECT_TRUE(h.wait_metric("net_streams_live", 0.0));
}

// ---------------------------------------------------------------------------
// Cancel paths.
// ---------------------------------------------------------------------------
TEST(NetCancel, ClientCancelFinishesWithCancelledStop) {
  // The cancel frame races the ~1000-tick generation; if a scheduler
  // stall lets the generation complete first the cancel is a no-op on a
  // finished stream (kDone kMaxTokens) — a lost race, retried on a
  // fresh stream. The test fails only if no attempt ever lands a
  // cancel on a live decode.
  NetHarness h;
  Client c = h.connect("key-fast");
  bool cancelled = false;
  for (int attempt = 0; attempt < kRaceRetries && !cancelled; ++attempt) {
    const auto sid = static_cast<std::uint64_t>(1 + attempt);
    c.submit(sid, "", {1}, 1000);
    // Wait for streaming to start so the cancel hits a live decode.
    const auto first = c.next();
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->type, FrameType::kToken);
    c.cancel(sid);
    // Drain to the done frame: kCancelled, streamed tokens kept.
    std::size_t tokens = 1;
    for (;;) {
      const auto f = c.next();
      ASSERT_TRUE(f.has_value()) << c.error_detail();
      if (f->type == FrameType::kToken) {
        ++tokens;
        continue;
      }
      ASSERT_EQ(f->type, FrameType::kDone);
      if (static_cast<et::nn::StopReason>(f->code) ==
          et::nn::StopReason::kCancelled) {
        cancelled = true;
        EXPECT_EQ(f->index, tokens);
        EXPECT_LT(tokens, 1000u);
      }
      break;
    }
  }
  EXPECT_TRUE(cancelled);
  EXPECT_TRUE(h.wait_metric("net_requests_cancelled", 1.0));
}

TEST(NetCancel, DisconnectCancelsEveryLiveStream) {
  // The RST from the abrupt close races the ~1000-tick generations; a
  // scheduler stall waking the reader thread can let one (or both)
  // streams complete first, in which case there is nothing live left to
  // disconnect-cancel. Each attempt either cancels both streams (the
  // mechanism under test) or is detected as a lost race and retried on
  // a fresh connection. Either way the server must go fully idle.
  NetHarness h;
  bool both_cancelled = false;
  for (int attempt = 0; attempt < kRaceRetries && !both_cancelled;
       ++attempt) {
    const double base = h.metric("net_disconnect_cancels");
    {
      Client c = h.connect("key-fast");
      const auto a = static_cast<std::uint64_t>(2 * attempt + 1);
      c.submit(a, "", {1}, 1000);
      c.submit(a + 1, "", {2}, 1000);
      // Ensure the streams are admitted and decoding before vanishing.
      const auto f = c.next();
      ASSERT_TRUE(f.has_value());
      c.close();  // abrupt disconnect, no cancel frames
    }
    // Whatever the race outcome, the connection must be reaped and the
    // slots released — the server goes fully idle.
    ASSERT_TRUE(h.wait_metric("net_connections_open", 0.0));
    ASSERT_TRUE(h.wait_metric("net_streams_live", 0.0));
    both_cancelled = h.metric("net_disconnect_cancels") == base + 2.0;
  }
  EXPECT_TRUE(both_cancelled);
}

// ---------------------------------------------------------------------------
// Connection pool bound.
// ---------------------------------------------------------------------------
TEST(NetPool, ConnectionsBeyondTheCapAreTurnedAway) {
  NetHarness h;  // max_connections = 8
  std::vector<Client> held;
  for (int i = 0; i < 8; ++i) held.push_back(h.connect("key-fast"));
  Client extra;
  extra.connect(h.server->port());
  const auto f = extra.next();  // kError then close, no reader thread
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kError);
  EXPECT_NE(f->text.find("max_connections"), std::string::npos);
  EXPECT_FALSE(extra.next().has_value());
  EXPECT_TRUE(h.wait_metric("net_connections_rejected", 1.0));
  // The pool recovers: close one held connection, the next connect works.
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
  // The client still got its complete, bit-exact stream.
  std::vector<std::int32_t> tokens = {first->token};
  for (;;) {
    const auto f = c.next();
    ASSERT_TRUE(f.has_value()) << c.error_detail();
    if (f->type == FrameType::kToken) {
      tokens.push_back(f->token);
      continue;
    }
    ASSERT_EQ(f->type, FrameType::kDone);
    EXPECT_EQ(static_cast<et::nn::StopReason>(f->code),
              et::nn::StopReason::kMaxTokens);
    break;
  }
  EXPECT_EQ(tokens, reference(h.registry, 2, 3, 10));
}

TEST(NetShutdown, ExhaustedDrainBudgetCancelsTheRemainder) {
  // The shutdown races the ~1000-tick generation (which fits the
  // context, so it cannot bail early with a kv-full stop): normally the
  // 2-tick budget exhausts and cancels it, but a scheduler stall can
  // let the generation finish first (cancelled == 0, a clean drain).
  // shutdown() is one-shot, so a lost race retries on a fresh harness.
  bool exhausted = false;
  for (int attempt = 0; attempt < kRaceRetries && !exhausted; ++attempt) {
    NetHarness h;
    Client c = h.connect("key-fast");
    c.submit(1, "", {3}, 1000);
    const auto first = c.next();
    ASSERT_TRUE(first.has_value());
    const auto dr = h.server->shutdown(/*drain_ticks=*/2);
    if (dr.cancelled != 1u) continue;  // finished before the budget ran out
    exhausted = true;
    // The wire still ends with a terminal done (cancelled), not silence.
    for (;;) {
      const auto f = c.next();
      ASSERT_TRUE(f.has_value()) << c.error_detail();
      if (f->type == FrameType::kToken) continue;
      ASSERT_EQ(f->type, FrameType::kDone);
      EXPECT_EQ(static_cast<et::nn::StopReason>(f->code),
                et::nn::StopReason::kCancelled);
      break;
    }
    // Idempotent: a second shutdown reports the same result.
    const auto again = h.server->shutdown(9);
    EXPECT_EQ(again.cancelled, 1u);
  }
  EXPECT_TRUE(exhausted);
}

TEST(NetShutdown, SubmitDuringDrainIsRejectedAsDraining) {
  // Stream 1's ~1000-tick generation holds the drain window open while
  // short probes hunt for the typed kDraining reject. If a scheduler
  // stall lets stream 1 finish before the drain flag goes up, the
  // server drains clean and the probes just hit a closed socket — a
  // lost race, retried on a fresh harness (shutdown is one-shot).
  bool saw_draining = false;
  for (int attempt = 0; attempt < kRaceRetries && !saw_draining;
       ++attempt) {
    NetHarness h;
    Client c = h.connect("key-fast");
    c.submit(1, "", {1}, 1000);
    const auto first = c.next();
    ASSERT_TRUE(first.has_value());
    // Shut down concurrently, then keep submitting short probes: once
    // the drain flag is up, a probe gets the typed kDraining reject.
    // Probes that beat the flag simply complete and we try again. The
    // jthread joins the closer on every path out of this attempt.
    std::jthread closer(
        [&h] { h.server->shutdown(/*drain_ticks=*/100000); });
    std::uint64_t sid = 2;
    try {
      while (!saw_draining) {
        c.submit(sid, "", {2}, 1);
        for (;;) {
          const auto f = c.next();
          if (!f.has_value()) throw std::runtime_error("eof");
          if (f->stream_id != sid) continue;  // stream 1 traffic
          if (f->type == FrameType::kReject) {
            EXPECT_EQ(static_cast<NetStatus>(f->code), NetStatus::kDraining);
            saw_draining = true;
            break;
          }
          if (f->type == FrameType::kDone) break;  // beat the flag; retry
        }
        ++sid;
      }
    } catch (const std::exception&) {
      // Connection torn down before a probe landed: stream 1 finished
      // and the drain completed clean — retry on a fresh harness.
    }
    // Don't sit through the rest of stream 1's long generation: cancel
    // it so the drain (and the closer thread) finish promptly.
    try {
      if (c.connected()) c.cancel(1);
    } catch (const std::exception&) {
      // next() leaves the socket open at EOF, so connected() can still be
      // true after the server hung up: a cancel that fails to send is the
      // same lost race.
    }
    closer.join();
  }
  EXPECT_TRUE(saw_draining);
}

// ---------------------------------------------------------------------------
// The hot-swap capstone.
// ---------------------------------------------------------------------------

class NetSwapTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(NetSwapTest, HotSwapUnderLoadDropsNothingAndSplitsVersions) {
  NetHarness h(/*threads=*/GetParam(), /*max_batch=*/4);
  // The harness serves newest (v2); flip to v1 so the storm swaps 1 -> 2.
  // The flip is enqueued before the client even connects, so command
  // FIFO order guarantees it lands first.
  h.server->swap_model("m", 1);

  Client c = h.connect("key-fast");
  constexpr std::size_t kTokens = 12;
  const std::vector<std::uint64_t> pre = {1, 2, 3, 4};
  for (auto id : pre) {
    c.submit(id, "", {static_cast<std::int32_t>(10 + id)}, kTokens);
  }
  // Force the ordering the test is about: every pre-swap stream must be
  // admitted (streaming) before the swap lands. max_batch=4 gives each a
  // slot, so each produces a first token — though a scheduler stall can
  // let an early stream run to completion before a late one starts, so a
  // kDone here is also proof of pre-swap admission.
  std::map<std::uint64_t, StreamResult> results;
  for (auto id : pre) results[id];
  std::set<std::uint64_t> streaming;
  std::size_t finished_early = 0;
  while (streaming.size() < pre.size()) {
    const auto f = c.next();
    ASSERT_TRUE(f.has_value()) << c.error_detail();
    StreamResult& r = results[f->stream_id];
    if (f->type == FrameType::kToken) {
      ASSERT_EQ(f->index, r.tokens.size());
      r.tokens.push_back(f->token);
    } else {
      ASSERT_EQ(f->type, FrameType::kDone);
      r.done = true;
      r.stop = static_cast<et::nn::StopReason>(f->code);
      ASSERT_EQ(f->index, r.tokens.size());
      ++finished_early;
    }
    streaming.insert(f->stream_id);
  }

  // Swap mid-storm, then submit the post-swap wave on the same wire.
  h.server->swap_model("m", 2);
  const std::vector<std::uint64_t> post = {11, 12, 13, 14};
  for (auto id : post) {
    results[id];
    c.submit(id, "", {static_cast<std::int32_t>(10 + (id - 10))}, kTokens);
  }

  // Drain everything to terminal frames: ZERO streams may be dropped.
  std::size_t open = pre.size() + post.size() - finished_early;
  while (open > 0) {
    const auto f = c.next();
    ASSERT_TRUE(f.has_value()) << c.error_detail();
    auto it = results.find(f->stream_id);
    ASSERT_NE(it, results.end());
    if (f->type == FrameType::kToken) {
      ASSERT_EQ(f->index, it->second.tokens.size());
      it->second.tokens.push_back(f->token);
    } else {
      ASSERT_EQ(f->type, FrameType::kDone)
          << "stream " << f->stream_id << " got "
          << std::string(to_string(f->type));
      it->second.done = true;
      it->second.stop = static_cast<et::nn::StopReason>(f->code);
      ASSERT_EQ(f->index, it->second.tokens.size());
      --open;
    }
  }

  // Requests admitted pre-swap completed on the OLD version,
  // bit-identical to an undisturbed v1 run; post-swap submissions used
  // the NEW version. Same first_token on both sides of the swap, so any
  // cross-talk would show up as the wrong transcript.
  for (auto id : pre) {
    const StreamResult& r = results.at(id);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.stop, et::nn::StopReason::kMaxTokens);
    EXPECT_EQ(r.tokens,
              reference(h.registry, 1, static_cast<std::int32_t>(10 + id),
                        kTokens))
        << "pre-swap stream " << id << " not bit-identical to v1";
  }
  for (auto id : post) {
    const StreamResult& r = results.at(id);
    ASSERT_TRUE(r.done);
    EXPECT_EQ(r.stop, et::nn::StopReason::kMaxTokens);
    EXPECT_EQ(r.tokens,
              reference(h.registry, 2,
                        static_cast<std::int32_t>(10 + (id - 10)), kTokens))
        << "post-swap stream " << id << " not on v2";
  }

  // Steady state after the drain: the old engine is destroyed, its pin
  // released — one active engine, one pin, gauges back to baseline.
  EXPECT_TRUE(h.wait_metric("net_engines_draining", 0.0));
  EXPECT_TRUE(h.wait_metric("net_streams_live", 0.0));
  EXPECT_TRUE(h.wait_metric("active_pins", 1.0));
  EXPECT_EQ(h.metric("models_loaded"), 2.0);
  EXPECT_EQ(h.metric("net_engines_active"), 1.0);
  EXPECT_GE(h.metric("swaps"), 2.0);  // the setup flip + the storm swap
  EXPECT_EQ(h.metric("net_requests_completed"), 8.0);
  EXPECT_EQ(h.metric("net_requests_cancelled"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Threads, NetSwapTest,
                         ::testing::Values(std::size_t{1}, std::size_t{2},
                                           std::size_t{8}),
                         [](const auto& pinfo) {
                           return "threads_" + std::to_string(pinfo.param);
                         });

}  // namespace
