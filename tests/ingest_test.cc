#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/binio.h"
#include "core/deployment.h"
#include "core/processor.h"
#include "core/recovery.h"
#include "core/toolkit.h"
#include "net/fault_proxy.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "sim/reading.h"
#include "stream/serialize.h"

namespace esp::net {
namespace {

using core::EspProcessor;
using stream::Tuple;

Tuple Rfid(const std::string& reader, const std::string& tag, double t) {
  return sim::ToTuple(sim::RfidReading{reader, tag, Timestamp::Seconds(t)});
}

/// The paper's shelf scenario (mirrors recovery_test.cc).
StatusOr<std::unique_ptr<EspProcessor>> BuildShelfProcessor() {
  auto processor = std::make_unique<EspProcessor>();
  ESP_RETURN_IF_ERROR(processor->AddProximityGroup(
      {"pg_shelf0", "rfid", core::SpatialGranule{"shelf_0"}, {"reader_0"}}));
  ESP_RETURN_IF_ERROR(processor->AddProximityGroup(
      {"pg_shelf1", "rfid", core::SpatialGranule{"shelf_1"}, {"reader_1"}}));
  core::DeviceTypePipeline pipeline;
  pipeline.device_type = "rfid";
  pipeline.reading_schema = sim::RfidReadingSchema();
  pipeline.receptor_id_column = "reader_id";
  pipeline.smooth = core::SmoothPresenceCount(
      core::TemporalGranule(Duration::Seconds(5)), "tag_id");
  pipeline.arbitrate = core::ArbitrateMaxCount("tag_id", "reads");
  ESP_RETURN_IF_ERROR(processor->AddPipeline(std::move(pipeline)));
  ESP_RETURN_IF_ERROR(processor->Start());
  return processor;
}

std::string Fingerprint(const core::TickResult& result) {
  ByteWriter w;
  w.WriteU32(static_cast<uint32_t>(result.per_type.size()));
  for (const auto& [type, relation] : result.per_type) {
    w.WriteString(type);
    w.WriteU32(static_cast<uint32_t>(relation.size()));
    for (const Tuple& tuple : relation.tuples()) stream::WriteTuple(w, tuple);
  }
  w.WriteBool(result.virtualized.has_value());
  if (result.virtualized.has_value()) {
    w.WriteU32(static_cast<uint32_t>(result.virtualized->size()));
    for (const Tuple& tuple : result.virtualized->tuples()) {
      stream::WriteTuple(w, tuple);
    }
  }
  return std::move(w).Release();
}

struct Step {
  std::vector<Tuple> pushes;
  Timestamp tick;
};

std::vector<Step> ShelfScript(int ticks) {
  std::vector<Step> steps;
  for (int t = 0; t < ticks; ++t) {
    Step step;
    step.pushes.push_back(Rfid("reader_0", "x", t));
    if (t % 2 == 0) step.pushes.push_back(Rfid("reader_0", "x", t));
    if (t % 3 != 0) step.pushes.push_back(Rfid("reader_1", "x", t));
    step.pushes.push_back(Rfid("reader_1", "y", t));
    step.tick = Timestamp::Seconds(t);
    steps.push_back(std::move(step));
  }
  return steps;
}

/// Golden: the whole script on an in-process processor.
std::vector<std::string> GoldenRun(const std::vector<Step>& steps) {
  auto processor = BuildShelfProcessor();
  EXPECT_TRUE(processor.ok()) << processor.status();
  std::vector<std::string> fingerprints;
  for (const Step& step : steps) {
    for (const Tuple& tuple : step.pushes) {
      EXPECT_TRUE((*processor)->Push("rfid", tuple).ok());
    }
    auto result = (*processor)->Tick(step.tick);
    EXPECT_TRUE(result.ok()) << result.status();
    fingerprints.push_back(Fingerprint(*result));
  }
  return fingerprints;
}

size_t TotalReadings(const std::vector<Step>& steps) {
  size_t n = 0;
  for (const Step& step : steps) n += step.pushes.size();
  return n;
}

/// A running shelf server: engine + sink + server + collected tick
/// fingerprints (written on the event-loop thread; read after Stop()).
struct ShelfServer {
  std::unique_ptr<EspProcessor> engine;
  std::unique_ptr<EngineSink> sink;
  std::unique_ptr<IngestServer> server;
  std::vector<std::string> fingerprints;
};

ShelfServer StartShelfServer(IngestServerOptions options) {
  ShelfServer s;
  auto engine = BuildShelfProcessor();
  EXPECT_TRUE(engine.ok()) << engine.status();
  s.engine = std::move(*engine);
  s.sink = std::make_unique<EngineSink>(s.engine.get());
  auto* fingerprints = &s.fingerprints;
  options.on_tick = [fingerprints](Timestamp, const core::TickResult& r) {
    fingerprints->push_back(Fingerprint(r));
  };
  auto server = IngestServer::Start(s.sink.get(), std::move(options));
  EXPECT_TRUE(server.ok()) << server.status();
  s.server = std::move(*server);
  return s;
}

/// Polls the server's stats until `pred` holds or ~2s elapse.
template <typename Pred>
bool WaitForStats(const IngestServer& server, Pred pred) {
  for (int i = 0; i < 400; ++i) {
    if (pred(server.StatsSnapshot())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

IngestClientOptions ClientOptions(uint16_t port, const std::string& id) {
  IngestClientOptions options;
  options.port = port;
  options.client_id = id;
  options.backoff_initial = Duration::Millis(1);
  options.backoff_max = Duration::Millis(50);
  return options;
}

TEST(IngestTest, LoopbackMatchesInProcessRunBitwise) {
  const std::vector<Step> steps = ShelfScript(8);
  const std::vector<std::string> golden = GoldenRun(steps);

  ShelfServer s = StartShelfServer(IngestServerOptions{});
  auto client = IngestClient::Connect(ClientOptions(s.server->port(), "c1"));
  ASSERT_TRUE(client.ok()) << client.status();
  // Health()'s ingest counters are safe to read from this thread while the
  // server's event loop runs (and publishes stats every pass): they come
  // through the server's mutex-guarded snapshot, not from engine state the
  // loop thread writes. The rest of Health() keeps the engine's
  // single-threaded contract, so probe before any readings are in flight.
  bool live_visible = false;
  for (int i = 0; i < 400 && !live_visible; ++i) {
    live_visible = s.engine->Health().ingest.connections_accepted >= 1;
    if (!live_visible) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(live_visible);
  for (const Step& step : steps) {
    ASSERT_TRUE((*client)->PushBatch("rfid", step.pushes).ok());
    ASSERT_TRUE((*client)->PushTick(step.tick).ok());
  }
  ASSERT_TRUE((*client)->Close().ok());
  s.server->Stop();

  EXPECT_EQ(s.fingerprints, golden);

  // The engine's Health() surfaces the final ingest counters after Stop().
  const core::PipelineHealth health = s.engine->Health();
  EXPECT_TRUE(health.ingest.active());
  EXPECT_EQ(health.ingest.readings_applied,
            static_cast<int64_t>(TotalReadings(steps)));
  EXPECT_EQ(health.ingest.ticks_applied, static_cast<int64_t>(steps.size()));
  EXPECT_EQ(health.ingest.batches_applied,
            static_cast<int64_t>(steps.size()));
  ASSERT_EQ(health.ingest.clients.size(), 1u);
  EXPECT_EQ(health.ingest.clients[0].client_id, "c1");
  EXPECT_EQ(health.ingest.clients[0].readings_applied,
            static_cast<int64_t>(TotalReadings(steps)));
  EXPECT_EQ(health.ingest.clients[0].last_applied_seq,
            2 * steps.size());  // One batch + one tick per step.
}

TEST(IngestTest, ReconnectResumesExactlyOnce) {
  const std::vector<Step> steps = ShelfScript(10);
  const std::vector<std::string> golden = GoldenRun(steps);

  ShelfServer s = StartShelfServer(IngestServerOptions{});
  auto client = IngestClient::Connect(ClientOptions(s.server->port(), "c1"));
  ASSERT_TRUE(client.ok()) << client.status();
  for (size_t t = 0; t < steps.size(); ++t) {
    if (t == 3 || t == 7) (*client)->SimulateConnectionLoss();
    ASSERT_TRUE((*client)->PushBatch("rfid", steps[t].pushes).ok());
    if (t == 5) (*client)->SimulateConnectionLoss();
    ASSERT_TRUE((*client)->PushTick(steps[t].tick).ok());
  }
  ASSERT_TRUE((*client)->Close().ok());
  EXPECT_GE((*client)->reconnects(), 3);
  s.server->Stop();

  // Bitwise-identical output and exactly-once accounting despite the tears.
  EXPECT_EQ(s.fingerprints, golden);
  const core::IngestStats stats = s.server->StatsSnapshot();
  EXPECT_EQ(stats.readings_applied,
            static_cast<int64_t>(TotalReadings(steps)));
  EXPECT_EQ(stats.ticks_applied, static_cast<int64_t>(steps.size()));
  EXPECT_GE(stats.reconnects, 3);
  ASSERT_EQ(stats.clients.size(), 1u);
  EXPECT_EQ(stats.clients[0].connects, stats.clients[0].reconnects + 1);
}

/// Reads one frame from a raw socket (handshakes and protocol-error tests).
StatusOr<std::string> ReadFrame(int fd, FrameDecoder& decoder) {
  for (;;) {
    ESP_ASSIGN_OR_RETURN(std::optional<std::string> payload, decoder.Next());
    if (payload.has_value()) return *payload;
    ESP_ASSIGN_OR_RETURN(std::string bytes,
                         RecvSome(fd, 4096, Duration::Seconds(2)));
    if (bytes.empty()) {
      return Status::ConnectionReset("peer closed");
    }
    decoder.Feed(bytes);
  }
}

/// Raw-socket handshake helper: connects, sends Hello for `client_id`, and
/// returns the socket plus the Welcome's last_applied_seq.
StatusOr<UniqueFd> RawHandshake(uint16_t port, const std::string& client_id,
                                uint64_t* last_applied, FrameDecoder* decoder) {
  ESP_ASSIGN_OR_RETURN(UniqueFd fd,
                       TcpConnect("127.0.0.1", port, Duration::Seconds(2)));
  HelloMessage hello;
  hello.client_id = client_id;
  ESP_RETURN_IF_ERROR(
      SendAll(fd.get(), EncodeHello(hello), Duration::Seconds(2)));
  ESP_ASSIGN_OR_RETURN(const std::string payload,
                       ReadFrame(fd.get(), *decoder));
  ESP_ASSIGN_OR_RETURN(const WelcomeMessage welcome, DecodeWelcome(payload));
  if (last_applied != nullptr) *last_applied = welcome.last_applied_seq;
  return fd;
}

TEST(IngestTest, ReconnectSupersedesTheStaleConnection) {
  // Regression: a reconnect while the previous connection still holds
  // queued-but-unapplied frames must evict that connection (dropping its
  // queue uncommitted) before the Welcome is computed — otherwise the
  // client's resends of those sequences get applied a second time.
  constexpr uint64_t kBatches = 30;
  IngestServerOptions options;
  options.apply_budget_frames = 1;  // Keep frames queued across passes.
  ShelfServer s = StartShelfServer(std::move(options));

  // Connection A: handshake, then every batch in one burst. With a 1-frame
  // apply budget most of them sit in A's pending queue for many passes.
  FrameDecoder decoder_a;
  uint64_t welcome_a = 0;
  auto a = RawHandshake(s.server->port(), "dup", &welcome_a, &decoder_a);
  ASSERT_TRUE(a.ok()) << a.status();
  EXPECT_EQ(welcome_a, 0u);
  std::string burst;
  for (uint64_t seq = 1; seq <= kBatches; ++seq) {
    burst += EncodeBatch(seq, "rfid",
                         {Rfid("reader_0", "x", static_cast<double>(seq))});
  }
  ASSERT_TRUE(SendAll(a->get(), burst, Duration::Seconds(2)).ok());

  // Connection B: same client id, mid-queue. The Welcome must reflect only
  // what the sink actually applied, and A must be evicted.
  FrameDecoder decoder_b;
  uint64_t welcome_b = 0;
  auto b = RawHandshake(s.server->port(), "dup", &welcome_b, &decoder_b);
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_LE(welcome_b, kBatches);

  // Resume exactly like IngestClient would: resend everything unacked.
  std::string resend;
  for (uint64_t seq = welcome_b + 1; seq <= kBatches; ++seq) {
    resend += EncodeBatch(seq, "rfid",
                          {Rfid("reader_0", "x", static_cast<double>(seq))});
  }
  if (!resend.empty()) {
    ASSERT_TRUE(SendAll(b->get(), resend, Duration::Seconds(2)).ok());
  }

  ASSERT_TRUE(WaitForStats(*s.server, [&](const core::IngestStats& stats) {
    return !stats.clients.empty() &&
           stats.clients[0].last_applied_seq == kBatches;
  }));
  s.server->Stop();

  // Exactly-once: every reading applied once, nothing twice.
  const core::IngestStats stats = s.server->StatsSnapshot();
  EXPECT_EQ(stats.superseded_closes, 1);
  EXPECT_EQ(stats.readings_applied, static_cast<int64_t>(kBatches));
  EXPECT_EQ(stats.batches_applied, static_cast<int64_t>(kBatches));
  ASSERT_EQ(stats.clients.size(), 1u);
  EXPECT_EQ(stats.clients[0].last_applied_seq, kBatches);
  EXPECT_EQ(stats.clients[0].readings_applied,
            static_cast<int64_t>(kBatches));
}

TEST(IngestTest, BackpressuredConnectionIsNotReapedAsSlowLoris) {
  // Regression: under kBlock backpressure the server itself stops reading,
  // leaving complete undecoded frames buffered. That is not a torn frame
  // and not a slow loris — the read timeout must not kill the connection.
  constexpr uint64_t kBatches = 20;
  IngestServerOptions options;
  options.backpressure = BackpressurePolicy::kBlock;
  options.queue_limit_frames = 1;
  options.apply_budget_frames = 1;
  options.read_timeout = Duration::Millis(40);  // Far below the drain time.
  ShelfServer s = StartShelfServer(std::move(options));

  FrameDecoder decoder;
  auto fd = RawHandshake(s.server->port(), "patient", nullptr, &decoder);
  ASSERT_TRUE(fd.ok()) << fd.status();
  std::string burst;
  for (uint64_t seq = 1; seq <= kBatches; ++seq) {
    burst += EncodeBatch(seq, "rfid",
                         {Rfid("reader_0", "x", static_cast<double>(seq))});
  }
  ASSERT_TRUE(SendAll(fd->get(), burst, Duration::Seconds(2)).ok());

  // Draining takes kBatches epoll passes (~20ms each) — many read timeouts
  // long. The connection must survive and apply everything.
  ASSERT_TRUE(WaitForStats(*s.server, [&](const core::IngestStats& stats) {
    return !stats.clients.empty() &&
           stats.clients[0].last_applied_seq == kBatches;
  }));
  s.server->Stop();
  const core::IngestStats stats = s.server->StatsSnapshot();
  EXPECT_EQ(stats.read_timeout_closes, 0);
  EXPECT_EQ(stats.torn_frame_closes, 0);
  EXPECT_EQ(stats.readings_applied, static_cast<int64_t>(kBatches));
}

TEST(IngestTest, ServerStateLossFailsFastWithATypedStatus) {
  // A server restart with fresh trackers cannot recover frames the client
  // already pruned against earlier acks; the client must surface a
  // distinct non-retryable status instead of burning reconnect attempts on
  // sequence-gap closes.
  ShelfServer s1 = StartShelfServer(IngestServerOptions{});
  const uint16_t port = s1.server->port();
  auto client = IngestClient::Connect(ClientOptions(port, "resume"));
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE((*client)->PushBatch("rfid", {Rfid("reader_0", "x", 0)}).ok());
  ASSERT_TRUE((*client)->Flush().ok());
  ASSERT_GE((*client)->last_acked(), 1u);
  s1.server->Stop();
  s1.server.reset();  // Free the port for the "restarted" server.

  IngestServerOptions fresh;
  fresh.port = port;  // Same address, brand-new (empty) trackers.
  ShelfServer s2 = StartShelfServer(std::move(fresh));
  (*client)->SimulateConnectionLoss();

  const Status status =
      (*client)->PushBatch("rfid", {Rfid("reader_0", "x", 1)});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition) << status;
  EXPECT_NE(status.message().find("lost acknowledged state"),
            std::string::npos)
      << status;
  s2.server->Stop();
}

TEST(IngestTest, ShedPolicyCountsDeliberateLoss) {
  IngestServerOptions options;
  options.backpressure = BackpressurePolicy::kShed;
  options.queue_limit_frames = 1;
  ShelfServer s = StartShelfServer(std::move(options));

  // Raw client: handshake, then a burst of 10 batch frames in one write so
  // they land ahead of the apply loop and overflow the 1-frame queue.
  auto fd = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(fd.ok()) << fd.status();
  HelloMessage hello;
  hello.client_id = "burst";
  ASSERT_TRUE(
      SendAll(fd->get(), EncodeHello(hello), Duration::Seconds(2)).ok());
  FrameDecoder decoder;
  auto welcome = ReadFrame(fd->get(), decoder);
  ASSERT_TRUE(welcome.ok()) << welcome.status();

  const int kBatches = 10;
  std::string burst;
  for (int i = 0; i < kBatches; ++i) {
    burst += EncodeBatch(static_cast<uint64_t>(i + 1), "rfid",
                         {Rfid("reader_0", "x", i)});
  }
  ASSERT_TRUE(SendAll(fd->get(), burst, Duration::Seconds(2)).ok());

  // Every frame must end up acked — applied or shed, never lost silently.
  ASSERT_TRUE(WaitForStats(*s.server, [&](const core::IngestStats& stats) {
    return !stats.clients.empty() &&
           stats.clients[0].last_applied_seq == kBatches;
  }));
  s.server->Stop();
  const core::IngestStats stats = s.server->StatsSnapshot();
  EXPECT_EQ(stats.batches_applied + stats.shed_batches, kBatches);
  EXPECT_GE(stats.shed_batches, 1);
  EXPECT_EQ(stats.shed_batches, stats.shed_readings);  // 1 reading each.
  ASSERT_EQ(stats.clients.size(), 1u);
  EXPECT_EQ(stats.clients[0].shed_batches, stats.shed_batches);
}

TEST(IngestTest, GarbageFramesCloseTheConnection) {
  ShelfServer s = StartShelfServer(IngestServerOptions{});
  auto fd = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(fd.ok());
  // An oversized length prefix: unmistakable garbage.
  ByteWriter garbage;
  garbage.WriteU32(0xffffffffu);
  garbage.WriteU32(0xdeadbeefu);
  garbage.WriteBytes("not a frame");
  ASSERT_TRUE(
      SendAll(fd->get(), garbage.data(), Duration::Seconds(2)).ok());
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.torn_frame_closes >= 1;
  }));
  // The server answered with a typed Error frame before closing.
  FrameDecoder decoder;
  auto frame = ReadFrame(fd->get(), decoder);
  if (frame.ok()) {
    auto error = DecodeError(*frame);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(static_cast<StatusCode>(error->code), StatusCode::kOutOfRange);
  }
  s.server->Stop();
}

TEST(IngestTest, DataBeforeHelloIsAProtocolError) {
  ShelfServer s = StartShelfServer(IngestServerOptions{});
  auto fd = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendAll(fd->get(),
                      EncodeBatch(1, "rfid", {Rfid("reader_0", "x", 0)}),
                      Duration::Seconds(2))
                  .ok());
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.protocol_error_closes >= 1;
  }));
  s.server->Stop();
}

TEST(IngestTest, SequenceGapClosesTheConnection) {
  ShelfServer s = StartShelfServer(IngestServerOptions{});
  auto fd = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(fd.ok());
  HelloMessage hello;
  hello.client_id = "gappy";
  ASSERT_TRUE(
      SendAll(fd->get(), EncodeHello(hello), Duration::Seconds(2)).ok());
  FrameDecoder decoder;
  ASSERT_TRUE(ReadFrame(fd->get(), decoder).ok());  // Welcome.
  // First frame must be seq 1; jumping to 5 means frames were lost.
  ASSERT_TRUE(SendAll(fd->get(),
                      EncodeBatch(5, "rfid", {Rfid("reader_0", "x", 0)}),
                      Duration::Seconds(2))
                  .ok());
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.sequence_gap_closes >= 1;
  }));
  auto error_frame = ReadFrame(fd->get(), decoder);
  if (error_frame.ok()) {
    auto error = DecodeError(*error_frame);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(static_cast<StatusCode>(error->code), StatusCode::kOutOfRange);
  }
  s.server->Stop();
}

TEST(IngestTest, ConnectionCapRejectsTheOverflow) {
  IngestServerOptions options;
  options.max_connections = 1;
  ShelfServer s = StartShelfServer(std::move(options));
  auto first = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.connections_accepted == 1;
  }));
  auto second =
      TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(second.ok());  // TCP accepts; the server closes it at once.
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.connections_rejected >= 1;
  }));
  // The overflow socket reads EOF.
  auto bytes = RecvSome(second->get(), 64, Duration::Seconds(2));
  ASSERT_TRUE(bytes.ok()) << bytes.status();
  EXPECT_TRUE(bytes->empty());
  s.server->Stop();
}

TEST(IngestTest, SlowLorisAndIdleConnectionsAreReaped) {
  IngestServerOptions options;
  options.read_timeout = Duration::Millis(60);
  options.idle_timeout = Duration::Millis(200);
  ShelfServer s = StartShelfServer(std::move(options));

  // Slow loris: handshake, then half a frame header, then silence.
  auto loris = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(loris.ok());
  HelloMessage hello;
  hello.client_id = "loris";
  ASSERT_TRUE(
      SendAll(loris->get(), EncodeHello(hello), Duration::Seconds(2)).ok());
  FrameDecoder decoder;
  ASSERT_TRUE(ReadFrame(loris->get(), decoder).ok());  // Welcome.
  ASSERT_TRUE(
      SendAll(loris->get(), std::string(3, '\x01'), Duration::Seconds(2))
          .ok());
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.read_timeout_closes >= 1;
  }));

  // Idle: connects, says nothing at all.
  auto idle = TcpConnect("127.0.0.1", s.server->port(), Duration::Seconds(2));
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(WaitForStats(*s.server, [](const core::IngestStats& stats) {
    return stats.idle_closes >= 1;
  }));
  s.server->Stop();
}

TEST(IngestTest, SurvivesAFaultyNetworkExactlyOnce) {
  const std::vector<Step> steps = ShelfScript(12);
  const std::vector<std::string> golden = GoldenRun(steps);

  ShelfServer s = StartShelfServer(IngestServerOptions{});

  FaultProxyOptions proxy_options;
  proxy_options.target_port = s.server->port();
  proxy_options.client_to_server.seed = 7;
  proxy_options.client_to_server.p_corrupt = 0.05;
  proxy_options.client_to_server.p_truncate = 0.03;
  proxy_options.client_to_server.p_duplicate = 0.05;
  proxy_options.client_to_server.p_reset = 0.02;
  proxy_options.client_to_server.p_stall = 0.05;
  proxy_options.client_to_server.stall = Duration::Millis(5);
  auto proxy = FaultProxy::Start(std::move(proxy_options));
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  IngestClientOptions copts = ClientOptions((*proxy)->port(), "chaotic");
  // A small unacked window keeps the stream in many small chunks, so the
  // proxy gets real injection opportunities (see bench/chaos_ingest.cc).
  copts.max_unacked_frames = 4;
  auto client = IngestClient::Connect(std::move(copts));
  ASSERT_TRUE(client.ok()) << client.status();
  for (const Step& step : steps) {
    ASSERT_TRUE((*client)->PushBatch("rfid", step.pushes).ok());
    ASSERT_TRUE((*client)->PushTick(step.tick).ok());
  }
  ASSERT_TRUE((*client)->Close().ok());
  (*proxy)->Stop();
  s.server->Stop();

  EXPECT_EQ(s.fingerprints, golden);
  const core::IngestStats stats = s.server->StatsSnapshot();
  EXPECT_EQ(stats.readings_applied,
            static_cast<int64_t>(TotalReadings(steps)));
  EXPECT_EQ(stats.ticks_applied, static_cast<int64_t>(steps.size()));
}


TEST(IngestTest, ReturnPathFaultsCostOnlyReconnectsNeverExactlyOnce) {
  // Faults injected ONLY server->client: corrupted/cut/duplicated ack and
  // welcome frames. The forward byte stream is clean, so every loss of
  // exactly-once here would be a client-side resume bug — the client must
  // treat a mangled return path as a dead connection, redial, and resume
  // from the Welcome cursor.
  const std::vector<Step> steps = ShelfScript(12);
  const std::vector<std::string> golden = GoldenRun(steps);

  ShelfServer s = StartShelfServer(IngestServerOptions{});

  FaultProxyOptions proxy_options;
  proxy_options.target_port = s.server->port();
  proxy_options.server_to_client.seed = 0xACC;
  proxy_options.server_to_client.p_corrupt = 0.10;
  proxy_options.server_to_client.p_truncate = 0.05;
  proxy_options.server_to_client.p_duplicate = 0.10;
  proxy_options.server_to_client.p_reset = 0.02;
  auto proxy = FaultProxy::Start(std::move(proxy_options));
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  IngestClientOptions copts = ClientOptions((*proxy)->port(), "ack-chaos");
  // A small window forces frequent ack round trips, so the return path
  // carries enough frames to actually get hit.
  copts.max_unacked_frames = 2;
  copts.max_reconnect_attempts = 256;
  auto client = IngestClient::Connect(std::move(copts));
  ASSERT_TRUE(client.ok()) << client.status();
  for (const Step& step : steps) {
    ASSERT_TRUE((*client)->PushBatch("rfid", step.pushes).ok());
    ASSERT_TRUE((*client)->PushTick(step.tick).ok());
  }
  ASSERT_TRUE((*client)->Close().ok());
  const int64_t faults = (*proxy)->StatsSnapshot().faults();
  (*proxy)->Stop();
  s.server->Stop();

  EXPECT_GT(faults, 0);  // The return path was actually exercised.
  EXPECT_EQ(s.fingerprints, golden);
  const core::IngestStats stats = s.server->StatsSnapshot();
  EXPECT_EQ(stats.readings_applied,
            static_cast<int64_t>(TotalReadings(steps)));
  EXPECT_EQ(stats.ticks_applied, static_cast<int64_t>(steps.size()));
}

TEST(IngestTest, CorruptedFirstWelcomeIsRetriedByConnect) {
  // Connect used to attempt its handshake exactly once, so a return-path
  // fault on the very first Welcome was fatal ("inbound stream corrupted:
  // frame CRC mismatch"). With seed 2 the proxy's server->client direction
  // flips a payload byte of the first chunk it forwards: that Welcome.
  const std::vector<Step> steps = ShelfScript(4);
  const std::vector<std::string> golden = GoldenRun(steps);

  ShelfServer s = StartShelfServer(IngestServerOptions{});

  FaultProxyOptions proxy_options;
  proxy_options.target_port = s.server->port();
  proxy_options.server_to_client.seed = 2;
  proxy_options.server_to_client.p_corrupt = 0.5;
  auto proxy = FaultProxy::Start(std::move(proxy_options));
  ASSERT_TRUE(proxy.ok()) << proxy.status();

  IngestClientOptions copts = ClientOptions((*proxy)->port(), "first-welcome");
  copts.max_reconnect_attempts = 256;
  copts.read_timeout = Duration::Millis(500);
  auto client = IngestClient::Connect(std::move(copts));
  ASSERT_TRUE(client.ok()) << client.status();
  const FaultProxyStats at_connect = (*proxy)->StatsSnapshot();
  EXPECT_GE(at_connect.server_to_client.corruptions, 1);
  EXPECT_GE(at_connect.connections, 2);  // The handshake was retried.

  for (const Step& step : steps) {
    ASSERT_TRUE((*client)->PushBatch("rfid", step.pushes).ok());
    ASSERT_TRUE((*client)->PushTick(step.tick).ok());
  }
  ASSERT_TRUE((*client)->Close().ok());
  (*proxy)->Stop();
  s.server->Stop();
  EXPECT_EQ(s.fingerprints, golden);
}

TEST(IngestTest, JournaledIngestReplaysToGoldenEquivalence) {
  // A RecoverySink journals every networked reading before it is applied,
  // so a crashed server session replays — from the journal alone — to the
  // exact ticks the live networked run produced.
  const std::vector<Step> steps = ShelfScript(6);
  const std::vector<std::string> golden = GoldenRun(steps);
  const std::string dir = ::testing::TempDir() + "/ingest_journaled";
  const std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  core::RecoveryOptions ropts;
  ropts.directory = dir;
  ropts.fsync = false;
  {
    auto engine = BuildShelfProcessor();
    ASSERT_TRUE(engine.ok());
    auto recovery =
        core::RecoveryCoordinator::Start(engine->get(), ropts);
    ASSERT_TRUE(recovery.ok()) << recovery.status();
    RecoverySink sink(recovery->get(), engine->get());
    auto server = IngestServer::Start(&sink, IngestServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status();

    auto client =
        IngestClient::Connect(ClientOptions((*server)->port(), "durable"));
    ASSERT_TRUE(client.ok()) << client.status();
    for (const Step& step : steps) {
      ASSERT_TRUE((*client)->PushBatch("rfid", step.pushes).ok());
      ASSERT_TRUE((*client)->PushTick(step.tick).ok());
    }
    ASSERT_TRUE((*client)->Close().ok());
    (*server)->Stop();
    // "Crash": both coordinator and engine are simply dropped.
  }

  auto fresh = BuildShelfProcessor();
  ASSERT_TRUE(fresh.ok());
  core::RestoreReport report;
  std::vector<std::string> replayed;
  auto resumed = core::RecoveryCoordinator::Resume(
      fresh->get(), ropts, &report,
      [&](Timestamp, const core::TickResult& result) {
        replayed.push_back(Fingerprint(result));
        return Status::OK();
      });
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(replayed, golden);
}

}  // namespace
}  // namespace esp::net
