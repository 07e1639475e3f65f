// espbench: the repository's end-to-end benchmark. One process runs one
// workload through the single-threaded core::EspProcessor (over loopback
// TCP for `ingest`), checks every tick's cleaned output against an
// independent reference in a forked checker process, and prints one JSON
// result line. See README.md for the workloads, the metrics and the layer
// attribution; run.py builds this binary and is the command to use.
//
//   espbench --workload <shelf|fleet|serving|ingest> --seed N --seconds S
//            --trace <0|1> [--spans FILE]
//   espbench --self-test

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "common/status.h"
#include "core/processor.h"
#include "cql/query_registry.h"
#include "net/ingest_client.h"
#include "net/ingest_server.h"
#include "tracing.h"
#include "workloads.h"

namespace esp::espbench {
namespace {

// Set-ups per run; setup_s is their median.
constexpr int kSetups = 9;
// Timed ticks a run needs at least, so that 10 samples lie beyond p99.
// A traced run reports no percentiles and needs only enough ticks for
// stable per-tick averages.
constexpr int64_t kMinSamples = 1000;
constexpr int64_t kMinTracedSamples = 100;
// A run stops measuring after this long even when short of kMinSamples.
constexpr double kMaxMeasureSeconds = 120.0;
// Timed traced ticks whose spans are written to --spans.
constexpr int64_t kRetainedTicks = 8;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
  int64_t min_samples = kMinSamples;
};

/// Calls attempted and failed: Push/Tick/Register/PushBatch/PushTick
/// calls plus one per checked tick output.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// --- Checker process -------------------------------------------------------

bool WriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

/// Reads exactly `n` bytes. On a non-blocking descriptor it polls.
bool ReadAll(int fd, char* data, size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, data, n);
    if (r < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (r <= 0) return false;
    data += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

bool SendFrame(int fd, const std::string& payload) {
  ByteWriter w;
  w.WriteString(payload);
  return WriteAll(fd, w.data().data(), w.size());
}

std::optional<std::string> RecvFrame(int fd) {
  char header[4];
  if (!ReadAll(fd, header, sizeof(header))) return std::nullopt;
  ByteReader r(std::string_view(header, sizeof(header)));
  const StatusOr<uint32_t> n = r.ReadU32();
  if (!n.ok()) return std::nullopt;
  std::string payload(*n, '\0');
  if (*n > 0 && !ReadAll(fd, payload.data(), *n)) return std::nullopt;
  return payload;
}

/// The checker's side: builds the workload's reference, then answers one
/// frame per tick with how many of the tick's outputs differ from it. An
/// empty frame ends it; it replies with its summary line.
[[noreturn]] void CheckerMain(const Workload& workload, int in, int out) {
  StatusOr<std::unique_ptr<Reference>> ref = MakeReference(workload);
  if (!ref.ok()) {
    SendFrame(out, "E" + ref.status().ToString());
    ::_exit(1);
  }
  if (!SendFrame(out, "R")) ::_exit(1);
  for (;;) {
    const std::optional<std::string> frame = RecvFrame(in);
    if (!frame.has_value()) ::_exit(1);
    if (frame->empty()) {
      SendFrame(out, (*ref)->Summary());
      ::_exit(0);
    }
    ByteReader r(*frame);
    const StatusOr<int64_t> tick = r.ReadI64();
    const StatusOr<uint32_t> count = r.ReadU32();
    if (!tick.ok() || !count.ok()) ::_exit(1);
    uint32_t bad = 0;
    std::string why;
    const Status advanced =
        (*ref)->Advance(workload.TickRows(*tick), TickTime(*tick));
    for (uint32_t i = 0; i < *count; ++i) {
      StatusOr<std::string> output = r.ReadString();
      if (!output.ok()) ::_exit(1);
      std::string diff;
      if (!advanced.ok()) {
        diff = "reference failed: " + advanced.ToString();
      } else if ((*ref)->Matches(*output, &diff)) {
        continue;
      }
      ++bad;
      if (why.empty()) why = diff;
    }
    ByteWriter reply;
    reply.WriteU32(bad);
    reply.WriteString(why);
    if (!SendFrame(out, reply.data())) ::_exit(1);
  }
}

/// The benchmark's side of the checker: a forked process holding the
/// reference state, so neither its memory nor its work lands in this
/// process's measurements. Ticks are checked in lock-step, outside the
/// timed intervals.
class Checker {
 public:
  static StatusOr<std::unique_ptr<Checker>> Start(const Workload& workload) {
    int down[2];
    int up[2];
    if (::pipe(down) != 0) return Status::FromErrno("pipe", errno);
    if (::pipe(up) != 0) {
      ::close(down[0]);
      ::close(down[1]);
      return Status::FromErrno("pipe", errno);
    }
    // The benchmark keeps the CPU it runs on (its ingest server thread
    // inherits that) and the checker gets the others, so neither waits
    // behind the other's polling and a tick's threads never migrate.
    // `allowed` is the set the process started with: later runs of a
    // self-test start out pinned by earlier ones.
    static const cpu_set_t allowed = [] {
      cpu_set_t set;
      CPU_ZERO(&set);
      if (::sched_getaffinity(0, sizeof(set), &set) != 0) CPU_ZERO(&set);
      return set;
    }();
    const int cpu = ::sched_getcpu();
    cpu_set_t mine;
    cpu_set_t others = allowed;
    CPU_ZERO(&mine);
    const bool split =
        cpu >= 0 && CPU_ISSET(cpu, &others) && CPU_COUNT(&others) > 1;
    if (split) {
      CPU_CLR(cpu, &others);
      CPU_SET(cpu, &mine);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int err = errno;
      for (const int fd : {down[0], down[1], up[0], up[1]}) ::close(fd);
      return Status::FromErrno("fork", err);
    }
    if (pid == 0) {
      ::close(down[1]);
      ::close(up[0]);
      if (split) ::sched_setaffinity(0, sizeof(others), &others);
      CheckerMain(workload, down[0], up[1]);
    }
    if (split) ::sched_setaffinity(0, sizeof(mine), &mine);
    ::close(down[0]);
    ::close(up[1]);
    auto checker = std::unique_ptr<Checker>(new Checker(pid, down[1], up[0]));
    const std::optional<std::string> ready = RecvFrame(checker->from_);
    if (!ready.has_value() || *ready != "R") {
      return Status::Internal("checker failed to start: " +
                              ready.value_or("no reply"));
    }
    // With the CPUs split, the benchmark polls for the checker's replies
    // from here on: a thread that sleeps between ticks on a virtual CPU
    // runs its next tick slower and far more variably (serving's p99 went
    // from ~25 ms to ~16 ms with polling).
    if (split) {
      ::fcntl(checker->from_, F_SETFL,
              ::fcntl(checker->from_, F_GETFL) | O_NONBLOCK);
    }
    return checker;
  }

  ~Checker() {
    if (to_ >= 0) ::close(to_);
    if (from_ >= 0) ::close(from_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  Checker(const Checker&) = delete;
  Checker& operator=(const Checker&) = delete;

  /// Sends tick `tick`'s encoded outputs (one per rig); returns how many
  /// differ from the reference, describing the first in `why`.
  StatusOr<uint32_t> Check(int64_t tick,
                           const std::vector<std::string>& outputs,
                           std::string* why) {
    ByteWriter w;
    w.WriteI64(tick);
    w.WriteU32(static_cast<uint32_t>(outputs.size()));
    for (const std::string& output : outputs) w.WriteString(output);
    if (!SendFrame(to_, w.data())) return Status::Internal("checker died");
    const std::optional<std::string> reply = RecvFrame(from_);
    if (!reply.has_value()) return Status::Internal("checker died");
    ByteReader r(*reply);
    ESP_ASSIGN_OR_RETURN(const uint32_t bad, r.ReadU32());
    ESP_ASSIGN_OR_RETURN(*why, r.ReadString());
    return bad;
  }

  /// Ends the checker and returns its summary line.
  StatusOr<std::string> Finish() {
    if (!SendFrame(to_, "")) return Status::Internal("checker died");
    const std::optional<std::string> summary = RecvFrame(from_);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    if (!summary.has_value() || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      return Status::Internal("checker exited abnormally");
    }
    return *summary;
  }

 private:
  Checker(pid_t pid, int to, int from) : pid_(pid), to_(to), from_(from) {}

  pid_t pid_;
  int to_;
  int from_;
};

// --- The system under test -------------------------------------------------

struct TickOutput {
  core::TickResult result;
  std::vector<cql::SubscriptionResult> subs;
};

struct SetupTimes {
  int64_t total_ns = 0;      // Everything below plus engine construction.
  int64_t start_ns = 0;      // EspProcessor::Start.
  int64_t register_ns = 0;   // All subscription registrations.
  int64_t registrations = 0;
};

/// One deployed engine: in-process, or behind an IngestServer fed by an
/// IngestClient over loopback. A traced rig wraps every stage and the
/// sink and records spans into its own Tracer.
class Rig {
 public:
  static StatusOr<std::unique_ptr<Rig>> Create(const Workload& w, bool traced,
                                               SetupTimes* times, Ops* ops) {
    const int64_t begin = NowNs();
    auto rig = std::unique_ptr<Rig>(new Rig(w, traced));
    Tracer* tracer = rig->tracer_.get();
    ESP_RETURN_IF_ERROR(Configure(w, tracer, &rig->engine_));
    const int64_t start = NowNs();
    ESP_RETURN_IF_ERROR(rig->engine_.Start());
    times->start_ns = NowNs() - start;
    std::unique_ptr<net::IngestSink> sink =
        std::make_unique<net::EngineSink>(&rig->engine_);
    if (tracer != nullptr) {
      sink = std::make_unique<TimingSink>(std::move(sink), tracer);
    }
    rig->sink_ = std::move(sink);
    if (!w.subscriptions.empty()) {
      rig->registry_ = std::make_unique<cql::QueryRegistry>();
      ESP_ASSIGN_OR_RETURN(stream::SchemaRef schema,
                           rig->engine_.TypeOutputSchema(w.device_type));
      ESP_RETURN_IF_ERROR(rig->registry_->AddStream(kServingStream, schema));
      const int64_t reg = NowNs();
      for (const Subscription& sub : w.subscriptions) {
        const Status registered =
            rig->registry_->Register(sub.tenant, sub.name, sub.text);
        ops->Count(registered.ok());
        ESP_RETURN_IF_ERROR(registered);
      }
      times->register_ns = NowNs() - reg;
      times->registrations = static_cast<int64_t>(w.subscriptions.size());
    }
    if (w.over_network) {
      net::IngestServerOptions options;
      // A rig idles while the checker or the other rig runs; nothing here
      // is a slow client.
      options.read_timeout = Duration::Seconds(600);
      options.idle_timeout = Duration::Seconds(600);
      Rig* self = rig.get();
      options.on_tick = [self](Timestamp now, const core::TickResult& r) {
        {
          std::lock_guard<std::mutex> lock(self->mu_);
          self->delivered_result_ = r;
          self->delivered_ = now;
        }
        self->cv_.notify_one();
      };
      ESP_ASSIGN_OR_RETURN(rig->server_, net::IngestServer::Start(
                                             rig->sink_.get(), options));
      net::IngestClientOptions client;
      client.port = rig->server_->port();
      client.client_id = "espbench";
      ESP_ASSIGN_OR_RETURN(rig->client_,
                           net::IngestClient::Connect(std::move(client)));
    }
    times->total_ns = NowNs() - begin;
    return rig;
  }

  ~Rig() {
    if (client_ != nullptr) (void)client_->Close();
    if (server_ != nullptr) server_->Stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  /// Runs one tick on `readings` and returns its latency: from the first
  /// reading sent to the tick's result in hand.
  int64_t RunTick(std::vector<stream::Tuple>& readings, Timestamp now,
                  TickOutput* out, Ops* ops) {
    const int64_t start = NowNs();
    if (tracer_ != nullptr) tracer_->BeginTick(start);
    if (client_ != nullptr) {
      RunNetworkTick(readings, now, start, out, ops);
    } else {
      for (stream::Tuple& tuple : readings) {
        ops->Count(sink_->Push(workload_.device_type, std::move(tuple)).ok());
      }
      StatusOr<core::TickResult> result = sink_->Tick(now);
      ops->Count(result.ok());
      out->result = result.ok() ? std::move(*result) : core::TickResult{};
    }
    if (registry_ != nullptr) {
      const int span =
          tracer_ != nullptr ? tracer_->Open(serving_name_, NowNs()) : -1;
      StatusOr<std::vector<cql::SubscriptionResult>> subs =
          FeedAndTick(*registry_, out->result, kServingStream, now);
      ops->Count(subs.ok());
      if (subs.ok()) out->subs = std::move(*subs);
      if (tracer_ != nullptr) {
        tracer_->Close(span, NowNs(), static_cast<int64_t>(out->subs.size()));
      }
    }
    const int64_t end = NowNs();
    if (tracer_ != nullptr) tracer_->EndTick(end);
    return end - start;
  }

  Tracer* tracer() { return tracer_.get(); }
  const core::EspProcessor& engine() const { return engine_; }
  const cql::QueryRegistry* registry() const { return registry_.get(); }
  std::optional<core::IngestStats> ingest_stats() const {
    if (server_ == nullptr) return std::nullopt;
    return server_->StatsSnapshot();
  }

 private:
  Rig(const Workload& w, bool traced)
      : workload_(w), tracer_(traced ? std::make_unique<Tracer>() : nullptr) {
    if (tracer_ != nullptr) {
      serving_name_ = tracer_->Intern("cql.serving", Layer::kServing);
      batch_name_ =
          tracer_->Intern("net.client.push_batch", Layer::kClientPushBatch);
      tick_frame_name_ =
          tracer_->Intern("net.client.push_tick", Layer::kClientPushTick);
    }
  }

  void RunNetworkTick(const std::vector<stream::Tuple>& readings,
                      Timestamp now, int64_t start, TickOutput* out,
                      Ops* ops) {
    int64_t batch_end = start;
    if (!readings.empty()) {
      ops->Count(client_->PushBatch(workload_.device_type, readings).ok());
      batch_end = NowNs();
    }
    const Status ticked = client_->PushTick(now);
    const int64_t tick_end = NowNs();
    ops->Count(ticked.ok());
    bool delivered = false;
    if (ticked.ok()) {
      std::unique_lock<std::mutex> lock(mu_);
      delivered = cv_.wait_for(lock, std::chrono::seconds(30),
                               [&] { return delivered_ == now; });
      if (delivered) out->result = std::move(delivered_result_);
    }
    if (!delivered) {
      ops->Count(false);
      out->result = core::TickResult{};
    }
    if (tracer_ != nullptr) {
      // The server has finished this tick: its spans are recorded and the
      // tracer's parent is the root again.
      if (!readings.empty()) {
        tracer_->Close(tracer_->Open(batch_name_, start), batch_end, 0);
      }
      tracer_->Close(tracer_->Open(tick_frame_name_, batch_end), tick_end, 0);
    }
  }

  const Workload& workload_;
  // Declared first: stages and the sink hold raw pointers to it.
  std::unique_ptr<Tracer> tracer_;
  int serving_name_ = 0;
  int batch_name_ = 0;
  int tick_frame_name_ = 0;
  core::EspProcessor engine_;
  std::unique_ptr<net::IngestSink> sink_;
  std::unique_ptr<cql::QueryRegistry> registry_;
  // on_tick hand-off from the server's event loop; declared before the
  // server so the loop is stopped before they go.
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Timestamp> delivered_;
  core::TickResult delivered_result_;
  std::unique_ptr<net::IngestServer> server_;
  std::unique_ptr<net::IngestClient> client_;
};

// --- Per-layer attribution -------------------------------------------------

struct StageTotals {
  int64_t busy_ns = 0;
  int64_t evals = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  int64_t errors = 0;
};

/// Span totals over the timed ticks of a traced run.
struct LayerTotals {
  int64_t ticks = 0;
  int64_t push_busy_ns = 0;
  int64_t push_calls = 0;
  int64_t core_tick_ns = 0;
  int64_t core_self_ns = 0;
  StageTotals stages[4];  // point, smooth, merge, arbitrate
  int64_t serving_ns = 0;
  int64_t serving_eval_errors = 0;
  int64_t batch_ns = 0;
  int64_t batch_calls = 0;
  int64_t round_trip_ns = 0;
  int64_t sink_ns = 0;
  /// Spans outside their parent, overlapping siblings inside a Tick, or a
  /// Tick whose children outlast it (negative self time).
  int64_t violations = 0;

  void Add(const Tracer& tracer, const std::vector<Span>& spans) {
    ++ticks;
    round_trip_ns += spans[0].end_ns - spans[0].start_ns;
    for (size_t i = 1; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const Span& parent = spans[static_cast<size_t>(s.parent)];
      if (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
        ++violations;
      }
      const int64_t duration = s.end_ns - s.start_ns;
      switch (tracer.layer(s.name)) {
        case Layer::kCorePush:
          push_busy_ns += s.busy_ns;
          push_calls += s.calls;
          sink_ns += s.busy_ns;
          break;
        case Layer::kCoreTick:
          core_tick_ns += duration;
          sink_ns += duration;
          core_self_ns += SelfTime(spans, i);
          break;
        case Layer::kPoint:
        case Layer::kSmooth:
        case Layer::kMerge:
        case Layer::kArbitrate: {
          StageTotals& t = stages[static_cast<int>(tracer.layer(s.name)) -
                                  static_cast<int>(Layer::kPoint)];
          t.busy_ns += s.busy_ns;
          t.evals += s.evals;
          t.rows_in += s.rows_in;
          t.rows_out += s.rows_out;
          t.errors += s.errors;
          break;
        }
        case Layer::kServing:
          serving_ns += duration;
          break;
        case Layer::kClientPushBatch:
          batch_ns += duration;
          ++batch_calls;
          break;
        default:
          break;
      }
    }
  }

  /// The Tick span's duration minus its children's; its children must
  /// not overlap, so children plus self time add up to the Tick span.
  int64_t SelfTime(const std::vector<Span>& spans, size_t tick) {
    std::vector<const Span*> children;
    for (const Span& s : spans) {
      if (s.parent == static_cast<int>(tick)) children.push_back(&s);
    }
    std::sort(children.begin(), children.end(),
              [](const Span* a, const Span* b) {
                return a->start_ns < b->start_ns;
              });
    int64_t covered = 0;
    for (size_t c = 0; c < children.size(); ++c) {
      if (c > 0 && children[c]->start_ns < children[c - 1]->end_ns) {
        ++violations;
      }
      covered += children[c]->end_ns - children[c]->start_ns;
    }
    const int64_t self =
        spans[tick].end_ns - spans[tick].start_ns - covered;
    if (self < 0) ++violations;
    return self;
  }
};

// --- A run -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  Ops ops;
  std::string first_mismatch;
  std::string checker_summary;
  int64_t samples = 0;
  int64_t span_violations = 0;
  std::vector<Metric> metrics;
  bool correct() const { return ops.failed == 0 && span_violations == 0; }
};

double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

double Median(std::vector<int64_t> values) { return Percentile(values, 0.5); }

double PerTick(int64_t total, int64_t ticks) {
  return ticks > 0 ? static_cast<double>(total) / static_cast<double>(ticks)
                   : 0.0;
}

double Ratio(int64_t num, int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void WriteSpans(const std::string& path, const Tracer& tracer,
                const std::vector<std::pair<int64_t, std::vector<Span>>>&
                    retained) {
  std::ofstream out(path);
  for (const auto& [tick, spans] : retained) {
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << "{\"tick\":" << tick << ",\"span\":" << i << ",\"name\":\""
          << tracer.name(s.name)
          << "\",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
          << ",\"end_ns\":" << s.end_ns << ",\"busy_ns\":" << s.busy_ns
          << ",\"calls\":" << s.calls << ",\"rows_in\":" << s.rows_in
          << ",\"rows_out\":" << s.rows_out << ",\"errors\":" << s.errors
          << "}\n";
    }
  }
}

StatusOr<RunReport> Run(const Options& o) {
  ESP_ASSIGN_OR_RETURN(const Workload w, MakeWorkload(o.workload, o.seed));
  RunReport report;
  ESP_ASSIGN_OR_RETURN(std::unique_ptr<Checker> checker, Checker::Start(w));

  // Set up kSetups times and keep the last rig: setup_s is the median.
  std::vector<int64_t> setup_ns;
  std::vector<int64_t> start_ns;
  std::vector<int64_t> register_ns;
  int64_t registrations = 0;
  std::unique_ptr<Rig> primary;
  for (int k = 0; k < kSetups; ++k) {
    primary.reset();
    SetupTimes times;
    ESP_ASSIGN_OR_RETURN(primary, Rig::Create(w, o.trace, &times, &report.ops));
    setup_ns.push_back(times.total_ns);
    start_ns.push_back(times.start_ns);
    register_ns.push_back(times.register_ns);
    registrations = times.registrations;
  }
  // A traced run also drives an untraced twin, alternating which goes
  // first each tick, so the tracing overhead is measured on the same
  // inputs under the same conditions.
  std::vector<Rig*> rigs = {primary.get()};
  std::unique_ptr<Rig> twin;
  if (o.trace) {
    SetupTimes times;
    ESP_ASSIGN_OR_RETURN(twin, Rig::Create(w, false, &times, &report.ops));
    rigs.push_back(twin.get());
  }

  std::vector<std::vector<int64_t>> latencies(rigs.size());
  int64_t timed_readings = 0;
  LayerTotals layers;
  std::vector<std::pair<int64_t, std::vector<Span>>> retained;
  cql::QueryServingStats serving_before;
  int64_t measure_start = -1;
  std::vector<std::string> outputs(rigs.size());
  for (int64_t i = 0;; ++i) {
    const bool timed = i >= w.warmup_ticks;
    if (timed && measure_start < 0) {
      measure_start = NowNs();
      if (primary->registry() != nullptr) {
        serving_before = primary->registry()->Stats();
      }
    }
    for (size_t j = 0; j < rigs.size(); ++j) {
      const size_t r = (static_cast<size_t>(i) + j) % rigs.size();
      std::vector<stream::Tuple> readings = w.StageTick(i);
      const int64_t count = static_cast<int64_t>(readings.size());
      TickOutput out;
      const int64_t latency = rigs[r]->RunTick(readings, TickTime(i), &out,
                                               &report.ops);
      if (timed) {
        latencies[r].push_back(latency);
        if (r == 0) timed_readings += count;
      }
      if (timed && rigs[r]->tracer() != nullptr) {
        const Tracer& tracer = *rigs[r]->tracer();
        const std::vector<Span>& spans = tracer.spans();
        layers.Add(tracer, spans);
        if (static_cast<int64_t>(retained.size()) < kRetainedTicks) {
          retained.emplace_back(i, spans);
        }
        for (const cql::SubscriptionResult& sub : out.subs) {
          if (!sub.status.ok()) ++layers.serving_eval_errors;
        }
      }
      outputs[r] = EncodeTickOutput(out.result, out.subs);
    }
    std::string why;
    ESP_ASSIGN_OR_RETURN(const uint32_t bad, checker->Check(i, outputs, &why));
    report.ops.attempted += static_cast<int64_t>(outputs.size());
    report.ops.failed += bad;
    if (bad > 0 && report.first_mismatch.empty()) {
      report.first_mismatch = "tick " + std::to_string(i) + ": " + why;
    }
    if (timed) {
      const double elapsed = static_cast<double>(NowNs() - measure_start) / 1e9;
      const int64_t samples = static_cast<int64_t>(latencies[0].size());
      if ((elapsed >= o.seconds && samples >= o.min_samples) ||
          elapsed >= kMaxMeasureSeconds) {
        break;
      }
    }
  }
  const double peak_rss_mb = PeakRssMb();
  ESP_ASSIGN_OR_RETURN(report.checker_summary, checker->Finish());
  report.samples = static_cast<int64_t>(latencies[0].size());

  std::optional<core::IngestStats> ingest = primary->ingest_stats();
  if (ingest.has_value()) {
    report.ops.failed += ingest->shed_readings + ingest->rejected_readings +
                         ingest->rejected_ticks;
  }

  std::vector<Metric>& m = report.metrics;
  if (!o.trace) {
    int64_t busy = 0;
    for (const int64_t l : latencies[0]) busy += l;
    m.push_back({"readings_per_s",
                 busy > 0 ? static_cast<double>(timed_readings) /
                                (static_cast<double>(busy) / 1e9)
                          : 0.0,
                 "1/s"});
    m.push_back({"tick_p50_us", Percentile(latencies[0], 0.50) / 1e3, "us"});
    m.push_back({"tick_p99_us", Percentile(latencies[0], 0.99) / 1e3, "us"});
    m.push_back({"setup_s", Median(setup_ns) / 1e9, "s"});
    m.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    return report;
  }

  report.span_violations = layers.violations;
  if (!o.spans_path.empty()) {
    WriteSpans(o.spans_path, *primary->tracer(), retained);
  }
  const int64_t t = layers.ticks;
  m.push_back({"core.push.ns_per_reading",
               Ratio(layers.push_busy_ns, layers.push_calls), "ns"});
  m.push_back({"core.tick.us_per_tick", PerTick(layers.core_tick_ns, t) / 1e3,
               "us"});
  m.push_back({"core.tick.self_us_per_tick",
               PerTick(layers.core_self_ns, t) / 1e3, "us"});
  m.push_back({"core.start_ms", Median(start_ns) / 1e6, "ms"});
  m.push_back({"core.buffered_tuples",
               static_cast<double>(primary->engine().BufferedTuples()),
               "count"});
  const char* kinds[4] = {"point", "smooth", "merge", "arbitrate"};
  for (int k = 0; k < 4; ++k) {
    const StageTotals& s = layers.stages[k];
    const std::string p = std::string("cql.") + kinds[k] + ".";
    m.push_back({p + "busy_us_per_tick", PerTick(s.busy_ns, t) / 1e3, "us"});
    m.push_back({p + "us_per_eval", Ratio(s.busy_ns, s.evals) / 1e3, "us"});
    m.push_back({p + "rows_in_per_tick", PerTick(s.rows_in, t), "count"});
    m.push_back({p + "rows_out_per_tick", PerTick(s.rows_out, t), "count"});
    m.push_back({p + "evals_per_tick", PerTick(s.evals, t), "count"});
    m.push_back({p + "errors", static_cast<double>(s.errors), "count"});
  }
  cql::QueryServingStats after;
  size_t serving_buffered = 0;
  if (primary->registry() != nullptr) {
    after = primary->registry()->Stats();
    serving_buffered = primary->registry()->BufferedTuples();
  }
  const int64_t plan_evals =
      static_cast<int64_t>(after.plan_evals - serving_before.plan_evals);
  const int64_t fanout = static_cast<int64_t>(after.fanout_results -
                                              serving_before.fanout_results);
  m.push_back({"cql.serving.busy_us_per_tick",
               PerTick(layers.serving_ns, t) / 1e3, "us"});
  m.push_back({"cql.serving.register_us",
               registrations > 0 ? Median(register_ns) / 1e3 /
                                       static_cast<double>(registrations)
                                 : 0.0,
               "us"});
  m.push_back({"cql.serving.plan_evals_per_tick", PerTick(plan_evals, t),
               "count"});
  m.push_back({"cql.serving.results_per_tick", PerTick(fanout, t), "count"});
  m.push_back({"cql.serving.dedup_ratio", Ratio(fanout, plan_evals), "ratio"});
  m.push_back({"cql.serving.buffered_tuples",
               static_cast<double>(serving_buffered), "count"});
  m.push_back({"cql.serving.eval_errors",
               static_cast<double>(layers.serving_eval_errors), "count"});
  const core::IngestStats net = ingest.value_or(core::IngestStats{});
  m.push_back({"net.client.push_batch_us",
               Ratio(layers.batch_ns, layers.batch_calls) / 1e3, "us"});
  m.push_back({"net.server.self_us_per_tick",
               ingest.has_value()
                   ? PerTick(layers.round_trip_ns - layers.sink_ns, t) / 1e3
                   : 0.0,
               "us"});
  m.push_back({"net.bytes_per_reading",
               Ratio(net.bytes_received, net.readings_applied), "B"});
  m.push_back({"net.frames_per_tick",
               Ratio(net.frames_decoded, net.ticks_applied), "count"});
  m.push_back({"net.failed_frames",
               static_cast<double>(net.shed_batches + net.rejected_readings +
                                   net.rejected_ticks + net.torn_frame_closes +
                                   net.protocol_error_closes),
               "count"});
  const double traced_p50 = Median(latencies[0]);
  const double plain_p50 = Median(latencies[1]);
  m.push_back({"trace.overhead_pct",
               plain_p50 > 0 ? (traced_p50 / plain_p50 - 1.0) * 100.0 : 0.0,
               "%"});
  return report;
}

// --- Output -----------------------------------------------------------------

std::string Number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(const Options& o, const RunReport& r) {
  std::printf("espbench workload=%s seed=%llu trace=%d samples=%lld\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, static_cast<long long>(r.samples));
  for (const Metric& metric : r.metrics) {
    std::printf("  %-34s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("  %-34s %16.6f ratio (%lld failed / %lld attempted)\n",
              "op_fail_ratio", Ratio(r.ops.failed, r.ops.attempted),
              static_cast<long long>(r.ops.failed),
              static_cast<long long>(r.ops.attempted));
  if (!r.first_mismatch.empty()) {
    std::printf("  first mismatch: %s\n", r.first_mismatch.c_str());
  }
  if (r.span_violations > 0) {
    std::printf("  span nesting violations: %lld\n",
                static_cast<long long>(r.span_violations));
  }
  if (!r.checker_summary.empty()) {
    std::printf("  %s\n", r.checker_summary.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.ops.attempted);
  json += ", \"failed\": " + std::to_string(r.ops.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + r.metrics[i].name + "\": {\"value\": " +
            Number(r.metrics[i].value) + ", \"unit\": \"" + r.metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Self-test ---------------------------------------------------------------

int SelfTest() {
  int failures = 0;
  auto expect = [&failures](bool ok, const std::string& what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
    if (!ok) ++failures;
  };
  using stream::Value;
  const std::vector<Row> want = {
      {Value::String("shelf_0"), Value::String("tag_a"), Value::Int64(3)},
      {Value::String("shelf_1"), Value::String("tag_a"), Value::Int64(3)},
      {Value::String("room_0"), Value::Double(21.5)}};
  auto compare = [&](const std::vector<Row>& got, bool same,
                     const std::string& what) {
    std::string why;
    const bool equal = SameRowMultiset(got, want, kDoubleRelTolerance, &why);
    expect(equal == same,
           "comparator " + what + (why.empty() ? "" : " (" + why + ")"));
  };
  compare({want[2], want[1], want[0]}, true, "accepts a permuted copy");
  compare({want[0], want[2]}, false, "flags a missing row");
  compare({want[0], want[1], want[2], want[2]}, false, "flags an extra row");
  std::vector<Row> got = want;
  got[1][2] = Value::Int64(4);
  compare(got, false, "flags a changed count");
  got = want;
  got[2][1] = Value::Double(21.5 * (1 + 1e-12));
  compare(got, true, "accepts a double within tolerance");
  got[2][1] = Value::Double(21.5 * (1 + 1e-6));
  compare(got, false, "flags a double outside tolerance");
  got = want;
  got[0][2] = Value::Double(3.0);
  compare(got, false, "flags a changed type");

  for (const std::string& name : WorkloadNames()) {
    for (const uint64_t seed : {1, 2}) {
      for (const bool trace : {false, true}) {
        if (trace && seed != 1) continue;
        Options o;
        o.workload = name;
        o.seed = seed;
        o.seconds = 0;
        o.trace = trace;
        o.min_samples = 60;
        StatusOr<RunReport> r = Run(o);
        const std::string what = name + " seed " + std::to_string(seed) +
                                 (trace ? " traced" : "");
        if (!r.ok()) {
          expect(false, what + ": " + r.status().ToString());
          continue;
        }
        expect(r->ops.failed == 0,
               what + ": op_fail_ratio == 0 (" +
                   std::to_string(r->ops.failed) + "/" +
                   std::to_string(r->ops.attempted) + ") " +
                   r->first_mismatch);
        if (trace) {
          expect(r->span_violations == 0,
                 what + ": stage spans plus self time add up to each Tick "
                        "span, all spans inside their parents");
        }
      }
    }
  }
  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "espbench: %s\nusage: espbench --workload "
               "<shelf|fleet|serving|ingest> --seed N --seconds S --trace "
               "<0|1> [--spans FILE]\n"
               "       espbench --self-test\n",
               message);
  return 2;
}

}  // namespace
}  // namespace esp::espbench

int main(int argc, char** argv) {
  using namespace esp::espbench;
  ::signal(SIGPIPE, SIG_IGN);
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return SelfTest();
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return Usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds >= 0)) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("bad --trace");
      o.trace = value == "1";
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (o.workload.empty()) return Usage("--workload is required");
  if (o.trace) o.min_samples = kMinTracedSamples;
  esp::StatusOr<RunReport> report = Run(o);
  if (!report.ok()) {
    std::fprintf(stderr, "espbench: %s\n", report.status().ToString().c_str());
    return 1;
  }
  PrintResult(o, *report);
  return 0;
}
