#ifndef ESP_NET_INGEST_CLIENT_H_
#define ESP_NET_INGEST_CLIENT_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "core/deployment.h"
#include "net/socket.h"
#include "net/wire.h"
#include "stream/tuple.h"

namespace esp::net {

struct IngestClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Resume key: the server keeps the last applied sequence per client id
  /// across reconnects. Must be non-empty and stable for the stream's life.
  std::string client_id = "default";

  Duration connect_timeout = Duration::Seconds(5);
  Duration read_timeout = Duration::Seconds(5);
  Duration write_timeout = Duration::Seconds(5);

  /// Reconnect backoff: delay doubles from `backoff_initial` up to
  /// `backoff_max`, each delay multiplied by a uniform factor in
  /// [1 - jitter, 1 + jitter] drawn from a deterministic Rng.
  Duration backoff_initial = Duration::Millis(10);
  Duration backoff_max = Duration::Seconds(2);
  double backoff_jitter = 0.5;
  uint64_t jitter_seed = 0x16e5742ULL;

  /// Consecutive failed reconnect attempts before an operation gives up and
  /// surfaces the connection error.
  size_t max_reconnect_attempts = 32;

  /// Sent-but-unacked frames held for resume. Pushing past this blocks on
  /// acks (bounded client memory).
  size_t max_unacked_frames = 1024;

  size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

/// Converts a deployment spec's [ingest] section (core/deployment.h) into
/// client options: the server's address plus the reconnect-backoff knobs.
/// The caller still supplies client_id (and may override timeouts).
IngestClientOptions MakeIngestClientOptions(
    const core::IngestSpecOptions& spec);

/// \brief Synchronous TCP client for the ingest wire protocol, with
/// exactly-once delivery across connection loss.
///
/// Every PushBatch/PushTick gets the next sequence number and is retained
/// until the server's cumulative ack covers it. On any connection failure
/// the client reconnects with jittered exponential backoff, re-handshakes,
/// prunes frames the server already applied (per the Welcome), and resends
/// the rest in order — so the server applies every frame exactly once no
/// matter where the connection tore. Not thread-safe; one owner drives it.
class IngestClient {
 public:
  /// Connects and completes the handshake. Connection-level failures of
  /// the first handshake (refused connect, torn or corrupted Welcome) are
  /// retried with the same backoff and `max_reconnect_attempts` budget as
  /// every later reconnect.
  static StatusOr<std::unique_ptr<IngestClient>> Connect(
      IngestClientOptions options);

  /// Sends one batch (readings must be non-empty).
  Status PushBatch(const std::string& device_type,
                   const std::vector<stream::Tuple>& readings);

  /// Sends one tick boundary.
  Status PushTick(Timestamp now);

  /// Blocks until every sent frame is acked (or the retry budget dies).
  Status Flush();

  /// Orderly shutdown: Flush, then close the socket.
  Status Close();

  /// Tears the socket down without telling the server — the tests' and
  /// chaos harness's hook for exercising the resume path. The next
  /// operation reconnects transparently.
  void SimulateConnectionLoss();

  uint64_t next_seq() const { return next_seq_; }
  uint64_t last_acked() const { return last_acked_; }
  int64_t reconnects() const { return reconnects_; }
  /// Last Error frame the server sent (empty when none).
  const std::string& last_server_error() const { return last_server_error_; }

 private:
  explicit IngestClient(IngestClientOptions options);

  struct UnackedFrame {
    uint64_t seq = 0;
    std::string bytes;  // The full encoded frame, resent verbatim.
  };

  /// Appends to unacked_, transmits, and opportunistically drains acks.
  Status Send(uint64_t seq, std::string frame);

  /// (Re)establishes the connection: socket + Hello/Welcome + resume
  /// (prune acked, resend unacked). Called with no live socket.
  Status EstablishAndResume();

  /// Runs `attempt` under the reconnect loop: on a connection-level
  /// failure, tears down, backs off, resumes, and retries.
  template <typename Fn>
  Status WithRetries(Fn&& attempt);

  /// Reads server frames until `min_acked` is covered (blocking) or, with
  /// min_acked == 0, drains whatever is already buffered without blocking.
  Status DrainAcks(uint64_t min_acked);

  /// Handles one server payload (ack or error).
  Status HandleServerPayload(const std::string& payload);

  Duration NextBackoff();

  IngestClientOptions options_;
  UniqueFd fd_;
  FrameDecoder decoder_;
  Rng jitter_;

  uint64_t next_seq_ = 1;     // Sequence the next frame will carry.
  uint64_t last_acked_ = 0;   // Cumulative server ack.
  std::deque<UnackedFrame> unacked_;

  size_t backoff_attempt_ = 0;
  int64_t reconnects_ = -1;  // First EstablishAndResume is the connect.
  std::string last_server_error_;
  bool closed_ = false;
};

}  // namespace esp::net

#endif  // ESP_NET_INGEST_CLIENT_H_
