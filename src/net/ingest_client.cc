#include "net/ingest_client.h"

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <thread>
#include <utility>

namespace esp::net {

namespace {

/// Connection-level failures trigger reconnect + resume; everything else
/// (protocol rejections, bad arguments) surfaces to the caller.
bool IsConnectionFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kConnectionReset:
    case StatusCode::kTimedOut:
    case StatusCode::kIoError:
    case StatusCode::kUnavailable:
      return true;
    default:
      return false;
  }
}

/// Pulls the next inbound frame, downgrading decoder errors (CRC mismatch,
/// oversized length prefix) to kConnectionReset: once framing is lost the
/// only sound recovery is to drop the socket and resume from the last ack,
/// exactly as for a torn connection. Without this, one corrupted ack byte
/// on the return path would kill the client instead of costing a reconnect.
StatusOr<std::optional<std::string>> NextFrameOrReset(FrameDecoder& decoder) {
  StatusOr<std::optional<std::string>> next = decoder.Next();
  if (!next.ok()) {
    return Status::ConnectionReset("inbound stream corrupted: " +
                                   next.status().message());
  }
  return next;
}

}  // namespace

IngestClientOptions MakeIngestClientOptions(
    const core::IngestSpecOptions& spec) {
  IngestClientOptions options;
  options.host = spec.bind_address;
  options.port = spec.port;
  options.max_frame_bytes = static_cast<size_t>(spec.max_frame_bytes);
  options.backoff_initial = spec.backoff_initial;
  options.backoff_max = spec.backoff_max;
  options.backoff_jitter = spec.backoff_jitter;
  return options;
}

IngestClient::IngestClient(IngestClientOptions options)
    : options_(std::move(options)),
      decoder_(options_.max_frame_bytes),
      jitter_(options_.jitter_seed) {}

StatusOr<std::unique_ptr<IngestClient>> IngestClient::Connect(
    IngestClientOptions options) {
  if (options.client_id.empty()) {
    return Status::InvalidArgument("client_id must be non-empty");
  }
  std::unique_ptr<IngestClient> client(new IngestClient(std::move(options)));
  // The first handshake runs under the same retry loop as every reconnect:
  // a return-path fault on the very first Welcome costs a backoff, not the
  // client.
  ESP_RETURN_IF_ERROR(client->WithRetries([] { return Status::OK(); }));
  return client;
}

Duration IngestClient::NextBackoff() {
  Duration base = options_.backoff_initial;
  for (size_t i = 0; i < backoff_attempt_ && base < options_.backoff_max;
       ++i) {
    base = base * 2.0;
  }
  if (base > options_.backoff_max) base = options_.backoff_max;
  const double jitter = options_.backoff_jitter;
  const double factor = jitter > 0.0 ? jitter_.Uniform(1.0 - jitter,
                                                       1.0 + jitter)
                                     : 1.0;
  ++backoff_attempt_;
  Duration delay = base * factor;
  if (delay < Duration::Zero()) delay = Duration::Zero();
  return delay;
}

Status IngestClient::EstablishAndResume() {
  fd_.reset();
  decoder_ = FrameDecoder(options_.max_frame_bytes);

  ESP_ASSIGN_OR_RETURN(
      fd_, TcpConnect(options_.host, options_.port, options_.connect_timeout));

  HelloMessage hello;
  hello.client_id = options_.client_id;
  ESP_RETURN_IF_ERROR(
      SendAll(fd_.get(), EncodeHello(hello), options_.write_timeout));

  // Read until the Welcome arrives.
  for (;;) {
    ESP_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                         NextFrameOrReset(decoder_));
    if (payload.has_value()) {
      ESP_ASSIGN_OR_RETURN(const MessageKind kind, PeekKind(*payload));
      if (kind == MessageKind::kError) {
        ESP_ASSIGN_OR_RETURN(ErrorMessage err, DecodeError(*payload));
        last_server_error_ = err.message;
        return Status::ConnectionReset("server rejected handshake: " +
                                       err.message);
      }
      ESP_ASSIGN_OR_RETURN(const WelcomeMessage welcome,
                           DecodeWelcome(*payload));
      if (welcome.last_applied_seq < last_acked_) {
        // The server acknowledges less than it already acked on a previous
        // connection: it restarted with fresh trackers, and the frames the
        // earlier acks let us prune are unrecoverable. Resending from here
        // would only produce sequence-gap closes until the retry budget
        // dies — fail fast with a non-retryable, data-loss-shaped status.
        return Status::FailedPrecondition(
            "server lost acknowledged state: welcome acks sequence " +
            std::to_string(welcome.last_applied_seq) +
            " but this client already pruned through " +
            std::to_string(last_acked_));
      }
      // Resume: drop what the server already applied, resend the rest.
      if (welcome.last_applied_seq > last_acked_) {
        last_acked_ = welcome.last_applied_seq;
      }
      while (!unacked_.empty() && unacked_.front().seq <= last_acked_) {
        unacked_.pop_front();
      }
      for (const UnackedFrame& frame : unacked_) {
        ESP_RETURN_IF_ERROR(
            SendAll(fd_.get(), frame.bytes, options_.write_timeout));
      }
      ++reconnects_;
      backoff_attempt_ = 0;
      return Status::OK();
    }
    ESP_ASSIGN_OR_RETURN(
        std::string bytes,
        RecvSome(fd_.get(), 64 * 1024, options_.read_timeout));
    if (bytes.empty()) {
      return Status::ConnectionReset(
          "server closed the connection during the handshake");
    }
    decoder_.Feed(bytes);
  }
}

template <typename Fn>
Status IngestClient::WithRetries(Fn&& attempt) {
  if (closed_) return Status::InvalidArgument("client is closed");
  Status last = Status::OK();
  for (size_t tries = 0; tries <= options_.max_reconnect_attempts; ++tries) {
    if (!fd_.valid()) {
      last = EstablishAndResume();
      if (!last.ok()) {
        fd_.reset();
        if (!IsConnectionFailure(last)) return last;
        const Duration delay = NextBackoff();
        if (!delay.IsZero()) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(delay.micros()));
        }
        continue;
      }
    }
    last = attempt();
    if (last.ok()) return last;
    if (!IsConnectionFailure(last)) return last;
    // The connection died mid-operation: tear down and resume.
    fd_.reset();
  }
  return last;
}

Status IngestClient::HandleServerPayload(const std::string& payload) {
  ESP_ASSIGN_OR_RETURN(const MessageKind kind, PeekKind(payload));
  switch (kind) {
    case MessageKind::kAck:
    case MessageKind::kWelcome: {
      // A stray Welcome (duplicate delivery of the handshake reply) carries
      // the same cumulative high-water mark an ack does; treat it as one
      // instead of dying on it.
      uint64_t applied = 0;
      if (kind == MessageKind::kAck) {
        ESP_ASSIGN_OR_RETURN(const AckMessage ack, DecodeAck(payload));
        applied = ack.last_applied_seq;
      } else {
        ESP_ASSIGN_OR_RETURN(const WelcomeMessage welcome,
                             DecodeWelcome(payload));
        applied = welcome.last_applied_seq;
      }
      if (applied > last_acked_) {
        last_acked_ = applied;
        while (!unacked_.empty() && unacked_.front().seq <= last_acked_) {
          unacked_.pop_front();
        }
      }
      return Status::OK();
    }
    case MessageKind::kError: {
      ESP_ASSIGN_OR_RETURN(ErrorMessage err, DecodeError(payload));
      last_server_error_ = err.message;
      // The server closes after an Error frame; treat it as a dropped
      // connection so the retry loop resumes from the last ack.
      return Status::ConnectionReset("server error: " + err.message);
    }
    default:
      return Status::ParseError("unexpected server message kind");
  }
}

Status IngestClient::DrainAcks(uint64_t min_acked) {
  for (;;) {
    // Consume whatever frames are already buffered.
    for (;;) {
      ESP_ASSIGN_OR_RETURN(std::optional<std::string> payload,
                           NextFrameOrReset(decoder_));
      if (!payload.has_value()) break;
      ESP_RETURN_IF_ERROR(HandleServerPayload(*payload));
    }
    if (min_acked == 0) {
      // Opportunistic mode: pull whatever the kernel has without blocking.
      char buf[64 * 1024];
      const ssize_t n = ::recv(fd_.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.Feed(std::string_view(buf, static_cast<size_t>(n)));
        continue;
      }
      if (n == 0) {
        return Status::ConnectionReset("server closed the connection");
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::OK();
      if (errno == EINTR) continue;
      return Status::FromErrno("recv", errno);
    }
    if (last_acked_ >= min_acked) return Status::OK();

    // Need more: block up to the read timeout.
    ESP_ASSIGN_OR_RETURN(
        std::string bytes,
        RecvSome(fd_.get(), 64 * 1024, options_.read_timeout));
    if (bytes.empty()) {
      return Status::ConnectionReset("server closed while acks were pending");
    }
    decoder_.Feed(bytes);
  }
}

Status IngestClient::Send(uint64_t seq, std::string frame) {
  return WithRetries([&]() -> Status {
    // A retry can land after the frame was already acked (the failure hit a
    // later step) — then there is nothing left to do.
    if (last_acked_ >= seq) return Status::OK();
    // The frame joins the resume window before the first transmission
    // attempt, so a failure anywhere below resends it after reconnect. On a
    // retry the entry already exists (reconnect resent it); don't duplicate.
    if (unacked_.empty() || unacked_.back().seq < seq) {
      UnackedFrame entry;
      entry.seq = seq;
      entry.bytes = std::move(frame);
      unacked_.push_back(std::move(entry));
      ESP_RETURN_IF_ERROR(SendAll(fd_.get(), unacked_.back().bytes,
                                  options_.write_timeout));
    }
    // Opportunistic non-blocking ack drain keeps the window tight.
    ESP_RETURN_IF_ERROR(DrainAcks(0));
    if (unacked_.size() > options_.max_unacked_frames) {
      // Window full: block until the oldest outstanding frame is acked.
      ESP_RETURN_IF_ERROR(DrainAcks(unacked_.front().seq));
    }
    return Status::OK();
  });
}

Status IngestClient::PushBatch(const std::string& device_type,
                               const std::vector<stream::Tuple>& readings) {
  if (readings.empty()) {
    return Status::InvalidArgument(
        "empty batches are not representable on the wire");
  }
  const uint64_t seq = next_seq_++;
  return Send(seq, EncodeBatch(seq, device_type, readings));
}

Status IngestClient::PushTick(Timestamp now) {
  const uint64_t seq = next_seq_++;
  return Send(seq, EncodeTick(seq, now));
}

Status IngestClient::Flush() {
  if (next_seq_ == 1) return Status::OK();  // Nothing ever sent.
  const uint64_t target = next_seq_ - 1;
  return WithRetries([&]() -> Status { return DrainAcks(target); });
}

Status IngestClient::Close() {
  if (closed_) return Status::OK();
  const Status status = Flush();
  fd_.reset();
  closed_ = true;
  return status;
}

void IngestClient::SimulateConnectionLoss() { fd_.reset(); }

}  // namespace esp::net
