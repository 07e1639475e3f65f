#include "core/health.h"

#include <algorithm>

#include "common/string_util.h"

namespace esp::core {

const char* StageErrorPolicyToString(StageErrorPolicy policy) {
  switch (policy) {
    case StageErrorPolicy::kDegrade:
      return "degrade";
    case StageErrorPolicy::kFailFast:
      return "failfast";
  }
  return "?";
}

const char* ReceptorStateToString(ReceptorState state) {
  switch (state) {
    case ReceptorState::kHealthy:
      return "healthy";
    case ReceptorState::kSuspect:
      return "suspect";
    case ReceptorState::kQuarantined:
      return "quarantined";
  }
  return "?";
}

void PipelineHealth::AddReceptor(const ReceptorHealth& r) {
  receptors.push_back(r);
  total_late_admitted += r.late_admitted;
  total_dropped_late += r.dropped_late;
  total_dropped_quarantined += r.dropped_quarantined;
  if (r.state == ReceptorState::kQuarantined) ++quarantined_now;
  if (r.state == ReceptorState::kSuspect) ++suspect_now;
}

std::string PipelineHealth::ToString() const {
  std::string out;
  out += StrFormat(
      "pipeline health: %zu receptors (%zu suspect, %zu quarantined), "
      "%lld stage errors, %lld late admitted, %lld dropped late, "
      "%lld dropped in quarantine\n",
      receptors.size(), suspect_now, quarantined_now,
      static_cast<long long>(total_stage_errors),
      static_cast<long long>(total_late_admitted),
      static_cast<long long>(total_dropped_late),
      static_cast<long long>(total_dropped_quarantined));
  for (const ReceptorHealth& r : receptors) {
    if (r.state == ReceptorState::kHealthy && r.dropped_late == 0 &&
        r.late_admitted == 0 && r.quarantine_count == 0 &&
        r.last_error.empty()) {
      continue;  // Keep the report focused on receptors with a story.
    }
    out += StrFormat("  %s/%s: %s, delivered=%lld late=%lld dropped=%lld",
                     r.device_type.c_str(), r.receptor_id.c_str(),
                     ReceptorStateToString(r.state),
                     static_cast<long long>(r.delivered),
                     static_cast<long long>(r.late_admitted),
                     static_cast<long long>(r.dropped_late));
    if (r.quarantine_count > 0) {
      out += StrFormat(" quarantines=%lld revivals=%lld discarded=%lld",
                       static_cast<long long>(r.quarantine_count),
                       static_cast<long long>(r.revival_count),
                       static_cast<long long>(r.dropped_quarantined));
    }
    if (!r.last_error.empty()) out += " last_error=" + r.last_error;
    out += "\n";
  }
  for (const StageErrorStat& s : stage_errors) {
    out += StrFormat("  stage %s: %lld errors (last: %s)\n", s.stage.c_str(),
                     static_cast<long long>(s.errors),
                     s.last_message.c_str());
  }
  if (recovery.checkpoints_written > 0 || recovery.restores > 0 ||
      recovery.journal_records > 0) {
    out += "  recovery: " + recovery.ToString() + "\n";
  }
  if (columnar.active() || columnar.enabled) {
    out += "  columnar: " + columnar.ToString() + "\n";
  }
  if (queries.active()) {
    out += "  " + queries.ToString() + "\n";
  }
  if (ingest.active()) {
    out += "  ingest: " + ingest.ToString() + "\n";
    for (const ClientIngestStats& c : ingest.clients) {
      out += StrFormat(
          "    client %s: connects=%lld reconnects=%lld applied=%lld "
          "dup=%lld shed=%lld torn=%lld rejected=%lld seq=%llu\n",
          c.client_id.c_str(), static_cast<long long>(c.connects),
          static_cast<long long>(c.reconnects),
          static_cast<long long>(c.readings_applied),
          static_cast<long long>(c.duplicate_frames_dropped),
          static_cast<long long>(c.shed_readings),
          static_cast<long long>(c.torn_frames),
          static_cast<long long>(c.rejected_readings),
          static_cast<unsigned long long>(c.last_applied_seq));
    }
  }
  return out;
}

std::string ColumnarStats::ToString() const {
  return StrFormat(
      "enabled=%d avx2=%d vector_batches=%llu scalar_batches=%llu "
      "guard_fallbacks=%llu",
      enabled ? 1 : 0, avx2 ? 1 : 0,
      static_cast<unsigned long long>(vector_batches),
      static_cast<unsigned long long>(scalar_batches),
      static_cast<unsigned long long>(guard_fallbacks));
}

std::string IngestStats::ToString() const {
  return StrFormat(
      "conns=%lld (active=%lld rejected=%lld) reconnects=%lld "
      "superseded=%lld readings=%lld ticks=%lld dup_frames=%lld shed=%lld "
      "torn=%lld gaps=%lld rejected=%lld timeouts=%lld idle=%lld "
      "bytes=%lld",
      static_cast<long long>(connections_accepted),
      static_cast<long long>(active_connections),
      static_cast<long long>(connections_rejected),
      static_cast<long long>(reconnects),
      static_cast<long long>(superseded_closes),
      static_cast<long long>(readings_applied),
      static_cast<long long>(ticks_applied),
      static_cast<long long>(duplicate_frames_dropped),
      static_cast<long long>(shed_readings),
      static_cast<long long>(torn_frame_closes),
      static_cast<long long>(sequence_gap_closes),
      static_cast<long long>(rejected_readings),
      static_cast<long long>(read_timeout_closes),
      static_cast<long long>(idle_closes),
      static_cast<long long>(bytes_received));
}

ReceptorHealthTracker::ReceptorHealthTracker(std::string receptor_id,
                                             std::string device_type,
                                             const HealthPolicy* policy)
    : policy_(policy) {
  health_.receptor_id = std::move(receptor_id);
  health_.device_type = std::move(device_type);
}

ReceptorHealthTracker::Transition ReceptorHealthTracker::Observe(
    Timestamp now, std::optional<Timestamp> data_time) {
  if (!baseline_set_) {
    // Staleness for a receptor that never speaks is measured from the first
    // tick, not from the epoch.
    health_.last_seen = now;
    baseline_set_ = true;
  }
  if (data_time.has_value()) {
    health_.ever_delivered = true;
    health_.last_seen = std::max(health_.last_seen, *data_time);
  }
  if (!policy_->liveness_enabled()) return Transition::kNone;

  switch (health_.state) {
    case ReceptorState::kHealthy:
      if (!data_time.has_value() &&
          now - health_.last_seen > policy_->staleness_threshold) {
        health_.state = ReceptorState::kSuspect;
        health_.suspect_since = now;
        return Transition::kSuspect;
      }
      return Transition::kNone;

    case ReceptorState::kSuspect:
      if (data_time.has_value()) {
        health_.state = ReceptorState::kHealthy;
        return Transition::kRecover;
      }
      if (now - health_.suspect_since >= policy_->quarantine_timeout) {
        health_.state = ReceptorState::kQuarantined;
        health_.quarantined_since = now;
        health_.probe_backoff = policy_->revival_backoff;
        health_.next_probe = now + health_.probe_backoff;
        ++health_.quarantine_count;
        return Transition::kQuarantine;
      }
      return Transition::kNone;

    case ReceptorState::kQuarantined:
      if (now < health_.next_probe) return Transition::kNone;
      if (data_time.has_value()) {
        health_.state = ReceptorState::kHealthy;
        health_.probe_backoff = Duration::Zero();
        ++health_.revival_count;
        return Transition::kRevive;
      }
      health_.probe_backoff =
          std::min(health_.probe_backoff * 2.0, policy_->max_revival_backoff);
      health_.next_probe = now + health_.probe_backoff;
      return Transition::kProbeFailed;
  }
  return Transition::kNone;
}

void ReceptorHealthTracker::SaveState(ByteWriter& w) const {
  w.WriteU8(static_cast<uint8_t>(health_.state));
  w.WriteI64(health_.last_seen.micros());
  w.WriteBool(health_.ever_delivered);
  w.WriteI64(health_.suspect_since.micros());
  w.WriteI64(health_.quarantined_since.micros());
  w.WriteI64(health_.next_probe.micros());
  w.WriteI64(health_.probe_backoff.micros());
  w.WriteI64(health_.delivered);
  w.WriteI64(health_.late_admitted);
  w.WriteI64(health_.dropped_late);
  w.WriteI64(health_.dropped_quarantined);
  w.WriteI64(health_.quarantine_count);
  w.WriteI64(health_.revival_count);
  w.WriteString(health_.last_error);
  w.WriteBool(baseline_set_);
}

Status ReceptorHealthTracker::LoadState(ByteReader& r) {
  ESP_ASSIGN_OR_RETURN(const uint8_t state_tag, r.ReadU8());
  if (state_tag > static_cast<uint8_t>(ReceptorState::kQuarantined)) {
    return Status::ParseError("unknown receptor state tag " +
                              std::to_string(state_tag));
  }
  health_.state = static_cast<ReceptorState>(state_tag);
  ESP_ASSIGN_OR_RETURN(int64_t micros, r.ReadI64());
  health_.last_seen = Timestamp::Micros(micros);
  ESP_ASSIGN_OR_RETURN(health_.ever_delivered, r.ReadBool());
  ESP_ASSIGN_OR_RETURN(micros, r.ReadI64());
  health_.suspect_since = Timestamp::Micros(micros);
  ESP_ASSIGN_OR_RETURN(micros, r.ReadI64());
  health_.quarantined_since = Timestamp::Micros(micros);
  ESP_ASSIGN_OR_RETURN(micros, r.ReadI64());
  health_.next_probe = Timestamp::Micros(micros);
  ESP_ASSIGN_OR_RETURN(micros, r.ReadI64());
  health_.probe_backoff = Duration::Micros(micros);
  ESP_ASSIGN_OR_RETURN(health_.delivered, r.ReadI64());
  ESP_ASSIGN_OR_RETURN(health_.late_admitted, r.ReadI64());
  ESP_ASSIGN_OR_RETURN(health_.dropped_late, r.ReadI64());
  ESP_ASSIGN_OR_RETURN(health_.dropped_quarantined, r.ReadI64());
  ESP_ASSIGN_OR_RETURN(health_.quarantine_count, r.ReadI64());
  ESP_ASSIGN_OR_RETURN(health_.revival_count, r.ReadI64());
  ESP_ASSIGN_OR_RETURN(health_.last_error, r.ReadString());
  ESP_ASSIGN_OR_RETURN(baseline_set_, r.ReadBool());
  return Status::OK();
}

}  // namespace esp::core
