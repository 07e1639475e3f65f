#include "stream/window.h"

#include <cassert>

#include "stream/arena.h"
#include "stream/serialize.h"

namespace esp::stream {

namespace {
/// Evicted tuples return their value-vector backing store to the calling
/// thread's arena so the next tick's inserts reuse it.
void PopFrontRecycled(std::deque<Tuple>& buffer) {
  TupleArena::Local().Release(std::move(buffer.front().mutable_values()));
  buffer.pop_front();
}
}  // namespace

std::string WindowSpec::ToString() const {
  switch (kind) {
    case WindowKind::kRange:
      if (slide.micros() > 0) {
        return "[Range By '" + range.ToString() + "' Slide By '" +
               slide.ToString() + "']";
      }
      return "[Range By '" + range.ToString() + "']";
    case WindowKind::kNow:
      return "[Range By 'NOW']";
    case WindowKind::kRows:
      return "[Rows " + std::to_string(rows) + "]";
    case WindowKind::kUnbounded:
      return "[Unbounded]";
  }
  return "[?]";
}

Status WindowBuffer::Insert(Tuple tuple) {
  if (has_inserted_ && tuple.timestamp() < last_insert_time_) {
    return Status::InvalidArgument(
        "out-of-order insert into window buffer: " +
        tuple.timestamp().ToString() + " after " +
        last_insert_time_.ToString());
  }
  last_insert_time_ = tuple.timestamp();
  has_inserted_ = true;
  ++generation_;
  buffer_.push_back(std::move(tuple));
  cache_valid_ = false;
  return Status::OK();
}

void WindowBuffer::EvictBefore(Timestamp t) {
  const size_t before = buffer_.size();
  switch (spec_.kind) {
    case WindowKind::kRange: {
      // A tuple with timestamp s is in the window at time u >= t iff
      // s > u - range; it is dead once s <= t - range. With a slide the
      // effective evaluation time lags t by up to one slide width.
      const Timestamp horizon = spec_.EffectiveTime(t) - spec_.range;
      while (!buffer_.empty() && buffer_.front().timestamp() <= horizon) {
        PopFrontRecycled(buffer_);
      }
      break;
    }
    case WindowKind::kNow: {
      while (!buffer_.empty() && buffer_.front().timestamp() < t) {
        PopFrontRecycled(buffer_);
      }
      break;
    }
    case WindowKind::kRows: {
      while (buffer_.size() > static_cast<size_t>(spec_.rows)) {
        PopFrontRecycled(buffer_);
      }
      break;
    }
    case WindowKind::kUnbounded:
      break;  // Nothing ever dies.
  }
  if (buffer_.size() != before) {
    ++generation_;
    cache_valid_ = false;
  }
}

void WindowBuffer::SaveState(ByteWriter& w) const {
  w.WriteBool(has_inserted_);
  w.WriteI64(last_insert_time_.micros());
  w.WriteU64(buffer_.size());
  for (const Tuple& tuple : buffer_) WriteTuple(w, tuple);
}

Status WindowBuffer::LoadState(ByteReader& r) {
  ESP_ASSIGN_OR_RETURN(has_inserted_, r.ReadBool());
  ESP_ASSIGN_OR_RETURN(const int64_t last_micros, r.ReadI64());
  last_insert_time_ = Timestamp::Micros(last_micros);
  ESP_ASSIGN_OR_RETURN(const uint64_t count, r.ReadU64());
  buffer_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    ESP_ASSIGN_OR_RETURN(Tuple tuple, ReadTuple(r, schema_));
    buffer_.push_back(std::move(tuple));
  }
  ++generation_;
  cache_valid_ = false;
  return Status::OK();
}

bool WindowBuffer::CacheHit(Timestamp t) const {
  // A valid cache must carry the current generation: every mutator bumps
  // generation_ and clears cache_valid_ together.
  assert(!cache_valid_ || cache_generation_ == generation_);
  if (!cache_valid_ || cache_generation_ != generation_) return false;
  switch (spec_.kind) {
    case WindowKind::kRange:
      return spec_.EffectiveTime(t) == cache_key_;
    case WindowKind::kNow:
      return t == cache_key_;
    case WindowKind::kRows:
    case WindowKind::kUnbounded:
      // Identical instant always replays; a later instant replays only if
      // the cached pass admitted every buffered tuple (nothing was waiting
      // on a future timestamp).
      return t == cache_key_ || (cache_covers_all_ && t > cache_key_);
  }
  return false;
}

Relation WindowBuffer::Snapshot(Timestamp t) const {
  if (CacheHit(t)) return cache_;
  cache_ = Rebuild(t);
  ++snapshot_rebuilds_;
  cache_valid_ = true;
  cache_generation_ = generation_;
  cache_key_ = spec_.kind == WindowKind::kRange ? spec_.EffectiveTime(t) : t;
  cache_covers_all_ =
      buffer_.empty() || buffer_.back().timestamp() <= cache_key_;
  return cache_;
}

Relation WindowBuffer::Rebuild(Timestamp t) const {
  Relation result(schema_);
  switch (spec_.kind) {
    case WindowKind::kRange: {
      const Timestamp effective = spec_.EffectiveTime(t);
      const Timestamp low = effective - spec_.range;  // Exclusive bound.
      result.mutable_tuples().reserve(buffer_.size());
      for (const Tuple& tuple : buffer_) {
        if (tuple.timestamp() > low && tuple.timestamp() <= effective) {
          result.Add(tuple);
        }
      }
      break;
    }
    case WindowKind::kNow: {
      for (const Tuple& tuple : buffer_) {
        if (tuple.timestamp() == t) result.Add(tuple);
      }
      break;
    }
    case WindowKind::kRows: {
      // Collect tuples at or before t, then keep the most recent n.
      std::vector<const Tuple*> eligible;
      eligible.reserve(buffer_.size());
      for (const Tuple& tuple : buffer_) {
        if (tuple.timestamp() <= t) eligible.push_back(&tuple);
      }
      const size_t n = static_cast<size_t>(spec_.rows);
      const size_t start = eligible.size() > n ? eligible.size() - n : 0;
      result.mutable_tuples().reserve(eligible.size() - start);
      for (size_t i = start; i < eligible.size(); ++i) {
        result.Add(*eligible[i]);
      }
      break;
    }
    case WindowKind::kUnbounded: {
      result.mutable_tuples().reserve(buffer_.size());
      for (const Tuple& tuple : buffer_) {
        if (tuple.timestamp() <= t) result.Add(tuple);
      }
      break;
    }
  }
  return result;
}

}  // namespace esp::stream
