#include "tracing.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace esp::espbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

const char* KindName(core::StageKind kind) {
  switch (kind) {
    case core::StageKind::kPoint:
      return "point";
    case core::StageKind::kSmooth:
      return "smooth";
    case core::StageKind::kMerge:
      return "merge";
    case core::StageKind::kArbitrate:
      return "arbitrate";
    case core::StageKind::kVirtualize:
      return "virtualize";
  }
  return "unknown";
}

Layer KindLayer(core::StageKind kind) {
  switch (kind) {
    case core::StageKind::kPoint:
      return Layer::kPoint;
    case core::StageKind::kSmooth:
      return Layer::kSmooth;
    case core::StageKind::kMerge:
      return Layer::kMerge;
    case core::StageKind::kArbitrate:
      return Layer::kArbitrate;
    case core::StageKind::kVirtualize:
      return Layer::kVirtualize;
  }
  return Layer::kVirtualize;
}

/// Delegating decorator: every call goes to the wrapped stage unchanged;
/// Push and Evaluate are also timed into the instance's span for the tick.
class TracedStage : public core::Stage {
 public:
  TracedStage(std::unique_ptr<core::Stage> inner, Tracer* tracer, int name)
      : Stage(inner->kind(), inner->name()),
        inner_(std::move(inner)),
        tracer_(tracer),
        span_name_(name) {}

  Status Bind(const cql::SchemaCatalog& inputs) override {
    Status bound = inner_->Bind(inputs);
    output_schema_ = inner_->output_schema();
    return bound;
  }

  Status Push(const std::string& input, stream::Tuple tuple) override {
    const int64_t start = NowNs();
    Status pushed = inner_->Push(input, std::move(tuple));
    tracer_->Record(handle_, span_name_, start, NowNs(), 1, 0, false,
                    !pushed.ok());
    return pushed;
  }

  StatusOr<stream::Relation> Evaluate(Timestamp now) override {
    const int64_t start = NowNs();
    StatusOr<stream::Relation> out = inner_->Evaluate(now);
    tracer_->Record(handle_, span_name_, start, NowNs(), 0,
                    out.ok() ? static_cast<int64_t>(out->size()) : 0, true,
                    !out.ok());
    return out;
  }

  size_t buffered() const override { return inner_->buffered(); }
  Status SaveState(ByteWriter& w) const override {
    return inner_->SaveState(w);
  }
  Status LoadState(ByteReader& r) override { return inner_->LoadState(r); }

 private:
  std::unique_ptr<core::Stage> inner_;
  Tracer* tracer_;
  int span_name_;
  SpanHandle handle_;
};

}  // namespace

int Tracer::Intern(std::string name, Layer layer) {
  std::lock_guard<std::mutex> lock(mu_);
  names_.emplace_back(std::move(name), layer);
  return static_cast<int>(names_.size()) - 1;
}

int Tracer::InternStage(core::StageKind kind) {
  int instance = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    instance = stage_instances_[static_cast<int>(kind)]++;
  }
  return Intern(std::string("cql.") + KindName(kind) + "#" +
                    std::to_string(instance),
                KindLayer(kind));
}

void Tracer::BeginTick(int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  spans_.clear();
  Span root;
  root.start_ns = start_ns;
  root.end_ns = start_ns;
  spans_.push_back(root);
  parent_ = 0;
}

int Tracer::Open(int name, int64_t start_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.parent = parent_;
  span.start_ns = start_ns;
  span.end_ns = start_ns;
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::Close(int index, int64_t end_ns, int64_t rows_out) {
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = end_ns;
  span.busy_ns += end_ns - span.start_ns;
  span.calls += 1;
  span.rows_out += rows_out;
}

void Tracer::SetParent(int index) {
  std::lock_guard<std::mutex> lock(mu_);
  parent_ = index < 0 ? 0 : index;
}

void Tracer::Record(SpanHandle& handle, int name, int64_t start_ns,
                    int64_t end_ns, int64_t rows_in, int64_t rows_out,
                    bool eval, bool error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (handle.tick != tick_) {
    Span span;
    span.name = name;
    span.parent = parent_;
    span.start_ns = start_ns;
    spans_.push_back(span);
    handle.tick = tick_;
    handle.index = static_cast<int>(spans_.size()) - 1;
  }
  Span& span = spans_[static_cast<size_t>(handle.index)];
  span.end_ns = std::max(span.end_ns, end_ns);
  span.busy_ns += end_ns - start_ns;
  span.calls += 1;
  span.evals += eval ? 1 : 0;
  span.rows_in += rows_in;
  span.rows_out += rows_out;
  span.errors += error ? 1 : 0;
}

void Tracer::EndTick(int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[0].end_ns = end_ns;
  spans_[0].busy_ns = end_ns - spans_[0].start_ns;
}

core::StageFactory Traced(core::StageFactory factory, Tracer* tracer) {
  if (factory == nullptr || tracer == nullptr) return factory;
  return [factory = std::move(factory),
          tracer]() -> StatusOr<std::unique_ptr<core::Stage>> {
    ESP_ASSIGN_OR_RETURN(std::unique_ptr<core::Stage> stage, factory());
    const int name = tracer->InternStage(stage->kind());
    return std::unique_ptr<core::Stage>(
        std::make_unique<TracedStage>(std::move(stage), tracer, name));
  };
}

TimingSink::TimingSink(std::unique_ptr<net::IngestSink> inner,
                       Tracer* tracer)
    : inner_(std::move(inner)),
      tracer_(tracer),
      push_name_(tracer->Intern("core.push", Layer::kCorePush)),
      tick_name_(tracer->Intern("core.tick", Layer::kCoreTick)) {}

Status TimingSink::Push(const std::string& device_type, stream::Tuple raw) {
  const int64_t start = NowNs();
  Status pushed = inner_->Push(device_type, std::move(raw));
  tracer_->Record(push_, push_name_, start, NowNs(), 1, 0, false,
                  !pushed.ok());
  return pushed;
}

StatusOr<core::TickResult> TimingSink::Tick(Timestamp now) {
  const int span = tracer_->Open(tick_name_, NowNs());
  tracer_->SetParent(span);
  StatusOr<core::TickResult> result = inner_->Tick(now);
  const int64_t end = NowNs();
  tracer_->SetParent(-1);
  int64_t rows = 0;
  if (result.ok()) {
    for (const auto& [type, relation] : result->per_type) {
      rows += static_cast<int64_t>(relation.size());
    }
  }
  tracer_->Close(span, end, rows);
  return result;
}

}  // namespace esp::espbench
