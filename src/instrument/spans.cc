#include "instrument/spans.h"

#include <chrono>

#include "sim/simulation.h"

namespace dcdo::trace {
namespace {

std::int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t max_spans)
    : max_spans_(max_spans), wall_origin_ns_(SteadyNowNanos()) {}

std::int64_t SpanRecorder::SimNowNanos() const {
  return simulation_ == nullptr ? 0 : simulation_->Now().nanos();
}

std::int64_t SpanRecorder::WallNowNanos() const {
  return SteadyNowNanos() - wall_origin_ns_;
}

SpanId SpanRecorder::Open(std::string_view name, const SpanArgs& args,
                          Span::Kind kind, std::initializer_list<Note> notes) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  SpanId parent = args.parent;
  if (parent == kScopeParent) {
    parent = scope_stack_.empty() ? 0 : scope_stack_.back();
  }
  Span span;
  span.id = static_cast<SpanId>(spans_.size()) + 1;
  span.parent = parent;
  span.root = (parent != 0 && parent <= spans_.size())
                  ? spans_[parent - 1].root
                  : span.id;
  span.kind = kind;
  span.name.assign(name);
  span.category.assign(args.category);
  span.node = args.node;
  span.call_id = args.call_id;
  span.attempt = args.attempt;
  span.sim_begin_ns = SimNowNanos();
  span.wall_begin_ns = WallNowNanos();
  if (kind == Span::Kind::kInstant) span.sim_end_ns = span.sim_begin_ns;
  for (const auto& [key, value] : notes) {
    span.notes.emplace_back(std::string(key), std::string(value));
  }
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

SpanId SpanRecorder::BeginSpan(std::string_view name, const SpanArgs& args,
                               std::initializer_list<Note> notes) {
  return Open(name, args, Span::Kind::kInterval, notes);
}

SpanId SpanRecorder::Instant(std::string_view name, const SpanArgs& args,
                             std::initializer_list<Note> notes) {
  return Open(name, args, Span::Kind::kInstant, notes);
}

void SpanRecorder::EndSpan(SpanId id, std::string_view key,
                           std::string_view value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  Span& span = spans_[id - 1];
  // Whole call is a no-op on a closed span: a second closer (e.g. a late
  // reply racing the timeout that already ended the attempt) must not
  // append a contradictory outcome note to the recorded one.
  if (span.sim_end_ns >= 0) return;
  if (!key.empty()) {
    span.notes.emplace_back(std::string(key), std::string(value));
  }
  span.sim_end_ns = SimNowNanos();
}

void SpanRecorder::Annotate(SpanId id, std::string_view key,
                            std::string_view value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  spans_[id - 1].notes.emplace_back(std::string(key), std::string(value));
}

void SpanRecorder::PushScope(SpanId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  scope_stack_.push_back(id);
}

void SpanRecorder::PopScope() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!scope_stack_.empty()) scope_stack_.pop_back();
}

SpanId SpanRecorder::CurrentScope() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scope_stack_.empty() ? 0 : scope_stack_.back();
}

std::vector<Span> SpanRecorder::SnapshotSpans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t SpanRecorder::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::uint64_t SpanRecorder::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

SpanId SpanRecorder::RootOf(SpanId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return 0;
  return spans_[id - 1].root;
}

}  // namespace dcdo::trace
