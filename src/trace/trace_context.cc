#include "trace/trace_context.h"

#include <atomic>
#include <chrono>

#include "sim/simulation.h"

namespace dcdo::trace {
namespace {

// Same single-writer discipline as check::CheckContext: contexts are
// installed by a testbed at construction and uninstalled at destruction;
// concurrent *readers* (instrumentation sites on worker threads in the
// threaded stress tests) see the pointer through an atomic.
std::atomic<TraceContext*> g_current{nullptr};

std::int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TraceContext* ActiveContext() {
  return g_current.load(std::memory_order_acquire);
}

TraceContext::TraceContext(const Options& options)
    : options_(options), wall_origin_ns_(SteadyNowNanos()) {}

TraceContext::~TraceContext() { Uninstall(); }

void TraceContext::Install() {
  g_current.store(this, std::memory_order_release);
}

void TraceContext::Uninstall() {
  TraceContext* expected = this;
  g_current.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
}

void TraceContext::AttachSimulation(sim::Simulation* simulation) {
  simulation_ = simulation;
}

std::int64_t TraceContext::SimNowNanos() const {
  return simulation_ == nullptr ? 0 : simulation_->Now().nanos();
}

std::int64_t TraceContext::WallNowNanos() const {
  return SteadyNowNanos() - wall_origin_ns_;
}

SpanId TraceContext::BeginSpan(std::string_view name, const SpanArgs& args) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= options_.max_spans) {
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
  span.name.assign(name);
  span.category.assign(args.category);
  span.node = args.node;
  span.call_id = args.call_id;
  span.attempt = args.attempt;
  span.sim_begin_ns = SimNowNanos();
  span.wall_begin_ns = WallNowNanos();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceContext::EndSpan(SpanId id) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  Span& span = spans_[id - 1];
  if (span.sim_end_ns >= 0) return;  // already closed
  span.sim_end_ns = SimNowNanos();
  span.wall_end_ns = WallNowNanos();
}

void TraceContext::EndSpan(SpanId id, std::string_view key,
                           std::string_view value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  Span& span = spans_[id - 1];
  // Whole call is a no-op on a closed span: a second closer (e.g. a late
  // reply racing the timeout that already ended the attempt) must not
  // append a contradictory outcome note to the recorded one.
  if (span.sim_end_ns >= 0) return;
  span.notes.emplace_back(std::string(key), std::string(value));
  span.sim_end_ns = SimNowNanos();
  span.wall_end_ns = WallNowNanos();
}

void TraceContext::Annotate(SpanId id, std::string_view key,
                            std::string_view value) {
  if (id == 0) return;
  std::lock_guard<std::mutex> lock(mutex_);
  if (id > spans_.size()) return;
  spans_[id - 1].notes.emplace_back(std::string(key), std::string(value));
}

SpanId TraceContext::Instant(std::string_view name, const SpanArgs& args) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= options_.max_spans) {
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
  span.kind = Span::Kind::kInstant;
  span.name.assign(name);
  span.category.assign(args.category);
  span.node = args.node;
  span.call_id = args.call_id;
  span.attempt = args.attempt;
  span.sim_begin_ns = SimNowNanos();
  span.sim_end_ns = span.sim_begin_ns;
  span.wall_begin_ns = WallNowNanos();
  span.wall_end_ns = span.wall_begin_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void TraceContext::PushScope(SpanId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  scope_stack_.push_back(id);
}

void TraceContext::PopScope() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!scope_stack_.empty()) scope_stack_.pop_back();
}

SpanId TraceContext::CurrentScope() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scope_stack_.empty() ? 0 : scope_stack_.back();
}

std::vector<Span> TraceContext::SnapshotSpans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::size_t TraceContext::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::uint64_t TraceContext::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

SpanId TraceContext::RootOf(SpanId id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == 0 || id > spans_.size()) return 0;
  return spans_[id - 1].root;
}

}  // namespace dcdo::trace
