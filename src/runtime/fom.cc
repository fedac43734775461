#include "runtime/fom.h"

#include <memory>
#include <utility>

namespace dcdo::runtime {

void Fom::EnterPhase(int phase, const char* phase_name) {
  phase_ = phase;
  phase_name_ = phase_name;
  trace::SpanRecorder* spans = instrument::Spans();
  if (spans == nullptr) return;
  spans->EndSpan(phase_span_);
  phase_span_ = spans->BeginSpan(
      name_, {.category = "fom", .parent = phase_parent_},
      {{"phase", phase_name}});
}

FomScheduler::~FomScheduler() {
  // Tests tear down mid-scenario: destroy what is left so every pooled block
  // is returned.
  while (!live_.empty()) Destroy(live_.begin()->second);
}

FomScheduler& FomScheduler::For(sim::Simulation& simulation) {
  if (!simulation.attachment()) {
    simulation.set_attachment(std::make_shared<FomScheduler>(&simulation));
  }
  return *static_cast<FomScheduler*>(simulation.attachment().get());
}

void FomScheduler::Register(Fom* fom) {
  fom->scheduler_ = this;
  fom->id_ = next_id_++;
  live_.emplace(fom->id_, fom);
}

void FomScheduler::Start(Fom& fom) {
  Enqueue(&fom);
  Drain();
}

void FomScheduler::Enqueue(Fom* fom) {
  fom->run_state_ = Fom::RunState::kQueued;
  run_queue_.push_back(fom);
}

void FomScheduler::Drain() {
  // Pops until empty. Nested drains (a Tick that creates-and-starts another
  // Fom, or a synchronous completion waking one) run inline on this stack —
  // that is what keeps the conversion schedule-identical to the legacy
  // chains, which invoked continuations at exactly those points.
  while (!run_queue_.empty()) {
    Fom* fom = run_queue_.front();
    run_queue_.erase(run_queue_.begin());
    RunOne(fom);
  }
}

void FomScheduler::RunOne(Fom* fom) {
  fom->run_state_ = Fom::RunState::kRunning;
  while (fom->Tick() == FomStatus::kWait) {
    // A completion that finished synchronously inside Tick left its wake
    // pending; consume it and keep running — one drain, no event round trip
    // (the legacy chains' recursive done() calls). A wake for a source the
    // Fom no longer awaits is stale: drop it and park on what Tick asked for.
    const WakeSource pending = std::exchange(fom->pending_, WakeSource::kNone);
    if (pending == WakeSource::kNone || pending != fom->awaited_) {
      fom->run_state_ = Fom::RunState::kWaiting;
      return;
    }
  }
  Destroy(fom);
}

void FomScheduler::Destroy(Fom* fom) {
  if (fom->timer_id_ != 0) simulation_->Cancel(fom->timer_id_);
  if (auto* spans = instrument::Spans()) spans->EndSpan(fom->phase_span_);
  live_.erase(fom->id_);
  void (*dealloc)(void*) = fom->dealloc_;
  void* block = fom->block_;
  fom->~Fom();
  if (dealloc != nullptr) dealloc(block);
}

Fom* FomScheduler::Payload(std::uint64_t id) {
  auto it = live_.find(id);
  return it == live_.end() ? nullptr : it->second;
}

void FomScheduler::Wake(std::uint64_t id, WakeSource source) {
  Fom* fom = Payload(id);
  if (fom == nullptr) return;  // finished before the completion
  if (source == WakeSource::kTimer) fom->timer_id_ = 0;
  if (fom->run_state_ == Fom::RunState::kRunning ||
      fom->run_state_ == Fom::RunState::kQueued) {
    fom->pending_ = source;
    return;
  }
  if (fom->run_state_ != Fom::RunState::kWaiting || fom->awaited_ != source) {
    return;  // stale: the Fom moved on to a different wait
  }
  fom->awaited_ = WakeSource::kNone;
  Enqueue(fom);
  Drain();
}

void FomScheduler::WakeStatus(std::uint64_t id, WakeSource source,
                              Status status) {
  if (Fom* fom = Payload(id)) fom->wake_status_ = std::move(status);
  Wake(id, source);
}

void FomScheduler::WakeValue(std::uint64_t id, WakeSource source,
                             std::uint64_t value) {
  if (Fom* fom = Payload(id)) fom->wake_value_ = value;
  Wake(id, source);
}

void FomScheduler::ArmTimer(Fom& fom, sim::SimDuration delay) {
  const std::uint64_t id = fom.id_;
  fom.timer_id_ = simulation_->Schedule(
      delay, [this, id] { Wake(id, WakeSource::kTimer); });
}

bool FomScheduler::Alive(std::uint64_t id) const {
  return live_.count(id) != 0;
}

std::size_t FomScheduler::live_count() const { return live_.size(); }

}  // namespace dcdo::runtime
