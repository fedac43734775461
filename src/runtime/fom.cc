#include "runtime/fom.h"

#include <algorithm>
#include <memory>

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
  // The owning simulation is going away with operations still in flight
  // (tests tearing down mid-scenario). Destroy what's left so every pooled
  // block is returned; OnAbort runs because the operation did not complete.
  while (!live_.empty()) {
    Fom* fom = live_.begin()->second;
    fom->OnAbort();
    Destroy(fom);
  }
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
  if (auto* spans = instrument::Spans()) {
    spans->metrics().GetCounter("fom.created").Increment();
  }
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
  for (;;) {
    FomStatus status = fom->Tick();
    if (fom->abort_requested_) {
      fom->OnAbort();
      Destroy(fom);
      return;
    }
    switch (status) {
      case FomStatus::kRunAgain:
        continue;
      case FomStatus::kWait:
        // A completion that finished synchronously inside Tick left its
        // wake pending; consume it and keep running — one drain, no event
        // round trip (the legacy chains' recursive done() calls).
        if (fom->pending_ != WakeSource::kNone) {
          const bool match = fom->pending_ == fom->awaited_;
          fom->pending_ = WakeSource::kNone;
          if (match) continue;
          // A wake for a source the Fom no longer awaits is stale: drop it
          // and park on what Tick actually asked for.
        }
        Park(fom);
        return;
      case FomStatus::kDone:
        Destroy(fom);
        return;
    }
  }
}

void FomScheduler::Park(Fom* fom) {
  fom->run_state_ = Fom::RunState::kWaiting;
  fom->wait_started_ = simulation_->Now();
  wait_sets_[static_cast<std::size_t>(fom->awaited_)].push_back(fom->id_);
}

void FomScheduler::Destroy(Fom* fom) {
  if (fom->timer_id_ != 0) simulation_->Cancel(fom->timer_id_);
  if (fom->run_state_ == Fom::RunState::kWaiting) {
    auto& set = wait_sets_[static_cast<std::size_t>(fom->awaited_)];
    auto it = std::find(set.begin(), set.end(), fom->id_);
    if (it != set.end()) {
      *it = set.back();
      set.pop_back();
    }
  }
  if (auto* spans = instrument::Spans()) {
    spans->EndSpan(fom->phase_span_);
    spans->metrics().GetCounter("fom.completed").Increment();
  }
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
  if (fom == nullptr) return;  // finished or aborted before the completion
  if (source == WakeSource::kTimer) fom->timer_id_ = 0;
  if (fom->run_state_ == Fom::RunState::kRunning ||
      fom->run_state_ == Fom::RunState::kQueued) {
    fom->pending_ = source;
    return;
  }
  if (fom->run_state_ != Fom::RunState::kWaiting || fom->awaited_ != source) {
    return;  // stale: the Fom moved on to a different wait
  }
  auto& set = wait_sets_[static_cast<std::size_t>(source)];
  auto it = std::find(set.begin(), set.end(), id);
  if (it != set.end()) {
    *it = set.back();
    set.pop_back();
  }
  fom->awaited_ = WakeSource::kNone;
  if (auto* spans = instrument::Spans()) {
    spans->metrics().GetHistogram("fom.wait_time").Record(
        simulation_->Now() - fom->wait_started_);
  }
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

void FomScheduler::Abort(std::uint64_t id) {
  Fom* fom = Payload(id);
  if (fom == nullptr) return;
  if (fom->run_state_ == Fom::RunState::kRunning) {
    fom->abort_requested_ = true;  // RunOne destroys after Tick returns
    return;
  }
  if (fom->run_state_ == Fom::RunState::kQueued) {
    run_queue_.erase(std::remove(run_queue_.begin(), run_queue_.end(), fom),
                     run_queue_.end());
  }
  fom->OnAbort();
  Destroy(fom);
}

bool FomScheduler::Alive(std::uint64_t id) const {
  return live_.count(id) != 0;
}

std::size_t FomScheduler::live_count() const { return live_.size(); }

std::size_t FomScheduler::waiting_on(WakeSource source) const {
  return wait_sets_[static_cast<std::size_t>(source)].size();
}

}  // namespace dcdo::runtime
