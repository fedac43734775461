#include "runtime/fom.h"

#include <memory>
#include <utility>

namespace dcdo::runtime {

static_assert(sizeof(Waker) == 16 && std::is_trivially_copyable_v<Waker>,
              "a Waker must fit std::function's inline buffer");

void Waker::operator()(Status status) const {
  scheduler_->Wake(id_, source(), std::move(status));
}

void Waker::operator()(bool delivered) const {
  scheduler_->Wake(id_, source(), Status::Ok(), delivered);
}

void Waker::operator()(Result<sim::ProcessId> spawned) const {
  scheduler_->Wake(id_, source(), spawned.status(), spawned.value_or(0));
}

void OwnerLink::Attach(void* owner, FomOwner& ops) {
  owner_ = owner;
  ops_ = &ops;
  next_ = std::exchange(ops.head_, this);
}

OwnerLink::~OwnerLink() {
  if (ops_ == nullptr) return;
  OwnerLink** link = &ops_->head_;
  while (*link != this) link = &(*link)->next_;
  *link = next_;
}

FomOwner::~FomOwner() {
  for (OwnerLink* link = head_; link != nullptr; link = link->next_) {
    link->ops_ = nullptr;
  }
}

void Fom::EnterPhase(int phase, const char* phase_name) {
  SetPhase(phase, phase_name);
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
  // Pops until empty. Nested drains (a Tick that starts another Fom, or a
  // synchronous completion waking one) run inline on this stack, exactly
  // where a callback would run: that keeps the schedule unchanged.
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
    // pending; consume it and keep running, with no event round trip. A
    // wake for a source the Fom no longer awaits is stale: drop it and park
    // on what Tick asked for.
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
  void* block = dynamic_cast<void*>(fom);
  fom->~Fom();
  if (dealloc != nullptr) dealloc(block);
}

void FomScheduler::Wake(std::uint64_t id, WakeSource source, Status status,
                        std::uint64_t value) {
  auto it = live_.find(id);
  if (it == live_.end()) return;  // finished before the completion
  Fom* fom = it->second;
  if (source == WakeSource::kTimer) fom->timer_id_ = 0;
  const bool ticking = fom->run_state_ == Fom::RunState::kRunning ||
                       fom->run_state_ == Fom::RunState::kQueued;
  if (!ticking && (fom->run_state_ != Fom::RunState::kWaiting ||
                   fom->awaited_ != source)) {
    return;  // stale: the Fom moved on to a different wait
  }
  fom->wake_status_ = std::move(status);
  fom->wake_value_ = value;
  if (ticking) {
    fom->pending_ = source;
    return;
  }
  fom->awaited_ = WakeSource::kNone;
  Enqueue(fom);
  Drain();
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

std::map<std::uint64_t, const Fom*> FomScheduler::Live() const {
  return {live_.begin(), live_.end()};
}

}  // namespace dcdo::runtime
