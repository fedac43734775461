#include "instrument/race_detector.h"

#include <algorithm>
#include <sstream>

namespace dcdo::check {
namespace {

std::string DescribeStamp(const Stamp& stamp) {
  std::ostringstream out;
  out << "t=" << stamp.time.ToSeconds() << "s/L" << stamp.lamport;
  return out.str();
}

}  // namespace

void RaceDetector::OnCallStart(const ObjectId& object,
                               const std::string& function,
                               const ObjectId& component, const Stamp& stamp) {
  InFlightCall call;
  call.token = next_token_++;
  call.object = object;
  call.function = function;
  call.component = component;
  call.start = stamp;
  in_flight_.push_back(std::move(call));
}

void RaceDetector::OnCallEnd(const ObjectId& object,
                             const std::string& function,
                             const ObjectId& component, const Stamp& stamp) {
  (void)stamp;
  // Close the most recent matching record (calls nest LIFO within an object).
  for (auto it = in_flight_.rbegin(); it != in_flight_.rend(); ++it) {
    if (it->object == object && it->function == function &&
        it->component == component) {
      in_flight_.erase(std::next(it).base());
      return;
    }
  }
}

void RaceDetector::OnComponentRemoved(const ObjectId& object,
                                      const ObjectId& component, bool forced,
                                      const Stamp& stamp) {
  retired_.insert({object, component});
  for (const InFlightCall& call : in_flight_) {
    if (call.object != object || call.component != component) continue;
    Diagnostic d;
    d.severity = forced ? Severity::kError : Severity::kWarning;
    d.invariant = "race-forced-removal";
    d.time = stamp.time;
    d.event_id = stamp.event_id;
    d.object = object;
    d.message = std::string(forced ? "forced" : "unguarded") +
                " removal of component " + component.ToString() + " at " +
                DescribeStamp(stamp) + " overlaps invocation of '" +
                call.function + "' started at " + DescribeStamp(call.start) +
                "; the removal does not happen-after the invocation end";
    sink_.Record(std::move(d));
  }
}

void RaceDetector::OnImplSwapped(const ObjectId& object,
                                 const std::string& function,
                                 const ObjectId& from_component,
                                 const ObjectId& to_component,
                                 int active_on_from, const Stamp& stamp) {
  if (active_on_from <= 0) return;
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.invariant = "race-unquiesced-swap";
  d.time = stamp.time;
  d.event_id = stamp.event_id;
  d.object = object;
  d.message = "switchImplementation('" + function + "') moved " +
              from_component.ToString() + " -> " + to_component.ToString() +
              " at " + DescribeStamp(stamp) + " while " +
              std::to_string(active_on_from) +
              " thread(s) were still executing the old implementation";
  sink_.Record(std::move(d));
}

void RaceDetector::OnEvolveBegin(const ObjectId& object, const VersionId& from,
                                 const VersionId& to, const Stamp& stamp) {
  std::vector<EvolutionWindow>& open = windows_[object];
  if (!open.empty()) {
    Diagnostic d;
    d.severity = Severity::kError;
    d.invariant = "single-evolution";
    d.time = stamp.time;
    d.event_id = stamp.event_id;
    d.object = object;
    d.version = to;
    d.message = "evolution to " + to.ToString() + " began at " +
                DescribeStamp(stamp) + " while the evolution to " +
                open.back().to.ToString() + " (begun at " +
                DescribeStamp(open.back().begin) + ") was still in flight";
    sink_.Record(std::move(d));
  }
  EvolutionWindow window;
  window.from = from;
  window.to = to;
  window.begin = stamp;
  for (const InFlightCall& call : in_flight_) {
    if (call.object == object) window.calls_at_begin.insert(call.token);
  }
  open.push_back(std::move(window));
}

void RaceDetector::OnVersionChanged(const ObjectId& object,
                                    const VersionId& from, const VersionId& to,
                                    const Stamp& stamp) {
  auto it = windows_.find(object);
  if (it == windows_.end() || it->second.empty()) return;
  const EvolutionWindow& window = it->second.back();
  for (const InFlightCall& call : in_flight_) {
    if (call.object != object) continue;
    if (!window.calls_at_begin.contains(call.token)) continue;
    Diagnostic d;
    d.severity = Severity::kWarning;
    d.invariant = "race-overlapping-evolution";
    d.time = stamp.time;
    d.event_id = stamp.event_id;
    d.object = object;
    d.version = to;
    d.message = "evolution " + from.ToString() + " -> " + to.ToString() +
                " committed at " + DescribeStamp(stamp) +
                " while invocation of '" + call.function + "' (component " +
                call.component.ToString() + ", started at " +
                DescribeStamp(call.start) +
                ") had not completed: the commit does not happen-after the "
                "invocation epoch it overlaps";
    sink_.Record(std::move(d));
  }
}

void RaceDetector::OnEvolveEnd(const ObjectId& object, bool ok,
                               const Stamp& stamp) {
  (void)ok;
  (void)stamp;
  auto it = windows_.find(object);
  if (it == windows_.end() || it->second.empty()) return;
  it->second.pop_back();
  if (it->second.empty()) windows_.erase(it);
}

int RaceDetector::InFlightCalls(const ObjectId& object) const {
  int n = 0;
  for (const InFlightCall& call : in_flight_) {
    if (call.object == object) ++n;
  }
  return n;
}

int RaceDetector::OpenEvolutions(const ObjectId& object) const {
  auto it = windows_.find(object);
  return it == windows_.end() ? 0 : static_cast<int>(it->second.size());
}

bool RaceDetector::WasRetired(const ObjectId& object,
                              const ObjectId& component) const {
  return retired_.contains({object, component});
}

bool RaceDetector::FirstReport(const std::string& key) {
  return reported_.insert(key).second;
}

}  // namespace dcdo::check
