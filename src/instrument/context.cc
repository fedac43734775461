#include "instrument/context.h"

#include <atomic>

namespace dcdo::instrument {
namespace {

// The process-current context. Installed by a testbed at construction and
// uninstalled at destruction; concurrent readers (instrumentation sites on
// worker threads in the threaded stress tests) see it through an atomic.
std::atomic<Context*> g_current{nullptr};

std::string Address(std::uint32_t node, std::uint64_t pid,
                    std::uint64_t epoch) {
  return "node" + std::to_string(node) + "/pid" + std::to_string(pid) + "@e" +
         std::to_string(epoch);
}

}  // namespace

Context::Context(const Options& options) {
  if (options.checking) checker_ = std::make_unique<check::Checker>();
  if (options.tracing) {
    spans_ = std::make_unique<trace::SpanRecorder>(options.max_spans);
  }
}

Context::~Context() { Uninstall(); }

Context* Context::Current() {
  return g_current.load(std::memory_order_acquire);
}

void Context::Install() { g_current.store(this, std::memory_order_release); }

void Context::Uninstall() {
  Context* expected = this;
  g_current.compare_exchange_strong(expected, nullptr,
                                    std::memory_order_acq_rel);
}

void Context::AttachSimulation(sim::Simulation* simulation) {
  if (spans_) spans_->SetClock(simulation);
  if (checker_) checker_->Watch(simulation);
}

void Context::CallStart(const ObjectId& object, const std::string& function,
                        const ObjectId& component) {
  if (checker_) checker_->CallStart(object, function, component);
}

void Context::CallEnd(const ObjectId& object, const std::string& function,
                      const ObjectId& component) {
  if (checker_) checker_->CallEnd(object, function, component);
}

void Context::ComponentRemoved(const ObjectId& object,
                               const ObjectId& component, bool forced) {
  if (checker_) checker_->ComponentRemoved(object, component, forced);
  if (spans_) {
    spans_->Instant("dfm.remove", {.category = "dfm"},
                    {{"object", object.ToString()},
                     {"component", component.ToString()},
                     {"forced", forced ? "true" : "false"}});
  }
}

void Context::ImplSwapped(const ObjectId& object, const std::string& function,
                          const ObjectId& from_component,
                          const ObjectId& to_component, int active_on_from) {
  if (checker_) {
    checker_->ImplSwapped(object, function, from_component, to_component,
                          active_on_from);
  }
  if (spans_) {
    spans_->Instant("dfm.swap", {.category = "dfm"},
                    {{"object", object.ToString()},
                     {"function", function},
                     {"from", from_component.ToString()},
                     {"to", to_component.ToString()},
                     {"active_on_from", std::to_string(active_on_from)}});
  }
}

trace::SpanId Context::EvolveBegin(const ObjectId& object,
                                   std::string_view name, std::uint32_t node,
                                   const VersionId& from, const VersionId& to) {
  if (checker_) checker_->EvolveBegin(object, from, to);
  if (!spans_) return 0;
  return spans_->BeginSpan(
      "evolve", {.category = "evolve", .node = node},
      {{"object", name}, {"from", from.ToString()}, {"to", to.ToString()}});
}

void Context::EvolveEnd(const ObjectId& object, trace::SpanId span,
                        const VersionId& from, const VersionId& to,
                        const Status& outcome) {
  if (checker_) checker_->EvolveEnd(object, from, to, outcome.ok());
  if (spans_) {
    spans_->EndSpan(span, "outcome",
                    outcome.ok() ? "committed" : outcome.ToString());
  }
}

void Context::EndpointOpened(std::uint32_t node, std::uint64_t pid,
                             std::uint64_t epoch) {
  if (checker_) checker_->EndpointOpened(node, pid);
  if (spans_) {
    spans_->Instant("rpc.endpoint_open",
                    {.category = "transport", .node = node},
                    {{"pid", std::to_string(pid)},
                     {"epoch", std::to_string(epoch)}});
  }
}

void Context::EndpointClosed(std::uint32_t node, std::uint64_t pid) {
  if (checker_) checker_->EndpointClosed(node, pid);
  if (spans_) {
    spans_->Instant("rpc.endpoint_close",
                    {.category = "transport", .node = node},
                    {{"pid", std::to_string(pid)}});
  }
}

void Context::BindingRefreshed(std::uint32_t at_node, const ObjectId& object,
                               std::uint32_t node, std::uint64_t pid,
                               std::uint64_t epoch) {
  if (checker_) checker_->BindingRefreshed(object, node, pid, epoch);
  if (spans_) {
    spans_->Instant("naming.refresh", {.category = "naming", .node = at_node},
                    {{"object", object.ToString()},
                     {"address", Address(node, pid, epoch)}});
  }
}

void Context::UpdateBegun(std::size_t steps) {
  if (checker_) {
    checker_->AuditNote("batch of " + std::to_string(steps) +
                        " step(s) begins");
  }
  if (spans_) {
    spans_->Instant("update.batch", {.category = "evolve"},
                    {{"steps", std::to_string(steps)}});
  }
}

void Context::UpdateApplied(std::size_t applied) {
  if (checker_) {
    checker_->AuditNote("batch applied (" + std::to_string(applied) +
                        " step(s))");
  }
  if (spans_) {
    spans_->Instant("update.applied", {.category = "evolve"},
                    {{"applied", std::to_string(applied)}});
  }
}

void Context::UpdateRolledBack(std::size_t rolled_back, const Status& cause) {
  if (checker_) {
    checker_->AuditNote("batch rolled back (" + std::to_string(rolled_back) +
                        " step(s) undone): " + cause.ToString());
  }
  if (spans_) {
    spans_->Instant("update.rollback", {.category = "evolve"},
                    {{"cause", cause.ToString()},
                     {"undone", std::to_string(rolled_back)}});
  }
}

}  // namespace dcdo::instrument
