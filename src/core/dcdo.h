// Dcdo: a dynamically configurable distributed object (paper Section 2.2).
//
// A DCDO is an active object whose implementation is a *set of components*
// mapped through a DFM rather than a monolithic executable. Its interface has
// the paper's three function categories:
//
//   configuration functions — incorporateComponent / removeComponent /
//     enableFunction / disableFunction / switchImplementation / mark* /
//     dependency edits, plus EvolveTo (apply a whole DFM descriptor);
//   status-reporting functions — getInterface / version / components /
//     active-thread counts;
//   user-defined functions — everything else: any exported dynamic function,
//     dispatched through the DFM.
//
// Remote invocations reaching the DCDO's endpoint are routed the same way:
// "dcdo."-prefixed methods hit the configuration/status interface, all other
// method names are treated as dynamic function calls.
//
// Every dynamic call (local or remote, external or internal) charges
// CostModel::dfm_lookup in simulated time — the paper's measured 10-15 us
// DFM indirection overhead.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "common/version_id.h"
#include "component/fetcher.h"
#include "component/native_code_registry.h"
#include "core/ico_directory.h"
#include "dfm/descriptor.h"
#include "dfm/mapper.h"
#include "naming/binding_agent.h"
#include "rpc/activation.h"
#include "runtime/fom.h"
#include "runtime/method_table.h"
#include "sim/host.h"

namespace dcdo {

class Dcdo final : public CallContext {
 public:
  // What to do when a removal, or an evolution's commit, meets active
  // threads (Section 3.2): fail, wait for the counts to drain, or wait up
  // to a deadline then force.
  struct RemovalPolicy {
    enum class Kind : std::uint8_t { kError, kDelay, kTimeout };
    Kind kind = Kind::kError;
    sim::SimDuration timeout = sim::SimDuration::Seconds(5);  // kTimeout only

    static RemovalPolicy Error() { return RemovalPolicy{}; }
    static RemovalPolicy Delay() { return {.kind = Kind::kDelay}; }
    static RemovalPolicy Timeout(sim::SimDuration deadline) {
      return {.kind = Kind::kTimeout, .timeout = deadline};
    }
  };

  using DoneCallback = std::function<void(Status)>;
  // One attempt at a change that may meet active threads (a removal, an
  // evolution's commit), made with kError or, at a deadline, kForce.
  using Attempt = std::function<Status(Dcdo&, ActiveThreadPolicy)>;

  // Activates the DCDO on `host` as a fresh process (no spawn cost charged —
  // managers charge creation explicitly; see DcdoManager::CreateInstance).
  // `fetcher` routes this object's component acquisitions; a manager passes
  // its own so co-managed instances share one single-flight scope. It must
  // outlive the object: an acquisition in flight when the object is
  // destroyed still lands, and its operation then ends kNotFound.
  Dcdo(std::string name, sim::SimHost* host, rpc::RpcTransport* transport,
       BindingAgent* agent, const NativeCodeRegistry* registry,
       const IcoDirectory* icos, VersionId version, ComponentFetcher* fetcher);
  ~Dcdo() override;

  Dcdo(const Dcdo&) = delete;
  Dcdo& operator=(const Dcdo&) = delete;

  const ObjectId& id() const { return activation_.object(); }
  const std::string& name() const { return name_; }
  const VersionId& version() const { return version_; }
  sim::SimHost& host() const { return *activation_.host(); }

  // ===== Configuration functions =====

  // Incorporates the component whose image is already in the host cache,
  // keeping `meta` as the DFM's record of it. Charges component_map_cached
  // + per-function DFM registration.
  [[nodiscard]] Status IncorporateCached(ComponentRecord meta,
                                         bool auto_structural_deps = true);
  // The same, for metadata held by value: makes its record, once.
  [[nodiscard]] Status IncorporateCached(const ImplementationComponent& meta,
                                         bool auto_structural_deps = true) {
    return IncorporateCached(
        std::make_shared<const ImplementationComponent>(meta),
        auto_structural_deps);
  }

  // Full incorporate: resolves the ICO, fetches the image if not cached
  // (bulk download), then maps it. `done` runs when incorporated; a destroy
  // meanwhile ends it kNotFound.
  void IncorporateComponent(const ObjectId& component_id, DoneCallback done);

  // Immediate removal honouring `thread_policy` (kError rejects on active
  // threads; kForce removes regardless).
  [[nodiscard]] Status RemoveComponent(const ObjectId& component_id,
                         ActiveThreadPolicy thread_policy =
                             ActiveThreadPolicy::kError);

  // Removal under a RemovalPolicy: kDelay retries until thread counts drain;
  // kTimeout waits up to the deadline then forces.
  void RemoveComponentWithPolicy(const ObjectId& component_id,
                                 const RemovalPolicy& policy,
                                 DoneCallback done);

  [[nodiscard]] Status EnableFunction(const std::string& function, const ObjectId& component);
  [[nodiscard]] Status DisableFunction(const std::string& function, const ObjectId& component,
                         bool respect_active_dependents = true);
  [[nodiscard]] Status SwitchImplementation(const std::string& function,
                              const ObjectId& to_component);
  [[nodiscard]] Status SetVisibility(const std::string& function, const ObjectId& component,
                       Visibility visibility);
  [[nodiscard]] Status MarkMandatory(const std::string& function);
  [[nodiscard]] Status MarkPermanent(const std::string& function, const ObjectId& component);
  [[nodiscard]] Status AddDependency(Dependency dep);
  [[nodiscard]] Status RemoveDependency(const Dependency& dep);

  // Evolves the object to `target`, a whole instantiable descriptor: stage 1
  // fetches the components the table lacks and resolves each one's bodies
  // as it lands, charged as an incorporate, changing nothing live; stage 2
  // charges the flips, commits the target in one step
  // (DynamicFunctionMapper::CommitConfiguration) and takes on its version
  // id. So the object ends at its old version or its new one. This is
  // "evolving the DCDO" — sub-second unless components must be downloaded —
  // and, on a new instance's empty table, its creation. A thread inside a
  // component the target drops fails the commit under `removal`'s kError;
  // kDelay/kTimeout drain it first. A destroy meanwhile ends it kNotFound.
  // `enforce_marks` is the policy's enforce_marks_on_evolve(): when set,
  // moves that would break a mandatory/permanent rule are rejected.
  void EvolveTo(const DfmDescriptor& target, const RemovalPolicy& removal,
                DoneCallback done, bool enforce_marks = true);

  // ===== Status-reporting functions =====

  std::vector<FunctionSignature> GetInterface() const {
    return mapper_.state().ExportedInterface();
  }
  std::vector<ObjectId> GetComponents() const {
    return mapper_.state().ComponentIds();
  }
  int ActiveCount(const std::string& function, const ObjectId& component) const {
    return mapper_.ActiveCount(function, component);
  }
  const DynamicFunctionMapper& mapper() const { return mapper_; }
  ObjectAddress address() const { return activation_.address(); }

  // ===== User-defined function invocation =====

  // External-origin call (what a remote client's invocation performs once it
  // reaches the object). Charges the DFM lookup cost.
  [[nodiscard]] Result<ByteBuffer> Call(const std::string& function, const ByteBuffer& args);

  // Pre-resolved variant: repeat callers holding an interned FunctionId skip
  // the per-call name lookup entirely.
  [[nodiscard]] Result<ByteBuffer> Call(FunctionId function, const ByteBuffer& args);

  // CallContext (bodies calling other dynamic functions in this object):
  [[nodiscard]] Result<ByteBuffer> CallInternal(const std::string& function,
                                  const ByteBuffer& args) override;
  [[nodiscard]] Result<ByteBuffer> CallInternal(FunctionId function, const ByteBuffer& args);
  ObjectId self_id() const override;
  void BlockOnOutcall(double sim_seconds) override;
  ByteBuffer& object_data() override { return state_.data; }

  // Per-instance application state (captured on migration).
  InstanceState& mutable_state() { return state_; }

  // Counters used by lazy-update policies and benches.
  std::uint64_t user_calls() const { return user_calls_; }

  // Hook installed by DcdoManager: runs before each user call so lazy
  // policies can pull updates. Null by default.
  void SetPreCallHook(std::function<void()> hook) {
    pre_call_hook_ = std::move(hook);
  }

  // Moves the object to `dest`: resolves every component's bodies for dest's
  // architecture, then opens it at the next epoch there, replacing its
  // binding. kArchMismatch, moving nothing, if one has no build there.
  [[nodiscard]] Status MoveTo(sim::SimHost* dest) {
    DCDO_RETURN_IF_ERROR(mapper_.RemapBodies(registry_, dest->architecture()));
    activation_.MoveTo(dest, Endpoint());
    return Status::Ok();
  }

  // --- Deactivation lifecycle (Legion objects vacate their process when
  // idle and re-activate on demand; the new activation has a new address,
  // so old client bindings go stale exactly as after migration) ---

  // Closes the activation: endpoint unregistered, process killed, binding
  // removed. The object's state stays captured in this handle.
  void Deactivate() { activation_.Close(); }

  // Opens a fresh activation on the same host (new pid, bumped epoch).
  void Reactivate() {
    activation_.Open(&host(), address().epoch + 1, Endpoint());
  }

  bool active() const { return activation_.open(); }

  // Re-resolves every component's bodies for the current host's
  // architecture, in place; kArchMismatch, changing nothing, if one has no
  // usable build here.
  [[nodiscard]] Status RemapForHost() {
    return mapper_.RemapBodies(registry_, host().architecture());
  }

 private:
  // The pooled state machines of the object's operations (dcdo.cc).
  class EvolveFom;
  class IncorporateFom;
  class RemovalPollFom;

  // Runs `attempt` with kError and, when it meets active threads under
  // kDelay/kTimeout, again every kRemovalPoll until it does not (kTimeout:
  // with kForce at its deadline). `done` gets the last attempt's status.
  void AttemptUnderPolicy(const RemovalPolicy& policy, Attempt attempt,
                          DoneCallback done);

  // The one DFM call path behind Call and CallInternal: the dfm.call span,
  // the lookup charge, acquire and the body.
  template <CallOrigin kOrigin, typename Function>
  Result<ByteBuffer> Dispatch(Function function, const ByteBuffer& args);

  // Fails unless `meta`'s image is in this host's component cache.
  [[nodiscard]] Status CheckCached(const ImplementationComponent& meta) const;
  // Charges mapping a cached image into the address space and registering
  // its `functions` with the DFM.
  void ChargeMapping(std::size_t functions);
  // Stage 1's half of IncorporateCached: resolves `meta`'s bodies into
  // `staged` for a commit, with the same checks, errors and charge.
  [[nodiscard]] Status StageCached(
      const ImplementationComponent& meta,
      std::vector<DynamicFunctionMapper::ResolvedComponent>& staged);
  rpc::Handler Endpoint() {  // what each activation registers
    return [this](const rpc::MethodInvocation& call, rpc::ReplyFn reply) {
      HandleInvocation(call, std::move(reply));
    };
  }
  void HandleInvocation(const rpc::MethodInvocation& invocation,
                        rpc::ReplyFn reply);
  [[nodiscard]] Result<ByteBuffer> DispatchConfig(std::string_view method,
                                    const ByteBuffer& args);
  sim::Simulation& simulation() { return host().simulation(); }
  const sim::CostModel& cost() const { return host().cost_model(); }

  std::string name_;
  // The object's id and where it runs: its process, endpoint and binding.
  rpc::Activation activation_;
  const NativeCodeRegistry& registry_;
  const IcoDirectory& icos_;
  ComponentFetcher* fetcher_;
  VersionId version_;
  DynamicFunctionMapper mapper_;
  InstanceState state_;
  std::uint64_t user_calls_ = 0;
  std::function<void()> pre_call_hook_;
  runtime::FomOwner ops_;  // operations in flight; destruction cuts them off
};

}  // namespace dcdo
