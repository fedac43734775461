#include "core/dcdo.h"

#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/serialize.h"
#include "dfm/descriptor_wire.h"
#include "instrument/context.h"
#include "runtime/fom.h"

namespace dcdo {

namespace {

using runtime::FomStatus;
using runtime::WakeSource;

// How often a change waiting under kDelay/kTimeout retries.
constexpr sim::SimDuration kRemovalPoll = sim::SimDuration::Millis(50);

}  // namespace

// An attempt under kDelay/kTimeout once the synchronous first one met
// active threads — a removal, or an evolution's commit: one pooled Fom
// retries every kRemovalPoll until the counts drain (or the deadline
// forces). The timer wake is the scheduler's own 16-byte trampoline, so a
// full poll cycle allocates nothing.
class Dcdo::RemovalPollFom final : public runtime::OwnedFom<Dcdo> {
 public:
  enum Phase { kPoll };

  RemovalPollFom(Dcdo* object, Dcdo::Attempt attempt, sim::SimTime deadline,
                 bool has_deadline, Dcdo::DoneCallback done)
      : OwnedFom("dcdo.removal_poll", object, object->ops_),
        attempt_(std::move(attempt)),
        deadline_(deadline),
        has_deadline_(has_deadline),
        done_(std::move(done)) {}

  FomStatus Tick() override {
    if (phase() == kPoll) {
      Dcdo* object = owner();
      if (object == nullptr) {
        done_(Gone());
        return FomStatus::kDone;
      }
      Status attempt = attempt_(*object, ActiveThreadPolicy::kError);
      if (attempt.code() != ErrorCode::kActiveThreads) {
        done_(attempt);
        return FomStatus::kDone;
      }
      if (has_deadline_ && simulation().Now() >= deadline_) {
        // "Simply go ahead with the operation after some time-out period."
        done_(attempt_(*object, ActiveThreadPolicy::kForce));
        return FomStatus::kDone;
      }
    } else {
      EnterPhase(kPoll, "poll");
    }
    scheduler().ArmTimer(*this, kRemovalPoll);
    return WaitOn(WakeSource::kTimer);
  }

 private:
  Dcdo::Attempt attempt_;
  sim::SimTime deadline_;
  bool has_deadline_;
  Dcdo::DoneCallback done_;
};

Dcdo::Dcdo(std::string name, sim::SimHost* host, rpc::RpcTransport* transport,
           BindingAgent* agent, const NativeCodeRegistry* registry,
           const IcoDirectory* icos, VersionId version,
           ComponentFetcher* fetcher)
    : name_(std::move(name)),
      activation_(ObjectId::Next(domains::kInstance), transport, agent),
      registry_(*registry),
      icos_(*icos),
      fetcher_(fetcher),
      version_(std::move(version)) {
  activation_.Open(host, /*epoch=*/1, Endpoint());
  mapper_.SetCheckOwner(id());
  // Expose this object's live state to the checker's invariants. The probe
  // holds a raw `this`; the destructor unregisters first.
  if (check::Checker* probes = instrument::Probes()) {
    probes->RegisterObject(id(), [this]() {
      return check::ObjectStatusSnapshot{
          .version = version_,
          .components = mapper_.state().ComponentIds(),
          .total_active_threads = mapper_.TotalActive(),
          .config_anomalies = mapper_.state().CheckIntegrity()};
    });
  }
}

Dcdo::~Dcdo() {
  if (auto* probes = instrument::Probes()) probes->UnregisterObject(id());
}

// ===== User-defined function invocation =====

namespace {
std::string_view FunctionName(std::string_view name) { return name; }
std::string_view FunctionName(FunctionId id) {
  return FunctionNameTable::Global().NameOf(id);
}
}  // namespace

template <CallOrigin kOrigin, typename Function>
Result<ByteBuffer> Dcdo::Dispatch(Function function, const ByteBuffer& args) {
  if constexpr (kOrigin == CallOrigin::kExternal) {
    if (!active()) {
      return UnavailableError(name_ + " is deactivated");
    }
    if (pre_call_hook_) pre_call_hook_();
    ++user_calls_;
  }
  // dfm.call covers the DFM indirection + acquire + the body itself; when
  // the call arrived remotely it nests under the transport's rpc.dispatch
  // span via the scope stack.
  instrument::SpanScope span("dfm.call",
                             {.category = "dfm", .node = address().node});
  if (span) span.Annotate("function", FunctionName(function));
  // The paper's measured DFM indirection: every dynamic call pays it.
  simulation().AdvanceInline(cost().dfm_lookup);
  DCDO_ASSIGN_OR_RETURN(DynamicFunctionMapper::CallGuard guard,
                        mapper_.Acquire(function, kOrigin));
  return guard.body()(*this, args);
}

Result<ByteBuffer> Dcdo::Call(const std::string& function,
                              const ByteBuffer& args) {
  return Dispatch<CallOrigin::kExternal>(std::string_view(function), args);
}

Result<ByteBuffer> Dcdo::Call(FunctionId function, const ByteBuffer& args) {
  return Dispatch<CallOrigin::kExternal>(function, args);
}

// Intra-object calls go through the DFM too — same indirection cost for
// self-calls, intra-component, and inter-component calls alike.
Result<ByteBuffer> Dcdo::CallInternal(const std::string& function,
                                      const ByteBuffer& args) {
  return Dispatch<CallOrigin::kInternal>(std::string_view(function), args);
}

Result<ByteBuffer> Dcdo::CallInternal(FunctionId function,
                                      const ByteBuffer& args) {
  return Dispatch<CallOrigin::kInternal>(function, args);
}

ObjectId Dcdo::self_id() const { return id(); }

void Dcdo::BlockOnOutcall(double sim_seconds) {
  // Re-enters the event loop so the rest of the system — including
  // configuration calls against this object — proceeds while this "thread"
  // is parked inside the function (its CallGuard stays alive up the stack).
  sim::Simulation& simulation = host().simulation();
  simulation.RunUntil(simulation.Now() +
                      sim::SimDuration::Seconds(sim_seconds));
}

// ===== Configuration functions =====

Status Dcdo::CheckCached(const ImplementationComponent& meta) const {
  if (host().ComponentCached(meta.id)) return Status::Ok();
  return ComponentMissingError("component " + meta.name +
                               " is not cached on node " +
                               std::to_string(host().node()));
}

void Dcdo::ChargeMapping(std::size_t functions) {
  simulation().AdvanceInline(
      cost().component_map_cached +
      cost().dfm_register_per_function * static_cast<std::int64_t>(functions));
}

Status Dcdo::IncorporateCached(ComponentRecord meta,
                               bool auto_structural_deps) {
  DCDO_RETURN_IF_ERROR(CheckCached(*meta));
  const std::size_t functions = meta->functions.size();
  DCDO_RETURN_IF_ERROR(mapper_.IncorporateComponent(
      std::move(meta), registry_, host().architecture(),
      auto_structural_deps));
  ChargeMapping(functions);
  return Status::Ok();
}

Status Dcdo::StageCached(
    const ImplementationComponent& meta,
    std::vector<DynamicFunctionMapper::ResolvedComponent>& staged) {
  DCDO_RETURN_IF_ERROR(CheckCached(meta));
  DCDO_ASSIGN_OR_RETURN(
      DynamicFunctionMapper::ResolvedComponent resolved,
      DynamicFunctionMapper::ResolveComponent(meta, registry_,
                                              host().architecture()));
  staged.push_back(std::move(resolved));
  ChargeMapping(meta.functions.size());
  return Status::Ok();
}

// One incorporate as a pooled Fom: acquire the component through the
// pipeline (fetch from the ICO if not cached), then map it. Routing even a
// single incorporate through the fetcher is what lets two co-hosted DCDOs
// incorporating the same component share one stream; reaching the object
// through the owner link is what lets an image that lands after a destroy
// find it gone.
class Dcdo::IncorporateFom final : public runtime::OwnedFom<Dcdo> {
 public:
  enum Phase { kAcquire };

  IncorporateFom(Dcdo* object, ComponentRecord record, Dcdo::DoneCallback done)
      : OwnedFom("dcdo.incorporate", object, object->ops_),
        record_(std::move(record)),
        done_(std::move(done)) {}

  FomStatus Tick() override {
    if (phase() == kAcquire) {
      done_(owner() == nullptr ? Gone() : wake_status());
      return FomStatus::kDone;
    }
    EnterPhase(kAcquire, "acquire");
    owner()->fetcher_->AcquireAll(
        &owner()->host(), {std::move(record_)},
        // The Fom outlives on_ready: it waits for the acquisition's done,
        // which runs right after it.
        [fom = this](const ComponentRecord& meta, bool /*was_cached*/) {
          Dcdo* object = fom->owner();
          return object ? object->IncorporateCached(meta) : fom->Gone();
        },
        WakeFn(WakeSource::kFetch));
    return WaitOn(WakeSource::kFetch);
  }

 private:
  ComponentRecord record_;
  Dcdo::DoneCallback done_;
};

void Dcdo::IncorporateComponent(const ObjectId& component_id,
                                DoneCallback done) {
  Result<ImplementationComponentObject*> ico = icos_.Find(component_id);
  if (!ico.ok()) {
    done(ico.status());
    return;
  }
  runtime::FomScheduler::For(simulation())
      .Launch<IncorporateFom>(this, (*ico)->record(), std::move(done));
}

Status Dcdo::RemoveComponent(const ObjectId& component_id,
                             ActiveThreadPolicy thread_policy) {
  return mapper_.RemoveComponent(component_id, thread_policy);
}

void Dcdo::RemoveComponentWithPolicy(const ObjectId& component_id,
                                     const RemovalPolicy& policy,
                                     DoneCallback done) {
  AttemptUnderPolicy(
      policy,
      [component_id](Dcdo& object, ActiveThreadPolicy threads) {
        return object.RemoveComponent(component_id, threads);
      },
      std::move(done));
}

void Dcdo::AttemptUnderPolicy(const RemovalPolicy& policy, Attempt attempt,
                              DoneCallback done) {
  Status first = attempt(*this, ActiveThreadPolicy::kError);
  if (policy.kind == RemovalPolicy::Kind::kError ||
      first.code() != ErrorCode::kActiveThreads) {
    done(std::move(first));
    return;
  }
  // Threads are inside: retry until they drain — and, for kTimeout, force
  // at the deadline. The Fom's first Tick only arms the timer, so the first
  // retry happens one poll interval from now.
  runtime::FomScheduler::For(simulation())
      .Launch<RemovalPollFom>(this, std::move(attempt),
                              simulation().Now() + policy.timeout,
                              policy.kind == RemovalPolicy::Kind::kTimeout,
                              std::move(done));
}

Status Dcdo::EnableFunction(const std::string& function,
                            const ObjectId& component) {
  return mapper_.EnableFunction(function, component);
}

Status Dcdo::DisableFunction(const std::string& function,
                             const ObjectId& component,
                             bool respect_active_dependents) {
  return mapper_.DisableFunction(function, component,
                                 respect_active_dependents);
}

Status Dcdo::SwitchImplementation(const std::string& function,
                                  const ObjectId& to_component) {
  return mapper_.SwitchImplementation(function, to_component);
}

Status Dcdo::SetVisibility(const std::string& function,
                           const ObjectId& component, Visibility visibility) {
  return mapper_.SetVisibility(function, component, visibility);
}

Status Dcdo::MarkMandatory(const std::string& function) {
  return mapper_.MarkMandatory(function);
}

Status Dcdo::MarkPermanent(const std::string& function,
                           const ObjectId& component) {
  return mapper_.MarkPermanent(function, component);
}

Status Dcdo::AddDependency(Dependency dep) {
  return mapper_.AddDependency(std::move(dep));
}

Status Dcdo::RemoveDependency(const Dependency& dep) {
  return mapper_.RemoveDependency(dep);
}

// ===== Evolution =====

// The whole evolution — acquire, then commit — as one pooled Fom (DESIGN.md
// §7, §16). Stage 2 commits into mapper_ and Finish rewrites version_
// directly. A failure discards the staged bodies with the Fom and leaves the
// object as it was.
class Dcdo::EvolveFom final : public runtime::OwnedFom<Dcdo> {
 public:
  enum Phase { kAcquire, kCommit };

  EvolveFom(Dcdo* object, VersionId target_version, DfmState target_state,
            EvolutionPlan plan, Dcdo::RemovalPolicy removal,
            bool enforce_marks, Dcdo::DoneCallback done,
            trace::SpanId evolve_span)
      : OwnedFom("dcdo.evolve", object, object->ops_),
        object_id_(object->id()),
        host_(&object->host()),
        target_version_(std::move(target_version)),
        target_state_(std::move(target_state)),
        incorporate_(std::move(plan.incorporate)),
        flip_count_(plan.flips),
        removal_(removal),
        enforce_marks_(enforce_marks),
        done_(std::move(done)),
        evolve_span_(evolve_span) {
    set_phase_parent(evolve_span);
  }

  FomStatus Tick() override {
    Dcdo* object = owner();
    if (phase() < 0) {
      // Stage 1: acquire the new components through the fetch pipeline. At
      // the calibrated fetch_concurrency of 1 this is the paper's
      // one-at-a-time sequence; above it, fetches overlap (bounded,
      // single-flighted) and each image is staged as it lands. Either way
      // stage 2 starts only once every component is in.
      EnterPhase(kAcquire, "acquire");
      // Room for every target component: the commit adds the kept blocks.
      staged_.reserve(target_state_.component_count());
      object->fetcher_->AcquireAll(
          &object->host(), std::move(incorporate_),
          // The Fom outlives every on_ready: it waits for the acquisition's
          // done, which runs after the last of them.
          [fom = this](const ComponentRecord& meta, bool /*was_cached*/) {
            Dcdo* object = fom->owner();
            return object ? object->StageCached(*meta, fom->staged_)
                          : fom->Gone();
          },
          WakeFn(WakeSource::kFetch), evolve_span_);
      return WaitOn(WakeSource::kFetch);
    }
    if (object == nullptr) return Finish(Gone());
    if (phase() == kCommit) return Finish(wake_status());
    // Stage 2: every component is staged.
    Status status = wake_status();
    if (!status.ok()) return Finish(std::move(status));
    if (&object->host() != host_) {  // its staged bodies belong to host_
      return Finish(FailedPreconditionError(object->name_ +
                                            " moved during its evolution"));
    }
    // Charge the per-flip DFM update, then commit, draining first under
    // kDelay/kTimeout.
    object->simulation().AdvanceInline(
        object->cost().dfm_register_per_function *
        static_cast<std::int64_t>(flip_count_));
    EnterPhase(kCommit, "commit");
    object->AttemptUnderPolicy(
        removal_,
        [fom = this](Dcdo& object, ActiveThreadPolicy threads) {
          return object.mapper_.CommitConfiguration(
              fom->target_state_, fom->staged_, fom->enforce_marks_, threads);
        },
        WakeFn(WakeSource::kChild));
    return WaitOn(WakeSource::kChild);
  }

 private:
  // Stage 3: take on the version (on success), report the outcome to the
  // instrumentation stream (the checker's version record, the evolve
  // span), then to the caller.
  FomStatus Finish(Status status) {
    // Only a commit, which needs the object, succeeds.
    Dcdo* object = owner();
    const VersionId previous =
        object != nullptr ? object->version_ : VersionId();
    if (status.ok()) object->version_ = target_version_;
    DCDO_INSTRUMENT(EvolveEnd(object_id_, evolve_span_, previous,
                              target_version_, status));
    done_(std::move(status));
    return FomStatus::kDone;
  }

  const ObjectId object_id_;  // names the evolution after a destroy
  sim::SimHost* host_;        // where stage 1 resolves bodies
  VersionId target_version_;
  DfmState target_state_;  // snapshot: the caller's descriptor need not
                           // outlive the operation
  std::vector<ComponentRecord> incorporate_;  // the target's records
  std::vector<DynamicFunctionMapper::ResolvedComponent> staged_;
  std::size_t flip_count_;
  Dcdo::RemovalPolicy removal_;
  bool enforce_marks_;
  Dcdo::DoneCallback done_;
  trace::SpanId evolve_span_;
};

void Dcdo::EvolveTo(const DfmDescriptor& target, const RemovalPolicy& removal,
                    DoneCallback done, bool enforce_marks) {
  if (!target.instantiable()) {
    done(VersionNotInstantiableError("version " + target.version().ToString() +
                                     " is still configurable"));
    return;
  }
  EvolutionPlan plan = ComputePlan(mapper_.state(), target.state());
  DCDO_LOG(kDebug) << name_ << ": evolving " << version_.ToString() << " -> "
                   << target.version().ToString() << " ("
                   << plan.incorporate.size() << " new components, "
                   << plan.flips << " flips)";
  // The evolution's span rides in the Fom, parents its phase spans and is
  // closed by EvolveFom::Finish, where the outcome is known.
  trace::SpanId evolve_span = 0;
  if (auto* context = instrument::Context::Current()) {
    evolve_span = context->EvolveBegin(id(), name_, address().node, version_,
                                       target.version());
  }

  runtime::FomScheduler::For(simulation())
      .Launch<EvolveFom>(this, target.version(), target.state(),
                         std::move(plan), removal, enforce_marks,
                         std::move(done), evolve_span);
}

// ===== RPC dispatch =====

namespace {
Result<std::pair<std::string, ObjectId>> ReadFunctionComponent(
    const ByteBuffer& args) {
  Reader reader(args);
  DCDO_ASSIGN_OR_RETURN(std::string function, reader.ReadString());
  DCDO_ASSIGN_OR_RETURN(ObjectId component, reader.ReadObjectId());
  return std::make_pair(std::move(function), component);
}
}  // namespace

Result<ByteBuffer> Dcdo::DispatchConfig(std::string_view method,
                                        const ByteBuffer& args) {
  if (method == "dcdo.getInterface") {
    // Annotated interface: clients see, per exported function, whether it is
    // mandatory (assured present for the object's lifetime along derived
    // versions) and whether its implementation is permanent (frozen). This
    // is what lets a client decide how defensively to code a call site.
    Writer writer(rpc::WireBufferPool::Acquire());
    std::vector<FunctionSignature> interface = GetInterface();
    writer.WriteU64(interface.size());
    const DfmState& state = mapper_.state();
    for (const FunctionSignature& fn : interface) {
      writer.WriteString(fn.name);
      writer.WriteString(fn.signature);
      writer.WriteBool(state.IsMandatory(fn.name));
      const DfmEntry* impl = state.EnabledImpl(fn.name);
      writer.WriteBool(impl != nullptr && impl->permanent);
    }
    return std::move(writer).Take();
  }
  if (method == "dcdo.getVersion") {
    Writer writer(rpc::WireBufferPool::Acquire());
    writer.WriteVersionId(version_);
    return std::move(writer).Take();
  }
  if (method == "dcdo.getActiveCounts") {
    // Thread-activity report: every implementation currently hosting at
    // least one executing thread, with its count.
    Writer writer(rpc::WireBufferPool::Acquire());
    std::vector<std::tuple<std::string, ObjectId, int>> rows;
    for (const DfmEntry& entry : mapper_.state().entries()) {
      int count = mapper_.ActiveCount(entry.name(), entry.component);
      if (count > 0) rows.emplace_back(entry.name(), entry.component, count);
    }
    writer.WriteU64(rows.size());
    for (const auto& [function, component, count] : rows) {
      writer.WriteString(function);
      writer.WriteObjectId(component);
      writer.WriteU32(static_cast<std::uint32_t>(count));
    }
    return std::move(writer).Take();
  }
  if (method == "dcdo.getComponents") {
    Writer writer(rpc::WireBufferPool::Acquire());
    std::vector<ObjectId> components = GetComponents();
    writer.WriteU64(components.size());
    for (const ObjectId& id : components) writer.WriteObjectId(id);
    return std::move(writer).Take();
  }
  if (method == "dcdo.enableFunction") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(EnableFunction(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.disableFunction") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(DisableFunction(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.switchImplementation") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(SwitchImplementation(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.removeComponent") {
    Reader reader(args);
    DCDO_ASSIGN_OR_RETURN(ObjectId component, reader.ReadObjectId());
    DCDO_RETURN_IF_ERROR(RemoveComponent(component));
    return ByteBuffer{};
  }
  if (method == "dcdo.markMandatory") {
    Reader reader(args);
    DCDO_ASSIGN_OR_RETURN(std::string function, reader.ReadString());
    DCDO_RETURN_IF_ERROR(MarkMandatory(function));
    return ByteBuffer{};
  }
  if (method == "dcdo.markPermanent") {
    DCDO_ASSIGN_OR_RETURN(auto fc, ReadFunctionComponent(args));
    DCDO_RETURN_IF_ERROR(MarkPermanent(fc.first, fc.second));
    return ByteBuffer{};
  }
  if (method == "dcdo.addDependency" || method == "dcdo.removeDependency") {
    Reader reader(args);
    DCDO_ASSIGN_OR_RETURN(Dependency dep, ReadDependency(reader));
    if (method == "dcdo.addDependency") {
      DCDO_RETURN_IF_ERROR(AddDependency(std::move(dep)));
    } else {
      DCDO_RETURN_IF_ERROR(RemoveDependency(dep));
    }
    return ByteBuffer{};
  }
  return NotFoundError("no configuration method '" + std::string(method) +
                       "'");
}

void Dcdo::HandleInvocation(const rpc::MethodInvocation& invocation,
                            rpc::ReplyFn reply) {
  // By-id fast path: a resolvable FunctionId can only name a user-defined
  // dynamic function (clients never ship configuration methods by id), so
  // dispatch straight through the DFM — no string comparisons at all.
  if (FunctionId id = invocation.ResolvedId(); id.valid()) {
    Result<ByteBuffer> result = Call(id, invocation.args());
    if (result.ok()) {
      reply(rpc::MethodResult::Ok(std::move(result).value()));
    } else {
      reply(rpc::MethodResult::Error(result.status()));
    }
    return;
  }
  const std::string_view method = invocation.method_name();
  if (method == "dcdo.incorporateComponent") {
    Reader reader(invocation.args());
    Result<ObjectId> component = reader.ReadObjectId();
    if (!component.ok()) {
      reply(rpc::MethodResult::Error(component.status()));
      return;
    }
    auto reply_sp = std::make_shared<rpc::ReplyFn>(std::move(reply));
    IncorporateComponent(*component, [reply_sp](Status status) {
      if (status.ok()) {
        (*reply_sp)(rpc::MethodResult::Ok());
      } else {
        (*reply_sp)(rpc::MethodResult::Error(status));
      }
    });
    return;
  }
  if (method == "dcdo.evolveTo") {
    // The fully remote evolution path: the caller ships a serialized DFM
    // descriptor; parsing re-validates every invariant before anything is
    // applied. Args: descriptor bytes, enforce-marks bool.
    Reader reader(invocation.args());
    Result<ByteBuffer> wire = reader.ReadBytes();
    if (!wire.ok()) {
      reply(rpc::MethodResult::Error(wire.status()));
      return;
    }
    Result<bool> enforce = reader.ReadBool();
    if (!enforce.ok()) {
      reply(rpc::MethodResult::Error(enforce.status()));
      return;
    }
    Result<DfmDescriptor> target = ParseDescriptor(*wire);
    if (!target.ok()) {
      reply(rpc::MethodResult::Error(target.status()));
      return;
    }
    auto reply_sp = std::make_shared<rpc::ReplyFn>(std::move(reply));
    EvolveTo(*target, RemovalPolicy::Error(),
             [reply_sp](Status status) {
               if (status.ok()) {
                 (*reply_sp)(rpc::MethodResult::Ok());
               } else {
                 (*reply_sp)(rpc::MethodResult::Error(status));
               }
             },
             *enforce);
    return;
  }
  if (method.starts_with("dcdo.")) {
    Result<ByteBuffer> result = DispatchConfig(method, invocation.args());
    if (result.ok()) {
      reply(rpc::MethodResult::Ok(std::move(result).value()));
    } else {
      reply(rpc::MethodResult::Error(result.status()));
    }
    return;
  }
  // User-defined dynamic function, named by string: first contact with a
  // not-yet-interned name (interning happens at incorporate time, so this
  // resolves — and subsequent calls ship by id) or a genuinely unknown one.
  Result<ByteBuffer> result = Call(std::string(method), invocation.args());
  if (result.ok()) {
    reply(rpc::MethodResult::Ok(std::move(result).value()));
  } else {
    reply(rpc::MethodResult::Error(result.status()));
  }
}

}  // namespace dcdo
