#include "core/manager.h"

#include "common/logging.h"
#include "common/serialize.h"
#include "runtime/fom.h"

namespace dcdo {

// ===== Instance-operation Foms (DESIGN.md §16) =====
// Each reaches the manager only through its owner link and hands out only
// its WakeFn(): a manager destroyed meanwhile ends it kNotFound.

namespace {
using runtime::FomStatus;
using runtime::WakeSource;
}  // namespace

// An operation on one existing instance: instance() re-finds it after each
// wait, and `done` runs once, through Finish.
class DcdoManager::InstanceOpFom : public runtime::OwnedFom<DcdoManager> {
 protected:
  InstanceOpFom(const char* name, DcdoManager* manager, ObjectId instance,
                DoneCallback done)
      : OwnedFom(name, manager, manager->ops_),
        instance_(instance),
        done_(std::move(done)) {}

  // The instance, or null once it or its manager is destroyed.
  Dcdo* instance() const {
    return owner() == nullptr ? nullptr : owner()->FindInstance(instance_);
  }
  // The outcome when instance() is null.
  Status Destroyed() const {
    return NotFoundError(instance_.ToString() + " destroyed during " + name());
  }

  FomStatus Finish(Status status) {
    done_(std::move(status));
    return FomStatus::kDone;
  }

  const ObjectId instance_;

 private:
  DoneCallback done_;
};

// Spawn shell, construct the Dcdo, apply the version, bind its name, handshake.
class DcdoManager::CreateInstanceFom final
    : public runtime::OwnedFom<DcdoManager> {
 public:
  enum Phase { kSpawn, kApply, kHandshake };

  CreateInstanceFom(DcdoManager* manager, VersionId version,
                    sim::SimHost* host, CreateCallback done)
      : OwnedFom("mgr.create_instance", manager, manager->ops_),
        version_(std::move(version)),
        host_(host),
        done_(std::move(done)) {}

  FomStatus Tick() override {
    DcdoManager* mgr = owner();
    if (phase() >= 0 && mgr == nullptr) {
      // A shell that spawned for a destroyed manager exits at once.
      if (phase() == kSpawn && wake_status().ok()) {
        (void)host_->KillProcess(wake_value());
      }
      return Finish(Gone());
    }
    switch (phase()) {
      default:
        // Spawn the shell process (the DCDO runtime without any
        // components)...
        EnterPhase(kSpawn, "spawn");
        host_->SpawnProcess(mgr->id_, kShellExecutableBytes,
                            WakeFn(WakeSource::kChild));
        return WaitOn(WakeSource::kChild);
      case kSpawn: {
        // A host that went down during the spawn leaves nothing to undo:
        // the instance is made only once its shell runs.
        if (!wake_status().ok()) return Finish(wake_status());
        // The Dcdo object adopts its own process entry; retire the shell's.
        (void)host_->KillProcess(wake_value());
        auto object = std::make_unique<Dcdo>(
            mgr->type_name_ + "#" +
                std::to_string(mgr->instances_.size() + 1),
            host_, &mgr->transport_, &mgr->agent_, &mgr->registry_,
            &mgr->icos_, VersionId{}, &mgr->fetcher_);
        Dcdo* raw = object.get();
        instance_id_ = raw->id();
        InstanceRecord& record = mgr->instances_[instance_id_];
        record.object = std::move(object);
        record.last_check = mgr->home_.simulation().Now();
        mgr->InstallLazyHook(instance_id_);
        // ...then bring it to the requested version (acquires every
        // component of the version's descriptor and commits its table).
        EnterPhase(kApply, "apply");
        mgr->ApplyVersion(raw, version_, WakeFn(WakeSource::kChild));
        return WaitOn(WakeSource::kChild);
      }
      case kApply:
        if (!wake_status().ok()) {
          mgr->instances_.erase(instance_id_);
          return Finish(wake_status());
        }
        if (mgr->names_ != nullptr) {
          (void)mgr->names_->Bind(mgr->InstanceName(instance_id_),
                                  instance_id_);
        }
        // Activation handshake completes creation.
        EnterPhase(kHandshake, "handshake");
        scheduler().ArmTimer(*this,
                             mgr->home_.cost_model().activation_handshake);
        return WaitOn(WakeSource::kTimer);
      case kHandshake:
        // A destroy during the handshake wins.
        if (!mgr->instances_.contains(instance_id_)) {
          return Finish(NotFoundError("instance destroyed during creation"));
        }
        done_(instance_id_);
        return FomStatus::kDone;
    }
  }

 private:
  FomStatus Finish(Status status) {
    done_(std::move(status));
    return FomStatus::kDone;
  }

  VersionId version_;
  sim::SimHost* host_;
  CreateCallback done_;
  ObjectId instance_id_;
};

// Apply the version, then record it in the manager's history. Its one wait
// is the object's evolution, whose span covers it: it opens no span itself.
class DcdoManager::EvolveInstanceFom final : public InstanceOpFom {
 public:
  enum Phase { kApply };

  EvolveInstanceFom(DcdoManager* manager, ObjectId instance, VersionId from,
                    VersionId to, DoneCallback done)
      : InstanceOpFom("mgr.evolve_instance", manager, instance,
                      std::move(done)),
        from_(std::move(from)),
        to_(std::move(to)),
        started_(manager->home_.simulation().Now()) {}

  FomStatus Tick() override {
    if (phase() < 0) {
      SetPhase(kApply, "apply");
      owner()->ApplyVersion(instance(), to_, WakeFn(WakeSource::kChild));
      return WaitOn(WakeSource::kChild);
    }
    DcdoManager* mgr = owner();
    if (mgr == nullptr) return Finish(Gone());
    const sim::SimTime now = mgr->home_.simulation().Now();
    mgr->history_.push_back(
        {instance_, from_, to_, now, now - started_, wake_status()});
    return Finish(wake_status());
  }

 private:
  VersionId from_;
  VersionId to_;
  sim::SimTime started_;
};

// Capture state -> bulk-transfer it -> fetch missing images at dest ->
// move (remap, then rebind) -> restore state -> optional lazy update check.
// The instance can be destroyed while any wait is pending, so every phase
// that touches it re-finds it first.
class DcdoManager::MigrateInstanceFom final : public InstanceOpFom {
 public:
  enum Phase { kCapture, kTransfer, kFetch, kRestore, kLazyUpdate };

  MigrateInstanceFom(DcdoManager* manager, ObjectId instance,
                     sim::SimHost* dest, DoneCallback done)
      : InstanceOpFom("mgr.migrate_instance", manager, instance,
                      std::move(done)),
        dest_(dest) {}

  FomStatus Tick() override {
    DcdoManager* mgr = owner();
    if (phase() >= 0 && mgr == nullptr) return Finish(Gone());
    switch (phase()) {
      default:
        source_ = &instance()->host();  // outlives the drained simulation
        state_bytes_ = instance()->mutable_state().CaptureSize();
        EnterPhase(kCapture, "capture");
        scheduler().ArmTimer(
            *this, mgr->home_.cost_model().StateCapture(state_bytes_));
        return WaitOn(WakeSource::kTimer);
      case kCapture:
        if (instance() == nullptr) return Finish(Destroyed());
        EnterPhase(kTransfer, "transfer");
        source_->network().BulkTransfer(source_->node(), dest_->node(),
                                        state_bytes_,
                                        WakeFn(WakeSource::kChild));
        return WaitOn(WakeSource::kChild);
      case kTransfer: {
        if (wake_value() == 0) {
          // Nothing has moved yet: the instance is rebound only after its
          // state lands, so it keeps serving at its source.
          return Finish(UnavailableError(
              "state transfer of " + instance_.ToString() + " to node " +
              std::to_string(dest_->node()) + " failed"));
        }
        Dcdo* object = instance();
        if (object == nullptr) return Finish(Destroyed());
        // Fetch any component images missing from the destination cache
        // (best-effort — a failed fetch is re-pulled lazily after the
        // move), then move. Cached images charge their map cost here;
        // fetched ones are mapped by MoveTo below.
        std::span<const ComponentRecord> records =
            object->mapper().state().components();
        EnterPhase(kFetch, "fetch");
        mgr->fetcher_.AcquireAll(
            dest_, std::vector<ComponentRecord>(records.begin(), records.end()),
            [fom = this](const ComponentRecord&, bool was_cached) {
              if (fom->instance() == nullptr) return fom->Destroyed();
              if (was_cached) {
                sim::SimHost& home = fom->owner()->home_;
                home.simulation().AdvanceInline(
                    home.cost_model().component_map_cached);
              }
              return Status::Ok();
            },
            WakeFn(WakeSource::kFetch),
            ComponentFetcher::Options{.fail_fast = false});
        return WaitOn(WakeSource::kFetch);
      }
      case kFetch: {
        if (!wake_status().ok()) return Finish(wake_status());
        Dcdo* object = instance();
        if (object == nullptr) return Finish(Destroyed());
        Status moved = object->MoveTo(dest_);
        if (!moved.ok()) return Finish(std::move(moved));
        EnterPhase(kRestore, "restore");
        scheduler().ArmTimer(*this, mgr->home_.cost_model().StateRestore(
                                        object->mutable_state().CaptureSize()));
        return WaitOn(WakeSource::kTimer);
      }
      case kRestore: {
        // Lazy-on-migrate policies check for updates here.
        LazyCheckContext ctx;
        ctx.migrating = true;
        if (mgr->policy_->ShouldLazyCheck(ctx)) {
          ++mgr->lazy_checks_;
          EnterPhase(kLazyUpdate, "lazy_update");
          mgr->UpdateInstance(instance_, WakeFn(WakeSource::kChild));
          return WaitOn(WakeSource::kChild);
        }
        return Finish(Status::Ok());
      }
      case kLazyUpdate:
        // Failing to update does not fail the migration.
        return Finish(Status::Ok());
    }
  }

 private:
  sim::SimHost* source_ = nullptr;
  sim::SimHost* dest_;
  std::size_t state_bytes_ = 0;
};

// Capture the state to the host's store, then tear the activation down.
class DcdoManager::DeactivateInstanceFom final : public InstanceOpFom {
 public:
  enum Phase { kCapture };

  DeactivateInstanceFom(DcdoManager* manager, ObjectId instance,
                        DoneCallback done)
      : InstanceOpFom("mgr.deactivate_instance", manager, instance,
                      std::move(done)) {}

  FomStatus Tick() override {
    if (phase() < 0) {
      state_bytes_ = instance()->mutable_state().CaptureSize();
      EnterPhase(kCapture, "capture");
      const sim::CostModel& cost = owner()->home_.cost_model();
      scheduler().ArmTimer(*this, cost.StateCapture(state_bytes_) +
                                      cost.DiskWrite(state_bytes_));
      return WaitOn(WakeSource::kTimer);
    }
    Dcdo* object = instance();
    if (object == nullptr) return Finish(Destroyed());
    object->host().StoreFile("state/" + instance_.ToString(), state_bytes_);
    object->Deactivate();
    return Finish(Status::Ok());
  }

 private:
  std::size_t state_bytes_ = 0;
};

// Spawn a shell, re-map cached components, restore state, re-bind. The
// instance stays deactivated when its host goes down.
class DcdoManager::ReactivateInstanceFom final : public InstanceOpFom {
 public:
  enum Phase { kSpawn, kRestore };

  ReactivateInstanceFom(DcdoManager* manager, ObjectId instance,
                        DoneCallback done)
      : InstanceOpFom("mgr.reactivate_instance", manager, instance,
                      std::move(done)) {}

  FomStatus Tick() override {
    if (phase() < 0) {
      host_ = &instance()->host();
      EnterPhase(kSpawn, "spawn");
      host_->SpawnProcess(instance_, kShellExecutableBytes,
                          WakeFn(WakeSource::kChild));
      return WaitOn(WakeSource::kChild);
    }
    if (phase() == kSpawn && !wake_status().ok()) return Finish(wake_status());
    if (phase() == kSpawn) (void)host_->KillProcess(wake_value());
    Dcdo* object = instance();
    if (object == nullptr) return Finish(Destroyed());
    if (phase() == kRestore) {
      object->Reactivate();
      return Finish(Status::Ok());
    }
    const sim::CostModel& cost = owner()->home_.cost_model();
    std::size_t components = object->GetComponents().size();
    std::size_t state_bytes = object->mutable_state().CaptureSize();
    owner()->home_.simulation().AdvanceInline(
        cost.component_map_cached * static_cast<std::int64_t>(components));
    EnterPhase(kRestore, "restore");
    scheduler().ArmTimer(*this, cost.DiskRead(state_bytes) +
                                    cost.StateRestore(state_bytes));
    return WaitOn(WakeSource::kTimer);
  }

 private:
  sim::SimHost* host_ = nullptr;  // where the shell spawns
};

DcdoManager::DcdoManager(std::string type_name, sim::SimHost* home,
                         rpc::RpcTransport* transport, BindingAgent* agent,
                         const NativeCodeRegistry* registry,
                         std::unique_ptr<EvolutionPolicy> policy)
    : type_name_(std::move(type_name)),
      id_(ObjectId::Next(domains::kDcdoManager)),
      home_(*home),
      transport_(*transport),
      agent_(*agent),
      registry_(*registry),
      policy_(std::move(policy)) {
  // The manager's exported interface (used by the explicit-update policy,
  // where "other objects call to the manager in order to evolve" instances).
  activation_.Open(
      &home_, /*epoch=*/1,
      [this](const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        const std::string_view method = invocation.method_name();
        if (method == "mgr.updateInstance") {
          Reader reader(invocation.args());
          Result<ObjectId> instance = reader.ReadObjectId();
          if (!instance.ok()) {
            reply(rpc::MethodResult::Error(instance.status()));
            return;
          }
          auto reply_sp = std::make_shared<rpc::ReplyFn>(std::move(reply));
          UpdateInstance(*instance, [reply_sp](Status status) {
            if (status.ok()) {
              (*reply_sp)(rpc::MethodResult::Ok());
            } else {
              (*reply_sp)(rpc::MethodResult::Error(status));
            }
          });
          return;
        }
        reply(rpc::MethodResult::Error(NotFoundError(
            "manager has no method '" + std::string(method) + "'")));
      });
}

DcdoManager::~DcdoManager() {
  instances_.clear();  // each instance's activation closes with it
  for (auto& ico : published_) icos_.Unregister(ico->id());
  activation_.Close();  // before the ICOs' own, as they are destroyed
}

// ===== Components =====

Status DcdoManager::AttachNameService(NameService* names) {
  names_ = names;
  if (names_ == nullptr) return Status::Ok();
  DCDO_RETURN_IF_ERROR(
      names_->Bind(NamePrefix() + "/manager", id_));
  for (const auto& ico : published_) {
    DCDO_RETURN_IF_ERROR(names_->Bind(
        NamePrefix() + "/components/" + ico->component().name, ico->id()));
  }
  for (const auto& entry : instances_) {
    DCDO_RETURN_IF_ERROR(names_->Bind(InstanceName(entry.first), entry.first));
  }
  return Status::Ok();
}

Result<ObjectId> DcdoManager::PublishComponent(ImplementationComponent meta) {
  DCDO_RETURN_IF_ERROR(meta.Validate());
  std::string name = meta.name;
  auto ico = std::make_unique<ImplementationComponentObject>(
      &home_, &transport_, &agent_, std::move(meta));
  ObjectId component_id = ico->id();
  icos_.Register(ico.get());
  published_.push_back(std::move(ico));
  if (names_ != nullptr) {
    DCDO_RETURN_IF_ERROR(
        names_->Bind(NamePrefix() + "/components/" + name, component_id));
  }
  return component_id;
}

// ===== DFM store =====

Result<VersionId> DcdoManager::CreateRootVersion() {
  if (!dfm_store_.empty()) {
    return AlreadyExistsError("type " + type_name_ + " already has versions");
  }
  VersionId root = VersionId::Root();
  dfm_store_.emplace(root, DfmDescriptor(root));
  return root;
}

Result<VersionId> DcdoManager::DeriveVersion(const VersionId& parent) {
  auto it = dfm_store_.find(parent);
  if (it == dfm_store_.end()) {
    return NotFoundError("no version " + parent.ToString() + " in the DFM "
                         "store of " + type_name_);
  }
  // Next free ordinal under `parent`: one past its last child. Children
  // are derived in ordinal order from 1 and never deleted, and the store's
  // order puts `parent`'s descendants right after it, each child before
  // its own descendants, so the last descendant carries the last child's
  // ordinal at `parent`'s depth.
  std::uint32_t ordinal = 1;
  auto last = dfm_store_.lower_bound(parent.Child(UINT32_MAX));
  if (--last != it && last->first.IsStrictlyDerivedFrom(parent)) {
    ordinal = last->first.parts()[parent.depth()] + 1;
  }
  VersionId child = parent.Child(ordinal);
  dfm_store_.emplace(child, it->second.DeriveChild(child));
  DCDO_LOG(kDebug) << type_name_ << ": derived version " << child.ToString()
                   << " from " << parent.ToString();
  return child;
}

Result<DfmDescriptor*> DcdoManager::MutableDescriptor(
    const VersionId& version) {
  auto it = dfm_store_.find(version);
  if (it == dfm_store_.end()) {
    return NotFoundError("no version " + version.ToString());
  }
  return &it->second;
}

Result<const DfmDescriptor*> DcdoManager::Descriptor(
    const VersionId& version) const {
  auto it = dfm_store_.find(version);
  if (it == dfm_store_.end()) {
    return NotFoundError("no version " + version.ToString());
  }
  return &it->second;
}

Status DcdoManager::MarkInstantiable(const VersionId& version) {
  DCDO_ASSIGN_OR_RETURN(DfmDescriptor * descriptor,
                        MutableDescriptor(version));
  return descriptor->MarkInstantiable();
}

Status DcdoManager::CheckInstantiable(const VersionId& version) const {
  DCDO_ASSIGN_OR_RETURN(const DfmDescriptor* descriptor, Descriptor(version));
  if (!descriptor->instantiable()) {
    return VersionNotInstantiableError("version " + version.ToString() +
                                       " of " + type_name_ +
                                       " is still configurable");
  }
  return Status::Ok();
}

Status DcdoManager::SetCurrentVersion(const VersionId& version) {
  DCDO_RETURN_IF_ERROR(CheckInstantiable(version));
  current_version_ = version;
  DCDO_LOG(kInfo) << type_name_ << ": current version is now "
                  << version.ToString();
  if (policy_->push_on_new_version()) {
    // Proactive update: push to every instance in the DCDO table now.
    for (auto& [instance_id, record] : instances_) {
      if (record.object->version() == version) continue;
      ++updates_pushed_;
      EvolveInstanceTo(instance_id, version, [instance_id](Status status) {
        if (!status.ok()) {
          DCDO_LOG(kWarning) << "proactive update of "
                             << instance_id.ToString()
                             << " failed: " << status.ToString();
        }
      });
    }
  }
  return Status::Ok();
}

std::vector<VersionId> DcdoManager::Versions() const {
  std::vector<VersionId> out;
  out.reserve(dfm_store_.size());
  for (const auto& [version, descriptor] : dfm_store_) out.push_back(version);
  return out;
}

// ===== Instances =====

void DcdoManager::ApplyVersion(Dcdo* object, const VersionId& version,
                               DoneCallback done) {
  Result<const DfmDescriptor*> descriptor = Descriptor(version);
  if (!descriptor.ok()) {
    done(descriptor.status());
    return;
  }
  object->EvolveTo(**descriptor, Dcdo::RemovalPolicy::Error(),
                   std::move(done), policy_->enforce_marks_on_evolve());
}

void DcdoManager::CreateInstance(sim::SimHost* host, CreateCallback done) {
  if (!current_version_.valid()) {
    done(FailedPreconditionError("no current version designated for " +
                                 type_name_));
    return;
  }
  CreateInstanceAt(current_version_, host, std::move(done));
}

void DcdoManager::CreateInstanceAt(const VersionId& version,
                                   sim::SimHost* host, CreateCallback done) {
  Status instantiable = CheckInstantiable(version);
  if (!instantiable.ok()) {
    done(instantiable);
    return;
  }
  runtime::FomScheduler::For(home_.simulation())
      .Launch<CreateInstanceFom>(this, version, host, std::move(done));
}

void DcdoManager::EvolveInstanceTo(const ObjectId& instance,
                                   const VersionId& version,
                                   DoneCallback done) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance.ToString() + " of " +
                       type_name_));
    return;
  }
  Status instantiable = CheckInstantiable(version);
  if (!instantiable.ok()) {
    done(instantiable);
    return;
  }
  Status allowed = policy_->CheckEvolution(it->second.object->version(),
                                           version, current_version_);
  if (!allowed.ok()) {
    done(allowed);
    return;
  }
  // The evolution request is itself a (small) remote call to the instance:
  // charge one control-message round.
  home_.simulation().AdvanceInline(home_.cost_model().MessageTime(
      rpc::kHeaderBytes + 64 * it->second.object->mapper().state().entry_count()));
  runtime::FomScheduler::For(home_.simulation())
      .Launch<EvolveInstanceFom>(this, instance, it->second.object->version(),
                                 version, std::move(done));
}

void DcdoManager::UpdateInstance(const ObjectId& instance, DoneCallback done) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance.ToString()));
    return;
  }
  if (!current_version_.valid()) {
    done(FailedPreconditionError("no current version designated"));
    return;
  }
  const VersionId& from = it->second.object->version();
  if (from == current_version_) {
    done(Status::Ok());
    return;
  }
  if (!policy_->AutoUpdateAllowed(from, current_version_)) {
    done(NotDerivedVersionError("policy " + std::string(policy_->name()) +
                                " does not auto-update " + from.ToString() +
                                " to " + current_version_.ToString()));
    return;
  }
  EvolveInstanceTo(instance, current_version_, std::move(done));
}

void DcdoManager::MigrateInstance(const ObjectId& instance,
                                  sim::SimHost* dest, DoneCallback done) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance.ToString()));
    return;
  }
  // Every incorporated component must be mappable on the destination before
  // we commit to moving.
  for (const ComponentRecord& meta :
       it->second.object->mapper().state().components()) {
    if (!meta->type.CompatibleWith(dest->architecture())) {
      done(ArchMismatchError("component " + meta->name +
                             " has no build for the destination host"));
      return;
    }
  }

  runtime::FomScheduler::For(home_.simulation())
      .Launch<MigrateInstanceFom>(this, instance, dest, std::move(done));
}

void DcdoManager::PrefetchInstanceVersion(const ObjectId& instance,
                                          const VersionId& version) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) return;
  Result<const DfmDescriptor*> descriptor = Descriptor(version);
  if (!descriptor.ok() || !(*descriptor)->instantiable()) return;
  Dcdo* object = it->second.object.get();
  // Only the components the evolution would have to fetch; images already
  // incorporated or cached cost nothing either way.
  EvolutionPlan plan =
      ComputePlan(object->mapper().state(), (*descriptor)->state());
  if (plan.incorporate.empty()) return;
  fetcher_.Prefetch(&object->host(), std::move(plan.incorporate));
}

void DcdoManager::DeactivateInstance(const ObjectId& instance,
                                     DoneCallback done) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance.ToString()));
    return;
  }
  Dcdo* object = it->second.object.get();
  if (!object->active()) {
    done(Status::Ok());
    return;
  }
  if (object->mapper().TotalActive() > 0) {
    done(ActiveThreadsError("instance " + instance.ToString() +
                            " has executing threads"));
    return;
  }
  runtime::FomScheduler::For(home_.simulation())
      .Launch<DeactivateInstanceFom>(this, instance, std::move(done));
}

void DcdoManager::ReactivateInstance(const ObjectId& instance,
                                     DoneCallback done) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance.ToString()));
    return;
  }
  if (it->second.object->active()) {
    done(Status::Ok());
    return;
  }
  runtime::FomScheduler::For(home_.simulation())
      .Launch<ReactivateInstanceFom>(this, instance, std::move(done));
}

Status DcdoManager::DestroyInstance(const ObjectId& instance) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    return NotFoundError("no instance " + instance.ToString());
  }
  instances_.erase(it);
  if (names_ != nullptr) (void)names_->Unbind(InstanceName(instance));
  return Status::Ok();
}

void DcdoManager::InstallLazyHook(const ObjectId& instance) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) return;
  Dcdo* object = it->second.object.get();
  object->SetPreCallHook([this, instance]() { LazyCheck(instance); });
}

void DcdoManager::LazyCheck(const ObjectId& instance) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) return;
  InstanceRecord& record = it->second;
  Dcdo* object = record.object.get();

  LazyCheckContext ctx;
  ctx.calls_since_check = object->user_calls() - record.calls_at_last_check;
  ctx.since_check = home_.simulation().Now() - record.last_check;
  if (!policy_->ShouldLazyCheck(ctx)) return;

  ++lazy_checks_;
  record.calls_at_last_check = object->user_calls();
  record.last_check = home_.simulation().Now();
  // Consulting the manager is a control-message round trip.
  home_.simulation().AdvanceInline(
      home_.cost_model().MessageTime(rpc::kHeaderBytes));

  if (!current_version_.valid() || object->version() == current_version_) {
    return;
  }
  if (!policy_->AutoUpdateAllowed(object->version(), current_version_)) {
    return;
  }
  ++lazy_updates_;
  EvolveInstanceTo(instance, current_version_, [](Status status) {
    if (!status.ok()) {
      DCDO_LOG(kWarning) << "lazy update failed: " << status.ToString();
    }
  });
}

Dcdo* DcdoManager::FindInstance(const ObjectId& instance) {
  auto it = instances_.find(instance);
  return it == instances_.end() ? nullptr : it->second.object.get();
}

Result<VersionId> DcdoManager::InstanceVersion(const ObjectId& instance) const {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    return NotFoundError("no instance " + instance.ToString());
  }
  return it->second.object->version();
}

std::vector<DcdoManager::TableEntry> DcdoManager::Table() const {
  std::vector<TableEntry> out;
  out.reserve(instances_.size());
  for (const auto& [instance_id, record] : instances_) {
    TableEntry entry;
    entry.id = instance_id;
    entry.version = record.object->version();
    entry.node = record.object->address().node;
    entry.architecture = record.object->host().architecture();
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace dcdo
