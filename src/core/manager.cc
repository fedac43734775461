#include "core/manager.h"

#include "common/logging.h"
#include "common/serialize.h"
#include "dfm/descriptor_wire.h"
#include "runtime/fom.h"

namespace dcdo {

// ===== Instance-operation Foms (DESIGN.md §16) =====
//
// CreateInstanceAt and MigrateInstance used to be four-to-five-deep nested
// lambda chains, each hop copying the tail of the chain into a fresh heap
// closure. Each operation is now one pooled Fom; the spawn / transfer /
// fetch / timer completions are 16-byte {scheduler, id} trampolines. Both
// classes are befriended by DcdoManager — they drive its instance table the
// way the lambdas did.

// Spawn shell -> construct Dcdo -> apply version -> bind name -> activation
// handshake.
class CreateInstanceFom final : public runtime::Fom {
 public:
  enum Phase { kSpawn, kApply, kHandshake };

  CreateInstanceFom(DcdoManager* manager, VersionId version,
                    sim::SimHost* host, DcdoManager::CreateCallback done)
      : Fom("mgr.create_instance"),
        manager_(manager),
        version_(std::move(version)),
        host_(host),
        done_(std::move(done)) {}

  runtime::FomStatus Tick() override {
    using runtime::FomStatus;
    using runtime::WakeSource;
    DcdoManager* mgr = manager_;
    switch (phase()) {
      default: {
        // Spawn the shell process (the DCDO runtime without any
        // components)...
        EnterPhase(kSpawn, "spawn");
        runtime::FomScheduler* scheduler = &this->scheduler();
        const std::uint64_t id = this->id();
        host_->SpawnProcess(
            mgr->id_, DcdoManager::kShellExecutableBytes,
            [scheduler, id](Result<sim::ProcessId> shell_pid) {
              if (shell_pid.ok()) {
                scheduler->WakeValue(id, WakeSource::kChild, *shell_pid);
              } else {
                scheduler->WakeStatus(id, WakeSource::kChild,
                                      shell_pid.status());
              }
            });
        return WaitOn(WakeSource::kChild);
      }
      case kSpawn: {
        // A host that went down during the spawn leaves nothing to undo:
        // the instance is made only once its shell runs.
        if (!wake_status().ok()) {
          done_(wake_status());
          return FomStatus::kDone;
        }
        // The Dcdo object adopts its own process entry; retire the shell's.
        (void)host_->KillProcess(static_cast<sim::ProcessId>(wake_value()));
        auto object = std::make_unique<Dcdo>(
            mgr->type_name_ + "#" +
                std::to_string(mgr->instances_.size() + 1),
            host_, &mgr->transport_, &mgr->agent_, &mgr->registry_,
            &mgr->icos_, VersionId{}, &mgr->fetcher_);
        Dcdo* raw = object.get();
        instance_id_ = raw->id();
        DcdoManager::InstanceRecord& record = mgr->instances_[instance_id_];
        record.object = std::move(object);
        record.last_check = mgr->home_.simulation().Now();
        mgr->InstallLazyHook(instance_id_);
        // ...then bring it to the requested version (acquires every
        // component of the version's descriptor and commits its table).
        EnterPhase(kApply, "apply");
        runtime::FomScheduler* scheduler = &this->scheduler();
        const std::uint64_t id = this->id();
        mgr->ApplyVersion(raw, version_, [scheduler, id](Status status) {
          scheduler->WakeStatus(id, WakeSource::kChild, std::move(status));
        });
        return WaitOn(WakeSource::kChild);
      }
      case kApply: {
        Status status = wake_status();
        if (!status.ok()) {
          mgr->instances_.erase(instance_id_);
          done_(status);
          return FomStatus::kDone;
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
      }
      case kHandshake:
        // A destroy during the handshake wins.
        if (!mgr->instances_.contains(instance_id_)) {
          done_(NotFoundError("instance destroyed during creation"));
          return FomStatus::kDone;
        }
        done_(instance_id_);
        return FomStatus::kDone;
    }
  }

 private:
  DcdoManager* manager_;
  VersionId version_;
  sim::SimHost* host_;
  DcdoManager::CreateCallback done_;
  ObjectId instance_id_;
};

// Capture state -> bulk-transfer it -> fetch missing images at dest ->
// rebind + remap -> restore state -> optional lazy update check. The
// instance can be destroyed while any wait is pending, so every phase that
// touches it re-looks it up first, exactly as the lambda chain did.
class MigrateInstanceFom final : public runtime::Fom {
 public:
  enum Phase { kCapture, kTransfer, kFetch, kRestore, kLazyUpdate };

  MigrateInstanceFom(DcdoManager* manager, ObjectId instance,
                     sim::SimHost* source, sim::SimHost* dest,
                     std::size_t state_bytes, DcdoManager::DoneCallback done)
      : Fom("mgr.migrate_instance"),
        manager_(manager),
        instance_(instance),
        source_(source),
        dest_(dest),
        state_bytes_(state_bytes),
        done_(std::move(done)) {}

  runtime::FomStatus Tick() override {
    using runtime::FomStatus;
    using runtime::WakeSource;
    DcdoManager* mgr = manager_;
    switch (phase()) {
      default:
        EnterPhase(kCapture, "capture");
        scheduler().ArmTimer(
            *this, mgr->home_.cost_model().StateCapture(state_bytes_));
        return WaitOn(WakeSource::kTimer);
      case kCapture: {
        if (!mgr->instances_.contains(instance_)) {
          done_(NotFoundError("instance destroyed during migration"));
          return FomStatus::kDone;
        }
        EnterPhase(kTransfer, "transfer");
        runtime::FomScheduler* scheduler = &this->scheduler();
        const std::uint64_t id = this->id();
        source_->network().BulkTransfer(
            source_->node(), dest_->node(), state_bytes_,
            [scheduler, id](bool delivered) {
              scheduler->WakeValue(id, WakeSource::kChild, delivered);
            });
        return WaitOn(WakeSource::kChild);
      }
      case kTransfer: {
        if (wake_value() == 0) {
          // Nothing has moved yet: the instance is rebound only after its
          // state lands, so it keeps serving at its source.
          done_(UnavailableError("state transfer of " + instance_.ToString() +
                                 " to node " +
                                 std::to_string(dest_->node()) + " failed"));
          return FomStatus::kDone;
        }
        auto it = mgr->instances_.find(instance_);
        if (it == mgr->instances_.end()) {
          done_(NotFoundError("instance destroyed during migration"));
          return FomStatus::kDone;
        }
        Dcdo* object = it->second.object.get();
        // Fetch any component images missing from the destination cache
        // (best-effort — a failed fetch is re-pulled lazily after the
        // move), then re-bind and re-map. Cached images charge their map
        // cost here; fetched ones are mapped by RemapForHost below.
        std::span<const ComponentRecord> records =
            object->mapper().state().components();
        EnterPhase(kFetch, "fetch");
        runtime::FomScheduler* scheduler = &this->scheduler();
        const std::uint64_t id = this->id();
        mgr->fetcher_.AcquireAll(
            dest_,
            std::vector<ComponentRecord>(records.begin(), records.end()),
            [mgr, instance = instance_](const ComponentRecord&,
                                        bool was_cached) {
              if (!mgr->instances_.contains(instance)) {
                return NotFoundError("instance destroyed during migration");
              }
              if (was_cached) {
                mgr->home_.simulation().AdvanceInline(
                    mgr->home_.cost_model().component_map_cached);
              }
              return Status::Ok();
            },
            [scheduler, id](Status status) {
              scheduler->WakeStatus(id, WakeSource::kFetch,
                                    std::move(status));
            },
            ComponentFetcher::Options{.fail_fast = false});
        return WaitOn(WakeSource::kFetch);
      }
      case kFetch: {
        Status status = wake_status();
        if (!status.ok()) {
          done_(status);
          return FomStatus::kDone;
        }
        auto it = mgr->instances_.find(instance_);
        if (it == mgr->instances_.end()) {
          done_(NotFoundError("instance destroyed during migration"));
          return FomStatus::kDone;
        }
        Dcdo* object = it->second.object.get();
        object->Rebind(dest_);
        Status remapped = object->RemapForHost();
        if (!remapped.ok()) {
          done_(remapped);
          return FomStatus::kDone;
        }
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
          runtime::FomScheduler* scheduler = &this->scheduler();
          const std::uint64_t id = this->id();
          mgr->UpdateInstance(instance_, [scheduler, id](Status status) {
            scheduler->WakeStatus(id, WakeSource::kChild, std::move(status));
          });
          return WaitOn(WakeSource::kChild);
        }
        done_(Status::Ok());
        return FomStatus::kDone;
      }
      case kLazyUpdate:
        // Failing to update does not fail the migration.
        done_(Status::Ok());
        return FomStatus::kDone;
    }
  }

 private:
  DcdoManager* manager_;
  ObjectId instance_;
  sim::SimHost* source_;
  sim::SimHost* dest_;
  std::size_t state_bytes_;
  DcdoManager::DoneCallback done_;
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
  pid_ = home_.AdoptProcess(id_);
  agent_.Bind(id_, ObjectAddress{home_.node(), pid_, /*epoch=*/1});
  // The manager's exported interface (used by the explicit-update policy,
  // where "other objects call to the manager in order to evolve" instances).
  transport_.RegisterEndpoint(
      home_.node(), pid_, /*epoch=*/1,
      [this](const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        const std::string_view method = invocation.method_name();
        if (method == "mgr.getCurrentVersion") {
          Writer writer;
          writer.WriteVersionId(current_version_);
          reply(rpc::MethodResult::Ok(std::move(writer).Take()));
          return;
        }
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
        if (method == "mgr.getDescriptor") {
          Reader reader(invocation.args());
          Result<VersionId> version = reader.ReadVersionId();
          if (!version.ok()) {
            reply(rpc::MethodResult::Error(version.status()));
            return;
          }
          Result<const DfmDescriptor*> descriptor = Descriptor(*version);
          if (!descriptor.ok()) {
            reply(rpc::MethodResult::Error(descriptor.status()));
            return;
          }
          reply(rpc::MethodResult::Ok(SerializeDescriptor(**descriptor)));
          return;
        }
        if (method == "mgr.getTable") {
          Writer writer;
          std::vector<TableEntry> table = Table();
          writer.WriteU64(table.size());
          for (const TableEntry& entry : table) {
            writer.WriteObjectId(entry.id);
            writer.WriteVersionId(entry.version);
            writer.WriteU32(entry.node);
          }
          reply(rpc::MethodResult::Ok(std::move(writer).Take()));
          return;
        }
        reply(rpc::MethodResult::Error(NotFoundError(
            "manager has no method '" + std::string(method) + "'")));
      });
}

DcdoManager::~DcdoManager() {
  instances_.clear();  // Dcdo destructors unregister endpoints/bindings
  for (auto& ico : published_) icos_.Unregister(ico->id());
  transport_.UnregisterEndpoint(home_.node(), pid_);
  agent_.Unbind(id_);
  (void)home_.KillProcess(pid_);
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
  auto& scheduler = runtime::FomScheduler::For(home_.simulation());
  scheduler.Start(*scheduler.Create<CreateInstanceFom>(this, version, host,
                                                       std::move(done)));
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
  VersionId from = it->second.object->version();
  sim::SimTime started = home_.simulation().Now();
  ApplyVersion(it->second.object.get(), version,
               [this, instance, from, version, started,
                done = std::move(done)](Status status) {
                 EvolutionEvent event;
                 event.instance = instance;
                 event.from = from;
                 event.to = version;
                 event.completed_at = home_.simulation().Now();
                 event.duration = event.completed_at - started;
                 event.status = status;
                 history_.push_back(std::move(event));
                 done(status);
               });
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
  Dcdo* object = it->second.object.get();
  // The Fom holds the source host by pointer: the host outlives the drained
  // simulation even if the instance is destroyed mid-move.
  sim::SimHost* source = &object->host();
  std::size_t state_bytes = object->mutable_state().CaptureSize();

  // Every incorporated component must be mappable on the destination before
  // we commit to moving.
  for (const ComponentRecord& meta : object->mapper().state().components()) {
    if (!meta->type.CompatibleWith(dest->architecture())) {
      done(ArchMismatchError("component " + meta->name +
                             " has no build for the destination host"));
      return;
    }
  }

  auto& scheduler = runtime::FomScheduler::For(home_.simulation());
  scheduler.Start(*scheduler.Create<MigrateInstanceFom>(
      this, instance, source, dest, state_bytes, std::move(done)));
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
  const sim::CostModel& cost = home_.cost_model();
  std::size_t state_bytes = object->mutable_state().CaptureSize();
  // Capture state, write it to the host store, then tear down.
  home_.simulation().Schedule(
      cost.StateCapture(state_bytes) + cost.DiskWrite(state_bytes),
      [this, instance, state_bytes, done = std::move(done)]() {
        auto it = instances_.find(instance);
        if (it == instances_.end()) {
          done(NotFoundError("instance destroyed during deactivation"));
          return;
        }
        Dcdo* object = it->second.object.get();
        object->host().StoreFile("state/" + instance.ToString(), state_bytes);
        object->Deactivate();
        done(Status::Ok());
      });
}

void DcdoManager::ReactivateInstance(const ObjectId& instance,
                                     DoneCallback done) {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance.ToString()));
    return;
  }
  Dcdo* object = it->second.object.get();
  if (object->active()) {
    done(Status::Ok());
    return;
  }
  sim::SimHost& host = object->host();
  host.SpawnProcess(
      instance, kShellExecutableBytes,
      [this, instance, &host,
       done = std::move(done)](Result<sim::ProcessId> shell_pid) {
        // The instance stays deactivated when its host went down.
        if (!shell_pid.ok()) {
          done(shell_pid.status());
          return;
        }
        (void)host.KillProcess(*shell_pid);
        auto it = instances_.find(instance);
        if (it == instances_.end()) {
          done(NotFoundError("instance destroyed during reactivation"));
          return;
        }
        Dcdo* object = it->second.object.get();
        // Re-map each (cached) component, read the state back, re-bind.
        const sim::CostModel& cost = home_.cost_model();
        std::size_t components = object->GetComponents().size();
        std::size_t state_bytes = object->mutable_state().CaptureSize();
        home_.simulation().AdvanceInline(
            cost.component_map_cached *
            static_cast<std::int64_t>(components));
        home_.simulation().Schedule(
            cost.DiskRead(state_bytes) + cost.StateRestore(state_bytes),
            [this, instance, done = std::move(done)]() {
              auto it = instances_.find(instance);
              if (it == instances_.end()) {
                done(NotFoundError("instance destroyed during reactivation"));
                return;
              }
              it->second.object->Reactivate();
              done(Status::Ok());
            });
      });
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
