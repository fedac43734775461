#include "runtime/class_object.h"

#include "common/logging.h"

namespace dcdo {

ClassObject::ClassObject(std::string class_name, sim::SimHost* home,
                         rpc::RpcTransport* transport, BindingAgent* agent)
    : class_name_(std::move(class_name)),
      id_(ObjectId::Next(domains::kClassObject)),
      home_(*home),
      transport_(*transport),
      agent_(*agent) {
  pid_ = home_.AdoptProcess(id_);
  agent_.Bind(id_, ObjectAddress{home_.node(), pid_, /*epoch=*/1});
}

ClassObject::~ClassObject() {
  instances_.clear();  // each instance's activation closes with it
  agent_.Unbind(id_);
  (void)home_.KillProcess(pid_);
}

std::size_t ClassObject::AddExecutable(Executable executable) {
  executables_.push_back(std::move(executable));
  std::size_t index = executables_.size() - 1;
  // The class object's home host holds the master copy of every executable.
  home_.StoreFile(ExecutableFileName(index), executables_[index].bytes);
  return index;
}

Status ClassObject::SetCurrentExecutable(std::size_t index) {
  if (index >= executables_.size()) {
    return OutOfRangeError("no executable " + std::to_string(index) +
                           " in class " + class_name_);
  }
  current_executable_ = index;
  return Status::Ok();
}

std::string ClassObject::ExecutableFileName(std::size_t index) const {
  return "exec/" + class_name_ + "/" + executables_[index].name;
}

void ClassObject::EnsureExecutableOnHost(sim::SimHost* host,
                                         std::size_t executable_index,
                                         runtime::Waker done) {
  const std::string file = ExecutableFileName(executable_index);
  if (host->HasFile(file)) {
    done(Status::Ok());
    return;
  }
  // Single-flight: a download of this file to this host already under way
  // answers this request too.
  std::shared_ptr<Download>& download = downloads_[{host->node(), file}];
  if (download != nullptr && !download->landed) {
    download->waiters.push_back(done);
    return;
  }
  download = std::make_shared<Download>();
  download->waiters.push_back(done);
  std::size_t bytes = executables_[executable_index].bytes;
  DCDO_LOG(kDebug) << class_name_ << ": downloading " << file << " ("
                   << bytes << "B) to node " << host->node();
  home_.network().BulkTransfer(
      home_.node(), host->node(), bytes,
      [download, host, file, bytes](bool delivered) {
        download->landed = true;
        Status status = Status::Ok();
        if (delivered) {
          host->StoreFile(file, bytes);
        } else {
          status = UnavailableError("executable '" + file +
                                    "' download to node " +
                                    std::to_string(host->node()) + " failed");
        }
        for (const runtime::Waker& waiter : download->waiters) waiter(status);
      });
}

void ClassObject::Activate(Instance& instance, sim::SimHost* host,
                           sim::ProcessId pid, std::size_t executable_index) {
  instance.executable_index = executable_index;
  // The endpoint lives no longer than the instance whose activation it is.
  instance.activation.Open(
      host, next_epoch_++,
      [this, &instance, executable_index](
          const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        const MethodTable& methods = executables_[executable_index].methods;
        // By-id wire form: index the FunctionId-keyed table directly, no
        // string hashing; by-name covers first contact and never-interned
        // methods.
        FunctionId id = invocation.ResolvedId();
        Result<const MethodFn*> method =
            id.valid() ? methods.Find(id)
                       : methods.Find(invocation.method_name());
        if (!method.ok()) {
          reply(rpc::MethodResult::Error(method.status()));
          return;
        }
        Result<ByteBuffer> result =
            (**method)(instance.state, invocation.args());
        if (result.ok()) {
          reply(rpc::MethodResult::Ok(std::move(result).value()));
        } else {
          reply(rpc::MethodResult::Error(result.status()));
        }
      },
      pid);
}

namespace {
using runtime::FomStatus;
using runtime::WakeSource;
}  // namespace

// One create or move of one instance. A create runs download, spawn and
// handshake; a move runs capture (then deactivates), transfer (only when
// the host changes), the same three, and restore; on a failed transfer or
// download it spawns the old executable at the source instead.
class ClassObject::InstanceFom final : public runtime::OwnedFom<ClassObject> {
 public:
  enum Phase { kCapture, kTransfer, kDownload, kSpawn, kHandshake, kRestore };

  // `source` is null for a create.
  InstanceFom(ClassObject* owner, ObjectId instance, sim::SimHost* source,
              sim::SimHost* dest, std::size_t executable,
              std::size_t state_bytes, ClassObject::CreateCallback done)
      : OwnedFom(source == nullptr ? "class.create_instance"
                                   : "class.move_instance",
                 owner, owner->ops_),
        instance_(instance),
        source_(source),
        dest_(dest),
        executable_(executable),
        state_bytes_(state_bytes),
        done_(std::move(done)) {}

  FomStatus Tick() override {
    ClassObject* owner = this->owner();
    if (phase() >= 0 && owner == nullptr) {
      // A process that spawned for a destroyed class object dies at once.
      if (phase() == kSpawn && wake_status().ok()) {
        (void)host_->KillProcess(wake_value());
      }
      return Finish(Gone());
    }
    switch (phase()) {
      default:
        if (source_ == nullptr) return Download();
        EnterPhase(kCapture, "capture");
        scheduler().ArmTimer(
            *this, owner->home_.cost_model().StateCapture(state_bytes_));
        return WaitOn(WakeSource::kTimer);
      case kCapture: {
        auto it = owner->instances_.find(instance_);
        if (it == owner->instances_.end()) {
          return Finish(NotFoundError("instance " + instance_.ToString() +
                                      " destroyed during its move"));
        }
        // Close the old activation. The binding agent keeps no entry for
        // the object until reactivation; clients' cached bindings are stale.
        old_executable_ = it->second.executable_index;
        it->second.activation.Close();
        DCDO_LOG(kDebug) << owner->class_name_ << ": instance " << instance_
                         << " deactivated to move to node " << dest_->node();
        if (dest_ == source_) return Download();
        EnterPhase(kTransfer, "transfer");
        source_->network().BulkTransfer(source_->node(), dest_->node(),
                                        state_bytes_,
                                        WakeFn(WakeSource::kChild));
        return WaitOn(WakeSource::kChild);
      }
      case kTransfer:
        if (wake_value() != 0) return Download();
        return Restore(UnavailableError("state transfer of " +
                                        instance_.ToString() + " to node " +
                                        std::to_string(dest_->node()) +
                                        " failed"));
      case kDownload:
        if (wake_status().ok()) return Spawn(dest_, executable_);
        if (source_ == nullptr) return Failed(wake_status());
        return Restore(wake_status());
      case kSpawn: {
        if (!wake_status().ok()) return Failed(wake_status());
        const sim::ProcessId pid = wake_value();
        // A destroy while the process spawned wins: nothing brings the
        // instance back.
        auto it = owner->instances_.find(instance_);
        if (it == owner->instances_.end()) {
          (void)host_->KillProcess(pid);
          return Failed(NotFoundError("instance " + instance_.ToString() +
                                      " destroyed during activation"));
        }
        owner->Activate(it->second, host_, pid, executable_);
        // The activation handshake with the class object completes it.
        EnterPhase(kHandshake, "handshake");
        scheduler().ArmTimer(*this,
                             owner->home_.cost_model().activation_handshake);
        return WaitOn(WakeSource::kTimer);
      }
      case kHandshake:
        if (source_ == nullptr) return Finish(Status::Ok());
        EnterPhase(kRestore, "restore");
        scheduler().ArmTimer(
            *this, owner->home_.cost_model().StateRestore(state_bytes_));
        return WaitOn(WakeSource::kTimer);
      case kRestore:
        return Finish(outcome_);
    }
  }

 private:
  // Puts the executable on dest_ (unless it is there already).
  FomStatus Download() {
    EnterPhase(kDownload, "download");
    owner()->EnsureExecutableOnHost(dest_, executable_,
                                    WakeFn(WakeSource::kChild));
    return WaitOn(WakeSource::kChild);
  }

  // Spawns the instance's process on `host`, to bind it and shake hands.
  FomStatus Spawn(sim::SimHost* host, std::size_t executable) {
    host_ = host;
    executable_ = executable;
    EnterPhase(kSpawn, "spawn");
    if (!host->up()) {
      return Failed(UnavailableError("node " + std::to_string(host->node()) +
                                     " is down"));
    }
    host->SpawnProcess(instance_, owner()->executables_[executable].bytes,
                       WakeFn(WakeSource::kChild));
    return WaitOn(WakeSource::kChild);
  }

  FomStatus Restore(Status failure) {  // the old executable, at the source
    outcome_ = std::move(failure);
    return Spawn(source_, old_executable_);
  }

  // The activation failed: a create leaves no instance behind; a move
  // leaves it deactivated and reports its first failure.
  FomStatus Failed(Status status) {
    if (source_ == nullptr) owner()->instances_.erase(instance_);
    return Finish(outcome_.ok() ? std::move(status) : outcome_);
  }

  FomStatus Finish(Status status) {
    done_(status.ok() ? Result<ObjectId>(instance_) : std::move(status));
    return FomStatus::kDone;
  }

  ObjectId instance_;
  sim::SimHost* source_;          // a move's host before it; null: a create
  sim::SimHost* dest_;            // where the operation puts the instance
  sim::SimHost* host_ = nullptr;  // where the process spawns
  std::size_t executable_;        // what it runs there
  std::size_t old_executable_ = 0;  // read as a move deactivates
  std::size_t state_bytes_;         // captured state a move carries
  Status outcome_;                  // a move's first failure
  ClassObject::CreateCallback done_;
};

void ClassObject::CreateInstance(sim::SimHost* host,
                                 std::size_t initial_state_bytes,
                                 CreateCallback done) {
  ObjectId instance_id = ObjectId::Next(domains::kInstance);
  instances_.try_emplace(instance_id, instance_id, *this)
      .first->second.state.logical_size = initial_state_bytes;
  runtime::FomScheduler::For(home_.simulation())
      .Launch<InstanceFom>(this, instance_id, nullptr, host,
                           current_executable_, 0, std::move(done));
}

void ClassObject::EvolveInstance(const ObjectId& instance_id,
                                 std::size_t executable_index,
                                 DoneCallback done) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance_id.ToString()));
    return;
  }
  if (executable_index >= executables_.size()) {
    done(OutOfRangeError("no executable " + std::to_string(executable_index)));
    return;
  }
  sim::SimHost* host = it->second.activation.host();
  runtime::FomScheduler::For(home_.simulation())
      .Launch<InstanceFom>(
          this, instance_id, host, host, executable_index,
          it->second.state.CaptureSize(),
          [done = std::move(done)](Result<ObjectId> r) { done(r.status()); });
}

void ClassObject::MigrateInstance(const ObjectId& instance_id,
                                  sim::SimHost* dest, DoneCallback done) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance_id.ToString()));
    return;
  }
  runtime::FomScheduler::For(home_.simulation())
      .Launch<InstanceFom>(
          this, instance_id, it->second.activation.host(), dest,
          it->second.executable_index, it->second.state.CaptureSize(),
          [done = std::move(done)](Result<ObjectId> r) { done(r.status()); });
}

Status ClassObject::DestroyInstance(const ObjectId& instance_id) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) {
    return NotFoundError("no instance " + instance_id.ToString());
  }
  instances_.erase(it);
  return Status::Ok();
}

Result<std::size_t> ClassObject::InstanceExecutable(
    const ObjectId& instance) const {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    return NotFoundError("no instance " + instance.ToString());
  }
  return it->second.executable_index;
}

Result<sim::NodeId> ClassObject::InstanceNode(const ObjectId& instance) const {
  auto it = instances_.find(instance);
  if (it == instances_.end()) {
    return NotFoundError("no instance " + instance.ToString());
  }
  return it->second.activation.address().node;
}

}  // namespace dcdo
