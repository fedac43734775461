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
  for (auto& [instance_id, instance] : instances_) {
    if (instance.active) {
      transport_.UnregisterEndpoint(instance.host->node(), instance.pid);
      (void)instance.host->KillProcess(instance.pid);
      agent_.Unbind(instance_id);
    }
  }
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
                                         DoneCallback done) {
  const std::string file = ExecutableFileName(executable_index);
  if (host->HasFile(file)) {
    done(Status::Ok());
    return;
  }
  // Single-flight: a download of this file to this host already under way
  // answers this request too.
  std::vector<DoneCallback>& waiters = downloads_[{host->node(), file}];
  waiters.push_back(std::move(done));
  if (waiters.size() > 1) return;
  std::size_t bytes = executables_[executable_index].bytes;
  DCDO_LOG(kDebug) << class_name_ << ": downloading " << file << " ("
                   << bytes << "B) to node " << host->node();
  home_.network().BulkTransfer(
      home_.node(), host->node(), bytes,
      [this, host, file, bytes](bool delivered) {
        auto it = downloads_.find({host->node(), file});
        std::vector<DoneCallback> landed = std::move(it->second);
        downloads_.erase(it);
        Status status = Status::Ok();
        if (delivered) {
          host->StoreFile(file, bytes);
        } else {
          status = UnavailableError("executable '" + file +
                                    "' download to node " +
                                    std::to_string(host->node()) + " failed");
        }
        for (DoneCallback& waiter : landed) waiter(status);
      });
}

void ClassObject::RegisterEndpoint(const ObjectId& instance_id) {
  Instance& instance = instances_.at(instance_id);
  std::size_t executable_index = instance.executable_index;
  transport_.RegisterEndpoint(
      instance.host->node(), instance.pid, instance.epoch,
      [this, instance_id, executable_index](
          const rpc::MethodInvocation& invocation, rpc::ReplyFn reply) {
        auto it = instances_.find(instance_id);
        if (it == instances_.end()) {
          reply(rpc::MethodResult::Error(
              UnavailableError("instance destroyed")));
          return;
        }
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
            (**method)(it->second.state, invocation.args());
        if (result.ok()) {
          reply(rpc::MethodResult::Ok(std::move(result).value()));
        } else {
          reply(rpc::MethodResult::Error(result.status()));
        }
      });
}

void ClassObject::ActivateInstance(const ObjectId& instance_id,
                                   sim::SimHost* host,
                                   std::size_t executable_index,
                                   DoneCallback done) {
  if (!host->up()) {
    done(UnavailableError("node " + std::to_string(host->node()) +
                          " is down"));
    return;
  }
  std::size_t exec_bytes = executables_[executable_index].bytes;
  host->SpawnProcess(
      instance_id, exec_bytes,
      [this, instance_id, host, executable_index,
       done = std::move(done)](Result<sim::ProcessId> spawned) {
        if (!spawned.ok()) {
          done(spawned.status());
          return;
        }
        const sim::ProcessId pid = *spawned;
        // A destroy while the process spawned wins: nothing brings the
        // instance back.
        auto it = instances_.find(instance_id);
        if (it == instances_.end()) {
          (void)host->KillProcess(pid);
          done(NotFoundError("instance " + instance_id.ToString() +
                             " destroyed during activation"));
          return;
        }
        Instance& instance = it->second;
        instance.host = host;
        instance.pid = pid;
        instance.epoch = next_epoch_++;
        instance.executable_index = executable_index;
        instance.active = true;
        RegisterEndpoint(instance_id);
        agent_.Bind(instance_id,
                    ObjectAddress{host->node(), pid, instance.epoch});
        // Activation handshake with the class object completes creation.
        sim::Simulation& simulation = home_.simulation();
        simulation.Schedule(home_.cost_model().activation_handshake,
                            [done = std::move(done)]() { done(Status::Ok()); });
      });
}

void ClassObject::RestoreInstance(const ObjectId& instance_id,
                                  sim::SimHost* host,
                                  std::size_t executable_index,
                                  std::size_t state_bytes, Status outcome,
                                  DoneCallback done) {
  ActivateInstance(
      instance_id, host, executable_index,
      [this, state_bytes, outcome = std::move(outcome),
       done = std::move(done)](Status status) mutable {
        // A down host leaves the instance deactivated; the earlier failure,
        // if any, is the one reported.
        if (!status.ok()) {
          done(outcome.ok() ? std::move(status) : std::move(outcome));
          return;
        }
        home_.simulation().Schedule(
            home_.cost_model().StateRestore(state_bytes),
            [outcome = std::move(outcome), done = std::move(done)]() {
              done(outcome);
            });
      });
}

void ClassObject::CreateInstance(sim::SimHost* host,
                                 std::size_t initial_state_bytes,
                                 CreateCallback done) {
  ObjectId instance_id = ObjectId::Next(domains::kInstance);
  Instance& instance = instances_[instance_id];
  instance.state.logical_size = initial_state_bytes;
  std::size_t executable_index = current_executable_;
  EnsureExecutableOnHost(
      host, executable_index,
      [this, instance_id, host, executable_index,
       done = std::move(done)](Status status) {
        if (!status.ok()) {
          instances_.erase(instance_id);
          done(status);
          return;
        }
        ActivateInstance(
            instance_id, host, executable_index,
            [this, instance_id, done = std::move(done)](Status status) {
              if (!status.ok()) {
                instances_.erase(instance_id);
                done(status);
                return;
              }
              done(instance_id);
            });
      });
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
  MoveInstance(instance_id, it->second.host, executable_index,
               std::move(done));
}

void ClassObject::MigrateInstance(const ObjectId& instance_id,
                                  sim::SimHost* dest, DoneCallback done) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) {
    done(NotFoundError("no instance " + instance_id.ToString()));
    return;
  }
  MoveInstance(instance_id, dest, it->second.executable_index,
               std::move(done));
}

void ClassObject::MoveInstance(const ObjectId& instance_id, sim::SimHost* dest,
                               std::size_t executable_index,
                               DoneCallback done) {
  const Instance& instance = instances_.at(instance_id);
  Move move{.instance = instance_id,
            .source = instance.host,
            .dest = dest,
            .new_executable = executable_index,
            .state_bytes = instance.state.CaptureSize()};
  // 1. Capture the object's state.
  home_.simulation().Schedule(
      home_.cost_model().StateCapture(move.state_bytes),
      [this, move, done = std::move(done)]() mutable {
        auto it = instances_.find(move.instance);
        if (it == instances_.end()) {
          done(NotFoundError("instance " + move.instance.ToString() +
                             " destroyed during its move"));
          return;
        }
        // 2. Deactivate the old process. The binding agent keeps no entry
        //    for the object until reactivation; clients' cached bindings
        //    are stale.
        Instance& instance = it->second;
        move.old_executable = instance.executable_index;
        transport_.UnregisterEndpoint(instance.host->node(), instance.pid);
        (void)instance.host->KillProcess(instance.pid);
        instance.active = false;
        agent_.Unbind(move.instance);
        DCDO_LOG(kDebug) << class_name_ << ": instance " << move.instance
                         << " deactivated to move to node "
                         << move.dest->node();
        if (move.dest == move.source) {
          InstallAndRestore(move, std::move(done));
          return;
        }
        // 3. Transfer the state to the new host. A failed transfer brings
        //    the instance back up at its source.
        move.source->network().BulkTransfer(
            move.source->node(), move.dest->node(), move.state_bytes,
            [this, move, done = std::move(done)](bool delivered) mutable {
              if (!delivered) {
                RestoreInstance(
                    move.instance, move.source, move.old_executable,
                    move.state_bytes,
                    UnavailableError("state transfer of " +
                                     move.instance.ToString() + " to node " +
                                     std::to_string(move.dest->node()) +
                                     " failed"),
                    std::move(done));
                return;
              }
              InstallAndRestore(move, std::move(done));
            });
      });
}

void ClassObject::InstallAndRestore(const Move& move, DoneCallback done) {
  // 4. Put the executable on the destination (unless present), then spawn
  //    it and read the captured state back in — or, when the download
  //    failed, bring the old executable back up at the source.
  EnsureExecutableOnHost(
      move.dest, move.new_executable,
      [this, move, done = std::move(done)](Status status) mutable {
        const bool landed = status.ok();
        RestoreInstance(move.instance, landed ? move.dest : move.source,
                        landed ? move.new_executable : move.old_executable,
                        move.state_bytes, std::move(status), std::move(done));
      });
}

Status ClassObject::DestroyInstance(const ObjectId& instance_id) {
  auto it = instances_.find(instance_id);
  if (it == instances_.end()) {
    return NotFoundError("no instance " + instance_id.ToString());
  }
  Instance& instance = it->second;
  if (instance.active) {
    transport_.UnregisterEndpoint(instance.host->node(), instance.pid);
    (void)instance.host->KillProcess(instance.pid);
    agent_.Unbind(instance_id);
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
  return it->second.host->node();
}

}  // namespace dcdo
