// ClassObject: Legion's per-type manager for normal (monolithic) objects.
//
// In Legion every object belongs to a class object that creates, locates,
// migrates, and (expensively) evolves its instances. This is the baseline
// the paper measures DCDOs against. Evolving a monolithic instance runs the
// full traditional pipeline the paper enumerates in Section 4:
//
//   capture the object's state
//   -> close its rpc::Activation: endpoint, process, binding (the address
//      silently dies; clients' bindings stay stale until they time out)
//   -> download the new executable to the host, unless already present
//   -> spawn a new process, load the executable and open the activation
//      there at the class's next epoch (bind, then register the endpoint)
//   -> restore the captured state into the new process.
//
// Each create, evolve and migrate is one Fom (runtime/fom.h); destroying the
// class object mid-operation ends it kNotFound, once, leaving no trace.
//
// With the calibrated cost model, evolving a 5.1 MB object this way costs
// tens of seconds — the number the DCDO mechanism's sub-second evolution is
// compared against.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "naming/binding_agent.h"
#include "rpc/activation.h"
#include "runtime/fom.h"
#include "runtime/method_table.h"
#include "sim/host.h"

namespace dcdo {

// A versioned monolithic executable: the unit a normal object's behaviour
// is frozen into.
struct Executable {
  std::string name;        // e.g. "server-v2"
  std::size_t bytes = 0;   // image size (drives download cost)
  MethodTable methods;     // behaviour compiled into this executable
};

class ClassObject {
 public:
  // `home` is where the class object runs and where executables are stored;
  // instances download executables from here.
  ClassObject(std::string class_name, sim::SimHost* home,
              rpc::RpcTransport* transport, BindingAgent* agent);
  ~ClassObject();

  ClassObject(const ClassObject&) = delete;
  ClassObject& operator=(const ClassObject&) = delete;

  const std::string& class_name() const { return class_name_; }
  const ObjectId& id() const { return id_; }

  // Registers an executable version; the first registered one becomes
  // current. Returns its index.
  std::size_t AddExecutable(Executable executable);
  [[nodiscard]] Status SetCurrentExecutable(std::size_t index);
  const Executable& current_executable() const {
    return executables_[current_executable_];
  }

  // --- Instance lifecycle (all asynchronous, completing in sim time) ---

  using CreateCallback = std::function<void(Result<ObjectId>)>;
  using DoneCallback = std::function<void(Status)>;

  // Creates an instance on `host` running the current executable, with
  // `initial_state_bytes` of application state. Pays executable download
  // (if absent on the host), process spawn + load, and the activation
  // handshake with the class object.
  void CreateInstance(sim::SimHost* host, std::size_t initial_state_bytes,
                      CreateCallback done);

  // Evolution and migration are one move (the pipeline above, with a state
  // transfer when the host changes). The instance's address changes; client
  // binding caches are NOT updated (that is the point). When the transfer
  // or the download fails, the instance is reactivated where it was (host,
  // old executable, captured state) before `done` reports the failure; when
  // that host is down too, it stays deactivated.

  // Moves `instance` to the executable at `executable_index`, on its host.
  void EvolveInstance(const ObjectId& instance, std::size_t executable_index,
                      DoneCallback done);

  // Moves `instance` to `dest`, running the executable it runs now.
  void MigrateInstance(const ObjectId& instance, sim::SimHost* dest,
                       DoneCallback done);

  // Forgets the instance; its activation closes with it.
  [[nodiscard]] Status DestroyInstance(const ObjectId& instance);

  // --- Introspection ---
  std::size_t instance_count() const { return instances_.size(); }
  bool HasInstance(const ObjectId& instance) const {
    return instances_.contains(instance);
  }
  [[nodiscard]] Result<std::size_t> InstanceExecutable(const ObjectId& instance) const;
  [[nodiscard]] Result<sim::NodeId> InstanceNode(const ObjectId& instance) const;

 private:
  class InstanceFom;  // class_object.cc: each create, evolve and migrate

  // A move closes the activation at capture and reopens it once it spawns.
  struct Instance {
    Instance(const ObjectId& id, ClassObject& owner)
        : activation(id, &owner.transport_, &owner.agent_) {}
    rpc::Activation activation;
    std::size_t executable_index = 0;
    InstanceState state;
  };

  // One executable download, shared with its transfer, which stores the
  // file and wakes every waiter without reading the class object.
  struct Download {
    std::vector<runtime::Waker> waiters;
    bool landed = false;
  };

  // Ensures `executable` is in `host`'s file store; `done` wakes when it is.
  // Overlapping requests for one file on one host share one download.
  void EnsureExecutableOnHost(sim::SimHost* host, std::size_t executable_index,
                              runtime::Waker done);
  // Opens `instance` in `pid`, spawned on `host`, at the class's next epoch.
  void Activate(Instance& instance, sim::SimHost* host, sim::ProcessId pid,
                std::size_t executable_index);
  std::string ExecutableFileName(std::size_t index) const;

  std::string class_name_;
  ObjectId id_;
  sim::SimHost& home_;
  rpc::RpcTransport& transport_;
  BindingAgent& agent_;
  sim::ProcessId pid_ = 0;
  std::vector<Executable> executables_;
  std::size_t current_executable_ = 0;
  std::map<ObjectId, Instance> instances_;
  std::uint64_t next_epoch_ = 1;
  // The latest executable download, by (host, file).
  std::map<std::pair<sim::NodeId, std::string>, std::shared_ptr<Download>>
      downloads_;
  runtime::FomOwner ops_;  // operations in flight; destruction cuts them off
};

}  // namespace dcdo
