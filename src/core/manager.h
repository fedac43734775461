// DcdoManager (paper Section 2.4).
//
// "A DCDO Manager is in charge of maintaining implementation components for
// a particular object type, and for evolving the DCDOs that it manages."
// Its two primary data structures are here exactly as the paper defines
// them:
//
//   the DFM store  — DFM descriptors defining the versions of the type, each
//     marked instantiable (frozen; usable for creation/evolution) or
//     configurable (editable; unusable until marked instantiable);
//   the DCDO table — every instance under the manager's control, with its
//     current version and implementation type, consulted when deciding when
//     and how to evolve instances.
//
// The manager also publishes implementation components as ICOs, designates
// the current version (single-version styles), and drives its
// EvolutionPolicy: proactive pushes on designation, explicit updates on
// request, and lazy checks hooked into each instance's call path.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/dcdo.h"
#include "core/evolution_policy.h"
#include "core/ico_directory.h"
#include "naming/name_service.h"

namespace dcdo {

class DcdoManager {
 public:
  using CreateCallback = std::function<void(Result<ObjectId>)>;
  using DoneCallback = std::function<void(Status)>;

  // Size of the generic "DCDO shell" executable every instance process runs
  // (the component-free runtime: DFM, RPC plumbing). Components are loaded
  // into it dynamically.
  static constexpr std::size_t kShellExecutableBytes = 320 * 1024;

  DcdoManager(std::string type_name, sim::SimHost* home,
              rpc::RpcTransport* transport, BindingAgent* agent,
              const NativeCodeRegistry* registry,
              std::unique_ptr<EvolutionPolicy> policy);
  ~DcdoManager();

  DcdoManager(const DcdoManager&) = delete;
  DcdoManager& operator=(const DcdoManager&) = delete;

  const std::string& type_name() const { return type_name_; }
  const ObjectId& id() const { return id_; }
  const EvolutionPolicy& policy() const { return *policy_; }
  const IcoDirectory& icos() const { return icos_; }
  // The manager's acquisition pipeline (shared with every instance it
  // creates, so co-hosted instances single-flight their component fetches).
  const ComponentFetcher& fetcher() const { return fetcher_; }

  // Attaches the system name service: the manager then maintains
  // human-readable names under /types/<type_name>/ — "components/<name>"
  // for every published ICO and "instances/<n>" for every live DCDO.
  // Components published before attachment are bound retroactively.
  [[nodiscard]] Status AttachNameService(NameService* names);

  // ===== Implementation components =====

  // Publishes `meta` as an ICO on the manager's home host; the component
  // becomes fetchable system-wide. Returns the component's global id.
  [[nodiscard]] Result<ObjectId> PublishComponent(ImplementationComponent meta);

  // ===== The DFM store: version management =====

  // Creates the root version "1" (configurable). Fails if versions exist.
  [[nodiscard]] Result<VersionId> CreateRootVersion();

  // Derives a new configurable version from `parent` (which must exist):
  // the paper's "logically copying an existing instantiable one". The child
  // gets the next free ordinal under `parent`.
  [[nodiscard]] Result<VersionId> DeriveVersion(const VersionId& parent);

  // The descriptor for `version`, for configuration. Mutations fail with
  // kVersionFrozen once the version is instantiable.
  [[nodiscard]] Result<DfmDescriptor*> MutableDescriptor(const VersionId& version);
  [[nodiscard]] Result<const DfmDescriptor*> Descriptor(const VersionId& version) const;

  // Freezes `version` after validation; it becomes usable for creation and
  // evolution.
  [[nodiscard]] Status MarkInstantiable(const VersionId& version);

  // Designates the current version (must be instantiable). Under a
  // proactive single-version policy this immediately pushes the update to
  // every instance in the DCDO table.
  [[nodiscard]] Status SetCurrentVersion(const VersionId& version);
  const VersionId& current_version() const { return current_version_; }
  std::vector<VersionId> Versions() const;

  // ===== The DCDO table: instance management =====

  // Creates an instance of the current version on `host`: spawns a shell
  // process, then evolves it to the version (fetching images not cached on
  // `host`). A host that goes down during the spawn fails the create with
  // kUnavailable, and a destroy before it completes with kNotFound; either
  // way no instance is left.
  void CreateInstance(sim::SimHost* host, CreateCallback done);

  // Multi-version managers: create at a specific instantiable version.
  void CreateInstanceAt(const VersionId& version, sim::SimHost* host,
                        CreateCallback done);

  // Policy-checked evolution of one instance to `version`.
  void EvolveInstanceTo(const ObjectId& instance, const VersionId& version,
                        DoneCallback done);

  // The explicit-update entry point: brings `instance` to the current
  // version (subject to the policy's auto-update rule).
  void UpdateInstance(const ObjectId& instance, DoneCallback done);

  // Moves an instance to `dest`: capture + state transfer + component
  // fetches at dest + Dcdo::MoveTo (a component with no build there fails
  // it, moving nothing). Runs the policy's on-migrate lazy check afterwards.
  void MigrateInstance(const ObjectId& instance, sim::SimHost* dest,
                       DoneCallback done);

  // Warms the instance's host cache with the components `version` would add,
  // ahead of the evolution that needs them. Best-effort; a coordinator calls
  // this for every step of a batch before the serial apply phase, so the
  // downloads overlap while the applies stay ordered. A later
  // EvolveInstanceTo joins any still-open streams via the fetcher's
  // single-flight dedup.
  void PrefetchInstanceVersion(const ObjectId& instance,
                               const VersionId& version);

  // Deactivates a (presumably idle) instance: its state is captured to the
  // host's store and its process exits; the binding disappears. Reactivation
  // pays a fresh shell spawn, cached component re-maps, and state restore —
  // and yields a new address, so pre-deactivation client bindings go stale.
  // A reactivation whose host goes down during the spawn fails with
  // kUnavailable and leaves the instance deactivated.
  // Each operation above that takes simulated time ends kNotFound, once,
  // when the manager is destroyed meanwhile.
  void DeactivateInstance(const ObjectId& instance, DoneCallback done);
  void ReactivateInstance(const ObjectId& instance, DoneCallback done);

  [[nodiscard]] Status DestroyInstance(const ObjectId& instance);

  // ===== Status reporting =====

  Dcdo* FindInstance(const ObjectId& instance);
  std::size_t instance_count() const { return instances_.size(); }
  [[nodiscard]] Result<VersionId> InstanceVersion(const ObjectId& instance) const;

  struct TableEntry {
    ObjectId id;
    VersionId version;
    sim::NodeId node = 0;
    sim::Architecture architecture = sim::Architecture::kX86Linux;
  };
  std::vector<TableEntry> Table() const;

  // One completed (or failed) evolution of one instance. The manager keeps
  // this ledger so operators can audit when and how the population moved —
  // the bookkeeping side of "the DCDO Manager uses this information when
  // deciding when and how to evolve its DCDOs".
  struct EvolutionEvent {
    ObjectId instance;
    VersionId from;
    VersionId to;
    sim::SimTime completed_at;
    sim::SimDuration duration;
    Status status;
  };
  const std::vector<EvolutionEvent>& History() const { return history_; }

  // Links into this manager, cut by its destruction (runtime::OwnerLink).
  runtime::FomOwner& operations() { return ops_; }

  // Policy activity counters (reported by the update-policy bench).
  std::uint64_t updates_pushed() const { return updates_pushed_; }
  std::uint64_t lazy_checks() const { return lazy_checks_; }
  std::uint64_t lazy_updates() const { return lazy_updates_; }

 private:
  // The pooled state machines behind the instance operations (manager.cc).
  class InstanceOpFom;
  class CreateInstanceFom;
  class EvolveInstanceFom;
  class MigrateInstanceFom;
  class DeactivateInstanceFom;
  class ReactivateInstanceFom;

  struct InstanceRecord {
    std::unique_ptr<Dcdo> object;
    std::uint64_t calls_at_last_check = 0;
    sim::SimTime last_check;
  };

  // Applies the descriptor of `version` to the (fresh or existing) DCDO.
  void ApplyVersion(Dcdo* object, const VersionId& version, DoneCallback done);
  void InstallLazyHook(const ObjectId& instance);
  void LazyCheck(const ObjectId& instance);
  [[nodiscard]] Status CheckInstantiable(const VersionId& version) const;

  std::string type_name_;
  ObjectId id_;
  sim::SimHost& home_;
  rpc::RpcTransport& transport_;
  BindingAgent& agent_;
  const NativeCodeRegistry& registry_;
  std::unique_ptr<EvolutionPolicy> policy_;
  rpc::Activation activation_{id_, &transport_, &agent_};

  std::string NamePrefix() const { return "/types/" + type_name_; }
  std::string InstanceName(const ObjectId& instance) const {
    return NamePrefix() + "/instances/" + std::to_string(instance.instance());
  }

  std::vector<std::unique_ptr<ImplementationComponentObject>> published_;
  IcoDirectory icos_;
  // One acquisition pipeline for everything this manager moves: instances
  // share its per-host single-flight scope, so two DCDOs activating on one
  // host never download the same image twice.
  ComponentFetcher fetcher_{&icos_};
  NameService* names_ = nullptr;  // not owned; may be null

  std::map<VersionId, DfmDescriptor> dfm_store_;
  VersionId current_version_;

  std::map<ObjectId, InstanceRecord> instances_;

  std::uint64_t updates_pushed_ = 0;
  std::uint64_t lazy_checks_ = 0;
  std::uint64_t lazy_updates_ = 0;
  std::vector<EvolutionEvent> history_;
  runtime::FomOwner ops_;  // operations in flight; destruction cuts them off
};

}  // namespace dcdo
