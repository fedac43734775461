#include "core/evolution_policy.h"

namespace dcdo {
namespace {

// Shared single-version rule: instances evolve only to the designated
// current version, never to any other instantiable version.
Status CheckSingleVersion(const VersionId& to, const VersionId& current) {
  if (to != current) {
    return NotDerivedVersionError(
        "single-version manager: instances may only evolve to the current "
        "version " + current.ToString() + ", not " + to.ToString());
  }
  return Status::Ok();
}

class SingleVersionProactive final : public EvolutionPolicy {
 public:
  std::string_view name() const override { return "single/proactive"; }
  bool single_version() const override { return true; }
  bool push_on_new_version() const override { return true; }
  Status CheckEvolution(const VersionId&, const VersionId& to,
                        const VersionId& current) const override {
    return CheckSingleVersion(to, current);
  }
};

class SingleVersionExplicit final : public EvolutionPolicy {
 public:
  std::string_view name() const override { return "single/explicit"; }
  bool single_version() const override { return true; }
  Status CheckEvolution(const VersionId&, const VersionId& to,
                        const VersionId& current) const override {
    return CheckSingleVersion(to, current);
  }
};

class SingleVersionLazy : public EvolutionPolicy {
 public:
  bool single_version() const override { return true; }
  Status CheckEvolution(const VersionId&, const VersionId& to,
                        const VersionId& current) const override {
    return CheckSingleVersion(to, current);
  }
};

class LazyEveryCall final : public SingleVersionLazy {
 public:
  std::string_view name() const override { return "single/lazy-every-call"; }
  bool ShouldLazyCheck(const LazyCheckContext&) const override { return true; }
};

class LazyEveryK final : public SingleVersionLazy {
 public:
  explicit LazyEveryK(std::uint64_t k) : k_(k == 0 ? 1 : k) {}
  std::string_view name() const override { return "single/lazy-every-k"; }
  bool ShouldLazyCheck(const LazyCheckContext& ctx) const override {
    return ctx.calls_since_check + 1 >= k_;
  }

 private:
  std::uint64_t k_;
};

class LazyPeriodic final : public SingleVersionLazy {
 public:
  explicit LazyPeriodic(sim::SimDuration period) : period_(period) {}
  std::string_view name() const override { return "single/lazy-periodic"; }
  bool ShouldLazyCheck(const LazyCheckContext& ctx) const override {
    return ctx.since_check >= period_;
  }

 private:
  sim::SimDuration period_;
};

class LazyOnMigrate final : public SingleVersionLazy {
 public:
  std::string_view name() const override { return "single/lazy-on-migrate"; }
  bool ShouldLazyCheck(const LazyCheckContext& ctx) const override {
    return ctx.migrating;
  }
};

class MultiVersionNoUpdate final : public EvolutionPolicy {
 public:
  std::string_view name() const override { return "multi/no-update"; }
  bool single_version() const override { return false; }
  Status CheckEvolution(const VersionId& from, const VersionId& to,
                        const VersionId&) const override {
    if (from == to) return Status::Ok();
    return FailedPreconditionError(
        "no-update manager: deployed instances never evolve");
  }
};

class MultiVersionIncreasing final : public EvolutionPolicy {
 public:
  std::string_view name() const override { return "multi/increasing"; }
  bool single_version() const override { return false; }
  Status CheckEvolution(const VersionId& from, const VersionId& to,
                        const VersionId&) const override {
    if (!to.IsDerivedFrom(from)) {
      return NotDerivedVersionError(
          "increasing-version manager: " + to.ToString() +
          " is not derived from " + from.ToString());
    }
    return Status::Ok();
  }
  // Lazy variants under this policy auto-update only when the current
  // version descends from the instance's version; otherwise the instance
  // stays where it is (paper Section 3.5, last paragraph).
  bool AutoUpdateAllowed(const VersionId& from,
                         const VersionId& current) const override {
    return current.IsDerivedFrom(from);
  }
};

class MultiVersionGeneral final : public EvolutionPolicy {
 public:
  std::string_view name() const override { return "multi/general"; }
  bool single_version() const override { return false; }
  bool enforce_marks_on_evolve() const override { return false; }
  Status CheckEvolution(const VersionId&, const VersionId&,
                        const VersionId&) const override {
    return Status::Ok();  // any instantiable version, any time
  }
};

class MultiVersionHybrid final : public EvolutionPolicy {
 public:
  std::string_view name() const override { return "multi/hybrid"; }
  bool single_version() const override { return false; }
  // enforce_marks_on_evolve stays true: the evolution's commit rejects moves
  // that break mandatory/permanent rules.
  Status CheckEvolution(const VersionId&, const VersionId&,
                        const VersionId&) const override {
    return Status::Ok();
  }
};

}  // namespace

std::unique_ptr<EvolutionPolicy> MakeSingleVersionProactive() {
  return std::make_unique<SingleVersionProactive>();
}
std::unique_ptr<EvolutionPolicy> MakeSingleVersionExplicit() {
  return std::make_unique<SingleVersionExplicit>();
}
std::unique_ptr<EvolutionPolicy> MakeSingleVersionLazyEveryCall() {
  return std::make_unique<LazyEveryCall>();
}
std::unique_ptr<EvolutionPolicy> MakeSingleVersionLazyEveryK(std::uint64_t k) {
  return std::make_unique<LazyEveryK>(k);
}
std::unique_ptr<EvolutionPolicy> MakeSingleVersionLazyPeriodic(
    sim::SimDuration period) {
  return std::make_unique<LazyPeriodic>(period);
}
std::unique_ptr<EvolutionPolicy> MakeSingleVersionLazyOnMigrate() {
  return std::make_unique<LazyOnMigrate>();
}
std::unique_ptr<EvolutionPolicy> MakeMultiVersionNoUpdate() {
  return std::make_unique<MultiVersionNoUpdate>();
}
std::unique_ptr<EvolutionPolicy> MakeMultiVersionIncreasing() {
  return std::make_unique<MultiVersionIncreasing>();
}
std::unique_ptr<EvolutionPolicy> MakeMultiVersionGeneral() {
  return std::make_unique<MultiVersionGeneral>();
}
std::unique_ptr<EvolutionPolicy> MakeMultiVersionHybrid() {
  return std::make_unique<MultiVersionHybrid>();
}

}  // namespace dcdo
