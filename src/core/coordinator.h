// UpdateCoordinator: coordinated evolution across object types.
//
// The explicit-update policy exists precisely so that the update decision
// can be "made by a different external object. This could be useful when,
// for example, multiple object types need to be updated in coordination
// with one another" (Section 3.4). This is that external object: it takes a
// batch of (manager, instance, target-version) steps — typically spanning
// several managers whose types must change protocol together — and applies
// them with two-phase discipline:
//
//   validate phase — every step is checked up front: the instance exists,
//     the target version is instantiable, the manager's policy permits the
//     transition, and (optionally) the interface transition is
//     client-compatible per ClassifyTransition. Any failure rejects the
//     whole batch before anything changes.
//
//   apply phase — steps are applied in order. If one fails mid-batch, the
//     coordinator attempts to roll already-updated instances back to their
//     recorded prior versions. Rollback is best effort: a policy that
//     forbids "downgrades" (e.g. increasing-version) can refuse, and the
//     outcome reports exactly what state the world was left in.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/manager.h"
#include "dfm/compatibility.h"

namespace dcdo {

class UpdateCoordinator {
 public:
  struct Step {
    DcdoManager* manager = nullptr;
    ObjectId instance;
    VersionId target;
  };

  struct Options {
    // Reject batches containing a breaking interface transition.
    bool require_client_compatible = false;
  };

  struct Outcome {
    Status status;                  // overall result
    std::size_t applied = 0;        // steps successfully applied (and kept)
    std::size_t rolled_back = 0;    // steps undone after a mid-batch failure
    std::vector<std::string> notes; // human-readable per-step annotations

    bool ok() const { return status.ok(); }
  };

  using DoneCallback = std::function<void(Outcome)>;

  UpdateCoordinator() = default;
  explicit UpdateCoordinator(const Options& options) : options_(options) {}

  // Validates and applies `steps`; `done` fires once with the outcome.
  // The coordinator drives nothing concurrently — steps apply in order, so
  // a batch is only as slow as its slowest member chain. A step whose
  // manager is destroyed mid-batch fails kNotFound without touching it.
  void Execute(std::vector<Step> steps, DoneCallback done);

 private:
  [[nodiscard]] Status ValidateAll(const std::vector<Step>& steps,
                     std::vector<VersionId>& prior_versions,
                     std::vector<std::string>& notes) const;

  Options options_;
};

}  // namespace dcdo
