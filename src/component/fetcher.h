// ComponentFetcher: the component acquisition pipeline.
//
// Every path that pulls implementation component images onto a host — DCDO
// creation, incorporate, evolution, migration warm-up, coordinator prefetch —
// funnels through one of these, which owns the acquisition policy:
//
//   * bounded concurrency — at most CostModel::fetch_concurrency ICO streams
//     in flight per fetcher per destination host (each DcdoManager owns one
//     fetcher); further requests queue FIFO;
//   * single-flight dedup — concurrent requests for the same
//     (host, component) join the one open stream instead of downloading the
//     image twice (two DCDOs activating on one host share each transfer);
//   * completion-order delivery — the caller's on_ready runs as each image
//     lands, not in request-list order; the terminal done runs once every
//     component in the batch has been dealt with.
//
// Components travel as shared records (ComponentRecord): each queued or
// in-flight item and each on_ready call carries the caller's record, so the
// instance that incorporates a component shares its version's metadata
// rather than a copy made along the way.
//
// Every fetch streams through ImplementationComponentObject::StreamTo, so a
// failed transfer still settles its component — a fail-fast batch reports a
// Status naming it, a best-effort batch logs it and moves on — and `done`
// always runs. At the calibrated default of 1, one stream at a time per
// host reproduces the paper's sequential acquisition cost: a solo stream
// charges exactly ComponentDownloadTime.
#pragma once

#include <functional>
#include <vector>

#include "common/object_id.h"
#include "common/status.h"
#include "component/component.h"
#include "component/ico.h"
#include "instrument/metrics.h"
#include "instrument/spans.h"
#include "sim/host.h"

namespace dcdo {

// Resolution of a component id to its live ICO. The fetcher cannot see
// core/ico_directory (that would invert the layering), so the directory
// implements this one-method view of itself.
class IcoResolver {
 public:
  virtual ~IcoResolver() = default;
  virtual Result<ImplementationComponentObject*> FindIco(
      const ObjectId& id) const = 0;
};

class ComponentFetcher {
 public:
  // Runs once per component as its image becomes available on the host
  // (`was_cached` distinguishes a cache hit from a completed fetch — the
  // migration path charges map time only for hits, evolution incorporates
  // either way). Returning an error aborts the whole acquisition with it.
  using ReadyCallback =
      std::function<Status(const ComponentRecord& meta, bool was_cached)>;
  using DoneCallback = std::function<void(Status)>;

  struct Options {
    // true: the first stream failure aborts the batch — queued components are
    // dropped, already-open streams land harmlessly in the cache, and `done`
    // reports the failure (which names the exact component). false: stream
    // failures are logged and skipped (migration warm-up is best-effort; the
    // instance re-fetches lazily). Resolve and on_ready failures always
    // abort.
    bool fail_fast = true;
  };

  explicit ComponentFetcher(const IcoResolver* resolver);
  // In-flight streams still settle as they land, failing what is queued.
  ~ComponentFetcher();

  ComponentFetcher(const ComponentFetcher&) = delete;
  ComponentFetcher& operator=(const ComponentFetcher&) = delete;

  // Acquires every component in `components` onto `dest`, calling `on_ready`
  // per component and `done(overall)` once all are settled. With an empty
  // list, `done` runs synchronously. Each stream
  // the request opens nests its span under `requester`, the span of the
  // operation that asked (0: none); a request that joins another's open
  // stream rides that stream.
  void AcquireAll(sim::SimHost* dest, std::vector<ComponentRecord> components,
                  ReadyCallback on_ready, DoneCallback done, Options options,
                  trace::SpanId requester = 0);
  void AcquireAll(sim::SimHost* dest, std::vector<ComponentRecord> components,
                  ReadyCallback on_ready, DoneCallback done,
                  trace::SpanId requester = 0) {
    AcquireAll(dest, std::move(components), std::move(on_ready),
               std::move(done), Options{}, requester);
  }

  // Warms `dest`'s cache with `components` ahead of need: best-effort, no
  // completion signal, and a later AcquireAll for the same components joins
  // the in-flight streams via single-flight.
  void Prefetch(sim::SimHost* dest, std::vector<ComponentRecord> components);

  // Streams opened / requests that joined an existing stream instead.
  std::uint64_t fetches_issued() const;
  std::uint64_t fetches_coalesced() const;

 private:
  struct Shared;  // pipeline state; shared with the streams in flight
  std::shared_ptr<Shared> shared_;
};

}  // namespace dcdo
