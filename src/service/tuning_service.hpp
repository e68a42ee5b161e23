// TuningService: many concurrent tuning sessions over shared workloads.
//
// The paper's experiments are a fixed grid of (kernel x tuner x budget)
// runs executed one at a time; the service turns that into an
// orchestration layer fit for serving many workloads at once:
//
//   * a bounded async job queue — submit() returns a future and blocks
//     (backpressure) while 64 sessions are already waiting for a
//     worker;
//   * a worker pool (a dedicated common::ThreadPool) running whole
//     sessions concurrently — each session evaluates its batches
//     serially on its worker, so the parallelism is across sessions
//     (a Runner sweep that builds a replay dataset on a worker runs
//     inline there, per the pool's nesting rule);
//   * per-(kernel, device, backend) "workloads" created lazily and
//     shared by every session that matches: one Benchmark instance and
//     one stateless evaluation backend. Each session evaluates on its
//     own: its tuner drives its CachingEvaluator, whose memo sits over
//     the workload's backend, and no measurement passes between
//     sessions;
//   * cooperative cancellation: shutdown() flips one token that every
//     session checks at its next batch boundary, so no worker is ever
//     stuck mid-run;
//   * an id-keyed tracked-session registry (submit_tracked/tracked):
//     what the HTTP API's job routes serve. With `journal_dir` set the
//     registry is *durable* — submissions and terminal results are
//     written through a service::SessionLog (write-ahead journal with
//     fsync-on-commit), and the constructor replays it: completed
//     sessions come back with their full results, unfinished ones are
//     resubmitted under their original ids and re-run (deterministic
//     backends make the re-run indistinguishable from the one a crash
//     destroyed). Sessions cancelled by shutdown are deliberately left
//     pending in the journal for the same reason. See
//     docs/durability.md. A tracked session's result is JSON-encoded
//     once, when it finishes or is restored, and readers share those
//     bytes (SessionResult::json).
//
// Determinism is preserved: backends are deterministic, so a session
// produces the identical trace on a pool worker, inline, live or
// replayed, as a standalone run_tuner does (tests/service_test.cpp
// enforces this).
//
// Ownership / thread-safety: the service owns benchmarks, backends and
// the worker pool; sessions borrow them and must not outlive it
// (futures returned by submit() are safe to resolve after shutdown, not
// after destruction). All public methods are thread-safe.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/backend.hpp"
#include "core/dataset.hpp"
#include "io/dataset_repository.hpp"
#include "obs/metrics.hpp"
#include "service/session.hpp"
#include "service/session_log.hpp"
#include "service/sharded_cache.hpp"

namespace bat::service {

struct ServiceOptions {
  /// Worker threads running sessions; 0 = hardware_concurrency().
  std::size_t workers = 0;
  /// Disk cache for replay datasets, handed to the service's
  /// DatasetRepository: a replay workload with no registered dataset
  /// loads <kernel>_<device>.{bin,csv} from here, and service-swept
  /// datasets persist back into it. "" keeps the repository
  /// memory-only.
  std::string dataset_dir;
  /// Durable session journal directory. "" (default) keeps the
  /// tracked-session registry memory-only (a restart forgets it); set,
  /// every submit_tracked id and terminal result is journaled
  /// (sessions.batjnl) and the constructor replays it — restoring
  /// completed results and re-running unfinished sessions under their
  /// original ids. docs/durability.md is the full contract.
  std::string journal_dir;
  /// Completed sessions the journal retains across checkpoints; older
  /// ones are evicted from the registry (their ids 404 after that).
  std::size_t journal_retain_completed = 1024;
  /// Journal size that triggers a compacting checkpoint + truncate.
  std::uint64_t journal_checkpoint_bytes = 256 * 1024;
  /// Registry hosting the bat_sessions_* series; null makes a private
  /// one. Forwarded into the session journal, so one `tune serve`
  /// process scrapes as one coherent surface.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

class TuningService {
 public:
  explicit TuningService(ServiceOptions options = {});
  ~TuningService();  // shutdown() + joins the pool

  TuningService(const TuningService&) = delete;
  TuningService& operator=(const TuningService&) = delete;

  /// Enqueues one session. Blocks while the backlog is at capacity;
  /// throws std::runtime_error after shutdown(). The future always
  /// resolves to a SessionResult (failures are reported in-band as
  /// kFailed, never as a broken promise).
  [[nodiscard]] std::future<SessionResult> submit(SessionSpec spec);

  /// One entry of the tracked-session registry. Once `future` is
  /// ready, its value carries the result's encoded bytes
  /// (SessionResult::json): the worker encodes them before it resolves
  /// the future, and journal recovery before it registers a restored
  /// session, so no reader sees a finished session without its bytes.
  struct TrackedSession {
    SessionSpec spec;
    std::shared_future<SessionResult> future;
    /// The obs trace this session's spans record under (0 = untraced:
    /// sessions restored as already-completed have no live timeline).
    std::uint64_t trace_id = 0;
  };

  /// submit() plus registration in the id-keyed registry; returns the
  /// id (monotonic from 1, or from the journal's high-water mark after
  /// recovery — ids are never reused). When journaled, the submission
  /// is fsync-durable *before* this returns: a crash after the caller
  /// sees the id can only delay the session, never lose it. Blocks and
  /// throws like submit().
  [[nodiscard]] std::uint64_t submit_tracked(SessionSpec spec);

  /// Registry lookup; nullopt for unknown (or checkpoint-evicted) ids.
  [[nodiscard]] std::optional<TrackedSession> tracked(
      std::uint64_t id) const;

  /// (id, finished?) for every registered session, in id order.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, bool>>
  tracked_sessions() const;

  /// Journal counters for /v1/stats; enabled == false when
  /// journal_dir was empty.
  [[nodiscard]] DurabilityStats durability_stats() const;

  /// Convenience: submit every spec, wait for all, results in order.
  [[nodiscard]] std::vector<SessionResult> run_all(
      const std::vector<SessionSpec>& specs);

  /// Runs one session synchronously on the *calling* thread instead of
  /// a pool worker, still sharing workloads and cancellation with any
  /// concurrently submitted sessions. A one-off session (tune run, a
  /// synchronous POST /v1/sessions:run) thus skips the backlog and the
  /// handoff to a worker, and never waits behind queued sessions.
  [[nodiscard]] SessionResult run_inline(const SessionSpec& spec);

  /// Blocks until every submitted session has finished.
  void wait_idle();

  /// Stops accepting, cancels in-flight sessions (they stop at their
  /// next batch boundary with partial traces) and waits for the workers
  /// to drain. Idempotent.
  void shutdown();

  /// Provides the dataset a "replay" session on (kernel, device) will
  /// serve, instead of the service sweeping the space itself (or
  /// resolving an archive from `dataset_dir`) on first use. Must be
  /// called before the first such session starts. Registered datasets
  /// are authoritative: they shadow on-disk archives for their key.
  /// Registration only stores the dataset; the kernel and device are
  /// checked when the workload is built, by the first session on them.
  void register_dataset(const std::string& kernel, core::DeviceIndex device,
                        core::Dataset dataset);

  /// Always zero: sessions share no measurement cache. Kept for
  /// benchmark/src/tuning_workload.cpp, which still calls it; the two
  /// go together.
  [[nodiscard]] ShardedMeasurementCache::Stats cache_stats() const {
    return {};
  }

  [[nodiscard]] std::size_t workers() const noexcept { return pool_.size(); }
  [[nodiscard]] std::size_t sessions_submitted() const;
  [[nodiscard]] std::size_t sessions_active() const;
  /// False once shutdown() has started — /v1/healthz reports draining.
  [[nodiscard]] bool accepting() const;

 private:
  /// Everything sessions on one (kernel, device, backend) triple share.
  /// A replay backend copies its rows from a registered dataset or one
  /// the repository resolved, and borrows neither.
  struct Workload {
    std::unique_ptr<core::Benchmark> benchmark;
    std::unique_ptr<core::EvaluationBackend> backend;
  };
  /// Lazily-built workload slot: the map entry is created cheaply under
  /// the service mutex, the (possibly slow: replay sweeps) build runs
  /// under the slot's own once-flag so it never blocks submit/shutdown.
  struct WorkloadSlot {
    std::once_flag once;
    std::unique_ptr<Workload> workload;
  };
  using WorkloadKey =
      std::tuple<std::string, core::DeviceIndex, std::string>;

  [[nodiscard]] SessionResult run_session(const SessionSpec& spec);
  [[nodiscard]] Workload& workload_for(const SessionSpec& spec);
  void build_workload(const SessionSpec& spec, WorkloadSlot& slot);
  /// The shared submit path. id != 0 marks a tracked session whose
  /// terminal result is journaled (cancellations excepted) and encoded
  /// (SessionResult::json) before its future resolves. trace_id != 0
  /// makes the worker record the session's spans (evaluate, backend
  /// batches, journal commits) under that trace.
  [[nodiscard]] std::future<SessionResult> enqueue(SessionSpec spec,
                                                   std::uint64_t id,
                                                   std::uint64_t trace_id);
  void register_metrics();
  /// Replays the journal into the registry: restores completed
  /// results as ready futures, resubmits pending sessions.
  void recover_from_journal();

  ServiceOptions options_;

  std::unique_ptr<SessionLog> log_;  // null when journal_dir is empty

  // Tracked-session registry. Its own mutex (not mutex_): lookups must
  // not contend with the backlog/waiter machinery, and workers touch
  // it while holding nothing else (no ordering to get wrong).
  mutable std::mutex jobs_mutex_;
  std::map<std::uint64_t, TrackedSession> jobs_;
  std::uint64_t next_tracked_id_ = 1;

  mutable std::mutex mutex_;
  std::condition_variable backlog_cv_;  // queued_ dropped below capacity
  std::condition_variable idle_cv_;     // outstanding_ reached zero
  bool accepting_ = true;
  // Control state (backpressure + idle predicates), not telemetry —
  // the lifetime submitted counter lives on the registry instead.
  std::size_t queued_ = 0;       // submitted, no worker picked it up yet
  std::size_t outstanding_ = 0;  // submitted, not finished
  std::map<WorkloadKey, std::shared_ptr<WorkloadSlot>> workloads_;
  /// register_dataset()'s datasets, held until the replay workload on
  /// their (kernel, device) copies their rows, then freed.
  std::map<std::pair<std::string, core::DeviceIndex>, core::Dataset>
      registered_;
  io::DatasetRepository repo_;

  std::atomic<bool> cancel_{false};

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Counter* submitted_total_ = nullptr;
  obs::Counter* finished_completed_ = nullptr;
  obs::Counter* finished_failed_ = nullptr;
  obs::Counter* finished_cancelled_ = nullptr;
  obs::Histogram* session_duration_ = nullptr;
  // Scrape-time bridges over queue state.
  // Declared after everything they read (destroyed first).
  std::vector<obs::CallbackGuard> metric_guards_;

  // Last member: destroyed first, so no worker can touch service state
  // after the maps above are gone (shutdown() has already drained it).
  common::ThreadPool pool_;
};

}  // namespace bat::service
