#include "service/tuning_service.hpp"

#include <chrono>
#include <stdexcept>

#include "common/log.hpp"
#include "core/backend.hpp"
#include "core/runner.hpp"
#include "kernels/all_kernels.hpp"
#include "obs/trace.hpp"
#include "service/session_json.hpp"

namespace bat::service {

namespace {
/// Sessions admitted but not yet started; submit() blocks beyond.
constexpr std::size_t kQueueCapacity = 64;

/// A tracked session's result as GET /v1/sessions/<id> serves it,
/// encoded once. Shrunk to fit: every retained session holds its bytes,
/// so the dump's growth slack would be paid per session.
std::shared_ptr<const std::string> encode(const SessionResult& result) {
  std::string json = to_json(result).dump();
  json.shrink_to_fit();
  return std::make_shared<const std::string>(std::move(json));
}
}  // namespace

TuningService::TuningService(ServiceOptions options)
    : options_(options),
      repo_(options.dataset_dir),
      pool_(options.workers) {
  metrics_ = options_.metrics ? options_.metrics
                              : std::make_shared<obs::MetricsRegistry>();
  register_metrics();
  if (!options_.journal_dir.empty()) {
    SessionLogOptions log_options;
    log_options.dir = options_.journal_dir;
    log_options.retain_completed = options_.journal_retain_completed;
    log_options.checkpoint_bytes = options_.journal_checkpoint_bytes;
    log_options.metrics = metrics_;
    log_ = std::make_unique<SessionLog>(std::move(log_options));
    recover_from_journal();
  }
}

void TuningService::register_metrics() {
  submitted_total_ = metrics_->counter("bat_sessions_submitted_total",
                                       "Sessions submitted (lifetime)");
  const std::string finished_help = "Sessions finished, by terminal status";
  finished_completed_ =
      metrics_->counter("bat_sessions_finished_total", finished_help,
                        {{"status", "completed"}});
  finished_failed_ = metrics_->counter("bat_sessions_finished_total",
                                       finished_help, {{"status", "failed"}});
  finished_cancelled_ =
      metrics_->counter("bat_sessions_finished_total", finished_help,
                        {{"status", "cancelled"}});
  // 1ms..~2200s log-scale: replay probes to marathon live sessions.
  session_duration_ = metrics_->histogram(
      "bat_session_duration_seconds", "Session wall time, any terminal status",
      obs::Histogram::exponential(1e-3, 3.0, 14));

  using CallbackKind = obs::MetricsRegistry::CallbackKind;
  const auto add = [this](const char* name, const char* help,
                          CallbackKind kind, std::function<double()> fn) {
    metric_guards_.push_back(
        metrics_->callback(name, help, kind, {}, std::move(fn)));
  };
  add("bat_sessions_active", "Sessions submitted but not finished",
      CallbackKind::kGauge,
      [this] { return static_cast<double>(sessions_active()); });
  add("bat_sessions_queued", "Sessions waiting for a worker",
      CallbackKind::kGauge, [this] {
        std::lock_guard lock(mutex_);
        return static_cast<double>(queued_);
      });
}

TuningService::~TuningService() { shutdown(); }

std::future<SessionResult> TuningService::submit(SessionSpec spec) {
  return enqueue(std::move(spec), 0, 0);
}

std::future<SessionResult> TuningService::enqueue(SessionSpec spec,
                                                  std::uint64_t id,
                                                  std::uint64_t trace_id) {
  auto promise = std::make_shared<std::promise<SessionResult>>();
  auto future = promise->get_future();
  {
    std::unique_lock lock(mutex_);
    backlog_cv_.wait(lock, [&] {
      return !accepting_ || queued_ < kQueueCapacity;
    });
    if (!accepting_) {
      throw std::runtime_error("TuningService: submit after shutdown");
    }
    ++queued_;
    ++outstanding_;
  }
  submitted_total_->add();
  pool_.submit([this, id, trace_id, promise, spec = std::move(spec)] {
    {
      std::lock_guard lock(mutex_);
      --queued_;
    }
    backlog_cv_.notify_one();
    // Re-enter the session's trace on the worker thread: evaluate,
    // backend batches and the journal commit below all land on the
    // timeline minted at submit.
    obs::TraceScope trace(trace_id);
    SessionResult result;
    {
      obs::ScopedSpan span("evaluate");
      result = run_session(spec);  // never throws: failures in-band
    }
    if (id != 0 && log_ && result.status != SessionStatus::kCancelled) {
      // Journal the terminal result *before* the future resolves:
      // once a client observed "done", a restart must agree. A
      // cancelled session is deliberately not journaled — it stays
      // pending and re-runs on the next boot (docs/durability.md).
      try {
        const auto evicted = log_->record_result(id, result);
        if (!evicted.empty()) {
          std::lock_guard lock(jobs_mutex_);
          for (const auto old : evicted) jobs_.erase(old);
        }
      } catch (const std::exception& e) {
        // Journal write failure degrades durability (the session will
        // re-run after a crash), never in-process correctness.
        common::log_error("service: journaling result of session ", id,
                          " failed: ", e.what());
      }
    }
    // The bytes travel inside the future's value: one set_value
    // publishes readiness and bytes together.
    if (id != 0) result.json = encode(result);
    promise->set_value(std::move(result));
    {
      std::lock_guard lock(mutex_);
      --outstanding_;
    }
    idle_cv_.notify_all();
  });
  return future;
}

std::uint64_t TuningService::submit_tracked(SessionSpec spec) {
  std::uint64_t id = 0;
  {
    std::lock_guard lock(jobs_mutex_);
    id = next_tracked_id_++;
  }
  // Tracked sessions are the traced ones: the id minted here is what
  // GET /v1/sessions/<id>/trace resolves, and the TraceScope makes the
  // journal submit record a span on the same timeline.
  const std::uint64_t trace_id = obs::mint_trace_id();
  obs::TraceScope trace(trace_id);
  obs::ScopedSpan span("submit");
  // Durability before acknowledgement: the submit record is fsynced
  // before the session is even queued, so a crash at any later point
  // recovers it. (If enqueue then throws — service shut down — the
  // journal keeps a pending entry that the *next* boot runs; the
  // caller saw an exception, not an id, so nothing was promised.)
  if (log_) log_->record_submit(id, spec);
  auto future = enqueue(spec, id, trace_id).share();
  std::lock_guard lock(jobs_mutex_);
  jobs_.emplace(id,
                TrackedSession{std::move(spec), std::move(future), trace_id});
  return id;
}

std::optional<TuningService::TrackedSession> TuningService::tracked(
    std::uint64_t id) const {
  std::lock_guard lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<std::uint64_t, bool>> TuningService::tracked_sessions()
    const {
  std::vector<std::pair<std::uint64_t, bool>> out;
  std::lock_guard lock(jobs_mutex_);
  out.reserve(jobs_.size());
  for (const auto& [id, session] : jobs_) {
    out.emplace_back(id, session.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready);
  }
  return out;
}

DurabilityStats TuningService::durability_stats() const {
  return log_ ? log_->stats() : DurabilityStats{};
}

void TuningService::recover_from_journal() {
  // Completed sessions come back as already-resolved futures: a client
  // that submitted before the crash polls the same id and reads the
  // same result (trace included).
  for (const auto& done : log_->completed()) {
    SessionResult result = done.result;
    result.json = encode(result);
    std::promise<SessionResult> promise;
    promise.set_value(std::move(result));
    std::lock_guard lock(jobs_mutex_);
    jobs_.emplace(done.id,
                  TrackedSession{done.result.spec,
                                 promise.get_future().share()});
  }
  // Pending sessions re-run under their original ids without a new
  // submit record (the journal already has one). This may block on the
  // backlog while the pool drains — recovery of a big queue is just a
  // busy boot, not a deadlock.
  for (const auto& pending : log_->pending()) {
    // Recovered runs get a fresh trace: the pre-crash spans are gone
    // with the old process, but the re-run's timeline is live.
    const std::uint64_t trace_id = obs::mint_trace_id();
    auto future = enqueue(pending.spec, pending.id, trace_id).share();
    std::lock_guard lock(jobs_mutex_);
    jobs_.emplace(pending.id,
                  TrackedSession{pending.spec, std::move(future), trace_id});
  }
  next_tracked_id_ = std::max(next_tracked_id_, log_->next_id());
}

std::vector<SessionResult> TuningService::run_all(
    const std::vector<SessionSpec>& specs) {
  std::vector<std::future<SessionResult>> futures;
  futures.reserve(specs.size());
  for (const auto& spec : specs) futures.push_back(submit(spec));
  std::vector<SessionResult> results;
  results.reserve(specs.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

SessionResult TuningService::run_inline(const SessionSpec& spec) {
  {
    std::lock_guard lock(mutex_);
    if (!accepting_) {
      throw std::runtime_error("TuningService: run_inline after shutdown");
    }
    ++outstanding_;
  }
  submitted_total_->add();
  auto result = run_session(spec);  // noexcept in practice: in-band errors
  {
    std::lock_guard lock(mutex_);
    --outstanding_;
  }
  idle_cv_.notify_all();
  return result;
}

void TuningService::wait_idle() {
  std::unique_lock lock(mutex_);
  idle_cv_.wait(lock, [&] { return outstanding_ == 0; });
}

void TuningService::shutdown() {
  {
    std::lock_guard lock(mutex_);
    accepting_ = false;
  }
  cancel_.store(true, std::memory_order_relaxed);
  backlog_cv_.notify_all();  // blocked submitters wake up and throw
  wait_idle();
}

void TuningService::register_dataset(const std::string& kernel,
                                     core::DeviceIndex device,
                                     core::Dataset dataset) {
  std::lock_guard lock(mutex_);
  registered_.insert_or_assign({kernel, device}, std::move(dataset));
}

std::size_t TuningService::sessions_submitted() const {
  return static_cast<std::size_t>(submitted_total_->value());
}

std::size_t TuningService::sessions_active() const {
  std::lock_guard lock(mutex_);
  return outstanding_;
}

bool TuningService::accepting() const {
  std::lock_guard lock(mutex_);
  return accepting_;
}

SessionResult TuningService::run_session(const SessionSpec& spec) {
  SessionResult result;
  result.spec = spec;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    if (cancel_.load(std::memory_order_relaxed)) {
      result.status = SessionStatus::kCancelled;
    } else {
      auto& workload = workload_for(spec);
      const auto tuner = tuners::make_tuner(spec.tuner);
      core::EvaluationHooks hooks;
      hooks.cancel = &cancel_;
      result.run = tuners::run_tuner(*tuner, *workload.backend, spec.budget,
                                     spec.seed, hooks);
      // run.cancelled records whether the token actually aborted an
      // evaluation — a session that converged below budget in the same
      // instant shutdown() flipped the token still counts as completed.
      result.status = result.run.cancelled ? SessionStatus::kCancelled
                                           : SessionStatus::kCompleted;
    }
  } catch (const std::exception& e) {
    result.status = SessionStatus::kFailed;
    result.error = e.what();
  }
  result.wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  session_duration_->observe(result.wall_ms / 1000.0);
  switch (result.status) {
    case SessionStatus::kCompleted: finished_completed_->add(); break;
    case SessionStatus::kFailed: finished_failed_->add(); break;
    case SessionStatus::kCancelled: finished_cancelled_->add(); break;
  }
  return result;
}

TuningService::Workload& TuningService::workload_for(const SessionSpec& spec) {
  if (spec.backend != "live" && spec.backend != "replay") {
    throw std::invalid_argument("unknown session backend: " + spec.backend);
  }
  std::shared_ptr<WorkloadSlot> slot;
  {
    std::lock_guard lock(mutex_);
    auto& entry = workloads_[WorkloadKey{spec.kernel, spec.device,
                                         spec.backend}];
    if (!entry) entry = std::make_shared<WorkloadSlot>();
    slot = entry;
  }
  // The build itself (benchmark construction, replay sweeps) runs
  // outside the service mutex; concurrent sessions on the same workload
  // rendezvous on the slot's once-flag. A throwing build leaves the
  // flag unset, so the next session retries instead of inheriting a
  // half-built workload.
  std::call_once(slot->once, [&] { build_workload(spec, *slot); });
  if (!slot->workload) {
    throw std::runtime_error("workload construction failed earlier for " +
                             spec.kernel);
  }
  return *slot->workload;
}

void TuningService::build_workload(const SessionSpec& spec,
                                   WorkloadSlot& slot) {
  auto workload = std::make_unique<Workload>();
  workload->benchmark = kernels::make(spec.kernel);
  if (spec.device >= workload->benchmark->device_count()) {
    throw std::out_of_range(
        spec.kernel + ": device index " + std::to_string(spec.device) +
        " out of range (device_count = " +
        std::to_string(workload->benchmark->device_count()) + ")");
  }
  if (spec.backend == "replay") {
    // The rows come from one of three sources, in order: a registered
    // dataset, which shadows an archive of the same key; the repository
    // (memory, then <kernel>_<device>.{bin,csv} in dataset_dir); an
    // exhaustive sweep. The backend copies them, so a registered dataset
    // is freed once the workload is built.
    std::unique_lock lock(mutex_);
    auto registered = registered_.extract({spec.kernel, spec.device});
    lock.unlock();
    std::shared_ptr<const core::Dataset> dataset;
    if (registered) {
      dataset = std::make_shared<const core::Dataset>(
          std::move(registered.mapped()));
    } else {
      // Repository keys are (benchmark, device *name*), known only now
      // that the kernel is built.
      const std::string device_name =
          workload->benchmark->device_name(spec.device);
      dataset = repo_.find(spec.kernel, device_name);
      if (dataset) {
        common::log_info("service: replaying ", spec.kernel, "@", device_name,
                         " from ", dataset->source());
      }
    }
    if (!dataset) {
      // Replay sessions that have to sweep the space themselves are
      // only sound (and affordable) on exhaustively swept spaces.
      if (workload->benchmark->space().cardinality() >
          core::kExhaustiveLimit) {
        throw std::invalid_argument(
            spec.kernel +
            ": replay sessions need a registered dataset (space too large "
            "to sweep exhaustively)");
      }
      common::log_info("service: sweeping ", spec.kernel, " device ",
                       spec.device, " for the shared replay dataset");
      dataset = repo_.get(*workload->benchmark, spec.device);
    }
    workload->backend = std::make_unique<core::ReplayBackend>(
        workload->benchmark->space(), *dataset);
  } else {
    workload->backend =
        std::make_unique<core::LiveBackend>(*workload->benchmark, spec.device);
  }
  // Sessions rendezvousing on the slot synchronize via its once-flag.
  slot.workload = std::move(workload);
}

}  // namespace bat::service
