#include "service/session_log.hpp"

#include <bit>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/trace.hpp"
#include "obs/trace.hpp"

namespace bat::service {

namespace {

// Little-endian payload codec, the BATDSB01 string-table conventions
// (u32-length-prefixed strings) applied to journal record payloads.

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_string(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

/// Bounds-checked strict reader; decode must consume every byte.
class Reader {
 public:
  explicit Reader(const std::string& bytes) : bytes_(&bytes) {}

  std::uint8_t u8() {
    std::uint8_t v;
    take(&v, sizeof v);
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v;
    take(&v, sizeof v);
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v;
    take(&v, sizeof v);
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    if (n > bytes_->size() - pos_) fail("truncated string");
    std::string s(bytes_->data() + pos_, n);
    pos_ += n;
    return s;
  }
  void expect_done() const {
    if (pos_ != bytes_->size()) fail("trailing bytes");
  }
  [[nodiscard]] std::size_t remaining() const { return bytes_->size() - pos_; }

  [[noreturn]] void fail(const char* what) const {
    throw std::invalid_argument(
        std::string("BAT session journal: malformed record payload (") +
        what + ") - written by an incompatible build?");
  }

 private:
  void take(void* out, std::size_t n) {
    if (n > bytes_->size() - pos_) fail("truncated payload");
    std::memcpy(out, bytes_->data() + pos_, n);
    pos_ += n;
  }

  const std::string* bytes_;
  std::size_t pos_ = 0;
};

/// Result records written before the JIT backend was removed end in a
/// compile-cost trailer (f64 compile_ms, u64 compiles, artifact cache
/// hits, misses, fallback evaluations), zero for live and replay
/// sessions. Decode accepts exactly these bytes after the trace and
/// ignores them; any other remainder is still "trailing bytes".
constexpr std::size_t kLegacyResultTrailerBytes = 8 + 4 * 8;

SessionStatus status_from_u8(std::uint8_t v) {
  switch (v) {
    case 0: return SessionStatus::kCompleted;
    case 1: return SessionStatus::kCancelled;
    case 2: return SessionStatus::kFailed;
    default: break;
  }
  throw std::invalid_argument(
      "BAT session journal: unknown session status " + std::to_string(v));
}

std::uint8_t status_to_u8(SessionStatus s) {
  switch (s) {
    case SessionStatus::kCompleted: return 0;
    case SessionStatus::kCancelled: return 1;
    case SessionStatus::kFailed: return 2;
  }
  return 2;
}

}  // namespace

std::string SessionLog::encode_submit(std::uint64_t id,
                                      const SessionSpec& spec) {
  std::string out;
  put_u64(out, id);
  put_string(out, spec.kernel);
  put_string(out, spec.tuner);
  put_u32(out, static_cast<std::uint32_t>(spec.device));
  put_u64(out, spec.budget);
  put_u64(out, spec.seed);
  put_string(out, spec.backend);
  return out;
}

std::pair<std::uint64_t, SessionSpec> SessionLog::decode_submit(
    const std::string& payload) {
  Reader in(payload);
  const std::uint64_t id = in.u64();
  SessionSpec spec;
  spec.kernel = in.str();
  spec.tuner = in.str();
  spec.device = static_cast<core::DeviceIndex>(in.u32());
  spec.budget = static_cast<std::size_t>(in.u64());
  spec.seed = in.u64();
  spec.backend = in.str();
  in.expect_done();
  return {id, std::move(spec)};
}

std::string SessionLog::encode_result(std::uint64_t id,
                                      const SessionResult& result) {
  // The trace is persisted entry by entry (objective as IEEE-754 bits:
  // restored results must be byte-identical on the JSON wire) — best
  // and best_so_far are derived, so they are rebuilt on decode rather
  // than stored.
  std::string out;
  put_u64(out, id);
  put_u8(out, status_to_u8(result.status));
  put_u8(out, result.run.cancelled ? 1 : 0);
  put_f64(out, result.wall_ms);
  put_string(out, result.error);
  put_u32(out, static_cast<std::uint32_t>(result.run.trace.size()));
  for (const auto& entry : result.run.trace) {
    put_u64(out, entry.index);
    put_f64(out, entry.objective);
  }
  return out;
}

std::pair<std::uint64_t, SessionResult> SessionLog::decode_result(
    const std::string& payload) {
  Reader in(payload);
  const std::uint64_t id = in.u64();
  SessionResult result;
  result.status = status_from_u8(in.u8());
  result.run.cancelled = in.u8() != 0;
  result.wall_ms = in.f64();
  result.error = in.str();
  const std::uint32_t entries = in.u32();
  // Validate the declared count against the bytes actually present
  // (16 per entry) *before* reserving: a corrupt count must reject as
  // invalid_argument, not request a multi-gigabyte allocation.
  if (entries > in.remaining() / 16) in.fail("implausible trace length");
  result.run.trace.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    core::TraceEntry entry;
    entry.index = in.u64();
    entry.objective = in.f64();
    result.run.trace.push_back(entry);
  }
  if (in.remaining() != kLegacyResultTrailerBytes) in.expect_done();
  result.run.best = core::trace_best(result.run.trace);
  result.run.best_so_far = core::trace_best_so_far(result.run.trace);
  return {id, std::move(result)};
}

SessionLog::SessionLog(SessionLogOptions options)
    : options_(std::move(options)) {
  if (options_.dir.empty()) {
    throw std::invalid_argument("SessionLog: journal directory is empty");
  }
  options_.retain_completed = std::max<std::size_t>(1,
                                                    options_.retain_completed);
  std::filesystem::create_directories(options_.dir);
  journal_ = std::make_unique<io::Journal>(
      (std::filesystem::path(options_.dir) / "sessions.batjnl").string());

  const auto& replay = journal_->replayed();
  replay_dropped_bytes_ = replay.dropped_bytes;
  for (const auto& record : replay.records) {
    if (record.type == kSubmitRecord) {
      auto [id, spec] = decode_submit(record.payload);
      // Replaying a checkpointed journal may legitimately see an id
      // twice only if corruption survived CRC — treat it strictly.
      if (!sessions_.emplace(id, Entry{std::move(spec), std::nullopt})
               .second) {
        throw std::invalid_argument(journal_->path() +
                                    ": duplicate submit record for id " +
                                    std::to_string(id));
      }
      next_id_ = std::max(next_id_, id + 1);
    } else if (record.type == kResultRecord) {
      auto [id, result] = decode_result(record.payload);
      const auto it = sessions_.find(id);
      if (it == sessions_.end()) {
        throw std::invalid_argument(journal_->path() +
                                    ": result record for unknown id " +
                                    std::to_string(id));
      }
      it->second.result = std::move(result);
      next_id_ = std::max(next_id_, id + 1);
    } else {
      throw std::invalid_argument(
          journal_->path() + ": unknown record type " +
          std::to_string(record.type) + " - journal from a newer build?");
    }
  }
  for (const auto& [id, entry] : sessions_) {
    if (entry.result) {
      CompletedSession done;
      done.id = id;
      done.result = *entry.result;
      done.result.spec = entry.spec;
      completed_.push_back(std::move(done));
    } else {
      pending_.push_back(PendingSession{id, entry.spec});
    }
  }

  metrics_ = options_.metrics ? options_.metrics
                              : std::make_shared<obs::MetricsRegistry>();
  commit_duration_ = metrics_->histogram(
      "bat_journal_commit_duration_seconds",
      "Append + fsync wall time per journaled record",
      obs::Histogram::exponential(5e-5, 2.0, 15));
  using CallbackKind = obs::MetricsRegistry::CallbackKind;
  const auto bridge = [this](const char* name, const char* help,
                             CallbackKind kind, auto getter) {
    metric_guards_.push_back(metrics_->callback(
        name, help, kind, {},
        [this, getter] { return static_cast<double>(getter(*journal_)); }));
  };
  bridge("bat_journal_file_bytes", "Current journal file size",
         CallbackKind::kGauge,
         [](const io::Journal& j) { return j.stats().file_bytes; });
  bridge("bat_journal_records_appended_total", "Records appended",
         CallbackKind::kCounter,
         [](const io::Journal& j) { return j.stats().records_appended; });
  bridge("bat_journal_commits_total", "Durable commits (fsync)",
         CallbackKind::kCounter,
         [](const io::Journal& j) { return j.stats().commits; });
  bridge("bat_journal_checkpoints_total", "Compacting checkpoints",
         CallbackKind::kCounter,
         [](const io::Journal& j) { return j.stats().checkpoints; });
}

void SessionLog::record_submit(std::uint64_t id, const SessionSpec& spec) {
  // Shared log lock across "mutate map, then append+commit": a
  // concurrent checkpoint (exclusive) either snapshots this entry with
  // its append already on the old file (discarded by the rewrite) or
  // runs entirely before, so the append lands on the new file and is
  // absent from the snapshot. Either way the id is journaled exactly
  // once — two submit records for one id would refuse to replay.
  std::shared_lock log(log_mutex_);
  {
    std::lock_guard lock(mutex_);
    sessions_[id] = Entry{spec, std::nullopt};
  }
  obs::ScopedSpan span("journal.submit");
#ifndef BAT_OBS_OFF
  const std::uint64_t start_ns = obs::monotonic_now_ns();
#endif
  journal_->append(kSubmitRecord, encode_submit(id, spec));
  journal_->commit();  // durable before the id is acknowledged
#ifndef BAT_OBS_OFF
  commit_duration_->observe(
      static_cast<double>(obs::monotonic_now_ns() - start_ns) / 1e9);
#endif
}

std::vector<std::uint64_t> SessionLog::record_result(
    std::uint64_t id, const SessionResult& result) {
  {
    std::shared_lock log(log_mutex_);
    {
      std::lock_guard lock(mutex_);
      const auto it = sessions_.find(id);
      if (it != sessions_.end()) it->second.result = result;
    }
    obs::ScopedSpan span("journal.result");
#ifndef BAT_OBS_OFF
    const std::uint64_t start_ns = obs::monotonic_now_ns();
#endif
    journal_->append(kResultRecord, encode_result(id, result));
    journal_->commit();
#ifndef BAT_OBS_OFF
    commit_duration_->observe(
        static_cast<double>(obs::monotonic_now_ns() - start_ns) / 1e9);
#endif
    if (journal_->stats().file_bytes <= options_.checkpoint_bytes) return {};
  }
  std::unique_lock log(log_mutex_);
  // Re-check under the exclusive lock: a concurrent record_result may
  // already have compacted the file while we waited.
  if (journal_->stats().file_bytes <= options_.checkpoint_bytes) return {};
  std::lock_guard lock(mutex_);
  return checkpoint_locked();
}

std::vector<std::uint64_t> SessionLog::checkpoint() {
  std::unique_lock log(log_mutex_);
  std::lock_guard lock(mutex_);
  return checkpoint_locked();
}

std::vector<std::uint64_t> SessionLog::checkpoint_locked() {
  // Retention: every pending session, plus the `retain_completed`
  // completed ones with the highest ids (the ones clients most
  // plausibly still poll).
  std::vector<std::uint64_t> evicted;
  std::size_t completed_count = 0;
  for (const auto& [id, entry] : sessions_) {
    if (entry.result) ++completed_count;
  }
  if (completed_count > options_.retain_completed) {
    std::size_t to_evict = completed_count - options_.retain_completed;
    for (auto it = sessions_.begin();
         it != sessions_.end() && to_evict != 0;) {
      if (it->second.result) {
        evicted.push_back(it->first);
        it = sessions_.erase(it);
        --to_evict;
      } else {
        ++it;
      }
    }
  }

  // Rewrite: submit records for everything retained (id order), then
  // result records for the completed ones — exactly the stream a
  // fresh journal of the same state would contain.
  std::vector<io::JournalRecord> records;
  records.reserve(sessions_.size() * 2);
  for (const auto& [id, entry] : sessions_) {
    records.push_back(
        io::JournalRecord{kSubmitRecord, encode_submit(id, entry.spec)});
  }
  for (const auto& [id, entry] : sessions_) {
    if (entry.result) {
      records.push_back(
          io::JournalRecord{kResultRecord, encode_result(id, *entry.result)});
    }
  }
  journal_->checkpoint(records);
  evicted_completed_ += evicted.size();
  return evicted;
}

DurabilityStats SessionLog::stats() const {
  const auto j = journal_->stats();
  DurabilityStats out;
  out.enabled = true;
  out.file_bytes = j.file_bytes;
  out.records_appended = j.records_appended;
  out.commits = j.commits;
  out.checkpoints = j.checkpoints;
  out.recovered_pending = pending_.size();
  out.restored_completed = completed_.size();
  out.replay_dropped_bytes = replay_dropped_bytes_;
  std::lock_guard lock(mutex_);
  out.evicted_completed = evicted_completed_;
  return out;
}

}  // namespace bat::service
