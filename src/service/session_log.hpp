// SessionLog: the durable session registry — SessionSpec submissions
// and terminal SessionResults as CRC-framed records in an io::Journal,
// plus the recovery bookkeeping that turns a journal replay back into
// live service state.
//
// Record stream (payload layouts in docs/durability.md):
//
//   kSubmit(id, spec)    appended + committed (fsync) by record_submit
//                        *before* the id is acknowledged to a client —
//                        once a caller holds an id, no crash forgets it;
//   kResult(id, result)  appended + committed when a tracked session
//                        reaches a terminal state worth persisting
//                        (completed or failed; the service deliberately
//                        never journals kCancelled, so sessions cut
//                        short by shutdown or a crash stay *pending*
//                        and re-run on the next boot).
//
// Recovery: replaying the journal partitions ids into completed
// (submit + result: the full SessionResult — trace included — is
// rebuilt so clients can still fetch it) and pending (submit only:
// the service resubmits them under their original ids; deterministic
// backends make the re-run's result identical to the one the crash
// destroyed, so at-least-once execution is observably exactly-once).
// A torn or corrupt journal tail is dropped by the io::Journal layer:
// the surviving record prefix is authoritative.
//
// Checkpoint + truncate: the log keeps at most `retain_completed`
// completed sessions. When the file outgrows `checkpoint_bytes`, it is
// atomically rewritten with only the pending sessions plus the most
// recent retained completed ones — record_result returns the evicted
// ids so the owner can drop them from its in-memory registry too
// (after a restart they are simply unknown). The rewrite preserves
// replay semantics exactly: replaying a checkpointed journal yields
// the same logical state as replaying the original
// (tests/service_recovery_test.cpp proves the equivalence).
//
// Thread-safety: all methods are safe to call concurrently. Two locks
// cooperate: `mutex_` guards the id map, and `log_mutex_` (a
// reader-writer lock) orders journal writes against checkpoints —
// record_submit/record_result hold it shared across "mutate map, then
// append+commit" (so concurrent writers still group-commit), while a
// checkpoint holds it exclusive across "snapshot map, rewrite file".
// Every submission is therefore either entirely inside the checkpoint
// snapshot or entirely after the rewrite — never appended to the new
// file *and* present in the snapshot, which would replay as a
// duplicate submit record and refuse to boot.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "io/journal.hpp"
#include "obs/metrics.hpp"
#include "service/session.hpp"

namespace bat::service {

struct SessionLogOptions {
  /// Directory holding the journal (created if missing); the file
  /// itself is `dir`/sessions.batjnl.
  std::string dir;
  /// Completed sessions retained across checkpoints; older ones are
  /// evicted (their ids become unknown). Pending sessions are always
  /// retained — durability of unfinished work is the whole point.
  std::size_t retain_completed = 1024;
  /// Journal size that triggers a compacting checkpoint on the next
  /// record_result.
  std::uint64_t checkpoint_bytes = 256 * 1024;
  /// Registry hosting the bat_journal_* series; null makes a private
  /// one. The counters are scrape-time bridges over io::Journal::stats
  /// — the journal stays the single source of truth.
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

/// The /v1/stats "durability" section, aggregated by TuningService.
struct DurabilityStats {
  bool enabled = false;
  std::uint64_t file_bytes = 0;
  std::uint64_t records_appended = 0;
  std::uint64_t commits = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recovered_pending = 0;    // resubmitted on boot
  std::uint64_t restored_completed = 0;   // results rebuilt on boot
  std::uint64_t evicted_completed = 0;    // dropped by checkpoints
  std::uint64_t replay_dropped_bytes = 0; // torn tail cut on boot
};

class SessionLog {
 public:
  struct PendingSession {
    std::uint64_t id = 0;
    SessionSpec spec;
  };
  struct CompletedSession {
    std::uint64_t id = 0;
    SessionResult result;
  };

  /// Opens (creating the directory if needed) and replays the journal.
  /// Throws std::invalid_argument on a foreign/incompatible file and
  /// std::runtime_error on I/O failure.
  explicit SessionLog(SessionLogOptions options);

  SessionLog(const SessionLog&) = delete;
  SessionLog& operator=(const SessionLog&) = delete;

  /// Sessions recovered as submitted-but-unfinished, in id order.
  [[nodiscard]] const std::vector<PendingSession>& pending() const noexcept {
    return pending_;
  }
  /// Sessions recovered with a journaled terminal result, in id order.
  [[nodiscard]] const std::vector<CompletedSession>& completed()
      const noexcept {
    return completed_;
  }
  /// One past the largest id ever journaled (>= 1): where the owning
  /// service's id counter must resume so ids are never reused.
  [[nodiscard]] std::uint64_t next_id() const noexcept { return next_id_; }

  /// Durably records a submission (append + fsync before returning).
  void record_submit(std::uint64_t id, const SessionSpec& spec);

  /// Durably records a terminal result; returns the ids evicted if the
  /// write tripped a compacting checkpoint (usually empty).
  [[nodiscard]] std::vector<std::uint64_t> record_result(
      std::uint64_t id, const SessionResult& result);

  /// Forces a compacting checkpoint; returns the evicted ids.
  [[nodiscard]] std::vector<std::uint64_t> checkpoint();

  [[nodiscard]] DurabilityStats stats() const;

  // --- record codecs, exposed for tests and tooling ---

  static constexpr std::uint8_t kSubmitRecord = 1;
  static constexpr std::uint8_t kResultRecord = 2;

  [[nodiscard]] static std::string encode_submit(std::uint64_t id,
                                                 const SessionSpec& spec);
  [[nodiscard]] static std::string encode_result(std::uint64_t id,
                                                 const SessionResult& result);
  /// Strict decoders: throw std::invalid_argument on any leftover or
  /// missing bytes (a record that passed its CRC but does not parse
  /// was written by an incompatible build — reject, don't guess). The
  /// one exception: a result payload may also end in exactly the
  /// 40-byte legacy compile-cost trailer, which decode_result skips
  /// (docs/durability.md).
  [[nodiscard]] static std::pair<std::uint64_t, SessionSpec> decode_submit(
      const std::string& payload);
  [[nodiscard]] static std::pair<std::uint64_t, SessionResult> decode_result(
      const std::string& payload);

 private:
  struct Entry {
    SessionSpec spec;
    std::optional<SessionResult> result;
  };

  /// Requires log_mutex_ held exclusive and mutex_ held.
  [[nodiscard]] std::vector<std::uint64_t> checkpoint_locked();

  SessionLogOptions options_;
  std::unique_ptr<io::Journal> journal_;

  std::vector<PendingSession> pending_;
  std::vector<CompletedSession> completed_;
  std::uint64_t next_id_ = 1;
  std::uint64_t replay_dropped_bytes_ = 0;

  /// Ordered before mutex_ (never acquire log_mutex_ while holding
  /// mutex_). Shared by journal writers, exclusive for checkpoints.
  mutable std::shared_mutex log_mutex_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Entry> sessions_;  // journal's logical content
  std::uint64_t evicted_completed_ = 0;

  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::Histogram* commit_duration_ = nullptr;
  // Declared last: the callbacks read journal_ and must unregister
  // before it dies.
  std::vector<obs::CallbackGuard> metric_guards_;
};

}  // namespace bat::service
