// Append-only write-ahead journal ("BATJNL01"): the durable record
// stream underneath the service layer's crash recovery.
//
// A journal file is  [header][record 0][record 1]...[record n] :
//
//   * header — a fixed 16-byte prologue: 8-byte magic "BATJNL01",
//     u32 format version, u32 reserved (must be zero). Every byte is
//     validated on replay, so a single flipped header byte rejects the
//     file instead of silently replaying someone else's data;
//   * record — u32 payload length, u8 caller-defined type tag, the
//     payload bytes, then a CRC-32 (io::crc32, the BATDSB01 polynomial)
//     over everything from the length field through the payload. The
//     CRC trailing each record — rather than one file footer — is what
//     makes the format append-only: a crash can only ever tear the
//     *last* record.
//
// Replay semantics (the durability contract, enforced byte-by-byte in
// tests/io_journal_test.cpp): a record prefix is authoritative iff
// every record in it frames and checksums correctly. The first record
// that is truncated or corrupt ends the replay — it and everything
// after it are dropped ("torn tail"), and reopening for append
// truncates the file back to the last valid record so a stale
// good-CRC suffix can never resurrect behind new appends. A file that
// is not a prefix of a valid journal (bad magic, wrong version,
// nonzero reserved bytes) throws instead: that is a foreign file, not
// a torn one.
//
// Writes are batched: append() only buffers; commit() writes and
// fsyncs. Durability is defined at commit boundaries — "fsync-on-
// commit" — and concurrent committers group-commit: one fsync covers
// every record appended before it, so N threads appending+committing
// concurrently pay far fewer than N fsyncs.
//
// checkpoint() atomically replaces the whole file (write temp, fsync,
// rename, fsync directory) with a caller-provided compacted record
// set; appends then resume on the new file. The journal itself is
// policy-free — what to retain is the caller's business
// (service::SessionLog layers session retention on top).
//
// Thread-safety: all methods on one Journal are safe to call
// concurrently (one internal mutex; commit() releases it around the
// write+fsync so appenders are never blocked behind the disk).
// replay() is a pure read and safe on files another process wrote —
// but two live Journal instances must never share one path.
#pragma once

#include <cstdint>
#include <mutex>
#include <condition_variable>
#include <string>
#include <string_view>
#include <vector>

namespace bat::io {

inline constexpr char kJournalMagic[8] = {'B', 'A', 'T', 'J',
                                          'N', 'L', '0', '1'};
inline constexpr std::uint32_t kJournalVersion = 1;
/// Fixed header: magic + u32 version + u32 reserved(0).
inline constexpr std::size_t kJournalHeaderBytes = 16;
/// Framing overhead per record: u32 length + u8 type + u32 CRC.
inline constexpr std::size_t kJournalRecordOverhead = 9;
/// A declared payload length above this is treated as corruption (a
/// flipped length byte must not make replay try to swallow gigabytes).
inline constexpr std::uint32_t kMaxJournalRecordBytes = 16u << 20;

struct JournalRecord {
  std::uint8_t type = 0;
  std::string payload;

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

/// What replaying a journal file yields.
struct JournalReplay {
  std::vector<JournalRecord> records;
  /// Bytes (from offset 0) covered by the header + valid records.
  std::uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes that failed framing or CRC (the torn tail;
  /// 0 for a cleanly closed journal).
  std::uint64_t dropped_bytes = 0;
};

class Journal {
 public:
  struct Stats {
    std::uint64_t records_appended = 0;  // this instance's append() calls
    std::uint64_t commits = 0;           // fsyncs issued (group commits)
    std::uint64_t checkpoints = 0;
    std::uint64_t file_bytes = 0;        // bytes durably on disk
  };

  /// Opens `path` for appending: creates it (header + fsync, and an
  /// fsync of the containing directory so the file itself survives a
  /// crash) or replays the existing contents — see replayed() — and
  /// truncates any torn tail. Throws std::invalid_argument if the file
  /// exists but is not a (possibly torn) BATJNL01 journal, and
  /// std::runtime_error on I/O failure.
  explicit Journal(std::string path);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Pure read of a journal file, torn-tail-tolerant; same validation
  /// as the constructor but never modifies the file. A missing file
  /// replays empty.
  [[nodiscard]] static JournalReplay replay(const std::string& path);

  /// What the constructor recovered from the existing file.
  [[nodiscard]] const JournalReplay& replayed() const noexcept {
    return replayed_;
  }

  /// Buffers one record. Durable only after the next commit().
  void append(std::uint8_t type, std::string_view payload);

  /// Makes every previously appended record durable (write + fsync).
  /// Group commit: concurrent callers whose records were covered by an
  /// in-flight flush return without a second fsync. If a flush's write
  /// or fsync fails, the journal is poisoned — that commit and every
  /// later one throws std::runtime_error (a failed fsync leaves the
  /// on-disk state of the affected records unknown, so "retry" would
  /// be a lie) — until a successful checkpoint() rewrites the whole
  /// file and restores health.
  void commit();

  /// Atomically replaces the journal's contents with `records` (temp
  /// file + fsync + rename + directory fsync) and discards any
  /// uncommitted buffered appends — callers serialize appends against
  /// checkpoints. Crash-safe: either the old or the new file survives.
  void checkpoint(const std::vector<JournalRecord>& records);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  void open_for_append(std::uint64_t truncate_to, bool created);
  void flush_locked(std::unique_lock<std::mutex>& lock);

  std::string path_;
  JournalReplay replayed_;

  mutable std::mutex mutex_;
  std::condition_variable flushed_cv_;
  int fd_ = -1;
  std::string buffer_;            // appended, not yet written
  std::uint64_t appended_seq_ = 0;
  std::uint64_t committed_seq_ = 0;
  bool flushing_ = false;
  bool failed_ = false;  // a flush failed; commits throw until checkpoint
  Stats stats_;
};

/// Frames one record exactly as append()/checkpoint() write it —
/// exposed so tests can build byte-precise journals and fault-inject
/// them without going through a Journal instance.
[[nodiscard]] std::string frame_journal_record(std::uint8_t type,
                                               std::string_view payload);

/// The constant 16-byte file prologue.
[[nodiscard]] std::string journal_header_bytes();

}  // namespace bat::io
