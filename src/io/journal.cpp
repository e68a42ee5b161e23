#include "io/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "io/binary_format.hpp"
#include "io/fsync.hpp"

namespace bat::io {

namespace {

[[noreturn]] void fail_io(const std::string& path, const std::string& what) {
  throw std::runtime_error("BAT journal: " + what + ": " + path +
                           (errno != 0 ? std::string(" (") +
                                             std::strerror(errno) + ")"
                                       : std::string()));
}

void write_all(int fd, const char* data, std::size_t size,
               const std::string& path) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_io(path, "write failed");
    }
    written += static_cast<std::size_t>(n);
  }
}

void fsync_or_throw(int fd, const std::string& path) {
  if (::fsync(fd) != 0) fail_io(path, "fsync failed");
}

// Directory-entry durability comes from the shared io::fsync_parent_dir
// (io/fsync.hpp), the same helper DatasetRepository uses for its
// tmp + fsync + rename publishes.

std::uint32_t read_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Torn-tail-tolerant record scan over bytes past the header.
JournalReplay scan_records(const std::string& bytes) {
  JournalReplay out;
  std::size_t pos = kJournalHeaderBytes;
  while (pos < bytes.size()) {
    const std::size_t remaining = bytes.size() - pos;
    if (remaining < kJournalRecordOverhead) break;  // torn framing
    const std::uint32_t len = read_u32(bytes.data() + pos);
    if (len > kMaxJournalRecordBytes ||
        remaining < kJournalRecordOverhead + len) {
      break;  // implausible length or truncated payload: torn
    }
    const std::size_t body = 5 + len;  // length field + type + payload
    const std::uint32_t stored = read_u32(bytes.data() + pos + body);
    if (crc32(bytes.data() + pos, body) != stored) break;  // corrupt
    JournalRecord record;
    record.type = static_cast<std::uint8_t>(bytes[pos + 4]);
    record.payload.assign(bytes.data() + pos + 5, len);
    out.records.push_back(std::move(record));
    pos += kJournalRecordOverhead + len;
  }
  out.valid_bytes = pos;
  out.dropped_bytes = bytes.size() - pos;
  return out;
}

}  // namespace

std::string journal_header_bytes() {
  std::string out(kJournalMagic, sizeof kJournalMagic);
  const std::uint32_t version = kJournalVersion;
  const std::uint32_t reserved = 0;
  out.append(reinterpret_cast<const char*>(&version), sizeof version);
  out.append(reinterpret_cast<const char*>(&reserved), sizeof reserved);
  return out;
}

std::string frame_journal_record(std::uint8_t type, std::string_view payload) {
  if (payload.size() > kMaxJournalRecordBytes) {
    throw std::invalid_argument(
        "BAT journal: record payload of " + std::to_string(payload.size()) +
        " bytes exceeds the " + std::to_string(kMaxJournalRecordBytes) +
        "-byte record limit");
  }
  std::string frame;
  frame.reserve(kJournalRecordOverhead + payload.size());
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof len);
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  const std::uint32_t crc = crc32(frame.data(), frame.size());
  frame.append(reinterpret_cast<const char*>(&crc), sizeof crc);
  return frame;
}

JournalReplay Journal::replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};  // missing file: empty journal
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());

  static const std::string header = journal_header_bytes();
  if (bytes.size() < kJournalHeaderBytes) {
    // A crash during initial creation can tear the 16 constant header
    // bytes; anything that is not a prefix of them is a foreign file.
    if (bytes != header.substr(0, bytes.size())) {
      throw std::invalid_argument(path +
                                  ": not a BAT journal (bad magic/header)");
    }
    JournalReplay out;
    out.dropped_bytes = bytes.size();
    return out;
  }
  if (bytes.compare(0, kJournalHeaderBytes, header) != 0) {
    throw std::invalid_argument(
        path + ": not a BAT journal (bad magic, unsupported version, or "
               "nonzero reserved header bytes)");
  }
  return scan_records(bytes);
}

Journal::Journal(std::string path) : path_(std::move(path)) {
  const bool exists = std::filesystem::exists(path_);
  if (exists) {
    replayed_ = replay(path_);
    // A torn header (valid_bytes == 0 with bytes on disk) recovers as
    // an empty journal: rewrite the header from scratch.
    const bool torn_header = replayed_.valid_bytes < kJournalHeaderBytes;
    open_for_append(torn_header ? 0 : replayed_.valid_bytes, torn_header);
  } else {
    open_for_append(0, true);
  }
}

Journal::~Journal() {
  std::unique_lock lock(mutex_);
  try {
    if (!failed_ && committed_seq_ < appended_seq_) flush_locked(lock);
  } catch (...) {
    // Destructor best-effort: uncommitted records were never promised.
  }
  if (fd_ >= 0) ::close(fd_);
}

void Journal::open_for_append(std::uint64_t truncate_to, bool created) {
  errno = 0;
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd_ < 0) fail_io(path_, "cannot open for append");
  if (created) {
    // Fresh (or torn-header) file: lay down the constant header and
    // make both it and the directory entry durable before any append.
    if (::ftruncate(fd_, 0) != 0) fail_io(path_, "truncate failed");
    const std::string header = journal_header_bytes();
    write_all(fd_, header.data(), header.size(), path_);
    fsync_or_throw(fd_, path_);
    fsync_parent_dir(path_);
    stats_.file_bytes = header.size();
    return;
  }
  // Torn tail: cut the file back to its last valid record so a stale
  // suffix with a coincidentally valid CRC can never reappear behind
  // future appends.
  if (replayed_.dropped_bytes != 0) {
    if (::ftruncate(fd_, static_cast<off_t>(truncate_to)) != 0) {
      fail_io(path_, "torn-tail truncate failed");
    }
    fsync_or_throw(fd_, path_);
  }
  if (::lseek(fd_, static_cast<off_t>(truncate_to), SEEK_SET) < 0) {
    fail_io(path_, "seek failed");
  }
  stats_.file_bytes = truncate_to;
}

void Journal::append(std::uint8_t type, std::string_view payload) {
  const std::string frame = frame_journal_record(type, payload);
  std::lock_guard lock(mutex_);
  buffer_.append(frame);
  ++appended_seq_;
  ++stats_.records_appended;
}

void Journal::commit() {
  std::unique_lock lock(mutex_);
  const std::uint64_t target = appended_seq_;
  while (committed_seq_ < target) {
    if (failed_) {
      throw std::runtime_error(
          "BAT journal: commit failed: " + path_ +
          " (an earlier write/fsync failed; the on-disk state of "
          "unflushed records is unknown until a checkpoint rewrites "
          "the file)");
    }
    if (flushing_) {
      // Another thread's flush is in flight; it (or a successor) will
      // cover our records — group commit.
      flushed_cv_.wait(lock);
      continue;
    }
    flush_locked(lock);
  }
}

void Journal::flush_locked(std::unique_lock<std::mutex>& lock) {
  flushing_ = true;
  std::string out;
  out.swap(buffer_);
  const std::uint64_t covers = appended_seq_;
  lock.unlock();  // appenders keep running during the write + fsync
  try {
    write_all(fd_, out.data(), out.size(), path_);
    fsync_or_throw(fd_, path_);
  } catch (...) {
    lock.lock();
    // A failed write or fsync leaves the kernel's view of these pages
    // unknown (a failed fsync may drop dirty pages yet succeed if
    // retried), so the journal is poisoned rather than retried: every
    // commit fails until a checkpoint rewrites the whole file. Waiters
    // must still be woken or they would block on flushed_cv_ forever.
    flushing_ = false;
    failed_ = true;
    flushed_cv_.notify_all();
    throw;
  }
  lock.lock();
  committed_seq_ = covers;
  stats_.file_bytes += out.size();
  ++stats_.commits;
  flushing_ = false;
  flushed_cv_.notify_all();
}

void Journal::checkpoint(const std::vector<JournalRecord>& records) {
  std::unique_lock lock(mutex_);
  flushed_cv_.wait(lock, [&] { return !flushing_; });

  std::string bytes = journal_header_bytes();
  for (const auto& record : records) {
    bytes += frame_journal_record(record.type, record.payload);
  }

  const std::string tmp = path_ + ".tmp";
  errno = 0;
  const int tmp_fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (tmp_fd < 0) fail_io(tmp, "cannot open checkpoint temp file");
  try {
    write_all(tmp_fd, bytes.data(), bytes.size(), tmp);
    fsync_or_throw(tmp_fd, tmp);
  } catch (...) {
    ::close(tmp_fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(tmp_fd);
  // rename is the atomic commit point: a crash leaves either the old
  // journal or the complete new one, never a mix.
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail_io(path_, "checkpoint rename failed");
  }
  fsync_parent_dir(path_);

  ::close(fd_);
  fd_ = ::open(path_.c_str(), O_WRONLY, 0644);
  if (fd_ < 0) fail_io(path_, "cannot reopen after checkpoint");
  if (::lseek(fd_, 0, SEEK_END) < 0) fail_io(path_, "seek failed");

  // The checkpoint is the new authoritative state: buffered-but-
  // uncommitted appends are discarded (callers serialize appends
  // against checkpoints and fold pending records into `records`).
  // Because every byte of that state was just written and fsynced to a
  // fresh file, a poisoned journal (failed flush) is healthy again.
  buffer_.clear();
  committed_seq_ = appended_seq_;
  failed_ = false;
  stats_.file_bytes = bytes.size();
  ++stats_.checkpoints;
  ++stats_.commits;
}

Journal::Stats Journal::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace bat::io
