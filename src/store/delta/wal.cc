#include "store/delta/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/metrics.h"

namespace mbq::store {

namespace {

constexpr uint32_t kWalMagic = 0x4C57424Du;  // "MBWL" little-endian
constexpr size_t kHeaderBytes = 4 + 8 + 4 + 4;
constexpr const char* kWalFileName = "delta.wal";

struct WalMetrics {
  obs::Counter* records;
  obs::Counter* bytes;
  obs::Counter* fsyncs;
  obs::Counter* group_commits;
  obs::Counter* replay_records;
  obs::Counter* replay_dropped_bytes;

  static WalMetrics& Get() {
    static WalMetrics m = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::Default();
      WalMetrics m;
      m.records = r.GetCounter("wal.records", "records",
                               "write batches appended to the WAL");
      m.bytes =
          r.GetCounter("wal.bytes", "bytes", "bytes appended to the WAL");
      m.fsyncs = r.GetCounter("wal.fsyncs", "syncs",
                              "fsync calls issued by durability leaders");
      m.group_commits =
          r.GetCounter("wal.group_commits", "records",
                       "records made durable by a group fsync they "
                       "did not lead");
      m.replay_records = r.GetCounter(
          "wal.replay.records", "records",
          "clean records recovered by replay-on-open");
      m.replay_dropped_bytes = r.GetCounter(
          "wal.replay.dropped_bytes", "bytes",
          "torn/corrupt tail bytes truncated by replay-on-open");
      return m;
    }();
    return m;
  }
};

uint32_t ReadU32(const char* p) {
  const unsigned char* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}

uint64_t ReadU64(const char* p) {
  return static_cast<uint64_t>(ReadU32(p)) |
         (static_cast<uint64_t>(ReadU32(p + 4)) << 32);
}

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xFF);
  buf[1] = static_cast<char>((v >> 8) & 0xFF);
  buf[2] = static_cast<char>((v >> 16) & 0xFF);
  buf[3] = static_cast<char>((v >> 24) & 0xFF);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  AppendU32(out, static_cast<uint32_t>(v & 0xFFFFFFFFu));
  AppendU32(out, static_cast<uint32_t>(v >> 32));
}

Status WriteAll(int fd, const char* data, size_t size) {
  while (size > 0) {
    ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("wal: write failed: ") +
                             std::strerror(errno));
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

uint32_t WalCrc32(std::string_view data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (unsigned char byte : data) {
    crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Wal::Wal(std::string path, int fd, uint32_t window_micros, uint64_t next_seq,
         uint64_t bytes)
    : path_(std::move(path)),
      window_micros_(window_micros),
      fd_(fd),
      next_seq_(next_seq),
      staged_seq_(next_seq - 1),
      durable_seq_(next_seq - 1),
      records_(next_seq - 1),
      bytes_(bytes) {}

Wal::~Wal() {
  util::RankedLock lock(mu_);
  if (!pending_.empty() && io_status_.ok()) FlushLocked(&lock);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<std::unique_ptr<Wal>> Wal::Open(const WalOptions& options,
                                       WalRecovery* recovery) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("wal: options.dir must be set");
  }
  if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("wal: cannot create directory " + options.dir +
                           ": " + std::strerror(errno));
  }
  std::string path = options.dir + "/" + kWalFileName;

  // ---- replay-on-open --------------------------------------------------
  WalRecovery local;
  WalRecovery* rec = recovery != nullptr ? recovery : &local;
  std::string contents;
  {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      char buf[1 << 16];
      for (;;) {
        ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        contents.append(buf, static_cast<size_t>(n));
      }
      ::close(fd);
    } else if (errno != ENOENT) {
      return Status::IoError("wal: cannot read " + path + ": " +
                             std::strerror(errno));
    }
  }
  size_t clean = 0;
  uint64_t last_seq = 0;
  while (contents.size() - clean >= kHeaderBytes) {
    const char* p = contents.data() + clean;
    if (ReadU32(p) != kWalMagic) break;
    uint64_t seq = ReadU64(p + 4);
    uint32_t len = ReadU32(p + 12);
    uint32_t crc = ReadU32(p + 16);
    if (contents.size() - clean - kHeaderBytes < len) break;  // torn tail
    std::string_view payload(p + kHeaderBytes, len);
    if (WalCrc32(payload) != crc) break;
    if (seq != last_seq + 1) break;  // sequence gap: treat as corrupt tail
    auto batch = DecodeWriteBatch(payload);
    if (!batch.ok()) break;
    rec->batches.push_back(*std::move(batch));
    last_seq = seq;
    clean += kHeaderBytes + len;
  }
  rec->records = rec->batches.size();
  rec->dropped_bytes = contents.size() - clean;
  rec->last_seq = last_seq;
  WalMetrics::Get().replay_records->Inc(rec->records);
  WalMetrics::Get().replay_dropped_bytes->Inc(rec->dropped_bytes);

  // ---- truncate the torn tail and reopen for append --------------------
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IoError("wal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  if (::ftruncate(fd, static_cast<off_t>(clean)) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IoError("wal: cannot truncate torn tail of " + path +
                           ": " + std::strerror(saved));
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    int saved = errno;
    ::close(fd);
    return Status::IoError("wal: cannot seek " + path + ": " +
                           std::strerror(saved));
  }
  return std::unique_ptr<Wal>(new Wal(std::move(path), fd,
                                      options.group_commit_window_micros,
                                      last_seq + 1, clean));
}

Result<uint64_t> Wal::Stage(const WriteBatch& batch) {
  std::string payload;
  EncodeWriteBatch(batch, &payload);
  util::ScopedLock lock(mu_);
  if (!io_status_.ok()) return io_status_;
  uint64_t seq = next_seq_++;
  AppendU32(&pending_, kWalMagic);
  AppendU64(&pending_, seq);
  AppendU32(&pending_, static_cast<uint32_t>(payload.size()));
  AppendU32(&pending_, WalCrc32(payload));
  pending_.append(payload);
  staged_seq_ = seq;
  records_ += 1;
  bytes_ += kHeaderBytes + payload.size();
  WalMetrics::Get().records->Inc();
  WalMetrics::Get().bytes->Inc(kHeaderBytes + payload.size());
  return seq;
}

void Wal::FlushLocked(util::RankedLock* lock) {
  std::string buf = std::move(pending_);
  pending_.clear();
  uint64_t upto = staged_seq_;
  lock->unlock();
  Status status = WriteAll(fd_, buf.data(), buf.size());
  if (status.ok() && ::fsync(fd_) != 0) {
    status = Status::IoError(std::string("wal: fsync failed: ") +
                             std::strerror(errno));
  }
  WalMetrics::Get().fsyncs->Inc();
  lock->lock();
  if (!status.ok() && io_status_.ok()) io_status_ = status;
  if (upto > durable_seq_) durable_seq_ = upto;
}

Status Wal::WaitDurable(uint64_t seq) {
  util::RankedLock lock(mu_);
  for (;;) {
    if (durable_seq_ >= seq) {
      // Someone else's fsync covered this record.
      return io_status_;
    }
    if (!io_status_.ok()) return io_status_;
    if (!flusher_active_) break;
    // Explicit loop rather than the wait(lock, pred) overload: the
    // thread-safety analysis checks the predicate lambda separately and
    // would not see mu_ held around these guarded reads.
    while (durable_seq_ < seq && flusher_active_ && io_status_.ok()) {
      cv_.wait(lock);
    }
  }
  // This thread leads the next flush: linger for the group-commit window
  // so concurrent committers can pile on, then sync once for all.
  flusher_active_ = true;
  if (window_micros_ > 0) {
    lock.unlock();
    std::this_thread::sleep_for(std::chrono::microseconds(window_micros_));
    lock.lock();
  }
  uint64_t batched = staged_seq_ > seq ? staged_seq_ - seq : 0;
  if (batched > 0) WalMetrics::Get().group_commits->Inc(batched);
  FlushLocked(&lock);
  flusher_active_ = false;
  cv_.notify_all();
  return io_status_;
}

uint64_t Wal::records() const {
  util::ScopedLock lock(mu_);
  return records_;
}

uint64_t Wal::bytes() const {
  util::ScopedLock lock(mu_);
  return bytes_;
}

}  // namespace mbq::store
