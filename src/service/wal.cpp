#include "service/wal.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "service/fault_injection.h"
#include "util/hash.h"

namespace shuffledp {
namespace service {

Status MapStorageErrno(const char* what, const std::string& path,
                       const char* verb, int err) {
  std::string msg = std::string(what) + " " + verb + " failed";
  if (!path.empty()) msg += " (" + path + ")";
  msg += ": ";
  msg += std::strerror(err);
#ifdef EDQUOT
  const bool exhausted = err == ENOSPC || err == EDQUOT;
#else
  const bool exhausted = err == ENOSPC;
#endif
  return exhausted ? Status::ResourceExhausted(std::move(msg))
                   : Status::Internal(std::move(msg));
}

namespace {

/// Applies the scripted action for one storage site. Returns a non-OK
/// status when the action fails the call; `cap` (when non-null) limits
/// the bytes a following write may put on disk (short-write modeling).
Status ApplyStorageFault(FaultOp op, const char* what,
                         const std::string& path, const char* verb,
                         size_t* cap) {
  FaultAction action = EvaluateInstalledFault(op, /*port=*/0);
  switch (action.kind) {
    case FaultAction::Kind::kNone:
      return Status::OK();
    case FaultAction::Kind::kFailErrno:
      return MapStorageErrno(what, path, verb, action.err);
    case FaultAction::Kind::kDelayMs:
      std::this_thread::sleep_for(std::chrono::milliseconds(action.delay_ms));
      return Status::OK();
    case FaultAction::Kind::kTruncateSend:
      // Short write: the capped prefix reaches the file (a torn tail on
      // disk), then the call reports ENOSPC — the classic out-of-space
      // partial write.
      if (cap != nullptr && action.max_bytes < *cap) {
        *cap = static_cast<size_t>(action.max_bytes);
      }
      return Status::OK();
  }
  return Status::OK();
}

}  // namespace

Status StorageWriteAll(int fd, const uint8_t* data, size_t len,
                       const char* what, const std::string& path) {
  size_t cap = len;
  SHUFFLEDP_RETURN_NOT_OK(
      ApplyStorageFault(FaultOp::kFileWrite, what, path, "write", &cap));
  size_t off = 0;
  while (off < cap) {
    ssize_t wrote = ::write(fd, data + off, cap - off);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return MapStorageErrno(what, path, "write", errno);
    }
    off += static_cast<size_t>(wrote);
  }
  if (cap < len) {
    return MapStorageErrno(what, path, "write (short)", ENOSPC);
  }
  return Status::OK();
}

Status StorageFsync(int fd, const char* what, const std::string& path) {
  SHUFFLEDP_RETURN_NOT_OK(
      ApplyStorageFault(FaultOp::kFileSync, what, path, "fsync", nullptr));
  if (::fsync(fd) != 0) {
    return MapStorageErrno(what, path, "fsync", errno);
  }
  return Status::OK();
}

Status StorageFsyncDir(const std::string& dir, const char* what) {
  SHUFFLEDP_RETURN_NOT_OK(
      ApplyStorageFault(FaultOp::kFileSync, what, dir, "fsync", nullptr));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return MapStorageErrno(what, dir, "open", errno);
  }
  const int rc = ::fsync(fd);
  const int err = errno;
  ::close(fd);
  if (rc != 0) {
    return MapStorageErrno(what, dir, "fsync", err);
  }
  return Status::OK();
}

Status StorageRename(const std::string& from, const std::string& to,
                     const char* what) {
  SHUFFLEDP_RETURN_NOT_OK(
      ApplyStorageFault(FaultOp::kFileRename, what, to, "rename", nullptr));
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return MapStorageErrno(what, to, "rename", errno);
  }
  return Status::OK();
}

Status StorageTruncate(int fd, uint64_t len, const char* what,
                       const std::string& path) {
  SHUFFLEDP_RETURN_NOT_OK(
      ApplyStorageFault(FaultOp::kFileWrite, what, path, "truncate", nullptr));
  if (::ftruncate(fd, static_cast<off_t>(len)) != 0) {
    return MapStorageErrno(what, path, "truncate", errno);
  }
  return Status::OK();
}

Status StorageUnlink(const std::string& path, const char* what) {
  SHUFFLEDP_RETURN_NOT_OK(
      ApplyStorageFault(FaultOp::kFileUnlink, what, path, "unlink", nullptr));
  if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
    return MapStorageErrno(what, path, "unlink", errno);
  }
  return Status::OK();
}

namespace {

Bytes BuildWalHeader(uint32_t partition_index, uint32_t partition_count) {
  ByteWriter w(kWalHeaderBytes);
  w.PutBytes(kWalMagic, 4);
  w.PutU8(kWalVersion);
  w.PutU8(0);
  w.PutU16(static_cast<uint16_t>(partition_index));
  w.PutU16(static_cast<uint16_t>(partition_count));
  w.PutU16(0);
  Bytes header = w.Release();
  ByteWriter crc(4);
  crc.PutU32(Crc32(header.data(), header.size()));
  const Bytes& crc_bytes = crc.data();
  Bytes out = std::move(header);
  out.insert(out.end(), crc_bytes.begin(), crc_bytes.end());
  return out;
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const Options& options) {
  if (options.path.empty()) {
    return Status::InvalidArgument("WAL path is empty");
  }
  if (options.partition_count == 0 || options.partition_count > 0xFFFF ||
      options.partition_index >= options.partition_count) {
    return Status::InvalidArgument("WAL partition identity out of range");
  }
  int fd = ::open(options.path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return MapStorageErrno("WAL", options.path, "open", errno);
  }
  std::unique_ptr<WriteAheadLog> log(new WriteAheadLog(options.path, fd));

  // Slurp the whole file: WALs are bounded by the compaction cadence,
  // and recovery needs every record anyway.
  Bytes bytes;
  uint8_t buf[1 << 16];
  ssize_t got;
  while ((got = ::read(fd, buf, sizeof(buf))) > 0) {
    bytes.insert(bytes.end(), buf, buf + static_cast<size_t>(got));
  }
  if (got < 0) {
    return MapStorageErrno("WAL", options.path, "read", errno);
  }

  if (bytes.empty()) {
    // Fresh log: publish the header. No rename discipline here — a torn
    // header write leaves a short file, which the branch below restarts
    // as fresh, and a log with no records carries no state to lose.
    Bytes header = BuildWalHeader(options.partition_index,
                                  options.partition_count);
    SHUFFLEDP_RETURN_NOT_OK(StorageWriteAll(fd, header.data(), header.size(),
                                            "WAL", options.path));
    SHUFFLEDP_RETURN_NOT_OK(StorageFsync(fd, "WAL", options.path));
    return log;
  }

  if (bytes.size() < kWalHeaderBytes) {
    // Torn *initial* header publish: the first 16-byte write has no
    // rename discipline, so a crash can leave a prefix of it. Such a
    // file cannot hold any record — there is no state to lose — so
    // restart it as a fresh log instead of bricking every later Open.
    // (A full-length header that fails its CRC stays DataLoss below: a
    // torn write of a fresh file can only produce a short prefix, so
    // that is post-publish media corruption — refuse to guess.)
    SHUFFLEDP_RETURN_NOT_OK(StorageTruncate(fd, 0, "WAL", options.path));
    if (::lseek(fd, 0, SEEK_SET) < 0) {
      return MapStorageErrno("WAL", options.path, "seek", errno);
    }
    Bytes header = BuildWalHeader(options.partition_index,
                                  options.partition_count);
    SHUFFLEDP_RETURN_NOT_OK(StorageWriteAll(fd, header.data(), header.size(),
                                            "WAL", options.path));
    SHUFFLEDP_RETURN_NOT_OK(StorageFsync(fd, "WAL", options.path));
    return log;
  }
  if (std::memcmp(bytes.data(), kWalMagic, 4) != 0) {
    return Status::DataLoss("WAL magic mismatch: " + options.path);
  }
  if (bytes[4] != kWalVersion) {
    return Status::DataLoss("unsupported WAL version " +
                            std::to_string(bytes[4]) + ": " + options.path);
  }
  {
    ByteReader r(bytes);
    (void)r.GetBytes(6);  // magic + version + reserved, checked above
    uint16_t part_index = r.GetU16().value_or(0xFFFF);
    uint16_t part_count = r.GetU16().value_or(0);
    (void)r.GetU16();  // reserved
    uint32_t crc = r.GetU32().value_or(0);
    if (crc != Crc32(bytes.data(), 12)) {
      return Status::DataLoss("WAL header CRC mismatch: " + options.path);
    }
    if (part_index != options.partition_index ||
        part_count != options.partition_count) {
      return Status::FailedPrecondition(
          "WAL belongs to partition " + std::to_string(part_index) + "/" +
          std::to_string(part_count) + ", not " +
          std::to_string(options.partition_index) + "/" +
          std::to_string(options.partition_count) + ": " + options.path);
    }
  }

  // Scan records; the first invalid one ends the log (torn tail).
  size_t off = kWalHeaderBytes;
  while (off < bytes.size()) {
    if (bytes.size() - off < kWalRecordHeaderBytes) break;
    uint32_t body_len, crc;
    std::memcpy(&body_len, bytes.data() + off, 4);
    std::memcpy(&crc, bytes.data() + off + 4, 4);
    if (body_len < 9 || body_len > kMaxWalRecordBody) break;
    if (bytes.size() - off - kWalRecordHeaderBytes < body_len) break;
    const uint8_t* body = bytes.data() + off + kWalRecordHeaderBytes;
    if (Crc32(body, body_len) != crc) break;
    const uint8_t type = body[0];
    if (type < static_cast<uint8_t>(WalRecordType::kDelta) ||
        type > static_cast<uint8_t>(WalRecordType::kAbandon)) {
      break;
    }
    Record record;
    record.type = static_cast<WalRecordType>(type);
    std::memcpy(&record.lsn, body + 1, 8);
    record.payload.assign(body + 9, body + body_len);
    log->recovered_.push_back(std::move(record));
    off += kWalRecordHeaderBytes + body_len;
  }

  if (off < bytes.size()) {
    // Truncate-on-recovery: drop the torn tail so the next append
    // starts at a clean record boundary.
    log->truncated_bytes_ = bytes.size() - off;
    SHUFFLEDP_RETURN_NOT_OK(StorageTruncate(fd, off, "WAL", options.path));
    SHUFFLEDP_RETURN_NOT_OK(StorageFsync(fd, "WAL", options.path));
    if (::lseek(fd, static_cast<off_t>(off), SEEK_SET) < 0) {
      return MapStorageErrno("WAL", options.path, "seek", errno);
    }
  }
  return log;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::Append(WalRecordType type, uint64_t lsn,
                             const Bytes& payload) {
  if (payload.size() > kMaxWalRecordBody - 9) {
    return Status::InvalidArgument("WAL record payload too large");
  }
  const uint32_t body_len = static_cast<uint32_t>(9 + payload.size());
  ByteWriter w(kWalRecordHeaderBytes + body_len);
  w.PutU32(body_len);
  w.PutU32(0);  // CRC patched below
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU64(lsn);
  w.PutBytes(payload);
  Bytes frame = w.Release();
  const uint32_t crc =
      Crc32(frame.data() + kWalRecordHeaderBytes, body_len);
  std::memcpy(frame.data() + 4, &crc, 4);
  return StorageWriteAll(fd_, frame.data(), frame.size(), "WAL", path_);
}

Status WriteAheadLog::Sync() { return StorageFsync(fd_, "WAL", path_); }

Status WriteAheadLog::TruncateAll() {
  SHUFFLEDP_RETURN_NOT_OK(
      StorageTruncate(fd_, kWalHeaderBytes, "WAL", path_));
  SHUFFLEDP_RETURN_NOT_OK(StorageFsync(fd_, "WAL", path_));
  if (::lseek(fd_, static_cast<off_t>(kWalHeaderBytes), SEEK_SET) < 0) {
    return MapStorageErrno("WAL", path_, "seek", errno);
  }
  return Status::OK();
}

}  // namespace service
}  // namespace shuffledp
