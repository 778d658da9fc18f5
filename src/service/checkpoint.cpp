#include "service/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "service/wal.h"
#include "util/bytes.h"
#include "util/hash.h"

namespace shuffledp {
namespace service {

namespace {

constexpr size_t kHeaderBytes = 16;

}  // namespace

Bytes SerializeCheckpointPayload(const CheckpointState& state) {
  ByteWriter w(64 + state.supports.size() * 4 +
               state.dummies_remaining.size() * 20);
  w.PutU64(state.round_id);
  w.PutVarint(state.partition_index);
  w.PutVarint(state.partition_count);
  w.PutVarint(state.slice_lo);
  w.PutVarint(state.batches_consumed);
  w.PutVarint(state.rows_seen);
  w.PutVarint(state.reports_decoded);
  w.PutVarint(state.reports_invalid);
  w.PutVarint(state.dummies_recognized);
  w.PutVarint(state.dummies_expected);
  w.PutVarint(state.supports.size());
  for (uint64_t s : state.supports) w.PutVarint(s);
  w.PutVarint(state.dummies_remaining.size());
  for (const auto& [key, count] : state.dummies_remaining) {
    w.PutU64(key.first);
    w.PutU64(key.second);
    w.PutVarint(count);
  }
  return w.Release();
}

Result<CheckpointState> ParseCheckpointPayload(const Bytes& payload) {
  ByteReader r(payload);
  CheckpointState state;
  SHUFFLEDP_ASSIGN_OR_RETURN(state.round_id, r.GetU64());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_index, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_count, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.slice_lo, r.GetVarint());
  if (part_count == 0 || part_count > 0xFFFF || part_index >= part_count) {
    return Status::DataLoss("checkpoint partition fields out of range");
  }
  state.partition_index = static_cast<uint32_t>(part_index);
  state.partition_count = static_cast<uint32_t>(part_count);
  SHUFFLEDP_ASSIGN_OR_RETURN(state.batches_consumed, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.rows_seen, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.reports_decoded, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.reports_invalid, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.dummies_recognized, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(state.dummies_expected, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t d, r.GetVarint());
  // Each support needs at least one payload byte; a hostile length field
  // cannot drive the reserve below past the file size.
  if (d > r.Remaining()) {
    return Status::DataLoss("checkpoint supports length exceeds payload");
  }
  state.supports.reserve(d);
  for (uint64_t i = 0; i < d; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t s, r.GetVarint());
    state.supports.push_back(s);
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t n_dummies, r.GetVarint());
  if (n_dummies > r.Remaining() / 17) {  // 8 + 8 + >=1 bytes per entry
    return Status::DataLoss("checkpoint dummy count exceeds payload");
  }
  for (uint64_t i = 0; i < n_dummies; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t packed, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t tag, r.GetU64());
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t count, r.GetVarint());
    state.dummies_remaining[{packed, tag}] = count;
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("checkpoint payload has trailing bytes");
  }
  return state;
}

Bytes SerializeJournalPayload(const RoundJournal& journal) {
  ByteWriter w(64 + journal.supports.size() * 4);
  w.PutU64(journal.round_id);
  w.PutVarint(journal.partition_index);
  w.PutVarint(journal.partition_count);
  w.PutVarint(journal.slice_lo);
  w.PutVarint(journal.n);
  w.PutVarint(journal.n_fake);
  w.PutU8(journal.calibration);
  w.PutVarint(journal.reports_decoded);
  w.PutVarint(journal.reports_invalid);
  w.PutVarint(journal.dummies_recognized);
  w.PutVarint(journal.dummies_expected);
  w.PutVarint(journal.supports.size());
  for (uint64_t s : journal.supports) w.PutVarint(s);
  return w.Release();
}

Result<RoundJournal> ParseJournalPayload(const Bytes& payload) {
  ByteReader r(payload);
  RoundJournal journal;
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.round_id, r.GetU64());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_index, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t part_count, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.slice_lo, r.GetVarint());
  if (part_count == 0 || part_count > 0xFFFF || part_index >= part_count) {
    return Status::DataLoss("journal partition fields out of range");
  }
  journal.partition_index = static_cast<uint32_t>(part_index);
  journal.partition_count = static_cast<uint32_t>(part_count);
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.n, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.n_fake, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.calibration, r.GetU8());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.reports_decoded, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.reports_invalid, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.dummies_recognized, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(journal.dummies_expected, r.GetVarint());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t d, r.GetVarint());
  if (d > r.Remaining()) {
    return Status::DataLoss("journal supports length exceeds payload");
  }
  journal.supports.reserve(d);
  for (uint64_t i = 0; i < d; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint64_t s, r.GetVarint());
    journal.supports.push_back(s);
  }
  if (!r.AtEnd()) {
    return Status::DataLoss("journal payload has trailing bytes");
  }
  return journal;
}

Status WriteFramedFile(const std::string& path, const uint8_t magic[4],
                       const Bytes& payload, const char* what) {
  if (path.empty()) {
    return Status::InvalidArgument(std::string(what) + " path is empty");
  }
  ByteWriter file(kHeaderBytes + payload.size());
  file.PutBytes(magic, 4);
  file.PutU8(kFramedFileVersion);
  file.PutU8(0);
  file.PutU8(0);
  file.PutU8(0);
  file.PutU32(static_cast<uint32_t>(payload.size()));
  file.PutU32(Crc32(payload.data(), payload.size()));
  file.PutBytes(payload);
  const Bytes& bytes = file.data();

  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return MapStorageErrno(what, tmp, "open", errno);
  }
  Status st = StorageWriteAll(fd, bytes.data(), bytes.size(), what, tmp);
  if (st.ok()) st = StorageFsync(fd, what, tmp);
  ::close(fd);
  if (st.ok()) st = StorageRename(tmp, path, what);
  if (!st.ok()) {
    ::unlink(tmp.c_str());
    return st;
  }
  return Status::OK();
}

Result<Bytes> ReadFramedFile(const std::string& path, const uint8_t magic[4],
                             const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(std::string("no ") + what + " at " + path);
  }
  Bytes bytes;
  uint8_t buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);

  if (bytes.size() < kHeaderBytes) {
    return Status::DataLoss(std::string(what) + " file shorter than header");
  }
  ByteReader r(bytes);
  SHUFFLEDP_ASSIGN_OR_RETURN(Bytes file_magic, r.GetBytes(4));
  if (std::memcmp(file_magic.data(), magic, 4) != 0) {
    return Status::DataLoss(std::string(what) + " magic mismatch");
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t version, r.GetU8());
  if (version != kFramedFileVersion) {
    return Status::DataLoss(std::string("unsupported ") + what +
                            " version " + std::to_string(version));
  }
  for (int i = 0; i < 3; ++i) {
    SHUFFLEDP_ASSIGN_OR_RETURN(uint8_t reserved, r.GetU8());
    if (reserved != 0) {
      return Status::DataLoss(std::string(what) +
                              " reserved bytes are nonzero");
    }
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(uint32_t payload_len, r.GetU32());
  SHUFFLEDP_ASSIGN_OR_RETURN(uint32_t expected_crc, r.GetU32());
  if (payload_len != r.Remaining()) {
    return Status::DataLoss(std::string(what) +
                            " length field does not match file");
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(Bytes payload, r.GetBytes(payload_len));
  if (Crc32(payload.data(), payload.size()) != expected_crc) {
    return Status::DataLoss(std::string(what) +
                            " CRC mismatch (torn or corrupt)");
  }
  return payload;
}

}  // namespace service
}  // namespace shuffledp
