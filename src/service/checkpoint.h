// Round-state payload codecs and the framed-file helper shared by the
// durable round store (round_store.h).
//
// Two payloads describe a round on disk:
//
//   CheckpointState  a partially drained round — supports so far,
//                    consumed-batch watermark, running tallies, the
//                    remaining spot-check dummy multiset. A live round's
//                    segment file embeds it; StreamingCollector::
//                    RecoverRound() restores it and returns the
//                    watermark, the feeder replays batches from that
//                    index (protocol encode phases are deterministic in
//                    fixed-size chunks, so replayed batches are
//                    bit-identical), and the finished round matches an
//                    uninterrupted run exactly.
//   RoundJournal     a *finalized* round. Everything downstream of it —
//                    Finalize-order merge and estimator calibration — is
//                    a deterministic pure function, so replaying the
//                    journal reproduces the round result bitwise. A
//                    finalized segment and the WAL kFinalize record
//                    embed it.
//
// WriteFramedFile/ReadFramedFile wrap a payload in a 16-byte
// magic/version/length/CRC header and publish it atomically (temp file +
// fsync + rename), so the file on disk is always either the previous
// complete version or the new one, never a torn mix. Layouts (all
// integers little-endian) are specified in docs/WIRE_FORMAT.md §3–4
// (payloads) and §7 (header).

#ifndef SHUFFLEDP_SERVICE_CHECKPOINT_H_
#define SHUFFLEDP_SERVICE_CHECKPOINT_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/bytes.h"
#include "util/status.h"

namespace shuffledp {
namespace service {

/// Version byte of the framed-file header (WriteFramedFile).
inline constexpr uint8_t kFramedFileVersion = 2;

/// One consistent snapshot of a partially drained round, as of the
/// moment `batches_consumed` batches had been fully accumulated.
///
/// Payload: u64 round_id, varint partition index, varint partition
/// count, varint slice lo, varint batches_consumed, varint rows_seen,
/// varint reports_decoded, varint reports_invalid, varint
/// dummies_recognized, varint dummies_expected, varint slice length,
/// that many varint supports, varint dummy-entry count, then per entry
/// u64 packed report, u64 tag, varint remaining count.
struct CheckpointState {
  uint64_t round_id = 0;
  /// Partition identity of the worker that wrote the snapshot. A
  /// recovered worker refuses a snapshot for a different partition — a
  /// misrouted segment must not resurrect another slice's counts.
  uint32_t partition_index = 0;
  uint32_t partition_count = 1;
  uint64_t slice_lo = 0;          ///< first owned value (0 for full domain)
  uint64_t batches_consumed = 0;  ///< replay watermark
  uint64_t rows_seen = 0;
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t dummies_recognized = 0;
  uint64_t dummies_expected = 0;
  /// Supports over the owned slice (length = slice size;
  /// the full domain for single-node / kByClient workers).
  std::vector<uint64_t> supports;
  /// Spot-check dummies not yet matched: (packed report, tag) -> count.
  std::map<std::pair<uint64_t, uint64_t>, uint64_t> dummies_remaining;
};

/// Finalized state of a *closed* round, made durable before the result
/// is handed out. Everything downstream of these fields — Finalize-order
/// merge and estimator calibration — is a deterministic pure function,
/// so replaying the journal reproduces the RoundResult bitwise.
///
/// Payload: u64 round_id, varint partition index, varint partition
/// count, varint slice lo, varint n, varint n_fake, u8 calibration,
/// varint reports_decoded, varint reports_invalid, varint
/// dummies_recognized, varint dummies_expected, varint slice length,
/// that many varint supports.
struct RoundJournal {
  uint64_t round_id = 0;
  uint32_t partition_index = 0;
  uint32_t partition_count = 1;
  uint64_t slice_lo = 0;
  uint64_t n = 0;
  uint64_t n_fake = 0;
  uint8_t calibration = 0;  ///< service::Calibration wire value
  uint64_t reports_decoded = 0;
  uint64_t reports_invalid = 0;
  uint64_t dummies_recognized = 0;
  uint64_t dummies_expected = 0;
  std::vector<uint64_t> supports;  ///< finalized, length = slice size
};

/// Payload codecs. The parsers reject lying inner lengths, out-of-range
/// partition fields, and trailing bytes with DataLoss.
Bytes SerializeCheckpointPayload(const CheckpointState& state);
Result<CheckpointState> ParseCheckpointPayload(const Bytes& payload);
Bytes SerializeJournalPayload(const RoundJournal& journal);
Result<RoundJournal> ParseJournalPayload(const Bytes& payload);

/// Stage + fsync + rename a magic/version/CRC-framed payload (16-byte
/// header: 4-byte magic, kFramedFileVersion, 3 reserved zero bytes, u32
/// payload length, CRC-32 of the payload): a crash at any point leaves
/// either the old file or the new one at `path`, never a torn mix. All
/// storage syscalls go through the fault-injectable wrappers in wal.h,
/// so ENOSPC surfaces as kResourceExhausted.
Status WriteFramedFile(const std::string& path, const uint8_t magic[4],
                       const Bytes& payload, const char* what);
/// Reads and validates a framed file: magic, version, reserved bytes,
/// length, and CRC must all match or the read fails (DataLoss) without
/// returning a partial payload. A missing file is NotFound.
Result<Bytes> ReadFramedFile(const std::string& path, const uint8_t magic[4],
                             const char* what);

}  // namespace service
}  // namespace shuffledp

#endif  // SHUFFLEDP_SERVICE_CHECKPOINT_H_
