// Round-state recovery through the durable round store: the payload
// codecs segments embed (round trip, the golden-pinned live-round
// payload) and the end-to-end guarantee — a round killed mid-drain and
// recovered via RecoverRound() finishes with supports and estimates
// bitwise identical to an uninterrupted run.

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "service/checkpoint.h"
#include "service/fault_injection.h"
#include "service/round_store.h"
#include "service/streaming_collector.h"
#include "util/rng.h"

namespace shuffledp {
namespace service {
namespace {

std::string TempDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shuffledp_" + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  return dir;
}

void RemoveTree(const std::string& dir) {
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

std::vector<uint8_t> ReadRaw(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::vector<uint8_t> bytes;
  if (f != nullptr) {
    uint8_t buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.insert(bytes.end(), buf, buf + got);
    }
    std::fclose(f);
  }
  return bytes;
}

CheckpointState SampleState() {
  CheckpointState state;
  state.round_id = 3;
  state.batches_consumed = 17;
  state.rows_seen = 17 * 256;
  state.reports_decoded = 4300;
  state.reports_invalid = 12;
  state.dummies_recognized = 2;
  state.dummies_expected = 5;
  state.supports = {0, 5, 123, 0, 99999999, 1};
  state.dummies_remaining[{0x1234567890ABCDEFULL, 7}] = 2;
  state.dummies_remaining[{42, 0}] = 1;
  return state;
}

TEST(CheckpointPayload, RoundTrip) {
  CheckpointState state = SampleState();
  auto read = ParseCheckpointPayload(SerializeCheckpointPayload(state));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->round_id, state.round_id);
  EXPECT_EQ(read->batches_consumed, state.batches_consumed);
  EXPECT_EQ(read->rows_seen, state.rows_seen);
  EXPECT_EQ(read->reports_decoded, state.reports_decoded);
  EXPECT_EQ(read->reports_invalid, state.reports_invalid);
  EXPECT_EQ(read->dummies_recognized, state.dummies_recognized);
  EXPECT_EQ(read->dummies_expected, state.dummies_expected);
  EXPECT_EQ(read->supports, state.supports);
  EXPECT_EQ(read->dummies_remaining, state.dummies_remaining);

  // Every strict prefix is a lying length somewhere: rejected, never a
  // partial state.
  Bytes payload = SerializeCheckpointPayload(state);
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        ParseCheckpointPayload(Bytes(payload.begin(), payload.begin() + len))
            .ok())
        << "len=" << len;
  }
  payload.push_back(0);
  EXPECT_EQ(ParseCheckpointPayload(payload).status().code(),
            StatusCode::kDataLoss);
}

// The worked example in docs/WIRE_FORMAT.md §3, byte for byte, both from
// the codec and as the inner payload of a live round's segment file. If
// this breaks, update the doc with the new bytes or fix the code — never
// the test alone.
TEST(CheckpointPayload, GoldenVectorMatchesDoc) {
  CheckpointState state;
  state.round_id = 3;
  state.batches_consumed = 2;
  state.rows_seen = 2;
  state.reports_decoded = 2;
  state.supports = {1, 1};
  const Bytes expected = {
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // round_id 3
      0x00, 0x01, 0x00,                                // partition 0/1, lo 0
      0x02, 0x02, 0x02, 0x00, 0x00, 0x00,              // tallies
      0x02, 0x01, 0x01,                                // d=2, supports {1,1}
      0x00,                                            // no dummy entries
  };
  EXPECT_EQ(SerializeCheckpointPayload(state), expected);

  const std::string dir = TempDir("golden_live_segment");
  RoundStoreOptions options;
  options.dir = dir;
  options.slice_width = 2;
  auto store = SegmentedRoundStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  RoundDelta delta;
  delta.round_id = 3;
  delta.batch_lo = 0;
  delta.batch_hi = 2;
  delta.rows_delta = 2;
  delta.decoded_delta = 2;
  delta.support_deltas = {{0, 1}, {1, 1}};
  ASSERT_TRUE((*store)->AppendDelta(delta, {}).ok());
  ASSERT_TRUE((*store)->CompactNow().ok());
  // Segment payload (§7): u64 round id, u64 last LSN, u8 finalized,
  // varint watermark, then the live-round payload above.
  const std::vector<uint8_t> segment = ReadRaw((*store)->SegmentPath(3));
  const size_t inner = 16 + 8 + 8 + 1 + 1;
  ASSERT_EQ(segment.size(), inner + expected.size());
  EXPECT_EQ(segment[inner - 2], 0x00);  // live
  EXPECT_EQ(segment[inner - 1], 0x02);  // watermark 2
  EXPECT_EQ(Bytes(segment.begin() + inner, segment.end()), expected);
  RemoveTree(dir);
}

TEST(JournalPayload, RoundTrip) {
  RoundJournal journal;
  journal.round_id = 5;
  journal.partition_index = 2;
  journal.partition_count = 4;
  journal.slice_lo = 96;
  journal.n = 120000;
  journal.n_fake = 7500;
  journal.calibration = 1;
  journal.reports_decoded = 123456;
  journal.reports_invalid = 77;
  journal.dummies_recognized = 3;
  journal.dummies_expected = 3;
  journal.supports = {9, 0, 12345, 2};
  Bytes payload = SerializeJournalPayload(journal);
  auto read = ParseJournalPayload(payload);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->round_id, journal.round_id);
  EXPECT_EQ(read->partition_index, journal.partition_index);
  EXPECT_EQ(read->partition_count, journal.partition_count);
  EXPECT_EQ(read->slice_lo, journal.slice_lo);
  EXPECT_EQ(read->n, journal.n);
  EXPECT_EQ(read->n_fake, journal.n_fake);
  EXPECT_EQ(read->calibration, journal.calibration);
  EXPECT_EQ(read->reports_decoded, journal.reports_decoded);
  EXPECT_EQ(read->supports, journal.supports);

  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(
        ParseJournalPayload(Bytes(payload.begin(), payload.begin() + len))
            .ok())
        << "len=" << len;
  }
  // Partition index 4 of 4 is out of range.
  payload[8] = 4;
  EXPECT_EQ(ParseJournalPayload(payload).status().code(),
            StatusCode::kDataLoss);
}

// Deterministic batch b of the synthetic round (self-seeded, so any
// suffix replays bit-identically — the same property the protocol
// encode phases have via fixed-chunk seeding).
std::vector<ldp::LdpReport> BatchReports(
    const ldp::ScalarFrequencyOracle& oracle, uint64_t b, size_t batch_size) {
  Rng rng(0xC0FFEE + b);
  std::vector<ldp::LdpReport> reports;
  reports.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    reports.push_back(
        oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng));
  }
  return reports;
}

void KillAndRecoverBitwise(const ldp::ScalarFrequencyOracle& oracle,
                           const std::string& tag) {
  const uint64_t kBatches = 40;
  const uint64_t kOffered = 23;
  const size_t kBatchSize = 128;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir = TempDir("recover_" + tag);

  StreamingOptions plain;
  plain.batch_size = kBatchSize;

  // Ground truth: uninterrupted run.
  RoundResult expected;
  {
    StreamingCollector collector(oracle, plain);
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE(collector
                      .Offer(MakePlainBatch(BatchReports(oracle, b,
                                                         kBatchSize)))
                      .ok());
    }
    auto result = collector.FinishRound(n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok());
    expected = std::move(*result);
  }

  // Crash run: the disk dies partway through the offered batches (the
  // storage kill switch fails every write and fsync from the 35th
  // storage operation on, as after a power cut), then the process goes.
  StreamingOptions durable = plain;
  durable.round_store.dir = dir;
  {
    FaultInjector injector;
    injector.ArmStorageKill(35, EIO);
    ScopedFaultInjector installed(&injector);
    StreamingCollector collector(oracle, durable);
    for (uint64_t b = 0; b < kOffered; ++b) {
      // Offers start failing once the dead disk fails the round.
      (void)collector.Offer(
          MakePlainBatch(BatchReports(oracle, b, kBatchSize)));
    }
  }

  // Recover and replay from the durable watermark, the way a restarted
  // server does: a fresh collector opens the store and loads its rounds.
  {
    StreamingCollector collector(oracle, durable);
    ASSERT_NE(collector.store(), nullptr);
    auto rounds = collector.store()->LoadAll();
    ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
    ASSERT_EQ(rounds->size(), 1u);
    const StoredRound& live = (*rounds)[0];
    ASSERT_FALSE(live.finalized);
    // Some batches made it to disk, the tail did not.
    EXPECT_GT(live.batches_consumed, 0u);
    EXPECT_LT(live.batches_consumed, kOffered);

    auto watermark = collector.RecoverRound(live.state);
    ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
    EXPECT_EQ(*watermark, live.batches_consumed);
    for (uint64_t b = *watermark; b < kBatches; ++b) {
      ASSERT_TRUE(collector
                      .Offer(MakePlainBatch(BatchReports(oracle, b,
                                                         kBatchSize)))
                      .ok());
    }
    auto result = collector.FinishRound(n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->supports, expected.supports);
    EXPECT_EQ(result->estimates, expected.estimates);
    EXPECT_EQ(result->reports_decoded, expected.reports_decoded);
    EXPECT_EQ(result->reports_invalid, expected.reports_invalid);
    // The completed round is finalized in the store, no longer live.
    auto lookup = collector.store()->Query(0);
    ASSERT_TRUE(lookup.ok());
    EXPECT_EQ(lookup->status, RoundStatus::kFinalized);
    EXPECT_EQ(lookup->watermark, kBatches);
  }
  RemoveTree(dir);
}

// The crash window between the round close and the result being read:
// the finalized round is journaled in the store before the result is
// handed out, and the journal must replay to the exact result, bitwise.
TEST(RoundJournal, FinalizedRoundReplaysBitwise) {
  const std::string dir = TempDir("journal_replay");
  ldp::Grr grr(2.0, 32);
  StreamingOptions options;
  options.batch_size = 64;
  options.round_store.dir = dir;

  Rng rng(31337);
  std::vector<ldp::LdpReport> reports;
  for (int i = 0; i < 2000; ++i) {
    reports.push_back(grr.Encode(i % 32, &rng));
  }

  RoundResult live;
  {
    StreamingCollector collector(grr, options);
    ASSERT_TRUE(collector.OfferReports(reports).ok());
    auto result =
        collector.FinishRound(reports.size(), 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    live = std::move(*result);
  }

  // "Restarted" collector: the store holds exactly the finalized round,
  // whose journal replays to a bitwise-equal result and advances the
  // round id past the journaled round.
  StreamingCollector recovered(grr, options);
  auto rounds = recovered.store()->LoadAll();
  ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
  ASSERT_EQ(rounds->size(), 1u);
  ASSERT_TRUE((*rounds)[0].finalized);
  const RoundJournal& journal = (*rounds)[0].journal;
  EXPECT_EQ(journal.round_id, 0u);
  auto replay = recovered.RecoverFinalizedRound(journal);
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->supports, live.supports);
  EXPECT_EQ(replay->estimates, live.estimates);  // bitwise (exact ==)
  EXPECT_EQ(replay->reports_decoded, live.reports_decoded);
  EXPECT_EQ(replay->reports_invalid, live.reports_invalid);
  EXPECT_EQ(recovered.round_id(), 1u);

  // A journal for someone else's partition must be refused.
  RoundJournal foreign = journal;
  foreign.partition_index = 1;
  foreign.partition_count = 2;
  EXPECT_EQ(recovered.RecoverFinalizedRound(foreign).status().code(),
            StatusCode::kFailedPrecondition);
  RemoveTree(dir);
}

TEST(CheckpointRecovery, KillMidRoundRecoversBitwiseGrr) {
  ldp::Grr grr(2.0, 64);  // histogram fast path
  KillAndRecoverBitwise(grr, "grr");
}

TEST(CheckpointRecovery, KillMidRoundRecoversBitwiseSolh) {
  ldp::LocalHash solh(2.0, 300, 8, "SOLH");  // full domain-scan path
  KillAndRecoverBitwise(solh, "solh");
}

TEST(CheckpointRecovery, DummyMultisetSurvivesRecovery) {
  ldp::Grr grr(2.0, 32);
  const std::string dir = TempDir("recover_dummies");

  StreamingOptions options;
  options.batch_size = 16;
  options.round_store.dir = dir;

  // Plant 4 dummies; deliver 2 before the crash and 2 after recovery.
  std::vector<ldp::LdpReport> dummies;
  for (uint32_t v = 0; v < 4; ++v) {
    ldp::LdpReport rep;
    rep.value = v;
    dummies.push_back(rep);
  }
  {
    StreamingCollector collector(grr, options);
    for (const auto& d : dummies) collector.ExpectDummy(d, 0);
    ASSERT_TRUE(
        collector.Offer(MakePlainBatch({dummies[0], dummies[1]})).ok());
  }

  StreamingCollector collector(grr, options);
  auto rounds = collector.store()->LoadAll();
  ASSERT_TRUE(rounds.ok()) << rounds.status().ToString();
  ASSERT_EQ(rounds->size(), 1u);
  const CheckpointState& state = (*rounds)[0].state;
  EXPECT_EQ(state.dummies_recognized, 2u);
  EXPECT_EQ(state.dummies_expected, 4u);
  EXPECT_EQ(state.dummies_remaining.size(), 2u);

  ASSERT_TRUE(collector.RecoverRound(state).ok());
  ASSERT_TRUE(
      collector.Offer(MakePlainBatch({dummies[2], dummies[3]})).ok());
  auto result = collector.FinishRound(100, 0, Calibration::kStandard);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dummies_recognized, 4u);
  EXPECT_TRUE(result->spot_check_passed);
  // All four were dummies: nothing real was counted.
  EXPECT_EQ(result->reports_decoded, 0u);
  RemoveTree(dir);
}

TEST(CheckpointRecovery, RecoverRequiresFreshCollector) {
  ldp::Grr grr(2.0, 16);
  StreamingOptions options;
  StreamingCollector collector(grr, options);
  ASSERT_TRUE(
      collector.Offer(MakePlainBatch(BatchReports(grr, 0, 8))).ok());
  CheckpointState state;
  state.supports.assign(16, 0);
  auto recovered = collector.RecoverRound(state);
  EXPECT_EQ(recovered.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointRecovery, UnwritablePathAbortsTheRound) {
  ldp::Grr grr(2.0, 16);
  StreamingOptions options;
  options.batch_size = 8;
  options.round_store.dir = "/nonexistent-dir/never";
  StreamingCollector collector(grr, options);
  // The store cannot open, so the pipeline refuses the round up front
  // rather than silently running without durability.
  Status offered = collector.Offer(MakePlainBatch(BatchReports(grr, 0, 8)));
  ASSERT_FALSE(offered.ok());
  EXPECT_EQ(offered.code(), StatusCode::kInternal);
  auto result = collector.FinishRound(8, 0, Calibration::kStandard);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
