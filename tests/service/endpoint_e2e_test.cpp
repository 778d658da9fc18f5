// Loopback endpoint end-to-end: the networked collection path must be
// indistinguishable — bitwise — from the in-process streaming path, at
// n >= 10^5, and a server killed mid-round must recover from its
// round store and converge to the identical result.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/shuffle_dp.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "service/round_store.h"
#include "service/transport.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace shuffledp {
namespace service {
namespace {

TEST(EndpointE2e, BitwiseIdenticalToInProcessAtScale) {
  const uint64_t n = 120000;  // >= 10^5 per the acceptance bar
  const uint64_t d = 512;

  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 8192;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok()) << collector.status().ToString();

  std::vector<uint64_t> values(n);
  Rng data_rng(7);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = data_rng.Bernoulli(0.10) ? 0 : 1 + data_rng.UniformU64(d - 1);
  }

  CollectionServerOptions server_options;
  server_options.streaming = options.streaming;
  auto server =
      CollectionServer::Start((*collector)->oracle(), server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  Rng remote_rng(1234);
  auto remote = (*collector)->CollectRemote(values, &remote_rng,
                                            client->get(),
                                            (*server)->round_id());
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();

  Rng local_rng(1234);
  auto local = (*collector)->CollectStreaming(values, &local_rng);
  ASSERT_TRUE(local.ok()) << local.status().ToString();

  EXPECT_EQ(remote->supports, local->supports);
  EXPECT_EQ(remote->estimates, local->estimates);  // bitwise (exact ==)
  EXPECT_EQ(remote->reports_decoded, local->reports_decoded);
  EXPECT_EQ(remote->reports_invalid, local->reports_invalid);
  EXPECT_GT(remote->reports_decoded, n);  // users + non-padding fakes
}

TEST(EndpointE2e, SecondRoundOnTheSameEndpointAlsoMatches) {
  const uint64_t n = 20000;
  const uint64_t d = 128;
  core::PrivacyGoals goals;
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 2048;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  ASSERT_TRUE(collector.ok());

  std::vector<uint64_t> values(n);
  Rng data_rng(8);
  for (uint64_t i = 0; i < n; ++i) values[i] = data_rng.UniformU64(d);

  CollectionServerOptions server_options;
  server_options.streaming = options.streaming;
  auto server =
      CollectionServer::Start((*collector)->oracle(), server_options);
  ASSERT_TRUE(server.ok());
  auto client = CollectorClient::Connect("localhost", (*server)->port());
  ASSERT_TRUE(client.ok());

  for (uint64_t seed : {11u, 22u}) {
    Rng remote_rng(seed);
    auto remote = (*collector)->CollectRemote(values, &remote_rng,
                                              client->get(),
                                              (*server)->round_id());
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    Rng local_rng(seed);
    auto local = (*collector)->CollectStreaming(values, &local_rng);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(remote->supports, local->supports);
    EXPECT_EQ(remote->estimates, local->estimates);
  }
}

// Deterministic synthetic batch for the restart test (self-seeded like
// the protocol encode phases, so the client can replay any suffix).
std::vector<uint64_t> BatchOrdinals(const ldp::ScalarFrequencyOracle& oracle,
                                    uint64_t b, size_t batch_size) {
  Rng rng(0xFEED + b);
  std::vector<uint64_t> ordinals;
  ordinals.reserve(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    ordinals.push_back(oracle.PackOrdinal(
        oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
  }
  return ordinals;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "shuffledp_" + name;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  return dir;
}

// Every round a stopped single-node endpoint left in its store directory
// (what a restarted endpoint will recover).
std::vector<StoredRound> LoadStoredRounds(const std::string& dir,
                                          uint64_t domain) {
  RoundStoreOptions options;
  options.dir = dir;
  options.slice_width = domain;
  auto store = SegmentedRoundStore::Open(options);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  if (!store.ok()) return {};
  auto rounds = (*store)->LoadAll();
  EXPECT_TRUE(rounds.ok()) << rounds.status().ToString();
  return rounds.ok() ? *rounds : std::vector<StoredRound>{};
}

TEST(EndpointE2e, ServerRestartMidRoundConvergesToUninterruptedResult) {
  ldp::Grr grr(2.0, 64);
  const uint64_t kBatches = 60;
  const size_t kBatchSize = 256;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir = FreshDir("endpoint_store");

  CollectionServerOptions options;
  options.streaming.batch_size = kBatchSize;
  options.streaming.round_store.dir = dir;

  // Ground truth: one uninterrupted (equally durable) server round.
  RemoteRoundResult expected;
  const std::string plain_dir = FreshDir("endpoint_store_plain");
  {
    CollectionServerOptions plain = options;
    plain.streaming.round_store.dir = plain_dir;
    auto server = CollectionServer::Start(grr, plain);
    ASSERT_TRUE(server.ok());
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    const uint64_t round = (*server)->round_id();
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(round, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    auto result =
        (*client)->FinishRound(round, n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected = std::move(*result);
  }
  ASSERT_EQ(std::system(("rm -rf '" + plain_dir + "'").c_str()), 0);

  // Interrupted run: send 35 batches, wait until some of them are
  // durable, then kill the server.
  {
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok());
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    const uint64_t round = (*server)->round_id();
    EXPECT_EQ(round, 0u);
    for (uint64_t b = 0; b < 35; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(round, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    // TCP delivery is asynchronous: wait until the store holds durable
    // batches so the "crash" below reliably has something to recover
    // from. The destructor's drain then persists whatever else the
    // kernel delivered.
    auto durable_watermark = [&] {
      auto lookup = (*server)->store()->Query(round);
      return lookup.ok() ? lookup->watermark : 0;
    };
    for (int spin = 0; spin < 2000 && durable_watermark() < 8; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(durable_watermark(), 8u);
    (*server)->Shutdown();
  }

  const std::vector<StoredRound> stored = LoadStoredRounds(dir, 64);
  ASSERT_EQ(stored.size(), 1u);
  ASSERT_FALSE(stored[0].finalized);
  const CheckpointState& snapshot = stored[0].state;
  ASSERT_GT(snapshot.batches_consumed, 0u);
  ASSERT_LE(snapshot.batches_consumed, 35u);

  // Recovered server: the client asks where to resume and replays the
  // suffix (batch self-seeding makes the replay bit-identical).
  {
    CollectionServerOptions recover_options = options;
    recover_options.recover = true;
    auto server = CollectionServer::Start(grr, recover_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());

    uint64_t round = 0;
    auto watermark = (*client)->QueryWatermark(&round);
    ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
    EXPECT_EQ(*watermark, snapshot.batches_consumed);
    EXPECT_EQ(round, snapshot.round_id);

    for (uint64_t b = *watermark; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(round, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    auto result =
        (*client)->FinishRound(round, n, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->supports, expected.supports);
    EXPECT_EQ(result->estimates, expected.estimates);
    EXPECT_EQ(result->reports_decoded, expected.reports_decoded);
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// The post-close crash window: the server finalized the round (journal
// durable in the store) and died before the client read the result. The restarted server must serve the journaled result for that
// round — bitwise — and still run new rounds afterwards.
TEST(EndpointE2e, RestartAfterRoundCloseServesJournaledResult) {
  ldp::Grr grr(2.0, 32);
  const std::string dir = FreshDir("endpoint_journal_store");

  CollectionServerOptions options;
  options.streaming.batch_size = 128;
  options.streaming.round_store.dir = dir;

  RemoteRoundResult original;
  {
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t b = 0; b < 10; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(0, grr, BatchOrdinals(grr, b, 128))
                      .ok());
    }
    auto result = (*client)->FinishRound(0, 1280, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    original = std::move(*result);
    auto lookup = (*server)->store()->Query(0);
    ASSERT_TRUE(lookup.ok());
    EXPECT_EQ(lookup->status, RoundStatus::kFinalized);
    (*server)->Shutdown();  // "crash" after close; client got the result,
                            // but a real crash may race the read
  }
  const std::vector<StoredRound> stored = LoadStoredRounds(dir, 32);
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_TRUE(stored[0].finalized);
  EXPECT_EQ(stored[0].round_id(), 0u);

  {
    CollectionServerOptions recover_options = options;
    recover_options.recover = true;
    auto server = CollectionServer::Start(grr, recover_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    // The worker resumed *after* the journaled round.
    EXPECT_EQ((*server)->round_id(), 1u);

    // Re-asking with *different* close parameters must be refused — a
    // journaled result is only valid for the parameters it closed with.
    {
      auto probe = CollectorClient::Connect("127.0.0.1", (*server)->port());
      ASSERT_TRUE(probe.ok());
      auto wrong = (*probe)->FinishRound(0, 9999, 0, Calibration::kStandard);
      ASSERT_FALSE(wrong.ok());
      EXPECT_EQ(wrong.status().code(), StatusCode::kProtocolViolation);
    }

    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    // Re-asking for round 0 replays the journal bitwise.
    auto replay = (*client)->FinishRound(0, 1280, 0, Calibration::kStandard);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
    EXPECT_EQ(replay->supports, original.supports);
    EXPECT_EQ(replay->estimates, original.estimates);
    EXPECT_EQ(replay->reports_decoded, original.reports_decoded);

    // And the endpoint is not stuck in the past: round 1 works.
    ASSERT_TRUE((*client)->SendOrdinals(1, grr, {1, 2, 3}).ok());
    auto next = (*client)->FinishRound(1, 3, 0, Calibration::kStandard);
    ASSERT_TRUE(next.ok()) << next.status().ToString();
    EXPECT_EQ(next->reports_decoded, 3u);
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// Segmented-store e2e: two rounds over one endpoint, the server killed
// while round 1 is mid-flight. kQuery must serve round 0's finalized
// result bitwise before AND after the restart, report round 1 as active
// with its durable watermark, and the replayed round 1 must match an
// uninterrupted run bitwise.
TEST(EndpointE2e, DurableStoreServesQueryAcrossRestartMultiRound) {
  ldp::Grr grr(2.0, 32);
  const uint64_t kBatches = 10;
  const size_t kBatchSize = 128;
  const uint64_t n = kBatches * kBatchSize;
  const std::string dir = ::testing::TempDir() + "shuffledp_e2e_store";
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);

  CollectionServerOptions options;
  options.streaming.batch_size = kBatchSize;
  options.streaming.round_store.dir = dir;
  options.streaming.round_store.sync_every_records = 1;
  options.streaming.round_store.compact_every_records = 4;

  // Ground truth: both rounds on a store-less endpoint. Round r's batch
  // b self-seeds as BatchOrdinals(100 * r + b), so any suffix replays
  // bit-identically.
  RemoteRoundResult expected[2];
  {
    CollectionServerOptions plain;
    plain.streaming.batch_size = kBatchSize;
    auto server = CollectionServer::Start(grr, plain);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t r = 0; r < 2; ++r) {
      for (uint64_t b = 0; b < kBatches; ++b) {
        ASSERT_TRUE(
            (*client)
                ->SendOrdinals(r, grr,
                               BatchOrdinals(grr, 100 * r + b, kBatchSize))
                .ok());
      }
      auto result = (*client)->FinishRound(r, n, 0, Calibration::kStandard);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      expected[r] = std::move(*result);
    }
  }

  // Durable run: finish round 0, kill the server mid-round-1.
  {
    auto server = CollectionServer::Start(grr, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (uint64_t b = 0; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(0, grr,
                                     BatchOrdinals(grr, b, kBatchSize))
                      .ok());
    }
    auto r0 = (*client)->FinishRound(0, n, 0, Calibration::kStandard);
    ASSERT_TRUE(r0.ok()) << r0.status().ToString();
    ASSERT_EQ(r0->supports, expected[0].supports);

    for (uint64_t b = 0; b < 6; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(1, grr,
                                     BatchOrdinals(grr, 100 + b, kBatchSize))
                      .ok());
    }

    // Live queries: TCP delivery is asynchronous, so spin until the
    // consumer accepted all six batches before pinning the watermark.
    RoundQuery live;
    for (int spin = 0; spin < 2000; ++spin) {
      auto q = (*client)->QueryRound(1);
      ASSERT_TRUE(q.ok()) << q.status().ToString();
      live = *q;
      if (live.watermark >= 6) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(live.status, RoundStatus::kActive);
    EXPECT_EQ(live.watermark, 6u);
    EXPECT_FALSE(live.durability_degraded);

    auto finalized = (*client)->QueryRound(0);
    ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
    EXPECT_EQ(finalized->status, RoundStatus::kFinalized);
    EXPECT_EQ(finalized->n, n);
    EXPECT_EQ(finalized->result.supports, expected[0].supports);
    EXPECT_EQ(finalized->result.estimates, expected[0].estimates);

    auto unknown = (*client)->QueryRound(99);
    ASSERT_TRUE(unknown.ok()) << unknown.status().ToString();
    EXPECT_EQ(unknown->status, RoundStatus::kUnknown);

    (*server)->Shutdown();  // crash with round 1 in flight
  }

  // Recovered endpoint: round 0 still served bitwise from the store,
  // round 1 resumed from its durable watermark and finished bitwise.
  {
    CollectionServerOptions recover_options = options;
    recover_options.recover = true;
    auto server = CollectionServer::Start(grr, recover_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());

    auto finalized = (*client)->QueryRound(0);
    ASSERT_TRUE(finalized.ok()) << finalized.status().ToString();
    EXPECT_EQ(finalized->status, RoundStatus::kFinalized);
    EXPECT_FALSE(finalized->durability_degraded);
    EXPECT_EQ(finalized->result.supports, expected[0].supports);
    EXPECT_EQ(finalized->result.estimates, expected[0].estimates);
    EXPECT_EQ(finalized->result.reports_decoded, expected[0].reports_decoded);

    uint64_t round = 0;
    auto watermark = (*client)->QueryWatermark(&round);
    ASSERT_TRUE(watermark.ok()) << watermark.status().ToString();
    EXPECT_EQ(round, 1u);
    EXPECT_EQ(*watermark, 6u);  // sync_every_records=1: every batch durable

    auto live = (*client)->QueryRound(1);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    EXPECT_EQ(live->status, RoundStatus::kActive);
    EXPECT_EQ(live->watermark, *watermark);

    for (uint64_t b = *watermark; b < kBatches; ++b) {
      ASSERT_TRUE((*client)
                      ->SendOrdinals(1, grr,
                                     BatchOrdinals(grr, 100 + b, kBatchSize))
                      .ok());
    }
    auto r1 = (*client)->FinishRound(1, n, 0, Calibration::kStandard);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    EXPECT_EQ(r1->supports, expected[1].supports);
    EXPECT_EQ(r1->estimates, expected[1].estimates);
    EXPECT_EQ(r1->reports_decoded, expected[1].reports_decoded);

    auto closed = (*client)->QueryRound(1);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    EXPECT_EQ(closed->status, RoundStatus::kFinalized);
    EXPECT_EQ(closed->result.supports, expected[1].supports);
    EXPECT_EQ(closed->result.estimates, expected[1].estimates);
  }
  ASSERT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(EndpointE2e, WatermarkIsZeroOutsideTheRecoveredRound) {
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok());
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());

  // Fresh start: nothing to resume.
  uint64_t round = 99;
  auto watermark = (*client)->QueryWatermark(&round);
  ASSERT_TRUE(watermark.ok());
  EXPECT_EQ(*watermark, 0u);
  EXPECT_EQ(round, 0u);

  // After a round closes the answer must stay 0 (a stale watermark
  // paired with a later round would make a resuming client skip that
  // round's first batches).
  ASSERT_TRUE((*client)->SendOrdinals(0, grr, {1, 2, 3}).ok());
  ASSERT_TRUE(
      (*client)->FinishRound(0, 3, 0, Calibration::kStandard).ok());
  watermark = (*client)->QueryWatermark(&round);
  ASSERT_TRUE(watermark.ok());
  EXPECT_EQ(*watermark, 0u);
  EXPECT_EQ(round, 1u);
}

TEST(EndpointE2e, WrongRoundIdIsRejected) {
  ldp::Grr grr(2.0, 16);
  CollectionServerOptions options;
  auto server = CollectionServer::Start(grr, options);
  ASSERT_TRUE(server.ok());
  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      (*client)->SendOrdinals((*server)->round_id() + 5, grr, {1, 2}).ok());
  // The server answers with a kError frame and drops the connection; the
  // next read surfaces it.
  auto result = (*client)->ReadRoundResult();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kProtocolViolation);
}

// A calibrated close divides by n·(p − q), so n = 0 would hand the
// client ±inf/NaN estimates built from network input. The endpoint must
// refuse it without closing the round; a later valid close still works,
// and a raw-supports (kNone) close stays legal with any n.
TEST(EndpointE2e, CalibratedFinishWithZeroUsersIsRejected) {
  ldp::Grr grr(2.0, 16);
  auto server = CollectionServer::Start(grr, CollectionServerOptions());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (Calibration cal : {Calibration::kStandard, Calibration::kOrdinal}) {
    auto bad = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(bad.ok());
    if (cal == Calibration::kStandard) {
      ASSERT_TRUE((*bad)->SendOrdinals(0, grr, {1, 2, 3}).ok());
    }
    auto refused = (*bad)->FinishRound(0, 0, 0, cal);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kProtocolViolation);
    EXPECT_EQ((*server)->round_id(), 0u);
  }

  auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto closed = (*client)->FinishRound(0, 3, 0, Calibration::kStandard);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_EQ(closed->reports_decoded, 3u);
  for (double e : closed->estimates) EXPECT_TRUE(std::isfinite(e));

  auto raw = (*client)->FinishRound(1, 0, 0, Calibration::kNone);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_TRUE(raw->estimates.empty());
}

// Runs Shutdown() under a watchdog. On a missed deadline the server is
// leaked (its loop thread is stuck) so the test fails instead of hanging.
bool ShutdownWithin(std::unique_ptr<CollectionServer> server,
                    std::chrono::seconds deadline) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  CollectionServer* raw = server.release();
  std::thread([raw, done] {
    raw->Shutdown();
    done->set_value();
  }).detach();
  if (finished.wait_for(deadline) != std::future_status::ready) return false;
  delete raw;
  return true;
}

// SOLH batches at d' = 19: users' reports plus uniform Z_{2^B} fakes,
// so every batch also carries padding ordinals that decode as invalid.
std::vector<std::vector<uint64_t>> SolhBatches(const ldp::LocalHash& solh,
                                               uint64_t n, uint64_t n_fake,
                                               size_t batch_size) {
  Rng rng(0x501F);
  std::vector<uint64_t> ordinals;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = rng.Bernoulli(0.2) ? 3 : rng.UniformU64(
                                                    solh.domain_size());
    ordinals.push_back(solh.PackOrdinal(solh.Encode(v, &rng)));
  }
  for (uint64_t i = 0; i < n_fake; ++i) {
    ordinals.push_back(rng.UniformU64(uint64_t{1} << solh.PackedBits()));
  }
  for (uint64_t i = ordinals.size(); i > 1; --i) {
    std::swap(ordinals[i - 1], ordinals[rng.UniformU64(i)]);
  }
  std::vector<std::vector<uint64_t>> batches;
  for (size_t lo = 0; lo < ordinals.size(); lo += batch_size) {
    const size_t hi = std::min(ordinals.size(), lo + batch_size);
    batches.emplace_back(ordinals.begin() + lo, ordinals.begin() + hi);
  }
  return batches;
}

// An endpoint started without a pool evaluates supports on the process
// pool; one given a pool uses that. Neither may change a bit of the
// round: supports and estimates equal the in-process serial collector's
// whatever the pool (none, so the process pool; one worker, which runs
// serially; three workers, which split the value range).
TEST(EndpointE2e, PoolChoiceNeverChangesSolhResult) {
  const ldp::LocalHash solh(4.0, 200, 19, "SOLH");
  const uint64_t n = 30000, n_fake = 12000;
  const auto batches = SolhBatches(solh, n, n_fake, 2048);

  StreamingCollector reference(solh, StreamingOptions());
  for (const auto& batch : batches) {
    ASSERT_TRUE(reference.Offer(MakeOrdinalBatch(batch)).ok());
  }
  auto want = reference.FinishRound(n, n_fake, Calibration::kOrdinal);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_GT(want->reports_invalid, 0u);  // padding ordinals were dropped

  ThreadPool one(1), three(3);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &three}) {
    const unsigned workers = pool == nullptr ? 0 : pool->num_threads();
    CollectionServerOptions options;
    options.streaming.pool = pool;
    auto server = CollectionServer::Start(solh, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    for (size_t b = 0; b < batches.size(); ++b) {
      ASSERT_TRUE((*client)->SendOrdinals(0, b, solh, batches[b]).ok());
    }
    auto got = (*client)->FinishRound(0, n, n_fake, Calibration::kOrdinal);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->supports, want->supports) << "pool workers=" << workers;
    EXPECT_EQ(got->estimates, want->estimates)  // bitwise (exact ==)
        << "pool workers=" << workers;
    EXPECT_EQ(got->reports_decoded, want->reports_decoded);
    EXPECT_EQ(got->reports_invalid, want->reports_invalid);
  }
}

// An endpoint started from inside a process-pool task defaults to the
// very pool whose worker it runs on; its worker must notice and process
// serially. One such endpoint per pool worker, all started before any
// round runs, leaves no worker free: a worker that kept the pool would
// wait forever for its support split and its close-time finalize task.
// Every round completes and every endpoint shuts down within the
// watchdog.
TEST(EndpointE2e, EndpointsStartedOnEveryProcessPoolWorkerComplete) {
  // Shared with the pool tasks, which outlive a failed test.
  struct Shared {
    ldp::LocalHash solh{4.0, 64, 19, "SOLH"};
    unsigned workers = GlobalThreadPool().num_threads();
    std::mutex mu;
    std::condition_variable cv;
    unsigned started = 0;
  };
  auto shared = std::make_shared<Shared>();
  std::vector<std::future<Result<RemoteRoundResult>>> finished;
  for (unsigned t = 0; t < shared->workers; ++t) {
    auto done = std::make_shared<std::promise<Result<RemoteRoundResult>>>();
    finished.push_back(done->get_future());
    GlobalThreadPool().Submit([shared, done] {
      auto run = [&]() -> Result<RemoteRoundResult> {
        const ldp::LocalHash& solh = shared->solh;
        SHUFFLEDP_ASSIGN_OR_RETURN(
            auto server,
            CollectionServer::Start(solh, CollectionServerOptions()));
        {
          std::unique_lock<std::mutex> lock(shared->mu);
          ++shared->started;
          shared->cv.notify_all();
          if (!shared->cv.wait_for(lock, std::chrono::seconds(10), [&] {
                return shared->started == shared->workers;
              })) {
            return Status::Internal("not every pool worker started");
          }
        }
        SHUFFLEDP_ASSIGN_OR_RETURN(
            auto client,
            CollectorClient::Connect("127.0.0.1", server->port()));
        Rng rng(77);
        std::vector<uint64_t> ordinals;
        for (int i = 0; i < 5000; ++i) {
          ordinals.push_back(solh.PackOrdinal(solh.Encode(i % 64, &rng)));
        }
        SHUFFLEDP_RETURN_NOT_OK(client->SendOrdinals(0, solh, ordinals));
        auto result = client->FinishRound(0, ordinals.size(), 0,
                                          Calibration::kStandard);
        client.reset();
        server->Shutdown();
        return result;
      };
      done->set_value(run());
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (unsigned t = 0; t < shared->workers; ++t) {
    ASSERT_EQ(finished[t].wait_until(deadline), std::future_status::ready)
        << "endpoint started on process-pool worker " << t << " hung";
    Result<RemoteRoundResult> result = finished[t].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->reports_decoded, 5000u);
  }
}

// Shutdown right behind a kFinish reply races the stop request's wakeup
// against the loop iteration that delivered the reply. A wakeup consumed
// without being seen parks the loop in epoll_wait for good, so Shutdown
// never returns.
TEST(EndpointE2e, ShutdownAfterFinishNeverLosesTheWakeup) {
  ldp::Grr grr(2.0, 16);
  for (int cycle = 0; cycle < 200; ++cycle) {
    auto server = CollectionServer::Start(grr, CollectionServerOptions());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = CollectorClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    ASSERT_TRUE((*client)->SendOrdinals(0, grr, {1, 2, 3}).ok());
    auto result = (*client)->FinishRound(0, 3, 0, Calibration::kStandard);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_TRUE(ShutdownWithin(std::move(*server), std::chrono::seconds(10)))
        << "Shutdown hung in cycle " << cycle;
  }
}

}  // namespace
}  // namespace service
}  // namespace shuffledp
