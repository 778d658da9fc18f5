// solh-fleet: planner SOLH at n = 2·10^5, d = 1024 (d' = 256) in
// 4096-ordinal frames to two kByClient endpoints behind the
// PartitionRoutingClient; rounds close through the MergeCoordinator
// (merge-of-supports, then calibrate). Pre-encoded rounds are streamed back
// to back (TCP flow control is the only pacing), every round is closed, and
// each result is checked bitwise against an in-process single-node
// StreamingCollector reference built from the same ordinals.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/shuffle_dp.h"
#include "data/datasets.h"
#include "ldp/wire.h"
#include "service/coordinator.h"
#include "service/streaming_collector.h"
#include "service/transport.h"
#include "util/bytes.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace core = shuffledp::core;
namespace service = shuffledp::service;
namespace ldp = shuffledp::ldp;
using shuffledp::Result;
using shuffledp::Status;

namespace {

constexpr uint64_t kUsers = 200000;
constexpr uint64_t kDomain = 1024;
constexpr size_t kFrameSize = 4096;
constexpr uint32_t kEndpoints = 2;
/// Distinct pre-encoded rounds per run; the timed loop cycles through them.
constexpr size_t kDistinctRounds = 8;

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// Encodes one round: n Zipf(1.0) users through the oracle plus n_r
/// uniform ordinal fakes, shuffled together (a shuffler forwards the
/// whole round at once) and cut into frames of `frame_size` ordinals.
EncodedRound EncodeRound(const ldp::ScalarFrequencyOracle& oracle,
                         const shuffledp::data::ZipfSampler& zipf, uint64_t n,
                         uint64_t n_r, size_t frame_size, uint64_t seed) {
  shuffledp::Rng rng(seed);
  const uint64_t d = oracle.domain_size();
  const unsigned bits = oracle.PackedBits();
  std::vector<uint64_t> counts(d, 0);
  std::vector<uint64_t> ordinals;
  ordinals.reserve(n + n_r);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = zipf.Sample(&rng);
    ++counts[v];
    ordinals.push_back(oracle.PackOrdinal(oracle.Encode(v, &rng)));
  }
  for (uint64_t i = 0; i < n_r; ++i) {
    ordinals.push_back(bits >= 64 ? rng.NextU64()
                                  : rng.UniformU64(uint64_t{1} << bits));
  }
  for (uint64_t i = ordinals.size(); i > 1; --i) {
    std::swap(ordinals[i - 1], ordinals[rng.UniformU64(i)]);
  }
  EncodedRound round;
  round.rows = ordinals.size();
  round.truth.resize(d);
  for (uint64_t v = 0; v < d; ++v) {
    round.truth[v] = static_cast<double>(counts[v]) / static_cast<double>(n);
  }
  for (size_t lo = 0; lo < ordinals.size(); lo += frame_size) {
    const size_t hi = std::min(ordinals.size(), lo + frame_size);
    round.frames.emplace_back(ordinals.begin() + lo, ordinals.begin() + hi);
  }
  return round;
}

/// Bytes of every frame PartitionRoutingClient::SendBatch writes for one
/// round: per producer batch, one kBatchIndexed frame to each endpoint
/// with the batch index and the ordinals routed there (empty groups
/// included). Sets *frames to the number of those frames.
double ClientFrameBytes(const ldp::ScalarFrequencyOracle& oracle,
                        const service::PartitionMap& map,
                        const EncodedRound& round, uint64_t round_id,
                        uint64_t* frames) {
  double bytes = 0.0;
  *frames = 0;
  for (size_t b = 0; b < round.frames.size(); ++b) {
    for (const auto& group : map.Route(b, round.frames[b])) {
      shuffledp::ByteWriter payload;
      payload.PutVarint(b);
      payload.PutBytes(ldp::SerializeOrdinals(oracle, group));
      service::Frame frame;
      frame.type = service::FrameType::kBatchIndexed;
      frame.round_id = round_id;
      frame.payload = payload.Release();
      bytes += static_cast<double>(service::EncodeFrame(frame).size());
      ++*frames;
    }
  }
  return bytes;
}

/// One deployed fleet: the endpoints plus the generator's routing client
/// and merge coordinator.
class Fleet {
 public:
  /// `keep_alive` owns the oracle; a stalled shutdown parks it with the
  /// hung server.
  Fleet(const ldp::ScalarFrequencyOracle& oracle,
        const service::PartitionMap& map, uint64_t n_r,
        std::shared_ptr<void> keep_alive)
      : oracle_(oracle),
        map_(map),
        n_r_(n_r),
        keep_alive_(std::move(keep_alive)) {}

  /// Starts both endpoints, then dials each and handshakes (kHello): the
  /// deployment setup_s times.
  Status Start(Tracer* tracer) {
    std::vector<service::EndpointAddress> endpoints;
    for (uint32_t p = 0; p < kEndpoints; ++p) {
      service::CollectionServerOptions options;
      options.partition_map = map_;
      options.partition_id = p;
      ScopedSpan span(tracer, "start");
      SHUFFLEDP_ASSIGN_OR_RETURN(
          auto server, service::CollectionServer::Start(oracle_, options));
      endpoints.push_back({"127.0.0.1", server->port()});
      servers_.push_back(std::move(server));
    }
    ScopedSpan span(tracer, "connect");
    SHUFFLEDP_ASSIGN_OR_RETURN(
        routing_,
        service::PartitionRoutingClient::Connect(oracle_, map_, endpoints));
    coordinator_ =
        std::make_unique<service::MergeCoordinator>(oracle_, routing_.get());
    return Status::OK();
  }

  /// Round id the endpoints ingest first.
  uint64_t FirstRound() const { return routing_->round_id(0); }

  /// Ships one round's batches; each send call is one frame operation
  /// and its duration adds to *send_s.
  Status SendRound(uint64_t rid, const EncodedRound& round, Tracer* tracer,
                   OpCounter* ops, double* send_s) {
    for (size_t b = 0; b < round.frames.size(); ++b) {
      ScopedSpan span(tracer, "send");
      const int64_t t0 = NowNs();
      Status st = routing_->SendBatch(rid, b, round.frames[b]);
      *send_s += static_cast<double>(NowNs() - t0) * 1e-9;
      if (!st.ok()) {
        ops->Fail("send: " + st.ToString());
        return st;
      }
      ops->Ok();
    }
    return Status::OK();
  }

  Result<service::RoundResult> CloseRound(uint64_t rid, Tracer* tracer) {
    ScopedSpan span(tracer, "finish");
    return coordinator_->FinishRound(rid, kUsers, n_r_,
                                     service::Calibration::kOrdinal);
  }

  /// `count` kQuery round trips for finalized round `rid`: each endpoint
  /// answers with its own raw (kNone) supports, which together must sum
  /// to the merged reference.
  void ReplayQueries(uint64_t rid, int count,
                     const service::RoundResult& reference, Tracer* tracer,
                     OpCounter* ops, Samples* query_ms) {
    for (int i = 0; i < count; ++i) {
      std::vector<uint64_t> merged(reference.supports.size(), 0);
      bool ok = true;
      for (uint32_t p = 0; p < kEndpoints; ++p) {
        ScopedSpan span(tracer, "query");
        const int64_t t0 = NowNs();
        auto reply = routing_->client(p)->QueryRound(rid);
        query_ms->Add(static_cast<double>(NowNs() - t0) * 1e-6);
        if (!reply.ok()) {
          ops->Fail("query: " + reply.status().ToString());
          ok = false;
          continue;
        }
        ok = ok && reply->status == service::RoundStatus::kFinalized &&
             reply->result.supports.size() == merged.size();
        for (size_t v = 0; ok && v < merged.size(); ++v) {
          merged[v] += reply->result.supports[v];
        }
      }
      ops->Check(ok && merged == reference.supports,
                 "kQuery of round " + std::to_string(rid) +
                     " on every endpoint sums to the merged supports");
    }
  }

  /// Lifecycle counters summed over the endpoints.
  service::CollectionServerStats Stats() const {
    service::CollectionServerStats total;
    for (const auto& s : servers_) {
      const auto st = s->stats();
      total.frames_handled += st.frames_handled;
      total.protocol_errors += st.protocol_errors;
      total.batches_deduped += st.batches_deduped;
    }
    return total;
  }

  /// Closes the generator's connections, then shuts every endpoint down
  /// under the watchdog. A stall is a failed check: it fails the run,
  /// once, and is never retried.
  void Stop(Tracer* tracer, OpCounter* ops, Samples* shutdown_ms,
            uint64_t* stalls) {
    coordinator_.reset();
    routing_.reset();
    for (auto& server : servers_) {
      ScopedSpan span(tracer, "shutdown");
      double ms = 0.0;
      if (ShutdownWithWatchdog(std::move(server), keep_alive_,
                               kShutdownDeadlineMs, &ms)) {
        shutdown_ms->Add(ms);
        ops->Ok();
      } else {
        ++*stalls;
        ops->Check(false, "CollectionServer::Shutdown() returned within " +
                              std::to_string(kShutdownDeadlineMs) + " ms");
      }
    }
    servers_.clear();
  }

 private:
  const ldp::ScalarFrequencyOracle& oracle_;
  const service::PartitionMap& map_;
  const uint64_t n_r_;
  std::shared_ptr<void> keep_alive_;
  std::vector<std::unique_ptr<service::CollectionServer>> servers_;
  std::unique_ptr<service::PartitionRoutingClient> routing_;
  std::unique_ptr<service::MergeCoordinator> coordinator_;
};

/// Measurements of one timed window.
struct Window {
  Samples round_ms;
  Samples close_ms;
  Samples send_s;
  uint64_t rows = 0;
  double wall_s = 0.0;
  bool aborted = false;
};

std::string Fmt(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

RunReport RunSolhFleet(const RunOptions& options) {
  RunReport report;
  InitPerLayerMetrics(&report);
  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;

  // --- Plan -------------------------------------------------------------------
  auto created = core::ShuffleDpCollector::Create(
      core::PrivacyGoals{}, kUsers, kDomain, core::ShuffleDpCollector::Options{});
  if (!created.ok()) {
    report.ops.Check(false, "plan: " + created.status().ToString());
    return report;
  }
  const std::shared_ptr<core::ShuffleDpCollector> collector =
      std::move(created).value();
  const ldp::ScalarFrequencyOracle& oracle = collector->oracle();
  const uint64_t n_r = collector->plan().n_r;
  const double predicted = collector->plan().predicted_variance;
  report.notes.push_back("plan: " + collector->plan().ToString());
  auto created_map = service::PartitionMap::Create(
      oracle, service::PartitionMode::kByClient, kEndpoints);
  if (!created_map.ok()) {
    report.ops.Check(false, "partition map: " + created_map.status().ToString());
    return report;
  }
  const service::PartitionMap map = std::move(created_map).value();

  // --- Rounds -------------------------------------------------------------------
  // Users encode on their own devices, so every round is encoded, and
  // reduced to its in-process reference, before anything is timed.
  std::vector<EncodedRound> rounds;
  std::vector<service::RoundResult> references;
  {
    ScopedSpan span(traced, "prepare");
    shuffledp::data::ZipfSampler zipf(kDomain, 1.0);
    for (size_t k = 0; k < kDistinctRounds; ++k) {
      rounds.push_back(EncodeRound(oracle, zipf, kUsers, n_r, kFrameSize,
                                   Mix(options.seed * 1000003ULL + k)));
      auto ref = CollectInProcess(oracle, rounds.back(), kUsers, n_r, nullptr);
      if (!ref.ok()) {
        report.ops.Check(false, "reference: " + ref.status().ToString());
        return report;
      }
      references.push_back(std::move(ref).value());
    }
  }

  // Utility: networked results must equal these references bitwise, so
  // each distinct round's MSE is checked once, here.
  std::vector<double> mse_ratio;
  double analytic_ratio = 0.0;
  for (size_t k = 0; k < kDistinctRounds; ++k) {
    const double mse = MeanSquaredError(references[k].estimates, rounds[k].truth);
    mse_ratio.push_back(mse / predicted);
    const double ratio = mse / AnalyticMse(oracle, kUsers, n_r, rounds[k].truth);
    analytic_ratio += ratio / kDistinctRounds;
    report.ops.Check(ratio <= kMaxMseRatio,
                     Fmt("round MSE / analytic MSE %.3f within bound", ratio));
  }
  report.notes.push_back(Fmt("utility: MSE / analytic MSE %.4f (mean of %.0f rounds)",
                             analytic_ratio, static_cast<double>(kDistinctRounds)));

  // --- Set-up: deployment ------------------------------------------------------
  // setup_s is the median deployment: both endpoints' Start, then dial and
  // kHello on each. The first deployment serves the rounds, untimed; after
  // every round one more is deployed, timed and shut down, outside the
  // rounds' timing, so the samples see the same host conditions as the
  // rounds do (a burst of deployments before the run sat in a single host
  // state; its median moved by up to 25% between processes). Each sample
  // runs pinned to one CPU, in turn across the process's CPUs, and the
  // endpoint threads it starts inherit the pin: setup_s times the set-up
  // code (thread starts, sockets, handshakes, context switches) rather
  // than the hypervisor's cross-CPU wake-ups, which moved the median of
  // unpinned deployments by 39% between two ten-seed sets while the
  // rounds' throughput moved by 12%.
  Samples setup_s, shutdown_ms;
  uint64_t stalls = 0;
  auto deploy = [&](Tracer* t, Samples* timing) -> std::unique_ptr<Fleet> {
    ScopedSpan span(t, "setup");
    auto fleet = std::make_unique<Fleet>(oracle, map, n_r, collector);
    const int64_t t0 = NowNs();
    Status st = fleet->Start(t);
    if (timing != nullptr) timing->Add(static_cast<double>(NowNs() - t0) * 1e-9);
    if (st.ok()) {
      report.ops.Ok();
      return fleet;
    }
    report.ops.Check(false, "deploy: " + st.ToString());
    fleet->Stop(t, &report.ops, &shutdown_ms, &stalls);
    return nullptr;
  };
  std::unique_ptr<Fleet> live = deploy(traced, nullptr);
  if (live == nullptr) return report;

  // --- Timed closed loop ------------------------------------------------------
  const uint64_t first_rid = live->FirstRound();
  uint64_t rounds_done = 0;
  const uint64_t frames_before = live->Stats().frames_handled;
  const ProcUsage usage_before = ReadProcUsage();
  // One round; false when it failed.
  auto run_round = [&](Tracer* t, Window* w) {
    const uint64_t rid = first_rid + rounds_done;
    const size_t k = rounds_done % kDistinctRounds;
    const EncodedRound& round = rounds[k];
    const service::RoundResult& ref = references[k];
    ScopedSpan span(t, "round", rid);
    const int64_t t0 = NowNs();
    double send_s = 0.0;
    Status st = live->SendRound(rid, round, t, &report.ops, &send_s);
    const int64_t tf = NowNs();
    Result<service::RoundResult> out =
        st.ok() ? live->CloseRound(rid, t) : Result<service::RoundResult>(st);
    const int64_t t1 = NowNs();
    if (!out.ok()) {
      report.ops.Check(false, "round " + std::to_string(rid) + ": " +
                                  out.status().ToString());
      return false;
    }
    report.ops.Ok();
    report.ops.Check(out->supports == ref.supports &&
                         BitwiseEqual(out->estimates, ref.estimates),
                     "round " + std::to_string(rid) +
                         " estimates equal the in-process reference");
    report.ops.Check(out->reports_decoded + out->reports_invalid ==
                         kUsers + n_r,
                     "round " + std::to_string(rid) +
                         " decoded + invalid == n + n_r");
    w->round_ms.Add(static_cast<double>(t1 - t0) * 1e-6);
    w->close_ms.Add(static_cast<double>(t1 - tf) * 1e-6);
    w->send_s.Add(send_s);
    w->rows += round.rows;
    ++rounds_done;
    return true;
  };
  // Timed wall time of a window: set-up samples between rounds excluded.
  auto run_window = [&](double seconds, Tracer* t) {
    Window w;
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    int64_t setup_ns = 0;
    while (NowNs() < deadline) {
      if (!run_round(t, &w)) {
        w.aborted = true;
        break;
      }
      const int64_t ts = NowNs();
      bool deployed = false;
      RunPinned(rounds_done, [&] {
        std::unique_ptr<Fleet> sample = deploy(t, &setup_s);
        deployed = sample != nullptr;
        if (deployed) sample->Stop(t, &report.ops, &shutdown_ms, &stalls);
      });
      setup_ns += NowNs() - ts;
      if (!deployed) {
        w.aborted = true;
        break;
      }
    }
    w.wall_s = static_cast<double>(NowNs() - start - setup_ns) * 1e-9;
    return w;
  };

  Window w;
  double overhead = 0.0;
  if (options.trace) {
    Window untraced = run_window(options.seconds / 2, nullptr);
    w = untraced.aborted ? untraced : run_window(options.seconds / 2, traced);
    if (w.round_ms.size() > 0 && untraced.round_ms.size() > 0) {
      overhead = w.round_ms.Median() / untraced.round_ms.Median() - 1;
    }
  } else {
    w = run_window(options.seconds, nullptr);
  }
  const ProcUsage usage_after = ReadProcUsage();
  const double rss_mb = PeakRssMb();

  const service::CollectionServerStats totals = live->Stats();
  // Against the last finalized round (served from the result stash): the
  // loop itself issues no kQuery.
  Samples query_ms;
  if (options.trace && rounds_done > 0) {
    live->ReplayQueries(first_rid + rounds_done - 1, 50,
                        references[(rounds_done - 1) % kDistinctRounds], traced,
                        &report.ops, &query_ms);
  }
  live->Stop(traced, &report.ops, &shutdown_ms, &stalls);
  live.reset();

  // --- End-to-end metrics -------------------------------------------------------
  uint64_t client_frames = 0;
  const double wire_bytes =
      ClientFrameBytes(oracle, map, rounds[0], first_rid, &client_frames);
  double mse_sum = 0.0;
  const size_t executed =
      std::max<size_t>(1, std::min<size_t>(kDistinctRounds, rounds_done));
  for (size_t k = 0; k < executed; ++k) mse_sum += mse_ratio[k];

  auto& e2e = report.end_to_end;
  e2e.Set("reports_per_s", static_cast<double>(w.rows) / w.wall_s, "1/s");
  e2e.Set("round_ms_p50", w.round_ms.Median(), "ms");
  e2e.Set("close_ms_p50", w.close_ms.Median(), "ms");
  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("peak_rss_mb", rss_mb, "MiB");
  e2e.Set("wire_bytes_per_report",
          wire_bytes / static_cast<double>(rounds[0].rows), "B");
  e2e.Set("mse_over_predicted", mse_sum / static_cast<double>(executed),
          "ratio");
  report.notes.push_back(Fmt("rounds: %.0f in %.3f s",
                             static_cast<double>(w.round_ms.size()), w.wall_s));
  report.notes.push_back(TailNote("round_ms_tail", w.round_ms));
  report.notes.push_back(TailNote("close_ms_tail", w.close_ms));
  report.notes.push_back(
      Fmt("setup: median of %.0f deployments; shutdowns: %.0f ok, %.0f stalled",
          static_cast<double>(setup_s.size()),
          static_cast<double>(shutdown_ms.size()), static_cast<double>(stalls)));
  report.notes.push_back(Fmt("wire: %.0f client frames per round, %.0f bytes",
                             static_cast<double>(client_frames), wire_bytes));
  report.notes.push_back(
      "query_ms_p50, query_ms_tail: no kQuery in this workload's loop "
      "(traced runs replay it: transport.query_ms_*)");

  // --- Per-layer metrics -----------------------------------------------------
  auto& layer = report.per_layer;
  layer.Set("transport.send_blocked_s", w.send_s.Median(), "s/round");
  layer.Set("transport.frames",
            static_cast<double>(totals.frames_handled - frames_before) /
                static_cast<double>(std::max<uint64_t>(1, rounds_done)),
            "count/round");
  layer.Set("transport.protocol_errors",
            static_cast<double>(totals.protocol_errors), "count");
  layer.Set("transport.batches_deduped",
            static_cast<double>(totals.batches_deduped), "count");
  layer.Set("transport.shutdown_ms", shutdown_ms.Median(), "ms");
  layer.Set("transport.shutdown_stalls", static_cast<double>(stalls), "count");
  if (!query_ms.empty()) {
    layer.Set("transport.query_ms_p50", query_ms.Median(), "ms");
    layer.Set("transport.query_ms_tail", query_ms.Tail(), "ms");
  }
  SetProcMetrics(usage_before, usage_after, rounds_done, &report);
  {
    std::vector<uint64_t> rows(kEndpoints, 0);
    for (size_t b = 0; b < rounds[0].frames.size(); ++b) {
      rows[map.OwnerOfBatch(b)] += rounds[0].frames[b].size();
    }
    layer.Set("coordinator.rows_skew",
              static_cast<double>(*std::max_element(rows.begin(), rows.end())) *
                  kEndpoints / static_cast<double>(rounds[0].rows),
              "ratio");
  }

  if (options.trace) {
    SetTraceMetrics(tracer, overhead, &report);
    ReplayInput in;
    in.oracle = &oracle;
    in.round = &rounds[0];
    in.reference = &references[0];
    in.n = kUsers;
    in.n_r = n_r;
    in.work_dir = options.work_dir;
    in.fleet_map = &map;
    ReplayWireLayers(in, traced, &report);
    ReplayWorker(in, traced, &report);
    ReplaySupportAndCalibrate(in, traced, &report);
    // The fleet runs with the store off; the replay persists the run's
    // own frames as the endpoint's worker would with it on.
    ReplayStore(in, traced, &report);

    // Per-round self time of each replayed layer, to name the dominant one.
    const double rows = static_cast<double>(rounds[0].rows);
    const double frames = static_cast<double>(rounds[0].frames.size());
    double frame_bytes = 0.0;
    for (const auto& f : rounds[0].frames) {
      frame_bytes += static_cast<double>(
          ldp::SerializeOrdinals(oracle, f).size() + service::kFrameHeaderBytes);
    }
    auto get = [&](const char* name) { return layer.Get(name); };
    NoteDominantLayer(
        {{"wire (crc + frame decode + parse)",
          (get("util.crc32_ns_per_byte") * frame_bytes +
           get("transport.decode_ns_per_frame") * frames +
           get("ldp.parse_ns_per_report") * rows) * 1e-9},
         {"worker decode", get("worker.decode_s_per_mrow") * rows * 1e-6},
         {"support evaluation",
          get("worker.support_eval_s_per_mrow") * rows * 1e-6},
         {"calibrate", get("ldp.calibrate_us") * 1e-6}},
        w.round_ms.Median() * 1e-3, &report);
    WriteTrace(options, tracer, &report);
  }
  return report;
}

}  // namespace perfbench
