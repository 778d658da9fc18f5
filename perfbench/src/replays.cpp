// Layer replays: each times one public library call from outside, over
// the run's own generated frames and round results, so every layer gets
// a self time next to the end-to-end numbers.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ldp/estimator.h"
#include "ldp/wire.h"
#include "service/round_store.h"
#include "service/streaming_collector.h"
#include "service/transport.h"
#include "util/hash.h"
#include "workloads.h"

namespace perfbench {

namespace service = shuffledp::service;
namespace ldp = shuffledp::ldp;

namespace {

constexpr int kReplayReps = 3;

// Keeps the CRC replay's results observable.
volatile uint32_t g_crc_sink = 0;

double NsSince(int64_t t0) { return static_cast<double>(NowNs() - t0); }

std::vector<ldp::LdpReport> DecodeValid(const ldp::ScalarFrequencyOracle& o,
                                        const std::vector<uint64_t>& frame) {
  std::vector<ldp::LdpReport> out;
  out.reserve(frame.size());
  for (uint64_t ordinal : frame) {
    auto rep = o.UnpackOrdinal(ordinal);
    if (rep.ok() && o.ValidateReport(*rep).ok()) out.push_back(*rep);
  }
  return out;
}

}  // namespace

void InitPerLayerMetrics(RunReport* out) {
  static const std::pair<const char*, const char*> kMetrics[] = {
      {"ldp.parse_ns_per_report", "ns"},
      {"util.crc32_ns_per_byte", "ns/B"},
      {"transport.decode_ns_per_frame", "ns"},
      {"transport.send_blocked_s", "s/round"},
      {"transport.frames", "count/round"},
      {"transport.protocol_errors", "count"},
      {"transport.batches_deduped", "count"},
      {"transport.shutdown_ms", "ms"},
      {"transport.shutdown_stalls", "count"},
      {"transport.query_ms_p50", "ms"},
      {"transport.query_ms_tail", "ms"},
      {"worker.decode_s_per_mrow", "s/Mrow"},
      {"worker.support_eval_s_per_mrow", "s/Mrow"},
      {"worker.busy_s_per_mrow", "s/Mrow"},
      {"worker.backpressure_waits", "count"},
      {"worker.queue_high_water", "count"},
      {"ldp.support_ns_per_report", "ns"},
      {"ldp.calibrate_us", "us"},
      {"store.wal_records_per_round", "count/round"},
      {"store.append_us_p50", "us"},
      {"store.finalize_ms", "ms"},
      {"store.close_ms", "ms"},
      {"store.query_us", "us"},
      {"store.open_ms", "ms"},
      {"partition.merge_us", "us"},
      {"coordinator.rows_skew", "ratio"},
      {"crypto.keygen_ms", "ms"},
      {"crypto.encrypt_us_per_row", "us"},
      {"crypto.decrypt_us_per_row", "us"},
      {"crypto.split_ns_per_row", "ns"},
      {"shuffle.eos_s_per_round", "s"},
      {"peos.user_s", "s"},
      {"peos.shuffler_s", "s"},
      {"peos.server_s", "s"},
      {"proc.cpu_user_s", "s/round"},
      {"proc.cpu_sys_s", "s/round"},
      {"proc.ctx_switches_involuntary", "count/round"},
      {"trace.overhead", "ratio"},
      {"trace.layer_sum_over_wall", "ratio"},
      {"ops.failed_ratio", "ratio"},
  };
  for (const auto& [name, unit] : kMetrics) out->per_layer.Set(name, 0.0, unit);
}

void ReplayWireLayers(const ReplayInput& in, Tracer* tracer, RunReport* out) {
  ScopedSpan span(tracer, "replay.wire");
  const auto& oracle = *in.oracle;
  const auto& frames = in.round->frames;

  std::vector<shuffledp::Bytes> payloads;
  std::vector<shuffledp::Bytes> encoded;
  shuffledp::Bytes stream;
  uint64_t encoded_bytes = 0;
  for (const auto& frame : frames) {
    payloads.push_back(ldp::SerializeOrdinals(oracle, frame));
    service::Frame f;
    f.type = service::FrameType::kBatch;
    f.payload = payloads.back();
    encoded.push_back(service::EncodeFrame(f));
    encoded_bytes += encoded.back().size();
    stream.insert(stream.end(), encoded.back().begin(), encoded.back().end());
  }

  std::vector<double> crc_ns, decode_ns, parse_ns;
  uint32_t sink = 0;
  bool decode_ok = true;
  bool parse_ok = true;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    {
      ScopedSpan s(tracer, "replay.crc32");
      const int64_t t0 = NowNs();
      for (const auto& e : encoded) sink ^= shuffledp::Crc32(e.data(), e.size());
      crc_ns.push_back(NsSince(t0) / static_cast<double>(encoded_bytes));
    }
    {
      ScopedSpan s(tracer, "replay.frame_decoder");
      const int64_t t0 = NowNs();
      service::FrameDecoder decoder;
      service::Frame f;
      size_t decoded = 0;
      constexpr size_t kChunk = 64 * 1024;  // one socket read's worth
      for (size_t off = 0; off < stream.size(); off += kChunk) {
        const size_t len = std::min(kChunk, stream.size() - off);
        if (!decoder.Feed(stream.data() + off, len).ok()) break;
        while (decoder.Next(&f)) ++decoded;
      }
      decode_ns.push_back(NsSince(t0) / static_cast<double>(frames.size()));
      decode_ok = decode_ok && decoded == frames.size();
    }
    {
      ScopedSpan s(tracer, "replay.parse");
      const int64_t t0 = NowNs();
      uint64_t rows = 0;
      std::vector<std::vector<uint64_t>> parsed(rep == 0 ? frames.size() : 0);
      for (size_t i = 0; i < payloads.size(); ++i) {
        auto r = ldp::ParseOrdinalsValidated(oracle, payloads[i], nullptr);
        if (!r.ok()) {
          parse_ok = false;
          continue;
        }
        rows += r->size();
        if (rep == 0) parsed[i] = std::move(r).value();
      }
      parse_ns.push_back(NsSince(t0) / static_cast<double>(rows ? rows : 1));
      if (rep == 0) parse_ok = parse_ok && parsed == frames;
    }
  }
  out->ops.Check(decode_ok, "FrameDecoder replay returned every frame");
  out->ops.Check(parse_ok, "ParseOrdinalsValidated replay round-trips");
  g_crc_sink = sink;
  out->per_layer.Set("util.crc32_ns_per_byte", MedianOf(crc_ns), "ns/B");
  out->per_layer.Set("transport.decode_ns_per_frame", MedianOf(decode_ns), "ns");
  out->per_layer.Set("ldp.parse_ns_per_report", MedianOf(parse_ns), "ns");
}

shuffledp::Result<service::RoundResult> CollectInProcess(
    const ldp::ScalarFrequencyOracle& oracle, const EncodedRound& round,
    uint64_t n, uint64_t n_r, shuffledp::ThreadPool* pool) {
  service::StreamingOptions options;
  options.pool = pool;
  service::StreamingCollector collector(oracle, options);
  const ldp::ScalarFrequencyOracle* o = &oracle;
  for (const auto& frame : round.frames) {
    // The endpoint's kBatch decode: padding ordinals become invalid rows.
    auto ordinals = std::make_shared<std::vector<uint64_t>>(frame);
    service::ReportBatch batch;
    batch.count = ordinals->size();
    batch.decode = [ordinals,
                    o](uint64_t i) -> shuffledp::Result<service::DecodedRow> {
      service::DecodedRow row;
      auto rep = o->UnpackOrdinal((*ordinals)[i]);
      if (!rep.ok()) return row;
      row.report = *rep;
      row.valid = true;
      return row;
    };
    SHUFFLEDP_RETURN_NOT_OK(collector.Offer(std::move(batch)));
  }
  return collector.FinishRound(n, n_r, service::Calibration::kOrdinal);
}

void ReplayWorker(const ReplayInput& in, Tracer* tracer, RunReport* out) {
  ScopedSpan span(tracer, "replay.worker");
  auto result = CollectInProcess(*in.oracle, *in.round, in.n, in.n_r, nullptr);
  const bool same = result.ok() &&
                    BitwiseEqual(result->estimates, in.reference->estimates);
  out->ops.Check(same, "serial StreamingCollector replay equals reference");
  if (!result.ok()) return;
  const auto& st = result->stats;
  const double mrows = static_cast<double>(st.rows) * 1e-6;
  out->per_layer.Set("worker.decode_s_per_mrow", st.decode_seconds / mrows,
                     "s/Mrow");
  out->per_layer.Set("worker.support_eval_s_per_mrow",
                     st.support_eval_seconds / mrows, "s/Mrow");
  out->per_layer.Set("worker.busy_s_per_mrow", st.busy_seconds / mrows,
                     "s/Mrow");
  out->per_layer.Set("worker.backpressure_waits",
                     static_cast<double>(st.backpressure_waits), "count");
  out->per_layer.Set("worker.queue_high_water",
                     static_cast<double>(st.queue_high_water), "count");
}

void ReplaySupportAndCalibrate(const ReplayInput& in, Tracer* tracer,
                               RunReport* out) {
  ScopedSpan span(tracer, "replay.support");
  const auto& oracle = *in.oracle;
  const uint64_t d = oracle.domain_size();
  {
    const uint32_t parts_n = in.fleet_map->partitions();
    std::vector<std::vector<ldp::LdpReport>> reports(parts_n);
    const auto& frames = in.round->frames;
    for (size_t b = 0; b < frames.size(); ++b) {
      const uint32_t owner = in.fleet_map->OwnerOfBatch(b);
      auto decoded = DecodeValid(oracle, frames[b]);
      reports[owner].insert(reports[owner].end(), decoded.begin(),
                            decoded.end());
    }
    std::vector<std::vector<uint64_t>> parts(parts_n,
                                             std::vector<uint64_t>(d, 0));
    uint64_t rows = 0;
    {
      ScopedSpan s(tracer, "replay.accumulate_supports");
      const int64_t t0 = NowNs();
      for (uint32_t p = 0; p < parts_n; ++p) {
        oracle.AccumulateSupports(reports[p].data(), reports[p].size(), 0, d,
                                  parts[p].data());
        rows += reports[p].size();
      }
      out->per_layer.Set("ldp.support_ns_per_report",
                         NsSince(t0) / static_cast<double>(rows ? rows : 1),
                         "ns");
    }
    std::vector<uint64_t> merged;
    {
      ScopedSpan s(tracer, "replay.merge_supports");
      std::vector<double> merge_us;
      bool merge_ok = true;
      for (int rep = 0; rep < 50; ++rep) {
        const int64_t t0 = NowNs();
        auto m = in.fleet_map->MergeSupports(parts);
        merge_us.push_back(NsSince(t0) * 1e-3);
        if (!m.ok()) {
          merge_ok = false;
          break;
        }
        merged = std::move(m).value();
      }
      out->ops.Check(merge_ok, "PartitionMap::MergeSupports replay");
      out->per_layer.Set("partition.merge_us", MedianOf(merge_us), "us");
    }
    out->ops.Check(merged == in.reference->supports,
                   "AccumulateSupports replay equals reference supports");
  }
  {
    ScopedSpan s(tracer, "replay.calibrate");
    std::vector<double> us;
    std::vector<double> estimates;
    for (int rep = 0; rep < 50; ++rep) {
      const int64_t t0 = NowNs();
      estimates = ldp::CalibrateEstimatesOrdinal(oracle, in.reference->supports,
                                                 in.n, in.n_r);
      us.push_back(NsSince(t0) * 1e-3);
    }
    out->ops.Check(BitwiseEqual(estimates, in.reference->estimates),
                   "CalibrateEstimatesOrdinal replay equals reference");
    out->per_layer.Set("ldp.calibrate_us", MedianOf(us), "us");
  }
}

void ReplayStore(const ReplayInput& in, Tracer* tracer, RunReport* out) {
  ScopedSpan span(tracer, "replay.store");
  const auto& oracle = *in.oracle;
  const auto& frames = in.round->frames;
  namespace fs = std::filesystem;
  const std::string dir = in.work_dir + "/replay-store";
  std::error_code ec;
  fs::remove_all(dir, ec);

  service::RoundStoreOptions options;
  options.dir = dir;
  options.slice_width = oracle.domain_size();
  const service::RoundStore::SnapshotFn snapshot = [] {
    return service::CheckpointState{};
  };

  // One delta per frame, as the endpoint's worker persists them: the
  // sparse per-value support increments of the frame's valid reports.
  const uint64_t d = oracle.domain_size();
  std::vector<service::RoundDelta> deltas;
  for (size_t b = 0; b < frames.size(); ++b) {
    service::RoundDelta delta;
    delta.batch_lo = b;
    delta.batch_hi = b + 1;
    delta.rows_delta = frames[b].size();
    const auto decoded = DecodeValid(oracle, frames[b]);
    std::vector<uint64_t> counts(d, 0);
    oracle.AccumulateSupports(decoded.data(), decoded.size(), 0, d,
                              counts.data());
    for (uint64_t v = 0; v < d; ++v) {
      if (counts[v] != 0) delta.support_deltas.emplace_back(v, counts[v]);
    }
    delta.decoded_delta = decoded.size();
    delta.invalid_delta = frames[b].size() - decoded.size();
    deltas.push_back(std::move(delta));
  }

  constexpr uint64_t kRounds = 2;
  Samples append_us, finalize_ms, close_ms, query_us;
  bool ok = true;
  {
    ScopedSpan s(tracer, "replay.store_open");
    auto opened = service::SegmentedRoundStore::Open(options);
    if (!opened.ok()) {
      out->ops.Check(false, "store replay Open: " + opened.status().ToString());
      return;
    }
    std::unique_ptr<service::SegmentedRoundStore> store =
        std::move(opened).value();
    const uint64_t lsn_before = store->next_lsn();
    for (uint64_t round = 0; round < kRounds && ok; ++round) {
      {
        ScopedSpan a(tracer, "replay.store_append", round);
        for (auto& delta : deltas) {
          delta.round_id = round;
          const int64_t t0 = NowNs();
          ok = ok && store->AppendDelta(delta, snapshot).ok();
          append_us.Add(NsSince(t0) * 1e-3);
        }
      }
      service::RoundJournal journal;
      journal.round_id = round;
      journal.n = in.n;
      journal.n_fake = in.n_r;
      journal.calibration = static_cast<uint8_t>(service::Calibration::kOrdinal);
      journal.reports_decoded = in.reference->reports_decoded;
      journal.reports_invalid = in.reference->reports_invalid;
      journal.supports = in.reference->supports;
      int64_t t0 = NowNs();
      ok = ok && store->FinalizeRound(journal, frames.size()).ok();
      finalize_ms.Add(NsSince(t0) * 1e-6);
      t0 = NowNs();
      ok = ok && store->CloseRound(round).ok();
      close_ms.Add(NsSince(t0) * 1e-6);
      t0 = NowNs();
      auto lookup = store->Query(round);
      query_us.Add(NsSince(t0) * 1e-3);
      ok = ok && lookup.ok() &&
           lookup->status == service::RoundStatus::kFinalized &&
           lookup->journal.supports == in.reference->supports;
    }
    out->per_layer.Set("store.wal_records_per_round",
                       static_cast<double>(store->next_lsn() - lsn_before) /
                           static_cast<double>(kRounds),
                       "count/round");
  }
  double open_ms = 0.0;
  if (ok) {
    ScopedSpan s(tracer, "replay.store_reopen");
    const int64_t t0 = NowNs();
    auto reopened = service::SegmentedRoundStore::Open(options);
    size_t loaded = 0;
    if (reopened.ok()) {
      auto all = (*reopened)->LoadAll();
      if (all.ok()) {
        for (const auto& r : *all) loaded += r.finalized ? 1 : 0;
      }
    }
    open_ms = NsSince(t0) * 1e-6;
    ok = loaded == kRounds;
  }
  out->ops.Check(ok, "round store replay appends, finalizes, queries, reloads");
  fs::remove_all(dir, ec);
  out->per_layer.Set("store.append_us_p50", append_us.Median(), "us");
  out->per_layer.Set("store.finalize_ms", finalize_ms.Median(), "ms");
  out->per_layer.Set("store.close_ms", close_ms.Median(), "ms");
  out->per_layer.Set("store.query_us", query_us.Median(), "us");
  out->per_layer.Set("store.open_ms", open_ms, "ms");
}

void NoteDominantLayer(
    const std::vector<std::pair<std::string, double>>& layer_seconds_per_round,
    double round_wall_s, RunReport* out) {
  double total = 0.0;
  const std::pair<std::string, double>* top = nullptr;
  for (const auto& entry : layer_seconds_per_round) {
    total += entry.second;
    if (top == nullptr || entry.second > top->second) top = &entry;
  }
  if (top == nullptr) return;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "dominant layer: %s (%.2f ms per round = %.0f%% of the "
                "replayed %.2f ms; round wall %.2f ms)",
                top->first.c_str(), top->second * 1e3,
                total > 0 ? 100.0 * top->second / total : 0.0, total * 1e3,
                round_wall_s * 1e3);
  out->notes.push_back(buf);
  std::string all = "replayed layer self time per round:";
  for (const auto& [name, s] : layer_seconds_per_round) {
    std::snprintf(buf, sizeof(buf), " %s=%.2fms", name.c_str(), s * 1e3);
    all += buf;
  }
  out->notes.push_back(all);
}

}  // namespace perfbench
