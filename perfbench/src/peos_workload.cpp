// peos-crypto: the paper's full PEOS protocol through
// ShuffleDpCollector::Collect (r = 3 shufflers, Paillier, EOS, packed
// decryption) on Zipf(1.0) data over the Table III domain d = 915.
// Transport, round store and hash-kernel tuning are bypassed; key
// generation happens inside every round, as in RunPeos.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/shuffle_dp.h"
#include "crypto/paillier.h"
#include "crypto/secret_sharing.h"
#include "crypto/secure_random.h"
#include "data/datasets.h"
#include "ldp/estimator.h"
#include "shuffle/oblivious_shuffle.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace core = shuffledp::core;
namespace crypto = shuffledp::crypto;
namespace ldp = shuffledp::ldp;
namespace shuffle = shuffledp::shuffle;

namespace {

constexpr uint64_t kUsers = 20000;
constexpr uint64_t kDomain = 915;
constexpr uint32_t kShufflers = 3;
constexpr unsigned kThreads = 4;
/// setup_s samples taken before the first round and after every round.
constexpr int kSetupSamplesPerRound = 8;
/// Create calls one setup_s sample averages (one call takes microseconds).
constexpr int kCreatesPerSample = 32;
/// Leading rounds whose utility enters mse_over_predicted.
constexpr size_t kMseRounds = 5;
/// Rows the single-thread encrypt/decrypt replays time.
constexpr uint64_t kCryptoReplayRows = 4096;

uint64_t RoundSeed(uint64_t seed, uint64_t round_index) {
  return seed * 0x9E3779B97F4A7C15ULL + round_index * 0xD1B54A32D192ED03ULL + 1;
}

std::vector<uint64_t> RoundValues(const shuffledp::data::ZipfSampler& zipf,
                                  uint64_t seed, uint64_t round_index,
                                  std::vector<double>* truth) {
  shuffledp::Rng rng(RoundSeed(seed, round_index));
  std::vector<uint64_t> values(kUsers);
  truth->assign(kDomain, 0.0);
  for (auto& v : values) {
    v = zipf.Sample(&rng);
    (*truth)[v] += 1.0 / static_cast<double>(kUsers);
  }
  return values;
}

/// Crypto layer replays over one round's rows: key generation, share
/// splitting, encryption, packed decryption (checked against the
/// encrypted shares), and one EOS over a full round's ciphertexts.
void ReplayCrypto(const ldp::ScalarFrequencyOracle& oracle,
                  const std::vector<uint64_t>& values, uint64_t n_r,
                  uint64_t seed, shuffledp::ThreadPool* pool, Tracer* tracer,
                  RunReport* out) {
  ScopedSpan span(tracer, "replay.crypto");
  crypto::SecureRandom rng(seed ^ 0xC0FFEEULL);
  const unsigned ell = oracle.PackedBits();
  const uint64_t total = values.size() + n_r;

  std::vector<double> keygen_ms;
  crypto::PaillierKeyPair keys;
  for (int rep = 0; rep < 3; ++rep) {
    ScopedSpan s(tracer, "replay.keygen");
    const int64_t t0 = NowNs();
    auto kp = crypto::PaillierGenerateKeyPair(1024, &rng);
    keygen_ms.push_back(static_cast<double>(NowNs() - t0) * 1e-6);
    if (!kp.ok()) {
      out->ops.Check(false, "Paillier key generation");
      return;
    }
    keys = std::move(kp).value();
  }
  out->ops.Ok();
  out->per_layer.Set("crypto.keygen_ms", MedianOf(keygen_ms), "ms");
  crypto::RandomizerPool randomizers(keys.pub, 64, &rng);

  // Shares of every row of a round (users encoded, fakes uniform).
  shuffledp::Rng report_rng(seed ^ 0x5EEDULL);
  std::vector<uint64_t> secrets(total);
  for (uint64_t i = 0; i < total; ++i) {
    secrets[i] = i < values.size()
                     ? oracle.PackOrdinal(oracle.Encode(values[i], &report_rng))
                     : report_rng.UniformU64(uint64_t{1} << ell);
  }
  shuffle::EosState state;
  state.plain.ell = ell;
  state.plain.columns.assign(kShufflers, std::vector<uint64_t>(total, 0));
  std::vector<uint64_t> last_share(total);
  {
    ScopedSpan s(tracer, "replay.split_shares");
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < total; ++i) {
      auto shares = crypto::SplitShares2Ell(secrets[i], kShufflers, ell, &rng);
      for (uint32_t j = 0; j + 1 < kShufflers; ++j) {
        state.plain.columns[j][i] = shares[j];
      }
      last_share[i] = shares[kShufflers - 1];
    }
    out->per_layer.Set("crypto.split_ns_per_row",
                       static_cast<double>(NowNs() - t0) /
                           static_cast<double>(total),
                       "ns");
  }

  state.cipher_column.resize(total);
  {
    ScopedSpan s(tracer, "replay.encrypt");
    const int64_t t0 = NowNs();
    for (uint64_t i = 0; i < kCryptoReplayRows; ++i) {
      state.cipher_column[i] = randomizers.EncryptFastU64(last_share[i], &rng);
    }
    out->per_layer.Set("crypto.encrypt_us_per_row",
                       static_cast<double>(NowNs() - t0) * 1e-3 /
                           static_cast<double>(kCryptoReplayRows),
                       "us");
  }
  {
    ScopedSpan s(tracer, "replay.decrypt_packed");
    const uint64_t eos_rounds = shuffle::EosRounds(kShufflers);
    unsigned extra = 0;
    while ((uint64_t{1} << extra) < eos_rounds + 1) ++extra;
    std::vector<uint64_t> recovered(kCryptoReplayRows);
    const int64_t t0 = NowNs();
    auto st = keys.priv.DecryptPackedMod2EllBatch(
        state.cipher_column.data(), kCryptoReplayRows, ell + extra + 1, ell,
        recovered.data());
    out->per_layer.Set("crypto.decrypt_us_per_row",
                       static_cast<double>(NowNs() - t0) * 1e-3 /
                           static_cast<double>(kCryptoReplayRows),
                       "us");
    out->ops.Check(st.ok() && std::equal(recovered.begin(), recovered.end(),
                                         last_share.begin()),
                   "packed decryption recovers the encrypted shares");
  }
  // The rest of the column, off the clock and on the pool, then one EOS.
  pool->ParallelForChunks(
      kCryptoReplayRows, total, 1024, [&](uint64_t lo, uint64_t hi) {
        crypto::SecureRandom local(seed ^ (lo * 0x9E3779B97F4A7C15ULL));
        for (uint64_t i = lo; i < hi; ++i) {
          state.cipher_column[i] =
              randomizers.EncryptFastU64(last_share[i], &local);
        }
      });
  state.e_holder = kShufflers - 1;
  shuffle::EosOptions eos;
  eos.public_key = &keys.pub;
  eos.pool = &randomizers;
  eos.thread_pool = pool;
  shuffle::CostLedger ledger;
  {
    ScopedSpan s(tracer, "replay.eos");
    const int64_t t0 = NowNs();
    auto st = shuffle::RunEncryptedObliviousShuffle(&state, eos, &rng, &ledger);
    out->per_layer.Set("shuffle.eos_s_per_round",
                       static_cast<double>(NowNs() - t0) * 1e-9, "s");
    out->ops.Check(st.ok(), "RunEncryptedObliviousShuffle replay");
  }
}

}  // namespace

RunReport RunPeosCrypto(const RunOptions& options) {
  RunReport report;
  InitPerLayerMetrics(&report);
  Tracer tracer;
  Tracer* traced = options.trace ? &tracer : nullptr;

  // --- Setup: create (planning + oracle) ------------------------------------
  // setup_s is the median of its samples, taken before the first round and
  // after every round, outside the rounds' timing, with the thread moved
  // across every CPU in turn. So they see the same host conditions as the
  // rounds do: samples taken in one burst on one CPU sat in a single host
  // state, and their median moved by up to 40% between processes. The pool
  // is made once, untimed.
  auto pool = std::make_unique<shuffledp::ThreadPool>(kThreads);
  core::ShuffleDpCollector::Options collector_options;
  collector_options.num_shufflers = kShufflers;
  collector_options.pool = pool.get();
  Samples setup_s;
  std::unique_ptr<core::ShuffleDpCollector> collector;
  auto sample_setup = [&](Tracer* t) {
    ScopedSpan span(t, "setup");
    bool ok = true;
    for (int k = 0; k < kSetupSamplesPerRound; ++k) {
      RunPinned(k, [&] {
        ScopedSpan s(t, "create");
        const int64_t t0 = NowNs();
        for (int i = 0; ok && i < kCreatesPerSample; ++i) {
          auto created = core::ShuffleDpCollector::Create(
              core::PrivacyGoals{}, kUsers, kDomain, collector_options);
          if (!created.ok()) {
            report.ops.Check(false, "create: " + created.status().ToString());
            ok = false;
          } else if (collector == nullptr) {
            // The first collector serves the rounds; later ones are dropped.
            collector = std::move(created).value();
          }
        }
        setup_s.Add(static_cast<double>(NowNs() - t0) * 1e-9 / kCreatesPerSample);
      });
    }
    if (ok) report.ops.Ok();
    return ok;
  };
  if (!sample_setup(traced)) return report;
  const auto& plan = collector->plan();
  const uint64_t n_r = plan.n_r;
  const uint64_t rows = kUsers + n_r;
  report.notes.push_back("plan: " + plan.ToString());

  // --- Timed closed loop of Collect rounds ------------------------------------
  shuffledp::data::ZipfSampler zipf(kDomain, 1.0);
  Samples round_ms, close_ms, user_s, shuffler_s, server_s;
  std::vector<double> mse_ratio;
  double wire_bytes = 0.0;
  shuffledp::service::StreamingStats worker_stats;
  uint64_t rounds_done = 0;
  uint64_t window_rows = 0;
  const ProcUsage usage_before = ReadProcUsage();

  // One round; false when it failed.
  auto run_round = [&](Tracer* t, Samples* window_rounds) {
    std::vector<double> truth;
    auto values = RoundValues(zipf, options.seed, rounds_done, &truth);
    crypto::SecureRandom rng(RoundSeed(options.seed, rounds_done) ^ 0xA5A5ULL);
    ScopedSpan span(t, "round", rounds_done);
    const int64_t t0 = NowNs();
    auto result = [&] {
      ScopedSpan s(t, "collect");
      return collector->Collect(values, &rng);
    }();
    const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
    if (!result.ok()) {
      report.ops.Check(false, "round " + std::to_string(rounds_done) + ": " +
                      result.status().ToString());
      return false;
    }
    report.ops.Ok();
    const auto& r = *result;
    report.ops.Check(r.reports_decoded + r.reports_invalid == rows &&
                         r.streaming.rows == rows,
                     "round " + std::to_string(rounds_done) +
                         " decodes n + n_r rows");
    report.ops.Check(r.estimates.size() == kDomain,
                     "round " + std::to_string(rounds_done) + " estimate size");
    const double mse = MeanSquaredError(r.estimates, truth);
    report.ops.Check(
        mse <= kMaxMseRatio *
                   AnalyticMse(collector->oracle(), kUsers, n_r, truth),
        "round " + std::to_string(rounds_done) +
            " MSE / analytic MSE within bound");
    report.ops.Check(mse <= kMaxMseRatio * plan.predicted_variance,
                     "round " + std::to_string(rounds_done) +
                         " MSE / predicted variance within bound");
    if (mse_ratio.size() < kMseRounds) {
      mse_ratio.push_back(mse / plan.predicted_variance);
    }
    window_rounds->Add(ms);
    round_ms.Add(ms);
    close_ms.Add(r.costs.server_comp_seconds * 1e3);
    user_s.Add(r.costs.user_comp_ms_per_user * 1e-3 *
               static_cast<double>(kUsers));
    shuffler_s.Add(r.costs.aux_comp_seconds);
    server_s.Add(r.costs.server_comp_seconds);
    wire_bytes = (static_cast<double>(r.costs.user_comm_bytes_per_user) *
                      static_cast<double>(kUsers) +
                  r.costs.aux_comm_mb_per_shuffler * 1024.0 * 1024.0 *
                      static_cast<double>(kShufflers)) /
                 static_cast<double>(rows);
    worker_stats = r.streaming;
    window_rows += rows;
    ++rounds_done;
    return true;
  };
  // Timed wall time of a window: set-up samples between rounds excluded.
  auto run_window = [&](double seconds, Tracer* t, Samples* window_rounds) {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    int64_t setup_ns = 0;
    while (NowNs() < deadline && run_round(t, window_rounds)) {
      const int64_t t0 = NowNs();
      const bool ok = sample_setup(t);
      setup_ns += NowNs() - t0;
      if (!ok) break;
    }
    return static_cast<double>(NowNs() - start - setup_ns) * 1e-9;
  };

  Samples untraced_rounds, traced_rounds;
  double wall_s = 0.0;
  double overhead = 0.0;
  if (options.trace) {
    run_window(options.seconds / 2, nullptr, &untraced_rounds);
    round_ms = Samples();
    close_ms = Samples();
    window_rows = 0;
    wall_s = run_window(options.seconds / 2, traced, &traced_rounds);
    if (!traced_rounds.empty() && !untraced_rounds.empty()) {
      overhead = traced_rounds.Median() / untraced_rounds.Median() - 1.0;
    }
  } else {
    wall_s = run_window(options.seconds, nullptr, &untraced_rounds);
  }
  const ProcUsage usage_after = ReadProcUsage();

  // --- End-to-end metrics ------------------------------------------------------
  auto& e2e = report.end_to_end;
  double mse = 0.0;
  for (double m : mse_ratio) mse += m;
  e2e.Set("reports_per_s", static_cast<double>(window_rows) / wall_s, "1/s");
  e2e.Set("round_ms_p50", round_ms.Median(), "ms");
  e2e.Set("close_ms_p50", close_ms.Median(), "ms");
  e2e.Set("setup_s", setup_s.Median(), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  e2e.Set("wire_bytes_per_report", wire_bytes, "B");
  e2e.Set("mse_over_predicted",
          mse / static_cast<double>(std::max<size_t>(1, mse_ratio.size())),
          "ratio");
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "rounds: %zu in %.3f s; close = server compute per round "
                "(keygen + decrypt + estimate); setup: median of %zu samples",
                round_ms.size(), wall_s, setup_s.size());
  report.notes.push_back(buf);
  report.notes.push_back(TailNote("round_ms_tail", round_ms));
  report.notes.push_back(TailNote("close_ms_tail", close_ms));
  report.notes.push_back(
      "query_ms_p50, query_ms_tail: n/a (no endpoint on this workload)");

  // --- Per-layer metrics -------------------------------------------------------
  auto& layer = report.per_layer;
  layer.Set("peos.user_s", user_s.Median(), "s");
  layer.Set("peos.shuffler_s", shuffler_s.Median(), "s");
  layer.Set("peos.server_s", server_s.Median(), "s");
  const double mrows = static_cast<double>(worker_stats.rows) * 1e-6;
  if (mrows > 0) {
    layer.Set("worker.decode_s_per_mrow", worker_stats.decode_seconds / mrows,
              "s/Mrow");
    layer.Set("worker.support_eval_s_per_mrow",
              worker_stats.support_eval_seconds / mrows, "s/Mrow");
    layer.Set("worker.busy_s_per_mrow", worker_stats.busy_seconds / mrows,
              "s/Mrow");
    layer.Set("worker.backpressure_waits",
              static_cast<double>(worker_stats.backpressure_waits), "count");
    layer.Set("worker.queue_high_water",
              static_cast<double>(worker_stats.queue_high_water), "count");
  }
  layer.Set("coordinator.rows_skew", 1.0, "ratio");
  SetProcMetrics(usage_before, usage_after, rounds_done, &report);

  if (options.trace) {
    SetTraceMetrics(tracer, overhead, &report);

    std::vector<double> truth;
    auto values = RoundValues(zipf, options.seed, 0, &truth);
    ReplayCrypto(collector->oracle(), values, n_r, options.seed, pool.get(), traced,
                 &report);

    // Support + calibrate replays over the round's decoded reports.
    shuffledp::Rng rng(options.seed ^ 0xBEEFULL);
    const auto& oracle = collector->oracle();
    std::vector<ldp::LdpReport> reports;
    reports.reserve(rows);
    for (uint64_t v : values) reports.push_back(oracle.Encode(v, &rng));
    for (uint64_t k = 0; k < n_r; ++k) {
      auto rep = oracle.UnpackOrdinal(
          rng.UniformU64(uint64_t{1} << oracle.PackedBits()));
      if (rep.ok()) reports.push_back(*rep);
    }
    std::vector<uint64_t> supports(kDomain, 0);
    {
      ScopedSpan s(traced, "replay.accumulate_supports");
      const int64_t t0 = NowNs();
      oracle.AccumulateSupports(reports.data(), reports.size(), 0, kDomain,
                                supports.data());
      layer.Set("ldp.support_ns_per_report",
                static_cast<double>(NowNs() - t0) /
                    static_cast<double>(reports.size()),
                "ns");
    }
    {
      ScopedSpan s(traced, "replay.calibrate");
      std::vector<double> us;
      for (int rep = 0; rep < 50; ++rep) {
        const int64_t t0 = NowNs();
        auto est = ldp::CalibrateEstimatesOrdinal(oracle, supports, kUsers, n_r);
        us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
        report.ops.Check(est.size() == kDomain, "calibrate replay size");
      }
      layer.Set("ldp.calibrate_us", MedianOf(us), "us");
    }

    // Where a round's time went, per the library's cost ledger and the
    // crypto replays (EOS and decryption are predicted to dominate).
    auto get = [&](const char* name) { return layer.Get(name); };
    const double total_rows = static_cast<double>(rows);
    NoteDominantLayer(
        {{"packed decryption (1 thread)",
          get("crypto.decrypt_us_per_row") * 1e-6 * total_rows},
         {"EOS", get("shuffle.eos_s_per_round")},
         {"encryption (1 thread)",
          get("crypto.encrypt_us_per_row") * 1e-6 * total_rows},
         {"share split", get("crypto.split_ns_per_row") * 1e-9 * total_rows},
         {"key generation", get("crypto.keygen_ms") * 1e-3},
         {"support evaluation",
          get("ldp.support_ns_per_report") * 1e-9 * total_rows}},
        round_ms.Median() * 1e-3, &report);
    WriteTrace(options, tracer, &report);
  }
  return report;
}

}  // namespace perfbench
