#include "shuffle/peos.h"

#include <algorithm>
#include <mutex>

#include "crypto/secret_sharing.h"
#include "ldp/estimator.h"
#include "util/rng.h"

namespace shuffledp {
namespace shuffle {

namespace {

// Fixed user-phase chunk size; seeds derive from chunk start indices so
// the chunking must not depend on the worker count (ForChunks).
constexpr uint64_t kUserChunk = 1024;

// Enc(0) masks in the RandomizerPool (64^2 distinct pairwise masks).
constexpr size_t kRandomizerPoolSize = 64;

}  // namespace

unsigned PeosPackedSlotBits(unsigned ell, uint32_t num_shufflers) {
  const uint64_t eos_rounds = EosRounds(num_shufflers);
  unsigned extra = 0;
  while ((uint64_t{1} << extra) < eos_rounds + 1) ++extra;
  return ell + extra + 1;
}

Result<PeosResult> RunPeos(const ldp::ScalarFrequencyOracle& oracle,
                           const std::vector<uint64_t>& values,
                           const PeosConfig& config,
                           crypto::SecureRandom* rng) {
  const uint64_t n = values.size();
  const uint32_t r = config.num_shufflers;
  if (n == 0) return Status::InvalidArgument("PEOS: empty dataset");
  if (r < 2) return Status::InvalidArgument("PEOS: need r >= 2 shufflers");
  // The share group is Z_{2^B} where B is the oracle's padded ordinal
  // width: uniform B-bit fake shares then reconstruct to uniform ordinal
  // values (see frequency_oracle.h). config.ell is validated against it.
  const unsigned share_bits = oracle.PackedBits();
  if (share_bits < 1 || share_bits > 64) {
    return Status::InvalidArgument("PEOS: oracle ordinal width out of range");
  }
  if (config.ell < share_bits) {
    return Status::InvalidArgument(
        "PEOS: ell smaller than the oracle's packed ordinal width");
  }
  std::vector<PeosShufflerBehaviour> behaviours = config.behaviours;
  behaviours.resize(r, PeosShufflerBehaviour::kHonest);

  CostLedger ledger;
  PeosResult result;
  const uint64_t total = n + config.fake_reports;
  const unsigned ell = share_bits;  // share over exactly the ordinal group
  const uint64_t mask =
      ell >= 64 ? ~uint64_t{0} : ((uint64_t{1} << ell) - 1);

  // --- Setup: server AHE key pair ------------------------------------------
  crypto::PaillierKeyPair server_keys;
  {
    ComputeScope scope(&ledger, Role::kServer);
    auto kp = crypto::PaillierGenerateKeyPair(config.paillier_bits, rng);
    if (!kp.ok()) return kp.status();
    server_keys = std::move(kp).value();
  }
  const unsigned slot_bits = PeosPackedSlotBits(ell, r);
  const uint64_t group = server_keys.priv.PackedSlotCapacity(slot_bits);
  if (group == 0) {
    return Status::InvalidArgument(
        "PEOS: Paillier prime too small for the packed slot width");
  }
  std::unique_ptr<crypto::RandomizerPool> pool;
  if (config.use_randomizer_pool) {
    pool = std::make_unique<crypto::RandomizerPool>(
        server_keys.pub, kRandomizerPoolSize, rng, config.pool);
  }
  const uint64_t cipher_bytes = server_keys.pub.CiphertextBytes();

  // --- User phase: encode, share, encrypt share r ---------------------------
  EosState state;
  state.plain.ell = ell;
  state.plain.columns.assign(r - 1 + 1,
                             std::vector<uint64_t>(total, 0));
  // Column layout: columns[0..r-2] are shufflers 1..r-1's plaintext
  // shares; columns[r-1] is shuffler r's *local* plaintext column, which
  // stays all-zero for user rows (shuffler r receives only ciphertexts)
  // and carries its own fake-share contributions.
  state.cipher_column.resize(total);
  state.e_holder = r - 1;

  {
    ComputeScope scope(&ledger, Role::kUser);
    std::mutex status_mu;
    Status enc_status = Status::OK();
    auto user_range = [&](uint64_t lo, uint64_t hi, uint64_t seed) {
      Rng local_rng(seed);
      crypto::SecureRandom local_sec(seed ^ 0xFEEDFACEULL);
      for (uint64_t i = lo; i < hi; ++i) {
        ldp::LdpReport rep = oracle.Encode(values[i], &local_rng);
        auto shares = crypto::SplitShares2Ell(oracle.PackOrdinal(rep), r,
                                              ell, &local_sec);
        for (uint32_t j = 0; j + 1 < r; ++j) {
          state.plain.columns[j][i] = shares[j];
        }
        Result<crypto::PaillierCiphertext> c =
            pool != nullptr
                ? Result<crypto::PaillierCiphertext>(
                      pool->EncryptFastU64(shares[r - 1], &local_sec))
                : server_keys.pub.EncryptU64(shares[r - 1], &local_sec);
        if (!c.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          enc_status = c.status();
          return;
        }
        state.cipher_column[i] = std::move(c).value();
      }
    };
    // Fixed-size chunks keep the per-chunk seeds — and hence every
    // report and share — independent of the pool's worker count.
    const uint64_t base_seed = rng->NextU64();
    ForChunks(config.pool, 0, n, kUserChunk, [&](uint64_t lo, uint64_t hi) {
      user_range(lo, hi, base_seed ^ (lo * 0x9E3779B97F4A7C15ULL + 1));
    });
    if (!enc_status.ok()) return enc_status;
  }
  // Per-user upload: r − 1 plaintext shares + 1 ciphertext.
  ledger.RecordSend(Role::kUser, Role::kShuffler,
                    n * ((r - 1) * 8 + cipher_bytes));

  // --- Shufflers create fake-report shares ----------------------------------
  {
    ComputeScope scope(&ledger, Role::kShuffler);
    // Every shuffler contributes one uniform share; the sum over honest
    // shufflers is uniform regardless of what malicious ones pick
    // (Algorithm 1 + §VI-A2 masking argument). Shares are drawn serially
    // from the protocol rng; the Paillier encryptions of shuffler r's
    // column are independent per row and run on the thread pool.
    std::vector<uint64_t> share_r_column(config.fake_reports);
    for (uint64_t k = 0; k < config.fake_reports; ++k) {
      const uint64_t row = n + k;
      for (uint32_t j = 0; j + 1 < r; ++j) {
        uint64_t share =
            behaviours[j] == PeosShufflerBehaviour::kBiasedFakeShares
                ? (config.poison_target_packed & mask)
                : (rng->NextU64() & mask);
        state.plain.columns[j][row] = share;
      }
      share_r_column[k] =
          behaviours[r - 1] == PeosShufflerBehaviour::kBiasedFakeShares
              ? (config.poison_target_packed & mask)
              : (rng->NextU64() & mask);
    }
    std::mutex status_mu;
    Status enc_status = Status::OK();
    auto encrypt_range = [&](uint64_t lo, uint64_t hi, uint64_t seed) {
      crypto::SecureRandom local_sec(seed ^ 0xFA4E5EEDULL);
      for (uint64_t k = lo; k < hi; ++k) {
        Result<crypto::PaillierCiphertext> c =
            pool != nullptr
                ? Result<crypto::PaillierCiphertext>(
                      pool->EncryptFastU64(share_r_column[k], &local_sec))
                : server_keys.pub.EncryptU64(share_r_column[k], &local_sec);
        if (!c.ok()) {
          std::lock_guard<std::mutex> lock(status_mu);
          enc_status = c.status();
          return;
        }
        state.cipher_column[n + k] = std::move(c).value();
      }
    };
    const uint64_t base_seed = rng->NextU64();
    ForChunks(config.pool, 0, config.fake_reports, kUserChunk,
              [&](uint64_t lo, uint64_t hi) {
                encrypt_range(lo, hi,
                              base_seed ^ (lo * 0x9E3779B97F4A7C15ULL));
              });
    if (!enc_status.ok()) return enc_status;
  }

  // --- EOS -------------------------------------------------------------------
  EosOptions eos_opts;
  eos_opts.public_key = &server_keys.pub;
  eos_opts.pool = pool.get();
  eos_opts.thread_pool = config.pool;
  SHUFFLEDP_RETURN_NOT_OK(
      RunEncryptedObliviousShuffle(&state, eos_opts, rng, &ledger));

  // --- Shufflers -> server ----------------------------------------------------
  ledger.RecordSend(Role::kShuffler, Role::kServer,
                    (r - 1) * total * 8 /* plaintext columns */);
  ledger.RecordSend(Role::kShuffler, Role::kServer,
                    total * cipher_bytes /* ciphertext column */);

  // --- Server: decrypt + reconstruct + estimate ----------------------------
  // One pass over the whole post-EOS column recovers the encrypted shares
  // by packed decryption and folds in the plaintext share columns; the
  // ordinals then stream to the collector in fixed-size batches.
  // Padding-region ordinals (possible only when the ordinal space is not
  // padding-free) drop as invalid rows, which the ordinal calibration
  // accounts for.
  {
    service::StreamingOptions stream_opts = config.streaming;
    stream_opts.pool = config.pool;
    service::StreamingCollector collector(oracle, stream_opts);

    std::vector<uint64_t> ordinals(total);
    {
      ComputeScope scope(&ledger, Role::kServer);
      std::mutex status_mu;
      Status status = Status::OK();
      // One lane block of pack groups per chunk: the capacity alone fixes
      // the group boundaries, never the worker count, so the recovered
      // shares — and the estimates — are bitwise reproducible across
      // SHUFFLEDP_THREADS settings and kernel backends (all of which
      // return canonical values).
      ForChunks(config.pool, 0, total,
                group * crypto::MontgomeryCtx::kMaxBatchLanes,
                [&](uint64_t lo, uint64_t hi) {
                  Status st = server_keys.priv.DecryptPackedMod2EllBatch(
                      &state.cipher_column[lo], hi - lo, slot_bits, ell,
                      &ordinals[lo]);
                  if (!st.ok()) {
                    std::lock_guard<std::mutex> lock(status_mu);
                    if (status.ok()) status = st;
                    return;
                  }
                  for (const auto& column : state.plain.columns) {
                    for (uint64_t i = lo; i < hi; ++i) {
                      ordinals[i] = (ordinals[i] + column[i]) & mask;
                    }
                  }
                });
      SHUFFLEDP_RETURN_NOT_OK(status);
    }
    const uint64_t batch_size = std::max<size_t>(1, stream_opts.batch_size);
    for (uint64_t lo = 0; lo < total; lo += batch_size) {
      const uint64_t hi = std::min(total, lo + batch_size);
      SHUFFLEDP_RETURN_NOT_OK(collector.Offer(service::MakeOrdinalBatch(
          {ordinals.begin() + lo, ordinals.begin() + hi})));
    }

    SHUFFLEDP_ASSIGN_OR_RETURN(
        service::RoundResult round,
        collector.FinishRound(n, config.fake_reports,
                              service::Calibration::kOrdinal));
    ledger.RecordCompute(Role::kServer, round.stats.busy_seconds);
    result.reports_decoded = round.reports_decoded;
    result.reports_invalid = round.reports_invalid;
    result.estimates = std::move(round.estimates);
    result.streaming = round.stats;
  }

  result.costs = SummarizeCosts(ledger, n, r);
  return result;
}

}  // namespace shuffle
}  // namespace shuffledp
