// Table III reproduction: computation and communication overhead of SS
// (sequential shuffle, onion encryption) vs PEOS, for r = 3 and r = 7
// shufflers.
//
// The paper measures n = 10^6 users on Xeon servers with 32 threads; this
// bench runs the *real protocols* at a configurable n (default 4,000) and
// prints (a) the measured per-role costs, (b) a linear extrapolation of
// compute to n = 10^6 (all protocol phases are linear in the number of
// reports), and (c) communication at n = 10^6 from the exact per-report
// byte counts. Per-user rows are n-independent and directly comparable to
// the paper. See EXPERIMENTS.md for the measured-vs-paper discussion.
//
// Flags: --n=4000, --paillier_bits=1024, --exactcrypto (disable the
// pairwise randomizer pool, a simulation shortcut, so every encryption and
// re-mask is a full-width r^N modexp), --fakes=0 (paper ignores n_r),
// --json=PATH (additionally dump the measured rows as JSON, used by
// bench/run_benches.sh to track the perf trajectory across PRs).

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "data/datasets.h"
#include "ldp/local_hash.h"
#include "shuffle/peos.h"
#include "shuffle/sequential_shuffle.h"
#include "util/thread_pool.h"

using namespace shuffledp;
using bench::Flags;

namespace {

struct Row {
  const char* protocol;
  uint32_t r;
  shuffle::CostReport costs;
};

void PrintTable(const std::vector<Row>& rows, uint64_t n) {
  const double scale_to_paper = 1e6 / static_cast<double>(n);
  std::printf("%-22s", "Metric");
  for (const auto& row : rows) {
    char head[32];
    std::snprintf(head, sizeof(head), "%s r=%u", row.protocol, row.r);
    std::printf(" %12s", head);
  }
  std::printf("\n");

  auto print_metric = [&](const char* name, auto getter) {
    std::printf("%-22s", name);
    for (const auto& row : rows) std::printf(" %12.3f", getter(row.costs));
    std::printf("\n");
  };
  std::printf("-- measured at n=%llu --\n",
              static_cast<unsigned long long>(n));
  print_metric("User comp. (ms)", [](const shuffle::CostReport& c) {
    return c.user_comp_ms_per_user;
  });
  print_metric("User comm. (Byte)", [](const shuffle::CostReport& c) {
    return static_cast<double>(c.user_comm_bytes_per_user);
  });
  print_metric("Aux comp. (s)", [](const shuffle::CostReport& c) {
    return c.aux_comp_seconds;
  });
  print_metric("Aux comm. (MB)", [](const shuffle::CostReport& c) {
    return c.aux_comm_mb_per_shuffler;
  });
  print_metric("Server comp. (s)", [](const shuffle::CostReport& c) {
    return c.server_comp_seconds;
  });
  print_metric("Server comm. (MB)", [](const shuffle::CostReport& c) {
    return c.server_comm_mb;
  });

  std::printf("-- linear extrapolation to n=10^6 (paper's scale) --\n");
  print_metric("Aux comp. (s)", [&](const shuffle::CostReport& c) {
    return c.aux_comp_seconds * scale_to_paper;
  });
  print_metric("Aux comm. (MB)", [&](const shuffle::CostReport& c) {
    return c.aux_comm_mb_per_shuffler * scale_to_paper;
  });
  print_metric("Server comp. (s)", [&](const shuffle::CostReport& c) {
    return c.server_comp_seconds * scale_to_paper;
  });
  print_metric("Server comm. (MB)", [&](const shuffle::CostReport& c) {
    return c.server_comm_mb * scale_to_paper;
  });
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows,
               uint64_t n, unsigned threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"host\": %s,\n  \"n\": %llu,\n  \"threads\": %u,\n",
               bench::HostFingerprintJson().c_str(),
               static_cast<unsigned long long>(n), threads);
  std::fprintf(f, "  \"aes_backend\": \"%s\",\n  \"sha_backend\": \"%s\",\n",
               crypto::AesBackendName(crypto::ActiveAesBackend()),
               crypto::ShaBackendName(crypto::ActiveShaBackend()));
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& c = rows[i].costs;
    std::fprintf(
        f,
        "    {\"protocol\": \"%s\", \"r\": %u, "
        "\"user_comp_ms_per_user\": %.6f, \"user_comm_bytes_per_user\": %llu, "
        "\"aux_comp_seconds\": %.6f, \"aux_comm_mb_per_shuffler\": %.6f, "
        "\"server_comp_seconds\": %.6f, \"server_comm_mb\": %.6f}%s\n",
        rows[i].protocol, rows[i].r, c.user_comp_ms_per_user,
        static_cast<unsigned long long>(c.user_comm_bytes_per_user),
        c.aux_comp_seconds, c.aux_comm_mb_per_shuffler, c.server_comp_seconds,
        c.server_comm_mb, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const uint64_t n = flags.GetU64("n", 3000);
  const uint64_t fakes = flags.GetU64("fakes", 0);
  const size_t paillier_bits = flags.GetU64("paillier_bits", 1024);
  const bool exact_crypto = flags.GetBool("exactcrypto", false);

  // The paper fixes the report at 64 bits and uses SOLH; d' = 16 on an
  // IPUMS-sized domain gives a representative oracle.
  const uint64_t d = 915;
  ldp::LocalHash oracle(4.0, d, 16, "SOLH");
  data::Dataset ds = data::MakeZipfDataset("bench", n, d, 1.0, 20200802);

  ThreadPool pool(ThreadPool::DefaultNumThreads());
  std::printf("== Table III: SS vs PEOS overhead (n=%llu, fakes=%llu, "
              "Paillier %zu-bit, %s, %u threads) ==\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(fakes), paillier_bits,
              exact_crypto ? "exact crypto" : "randomizer pool",
              pool.num_threads());
  std::printf("== crypto backends: AES=%s SHA=%s; SS onion encryption uses "
              "the batched ECIES path ==\n\n",
              crypto::AesBackendName(crypto::ActiveAesBackend()),
              crypto::ShaBackendName(crypto::ActiveShaBackend()));

  std::vector<Row> rows;
  crypto::SecureRandom rng(uint64_t{31337});

  for (uint32_t r : {3u, 7u}) {
    shuffle::SequentialShuffleConfig ss;
    ss.num_shufflers = r;
    ss.fake_reports_total = fakes;
    ss.pool = &pool;
    auto result = shuffle::RunSequentialShuffle(oracle, ds.values, ss, &rng);
    if (!result.ok()) {
      std::fprintf(stderr, "SS r=%u failed: %s\n", r,
                   result.status().ToString().c_str());
      return 1;
    }
    rows.push_back({"SS", r, result->costs});
  }
  for (uint32_t r : {3u, 7u}) {
    shuffle::PeosConfig peos;
    peos.num_shufflers = r;
    peos.fake_reports = fakes;
    peos.paillier_bits = paillier_bits;
    peos.use_randomizer_pool = !exact_crypto;
    peos.pool = &pool;
    auto result = shuffle::RunPeos(oracle, ds.values, peos, &rng);
    if (!result.ok()) {
      std::fprintf(stderr, "PEOS r=%u failed: %s\n", r,
                   result.status().ToString().c_str());
      return 1;
    }
    rows.push_back({"PEOS", r, result->costs});
  }

  PrintTable(rows, n);

  const std::string json_path = flags.GetString("json", "");
  if (!json_path.empty()) {
    if (!WriteJson(json_path, rows, n, pool.num_threads())) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  std::printf(
      "\nExpected shape (paper Table III): PEOS aux computation is orders\n"
      "of magnitude below SS (no per-report public-key peeling), while\n"
      "PEOS communication is higher and grows faster with r (C(r, r/2+1)\n"
      "oblivious-shuffle rounds, each shipping the AHE column).\n");
  return 0;
}
