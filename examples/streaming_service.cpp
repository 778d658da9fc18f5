// Streaming collection service demo.
//
// Simulates a server ingesting LDP reports from a large user population
// through the streaming pipeline (src/service/): bounded queue with
// backpressure, batched decode, parallel support counting, and
// multi-round (windowed) collection. Run it at the paper's IPUMS-like
// scale with:
//
//   ./example_streaming_service 1000000 1024
//
// It prints per-round estimates for the heavy hitter plus the pipeline's
// throughput/backpressure report.

#include <cstdio>
#include <cstdlib>

#include "core/shuffle_dp.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace shuffledp;

int main(int argc, char** argv) {
  const uint64_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
  const uint64_t d = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1024;
  const int rounds = 3;

  core::PrivacyGoals goals;  // ε₁=0.5, ε₂=2, ε₃=8, δ=1e-9
  core::ShuffleDpCollector::Options options;
  options.streaming.batch_size = 8192;
  options.streaming.queue_capacity = 32;
  auto collector = core::ShuffleDpCollector::Create(goals, n, d, options);
  if (!collector.ok()) {
    std::fprintf(stderr, "planner failed: %s\n",
                 collector.status().ToString().c_str());
    return 1;
  }
  std::printf("plan: %s\n", (*collector)->plan().ToString().c_str());

  // Zipf-ish population: value 0 held by 10% of users, the rest uniform.
  std::vector<uint64_t> values(n);
  Rng data_rng(7);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = data_rng.Bernoulli(0.10) ? 0 : 1 + data_rng.UniformU64(d - 1);
  }

  Rng rng(1234);
  for (int round = 0; round < rounds; ++round) {
    auto result = (*collector)->CollectStreaming(values, &rng);
    if (!result.ok()) {
      std::fprintf(stderr, "round %d failed: %s\n", round,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "round %d: f̂(0)=%.4f (true 0.10)  decoded=%llu invalid=%llu\n",
        round, result->estimates[0],
        static_cast<unsigned long long>(result->reports_decoded),
        static_cast<unsigned long long>(result->reports_invalid));
    std::printf("         pipeline: %s\n", result->stats.ToString().c_str());
  }
  return 0;
}
