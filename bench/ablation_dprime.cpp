// Ablation: how sensitive is SOLH to the hash range d'?
//
// The paper's key design choice is Eq. (5) (d' = (m+2)/3) over OLH's
// LDP-optimal d' = e^ε + 1. This bench sweeps d' at
// fixed ε_c on the IPUMS-shaped workload and prints both the analytic
// variance (Proposition 6) and the simulated MSE, marking the Eq. (5)
// optimum — the curve should be convex with its minimum at the mark.
//
// Flags: --epsc=0.5, --reps=10, --scale=1.0.

#include <cstdio>

#include "bench/bench_util.h"
#include "data/datasets.h"
#include "dp/amplification.h"
#include "ldp/fast_sim.h"
#include "ldp/local_hash.h"
#include "util/stats.h"

using namespace shuffledp;
using bench::Flags;

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const double eps_c = flags.GetDouble("epsc", 0.5);
  const int reps = static_cast<int>(flags.GetU64("reps", 10));
  const double scale = flags.GetDouble("scale", 1.0);
  const double delta = 1e-9;

  data::Dataset ds = data::MakeSyntheticIpums(20200802, scale);
  const uint64_t n = ds.user_count();
  const uint64_t d = ds.domain_size;
  auto counts = ds.ValueCounts();
  auto truth = ds.Frequencies();
  std::vector<uint64_t> eval(d);
  for (uint64_t v = 0; v < d; ++v) eval[v] = v;

  const uint64_t d_star = dp::OptimalSolhDPrime(eps_c, n, delta);
  std::printf("== Ablation: SOLH variance vs d' (eps_c=%.2f, n=%llu, "
              "Eq.5 optimum d'=%llu) ==\n\n",
              eps_c, static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(d_star));
  std::printf("%10s %14s %14s %8s\n", "d'", "analytic var", "simulated MSE",
              "");

  Rng rng(5);
  std::vector<uint64_t> sweep;
  for (uint64_t f : {8u, 4u, 2u}) sweep.push_back(std::max<uint64_t>(2, d_star / f));
  sweep.push_back(d_star);
  for (uint64_t f : {2u, 4u, 8u}) sweep.push_back(d_star * f);

  for (uint64_t d_prime : sweep) {
    auto oracle = ldp::MakeSolhFixedDPrime(eps_c, n, d, d_prime, delta);
    if (!oracle.ok()) continue;
    double analytic = dp::SolhVarianceCentral(eps_c, n, d_prime, delta);
    RunningStat mse;
    for (int t = 0; t < reps; ++t) {
      auto est = ldp::FastSimulateEstimateAt(**oracle, counts, n, 0, eval,
                                             &rng);
      mse.Add(MeanSquaredErrorAt(truth, est, eval));
    }
    std::printf("%10llu %14.3e %14.3e %8s\n",
                static_cast<unsigned long long>(d_prime), analytic,
                mse.mean(), d_prime == d_star ? "<- Eq.5" : "");
  }

  // Contrast with OLH's LDP-optimal choice at the amplified local eps.
  double eps_l = dp::InverseSolhEpsLocal(eps_c, n, d_star, delta);
  std::printf("\nAmplified local eps at the optimum: eps_l = %.3f "
              "(OLH's LDP rule would pick d' = e^eps_l + 1 = %.0f)\n",
              eps_l, std::exp(eps_l) + 1.0);
  return 0;
}
