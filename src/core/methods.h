// Method registry for the paper's evaluation: one entry per competitor in
// §VII (Figures 3/4, Table II), with a uniform interface for utility
// trials so every benchmark and example drives the same code path.

#ifndef SHUFFLEDP_CORE_METHODS_H_
#define SHUFFLEDP_CORE_METHODS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "hist/tree_hist.h"
#include "util/rng.h"
#include "util/status.h"

namespace shuffledp {
namespace core {

/// The evaluation's competitors (paper §VII-A).
enum class Method {
  kBase,        ///< outputs 1/d for everything (random-guess baseline)
  kOlh,         ///< LDP local hashing, optimal d' (Wang et al. '17)
  kHad,         ///< LDP Hadamard response (Acharya et al. '19)
  kLap,         ///< central-DP Laplace (lower bound)
  kSh,          ///< GRR + shuffle amplification (Balle et al. '19)
  kSolh,        ///< this paper: shuffler-optimal local hashing
  kAue,         ///< Balcer-Cheu appended unary encoding
  kRap,         ///< unary encoding (RAPPOR) + shuffle (Theorem 2)
  kRapRemoval,  ///< removal-LDP unary [31]; == RAP at 2 ε_c
};

/// All methods in the paper's plotting order.
std::vector<Method> AllMethods();

/// Display name ("SOLH", "RAP_R", ...).
const char* MethodName(Method method);

/// True for methods that use the shuffler (privacy target is central ε_c).
bool IsShuffleMethod(Method method);

/// One utility trial: frequency estimates at `eval_points` for the
/// dataset summarized by `value_counts` (true per-value counts, n users),
/// at privacy target ε_c (interpreted as ε_l for the LDP methods and as
/// the central ε for Lap). Uses the fast aggregate simulation
/// (ldp/fast_sim.h), so Kosarak-scale trials run in O(|eval_points|).
Result<std::vector<double>> RunUtilityTrial(
    Method method, const std::vector<uint64_t>& value_counts, uint64_t n,
    double eps_c, double delta, const std::vector<uint64_t>& eval_points,
    Rng* rng);

/// Analytic per-value variance prediction for the same configuration
/// (used by EXPERIMENTS.md cross-checks and the ablation benches).
/// Returns an error for kBase (no meaningful prediction).
Result<double> PredictVariance(Method method, uint64_t n, uint64_t d,
                               double eps_c, double delta);

/// Builds a TreeHist round estimator for `method` with the per-round
/// budget (ε_round, δ_round) over a round-local candidate domain.
Result<hist::RoundEstimator> MakeRoundEstimator(Method method,
                                                double eps_round,
                                                double delta_round);

}  // namespace core
}  // namespace shuffledp

#endif  // SHUFFLEDP_CORE_METHODS_H_
