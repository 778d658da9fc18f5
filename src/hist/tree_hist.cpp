#include "hist/tree_hist.h"

#include <algorithm>
#include <unordered_map>

#include "ldp/estimator.h"

namespace shuffledp {
namespace hist {

namespace {

// Shared per-round scaffolding: candidate expansion and top-k selection.
struct Frontier {
  std::vector<uint64_t> prefixes;
  std::vector<double> estimates;
  unsigned bits = 0;
};

std::vector<uint64_t> ExpandCandidates(const Frontier& frontier,
                                       unsigned bits_per_round) {
  const uint64_t fanout = uint64_t{1} << bits_per_round;
  std::vector<uint64_t> candidates;
  candidates.reserve(frontier.prefixes.size() * fanout);
  for (uint64_t p : frontier.prefixes) {
    for (uint64_t c = 0; c < fanout; ++c) {
      candidates.push_back((p << bits_per_round) | c);
    }
  }
  return candidates;
}

Frontier SelectTopK(const std::vector<uint64_t>& candidates,
                    const std::vector<double>& estimates, size_t top_k,
                    unsigned prefix_bits) {
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  size_t keep = std::min(top_k, candidates.size());
  std::partial_sort(order.begin(),
                    order.begin() + static_cast<ptrdiff_t>(keep),
                    order.end(), [&](size_t a, size_t b) {
                      if (estimates[a] != estimates[b]) {
                        return estimates[a] > estimates[b];
                      }
                      return candidates[a] < candidates[b];
                    });
  Frontier out;
  out.bits = prefix_bits;
  out.prefixes.resize(keep);
  out.estimates.resize(keep);
  for (size_t i = 0; i < keep; ++i) {
    out.prefixes[i] = candidates[order[i]];
    out.estimates[i] = estimates[order[i]];
  }
  return out;
}

Status ValidateTreeHistConfig(const TreeHistConfig& config,
                              const std::vector<uint64_t>& values) {
  if (config.total_bits == 0 || config.bits_per_round == 0 ||
      config.total_bits % config.bits_per_round != 0) {
    return Status::InvalidArgument(
        "TreeHist: total_bits must be a positive multiple of bits_per_round");
  }
  if (config.total_bits > 64) {
    return Status::InvalidArgument("TreeHist: total_bits > 64");
  }
  if (config.top_k == 0) {
    return Status::InvalidArgument("TreeHist: top_k must be positive");
  }
  if (values.empty()) {
    return Status::InvalidArgument("TreeHist: empty dataset");
  }
  return Status::OK();
}

}  // namespace

Result<TreeHistResult> RunTreeHist(const std::vector<uint64_t>& values,
                                   const TreeHistConfig& config,
                                   const RoundEstimator& estimator,
                                   Rng* rng) {
  SHUFFLEDP_RETURN_NOT_OK(ValidateTreeHistConfig(config, values));

  const unsigned rounds = config.total_bits / config.bits_per_round;
  const uint64_t n = values.size();

  // User groups: strided assignment (user i reports in round i mod
  // `rounds`), which is safe even when the input happens to be sorted.
  auto in_group = [&](uint64_t user, unsigned round) {
    return !config.split_users || (user % rounds) == round;
  };
  auto group_size = [&](unsigned round) -> uint64_t {
    if (!config.split_users) return n;
    return n / rounds + ((n % rounds) > round ? 1 : 0);
  };

  // Frontier of currently-frequent prefixes; empty prefix to start.
  Frontier frontier;
  frontier.prefixes = {0};
  frontier.estimates = {1.0};
  frontier.bits = 0;

  for (unsigned round = 0; round < rounds; ++round) {
    const unsigned prefix_bits = frontier.bits + config.bits_per_round;
    auto candidates = ExpandCandidates(frontier, config.bits_per_round);
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(candidates.size() * 2);
    for (size_t i = 0; i < candidates.size(); ++i) {
      index.emplace(candidates[i], i);
    }

    // True candidate counts among this round's reporting users (+dummy).
    std::vector<uint64_t> counts(candidates.size() + 1, 0);
    const unsigned shift = config.total_bits - prefix_bits;
    for (uint64_t i = 0; i < n; ++i) {
      if (!in_group(i, round)) continue;
      uint64_t prefix = values[i] >> shift;
      auto it = index.find(prefix);
      if (it != index.end()) {
        ++counts[it->second];
      } else {
        ++counts.back();
      }
    }

    // Private estimation.
    std::vector<double> estimates = estimator(counts, group_size(round), rng);
    if (estimates.size() < candidates.size()) {
      return Status::Internal("TreeHist: estimator returned too few values");
    }
    estimates.resize(candidates.size());
    frontier = SelectTopK(candidates, estimates, config.top_k, prefix_bits);
  }

  TreeHistResult result;
  result.heavy_hitters = frontier.prefixes;
  result.frequencies = frontier.estimates;
  result.rounds = rounds;
  return result;
}

Result<TreeHistResult> RunTreeHistExact(const std::vector<uint64_t>& values,
                                        const TreeHistConfig& config,
                                        const OracleFactory& factory,
                                        uint64_t fakes_per_round, Rng* rng) {
  SHUFFLEDP_RETURN_NOT_OK(ValidateTreeHistConfig(config, values));
  const unsigned rounds = config.total_bits / config.bits_per_round;
  const uint64_t n = values.size();

  auto in_group = [&](uint64_t user, unsigned round) {
    return !config.split_users || (user % rounds) == round;
  };

  Frontier frontier;
  frontier.prefixes = {0};
  frontier.estimates = {1.0};
  frontier.bits = 0;

  for (unsigned round = 0; round < rounds; ++round) {
    const unsigned prefix_bits = frontier.bits + config.bits_per_round;
    auto candidates = ExpandCandidates(frontier, config.bits_per_round);
    std::unordered_map<uint64_t, size_t> index;
    index.reserve(candidates.size() * 2);
    for (size_t i = 0; i < candidates.size(); ++i) {
      index.emplace(candidates[i], i);
    }
    const uint64_t round_domain = candidates.size() + 1;  // + dummy

    SHUFFLEDP_ASSIGN_OR_RETURN(auto oracle, factory(round_domain));
    if (oracle == nullptr || oracle->domain_size() != round_domain) {
      return Status::InvalidArgument(
          "TreeHist: factory returned an oracle for the wrong domain");
    }

    // Each reporting user maps their value onto the candidate domain and
    // encodes a real report; shufflers add uniform fakes.
    std::vector<ldp::LdpReport> reports;
    const unsigned shift = config.total_bits - prefix_bits;
    uint64_t n_round = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (!in_group(i, round)) continue;
      ++n_round;
      uint64_t prefix = values[i] >> shift;
      auto it = index.find(prefix);
      uint64_t encoded =
          it != index.end() ? it->second : candidates.size();  // dummy
      reports.push_back(oracle->Encode(encoded, rng));
    }
    for (uint64_t k = 0; k < fakes_per_round; ++k) {
      reports.push_back(oracle->MakeFakeReport(rng));
    }

    // Candidate support counts over [0, k) -> calibrated estimates (the
    // dummy value k is dropped).
    std::vector<uint64_t> supports(candidates.size(), 0);
    ldp::AccumulateSupportCounts(*oracle, reports.data(), reports.size(), 0,
                                 supports.size(), supports.data(), nullptr);
    auto estimates =
        ldp::CalibrateEstimates(*oracle, supports, n_round, fakes_per_round);
    frontier = SelectTopK(candidates, estimates, config.top_k, prefix_bits);
  }

  TreeHistResult result;
  result.heavy_hitters = frontier.prefixes;
  result.frequencies = frontier.estimates;
  result.rounds = rounds;
  return result;
}

}  // namespace hist
}  // namespace shuffledp
