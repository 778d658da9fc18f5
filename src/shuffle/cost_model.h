// Cost accounting for the simulated multi-party protocols.
//
// Table III reports, per party role, the computation time and the number
// of bytes moved over the (secure) channels. Every protocol message in
// this library is serialized to real wire bytes and recorded in a
// CostLedger; computation is measured with wall-clock scopes attributed to
// the role doing the work. Because all protocol costs scale linearly in
// the number of reports, a run at small n extrapolates linearly to the
// paper's n = 10^6.

#ifndef SHUFFLEDP_SHUFFLE_COST_MODEL_H_
#define SHUFFLEDP_SHUFFLE_COST_MODEL_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "util/timer.h"

namespace shuffledp {
namespace shuffle {

/// Protocol party roles.
enum class Role : int {
  kUser = 0,
  kShuffler = 1,
  kServer = 2,
};

constexpr int kNumRoles = 3;

/// Returns "user" / "shuffler" / "server".
const char* RoleName(Role role);

/// Thread-safe accumulator of per-role communication and computation.
class CostLedger {
 public:
  /// Records `bytes` sent from `from` to `to`.
  void RecordSend(Role from, Role to, uint64_t bytes) {
    sent_[static_cast<int>(from)].fetch_add(bytes,
                                            std::memory_order_relaxed);
    received_[static_cast<int>(to)].fetch_add(bytes,
                                              std::memory_order_relaxed);
    messages_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Adds `seconds` of computation attributed to `role`.
  void RecordCompute(Role role, double seconds) {
    // Atomic add on doubles via compare-exchange.
    auto& slot = compute_ns_[static_cast<int>(role)];
    slot.fetch_add(static_cast<uint64_t>(seconds * 1e9),
                   std::memory_order_relaxed);
  }

  uint64_t bytes_sent(Role role) const {
    return sent_[static_cast<int>(role)].load(std::memory_order_relaxed);
  }
  uint64_t bytes_received(Role role) const {
    return received_[static_cast<int>(role)].load(std::memory_order_relaxed);
  }
  double compute_seconds(Role role) const {
    return static_cast<double>(
               compute_ns_[static_cast<int>(role)].load(
                   std::memory_order_relaxed)) /
           1e9;
  }
  uint64_t message_count() const {
    return messages_.load(std::memory_order_relaxed);
  }

  void Reset() {
    for (auto& s : sent_) s.store(0);
    for (auto& r : received_) r.store(0);
    for (auto& c : compute_ns_) c.store(0);
    messages_.store(0);
  }

 private:
  std::array<std::atomic<uint64_t>, kNumRoles> sent_{};
  std::array<std::atomic<uint64_t>, kNumRoles> received_{};
  std::array<std::atomic<uint64_t>, kNumRoles> compute_ns_{};
  std::atomic<uint64_t> messages_{0};
};

/// RAII compute-time scope: attributes its lifetime to a role.
class ComputeScope {
 public:
  ComputeScope(CostLedger* ledger, Role role)
      : ledger_(ledger), role_(role) {}
  ~ComputeScope() {
    if (ledger_ != nullptr) {
      ledger_->RecordCompute(role_, timer_.ElapsedSeconds());
    }
  }
  ComputeScope(const ComputeScope&) = delete;
  ComputeScope& operator=(const ComputeScope&) = delete;

 private:
  CostLedger* ledger_;
  Role role_;
  WallTimer timer_;
};

/// A per-role cost summary row (what the Table III bench prints).
struct CostReport {
  uint64_t n = 0;           ///< number of real users in the run
  uint32_t r = 0;           ///< number of shufflers
  double user_comp_ms_per_user = 0.0;
  uint64_t user_comm_bytes_per_user = 0;
  double aux_comp_seconds = 0.0;        ///< total across shufflers / r
  double aux_comm_mb_per_shuffler = 0.0;
  double server_comp_seconds = 0.0;
  double server_comm_mb = 0.0;          ///< bytes received by the server

  std::string ToString() const;
};

/// Builds a CostReport from a ledger.
CostReport SummarizeCosts(const CostLedger& ledger, uint64_t n, uint32_t r);

}  // namespace shuffle
}  // namespace shuffledp

#endif  // SHUFFLEDP_SHUFFLE_COST_MODEL_H_
