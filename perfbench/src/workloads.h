// The benchmark workloads and the layer replays they share.
//
// Every workload sizes itself with core::PlanPeos at default PrivacyGoals,
// pre-encodes its rounds (user reports plus the planner's fake blanket)
// outside the timed window, and runs closed loop: the next round starts
// when the previous round's result has arrived.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/planner.h"
#include "harness.h"
#include "ldp/frequency_oracle.h"
#include "service/partition.h"
#include "service/partition_worker.h"
#include "util/thread_pool.h"

namespace perfbench {

/// A workload entry point.
using WorkloadFn = RunReport (*)(const RunOptions&);

RunReport RunSolhFleet(const RunOptions& options);
RunReport RunPeosCrypto(const RunOptions& options);

/// Upper bound on a round's MSE over AnalyticMse (harness.h) — the
/// utility guard every workload checks on every distinct round — and, for
/// PEOS rounds, over the plan's predicted variance.
inline constexpr double kMaxMseRatio = 1.5;

/// One pre-encoded round: shuffled user + fake ordinals cut into frames.
struct EncodedRound {
  std::vector<std::vector<uint64_t>> frames;
  std::vector<double> truth;  ///< true frequencies of the round's users
  uint64_t rows = 0;          ///< n + n_r
};

/// The round's ordinals through an in-process StreamingCollector, decoded
/// exactly as the endpoint decodes kBatch frames. The result bits do not
/// depend on `pool` (null = serial, the endpoint's default).
shuffledp::Result<shuffledp::service::RoundResult> CollectInProcess(
    const shuffledp::ldp::ScalarFrequencyOracle& oracle,
    const EncodedRound& round, uint64_t n, uint64_t n_r,
    shuffledp::ThreadPool* pool);

/// Inputs of the layer replays: the run's own frames and results.
struct ReplayInput {
  const shuffledp::ldp::ScalarFrequencyOracle* oracle = nullptr;
  const EncodedRound* round = nullptr;
  const shuffledp::service::RoundResult* reference = nullptr;
  uint64_t n = 0;
  uint64_t n_r = 0;
  std::string work_dir;
  /// The fleet's map: per-endpoint supports are merged through it.
  const shuffledp::service::PartitionMap* fleet_map = nullptr;
};

/// Frame CRC, FrameDecoder and ordinal-parse replays over the round's
/// frames. Sets util.crc32_ns_per_byte, transport.decode_ns_per_frame and
/// ldp.parse_ns_per_report.
void ReplayWireLayers(const ReplayInput& in, Tracer* tracer, RunReport* out);

/// StreamingCollector replay of the round with the server's default
/// (serial) options. Sets the worker.* metrics.
void ReplayWorker(const ReplayInput& in, Tracer* tracer, RunReport* out);

/// oracle.AccumulateSupports over each endpoint's decoded reports,
/// PartitionMap::MergeSupports of the parts, and CalibrateEstimatesOrdinal.
/// Sets ldp.support_ns_per_report, partition.merge_us and ldp.calibrate_us.
void ReplaySupportAndCalibrate(const ReplayInput& in, Tracer* tracer,
                               RunReport* out);

/// SegmentedRoundStore replay (Open, AppendDelta per frame,
/// FinalizeRound, CloseRound, Query, reopen + LoadAll) on a fresh store
/// directory. Sets the store.* metrics.
void ReplayStore(const ReplayInput& in, Tracer* tracer, RunReport* out);

/// Every per-layer metric the benchmark defines, set to 0 (the value for
/// layers a workload does not exercise); workloads overwrite what they
/// measure.
void InitPerLayerMetrics(RunReport* out);

/// Prints which replayed layer took the most time per round.
void NoteDominantLayer(const std::vector<std::pair<std::string, double>>&
                           layer_seconds_per_round,
                       double round_wall_s, RunReport* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
