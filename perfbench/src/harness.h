// Shared harness for the repository benchmark: run options, metric
// collection, operation accounting, in-memory span tracing, timing
// statistics, the host fingerprint, and the shutdown watchdog.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/transport.h"

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch space inside the checkout
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Ordered name -> (value, unit) list; Set() overwrites an existing name.
class MetricSet {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  void Set(const std::string& name, double value, const std::string& unit);
  /// Value of `name`; 0 when unset.
  double Get(const std::string& name) const;
  const std::vector<Metric>& items() const { return items_; }

 private:
  std::vector<Metric> items_;
};

/// Operation accounting behind `attempted`/`failed`. Operations are
/// frames, rounds, queries, shutdowns and output checks.
struct OpCounter {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool checks_ok = true;  ///< false once any output check failed
  std::vector<std::string> failures;

  void Ok(uint64_t n = 1) { attempted += n; }
  void Fail(const std::string& what);
  /// An output check: failing it also clears checks_ok.
  bool Check(bool pass, const std::string& what);
};

/// In-memory span recorder for traced runs. Single-threaded: the
/// benchmark makes every layer call from its generator thread. Spans nest
/// by call order (the innermost open span is the parent); all spans of a
/// round carry the round id.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t t0;
    int64_t t1;
    int32_t parent;
    uint64_t round;
  };
  static constexpr uint64_t kNoRound = ~uint64_t{0};

  int32_t Begin(const char* name, uint64_t round);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of (t1 - t0) over spans named `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// Sum of self time (duration minus the union of child spans) over
  /// spans named `name`, in seconds.
  double SelfSeconds(const std::string& name) const;
  /// Writes one JSON object per span, one per line.
  bool WriteJsonLines(const std::string& path,
                      const std::string& header_json) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name,
             uint64_t round = Tracer::kNoRound)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(name, round) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

/// Timing samples with the summary the benchmark reports: the median and
/// the highest percentile of {95, 90, 75, 50} that leaves at least ten
/// samples beyond it (the maximum when there are fewer than 20).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p) const;  ///< nearest rank; 0 when empty
  double Median() const { return Percentile(50.0); }
  /// The tail percentile chosen by the rule above (100 = maximum).
  double TailPercentile() const;
  double Tail() const { return Percentile(TailPercentile()); }

 private:
  std::vector<double> values_;
};

/// "<name> <value> ms (pXX of N rounds)": tails are printed, not gated —
/// on a shared host one noisy minute moves a 20 ms loop's p95 by 2x.
std::string TailNote(const std::string& name, const Samples& samples);

/// Everything one workload run reports.
struct RunReport {
  OpCounter ops;
  MetricSet end_to_end;  ///< printed and emitted with --trace 0
  MetricSet per_layer;   ///< printed and emitted with --trace 1
  /// Human-readable lines printed before the JSON result (metrics that
  /// do not apply to the workload, the dominant layer, notes).
  std::vector<std::string> notes;
};

/// Resident-set high-water mark of this process, in MiB.
double PeakRssMb();

/// CPU time and involuntary context switches of this process.
struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_involuntary = 0.0;
};
ProcUsage ReadProcUsage();

/// Sets proc.cpu_user_s, proc.cpu_sys_s and proc.ctx_switches_involuntary
/// per round from two ReadProcUsage() snapshots.
void SetProcMetrics(const ProcUsage& before, const ProcUsage& after,
                    uint64_t rounds, RunReport* out);

/// Sets trace.overhead (traced over untraced median round, minus one) and
/// trace.layer_sum_over_wall (share of round spans covered by children).
void SetTraceMetrics(const Tracer& tracer, double overhead, RunReport* out);

/// Writes the spans to <work_dir>/trace-<workload>-seed<seed>.jsonl after
/// the host fingerprint and notes where they went.
void WriteTrace(const RunOptions& options, const Tracer& tracer,
                RunReport* out);

/// One-line JSON host fingerprint: nproc, CPU model, support/Mont/AES/SHA
/// backends, build type, the work directory's filesystem type, and seed.
std::string HostFingerprintJson(const RunOptions& options);

/// Filesystem type name of `path` ("ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

/// Shuts `server` down under a watchdog. Returns true and the elapsed
/// milliseconds when Shutdown() returned within `deadline_ms`. On a stall
/// the server, its shutdown thread, and `keep_alive` are parked for the
/// rest of the process (they may still be referenced by the hung
/// thread) and false is returned; the caller counts the stall. Nothing is
/// retried.
bool ShutdownWithWatchdog(std::unique_ptr<shuffledp::service::CollectionServer>
                              server,
                          std::shared_ptr<void> keep_alive, int deadline_ms,
                          double* elapsed_ms);

/// True once any ShutdownWithWatchdog call stalled; main() then leaves
/// through _Exit so the parked thread cannot block process exit.
bool AnyShutdownStalled();

/// Deadline for one CollectionServer::Shutdown().
inline constexpr int kShutdownDeadlineMs = 3000;

/// Runs fn() on the calling thread pinned to the (k mod n)-th of the n
/// CPUs the process may use, then restores the thread's affinity; threads
/// fn() starts inherit the pin. Set-up samples taken with k = 0, 1, 2, ...
/// mix every CPU instead of inheriting the neighbours of the one the
/// scheduler happened to keep the thread on. Runs unpinned when the
/// affinity cannot be read.
void RunPinned(uint64_t k, const std::function<void()>& fn);

/// Median of a small vector (copy).
double MedianOf(std::vector<double> v);

/// Mean squared error of `estimates` against `truth`.
double MeanSquaredError(const std::vector<double>& estimates,
                        const std::vector<double>& truth);

/// Expected MSE of a calibrated round, derived here from the mechanism's
/// definition rather than from the library's calibration constants: GRR
/// or local hashing at the oracle's ε over its report domain, n users
/// with true frequencies `truth`, and n_r fakes uniform over the report
/// domain (the plans benchmarked have no ordinal padding).
double AnalyticMse(const shuffledp::ldp::ScalarFrequencyOracle& oracle,
                   uint64_t n, uint64_t n_r, const std::vector<double>& truth);

/// Bitwise equality of two estimate vectors.
bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
