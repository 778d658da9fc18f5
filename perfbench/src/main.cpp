// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload solh-fleet --seed 1 --seconds 10 --trace 0
//                    [--work-dir DIR]
//
// Workloads: solh-fleet, peos-crypto (see
// BENCHMARK.json for why each exists). Every metric is printed by name
// with its unit; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of
// a traced run (--trace 1). The exit code is non-zero when an output
// check failed or the arguments are wrong.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::RunOptions;
using perfbench::RunReport;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "{solh-fleet|peos-crypto} --seed N "
               "--seconds S --trace {0|1} [--work-dir DIR]\n",
               msg);
  return 2;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const perfbench::MetricSet& set, const char* title) {
  std::printf("%s\n", title);
  for (const auto& m : set.items()) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  perfbench::WorkloadFn fn = nullptr;
  if (options.workload == "solh-fleet") fn = perfbench::RunSolhFleet;
  if (options.workload == "peos-crypto") fn = perfbench::RunPeosCrypto;
  if (fn == nullptr) return Usage("unknown workload");

  std::printf("host: %s\n", perfbench::HostFingerprintJson(options).c_str());
  std::fflush(stdout);
  RunReport report = fn(options);

  const double failed_ratio =
      report.ops.attempted == 0
          ? 1.0
          : static_cast<double>(report.ops.failed) /
                static_cast<double>(report.ops.attempted);
  report.per_layer.Set("ops.failed_ratio", failed_ratio, "ratio");
  report.end_to_end.Set("ok_ratio", 1.0 - failed_ratio, "ratio");
  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());
  for (const auto& f : report.ops.failures) std::printf("FAILED: %s\n", f.c_str());
  std::printf("failed_ratio %.6g (%llu of %llu operations)\n", failed_ratio,
              static_cast<unsigned long long>(report.ops.failed),
              static_cast<unsigned long long>(report.ops.attempted));
  const perfbench::MetricSet& emitted =
      options.trace ? report.per_layer : report.end_to_end;
  PrintMetrics(emitted, options.trace ? "per-layer metrics (traced run):"
                                      : "end-to-end metrics:");

  const bool correct = report.ops.checks_ok && report.ops.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.ops.attempted);
  json += ", \"failed\": " + std::to_string(report.ops.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : emitted.items()) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  const int code = correct ? 0 : 1;
  // A stalled shutdown left a thread blocked inside the library; leave
  // without running destructors that would join it.
  if (perfbench::AnyShutdownStalled()) _exit(code);
  return code;
}
