// Shared helpers for the reproduction benchmarks: tiny flag parsing,
// table printing and the host fingerprint, so every bench binary reads
// the same way.

#ifndef SHUFFLEDP_BENCH_BENCH_UTIL_H_
#define SHUFFLEDP_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "crypto/montgomery.h"
#include "ldp/support_kernels.h"
#include "util/thread_pool.h"

#ifndef SHUFFLEDP_BUILD_TYPE
#define SHUFFLEDP_BUILD_TYPE "unknown"
#endif

namespace shuffledp {
namespace bench {

/// Parses "--name=value" style flags; missing flags keep their defaults.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  uint64_t GetU64(const std::string& name, uint64_t def) const {
    std::string v = Raw(name);
    return v.empty() ? def : std::strtoull(v.c_str(), nullptr, 10);
  }

  double GetDouble(const std::string& name, double def) const {
    std::string v = Raw(name);
    return v.empty() ? def : std::strtod(v.c_str(), nullptr);
  }

  std::string GetString(const std::string& name, const std::string& def) const {
    std::string v = Raw(name);
    return v.empty() ? def : v;
  }

  bool GetBool(const std::string& name, bool def) const {
    for (const auto& a : args_) {
      if (a == "--" + name) return true;
      if (a == "--no" + name) return false;
    }
    std::string v = Raw(name);
    if (v.empty()) return def;
    return v == "1" || v == "true" || v == "yes";
  }

 private:
  std::string Raw(const std::string& name) const {
    std::string prefix = "--" + name + "=";
    for (const auto& a : args_) {
      if (a.rfind(prefix, 0) == 0) return a.substr(prefix.size());
    }
    return "";
  }

  std::vector<std::string> args_;
};

/// Prints a row of right-aligned scientific-notation cells after a label.
inline void PrintRow(const std::string& label,
                     const std::vector<double>& cells, int width = 11) {
  std::printf("%-10s", label.c_str());
  for (double c : cells) std::printf(" %*.3e", width, c);
  std::printf("\n");
}

inline void PrintHeader(const std::string& label,
                        const std::vector<std::string>& cols,
                        int width = 11) {
  std::printf("%-10s", label.c_str());
  for (const auto& c : cols) std::printf(" %*s", width, c.c_str());
  std::printf("\n");
}

/// argv with `defaults` inserted after the program name, so flags given
/// on the command line (parsed later) override them. The pointers borrow
/// from argv and `defaults`, which must outlive the result.
inline std::vector<char*> WithDefaultFlags(int argc, char** argv,
                                           std::vector<std::string>* defaults) {
  std::vector<char*> out(argv, argv + 1);
  for (std::string& flag : *defaults) out.push_back(&flag[0]);
  out.insert(out.end(), argv + 1, argv + argc);
  return out;
}

/// JSON object naming the host a bench row was measured on: core count,
/// CPU model, support-kernel and Montgomery backends, process-pool size
/// and build type.
/// Rows from different hosts are not comparable; this says which is which.
inline std::string HostFingerprintJson() {
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        cpu_model = line.substr(colon + 2);
      }
      break;
    }
  }
  for (char& c : cpu_model) {
    if (c == '"' || c == '\\') c = ' ';
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"cores\": %u, \"cpu_model\": \"%s\", "
                "\"support_backend\": \"%s\", \"mont_backend\": \"%s\", "
                "\"pool_threads\": %u, \"build_type\": \"%s\"}",
                std::thread::hardware_concurrency(), cpu_model.c_str(),
                ldp::SupportBackendName(ldp::ActiveSupportBackend()),
                crypto::MontBackendName(crypto::ActiveMontBackend()),
                GlobalThreadPool().num_threads(), SHUFFLEDP_BUILD_TYPE);
  return buf;
}

}  // namespace bench
}  // namespace shuffledp

#endif  // SHUFFLEDP_BENCH_BENCH_UTIL_H_
