#include "harness.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <mutex>
#include <thread>

#include "crypto/aes.h"
#include "crypto/montgomery.h"
#include "crypto/sha256.h"
#include "ldp/support_kernels.h"

namespace perfbench {

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : items_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  items_.push_back(Metric{name, value, unit});
}

double MetricSet::Get(const std::string& name) const {
  for (const Metric& m : items_) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

void OpCounter::Fail(const std::string& what) {
  ++attempted;
  ++failed;
  if (failures.size() < 16) failures.push_back(what);
}

bool OpCounter::Check(bool pass, const std::string& what) {
  if (pass) {
    Ok();
  } else {
    checks_ok = false;
    Fail("check failed: " + what);
  }
  return pass;
}

int32_t Tracer::Begin(const char* name, uint64_t round) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  if (round == kNoRound && parent >= 0) round = spans_[parent].round;
  spans_.push_back(Span{name, NowNs(), 0, parent, round});
  const int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[index].t1 = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double Tracer::TotalSeconds(const std::string& name) const {
  int64_t ns = 0;
  for (const Span& s : spans_) {
    if (name == s.name) ns += s.t1 - s.t0;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::SelfSeconds(const std::string& name) const {
  // Children are strictly nested and recorded after their parent, and
  // siblings never overlap (one thread), so the covered part of a span
  // is the sum of its direct children's durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.t1 - s.t0;
  }
  int64_t ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) ns += spans_[i].t1 - spans_[i].t0 - child_ns[i];
  }
  return static_cast<double>(ns) * 1e-9;
}

bool Tracer::WriteJsonLines(const std::string& path,
                            const std::string& header_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%s\n", header_json.c_str());
  const int64_t base = spans_.empty() ? 0 : spans_.front().t0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"round\":%lld}\n",
                 i, s.name, static_cast<long long>(s.t0 - base),
                 static_cast<long long>(s.t1 - base), s.parent,
                 s.round == kNoRound ? -1LL : static_cast<long long>(s.round));
  }
  return std::fclose(f) == 0;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  if (index >= sorted.size()) index = sorted.size() - 1;
  return sorted[index];
}

double Samples::TailPercentile() const {
  const double n = static_cast<double>(values_.size());
  for (double p : {95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 100.0;
}

std::string TailNote(const std::string& name, const Samples& samples) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.6g ms (p%g of %zu rounds)",
                name.c_str(), samples.Tail(), samples.TailPercentile(),
                samples.size());
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

ProcUsage ReadProcUsage() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  ProcUsage u;
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.ctx_involuntary = static_cast<double>(ru.ru_nivcsw);
  return u;
}

void SetProcMetrics(const ProcUsage& before, const ProcUsage& after,
                    uint64_t rounds, RunReport* out) {
  const double r = static_cast<double>(rounds > 0 ? rounds : 1);
  out->per_layer.Set("proc.cpu_user_s", (after.user_s - before.user_s) / r,
                     "s/round");
  out->per_layer.Set("proc.cpu_sys_s", (after.sys_s - before.sys_s) / r,
                     "s/round");
  out->per_layer.Set("proc.ctx_switches_involuntary",
                     (after.ctx_involuntary - before.ctx_involuntary) / r,
                     "count/round");
}

void SetTraceMetrics(const Tracer& tracer, double overhead, RunReport* out) {
  out->per_layer.Set("trace.overhead", overhead, "ratio");
  const double round_total = tracer.TotalSeconds("round");
  out->per_layer.Set(
      "trace.layer_sum_over_wall",
      round_total > 0 ? 1.0 - tracer.SelfSeconds("round") / round_total : 0.0,
      "ratio");
}

void WriteTrace(const RunOptions& options, const Tracer& tracer,
                RunReport* out) {
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  if (tracer.WriteJsonLines(path, HostFingerprintJson(options))) {
    out->notes.push_back("trace: " + std::to_string(tracer.spans().size()) +
                         " spans written to " + path);
  } else {
    out->notes.push_back("trace: could not write " + path);
  }
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    case 0x2FC12FC1UL: return "zfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        for (char& c : model) {
          if (c == '"' || c == '\\') c = ' ';
        }
        return model;
      }
    }
  }
  return "unknown";
}

std::mutex& ParkedMu() {
  static std::mutex* mu = new std::mutex;
  return *mu;
}

// Servers whose Shutdown() stalled, with their hung thread and whatever
// they still reference. Never destroyed: main() leaves through _Exit.
struct Parked {
  std::unique_ptr<shuffledp::service::CollectionServer> server;
  std::shared_ptr<void> keep_alive;
  std::thread thread;
};
std::vector<Parked*>& ParkedList() {
  static std::vector<Parked*>* list = new std::vector<Parked*>;
  return *list;
}

}  // namespace

std::string HostFingerprintJson(const RunOptions& options) {
  namespace crypto = shuffledp::crypto;
  namespace ldp = shuffledp::ldp;
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"nproc\":%ld,\"cpu_model\":\"%s\",\"support_backend\":\"%s\","
      "\"mont_backend\":\"%s\",\"aes_backend\":\"%s\",\"sha_backend\":\"%s\","
      "\"build_type\":\"%s\",\"store_fs\":\"%s\",\"workload\":\"%s\","
      "\"seed\":%llu,\"seconds\":%g,\"trace\":%d}",
      sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      ldp::SupportBackendName(ldp::ActiveSupportBackend()),
      crypto::MontBackendName(crypto::ActiveMontBackend()),
      crypto::AesBackendName(crypto::ActiveAesBackend()),
      crypto::ShaBackendName(crypto::ActiveShaBackend()), PERFBENCH_BUILD_TYPE,
      FilesystemType(options.work_dir).c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0);
  return buf;
}

bool ShutdownWithWatchdog(
    std::unique_ptr<shuffledp::service::CollectionServer> server,
    std::shared_ptr<void> keep_alive, int deadline_ms, double* elapsed_ms) {
  auto* raw = server.get();
  // Shared with the worker so a late finish after a stall still has a
  // live promise to fulfil.
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  const int64_t t0 = NowNs();
  std::thread worker([raw, done] {
    raw->Shutdown();
    done->set_value();
  });
  const bool returned =
      finished.wait_for(std::chrono::milliseconds(deadline_ms)) ==
      std::future_status::ready;
  *elapsed_ms = static_cast<double>(NowNs() - t0) * 1e-6;
  if (returned) {
    worker.join();
    return true;
  }
  auto* parked = new Parked{std::move(server), std::move(keep_alive),
                            std::move(worker)};
  std::lock_guard<std::mutex> lock(ParkedMu());
  ParkedList().push_back(parked);
  return false;
}

bool AnyShutdownStalled() {
  std::lock_guard<std::mutex> lock(ParkedMu());
  return !ParkedList().empty();
}

void RunPinned(uint64_t k, const std::function<void()>& fn) {
  cpu_set_t original;
  CPU_ZERO(&original);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(original), &original) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) {
    fn();
    return;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
  fn();
  sched_setaffinity(0, sizeof(original), &original);
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double MeanSquaredError(const std::vector<double>& estimates,
                        const std::vector<double>& truth) {
  if (estimates.size() != truth.size() || truth.empty()) return INFINITY;
  double s = 0.0;
  for (size_t i = 0; i < truth.size(); ++i) {
    const double e = estimates[i] - truth[i];
    s += e * e;
  }
  return s / static_cast<double>(truth.size());
}

double AnalyticMse(const shuffledp::ldp::ScalarFrequencyOracle& oracle,
                   uint64_t n, uint64_t n_r, const std::vector<double>& truth) {
  const double e = std::exp(oracle.epsilon_local());
  const double k = static_cast<double>(oracle.report_domain());
  const bool grr = oracle.Name() == "GRR";
  // Support probability of the user's own value and of any other value:
  // GRR reports the true value w.p. e/(e+k-1); a local-hash report
  // supports every value hashing to its reported bucket (1/k of them).
  const double p = e / (e + k - 1.0);
  const double q = grr ? 1.0 / (e + k - 1.0) : 1.0 / k;
  const double q_fake = 1.0 / k;
  const double nd = static_cast<double>(n);
  const double denom = nd * (p - q) * nd * (p - q);
  double sum = 0.0;
  for (double f : truth) {
    sum += (nd * f * p * (1 - p) + nd * (1 - f) * q * (1 - q) +
            static_cast<double>(n_r) * q_fake * (1 - q_fake)) /
           denom;
  }
  return truth.empty() ? 0.0 : sum / static_cast<double>(truth.size());
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench
