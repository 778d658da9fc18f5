// Multi-endpoint ingest scaling: aggregate throughput of a partitioned
// collection fleet behind the merge-of-supports coordinator.
//
// For each partition count P in {1, 2, 4} the bench starts P loopback
// CollectionServers sharing one PartitionMap, pre-routes a fixed report
// stream into per-partition frame payloads (routing cost is client-side
// and identical at every P, so it stays outside the timed section), then
// measures wall time from the first frame to the merged, calibrated
// round result:
//
//   P sender threads --kBatch*--> endpoint p   (one connection each)
//        |  kWatermark flush barrier (all batches in the queues)
//   coordinator --kFinish--> every endpoint, merge + calibrate
//
// Endpoints run with their default pool, the process pool
// (GlobalThreadPool(), sized by SHUFFLEDP_THREADS), which all P endpoints
// share: support evaluation splits each batch's value range across the
// cores already at P = 1, and more partitions add consumer threads for
// the serial per-batch work (ordinal unpack, validation, WAL deltas).
// Every throughput row is the median wall time of kFleetRepeats runs,
// and the JSON's "host" object (cores, CPU, support backend, pool size,
// build type) says where the rows were measured: rows from different
// hosts are not comparable. Rows land in BENCH_distributed.json via
// run_benches.sh.
//
// A round-close latency section (healthy vs one slowed endpoint), a
// durable-store recovery section (restart → round resumed, see
// RunRecovery), and a C10K section land in the same JSON.
//
// The C10K section is the event-driven server's reason to exist: one
// endpoint holds ≥10k concurrent loopback connections with sustained
// ingest spread across all of them. The file-descriptor budget forces
// two processes (server + 10k client sockets each need ~10k fds), so
// the bench re-executes itself (/proc/self/exe --c10k_client) as the
// connection-holder child and coordinates over pipes: the child
// reports CONNECTED, the parent verifies the server really holds that
// many, times the ingest window to the watermark, closes the round
// while every connection is still up, and pins the estimates bitwise
// against a single-connection run of the identical report stream.
//
// Flags: --n=1000000, --d=1024, --solh_n=200000, --solh_d=256,
// --dprime=16, --eps=3.0, --batch=4096, --close_rounds, --degraded_delay_ms,
// --recover_repeats, --c10k_conns=10000, --c10k_n=120000, --c10k_batch=8,
// --smoke, --json=PATH.

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "ldp/grr.h"
#include "ldp/local_hash.h"
#include "service/coordinator.h"
#include "service/fault_injection.h"
#include "service/partition.h"
#include "service/transport.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace shuffledp;
using bench::Flags;

namespace {

struct Row {
  std::string oracle;
  std::string mode;
  uint32_t partitions = 0;
  uint64_t n = 0;
  uint64_t d = 0;
  double wall_s = 0.0;
  double rows_per_s = 0.0;
};

// Pre-encoded producer batches (ordinals), identical for every P.
std::vector<std::vector<uint64_t>> EncodeBatches(
    const ldp::ScalarFrequencyOracle& oracle, uint64_t n, size_t batch) {
  Rng rng(0xD15C0);
  std::vector<std::vector<uint64_t>> batches;
  for (uint64_t lo = 0; lo < n; lo += batch) {
    const uint64_t hi = std::min(n, lo + batch);
    std::vector<uint64_t> ordinals;
    ordinals.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      ordinals.push_back(oracle.PackOrdinal(
          oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
    }
    batches.push_back(std::move(ordinals));
  }
  return batches;
}

// Fleet runs per throughput row; the row keeps the median wall time.
constexpr int kFleetRepeats = 3;

Result<Row> RunFleetOnce(const ldp::ScalarFrequencyOracle& oracle,
                         service::PartitionMode mode, uint32_t partitions,
                         const std::vector<std::vector<uint64_t>>& batches,
                         uint64_t n, size_t batch_size) {
  SHUFFLEDP_ASSIGN_OR_RETURN(
      service::PartitionMap map,
      service::PartitionMap::Create(oracle, mode, partitions));

  // Route outside the timed section: per-partition producer batch lists.
  std::vector<std::vector<std::vector<uint64_t>>> routed(partitions);
  for (auto& r : routed) r.resize(batches.size());
  for (size_t b = 0; b < batches.size(); ++b) {
    auto groups = map.Route(b, batches[b]);
    for (uint32_t p = 0; p < partitions; ++p) {
      routed[p][b] = std::move(groups[p]);
    }
  }

  std::vector<std::unique_ptr<service::CollectionServer>> servers;
  std::vector<service::EndpointAddress> endpoints;
  for (uint32_t p = 0; p < partitions; ++p) {
    service::CollectionServerOptions options;
    options.partition_map = map;
    options.partition_id = p;
    options.streaming.batch_size = batch_size;
    SHUFFLEDP_ASSIGN_OR_RETURN(auto server,
                               service::CollectionServer::Start(oracle,
                                                                options));
    endpoints.push_back({"127.0.0.1", server->port()});
    servers.push_back(std::move(server));
  }

  // Sender connections handshake before the clock starts.
  std::vector<std::unique_ptr<service::CollectorClient>> senders;
  for (uint32_t p = 0; p < partitions; ++p) {
    SHUFFLEDP_ASSIGN_OR_RETURN(
        auto client,
        service::CollectorClient::Connect(endpoints[p].host,
                                          endpoints[p].port));
    SHUFFLEDP_RETURN_NOT_OK(client->Hello(map, p).status());
    senders.push_back(std::move(client));
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(
      auto routing,
      service::PartitionRoutingClient::Connect(oracle, map, endpoints));
  service::MergeCoordinator coordinator(oracle, routing.get());

  WallTimer timer;
  std::vector<std::thread> threads;
  std::vector<Status> sender_status(partitions, Status::OK());
  for (uint32_t p = 0; p < partitions; ++p) {
    threads.emplace_back([&, p] {
      for (size_t b = 0; b < routed[p].size(); ++b) {
        Status st = senders[p]->SendOrdinals(0, oracle, routed[p][b]);
        if (!st.ok()) {
          sender_status[p] = st;
          return;
        }
      }
      // Flush barrier: the reply certifies every batch on this
      // connection reached the collector queue.
      auto watermark = senders[p]->QueryWatermark();
      if (!watermark.ok()) sender_status[p] = watermark.status();
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& st : sender_status) SHUFFLEDP_RETURN_NOT_OK(st);
  SHUFFLEDP_ASSIGN_OR_RETURN(
      service::RoundResult merged,
      coordinator.FinishRound(0, n, 0, service::Calibration::kStandard));

  Row row;
  row.oracle = oracle.Name();
  row.mode = mode == service::PartitionMode::kByValue ? "by-value"
                                                      : "by-client";
  row.partitions = partitions;
  row.n = n;
  row.d = oracle.domain_size();
  row.wall_s = timer.ElapsedSeconds();
  row.rows_per_s = static_cast<double>(n) / row.wall_s;
  if (merged.reports_decoded + merged.reports_invalid != n) {
    return Status::Internal("distributed bench lost rows");
  }
  return row;
}

Result<Row> RunFleet(const ldp::ScalarFrequencyOracle& oracle,
                     service::PartitionMode mode, uint32_t partitions,
                     const std::vector<std::vector<uint64_t>>& batches,
                     uint64_t n, size_t batch_size) {
  std::vector<Row> runs;
  for (int r = 0; r < kFleetRepeats; ++r) {
    SHUFFLEDP_ASSIGN_OR_RETURN(
        Row row,
        RunFleetOnce(oracle, mode, partitions, batches, n, batch_size));
    runs.push_back(row);
  }
  std::sort(runs.begin(), runs.end(), [](const Row& a, const Row& b) {
    return a.wall_s < b.wall_s;
  });
  return runs[runs.size() / 2];
}

struct CloseRow {
  std::string scenario;  // "healthy" | "degraded"
  uint32_t partitions = 0;
  uint32_t rounds = 0;
  uint64_t delay_ms = 0;  // injected per-recv stall on the slow endpoint
  double close_p50_ms = 0.0;
  double close_p99_ms = 0.0;
};

double PercentileMs(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(q * (samples.size() - 1) + 0.5);
  return samples[std::min(idx, samples.size() - 1)];
}

// Round-close latency over repeated rounds, optionally with one slow
// endpoint (seeded per-recv delays injected on partition 1): the
// coordinator's pipelined close means the fleet's close latency is the
// slowest endpoint's, and this row quantifies exactly that degradation.
// The timed section is FinishRound only — sends happen before the clock.
Result<CloseRow> RunRoundClose(const ldp::ScalarFrequencyOracle& oracle,
                               uint32_t partitions, uint32_t rounds,
                               size_t batch_size, uint64_t delay_ms) {
  SHUFFLEDP_ASSIGN_OR_RETURN(
      service::PartitionMap map,
      service::PartitionMap::Create(oracle, service::PartitionMode::kByValue,
                                    partitions));
  std::vector<std::unique_ptr<service::CollectionServer>> servers;
  std::vector<service::EndpointAddress> endpoints;
  for (uint32_t p = 0; p < partitions; ++p) {
    service::CollectionServerOptions options;
    options.partition_map = map;
    options.partition_id = p;
    options.streaming.batch_size = batch_size;
    SHUFFLEDP_ASSIGN_OR_RETURN(auto server,
                               service::CollectionServer::Start(oracle,
                                                                options));
    endpoints.push_back({"127.0.0.1", server->port()});
    servers.push_back(std::move(server));
  }
  SHUFFLEDP_ASSIGN_OR_RETURN(
      auto routing,
      service::PartitionRoutingClient::Connect(oracle, map, endpoints));
  service::MergeCoordinator coordinator(oracle, routing.get());

  service::FaultInjector injector(0xBE7C);
  if (delay_ms > 0) {
    service::FaultRule slow;
    slow.op = service::FaultOp::kRecv;
    slow.port = endpoints[1].port;
    slow.action = service::FaultAction::DelayMs(delay_ms);
    injector.AddRule(slow);
    service::SetFaultInjector(&injector);
  }

  Rng rng(0xC105E);
  std::vector<double> close_ms;
  for (uint32_t r = 0; r < rounds; ++r) {
    uint64_t sent = 0;
    for (uint64_t b = 0; b < 4; ++b) {
      std::vector<uint64_t> ordinals;
      ordinals.reserve(batch_size);
      for (size_t i = 0; i < batch_size; ++i) {
        ordinals.push_back(oracle.PackOrdinal(
            oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
      }
      sent += ordinals.size();
      Status st = routing->SendBatch(r, b, ordinals);
      if (!st.ok()) {
        service::SetFaultInjector(nullptr);
        return st;
      }
    }
    WallTimer timer;
    auto merged =
        coordinator.FinishRound(r, sent, 0, service::Calibration::kStandard);
    if (!merged.ok()) {
      service::SetFaultInjector(nullptr);
      return merged.status();
    }
    close_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  service::SetFaultInjector(nullptr);

  CloseRow row;
  row.scenario = delay_ms > 0 ? "degraded" : "healthy";
  row.partitions = partitions;
  row.rounds = rounds;
  row.delay_ms = delay_ms;
  row.close_p50_ms = PercentileMs(close_ms, 0.50);
  row.close_p99_ms = PercentileMs(close_ms, 0.99);
  return row;
}

struct RecoveryRow {
  uint32_t rounds_finalized = 0;  // rounds retained in the store at the kill
  uint64_t live_batches = 0;      // durable batches of the in-flight round
  size_t batch_size = 0;
  double recover_p50_ms = 0.0;
  double recover_p99_ms = 0.0;
};

// Restart-to-resumed latency of the durable round store: a single
// endpoint finalizes `rounds` rounds and is killed with a live round
// mid-flight, then restarted with recover=true. The timed section is
// the full resume path — store open (WAL scan + segment load), replay
// of every retained finalized round, live-round restore, and the first
// kQuery answers confirming the endpoint serves history (finalized
// result) and the resume point (live watermark) again.
Result<RecoveryRow> RunRecovery(const ldp::ScalarFrequencyOracle& oracle,
                                uint32_t rounds, uint64_t live_batches,
                                uint32_t repeats, size_t batch_size) {
  const std::string dir = "/tmp/shuffledp_bench_round_store";
  Rng rng(0xFA57);
  std::vector<double> recover_ms;
  RecoveryRow row;
  for (uint32_t rep = 0; rep < repeats; ++rep) {
    if (std::system(("rm -rf '" + dir + "'").c_str()) != 0) {
      return Status::Internal("cannot clear bench store dir");
    }
    service::CollectionServerOptions options;
    options.streaming.batch_size = batch_size;
    options.streaming.round_store.dir = dir;

    auto make_batch = [&] {
      std::vector<uint64_t> ordinals;
      ordinals.reserve(batch_size);
      for (size_t i = 0; i < batch_size; ++i) {
        ordinals.push_back(oracle.PackOrdinal(
            oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
      }
      return ordinals;
    };

    {
      SHUFFLEDP_ASSIGN_OR_RETURN(
          auto server, service::CollectionServer::Start(oracle, options));
      SHUFFLEDP_ASSIGN_OR_RETURN(
          auto client,
          service::CollectorClient::Connect("127.0.0.1", server->port()));
      for (uint32_t r = 0; r < rounds; ++r) {
        for (uint64_t b = 0; b < 4; ++b) {
          SHUFFLEDP_RETURN_NOT_OK(client->SendOrdinals(r, oracle,
                                                       make_batch()));
        }
        SHUFFLEDP_RETURN_NOT_OK(
            client
                ->FinishRound(r, 4 * batch_size, 0,
                              service::Calibration::kStandard)
                .status());
      }
      for (uint64_t b = 0; b < live_batches; ++b) {
        SHUFFLEDP_RETURN_NOT_OK(client->SendOrdinals(rounds, oracle,
                                                     make_batch()));
      }
      // Accept barrier; the server's shutdown drain then makes every
      // accepted batch durable, so the recovered watermark is exact.
      for (int spin = 0; spin < 4000; ++spin) {
        SHUFFLEDP_ASSIGN_OR_RETURN(service::RoundQuery live,
                                   client->QueryRound(rounds));
        if (live.watermark >= live_batches) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      server->Shutdown();
    }

    WallTimer timer;
    {
      service::CollectionServerOptions recover_options = options;
      recover_options.recover = true;
      SHUFFLEDP_ASSIGN_OR_RETURN(
          auto server,
          service::CollectionServer::Start(oracle, recover_options));
      SHUFFLEDP_ASSIGN_OR_RETURN(
          auto client,
          service::CollectorClient::Connect("127.0.0.1", server->port()));
      SHUFFLEDP_ASSIGN_OR_RETURN(service::RoundQuery finalized,
                                 client->QueryRound(rounds - 1));
      SHUFFLEDP_ASSIGN_OR_RETURN(service::RoundQuery live,
                                 client->QueryRound(rounds));
      if (finalized.status != service::RoundStatus::kFinalized ||
          live.watermark != live_batches) {
        return Status::Internal("bench recovery resumed at the wrong point");
      }
    }
    recover_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  if (std::system(("rm -rf '" + dir + "'").c_str()) != 0) {
    return Status::Internal("cannot clear bench store dir");
  }
  row.rounds_finalized = rounds;
  row.live_batches = live_batches;
  row.batch_size = batch_size;
  row.recover_p50_ms = PercentileMs(recover_ms, 0.50);
  row.recover_p99_ms = PercentileMs(recover_ms, 0.99);
  return row;
}

struct C10kRow {
  uint64_t connections = 0;  // connections the child held
  uint64_t held_peak = 0;    // accepted - closed observed on the server
  uint64_t n = 0;
  uint64_t d = 0;
  size_t batch = 0;
  double wall_s = 0.0;        // CONNECTED -> watermark == all batches
  double rows_per_s = 0.0;
  bool bitwise_match = false;  // estimates == single-connection run
};

// The identical report stream for the single-connection reference and
// the 10k-connection run: seeded, so both processes (parent and the
// re-executed child) encode byte-identical ordinals.
std::vector<std::vector<uint64_t>> EncodeC10kBatches(
    const ldp::ScalarFrequencyOracle& oracle, uint64_t n, size_t batch) {
  Rng rng(0xC10C);
  std::vector<std::vector<uint64_t>> batches;
  for (uint64_t lo = 0; lo < n; lo += batch) {
    const uint64_t hi = std::min(n, lo + batch);
    std::vector<uint64_t> ordinals;
    ordinals.reserve(hi - lo);
    for (uint64_t i = lo; i < hi; ++i) {
      ordinals.push_back(oracle.PackOrdinal(
          oracle.Encode(rng.UniformU64(oracle.domain_size()), &rng)));
    }
    batches.push_back(std::move(ordinals));
  }
  return batches;
}

// Child process: hold `conns` connections to the parent's endpoint and
// stream the seeded batches round-robin across all of them, then wait
// for the parent's teardown line so every socket stays open through the
// parent's round close.
int RunC10kClient(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.GetU64("c10k_port", 0));
  uint64_t conns = flags.GetU64("c10k_conns", 10000);
  const uint64_t n = flags.GetU64("c10k_n", 120000);
  const uint64_t d = flags.GetU64("d", 256);
  const double eps = flags.GetDouble("eps", 3.0);
  const size_t batch = flags.GetU64("c10k_batch", 8);
  if (port == 0) {
    std::fprintf(stderr, "c10k client: missing --c10k_port\n");
    return 1;
  }
  // Leave headroom under the fd ceiling for stdio, epoll-side fds, and
  // whatever the runtime holds open.
  rlimit nofile{};
  if (::getrlimit(RLIMIT_NOFILE, &nofile) == 0 &&
      nofile.rlim_cur > 512 && conns > nofile.rlim_cur - 512) {
    conns = nofile.rlim_cur - 512;
  }

  ldp::Grr grr(eps, d);
  std::vector<std::unique_ptr<service::CollectorClient>> clients;
  clients.reserve(conns);
  for (uint64_t i = 0; i < conns; ++i) {
    auto client = service::CollectorClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      std::fprintf(stderr, "c10k client: connect %llu failed: %s\n",
                   static_cast<unsigned long long>(i),
                   client.status().ToString().c_str());
      return 1;
    }
    clients.push_back(std::move(*client));
  }
  std::printf("CONNECTED %llu\n", static_cast<unsigned long long>(conns));
  std::fflush(stdout);

  const auto batches = EncodeC10kBatches(grr, n, batch);
  for (size_t b = 0; b < batches.size(); ++b) {
    Status st = clients[b % clients.size()]->SendOrdinals(0, grr, batches[b]);
    if (!st.ok()) {
      std::fprintf(stderr, "c10k client: send %zu failed: %s\n", b,
                   st.ToString().c_str());
      return 1;
    }
  }
  std::printf("SENT %llu\n",
              static_cast<unsigned long long>(batches.size()));
  std::fflush(stdout);

  // Hold every connection until the parent has closed the round.
  char line[64];
  if (std::fgets(line, sizeof(line), stdin) == nullptr) return 1;
  return 0;
}

Result<C10kRow> RunC10k(uint64_t conns, uint64_t n, uint64_t d, double eps,
                        size_t batch) {
  ldp::Grr grr(eps, d);
  const auto batches = EncodeC10kBatches(grr, n, batch);

  // Reference: the same stream over one connection. Supports are sums,
  // so connection count must not change a single bit of the estimates.
  std::vector<double> reference;
  {
    service::CollectionServerOptions options;
    SHUFFLEDP_ASSIGN_OR_RETURN(auto server,
                               service::CollectionServer::Start(grr, options));
    SHUFFLEDP_ASSIGN_OR_RETURN(
        auto client,
        service::CollectorClient::Connect("127.0.0.1", server->port()));
    for (const auto& ordinals : batches) {
      SHUFFLEDP_RETURN_NOT_OK(client->SendOrdinals(0, grr, ordinals));
    }
    SHUFFLEDP_RETURN_NOT_OK(client->QueryWatermark().status());
    SHUFFLEDP_ASSIGN_OR_RETURN(
        service::RemoteRoundResult result,
        client->FinishRound(0, n, 0, service::Calibration::kStandard));
    reference = std::move(result.estimates);
  }

  service::CollectionServerOptions options;
  options.listen_backlog = 4096;
  SHUFFLEDP_ASSIGN_OR_RETURN(auto server,
                             service::CollectionServer::Start(grr, options));
  // The parent's own control connection dials before the child floods
  // the accept queue.
  SHUFFLEDP_ASSIGN_OR_RETURN(
      auto control,
      service::CollectorClient::Connect("127.0.0.1", server->port()));

  int to_child[2];
  int from_child[2];
  if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
    return Status::Internal("c10k: pipe failed");
  }
  const pid_t pid = ::fork();
  if (pid < 0) return Status::Internal("c10k: fork failed");
  if (pid == 0) {
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    ::close(to_child[0]);
    ::close(to_child[1]);
    ::close(from_child[0]);
    ::close(from_child[1]);
    const std::string port_arg =
        "--c10k_port=" + std::to_string(server->port());
    const std::string conns_arg = "--c10k_conns=" + std::to_string(conns);
    const std::string n_arg = "--c10k_n=" + std::to_string(n);
    const std::string d_arg = "--d=" + std::to_string(d);
    const std::string eps_arg = "--eps=" + std::to_string(eps);
    const std::string batch_arg = "--c10k_batch=" + std::to_string(batch);
    const char* argv[] = {"bench_distributed_throughput",
                          "--c10k_client=true",
                          port_arg.c_str(),
                          conns_arg.c_str(),
                          n_arg.c_str(),
                          d_arg.c_str(),
                          eps_arg.c_str(),
                          batch_arg.c_str(),
                          nullptr};
    ::execv("/proc/self/exe", const_cast<char* const*>(argv));
    std::_Exit(127);
  }
  ::close(to_child[0]);
  ::close(from_child[1]);
  FILE* child_out = ::fdopen(from_child[0], "r");
  if (child_out == nullptr) return Status::Internal("c10k: fdopen failed");

  auto fail = [&](const std::string& why) -> Status {
    ::kill(pid, SIGKILL);
    int wait_status = 0;
    ::waitpid(pid, &wait_status, 0);
    std::fclose(child_out);
    ::close(to_child[1]);
    return Status::Internal("c10k: " + why);
  };

  char line[128];
  unsigned long long connected = 0;
  if (std::fgets(line, sizeof(line), child_out) == nullptr ||
      std::sscanf(line, "CONNECTED %llu", &connected) != 1) {
    return fail("child never reported CONNECTED");
  }
  // The server must actually hold them all (plus the control
  // connection) before the ingest window counts.
  uint64_t held = 0;
  for (int spin = 0; spin < 12000; ++spin) {
    service::CollectionServerStats stats = server->stats();
    held = stats.connections_accepted - stats.connections_closed;
    if (held >= connected) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (held < connected) {
    return fail("server holds " + std::to_string(held) + " of " +
                std::to_string(connected) + " connections");
  }

  WallTimer timer;
  unsigned long long sent = 0;
  if (std::fgets(line, sizeof(line), child_out) == nullptr ||
      std::sscanf(line, "SENT %llu", &sent) != 1) {
    return fail("child never reported SENT");
  }
  // Watermark flush barrier over the whole fleet of connections: every
  // batch the child pushed has been offered to the collector.
  uint64_t watermark = 0;
  for (int spin = 0; spin < 120000 && watermark < sent; ++spin) {
    auto mark = control->QueryWatermark();
    if (!mark.ok()) return fail("watermark: " + mark.status().ToString());
    watermark = *mark;
    if (watermark < sent) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  if (watermark < sent) return fail("ingest never drained");
  const double wall_s = timer.ElapsedSeconds();

  // Close the round while all 10k connections are still open.
  auto result = control->FinishRound(0, n, 0, service::Calibration::kStandard);
  if (!result.ok()) return fail("finish: " + result.status().ToString());

  (void)!::write(to_child[1], "DONE\n", 5);
  int wait_status = 0;
  ::waitpid(pid, &wait_status, 0);
  std::fclose(child_out);
  ::close(to_child[1]);
  if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0) {
    return Status::Internal("c10k: child exited abnormally");
  }

  C10kRow row;
  row.connections = connected;
  row.held_peak = held;
  row.n = n;
  row.d = d;
  row.batch = batch;
  row.wall_s = wall_s;
  row.rows_per_s = static_cast<double>(n) / wall_s;
  row.bitwise_match = result->estimates == reference;
  if (!row.bitwise_match) {
    return Status::Internal(
        "c10k: estimates diverge from the single-connection run");
  }
  return row;
}

bool WriteJson(const std::string& path, const std::vector<Row>& rows,
               const std::vector<CloseRow>& close_rows,
               const std::vector<RecoveryRow>& recovery_rows,
               const std::vector<C10kRow>& c10k_rows) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"bench\": \"distributed_throughput\",\n");
  std::fprintf(f, "  \"host\": %s,\n", bench::HostFingerprintJson().c_str());
  std::fprintf(f, "  \"repeats\": %d,\n", kFleetRepeats);
  std::fprintf(f, "  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"oracle\": \"%s\", \"mode\": \"%s\", \"partitions\": %u, "
        "\"n\": %llu, \"d\": %llu, \"wall_s\": %.6f, "
        "\"rows_per_s\": %.1f}%s\n",
        r.oracle.c_str(), r.mode.c_str(), r.partitions,
        static_cast<unsigned long long>(r.n),
        static_cast<unsigned long long>(r.d), r.wall_s, r.rows_per_s,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"round_close\": [\n");
  for (size_t i = 0; i < close_rows.size(); ++i) {
    const CloseRow& r = close_rows[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"partitions\": %u, \"rounds\": %u, "
        "\"recv_delay_ms\": %llu, \"close_p50_ms\": %.3f, "
        "\"close_p99_ms\": %.3f}%s\n",
        r.scenario.c_str(), r.partitions, r.rounds,
        static_cast<unsigned long long>(r.delay_ms), r.close_p50_ms,
        r.close_p99_ms, i + 1 < close_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"recovery\": [\n");
  for (size_t i = 0; i < recovery_rows.size(); ++i) {
    const RecoveryRow& r = recovery_rows[i];
    std::fprintf(
        f,
        "    {\"rounds_finalized\": %u, \"live_batches\": %llu, "
        "\"batch_size\": %zu, \"recover_p50_ms\": %.3f, "
        "\"recover_p99_ms\": %.3f}%s\n",
        r.rounds_finalized, static_cast<unsigned long long>(r.live_batches),
        r.batch_size, r.recover_p50_ms, r.recover_p99_ms,
        i + 1 < recovery_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"c10k\": [\n");
  for (size_t i = 0; i < c10k_rows.size(); ++i) {
    const C10kRow& r = c10k_rows[i];
    std::fprintf(
        f,
        "    {\"connections\": %llu, \"held_peak\": %llu, \"n\": %llu, "
        "\"d\": %llu, \"batch\": %zu, \"wall_s\": %.6f, "
        "\"rows_per_s\": %.1f, \"bitwise_match\": %s}%s\n",
        static_cast<unsigned long long>(r.connections),
        static_cast<unsigned long long>(r.held_peak),
        static_cast<unsigned long long>(r.n),
        static_cast<unsigned long long>(r.d), r.batch, r.wall_s,
        r.rows_per_s, r.bitwise_match ? "true" : "false",
        i + 1 < c10k_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  if (flags.GetBool("c10k_client", false)) return RunC10kClient(flags);
  const bool smoke = flags.GetBool("smoke", false);
  const uint64_t n = flags.GetU64("n", smoke ? 60000 : 1000000);
  const uint64_t d = flags.GetU64("d", smoke ? 256 : 1024);
  const uint64_t solh_n = flags.GetU64("solh_n", smoke ? 20000 : 200000);
  const uint64_t solh_d = flags.GetU64("solh_d", 256);
  const uint64_t dprime = flags.GetU64("dprime", 16);
  const double eps = flags.GetDouble("eps", 3.0);
  const size_t batch = flags.GetU64("batch", 4096);
  const std::string json = flags.GetString("json", "");

  ldp::Grr grr(eps, d);
  ldp::LocalHash solh(eps, solh_d, dprime, "SOLH");
  auto grr_batches = EncodeBatches(grr, n, batch);
  auto solh_batches = EncodeBatches(solh, solh_n, batch);

  std::vector<Row> rows;
  std::printf("%-6s %-10s %10s %12s %10s %14s\n", "oracle", "mode",
              "partitions", "n", "wall_s", "rows/s");
  for (uint32_t partitions : {1u, 2u, 4u}) {
    auto grr_row = RunFleet(grr, service::PartitionMode::kByValue,
                            partitions, grr_batches, n, batch);
    if (!grr_row.ok()) {
      std::fprintf(stderr, "grr fleet failed: %s\n",
                   grr_row.status().ToString().c_str());
      return 1;
    }
    rows.push_back(*grr_row);
    auto solh_row = RunFleet(solh, service::PartitionMode::kByClient,
                             partitions, solh_batches, solh_n, batch);
    if (!solh_row.ok()) {
      std::fprintf(stderr, "solh fleet failed: %s\n",
                   solh_row.status().ToString().c_str());
      return 1;
    }
    rows.push_back(*solh_row);
    for (const Row* r : {&*grr_row, &*solh_row}) {
      std::printf("%-6s %-10s %10u %12llu %10.3f %14.0f\n",
                  r->oracle.c_str(), r->mode.c_str(), r->partitions,
                  static_cast<unsigned long long>(r->n), r->wall_s,
                  r->rows_per_s);
    }
  }

  // Round-close latency with a healthy fleet vs. one endpoint whose
  // socket reads are artificially slowed — the "degraded fleet" row.
  // Close latency (not ingest throughput) is what a slow endpoint
  // hurts first, because FinishRound serializes on the slowest drain.
  const uint32_t close_rounds =
      static_cast<uint32_t>(flags.GetU64("close_rounds", smoke ? 20 : 50));
  const uint64_t degraded_delay_ms = flags.GetU64("degraded_delay_ms", 5);
  std::vector<CloseRow> close_rows;
  std::printf("\n%-10s %10s %8s %14s %14s %14s\n", "scenario", "partitions",
              "rounds", "recv_delay_ms", "close_p50_ms", "close_p99_ms");
  for (uint64_t delay_ms : {uint64_t{0}, degraded_delay_ms}) {
    auto close_row = RunRoundClose(grr, 2, close_rounds, batch, delay_ms);
    if (!close_row.ok()) {
      std::fprintf(stderr, "round-close bench failed: %s\n",
                   close_row.status().ToString().c_str());
      return 1;
    }
    close_rows.push_back(*close_row);
    std::printf("%-10s %10u %8u %14llu %14.3f %14.3f\n",
                close_row->scenario.c_str(), close_row->partitions,
                close_row->rounds,
                static_cast<unsigned long long>(close_row->delay_ms),
                close_row->close_p50_ms, close_row->close_p99_ms);
  }

  // Restart-to-resumed latency of the durable round store: how long a
  // killed endpoint takes to serve its history and resume point again.
  const uint32_t recover_repeats = static_cast<uint32_t>(
      flags.GetU64("recover_repeats", smoke ? 5 : 20));
  std::vector<RecoveryRow> recovery_rows;
  {
    auto recovery_row = RunRecovery(grr, /*rounds=*/2, /*live_batches=*/4,
                                    recover_repeats, batch);
    if (!recovery_row.ok()) {
      std::fprintf(stderr, "recovery bench failed: %s\n",
                   recovery_row.status().ToString().c_str());
      return 1;
    }
    recovery_rows.push_back(*recovery_row);
    std::printf("\n%-10s %16s %12s %16s %16s\n", "scenario",
                "rounds_finalized", "live_batches", "recover_p50_ms",
                "recover_p99_ms");
    std::printf("%-10s %16u %12llu %16.3f %16.3f\n", "recovery",
                recovery_row->rounds_finalized,
                static_cast<unsigned long long>(recovery_row->live_batches),
                recovery_row->recover_p50_ms, recovery_row->recover_p99_ms);
  }

  // C10K: one endpoint, ≥10k held connections, sustained ingest,
  // bitwise-equal estimates. Needs an fd ceiling above ~10.5k in the
  // child; RunC10kClient clamps to RLIMIT_NOFILE minus headroom, so a
  // constrained host reports the connections it actually held.
  const uint64_t c10k_conns = flags.GetU64("c10k_conns", 10000);
  const uint64_t c10k_n = flags.GetU64("c10k_n", 120000);
  const size_t c10k_batch = flags.GetU64("c10k_batch", 8);
  std::vector<C10kRow> c10k_rows;
  {
    auto c10k = RunC10k(c10k_conns, c10k_n, /*d=*/256, eps, c10k_batch);
    if (!c10k.ok()) {
      std::fprintf(stderr, "c10k bench failed: %s\n",
                   c10k.status().ToString().c_str());
      return 1;
    }
    c10k_rows.push_back(*c10k);
    std::printf("\n%-12s %10s %12s %10s %14s %8s\n", "connections", "held",
                "n", "wall_s", "rows/s", "bitwise");
    std::printf("%-12llu %10llu %12llu %10.3f %14.0f %8s\n",
                static_cast<unsigned long long>(c10k->connections),
                static_cast<unsigned long long>(c10k->held_peak),
                static_cast<unsigned long long>(c10k->n), c10k->wall_s,
                c10k->rows_per_s, c10k->bitwise_match ? "yes" : "no");
  }

  if (!json.empty() &&
      !WriteJson(json, rows, close_rows, recovery_rows, c10k_rows)) {
    std::fprintf(stderr, "cannot write %s\n", json.c_str());
    return 1;
  }
  return 0;
}
