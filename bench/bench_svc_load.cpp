// Closed-loop load generator for the plan-compilation service (DESIGN.md
// §11): an in-process svc::Server on a Unix socket, N client threads each
// driving one connection as fast as the server answers, warm plan store.
// Measures sustained throughput, client-observed latency percentiles, the
// shed (overloaded) rate, and the plan-store hit rate — and checks the
// service's core contract: every request sent gets an answer (unanswered
// must be zero, even at saturation).
//
// Prints a human-readable summary plus one JSON line (stdout), and with
// --json[=PATH] writes the full BENCH_svc.json perf record
// (validate_bench.py checks its schema under the bench_smoke ctest label).
//
// Flags:  --quick        short run (CI smoke)
//         --threads=N    client thread count (default 4)
//         --workers=N    server worker count (default 4)
//         --seconds=S    measurement window (default 3; --quick: 0.4)
//         --json[=PATH]  write BENCH_svc.json (or PATH)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tilo/pipeline/json.hpp"
#include "tilo/svc/client.hpp"
#include "tilo/svc/server.hpp"

using namespace tilo;
using bench::JsonLine;
using pipeline::Json;
using util::i64;

namespace {

/// The steady-state workload: one constant problem, so every request shares
/// one problem key (the plan-store and single-flight paths both stay hot,
/// as a fleet of identical tuning clients would keep them).
svc::CompileParams steady_workload() {
  svc::CompileParams p;
  p.name = "steady";
  p.source =
      "FOR i = 0 TO 15\n FOR j = 0 TO 255\n"
      "  L(i, j) = 0.5 * (L(i-1, j) + L(i, j-1))\n ENDFOR\nENDFOR\n";
  p.procs = lat::Vec(std::vector<i64>{4, 1});
  p.height = 16;
  return p;
}

struct ThreadResult {
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t other = 0;
  std::vector<double> latency_ns;
};

double percentile(std::vector<double>& sorted_ns, double q) {
  if (sorted_ns.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_ns.size() - 1));
  return sorted_ns[idx];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int client_threads = 4;
  int workers = 4;
  double seconds = 3.0;
  bool seconds_set = false;
  bool json = false;
  std::string json_path = "BENCH_svc.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      client_threads = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      workers = std::atoi(argv[i] + 10);
    } else if (std::strncmp(argv[i], "--seconds=", 10) == 0) {
      seconds = std::atof(argv[i] + 10);
      seconds_set = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--quick] [--threads=N] [--workers=N] [--seconds=S]"
                   " [--json[=PATH]]\n";
      return 2;
    }
  }
  if (quick && !seconds_set) seconds = 0.4;
  if (client_threads < 1 || workers < 1 || seconds <= 0) {
    std::cerr << "FAIL: thread/worker counts and seconds must be positive\n";
    return 2;
  }

  const char* tmp = std::getenv("TMPDIR");
  const std::string sock = std::string(tmp ? tmp : "/tmp") +
                           "/tilo_bench_svc_" + std::to_string(::getpid()) +
                           ".sock";
  svc::ServerConfig cfg;
  cfg.address = "unix:" + sock;
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  svc::Server server(cfg);
  server.start();

  // Warm the plan store (and fault in every lazy path) before the clock.
  {
    svc::Client warm = svc::Client::connect(cfg.address);
    const svc::Response resp = warm.compile(steady_workload());
    if (resp.status != svc::RespStatus::kOk) {
      std::cerr << "FAIL: warmup compile failed: " << resp.error << "\n";
      return 1;
    }
  }

  std::cout << "== svc closed-loop load, " << client_threads
            << " client(s) vs " << workers << " worker(s), "
            << util::fmt_fixed(seconds, 1) << " s ==\n";

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  std::vector<ThreadResult> results(
      static_cast<std::size_t>(client_threads));
  std::vector<std::thread> threads;
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < client_threads; ++t)
    threads.emplace_back([&, t] {
      ThreadResult& r = results[static_cast<std::size_t>(t)];
      svc::Client client = svc::Client::connect(cfg.address);
      const svc::CompileParams params = steady_workload();
      while (std::chrono::steady_clock::now() < deadline) {
        const auto s0 = std::chrono::steady_clock::now();
        ++r.sent;
        svc::Response resp;
        try {
          resp = client.compile(params);
        } catch (const util::Error& e) {
          // A dropped connection would leave this request unanswered;
          // that is exactly what the bench exists to rule out.
          std::cerr << "client " << t << ": " << e.what() << "\n";
          break;
        }
        ++r.answered;
        const auto s1 = std::chrono::steady_clock::now();
        r.latency_ns.push_back(
            std::chrono::duration<double, std::nano>(s1 - s0).count());
        switch (resp.status) {
          case svc::RespStatus::kOk:
            ++r.ok;
            break;
          case svc::RespStatus::kOverloaded:
            ++r.overloaded;
            break;
          default:
            ++r.other;
            break;
        }
      }
    });
  for (std::thread& th : threads) th.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  ThreadResult total;
  std::vector<double> latencies;
  for (const ThreadResult& r : results) {
    total.sent += r.sent;
    total.answered += r.answered;
    total.ok += r.ok;
    total.overloaded += r.overloaded;
    total.other += r.other;
    latencies.insert(latencies.end(), r.latency_ns.begin(),
                     r.latency_ns.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const std::uint64_t unanswered = total.sent - total.answered;
  const double throughput = static_cast<double>(total.answered) / wall;
  const double p50 = percentile(latencies, 0.50);
  const double p99 = percentile(latencies, 0.99);
  const double shed_rate =
      total.answered
          ? static_cast<double>(total.overloaded) /
                static_cast<double>(total.answered)
          : 0.0;

  server.drain();
  const svc::ServerStats stats = server.stats();
  const std::uint64_t lookups = stats.store_hits + stats.store_misses;
  const double hit_rate = lookups ? static_cast<double>(stats.store_hits) /
                                        static_cast<double>(lookups)
                                  : 0.0;

  std::cout << "  throughput  " << util::fmt_fixed(throughput, 1)
            << " req/s  (" << total.answered << " answered in "
            << util::fmt_fixed(wall, 2) << " s)\n"
            << "  latency     p50 " << util::fmt_fixed(p50 / 1e6, 3)
            << " ms, p99 " << util::fmt_fixed(p99 / 1e6, 3) << " ms\n"
            << "  outcomes    ok " << total.ok << ", overloaded "
            << total.overloaded << " (shed rate "
            << util::fmt_fixed(100.0 * shed_rate, 2) << "%), other "
            << total.other << "\n"
            << "  plan store  " << util::fmt_fixed(100.0 * hit_rate, 2)
            << "% hit rate  (" << stats.store_hits << "/" << lookups
            << ")\n"
            << "  batching    " << stats.batched
            << " single-flight follower(s) over " << stats.compiles
            << " compile(s)\n"
            << "  unanswered  " << unanswered << "\n";
  server.write_summary(std::cout);

  if (unanswered != 0) {
    std::cerr << "FAIL: " << unanswered << " request(s) went unanswered\n";
    return 1;
  }
  if (total.other != 0) {
    std::cerr << "FAIL: " << total.other
              << " request(s) got unexpected statuses\n";
    return 1;
  }

  JsonLine line;
  line.str("bench", "svc_load")
      .num("client_threads", static_cast<i64>(client_threads))
      .num("workers", static_cast<i64>(workers))
      .num("requests", total.sent)
      .num("throughput_rps", throughput)
      .num("latency_p50_ms", p50 / 1e6)
      .num("latency_p99_ms", p99 / 1e6)
      .num("shed_rate", shed_rate)
      .num("store_hit_rate", hit_rate);
  line.write(std::cout);

  if (json) {
    Json doc = Json::object();
    doc.set("bench", Json::string("svc_load"));
    doc.set("address", Json::string(cfg.address));
    doc.set("workers", Json::integer(workers));
    doc.set("queue_capacity", Json::integer(static_cast<i64>(cfg.queue_capacity)));
    doc.set("client_threads", Json::integer(client_threads));
    doc.set("wall_seconds", Json::number(wall));
    doc.set("requests", Json::integer(static_cast<i64>(total.sent)));
    doc.set("responses", Json::integer(static_cast<i64>(total.answered)));
    doc.set("unanswered", Json::integer(static_cast<i64>(unanswered)));
    doc.set("ok", Json::integer(static_cast<i64>(total.ok)));
    doc.set("overloaded", Json::integer(static_cast<i64>(total.overloaded)));
    doc.set("throughput_rps", Json::number(throughput));
    doc.set("latency_p50_ms", Json::number(p50 / 1e6));
    doc.set("latency_p99_ms", Json::number(p99 / 1e6));
    doc.set("shed_rate", Json::number(shed_rate));
    doc.set("store_hit_rate", Json::number(hit_rate));
    Json srv = Json::object();
    srv.set("connections", Json::integer(static_cast<i64>(stats.connections)));
    srv.set("requests", Json::integer(static_cast<i64>(stats.requests)));
    srv.set("completed", Json::integer(static_cast<i64>(stats.completed)));
    srv.set("shed", Json::integer(static_cast<i64>(stats.shed)));
    srv.set("timed_out", Json::integer(static_cast<i64>(stats.timed_out)));
    srv.set("failed", Json::integer(static_cast<i64>(stats.failed)));
    srv.set("rejected", Json::integer(static_cast<i64>(stats.rejected)));
    srv.set("batched", Json::integer(static_cast<i64>(stats.batched)));
    srv.set("compiles", Json::integer(static_cast<i64>(stats.compiles)));
    srv.set("store_hits", Json::integer(static_cast<i64>(stats.store_hits)));
    srv.set("store_misses",
            Json::integer(static_cast<i64>(stats.store_misses)));
    srv.set("max_queue_depth",
            Json::integer(static_cast<i64>(stats.max_queue_depth)));
    doc.set("server", std::move(srv));
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "FAIL: cannot open " << json_path << " for writing\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "bench report written to " << json_path << "\n";
  }
  return 0;
}
