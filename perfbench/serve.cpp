// Workloads "serve-hot" and "serve-churn": an svc::Server (two workers, a
// plan store in the work directory) on a Unix socket, driven open loop by
// one generator thread over one pipelined connection.  Requests go out on
// a fixed schedule whatever the server does, and each is timed from its
// due send time to its answer, so a stall also charges the requests queued
// behind it.
//
// serve-hot  16 hot keys, all in the store before timing: every request is
//            a store read-through hit, so svc and store.get are loaded and
//            pipeline/exec are bypassed (gated: no compile during timing).
// serve-churn the same plus a seeded share of fresh keys with
//            simulate=true, half of them sent twice back to back: compiles
//            (pipeline + exec), store.put writes and single-flight joins
//            next to the hot reads.
//
// The untraced run climbs a fixed rate ladder; the reference rung lasts
// longest and gives the latency metrics, and ops_per_s is the achieved
// rate of the highest rung whose p99 meets the limit with every request
// answered ok and the generator on time.
//
// Gate: every response of a key is byte-identical to the first one, and
// those (all hot keys, a sample of fresh ones) to an in-process
// svc::execute_compile of the same params.
#include <poll.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iostream>
#include <memory>

#include "layers.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/store/plan_store.hpp"
#include "tilo/svc/client.hpp"
#include "tilo/svc/compile.hpp"
#include "tilo/svc/server.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/rng.hpp"

namespace perfbench {

using namespace tilo;

namespace {

constexpr int kWorkers = 2;
constexpr std::uint32_t kHotKeys = 16;
constexpr const char* kAddress = "unix:svc.sock";
constexpr const char* kStoreDir = "store";
constexpr std::size_t kFreshBase = 1'000'000;

struct Spec {
  std::vector<double> ladder;  ///< ascending rates, requests per second
  double reference = 0;        ///< the rung whose latencies are reported
  double limit_ms = 0;         ///< p99 limit a rung must meet
  double fresh_share = 0;      ///< share of requests with a fresh key
};

Spec spec_for(bool churn) {
  if (churn) return Spec{{4000, 8000, 16000, 24000}, 4000, 10.0, 0.05};
  return Spec{{8000, 16000, 32000, 48000}, 8000, 2.0, 0.0};
}

/// A uniform 2-D nest in the loop-nest grammar as a compile request, with a
/// loop::random_nest dependence shape.  Distinct `index` values give
/// distinct problem keys.
svc::CompileParams compile_case(std::size_t index) {
  util::Rng rng(0x5E4CE11EULL ^ ((index + 1) * 0x9E3779B97F4A7C15ULL));
  loop::RandomNestOptions ro;
  ro.dims = 2;
  ro.num_deps = static_cast<std::size_t>(rng.uniform(2, 3));
  ro.max_dep_component = 1;
  const loop::LoopNest shape = loop::random_nest(rng, ro);
  // The loop-nest grammar text of the shape's dependences.  The lower bound
  // carries the index, so every case is its own problem key, and the
  // extents vary little, so the cost of a compile hardly depends on which
  // cases a seed draws.
  const auto lo = static_cast<i64>(index);
  const i64 outer = 2 * rng.uniform(4, 6);
  const i64 inner = 1536 + rng.uniform(0, 255);
  std::string body;
  for (const lat::Vec& d : shape.deps().vectors()) {
    body += body.empty() ? "" : " + ";
    body += std::string("A(i") + (d[0] ? "-1" : "") + ", j" +
            (d[1] ? "-1" : "") + ")";
  }
  svc::CompileParams p;
  p.name = "case" + std::to_string(index);
  p.source = util::concat("FOR i = ", lo, " TO ", lo + outer - 1, "\n FOR j = ",
                          lo, " TO ", lo + inner - 1, "\n  A(i, j) = 0.5 * (",
                          body, ")\n ENDFOR\nENDFOR\n");
  p.procs = lat::Vec{2, 1};
  p.height = 16;
  p.simulate = true;
  return p;
}

struct Send {
  std::uint32_t key = 0;
  bool with_previous = false;  ///< due at the same time as the send before
};

/// The key population: the hot set plus fresh keys minted on demand.
class Keys {
 public:
  Keys(std::uint64_t seed, double fresh_share)
      : rng_(seed * 0x2545F4914F6CDD1DULL + 0x5E7E), share_(fresh_share) {
    std::vector<std::size_t> picked;
    while (picked.size() < kHotKeys) {
      const auto index = static_cast<std::size_t>(rng_.uniform(0, 4095));
      if (std::find(picked.begin(), picked.end(), index) == picked.end())
        picked.push_back(index);
    }
    for (const std::size_t index : picked)
      params_.push_back(compile_case(index));
    results_.resize(params_.size());
  }

  /// The next `n` sends.  Half of the fresh keys go out twice at the same
  /// due time, so the second request joins the first's flight.
  std::vector<Send> schedule(std::size_t n) {
    std::vector<Send> out;
    while (out.size() < n) {
      if (share_ > 0 && rng_.chance(share_)) {
        const auto key = static_cast<std::uint32_t>(params_.size());
        params_.push_back(compile_case(kFreshBase + fresh_++));
        results_.emplace_back();
        out.push_back(Send{key, false});
        if (out.size() < n && rng_.chance(0.5)) out.push_back(Send{key, true});
      } else {
        out.push_back(Send{
            static_cast<std::uint32_t>(rng_.uniform(0, kHotKeys - 1)), false});
      }
    }
    return out;
  }

  std::vector<Send> hot() const {
    std::vector<Send> out;
    for (std::uint32_t k = 0; k < kHotKeys; ++k) out.push_back(Send{k, false});
    return out;
  }

  const svc::CompileParams& params(std::uint32_t key) const {
    return params_[key];
  }
  std::size_t size() const { return params_.size(); }

  /// Files an ok response; false when it differs from the key's first.
  bool check(std::uint32_t key, std::string result) {
    if (results_[key].empty()) {
      results_[key] = std::move(result);
      return true;
    }
    return results_[key] == result;
  }
  const std::string& result(std::uint32_t key) const { return results_[key]; }

 private:
  util::Rng rng_;
  double share_;
  std::size_t fresh_ = 0;
  std::vector<svc::CompileParams> params_;
  std::vector<std::string> results_;
};

/// A rung's p99 as the median of its per-window p99s over windows of 2000
/// consecutive requests (20 samples beyond each): a scheduler stall on the
/// shared machine spoils the windows it hits, not the whole rung.
double windowed_p99(const std::vector<double>& ms) {
  constexpr std::size_t kWindow = 2000;
  std::vector<double> p99s;
  for (std::size_t lo = 0; lo < ms.size(); lo += kWindow) {
    const std::size_t hi = std::min(lo + kWindow, ms.size());
    if (hi - lo < kWindow / 2 && !p99s.empty()) break;
    std::vector<double> window(ms.begin() + static_cast<std::ptrdiff_t>(lo),
                               ms.begin() + static_cast<std::ptrdiff_t>(hi));
    p99s.push_back(quantile(window, 0.99));
  }
  return median(p99s);
}

struct Rung {
  double rate = 0;
  std::vector<double> latency_ms;  ///< due send time -> answer
  std::vector<double> lag_ms;      ///< due send time -> actual send
  i64 sent = 0;
  i64 ok = 0;
  double achieved_rps = 0;

  bool meets(double limit_ms) const {
    return ok == sent && windowed_p99(latency_ms) <= limit_ms &&
           windowed_p99(lag_ms) <= limit_ms;
  }
};

/// One pipelined connection driven from one thread: sends on schedule,
/// reads answers in between.
class Generator {
 public:
  Generator()
      : fd_(svc::connect_to(svc::Address::parse(kAddress), 2000)) {}

  Rung run(double rate, const std::vector<Send>& sends, Keys& pop,
           Report& report) {
    struct Slot {
      i64 due = 0, sent = 0, answered = -1;
    };
    const std::size_t n = sends.size();
    std::vector<Slot> slots(n);
    const i64 t0 = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i)
      slots[i].due =
          sends[i].with_previous && i > 0
              ? slots[i - 1].due
              : t0 + std::llround(static_cast<double>(i) * 1e9 / rate);
    const i64 base = next_id_;
    next_id_ += static_cast<i64>(n);
    const i64 give_up = slots.back().due + 5'000'000'000;

    Rung rung;
    rung.rate = rate;
    rung.sent = static_cast<i64>(n);
    std::size_t next = 0, answered = 0;
    i64 last_answer = t0;
    std::string payload;
    while (answered < n) {
      i64 now = now_ns();
      for (; next < n && slots[next].due <= now; ++next) {
        svc::Request req;
        req.op = svc::Op::kCompile;
        req.id = base + static_cast<i64>(next);
        req.compile = pop.params(sends[next].key);
        TILO_REQUIRE(svc::write_frame(fd_.get(),
                                      svc::request_to_json(req).dump()),
                     "generator: the server closed the connection");
        now = now_ns();
        slots[next].sent = now;
      }
      const i64 wait = next < n ? slots[next].due - now : give_up - now;
      if (next == n && wait <= 0) break;  // unanswered requests count failed
      if (!readable(std::max<i64>(wait, 0))) continue;
      do {
        const svc::FrameStatus st = svc::read_frame(
            fd_.get(), payload, svc::kDefaultMaxFrameBytes, 5000);
        TILO_REQUIRE(st == svc::FrameStatus::kFrame, "generator: read ",
                     svc::frame_status_name(st));
        svc::Response resp = svc::response_from_wire(payload);
        TILO_REQUIRE(resp.id && *resp.id >= base &&
                         *resp.id < base + static_cast<i64>(n),
                     "generator: unexpected response id");
        const auto i = static_cast<std::size_t>(*resp.id - base);
        last_answer = slots[i].answered = now_ns();
        ++answered;
        if (resp.status == svc::RespStatus::kOk) {
          ++rung.ok;
          if (!pop.check(sends[i].key, std::move(resp.result)))
            report.gate(false, "responses for " +
                                   pop.params(sends[i].key).name + " differ");
        } else {
          std::cerr << "request " << i << ": " << svc::status_name(resp.status)
                    << " " << resp.error << "\n";
        }
      } while (readable(0));
    }
    for (const Slot& s : slots) {
      rung.lag_ms.push_back(static_cast<double>(s.sent - s.due) / 1e6);
      if (s.answered >= 0)
        rung.latency_ms.push_back(static_cast<double>(s.answered - s.due) /
                                  1e6);
    }
    rung.achieved_rps = static_cast<double>(answered) * 1e9 /
                        static_cast<double>(std::max<i64>(1, last_answer - t0));
    report.attempted += rung.sent;
    report.failed += rung.sent - rung.ok;
    return rung;
  }

 private:
  bool readable(i64 wait_ns) {
    pollfd p{fd_.get(), POLLIN, 0};
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    return ::ppoll(&p, 1, &ts, nullptr) > 0;
  }

  svc::Fd fd_;
  i64 next_id_ = 1;
};

std::unique_ptr<svc::Server> start_server(Tracer* tracer) {
  svc::ServerConfig cfg;
  cfg.address = kAddress;
  cfg.workers = kWorkers;
  // Never shed: a rung beyond capacity shows as latency, not failures.
  cfg.queue_capacity = 1 << 16;
  cfg.store_dir = kStoreDir;
  cfg.sink = tracer;
  auto server = std::make_unique<svc::Server>(cfg);
  server->start();
  return server;
}

/// A serving session: server plus generator, torn down generator first.
struct Session {
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<Generator> gen;

  void open(Tracer* tracer, Keys& keys, Report& report) {
    close();
    server = start_server(tracer);
    gen = std::make_unique<Generator>();
    (void)gen->run(1e5, keys.hot(), keys, report);
  }
  void close() {
    gen.reset();
    server.reset();
  }
};

double rung_seconds(const Spec& spec, double rate, double seconds) {
  const double short_rung = 0.1 * seconds;
  const auto others = static_cast<double>(spec.ladder.size() - 1);
  return rate == spec.reference ? seconds - short_rung * others : short_rung;
}

void result_gate(Keys& keys, Report& report) {
  const pipeline::CompileOptions base;
  std::size_t fresh_checked = 0;
  for (std::uint32_t k = 0; k < keys.size(); ++k) {
    if (keys.result(k).empty()) continue;
    if (k >= kHotKeys && fresh_checked++ >= 8) break;
    const svc::Response expect = svc::execute_compile(base, keys.params(k));
    report.gate(expect.status == svc::RespStatus::kOk &&
                    expect.result == keys.result(k),
                "served result for " + keys.params(k).name +
                    " differs from an in-process execute_compile");
  }
}

/// store.*: reopen the server's store (rehydration), read the hot set, and
/// write fresh values into a scratch store.
void store_probe(Keys& keys, Report& report) {
  std::vector<double> open_s;
  std::unique_ptr<store::PlanStore> plans;
  for (int rep = 0; rep < 3; ++rep) {
    const i64 t0 = now_ns();
    plans =
        std::make_unique<store::PlanStore>(store::PlanStoreConfig{kStoreDir});
    open_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.set("store.rehydrate_s", median(open_s), "s");

  std::vector<std::string> hot_keys;
  for (std::uint32_t k = 0; k < kHotKeys; ++k)
    hot_keys.push_back(svc::problem_key(keys.params(k)));
  std::vector<double> get_us;
  for (int i = 0; i < 4000; ++i) {
    const i64 t0 = now_ns();
    const std::optional<std::string> v = plans->get(hot_keys[i % kHotKeys]);
    get_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
    if (!v) report.gate(false, "hot key missing from the plan store");
  }
  report.set("store.get_us_p50", median(get_us), "us");

  store::PlanStore scratch(store::PlanStoreConfig{"store-probe"});
  std::vector<double> put_us;
  for (int i = 0; i < 400; ++i) {
    const std::string value =
        keys.result(static_cast<std::uint32_t>(i) % kHotKeys);
    const i64 t0 = now_ns();
    scratch.put("probe-" + std::to_string(i), value);
    put_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  report.set("store.put_us_p50", median(put_us), "us");
}

/// pipeline.*: cold compiles of fresh cases with the tracer attached, then
/// the stage self-times of every compile the tracer saw.
void pipeline_probe(Tracer& tracer, Report& report) {
  std::vector<double> compile_ms;
  for (std::size_t i = 0; i < 16; ++i) {
    const svc::CompileParams p = compile_case(2 * kFreshBase + i);
    pipeline::CompileOptions o;
    o.sink = &tracer;
    o.procs = p.procs;
    o.height = p.height;
    const i64 t0 = now_ns();
    (void)pipeline::Compiler(o).compile_source(p.name, p.source);
    compile_ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }
  report.set("pipeline.compile_ms_p50", median(compile_ms), "ms");
  for (const char* stage : {"Frontend", "Analysis", "Tiling", "Scheduling",
                            "Lowering", "Backend"}) {
    std::vector<double> ms;
    for (const Tracer::Span& s : tracer.spans(std::string("pipeline.") + stage))
      ms.push_back(static_cast<double>(s.end - s.start) / 1e6);
    std::string metric = std::string("pipeline.") + stage + "_ms";
    for (char& c : metric) c = static_cast<char>(std::tolower(c));
    report.set(metric, median(ms), "ms");
  }
}

}  // namespace

void run_serve(const Options& opts, bool churn, Report& report) {
  const Spec spec = spec_for(churn);
  Keys keys(opts.seed, spec.fresh_share);

  // Fixture: the hot set compiled once into the plan store.
  Session session;
  session.open(nullptr, keys, report);

  // Set-up: server start over the populated store (rehydration) and one
  // warm request per hot key.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const i64 t0 = now_ns();
    session.open(nullptr, keys, report);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.attempted = report.failed = 0;  // fixture and warm-up requests

  if (!opts.trace) {
    const svc::ServerStats before = session.server->stats();
    std::vector<Rung> rungs;
    for (const double rate : spec.ladder) {
      const auto n = static_cast<std::size_t>(
          std::llround(rate * rung_seconds(spec, rate, opts.seconds)));
      rungs.push_back(session.gen->run(rate, keys.schedule(n), keys, report));
    }
    const svc::ServerStats after = session.server->stats();
    if (!churn)
      report.gate(after.compiles == before.compiles,
                  "serve-hot compiled during timing");
    double goodput = 0;
    for (const Rung& r : rungs) {
      if (!r.meets(spec.limit_ms)) break;
      goodput = r.achieved_rps;
    }
    for (const Rung& r : rungs) {
      std::cerr << "  rung " << r.rate << " req/s: achieved " << r.achieved_rps
                << ", p50 " << median(r.latency_ms) << " ms, p99 "
                << windowed_p99(r.latency_ms) << " ms, lag p99 "
                << windowed_p99(r.lag_ms) << " ms\n";
      if (r.rate != spec.reference) continue;
      report.set("op_p50_ms", median(r.latency_ms), "ms");
      report.set("op_tail_ms", windowed_p99(r.latency_ms), "ms");
    }
    report.set("ops_per_s", goodput, "1/s");
    report.set("setup_s", median(setup_s), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    session.close();
  } else {
    const auto n = static_cast<std::size_t>(
        std::llround(spec.reference * opts.seconds / 2));
    Rung plain =
        session.gen->run(spec.reference, keys.schedule(n), keys, report);

    Tracer tracer;
    session.open(&tracer, keys, report);
    const svc::ServerStats before = session.server->stats();
    Rung traced;
    {
      Tracer::Scope span(&tracer, "serve reference rung");
      traced = session.gen->run(spec.reference, keys.schedule(n), keys, report);
    }
    const svc::ServerStats after = session.server->stats();

    // Closed-loop round trips on the hot set for the wire share.
    std::vector<double> rtt_us;
    const i64 probe_t0 = now_ns();
    {
      Tracer::Scope span(&tracer, "svc.rtt probe");
      svc::Client client = svc::Client::connect(kAddress);
      for (std::uint32_t i = 0; i < 400; ++i) {
        const i64 t0 = now_ns();
        const svc::Response resp = client.compile(keys.params(i % kHotKeys));
        rtt_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        report.gate(resp.status == svc::RespStatus::kOk &&
                        keys.check(i % kHotKeys, resp.result),
                    "svc rtt probe answer differs");
      }
    }
    std::vector<double> handle_us, probe_handle_us;
    for (const Tracer::Span& s : tracer.spans("svc.compile [")) {
      const double us = static_cast<double>(s.end - s.start) / 1e3;
      handle_us.push_back(us);
      if (s.start >= probe_t0) probe_handle_us.push_back(us);
    }
    session.close();

    const auto delta = [](std::uint64_t a, std::uint64_t b) {
      return static_cast<double>(b - a);
    };
    report.set("svc.rtt_us_p50", median(rtt_us), "us");
    report.set("svc.handle_us_p50", median(handle_us), "us");
    report.set("svc.handle_us_p99", quantile(handle_us, 0.99), "us");
    report.set("svc.wire_us_p50", median(rtt_us) - median(probe_handle_us),
               "us");
    report.set("svc.batched_frac",
               delta(before.batched, after.batched) /
                   std::max(1.0, delta(before.requests, after.requests)),
               "ratio");
    report.set("svc.compiles", delta(before.compiles, after.compiles), "count");
    report.set("svc.queue_depth_max",
               static_cast<double>(after.max_queue_depth), "count");
    const double hits = delta(before.store_hits, after.store_hits);
    report.set("store.hit_frac",
               hits / std::max(1.0, hits + delta(before.store_misses,
                                                 after.store_misses)),
               "ratio");
    report.set("store.puts", delta(before.store_puts, after.store_puts),
               "count");
    report.set("gen.lag_ms_p99", windowed_p99(traced.lag_ms), "ms");
    report.set("obs.trace_overhead_frac",
               median(traced.latency_ms) / median(plain.latency_ms) - 1.0,
               "ratio");
    store_probe(keys, report);
    if (churn) {
      pipeline_probe(tracer, report);
      std::vector<Case> cases;
      for (const std::size_t index : pick_cases(opts.seed, 2))
        cases.push_back(universe_case(index, false));
      exec_sim_probe(cases, &tracer, report);
    }
    write_trace(tracer, opts);
  }
  result_gate(keys, report);
}

}  // namespace perfbench
