#include "tilo/svc/server.hpp"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <ostream>

#include "tilo/pipeline/serialize.hpp"
#include "tilo/svc/compile.hpp"
#include "tilo/util/error.hpp"

namespace tilo::svc {

namespace {

/// Wall-clock-ish monotonic ns (the epoch is arbitrary, as obs host spans
/// require; monotonic so deadlines and latencies cannot go backwards).
std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ------------------------------------------------------- internal structs

/// One admitted request waiting for a flight's result.
struct Server::Member {
  ConnPtr conn;
  std::optional<i64> id;
  std::int64_t admitted_ns = 0;
  std::int64_t deadline_ns = 0;  ///< absolute; 0 = no deadline
};

/// One in-flight compile and everyone waiting on it.  Guarded by
/// flights_mu_: a request whose problem_key matches an entry in flights_
/// joins members instead of enqueueing a second compile; the worker erases
/// the entry (under the same lock) before responding, so a member either
/// joined in time and is answered, or starts a fresh flight.
struct Server::Flight {
  CompileParams params;
  std::vector<Member> members;
};

// ----------------------------------------------------------------- Server

Server::Server(ServerConfig config)
    : cfg_(std::move(config)),
      queue_(cfg_.queue_capacity),
      listener_(cfg_.max_frame_bytes,
                [this](const ConnPtr& conn, FrameStatus status,
                       const std::string& payload) {
                  handle_frame(conn, status, payload);
                }) {
  TILO_REQUIRE(cfg_.workers >= 1, "svc: need at least one worker, got ",
               cfg_.workers);
  TILO_REQUIRE(cfg_.queue_capacity >= 1, "svc: queue capacity must be >= 1");
}

Server::~Server() { stop(); }

void Server::start() {
  TILO_REQUIRE(!started_.load(), "svc::Server::start called twice");
  // Rehydrate the plan store before a single request can arrive, so the
  // first warm-key request of a restarted server is already a store hit.
  store::PlanStoreConfig store_cfg;
  store_cfg.dir = cfg_.store_dir;
  store_ = std::make_unique<store::PlanStore>(store_cfg);
  if (cfg_.sink && store_->rehydrated() > 0)
    cfg_.sink->counter("svc.store.rehydrated",
                       static_cast<std::int64_t>(store_->rehydrated()));
  if (cfg_.quota.rate > 0.0)
    quota_ = std::make_unique<store::Quota>(cfg_.quota);
  int pipe_fds[2];
  TILO_REQUIRE(::pipe(pipe_fds) == 0, "pipe: ", std::strerror(errno));
  wake_rd_.reset(pipe_fds[0]);
  wake_wr_.reset(pipe_fds[1]);
  listener_.start(cfg_.address);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
  started_.store(true, std::memory_order_release);
}

void Server::run_until(int wake_fd) {
  TILO_REQUIRE(started_.load(), "svc::Server::run_until before start");
  struct pollfd fds[2] = {{wake_rd_.get(), POLLIN, 0}, {wake_fd, POLLIN, 0}};
  const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
  for (;;) {
    const int pr = ::poll(fds, nfds, -1);
    if (pr < 0 && errno == EINTR) continue;  // the signal wrote to wake_fd
    if (pr > 0) break;
    if (pr < 0) break;  // poll failure: drain rather than spin
  }
  drain();
}

void Server::request_shutdown() {
  const char byte = 's';
  if (wake_wr_.valid()) {
    const ssize_t w = ::write(wake_wr_.get(), &byte, 1);
    (void)w;
  }
}

void Server::drain() {
  std::lock_guard<std::mutex> drain_lock(drain_mu_);
  if (!started_.load() || drained_.load()) return;
  draining_.store(true, std::memory_order_release);

  // 1. Stop accepting.
  listener_.stop_accepting();

  // 2. Finish every admitted request: close the queue (readers now shed
  //    instead of enqueueing), let the workers drain the backlog, join.
  queue_.close();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();

  // 3. Disconnect readers (every in-flight response was written in step 2)
  //    and join their threads.
  listener_.close();
  drained_.store(true, std::memory_order_release);
}

void Server::handle_frame(const ConnPtr& conn, FrameStatus status,
                          const std::string& payload) {
  const std::int64_t admitted = now_ns();
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (cfg_.sink) cfg_.sink->counter("svc.requests", 1);
  if (status == FrameStatus::kOversized) {
    send(conn, oversized_frame_response(cfg_.max_frame_bytes), admitted);
    return;
  }

  Json doc;
  try {
    doc = Json::parse(payload);
  } catch (const util::Error& e) {
    Response resp;
    resp.status = RespStatus::kBadRequest;
    resp.error = e.what();
    send(conn, std::move(resp), admitted);
    return;
  }
  // Version probe before full validation, so a future-version client gets
  // the dedicated status instead of a generic parse error.
  if (doc.is_object()) {
    if (const Json* v = doc.find("version")) {
      bool mismatch = false;
      try {
        mismatch = v->as_integer("version") != kProtocolVersion;
      } catch (const util::Error&) {
        mismatch = true;
      }
      if (mismatch) {
        Response resp;
        resp.status = RespStatus::kUnsupportedVersion;
        resp.error = util::concat("this server speaks svc protocol version ",
                                  kProtocolVersion);
        if (const Json* id = doc.find("id")) {
          try {
            resp.id = id->as_integer("id");
          } catch (const util::Error&) {
          }
        }
        send(conn, std::move(resp), admitted);
        return;
      }
    }
  }
  Request req;
  try {
    req = request_from_json(doc);
  } catch (const util::Error& e) {
    Response resp;
    resp.status = RespStatus::kBadRequest;
    resp.error = e.what();
    send(conn, std::move(resp), admitted);
    return;
  }

  switch (req.op) {
    case Op::kPing: {
      Response resp;
      resp.id = req.id;
      resp.result = "{\"pong\":true}";
      send(conn, std::move(resp), admitted);
      return;
    }
    case Op::kStats: {
      Response resp;
      resp.id = req.id;
      resp.result = stats_result_json();
      send(conn, std::move(resp), admitted);
      return;
    }
    case Op::kShutdown: {
      // Answer first so the requester sees the ack, then trigger the drain
      // (run_until wakes on the self-pipe and does the actual work).
      Response resp;
      resp.id = req.id;
      send(conn, std::move(resp), admitted);
      request_shutdown();
      return;
    }
    case Op::kCompile: {
      if (draining_.load(std::memory_order_acquire)) {
        Response resp;
        resp.status = RespStatus::kShuttingDown;
        resp.id = req.id;
        resp.error = "server is draining";
        send(conn, std::move(resp), admitted);
        return;
      }
      // Admission tier 1: per-tenant quota, before the shared queue — a
      // flooding tenant drains its own bucket instead of everyone's queue.
      if (quota_) {
        const std::string& tenant =
            req.tenant.empty() ? std::string("default") : req.tenant;
        if (!quota_->try_take(tenant, admitted)) {
          Response resp;
          resp.status = RespStatus::kQuotaExceeded;
          resp.id = req.id;
          resp.error = util::concat("tenant \"", tenant,
                                    "\" admission quota exhausted; back off "
                                    "and retry");
          send(conn, std::move(resp), admitted);
          return;
        }
      }
      admit_compile(conn, std::move(req));
      return;
    }
    case Op::kRegister:
    case Op::kHeartbeat:
    case Op::kDeregister:
    case Op::kUnit:
    case Op::kQueue:
    case Op::kAcct: {
      // Fleet-orchestration ops are served by a fleet::Controller; a plain
      // compile server refuses them explicitly rather than hanging.
      Response resp;
      resp.status = RespStatus::kBadRequest;
      resp.id = req.id;
      resp.error = util::concat("op \"", op_name(req.op),
                                "\" is served by a fleet controller, not a "
                                "compile server");
      send(conn, std::move(resp), admitted);
      return;
    }
  }
}

void Server::admit_compile(const ConnPtr& conn, Request req) {
  const std::int64_t admitted = now_ns();
  const i64 deadline_ms =
      req.deadline_ms ? *req.deadline_ms : cfg_.default_deadline_ms;
  Member member;
  member.conn = conn;
  member.id = req.id;
  member.admitted_ns = admitted;
  member.deadline_ns =
      deadline_ms > 0 ? admitted + deadline_ms * 1'000'000 : 0;

  std::string key = problem_key(req.compile);
  bool overloaded = false;
  {
    std::lock_guard<std::mutex> lock(flights_mu_);
    auto it = flights_.find(key);
    if (it != flights_.end()) {
      // Single-flight: join the in-progress compile for this problem.
      it->second->members.push_back(std::move(member));
      batched_.fetch_add(1, std::memory_order_relaxed);
      if (cfg_.sink) cfg_.sink->counter("svc.batched", 1);
      return;
    }
    auto flight = std::make_shared<Flight>();
    flight->params = std::move(req.compile);
    flight->members.push_back(std::move(member));
    if (queue_.try_push(Work{key, flight})) {
      flights_.emplace(std::move(key), std::move(flight));
      const std::size_t depth = queue_.depth();
      std::size_t seen = max_queue_depth_.load(std::memory_order_relaxed);
      while (depth > seen &&
             !max_queue_depth_.compare_exchange_weak(
                 seen, depth, std::memory_order_relaxed)) {
      }
      if (cfg_.sink) cfg_.sink->counter("svc.queue_depth", 1);
    } else {
      overloaded = true;
    }
  }
  if (overloaded) {
    Response resp;
    resp.status = RespStatus::kOverloaded;
    resp.id = req.id;
    resp.error = util::concat("admission queue full (capacity ",
                              queue_.capacity(), "); retry with backoff");
    send(conn, std::move(resp), admitted);
  }
}

void Server::worker_loop(int worker_index) {
  while (std::optional<Work> work = queue_.pop()) {
    if (cfg_.sink) cfg_.sink->counter("svc.queue_depth", -1);
    Flight& flight = *work->flight;
    const std::int64_t t0 = now_ns();

    // Requests whose deadline already passed get "timeout" without paying
    // for the compile; if nobody is left, skip the compile entirely.
    std::vector<Member> expired;
    bool anyone_waiting = false;
    {
      std::lock_guard<std::mutex> lock(flights_mu_);
      auto alive_end = std::partition(
          flight.members.begin(), flight.members.end(), [t0](const Member& m) {
            return m.deadline_ns == 0 || t0 <= m.deadline_ns;
          });
      expired.assign(std::make_move_iterator(alive_end),
                     std::make_move_iterator(flight.members.end()));
      flight.members.erase(alive_end, flight.members.end());
      anyone_waiting = !flight.members.empty();
      if (!anyone_waiting) flights_.erase(work->key);
    }
    for (Member& m : expired) {
      Response resp;
      resp.status = RespStatus::kTimeout;
      resp.id = m.id;
      resp.error = "deadline elapsed before a worker started the compile";
      send(m.conn, std::move(resp), m.admitted_ns);
    }
    if (!anyone_waiting) continue;

    // Store read-through: a warm key (populated by a prior compile or by
    // rehydration from the segment log) serves the exact stored bytes with
    // no compile at all — the property the restart suites pin (a restarted
    // replica answers warm keys with compiles == 0).
    Response body;
    if (std::optional<std::string> cached = store_->get(work->key)) {
      body.result = std::move(*cached);
      if (cfg_.sink) cfg_.sink->counter("svc.store.hit", 1);
    } else {
      if (cfg_.sink) cfg_.sink->counter("svc.store.miss", 1);
      body = execute(flight.params);
      compiles_.fetch_add(1, std::memory_order_relaxed);
      // Write-through: the first compile of a key stores its result bytes,
      // so every later request (and, with a disk tier, every later server
      // generation) serves the identical bytes.
      if (body.status == RespStatus::kOk && !body.result.empty()) {
        store_->put(work->key, body.result);
        if (cfg_.sink) cfg_.sink->counter("svc.store.put", 1);
      }
    }

    std::vector<Member> members;
    {
      // Erasing under the lock closes the join window: after this, a new
      // request with the same key starts a fresh flight.
      std::lock_guard<std::mutex> lock(flights_mu_);
      members = std::move(flight.members);
      flights_.erase(work->key);
    }
    const std::int64_t t1 = now_ns();
    for (Member& m : members) {
      Response resp;
      if (m.deadline_ns != 0 && t1 > m.deadline_ns) {
        resp.status = RespStatus::kTimeout;
        resp.id = m.id;
        resp.error = "deadline elapsed during the compile";
      } else {
        resp = body;  // shared result bytes, per-member id
        resp.id = m.id;
      }
      send(m.conn, std::move(resp), m.admitted_ns);
    }
    if (cfg_.sink)
      cfg_.sink->host_span(
          util::concat("svc.compile [", flight.params.name, "]"), t0, t1,
          worker_index);
  }
}

Response Server::execute(const CompileParams& params) {
  pipeline::CompileOptions opts = cfg_.compile;
  opts.sink = cfg_.sink;
  return execute_compile(opts, params);
}

void Server::send(const ConnPtr& conn, Response resp,
                  std::int64_t admitted_ns) {
  switch (resp.status) {
    case RespStatus::kOk:
      completed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RespStatus::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RespStatus::kTimeout:
      timed_out_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RespStatus::kError:
      failed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RespStatus::kQuotaExceeded:
      quota_denied_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RespStatus::kBadRequest:
    case RespStatus::kUnsupportedVersion:
    case RespStatus::kShuttingDown:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  if (cfg_.sink)
    cfg_.sink->counter(util::concat("svc.responses.",
                                    status_name(resp.status)),
                       1);
  // A false return means the client vanished mid-request; the request was
  // still answered as far as accounting goes.
  (void)conn->send(response_to_wire(resp));
  if (admitted_ns >= 0) latency_.add(now_ns() - admitted_ns);
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = listener_.accepted();
  s.requests = requests_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.timed_out = timed_out_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.quota_denied = quota_denied_.load(std::memory_order_relaxed);
  s.batched = batched_.load(std::memory_order_relaxed);
  s.compiles = compiles_.load(std::memory_order_relaxed);
  s.store_hits = store_->hits();
  s.store_misses = store_->misses();
  s.store_puts = store_->puts();
  s.store_rehydrated = store_->rehydrated();
  s.queue_depth = queue_.depth();
  s.max_queue_depth = max_queue_depth_.load(std::memory_order_relaxed);
  return s;
}

std::string Server::stats_result_json() const {
  const ServerStats s = stats();
  Json r = Json::object();
  r.set("connections", Json::integer(static_cast<i64>(s.connections)));
  r.set("requests", Json::integer(static_cast<i64>(s.requests)));
  r.set("completed", Json::integer(static_cast<i64>(s.completed)));
  r.set("shed", Json::integer(static_cast<i64>(s.shed)));
  r.set("timed_out", Json::integer(static_cast<i64>(s.timed_out)));
  r.set("failed", Json::integer(static_cast<i64>(s.failed)));
  r.set("rejected", Json::integer(static_cast<i64>(s.rejected)));
  r.set("quota_denied", Json::integer(static_cast<i64>(s.quota_denied)));
  r.set("batched", Json::integer(static_cast<i64>(s.batched)));
  r.set("compiles", Json::integer(static_cast<i64>(s.compiles)));
  r.set("store_hits", Json::integer(static_cast<i64>(s.store_hits)));
  r.set("store_misses", Json::integer(static_cast<i64>(s.store_misses)));
  r.set("store_puts", Json::integer(static_cast<i64>(s.store_puts)));
  r.set("store_rehydrated",
        Json::integer(static_cast<i64>(s.store_rehydrated)));
  r.set("queue_depth", Json::integer(static_cast<i64>(s.queue_depth)));
  r.set("max_queue_depth",
        Json::integer(static_cast<i64>(s.max_queue_depth)));
  r.set("queue_capacity", Json::integer(static_cast<i64>(queue_.capacity())));
  r.set("workers", Json::integer(static_cast<i64>(cfg_.workers)));
  r.set("latency_p50_ms", Json::number(latency_.percentile_ns(0.50) / 1e6));
  r.set("latency_p99_ms", Json::number(latency_.percentile_ns(0.99) / 1e6));
  return r.dump();
}

void Server::write_summary(std::ostream& os) const {
  const ServerStats s = stats();
  os << "svc summary (" << address().str() << ")\n"
     << "  requests    " << s.requests << "  (ok " << s.completed
     << ", overloaded " << s.shed << ", timeout " << s.timed_out
     << ", error " << s.failed << ", rejected " << s.rejected
     << ", quota " << s.quota_denied << ")\n"
     << "  batching    " << s.batched << " single-flight follower(s) over "
     << s.compiles << " compile(s)\n"
     << "  queue       peak depth " << s.max_queue_depth << " of "
     << queue_.capacity() << "\n"
     << "  plan store  " << s.store_hits << " hit(s) / " << s.store_misses
     << " miss(es), " << s.store_puts << " put(s), " << s.store_rehydrated
     << " rehydrated ("
     << (cfg_.store_dir.empty() ? std::string("memory only") : cfg_.store_dir)
     << ")\n";
  const std::string warn = store_->replay_warning();
  if (!warn.empty()) os << "  store warn  " << warn << "\n";
  os << "  latency     p50 ~" << latency_.percentile_ns(0.50) / 1e6
     << " ms, p99 ~" << latency_.percentile_ns(0.99) / 1e6
     << " ms (log-bucket upper edges)\n";
}

// ------------------------------------------------------------ SignalDrain

namespace {
int g_signal_wr = -1;
struct sigaction g_old_term, g_old_int;

extern "C" void tilo_svc_on_signal(int) {
  const char byte = 's';
  const ssize_t w = ::write(g_signal_wr, &byte, 1);
  (void)w;
}
}  // namespace

SignalDrain::SignalDrain() {
  TILO_REQUIRE(g_signal_wr == -1,
               "svc::SignalDrain: only one instance may exist at a time");
  int fds[2];
  TILO_REQUIRE(::pipe(fds) == 0, "pipe: ", std::strerror(errno));
  rd_.reset(fds[0]);
  wr_.reset(fds[1]);
  g_signal_wr = wr_.get();
  struct sigaction sa {};
  sa.sa_handler = tilo_svc_on_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  ::sigaction(SIGTERM, &sa, &g_old_term);
  ::sigaction(SIGINT, &sa, &g_old_int);
}

SignalDrain::~SignalDrain() {
  ::sigaction(SIGTERM, &g_old_term, nullptr);
  ::sigaction(SIGINT, &g_old_int, nullptr);
  g_signal_wr = -1;
}

}  // namespace tilo::svc
