// svc::Server — the long-running plan-compilation service.
//
// Architecture (DESIGN.md §11): an svc::Listener hands each connection to a
// lightweight reader thread that parses frames and *admits* requests; a
// fixed worker pool drains a bounded admission queue through one shared
// staged-compiler configuration, and the store::PlanStore is the one
// response cache in front of the compiler.  Robustness is part of the
// contract:
//
//   backpressure   try_push on the bounded queue; a full queue answers
//                  "overloaded" immediately instead of queueing unboundedly
//   single-flight  concurrent requests with the same problem_key() join one
//                  in-flight compile and all receive the leader's result
//                  bytes verbatim
//   deadlines      a request whose deadline_ms elapsed before a worker
//                  reached it answers "timeout" without compiling
//   graceful drain drain() (SIGTERM in the CLI, the "shutdown" op over the
//                  wire) stops accepting, finishes every admitted request,
//                  then joins all threads — no request is ever dropped
//
// Observability: per-request host spans ("svc.<op>", lane = worker index),
// queue-depth and outcome counters, and a latency histogram that
// write_summary() condenses into a RunReport-style shutdown summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tilo/obs/registry.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/store/plan_store.hpp"
#include "tilo/store/quota.hpp"
#include "tilo/svc/listener.hpp"
#include "tilo/svc/protocol.hpp"
#include "tilo/svc/queue.hpp"
#include "tilo/svc/socket.hpp"

namespace tilo::svc {

struct ServerConfig {
  std::string address = "unix:/tmp/tilo-svc.sock";
  int workers = 4;
  std::size_t queue_capacity = 256;
  /// Deadline applied to requests that carry none; 0 = no deadline.
  i64 default_deadline_ms = 0;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Base compile options (machine model, comm config, overlap level).
  /// The server overrides their sink with `sink` below.
  pipeline::CompileOptions compile;
  obs::Sink* sink = nullptr;  ///< optional; must outlive the server
  /// Segment-log directory of the plan store's disk tier ("" = memory tier
  /// only).  The store always answers repeated keys from memory; with a
  /// directory, compiled result bytes are also written through to disk and
  /// rehydrated on start(), so a restarted server answers warm keys
  /// without recompiling.
  std::string store_dir;
  /// Per-tenant admission quotas in front of the queue; rate <= 0 = off.
  store::QuotaConfig quota;
};

/// A snapshot of the service's outcome counters.  Every admitted request is
/// accounted to exactly one of completed / shed / timed_out / failed /
/// rejected / quota_denied, so `requests == completed + shed + timed_out +
/// failed + rejected + quota_denied` always holds — the "no request left
/// unanswered" invariant.
struct ServerStats {
  std::uint64_t connections = 0;
  std::uint64_t requests = 0;       ///< frames that parsed as requests
  std::uint64_t completed = 0;      ///< "ok" responses (any op)
  std::uint64_t shed = 0;           ///< "overloaded" responses
  std::uint64_t timed_out = 0;      ///< "timeout" responses
  std::uint64_t failed = 0;         ///< "error" responses (compile failed)
  std::uint64_t rejected = 0;       ///< bad_request / version / draining
  std::uint64_t quota_denied = 0;   ///< "quota_exceeded" responses
  std::uint64_t batched = 0;        ///< single-flight followers
  std::uint64_t compiles = 0;       ///< compiles actually executed
  std::uint64_t store_hits = 0;     ///< plan-store read-through hits
  std::uint64_t store_misses = 0;   ///< each one is followed by a compile
  std::uint64_t store_puts = 0;         ///< results written through
  std::uint64_t store_rehydrated = 0;   ///< records replayed on start()
  std::size_t queue_depth = 0;
  std::size_t max_queue_depth = 0;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  // stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Opens the plan store, binds the address and spawns the accept thread
  /// and worker pool.  Throws util::Error when the store cannot be opened
  /// or the address cannot be bound.
  void start();

  /// The resolved address (tcp:0 becomes the kernel-chosen port).
  const Address& address() const { return listener_.address(); }

  /// Blocks until `wake_fd` becomes readable (pass a SignalDrain fd; -1 =
  /// none) or a client sends the "shutdown" op, then drains and returns.
  void run_until(int wake_fd);

  /// Graceful shutdown: stop accepting, answer queued-but-unstarted work,
  /// finish every in-flight compile, join all threads.  Idempotent.
  void drain();
  /// Alias of drain() (kept for call sites that read better with "stop").
  void stop() { drain(); }

  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Valid after start(), like plan_store().
  ServerStats stats() const;
  /// Wall-clock admission-to-response latency of every answered request.
  const obs::LogHistogram& latency_histogram() const { return latency_; }

  /// The plan store (memory tier, plus the disk tier when store_dir is
  /// set).  Valid after start(); introspection for tests and the CLI.
  const store::PlanStore* plan_store() const { return store_.get(); }

  /// The RunReport-style shutdown summary: outcome counts, batching and
  /// plan-store effectiveness, latency percentiles.
  void write_summary(std::ostream& os) const;

 private:
  struct Flight;
  struct Member;
  struct Work {
    std::string key;
    std::shared_ptr<Flight> flight;
  };

  void worker_loop(int worker_index);
  /// The listener's handler: runs on the connection's reader thread.
  void handle_frame(const ConnPtr& conn, FrameStatus status,
                    const std::string& payload);
  void admit_compile(const ConnPtr& conn, Request req);
  /// Runs one compile; returns an ok/error response body (id unset).
  Response execute(const CompileParams& params);
  std::string stats_result_json() const;
  void send(const ConnPtr& conn, Response resp, std::int64_t admitted_ns);
  void request_shutdown();

  ServerConfig cfg_;
  Fd wake_rd_, wake_wr_;  ///< self-pipe: the wire "shutdown" op → run_until

  std::unique_ptr<store::PlanStore> store_;
  std::unique_ptr<store::Quota> quota_;      ///< null = no admission quotas
  BoundedQueue<Work> queue_;

  std::vector<std::thread> workers_;

  std::mutex flights_mu_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> drained_{false};
  std::mutex drain_mu_;  ///< serializes drain() callers

  // Outcome counters (relaxed: each is touched by exactly one event).
  std::atomic<std::uint64_t> requests_{0}, completed_{0}, shed_{0},
      timed_out_{0}, failed_{0}, rejected_{0}, quota_denied_{0}, batched_{0},
      compiles_{0};
  std::atomic<std::size_t> max_queue_depth_{0};
  obs::LogHistogram latency_;

  /// Last: its reader threads call handle_frame, which uses everything
  /// above.
  Listener listener_;
};

/// Installs SIGTERM + SIGINT handlers that write one byte to a pipe, so a
/// serving loop can `server.run_until(signals.fd())` and drain gracefully.
/// Restores the previous handlers on destruction.  One instance at a time.
class SignalDrain {
 public:
  SignalDrain();
  ~SignalDrain();
  SignalDrain(const SignalDrain&) = delete;
  SignalDrain& operator=(const SignalDrain&) = delete;

  int fd() const { return rd_.get(); }

 private:
  Fd rd_, wr_;
};

}  // namespace tilo::svc
