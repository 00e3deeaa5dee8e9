// fleet::Controller — the work-unit planner and bounded in-flight
// dispatcher at the head of a worker fleet.
//
// The controller owns a fixed unit plan (sweep_units / scenario_units) and
// serves the svc wire protocol's fleet ops on its own socket:
//
//   register    worker joins → fresh id, credit window, heartbeat interval
//   heartbeat   liveness beacon between unit polls
//   unit        the pull loop: worker returns completed units and leases
//               up to `credit` new ones in the same round trip
//   deregister  graceful leave; leases requeue immediately
//
// Dispatch is pull-based with per-worker credit windows: a worker never
// holds more than `credit` leases, so in-flight work is bounded and a
// dead worker can strand at most `credit` units — until the miss-threshold
// eviction requeues them.  Every unit walks Pending → Leased → Done
// exactly once; requeue (eviction, deregister) is Leased → Pending and
// only the first result ever files into the Merge, so speculation and
// zombie workers cannot double-count (the duplicates counter says how
// often that guard fired).
//
// Speculative re-dispatch: when the pending queue runs dry but leases are
// outstanding, an idle worker gets a second copy of the oldest straggler
// (at most two leases per unit); whichever copy lands first wins.
//
// Determinism: the merged document depends only on the unit plan — see
// merge.hpp for the argument.  obs coverage: per-worker "fleet.unit"
// host-span lanes, fleet.* counters, and a LogHistogram of unit
// latencies rendered by write_report().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "tilo/fleet/membership.hpp"
#include "tilo/fleet/merge.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/obs/registry.hpp"
#include "tilo/sched/fleet_policy.hpp"
#include "tilo/store/segment_log.hpp"
#include "tilo/svc/listener.hpp"
#include "tilo/svc/protocol.hpp"
#include "tilo/svc/socket.hpp"

namespace tilo::fleet {

using svc::Address;
using svc::Fd;

struct ControllerConfig {
  /// "unix:/path" or "tcp:port" (tcp:0 = kernel-assigned, see address()).
  std::string address = "unix:/tmp/tilo-fleet.sock";
  /// Per-worker credit window: max units on lease to one worker.
  int credit = 4;
  /// Advertised heartbeat interval.
  i64 heartbeat_ms = 500;
  /// Evict after this many silent intervals.
  int miss_threshold = 3;
  /// Re-dispatch stragglers to idle workers (first result wins).
  bool speculate = true;
  /// Lease age before a unit counts as a straggler.
  i64 speculate_after_ms = 1000;
  std::size_t max_frame_bytes = svc::kDefaultMaxFrameBytes;
  /// Dispatch policy, partitions, tenant shares (sched::make_policy).
  /// The default — fifo, everything unlimited — reproduces the legacy
  /// flat-deque dispatch bit for bit.
  sched::PolicyConfig sched;
  /// Fair-share accounting segment-log directory ("" = no persistence):
  /// tenant usage is restored from the last snapshot on construction and
  /// snapshotted on stop(), so fair-share standing survives controller
  /// restarts instead of resetting every tenant to a clean slate.
  std::string accounting_dir;
  obs::Sink* sink = nullptr;
};

struct FleetStats {
  std::size_t units = 0;
  std::size_t completed = 0;
  std::size_t pending = 0;    ///< queued, not on lease
  std::size_t in_flight = 0;  ///< leases outstanding (speculation counts 2)
  std::size_t workers = 0;    ///< registered right now
  std::uint64_t registered = 0;  ///< ever
  std::uint64_t deregistered = 0;
  std::uint64_t evicted = 0;
  std::uint64_t requeued = 0;    ///< lease losses returned to pending
  std::uint64_t speculated = 0;  ///< second leases handed out
  std::uint64_t duplicates = 0;  ///< results dropped by first-wins dedup
  std::uint64_t heartbeats = 0;
  std::uint64_t unit_polls = 0;
  std::size_t jobs = 0;          ///< job arrays submitted
  std::uint64_t preempted = 0;   ///< leases requeued by preemption
  std::uint64_t backfilled = 0;  ///< units dispatched out of order
};

class Controller {
 public:
  /// Single-job plan: every unit under one default job array (tenant
  /// "default", priority 0) — the legacy constructor, dispatch-identical
  /// to the pre-scheduler controller under the default fifo policy.
  Controller(ControllerConfig cfg, std::vector<WorkUnit> units);
  /// Multi-tenant plan: one scheduler job per array.  Unit indices must
  /// be dense across the arrays (they key the merge).
  Controller(ControllerConfig cfg, std::vector<JobArray> jobs);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Binds the socket and starts the accept + eviction threads.
  void start();

  /// The bound address (resolves "tcp:0" to the kernel-assigned port).
  const Address& address() const { return listener_.address(); }

  /// The in-process fast lane for co-located workers: serves one fleet op
  /// directly, skipping frame encode/decode and the socket round trip.
  /// Exactly the dispatch handle_frame performs for a wire request (same
  /// bookkeeping, same counters, same responses), so a local worker is
  /// indistinguishable from a remote one to the unit state machine.
  /// Thread-safe; usable as soon as the controller is constructed.
  svc::Response call_local(const svc::Request& req);

  /// Submits another job array mid-run (its unit indices must continue
  /// densely where the current plan ends).  May preempt: when the new
  /// job outranks the lowest-priority running job in a full partition,
  /// that job's leases requeue through the exactly-once machinery.
  /// Returns the scheduler job id.
  i64 submit(JobArray job);

  /// Blocks until every unit has a merged result.
  void wait();
  /// wait() with a timeout; false = still incomplete.
  bool wait_for_ms(i64 timeout_ms);

  /// Stops serving and joins every thread.  Idempotent; the destructor
  /// calls it.  Workers polling after completion have already been told
  /// done=true, so stop after wait() is a clean shutdown.
  void stop();

  FleetStats stats() const;
  /// Result texts keyed by unit index; meaningful once wait() returned.
  const Merge& merged() const { return merge_; }
  /// The canonical merged document (requires completion).
  std::string merged_document() const { return merge_.document(); }

  /// The end-of-run fleet report: units, workers, resilience counters and
  /// unit-latency percentiles.
  void write_report(std::ostream& os) const;

 private:
  enum class UnitState { kPending, kLeased, kDone };
  struct Unit {
    std::string payload;
    UnitState state = UnitState::kPending;
    std::vector<int> owners;  ///< worker ids holding a lease
    i64 first_lease_ns = 0;
    int lease_count = 0;  ///< total leases ever (speculation cap)
  };
  /// The listener's handler: every fleet op is answered inline on the
  /// connection's reader thread (the bookkeeping is microseconds, unlike a
  /// compile), so there is no worker pool.
  void handle_frame(const svc::ConnPtr& conn, svc::FrameStatus status,
                    const std::string& payload);
  void tick_loop();
  svc::Response handle(const svc::Request& req);
  void restore_accounting(i64 now);
  void snapshot_accounting();
  std::string handle_register(const Json& body);
  std::string handle_heartbeat(const Json& body);
  std::string handle_deregister(const Json& body);
  std::string handle_unit(const Json& body);
  std::string handle_queue();
  std::string handle_acct();

  // All _locked helpers require mu_.
  i64 submit_locked(JobArray job, i64 now);
  std::size_t straggler_locked(int worker, i64 now);
  std::vector<std::size_t> lease_locked(Member& m, i64 want, i64 now);
  void complete_locked(std::size_t index, std::string payload, int worker,
                       i64 now);
  void requeue_locked(const std::vector<std::size_t>& leases, int worker);
  void preempt_locked(const std::vector<std::size_t>& victims, i64 now);

  ControllerConfig cfg_;
  std::thread tick_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_done_;
  std::condition_variable cv_tick_;
  std::vector<Unit> units_;
  /// The dispatch brain: which pending unit runs next, who gets
  /// preempted.  Pure bookkeeping guarded by mu_, like membership_.
  std::unique_ptr<sched::Policy> policy_;
  /// Preempted leases awaiting notification, per worker id: delivered as
  /// the "drop" list of the worker's next unit poll so it can abandon
  /// work it has not started.
  std::unordered_map<int, std::vector<std::size_t>> dropped_;
  /// Fair-share usage snapshots (cfg_.accounting_dir); guarded by mu_.
  std::optional<store::SegmentLog> acct_log_;
  Membership membership_;
  Merge merge_;
  obs::LogHistogram latency_;
  std::uint64_t preempted_ = 0;
  std::uint64_t registered_ = 0;
  std::uint64_t deregistered_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t requeued_ = 0;
  std::uint64_t speculated_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::uint64_t unit_polls_ = 0;

  /// Last: its reader threads call handle_frame, which uses everything
  /// above.
  svc::Listener listener_;
};

}  // namespace tilo::fleet
