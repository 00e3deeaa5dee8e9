// The simulated cluster: engine + per-node endpoints, DMA channels and the
// network model.  Substitutes the paper's 16-node Pentium/FastEthernet
// testbed (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "tilo/machine/model.hpp"
#include "tilo/msg/endpoint.hpp"
#include "tilo/obs/sink.hpp"
#include "tilo/sim/engine.hpp"
#include "tilo/sim/resource.hpp"

namespace tilo::msg {

/// Network topology model.
enum class Network {
  kSwitched,  ///< full-duplex switch: contention only at node ports (default)
  kSharedBus, ///< classic shared Ethernet: one bus serializes all wire time
};

/// Message protocol for the nonblocking (DMA) path.
enum class Protocol {
  kEager,       ///< data ships immediately; receiver buffers unexpected
                ///< messages (MPICH's small-message behavior, the paper's
                ///< regime)
  kRendezvous,  ///< data ships only after a request-to-send /
                ///< clear-to-send handshake with a posted receive
                ///< (large-message behavior; adds round-trip latency)
};

/// A simulated cluster of `num_nodes` identical nodes.
class Cluster {
 public:
  /// `sink` (optional, must outlive the cluster) observes every phase
  /// interval the cluster and its endpoints charge; nullptr disables all
  /// recording at the cost of one branch per interval.  All stage costs
  /// come from `model` (per-link wire times, interference stalls, ...).
  Cluster(int num_nodes, std::shared_ptr<const mach::Model> model,
          mach::OverlapLevel level = mach::OverlapLevel::kDma,
          Network network = Network::kSwitched,
          obs::Sink* sink = nullptr,
          Protocol protocol = Protocol::kEager);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  sim::Engine& engine() { return engine_; }
  const mach::Model& model() const { return *model_; }
  mach::OverlapLevel level() const { return level_; }
  Protocol protocol() const { return protocol_; }
  obs::Sink* sink() { return sink_; }

  Endpoint& node(int rank);

  /// Runs the simulation to completion and returns the final time.
  sim::Time run();

  /// Totals across the whole run.
  i64 messages_sent() const { return messages_; }
  i64 bytes_sent() const { return bytes_; }
  /// Peak bytes simultaneously in flight (sent but not yet handed to a
  /// receive) — the extra buffer space communication overlap needs
  /// (paper Fig. 6).
  i64 peak_inflight_bytes() const { return peak_inflight_; }

  /// Failure injection (tests): the `index`-th message sent (0-based)
  /// is silently lost on the wire — its send completes locally, the
  /// receiver never sees it.  -1 disables (default).
  void inject_message_loss(i64 index) { drop_index_ = index; }

  /// Bytes sent per (src, dst) pair — the communication matrix.
  const std::map<std::pair<int, int>, i64>& traffic() const {
    return traffic_;
  }

  /// Suspended-program slots (used by the executors' coroutine awaitables).
  /// Each rank runs exactly one program, which parks its coroutine address
  /// in its rank's slot while it waits on a message handle and clears the
  /// slot on resume.  After the engine drains, a stalled run reclaims
  /// whatever is still parked so injected failures cannot leak coroutine
  /// frames.
  void register_suspended(int rank, void* coroutine_address);
  void unregister_suspended(int rank) {
    suspended_[static_cast<std::size_t>(rank)] = nullptr;
  }
  /// Returns the parked addresses in rank order and clears every slot.
  std::vector<void*> take_suspended();

  // --- cost conversion helpers (seconds model -> simulated ns) ---
  // Wire helpers take an optional (src, dst) so heterogeneous-link models
  // can charge per-link costs; negative endpoints mean the default link.
  sim::Time fill_mpi_ns(i64 bytes) const;
  sim::Time fill_kernel_ns(i64 bytes) const;
  sim::Time half_wire_ns(i64 bytes, int src = -1, int dst = -1) const;
  sim::Time latency_ns(int src = -1, int dst = -1) const;
  sim::Time compute_ns(i64 iterations, i64 working_set_bytes = 0) const;
  /// CPU stall charged alongside an offloaded send/recv (0 under perfect
  /// overlap; executors guard on > 0 so ideal traces are untouched).
  sim::Time send_interference_ns(i64 bytes) const;
  sim::Time recv_interference_ns(i64 bytes) const;

 private:
  friend class Endpoint;

  struct NodeState {
    std::unique_ptr<Endpoint> endpoint;
    // kDma: send and recv share channel[0]; kDuplexDma: [0]=send, [1]=recv.
    std::unique_ptr<sim::Resource> channel[2];
  };

  /// A message between its send and its delivery.  In-flight messages wait
  /// in a pool the cluster owns, so an engine callback carries only the
  /// cluster and a pool id and always fits the engine's inline event slot.
  struct Transfer {
    Message message;
    std::shared_ptr<SendHandle> handle;  ///< null on the blocking path
    sim::Time wire_half = 0;             ///< B1 (= B4)
    sim::Time recv_copy = 0;             ///< B2
    sim::Time latency = 0;
  };

  sim::Resource& send_channel(int rank);
  sim::Resource& recv_channel(int rank);

  /// Parks a message (and its send handle) in the pool; returns its id.
  std::uint32_t park(Message m, std::shared_ptr<SendHandle> handle);
  /// Frees pool slot `id` and hands its message to the destination.
  void deliver(std::uint32_t id);

  /// Overlapped (DMA) transfer entry; called by Endpoint::isend.  Eager
  /// protocol pipelines immediately; rendezvous first runs the RTS/CTS
  /// handshake against the receiver's posted-receive table.
  void start_transfer(Message m, const std::shared_ptr<SendHandle>& handle);
  /// The data pipeline of parked transfer `id` (post-handshake under
  /// rendezvous).
  void start_pipeline(std::uint32_t id);
  /// The receiver-channel leg of parked transfer `id`, starting no
  /// earlier than `earliest`.
  void recv_leg(std::uint32_t id, sim::Time earliest);
  /// The send pipeline of parked transfer `id` finished: releases its
  /// handle and resumes the handle's waiter.
  void complete_send(std::uint32_t id);
  /// Rendezvous: receiver granted parked transfer `id`; CTS travels back,
  /// then the pipeline runs.  Called by Endpoint when a matching irecv is
  /// posted.
  void clear_to_send(std::uint32_t id);
  /// Blocking-path delivery; called by Endpoint::post_blocking.
  void start_blocking_transfer(Message m);

  sim::Engine engine_;
  std::shared_ptr<const mach::Model> model_;
  mach::OverlapLevel level_;
  Network network_;
  Protocol protocol_;
  obs::Sink* sink_;
  std::vector<NodeState> nodes_;
  std::unique_ptr<sim::Resource> bus_;  // kSharedBus only
  i64 messages_ = 0;
  i64 bytes_ = 0;
  i64 inflight_ = 0;
  i64 peak_inflight_ = 0;
  i64 drop_index_ = -1;
  std::map<std::pair<int, int>, i64> traffic_;
  std::vector<void*> suspended_;  // one slot per rank
  std::vector<Transfer> transfers_;
  std::vector<std::uint32_t> free_transfers_;

  void track_sent(int src, int dst, i64 bytes);
  void track_delivered(i64 bytes);
};

}  // namespace tilo::msg
