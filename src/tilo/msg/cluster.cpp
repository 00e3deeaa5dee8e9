#include "tilo/msg/cluster.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::msg {

Cluster::Cluster(int num_nodes, std::shared_ptr<const mach::Model> model,
                 mach::OverlapLevel level, Network network,
                 obs::Sink* sink, Protocol protocol)
    : model_(std::move(model)), level_(level),
      network_(network), protocol_(protocol), sink_(sink) {
  engine_.set_sink(sink_);
  TILO_REQUIRE(num_nodes >= 1, "cluster needs at least one node");
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  suspended_.assign(static_cast<std::size_t>(num_nodes), nullptr);
  for (int r = 0; r < num_nodes; ++r) {
    auto& st = nodes_[static_cast<std::size_t>(r)];
    st.endpoint = std::make_unique<Endpoint>(*this, r);
    st.channel[0] = std::make_unique<sim::Resource>(
        engine_, util::concat("node", r, ".dma0"));
    if (level == mach::OverlapLevel::kDuplexDma) {
      st.channel[1] = std::make_unique<sim::Resource>(
          engine_, util::concat("node", r, ".dma1"));
    }
  }
  if (network_ == Network::kSharedBus)
    bus_ = std::make_unique<sim::Resource>(engine_, "bus");
}

Endpoint& Cluster::node(int rank) {
  TILO_REQUIRE(rank >= 0 && rank < num_nodes(), "rank ", rank,
               " out of range [0, ", num_nodes(), ")");
  return *nodes_[static_cast<std::size_t>(rank)].endpoint;
}

void Cluster::register_suspended(int rank, void* coroutine_address) {
  void*& slot = suspended_[static_cast<std::size_t>(rank)];
  TILO_ASSERT(slot == nullptr, "rank ", rank,
              " parked a second program while one is suspended");
  slot = coroutine_address;
}

std::vector<void*> Cluster::take_suspended() {
  std::vector<void*> parked;
  for (void*& slot : suspended_) {
    if (slot) parked.push_back(slot);
    slot = nullptr;
  }
  return parked;
}

sim::Time Cluster::run() {
  engine_.run();
  return engine_.now();
}

sim::Time Cluster::fill_mpi_ns(i64 bytes) const {
  return sim::from_seconds(model_->fill_mpi_seconds(bytes));
}

sim::Time Cluster::fill_kernel_ns(i64 bytes) const {
  return sim::from_seconds(model_->fill_kernel_seconds(bytes));
}

sim::Time Cluster::half_wire_ns(i64 bytes, int src, int dst) const {
  return sim::from_seconds(model_->half_wire_seconds(bytes, src, dst));
}

sim::Time Cluster::latency_ns(int src, int dst) const {
  return sim::from_seconds(model_->wire_latency_seconds(src, dst));
}

sim::Time Cluster::compute_ns(i64 iterations, i64 working_set_bytes) const {
  TILO_REQUIRE(iterations >= 0, "negative iteration count");
  return sim::from_seconds(
      model_->compute_seconds(iterations, working_set_bytes));
}

sim::Time Cluster::send_interference_ns(i64 bytes) const {
  return sim::from_seconds(model_->send_interference_seconds(bytes));
}

sim::Time Cluster::recv_interference_ns(i64 bytes) const {
  return sim::from_seconds(model_->recv_interference_seconds(bytes));
}

sim::Resource& Cluster::send_channel(int rank) {
  return *nodes_[static_cast<std::size_t>(rank)].channel[0];
}

sim::Resource& Cluster::recv_channel(int rank) {
  auto& st = nodes_[static_cast<std::size_t>(rank)];
  // kDma shares one channel for both directions; kDuplexDma splits them.
  return st.channel[1] ? *st.channel[1] : *st.channel[0];
}

void Cluster::track_sent(int src, int dst, i64 bytes) {
  ++messages_;
  bytes_ += bytes;
  inflight_ += bytes;
  peak_inflight_ = std::max(peak_inflight_, inflight_);
  traffic_[{src, dst}] += bytes;
}

void Cluster::track_delivered(i64 bytes) {
  inflight_ -= bytes;
  TILO_ASSERT(inflight_ >= 0, "in-flight byte accounting went negative");
}

namespace {

/// Marks a send complete and resumes its waiter, if any.
void finish_send(SendHandle& handle) {
  handle.done = true;
  if (handle.waiter) {
    auto w = std::move(handle.waiter);
    handle.waiter = nullptr;
    w();
  }
}

}  // namespace

std::uint32_t Cluster::park(Message m, std::shared_ptr<SendHandle> handle) {
  std::uint32_t id;
  if (free_transfers_.empty()) {
    TILO_REQUIRE(transfers_.size() < UINT32_MAX, "transfer pool exhausted");
    id = static_cast<std::uint32_t>(transfers_.size());
    transfers_.emplace_back();
  } else {
    id = free_transfers_.back();
    free_transfers_.pop_back();
  }
  Transfer& tr = transfers_[id];
  tr.message = std::move(m);
  tr.handle = std::move(handle);
  return id;
}

void Cluster::deliver(std::uint32_t id) {
  // Free the slot before delivering: the receiver's waiter may resume a
  // program that sends (and parks) again.
  Message m = std::move(transfers_[id].message);
  free_transfers_.push_back(id);
  const int dst = m.dst;
  nodes_[static_cast<std::size_t>(dst)].endpoint->deliver(std::move(m));
}

void Cluster::complete_send(std::uint32_t id) {
  // Index, not reference: the waiter may resume a program that parks new
  // transfers and grows the pool.
  const std::shared_ptr<SendHandle> handle =
      std::move(transfers_[id].handle);
  finish_send(*handle);
}

void Cluster::start_transfer(Message m,
                             const std::shared_ptr<SendHandle>& handle) {
  const i64 index = messages_;
  track_sent(m.src, m.dst, m.bytes);
  if (index == drop_index_) {
    // Lost on the wire: the local send "succeeds", nothing arrives.
    finish_send(*handle);
    track_delivered(m.bytes);
    return;
  }
  if (protocol_ == Protocol::kRendezvous) {
    // Request-to-send travels to the receiver; the data pipeline starts
    // only once a matching receive is posted (clear_to_send).
    const sim::Time rts = latency_ns(m.src, m.dst);
    const std::uint32_t id = park(std::move(m), handle);
    engine_.after(rts, [this, id] {
      const int dst = transfers_[id].message.dst;
      nodes_[static_cast<std::size_t>(dst)].endpoint->rts_arrived(id);
    });
    return;
  }
  start_pipeline(park(std::move(m), handle));
}

void Cluster::clear_to_send(std::uint32_t id) {
  // CTS travels back to the sender, then the data ships.
  const Message& m = transfers_[id].message;
  const sim::Time cts = latency_ns(m.dst, m.src);
  engine_.after(cts, [this, id] { start_pipeline(id); });
}

void Cluster::recv_leg(std::uint32_t id, sim::Time earliest) {
  const Transfer& tr = transfers_[id];
  const int dst = tr.message.dst;
  const sim::Time b1 = tr.wire_half;
  auto grant = recv_channel(dst).acquire(earliest, b1 + tr.recv_copy,
                                         [this, id] { deliver(id); });
  if (sink_) {
    sink_->span(dst, obs::Phase::kWire, grant.start, grant.start + b1);
    sink_->span(dst, obs::Phase::kKernelRecv, grant.start + b1,
                grant.completion);
  }
}

void Cluster::start_pipeline(std::uint32_t id) {
  Transfer& tr = transfers_[id];
  const int src = tr.message.src;
  const int dst = tr.message.dst;
  const sim::Time b3 = fill_kernel_ns(tr.message.bytes);
  const sim::Time b4 = half_wire_ns(tr.message.bytes, src, dst);
  tr.wire_half = b4;  // B1 = B4
  tr.recv_copy = fill_kernel_ns(tr.message.bytes);
  tr.latency = latency_ns(src, dst);

  if (network_ == Network::kSwitched) {
    // Sender channel: kernel copy + send half of the wire time; then the
    // receiver channel picks up after the propagation latency.
    auto grant = send_channel(src).acquire(
        engine_.now(), b3 + b4, [this, id] {
          complete_send(id);
          recv_leg(id, engine_.now() + transfers_[id].latency);
        });
    if (sink_) {
      sink_->span(src, obs::Phase::kKernelSend, grant.start,
                  grant.start + b3);
      sink_->span(src, obs::Phase::kWire, grant.start + b3,
                  grant.completion);
    }
  } else {
    // Shared bus: the kernel copy runs on the sender channel, then the
    // whole frame occupies the single bus, then the receiver kernel copy.
    auto grant = send_channel(src).acquire(engine_.now(), b3, [this, id] {
      const Transfer& sent = transfers_[id];
      const int from = sent.message.src;
      auto bus_grant = bus_->acquire(
          engine_.now(), sent.wire_half + sent.wire_half, [this, id] {
            complete_send(id);
            // Only the kernel copy remains on the receiver channel.
            const Transfer& tr = transfers_[id];
            const int to = tr.message.dst;
            auto grant2 = recv_channel(to).acquire(
                engine_.now() + tr.latency, tr.recv_copy,
                [this, id] { deliver(id); });
            if (sink_)
              sink_->span(to, obs::Phase::kKernelRecv, grant2.start,
                          grant2.completion);
          });
      if (sink_)
        sink_->span(from, obs::Phase::kWire, bus_grant.start,
                    bus_grant.completion);
    });
    if (sink_)
      sink_->span(src, obs::Phase::kKernelSend, grant.start,
                  grant.completion);
  }
}

void Cluster::start_blocking_transfer(Message m) {
  const i64 index = messages_;
  track_sent(m.src, m.dst, m.bytes);
  if (index == drop_index_) {
    track_delivered(m.bytes);
    return;  // lost on the wire
  }
  const sim::Time lat = latency_ns(m.src, m.dst);
  const std::uint32_t id = park(std::move(m), nullptr);
  engine_.after(lat, [this, id] { deliver(id); });
}

}  // namespace tilo::msg
