#include "tilo/msg/endpoint.hpp"

#include "tilo/msg/cluster.hpp"
#include "tilo/util/error.hpp"

namespace tilo::msg {

namespace {

/// The oldest entry under `key` in a FIFO multimap, or end().
template <typename Map, typename Key>
auto oldest(Map& map, const Key& key) {
  auto it = map.lower_bound(key);
  return it != map.end() && it->first == key ? it : map.end();
}

}  // namespace

Endpoint::Endpoint(Cluster& cluster, int rank)
    : cluster_(&cluster), rank_(rank) {}

void Endpoint::cpu_record(sim::Time dt, obs::Phase phase,
                          std::string_view label) {
  TILO_REQUIRE(dt >= 0, "negative CPU time");
  if (obs::Sink* sink = cluster_->sink()) {
    const sim::Time now = cluster_->engine().now();
    sink->span(rank_, phase, now, now + dt, label);
  }
}

sim::Engine& Endpoint::engine() const { return cluster_->engine(); }

std::shared_ptr<SendHandle> Endpoint::isend(int dst, i64 tag, i64 bytes,
                                            Payload payload) {
  TILO_REQUIRE(cluster_->level() != mach::OverlapLevel::kNone,
               "isend needs a DMA-capable overlap level; use the blocking "
               "path for OverlapLevel::kNone");
  TILO_REQUIRE(dst >= 0 && dst < cluster_->num_nodes(), "bad destination ",
               dst);
  TILO_REQUIRE(dst != rank_, "self-send is not supported");
  TILO_REQUIRE(bytes >= 0, "negative message size");
  auto handle = std::make_shared<SendHandle>();
  handle->bytes = bytes;
  cluster_->start_transfer(
      Message{rank_, dst, tag, bytes, std::move(payload)}, handle);
  return handle;
}

std::shared_ptr<RecvHandle> Endpoint::irecv(int src, i64 tag) {
  TILO_REQUIRE(src >= 0 && src < cluster_->num_nodes(), "bad source ", src);
  TILO_REQUIRE(src != rank_, "self-receive is not supported");
  auto handle = std::make_shared<RecvHandle>();
  handle->src = src;
  handle->tag = tag;

  const Key key{src, tag};
  auto it = oldest(arrived_, key);
  if (it != arrived_.end()) {
    handle->ready = true;
    handle->payload = std::move(it->second.payload);
    handle->bytes = it->second.bytes;
    arrived_.erase(it);
    return handle;
  }
  posted_.emplace(key, handle);
  if (cluster_->protocol() == Protocol::kRendezvous) {
    auto rts = oldest(rts_pending_, key);
    if (rts != rts_pending_.end()) {
      // A sender is parked on this key: grant its clear-to-send now.
      const std::uint32_t id = rts->second;
      rts_pending_.erase(rts);
      cluster_->clear_to_send(id);
    } else {
      ++ungranted_posted_[key];
    }
  }
  return handle;
}

void Endpoint::rts_arrived(std::uint32_t id) {
  const Message& m = cluster_->transfers_[id].message;
  const Key key{m.src, m.tag};
  auto it = ungranted_posted_.find(key);
  if (it != ungranted_posted_.end() && it->second > 0) {
    if (--it->second == 0) ungranted_posted_.erase(it);
    cluster_->clear_to_send(id);
    return;
  }
  rts_pending_.emplace(key, id);
}

void Endpoint::when_done(const std::shared_ptr<SendHandle>& h, Waiter fn) {
  TILO_REQUIRE(h != nullptr, "null send handle");
  if (h->done) {
    fn();
    return;
  }
  TILO_REQUIRE(!h->waiter, "send handle already has a waiter");
  h->waiter = std::move(fn);
}

void Endpoint::when_ready(const std::shared_ptr<RecvHandle>& h, Waiter fn) {
  TILO_REQUIRE(h != nullptr, "null recv handle");
  if (h->ready) {
    fn();
    return;
  }
  TILO_REQUIRE(!h->waiter, "recv handle already has a waiter");
  h->waiter = std::move(fn);
}

void Endpoint::post_blocking(int dst, i64 tag, i64 bytes, Payload payload) {
  TILO_REQUIRE(dst >= 0 && dst < cluster_->num_nodes(), "bad destination ",
               dst);
  TILO_REQUIRE(dst != rank_, "self-send is not supported");
  TILO_REQUIRE(bytes >= 0, "negative message size");
  cluster_->start_blocking_transfer(
      Message{rank_, dst, tag, bytes, std::move(payload)});
}

void Endpoint::deliver(Message m) {
  cluster_->track_delivered(m.bytes);
  const Key key{m.src, m.tag};
  auto it = oldest(posted_, key);
  if (it != posted_.end()) {
    std::shared_ptr<RecvHandle> h = std::move(it->second);
    posted_.erase(it);
    h->ready = true;
    h->payload = std::move(m.payload);
    h->bytes = m.bytes;
    if (h->waiter) {
      auto w = std::move(h->waiter);
      h->waiter = nullptr;
      w();
    }
    return;
  }
  arrived_.emplace(key, std::move(m));
}

}  // namespace tilo::msg
