#include "tilo/svc/listener.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "tilo/util/error.hpp"

namespace tilo::svc {

bool Connection::send(std::string_view payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  return write_frame(fd_.get(), payload);
}

Response oversized_frame_response(std::size_t max_frame_bytes) {
  Response resp;
  resp.status = RespStatus::kBadRequest;
  resp.error = util::concat("frame length exceeds the ", max_frame_bytes,
                            "-byte cap");
  return resp;
}

Listener::Listener(std::size_t max_frame_bytes, Handler handler)
    : max_frame_bytes_(max_frame_bytes), handler_(std::move(handler)) {}

Listener::~Listener() { close(); }

void Listener::start(std::string_view address) {
  TILO_REQUIRE(!listen_fd_.valid(), "svc::Listener::start called twice");
  addr_ = Address::parse(address);
  listen_fd_ = listen_on(addr_);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Listener::stop_accepting() {
  if (!listen_fd_.valid()) return;
  stopping_.store(true, std::memory_order_release);
  ::shutdown(listen_fd_.get(), SHUT_RDWR);  // wakes the blocked accept
  if (accept_thread_.joinable()) accept_thread_.join();
  listen_fd_.reset();
  if (addr_.kind == Address::Kind::kUnix) ::unlink(addr_.path.c_str());
}

void Listener::close() {
  stop_accepting();
  std::vector<std::unique_ptr<Reader>> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const std::unique_ptr<Reader>& r : readers_)
      if (const ConnPtr conn = r->conn.lock())
        ::shutdown(conn->fd_.get(), SHUT_RD);
    readers.swap(readers_);
  }
  for (const std::unique_ptr<Reader>& r : readers)
    if (r->thread.joinable()) r->thread.join();
}

std::size_t Listener::reader_threads() const {
  std::lock_guard<std::mutex> lock(readers_mu_);
  return readers_.size();
}

void Listener::accept_loop() {
  for (;;) {
    Fd fd = accept_on(listen_fd_.get());
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!fd.valid()) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listening socket gone
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_shared<Connection>(std::move(fd));
    auto reader = std::make_unique<Reader>();
    reader->conn = conn;
    Reader* raw = reader.get();
    std::lock_guard<std::mutex> lock(readers_mu_);
    std::erase_if(readers_, [](const std::unique_ptr<Reader>& r) {
      if (!r->done.load(std::memory_order_acquire)) return false;
      r->thread.join();
      return true;
    });
    reader->thread =
        std::thread([this, raw, conn = std::move(conn)]() mutable {
          read_loop(conn);
          // Drop the reader's reference: the socket closes now, or once
          // the last pending answer on it has been written.
          conn.reset();
          raw->done.store(true, std::memory_order_release);
        });
    readers_.push_back(std::move(reader));
  }
}

void Listener::read_loop(const ConnPtr& conn) {
  std::string payload;
  for (;;) {
    const FrameStatus st =
        read_frame(conn->fd_.get(), payload, max_frame_bytes_);
    // kClosed, kTruncated and kError end the connection unanswered.
    if (st != FrameStatus::kFrame && st != FrameStatus::kOversized) return;
    handler_(conn, st, payload);
    if (st == FrameStatus::kOversized) return;
  }
}

}  // namespace tilo::svc
