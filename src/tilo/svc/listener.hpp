// svc::Listener — the connection layer shared by svc::Server and
// fleet::Controller.
//
// Thread per connection: an accept thread hands every accepted socket to
// its own reader thread, which reads length-prefixed frames under the
// owner's max_frame_bytes and passes each one (or an oversized prefix) to
// the owner's handler.  The owner decides what a frame means; the listener
// only owns sockets and threads:
//
//   reaping    each accept joins the readers whose connections already
//              ended, so a long-running listener's thread table tracks the
//              live connections, not every connection ever seen
//   writes     Connection::send serializes frames per connection, because
//              the reader and a thread finishing work for an earlier frame
//              may answer on the same socket at once
//   teardown   two steps, so an owner can finish in-flight work between
//              them: stop_accepting() closes the listening socket, then
//              close() shuts every reader's read side and joins them
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "tilo/svc/protocol.hpp"
#include "tilo/svc/socket.hpp"

namespace tilo::svc {

/// One accepted connection.  Shared by its reader thread and by whoever
/// answers a frame later, so the socket stays open until the last answer
/// is written.
class Connection {
 public:
  explicit Connection(Fd fd) : fd_(std::move(fd)) {}
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Writes one frame under the connection's write lock; false when the
  /// peer is gone.
  bool send(std::string_view payload);

 private:
  friend class Listener;  // reads frames and shuts the socket down
  Fd fd_;
  std::mutex write_mu_;
};

using ConnPtr = std::shared_ptr<Connection>;

/// The answer to a length prefix above the frame cap: bad_request naming
/// the cap.  The stream cannot be re-framed after such a prefix, so the
/// listener ends the connection once the handler has answered.
Response oversized_frame_response(std::size_t max_frame_bytes);

class Listener {
 public:
  /// Called on a reader thread with `status` kFrame (`payload` holds the
  /// frame) or kOversized (the prefix exceeded the cap; nothing was read).
  using Handler = std::function<void(const ConnPtr& conn, FrameStatus status,
                                     const std::string& payload)>;

  Listener(std::size_t max_frame_bytes, Handler handler);
  ~Listener();  // close()

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds `address` and starts the accept thread.  Throws util::Error
  /// when the address does not parse or cannot be bound.
  void start(std::string_view address);

  /// The bound address (tcp:0 becomes the kernel-chosen port).
  const Address& address() const { return addr_; }

  /// Teardown step 1: stop accepting and join the accept thread (a Unix
  /// socket path is unlinked).  Open connections keep being served.
  void stop_accepting();
  /// Teardown step 2: stop_accepting(), then shut every reader's read side
  /// and join the readers.  Idempotent.
  void close();

  /// Connections accepted since start().
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  /// Reader threads not yet joined: the live connections plus finished
  /// ones the next accept will reap.
  std::size_t reader_threads() const;

 private:
  struct Reader {
    std::weak_ptr<Connection> conn;  ///< for close(); the thread owns it
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void read_loop(const ConnPtr& conn);

  const std::size_t max_frame_bytes_;
  const Handler handler_;
  Address addr_;
  Fd listen_fd_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> accepted_{0};
  mutable std::mutex readers_mu_;
  std::vector<std::unique_ptr<Reader>> readers_;
  std::thread accept_thread_;
};

}  // namespace tilo::svc
