// Unbounded FIFO message channel between simulated processes.
#pragma once

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace mv2gnc::sim {

/// A typed mailbox. send() never blocks; recv() blocks the calling process
/// until a message is available. Any number of senders and receivers may
/// use the channel; same-time wake-ups preserve FIFO order because the
/// engine's ready queue is FIFO.
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine, std::string name = "channel")
      : engine_(engine), name_(std::move(name)) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Deposit a message (usable from process or scheduler-action context).
  void send(T value) {
    items_.push_back(std::move(value));
    for (detail::Process* p : waiters_) engine_.make_ready(p);
    waiters_.clear();
  }

  /// Block until a message is available, then return it.
  T recv() {
    while (items_.empty()) {
      waiters_.push_back(engine_.current());
      engine_.block_current("Channel(" + name_ + ")::recv");
    }
    T value = std::move(items_.front());
    items_.pop_front();
    return value;
  }

  /// Non-blocking receive; returns false if the channel is empty.
  bool try_recv(T& out) {
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Number of queued messages.
  std::size_t size() const { return items_.size(); }

  /// True if no messages are queued.
  bool empty() const { return size() == 0; }

 private:
  Engine& engine_;
  std::string name_;
  std::deque<T> items_;
  std::vector<detail::Process*> waiters_;
};

}  // namespace mv2gnc::sim
