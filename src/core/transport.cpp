#include "core/transport.hpp"

#include <utility>

#include "net/fabric.hpp"
#include "net/ipc.hpp"

namespace mv2gnc::core {

// ===========================================================================
// FabricTransport
// ===========================================================================

FabricTransport::FabricTransport(netsim::Endpoint& endpoint)
    : endpoint_(endpoint) {}

std::uint64_t FabricTransport::post_send(int dst, netsim::WireMessage msg) {
  return endpoint_.post_send(dst, std::move(msg));
}

std::uint64_t FabricTransport::post_rdma_write(
    int dst, const void* local, void* remote, std::size_t bytes,
    std::optional<netsim::WireMessage> imm) {
  return endpoint_.post_rdma_write(dst, local, remote, bytes, std::move(imm));
}

bool FabricTransport::poll(netsim::Completion& out) {
  return endpoint_.poll(out);
}

void FabricTransport::set_wakeup(sim::Notifier* n) {
  endpoint_.set_wakeup(n);
}

TransportStats FabricTransport::stats() const {
  TransportStats s;
  s.messages_sent = endpoint_.messages_sent();
  s.bytes_sent = endpoint_.bytes_sent();
  s.rdma_writes = endpoint_.rdma_writes();
  s.busy_time = endpoint_.tx_busy_time();
  return s;
}

// ===========================================================================
// IpcTransport
// ===========================================================================

IpcTransport::IpcTransport(netsim::IpcPort& port) : port_(port) {}

std::uint64_t IpcTransport::post_send(int dst, netsim::WireMessage msg) {
  return port_.post_send(dst, std::move(msg));
}

std::uint64_t IpcTransport::post_rdma_write(
    int dst, const void* local, void* remote, std::size_t bytes,
    std::optional<netsim::WireMessage> imm) {
  return port_.post_rdma_write(dst, local, remote, bytes, std::move(imm));
}

bool IpcTransport::poll(netsim::Completion& out) { return port_.poll(out); }

void IpcTransport::set_wakeup(sim::Notifier* n) { port_.set_wakeup(n); }

TransportStats IpcTransport::stats() const {
  TransportStats s;
  s.messages_sent = port_.messages_sent();
  s.bytes_sent = port_.bytes_sent();
  s.rdma_writes = port_.rdma_writes();
  s.busy_time = port_.tx_busy_time();
  return s;
}

// ===========================================================================
// TransportRouter
// ===========================================================================

TransportRouter::TransportRouter(Transport& fallback) : fallback_(fallback) {
  transports_.push_back(&fallback);
}

void TransportRouter::add_route(int peer, Transport& t) {
  routes_[peer] = &t;
  for (Transport* known : transports_) {
    if (known == &t) return;
  }
  transports_.push_back(&t);
}

void TransportRouter::set_failover(std::uint64_t demote_after,
                                   std::uint64_t restore_after) {
  demote_after_ = demote_after;
  restore_after_ = restore_after;
}

void TransportRouter::note_failure(int peer) {
  if (demote_after_ == 0) return;
  if (routes_.find(peer) == routes_.end()) return;  // fallback-only peer
  PeerHealth& h = health_[peer];
  h.successes = 0;
  ++h.failures;
  if (!h.demoted && h.failures >= demote_after_) {
    h.demoted = true;
    h.failures = 0;
    ++h.demotions;
  }
}

void TransportRouter::note_success(int peer) {
  if (demote_after_ == 0) return;
  if (routes_.find(peer) == routes_.end()) return;
  PeerHealth& h = health_[peer];
  h.failures = 0;
  if (!h.demoted) return;
  ++h.successes;
  if (h.successes >= restore_after_) {
    h.demoted = false;
    h.successes = 0;
    ++h.restores;
  }
}

Transport& TransportRouter::route(int peer) const {
  const auto it = routes_.find(peer);
  if (it == routes_.end()) return fallback_;
  if (demote_after_ != 0) {
    const auto hit = health_.find(peer);
    if (hit != health_.end() && hit->second.demoted) return fallback_;
  }
  return *it->second;
}

bool TransportRouter::poll(netsim::Completion& out) {
  for (Transport* t : transports_) {
    if (t->poll(out)) return true;
  }
  return false;
}

void TransportRouter::set_wakeup(sim::Notifier* n) {
  for (Transport* t : transports_) t->set_wakeup(n);
}

}  // namespace mv2gnc::core
