// Wire-protocol message kinds and header layouts for the MV2-GPU-NC
// rendezvous (paper Fig. 3): RTS -> CTS(vbuf addresses) -> chunked RDMA
// writes, each followed by a "RDMA write finish" immediate, plus CHUNK_ACK
// messages that acknowledge each chunk and re-advertise landing buffers as
// the receiver drains them (the paper's CREDIT, fused with the per-chunk
// acknowledgement the reliability layer needs).
//
// Every control message carries WireMessage::seq so a retransmitted copy
// arriving after the original can be recognized and dropped; receipt of any
// control message must be idempotent (see docs/RELIABILITY.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "net/wire.hpp"

namespace mv2gnc::core {

/// WireMessage.kind values. User-visible eager data and every control
/// message of the rendezvous pipeline. Values are stable wire numbers; 6
/// and 11 are retired.
enum MsgKind : int {
  kEager = 1,     // h0=tag, h1=packed size; payload = packed bytes
  kRts = 2,       // h0=tag, h1=packed size, h2=sender req id,
                  // h3=sender chunk size
  kCts = 3,       // h0=sender req, h1=recv req, h2=mode, h3=slot count;
                  // payload = slot addresses (u64 each); direct mode: one
                  // address (the receive buffer itself)
  kChunkFin = 4,  // h0=recv req, h1=chunk idx, h2=slot idx, h3=offset,
                  // h4=bytes  — the "RDMA write finish" message
  kChunkAck = 5,  // h0=sender req, h1=acked chunk idx, h2=recycled slot idx
                  //   (kNoSlot if none), h3=credit seq, h4=ECN echo (1 when
                  //   the acked chunk's fin carried a congestion mark);
                  //   payload = recycled slot address — per-chunk ack with
                  //   the CREDIT fused in
  kSendDone = 7,  // h0=recv req — sender has seen every ack; the receiver
                  //   may release its remaining landing slots and forget
                  //   the transfer
  kRtsAck = 8,    // h0=sender req — the RTS arrived but no matching recv is
                  //   posted yet; refreshes the sender's retry budget so an
                  //   arbitrarily late recv is never mistaken for loss
  kSendDoneAck = 9,  // h0=sender req — direct-mode receiver confirms the
                  //   SEND_DONE, ending the sender's retransmission of it
  kSendAbort = 10,   // h0=recv req — best-effort notice that the sender
                  //   failed the transfer permanently; the receiver fails
                  //   its request instead of waiting out its watchdog
  kChunkAckBatch = 11,  // retired (acks are never batched); kept because
                  //   perfbench reads its census slot
  kCollAbort = 12,  // h0=communicator context, h1=collective sequence number
                  //   within that context, h2=origin world rank — the
                  //   COLL_ABORT wave (docs/RELIABILITY.md): a rank whose
                  //   collective failed tells every group member to abandon
                  //   the operation instead of blocking on it
  kInternal = 64, // first kind value available to higher layers
};

/// kChunkAck h2 value meaning "this ack recycles no landing slot".
inline constexpr std::uint64_t kNoSlot = ~std::uint64_t{0};

/// CTS landing modes.
enum class CtsMode : std::uint64_t {
  kStaged = 0,  // sender writes into advertised vbuf slots
  kDirect = 1,  // receiver buffer is host-contiguous: write straight in
};

/// Serialize an address list into a message payload.
inline void append_address(std::vector<std::byte>& payload, const void* addr) {
  const auto v = reinterpret_cast<std::uintptr_t>(addr);
  const auto* p = reinterpret_cast<const std::byte*>(&v);
  payload.insert(payload.end(), p, p + sizeof(v));
}

/// Read the i-th serialized address back out of a payload.
inline void* read_address(const std::vector<std::byte>& payload,
                          std::size_t i) {
  std::uintptr_t v = 0;
  std::memcpy(&v, payload.data() + i * sizeof(v), sizeof(v));
  return reinterpret_cast<void*>(v);
}

/// Number of addresses in a payload.
inline std::size_t address_count(const std::vector<std::byte>& payload) {
  return payload.size() / sizeof(std::uintptr_t);
}

}  // namespace mv2gnc::core
