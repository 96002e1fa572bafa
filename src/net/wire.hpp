// Wire-level message and completion types shared by every transport.
//
// These used to live in net/fabric.hpp; they are transport-neutral (the
// intra-node IPC channel produces the same completions as the RDMA fabric),
// so they sit in their own header that protocol layers can include without
// pulling in any concrete transport implementation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mv2gnc::netsim {

/// A two-sided message (control traffic and eager payloads).
struct WireMessage {
  int src_node = -1;
  int kind = 0;                     // application-level discriminator
  std::uint64_t seq = 0;            // sender-assigned sequence number, used
                                    // by reliable protocols to discard
                                    // duplicate retransmissions
  bool ecn = false;                 // congestion-experienced mark, set by
                                    // the switch fabric when this message
                                    // queued behind more than the ECN
                                    // backlog threshold on a shared link
                                    // (docs/CONCURRENCY.md); echoed back to
                                    // the sender on the chunk ack
  std::uint64_t header[6] = {};     // small fixed header words
  std::vector<std::byte> payload;   // optional inline payload
};

/// CQ entry types.
enum class CqType {
  kRecv,              // a WireMessage arrived (two-sided or RDMA immediate)
  kSendComplete,      // post_send drained; buffer reusable
  kRdmaComplete,      // post_rdma_write drained locally; buffer reusable
  kError,             // a posted WR failed in transport (fault injection);
                      // wr_id identifies the failed post_rdma_write
};

struct Completion {
  CqType type = CqType::kRecv;
  std::uint64_t wr_id = 0;  // for kSendComplete / kRdmaComplete / kError
  WireMessage msg;          // for kRecv
};

}  // namespace mv2gnc::netsim
