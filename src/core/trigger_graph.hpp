// A small dependency/trigger graph for the rendezvous engine.
//
// The rndv state machines used to be hand-interleaved `while` loops inside
// advance() — the CPU-polled structure of the paper's Fig. 4(b). The graph
// factors every stage transition (pack-done -> D2H -> vbuf acquire -> RDMA
// -> ack -> unpack) into *trigger nodes* with declared dependencies, so
// advance() becomes graph firing and each transfer's stage descriptor maps
// to a graph shape (docs/STREAMS.md).
//
// The design constraint is byte-identical scheduling with the legacy loops:
//
//   * A chain is an ordered sequence of one-shot nodes. A kFrontier chain
//     fires nodes strictly in order and stops at the first node whose gate
//     refuses — exactly a `while (cond) { body; ++i; }` frontier loop. A
//     kSparse chain tries every unfired node each pass — exactly a
//     `for (i) if (ready[i] && !done[i])` sweep.
//   * fire() walks the chains in declaration order, once per call, which
//     reproduces the sequential loop layout of the legacy advance().
//   * Gates may have side effects (the legacy break arms withdraw scheduler
//     turns, acquire staging slots, fall back to pinned buffers); they run
//     at most once per pass per considered node, exactly like the loop
//     conditions they replace.
//
// Gates poll sim::EventFlag / cusim::Event state; external events re-drive
// the owner's progress loop, which calls fire() again. A gate that reads a
// cusim event is re-driven by the stream's wakeup notifier, or by a
// launch_host_trigger that pokes it (cuda/runtime.hpp).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace mv2gnc::core {

class TriggerGraph {
 public:
  /// kFrontier: nodes fire strictly in order; the first refusing gate ends
  /// the pass over the chain. kSparse: every unfired node is offered each
  /// pass, in index order.
  enum class ChainKind { kFrontier, kSparse };

  /// Node readiness predicate. May have side effects (slot acquisition,
  /// scheduler withdrawal); evaluated at most once per node per pass.
  using Gate = std::function<bool()>;
  using Action = std::function<void()>;

  /// Append a chain; returns its id. `enabled` (optional) gates the whole
  /// chain each pass — a disabled chain is skipped, epilogue included.
  int add_chain(ChainKind kind, Gate enabled = {});

  /// Append a node to `chain`. An empty gate means always-ready.
  void add_node(int chain, Gate gate, Action action);

  /// Install a per-pass epilogue for `chain`: runs after every pass over
  /// the chain (fired or not), mirroring the post-loop statements of the
  /// legacy advance().
  void set_epilogue(int chain, Action epilogue);

  /// One pass: walk chains in declaration order, firing ready nodes.
  void fire();

  void clear();

 private:
  struct Node {
    Gate gate;
    Action action;
    bool fired = false;
  };
  struct Chain {
    ChainKind kind = ChainKind::kFrontier;
    Gate enabled;
    Action epilogue;
    std::vector<Node> nodes;
    std::size_t frontier = 0;  // kFrontier: first unfired node
  };

  std::vector<Chain> chains_;
};

}  // namespace mv2gnc::core
