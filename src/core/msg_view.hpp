// MsgView: everything the transfer engine needs to know about one side of
// a message — base pointer, datatype, element count, and the derived facts
// that drive protocol selection (device residency, contiguity, packed size,
// and the cached pack plan with its layout class and sub-patterns).
#pragma once

#include <cstddef>
#include <memory>

#include "core/pack_plan.hpp"
#include "gpu/memory_registry.hpp"
#include "mpi/datatype.hpp"

namespace mv2gnc::core {

struct MsgView {
  void* base = nullptr;
  int count = 0;
  mpisim::Datatype dtype;

  bool on_device = false;
  int device_id = -1;
  bool contiguous = false;            // dense: pack step unnecessary
  std::size_t packed_bytes = 0;       // count * dtype.size()
  std::shared_ptr<const PackPlan> plan;  // cached transfer plan (make sets it)

  /// Build a view; classifies `base` against `registry` and requires a
  /// committed datatype (throws std::logic_error otherwise).
  static MsgView make(void* base, int count, const mpisim::Datatype& dtype,
                      const gpu::MemoryRegistry& registry);
};

}  // namespace mv2gnc::core
