#include "core/msg_view.hpp"

#include <stdexcept>

namespace mv2gnc::core {

MsgView MsgView::make(void* base, int count, const mpisim::Datatype& dtype,
                      const gpu::MemoryRegistry& registry) {
  if (count < 0) throw std::invalid_argument("MsgView: negative count");
  if (!dtype.valid()) throw std::invalid_argument("MsgView: null datatype");
  if (!dtype.committed()) {
    throw std::logic_error("MsgView: datatype must be committed: " +
                           dtype.describe());
  }
  MsgView v;
  v.base = base;
  v.count = count;
  v.dtype = dtype;
  v.plan = PlanCache::instance().get(dtype, count);
  v.packed_bytes = v.plan->packed_bytes();
  v.contiguous = dtype.is_contiguous();
  if (auto info = registry.query(base)) {
    v.on_device = true;
    v.device_id = info->device_id;
  }
  return v;
}

}  // namespace mv2gnc::core
