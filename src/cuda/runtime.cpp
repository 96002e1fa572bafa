#include "cuda/runtime.hpp"

#include <algorithm>
#include <cstring>

namespace mv2gnc::cusim {

using gpu::CopyDir;
using gpu::Layout2D;

namespace {

CopyDir dir_of(MemcpyKind kind) {
  switch (kind) {
    case MemcpyKind::kHostToDevice: return CopyDir::kHostToDevice;
    case MemcpyKind::kDeviceToHost: return CopyDir::kDeviceToHost;
    case MemcpyKind::kDeviceToDevice: return CopyDir::kDeviceToDevice;
    case MemcpyKind::kHostToHost: return CopyDir::kHostToHost;
    case MemcpyKind::kDefault: break;
  }
  throw CudaError("unresolved MemcpyKind");
}

const char* kind_name(MemcpyKind kind) {
  switch (kind) {
    case MemcpyKind::kHostToHost: return "HostToHost";
    case MemcpyKind::kHostToDevice: return "HostToDevice";
    case MemcpyKind::kDeviceToHost: return "DeviceToHost";
    case MemcpyKind::kDeviceToDevice: return "DeviceToDevice";
    case MemcpyKind::kDefault: return "Default";
  }
  return "?";
}

}  // namespace

// ---------------------------------------------------------------------------
// Stream / Event
// ---------------------------------------------------------------------------

bool Stream::query() const {
  if (!state_) throw CudaError("query() on null stream");
  return state_->completed >= state_->submitted;
}

void Stream::synchronize() {
  if (!state_) throw CudaError("synchronize() on null stream");
  while (state_->completed < state_->submitted) {
    state_->progress_flag->reset();
    state_->progress_flag->wait("cudaStreamSynchronize");
  }
}

void Stream::set_wakeup(sim::Notifier* n) {
  if (!state_) throw CudaError("set_wakeup() on null stream");
  state_->wakeup = n;
}

sim::SimTime Stream::last_op_done() const {
  if (!state_) throw CudaError("last_op_done() on null stream");
  return state_->last_op_done;
}

std::uint64_t Stream::submitted() const { return state_ ? state_->submitted : 0; }
std::uint64_t Stream::completed() const { return state_ ? state_->completed : 0; }
int Stream::id() const { return state_ ? state_->id : -1; }

bool Event::query() const {
  if (!state_) throw CudaError("query() on null event");
  return state_->completed >= target_seq_;
}

void Event::synchronize() {
  if (!state_) throw CudaError("synchronize() on null event");
  while (state_->completed < target_seq_) {
    state_->progress_flag->reset();
    state_->progress_flag->wait("cudaEventSynchronize");
  }
}

// ---------------------------------------------------------------------------
// CudaContext
// ---------------------------------------------------------------------------

CudaContext::CudaContext(gpu::Device& device)
    : device_(device), engine_(device.engine()) {
  default_stream_ = create_stream();
}

void* CudaContext::malloc(std::size_t bytes) { return device_.allocate(bytes); }

void CudaContext::free(void* ptr) { device_.deallocate(ptr); }

void* CudaContext::malloc_host(std::size_t bytes) {
  if (bytes == 0) bytes = 1;
  auto buf = std::make_unique_for_overwrite<std::byte[]>(bytes);
  void* ptr = buf.get();
  device_.registry().register_pinned_host(ptr, bytes);
  host_allocs_.emplace(ptr, std::move(buf));
  return ptr;
}

void CudaContext::free_host(void* ptr) {
  if (ptr == nullptr) return;
  auto it = host_allocs_.find(ptr);
  if (it == host_allocs_.end()) {
    throw CudaError("cudaFreeHost of pointer not from cudaMallocHost");
  }
  device_.registry().unregister_pinned_host(ptr);
  host_allocs_.erase(it);
}

IpcMemHandle CudaContext::ipc_get_mem_handle(const void* ptr) const {
  gpu::PointerInfo info;
  try {
    info = device_.registry().ipc_export(ptr);
  } catch (const std::invalid_argument& e) {
    throw CudaError(std::string("cudaIpcGetMemHandle: ") + e.what());
  }
  IpcMemHandle h;
  h.device = static_cast<std::uint64_t>(info.device_id);
  h.base = reinterpret_cast<std::uintptr_t>(info.base);
  h.size = info.size;
  h.offset = static_cast<std::uint64_t>(static_cast<const std::byte*>(ptr) -
                                        static_cast<const std::byte*>(info.base));
  return h;
}

void* CudaContext::ipc_open_mem_handle(const IpcMemHandle& handle) {
  void* base = reinterpret_cast<void*>(static_cast<std::uintptr_t>(handle.base));
  const auto info = device_.registry().query(base);
  if (!info || reinterpret_cast<std::uintptr_t>(info->base) != handle.base ||
      info->size != handle.size ||
      static_cast<std::uint64_t>(info->device_id) != handle.device) {
    throw CudaError(
        "cudaIpcOpenMemHandle: handle does not name a live allocation");
  }
  if (handle.offset >= handle.size) {
    throw CudaError("cudaIpcOpenMemHandle: offset outside the allocation");
  }
  void* ptr = static_cast<std::byte*>(base) + handle.offset;
  ++open_ipc_[ptr];
  return ptr;
}

void CudaContext::ipc_close_mem_handle(void* ptr) {
  auto it = open_ipc_.find(ptr);
  if (it == open_ipc_.end()) {
    throw CudaError("cudaIpcCloseMemHandle: pointer was not opened here");
  }
  if (--it->second == 0) open_ipc_.erase(it);
}

bool CudaContext::pinned_side(const void* dst, const void* src,
                              MemcpyKind kind) const {
  switch (kind) {
    case MemcpyKind::kHostToDevice:
      return device_.registry().is_pinned_host(src);
    case MemcpyKind::kDeviceToHost:
      return device_.registry().is_pinned_host(dst);
    default:
      return true;  // no PCIe host side involved
  }
}

void CudaContext::memset(void* dst, int value, std::size_t bytes) {
  auto info = device_.registry().query(dst);
  if (!info || info->device_id != device_.id()) {
    throw CudaError("cudaMemset: destination is not on this device");
  }
  const sim::SimTime dur = device_.cost().copy_time(bytes, CopyDir::kDeviceToDevice);
  submit_to_stream(default_stream_, device_.d2d_engine(), dur,
                   [dst, value, bytes] { std::memset(dst, value, bytes); });
  default_stream_.synchronize();
}

MemcpyKind CudaContext::resolve_kind(const void* dst, const void* src,
                                     MemcpyKind declared,
                                     const char* api) const {
  const bool src_dev = device_.registry().is_device_pointer(src);
  const bool dst_dev = device_.registry().is_device_pointer(dst);
  MemcpyKind actual;
  if (src_dev && dst_dev) actual = MemcpyKind::kDeviceToDevice;
  else if (src_dev) actual = MemcpyKind::kDeviceToHost;
  else if (dst_dev) actual = MemcpyKind::kHostToDevice;
  else actual = MemcpyKind::kHostToHost;
  if (declared != MemcpyKind::kDefault && declared != actual) {
    throw CudaError(std::string(api) + ": declared kind " +
                    kind_name(declared) + " does not match pointers (" +
                    kind_name(actual) + ")");
  }
  return actual;
}

sim::FifoResource& CudaContext::engine_for(MemcpyKind kind) {
  switch (kind) {
    case MemcpyKind::kDeviceToHost: return device_.d2h_engine();
    case MemcpyKind::kHostToDevice: return device_.h2d_engine();
    case MemcpyKind::kDeviceToDevice:
    case MemcpyKind::kHostToHost: return device_.d2d_engine();
    case MemcpyKind::kDefault: break;
  }
  throw CudaError("engine_for: unresolved kind");
}

sim::SimTime CudaContext::submit_to_stream(Stream& stream,
                                           sim::FifoResource& res,
                                           sim::SimTime duration,
                                           std::function<void()> data_move) {
  auto st = stream.state_;
  if (!st) throw CudaError("operation submitted to null stream");
  ++st->submitted;
  st->last_op_done = res.submit_after(
      st->last_op_done, duration, [st, move = std::move(data_move)] {
        if (move) move();
        ++st->completed;
        st->progress_flag->trigger();
        if (st->wakeup != nullptr) st->wakeup->notify();
      });
  return st->last_op_done;
}

void CudaContext::launch_host_trigger(Stream& stream,
                                      std::function<void()> fn) {
  auto st = stream.state_;
  if (!st) throw CudaError("launch_host_trigger on null stream");
  charge_async_submit();
  ++st->submitted;
  st->last_op_done = std::max(engine_.now(), st->last_op_done);
  engine_.schedule_at(st->last_op_done, [st, fn = std::move(fn)] {
    if (fn) fn();
    ++st->completed;
    st->progress_flag->trigger();
    if (st->wakeup != nullptr) st->wakeup->notify();
  });
}

void CudaContext::charge_async_submit() {
  engine_.delay(device_.cost().async_submit_ns);
}

void CudaContext::memcpy(void* dst, const void* src, std::size_t bytes,
                         MemcpyKind kind) {
  ++memcpy_calls_;
  const MemcpyKind actual = resolve_kind(dst, src, kind, "cudaMemcpy");
  const sim::SimTime dur = device_.cost().copy_time(
      bytes, dir_of(actual), pinned_side(dst, src, actual));
  submit_to_stream(default_stream_, engine_for(actual), dur,
                   [dst, src, bytes] { std::memcpy(dst, src, bytes); });
  default_stream_.synchronize();
}

void CudaContext::memcpy_async(void* dst, const void* src, std::size_t bytes,
                               MemcpyKind kind, Stream& stream) {
  const MemcpyKind actual = resolve_kind(dst, src, kind, "cudaMemcpyAsync");
  const sim::SimTime dur = device_.cost().copy_time(
      bytes, dir_of(actual), pinned_side(dst, src, actual));
  charge_async_submit();
  submit_to_stream(stream, engine_for(actual), dur,
                   [dst, src, bytes] { std::memcpy(dst, src, bytes); });
}

namespace {

// The real byte movement of a 2-D copy, deferred to completion time.
std::function<void()> copy2d_mover(void* dst, std::size_t dpitch,
                                   const void* src, std::size_t spitch,
                                   std::size_t width, std::size_t height) {
  return [=] {
    auto* d = static_cast<std::byte*>(dst);
    const auto* s = static_cast<const std::byte*>(src);
    for (std::size_t row = 0; row < height; ++row) {
      std::memcpy(d + row * dpitch, s + row * spitch, width);
    }
  };
}

Layout2D layout_of(std::size_t dpitch, std::size_t spitch, std::size_t width) {
  const bool src_strided = spitch > width;
  const bool dst_strided = dpitch > width;
  if (src_strided && !dst_strided) return Layout2D::kPack;
  if (!src_strided && dst_strided) return Layout2D::kUnpack;
  return Layout2D::kSameLayout;
}

}  // namespace

void CudaContext::memcpy2d(void* dst, std::size_t dpitch, const void* src,
                           std::size_t spitch, std::size_t width,
                           std::size_t height, MemcpyKind kind) {
  ++memcpy2d_calls_;
  if (dpitch < width || spitch < width) {
    throw CudaError("cudaMemcpy2D: pitch smaller than width");
  }
  const MemcpyKind actual = resolve_kind(dst, src, kind, "cudaMemcpy2D");
  const bool rows_contig = (dpitch == width && spitch == width);
  const sim::SimTime dur = device_.cost().copy2d_time(
      width, height, dir_of(actual), layout_of(dpitch, spitch, width),
      rows_contig, pinned_side(dst, src, actual));
  submit_to_stream(default_stream_, engine_for(actual), dur,
                   copy2d_mover(dst, dpitch, src, spitch, width, height));
  default_stream_.synchronize();
}

void CudaContext::memcpy2d_async(void* dst, std::size_t dpitch,
                                 const void* src, std::size_t spitch,
                                 std::size_t width, std::size_t height,
                                 MemcpyKind kind, Stream& stream) {
  if (dpitch < width || spitch < width) {
    throw CudaError("cudaMemcpy2DAsync: pitch smaller than width");
  }
  const MemcpyKind actual = resolve_kind(dst, src, kind, "cudaMemcpy2DAsync");
  const bool rows_contig = (dpitch == width && spitch == width);
  const sim::SimTime dur = device_.cost().copy2d_time(
      width, height, dir_of(actual), layout_of(dpitch, spitch, width),
      rows_contig, pinned_side(dst, src, actual));
  charge_async_submit();
  submit_to_stream(stream, engine_for(actual), dur,
                   copy2d_mover(dst, dpitch, src, spitch, width, height));
}

Stream CudaContext::create_stream() {
  auto st = std::make_shared<detail::StreamState>();
  st->device = &device_;
  st->engine = &engine_;
  st->id = next_stream_id_++;
  st->progress_flag = std::make_unique<sim::EventFlag>(engine_);
  streams_.push_back(st);
  return Stream(st);
}

Event CudaContext::record_event(Stream& stream) {
  if (!stream.state_) throw CudaError("record_event on null stream");
  return Event(stream.state_, stream.state_->submitted);
}

void CudaContext::device_synchronize() {
  for (auto& st : streams_) {
    Stream s(st);
    s.synchronize();
  }
}

void CudaContext::launch_kernel(Stream& stream, std::uint64_t points,
                                bool double_precision,
                                std::function<void()> body) {
  launch_kernel_timed(stream,
                      device_.cost().kernel_time(points, double_precision),
                      std::move(body));
}

void CudaContext::launch_kernel_timed(Stream& stream, sim::SimTime duration,
                                      std::function<void()> body) {
  charge_async_submit();
  submit_to_stream(stream, device_.kernel_engine(), duration, std::move(body));
}

void CudaContext::launch_device_reduce(Stream& stream, std::size_t bytes,
                                       std::function<void()> body) {
  ++reduce_kernel_calls_;
  launch_kernel_timed(stream, device_.cost().reduce_time(bytes),
                      std::move(body));
}

}  // namespace mv2gnc::cusim
