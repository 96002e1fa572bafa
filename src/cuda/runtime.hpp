// cusim: a CUDA-4.0-shaped runtime over the simulated GPU device.
//
// The subset implemented is exactly what the paper's code paths touch:
// cudaMalloc/cudaFree, cudaMemcpy / cudaMemcpy2D and their Async variants,
// streams (create/query/synchronize), events, memset and kernel launch.
// Semantics follow CUDA where it matters for the protocol:
//   * operations submitted to one stream execute in order;
//   * operations in different streams run concurrently when their engines
//     differ (Fermi: separate D2H and H2D copy engines + compute);
//   * Stream::query() returns true only when all submitted work drained
//     (the cudaStreamQuery()==cudaSuccess idiom from paper Fig. 4(b)).
//
// Data actually moves: the byte transfer is performed when the operation
// completes in virtual time, so anything the receiver observes after a
// completed copy is bit-exact.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "gpu/device.hpp"
#include "sim/engine.hpp"

namespace mv2gnc::cusim {

/// Mirrors cudaMemcpyKind. kDefault infers the direction from the pointer
/// registry (UVA-style), which is what MVAPICH2 relies on.
enum class MemcpyKind {
  kHostToHost,
  kHostToDevice,
  kDeviceToHost,
  kDeviceToDevice,
  kDefault,
};

/// Thrown for API misuse (wrong kind, bad pitch, foreign pointers).
class CudaError : public std::runtime_error {
 public:
  explicit CudaError(const std::string& what) : std::runtime_error(what) {}
};

/// cudaIpcMemHandle_t analogue: an exportable name for (a pointer into) a
/// live device allocation. Plain 64-bit words so a handle can travel in a
/// wire-message payload between co-located ranks.
struct IpcMemHandle {
  std::uint64_t device = 0;  // owning device id
  std::uint64_t base = 0;    // allocation base address
  std::uint64_t size = 0;    // allocation size in bytes
  std::uint64_t offset = 0;  // offset of the exported pointer within it
};

namespace detail {

struct StreamState {
  gpu::Device* device = nullptr;
  sim::Engine* engine = nullptr;
  int id = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  sim::SimTime last_op_done = 0;  // stream-order fence
  std::unique_ptr<sim::EventFlag> progress_flag;
  sim::Notifier* wakeup = nullptr;
};

}  // namespace detail

/// A CUDA stream handle. Copyable; copies refer to the same stream.
class Stream {
 public:
  Stream() = default;

  /// True iff every operation submitted so far has completed
  /// (cudaStreamQuery() == cudaSuccess).
  bool query() const;

  /// Block the calling process until all submitted work completes.
  void synchronize();

  /// Install a Notifier poked on every operation completion. The MPI
  /// progress engine uses this as its unified wake-up source.
  void set_wakeup(sim::Notifier* n);

  /// Completion time of the most recently submitted operation.
  sim::SimTime last_op_done() const;

  std::uint64_t submitted() const;
  std::uint64_t completed() const;
  bool valid() const { return state_ != nullptr; }
  int id() const;

 private:
  friend class CudaContext;
  friend class Event;
  explicit Stream(std::shared_ptr<detail::StreamState> s)
      : state_(std::move(s)) {}
  std::shared_ptr<detail::StreamState> state_;
};

/// A CUDA event: captures the work submitted to a stream at record time.
class Event {
 public:
  Event() = default;

  /// True iff all work submitted before the record() completed.
  bool query() const;

  /// Block the calling process until query() would return true.
  void synchronize();

  bool valid() const { return state_ != nullptr; }

 private:
  friend class CudaContext;
  Event(std::shared_ptr<detail::StreamState> s, std::uint64_t seq)
      : state_(std::move(s)), target_seq_(seq) {}
  std::shared_ptr<detail::StreamState> state_;
  std::uint64_t target_seq_ = 0;
};

/// Per-rank CUDA runtime bound to one device (one GPU per process, as in
/// the paper's experiments).
class CudaContext {
 public:
  explicit CudaContext(gpu::Device& device);

  // -- memory ---------------------------------------------------------
  /// cudaMalloc.
  void* malloc(std::size_t bytes);
  /// cudaFree.
  void free(void* ptr);
  /// cudaMallocHost: page-locked host memory. PCIe copies touching pinned
  /// memory run at full bandwidth; pageable memory pays the driver's
  /// staging penalty.
  void* malloc_host(std::size_t bytes);
  /// cudaFreeHost.
  void free_host(void* ptr);
  /// cudaMemset on device memory (blocking).
  void memset(void* dst, int value, std::size_t bytes);

  // -- copies ---------------------------------------------------------
  /// cudaMemcpy (blocking; synchronizes with prior default-stream work).
  void memcpy(void* dst, const void* src, std::size_t bytes,
              MemcpyKind kind = MemcpyKind::kDefault);
  /// cudaMemcpyAsync into `stream`.
  void memcpy_async(void* dst, const void* src, std::size_t bytes,
                    MemcpyKind kind, Stream& stream);
  /// cudaMemcpy2D (blocking). Copies `height` rows of `width` bytes from
  /// `src` (row stride `spitch`) to `dst` (row stride `dpitch`).
  void memcpy2d(void* dst, std::size_t dpitch, const void* src,
                std::size_t spitch, std::size_t width, std::size_t height,
                MemcpyKind kind = MemcpyKind::kDefault);
  /// cudaMemcpy2DAsync into `stream`.
  void memcpy2d_async(void* dst, std::size_t dpitch, const void* src,
                      std::size_t spitch, std::size_t width,
                      std::size_t height, MemcpyKind kind, Stream& stream);

  // -- CUDA IPC ---------------------------------------------------------
  // The intra-node transport's handshake: a receiver exports a handle for
  // its landing buffer, the co-located sender opens it and peer-copies
  // straight into device memory without staging through the host.

  /// cudaIpcGetMemHandle: export a handle for `ptr` (any pointer inside a
  /// live device allocation; interior pointers keep their offset).
  IpcMemHandle ipc_get_mem_handle(const void* ptr) const;
  /// cudaIpcOpenMemHandle: validate the handle against the live allocation
  /// it names and return the address it designates. Throws CudaError for a
  /// stale handle (the allocation was freed or replaced).
  void* ipc_open_mem_handle(const IpcMemHandle& handle);
  /// cudaIpcCloseMemHandle: release one mapping from ipc_open_mem_handle.
  void ipc_close_mem_handle(void* ptr);
  /// Mappings currently open through this context (leak check for tests).
  std::size_t open_ipc_handles() const { return open_ipc_.size(); }

  // -- streams & events -----------------------------------------------
  /// cudaStreamCreate.
  Stream create_stream();
  /// The default (0) stream; blocking API calls use it.
  Stream& default_stream() { return default_stream_; }
  /// cudaEventRecord: capture `stream`'s submitted work.
  Event record_event(Stream& stream);
  /// cudaDeviceSynchronize: wait for every stream created here.
  void device_synchronize();

  // -- kernels ---------------------------------------------------------
  /// Launch a kernel whose duration is modeled from `points` grid points;
  /// `body` (the real host-side math) executes at completion time.
  void launch_kernel(Stream& stream, std::uint64_t points,
                     bool double_precision, std::function<void()> body);
  /// Launch a kernel with an explicitly modeled duration.
  void launch_kernel_timed(Stream& stream, sim::SimTime duration,
                           std::function<void()> body);
  /// Launch an elementwise device reduction over `bytes` of input, priced
  /// by GpuCostModel::reduce_time; `body` performs the real fold at
  /// completion time. The device-buffer collectives enqueue their per-slice
  /// folds through this so reductions are stream-ordered like any kernel.
  void launch_device_reduce(Stream& stream, std::size_t bytes,
                            std::function<void()> body);

  // -- host callbacks ---------------------------------------------------
  /// cuLaunchHostFunc analogue: enqueue `fn` to run when the stream reaches
  /// this point (all prior submissions drained). `fn` executes in scheduler
  /// context — it must only set flags / poke notifiers, never block.
  void launch_host_trigger(Stream& stream, std::function<void()> fn);

  gpu::Device& device() { return device_; }
  const gpu::Device& device() const { return device_; }

  /// API-call counters (productivity accounting, paper Table I).
  std::uint64_t memcpy_calls() const { return memcpy_calls_; }
  std::uint64_t memcpy2d_calls() const { return memcpy2d_calls_; }
  std::uint64_t reduce_kernel_calls() const { return reduce_kernel_calls_; }
  void reset_call_counters() { memcpy_calls_ = memcpy2d_calls_ = 0; }

 private:
  MemcpyKind resolve_kind(const void* dst, const void* src,
                          MemcpyKind declared, const char* api) const;
  // True when the host-side pointer of a PCIe copy is page-locked.
  bool pinned_side(const void* dst, const void* src, MemcpyKind kind) const;
  sim::FifoResource& engine_for(MemcpyKind kind);
  sim::SimTime submit_to_stream(Stream& stream, sim::FifoResource& res,
                                sim::SimTime duration,
                                std::function<void()> data_move);
  void charge_async_submit();

  gpu::Device& device_;
  sim::Engine& engine_;
  std::vector<std::shared_ptr<detail::StreamState>> streams_;
  Stream default_stream_;
  int next_stream_id_ = 0;
  std::uint64_t memcpy_calls_ = 0;
  std::uint64_t memcpy2d_calls_ = 0;
  std::uint64_t reduce_kernel_calls_ = 0;
  std::unordered_map<void*, std::unique_ptr<std::byte[]>> host_allocs_;
  // Opened-IPC-mapping refcounts, keyed by the mapped pointer.
  std::unordered_map<void*, std::uint64_t> open_ipc_;
};

}  // namespace mv2gnc::cusim
