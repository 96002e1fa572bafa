// google-benchmark microbenchmarks of the host datatype engine — the one
// component whose cost is real CPU work rather than simulated time. These
// are the pack/unpack loops the baseline (non-offloaded) path runs on the
// host, so their real throughput is worth tracking.
#include <benchmark/benchmark.h>

#include <array>
#include <memory>
#include <vector>

#include "mpi/datatype.hpp"

using mv2gnc::mpisim::Datatype;

namespace {

Datatype committed(Datatype t) {
  t.commit();
  return t;
}

void BM_PackVector(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  auto t = committed(Datatype::vector(rows, 1, 4, Datatype::float32()));
  std::vector<std::byte> src(static_cast<std::size_t>(t.extent()) + 64);
  std::vector<std::byte> dst(t.size());
  for (auto _ : state) {
    t.pack(src.data(), 1, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PackVector)->Range(256, 1 << 18);

void BM_UnpackVector(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  auto t = committed(Datatype::vector(rows, 1, 4, Datatype::float32()));
  std::vector<std::byte> packed(t.size());
  std::vector<std::byte> dst(static_cast<std::size_t>(t.extent()) + 64);
  for (auto _ : state) {
    t.unpack(packed.data(), 1, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_UnpackVector)->Range(256, 1 << 18);

void BM_PackVectorWideBlocks(benchmark::State& state) {
  // 64-byte blocks: the memcpy-per-segment regime.
  const int rows = static_cast<int>(state.range(0));
  auto t = committed(Datatype::vector(rows, 16, 32, Datatype::float32()));
  std::vector<std::byte> src(static_cast<std::size_t>(t.extent()) + 64);
  std::vector<std::byte> dst(t.size());
  for (auto _ : state) {
    t.pack(src.data(), 1, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PackVectorWideBlocks)->Range(256, 1 << 16);

void BM_PackBytesChunked(benchmark::State& state) {
  // The pipeline's slice operation: pack 64 KB windows of a large vector.
  auto t = committed(Datatype::vector(1 << 18, 1, 4, Datatype::float32()));
  std::vector<std::byte> src(static_cast<std::size_t>(t.extent()) + 64);
  std::vector<std::byte> dst(64 << 10);
  const std::size_t total = t.size();
  std::size_t off = 0;
  for (auto _ : state) {
    const std::size_t n = std::min<std::size_t>(64 << 10, total - off);
    t.pack_bytes(src.data(), 1, off, n, dst.data());
    off += n;
    if (off >= total) off = 0;
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (64 << 10));
}
BENCHMARK(BM_PackBytesChunked);

void BM_PackIndexedIrregular(benchmark::State& state) {
  const std::array<int, 4> lens{3, 1, 4, 2};
  const std::array<int, 4> displs{0, 7, 11, 29};
  auto t = committed(Datatype::indexed(lens, displs, Datatype::int32()));
  const int count = static_cast<int>(state.range(0));
  std::vector<std::byte> src(
      static_cast<std::size_t>(t.extent()) * count + 64);
  std::vector<std::byte> dst(t.size() * static_cast<std::size_t>(count));
  for (auto _ : state) {
    t.pack(src.data(), count, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dst.size()));
}
BENCHMARK(BM_PackIndexedIrregular)->Range(64, 1 << 14);

void BM_TypeCommitVector(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto t = Datatype::vector(rows, 1, 4, Datatype::float32());
    t.commit();
    benchmark::DoNotOptimize(t.blocks().data());
  }
}
BENCHMARK(BM_TypeCommitVector)->Range(256, 1 << 16);

void BM_Subarray3DPack(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::array<int, 3> sizes{n, n, n};
  const std::array<int, 3> subs{n / 2, n / 2, n / 2};
  const std::array<int, 3> starts{n / 4, n / 4, n / 4};
  auto t = committed(Datatype::subarray(sizes, subs, starts,
                                        mv2gnc::mpisim::ArrayOrder::kC,
                                        Datatype::float64()));
  std::vector<std::byte> src(static_cast<std::size_t>(t.extent()) + 64);
  std::vector<std::byte> dst(t.size());
  for (auto _ : state) {
    t.pack(src.data(), 1, dst.data());
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_Subarray3DPack)->Arg(16)->Arg(32)->Arg(64);

}  // namespace

BENCHMARK_MAIN();
