// halo3d: 3-D halo exchange with subarray datatypes on GPU memory.
//
// Goes beyond the paper's vector types: each rank owns a 3-D brick in
// device memory, and its face halos are described with
// MPI_Type_create_subarray-style datatypes (this example exchanges the
// Z faces). No face is contiguous, since every interior row skips the
// halo cells. Their pack plans:
//   * Z face (dim 0): 48 rows of 64 doubles, one uniform 2-D pattern
//     (kSingleVector, 48 rows), packed by one cudaMemcpy2D;
//   * Y face (dim 1): one row of 64 doubles in each of 32 planes, also
//     kSingleVector (32 rows);
//   * X face (dim 2): a column of 48 doubles in each of 32 planes, a 3-D
//     block the plan splits into 32 sub-patterns of 48 rows
//     (kSubPatterned), packed by one cudaMemcpy2D per plane.
//
// Build & run:  ./examples/halo3d
#include <array>
#include <cstdio>
#include <numeric>
#include <vector>

#include "mpi/cluster.hpp"

using namespace mv2gnc;
using mpisim::ArrayOrder;
using mpisim::Datatype;

namespace {

// Local brick: (NZ+2) x (NY+2) x (NX+2) doubles, C order (x fastest).
constexpr int kNx = 64, kNy = 48, kNz = 32;
constexpr std::array<int, 3> kSizes{kNz + 2, kNy + 2, kNx + 2};

Datatype face(int dim, int index) {
  // Interior-sized face at the given index along `dim`.
  std::array<int, 3> subsizes{kNz, kNy, kNx};
  std::array<int, 3> starts{1, 1, 1};
  subsizes[dim] = 1;
  starts[dim] = index;
  auto t = Datatype::subarray(kSizes, subsizes, starts, ArrayOrder::kC,
                              Datatype::float64());
  t.commit();
  return t;
}

}  // namespace

int main() {
  // 1-D decomposition along Z across 4 ranks (periodic ring).
  mpisim::Cluster cluster(mpisim::ClusterConfig{.ranks = 4});
  cluster.run([](mpisim::Context& ctx) {
    const std::size_t cells = static_cast<std::size_t>(kSizes[0]) *
                              kSizes[1] * kSizes[2];
    auto* brick = static_cast<double*>(
        ctx.cuda->malloc(cells * sizeof(double)));
    std::vector<double> host(cells, 0.0);
    for (std::size_t i = 0; i < cells; ++i) {
      host[i] = ctx.rank * 1000.0 + static_cast<double>(i % 997);
    }
    ctx.cuda->memcpy(brick, host.data(), cells * sizeof(double));

    const int up = (ctx.rank + 1) % ctx.size;
    const int down = (ctx.rank + ctx.size - 1) % ctx.size;

    // Send my top interior Z-plane up; receive my bottom halo from below.
    auto send_face = face(0, kNz);   // interior plane: strided subarray
    auto recv_face = face(0, 0);     // halo plane
    const double t0 = ctx.comm.wtime();
    mpisim::Request r =
        ctx.comm.irecv(brick, 1, recv_face, down, 7);
    ctx.comm.send(brick, 1, send_face, up, 7);
    ctx.comm.wait(r);
    const double ms = (ctx.comm.wtime() - t0) * 1e3;

    // Verify: my bottom halo must hold `down`'s top interior plane.
    ctx.cuda->memcpy(host.data(), brick, cells * sizeof(double));
    const std::size_t plane = static_cast<std::size_t>(kSizes[1]) * kSizes[2];
    bool ok = true;
    for (int y = 1; y <= kNy && ok; ++y) {
      for (int x = 1; x <= kNx && ok; ++x) {
        const std::size_t halo_idx =
            0 * plane + static_cast<std::size_t>(y) * kSizes[2] + x;
        const std::size_t src_idx =
            static_cast<std::size_t>(kNz) * plane +
            static_cast<std::size_t>(y) * kSizes[2] + x;
        const double expect = down * 1000.0 + static_cast<double>(src_idx % 997);
        if (host[halo_idx] != expect) ok = false;
      }
    }
    std::printf("[rank %d] Z-face halo exchange (%d x %d doubles) in "
                "%.2f ms: %s\n",
                ctx.rank, kNy, kNx, ms, ok ? "verified" : "CORRUPT");
    ctx.cuda->free(brick);
  });
  return 0;
}
