// Lane-width scaling sweep for the vectorized kernels: the same fixed
// workloads are timed once per instruction set (scalar, then avx2 and
// avx512 when this CPU supports them) at a single thread, with the
// widest tier's speedup against the scalar run of the same binary.
// Because every SIMD kernel is bitwise-identical to its scalar fallback
// (see src/la/simd.h), the sweep measures pure lane-width throughput, not
// numerical shortcuts.
//
// The "SganUpdate 512+128 d32" row is the acceptance-criteria workload:
// its avx2/scalar ratio is the single-thread speedup the SIMD substrate
// is required to deliver (>= 1.5x).
//
// The per-kernel rows below it time one primitive at an SGAN epoch's
// shape (5742 batch rows x hidden_dim 64, the 162 x 64 layer-1 weight) or
// k-means' (8k points x 32 dims, k = 24), looping the call so one timed
// run lasts about a millisecond. They decide which tier's body each
// kernel runs (DESIGN.md section 10).
//
// With GALE_BENCH_JSON_DIR set, per-(workload, isa) medians are also
// written to $GALE_BENCH_JSON_DIR/BENCH_simd_scaling.json for
// tools/bench_check.sh; the ISA is folded into the record name
// ("MatMul 256 [avx2]") and `threads` is always 1.
//
// Usage: bench_simd_scaling [--repeats N]

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/sgan.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/sparse_matrix.h"
#include "obs/stopwatch.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/table_printer.h"

namespace gale {
namespace {

la::SparseMatrix RandomAdjacency(size_t n, size_t edges, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> edge_list;
  edge_list.reserve(edges);
  for (size_t e = 0; e < edges; ++e) {
    edge_list.emplace_back(rng.UniformInt(n), rng.UniformInt(n));
  }
  return la::SparseMatrix::NormalizedAdjacency(n, edge_list);
}

template <typename Fn>
std::vector<double> TimeRepeats(int repeats, Fn fn) {
  std::vector<double> seconds;
  seconds.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    obs::WallTimer timer;
    fn();
    seconds.push_back(timer.ElapsedSeconds());
  }
  return seconds;
}

struct Workload {
  std::string name;
  std::function<void()> run;
};

}  // namespace
}  // namespace gale

int main(int argc, char** argv) {
  using namespace gale;
  int repeats = 3;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--repeats") == 0 && i + 1 < argc) {
      repeats = std::max(1, std::atoi(argv[++i]));
    }
  }

  if (!la::simd::Compiled()) {
    std::printf(
        "bench_simd_scaling: built with GALE_SIMD=OFF, only the scalar "
        "path exists; nothing to sweep\n");
  }

  util::Rng rng(7);
  // Dense GEMM, compute-bound at a cache-friendly size.
  la::Matrix a = la::Matrix::RandomNormal(256, 256, 1.0, rng);
  la::Matrix b = la::Matrix::RandomNormal(256, 256, 1.0, rng);
  // A^T B and A B^T exercise the Axpy4 and Dot4 inner kernels.
  la::Matrix at_out;
  la::Matrix abt_out;
  // SpMM on a 16k-node graph with d=64 features (GCN-layer shape);
  // the CSR gather is the memory-bound end of the sweep.
  la::SparseMatrix adj = RandomAdjacency(16000, 48000, 11);
  la::Matrix x = la::Matrix::RandomNormal(16000, 64, 1.0, rng);
  la::Matrix spmm_out;
  // Fixed-shape SGAN refresh epoch: the acceptance-criteria workload.
  core::SganConfig sgan_config;
  sgan_config.hidden_dim = 64;
  sgan_config.embedding_dim = 32;
  core::Sgan sgan(32, sgan_config);
  la::Matrix sgan_real = la::Matrix::RandomNormal(512, 32, 1.0, rng);
  la::Matrix sgan_syn = la::Matrix::RandomNormal(128, 32, 1.0, rng);
  std::vector<int> sgan_labels(512, core::kUnlabeled);
  for (size_t r = 0; r < 32; ++r) {
    sgan_labels[r] = r % 4 == 0 ? core::kLabelError : core::kLabelCorrect;
  }
  sgan.Update(sgan_real, sgan_labels, sgan_syn, /*epochs=*/1);  // warm-up
  // One SGAN batch's activations and the layer-1 weight's Adam state.
  constexpr size_t kBatchRows = 5742;
  constexpr size_t kHidden = 64;
  const la::Matrix act_in =
      la::Matrix::RandomNormal(kBatchRows, kHidden, 1.0, rng);
  const la::Matrix act_grad =
      la::Matrix::RandomNormal(kBatchRows, kHidden, 1.0, rng);
  la::Matrix act_out(kBatchRows, kHidden);
  // The fused LeakyReLU + dropout layer's keep bits at rate 0.5.
  std::vector<uint64_t> keep_bits((act_in.size() + 63) / 64);
  for (uint64_t& word : keep_bits) word = rng.Next();
  la::Matrix adam_p = la::Matrix::RandomNormal(162, kHidden, 0.1, rng);
  la::Matrix adam_m(162, kHidden);
  la::Matrix adam_v(162, kHidden);
  const la::Matrix adam_g = la::Matrix::RandomNormal(162, kHidden, 0.1, rng);
  la::Matrix bias_row = la::Matrix::RandomNormal(1, kHidden, 1e-3, rng);
  la::Matrix col_sum;
  // k-means' assignment scan: 8k points against three panels of eight
  // centroids (k = 24).
  const la::Matrix km_points = la::Matrix::RandomNormal(8000, 32, 1.0, rng);
  const la::Matrix km_panels =
      la::Matrix::RandomNormal(3, 32 * la::simd::kDistanceLanes, 1.0, rng);
  volatile double dist_sink = 0.0;  // keeps the distance calls live

  std::vector<Workload> workloads;
  workloads.push_back({"MatMul 256", [&] {
                         la::Matrix out = a.MatMul(b);
                         (void)out;
                       }});
  workloads.push_back({"TransposedMatMul 256", [&] {
                         a.TransposedMatMulInto(b, &at_out);
                       }});
  workloads.push_back({"MatMulTransposed 256", [&] {
                         a.MatMulTransposedInto(b, &abt_out);
                       }});
  workloads.push_back({"SpMM 16k x d64", [&] {
                         adj.MultiplyInto(x, &spmm_out);
                       }});
  workloads.push_back({"SganUpdate 512+128 d32", [&] {
                         (void)sgan.Update(sgan_real, sgan_labels, sgan_syn,
                                           /*epochs=*/1);
                       }});
  workloads.push_back({"LeakyReluForward 5742x64 x8", [&] {
                         for (int i = 0; i < 8; ++i) {
                           la::simd::LeakyReluForward(
                               act_out.data().data(), act_in.data().data(),
                               0.2, act_in.size());
                         }
                       }});
  workloads.push_back({"LeakyReluBackward 5742x64 x8", [&] {
                         for (int i = 0; i < 8; ++i) {
                           la::simd::LeakyReluBackward(
                               act_out.data().data(), act_grad.data().data(),
                               act_in.data().data(), 0.2, act_in.size());
                         }
                       }});
  workloads.push_back({"LeakyReluDropoutForward 5742x64 x8", [&] {
                         for (int i = 0; i < 8; ++i) {
                           la::simd::LeakyReluDropoutForward(
                               act_out.data().data(), act_in.data().data(),
                               keep_bits.data(), 0.2, 2.0, act_in.size());
                         }
                       }});
  workloads.push_back({"LeakyReluDropoutBackward 5742x64 x8", [&] {
                         for (int i = 0; i < 8; ++i) {
                           la::simd::LeakyReluDropoutBackward(
                               act_out.data().data(), act_grad.data().data(),
                               act_in.data().data(), keep_bits.data(), 0.2,
                               2.0, act_in.size());
                         }
                       }});
  workloads.push_back({"AdamUpdate 162x64 x64", [&] {
                         for (int i = 0; i < 64; ++i) {
                           la::simd::AdamUpdate(
                               adam_p.data().data(), adam_m.data().data(),
                               adam_v.data().data(), adam_g.data().data(),
                               1e-3, 0.9, 0.999, 0.5, 0.25, 1e-8,
                               adam_p.size());
                         }
                       }});
  workloads.push_back({"DistanceSquared8 8k x 32, k=24", [&] {
                         double dist[la::simd::kDistanceLanes];
                         double sink = 0.0;
                         for (size_t i = 0; i < km_points.rows(); ++i) {
                           for (size_t p = 0; p < km_panels.rows(); ++p) {
                             la::simd::DistanceSquared8(
                                 dist, km_points.RowPtr(i),
                                 km_panels.RowPtr(p), km_points.cols());
                             sink += dist[p];
                           }
                         }
                         dist_sink = sink;
                       }});
  workloads.push_back({"AddRowBroadcast 5742x64 x4", [&] {
                         for (int i = 0; i < 4; ++i) {
                           act_out.AddRowBroadcast(bias_row);
                         }
                       }});
  workloads.push_back({"ColSumInto 5742x64 x4", [&] {
                         for (int i = 0; i < 4; ++i) {
                           act_in.ColSumInto(&col_sum);
                         }
                       }});

  const std::vector<la::simd::Isa> isas = la::simd::SupportedIsas();
  std::vector<std::string> header = {"kernel"};
  for (la::simd::Isa isa : isas) {
    header.push_back(std::string(la::simd::IsaName(isa)) + " (ms)");
  }
  header.push_back("speedup");
  util::TablePrinter table(header);
  bench::BenchJsonWriter json("BENCH_simd_scaling.json");

  // The whole sweep runs single-threaded: lane-width scaling is a per-core
  // property and the thread sweep already lives in bench_parallel_scaling.
  util::ScopedParallelism serial(1);

  for (Workload& w : workloads) {
    std::vector<std::string> row = {w.name};
    double scalar_ms = 0.0;
    double best_ms = 0.0;
    for (la::simd::Isa isa : isas) {
      la::simd::ScopedIsaOverride override(isa);
      const std::vector<double> seconds = TimeRepeats(repeats, w.run);
      const double ms =
          *std::min_element(seconds.begin(), seconds.end()) * 1e3;
      json.Record(w.name + " [" + la::simd::IsaName(isa) + "]", 1, repeats,
                  bench::Median(seconds) * 1e9);
      if (isa == la::simd::Isa::kScalar) scalar_ms = ms;
      best_ms = ms;  // isas is ordered scalar -> widest
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", ms);
      row.push_back(buf);
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2fx", scalar_ms / best_ms);
    row.push_back(buf);
    table.AddRow(row);
  }
  table.Print(std::cout);
  std::printf("active isa without override: %s\n",
              la::simd::IsaName(la::simd::ActiveIsa()));
  return 0;
}
