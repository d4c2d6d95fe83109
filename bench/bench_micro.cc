// Kernel micro-benchmarks (google-benchmark) for the numerical substrates
// the experiments run on: dense/sparse products, PPR power iteration,
// k-means, feature encoding, edit distance, the greedy QSelect loop, the
// fixed-shape SGAN training step (steady-state allocation-free path), and
// lane-width cases for the SIMD primitives (exact-multiple and tail
// lengths of the src/la/simd.h kernels).
//
// With GALE_BENCH_JSON_DIR set, per-benchmark times are also written to
// $GALE_BENCH_JSON_DIR/BENCH_micro.json for tools/bench_check.sh (see
// bench_common.h for the record format); console output is unchanged.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "core/query_selector.h"
#include "core/sgan.h"
#include "graph/feature_encoder.h"
#include "graph/synthetic_dataset.h"
#include "la/kmeans.h"
#include "la/matrix.h"
#include "la/simd.h"
#include "la/sparse_matrix.h"
#include "nn/gcn_layer.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace gale {
namespace {

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  la::Matrix a = la::Matrix::RandomNormal(n, n, 1.0, rng);
  la::Matrix b = la::Matrix::RandomNormal(n, n, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.MatMul(b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(64)->Arg(128)->Arg(256);

// The dense products at the shapes of one SGAND epoch on the detect
// workload (5732 rows = real + synthetic + generated, 162 features, 64
// hidden, 24 embedding): D's first-layer forward (A·B), the dL/dinput of
// the 64 -> 24 layer (A·Bᵀ) and the first layer's dW (Aᵀ·B). Args are
// (rows, inner, cols) of the product; the output buffer stays warm.
void BM_MatMulShape(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  util::Rng rng(31);
  const la::Matrix a = la::Matrix::RandomNormal(m, k, 1.0, rng);
  const la::Matrix b = la::Matrix::RandomNormal(k, n, 1.0, rng);
  la::Matrix out;
  for (auto _ : state) {
    a.MatMulInto(b, &out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulShape)->Args({5732, 162, 64});

// A (rows x inner) times Bᵀ for B (cols x inner).
void BM_MatMulTransposedShape(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  util::Rng rng(32);
  const la::Matrix a = la::Matrix::RandomNormal(m, k, 1.0, rng);
  const la::Matrix b = la::Matrix::RandomNormal(n, k, 1.0, rng);
  la::Matrix out;
  for (auto _ : state) {
    a.MatMulTransposedInto(b, &out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_MatMulTransposedShape)->Args({5732, 24, 64});

// Aᵀ (inner x rows) times B (rows x cols): args (rows, inner, cols).
void BM_TransposedMatMulShape(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const size_t n = static_cast<size_t>(state.range(2));
  util::Rng rng(33);
  const la::Matrix a = la::Matrix::RandomNormal(m, k, 1.0, rng);
  const la::Matrix b = la::Matrix::RandomNormal(m, n, 1.0, rng);
  la::Matrix out;
  for (auto _ : state) {
    a.TransposedMatMulInto(b, &out);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * m * k * n);
}
BENCHMARK(BM_TransposedMatMulShape)->Args({5732, 162, 64});

la::SparseMatrix RandomAdjacency(size_t n, size_t edges, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::pair<size_t, size_t>> edge_list;
  edge_list.reserve(edges);
  for (size_t e = 0; e < edges; ++e) {
    edge_list.emplace_back(rng.UniformInt(n), rng.UniformInt(n));
  }
  return la::SparseMatrix::NormalizedAdjacency(n, edge_list);
}

void BM_SpMM(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::SparseMatrix adj = RandomAdjacency(n, n * 3, 2);
  util::Rng rng(3);
  la::Matrix x = la::Matrix::RandomNormal(n, 64, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adj.Multiply(x));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 64);
}
BENCHMARK(BM_SpMM)->Arg(1000)->Arg(4000);

// SpMM at d = 2 into a warm buffer: one label-propagation sweep on a
// two-class selector graph of SP's size.
void BM_SpMMNarrow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::SparseMatrix adj = RandomAdjacency(n, n * 3, 2);
  util::Rng rng(3);
  la::Matrix x = la::Matrix::RandomNormal(n, 2, 1.0, rng);
  la::Matrix out;
  adj.MultiplyInto(x, &out);
  for (auto _ : state) {
    adj.MultiplyInto(x, &out);
    benchmark::DoNotOptimize(out.RowPtr(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 2);
}
BENCHMARK(BM_SpMMNarrow)->Arg(4400);

// SpMV into a warm buffer on BM_SpMMNarrow's graph: one width-1 sweep,
// sixty of which make the PPR row of an incremental store publish.
void BM_SpMV(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::SparseMatrix adj = RandomAdjacency(n, n * 3, 2);
  util::Rng rng(3);
  std::vector<double> x(n);
  for (double& v : x) v = rng.Normal();
  std::vector<double> out(n);
  adj.MultiplyStridedInto(x.data(), 1, 1, out.data());
  for (auto _ : state) {
    adj.MultiplyStridedInto(x.data(), 1, 1, out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz());
}
BENCHMARK(BM_SpMV)->Arg(4400);

void BM_PprRow(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::SparseMatrix adj = RandomAdjacency(n, n * 3, 4);
  prop::PprOptions options;
  options.cache_rows = false;  // measure the power iteration itself
  prop::PprEngine ppr(&adj, options);
  size_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ppr.Row(v));
    v = (v + 7) % n;
  }
}
BENCHMARK(BM_PprRow)->Arg(1000)->Arg(4000);

void BM_KMeans(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng data_rng(5);
  la::Matrix data = la::Matrix::RandomNormal(n, 24, 1.0, data_rng);
  for (auto _ : state) {
    util::Rng rng(6);
    benchmark::DoNotOptimize(la::KMeans(data, {.num_clusters = 20}, rng));
  }
}
BENCHMARK(BM_KMeans)->Arg(1000)->Arg(4000);

// The selector's clustering on the detect workload: 24-wide embeddings,
// k = 40. Args are (points, k).
void BM_KMeansShape(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  util::Rng data_rng(34);
  const la::Matrix data = la::Matrix::RandomNormal(n, 24, 1.0, data_rng);
  for (auto _ : state) {
    util::Rng rng(35);
    benchmark::DoNotOptimize(la::KMeans(data, {.num_clusters = k}, rng));
  }
}
BENCHMARK(BM_KMeansShape)->Args({2500, 40});

void BM_FeatureEncode(benchmark::State& state) {
  graph::SyntheticConfig config;
  config.num_nodes = static_cast<size_t>(state.range(0));
  config.num_edges = config.num_nodes;
  config.seed = 7;
  auto ds = graph::GenerateSynthetic(config);
  graph::FeatureEncoder encoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.Encode(ds.value().graph));
  }
  state.SetItemsProcessed(state.iterations() * config.num_nodes);
}
BENCHMARK(BM_FeatureEncode)->Arg(1000)->Arg(4000);

void BM_EditDistance(benchmark::State& state) {
  const std::string a = "cavanillesia_lepidoptera";
  const std::string b = "cavanillesia_malvales";
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_SganUpdateStep(benchmark::State& state) {
  // One SGAND epoch at a fixed batch shape. The construction + first
  // (warm-up) epoch run outside the timed region, so the loop measures
  // the steady-state path: zero la-buffer allocations per step.
  const size_t d = 32;
  core::SganConfig config;
  config.hidden_dim = 64;
  config.embedding_dim = 32;
  core::Sgan sgan(d, config);
  util::Rng rng(11);
  la::Matrix x_real = la::Matrix::RandomNormal(512, d, 1.0, rng);
  la::Matrix x_syn = la::Matrix::RandomNormal(128, d, 1.0, rng);
  std::vector<int> labels(512, core::kUnlabeled);
  for (size_t r = 0; r < 32; ++r) {
    labels[r] = r % 4 == 0 ? core::kLabelError : core::kLabelCorrect;
  }
  (void)sgan.Update(x_real, labels, x_syn, /*epochs=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sgan.Update(x_real, labels, x_syn, 1));
  }
  state.SetItemsProcessed(state.iterations() * (512 + 2 * 128));
}
BENCHMARK(BM_SganUpdateStep);

void BM_SganUpdateStepSparse(benchmark::State& state) {
  // BM_SganUpdateStep on encoder-shaped features: d = 162 with about two
  // thirds of the entries exact zeros (the bundled datasets' hashed tokens
  // and one-hots), the input D's first layer reads compressed. Each
  // one-epoch Update call also rebuilds that compressed head.
  const size_t d = 162;
  core::SganConfig config;
  config.hidden_dim = 64;
  config.embedding_dim = 32;
  core::Sgan sgan(d, config);
  util::Rng rng(12);
  la::Matrix x_real = la::Matrix::RandomNormal(512, d, 1.0, rng);
  la::Matrix x_syn = la::Matrix::RandomNormal(128, d, 1.0, rng);
  for (la::Matrix* x : {&x_real, &x_syn}) {
    for (double& v : x->data()) {
      if (rng.Uniform() < 2.0 / 3.0) v = 0.0;
    }
  }
  std::vector<int> labels(512, core::kUnlabeled);
  for (size_t r = 0; r < 32; ++r) {
    labels[r] = r % 4 == 0 ? core::kLabelError : core::kLabelCorrect;
  }
  (void)sgan.Update(x_real, labels, x_syn, /*epochs=*/1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sgan.Update(x_real, labels, x_syn, 1));
  }
  state.SetItemsProcessed(state.iterations() * (512 + 2 * 128));
}
BENCHMARK(BM_SganUpdateStepSparse);

// Lane-width cases for the SIMD primitives (src/la/simd.h): each arg is a
// buffer length, with 1024 an exact multiple of every lane width and 1027
// forcing the scalar tail after the vector body. The active ISA is whatever
// the runtime dispatch picked (GALE_SIMD_ISA overrides it); the per-ISA
// sweep lives in bench_simd_scaling.
void BM_SimdAxpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(12);
  la::Matrix x = la::Matrix::RandomNormal(1, n, 1.0, rng);
  la::Matrix y = la::Matrix::RandomNormal(1, n, 1.0, rng);
  for (auto _ : state) {
    la::simd::Axpy(y.RowPtr(0), x.RowPtr(0), 1.0000000001, n);
    benchmark::DoNotOptimize(y.RowPtr(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdAxpy)->Arg(1024)->Arg(1027);

void BM_SimdDot4(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(13);
  la::Matrix a = la::Matrix::RandomNormal(1, n, 1.0, rng);
  la::Matrix b = la::Matrix::RandomNormal(1, n, 1.0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(la::simd::Dot4(a.RowPtr(0), b.RowPtr(0), n));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdDot4)->Arg(1024)->Arg(1027);

void BM_SimdAdamUpdate(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(14);
  la::Matrix p = la::Matrix::RandomNormal(1, n, 1.0, rng);
  la::Matrix m(1, n, 0.0);
  la::Matrix v(1, n, 0.0);
  la::Matrix g = la::Matrix::RandomNormal(1, n, 1.0, rng);
  for (auto _ : state) {
    la::simd::AdamUpdate(p.RowPtr(0), m.RowPtr(0), v.RowPtr(0), g.RowPtr(0),
                         1e-3, 0.9, 0.999, 0.1, 0.001, 1e-8, n);
    benchmark::DoNotOptimize(p.RowPtr(0));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SimdAdamUpdate)->Arg(1024)->Arg(1027);

// GCN forward at a full-batch layer shape: X W, the SpMM, the bias
// broadcast and the in-place relu sweep.
void BM_GcnForward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::SparseMatrix adj = RandomAdjacency(n, n * 3, 21);
  util::Rng rng(22);
  nn::GcnLayer layer(&adj, 64, 32, rng,
                     {.activation = nn::GcnActivation::kRelu});
  la::Matrix x = la::Matrix::RandomNormal(n, 64, 1.0, rng);
  (void)layer.Forward(x, /*training=*/false);  // warm the buffers
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(x, /*training=*/false));
  }
  state.SetItemsProcessed(state.iterations() * adj.nnz() * 32);
}
BENCHMARK(BM_GcnForward)->Arg(4000);

void BM_QSelectGreedy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  la::SparseMatrix adj = RandomAdjacency(n, n * 2, 8);
  util::Rng rng(9);
  la::Matrix embeddings = la::Matrix::RandomNormal(n, 24, 1.0, rng);
  std::vector<int> labels(n, core::kUnlabeled);
  la::Matrix probs(n, 2, 0.5);
  for (auto _ : state) {
    core::QuerySelectorOptions options;
    options.seed = 10;
    core::QuerySelector selector(&adj, options);
    benchmark::DoNotOptimize(selector.Select(embeddings, labels, probs, 10));
  }
}
BENCHMARK(BM_QSelectGreedy)->Arg(500)->Arg(1500);

// Console reporter that tees every finished run into the JSON baseline
// file. google-benchmark's own --benchmark_out is JSON too, but a single
// schema shared with bench_parallel_scaling keeps bench_check.sh trivial.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonTeeReporter(bench::BenchJsonWriter* writer)
      : writer_(writer) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) continue;
      // google-benchmark reports the mean over `iterations` in-process
      // repetitions; close enough to a median for the generous regression
      // tolerance, and recorded under the same field name.
      const double per_iter_ns = run.real_accumulated_time /
                                 static_cast<double>(run.iterations) * 1e9;
      writer_->Record(run.benchmark_name(), util::Parallelism(),
                      static_cast<int>(run.iterations), per_iter_ns);
    }
    ConsoleReporter::ReportRuns(runs);
  }

 private:
  bench::BenchJsonWriter* writer_;
};

}  // namespace
}  // namespace gale

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  gale::bench::BenchJsonWriter writer("BENCH_micro.json");
  gale::JsonTeeReporter reporter(&writer);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
