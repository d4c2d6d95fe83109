// The SIMD substrate's whole contract is that it changes nothing but
// time: every vectorized kernel must be bitwise identical to the scalar
// fallback, at every thread count, on every ISA the machine can run,
// including non-multiple-of-lane-width tails and the *Into workspace
// forms. This test pins that by re-running each kernel under
// simd::ScopedIsaOverride and comparing raw doubles (ASSERT_EQ, never
// AllClose). The scalar results are the reference — the same numbers a
// GALE_SIMD=OFF build produces (tools/check_all.sh's simdoff leg keeps
// that build green). Run both plain and as the _mt4 ctest entry
// (GALE_NUM_THREADS=4) so the lane argument composes with the thread
// sharding one.

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "la/matrix.h"
#include "la/simd.h"
#include "la/sparse_matrix.h"
#include "nn/activations.h"
#include "nn/adam.h"
#include "prop/ppr.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace gale {
namespace {

using la::simd::Isa;

constexpr int kThreadCounts[] = {1, 4};
constexpr double kPoison = -777.25;  // exactly representable

la::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  util::Rng rng(seed);
  return la::Matrix::RandomNormal(rows, cols, 1.0, rng);
}

// A matrix with sign structure (positives, negatives, exact zeros) so the
// piecewise activations exercise every branch.
la::Matrix SignedMatrix(size_t rows, size_t cols, uint64_t seed) {
  la::Matrix m = RandomMatrix(rows, cols, seed);
  for (size_t i = 0; i < m.data().size(); ++i) {
    if (i % 7 == 0) m.data()[i] = 0.0;
    if (i % 11 == 0) m.data()[i] = -0.0;
  }
  return m;
}

// Raw-bit comparison: unlike ==, it tells -0.0 from +0.0.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void ExpectBitwiseEqual(const la::Matrix& expect, const la::Matrix& got,
                        const char* what, Isa isa) {
  ASSERT_EQ(expect.rows(), got.rows()) << what;
  ASSERT_EQ(expect.cols(), got.cols()) << what;
  for (size_t i = 0; i < expect.data().size(); ++i) {
    ASSERT_TRUE(SameBits(expect.data()[i], got.data()[i]))
        << what << ": element " << i << " differs on "
        << la::simd::IsaName(isa) << " (" << expect.data()[i] << " vs "
        << got.data()[i] << ")";
  }
}

// Runs `compute` under the scalar ISA, then under every vector ISA, at 1
// and 4 threads, and demands bitwise identity with the scalar result.
template <typename Fn>
void ExpectIsaInvariant(Fn compute, const char* what) {
  for (int threads : kThreadCounts) {
    util::ScopedParallelism p(threads);
    la::Matrix reference;
    {
      la::simd::ScopedIsaOverride pin(Isa::kScalar);
      reference = compute();
    }
    for (Isa isa : la::simd::SupportedIsas()) {
      la::simd::ScopedIsaOverride pin(isa);
      const la::Matrix got = compute();
      ExpectBitwiseEqual(reference, got, what, isa);
    }
  }
}

// --- raw primitives, every tail length -------------------------------------

std::vector<double> RandomVec(size_t n, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.Normal(0.0, 1.0);
  return v;
}

// The primitives' buffers for one run: each holds its n live doubles
// between kGuard NaN sentinels on either side (one AVX-512 register's
// worth), so a masked tail that stores past its n elements, or before
// them, changes a sentinel.
class GuardedBuffers {
 public:
  static constexpr size_t kGuard = 8;
  static constexpr uint64_t kSentinelBits = 0x7ff8dead0000beefull;

  // A buffer whose live part is a copy of `live`.
  double* Put(const std::vector<double>& live) {
    std::vector<double> buf(kGuard, Sentinel());
    buf.insert(buf.end(), live.begin(), live.end());
    buf.insert(buf.end(), kGuard, Sentinel());
    bufs_.push_back(std::move(buf));
    return bufs_.back().data() + kGuard;
  }
  double* Random(size_t n, uint64_t seed) { return Put(RandomVec(n, seed)); }
  double* Zeros(size_t n) { return Put(std::vector<double>(n)); }

  // True when every sentinel of every buffer still has its bits.
  bool SentinelsIntact() const {
    for (const std::vector<double>& buf : bufs_) {
      for (size_t i = 0; i < kGuard; ++i) {
        if (!IsSentinel(buf[i]) || !IsSentinel(buf[buf.size() - 1 - i])) {
          return false;
        }
      }
    }
    return true;
  }

 private:
  static double Sentinel() { return std::bit_cast<double>(kSentinelBits); }
  static bool IsSentinel(double v) {
    return std::bit_cast<uint64_t>(v) == kSentinelBits;
  }

  std::vector<std::vector<double>> bufs_;
};

// The live elements of several outputs, one after the other.
std::vector<double> Concat(
    std::initializer_list<std::pair<const double*, size_t>> parts) {
  std::vector<double> out;
  for (const auto& [p, n] : parts) out.insert(out.end(), p, p + n);
  return out;
}

// Runs one primitive at n = 0..17 and 257, so every tail remainder (0..7
// against the widest, 8-lane path) and the empty sweep are covered, with
// its buffers from a fresh GuardedBuffers per run. Every tier in
// SupportedIsas() must leave the sentinels untouched and reproduce the
// scalar run's bits.
template <typename Fn>
void CheckPrimitiveAllTails(Fn run_and_flatten, const char* what) {
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u,
                   13u, 14u, 15u, 16u, 17u, 257u}) {
    std::vector<double> reference;
    {
      la::simd::ScopedIsaOverride pin(Isa::kScalar);
      GuardedBuffers g;
      reference = run_and_flatten(n, g);
      ASSERT_TRUE(g.SentinelsIntact()) << what << ": n=" << n << " on scalar";
    }
    for (Isa isa : la::simd::SupportedIsas()) {
      la::simd::ScopedIsaOverride pin(isa);
      GuardedBuffers g;
      const std::vector<double> got = run_and_flatten(n, g);
      ASSERT_TRUE(g.SentinelsIntact())
          << what << ": n=" << n << " wrote outside its buffer on "
          << la::simd::IsaName(isa);
      ASSERT_EQ(reference.size(), got.size()) << what;
      for (size_t i = 0; i < reference.size(); ++i) {
        ASSERT_TRUE(SameBits(reference[i], got[i]))
            << what << ": n=" << n << " element " << i << " differs on "
            << la::simd::IsaName(isa);
      }
    }
  }
}

TEST(SimdEquivalenceTest, PrimitivesAllTails) {
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        double* out = g.Random(n, 1);
        la::simd::Axpy(out, g.Random(n, 2), 1.7, n);
        return Concat({{out, n}});
      },
      "Axpy");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        double* out = g.Random(n, 3);
        la::simd::Axpy4(out, g.Random(n, 4), g.Random(n, 5), g.Random(n, 6),
                        g.Random(n, 7), 0.3, -1.1, 2.7, -0.2, n);
        return Concat({{out, n}});
      },
      "Axpy4");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        // k-groups of three, two and four terms and one of one, then the
        // ragged indices 13 and 14 past aligned = 12.
        const std::vector<uint32_t> idx = {0, 1, 3, 5, 6, 8, 9, 10, 11, 13, 14};
        const std::vector<double> vals = RandomVec(idx.size(), 30);
        const double* x = g.Random(15 * n, 31);
        double* out = g.Random(n, 32);
        la::simd::GroupedAxpyLine(out, x, n, idx.data(), vals.data(), 0,
                                  idx.size(), 12);
        la::simd::GroupedAxpyLine(out, x, n, idx.data(), vals.data(), 4, 9,
                                  12);
        return Concat({{out, n}});
      },
      "GroupedAxpyLine");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        return std::vector<double>{
            la::simd::Dot4(g.Random(n, 8), g.Random(n, 9), n)};
      },
      "Dot4");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        const double* a = g.Random(n, 10);
        const double* b = g.Random(n, 11);
        double* out = g.Zeros(n);
        la::simd::Add(out, a, b, n);
        la::simd::Sub(out, out, a, n);
        la::simd::Scale(out, out, -0.37, n);
        la::simd::Add(out, out, a, n);
        la::simd::Sub(out, out, b, n);
        la::simd::Mul(out, out, a, n);
        la::simd::Mul(out, out, b, n);
        la::simd::Scale(out, out, 1.13, n);
        return Concat({{out, n}});
      },
      "elementwise family");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        // Three rows of n columns: every row's tail is a ragged one.
        constexpr size_t kRows = 3;
        double* m = g.Random(kRows * n, 20);
        double* acc = g.Random(n, 22);
        la::simd::AddRowBroadcast(m, g.Random(n, 21), kRows, n);
        la::simd::AddColSum(acc, m, kRows, n);
        return Concat({{m, kRows * n}, {acc, n}});
      },
      "row broadcast / column sum");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        std::vector<double> live = RandomVec(n, 12);
        if (n > 0) live[0] = -0.0;  // signed-zero edge
        const double* in = g.Put(live);
        const double* grad = g.Random(n, 13);
        double* relu = g.Zeros(n);
        double* relu_grad = g.Zeros(n);
        double* leaky = g.Zeros(n);
        double* leaky_grad = g.Zeros(n);
        la::simd::ReluForward(relu, in, n);
        la::simd::ReluBackward(relu_grad, grad, in, n);
        la::simd::LeakyReluForward(leaky, in, 0.2, n);
        la::simd::LeakyReluBackward(leaky_grad, grad, in, 0.2, n);
        return Concat({{relu, n}, {relu_grad, n}, {leaky, n}, {leaky_grad, n}});
      },
      "relu family");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        // Random keep bits over edge inputs (signed zeros, NaN, a
        // subnormal) and a NaN gradient.
        util::Rng bits_rng(25);
        std::vector<uint64_t> keep((n + 63) / 64);
        for (uint64_t& word : keep) word = bits_rng.Next();
        std::vector<double> live = RandomVec(n, 26);
        std::vector<double> grad_live = RandomVec(n, 27);
        const double nan = std::numeric_limits<double>::quiet_NaN();
        const double edge[] = {-0.0, 0.0, nan, -1e-310};
        for (size_t i = 0; i < n && i < 4; ++i) live[i] = edge[i];
        if (n > 5) grad_live[5] = nan;
        const double* in = g.Put(live);
        const double* grad = g.Put(grad_live);
        double* out = g.Zeros(n);
        double* out_grad = g.Zeros(n);
        la::simd::LeakyReluDropoutForward(out, in, keep.data(), 0.2, 1.25, n);
        la::simd::LeakyReluDropoutBackward(out_grad, grad, in, keep.data(),
                                           0.2, 1.25, n);
        return Concat({{out, n}, {out_grad, n}});
      },
      "LeakyReluDropout");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        const double* grad = g.Random(n, 14);
        std::vector<double> s = RandomVec(n, 15);
        for (double& v : s) v = 1.0 / (1.0 + std::exp(-v));
        const double* sig = g.Put(s);
        double* sig_grad = g.Zeros(n);
        double* tanh_grad = g.Zeros(n);
        la::simd::SigmoidBackward(sig_grad, grad, sig, n);
        la::simd::TanhBackward(tanh_grad, grad, sig, n);
        return Concat({{sig_grad, n}, {tanh_grad, n}});
      },
      "sigmoid/tanh backward");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        double* p = g.Random(n, 16);
        double* m = g.Random(n, 17);
        std::vector<double> v2 = RandomVec(n, 18);
        for (double& x : v2) x = x * x;  // second moments are non-negative
        double* v = g.Put(v2);
        la::simd::AdamUpdate(p, m, v, g.Random(n, 19), 1e-3, 0.9, 0.999, 0.1,
                             0.01, 1e-8, n);
        return Concat({{p, n}, {m, n}, {v, n}});
      },
      "AdamUpdate");
  CheckPrimitiveAllTails(
      [](size_t n, GuardedBuffers& g) {
        // d = n coordinates against one panel of eight centroids.
        double* out = g.Zeros(la::simd::kDistanceLanes);
        la::simd::DistanceSquared8(
            out, g.Random(n, 23),
            g.Random(n * la::simd::kDistanceLanes, 24), n);
        return Concat({{out, la::simd::kDistanceLanes}});
      },
      "DistanceSquared8");
}

TEST(SimdEquivalenceTest, GroupedLineWidths) {
  // The widths a tier keeps in registers (up to eight whole registers:
  // n % 8 == 0 up to 64 on AVX-512, n % 4 == 0 up to 32 on AVX2) and
  // ragged ones that fold through memory. The line mixes k-groups of
  // every term count with ragged indices past aligned = 40, and a second
  // call adds onto the first's result the way the panelled Aᵀ·B does.
  const std::vector<uint32_t> idx = {0,  1,  2,  3,  5,  6,  9,  12, 13, 14,
                                     16, 19, 20, 21, 22, 23, 26, 27, 28, 31,
                                     33, 34, 36, 37, 38, 39, 40, 42, 43};
  const std::vector<double> vals = RandomVec(idx.size(), 40);
  for (size_t n : {4u, 8u, 12u, 16u, 20u, 24u, 28u, 32u, 40u, 48u, 56u, 64u,
                   3u, 62u, 65u, 70u}) {
    const std::vector<double> x = RandomVec(44 * n, 41 + n);
    std::vector<double> reference;
    for (Isa isa : la::simd::SupportedIsas()) {
      la::simd::ScopedIsaOverride pin(isa);
      std::vector<double> out = RandomVec(n, 42);
      la::simd::GroupedAxpyLine(out.data(), x.data(), n, idx.data(),
                                vals.data(), 0, 12, 40);
      la::simd::GroupedAxpyLine(out.data(), x.data(), n, idx.data(),
                                vals.data(), 12, idx.size(), 40);
      if (isa == Isa::kScalar) {
        reference = out;
        continue;
      }
      ASSERT_EQ(0, std::memcmp(reference.data(), out.data(),
                               n * sizeof(double)))
          << "n=" << n << " on " << la::simd::IsaName(isa);
    }
  }
}

// --- dense kernels ---------------------------------------------------------

TEST(SimdEquivalenceTest, MatMulFamily) {
  // 33/77/91 are not lane multiples, so every inner sweep has a tail.
  const la::Matrix a = RandomMatrix(45, 77, 21);
  const la::Matrix b = RandomMatrix(77, 91, 22);
  const la::Matrix c = RandomMatrix(45, 33, 23);
  const la::Matrix d = RandomMatrix(53, 77, 24);
  ExpectIsaInvariant([&] { return a.MatMul(b); }, "MatMul");
  ExpectIsaInvariant([&] { return a.TransposedMatMul(c); },
                     "TransposedMatMul");
  ExpectIsaInvariant([&] { return a.MatMulTransposed(d); },
                     "MatMulTransposed");
}

TEST(SimdEquivalenceTest, MatMulIntoWarmBuffers) {
  const la::Matrix a = RandomMatrix(31, 53, 25);
  const la::Matrix b = RandomMatrix(53, 27, 26);
  ExpectIsaInvariant(
      [&] {
        // Dirty warm buffer of a different prior shape, like a workspace
        // checkout mid-training.
        la::Matrix out(b.cols() + 3, a.rows() + 2);
        out.Fill(kPoison);
        a.MatMulInto(b, &out);
        return out;
      },
      "MatMulInto(warm)");
  const la::Matrix c = RandomMatrix(31, 27, 46);  // A^T C needs rows == 31
  ExpectIsaInvariant(
      [&] {
        la::Matrix out(a.cols(), c.cols());
        out.Fill(0.25);
        a.TransposedMatMulInto(c, &out, /*accumulate=*/true);
        return out;
      },
      "TransposedMatMulInto(accumulate)");
}

// --- register tiles --------------------------------------------------------

// Operands carrying the IEEE edge cases a reordered sum would expose:
// ±0.0, subnormals, and tiny normals whose products are subnormal.
la::Matrix EdgeMatrix(size_t rows, size_t cols, uint64_t seed) {
  la::Matrix m = RandomMatrix(rows, cols, seed);
  for (size_t i = 0; i < m.size(); ++i) {
    double& v = m.data()[i];
    if (i % 7 == 3) v = 0.0;
    if (i % 11 == 5) v = -0.0;
    if (i % 13 == 6) v = i % 2 == 0 ? 0x1p-1060 : -0x1p-1060;
    if (i % 17 == 8) v *= 0x1p-520;
  }
  return m;
}

// out + A·B element by element, in MatMul's tree: one Axpy4 term
// ((a0·b0 + a1·b1) + a2·b2) + a3·b3 per k-group, then one Axpy term per
// leftover k. Independent of the tiles and the row sweeps.
la::Matrix ReferenceMatMul(const la::Matrix& a, const la::Matrix& b,
                           la::Matrix out) {
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = out.At(i, j);
      size_t k = 0;
      for (; k + 4 <= a.cols(); k += 4) {
        acc += a.At(i, k) * b.At(k, j) + a.At(i, k + 1) * b.At(k + 1, j) +
               a.At(i, k + 2) * b.At(k + 2, j) +
               a.At(i, k + 3) * b.At(k + 3, j);
      }
      for (; k < a.cols(); ++k) acc += a.At(i, k) * b.At(k, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

// A·Bᵀ element by element in Dot4's tree: four accumulators over the
// k ≡ l (mod 4) terms, the tail into acc0, combine (acc0+acc1)+(acc2+acc3).
la::Matrix ReferenceMatMulTransposed(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix out(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.rows(); ++j) {
      double acc[4] = {0.0, 0.0, 0.0, 0.0};
      size_t k = 0;
      for (; k + 4 <= a.cols(); k += 4) {
        for (size_t l = 0; l < 4; ++l) {
          acc[l] += a.At(i, k + l) * b.At(j, k + l);
        }
      }
      for (; k < a.cols(); ++k) acc[0] += a.At(i, k) * b.At(j, k);
      out.At(i, j) = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    }
  }
  return out;
}

TEST(SimdEquivalenceTest, RegisterTilesRaggedShapes) {
  // Rows around the 4-row (A·B) and 2-row (A·Bᵀ) tile heights, columns
  // around the 8- and 4-wide tile widths, inner lengths around the k-group
  // of four, and one past the AVX-512 A·Bᵀ panel depth (256), which runs
  // the 2 x 4 tiles; every ISA and thread count must reproduce the
  // reference bits.
  uint64_t seed = 100;
  for (size_t rows : {1u, 3u, 4u, 5u, 9u}) {
    for (size_t n : {1u, 3u, 7u, 8u, 9u, 24u, 64u, 162u}) {
      for (size_t k : {1u, 3u, 4u, 5u, 162u, 257u}) {
        const la::Matrix a = EdgeMatrix(rows, k, ++seed);
        const la::Matrix b = EdgeMatrix(k, n, ++seed);
        const la::Matrix bt = EdgeMatrix(n, k, ++seed);
        const la::Matrix init = EdgeMatrix(rows, n, ++seed);
        const la::Matrix mm = ReferenceMatMul(a, b, la::Matrix(rows, n));
        const la::Matrix mm_acc = ReferenceMatMul(a, b, init);
        const la::Matrix mt = ReferenceMatMulTransposed(a, bt);
        SCOPED_TRACE(::testing::Message()
                     << "rows=" << rows << " n=" << n << " k=" << k);
        for (int threads : kThreadCounts) {
          util::ScopedParallelism p(threads);
          for (Isa isa : la::simd::SupportedIsas()) {
            la::simd::ScopedIsaOverride pin(isa);
            ExpectBitwiseEqual(mm, a.MatMul(b), "MatMul tile", isa);
            la::Matrix acc = init;
            a.MatMulInto(b, &acc, /*accumulate=*/true);
            ExpectBitwiseEqual(mm_acc, acc, "MatMulInto(accumulate) tile",
                               isa);
            ExpectBitwiseEqual(mt, a.MatMulTransposed(bt),
                               "MatMulTransposed tile", isa);
          }
        }
      }
    }
  }
}

// out + Aᵀ·B element by element, in TransposedMatMul's tree: one Axpy4
// term per group of four source rows in ascending order, then one Axpy
// term per leftover row.
la::Matrix ReferenceTransposedMatMul(const la::Matrix& a, const la::Matrix& b,
                                     la::Matrix out) {
  for (size_t i = 0; i < a.cols(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = out.At(i, j);
      size_t r = 0;
      for (; r + 4 <= a.rows(); r += 4) {
        acc += a.At(r, i) * b.At(r, j) + a.At(r + 1, i) * b.At(r + 1, j) +
               a.At(r + 2, i) * b.At(r + 2, j) +
               a.At(r + 3, i) * b.At(r + 3, j);
      }
      for (; r < a.rows(); ++r) acc += a.At(r, i) * b.At(r, j);
      out.At(i, j) = acc;
    }
  }
  return out;
}

TEST(SimdEquivalenceTest, TransposedTilesRaggedShapes) {
  // Output rows around the 4-row tile height, columns around the 8- and
  // 16-wide tile widths and under 8 (masked), and source row counts with
  // and without leftovers, on both sides of a 128-row tile pass.
  uint64_t seed = 500;
  for (size_t out_rows : {1u, 3u, 4u, 5u, 9u, 64u}) {
    for (size_t n : {1u, 3u, 8u, 9u, 24u, 64u}) {
      for (size_t k : {1u, 3u, 4u, 5u, 130u, 262u}) {
        const la::Matrix a = EdgeMatrix(k, out_rows, ++seed);
        const la::Matrix b = EdgeMatrix(k, n, ++seed);
        const la::Matrix init = EdgeMatrix(out_rows, n, ++seed);
        const la::Matrix fresh =
            ReferenceTransposedMatMul(a, b, la::Matrix(out_rows, n));
        const la::Matrix acc_expect = ReferenceTransposedMatMul(a, b, init);
        SCOPED_TRACE(::testing::Message()
                     << "out_rows=" << out_rows << " n=" << n << " k=" << k);
        for (int threads : kThreadCounts) {
          util::ScopedParallelism p(threads);
          for (Isa isa : la::simd::SupportedIsas()) {
            la::simd::ScopedIsaOverride pin(isa);
            ExpectBitwiseEqual(fresh, a.TransposedMatMul(b),
                               "TransposedMatMul tile", isa);
            la::Matrix acc = init;
            a.TransposedMatMulInto(b, &acc, /*accumulate=*/true);
            ExpectBitwiseEqual(acc_expect, acc,
                               "TransposedMatMulInto(accumulate) tile", isa);
          }
        }
      }
    }
  }
}

TEST(SimdEquivalenceTest, DistanceLanesMatchRowDistance) {
  // Every lane of DistanceSquared8 is RowDistanceSquared's serial chain.
  for (size_t d : {1u, 3u, 24u, 162u}) {
    const la::Matrix point = EdgeMatrix(1, d, 300 + d);
    const la::Matrix centroids = EdgeMatrix(la::simd::kDistanceLanes, d,
                                            400 + d);
    std::vector<double> panel(d * la::simd::kDistanceLanes);
    for (size_t l = 0; l < la::simd::kDistanceLanes; ++l) {
      for (size_t c = 0; c < d; ++c) {
        panel[c * la::simd::kDistanceLanes + l] = centroids.At(l, c);
      }
    }
    for (Isa isa : la::simd::SupportedIsas()) {
      la::simd::ScopedIsaOverride pin(isa);
      double dist[la::simd::kDistanceLanes];
      la::simd::DistanceSquared8(dist, point.RowPtr(0), panel.data(), d);
      for (size_t l = 0; l < la::simd::kDistanceLanes; ++l) {
        EXPECT_TRUE(
            SameBits(dist[l], point.RowDistanceSquared(0, centroids, l)))
            << "d=" << d << " lane " << l << " on " << la::simd::IsaName(isa);
      }
    }
  }
}

TEST(SimdEquivalenceTest, ElementwiseFamily) {
  const la::Matrix a = RandomMatrix(19, 37, 27);
  const la::Matrix b = RandomMatrix(19, 37, 28);
  const la::Matrix row = RandomMatrix(1, 37, 29);
  ExpectIsaInvariant(
      [&] {
        la::Matrix m = a;
        m += b;
        m -= a;
        m *= -1.7;
        m.ElementwiseMul(b);
        m.AddRowBroadcast(row);
        return m;
      },
      "in-place elementwise");
  ExpectIsaInvariant(
      [&] {
        la::Matrix sum;
        la::Matrix diff;
        la::Matrix scaled;
        a.AddInto(b, &sum);
        a.SubInto(b, &diff);
        a.ScaleInto(0.77, &scaled);
        sum.ElementwiseMul(diff);
        sum += scaled;
        return sum;
      },
      "*Into elementwise");
  ExpectIsaInvariant(
      [&] {
        la::Matrix acc(1, a.cols());
        acc.Fill(0.5);
        a.ColSumInto(&acc, /*accumulate=*/true);
        la::Matrix plain = a.ColSum();
        acc += plain;
        return acc;
      },
      "ColSum / ColSumInto(accumulate)");
}

// --- sparse kernels --------------------------------------------------------

std::vector<std::pair<size_t, size_t>> RingWithChords(size_t n) {
  std::vector<std::pair<size_t, size_t>> edges;
  for (size_t i = 0; i < n; ++i) {
    edges.emplace_back(i, (i + 1) % n);
    if (i % 3 == 0) edges.emplace_back(i, (i + n / 2) % n);
  }
  return edges;
}

TEST(SimdEquivalenceTest, SparseMultiply) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(300, RingWithChords(300));
  const la::Matrix x = RandomMatrix(300, 33, 31);  // non-lane-multiple d
  ExpectIsaInvariant([&] { return s.Multiply(x); }, "SpMM");
  ExpectIsaInvariant(
      [&] {
        la::Matrix out(7, 5);
        out.Fill(kPoison);
        s.MultiplyInto(x, &out);
        return out;
      },
      "MultiplyInto(warm)");
  // Width 1 runs over the sliced view from AVX2 up and the CSR rows on the
  // scalar tier: as a one-column MultiplyInto, as an SpMV, and as one
  // live column of a wider layout (stride 33, offset rows).
  const la::Matrix x1 = RandomMatrix(300, 1, 32);
  ExpectIsaInvariant([&] { return s.Multiply(x1); }, "SpMM width 1");
  ExpectIsaInvariant(
      [&] {
        la::Matrix flat(1, s.rows());
        s.MultiplyStridedInto(x1.RowPtr(0), 1, 1, flat.RowPtr(0));
        return flat;
      },
      "SpMV");
  ExpectIsaInvariant(
      [&] {
        la::Matrix out(300, 33);
        out.Fill(kPoison);
        s.MultiplyStridedInto(x.RowPtr(0) + 3, 1, 33, out.RowPtr(0) + 2);
        return out;
      },
      "strided width 1");
}

TEST(SimdEquivalenceTest, StridedGatherWidths) {
  // Widths 1-9 cover the sliced width-1 product, the 2-lane and masked
  // remainders, one full 4- and 8-lane chunk and a chunk plus a remainder
  // of one; columns past the width keep their poison.
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(300, RingWithChords(300));
  for (size_t width = 1; width <= 9; ++width) {
    const size_t stride = width + 2;
    const la::Matrix in = RandomMatrix(300, stride, 50 + width);
    ExpectIsaInvariant(
        [&] {
          la::Matrix out(300, stride);
          out.Fill(kPoison);
          s.MultiplyStridedInto(in.RowPtr(0) + 1, width, stride,
                                out.RowPtr(0) + 1);
          return out;
        },
        ("strided width " + std::to_string(width)).c_str());
  }
}

// --- nn sweeps -------------------------------------------------------------

TEST(SimdEquivalenceTest, Activations) {
  const la::Matrix x = SignedMatrix(23, 31, 33);
  const la::Matrix grad = RandomMatrix(23, 31, 34);
  ExpectIsaInvariant(
      [&] {
        nn::Relu relu;
        la::Matrix out = relu.Forward(x, /*training=*/true);
        out += relu.Backward(grad);
        return out;
      },
      "Relu");
  ExpectIsaInvariant(
      [&] {
        nn::LeakyRelu leaky(0.2);
        la::Matrix out = leaky.Forward(x, /*training=*/true);
        out += leaky.Backward(grad);
        return out;
      },
      "LeakyRelu");
  ExpectIsaInvariant(
      [&] {
        nn::Sigmoid sigmoid;
        la::Matrix out = sigmoid.Forward(x, /*training=*/true);
        out += sigmoid.Backward(grad);
        return out;
      },
      "Sigmoid");
  ExpectIsaInvariant(
      [&] {
        nn::Tanh tanh_act;
        la::Matrix out = tanh_act.Forward(x, /*training=*/true);
        out += tanh_act.Backward(grad);
        return out;
      },
      "Tanh");
}

TEST(SimdEquivalenceTest, AdamSteps) {
  ExpectIsaInvariant(
      [&] {
        la::Matrix p = RandomMatrix(13, 21, 35);
        nn::Adam adam(nn::AdamOptions{});
        util::Rng rng(36);
        for (int step = 0; step < 5; ++step) {
          la::Matrix g = la::Matrix::RandomNormal(13, 21, 0.1, rng);
          adam.Step({&p}, {&g});
        }
        return p;
      },
      "Adam");
}

// --- propagation -----------------------------------------------------------

TEST(SimdEquivalenceTest, PprRows) {
  const la::SparseMatrix s =
      la::SparseMatrix::NormalizedAdjacency(200, RingWithChords(200));
  ExpectIsaInvariant(
      [&] {
        prop::PprEngine engine(&s);
        std::vector<size_t> seeds = {0, 7, 50, 199};
        engine.ComputeRows(seeds);
        la::Matrix flat(seeds.size(), 200);
        for (size_t i = 0; i < seeds.size(); ++i) {
          const std::vector<double>& row = engine.Row(seeds[i]);
          for (size_t j = 0; j < row.size(); ++j) flat.At(i, j) = row[j];
        }
        return flat;
      },
      "PPR rows");
  // Uncached Row() calls run the SpMV, the width-1 product.
  ExpectIsaInvariant(
      [&] {
        prop::PprEngine engine(&s, prop::PprOptions{.cache_rows = false});
        const size_t seeds[] = {3, 120};
        la::Matrix flat(2, 200);
        for (size_t i = 0; i < 2; ++i) {
          const std::vector<double>& row = engine.Row(seeds[i]);
          for (size_t j = 0; j < row.size(); ++j) flat.At(i, j) = row[j];
        }
        return flat;
      },
      "PPR Row misses");
}

// --- dispatch plumbing -----------------------------------------------------

TEST(SimdEquivalenceTest, ScopedOverrideRestores) {
  const Isa before = la::simd::ActiveIsa();
  {
    la::simd::ScopedIsaOverride pin(Isa::kScalar);
    EXPECT_EQ(la::simd::ActiveIsa(), Isa::kScalar);
  }
  EXPECT_EQ(la::simd::ActiveIsa(), before);
}

TEST(SimdEquivalenceTest, MatrixStorageIsArenaAligned) {
  la::Matrix m(7, 9);
  EXPECT_TRUE(la::simd::IsArenaAligned(m.RowPtr(0)));
  // Alignment survives growth reallocation.
  m.EnsureShape(333, 41);
  EXPECT_TRUE(la::simd::IsArenaAligned(m.RowPtr(0)));
}

}  // namespace
}  // namespace gale
