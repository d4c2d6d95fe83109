// Portable SIMD substrate for the dense/sparse hot kernels: double-lane
// primitives in three tiers, AVX-512 (8 lanes), AVX2 (4 lanes) and the
// scalar reference, selected once at runtime. This header is the ONE home
// for vendor intrinsics in the tree (gale_analyze rule `simd-intrinsics`):
// they appear in the two lane-traits types, avx2::Lanes and avx512::Lanes,
// and in the hand-written AVX2 gathers, nowhere else.
//
// scalar:: holds the hand-written reference kernels: they ARE the
// semantics every vector tier reproduces bit for bit. Each vector kernel
// is written once, free of intrinsics, in src/la/simd_kernels.h over a
// lane-traits type `Lanes`. This header includes that file twice: into
// avx2::generic after the 4-lane traits under #pragma GCC target("avx2"),
// and into avx512::generic after the 8-lane traits under
// target("avx512f"). (A plain template over the traits would be compiled
// for the baseline ISA, where GCC refuses to inline AVX intrinsics.) Each
// tier imports its generic namespace; avx2:: adds three bodies by hand
// (Dot4, whose four accumulators are the four lanes of one register,
// CsrGatherStrided and SlicedGather), and avx512:: runs those and
// DistanceSquared8 at four lanes (DESIGN.md §10).
//
// Determinism contract — bitwise identity with the scalar path
// (DESIGN.md §10 has the full argument):
//  * Every primitive vectorizes across *independent output elements*,
//    never across a sequential reduction: lane l of a vector step computes
//    exactly the scalar loop's expression for element j+l, the same
//    operands in the same operation tree. A masked tail lane is computed
//    on zeros and never stored.
//  * No FMA: multiplies and adds stay separate instructions, and the whole
//    project compiles with -ffp-contract=off so the scalar reference loops
//    are not contracted either.
//  * The one reduction shape, Dot4, keeps the scalar kernel's four
//    accumulators (accumulator i sums the k ≡ i (mod 4) terms, the tail
//    goes into acc0, the combine is (acc0+acc1)+(acc2+acc3)): Dot4 holds
//    them in the four lanes of one register, the A·Bᵀ tile in four
//    registers whose lanes are output columns.
//  * The register tiles (MatMulTiles4, DotTileRows, DistanceSquared8) and
//    the grouped line hold a block of outputs in registers across the
//    whole reduction, and each element keeps its tree: one Axpy4 term per
//    k-group in ascending k, then the Axpy tail (A·B, Aᵀ·B); Dot4's
//    (A·Bᵀ); one fold per k-group, Axpy4's tree with its last terms
//    dropped (grouped line); RowDistanceSquared's serial chain (distance
//    lanes). So the rows and columns a tier's tiles leave go through
//    Axpy4/Axpy/Dot4 on sub-ranges and get the same bits.
//  Consequently scalar, AVX2 and AVX-512 results are bitwise equal to
//  each other and to every GALE_NUM_THREADS setting — pinned by
//  simd_equivalence_test and la_parallel_equivalence_test over
//  SupportedIsas().
//
// Dispatch rule: every primitive runs the widest tier the active ISA
// allows — avx512::, else avx2::, else scalar::. The ISA is resolved once,
// on first use: the widest tier __builtin_cpu_supports admits, narrowed by
// the GALE_SIMD_ISA environment variable (`scalar` or `avx2`; any other
// value keeps the probed default). GALE_SIMD=OFF at configure time
// compiles the scalar path only, with no <immintrin.h> in the build. Tests
// pin the path with ScopedIsaOverride, a relaxed atomic that kernels on
// pool threads observe.
//
// Alignment: Matrix/Workspace buffers start on kArenaAlignment (64-byte)
// boundaries, but a row pointer is only 8-byte aligned, so kernels use
// unaligned loads and stores.

#ifndef GALE_LA_SIMD_H_
#define GALE_LA_SIMD_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
// gale-lint: allow(naked-new): the <new> header itself, for align_val_t
#include <new>
#include <type_traits>
#include <vector>

#if defined(GALE_SIMD_ENABLED) && defined(__x86_64__)
#define GALE_SIMD_X86 1
#include <immintrin.h>
#else
#define GALE_SIMD_X86 0
#endif

namespace gale::la::simd {

// ---------------------------------------------------------------------------
// Aligned storage
// ---------------------------------------------------------------------------

// Dense-buffer alignment: one cache line, ≥ any double-lane vector width
// this layer will ever select.
inline constexpr std::size_t kArenaAlignment = 64;

// Minimal C++17 allocator handing out kArenaAlignment-aligned blocks;
// std::vector<double, AlignedAllocator<double>> is the storage type of
// la::Matrix (and therefore of every Workspace arena buffer).
template <typename T>
class AlignedAllocator {
 public:
  using value_type = T;
  static_assert(kArenaAlignment >= alignof(T));

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    // gale-lint: allow(naked-new): containers can only get aligned storage through align_val_t operator new
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t(kArenaAlignment)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    // gale-lint: allow(naked-new): matching aligned operator delete
    ::operator delete(p, n * sizeof(T), std::align_val_t(kArenaAlignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};

// The storage type of la::Matrix.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

// Aligned index storage for the CSR substrate: packed 32-bit column ids
// (half the footprint and twice the gather-index density of size_t) and
// the row-pointer array, both on cache-line boundaries like the value
// arrays they are streamed alongside.
using AlignedU32Vector = std::vector<std::uint32_t, AlignedAllocator<std::uint32_t>>;
using AlignedSizeVector = std::vector<std::size_t, AlignedAllocator<std::size_t>>;

inline bool IsArenaAligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kArenaAlignment == 0;
}

// ---------------------------------------------------------------------------
// ISA selection
// ---------------------------------------------------------------------------

// Ordered by width: a wider tier runs every narrower tier's bodies.
enum class Isa : int { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

// True when this binary carries the vector paths at all (GALE_SIMD=ON on
// an x86-64 target).
constexpr bool Compiled() { return GALE_SIMD_X86 != 0; }

namespace internal {
// -1 = unresolved; otherwise a cached Isa value. Relaxed is enough: the
// value is write-once (plus scoped test overrides at quiescent points)
// and never orders other memory operations.
extern std::atomic<int> g_isa;
// Resolves the env override / CPUID probe; defined in simd.cc.
int ResolveIsa();
}  // namespace internal

// Widest ISA the runtime guard allows on this machine.
Isa BestSupportedIsa();

// Every tier this machine runs, scalar first, up to BestSupportedIsa():
// the list the equivalence tests and the lane-width bench sweep.
inline std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas;
  for (int i = 0; i <= static_cast<int>(BestSupportedIsa()); ++i) {
    isas.push_back(static_cast<Isa>(i));
  }
  return isas;
}

// Human-readable ISA name ("scalar", "avx2", "avx512").
const char* IsaName(Isa isa);

// The path every primitive dispatches to. Resolved once on first use;
// see the dispatch rules above.
inline Isa ActiveIsa() {
  const int v = internal::g_isa.load(std::memory_order_relaxed);
  if (v >= 0) return static_cast<Isa>(v);
  return static_cast<Isa>(internal::ResolveIsa());
}

// RAII ISA pin for tests and the lane-width benches: forces `isa`
// (degraded to BestSupportedIsa() when the machine cannot run it) and
// restores the previous resolution on destruction. Not for use while
// kernels are in flight on pool threads.
class ScopedIsaOverride {
 public:
  explicit ScopedIsaOverride(Isa isa);
  ~ScopedIsaOverride();

  ScopedIsaOverride(const ScopedIsaOverride&) = delete;
  ScopedIsaOverride& operator=(const ScopedIsaOverride&) = delete;

 private:
  int previous_;
};

// ---------------------------------------------------------------------------
// Scalar reference kernels: each an explicit, fixed evaluation tree
// ---------------------------------------------------------------------------

// Lane width of the centroid panel DistanceSquared8 reads: panel[c * 8 + l]
// is coordinate c of centroid l.
inline constexpr std::size_t kDistanceLanes = 8;

namespace internal {

// Where the grouped part of a sparse line [k, end) ends: its indices below
// `aligned` (a multiple of 4) come first, the ragged ones last.
inline std::size_t GroupedEnd(const std::uint32_t* idx, std::size_t k,
                              std::size_t end, std::size_t aligned) {
  while (end > k && idx[end - 1] >= aligned) --end;
  return end;
}

// Entries (1-4) of the k-group {4g..4g+3} starting at entry k < split.
// Indices ascend, so the group's entries are adjacent.
inline std::size_t GroupTerms(const std::uint32_t* idx, std::size_t k,
                              std::size_t split) {
  const std::uint32_t g = idx[k] >> 2;
  return 1 + static_cast<std::size_t>(k + 1 < split && idx[k + 1] >> 2 == g) +
         static_cast<std::size_t>(k + 2 < split && idx[k + 2] >> 2 == g) +
         static_cast<std::size_t>(k + 3 < split && idx[k + 3] >> 2 == g);
}

}  // namespace internal

namespace scalar {

inline void Axpy(double* out, const double* x, double a, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] += a * x[j];
}

// Axpy2 and Axpy3 are Axpy4 with its last terms dropped: the trees
// a0·x0 + a1·x1 and (a0·x0 + a1·x1) + a2·x2, added onto out. They are
// GroupedAxpyLine's bodies for k-groups of two and three terms.
inline void Axpy2(double* out, const double* x0, const double* x1, double a0,
                  double a1, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] += a0 * x0[j] + a1 * x1[j];
}

inline void Axpy3(double* out, const double* x0, const double* x1,
                  const double* x2, double a0, double a1, double a2,
                  std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
  }
}

inline void Axpy4(double* out, const double* x0, const double* x1,
                  const double* x2, const double* x3, double a0, double a1,
                  double a2, double a3, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j] + a3 * x3[j];
  }
}

// out[0, n) += the entries [k, end) of one sparse line (a CSR row or CSC
// column) times the rows of x they index (x row i at x + i·n): the dense
// A·B / Aᵀ·B of that line with its exact zeros dropped. Indices below
// `aligned` (a multiple of 4) form the dense kernels' k-groups
// {4g..4g+3}: each group's terms fold left to right and the fold is added
// once, by Axpy, Axpy2, Axpy3 or Axpy4 on its term count. The ragged
// indices at or past `aligned` end the line and add one term each, like
// the dense kernels' leftover columns.
inline void GroupedAxpyLine(double* out, const double* x, std::size_t n,
                            const std::uint32_t* idx, const double* vals,
                            std::size_t k, std::size_t end,
                            std::size_t aligned) {
  const std::size_t split = internal::GroupedEnd(idx, k, end, aligned);
  while (k < split) {
    const std::size_t terms = internal::GroupTerms(idx, k, split);
    const double* a = vals + k;
    auto row = [&](std::size_t t) {
      return x + static_cast<std::size_t>(idx[k + t]) * n;
    };
    switch (terms) {
      case 1: Axpy(out, row(0), a[0], n); break;
      case 2: Axpy2(out, row(0), row(1), a[0], a[1], n); break;
      case 3: Axpy3(out, row(0), row(1), row(2), a[0], a[1], a[2], n); break;
      default:
        Axpy4(out, row(0), row(1), row(2), row(3), a[0], a[1], a[2], a[3], n);
    }
    k += terms;
  }
  for (; k < end; ++k) {
    Axpy(out, x + static_cast<std::size_t>(idx[k]) * n, vals[k], n);
  }
}

// Rows [r0, r1) of the strided sparse product out = A·in, A in CSR form
// (ptr, idx, vals): the first `width` of each row's `stride` columns are
// overwritten, columns [width, stride) are left untouched. Each element
// starts at +0.0 and adds vals[k]·in[idx[k]] in ascending k, the tree a
// zero fill plus one Axpy per nonzero gives it.
inline void CsrGatherStrided(const std::size_t* ptr, const std::uint32_t* idx,
                             const double* vals, const double* in,
                             std::size_t width, std::size_t stride,
                             double* out, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    double* out_row = out + r * stride;
    for (std::size_t j = 0; j < width; ++j) out_row[j] = 0.0;
    for (std::size_t k = ptr[r]; k < ptr[r + 1]; ++k) {
      Axpy(out_row, in + static_cast<std::size_t>(idx[k]) * stride, vals[k],
           width);
    }
  }
}

inline double Dot4(const double* a, const double* b, std::size_t n) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  double acc2 = 0.0;
  double acc3 = 0.0;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc0 += a[k] * b[k];
    acc1 += a[k + 1] * b[k + 1];
    acc2 += a[k + 2] * b[k + 2];
    acc3 += a[k + 3] * b[k + 3];
  }
  for (; k < n; ++k) acc0 += a[k] * b[k];
  return (acc0 + acc1) + (acc2 + acc3);
}

inline void Add(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] + b[j];
}

inline void Sub(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] - b[j];
}

inline void Mul(double* out, const double* a, const double* b, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] * b[j];
}

inline void Scale(double* out, const double* a, double s, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] * s;
}

// m[r][j] += row[j] for every row r < rows: Matrix::AddRowBroadcast.
inline void AddRowBroadcast(double* m, const double* row, std::size_t rows,
                            std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r, m += cols) Add(m, m, row, cols);
}

// acc[j] += m[r][j] for r = 0, 1, ..., rows - 1 in turn: ColSum's chain.
inline void AddColSum(double* acc, const double* m, std::size_t rows,
                      std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) Add(acc, acc, m + r * cols, cols);
}

inline void ReluForward(double* out, const double* in, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = in[j];
    out[j] = v > 0.0 ? v : 0.0;
  }
}

// out[j] = in[j] <= 0 ? 0 : grad[j] — the mask the scalar Backward
// applies in place.
inline void ReluBackward(double* out, const double* grad, const double* in,
                         std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = in[j] <= 0.0 ? 0.0 : grad[j];
  }
}

inline void LeakyReluForward(double* out, const double* in, double slope,
                             std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = in[j];
    out[j] = v > 0.0 ? v : slope * v;
  }
}

inline void LeakyReluBackward(double* out, const double* grad,
                              const double* in, double slope,
                              std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = in[j] <= 0.0 ? grad[j] * slope : grad[j];
  }
}

// LeakyReLU followed by inverted dropout in one sweep. Bit i % 64 of
// keep[i / 64] is element i's keep bit, 0 where dropout zeroed it. A
// dropped element is +0.0, whatever the sign of its input.
inline bool KeepBit(const std::uint64_t* keep, std::size_t i) {
  return (keep[i / 64] >> (i % 64) & 1) != 0;
}

inline void LeakyReluDropoutForward(double* out, const double* in,
                                    const std::uint64_t* keep, double slope,
                                    double scale, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double v = in[j];
    out[j] = KeepBit(keep, j) ? (v > 0.0 ? v : slope * v) * scale : 0.0;
  }
}

// Dropout's backward, grad·(0 or scale), then LeakyReLU's on the
// layer's input.
inline void LeakyReluDropoutBackward(double* out, const double* grad,
                                     const double* in,
                                     const std::uint64_t* keep, double slope,
                                     double scale, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double t = grad[j] * (KeepBit(keep, j) ? scale : 0.0);
    out[j] = in[j] <= 0.0 ? t * slope : t;
  }
}

// out[j] = grad[j] * (s[j] * (1 - s[j])), s = the cached sigmoid output.
inline void SigmoidBackward(double* out, const double* grad, const double* s,
                            std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = grad[j] * (s[j] * (1.0 - s[j]));
  }
}

// out[j] = grad[j] * (1 - t[j] * t[j]), t = the cached tanh output.
inline void TanhBackward(double* out, const double* grad, const double* t,
                         std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = grad[j] * (1.0 - t[j] * t[j]);
  }
}

// One Adam element sweep; the expression trees mirror nn/adam.cc exactly
// (sqrt and divide are correctly rounded in both scalar and vector
// forms, so the vector variants stay bitwise equal).
inline void AdamUpdate(double* p, double* m, double* v, const double* g,
                       double lr, double beta1, double beta2, double bias1,
                       double bias2, double eps, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const double grad = g[j];
    m[j] = beta1 * m[j] + (1.0 - beta1) * grad;
    v[j] = beta2 * v[j] + (1.0 - beta2) * grad * grad;
    const double m_hat = m[j] / bias1;
    const double v_hat = v[j] / bias2;
    p[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

// The register tiles' contracts (see the dispatch wrappers): the scalar
// tier leaves A·B and Aᵀ·B to the caller's Axpy4/Axpy sweeps and computes
// A·Bᵀ one Dot4 per element.
inline std::size_t MatMulTiles4(double*, std::size_t, const double*,
                                std::size_t, const double*, std::size_t,
                                std::size_t, std::size_t) {
  return 0;
}

inline std::size_t TransposedMatMulTiles4(double*, std::size_t, const double*,
                                          std::size_t, const double*,
                                          std::size_t, std::size_t,
                                          std::size_t, std::size_t) {
  return 0;
}

inline std::size_t DotTileRows(double* out, std::size_t ldo, const double* a,
                               std::size_t lda, const double* b,
                               std::size_t ldb, std::size_t k,
                               std::size_t rows, std::size_t cols) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      out[i * ldo + j] = Dot4(a + i * lda, b + j * ldb, k);
    }
  }
  return rows;
}

// out[l] = Σ_c (x[c] - panel[c·8 + l])², one serial chain per lane in
// ascending c — Matrix::RowDistanceSquared's order for each of the eight
// centroids of one panel.
inline void DistanceSquared8(double* out, const double* x, const double* panel,
                             std::size_t d) {
  double acc[kDistanceLanes] = {};
  for (std::size_t c = 0; c < d; ++c) {
    for (std::size_t l = 0; l < kDistanceLanes; ++l) {
      const double diff = x[c] - panel[c * kDistanceLanes + l];
      acc[l] += diff * diff;
    }
  }
  for (std::size_t l = 0; l < kDistanceLanes; ++l) out[l] = acc[l];
}

}  // namespace scalar

#if GALE_SIMD_X86

// ---------------------------------------------------------------------------
// AVX2 (4 double lanes). The pragma targets only the functions defined up
// to pop_options, so scalar codegen is the same with GALE_SIMD ON or OFF.
// ---------------------------------------------------------------------------

namespace avx2 {

#pragma GCC push_options
#pragma GCC target("avx2")

// A Mask holds all-ones in its live lanes (vmaskmovpd), a Cmp is the lane
// mask blendv selects on.
struct Lanes {
  using V = __m256d;
  using Mask = __m256i;
  using Cmp = __m256d;
  static constexpr std::size_t kWidth = 4;
  static constexpr std::size_t kRegisters = 16;

  static V Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, V v) { _mm256_storeu_pd(p, v); }
  // Lanes [0, r) of a register, r <= kWidth.
  static Mask FirstLanes(std::size_t r) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(r)),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
  static V MaskLoad(Mask m, const double* p) {
    return _mm256_maskload_pd(p, m);
  }
  static void MaskStore(double* p, Mask m, V v) {
    _mm256_maskstore_pd(p, m, v);
  }
  static V Set1(double a) { return _mm256_set1_pd(a); }
  static V Zero() { return _mm256_setzero_pd(); }
  static V Add(V a, V b) { return _mm256_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm256_div_pd(a, b); }
  static V Sqrt(V a) { return _mm256_sqrt_pd(a); }
  static V Max(V a, V b) { return _mm256_max_pd(a, b); }
  static Cmp CmpLe(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  // Lane l set where bit l of `bits` is; the higher bits are ignored.
  static Cmp FromBits(std::uint64_t bits) {
    const __m256i lane = _mm256_setr_epi64x(1, 2, 4, 8);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(
            _mm256_set1_epi64x(static_cast<long long>(bits)), lane),
        lane));
  }
  // Lane l of t where c is set, else lane l of f.
  static V Select(Cmp c, V t, V f) { return _mm256_blendv_pd(f, t, c); }
};

namespace generic {
#include "la/simd_kernels.h"
}  // namespace generic
using namespace generic;

// Lane l accumulates the k ≡ l (mod 4) terms: the scalar kernel's four
// accumulators are the four lanes of one register.
inline double Dot4(const double* a, const double* b, std::size_t n) {
  V acc = Lanes::Zero();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = Lanes::Add(acc, Lanes::Mul(Lanes::Load(a + k), Lanes::Load(b + k)));
  }
  double lanes[4];
  Lanes::Store(lanes, acc);
  double acc0 = lanes[0];
  for (; k < n; ++k) acc0 += a[k] * b[k];
  return (acc0 + lanes[1]) + (lanes[2] + lanes[3]);
}

// The scalar reference's trees with the sums held in registers across a
// row's nonzeros: two 4-lane accumulators per 8-column chunk, one per
// 4-column chunk, then one 2-lane accumulator for a remainder of two or
// three columns (the third column's scalar sum rides in the same pass),
// or one scalar for a remainder of one. (la::SparseMatrix sends width 1
// to SlicedGather instead, which puts four rows in the lanes.) This body
// serves AVX-512 too: 8-lane chunks measured no faster at width 64
// (memory-bound), and a masked 8-lane remainder slower at width 2.
inline void CsrGatherStrided(const std::size_t* ptr, const std::uint32_t* idx,
                             const double* vals, const double* in,
                             std::size_t width, std::size_t stride,
                             double* out, std::size_t r0, std::size_t r1) {
  for (std::size_t r = r0; r < r1; ++r) {
    double* out_row = out + r * stride;
    const std::size_t k0 = ptr[r];
    const std::size_t k1 = ptr[r + 1];
    std::size_t j = 0;
    for (; j + 8 <= width; j += 8) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (std::size_t k = k0; k < k1; ++k) {
        const double* x = in + static_cast<std::size_t>(idx[k]) * stride + j;
        const __m256d v = _mm256_set1_pd(vals[k]);
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(v, _mm256_loadu_pd(x)));
        acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(v, _mm256_loadu_pd(x + 4)));
      }
      _mm256_storeu_pd(out_row + j, acc0);
      _mm256_storeu_pd(out_row + j + 4, acc1);
    }
    if (j + 4 <= width) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t k = k0; k < k1; ++k) {
        const double* x = in + static_cast<std::size_t>(idx[k]) * stride + j;
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(vals[k]), _mm256_loadu_pd(x)));
      }
      _mm256_storeu_pd(out_row + j, acc);
      j += 4;
    }
    if (j + 2 <= width) {
      __m128d acc = _mm_setzero_pd();
      if (j + 3 == width) {
        double acc2 = 0.0;
        for (std::size_t k = k0; k < k1; ++k) {
          const double* x = in + static_cast<std::size_t>(idx[k]) * stride + j;
          acc = _mm_add_pd(acc,
                           _mm_mul_pd(_mm_set1_pd(vals[k]), _mm_loadu_pd(x)));
          acc2 += vals[k] * x[2];
        }
        out_row[j + 2] = acc2;
      } else {
        for (std::size_t k = k0; k < k1; ++k) {
          const double* x = in + static_cast<std::size_t>(idx[k]) * stride + j;
          acc = _mm_add_pd(acc,
                           _mm_mul_pd(_mm_set1_pd(vals[k]), _mm_loadu_pd(x)));
        }
      }
      _mm_storeu_pd(out_row + j, acc);
    } else if (j < width) {
      double acc = 0.0;
      for (std::size_t k = k0; k < k1; ++k) {
        acc += vals[k] * in[static_cast<std::size_t>(idx[k]) * stride + j];
      }
      out_row[j] = acc;
    }
  }
}

// Chunks [c0, c1) of the width-1 strided product over a sliced view
// (la::SparseMatrix's SELL-C-σ layout, C = 4): chunk c's lanes are the
// source rows rows[4c..4c+3] (the last chunk may hold fewer, `num_rows`
// in all), lane l has lens[4c + l] entries, and step s of the chunk
// holds one entry per lane at idx/vals[4s..4s+3], steps
// [chunk_ptr[c], chunk_ptr[c + 1]). Lane l's sum starts at +0.0 and adds
// vals·in[idx·stride] in step order, which is its row's ascending-k CSR
// order, so each output is CsrGatherStrided's width-1 element. A lane past
// its row's length gathers an exact 0 (masked, so an inf or NaN at the
// padding column cannot leak) times a stored 0, and adds +0.0 onto a sum
// that is never −0.0: the sum is unchanged. The offsets idx·stride are
// 64-bit products of 32-bit operands (stride < 2^32), so no column id
// wraps.
inline void SlicedGather(const std::size_t* chunk_ptr,
                         const std::uint32_t* lens, const std::uint32_t* rows,
                         std::size_t num_rows, const std::uint32_t* idx,
                         const double* vals, const double* in,
                         std::size_t stride, double* out, std::size_t c0,
                         std::size_t c1) {
  const __m256i stride_v = _mm256_set1_epi64x(static_cast<long long>(stride));
  const __m256d zero = _mm256_setzero_pd();
  for (std::size_t c = c0; c < c1; ++c) {
    const __m256i len = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(lens + 4 * c)));
    const std::size_t s0 = chunk_ptr[c];
    const std::size_t s1 = chunk_ptr[c + 1];
    __m256d acc = zero;
    for (std::size_t s = s0; s < s1; ++s) {
      const __m256d live = _mm256_castsi256_pd(_mm256_cmpgt_epi64(
          len, _mm256_set1_epi64x(static_cast<long long>(s - s0))));
      const __m256i col = _mm256_cvtepu32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + 4 * s)));
      const __m256d x = _mm256_mask_i64gather_pd(
          zero, in, _mm256_mul_epu32(col, stride_v), live, 8);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_loadu_pd(vals + 4 * s), x));
    }
    double sums[4];
    _mm256_storeu_pd(sums, acc);
    const std::size_t left = num_rows - 4 * c;
    const std::size_t lanes = left < 4 ? left : 4;
    for (std::size_t l = 0; l < lanes; ++l) {
      out[static_cast<std::size_t>(rows[4 * c + l]) * stride] = sums[l];
    }
  }
}

#pragma GCC pop_options

}  // namespace avx2

// ---------------------------------------------------------------------------
// AVX-512 (8 double lanes): the same kernels at twice the width, plus the
// 4-lane bodies above.
// ---------------------------------------------------------------------------

namespace avx512 {

#pragma GCC push_options
#pragma GCC target("avx512f")

// Masks and compare results are both opmask registers; the members mean
// what avx2::Lanes's do.
struct Lanes {
  using V = __m512d;
  using Mask = __mmask8;
  using Cmp = __mmask8;
  static constexpr std::size_t kWidth = 8;
  static constexpr std::size_t kRegisters = 32;

  static V Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, V v) { _mm512_storeu_pd(p, v); }
  static Mask FirstLanes(std::size_t r) {
    return static_cast<Mask>((1u << r) - 1u);
  }
  static V MaskLoad(Mask m, const double* p) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  static void MaskStore(double* p, Mask m, V v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  static V Set1(double a) { return _mm512_set1_pd(a); }
  static V Zero() { return _mm512_setzero_pd(); }
  static V Add(V a, V b) { return _mm512_add_pd(a, b); }
  static V Sub(V a, V b) { return _mm512_sub_pd(a, b); }
  static V Mul(V a, V b) { return _mm512_mul_pd(a, b); }
  static V Div(V a, V b) { return _mm512_div_pd(a, b); }
  // All-lanes zero-masked forms: the plain intrinsics read an undefined
  // register, which GCC 12 reports as maybe-uninitialized.
  static V Sqrt(V a) { return _mm512_maskz_sqrt_pd(0xFF, a); }
  static V Max(V a, V b) { return _mm512_maskz_max_pd(0xFF, a, b); }
  static Cmp CmpLe(V a, V b) { return _mm512_cmp_pd_mask(a, b, _CMP_LE_OQ); }
  static Cmp FromBits(std::uint64_t bits) { return static_cast<Cmp>(bits); }
  static V Select(Cmp c, V t, V f) { return _mm512_mask_blend_pd(c, f, t); }
};

namespace generic {
#include "la/simd_kernels.h"
}  // namespace generic

#pragma GCC pop_options

// Every generic kernel but the ones this tier runs at four lanes
// (DESIGN.md §10): a using-declaration hides the generic body of its name.
using namespace generic;
using avx2::CsrGatherStrided;
using avx2::DistanceSquared8;
using avx2::Dot4;

}  // namespace avx512

#endif  // GALE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch wrappers — what the kernels call
// ---------------------------------------------------------------------------
// Each costs one relaxed load and a branch or two per call, noise next to
// the sweep; the GALE_SIMD=OFF build calls the scalar tier directly.

#if GALE_SIMD_X86
#define GALE_SIMD_DISPATCH(call)                \
  const Isa isa = ActiveIsa();                  \
  if (isa == Isa::kAvx512) return avx512::call; \
  if (isa == Isa::kAvx2) return avx2::call;     \
  return scalar::call;
#else
#define GALE_SIMD_DISPATCH(call) return scalar::call;
#endif

inline void Axpy(double* out, const double* x, double a, std::size_t n) {
  GALE_SIMD_DISPATCH(Axpy(out, x, a, n))
}

inline void GroupedAxpyLine(double* out, const double* x, std::size_t n,
                            const std::uint32_t* idx, const double* vals,
                            std::size_t k, std::size_t end,
                            std::size_t aligned) {
  GALE_SIMD_DISPATCH(GroupedAxpyLine(out, x, n, idx, vals, k, end, aligned))
}

inline void CsrGatherStrided(const std::size_t* ptr, const std::uint32_t* idx,
                             const double* vals, const double* in,
                             std::size_t width, std::size_t stride,
                             double* out, std::size_t r0, std::size_t r1) {
  GALE_SIMD_DISPATCH(
      CsrGatherStrided(ptr, idx, vals, in, width, stride, out, r0, r1))
}

// The sliced gather is the vector tiers' width-1 product and has no scalar
// twin: the scalar tier's width-1 product is CsrGatherStrided over the CSR
// rows, the reference the sliced kernel is checked against. Callers run
// SlicedGather only while SlicedGatherActive(), never in a GALE_SIMD=OFF
// build.
inline bool SlicedGatherActive() { return ActiveIsa() >= Isa::kAvx2; }

#if GALE_SIMD_X86
using avx2::SlicedGather;
#else
inline void SlicedGather(const std::size_t*, const std::uint32_t*,
                         const std::uint32_t*, std::size_t,
                         const std::uint32_t*, const double*, const double*,
                         std::size_t, double*, std::size_t, std::size_t) {}
#endif

inline void Axpy4(double* out, const double* x0, const double* x1,
                  const double* x2, const double* x3, double a0, double a1,
                  double a2, double a3, std::size_t n) {
  GALE_SIMD_DISPATCH(Axpy4(out, x0, x1, x2, x3, a0, a1, a2, a3, n))
}

inline double Dot4(const double* a, const double* b, std::size_t n) {
  GALE_SIMD_DISPATCH(Dot4(a, b, n))
}

inline void Add(double* out, const double* a, const double* b, std::size_t n) {
  GALE_SIMD_DISPATCH(Add(out, a, b, n))
}

inline void Sub(double* out, const double* a, const double* b, std::size_t n) {
  GALE_SIMD_DISPATCH(Sub(out, a, b, n))
}

inline void Mul(double* out, const double* a, const double* b, std::size_t n) {
  GALE_SIMD_DISPATCH(Mul(out, a, b, n))
}

inline void Scale(double* out, const double* a, double s, std::size_t n) {
  GALE_SIMD_DISPATCH(Scale(out, a, s, n))
}

inline void AddRowBroadcast(double* m, const double* row, std::size_t rows,
                            std::size_t cols) {
  GALE_SIMD_DISPATCH(AddRowBroadcast(m, row, rows, cols))
}

inline void AddColSum(double* acc, const double* m, std::size_t rows,
                      std::size_t cols) {
  GALE_SIMD_DISPATCH(AddColSum(acc, m, rows, cols))
}

inline void ReluForward(double* out, const double* in, std::size_t n) {
  GALE_SIMD_DISPATCH(ReluForward(out, in, n))
}

inline void ReluBackward(double* out, const double* grad, const double* in,
                         std::size_t n) {
  GALE_SIMD_DISPATCH(ReluBackward(out, grad, in, n))
}

inline void LeakyReluForward(double* out, const double* in, double slope,
                             std::size_t n) {
  GALE_SIMD_DISPATCH(LeakyReluForward(out, in, slope, n))
}

inline void LeakyReluBackward(double* out, const double* grad,
                              const double* in, double slope,
                              std::size_t n) {
  GALE_SIMD_DISPATCH(LeakyReluBackward(out, grad, in, slope, n))
}

inline void LeakyReluDropoutForward(double* out, const double* in,
                                    const std::uint64_t* keep, double slope,
                                    double scale, std::size_t n) {
  GALE_SIMD_DISPATCH(LeakyReluDropoutForward(out, in, keep, slope, scale, n))
}

inline void LeakyReluDropoutBackward(double* out, const double* grad,
                                     const double* in,
                                     const std::uint64_t* keep, double slope,
                                     double scale, std::size_t n) {
  GALE_SIMD_DISPATCH(
      LeakyReluDropoutBackward(out, grad, in, keep, slope, scale, n))
}

inline void SigmoidBackward(double* out, const double* grad, const double* s,
                            std::size_t n) {
  GALE_SIMD_DISPATCH(SigmoidBackward(out, grad, s, n))
}

inline void TanhBackward(double* out, const double* grad, const double* t,
                         std::size_t n) {
  GALE_SIMD_DISPATCH(TanhBackward(out, grad, t, n))
}

inline void AdamUpdate(double* p, double* m, double* v, const double* g,
                       double lr, double beta1, double beta2, double bias1,
                       double bias2, double eps, std::size_t n) {
  GALE_SIMD_DISPATCH(
      AdamUpdate(p, m, v, g, lr, beta1, beta2, bias1, bias2, eps, n))
}

// Adds A·B (a: 4 x k, b: k x n) onto the leading columns of four output
// rows that the active tier's tiles cover and returns how many: every
// column on the vector tiers, none on the scalar one. The caller adds the
// rest with the Axpy4/Axpy row sweep.
inline std::size_t MatMulTiles4(double* out, std::size_t ldo, const double* a,
                                std::size_t lda, const double* b,
                                std::size_t ldb, std::size_t k, std::size_t n) {
  GALE_SIMD_DISPATCH(MatMulTiles4(out, ldo, a, lda, b, ldb, k, n))
}

// Adds Aᵀ·B (a: k x rows, b: k x n) onto the leading output rows that
// the active tier's tiles cover and returns how many: rows - rows % 4 on
// the vector tiers, none on the scalar one. The caller adds the rest with
// Axpy4/Axpy sweeps over four source rows at a time.
inline std::size_t TransposedMatMulTiles4(double* out, std::size_t ldo,
                                          const double* a, std::size_t lda,
                                          const double* b, std::size_t ldb,
                                          std::size_t k, std::size_t n,
                                          std::size_t rows) {
  GALE_SIMD_DISPATCH(
      TransposedMatMulTiles4(out, ldo, a, lda, b, ldb, k, n, rows))
}

// out[r][j] = Dot4(a row r, b row j, k) for j < cols over the leading rows
// of a (rows x k) that the active tier covers, and returns how many: every
// row, except on a vector tier at depths past its panel's, where none.
// The caller computes the remaining rows with Dot4.
inline std::size_t DotTileRows(double* out, std::size_t ldo, const double* a,
                               std::size_t lda, const double* b,
                               std::size_t ldb, std::size_t k,
                               std::size_t rows, std::size_t cols) {
  GALE_SIMD_DISPATCH(DotTileRows(out, ldo, a, lda, b, ldb, k, rows, cols))
}

inline void DistanceSquared8(double* out, const double* x, const double* panel,
                             std::size_t d) {
  GALE_SIMD_DISPATCH(DistanceSquared8(out, x, panel, d))
}

#undef GALE_SIMD_DISPATCH

}  // namespace gale::la::simd

#endif  // GALE_LA_SIMD_H_
