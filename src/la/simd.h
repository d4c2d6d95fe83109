// Portable SIMD substrate for the dense/sparse hot kernels: double-lane
// primitives in three tiers, AVX-512 (8 lanes), AVX2 (4 lanes) and the
// scalar reference, selected once at runtime. This header is the ONE home
// for vendor intrinsics in the tree (gale_analyze rule `simd-intrinsics`).
//
// Determinism contract — bitwise identity with the scalar path:
//  * Every primitive vectorizes across *independent output elements*
//    (the j/output-column direction), never across a sequential
//    reduction. Lane l of a vector step computes exactly the expression
//    the scalar loop computes for element j+l — same operands, same
//    operation tree — so the result of each element is one fixed IEEE-754
//    evaluation regardless of lane width. A masked lane (AVX-512 tails)
//    is computed on zeros and never stored.
//  * Multiplies and adds stay separate instructions (no _mm*_fmadd_*):
//    an FMA contracts mul+add into one rounding and would diverge from
//    the scalar path. For the same reason the whole project compiles with
//    -ffp-contract=off, so the compiler cannot contract the scalar
//    reference loops either.
//  * The one reduction shape, Dot4, mirrors the fixed four-accumulator
//    split of the scalar kernel: accumulator i sums the k ≡ i (mod 4)
//    terms and the final combine is (acc0+acc1)+(acc2+acc3). AVX2 maps
//    the four accumulators onto the four lanes of one register; AVX-512
//    keeps them in four registers whose lanes are eight output columns.
//    The summation tree is identical in every tier, and the tail
//    accumulates into acc0 exactly like the scalar remainder loop.
//  * The register tiles (MatMulTiles4, DotTileRows, DistanceSquared8) and
//    the AVX-512 grouped line hold a block of outputs in registers across
//    the whole reduction instead of re-reading each output per step. They
//    still vectorize only across independent output elements, and each
//    element's tree is fixed: the A·B tile adds one Axpy4 term per k-group
//    in ascending k, then the Axpy tail; the A·Bᵀ tile is Dot4's lane
//    split, tail and combine per element; a grouped line adds one
//    Axpy/Axpy2/Axpy3/Axpy4 fold per k-group; a distance lane is
//    RowDistanceSquared's serial chain. So a tile, a row sweep of
//    Axpy4/Axpy calls, and a Dot4 call give an element the same bits, and
//    callers send the rows and columns a tier's tiles leave through
//    Axpy4/Axpy/Dot4 on sub-ranges.
//  Consequently scalar, AVX2 and AVX-512 results are bitwise equal to
//  each other and (because the kernels shard over disjoint output rows)
//  to every GALE_NUM_THREADS setting — pinned by simd_equivalence_test
//  and la_parallel_equivalence_test over SupportedIsas().
//
// Dispatch rules:
//  * GALE_SIMD=OFF at configure time compiles the scalar path only (no
//    <immintrin.h> anywhere in the build).
//  * With GALE_SIMD=ON (the default) the ISA is resolved once, on first
//    use: the widest tier __builtin_cpu_supports admits (avx512f, else
//    avx2, else scalar), narrowed by the GALE_SIMD_ISA environment
//    variable: `scalar` runs scalar, `avx2` runs AVX2 on an AVX2 or
//    AVX-512 CPU. A request wider than the CPU runs its widest tier; any
//    other value keeps the probed default.
//  * Every primitive follows one rule: its AVX-512 body where one exists
//    and AVX-512 is active, else its AVX2 body whenever the active ISA is
//    at least AVX2, else the scalar reference. Only the products the SGAN
//    epoch spends its time in have AVX-512 bodies.
//  * Tests pin the path with ScopedIsaOverride; the override is a
//    relaxed atomic so kernels running on pool threads observe it.
//
// Alignment contract: AlignedVector (the Matrix/Workspace storage) puts
// every dense buffer on a kArenaAlignment (64-byte) boundary — one cache
// line, and enough for any double vector ISA up to AVX-512. Kernels
// still use unaligned loads/stores because a *row* pointer inside a
// matrix is only 8-byte aligned (row r starts at r*cols doubles); the
// base alignment buys cache-line-clean buffers, not aligned-op codegen.

#ifndef GALE_LA_SIMD_H_
#define GALE_LA_SIMD_H_

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
// gale-lint: allow(naked-new): the <new> header itself, for align_val_t
#include <new>
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
// Scalar reference kernels
// ---------------------------------------------------------------------------
// These ARE the semantics: every vector variant below must be bitwise
// equal to the scalar function of the same name. Each is written with an
// explicit, fixed evaluation tree; -ffp-contract=off keeps the compiler
// from fusing it.

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
    const double* x0 = x + static_cast<std::size_t>(idx[k]) * n;
    const double* a = vals + k;
    if (terms == 1) {
      Axpy(out, x0, a[0], n);
    } else {
      const double* x1 = x + static_cast<std::size_t>(idx[k + 1]) * n;
      if (terms == 2) {
        Axpy2(out, x0, x1, a[0], a[1], n);
      } else {
        const double* x2 = x + static_cast<std::size_t>(idx[k + 2]) * n;
        if (terms == 3) {
          Axpy3(out, x0, x1, x2, a[0], a[1], a[2], n);
        } else {
          Axpy4(out, x0, x1, x2, x + static_cast<std::size_t>(idx[k + 3]) * n,
                a[0], a[1], a[2], a[3], n);
        }
      }
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

inline void Add(double* out, const double* a, const double* b,
                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] + b[j];
}

inline void Sub(double* out, const double* a, const double* b,
                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] - b[j];
}

inline void Mul(double* out, const double* a, const double* b,
                std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] * b[j];
}

inline void Scale(double* out, const double* a, double s, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] = a[j] * s;
}

inline void AddAssign(double* out, const double* x, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] += x[j];
}

inline void SubAssign(double* out, const double* x, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] -= x[j];
}

inline void ScaleAssign(double* out, double s, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] *= s;
}

inline void MulAssign(double* out, const double* x, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) out[j] *= x[j];
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

// out[r][j] += Σ_p a[r][p]·b[p][j] for r < 4, j < 8: the register tile of
// MatMul. Each element adds one Axpy4 term per k-group, in ascending k,
// then one Axpy term per leftover p — exactly what a row sweep of
// Axpy4/Axpy calls computes for it. a, b and out are row-major with
// leading dimensions lda, ldb, ldo.
inline void MatMulTile4x8(double* out, std::size_t ldo, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          std::size_t k) {
  // k outermost, so B is read row by row like the row sweep reads it.
  double acc[4][8];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t j = 0; j < 8; ++j) acc[r][j] = out[r * ldo + j];
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const double* b0 = b + p * ldb;
    for (std::size_t r = 0; r < 4; ++r) {
      const double* ar = a + r * lda + p;
      for (std::size_t j = 0; j < 8; ++j) {
        acc[r][j] += ar[0] * b0[j] + ar[1] * b0[ldb + j] +
                     ar[2] * b0[2 * ldb + j] + ar[3] * b0[3 * ldb + j];
      }
    }
  }
  for (; p < k; ++p) {
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t j = 0; j < 8; ++j) {
        acc[r][j] += a[r * lda + p] * b[p * ldb + j];
      }
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t j = 0; j < 8; ++j) out[r * ldo + j] = acc[r][j];
  }
}

// out[r][j] = Dot4(a row r, b row j, k) for r < 2, j < 4: the register
// tile of MatMulTransposed (b holds the rows of Bᵀ's columns).
inline void DotTile2x4(double* out, std::size_t ldo, const double* a,
                       std::size_t lda, const double* b, std::size_t ldb,
                       std::size_t k) {
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t j = 0; j < 4; ++j) {
      out[r * ldo + j] = Dot4(a + r * lda, b + j * ldb, k);
    }
  }
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
// AVX2 (4 double lanes) — per-function target attribute so the rest of
// the build stays at the baseline ISA (identical scalar codegen whether
// GALE_SIMD is ON or OFF)
// ---------------------------------------------------------------------------

#define GALE_SIMD_AVX2 __attribute__((target("avx2"))) inline

namespace avx2 {

GALE_SIMD_AVX2 void Axpy(double* out, const double* x, double a,
                         std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d o = _mm256_loadu_pd(out + j);
    const __m256d t = _mm256_mul_pd(av, _mm256_loadu_pd(x + j));
    _mm256_storeu_pd(out + j, _mm256_add_pd(o, t));
  }
  for (; j < n; ++j) out[j] += a * x[j];
}

GALE_SIMD_AVX2 void Axpy2(double* out, const double* x0, const double* x1,
                          double a0, double a1, std::size_t n) {
  const __m256d a0v = _mm256_set1_pd(a0);
  const __m256d a1v = _mm256_set1_pd(a1);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d s =
        _mm256_add_pd(_mm256_mul_pd(a0v, _mm256_loadu_pd(x0 + j)),
                      _mm256_mul_pd(a1v, _mm256_loadu_pd(x1 + j)));
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j), s));
  }
  for (; j < n; ++j) out[j] += a0 * x0[j] + a1 * x1[j];
}

GALE_SIMD_AVX2 void Axpy3(double* out, const double* x0, const double* x1,
                          const double* x2, double a0, double a1, double a2,
                          std::size_t n) {
  const __m256d a0v = _mm256_set1_pd(a0);
  const __m256d a1v = _mm256_set1_pd(a1);
  const __m256d a2v = _mm256_set1_pd(a2);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d s = _mm256_add_pd(_mm256_mul_pd(a0v, _mm256_loadu_pd(x0 + j)),
                              _mm256_mul_pd(a1v, _mm256_loadu_pd(x1 + j)));
    s = _mm256_add_pd(s, _mm256_mul_pd(a2v, _mm256_loadu_pd(x2 + j)));
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j), s));
  }
  for (; j < n; ++j) out[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j];
}

GALE_SIMD_AVX2 void Axpy4(double* out, const double* x0, const double* x1,
                          const double* x2, const double* x3, double a0,
                          double a1, double a2, double a3, std::size_t n) {
  const __m256d a0v = _mm256_set1_pd(a0);
  const __m256d a1v = _mm256_set1_pd(a1);
  const __m256d a2v = _mm256_set1_pd(a2);
  const __m256d a3v = _mm256_set1_pd(a3);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    __m256d s = _mm256_add_pd(_mm256_mul_pd(a0v, _mm256_loadu_pd(x0 + j)),
                              _mm256_mul_pd(a1v, _mm256_loadu_pd(x1 + j)));
    s = _mm256_add_pd(s, _mm256_mul_pd(a2v, _mm256_loadu_pd(x2 + j)));
    s = _mm256_add_pd(s, _mm256_mul_pd(a3v, _mm256_loadu_pd(x3 + j)));
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j), s));
  }
  for (; j < n; ++j) {
    out[j] += a0 * x0[j] + a1 * x1[j] + a2 * x2[j] + a3 * x3[j];
  }
}

GALE_SIMD_AVX2 void GroupedAxpyLine(double* out, const double* x,
                                    std::size_t n, const std::uint32_t* idx,
                                    const double* vals, std::size_t k,
                                    std::size_t end, std::size_t aligned) {
  const std::size_t split = internal::GroupedEnd(idx, k, end, aligned);
  while (k < split) {
    const std::size_t terms = internal::GroupTerms(idx, k, split);
    const double* x0 = x + static_cast<std::size_t>(idx[k]) * n;
    const double* a = vals + k;
    if (terms == 1) {
      Axpy(out, x0, a[0], n);
    } else {
      const double* x1 = x + static_cast<std::size_t>(idx[k + 1]) * n;
      if (terms == 2) {
        Axpy2(out, x0, x1, a[0], a[1], n);
      } else {
        const double* x2 = x + static_cast<std::size_t>(idx[k + 2]) * n;
        if (terms == 3) {
          Axpy3(out, x0, x1, x2, a[0], a[1], a[2], n);
        } else {
          Axpy4(out, x0, x1, x2, x + static_cast<std::size_t>(idx[k + 3]) * n,
                a[0], a[1], a[2], a[3], n);
        }
      }
    }
    k += terms;
  }
  for (; k < end; ++k) {
    Axpy(out, x + static_cast<std::size_t>(idx[k]) * n, vals[k], n);
  }
}

// The scalar reference's trees with the sums held in registers across a
// row's nonzeros: two 4-lane accumulators per 8-column chunk, one per
// 4-column chunk, then one 2-lane accumulator for a remainder of two or
// three columns (the third column's scalar sum rides in the same pass),
// or one scalar for a remainder of one. (la::SparseMatrix sends width 1
// to SlicedGather instead, which puts four rows in the lanes.) This body
// serves AVX-512 too: 8-lane chunks measured no faster at width 64
// (memory-bound), and a masked 8-lane remainder slower at width 2.
GALE_SIMD_AVX2 void CsrGatherStrided(const std::size_t* ptr,
                                     const std::uint32_t* idx,
                                     const double* vals, const double* in,
                                     std::size_t width, std::size_t stride,
                                     double* out, std::size_t r0,
                                     std::size_t r1) {
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
GALE_SIMD_AVX2 void SlicedGather(const std::size_t* chunk_ptr,
                                 const std::uint32_t* lens,
                                 const std::uint32_t* rows,
                                 std::size_t num_rows,
                                 const std::uint32_t* idx, const double* vals,
                                 const double* in, std::size_t stride,
                                 double* out, std::size_t c0,
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

GALE_SIMD_AVX2 double Dot4(const double* a, const double* b, std::size_t n) {
  // Lane l accumulates the k ≡ l (mod 4) terms — the scalar kernel's four
  // accumulators mapped onto one register.
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double acc0 = lanes[0];
  for (; k < n; ++k) acc0 += a[k] * b[k];
  return (acc0 + lanes[1]) + (lanes[2] + lanes[3]);
}

GALE_SIMD_AVX2 void Add(double* out, const double* a, const double* b,
                        std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        out + j, _mm256_add_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
  }
  for (; j < n; ++j) out[j] = a[j] + b[j];
}

GALE_SIMD_AVX2 void Sub(double* out, const double* a, const double* b,
                        std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        out + j, _mm256_sub_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
  }
  for (; j < n; ++j) out[j] = a[j] - b[j];
}

GALE_SIMD_AVX2 void Mul(double* out, const double* a, const double* b,
                        std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        out + j, _mm256_mul_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j)));
  }
  for (; j < n; ++j) out[j] = a[j] * b[j];
}

GALE_SIMD_AVX2 void Scale(double* out, const double* a, double s,
                          std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(a + j), sv));
  }
  for (; j < n; ++j) out[j] = a[j] * s;
}

GALE_SIMD_AVX2 void AddAssign(double* out, const double* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) out[j] += x[j];
}

GALE_SIMD_AVX2 void SubAssign(double* out, const double* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_sub_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) out[j] -= x[j];
}

GALE_SIMD_AVX2 void ScaleAssign(double* out, double s, std::size_t n) {
  const __m256d sv = _mm256_set1_pd(s);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(out + j), sv));
  }
  for (; j < n; ++j) out[j] *= s;
}

GALE_SIMD_AVX2 void MulAssign(double* out, const double* x, std::size_t n) {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(x + j)));
  }
  for (; j < n; ++j) out[j] *= x[j];
}

GALE_SIMD_AVX2 void ReluForward(double* out, const double* in,
                                std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_max_pd(_mm256_loadu_pd(in + j), zero));
  }
  for (; j < n; ++j) {
    const double v = in[j];
    out[j] = v > 0.0 ? v : 0.0;
  }
}

GALE_SIMD_AVX2 void ReluBackward(double* out, const double* grad,
                                 const double* in, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d mask =
        _mm256_cmp_pd(_mm256_loadu_pd(in + j), zero, _CMP_LE_OQ);
    _mm256_storeu_pd(out + j,
                     _mm256_andnot_pd(mask, _mm256_loadu_pd(grad + j)));
  }
  for (; j < n; ++j) out[j] = in[j] <= 0.0 ? 0.0 : grad[j];
}

GALE_SIMD_AVX2 void LeakyReluForward(double* out, const double* in,
                                     double slope, std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sv = _mm256_set1_pd(slope);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d v = _mm256_loadu_pd(in + j);
    const __m256d le = _mm256_cmp_pd(v, zero, _CMP_LE_OQ);
    const __m256d scaled = _mm256_mul_pd(sv, v);
    _mm256_storeu_pd(out + j, _mm256_blendv_pd(v, scaled, le));
  }
  for (; j < n; ++j) {
    const double v = in[j];
    out[j] = v > 0.0 ? v : slope * v;
  }
}

GALE_SIMD_AVX2 void LeakyReluBackward(double* out, const double* grad,
                                      const double* in, double slope,
                                      std::size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d sv = _mm256_set1_pd(slope);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d g = _mm256_loadu_pd(grad + j);
    const __m256d le =
        _mm256_cmp_pd(_mm256_loadu_pd(in + j), zero, _CMP_LE_OQ);
    const __m256d scaled = _mm256_mul_pd(g, sv);
    _mm256_storeu_pd(out + j, _mm256_blendv_pd(g, scaled, le));
  }
  for (; j < n; ++j) out[j] = in[j] <= 0.0 ? grad[j] * slope : grad[j];
}

GALE_SIMD_AVX2 void SigmoidBackward(double* out, const double* grad,
                                    const double* s, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d sj = _mm256_loadu_pd(s + j);
    const __m256d t = _mm256_mul_pd(sj, _mm256_sub_pd(one, sj));
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(grad + j), t));
  }
  for (; j < n; ++j) out[j] = grad[j] * (s[j] * (1.0 - s[j]));
}

GALE_SIMD_AVX2 void TanhBackward(double* out, const double* grad,
                                 const double* t, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d tj = _mm256_loadu_pd(t + j);
    const __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(tj, tj));
    _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(grad + j), d));
  }
  for (; j < n; ++j) out[j] = grad[j] * (1.0 - t[j] * t[j]);
}

GALE_SIMD_AVX2 void AdamUpdate(double* p, double* m, double* v,
                               const double* g, double lr, double beta1,
                               double beta2, double bias1, double bias2,
                               double eps, std::size_t n) {
  const __m256d b1 = _mm256_set1_pd(beta1);
  const __m256d b2 = _mm256_set1_pd(beta2);
  const __m256d omb1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d omb2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d bias1v = _mm256_set1_pd(bias1);
  const __m256d bias2v = _mm256_set1_pd(bias2);
  const __m256d lrv = _mm256_set1_pd(lr);
  const __m256d epsv = _mm256_set1_pd(eps);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d grad = _mm256_loadu_pd(g + j);
    const __m256d mj = _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + j)),
                                     _mm256_mul_pd(omb1, grad));
    const __m256d vj =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + j)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2, grad), grad));
    _mm256_storeu_pd(m + j, mj);
    _mm256_storeu_pd(v + j, vj);
    const __m256d m_hat = _mm256_div_pd(mj, bias1v);
    const __m256d v_hat = _mm256_div_pd(vj, bias2v);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), epsv);
    const __m256d step = _mm256_div_pd(_mm256_mul_pd(lrv, m_hat), denom);
    _mm256_storeu_pd(p + j, _mm256_sub_pd(_mm256_loadu_pd(p + j), step));
  }
  if (j < n) {
    scalar::AdamUpdate(p + j, m + j, v + j, g + j, lr, beta1, beta2, bias1,
                       bias2, eps, n - j);
  }
}

// ((a0*x0 + a1*x1) + a2*x2) + a3*x3 with a broadcast from ar[0..3] — one
// k-group term of Axpy4, four output columns wide.
GALE_SIMD_AVX2 __m256d Axpy4Term(const double* ar, __m256d x0, __m256d x1,
                                 __m256d x2, __m256d x3) {
  __m256d s = _mm256_add_pd(_mm256_mul_pd(_mm256_broadcast_sd(ar), x0),
                            _mm256_mul_pd(_mm256_broadcast_sd(ar + 1), x1));
  s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_broadcast_sd(ar + 2), x2));
  return _mm256_add_pd(s, _mm256_mul_pd(_mm256_broadcast_sd(ar + 3), x3));
}

GALE_SIMD_AVX2 void MatMulTile4x8(double* out, std::size_t ldo,
                                  const double* a, std::size_t lda,
                                  const double* b, std::size_t ldb,
                                  std::size_t k) {
  // c[r][h]: row r, columns 4h..4h+3 — the 32 outputs stay in registers
  // for the whole k loop instead of being re-read per k-group.
  __m256d c[4][2];
  for (std::size_t r = 0; r < 4; ++r) {
    c[r][0] = _mm256_loadu_pd(out + r * ldo);
    c[r][1] = _mm256_loadu_pd(out + r * ldo + 4);
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const double* b0 = b + p * ldb;
    for (std::size_t h = 0; h < 2; ++h) {
      const __m256d x0 = _mm256_loadu_pd(b0 + 4 * h);
      const __m256d x1 = _mm256_loadu_pd(b0 + ldb + 4 * h);
      const __m256d x2 = _mm256_loadu_pd(b0 + 2 * ldb + 4 * h);
      const __m256d x3 = _mm256_loadu_pd(b0 + 3 * ldb + 4 * h);
      for (std::size_t r = 0; r < 4; ++r) {
        c[r][h] = _mm256_add_pd(c[r][h],
                                Axpy4Term(a + r * lda + p, x0, x1, x2, x3));
      }
    }
  }
  for (; p < k; ++p) {
    const __m256d x0 = _mm256_loadu_pd(b + p * ldb);
    const __m256d x1 = _mm256_loadu_pd(b + p * ldb + 4);
    for (std::size_t r = 0; r < 4; ++r) {
      const __m256d av = _mm256_broadcast_sd(a + r * lda + p);
      c[r][0] = _mm256_add_pd(c[r][0], _mm256_mul_pd(av, x0));
      c[r][1] = _mm256_add_pd(c[r][1], _mm256_mul_pd(av, x1));
    }
  }
  for (std::size_t r = 0; r < 4; ++r) {
    _mm256_storeu_pd(out + r * ldo, c[r][0]);
    _mm256_storeu_pd(out + r * ldo + 4, c[r][1]);
  }
}

GALE_SIMD_AVX2 void DotTile2x4(double* out, std::size_t ldo, const double* a,
                               std::size_t lda, const double* b,
                               std::size_t ldb, std::size_t k) {
  // acc[r][j] is Dot4's register for the pair (a row r, b row j): lane l
  // sums the p ≡ l (mod 4) terms.
  __m256d acc[2][4];
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t j = 0; j < 4; ++j) acc[r][j] = _mm256_setzero_pd();
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    const __m256d a0 = _mm256_loadu_pd(a + p);
    const __m256d a1 = _mm256_loadu_pd(a + lda + p);
    for (std::size_t j = 0; j < 4; ++j) {
      const __m256d bj = _mm256_loadu_pd(b + j * ldb + p);
      acc[0][j] = _mm256_add_pd(acc[0][j], _mm256_mul_pd(a0, bj));
      acc[1][j] = _mm256_add_pd(acc[1][j], _mm256_mul_pd(a1, bj));
    }
  }
  for (std::size_t r = 0; r < 2; ++r) {
    // Transpose so lane j of lane_l holds accumulator l of pair j; then
    // the tail into acc0 and the (acc0+acc1)+(acc2+acc3) combine run for
    // all four pairs at once, in Dot4's order.
    const __m256d t0 = _mm256_unpacklo_pd(acc[r][0], acc[r][1]);
    const __m256d t1 = _mm256_unpackhi_pd(acc[r][0], acc[r][1]);
    const __m256d t2 = _mm256_unpacklo_pd(acc[r][2], acc[r][3]);
    const __m256d t3 = _mm256_unpackhi_pd(acc[r][2], acc[r][3]);
    __m256d lane0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d lane1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d lane2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d lane3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    const double* ar = a + r * lda;
    for (std::size_t q = p; q < k; ++q) {
      const __m256d bq = _mm256_set_pd(b[3 * ldb + q], b[2 * ldb + q],
                                       b[ldb + q], b[q]);
      lane0 = _mm256_add_pd(lane0,
                            _mm256_mul_pd(_mm256_broadcast_sd(ar + q), bq));
    }
    _mm256_storeu_pd(out + r * ldo,
                     _mm256_add_pd(_mm256_add_pd(lane0, lane1),
                                   _mm256_add_pd(lane2, lane3)));
  }
}

GALE_SIMD_AVX2 void DistanceSquared8(double* out, const double* x,
                                     const double* panel, std::size_t d) {
  // Lane l of {acc_lo, acc_hi} is centroid l's serial chain.
  __m256d acc_lo = _mm256_setzero_pd();
  __m256d acc_hi = _mm256_setzero_pd();
  for (std::size_t c = 0; c < d; ++c) {
    const __m256d xc = _mm256_broadcast_sd(x + c);
    const double* pc = panel + c * kDistanceLanes;
    const __m256d d_lo = _mm256_sub_pd(xc, _mm256_loadu_pd(pc));
    const __m256d d_hi = _mm256_sub_pd(xc, _mm256_loadu_pd(pc + 4));
    acc_lo = _mm256_add_pd(acc_lo, _mm256_mul_pd(d_lo, d_lo));
    acc_hi = _mm256_add_pd(acc_hi, _mm256_mul_pd(d_hi, d_hi));
  }
  _mm256_storeu_pd(out, acc_lo);
  _mm256_storeu_pd(out + 4, acc_hi);
}

}  // namespace avx2

#undef GALE_SIMD_AVX2

// ---------------------------------------------------------------------------
// AVX-512 (8 double lanes) — bodies only for the products the SGAN epoch
// spends its time in; every other primitive runs its AVX2 body on an
// AVX-512 CPU. Tails run as one masked 8-lane step: the masked lanes load
// zeros and are never stored.
// ---------------------------------------------------------------------------

#define GALE_SIMD_AVX512 __attribute__((target("avx512f"))) inline

namespace avx512 {

// Lanes [0, r) of an 8-lane register, r <= 8.
GALE_SIMD_AVX512 __mmask8 Lanes(std::size_t r) {
  return static_cast<__mmask8>((1u << r) - 1u);
}

// a[0]·x[0][j..] + a[1]·x[1][j..] + ... over T terms, folded left to right
// (Axpy4's tree with its last terms dropped), on the lanes in m.
template <std::size_t T>
GALE_SIMD_AVX512 __m512d FoldTerms(const __m512d* a, const double* const* x,
                                   std::size_t j, __mmask8 m) {
  __m512d s = _mm512_mul_pd(a[0], _mm512_maskz_loadu_pd(m, x[0] + j));
#pragma GCC unroll 4
  for (std::size_t t = 1; t < T; ++t) {
    s = _mm512_add_pd(
        s, _mm512_mul_pd(a[t], _mm512_maskz_loadu_pd(m, x[t] + j)));
  }
  return s;
}

// out[0, n) += the T-term fold: Axpy (T = 1) through Axpy4 (T = 4).
template <std::size_t T>
GALE_SIMD_AVX512 void AxpyTerms(double* out, const double* const* x,
                                const double* a, std::size_t n) {
  __m512d av[T];
#pragma GCC unroll 4
  for (std::size_t t = 0; t < T; ++t) av[t] = _mm512_set1_pd(a[t]);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512d s = FoldTerms<T>(av, x, j, 0xFF);
    _mm512_storeu_pd(out + j, _mm512_add_pd(_mm512_loadu_pd(out + j), s));
  }
  if (j < n) {
    const __mmask8 m = Lanes(n - j);
    const __m512d s = FoldTerms<T>(av, x, j, m);
    _mm512_mask_storeu_pd(
        out + j, m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, out + j), s));
  }
}

GALE_SIMD_AVX512 void Axpy(double* out, const double* x, double a,
                           std::size_t n) {
  AxpyTerms<1>(out, &x, &a, n);
}

GALE_SIMD_AVX512 void Axpy4(double* out, const double* x0, const double* x1,
                            const double* x2, const double* x3, double a0,
                            double a1, double a2, double a3, std::size_t n) {
  const double* x[4] = {x0, x1, x2, x3};
  const double a[4] = {a0, a1, a2, a3};
  AxpyTerms<4>(out, x, a, n);
}

// acc[0, B) += the T-term fold of the x rows idx[0, T) with weights
// vals[0, T): one k-group (or ragged term) of a register-resident line.
template <std::size_t B, std::size_t T>
GALE_SIMD_AVX512 void AddFold(__m512d* acc, const double* x,
                              const std::uint32_t* idx, const double* vals) {
  const double* xs[T];
  __m512d av[T];
#pragma GCC unroll 4
  for (std::size_t t = 0; t < T; ++t) {
    xs[t] = x + static_cast<std::size_t>(idx[t]) * (8 * B);
    av[t] = _mm512_set1_pd(vals[t]);
  }
#pragma GCC unroll 8
  for (std::size_t b = 0; b < B; ++b) {
    acc[b] = _mm512_add_pd(acc[b], FoldTerms<T>(av, xs, 8 * b, 0xFF));
  }
}

// The grouped line of width 8·B held in B registers across all its
// k-groups and ragged terms: each group's fold is added once, as Axpy,
// Axpy2, Axpy3 or Axpy4 on its term count would add it.
template <std::size_t B>
GALE_SIMD_AVX512 void GroupedAxpyLineRegs(double* out, const double* x,
                                          const std::uint32_t* idx,
                                          const double* vals, std::size_t k,
                                          std::size_t split, std::size_t end) {
  __m512d acc[B];
#pragma GCC unroll 8
  for (std::size_t b = 0; b < B; ++b) acc[b] = _mm512_loadu_pd(out + 8 * b);
  while (k < split) {
    const std::size_t terms = internal::GroupTerms(idx, k, split);
    if (terms == 4) {
      AddFold<B, 4>(acc, x, idx + k, vals + k);
    } else if (terms == 3) {
      AddFold<B, 3>(acc, x, idx + k, vals + k);
    } else if (terms == 2) {
      AddFold<B, 2>(acc, x, idx + k, vals + k);
    } else {
      AddFold<B, 1>(acc, x, idx + k, vals + k);
    }
    k += terms;
  }
  for (; k < end; ++k) AddFold<B, 1>(acc, x, idx + k, vals + k);
#pragma GCC unroll 8
  for (std::size_t b = 0; b < B; ++b) _mm512_storeu_pd(out + 8 * b, acc[b]);
}

// Lines of n ≤ 64 columns, n % 8 == 0 (D's layer 1: n = hidden_dim) stay
// in registers; any other width runs the AVX2 body.
GALE_SIMD_AVX512 void GroupedAxpyLine(double* out, const double* x,
                                      std::size_t n, const std::uint32_t* idx,
                                      const double* vals, std::size_t k,
                                      std::size_t end, std::size_t aligned) {
  if (n % 8 != 0 || n == 0 || n > 64) {
    avx2::GroupedAxpyLine(out, x, n, idx, vals, k, end, aligned);
    return;
  }
  const std::size_t split = internal::GroupedEnd(idx, k, end, aligned);
  switch (n / 8) {
    case 1: return GroupedAxpyLineRegs<1>(out, x, idx, vals, k, split, end);
    case 2: return GroupedAxpyLineRegs<2>(out, x, idx, vals, k, split, end);
    case 3: return GroupedAxpyLineRegs<3>(out, x, idx, vals, k, split, end);
    case 4: return GroupedAxpyLineRegs<4>(out, x, idx, vals, k, split, end);
    case 5: return GroupedAxpyLineRegs<5>(out, x, idx, vals, k, split, end);
    case 6: return GroupedAxpyLineRegs<6>(out, x, idx, vals, k, split, end);
    case 7: return GroupedAxpyLineRegs<7>(out, x, idx, vals, k, split, end);
    default: return GroupedAxpyLineRegs<8>(out, x, idx, vals, k, split, end);
  }
}

// Four output rows by 8·B columns of A·B held in registers for the whole
// k loop; the last block's lanes are m (all eight unless kMasked). A's
// entry for output row r and reduction index p is a[r·ars + p·aps], so
// the tile serves A·B (ars = lda, aps = 1) and Aᵀ·B (ars = 1, aps = lda).
// Per k-group each row's four broadcasts serve every block, and each
// element adds Axpy4's term, then Axpy's per leftover p.
template <std::size_t B, bool kMasked>
GALE_SIMD_AVX512 void MatMulTile4(double* out, std::size_t ldo,
                                  const double* a, std::size_t ars,
                                  std::size_t aps, const double* b,
                                  std::size_t ldb, std::size_t k, __mmask8 m) {
  const __mmask8 last = kMasked ? m : static_cast<__mmask8>(0xFF);
  __m512d c[4][B];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 4
    for (std::size_t h = 0; h < B; ++h) {
      c[r][h] = _mm512_maskz_loadu_pd(h + 1 == B ? last : 0xFF,
                                      out + r * ldo + 8 * h);
    }
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    __m512d x[4][B];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < 4; ++t) {
#pragma GCC unroll 4
      for (std::size_t h = 0; h < B; ++h) {
        x[t][h] = _mm512_maskz_loadu_pd(h + 1 == B ? last : 0xFF,
                                        b + (p + t) * ldb + 8 * h);
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const double* ar = a + r * ars + p * aps;
      const __m512d a0 = _mm512_set1_pd(ar[0]);
      const __m512d a1 = _mm512_set1_pd(ar[aps]);
      const __m512d a2 = _mm512_set1_pd(ar[2 * aps]);
      const __m512d a3 = _mm512_set1_pd(ar[3 * aps]);
#pragma GCC unroll 4
      for (std::size_t h = 0; h < B; ++h) {
        __m512d s = _mm512_add_pd(_mm512_mul_pd(a0, x[0][h]),
                                  _mm512_mul_pd(a1, x[1][h]));
        s = _mm512_add_pd(s, _mm512_mul_pd(a2, x[2][h]));
        s = _mm512_add_pd(s, _mm512_mul_pd(a3, x[3][h]));
        c[r][h] = _mm512_add_pd(c[r][h], s);
      }
    }
  }
  for (; p < k; ++p) {
    __m512d x[B];
#pragma GCC unroll 4
    for (std::size_t h = 0; h < B; ++h) {
      x[h] = _mm512_maskz_loadu_pd(h + 1 == B ? last : 0xFF,
                                   b + p * ldb + 8 * h);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const __m512d av = _mm512_set1_pd(a[r * ars + p * aps]);
#pragma GCC unroll 4
      for (std::size_t h = 0; h < B; ++h) {
        c[r][h] = _mm512_add_pd(c[r][h], _mm512_mul_pd(av, x[h]));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 4
    for (std::size_t h = 0; h < B; ++h) {
      _mm512_mask_storeu_pd(out + r * ldo + 8 * h, h + 1 == B ? last : 0xFF,
                            c[r][h]);
    }
  }
}

// Every column of four output rows (A's entries strided as in
// MatMulTile4): 16-column tiles, then one 8- or masked 9-15-column tile,
// or one masked tile under eight columns (layer 3's n = 3).
GALE_SIMD_AVX512 void Tiles4(double* out, std::size_t ldo, const double* a,
                             std::size_t ars, std::size_t aps, const double* b,
                             std::size_t ldb, std::size_t k, std::size_t n) {
  std::size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    MatMulTile4<2, false>(out + j, ldo, a, ars, aps, b + j, ldb, k, 0xFF);
  }
  const std::size_t rem = n - j;
  if (rem > 8) {
    MatMulTile4<2, true>(out + j, ldo, a, ars, aps, b + j, ldb, k,
                         Lanes(rem - 8));
  } else if (rem == 8) {
    MatMulTile4<1, false>(out + j, ldo, a, ars, aps, b + j, ldb, k, 0xFF);
  } else if (rem > 0) {
    MatMulTile4<1, true>(out + j, ldo, a, ars, aps, b + j, ldb, k, Lanes(rem));
  }
}

// Every column of the four rows, so no row sweep is left.
GALE_SIMD_AVX512 std::size_t MatMulTiles4(double* out, std::size_t ldo,
                                          const double* a, std::size_t lda,
                                          const double* b, std::size_t ldb,
                                          std::size_t k, std::size_t n) {
  Tiles4(out, ldo, a, lda, 1, b, ldb, k, n);
  return n;
}

// Reduction rows per pass of TransposedMatMulTiles4: a multiple of 4, so
// no k-group straddles two passes, and few enough that a pass's rows of A
// and B stay cached while every output tile reads them.
inline constexpr std::size_t kTransposedPassRows = 128;

// All output rows but rows % 4, in four-row tiles over every column, one
// pass per kTransposedPassRows reduction rows. Each pass adds onto what
// the previous pass stored, so an element still adds its k-groups in
// ascending order and then its leftover rows, which all fall in the last
// pass.
GALE_SIMD_AVX512 std::size_t TransposedMatMulTiles4(
    double* out, std::size_t ldo, const double* a, std::size_t lda,
    const double* b, std::size_t ldb, std::size_t k, std::size_t n,
    std::size_t rows) {
  const std::size_t tiled = rows - rows % 4;
  for (std::size_t p0 = 0; p0 < k; p0 += kTransposedPassRows) {
    const std::size_t depth =
        k - p0 < kTransposedPassRows ? k - p0 : kTransposedPassRows;
    for (std::size_t i = 0; i < tiled; i += 4) {
      Tiles4(out + i * ldo, ldo, a + p0 * lda + i, 1, lda, b + p0 * ldb, ldb,
             depth, n);
    }
  }
  return tiled;
}

// Depth limit of the transposed B panel DotTileRows keeps on the stack.
inline constexpr std::size_t kDotPanelDepth = 256;
// Rows of A per pass over the panels, so they stay in L1 across them.
inline constexpr std::size_t kDotRowBlock = 64;

// out[r][l] = Dot4(a row r, b row l) for r < R and the lanes l in m, with
// b transposed into panel[p·8 + l]: register (r, i) holds Dot4's
// accumulator i of row r for eight columns at once, so the lane split,
// the tail into accumulator 0 and the (0+1)+(2+3) combine are Dot4's.
template <std::size_t R>
GALE_SIMD_AVX512 void DotPanelTile(double* out, std::size_t ldo,
                                   const double* a, std::size_t lda,
                                   const double* panel, std::size_t k,
                                   __mmask8 m) {
  __m512d acc[R][4];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) acc[r][i] = _mm512_setzero_pd();
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    __m512d bp[4];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) {
      bp[i] = _mm512_load_pd(panel + (p + i) * 8);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t i = 0; i < 4; ++i) {
        acc[r][i] = _mm512_add_pd(
            acc[r][i],
            _mm512_mul_pd(_mm512_set1_pd(a[r * lda + p + i]), bp[i]));
      }
    }
  }
  for (; p < k; ++p) {
    const __m512d bp = _mm512_load_pd(panel + p * 8);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = _mm512_add_pd(
          acc[r][0], _mm512_mul_pd(_mm512_set1_pd(a[r * lda + p]), bp));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    _mm512_mask_storeu_pd(
        out + r * ldo, m,
        _mm512_add_pd(_mm512_add_pd(acc[r][0], acc[r][1]),
                      _mm512_add_pd(acc[r][2], acc[r][3])));
  }
}

// Every row: for each block of 64 rows and each eight columns, the
// columns' b rows are transposed into a stack panel and the rows run in
// 4 x 8 tiles (then 1 x 8). k must be at most kDotPanelDepth.
GALE_SIMD_AVX512 std::size_t DotTileRows(double* out, std::size_t ldo,
                                         const double* a, std::size_t lda,
                                         const double* b, std::size_t ldb,
                                         std::size_t k, std::size_t rows,
                                         std::size_t cols) {
  alignas(64) double panel[kDotPanelDepth * 8];
  for (std::size_t i0 = 0; i0 < rows; i0 += kDotRowBlock) {
    const std::size_t i1 = rows - i0 < kDotRowBlock ? rows : i0 + kDotRowBlock;
    for (std::size_t j0 = 0; j0 < cols; j0 += 8) {
      const std::size_t w = cols - j0 < 8 ? cols - j0 : 8;
      for (std::size_t l = 0; l < w; ++l) {
        const double* bl = b + (j0 + l) * ldb;
        for (std::size_t p = 0; p < k; ++p) panel[p * 8 + l] = bl[p];
      }
      for (std::size_t l = w; l < 8; ++l) {
        for (std::size_t p = 0; p < k; ++p) panel[p * 8 + l] = 0.0;
      }
      const __mmask8 m = Lanes(w);
      std::size_t i = i0;
      for (; i + 4 <= i1; i += 4) {
        DotPanelTile<4>(out + i * ldo + j0, ldo, a + i * lda, lda, panel, k, m);
      }
      for (; i < i1; ++i) {
        DotPanelTile<1>(out + i * ldo + j0, ldo, a + i * lda, lda, panel, k, m);
      }
    }
  }
  return rows;
}

}  // namespace avx512

#undef GALE_SIMD_AVX512

#endif  // GALE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch wrappers — what the kernels call
// ---------------------------------------------------------------------------
// Each wrapper costs one relaxed load + branch per row sweep, which is
// noise next to the sweep itself (n is a feature/column count). The
// GALE_SIMD=OFF build compiles straight to the scalar call.

#if GALE_SIMD_X86
// A primitive without an AVX-512 body.
#define GALE_SIMD_DISPATCH(call)                    \
  if (ActiveIsa() >= Isa::kAvx2) return avx2::call; \
  return scalar::call;
// A primitive with an AVX-512 body.
#define GALE_SIMD_DISPATCH512(call)             \
  const Isa isa = ActiveIsa();                  \
  if (isa == Isa::kAvx512) return avx512::call; \
  if (isa == Isa::kAvx2) return avx2::call;     \
  return scalar::call;
#else
#define GALE_SIMD_DISPATCH(call) return scalar::call;
#define GALE_SIMD_DISPATCH512(call) return scalar::call;
#endif

inline void Axpy(double* out, const double* x, double a, std::size_t n) {
  GALE_SIMD_DISPATCH512(Axpy(out, x, a, n))
}

inline void GroupedAxpyLine(double* out, const double* x, std::size_t n,
                            const std::uint32_t* idx, const double* vals,
                            std::size_t k, std::size_t end,
                            std::size_t aligned) {
  GALE_SIMD_DISPATCH512(GroupedAxpyLine(out, x, n, idx, vals, k, end, aligned))
}

inline void CsrGatherStrided(const std::size_t* ptr, const std::uint32_t* idx,
                             const double* vals, const double* in,
                             std::size_t width, std::size_t stride,
                             double* out, std::size_t r0, std::size_t r1) {
  GALE_SIMD_DISPATCH(
      CsrGatherStrided(ptr, idx, vals, in, width, stride, out, r0, r1))
}

// The sliced gather is AVX2's width-1 product (AVX-512 runs it too) and
// has no scalar twin: the scalar tier's width-1 product is
// CsrGatherStrided over the CSR rows, the reference the sliced kernel is
// checked against. Callers run SlicedGather only while
// SlicedGatherActive().
#if GALE_SIMD_X86
inline bool SlicedGatherActive() { return ActiveIsa() >= Isa::kAvx2; }

inline void SlicedGather(const std::size_t* chunk_ptr,
                         const std::uint32_t* lens, const std::uint32_t* rows,
                         std::size_t num_rows, const std::uint32_t* idx,
                         const double* vals, const double* in,
                         std::size_t stride, double* out, std::size_t c0,
                         std::size_t c1) {
  avx2::SlicedGather(chunk_ptr, lens, rows, num_rows, idx, vals, in, stride,
                     out, c0, c1);
}
#else
inline bool SlicedGatherActive() { return false; }

// Never reached: SlicedGatherActive() is false in this build.
inline void SlicedGather(const std::size_t*, const std::uint32_t*,
                         const std::uint32_t*, std::size_t,
                         const std::uint32_t*, const double*, const double*,
                         std::size_t, double*, std::size_t, std::size_t) {}
#endif

inline void Axpy4(double* out, const double* x0, const double* x1,
                  const double* x2, const double* x3, double a0, double a1,
                  double a2, double a3, std::size_t n) {
  GALE_SIMD_DISPATCH512(Axpy4(out, x0, x1, x2, x3, a0, a1, a2, a3, n))
}

inline double Dot4(const double* a, const double* b, std::size_t n) {
  GALE_SIMD_DISPATCH(Dot4(a, b, n))
}

inline void Add(double* out, const double* a, const double* b,
                std::size_t n) {
  GALE_SIMD_DISPATCH(Add(out, a, b, n))
}

inline void Sub(double* out, const double* a, const double* b,
                std::size_t n) {
  GALE_SIMD_DISPATCH(Sub(out, a, b, n))
}

inline void Mul(double* out, const double* a, const double* b,
                std::size_t n) {
  GALE_SIMD_DISPATCH(Mul(out, a, b, n))
}

inline void Scale(double* out, const double* a, double s, std::size_t n) {
  GALE_SIMD_DISPATCH(Scale(out, a, s, n))
}

inline void AddAssign(double* out, const double* x, std::size_t n) {
  GALE_SIMD_DISPATCH(AddAssign(out, x, n))
}

inline void SubAssign(double* out, const double* x, std::size_t n) {
  GALE_SIMD_DISPATCH(SubAssign(out, x, n))
}

inline void ScaleAssign(double* out, double s, std::size_t n) {
  GALE_SIMD_DISPATCH(ScaleAssign(out, s, n))
}

inline void MulAssign(double* out, const double* x, std::size_t n) {
  GALE_SIMD_DISPATCH(MulAssign(out, x, n))
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

inline void MatMulTile4x8(double* out, std::size_t ldo, const double* a,
                          std::size_t lda, const double* b, std::size_t ldb,
                          std::size_t k) {
  GALE_SIMD_DISPATCH(MatMulTile4x8(out, ldo, a, lda, b, ldb, k))
}

inline void DotTile2x4(double* out, std::size_t ldo, const double* a,
                       std::size_t lda, const double* b, std::size_t ldb,
                       std::size_t k) {
  GALE_SIMD_DISPATCH(DotTile2x4(out, ldo, a, lda, b, ldb, k))
}

// Adds A·B (a: 4 x k, b: k x n) onto the leading columns of four output
// rows that the active tier's tiles cover and returns how many: every
// column on AVX-512, else n - n % 8 in the 4 x 8 tiles. The caller adds
// the rest with the Axpy4/Axpy row sweep.
inline std::size_t MatMulTiles4(double* out, std::size_t ldo, const double* a,
                                std::size_t lda, const double* b,
                                std::size_t ldb, std::size_t k, std::size_t n) {
#if GALE_SIMD_X86
  if (ActiveIsa() == Isa::kAvx512) {
    return avx512::MatMulTiles4(out, ldo, a, lda, b, ldb, k, n);
  }
#endif
  const std::size_t n8 = n - n % 8;
  for (std::size_t j = 0; j < n8; j += 8) {
    MatMulTile4x8(out + j, ldo, a, lda, b + j, ldb, k);
  }
  return n8;
}

// Adds Aᵀ·B (a: k x rows, b: k x n) onto the leading output rows that
// the active tier's tiles cover and returns how many: rows - rows % 4 on
// AVX-512, else none. The caller adds the rest with Axpy4/Axpy sweeps
// over four source rows at a time.
inline std::size_t TransposedMatMulTiles4(double* out, std::size_t ldo,
                                          const double* a, std::size_t lda,
                                          const double* b, std::size_t ldb,
                                          std::size_t k, std::size_t n,
                                          std::size_t rows) {
#if GALE_SIMD_X86
  if (ActiveIsa() == Isa::kAvx512) {
    return avx512::TransposedMatMulTiles4(out, ldo, a, lda, b, ldb, k, n,
                                          rows);
  }
#endif
  return 0;
}

// out[r][j] = Dot4(a row r, b row j, k) for j < cols over the leading rows
// of a (rows x k) that the active tier's tiles cover, and returns how
// many: every row on AVX-512 at depths up to its panel's, else
// rows - rows % 2 in 2 x 4 tiles plus Dot4 for the ragged columns. The
// caller computes the remaining rows with Dot4.
inline std::size_t DotTileRows(double* out, std::size_t ldo, const double* a,
                               std::size_t lda, const double* b,
                               std::size_t ldb, std::size_t k,
                               std::size_t rows, std::size_t cols) {
#if GALE_SIMD_X86
  if (ActiveIsa() == Isa::kAvx512 && k <= avx512::kDotPanelDepth) {
    return avx512::DotTileRows(out, ldo, a, lda, b, ldb, k, rows, cols);
  }
#endif
  const std::size_t n4 = cols - cols % 4;
  std::size_t i = 0;
  for (; i + 2 <= rows; i += 2) {
    const double* a_rows = a + i * lda;
    double* out_rows = out + i * ldo;
    for (std::size_t j = 0; j < n4; j += 4) {
      DotTile2x4(out_rows + j, ldo, a_rows, lda, b + j * ldb, ldb, k);
    }
    for (std::size_t j = n4; j < cols; ++j) {
      out_rows[j] = Dot4(a_rows, b + j * ldb, k);
      out_rows[ldo + j] = Dot4(a_rows + lda, b + j * ldb, k);
    }
  }
  return i;
}

inline void DistanceSquared8(double* out, const double* x, const double* panel,
                             std::size_t d) {
  GALE_SIMD_DISPATCH(DistanceSquared8(out, x, panel, d))
}

#undef GALE_SIMD_DISPATCH
#undef GALE_SIMD_DISPATCH512

}  // namespace gale::la::simd

#endif  // GALE_LA_SIMD_H_
