// Portable SIMD substrate for the dense/sparse hot kernels: double-lane
// primitives in two tiers, an AVX2 (4 lanes) implementation and the
// scalar reference, selected once at runtime. This header is the ONE home
// for vendor intrinsics in the tree (gale_analyze rule `simd-intrinsics`).
//
// Determinism contract — bitwise identity with the scalar path:
//  * Every primitive vectorizes across *independent output elements*
//    (the j/output-column direction), never across a sequential
//    reduction. Lane l of a vector step computes exactly the expression
//    the scalar loop computes for element j+l — same operands, same
//    operation tree — so the result of each element is one fixed IEEE-754
//    evaluation regardless of lane width.
//  * Multiplies and adds stay separate instructions (no _mm*_fmadd_*):
//    an FMA contracts mul+add into one rounding and would diverge from
//    the scalar path. For the same reason the whole project compiles with
//    -ffp-contract=off, so the compiler cannot contract the scalar
//    reference loops either.
//  * The one reduction shape, Dot4, mirrors the fixed four-accumulator
//    split of the scalar kernel: accumulator i sums the k ≡ i (mod 4)
//    terms and the final combine is (acc0+acc1)+(acc2+acc3). AVX2 maps
//    the four accumulators onto the four lanes of one register; the
//    summation tree is identical in both tiers, and the tail accumulates
//    into acc0 exactly like the scalar remainder loop.
//  * The register tiles (MatMulTile4x8, DotTile2x4, DistanceSquared8) hold
//    a block of outputs in registers across the whole reduction instead
//    of re-reading each output per step. They still vectorize only across
//    independent output elements, and each element's tree is fixed: the
//    A·B tile adds one Axpy4 term per k-group in ascending k, then the
//    Axpy tail; the A·Bᵀ tile is eight Dot4s with Dot4's lane split, tail
//    and combine; a distance lane is RowDistanceSquared's serial chain.
//    So a tile, a row sweep of Axpy4/Axpy calls, and a Dot4 call give an
//    element the same bits, and callers send ragged rows and columns
//    through Axpy4/Axpy/Dot4 on sub-ranges.
//  Consequently scalar and AVX2 results are bitwise equal to each
//  other and (because the kernels shard over disjoint output rows) to
//  every GALE_NUM_THREADS setting — pinned by simd_equivalence_test and
//  la_parallel_equivalence_test.
//
// Dispatch rules:
//  * GALE_SIMD=OFF at configure time compiles the scalar path only (no
//    <immintrin.h> anywhere in the build).
//  * With GALE_SIMD=ON (the default) the ISA is resolved once, on first
//    use: the GALE_SIMD_ISA environment variable (scalar|avx2) if set,
//    else AVX2 when __builtin_cpu_supports says so, else scalar. An avx2
//    request on a CPU without AVX2 runs scalar; any other value keeps the
//    probed default.
//  * Every primitive follows one rule: the AVX2 body when AVX2 is the
//    active ISA, else the scalar reference.
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

enum class Isa : int { kScalar = 0, kAvx2 = 1 };

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

// Human-readable ISA name ("scalar", "avx2").
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
// 4-column chunk, one scalar per leftover column. (la::SparseMatrix sends
// width 1 to SlicedGather instead, which puts four rows in the lanes.)
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
    for (; j + 4 <= width; j += 4) {
      __m256d acc = _mm256_setzero_pd();
      for (std::size_t k = k0; k < k1; ++k) {
        const double* x = in + static_cast<std::size_t>(idx[k]) * stride + j;
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(_mm256_set1_pd(vals[k]), _mm256_loadu_pd(x)));
      }
      _mm256_storeu_pd(out_row + j, acc);
    }
    for (; j < width; ++j) {
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

#endif  // GALE_SIMD_X86

// ---------------------------------------------------------------------------
// Dispatch wrappers — what the kernels call
// ---------------------------------------------------------------------------
// Each wrapper costs one relaxed load + branch per row sweep, which is
// noise next to the sweep itself (n is a feature/column count). The
// GALE_SIMD=OFF build compiles straight to the scalar call.

#if GALE_SIMD_X86
#define GALE_SIMD_DISPATCH(call)                    \
  if (ActiveIsa() == Isa::kAvx2) return avx2::call; \
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

// The sliced gather is AVX2's width-1 product and has no scalar twin: the
// scalar tier's width-1 product is CsrGatherStrided over the CSR rows,
// the reference the sliced kernel is checked against. Callers run
// SlicedGather only while SlicedGatherActive().
#if GALE_SIMD_X86
inline bool SlicedGatherActive() { return ActiveIsa() == Isa::kAvx2; }

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
  GALE_SIMD_DISPATCH(Axpy4(out, x0, x1, x2, x3, a0, a1, a2, a3, n))
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

inline void DistanceSquared8(double* out, const double* x, const double* panel,
                             std::size_t d) {
  GALE_SIMD_DISPATCH(DistanceSquared8(out, x, panel, d))
}

#undef GALE_SIMD_DISPATCH

}  // namespace gale::la::simd

#endif  // GALE_LA_SIMD_H_
