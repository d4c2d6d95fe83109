// The vector kernels, each written once over the lane-traits type `Lanes`
// of the enclosing tier: simd.h includes this file into avx2::generic
// under #pragma GCC target("avx2") and into avx512::generic under
// target("avx512f"), so no include guard and no includes. No intrinsics
// either: the traits hold them (gale_analyze rule simd-intrinsics) and
// give V (kWidth doubles), Mask (the live lanes of a tail), Cmp (a
// compare result, or lanes from bits by FromBits), kRegisters and the
// lane-wise operations. Each lane computes the scalar reference's tree for
// its own element (simd.h states the argument); a tail of n % kWidth
// elements runs as one masked step whose dead lanes load zeros and are
// never stored.

using V = Lanes::V;
using Mask = Lanes::Mask;
inline constexpr std::size_t kW = Lanes::kWidth;

// A step's access mode: every lane (Whole) or the lanes in its mask (Tail).
using Whole = std::false_type;
using Tail = std::true_type;

inline V Ld(Whole, const double* p, Mask) { return Lanes::Load(p); }
inline V Ld(Tail, const double* p, Mask m) { return Lanes::MaskLoad(m, p); }
inline void St(Whole, double* p, Mask, V v) { Lanes::Store(p, v); }
inline void St(Tail, double* p, Mask m, V v) { Lanes::MaskStore(p, m, v); }

// Runs step(part, j, m) on each register of [0, n): the whole ones, then
// the leftover n % kW elements as one Tail step with their lanes in m.
template <typename Step>
inline void ForEachRegister(std::size_t n, Step step) {
  std::size_t j = 0;
  for (; j + kW <= n; j += kW) step(Whole{}, j, Mask{});
  if (j < n) step(Tail{}, j, Lanes::FirstLanes(n - j));
}

// out[j] = op(a[j]), or op(a[j], b[j]), for j < n.
template <typename Op>
inline void Map(double* out, const double* a, std::size_t n, Op op) {
  ForEachRegister(n, [&](auto part, std::size_t j, Mask m) {
    St(part, out + j, m, op(Ld(part, a + j, m)));
  });
}

template <typename Op>
inline void Map(double* out, const double* a, const double* b, std::size_t n,
                Op op) {
  ForEachRegister(n, [&](auto part, std::size_t j, Mask m) {
    St(part, out + j, m, op(Ld(part, a + j, m), Ld(part, b + j, m)));
  });
}

// --- Elementwise sweeps, activations, Adam ---------------------------------

inline void Add(double* out, const double* a, const double* b, std::size_t n) {
  Map(out, a, b, n, [](auto x, auto y) { return Lanes::Add(x, y); });
}

inline void Sub(double* out, const double* a, const double* b, std::size_t n) {
  Map(out, a, b, n, [](auto x, auto y) { return Lanes::Sub(x, y); });
}

inline void Mul(double* out, const double* a, const double* b, std::size_t n) {
  Map(out, a, b, n, [](auto x, auto y) { return Lanes::Mul(x, y); });
}

inline void Scale(double* out, const double* a, double s, std::size_t n) {
  const V sv = Lanes::Set1(s);
  Map(out, a, n, [sv](auto x) { return Lanes::Mul(x, sv); });
}

// m[r][j] += row[j] for every row r < rows.
inline void AddRowBroadcast(double* m, const double* row, std::size_t rows,
                            std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r, m += cols) Add(m, m, row, cols);
}

// acc[j] += m[r][j] for r = 0, 1, ..., rows - 1 in turn.
inline void AddColSum(double* acc, const double* m, std::size_t rows,
                      std::size_t cols) {
  for (std::size_t r = 0; r < rows; ++r) Add(acc, acc, m + r * cols, cols);
}

// max(v, 0) returns its second operand, +0.0, for v = ±0.0 and NaN, which
// is the scalar branch's `v > 0 ? v : 0`.
inline void ReluForward(double* out, const double* in, std::size_t n) {
  const V zero = Lanes::Zero();
  Map(out, in, n, [zero](auto v) { return Lanes::Max(v, zero); });
}

inline void ReluBackward(double* out, const double* grad, const double* in,
                         std::size_t n) {
  const V zero = Lanes::Zero();
  Map(out, grad, in, n, [zero](auto g, auto v) {
    return Lanes::Select(Lanes::CmpLe(v, zero), zero, g);
  });
}

inline void LeakyReluForward(double* out, const double* in, double slope,
                             std::size_t n) {
  const V zero = Lanes::Zero();
  const V sv = Lanes::Set1(slope);
  Map(out, in, n, [zero, sv](auto v) {
    return Lanes::Select(Lanes::CmpLe(v, zero), Lanes::Mul(sv, v), v);
  });
}

inline void LeakyReluBackward(double* out, const double* grad,
                              const double* in, double slope, std::size_t n) {
  const V zero = Lanes::Zero();
  const V sv = Lanes::Set1(slope);
  Map(out, grad, in, n, [zero, sv](auto g, auto v) {
    return Lanes::Select(Lanes::CmpLe(v, zero), Lanes::Mul(g, sv), g);
  });
}

// The keep bits of the register at element j (a multiple of kW, so the
// register's bits never straddle two words).
inline Lanes::Cmp KeepLanes(const std::uint64_t* keep, std::size_t j) {
  return Lanes::FromBits(keep[j / 64] >> (j % 64));
}

inline void LeakyReluDropoutForward(double* out, const double* in,
                                    const std::uint64_t* keep, double slope,
                                    double scale, std::size_t n) {
  const V zero = Lanes::Zero();
  const V sv = Lanes::Set1(slope);
  const V scalev = Lanes::Set1(scale);
  ForEachRegister(n, [&](auto part, std::size_t j, Mask m) {
    const V v = Ld(part, in + j, m);
    const V a = Lanes::Select(Lanes::CmpLe(v, zero), Lanes::Mul(sv, v), v);
    St(part, out + j, m,
       Lanes::Select(KeepLanes(keep, j), Lanes::Mul(a, scalev), zero));
  });
}

inline void LeakyReluDropoutBackward(double* out, const double* grad,
                                     const double* in,
                                     const std::uint64_t* keep, double slope,
                                     double scale, std::size_t n) {
  const V zero = Lanes::Zero();
  const V sv = Lanes::Set1(slope);
  const V scalev = Lanes::Set1(scale);
  ForEachRegister(n, [&](auto part, std::size_t j, Mask m) {
    const V t = Lanes::Mul(Ld(part, grad + j, m),
                           Lanes::Select(KeepLanes(keep, j), scalev, zero));
    St(part, out + j, m,
       Lanes::Select(Lanes::CmpLe(Ld(part, in + j, m), zero),
                     Lanes::Mul(t, sv), t));
  });
}

inline void SigmoidBackward(double* out, const double* grad, const double* s,
                            std::size_t n) {
  const V one = Lanes::Set1(1.0);
  Map(out, grad, s, n, [one](auto g, auto sj) {
    return Lanes::Mul(g, Lanes::Mul(sj, Lanes::Sub(one, sj)));
  });
}

inline void TanhBackward(double* out, const double* grad, const double* t,
                         std::size_t n) {
  const V one = Lanes::Set1(1.0);
  Map(out, grad, t, n, [one](auto g, auto tj) {
    return Lanes::Mul(g, Lanes::Sub(one, Lanes::Mul(tj, tj)));
  });
}

inline void AdamUpdate(double* p, double* m, double* v, const double* g,
                       double lr, double beta1, double beta2, double bias1,
                       double bias2, double eps, std::size_t n) {
  const V b1 = Lanes::Set1(beta1);
  const V b2 = Lanes::Set1(beta2);
  const V omb1 = Lanes::Set1(1.0 - beta1);
  const V omb2 = Lanes::Set1(1.0 - beta2);
  const V bias1v = Lanes::Set1(bias1);
  const V bias2v = Lanes::Set1(bias2);
  const V lrv = Lanes::Set1(lr);
  const V epsv = Lanes::Set1(eps);
  ForEachRegister(n, [&](auto part, std::size_t j, Mask lanes) {
    const V grad = Ld(part, g + j, lanes);
    const V mj = Lanes::Add(Lanes::Mul(b1, Ld(part, m + j, lanes)),
                            Lanes::Mul(omb1, grad));
    const V vj = Lanes::Add(Lanes::Mul(b2, Ld(part, v + j, lanes)),
                            Lanes::Mul(Lanes::Mul(omb2, grad), grad));
    St(part, m + j, lanes, mj);
    St(part, v + j, lanes, vj);
    const V m_hat = Lanes::Div(mj, bias1v);
    const V v_hat = Lanes::Div(vj, bias2v);
    const V denom = Lanes::Add(Lanes::Sqrt(v_hat), epsv);
    const V step = Lanes::Div(Lanes::Mul(lrv, m_hat), denom);
    St(part, p + j, lanes, Lanes::Sub(Ld(part, p + j, lanes), step));
  });
}

// --- The Axpy family and the grouped sparse line ---------------------------

// a[0]·x[0][j..] + a[1]·x[1][j..] + ... over T terms, folded left to right
// (Axpy4's tree with its last terms dropped).
template <std::size_t T, typename Part>
inline V Fold(Part part, const V* a, const double* const* x, std::size_t j,
              Mask m) {
  V s = Lanes::Mul(a[0], Ld(part, x[0] + j, m));
#pragma GCC unroll 4
  for (std::size_t t = 1; t < T; ++t) {
    s = Lanes::Add(s, Lanes::Mul(a[t], Ld(part, x[t] + j, m)));
  }
  return s;
}

// out[0, n) += the T-term fold: Axpy (T = 1) through Axpy4 (T = 4).
template <std::size_t T>
inline void AxpyTerms(double* out, const double* const* x, const double* a,
                      std::size_t n) {
  V av[T];
#pragma GCC unroll 4
  for (std::size_t t = 0; t < T; ++t) av[t] = Lanes::Set1(a[t]);
  ForEachRegister(n, [&](auto part, std::size_t j, Mask m) {
    St(part, out + j, m,
       Lanes::Add(Ld(part, out + j, m), Fold<T>(part, av, x, j, m)));
  });
}

inline void Axpy(double* out, const double* x, double a, std::size_t n) {
  AxpyTerms<1>(out, &x, &a, n);
}

inline void Axpy4(double* out, const double* x0, const double* x1,
                  const double* x2, const double* x3, double a0, double a1,
                  double a2, double a3, std::size_t n) {
  const double* x[4] = {x0, x1, x2, x3};
  const double a[4] = {a0, a1, a2, a3};
  AxpyTerms<4>(out, x, a, n);
}

template <std::size_t T>
using Terms = std::integral_constant<std::size_t, T>;

// Calls add(Terms<T>{}, k) for each k-group of a sparse line's grouped part
// [k, split), T its term count, then add(Terms<1>{}, k) for each ragged
// entry of [split, end).
template <typename AddGroup>
inline void ForEachGroup(const std::uint32_t* idx, std::size_t k,
                         std::size_t split, std::size_t end, AddGroup add) {
  while (k < split) {
    const std::size_t terms = internal::GroupTerms(idx, k, split);
    switch (terms) {
      case 4: add(Terms<4>{}, k); break;
      case 3: add(Terms<3>{}, k); break;
      case 2: add(Terms<2>{}, k); break;
      default: add(Terms<1>{}, k); break;
    }
    k += terms;
  }
  for (; k < end; ++k) add(Terms<1>{}, k);
}

// The grouped line of width kW·B held in B registers across all its
// k-groups and ragged terms: each group's fold is added once, as
// AxpyTerms on its term count would add it.
template <std::size_t B>
inline void LineInRegisters(double* out, const double* x,
                            const std::uint32_t* idx, const double* vals,
                            std::size_t k, std::size_t split,
                            std::size_t end) {
  V acc[B];
#pragma GCC unroll 8
  for (std::size_t b = 0; b < B; ++b) acc[b] = Lanes::Load(out + kW * b);
  ForEachGroup(idx, k, split, end, [&](auto terms, std::size_t g) {
    constexpr std::size_t T = decltype(terms)::value;
    const double* xs[T];
    V av[T];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < T; ++t) {
      xs[t] = x + static_cast<std::size_t>(idx[g + t]) * (kW * B);
      av[t] = Lanes::Set1(vals[g + t]);
    }
#pragma GCC unroll 8
    for (std::size_t b = 0; b < B; ++b) {
      acc[b] = Lanes::Add(acc[b], Fold<T>(Whole{}, av, xs, kW * b, Mask{}));
    }
  });
#pragma GCC unroll 8
  for (std::size_t b = 0; b < B; ++b) Lanes::Store(out + kW * b, acc[b]);
}

// A line of up to eight whole registers stays in them (eight beside four
// term broadcasts and the fold fit AVX2's sixteen); any other width adds
// each group's fold onto out.
inline void GroupedAxpyLine(double* out, const double* x, std::size_t n,
                            const std::uint32_t* idx, const double* vals,
                            std::size_t k, std::size_t end,
                            std::size_t aligned) {
  const std::size_t split = internal::GroupedEnd(idx, k, end, aligned);
  switch (n % kW == 0 ? n / kW : 0) {
    case 1: return LineInRegisters<1>(out, x, idx, vals, k, split, end);
    case 2: return LineInRegisters<2>(out, x, idx, vals, k, split, end);
    case 3: return LineInRegisters<3>(out, x, idx, vals, k, split, end);
    case 4: return LineInRegisters<4>(out, x, idx, vals, k, split, end);
    case 5: return LineInRegisters<5>(out, x, idx, vals, k, split, end);
    case 6: return LineInRegisters<6>(out, x, idx, vals, k, split, end);
    case 7: return LineInRegisters<7>(out, x, idx, vals, k, split, end);
    case 8: return LineInRegisters<8>(out, x, idx, vals, k, split, end);
    default: break;
  }
  ForEachGroup(idx, k, split, end, [&](auto terms, std::size_t g) {
    constexpr std::size_t T = decltype(terms)::value;
    const double* xs[T];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < T; ++t) {
      xs[t] = x + static_cast<std::size_t>(idx[g + t]) * n;
    }
    AxpyTerms<T>(out, xs, vals + g, n);
  });
}

// --- Register tiles: A·B, Aᵀ·B, A·Bᵀ and the distance lanes ---------------

// Block h of a B-register row: the last block is `part`, the others whole.
template <std::size_t B, typename Part>
inline V LdBlock(Part part, std::size_t h, const double* p, Mask m) {
  return h + 1 == B ? Ld(part, p, m) : Lanes::Load(p);
}

template <std::size_t B, typename Part>
inline void StBlock(Part part, std::size_t h, double* p, Mask m, V v) {
  if (h + 1 == B) return St(part, p, m, v);
  Lanes::Store(p, v);
}

// Four output rows by kW·B columns of A·B held in registers for the whole
// k loop; the last block's lanes are m when part is Tail. A's entry for
// output row r and reduction index p is a[r·ars + p·aps], so the tile
// serves A·B (ars = lda, aps = 1) and Aᵀ·B (ars = 1, aps = lda). Per
// k-group each row's four broadcasts serve every block, and each element
// adds Axpy4's term, then Axpy's per leftover p.
template <std::size_t B, typename Part>
inline void MatMulTile4(Part part, double* out, std::size_t ldo,
                        const double* a, std::size_t ars, std::size_t aps,
                        const double* b, std::size_t ldb, std::size_t k,
                        Mask m) {
  V c[4][B];
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 4
    for (std::size_t h = 0; h < B; ++h) {
      c[r][h] = LdBlock<B>(part, h, out + r * ldo + kW * h, m);
    }
  }
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    V x[4][B];
#pragma GCC unroll 4
    for (std::size_t t = 0; t < 4; ++t) {
#pragma GCC unroll 4
      for (std::size_t h = 0; h < B; ++h) {
        x[t][h] = LdBlock<B>(part, h, b + (p + t) * ldb + kW * h, m);
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const double* ar = a + r * ars + p * aps;
      const V a0 = Lanes::Set1(ar[0]);
      const V a1 = Lanes::Set1(ar[aps]);
      const V a2 = Lanes::Set1(ar[2 * aps]);
      const V a3 = Lanes::Set1(ar[3 * aps]);
#pragma GCC unroll 4
      for (std::size_t h = 0; h < B; ++h) {
        V s = Lanes::Add(Lanes::Mul(a0, x[0][h]), Lanes::Mul(a1, x[1][h]));
        s = Lanes::Add(s, Lanes::Mul(a2, x[2][h]));
        s = Lanes::Add(s, Lanes::Mul(a3, x[3][h]));
        c[r][h] = Lanes::Add(c[r][h], s);
      }
    }
  }
  for (; p < k; ++p) {
    V x[B];
#pragma GCC unroll 4
    for (std::size_t h = 0; h < B; ++h) {
      x[h] = LdBlock<B>(part, h, b + p * ldb + kW * h, m);
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < 4; ++r) {
      const V av = Lanes::Set1(a[r * ars + p * aps]);
#pragma GCC unroll 4
      for (std::size_t h = 0; h < B; ++h) {
        c[r][h] = Lanes::Add(c[r][h], Lanes::Mul(av, x[h]));
      }
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < 4; ++r) {
#pragma GCC unroll 4
    for (std::size_t h = 0; h < B; ++h) {
      StBlock<B>(part, h, out + r * ldo + kW * h, m, c[r][h]);
    }
  }
}

// Every column of four output rows (A's entries strided as in
// MatMulTile4): two-register tiles, then one tile of one or two registers
// whose last is masked when the width is ragged.
inline void Tiles4(double* out, std::size_t ldo, const double* a,
                   std::size_t ars, std::size_t aps, const double* b,
                   std::size_t ldb, std::size_t k, std::size_t n) {
  std::size_t j = 0;
  for (; j + 2 * kW <= n; j += 2 * kW) {
    MatMulTile4<2>(Whole{}, out + j, ldo, a, ars, aps, b + j, ldb, k, Mask{});
  }
  const std::size_t rem = n - j;
  if (rem > kW) {
    MatMulTile4<2>(Tail{}, out + j, ldo, a, ars, aps, b + j, ldb, k,
                   Lanes::FirstLanes(rem - kW));
  } else if (rem == kW) {
    MatMulTile4<1>(Whole{}, out + j, ldo, a, ars, aps, b + j, ldb, k, Mask{});
  } else if (rem > 0) {
    MatMulTile4<1>(Tail{}, out + j, ldo, a, ars, aps, b + j, ldb, k,
                   Lanes::FirstLanes(rem));
  }
}

// Adds A·B (a: 4 x k, b: k x n) onto every column of four output rows.
inline std::size_t MatMulTiles4(double* out, std::size_t ldo, const double* a,
                                std::size_t lda, const double* b,
                                std::size_t ldb, std::size_t k,
                                std::size_t n) {
  Tiles4(out, ldo, a, lda, 1, b, ldb, k, n);
  return n;
}

// Reduction rows per pass of TransposedMatMulTiles4: a multiple of 4, so
// no k-group straddles two passes, and few enough that a pass's rows of A
// and B stay cached while every output tile reads them.
inline constexpr std::size_t kTransposedPassRows = 128;

// Adds Aᵀ·B onto all output rows but rows % 4, in four-row tiles over
// every column, one pass per kTransposedPassRows reduction rows. Each pass
// adds onto what the previous pass stored, so an element still adds its
// k-groups in ascending order and then its leftover rows, which all fall
// in the last pass. A 16-register ISA tiles no row: there the tile
// measured slower than the caller's Axpy4 sweeps (DESIGN.md §10).
inline std::size_t TransposedMatMulTiles4(double* out, std::size_t ldo,
                                          const double* a, std::size_t lda,
                                          const double* b, std::size_t ldb,
                                          std::size_t k, std::size_t n,
                                          std::size_t rows) {
  if (Lanes::kRegisters < 32) return 0;
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
// Rows per A·Bᵀ tile: R rows hold 4·R accumulators beside four panel
// registers.
inline constexpr std::size_t kDotTileRows = Lanes::kRegisters / 8;

// out[r][l] = Dot4(a row r, b row l) for r < R and the lanes l in m, with
// b transposed into panel[p·kW + l]: register (r, i) holds Dot4's
// accumulator i of row r for kW columns at once, so the lane split, the
// tail into accumulator 0 and the (0+1)+(2+3) combine are Dot4's.
template <std::size_t R>
inline void DotPanelTile(double* out, std::size_t ldo, const double* a,
                         std::size_t lda, const double* panel, std::size_t k,
                         Mask m) {
  V acc[R][4] = {};
  std::size_t p = 0;
  for (; p + 4 <= k; p += 4) {
    V bp[4];
#pragma GCC unroll 4
    for (std::size_t i = 0; i < 4; ++i) bp[i] = Lanes::Load(panel + (p + i) * kW);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
      for (std::size_t i = 0; i < 4; ++i) {
        acc[r][i] = Lanes::Add(
            acc[r][i], Lanes::Mul(Lanes::Set1(a[r * lda + p + i]), bp[i]));
      }
    }
  }
  for (; p < k; ++p) {
    const V bp = Lanes::Load(panel + p * kW);
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r) {
      acc[r][0] = Lanes::Add(acc[r][0],
                             Lanes::Mul(Lanes::Set1(a[r * lda + p]), bp));
    }
  }
#pragma GCC unroll 4
  for (std::size_t r = 0; r < R; ++r) {
    Lanes::MaskStore(out + r * ldo, m,
                     Lanes::Add(Lanes::Add(acc[r][0], acc[r][1]),
                                Lanes::Add(acc[r][2], acc[r][3])));
  }
}

// out[r][j] = Dot4(a row r, b row j, k) for j < cols over every row of a
// (rows x k), and returns rows; none when k exceeds the panel depth. For
// each block of kDotRowBlock rows and each kW columns, the columns' b rows
// are transposed into a stack panel and the rows run in kDotTileRows x kW
// tiles, then 1 x kW.
inline std::size_t DotTileRows(double* out, std::size_t ldo, const double* a,
                               std::size_t lda, const double* b,
                               std::size_t ldb, std::size_t k,
                               std::size_t rows, std::size_t cols) {
  if (k > kDotPanelDepth) return 0;
  alignas(64) double panel[kDotPanelDepth * kW];
  for (std::size_t i0 = 0; i0 < rows; i0 += kDotRowBlock) {
    const std::size_t i1 = rows - i0 < kDotRowBlock ? rows : i0 + kDotRowBlock;
    for (std::size_t j0 = 0; j0 < cols; j0 += kW) {
      const std::size_t w = cols - j0 < kW ? cols - j0 : kW;
      for (std::size_t l = 0; l < kW; ++l) {
        for (std::size_t p = 0; p < k; ++p) {
          panel[p * kW + l] = l < w ? b[(j0 + l) * ldb + p] : 0.0;
        }
      }
      const Mask m = Lanes::FirstLanes(w);
      std::size_t i = i0;
      for (; i + kDotTileRows <= i1; i += kDotTileRows) {
        DotPanelTile<kDotTileRows>(out + i * ldo + j0, ldo, a + i * lda, lda,
                                   panel, k, m);
      }
      for (; i < i1; ++i) {
        DotPanelTile<1>(out + i * ldo + j0, ldo, a + i * lda, lda, panel, k,
                        m);
      }
    }
  }
  return rows;
}

// out[l] = Σ_c (x[c] - panel[c·8 + l])², one serial chain per lane in
// ascending c: RowDistanceSquared's order for each of the eight centroids.
inline void DistanceSquared8(double* out, const double* x, const double* panel,
                             std::size_t d) {
  constexpr std::size_t kRegs = kDistanceLanes / kW;
  V acc[kRegs] = {};
  for (std::size_t c = 0; c < d; ++c) {
    const V xc = Lanes::Set1(x[c]);
#pragma GCC unroll 2
    for (std::size_t h = 0; h < kRegs; ++h) {
      const V diff =
          Lanes::Sub(xc, Lanes::Load(panel + c * kDistanceLanes + kW * h));
      acc[h] = Lanes::Add(acc[h], Lanes::Mul(diff, diff));
    }
  }
#pragma GCC unroll 2
  for (std::size_t h = 0; h < kRegs; ++h) Lanes::Store(out + kW * h, acc[h]);
}
