// Runtime ISA resolution for the SIMD substrate. Deliberately free of
// vendor intrinsics (those live only in simd.h): this file just probes
// CPU capabilities and parses the GALE_SIMD_ISA override.

#include "la/simd.h"

#include <cstdlib>
#include <cstring>

namespace gale::la::simd {

namespace internal {
std::atomic<int> g_isa{-1};
}  // namespace internal

Isa BestSupportedIsa() {
#if GALE_SIMD_X86
  if (__builtin_cpu_supports("avx512f")) return Isa::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Isa::kAvx2;
#endif
  return Isa::kScalar;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kScalar:
      return "scalar";
  }
  return "unknown";
}

namespace internal {

int ResolveIsa() {
  // "scalar" and "avx2" narrow the probed default, which is the widest
  // ISA the CPU runs; "avx512" and unrecognized values keep it.
  Isa isa = BestSupportedIsa();
  // gale-lint: allow(env-read): one-time ISA pin, cached after first call
  const char* env = std::getenv("GALE_SIMD_ISA");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) isa = Isa::kScalar;
  if (env != nullptr && std::strcmp(env, "avx2") == 0 && isa > Isa::kAvx2) {
    isa = Isa::kAvx2;
  }
  const int v = static_cast<int>(isa);
  // Several threads may race the first resolution; they all compute the
  // same value, so a plain store is fine.
  g_isa.store(v, std::memory_order_relaxed);
  return v;
}

}  // namespace internal

ScopedIsaOverride::ScopedIsaOverride(Isa isa)
    : previous_(internal::g_isa.load(std::memory_order_relaxed)) {
  const Isa clamped =
      static_cast<int>(isa) <= static_cast<int>(BestSupportedIsa())
          ? isa
          : BestSupportedIsa();
  internal::g_isa.store(static_cast<int>(clamped), std::memory_order_relaxed);
}

ScopedIsaOverride::~ScopedIsaOverride() {
  internal::g_isa.store(previous_, std::memory_order_relaxed);
}

}  // namespace gale::la::simd
