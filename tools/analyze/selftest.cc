#include "analyze/selftest.h"

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "analyze/finding.h"
#include "analyze/scanner.h"

namespace gale::analyze {
namespace {

struct FixtureFile {
  const char* path;
  const char* source;
};

// A fixture is a small file set run through the full single-TU +
// include-graph pipeline; `expected_count` findings of `rule` (or of any
// rule, when `rule` is empty) must come back.
struct Fixture {
  const char* name;
  std::vector<FixtureFile> files;
  const char* rule;
  int expected_count;
};

const std::vector<Fixture>& Fixtures() {
  static const std::vector<Fixture> kFixtures = {
      // -------------------------------------------------------------- rng
      {"rng-bad",
       {{"src/fake/a.cc", R"__(#include <cstdlib>
int Draw() { return std::rand(); }
)__"}},
       "rng", 1},
      {"rng-clock-seed-bad",
       {{"src/fake/a.cc", R"__(#include <ctime>
long Seed() { return time(nullptr); }
)__"}},
       "rng", 1},
      {"rng-good",
       {{"src/fake/a.cc", R"__(#include "util/rng.h"
double Draw(gale::util::Rng& rng) { return rng.Uniform(); }
)__"}},
       "rng", 0},
      {"rng-good-identifier",
       {{"src/fake/a.cc",
         R"__(int randomize_count = 0;  // 'randomize_count' is not 'random'
void TimeSince() {}              // 'time' not followed by '('
)__"}},
       "rng", 0},

      // ---------------------------------------------------- unordered-iter
      {"unordered-iter-bad",
       {{"src/fake/a.cc", R"__(#include <unordered_map>
double Sum(const std::unordered_map<int, double>& weights) {
  double acc = 0.0;
  for (const auto& [k, w] : weights) acc += w;  // order-dependent FP sum
  return acc;
}
)__"}},
       "unordered-iter", 1},
      {"unordered-iter-good-sorted",
       {{"src/fake/a.cc", R"__(#include <unordered_map>
#include <algorithm>
#include <vector>
double Sum(const std::unordered_map<int, double>& weights) {
  std::vector<std::pair<int, double>> sorted(weights.begin(), weights.end());
  std::sort(sorted.begin(), sorted.end());
  double acc = 0.0;
  for (const auto& [k, w] : sorted) acc += w;
  return acc;
}
)__"}},
       "unordered-iter", 0},
      {"unordered-iter-suppressed",
       {{"src/fake/a.cc", R"__(#include <unordered_set>
size_t Count(const std::unordered_set<int>& seen) {
  size_t n = 0;
  // gale-lint: allow(unordered-iter): count is order-independent
  for (int v : seen) n += static_cast<size_t>(v >= 0);
  return n;
}
)__"}},
       "unordered-iter", 0},

      // ----------------------------------------------------------------- io
      {"io-bad",
       {{"src/fake/a.cc", R"__(#include <iostream>
void Report(int n) { std::cout << n << "\n"; }
)__"}},
       "io", 1},
      {"io-good-logging",
       {{"src/fake/a.cc", R"__(#include "util/logging.h"
void Report(int n) { GALE_LOG(Info) << n; }
)__"}},
       "io", 0},
      {"io-good-outside-src",
       {{"tools/fake.cc", R"__(#include <iostream>
void Report(int n) { std::cout << n << "\n"; }
)__"}},
       "io", 0},

      // ---------------------------------------------------------- naked-new
      {"naked-new-bad",
       {{"src/fake/a.cc", R"__(int* Make() { return new int(7); }
)__"}},
       "naked-new", 1},
      {"naked-new-good",
       {{"src/fake/a.cc", R"__(#include <memory>
std::unique_ptr<int> Make() { return std::make_unique<int>(7); }
struct NoCopy {
  NoCopy(const NoCopy&) = delete;
};
)__"}},
       "naked-new", 0},

      // ----------------------------------------------------- shard-noinline
      {"shard-noinline-bad",
       {{"src/fake/a.cc", R"__(#include "util/parallel.h"
void Scale(double* data, size_t n) {
  gale::util::ParallelFor(0, n, 64, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) data[i] *= 2.0;
  });
}
)__"}},
       "shard-noinline", 1},
      {"shard-noinline-good-hoisted",
       {{"src/fake/a.cc", R"__(#include "util/parallel.h"
__attribute__((noinline)) void ScaleShard(double* data, size_t b, size_t e) {
  for (size_t i = b; i < e; ++i) data[i] *= 2.0;
}
void Scale(double* data, size_t n) {
  gale::util::ParallelFor(0, n, 64, [&](size_t b, size_t e) {
    ScaleShard(data, b, e);
  });
}
)__"}},
       "shard-noinline", 0},
      {"shard-noinline-suppressed",
       {{"src/fake/a.cc", R"__(#include "util/parallel.h"
void Scale(double* data, size_t n) {
  // gale-lint: allow(shard-noinline): measured no spill; trivial body
  gale::util::ParallelFor(0, n, 64, [&](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) data[i] *= 2.0;
  });
}
)__"}},
       "shard-noinline", 0},

      // ----------------------------------------------------- hot-path-alloc
      {"hot-path-alloc-bad",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
void Step(const gale::la::Matrix& a, const gale::la::Matrix& b,
          gale::la::Matrix* out) {
  a.MatMulInto(b, out);                     // adopted the Into path...
  gale::la::Matrix extra = a.MatMul(b);     // ...so this allocation flags
}
)__"}},
       "hot-path-alloc", 1},
      {"hot-path-alloc-good-into-only",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
void Step(const gale::la::Matrix& a, const gale::la::Matrix& b,
          gale::la::Matrix* out, gale::la::Matrix* out2) {
  a.MatMulInto(b, out);
  a.TransposedMatMulInto(b, out2, /*accumulate=*/true);
}
)__"}},
       "hot-path-alloc", 0},
      {"hot-path-alloc-good-not-adopted",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
gale::la::Matrix Once(const gale::la::Matrix& a, const gale::la::Matrix& b) {
  return a.MatMul(b);  // cold path, never opted into the arena
}
)__"}},
       "hot-path-alloc", 0},
      {"hot-path-alloc-suppressed",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
#include "la/workspace.h"
void Step(const gale::la::Matrix& a, const gale::la::Matrix& b,
          gale::la::Workspace* ws) {
  // gale-lint: allow(hot-path-alloc): one-time setup, not per-step
  gale::la::Matrix init = a.MatMul(b);
}
)__"}},
       "hot-path-alloc", 0},
      {"hot-path-alloc-good-outside-src",
       {{"tools/fake.cc", R"__(#include "la/matrix.h"
void Bench(const gale::la::Matrix& a, gale::la::Matrix* out) {
  a.MatMulInto(a, out);
  gale::la::Matrix copy = a.MatMul(a);  // tools may allocate freely
}
)__"}},
       "hot-path-alloc", 0},
      {"hot-path-alloc-good-la-exempt",
       {{"src/la/fake.cc", R"__(#include "la/matrix.h"
void Wrapper(const gale::la::Matrix& a, gale::la::Matrix* out) {
  a.MatMulInto(a, out);
  gale::la::Matrix copy = a.MatMul(a);  // la defines the wrappers
}
)__"}},
       "hot-path-alloc", 0},

      // ------------------------------------------------ allow scope (PR 7)
      // A standalone allow covers the whole multi-line statement that
      // begins on the next line — not just the next line.
      {"allow-scope-multiline-statement",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
void Step(const gale::la::Matrix& a, gale::la::Matrix* out) {
  a.MatMulInto(a, out);
  // gale-lint: allow(hot-path-alloc): one-time init, spans lines
  gale::la::Matrix extra =
      a.MatMul(
          a);
}
)__"}},
       "hot-path-alloc", 0},
      // A trailing allow covers its own line and the next line only; a
      // statement two lines below still flags.
      {"allow-scope-trailing-not-extended",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
void Step(const gale::la::Matrix& a, gale::la::Matrix* out) {
  a.MatMulInto(a, out);  // gale-lint: allow(hot-path-alloc): wrong line
  int unrelated = 0;
  gale::la::Matrix extra = a.MatMul(a);
}
)__"}},
       "hot-path-alloc", 1},
      // The statement extension stops at the statement's end: the next
      // statement after the covered one still flags.
      {"allow-scope-stops-after-statement",
       {{"src/fake/a.cc", R"__(#include "la/matrix.h"
void Step(const gale::la::Matrix& a, gale::la::Matrix* out) {
  a.MatMulInto(a, out);
  // gale-lint: allow(hot-path-alloc): covers the next statement only
  gale::la::Matrix first =
      a.MatMul(a);
  gale::la::Matrix second = a.MatMul(a);
}
)__"}},
       "hot-path-alloc", 1},

      // ---------------------------------------------------- simd-intrinsics
      {"simd-intrinsics-bad-include",
       {{"src/fake/a.cc", R"__(#include <immintrin.h>
void Nothing() {}
)__"}},
       "simd-intrinsics", 1},
      {"simd-intrinsics-bad-usage",
       {{"src/nn/fake.cc",
         R"__(void Sum2(double* out, const double* a, const double* b) {
  __m128d va = _mm_loadu_pd(a);
  __m128d vb = _mm_loadu_pd(b);
  _mm_storeu_pd(out, _mm_add_pd(va, vb));
}
)__"}},
       "simd-intrinsics", 6},
      {"simd-intrinsics-bad-outside-src",
       {{"bench/fake.cc", R"__(#include <immintrin.h>
void Nothing() {}
)__"}},
       "simd-intrinsics", 1},
      {"simd-intrinsics-good-home",
       {{"src/la/simd.h", R"__(#include <immintrin.h>
void Add2(double* out, const double* a, const double* b) {
  _mm_storeu_pd(out, _mm_add_pd(_mm_loadu_pd(a), _mm_loadu_pd(b)));
}
)__"}},
       "simd-intrinsics", 0},
      {"simd-intrinsics-good-wrapper",
       {{"src/nn/fake.cc", R"__(#include "la/simd.h"
void Add(double* out, const double* a, const double* b, size_t n) {
  gale::la::simd::Add(out, a, b, n);
}
)__"}},
       "simd-intrinsics", 0},
      {"simd-intrinsics-suppressed",
       {{"src/fake/a.cc",
         R"__(// gale-lint: allow(simd-intrinsics): compat shim names the type
using m128_alias = __m128d;
)__"}},
       "simd-intrinsics", 0},

      // ------------------------------------------------- annotation hygiene
      {"allow-reason-bad",
       {{"src/fake/a.cc", R"__(// gale-lint: allow(io)
void Nothing() {}
)__"}},
       "allow-reason", 1},
      {"allow-unknown-rule-bad",
       {{"src/fake/a.cc",
         R"__(// gale-lint: allow(hot-path-aloc): typo'd rule id
void Nothing() {}
)__"}},
       "allow-unknown-rule", 1},
      {"allow-unknown-rule-good",
       {{"src/fake/a.cc",
         R"__(// gale-lint: allow(hot-path-alloc): correctly spelled
void Nothing() {}
)__"}},
       "allow-unknown-rule", 0},
      // Prose that quotes the marker mid-sentence is documentation, not
      // an annotation: only a comment BEGINNING with `gale-lint:` parses.
      {"allow-marker-midsentence-ignored",
       {{"src/fake/a.cc",
         R"__(// Suppressions are written `gale-lint: allow(some-rule): why`.
void Nothing() {}
)__"}},
       "allow-unknown-rule", 0},

      // --------------------------------------------------- raw-chrono-timing
      {"raw-chrono-bad",
       {{"src/fake/a.cc", R"__(#include <chrono>
double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
)__"}},
       "raw-chrono-timing", 1},
      {"raw-chrono-good-obs",
       {{"src/obs/fake.cc", R"__(#include <chrono>
auto Now() { return std::chrono::steady_clock::now(); }
)__"}},
       "raw-chrono-timing", 0},
      {"raw-chrono-good-harness",
       {{"bench/fake.cc", R"__(#include <chrono>
auto Now() { return std::chrono::high_resolution_clock::now(); }
)__"}},
       "raw-chrono-timing", 0},
      {"raw-chrono-suppressed",
       {{"src/fake/a.cc", R"__(#include <chrono>
// gale-lint: allow(raw-chrono-timing): boot-time log stamp, not telemetry
auto Now() { return std::chrono::system_clock::now(); }
)__"}},
       "raw-chrono-timing", 0},

      // ------------------------------------------------------ float-compare
      {"float-compare-bad-literal",
       {{"src/fake/a.cc", R"__(bool Disabled(double rate) {
  return rate == 0.0;
}
)__"}},
       "float-compare", 1},
      {"float-compare-bad-vars",
       {{"src/fake/a.cc", R"__(bool Same(double a, double b) {
  return a != b;
}
)__"}},
       "float-compare", 1},
      {"float-compare-bad-member-via-header",
       {{"src/fake/b.h", R"__(class Gate {
 public:
  bool Open() const;
 private:
  double level_;
  double threshold_;
};
)__"},
        {"src/fake/b.cc", R"__(#include "fake/b.h"
bool Gate::Open() const { return level_ == threshold_; }
)__"}},
       "float-compare", 1},
      {"float-compare-good-tolerance",
       {{"src/fake/a.cc", R"__(#include <cmath>
bool Near(double a, double b) {
  return std::abs(a - b) < 1e-12;
}
)__"}},
       "float-compare", 0},
      {"float-compare-good-int",
       {{"src/fake/a.cc", R"__(bool Same(int a, int b, size_t n) {
  return a == b && n != 0;
}
)__"}},
       "float-compare", 0},
      {"float-compare-good-pointer",
       {{"src/fake/a.cc", R"__(bool Has(const double* data) {
  return data != nullptr;
}
)__"}},
       "float-compare", 0},
      {"float-compare-good-outside-src",
       {{"tests/fake_test.cc", R"__(bool ExactlyZero(double x) {
  return x == 0.0;  // tests may pin exact bit patterns
}
)__"}},
       "float-compare", 0},
      {"float-compare-suppressed",
       {{"src/fake/a.cc",
         R"__(bool BitwiseEqual(double a, double b) {
  // gale-lint: allow(float-compare): bitwise reproducibility check is exact
  return a == b;
}
)__"}},
       "float-compare", 0},

      // ------------------------------------------------------ nondet-reduce
      {"nondet-reduce-bad-accumulate",
       {{"src/fake/a.cc", R"__(#include <numeric>
#include <vector>
double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}
)__"}},
       "nondet-reduce", 1},
      {"nondet-reduce-bad-reduce",
       {{"src/fake/a.cc", R"__(#include <numeric>
#include <vector>
double Sum(const std::vector<double>& v) {
  return std::reduce(v.begin(), v.end());
}
)__"}},
       "nondet-reduce", 1},
      {"nondet-reduce-good-la",
       {{"src/la/fake.cc", R"__(#include <numeric>
#include <vector>
double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}
)__"}},
       "nondet-reduce", 0},
      {"nondet-reduce-good-member",
       {{"src/fake/a.cc", R"__(struct Stats {
  void accumulate(int x);
};
void Feed(Stats& s) { s.accumulate(1); }
)__"}},
       "nondet-reduce", 0},
      {"nondet-reduce-good-harness",
       {{"tests/fake_test.cc", R"__(#include <numeric>
#include <vector>
double Sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}
)__"}},
       "nondet-reduce", 0},
      {"nondet-reduce-suppressed",
       {{"src/fake/a.cc", R"__(#include <numeric>
#include <vector>
long Sum(const std::vector<long>& v) {
  // gale-lint: allow(nondet-reduce): integer sum, order-insensitive
  return std::accumulate(v.begin(), v.end(), 0L);
}
)__"}},
       "nondet-reduce", 0},

      // ----------------------------------------------------------- env-read
      {"env-read-bad",
       {{"src/fake/a.cc", R"__(#include <cstdlib>
const char* Mode() { return std::getenv("GALE_MODE"); }
)__"}},
       "env-read", 1},
      {"env-read-good-util",
       {{"src/util/fake.cc", R"__(#include <cstdlib>
const char* Mode() { return std::getenv("GALE_MODE"); }
)__"}},
       "env-read", 0},
      {"env-read-good-obs",
       {{"src/obs/fake.cc", R"__(#include <cstdlib>
const char* Mode() { return std::getenv("GALE_TRACE_DIR"); }
)__"}},
       "env-read", 0},
      {"env-read-good-harness",
       {{"bench/fake.cc", R"__(#include <cstdlib>
const char* Mode() { return std::getenv("GALE_BENCH_SCALE"); }
)__"}},
       "env-read", 0},
      {"env-read-suppressed",
       {{"src/fake/a.cc", R"__(#include <cstdlib>
// gale-lint: allow(env-read): one-time ISA pin, affects dispatch only
const char* Isa() { return std::getenv("GALE_SIMD_ISA"); }
)__"}},
       "env-read", 0},

      // ---------------------------------------------------- include-layering
      {"include-layering-bad-upward",
       {{"src/la/x.h", R"__(#include "nn/layer.h"
)__"},
        {"src/nn/layer.h", R"__(struct Layer {};
)__"}},
       "include-layering", 1},
      {"include-layering-bad-same-level",
       {{"src/nn/x.h", R"__(#include "graph/g.h"
)__"},
        {"src/graph/g.h", R"__(struct G {};
)__"}},
       "include-layering", 1},
      {"include-layering-good-downward",
       {{"src/core/x.h", R"__(#include "prop/y.h"
#include "util/logging.h"
)__"},
        {"src/prop/y.h", R"__(struct Y {};
)__"},
        {"src/util/logging.h", R"__(struct Log {};
)__"}},
       "include-layering", 0},
      {"include-layering-good-obs-below-la",
       {{"src/la/kmeans.cc", R"__(#include "obs/trace.h"
)__"},
        {"src/obs/trace.h", R"__(struct Span {};
)__"}},
       "include-layering", 0},
      {"include-layering-good-harness",
       {{"tools/fake.cc", R"__(#include "eval/experiment.h"
)__"},
        {"src/eval/experiment.h", R"__(struct E {};
)__"}},
       "include-layering", 0},
      {"include-layering-bad-serve-into-eval",
       {{"src/serve/x.cc", R"__(#include "eval/experiment.h"
)__"},
        {"src/eval/experiment.h", R"__(struct E {};
)__"}},
       "include-layering", 1},
      {"include-layering-bad-serve-into-baselines",
       {{"src/serve/x.cc", R"__(#include "baselines/b.h"
)__"},
        {"src/baselines/b.h", R"__(struct B {};
)__"}},
       "include-layering", 1},
      {"include-layering-good-serve-uses-core",
       {{"src/serve/x.cc", R"__(#include "core/gale.h"
#include "prop/y.h"
)__"},
        {"src/core/gale.h", R"__(struct Gale {};
)__"},
        {"src/prop/y.h", R"__(struct Y {};
)__"}},
       "include-layering", 0},
      {"include-layering-good-store-uses-serve",
       {{"src/store/store.cc", R"__(#include "serve/snapshot.h"
#include "graph/attributed_graph.h"
)__"},
        {"src/serve/snapshot.h", R"__(struct Snap {};
)__"},
        {"src/graph/attributed_graph.h", R"__(struct G {};
)__"}},
       "include-layering", 0},
      {"include-layering-bad-serve-into-store",
       {{"src/serve/x.cc", R"__(#include "store/delta_log.h"
)__"},
        {"src/store/delta_log.h", R"__(struct D {};
)__"}},
       "include-layering", 1},
      {"include-layering-bad-store-into-eval",
       {{"src/store/x.cc", R"__(#include "eval/experiment.h"
)__"},
        {"src/eval/experiment.h", R"__(struct E {};
)__"}},
       "include-layering", 1},
      {"include-layering-suppressed",
       {{"src/la/x.h",
         R"__(// gale-lint: allow(include-layering): transitional, tracked in ROADMAP
#include "nn/layer.h"
)__"},
        {"src/nn/layer.h", R"__(struct Layer {};
)__"}},
       "include-layering", 0},

      // ------------------------------------------------------ harness-include
      {"harness-include-bad",
       {{"src/eval/x.cc", R"__(#include "bench/bench_common.h"
)__"},
        {"bench/bench_common.h", R"__(struct B {};
)__"}},
       "harness-include", 1},
      {"harness-include-good-tests-use-src",
       {{"tests/x_test.cc", R"__(#include "util/rng.h"
#include "gradient_check.h"
)__"},
        {"tests/gradient_check.h", R"__(struct GC {};
)__"},
        {"src/util/rng.h", R"__(struct Rng {};
)__"}},
       "harness-include", 0},

      // --------------------------------------------------------- simd-include
      {"simd-include-bad",
       {{"src/nn/x.cc", R"__(#include "la/simd.h"
)__"},
        {"src/la/simd.h", R"__(struct Simd {};
)__"}},
       "simd-include", 1},
      {"simd-include-good-from-la",
       {{"src/la/matrix.cc", R"__(#include "la/simd.h"
)__"},
        {"src/la/simd.h", R"__(struct Simd {};
)__"}},
       "simd-include", 0},
      {"simd-include-good-harness",
       {{"bench/x.cc", R"__(#include "la/simd.h"
)__"},
        {"src/la/simd.h", R"__(struct Simd {};
)__"}},
       "simd-include", 0},
      {"simd-include-suppressed",
       {{"src/nn/x.cc",
         R"__(// gale-lint: allow(simd-include): fused lane-level Adam kernel
#include "la/simd.h"
)__"},
        {"src/la/simd.h", R"__(struct Simd {};
)__"}},
       "simd-include", 0},

      // -------------------------------------------------------- include-cycle
      {"include-cycle-bad",
       {{"src/util/a.h", R"__(#include "util/b.h"
)__"},
        {"src/util/b.h", R"__(#include "util/a.h"
)__"}},
       "include-cycle", 1},
      {"include-cycle-good-chain",
       {{"src/util/a.h", R"__(#include "util/b.h"
)__"},
        {"src/util/b.h", R"__(#include "util/c.h"
)__"},
        {"src/util/c.h", R"__(struct C {};
)__"}},
       "include-cycle", 0},

      // ------------------------------------------------------- lexer hygiene
      {"comment-and-string-blanking",
       {{"src/fake/a.cc",
         R"__(// std::rand() in a comment is fine; so is new in prose.
const char* kDoc = "call std::rand() and malloc() and printf()";
)__"}},
       "", 0},
      {"raw-string-blanking",
       {{"src/fake/a.cc",
         R"__(const char* kFixture = R"x(std::rand(); new int; getenv("X");)x";
int n = 1'000'000;  // digit separators lex as one number
)__"}},
       "", 0},
  };
  return kFixtures;
}

}  // namespace

int RunSelfTest(std::ostream& out) {
  int failures = 0;
  for (const Fixture& fx : Fixtures()) {
    std::vector<std::pair<std::string, std::string>> files;
    files.reserve(fx.files.size());
    for (const FixtureFile& f : fx.files) files.push_back({f.path, f.source});
    const std::vector<Finding> findings = AnalyzeFileSet(files);
    int count = 0;
    for (const Finding& f : findings) {
      if (std::string(fx.rule).empty() || f.rule == fx.rule) ++count;
    }
    const bool pass = count == fx.expected_count;
    if (!pass) {
      ++failures;
      out << "FAIL " << fx.name << ": expected " << fx.expected_count
          << " finding(s) of [" << (fx.rule[0] != '\0' ? fx.rule : "any")
          << "], got " << count << "\n";
      for (const Finding& f : findings) {
        out << "    " << f.file << ":" << f.line << ": [" << f.rule << "] "
            << f.message << "\n";
      }
    } else {
      out << "ok   " << fx.name << "\n";
    }
  }
  out << "gale_analyze self-test: " << Fixtures().size() << " fixtures, "
      << failures << " failure(s)\n";
  return failures;
}

}  // namespace gale::analyze
