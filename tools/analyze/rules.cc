#include "analyze/rules.h"

#include <cstddef>

#include "analyze/annotations.h"

namespace gale::analyze {
namespace {

using Tokens = std::vector<Tok>;

bool IsPunct(const Tok& t, const char* text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

bool IsIdent(const Tok& t, const char* text) {
  return t.kind == TokKind::kIdent && t.text == text;
}

// True when the token after `i` is the punctuation `text`.
bool NextIs(const Tokens& toks, size_t i, const char* text) {
  return i + 1 < toks.size() && IsPunct(toks[i + 1], text);
}

// Index of the token matching the opener at `open_idx`, or npos. Depth is
// counted over single tokens, so fused operators never confuse it.
size_t MatchPunct(const Tokens& toks, size_t open_idx, const char* open,
                  const char* close) {
  int depth = 0;
  for (size_t i = open_idx; i < toks.size(); ++i) {
    if (IsPunct(toks[i], open)) ++depth;
    if (IsPunct(toks[i], close)) {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

// ---------------------------------------------------------------------------
// File classification
// ---------------------------------------------------------------------------

struct FileClass {
  bool in_src = false;       // library code under src/
  bool rng_exempt = false;   // src/util/rng.* — the one home for RNG
  bool log_exempt = false;   // src/util/logging.* — the one home for stderr
  bool par_exempt = false;   // src/util/parallel.* — the dispatch substrate
  bool la_exempt = false;    // src/la/* — allocating wrappers + reductions
  bool obs_exempt = false;   // src/obs/* — the one home for clock reads
  bool simd_exempt = false;  // src/la/simd.h — the one home for intrinsics
  bool env_exempt = false;   // src/util/ + src/obs/ — may read process env
};

FileClass Classify(const std::string& rel_path) {
  FileClass fc;
  fc.in_src = rel_path.rfind("src/", 0) == 0;
  fc.rng_exempt = rel_path.rfind("src/util/rng", 0) == 0;
  fc.log_exempt = rel_path.rfind("src/util/logging", 0) == 0;
  fc.par_exempt = rel_path.rfind("src/util/parallel", 0) == 0;
  fc.la_exempt = rel_path.rfind("src/la/", 0) == 0;
  fc.obs_exempt = rel_path.rfind("src/obs/", 0) == 0;
  fc.simd_exempt = rel_path == "src/la/simd.h";
  fc.env_exempt = rel_path.rfind("src/util/", 0) == 0 || fc.obs_exempt;
  return fc;
}

// ---------------------------------------------------------------------------
// rng
// ---------------------------------------------------------------------------

const std::set<std::string>& BannedRngTokens() {
  static const std::set<std::string> kBanned = {
      "rand",        "srand",          "rand_r",
      "drand48",     "lrand48",        "random",
      "random_device", "mt19937",      "mt19937_64",
      "minstd_rand", "minstd_rand0",   "default_random_engine",
      "knuth_b",     "ranlux24",       "ranlux48",
  };
  return kBanned;
}

void CheckRng(const std::string& file, const FileClass& fc,
              const TokenFile& tf, const Annotations& ann,
              std::vector<Finding>* findings) {
  if (fc.rng_exempt) return;
  static const std::set<std::string> kClockSeeds = {"time", "clock",
                                                    "gettimeofday"};
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent) continue;
    const bool banned = BannedRngTokens().count(t.text) > 0;
    const bool clock_call =
        kClockSeeds.count(t.text) > 0 && NextIs(toks, i, "(");
    if (!banned && !clock_call) continue;
    if (Suppressed(ann, "rng", t.line)) continue;
    findings->push_back(
        {file, t.line, "rng",
         "'" + t.text +
             "' — unseeded/wall-clock randomness breaks bit-determinism; "
             "draw from util::Rng (src/util/rng.h) instead"});
  }
}

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

// Names declared as unordered_map/unordered_set (variables, members,
// parameters). Template arguments may nest; `>>` lexes as two `>` tokens
// so depth counting over single tokens is exact.
std::set<std::string> UnorderedDeclNames(const TokenFile& tf) {
  std::set<std::string> names;
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (!IsIdent(t, "unordered_map") && !IsIdent(t, "unordered_set")) {
      continue;
    }
    if (!NextIs(toks, i, "<")) continue;
    size_t j = i + 1;
    int depth = 0;
    for (; j < toks.size(); ++j) {
      if (IsPunct(toks[j], "<")) ++depth;
      if (IsPunct(toks[j], ">")) {
        --depth;
        if (depth == 0) break;
      }
    }
    if (j >= toks.size()) continue;
    ++j;
    while (j < toks.size() &&
           (IsPunct(toks[j], "&") || IsPunct(toks[j], "*"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == TokKind::kIdent) {
      names.insert(toks[j].text);
    }
  }
  return names;
}

void CheckUnorderedIter(const std::string& file, const TokenFile& tf,
                        const std::set<std::string>& unordered_names,
                        const Annotations& ann,
                        std::vector<Finding>* findings) {
  if (unordered_names.empty()) return;
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(toks[i], "for") || !NextIs(toks, i, "(")) continue;
    const size_t open = i + 1;
    const size_t close = MatchPunct(toks, open, "(", ")");
    if (close == std::string::npos) continue;
    // A plain ':' at depth 1 marks a range-for ('::' is a fused token and
    // never matches); the range expression is everything after it.
    size_t colon = std::string::npos;
    int depth = 0;
    for (size_t p = open; p < close; ++p) {
      const Tok& t = toks[p];
      if (t.kind != TokKind::kPunct) continue;
      if (t.text == "(" || t.text == "[" || t.text == "{") ++depth;
      if (t.text == ")" || t.text == "]" || t.text == "}") --depth;
      if (t.text == ":" && depth == 1) {
        colon = p;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    for (size_t p = colon + 1; p < close; ++p) {
      if (toks[p].kind != TokKind::kIdent) continue;
      if (unordered_names.count(toks[p].text) == 0) continue;
      if (Suppressed(ann, "unordered-iter", toks[i].line)) break;
      findings->push_back(
          {file, toks[i].line, "unordered-iter",
           "range-for over unordered container '" + toks[p].text +
               "' — hash order is unspecified and leaks into results; "
               "sort into a vector first (or justify with an allow)"});
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// io / raw-chrono-timing / naked-new / simd-intrinsics
// ---------------------------------------------------------------------------

void CheckIo(const std::string& file, const FileClass& fc,
             const TokenFile& tf, const Annotations& ann,
             std::vector<Finding>* findings) {
  if (!fc.in_src || fc.log_exempt) return;
  static const std::set<std::string> kBanned = {
      "cout", "cerr", "printf", "fprintf", "puts", "fputs", "putchar"};
  for (const Tok& t : tf.tokens) {
    if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
    if (Suppressed(ann, "io", t.line)) continue;
    findings->push_back({file, t.line, "io",
                         "'" + t.text +
                             "' in library code — route diagnostics through "
                             "util/logging (GALE_LOG / GALE_CHECK)"});
  }
}

void CheckRawChronoTiming(const std::string& file, const FileClass& fc,
                          const TokenFile& tf, const Annotations& ann,
                          std::vector<Finding>* findings) {
  if (!fc.in_src || fc.obs_exempt) return;
  static const std::set<std::string> kBanned = {
      "steady_clock", "system_clock", "high_resolution_clock"};
  for (const Tok& t : tf.tokens) {
    if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
    if (Suppressed(ann, "raw-chrono-timing", t.line)) continue;
    findings->push_back(
        {file, t.line, "raw-chrono-timing",
         "'" + t.text +
             "' in library code — time through obs::Span/obs::Trace "
             "(src/obs/ is the one home for raw clock reads, so "
             "logical-time mode and the run report stay complete)"});
  }
}

void CheckNakedNew(const std::string& file, const TokenFile& tf,
                   const Annotations& ann, std::vector<Finding>* findings) {
  static const std::set<std::string> kBanned = {
      "new", "delete", "malloc", "calloc", "realloc", "free", "strdup"};
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
    // '= delete' declarations are idiomatic and allowed.
    if (t.text == "delete" && i > 0 && IsPunct(toks[i - 1], "=")) continue;
    if (Suppressed(ann, "naked-new", t.line)) continue;
    findings->push_back(
        {file, t.line, "naked-new",
         "'" + t.text +
             "' — raw allocation; use containers or std::make_unique"});
  }
}

void CheckSimdIntrinsics(const std::string& file, const FileClass& fc,
                         const TokenFile& tf, const Annotations& ann,
                         std::vector<Finding>* findings) {
  if (fc.simd_exempt) return;
  // Vendor intrinsic headers by name, plus the identifier prefixes every
  // x86 intrinsic and vector type uses. Prefix matching keeps the list
  // ISA-complete (_mm_/_mm256_/_mm512_, __m128d/__m256i/...).
  static const std::set<std::string> kBannedHeaders = {
      "immintrin.h", "emmintrin.h", "xmmintrin.h", "pmmintrin.h",
      "smmintrin.h", "tmmintrin.h", "nmmintrin.h", "ammintrin.h",
      "wmmintrin.h", "avxintrin.h", "avx2intrin.h"};
  static const char* kBannedPrefixes[] = {"_mm", "__m128", "__m256",
                                          "__m512"};
  const std::string kMessage =
      "vendor intrinsics live only in src/la/simd.h, where the "
      "bitwise-determinism argument is made once; call the la::simd "
      "primitives instead";
  for (const IncludeDirective& inc : tf.includes) {
    if (kBannedHeaders.count(inc.target) == 0) continue;
    if (Suppressed(ann, "simd-intrinsics", inc.line)) continue;
    findings->push_back({file, inc.line, "simd-intrinsics",
                         "'" + inc.target + "' — " + kMessage});
  }
  for (const Tok& t : tf.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    bool hit = false;
    for (const char* prefix : kBannedPrefixes) {
      if (t.text.rfind(prefix, 0) == 0) {
        hit = true;
        break;
      }
    }
    if (!hit) continue;
    if (Suppressed(ann, "simd-intrinsics", t.line)) continue;
    findings->push_back(
        {file, t.line, "simd-intrinsics", "'" + t.text + "' — " + kMessage});
  }
}

// ---------------------------------------------------------------------------
// shard-noinline
// ---------------------------------------------------------------------------

void CheckShardNoinline(const std::string& file, const FileClass& fc,
                        const TokenFile& tf, const Annotations& ann,
                        std::vector<Finding>* findings) {
  if (!fc.in_src || fc.par_exempt) return;
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (!IsIdent(t, "ParallelFor") && !IsIdent(t, "ParallelForShards")) {
      continue;
    }
    if (!NextIs(toks, i, "(")) continue;
    const size_t open = i + 1;
    const size_t close = MatchPunct(toks, open, "(", ")");
    if (close == std::string::npos) continue;
    // Find a lambda literal among the arguments.
    size_t lb = std::string::npos;
    for (size_t p = open + 1; p < close; ++p) {
      if (IsPunct(toks[p], "[")) {
        lb = p;
        break;
      }
    }
    if (lb == std::string::npos) continue;  // named callable
    const size_t rb = MatchPunct(toks, lb, "[", "]");
    if (rb == std::string::npos) continue;
    size_t pos = rb + 1;
    if (pos < toks.size() && IsPunct(toks[pos], "(")) {
      const size_t pe = MatchPunct(toks, pos, "(", ")");
      if (pe == std::string::npos) continue;
      pos = pe + 1;
    }
    if (pos >= toks.size() || !IsPunct(toks[pos], "{")) continue;
    const size_t body_end = MatchPunct(toks, pos, "{", "}");
    if (body_end == std::string::npos) continue;
    bool has_loop = false;
    for (size_t p = pos + 1; p < body_end; ++p) {
      if (IsIdent(toks[p], "for") || IsIdent(toks[p], "while")) {
        has_loop = true;
        break;
      }
    }
    if (!has_loop) continue;
    if (Suppressed(ann, "shard-noinline", t.line)) continue;
    findings->push_back(
        {file, t.line, "shard-noinline",
         "loop body inside a " + t.text +
             " closure — the live closure pointer costs registers "
             "(~15% on SpMM); hoist the kernel into a noinline free "
             "function with plain-pointer arguments (DESIGN.md §6)"});
  }
}

// ---------------------------------------------------------------------------
// hot-path-alloc
// ---------------------------------------------------------------------------

// True when the TU is on the allocation-free path: it names la::Workspace
// or calls an *Into kernel. Identifier check, so comments don't count.
bool AdoptedIntoPath(const TokenFile& tf) {
  for (const Tok& t : tf.tokens) {
    if (t.kind != TokKind::kIdent) continue;
    if (t.text == "Workspace" || t.text == "BorrowedMatrix") return true;
    if (t.text.size() > 4 &&
        t.text.compare(t.text.size() - 4, 4, "Into") == 0) {
      return true;
    }
  }
  return false;
}

void CheckHotPathAlloc(const std::string& file, const FileClass& fc,
                       const TokenFile& tf, bool adopted,
                       const Annotations& ann,
                       std::vector<Finding>* findings) {
  if (!fc.in_src || fc.la_exempt || !adopted) return;
  // The allocating kernels with an *Into twin. Whole-identifier matches
  // followed by '(' — `MatMulInto` is its own token and never matches
  // `MatMul`.
  static const std::set<std::string> kAllocating = {
      "MatMul",        "TransposedMatMul", "MatMulTransposed",
      "Transposed",    "Multiply",         "SelectRows",
      "ColSum",        "ColMean",
  };
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent || kAllocating.count(t.text) == 0) continue;
    if (!NextIs(toks, i, "(")) continue;
    if (Suppressed(ann, "hot-path-alloc", t.line)) continue;
    findings->push_back(
        {file, t.line, "hot-path-alloc",
         "allocating '" + t.text +
             "(...)' in a file already on the *Into path — every call "
             "allocates a fresh buffer; write into a warm buffer with the "
             "*Into form, or justify a cold-path call with an allow"});
  }
}

// ---------------------------------------------------------------------------
// float-compare
// ---------------------------------------------------------------------------

// Value (non-pointer) identifiers declared with a floating type:
// `double x`, `const double& x`, `double x, y`, members, parameters,
// range-for bindings. Pointer declarators are skipped — `p != nullptr`
// on a double* is exact and fine. With include_params=false, declarators
// inside parentheses are skipped too: a sibling header's function
// parameter names never exist in the .cc's scope, so importing them
// would flag unrelated same-named locals. Known blind spots (documented
// in DESIGN.md §11): floating values reached through containers, `auto`,
// or function returns; those still flag when compared against a floating
// literal, which covers the common sentinel pattern.
std::set<std::string> FloatValueNames(const TokenFile& tf,
                                      bool include_params) {
  std::set<std::string> names;
  const Tokens& toks = tf.tokens;
  int paren_depth = 0;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (IsPunct(toks[i], "(")) ++paren_depth;
    if (IsPunct(toks[i], ")")) --paren_depth;
    if (!include_params && paren_depth > 0) continue;
    if (!IsIdent(toks[i], "double") && !IsIdent(toks[i], "float")) continue;
    size_t j = i + 1;
    bool pointer = false;
    while (j < toks.size()) {
      if (IsPunct(toks[j], "*")) {
        pointer = true;
        ++j;
      } else if (IsPunct(toks[j], "&") || IsPunct(toks[j], "&&") ||
                 IsIdent(toks[j], "const")) {
        ++j;
      } else {
        break;
      }
    }
    // Declarator chain: ident followed by a terminator; ',' continues the
    // chain (`double a, b;`), '(' means a function declaration (skip).
    while (j + 1 < toks.size() && toks[j].kind == TokKind::kIdent) {
      const Tok& next = toks[j + 1];
      const bool terminates =
          next.kind == TokKind::kPunct &&
          (next.text == "," || next.text == ";" || next.text == "=" ||
           next.text == ")" || next.text == "]" || next.text == "{" ||
           next.text == ":" || next.text == "}");
      if (!terminates) break;
      if (!pointer) names.insert(toks[j].text);
      if (next.text != ",") break;
      j += 2;
      pointer = false;
      while (j < toks.size() &&
             (IsPunct(toks[j], "*") || IsPunct(toks[j], "&"))) {
        pointer = pointer || IsPunct(toks[j], "*");
        ++j;
      }
    }
  }
  return names;
}

bool IsFloatLiteral(const Tok& t) {
  if (t.kind != TokKind::kNumber) return false;
  if (t.text.size() >= 2 && t.text[0] == '0' &&
      (t.text[1] == 'x' || t.text[1] == 'X')) {
    return false;
  }
  return t.text.find('.') != std::string::npos ||
         t.text.find('e') != std::string::npos ||
         t.text.find('E') != std::string::npos;
}

void CheckFloatCompare(const std::string& file, const FileClass& fc,
                       const TokenFile& tf,
                       const std::set<std::string>& float_names,
                       const Annotations& ann,
                       std::vector<Finding>* findings) {
  if (!fc.in_src) return;
  const Tokens& toks = tf.tokens;
  auto floating = [&](const Tok& t) {
    return IsFloatLiteral(t) ||
           (t.kind == TokKind::kIdent && float_names.count(t.text) > 0);
  };
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsPunct(toks[i], "==") && !IsPunct(toks[i], "!=")) continue;
    bool hit = i > 0 && floating(toks[i - 1]);
    size_t r = i + 1;
    if (r < toks.size() &&
        (IsPunct(toks[r], "-") || IsPunct(toks[r], "+"))) {
      ++r;  // unary sign on the right operand
    }
    hit = hit || (r < toks.size() && floating(toks[r]));
    if (!hit) continue;
    if (Suppressed(ann, "float-compare", toks[i].line)) continue;
    findings->push_back(
        {file, toks[i].line, "float-compare",
         "'" + toks[i].text +
             "' with a floating operand — exact FP equality is not "
             "portable across ISAs/partitions; compare against an "
             "explicit tolerance, use <=/>= for sentinel checks, or "
             "justify bitwise-intent with an allow"});
  }
}

// ---------------------------------------------------------------------------
// nondet-reduce
// ---------------------------------------------------------------------------

void CheckNondetReduce(const std::string& file, const FileClass& fc,
                       const TokenFile& tf, const Annotations& ann,
                       std::vector<Finding>* findings) {
  if (!fc.in_src || fc.la_exempt) return;
  static const std::set<std::string> kBanned = {
      "accumulate", "reduce", "transform_reduce", "inner_product"};
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
    // Require the qualified call form std::accumulate( — a parameter or
    // member named `accumulate` is not a reduction.
    if (!NextIs(toks, i, "(")) continue;
    if (i < 2 || !IsPunct(toks[i - 1], "::") || !IsIdent(toks[i - 2], "std")) {
      continue;
    }
    if (Suppressed(ann, "nondet-reduce", t.line)) continue;
    findings->push_back(
        {file, t.line, "nondet-reduce",
         "'std::" + t.text +
             "' — library reductions fix neither shard boundaries nor "
             "combination order, so results drift across partitions and "
             "thread counts; reduce through the la kernels "
             "(ParallelForShards partials combined in shard order) or "
             "write the loop explicitly"});
  }
}

// ---------------------------------------------------------------------------
// env-read
// ---------------------------------------------------------------------------

void CheckEnvRead(const std::string& file, const FileClass& fc,
                  const TokenFile& tf, const Annotations& ann,
                  std::vector<Finding>* findings) {
  if (!fc.in_src || fc.env_exempt) return;
  static const std::set<std::string> kBanned = {
      "getenv", "secure_getenv", "setenv", "putenv", "unsetenv"};
  const Tokens& toks = tf.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    const Tok& t = toks[i];
    if (t.kind != TokKind::kIdent || kBanned.count(t.text) == 0) continue;
    if (!NextIs(toks, i, "(")) continue;
    if (Suppressed(ann, "env-read", t.line)) continue;
    findings->push_back(
        {file, t.line, "env-read",
         "'" + t.text +
             "' — ambient process state read outside src/util//src/obs/; "
             "configuration enters library code through explicit "
             "parameters so runs are reproducible from their inputs"});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Registry + per-file driver
// ---------------------------------------------------------------------------

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {"rng", "unseeded or wall-clock randomness outside src/util/rng"},
      {"unordered-iter", "range-for over an unordered container"},
      {"io", "stdout/stderr output in library code"},
      {"naked-new", "raw new/delete/malloc/free"},
      {"shard-noinline", "loop body inside a ParallelFor* closure"},
      {"raw-chrono-timing", "std::chrono clock read outside src/obs/"},
      {"simd-intrinsics", "vendor SIMD intrinsics outside src/la/simd.h"},
      {"hot-path-alloc", "allocating kernel call in a TU on the *Into path"},
      {"float-compare", "==/!= with a floating operand in src/"},
      {"nondet-reduce",
       "std::accumulate/std::reduce family outside src/la/"},
      {"env-read", "environment access outside src/util/ + src/obs/"},
      {"include-layering",
       "include edge against the module layering DAG"},
      {"include-cycle", "cyclic include chain"},
      {"harness-include", "src/ file including tools//bench//tests/ code"},
      {"simd-include", "direct include of src/la/simd.h outside src/la/"},
      {"allow-reason", "allow() annotation without a justification"},
      {"allow-unknown-rule", "allow() naming a rule that does not exist"},
  };
  return kCatalog;
}

const std::set<std::string>& RuleIds() {
  static const std::set<std::string> kIds = [] {
    std::set<std::string> ids;
    for (const RuleInfo& r : RuleCatalog()) ids.insert(r.id);
    return ids;
  }();
  return kIds;
}

FileFacts AnalyzeFileContent(const std::string& rel_path,
                             const std::string& content,
                             const std::string& sibling_header) {
  const FileClass fc = Classify(rel_path);
  const TokenFile tf = Lex(content);
  const Annotations ann = ParseAnnotations(rel_path, tf, RuleIds());

  std::set<std::string> unordered_names = UnorderedDeclNames(tf);
  std::set<std::string> float_names =
      FloatValueNames(tf, /*include_params=*/true);
  bool adopted = AdoptedIntoPath(tf);
  if (!sibling_header.empty()) {
    const TokenFile header = Lex(sibling_header);
    for (const std::string& name : UnorderedDeclNames(header)) {
      unordered_names.insert(name);
    }
    for (const std::string& name :
         FloatValueNames(header, /*include_params=*/false)) {
      float_names.insert(name);
    }
    // A .cc whose header holds the Workspace member is on the hot path
    // even if the .cc itself never names the type.
    adopted = adopted || AdoptedIntoPath(header);
  }

  FileFacts facts;
  facts.findings = ann.findings;
  CheckRng(rel_path, fc, tf, ann, &facts.findings);
  CheckUnorderedIter(rel_path, tf, unordered_names, ann, &facts.findings);
  CheckIo(rel_path, fc, tf, ann, &facts.findings);
  CheckRawChronoTiming(rel_path, fc, tf, ann, &facts.findings);
  CheckNakedNew(rel_path, tf, ann, &facts.findings);
  CheckShardNoinline(rel_path, fc, tf, ann, &facts.findings);
  CheckSimdIntrinsics(rel_path, fc, tf, ann, &facts.findings);
  CheckHotPathAlloc(rel_path, fc, tf, adopted, ann, &facts.findings);
  CheckFloatCompare(rel_path, fc, tf, float_names, ann, &facts.findings);
  CheckNondetReduce(rel_path, fc, tf, ann, &facts.findings);
  CheckEnvRead(rel_path, fc, tf, ann, &facts.findings);

  facts.includes = tf.includes;
  facts.include_allows.reserve(facts.includes.size());
  for (const IncludeDirective& inc : facts.includes) {
    std::set<std::string> allowed;
    for (const auto& [rule, ranges] : ann.allow) {
      for (const auto& [first, last] : ranges) {
        if (inc.line >= first && inc.line <= last) {
          allowed.insert(rule);
          break;
        }
      }
    }
    facts.include_allows.push_back(std::move(allowed));
  }
  return facts;
}

}  // namespace gale::analyze
