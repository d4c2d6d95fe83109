#!/usr/bin/env bash
# Full pre-merge gate: static analysis, a warnings-as-errors build with the
# contract layer live, and the sanitizer matrix. Usage:
#
#   tools/check_all.sh [stage...]
#
# Stages (default: all of them, in this order):
#   analyze gale_analyze: rule self-test, clean scan, a byte-identical
#           report at 1 and 4 threads; SARIF must parse
#   werror  -Werror build with GALE_DEBUG_CHECKS=ON, full ctest suite
#   asan    AddressSanitizer build, full ctest suite
#   ubsan   UndefinedBehaviorSanitizer build (unrecoverable), full suite
#   tsan    ThreadSanitizer build, thread-pool/determinism suites at
#           several thread counts (the old tools/check_tsan.sh)
#   simdoff GALE_SIMD=OFF scalar-fallback build, full ctest suite — keeps
#           the non-vectorized path green (it is the bitwise reference
#           the SIMD kernels are checked against)
#   codegen Release build of the libraries, then
#           tools/check_simd_codegen.sh over them: no AVX-512 (zmm or
#           opmask) register in an avx2-tier function and no ymm register
#           in a scalar-tier one, so an AVX2-only CPU never meets an EVEX
#           instruction that the AVX-512 test hosts would run fine
#   serve   serving-path gate: the batcher replay harness under TSan
#           (races between callers taking turns as leader) and ASan (the
#           snapshot's binary loader on corrupt/truncated files), plus an
#           8-thread replay leg. Reuses build-tsan/build-asan, so after
#           those stages it is incremental.
#   store   versioned-store gate: the publish pipeline (apply batches,
#           incremental PPR reuse, epoch snapshots) under TSan at the
#           default/_mt4/8-thread legs, and the delta-log loader walking
#           truncated / bit-flipped logs under ASan. Reuses
#           build-tsan/build-asan like the serve stage.
#
# Opt-in stages (never run by default; name them explicitly):
#   bench   tools/bench_check.sh — benchmark-regression gate against the
#           committed bench/baselines/BENCH_*.json (timing-sensitive, so
#           it stays out of the default matrix)
#
# Each stage builds into its own tree (build-<stage>) so instrumented
# objects never mix. Roughly 10-20 minutes for the full matrix.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
stages=("$@")
if [ ${#stages[@]} -eq 0 ]; then
  stages=(analyze werror asan ubsan tsan simdoff codegen serve store)
fi
jobs="$(nproc)"

run_stage() {
  echo
  echo "=== check_all: $1 ==="
}

configure_and_test() {
  # configure_and_test <build-dir> <cmake-args...>: fresh configure, full
  # build, full suite (the gale_analyze and *_mt4 entries included).
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S "${repo_root}" "$@"
  cmake --build "${build_dir}" -j "${jobs}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${jobs}"
}

for stage in "${stages[@]}"; do
  case "${stage}" in
    analyze)
      run_stage "gale_analyze (parallel scan + include graph + SARIF)"
      build_dir="${repo_root}/build-lint"
      cmake -B "${build_dir}" -S "${repo_root}" >/dev/null
      cmake --build "${build_dir}" -j "${jobs}" --target gale_analyze
      analyzer="${build_dir}/tools/gale_analyze"
      "${analyzer}" --self-test
      scratch="$(mktemp -d)"
      trap 'rm -rf "${scratch}"' EXIT
      # The scan must be clean (findings exit 1 and fail the stage) and
      # emit the same report at 1 and 4 threads.
      GALE_NUM_THREADS=1 "${analyzer}" "${repo_root}" \
        > "${scratch}/t1.txt" 2>/dev/null
      GALE_NUM_THREADS=4 "${analyzer}" "${repo_root}" \
        > "${scratch}/t4.txt" 2>/dev/null
      cmp "${scratch}/t1.txt" "${scratch}/t4.txt" || {
        echo "check_all: reports differ across thread counts" >&2
        exit 1
      }
      # SARIF output must be valid JSON.
      "${analyzer}" --format=sarif "${repo_root}" 2>/dev/null \
        | python3 -c "import json,sys; json.load(sys.stdin)"
      echo "check_all: analyze stage OK (clean tree, thread-count exact)"
      ;;
    werror)
      run_stage "-Werror build with contract checks live"
      configure_and_test "${repo_root}/build-werror" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_WERROR=ON -DGALE_DEBUG_CHECKS=ON
      ;;
    asan)
      run_stage "AddressSanitizer"
      configure_and_test "${repo_root}/build-asan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=address -DGALE_DEBUG_CHECKS=ON
      ;;
    ubsan)
      run_stage "UndefinedBehaviorSanitizer"
      configure_and_test "${repo_root}/build-ubsan" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=undefined -DGALE_DEBUG_CHECKS=ON
      ;;
    tsan)
      run_stage "ThreadSanitizer (parallel kernels)"
      build_dir="${repo_root}/build-tsan"
      cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=thread
      cmake --build "${build_dir}" -j "${jobs}" --target \
        util_thread_pool_test la_parallel_equivalence_test \
        la_into_equivalence_test nn_alloc_free_test \
        eval_determinism_test prop_test la_pca_kmeans_test \
        core_selector_test la_sparse_test ppr_batch_equivalence_test
      # The *_mt4 ctest entries pin GALE_NUM_THREADS=4; re-run the
      # kernel-heavy suites at a wider 8 threads for extra interleavings.
      # la_sparse and ppr_batch_equivalence cover the lazily built sliced
      # view and its chunk-sharded width-1 gather.
      ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^(util_thread_pool|la_parallel_equivalence|la_into_equivalence|nn_alloc_free|eval_determinism|prop|la_pca_kmeans|core_selector|la_sparse|ppr_batch_equivalence)_test(_mt4)?$'
      GALE_NUM_THREADS=8 ctest --test-dir "${build_dir}" --output-on-failure \
        -R '(util_thread_pool|la_parallel_equivalence|la_into_equivalence|la_sparse|ppr_batch_equivalence)_test$'
      ;;
    simdoff)
      run_stage "GALE_SIMD=OFF scalar fallback"
      configure_and_test "${repo_root}/build-simdoff" \
        -DCMAKE_BUILD_TYPE=Release \
        -DGALE_SIMD=OFF -DGALE_DEBUG_CHECKS=ON
      ;;
    codegen)
      run_stage "SIMD tier codegen (objdump over the libraries)"
      build_dir="${repo_root}/build-codegen"
      cmake -B "${build_dir}" -S "${repo_root}" -DCMAKE_BUILD_TYPE=Release
      cmake --build "${build_dir}" -j "${jobs}" --target \
        gale_util gale_obs gale_la gale_nn gale_graph gale_prop gale_core \
        gale_detect gale_baselines gale_eval gale_serve gale_store
      "${repo_root}/tools/check_simd_codegen.sh" \
        "${build_dir}"/src/*/libgale_*.a
      ;;
    serve)
      run_stage "serving path (replay under TSan + ASan, corruption cases)"
      # TSan: concurrent callers taking turns as leader. Same configure
      # flags as the tsan stage so the build tree is shared.
      build_dir="${repo_root}/build-tsan"
      cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=thread
      cmake --build "${build_dir}" -j "${jobs}" --target \
        serve_replay_test serve_snapshot_test
      ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^serve_(replay|snapshot)_test(_mt4)?$'
      # Wider interleavings than the pinned _mt4 leg.
      GALE_NUM_THREADS=8 GALE_OBS_LOGICAL_TIME=1 \
        ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^serve_replay_test$'
      # ASan: the snapshot loader walking truncated / bit-flipped files
      # must never read out of bounds. Same flags as the asan stage.
      build_dir="${repo_root}/build-asan"
      cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=address -DGALE_DEBUG_CHECKS=ON
      cmake --build "${build_dir}" -j "${jobs}" --target \
        serve_replay_test serve_snapshot_test
      ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^serve_(replay|snapshot)_test(_mt4)?$'
      ;;
    store)
      run_stage "versioned store (publish pipeline under TSan + ASan)"
      # TSan: the publish path runs feature encode + batched PPR on the
      # pool; the bitwise incremental-vs-scratch contract must hold with
      # races instrumented. Shares build-tsan with the tsan/serve stages.
      build_dir="${repo_root}/build-tsan"
      cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=thread
      cmake --build "${build_dir}" -j "${jobs}" --target \
        store_publish_test store_delta_log_test
      ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^store_(publish|delta_log)_test(_mt4)?$'
      # Wider interleavings than the pinned _mt4 leg.
      GALE_NUM_THREADS=8 GALE_OBS_LOGICAL_TIME=1 \
        ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^store_publish_test$'
      # ASan: the delta-log reader walking truncated / bit-flipped /
      # version-skewed logs must never read out of bounds.
      build_dir="${repo_root}/build-asan"
      cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DGALE_SANITIZE=address -DGALE_DEBUG_CHECKS=ON
      cmake --build "${build_dir}" -j "${jobs}" --target \
        store_publish_test store_delta_log_test
      ctest --test-dir "${build_dir}" --output-on-failure \
        -R '^store_(publish|delta_log)_test(_mt4)?$'
      ;;
    bench)
      run_stage "benchmark-regression gate (opt-in)"
      GALE_BENCH_BUILD_DIR="${repo_root}/build-bench" \
        "${repo_root}/tools/bench_check.sh"
      ;;
    *)
      echo "check_all: unknown stage '${stage}'" >&2
      echo "stages: analyze werror asan ubsan tsan simdoff codegen serve" \
           "store bench" >&2
      exit 2
      ;;
  esac
done

echo
echo "check_all: all stages passed (${stages[*]})"
