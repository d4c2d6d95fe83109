#!/usr/bin/env bash
# Codegen guard for the SIMD tiers (src/la/simd.h). Disassembles the given
# object files or static libraries and fails if
#   * a function in gale::la::simd::avx2 touches a zmm register or an
#     opmask register (%k0-%k7), or
#   * a function in gale::la::simd::scalar touches a ymm or zmm register.
# An EVEX instruction that leaked into the AVX2 tier (say, a wrong
# `#pragma GCC target`) passes every _avx2 test on an AVX-512 host and then
# faults on an AVX2-only CPU; this catches it from the binary. It also
# fails when it finds no avx2 function at all, so an empty scan cannot
# pass.
#
# Usage: tools/check_simd_codegen.sh <object-or-archive>...
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 <object-or-archive>..." >&2
  exit 2
fi

objdump -d -C --no-show-raw-insn "$@" | awk '
  # A function header: "0000000000000000 <demangled name>:". The tier is
  # read from the name before its parameter list, so a lambda or template
  # instantiated inside a tier function counts as that tier.
  /^[0-9a-f]+ <.*>:$/ {
    fn = $0
    sub(/^[0-9a-f]+ </, "", fn)
    sub(/>:$/, "", fn)
    head = fn
    sub(/\(.*/, "", head)
    tier = ""
    if (head ~ /(^| )gale::la::simd::avx2::/) tier = "avx2"
    if (head ~ /(^| )gale::la::simd::scalar::/) tier = "scalar"
    if (tier != "") functions[tier]++
    next
  }
  tier == "avx2" && /%zmm|%k[0-7]/ {
    print "avx2 tier uses an AVX-512 register: " fn
    print "    " $0
    bad = 1
  }
  tier == "scalar" && /%ymm|%zmm/ {
    print "scalar tier uses a vector register wider than xmm: " fn
    print "    " $0
    bad = 1
  }
  END {
    if (functions["avx2"] == 0) {
      print "no gale::la::simd::avx2 function found in the scanned objects"
      bad = 1
    }
    printf "check_simd_codegen: %d avx2 and %d scalar functions scanned\n",
           functions["avx2"], functions["scalar"]
    exit bad
  }'
