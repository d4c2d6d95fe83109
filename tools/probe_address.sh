#!/usr/bin/env bash
# Speed-probe address check for an A/B of two gale_bench builds.
#
# gale_bench scales every timed operation by its speed probe
# (bench/e2e/speed_probe.cc), and the probe's own timing depends on its
# link address mod 64 (ROADMAP item 1). A change to any linked library
# can move it. This script prints the addresses of SpeedProbeSeconds and
# main in both binaries with their residues mod 64, and fails when a
# residue differs, so an A/B whose probe moved is caught before its
# scaled metrics are trusted. It only reads the binaries.
#
# Usage:
#   tools/probe_address.sh PARENT_BIN CHANGE_BIN
#
# Typically PARENT_BIN and CHANGE_BIN are the .bench_build/e2e/gale_bench
# of two checkouts. Exit status: 0 when both residues match, 1 when one
# differs, 2 on a usage error or a missing symbol.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN" >&2
  exit 2
fi

# Prints "<symbol> <hex address> <address mod 64>" for one symbol of $1;
# $2 is an extended regex matched against `nm -C` lines.
symbol_line() {
  local bin="$1" pattern="$2" label="$3" addr
  addr="$(nm -C "${bin}" | grep -E "${pattern}" | head -n 1 | cut -d' ' -f1)"
  if [ -z "${addr}" ]; then
    echo "probe_address: no ${label} in ${bin}" >&2
    exit 2
  fi
  echo "${label} 0x${addr#"${addr%%[!0]*}"} $((16#${addr} % 64))"
}

status=0
for label in SpeedProbeSeconds main; do
  if [ "${label}" = main ]; then pattern=' T main$'; else
    pattern=" T .*::${label}\\("; fi
  parent="$(symbol_line "$1" "${pattern}" "${label}")"
  change="$(symbol_line "$2" "${pattern}" "${label}")"
  read -r _ parent_addr parent_mod <<<"${parent}"
  read -r _ change_addr change_mod <<<"${change}"
  verdict=same
  if [ "${parent_mod}" -ne "${change_mod}" ]; then
    verdict=DIFFERS
    status=1
  fi
  printf '%-18s parent %-9s (≡%2d mod 64)  change %-9s (≡%2d mod 64)  %s\n' \
    "${label}" "${parent_addr}" "${parent_mod}" "${change_addr}" \
    "${change_mod}" "${verdict}"
done
exit "${status}"
