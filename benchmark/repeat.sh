#!/usr/bin/env bash
# Two full sets of runs of the same build, back to back, workload order
# alternating (A forwards, B backwards); then a per-metric table of set A,
# set B, their difference and the bound. Exits non-zero if any end-to-end
# metric disagrees beyond its bound or any in-process count differs.
#   benchmark/repeat.sh [seed] [seconds]       (from the repository root)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-20150831}"
seconds="${2:-20}"
out="$here/out/repeat"
mkdir -p "$out"

workloads=(chain7 plans-wide tpch-big serve-mixed)
backwards=(serve-mixed tpch-big plans-wide chain7)
run_set() {
  local set="$1"
  shift
  for w in "$@"; do
    echo "set $set: $w" >&2
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 >"$out/$set-$w-e2e.txt"
    bash "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 >"$out/$set-$w-layer.txt"
  done
}
run_set A "${workloads[@]}"
run_set B "${backwards[@]}"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin compare >&2
"${CARGO_TARGET_DIR:-$here/target}/release/compare" "$out" A B
