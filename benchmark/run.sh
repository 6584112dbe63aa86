#!/usr/bin/env bash
# The command of BENCHMARK.json. Builds the one binary the run needs —
# `bench` for `--trace 0`, `trace` for `--trace 1`, so a refactor that
# breaks the operator-level trace cannot break the end-to-end run — and
# runs it with the driver's arguments:
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root (the driver does); honours CARGO_TARGET_DIR.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

bin=bench
prev=
for arg in "$@"; do
  if [[ "$prev" == "--trace" && "$arg" == "1" ]]; then bin=trace; fi
  prev="$arg"
done

# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$bin" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/$bin" "$@"
