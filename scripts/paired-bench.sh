#!/usr/bin/env bash
# The paired protocol of benchmark/README.md ("Protocol for later claims"),
# end to end: this working tree (the change) against a parent revision.
#
#   scripts/paired-bench.sh <parent-rev> [pairs=10] [seconds=20] [workload...]
#
# Exports <parent-rev> into a directory of its own, builds each side into
# its own CARGO_TARGET_DIR, and runs `benchmark/run.sh --trace 0` on every
# workload of BENCHMARK.json — or only on the workloads named after
# <seconds>, to re-run one alone — <pairs> times per side: one seed per
# pair. Within a pair each workload runs on both sides back to back, so a
# noisy minute of the box lands on both runs it compares; the side that
# goes first alternates from pair to pair. One more pair runs on a seed
# taken from the clock, which nobody can have tuned against.
# Prints one table cell per (metric, workload):
#
#   parent median → change median (relative change, IQR = the parent's own
#   quartile distance as a share of its median, pairs the change won)
#
# followed by the protocol's verdicts, with each metric's `bound` from
# BENCHMARK.json: **unresolved** when the parent's IQR exceeds the bound,
# **worse** when the change median is worse by more than the bound, and
# **gain** when the change won ≥ 9 of 10 pairs and its median moved by
# more than the parent's quartile distance. No tag: none of these holds.
#
# and the unseen-seed pair as parent → change. Everything is kept under
# .bench_build/paired/ (git-ignored); a run at the defaults takes ≈ 45 min.
# Needs python3 (standard library only) for the table.
set -euo pipefail

usage="usage: scripts/paired-bench.sh <parent-rev> [pairs=10] [seconds=20] [workload...]"
parent_rev="${1:?$usage}"
pairs="${2:-10}"
seconds="${3:-20}"
shift $(($# < 3 ? $# : 3))
root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
work="$root/.bench_build/paired"
runs="$work/runs"
seed0=20150831
unseen_seed="$(date +%s)"

sha="$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")"
rm -rf "$work/parent" "$runs"
mkdir -p "$work/parent" "$runs"
git -C "$root" archive "$sha" | tar -x -C "$work/parent"

# The named workloads, in BENCHMARK.json order; an unknown name is an error.
mapfile -t workloads < <(python3 -c '
import json, sys
known = [w["name"] for w in json.load(open(sys.argv[1]))["workloads"]]
wanted = sys.argv[2:] or known
unknown = [w for w in wanted if w not in known]
if unknown:
    sys.exit(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")
print("\n".join(w for w in known if w in wanted))
' "$root/BENCHMARK.json" "$@")
((${#workloads[@]})) || exit 1

# run_side <parent|change> <workload> <pair label> <seed>
run_side() {
  local side="$1" w="$2" pair="$3" seed="$4" dir="$root"
  [[ "$side" == parent ]] && dir="$work/parent"
  echo "pair $pair ($seed): $side $w" >&2
  # The harness exits non-zero when a check fails; the table reports it.
  (cd "$dir" && CARGO_TARGET_DIR="$work/target-$side" \
    bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 ||
    true) | tail -n 1 >"$runs/$side-$w-$pair.json"
}

for pair in $(seq 1 "$pairs") unseen; do
  if [[ "$pair" == unseen ]]; then
    seed="$unseen_seed"
    first=parent second=change
  else
    seed=$((seed0 + pair - 1))
    if ((pair % 2)); then first=parent second=change; else first=change second=parent; fi
  fi
  for w in "${workloads[@]}"; do
    run_side "$first" "$w" "$pair" "$seed"
    run_side "$second" "$w" "$pair" "$seed"
  done
done

python3 - "$root/BENCHMARK.json" "$runs" "$pairs" "$sha" "$seed0" "$unseen_seed" "${workloads[@]}" <<'PY'
import json, sys

spec_path, runs, pairs, sha, seed0, unseen_seed, *workloads = sys.argv[1:]
pairs = int(pairs)
spec = json.load(open(spec_path))
metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]


def load(side, workload, pair):
    with open(f"{runs}/{side}-{workload}-{pair}.json") as f:
        text = f.read().strip()
    try:
        run = json.loads(text)
    except ValueError:
        return None
    if not run.get("correct") or run.get("failed"):
        print(f"!! {side} {workload} pair {pair}: correct={run.get('correct')} "
              f"failed={run.get('failed')}/{run.get('attempted')}")
    return {name: m["value"] for name, m in run["metrics"].items()}


def quantile(values, q):
    values = sorted(values)
    at = q * (len(values) - 1)
    lo = int(at)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (at - lo)


def fmt(x):
    return f"{x:.4g}"


def cell(better, bound, parent, change):
    sign = 1 if better == "lower" else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    pm, cm = quantile(parent, 0.5), quantile(change, 0.5)
    iqr = quantile(parent, 0.75) - quantile(parent, 0.25)
    worse_by = sign * (cm - pm) / pm
    verdicts = []
    if iqr / pm > bound:
        verdicts.append("**unresolved**")
    if worse_by > bound:
        verdicts.append("**worse**")
    if 10 * won >= 9 * len(parent) and -sign * (cm - pm) > iqr:
        verdicts.append("**gain**")
    return (f"{fmt(pm)} → {fmt(cm)} ({100 * (cm - pm) / pm:+.1f}%, "
            f"IQR {100 * iqr / pm:.0f}%, {won}/{len(parent)})" + "".join(" " + v for v in verdicts))


print(f"parent {sha[:7]} → working tree: {pairs} pairs, seeds {seed0}…{int(seed0) + pairs - 1}, "
      f"each workload's two sides back to back, the first alternating; unseen seed {unseen_seed}")
data = {}
for w in workloads:
    for side in ("parent", "change"):
        loaded = [load(side, w, p) for p in range(1, pairs + 1)]
        if None in loaded:
            sys.exit(f"{side} {w}: a run printed no result line")
        data[side, w] = loaded
print()
print("| metric | " + " | ".join(workloads) + " |")
print("|---|" + "---|" * len(workloads))
for name, better, bound in metrics:
    cells = [cell(better, bound,
                  [r[name] for r in data["parent", w]],
                  [r[name] for r in data["change", w]]) for w in workloads]
    print(f"| `{name}` | " + " | ".join(cells) + " |")
print()
print(f"unseen seed {unseen_seed} (one pair, parent → change):")
print()
print("| metric | " + " | ".join(workloads) + " |")
print("|---|" + "---|" * len(workloads))
unseen = {(s, w): load(s, w, "unseen") for s in ("parent", "change") for w in workloads}
for name, _, _ in metrics:
    cells = []
    for w in workloads:
        p, c = unseen["parent", w], unseen["change", w]
        cells.append("no result" if p is None or c is None else
                     f"{fmt(p[name])} → {fmt(c[name])} ({100 * (c[name] - p[name]) / p[name]:+.1f}%)")
    print(f"| `{name}` | " + " | ".join(cells) + " |")
PY
