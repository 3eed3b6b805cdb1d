#!/bin/sh
# Paired A/B runs of the repository benchmark (perfbench) between a
# base revision and this checkout.
#
#   scripts/ab.sh REV [--pairs N] [--workloads W...] [--seconds S]
#                     [--seed0 K] [--json FILE]
#
# REV's committed files are exported (git archive) into a temporary
# directory, and perfbench is built there and in this checkout, the
# working tree as it stands.  Then, per workload, pair i runs both sides
# at seed K+i, the base first in even pairs and the change first in odd
# ones, each through `python3 perfbench/run.py --trace 0`.  Defaults:
# 10 pairs, every workload BENCHMARK.json declares, its run_seconds,
# seeds from 3001.
#
# Before each pair, scripts/vcpu_probe.exe (built in this checkout)
# times an integer loop run twice on one domain against once on each of
# two domains at once, and the ratio is stored with the pair: about 2.0
# when the host gave the runs two CPUs, about 1.0 when it gave one.
#
# scripts/ab_summary.py then checks that every sim_* metric is equal
# within each pair (the simulation is deterministic per seed, so a
# difference is a behaviour change, not noise) and prints, per workload
# and end-to-end metric, each side's median [Q1, Q3], the change's wins
# out of N in the metric's better direction, a two-sided sign test p
# and whether the medians differ by more than the base's IQR.  The raw
# pairs go to FILE as JSON (default .bench_build/ab-REV.json, next to
# perfbench's own staging tree).  Pairs whose probe read below 1.5 are
# listed in a row of their own per workload.
#
# Exits 1 on a failed build or run, an incorrect result or a sim_*
# mismatch, 2 on bad usage.  The export is removed on exit.
set -eu
cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
  echo "usage: scripts/ab.sh REV [--pairs N] [--workloads W...] [--seconds S]" \
    "[--seed0 K] [--json FILE]" >&2
  exit 2
}

[ $# -ge 1 ] || usage
rev=$1
shift
pairs=10
seconds=""
seed0=3001
json=""
workloads=""
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) [ $# -ge 2 ] || usage; pairs=$2; shift 2 ;;
    --seconds) [ $# -ge 2 ] || usage; seconds=$2; shift 2 ;;
    --seed0) [ $# -ge 2 ] || usage; seed0=$2; shift 2 ;;
    --json) [ $# -ge 2 ] || usage; json=$2; shift 2 ;;
    --workloads)
      shift
      while [ $# -gt 0 ]; do
        case "$1" in --*) break ;; esac
        workloads="$workloads $1"
        shift
      done ;;
    *) usage ;;
  esac
done
case "$pairs" in ''|*[!0-9]*) usage ;; esac
[ "$pairs" -ge 1 ] || usage
case "$seed0" in ''|*[!0-9]*) usage ;; esac

declared() {
  python3 -c "import json,sys; b=json.load(open('BENCHMARK.json')); $1"
}
[ -n "$workloads" ] \
  || workloads=$(declared "print(' '.join(w['name'] for w in b['workloads']))")
[ -n "$seconds" ] || seconds=$(declared "print(b['run_seconds'])")

base=$(git rev-parse --verify --quiet "$rev^{commit}") || {
  echo "ab.sh: $rev is not a commit" >&2; exit 2; }
short=$(git rev-parse --short=12 "$base")
[ -n "$json" ] || json="$root/.bench_build/ab-$short.json"
if [ -n "$(git status --porcelain -- lib perfbench)" ]; then
  echo "ab.sh: note: the change side includes uncommitted edits under lib/ or perfbench/" >&2
fi

tmp=$(mktemp -d "${TMPDIR:-/tmp}/cards-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"

# run SIDE_ROOT WORKLOAD SEED SECONDS: one benchmark run; its JSON
# result line goes to stdout.
run() {
  out="$tmp/run.out"
  if ! (cd "$1" && python3 perfbench/run.py --workload "$2" --seed "$3" \
      --seconds "$4" --trace 0) > "$out" 2> "$tmp/run.err"; then
    echo "ab.sh: run failed: $1 $2 seed $3" >&2
    tail -n 20 "$tmp/run.err" >&2
    tail -n 1 "$out" >&2
    exit 1
  fi
  tail -n 1 "$out"
}

echo "== building the two-domain probe" >&2
dune build ./scripts/vcpu_probe.exe
probe_exe="$root/_build/default/scripts/vcpu_probe.exe"

# One short run per side builds perfbench there, outside the pairs.
first=$(echo $workloads | cut -d' ' -f1)
for side in "$tmp/base" "$root"; do
  echo "== building perfbench in $side" >&2
  run "$side" "$first" "$seed0" 1 > /dev/null
done

raw="$tmp/raw.jsonl"
: > "$raw"
for w in $workloads; do
  i=0
  while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then order="base change"; else order="change base"; fi
    probe=$("$probe_exe")
    for side in $order; do
      dir=$root
      [ "$side" = base ] && dir=$tmp/base
      result=$(run "$dir" "$w" "$seed" "$seconds")
      printf '{"workload":"%s","pair":%d,"seed":%d,"side":"%s","probe":%s,"result":%s}\n' \
        "$w" "$i" "$seed" "$side" "$probe" "$result" >> "$raw"
    done
    echo "  $w pair $((i + 1))/$pairs (seed $seed, $order, probe ${probe}x)" >&2
    i=$((i + 1))
  done
done

python3 scripts/ab_summary.py --bench BENCHMARK.json --raw "$raw" \
  --base "$short" --json "$json"
