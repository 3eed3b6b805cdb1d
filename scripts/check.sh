#!/bin/sh
# Tier-1 gate: the whole build, the whole test suite, an
# observability smoke run (compile + execute a bundled example with
# causal spans, metrics, and the cycle-attribution profile on, then
# make sure the emitted Chrome trace is non-empty and shows the call
# stack, plus one adaptive-prefetch run with batching off), and the bench
# regression gates: fabric, attribution, fault-injection, causal-span,
# what-if prediction, execution-engine, layout-factorization and
# many-tenant serving experiments are diffed against the committed
# BENCH_fabric.json / BENCH_attr.json / BENCH_faults.json /
# BENCH_spans.json / BENCH_whatif.json / BENCH_host.json /
# BENCH_layout.json / BENCH_serve.json / BENCH_par.json baselines
# (2% relative tolerance) and the
# snapshots refreshed on a clean pass.  The bench gates run from a
# release build: the host gate asserts a wall-clock speedup of the
# pre-decoded engine over the reference interpreter, which only means
# anything with optimizations on (the cycle gates are deterministic
# and profile-independent, so sharing the binary costs nothing).
#
# Snapshot refresh is atomic across the whole run: every gate writes
# its fresh snapshot to a temp directory while comparing against the
# committed baseline, and the temps move into place only after ALL
# gates have passed.  A failure partway — even in the last gate —
# leaves every committed BENCH_*.json exactly as it was.
#
#   scripts/check.sh           # everything
#   scripts/check.sh --quick   # build + tests + smoke only: skips the
#                              # release build and the bench regression
#                              # gates (the slow half) for inner-loop
#                              # use; never touches any BENCH_*.json
#
# Exits non-zero on the first failure.  A regression-gate failure
# names the experiment, metric, baseline, and observed value on
# stderr; if the change is intentional, delete the stale BENCH_*.json
# and re-run to regenerate, or commit an intentionally refreshed one.
set -eu
cd "$(dirname "$0")/.."

quick=no
case "${1:-}" in
  --quick) quick=yes ;;
  "") ;;
  *) echo "usage: scripts/check.sh [--quick]" >&2; exit 2 ;;
esac

# The parallel serving engine runs tenants on OCaml 5 domains; on an
# older compiler the build would die pages deep in Domain/Atomic
# errors, so fail fast with the actual requirement instead.
ocaml_ver=$(ocamlc -version 2>/dev/null || echo none)
case "$ocaml_ver" in
  [5-9].*) ;;
  *) echo "check.sh: OCaml >= 5.0 required for domain parallelism \
(ocamlc -version says: $ocaml_ver)" >&2
     exit 1 ;;
esac

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

echo "== per-suite test counts"
dune exec --no-build test/test_main.exe -- list --color=never 2>/dev/null \
  | awk '$2 ~ /^[0-9]+$/ { n[$1]++ } END { for (s in n) printf "  %-14s %d\n", s, n[s] }' \
  | sort

echo "== differential oracle (qp x batching x fault rate, incl. slow)"
# The fault-injection differential suite, with its full-matrix pinned
# seeds (registered `Slow`, so plain runtest skips them) forced on.
dune exec --no-build test/test_main.exe -- test differential -e > /dev/null

echo "== slow transform tests (factorize chunk boundaries)"
dune exec --no-build test/test_main.exe -- test transform -e > /dev/null

echo "== serving-layer suite (tenant-isolation matrix, incl. slow)"
# The tenant-isolation differential oracle over the full
# qp x batching x fault-rate matrix (registered Slow), plus the DRR /
# admission property tests and the load-generator determinism suite.
dune exec --no-build test/test_main.exe -- test serve -e > /dev/null

echo "== parallel-engine suite (domain matrix + perturbation stress, incl. slow)"
# The domain-parallel engine's differential battery — bit-identicality
# against the sequential scheduler across domain counts, the
# scheduler-perturbation stress matrix (registered Slow), and the
# channel, pool and poison tests — forced on.
dune exec --no-build test/test_main.exe -- test par -e > /dev/null

echo "== smoke: cards run with --spans/--metrics/--profile"
trace=$(mktemp /tmp/cards-trace.XXXXXX.json)
tmpdir=$(mktemp -d /tmp/cards-bench.XXXXXX)
trap 'rm -f "$trace"; rm -rf "$tmpdir"' EXIT
dune exec --no-build bin/cards_cli.exe -- run examples/minic/listing1.mc \
  --policy all-remotable --local 1M --remotable 256K \
  --spans "$trace" --metrics --profile > /dev/null
test -s "$trace" || { echo "check.sh: empty trace file" >&2; exit 1; }
grep -q traceEvents "$trace" || {
  echo "check.sh: trace is not a Chrome trace_event file" >&2; exit 1; }
# The call stack: at least one call span on the interpreter row.
grep -Eq '"name":"call","cat":"span","ph":"X","ts":[^,]*,"dur":[^,]*,"pid":1,"tid":0,' \
  "$trace" || {
  echo "check.sh: trace has no call span on the interpreter row" >&2
  exit 1; }
# Adaptive prefetcher selection with unbatched prefetch issue, end to
# end (no bench gate runs adaptive mode).
dune exec --no-build bin/cards_cli.exe -- run examples/minic/fig9_list.mc \
  --policy all-remotable --local 1M --remotable 768K --no-batching \
  --prefetch adaptive --profile > /dev/null

echo "== --domains parity: cards serve at 1, 2, 4 and --whatif-validate at 1 vs 2"
# The CLI's two parallel paths — the serving engine and the what-if
# validation pool — must print the same numbers at any domain count.
# cards serve's whole stdout (every table) must match; on stderr only
# its footer naming the domain count and the warning a host with fewer
# cores prints may differ.
cards() { dune exec --no-build bin/cards_cli.exe -- "$@"; }
for d in 1 2 4; do
  cards serve --tenants 8 --requests 40 --faulty 1 --domains "$d" \
    > "$tmpdir/serve-$d.out" 2> "$tmpdir/serve-$d.err"
  grep ' cycles total' "$tmpdir/serve-$d.err" > "$tmpdir/serve-$d.total" || {
    echo "check.sh: cards serve --domains $d printed no cycles total" >&2
    exit 1; }
done
for d in 2 4; do
  cmp -s "$tmpdir/serve-1.out" "$tmpdir/serve-$d.out" \
    && cmp -s "$tmpdir/serve-1.total" "$tmpdir/serve-$d.total" || {
    echo "check.sh: cards serve output differs at --domains $d" >&2
    exit 1; }
done
for d in 1 2; do
  cards run examples/minic/listing1.mc --policy all-remotable \
    --local 1M --remotable 256K --whatif-validate --domains "$d" \
    > "$tmpdir/whatif-$d.out" 2> "$tmpdir/whatif-$d.err"
  grep -v '^-- warning: --domains' "$tmpdir/whatif-$d.err" \
    > "$tmpdir/whatif-$d.table"
done
cmp -s "$tmpdir/whatif-1.out" "$tmpdir/whatif-2.out" \
  && cmp -s "$tmpdir/whatif-1.table" "$tmpdir/whatif-2.table" || {
  echo "check.sh: --whatif-validate output differs at --domains 2" >&2
  exit 1; }

echo "== unwritable output path: named error, exit 1"
status=0
cards run examples/minic/listing1.mc --spans "$tmpdir/missing/x.json" \
  > /dev/null 2> "$tmpdir/unwritable.err" || status=$?
if [ "$status" != 1 ] || ! grep -q '^error: ' "$tmpdir/unwritable.err"; then
  echo "check.sh: unwritable --spans path exited $status" \
    "(want 1 with an error: line)" >&2
  exit 1
fi

echo "== bad flag values: named error, exit 1, at once"
# Each is validated before anything runs.  The timeout catches a
# --metrics-interval 0 that is clamped instead of rejected: sampling on
# every access runs for half a minute and prints half a gigabyte.
for args in "run examples/minic/listing1.mc --qp 0" "serve --quantum 0" \
    "serve --pin-budget=-5" \
    "run examples/minic/listing1.mc --metrics --metrics-interval 0" \
    "serve --requests=-3" "serve --gap=-5" "serve --gap nan" \
    "serve --gap inf" "run examples/minic/listing1.mc -k 5" \
    "run examples/minic/listing1.mc -k-0.5" \
    "run examples/minic/listing1.mc -k nan" \
    "run examples/minic/listing1.mc --retry-max=-1" \
    "run examples/minic/listing1.mc --policy all-remotable --remotable=-5" \
    "run examples/minic/listing1.mc --local=-5" \
    "workload analytics --scale=-5" "workload analytics --scale 0"; do
  status=0
  # shellcheck disable=SC2086 # word-split the flag list on purpose
  timeout 10 dune exec --no-build bin/cards_cli.exe -- $args \
    > /dev/null 2> "$tmpdir/badflag.err" || status=$?
  if [ "$status" != 1 ] || ! grep -q '^error: ' "$tmpdir/badflag.err"; then
    echo "check.sh: cards $args exited $status" \
      "(want 1 with an error: line)" >&2
    exit 1
  fi
done

echo "== allocation ceiling: minor words per interpreted instruction"
# The decoded engine's per-instruction charge, calls, guard hits, heap
# accesses and prefetch issue allocate nothing and a demand miss a
# bounded few words, so a whole run allocates well under half a minor
# word per instruction (demand misses, prefetch batches, setup): 0.19,
# 0.40 and 0.05 on the three runs below.  Fail above 0.5 words per
# instruction.  With --prefetch none every remote fault is a demand
# miss.  The built binary runs directly: dune exec is an OCaml program
# itself, and its own allocation would count.
for pol in "--policy all-remotable --local 1M --remotable 768K" \
    "--policy all-remotable --local 1M --remotable 768K --prefetch none" \
    "--policy all-local"; do
  # shellcheck disable=SC2086 # word-split the flag list on purpose
  OCAMLRUNPARAM=v=0x400 _build/default/bin/cards_cli.exe run \
    examples/minic/fig9_list.mc --factorize $pol \
    > /dev/null 2> "$tmpdir/alloc.err"
  instrs=$(sed -n 's/.* \([0-9][0-9]*\) instructions.*/\1/p' "$tmpdir/alloc.err")
  words=$(sed -n 's/^minor_words: *\([0-9][0-9]*\).*/\1/p' "$tmpdir/alloc.err")
  if [ -z "$instrs" ] || [ -z "$words" ] \
      || [ $((2 * words)) -gt "$instrs" ]; then
    echo "check.sh: fig9_list.mc $pol: ${words:-?} minor words for" \
      "${instrs:-?} instructions (ceiling 0.5 per instruction)" >&2
    exit 1
  fi
  echo "  $pol: $words minor words, $instrs instructions"
done

if [ "$quick" = yes ]; then
  echo "== check.sh: quick pass green (bench gates skipped)"
  exit 0
fi

echo "== dune build (release, for the bench gates)"
dune build --profile release bench/main.exe
BENCH=_build/default/bench/main.exe

# gate SECTION BASELINE PATTERN — run one bench section, comparing its
# experiments against the committed BASELINE (which must exist and
# stays untouched here) and writing the fresh snapshot to the temp
# directory; PATTERN is a sanity grep proving the snapshot carries the
# section's counters.  Refreshed snapshots land in $refreshed and move
# into place only after every gate is green.
refreshed=""
gate() {
  section=$1; base=$2; pattern=$3
  "$BENCH" --only "$section" \
    --json "$tmpdir/$base" --compare "$base" --tolerance 0.02 \
    > /dev/null
  test -s "$tmpdir/$base" || {
    echo "check.sh: empty $base from the $section gate" >&2; exit 1; }
  grep -q "$pattern" "$tmpdir/$base" || {
    echo "check.sh: $base has no $pattern entries" >&2; exit 1; }
  refreshed="$refreshed $base"
}

echo "== bench: fabric batching gate (BENCH_fabric.json, 2% tolerance)"
# The fabric section is itself an assertion: it exits non-zero if the
# batched transport fails to beat per-object requests or if outputs
# diverge.
gate fabric BENCH_fabric.json '"batches"'

echo "== bench: stall-attribution gate (BENCH_attr.json, 2% tolerance)"
# The attr section hard-asserts the ledger exactness invariant
# (sum of per-cause stalls = cycles - compute) on the fig8/fig9
# workloads, then the gate diffs cycles and fabric counters against
# the committed baseline.
gate attr BENCH_attr.json '"experiments"'

echo "== bench: fault-injection gate (BENCH_faults.json, 2% tolerance)"
# The faults section hard-asserts output invariance vs the fault-free
# run, stall-ledger exactness (Retry bucket included), a bounded
# slowdown under degradation, and same-seed determinism; the gate
# then diffs cycles and fabric/fault counters against the baseline.
gate faults BENCH_faults.json '"faults_transient"'

echo "== bench: causal-span gate (BENCH_spans.json, 2% tolerance)"
# The spans section hard-asserts that span recording is read-only
# (traced runs bit-identical to bare runs), that the span graph is
# acyclic, that at rate 1.0 every span phase reconciles exactly with
# the stall ledger, and that the critical-path analyzer finds a
# nonzero chain; the gate then diffs each run's cycles and its
# critical-path length against the baseline.
gate spans BENCH_spans.json '"spans-pc-list-critical-path"'

echo "== bench: what-if prediction gate (BENCH_whatif.json, 2% tolerance)"
# The whatif section hard-asserts that the span-graph replay's
# identity scenario reproduces the measured run and the critical-path
# chain to the cycle, that every catalog scenario re-executed with the
# real runtime knob keeps program outputs bit-identical, that
# predicted-faster implies measured-faster, and that predictions land
# within 15% of the re-run; the gate then diffs both the measured and
# the predicted cycles of every scenario against the baseline, so the
# predictor itself is regression-gated.
gate whatif BENCH_whatif.json '"whatif-fig9-list-identity-pred"'

echo "== bench: layout-factorization gate (BENCH_layout.json, 2% tolerance)"
# The layout section hard-asserts that --factorize leaves program
# outputs bit-identical while strictly shrinking both fetched bytes
# and cycles on the fig9 list chase and the AoS analytics table, that
# per-structure fetched-bytes counters sum exactly to the fabric's,
# and that both engines agree across qp x batching x fault rate on
# the transformed modules; the gate then diffs the before/after
# cycles and fabric counters against the baseline.
gate layout BENCH_layout.json '"layout-fig9-list-fact"'

echo "== bench: engine speedup gate (BENCH_host.json, 2% tolerance)"
# The host section hard-asserts that the pre-decoded engine is
# bit-identical to the reference interpreter (arithmetic and pc-list
# workloads, whole result records) and at least 2x faster in
# instructions per host second, as the median ratio over 7 alternating
# (reference, decoded) pairs; the gate then diffs the simulated
# cycles of both workloads against the baseline.  The wall-clock
# ratio itself is asserted in-process, never gated from JSON.
gate host BENCH_host.json '"host-arith"'

echo "== bench: serving fairness/isolation gate (BENCH_serve.json, 2% tolerance)"
# The serve section hard-asserts the serving-clock and fabric
# decompositions exactly, same-seed determinism of whole runs,
# output invariance under a faulty tenant, the 1.5x healthy-p99
# fairness bound with the faulty tenant strictly degrading; the gate
# then diffs every tenant's service cycles, p99 latency and fabric
# counters (clean and faulty runs) against the baseline.
gate serve BENCH_serve.json '"serve-faulty-t1-an-p99"'

echo "== bench: parallel-serving gate (BENCH_par.json, 2% tolerance)"
# The par section hard-asserts that the domain-parallel engine is
# bit-identical to the sequential scheduler — whole result records,
# for 1/2/4 domains, clean and with a faulty tenant, plus a same-count
# rerun — and re-checks the serving-clock and fetched-bytes
# decompositions; on hosts reporting >= 4 cores it also asserts that
# the engine on 4 domains serves >= 2.5x faster in wall clock than the
# sequential scheduler (reported, not asserted, on smaller hosts).  The gate then diffs the deterministic per-tenant
# service cycles and fabric counters against the baseline; the
# wall-clock entry carries no gated fields by construction.
gate par BENCH_par.json '"par-total"'

echo "== full suite at both ends of the domain matrix"
# The whole test binary twice, with the par differential tests pinned
# to one domain count per pass: serving results must not depend on the
# pool size anywhere in the suite, not just inside the par section.
CARDS_TEST_DOMAINS=1 dune exec --no-build test/test_main.exe > /dev/null
CARDS_TEST_DOMAINS=4 dune exec --no-build test/test_main.exe > /dev/null

# Every gate is green: only now do the fresh snapshots replace the
# committed ones.
for base in $refreshed; do
  mv "$tmpdir/$base" "$base"
done
echo "== check.sh: all green (refreshed:$refreshed)"
