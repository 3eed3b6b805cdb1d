#!/usr/bin/env python3
"""Summarize the paired perfbench runs scripts/ab.sh collects.

    python3 scripts/ab_summary.py --bench BENCHMARK.json --raw RAW.jsonl \
        --base REV --json OUT.json

RAW.jsonl holds one line per run: {"workload", "pair", "seed", "side"
("base" or "change"), "probe" (the two-domain compute probe read before
the pair; optional), "result" (perfbench's JSON result line)}.  For
each workload and end-to-end metric this prints each side's median
[Q1, Q3], the change's wins out of N pairs in the metric's better
direction (BENCHMARK.json), a two-sided sign test p over the pairs that
differ, the median change in percent, and whether the medians differ by
more than the base's IQR.  A row of its own per workload lists the
pairs whose probe read below PROBE_FLOOR: the host's second CPU was
missing, so a metric that needs two domains ran on one.  It writes the
pairs to OUT.json and exits 1 when a run was incorrect or any sim_*
metric differs within a pair.
"""

import argparse
import json
import math
import statistics
import sys

# Below this two-domain speed-up the second CPU was not really there.
PROBE_FLOOR = 1.5


def quartiles(xs):
    """Q1, median, Q3 (inclusive method); one sample is all three."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def sign_test(wins, losses):
    """Two-sided exact sign test p-value; ties are dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2 ** n
    return min(1.0, 2 * tail)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench", required=True)
    ap.add_argument("--raw", required=True)
    ap.add_argument("--base", required=True, help="base revision, for the report")
    ap.add_argument("--json", required=True)
    args = ap.parse_args()
    with open(args.bench) as f:
        better = {m["name"]: m["better"] for m in json.load(f)["end_to_end"]}
    pairs = {}
    workloads = []
    with open(args.raw) as f:
        for line in f:
            r = json.loads(line)
            if r["workload"] not in workloads:
                workloads.append(r["workload"])
            key = (r["workload"], r["pair"])
            p = pairs.setdefault(key, {"workload": r["workload"], "pair": r["pair"],
                                       "seed": r["seed"], "probe": r.get("probe")})
            p[r["side"]] = r["result"]
    ok = True
    for (w, i), p in sorted(pairs.items()):
        complete = True
        for side in ("base", "change"):
            if side not in p or not p[side].get("correct"):
                print("ab: %s pair %d: %s run missing or incorrect" % (w, i, side),
                      file=sys.stderr)
                complete = ok = False
        if not complete:
            continue
        for name in better:
            if name.startswith("sim_"):
                a = p["base"]["metrics"][name]["value"]
                b = p["change"]["metrics"][name]["value"]
                if a != b:
                    print("ab: %s seed %d: %s differs: base %r, change %r"
                          % (w, p["seed"], name, a, b), file=sys.stderr)
                    ok = False
    print("base %s vs change, %d pair(s) per workload" % (
        args.base, max(i for (_, i) in pairs) + 1))
    print()
    print("| workload | metric | base median [Q1, Q3] | change median [Q1, Q3] "
          "| change | wins | sign p | beyond base IQR |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        ps = [p for (x, _), p in sorted(pairs.items()) if x == w
              and p.get("base", {}).get("correct") and p.get("change", {}).get("correct")]
        for name, direction in better.items():
            a = [p["base"]["metrics"][name]["value"] for p in ps]
            b = [p["change"]["metrics"][name]["value"] for p in ps]
            if name.startswith("sim_") and a == b:
                print("| %s | %s | identical in every pair | | | | | |" % (w, name))
                continue
            sign = 1 if direction == "higher" else -1
            wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
            losses = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
            aq1, am, aq3 = quartiles(a)
            bq1, bm, bq3 = quartiles(b)
            delta = (bm - am) / am * 100 if am else float("nan")
            beyond = abs(bm - am) > (aq3 - aq1)
            print("| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% "
                  "| %d/%d | %.3g | %s |"
                  % (w, name, am, aq1, aq3, bm, bq1, bq3, delta, wins, len(ps),
                     sign_test(wins, losses), "yes" if beyond else "no"))
        probed = [p for p in ps if p["probe"] is not None]
        if probed:
            low = [p for p in probed if p["probe"] < PROBE_FLOOR]
            print("| %s | probe < %.1fx | %d/%d pairs%s | | | | | |"
                  % (w, PROBE_FLOOR, len(low), len(probed),
                     "".join(", seed %d %.2fx" % (p["seed"], p["probe"]) for p in low)))
    with open(args.json, "w") as f:
        json.dump({"base": args.base, "pairs": [p for _, p in sorted(pairs.items())]},
                  f, indent=1)
    print()
    print("raw pairs: %s" % args.json)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
