#!/usr/bin/env python3
"""Bench-regression gate: diff a fresh bench.sh run against the latest
checked-in BENCH_N.json snapshot and fail CI on real regressions.

Stdlib-only. Two classes of failure, both scoped to the *gated* benchmarks
(hot paths whose allocation count is deterministic, stable enough to
compare across runs):

  * ns/op regression beyond --threshold (default 25%)
  * ANY growth in allocs/op — BlockMulAdd and CodecReadBlock are zero- and
    one-alloc by construction, and HetSelection's count is fixed by the
    instance, so a single new allocation per op is a real regression, not
    noise

Every other shared benchmark is reported informationally; macro benchmarks
(figure reproductions, service throughput) are too machine- and
benchtime-sensitive to gate on a snapshot produced elsewhere.

A third check, --require SUBSTR:METRIC:MIN, gates a custom b.ReportMetric
value from the FRESH run alone (no baseline involved): machine-independent
ratios like the affinity benchmark's a_saved_frac — the fraction of A-panel
bytes the operand cache kept off the wire — are stable enough to hold to an
absolute floor even though the surrounding ns/op is not.

Usage:
    scripts/bench-compare.py FRESH.json [BASELINE.json]
        [--threshold 0.25] [--gate BlockMulAdd,CodecReadBlock,HetSelection]
        [--require 'AffinityThroughput/cache=on:a_saved_frac:0.5']

With no BASELINE, the highest-numbered BENCH_<N>.json in the repo root is
used. Exit status: 0 clean, 1 regression, 2 usage/data error.

Intentional regressions: land the PR with the `bench-regression-ok` label —
the bench-smoke workflow skips this gate when the label is present — and
refresh the BENCH_N.json snapshot in the same PR so the next baseline is
honest.
"""

import argparse
import json
import pathlib
import re
import sys


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench-compare: cannot read {path}: {e}")
    return {k: v for k, v in data.items() if k.startswith("Benchmark")}


def latest_baseline(root):
    best, best_n = None, -1
    for p in root.glob("BENCH_*.json"):
        m = re.fullmatch(r"BENCH_(\d+)\.json", p.name)
        if m and int(m.group(1)) > best_n:
            best, best_n = p, int(m.group(1))
    if best is None:
        sys.exit("bench-compare: no BENCH_<N>.json baseline in repo root")
    return best


def fmt_delta(old, new):
    if old <= 0:
        return "n/a"
    pct = (new - old) / old * 100.0
    return f"{pct:+.1f}%"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("fresh", help="bench.sh JSON from this run")
    ap.add_argument("baseline", nargs="?", help="snapshot to compare against (default: latest BENCH_<N>.json)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative ns/op regression that fails a gated benchmark (default 0.25)")
    ap.add_argument("--gate", default="BlockMulAdd,CodecReadBlock,HetSelection",
                    help="comma-separated substrings of benchmark names to gate "
                         "(default: the kernel, codec and Het selection hot paths)")
    ap.add_argument("--require", action="append", default=[], metavar="SUBSTR:METRIC:MIN",
                    help="fail unless a fresh benchmark whose name contains SUBSTR reports "
                         "METRIC, and every such value is >= MIN (fresh-run-only check)")
    args = ap.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    baseline_path = pathlib.Path(args.baseline) if args.baseline else latest_baseline(root)
    fresh = load(args.fresh)
    base = load(baseline_path)
    gates = [g.strip() for g in args.gate.split(",") if g.strip()]

    shared = sorted(set(fresh) & set(base))
    if not shared and not args.require:
        sys.exit("bench-compare: no shared benchmarks between fresh run and baseline")

    failures = []
    print(f"bench-compare: {args.fresh} vs {baseline_path.name} "
          f"(gate: {', '.join(gates)}, threshold {args.threshold:.0%})")
    for name in shared:
        f, b = fresh[name], base[name]
        gated = any(g in name for g in gates)
        line = f"  {'GATE ' if gated else '     '}{name}"
        checks = []

        old_ns, new_ns = b.get("ns_op"), f.get("ns_op")
        if old_ns and new_ns:
            checks.append(f"ns/op {old_ns:g} -> {new_ns:g} ({fmt_delta(old_ns, new_ns)})")
            if gated and old_ns > 0 and (new_ns - old_ns) / old_ns > args.threshold:
                failures.append(f"{name}: ns/op regressed {fmt_delta(old_ns, new_ns)} "
                                f"({old_ns:g} -> {new_ns:g}), threshold {args.threshold:.0%}")

        old_al, new_al = b.get("allocs_op"), f.get("allocs_op")
        if old_al is not None and new_al is not None:
            checks.append(f"allocs/op {old_al:g} -> {new_al:g}")
            if gated and new_al > old_al:
                failures.append(f"{name}: allocs/op grew {old_al:g} -> {new_al:g} "
                                "(gated allocation floor; any growth is a regression)")

        print(line + (": " + ", ".join(checks) if checks else ""))

    for req in args.require:
        try:
            sub, metric, minv = req.rsplit(":", 2)
            minv = float(minv)
        except ValueError:
            sys.exit(f"bench-compare: bad --require {req!r} (want SUBSTR:METRIC:MIN)")
        hits = {n: v[metric] for n, v in fresh.items() if sub in n and metric in v}
        if not hits:
            failures.append(f"--require {req}: no fresh benchmark matching {sub!r} reports {metric}")
        for name, val in sorted(hits.items()):
            ok = val >= minv
            print(f"  REQ  {name}: {metric} = {val:g} (min {minv:g}) {'ok' if ok else 'FAIL'}")
            if not ok:
                failures.append(f"{name}: {metric} = {val:g} below required minimum {minv:g}")

    missing = [n for n in base if n not in fresh and any(g in n for g in gates)]
    for name in missing:
        failures.append(f"{name}: gated benchmark present in baseline but missing from this run")

    if failures:
        print("\nbench-compare: FAIL", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        print("\nIf this regression is intentional, add the 'bench-regression-ok' label "
              "to the PR and refresh the BENCH_<N>.json snapshot.", file=sys.stderr)
        return 1
    print("bench-compare: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
