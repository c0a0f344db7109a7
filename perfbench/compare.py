"""Compare two sets of benchmark results, or check one set's spread.

    python3 perfbench/compare.py A B        # A = parent, B = change
    python3 perfbench/compare.py --spread A

A result set is a JSON-lines file written by ``run.py --out`` or a
directory of them. For every workload and end-to-end metric the report
gives each side's median and quartiles (``statistics.quantiles(n=4)``)
and a label under the bound and direction BENCHMARK.json fixes:

- ``improved``: the change wins at least 9 of 10 pairs (runs paired by
  seed, else by order) and the medians differ by more than the
  parent's quartile distance;
- ``worse``: the change's median is worse by more than the bound;
- ``unresolved``: a side's quartile distance exceeds the bound, unless
  every run of one side reads better than every run of the other;
- ``unchanged``: otherwise.

Traced runs (``--trace 1``) are diffed layer by layer: per-layer medians
side by side, times flagged when one side is more than 1.5x the other.
The memory-bus probe is printed next to each side, as the covariate to
read first. ``--spread`` prints, per workload and metric, the quartile
distance as a share of the median against a third of the bound.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
LAYER_FLAG = 1.5


def load(path: str) -> list[dict]:
    files = (sorted(glob.glob(os.path.join(path, "*.jsonl")))
             if os.path.isdir(path) else [path])
    out = []
    for f in files:
        with open(f) as fh:
            out.extend(json.loads(line) for line in fh if line.strip())
    return out


def spec(path: str | None = None) -> dict:
    with open(path or os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def rel_iqr(vals: list[float]) -> float:
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else 0.0


def by_workload(records: list[dict], traced: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r.get("trace", 0) == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def series(runs: list[dict], metric: str) -> list[tuple[int, float]]:
    return [(r["seed"], r["metrics"][metric]["value"]) for r in runs
            if metric in r.get("metrics", {})]


def label(a: list[tuple[int, float]], b: list[tuple[int, float]],
          better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0    # positive = worse
    av, bv = [v for _, v in a], [v for _, v in b]
    a_med, b_med = statistics.median(av), statistics.median(bv)
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    a_seeds = dict(a)
    pairs = ([(a_seeds[s], v) for s, v in b if s in a_seeds]
             or list(zip(av, bv)))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    all_better = max(sign * v for v in bv) < min(sign * v for v in av)
    all_worse = min(sign * v for v in bv) > max(sign * v for v in av)
    q1, _, q3 = quartiles(av)
    gain = (wins >= 0.9 * len(pairs) and worse < 0
            and abs(b_med - a_med) > q3 - q1)
    if all_better:
        return "improved" if gain else "unchanged"
    if all_worse and worse > bound:
        return "worse"
    if max(rel_iqr(av), rel_iqr(bv)) > bound:
        return "unresolved"
    if worse > bound:
        return "worse"
    return "improved" if gain else "unchanged"


def fmt(v: float) -> str:
    return f"{v:.4g}"


def bus(runs: list[dict]) -> str:
    vals = [r["bus_gbps"] for r in runs if r.get("bus_gbps") is not None]
    return f"{statistics.median(vals):.1f} GB/s" if vals else "n/a"


def compare(a: list[dict], b: list[dict], sp: dict) -> list[str]:
    lines = []
    ea, eb = by_workload(a, 0), by_workload(b, 0)
    for w in sorted(set(ea) & set(eb)):
        lines.append(f"== {w}: {len(ea[w])} vs {len(eb[w])} runs, "
                     f"bus {bus(ea[w])} vs {bus(eb[w])}")
        lines.append("metric | A q1/median/q3 | B q1/median/q3 | change | label")
        for m in sp["end_to_end"]:
            sa, sb = series(ea[w], m["name"]), series(eb[w], m["name"])
            if not sa or not sb:
                continue
            qa = quartiles([v for _, v in sa])
            qb = quartiles([v for _, v in sb])
            ch = (qb[1] - qa[1]) / qa[1] * 100 if qa[1] else 0.0
            lines.append(
                f"{m['name']} ({m['unit']}) | {'/'.join(map(fmt, qa))} | "
                f"{'/'.join(map(fmt, qb))} | {ch:+.1f}% | "
                f"{label(sa, sb, m['better'], m['bound'])}")
    ta, tb = by_workload(a, 1), by_workload(b, 1)
    for w in sorted(set(ta) & set(tb)):
        lines.append(f"== {w} layers: {len(ta[w])} vs {len(tb[w])} traced runs")
        lines.append("metric | A median | B median | B/A | flag")
        for m in sp["per_layer"]:
            sa, sb = series(ta[w], m["name"]), series(tb[w], m["name"])
            if not sa or not sb:
                continue
            ma = statistics.median(v for _, v in sa)
            mb = statistics.median(v for _, v in sb)
            ratio = mb / ma if ma else float("inf") if mb else 1.0
            flag = ""
            if m["unit"] == "s" and ma and mb:
                flag = ("slower" if ratio > LAYER_FLAG else
                        "faster" if ratio < 1 / LAYER_FLAG else "")
            lines.append(f"{m['name']} ({m['unit']}) | {fmt(ma)} | {fmt(mb)} | "
                         f"{ratio:.3g} | {flag}")
    return lines


def spread(a: list[dict], sp: dict) -> tuple[list[str], bool]:
    lines, ok = [], True
    for w, runs in sorted(by_workload(a, 0).items()):
        lines.append(f"== {w}: {len(runs)} runs, bus {bus(runs)}")
        for m in sp["end_to_end"]:
            vals = [v for _, v in series(runs, m["name"])]
            if not vals:
                continue
            s = rel_iqr(vals)
            steady = m["name"] == "setup_s" or s < m["bound"] / 3
            ok &= steady
            lines.append(f"{m['name']}: median {fmt(statistics.median(vals))} "
                         f"{m['unit']}, spread {s:.3f} vs bound/3 "
                         f"{m['bound'] / 3:.3f} {'ok' if steady else 'WIDE'}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("sets", nargs="+", help="result files or directories")
    ap.add_argument("--spread", action="store_true",
                    help="check one set's run-to-run spread")
    ap.add_argument("--spec", help="BENCHMARK.json to read bounds from")
    args = ap.parse_args(argv)
    sp = spec(args.spec)
    if args.spread:
        lines, ok = spread([r for s in args.sets for r in load(s)], sp)
        print("\n".join(lines))
        return 0 if ok else 1
    if len(args.sets) != 2:
        ap.error("give two result sets, or --spread with one")
    print("\n".join(compare(load(args.sets[0]), load(args.sets[1]), sp)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
