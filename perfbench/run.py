"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload {query,ingest} --seed N \
        --seconds S --trace {0,1} [--out results.jsonl]

Run from the root of a checkout: the program under test is the
``miru_ray`` package next to this directory, imported from source.
Inputs are generated from ``--seed``; every answer is checked against
the brute-force oracle. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones (see BENCHMARK.json). The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, prefixed ``perfbench-record``, holds
the full record: seed, host CPU count, library versions, git sha, the
memory-bus probe, the other-mode metrics and operation counts.
``--out`` appends that record to a JSON-lines file for compare.py.
Exits 1 when a check failed and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["query", "ingest"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append the full record to this file")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "miru_ray", "__init__.py")):
        print(f"perfbench: no miru_ray package under {ROOT}", file=sys.stderr)
        return 2
    # the script's own directory would shadow stdlib modules (trace)
    sys.path[0] = ROOT
    from perfbench.workloads import result_line, run_workload
    record = run_workload(ROOT, args.workload, args.seed, args.seconds,
                          bool(args.trace))
    record.pop("run")
    full = json.dumps(record)
    if args.out:
        with open(args.out, "a") as f:
            f.write(full + "\n")
    print("perfbench-record " + full)
    print(result_line(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
