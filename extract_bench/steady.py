"""Steadiness report: run every workload of BENCHMARK.json repeatedly,
one seed per run, and print each end-to-end metric's median, quartiles
and spread against its bound.

    python3 extract_bench/steady.py --runs 10 [--seed0 1] [--out report.json]

Spread is (Q3 - Q1) / median over the runs of one workload, with the
quartiles of `statistics.quantiles(values, n=4)`. A metric passes when
its spread stays within its bound; the `third` column says whether it
is also under a third of the bound, the target for a steady metric.
The exit code is 0 only when every metric passes and every run is
correct. Runs go round-robin over the workloads so host noise spreads
evenly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--out", help="also write the report as JSON here")
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failures = []
    for i in range(args.runs):
        for w in names:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(args.seed0 + i),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if p.returncode or res is None or not res["correct"]:
                failures.append(f"{w} seed {args.seed0 + i}: exit {p.returncode}")
                continue
            for k, v in res["metrics"].items():
                values[w].setdefault(k, []).append(v["value"])
            print(f"# {w} seed {args.seed0 + i}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
    report = []
    print(f"{'workload':<18} {'metric':<18} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}  ok  third")
    steady = True
    for w in names:
        for m in bench["end_to_end"]:
            xs = values[w].get(m["name"], [])
            if len(xs) < 2:
                continue
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / statistics.median(xs)
            ok = spread <= m["bound"]
            steady &= ok
            report.append({"workload": w, "metric": m["name"], "unit": m["unit"], "runs": len(xs),
                           "median": statistics.median(xs), "q1": q1, "q3": q3,
                           "spread": spread, "bound": m["bound"]})
            print(f"{w:<18} {m['name']:<18} {statistics.median(xs):>11.5g} {q1:>11.5g} {q3:>11.5g} "
                  f"{spread:>7.3f} {m['bound']:>6}  {'yes' if ok else 'NO ':<3} "
                  f"{'yes' if spread < m['bound'] / 3 else 'no'}")
    for f in failures:
        print(f"# FAILED: {f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump({"runs": args.runs, "seed0": args.seed0, "seconds": bench["run_seconds"],
                       "rows": report, "failures": failures}, f, indent=1)
    return 0 if steady and not failures else 1


if __name__ == "__main__":
    sys.exit(main())
