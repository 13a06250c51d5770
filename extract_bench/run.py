"""Single-core extraction benchmark.

    python3 extract_bench/run.py --workload pdf_parquet --seed 1 --seconds 10 --trace 0

Runs one workload through `pipelines.extract.run_extraction` under
`ray.init(num_cpus=1)`, checks every output row, and prints each metric
as `name value unit`, then one JSON result object as the last stdout
line. `--trace 0` reports the end-to-end metrics of BENCHMARK.json,
`--trace 1` the per-layer metrics (see layers.py). Inputs are generated
from `--seed` and cached under `.bench_work/`. Exits non-zero when the
output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SESSIONS = 4  # Ray sessions set up per run; setup_s is their median

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "docs_per_s": "docs/s",
    "mb_per_s": "MB/s",
    "cpu_ms_per_doc": "ms",
    "peak_rss_mb": "MB",
    "out_bytes_per_doc": "bytes",
    "error_row_frac": "frac",
}


def one_rep(inp, checker, out_dir: str) -> dict:
    """One timed run: input to complete corpus plus manifest."""
    import proctree
    from harness import CFG, out_bytes
    from workloads import reset_out_dir

    from pdf_extractor_ray.pipelines.extract import run_extraction

    reset_out_dir(inp, out_dir)
    proctree.reset_peak_rss(proctree.ray_workers())
    cpu0 = proctree.tree_cpu_s()
    t0 = time.perf_counter()
    stats = run_extraction(inp.source(), out_dir, CFG)
    run_s = time.perf_counter() - t0
    cpu_s = proctree.tree_cpu_s() - cpu0
    rss = proctree.peak_rss_mb(proctree.ray_workers())
    bad, n_err, dig, problems = checker.check(out_dir, stats)
    n = stats["rows_written"]
    return {
        "docs": n,
        "failed": bad,
        "digest": dig,
        "problems": problems,
        "run_s": run_s,
        "docs_per_s": n / run_s,
        "mb_per_s": inp.meta["todo_payload_bytes"] / 1e6 / run_s,
        "cpu_ms_per_doc": 1000.0 * cpu_s / n,
        "peak_rss_mb": rss,
        "out_bytes_per_doc": out_bytes(out_dir) / checker.n_rows,
        "error_row_frac": n_err / n,
    }


def end_to_end(inp, seconds: float) -> tuple[dict, int, int, list[str]]:
    import harness
    from workloads import WORK, ensure_snapshot

    from pdf_extractor_ray.pipelines.extract import run_extraction

    checker = harness.Checker(inp)  # in-process reference pass, untimed
    warm_out = os.path.join(WORK, "out", "warm")
    out_dir = os.path.join(WORK, "out", "run")
    # Each session is set up, then runs timed reps for its share of
    # `seconds`: set-ups and reps alternate, so both sample the host's
    # speed across the whole run rather than one stretch of it.
    setups, reps = [], []
    for _ in range(SESSIONS):
        shutil.rmtree(warm_out, ignore_errors=True)
        t0 = time.perf_counter()
        harness.ray_start()
        try:
            run_extraction(inp.warm_source(), warm_out, harness.CFG)
            setups.append(time.perf_counter() - t0)
            ensure_snapshot(inp)  # built once per seed, untimed
            deadline = time.perf_counter() + seconds / SESSIONS
            session = [one_rep(inp, checker, out_dir)]
            while time.perf_counter() < deadline:
                session.append(one_rep(inp, checker, out_dir))
            reps += session
            print("# session reps run_s: " + " ".join(f"{r['run_s']:.4f}" for r in session))
        finally:
            harness.ray_stop()
    problems = list(checker.problems)
    for r in reps:
        problems += r["problems"]
    if len({r["digest"] for r in reps}) != 1:
        problems.append("corpus digest differs across reps")
    samples = {"setup_s": setups}
    for name in END_TO_END:
        if name != "setup_s":
            samples[name] = [r[name] for r in reps]
        print(f"# {name} [{END_TO_END[name]}]: " + " ".join(f"{x:.6g}" for x in samples[name]))
    metrics = {name: statistics.median(xs) for name, xs in samples.items()}
    return metrics, sum(r["docs"] for r in reps), sum(r["failed"] for r in reps), problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "pdf_extractor_ray")):
        print(f"pdf_extractor_ray/ not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    inp = workloads.prepare(args.workload, args.seed)
    if args.trace:
        import layers

        metrics, units, attempted, failed, problems = layers.traced(inp, args.seconds)
    else:
        metrics, attempted, failed, problems = end_to_end(inp, args.seconds)
        units = END_TO_END
    for sub in ("out", "ray"):  # outputs and Ray session logs of this run
        shutil.rmtree(os.path.join(workloads.WORK, sub), ignore_errors=True)
    for p in problems:
        print(f"# CHECK FAILED: {p}")
    for name, v in metrics.items():
        print(f"{name} {v!r} {units[name]}")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                # a check that fails without naming rows still fails the run
                "failed": failed if correct else max(failed, 1),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
