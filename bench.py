"""Benchmark harness (driver contract).

Runs the headline pipelines over $GRAFT_SF_DIR (default
/root/testdata/sf0.1) under ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS or 32) and prints ONE compact JSON line LAST:

    {"metric": ..., "value": total_sec, "unit": "sec",
     "queries": {extract + 12 slowest: sec, ...}, "n_queries": N,
     "queries_sidecar": "bench_queries.json", "sf": ..., "num_cpus": N,
     "extract_docs": N, "extract_docs_per_s": X, "extract_mb_per_s": X,
     "extract_stage_stats": [...]}

The FULL per-query map (all ~110 registry queries) is written to
bench_queries.json next to this file — the inline map is capped so the
summary line stays within the driver's tail capture (BENCH_r04.json
came back parsed:null when the single line outgrew it).

`--scaling` runs the flagship extraction pipeline at two parallelism
levels (N and 4N CPUs) in fresh processes on the same input and
reports throughput at both plus scaling efficiency (north-rule
evidence; a real N vs 4N node cluster is out of scope in this
sandbox). Two pairs are measured: 4->16 (headline, high leg at
half-socket) and 8->32 (secondary, full socket — carries the measured
shared-socket CPU-inflation artifact; see BASELINE.md).

The extraction corpus is a deterministic synthetic web-page table
(BASELINE.json input_hint shape; fat docs ~19KB median to mimic
Common-Crawl page sizes), generated once into /tmp and reused.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_FAT = int(os.environ.get("BENCH_FAT", "6"))

_SF_DOCS = {"sf0.001": 1000, "sf0.01": 4000, "sf0.1": 40000}


def _sf_name() -> str:
    return os.path.basename(os.path.normpath(SF_DIR))


def _sf_value() -> float:
    try:
        return float(_sf_name().replace("sf", ""))
    except ValueError:
        return -1.0


def bench_corpus_path() -> str:
    """Deterministic bench corpus, generated once and cached in /tmp.
    Many small shards (~160 rows each): task granularity tracks read
    shards, and a monolithic single-row-group file would serialize the
    read into one task (measured 12s floor at 32 CPUs)."""
    n = int(os.environ.get("BENCH_DOCS", "0")) or _SF_DOCS.get(_sf_name(), 4000)
    # parallel-generated corpora have different (per-shard-seeded)
    # content than sequential ones (template mix re-rolls per shard),
    # so their throughput numbers are NOT comparable run-to-run with
    # the canonical corpus. The canonical sequential corpus is the
    # recorded-benchmark basis (matches the committed fixture
    # semantics); opt into fast parallel generation for experiments
    # with BENCH_PARALLEL_GEN=1.
    parallel = n >= 100_000 and os.environ.get("BENCH_PARALLEL_GEN") == "1"
    suffix = "_p" if parallel else "_s"
    # cache key includes the generator + pdf-codec source hashes: a
    # semantics change in either must invalidate stale /tmp corpora
    # (same scheme as __ray_entry__)
    import hashlib

    from pdf_extractor_ray.fixtures import generator as _gen
    from pdf_extractor_ray.functions import pdf_codec as _codec

    h = hashlib.sha1()
    for mod in (_gen, _codec):
        with open(mod.__file__, "rb") as f:
            h.update(f.read())
    tag = h.hexdigest()[:10]
    out_dir = os.path.join(tempfile.gettempdir(), f"pdfx_bench_{n}_f{BENCH_FAT}{suffix}_{tag}")
    marker = os.path.join(out_dir, ".complete")
    path = os.path.join(out_dir, "pages")
    if not os.path.exists(marker):
        if parallel:
            # Ray session already owned by main()/extract_only()
            from pdf_extractor_ray.fixtures.generator import write_corpus_parallel

            # small shards => read tasks produce many ~800-row blocks;
            # 4000-row shards left the 32-CPU leg with ~5 ragged task
            # waves (measured 11.2k docs/s vs 13.0k with fine blocks)
            write_corpus_parallel(out_dir, n, fat=BENCH_FAT, rows_per_shard=800)
        else:
            from pdf_extractor_ray.fixtures.generator import write_corpus

            write_corpus(out_dir, n, fat=BENCH_FAT, n_shards=max(64, n // 160))
        with open(marker, "w") as f:
            f.write("ok")
    return path


_UNIT_SEC = {"us": 1e-6, "ms": 1e-3, "s": 1.0, "m": 60.0}


def parse_stage_stats(stats_text: str) -> list[dict]:
    """Compact per-stage summary out of Dataset.stats() text (VERDICT
    r2 item 10 — publish read/extract/write stage splits in BENCH so
    stage balance is auditable without rerunning): one dict per
    operator with task count, blocks, stage wall seconds, and the
    summed remote-wall / UDF seconds."""
    import re as _re

    ops: list[dict] = []
    cur: dict | None = None

    def _total_sec(line: str) -> float | None:
        m = _re.search(r"([\d.]+)(us|ms|s|m)\s+total", line)
        return float(m.group(1)) * _UNIT_SEC[m.group(2)] if m else None

    for line in stats_text.splitlines():
        m = _re.match(r"Operator \d+ (.+?): (\d+) tasks executed, (\d+) blocks produced in ([\d.]+)(us|ms|s|m)?", line)
        if m:
            cur = {
                "stage": m.group(1),
                "tasks": int(m.group(2)),
                "blocks": int(m.group(3)),
                "sec": float(m.group(4)) * _UNIT_SEC.get(m.group(5) or "s", 1.0),
            }
            ops.append(cur)
            continue
        if cur is None:
            continue
        if line.startswith("* Remote wall time:"):
            cur["remote_wall_sec_total"] = round(_total_sec(line) or 0.0, 3)
        elif line.startswith("* UDF time:"):
            cur["udf_sec_total"] = round(_total_sec(line) or 0.0, 3)
    return ops


def run_extract(pages_path: str, ncpu: int, max_files: int | None = None) -> dict:
    """The flagship pipeline, timed end-to-end (read -> actor-pool
    extract -> partitioned parquet + manifest). max_files limits the
    input to the first N shards (light warm-up runs)."""
    import pyarrow.parquet as pq

    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.pipelines.extract import run_extraction

    cfg = DEFAULT_CONFIG.with_overrides(
        concurrency=ncpu,
        batch_size=16,
        rows_per_output_file=256,
    )
    out = os.path.join(tempfile.gettempdir(), "pdfx_bench_out")
    shutil.rmtree(out, ignore_errors=True)
    paths = (
        [os.path.join(pages_path, f) for f in sorted(os.listdir(pages_path)) if f.endswith(".parquet")]
        if os.path.isdir(pages_path)
        else [pages_path]
    )
    if max_files:
        pages_path = paths = paths[:max_files]
    n_docs = n_bytes = 0
    for p in paths:
        meta = pq.read_metadata(p)
        n_docs += meta.num_rows
        n_bytes += sum(meta.row_group(i).total_byte_size for i in range(meta.num_row_groups))
    # explicit block granularity: Ray's read planner coalesces the
    # ~800-row shards into ~200 fat blocks (3200 rows, ~60MB of text
    # each) — measured +38% per-task CPU at 32 busy cores (memory-
    # bandwidth pressure) and a 6-wave ragged tail. ~800-row blocks
    # keep the working set cache-friendly and the waves smooth.
    num_blocks = max(200, n_docs // 800)
    os.environ.setdefault("BENCH_PRINT_STATS", "1")  # capture stage stats
    t0 = time.perf_counter()
    stats = run_extraction(pages_path, out, cfg=cfg, resume=False, num_blocks=num_blocks)
    sec = time.perf_counter() - t0
    assert stats["rows_written"] == n_docs, stats
    if os.environ.get("BENCH_PRINT_STATS_FULL") == "1" and stats.get("dataset_stats"):
        sys.stderr.write(stats["dataset_stats"] + "\n")
    return {
        "sec": sec,
        "docs": n_docs,
        "docs_per_s": n_docs / sec,
        "mb_per_s": n_bytes / 1e6 / sec,
        "stage_stats": parse_stage_stats(stats.get("dataset_stats") or ""),
    }


def run_queries() -> dict[str, float]:
    """Wall seconds of every registered query, in registry order."""
    import __ray_entry__ as e

    # untimed warm-up of the pandas-task worker pool + shuffle path
    # (first pandas map_batches pays worker spawn + imports)
    import ray.data

    warm = ray.data.range(1000).map_batches(lambda df: df, batch_format="pandas")
    warm.groupby("id").count().to_pandas()
    out: dict[str, float] = {}
    for name, query in e.queries().items():
        t0 = time.perf_counter()
        res = query(SF_DIR)
        # force materialization for lazy results
        if hasattr(res, "to_pandas"):
            res = res.to_pandas() if callable(getattr(res, "to_pandas", None)) else res
        out[name] = round(time.perf_counter() - t0, 3)
    return out


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    try:
        pages = bench_corpus_path()
        # untimed warm-up: page cache + ray worker spawn
        run_extract(pages, NUM_CPUS)
        ext = run_extract(pages, NUM_CPUS)
        queries = {"extract": round(ext["sec"], 3)}
        queries.update(run_queries())
        total = round(sum(queries.values()), 3)
        # The registry outgrew the driver's tail capture at ~107
        # queries (BENCH_r04.json parsed:null) — the FULL per-query
        # map goes to a sidecar file and the LAST stdout line is a
        # compact summary the driver can always parse: suite seconds,
        # extract throughput, stage stats, and only the extract leg +
        # the 12 slowest queries inline.
        full = {
            "metric": "pipeline_suite_seconds",
            "value": total,
            "unit": "sec",
            "queries": queries,
            "sf": _sf_value(),
            "num_cpus": NUM_CPUS,
            "extract_docs": ext["docs"],
            "extract_docs_per_s": round(ext["docs_per_s"], 1),
            "extract_mb_per_s": round(ext["mb_per_s"], 2),
            "extract_stage_stats": ext["stage_stats"],
        }
        sidecar = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench_queries.json")
        with open(sidecar, "w") as f:
            json.dump(full, f, indent=1)
        slowest = dict(
            sorted(queries.items(), key=lambda kv: -kv[1])[:12]
        )
        slowest["extract"] = queries["extract"]
        print(
            json.dumps(
                {
                    "metric": "pipeline_suite_seconds",
                    "value": total,
                    "unit": "sec",
                    "queries": slowest,
                    "n_queries": len(queries),
                    "queries_sidecar": "bench_queries.json",
                    "sf": _sf_value(),
                    "num_cpus": NUM_CPUS,
                    "extract_docs": ext["docs"],
                    "extract_docs_per_s": round(ext["docs_per_s"], 1),
                    "extract_mb_per_s": round(ext["mb_per_s"], 2),
                    "extract_stage_stats": ext["stage_stats"],
                }
            )
        )
    finally:
        ray.shutdown()


def scaling() -> None:
    """North-rule scaling evidence: the same extraction job on the same
    input at two parallelism levels (N and 4N CPUs) in fresh processes.

    Two pairs are measured and reported together:

      - 4 -> 16 CPUs (HEADLINE): the 4N leg occupies half of this
        host's 32-core socket. Measured fact (BASELINE.md): the
        identical job's total task CPU-seconds inflate +27% when all
        32 cores are busy vs 8 (shared memory bandwidth / turbo on
        co-located vCPUs), an artifact a real N-node vs 4N-node
        cluster does not share because each node brings its own memory
        controllers. Keeping the high leg at half-socket measures the
        ENGINE's parallel efficiency rather than the socket's.
      - 8 -> 32 CPUs (secondary, full socket): reported alongside,
        artifact included, so nothing is hidden.

    Protocol (pinned per VERDICT r1 item 4): each level runs
    BENCH_SCALE_REPS times (default 3) in ALTERNATION and the MEDIAN
    time per level is the efficiency basis — best-of-N overstated the
    bar when one lucky run landed on a quiet host phase, and single
    runs vary +/-15% here (co-tenant load, turbo/thermal drift). All
    per-rep times are reported so the spread is visible. The page
    cache is pre-warmed once in the parent; each subprocess then does
    a LIGHT untimed warm-up (first 64 shards) to spawn its Ray worker
    pool — a full-corpus warm-up would double every rep's cost for no
    extra benefit once the cache is hot."""

    def run(ncpu: int) -> dict:
        # a longer job than the plain bench: ramp-up/straggler tails
        # must amortize for the efficiency number to reflect steady
        # state (the 100TB target runs for hours)
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            BENCH_DOCS=os.environ.get("BENCH_SCALE_DOCS", "640000"),
            BENCH_PARALLEL_GEN="1",
            BENCH_WARMUP_FILES="64",
        )
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--extract-only"],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"extract-only run at {ncpu} cpus failed (see stderr above)")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def median_sec(rs: list[dict]) -> float:
        xs = sorted(r["sec"] for r in rs)
        m = len(xs) // 2
        return xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2.0

    # generate/locate the corpus once and pull it through the page
    # cache so the first subprocess rep isn't disk-bound
    os.environ.setdefault("BENCH_DOCS", os.environ.get("BENCH_SCALE_DOCS", "640000"))
    os.environ["BENCH_PARALLEL_GEN"] = "1"
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    try:
        pages = bench_corpus_path()
    finally:
        ray.shutdown()
    for f in sorted(os.listdir(pages)):
        with open(os.path.join(pages, f), "rb") as fh:
            while fh.read(1 << 24):
                pass

    reps = int(os.environ.get("BENCH_SCALE_REPS", "3"))
    pairs = [(4, 16), (8, 32)]
    if os.environ.get("BENCH_SCALE_PAIRS"):  # e.g. "8:32" to run one pair
        pairs = [tuple(int(x) for x in p.split(":")) for p in os.environ["BENCH_SCALE_PAIRS"].split(",")]
    out_pairs = []
    for lo, hi in pairs:
        runs: dict[int, list[dict]] = {lo: [], hi: []}
        for _ in range(reps):
            for n in (lo, hi):
                runs[n].append(run(n))
        sec_lo, sec_hi = median_sec(runs[lo]), median_sec(runs[hi])
        docs = runs[lo][0]["docs"]
        out_pairs.append(
            {
                "num_cpus_lo": lo,
                "num_cpus_hi": hi,
                "sec_lo": round(sec_lo, 3),
                "sec_hi": round(sec_hi, 3),
                "sec_lo_runs": [round(r["sec"], 3) for r in runs[lo]],
                "sec_hi_runs": [round(r["sec"], 3) for r in runs[hi]],
                "docs_per_s_lo": round(docs / sec_lo, 1),
                "docs_per_s_hi": round(docs / sec_hi, 1),
                "scaling_efficiency": round((sec_lo / sec_hi) / (hi / lo), 3),
                "docs": docs,
            }
        )
    head = out_pairs[0]
    print(
        json.dumps(
            {
                "metric": "extract_scaling",
                **head,
                "pairs": out_pairs,
                "basis": "median",
                "reps_per_level": reps,
                "headline_note": (
                    "headline pair keeps the 4N leg at half-socket; the full-socket "
                    "8->32 pair (reported in pairs[]) additionally carries the measured "
                    "+27% shared-socket CPU-seconds inflation a real 4N-node cluster "
                    "does not share (see BASELINE.md)"
                ),
            }
        )
    )


def extract_only() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    try:
        pages = bench_corpus_path()
        # untimed warm-up: spawns the Ray worker pool (+ page cache when
        # BENCH_WARMUP_FILES is unset); scaling() pre-warms the cache in
        # the parent so a light pass over the first N shards suffices
        warm_files = int(os.environ.get("BENCH_WARMUP_FILES", "0"))
        run_extract(pages, NUM_CPUS, max_files=warm_files or None)
        print(json.dumps(run_extract(pages, NUM_CPUS)))
    finally:
        ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--extract-only" in sys.argv:
        extract_only()
    else:
        main()
