"""Ray session control and the output check shared by both run modes."""

from __future__ import annotations

import hashlib
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

import proctree
from workloads import WORK, Inputs

from pdf_extractor_ray.config import DEFAULT_CONFIG
from pdf_extractor_ray.pipelines.extract import corpus_files
from pdf_extractor_ray.stages.extractor import Extractor
from pdf_extractor_ray.state.manifest import MANIFEST_DIR

# one core, one extraction task at a time; semantic thresholds untouched
CFG = DEFAULT_CONFIG.with_overrides(concurrency=1)
RAY_TMP = os.path.join(WORK, "ray")


def ray_start() -> None:
    import ray
    import ray.data

    kw = dict(
        num_cpus=1,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=256 << 20,
    )
    # AF_UNIX socket paths under the session dir must stay < 108 bytes
    if len(RAY_TMP) <= 40:
        kw["_temp_dir"] = RAY_TMP
    ray.init(**kw)
    ray.data.DataContext.get_current().enable_progress_bars = False


def ray_stop() -> None:
    """Shut the session down and wait until every child process is gone."""
    import ray

    ray.shutdown()
    deadline = time.monotonic() + 20
    while proctree.descendants() and time.monotonic() < deadline:
        time.sleep(0.1)
    for pid in proctree.descendants():
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    time.sleep(0.1)
    proctree.reap_zombies()


def read_corpus(out_dir: str) -> pa.Table:
    return pa.concat_tables([pq.read_table(p) for p in corpus_files(out_dir)]).sort_by("url")


def out_bytes(out_dir: str) -> int:
    """Parquet partition bytes plus manifest sidecar bytes."""
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    files = corpus_files(out_dir) + [
        os.path.join(mdir, n) for n in os.listdir(mdir) if n.endswith(".json")
    ]
    return sum(os.path.getsize(p) for p in files)


def digest(t: pa.Table) -> str:
    h = hashlib.sha256()
    for row in zip(*(t[c].to_pylist() for c in t.column_names)):
        h.update(repr(row).encode("utf-8"))
    return h.hexdigest()


class Checker:
    """Expected output of one input set, from an in-process Extractor
    pass over the same rows, plus the generator's HTML goldens."""

    def __init__(self, inp: Inputs) -> None:
        rows = inp.table("rows")
        self.ref = Extractor(CFG)(rows).sort_by("url")
        self.n_rows = rows.num_rows
        self.done = inp.done_urls
        g = inp.table("golden")
        self.golden = dict(zip(g["url"].to_pylist(), g["golden_text"].to_pylist()))
        self.problems: list[str] = []
        errs = [u for u, e in zip(self.ref["url"].to_pylist(), self.ref["error"].to_pylist()) if e]
        if errs != [u for u in self.ref["url"].to_pylist() if u.endswith("/malformed")]:
            self.problems.append(f"unexpected error rows in reference pass: {errs[:5]}")
        self.problems += self._golden_mismatch(self.ref, "reference pass")

    def _golden_mismatch(self, t: pa.Table, what: str) -> list[str]:
        bad = [
            u
            for u, k, x in zip(t["url"].to_pylist(), t["payload_kind"].to_pylist(), t["extracted_text"].to_pylist())
            if k == "html" and self.golden.get(u) != x
        ]
        return [f"{what}: {len(bad)} HTML rows differ from the golden, e.g. {bad[0]}"] if bad else []

    def check(self, out_dir: str, stats: dict) -> tuple[int, int, str, list[str]]:
        """(rows wrong or missing, error rows written by this run, corpus
        digest, problems) of one run into `out_dir`."""
        problems = []
        expected = self.n_rows - len(self.done)
        if stats["rows_written"] != expected or stats["urls_skipped_resume"] != len(self.done):
            problems.append(
                f"wrote {stats['rows_written']} rows, skipped {stats['urls_skipped_resume']}; "
                f"expected {expected} and {len(self.done)}"
            )
        out = read_corpus(out_dir).select(self.ref.column_names)
        bad = 0
        if not out.equals(self.ref):
            want = dict(zip(self.ref["url"].to_pylist(), self.ref.to_pylist()))
            got = dict(zip(out["url"].to_pylist(), out.to_pylist()))
            bad = sum(1 for u, r in want.items() if got.get(u) != r) + len(set(got) - set(want))
            problems.append(f"{bad} output rows differ from the in-process Extractor pass")
        problems += self._golden_mismatch(out, "output")
        n_err = sum(
            1 for u, e in zip(out["url"].to_pylist(), out["error"].to_pylist()) if e and u not in self.done
        )
        return bad, n_err, digest(out), problems
