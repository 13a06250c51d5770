"""Benchmark workload inputs: generated from a seed, cached on disk.

Each workload is a page table (url, warc_ts, html, lang) cut from
`fixtures.generator.generate_corpus(fat=6)` plus two poison rows (an
empty payload and a truncated %PDF-FIXTURE payload), so the error-row
path runs in every workload. The table is written both as Parquet
shards and as gzipped WARC shards, so either ingest path can be traced
on any workload.

The cache key is the seed, the workload and the sha of the three files
that decide the input bytes (generator, pdf_codec, warc writer). The
half-done output snapshot of the resume workload is also keyed by the
sha of the whole package, because it is program output.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "pdf_extractor_ray")
WORK = os.path.join(ROOT, ".bench_work")

FAT = 6  # Common-Crawl sized pages
SHARDS = 4
WARM_ROWS = 32  # in SHARDS shards too, so the warm run starts every worker a rep needs
INPUT_VERSION = "4"

# name -> (ingest format, rows kept per payload kind, resume)
WORKLOADS = {
    "pdf_parquet": ("parquet", {"pdf": 100}, False),
    "mixed_warc_resume": ("warc", {"html": 1080, "pdf": 120}, True),
}
# Rows of each kind are taken in these language shares (the generator's
# default weights), so every seed gets the same kind x language mix and
# the seed only varies the documents within it.
LANG_SHARE = {"en": 0.40, "ja": 0.25, "de": 0.15, "fr": 0.10, "es": 0.10}
KIND_SHARE = {"html": 0.9, "pdf": 0.1}  # generate_corpus's payload mix

PAGE_COLUMNS = ["url", "warc_ts", "html", "lang"]


def payload_kind(payload: bytes) -> str:
    if not payload:
        return "empty"
    return "pdf" if payload.startswith(b"%PDF") else "html"


def pdf_family(payload: bytes) -> str:
    """Encoding family of a generated PDF payload, read from its bytes."""
    from pdf_extractor_ray.functions.pdf_words import FIXTURE_MAGIC

    if payload.startswith(FIXTURE_MAGIC):
        return "fixture_json"
    if b"/Encrypt" in payload:
        return "encrypted"
    if payload.startswith(b"%PDF-1.5"):
        return "pdf15"
    if b"/Widths" in payload:
        return "wild"
    return "classic"


PDF_FAMILIES = ("classic", "pdf15", "wild", "encrypted", "fixture_json")


def _sha(paths: list[str]) -> str:
    h = hashlib.sha1()
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def package_sha() -> str:
    files = []
    for d, _, names in os.walk(PKG):
        files += [os.path.join(d, n) for n in names if n.endswith(".py")]
    return _sha(sorted(files))


def _poison_rows(seed: int, lang: str) -> dict:
    import datetime as dt

    from pdf_extractor_ray.functions.pdf_words import FIXTURE_MAGIC

    ts = dt.datetime(2024, 1, 1)
    return {
        "url": [f"https://poison.example/s{seed}/empty", f"https://poison.example/s{seed}/malformed"],
        "warc_ts": [ts, ts],
        "html": [b"", FIXTURE_MAGIC + b"{not json"],
        "lang": [lang, lang],
    }


def _generate(name: str, seed: int) -> tuple[pa.Table, list[int], pa.Table, pa.Table]:
    """(rows, done, golden, probes): the workload rows, the indices of
    rows already extracted before a resume rep, url->golden_text of the
    HTML rows, and one doc of each payload family the rows lack."""
    from pdf_extractor_ray.fixtures.generator import generate_corpus

    fmt, per_kind, resume = WORKLOADS[name]
    quota = {(k, lang): round(n * share) for k, n in per_kind.items() for lang, share in LANG_SHARE.items()}
    n_gen = int(1.6 * max(n / KIND_SHARE[k] for k, n in per_kind.items()))
    while True:
        pages, golden = generate_corpus(n_gen, seed=seed, fat=FAT, skew=False)
        payloads = pages["html"].to_pylist()
        taken: dict[tuple[str, str], list[int]] = {key: [] for key in quota}
        for i, (p, lang) in enumerate(zip(payloads, pages["lang"].to_pylist())):
            key = (payload_kind(p), lang)
            if key in taken and len(taken[key]) < quota[key] and _codec_reads(p):
                taken[key].append(i)
        if all(len(taken[key]) == quota[key] for key in quota):
            break
        n_gen = int(n_gen * 1.5)
    keep = sorted(i for idx in taken.values() for i in idx)
    pos = {i: j for j, i in enumerate(keep)}
    # every second row of each kind x language stratum is done already
    done = sorted(pos[i] for idx in taken.values() for i in idx[::2]) if resume else []
    rows = pages.take(pa.array(keep, pa.int64())).select(PAGE_COLUMNS)
    if fmt == "warc":
        # WARC carries no language; read_warc_pages labels every row 'und'
        rows = rows.set_column(3, "lang", pa.array(["und"] * rows.num_rows, pa.string()))
    poison = pa.table(_poison_rows(seed, rows["lang"][0].as_py()), schema=rows.schema)
    rows = pa.concat_tables([rows, poison]).combine_chunks()

    present = {_family(p) for p in rows["html"].to_pylist()}
    probe_idx, seen = [], set(present)
    for i, p in enumerate(payloads):
        fam = _family(p)
        if fam not in seen and fam != "empty" and _codec_reads(p):
            seen.add(fam)
            probe_idx.append(i)
    probes = pages.take(pa.array(probe_idx, pa.int64())).select(PAGE_COLUMNS)

    kept_urls = set(rows["url"].to_pylist())
    g = [
        (u, t)
        for u, t in zip(golden["url"].to_pylist(), golden["golden_text"].to_pylist())
        if u in kept_urls
    ]
    golden_t = pa.table({"url": [u for u, _ in g], "golden_text": [t for _, t in g]})
    return rows, done, golden_t, probes


def _codec_reads(payload: bytes) -> bool:
    """False for a generated PDF the in-repo codec rejects. A few seeds
    produce one (e.g. a wild a85+flate PDF raising "unsupported
    /DecodeParms form"); it would come back as an error row, so it is
    left out of the workload rather than failing the output check."""
    if payload_kind(payload) != "pdf":
        return True
    from pdf_extractor_ray.functions.pdf_words import pdf_payload_to_pages

    try:
        return pdf_payload_to_pages(payload) is not None
    except Exception:
        return False


def _family(payload: bytes) -> str:
    kind = payload_kind(payload)
    return pdf_family(payload) if kind == "pdf" else kind


class Inputs:
    """Paths and facts of one (workload, seed) input set."""

    def __init__(self, name: str, seed: int, root: str) -> None:
        self.name, self.seed, self.root = name, seed, root
        self.fmt, _, self.resume = WORKLOADS[name]
        with open(os.path.join(root, "meta.json"), encoding="utf-8") as f:
            self.meta = json.load(f)
        self.pages_dir = os.path.join(root, "pages")

    def table(self, part: str) -> pa.Table:
        return pq.read_table(os.path.join(self.root, f"{part}.parquet"))

    def warc_shards(self, sub: str = "warc") -> list[str]:
        d = os.path.join(self.root, sub)
        return sorted(os.path.join(d, n) for n in os.listdir(d))

    def source(self, sub: str = ""):
        """Pipeline input from a shard subdir (default: the workload's
        own shards): a Parquet dir path, or a WARC Dataset."""
        if self.fmt == "parquet":
            return os.path.join(self.root, sub or "pages")
        from pdf_extractor_ray.sources.warc import read_warc_pages

        return read_warc_pages(self.warc_shards(sub or "warc"))

    def warm_source(self):
        return self.source("warm_pages" if self.fmt == "parquet" else "warm_warc")

    @property
    def done_urls(self) -> set[str]:
        return set(self.table("done")["url"].to_pylist()) if self.resume else set()

    def snapshot_dir(self) -> str:
        return os.path.join(self.root, f"snapshot-{package_sha()[:16]}")


def prepare(name: str, seed: int) -> Inputs:
    """Build (or reuse) the cached inputs of one workload and seed."""
    from pdf_extractor_ray.sources.warc import write_warc_shards

    key_files = [
        os.path.join(PKG, "fixtures", "generator.py"),
        os.path.join(PKG, "functions", "pdf_codec.py"),
        os.path.join(PKG, "sources", "warc.py"),
    ]
    key = hashlib.sha1(
        f"{INPUT_VERSION}|{name}|{seed}|{_sha(key_files)}".encode()
    ).hexdigest()[:16]
    root = os.path.join(WORK, "inputs", f"{name}-s{seed}-{key}")
    if os.path.exists(os.path.join(root, "meta.json")):
        return Inputs(name, seed, root)
    tmp = root + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rows, done_idx, golden, probes = _generate(name, seed)
    pq.write_table(rows, os.path.join(tmp, "rows.parquet"))
    pq.write_table(golden, os.path.join(tmp, "golden.parquet"))
    pq.write_table(probes, os.path.join(tmp, "probes.parquet"))

    def write_both(t: pa.Table, pages_sub: str, warc_sub: str) -> None:
        os.makedirs(os.path.join(tmp, pages_sub))
        per = -(-t.num_rows // SHARDS)
        for i in range(SHARDS):
            part = t.slice(i * per, per)
            if part.num_rows:
                pq.write_table(
                    part, os.path.join(tmp, pages_sub, f"shard-{i:04d}.parquet"), row_group_size=512
                )
        write_warc_shards(t, os.path.join(tmp, warc_sub), n_shards=SHARDS)

    write_both(rows, "pages", "warc")
    write_both(rows.slice(0, WARM_ROWS), "warm_pages", "warm_warc")
    payload_bytes = sum(len(p) for p in rows["html"].to_pylist())
    n_done = 0
    if done_idx:  # the poison rows always stay to do
        done = rows.take(pa.array(done_idx, pa.int64()))
        pq.write_table(done, os.path.join(tmp, "done.parquet"))
        write_warc_shards(done, os.path.join(tmp, "done_warc"), n_shards=SHARDS)
        n_done = done.num_rows
        payload_bytes -= sum(len(p) for p in done["html"].to_pylist())
    meta = {
        "workload": name,
        "seed": seed,
        "rows": rows.num_rows,
        "rows_done": n_done,
        "todo_payload_bytes": payload_bytes,
        "families": sorted({_family(p) for p in rows["html"].to_pylist()}),
    }
    with open(os.path.join(tmp, "meta.json"), "w", encoding="utf-8") as f:
        json.dump(meta, f, indent=1)
    shutil.rmtree(root, ignore_errors=True)
    os.replace(tmp, root)
    return Inputs(name, seed, root)


def ensure_snapshot(inp: Inputs) -> str | None:
    """Half-done output of the resume workload, built once per seed and
    package version (needs a live Ray session). None for other workloads."""
    if not inp.resume:
        return None
    snap = inp.snapshot_dir()
    if os.path.isdir(snap):
        return snap
    from pdf_extractor_ray.pipelines.extract import run_extraction

    tmp = snap + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    run_extraction(inp.source("done_warc"), tmp, resume=False)
    os.replace(tmp, snap)
    return snap


def reset_out_dir(inp: Inputs, out_dir: str) -> None:
    """Empty the output dir; for the resume workload restore the snapshot."""
    shutil.rmtree(out_dir, ignore_errors=True)
    snap = ensure_snapshot(inp)
    if snap:
        shutil.copytree(snap, out_dir)
