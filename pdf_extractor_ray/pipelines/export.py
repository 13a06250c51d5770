"""Training-shard export: the last hop of the data pipeline, where
the cleaned corpus becomes the fixed artifact a training job streams.

Three properties a 100-TB export needs, all deterministic:

- **Reproducible global shuffle.** Each row lands in shard
  ``md5(id) % n_shards`` and shards are internally ordered by
  ``(md5(id), id)`` — so the full read order is a fixed pseudo-random
  permutation of the corpus, independent of write order, cluster
  size, or retry history (the md5_u52 discipline shared with the
  split/sample operators).
- **Resumable output.** One directory per shard, atomic publish and a
  ``_SUCCESS`` marker written only after the shard's file is durable
  (``state/manifest.commit``, the partition writer's commit); a re-run
  drops completed shards at the SCAN (the marker set broadcasts once),
  so only missing shards cost anything.
- **Streaming writes.** The pipeline's consumed output is the tiny
  per-shard manifest row, never the corpus: one
  ``ops/shuffle.hash_partition`` whose key hash is the shard id itself,
  with P = n_shards, so each partition is exactly one shard, which
  writes itself to disk inside the task.

Reference parity: the reference engine's batch_processor writes one
results directory per run with no shuffle or resume contract; this
is the distributed equivalent its corpus consumers would need.
"""

from __future__ import annotations

import gzip
import os
import time
from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.scrub import md5_u52
from pdf_extractor_ray.ops.shuffle import hash_partition
from pdf_extractor_ray.state.manifest import commit, committed, write_bytes_atomic, write_parquet_atomic

_SHARD_ROW_SCHEMA = pa.schema(
    [("shard", pa.int64()), ("n_rows", pa.int64()), ("path", pa.string()), ("wall_time_s", pa.float64())]
)


def _success_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, f"shard={shard:05d}", "_SUCCESS")


def completed_shards(out_dir: str, n_shards: int) -> set[int]:
    """Shards whose _SUCCESS marker is committed — the resume skip-set."""
    return {s for s in range(n_shards) if committed(_success_path(out_dir, s)) is not None}


def _export_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    n_shards: int,
    assign: Callable[[pd.DataFrame], pd.DataFrame],
    order: Callable[[pd.DataFrame], pd.DataFrame],
    name: str,
    write: Callable[[pd.DataFrame, str], None],
    extra: Callable[[pd.DataFrame], dict] = lambda g: {},
) -> pd.DataFrame:
    """The sink every exporter shares: `assign(batch)` adds `_shard`
    (and any column `order` sorts on); committed shards' rows drop
    before the exchange; each shard is one partition, put in its fixed
    row order by `order`, published by `write(group, path)` as
    shard=NNNNN/`name` and committed with {shard, n_rows,
    **extra(group)}. Returns the manifest of the shards written now."""
    os.makedirs(out_dir, exist_ok=True)
    done = sorted(completed_shards(out_dir, n_shards))

    def tag(b: pd.DataFrame) -> pd.DataFrame:  # no rows left: the key column alone
        if len(b):
            b = assign(b.copy())
            b = b[~b["_shard"].isin(done)]
        return b if len(b) else pd.DataFrame({"_shard": pd.Series(dtype="int64")})

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        t0 = time.monotonic()
        shard = int(g["_shard"].iloc[0])
        g = order(g).drop(columns=["_shard"])
        marker = _success_path(out_dir, shard)
        os.makedirs(os.path.dirname(marker), exist_ok=True)
        path = os.path.join(os.path.dirname(marker), name)

        def publish() -> dict:
            write(g, path)
            return {"shard": shard, "n_rows": len(g), **extra(g)}

        commit(publish, marker)
        wall = round(time.monotonic() - t0, 4)
        return pd.DataFrame({"shard": [shard], "n_rows": [len(g)], "path": [path], "wall_time_s": [wall]})

    rows = []  # one per shard written — always tiny; none when all are committed
    if len(done) < n_shards:  # the shard id is its own key hash
        tagged = ds.map_batches(tag, batch_format="pandas")
        rows = hash_partition(tagged, "_shard", n_shards, write_shard, _SHARD_ROW_SCHEMA).take_all()
    return pa.Table.from_pylist(rows, _SHARD_ROW_SCHEMA).to_pandas().sort_values("shard").reset_index(drop=True)


def _md5_placement(n_shards: int, id_col: str):
    """(assign, order) of the md5 exporters: shard md5(id) % n_shards,
    rows in (md5(id), id) order whatever their arrival order."""

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        h = md5_u52([str(v) for v in b[id_col]])
        b["_h"] = h.astype("int64")
        b["_shard"] = (h % np.uint64(n_shards)).astype("int64")
        return b

    def order(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["_h", id_col], kind="stable").drop(columns=["_h"])

    return assign, order


def _write_parquet(g: pd.DataFrame, path: str) -> None:
    write_parquet_atomic(pa.Table.from_pandas(g, preserve_index=False), path)


def _committed_parts(out_dir: str, names: tuple[str, ...]) -> list[str]:
    """Each shard's part file, in shard order. An uncommitted shard
    raises: a partial corpus must never silently train."""
    paths = []
    for d in sorted(d for d in os.listdir(out_dir) if d.startswith("shard=")):
        sdir = os.path.join(out_dir, d)
        if committed(os.path.join(sdir, "_SUCCESS")) is None:
            raise FileNotFoundError(f"shard {d} has no _SUCCESS marker — export incomplete")
        part = [n for n in names if os.path.exists(os.path.join(sdir, n))]
        if not part:
            raise FileNotFoundError(f"shard {d} has no part file")
        paths.append(os.path.join(sdir, part[0]))
    return paths


def export_training_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    n_shards: int = 64,
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Export `ds` as `n_shards` deterministic shard directories under
    `out_dir` (module docstring: the contract), run to completion.
    Returns the per-shard manifest (shard, n_rows, path, wall_time_s)
    of the shards written this run; committed shards are skipped."""
    assign, order = _md5_placement(n_shards, id_col)
    return _export_shards(ds, out_dir, n_shards, assign, order, "part-0.parquet", _write_parquet)


def read_training_shards(out_dir: str) -> ray.data.Dataset:
    """Stream the exported corpus back in shard order (the fixed
    training order); an uncommitted shard raises."""
    return ray.data.read_parquet(_committed_parts(out_dir, ("part-0.parquet",)))


def export_jsonl_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    n_shards: int = 64,
    id_col: str = "doc_id",
    gzip_compress: bool = False,
) -> pd.DataFrame:
    """JSONL interchange export: export_training_shards' shard
    contract, but each shard is a newline-delimited JSON file
    (optionally gzip), the format Dolma, RedPajama and FineWeb ship.
    Column order is preserved; UTF-8 with non-ASCII passed through
    raw. Returns the same per-shard manifest frame."""

    def write(g: pd.DataFrame, path: str) -> None:
        data = g.to_json(orient="records", lines=True, force_ascii=False).encode("utf-8")
        # mtime=0: byte-identical archives run to run
        write_bytes_atomic(gzip.compress(data, mtime=0) if gzip_compress else data, path)

    assign, order = _md5_placement(n_shards, id_col)
    name = "part-0.jsonl.gz" if gzip_compress else "part-0.jsonl"
    return _export_shards(ds, out_dir, n_shards, assign, order, name, write)


def read_jsonl_shards(out_dir: str) -> ray.data.Dataset:
    """Stream a JSONL shard export back in shard order; an uncommitted
    shard raises. Arrow infers gzip from the extension. partitioning=None:
    the shard=NNNNN dirs are a resume contract, not hive columns."""
    paths = _committed_parts(out_dir, ("part-0.jsonl", "part-0.jsonl.gz"))
    return ray.data.read_json(paths, partitioning=None)


def export_curriculum_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    keys,
    ascending=None,
    n_shards: int = 64,
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Curriculum-ordered shard export: rows rank globally by `keys`
    (ops/rank.global_rank, no driver sort) and shard s receives the
    contiguous rank range [s*N/n, (s+1)*N/n) in rank order, so a job
    streaming shards 0..n-1 consumes the corpus easiest-first (the
    curriculum / quality-annealing layout). The md5 exporters' publish
    and resume contract, but placement depends on the ranking, so a
    resume re-ranks and rewrites only missing shards. Each marker also
    records the shard's rank span (rank_lo, rank_hi)."""
    from pdf_extractor_ray.ops.rank import global_rank

    ranked = global_rank(ds, keys, ascending=ascending, rank_col="_rank")
    total = ranked.count()

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b["_shard"] = ((b["_rank"] - 1) * n_shards // total).astype("int64")
        return b

    return _export_shards(
        ranked, out_dir, n_shards, assign, lambda g: g.sort_values("_rank", kind="stable"),
        "part-0.parquet", _write_parquet,
        extra=lambda g: {"rank_lo": int(g["_rank"].iloc[0]), "rank_hi": int(g["_rank"].iloc[-1])},
    )


def export_minhash_index(
    ds: ray.data.Dataset,
    out_dir: str,
    num_perm: int = 128,
    k: int = 5,
    n_shards: int = 16,
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Persist the corpus's MinHash signature table as a sharded
    parquet index with the export_training_shards contract (~1 KB/doc
    at 128 perms): the state an incremental crawl keeps between
    snapshots, so ops/dedup.near_dedup_against_sigs can delta-dedup
    tomorrow's shard without re-streaming today's text. Append a day
    by exporting its signatures to a sibling directory and reading
    both. Returns the per-shard manifest."""
    from pdf_extractor_ray.ops.dedup import minhash_signatures

    sigs = minhash_signatures(ds.select_columns([id_col, "text"]), num_perm=num_perm, k=k)

    def to_list(b: pd.DataFrame) -> pd.DataFrame:  # parquet-friendly: a uint64 list column
        return b.assign(sig=[np.asarray(s, dtype=np.uint64) for s in b["sig"]]) if len(b) else b

    return export_training_shards(sigs.map_batches(to_list, batch_format="pandas"), out_dir, n_shards=n_shards)


def read_minhash_index(out_dir: str) -> ray.data.Dataset:
    """Stream a persisted signature index back (refuses partial
    indexes — a missing shard would silently under-dedup)."""
    return read_training_shards(out_dir)
