"""Training-shard export: the last hop of the data pipeline, where
the cleaned corpus becomes the fixed artifact a training job streams.

Three properties a 100-TB export needs, all deterministic:

- **Reproducible global shuffle.** Each row lands in shard
  ``md5(id) % n_shards`` and shards are internally ordered by
  ``(md5(id), id)`` — so the full read order is a fixed pseudo-random
  permutation of the corpus, independent of write order, cluster
  size, or retry history (the md5_u52 discipline shared with the
  split/sample operators).
- **Resumable output.** One directory per shard, atomic publish
  (tmp + rename) and a ``_SUCCESS`` marker written only after the
  shard's parquet is durable; a re-run drops completed shards at the
  SCAN (the marker set broadcasts once), so only missing shards cost
  anything.
- **Streaming writes.** The pipeline's consumed output is the tiny
  per-shard manifest row, never the corpus: rows co-shuffle once on
  hash(shard) mod n_shards and each shard group writes itself to
  disk inside the task (the state/manifest.PartitionWriter shape).

Reference parity: the reference engine's batch_processor writes one
results directory per run with no shuffle or resume contract; this
is the distributed equivalent its corpus consumers would need.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.scrub import md5_u52
from pdf_extractor_ray.state.manifest import write_json_atomic, write_parquet_atomic

_SHARD_ROW_SCHEMA = pa.schema(
    [
        ("shard", pa.int64()),
        ("n_rows", pa.int64()),
        ("path", pa.string()),
        ("wall_time_s", pa.float64()),
    ]
)


def _success_path(out_dir: str, shard: int) -> str:
    return os.path.join(out_dir, f"shard={shard:05d}", "_SUCCESS")


def completed_shards(out_dir: str, n_shards: int) -> set[int]:
    """Shards whose _SUCCESS marker exists — the resume skip-set."""
    return {s for s in range(n_shards) if os.path.exists(_success_path(out_dir, s))}


def export_training_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    n_shards: int = 64,
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Export `ds` as `n_shards` deterministic shard directories under
    `out_dir` (see module docstring for the contract). Returns the
    per-shard manifest (shard, n_rows, path, wall_time_s) — only rows
    for shards written THIS run; already-complete shards are skipped
    at the scan. Runs the export to completion (it is a sink)."""
    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir, n_shards)

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        h = md5_u52([str(v) for v in b[id_col]])
        b["_h"] = h.astype("int64")
        b["_shard"] = (h % np.uint64(n_shards)).astype("int64")
        if done:
            b = b[~b["_shard"].isin(list(done))]
        return b

    def write_shard(g: pd.DataFrame) -> pa.Table:
        if g.empty or "_shard" not in g.columns:
            return _SHARD_ROW_SCHEMA.empty_table()
        t0 = time.monotonic()
        shard = int(g["_shard"].iloc[0])
        # fixed internal order: the shard reads back as a deterministic
        # pseudo-random permutation slice regardless of arrival order
        g = g.sort_values(["_h", id_col], kind="stable").drop(columns=["_h", "_shard"])
        sdir = os.path.join(out_dir, f"shard={shard:05d}")
        os.makedirs(sdir, exist_ok=True)
        path = os.path.join(sdir, "part-0.parquet")
        write_parquet_atomic(pa.Table.from_pandas(g, preserve_index=False), path)
        write_json_atomic({"shard": shard, "n_rows": len(g)}, _success_path(out_dir, shard))
        return pa.table(
            {
                "shard": pa.array([shard], pa.int64()),
                "n_rows": pa.array([len(g)], pa.int64()),
                "path": pa.array([path], pa.string()),
                "wall_time_s": pa.array([round(time.monotonic() - t0, 4)], pa.float64()),
            },
            schema=_SHARD_ROW_SCHEMA,
        )

    manifest = (
        ds.map_batches(assign, batch_format="pandas")
        .groupby("_shard")
        .map_groups(write_shard, batch_format="pandas")
        .to_pandas()  # one row per shard written — always tiny
    )
    if manifest.empty:
        return _SHARD_ROW_SCHEMA.empty_table().to_pandas()
    return manifest.sort_values("shard").reset_index(drop=True)


def read_training_shards(out_dir: str) -> ray.data.Dataset:
    """Stream the exported corpus back in shard order (the fixed
    training order). Missing/incomplete shards (no _SUCCESS) raise —
    a partial corpus must never silently train."""
    shards = sorted(
        d for d in os.listdir(out_dir) if d.startswith("shard=")
    )
    paths = []
    for d in shards:
        if not os.path.exists(os.path.join(out_dir, d, "_SUCCESS")):
            raise FileNotFoundError(f"shard {d} has no _SUCCESS marker — export incomplete")
        paths.append(os.path.join(out_dir, d, "part-0.parquet"))
    return ray.data.read_parquet(paths)


def export_jsonl_shards(
    ds: ray.data.Dataset,
    out_dir: str,
    n_shards: int = 64,
    id_col: str = "doc_id",
    gzip_compress: bool = False,
) -> pd.DataFrame:
    """JSONL interchange export — the same shard contract as
    export_training_shards (md5(id) % n_shards placement, internal
    (md5, id) order, atomic publish, _SUCCESS resume) but each shard
    is a newline-delimited JSON file (optionally gzip), the lingua
    franca of public training-data releases (Dolma, RedPajama,
    FineWeb all ship JSONL). Column order is preserved; encoding is
    UTF-8 with non-ASCII passed through raw. Returns the same
    per-shard manifest frame."""
    import gzip as _gzip

    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir, n_shards)
    ext = ".jsonl.gz" if gzip_compress else ".jsonl"

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        h = md5_u52([str(v) for v in b[id_col]])
        b["_h"] = h.astype("int64")
        b["_shard"] = (h % np.uint64(n_shards)).astype("int64")
        if done:
            b = b[~b["_shard"].isin(list(done))]
        return b

    def write_shard(g: pd.DataFrame) -> pa.Table:
        if g.empty or "_shard" not in g.columns:
            return _SHARD_ROW_SCHEMA.empty_table()
        t0 = time.monotonic()
        shard = int(g["_shard"].iloc[0])
        g = g.sort_values(["_h", id_col], kind="stable").drop(columns=["_h", "_shard"])
        sdir = os.path.join(out_dir, f"shard={shard:05d}")
        os.makedirs(sdir, exist_ok=True)
        path = os.path.join(sdir, "part-0" + ext)
        tmp = path + ".tmp"
        payload = g.to_json(orient="records", lines=True, force_ascii=False)
        data = payload.encode("utf-8")
        if gzip_compress:
            # mtime=0: byte-identical archives run to run
            data = _gzip.compress(data, mtime=0)
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
        write_json_atomic({"shard": shard, "n_rows": len(g)}, _success_path(out_dir, shard))
        return pa.table(
            {
                "shard": pa.array([shard], pa.int64()),
                "n_rows": pa.array([len(g)], pa.int64()),
                "path": pa.array([path], pa.string()),
                "wall_time_s": pa.array([round(time.monotonic() - t0, 4)], pa.float64()),
            },
            schema=_SHARD_ROW_SCHEMA,
        )

    manifest = (
        ds.map_batches(assign, batch_format="pandas")
        .groupby("_shard")
        .map_groups(write_shard, batch_format="pandas")
        .to_pandas()
    )
    if manifest.empty:
        return _SHARD_ROW_SCHEMA.empty_table().to_pandas()
    return manifest.sort_values("shard").reset_index(drop=True)


def read_jsonl_shards(out_dir: str) -> ray.data.Dataset:
    """Stream a JSONL shard export back in shard order. Missing
    _SUCCESS markers raise (partial corpora must never train). Plain
    and gzip shards both read via ray.data.read_json (Arrow infers
    gzip from the extension)."""
    shards = sorted(d for d in os.listdir(out_dir) if d.startswith("shard="))
    paths = []
    for d in shards:
        if not os.path.exists(os.path.join(out_dir, d, "_SUCCESS")):
            raise FileNotFoundError(f"shard {d} has no _SUCCESS marker — export incomplete")
        sdir = os.path.join(out_dir, d)
        part = [p for p in os.listdir(sdir) if p.startswith("part-0.jsonl")]
        if not part:
            raise FileNotFoundError(f"shard {d} has no part file")
        paths.append(os.path.join(sdir, part[0]))
    # partitioning=None: the shard=NNNNN dirs are a resume contract,
    # not hive columns — don't let the reader inject a 'shard' column
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
    (the ops/rank.global_rank machinery — range partition + prefix
    offsets, no driver sort) and shard s receives the contiguous rank
    range [s*N/n, (s+1)*N/n) in rank order — so a training job that
    streams shards 0..n-1 consumes the corpus easiest-first (or
    highest-quality-first), the standard curriculum / quality-annealing
    layout. Same atomic publish + _SUCCESS resume contract as the md5
    exporters; unlike them the placement depends on the RANKING, so a
    resume re-ranks but only rewrites missing shards.

    Emits the per-shard manifest plus each shard's rank span
    (rank_lo, rank_hi) for auditability."""
    from pdf_extractor_ray.ops.rank import global_rank

    os.makedirs(out_dir, exist_ok=True)
    done = completed_shards(out_dir, n_shards)
    ranked = global_rank(ds, keys, ascending=ascending, rank_col="_rank")
    total = ranked.count()
    if total == 0:
        return _SHARD_ROW_SCHEMA.empty_table().to_pandas()

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0 or "_rank" not in b.columns:
            return pd.DataFrame()
        b = b.copy()
        b["_shard"] = ((b["_rank"] - 1) * n_shards // total).astype("int64")
        if done:
            b = b[~b["_shard"].isin(list(done))]
        return b

    def write_shard(g: pd.DataFrame) -> pa.Table:
        if g.empty or "_shard" not in g.columns:
            return _SHARD_ROW_SCHEMA.empty_table()
        t0 = time.monotonic()
        shard = int(g["_shard"].iloc[0])
        g = g.sort_values("_rank", kind="stable")
        lo, hi = int(g["_rank"].iloc[0]), int(g["_rank"].iloc[-1])
        g = g.drop(columns=["_shard"])
        sdir = os.path.join(out_dir, f"shard={shard:05d}")
        os.makedirs(sdir, exist_ok=True)
        path = os.path.join(sdir, "part-0.parquet")
        write_parquet_atomic(pa.Table.from_pandas(g, preserve_index=False), path)
        write_json_atomic({"shard": shard, "n_rows": len(g), "rank_lo": lo, "rank_hi": hi}, _success_path(out_dir, shard))
        return pa.table(
            {
                "shard": pa.array([shard], pa.int64()),
                "n_rows": pa.array([len(g)], pa.int64()),
                "path": pa.array([path], pa.string()),
                "wall_time_s": pa.array([round(time.monotonic() - t0, 4)], pa.float64()),
            },
            schema=_SHARD_ROW_SCHEMA,
        )

    manifest = (
        ranked.map_batches(assign, batch_format="pandas")
        .groupby("_shard")
        .map_groups(write_shard, batch_format="pandas")
        .to_pandas()
    )
    if manifest.empty:
        return _SHARD_ROW_SCHEMA.empty_table().to_pandas()
    return manifest.sort_values("shard").reset_index(drop=True)


def export_minhash_index(
    ds: ray.data.Dataset,
    out_dir: str,
    num_perm: int = 128,
    k: int = 5,
    n_shards: int = 16,
    id_col: str = "doc_id",
) -> pd.DataFrame:
    """Persist the corpus's MinHash signature table as a sharded
    parquet index (md5(id) shards, atomic publish, _SUCCESS resume —
    the export_training_shards contract): ~1 KB/doc at 128 perms, the
    state an incremental crawl pipeline keeps between snapshots so
    ops/dedup.near_dedup_against_sigs can delta-dedup tomorrow's
    shard WITHOUT re-streaming today's text. Append a new day by
    exporting its signatures to a sibling directory and reading both.

    Returns the per-shard manifest."""
    from pdf_extractor_ray.ops.dedup import minhash_signatures

    sigs = minhash_signatures(
        ds.select_columns([id_col, "text"]), num_perm=num_perm, k=k
    )

    def to_list(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {"doc_id": pd.Series(dtype="int64"), "sig": pd.Series(dtype="object")}
            )
        b = b.copy()
        # parquet-friendly: uint64 list column
        b["sig"] = [np.asarray(s, dtype=np.uint64) for s in b["sig"]]
        return b

    return export_training_shards(
        sigs.map_batches(to_list, batch_format="pandas"),
        out_dir,
        n_shards=n_shards,
        id_col="doc_id",
    )


def read_minhash_index(out_dir: str) -> ray.data.Dataset:
    """Stream a persisted signature index back (refuses partial
    indexes — a missing shard would silently under-dedup)."""
    return read_training_shards(out_dir)
