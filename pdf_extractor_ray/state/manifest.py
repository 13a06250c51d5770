"""Checkpoint manifest: per-partition lineage + idempotent resume.

Ray Data has no cross-job resume (SURVEY.md §4.2); this module supplies
it — the Ray analog of the reference's skip-if-output-exists
(processor.py:113-116) and page-checkpoint JSON
(large_doc_extractor.py:279-298), redesigned for a partitioned corpus:

- Each extraction batch is written as ONE parquet partition
  `part-<id>.parquet` whose id is a content hash of its url set
  (idempotent under Ray task retries: a retried task rewrites the same
  bytes to the same name via atomic tmp+rename, `write_parquet_atomic`).
  Partitions are zstd level 3; `url`, `extracted_text` and
  `element_inventory` are unique per row, so they skip dictionary
  pages, and the two text columns skip min/max statistics (`url` keeps
  its, for range pruning at the read).
- Alongside it, `_manifest/<id>.json` records lineage only:
  {partition_id, n_rows, url_min, url_max, stage_checksum (sha256 over
  url+extracted_text pairs), wall_time_s}. It is written after the
  partition is published, so a sidecar that parses marks its partition
  committed.
- Resume = `completed_urls`: the `url` column of every committed
  partition (the partition file is the one source of truth; a parquet
  without a sidecar, a torn sidecar or a sidecar without its parquet
  counts as not done and re-extracts), anti-joined against the input
  (the set broadcasts via ray.put at test scale; at 10^12-row scale
  this becomes a hash-partitioned anti-join or a Bloom filter per input
  shard — the sidecars' url_min/url_max ranges let shards fully covered
  by completed ranges be pruned at the read).

No wall-clock enters the DATA: wall_time_s lives only in the manifest
sidecar, never in output rows, preserving byte-identity of the corpus.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

MANIFEST_DIR = "_manifest"

_MANIFEST_ROW_SCHEMA = pa.schema(
    [
        ("partition_id", pa.string()),
        ("n_rows", pa.int64()),
        ("url_min", pa.string()),
        ("url_max", pa.string()),
        ("stage_checksum", pa.string()),
    ]
)


# per-row-unique columns get no dictionary pages; the two free-text
# columns also get no min/max statistics (they prune nothing)
_NO_DICTIONARY = frozenset({"url", "extracted_text", "element_inventory"})
_NO_STATISTICS = frozenset({"extracted_text", "element_inventory"})


def write_parquet_atomic(table: pa.Table, path: str) -> None:
    """Write `table` to `path` as zstd-3 parquet (column options above,
    for whichever of those columns it has) and publish it atomically:
    readers see the whole file or none."""
    cols = table.column_names
    tmp = path + ".tmp"
    pq.write_table(
        table,
        tmp,
        compression="zstd",
        compression_level=3,
        use_dictionary=[c for c in cols if c not in _NO_DICTIONARY],
        write_statistics=[c for c in cols if c not in _NO_STATISTICS],
    )
    os.replace(tmp, path)


def write_json_atomic(record: dict, path: str) -> None:
    """Write `record` as JSON to `path`, published atomically the same
    way (sidecars and `_SUCCESS` markers)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(record, f)
    os.replace(tmp, path)


def _partition_id(urls: list[str]) -> str:
    h = hashlib.sha1()
    for u in sorted(urls):
        h.update(u.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _stage_checksum(batch: pa.Table) -> str:
    """sha256 over `url \\0 extracted_text \\1` per row in (url, text)
    order, hashed straight from the Arrow UTF-8 buffers (UTF-8 byte
    order is code point order, so this is Python's `sorted` order)."""
    large = pa.large_string()
    text = pc.fill_null(batch.column("extracted_text").cast(large), "")
    url = batch.column("url").cast(large)
    rec = pc.binary_join_element_wise(url, text, pa.scalar("\x00", large))
    rec = pc.binary_join_element_wise(rec, pa.scalar("", large), pa.scalar("\x01", large))
    order = pc.sort_indices(pa.table({"u": url, "t": text}), [("u", "ascending"), ("t", "ascending")])
    rec = rec.take(order).combine_chunks()
    offsets = np.frombuffer(rec.buffers()[1], np.int64)
    lo, hi = offsets[rec.offset], offsets[rec.offset + len(rec)]
    return hashlib.sha256(rec.buffers()[2][lo:hi]).hexdigest()


def _partition_path(out_dir: str, pid: str) -> str:
    return os.path.join(out_dir, f"part-{pid}.parquet")


class PartitionWriter:
    """map_batches stage that sinks extraction batches to partitioned
    parquet + manifest sidecars and emits one tiny manifest row per
    partition (so the pipeline's consumed output is the manifest, not
    the corpus — the corpus streams straight to disk)."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.mdir = os.path.join(out_dir, MANIFEST_DIR)
        os.makedirs(self.out_dir, exist_ok=True)
        os.makedirs(self.mdir, exist_ok=True)

    def __call__(self, batch: pa.Table) -> pa.Table:
        t0 = time.monotonic()
        # re-ensure dirs on every write: writers are cached per worker
        # process across runs (pipelines/extract._TASK_CACHE), and a
        # later run may start after the previous output dir was removed
        os.makedirs(self.mdir, exist_ok=True)
        urls = batch.column("url").to_pylist()
        if not urls:
            return _MANIFEST_ROW_SCHEMA.empty_table()
        pid = _partition_id(urls)
        write_parquet_atomic(batch, _partition_path(self.out_dir, pid))
        row = {
            "partition_id": pid,
            "n_rows": len(urls),
            "url_min": min(urls),
            "url_max": max(urls),
            "stage_checksum": _stage_checksum(batch),
            "wall_time_s": round(time.monotonic() - t0, 4),
        }
        # the sidecar commits the partition: written only after the
        # parquet is published
        write_json_atomic(row, os.path.join(self.mdir, f"{pid}.json"))
        return pa.Table.from_pylist([row], schema=_MANIFEST_ROW_SCHEMA)


def _sidecar_names(out_dir: str) -> list[str]:
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    if not os.path.isdir(mdir):
        return []
    return sorted(n for n in os.listdir(mdir) if n.endswith(".json"))


def completed_urls(out_dir: str) -> set[str]:
    """Urls already extracted (resume input): the `url` column of every
    committed partition, i.e. one whose sidecar parses. Anything less
    (no sidecar, a torn one, a sidecar whose parquet is missing or
    unreadable) is not done, so its urls re-extract."""
    done: set[str] = set()
    for name in _sidecar_names(out_dir):
        try:
            with open(os.path.join(out_dir, MANIFEST_DIR, name), encoding="utf-8") as f:
                json.load(f)
            path = _partition_path(out_dir, name[: -len(".json")])
            done.update(pq.ParquetFile(path).read(columns=["url"]).column("url").to_pylist())
        except (OSError, ValueError, KeyError):
            continue  # torn or orphaned: that partition re-runs
    return done


def load_manifest(out_dir: str) -> list[dict]:
    """Every sidecar that parses, in partition-id order."""
    rows = []
    for name in _sidecar_names(out_dir):
        try:
            with open(os.path.join(out_dir, MANIFEST_DIR, name), encoding="utf-8") as f:
                rows.append(json.load(f))
        except (OSError, ValueError):
            continue
    return rows
