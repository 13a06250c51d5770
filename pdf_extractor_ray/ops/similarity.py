"""Similarity search over an embedding column (list<float>).

- brute_force_topk : exact cosine top-k — the query matrix is
  broadcast ONCE via ray.put; each map_batches task does one numpy
  matmul per batch against it (never re-shipped per batch); partial
  per-batch top-k rows are merged by a final small sort. Oracle-able
  in DuckDB via list_cosine_similarity.
- ivf_topk : IVF-style scale path — k-means-ish centroids from a
  deterministic sample, batches assign rows to their nearest centroid
  (bucket column), and only buckets near the query are scanned. At
  256-node scale the bucket column doubles as the partition key so a
  query touches a fraction of blocks.
- embedding_neardup_pairs : all pairs with cosine >= threshold
  (embedding near-duplicate detection) via bucketed blocking.

Keyed reductions past the per-bucket tiles (srp_neardup_pairs' band
buckets, the per-query top-k of hard_negatives' IVF tier, bitext
mining's per-target b_y and per-source best pair) run on the one
shuffle primitive (`ops/shuffle.py` `hash_partition`): one vectorized
pandas pass per hash partition, never one Ray group per key.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import co_shuffle, column_hash, hash_partition

_COS_PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("cos", pa.float64())])


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


# per-worker cache of fetched+normalized query matrices, keyed by the
# broadcast ObjectRef (task-pool pattern, see pipelines/extract.py —
# ray.get hits the local object store after the first fetch anyway;
# the cache also skips renormalization)
_QUERY_CACHE: dict = {}


def _topk_task(batch: pd.DataFrame, qref, k: int, id_col: str, vec_col: str) -> pd.DataFrame:
    if len(batch) == 0:  # np.stack raises on empty sequences
        return pd.DataFrame({id_col: pd.Series(dtype="int64"), "cos": pd.Series(dtype="float64")})
    q = _QUERY_CACHE.get(qref.hex())
    if q is None:
        q = _normalize_rows(np.atleast_2d(np.asarray(ray.get(qref), dtype=np.float64)))
        _QUERY_CACHE[qref.hex()] = q
    # float64 end-to-end: float32 matmul drifted ~1e-6 vs the DuckDB
    # oracle's double path, enough to flip 4-decimal rounding
    m = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
    s = (m @ q.T)[:, 0]
    k = min(k, len(s))
    idx = np.argpartition(-s, k - 1)[:k]
    return pd.DataFrame(
        {
            id_col: batch[id_col].to_numpy()[idx],
            "cos": s[idx],
        }
    )


def brute_force_topk(
    ds: ray.data.Dataset,
    query: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Exact cosine top-k. Result: (id_col, cos) sorted by
    (-cos, id_col) — deterministic tie-break."""
    qref = ray.put(np.asarray(query, dtype=np.float64))
    partial = ds.map_batches(
        _topk_task,
        fn_kwargs={"qref": qref, "k": k, "id_col": id_col, "vec_col": vec_col},
        batch_format="pandas",
        batch_size=4096,
    )
    allp = partial.to_pandas()
    allp = allp.sort_values(["cos", id_col], ascending=[False, True], kind="stable").head(k)
    return allp.reset_index(drop=True)


# ---------------------------------------------------------------------------
# IVF-bucketed variant (scale path)
# ---------------------------------------------------------------------------


def train_centroids(
    ds: ray.data.Dataset, n_centroids: int = 16, sample_rows: int = 2048, vec_col: str = "embedding", iters: int = 5
) -> np.ndarray:
    """Deterministic mini k-means on a prefix sample (limit(), not
    random_sample — reproducible)."""
    sample = np.stack(
        [np.asarray(r[vec_col], dtype=np.float32) for r in ds.limit(sample_rows).take_all()]
    )
    sample = _normalize_rows(sample)
    cents = sample[:: max(1, len(sample) // n_centroids)][:n_centroids].copy()
    for _ in range(iters):
        assign = (sample @ cents.T).argmax(axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                nv = np.linalg.norm(v)
                if nv > 0:
                    cents[c] = v / nv
    return cents


def _assign_task(batch: pd.DataFrame, cref, vec_col: str) -> pd.DataFrame:
    if len(batch) == 0:
        batch = batch.copy()
        batch["bucket"] = pd.Series(dtype="int32")
        return batch
    c = _QUERY_CACHE.get(cref.hex())
    if c is None:
        c = _QUERY_CACHE[cref.hex()] = ray.get(cref)
    m = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float32))
    batch = batch.copy()
    batch["bucket"] = (m @ c.T).argmax(axis=1).astype(np.int32)
    return batch


def assign_buckets(
    ds: ray.data.Dataset, centroids: np.ndarray, vec_col: str = "embedding"
) -> ray.data.Dataset:
    cref = ray.put(centroids.astype(np.float32))
    return ds.map_batches(
        _assign_task, fn_kwargs={"cref": cref, "vec_col": vec_col}, batch_format="pandas", batch_size=4096
    )


def _probe_rows(batch: pd.DataFrame, cref, vec_col: str, cols: list, n: int) -> pd.DataFrame:
    """`batch[cols]` once per each row's `n` nearest broadcast centroids
    (nearest first, ties to the lower index), that centroid's index in
    `bucket`: n=1 assigns a pool row, n=n_probe fans out a query."""
    c = _QUERY_CACHE.get(("probe", cref.hex()))
    if c is None:
        c = _QUERY_CACHE[("probe", cref.hex())] = ray.get(cref)
    m = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float32))
    top = np.argsort(-(m @ c.T), axis=1, kind="stable")[:, :n]
    out = batch.iloc[np.repeat(np.arange(len(batch)), n)][cols]
    return out.assign(bucket=top.reshape(-1).astype(np.int32))


def ivf_topk(
    ds: ray.data.Dataset,
    query: np.ndarray,
    k: int = 10,
    n_probe: int = 4,
    n_centroids: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Approximate top-k: scan only the n_probe buckets nearest the
    query. Recall < 1.0 by design; verified in tests against
    brute_force_topk recall, not equality."""
    cents = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col)
    q = _normalize_rows(np.atleast_2d(np.asarray(query, dtype=np.float32)))[0]
    probes = set(np.argsort(-(cents @ q))[:n_probe].tolist())
    bucketed = assign_buckets(ds, cents, vec_col=vec_col)

    def in_probes(batch: pd.DataFrame) -> pd.DataFrame:
        return batch[batch["bucket"].isin(probes)]

    pruned = bucketed.map_batches(in_probes, batch_format="pandas")
    return brute_force_topk(pruned, query, k=k, id_col=id_col, vec_col=vec_col)


def embedding_neardup_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_centroids: int = 16,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    block_rows: int = 2048,
) -> pd.DataFrame:
    """All pairs with cosine >= threshold, blocked by IVF bucket (pairs
    straddling buckets with cos >= threshold are overwhelmingly rare for
    tight thresholds; the exact variant would multi-assign borderline
    rows). Returns (a, b, cos), a < b, sorted.

    Per-bucket scoring is CHUNKED block-pair (block_rows x n_bucket
    tiles) so memory per group is O(block_rows * n) instead of the
    O(n^2) dense similarity matrix a hot bucket would otherwise
    allocate — the tile loop scans only the upper triangle."""
    cents = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col)
    bucketed = assign_buckets(ds, cents, vec_col=vec_col)

    def pairs_in_bucket(g: pd.DataFrame) -> pd.DataFrame | None:
        ids = g[id_col].to_numpy()
        m = _normalize_rows(np.stack(g[vec_col].to_numpy()).astype(np.float32))
        frames = []
        for i0 in range(0, len(m), block_rows):
            i1 = min(i0 + block_rows, len(m))
            # tile vs everything at-or-after the tile start: upper triangle only
            s = m[i0:i1] @ m[i0:].T  # (block_rows, n - i0) — bounded
            ii, jj = np.where(s >= threshold)
            keep = (ii + i0) < (jj + i0)  # strict upper triangle
            ii, jj = ii[keep], jj[keep]
            if len(ii) == 0:
                continue
            ga, gb = ids[ii + i0], ids[jj + i0]
            frames.append(
                pd.DataFrame(
                    {
                        "a": np.minimum(ga, gb),
                        "b": np.maximum(ga, gb),
                        "cos": s[ii, jj].astype(np.float64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else None

    # bucket ids run below len(cents): partition p holds bucket p alone
    out = hash_partition(bucketed, "bucket", len(cents), pairs_in_bucket, _COS_PAIR_SCHEMA).to_pandas()
    return out.sort_values(["a", "b"], kind="stable").reset_index(drop=True)


def embedding_neardup_exact(
    ds: ray.data.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """EXACT all-pairs cosine near-dup — the oracle-checkable baseline
    that embedding_neardup_pairs (IVF-blocked) approximates.

    Shape: the normalized matrix is gathered once and broadcast via
    ray.put; each map_batches task scores its row-block against the
    full matrix (an O(B x N) tile, float64 end-to-end) and keeps pairs
    with id_a < id_b — every qualifying pair is produced exactly once
    with no shuffle. Output is int ids only, (a, b) sorted, so the
    driver compare is bit-exact.

    Exact all-vs-all is O(N^2) by definition: honest up to ~10^6 rows
    of small-dim vectors (the broadcast is N x d float64); beyond
    that, IVF bucketing (embedding_neardup_pairs) is the scale path."""
    rows = ds.select_columns([id_col, vec_col]).take_all()  # bounded: N x d
    ids_all = np.fromiter((r[id_col] for r in rows), dtype=np.int64, count=len(rows))
    m = _normalize_rows(np.stack([np.asarray(r[vec_col]) for r in rows]).astype(np.float64))
    bref = ray.put((ids_all, m))

    def tile(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
        if len(batch) == 0:
            return empty
        cached = _QUERY_CACHE.get(bref.hex())
        if cached is None:
            cached = _QUERY_CACHE[bref.hex()] = ray.get(bref)
        all_ids, all_m = cached
        mb = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        bids = batch[id_col].to_numpy(dtype=np.int64)
        s = mb @ all_m.T  # (B, N) tile — bounded by batch size
        hit = (s >= threshold) & (bids[:, None] < all_ids[None, :])
        ii, jj = np.where(hit)
        if len(ii) == 0:
            return empty
        return pd.DataFrame({"a": bids[ii], "b": all_ids[jj]})

    out = ds.map_batches(tile, batch_format="pandas", batch_size=4096).to_pandas()
    if out.empty:
        return pd.DataFrame({"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64")})
    return out.sort_values(["a", "b"], kind="stable").reset_index(drop=True)


def srp_neardup_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_bits: int = 64,
    bands: int = 8,
    seed: int = 7,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    num_partitions: int = 32,
    block_rows: int = 2048,
) -> pd.DataFrame:
    """Cosine near-dup pairs via SIGNED-RANDOM-PROJECTION LSH (Charikar
    2002 simhash-for-vectors — the canonical cosine-LSH) — the third
    embedding near-dup variant next to the IVF-blocked approximation
    and the exact all-pairs baseline:

    1. project every vector onto n_bits shared random hyperplanes
       (broadcast once via ray.put); the SIGN BIT pattern is the
       signature — P(bit agrees) = 1 - angle/pi, so near-identical
       vectors share whole bit-bands with high probability
    2. band the signature (bands x n_bits/bands); rows sharing any
       exact band key are candidates. Band keys hash_partition into P
       partitions and each partition runs ONE vectorized pandas pass
       (the dedup-LSH pattern — never one Ray group per bucket)
    3. candidates verify by TRUE cosine inside the partition (chunked
       block tiles bound memory); pairs dedup across bands on the
       driver (bounded by the near-dup count, like the IVF variant)

    Vectors ride along in the band exchange (bands x vector traffic)
    so verification needs no second shuffle; with 8 bands of 8 bits at
    threshold 0.95 the per-pair recall is ~0.99. Deterministic for a
    fixed seed. Returns (a, b, cos), a < b, sorted."""
    first = ds.take(1)
    if not first:
        return pd.DataFrame(
            {"a": pd.Series(dtype="int64"), "b": pd.Series(dtype="int64"), "cos": pd.Series(dtype="float64")}
        )
    d = len(first[0][vec_col])
    bits_per_band = n_bits // bands
    rng = np.random.default_rng(seed)
    rref = ray.put(rng.standard_normal((d, n_bits)).astype(np.float32))
    weights = (1 << np.arange(bits_per_band, dtype=np.int64))

    def explode(batch: pd.DataFrame) -> pd.DataFrame:
        r = _QUERY_CACHE.get(("srp", rref.hex()))
        if r is None:
            r = _QUERY_CACHE[("srp", rref.hex())] = ray.get(rref)
        m = np.stack(batch[vec_col].to_numpy()).astype(np.float32)
        bits = (m @ r) >= 0  # (n, n_bits); sign is norm-invariant
        n = len(batch)
        keys = (bits.reshape(n, bands, bits_per_band) * weights).sum(axis=2)  # (n, bands)
        return pd.DataFrame(
            {
                "band_id": np.tile(np.arange(bands, dtype=np.int64), n),
                "band_key": keys.reshape(-1),
                id_col: np.repeat(batch[id_col].to_numpy(), bands),
                vec_col: np.repeat(batch[vec_col].to_numpy(), bands),
            }
        )

    def band_hash(t: pa.Table) -> np.ndarray:
        # one hash per (band, key) bucket
        return pd.util.hash_array(
            t.column("band_key").to_numpy() * np.int64(bands) + t.column("band_id").to_numpy()
        )

    def pairs_in_partition(g: pd.DataFrame) -> pd.DataFrame | None:
        frames = []
        for _, grp in g.groupby(["band_id", "band_key"], sort=False):
            if len(grp) < 2:
                continue
            ids = grp[id_col].to_numpy(dtype=np.int64)
            m = _normalize_rows(np.stack(grp[vec_col].to_numpy()).astype(np.float64))
            for i0 in range(0, len(m), block_rows):
                i1 = min(i0 + block_rows, len(m))
                s = m[i0:i1] @ m[i0:].T  # bounded tile, upper triangle
                ii, jj = np.where(s >= threshold)
                keep = (ii + i0) < (jj + i0)
                ii, jj = ii[keep], jj[keep]
                if len(ii) == 0:
                    continue
                ga, gb = ids[ii + i0], ids[jj + i0]
                frames.append(
                    pd.DataFrame(
                        {
                            "a": np.minimum(ga, gb),
                            "b": np.maximum(ga, gb),
                            "cos": s[ii, jj].astype(np.float64),
                        }
                    )
                )
        return pd.concat(frames, ignore_index=True) if frames else None

    out = hash_partition(
        ds.select_columns([id_col, vec_col]).map_batches(explode, batch_format="pandas"),
        band_hash, num_partitions, pairs_in_partition, _COS_PAIR_SCHEMA,
    ).to_pandas()  # bounded by the near-dup pair count (x bands)
    out = out.drop_duplicates(["a", "b"])  # same pair from several bands
    return out.sort_values(["a", "b"], kind="stable").reset_index(drop=True)


# ---------------------------------------------------------------------------
# int8 embedding quantization (the 100-TB storage tier)
# ---------------------------------------------------------------------------


def quantize_fit(
    ds: ray.data.Dataset, vec_col: str = "embedding"
) -> pd.DataFrame:
    """Per-dimension (min, max) over the whole corpus — the affine
    uint8 quantization parameters. Scale shape: each block emits ONE
    partial row of 2d floats (its local min/max vectors); the driver
    folds <= n_blocks such rows into the d-row parameter frame. At
    4-byte floats a 100-TB embedding column quantizes to 25 TB; the
    parameter table is d rows regardless of corpus size.

    Returns (i, mn, mx) with i the 0-based dimension, values float64
    (the float32 inputs convert EXACTLY, so the fit is
    engine-portable)."""

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(
            [np.asarray(v, dtype=np.float64) for v in batch[vec_col]]
        )
        return pd.DataFrame({"mins": [m.min(axis=0)], "maxs": [m.max(axis=0)]})

    rows = ds.map_batches(partial, batch_format="pandas", batch_size=None).take_all()
    mins = np.min(np.stack([np.asarray(r["mins"]) for r in rows]), axis=0)
    maxs = np.max(np.stack([np.asarray(r["maxs"]) for r in rows]), axis=0)
    return pd.DataFrame({"i": np.arange(len(mins), dtype=np.int64), "mn": mins, "mx": maxs})


def _affine_q(m: np.ndarray, mn: np.ndarray, mx: np.ndarray) -> np.ndarray:
    """uint8 codes: floor((v-mn) * 255/(mx-mn) + 0.5) — explicit
    half-UP rounding (numpy's round() is banker's, SQL round() is
    half-away; floor(x+0.5) is identical everywhere). Constant
    dimensions (mx == mn) code to 0."""
    scale = mx - mn
    safe = np.where(scale > 0, scale, 1.0)
    q = np.floor((m - mn) * 255.0 / safe + 0.5)
    q = np.where(scale > 0, q, 0.0)
    return np.clip(q, 0, 255).astype(np.uint8)


def quantize_embeddings(
    ds: ray.data.Dataset,
    fit: pd.DataFrame,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
) -> ray.data.Dataset:
    """Quantize the embedding column to uint8 codes using a fit from
    `quantize_fit`. The d-row parameter frame broadcasts once via
    ray.put and each batch quantizes in one vectorized affine pass —
    no shuffle, 4x smaller payload out than in. Emits
    (id_col, qvec list<uint8>)."""
    ref = ray.put((fit["mn"].to_numpy(), fit["mx"].to_numpy()))

    def q(batch: pd.DataFrame) -> pd.DataFrame:
        mn, mx = ray.get(ref)
        m = np.stack([np.asarray(v, dtype=np.float64) for v in batch[vec_col]])
        codes = _affine_q(m, mn, mx)
        return pd.DataFrame({id_col: batch[id_col].to_numpy(), "qvec": list(codes)})

    return ds.map_batches(q, batch_format="pandas")


def quantized_topk(
    qds: ray.data.Dataset,
    fit: pd.DataFrame,
    query: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Exact cosine top-k over a QUANTIZED corpus: each batch
    dequantizes its uint8 codes (v ~ mn + q*(mx-mn)/255, float64),
    scores against the ray.put-broadcast float query, and emits only
    its local top-k — the brute_force_topk shape at a quarter of the
    scan bytes. The quantization error bound is (mx-mn)/510 per
    dimension (half a code step), so ranking inversions are confined
    to pairs closer than the reconstruction error — measured recall
    vs the float baseline is pinned in tests."""
    qn = np.asarray(query, dtype=np.float64)
    qn = qn / np.linalg.norm(qn)
    ref = ray.put((fit["mn"].to_numpy(), fit["mx"].to_numpy(), qn))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        mn, mx, qv = ray.get(ref)
        codes = np.stack([np.asarray(v, dtype=np.float64) for v in batch["qvec"]])
        m = mn + codes * (mx - mn) / 255.0
        norms = np.linalg.norm(m, axis=1)
        norms[norms == 0] = 1.0
        cos = (m @ qv) / norms
        order = np.lexsort((batch[id_col].to_numpy(), -cos))[:k]
        return pd.DataFrame(
            {id_col: batch[id_col].to_numpy()[order], "cos": cos[order]}
        )

    allp = qds.map_batches(score, batch_format="pandas").to_pandas()
    allp = allp.sort_values(["cos", id_col], ascending=[False, True], kind="stable").head(k)
    return allp.reset_index(drop=True)


# ---------------------------------------------------------------------------
# hard-negative mining and semantic outlier scoring
# ---------------------------------------------------------------------------


def hard_negatives(
    ds: ray.data.Dataset,
    k: int = 3,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
    tier: str = "auto",
    max_broadcast_rows: int = 100_000,
    n_centroids: int = 16,
    n_probe: int = 4,
    num_partitions: int = 32,
    block_rows: int = 2048,
) -> pd.DataFrame:
    """Hard-negative mining for metric learning: for every vector, the
    k most cosine-similar vectors carrying a DIFFERENT label — the
    pairs contrastive / triplet training actually learns from (easy
    negatives contribute ~zero gradient; the classic formulation is
    Schroff et al. 2015 FaceNet semi-hard mining, done here corpus-wide
    and deterministically).

    Two tiers (the embedding_neardup exact/IVF pattern):

    - ``exact`` (the SQL-oracle baseline, auto below
      `max_broadcast_rows`): the normalized corpus (ids, labels,
      matrix) broadcasts once via ray.put; each task scores its
      row-block in one (B x N) float64 tile, masks same-label and self
      columns, and emits only its rows' top-k — no shuffle, every
      output row produced exactly once. O(N^2), honest to ~10^5 rows.
    - ``bucketed`` (the 100-TB scale path, auto above the cap): train
      IVF centroids on a prefix sample, assign every vector to its
      argmax bucket as a candidate pool member, replicate each QUERY
      row into its `n_probe` nearest buckets, and mine per bucket with
      chunked (block_rows x n_bucket) tiles — each (query, pool) pair
      scored at most once because pool membership is single-bucket.
      Per-bucket partial top-k candidates (<= n_probe*k slim rows per
      query) co-shuffle on hash(query) mod P for the exact final
      top-k + rank. Recall < 1.0 by design (a hard negative hiding in
      an unprobed bucket is missed); with n_probe == n_centroids it
      equals the exact tier bitwise (pinned in tests). On NEAR-UNIFORM
      vectors (IVF's worst case — the synthetic fixture) rank-1 recall
      measured 0.77/0.86/0.93 at probe 4/5/6 of 8; clustered real
      embeddings do much better at low probe counts.

    Emits (vec_id, neg_id, cos, rank) with rank 1..k by
    (cos desc, neg_id asc) — the exact tier is fully SQL-oracle-able."""
    if tier == "auto":
        tier = "exact" if ds.count() <= max_broadcast_rows else "bucketed"
    if tier == "bucketed":
        return _hard_negatives_bucketed(
            ds, k, id_col, vec_col, label_col,
            n_centroids=n_centroids, n_probe=n_probe,
            num_partitions=num_partitions, block_rows=block_rows,
        )
    rows = ds.select_columns([id_col, vec_col, label_col]).take_all()  # bounded: N x d
    ids_all = np.fromiter((r[id_col] for r in rows), dtype=np.int64, count=len(rows))
    labels_all = np.fromiter((r[label_col] for r in rows), dtype=np.int64, count=len(rows))
    m = _normalize_rows(np.stack([np.asarray(r[vec_col]) for r in rows]).astype(np.float64))
    bref = ray.put((ids_all, labels_all, m))

    def tile(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                id_col: pd.Series(dtype="int64"),
                "neg_id": pd.Series(dtype="int64"),
                "cos": pd.Series(dtype="float64"),
                "rank": pd.Series(dtype="int64"),
            }
        )
        if len(batch) == 0:
            return empty
        cached = _QUERY_CACHE.get(("hn", bref.hex()))
        if cached is None:
            cached = _QUERY_CACHE[("hn", bref.hex())] = ray.get(bref)
        all_ids, all_labels, all_m = cached
        mb = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        bids = batch[id_col].to_numpy(dtype=np.int64)
        blabels = batch[label_col].to_numpy(dtype=np.int64)
        s = mb @ all_m.T  # (B, N)
        s[blabels[:, None] == all_labels[None, :]] = -np.inf  # same label (incl. self)
        # top-k by (cos desc, neg_id asc): lexsort on (-cos, id) per row
        out_rows = []
        order = np.lexsort((np.broadcast_to(all_ids, s.shape), -s), axis=1)[:, :k]
        for i in range(len(bids)):
            cols = order[i]
            cols = cols[np.isfinite(s[i, cols])]
            for r, j in enumerate(cols, start=1):
                out_rows.append((bids[i], all_ids[j], s[i, j], r))
        if not out_rows:
            return empty
        arr = pd.DataFrame(out_rows, columns=[id_col, "neg_id", "cos", "rank"])
        arr["rank"] = arr["rank"].astype("int64")
        return arr

    out = ds.map_batches(tile, batch_format="pandas", batch_size=4096).to_pandas()
    return out.sort_values([id_col, "rank"], kind="stable").reset_index(drop=True)


def _hard_negatives_bucketed(
    ds: ray.data.Dataset,
    k: int,
    id_col: str,
    vec_col: str,
    label_col: str,
    n_centroids: int,
    n_probe: int,
    num_partitions: int,
    block_rows: int,
) -> pd.DataFrame:
    """Scale tier of hard_negatives — see its docstring. Nothing ever
    materializes the corpus on the driver: only the k x d centroid
    matrix broadcasts; the heavy exchange is the bucket shuffle (each
    vector moves n_probe times as query, its nearest bucket's copy
    doubling as its pool row), and the finish moves <= n_probe*k
    scalar candidate rows per query."""
    cents = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col)
    n_probe = min(n_probe, len(cents))
    cref = ray.put(cents.astype(np.float32))
    slim = ds.select_columns([id_col, vec_col, label_col])
    cols = [id_col, vec_col, label_col]

    def probe(b: pd.DataFrame) -> pd.DataFrame:
        out = _probe_rows(b, cref, vec_col, cols, n_probe)
        return out.assign(_pool=np.arange(len(out)) % n_probe == 0)

    def mine(qs: pd.DataFrame) -> pd.DataFrame | None:
        pool = qs[qs["_pool"].to_numpy(dtype=bool)]
        if pool.empty:
            return None
        pids = pool[id_col].to_numpy(dtype=np.int64)
        plabels = pool[label_col].to_numpy(dtype=np.int64)
        pm = _normalize_rows(np.stack(pool[vec_col].to_numpy()).astype(np.float64))
        frames = []
        for i0 in range(0, len(qs), block_rows):
            q = qs.iloc[i0 : i0 + block_rows]
            qm = _normalize_rows(np.stack(q[vec_col].to_numpy()).astype(np.float64))
            s = qm @ pm.T  # (block, n_pool) — bounded by block_rows
            s[q[label_col].to_numpy(dtype=np.int64)[:, None] == plabels[None, :]] = -np.inf
            kk = min(k, s.shape[1])
            order = np.lexsort((np.broadcast_to(pids, s.shape), -s), axis=1)[:, :kk]
            rows_i = np.repeat(np.arange(len(q)), kk)
            cols = order.reshape(-1)
            vals = s[rows_i, cols]
            fin = np.isfinite(vals)
            if not fin.any():
                continue
            frames.append(
                pd.DataFrame(
                    {
                        id_col: q[id_col].to_numpy(dtype=np.int64)[rows_i[fin]],
                        "neg_id": pids[cols[fin]],
                        "cos": vals[fin],
                    }
                )
            )
        return pd.concat(frames, ignore_index=True) if frames else None

    # each row's n_probe query copies meet the pool rows of their
    # buckets, a row's first copy (its nearest bucket) being its pool
    # row; bucket ids run below len(cents), one bucket per partition
    cands = hash_partition(
        slim.map_batches(probe, batch_format="pandas"),
        "bucket",
        len(cents),
        mine,
        pa.schema([(id_col, pa.int64()), ("neg_id", pa.int64()), ("cos", pa.float64())]),
    )

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "cos", "neg_id"], ascending=[True, False, True], kind="stable")
        g = g.reset_index(drop=True)
        g["rank"] = g.groupby(id_col, sort=False).cumcount() + 1
        return g[g["rank"] <= k]

    out = hash_partition(
        cands, column_hash(id_col), num_partitions, finish,
        pa.schema(
            [(id_col, pa.int64()), ("neg_id", pa.int64()), ("cos", pa.float64()), ("rank", pa.int64())]
        ),
    ).to_pandas()
    return out.sort_values([id_col, "rank"], kind="stable").reset_index(drop=True)


def embedding_decontaminate(
    ds: ray.data.Dataset,
    test_vecs: np.ndarray,
    threshold: float = 0.8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    keep_cols: Sequence[str] | None = None,
    block_rows: int = 4096,
) -> ray.data.Dataset:
    """Semantic decontamination against a held-out set: drop every
    corpus row whose embedding is cosine->= `threshold` similar to ANY
    test vector — the embedding-space complement of the n-gram /
    Bloom decontaminations in ops/scrub (paraphrased eval leakage
    that exact text matching misses; the Phi-style 'semantic dedup
    against the benchmark' pass).

    Shape: the (T x d) test matrix broadcasts ONCE via ray.put (the
    small side of an asymmetric join — never a shuffle); each task
    scores its rows in one (B x T) float64 tile and keeps rows whose
    max test-cosine stays below threshold. Emits keep_cols +
    max_test_cos. Fully SQL-oracle-able (NOT EXISTS over
    list_cosine_similarity)."""
    t = _normalize_rows(np.asarray(test_vecs, dtype=np.float64))
    tref = ray.put(t)
    cols = list(keep_cols) if keep_cols is not None else [id_col]

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        empty_cols = {c: pd.Series(dtype="object") for c in cols}
        empty_cols["max_test_cos"] = pd.Series(dtype="float64")
        if len(batch) == 0:
            return pd.DataFrame(empty_cols)
        tm = _QUERY_CACHE.get(("edc", tref.hex()))
        if tm is None:
            tm = _QUERY_CACHE[("edc", tref.hex())] = ray.get(tref)
        out_frames = []
        for i0 in range(0, len(batch), block_rows):
            b = batch.iloc[i0 : i0 + block_rows]
            m = _normalize_rows(np.stack(b[vec_col].to_numpy()).astype(np.float64))
            mx = (m @ tm.T).max(axis=1)
            keep = mx < threshold
            out = b.loc[keep, cols].copy()
            out["max_test_cos"] = mx[keep]
            out_frames.append(out)
        return pd.concat(out_frames, ignore_index=True) if out_frames else pd.DataFrame(empty_cols)

    return ds.map_batches(f, batch_format="pandas")


def semantic_outliers(
    ds: ray.data.Dataset,
    n_clusters: int = 8,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Semantic outlier scoring for embedding-space data curation:
    fit spherical k-means (ops/cluster.kmeans_fit — distributed moment
    reduction), assign every vector, and z-score each vector's cosine
    distance to its centroid WITHIN its cluster — rows far from their
    own cluster's typical radius are mislabeled/noise/off-distribution
    candidates (the SemDeDup-family curation signal, inverted: instead
    of pruning the most redundant, flag the least representative).

    Shape: the centroid matrix broadcasts (k x d); per-batch distance
    scoring is shuffle-free; per-cluster mean/std come from one
    k-row moment exchange (sum, sumsq, n per cluster); a second
    shuffle-free pass attaches the z-score. Emits
    (vec_id, cluster, dist, z) sorted by vec_id."""
    from pdf_extractor_ray.ops.cluster import kmeans_fit

    cents = kmeans_fit(ds, k=n_clusters, vec_col=vec_col)
    cref = ray.put(np.asarray(cents, dtype=np.float64))

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        c = _QUERY_CACHE.get(("so", cref.hex()))
        if c is None:
            c = _QUERY_CACHE[("so", cref.hex())] = ray.get(cref)
        mb = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        s = mb @ c.T
        cl = s.argmax(axis=1)
        dist = 1.0 - s[np.arange(len(cl)), cl]
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(dtype=np.int64),
                "cluster": cl.astype(np.int64),
                "dist": dist,
            }
        )

    scored = ds.map_batches(score, batch_format="pandas").materialize()

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("cluster")["dist"].agg(["count", "sum"])
        g["sumsq"] = b.assign(d2=b["dist"] ** 2).groupby("cluster")["d2"].sum()
        return pd.DataFrame(
            {
                "cluster": g.index.to_numpy(dtype=np.int64),
                "n": g["count"].to_numpy(dtype=np.int64),
                "s": g["sum"].to_numpy(dtype=np.float64),
                "s2": g["sumsq"].to_numpy(dtype=np.float64),
            }
        )

    from pdf_extractor_ray.ops.relational import grouped_sum

    mom = grouped_sum(
        scored.map_batches(moments, batch_format="pandas"),
        ["cluster"],
        ["n", "s", "s2"],
        counts=False,
    ).to_pandas()  # k rows
    mu = mom["sum_s"] / mom["sum_n"]
    var = mom["sum_s2"] / mom["sum_n"] - mu ** 2
    sd = np.sqrt(np.maximum(var.to_numpy(), 0.0))
    sd[sd == 0] = 1.0
    stats_ref = ray.put(
        {int(c): (float(m), float(s)) for c, m, s in zip(mom["cluster"], mu, sd)}
    )

    def attach_z(b: pd.DataFrame) -> pd.DataFrame:
        st = _QUERY_CACHE.get(("soz", stats_ref.hex()))
        if st is None:
            st = _QUERY_CACHE[("soz", stats_ref.hex())] = ray.get(stats_ref)
        mus = np.array([st[int(c)][0] for c in b["cluster"]])
        sds = np.array([st[int(c)][1] for c in b["cluster"]])
        out = b.copy()
        out["z"] = (b["dist"].to_numpy() - mus) / sds
        return out

    out = scored.map_batches(attach_z, batch_format="pandas").to_pandas()
    return out.sort_values(id_col).reset_index(drop=True)


def truncation_recall(
    ds: ray.data.Dataset,
    m: int = 16,
    k: int = 10,
    query_mod: int = 20,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Matryoshka-style dimension-truncation audit (Kusupati et al.
    2022, "Matryoshka Representation Learning"): before serving or
    storing TRUNCATED embeddings (first m dims, renormalized), measure
    how much retrieval they lose — recall@k of truncated-cosine top-k
    against full-cosine top-k for a deterministic query panel
    (id % query_mod == 0), self-matches excluded, ties broken by
    (cos DESC, id ASC).

    Scale shape: the query panel is a distributed filter whose result
    is bounded by construction (corpus/query_mod rows) and broadcast
    once via ray.put; ONE streaming pass computes BOTH similarity
    matrices per batch (two matmuls against the resident panel) and
    emits only per-(query, variant) top-(k+1) partials, so the final
    exact reduce sees at most n_queries * 2 * (k+1) rows per block —
    never a corpus materialization. recall = n_overlap / k is an
    exact int/int division, bit-identical in the SQL twin."""
    qdf = ds.map_batches(
        lambda b: b[b[id_col] % query_mod == 0], batch_format="pandas"
    ).to_pandas()  # bounded: 1/query_mod of the id space, by contract
    qdf = qdf.sort_values(id_col).reset_index(drop=True)
    if qdf.empty:  # no id hits the panel (sparse/offset id space)
        return pd.DataFrame(
            {
                "query_id": pd.Series(dtype="int64"),
                "n_overlap": pd.Series(dtype="int64"),
                "recall_at_k": pd.Series(dtype="float64"),
            }
        )
    qids = qdf[id_col].to_numpy(dtype=np.int64)
    qmat = np.stack(qdf[vec_col].to_numpy()).astype(np.float64)
    qf = _normalize_rows(qmat)
    qm = _normalize_rows(qmat[:, :m].copy())
    ref = ray.put((qids, qf, qm))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        ids_q, f, t = ray.get(ref)
        ids = batch[id_col].to_numpy(dtype=np.int64)
        v = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        vf = _normalize_rows(v)
        vm = _normalize_rows(v[:, : t.shape[1]].copy())
        out = {"qid": [], "vec_id": [], "cos": [], "which": []}
        for which, sims in enumerate((vf @ f.T, vm @ t.T)):
            for j in range(sims.shape[1]):
                col = sims[:, j]
                keep = ids != ids_q[j]  # exclude self
                cc, ii = col[keep], ids[keep]
                top = np.lexsort((ii, -cc))[: k + 1]
                out["qid"].extend([int(ids_q[j])] * len(top))
                out["vec_id"].extend(int(x) for x in ii[top])
                out["cos"].extend(float(x) for x in cc[top])
                out["which"].extend([which] * len(top))
        return pd.DataFrame(
            {
                "qid": pd.Series(out["qid"], dtype="int64"),
                "vec_id": pd.Series(out["vec_id"], dtype="int64"),
                "cos": pd.Series(out["cos"], dtype="float64"),
                "which": pd.Series(out["which"], dtype="int8"),
            }
        )

    parts = ds.map_batches(partial, batch_format="pandas", batch_size=4096).to_pandas()
    rows = []
    for qid, g in parts.groupby("qid", sort=True):
        tops = {}
        for which in (0, 1):
            gg = g[g["which"] == which].sort_values(
                ["cos", "vec_id"], ascending=[False, True], kind="stable"
            )
            tops[which] = set(gg["vec_id"].head(k))
        n_overlap = len(tops[0] & tops[1])
        rows.append((int(qid), n_overlap, n_overlap / k))
    return pd.DataFrame(rows, columns=["query_id", "n_overlap", "recall_at_k"])


_BY_SCHEMA = pa.schema([("yid", pa.int64()), ("b", pa.float64())])


_BITEXT_SCHEMA = pa.schema(
    [("src_id", pa.int64()), ("tgt_id", pa.int64()), ("cos", pa.float64()), ("margin", pa.float64())]
)


def _by_reduce(
    parts: ray.data.Dataset, k: int, num_partitions: int
) -> dict[int, float]:
    """Reduce per-batch partial top-k rows (yid, cos) to the per-y
    mean-of-top-k map b_y (the backward-kNN term of the Artetxe &
    Schwenk margin denominator). Shuffles only slim scalar rows on
    hash(yid) mod P; the driver receives exactly |Y| (yid, b) rows."""

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["yid", "cos"], ascending=[True, False], kind="stable")
        top = g.groupby("yid", sort=False).head(k)
        return top.groupby("yid", sort=True)["cos"].mean().reset_index().rename(columns={"cos": "b"})

    rows = hash_partition(
        parts, column_hash("yid"), num_partitions, reduce_part, _BY_SCHEMA
    ).to_pandas()
    return dict(zip(rows["yid"].astype(np.int64), rows["b"].astype(np.float64)))


def bitext_mine(
    src: ray.data.Dataset,
    tgt: ray.data.Dataset,
    k: int = 4,
    threshold: float = 1.0,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    tier: str = "auto",
    max_broadcast_rows: int = 100_000,
    n_centroids: int = 16,
    n_probe: int = 4,
    cand_per_query: int = 16,
    num_partitions: int = 32,
    block_rows: int = 2048,
) -> pd.DataFrame:
    """Margin-based parallel-pair mining over two embedding corpora
    (Artetxe & Schwenk 2019, the LASER / CCMatrix bitext-mining
    formulation): for every source vector x, score each target y with

        margin(x, y) = cos(x, y) / ((a_x + b_y) / 2)

    where a_x is the mean cosine of x's k nearest targets (forward
    kNN) and b_y the mean cosine of y's k nearest sources (backward
    kNN) — the ratio margin discounts hubs that are near everything.
    The mined pair for x is its argmax-margin target (tie: smallest
    tgt_id); pairs below `threshold` are dropped. Emits one row
    (src_id, tgt_id, cos, margin) per mined source vector.

    Tiers (the hard_negatives exact/bucketed pattern):

    - ``exact`` (the SQL-oracle baseline, auto when the TARGET side is
      <= `max_broadcast_rows`): the normalized target matrix
      broadcasts once via ray.put; pass 1 streams the source side and
      emits per-batch per-target partial top-k rows (backward kNN,
      reduced by a hash(yid)-mod-P scalar shuffle); pass 2 re-streams
      the source side and computes forward kNN + margins per row-block
      in one (B x |Y|) float64 tile. Sources stream twice, targets
      never leave the object store, and nothing materializes the
      source corpus anywhere. O(|X| * |Y|), honest while one side is
      broadcastable.
    - ``bucketed`` (the 100-TB scale path, auto above the cap): IVF
      centroids train on a target prefix sample; each target lands in
      its argmax bucket as pool, each source replicates into its
      `n_probe` nearest buckets as query; per-bucket tiles emit (a)
      per-source top-max(k, cand_per_query) candidate pairs and (b)
      per-target top-k backward partials. Two scalar hash_partitions
      finish: b_y on hash(yid) (broadcast back as a |Y| map), then on
      hash(xid) a_x, the candidate cut, the margins and the argmax in
      one pass.
      Recall < 1.0 by design (a true pair hiding in an unprobed
      bucket, or outside the top-cand_per_query cosines, is missed);
      with n_probe == n_centroids and cand_per_query >= |Y| it equals
      the exact tier bitwise (pinned in tests).

    Both tiers compute a_x / b_y as the mean of the top-k cosines
    sorted descending before summation, so the tiers agree bitwise
    and the DuckDB twin (row_number <= k -> avg) agrees at the
    driver's 4-decimal rounding."""
    if tier == "auto":
        tier = "exact" if tgt.count() <= max_broadcast_rows else "bucketed"
    if tier == "bucketed":
        return _bitext_mine_bucketed(
            src, tgt, k, threshold, id_col, vec_col,
            n_centroids=n_centroids, n_probe=n_probe,
            cand_per_query=cand_per_query,
            num_partitions=num_partitions, block_rows=block_rows,
        )

    out_empty = pd.DataFrame(
        {
            "src_id": pd.Series(dtype="int64"),
            "tgt_id": pd.Series(dtype="int64"),
            "cos": pd.Series(dtype="float64"),
            "margin": pd.Series(dtype="float64"),
        }
    )
    rows = tgt.select_columns([id_col, vec_col]).take_all()  # bounded: |Y| x d
    if not rows:
        return out_empty
    ids_y = np.fromiter((r[id_col] for r in rows), dtype=np.int64, count=len(rows))
    my = _normalize_rows(np.stack([np.asarray(r[vec_col]) for r in rows]).astype(np.float64))
    order = np.argsort(ids_y, kind="stable")
    ids_y, my = ids_y[order], my[order]
    yref = ray.put((ids_y, my))
    src_slim = src.select_columns([id_col, vec_col])

    def ytop_task(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame(
                {"yid": pd.Series(dtype="int64"), "cos": pd.Series(dtype="float64")}
            )
        cached = _QUERY_CACHE.get(("bt", yref.hex()))
        if cached is None:
            cached = _QUERY_CACHE[("bt", yref.hex())] = ray.get(yref)
        yids, ym = cached
        mx = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        s = mx @ ym.T  # (B, |Y|)
        kk = min(k, s.shape[0])
        top = -np.sort(-s, axis=0)[:kk, :]  # per-target top-k of this batch
        return pd.DataFrame(
            {
                "yid": np.tile(yids, kk).astype(np.int64),
                "cos": top.reshape(-1).astype(np.float64),
            }
        )

    parts = src_slim.map_batches(ytop_task, batch_format="pandas", batch_size=4096)
    b_map = _by_reduce(parts, k, num_partitions)
    if not b_map:  # empty source side
        return out_empty
    b_arr = np.array([b_map[int(y)] for y in ids_y], dtype=np.float64)
    bref = ray.put((ids_y, my, b_arr))

    def margin_task(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return out_empty.copy()
        cached = _QUERY_CACHE.get(("btm", bref.hex()))
        if cached is None:
            cached = _QUERY_CACHE[("btm", bref.hex())] = ray.get(bref)
        yids, ym, b = cached
        mx = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        xids = batch[id_col].to_numpy(dtype=np.int64)
        s = mx @ ym.T
        kk = min(k, s.shape[1])
        a = (-np.sort(-s, axis=1)[:, :kk]).mean(axis=1)
        marg = s / ((a[:, None] + b[None, :]) / 2.0)
        best = np.lexsort((np.broadcast_to(yids, marg.shape), -marg), axis=1)[:, 0]
        rows_i = np.arange(len(xids))
        mvals = marg[rows_i, best]
        keep = mvals >= threshold
        return pd.DataFrame(
            {
                "src_id": xids[keep],
                "tgt_id": yids[best[keep]],
                "cos": s[rows_i[keep], best[keep]].astype(np.float64),
                "margin": mvals[keep].astype(np.float64),
            }
        )

    out = src_slim.map_batches(margin_task, batch_format="pandas", batch_size=4096).to_pandas()
    if out.empty:
        return out_empty
    return out.sort_values("src_id", kind="stable").reset_index(drop=True)


def _bitext_mine_bucketed(
    src: ray.data.Dataset,
    tgt: ray.data.Dataset,
    k: int,
    threshold: float,
    id_col: str,
    vec_col: str,
    n_centroids: int,
    n_probe: int,
    cand_per_query: int,
    num_partitions: int,
    block_rows: int,
) -> pd.DataFrame:
    """Scale tier of bitext_mine — see its docstring. Only the
    centroid matrix broadcasts; vectors move once as pool plus
    n_probe times as query; every later exchange ships slim scalar
    rows."""
    cents = train_centroids(tgt, n_centroids=n_centroids, vec_col=vec_col)
    n_probe = min(n_probe, len(cents))
    cref = ray.put(cents.astype(np.float32))
    keep_cand = max(k, cand_per_query)
    cols = [id_col, vec_col]

    def mine(qs: pd.DataFrame, pool: pd.DataFrame) -> pd.DataFrame | None:
        # kind 0: candidate pair (xid, yid, cos); kind 1: backward
        # partial (yid, cos) with xid = -1
        if pool.empty:
            return None
        yids = pool[id_col].to_numpy(dtype=np.int64)
        ym = _normalize_rows(np.stack(pool[vec_col].to_numpy()).astype(np.float64))
        frames = []
        ytop_chunks = []  # per-chunk (kk, |Yb|) top value tiles
        for i0 in range(0, len(qs), block_rows):
            q = qs.iloc[i0 : i0 + block_rows]
            qm = _normalize_rows(np.stack(q[vec_col].to_numpy()).astype(np.float64))
            s = qm @ ym.T  # (block, |Yb|)
            cc = min(keep_cand, s.shape[1])
            order = np.lexsort((np.broadcast_to(yids, s.shape), -s), axis=1)[:, :cc]
            rows_i = np.repeat(np.arange(len(q)), cc)
            cols = order.reshape(-1)
            frames.append(
                pd.DataFrame(
                    {
                        "kind": np.int8(0),
                        "xid": q[id_col].to_numpy(dtype=np.int64)[rows_i],
                        "yid": yids[cols],
                        "cos": s[rows_i, cols].astype(np.float64),
                    }
                )
            )
            kk = min(k, s.shape[0])
            ytop_chunks.append(-np.sort(-s, axis=0)[:kk, :])
        if ytop_chunks:
            merged = np.concatenate(ytop_chunks, axis=0)
            kk = min(k, merged.shape[0])
            top = -np.sort(-merged, axis=0)[:kk, :]
            frames.append(
                pd.DataFrame(
                    {
                        "kind": np.int8(1),
                        "xid": np.int64(-1),
                        "yid": np.tile(yids, kk).astype(np.int64),
                        "cos": top.reshape(-1).astype(np.float64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    # source queries (n_probe copies each) meet the target pool rows of
    # their buckets; bucket ids run below len(cents), one per partition
    mined = co_shuffle(
        src.select_columns(cols).map_batches(
            lambda b: _probe_rows(b, cref, vec_col, cols, n_probe), batch_format="pandas"
        ),
        tgt.select_columns(cols).map_batches(
            lambda b: _probe_rows(b, cref, vec_col, cols, 1), batch_format="pandas"
        ),
        "bucket",
        "bucket",
        len(cents),
        mine,
        pa.schema([("kind", pa.int8()), ("xid", pa.int64()), ("yid", pa.int64()), ("cos", pa.float64())]),
    )

    # per-target b_y (hash(yid)) — same reduce as the exact tier,
    # broadcast back as a |Y| map of k-scalar means, not vectors
    b_rows = _by_reduce(
        mined.map_batches(lambda b: b.loc[b["kind"] == 1, ["yid", "cos"]], batch_format="pandas"),
        k, num_partitions,
    )
    bref = ray.put(b_rows)

    # per source (hash(xid)): a_x, the candidate cut, margins, argmax
    def best_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["xid", "cos", "yid"], ascending=[True, False, True], kind="stable")
        # dedup (xid, yid) pairs scored in more than one probed bucket
        g = g.drop_duplicates(subset=["xid", "yid"], keep="first")
        a = g.groupby("xid", sort=False).head(k).groupby("xid", sort=False)["cos"].mean()
        cand = g.groupby("xid", sort=False).head(keep_cand)
        bm = _QUERY_CACHE.get(("btb2", bref.hex()))
        if bm is None:
            bm = _QUERY_CACHE[("btb2", bref.hex())] = ray.get(bref)
        bv = cand["yid"].map(bm).to_numpy(dtype=np.float64)
        av = cand["xid"].map(a).to_numpy(dtype=np.float64)
        cand = cand.assign(margin=cand["cos"].to_numpy(dtype=np.float64) / ((av + bv) / 2.0))
        cand = cand.sort_values(["xid", "margin", "yid"], ascending=[True, False, True], kind="stable")
        best = cand.groupby("xid", sort=False).head(1)
        best = best[best["margin"] >= threshold]
        return pd.DataFrame(
            {"src_id": best["xid"], "tgt_id": best["yid"], "cos": best["cos"], "margin": best["margin"]}
        )

    out = hash_partition(
        mined.map_batches(lambda b: b[b["kind"] == 0], batch_format="pandas"),
        column_hash("xid"), num_partitions, best_pairs, _BITEXT_SCHEMA,
    ).to_pandas()
    return out.sort_values("src_id", kind="stable").reset_index(drop=True)


def knn_graph(
    ds: ray.data.Dataset,
    k: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    tier: str = "auto",
    max_broadcast_rows: int = 100_000,
    n_centroids: int = 16,
    n_probe: int = 4,
    num_partitions: int = 32,
    block_rows: int = 2048,
) -> pd.DataFrame:
    """Cosine k-nearest-neighbor GRAPH over the embedding corpus —
    per vector, its k most similar OTHER vectors with rank 1..k by
    (cos desc, nbr_id) — the substrate for graph-based semantic dedup
    sweeps, label propagation, and HNSW-style index seeding.

    Implemented as hard_negatives with label := id: the same-label
    exclusion degenerates to exact self-exclusion, so the k-NN graph
    inherits both tiers verbatim — the exact broadcast tile (the SQL
    oracle baseline, auto below `max_broadcast_rows`) and the IVF
    bucketed co-shuffle (the 100-TB scale path; with
    n_probe == n_centroids it reproduces the exact tier bitwise,
    pinned in tests). Emits (id, nbr_id, cos, rank).

    The id is mirrored into a shadow `_knn_lbl` column (duplicate
    column names break pandas selections inside the shared tiers)."""

    def shadow(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["_knn_lbl"] = b[id_col].to_numpy(dtype=np.int64)
        return b

    out = hard_negatives(
        ds.map_batches(shadow, batch_format="pandas"),
        k=k,
        id_col=id_col,
        vec_col=vec_col,
        label_col="_knn_lbl",
        tier=tier,
        max_broadcast_rows=max_broadcast_rows,
        n_centroids=n_centroids,
        n_probe=n_probe,
        num_partitions=num_partitions,
        block_rows=block_rows,
    )
    return out.rename(columns={"neg_id": "nbr_id"})


# ---------------------------------------------------------------------------
# product quantization (Jegou, Douze, Schmid 2011) — the codebook rung
# of the ANN ladder (brute / IVF / SRP / int8 / PQ): 8x-32x smaller
# vector storage with table-lookup (ADC) scoring, the standard layout
# for 100-TB-scale ANN corpora (IVF-PQ).
# ---------------------------------------------------------------------------


def pq_fit(
    ds: ray.data.Dataset,
    m: int = 4,
    n_codes: int = 16,
    sample_rows: int = 2048,
    iters: int = 8,
    vec_col: str = "embedding",
) -> np.ndarray:
    """Codebooks (m, n_codes, d/m): independent L2 k-means per
    subspace over a deterministic prefix sample of NORMALIZED vectors
    (limit(), not random_sample — reproducible, the train_centroids
    discipline). d must be divisible by m."""
    sample = np.stack(
        [np.asarray(r[vec_col], dtype=np.float64) for r in ds.limit(sample_rows).take_all()]
    )
    sample = _normalize_rows(sample)
    d = sample.shape[1]
    if d % m:
        raise ValueError(f"vector dim {d} not divisible by m={m}")
    sub = d // m
    # a sample smaller than n_codes yields fewer centroids — TRUNCATE
    # the codebook rather than zero-padding (phantom all-zero
    # centroids would win argmin for near-origin subvectors and
    # silently corrupt codes/ADC scores)
    n_codes = min(n_codes, len(sample))
    books = np.zeros((m, n_codes, sub))
    for j in range(m):
        s = sample[:, j * sub : (j + 1) * sub]
        cents = s[:: max(1, len(s) // n_codes)][:n_codes].copy()
        for _ in range(iters):
            d2 = ((s[:, None, :] - cents[None, :, :]) ** 2).sum(-1)
            a = d2.argmin(axis=1)
            for c in range(len(cents)):
                mem = s[a == c]
                if len(mem):
                    cents[c] = mem.mean(axis=0)
        books[j] = cents
    return books


def pq_encode(
    ds: ray.data.Dataset,
    codebooks: np.ndarray,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    keep_cols: tuple = (),
) -> ray.data.Dataset:
    """(id, codes[, *keep_cols]): nearest sub-centroid index per
    subspace over the normalized vector — m uint8 codes replace d
    floats (the compressed corpus tier). Broadcast codebooks, zero
    shuffle. `keep_cols` carries extra columns through (e.g. the IVF
    bucket for ivfpq_topk) so there is exactly ONE encoding path."""
    import pyarrow as pa

    bref = ray.put(codebooks)
    m, _, sub = codebooks.shape

    def enc(b: pd.DataFrame) -> pa.Table:
        books = _QUERY_CACHE.get(bref.hex())
        if books is None:
            books = _QUERY_CACHE[bref.hex()] = ray.get(bref)
        if len(b):
            mat = _normalize_rows(np.stack(b[vec_col].to_numpy()).astype(np.float64))
            codes = np.empty((len(b), m), dtype=np.uint8)
            for j in range(m):
                s = mat[:, j * sub : (j + 1) * sub]
                d2 = ((s[:, None, :] - books[j][None, :, :]) ** 2).sum(-1)
                codes[:, j] = d2.argmin(axis=1).astype(np.uint8)
        else:
            codes = np.empty((0, m), dtype=np.uint8)
        cols = {
            id_col: pa.array(b[id_col].to_numpy(dtype=np.int64), pa.int64()),
            "codes": pa.FixedSizeListArray.from_arrays(
                pa.array(codes.ravel(), pa.uint8()), m
            ),
        }
        for c in keep_cols:
            cols[c] = pa.array(b[c].to_numpy())
        return pa.table(cols)

    return ds.map_batches(enc, batch_format="pandas")


def pq_topk(
    codes: ray.data.Dataset,
    codebooks: np.ndarray,
    query: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
) -> pd.DataFrame:
    """Asymmetric-distance top-k over the PQ-compressed corpus:
    LUT[j][c] = q_j . codebook[j][c] computed ONCE per query, each
    block scores its rows with m table lookups + a sum (no float
    vector ever read), per-block partial top-k, driver merge — the
    brute_force_topk shape at 1/8th the bytes. Returns (id, cos_pq)
    sorted by (-cos_pq, id)."""
    q = np.asarray(query, dtype=np.float64)
    q = q / np.linalg.norm(q)
    m, n_codes, sub = codebooks.shape
    lut = np.stack([codebooks[j] @ q[j * sub : (j + 1) * sub] for j in range(m)])
    lref = ray.put(lut)

    def score(b) -> pd.DataFrame:
        t = _QUERY_CACHE.get(lref.hex())
        if t is None:
            t = _QUERY_CACHE[lref.hex()] = ray.get(lref)
        n = len(b)
        if not n:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"), "cos_pq": []})
        arr = b["codes"].combine_chunks()
        cd = arr.values.to_numpy(zero_copy_only=False).reshape(n, m)
        s = np.zeros(n)
        for j in range(m):
            s += t[j][cd[:, j]]
        out = pd.DataFrame(
            {id_col: b[id_col].to_numpy(zero_copy_only=False), "cos_pq": s}
        )
        return out.sort_values(["cos_pq", id_col], ascending=[False, True]).head(k)

    allp = codes.map_batches(score, batch_format="pyarrow").to_pandas()
    return (
        allp.sort_values(["cos_pq", id_col], ascending=[False, True], kind="stable")
        .head(k)
        .reset_index(drop=True)
    )


def ivfpq_topk(
    ds: ray.data.Dataset,
    query: np.ndarray,
    k: int = 10,
    n_centroids: int = 16,
    n_probe: int = 4,
    m: int = 16,
    n_codes: int = 64,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """IVF-PQ: the composed 100-TB ANN layout (Jegou 2011 §V) — coarse
    IVF centroids route each vector to one bucket, vectors are stored
    only as PQ codes, and a query scans just its `n_probe` nearest
    buckets with ADC table lookups. At scale this is the standard
    billion-vector architecture: bucket pruning cuts candidates
    n_probe/n_centroids-fold and PQ cuts bytes ~16-fold, so a scan
    touches ~0.4% of the raw corpus bytes here. Recall inherits BOTH
    documented boundaries (IVF probe misses + PQ distortion); with
    n_probe == n_centroids it equals pq_topk bitwise (pinned in
    tests)."""
    cents = train_centroids(ds, n_centroids=n_centroids, vec_col=vec_col)
    books = pq_fit(ds, m=m, n_codes=n_codes, vec_col=vec_col)
    bucketed = assign_buckets(ds, cents, vec_col=vec_col)
    codes = pq_encode(bucketed, books, id_col=id_col, vec_col=vec_col, keep_cols=("bucket",))
    m = books.shape[0]  # pq_fit may truncate n_codes, never m

    q = np.asarray(query, dtype=np.float64)
    qn = q / np.linalg.norm(q)
    probe = set(np.argsort(-(cents.astype(np.float64) @ qn))[:n_probe].tolist())
    sub = books.shape[2]
    lut = np.stack([books[j] @ qn[j * sub : (j + 1) * sub] for j in range(m)])
    lref = ray.put((lut, probe))

    def score(b) -> pd.DataFrame:
        cached = _QUERY_CACHE.get(("ivfpq", lref.hex()))
        if cached is None:
            cached = _QUERY_CACHE[("ivfpq", lref.hex())] = ray.get(lref)
        t, pr = cached
        n = len(b)
        if not n:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"), "cos_pq": []})
        keep = np.isin(b["bucket"].to_numpy(zero_copy_only=False), list(pr))
        b = b.filter(keep)
        n = len(b)
        if not n:
            return pd.DataFrame({id_col: pd.Series(dtype="int64"), "cos_pq": []})
        cd = b["codes"].combine_chunks().values.to_numpy(zero_copy_only=False).reshape(n, -1)
        s = np.zeros(n)
        for j in range(cd.shape[1]):
            s += t[j][cd[:, j]]
        out = pd.DataFrame(
            {id_col: b[id_col].to_numpy(zero_copy_only=False), "cos_pq": s}
        )
        return out.sort_values(["cos_pq", id_col], ascending=[False, True]).head(k)

    allp = codes.map_batches(score, batch_format="pyarrow").to_pandas()
    return (
        allp.sort_values(["cos_pq", id_col], ascending=[False, True], kind="stable")
        .head(k)
        .reset_index(drop=True)
    )
