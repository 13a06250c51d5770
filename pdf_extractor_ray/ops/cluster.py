"""Distributed embedding clustering + semantic deduplication.

- kmeans_fit    : spherical k-means (Lloyd) where EVERY iteration is
  one streaming map_batches pass emitting per-batch partial sums — the
  only thing that ever reaches the driver is the k x d centroid table
  (k rows per block pre-combined inside each batch), so the fit
  streams 100 TB the same way it streams 100 MB.
- kmeans_assign : one broadcast-and-matmul pass adding the cluster id
  column (ray.put once, argmax per batch).
- semantic_dedup: SemDeDup-style near-duplicate pruning (Abbas et al.
  2023, arXiv:2303.09540): cluster the embedding space, then drop any
  row whose cosine to an EARLIER (lower-id) member of its own cluster
  meets the threshold. Clustering bounds the candidate set so the
  quadratic scan runs per cluster, never corpus-wide; within a cluster
  the scan is chunked upper-triangle tiles (same memory bound as
  ops/similarity.embedding_neardup_pairs). Precision is exact by
  construction (every drop is a verified true pair); recall misses
  only pairs straddling clusters — pytest pins a recall floor against
  the exact all-pairs baseline.

Spherical k-means (unit-normalized vectors, cosine assignment,
renormalized mean update) is the standard choice over embedding
columns; it is also what ops/similarity.train_centroids runs on its
driver-side sample — kmeans_fit is the distributed version of the
same update rule.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import co_shuffle, column_hash, hash_partition
from pdf_extractor_ray.ops.similarity import _normalize_rows, _QUERY_CACHE


def _init_centroids(
    ds: ray.data.Dataset, k: int, sample_rows: int, vec_col: str
) -> np.ndarray:
    """Deterministic stride-sample init (limit(), not random_sample —
    reproducible run to run), normalized."""
    sample = np.stack(
        [np.asarray(r[vec_col], dtype=np.float64) for r in ds.limit(sample_rows).take_all()]
    )
    sample = _normalize_rows(sample)
    cents = sample[:: max(1, len(sample) // k)][:k].copy()
    return cents


def _partial_sums(batch: pd.DataFrame, cref, k: int, vec_col: str) -> pd.DataFrame:
    """Assign each row to its nearest centroid (cosine argmax; first
    index wins ties) and emit ONE row per non-empty cluster:
    (cluster, n, sum) — the batch's complete contribution to the Lloyd
    update, pre-combined so the exchange carries k rows per block."""
    if len(batch) == 0:
        return pd.DataFrame(
            {
                "cluster": pd.Series(dtype="int64"),
                "n": pd.Series(dtype="int64"),
                "vsum": pd.Series(dtype="object"),
            }
        )
    c = _QUERY_CACHE.get(("km", cref.hex()))
    if c is None:
        c = _QUERY_CACHE[("km", cref.hex())] = ray.get(cref)
    m = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
    assign = (m @ c.T).argmax(axis=1)
    clusters, inv = np.unique(assign, return_inverse=True)
    sums = np.zeros((len(clusters), m.shape[1]), dtype=np.float64)
    np.add.at(sums, inv, m)
    counts = np.bincount(inv, minlength=len(clusters)).astype(np.int64)
    return pd.DataFrame(
        {
            "cluster": clusters.astype(np.int64),
            "n": counts,
            "vsum": list(sums),
        }
    )


def kmeans_fit(
    ds: ray.data.Dataset,
    k: int = 16,
    iters: int = 5,
    vec_col: str = "embedding",
    sample_rows: int = 2048,
) -> np.ndarray:
    """Distributed spherical k-means. Each Lloyd iteration is one
    streaming pass: broadcast centroids (ray.put), map_batches emits
    per-batch partial (cluster, n, sum) rows, and the driver reduces
    the AT MOST k x #blocks tiny partial table into the next k x d
    centroid matrix (renormalized mean; an empty cluster keeps its
    previous centroid). Nothing data-sized ever reaches the driver.

    Partial sums are float64 and the cross-block reduction is summed in
    cluster-then-block order via pandas groupby — deterministic for a
    fixed block layout; assignment ties break to the lowest cluster
    index (np.argmax first-wins)."""
    cents = _init_centroids(ds, k, sample_rows, vec_col)
    for _ in range(iters):
        cref = ray.put(cents)
        partials = ds.map_batches(
            _partial_sums,
            fn_kwargs={"cref": cref, "k": k, "vec_col": vec_col},
            batch_format="pandas",
            batch_size=4096,
        ).to_pandas()  # bounded: <= k rows per input block
        if partials.empty:
            break
        g = partials.groupby("cluster", sort=True)
        nxt = cents.copy()
        for cl, grp in g:
            v = np.sum(np.stack(grp["vsum"].to_numpy()), axis=0)
            nv = np.linalg.norm(v)
            if nv > 0:
                nxt[int(cl)] = v / nv
        cents = nxt
    return cents


def kmeans_assign(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    vec_col: str = "embedding",
    out_col: str = "cluster",
) -> ray.data.Dataset:
    """Add the nearest-centroid id column: broadcast once, one matmul
    argmax per batch."""
    cref = ray.put(np.asarray(centroids, dtype=np.float64))

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        if len(batch) == 0:
            batch[out_col] = pd.Series(dtype="int64")
            return batch
        c = _QUERY_CACHE.get(("km", cref.hex()))
        if c is None:
            c = _QUERY_CACHE[("km", cref.hex())] = ray.get(cref)
        m = _normalize_rows(np.stack(batch[vec_col].to_numpy()).astype(np.float64))
        batch[out_col] = (m @ c.T).argmax(axis=1).astype(np.int64)
        return batch

    return ds.map_batches(f, batch_format="pandas", batch_size=4096)


def semantic_dedup(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_clusters: int = 16,
    iters: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    block_rows: int = 2048,
) -> ray.data.Dataset:
    """SemDeDup-style semantic near-duplicate pruning: keep a row iff
    NO earlier (lower-id) member of its k-means cluster has cosine >=
    threshold to it. Returns (id_col, cluster) for the kept rows.

    Scale shape: kmeans_fit streams (see above); the per-cluster scan
    shuffles on the BOUNDED cluster id (n_clusters is the operator's
    own parameter — the embedding_neardup_pairs precedent, not a
    high-cardinality key) and runs chunked upper-triangle tiles, so
    per-group memory is O(block_rows x cluster_size), never the dense
    quadratic matrix. Every drop is a verified true pair (precision
    1.0); only cross-cluster pairs can be missed, which is the
    documented SemDeDup trade — size n_clusters ~ sqrt(N) to balance
    cluster size against straddle rate."""
    cents = kmeans_fit(ds, k=n_clusters, iters=iters, vec_col=vec_col)
    bucketed = kmeans_assign(ds, cents, vec_col=vec_col)

    def prune_cluster(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col, kind="stable")
        ids = g[id_col].to_numpy(dtype=np.int64)
        cl = g["cluster"].to_numpy(dtype=np.int64)
        n = len(g)
        m = _normalize_rows(np.stack(g[vec_col].to_numpy()).astype(np.float64))
        drop = np.zeros(n, dtype=bool)
        for i0 in range(0, n, block_rows):
            i1 = min(i0 + block_rows, n)
            s = m[i0:i1] @ m.T  # (tile, n) — bounded
            # row j (global i0+ii) is dropped if ANY strictly-earlier
            # column meets the threshold ("earlier" = lower id after the
            # sort; the drop test deliberately includes earlier rows that
            # are themselves dropped, making the verdict a pure pairwise
            # predicate — order-free and fully vectorized)
            earlier = np.arange(n)[None, :] < (np.arange(i0, i1)[:, None])
            drop[i0:i1] = ((s >= threshold) & earlier).any(axis=1)
        keep = ~drop
        return pd.DataFrame({id_col: ids[keep], "cluster": cl[keep]})

    # cluster ids run 0..n_clusters-1, so partition p holds cluster p alone
    schema = pa.schema([(id_col, pa.int64()), ("cluster", pa.int64())])
    return hash_partition(bucketed, "cluster", n_clusters, prune_cluster, schema)


# ---------------------------------------------------------------------------
# Distributed PCA (exact covariance accumulation + driver eigh)
# ---------------------------------------------------------------------------


def pca_fit(
    ds: ray.data.Dataset,
    n_components: int = 8,
    vec_col: str = "embedding",
) -> dict:
    """Exact distributed PCA fit over an embedding column: every batch
    contributes its complete (count, sum, X^T X) moment triple — d x d
    floats regardless of batch row count — and the driver assembles
    the covariance and eigendecomposes it (numpy eigh; d is the
    embedding width, tens to low thousands, so the d x d solve is
    trivial next to the corpus scan). The classic one-pass moments
    formulation: cov = (X^T X - n * mean mean^T) / (n - 1). Exact up
    to float summation order; eigenvectors' SIGNS are canonicalized
    (largest-|coordinate| entry made positive) so the fit is stable
    run to run.

    Returns {"mean": (d,), "components": (k, d) rows = top components,
    "explained_var": (k,), "n": int}. The moment exchange carries ONE
    (d + d^2)-float row per block — at 100 TB that is the read
    bandwidth and nothing else."""

    def moments(batch: pd.DataFrame) -> pd.DataFrame:
        m = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        return pd.DataFrame(
            {
                "n": [len(m)],
                "vsum": [m.sum(axis=0)],
                "xtx": [(m.T @ m).reshape(-1)],
            }
        )

    parts = ds.map_batches(moments, batch_format="pandas").take_all()
    n = int(sum(p["n"] for p in parts))
    if n < 2:
        raise ValueError("pca_fit needs at least 2 rows")
    vsum = np.sum([p["vsum"] for p in parts], axis=0)
    xtx = np.sum([p["xtx"] for p in parts], axis=0)
    d = len(vsum)
    mean = vsum / n
    cov = (xtx.reshape(d, d) - n * np.outer(mean, mean)) / (n - 1)
    evals, evecs = np.linalg.eigh(cov)  # ascending
    order = np.argsort(evals)[::-1][:n_components]
    comps = evecs[:, order].T  # (k, d)
    # canonical sign: the largest-|coordinate| entry of each component
    # is positive (eigh's sign is arbitrary; pin it for reproducibility)
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return {
        "mean": mean,
        "components": comps,
        "explained_var": evals[order],
        "n": n,
    }


def pca_transform(
    ds: ray.data.Dataset,
    model: dict,
    vec_col: str = "embedding",
    out_col: str = "pca",
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Project each embedding onto the fitted components (one
    broadcast of the (k, d) model via ray.put, shuffle-free batch
    matmuls) — the dimensionality-reduction stage ahead of ANN / IVF /
    clustering when d is large. Emits keep_cols + out_col (list of
    k float64)."""
    ref = ray.put({"mean": model["mean"], "components": model["components"]})
    keep = keep_cols

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        key = ("pca", ref.hex())
        m = _QUERY_CACHE.get(key)
        if m is None:
            m = _QUERY_CACHE[key] = ray.get(ref)
        x = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        proj = (x - m["mean"]) @ m["components"].T
        out = batch[keep].copy() if keep else batch.drop(columns=[vec_col]).copy()
        out[out_col] = list(proj)
        return out

    return ds.map_batches(f, batch_format="pandas")


def label_centroids(
    ds: ray.data.Dataset,
    label_col: str = "label",
    vec_col: str = "embedding",
) -> ray.data.Dataset:
    """Per-label mean embedding — the class PROTOTYPE table
    (nearest-class-mean classification, Snell et al. 2017 prototypical
    networks; also the seed for per-class SemDeDup and drift
    monitoring). Each batch reduces to (label, dim, partial sum,
    partial n) scalar rows — one row per label x dimension per block,
    never one per vector — and grouped_sum finishes on hash(label,dim)
    partitions; the division happens on the reduced table. Emits
    (label, i, centroid) with i 1-based to match list indexing in the
    SQL twin."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = np.stack([np.asarray(v, dtype=np.float64) for v in b[vec_col]])
        labels = b[label_col].to_numpy()
        frames = []
        for lab in np.unique(labels):
            sel = m[labels == lab]
            frames.append(
                pd.DataFrame(
                    {
                        "label": np.repeat(lab, m.shape[1]),
                        "i": np.arange(1, m.shape[1] + 1, dtype=np.int64),
                        "sv": sel.sum(axis=0),
                        "nv": np.full(m.shape[1], len(sel), dtype=np.int64),
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    agg = grouped_sum(
        ds.map_batches(partial, batch_format="pandas"),
        ["label", "i"],
        ["sv", "nv"],
        counts=False,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "label": b["label"],
                "i": b["i"].to_numpy(dtype=np.int64),
                "centroid": b["sum_sv"].to_numpy(dtype=np.float64)
                / b["sum_nv"].to_numpy(dtype=np.float64),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def cluster_topics(
    emb: ray.data.Dataset,
    docs: ray.data.Dataset,
    n_clusters: int = 8,
    top_terms: int = 10,
    id_col: str = "vec_id",
    doc_id_col: str = "doc_id",
    text_col: str = "text",
    vec_col: str = "embedding",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Topic labeling of embedding clusters with class-based TF-IDF
    (the BERTopic formulation, Grootendorst 2022): k-means the
    embedding corpus, pool each cluster's documents into one
    pseudo-document, and rank terms by

        ctfidf(t, c) = tf_{t,c} * ln(1 + A / f_t)

    where tf_{t,c} is t's count inside cluster c, f_t its count
    across ALL clusters, and A the average word count per cluster —
    the distinguishing-term score that makes opaque clusters
    human-auditable (what IS this 4 TB of near-duplicates?).

    Scale shape: cluster assignments join the text corpus via one
    co_shuffle on hash(id) mod P (never a Ray native join — see
    CLAUDE.md); per-partition batches pre-aggregate (cluster, term)
    counts so the term exchange is distinct-term-bounded; f_t reduces
    per term partition (each term's rows co-locate by construction);
    A folds from k scalar partials on the driver; each partition
    prunes to its local per-cluster top-`top_terms` so the driver
    merges at most P * k * top_terms candidate rows. The document
    corpus streams once; no vocabulary ever materializes whole.

    Emits (cluster, rank, term, score, tf, ft) with rank 1..top_terms
    by (score desc, term asc). Rows-only semantics (k-means is
    iterative); the c-TF-IDF algebra is pytest-pinned on planted
    vocabulary clusters."""
    cents = kmeans_fit(emb, k=n_clusters, vec_col=vec_col)
    assigned = kmeans_assign(emb, cents, vec_col=vec_col).select_columns(
        [id_col, "cluster"]
    )

    # --- co-shuffle cluster ids with document text on hash(id) mod P
    def int64_hash(col: str):
        # both id columns hash as int64, so ids of differing dtypes meet
        return lambda t: pd.util.hash_array(t.column(col).to_numpy().astype(np.int64))

    def term_counts(a: pd.DataFrame, d: pd.DataFrame) -> pd.DataFrame | None:
        if d.empty:  # no document text in this partition (or at all)
            return None
        by_id = pd.Series(a["cluster"].to_numpy(dtype=np.int64), index=a[id_col].to_numpy(dtype=np.int64))
        cl = pd.Series(d[doc_id_col].to_numpy(dtype=np.int64)).map(by_id)
        keep = cl.notna().to_numpy()
        cl = cl[keep].to_numpy(dtype=np.int64)
        terms = d.loc[keep, text_col].astype(str).str.split()
        nwords = terms.str.len().to_numpy(dtype=np.int64)
        nz = nwords > 0  # empty texts explode to a NaN row: skip them
        ex = terms[nz].explode().rename("term")
        ex_cl = np.repeat(cl[nz], nwords[nz])
        return (
            pd.DataFrame({"cluster": ex_cl, "term": ex.to_numpy(dtype=object)})
            .dropna()
            .groupby(["cluster", "term"], sort=False)
            .size()
            .reset_index(name="tf")
        )

    counts = co_shuffle(
        assigned,
        docs.select_columns([doc_id_col, text_col]),
        int64_hash(id_col),
        int64_hash(doc_id_col),
        num_partitions,
        term_counts,
        pa.schema([("cluster", pa.int64()), ("term", pa.string()), ("tf", pa.int64())]),
    ).materialize()  # consumed twice (A totals + scoring); slim (cluster, term) rows

    # A = average words per cluster: k scalar partials on the driver
    totals = counts.map_batches(
        lambda b: b.groupby("cluster", sort=False)["tf"].sum().reset_index(),
        batch_format="pandas",
    ).to_pandas()
    if totals.empty:
        return pd.DataFrame(
            {
                "cluster": pd.Series(dtype="int64"),
                "rank": pd.Series(dtype="int64"),
                "term": pd.Series(dtype="object"),
                "score": pd.Series(dtype="float64"),
                "tf": pd.Series(dtype="int64"),
                "ft": pd.Series(dtype="int64"),
            }
        )
    per_cluster = totals.groupby("cluster")["tf"].sum()
    a_avg = float(per_cluster.sum()) / float(len(per_cluster))

    def score_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.groupby(["cluster", "term"], sort=False)["tf"].sum().reset_index()
        ft = g.groupby("term", sort=False)["tf"].transform("sum")
        g["ft"] = ft.to_numpy(dtype=np.int64)
        g["score"] = g["tf"].to_numpy(dtype=np.float64) * np.log1p(
            a_avg / g["ft"].to_numpy(dtype=np.float64)
        )
        g = g.sort_values(
            ["cluster", "score", "term"], ascending=[True, False, True], kind="stable"
        )
        return g.groupby("cluster", sort=False).head(top_terms)

    cand = hash_partition(
        counts,
        column_hash("term"),
        num_partitions,
        score_part,
        pa.schema(
            [
                ("cluster", pa.int64()),
                ("term", pa.string()),
                ("score", pa.float64()),
                ("tf", pa.int64()),
                ("ft", pa.int64()),
            ]
        ),
    ).to_pandas()
    cand = cand.sort_values(
        ["cluster", "score", "term"], ascending=[True, False, True], kind="stable"
    )
    out = cand.groupby("cluster", sort=True).head(top_terms).reset_index(drop=True)
    out["rank"] = out.groupby("cluster", sort=False).cumcount() + 1
    out["cluster"] = out["cluster"].astype("int64")
    out["rank"] = out["rank"].astype("int64")
    out["tf"] = out["tf"].astype("int64")
    out["ft"] = out["ft"].astype("int64")
    return out[["cluster", "rank", "term", "score", "tf", "ft"]]


def simplified_silhouette(
    ds: ray.data.Dataset,
    centroids: np.ndarray,
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Clustering quality per cluster — the SIMPLIFIED silhouette
    (Hruschka et al. 2004): for each vector, a = cosine distance to
    its own (nearest) centroid, b = distance to the nearest OTHER
    centroid, s = (b - a) / max(a, b) in [-1, 1]. Unlike the classic
    silhouette it needs no pairwise pass — one shuffle-free
    map_batches against broadcast centroids emits per-batch
    (cluster, n, sum_s) partials; the driver reduces k rows. The
    evaluation rung of the k-means family (fit / assign /
    semantic_dedup / topics / outliers).

    Returns (cluster, n, mean_s) plus an `overall` row (cluster = -1,
    corpus mean)."""
    cref = ray.put(_normalize_rows(centroids.astype(np.float64)))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return pd.DataFrame(
                {
                    "cluster": pd.Series(dtype="int32"),
                    "n": pd.Series(dtype="int64"),
                    "sum_s": pd.Series(dtype="float64"),
                }
            )
        c = ray.get(cref)
        mat = _normalize_rows(np.stack(b[vec_col].to_numpy()).astype(np.float64))
        d = 1.0 - mat @ c.T  # (n, k) cosine distances
        own = d.argmin(axis=1)
        a = d[np.arange(len(d)), own]
        d[np.arange(len(d)), own] = np.inf
        bb = d.min(axis=1)
        denom = np.maximum(a, bb)
        s = np.where(denom > 0, (bb - a) / np.where(denom > 0, denom, 1.0), 0.0)
        out = pd.DataFrame({"cluster": own.astype(np.int32), "s": s})
        g = out.groupby("cluster", as_index=False, sort=True).agg(
            n=("s", "size"), sum_s=("s", "sum")
        )
        g["n"] = g["n"].astype("int64")
        return g

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    agg = parts.groupby("cluster", as_index=False, sort=True).agg(
        n=("n", "sum"), sum_s=("sum_s", "sum")
    )
    agg["mean_s"] = agg["sum_s"].to_numpy() / agg["n"].to_numpy()
    overall = pd.DataFrame(
        {
            "cluster": np.array([-1], dtype=np.int32),
            "n": [int(agg["n"].sum())],
            "mean_s": [float(agg["sum_s"].sum() / agg["n"].sum())],
        }
    )
    out = pd.concat(
        [agg[["cluster", "n", "mean_s"]], overall], ignore_index=True
    ).astype({"cluster": "int32", "n": "int64"})
    return out
