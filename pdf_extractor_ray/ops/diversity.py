"""Diversity-aware selection over embedding columns: k-center
(farthest-point) corpus sampling and maximal-marginal-relevance
re-ranking.

These are the COVERAGE duals of the near-dup family: semantic_dedup /
embedding_neardup remove what is too close, while k-center picks a
budget of k documents that maximizes how well the selection covers
embedding space (minimax radius) — the classic seed-selection step
for curriculum subsets, eval-set construction and annotation budgets.
Greedy farthest-point traversal is the textbook 2-approximation for
metric k-center (Gonzalez 1985); the scale tier composes per-partition
greedy solutions, the composable-coreset construction of
Indyk/Mahdian/Mahabadi (public literature).

MMR (Carbonell & Goldstein 1998) re-ranks a retrieval pool by
lambda*sim(query, d) - (1-lambda)*max_{s in S} sim(d, s) so results
balance relevance against redundancy — the standard de-duplicated
retrieval surface over the brute/IVF top-k operators.

Determinism contract: every argmax breaks ties by ascending id; the
k-center seed is the corpus-minimum id (never an RNG draw), so both
operators are bit-reproducible across runs and partitionings.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import column_hash, hash_partition
from pdf_extractor_ray.ops.similarity import _normalize_rows, brute_force_topk


def _greedy_kcenter(
    ids: np.ndarray, mat: np.ndarray, k: int, seed_idx: int
) -> tuple[np.ndarray, np.ndarray]:
    """Plain in-memory greedy farthest-point: returns (selected ids,
    distance-at-selection per pick). mat rows must be L2-normalized;
    distance is cosine distance. Ties break by ascending id."""
    n = len(ids)
    k = min(k, n)
    sel = np.empty(k, dtype=np.int64)
    sel_dist = np.empty(k, dtype=np.float64)
    mind = np.full(n, np.inf)
    cur = seed_idx
    for r in range(k):
        sel[r] = ids[cur]
        sel_dist[r] = 0.0 if r == 0 else mind[cur]
        mind = np.minimum(mind, 1.0 - mat @ mat[cur])
        # next pick: max min-distance, ties by ascending id
        m = mind.max()
        if m <= 1e-15:
            # every remaining point is already covered (duplicate-heavy
            # corpus): stop early instead of reselecting chosen ids
            return sel[: r + 1], sel_dist[: r + 1]
        cand = np.flatnonzero(mind >= m - 1e-12)
        cur = cand[np.argmin(ids[cand])]
    return sel, sel_dist


def kcenter_sample(
    ds: ray.data.Dataset,
    k: int,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    tier: str = "auto",
    max_exact_rows: int = 200_000,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """k diverse rows as (rank, id, dist_at_selection): greedy
    farthest-point traversal under cosine distance, seeded at the
    minimum id.

    Two tiers:

    - ``exact`` (auto below `max_exact_rows`): k distributed passes.
      The slim (id, vec) projection materializes once; each round
      broadcasts the newest center (d floats via ray.put) and every
      block updates its own running min-distance column and emits a
      ONE-row partial (its argmax); the driver reduces block-count
      rows to pick round r+1's center. Driver traffic is O(k * blocks)
      scalars — the corpus never leaves the object store. This is the
      true Gonzalez 2-approximation, cost k linear passes.
    - ``coreset`` (auto above the cap): one shuffle on hash(id) mod P,
      one vectorized greedy pass per partition emitting k+1 local
      centers (a composable coreset), then one driver-side greedy over
      the <= P*(k+1) candidates. Two passes total; approximation
      factor 4 (2 from per-part greedy coresets x 2 from the final
      greedy) — the bound is pinned in tests against the exact tier.
    """
    slim = ds.select_columns([id_col, vec_col])
    if tier == "auto":
        tier = "exact" if slim.count() <= max_exact_rows else "coreset"

    if tier == "exact":
        # pin the vector dimension once so every block (including
        # empty ones) carries the same FixedSizeList schema
        dim = len(slim.take(1)[0][vec_col])

        def _mat_of(b: pa.Table) -> np.ndarray:
            if not len(b):
                return np.zeros((0, dim))
            arr = b["_vec"].combine_chunks()
            return arr.values.to_numpy(zero_copy_only=False).reshape(len(b), dim)

        # carry (id, normalized vec, running min-dist) as zero-copy
        # Arrow blocks (FixedSizeList vectors) through k rounds
        def prep(b: pd.DataFrame) -> pa.Table:
            if len(b):
                mat = _normalize_rows(np.stack(b[vec_col].to_numpy()).astype(np.float64))
            else:
                mat = np.zeros((0, dim))
            return pa.table(
                {
                    "_id": pa.array(b[id_col].to_numpy(dtype=np.int64), pa.int64()),
                    "_vec": pa.FixedSizeListArray.from_arrays(
                        pa.array(mat.ravel(), pa.float64()), dim
                    ),
                    "_mind": pa.array(np.full(len(b), np.inf), pa.float64()),
                }
            )

        cur = slim.map_batches(prep, batch_format="pandas").materialize()
        k = min(k, cur.count())
        seed_id = cur.min("_id")  # deterministic seed: corpus-minimum id

        sel_ids: list[int] = []
        sel_dists: list[float] = []
        # seed round: fetch the seed's vector with one distributed filter
        cvec = None
        for b in cur.map_batches(
            lambda b, cid=int(seed_id): b.filter(
                np.asarray(b["_id"].to_numpy(zero_copy_only=False) == cid)
            ),
            batch_format="pyarrow",
        ).iter_batches(batch_format="pyarrow"):
            if len(b):
                cvec = _mat_of(b)[0]
                break
        sel_ids.append(int(seed_id))
        sel_dists.append(0.0)

        for r in range(1, k):
            cref = ray.put(cvec)

            # fused pass: fold the newest center into each block's
            # running min-distance AND emit the block's one-row argmax
            # partial carrying its vector — one execution per round,
            # O(blocks) slim rows to the driver
            def update_and_argmax(b: pa.Table) -> pa.Table:
                c = ray.get(cref)
                mat = _mat_of(b)
                mind = np.minimum(b["_mind"].to_numpy(zero_copy_only=False), 1.0 - mat @ c)
                b = b.set_column(
                    b.schema.get_field_index("_mind"), "_mind", pa.array(mind, pa.float64())
                )
                return b

            cur = cur.map_batches(update_and_argmax, batch_format="pyarrow").materialize()

            def partial_argmax(b: pa.Table) -> pa.Table:
                ids_ = b["_id"].to_numpy(zero_copy_only=False)
                mind = b["_mind"].to_numpy(zero_copy_only=False)
                if not len(ids_):
                    return pa.table(
                        {
                            "_id": pa.array([], pa.int64()),
                            "_m": pa.array([], pa.float64()),
                            "_vec": pa.FixedSizeListArray.from_arrays(
                                pa.array([], pa.float64()), dim
                            ),
                        }
                    )
                m = mind.max()
                cand = np.flatnonzero(mind >= m - 1e-12)
                i = cand[np.argmin(ids_[cand])]
                return pa.table(
                    {
                        "_id": pa.array([ids_[i]], pa.int64()),
                        "_m": pa.array([mind[i]], pa.float64()),
                        "_vec": pa.FixedSizeListArray.from_arrays(
                            pa.array(_mat_of(b)[i], pa.float64()), dim
                        ),
                    }
                )

            parts = cur.map_batches(partial_argmax, batch_format="pyarrow").to_pandas()
            m = parts["_m"].max()
            if m <= 1e-15:
                break  # corpus fully covered — never reselect chosen ids
            cands_ = parts[parts["_m"] >= m - 1e-12]
            win = cands_.loc[cands_["_id"].idxmin()]
            sel_ids.append(int(win["_id"]))
            sel_dists.append(float(win["_m"]))
            cvec = np.asarray(win["_vec"], dtype=np.float64)
        return pd.DataFrame(
            {
                "rank": np.arange(len(sel_ids), dtype=np.int64),
                id_col: np.asarray(sel_ids, dtype=np.int64),
                "dist": np.asarray(sel_dists, dtype=np.float64),
            }
        )

    if tier != "coreset":
        raise ValueError(f"unknown tier: {tier}")

    # ---- coreset tier: per-partition greedy (k+1 centers), final greedy
    def local_greedy(b: pd.DataFrame) -> pd.DataFrame:
        ids = b[id_col].to_numpy(dtype=np.int64)
        mat = _normalize_rows(np.stack(b[vec_col].to_numpy()))
        seed = int(np.argmin(ids))
        sel, _ = _greedy_kcenter(ids, mat, k + 1, seed)
        keep = np.isin(ids, sel)
        return pd.DataFrame({id_col: ids[keep], vec_col: list(mat[keep])})

    schema = pa.schema([(id_col, pa.int64()), (vec_col, pa.list_(pa.float64()))])
    cands = hash_partition(
        slim, column_hash(id_col), num_partitions, local_greedy, schema
    ).to_pandas()
    ids = cands[id_col].to_numpy(dtype=np.int64)
    mat = np.stack(cands[vec_col].to_numpy())
    sel, dist = _greedy_kcenter(ids, mat, k, int(np.argmin(ids)))
    return pd.DataFrame(
        {"rank": np.arange(len(sel), dtype=np.int64), id_col: sel, "dist": dist}
    )


def mmr_rerank(
    ds: ray.data.Dataset,
    query_vec: np.ndarray,
    k: int = 10,
    lam: float = 0.7,
    pool: int = 100,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pd.DataFrame:
    """Diversity-aware top-k: retrieve a `pool`-sized candidate set
    with the distributed brute-force scorer (per-block partial top-k,
    no materialization), then run the O(pool^2) MMR greedy on the
    driver — bounded by `pool`, never by corpus size. Returns (rank,
    id, cos, mmr_score); lam=1.0 degenerates to plain top-k order
    (pinned in tests). Ties break by ascending id."""
    top = brute_force_topk(ds, query_vec, k=pool, id_col=id_col, vec_col=vec_col)
    # re-fetch the pool's vectors with a distributed filter (the
    # scorer ships only (id, cos) partials); pool is small by contract
    pool_ids = ray.put(set(int(i) for i in top[id_col]))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        pids = ray.get(pool_ids)
        return b[b[id_col].isin(pids)][[id_col, vec_col]]

    vecs = (
        ds.select_columns([id_col, vec_col])
        .map_batches(keep, batch_format="pandas")
        .to_pandas()
    )
    top = top[[id_col, "cos"]].merge(vecs, on=id_col, how="inner")
    top = top.sort_values(["cos", id_col], ascending=[False, True], kind="stable")
    ids = top[id_col].to_numpy(dtype=np.int64)
    sims = top["cos"].to_numpy(dtype=np.float64)
    mat = _normalize_rows(np.stack(top[vec_col].to_numpy()))
    n = len(ids)
    k = min(k, n)
    selected: list[int] = []
    out_rows = []
    max_red = np.zeros(n)  # max similarity to the selected set
    active = np.ones(n, dtype=bool)
    for r in range(k):
        score = lam * sims - (0.0 if r == 0 else (1.0 - lam)) * max_red
        score = np.where(active, score, -np.inf)
        m = score.max()
        cand = np.flatnonzero(score >= m - 1e-12)
        cur = cand[np.argmin(ids[cand])]
        out_rows.append((r, ids[cur], sims[cur], float(score[cur])))
        active[cur] = False
        max_red = np.maximum(max_red, mat @ mat[cur])
        selected.append(cur)
    return pd.DataFrame(
        out_rows, columns=["rank", id_col, "cos", "mmr_score"]
    ).astype({"rank": np.int64, id_col: np.int64})
