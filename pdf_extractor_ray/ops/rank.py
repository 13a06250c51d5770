"""Distributed global ranking / ordered selection.

`global_rank` assigns the 1-based SQL `row_number() OVER (ORDER BY
...)` to every row without ever sorting on the driver — the primitive
behind quality-score selection ("keep the top X% of documents by LM
score"), curriculum ordering, and ranked exports:

1. **Boundary sample** — each batch contributes a few evenly-strided
   values of the leading sort key (bounded by sample_per_block x
   #blocks, the only data-dependent driver collect); their quantiles
   become num_partitions-1 range boundaries.
2. **Count pass** — one map_batches finds each row's range by
   searchsorted (values equal to a boundary consistently go right,
   so equal leading keys NEVER straddle ranges) and a grouped_sum
   reduces to one row per range; the driver prefix-sums those <=P
   counts into range rank offsets (tiny, broadcast as a task arg).
3. **Rank pass** — rows shuffle on the range id (`ops/shuffle.py`
   with one partition per range); each partition sorts locally by the
   FULL key list and adds offset + local position.

Skewed leading keys make partitions ragged, never wrong: equal values
co-locate by construction and each partition's offset is exact. Ties
in the full key list get an arbitrary-but-deterministic order within a
partition — pass a unique id as the last key for total order (exactly
like SQL row_number needs a deterministic ORDER BY).

The input is executed once per pass (sample, count, rank). For a
cheap-to-recompute upstream that is the right trade at scale; when the
upstream is expensive (an LM-score table), `.materialize()` it first —
the score table is one slim row per document, the natural artifact a
training pipeline persists anyway.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.shuffle import column_hash, hash_partition


def _boundaries(
    ds: ray.data.Dataset, key: str, num_partitions: int, sample_per_block: int
) -> np.ndarray:
    def sample(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            return pd.DataFrame({key: batch[key] if key in batch.columns else []})
        stride = max(1, len(batch) // sample_per_block)
        return pd.DataFrame({key: batch[key].iloc[::stride].head(sample_per_block)})

    vals = ds.map_batches(sample, batch_format="pandas").to_pandas()[key].to_numpy()
    if len(vals) == 0:
        return np.array([])
    vals = np.sort(vals, kind="stable")
    cuts = [int(i * len(vals) / num_partitions) for i in range(1, num_partitions)]
    return np.unique(vals[cuts])


def _range_ids(bnds: np.ndarray, v) -> np.ndarray:
    return np.searchsorted(bnds, v, side="right").astype(np.int64)


def _range_starts(
    ds: ray.data.Dataset, bnds: np.ndarray, lead: str, lead_asc: bool, weight_col: str | None
) -> tuple[np.ndarray, int]:
    """Per range id, the total weight (row count when `weight_col` is
    None) of the ranges before it in processing order, and the grand
    total: one partial row per (block, range), reduced by grouped_sum."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def local_sums(b: pd.DataFrame) -> pd.DataFrame:
        w = 1 if weight_col is None else b[weight_col]
        g = pd.Series(w, index=b.index).groupby(_range_ids(bnds, b[lead].to_numpy())).sum()
        return pd.DataFrame({"_range": g.index.to_numpy(dtype=np.int64), "w": g.to_numpy().astype("int64")})

    totals = grouped_sum(
        ds.map_batches(local_sums, batch_format="pandas"), ["_range"], ["w"], counts=False
    ).to_pandas()  # <= num_partitions rows
    totals = totals.sort_values("_range", ascending=lead_asc)  # processing order
    w = totals["sum_w"].to_numpy(dtype=np.int64)
    starts = np.zeros(len(bnds) + 1, dtype=np.int64)
    starts[totals["_range"].to_numpy(dtype=np.int64)] = np.cumsum(w) - w
    return starts, int(w.sum())


def _by_range(ds: ray.data.Dataset, bnds: np.ndarray, lead: str, fn) -> ray.data.Dataset:
    """fn over each range's rows: the range id is the key hash and the
    partition count exceeds the largest id, so a partition is one range."""

    def key(t: pa.Table) -> np.ndarray:
        return _range_ids(bnds, t.column(lead).to_pandas().to_numpy())

    return hash_partition(ds, key, len(bnds) + 1, fn, None)


def global_rank(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    ascending: Sequence[bool] | None = None,
    keep_cols: Sequence[str] | None = None,
    rank_col: str = "rank",
    num_partitions: int = 32,
    sample_per_block: int = 8,
    top_n: int | None = None,
    top_frac: float | None = None,
) -> ray.data.Dataset:
    """SQL `row_number() OVER (ORDER BY keys...)` as a Ray Dataset op
    (see module docstring for the three-pass shape). With `top_n` (or
    `top_frac`, resolved against the count pass's exact total — no
    extra job), only rows with rank <= the cutoff are emitted —
    partitions entirely past it are dropped by their offset alone,
    before sorting a row."""
    keys = list(keys)
    asc = list(ascending) if ascending is not None else [True] * len(keys)
    lead, lead_asc = keys[0], asc[0]
    cols = list(keep_cols) if keep_cols is not None else None

    bnds = _boundaries(ds, lead, num_partitions, sample_per_block)
    starts, total = _range_starts(ds, bnds, lead, lead_asc, None)
    cap = total
    if top_frac is not None:
        cap = min(cap, int(math.ceil(top_frac * total)))
    if top_n is not None:
        cap = min(cap, top_n)

    def rank_partition(g: pd.DataFrame) -> pd.DataFrame:
        start = starts[_range_ids(bnds, g[lead].to_numpy())]  # one value: one range
        g = g[start < cap]  # a partition past the cutoff goes before its sort
        g = g.sort_values(keys, ascending=asc, kind="stable")
        g[rank_col] = start[: len(g)] + np.arange(1, len(g) + 1, dtype=np.int64)
        g = g[g[rank_col] <= cap]
        return g[[*cols, rank_col]] if cols is not None else g

    return _by_range(ds, bnds, lead, rank_partition)


def grouped_percent_rank(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    id_col: str,
    out_col: str = "pct_rank",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """SQL ``percent_rank() OVER (PARTITION BY group ORDER BY value,
    id)`` — the cross-group score normalizer (percentile-normalize
    quality scores within each language/source so one group's score
    scale doesn't dominate a blended selection).

    Shape: ONE global range-partitioned rank over (group, value, id)
    — global_rank's three-pass machinery with the group as the lead
    sort key, so a group never straddles partitions by construction —
    then a tiny (group -> min rank, count) exchange (k rows, k =
    group cardinality: languages / sources, bounded by design)
    broadcast back into a shuffle-free pass computing
    pct = (rank - min_rank) / (n - 1). Both engines perform the same
    single int->double division, so the doubles match bitwise."""
    ranked = global_rank(
        ds,
        [group_col, value_col, id_col],
        keep_cols=[group_col, value_col, id_col],
        rank_col="_gr",
        num_partitions=num_partitions,
    ).materialize()  # consumed twice (stats pass + attach pass): pin
    # the slim ranked rows once instead of re-running the three-pass
    # rank machinery and the whole upstream per consumer

    def local_stats(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or group_col not in b.columns:
            return pd.DataFrame(
                {
                    group_col: pd.Series(dtype="object"),
                    "mn": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
        g = b.groupby(group_col, sort=False)["_gr"].agg(["min", "size"])
        return pd.DataFrame(
            {
                group_col: g.index.to_numpy(),
                "mn": g["min"].to_numpy(dtype="int64"),
                "n": g["size"].to_numpy(dtype="int64"),
            }
        )

    stats = ranked.map_batches(local_stats, batch_format="pandas").to_pandas()
    agg = stats.groupby(group_col).agg(mn=("mn", "min"), n=("n", "sum"))
    mins = agg["mn"].to_dict()
    ns = agg["n"].to_dict()

    def attach(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or "_gr" not in b.columns:
            return pd.DataFrame(
                {
                    group_col: pd.Series(dtype="object"),
                    value_col: pd.Series(dtype="int64"),
                    id_col: pd.Series(dtype="int64"),
                    out_col: pd.Series(dtype="float64"),
                }
            )
        mn = b[group_col].map(mins).to_numpy(dtype="int64")
        n = b[group_col].map(ns).to_numpy(dtype="int64")
        num = (b["_gr"].to_numpy(dtype="int64") - mn).astype("float64")
        den = np.maximum(n - 1, 1).astype("float64")
        out = b[[group_col, value_col, id_col]].copy()
        out[out_col] = num / den
        return out

    return ranked.map_batches(attach, batch_format="pandas")


def global_prefix_sum(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    weight_col: str,
    ascending: Sequence[bool] | None = None,
    keep_cols: Sequence[str] | None = None,
    out_col: str = "offset",
    num_partitions: int = 32,
    sample_per_block: int = 8,
) -> ray.data.Dataset:
    """EXCLUSIVE running total of weight_col in the global ORDER BY
    keys order — SQL `sum(w) OVER (ORDER BY keys ROWS UNBOUNDED
    PRECEDING) - w` — with the same three-pass range-partition shape
    as global_rank: boundary sample on the leading key, a weight-sum
    pass whose <= P partition totals the driver prefix-sums into
    partition offsets, then a per-partition sort + cumsum. The
    distributed-scan primitive behind sequence packing (global token
    offsets), byte-offset manifests, and curriculum schedules. Pass a
    unique id as the last key for a total order, exactly like
    global_rank."""
    keys = list(keys)
    asc = list(ascending) if ascending is not None else [True] * len(keys)
    lead, lead_asc = keys[0], asc[0]
    cols = list(keep_cols) if keep_cols is not None else None

    bnds = _boundaries(ds, lead, num_partitions, sample_per_block)
    starts, _ = _range_starts(ds, bnds, lead, lead_asc, weight_col)

    def scan_partition(g: pd.DataFrame) -> pd.DataFrame:
        start = starts[_range_ids(bnds, g[lead].to_numpy())]  # one value: one range
        g = g.sort_values(keys, ascending=asc, kind="stable")
        w = g[weight_col].to_numpy().astype(np.int64)
        g[out_col] = start + np.cumsum(w) - w
        return g[[*cols, out_col]] if cols is not None else g

    return _by_range(ds, bnds, lead, scan_partition)


def select_top_frac(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    ascending: Sequence[bool],
    frac: float,
    keep_cols: Sequence[str] | None = None,
    rank_col: str = "rank",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Keep the best ceil(frac * N) rows under the given order — the
    quality-selection pass (CCNet keeps the best-perplexity fraction of
    each shard; Rae et al. 2021 filter on quality scores). N comes from
    the count pass, so no extra job runs; the cutoff is exact, not a
    per-partition approximation. Input is executed per pass —
    materialize expensive upstreams first (see module docstring)."""
    return global_rank(
        ds,
        keys,
        ascending,
        keep_cols=keep_cols,
        rank_col=rank_col,
        num_partitions=num_partitions,
        top_frac=frac,
    )


def select_to_budget(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    ascending: Sequence[bool],
    weight_col: str,
    budget: int,
    keep_cols: Sequence[str] | None = None,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Greedy budgeted selection: keep the best PREFIX of the global
    (keys, ascending) order whose cumulative `weight_col` fits
    `budget` — the fill-the-training-budget-with-the-best-documents
    pass (a token-budgeted variant of select_top_frac: CCNet keeps a
    fraction, a training run keeps a token count). A row is kept iff
    it fits ENTIRELY (inclusive running total <= budget; the
    straddling row is dropped) — SQL
    ``QUALIFY sum(w) OVER (ORDER BY keys ROWS UNBOUNDED PRECEDING) <=
    budget``.

    Shape: global_prefix_sum's three-pass range partition (boundary
    sample, <= P partition totals to the driver, per-partition sort +
    cumsum) followed by a shuffle-free filter scan — weights stay
    int64-exact, so the cutoff is deterministic. Pass a unique id as
    the last key for a total order."""
    cols = list(keep_cols) if keep_cols is not None else None
    inner = None if cols is None else list(dict.fromkeys([*cols, weight_col]))
    pref = global_prefix_sum(
        ds, keys, weight_col, ascending,
        keep_cols=inner, out_col="_off", num_partitions=num_partitions,
    )

    def cut(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or "_off" not in b.columns:
            # derive the empty frame from the REAL batch schema — a
            # hard-coded int64 empty conflicts at concat time when a
            # keep column is a string or float (ADVICE r4)
            empty = b.drop(columns=["_off"], errors="ignore").iloc[0:0]
            if cols is not None:
                present = [c for c in cols if c in empty.columns]
                if len(present) == len(cols):
                    return empty[cols]
                return pd.DataFrame({c: pd.Series(dtype="object") for c in cols})
            return empty
        fits = b["_off"].to_numpy(dtype=np.int64) + b[weight_col].to_numpy(dtype=np.int64) <= budget
        out = b[fits].drop(columns=["_off"])
        return out[cols] if cols is not None else out

    return pref.map_batches(cut, batch_format="pandas")


def select_to_budget_per_group(
    ds: ray.data.Dataset,
    group_col: str,
    keys: Sequence[str],
    ascending: Sequence[bool],
    weight_col: str,
    budget: int | dict,
    keep_cols: Sequence[str] | None = None,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Greedy budgeted selection WITHIN each group: per group, keep
    the best prefix of the (keys, ascending) order whose inclusive
    cumulative `weight_col` fits that group's budget — "fill each
    language's token budget with its best documents", the per-group
    form of select_to_budget. `budget` is a scalar or a
    {group: budget} dict (missing groups keep nothing). SQL:
    ``QUALIFY sum(w) OVER (PARTITION BY group ORDER BY keys ROWS
    UNBOUNDED PRECEDING) <= budget``.

    Shape: rows co-shuffle on hash(group) mod P (each group lands
    whole in one partition at ANY group cardinality — the sessionize
    discipline, never per-group map_groups); one vectorized pass per
    partition sorts by (group, keys), cumsums int64-exact weights per
    group, and filters. Pass a unique id as the last key for a total
    order."""
    cols = list(keep_cols) if keep_cols is not None else None
    bmap = budget if isinstance(budget, dict) else None
    bscalar = int(budget) if not isinstance(budget, dict) else 0

    def cut(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            [group_col, *keys], ascending=[True, *ascending], kind="stable"
        )
        w = g[weight_col].to_numpy(dtype=np.int64)
        cum = pd.Series(w).groupby(g[group_col].to_numpy(), sort=False).cumsum().to_numpy()
        if bmap is not None:
            caps = g[group_col].map(bmap).fillna(0).to_numpy(dtype=np.int64)
        else:
            caps = np.full(len(g), bscalar, dtype=np.int64)
        g = g[cum <= caps]
        return g[cols] if cols is not None else g

    return hash_partition(ds, column_hash(group_col), num_partitions, cut, None)


def gini_coefficient(
    ds: ray.data.Dataset,
    value_col: str,
    id_col: str,
    num_partitions: int = 32,
) -> float:
    """Exact Gini coefficient of a non-negative value column — the
    corpus-concentration number (how dominated is the corpus by its
    biggest domains/sources?) every crawl-balance review reports:

        G = (2 * sum_i i * x_(i)) / (n * sum x) - (n + 1) / n

    with x sorted ascending and i the 1-based global rank. Equal
    values commute inside the rank-weighted sum, so any total order
    over ties gives the same G; ranks come from the range-partition
    global_rank (no driver sort), and the two weighted sums reduce
    from per-block partials. The slim (value, id) projection is
    materialized once — global_rank executes its input three times,
    and gini callers often feed it a shuffle (docs-per-source counts)
    that should not re-run per pass. Returns a driver-side float in
    [0, 1)."""
    ds = ds.select_columns([value_col, id_col]).materialize()  # slim
    ranked = global_rank(
        ds,
        [value_col, id_col],
        ascending=[True, True],
        keep_cols=[value_col],
        rank_col="_i",
        num_partitions=num_partitions,
    )

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b[value_col].to_numpy(dtype="float64")
        i = b["_i"].to_numpy(dtype="float64")
        return pd.DataFrame(
            {"ix": [float((i * x).sum())], "x": [float(x.sum())], "n": [len(b)]}
        )

    parts = ranked.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    total = float(parts["x"].sum())
    if n == 0 or total == 0.0:
        return 0.0
    return (2.0 * float(parts["ix"].sum())) / (n * total) - (n + 1.0) / n


def percentile_blend(
    ds: ray.data.Dataset,
    cols: Sequence[str],
    weights: Sequence[float],
    id_col: str = "doc_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Quality-signal ENSEMBLE via percentile ranks: normalize each
    signal column to its global percentile ((rank - 1) / (n - 1) with
    rank = row_number over (signal, id) — scale-free, outlier-immune)
    and blend them with fixed weights into one composite score — the
    way multi-signal quality filters combine incommensurable signals
    (an LM logprob, a length, a repetition ratio) without trusting any
    signal's units.

    Shape: one range-partition global_rank per signal (no driver
    sort), then the k slim (id, signal-index, pct) tables union and
    co-shuffle ONCE on hash(id) mod P where the weighted sum reduces
    per doc in signal-index order (deterministic float sum). The slim
    (id, signals) projection is materialized ONCE up front — each
    global_rank executes its input three times (sample/count/rank),
    so k signals would otherwise re-run the caller's signal
    computation 3k times (measured 9.9 s -> ~6 s on the sf0.1 blend
    query whose upstream splits every text). Emits
    (id_col, pct_<col>..., blend_score)."""
    cols = list(cols)
    w = np.asarray(list(weights), dtype="float64")
    if len(w) != len(cols):
        raise ValueError("weights must match cols")
    wsum = float(w.sum())
    ds = ds.select_columns([id_col, *cols]).materialize()  # slim: id + k scalars
    n = ds.count()
    denom = float(max(n - 1, 1))

    slims = []
    for j, c in enumerate(cols):
        ranked = global_rank(
            ds.select_columns([id_col, c]),
            [c, id_col],
            ascending=[True, True],
            keep_cols=[id_col],
            rank_col="_r",
            num_partitions=num_partitions,
        )

        def proj(b: pd.DataFrame, _j=j) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    id_col: b[id_col].to_numpy(dtype=np.int64),
                    "_j": np.full(len(b), _j, dtype=np.int64),
                    "_pct": (b["_r"].to_numpy(dtype="float64") - 1.0) / denom,
                }
            )

        slims.append(ranked.map_batches(proj, batch_format="pandas"))

    k = len(cols)

    def blend(g: pd.DataFrame) -> pd.DataFrame:
        wide = g.pivot_table(index=id_col, columns="_j", values="_pct", aggfunc="first")
        wide = wide.dropna()  # every doc must carry all k signals
        score = np.zeros(len(wide), dtype="float64")
        for j in range(k):  # fixed signal order -> deterministic sum
            score += w[j] * wide[j].to_numpy(dtype="float64")
        out = pd.DataFrame({id_col: wide.index.to_numpy(dtype=np.int64)})
        for j, c in enumerate(cols):
            out[f"pct_{c}"] = wide[j].to_numpy(dtype="float64")
        out["blend_score"] = score / wsum
        return out

    schema = pa.schema(
        [(id_col, pa.int64()), *[(f"pct_{c}", pa.float64()) for c in cols], ("blend_score", pa.float64())]
    )
    return hash_partition(slims[0].union(*slims[1:]), id_col, num_partitions, blend, schema)


def shard_binpack(
    ds: ray.data.Dataset,
    weight_col: str = "n_chars",
    id_col: str = "doc_id",
    num_shards: int = 8,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Weight-balanced shard plan via SERPENTINE rank assignment: rank
    every row by (weight DESC, id) with the range-partitioned
    global_rank (no driver sort), then deal ranks boustrophedon across
    shards — rank r goes to shard r0 if r0 < S else 2S-1-r0, where
    r0 = (r-1) mod 2S. Each shard gets one heavy and one light row per
    2S-row window, so shard token totals track each other to within
    one document — the classic deterministic alternative to greedy LPT
    bin packing (LPT needs a sequential heap; serpentine is a pure
    function of rank, embarrassingly parallel, and within ~1 max-item
    of LPT's bound on sorted inputs). This is how training shards are
    balanced to equal token counts so no data-parallel worker starves.

    Output: one row per shard (shard, sum_<weight>, n_docs) — integer
    only, bit-exact vs the SQL twin (row_number() + the same modular
    dealing). The full per-row (id, shard) map is the same projection
    without the final rollup; the rollup is what audits balance.

    Scale shape: global_rank's three passes (sample boundaries, count
    offsets, per-partition stable sort) move slim (weight, id) rows
    once; the dealing is a row-local map; the rollup is a grouped_sum
    whose exchange is one row per (block, shard)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    ranked = global_rank(
        ds.map_batches(lambda b: b[[weight_col, id_col]], batch_format="pandas"),
        [weight_col, id_col],
        ascending=[False, True],
        keep_cols=[weight_col],
        rank_col="_r",
        num_partitions=num_partitions,
    )
    two_s = 2 * num_shards

    def deal(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame(
                {"shard": pd.Series(dtype="int64"), weight_col: pd.Series(dtype="int64")}
            )
        r0 = (b["_r"].to_numpy(dtype=np.int64) - 1) % two_s
        shard = np.where(r0 < num_shards, r0, two_s - 1 - r0)
        return pd.DataFrame(
            {"shard": shard.astype("int64"), weight_col: b[weight_col].to_numpy(dtype=np.int64)}
        )

    return grouped_sum(
        ranked.map_batches(deal, batch_format="pandas"), ["shard"], [weight_col]
    )


def decile_profile(
    ds: ray.data.Dataset,
    order_col: str = "n_chars",
    id_col: str = "doc_id",
    signal_col: str = "n_ws_tokens",
    num_deciles: int = 10,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Signal-by-length-decile calibration table: rank every row by
    (order_col, id), cut the EXACT global rank into `num_deciles`
    equal-count bins (decile = (rank-1)*D // total — never a sampled
    approximate ntile), and report each bin's row count, exact integer
    signal mass, and quantized mean. The canonical use: token density
    vs document length — if tokens-per-char drifts across length
    deciles, a token-budgeted selection that reads n_chars as a proxy
    is silently biased toward one end of the length distribution.

    Scale shape: global_rank's slim three-pass exchange (the row keeps
    only order/id/signal), then a row-local decile map and a D-row
    grouped_sum; the driver sees D rows. Exactness: integer sums, one
    quantized float expression, bit-identical in the SQL twin
    (row_number + the same floor arithmetic)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    slim = ds.map_batches(
        lambda b: b[[order_col, id_col, signal_col]], batch_format="pandas"
    )
    total = slim.count()
    ranked = global_rank(
        slim,
        [order_col, id_col],
        keep_cols=[signal_col],
        rank_col="_r",
        num_partitions=num_partitions,
    )

    def to_decile(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame(
                {"decile": pd.Series(dtype="int64"), signal_col: pd.Series(dtype="int64")}
            )
        r = b["_r"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "decile": (r - 1) * num_deciles // total,
                signal_col: b[signal_col].to_numpy(dtype=np.int64),
            }
        )

    stats = grouped_sum(
        ranked.map_batches(to_decile, batch_format="pandas"), ["decile"], [signal_col]
    ).to_pandas()
    s = stats[f"sum_{signal_col}"].to_numpy(dtype="int64")
    n = stats["n"].to_numpy(dtype="int64")
    out = pd.DataFrame(
        {
            "decile": stats["decile"].astype("int64"),
            "n_docs": n,
            f"sum_{signal_col}": s,
            f"mean_{signal_col}": np.floor(s.astype("float64") * 1e6 / n.astype("float64") + 0.5)
            / 1e6,
        }
    )
    return out.sort_values("decile").reset_index(drop=True)
