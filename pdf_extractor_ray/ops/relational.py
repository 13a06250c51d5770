"""Generic relational operators over Ray Data Datasets, used by the
driver-checked queries (TPC-H-ish tables; SURVEY.md §2.5-2.7).

Scale patterns encoded here:
- broadcast_join : small dimension side ray.put ONCE, pandas merge
  per batch inside map_batches — no shuffle (ray_guide joins pattern).
- pre_aggregate  : per-batch partial aggregation (combiner) before the
  groupby so the shuffle moves one row per key per batch, not the
  corpus.
"""

from __future__ import annotations

from collections.abc import Sequence

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import co_shuffle, column_hash, hash_partition


# per-worker cache of fetched broadcast tables keyed by ObjectRef
# (task-pool pattern, see pipelines/extract.py: the fetch hits the
# local object store after the first get; caching also skips the
# per-batch deserialization)
_BCAST_CACHE: dict = {}


def _fetch_cached(ref) -> pd.DataFrame:
    v = _BCAST_CACHE.get(ref.hex())
    if v is None:
        v = _BCAST_CACHE[ref.hex()] = ray.get(ref)
    return v


def _bcast_join_task(batch: pd.DataFrame, ref, on_big, on_small, how: str) -> pd.DataFrame:
    return batch.merge(_fetch_cached(ref), how=how, left_on=on_big, right_on=on_small)


def broadcast_join(
    big: ray.data.Dataset,
    small_df: pd.DataFrame,
    on_big: str | Sequence[str],
    on_small: str | Sequence[str] | None = None,
    how: str = "inner",
    small_cols: Sequence[str] | None = None,
) -> ray.data.Dataset:
    """Join a Dataset against a small pandas dimension table without a
    shuffle. The dimension table is ray.put ONCE; each worker process
    fetches and caches it on first use (never per batch)."""
    on_small = on_small or on_big
    if small_cols:
        keep = list(dict.fromkeys(list(small_cols) + ([on_small] if isinstance(on_small, str) else list(on_small))))
        small_df = small_df[keep]
    ref = ray.put(small_df)
    return big.map_batches(
        _bcast_join_task,
        fn_kwargs={"ref": ref, "on_big": on_big, "on_small": on_small, "how": how},
        batch_format="pandas",
        batch_size=8192,
    )


def range_join(
    big: ray.data.Dataset,
    bands: pd.DataFrame,
    value_col: str,
    low_col: str = "lo",
    high_col: str = "hi",
    how: str = "inner",
) -> ray.data.Dataset:
    """Interval/band join: attach the band row whose [lo, hi) interval
    contains `value_col`. The band table is small by definition
    (broadcast once via ray.put); the per-batch lookup is a single
    vectorized pd.IntervalIndex.get_indexer call — never a row loop,
    never a shuffle. Bands must be non-overlapping."""
    bands = bands.sort_values(low_col).reset_index(drop=True)
    ref = ray.put(bands)

    def band_join_task(batch: pd.DataFrame) -> pd.DataFrame:
        b = _fetch_cached(ref)
        key = ("interval", ref.hex())
        idx = _BCAST_CACHE.get(key)
        if idx is None:
            idx = _BCAST_CACHE[key] = pd.IntervalIndex.from_arrays(b[low_col], b[high_col], closed="left")
        pos = idx.get_indexer(batch[value_col])
        matched = b.iloc[np.clip(pos, 0, None)].reset_index(drop=True)
        matched.index = batch.index
        out = pd.concat([batch, matched], axis=1)
        if how == "inner":
            return out[pos >= 0]
        if (pos < 0).any():  # left join: null out non-matches, NA-typed
            miss = pos < 0
            for c in b.columns:
                col = out[c]
                if pd.api.types.is_integer_dtype(col) or pd.api.types.is_bool_dtype(col):
                    out[c] = col.astype("Int64" if pd.api.types.is_integer_dtype(col) else "boolean")
                out.loc[miss, c] = pd.NA if not pd.api.types.is_float_dtype(out[c]) else np.nan
        return out

    return big.map_batches(band_join_task, batch_format="pandas", batch_size=8192)


def pre_aggregate(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    sums: Sequence[str] = (),
    counts: bool = True,
    decimal_scale: int | None = None,
    mins: Sequence[str] = (),
    maxs: Sequence[str] = (),
) -> ray.data.Dataset:
    """Partial per-batch combine: emits one row per key per batch with
    partial sums/counts/mins/maxs. Follow with final_aggregate over
    the (tiny) partials — the shuffle then moves K x B rows, not N.

    decimal_scale: when set, float sum columns are fixed-point values
    with at most that many decimals (money etc.); each is scaled to
    int64 per row and summed EXACTLY, making the grouped sum
    bit-deterministic regardless of partition/batch order and equal to
    a SQL `SUM(CAST(x AS DECIMAL(38, scale)))`. Sum columns must be
    non-null and |sum| * 10**scale must stay below 2**53. min/max are
    order-insensitive and need no special handling."""
    keys = list(keys)
    sums = list(sums)
    mins = list(mins)
    maxs = list(maxs)

    def combine(batch: pd.DataFrame) -> pd.DataFrame:
        # min/max must read the ORIGINAL values, so stash any column
        # that decimal scaling below would rewrite in place
        mm_src = {c: c for c in {*mins, *maxs}}
        if decimal_scale is not None and sums:
            batch = batch.copy()
            f = 10.0**decimal_scale
            for c in {*mins, *maxs} & set(sums):
                batch[f"_mm_{c}"] = batch[c]
                mm_src[c] = f"_mm_{c}"
            for c in sums:
                batch[c] = np.rint(batch[c].to_numpy(dtype=np.float64) * f).astype(np.int64)
        agg: dict[str, tuple[str, str]] = {f"_sum_{c}": (c, "sum") for c in sums}
        agg.update({f"_min_{c}": (mm_src[c], "min") for c in mins})
        agg.update({f"_max_{c}": (mm_src[c], "max") for c in maxs})
        if counts:
            agg["_partial_n"] = (keys[0], "size")
        # dropna=False: SQL GROUP BY keeps NULL as its own group
        return batch.groupby(keys, as_index=False, sort=True, dropna=False).agg(**agg)

    return ds.map_batches(combine, batch_format="pandas")


def final_aggregate(
    partials: ray.data.Dataset,
    keys: Sequence[str],
    sums: Sequence[str] = (),
    counts: bool = True,
    num_partitions: int = 64,
    decimal_scale: int | None = None,
    mins: Sequence[str] = (),
    maxs: Sequence[str] = (),
) -> ray.data.Dataset:
    """Reduce the per-batch partials to final
    (keys, sum_*, min_*, max_*, n) rows.

    Shuffles on hash(keys) mod num_partitions and runs ONE vectorized
    pandas groupby per partition instead of Ray's native multi-key
    aggregate — measured 5x faster at 90k partial rows / 7.5k keys
    (the native sort-based aggregate pays per-key overhead; the coarse
    partition pays P python calls regardless of key cardinality).
    hash_pandas_object is deterministic across processes.

    decimal_scale: see pre_aggregate — partials arrive as exact scaled
    int64, are summed exactly, and are converted back to float64 here
    with ONE correctly-rounded division (identical to DuckDB's
    DECIMAL -> DOUBLE cast while |sum|*10**scale < 2**53)."""
    keys = list(keys)
    mins = list(mins)
    maxs = list(maxs)
    rename = {f"_sum_{c}": f"sum_{c}" for c in sums}
    rename.update({f"_min_{c}": f"min_{c}" for c in mins})
    rename.update({f"_max_{c}": f"max_{c}" for c in maxs})
    if counts:
        rename["_partial_n"] = "n"

    def agg_part(g: pd.DataFrame) -> pd.DataFrame:
        agg: dict[str, tuple[str, str]] = {c: (c, "sum") for c in [f"_sum_{c}" for c in sums]}
        agg.update({c: (c, "min") for c in [f"_min_{c}" for c in mins]})
        agg.update({c: (c, "max") for c in [f"_max_{c}" for c in maxs]})
        if counts:
            agg["_partial_n"] = ("_partial_n", "sum")
        out = g.groupby(keys, as_index=False, sort=True, dropna=False).agg(**agg)
        if decimal_scale is not None:
            f = float(10**decimal_scale)
            for c in sums:
                out[f"_sum_{c}"] = out[f"_sum_{c}"].to_numpy(dtype=np.int64).astype(np.float64) / f
        return out.rename(columns=rename)

    # output types follow the key and value types, so no schema
    return hash_partition(partials, column_hash(*keys), num_partitions, agg_part, None)


def grouped_sum(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    sums: Sequence[str],
    counts: bool = True,
    decimal_scale: int | None = None,
    mins: Sequence[str] = (),
    maxs: Sequence[str] = (),
) -> ray.data.Dataset:
    """Pre-aggregated grouped sum/count/min/max (the scalable
    groupby). Pass decimal_scale for fixed-point float columns to make
    the sums exact and partition-order-deterministic (see
    pre_aggregate)."""
    return final_aggregate(
        pre_aggregate(ds, keys, sums, counts, decimal_scale=decimal_scale, mins=mins, maxs=maxs),
        keys,
        sums,
        counts,
        decimal_scale=decimal_scale,
        mins=mins,
        maxs=maxs,
    )


def grouped_quantiles(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    val: str,
    qs: Sequence[float] = (0.5, 0.9),
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Exact grouped discrete quantiles (SQL `quantile_disc` /
    `percentile_disc`: the element at 1-based rank ceil(q*n) of the
    group's sorted values).

    Scale shape: a VALUE-FREQUENCY reduction, not a sort of N rows.
    Stage 1 is grouped_sum over (keys..., val) — per-batch combiners
    mean the shuffle moves one row per distinct (key, value) pair per
    batch, and the reduced table is bounded by the value DOMAIN (for
    fixed-point money columns: price range x 100), not by row count —
    at 100 TB the frequency table is megabytes while the input is
    terabytes. Stage 2 re-shuffles the frequency rows on hash(keys)
    mod num_partitions and one vectorized pandas pass per partition
    takes cumulative counts and picks each quantile row. No value is
    ever summed, so float determinism is free: outputs are elements
    of the input, bit-identical to the SQL oracle's."""
    keys = list(keys)
    pcts = [int(round(q * 100)) for q in qs]
    assert all(abs(q * 100 - p) < 1e-9 for q, p in zip(qs, pcts)), "qs must be whole percents"
    freq = grouped_sum(ds, keys + [val], [])

    def key_hash(t: pa.Table) -> np.ndarray:
        h = np.zeros(t.num_rows, dtype=np.uint64)
        for k in keys:
            h ^= pd.util.hash_array(t.column(k).to_numpy())
        return h

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(keys + [val], kind="stable")
        grp = g.groupby(keys, sort=False, dropna=False)
        cum = grp["n"].cumsum().to_numpy()
        tot = grp["n"].transform("sum").to_numpy()
        out = grp.agg(n=("n", "sum")).reset_index()
        for q, p in zip(qs, pcts):
            # rank ceil(q*n); the 1e-9 backoff absorbs float noise like
            # 0.1*10 == 1.0000000000000002 (measured DuckDB parity)
            target = np.ceil(q * tot - 1e-9)
            hit = g[cum >= target]
            sel = hit.groupby(keys, sort=False, dropna=False, as_index=False).first()
            out = out.merge(sel[keys + [val]].rename(columns={val: f"p{p}_{val}"}), on=keys, how="left")
        return out

    return hash_partition(freq, key_hash, num_partitions, pick, None)


def stratified_sample(
    ds: ray.data.Dataset,
    id_col: str,
    strata_col: str,
    rates: dict[str, float],
    default_rate: float = 0.0,
    mod: int = 100,
) -> ray.data.Dataset:
    """Deterministic per-stratum sampling: keep a row iff
    `id % mod < round(rate[stratum] * mod)`. The rule is explicit
    integer arithmetic on the row id — reproducible across runs,
    partition layouts and engines (SQL parity: `id % mod < CASE ...`),
    unlike rng-based Dataset.random_sample. Embarrassingly parallel:
    one vectorized filter per batch, no shuffle, no driver state."""
    thresholds = {s: int(round(r * mod)) for s, r in rates.items()}
    default_t = int(round(default_rate * mod))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        t = b[strata_col].map(thresholds).fillna(default_t).to_numpy(dtype=np.int64)
        return b[(b[id_col].to_numpy() % mod) < t]

    return ds.map_batches(keep, batch_format="pandas")


def hash_sample_per_group(
    ds: ray.data.Dataset,
    group_col: str,
    id_col: str,
    k: int,
) -> ray.data.Dataset:
    """Deterministic pseudo-random k-per-group sample: keep each
    group's k rows with the smallest (md5-prefix(id), id) key — a
    fixed "random" draw that is reproducible across runs, partition
    layouts and engines (SQL parity: row_number() OVER (PARTITION BY g
    ORDER BY substr(md5(id::VARCHAR), 1, 13), id) <= k; the 52-bit
    md5 prefix via scrub.md5_u52 orders identically to the hex
    substring). Same lossless bottom-k merge shape as
    sketch.kmv_distinct: each batch ships at most k rows per group.
    Returns (group_col, id_col)."""
    from pdf_extractor_ray.ops.scrub import md5_u52

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                group_col: batch[group_col].to_numpy(),
                id_col: batch[id_col].to_numpy(),
                "_h": md5_u52([str(v) for v in batch[id_col]]),
            }
        )
        d = d.sort_values(["_h", id_col], kind="stable")
        return d.groupby(group_col, sort=False).head(k)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_h", id_col], kind="stable")
        return g.groupby(group_col, sort=False).head(k)[[group_col, id_col]]

    # group and id keep the caller's types: schemas are inferred
    return hash_partition(
        ds.map_batches(partial, batch_format="pandas"), column_hash(group_col), 32, merge, None
    )


def pivot_sum(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    cat_col: str,
    val: str,
    categories: Sequence[str],
    decimal_scale: int | None = None,
) -> ray.data.Dataset:
    """Grouped pivot (crosstab): one `{val}_{cat}` sum column per
    category plus a row count `n`, in ONE pass — each batch widens the
    value into per-category masked columns, then a single grouped_sum
    aggregates them all (no per-category rescans, no extra shuffle
    beyond the one the groupby already pays). Category set must be
    known/fixed (SQL: SUM(CASE WHEN cat=c THEN val ELSE 0 END))."""
    keys = list(keys)
    categories = list(categories)

    def widen(b: pd.DataFrame) -> pd.DataFrame:
        out = b[keys].copy()
        v = b[val].to_numpy()
        c = b[cat_col].to_numpy()
        for cat in categories:
            out[f"{val}_{cat}"] = np.where(c == cat, v, 0.0)
        return out

    return grouped_sum(
        ds.map_batches(widen, batch_format="pandas"),
        keys,
        [f"{val}_{c}" for c in categories],
        decimal_scale=decimal_scale,
    )


def sized_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    num_partitions: int = 32,
    broadcast_max_rows: int = 2_000_000,
    broadcast_max_bytes: int = 128 << 20,
) -> ray.data.Dataset:
    """Cost-based two-tier join — the autoBroadcastJoinThreshold
    decision a query optimizer makes: materialize the right side (it
    must execute anyway), and if it is small enough to ship once per
    worker, run the no-shuffle broadcast join; otherwise the big-big
    shuffle join (`hash_join`, one co_shuffle of both sides), which
    moves both tables through the exchange, so skipping it for
    dimension-sized sides is a large constant win at every scale; a
    fact-fact join still takes the shuffle path."""
    right = right.materialize()
    if (
        how in ("inner", "left")
        and right.count() <= broadcast_max_rows
        and right.size_bytes() <= broadcast_max_bytes
    ):
        return broadcast_join(left, right.to_pandas(), on_big=on, on_small=right_on or on, how=how)
    return hash_join(left, right, on=on, right_on=right_on, how=how, num_partitions=num_partitions)


def _join_key_hash(col: str):
    """Integer keys route by value (any width; nulls route as 0 and
    never match), so int32 and int64 sides co-partition; any other key
    by pandas' hash_array."""

    def h(t: pa.Table) -> np.ndarray:
        c = t.column(col)
        if pa.types.is_integer(c.type):
            return c.fill_null(0).to_numpy()
        return pd.util.hash_array(c.to_numpy())

    return h


def hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    on: str,
    right_on: str | None = None,
    how: str = "inner",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Big-big distributed hash join (both sides shuffle): one
    `ops/shuffle.co_shuffle` on the key, then a pandas merge per
    partition — use ONLY when neither side fits a broadcast
    (`broadcast_join` is the no-shuffle fast path for dimension
    tables). `how` is "inner" or "left"; the output has the left
    columns then the right ones without the right key column, as
    Arrow's join gives, and null keys never match. `num_partitions`
    sizes the hash exchange: at cluster scale set it to ~(cluster
    cores), and pick the SAME partitioning key across stages so
    consecutive joins/groupbys on that key reuse co-location."""
    if how not in ("inner", "left"):
        raise ValueError(f"hash_join supports how='inner' or 'left', not {how!r}")
    rk = right_on or on

    def join(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame | None:
        if rg.columns.empty:  # the whole right side is empty
            return lg if how == "left" else None
        out = lg.merge(rg.dropna(subset=[rk]), left_on=on, right_on=rk, how=how)
        return out if rk == on else out.drop(columns=[rk])

    return co_shuffle(
        left, right, _join_key_hash(on), _join_key_hash(rk), num_partitions, join, None
    )


_PROFILE_SCHEMA = pa.schema(
    [
        ("column", pa.string()),
        ("n_rows", pa.int64()),
        ("n_null", pa.int64()),
        ("n_distinct", pa.int64()),
        ("min_num", pa.float64()),
        ("max_num", pa.float64()),
    ]
)


def profile_columns(
    ds: ray.data.Dataset,
    cols: Sequence[str],
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-column data-quality profile: row count, null count, EXACT
    distinct count, and numeric min/max — the first pass any corpus
    audit runs on a new table. Emits (column, n_rows, n_null,
    n_distinct, min_num, max_num); min/max are NULL (NaN) for
    non-numeric columns.

    Shape: per-batch partials are (column, value) DISTINCT pairs plus
    one counts row per column per batch — the value-frequency
    discipline, so the exchange is bounded by each column's distinct
    VALUE domain, not by row count. Distinct finishes with one
    hash(column, value) mod P pass. For unbounded-cardinality columns
    swap the distinct leg for the KMV sketch (ops/sketch) — same
    report, estimated distinct."""
    cols = list(cols)

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            s = batch[c]
            nn = int(s.isna().sum())
            num = pd.api.types.is_numeric_dtype(s)
            rows.append(
                {
                    "column": c,
                    "kind": "counts",
                    "value": "",
                    "n_rows": len(s),
                    "n_null": nn,
                    "min_num": float(s.min()) if num and len(s) > nn else np.nan,
                    "max_num": float(s.max()) if num and len(s) > nn else np.nan,
                }
            )
            for v in s.dropna().unique():
                rows.append(
                    {
                        "column": c,
                        "kind": "value",
                        "value": str(v),
                        "n_rows": 0,
                        "n_null": 0,
                        "min_num": np.nan,
                        "max_num": np.nan,
                    }
                )
        return pd.DataFrame(rows)

    def key_hash(t: pa.Table) -> np.ndarray:
        cv = t.column("column").to_pandas() + "\x1f" + t.column("value").to_pandas()
        return pd.util.hash_pandas_object(cv, index=False).to_numpy()

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        counts = g[g["kind"] == "counts"]
        vals = g[g["kind"] == "value"].drop_duplicates(["column", "value"])
        agg_c = counts.groupby("column", sort=False).agg(
            n_rows=("n_rows", "sum"),
            n_null=("n_null", "sum"),
            min_num=("min_num", "min"),
            max_num=("max_num", "max"),
        )
        agg_v = vals.groupby("column", sort=False).size().rename("n_distinct")
        out = (
            pd.concat([agg_c, agg_v], axis=1)
            .fillna({"n_rows": 0, "n_null": 0, "n_distinct": 0})
            .reset_index()
        )
        return out

    def final(b: pd.DataFrame) -> pd.DataFrame:
        out = b.groupby("column", sort=True).agg(
            n_rows=("n_rows", "sum"),
            n_null=("n_null", "sum"),
            n_distinct=("n_distinct", "sum"),
            min_num=("min_num", "min"),
            max_num=("max_num", "max"),
        ).reset_index()
        for c in ("n_rows", "n_null", "n_distinct"):
            out[c] = out[c].astype("int64")
        return out

    per_part = hash_partition(
        ds.map_batches(partials, batch_format="pandas"),
        key_hash, num_partitions, reduce_part, _PROFILE_SCHEMA,
    )
    return per_part.repartition(1).map_batches(final, batch_format="pandas")


def grouped_linregress(
    ds: ray.data.Dataset,
    keys: Sequence[str],
    x_col: str,
    y_col: str,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-group ordinary-least-squares line fit — the trend detector
    behind per-type volume drift and per-source quality drift
    monitoring. Classic moment reduction: every batch contributes one
    (n, Sx, Sy, Sxy, Sxx, Syy) row per group, a grouped_sum adds them,
    and the closed forms finish on key-width rows:

        slope     = (n Sxy - Sx Sy) / (n Sxx - Sx^2)
        intercept = (Sy - slope * Sx) / n
        r2        = (n Sxy - Sx Sy)^2 / ((n Sxx - Sx^2)(n Syy - Sy^2))

    The naive-sums formula is used DELIBERATELY (not a running-
    covariance update) so a SQL twin writing the same sums reproduces
    it; callers must center/scale x to modest magnitudes (e.g. hours
    since a fixed epoch, not epoch seconds) — ill-conditioned sums are
    on the caller, as with any moment formula. Groups with < 2 points
    or zero x-variance emit NULL slope/intercept/r2."""
    keys = list(keys)

    def moments(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[x_col].to_numpy(dtype="float64")
        y = batch[y_col].to_numpy(dtype="float64")
        d = pd.DataFrame({k: batch[k].to_numpy() for k in keys})
        d["cnt"] = 1
        d["sx"] = x
        d["sy"] = y
        d["sxy"] = x * y
        d["sxx"] = x * x
        d["syy"] = y * y
        return d.groupby(keys, sort=False, as_index=False).sum()

    red = grouped_sum(
        ds.map_batches(moments, batch_format="pandas"),
        keys,
        ["cnt", "sx", "sy", "sxy", "sxx", "syy"],
        counts=False,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["sum_cnt"].to_numpy(dtype="float64")
        sx = b["sum_sx"].to_numpy(dtype="float64")
        sy = b["sum_sy"].to_numpy(dtype="float64")
        sxy = b["sum_sxy"].to_numpy(dtype="float64")
        sxx = b["sum_sxx"].to_numpy(dtype="float64")
        syy = b["sum_syy"].to_numpy(dtype="float64")
        dx = n * sxx - sx * sx
        dy = n * syy - sy * sy
        ok = (n >= 2) & (dx > 0)
        num = n * sxy - sx * sy
        slope = np.where(ok, num / np.where(ok, dx, 1.0), np.nan)
        intercept = np.where(ok, (sy - slope * sx) / n, np.nan)
        r2 = np.where(
            ok & (dy > 0), (num * num) / np.where(ok & (dy > 0), dx * dy, 1.0), np.nan
        )
        out = pd.DataFrame({k: b[k] for k in keys})
        out["n"] = n.astype("int64")
        out["slope"] = slope
        out["intercept"] = intercept
        out["r2"] = r2
        return out

    return red.map_batches(finish, batch_format="pandas")


def snapshot_delta(
    old: ray.data.Dataset,
    new: ray.data.Dataset,
    key: str = "url",
    fp_col: str = "fp",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Crawl-delta classification between two corpus snapshots: for
    every key (canonical url) emit its status — ``added`` (new crawl
    only), ``removed`` (old only), ``changed`` (both, fingerprint
    differs), ``unchanged`` — the recrawl bookkeeping every
    incremental-ingestion pipeline starts from (what to re-extract,
    what to tombstone, what to skip).

    Shape: both snapshots project to slim (key, fp, snap) rows (snap 0
    old, 1 new), and ONE hash_partition of their union on hash(key)
    mod P puts a key's two rows in one partition — the distributed
    FULL OUTER JOIN (a co_shuffle calls its function only where the
    left side has rows, which would drop the added keys) — and one
    vectorized pivot per partition classifies. Keys are assumed unique
    per snapshot (canonicalize + exact-dedup first)."""

    def slim(snap: int):
        def f(t: pa.Table) -> pa.Table:
            return t.select([key, fp_col]).append_column(
                "snap", pa.array(np.full(t.num_rows, snap, dtype=np.int8))
            )

        return f

    both = old.map_batches(slim(0), batch_format="pyarrow").union(
        new.map_batches(slim(1), batch_format="pyarrow")
    )

    def classify(g: pd.DataFrame) -> pd.DataFrame:
        p = g.pivot_table(
            index=key, columns="snap", values=fp_col, aggfunc="first"
        )
        has_old = 0 in p.columns
        has_new = 1 in p.columns
        o = p[0] if has_old else pd.Series(index=p.index, dtype="object")
        n = p[1] if has_new else pd.Series(index=p.index, dtype="object")
        status = np.where(
            o.isna(),
            "added",
            np.where(n.isna(), "removed", np.where(o == n, "unchanged", "changed")),
        )
        # a string dtype, not object, keeps the type on an empty result
        return pd.DataFrame({key: p.index.to_numpy(), "status": pd.array(status, dtype="string")})

    # the key keeps the caller's type: schemas are inferred
    return hash_partition(both, column_hash(key), num_partitions, classify, None)


def signal_correlations(
    ds: ray.data.Dataset,
    cols: Sequence[str],
) -> pd.DataFrame:
    """Exact Pearson correlation matrix over k INTEGER signal columns
    — the redundancy check a quality-signal ensemble needs before
    blending (two signals correlated 0.98 should not both carry
    weight). One pass of per-block partial moments: each block emits
    the single row (n, S_i, S_ij for i <= j) — k + k(k+1)/2 scalars —
    and the driver folds those into closed-form correlations.

    Cross-engine float discipline: all moments accumulate as EXACT
    integers (Python int — S_ij can exceed int64 at corpus scale), so
    every emitted double derives from exact integer sums via the same
    expression the SQL twin uses on HUGEINT sums:
    (n*Sxy - Sx*Sy) / (sqrt(n*Sxx - Sx^2) * sqrt(n*Syy - Sy^2)).
    Emits (col_a, col_b, corr) for i < j, sorted."""
    cols = list(cols)
    k = len(cols)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        out: dict = {"n": [len(b)]}
        vals = {c: b[c].to_numpy(dtype="int64") for c in cols}
        for i, ci in enumerate(cols):
            out[f"s_{i}"] = [int(vals[ci].sum())]
            for j in range(i, k):
                # object-int product sum: exact at any magnitude
                out[f"s_{i}_{j}"] = [
                    int(sum(int(x) * int(y) for x, y in zip(vals[ci], vals[cols[j]])))
                ]
        return pd.DataFrame(out)

    parts = ds.map_batches(partial, batch_format="pandas", batch_size=None).to_pandas()
    n = int(parts["n"].sum())
    s = [int(sum(int(v) for v in parts[f"s_{i}"])) for i in range(k)]
    sij = {
        (i, j): int(sum(int(v) for v in parts[f"s_{i}_{j}"]))
        for i in range(k)
        for j in range(i, k)
    }
    rows = []
    for i in range(k):
        for j in range(i + 1, k):
            num = n * sij[(i, j)] - s[i] * s[j]
            di = n * sij[(i, i)] - s[i] * s[i]
            dj = n * sij[(j, j)] - s[j] * s[j]
            corr = (
                float(num) / (math.sqrt(float(di)) * math.sqrt(float(dj)))
                if di > 0 and dj > 0
                else 0.0
            )
            rows.append((cols[i], cols[j], corr))
    out = pd.DataFrame(rows, columns=["col_a", "col_b", "corr"])
    return out.sort_values(["col_a", "col_b"]).reset_index(drop=True)


def shuffle_skew_audit(
    ds: ray.data.Dataset,
    key: str,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Pre-flight skew profiler for a planned keyed shuffle: simulate
    `hash(key) mod P` partition assignment (the repo's md5-u52
    discipline, so the simulation is engine-independent and
    SQL-oracle-able) and report, per target partition, the row count,
    distinct-key count, and the hottest key with its row count — the
    numbers that decide whether a groupby/co-shuffle on this key needs
    salting before it runs at 100 TB. A partition whose top key owns
    most of its rows cannot be fixed by more partitions (the hot key
    is atomic under hashing); that is the signal to salt or
    pre-aggregate.

    Scale shape: each batch pre-aggregates to distinct
    (part, key, n) triples (the exchange is bounded by distinct keys,
    never rows); partials co-shuffle on their own part id and reduce
    vectorized. The driver receives exactly `num_partitions` rows.

    Emits (part, n_rows, n_keys, top_key, top_key_rows) sorted by
    part; parts with no rows are absent (mirrors SQL GROUP BY)."""
    from pdf_extractor_ray.ops.scrub import md5_u52

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        # key dtype rides through untouched (string sources/terms are
        # the common shuffle keys here, not just int ids); the typed
        # empty frame matches non-empty blocks so unions never see a
        # schema conflict (the join-input rule)
        if len(b) == 0:
            return pd.DataFrame(
                {
                    "part": pd.Series(dtype="int64"),
                    "_key": pd.Series(dtype=b[key].dtype),
                    "n": pd.Series(dtype="int64"),
                }
            )
        c = b.groupby(key, sort=False).size()
        keys = c.index.to_numpy()
        part = (
            md5_u52([str(k) for k in keys]) % np.uint64(num_partitions)
        ).astype(np.int64)
        return pd.DataFrame(
            {
                "part": part,
                "_key": keys,
                "n": c.to_numpy(dtype=np.int64),
            }
        )

    def reduce_part(g: pd.DataFrame) -> pd.DataFrame:
        tot = g.groupby(["part", "_key"], sort=False)["n"].sum().reset_index()
        tot = tot.sort_values(["part", "n", "_key"], ascending=[True, False, True], kind="stable")
        return (
            tot.groupby("part", sort=True)
            .agg(
                n_rows=("n", "sum"),
                n_keys=("n", "size"),
                top_key=("_key", "first"),
                top_key_rows=("n", "first"),
            )
            .reset_index()
        )

    # routed on the simulated part id itself; top_key keeps the key's
    # type, so schemas are inferred
    out = hash_partition(
        ds.select_columns([key]).map_batches(partials, batch_format="pandas"),
        "part", num_partitions, reduce_part, None,
    ).to_pandas()
    if out.empty:
        return pd.DataFrame(
            {
                "part": pd.Series(dtype="int64"),
                "n_rows": pd.Series(dtype="int64"),
                "n_keys": pd.Series(dtype="int64"),
                "top_key": pd.Series(dtype="int64"),
                "top_key_rows": pd.Series(dtype="int64"),
            }
        )
    return out.sort_values("part").reset_index(drop=True)


_N_DUP_SCHEMA = pa.schema([("n_dup", pa.int64())])


def schema_contract_check(
    ds: ray.data.Dataset,
    contract: dict,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Data-contract gate (the Great-Expectations shape, distributed):
    validate a corpus against declared per-column expectations before
    it enters the pipeline — the cheapest failure is the one caught at
    the ingest edge. Supported checks per column:

    - ``max_nulls``: int — null count must not exceed it
    - ``min`` / ``max``: numeric bounds (violations counted exactly)
    - ``unique``: True — duplicate values counted exactly (the id
      contract); uses a slim 104-bit value-hash shuffle, never text

    Emits one row per (column, check): (column, check, n_violations,
    passed) — exact integer counts, so the DuckDB twin reproduces the
    frame bit for bit.

    Shape: null/range checks fold from per-block integer partials
    (one row per check per block); the uniqueness check ships
    (value, 1) partial counts pre-deduplicated per batch and counts
    value collisions per hash-mod-P partition."""
    rows_out = []
    # ---- per-block partial counts for null/range checks
    specs = [
        (col, chk)
        for col, spec in sorted(contract.items())
        for chk in sorted(spec)
        if chk in ("max_nulls", "min", "max")
    ]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "column": pd.Series(dtype="object"),
                "check": pd.Series(dtype="object"),
                "n": pd.Series(dtype="int64"),
            }
        )
        if len(b) == 0:
            return empty
        out = []
        for col, chk in specs:
            s = b[col]
            if chk == "max_nulls":
                out.append((col, "max_nulls", int(s.isna().sum())))
            elif chk == "min":
                v = pd.to_numeric(s, errors="coerce")
                out.append((col, "min", int((v < contract[col]["min"]).sum())))
            elif chk == "max":
                v = pd.to_numeric(s, errors="coerce")
                out.append((col, "max", int((v > contract[col]["max"]).sum())))
        return pd.DataFrame(out, columns=["column", "check", "n"])

    if specs:
        parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
        agg = parts.groupby(["column", "check"], sort=True)["n"].sum()
        for (col, chk), n in agg.items():
            limit = contract[col].get("max_nulls", 0) if chk == "max_nulls" else 0
            rows_out.append((col, chk, int(n), bool(n <= limit)))

    # ---- exact duplicate counts for unique contracts
    for col in sorted(c for c, s in contract.items() if s.get("unique")):

        def dup_partial(b: pd.DataFrame, col=col) -> pd.DataFrame:
            # 104-bit value key (md5 head+tail u52 slices): the check
            # claims EXACT duplicate counts, and a 64-bit key expects
            # ~27k birthday collisions at the 10^12-doc design scale —
            # each one a false "uniqueness violation"
            from pdf_extractor_ray.ops.scrub import md5_u52_pair

            c = b.groupby(col, sort=False).size()
            head, tail = md5_u52_pair([str(v) for v in c.index])
            return pd.DataFrame(
                {
                    "_v": head.view(np.int64),
                    "_v2": tail.view(np.int64),
                    "n": c.to_numpy(dtype=np.int64),
                }
            )

        def dup_count(g: pd.DataFrame) -> pd.DataFrame:
            tot = g.groupby(["_v", "_v2"], sort=False)["n"].sum()
            return pd.DataFrame({"n_dup": [int((tot - 1).clip(lower=0).sum())]})

        dups = hash_partition(
            ds.select_columns([col]).map_batches(dup_partial, batch_format="pandas"),
            "_v", num_partitions, dup_count, _N_DUP_SCHEMA,
        ).to_pandas()
        n_dup = int(dups["n_dup"].sum()) if not dups.empty else 0
        rows_out.append((col, "unique", n_dup, bool(n_dup == 0)))

    out = pd.DataFrame(rows_out, columns=["column", "check", "n_violations", "passed"])
    out["n_violations"] = out["n_violations"].astype("int64")
    return out.sort_values(["column", "check"]).reset_index(drop=True)


def psi_drift(
    ds_a: ray.data.Dataset,
    ds_b: ray.data.Dataset,
    cols: dict,
    eps: float = 1e-6,
) -> pd.DataFrame:
    """Population Stability Index between two corpus snapshots — the
    standard production drift monitor (banking/ML-ops folklore;
    PSI = sum_i (p_i - q_i) * ln(p_i / q_i) over fixed bins, with
    < 0.1 stable / 0.1-0.25 shifting / > 0.25 drifted as the usual
    reading): run it per crawl snapshot over length, quality and
    signal columns and alert before a drifted source poisons a
    mixture. `cols` maps column -> (lo, hi, n_bins); bins are UNIFORM
    on [lo, hi) with the two end bins absorbing out-of-range values,
    so the binning is reproducible in any engine.

    Bin counts fold from per-block integer partials (n_bins ints per
    column per block); PSI computes once on the driver from exact
    integer counts with eps-floored fractions — the identical float
    expression in the DuckDB twin. Emits (column, n_a, n_b, psi)."""
    def partial(spec_cols):
        def f(b: pd.DataFrame) -> pd.DataFrame:
            empty = pd.DataFrame(
                {
                    "column": pd.Series(dtype="object"),
                    "bin": pd.Series(dtype="int64"),
                    "n": pd.Series(dtype="int64"),
                }
            )
            if len(b) == 0:
                return empty
            out = []
            for col, (lo, hi, k) in spec_cols.items():
                v = pd.to_numeric(b[col], errors="coerce").to_numpy(dtype=np.float64)
                v = v[~np.isnan(v)]
                w = (hi - lo) / k
                idx = np.clip(np.floor((v - lo) / w), 0, k - 1).astype(np.int64)
                cnt = np.bincount(idx, minlength=k)
                out.extend((col, i, int(c)) for i, c in enumerate(cnt))
            return pd.DataFrame(out, columns=["column", "bin", "n"])

        return f

    def hist(ds):
        parts = ds.map_batches(partial(cols), batch_format="pandas").to_pandas()
        if parts.empty:
            return pd.DataFrame(columns=["column", "bin", "n"]).astype(
                {"bin": "int64", "n": "int64"}
            )
        return parts.groupby(["column", "bin"], sort=True)["n"].sum().reset_index()

    ha, hb = hist(ds_a), hist(ds_b)
    rows = []
    for col, (lo, hi, k) in sorted(cols.items()):
        ca = np.zeros(k, dtype=np.int64)
        cb = np.zeros(k, dtype=np.int64)
        for h, c in ((ha, ca), (hb, cb)):
            m = h[h["column"] == col]
            c[m["bin"].to_numpy(dtype=np.int64)] = m["n"].to_numpy(dtype=np.int64)
        na, nb = int(ca.sum()), int(cb.sum())
        pa = np.maximum(ca / max(na, 1), eps)
        pb = np.maximum(cb / max(nb, 1), eps)
        psi = float(np.sum((pa - pb) * np.log(pa / pb)))
        rows.append((col, na, nb, psi))
    out = pd.DataFrame(rows, columns=["column", "n_a", "n_b", "psi"])
    out["n_a"] = out["n_a"].astype("int64")
    out["n_b"] = out["n_b"].astype("int64")
    return out.sort_values("column").reset_index(drop=True)
