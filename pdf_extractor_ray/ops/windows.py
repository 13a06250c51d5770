"""Windowed / temporal operators over keyed event streams.

The reference has no event-time semantics (SURVEY.md §2.9) — these are
the training-data-pipeline temporal operators Ray Data lacks natively,
built on the one shuffle primitive (`ops/shuffle.py`): every per-key
operator routes rows on hash(key) mod P with `hash_partition` (or
`co_shuffle` for two sides) and runs ONE vectorized pandas pass per
partition over all of its keys, never a per-key map_groups; the
partitioning assumption is that ONE key's events fit in a worker (true
for per-user / per-document event streams; salt hot keys otherwise).

- sessionize : gap-based session assembly per key (tumbling-by-gap
  window). One shuffle on the key; in-group numpy diff, no row loop.
- asof_join  : merge the most recent right-side row (right.ts <=
  left.ts) onto each left row per key. One co_shuffle of both sides
  on the key, then a per-partition `pd.merge_asof` — the classic
  sort-merge as-of.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.shuffle import co_shuffle, column_hash, hash_partition


def sessionize(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    gap_minutes: float = 30.0,
    order_tiebreak: str | None = "event_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Session-level rows (key, session_start, session_end, n_events).

    A new session starts when the gap to the previous event of the same
    key exceeds `gap_minutes`. Events are ordered by (ts, tiebreak) so
    the assignment is deterministic under equal timestamps.

    The shuffle key is hash(key) mod num_partitions, NOT the key
    itself: each partition holds all events of its keys, and ONE
    vectorized pandas pass sessionizes every key in the partition
    (per-key map_groups would mean one Python call per user — hot at
    10^8 users)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def build(g: pd.DataFrame) -> pd.DataFrame:
        order = [key, ts_col] + (
            [order_tiebreak] if order_tiebreak and order_tiebreak in g else []
        )
        g = g.sort_values(order, kind="stable")
        new_key = (g[key] != g[key].shift()).to_numpy()
        gap_break = ((g[ts_col] - g[ts_col].shift()) > gap).to_numpy()
        sess = np.cumsum(new_key | gap_break)
        agg = g.assign(_sess=sess).groupby("_sess", as_index=False, sort=True).agg(
            **{
                key: (key, "first"),
                "session_start": (ts_col, "min"),
                "session_end": (ts_col, "max"),
                "n_events": (ts_col, "size"),
            }
        )
        return agg[[key, "session_start", "session_end", "n_events"]]

    # key and timestamps keep the caller's types: schemas are inferred
    return hash_partition(ds, column_hash(key), num_partitions, build, None)


def asof_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    right_cols: tuple[str, ...] = ("value",),
    suffix: str = "_right",
) -> ray.data.Dataset:
    """As-of (backward) join: for each left row, attach the right row
    with the greatest right.ts <= left.ts for the same key; left rows
    with no prior right row get nulls (ASOF LEFT JOIN semantics,
    matching DuckDB `ASOF LEFT JOIN ON l.key = r.key AND l.ts >= r.ts`).

    ONE co_shuffle of both sides on hash(key) mod 32; each partition
    runs a single vectorized `pd.merge_asof(..., by=key)` over all of
    its keys (per-key map_groups would be one Python call per key).
    The output schema is the left columns plus the suffixed right
    ones, so int columns stay int and unmatched right columns are
    typed nulls."""
    l_s, r_s = left.schema(), right.schema()
    r_types = dict(zip(r_s.names, r_s.types))
    out_right = {c: f"{c}{suffix}" for c in (ts_col, *right_cols)}
    schema = pa.schema(
        list(zip(l_s.names, l_s.types)) + [(out_right[c], r_types[c]) for c in out_right]
    )

    def merge(lg: pd.DataFrame, rg: pd.DataFrame) -> pd.DataFrame:
        lg = lg.sort_values(ts_col, kind="stable")
        if rg.empty:  # also the column-less frame of an all-empty right side
            return lg.assign(**{c: None for c in out_right.values()})
        rg = rg.sort_values(ts_col, kind="stable")
        payload = rg[[key, ts_col]].assign(**{out_right[c]: rg[c] for c in out_right})
        payload[key] = payload[key].astype(lg[key].dtype)
        payload[ts_col] = payload[ts_col].astype(lg[ts_col].dtype)
        return pd.merge_asof(lg, payload, on=ts_col, by=key, direction="backward")

    return co_shuffle(left, right, column_hash(key), column_hash(key), 32, merge, schema)


def sliding_window_agg(
    ds: ray.data.Dataset,
    ts_col: str = "ts",
    key: str = "event_type",
    val: str = "value",
    window_minutes: int = 60,
    slide_minutes: int = 15,
) -> ray.data.Dataset:
    """Sliding-window aggregate: sum/count of `val` per (window_start,
    key) where windows are `window_minutes` long and start every
    `slide_minutes`. Each event belongs to window/slide consecutive
    windows, so the map stage replicates each row that many times with
    its window_start (vectorized numpy repeat — the standard
    window-assignment expansion) and a pre-aggregated groupby does the
    rest; the shuffle moves one partial row per (window, key) per
    batch, never the events."""
    assert window_minutes % slide_minutes == 0, "window must be a multiple of slide"
    k = window_minutes // slide_minutes
    slide = np.timedelta64(slide_minutes, "m")

    def expand(b: pd.DataFrame) -> pd.DataFrame:
        ts = b[ts_col].to_numpy()
        base = ts.astype("datetime64[m]")  # truncate to minute
        mins = base.astype("int64")
        floor15 = (mins // slide_minutes) * slide_minutes
        first = floor15.astype("datetime64[m]")
        n = len(b)
        offsets = (np.arange(k, dtype="int64") * slide)[None, :]  # (1,k)
        starts = (first[:, None] - offsets).reshape(-1)  # (n*k,)
        return pd.DataFrame(
            {
                "window_start": starts.astype("datetime64[us]"),
                key: np.repeat(b[key].to_numpy(), k),
                val: np.repeat(b[val].to_numpy(), k),
            }
        )

    from pdf_extractor_ray.ops.relational import grouped_sum

    return grouped_sum(
        ds.map_batches(expand, batch_format="pandas"), ["window_start", key], [val]
    )


def interarrival_stats(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    group_col: str = "event_type",
    tiebreak: str | None = "event_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """LAG-family operator: per `group_col`, the count and EXACT sum of
    inter-arrival gaps (microseconds, int64) between consecutive events
    of the same `key`, plus the mean gap. Each gap is attributed to the
    LATER event's group (SQL: `ts - lag(ts) OVER (PARTITION BY key
    ORDER BY ts, tiebreak)`).

    Scale shape: one shuffle on hash(key) mod num_partitions — each
    partition holds all events of its keys and ONE vectorized pass
    (sort + shift, no per-key map_groups) computes gaps for every key
    in it, then combines to one partial row per group BEFORE the tiny
    second aggregate. Gap sums stay int64 end-to-end, so the result is
    bit-deterministic under any partition order; the mean is ONE
    float64 division at the end (matches CAST(sum AS DOUBLE)/count)."""

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        order = [key, ts_col] + ([tiebreak] if tiebreak and tiebreak in g else [])
        g = g.sort_values(order, kind="stable")
        same = (g[key] == g[key].shift()).to_numpy()
        d = g[ts_col].diff().to_numpy().astype("timedelta64[us]").astype(np.int64)
        part = (
            pd.DataFrame({group_col: g[group_col].to_numpy()[same], "gap_us": d[same]})
            .groupby(group_col, as_index=False, sort=True)
            .agg(sum_gap_us=("gap_us", "sum"), n_gaps=("gap_us", "size"))
        )
        return part

    partials = hash_partition(ds, column_hash(key), num_partitions, gaps, None)
    from pdf_extractor_ray.ops.relational import grouped_sum

    final = grouped_sum(partials, [group_col], ["sum_gap_us", "n_gaps"], counts=False)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"sum_sum_gap_us": "sum_gap_us", "sum_n_gaps": "n_gaps"})
        b["avg_gap_us"] = b["sum_gap_us"].to_numpy(dtype=np.float64) / b["n_gaps"].to_numpy(
            dtype=np.float64
        )
        return b

    return final.map_batches(finish, batch_format="pandas")


def running_total(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    val: str = "value",
    tiebreak: str = "event_id",
    decimal_scale: int = 4,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-key running cumulative sum — SQL `SUM(val) OVER (PARTITION
    BY key ORDER BY ts, tiebreak ROWS UNBOUNDED PRECEDING)` — emitted
    per input row as `running_{val}`.

    Scale shape: one shuffle on hash(key) mod num_partitions puts every
    row of a key in one partition; ONE vectorized pass per partition
    (sort + cython groupby-cumsum), never a per-key map_groups. Values
    are fixed-point: scaled to int64 so every prefix sum is EXACT and
    bit-deterministic under any partition order (equal to the SQL
    window sum over DECIMAL), converted back with one division."""

    scale = 10**decimal_scale

    def cum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts_col, tiebreak], kind="stable")
        g = g.reset_index(drop=True)
        scaled = pd.Series(np.round(g[val].to_numpy() * scale).astype(np.int64))
        g[f"running_{val}"] = scaled.groupby(g[key], sort=False).cumsum().to_numpy() / scale
        return g

    return hash_partition(ds, column_hash(key), num_partitions, cum, None)


def topk_per_group(
    ds: ray.data.Dataset,
    key: str,
    val: str,
    k: int,
    tiebreak: str | None = None,
    num_partitions: int = 32,
    ascending: bool = False,
) -> ray.data.Dataset:
    """Top-k rows per group by `val` desc (tie-broken by `tiebreak`
    asc for determinism); `ascending=True` keeps the k SMALLEST
    instead (e.g. the first-k-docs-per-source cap). Per-batch
    pre-prune keeps only each batch's local top-k per key before the
    shuffle, so the exchange moves at most k rows per key per batch —
    and the shuffle key is hash(key) mod num_partitions, so the final
    pass is one vectorized pandas groupby per partition regardless of
    key cardinality."""
    order_cols = [val] + ([tiebreak] if tiebreak else [])
    asc = [ascending] + [True] * (1 if tiebreak else 0)

    def topk(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(order_cols, ascending=asc, kind="stable").groupby(key, sort=False).head(k)

    return hash_partition(
        ds.map_batches(topk, batch_format="pandas"), column_hash(key), num_partitions, topk, None
    )


def distinct_count(
    ds: ray.data.Dataset, key: str, col: str, alias: str = "n_distinct"
) -> ray.data.Dataset:
    """COUNT(DISTINCT col) GROUP BY key, scalably: per-batch local
    drop-dup (combiner), shuffle distinct (key, col) pairs, then a tiny
    second aggregate counts pairs per key."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def local_distinct(b: pd.DataFrame) -> pd.DataFrame:
        return b[[key, col]].drop_duplicates()

    pairs = grouped_sum(
        ds.map_batches(local_distinct, batch_format="pandas"), [key, col], []
    )
    counted = grouped_sum(pairs.drop_columns(["n"]), [key], [])

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"n": alias})

    return counted.map_batches(rename, batch_format="pandas")


_FUNNEL_SCHEMA = pa.schema([("step_idx", pa.int64()), ("step", pa.string()), ("n", pa.int64())])


def funnel_counts(
    ds: ray.data.Dataset,
    steps: list[str],
    key: str = "user_id",
    ts_col: str = "ts",
    type_col: str = "event_type",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Ordered funnel analysis: how many users complete each prefix of
    `steps` IN ORDER — step k counts users with an event of type
    steps[k] STRICTLY after their earliest completion of steps[k-1]
    (t_k = min{ts : type = steps[k], ts > t_{k-1}}, a pure function of
    timestamp VALUES, so the answer is row-order independent). The
    product-analytics staple over event streams.

    Shape: the scan keeps only funnel-step rows (slim (key, type, ts)
    triples); ONE shuffle on hash(key) mod P co-locates each user's
    rows, k vectorized groupby-min passes per partition walk the
    funnel, and per-partition step counts — k rows each — reduce in a
    tiny grouped_sum. Emits (step_idx, step, n_users)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    step_list = list(steps)
    wanted = set(step_list)

    def slim(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[type_col].isin(wanted)]
        return pd.DataFrame(
            {
                key: b[key].to_numpy(),
                type_col: b[type_col].to_numpy(),
                ts_col: b[ts_col].to_numpy(),
            }
        )

    def walk(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        cur = g[g[type_col] == step_list[0]].groupby(key)[ts_col].min()
        rows.append((1, step_list[0], len(cur)))
        for i, st in enumerate(step_list[1:], start=2):
            sub = g[g[type_col] == st]
            thr = sub[key].map(cur)
            # users without the previous step map to NaT; NaT
            # comparisons are False, so they drop out here
            sub = sub[sub[ts_col].to_numpy() > thr.to_numpy()]
            cur = sub.groupby(key)[ts_col].min()
            rows.append((i, st, len(cur)))
        return pd.DataFrame(rows, columns=["step_idx", "step", "n"])

    red = grouped_sum(
        hash_partition(
            ds.map_batches(slim, batch_format="pandas"),
            column_hash(key), num_partitions, walk, _FUNNEL_SCHEMA,
        ),
        ["step_idx", "step"],
        ["n"],
        counts=False,
    )

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "step_idx": b["step_idx"].to_numpy(dtype="int64"),
                "step": b["step"],
                "n_users": b["sum_n"].to_numpy(dtype="int64"),
            }
        )

    return red.map_batches(rename, batch_format="pandas")


def retention_matrix(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    period: str = "D",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Cohort retention: bucket every user into the period of their
    FIRST event (their cohort) and count, for each (cohort, k), the
    distinct users active k periods later — the retention triangle of
    product analytics. `period` is a pandas floor frequency ('D', 'h',
    'W'...).

    Shape: the scan reduces to per-batch DISTINCT (user, period)
    pairs (the only exchange unit); one shuffle on hash(user) mod P
    makes each user's periods partition-local, so cohort = min period
    and the (cohort, delta) rows fall out of one vectorized pass;
    per-partition counts reduce in a grouped_sum bounded by
    cohorts x deltas. Emits (cohort, periods_since, n_users) with
    periods_since = 0 rows equal to cohort size."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def slim(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                key: b[key].to_numpy(),
                "_p": pd.to_datetime(b[ts_col]).dt.floor(period).to_numpy(),
            }
        ).drop_duplicates()

    one = pd.Timedelta(1, unit=period if period != "W" else "W")

    def cohortize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([key, "_p"])
        first = g.groupby(key)["_p"].transform("min")
        delta = ((g["_p"] - first) / one).astype("int64")
        out = (
            pd.DataFrame({"cohort": first.to_numpy(), "periods_since": delta})
            .groupby(["cohort", "periods_since"], sort=False)
            .size()
            .reset_index(name="n")
        )
        out["n"] = out["n"].astype("int64")
        return out

    # the cohort keeps the timestamp unit of ts_col: schemas are inferred
    red = grouped_sum(
        hash_partition(
            ds.map_batches(slim, batch_format="pandas"),
            column_hash(key), num_partitions, cohortize, None,
        ),
        ["cohort", "periods_since"],
        ["n"],
        counts=False,
    )

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "cohort": b["cohort"],
                "periods_since": b["periods_since"].to_numpy(dtype="int64"),
                "n_users": b["sum_n"].to_numpy(dtype="int64"),
            }
        )

    return red.map_batches(rename, batch_format="pandas")


def anomalous_periods(
    ds: ray.data.Dataset,
    type_col: str = "event_type",
    ts_col: str = "ts",
    period: str = "h",
    z: float = 3.0,
) -> ray.data.Dataset:
    """Volume-anomaly detection over an event stream: flag the
    (type, period) buckets whose event count sits more than `z`
    population standard deviations from that type's mean period count
    — the monitoring pass a continuously-ingested pipeline runs to
    catch crawler loops, outages, and bot floods.

    Shape: one pre-aggregated grouped_sum produces the (type, period,
    n) table — bounded by types x periods, tiny next to the stream —
    and the per-type mean/sigma reduce over it; the final flag pass
    is arithmetic on that small table. Emits flagged rows only:
    (type_col, period, n_events, zscore)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                type_col: b[type_col].to_numpy(),
                "period": pd.to_datetime(b[ts_col]).dt.floor(period).to_numpy(),
            }
        )

    counts = grouped_sum(
        ds.map_batches(bucket, batch_format="pandas"), [type_col, "period"], []
    )

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        # b is the complete (type, period, n) table (repartition(1)
        # upstream): exact per-type mean/sigma over period counts
        g = b.groupby(type_col)["n"]
        mean = g.transform("mean").to_numpy(dtype="float64")
        sd = g.transform(lambda s: s.std(ddof=0)).to_numpy(dtype="float64")
        n = b["n"].to_numpy(dtype="float64")
        zs = np.divide(n - mean, sd, out=np.zeros_like(n), where=sd > 0)
        hit = np.abs(zs) > z
        out = pd.DataFrame(
            {
                type_col: b[type_col].to_numpy()[hit],
                "period": b["period"].to_numpy()[hit],
                "n_events": n[hit].astype("int64"),
                "zscore": zs[hit],
            }
        )
        return out

    return counts.repartition(1).map_batches(flag, batch_format="pandas")


def user_cadence(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    order_tiebreak: str = "event_id",
    min_events: int = 10,
    bot_cv_threshold: float = 0.1,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-user event-cadence profile + bot flag: the
    coefficient of variation of inter-event gaps. Humans browse in
    bursts (cv well above 1); scripted crawlers and click bots fire
    on near-constant timers (cv near 0) — the classic
    traffic-hygiene gate run before any engagement-weighted corpus
    sampling. A user is flagged when it has at least `min_events`
    events AND gap cv < `bot_cv_threshold`.

    Shape: the slim (key, ts[, tiebreak]) projection co-shuffles on
    hash(key) mod P (the sessionize discipline — never per-key
    map_groups); one vectorized pass per partition computes each
    user's gap sums in closed form. Cross-engine float discipline
    (CLAUDE.md): the per-user sums S = sum(gap_us) and
    S2 = sum(gap_us^2) are accumulated as EXACT integers
    (microseconds / microseconds^2, Python int so S2 never overflows
    int64 — a single 55-minute gap squared already would), so the
    sums are order-free; each emitted double then rounds ONCE from
    an exact integer: mean_gap_s = (float(S)/n)/1e6 and
    cv = sqrt(float(max(n*S2 - S^2, 0))) / float(S) — mirrored
    verbatim in the SQL twin with HUGEINT sums (n*S2 - S*S stays
    int128-exact, CAST ... AS DOUBLE is the single rounding).
    Emits (key, n_events, mean_gap_s, gap_cv, is_bot) for users
    with >= 2 events (a single event has no gaps)."""

    def slim(t: pa.Table) -> pa.Table:
        return t.select([key, ts_col] + ([order_tiebreak] if order_tiebreak in t.column_names else []))

    def profile(g: pd.DataFrame) -> pd.DataFrame:
        order = [key, ts_col] + ([order_tiebreak] if order_tiebreak in g else [])
        g = g.sort_values(order, kind="stable")
        # pin the unit: pandas 2.x keeps datetime64[us] columns at us
        # resolution, so a bare astype(int64) would be 1000x off
        ts = pd.to_datetime(g[ts_col]).astype("datetime64[us]").astype("int64").to_numpy()
        keys = g[key].to_numpy()
        same = keys[1:] == keys[:-1]
        # keep gaps as EXACT integer microseconds; sums of ints
        # commute, so partition/aggregation order cannot perturb the
        # emitted doubles (the r4 driver-hash flake)
        gaps_us = ts[1:] - ts[:-1]  # int64 microseconds
        rows = pd.DataFrame({key: keys[1:][same], "g": gaps_us[same]})
        counts = pd.Series(keys).value_counts()
        grp = rows.groupby(key)["g"]
        n_gaps = grp.count().to_numpy(dtype="int64")
        # Python-int sums: g^2 of a 55-minute gap already overflows
        # int64, and per-user totals must stay exact
        s_int = grp.agg(lambda v: sum(int(x) for x in v))
        s2_int = grp.agg(lambda v: sum(int(x) * int(x) for x in v))
        mean = np.empty(len(n_gaps), dtype="float64")
        cv = np.empty(len(n_gaps), dtype="float64")
        for i, (n_i, s_i, s2_i) in enumerate(
            zip(n_gaps.tolist(), s_int.tolist(), s2_int.tolist())
        ):
            # each double rounds ONCE from an exact integer —
            # mirrored literally in the SQL twin (HUGEINT sums)
            mean[i] = (float(s_i) / n_i) / 1e6
            d = max(n_i * s2_i - s_i * s_i, 0)
            cv[i] = math.sqrt(float(d)) / (float(s_i) if s_i > 0 else 1.0)
        agg = pd.DataFrame(index=s_int.index)
        n_events = counts.reindex(agg.index).to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                key: agg.index.to_numpy(),
                "n_events": n_events,
                "mean_gap_s": mean,
                "gap_cv": cv,
                "is_bot": (
                    (n_events >= min_events) & (cv < bot_cv_threshold)
                ).astype("int64"),
            }
        )

    # the key keeps the caller's type: schemas are inferred
    return hash_partition(
        ds.map_batches(slim, batch_format="pyarrow"), column_hash(key), num_partitions, profile, None
    )


def transition_counts(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts_col: str = "ts",
    state_col: str = "event_type",
    tiebreak: str = "event_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """First-order Markov transition matrix over per-key ordered state
    sequences: (from_type, to_type, n, p) where p = n / n(from_type) —
    the behavioral-sequence summary (what follows what) behind funnel
    design and bot heuristics.

    Scale shape: the interarrival_stats LAG pattern — one shuffle on
    hash(key) mod num_partitions, one vectorized sort+shift pass per
    partition emitting (from, to) pair counts, then a tiny grouped_sum
    over |states|^2 rows; p is ONE float division of exact int64
    counts (cross-engine float doctrine)."""

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        order = [key, ts_col] + ([tiebreak] if tiebreak and tiebreak in g else [])
        g = g.sort_values(order, kind="stable")
        same = (g[key] == g[key].shift()).to_numpy()
        frm = g[state_col].shift().to_numpy()[same]
        to = g[state_col].to_numpy()[same]
        out = (
            pd.DataFrame({"from_type": frm, "to_type": to})
            .groupby(["from_type", "to_type"], as_index=False, sort=True)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype("int64")
        return out

    from pdf_extractor_ray.ops.relational import grouped_sum

    counts = grouped_sum(
        hash_partition(ds, column_hash(key), num_partitions, pairs, None),
        ["from_type", "to_type"],
        ["n"],
        counts=False,
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.rename(columns={"sum_n": "n"})
        b["n"] = b["n"].astype("int64")
        tot = b.groupby("from_type")["n"].transform("sum")
        b["p"] = b["n"].to_numpy(dtype=np.float64) / tot.to_numpy(dtype=np.float64)
        return b[["from_type", "to_type", "n", "p"]]

    # the |states|^2 table is tiny by contract — one block for the
    # marginal division (repartition(1) keeps the transform exact)
    return counts.repartition(1).map_batches(finish, batch_format="pandas")
