"""Data selection via importance resampling (DSIR — Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling",
public NeurIPS paper): score every raw document by how much more
likely it is under a TARGET-domain bag-of-words model than under the
raw-corpus model, then keep the top fraction.

Per-document log importance weight under add-one-smoothed unigram
models (the paper uses hashed n-gram features; word unigrams keep the
operator SQL-oracle-able — a hashed variant would only change the
term key):

    logw(d) = sum_t tf_t * ( ln(c_tgt(t) + 1) - ln(c_raw(t)) )
              + n_d * ( ln R - ln(T + V) )

with c_raw / c_tgt corpus term counts over all / target documents,
R / T the corresponding token totals, V the raw vocabulary size
(add-one smoothing mass), n_d the document's token count. Documents
with no tokens produce no row (nothing to score), matching the SQL
oracle's GROUP BY over exploded tokens.

Two EXACT tiers, the same data-movement decision as
text_analysis.unigram_logprob:

- Broadcast tier: the per-term map ln(c_tgt+1) - ln(c_raw) is pruned
  of terms with c_raw == 1 AND c_tgt == 0 (their value is exactly
  0.0 — ln 1 - ln 1), bounded by broadcast_max_terms, shipped once
  via ray.put; scoring is shuffle-free.
- Shuffle tier: (doc_id, term, tf, target-flag) rows co-shuffle on
  hash(term) mod P where both corpus counts are partition-local sums,
  then on hash(doc_id) mod P for the per-doc reduction. Global
  scalars (R, T, V) come from dataset aggregates, never the driver.

Both tiers take math.log per DISTINCT term and sum each document in
(doc_id, term) order, so results are bit-identical across tiers.

Reference parity: the reference engine has no data-selection stage;
this is a training-data-pipeline operator the north rule's webtext
target needs (same family as ops/quality gopher/C4 and
ops/text_analysis unigram_logprob).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import _typed_table, co_shuffle, column_hash, hash_partition
from pdf_extractor_ray.ops.text_analysis import _doc_term_tf

_DSIR_CACHE: dict = {}  # per-worker resolved broadcast maps
_DSIR_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_ws_tokens", pa.int64()), ("logweight", pa.float64())]
)


def _per_doc(out: pd.DataFrame, const: float) -> pd.DataFrame:
    """(doc_id, term, tf, _lp) -> per-doc reduction in (doc_id, term)
    order; const is ln R - ln(T + V), applied once per token."""
    out = out.sort_values(["doc_id", "term"], kind="stable")
    g = out.groupby("doc_id", sort=True)
    res = pd.DataFrame(
        {"n_ws_tokens": g["tf"].sum().astype("int64"), "_s": g["_lp"].sum()}
    ).reset_index()
    res["logweight"] = res["_s"] + res["n_ws_tokens"].astype("float64") * const
    return res[["doc_id", "n_ws_tokens", "logweight"]]


def dsir_logweights(
    ds: ray.data.Dataset,
    target_col: str = "is_target",
    text_col: str = "text",
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document DSIR log importance weights. `ds` must carry
    doc_id, the text column, and a boolean target_col marking the
    TARGET-domain examples (e.g. lang == 'en'); weights are emitted
    for every document, target or not. Returns (doc_id, n_ws_tokens,
    logweight)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch.reset_index(drop=True)[text_col].str.split().explode().dropna()
        toks = toks[toks != ""]
        flags = batch.reset_index(drop=True)[target_col].astype(bool)
        tgt = toks[flags.reindex(toks.index).to_numpy()]
        vc, vt = toks.value_counts(), tgt.value_counts()
        return pd.DataFrame(
            {
                "term": vc.index.astype(str),
                "n": vc.to_numpy().astype("int64"),
                "nt": vt.reindex(vc.index).fillna(0).to_numpy().astype("int64"),
            }
        )

    counts = grouped_sum(
        ds.map_batches(local_counts, batch_format="pandas"), ["term"], ["n", "nt"], counts=False
    ).materialize()
    total_r = int(counts.sum("sum_n") or 0)
    total_t = int(counts.sum("sum_nt") or 0)
    vocab = counts.count()
    if total_r == 0:
        return ds.map_batches(
            lambda b: pd.DataFrame(
                {
                    "doc_id": np.array([], dtype="int64"),
                    "n_ws_tokens": np.array([], dtype="int64"),
                    "logweight": np.array([], dtype="float64"),
                }
            ),
            batch_format="pandas",
        )
    const = math.log(total_r) - math.log(total_t + vocab)

    def doc_rows(batch: pd.DataFrame) -> pd.DataFrame:
        out = _doc_term_tf(batch, text_col)
        flags = batch.set_index("doc_id")[target_col].astype(bool)
        out["_tgt"] = out["doc_id"].map(flags).to_numpy()
        return out

    def prunable(b: pd.DataFrame) -> pd.DataFrame:
        return b[(b["sum_n"] >= 2) | (b["sum_nt"] >= 1)]

    multi = counts.map_batches(prunable, batch_format="pandas")
    if multi.count() <= broadcast_max_terms:
        tbl = multi.to_pandas()  # bounded by broadcast_max_terms
        lw = {
            t: math.log(int(ct) + 1) - math.log(int(cr))
            for t, cr, ct in zip(tbl["term"], tbl["sum_n"], tbl["sum_nt"])
        }
        ref = ray.put(lw)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            key = ("dsir", ref.hex())
            m = _DSIR_CACHE.get(key)
            if m is None:
                m = _DSIR_CACHE[key] = ray.get(ref)
            out = _doc_term_tf(batch, text_col)
            # absent => c_raw == 1 and c_tgt == 0 => value 0.0 exactly
            out["_lp"] = out["tf"].astype("float64") * out["term"].map(m).fillna(0.0)
            return _per_doc(out, const)

        return ds.map_batches(score, batch_format="pandas")

    # ---- shuffle tier: exact at any vocabulary size ----
    def score_term_partition(g: pd.DataFrame) -> pd.DataFrame:
        cr = g.groupby("term", sort=False)["tf"].sum()
        ct = g[g["_tgt"].astype(bool)].groupby("term", sort=False)["tf"].sum()
        lw = {
            t: math.log(int(ct.get(t, 0)) + 1) - math.log(int(c))
            for t, c in cr.items()
        }
        g["_lp"] = g["tf"].astype("float64") * g["term"].map(lw)
        return g.drop(columns=["_tgt"])

    scored = hash_partition(
        ds.map_batches(doc_rows, batch_format="pandas"),
        column_hash("term"), num_partitions, score_term_partition, None,
    )
    return hash_partition(
        scored, column_hash("doc_id"), num_partitions, lambda g: _per_doc(g, const), _DSIR_SCHEMA
    )


def weighted_sample(
    ds: ray.data.Dataset,
    k: int,
    weight_col: str,
    id_col: str = "doc_id",
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """Deterministic weighted sampling WITHOUT replacement via
    exponential races (Efraimidis & Spirakis 2006, IPL 97(5), the
    A-ES scheme): give row i the key t_i = -ln(u_i) / w_i — the
    firing time of an Exponential(w_i) clock — and keep the k
    smallest keys. The result is an exact weight-proportional sample
    without replacement, and the min-k reduction makes the draw
    embarrassingly distributable (unlike sequential reservoirs).

    u_i is md5-derived, not random: u_i = (md5_u52(str(id)) + 1) /
    2^52, the same engine-portable uniform the KMV sketch and hash
    sampler use (DuckDB reproduces it as
    ``('0x' || substr(md5(id), 1, 13))::UBIGINT``), so the sample is
    reproducible on any cluster size, row order, or engine. Rows
    with weight <= 0 never fire (excluded), matching the SQL twin's
    WHERE.

    Scale shape: a per-block zero-copy Arrow partial top-k caps the
    global sort's input at k rows per block, so only ~k x n_blocks
    candidate rows ever shuffle; the weights themselves need no
    global pass. Returns (id, keep_cols..., sample_key) — the k
    winners in race order.
    """
    import pyarrow as pa

    from pdf_extractor_ray.ops.scrub import md5_u52

    keep = list(keep_cols or [])
    cols = [id_col, *keep]

    def key_rows(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[weight_col].astype("float64").to_numpy()
        u = (md5_u52([str(v) for v in batch[id_col]]).astype("float64") + 1.0) / 2.0**52
        out = batch.loc[:, cols].copy()
        out["sample_key"] = -np.log(u) / w
        return out[w > 0.0]

    order = [("sample_key", "ascending"), (id_col, "ascending")]

    def partial_top(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, k)

    return (
        ds.map_batches(key_rows, batch_format="pandas")
        .map_batches(partial_top, batch_format="pyarrow")
        .sort(["sample_key", id_col])
        .limit(k)
    )


def dsir_select(
    ds: ray.data.Dataset,
    frac: float = 0.25,
    target_col: str = "is_target",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Keep the top `frac` of documents by DSIR log weight (ties by
    doc_id) via the distributed global-rank primitive — the paper
    resamples with Gumbel noise; deterministic top-fraction keeps the
    operator reproducible and oracle-able. Returns (doc_id,
    dsir_rank)."""
    from pdf_extractor_ray.ops.rank import select_top_frac

    scores = dsir_logweights(ds, target_col=target_col, text_col=text_col).materialize()
    return select_top_frac(
        scores,
        ["logweight", "doc_id"],
        [False, True],
        frac,
        keep_cols=["doc_id"],
        rank_col="dsir_rank",
    )


def mixture_sample(
    ds: ray.data.Dataset,
    weights: dict,
    budget: float,
    source_col: str = "source",
    size_col: str = "n_chars",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Deterministic corpus MIXING to a size budget: give each source
    s a target share budget * w_s / sum(w), compute its acceptance
    probability p_s = min(1, target_s / size_s) from the corpus'
    actual per-source totals, and accept a document iff its md5
    uniform falls under p_s — the static data-mixture rebalancing
    step every multi-source training corpus runs (the DoReMi /
    Pile-style fixed-weight mixture, applied by subsampling
    over-represented sources; sources absent from `weights` are
    excluded). The draw is hash-deterministic per id (same docs
    survive on any cluster size or row order) and hits the budget in
    expectation, source by source.

    One tiny pre-aggregated exchange (per-source size totals — rows =
    #sources) feeds threshold computation on the driver; acceptance
    is then a shuffle-free vectorized filter scan. Thresholds are
    computed as floor(p * 2^52) and compared against the same 52-bit
    md5 prefix DuckDB can parse, so the SQL twin reproduces the
    exact survivor set."""
    from pdf_extractor_ray.ops.relational import grouped_sum
    from pdf_extractor_ray.ops.scrub import md5_u52

    wsum = float(sum(weights.values()))
    totals = grouped_sum(
        ds.map_batches(
            lambda b: b[[source_col, size_col]], batch_format="pandas"
        ),
        [source_col],
        [size_col],
        counts=False,
    ).to_pandas()  # one row per source — bounded by the source universe

    thr: dict = {}
    for _, r in totals.iterrows():
        s = r[source_col]
        tot = float(r[f"sum_{size_col}"])
        if s in weights and tot > 0:
            p = min(1.0, (float(budget) * float(weights[s]) / wsum) / tot)
            thr[s] = float(np.floor(p * 2.0**52))

    def accept(b: pd.DataFrame) -> pd.DataFrame:
        u = md5_u52([str(v) for v in b[id_col]]).astype("float64")
        t = b[source_col].map(thr).to_numpy(dtype="float64", na_value=-1.0)
        return b[u < t]

    return ds.map_batches(accept, batch_format="pandas")


def weighted_sample_per_group(
    ds: ray.data.Dataset,
    k: int,
    weight_col: str,
    group_col: str,
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """k-per-GROUP weighted sampling without replacement: the
    exponential-race draw of weighted_sample run independently inside
    each group (per-language / per-source balanced subcorpora with a
    quality-weighted draw — the stratified companion to the global
    sampler). Same md5-deterministic keys; same lossless bottom-k
    merge shape as hash_sample_per_group (each batch ships at most k
    rows per group; one shuffle on hash(group) mod 32 finishes each
    group inside its partition). Returns
    (group_col, id_col, sample_key)."""
    from pdf_extractor_ray.ops.scrub import md5_u52

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        w = batch[weight_col].astype("float64").to_numpy()
        u = (md5_u52([str(v) for v in batch[id_col]]).astype("float64") + 1.0) / 2.0**52
        d = pd.DataFrame(
            {
                group_col: batch[group_col].to_numpy(),
                id_col: batch[id_col].to_numpy(),
                "sample_key": -np.log(u) / w,
            }
        )[w > 0.0]
        d = d.sort_values(["sample_key", id_col], kind="stable")
        return d.groupby(group_col, sort=False).head(k)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["sample_key", id_col], kind="stable")
        return g.groupby(group_col, sort=False).head(k)

    # group and id keep the caller's types: schemas are inferred
    return hash_partition(
        ds.map_batches(partial, batch_format="pandas"), column_hash(group_col), 32, merge, None
    )


def temperature_sample(
    ds: ray.data.Dataset,
    alpha: float = 0.3,
    budget: int = 0,
    group_col: str = "lang",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Temperature-based multilingual/multi-source rebalancing
    (Conneau et al. 2020 XLM-R §3.1 / mT5: sample group i with
    probability proportional to n_i^alpha): high-resource groups are
    downsampled toward the temperature-flattened distribution,
    low-resource groups keep (almost) everything. Target rows per
    group: m_i = budget * q_i with q_i = n_i^alpha / sum_j n_j^alpha
    (budget defaults to the corpus size, i.e. pure rebalancing);
    acceptance p_i = min(1, m_i / n_i), drawn deterministically per
    id via the floor(p * 2^52)-vs-md5-u52 discipline of
    mixture_sample, so the survivor SET is engine-exact and
    cluster-size independent.

    One tiny per-group count exchange feeds the driver's threshold
    table; acceptance is a shuffle-free vectorized filter scan."""
    from pdf_extractor_ray.ops.relational import grouped_sum
    from pdf_extractor_ray.ops.scrub import md5_u52

    counts = grouped_sum(
        ds.map_batches(lambda b: b[[group_col]], batch_format="pandas"),
        [group_col],
        [],
    ).to_pandas()  # one row per group
    n = counts["n"].to_numpy(dtype="float64")
    q = n ** alpha
    q = q / q.sum()
    total = float(budget) if budget else float(n.sum())
    p = np.minimum(1.0, (total * q) / n)
    thr = {
        g: float(np.floor(pi * 2.0**52)) for g, pi in zip(counts[group_col], p)
    }

    def accept(b: pd.DataFrame) -> pd.DataFrame:
        u = md5_u52([str(v) for v in b[id_col]]).astype("float64")
        t = b[group_col].map(thr).to_numpy(dtype="float64", na_value=-1.0)
        return b[u < t]

    return ds.map_batches(accept, batch_format="pandas")


def leakage_safe_split(
    ds: ray.data.Dataset,
    comp: ray.data.Dataset,
    id_col: str = "doc_id",
    val_frac: float = 0.1,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Train/val split assignment that CANNOT leak near-duplicates
    across the boundary: every document inherits its dup-FAMILY's
    split, where family = its connected component in the duplicate
    graph (`comp`: (node, component) rows, e.g.
    ops/dedup.dup_ngram_components) and docs outside the graph are
    their own singleton family. A per-DOC split lets two
    near-identical pages land one in train and one in val — the
    benchmark-contamination failure mode (Lee et al. 2022 §6 "Dedup
    lets us train-test split safely"; Lewis et al. 2021 on QA
    train-test overlap); splitting by family closes it by
    construction.

    split = 'val' iff md5_u52(str(family)) < floor(val_frac * 2^52)
    — deterministic, engine-exact (DuckDB:
    ``('0x' || substr(md5(CAST(family AS VARCHAR)), 1, 13))::UBIGINT``)
    and independent of partitioning, so the assignment is stable
    under resume and cluster-size changes.

    Execution shape: the corpus id column (left) and the (node,
    component) rows co-shuffle on the id mod P (document text never
    enters the exchange), families resolve with one vectorized lookup
    per partition, and the md5 gate runs in the same pass — no
    driver-side id map at any corpus size."""
    from pdf_extractor_ray.ops.scrub import md5_u52

    out_schema = pa.schema(
        [(id_col, pa.int64()), ("family", pa.int64()), ("split", pa.string())]
    )
    thr = float(np.floor(val_frac * 2.0**52))

    def comp_id(names) -> str:
        # comp datasets name their id column either after the corpus
        # id (dup_ngram_components) or "node" (connected_components)
        return id_col if id_col in names else "node"

    def assign(docs: pd.DataFrame, members: pd.DataFrame) -> pa.Table:
        ids = docs[id_col].to_numpy(dtype=np.int64)
        fam = ids
        if not members.empty:
            lookup = pd.Series(
                members["component"].to_numpy(dtype=np.int64),
                index=members[comp_id(members.columns)].to_numpy(dtype=np.int64),
            )
            fam = pd.Series(ids).map(lookup).fillna(pd.Series(ids)).to_numpy(dtype=np.int64)
        u = md5_u52([str(int(f)) for f in fam]).astype("float64")
        return _typed_table(
            out_schema, **{id_col: ids, "family": fam, "split": np.where(u < thr, "val", "train")}
        )

    return co_shuffle(
        ds.select_columns([id_col]), comp, id_col,
        lambda t: t.column(comp_id(t.column_names)).to_numpy(), num_partitions, assign, out_schema,
    )


def mixture_plan(
    ds: ray.data.Dataset,
    weights: dict,
    group_col: str = "source",
    id_col: str = "doc_id",
    num_partitions: int = 32,
    L: int | None = None,
) -> ray.data.Dataset:
    """Deterministic training-mixture INTERLEAVE plan: a total order
    over the corpus in which any prefix contains the sources in
    (integer) proportion to `weights` — the reproducible "data mixing"
    stream a trainer consumes (domain weights a la The Pile / DoReMi),
    computed as a dataset op instead of a loader-time random draw so
    the schedule is resumable and engine-reproducible.

    Classic stride scheduling, all integer: within each source docs
    take a deterministic shuffle order r = 1.. (ordered by
    md5_u52(str(id)), id), each row gets stride_key = r * (L / w_g)
    with L = lcm(weights) — so source g's rows sit at multiples of
    L/w_g and a weight-2 source appears twice as densely as a
    weight-1 source — and mix_rank is the global row_number over
    (stride_key, group, r). No floats anywhere: the plan is bit-exact
    in any engine with the same md5 prefix (the SQL twin's
    row_number + integer CASE weights reproduce it row for row).

    Scale shape: two range-partitioned global_rank passes (the
    three-pass sample/assign/offset machinery — no driver sort) plus
    one tiny (group -> min rank) exchange, driver-bounded by group
    cardinality (the temperature_sample contract). Unknown groups
    default to weight 1."""
    import math

    from pdf_extractor_ray.ops.rank import global_rank
    from pdf_extractor_ray.ops.scrub import md5_u52

    # L defaults to lcm(weights) but can be pinned explicitly so the
    # plan (and its SQL twin) is invariant to WHICH groups appear in a
    # given shard — every weight must divide it
    if L is None:
        L = math.lcm(*weights.values()) if weights else 1
    assert all(L % int(w) == 0 for w in weights.values()), "L must be a multiple of every weight"
    stride = {g: L // int(w) for g, w in weights.items()}

    def add_u(b: pd.DataFrame) -> pd.DataFrame:
        out = b[[id_col, group_col]].copy()
        out["_u"] = md5_u52([str(v) for v in out[id_col]]).astype("int64")
        return out

    ranked = global_rank(
        ds.map_batches(add_u, batch_format="pandas"),
        [group_col, "_u", id_col],
        keep_cols=[group_col, id_col],
        rank_col="_gr",
        num_partitions=num_partitions,
    ).materialize()  # consumed twice (group-min pass + stride pass):
    # pin the slim ranked rows once, don't re-run the rank machinery

    def group_mins(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or group_col not in b.columns:
            return pd.DataFrame(
                {group_col: pd.Series(dtype="object"), "mn": pd.Series(dtype="int64")}
            )
        g = b.groupby(group_col, sort=False)["_gr"].min()
        return pd.DataFrame({group_col: g.index.to_numpy(), "mn": g.to_numpy(dtype="int64")})

    mins = (
        ranked.map_batches(group_mins, batch_format="pandas")
        .to_pandas()  # k rows per block-partial, k = group cardinality
        .groupby(group_col, sort=False)["mn"]
        .min()
        .to_dict()
    )

    def stride_keys(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty or group_col not in b.columns:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    group_col: pd.Series(dtype="object"),
                    "src_rank": pd.Series(dtype="int64"),
                    "stride_key": pd.Series(dtype="int64"),
                }
            )
        mn = b[group_col].map(mins).to_numpy(dtype="int64")
        r = b["_gr"].to_numpy(dtype="int64") - mn + 1
        st = b[group_col].map(stride).fillna(L).to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(dtype="int64"),
                group_col: b[group_col].to_numpy(),
                "src_rank": r,
                "stride_key": r * st,
            }
        )

    keyed = ranked.map_batches(stride_keys, batch_format="pandas")
    return global_rank(
        keyed,
        ["stride_key", group_col, "src_rank"],
        keep_cols=[id_col, group_col, "src_rank", "stride_key"],
        rank_col="mix_rank",
        num_partitions=num_partitions,
    )


def dup_debias_sample(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Duplicate-count-DEBIASED sampling: every exact-content cluster
    of size s keeps each member with probability ~1/s, so a document
    duplicated 40× across mirrors contributes the same expected mass
    to the corpus as a unique one (E[kept per cluster] ≈ 1) — the
    softer alternative to exact_dedup when duplication count itself is
    signal (popular pages stay slightly over-represented by the
    variance, never by the mean). Lee et al. 2022 measure exactly this
    over-representation as the harm of naive sampling.

    Determinism (CLAUDE.md float doctrine): acceptance is pure integer
    math — keep iff md5_u52(str(id)) < 2^52 // s — reproduced bitwise
    by the DuckDB twin from the same md5 prefix; no float comparison.

    Scale shape (the exact_dedup exchange, ops/dedup.py): the corpus
    never moves — slim (content-key, id-u52, id) rows shuffle on
    hash mod P, cluster sizes are value_counts per co-located
    partition, REJECTED ids stream to anti_join_ids (broadcast under
    the small-drop cap, one co-shuffle above it). The content key is
    104 bits (md5 head + tail u52 slices, md5_u52_pair) —
    birthday-safe to ~2^52 distinct documents; both slices are
    engine-portable (DuckDB substr(md5(), 1|17, 13))."""
    from pdf_extractor_ray.ops.dedup import _DROP_ID_SCHEMA, anti_join_ids
    from pdf_extractor_ray.ops.scrub import md5_u52, md5_u52_pair

    def slim(batch: pd.DataFrame) -> pd.DataFrame:
        key, key2 = md5_u52_pair(list(batch[text_col].astype(str)))
        return pd.DataFrame(
            {
                "_k": key.astype("int64"),
                "_k2": key2.astype("int64"),
                "_u": md5_u52([str(v) for v in batch[id_col]]).astype("int64"),
                id_col: batch[id_col].to_numpy(dtype=np.int64),
            }
        )

    def rejected(g: pd.DataFrame) -> pa.Table:
        sz = g.groupby(["_k", "_k2"])["_u"].transform("size").to_numpy(dtype=np.int64)
        thr = np.int64(2**52) // sz  # exact integer per-row threshold
        lost = g.loc[g["_u"].to_numpy(dtype=np.int64) >= thr, id_col].to_numpy(dtype=np.int64)
        return pa.table({"drop_id": pa.array(lost, pa.int64())}, schema=_DROP_ID_SCHEMA)

    drops = hash_partition(
        ds.map_batches(slim, batch_format="pandas"), "_k", num_partitions, rejected, _DROP_ID_SCHEMA
    )
    return anti_join_ids(ds, drops, id_col=id_col, num_partitions=num_partitions)


def epoch_plan(
    ds: ray.data.Dataset,
    budget_tokens: int,
    weights: dict,
    group_col: str = "source",
    tokens_col: str = "n_ws_tokens",
    r_star: float = 15.4,
) -> pd.DataFrame:
    """Data-constrained multi-epoch allocation (Muennighoff et al.
    2023, "Scaling Data-Constrained Language Models"): split a token
    budget across sources by mixture weight, convert each source's
    share into EPOCHS over its unique tokens, and report the
    diminishing-returns effective token count

        D' = U + U * R* * (1 - exp(-R / R*))

    with U the source's unique tokens, R = epochs - 1 the repeat
    count, and R* = 15.4 the paper's fitted decay constant — repeating
    data helps, but the (R+1)-th epoch is worth exp(-R/R*) of the
    first. The plan is what turns "we want a 30B-token run from a 7B-
    token corpus" into per-source epoch counts plus an honest estimate
    of how much of the budget buys new signal.

    Scale shape: one grouped_sum (group, sum tokens) exchange, then
    k-row driver math (the temperature_sample bounded-group contract).
    Exactness: token sums are int64; share_tokens is exact integer
    floor math; epochs / effective_tokens are single float expressions
    from exact integers, quantized floor(x*1e6+0.5)/1e6 like every
    emitted float (SQL twin mirrors exp/floor expression for
    expression)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    stats = grouped_sum(
        ds.map_batches(lambda b: b[[group_col, tokens_col]], batch_format="pandas"),
        [group_col],
        [tokens_col],
    ).to_pandas()
    w = stats[group_col].map(lambda g: int(weights.get(g, 1))).to_numpy(dtype="int64")
    wsum = int(w.sum()) if len(stats) else 1
    uniq = stats[f"sum_{tokens_col}"].to_numpy(dtype="int64")
    share = (np.int64(budget_tokens) * w) // np.int64(wsum)  # exact floor split
    # a zero-token source (broken feed of empty docs) gets epochs = 0,
    # never inf — the plan row SURFACES the feed instead of poisoning
    # downstream arithmetic (SQL twin mirrors the guard)
    safe_uniq = np.maximum(uniq, 1).astype("float64")
    epochs = np.where(uniq > 0, share.astype("float64") / safe_uniq, 0.0)
    r = np.maximum(epochs - 1.0, 0.0)
    eff = np.minimum(share.astype("float64"), uniq.astype("float64")) + np.where(
        epochs > 1.0, uniq.astype("float64") * r_star * (1.0 - np.exp(-r / r_star)), 0.0
    )
    out = pd.DataFrame(
        {
            group_col: stats[group_col],
            "unique_tokens": uniq,
            "share_tokens": share.astype("int64"),
            "epochs": np.floor(epochs * 1e6 + 0.5) / 1e6,
            "effective_tokens": np.floor(eff * 1e6 + 0.5) / 1e6,
        }
    )
    return out.sort_values(group_col).reset_index(drop=True)
