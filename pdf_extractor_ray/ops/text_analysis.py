"""Corpus text-analysis stages over the documents table
(doc_id, text, lang, source, n_chars): language ID, quality signals,
token counts, fingerprints, corpus language models, postings and
drift — the training-data-pipeline operators. Row-local signals score
inside one map_batches; every keyed exchange (term, head, doc_id,
fingerprint) runs on ops/shuffle.py, passing the pandas hash of its
key (`column_hash`) or the int64 key itself."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdf_extractor_ray.functions import textstats
from pdf_extractor_ray.ops.shuffle import _as_schema, co_shuffle, column_hash, hash_partition


class TextAnalyzer:
    """One pass per batch producing all per-doc text metrics."""

    def __init__(self, with_fingerprint: bool = True) -> None:
        self.with_fingerprint = with_fingerprint

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch["text"].tolist()
        out = pd.DataFrame({"doc_id": batch["doc_id"].to_numpy()})
        out["detected_lang"] = [textstats.detect_lang(t) for t in texts]
        out["n_tokens"] = [textstats.token_count(t) for t in texts]
        out["n_ws_tokens"] = [textstats.whitespace_token_count(t) for t in texts]
        sig = [textstats.quality_signals(t) for t in texts]
        out["avg_word_len"] = [s["avg_word_len"] for s in sig]
        out["punct_ratio"] = [s["punct_ratio"] for s in sig]
        out["stopword_ratio"] = [s["stopword_ratio"] for s in sig]
        out["quality_score"] = [textstats.quality_score(t) for t in texts]
        if self.with_fingerprint:
            out["fingerprint"] = [textstats.fingerprint(t) for t in texts]
        return out


_ANALYZER_CACHE: dict = {}


def _analyze_task(batch: pd.DataFrame, with_fingerprint: bool) -> pd.DataFrame:
    a = _ANALYZER_CACHE.get(with_fingerprint)
    if a is None:
        a = _ANALYZER_CACHE[with_fingerprint] = TextAnalyzer(with_fingerprint)
    return a(batch)


def analyze(ds: ray.data.Dataset, concurrency: int = 16, batch_size: int = 256) -> ray.data.Dataset:
    # task pool with per-worker analyzer cache (see pipelines/extract.py)
    return ds.map_batches(
        _analyze_task,
        fn_kwargs={"with_fingerprint": True},
        batch_format="pandas",
        batch_size=batch_size,
    )


def top_terms(ds: ray.data.Dataset, k: int = 100, text_col: str = "text") -> pd.DataFrame:
    """Distributed word count -> global top-k terms (the canonical
    all-to-all text aggregate; whitespace tokens, count ties broken by
    term).

    Scale shape: each batch does ONE vectorized split/explode/
    value_counts pass and emits (term, partial count) — the shuffle
    moves one row per DISTINCT term per batch, never one per token;
    grouped_sum reduces those partials on hash(term) mod P; a
    per-block partial top-k then caps the final sort input at k rows
    per block. Counts are int64 (bit-deterministic)."""

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].str.split().explode().dropna()
        vc = toks.value_counts()
        return pd.DataFrame({"term": vc.index.astype(str), "n": vc.to_numpy().astype("int64")})

    from pdf_extractor_ray.ops.relational import grouped_sum

    counts = grouped_sum(
        ds.map_batches(local_counts, batch_format="pandas"), ["term"], ["n"], counts=False
    )

    def partial_top(b: pd.DataFrame) -> pd.DataFrame:
        return b.sort_values(["sum_n", "term"], ascending=[False, True], kind="stable").head(k)

    rows = (
        counts.map_batches(partial_top, batch_format="pandas")
        .sort([("sum_n"), ("term")], descending=[True, False])
        .limit(k)
        .take_all()
    )
    out = pd.DataFrame(rows).rename(columns={"sum_n": "n_term"})
    out["n_term"] = out["n_term"].astype("int64")
    return out[["term", "n_term"]].reset_index(drop=True)


def _repeated(counts: ray.data.Dataset, col: str) -> ray.data.Dataset:
    """The rows of a grouped_sum table whose `col` is at least 2, as an
    Arrow filter: a block left empty keeps its types."""
    return counts.map_batches(lambda t: t.filter(pc.greater_equal(t[col], 2)), batch_format="pyarrow")


def _collect(ds: ray.data.Dataset, cols: list[str]) -> pd.DataFrame:
    """A broadcast tier's bounded table on the driver, with `cols` even
    when no row survived: Ray's empty pandas blocks carry no column
    names (a one-document corpus filters every hapax term away)."""
    tbl = ds.to_pandas()
    return tbl if len(tbl) else pd.DataFrame(columns=cols)


def _doc_term_tf(batch: pd.DataFrame, text_col: str) -> pd.DataFrame:
    """One (doc_id, term, tf) row per distinct term per document — a
    document's text lives in ONE row, so its tf is complete here."""
    toks = batch.set_index("doc_id")[text_col].str.split().explode().dropna()
    toks = toks[toks != ""]
    tf = toks.groupby([toks.index, toks.values]).size()
    out = tf.reset_index()
    out.columns = ["doc_id", "term", "tf"]
    out["tf"] = out["tf"].astype("int64")
    out["term"] = out["term"].astype(str)
    return out


def _topk_per_doc(out: pd.DataFrame, k: int) -> pd.DataFrame:
    out = out.sort_values(
        ["doc_id", "tfidf", "term"], ascending=[True, False, True], kind="stable"
    )
    out = out.groupby("doc_id", sort=False).head(k)
    out["tf"] = out["tf"].astype("int64")
    return out[["doc_id", "term", "tf", "tfidf"]]


def tfidf_topk(
    ds: ray.data.Dataset,
    k: int = 3,
    text_col: str = "text",
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document top-k TF-IDF terms (tf * ln(N/df), ties broken by
    term) — the classic two-pass corpus-statistics operator. Both
    tiers are EXACT; the tier choice is purely a data-movement
    decision (the round-2 verdict's unbounded-vocab-broadcast fix):

    Broadcast tier (repeated vocabulary <= broadcast_max_terms):
    pass 1 reduces per-doc DISTINCT terms to a global document-
    frequency table via grouped_sum (one row per distinct term per
    batch enters the shuffle — bounded by vocabulary, not tokens).
    Only terms with df >= 2 are collected and broadcast: a term absent
    from the map is PROVABLY a hapax (df = 1), so its idf defaults to
    ln(N) — exact pruning that drops the long hapax tail (typically
    ~half a crawl vocabulary) from driver memory. Pass 2 is
    shuffle-free (explode -> value_counts -> idf lookup -> per-doc
    head(k) inside each batch).

    Shuffle tier (vocabulary above the cap — web-crawl scale): nothing
    is ever collected to the driver. The (doc_id, term, tf) rows
    co-shuffle on hash(term) mod P; within a term partition df is just
    the group size (each (doc, term) pair appears exactly once), so no
    join is needed; scored rows then shuffle on hash(doc_id) mod P for
    the per-doc top-k. idf uses math.log per DISTINCT partition term
    on both tiers, so results are bit-identical across tiers."""
    import math

    import ray as _ray

    from pdf_extractor_ray.ops.relational import grouped_sum

    n_docs = ds.count()
    ln_n = math.log(n_docs)

    def distinct_terms(batch: pd.DataFrame) -> pd.DataFrame:
        pairs = _doc_term_tf(batch, text_col)
        return pd.DataFrame({"term": pairs["term"], "df": 1}).astype({"df": "int64"})

    df_multi = _repeated(
        grouped_sum(ds.map_batches(distinct_terms, batch_format="pandas"), ["term"], ["df"], counts=False),
        "sum_df",
    )
    # materialize once: the tier decision (count) and the broadcast
    # collect (tier 1 only) must not re-run the aggregation. The df
    # table lives distributed in the object store, never on the driver.
    df_multi = df_multi.materialize()
    if df_multi.count() <= broadcast_max_terms:
        df_tbl = _collect(df_multi, ["term", "sum_df"])  # bounded by broadcast_max_terms
        idf = {
            t: math.log(n_docs / d)
            for t, d in zip(df_tbl["term"], df_tbl["sum_df"].astype("int64"))
        }
        idf_ref = _ray.put(idf)

        def score(batch: pd.DataFrame) -> pa.Table:
            key = ("idf", idf_ref.hex())
            m = _ANALYZER_CACHE.get(key)
            if m is None:  # resolve the broadcast once per worker process
                m = _ANALYZER_CACHE[key] = _ray.get(idf_ref)
            out = _doc_term_tf(batch, text_col)
            # absent from the df>=2 map => df == 1 => idf = ln(N)
            out["tfidf"] = out["tf"].astype("float64") * out["term"].map(m).fillna(ln_n)
            # declared types, so a batch without terms still types `term`;
            # doc_id keeps the caller's type
            schema = pa.schema(
                [
                    ("doc_id", pa.array(batch["doc_id"]).type),
                    ("term", pa.string()),
                    ("tf", pa.int64()),
                    ("tfidf", pa.float64()),
                ]
            )
            return _as_schema(_topk_per_doc(out, k), schema)

        return ds.map_batches(score, batch_format="pandas")

    # ---- shuffle tier: exact at any vocabulary size ----
    def score_term_partition(g: pd.DataFrame) -> pd.DataFrame:
        df_counts = g.groupby("term", sort=False)["doc_id"].size()
        idf = {t: math.log(n_docs / int(d)) for t, d in df_counts.items()}
        g["tfidf"] = g["tf"].astype("float64") * g["term"].map(idf)
        return g

    # doc_id keeps the caller's type: schemas are inferred
    scored = hash_partition(
        ds.map_batches(_doc_term_tf, fn_kwargs={"text_col": text_col}, batch_format="pandas"),
        column_hash("term"), num_partitions, score_term_partition, None,
    )
    return hash_partition(
        scored, column_hash("doc_id"), num_partitions, lambda g: _topk_per_doc(g, k), None
    )


def unigram_logprob(
    ds: ray.data.Dataset,
    text_col: str = "text",
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document log-likelihood under the corpus's own unigram LM —
    the CCNet-style language-model quality signal (Wenzek et al. 2020
    score documents with an external KenLM; training the unigram model
    on the corpus itself keeps the operator self-contained and
    SQL-oracle-able). Per doc:

        logprob     = sum_t tf_t * (ln c_t - ln C)
        avg_logprob = logprob / n_ws_tokens   (perplexity = exp(-avg))

    with c_t the corpus count of token t and C the corpus token total.
    Token-less documents produce no row (the model has nothing to
    score), matching the SQL oracle's GROUP BY over exploded tokens.

    Two EXACT tiers, mirroring tfidf_topk's data-movement decision:

    Broadcast tier (vocabulary with c >= 2 fits broadcast_max_terms):
    one grouped_sum over per-batch value_counts builds the count
    table; singleton tokens are PRUNED from the broadcast map — a
    token absent from the map provably has c = 1, so its ln c is 0.0
    exactly — and scoring is shuffle-free. Shuffle tier: (doc_id,
    term, tf) rows co-shuffle on hash(term) mod P where c_t is just
    the partition-local tf sum, then on hash(doc_id) mod P for the
    per-doc reduction. Both tiers sum each document's terms in
    (doc_id, term) order, so results are bit-identical across tiers."""
    import math

    import ray as _ray

    from pdf_extractor_ray.ops.relational import grouped_sum

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].str.split().explode().dropna()
        toks = toks[toks != ""]
        vc = toks.value_counts()
        return pd.DataFrame({"term": vc.index.astype(str), "n": vc.to_numpy().astype("int64")})

    counts = grouped_sum(
        ds.map_batches(local_counts, batch_format="pandas"), ["term"], ["n"], counts=False
    ).materialize()  # tier decision + (tier-1) collect must not re-aggregate
    total = int(counts.sum("sum_n") or 0)
    if total == 0:
        return ds.map_batches(  # degenerate corpus: no tokens anywhere
            lambda b: pd.DataFrame(
                {
                    "doc_id": np.array([], dtype="int64"),
                    "n_ws_tokens": np.array([], dtype="int64"),
                    "logprob": np.array([], dtype="float64"),
                    "avg_logprob": np.array([], dtype="float64"),
                }
            ),
            batch_format="pandas",
        )
    ln_total = math.log(total)

    def per_doc(out: pd.DataFrame) -> pd.DataFrame:
        # sum each doc in (doc_id, term) order (bit-determinism across
        # tiers); out must carry doc_id, term, tf, _lp
        out = out.sort_values(["doc_id", "term"], kind="stable")
        g = out.groupby("doc_id", sort=True)
        res = pd.DataFrame(
            {
                "n_ws_tokens": g["tf"].sum().astype("int64"),
                "logprob": g["_lp"].sum(),
            }
        ).reset_index()
        res["avg_logprob"] = res["logprob"] / res["n_ws_tokens"]
        return res[["doc_id", "n_ws_tokens", "logprob", "avg_logprob"]]

    multi = _repeated(counts, "sum_n")
    if multi.count() <= broadcast_max_terms:
        tbl = _collect(multi, ["term", "sum_n"])  # bounded by broadcast_max_terms
        ln_c = {t: math.log(int(n)) for t, n in zip(tbl["term"], tbl["sum_n"])}
        ref = _ray.put(ln_c)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            key = ("unigram", ref.hex())
            m = _ANALYZER_CACHE.get(key)
            if m is None:  # resolve the broadcast once per worker process
                m = _ANALYZER_CACHE[key] = _ray.get(ref)
            out = _doc_term_tf(batch, text_col)
            # absent => c == 1 => ln c == 0.0 exactly
            out["_lp"] = out["tf"].astype("float64") * (
                out["term"].map(m).fillna(0.0) - ln_total
            )
            return per_doc(out)

        return ds.map_batches(score, batch_format="pandas")

    # ---- shuffle tier: exact at any vocabulary size ----
    def score_term_partition(g: pd.DataFrame) -> pd.DataFrame:
        c_tbl = g.groupby("term", sort=False)["tf"].sum()
        # math.log per DISTINCT term, exactly like the broadcast tier
        # (and tfidf_topk) — np.log's SIMD path can differ by 1 ulp
        ln_c = {t: math.log(int(c)) for t, c in c_tbl.items()}
        g["_lp"] = g["tf"].astype("float64") * (g["term"].map(ln_c) - ln_total)
        return g

    scored = hash_partition(
        ds.map_batches(_doc_term_tf, fn_kwargs={"text_col": text_col}, batch_format="pandas"),
        column_hash("term"), num_partitions, score_term_partition, None,
    )
    return hash_partition(scored, column_hash("doc_id"), num_partitions, per_doc, None)


def bigram_logprob(
    ds: ray.data.Dataset,
    text_col: str = "text",
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document log-likelihood under the corpus's own CONDITIONAL
    bigram LM — the next step up from unigram_logprob on the CCNet-style
    quality ladder (Wenzek et al. 2020 score with a 5-gram KenLM;
    training the model on the corpus itself keeps the operator
    self-contained and SQL-oracle-able). Per doc with tokens w_1..w_T
    (T >= 2; shorter docs have no bigram events and produce no row):

        logprob     = sum_i ln P(w_{i+1} | w_i)
                    = sum_i (ln c2(w_i, w_{i+1}) - ln c1(w_i))
        avg_logprob = logprob / n_bigrams      (n_bigrams = T - 1)

    where c2 is the corpus count of the adjacent pair and c1(w) is w's
    corpus count as a bigram HEAD (the c2 marginal), i.e. maximum-
    likelihood conditional probabilities.

    Two EXACT tiers, mirroring unigram_logprob's data-movement shape:

    Broadcast tier: one grouped_sum over per-batch (gram, head) partial
    counts builds both tables; entries with count >= 2 are broadcast —
    a gram/head absent from its map provably has count 1, so its ln is
    0.0 exactly — and scoring is shuffle-free. Shuffle tier: (doc_id,
    head, gram, tf) rows co-shuffle on hash(HEAD) mod P — every
    occurrence of a gram shares its head, so both c2 (partition-local
    tf sum per gram) and c1 (per head) are complete in one partition —
    then on hash(doc_id) mod P for the per-doc reduction. Both tiers
    use math.log per distinct value and sum each document's rows in
    (doc_id, gram) order, so results are bit-identical across tiers."""
    import math

    import ray as _ray

    from pdf_extractor_ray.ops.relational import grouped_sum

    def _doc_bigram_tf(batch: pd.DataFrame) -> pd.DataFrame:
        """(doc_id, head, gram, tf) — one row per distinct adjacent
        pair per document (a doc's text lives in ONE row, so its tf is
        complete here). One vectorized explode/shift pass, no per-row
        Python loop."""
        empty = pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "head": pd.Series([], dtype="object"),
                "gram": pd.Series([], dtype="object"),
                "tf": pd.Series([], dtype="int64"),
            }
        )
        toks = batch.set_index("doc_id")[text_col].str.split().explode().dropna()
        if toks.empty:
            return empty
        nxt = toks.groupby(level=0).shift(-1)  # next token within the doc
        mask = nxt.notna()
        if not mask.any():
            return empty
        head = toks[mask].astype(str)
        ev = pd.DataFrame(
            {
                "doc_id": head.index.to_numpy(),
                "head": head.to_numpy(),
                "gram": (head + " " + nxt[mask].astype(str)).to_numpy(),
            }
        )
        out = (
            ev.groupby(["doc_id", "gram"], sort=False)
            .agg(head=("head", "first"), tf=("head", "size"))
            .reset_index()
        )
        out["tf"] = out["tf"].astype("int64")
        return out[["doc_id", "head", "gram", "tf"]]

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        ev = _doc_bigram_tf(batch)
        g = ev.groupby("gram", sort=False)["tf"].sum()
        h = ev.groupby("head", sort=False)["tf"].sum()
        return pd.DataFrame(
            {
                "key": np.concatenate([("g\x1f" + g.index).to_numpy(), ("h\x1f" + h.index).to_numpy()])
                if len(g)
                else np.array([], dtype=object),
                "n": np.concatenate([g.to_numpy(), h.to_numpy()]).astype("int64")
                if len(g)
                else np.array([], dtype="int64"),
            }
        )

    counts = grouped_sum(
        ds.map_batches(local_counts, batch_format="pandas"), ["key"], ["n"], counts=False
    ).materialize()  # tier decision + (tier-1) collect must not re-aggregate

    def per_doc(out: pd.DataFrame) -> pd.DataFrame:
        # sum each doc in (doc_id, gram) order (bit-determinism across
        # tiers); out must carry doc_id, gram, tf, _lp
        out = out.sort_values(["doc_id", "gram"], kind="stable")
        g = out.groupby("doc_id", sort=True)
        res = pd.DataFrame(
            {
                "n_bigrams": g["tf"].sum().astype("int64"),
                "logprob": g["_lp"].sum(),
            }
        ).reset_index()
        res["avg_logprob"] = res["logprob"] / res["n_bigrams"]
        return res[["doc_id", "n_bigrams", "logprob", "avg_logprob"]]

    multi = _repeated(counts, "sum_n")
    if multi.count() <= broadcast_max_terms:
        tbl = _collect(multi, ["key", "sum_n"])  # bounded by broadcast_max_terms
        ln_map = {k: math.log(int(n)) for k, n in zip(tbl["key"], tbl["sum_n"])}
        ref = _ray.put(ln_map)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            key = ("bigram", ref.hex())
            m = _ANALYZER_CACHE.get(key)
            if m is None:  # resolve the broadcast once per worker process
                m = _ANALYZER_CACHE[key] = _ray.get(ref)
            out = _doc_bigram_tf(batch)
            if out.empty:
                return pd.DataFrame(
                    {
                        "doc_id": pd.Series([], dtype="int64"),
                        "n_bigrams": pd.Series([], dtype="int64"),
                        "logprob": pd.Series([], dtype="float64"),
                        "avg_logprob": pd.Series([], dtype="float64"),
                    }
                )
            # absent => count == 1 => ln == 0.0 exactly
            ln_c2 = ("g\x1f" + out["gram"]).map(m).fillna(0.0)
            ln_c1 = ("h\x1f" + out["head"]).map(m).fillna(0.0)
            out["_lp"] = out["tf"].astype("float64") * (ln_c2 - ln_c1)
            return per_doc(out)

        return ds.map_batches(score, batch_format="pandas")

    # ---- shuffle tier: exact at any vocabulary size ----
    def score_head_partition(g: pd.DataFrame) -> pd.DataFrame:
        c2_tbl = g.groupby("gram", sort=False)["tf"].sum()
        c1_tbl = g.groupby("head", sort=False)["tf"].sum()
        # math.log per DISTINCT value, exactly like the broadcast tier
        ln_c2 = {t: math.log(int(c)) for t, c in c2_tbl.items()}
        ln_c1 = {t: math.log(int(c)) for t, c in c1_tbl.items()}
        g["_lp"] = g["tf"].astype("float64") * (
            g["gram"].map(ln_c2) - g["head"].map(ln_c1)
        )
        return g

    scored = hash_partition(
        ds.map_batches(_doc_bigram_tf, batch_format="pandas"),
        column_hash("head"), num_partitions, score_head_partition, None,
    )
    return hash_partition(scored, column_hash("doc_id"), num_partitions, per_doc, None)


def length_histogram(
    ds: ray.data.Dataset, bucket_tokens: int = 64, text_col: str = "text"
) -> ray.data.Dataset:
    """Token-length histogram over the corpus — the sequence-packing
    planning signal every training pipeline computes before choosing a
    context length (how much of the token mass lives in each length
    band; bucket = n_tokens // bucket_tokens). Emits
    (bucket, lo_tokens, n_docs, sum_tokens): one pre-aggregated
    combine per batch, one tiny grouped_sum — no wide shuffle ever
    (the exchange carries at most #distinct-buckets rows per block)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def local(batch: pd.DataFrame) -> pd.DataFrame:
        n = np.array([len(str(t).split()) for t in batch[text_col]], dtype=np.int64)
        b = n // bucket_tokens
        g = pd.DataFrame({"bucket": b, "toks": n}).groupby("bucket", sort=False)
        out = g.agg(n_docs_p=("toks", "size"), sum_tokens_p=("toks", "sum")).reset_index()
        out["n_docs_p"] = out["n_docs_p"].astype("int64")
        out["sum_tokens_p"] = out["sum_tokens_p"].astype("int64")
        return out

    agg = grouped_sum(
        ds.map_batches(local, batch_format="pandas"),
        ["bucket"],
        ["n_docs_p", "sum_tokens_p"],
        counts=False,
    )

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch["bucket"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "bucket": b,
                "lo_tokens": b * bucket_tokens,
                "n_docs": batch["sum_n_docs_p"].to_numpy(dtype=np.int64),
                "sum_tokens": batch["sum_sum_tokens_p"].to_numpy(dtype=np.int64),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


_POSTINGS_SCHEMA = pa.schema(
    [("term", pa.string()), ("df", pa.int64()), ("cf", pa.int64()), ("postings", pa.string())]
)


def term_postings(
    ds: ray.data.Dataset,
    min_df: int = 2,
    text_col: str = "text",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Inverted-index build: per term with document frequency >= min_df,
    (term, df, cf, postings) where postings is the comma-joined sorted
    doc_id list — the corpus artifact behind retrieval/decontamination
    tooling. Scale shape: per-batch distinct (doc_id, term, tf)
    partials, ONE hash_partition on hash(term) mod P (every posting of a
    term lands in one partition), one vectorized pandas pass per
    partition. The df filter runs in-partition so sub-threshold terms
    (the long tail) never reach the output."""

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["term", "doc_id"], kind="stable")
        out = g.groupby("term", sort=False).agg(
            df=("doc_id", "size"),
            cf=("tf", "sum"),
            postings=("doc_id", lambda s: ",".join(str(int(v)) for v in s)),
        ).reset_index()
        return out[out["df"] >= min_df]

    return hash_partition(
        ds.map_batches(_doc_term_tf, fn_kwargs={"text_col": text_col}, batch_format="pandas"),
        column_hash("term"), num_partitions, build, _POSTINGS_SCHEMA,
    )


def token_counts(ds: ray.data.Dataset) -> ray.data.Dataset:
    """(doc_id, n_ws_tokens) — whitespace tokenization, SQL-oracle-able."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_ws_tokens": [len(t.split()) for t in batch["text"]],
            }
        )

    return ds.map_batches(f, batch_format="pandas")


# ---------------------------------------------------------------------------
# Winnowing fingerprints (Schleimer, Wilkerson & Aiken 2003, SIGMOD)
# ---------------------------------------------------------------------------


def winnow_fingerprints(
    ds: ray.data.Dataset,
    k: int = 5,
    window: int = 4,
    text_col: str = "text",
    id_col: str = "doc_id",
    max_chars: int = 0,
) -> ray.data.Dataset:
    """Winnowing document fingerprints (Schleimer et al. 2003 — the
    MOSS local fingerprinting scheme, public SIGMOD paper): hash every
    character k-gram, slide a window of `window` consecutive hashes,
    and select each window's MINIMUM (rightmost position on ties —
    the paper's robust-winnowing rule), de-duplicated across
    overlapping windows. The guarantee: any shared substring of
    length >= k + window - 1 between two documents yields at least
    one shared fingerprint, with expected density 2/(window+1) — the
    copy-detection primitive that, unlike MinHash, localizes WHERE
    the overlap is.

    Hashes are md5_u52 of the raw k-gram (engine-portable: DuckDB
    reproduces them from the same hex prefix), positions are 0-based
    gram offsets. Docs shorter than k characters emit no row.
    `max_chars` > 0 fingerprints only the text prefix (bounds the
    oracle's exploded join). Row-local and shuffle-free: one
    vectorized sliding-window argmin per document inside map_batches.
    Emits (id_col, pos, fp) sorted per doc."""
    from numpy.lib.stride_tricks import sliding_window_view

    from pdf_extractor_ray.ops.scrub import md5_u52

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        ids_out: list[int] = []
        pos_out: list[np.ndarray] = []
        fp_out: list[np.ndarray] = []
        for i, t in zip(batch[id_col], batch[text_col].astype(str)):
            if max_chars:
                t = t[:max_chars]
            n_grams = len(t) - k + 1
            if n_grams < 1:
                continue
            h = md5_u52([t[j : j + k] for j in range(n_grams)]).astype(np.int64)
            if n_grams <= window:
                # one (possibly short) window over everything
                j = n_grams - 1 - int(np.argmin(h[::-1]))
                sel_pos = np.array([j], dtype=np.int64)
            else:
                wv = sliding_window_view(h, window)
                # rightmost min per window: argmin over the reversed
                # window finds the LAST minimal element of the original
                rel = window - 1 - np.argmin(wv[:, ::-1], axis=1)
                sel_pos = np.unique(np.arange(len(wv), dtype=np.int64) + rel)
            ids_out.append(int(i))
            pos_out.append(sel_pos)
            fp_out.append(h[sel_pos])
        if not ids_out:
            return pd.DataFrame(
                {
                    id_col: np.array([], dtype="int64"),
                    "pos": np.array([], dtype="int64"),
                    "fp": np.array([], dtype="int64"),
                }
            )
        counts = [len(p) for p in pos_out]
        return pd.DataFrame(
            {
                id_col: np.repeat(np.array(ids_out, dtype="int64"), counts),
                "pos": np.concatenate(pos_out),
                "fp": np.concatenate(fp_out),
            }
        )

    return ds.map_batches(f, batch_format="pandas")


def winnow_dup_candidates(
    ds: ray.data.Dataset,
    k: int = 5,
    window: int = 4,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Copy-detection candidate pairs: documents sharing at least one
    winnowing fingerprint (any common substring of length
    >= k + window - 1 guarantees one). The fingerprint is the LSH
    bucket key — pairs form inside hash(fp) mod P partitions with the
    minhash hot-bucket star cap, then global pair dedup runs on
    hash(pair) mod P (dedup_pairs_ds). Emits distinct (a, b) with
    a < b; rank/verify candidates with ops/dedup.jaccard or the
    verified-drop tier, exactly as the minhash pipeline does."""
    from pdf_extractor_ray.ops.dedup import _PAIR_SCHEMA, _pairs_in_buckets, dedup_pairs_ds

    fps = winnow_fingerprints(
        ds, k=k, window=window, text_col=text_col, id_col=id_col
    )

    def slim(b: pd.DataFrame) -> pd.DataFrame:
        # one row per (doc, fp): a fingerprint repeated inside a doc
        # would pair the doc with itself
        out = pd.DataFrame({"doc_id": b[id_col].to_numpy(dtype=np.int64), "fp": b["fp"]})
        return out.drop_duplicates()

    # fp is a non-negative 52-bit md5 prefix: the bucket key is its own hash
    pairs = hash_partition(
        fps.map_batches(slim, batch_format="pandas"),
        "fp", num_partitions, lambda g: _pairs_in_buckets(g, ["fp"]), _PAIR_SCHEMA,
    )
    return dedup_pairs_ds(pairs, num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# Term-distribution KL divergence per corpus slice (drift monitoring)
# ---------------------------------------------------------------------------


_KL_CACHE: dict = {}  # per-worker resolved broadcast count maps


def term_kl_by_slice(
    ds: ray.data.Dataset,
    slice_col: str,
    text_col: str = "text",
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """KL divergence of each corpus SLICE's term distribution from the
    whole corpus — the drift monitor a continuously-ingested corpus
    runs per source / crawl-date / language to catch a slice going off
    distribution. Per slice s:

        KL(p_s || q) = sum_t p_s(t) ln(p_s(t) / q(t))
        p_s(t) = (c_st + 1) / (T_s + V)   (add-one over corpus vocab)
        q(t)   = c_t / T                  (corpus MLE; c_t >= 1 on V)

    summed over the FULL corpus vocabulary — absent terms contribute
    through the exact closed form p0*[n_abs*(ln p0 + ln T) -
    (Lc - sum_present ln c_t)] with Lc = sum_vocab ln c_t, so nothing
    ever materializes the vocab x slice cross product.

    Exchanges: global term counts and (slice, term) counts are both
    pre-aggregated grouped_sums (key-width rows); scoring attaches q_t
    via a broadcast {term: c_t} map under `broadcast_max_terms`, else
    by co-shuffling the (slice, term) rows with the count rows on
    hash(term) mod P (each term's global count is partition-local).
    The per-slice reduction is a grouped_sum over (slice); the final
    correction is a tiny map over one row per slice. Emits (slice_col,
    n_tokens, n_terms, kl)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def explode_counts(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.reset_index(drop=True)
        toks = b[text_col].astype(str).str.split().explode().dropna()
        toks = toks[toks != ""]
        sl = b[slice_col].reindex(toks.index)
        vc = pd.DataFrame({"s": sl.to_numpy(), "term": toks.to_numpy()}).groupby(
            ["s", "term"], sort=False
        ).size()
        out = vc.reset_index()
        out.columns = ["s", "term", "tf"]
        return out

    st = grouped_sum(
        ds.map_batches(explode_counts, batch_format="pandas"),
        ["s", "term"],
        ["tf"],
        counts=False,
    ).materialize()  # one row per (slice, term)

    def term_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"term": b["term"], "c": b["sum_tf"]})

    counts = grouped_sum(
        st.map_batches(term_rows, batch_format="pandas"), ["term"], ["c"], counts=False
    ).materialize()  # one row per vocab term

    vocab = counts.count()
    total = int(counts.sum("sum_c") or 0)
    if total == 0:
        return st.map_batches(
            lambda b: pd.DataFrame(
                {
                    slice_col: np.array([], dtype=object),
                    "n_tokens": np.array([], dtype="int64"),
                    "n_terms": np.array([], dtype="int64"),
                    "kl": np.array([], dtype="float64"),
                }
            ),
            batch_format="pandas",
        )

    def lnc_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lnc": np.log(b["sum_c"].to_numpy(dtype="float64"))})

    lc = float(counts.map_batches(lnc_rows, batch_format="pandas").sum("lnc") or 0.0)

    def score_frame(b: pd.DataFrame) -> pd.DataFrame:
        """(s, sum_tf, _c) rows -> per-(slice,term) partials."""
        cst = b["sum_tf"].to_numpy(dtype="float64")
        c = b["_c"].to_numpy(dtype="float64")
        return pd.DataFrame(
            {
                "s": b["s"].to_numpy(),
                "tok": cst,
                "one": np.ones(len(b), dtype="float64"),
                "lnq_num": np.log(c),
                # p ln(p/q) needs T_s, known only after the slice
                # reduction — ship the sufficient statistics instead:
                # (cst+1) and (cst+1) ln((cst+1)/c); the 1/(T_s+V)
                # scaling and ln((T_s+V)/T)-style constants factor out
                "a": cst + 1.0,
                "alog": (cst + 1.0) * np.log((cst + 1.0) / c),
            }
        )

    if counts.count() <= broadcast_max_terms:
        tbl = _collect(counts, ["term", "sum_c"])  # bounded by broadcast_max_terms
        cmap = dict(zip(tbl["term"], tbl["sum_c"].astype("int64")))
        ref = ray.put(cmap)

        def attach_bc(b: pd.DataFrame) -> pd.DataFrame:
            key = ("klc", ref.hex())
            m = _KL_CACHE.get(key)
            if m is None:
                m = _KL_CACHE[key] = ray.get(ref)
            b = b.copy()
            b["_c"] = b["term"].map(m).to_numpy(dtype="float64")
            return score_frame(b)

        partials = st.map_batches(attach_bc, batch_format="pandas")
    else:
        # co-shuffle tier: slice-term rows left-join the count rows on
        # hash(term); each term's global count is partition-local
        def score_part(st_rows: pd.DataFrame, c_rows: pd.DataFrame) -> pd.DataFrame:
            cm = dict(zip(c_rows["term"], c_rows["sum_c"]))
            st_rows["_c"] = st_rows["term"].map(cm).to_numpy(dtype="float64")
            return score_frame(st_rows)

        # the slice column keeps the caller's type: schema inferred
        partials = co_shuffle(
            st, counts, column_hash("term"), column_hash("term"), num_partitions, score_part, None
        )

    red = grouped_sum(
        partials, ["s"], ["tok", "one", "lnq_num", "a", "alog"], counts=False
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        ts = b["sum_tok"].to_numpy(dtype="float64")  # slice token total
        npres = b["sum_one"].to_numpy(dtype="float64")
        lnp = b["sum_lnq_num"].to_numpy(dtype="float64")  # sum_present ln c
        asum = b["sum_a"].to_numpy(dtype="float64")  # sum (cst+1)
        alog = b["sum_alog"].to_numpy(dtype="float64")
        denom = ts + float(vocab)
        # present part: sum p ln(p/q) with p=(cst+1)/denom, q=c/T:
        #   (1/denom) * [ alog + asum * (ln T - ln denom) ]
        pres = (alog + asum * (np.log(float(total)) - np.log(denom))) / denom
        # absent part (exact closed form over the rest of the vocab)
        p0 = 1.0 / denom
        absent = p0 * (
            (float(vocab) - npres) * (np.log(p0) + np.log(float(total)))
            - (lc - lnp)
        )
        return pd.DataFrame(
            {
                slice_col: b["s"].to_numpy(),
                "n_tokens": ts.astype("int64"),
                "n_terms": npres.astype("int64"),
                "kl": pres + absent,
            }
        )

    return red.map_batches(finish, batch_format="pandas")


def phrase_match(
    ds: ray.data.Dataset,
    phrase: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Exact phrase matching with positional semantics — the primitive
    decontamination tooling uses to LOCATE contaminated spans (where a
    blocklisted eval phrase sits, not just whether it appears): count
    each document's occurrences of the consecutive word sequence
    `phrase`. Tokenization is whitespace, matching the corpus token
    ops and the SQL twin.

    Pushdown shape: the scan emits only the PHRASE TERMS' occurrence
    positions — (doc, term-slot, candidate start) rows; everything
    else dies at the scan, so the single doc-keyed exchange carries a
    sliver of the corpus. Per doc, a start position matches when all
    k phrase slots are present at their offsets (one vectorized
    nunique pass). Phrases with repeated words work: each occurrence
    row carries the slot it satisfies. Emits (id_col, n_matches) for
    matching docs."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    terms = phrase.split()
    k = len(terms)
    if k == 0:
        raise ValueError("empty phrase")
    # slot table: a token may satisfy several slots of a repeated-word
    # phrase — emit one row per (occurrence, slot)
    slot_of: dict = {}
    for i, t in enumerate(terms):
        slot_of.setdefault(t, []).append(i)

    def occurrences(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.reset_index(drop=True)
        toks = b[text_col].astype(str).str.split().explode()
        pos = toks.groupby(level=0).cumcount().to_numpy(dtype=np.int64)
        ids = b[id_col].reindex(toks.index).to_numpy(dtype=np.int64)
        tv = toks.to_numpy(dtype=object)
        rows_id, rows_slot, rows_start = [], [], []
        for t, slots in slot_of.items():
            m = tv == t
            if not m.any():
                continue
            for i in slots:
                starts = pos[m] - i
                ok = starts >= 0
                rows_id.append(ids[m][ok])
                rows_slot.append(np.full(int(ok.sum()), i, dtype=np.int64))
                rows_start.append(starts[ok])
        cols = {id_col: rows_id, "_slot": rows_slot, "_start": rows_start}
        return pd.DataFrame(
            {c: np.concatenate(v) if v else np.array([], dtype="int64") for c, v in cols.items()}
        )

    def count_matches(g: pd.DataFrame) -> pd.DataFrame:
        full = (
            g.groupby([id_col, "_start"], sort=False)["_slot"]
            .nunique()
            .reset_index(name="_k")
        )
        hits = full[full["_k"] == k]
        return hits.groupby(id_col, sort=False).size().reset_index(name="n_matches")

    # the int64 id is its own key hash: a doc's rows (any sign) share
    # one partition, and counting needs nothing else
    schema = pa.schema([(id_col, pa.int64()), ("n_matches", pa.int64())])
    return hash_partition(
        ds.map_batches(occurrences, batch_format="pandas"),
        id_col, num_partitions, count_matches, schema,
    )


_PMI_NA_SCHEMA = pa.schema(
    [("a", pa.string()), ("b", pa.string()), ("sum_one", pa.int64()), ("_na", pa.int64())]
)
_PMI_SCHEMA = pa.schema(
    [("a", pa.string()), ("b", pa.string()), ("n_ab", pa.int64()), ("pmi", pa.float64())]
)


def term_cooccurrence_pmi(
    ds: ray.data.Dataset,
    top_pairs: int = 50,
    max_terms_per_doc: int = 64,
    min_count: int = 2,
    text_col: str = "text",
    id_col: str = "doc_id",
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Collocation mining: the top document-level co-occurring term
    pairs by pointwise mutual information,

        pmi(a, b) = ln( n_ab * N / (n_a * n_b) )

    with n_ab = docs containing both, n_a/n_b = docs containing each,
    N = total docs — the corpus-analysis staple behind phrase
    discovery and topic drift review.

    Shape: each doc contributes pairs over its `max_terms_per_doc`
    most frequent DISTINCT terms (tf then lexicographic — the cap
    bounds the per-doc O(t^2) explosion and is part of the operator's
    contract, mirrored in the SQL twin); pair counts and per-term doc
    frequencies reduce via grouped_sums; the term-df map broadcasts
    under `broadcast_max_terms`, and above the cap the dfs attach by
    co-shuffling pairs with the vocab table on hash(term) mod P —
    once keyed on a, once on b (the bigram_logprob discipline), so
    the tier is exact at ANY vocabulary size; PMI + global top-k
    finish with a per-block Arrow partial top-k. Emits (a, b, n_ab,
    pmi), top_pairs rows by (pmi desc, a, b)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    n_docs = ds.count()

    def doc_terms(batch: pd.DataFrame) -> pd.DataFrame:
        out = _doc_term_tf(batch.rename(columns={id_col: "doc_id"}), text_col)
        out = out.sort_values(
            ["doc_id", "tf", "term"], ascending=[True, False, True], kind="stable"
        )
        return out.groupby("doc_id", sort=False).head(max_terms_per_doc)

    def pair_rows(b: pd.DataFrame) -> pd.DataFrame:
        ids, a_out, b_out = [], [], []
        for did, g in b.groupby("doc_id", sort=False):
            ts = sorted(g["term"])
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    ids.append(did)
                    a_out.append(ts[i])
                    b_out.append(ts[j])
        return pd.DataFrame({"a": a_out, "b": b_out, "one": np.ones(len(a_out), dtype="int64")})

    terms = ds.map_batches(doc_terms, batch_format="pandas").materialize()
    pair_counts = grouped_sum(
        terms.map_batches(pair_rows, batch_format="pandas"), ["a", "b"], ["one"], counts=False
    )
    term_df = grouped_sum(
        terms.map_batches(
            lambda b: pd.DataFrame({"term": b["term"], "one": np.ones(len(b), dtype="int64")}),
            batch_format="pandas",
        ),
        ["term"],
        ["one"],
        counts=False,
    ).materialize()
    def prefilter(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["sum_one"] >= min_count]

    pairs_kept = pair_counts.map_batches(prefilter, batch_format="pandas")

    def pmi_rows(b: pd.DataFrame, n_a: pd.Series, n_b: pd.Series) -> pd.DataFrame:
        """The one PMI expression of both tiers (bit-identical)."""
        nab = b["sum_one"].to_numpy(dtype="float64")
        na = n_a.to_numpy(dtype="float64")
        nb = n_b.to_numpy(dtype="float64")
        return pd.DataFrame(
            {
                "a": b["a"],
                "b": b["b"],
                "n_ab": nab.astype("int64"),
                "pmi": np.log((nab * float(n_docs)) / (na * nb)),
            }
        )

    if term_df.count() <= broadcast_max_terms:
        # broadcast tier: the vocab df map ships once
        tbl = _collect(term_df, ["term", "sum_one"])
        dfm = dict(zip(tbl["term"], tbl["sum_one"].astype("int64")))
        ref = ray.put(dfm)

        def score(b: pd.DataFrame) -> pd.DataFrame:
            key = ("pmi", ref.hex())
            m = _ANALYZER_CACHE.get(key)
            if m is None:
                m = _ANALYZER_CACHE[key] = ray.get(ref)
            return pmi_rows(b, b["a"].map(m), b["b"].map(m))

        scored = pairs_kept.map_batches(score, batch_format="pandas")
    else:
        # co-shuffle tier (unbounded vocab): pairs left-join the vocab
        # df table on hash(a) mod P, then on hash(b) — the
        # bigram_logprob head-keyed discipline; the second join scores
        def df_map(df_rows: pd.DataFrame) -> dict:
            return dict(zip(df_rows["term"], df_rows["sum_one"]))

        def attach_na(pairs: pd.DataFrame, df_rows: pd.DataFrame) -> pd.DataFrame:
            return pairs.assign(_na=pairs["a"].map(df_map(df_rows)))

        def score_nb(pairs: pd.DataFrame, df_rows: pd.DataFrame) -> pd.DataFrame:
            return pmi_rows(pairs, pairs["_na"], pairs["b"].map(df_map(df_rows)))

        with_na = co_shuffle(
            pairs_kept, term_df, column_hash("a"), column_hash("term"), num_partitions,
            attach_na, _PMI_NA_SCHEMA,
        )
        scored = co_shuffle(
            with_na, term_df, column_hash("b"), column_hash("term"), num_partitions,
            score_nb, _PMI_SCHEMA,
        )

    order = [("pmi", "descending"), ("a", "ascending"), ("b", "ascending")]

    def partial_top(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, top_pairs)

    return (
        scored.map_batches(partial_top, batch_format="pyarrow")
        .sort(["pmi", "a", "b"], descending=[True, False, False])
        .limit(top_pairs)
    )


# ---------------------------------------------------------------------------
# BM25 ranked retrieval
# ---------------------------------------------------------------------------


def bm25_topk(
    ds: ray.data.Dataset,
    queries: list[str],
    k: int = 10,
    k1: float = 1.2,
    b: float = 0.75,
    text_col: str = "text",
    id_col: str = "doc_id",
) -> ray.data.Dataset:
    """Okapi BM25 ranked retrieval: the top-k documents per query
    string, scored with the Robertson/Lucene formulation
    ``idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5))`` and
    ``tf_norm = tf * (k1+1) / (tf + k1 * (1 - b + b * dl/avgdl))``
    summed over the query's DISTINCT whitespace terms (query-side term
    multiplicity is ignored, the common retrieval convention; the SQL
    twin mirrors it with a DISTINCT unnest).

    Scale shape: the query-term vocabulary is tiny and user-provided,
    so it rides in the task closure; pass 1 scans the corpus once and
    emits only O(|qterms| + 1) partial rows per block (per-term doc
    frequencies plus a (n_docs, total_tokens) stats row — the scan is
    the only thing that touches text); the driver folds those partials
    into an idf/avgdl map of |qterms| entries; pass 2 re-scans, scores
    each document against every query in one explode + isin +
    two-level groupby (only query-term tokens survive the isin — the
    exchange then moves at most k rows per query per block through
    topk_per_group's pre-pruned shuffle). Documents sharing no term
    with a query are excluded from that query's ranking (score 0),
    as in any inverted-index engine.

    Emits (query, doc_id, score) rows, the top k per query by
    (score desc, doc_id asc), unordered (callers sort).
    """
    from pdf_extractor_ray.ops.windows import topk_per_group

    qterms: dict[str, list[str]] = {q: sorted(set(q.split())) for q in queries}
    all_terms = sorted({t for ts in qterms.values() for t in ts})

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch.reset_index(drop=True)[text_col].str.split()
        dl = toks.str.len().fillna(0).to_numpy(dtype="int64")
        ex = toks.explode().dropna().rename("_term")
        ex = ex[ex.isin(all_terms)]
        # one (row, term) pair per containing doc -> per-term df partial
        df_part = ex.groupby([ex.index.rename("_row"), ex]).size().reset_index(name="_")
        vc = df_part["_term"].value_counts()
        out = pd.DataFrame(
            {
                "term": vc.index.astype(str),
                "df": vc.to_numpy().astype("int64"),
                "n_docs": np.zeros(len(vc), dtype="int64"),
                "sum_dl": np.zeros(len(vc), dtype="int64"),
            }
        )
        stats = pd.DataFrame(
            {
                "term": [""],
                "df": np.zeros(1, dtype="int64"),
                "n_docs": np.array([len(batch)], dtype="int64"),
                "sum_dl": np.array([int(dl.sum())], dtype="int64"),
            }
        )
        return pd.concat([out, stats], ignore_index=True)

    # bounded driver fold: <= (|qterms| + 1) rows per block
    part_rows = pd.DataFrame(
        ds.map_batches(partials, batch_format="pandas").take_all(),
        columns=["term", "df", "n_docs", "sum_dl"],
    )
    n_docs = int(part_rows["n_docs"].sum())
    avgdl = float(part_rows["sum_dl"].sum()) / n_docs if n_docs else 1.0
    dfs = part_rows[part_rows["term"] != ""].groupby("term")["df"].sum()
    idf = {
        t: float(np.log(1.0 + (n_docs - int(dfs.get(t, 0)) + 0.5) / (int(dfs.get(t, 0)) + 0.5)))
        for t in all_terms
    }

    def score(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch.reset_index(drop=True)[text_col].str.split()
        dl = toks.str.len().fillna(0).to_numpy(dtype="float64")
        ids = batch.reset_index(drop=True)[id_col]
        ex = toks.explode().dropna().rename("_term")
        ex = ex[ex.isin(all_terms)]
        if ex.empty:
            return pd.DataFrame(
                {
                    "query": pd.Series([], dtype="object"),
                    id_col: pd.Series([], dtype=ids.dtype),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        tf = ex.groupby([ex.index.rename("_row"), ex]).size().reset_index(name="tf")
        tf.columns = ["_row", "term", "tf"]
        row = tf["_row"].to_numpy()
        tfv = tf["tf"].to_numpy(dtype="float64")
        denom = tfv + k1 * (1.0 - b + b * dl[row] / avgdl)
        tf["contrib"] = (
            tf["term"].map(idf).to_numpy(dtype="float64") * tfv * (k1 + 1.0) / denom
        )
        outs = []
        for q, terms in qterms.items():
            hits = tf[tf["term"].isin(terms)]
            if hits.empty:
                continue
            sc = hits.groupby("_row")["contrib"].sum()
            outs.append(
                pd.DataFrame(
                    {
                        "query": q,
                        id_col: ids.iloc[sc.index].to_numpy(),
                        "score": sc.to_numpy(dtype="float64"),
                    }
                )
            )
        if not outs:
            return pd.DataFrame(
                {
                    "query": pd.Series([], dtype="object"),
                    id_col: pd.Series([], dtype=ids.dtype),
                    "score": pd.Series([], dtype="float64"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    scored = ds.map_batches(score, batch_format="pandas")
    return topk_per_group(scored, key="query", val="score", k=k, tiebreak=id_col)


def zipf_slope(
    ds: ray.data.Dataset, text_col: str = "text", top_n: int = 1000
) -> pd.DataFrame:
    """Zipf's-law fit over the corpus term-frequency distribution: the
    OLS slope (and intercept) of ln(count) on ln(rank) across the top
    `top_n` terms (rank by count desc, term asc). Natural text sits
    near slope -1; machine-generated or template-heavy corpora bend
    away — a one-number corpus-health signal (Zipf 1949; Piantadosi
    2014 review).

    Shape: the distributed word count is the only corpus-sized work
    (one (term, partial) row per distinct term per block through
    grouped_sum); a per-block Arrow partial top-k caps the sort input
    at top_n rows per block and exactly top_n rows reach the driver,
    where the closed-form slope is a constant-size computation —
    top_n is a capped parameter, not data-scaled. Returns one row
    (n_terms, zipf_slope, zipf_intercept)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch[text_col].str.split().explode().dropna()
        toks = toks[toks != ""]
        vc = toks.value_counts()
        return pd.DataFrame(
            {"term": vc.index.astype(str), "n": vc.to_numpy().astype("int64")}
        )

    counts = grouped_sum(
        ds.map_batches(local_counts, batch_format="pandas"), ["term"], ["n"], counts=False
    )
    order = [("sum_n", "descending"), ("term", "ascending")]

    def partial_top(t: pa.Table) -> pa.Table:
        return t.sort_by(order).slice(0, top_n)

    top = (
        counts.map_batches(partial_top, batch_format="pyarrow")
        .sort(["sum_n", "term"], descending=[True, False])
        .limit(top_n)
        .to_pandas()
    )
    c = top["sum_n"].to_numpy(dtype="float64")
    x = np.log(np.arange(1, len(c) + 1, dtype="float64"))
    y = np.log(c)
    n = float(len(c))
    sx, sy, sxy, sxx = x.sum(), y.sum(), (x * y).sum(), (x * x).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return pd.DataFrame(
        {
            "n_terms": np.array([len(c)], dtype="int64"),
            "zipf_slope": [slope],
            "zipf_intercept": [intercept],
        }
    )


_DRIFT_SCHEMA = pa.schema(
    [("term", pa.string()), ("n_a", pa.int64()), ("n_b", pa.int64()), ("drift", pa.int64())]
)


def vocab_drift(
    ds_a: ray.data.Dataset,
    ds_b: ray.data.Dataset,
    top_n: int = 50,
    text_col: str = "text",
    num_partitions: int = 32,
) -> pd.DataFrame:
    """Vocabulary DRIFT between two corpus snapshots: the top_n terms
    whose relative frequency moved most between corpus A and corpus B
    — the cheap monitor that catches a crawl gone wrong (a spam
    campaign, an encoding regression, a seed-list change) before
    anything downstream trains on it.

    Exactness contract: the drift score is the cross-multiplied
    INTEGER |n_a * N_b - n_b * N_a| (N = corpus token totals), never
    the float |n_a/N_a - n_b/N_b| — order-free and bit-identical to
    the SQL twin's HUGEINT arithmetic. Inside the per-partition top
    pass the products use Python-int (object-dtype) arithmetic, so
    they cannot overflow int64 at web scale; only the top_n * P
    candidate rows reach the driver (emitted scores must still fit
    int64 — true whenever n * N < 2^63, i.e. any corpus the fixture
    tables model; the SQL twin casts through HUGEINT either way).

    Shape: per-batch term value_counts partials for both sides union
    into ONE grouped_sum (term-keyed exchange), totals come from two
    scalar aggregates, and the argtop pass is hash(term)-partitioned
    with a driver reduce over P * top_n rows."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def side_counts(side: int):
        def f(batch: pd.DataFrame) -> pd.DataFrame:
            toks = batch[text_col].astype(str).str.split().explode().dropna()
            toks = toks[toks != ""]
            vc = toks.value_counts()
            return pd.DataFrame(
                {
                    "term": vc.index.astype(str),
                    "ca": (vc.to_numpy() if side == 0 else np.zeros(len(vc))).astype("int64"),
                    "cb": (vc.to_numpy() if side == 1 else np.zeros(len(vc))).astype("int64"),
                }
            )

        return f

    both = ds_a.map_batches(side_counts(0), batch_format="pandas").union(
        ds_b.map_batches(side_counts(1), batch_format="pandas")
    )
    counts = grouped_sum(both, ["term"], ["ca", "cb"], counts=False).materialize()
    total_a = int(counts.sum("sum_ca") or 0)
    total_b = int(counts.sum("sum_cb") or 0)

    def partial_top(g: pd.DataFrame) -> pd.DataFrame:
        na = g["sum_ca"].astype(object).to_numpy()
        nb = g["sum_cb"].astype(object).to_numpy()
        # Python-int products: exact at any corpus size
        score = np.array([abs(int(a) * total_b - int(b2) * total_a) for a, b2 in zip(na, nb)], dtype=object)
        out = pd.DataFrame(
            {
                "term": g["term"].to_numpy(),
                "n_a": g["sum_ca"].to_numpy(dtype="int64"),
                "n_b": g["sum_cb"].to_numpy(dtype="int64"),
                "drift": score,
            }
        )
        out = out.sort_values(["drift", "term"], ascending=[False, True], kind="stable").head(top_n)
        out["drift"] = out["drift"].astype("int64")  # emitted candidates must fit
        return out

    # P * top_n rows — driver-bounded by construction; Arrow blocks keep
    # the columns when every partition is empty
    cand = hash_partition(counts, column_hash("term"), num_partitions, partial_top, _DRIFT_SCHEMA)
    cand = pa.concat_tables(ray.get(cand.to_arrow_refs())).to_pandas()
    cand = cand.sort_values(["drift", "term"], ascending=[False, True], kind="stable").head(top_n)
    return cand.reset_index(drop=True)


# script classes for script_mix_signals — each (name, regex char class)
# pair must match the docs_script_mix oracle SQL verbatim (RE2-safe:
# plain codepoint ranges, no \p{Script=} shorthand, no lookaround)
_SCRIPT_CLASSES = (
    ("latin", "[A-Za-zÀ-ɏ]"),
    ("cjk", "[぀-ヿ一-鿿]"),
    ("cyrillic", "[Ѐ-ӿ]"),
    ("arabic", "[؀-ۿ]"),
)


def script_mix_signals(
    ds: ray.data.Dataset,
    text_col: str = "text",
    keep_cols: list | None = None,
    min_fraction: float = 0.05,
) -> ray.data.Dataset:
    """Unicode script-mix detection — the mixed-script spam signal
    (keyword-stuffed pages interleaving CJK/Cyrillic into Latin text
    defeat single-language filters; CCNet-style pipelines gate on
    script consistency before language ID). Counts letters per script
    class (Latin incl. Latin-1/Extended, CJK kana+unified, Cyrillic,
    Arabic), takes fractions over the doc's total lettered chars, and
    flags a doc `mixed` when >= 2 scripts each clear `min_fraction`.

    Row-local and shuffle-free (one vectorized str.count per class
    per batch). Emits keep_cols + per-script counts, n_letters,
    n_scripts, mixed. The char classes are plain codepoint ranges so
    the DuckDB twin uses the IDENTICAL regexes (RE2-safe)."""
    keep = list(keep_cols or [])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            out = pd.DataFrame({c: pd.Series(dtype="object") for c in keep})
            for name, _ in _SCRIPT_CLASSES:
                out[f"n_{name}"] = pd.Series(dtype="int64")
            out["n_letters"] = pd.Series(dtype="int64")
            out["n_scripts"] = pd.Series(dtype="int64")
            out["mixed"] = pd.Series(dtype="bool")
            return out
        t = batch[text_col].astype(str)
        out = batch[keep].copy().reset_index(drop=True)
        counts = {}
        for name, cls in _SCRIPT_CLASSES:
            counts[name] = t.str.count(cls).to_numpy(dtype=np.int64)
            out[f"n_{name}"] = counts[name]
        total = np.sum(np.stack(list(counts.values())), axis=0)
        out["n_letters"] = total
        denom = np.maximum(total, 1)
        n_scripts = np.sum(
            np.stack([c / denom >= min_fraction for c in counts.values()]), axis=0
        ).astype(np.int64)
        out["n_scripts"] = n_scripts
        out["mixed"] = n_scripts >= 2
        return out

    return ds.map_batches(f, batch_format="pandas")


# mojibake artifact literals — the strings UTF-8 text acquires when
# round-tripped through cp1252/Latin-1 (the ftfy catalogue's dominant
# entries). PLAIN LITERALS by design: no character classes, so the
# DuckDB twin counts the IDENTICAL strings with replace()-arithmetic.
_MOJIBAKE_CLASSES = (
    ("accents", ("\u00c3\u00a9", "\u00c3\u00a8", "\u00c3\u00bc", "\u00c3\u00b1", "\u00c3\u00a1")),  # Ã© Ã¨ Ã¼ Ã± Ã¡
    ("punct", ("\u00e2\u20ac\u2122", "\u00e2\u20ac\u0153", "\u00e2\u20ac\u201d", "\u00e2\u20ac\u201c")),  # â€™ â€œ â€” â€“
    ("nbsp", ("\u00c2 ", "\u00c2\u00b0")),  # Â+space, Â°
)


def mojibake_signals(
    ds: ray.data.Dataset,
    text_col: str = "text",
    keep_cols: list | None = None,
    max_per_kchars: float = 1.0,
) -> ray.data.Dataset:
    """Encoding-damage detection (the ftfy problem class): UTF-8 text
    decoded as cp1252/Latin-1 leaves unmistakable artifact strings —
    'Ã©' for é, 'â€™' for a curly apostrophe, stray 'Â' before
    NBSP/degree. Real crawls carry double-encoded pockets that poison
    tokenizers; flagging them BEFORE dedup keeps a mojibake mirror
    from shielding the clean copy. Counts literal artifact hits per
    class and flags docs above `max_per_kchars` artifacts per 1000
    chars.

    Row-local, shuffle-free, one vectorized count per literal. The
    probes are plain literals (never regex classes — cp1252 vs
    Latin-1 readings of continuation bytes do not form contiguous
    codepoint ranges), mirrored verbatim by the DuckDB twin via
    replace()-length arithmetic."""
    keep = list(keep_cols or [])

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            out = pd.DataFrame({c: pd.Series(dtype="object") for c in keep})
            for name, _ in _MOJIBAKE_CLASSES:
                out[f"n_{name}"] = pd.Series(dtype="int64")
            out["n_artifacts"] = pd.Series(dtype="int64")
            out["per_kchars"] = pd.Series(dtype="float64")
            out["damaged"] = pd.Series(dtype="bool")
            return out
        t = batch[text_col].astype(str)
        out = batch[keep].copy().reset_index(drop=True)
        total = np.zeros(len(batch), dtype=np.int64)
        for name, lits in _MOJIBAKE_CLASSES:
            c = np.zeros(len(batch), dtype=np.int64)
            for lit in lits:
                c += t.str.count(re.escape(lit)).to_numpy(dtype=np.int64)
            out[f"n_{name}"] = c
            total += c
        out["n_artifacts"] = total
        chars = np.maximum(t.str.len().to_numpy(dtype=np.int64), 1)
        per_k = total * 1000.0 / chars
        out["per_kchars"] = per_k
        out["damaged"] = per_k > max_per_kchars
        return out

    return ds.map_batches(f, batch_format="pandas")


def _doc_trigram_events(batch: pd.DataFrame, text_col: str) -> pd.DataFrame:
    """(doc_id, g3, ctx, b2, w2, w3, tf) — one row per distinct
    trigram per document (a doc's text lives in ONE row, so tf is
    complete here). Vectorized explode + two shifts, no row loop."""
    empty = pd.DataFrame(
        {
            "doc_id": pd.Series([], dtype="int64"),
            "g3": pd.Series([], dtype="object"),
            "ctx": pd.Series([], dtype="object"),
            "b2": pd.Series([], dtype="object"),
            "w2": pd.Series([], dtype="object"),
            "w3": pd.Series([], dtype="object"),
            "tf": pd.Series([], dtype="int64"),
        }
    )
    toks = batch.set_index("doc_id")[text_col].str.split().explode().dropna()
    if toks.empty:
        return empty
    grp = toks.groupby(level=0)
    nxt = grp.shift(-1)
    nxt2 = grp.shift(-2)
    mask = nxt2.notna()
    if not mask.any():
        return empty
    w1 = toks[mask].astype(str)
    w2 = nxt[mask].astype(str)
    w3 = nxt2[mask].astype(str)
    ev = pd.DataFrame(
        {
            "doc_id": w1.index.to_numpy(),
            "g3": (w1 + " " + w2 + " " + w3).to_numpy(),
            "ctx": (w1 + " " + w2).to_numpy(),
            "b2": (w2 + " " + w3).to_numpy(),
            "w2": w2.to_numpy(),
            "w3": w3.to_numpy(),
        }
    )
    out = (
        ev.groupby(["doc_id", "g3"], sort=False)
        .agg(
            ctx=("ctx", "first"),
            b2=("b2", "first"),
            w2=("w2", "first"),
            w3=("w3", "first"),
            tf=("ctx", "size"),
        )
        .reset_index()
    )
    out["tf"] = out["tf"].astype("int64")
    return out[["doc_id", "g3", "ctx", "b2", "w2", "w3", "tf"]]


_HOP1_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("g3", pa.string()), ("w3", pa.string()), ("tf", pa.int64()),
     ("_ab", pa.float64())]
)
_HOP2_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("g3", pa.string()), ("tf", pa.int64()), ("_lp", pa.float64())]
)
_TRIGRAM_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_trigrams", pa.int64()), ("logprob", pa.float64()),
     ("avg_logprob", pa.float64())]
)


def trigram_jm_logprob(
    ds: ray.data.Dataset,
    text_col: str = "text",
    lambdas: tuple = (0.6, 0.3, 0.1),
    broadcast_max_terms: int = 1_000_000,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document log-likelihood under a Jelinek-Mercer-interpolated
    trigram LM trained on the corpus itself — the top rung of the
    unigram/bigram/trigram quality ladder (Jelinek & Mercer 1980;
    CCNet scores with a smoothed KenLM the same way). Per trigram
    event (w1 w2 w3):

        P = l3*c3(w1w2w3)/cc(w1w2) + l2*c2(w2w3)/ch(w2) + l1*cu(w3)/N

    where cc counts TRIGRAM CONTEXTS (not raw bigrams — a doc-final
    bigram heads no trigram), c2/ch are corpus bigram/bigram-head
    counts over ALL adjacent pairs, cu unigram counts, N total tokens.
    Docs with < 3 tokens produce no row.

    Two EXACT tiers (the bigram_logprob shape, one hop deeper):

    - broadcast: one grouped_sum builds all five count tables; entries
      with count >= 2 broadcast (absence proves count == 1); scoring
      is shuffle-free.
    - shuffle: hop 1 co-shuffles trigram events AND slim per-batch
      bigram-count partials on hash(w2) — every occurrence of a
      trigram, of its context, of its backoff bigram and of that
      bigram's head shares w2, so the partition computes the first two
      interpolation terms exactly; hop 2 co-shuffles the carried
      events with unigram-count partials on hash(w3) to add the
      unigram term (N is one exact global scalar); hop 3 reduces per
      doc on hash(doc_id). Both tiers evaluate the SAME left-to-right
      float expression per event and sum each doc in (doc_id, g3)
      order — bit-identical across tiers (pinned in tests)."""
    import math

    import ray as _ray

    from pdf_extractor_ray.ops.relational import grouped_sum

    l3, l2, l1 = (float(x) for x in lambdas)

    def local_counts(batch: pd.DataFrame) -> pd.DataFrame:
        toks = batch.set_index("doc_id")[text_col].str.split().explode().dropna()
        keys: list[np.ndarray] = []
        ns: list[np.ndarray] = []
        if not toks.empty:
            toks = toks.astype(str)
            vc = toks.value_counts()
            keys.append(("u\x1f" + vc.index).to_numpy())
            ns.append(vc.to_numpy())
            keys.append(np.array(["N\x1f"], dtype=object))
            ns.append(np.array([len(toks)], dtype=np.int64))
            nxt = toks.groupby(level=0).shift(-1)
            m = nxt.notna()
            if m.any():
                head = toks[m]
                bg = head + " " + nxt[m].astype(str)
                vb = bg.value_counts()
                vh = head.value_counts()
                keys += [("b\x1f" + vb.index).to_numpy(), ("h\x1f" + vh.index).to_numpy()]
                ns += [vb.to_numpy(), vh.to_numpy()]
                nxt2 = toks.groupby(level=0).shift(-2)
                m2 = nxt2.notna()
                if m2.any():
                    g3 = toks[m2] + " " + nxt[m2].astype(str) + " " + nxt2[m2].astype(str)
                    ctx = toks[m2] + " " + nxt[m2].astype(str)
                    v3 = g3.value_counts()
                    vcx = ctx.value_counts()
                    keys += [("t\x1f" + v3.index).to_numpy(), ("c\x1f" + vcx.index).to_numpy()]
                    ns += [v3.to_numpy(), vcx.to_numpy()]
        if not keys:
            return pd.DataFrame(
                {"key": pd.Series([], dtype="object"), "n": pd.Series([], dtype="int64")}
            )
        return pd.DataFrame(
            {
                "key": np.concatenate(keys),
                "n": np.concatenate(ns).astype("int64"),
            }
        )

    counts = grouped_sum(
        ds.map_batches(local_counts, batch_format="pandas"), ["key"], ["n"], counts=False
    ).materialize()

    def keep_broadcastable(b: pd.DataFrame) -> pd.DataFrame:
        return b[(b["sum_n"] >= 2) | (b["key"] == "N\x1f")]

    multi = counts.map_batches(keep_broadcastable, batch_format="pandas")

    def per_doc(out: pd.DataFrame) -> pd.DataFrame:
        out = out.sort_values(["doc_id", "g3"], kind="stable")
        g = out.groupby("doc_id", sort=True)
        res = pd.DataFrame(
            {"n_trigrams": g["tf"].sum().astype("int64"), "logprob": g["_lp"].sum()}
        ).reset_index()
        res["avg_logprob"] = res["logprob"] / res["n_trigrams"]
        return res[["doc_id", "n_trigrams", "logprob", "avg_logprob"]]

    def event_lp(ev: pd.DataFrame, cnt) -> pd.DataFrame:
        """The ONE shared float expression (both tiers route through
        here): p = l3*c3/cc + l2*c2/ch + l1*cu/N, lp = tf * ln(p)."""
        c3 = ev["g3"].map(lambda k: cnt("t\x1f" + k)).to_numpy(dtype=np.float64)
        cc = ev["ctx"].map(lambda k: cnt("c\x1f" + k)).to_numpy(dtype=np.float64)
        c2 = ev["b2"].map(lambda k: cnt("b\x1f" + k)).to_numpy(dtype=np.float64)
        ch = ev["w2"].map(lambda k: cnt("h\x1f" + k)).to_numpy(dtype=np.float64)
        cu = ev["w3"].map(lambda k: cnt("u\x1f" + k)).to_numpy(dtype=np.float64)
        nn = float(cnt("N\x1f"))
        p = l3 * (c3 / cc) + l2 * (c2 / ch) + l1 * (cu / nn)
        ev = ev.copy()
        ev["_lp"] = ev["tf"].to_numpy(dtype=np.float64) * np.log(p)
        return ev

    if multi.count() <= broadcast_max_terms:
        tbl = _collect(multi, ["key", "sum_n"])
        cmap = dict(zip(tbl["key"], tbl["sum_n"].astype("int64")))
        ref = _ray.put(cmap)

        def score(batch: pd.DataFrame) -> pd.DataFrame:
            key = ("trigram_jm", ref.hex())
            m = _ANALYZER_CACHE.get(key)
            if m is None:
                m = _ANALYZER_CACHE[key] = _ray.get(ref)
            ev = _doc_trigram_events(batch, text_col)
            if not len(ev):
                return per_doc(ev.assign(_lp=pd.Series([], dtype="float64")))
            return per_doc(event_lp(ev, lambda k: m.get(k, 1)))

        return ds.map_batches(score, batch_format="pandas")

    # ---- shuffle tier: exact at any vocabulary size ----
    n_total = int(
        counts.map_batches(
            lambda b: b[b["key"] == "N\x1f"], batch_format="pandas"
        ).to_pandas()["sum_n"].sum()
    )

    def routed_counts(route) -> ray.data.Dataset:
        """Count rows (key, sum_n) plus `_tok`, the token that routes
        them; rows whose route is None are not read by the hop."""

        def f(b: pd.DataFrame) -> pd.DataFrame:
            b = b.assign(_tok=route(b["key"].str[0], b["key"].str[2:]))
            return b[b["_tok"].notna()]

        return counts.map_batches(f, batch_format="pandas")

    def hop1_token(pref: pd.Series, body: pd.Series) -> pd.Series:
        # every count a trigram event reads shares its middle token w2:
        # t:'w1 w2 w3' and c:'w1 w2' route by their second token,
        # b:'w2 w3' by its first, h:'w2' by itself
        sp = body.str.split(" ")
        tok = sp.str[1].where(pref.isin(["t", "c"]), sp.str[0])
        return tok.where(pref.isin(["t", "c", "b", "h"]))

    def count_map(cm: pd.DataFrame) -> dict:
        return dict(zip(cm["key"], cm["sum_n"].tolist()))

    # hop 1: by w2 — trigram/context/bigram/head tables are complete
    # per partition (all share the middle/head token w2)
    def hop1(ev: pd.DataFrame, cm: pd.DataFrame) -> pd.DataFrame:
        cnt = count_map(cm)
        get = lambda k: cnt.get(k, 1)  # noqa: E731
        c3 = ev["g3"].map(lambda k: get("t\x1f" + k)).to_numpy(dtype=np.float64)
        cc = ev["ctx"].map(lambda k: get("c\x1f" + k)).to_numpy(dtype=np.float64)
        c2 = ev["b2"].map(lambda k: get("b\x1f" + k)).to_numpy(dtype=np.float64)
        ch = ev["w2"].map(lambda k: get("h\x1f" + k)).to_numpy(dtype=np.float64)
        return ev[["doc_id", "g3", "w3", "tf"]].assign(_ab=l3 * (c3 / cc) + l2 * (c2 / ch))

    events = ds.map_batches(
        _doc_trigram_events, fn_kwargs={"text_col": text_col}, batch_format="pandas"
    )
    h1 = co_shuffle(
        events, routed_counts(hop1_token), column_hash("w2"), column_hash("_tok"),
        num_partitions, hop1, _HOP1_SCHEMA,
    )

    # hop 2: by w3 — attach the unigram term and take the log
    def hop2(ev: pd.DataFrame, cm: pd.DataFrame) -> pd.DataFrame:
        cnt = count_map(cm)
        cu = ev["w3"].map(lambda k: cnt.get("u\x1f" + k, 1)).to_numpy(dtype=np.float64)
        p = ev["_ab"].to_numpy(dtype=np.float64) + l1 * (cu / float(n_total))
        lp = ev["tf"].to_numpy(dtype=np.float64) * np.log(p)
        return ev[["doc_id", "g3", "tf"]].assign(_lp=lp)

    h2 = co_shuffle(
        h1, routed_counts(lambda pref, body: body.where(pref == "u")),
        column_hash("w3"), column_hash("_tok"), num_partitions, hop2, _HOP2_SCHEMA,
    )
    # hop 3: per-doc reduce
    return hash_partition(h2, column_hash("doc_id"), num_partitions, per_doc, _TRIGRAM_SCHEMA)
