"""Corpus-level quality filtering for training data (the Gopher-rule
family from Rae et al. 2021, "Scaling Language Models" §A1.1 — public
heuristics also used by RefinedWeb/Dolma): per-document signals plus a
deterministic keep/drop verdict.

Ray shape: one vectorized pandas pass per batch, no shuffle — every
signal is row-local (the docs table carries whole documents per row).
All signals are SQL-expressible, so the whole operator has a DuckDB
oracle (docs_gopher_quality in __ray_entry__).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

# tiny cross-language function-word probe (Gopher uses an English
# list; this corpus is multilingual, so the probe carries the most
# frequent function words of each Latin-script corpus language —
# en/de/fr/es — and stays minimal and deterministic). Must match the
# docs_gopher_quality oracle SQL list verbatim.
STOP_WORDS = (
    "the", "be", "to", "of", "and", "that", "have", "with",   # en
    "der", "die", "und", "das", "den", "mit",                 # de
    "le", "la", "les", "de", "et", "des",                     # fr
    "el", "los", "las", "que", "con", "una",                  # es
)

# keep-rule thresholds (Rae et al. §A1.1, adapted to corpus scale)
MIN_WORDS = 40
MAX_WORDS = 100_000
MIN_MEAN_WORD_LEN = 2.0
MAX_MEAN_WORD_LEN = 12.0
MIN_ALPHA_FRAC = 0.6  # fraction of words containing an ASCII letter
MIN_STOP_HITS = 2     # total stopword occurrences


def _signal_frame(texts: pd.Series) -> pd.DataFrame:
    """Signals for a positionally-indexed text series (the shared
    kernel of gopher_signals and gopher_filter). Rows align 1:1 with
    the input — grouping is by ROW, not by doc_id, so a pre-dedup
    batch carrying the same id twice scores each copy independently
    instead of merging their token streams."""
    toks = texts.reset_index(drop=True).str.split().explode().dropna()
    toks = toks[toks != ""]
    n_words = toks.groupby(level=0).size()
    mean_wl = toks.str.len().groupby(level=0).sum() / n_words
    alpha = toks.str.contains("[A-Za-z]", regex=True)
    alpha_frac = alpha.groupby(level=0).sum() / n_words
    stop_hits = toks.str.lower().isin(STOP_WORDS).groupby(level=0).sum()

    out = pd.DataFrame(index=pd.RangeIndex(len(texts)))
    out["n_words"] = n_words.reindex(out.index).fillna(0).astype("int64")
    out["mean_word_len"] = mean_wl.reindex(out.index).fillna(0.0).astype("float64")
    out["alpha_frac"] = alpha_frac.reindex(out.index).fillna(0.0).astype("float64")
    out["n_stop_hits"] = stop_hits.reindex(out.index).fillna(0).astype("int64")
    out["keep"] = (
        out["n_words"].between(MIN_WORDS, MAX_WORDS)
        & out["mean_word_len"].between(MIN_MEAN_WORD_LEN, MAX_MEAN_WORD_LEN)
        & (out["alpha_frac"] >= MIN_ALPHA_FRAC)
        & (out["n_stop_hits"] >= MIN_STOP_HITS)
    ).astype("bool")
    return out


def gopher_signals(batch: pd.DataFrame, text_col: str = "text") -> pd.DataFrame:
    """Vectorized per-doc quality signals: whitespace word count, mean
    word length, alphabetic-word fraction, stopword hits, keep flag."""
    sig = _signal_frame(batch[text_col])
    sig.insert(0, "doc_id", batch["doc_id"].to_numpy())
    return sig


def gopher_quality(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """Signal table for every document (keep flag included, rows not
    dropped — downstream decides; auditable against the SQL oracle)."""
    return ds.map_batches(
        gopher_signals, fn_kwargs={"text_col": text_col}, batch_format="pandas"
    )


def gopher_filter(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """Corpus with failing documents dropped (the actual filter).

    Batches stay zero-copy Arrow; only the TEXT column round-trips to
    pandas for the string kernels (the r3 version converted the whole
    table, copying the text column twice per batch — VERDICT r3 #7)."""
    import pyarrow as pa

    def drop(t: pa.Table) -> pa.Table:
        texts = t.column(text_col).to_pandas()
        return t.filter(pa.array(_signal_frame(texts)["keep"].to_numpy()))

    return ds.map_batches(drop, batch_format="pyarrow")


def _repetition_frame(texts: pd.Series, top_ns=(2, 3, 4), dup_n: int = 5) -> pd.DataFrame:
    """Gopher REPETITION signals (Rae et al. 2021 §A1.1's second
    family) for a positionally-indexed text series, one vectorized
    pass, no per-row Python loop:

    - top{n}_frac (n in top_ns): characters claimed by the single most
      frequent in-document word n-gram — occurrences x gram length /
      text length (ties break to the lexicographically smallest gram;
      0.0 when the doc has fewer than n tokens).
    - dup{dup_n}_frac: fraction of TOKEN POSITIONS covered by at least
      one in-document word dup_n-gram that occurs 2+ times (interval
      union, so overlapping duplicated grams never double-count).

    Definitions are pinned here and mirrored verbatim by the
    docs_gopher_repetition DuckDB oracle."""
    texts = texts.reset_index(drop=True).astype(str)
    text_len = texts.str.len().to_numpy()
    toks = texts.str.split().explode().dropna()
    toks = toks[toks != ""]
    n_words = (
        toks.groupby(level=0).size().reindex(pd.RangeIndex(len(texts))).fillna(0).astype("int64")
    )
    out = pd.DataFrame({"n_words": n_words})

    def gram_series(n: int) -> tuple[pd.Series, np.ndarray]:
        """(grams, start_positions): grams keep toks' row labels; the
        start array is POSITIONALLY aligned (never .loc on the
        duplicate-labeled row index)."""
        g = toks
        for j in range(1, n):
            g = g + " " + toks.groupby(level=0).shift(-j)
        valid = g.notna().to_numpy()  # NaN propagated through tail shifts
        starts = toks.groupby(level=0).cumcount().to_numpy()[valid]
        return g[valid], starts

    for n in top_ns:
        g, _ = gram_series(n)
        if g.empty:
            out[f"top{n}_frac"] = 0.0
            continue
        vc = g.groupby([g.index, g.values]).size().reset_index()
        vc.columns = ["row", "gram", "cnt"]
        vc = vc.sort_values(["row", "cnt", "gram"], ascending=[True, False, True], kind="stable")
        top = vc.groupby("row", sort=False).first()
        frac = (top["cnt"] * top["gram"].str.len()) / text_len[top.index]
        out[f"top{n}_frac"] = (
            pd.Series(frac, index=top.index).reindex(out.index).fillna(0.0).astype("float64")
        )

    g, starts = gram_series(dup_n)
    col = f"dup{dup_n}_frac"
    if g.empty:
        out[col] = 0.0
    else:
        ev = pd.DataFrame({"row": g.index, "gram": g.values, "start": starts})
        # dup occurrences: (row, gram) groups of size >= 2
        sizes = ev.groupby(["row", "gram"])["start"].transform("size")
        dup = ev[sizes >= 2]
        if dup.empty:
            out[col] = 0.0
        else:
            # interval union over fixed-length windows: explode starts to
            # covered token positions, dedupe, count per row
            rows = np.repeat(dup["row"].to_numpy(), dup_n)
            cover = np.repeat(dup["start"].to_numpy(), dup_n) + np.tile(
                np.arange(dup_n), len(dup)
            )
            covered = (
                pd.DataFrame({"row": rows, "p": cover})
                .drop_duplicates()
                .groupby("row")
                .size()
            )
            out[col] = (
                (covered / n_words).reindex(out.index).fillna(0.0).astype("float64")
            )
    return out


def gopher_repetition(
    ds: ray.data.Dataset, text_col: str = "text", top_ns=(2, 3, 4), dup_n: int = 5
) -> ray.data.Dataset:
    """Per-document repetition signal table (doc_id, n_words,
    top2/3/4_frac, dup5_frac) — row-local, shuffle-free, one vectorized
    pandas pass per batch (see _repetition_frame for the pinned
    definitions)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        sig = _repetition_frame(batch[text_col], top_ns=top_ns, dup_n=dup_n)
        sig.insert(0, "doc_id", batch["doc_id"].to_numpy())
        return sig

    return ds.map_batches(f, batch_format="pandas")


# ---------------------------------------------------------------------------
# C4 line-level filter (Raffel et al. 2020 §2.2 — the public heuristics
# applied line-by-line before page-level rules)
# ---------------------------------------------------------------------------

# Terminal punctuation a retained line must end with. The paper's set is
# (".", "?", "!", '"') — English-only; the CJK full stop is added here
# because this corpus is multilingual (documented adaptation, pinned by
# tests).
C4_END_MARKS = (".", "?", "!", '"', "。")
C4_MIN_WORDS_PER_LINE = 5
C4_MIN_KEPT_LINES = 3
# Line-level ban words / page-level ban substrings, matched lowercase.
C4_LINE_BANNED = ("javascript",)
C4_DOC_BANNED = ("lorem ipsum", "{")


def _c4_frame(texts: pd.Series) -> pd.DataFrame:
    """C4 line-filter signals for a positionally-indexed text series,
    one vectorized explode pass (same row-alignment contract as
    _signal_frame). Per row: n_lines, n_kept_lines, doc-level keep,
    and the filtered text (kept stripped lines joined by newlines).

    Line kept iff, after strip: ends with a C4_END_MARKS character but
    not with an ellipsis; has >= C4_MIN_WORDS_PER_LINE whitespace
    words; contains no C4_LINE_BANNED substring (lowercased). Doc kept
    iff >= C4_MIN_KEPT_LINES lines survive and the full text contains
    no C4_DOC_BANNED substring (lowercased) — the paper's
    lorem-ipsum / curly-brace page rules. The three-sentence-span
    dedup of the same section lives in ops/scrub.dup_span_scrub."""
    t = texts.reset_index(drop=True).fillna("")
    lines = t.str.split("\n").explode().str.strip()
    low = lines.str.lower()
    ends_ok = lines.str.endswith(C4_END_MARKS) & ~lines.str.endswith("...")
    enough_words = lines.str.split().str.len().fillna(0) >= C4_MIN_WORDS_PER_LINE
    banned = pd.Series(False, index=lines.index)
    for s in C4_LINE_BANNED:
        banned |= low.str.contains(s, regex=False)
    keep_line = ends_ok & enough_words & ~banned

    out = pd.DataFrame(index=pd.RangeIndex(len(t)))
    grp = keep_line.groupby(level=0)
    out["n_lines"] = lines.groupby(level=0).size().reindex(out.index).fillna(0).astype("int64")
    out["n_kept_lines"] = grp.sum().reindex(out.index).fillna(0).astype("int64")
    kept_text = (
        lines[keep_line].groupby(level=0).agg("\n".join).reindex(out.index).fillna("")
    )
    out["text"] = kept_text.astype(str)
    tl = t.str.lower()
    doc_ok = pd.Series(True, index=out.index)
    for s in C4_DOC_BANNED:
        doc_ok &= ~tl.str.contains(s, regex=False)
    out["keep"] = (doc_ok & (out["n_kept_lines"] >= C4_MIN_KEPT_LINES)).astype("bool")
    return out


def c4_signals(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Signal table (id, n_lines, n_kept_lines, keep) for every row —
    rows not dropped, auditable. Row-local, shuffle-free."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        sig = _c4_frame(batch[text_col])[["n_lines", "n_kept_lines", "keep"]]
        sig.insert(0, id_col, batch[id_col].to_numpy())
        return sig

    return ds.map_batches(f, batch_format="pandas")


def c4_filter(
    ds: ray.data.Dataset, text_col: str = "text"
) -> ray.data.Dataset:
    """The actual C4 filter: failing docs dropped, surviving docs'
    text replaced by the kept lines. Row-local, shuffle-free."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        sig = _c4_frame(batch[text_col])
        out = batch.reset_index(drop=True)[sig["keep"].to_numpy()].copy()
        out[text_col] = sig.loc[sig["keep"], "text"].to_numpy()
        return out

    return ds.map_batches(f, batch_format="pandas")


__all__ = [
    "gopher_signals",
    "gopher_quality",
    "gopher_filter",
    "gopher_repetition",
    "c4_signals",
    "c4_filter",
    "STOP_WORDS",
    "C4_END_MARKS",
]


def perplexity_buckets(
    ds: ray.data.Dataset,
    lang_col: str = "lang",
    text_col: str = "text",
    id_col: str = "doc_id",
    cuts: tuple = (0.33, 0.67),
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """CCNet-style perplexity bucketing (Wenzek et al. 2020 §4.3: cut
    each language's LM-score distribution into head/middle/tail and
    train preferentially on the head): score every document under the
    corpus's own unigram LM (ops/text_analysis.unigram_logprob — the
    self-contained stand-in for CCNet's external KenLM), cut each
    language's avg_logprob distribution at the `cuts` quantiles, and
    label docs head (best scores / lowest perplexity), middle, tail.
    Emits (id_col, lang, n_ws_tokens, logprob, avg_logprob, bucket).

    Shape: the LM scoring reuses unigram_logprob's broadcast/shuffle
    tiers; lang re-attaches via ONE co_shuffle on id mod P
    (ops/shuffle.py, never a JoinOperator actor pool); the cut
    thresholds are ONE tiny table (two rows per language) from
    grouped_quantiles' exact value-frequency reduction, collected on
    the driver and shipped as a task argument for a shuffle-free label
    scan. Scale note: the
    exact threshold stage is bounded by the distinct SCORE domain —
    for an unbounded continuous score column at 100 TB swap it for
    ops/sketch.tdigest_quantiles (same two-row-per-lang threshold
    table, approximate cuts)."""
    import pyarrow as pa

    from pdf_extractor_ray.ops.relational import grouped_quantiles
    from pdf_extractor_ray.ops.shuffle import co_shuffle
    from pdf_extractor_ray.ops.text_analysis import unigram_logprob

    scores = unigram_logprob(
        ds.select_columns([id_col, text_col]), num_partitions=num_partitions
    )

    out_schema = pa.schema(
        [
            (id_col, pa.int64()),
            (lang_col, pa.large_string()),
            ("n_ws_tokens", pa.int64()),
            ("logprob", pa.float64()),
            ("avg_logprob", pa.float64()),
        ]
    )

    def join_partition(sc: pd.DataFrame, lg: pd.DataFrame) -> pd.DataFrame:
        m = sc.merge(lg[[id_col, lang_col]], on=id_col)
        m[lang_col] = m[lang_col].astype(str)
        return m

    joined = co_shuffle(
        scores,
        ds.select_columns([id_col, lang_col]),
        id_col,
        id_col,
        num_partitions,
        join_partition,
        out_schema,
    ).materialize()

    pcts = [int(round(q * 100)) for q in cuts]
    thr = grouped_quantiles(
        joined, [lang_col], "avg_logprob", qs=cuts, num_partitions=num_partitions
    ).to_pandas()  # two rows of thresholds per language — always tiny
    lo = dict(zip(thr[lang_col], thr[f"p{pcts[0]}_avg_logprob"]))
    hi = dict(zip(thr[lang_col], thr[f"p{pcts[1]}_avg_logprob"]))

    def label(b: pd.DataFrame) -> pd.DataFrame:
        v = b["avg_logprob"].to_numpy(dtype="float64")
        lo_t = b[lang_col].map(lo).to_numpy(dtype="float64")
        hi_t = b[lang_col].map(hi).to_numpy(dtype="float64")
        b = b.copy()
        b["bucket"] = np.where(v > hi_t, "head", np.where(v > lo_t, "middle", "tail"))
        return b[[id_col, lang_col, "n_ws_tokens", "logprob", "avg_logprob", "bucket"]]

    return joined.map_batches(label, batch_format="pandas")


def compression_ratio(
    ds: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    level: int = 6,
) -> ray.data.Dataset:
    """Per-doc zlib compression ratio — the cheap repetitiveness
    signal quality pipelines use next to the Gopher n-gram rules
    (machine-generated / template / spam text compresses far below
    natural prose; DEFLATE is public RFC 1951). Row-local, shuffle-
    free; the compression IS the work, so the map is the hot loop by
    design. Emits (id_col, n_bytes, n_compressed, compression_ratio)
    where ratio = compressed/raw in (0, ~1.1]; empty docs emit ratio
    1.0."""
    import zlib

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        raw = [str(t).encode("utf-8") for t in batch[text_col]]
        nb = np.array([len(b) for b in raw], dtype="int64")
        nc = np.array([len(zlib.compress(b, level)) for b in raw], dtype="int64")
        return pd.DataFrame(
            {
                id_col: batch[id_col].to_numpy(dtype=np.int64),
                "n_bytes": nb,
                "n_compressed": nc,
                "compression_ratio": np.where(nb > 0, nc / np.maximum(nb, 1), 1.0),
            }
        )

    return ds.map_batches(f, batch_format="pandas")


_SENT_RE = __import__("re").compile(r"[.!?]+")
_VOWEL_RE = __import__("re").compile(r"[aeiouy]+")


def readability_signals(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """Classic readability + information-density signals per document
    — the complexity axis next to the Gopher well-formedness rules:

      - Flesch reading ease (Flesch 1948):
        206.835 - 1.015 * words/sentences - 84.6 * syllables/words,
        with two DOCUMENTED deterministic simplifications that make
        the score engine-portable: sentences = number of [.!?]+ runs
        (min 1), syllables = number of [aeiouy]+ runs in the
        lowercased text (a vowel-less token contributes 0). Both are
        the standard cheap approximations; the CONTRACT is exact
        reproducibility, mirrored verbatim in the SQL twin.
      - char_entropy: Shannon entropy (nats) of the per-document
        CHARACTER (code point) distribution — near-zero for
        repetition spam, high for encrypted/binary junk; natural
        prose sits in a mid band. Code points, not bytes, so the
        SQL twin's substr-per-position unnest reproduces it for
        multi-byte scripts too.

    Row-local and shuffle-free (one vectorized pass per batch). Emits
    (doc_id, n_words, n_sentences, n_syllables, flesch, char_entropy);
    empty/whitespace docs emit zeros with flesch = 206.835 (the
    formula's no-content fixed point, words = 0 treated as 0/1)."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        texts = batch[text_col].astype(str)
        n_words = texts.str.split().str.len().fillna(0).to_numpy(dtype="int64")
        n_sent = np.maximum(
            texts.str.count(_SENT_RE.pattern).to_numpy(dtype="int64"), 1
        )
        n_syl = texts.str.lower().str.count(_VOWEL_RE.pattern).to_numpy(dtype="int64")
        w = n_words.astype("float64")
        flesch = (
            206.835
            - 1.015 * (w / n_sent.astype("float64"))
            - 84.6 * np.where(w > 0, n_syl / np.maximum(w, 1.0), 0.0)
        )
        ent = np.zeros(len(texts), dtype="float64")
        for i, t in enumerate(texts):
            if not t:
                continue
            _, counts = np.unique(np.frombuffer(t.encode("utf-32-le"), dtype=np.uint32), return_counts=True)
            p = counts / counts.sum()
            ent[i] = float(-(p * np.log(p)).sum())
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_words": n_words,
                "n_sentences": n_sent,
                "n_syllables": n_syl,
                "flesch": flesch,
                "char_entropy": ent,
            }
        )

    return ds.map_batches(f, batch_format="pandas")


def mad_outliers(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    id_col: str,
    k: int = 3,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Robust per-group outlier gate via the median absolute
    deviation: flag rows with |x - median_g| > k * MAD_g — the
    heavy-tail-resistant alternative to z-scores for screening corpus
    lengths/scores (Leys et al. 2013; crawl length distributions are
    exactly the skewed case where mean/std gates misfire).

    Shape: two exact grouped-median passes through grouped_quantiles'
    value-frequency reduction (the exchange is bounded by the value
    DOMAIN, megabytes at 100 TB), each reduced (group -> median) table
    collected as k rows (group cardinality = langs/sources, bounded by
    design — the grouped_quantiles precedent) and shipped in the task
    closure; the flag pass is shuffle-free. `k` is an INTEGER so the
    comparison |dev| > k * MAD stays in exact int64 arithmetic and is
    engine-portable by construction.

    Emits (id, group, value, abs_dev, is_outlier)."""
    from pdf_extractor_ray.ops.relational import grouped_quantiles

    med = grouped_quantiles(
        ds.select_columns([group_col, value_col]), [group_col], value_col,
        qs=(0.5,), num_partitions=num_partitions,
    ).to_pandas()
    med_map = dict(zip(med[group_col], med[f"p50_{value_col}"].astype("int64")))

    def dev_rows(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {group_col: pd.Series(dtype="object"), "_dev": pd.Series(dtype="int64")}
            )
        m = b[group_col].map(med_map).to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                group_col: b[group_col],
                "_dev": np.abs(b[value_col].to_numpy(dtype="int64") - m),
            }
        )

    mad = grouped_quantiles(
        ds.map_batches(dev_rows, batch_format="pandas"), [group_col], "_dev",
        qs=(0.5,), num_partitions=num_partitions,
    ).to_pandas()
    mad_map = dict(zip(mad[group_col], mad["p50__dev"].astype("int64")))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        if len(b) == 0:
            return pd.DataFrame(
                {
                    id_col: pd.Series(dtype="int64"),
                    group_col: pd.Series(dtype="object"),
                    value_col: pd.Series(dtype="int64"),
                    "abs_dev": pd.Series(dtype="int64"),
                    "is_outlier": pd.Series(dtype="int64"),
                }
            )
        m = b[group_col].map(med_map).to_numpy(dtype="int64")
        md = b[group_col].map(mad_map).to_numpy(dtype="int64")
        dev = np.abs(b[value_col].to_numpy(dtype="int64") - m)
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(dtype="int64"),
                group_col: b[group_col],
                value_col: b[value_col].to_numpy(dtype="int64"),
                "abs_dev": dev,
                "is_outlier": (dev > k * md).astype("int64"),
            }
        )

    return ds.map_batches(flag, batch_format="pandas")


def group_mean_gate(
    ds: ray.data.Dataset,
    group_col: str = "source",
    signal_col: str = "n_chars",
    min_mean: int = 900,
    keep_cols: list[str] | None = None,
) -> ray.data.Dataset:
    """GROUP-level quality gate: drop EVERY document of a group whose
    mean signal falls below `min_mean` — the host/source-level filter
    of CCNet ("head/middle/tail by domain") and RefinedWeb (document-
    level scores aggregated per domain decide whole-domain drops): a
    consistently low-quality source is better removed wholesale than
    doc-by-doc, because its surviving tail is usually boilerplate.

    Exactness contract (CLAUDE.md cross-engine floats): the signal is
    INTEGER and the gate compares sum(signal) >= min_mean * count —
    order-free integer arithmetic, so the kept SET is bit-identical in
    any engine (the SQL twin uses the same inequality via window
    sums, never a float avg). One tiny (group, sum, count) exchange
    (grouped_sum) feeds a driver-held threshold dict under the same
    bounded-group-cardinality contract as temperature_sample; the
    gate itself is a shuffle-free vectorized filter scan."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    stats = grouped_sum(
        ds.map_batches(lambda b: b[[group_col, signal_col]], batch_format="pandas"),
        [group_col],
        [signal_col],
    ).to_pandas()  # one row per group, driver-bounded by design
    s = stats[f"sum_{signal_col}"].to_numpy(dtype="int64")
    n = stats["n"].to_numpy(dtype="int64")
    keep_groups = set(stats.loc[s >= min_mean * n, group_col])

    cols = list(keep_cols) if keep_cols else None

    def gate(b: pd.DataFrame) -> pd.DataFrame:
        out = b[b[group_col].isin(keep_groups)]
        return out[cols] if cols else out

    return ds.map_batches(gate, batch_format="pandas")


def blocklist_signals(
    ds: ray.data.Dataset,
    words: list[str],
    text_col: str = "text",
    keep_cols: list | None = None,
    max_fraction: float = 0.0,
) -> ray.data.Dataset:
    """Token-blocklist gate — the C4 badwords pass (Raffel et al.
    2020 dropped any page containing a word from a public blocklist;
    Dolma and FineWeb run the same shape with per-language lists).
    Tokens are whitespace words lowercased; a document flags when its
    blocklisted-token fraction EXCEEDS `max_fraction` (0.0 = the C4
    any-occurrence rule). Emits keep_cols + (n_tokens, n_blocked,
    blocked_fraction, flagged).

    Row-local and shuffle-free: the list broadcasts in the task
    closure (tiny), membership is one vectorized pandas isin per
    batch — at 100 TB this runs at read speed. Case-folding is ASCII
    lower() on BOTH sides (mirrors the SQL twin)."""
    keep = list(keep_cols or [])
    wset = {w.lower() for w in words}

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        if len(batch) == 0:
            out = pd.DataFrame({c: pd.Series(dtype="object") for c in keep})
            out["n_tokens"] = pd.Series(dtype="int64")
            out["n_blocked"] = pd.Series(dtype="int64")
            out["blocked_fraction"] = pd.Series(dtype="float64")
            out["flagged"] = pd.Series(dtype="bool")
            return out
        toks = batch[text_col].astype(str).str.lower().str.split()
        n = toks.str.len().to_numpy(dtype=np.int64)
        ex = toks.explode()
        hit = ex.isin(wset).groupby(level=0).sum()
        nb = hit.reindex(batch.index).fillna(0).to_numpy(dtype=np.int64)
        frac = nb / np.maximum(n, 1)
        out = batch[keep].copy().reset_index(drop=True)
        out["n_tokens"] = n
        out["n_blocked"] = nb
        out["blocked_fraction"] = frac
        out["flagged"] = frac > max_fraction
        return out

    return ds.map_batches(f, batch_format="pandas")


def gate_overlap(
    ds: ray.data.Dataset,
    gates: dict,
    text_col: str = "text",
) -> pd.DataFrame:
    """Filter-ablation overlap matrix — the governance question every
    multi-gate pipeline answers before shipping thresholds: how many
    documents does each quality gate drop, and how redundant are the
    gates pairwise? (A gate whose drops are a subset of another's is
    dead weight; two near-disjoint gates compound into unexpected
    volume loss.) `gates` maps gate name -> callable(batch) ->
    boolean drop-mask array; all gates evaluate in ONE streaming pass.

    Emits the upper-triangle matrix (gate_a, gate_b, n_dropped) with
    diagonal rows (a == b) carrying each gate's individual drop count,
    plus an ('_any', '_any') row for the union — the exact counts, not
    a sample. Exchange: k(k+1)/2 + 1 integer partials per block; the
    driver folds scalars."""
    names = sorted(gates)
    k = len(names)

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "gate_a": pd.Series(dtype="object"),
                "gate_b": pd.Series(dtype="object"),
                "n_dropped": pd.Series(dtype="int64"),
            }
        )
        if len(batch) == 0:
            return empty
        flags = np.stack(
            [np.asarray(gates[n](batch), dtype=bool) for n in names]
        )  # (k, B)
        rows = []
        for i in range(k):
            for j in range(i, k):
                rows.append((names[i], names[j], int(np.sum(flags[i] & flags[j]))))
        rows.append(("_any", "_any", int(np.sum(flags.any(axis=0)))))
        return pd.DataFrame(rows, columns=["gate_a", "gate_b", "n_dropped"])

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if parts.empty:
        return pd.DataFrame(
            {
                "gate_a": pd.Series(dtype="object"),
                "gate_b": pd.Series(dtype="object"),
                "n_dropped": pd.Series(dtype="int64"),
            }
        )
    out = (
        parts.groupby(["gate_a", "gate_b"], sort=True)["n_dropped"]
        .sum()
        .reset_index()
    )
    out["n_dropped"] = out["n_dropped"].astype("int64")
    return out


def shrunk_group_mean(
    ds: ray.data.Dataset,
    group_col: str = "source",
    signal_col: str = "n_chars",
    k: int = 20,
) -> pd.DataFrame:
    """Empirical-Bayes GROUP reputation prior: the per-group mean of an
    integer quality signal shrunk toward the corpus mean by a
    pseudo-count `k` — shrunk = (sum_g + k*global_mean) / (n_g + k).
    A host seen 3 times cannot earn an extreme reputation from 3 docs
    (it stays near the corpus mean); a host seen 50k times converges to
    its raw mean. This is the standard host-prior used to gate NEW
    crawl sources before enough documents accumulate for
    group_mean_gate's hard wholesale drop (CCNet/RefinedWeb aggregate
    per-domain decisions): rank hosts by shrunk mean, review the tail.

    Scale shape: one grouped_sum (group, sum, n) partial exchange —
    bytes per group, never per doc — then k-row driver math, same
    bounded-group-cardinality contract as group_mean_gate.

    Exactness (CLAUDE.md cross-engine floats): sums and counts stay
    int64 end-to-end; the single float expression is evaluated once
    per group from identical integer operands in both engines, and the
    emitted mean is quantized floor(x*1e6+0.5)/1e6 on BOTH sides, so
    the DuckDB twin reproduces it bitwise."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    stats = grouped_sum(
        ds.map_batches(lambda b: b[[group_col, signal_col]], batch_format="pandas"),
        [group_col],
        [signal_col],
    ).to_pandas()  # one row per group, driver-bounded by design
    s_i = stats[f"sum_{signal_col}"].to_numpy(dtype="int64")
    n_i = stats["n"].to_numpy(dtype="int64")
    # exact-integer totals (Python int, order-free), THEN one division
    gm = (int(s_i.sum()) / int(n_i.sum())) if len(stats) else 0.0
    shrunk = (s_i.astype("float64") + float(k) * gm) / (n_i.astype("float64") + float(k))
    out = pd.DataFrame(
        {
            group_col: stats[group_col],
            "n_docs": stats["n"].astype("int64"),
            f"sum_{signal_col}": stats[f"sum_{signal_col}"].astype("int64"),
            "shrunk_mean": np.floor(shrunk * 1e6 + 0.5) / 1e6,
        }
    )
    return out.sort_values(group_col).reset_index(drop=True)
