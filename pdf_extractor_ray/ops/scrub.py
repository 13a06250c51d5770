"""Corpus scrubbing operators for training-data pipelines: pattern /
PII redaction, decontamination against a phrase blocklist, and a
deterministic train/test split.

These are the standard pre-training hygiene passes (public C4 / Dolma /
RefinedWeb-style pipelines): strip personally identifiable strings,
drop documents that contain evaluation-set phrases, and split the rest
reproducibly. All three are embarrassingly parallel per-batch maps —
no shuffle — so at 100 TB they pipeline inside the same streaming pass
as extraction:

- redaction is one vectorized `Series.str.replace`/`str.count` per
  pattern per batch;
- decontamination broadcasts the blocklist once (`ray.put` for big
  lists, a task-arg constant for small literal lists) and evaluates
  one `str.contains` mask per phrase — never a join;
- the split hashes the id column per row (md5, so the assignment is
  stable across engines and reproducible in SQL: DuckDB's md5()
  matches hashlib byte-for-byte).

The corpus-level n-gram operators (dup_ngram_stats, dup_span_scrub,
ngram_overlap_fraction, ngram_decontaminate_against, eval_span_scrub)
and source_prefix_strip do need exchanges; every one runs on the one
shuffle primitive (`ops/shuffle.py`): gram rows `hash_partition` on
hash(gram), or `co_shuffle` with a reference corpus's distinct grams
(left: the docs), and both span scrubs share one doc rebuild
(`_scrub_rebuild`, the docs co-shuffled with their removed span
starts on doc_id). Grams travel as strings, so every count is exact.
"""

from __future__ import annotations

import hashlib
import re
from collections.abc import Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import _typed_table, co_shuffle, column_hash, hash_partition

# Default PII pattern table. Order matters: email first (its digits
# must not be re-counted by later patterns), ipv4 BEFORE phone (the
# phone pattern would otherwise eat three dotted octets).
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b(?:\d{1,3}\.){3}\d{1,3}\b", "<IP>"),
    ("phone", r"(?:\+?\d{1,3}[-. ])?\(?\d{2,4}\)?[-. ]\d{3,4}[-. ]\d{3,4}\b", "<PHONE>"),
)

NUMBER_PATTERN: tuple[tuple[str, str, str], ...] = (("number", r"[0-9]+", "<NUM>"),)


def redact(
    ds: ray.data.Dataset,
    text_col: str = "text",
    patterns: Sequence[tuple[str, str, str]] = PII_PATTERNS,
    id_cols: Sequence[str] = ("doc_id",),
    out_col: str = "scrubbed",
) -> ray.data.Dataset:
    """Redact every match of each (name, regex, replacement) pattern
    and count redactions per row. Pure per-batch map (no shuffle);
    regexes compile once per worker process via the module-level cache.
    Semantics match SQL `regexp_replace(col, re, repl, 'g')` +
    `len(regexp_extract_all(col, re))` so the op is oracle-checkable.
    """
    pats = tuple(patterns)

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        out = batch[list(id_cols)].copy()
        scrubbed, total = redact_series(batch[text_col], pats)
        out[out_col] = scrubbed.to_numpy()
        out["n_redactions"] = total
        return out

    return ds.map_batches(f, batch_format="pandas")


def redact_series(
    s: pd.Series, patterns: Sequence[tuple[str, str, str]] = PII_PATTERNS
) -> tuple[pd.Series, np.ndarray]:
    """Vectorized core of `redact` (pure, no Ray): sequentially count
    and replace each pattern over a string Series. Exposed separately
    so property tests can sweep it directly."""
    s = s.astype(str)
    total = np.zeros(len(s), dtype=np.int64)
    for _name, rex, repl in patterns:
        c = _compiled(rex)
        total += s.str.count(c).to_numpy(dtype=np.int64)
        s = s.str.replace(c, repl, regex=True)
    return s, total


_RE_CACHE: dict[str, re.Pattern] = {}


def _compiled(rex: str) -> re.Pattern:
    p = _RE_CACHE.get(rex)
    if p is None:
        p = _RE_CACHE[rex] = re.compile(rex)
    return p


def decontaminate(
    ds: ray.data.Dataset,
    phrases: Sequence[str],
    text_col: str = "text",
    keep_cols: Sequence[str] | None = None,
) -> ray.data.Dataset:
    """Drop rows whose text contains ANY blocklisted phrase (literal
    substring match — the eval-set n-gram decontamination pass).

    The phrase list rides along as a task argument (broadcast once per
    worker by Ray's arg caching); for a huge blocklist pass a
    `ray.put`-ed list and resolve it in the task — never shuffle.
    Small lists run one vectorized `str.contains(literal)` mask per
    phrase; past _COMBINE_THRESHOLD the phrases compile into ONE
    escaped alternation so each batch is a single multi-pattern scan
    (the Aho-Corasick shape, via the re engine)."""
    plist = [str(p) for p in phrases]

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[text_col].astype(str)
        if len(plist) > _COMBINE_THRESHOLD:
            combined = _compiled("|".join(re.escape(p) for p in sorted(plist, key=len, reverse=True)))
            hit = s.str.contains(combined, regex=True).to_numpy()
        else:
            hit = np.zeros(len(batch), dtype=bool)
            for p in plist:
                hit |= s.str.contains(p, regex=False).to_numpy()
        kept = batch.loc[~hit]
        return kept[list(keep_cols)] if keep_cols else kept

    return ds.map_batches(f, batch_format="pandas")


_COMBINE_THRESHOLD = 8


# ---------------------------------------------------------------------------
# Bloom-filter decontamination (the huge-blocklist scale tier)
# ---------------------------------------------------------------------------

# Polynomial rolling-hash base (FNV-64 prime) in uint64 wraparound
# arithmetic. All constants are explicit np.uint64: mixing a Python int
# into uint64 math silently promotes to float64 and corrupts hashes.
_BLOOM_BASE = np.uint64(1099511628211)
_BLOOM_K = 4  # probes per key; with m = 20n bits, FPR ~ 1e-3
_BLOOM_CACHE: dict = {}  # per-worker resolved broadcast tables


def _bloom_table(
    phrases: Sequence[str], bits_per_key: int = 20
) -> dict[int, tuple[int, np.ndarray, frozenset]]:
    """{utf8_len: (m_bits, bit_array, frozenset_of_phrase_bytes)}.

    Phrases are grouped by UTF-8 byte length so the scan runs ONE
    rolling hash per distinct length; each group's filter is sized to
    ~20 bits/key (m rounded up to a power of two for mask indexing).
    The exact byte-set rides along for candidate confirmation — Bloom
    hits are verified by set membership, never trusted."""
    by_len: dict[int, list[bytes]] = {}
    for p in phrases:
        b = str(p).encode("utf-8")
        if b:
            by_len.setdefault(len(b), []).append(b)
    tables: dict[int, tuple[int, np.ndarray, frozenset]] = {}
    for L, blist in sorted(by_len.items()):
        n = len(blist)
        m = 1 << max(3, (bits_per_key * n - 1).bit_length())
        bits = np.zeros(m >> 3, dtype=np.uint8)
        mat = np.frombuffer(b"".join(blist), dtype=np.uint8).reshape(n, L).astype(np.uint64)
        h = np.zeros(n, dtype=np.uint64)
        for j in range(L):  # O(L) vectorized passes, build-time only
            h = h * _BLOOM_BASE + mat[:, j]
        h2 = (h >> np.uint64(32)) | np.uint64(1)
        for i in range(_BLOOM_K):
            pos = (h + np.uint64(i) * h2) & np.uint64(m - 1)
            np.bitwise_or.at(
                bits,
                (pos >> np.uint64(3)).astype(np.int64),
                (np.uint8(1) << (pos & np.uint64(7)).astype(np.uint8)),
            )
        tables[L] = (m, bits, frozenset(blist))
    return tables


def bloom_decontaminate(
    ds: ray.data.Dataset,
    phrases: Sequence[str],
    text_col: str = "text",
    keep_cols: Sequence[str] | None = None,
    bits_per_key: int = 20,
) -> ray.data.Dataset:
    """Drop rows whose text contains ANY blocklisted phrase — EXACTLY
    the `decontaminate` semantics (literal substring), via multi-pattern
    Rabin-Karp behind a Bloom filter: the huge-blocklist scale tier.

    `decontaminate`'s combined-alternation scan is the right shape for
    hundreds of phrases, but its cost grows with the pattern count and
    `re` alternations stop compiling at ~10^5 branches. Here the
    blocklist is condensed into per-length Bloom filters (~20 bits per
    phrase) broadcast ONCE via ray.put; each batch then makes one
    vectorized rolling-hash pass per distinct phrase length over the
    batch's CONCATENATED UTF-8 bytes (docs separated by 0xFF, a byte
    that never occurs in valid UTF-8, so no window can falsely span
    two docs and match) and probes the filter. Only Bloom-positive
    windows — true hits plus the ~1e-3 false-positive tail — reach the
    exact byte-set confirmation, so the output is bit-identical to
    `decontaminate` at ANY filter size: a Bloom filter has no false
    negatives, and every candidate is verified. UTF-8 byte-level
    matching is sound for substring semantics because a phrase's
    encoded bytes occur in a valid UTF-8 stream only at character
    boundaries (lead bytes never double as continuation bytes)."""
    plist = [str(p) for p in phrases]
    ref = ray.put(_bloom_table(plist, bits_per_key))
    cols = list(keep_cols) if keep_cols else None

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        key = ("bloom", ref.hex())
        tbl = _BLOOM_CACHE.get(key)
        if tbl is None:  # resolve the broadcast once per worker process
            tbl = _BLOOM_CACHE[key] = ray.get(ref)
        texts = batch[text_col].astype(str)
        arrs = [t.encode("utf-8") for t in texts]
        nd = len(arrs)
        lens = np.fromiter((len(a) for a in arrs), dtype=np.int64, count=nd)
        starts = np.zeros(nd + 1, dtype=np.int64)
        np.cumsum(lens + 1, out=starts[1:])
        buf = np.full(int(starts[-1]), 0xFF, dtype=np.uint8)
        for i, a in enumerate(arrs):
            buf[starts[i] : starts[i] + lens[i]] = np.frombuffer(a, dtype=np.uint8)
        bufu = buf.astype(np.uint64)
        flagged = np.zeros(nd, dtype=bool)
        for L, (m, bits, pset) in tbl.items():
            nwin = len(bufu) - L + 1
            if nwin <= 0:
                continue
            h = np.zeros(nwin, dtype=np.uint64)
            for j in range(L):  # O(L) vectorized passes over the batch
                h = h * _BLOOM_BASE + bufu[j : j + nwin]
            h2 = (h >> np.uint64(32)) | np.uint64(1)
            cand = np.ones(nwin, dtype=bool)
            for i in range(_BLOOM_K):
                pos = (h + np.uint64(i) * h2) & np.uint64(m - 1)
                cand &= (
                    bits[(pos >> np.uint64(3)).astype(np.int64)]
                    >> (pos & np.uint64(7)).astype(np.uint8)
                ) & 1 != 0
                if not cand.any():
                    break
            for w in np.nonzero(cand)[0]:
                d = int(np.searchsorted(starts, w, side="right")) - 1
                if flagged[d]:
                    continue
                # a confirmed window contains no 0xFF separator byte, so
                # it provably lies inside doc d
                if buf[w : w + L].tobytes() in pset:
                    flagged[d] = True
        kept = batch.loc[~flagged]
        return kept[cols] if cols else kept

    return ds.map_batches(f, batch_format="pandas")


def _gram_rows(batch: pd.DataFrame, n: int, id_col: str, text_col: str) -> pd.DataFrame:
    """One (id_col, pos, gram) row per word n-gram window of each doc
    (grams never span docs; docs shorter than n words give none).
    Grams travel as STRINGS, so every count built on them is exact —
    no hash collisions."""
    ids: list = []
    poss: list[int] = []
    grams: list[str] = []
    for doc_id, t in zip(batch[id_col], batch[text_col]):
        toks = str(t).split()
        m = len(toks) - n + 1
        if m <= 0:
            continue
        ids.extend([doc_id] * m)
        poss.extend(range(m))
        grams.extend(" ".join(toks[i : i + n]) for i in range(m))
    return pd.DataFrame(
        {
            id_col: pd.Series(ids, dtype="int64"),
            "pos": pd.Series(poss, dtype="int64"),
            "gram": pd.Series(grams, dtype="object"),
        }
    )


def _doc_gram_counts(batch: pd.DataFrame, n: int, id_col: str, text_col: str) -> pd.DataFrame:
    """DISTINCT (id_col, gram, m) rows, m = the gram's occurrences in
    the doc, so a per-doc sum of m weights every window position."""
    g = _gram_rows(batch, n, id_col, text_col)
    return g.groupby([id_col, "gram"], sort=False).size().reset_index(name="m").astype({"m": "int64"})


def _distinct_grams(batch: pd.DataFrame, n: int, text_col: str) -> pd.DataFrame:
    """The batch's distinct word n-grams, one (gram) row each."""
    grams: set = set()
    for t in batch[text_col]:
        toks = str(t).split()
        grams.update(" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1))
    return pd.DataFrame({"gram": pd.Series(sorted(grams), dtype="object")})


_DUP_PARTIAL_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("n_grams_p", pa.int64()), ("n_dup_p", pa.int64())]
)


def dup_ngram_stats(
    ds: ray.data.Dataset, n: int = 5, num_partitions: int = 32
) -> ray.data.Dataset:
    """Per-doc duplicate-n-gram contamination: how many of a document's
    word n-grams occur elsewhere in the corpus (the repeated-span
    signal from the training-data dedup literature — high fractions
    mark boilerplate / template / copied spans that exact-doc dedup
    misses).

    JOIN-FREE scale shape (one gram shuffle, one tiny doc shuffle):
      1. per batch, explode docs to DISTINCT (doc_id, gram, m) rows
         (m = within-doc occurrences; the shuffle unit is the gram
         STRING so the result is exact — no hash collisions);
      2. hash_partition on hash(gram) — every occurrence of a gram
         lands in one partition, so a single vectorized pandas pass
         computes the GLOBAL count per gram AND reduces to per-doc
         partials (n grams seen, n in duplicated grams) right there.
         No count table is ever joined back or broadcast (a first cut
         used sized_join and fell into Ray's native JoinOperator:
         +12s actor-pool spawn per query);
      3. grouped_sum the per-(partition, doc) partials by doc_id —
         rows entering this shuffle are bounded by docs x partitions.
    At corpus scale raise num_partitions so a partition's gram rows
    fit one worker (same rule as ops/windows.py / CLAUDE.md).
    Emits (doc_id, n_grams, n_dup_grams, dup_fraction); docs shorter
    than n words emit nothing (mirrors the SQL oracle)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def part_pass(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("gram", sort=False)["m"].transform("sum")
        dup_m = g["m"].where(c.to_numpy() > 1, 0)
        return (
            g.assign(_dup=dup_m)
            .groupby("doc_id", sort=False)
            .agg(n_grams_p=("m", "sum"), n_dup_p=("_dup", "sum"))
            .reset_index()
        )

    partials = hash_partition(
        ds.map_batches(lambda b: _doc_gram_counts(b, n, "doc_id", "text"), batch_format="pandas"),
        column_hash("gram"), num_partitions, part_pass, _DUP_PARTIAL_SCHEMA,
    )
    out = grouped_sum(partials, ["doc_id"], ["n_grams_p", "n_dup_p"], counts=False)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        ng = batch["sum_n_grams_p"].to_numpy().astype("int64")
        nd = batch["sum_n_dup_p"].to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": batch["doc_id"].to_numpy(),
                "n_grams": ng,
                "n_dup_grams": nd,
                "dup_fraction": nd.astype("float64") / ng.astype("float64"),
            }
        )

    return out.map_batches(finish, batch_format="pandas")


def _scrub_tokens(toks: list[str], starts: np.ndarray, n: int) -> tuple[str, int, int]:
    """Drop every token covered by a duplicated n-gram occurrence
    starting at the (0-based) positions in `starts`; coverage expands
    via a difference array so overlapping spans cost O(T), not O(T*n).
    Returns (cleaned_text, n_tokens, n_removed_tokens)."""
    t = len(toks)
    if len(starts) == 0:
        return " ".join(toks), t, 0
    cov = np.zeros(t + 1, dtype=np.int32)
    np.add.at(cov, starts, 1)
    np.add.at(cov, np.minimum(starts + n, t), -1)
    covered = np.cumsum(cov[:t]) > 0
    kept = [tok for tok, c in zip(toks, covered) if not c]
    return " ".join(kept), t, int(covered.sum())


# Broadcast cap for the dup-gram set: above either bound the scrub
# falls to the fully-distributed positional path. Grams are short
# strings; 500k of them is ~tens of MB — cheap to ray.put once and
# read per task, ruinous to re-ship per batch (which ray.put avoids).
_DUP_SPAN_MAX_GRAMS = 500_000
_DUP_SPAN_MAX_BYTES = 256 * 2**20

# per-worker cache of broadcast dup-gram sets, keyed by ObjectRef hex
# (same pattern as ops/dedup._TEXTS_CACHE)
_DUPSET_CACHE: dict = {}


def _scrub_schema(id_col: str) -> pa.Schema:
    return pa.schema(
        [
            (id_col, pa.int64()),
            ("text", pa.large_string()),
            ("n_tokens", pa.int64()),
            ("n_removed_tokens", pa.int64()),
        ]
    )


def _scrub_rows(ids, texts, starts_of, n: int, id_col: str) -> pa.Table:
    """Rebuild each doc without the tokens covered by the n-token spans
    starting at starts_of(doc_id, toks); token-less docs emit no row
    (mirrors the oracle)."""
    out_ids: list[int] = []
    out_text: list[str] = []
    out_nt: list[int] = []
    out_nr: list[int] = []
    for doc_id, t in zip(ids, texts):
        toks = str(t).split()
        if not toks:
            continue
        cleaned, nt, nr = _scrub_tokens(toks, starts_of(doc_id, toks), n)
        out_ids.append(int(doc_id))
        out_text.append(cleaned)
        out_nt.append(nt)
        out_nr.append(nr)
    return _typed_table(
        _scrub_schema(id_col),
        **{
            id_col: np.array(out_ids, dtype=np.int64),
            "text": out_text,
            "n_tokens": np.array(out_nt, dtype=np.int64),
            "n_removed_tokens": np.array(out_nr, dtype=np.int64),
        },
    )


def _scrub_broadcast(
    ds: ray.data.Dataset, grams: ray.data.Dataset, n: int, id_col: str, text_col: str,
    max_grams: int, max_bytes: int,
) -> ray.data.Dataset | None:
    """Broadcast tier of the span scrubs: the materialized (gram) set
    ships once via ray.put when it fits both caps, and one
    shuffle-free pass rebuilds every doc; None when it does not fit."""
    n_grams = grams.count()
    if n_grams > max_grams or grams.size_bytes() > max_bytes:
        return None
    ref = ray.put(frozenset(grams.to_pandas()["gram"]) if n_grams else frozenset())

    def score(batch: pd.DataFrame) -> pa.Table:
        s = _DUPSET_CACHE.get(ref.hex())
        if s is None:  # resolve the broadcast once per worker process
            s = _DUPSET_CACHE[ref.hex()] = ray.get(ref)

        def starts_of(_doc_id, toks):
            m = len(toks) - n + 1
            if m <= 0 or not s:
                return np.empty(0, dtype=np.int64)
            return np.fromiter(
                (i for i in range(m) if " ".join(toks[i : i + n]) in s), dtype=np.int64
            )

        return _scrub_rows(batch[id_col], batch[text_col], starts_of, n, id_col)

    return ds.map_batches(score, batch_format="pandas")


def _scrub_rebuild(
    ds: ray.data.Dataset, removed: ray.data.Dataset, n: int, id_col: str, text_col: str,
    num_partitions: int,
) -> ray.data.Dataset:
    """Positional tier's doc rebuild: the docs (left) co-shuffle with
    the (tiny) removed-start rows (id_col, pos) on the doc id, and each
    partition's docs rebuild in one pass."""
    empty = np.empty(0, dtype=np.int64)

    def rebuild(docs: pd.DataFrame, rem: pd.DataFrame) -> pa.Table:
        starts = {} if rem.empty else {
            int(k): v.to_numpy(dtype=np.int64) for k, v in rem.groupby(id_col, sort=False)["pos"]
        }
        return _scrub_rows(
            docs[id_col], docs[text_col], lambda d, _t: starts.get(int(d), empty), n, id_col
        )

    return co_shuffle(
        ds.select_columns([id_col, text_col]), removed, id_col, id_col, num_partitions, rebuild,
        _scrub_schema(id_col),
    )


def _starts_schema(id_col: str) -> pa.Schema:
    return pa.schema([(id_col, pa.int64()), ("pos", pa.int64())])


def dup_span_scrub(
    ds: ray.data.Dataset,
    n: int = 8,
    max_count: int = 1,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
    broadcast_max_grams: int = _DUP_SPAN_MAX_GRAMS,
    broadcast_max_bytes: int = _DUP_SPAN_MAX_BYTES,
) -> ray.data.Dataset:
    """Remove every token covered by a corpus-duplicated n-token span —
    the C4-style repeated-span scrub (Raffel et al. 2020 discard
    duplicated three-sentence spans), and at n=50 the ExactSubstr
    deduplication of Lee et al. 2022 ("Deduplicating Training Data
    Makes Language Models Better"): their suffix-array pass removes
    substrings >= 50 tokens occurring twice, and n-token-window
    coverage removes exactly the same token set for any duplicated
    run >= n tokens — without needing a distributed suffix array
    (token-window coverage also keeps the semantics deterministic and
    SQL-expressible: ALL occurrences of a duplicated span are removed,
    so no order-dependent "first survivor" choice exists). A span is duplicated when its corpus-wide occurrence
    count exceeds `max_count` (within-doc repeats count too, exactly
    like the SQL oracle's GROUP BY over exploded grams). Token-less
    documents emit no row; docs shorter than n tokens pass through
    unchanged. Exact end-to-end: grams travel as STRINGS (the
    dup_ngram_stats discipline), never as lossy hashes.

    Emits (id_col, text, n_tokens, n_removed_tokens) with text rebuilt
    as the space-join of surviving tokens in document order.

    Scale shape, two tiers:

    - broadcast tier (duplication is rare — the common crawl case):
      one PRE-AGGREGATED count exchange (per-batch distinct
      (gram, m) partials -> grouped_sum) finds the dup set; if it fits
      the gram-count AND byte caps it broadcasts once (`ray.put`) and
      one shuffle-free scoring pass rebuilds every doc locally.
    - positional tier (duplication-heavy corpora): exchange A explodes
      (doc_id, pos, gram) occurrences and hash_partitions them on
      hash(gram) — each gram's global count is partition-local, so dup
      START positions fall out of one vectorized pass with no count
      table ever joined back; exchange B (`_scrub_rebuild`, shared
      with eval_span_scrub) co-shuffles the corpus with those (tiny)
      removed-start rows on doc_id and rebuilds each partition's docs
      in one pass. Never a JoinOperator (per-query actor-pool spawn;
      see dup_ngram_stats).
    """
    from pdf_extractor_ray.ops.relational import grouped_sum

    def gram_counts(batch: pd.DataFrame) -> pd.DataFrame:
        g = _gram_rows(batch, n, id_col, text_col)
        return g.groupby("gram", sort=False).size().reset_index(name="m").astype({"m": "int64"})

    counts = grouped_sum(
        ds.map_batches(gram_counts, batch_format="pandas"), ["gram"], ["m"], counts=False
    )
    dups = counts.map_batches(
        lambda b: b.loc[b["sum_m"] > max_count, ["gram"]], batch_format="pandas"
    ).materialize()
    scrubbed = _scrub_broadcast(
        ds, dups, n, id_col, text_col, broadcast_max_grams, broadcast_max_bytes
    )
    if scrubbed is not None:
        return scrubbed

    # ---- positional tier: exact at any duplication level ----
    def find_dup_starts(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("gram", sort=False)["gram"].transform("size")
        return g.loc[c.to_numpy() > max_count, [id_col, "pos"]]

    removed = hash_partition(
        ds.map_batches(lambda b: _gram_rows(b, n, id_col, text_col), batch_format="pandas"),
        column_hash("gram"), num_partitions, find_dup_starts, _starts_schema(id_col),
    )
    return _scrub_rebuild(ds, removed, n, id_col, text_col, num_partitions)


# MD5 round constants (RFC 1321): K[i] = floor(abs(sin(i+1)) * 2^32),
# per-round left-rotation amounts S. Public algorithm — implemented
# here vectorized over numpy so the split assignment needs no per-row
# Python hashlib call while staying bit-identical to md5.
_MD5_K = np.array(
    [int(abs(np.sin(i + 1)) * 2**32) & 0xFFFFFFFF for i in range(64)], dtype=np.uint64
)
_MD5_S = np.array(
    [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4,
    dtype=np.uint64,
)
_M32 = np.uint64(0xFFFFFFFF)


def _md5_words(
    strs: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """All four 32-bit state words (a, b, c, d) of md5(s) for each
    string, as uint64 arrays — vectorized MD5 compression over numpy
    uint64 lanes (mask-to-32-bit), grouped by padded block count so
    mixed-length inputs stay vectorized. The hexdigest is the
    little-endian bytes of (a, b, c, d) in order, so every
    hex-slice-derived value (split nibble, KMV fraction, the head and
    tail u52s) comes from these words. Bit-identical to hashlib
    (property-tested)."""
    data = [s.encode() for s in strs]
    n = len(data)
    lens = np.fromiter((len(b) for b in data), dtype=np.int64, count=n)
    out_a = np.empty(n, dtype=np.uint64)
    out_b = np.empty(n, dtype=np.uint64)
    out_c = np.empty(n, dtype=np.uint64)
    out_d = np.empty(n, dtype=np.uint64)
    nblocks = (lens + 8) // 64 + 1  # payload + 0x80 + 8-byte bitlen
    for nb in np.unique(nblocks):
        idx = np.nonzero(nblocks == nb)[0]
        width = int(nb) * 64
        buf = np.zeros((len(idx), width), dtype=np.uint8)
        for j, i in enumerate(idx):
            b = data[i]
            if b:
                buf[j, : len(b)] = np.frombuffer(b, dtype=np.uint8)
        sub_lens = lens[idx]
        buf[np.arange(len(idx)), sub_lens] = 0x80
        buf[:, width - 8 : width] = (
            (sub_lens * 8).astype("<u8").view(np.uint8).reshape(-1, 8)
        )
        a = np.full(len(idx), 0x67452301, dtype=np.uint64)
        b_ = np.full(len(idx), 0xEFCDAB89, dtype=np.uint64)
        c = np.full(len(idx), 0x98BADCFE, dtype=np.uint64)
        d = np.full(len(idx), 0x10325476, dtype=np.uint64)
        for blk in range(int(nb)):
            x = (
                buf[:, blk * 64 : (blk + 1) * 64]
                .view("<u4")
                .astype(np.uint64)
            )  # (rows, 16) message words
            A, B, C, D = a.copy(), b_.copy(), c.copy(), d.copy()
            for i in range(64):
                if i < 16:
                    f = (B & C) | (~B & D)
                    g = i
                elif i < 32:
                    f = (D & B) | (~D & C)
                    g = (5 * i + 1) % 16
                elif i < 48:
                    f = B ^ C ^ D
                    g = (3 * i + 5) % 16
                else:
                    f = C ^ (B | (~D & _M32))
                    g = (7 * i) % 16
                s = _MD5_S[i]
                t = (A + (f & _M32) + _MD5_K[i] + x[:, g]) & _M32
                rot = ((t << s) | (t >> (np.uint64(32) - s))) & _M32
                A, D, C, B = D, C, B, (B + rot) & _M32
            a = (a + A) & _M32
            b_ = (b_ + B) & _M32
            c = (c + C) & _M32
            d = (d + D) & _M32
        out_a[idx] = a
        out_b[idx] = b_
        out_c[idx] = c
        out_d[idx] = d
    return out_a, out_b, out_c, out_d


def md5_first_nibble(strs: Sequence[str]) -> np.ndarray:
    """First hex-digit (high nibble of digest byte 0) of md5(s) for
    each string, as uint8 0..15. Bit-identical to
    ``hashlib.md5(s.encode()).hexdigest()[0]`` (property-tested)."""
    a = _md5_words(strs)[0]
    return ((a & np.uint64(0xF0)) >> np.uint64(4)).astype(np.uint8)


def _u52(w0: np.ndarray, w1: np.ndarray) -> np.ndarray:
    """The 13 hex digits of the digest bytes held by two consecutive
    state words (little-endian): w0's four bytes, then w1's low three,
    the last of them cut to its high nibble."""
    out = np.zeros(len(w0), dtype=np.uint64)
    for w, nbytes in ((w0, 4), (w1, 3)):
        for i in range(nbytes):
            out = (out << np.uint64(8)) | ((w >> np.uint64(8 * i)) & np.uint64(0xFF))
    return out >> np.uint64(4)


def md5_u52(strs: Sequence[str]) -> np.ndarray:
    """``int(hashlib.md5(s.encode()).hexdigest()[:13], 16)`` for each
    string, as uint64 (52 bits — chosen to fit a double EXACTLY, so
    estimators dividing by it are bit-reproducible in any engine that
    can parse the same hex prefix, e.g. DuckDB
    ``('0x' || substr(md5(s), 1, 13))::UBIGINT``): digest bytes 0-6,
    state word `a` plus the low bytes of `b`."""
    a, b, _c, _d = _md5_words(strs)
    return _u52(a, b)


def md5_u52_pair(strs: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """(md5_u52, tail) for each string from one md5 pass; the tail is
    ``int(hashlib.md5(s.encode()).hexdigest()[16:29], 16)`` — a SECOND
    independent 52-bit slice (digest bytes 8-14: state word `c` plus
    the low bytes of `d`), engine-portable as DuckDB
    ``('0x' || substr(md5(s), 17, 13))::UBIGINT``. The pair widens a
    content key to 104 bits, pushing the birthday bound from ~2^26 to
    ~2^52 distinct values — the collision margin corpus-scale exact
    dedup needs."""
    a, b, c, d = _md5_words(strs)
    return _u52(a, b), _u52(c, d)


def _md5_split(ids: pd.Series, test_hex_prefixes: tuple[str, ...]) -> np.ndarray:
    # first hex nibble of md5(str(id)): 'd'/'e'/'f' -> test (3/16 =
    # 18.75%), else train. md5 here is a STABLE, engine-portable
    # assignment hash (DuckDB md5() gives identical hex), not crypto.
    # Vectorized (md5_first_nibble) — no per-row hashlib call; hashlib
    # remains the test-suite cross-check.
    nibbles = md5_first_nibble([str(v) for v in ids])
    test_set = np.array(sorted(int(c, 16) for c in test_hex_prefixes), dtype=np.uint8)
    return np.where(np.isin(nibbles, test_set), "test", "train").astype(object)


def train_test_split(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    test_hex_prefixes: tuple[str, ...] = ("d", "e", "f"),
) -> ray.data.Dataset:
    """Add a deterministic `split` column keyed on md5(id) — the
    reproducible corpus split every training pipeline needs. Pure map;
    the same row lands in the same split on any cluster size, engine,
    or row order."""

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        batch = batch.copy()
        batch["split"] = _md5_split(batch[id_col], test_hex_prefixes)
        return batch

    return ds.map_batches(f, batch_format="pandas")


def _gram_hits(
    docs: ray.data.Dataset, ref: ray.data.Dataset, n: int, id_col: str, text_col: str,
    ref_text_col: str, num_partitions: int,
) -> ray.data.Dataset:
    """(id_col, sum_n_grams, sum_n_hits) per doc of `docs`: its word
    n-gram positions, and those whose gram occurs anywhere in `ref`.
    Doc (id_col, gram, m) rows (left) and the reference's per-batch
    distinct grams (right) co-shuffle on hash(gram); membership
    resolves per partition with one vectorized isin, and the
    per-(partition, doc) partials reduce through grouped_sum. Document
    text never crosses an exchange."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def part_pass(d: pd.DataFrame, r: pd.DataFrame) -> pd.DataFrame:
        hit = d["gram"].isin(set(r.get("gram", ()))).to_numpy()
        m = d["m"].to_numpy(dtype="int64")
        out = pd.DataFrame({id_col: d[id_col], "n_grams": m, "n_hits": np.where(hit, m, 0)})
        return out.groupby(id_col, sort=False, as_index=False).sum()

    partials = co_shuffle(
        docs.map_batches(lambda b: _doc_gram_counts(b, n, id_col, text_col), batch_format="pandas"),
        ref.map_batches(lambda b: _distinct_grams(b, n, ref_text_col), batch_format="pandas"),
        column_hash("gram"), column_hash("gram"), num_partitions, part_pass,
        pa.schema([(id_col, pa.int64()), ("n_grams", pa.int64()), ("n_hits", pa.int64())]),
    )
    return grouped_sum(partials, [id_col], ["n_grams", "n_hits"], counts=False)


def ngram_overlap_fraction(
    ds: ray.data.Dataset,
    ref: ray.data.Dataset,
    n: int = 8,
    text_col: str = "text",
    id_col: str = "doc_id",
    ref_text_col: str = "text",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-document n-gram OVERLAP FRACTION against a reference corpus
    — the contamination measurement of the memorization literature
    (Lee et al. 2021; eval-set overlap audits report the share of a
    document's n-gram windows that appear verbatim in the reference,
    not just a boolean hit): for each doc, the fraction of its word
    n-gram positions whose gram exists anywhere in `ref`.

    JOIN-FREE shape (the dup_ngram_stats discipline, `_gram_hits`):
    docs explode to DISTINCT (doc_id, gram, m) rows (m = within-doc
    occurrences, so the fraction weights every window position), the
    reference explodes to distinct gram rows, both co-shuffle on
    hash(gram) — membership resolves inside each partition with one
    vectorized isin — and per-(partition, doc) partials reduce by
    doc_id. Grams travel as STRINGS (exact, collision-free); the
    reference side ships each distinct gram once per batch. Docs
    shorter than n words emit nothing. Emits (id_col, n_grams,
    n_overlap, overlap_fraction)."""
    red = _gram_hits(ds, ref, n, id_col, text_col, ref_text_col, num_partitions)

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        ng = b["sum_n_grams"].to_numpy(dtype="int64")
        no = b["sum_n_hits"].to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(dtype="int64"),
                "n_grams": ng,
                "n_overlap": no,
                "overlap_fraction": no / ng,
            }
        )

    return red.map_batches(finish, batch_format="pandas")


def ngram_decontaminate_against(
    train_ds: ray.data.Dataset,
    eval_ds: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """EXACT cross-corpus n-gram contamination audit (the GPT-3
    appendix-C / PaLM eval-decontamination formulation, exact-match
    tier): for every train document, how many of its word-n-gram
    POSITIONS collide with any n-gram of the eval corpus — the signal
    that decides whether a train doc must be dropped (or span-scrubbed)
    before an eval suite can be trusted. The Bloom tier
    (bloom_decontaminate) is the huge-blocklist scale path; this one
    is exact, so it doubles as the oracle for it.

    Same join-free gram-string shuffle as ngram_overlap_fraction
    (`_gram_hits`): train (doc_id, gram, m) rows and eval
    DISTINCT-gram rows co-shuffle on hash(gram) (every occurrence of a
    gram string lands in exactly one partition — string keys, no
    hash-collision false hits), one vectorized isin pass resolves hits
    per partition, and per-doc partials reduce through grouped_sum.
    Document text never crosses an exchange. Docs shorter than n words
    emit nothing, mirroring the SQL oracle's gram CTE."""
    red = _gram_hits(train_ds, eval_ds, n, id_col, text_col, text_col, num_partitions)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        ng = batch["sum_n_grams"].to_numpy().astype("int64")
        nh = batch["sum_n_hits"].to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": batch[id_col].to_numpy(),
                "n_grams": ng,
                "n_hit_grams": nh,
                "contaminated": nh > 0,
                "hit_fraction": nh.astype("float64") / ng.astype("float64"),
            }
        )

    return red.map_batches(finish, batch_format="pandas")


def eval_span_scrub(
    train_ds: ray.data.Dataset,
    eval_ds: ray.data.Dataset,
    n: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
    broadcast_max_grams: int = _DUP_SPAN_MAX_GRAMS,
    broadcast_max_bytes: int = _DUP_SPAN_MAX_BYTES,
) -> ray.data.Dataset:
    """Decontaminate by SCRUBBING instead of dropping: remove every
    train-doc token covered by an n-token window that also occurs in
    the eval corpus — the GPT-3 appendix-C remedy (they remove the
    colliding 13-gram window plus context rather than the whole
    document, keeping the rest of the page's training value). The
    audit twin is ngram_decontaminate_against; this op applies the
    fix. Same coverage semantics as dup_span_scrub (difference-array
    span union via _scrub_tokens), so a train doc equal to an eval
    doc scrubs to the empty string. Token-less train docs emit no
    row; docs shorter than n tokens pass through unchanged.

    Tiers, shared with dup_span_scrub:
    - broadcast (the realistic case — eval suites are tiny next to
      the crawl): the eval corpus's DISTINCT grams pre-aggregate per
      batch, ship once via ray.put under the same gram/byte caps, and
      one shuffle-free pass rebuilds every train doc locally;
    - positional (huge eval side): train (doc_id, pos, gram) rows and
      eval distinct-gram rows co-shuffle on hash(gram) — hit START
      positions fall out of one vectorized isin pass — then the train
      corpus co-shuffles with the (tiny) removed-start rows on doc_id
      for the per-partition rebuild (`_scrub_rebuild`). Grams travel
      as STRINGS (exact; no hash-collision scrubs)."""
    ev_grams = (
        eval_ds.map_batches(lambda b: _distinct_grams(b, n, text_col), batch_format="pandas")
        .map_batches(lambda b: b.drop_duplicates("gram"), batch_format="pandas")
        .materialize()
    )
    scrubbed = _scrub_broadcast(
        train_ds, ev_grams, n, id_col, text_col, broadcast_max_grams, broadcast_max_bytes
    )
    if scrubbed is not None:
        return scrubbed

    # ---- positional tier: eval side too big to broadcast ----
    def find_hit_starts(tr: pd.DataFrame, ev: pd.DataFrame) -> pd.DataFrame:
        return tr.loc[tr["gram"].isin(set(ev.get("gram", ()))), [id_col, "pos"]]

    removed = co_shuffle(
        train_ds.map_batches(lambda b: _gram_rows(b, n, id_col, text_col), batch_format="pandas"),
        ev_grams, column_hash("gram"), column_hash("gram"), num_partitions, find_hit_starts,
        _starts_schema(id_col),
    )
    return _scrub_rebuild(train_ds, removed, n, id_col, text_col, num_partitions)


def source_prefix_strip(
    ds: ray.data.Dataset,
    group_col: str = "source",
    k: int = 5,
    min_pct: int = 50,
    id_col: str = "doc_id",
    text_col: str = "text",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Source-level boilerplate PREFIX removal: when at least
    `min_pct` percent of a source's (>= k-token) documents open with
    the same k tokens, that run is site chrome (cookie banners, nav
    headers, "Subscribe to continue") rather than content — strip it
    from exactly those documents. The host-level cousin of the
    extraction stage's per-DOC repeating-header removal
    (functions/pdf_words.py M2): there repetition is detected across
    pages of one doc, here across docs of one source.

    Exactness: the gate is integer (100 * c >= min_pct * n, where n
    counts the source's >= k-token docs); the winning prefix
    tie-breaks (count DESC, prefix ASC); emitted text is the
    space-join of surviving tokens — all order-free, so the SQL twin
    reproduces bitwise.

    Scale shape: per-batch (source, prefix) partials -> grouped_sum
    (distributed — distinct prefixes per source are unbounded), one
    hash_partition on the source picks each source's argmax row, and only
    the tiny per-source winner/total tables reach the driver (bounded
    by source cardinality — the temperature_sample contract). The
    strip itself is a shuffle-free vectorized scan. Docs with no
    tokens emit no row; docs with < k tokens never match."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def prefix_partials(b: pd.DataFrame) -> pd.DataFrame:
        rows_g: list = []
        rows_p: list[str] = []
        n_long: dict = {}
        for src, t in zip(b[group_col], b[text_col]):
            toks = str(t).split()
            if len(toks) >= k:
                rows_g.append(src)
                rows_p.append(" ".join(toks[:k]))
                n_long[src] = n_long.get(src, 0) + 1
        df = pd.DataFrame({group_col: rows_g, "pref": rows_p})
        g = df.groupby([group_col, "pref"], sort=False).size().reset_index(name="c")
        g["c"] = g["c"].astype("int64")
        return g

    counts = grouped_sum(
        ds.map_batches(prefix_partials, batch_format="pandas"),
        [group_col, "pref"],
        ["c"],
        counts=False,
    )

    def argmax_per_source(g: pd.DataFrame) -> pd.DataFrame:
        cols = {group_col: "object", "pref": "object", "c": "int64", "n": "int64"}
        g = g.sort_values(["sum_c", "pref"], ascending=[False, True], kind="stable")
        tot = g.groupby(group_col, sort=False)["sum_c"].transform("sum")
        out = g.assign(n=tot).drop_duplicates(group_col, keep="first")
        out = out.rename(columns={"sum_c": "c"})[list(cols)]
        return out.astype(cols)

    # source values keep the caller's type: the schema is inferred
    winners = hash_partition(
        counts, column_hash(group_col), num_partitions, argmax_per_source, None
    ).to_pandas()  # one row per source — driver-bounded by design
    strip_map = {
        row[group_col]: row["pref"]
        for _, row in winners.iterrows()
        if 100 * int(row["c"]) >= min_pct * int(row["n"])
    }

    def strip(b: pd.DataFrame) -> pd.DataFrame:
        out_rows = {id_col: [], group_col: [], "text": [], "stripped": []}
        for doc_id, src, t in zip(b[id_col], b[group_col], b[text_col]):
            toks = str(t).split()
            if not toks:
                continue  # token-less doc: no row (mirrors the oracle)
            pref = strip_map.get(src)
            hit = pref is not None and len(toks) >= k and " ".join(toks[:k]) == pref
            out_rows[id_col].append(int(doc_id))
            out_rows[group_col].append(src)
            out_rows["text"].append(" ".join(toks[k:] if hit else toks))
            out_rows["stripped"].append(bool(hit))
        return pd.DataFrame(
            {
                id_col: pd.Series(out_rows[id_col], dtype="int64"),
                group_col: pd.Series(out_rows[group_col], dtype="object"),
                "text": pd.Series(out_rows["text"], dtype="object"),
                "stripped": pd.Series(out_rows["stripped"], dtype="bool"),
            }
        )

    return ds.map_batches(strip, batch_format="pandas")


_ZERO_WIDTH_RE = re.compile("[\u200b\u200c\u200d\ufeff]")  # ZWSP ZWNJ ZWJ BOM
_ASCII_WS_RE = re.compile("[ \t\n\r\f\v]+")
_ASCII_WS = " \t\n\r\f\v"


def unicode_canonicalize(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Unicode canonicalization BEFORE content hashing / dedup: NFC
    composition (é as one codepoint, not e + combining acute — the
    classic cross-crawl dup-miss), zero-width character strip
    (ZWSP/ZWNJ/ZWJ/BOM — invisible dedup poison), and ASCII-whitespace
    collapse + trim. Emits (id, text, changed, n_chars_before,
    n_chars_after). Row-local and shuffle-free.

    Cross-engine exactness: NFC via unicodedata matches DuckDB's
    nfc_normalize (same Unicode algorithm; probed in the twin), and
    the whitespace class is the EXPLICIT ASCII set in both engines —
    Python's str-pattern \\s and RE2's \\s disagree on Unicode
    whitespace (NBSP), so neither is used."""

    def f(b: pd.DataFrame) -> pd.DataFrame:
        import unicodedata

        before: list[int] = []
        after: list[int] = []
        out: list[str] = []
        changed: list[bool] = []
        for t in b[text_col]:
            t = str(t)
            c = unicodedata.normalize("NFC", t)
            c = _ZERO_WIDTH_RE.sub("", c)
            c = _ASCII_WS_RE.sub(" ", c).strip(_ASCII_WS)
            before.append(len(t))
            after.append(len(c))
            out.append(c)
            changed.append(c != t)
        return pd.DataFrame(
            {
                id_col: b[id_col].to_numpy(dtype=np.int64),
                "text": pd.Series(out, dtype="object"),
                "changed": pd.Series(changed, dtype="bool"),
                "n_chars_before": pd.Series(before, dtype="int64"),
                "n_chars_after": pd.Series(after, dtype="int64"),
            }
        )

    return ds.map_batches(f, batch_format="pandas")
