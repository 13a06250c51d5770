"""Tests for the corpus-scrubbing operators (ops/scrub.py): PII /
pattern redaction, phrase decontamination, deterministic split."""

import hashlib

import pandas as pd
import pytest


@pytest.fixture()
def pii_ds(ray_session):
    import ray.data

    rows = pd.DataFrame(
        {
            "doc_id": range(5),
            "text": [
                "contact alice.smith+work@example.co.uk for details",
                "call +1-555-123-4567 or 03-1234-5678 today",
                "server at 192.168.0.1 and 10.0.0.255 responded",
                "no sensitive content in this document at all",
                "mail bob@test.org from 172.16.4.2 or dial 555 123 9999",
            ],
        }
    )
    return ray.data.from_pandas(rows)


def test_redact_pii_patterns(pii_ds):
    from pdf_extractor_ray.ops.scrub import redact

    out = redact(pii_ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert "<EMAIL>" in out.scrubbed[0] and "@" not in out.scrubbed[0]
    assert out.n_redactions[0] == 1
    assert "<PHONE>" in out.scrubbed[1] and out.n_redactions[1] == 2
    assert out.scrubbed[2].count("<IP>") == 2 and out.n_redactions[2] == 2
    assert out.scrubbed[3] == "no sensitive content in this document at all"
    assert out.n_redactions[3] == 0
    # mixed row: email + ip + phone all hit
    assert out.n_redactions[4] == 3
    for tok in ("<EMAIL>", "<IP>", "<PHONE>"):
        assert tok in out.scrubbed[4]


def test_redact_number_pattern_matches_sql_semantics(pii_ds, ray_session):
    """Engine redaction == regexp_replace(..., 'g') + len(regexp_extract_all)."""
    import duckdb
    import ray.data

    from pdf_extractor_ray.ops.scrub import NUMBER_PATTERN, redact

    src = pd.DataFrame({"doc_id": [0, 1], "text": ['{"k": 69}', "a1b22c333 44"]})
    out = (
        redact(ray.data.from_pandas(src), patterns=NUMBER_PATTERN)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    oracle = duckdb.sql(
        """SELECT doc_id, regexp_replace(text, '[0-9]+', '<NUM>', 'g') AS scrubbed,
                  len(regexp_extract_all(text, '[0-9]+')) AS n_redactions
           FROM src ORDER BY doc_id"""
    ).df()
    assert list(out.scrubbed) == list(oracle.scrubbed)
    assert list(out.n_redactions) == list(oracle.n_redactions)


def test_decontaminate_drops_only_matching(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.scrub import decontaminate

    rows = pd.DataFrame(
        {
            "doc_id": range(4),
            "text": [
                "clean text with nothing blocked",
                "contains the secret eval phrase here",
                "another clean document",
                "SECRET EVAL PHRASE but uppercase so literal match misses",
            ],
            "lang": ["en"] * 4,
        }
    )
    out = (
        decontaminate(
            ray.data.from_pandas(rows),
            phrases=["secret eval phrase"],
            keep_cols=("doc_id", "lang"),
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    assert list(out.doc_id) == [0, 2, 3]
    assert list(out.columns) == ["doc_id", "lang"]


def test_bloom_decontaminate_matches_exact_scan(ray_session):
    """The Bloom tier's output must be bit-identical to `decontaminate`
    — even at bits_per_key=1, where nearly every window is a Bloom
    false positive and only the exact byte-set confirm keeps docs
    alive."""
    import random

    import ray.data

    from pdf_extractor_ray.ops.scrub import bloom_decontaminate, decontaminate

    rng = random.Random(3)
    words = ["aa", "bb", "cc", "dd", "é£", "x"]
    texts = [
        " ".join(rng.choice(words) for _ in range(rng.randint(0, 12))) for _ in range(80)
    ]
    df = pd.DataFrame({"doc_id": range(80), "text": texts, "lang": ["en"] * 80})
    phrases = [" ".join(rng.choice(words) for _ in range(rng.randint(1, 3))) for _ in range(10)]
    ds = ray.data.from_pandas(df).repartition(4)
    exact = (
        decontaminate(ds, phrases, keep_cols=("doc_id", "lang"))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    for bpk in (1, 20):
        got = (
            bloom_decontaminate(ds, phrases, keep_cols=("doc_id", "lang"), bits_per_key=bpk)
            .to_pandas()
            .sort_values("doc_id")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, exact)
    assert 0 < len(exact) < 80  # the phrase list actually dropped something


def test_bloom_decontaminate_utf8_boundaries(ray_session):
    """Multibyte phrases and texts: UTF-8 byte-level windows must match
    exactly at character boundaries (lead bytes never double as
    continuation bytes), and the 0xFF doc separator must never join two
    docs into a phantom match."""
    import ray.data

    from pdf_extractor_ray.ops.scrub import bloom_decontaminate

    df = pd.DataFrame(
        {
            "doc_id": range(6),
            "text": [
                "héllo wörld ünïcode",
                "日本語のテキストです",
                "plain ascii text",
                "the naïve café phrase here",
                # split phrase across two adjacent docs: 'zz q' ends this
                "ends with zz q",
                "rst zz continues here",  # ...and 'q rst zz' starts this
            ],
        }
    )
    out = (
        bloom_decontaminate(
            ray.data.from_pandas(df),
            ["naïve café", "語のテ", "zz qrst zz", "é"],
            bits_per_key=1,  # max false-positive pressure
        )
        .to_pandas()
        .sort_values("doc_id")
    )
    # doc0/doc3 hit 'é'/'naïve café', doc1 hits '語のテ'; docs 4+5 only
    # contain the long phrase if windows crossed the separator — they
    # must survive
    assert out.doc_id.tolist() == [2, 4, 5]


def test_train_test_split_deterministic_and_md5_keyed(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.scrub import train_test_split

    rows = pd.DataFrame({"doc_id": range(200), "n_chars": [10] * 200})
    out = (
        train_test_split(ray.data.from_pandas(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    # exact md5 semantics per row (portable to DuckDB's md5())
    for i in (0, 7, 13, 199):
        want = "test" if hashlib.md5(str(i).encode()).hexdigest()[0] in "def" else "train"
        assert out.split[i] == want
    # both splits populated, test fraction near 3/16
    n_test = (out.split == "test").sum()
    assert 10 <= n_test <= 80
    # rerun identical (no rng anywhere)
    out2 = (
        train_test_split(ray.data.from_pandas(rows))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out.split) == list(out2.split)


def test_dup_ngram_stats(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.scrub import dup_ngram_stats

    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                "a b c d e f",   # grams: abcde, bcdef
                "a b c d e",     # gram: abcde (dup with doc0)
                "x y z",         # too short -> no rows
                "p q r s t u v", # grams: 3, all unique
            ],
        }
    )
    out = (
        dup_ngram_stats(ray.data.from_pandas(rows).repartition(3), n=5)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out.doc_id.tolist() == [0, 1, 3]
    assert out.n_grams.tolist() == [2, 1, 3]
    assert out.n_dup_grams.tolist() == [1, 1, 0]
    assert abs(out.dup_fraction[0] - 0.5) < 1e-12
    assert out.n_grams.dtype == "int64" and out.dup_fraction.dtype == "float64"


def test_decontaminate_combined_regex_path(ray_session):
    """Past the combine threshold the single-alternation scan must
    behave identically to per-phrase literal contains."""
    import ray.data

    from pdf_extractor_ray.ops.scrub import decontaminate

    phrases = [f"phrase{i} (x)" for i in range(12)]  # >8 -> combined; regex metachars escaped
    rows = pd.DataFrame(
        {
            "doc_id": range(14),
            "text": [f"has phrase{i} (x) inside" for i in range(12)] + ["clean one", "phrase99 (x)"],
        }
    )
    out = (
        decontaminate(ray.data.from_pandas(rows), phrases=phrases, keep_cols=("doc_id",))
        .to_pandas()
        .sort_values("doc_id")
    )
    assert out.doc_id.tolist() == [12, 13]


def test_md5_first_nibble_matches_hashlib_across_block_boundaries():
    """Vectorized MD5 nibble == hashlib for every padding regime:
    empty input, 1-block (<=55B), the 0x80+bitlen spill at 56..64B,
    multi-block, unicode, and hypothesis-driven arbitrary text."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_extractor_ray.ops.scrub import md5_first_nibble

    fixed = (
        ["", "a", "abc", "0", "12345"]
        + ["x" * n for n in (54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128, 300)]
        + ["日本語テキスト", "naïve café", "tab\tnew\nline"]
    )
    got = md5_first_nibble(fixed)
    want = [int(hashlib.md5(s.encode()).hexdigest()[0], 16) for s in fixed]
    assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=200), min_size=1, max_size=20))
    def prop(strs):
        assert md5_first_nibble(strs).tolist() == [
            int(hashlib.md5(s.encode()).hexdigest()[0], 16) for s in strs
        ]

    prop()


def test_gopher_quality_signals(ray_session):
    """Gopher-rule signals + keep verdict (ops/quality.py)."""
    import ray.data

    from pdf_extractor_ray.ops.quality import gopher_filter, gopher_quality

    good = "the quick brown fox and the lazy dog have fun with words " * 5  # 60 words, stopwords
    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2, 3],
            "text": [
                good,
                "short text",                      # too few words
                "数字 と 日本語 の 言葉 " * 12,        # no ASCII letters -> alpha_frac 0
                "",                                # empty
            ],
        }
    )
    ds = ray.data.from_pandas(rows)
    sig = gopher_quality(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert sig.keep.tolist() == [True, False, False, False]
    assert sig.n_words.tolist()[0] == 60
    assert sig.n_words.tolist()[3] == 0
    assert abs(sig.alpha_frac[0] - 1.0) < 1e-12 and sig.alpha_frac[2] == 0.0
    assert sig.n_stop_hits[0] >= 10
    assert sig.n_words.dtype == "int64" and sig.mean_word_len.dtype == "float64"
    kept = gopher_filter(ds).to_pandas()
    assert kept.doc_id.tolist() == [0]


def test_gopher_signals_duplicate_ids_score_independently():
    """A pre-dedup batch can carry the same id twice; each copy must
    score on ITS OWN tokens — the r3 bug merged duplicate ids' token
    streams and doubled n_words (enough to flip keep verdicts near the
    word-count threshold)."""
    from pdf_extractor_ray.ops.quality import gopher_signals

    short = "the and of to that with have be " * 3  # 24 words: under MIN_WORDS
    b = pd.DataFrame({"doc_id": ["u1", "u2", "u1"], "text": [short, short, short]})
    sig = gopher_signals(b)
    assert sig["n_words"].tolist() == [24, 24, 24]  # NOT 48 for the dup id
    assert sig["keep"].tolist() == [False, False, False]
    assert sig["doc_id"].tolist() == ["u1", "u2", "u1"]  # positional alignment


def test_md5_u52_tail_matches_hashlib():
    """md5_u52_pair == (int(hexdigest[:13], 16), int(hexdigest[16:29],
    16)) (the DuckDB substr(md5,1,13) and substr(md5,17,13) slices):
    fixed block-boundary cases plus hypothesis-driven arbitrary text,
    mirrored against hashlib."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_extractor_ray.ops.scrub import md5_u52_pair

    def want(strs):
        digests = [hashlib.md5(s.encode()).hexdigest() for s in strs]
        return [int(h[:13], 16) for h in digests], [int(h[16:29], 16) for h in digests]

    def got(strs):
        head, tail = md5_u52_pair(strs)
        return [int(v) for v in head], [int(v) for v in tail]

    fixed = (
        ["", "a", "abc", "0", "12345", "mirror-page-3"]
        + ["x" * n for n in (54, 55, 56, 57, 63, 64, 65, 119, 120, 121, 128, 300)]
        + ["日本語テキスト", "naïve café", "tab\tnew\nline"]
    )
    assert got(fixed) == want(fixed)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=200), min_size=1, max_size=20))
    def prop(strs):
        assert got(strs) == want(strs)

    prop()


def test_trigram_jm_tiers_bit_identical(ray_session):
    """Broadcast and two-hop shuffle tiers of the interpolated trigram
    LM must agree BITWISE (shared float expression, per-doc sums in
    (doc_id, g3) order), and match an in-memory reference."""
    import math
    from collections import Counter

    import numpy as np
    import pandas as pd
    import ray.data

    from pdf_extractor_ray.ops.text_analysis import trigram_jm_logprob

    texts = ["a b c a b c d", "a b", "x y z a b c", "c b a c b a c b a", "", "q r s t q r s"]
    df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    ds = ray.data.from_pandas(df).repartition(3)
    bc = trigram_jm_logprob(ds).to_pandas().sort_values("doc_id").reset_index(drop=True)
    sh = (
        trigram_jm_logprob(ds, broadcast_max_terms=0)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert bc["doc_id"].tolist() == sh["doc_id"].tolist()
    assert np.array_equal(bc["logprob"].to_numpy(), sh["logprob"].to_numpy())

    toks = {i: t.split() for i, t in enumerate(texts)}
    cu = Counter(w for ws in toks.values() for w in ws)
    n_tot = sum(cu.values())
    cb = Counter((ws[i], ws[i + 1]) for ws in toks.values() for i in range(len(ws) - 1))
    ch = Counter(ws[i] for ws in toks.values() for i in range(len(ws) - 1))
    c3 = Counter(
        (ws[i], ws[i + 1], ws[i + 2]) for ws in toks.values() for i in range(len(ws) - 2)
    )
    cc = Counter((ws[i], ws[i + 1]) for ws in toks.values() for i in range(len(ws) - 2))
    for i, ws in toks.items():
        evs = [(ws[j], ws[j + 1], ws[j + 2]) for j in range(len(ws) - 2)]
        if not evs:
            assert i not in set(bc["doc_id"])  # <3 tokens -> no row
            continue
        lp = sum(
            math.log(
                0.6 * c3[e] / cc[(e[0], e[1])]
                + 0.3 * cb[(e[1], e[2])] / ch[e[1]]
                + 0.1 * cu[e[2]] / n_tot
            )
            for e in evs
        )
        assert abs(bc.loc[bc["doc_id"] == i, "logprob"].iloc[0] - lp) < 1e-9
