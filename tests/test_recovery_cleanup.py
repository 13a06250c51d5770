"""Tests for the per-page recovery ladder (reference
error_handler.py:437-479), the M17 deep-cleanup ladder
(extractor.py:903-994), D1/J4 word-overlap handling
(error_handler.py:277-312, 542-574), the A6 footnote completeness
report (footnote_extractor.py:403-442) and the A10 quality
confidence (quality_scorer.py:366-379)."""

from pdf_extractor_ray.config import DEFAULT_CONFIG
from pdf_extractor_ray.functions import textstats
from pdf_extractor_ray.functions.pdf_words import (
    Patterns,
    extract_page,
    extract_pdf_pages,
    fix_punctuation,
    fix_spacing,
    footnote_report,
    join_lines,
    match_footnotes_full,
)


def _word(text, x0, top, w=30.0, h=10.0):
    return {"text": text, "x0": x0, "x1": x0 + w, "top": top, "bottom": top + h, "size": 10.0, "fontname": "F0"}


def _page(words, **extra):
    return {"width": 612.0, "height": 792.0, "words": words, **extra}


# ---------------------------------------------------------------------------
# recovery ladder
# ---------------------------------------------------------------------------


def test_poison_page_recovers_partial_text():
    good = _page([_word("Good", 72.0, 100.0), _word("page", 110.0, 100.0)])
    # poison: word entries missing coordinates break full extraction,
    # but the defensive word-join strategy still recovers the text
    poison = _page([{"text": "Recovered"}, {"text": "words"}])
    res = extract_pdf_pages([good, poison])
    assert "Good page" in res["text"]
    assert "Recovered words" in res["text"]
    assert res["n_pages_recovered"] == 1
    assert res["n_pages"] == 2


def test_fully_poison_page_yields_error_marker_not_doc_error():
    good = _page([_word("Still", 72.0, 100.0), _word("here", 110.0, 100.0)])
    poison = _page([12345, None])  # not even dicts
    res = extract_pdf_pages([good, poison])
    assert "Still here" in res["text"]
    assert "[EXTRACTION ERROR: Page 2]" in res["text"]
    assert res["n_pages_recovered"] == 0


def test_poison_height_page_recovers():
    poison = {"width": 612.0, "height": None, "words": [_word("text", 72.0, 100.0)]}
    res = extract_pdf_pages([poison])
    assert "text" in res["text"]
    assert res["n_pages_recovered"] == 1


# ---------------------------------------------------------------------------
# M17 cleanup ladder (opt-in)
# ---------------------------------------------------------------------------


def test_fix_spacing_japanese_rules():
    assert fix_spacing("日本 語") == "日本語"
    assert fix_spacing("文 。") == "文。"
    assert fix_spacing("「 引用") == "「引用"
    assert fix_spacing("漢字ABC") == "漢字 ABC"
    assert fix_spacing("ABC漢字") == "ABC 漢字"
    assert fix_spacing("plain latin text") == "plain latin text"


def test_join_lines_particle_and_comma():
    assert join_lines("これは\n続きです。") == "これは続きです。"
    assert join_lines("一つ、\n二つ。") == "一つ、二つ。"
    # terminator blocks the join
    assert join_lines("終わり。\n次の文。") == "終わり。\n次の文。"
    # bullet/section guards
    assert join_lines("これは\n1. 箇条書き") == "これは\n1. 箇条書き"
    assert join_lines("これは\n第2章 タイトル") == "これは\n第2章 タイトル"


def test_fix_punctuation():
    assert fix_punctuation("文。。。") == "文。"
    assert fix_punctuation("a...b") == "a…b"
    assert fix_punctuation("あ・・・い") == "あ…い"


def test_cleanup_ladder_is_opt_in():
    page = _page([_word("日本", 72.0, 100.0), _word("語", 120.0, 100.0)])
    default = extract_pdf_pages([page])
    assert default["text"] == "日本 語"  # gap 18 > jp_space_gap -> space kept
    cfg = DEFAULT_CONFIG.with_overrides(cleanup_fix_spacing=True)
    fixed = extract_pdf_pages([page], cfg=cfg)
    assert fixed["text"] == "日本語"


# ---------------------------------------------------------------------------
# D1 / J4
# ---------------------------------------------------------------------------


def test_dedupe_overlapping_words_same_position():
    w1 = _word("dup", 100.0, 100.0)
    w2 = _word("dup", 100.0, 100.0)  # identical stamp
    w3 = _word("dup", 100.05, 100.04)  # rounds to the same key
    w4 = _word("other", 200.0, 100.0)
    text = extract_page(_page([w1, w2, w3, w4]), frozenset(), frozenset(), Patterns())
    assert text.split() == ["dup", "other"]


def test_dedup_changes_extracted_text():
    page = _page([_word("once", 72.0, 100.0), _word("once", 72.0, 100.0)])
    res = extract_pdf_pages([page])
    assert res["text"] == "once"


def test_count_overlapping_words():
    def count_overlapping_words(words):
        return extract_pdf_pages([_page(words)])["n_overlapping_words"]

    a = _word("a", 100.0, 100.0, w=50.0)
    b = _word("b", 110.0, 102.0, w=50.0)  # heavy overlap
    c = _word("c", 400.0, 100.0)
    assert count_overlapping_words([a, b, c]) == 1
    # light touch (< 50% of the smaller box) does not count
    d = _word("d", 148.0, 100.0, w=50.0)
    assert count_overlapping_words([a, d]) == 0
    assert count_overlapping_words([]) == 0


def test_overlap_pairs_chunked_count_matches_all_pairs(monkeypatch):
    """J4 tests its candidate pairs chunk by chunk; with tiny chunks the
    count still equals the all-pairs definition."""
    import random

    from pdf_extractor_ray.functions import pdf_words as pw

    rng = random.Random(7)
    pages = [
        _page([_word(str(i), rng.choice([100.0, 104.0, 130.0, rng.uniform(90, 200)]), rng.choice([100.0, 103.0, rng.uniform(90, 200)]),
                     w=rng.choice([5.0, 30.0, 60.0]), h=rng.choice([4.0, 10.0, 20.0])) for i in range(rng.randint(0, 60))])
        for _ in range(6)
    ]

    def all_pairs(ws):
        n = 0
        for i, a in enumerate(ws):
            for b in ws[i + 1 :]:
                xo = min(a["x1"], b["x1"]) - max(a["x0"], b["x0"])
                yo = min(a["bottom"], b["bottom"]) - max(a["top"], b["top"])
                m = min((a["x1"] - a["x0"]) * (a["bottom"] - a["top"]), (b["x1"] - b["x0"]) * (b["bottom"] - b["top"]))
                n += xo > 0 and yo > 0 and m > 0 and xo * yo > m * DEFAULT_CONFIG.overlap_area_frac
        return n

    want = sum(all_pairs(p["words"]) for p in pages)
    assert want > 0
    for chunk in (1, 7, 1 << 16):
        monkeypatch.setattr(pw, "_PAIR_CHUNK", chunk)
        assert extract_pdf_pages(pages)["n_overlapping_words"] == want


def test_stacked_word_pdf_is_a_budget_row_within_a_second():
    """Words stacked on two spots make J4's candidate pairs quadratic
    (9.5k words: 45M pairs; 74k: 2.7G, 22 GB of index arrays if built
    at once). Over the per-page pair budget the document is an error
    row, in under 1 s of CPU and without a large allocation."""
    import time
    import tracemalloc
    from datetime import datetime

    import pyarrow as pa

    from pdf_extractor_ray.functions.pdf_codec import pages_to_pdf_bytes
    from pdf_extractor_ray.stages.extractor import Extractor

    two = [_word("Hello", 72.0, 700.0), _word("World", 108.0, 700.0)]
    ex = Extractor()
    for n_words in (9_500, 74_000):
        payload = pages_to_pdf_bytes([_page(two * (n_words // 2))], pdf15=True)
        assert len(payload) < 16_000  # FlateDecode content: a small payload
        batch = pa.table({
            "url": ["https://x.example/stacked"], "warc_ts": pa.array([datetime(2024, 1, 1)], pa.timestamp("us")),
            "html": pa.array([payload], pa.binary()), "lang": ["en"],
        })
        t0 = time.process_time()
        (row,) = ex(batch).to_pylist()
        cpu = time.process_time() - t0
        assert row["error"].startswith("UnsupportedPdfError: budget: ") and "candidate word pairs" in row["error"]
        assert cpu < 1.0, (n_words, cpu)
        tracemalloc.start()
        try:
            ex(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 20, (n_words, peak)


# ---------------------------------------------------------------------------
# A6 footnote completeness + A10 confidence
# ---------------------------------------------------------------------------


def test_footnote_report_complete_and_poor():
    pats = Patterns()
    # marker *1 in body + def *1: at bottom -> COMPLETE
    page = _page(
        [
            _word("*1", 100.0, 100.0),
            _word("*1:", 72.0, 700.0),
            _word("definition", 110.0, 700.0),
        ]
    )
    matches, rep = match_footnotes_full([page], pats)
    assert len(matches) == 1
    assert rep["status"] == "COMPLETE" and rep["match_rate"] == 100.0
    assert rep["n_unmatched_defs"] == 0
    # marker without definition -> POOR, D7 residue stays 0
    page2 = _page([_word("*2", 100.0, 100.0)])
    matches2, rep2 = match_footnotes_full([page2], pats)
    assert matches2 == []
    assert rep2["status"] == "POOR" and rep2["match_rate"] == 0.0
    assert rep2["n_unmatched_markers"] == 1


def test_footnote_report_unmatched_def_residue():
    rep = footnote_report(
        markers=[("*1", 0)],
        defs=[{"marker": "*1", "page": 0, "text": "x", "used": True}, {"marker": "*9", "page": 0, "text": "y", "used": False}],
        matches=[{"marker": "*1"}],
    )
    assert rep["n_unmatched_defs"] == 1
    assert rep["status"] == "COMPLETE"


def test_quality_confidence_variance():
    flat = {"a": 80.0, "b": 80.0, "c": 80.0}
    spread = {"a": 100.0, "b": 0.0, "c": 50.0}
    assert textstats.quality_confidence(flat) == 1.0
    assert textstats.quality_confidence(spread) == 0.5
    assert textstats.quality_confidence({}) == 0.5


# ---------------------------------------------------------------------------
# vectorized fingerprint
# ---------------------------------------------------------------------------


def test_fingerprint_deterministic_and_sane():
    t = "some stable document text " * 40
    assert textstats.fingerprint(t) == textstats.fingerprint(t)
    # disjoint content -> different fingerprints (appending to a
    # periodic string keeps the min window hash — winnowing semantics)
    assert textstats.fingerprint(t) != textstats.fingerprint("entirely different corpus " * 40)
    assert textstats.fingerprint("") == 0
    assert textstats.fingerprint("short") == textstats.fingerprint("short")
    assert 0 <= textstats.fingerprint(t) < (1 << 63)


def test_fingerprint_window_invariance_of_shared_prefix():
    # the min window hash of a superstring can only be <= a substring's
    a = "abcdef" * 100
    b = a + "zzz" + a
    assert textstats.fingerprint(b) <= textstats.fingerprint(a)
