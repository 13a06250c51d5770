"""Unit tests for the PDF word-geometry operators (reference semantics
from extractor.py — see SURVEY.md §2.2 M2-M17, §2.4 J1)."""

import pytest

from pdf_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from pdf_extractor_ray.functions.pdf_words import (
    Patterns,
    cleanup_text,
    detect_repeating_elements,
    extract_page,
    extract_pdf_pages,
    format_table,
    is_japanese_char,
    match_footnotes,
)

PATS = Patterns()
NONE = frozenset()


def w(text, x0, top, size=10.0, width=None):
    width = width if width is not None else 6.0 * len(text)
    return {
        "text": text,
        "x0": x0,
        "x1": x0 + width,
        "top": top,
        "bottom": top + 12.0,
        "size": size,
        "fontname": "F0",
    }


def page(words, tables=None, width=612.0, height=792.0):
    return {"width": width, "height": height, "words": words, "tables": tables or []}


def page_text(words, tables=None, headers=NONE, footers=NONE):
    """One page through the whole chain, as extract_pdf_pages runs it."""
    return extract_page(page(words, tables), headers, footers, PATS)


# ---- M2 header/footer detection -------------------------------------


def test_repeating_header_detected_at_80pct():
    pages = [page([w("ACME", 72, 20), w("body", 72, 300)]) for _ in range(5)]
    pages[4]["words"][0] = w("OTHER", 72, 20)  # 4/5 = 80% still qualifies
    headers, footers = detect_repeating_elements(pages)
    assert "ACME" in headers and "OTHER" not in headers and not footers


def test_non_repeating_not_detected():
    pages = [page([w(f"h{i}", 72, 20)]) for i in range(5)]
    headers, _ = detect_repeating_elements(pages)
    assert not headers


# ---- M9/M10/M11 columns, reading order, spacing ---------------------


def test_column_split_on_gap():
    words = [w("left", 72, 100), w("right", 400, 100)]  # gap 400-96=304 > 50
    cols = page_text(words).split("\n")  # one line per column
    assert len(cols) == 2
    assert cols[0] == "left" and cols[1] == "right"


def test_no_column_split_below_threshold():
    words = [w("a", 72, 100), w("b", 110, 100)]
    assert len(page_text(words).split("\n")) == 1


def test_reading_order_and_latin_spacing():
    words = [w("world", 110, 100), w("hello", 72, 100), w("second", 72, 120)]
    # hello(x1=102) world(x0=110): gap 8 > 3 -> space; new line at top 120
    text = page_text(words)
    assert text == "hello world\nsecond"


def test_japanese_no_space_small_gap():
    a = w("日本", 72, 100, width=22)
    b = {**w("語", 96, 100, width=11)}
    assert page_text([a, b]) == "日本語"


def test_japanese_space_on_wide_gap():
    a = w("日本", 72, 100, width=22)
    b = w("語", 120, 100, width=11)  # gap 120-94=26 > 10
    assert page_text([a, b]) == "日本 語"


def test_punctuation_no_space():
    a = w("end", 72, 100)
    b = w(",", 95, 100, width=3)  # gap 5 > 3 but ',' never takes a space
    assert page_text([a, b]) == "end,"


def test_is_japanese_char():
    assert is_japanese_char("日") and is_japanese_char("カ") and is_japanese_char("ひ")
    assert not is_japanese_char("A") and not is_japanese_char("1")


# ---- M4-M8 metadata filter -----------------------------------------


def _filter(words, **kw):
    """The words the metadata filter keeps (sorted: the page text
    orders them by column and line, the old filter by input)."""
    return sorted(page_text(words, headers=kw.get("headers", NONE), footers=kw.get("footers", NONE)).split())


def test_isolated_page_number_dropped():
    words = [w("-3-", 290, 768), w("content", 72, 300)]
    assert _filter(words) == ["content"]


def test_page_number_with_nearby_content_kept():
    words = [w("5", 290, 768), w("of", 300, 770), w("many", 320, 770)]
    kept = _filter(words)
    assert "5" in kept  # context-aware rule R5


def test_section_number_kept_in_margin():
    words = [w("1.2", 72, 20), w("body", 72, 300)]
    assert _filter(words) == sorted(["1.2", "body"])


def test_repeated_header_dropped_only_in_zone():
    words = [w("ACME", 72, 20), w("ACME", 72, 300)]
    kept = _filter(words, headers=frozenset({"ACME"}))
    assert kept == ["ACME"]  # mid-page occurrence survives


def test_footnote_marker_kept():
    words = [w("*1", 500, 20), w("※2", 72, 770)]
    assert _filter(words) == sorted(["*1", "※2"])


# ---- M13 script integration ----------------------------------------


def test_superscript_attach():
    base = w("mc", 100, 200)
    sup = w("2", 113, 196, size=6.0, width=4)  # x0 = base.x1+1, raised
    sup["bottom"] = 204.0  # small glyph: bottom above the base midline (206)
    filler = [w(f"t{i}", 72, 300 + 20 * i) for i in range(8)]
    texts = set(page_text([base, sup] + filler).split())
    assert "mc²" in texts and "2" not in texts


def test_subscript_attach():
    base = w("H", 100, 200)
    sub = w("2", 107, 206, size=6.0, width=4)  # lowered
    filler = [w(f"t{i}", 72, 300 + 20 * i) for i in range(8)]
    texts = page_text([base, sub] + filler).split()
    assert any(x == "H₂" for x in texts)


def test_far_small_word_not_attached():
    base = w("word", 100, 200)
    small = w("9", 400, 196, size=6.0, width=4)
    filler = [w(f"t{i}", 72, 300 + 20 * i) for i in range(8)]
    texts = page_text([base, small] + filler).split()
    assert any(x == "9" for x in texts)


# ---- M15/M16 tables -------------------------------------------------


def test_table_word_exclusion():
    tbl = {"bbox": [100.0, 100.0, 300.0, 200.0], "rows": 1, "cols": 1, "cells": [["x"]]}
    inside = w("in", 150, 150)
    outside = w("out", 400, 150)
    words_part = page_text([inside, outside], tables=[tbl]).split("\n\n")[0]  # tables follow the words
    assert words_part.split() == ["out"]


def test_format_table():
    tbl = {"bbox": [0, 0, 1, 1], "rows": 2, "cols": 2, "cells": [["a", "b"], ["c", "d"]]}
    assert format_table(tbl) == "[TABLE: 2x2]\n| a | b |\n| c | d |\n[TABLE END]"


# ---- J1 footnotes ---------------------------------------------------


def test_footnote_match_same_page():
    body = w("*1", 200, 100)
    d = w("*1:", 72, 700)
    dt = w("definition", 100, 700)
    pages = [page([body, d, dt])]
    matches = match_footnotes(pages, PATS)
    assert len(matches) == 1
    m = matches[0]
    assert m["marker"] == "*1" and m["text"] == "definition" and m["confidence"] == 1.0


def test_footnote_unmatched_marker():
    pages = [page([w("*7", 200, 100)])]
    assert match_footnotes(pages, PATS) == []


# ---- M17 cleanup + doc driver ---------------------------------------


def test_cleanup_squeezes_blank_runs():
    assert cleanup_text("a\n\n\n\nb") == "a\n\nb"
    assert cleanup_text("a   \nb") == "a\nb"


def test_extract_pdf_pages_end_to_end():
    pages = [
        page([w("Title", 72, 100), w("text", 110, 100), w("-1-", 290, 768)]),
        page([w("More", 72, 100), w("-2-", 290, 768)]),
    ]
    res = extract_pdf_pages(pages)
    assert res["text"] == "Title text\n\nMore"
    assert res["n_pages"] == 2
    assert res["n_words"] == 3


def test_textbox_regions_extracted_separately():
    """J3: words inside a textbox rect leave the main flow and come
    back as a [BOX] section after tables (layout_analyzer.py:509-532,
    master_extractor.py:364-390)."""
    from pdf_extractor_ray.functions.pdf_words import extract_pdf_pages

    def w(text, x0, top, size=12.0):
        return {
            "text": text, "x0": x0, "x1": x0 + 8.0 * len(text),
            "top": top, "bottom": top + size, "size": size, "fontname": "F",
            "height": size,
        }

    page = {
        "width": 600.0,
        "height": 800.0,
        "words": [
            w("Main", 50, 300), w("body", 100, 300), w("flows", 150, 300),
            w("Sidebar", 460, 300), w("note", 460, 320),
        ],
        "tables": [],
        "boxes": [[450.0, 290.0, 590.0, 340.0]],
    }
    res = extract_pdf_pages([page])
    assert "Main body flows" in res["text"]
    assert "[BOX]" in res["text"] and "[BOX END]" in res["text"]
    box_part = res["text"].split("[BOX]")[1]
    assert "Sidebar" in box_part and "note" in box_part
    # main flow must not contain the sidebar words before the box marker
    main_part = res["text"].split("[BOX]")[0]
    assert "Sidebar" not in main_part

    # no boxes key -> byte-identical to the old path
    page2 = {k: v for k, v in page.items() if k != "boxes"}
    res2 = extract_pdf_pages([page2])
    assert "Sidebar" in res2["text"].split("\n")[0] or "Sidebar" in res2["text"]


def test_rotated_word_metric():
    """M19: rotated words (upright=False) are counted, never removed
    or transformed (error_handler.py:488-507 tags only)."""
    from pdf_extractor_ray.functions.pdf_words import extract_pdf_pages

    page = {
        "width": 600.0,
        "height": 800.0,
        "words": [
            {"text": "Normal", "x0": 50.0, "x1": 100.0, "top": 300.0, "bottom": 312.0,
             "size": 12.0, "fontname": "F", "height": 12.0},
            {"text": "Rotated", "x0": 150.0, "x1": 200.0, "top": 300.0, "bottom": 312.0,
             "size": 12.0, "fontname": "F", "height": 12.0, "upright": False},
        ],
        "tables": [],
    }
    res = extract_pdf_pages([page])
    assert res["n_rotated_words"] == 1
    assert "Rotated" in res["text"]  # tagged, not dropped


# ---- chain traps: values the column view must reproduce exactly -----


def test_dedupe_key_uses_python_round():
    """round(0.15, 1) is 0.1 in Python (0.15 is stored just below it)
    and 0.2 in numpy, so these two stamps share a D1 key and dedupe to
    one; a numpy-rounded key keeps both ("dupdup")."""
    a = w("dup", 0.1, 300, width=18)
    b = w("dup", 0.15, 300, width=18)
    assert page_text([a, b]) == "dup"
    assert page_text([b, a]) == "dup"


def test_dedupe_keeps_first_in_input_order_and_its_x1():
    """Equal (top, x0, text), different x1: the first in input order
    survives, and its right edge decides the gap to the next word."""
    narrow = w("a", 100, 300, width=4)  # gap to b: 108 - 104 = 4 > 3 -> space
    wide = w("a", 100, 300, width=10)  # gap to b: 108 - 110 < 0 -> no space
    b = w("b", 108, 300)
    assert page_text([narrow, wide, b]) == "a b"
    assert page_text([wide, narrow, b]) == "ab"


def test_dedupe_tenths_match_python_round_hypothesis():
    """The D1 key compares round(v, 1) as integer tenths; they must be
    Python's rounding everywhere, halves and their neighbours too."""
    import numpy as np
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_extractor_ray.functions.pdf_words import _tenths

    near_half = st.builds(lambda k, e: (k + 0.5) / 10.0 + e, st.integers(-20000, 20000), st.sampled_from([0.0, 1e-12, -1e-12, 1e-9]))
    values = st.lists(st.floats(-1e7, 1e7, allow_nan=False) | near_half, min_size=1, max_size=20)

    @settings(max_examples=300, deadline=None)
    @given(values)
    def check(xs):
        assert _tenths(np.array(xs)).tolist() == [float(round(round(x, 1) * 10.0)) for x in xs]

    check()


def test_script_text_change_reorders_tied_words():
    """Two words share (top, x0); the glyph joins the wider one, whose
    text then sorts after the other's ("a²" > "ab"), as in the
    reference's sort over the changed texts."""
    a = w("a", 100, 200, width=10)
    ab = w("ab", 100, 200, width=6)
    sup = {**w("2", 111, 196, size=6.0, width=3), "bottom": 203.0}
    filler = [w(f"t{i}", 72, 300 + 20 * i) for i in range(8)]
    assert page_text([a, ab, sup] + filler).split("\n")[0] == "aba²"
    assert page_text([ab, a, sup] + filler).split("\n")[0] == "aba²"


def test_footer_page_number_next_to_section_word():
    """Only zone words can be dropped, but the isolation test reads
    every word: a body word (outside both zones) matching a section
    pattern still keeps a footer page number within isolated_dist."""
    near = [w("12", 290, 740), w("1.", 292, 700), w("body", 72, 300)]  # centers 40 pt apart
    far = [w("12", 290, 740), w("1.", 292, 640), w("body", 72, 300)]
    in_zone = [w("12", 290, 740), w("2.1", 292, 715), w("body", 72, 300)]
    same_line = [w("12", 290, 740), w("(3)", 330, 741), w("body", 72, 300)]
    assert page_text(near) == "body\n1.\n12"
    assert page_text(far) == "body\n1."
    assert page_text(in_zone) == "body\n2.1\n12"
    assert page_text(same_line) == "body\n12 (3)"


# ---- M13 against the reference implementation -------------------------
# old_integrate_scripts is the quadratic function the column view
# replaced, verbatim: the oracle for _attach_scripts.

_SUP_MAP = str.maketrans("0123456789+-=()n", "⁰¹²³⁴⁵⁶⁷⁸⁹⁺⁻⁼⁽⁾ⁿ")
_SUB_MAP = str.maketrans("0123456789+-=()aeoxn", "₀₁₂₃₄₅₆₇₈₉₊₋₌₍₎ₐₑₒₓₙ")


_SUP_MAP = str.maketrans("0123456789+-=()n", "⁰¹²³⁴⁵⁶⁷⁸⁹⁺⁻⁼⁽⁾ⁿ")
_SUB_MAP = str.maketrans("0123456789+-=()aeoxn", "₀₁₂₃₄₅₆₇₈₉₊₋₌₍₎ₐₑₒₓₙ")


def _old_trimmed_mean(values: list[float], frac: float) -> float:
    """Trimmed mean of font sizes (A4, superscript_detector.py:161-177)."""
    if not values:
        return 0.0
    vs = sorted(values)
    k = int(len(vs) * frac)
    core = vs[k : len(vs) - k] or vs
    return sum(core) / len(core)


def old_integrate_scripts(words: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG) -> list[dict]:
    """Attach small raised/lowered glyphs to the word immediately to
    their left as Unicode super/subscript where a char map exists;
    otherwise keep the word unchanged (EXTRACT ONLY — never drop).

    Two passes: words below script_size_ratio x trimmed-mean font size
    are candidates; each attaches to the base word whose right edge is
    nearest on the left within script_attach_dist horizontally and
    script_band vertically. Raised vs lowered is judged against the
    base's vertical midline (reference banding, extractor.py:665-689)."""
    if len(words) < 2:
        return words
    avg = _old_trimmed_mean([w.get("size", 10.0) for w in words], cfg.trimmed_mean_frac)
    if avg <= 0:
        return words
    threshold = cfg.script_size_ratio * avg
    bases = [dict(w) for w in words if w.get("size", avg) >= threshold]
    smalls = sorted(
        (w for w in words if w.get("size", avg) < threshold),
        key=lambda w: (w["x0"], w["top"], w["text"]),
    )
    leftovers: list[dict] = []
    for s in smalls:
        best = None
        for b in bases:
            hgap = s["x0"] - b["x1"]
            if -1.0 <= hgap <= cfg.script_attach_dist and (
                abs(s["top"] - b["top"]) <= cfg.script_band
                or abs(s["bottom"] - b["bottom"]) <= cfg.script_band
            ):
                if best is None or b["x1"] > best["x1"]:
                    best = b
        if best is not None:
            midline = (best["top"] + best["bottom"]) / 2.0
            raised = s["bottom"] < midline
            mapped = s["text"].translate(_SUP_MAP if raised else _SUB_MAP)
            if mapped != s["text"]:
                best["text"] = best["text"] + mapped
                best["x1"] = s["x1"]
                continue
        leftovers.append(dict(s))
    return bases + leftovers


def _new_scripts(words):
    from pdf_extractor_ray.functions import pdf_words as pw

    v = pw._Words(words)
    texts = list(v.text)
    pos, x1 = pw._attach_scripts(v, v.kept, texts, v.x1, DEFAULT_CONFIG)
    return sorted((texts[p], float(v.x0[p]), float(x1[p]), float(v.top[p]), float(v.bottom[p])) for p in pos.tolist())


def _old_scripts(words):
    ordered = sorted(words, key=lambda w: (w["top"], w["x0"], w["text"]))
    return sorted((x["text"], x["x0"], x["x1"], x["top"], x["bottom"]) for x in old_integrate_scripts(ordered))


def test_attach_scripts_tie_goes_to_first_base_in_reading_order():
    # two bases end at x1 = 106; the small glyph takes the upper one,
    # whose right edge then moves to the glyph's, ahead of the next
    a = w("a", 100, 200, width=6)
    b = w("b", 100, 205, width=6)
    s1 = {**w("2", 107, 198, size=4.0, width=3), "bottom": 203.0}
    s2 = {**w("3", 111, 198, size=4.0, width=3), "bottom": 203.0}
    filler = [w(f"t{i}", 72, 300 + 20 * i) for i in range(8)]
    words = [a, b, s1, s2] + filler
    assert _new_scripts(words) == _old_scripts(words)
    assert ("a²³", 100.0, 114.0, 200.0, 212.0) in _new_scripts(words)


def test_attach_scripts_matches_reference_hypothesis():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    half = st.integers(0, 60).map(lambda k: k * 0.5)
    word_st = st.builds(
        lambda text, x0, width, top, height, size: {
            "text": text,
            "x0": x0,
            "x1": x0 + width,
            "top": top,
            "bottom": top + height,
            "size": size,
            "fontname": "F0",
        },
        st.sampled_from(["2", "n", "a", "x", "+", "ab", "1a", "q", "(3)"]),
        half,
        st.sampled_from([0.5, 1.0, 2.0, 4.0, 6.0]),
        half,
        st.sampled_from([2.0, 4.0, 6.0, 12.0]),
        st.sampled_from([4.0, 6.0, 10.0, 12.0]),
    )

    @settings(max_examples=300, deadline=None)
    @given(st.lists(word_st, min_size=0, max_size=30))
    def check(raw):
        seen, words = set(), []
        for x in raw:  # the chain's input after D1: unique (top, x0, text)
            key = (x["top"], x["x0"], x["text"])
            if key not in seen:
                seen.add(key)
                words.append(x)
        assert _new_scripts(words) == _old_scripts(words)

    check()


def test_script_attachment_is_subquadratic():
    """16k words, half of them small raised glyphs: the reference's
    scan of every base per small glyph took seconds here."""
    import time

    words = []
    for r in range(400):
        top = 40.0 + 40.0 * r
        for k in range(20):
            x = 10.0 + 25.0 * k
            words.append(w("x", x, top, width=6))
            words.append({**w("2", x + 7.0, top - 2.0, size=4.0, width=3), "bottom": top + 4.0})
    t0 = time.process_time()
    res = extract_pdf_pages([page(words, height=16100.0)])
    cpu = time.process_time() - t0
    assert set(res["text"].split()) == {"x²"}  # every glyph attached
    assert cpu < 1.0


# ---- the column contract: word dicts through page_columns ------------

_TEXTS = ("a", "b", "1", "2", "*1", "※", "Page 2", "(1)", "x", "日本", "Hello", "2", "9")


def _random_dict_doc(rng) -> list[dict]:
    """Hand-written dict pages for the column-contract differential:
    coordinates from a small grid (ties in (top, x0), -0.0 next to
    0.0, spots D1 rounds together), some words without a size, some
    rotated, and ruling lines or a rect on some pages."""
    pages = []
    for _ in range(rng.randint(1, 3)):
        words = []
        for _ in range(rng.randint(0, 30)):
            top = rng.choice([0.0, -0.0, 40.0, 100.0, 100.04, 100.06, 400.0, 700.0, 740.0, round(rng.uniform(0, 780), 2)])
            x0 = rng.choice([0.0, -0.0, 72.0, 72.04, 90.0, 300.0, round(rng.uniform(0, 560), 2)])
            size = rng.choice([4.0, 8.0, 10.0, 12.0, 20.0])
            word = {
                "text": rng.choice(_TEXTS), "x0": x0, "x1": x0 + rng.choice([6.0, 20.0, 40.0]),
                "top": top, "bottom": top + 1.2 * size, "size": size, "fontname": "F0",
            }
            if rng.random() < 0.15:
                del word["size"]
            if rng.random() < 0.1:
                word["upright"] = False
            words.append(word)
        p = {"width": 612.0, "height": 792.0, "words": words}
        if rng.random() < 0.3:  # a ruled 3x3 grid with a word in most cells
            xs, ys = [60.0, 200.0, 340.0, 480.0], [80.0, 120.0, 160.0, 200.0]
            p["lines"] = [{"x0": xs[0], "x1": xs[-1], "top": y, "bottom": y} for y in ys] + [
                {"x0": x, "x1": x, "top": ys[0], "bottom": ys[-1]} for x in xs
            ]
            words += [
                {"text": rng.choice(_TEXTS), "x0": x + 10.0, "x1": x + 40.0, "top": y + 10.0, "bottom": y + 22.0, "size": 10.0}
                for x in xs[:-1] for y in ys[:-1] if rng.random() < 0.8
            ]
        if rng.random() < 0.3:  # a box with a few words
            p["rects"] = [{"x0": 50.0, "x1": 350.0, "top": 450.0, "bottom": 700.0}]
            words += [
                {"text": rng.choice(_TEXTS), "x0": 60.0 + 30 * i, "x1": 80.0 + 30 * i, "top": 500.0, "bottom": 512.0, "size": 10.0}
                for i in range(rng.randint(2, 6))
            ]
        rng.shuffle(words)
        pages.append(p)
    return pages


def test_dict_pages_match_the_dict_path_outputs():
    """Every result of extract_pdf_pages over random hand-written dict
    pages (so through page_columns) equals, by repr, what the chain
    gave when it read the word dicts themselves: sha1s recorded with
    that chain over the same seeded documents, with the default
    detectors and with every table detector on."""
    import hashlib
    import json
    import os
    import random

    with open(os.path.join(os.path.dirname(__file__), "fixtures", "pdf_dict_path.json"), encoding="utf-8") as f:
        want = json.load(f)
    rng = random.Random(want["seed"])
    docs = [_random_dict_doc(rng) for _ in range(want["n"])]
    every = DEFAULT_CONFIG.with_overrides(detect_text_tables=True, detect_ws_tables=True)
    for cfg, key in ((DEFAULT_CONFIG, "sha1"), (every, "sha1_every_detector")):
        got = [hashlib.sha1(repr(extract_pdf_pages(d, PATS, cfg)).encode()).hexdigest() for d in docs]
        assert got == want[key]


def _dict_view(words: list[dict]):
    """What the chain read from word dicts before the column contract:
    its stable (top, x0, text) order, float64 rows, unsized mask."""
    import numpy as np

    ws = sorted(words, key=lambda d: (d["top"], d["x0"], d["text"]))
    unsized = [("size" not in d) for d in ws]
    rows = [[d[k] for d in ws] for k in ("x0", "x1", "top", "bottom")] + [[d.get("size", 10.0) for d in ws]]
    return [d["text"] for d in ws], np.array(rows, np.float64).reshape(5, -1), np.array(unsized, bool)


def _dict_inventory(pages: list[dict]) -> dict:
    counts: dict = {}
    for p in pages:
        h = p["height"]
        for d in p["words"]:
            t, s = d.get("top", 0.0), d.get("size", 10.0)
            region = ("top", "middle", "bottom")[(t >= 0.15 * h) * (1 + (t > 0.85 * h))]
            cls = "large" if s > 18 else "normal" if s >= 10 else "small" if s >= 6 else "tiny"
            counts[f"{region}_{cls}"] = counts.get(f"{region}_{cls}", 0) + 1
    return counts


def test_page_columns_keep_the_dict_semantics_hypothesis():
    """The view, inventory and rotated count built through page_columns
    equal the dict path's: ties keep input order, -0.0 keeps its sign
    and ranks with 0.0, a missing size reads 10.0 and is marked, and
    words with upright False are counted."""
    import random

    import numpy as np
    from hypothesis import given, settings, strategies as st

    from pdf_extractor_ray.functions import pdf_words as pw

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def prop(seed):
        doc = _random_dict_doc(random.Random(seed))
        for p in doc:
            v = pw._Words(pw.page_columns(p["words"]))
            text, xy, unsized = _dict_view(p["words"])
            assert v.text == text
            assert np.array_equal(v.xy, xy) and np.array_equal(np.signbit(v.xy), np.signbit(xy))
            assert np.array_equal(v.unsized if v.unsized is not None else np.zeros(len(text), bool), unsized)
        assert pw._inventory(doc) == _dict_inventory(doc)
        assert list(pw._inventory(doc)) == list(_dict_inventory(doc))  # first-seen key order
        assert pw._doc_counts(doc)[1] == sum(d.get("upright", True) is False for p in doc for d in p["words"])

    prop()


def test_page_columns_of_unreadable_words():
    """A word without coordinates (or no dict at all) fails its page's
    view; recovery still reads the texts in (top, x0) order, and the
    inventory reads a missing top as 0.0."""
    from pdf_extractor_ray.functions import pdf_words as pw

    loose = [{"text": "b", "top": 5.0, "x0": 1.0}, {"text": "a", "top": 5.0}, {"text": "z"}]
    c = pw.page_columns(loose)
    assert pw._view({"words": c}) is None
    assert pw._recover_page_text({"words": c}) == "z a b"
    assert pw._inventory([{"height": 100.0, "words": loose}]) == {"top_normal": 3}
    assert pw._view({"words": [12345, None]}) is None and pw._recover_page_text({"words": [12345, None]}) is None
    with pytest.raises(ValueError):  # a None top poisons the document's inventory
        pw._inventory([{"height": 100.0, "words": [{"text": "a", "top": None, "size": 10.0}]}])
