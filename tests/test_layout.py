"""Unit tests for geometry table/textbox detection (functions/layout.py;
reference table_detector_enhanced.py:286-505, layout_analyzer.py:200-532)."""

import pytest

from pdf_extractor_ray.config import DEFAULT_CONFIG
from pdf_extractor_ray.functions.layout import (
    _cluster_1d,
    dedupe_tables,
    detect_tables,
    detect_tables_from_alignment,
    detect_tables_from_lines,
    detect_textboxes,
)
from pdf_extractor_ray.functions.pdf_words import _Words as _v  # the page view the detectors read

CFG = DEFAULT_CONFIG


def _word(text, x0, top, w=20.0, h=10.0, size=10.0):
    return {"text": text, "x0": x0, "x1": x0 + w, "top": top, "bottom": top + h, "size": size, "fontname": "F0"}


def _grid_words(xs, ys, prefix="c"):
    return [
        _word(f"{prefix}{r}{c}", xs[c] + 4.0, ys[r] + 4.0, w=16.0)
        for r in range(len(ys) - 1)
        for c in range(len(xs) - 1)
    ]


def _grid_lines(xs, ys):
    lines = [{"x0": xs[0], "x1": xs[-1], "top": y, "bottom": y} for y in ys]
    lines += [{"x0": x, "x1": x, "top": ys[0], "bottom": ys[-1]} for x in xs]
    return lines


def test_cluster_1d():
    assert _cluster_1d([1.0, 1.5, 2.0, 50.0, 51.0], tol=3.0) == [(1.5, 3), (50.5, 2)]
    assert _cluster_1d([1.0, 1.5, 50.0], tol=3.0, min_members=2) == [(1.25, 2)]
    assert _cluster_1d([], tol=3.0) == []


def test_line_based_grid_detection():
    xs = [100.0, 180.0, 260.0, 340.0]
    ys = [200.0, 230.0, 260.0, 290.0]
    tables = detect_tables_from_lines(_v(_grid_words(xs, ys)), _grid_lines(xs, ys), CFG)
    assert len(tables) == 1
    t = tables[0]
    assert (t["rows"], t["cols"]) == (3, 3)
    assert t["cells"][0] == ["c00", "c01", "c02"]
    assert t["cells"][2][2] == "c22"
    assert t["confidence"] == 0.9
    assert t["bbox"] == [100.0, 200.0, 340.0, 290.0]


def test_line_detection_rejects_undersized_and_sparse():
    # 2x2 grid: below min 3x3
    xs, ys = [100.0, 180.0, 260.0], [200.0, 230.0, 260.0]
    assert detect_tables_from_lines(_v(_grid_words(xs, ys)), _grid_lines(xs, ys), CFG) == []
    # 3x3 grid but only 3 of 9 cells filled -> fill < 0.5
    xs, ys = [100.0, 180.0, 260.0, 340.0], [200.0, 230.0, 260.0, 290.0]
    words = _grid_words(xs, ys)[:3]
    assert detect_tables_from_lines(_v(words), _grid_lines(xs, ys), CFG) == []


def test_line_detection_separates_two_tables():
    xs = [100.0, 180.0, 260.0, 340.0]
    ys1 = [100.0, 130.0, 160.0, 190.0]
    ys2 = [400.0, 430.0, 460.0, 490.0]  # > table_group_gap below
    words = _grid_words(xs, ys1, "a") + _grid_words(xs, ys2, "b")
    lines = _grid_lines(xs, ys1) + _grid_lines(xs, ys2)
    tables = detect_tables_from_lines(_v(words), lines, CFG)
    assert len(tables) == 2
    assert tables[0]["cells"][0][0] == "a00"
    assert tables[1]["cells"][0][0] == "b00"


def test_alignment_detection_finds_borderless_grid():
    xs = [100.0, 180.0, 260.0, 999.0]  # 3 columns (999 unused sentinel)
    ys = [200.0, 230.0, 260.0, 999.0]
    words = _grid_words(xs[:4], ys[:4])[:9]  # 3x3 words, no lines
    words = [w for w in words if w["x0"] < 900 and w["top"] < 900]
    cfg = CFG.with_overrides(detect_text_tables=True)
    tables = detect_tables_from_alignment(_v(words), cfg)
    assert len(tables) == 1
    t = tables[0]
    assert (t["rows"], t["cols"]) == (3, 3)
    assert 0.6 <= t["confidence"] <= 0.9
    assert t["method"] == "alignment"


def test_alignment_detection_ignores_prose():
    # left-aligned prose: one x cluster only -> no table
    words = []
    for i, line in enumerate(["alpha beta gamma", "delta epsilon zeta", "eta theta iota", "kappa lam mu"]):
        x = 72.0
        for tok in line.split():
            words.append(_word(tok, x, 100.0 + i * 20.0, w=len(tok) * 6.0))
            x += len(tok) * 6.0 + 7.0
    assert detect_tables_from_alignment(_v(words), CFG) == []


def test_alignment_detection_rejects_duplicate_pattern():
    # >70% duplicate cell texts = repeating furniture, not data
    xs = [100.0, 180.0, 260.0, 340.0]
    ys = [200.0, 230.0, 260.0, 290.0]
    words = [
        _word("same", xs[c] + 4.0, ys[r] + 4.0, w=16.0)
        for r in range(3)
        for c in range(3)
    ]
    assert detect_tables_from_alignment(_v(words), CFG) == []


def test_dedupe_tables_confidence_desc():
    t_hi = {"bbox": [0, 0, 100, 100], "rows": 3, "cols": 3, "cells": [], "confidence": 0.9}
    t_lo = {"bbox": [50, 50, 150, 150], "rows": 3, "cols": 3, "cells": [], "confidence": 0.7}
    t_far = {"bbox": [500, 500, 600, 600], "rows": 3, "cols": 3, "cells": [], "confidence": 0.6}
    kept = dedupe_tables([t_lo, t_far, t_hi])
    assert [t["confidence"] for t in kept] == [0.9, 0.6]


def test_detect_tables_prefers_lines_over_alignment():
    xs = [100.0, 180.0, 260.0, 340.0]
    ys = [200.0, 230.0, 260.0, 290.0]
    words = _grid_words(xs, ys)
    cfg = CFG.with_overrides(detect_text_tables=True)
    tables = detect_tables(_v(words), _grid_lines(xs, ys), cfg)
    assert len(tables) == 1
    assert tables[0]["method"] == "lines"
    # without lines the alignment fallback fires
    tables = detect_tables(_v(words), [], cfg)
    assert len(tables) == 1
    assert tables[0]["method"] == "alignment"


def test_detect_textboxes():
    rect = {"x0": 100.0, "top": 100.0, "x1": 300.0, "bottom": 200.0}
    words_in = [_word(f"w{i}", 110.0 + i * 25.0, 120.0) for i in range(6)]
    outside = [_word("out", 500.0, 500.0)]
    boxes = detect_textboxes([rect], _v(words_in + outside), [], CFG)
    assert boxes == [[100.0, 100.0, 300.0, 200.0]]
    # too few words
    assert detect_textboxes([rect], _v(words_in[:3]), [], CFG) == []
    # overlapping a table -> skipped
    table = {"bbox": [90.0, 90.0, 310.0, 210.0], "rows": 3, "cols": 3, "cells": [], "confidence": 0.9}
    assert detect_textboxes([rect], _v(words_in), [table], CFG) == []
    # too small
    small = {"x0": 100.0, "top": 100.0, "x1": 130.0, "bottom": 110.0}
    assert detect_textboxes([small], _v(words_in), [], CFG) == []


def test_extract_page_uses_detection_end_to_end():
    from pdf_extractor_ray.functions.pdf_words import extract_pdf_pages

    xs = [100.0, 180.0, 260.0, 340.0]
    ys = [300.0, 330.0, 360.0, 390.0]
    page = {
        "width": 612.0,
        "height": 792.0,
        "words": _grid_words(xs, ys) + [_word("Body", 72.0, 100.0), _word("text", 110.0, 100.0)],
        "lines": _grid_lines(xs, ys),
    }
    res = extract_pdf_pages([page])
    assert res["n_tables_detected"] == 1
    assert "[TABLE: 3x3]" in res["text"]
    assert "| c00 | c01 | c02 |" in res["text"]
    assert res["text"].startswith("Body text")
    # cell words must NOT leak into the flow text
    assert "c00" not in res["text"].split("[TABLE: 3x3]")[0]


WS_CFG = CFG.with_overrides(detect_ws_tables=True)


def _ws_table_words():
    """3 columns separated by wide empty channels, IRREGULAR x0s inside
    each column (right-aligned numbers drift) — alignment clustering
    cannot see this, whitespace channels can. Column x-extents:
    [100,160] [220,280] [340,400]; channels [160,220] and [280,340]."""
    words = []
    for r in range(4):
        top = 300.0 + 20.0 * r
        words.append(_word(f"a{r}", 100.0 + 7.0 * r, top, w=30.0))  # ragged left col
        words.append(_word(f"b{r}", 250.0 - 6.0 * r, top, w=28.0))  # ragged middle
        words.append(_word(f"c{r}", 340.0 + 5.0 * r, top, w=26.0))
    return words


def test_whitespace_detection_finds_channel_table():
    from pdf_extractor_ray.functions.layout import detect_tables_from_whitespace

    tables = detect_tables_from_whitespace(_v(_ws_table_words()), WS_CFG)
    assert len(tables) == 1
    t = tables[0]
    assert t["method"] == "whitespace"
    assert (t["rows"], t["cols"]) == (4, 3)
    assert t["cells"][0] == ["a0", "b0", "c0"]
    assert t["cells"][3] == ["a3", "b3", "c3"]
    assert 0.5 <= t["confidence"] <= 0.8


def test_whitespace_detection_needs_consistent_channels():
    from pdf_extractor_ray.functions.layout import detect_tables_from_whitespace

    # prose: one long line per row fills the span -> no shared channel
    words = [
        _word(f"w{r}{c}", 100.0 + 34.0 * c + 3.0 * r, 300.0 + 20.0 * r, w=30.0)
        for r in range(4)
        for c in range(8)
    ]
    assert detect_tables_from_whitespace(_v(words), WS_CFG) == []


def test_whitespace_detection_off_by_default_and_ranked_below_lines():
    from pdf_extractor_ray.functions.layout import detect_tables

    words = _ws_table_words()
    assert detect_tables(_v(words), [], CFG) == []  # default: off
    got = detect_tables(_v(words), [], WS_CFG)
    assert len(got) == 1 and got[0]["method"] == "whitespace"
    # with ruling lines present, the lines strategy wins (fires first)
    xs = [100.0, 180.0, 260.0, 340.0]
    ys = [300.0, 330.0, 360.0, 390.0]
    grid = _grid_words(xs, ys) 
    both = detect_tables(_v(grid), _grid_lines(xs, ys), WS_CFG)
    assert len(both) == 1 and both[0]["method"] == "lines"
