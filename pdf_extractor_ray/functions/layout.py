"""Geometry-based table and textbox DETECTION (no hints needed).

Re-derives, from scratch, the reference's layout detection semantics
over a page's word view (``pdf_words._Words``: columns in (top, x0,
text) reading order, addressed by position) and its line/rect dicts:

- line-based grids from ruling-line segments (reference
  layout_analyzer.py:269-304 delegates to pdfplumber's lines strategy;
  here the grid is built directly from clustered segment positions)
- alignment-based (borderless) tables via 1-D x/y clustering +
  fill-rate confidence (reference table_detector_enhanced.py:313-369
  `_find_aligned_columns`/`_find_aligned_rows`, :369-426
  `_build_table_from_alignment`)
- validation thresholds (reference layout_analyzer.py:404-439
  `_is_valid_table`: >=3 rows, >=3 cols, >=9 cells, >=50% filled;
  text-based additionally capped at 20 rows / 10 cols and rejected on
  >70% duplicate cell texts)
- confidence-descending overlap dedup — SURVEY.md §2 D2 (reference
  layout_analyzer.py:440-469 `_deduplicate_tables`,
  table_detector_enhanced.py:481-505 `_merge_tables`)
- textbox/sidebar rects (reference layout_analyzer.py:471-532
  `_detect_textboxes`: big-enough rects, not overlapping a table,
  holding >= textbox_min_words words)

Alignment (text-based) detection is OFF by default, mirroring the
reference's production setting (layout_analyzer.py:222-223
`enable_text_detection = False  # too many false positives`).

All outputs use the pipeline's table dict shape
{bbox: [x0, top, x1, bottom], rows, cols, cells, confidence, method}
consumed by extract_page / format_table (pdf_words.py).
Determinism: explicit total sort keys everywhere, no set iteration.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from pdf_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig


def _cluster_1d(values: list[float], tol: float, min_members: int = 1) -> list[tuple[float, int]]:
    """Single-linkage 1-D clustering of sorted values: a gap > tol
    starts a new cluster. Returns [(mean, n_members)] for clusters with
    >= min_members (reference table_detector_enhanced.py:313-336)."""
    if not values:
        return []
    vs = sorted(values)
    out: list[tuple[float, int]] = []
    cur = [vs[0]]
    for v in vs[1:]:
        if v - cur[-1] <= tol:
            cur.append(v)
        else:
            if len(cur) >= min_members:
                out.append((sum(cur) / len(cur), len(cur)))
            cur = [v]
    if len(cur) >= min_members:
        out.append((sum(cur) / len(cur), len(cur)))
    return out


def _columns(v: Any) -> tuple[list[float], list[float], list[float], list[float]]:
    """The view's x0, x1, top and bottom as Python float lists."""
    return v.xy[:4].tolist()


def _cell_grid_from_edges(
    v: Any, pos: Any, xs: list[float], ys: list[float], min_cells: int, min_fill: float
) -> tuple[list[list[str]] | None, float]:
    """Fill an (len(ys)-1) x (len(xs)-1) grid from the words at ``pos``
    whose center falls in each cell rect; returns (cells, fill_rate).
    A center's column is the first whose right edge it does not pass
    (edges ascend, so a binary search finds it), its row likewise.
    Words joined in reading order (top, x0, text), i.e. by position.
    The fill counts the occupied cells only (a cell is filled when its
    joined text is non-empty: one non-empty word, or two words of any
    text), so a grid under ``min_cells`` or ``min_fill`` returns cells
    None without building its (mostly empty) dense grid."""
    nrows, ncols = len(ys) - 1, len(xs) - 1
    pos = np.asarray(pos, np.intp)
    cx, cy = (v.x0[pos] + v.x1[pos]) / 2.0, (v.top[pos] + v.bottom[pos]) / 2.0
    inside = (xs[0] <= cx) & (cx <= xs[-1]) & (ys[0] <= cy) & (cy <= ys[-1])
    cols = np.minimum(np.searchsorted(xs[1:], cx[inside]), ncols - 1)
    rows = np.minimum(np.searchsorted(ys[1:], cy[inside]), nrows - 1)
    pos = pos[inside]
    key = rows.astype(np.int64) * ncols + cols
    cell, n = np.unique(key, return_counts=True)
    texted = key[np.array([bool(v.text[p]) for p in pos.tolist()], bool)]
    filled = np.union1d(cell[n > 1], texted).size
    fill = filled / (nrows * ncols) if nrows * ncols else 0.0
    if nrows * ncols < min_cells or fill < min_fill:
        return None, fill
    buckets: list[list[list[int]]] = [[[] for _ in range(ncols)] for _ in range(nrows)]
    for p, r, c in zip(pos.tolist(), rows.tolist(), cols.tolist()):
        buckets[r][c].append(p)
    cells = [[" ".join(v.text[p] for p in sorted(b)) for b in row] for row in buckets]
    return cells, fill


def detect_tables_from_lines(
    v: Any, lines: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Bordered-table detection: cluster ruling-line segments into
    horizontal y-positions and vertical x-positions; >= min_rows+1
    horizontals crossed by >= min_cols+1 verticals form a grid.
    Horizontal lines are first grouped into y-bands separated by more
    than table_group_gap so multiple ruled tables on one page stay
    separate. Confidence 0.9 (reference layout_analyzer.py:285-289)."""
    h_ys = sorted(
        ((ln["top"] + ln["bottom"]) / 2.0, min(ln["x0"], ln["x1"]), max(ln["x0"], ln["x1"]))
        for ln in lines
        if abs(ln["bottom"] - ln["top"]) <= 1.0 and abs(ln["x1"] - ln["x0"]) > 1.0
    )
    v_lines = [
        ((ln["x0"] + ln["x1"]) / 2.0, min(ln["top"], ln["bottom"]), max(ln["top"], ln["bottom"]))
        for ln in lines
        if abs(ln["x1"] - ln["x0"]) <= 1.0 and abs(ln["bottom"] - ln["top"]) > 1.0
    ]
    if not h_ys or not v_lines:
        return []
    # group horizontals into tables by y gap
    groups: list[list[tuple[float, float, float]]] = [[h_ys[0]]]
    for h in h_ys[1:]:
        if h[0] - groups[-1][-1][0] <= cfg.table_group_gap:
            groups[-1].append(h)
        else:
            groups.append([h])
    tables = []
    for grp in groups:
        ys = [t[0] for t in _cluster_1d([h[0] for h in grp], cfg.table_line_tol)]
        if len(ys) < cfg.table_min_rows + 1:
            continue
        y_lo, y_hi = ys[0] - cfg.table_line_tol, ys[-1] + cfg.table_line_tol
        xs = [
            t[0]
            for t in _cluster_1d(
                [x for (x, t0, t1) in v_lines if t0 <= y_hi and t1 >= y_lo], cfg.table_line_tol
            )
        ]
        if len(xs) < cfg.table_min_cols + 1:
            continue
        cells, fill = _cell_grid_from_edges(
            v, range(len(v.text)), xs, ys, cfg.table_min_cells, cfg.table_min_fill
        )
        if cells is None:
            continue
        nrows, ncols = len(ys) - 1, len(xs) - 1
        tables.append(
            {
                "bbox": [xs[0], ys[0], xs[-1], ys[-1]],
                "rows": nrows,
                "cols": ncols,
                "cells": cells,
                "confidence": 0.9,
                "method": "lines",
            }
        )
    return tables


def detect_tables_from_alignment(
    v: Any, cfg: PipelineConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Borderless-table detection by x/y alignment clustering
    (reference table_detector_enhanced.py:313-426):

    - column positions = x0 clusters with >= 3 members
    - row positions = top clusters over column-aligned words, kept when
      at least half the columns have a word there
    - confidence = 0.6 + fill_rate * 0.3
    - strict text-based validation (reference layout_analyzer.py:420-439)
    """
    X0, X1, TOP, BOT = _columns(v)
    cols = [c for c, n in _cluster_1d(X0, cfg.table_align_tol, min_members=3)]
    if len(cols) < cfg.table_min_cols:
        return []
    col_tops = [t for x, t in zip(X0, TOP) if any(abs(x - c) <= cfg.table_align_tol for c in cols)]
    need = max(1, int(len(cols) * 0.5))
    rows = [r for r, n in _cluster_1d(col_tops, cfg.table_row_tol, min_members=need)]
    if len(rows) < cfg.table_min_rows:
        return []
    # strict caps: oversized "tables" are just aligned prose
    if len(rows) > cfg.table_max_rows_text or len(cols) > cfg.table_max_cols_text:
        return []
    # cell assignment by nearest alignment (2x column tol, row tol)
    cells: list[list[str]] = [["" for _ in cols] for _ in rows]
    matched: list[int] = []
    for p, text in enumerate(v.text):  # reading order
        ci = next(
            (i for i, c in enumerate(cols) if abs(X0[p] - c) <= cfg.table_align_tol * 2), None
        )
        ri = next((i for i, r in enumerate(rows) if abs(TOP[p] - r) <= cfg.table_row_tol), None)
        if ci is None or ri is None:
            continue
        cells[ri][ci] = (cells[ri][ci] + " " + text).strip()
        matched.append(p)
    total = len(rows) * len(cols)
    non_empty = sum(1 for row in cells for c in row if c.strip())
    if total < cfg.table_min_cells or non_empty < total * cfg.table_min_fill:
        return []
    texts = [c.strip() for row in cells for c in row if c.strip()]
    if len(set(texts)) < len(texts) * 0.3:  # >70% duplicates = pattern, not data
        return []
    fill = non_empty / total
    bbox = [
        min(X0[p] for p in matched),
        min(TOP[p] for p in matched),
        max(X1[p] for p in matched),
        max(BOT[p] for p in matched),
    ]
    return [
        {
            "bbox": bbox,
            "rows": len(rows),
            "cols": len(cols),
            "cells": cells,
            "confidence": 0.6 + fill * 0.3,
            "method": "alignment",
        }
    ]


def detect_tables_from_whitespace(
    v: Any, cfg: PipelineConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Whitespace-channel (strategy-3) detection for column-aligned
    tables with NO rulings and IRREGULAR x0s (reference
    table_detector_enhanced.py:230-280 `_detect_whitespace_based`;
    independent decomposition here):

    1. bucket words into text rows by top clustering
       (`_cluster_1d(tol=table_row_tol)`)
    2. over every maximal run of >= table_min_rows consecutive rows,
       intersect the rows' horizontal whitespace (the complement of
       each row's occupied x-intervals): a CHANNEL is an x-gap at
       least ws_channel_min_w wide that stays word-free in EVERY row
       of the run and lies strictly inside the run's word span
    3. >= table_min_cols - 1 channels split the span into columns;
       cells fill by word-center containment and pass the same
       validation gates as alignment detection (min cells, fill rate,
       row/col caps, duplicate-cell-text cap)

    Unlike x0-alignment clustering this tolerates ragged column
    interiors (right-aligned numbers, centered headers) because only
    the SHARED EMPTY vertical bands matter. Confidence 0.5 + fill*0.3
    ranks below lines (0.9) and alignment (0.6+) in the D2 dedup."""
    if not len(v.text):
        return []
    X0, X1, TOP, BOT = _columns(v)
    row_centers = [r for r, n in _cluster_1d(TOP, cfg.table_row_tol, min_members=1)]
    rows: list[list[int]] = [[] for _ in row_centers]
    for p, t in enumerate(TOP):  # reading order
        ri = min(range(len(row_centers)), key=lambda i: abs(t - row_centers[i]))
        if abs(t - row_centers[ri]) <= cfg.table_row_tol:
            rows[ri].append(p)
    rows = [r for r in rows if r]
    if len(rows) < cfg.table_min_rows:
        return []

    def channels_of_run(run: list[list[int]]) -> list[tuple[float, float]]:
        lo = max(min(X0[p] for p in r) for r in run)  # shared span only
        hi = min(max(X1[p] for p in r) for r in run)
        if hi - lo <= 0:
            return []
        # sweep: intersect each row's gaps with the running channels
        channels = [(lo, hi)]
        for r in run:
            occupied = sorted((X0[p], X1[p]) for p in r)
            nxt: list[tuple[float, float]] = []
            for c0, c1 in channels:
                pos = c0
                for x0, x1 in occupied:
                    if x1 <= pos or x0 >= c1:
                        continue
                    if x0 > pos:
                        nxt.append((pos, min(x0, c1)))
                    pos = max(pos, x1)
                if pos < c1:
                    nxt.append((pos, c1))
            channels = [(a, b) for a, b in nxt if b - a >= cfg.ws_channel_min_w]
            if not channels:
                break
        # channels strictly inside the span split it into columns
        return [(a, b) for a, b in channels if a > lo and b < hi]

    tables: list[dict] = []
    i = 0
    while i + cfg.table_min_rows <= len(rows):
        # grow the run while channels survive
        best: tuple[int, list[tuple[float, float]]] | None = None
        for j in range(i + cfg.table_min_rows, len(rows) + 1):
            ch = channels_of_run(rows[i:j])
            if len(ch) >= cfg.table_min_cols - 1:
                best = (j, ch)
            else:
                break
        if best is None:
            i += 1
            continue
        j, ch = best
        run = [p for r in rows[i:j] for p in r]
        xs = [min(X0[p] for p in run)] + [(a + b) / 2.0 for a, b in ch] + [max(X1[p] for p in run)]
        ys_centers = [r for r, n in _cluster_1d([TOP[p] for p in run], cfg.table_row_tol)]
        step = cfg.table_row_tol
        ys = [ys_centers[0] - step] + [
            (a + b) / 2.0 for a, b in zip(ys_centers, ys_centers[1:])
        ] + [max(BOT[p] for p in run)]
        cells, fill = _cell_grid_from_edges(v, run, xs, ys, cfg.table_min_cells, cfg.table_min_fill)
        nrows, ncols = len(ys) - 1, len(xs) - 1
        texts = [c.strip() for row in cells or [] for c in row if c.strip()]
        valid = (
            cells is not None
            and cfg.table_min_rows <= nrows <= cfg.table_max_rows_text
            and cfg.table_min_cols <= ncols <= cfg.table_max_cols_text
            and len(set(texts)) >= len(texts) * 0.3
        )
        if valid:
            tables.append(
                {
                    "bbox": [
                        min(X0[p] for p in run),
                        min(TOP[p] for p in run),
                        max(X1[p] for p in run),
                        max(BOT[p] for p in run),
                    ],
                    "rows": nrows,
                    "cols": ncols,
                    "cells": cells,
                    "confidence": 0.5 + fill * 0.3,
                    "method": "whitespace",
                }
            )
            i = j
        else:
            i += 1
    return tables


def _bboxes_overlap(b1: list[float], b2: list[float]) -> bool:
    if b1[2] < b2[0] or b2[2] < b1[0]:
        return False
    if b1[3] < b2[1] or b2[3] < b1[1]:
        return False
    return True


def dedupe_tables(tables: list[dict]) -> list[dict]:
    """D2: sort confidence-descending (bbox tiebreak for determinism),
    keep each table only if it overlaps no higher-confidence kept one
    (reference layout_analyzer.py:440-469)."""
    ordered = sorted(
        tables, key=lambda t: (-t.get("confidence", 0.0), t["bbox"][1], t["bbox"][0])
    )
    kept: list[dict] = []
    for t in ordered:
        if not any(_bboxes_overlap(t["bbox"], k["bbox"]) for k in kept):
            kept.append(t)
    return kept


def detect_tables(
    v: Any, lines: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Full detection chain: line-based first; alignment-based only
    when no bordered table was found (reference
    layout_analyzer.py:269-301 tries text-based only as fallback);
    whitespace-channel last (reference strategy 3,
    table_detector_enhanced.py:230-280 — fires when neither rulings
    nor x0-alignment do); confidence-dedup the union."""
    tables: list[dict] = []
    if cfg.detect_line_tables and lines:
        tables = detect_tables_from_lines(v, lines, cfg)
    if cfg.detect_text_tables and not tables:
        tables = detect_tables_from_alignment(v, cfg)
    if cfg.detect_ws_tables and not tables:
        tables = detect_tables_from_whitespace(v, cfg)
    return dedupe_tables(tables)


def detect_textboxes(
    rects: list[dict],
    v: Any,
    tables: list[dict],
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> list[list[float]]:
    """Textbox/sidebar rects: large enough, not overlapping any table,
    containing >= textbox_min_words words by center containment
    (reference layout_analyzer.py:471-532). Returns bbox lists in
    (top, x0) order for the pipeline's `boxes` slot."""
    out: list[list[float]] = []
    tboxes = [t["bbox"] for t in tables]
    cx, cy = None, None
    for r in sorted(rects, key=lambda r: (r["top"], r["x0"])):
        bbox = [r["x0"], r["top"], r["x1"], r["bottom"]]
        if bbox[2] - bbox[0] < cfg.textbox_min_w or bbox[3] - bbox[1] < cfg.textbox_min_h:
            continue
        if any(_bboxes_overlap(bbox, tb) for tb in tboxes):
            continue
        if cx is None:
            cx, cy = (v.x0 + v.x1) / 2.0, (v.top + v.bottom) / 2.0
        n_inside = np.count_nonzero((bbox[0] <= cx) & (cx <= bbox[2]) & (bbox[1] <= cy) & (cy <= bbox[3]))
        if n_inside >= cfg.textbox_min_words:
            out.append(bbox)
    return out
