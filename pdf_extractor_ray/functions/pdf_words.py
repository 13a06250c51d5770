"""PDF layout extraction over word geometry.

Re-implements, from scratch, the reference's per-document extraction
semantics (reference extractor.py:91-994) as pure functions over the
word domain that pdfplumber's
``page.extract_words(extra_attrs=['fontname','size','height'])``
yields (reference extractor.py:163-169), held as columns: a page's
``words`` is one ``WordColumns`` (text, x0, x1, top, bottom, size,
fontname, and upright where some word is rotated), which the codec
emits and ``page_columns`` builds from hand-written word dicts.

Per document (reference extract_pdf, extractor.py:91-121): M2 repeating
headers/footers over the first min(5, n) pages; per page D1 dedupe, M15
table-word exclusion, J3 textboxes, M13 super/subscripts, M4-M8
metadata filter, M9 columns, M10-M12 lines and spacing, M16 tables;
then M17 cleanup (pages joined by a blank line), J1 footnotes, metrics.

One sort, one pass: each page's words become one column view
(``_Words``), a text list plus float64 arrays for x0, x1, top, bottom
and size in one stable (top, x0, text) order, from Python's ``sorted``
over the columns' keys so ties keep input order. D1, M2, J1, J4, the
line grouping and layout.py's detectors share that order; every stage
passes index arrays into the view, never word dicts. Only
header/footer-zone words meet the M4-M8 regexes (no other word can be
dropped), M9 is a cumulative-max sweep and M13 finds bases through a
grid. Float expressions stay the reference's: centers ``(a + b) /
2.0``, Python ``(dx ** 2 + dy ** 2) ** 0.5`` for isolation, Python
``round`` values in the D1 key (numpy rounds 0.15 to 0.2). No set order
or clock reaches output (reference extractor.py:3-9, SURVEY.md §7.4).

Payload encoding (FIXTURES.md F3): fixtures carry
``%PDF-FIXTURE\n`` + JSON {pages: [{width, height, words: [...],
tables: [{bbox, rows, cols, cells}]}]}, their word dicts read through
``page_columns``. Real ``%PDF-`` binaries go through the in-repo
tokenizer (functions/pdf_codec.py); a PDF outside its subset raises
UnsupportedPdfError.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from collections import Counter
from operator import itemgetter, methodcaller
from typing import Any

import numpy as np

from pdf_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig

FIXTURE_MAGIC = b"%PDF-FIXTURE\n"

# ---------------------------------------------------------------------------
# Pattern families (re-derived from reference extractor.py:56-85,
# footnote_extractor.py:71-103 — compiled once per actor via Patterns()).
# ---------------------------------------------------------------------------


class Patterns:
    """Compiled regex tables; build once per actor (reference holds them
    on the extractor instance, extractor.py:56-85 / processor.py:32)."""

    def __init__(self) -> None:
        # R1 section numbers — KEEP (extractor.py:66-74, M5 :315-336)
        self.section = [
            re.compile(r"^\d+(\.\d+)+\.?$"),          # 1.2 / 3.4.5
            re.compile(r"^\(\d+\)$"),                   # (1)
            re.compile(r"^[①-⑳]$"),                    # circled digits
            re.compile(r"^第\d+[章節条項]$"),           # 第1章
            re.compile(r"^[一二三四五六七八九十]+[、.]$"),  # 一、
            re.compile(r"^\d+[.)]$"),                  # 1.  1)
        ]
        # R2 footnote markers — KEEP (extractor.py:75-80)
        self.footnote_marker = [
            re.compile(r"^\*\d+$"),                     # *1
            re.compile(r"^※\d*$"),                      # ※ / ※1
            re.compile(r"^[†‡]$"),
            re.compile(r"^[¹²³⁴⁵⁶⁷⁸⁹⁰]+$"),            # unicode superscripts
            re.compile(r"^\(注\d*\)$"),
        ]
        # R3 strict page numbers — DROP when isolated in margin zones
        # (extractor.py:56-65, M6 :338-383)
        self.page_number = [
            re.compile(r"^-?\s?\d{1,4}\s?-?$"),        # 5 / -5- / - 5 -
            re.compile(r"^\d{1,4}\s*/\s*\d{1,4}$"),   # 5/20
            re.compile(r"^[Pp]age\s*\d{1,4}$"),
            re.compile(r"^\d{1,4}ページ$"),
        ]
        # footnote definition heads, e.g. "*1:" "※2." (footnote_extractor.py:71-103)
        self.footnote_def = re.compile(r"^(\*\d+|※\d*|[†‡]|\(注\d*\))[::.．]?$")
        # combined alternations: each branch keeps its own ^...$ anchors,
        # so ONE .match() call replaces the per-pattern any() loop in the
        # per-word hot path (~11 match calls/word -> 2; measured ~1.2M
        # regex calls per 1k docs before)
        self.section_any = re.compile("|".join(p.pattern for p in self.section))
        self.footnote_marker_any = re.compile("|".join(p.pattern for p in self.footnote_marker))
        self.page_number_any = re.compile("|".join(p.pattern for p in self.page_number))


# ---------------------------------------------------------------------------
# Character classes (M12, extractor.py:612-627)
# ---------------------------------------------------------------------------

_JP_RANGES = (
    (0x3040, 0x309F),  # hiragana
    (0x30A0, 0x30FF),  # katakana
    (0x4E00, 0x9FFF),  # CJK unified
    (0x3400, 0x4DBF),  # CJK ext A
    (0xFF66, 0xFF9D),  # halfwidth katakana
)
_NO_SPACE_BEFORE = set(")]}>,.;:!?、。），．」』】〕〉》!?%")
_NO_SPACE_AFTER = set("([{<（「『【〔〈《$")


# flat lookup set (~28k codepoints, built once) — the per-char range
# scan was the hottest call in the PDF path (180k calls/1.3k docs)
_JP_CHARS = frozenset(
    chr(cp) for lo, hi in _JP_RANGES for cp in range(lo, hi + 1)
)


def is_japanese_char(ch: str) -> bool:
    return ch in _JP_CHARS


# ---------------------------------------------------------------------------
# The page's column view; D1 — exact word dedup at identical coordinates
# (error_handler.py:542-574)
# ---------------------------------------------------------------------------

class WordColumns:
    """One page's words as columns, in content-stream order: what
    ``parse_pdf_bytes`` emits as a page's ``"words"`` and what every
    reader of a page takes. ``text``, ``x0``, ``x1``, ``top``,
    ``bottom``, ``size`` and ``fontname`` are lists of one length;
    ``upright`` is None unless some word is rotated, then one flag per
    word (False where rotated); ``unsized`` is None unless some word
    had no size (read as 10.0), then True for those. ``page_columns``
    builds one from word dicts."""

    __slots__ = ("text", "x0", "x1", "top", "bottom", "size", "fontname", "upright", "unsized")

    def __init__(self) -> None:
        self.text, self.x0, self.x1, self.top, self.bottom, self.size, self.fontname = [], [], [], [], [], [], []
        self.upright = self.unsized = None

    def __len__(self) -> int:
        return len(self.text)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WordColumns) and all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        return "WordColumns(" + ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__slots__) + ")"


_WORD_KEYS = ("text", "x0", "x1", "top", "bottom")
_GETTERS = tuple(map(itemgetter, _WORD_KEYS))
_SIZE, _FONTNAME = itemgetter("size"), methodcaller("get", "fontname")
_NO_SIZE = object()


def _loose_word(w: Any) -> tuple:
    """A word without all five keys (or no dict at all): its text, x0
    and top (missing reads 0.0) stay readable for recovery and the
    inventory; a None x1 makes its page's view fail."""
    if not isinstance(w, dict):
        return None, None, None, None, None
    whole = all(map(w.__contains__, _WORD_KEYS))
    return w.get("text"), w.get("x0", 0.0), w["x1"] if whole else None, w.get("top", 0.0), w.get("bottom")


def page_columns(words: Any) -> WordColumns:
    """The one way from word dicts (hand-written pages, the JSON
    fixture payload) to ``WordColumns``; columns pass through. Values
    stay as given; a missing size reads 10.0 and is marked in
    ``unsized``, ``upright`` is kept where some word carries it."""
    if isinstance(words, WordColumns):
        return words
    c = WordColumns()
    try:
        c.text, c.x0, c.x1, c.top, c.bottom = [list(map(g, words)) for g in _GETTERS]
        c.fontname = list(map(_FONTNAME, words))
    except (KeyError, TypeError):
        c.text, c.x0, c.x1, c.top, c.bottom = map(list, zip(*map(_loose_word, words)))
        c.fontname = [w.get("fontname") if isinstance(w, dict) else None for w in words]
    try:
        c.size = list(map(_SIZE, words))
    except (KeyError, TypeError):
        sizes = [w.get("size", _NO_SIZE) if isinstance(w, dict) else None for w in words]
        c.unsized = [s is _NO_SIZE for s in sizes]
        c.size = [10.0 if s is _NO_SIZE else s for s in sizes]
    if all(isinstance(w, dict) for w in words) and any("upright" in w for w in words):
        c.upright = [w.get("upright", True) for w in words]
    return c


def _columnar(page: Any) -> Any:
    """``page`` with its words as ``WordColumns`` (a copy when they
    were dicts)."""
    if not isinstance(page, dict) or isinstance(page.get("words"), WordColumns):
        return page
    return {**page, "words": page_columns(page.get("words", []))}


def _floats(values: Any, n: int = -1) -> np.ndarray:
    a = np.fromiter(values, np.float64, n)
    if np.isnan(a).any():  # a None reads as NaN: poison
        raise ValueError("non-numeric word geometry")
    return a


class _Words:
    """One page's words (``WordColumns``, or dicts through
    ``page_columns``) as a view in one stable (top, x0, text) reading
    order, which positions 0..n-1 index everywhere: ``text`` a list,
    x0, x1, top, bottom and size the rows of the float64 array ``xy``,
    ``unsized`` the words without a size, ``kept`` D1's survivors. A
    missing or non-numeric coordinate raises."""

    def __init__(self, words: Any) -> None:
        c = page_columns(words)
        xy = np.array((c.x0, c.x1, c.top, c.bottom, c.size), np.float64)
        if np.isnan(xy).any():  # a None reads as NaN: poison
            raise ValueError("non-numeric word geometry")
        keys = list(zip(c.top, c.x0, c.text))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        self.text = list(map(c.text.__getitem__, order))
        self.xy = xy[:, order]
        self.x0, self.x1, self.top, self.bottom, self.size = self.xy
        self.unsized = None if c.unsized is None else np.array(c.unsized, bool)[order]
        self.kept = _dedupe(self)


def _view(page: dict) -> _Words | None:
    """The page's view; None for a page without a word list or with a
    poison word (a document-level scan that meets None raises, and its
    caller falls back)."""
    try:
        return _Words(page["words"])
    except Exception:
        return None


def _tenths(a: np.ndarray) -> np.ndarray:
    """round(x, 1) * 10 for each x, as exact integers in float64: rint
    of x * 10 wherever x * 10 lies clear of a half (its rounding error
    is far below 1e-6 there), Python round for the rest."""
    f = a * 10.0
    k = np.rint(f)
    close = ~(np.abs(np.abs(f - k) - 0.5) > 1e-6) | ~(np.abs(f) < 1e9)
    if close.any():
        k[close] = np.rint(np.array([round(x, 1) for x in a[close].tolist()]) * 10.0)
    return k


def _dedupe(v: _Words) -> np.ndarray:
    """D1: layered/scanned PDFs often stamp the same word twice at the
    same spot; keep the first of each (round(x0,1), round(top,1), text)
    in reading order — exact reference semantics (error_handler.py:
    542-574 deduplicate_overlapping), with the rounded values compared
    as integer tenths. Returns the kept positions."""
    n = len(v.text)
    tx, tt = _tenths(v.xy[0:3:2])
    o = np.lexsort((tt, tx))
    if not ((tx[o[1:]] == tx[o[:-1]]) & (tt[o[1:]] == tt[o[:-1]])).any():
        return np.arange(n)  # no two words share a rounded spot, so no key repeats
    first: dict = {}
    firsts = list(map(first.setdefault, zip(tx.tolist(), tt.tolist(), v.text), range(n)))
    if len(first) == n:
        return np.arange(n)
    return (np.array(firsts) == np.arange(n)).nonzero()[0]


# ---------------------------------------------------------------------------
# M2 — repeating header/footer detection (extractor.py:123-159)
# ---------------------------------------------------------------------------


def detect_repeating_elements(
    pages: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG, views: list | None = None
) -> tuple[frozenset[str], frozenset[str]]:
    """Sample the first min(repeat_sample_pages, n) pages; any word text
    present in the header (top 10%) / footer (bottom 10%) zone of >=80%
    of sampled pages is a repeating element."""
    sample = pages[: min(cfg.repeat_sample_pages, len(pages))]
    if not sample:
        return frozenset(), frozenset()
    head_counts, foot_counts = Counter(), Counter()
    for page, v in zip(sample, views if views is not None else map(_view, sample)):
        h = page["height"]
        texts = v.text.__getitem__
        head_counts.update(set(map(texts, (v.top < cfg.header_zone_frac * h).nonzero()[0].tolist())))
        foot_counts.update(set(map(texts, (v.bottom > (1 - cfg.footer_zone_frac) * h).nonzero()[0].tolist())))
    need = cfg.repeat_min_frac * len(sample)
    headers = frozenset(t for t, c in head_counts.items() if c >= need)
    footers = frozenset(t for t, c in foot_counts.items() if c >= need)
    return headers, footers


# ---------------------------------------------------------------------------
# M13/M14 — super/subscript integration (extractor.py:629-792)
# ---------------------------------------------------------------------------

_SUP_MAP = str.maketrans("0123456789+-=()n", "⁰¹²³⁴⁵⁶⁷⁸⁹⁺⁻⁼⁽⁾ⁿ")
_SUB_MAP = str.maketrans("0123456789+-=()aeoxn", "₀₁₂₃₄₅₆₇₈₉₊₋₌₍₎ₐₑₒₓₙ")


def _attach_scripts(
    v: _Words, main: np.ndarray, texts: list[str], x1: np.ndarray, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Attach small raised/lowered glyphs to the word immediately to
    their left as Unicode super/subscript where a char map exists;
    otherwise keep the word unchanged (EXTRACT ONLY — never drop).
    Smalls are under script_size_ratio x the trimmed-mean size (A4,
    superscript_detector.py:161-177). In (x0, top, text) order each
    goes to the base whose right edge is nearest on its left within
    script_attach_dist and script_band (the first in reading order
    among equal edges), raised or lowered against the base's midline
    (extractor.py:665-689); the base then takes the small's x1. Bases
    are found in an (x1, top) and an (x1, bottom) grid. ``texts`` is
    the page's working copy; returns the positions left (in reading
    order) and the new x1."""
    if len(main) < 2:
        return main, x1
    size = v.size[main]
    if size.min() > 0 and size.min() >= cfg.script_size_ratio * size.max() * (1 + 1e-9):
        return main, x1  # the mean is at most the max: nothing is small
    vs = np.sort(size).tolist()
    k = int(len(vs) * cfg.trimmed_mean_frac)
    core = vs[k : len(vs) - k] or vs
    avg = sum(core) / len(core)
    if v.unsized is not None:
        size[v.unsized[main]] = avg
    small = size < cfg.script_size_ratio * avg
    if avg <= 0 or not small.any():
        return main, x1
    smalls, bases = main[small][v.x0[main[small]].argsort(kind="stable")].tolist(), main[~small]
    dist, band = cfg.script_attach_dist, cfg.script_band
    px, py = 1e-9 * (2.0 + abs(dist)), 1e-9 * (1.0 + abs(band))
    s0, st, sb, b1, bt, bb = v.x0[smalls], v.top[smalls], v.bottom[smalls], x1[bases], v.top[bases], v.bottom[bases]
    # a base outside the smalls' window never serves one (x1 moves only then)
    near = (b1 >= s0.min() - dist - px) & (b1 <= s0.max() + 1.0 + px) & (
        ((bt >= st.min() - band - py) & (bt <= st.max() + band + py))
        | ((bb >= sb.min() - band - py) & (bb <= sb.max() + band + py))
    )
    X0, X1, TOP, BOT = v.x0.tolist(), x1.tolist(), v.top.tolist(), v.bottom.tolist()
    cw, ch = max(dist + 1.0, 1.0), max(band, 1.0)
    grids: tuple[dict, dict] = ({}, {})

    def cells(b: int):
        if math.isfinite(X1[b]):
            for grid, y in zip(grids, (TOP[b], BOT[b])):
                if math.isfinite(y):
                    yield grid.setdefault((math.floor(X1[b] / cw), math.floor(y / ch)), set())

    for b in bases[near].tolist():
        for cell in cells(b):
            cell.add(b)
    attached, moved = [], []
    for s in smalls:
        x, t, b_ = X0[s], TOP[s], BOT[s]
        cands: set[int] = set()
        if math.isfinite(x):
            kxs = range(math.floor((x - dist - px) / cw), math.floor((x + 1.0 + px) / cw) + 1)
            for grid, y in zip(grids, (t, b_)):
                if math.isfinite(y):
                    for ky in range(math.floor((y - band - py) / ch), math.floor((y + band + py) / ch) + 1):
                        for kx in kxs:
                            cands.update(grid.get((kx, ky), ()))
        best = None
        for b in sorted(cands):  # the first in reading order among equal x1
            hgap = x - X1[b]
            if -1.0 <= hgap <= dist and (abs(t - TOP[b]) <= band or abs(b_ - BOT[b]) <= band):
                best = b if best is None or X1[b] > X1[best] else best
        if best is None:
            continue
        mapped = texts[s].translate(_SUP_MAP if b_ < (TOP[best] + BOT[best]) / 2.0 else _SUB_MAP)
        if mapped != texts[s]:
            texts[best] = texts[best] + mapped
            for cell in cells(best):
                cell.discard(best)
            X1[best] = X1[s]
            for cell in cells(best):
                cell.add(best)
            attached.append(s)
            moved.append(best)
    if not attached:
        return main, x1
    gone = np.zeros(len(X0), bool)
    gone[attached] = True
    return _reading_order(v, main[~gone[main]], texts, moved, smalls), np.array(X1)


def _reading_order(v: _Words, kept: np.ndarray, texts: list[str], moved: list, smalls: list) -> np.ndarray:
    """``kept`` in (top, x0, text) order: as they are, unless M13 changed
    the text of a word sharing its (top, x0); then the reference's
    stable sort over its input (bases, then unattached smalls) decides."""
    top, x0, n = v.top, v.x0, len(texts)
    if not any(
        (p > 0 and top[p - 1] == top[p] and x0[p - 1] == x0[p])
        or (p + 1 < n and top[p + 1] == top[p] and x0[p + 1] == x0[p])
        for p in moved
    ):
        return kept
    small = set(smalls)
    return np.array(sorted(kept.tolist(), key=lambda p: (top[p], x0[p], texts[p], p in small, p)), np.intp)


# ---------------------------------------------------------------------------
# M4-M8 — smart metadata filter (extractor.py:218-477)
# ---------------------------------------------------------------------------

_FOOTNOTE_PHRASES = ("参照", "参考", "出典", "引用", "See ", "Ref.", "Note:", "Source:", "注記", "備考")


def _filter_metadata(
    v: _Words, pos: np.ndarray, texts: list[str], x1: np.ndarray, page_width: float, zones: tuple[float, float],
    headers: frozenset[str], footers: frozenset[str], pats: Patterns, cfg: PipelineConfig,
) -> np.ndarray:
    """Keep content, drop page furniture. Rule order mirrors the
    reference (extractor.py:218-313): R1 section numbers keep, R2
    footnote markers keep, R4 repeated headers/footers drop, R3/R5
    page-number patterns drop only when isolated in the margin zones
    (M7) AND geometrically placed like a page number (M6) AND not
    footnote content (M8) — include-by-default when in doubt. Each
    drop needs a header/footer-zone word, so only those are tested."""
    top, bot = v.top[pos], v.bottom[pos]
    in_head, in_foot = top < zones[0], bot > zones[1]
    drop: list[int] = []
    cx = cy = None
    for j in (in_head | in_foot).nonzero()[0].tolist():
        t = texts[pos[j]]
        if pats.section_any.match(t) or pats.footnote_marker_any.match(t) or pats.footnote_def.match(t):
            continue
        foot = bool(in_foot[j])
        if (in_head[j] and t in headers) or (foot and t in footers):
            drop.append(j)
        elif pats.page_number_any.match(t):
            if cx is None:
                cx, cy = (v.x0[pos] + x1[pos]) / 2.0, (top + bot) / 2.0
            if (
                not _has_nearby_content(j, cx, cy, cfg.isolated_dist)
                and _is_page_number_position(float(v.x0[pos[j]]), float(x1[pos[j]]), page_width)
                and not (foot and _is_footnote_content(j, t, top, pos, texts, pats))
            ):
                drop.append(j)
    if not drop:
        return pos
    keep = np.ones(len(pos), bool)
    keep[drop] = False
    return pos[keep]


def _has_nearby_content(j: int, cx: np.ndarray, cy: np.ndarray, dist: float) -> bool:
    """M7 (extractor.py:385-418): another word's center within ``dist``
    points of word j's. A numpy box test picks the candidates; the
    distance is the reference's Python expression."""
    pad = 1e-9 * (1.0 + abs(dist))
    near = ((np.abs(cx - cx[j]) <= dist + pad) & (np.abs(cy - cy[j]) <= dist + pad)).nonzero()[0]
    x, y = float(cx[j]), float(cy[j])
    return any(((x - ox) ** 2 + (y - oy) ** 2) ** 0.5 <= dist for q, ox, oy in zip(
        near.tolist(), cx[near].tolist(), cy[near].tolist()) if q != j)


def _is_page_number_position(x0: float, x1: float, page_width: float) -> bool:
    """M6 geometric predicate (reference extractor.py:372-380): page
    numbers sit horizontally centered (within 20% of page center) or
    in a left/right corner (outer 20%); a margin digit elsewhere is
    probably content."""
    cx = (x0 + x1) / 2.0
    centered = abs(cx - page_width / 2.0) < page_width * 0.2
    in_left = x0 < page_width * 0.2
    in_right = x1 > page_width * 0.8
    return centered or in_left or in_right


def _is_footnote_content(j: int, t: str, top: np.ndarray, pos: np.ndarray, texts: list[str], pats: Patterns) -> bool:
    """M8 footnote-content keep rules (reference extractor.py:420-477)
    for a bottom-region word that is no marker/def itself: it sits on
    (about) the same line as one, has a footnote phrase, or carries
    substantial text (len > 10)."""
    if len(t) > 10 or any(p in t for p in _FOOTNOTE_PHRASES):
        return True
    same_line = (np.abs(top - top[j]) < 20.0).nonzero()[0]
    return any(
        pats.footnote_marker_any.match(texts[p]) or pats.footnote_def.match(texts[p])
        for q, p in zip(same_line.tolist(), pos[same_line].tolist())
        if q != j
    )


# ---------------------------------------------------------------------------
# M9-M11 — columns, reading-order lines, spacing (extractor.py:479-610)
# ---------------------------------------------------------------------------


def _render_columns(v: _Words, order: np.ndarray, texts: list[str], x1: np.ndarray, cfg: PipelineConfig) -> list[str]:
    """Text of each column of the words at ``order`` (reading order).
    M9: in a stable x0 order, a gap > column_gap_threshold between the
    running right edge (a cumulative max) and the next word starts a
    column (reference single-axis split, extractor.py:479-504). M10:
    words within line_height_threshold of a line's first word join it;
    a line reads in x0 order. M11: gap- and script-aware spacing
    (extractor.py:539-610)."""
    if not len(order):
        return []
    ox0 = v.x0[order]
    by_x = ox0.argsort(kind="stable")
    right = np.maximum.accumulate(x1[order][by_x])
    cut = (ox0[by_x[1:]] - right[:-1] > cfg.column_gap_threshold).nonzero()[0] + 1
    thr, latin, jp = cfg.line_height_threshold, cfg.latin_space_gap, cfg.jp_space_gap
    lo = min(latin, jp)
    columns = []
    for col in [order[np.sort(c)] for c in np.split(by_x, cut)] if len(cut) else [order]:
        words = list(map(texts.__getitem__, col.tolist()))
        xs0, xs1, tops = v.x0[col].tolist(), x1[col].tolist(), v.top[col].tolist()
        lines, i, n = [], 0, len(col)
        while i < n:
            anchor, j = tops[i], i + 1
            while j < n and tops[j] - anchor <= thr:  # tops ascend: the distance is the difference
                j += 1
            line = range(i, j) if tops[j - 1] == anchor else sorted(range(i, j), key=xs0.__getitem__)
            a, right = words[line[0]], xs1[line[0]]
            parts = [a]
            for k in line[1:]:
                b, gap = words[k], xs0[k] - right
                if gap > lo and a and b and b[0] not in _NO_SPACE_BEFORE and a[-1] not in _NO_SPACE_AFTER and gap > (
                    jp if a[-1] in _JP_CHARS and b[0] in _JP_CHARS else latin
                ):
                    parts += (" ", b)
                else:
                    parts.append(b)
                a, right = b, xs1[k]
            lines.append("".join(parts))
            i = j
        columns.append("\n".join(lines))
    return columns


# ---------------------------------------------------------------------------
# M16 — table formatting/insertion (extractor.py:844-874, layout_analyzer.py:70-103)
# ---------------------------------------------------------------------------


def format_table(table: dict) -> str:
    rows = table.get("cells", [])
    nrows = table.get("rows", len(rows))
    ncols = table.get("cols", max((len(r) for r in rows), default=0))
    lines = [f"[TABLE: {nrows}x{ncols}]"]
    for r in rows:
        padded = [str(c) for c in r] + [""] * (ncols - len(r))
        lines.append("| " + " | ".join(padded) + " |")
    lines.append("[TABLE END]")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# J1 — footnote marker <-> definition matching (footnote_extractor.py:303-371)
# ---------------------------------------------------------------------------

_MARKER_NORM = re.compile(r"[::.．\s]")


def _scan_footnotes(
    pages: list[dict], views: list, pats: Patterns, cfg: PipelineConfig = DEFAULT_CONFIG
) -> tuple[list[tuple[str, int]], list[dict]]:
    """Collect body markers and bottom-zone definitions per page in
    reading order, where the body is a prefix; a definition's text is
    the run of later words within line_height_threshold of its top."""
    markers, defs = [], []
    for pno, (page, v) in enumerate(zip(pages, views)):
        texts = v.text
        k = int(np.count_nonzero(v.top < (1 - cfg.footnote_zone_frac) * page["height"]))
        hits = list(map(pats.footnote_marker_any.match, texts[:k]))
        if hits.count(None) < k:
            markers += [(t, pno) for t, hit in zip(texts, hits) if hit]
        hits = list(map(pats.footnote_def.match, texts[k:]))
        if hits.count(None) < len(hits):
            tops = v.top.tolist()
            for i in range(k, len(texts)):
                if hits[i - k]:
                    end = bisect_right(tops, cfg.line_height_threshold, i + 1, key=lambda t, a=tops[i]: t - a)
                    defs.append({"marker": texts[i], "page": pno, "text": " ".join(texts[i + 1 : end]), "used": False})
    return markers, defs


def match_footnotes(
    pages: list[dict], pats: Patterns, cfg: PipelineConfig = DEFAULT_CONFIG
) -> list[dict]:
    """Greedy fuzzy 1:1 matching of body markers to bottom-zone
    definitions. Confidence: exact 1.0 / normalized 0.95, +0.3 same
    page, +0.2 same type, capped 1.0; accept > 0.5 — reference
    footnote_extractor.py:303-371. Returns
    [{marker, page, def_page, text, confidence}] sorted by (page, marker)."""
    return match_footnotes_full(pages, pats, cfg)[0]


def footnote_report(markers: list, defs: list[dict], matches: list[dict]) -> dict:
    """A6 — completeness verification (reference
    footnote_extractor.py:403-442 verify_completeness): match rate over
    markers with COMPLETE (=100) / PARTIAL (>=80) / POOR status, plus
    the D7 residue (unmatched definitions — set difference surfaced,
    reference's unmatched_definitions list)."""
    n_markers, n_defs, n_matches = len(markers), len(defs), len(matches)
    rate = round(100.0 * n_matches / n_markers, 1) if n_markers else 100.0
    status = "COMPLETE" if rate == 100.0 else ("PARTIAL" if rate >= 80.0 else "POOR")
    return {
        "n_markers": n_markers,
        "n_definitions": n_defs,
        "n_matches": n_matches,
        "match_rate": rate,
        "status": status,
        "n_unmatched_markers": n_markers - n_matches,
        "n_unmatched_defs": sum(1 for d in defs if not d["used"]),
    }


def match_footnotes_full(
    pages: list[dict], pats: Patterns, cfg: PipelineConfig = DEFAULT_CONFIG, views: list | None = None
) -> tuple[list[dict], dict]:
    """match_footnotes + the A6/D7 completeness report, one scan."""
    markers, defs = _scan_footnotes(pages, views if views is not None else [_view(p) for p in pages], pats, cfg)
    out = []
    for m_text, m_page in markers:
        m_norm = _MARKER_NORM.sub("", m_text)
        best, best_conf = None, 0.0
        for d in defs:
            if d["used"]:
                continue
            d_norm = _MARKER_NORM.sub("", d["marker"])
            if d["marker"] == m_text:
                conf = 1.0
            elif d_norm == m_norm:
                conf = 0.95
            else:
                continue
            if d["page"] == m_page:
                conf += 0.3
            conf = min(conf, 1.0)
            if conf > best_conf:
                best, best_conf = d, conf
        if best is not None and best_conf > 0.5:
            best["used"] = True
            out.append(
                {"marker": m_text, "page": m_page, "def_page": best["page"], "text": best["text"], "confidence": best_conf}
            )
    out.sort(key=lambda r: (r["page"], r["marker"]))
    return out, footnote_report(markers, defs, out)


# ---------------------------------------------------------------------------
# M17 — cleanup ladder (extractor.py:876-994)
# ---------------------------------------------------------------------------

_BLANKS_RE = re.compile(r"\n{3,}")
_TRAIL_WS_RE = re.compile(r"[ \t]+\n")

# _fix_spacing regex table (reference extractor.py:903-927)
_JP_CLS = r"[぀-ゟ゠-ヿ一-鿿]"
_FS_JP_JP = re.compile(rf"({_JP_CLS})\s+({_JP_CLS})")
_FS_BEFORE_PUNCT = re.compile(r"\s+([。、！？）］】」』])")
_FS_AFTER_OPEN = re.compile(r"([（［【「『])\s+")
_FS_JP_ALNUM = re.compile(rf"({_JP_CLS})([a-zA-Z0-9])")
_FS_ALNUM_JP = re.compile(rf"([a-zA-Z0-9])({_JP_CLS})")

# _join_lines guards (reference extractor.py:957-982)
_JL_TERMINATORS = set("。！？」』】）：；")
_JL_PARTICLES = set("はがをにでとのへからもや")
_JL_COMMAS = set("、，")
_JL_BULLET = re.compile(r"^[・■□●○①-⑳\d]+[.．)）]\s*")
_JL_SECTION = re.compile(r"^第?\d+[章条項節]")

# _fix_punctuation table (reference extractor.py:984-994)
_FP_DUP_MARU = re.compile(r"。+")
_FP_DUP_TOUTEN = re.compile(r"、+")
_FP_ASCII_ELLIPSIS = re.compile(r"\.\.\.+")
_FP_JP_ELLIPSIS = re.compile(r"・・・+")


def fix_spacing(text: str) -> str:
    """M17 opt-in: JP<->JP space removal, punctuation-adjacent space
    fixes, JP<->alnum space insertion (reference extractor.py:903-927
    regex table, mirrored 1:1)."""
    text = _FS_JP_JP.sub(r"\1\2", text)
    text = _FS_BEFORE_PUNCT.sub(r"\1", text)
    text = _FS_AFTER_OPEN.sub(r"\1", text)
    text = _FS_JP_ALNUM.sub(r"\1 \2", text)
    text = _FS_ALNUM_JP.sub(r"\1 \2", text)
    return text


def _should_join_lines(line: str, next_line: str) -> bool:
    """Join-guard rules (reference extractor.py:957-982)."""
    if not line or not next_line:
        return False
    if line[-1] in _JL_TERMINATORS:
        return False
    if _JL_BULLET.match(next_line) or _JL_SECTION.match(next_line):
        return False
    return line[-1] in _JL_PARTICLES or line[-1] in _JL_COMMAS


def join_lines(text: str) -> str:
    """M17 opt-in: merge a line into the next when it ends mid-clause
    (JP particle or comma), never across terminators / bullets /
    section heads (reference extractor.py:929-982)."""
    lines = text.split("\n")
    joined: list[str] = []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            joined.append("")
            i += 1
            continue
        if i < len(lines) - 1 and _should_join_lines(line, lines[i + 1].strip()):
            joined.append(line + lines[i + 1].strip())
            i += 2
            continue
        joined.append(line)
        i += 1
    return "\n".join(joined)


def fix_punctuation(text: str) -> str:
    """M17 opt-in: squeeze duplicate 。/、 runs, normalize ASCII and
    JP ellipsis runs to … (reference extractor.py:984-994)."""
    text = _FP_DUP_MARU.sub("。", text)
    text = _FP_DUP_TOUTEN.sub("、", text)
    text = _FP_ASCII_ELLIPSIS.sub("…", text)
    text = _FP_JP_ELLIPSIS.sub("…", text)
    return text


def cleanup_text(text: str, cfg: PipelineConfig | None = None) -> str:
    """Always: trailing-whitespace strip + blank-line squeeze. The
    reference's deeper ladder (_fix_spacing / _join_lines /
    _fix_punctuation, extractor.py:903-994) is OPT-IN via config —
    default-off so the byte-identity goldens pin the untransformed
    path (CLAUDE.md determinism contract)."""
    text = _TRAIL_WS_RE.sub("\n", text)
    text = _BLANKS_RE.sub("\n\n", text)
    if cfg is not None:
        if cfg.cleanup_join_lines:
            text = join_lines(text)
        if cfg.cleanup_fix_spacing:
            text = fix_spacing(text)
        if cfg.cleanup_fix_punctuation:
            text = fix_punctuation(text)
    return text.strip()


# ---------------------------------------------------------------------------
# A2/A3 — element inventory + coverage verification, M19/J4 metrics
# (reference element_inventory.py:85-202 counts by position region and
#  font-size class, :204-269 expected-vs-extracted coverage rollup;
#  error_handler.py:488-507 rotated text, :277-312 overlapping text)
# ---------------------------------------------------------------------------

_INVENTORY_KEYS = [f"{r}_{s}" for r in ("top", "middle", "bottom") for s in ("large", "normal", "small", "tiny")]


def _inventory(pages: list[dict]) -> dict[str, int]:
    """Per-document word counts keyed 'region_sizeclass' (regions: top
    15% / middle / bottom 15% of the page), in first-seen order. A
    missing top reads 0.0, a missing size 10.0."""
    tops: list = []
    sizes: list = []
    lims, counts = [], []
    for p in pages:
        h = p.get("height", 0.0) or 1.0
        c = page_columns(p.get("words", []))
        if len(c):
            tops += c.top
            sizes += c.size
            lims.append((0.15 * h, 0.85 * h))
            counts.append(len(c))
    top, size = _floats(tops), _floats(sizes)
    lo, hi = np.array(lims, np.float64).reshape(-1, 2).T.repeat(counts, axis=1)
    region = (top >= lo) * (1 + (top > hi))
    codes = region * 4 + 3 - (size >= 6) - (size >= 10) - (size > 18)
    n_by_key = np.bincount(codes, minlength=12).tolist()
    return {_INVENTORY_KEYS[k]: n_by_key[k] for k in dict.fromkeys(codes.tolist())}


# J4 candidate pairs: tested in chunks of at most _PAIR_CHUNK, and a page
# with more than _PAIR_BUDGET is refused (words stacked on one spot make
# the pairs quadratic); real pages stay below a few thousand
_PAIR_CHUNK = 1 << 16
_PAIR_BUDGET = 1 << 21


def _count_overlaps(views: list, overlap_frac: float) -> int:
    """J4: word pairs on one page whose bbox intersection exceeds
    overlap_frac of the smaller box, over a document's readable pages.
    In reading order a word's candidates end at the first later word on
    its page whose top clears its bottom (searchsorted); numpy tests the
    candidate pairs chunk by chunk. A page with more than _PAIR_BUDGET
    candidates raises UnsupportedPdfError("budget: ...")."""
    vs = [v for v in views if v is not None and len(v.text) > 1]
    if not vs:
        return 0
    x0, x1, top, bot = np.concatenate([v.xy[:4] for v in vs], axis=1)
    n, start, starts, ends = len(top), 0, [], []
    for v in vs:
        ends.append(v.top.searchsorted(v.bottom, side="left") + start)  # first j with top_j >= bot_i
        starts.append(start)
        start += len(v.text)
    c = np.maximum(np.concatenate(ends) - np.arange(1, n + 1), 0)
    most = int(np.add.reduceat(c, starts).max())
    if most > _PAIR_BUDGET:
        from pdf_extractor_ray.functions.pdf_codec import UnsupportedPdfError

        raise UnsupportedPdfError(f"budget: {most} candidate word pairs on one page (limit {_PAIR_BUDGET})")
    areas = (x1 - x0) * (bot - top)
    cum = np.add.accumulate(c)
    found = lo = 0
    while lo < n:
        base = int(cum[lo - 1]) if lo else 0
        hi = max(int(cum.searchsorted(base + _PAIR_CHUNK, side="right")), lo + 1)
        cc = c[lo:hi]
        k = int(cum[hi - 1]) - base
        if k:
            ii = np.arange(lo, hi).repeat(cc)
            jj = np.arange(k) - (cum[lo:hi] - cc - base).repeat(cc) + ii + 1
            x_ov = np.minimum(x1[ii], x1[jj]) - np.maximum(x0[ii], x0[jj])
            crossing = (x_ov > 0).nonzero()[0]
            ii, jj, x_ov = ii[crossing], jj[crossing], x_ov[crossing]
            y_ov = np.minimum(bot[ii], bot[jj]) - np.maximum(top[ii], top[jj])
            m = np.minimum(areas[ii], areas[jj])
            found += int(((y_ov > 0) & (m > 0) & (x_ov * y_ov > m * overlap_frac)).sum())
        lo = hi
    return found


def _doc_counts(pages: list[dict]) -> tuple[dict[str, int], int]:
    """(inventory, rotated words): METRICS only, the text is never
    transformed. A page whose words cannot be read adds no rotated
    count; an unreadable document has an empty inventory."""
    n_rotated = 0
    for p in pages:
        try:
            upright = page_columns(p.get("words", [])).upright
            if upright is not None:
                n_rotated += sum(u is False for u in upright)
        except Exception:
            pass
    try:
        inventory = _inventory(pages)
    except Exception:
        inventory = {}
    return inventory, n_rotated


def coverage_report(pages: list[dict], extracted_text: str) -> tuple[float, str]:
    """Expected-vs-extracted word coverage with the reference's status
    thresholds (GOOD >= 85, WARNING >= 70, else POOR)."""
    expected = sum(len(p.get("words", [])) for p in pages)
    if not expected:
        return 100.0, "GOOD"
    extracted = len(extracted_text.split())
    pct = round(100.0 * min(extracted, expected) / expected, 2)
    status = "GOOD" if pct >= 85.0 else ("WARNING" if pct >= 70.0 else "POOR")
    return pct, status


# ---------------------------------------------------------------------------
# M1/M3 — document driver (extract_pdf, extractor.py:91-121 + _extract_page :161-216)
# ---------------------------------------------------------------------------


def page_layout(
    page: dict, cfg: PipelineConfig = DEFAULT_CONFIG, view: _Words | None = None
) -> tuple[list[dict], list[list[float]], int]:
    """Resolve (tables, boxes, n_detected) for a page: explicit hints
    win; otherwise DETECT tables from ruling lines / word alignment and
    textboxes from border rects over the page's view (functions/
    layout.py; reference layout_analyzer.py:225-267 analyze_page)."""
    from pdf_extractor_ray.functions import layout as _layout

    v = view if view is not None else _view(page)  # None for poison words: raises where detection reads them
    tables = page.get("tables", [])
    n_detected = 0
    if not tables and (cfg.detect_line_tables or cfg.detect_text_tables or cfg.detect_ws_tables):
        tables = _layout.detect_tables(v, page.get("lines", []), cfg)
        n_detected = len(tables)
    boxes = page.get("boxes", [])
    if not boxes and cfg.detect_boxes and page.get("rects"):
        boxes = _layout.detect_textboxes(page.get("rects", []), v, tables, cfg)
    return tables, boxes, n_detected


def extract_page(
    page: dict, headers: frozenset[str], footers: frozenset[str], pats: Patterns, cfg: PipelineConfig = DEFAULT_CONFIG,
    layout: tuple[list[dict], list[list[float]], int] | None = None, view: _Words | None = None,
) -> str:
    """One page's text: the whole chain over the page's column view
    (built here unless the caller passes it)."""
    v = view if view is not None else _Words(page.get("words", []))
    tables, boxes, _ = layout if layout is not None else page_layout(page, cfg, v)
    width, height = page["width"], page["height"]
    zones = (cfg.header_zone_frac * height, (1 - cfg.footer_zone_frac) * height)
    pos, box_pos = v.kept, []
    if tables or boxes:
        # M15 table words leave the page; J3 textbox/sidebar words
        # (reference layout_analyzer.py:144-171, 509-532, integration
        # master_extractor.py:364-390) leave the main flow for the first
        # box holding their center
        cx, cy = (v.x0[pos] + v.x1[pos]) / 2.0, (v.top[pos] + v.bottom[pos]) / 2.0
        free = np.ones(len(pos), bool)
        for bx in [t["bbox"] for t in tables] + list(boxes):
            inside = free & (bx[0] <= cx) & (cx <= bx[2]) & (bx[1] <= cy) & (cy <= bx[3])
            free &= ~inside
            box_pos.append(pos[inside])
        pos, box_pos = pos[free], box_pos[len(tables) :]
    texts = list(v.text)
    pos, x1 = _attach_scripts(v, pos, texts, v.x1, cfg)
    pos = _filter_metadata(v, pos, texts, x1, width, zones, headers, footers, pats, cfg)
    text = "\n".join(t for t in _render_columns(v, pos, texts, x1, cfg) if t)
    for tb in sorted(tables, key=lambda t: (t["bbox"][1], t["bbox"][0])):
        formatted = format_table(tb)
        text = (text + "\n\n" + formatted) if text else formatted
    # textbox sections append after tables, in (top, x0) order
    for i in sorted(range(len(boxes)), key=lambda i: (boxes[i][1], boxes[i][0])):
        if len(box_pos[i]):
            section = "[BOX]\n" + "\n".join(_render_columns(v, box_pos[i], v.text, v.x1, cfg)) + "\n[BOX END]"
            text = (text + "\n\n" + section) if text else section
    return text


def _recover_page_text(page: dict) -> str | None:
    """Per-page recovery strategies 2+3 (reference
    error_handler.py:450-472): defensive reading-order word join, then
    raw text concatenation. Returns None when both fail."""
    try:
        c = page_columns(page.get("words", []))
    except Exception:
        return None
    try:
        ws = sorted((float(t), float(x), s) for s, t, x in zip(c.text, c.top, c.x0) if isinstance(s, str))
        if ws:
            return " ".join(s for _, _, s in ws)
    except Exception:
        pass
    parts = [s for s in c.text if isinstance(s, str)]
    return "".join(parts) if parts else None


def extract_pdf_pages(
    pages: list[dict], pats: Patterns | None = None, cfg: PipelineConfig = DEFAULT_CONFIG
) -> dict[str, Any]:
    """Full document extraction over parsed pages. Returns
    {text, n_pages, n_words, footnotes, fn_report, ...metrics} —
    single pass over the pages (the reference re-parses the PDF 5-6
    times per doc, master_extractor.py:172-615; we fold all phases
    into one pass, SURVEY.md §3.2).

    Per-page recovery ladder (reference error_handler.py:437-479): a
    page that fails full extraction is retried with (1) a relaxed
    config (wider line band, no layout detection), then (2) a
    defensive reading-order word join, then (3) raw concatenation;
    only if all fail does the page yield an error marker. A single
    poison page never costs the document; n_pages_recovered records
    the ladder hits."""
    return _extract_doc(pages, pats or Patterns(), cfg, {}, None)


def _extract_doc(
    pages: list[dict], pats: Patterns, cfg: PipelineConfig, done: dict[int, tuple[str, int, int]], journal: Any
) -> dict[str, Any]:
    """Every page through the ladder (or from ``done``), each new page
    result written to ``journal`` if given, then the doc-level combine.
    Each page's column view is built once and read by every phase; J4
    runs first, so a page over its pair budget costs no other stage."""
    pages = list(map(_columnar, pages))
    views = [_view(p) for p in pages]
    n_overlapping = _count_overlaps(views, cfg.overlap_area_frac)
    try:
        headers, footers = detect_repeating_elements(pages, cfg, views)
    except Exception:  # poison sample page: fall back to no repeats
        headers = footers = frozenset()
    page_texts: list[str] = []
    n_tables_detected = n_recovered = 0
    for pno, (p, v) in enumerate(zip(pages, views)):
        if pno in done:
            ptext, n_tbl, rec = done[pno]
        else:
            ptext, n_tbl, rec = _extract_page_ladder(p, pno, v, headers, footers, pats, cfg)
            if journal is not None:
                journal.write(json.dumps({"pno": pno, "text": ptext, "n_tbl": n_tbl, "rec": rec}, ensure_ascii=False) + "\n")
                journal.flush()
        page_texts.append(ptext)
        n_tables_detected += n_tbl
        n_recovered += rec
    return _finalize_doc(pages, views, page_texts, n_tables_detected, n_recovered, n_overlapping, pats, cfg)


def _extract_page_ladder(
    p: dict, pno: int, v: _Words | None, headers: frozenset[str], footers: frozenset[str], pats: Patterns, cfg: PipelineConfig
) -> tuple[str, int, int]:
    """One page through the full chain + recovery ladder. Returns
    (page_text, n_tables_detected, recovered_flag). Deterministic per
    (page, headers, footers, cfg) — the unit the page checkpoint
    journals."""
    try:
        lay = page_layout(p, cfg, v)
        return extract_page(p, headers, footers, pats, cfg, layout=lay, view=v), lay[2], 0
    except Exception:
        pass
    text = None
    try:  # strategy 1: relaxed re-extract, no layout detection
        relaxed = cfg.with_overrides(
            line_height_threshold=cfg.line_height_threshold * 2,
            detect_line_tables=False, detect_text_tables=False, detect_ws_tables=False, detect_boxes=False,
        )
        text = extract_page(p, headers, footers, pats, relaxed, layout=([], [], 0), view=v)
    except Exception:
        text = _recover_page_text(p)  # strategies 2 + 3
    if text is None:
        return f"[EXTRACTION ERROR: Page {pno + 1}]", 0, 0
    return text, 0, 1


def _finalize_doc(
    pages: list[dict], views: list, page_texts: list[str], n_tables_detected: int, n_recovered: int,
    n_overlapping: int, pats: Patterns, cfg: PipelineConfig,
) -> dict[str, Any]:
    """Doc-level combine shared by the plain and page-checkpointed
    paths: cleanup, footnote matching, coverage, inventory, metrics."""
    text = cleanup_text("\n\n".join(t for t in page_texts if t), cfg)
    try:
        footnotes, fn_report = match_footnotes_full(pages, pats, cfg, views)
    except Exception:
        footnotes, fn_report = [], footnote_report([], [], [])
    coverage_pct, coverage_status = coverage_report(pages, text)
    inventory, n_rotated = _doc_counts(pages)
    return {
        "text": text,
        "n_pages": len(pages),
        "n_words": len(text.split()),
        "footnotes": footnotes,
        "fn_report": fn_report,
        "inventory": inventory,
        "coverage_pct": coverage_pct,
        "coverage_status": coverage_status,
        "n_rotated_words": n_rotated,
        "n_tables_detected": n_tables_detected,
        "n_overlapping_words": n_overlapping,
        "n_pages_recovered": n_recovered,
    }


def parse_fixture_payload(payload: bytes) -> list[dict]:
    """Decode the %PDF-FIXTURE word-geometry payload (FIXTURES.md F3),
    its word dicts as ``WordColumns``."""
    doc = json.loads(payload[len(FIXTURE_MAGIC) :].decode("utf-8"))
    return list(map(_columnar, doc["pages"]))


def pdf_payload_to_pages(payload: bytes) -> list[dict]:
    """Parse a %PDF payload into page dicts: ``%PDF-FIXTURE`` geometry
    payloads as JSON, genuine binaries through the in-repo tokenizer
    (functions/pdf_codec.py). A PDF outside the tokenizer's subset
    raises UnsupportedPdfError naming the construct."""
    if payload.startswith(FIXTURE_MAGIC):
        return parse_fixture_payload(payload)
    from pdf_extractor_ray.functions.pdf_codec import parse_pdf_bytes

    return parse_pdf_bytes(payload)

def extract_pdf_pages_checkpointed(
    pages: list[dict],
    ckpt_path: str,
    pats: Patterns | None = None,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> dict[str, Any]:
    """extract_pdf_pages with INTRA-document page checkpointing for
    pathological multi-page blobs (reference large_doc_extractor.py:
    147-199 resumes a 500-page doc at page N; SURVEY.md §2 D4).

    Each page's ladder result is appended to a JSONL sidecar (keyed
    per document by the caller) and flushed as soon as it is produced,
    so a kill loses at most the page in flight; a retry loads the
    sidecar and extracts ONLY the missing pages (the per-page ladder is
    deterministic, and the doc-level combine runs on the full ordered
    page list either way). On success the sidecar is removed: the
    document is then durable and url-level resume takes over."""
    import os

    done: dict[int, tuple[str, int, int]] = {}
    if os.path.exists(ckpt_path):
        with open(ckpt_path, encoding="utf-8") as f:
            for line in f:
                try:
                    rec = json.loads(line)
                    done[int(rec["pno"])] = (rec["text"], int(rec["n_tbl"]), int(rec["rec"]))
                except Exception:
                    continue  # torn tail line from a kill mid-append
    os.makedirs(os.path.dirname(ckpt_path) or ".", exist_ok=True)
    with open(ckpt_path, "a", encoding="utf-8") as ckpt:
        out = _extract_doc(pages, pats or Patterns(), cfg, done, ckpt)
    try:
        os.remove(ckpt_path)
    except OSError:
        pass
    return out


def extract_pdf_bytes(payload: bytes, pats: Patterns | None = None, cfg: PipelineConfig = DEFAULT_CONFIG) -> dict[str, Any]:
    """Extract a %PDF payload (see pdf_payload_to_pages); raises
    UnsupportedPdfError for PDFs outside the tokenizer's subset."""
    return extract_pdf_pages(pdf_payload_to_pages(payload), pats, cfg)
