"""PDF layout extraction over word geometry.

Re-implements, from scratch, the reference's per-document extraction
semantics (reference extractor.py:91-994) as pure functions over the
word-dict domain that pdfplumber's
``page.extract_words(extra_attrs=['fontname','size','height'])``
yields (reference extractor.py:163-169):

    word = {text, x0, x1, top, bottom, size, fontname}

Pipeline per document (reference extract_pdf, extractor.py:91-121):

  1. detect repeating headers/footers over the first min(5, n) pages
     (M2, extractor.py:123-159)
  2. per page: exclude words inside table bboxes (M15,
     extractor.py:819-842) -> integrate super/subscripts (M13,
     extractor.py:629-755) -> smart metadata filter (M4-M8,
     extractor.py:218-477) -> column detection (M9,
     extractor.py:479-504) -> reading-order lines + gap/script-aware
     spacing (M10-M12, extractor.py:506-627) -> append formatted
     tables in Y order (M16, extractor.py:844-874)
  3. join pages with a blank line; cleanup squeezes >=3 consecutive
     newlines to 2 (M17, extractor.py:876-901)

Determinism: every sort uses an explicit total key ((top, x0, text)),
never relies on set iteration order, and uses no wall clock — the
reference's contract (extractor.py:3-9) made explicit (SURVEY.md §7.4).

Payload encoding (FIXTURES.md F3): fixtures carry
``%PDF-FIXTURE\n`` + JSON {pages: [{width, height, words: [...],
tables: [{bbox, rows, cols, cells}]}]}. Real ``%PDF-`` binaries go
through the in-repo tokenizer (functions/pdf_codec.py) into the same
dicts; a PDF outside its subset raises UnsupportedPdfError.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from typing import Any

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


def _should_add_space(prev: dict, cur: dict, cfg: PipelineConfig) -> bool:
    """Gap- and script-aware spacing (M11, extractor.py:539-610)."""
    a, b = prev["text"], cur["text"]
    if not a or not b:
        return False
    if b[0] in _NO_SPACE_BEFORE or a[-1] in _NO_SPACE_AFTER:
        return False
    gap = cur["x0"] - prev["x1"]
    if is_japanese_char(a[-1]) and is_japanese_char(b[0]):
        return gap > cfg.jp_space_gap
    return gap > cfg.latin_space_gap


# ---------------------------------------------------------------------------
# M2 — repeating header/footer detection (extractor.py:123-159)
# ---------------------------------------------------------------------------


def detect_repeating_elements(
    pages: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG
) -> tuple[frozenset[str], frozenset[str]]:
    """Sample the first min(repeat_sample_pages, n) pages; any word text
    present in the header (top 10%) / footer (bottom 10%) zone of >=80%
    of sampled pages is a repeating element."""
    sample = pages[: min(cfg.repeat_sample_pages, len(pages))]
    if not sample:
        return frozenset(), frozenset()
    head_counts: Counter[str] = Counter()
    foot_counts: Counter[str] = Counter()
    for page in sample:
        h = page["height"]
        heads = {w["text"] for w in page["words"] if w["top"] < cfg.header_zone_frac * h}
        foots = {w["text"] for w in page["words"] if w["bottom"] > (1 - cfg.footer_zone_frac) * h}
        head_counts.update(heads)
        foot_counts.update(foots)
    need = cfg.repeat_min_frac * len(sample)
    headers = frozenset(t for t, c in head_counts.items() if c >= need)
    footers = frozenset(t for t, c in foot_counts.items() if c >= need)
    return headers, footers


# ---------------------------------------------------------------------------
# M15 — table-region word exclusion (extractor.py:819-842)
# ---------------------------------------------------------------------------


def exclude_table_words(words: list[dict], tables: list[dict]) -> list[dict]:
    if not tables:
        return words
    boxes = [t["bbox"] for t in tables]
    out = []
    for w in words:
        cx = (w["x0"] + w["x1"]) / 2.0
        cy = (w["top"] + w["bottom"]) / 2.0
        inside = any(bx[0] <= cx <= bx[2] and bx[1] <= cy <= bx[3] for bx in boxes)
        if not inside:
            out.append(w)
    return out


def split_box_words(
    words: list[dict], boxes: list[list[float]]
) -> tuple[list[dict], list[list[dict]]]:
    """J3 spatial join (reference layout_analyzer.py:509-532): words
    whose center falls inside a textbox/sidebar rect are pulled out of
    the main flow and returned per box (first matching box wins, boxes
    in given order)."""
    if not boxes:
        return words, []
    main: list[dict] = []
    per_box: list[list[dict]] = [[] for _ in boxes]
    for w in words:
        cx = (w["x0"] + w["x1"]) / 2.0
        cy = (w["top"] + w["bottom"]) / 2.0
        for i, bx in enumerate(boxes):
            if bx[0] <= cx <= bx[2] and bx[1] <= cy <= bx[3]:
                per_box[i].append(w)
                break
        else:
            main.append(w)
    return main, per_box


# ---------------------------------------------------------------------------
# D1 — exact word dedup at identical coordinates (error_handler.py:542-574)
# J4 — overlapping-text detection / Z-order metric (error_handler.py:277-312)
# ---------------------------------------------------------------------------


def dedupe_overlapping_words(words: list[dict]) -> list[dict]:
    """D1: layered/scanned PDFs often stamp the same word twice at the
    same spot; keep the first of each (round(x0,1), round(top,1), text)
    in (top, x0) order — exact reference semantics
    (error_handler.py:542-574 deduplicate_overlapping)."""
    seen: set[tuple[float, float, str]] = set()
    out = []
    for w in sorted(words, key=lambda w: (w["top"], w["x0"], w["text"])):
        key = (round(w["x0"], 1), round(w["top"], 1), w["text"])
        if key not in seen:
            seen.add(key)
            out.append(w)
    return out


def count_overlapping_words(words: list[dict], overlap_frac: float = 0.5) -> int:
    """J4: number of word pairs whose bbox intersection exceeds
    overlap_frac of the smaller box (Z-order rendering issues,
    reference error_handler.py:277-312). Metric only — the text is
    never transformed. Fully vectorized: sort by top, cap each word's
    candidate range at the first later word whose top clears its
    bottom (searchsorted), then one numpy pass over the candidate
    pairs — the reference's O(n^2) Python double loop costs ~10% of a
    dense page's extraction time."""
    import numpy as np

    n = len(words)
    if n < 2:
        return 0
    ws = sorted(words, key=lambda w: (w["top"], w["x0"], w["text"]))
    top = np.array([w["top"] for w in ws], dtype=np.float64)
    bot = np.array([w["bottom"] for w in ws], dtype=np.float64)
    x0 = np.array([w["x0"] for w in ws], dtype=np.float64)
    x1 = np.array([w["x1"] for w in ws], dtype=np.float64)
    hi = np.searchsorted(top, bot, side="left")  # first j with top_j >= bot_i
    c = np.clip(hi - np.arange(n) - 1, 0, None)
    total = int(c.sum())
    if total == 0:
        return 0
    ii = np.repeat(np.arange(n), c)
    offsets = np.cumsum(c) - c
    jj = np.arange(total) - np.repeat(offsets, c) + ii + 1
    x_ov = np.minimum(x1[ii], x1[jj]) - np.maximum(x0[ii], x0[jj])
    y_ov = np.minimum(bot[ii], bot[jj]) - np.maximum(top[ii], top[jj])
    areas = (x1 - x0) * (bot - top)
    m = np.minimum(areas[ii], areas[jj])
    return int(((x_ov > 0) & (y_ov > 0) & (m > 0) & (x_ov * y_ov > m * overlap_frac)).sum())


# ---------------------------------------------------------------------------
# M13/M14 — super/subscript integration (extractor.py:629-792)
# ---------------------------------------------------------------------------

_SUP_MAP = str.maketrans("0123456789+-=()n", "⁰¹²³⁴⁵⁶⁷⁸⁹⁺⁻⁼⁽⁾ⁿ")
_SUB_MAP = str.maketrans("0123456789+-=()aeoxn", "₀₁₂₃₄₅₆₇₈₉₊₋₌₍₎ₐₑₒₓₙ")


def _trimmed_mean(values: list[float], frac: float) -> float:
    """Trimmed mean of font sizes (A4, superscript_detector.py:161-177)."""
    if not values:
        return 0.0
    vs = sorted(values)
    k = int(len(vs) * frac)
    core = vs[k : len(vs) - k] or vs
    return sum(core) / len(core)


def integrate_scripts(words: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG) -> list[dict]:
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
    avg = _trimmed_mean([w.get("size", 10.0) for w in words], cfg.trimmed_mean_frac)
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


# ---------------------------------------------------------------------------
# M4-M8 — smart metadata filter (extractor.py:218-477)
# ---------------------------------------------------------------------------


def _matches_any(pats: list[re.Pattern], text: str) -> bool:
    return any(p.match(text) for p in pats)


def _has_nearby_content(word: dict, words: list[dict], dist: float) -> bool:
    """O(n) neighbor scan within `dist` points (M7, extractor.py:385-418)."""
    cx = (word["x0"] + word["x1"]) / 2.0
    cy = (word["top"] + word["bottom"]) / 2.0
    for other in words:
        if other is word:
            continue
        ox = (other["x0"] + other["x1"]) / 2.0
        oy = (other["top"] + other["bottom"]) / 2.0
        if ((cx - ox) ** 2 + (cy - oy) ** 2) ** 0.5 <= dist:
            return True
    return False


def _is_page_number_position(w: dict, page_width: float) -> bool:
    """M6 geometric predicate (reference extractor.py:372-380): page
    numbers sit horizontally centered (within 20% of page center) or
    in a left/right corner (outer 20%); a margin digit elsewhere is
    probably content."""
    cx = (w["x0"] + w["x1"]) / 2.0
    centered = abs(cx - page_width / 2.0) < page_width * 0.2
    in_left = w["x0"] < page_width * 0.2
    in_right = w["x1"] > page_width * 0.8
    return centered or in_left or in_right


_FOOTNOTE_PHRASES = ("参照", "参考", "出典", "引用", "See ", "Ref.", "Note:", "Source:", "注記", "備考")


def is_footnote_content(word: dict, words: list[dict], pats: Patterns, line_band: float = 20.0) -> bool:
    """M8 footnote-content keep rules (reference extractor.py:420-477):
    a bottom-region word is footnote content when it IS a marker/def,
    sits on (about) the same line as one, contains a footnote phrase,
    or carries substantial text (len > 10)."""
    t = word["text"]
    if pats.footnote_marker_any.match(t) or pats.footnote_def.match(t):
        return True
    for other in words:
        if other is word:
            continue
        if abs(other["top"] - word["top"]) < line_band and (
            pats.footnote_marker_any.match(other["text"]) or pats.footnote_def.match(other["text"])
        ):
            return True
    if any(p in t for p in _FOOTNOTE_PHRASES):
        return True
    return len(t) > 10


def filter_metadata(
    words: list[dict],
    page_width: float,
    page_height: float,
    headers: frozenset[str],
    footers: frozenset[str],
    pats: Patterns,
    cfg: PipelineConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Keep content, drop page furniture. Rule order mirrors the
    reference (extractor.py:218-313): R1 section numbers keep, R2
    footnote markers keep, R4 repeated headers/footers drop, R3/R5
    page-number patterns drop only when isolated in the margin zones
    AND geometrically placed like a page number (M6) AND not footnote
    content (M8) — include-by-default when in doubt."""
    out = []
    top_zone = cfg.header_zone_frac * page_height
    bot_zone = (1 - cfg.footer_zone_frac) * page_height
    for w in words:
        t = w["text"]
        if pats.section_any.match(t):
            out.append(w)
            continue
        if pats.footnote_marker_any.match(t) or pats.footnote_def.match(t):
            out.append(w)
            continue
        in_header = w["top"] < top_zone
        in_footer = w["bottom"] > bot_zone
        if in_header and t in headers:
            continue
        if in_footer and t in footers:
            continue
        if (in_header or in_footer) and pats.page_number_any.match(t):
            if (
                not _has_nearby_content(w, words, cfg.isolated_dist)
                and _is_page_number_position(w, page_width)
                and not (in_footer and is_footnote_content(w, words, pats))
            ):
                continue
        out.append(w)
    return out


# ---------------------------------------------------------------------------
# M9 — column detection (extractor.py:479-504)
# ---------------------------------------------------------------------------


def detect_columns(words: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG) -> list[list[dict]]:
    """Sort by x0; a horizontal whitespace gap > column_gap_threshold
    between the running right edge and the next word starts a new
    column (reference uses the same single-axis split, extractor.py:479-504)."""
    if not words:
        return []
    ordered = sorted(words, key=lambda w: (w["x0"], w["top"], w["text"]))
    columns: list[list[dict]] = [[ordered[0]]]
    right = ordered[0]["x1"]
    for w in ordered[1:]:
        if w["x0"] - right > cfg.column_gap_threshold:
            columns.append([w])
        else:
            columns[-1].append(w)
        right = max(right, w["x1"])
    return columns


# ---------------------------------------------------------------------------
# M10-M11 — reading-order lines + spacing (extractor.py:506-610)
# ---------------------------------------------------------------------------


def extract_column_text(column: list[dict], cfg: PipelineConfig = DEFAULT_CONFIG) -> str:
    """Reading-order sort (top, x0, text); group words into lines within
    line_height_threshold of the line's anchor top; join words with the
    smart spacing rule; join lines with newlines."""
    ordered = sorted(column, key=lambda w: (w["top"], w["x0"], w["text"]))
    lines: list[list[dict]] = []
    for w in ordered:
        if lines and abs(w["top"] - lines[-1][0]["top"]) <= cfg.line_height_threshold:
            lines[-1].append(w)
        else:
            lines.append([w])
    rendered = []
    for line in lines:
        line.sort(key=lambda w: (w["x0"], w["top"], w["text"]))
        parts = [line[0]["text"]]
        for prev, cur in zip(line, line[1:]):
            if _should_add_space(prev, cur, cfg):
                parts.append(" ")
            parts.append(cur["text"])
        rendered.append("".join(parts))
    return "\n".join(rendered)


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
    pages: list[dict], pats: Patterns, cfg: PipelineConfig = DEFAULT_CONFIG
) -> tuple[list[tuple[str, int]], list[dict]]:
    """Collect body markers and bottom-zone definitions per page."""
    markers: list[tuple[str, int]] = []
    defs: list[dict] = []
    for pno, page in enumerate(pages):
        h = page["height"]
        bot = (1 - cfg.footnote_zone_frac) * h
        words = sorted(page["words"], key=lambda w: (w["top"], w["x0"], w["text"]))
        for i, w in enumerate(words):
            t = w["text"]
            if w["top"] < bot and pats.footnote_marker_any.match(t):
                markers.append((t, pno))
            elif w["top"] >= bot and pats.footnote_def.match(t):
                line = [w2["text"] for w2 in words[i + 1 :] if abs(w2["top"] - w["top"]) <= cfg.line_height_threshold]
                defs.append({"marker": t, "page": pno, "text": " ".join(line), "used": False})
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
    pages: list[dict], pats: Patterns, cfg: PipelineConfig = DEFAULT_CONFIG
) -> tuple[list[dict], dict]:
    """match_footnotes + the A6/D7 completeness report, one scan."""
    markers, defs = _scan_footnotes(pages, pats, cfg)
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
                {
                    "marker": m_text,
                    "page": m_page,
                    "def_page": best["page"],
                    "text": best["text"],
                    "confidence": best_conf,
                }
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
# A2/A3 — element inventory + coverage verification
# (reference element_inventory.py:85-202 counts by position region and
#  font-size class; :204-269 expected-vs-extracted coverage rollup)
# ---------------------------------------------------------------------------


def _size_class(size: float) -> str:
    if size > 18:
        return "large"
    if size >= 10:
        return "normal"
    if size >= 6:
        return "small"
    return "tiny"


def element_inventory(pages: list[dict]) -> dict[str, int]:
    """Per-document word counts keyed 'region_sizeclass' (regions:
    top 15% / middle / bottom 15% of the page)."""
    counts: dict[str, int] = {}
    for p in pages:
        h = p.get("height", 0.0) or 1.0
        for w in p.get("words", []):
            top = w.get("top", 0.0)
            region = "top" if top < 0.15 * h else ("bottom" if top > 0.85 * h else "middle")
            key = f"{region}_{_size_class(float(w.get('size', 10.0)))}"
            counts[key] = counts.get(key, 0) + 1
    return counts


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


def page_layout(page: dict, cfg: PipelineConfig = DEFAULT_CONFIG) -> tuple[list[dict], list[list[float]], int]:
    """Resolve (tables, boxes, n_detected) for a page: explicit hints
    win; otherwise DETECT tables from ruling lines / word alignment and
    textboxes from border rects (functions/layout.py; reference
    layout_analyzer.py:225-267 analyze_page)."""
    from pdf_extractor_ray.functions import layout as _layout

    tables = page.get("tables", [])
    n_detected = 0
    if not tables and (cfg.detect_line_tables or cfg.detect_text_tables or cfg.detect_ws_tables):
        tables = _layout.detect_tables(page.get("words", []), page.get("lines", []), cfg)
        n_detected = len(tables)
    boxes = page.get("boxes", [])
    if not boxes and cfg.detect_boxes and page.get("rects"):
        boxes = _layout.detect_textboxes(page.get("rects", []), page.get("words", []), tables, cfg)
    return tables, boxes, n_detected


def extract_page(
    page: dict,
    headers: frozenset[str],
    footers: frozenset[str],
    pats: Patterns,
    cfg: PipelineConfig = DEFAULT_CONFIG,
    layout: tuple[list[dict], list[list[float]], int] | None = None,
) -> str:
    words = dedupe_overlapping_words(page.get("words", []))  # D1
    tables, boxes, _ = layout if layout is not None else page_layout(page, cfg)
    # textbox/sidebar rects (LayoutRegion,
    # reference layout_analyzer.py:144-171; integration master_extractor.py:364-390)
    words = exclude_table_words(words, tables)
    words, box_words = split_box_words(words, boxes)
    words = integrate_scripts(words, cfg)
    words = filter_metadata(words, page["width"], page["height"], headers, footers, pats, cfg)
    columns = detect_columns(words, cfg)
    col_texts = [extract_column_text(c, cfg) for c in columns]
    text = "\n".join(t for t in col_texts if t)
    if tables:
        for tb in sorted(tables, key=lambda t: (t["bbox"][1], t["bbox"][0])):
            formatted = format_table(tb)
            text = (text + "\n\n" + formatted) if text else formatted
    # textbox sections append after tables, in (top, x0) order
    order = sorted(range(len(boxes)), key=lambda i: (boxes[i][1], boxes[i][0]))
    for i in order:
        if not box_words[i]:
            continue
        body = "\n".join(
            extract_column_text(c, cfg) for c in detect_columns(box_words[i], cfg)
        )
        section = f"[BOX]\n{body}\n[BOX END]"
        text = (text + "\n\n" + section) if text else section
    return text


def _recover_page_text(page: dict) -> str | None:
    """Per-page recovery strategies 2+3 (reference
    error_handler.py:450-472): defensive reading-order word join, then
    raw text concatenation. Returns None when both fail."""
    try:
        ws = [
            w
            for w in page.get("words", [])
            if isinstance(w, dict) and isinstance(w.get("text"), str)
        ]
        ws = sorted(ws, key=lambda w: (float(w.get("top", 0.0)), float(w.get("x0", 0.0)), w["text"]))
        if ws:
            return " ".join(w["text"] for w in ws)
    except Exception:
        pass
    try:
        parts = [
            w.get("text")
            for w in page.get("words", [])
            if isinstance(w, dict) and isinstance(w.get("text"), str)
        ]
        if parts:
            return "".join(parts)
    except Exception:
        pass
    return None


_EMPTY_FN_REPORT = {
    "n_markers": 0,
    "n_definitions": 0,
    "n_matches": 0,
    "match_rate": 100.0,
    "status": "COMPLETE",
    "n_unmatched_markers": 0,
    "n_unmatched_defs": 0,
}


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
    pats = pats or Patterns()
    headers, footers = _doc_repeats(pages, cfg)
    page_texts: list[str] = []
    n_tables_detected = 0
    n_recovered = 0
    for pno, p in enumerate(pages):
        ptext, n_tbl, rec = _extract_page_ladder(p, pno, headers, footers, pats, cfg)
        page_texts.append(ptext)
        n_tables_detected += n_tbl
        n_recovered += rec
    return _finalize_doc(pages, page_texts, n_tables_detected, n_recovered, pats, cfg)


def _doc_repeats(
    pages: list[dict], cfg: PipelineConfig
) -> tuple[frozenset[str], frozenset[str]]:
    try:
        return detect_repeating_elements(pages, cfg)
    except Exception:  # poison sample page: fall back to no repeats
        return frozenset(), frozenset()


def _extract_page_ladder(
    p: dict,
    pno: int,
    headers: frozenset[str],
    footers: frozenset[str],
    pats: Patterns,
    cfg: PipelineConfig,
) -> tuple[str, int, int]:
    """One page through the full chain + recovery ladder. Returns
    (page_text, n_tables_detected, recovered_flag). Deterministic per
    (page, headers, footers, cfg) — the unit the page checkpoint
    journals."""
    try:
        lay = page_layout(p, cfg)
        return extract_page(p, headers, footers, pats, cfg, layout=lay), lay[2], 0
    except Exception:
        pass
    text = None
    try:  # strategy 1: relaxed re-extract, no layout detection
        relaxed = cfg.with_overrides(
            line_height_threshold=cfg.line_height_threshold * 2,
            detect_line_tables=False,
            detect_text_tables=False,
            detect_ws_tables=False,
            detect_boxes=False,
        )
        text = extract_page(p, headers, footers, pats, relaxed, layout=([], [], 0))
    except Exception:
        text = _recover_page_text(p)  # strategies 2 + 3
    if text is None:
        return f"[EXTRACTION ERROR: Page {pno + 1}]", 0, 0
    return text, 0, 1


def _finalize_doc(
    pages: list[dict],
    page_texts: list[str],
    n_tables_detected: int,
    n_recovered: int,
    pats: Patterns,
    cfg: PipelineConfig,
) -> dict[str, Any]:
    """Doc-level combine shared by the plain and page-checkpointed
    paths: cleanup, footnote matching, coverage, inventory, metrics."""
    n_overlapping = 0
    text = cleanup_text("\n\n".join(t for t in page_texts if t), cfg)
    try:
        footnotes, fn_report = match_footnotes_full(pages, pats, cfg)
    except Exception:
        footnotes, fn_report = [], dict(_EMPTY_FN_REPORT)
    coverage_pct, coverage_status = coverage_report(pages, text)
    # M19 rotated-text marker + J4 overlap metric (reference
    # error_handler.py:488-507, :277-312): METRICS only — the text is
    # never transformed
    n_rotated = 0
    for p in pages:
        try:
            n_rotated += sum(1 for w in p.get("words", []) if w.get("upright", True) is False)
            n_overlapping += count_overlapping_words(p.get("words", []), cfg.overlap_area_frac)
        except Exception:
            pass
    try:
        inventory = element_inventory(pages)
    except Exception:
        inventory = {}
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
    """Decode the %PDF-FIXTURE word-geometry payload (FIXTURES.md F3)."""
    doc = json.loads(payload[len(FIXTURE_MAGIC) :].decode("utf-8"))
    return doc["pages"]


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
    pathological multi-page blobs (reference
    large_doc_extractor.py:147-199 resumes a 500-page doc at page N;
    SURVEY.md §2 D4 at page granularity).

    Each page's ladder result is appended to a JSONL sidecar as soon
    as it is produced; a retry of the same document loads the sidecar
    and extracts ONLY the missing pages (the per-page ladder is
    deterministic, so journaled and fresh pages compose identically —
    the doc-level combine runs on the full ordered page list either
    way). On success the sidecar is removed: the document is then
    durable in its output partition and url-level resume takes over.

    The sidecar is keyed per document by the caller (one file per
    doc); appends are flushed per page so a kill loses at most the
    page in flight."""
    import os

    pats = pats or Patterns()
    done: dict[int, tuple[str, int, int]] = {}
    if os.path.exists(ckpt_path):
        with open(ckpt_path, encoding="utf-8") as f:
            for line in f:
                try:
                    rec = json.loads(line)
                    done[int(rec["pno"])] = (rec["text"], int(rec["n_tbl"]), int(rec["rec"]))
                except Exception:
                    continue  # torn tail line from a kill mid-append
    headers, footers = _doc_repeats(pages, cfg)
    page_texts: list[str] = []
    n_tables_detected = 0
    n_recovered = 0
    os.makedirs(os.path.dirname(ckpt_path) or ".", exist_ok=True)
    with open(ckpt_path, "a", encoding="utf-8") as ckpt:
        for pno, p in enumerate(pages):
            if pno in done:
                ptext, n_tbl, rec = done[pno]
            else:
                ptext, n_tbl, rec = _extract_page_ladder(p, pno, headers, footers, pats, cfg)
                ckpt.write(
                    json.dumps(
                        {"pno": pno, "text": ptext, "n_tbl": n_tbl, "rec": rec},
                        ensure_ascii=False,
                    )
                    + "\n"
                )
                ckpt.flush()
            page_texts.append(ptext)
            n_tables_detected += n_tbl
            n_recovered += rec
    out = _finalize_doc(pages, page_texts, n_tables_detected, n_recovered, pats, cfg)
    try:
        os.remove(ckpt_path)
    except OSError:
        pass
    return out


def extract_pdf_bytes(payload: bytes, pats: Patterns | None = None, cfg: PipelineConfig = DEFAULT_CONFIG) -> dict[str, Any]:
    """Extract a %PDF payload (see pdf_payload_to_pages); raises
    UnsupportedPdfError for PDFs outside the tokenizer's subset."""
    return extract_pdf_pages(pdf_payload_to_pages(payload), pats, cfg)
