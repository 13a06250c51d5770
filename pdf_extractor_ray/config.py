"""Frozen pipeline configuration.

Re-expresses the reference's ~60 mutable module-level constants
(reference config.py:15-148) as one immutable dataclass passed into
actor constructors — the reference mutates config globals during
remediation (master_extractor.py:639-684); we forbid that by design
and pass altered copies instead.

All thresholds that govern EXTRACTION SEMANTICS are pinned here and
must never drift from the committed fixture goldens (FIXTURES.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class PipelineConfig:
    # ---- PDF word-geometry path (reference config.py:15-35) ----
    column_gap_threshold: float = 50.0   # px gap that starts a new column (config.py:16)
    line_height_threshold: float = 15.0  # words within this Y-delta share a line (config.py:17)
    header_zone_frac: float = 0.10       # top 10% of page = header zone (extractor.py:137)
    footer_zone_frac: float = 0.10       # bottom 10% = footer zone (extractor.py:141)
    repeat_min_frac: float = 0.80        # text on >=80% of sampled pages is header/footer (extractor.py:152)
    repeat_sample_pages: int = 5         # sample first min(5, n) pages (extractor.py:128)
    footnote_zone_frac: float = 0.20     # bottom 20% scanned for footnote definitions (footnote_extractor.py)
    isolated_dist: float = 50.0          # no neighbor within 50pt => isolated (extractor.py:398-413)
    jp_space_gap: float = 10.0           # JP<->JP words: space only if gap > 10 (extractor.py:578-610)
    latin_space_gap: float = 3.0         # latin words: space if gap > 3 (extractor.py:578-610)
    script_size_ratio: float = 0.70      # < 70% of avg font size => candidate super/subscript (extractor.py:629-755)
    script_attach_dist: float = 5.0      # max horizontal px to attach a script to its base
    script_band: float = 15.0            # Y band around baseline for script candidates (extractor.py:665-689)
    trimmed_mean_frac: float = 0.10      # trim 10% each side for avg font size (superscript_detector.py:171-177)

    # ---- geometry table/textbox detection (reference
    #      layout_analyzer.py:200-330 + table_detector_enhanced.py:286-505;
    #      alignment detection OFF mirrors the reference's production
    #      default, layout_analyzer.py:222-223) ----
    detect_line_tables: bool = True      # ruling-line grids
    detect_text_tables: bool = False     # borderless alignment tables
    # whitespace-channel tables (reference strategy 3,
    # table_detector_enhanced.py:230-280). OFF by default like the
    # other text-based strategy: both inherit the reference's
    # production setting (layout_analyzer.py:222-223 "too many false
    # positives") and the byte-identity goldens pin the defaults.
    detect_ws_tables: bool = False
    ws_channel_min_w: float = 8.0        # min width of a shared empty x-band
    detect_boxes: bool = True            # textbox/sidebar rects
    table_line_tol: float = 3.0          # line/edge clustering tolerance (px)
    table_align_tol: float = 3.0         # x0 alignment tolerance (alignment_tolerance)
    table_row_tol: float = 15.0          # top clustering tolerance (min_row_gap * 3)
    table_min_rows: int = 3              # layout_analyzer.py:213
    table_min_cols: int = 3              # layout_analyzer.py:214
    table_min_cells: int = 9             # layout_analyzer.py:215
    table_min_fill: float = 0.5          # >=50% non-empty cells (layout_analyzer.py:424)
    table_max_rows_text: int = 20        # text-based caps (layout_analyzer.py:429-431)
    table_max_cols_text: int = 10
    table_group_gap: float = 60.0        # y gap separating ruled tables on one page
    textbox_min_words: int = 5           # layout_analyzer.py:209
    textbox_min_w: float = 50.0          # layout_analyzer.py:494
    textbox_min_h: float = 20.0
    overlap_area_frac: float = 0.5       # J4 significant-overlap threshold (error_handler.py:310-312)

    # ---- HTML boilerplate-strip path (public trafilatura/jusText heuristics) ----
    # deterministic charset sniff before decode (WHATWG prescan order:
    # BOM -> <meta charset> in first 1024 bytes -> utf-8-replace). ON by
    # default — a no-op for UTF-8 corpora, and the precedence is pinned
    # by goldens with Shift-JIS / Latin-1 payload rows.
    charset_sniff: bool = True
    max_link_density: float = 0.40       # block with > 40% link chars = boilerplate
    min_paragraph_chars: int = 25        # shorter paragraphs = boilerplate
    min_list_item_chars: int = 10        # shorter list items = boilerplate
    min_heading_chars: int = 3

    # ---- cleanup (reference extractor.py:876-994) ----
    squeeze_blank_lines: int = 3         # runs of >= 3 newlines collapse to 2
    # M17 deep-cleanup ladder — OPT-IN (defaults pin the untransformed
    # byte-identity goldens; reference extractor.py:903-994)
    cleanup_fix_spacing: bool = False    # JP spacing regex table
    cleanup_join_lines: bool = False     # particle/comma line joining
    cleanup_fix_punctuation: bool = False  # dup 。、 squeeze + ellipsis normalize
    strip_hallucinations: bool = False   # strip generated-markup artifacts (ref anti_hallucination.py:243-264)

    # ---- remediation loop (reference master_extractor.py:497-570:
    #      if score < 70, retry with altered configs, keep the best;
    #      OFF by default — it changes low-quality outputs, so the
    #      byte-identity goldens pin the non-remediated path) ----
    enable_remediation: bool = False
    remediation_threshold: float = 70.0

    # ---- quality scoring (reference quality_scorer.py:81-162) ----
    qs_w_completeness: float = 0.30
    qs_w_structure: float = 0.25
    qs_w_accuracy: float = 0.20
    qs_w_footnotes: float = 0.15
    qs_w_readability: float = 0.10

    # ---- Ray execution knobs (NOT semantic; safe to tune per run) ----
    batch_size: int = 32                 # rows per extraction batch (docs are multi-KB..MB blobs)
    concurrency: int = 8                 # extraction actor-pool size
    num_cpus_per_actor: float = 1.0
    # intra-document page checkpointing (reference
    # large_doc_extractor.py:147-199): PDF payloads at least this many
    # bytes journal each page's result to a per-doc sidecar under
    # <out_dir>/_pageckpt/ so a retry resumes mid-document. 0 = off
    # (the default: sidecar I/O per page only pays for itself on
    # multi-hundred-page pathological blobs).
    page_ckpt_bytes: int = 0
    rows_per_output_file: int = 512      # output partition granularity (resume unit;
                                         # also the fused extract+write batch size —
                                         # keep rows x median blob within ~64MB)

    def with_overrides(self, **kw: Any) -> "PipelineConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = PipelineConfig()
