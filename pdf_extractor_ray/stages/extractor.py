"""The extraction actor: one map_batches callable class for the whole
per-document chain (HTML boilerplate strip | PDF word-geometry parse).

Mirrors the reference's single shared extractor instance reused across
files (reference processor.py:32) as an actor-pool stage: compiled
pattern tables built ONCE per actor in __init__, per-batch work in
__call__ over zero-copy Arrow record batches. The UDF never raises —
per-row failures become the `error` column (reference's per-file
try/except, processor.py:130-137, and 3-level page recovery ladder,
error_handler.py:437-479, collapse into structured error emission;
SURVEY.md §4.2).
"""

from __future__ import annotations

import json as _json

import pyarrow as pa

from pdf_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig
from pdf_extractor_ray.functions import textstats
from pdf_extractor_ray.functions.html_extract import extract_html, sniff_decode
from pdf_extractor_ray.functions.pdf_words import Patterns, extract_pdf_bytes

RESULT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("lang", pa.string()),
        ("payload_kind", pa.string()),  # html | pdf | empty
        ("extracted_text", pa.large_string()),
        ("n_blocks", pa.int32()),
        ("n_pages", pa.int32()),
        ("n_words", pa.int64()),
        ("n_footnotes", pa.int32()),
        ("quality_score", pa.float64()),
        ("grade", pa.string()),
        ("coverage_pct", pa.float64()),      # A3: expected-vs-extracted (pdf path; 100 for html)
        ("coverage_status", pa.string()),    # GOOD / WARNING / POOR
        ("n_hallu_flags", pa.int32()),       # anti-hallucination pattern hits
        ("repetition_ratio", pa.float64()),  # D6: distinct 100-char shingle ratio
        ("n_tables_detected", pa.int32()),   # geometry-detected tables (functions/layout.py)
        ("n_rotated_words", pa.int32()),     # M19 rotated-text metric (error_handler.py:488-507)
        ("n_overlapping_words", pa.int32()), # J4 Z-order overlap pairs (error_handler.py:277-312)
        ("n_pages_recovered", pa.int32()),   # recovery-ladder hits (error_handler.py:437-479)
        ("footnote_match_rate", pa.float64()),  # A6 completeness (footnote_extractor.py:403-442)
        ("footnote_status", pa.string()),    # COMPLETE / PARTIAL / POOR
        ("quality_confidence", pa.float64()),  # A10 dimension-variance confidence (quality_scorer.py:366-379)
        ("element_inventory", pa.string()),  # A2 region x size-class counts, JSON (element_inventory.py:85-202)
        ("error", pa.string()),
    ]
)


# the row of a payload whose extraction raised; `error` carries the reason
ERROR_ROW = {
    "payload_kind": "error",
    "extracted_text": "",
    "n_blocks": 0,
    "n_pages": 0,
    "n_words": 0,
    "n_footnotes": 0,
    "quality_score": 0.0,
    "grade": "F",
    "coverage_pct": 0.0,
    "coverage_status": "POOR",
    "n_hallu_flags": 0,
    "repetition_ratio": 1.0,
    "n_tables_detected": 0,
    "n_rotated_words": 0,
    "n_overlapping_words": 0,
    "n_pages_recovered": 0,
    "footnote_match_rate": 100.0,
    "footnote_status": "COMPLETE",
    "quality_confidence": 0.3,
    "element_inventory": "{}",
}

# columns an extract_one result carries under the same name but may
# omit (html and empty payloads), with the value a success row takes then
SUCCESS_DEFAULTS = {
    "coverage_pct": 100.0,
    "coverage_status": "GOOD",
    "n_tables_detected": 0,
    "n_rotated_words": 0,
    "n_overlapping_words": 0,
    "n_pages_recovered": 0,
}


def remediation_cfgs(cfg: PipelineConfig) -> tuple[PipelineConfig, PipelineConfig]:
    """The two remediation variants (reference master_extractor.py:617-684):
    1 disables header/footer removal and permits denser links, 2 widens
    the column gap 1.5x and relaxes the HTML paragraph filter."""
    return (
        cfg.with_overrides(repeat_min_frac=1.01, max_link_density=0.6),
        cfg.with_overrides(
            column_gap_threshold=cfg.column_gap_threshold * 1.5,
            min_paragraph_chars=10,
        ),
    )


def _dims_nw(r: dict) -> tuple[dict, int]:
    rep = r.get("fn_report", {})
    n_fns = len(r["footnotes"])
    return textstats.quality_dimensions_nw(r["text"], rep.get("n_matches", n_fns), rep.get("n_markers", n_fns))


class Extractor:
    """map_batches(Extractor, batch_format="pyarrow", concurrency=N).

    __init__ runs once per actor (compile regexes, freeze config);
    __call__ once per Arrow batch. Output schema is RESULT_SCHEMA.
    """

    def __init__(self, cfg: PipelineConfig = DEFAULT_CONFIG, ckpt_dir: str | None = None) -> None:
        self.cfg = cfg
        self.pats = Patterns()
        # intra-doc page-checkpoint sidecar dir (cfg.page_ckpt_bytes
        # gates it per payload; wired by ExtractWriter from out_dir)
        self.ckpt_dir = ckpt_dir if cfg.page_ckpt_bytes else None
        self.remediation_cfgs = remediation_cfgs(cfg) if cfg.enable_remediation else ()

    def extract_one(self, payload: bytes, cfg: PipelineConfig | None = None, url: str = "") -> dict:
        """Route one payload and extract. Pure (except the opt-in page
        checkpoint sidecar); may raise."""
        cfg = cfg or self.cfg
        if not payload:
            return {"kind": "empty", "text": "", "n_blocks": 0, "n_pages": 0, "footnotes": []}
        if payload.startswith(b"%PDF"):
            if self.ckpt_dir and cfg.page_ckpt_bytes and len(payload) >= cfg.page_ckpt_bytes:
                import hashlib as _hashlib
                import os as _os

                from pdf_extractor_ray.functions.pdf_words import (
                    extract_pdf_pages_checkpointed,
                    pdf_payload_to_pages,
                )

                # key includes the config (remediation re-extracts
                # with altered thresholds and must not reuse pages
                # journaled under the default ladder) AND a payload
                # digest: two rows with the same url but different
                # content (a recrawl at another warc_ts) must not
                # share a sidecar, or a retry could resume from the
                # other payload's journaled pages
                body = _hashlib.sha1(payload).hexdigest()
                tag = _hashlib.sha1(f"{url}\x1f{body}\x1f{cfg!r}".encode("utf-8")).hexdigest()[:16]
                res = extract_pdf_pages_checkpointed(
                    pdf_payload_to_pages(payload),
                    _os.path.join(self.ckpt_dir, f"{tag}.pages.jsonl"),
                    self.pats,
                    cfg,
                )
            else:
                res = extract_pdf_bytes(payload, self.pats, cfg)
            keys = ("text", "n_pages", "footnotes", "fn_report", "inventory", *SUCCESS_DEFAULTS)
            return {"kind": "pdf", "n_blocks": res["n_pages"], **{k: res[k] for k in keys}}
        if cfg.charset_sniff:
            html, _enc = sniff_decode(payload)
        else:
            html = payload.decode("utf-8", errors="replace")
        text, n_blocks = extract_html(html, cfg)
        return {
            "kind": "html",
            "text": text,
            "n_blocks": n_blocks,
            "n_pages": 0,
            "footnotes": [],
            "coverage_pct": 100.0,
            "coverage_status": "GOOD",
        }

    def _row(self, payload: bytes, url: str) -> dict:
        """Extract and score one payload into the RESULT_SCHEMA columns
        after url, warc_ts and lang. May raise."""
        r = self.extract_one(payload, url=url)
        dims, nw = _dims_nw(r)
        score = textstats.quality_score_from_dims(dims)
        if self.remediation_cfgs and score < self.cfg.remediation_threshold and r["kind"] != "empty":
            # in-UDF remediation loop (cheap, local — never a
            # dataset-level control flow, SURVEY §7.4 #7): keep the
            # best-scoring variant
            for vc in self.remediation_cfgs:
                r2 = self.extract_one(payload, vc, url=url)
                dims2, nw2 = _dims_nw(r2)
                s2 = textstats.quality_score_from_dims(dims2)
                if s2 > score:
                    r, dims, nw, score = r2, dims2, nw2, s2
        text = r["text"]
        if self.cfg.strip_hallucinations:  # opt-in transform (default off)
            text, _ = textstats.strip_hallucinations(text)
            nw = len(text.split())  # transformed text: recount
        rep = r.get("fn_report", {})
        return {
            **{k: r.get(k, v) for k, v in SUCCESS_DEFAULTS.items()},
            "payload_kind": r["kind"],
            "extracted_text": text,
            "n_blocks": r["n_blocks"],
            "n_pages": r["n_pages"],
            "n_words": nw,
            "n_footnotes": len(r["footnotes"]),
            "quality_score": score,
            "grade": textstats.grade(score),
            "n_hallu_flags": len(textstats.hallucination_flags(text)),
            "repetition_ratio": textstats.repetition_ratio(text),
            "footnote_match_rate": rep.get("match_rate", 100.0),
            "footnote_status": rep.get("status", "COMPLETE"),
            "quality_confidence": textstats.quality_confidence(dims),
            "element_inventory": _json.dumps(r.get("inventory", {}), sort_keys=True),
            "error": None,
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        tss = batch.column("warc_ts").to_pylist() if "warc_ts" in batch.column_names else [None] * batch.num_rows
        rows = []
        for url, ts, lang, payload in zip(
            batch.column("url").to_pylist(), tss, batch.column("lang").to_pylist(), batch.column("html").to_pylist()
        ):
            try:
                row = self._row(payload or b"", url)
            except Exception as exc:  # never raise: poison-blob guard
                row = {**ERROR_ROW, "error": f"{type(exc).__name__}: {exc}"[:500]}
            rows.append({"url": url, "warc_ts": ts, "lang": lang, **row})
        return pa.Table.from_pylist(rows, schema=RESULT_SCHEMA)


__all__ = ["ERROR_ROW", "Extractor", "RESULT_SCHEMA", "remediation_cfgs"]
