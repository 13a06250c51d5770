"""Extraction-engine plugin surface (reference §2.10:
multi_engine_extractor.py:75-250 — duck-typed engines with `.name` +
`.extract(...)`, consensus-voted; engine selection by name).

An engine is anything with `.name` and `.extract_one(payload) ->
{kind, text, ...}`. Engines register in ENGINE_REGISTRY under a
string name; `build_engines` instantiates a named list for a config.
The consensus stage (ops/consensus.py) votes across whatever engines
are registered — swapping in a real alternative parser (pdfminer /
PyMuPDF, when available) is one `register_engine` call, exactly the
reference's plugin point.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Protocol

from pdf_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig


class ExtractionEngine(Protocol):
    """Duck-typed engine protocol (reference multi_engine_extractor.py:75)."""

    name: str

    def extract_one(self, payload: bytes) -> dict[str, Any]: ...


def _extractor_engine(name: str, variant: int | None = None) -> Callable[[PipelineConfig], ExtractionEngine]:
    """Factory for an Extractor engine on `cfg`, or on remediation
    variant `variant` of it (stages.extractor.remediation_cfgs)."""

    def build(cfg: PipelineConfig) -> ExtractionEngine:
        from pdf_extractor_ray.stages.extractor import Extractor, remediation_cfgs

        e = Extractor(cfg if variant is None else remediation_cfgs(cfg)[variant])
        e.name = name
        return e

    return build


class RawTextEngine:
    """Structure-free engine: reading-order word join with no layout
    analysis at all (the reference's recovery strategy 1 as a
    standalone engine, error_handler.py:444-451) — a genuinely
    different extraction path that gives the consensus vote an
    independent opinion about the raw word content."""

    name = "raw-text"

    def __init__(self, cfg: PipelineConfig = DEFAULT_CONFIG) -> None:
        self.cfg = cfg

    def extract_one(self, payload: bytes) -> dict[str, Any]:
        from pdf_extractor_ray.functions.html_extract import extract_html
        from pdf_extractor_ray.functions.pdf_words import (
            FIXTURE_MAGIC,
            _recover_page_text,
            parse_fixture_payload,
        )

        if not payload:
            return {"kind": "empty", "text": "", "n_blocks": 0, "n_pages": 0, "footnotes": []}
        if payload.startswith(FIXTURE_MAGIC):
            pages = parse_fixture_payload(payload)
            texts = [_recover_page_text(p) or "" for p in pages]
            text = "\n\n".join(t for t in texts if t)
            return {"kind": "pdf", "text": text, "n_blocks": len(pages), "n_pages": len(pages), "footnotes": []}
        if payload.startswith(b"%PDF"):
            raise NotImplementedError("raw-text engine handles fixture geometry only")
        text, n_blocks = extract_html(payload.decode("utf-8", errors="replace"), self.cfg)
        return {"kind": "html", "text": text, "n_blocks": n_blocks, "n_pages": 0, "footnotes": []}


ENGINE_REGISTRY: dict[str, Callable[[PipelineConfig], ExtractionEngine]] = {
    "geometry": _extractor_engine("geometry"),
    # remediation variants 1 and 2 (reference master_extractor.py:639-672)
    "relaxed-headers": _extractor_engine("relaxed-headers", 0),
    "wide-columns": _extractor_engine("wide-columns", 1),
    "raw-text": lambda cfg: RawTextEngine(cfg),
}

DEFAULT_ENGINE_NAMES = ("geometry", "relaxed-headers", "wide-columns")


def register_engine(name: str, factory: Callable[[PipelineConfig], ExtractionEngine]) -> None:
    """Plugin hook: make an engine available to consensus by name."""
    ENGINE_REGISTRY[name] = factory


def build_engines(
    names: tuple[str, ...] = DEFAULT_ENGINE_NAMES, cfg: PipelineConfig = DEFAULT_CONFIG
) -> list[ExtractionEngine]:
    unknown = [n for n in names if n not in ENGINE_REGISTRY]
    if unknown:
        raise KeyError(f"unknown engines {unknown}; registered: {sorted(ENGINE_REGISTRY)}")
    return [ENGINE_REGISTRY[n](cfg) for n in names]
