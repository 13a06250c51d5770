"""The Extractor's per-row contract: every input row yields exactly one
RESULT_SCHEMA row, and a failing payload yields a fully defined error
row rather than an exception."""

from datetime import datetime

import pyarrow as pa

from pdf_extractor_ray.functions.pdf_codec import pages_to_pdf_bytes
from pdf_extractor_ray.functions.pdf_words import FIXTURE_MAGIC
from pdf_extractor_ray.stages.extractor import RESULT_SCHEMA, Extractor

TS = datetime(2024, 1, 1, 12, 0, 0)


def _batch(payloads: list[bytes]) -> pa.Table:
    n = len(payloads)
    return pa.table(
        {
            "url": [f"https://x.example/{i}" for i in range(n)],
            "warc_ts": pa.array([TS] * n, pa.timestamp("us")),
            "html": pa.array(payloads, pa.binary()),
            "lang": ["en"] * n,
        }
    )


def _unsupported_pdf() -> bytes:
    page = {
        "width": 612.0,
        "height": 792.0,
        "words": [
            {"text": "Hi", "x0": 72.0, "x1": 84.0, "top": 200.0, "bottom": 212.0,
             "size": 10.0, "fontname": "F0"}
        ],
        "lines": [],
        "rects": [],
    }
    # an unknown stream filter is outside the codec's subset
    return pages_to_pdf_bytes([page]).replace(b"/Length", b"/Filter /Fl /Length")


def test_error_row_is_fully_defined():
    out = Extractor()(_batch([FIXTURE_MAGIC + b"{not json"]))
    assert out.schema == RESULT_SCHEMA
    row = out.to_pylist()[0]
    err = row.pop("error")
    assert err.startswith("JSONDecodeError: ")
    assert row == {
        "url": "https://x.example/0",
        "warc_ts": TS,
        "lang": "en",
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


def test_unsupported_pdf_reports_codec_reason():
    row = Extractor()(_batch([_unsupported_pdf()])).to_pylist()[0]
    assert row["payload_kind"] == "error"
    assert row["error"].startswith("UnsupportedPdfError: ")
    assert "/Fl" in row["error"]


def test_mixed_batch_keeps_row_order_and_kinds():
    html = (b"<html><body><main><p>A paragraph long enough to survive the "
            b"boilerplate filter of the extractor.</p></main></body></html>")
    out = Extractor()(_batch([html, b"", FIXTURE_MAGIC + b"{", _unsupported_pdf()]))
    assert out.schema == RESULT_SCHEMA
    assert out.column("url").to_pylist() == [f"https://x.example/{i}" for i in range(4)]
    assert out.column("payload_kind").to_pylist() == ["html", "empty", "error", "error"]
    assert out.column("error").to_pylist()[:2] == [None, None]
    html_row = out.to_pylist()[0]
    assert html_row["extracted_text"].startswith("A paragraph")
    assert html_row["coverage_status"] == "GOOD" and html_row["element_inventory"] == "{}"


def test_batch_without_warc_ts_gets_null_timestamps():
    out = Extractor()(_batch([b""]).drop_columns(["warc_ts"]))
    assert out.schema == RESULT_SCHEMA
    assert out.column("warc_ts").to_pylist() == [None]
