"""Structured extraction from web pages: HTML tables as relational
rows.

Crawl-scale corpora carry most of their FACTUAL density inside
<table> markup, and table-to-text / table-QA training data starts
with exactly this flattening (each cell addressed by its table, row
and column position). The extraction pipeline's prose path
deliberately linearizes tables; this operator is the structured
sibling — it leaves extracted_text and its goldens untouched and
emits a separate (url, table_idx, row_idx, col_idx, cell, header)
dataset.

Parsing: the extraction path's HTML tokenizer (html_extract._tokenize)
over charset-sniffed bytes (the same sniff_decode precedence), one
stateful visitor per batch inside map_batches — no shuffle, flat
per-batch explode.
Nested tables are enumerated as their OWN table_idx in document
order; their cell text is not duplicated into the enclosing cell.
Cell text is whitespace-collapsed with inline markup stripped;
<th> cells carry header=1. Unclosed td/tr (ubiquitous in wild HTML)
are closed implicitly at the next cell/row/table boundary, matching
browser error recovery.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.functions.html_extract import _tokenize
from pdf_extractor_ray.ops.shuffle import _typed_table

_TABLE_SCHEMA = pa.schema(
    [
        ("url", pa.large_string()),
        ("table_idx", pa.int64()),
        ("row_idx", pa.int64()),
        ("col_idx", pa.int64()),
        ("cell", pa.large_string()),
        ("header", pa.int8()),
    ]
)


class _Visitor:
    """``_tokenize`` handler base: ``<x/>`` opens and closes ``x``."""

    def handle_startendtag(self, tag: str, attrs) -> None:
        self.handle_starttag(tag, attrs)
        self.handle_endtag(tag)


class _TableVisitor(_Visitor):
    """Collect (table_idx, row_idx, col_idx, text, is_header) cells.

    A stack tracks nested tables; each <table> takes the next global
    table_idx in document order. Implicit closes: a new <td>/<th>
    closes an open cell, a new <tr> closes the open row, </table>
    closes everything at that level."""

    def __init__(self) -> None:
        self.cells: list[tuple[int, int, int, str, int]] = []
        self._next_idx = 0
        self._stack: list[dict] = []  # per open table: idx/row/col/state

    def _open_table(self) -> None:
        self._stack.append(
            {"idx": self._next_idx, "row": -1, "col": -1, "in_cell": False,
             "is_header": 0, "buf": []}
        )
        self._next_idx += 1

    def _flush_cell(self, t: dict) -> None:
        if t["in_cell"]:
            text = " ".join("".join(t["buf"]).split())
            self.cells.append((t["idx"], t["row"], t["col"], text, t["is_header"]))
            t["in_cell"] = False
            t["buf"] = []

    def handle_starttag(self, tag: str, attrs) -> None:
        if tag == "table":
            self._open_table()
            return
        if not self._stack:
            return
        t = self._stack[-1]
        if tag == "tr":
            self._flush_cell(t)
            t["row"] += 1
            t["col"] = -1
        elif tag in ("td", "th"):
            self._flush_cell(t)
            if t["row"] < 0:  # cell before any <tr>: implicit first row
                t["row"] = 0
            t["col"] += 1
            t["in_cell"] = True
            t["is_header"] = 1 if tag == "th" else 0
            t["buf"] = []

    def handle_endtag(self, tag: str) -> None:
        if not self._stack:
            return
        t = self._stack[-1]
        if tag == "table":
            self._flush_cell(t)
            self._stack.pop()
        elif tag in ("td", "th", "tr"):
            self._flush_cell(t)

    def handle_data(self, data: str) -> None:
        if self._stack and self._stack[-1]["in_cell"]:
            self._stack[-1]["buf"].append(data)


def extract_tables_from_html(text: str) -> list[tuple[int, int, int, str, int]]:
    """Pure helper: all table cells of one HTML document."""
    v = _TableVisitor()
    _tokenize(text, v)
    while v._stack:  # tables and cells still open at EOF
        v._flush_cell(v._stack.pop())
    return v.cells


def html_tables(
    ds: ray.data.Dataset, html_col: str = "html", url_col: str = "url"
) -> ray.data.Dataset:
    """One row per table cell across the page corpus: (url, table_idx,
    row_idx, col_idx, cell, header). Charset-sniffed like the
    extraction path; non-HTML payloads contribute nothing."""
    from pdf_extractor_ray.functions.html_extract import sniff_decode

    def f(batch: pd.DataFrame) -> pa.Table:
        urls: list[str] = []
        tis: list[int] = []
        ris: list[int] = []
        cis: list[int] = []
        cells: list[str] = []
        hdrs: list[int] = []
        for url, payload in zip(batch[url_col], batch[html_col]):
            raw = bytes(payload)
            if b"<" not in raw[:256]:  # non-HTML payloads have no markup
                continue
            text, _enc = sniff_decode(raw)
            for ti, ri, ci, cell, hdr in extract_tables_from_html(text):
                urls.append(str(url))
                tis.append(ti)
                ris.append(ri)
                cis.append(ci)
                cells.append(cell)
                hdrs.append(hdr)
        return _typed_table(
            _TABLE_SCHEMA,
            url=urls,
            table_idx=np.asarray(tis, dtype=np.int64),
            row_idx=np.asarray(ris, dtype=np.int64),
            col_idx=np.asarray(cis, dtype=np.int64),
            cell=cells,
            header=np.asarray(hdrs, dtype=np.int8),
        )

    return ds.map_batches(f, batch_format="pandas")


_META_SCHEMA = pa.schema(
    [
        ("url", pa.large_string()),
        ("kind", pa.large_string()),
        ("key", pa.large_string()),
        ("value", pa.large_string()),
        ("order", pa.int64()),
    ]
)


class _MetaVisitor(_Visitor):
    """Collect (kind, key, value) page metadata in document order:
    <title> text, <meta> name/property/charset attributes, h1-h6
    heading text (the document outline structure-aware chunkers key
    on), and <link rel=canonical> targets."""

    _HEADINGS = {"h1", "h2", "h3", "h4", "h5", "h6"}

    def __init__(self) -> None:
        self.rows: list[tuple[str, str, str]] = []
        self._text_tag: str | None = None  # "title" or an open heading tag
        self._buf: list[str] = []

    def _flush(self) -> None:
        if self._text_tag is not None:
            text = " ".join("".join(self._buf).split())
            if text:
                kind = "title" if self._text_tag == "title" else "heading"
                self.rows.append((kind, self._text_tag, text))
            self._text_tag = None
            self._buf = []

    def handle_starttag(self, tag: str, attrs) -> None:
        a = dict(attrs)
        if tag == "title" or tag in self._HEADINGS:
            self._flush()
            self._text_tag = tag
            self._buf = []
        elif tag == "meta":
            if a.get("charset"):
                self.rows.append(("meta", "charset", a["charset"]))
            key = a.get("name") or a.get("property") or a.get("http-equiv")
            if key and a.get("content") is not None:
                self.rows.append(("meta", key, a["content"]))
        elif tag == "link" and (a.get("rel") or "").lower() == "canonical" and a.get("href"):
            self.rows.append(("canonical", "href", a["href"]))

    def handle_endtag(self, tag: str) -> None:
        if self._text_tag is not None and (tag == self._text_tag or tag == "head"):
            self._flush()

    def handle_data(self, data: str) -> None:
        if self._text_tag is not None:
            self._buf.append(data)


def extract_metadata_from_html(text: str) -> list[tuple[str, str, str]]:
    """Pure helper: (kind, key, value) metadata rows of one document."""
    v = _MetaVisitor()
    _tokenize(text, v)
    v._flush()  # a title or heading still open at EOF
    return v.rows


def page_metadata(
    ds: ray.data.Dataset, html_col: str = "html", url_col: str = "url"
) -> ray.data.Dataset:
    """Page metadata + outline across the corpus: (url, kind, key,
    value, order) with kind in {title, meta, heading, canonical} and
    `order` the document-order index within the page — the inputs for
    title-based dedup keys, canonical-url collapsing, and
    structure-aware (outline) chunking. Same shape as html_tables:
    charset-sniffed, one stateful visitor per batch, no shuffle."""
    from pdf_extractor_ray.functions.html_extract import sniff_decode

    def f(batch: pd.DataFrame) -> pa.Table:
        urls: list[str] = []
        kinds: list[str] = []
        keys: list[str] = []
        vals: list[str] = []
        orders: list[int] = []
        for url, payload in zip(batch[url_col], batch[html_col]):
            raw = bytes(payload)
            if b"<" not in raw[:256]:
                continue
            text, _enc = sniff_decode(raw)
            for i, (kind, key, value) in enumerate(extract_metadata_from_html(text)):
                urls.append(str(url))
                kinds.append(kind)
                keys.append(key)
                vals.append(value)
                orders.append(i)
        return _typed_table(
            _META_SCHEMA,
            url=urls,
            kind=kinds,
            key=keys,
            value=vals,
            order=np.asarray(orders, dtype=np.int64),
        )

    return ds.map_batches(f, batch_format="pandas")


_OPEN_TAG_RE = __import__("re").compile(r"<([a-zA-Z][a-zA-Z0-9]*)")


def template_shapes(
    ds: ray.data.Dataset, html_col: str = "html", url_col: str = "url"
) -> ray.data.Dataset:
    """DOM-shape fingerprint per page: the SEQUENCE of opening tag
    names (text dropped entirely) hashed to 63 bits — pages produced
    by one CMS template share a shape even when every word differs,
    so grouping on it finds template families (the precursor to
    boilerplate-aware sampling: cap pages per template, or diff a
    page against its template's majority shape). One compiled-regex
    pass per page, no shuffle. Emits (url, shape_hash, n_tags)."""
    from pdf_extractor_ray.functions.html_extract import sniff_decode
    from pdf_extractor_ray.ops.dedup import sha1_64

    schema = pa.schema(
        [("url", pa.large_string()), ("shape_hash", pa.int64()), ("n_tags", pa.int64())]
    )

    def f(batch: pd.DataFrame) -> pa.Table:
        urls: list[str] = []
        hashes: list[int] = []
        ntags: list[int] = []
        for url, payload in zip(batch[url_col], batch[html_col]):
            raw = bytes(payload)
            if b"<" not in raw[:256]:
                continue
            text, _enc = sniff_decode(raw)
            tags = [t.lower() for t in _OPEN_TAG_RE.findall(text)]
            urls.append(str(url))
            hashes.append(sha1_64(" ".join(tags)) >> 1)
            ntags.append(len(tags))
        return _typed_table(
            schema,
            url=urls,
            shape_hash=np.asarray(hashes, dtype=np.int64),
            n_tags=np.asarray(ntags, dtype=np.int64),
        )

    return ds.map_batches(f, batch_format="pandas")


def template_families(shapes: ray.data.Dataset) -> ray.data.Dataset:
    """Template-family inventory: (shape_hash, n_pages, n_tags) — one
    grouped reduction over the shape fingerprints (n_tags is constant
    within a family by construction, carried via min)."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    counts = grouped_sum(
        shapes.map_batches(
            lambda b: b[["shape_hash", "n_tags"]], batch_format="pandas"
        ),
        ["shape_hash"],
        [],
        mins=["n_tags"],
    )

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "shape_hash": b["shape_hash"].to_numpy(dtype=np.int64),
                "n_pages": b["n"].to_numpy(dtype=np.int64),
                "n_tags": b["min_n_tags"].to_numpy(dtype=np.int64),
            }
        )

    return counts.map_batches(rename, batch_format="pandas")


def _robots_noindex(html_text: str) -> bool:
    """True when a <meta name=robots|googlebot> directive contains the
    `noindex` or `none` token (RFC 9309 §2.x-adjacent meta protocol;
    `none` = noindex,nofollow). Token match, not substring: a content
    of "noindexing-ok" must NOT trip the gate. Only the <head> prefix
    is parsed — directives are head-only by spec, and skipping the
    body makes the gate ~page-header-cost at crawl scale."""
    head_end = html_text.find("</head>")
    probe = html_text if head_end < 0 else html_text[: head_end + 7]
    for kind, key, value in extract_metadata_from_html(probe):
        if kind == "meta" and key.lower() in ("robots", "googlebot"):
            tokens = {t.strip().lower() for t in value.replace(";", ",").split(",")}
            if "noindex" in tokens or "none" in tokens:
                return True
    return False


def robots_gate(
    ds: ray.data.Dataset, html_col: str = "html", url_col: str = "url"
) -> ray.data.Dataset:
    """Compliance gate: DROP pages whose meta robots directives forbid
    indexing (noindex / none) — the publisher opt-out every responsible
    training-data crawl honors (the html-meta half of robots.txt
    compliance; the /robots.txt half needs the fetch-time protocol and
    is out of scope for a table-in/table-out engine). Shuffle-free:
    charset-sniff + head-prefix parse per row, one boolean filter per
    batch, pages stream through untouched."""
    from pdf_extractor_ray.functions.html_extract import sniff_decode

    def gate(batch: pd.DataFrame) -> pd.DataFrame:
        keep = np.ones(len(batch), dtype=bool)
        for i, payload in enumerate(batch[html_col]):
            raw = bytes(payload)
            if b"<" not in raw[:256]:
                continue  # non-HTML payloads (PDF) are never meta-gated
            text, _enc = sniff_decode(raw)
            if _robots_noindex(text):
                keep[i] = False
        return batch[keep]

    return ds.map_batches(gate, batch_format="pandas")
