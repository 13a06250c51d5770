"""Crawl-frontier structured formats: XML sitemaps (urlset +
sitemapindex, sitemaps.org protocol) and RSS 2.0 / Atom feeds.

A crawl pipeline discovers most of its frontier through exactly these
documents: sitemaps enumerate a host's canonical urls with lastmod /
changefreq / priority scheduling hints, and feeds surface fresh
content between crawls. The reference engine has no crawl-frontier
surface at all (SURVEY.md §2 S-group reads local files); at corpus
scale these parsers run as flat per-batch explodes inside
map_batches — no shuffle, the same execution shape as
ops/structured.py's HTML-table extraction.

Parsing: stdlib xml.etree over charset-decoded text, namespace-
stripped (sitemap and Atom documents always carry an xmlns; RSS 2.0
usually doesn't). A payload that is not well-formed XML of the
expected root yields one kind='error' row — counted, never guessed
at, mirroring the PDF/media codec boundary contract.

Timestamp discipline (cross-engine float doctrine, CLAUDE.md): RSS
pubDate is generated AND parsed with hard-coded English day/month
tables — never strftime/strptime %a/%b, which are locale-dependent —
so the DuckDB twin's strptime reproduces every value bit-exactly.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from datetime import datetime

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.shuffle import _typed_table

SITEMAP_SCHEMA = pa.schema(
    [
        ("url", pa.large_string()),
        ("order", pa.int64()),
        ("kind", pa.large_string()),
        ("loc", pa.large_string()),
        ("lastmod", pa.timestamp("us")),
        ("changefreq", pa.large_string()),
        ("priority", pa.float64()),
    ]
)

FEED_SCHEMA = pa.schema(
    [
        ("url", pa.large_string()),
        ("order", pa.int64()),
        ("kind", pa.large_string()),
        ("title", pa.large_string()),
        ("link", pa.large_string()),
        ("pub_ts", pa.timestamp("us")),
    ]
)


def _strip_ns(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _child_text(el, name: str) -> str | None:
    for c in el:
        if _strip_ns(c.tag) == name:
            return (c.text or "").strip() or None
    return None


_W3C_FORMATS = ("%Y-%m-%d", "%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S.%fZ")


def _parse_w3c_datetime(s: str | None) -> datetime | None:
    """W3C datetime subset used by sitemaps/Atom (date or UTC
    datetime). Numeric-only formats — locale-safe."""
    if not s:
        return None
    for fmt in _W3C_FORMATS:
        try:
            return datetime.strptime(s, fmt)
        except ValueError:
            continue
    return None


_MONTHS = {
    m: i + 1
    for i, m in enumerate(
        ["Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
    )
}
_RFC822_RE = re.compile(
    r"^(?:Mon|Tue|Wed|Thu|Fri|Sat|Sun), (\d{2}) ([A-Z][a-z]{2}) (\d{4}) (\d{2}):(\d{2}):(\d{2}) GMT$"
)


def _parse_rfc822(s: str | None) -> datetime | None:
    """RFC-822 pubDate ('Mon, 01 Jan 2024 13:05:00 GMT') with a
    hard-coded month table — locale-independent by construction."""
    if not s:
        return None
    m = _RFC822_RE.match(s.strip())
    if not m or m.group(2) not in _MONTHS:
        return None
    d, mon, y, hh, mm, ss = m.groups()
    return datetime(int(y), _MONTHS[mon], int(d), int(hh), int(mm), int(ss))


def _as_text(payload) -> str:
    if isinstance(payload, bytes):
        return payload.decode("utf-8", "replace")
    return str(payload)


def parse_sitemap(text: str) -> list[tuple[str, str | None, datetime | None, str | None, float | None]]:
    """(kind, loc, lastmod, changefreq, priority) per entry in document
    order. kind is 'urlset' or 'sitemapindex'; raises ValueError for
    non-sitemap XML (callers convert to an error row)."""
    root = ET.fromstring(text)
    rtag = _strip_ns(root.tag)
    if rtag == "urlset":
        kind, child = "urlset", "url"
    elif rtag == "sitemapindex":
        kind, child = "sitemapindex", "sitemap"
    else:
        raise ValueError(f"not a sitemap root: {rtag}")
    out = []
    for el in root:
        if _strip_ns(el.tag) != child:
            continue
        loc = _child_text(el, "loc")
        if loc is None:
            continue  # loc is required by the protocol; entry is void without it
        pr = _child_text(el, "priority")
        out.append(
            (
                kind,
                loc,
                _parse_w3c_datetime(_child_text(el, "lastmod")),
                _child_text(el, "changefreq"),
                float(pr) if pr is not None else None,
            )
        )
    return out


def parse_feed(text: str) -> list[tuple[str, str | None, str | None, datetime | None]]:
    """(kind, title, link, pub_ts) per item/entry in document order.
    kind is 'rss' or 'atom'; raises ValueError for non-feed XML."""
    root = ET.fromstring(text)
    rtag = _strip_ns(root.tag)
    out = []
    if rtag == "rss":
        for ch in root:
            if _strip_ns(ch.tag) != "channel":
                continue
            for it in ch:
                if _strip_ns(it.tag) != "item":
                    continue
                out.append(
                    (
                        "rss",
                        _child_text(it, "title"),
                        _child_text(it, "link"),
                        _parse_rfc822(_child_text(it, "pubDate")),
                    )
                )
    elif rtag == "feed":
        for it in root:
            if _strip_ns(it.tag) != "entry":
                continue
            link = None
            for c in it:
                if _strip_ns(c.tag) == "link":
                    link = c.get("href")
                    break
            out.append(
                (
                    "atom",
                    _child_text(it, "title"),
                    link,
                    _parse_w3c_datetime(_child_text(it, "updated")),
                )
            )
    else:
        raise ValueError(f"not a feed root: {rtag}")
    return out


def sitemap_entries(
    ds: ray.data.Dataset, xml_col: str = "xml", url_col: str = "url"
) -> ray.data.Dataset:
    """One row per sitemap entry across the corpus: (url, order, kind,
    loc, lastmod, changefreq, priority); a malformed payload yields one
    kind='error' row with null fields."""

    def f(batch: pd.DataFrame) -> pa.Table:
        rows: dict[str, list] = {k: [] for k in ("url", "order", "kind", "loc", "changefreq")}
        lastmods: list = []
        priorities: list = []
        for url, payload in zip(batch[url_col], batch[xml_col]):
            try:
                entries = parse_sitemap(_as_text(payload))
            except (ET.ParseError, ValueError):
                rows["url"].append(str(url))
                rows["order"].append(0)
                rows["kind"].append("error")
                rows["loc"].append(None)
                rows["changefreq"].append(None)
                lastmods.append(None)
                priorities.append(None)
                continue
            for i, (kind, loc, lastmod, cf, pr) in enumerate(entries):
                rows["url"].append(str(url))
                rows["order"].append(i)
                rows["kind"].append(kind)
                rows["loc"].append(loc)
                rows["changefreq"].append(cf)
                lastmods.append(lastmod)
                priorities.append(pr)
        return _typed_table(
            SITEMAP_SCHEMA,
            url=rows["url"],
            order=np.asarray(rows["order"], dtype=np.int64),
            kind=rows["kind"],
            loc=rows["loc"],
            lastmod=lastmods,
            changefreq=rows["changefreq"],
            priority=priorities,
        )

    return ds.map_batches(f, batch_format="pandas")


def feed_items(
    ds: ray.data.Dataset, xml_col: str = "xml", url_col: str = "url"
) -> ray.data.Dataset:
    """One row per feed item across the corpus: (url, order, kind,
    title, link, pub_ts); malformed payloads yield kind='error'."""

    def f(batch: pd.DataFrame) -> pa.Table:
        urls: list[str] = []
        orders: list[int] = []
        kinds: list[str] = []
        titles: list = []
        links: list = []
        pubs: list = []
        for url, payload in zip(batch[url_col], batch[xml_col]):
            try:
                items = parse_feed(_as_text(payload))
            except (ET.ParseError, ValueError):
                urls.append(str(url))
                orders.append(0)
                kinds.append("error")
                titles.append(None)
                links.append(None)
                pubs.append(None)
                continue
            for i, (kind, title, link, pub) in enumerate(items):
                urls.append(str(url))
                orders.append(i)
                kinds.append(kind)
                titles.append(title)
                links.append(link)
                pubs.append(pub)
        return _typed_table(
            FEED_SCHEMA,
            url=urls,
            order=np.asarray(orders, dtype=np.int64),
            kind=kinds,
            title=titles,
            link=links,
            pub_ts=pubs,
        )

    return ds.map_batches(f, batch_format="pandas")
