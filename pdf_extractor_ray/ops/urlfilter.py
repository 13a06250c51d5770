"""URL-level crawl filtering — the gate every web-scale corpus runs
BEFORE fetching or extracting a page (CCNet, RefinedWeb §3.1 and
RedPajama-v2 all carry one; the public UT1 "blacklists" distribution
is the canonical blocklist shape): drop documents whose URL falls in
a blocked domain, whose path/query carries a banned word, or whose
URL shape is spammy (too long, too many digits in the host, too many
subdomains or query parameters).

Everything here is driven by the URL STRING only — no network, no
payload — so it is a pure vectorized map over the corpus:

- one compiled regex splits scheme/host/port/path/query per batch
  (pandas ``str.extract``, single pass);
- host blocking is SUFFIX matching on registrable-domain boundaries
  (``host == b`` or ``host.endswith("." + b)``), the UT1 semantics —
  implemented as ONE alternation regex anchored at end-of-host, so a
  100k-domain blocklist is still a single scan per batch;
- path/query word blocking is a literal-substring alternation over
  the lowercased path+query (the decontaminate shape);
- shape heuristics are numpy column math.

Blocklists ride along as task arguments (Ray caches them per worker);
for very large lists pass the precompiled patterns through `ray.put`
and resolve in-task — the filter itself never shuffles.

Reference parity: the reference engine ingests user uploads and has
no crawl gate (extractor.py:101 takes arbitrary PDFs); this operator
belongs to the north rule's webtext target, same family as
ops/quality (Gopher/C4) document gates.
"""

from __future__ import annotations

import re
from typing import Sequence

import numpy as np
import pandas as pd
import ray.data

from pdf_extractor_ray.ops.shuffle import column_hash, hash_partition

# scheme://host[:port][/path][?query] — permissive on purpose: crawl
# URLs are messy and an unparseable URL must yield a REASON, not a
# crash. Query excludes the fragment (#...), which no filter reads.
_URL_RE = re.compile(
    r"^(?P<scheme>[a-zA-Z][a-zA-Z0-9+.-]*)://(?P<host>[^/:?#]*)"
    r"(?::(?P<port>\d+))?(?P<path>[^?#]*)(?:\?(?P<query>[^#]*))?"
)

_DEFAULTS = dict(
    max_url_len=2048,
    max_host_digit_frac=0.5,
    max_subdomain_depth=6,
    max_query_params=16,
)


def _host_block_re(blocked_hosts: Sequence[str]) -> re.Pattern | None:
    """One end-anchored alternation implementing UT1 suffix semantics:
    ``example.com`` blocks example.com and every subdomain, never
    notexample.com (the boundary is a literal dot)."""
    hosts = sorted({h.lower().lstrip(".") for h in blocked_hosts if h})
    if not hosts:
        return None
    alt = "|".join(re.escape(h) for h in hosts)
    return re.compile(r"(?:^|\.)(?:" + alt + r")$")


def _signal_frame(
    batch: pd.DataFrame,
    url_col: str,
    host_re: re.Pattern | None,
    word_re: re.Pattern | None,
    lim: dict,
) -> pd.DataFrame:
    s = batch[url_col].astype(str)
    parts = s.str.extract(_URL_RE)
    host = parts["host"].fillna("").str.lower()
    path = parts["path"].fillna("")
    query = parts["query"].fillna("")
    unparseable = parts["scheme"].isna().to_numpy()

    n_params = np.where(
        query.to_numpy() == "", 0, query.str.count("&").to_numpy() + 1
    ).astype("int64")
    hlen = host.str.len().to_numpy().astype("float64")
    digit_frac = np.divide(
        host.str.count(r"\d").to_numpy().astype("float64"),
        hlen,
        out=np.zeros_like(hlen),
        where=hlen > 0,
    )
    depth = host.str.count(r"\.").to_numpy() + 1
    path_depth = path.str.count("/").to_numpy().astype("int64")

    reason = np.full(len(batch), "", dtype=object)

    def trip(mask: np.ndarray, tag: str) -> None:
        mask = np.asarray(mask, dtype=bool) & (reason == "")
        reason[mask] = tag

    if host_re is not None:
        trip(host.str.contains(host_re, regex=True).to_numpy(), "block_host")
    if word_re is not None:
        pq = (path + "?" + query).str.lower()
        trip(pq.str.contains(word_re, regex=True).to_numpy(), "block_word")
    trip(unparseable, "unparseable")
    trip(s.str.len().to_numpy() > lim["max_url_len"], "too_long")
    trip(digit_frac > lim["max_host_digit_frac"], "digit_host")
    trip(depth > lim["max_subdomain_depth"], "deep_subdomain")
    trip(n_params > lim["max_query_params"], "query_spam")

    return pd.DataFrame(
        {
            url_col: s,
            "host": host,
            "path_depth": path_depth,
            "n_query_params": n_params,
            "host_digit_frac": digit_frac,
            "reason": reason,
            "keep": reason == "",
        }
    )


def url_signals(
    ds: ray.data.Dataset,
    url_col: str = "url",
    blocked_hosts: Sequence[str] = (),
    blocked_path_words: Sequence[str] = (),
    **limits: float,
) -> ray.data.Dataset:
    """Per-URL parse + filter verdict. Emits (url_col, host, path_depth,
    n_query_params, host_digit_frac, reason, keep): `reason` is the
    FIRST tripped rule in a fixed order (block_host, block_word,
    unparseable, too_long, digit_host, deep_subdomain, query_spam) or
    "" when the URL passes. Deterministic: same URL, same verdict, on
    any cluster size or row order."""
    lim = {**_DEFAULTS, **limits}
    host_re = _host_block_re(blocked_hosts)
    words = sorted({w.lower() for w in blocked_path_words if w}, key=len, reverse=True)
    word_re = re.compile("|".join(re.escape(w) for w in words)) if words else None

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        return _signal_frame(batch, url_col, host_re, word_re, lim)

    return ds.map_batches(f, batch_format="pandas")


def url_filter(
    ds: ray.data.Dataset,
    url_col: str = "url",
    blocked_hosts: Sequence[str] = (),
    blocked_path_words: Sequence[str] = (),
    **limits: float,
) -> ray.data.Dataset:
    """Keep only rows whose URL passes every rule, preserving the
    input schema — the composable gate form (drop-in ahead of
    extraction or any corpus stage). Shares url_signals' rule pass
    exactly: a row survives iff its signals row has keep=True."""
    lim = {**_DEFAULTS, **limits}
    host_re = _host_block_re(blocked_hosts)
    words = sorted({w.lower() for w in blocked_path_words if w}, key=len, reverse=True)
    word_re = re.compile("|".join(re.escape(w) for w in words)) if words else None

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        sig = _signal_frame(batch, url_col, host_re, word_re, lim)
        return batch.loc[sig["keep"].to_numpy()]

    return ds.map_batches(f, batch_format="pandas")


# ---------------------------------------------------------------------------
# Registrable domains and per-domain crawl caps
# ---------------------------------------------------------------------------

# Common country-code second-level registration zones (public DNS
# convention — the "co.uk" pattern): a host's registrable domain is
# its last TWO labels, or THREE when the last two form one of these
# zones. A full Public Suffix List import would extend this table;
# the rule shape is identical.
_CC_SLDS = frozenset(
    {
        "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
        "com.au", "net.au", "org.au", "edu.au", "gov.au",
        "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
        "com.br", "net.br", "org.br", "gov.br",
        "co.nz", "net.nz", "org.nz",
        "co.in", "net.in", "org.in", "gov.in", "ac.in",
        "com.cn", "net.cn", "org.cn", "gov.cn",
        "co.kr", "or.kr", "go.kr", "ac.kr",
        "com.mx", "org.mx", "gob.mx",
        "com.tr", "org.tr", "gov.tr",
        "co.za", "org.za", "gov.za",
        "com.sg", "org.sg", "gov.sg",
    }
)


def registrable_domain(host: str) -> str:
    """Registrable domain of a hostname: the last two labels, or the
    last three when the final two form a known country-code
    second-level zone ('www.bbc.co.uk' -> 'bbc.co.uk'). Bare or
    single-label hosts return unchanged; deterministic, no network."""
    labels = host.lower().strip(".").split(".")
    if len(labels) <= 2:
        return ".".join(labels)
    if ".".join(labels[-2:]) in _CC_SLDS and len(labels) >= 3:
        return ".".join(labels[-3:])
    return ".".join(labels[-2:])


def domain_cap(
    ds: ray.data.Dataset,
    max_per_domain: int,
    url_col: str = "url",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-registrable-domain document cap — the crawl-balance rule
    (RefinedWeb-style pipelines cap any one site's contribution so a
    single mega-domain cannot dominate the corpus): keep at most
    `max_per_domain` rows per registrable domain, chosen by the
    smallest md5(url) keys (a deterministic pseudo-random draw, not
    first-seen order, so the kept set is independent of scan order).

    Domains are HIGH-cardinality (millions at crawl scale), so this
    never groups by domain directly (the CLAUDE.md groupby rule):
    per-batch partials keep at most k rows per domain, then ONE
    shuffle on hash(domain) mod P and a vectorized per-partition
    head-k finishes. Preserves the input schema."""
    from pdf_extractor_ray.ops.scrub import md5_u52

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.reset_index(drop=True)
        s = b[url_col].astype(str)
        host = s.str.extract(_URL_RE)["host"].fillna("").str.lower()
        b = b.copy()
        b["_dom"] = [registrable_domain(h) for h in host]
        b["_h"] = md5_u52([str(u) for u in s])
        b = b.sort_values(["_h", url_col], kind="stable")
        return b.groupby("_dom", sort=False).head(max_per_domain)

    def finish(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_h", url_col], kind="stable")
        g = g.groupby("_dom", sort=False).head(max_per_domain)
        return g.drop(columns=["_dom", "_h"])

    return hash_partition(
        ds.map_batches(partial, batch_format="pandas"), column_hash("_dom"), num_partitions, finish, None
    )


def domain_stats(
    ds: ray.data.Dataset,
    url_col: str = "url",
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """Per-registrable-domain rollup: (domain, n_docs, n_hosts) — the
    crawl-source inventory behind cap/blocklist decisions. Distinct
    hosts reduce exactly: per-batch distinct (domain, host) pairs
    carry partial doc counts, one domain-keyed exchange finishes."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def pairs(batch: pd.DataFrame) -> pd.DataFrame:
        s = batch[url_col].astype(str)
        host = s.str.extract(_URL_RE)["host"].fillna("").str.lower()
        df = pd.DataFrame({"host": host})
        df["domain"] = [registrable_domain(h) for h in host]
        out = df.groupby(["domain", "host"], sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    per_host = grouped_sum(
        ds.map_batches(pairs, batch_format="pandas"), ["domain", "host"], ["n"], counts=False
    )

    def host_rows(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "domain": b["domain"],
                "n_docs": b["sum_n"].to_numpy(dtype="int64"),
                "n_hosts": np.ones(len(b), dtype="int64"),
            }
        )

    out = grouped_sum(
        per_host.map_batches(host_rows, batch_format="pandas"),
        ["domain"],
        ["n_docs", "n_hosts"],
        counts=False,
    )

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "domain": b["domain"],
                "n_docs": b["sum_n_docs"].to_numpy(dtype="int64"),
                "n_hosts": b["sum_n_hosts"].to_numpy(dtype="int64"),
            }
        )

    return out.map_batches(rename, batch_format="pandas")


# ---------------------------------------------------------------------------
# URL canonicalization
# ---------------------------------------------------------------------------

_TRACKING_PARAM_RE = (
    # left-anchored to a param boundary (start-of-query or a '&'
    # lookbehind — the lookbehind still sees a '&' consumed by the
    # previous match) so a param whose NAME merely ends with a tracked
    # name (xgclid=, myutm_source=) is never partially stripped; the
    # optional trailing '&' keeps separators paired mid-string, and a
    # dangling tail '&' is cleaned after substitution
    r"(?:^|(?<=&))(?:utm_[^=&]*|fbclid|gclid|msclkid|mc_cid|mc_eid|igshid|ref_src)=[^&]*&?"
)


def canonicalize_urls(s: pd.Series) -> pd.Series:
    """Conservative RFC-3986-style URL canonicalization, fully
    vectorized (pandas .str regex chains, no per-row parse):

      - fragment stripped;
      - scheme and host lowercased;
      - default port stripped (:80 for http, :443 for https);
      - tracking query params removed (utm_*, fbclid, gclid, msclkid,
        mc_cid/mc_eid, igshid, ref_src — the UT1/common-crawl set);
        an emptied query drops its '?';
      - empty path normalized to '/';
      - remaining params keep their ORIGINAL order (sorting is a more
        aggressive equivalence and is deliberately not applied).

    Canonical urls are the dedup key recrawl collapsing starts from —
    two crawls of one page differing only in click-tracking noise map
    to one key. Non-http(s) and malformed values pass through
    unchanged (canonicalization must never invent a url)."""
    s = s.astype(str)
    parts = s.str.extract(
        r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://(?P<host>[^/?#]*)(?P<rest>.*)$"
    )
    ok = parts["scheme"].notna() & parts["scheme"].str.lower().isin(["http", "https"])
    scheme = parts["scheme"].str.lower()
    host = parts["host"].str.lower()
    host = host.mask((scheme == "http"), host.str.replace(r":80$", "", regex=True))
    host = host.mask((scheme == "https"), host.str.replace(r":443$", "", regex=True))
    # fragment strips AFTER the is-http gate (a non-url string like a
    # bare '#...' must pass through verbatim, not be emptied)
    rest = parts["rest"].fillna("").str.replace(r"#.*$", "", regex=True)
    path = rest.str.replace(r"\?.*$", "", regex=True)
    query = rest.str.extract(r"\?(.*)$", expand=False).fillna("")
    query = (
        query.str.replace(_TRACKING_PARAM_RE, "", regex=True)
        .str.replace(r"^&+", "", regex=True)
        .str.replace(r"&+$", "", regex=True)
    )
    path = path.mask(path == "", "/")
    rebuilt = scheme + "://" + host + path + ("?" + query).where(query != "", "")
    return rebuilt.where(ok, s)
