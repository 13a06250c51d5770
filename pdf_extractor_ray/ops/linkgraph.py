"""Web link-graph operators: anchor extraction, host-edge
aggregation, and distributed PageRank.

The host link graph is a core curation signal for web-scale training
data (host-level quality and spam scores propagate along links —
PageRank, Brin & Page 1998), and it exercises the engine's second
iterative BSP algorithm after connected components (ops/dedup.py):
fixed-round rank exchanges over hash-partitioned nodes, never a
JoinOperator, nothing corpus-sized on the driver.

- page_links : (url, href, absolute) rows per anchor, compiled-regex
  scan over charset-sniffed HTML inside map_batches (per-batch flat
  explode; the non-HTML payloads contribute nothing).
- host_edges : (src_host, dst_host, n) weighted cross-host edges —
  absolute http(s) anchors only; same-host navigation collapses away.
- pagerank   : damped PageRank over the host graph, `n_iters` BSP
  rounds on the one shuffle primitive (`ops/shuffle.py`); per round
  the rank table (every host with its outweight) co-shuffles with the
  edges on the source host, contributions reduce on the destination,
  and the rank table co-shuffles with those in-sums to apply the
  round; dangling mass is redistributed uniformly (the standard
  formulation). Rank mass is conserved to float precision.
- triangle_count : degree-oriented wedge checks, one hash_partition
  on the wedge head and one co_shuffle of wedges with edges on the
  (a, b) pair.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdf_extractor_ray.ops.shuffle import _typed_table, co_shuffle, column_hash, hash_partition

_HREF_RE = re.compile(r"""<a\s[^>]*?href\s*=\s*["']([^"'<>]+)["']""", re.IGNORECASE)
_HOST_RE = re.compile(r"^https?://([^/:?#]+)", re.IGNORECASE)

_LINK_SCHEMA = pa.schema(
    [("url", pa.large_string()), ("href", pa.large_string()), ("absolute", pa.int8())]
)
_EDGE_SCHEMA = pa.schema(
    [("src_host", pa.large_string()), ("dst_host", pa.large_string()), ("n", pa.int64())]
)
_RANK_SCHEMA = pa.schema([("host", pa.large_string()), ("rank", pa.float64())])
_PR_STATE_SCHEMA = pa.schema(
    [("host", pa.large_string()), ("w", pa.float64()), ("rank", pa.float64())]
)
_PR_MSG_SCHEMA = pa.schema(
    [("dst", pa.large_string()), ("contrib", pa.float64()), ("dangling", pa.float64())]
)


def page_links(
    ds: ray.data.Dataset, html_col: str = "html", url_col: str = "url"
) -> ray.data.Dataset:
    """One row per <a href> anchor: (url, href, absolute). HTML bytes
    are charset-sniffed exactly like the extraction path."""
    from pdf_extractor_ray.functions.html_extract import sniff_decode

    def f(batch: pd.DataFrame) -> pa.Table:
        urls: list[str] = []
        hrefs: list[str] = []
        for url, payload in zip(batch[url_col], batch[html_col]):
            raw = bytes(payload)
            if b"<" not in raw[:256]:  # non-HTML payloads carry no anchors
                continue
            text, _enc = sniff_decode(raw)
            for m in _HREF_RE.finditer(text):
                urls.append(str(url))
                hrefs.append(m.group(1))
        absolute = np.fromiter(
            (1 if _HOST_RE.match(h) else 0 for h in hrefs), dtype=np.int8, count=len(hrefs)
        )
        return _typed_table(_LINK_SCHEMA, url=urls, href=hrefs, absolute=absolute)

    return ds.map_batches(f, batch_format="pandas")


def host_edges(links: ray.data.Dataset) -> ray.data.Dataset:
    """Weighted cross-host edges (src_host, dst_host, n) from absolute
    anchors; pre-aggregated per batch, then one grouped_sum."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def f(batch: pd.DataFrame) -> pd.DataFrame:
        # lowercase BEFORE extraction: str.extract(pattern) drops the
        # compiled IGNORECASE flag, and hosts are case-insensitive —
        # HTTP:// schemes must match and Example.com == example.com
        src = batch["url"].astype(str).str.lower().str.extract(_HOST_RE.pattern, expand=False)
        dst = batch["href"].astype(str).str.lower().str.extract(_HOST_RE.pattern, expand=False)
        ok = src.notna() & dst.notna() & (src != dst)
        g = (
            pd.DataFrame({"src_host": src[ok], "dst_host": dst[ok]})
            .groupby(["src_host", "dst_host"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    return grouped_sum(
        links.map_batches(f, batch_format="pandas"), ["src_host", "dst_host"], ["n"], counts=False
    ).map_batches(
        lambda b: pd.DataFrame(
            {
                "src_host": b["src_host"],
                "dst_host": b["dst_host"],
                "n": b["sum_n"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )


_PR_BROADCAST_MAX_EDGES = 250_000


def _pagerank_local(df: pd.DataFrame, damping: float, n_iters: int) -> pa.Table:
    """Driver-side vectorized power iteration for BOUNDED edge sets —
    identical damped/dangling formulation as the BSP tier (tests force
    both and assert equality)."""
    hosts = np.unique(np.concatenate([df["src_host"].to_numpy(), df["dst_host"].to_numpy()]))
    idx = {h: i for i, h in enumerate(hosts)}
    src = df["src_host"].map(idx).to_numpy(dtype=np.int64)
    dst = df["dst_host"].map(idx).to_numpy(dtype=np.int64)
    wgt = df["n"].to_numpy(dtype=np.float64)
    n = len(hosts)
    outw = np.zeros(n)
    np.add.at(outw, src, wgt)
    rank = np.full(n, 1.0 / n)
    for _ in range(n_iters):
        dangling = rank[outw == 0].sum()
        contrib = np.zeros(n)
        np.add.at(contrib, dst, rank[src] * wgt / outw[src])
        rank = (1.0 - damping) / n + damping * (contrib + dangling / n)
    return _typed_table(_RANK_SCHEMA, host=hosts, rank=rank)


def pagerank(
    edges: ray.data.Dataset,
    damping: float = 0.85,
    n_iters: int = 10,
    num_partitions: int = 32,
    broadcast_max_edges: int = _PR_BROADCAST_MAX_EDGES,
) -> ray.data.Dataset:
    """Damped PageRank over weighted (src_host, dst_host, n) edges;
    returns (host, rank) with sum(rank) == 1 to float precision.

    Two tiers: a HOST graph is usually bounded (hosts, not pages), so
    edge sets within `broadcast_max_edges` run one driver-side numpy
    power iteration; above the cap, fixed `n_iters` BSP rounds — each
    round co-shuffles the rank table (left: it holds every host, so a
    dangling host still hands on its rank) with the edges on the
    source, reduces contributions on the destination, and co-shuffles
    the rank table with those in-sums; node and rank tables are
    host-cardinality and edges are never collected."""
    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(_typed_table(_RANK_SCHEMA))
    if n_edges <= broadcast_max_edges:
        df = edges.to_pandas()
        if "src_host" not in df.columns:
            return ray.data.from_arrow(_typed_table(_RANK_SCHEMA))
        return ray.data.from_arrow(_pagerank_local(df, damping, n_iters))

    def norm(t: pa.Table) -> pa.Table:
        return _typed_table(
            _EDGE_SCHEMA,
            src_host=t.column("src_host").cast(pa.large_string()),
            dst_host=t.column("dst_host").cast(pa.large_string()),
            n=t.column("n").cast(pa.int64()),
        )

    edges = edges.map_batches(norm, batch_format="pyarrow").materialize()

    from pdf_extractor_ray.ops.relational import grouped_sum

    # rank state: every host once, with its outweight w (sum of its
    # edge weights; 0 for a dangling host) from one grouped_sum
    def host_weights(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": np.concatenate(
                    [
                        t.column("src_host").to_numpy(zero_copy_only=False),
                        t.column("dst_host").to_numpy(zero_copy_only=False),
                    ]
                ),
                "w": np.r_[t.column("n").to_numpy(), np.zeros(t.num_rows, dtype=np.int64)],
            }
        )

    nodes = grouped_sum(
        edges.map_batches(host_weights, batch_format="pyarrow"), ["host"], ["w"], counts=False
    ).materialize()
    n_nodes = nodes.count()
    ranks = nodes.map_batches(
        lambda t: _typed_table(
            _PR_STATE_SCHEMA,
            host=t.column("host").cast(pa.large_string()),
            w=t.column("sum_w").to_numpy().astype(np.float64),
            rank=np.full(t.num_rows, 1.0 / n_nodes),
        ),
        batch_format="pyarrow",
    ).materialize()

    def contribs(rk: pd.DataFrame, eg: pd.DataFrame) -> pd.DataFrame:
        # each source splits its rank along its edges; a dangling host
        # hands all of it to the pool spread uniformly next round
        by_host = rk.set_index("host")
        src = eg["src_host"]
        contrib = src.map(by_host["rank"]) * eg["n"] / src.map(by_host["w"])
        dang = rk[rk["w"] == 0]
        return pd.concat(
            [
                pd.DataFrame({"dst": eg["dst_host"], "contrib": contrib, "dangling": 0.0}),
                pd.DataFrame({"dst": dang["host"], "contrib": 0.0, "dangling": dang["rank"]}),
            ]
        )

    for _ in range(n_iters):
        # ranks (every host, left) meet their out-edges on the source
        msgs = co_shuffle(
            ranks, edges, column_hash("host"), column_hash("src_host"), num_partitions, contribs,
            _PR_MSG_SCHEMA,
        ).materialize()
        dangling_mass = float(msgs.sum("dangling") or 0.0)
        base = (1.0 - damping) / n_nodes + damping * dangling_mass / n_nodes

        # reduce contributions on dst, then rebuild the full rank table
        # with ONE host-keyed co-shuffle of the nodes (left) with the
        # in-sums — a web-scale host set is ~10^8 rows, so it never
        # touches the driver; hosts with no in-links get the teleport
        # share
        def apply_rank(nd: pd.DataFrame, ins: pd.DataFrame, base=base) -> pd.DataFrame:
            insum = pd.Series(ins["sum_contrib"].to_numpy(), index=ins["dst"]) if len(ins) else {}
            return nd.assign(rank=base + damping * nd["host"].map(insum).fillna(0.0))

        ranks = co_shuffle(
            ranks, grouped_sum(msgs, ["dst"], ["contrib"], counts=False),
            column_hash("host"), column_hash("dst"), num_partitions, apply_rank, _PR_STATE_SCHEMA,
        ).materialize()

    return ranks.select_columns(["host", "rank"])


_PR_CACHE: dict = {}  # per-worker resolved broadcast degree maps
_ORIENTED_SCHEMA = pa.schema([("head", pa.large_string()), ("tail", pa.large_string())])
_WEDGE_SCHEMA = pa.schema([("a", pa.large_string()), ("b", pa.large_string())])
_TRIANGLES_SCHEMA = pa.schema([("t", pa.int64())])


def triangle_count(
    edges: ray.data.Dataset,
    src_col: str = "src_host",
    dst_col: str = "dst_host",
    num_partitions: int = 32,
    broadcast_max_nodes: int = 1_000_000,
) -> int:
    """Exact triangle count of the UNDIRECTED simple graph underlying
    an edge list — the clustering-structure number link-graph audits
    report next to degree and PageRank. Classic degree-oriented
    wedge-check algorithm (the MapReduce-era standard): orient every
    edge from its lower-(degree, id) endpoint to the higher, so each
    node's out-neighborhood is O(sqrt(m)) even at hubs; each node
    emits its out-neighbor PAIRS (wedges) keyed like edges; one
    co_shuffle of wedges with the edges on hash(pair) counts the
    closures in-partition. Every exchange is wedge/edge
    width; the count returns as a driver int.

    Self-loops are dropped; parallel/reverse duplicates collapse to
    one undirected edge."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    def undirect(b: pd.DataFrame) -> pd.DataFrame:
        a = b[src_col].astype(str).to_numpy()
        c = b[dst_col].astype(str).to_numpy()
        keep = a != c
        a, c = a[keep], c[keep]
        lo = np.minimum(a, c)
        hi = np.maximum(a, c)
        return pd.DataFrame({"u": lo, "v": hi}).drop_duplicates()

    und = grouped_sum(
        edges.map_batches(undirect, batch_format="pandas"), ["u", "v"], []
    ).select_columns(["u", "v"]).materialize()  # distinct undirected edges

    # degrees for the orientation (ties by node id)
    def touch(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node": np.concatenate([b["u"].to_numpy(), b["v"].to_numpy()]),
                "one": np.ones(2 * len(b), dtype="int64"),
            }
        )

    deg_ds = grouped_sum(
        und.map_batches(touch, batch_format="pandas"), ["node"], ["one"], counts=False
    ).materialize()  # one row per node — the graph's node table

    def orient(u, v, du, dv) -> pd.DataFrame:
        # orient lower (degree, id) -> higher so out-neighborhoods
        # stay O(sqrt(m)) even at hubs
        u, v = np.asarray(u), np.asarray(v)
        fwd = (du < dv) | ((du == dv) & (u < v))
        return pd.DataFrame({"head": np.where(fwd, u, v), "tail": np.where(fwd, v, u)})

    if deg_ds.count() <= broadcast_max_nodes:
        # broadcast tier: the node-degree map ships once
        deg = deg_ds.to_pandas()
        dmap = dict(zip(deg["node"], deg["sum_one"].astype("int64")))
        dref = ray.put(dmap)

        def orient_batch(b: pd.DataFrame) -> pd.DataFrame:
            m = _PR_CACHE.get(("deg", dref.hex()))
            if m is None:
                m = _PR_CACHE[("deg", dref.hex())] = ray.get(dref)
            du = np.array([m[x] for x in b["u"]], dtype="int64")
            dv = np.array([m[x] for x in b["v"]], dtype="int64")
            return orient(b["u"], b["v"], du, dv)

        oriented = und.map_batches(orient_batch, batch_format="pandas")
    else:
        # co-shuffle tier (web-scale host universe): edges (left) meet
        # the node table on u, then on v — no node-width driver collect
        def degree(nodes: pd.Series, d: pd.DataFrame) -> np.ndarray:
            return nodes.map(pd.Series(d["sum_one"].to_numpy(), index=d["node"])).to_numpy(dtype="int64")

        with_du = co_shuffle(
            und, deg_ds, column_hash("u"), column_hash("node"), num_partitions,
            lambda e, d: e.assign(_du=degree(e["u"], d)), None,
        )
        oriented = co_shuffle(
            with_du, deg_ds, column_hash("v"), column_hash("node"), num_partitions,
            lambda e, d: orient(e["u"], e["v"], e["_du"].to_numpy(), degree(e["v"], d)),
            _ORIENTED_SCHEMA,
        )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        # each head's COMPLETE out-neighborhood is partition-local here
        wa, wb = [], []
        for _, grp in g.groupby("head", sort=False):
            ts = sorted(grp["tail"])
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    wa.append(ts[i])
                    wb.append(ts[j])
        return pd.DataFrame({"a": wa, "b": wb})

    def close(w: pd.DataFrame, e: pd.DataFrame) -> pd.DataFrame:
        have = set(zip(e["u"], e["v"])) if len(e) else set()
        return pd.DataFrame({"t": [sum((a, b) in have for a, b in zip(w["a"], w["b"]))]})

    wedge_rows = hash_partition(oriented, column_hash("head"), num_partitions, wedges, _WEDGE_SCHEMA)
    # wedges (left) meet the edges that would close them on the pair
    parts = co_shuffle(
        wedge_rows, und, column_hash("a", "b"), column_hash("u", "v"), num_partitions, close,
        _TRIANGLES_SCHEMA,
    )
    return int(parts.sum("t") or 0)


_ANCHOR_RE = re.compile(
    r"""<a\s[^>]*?href\s*=\s*["']([^"'<>]+)["'][^>]*>(.*?)</a>""",
    re.IGNORECASE | re.DOTALL,
)
_TAG_RE = re.compile(r"<[^>]*>")

_ANCHOR_SCHEMA = pa.schema(
    [
        ("url", pa.large_string()),
        ("href", pa.large_string()),
        ("anchor", pa.large_string()),
    ]
)


def anchor_texts(
    ds: ray.data.Dataset, html_col: str = "html", url_col: str = "url"
) -> ray.data.Dataset:
    """(url, href, anchor) per <a> element WITH its inner text —
    anchor text is the web's free labeling signal (it describes the
    TARGET page; search and quality pipelines aggregate it per
    destination). Inner markup is stripped and whitespace collapsed;
    empty anchors (image links) are kept as '' so link counts still
    reconcile with page_links. Same stage shape: charset-sniffed,
    compiled regex, per-batch flat explode, no shuffle."""
    from pdf_extractor_ray.functions.html_extract import sniff_decode

    def f(batch: pd.DataFrame) -> pa.Table:
        urls: list[str] = []
        hrefs: list[str] = []
        anchors: list[str] = []
        for url, payload in zip(batch[url_col], batch[html_col]):
            raw = bytes(payload)
            if b"<" not in raw[:256]:
                continue
            text, _enc = sniff_decode(raw)
            for m in _ANCHOR_RE.finditer(text):
                urls.append(str(url))
                hrefs.append(m.group(1))
                anchors.append(" ".join(_TAG_RE.sub(" ", m.group(2)).split()))
        return _typed_table(_ANCHOR_SCHEMA, url=urls, href=hrefs, anchor=anchors)

    return ds.map_batches(f, batch_format="pandas")


def target_anchor_terms(
    links: ray.data.Dataset, k: int = 5, num_partitions: int = 32
) -> ray.data.Dataset:
    """Top-k incoming anchor TERMS per destination host — what the
    rest of the web calls each host (the aggregate quality/label
    signal). Only absolute http(s) links contribute (relative links
    describe the same site navigating itself). Shape: per-batch
    (dst_host, term, partial n) counts enter one grouped_sum; the
    top-k finish is the pre-pruned topk_per_group shuffle. Emits
    (dst_host, term, n_term) rows."""
    from pdf_extractor_ray.ops.relational import grouped_sum
    from pdf_extractor_ray.ops.windows import topk_per_group

    def term_rows(b: pd.DataFrame) -> pd.DataFrame:
        # lowercase first: extract(pattern) drops IGNORECASE, and a
        # mixed-case host must not split the dst_host aggregation key
        dst = b["href"].astype(str).str.lower().str.extract(_HOST_RE.pattern, expand=False)
        ok = dst.notna() & (b["anchor"].astype(str) != "")
        d = pd.DataFrame({"dst_host": dst[ok], "anchor": b.loc[ok, "anchor"].astype(str)})
        if d.empty:
            return pd.DataFrame(
                {"dst_host": pd.Series(dtype="object"), "term": pd.Series(dtype="object"),
                 "n": pd.Series(dtype="int64")}
            )
        toks = d.set_index("dst_host")["anchor"].str.lower().str.split().explode().dropna()
        vc = toks.groupby([toks.index, toks.values]).size()
        out = vc.reset_index()
        out.columns = ["dst_host", "term", "n"]
        out["n"] = out["n"].astype("int64")
        return out

    counts = grouped_sum(
        links.map_batches(term_rows, batch_format="pandas"),
        ["dst_host", "term"],
        ["n"],
        counts=False,
    )

    def rename(b: pd.DataFrame) -> pd.DataFrame:
        return b.rename(columns={"sum_n": "n_term"})

    named = counts.map_batches(rename, batch_format="pandas")
    return topk_per_group(
        named, key="dst_host", val="n_term", k=k, tiebreak="term",
        num_partitions=num_partitions,
    )


_HITS_SCHEMA = pa.schema(
    [("host", pa.large_string()), ("hub", pa.float64()), ("authority", pa.float64())]
)


def _hits_local(df: pd.DataFrame, n_iters: int) -> pa.Table:
    """Driver-side Kleinberg HITS power iteration for BOUNDED edge
    sets — L2-normalized after each half-step, same formulation as the
    streamed tier (tests force both and assert equality)."""
    hosts = np.unique(np.concatenate([df["src_host"].to_numpy(), df["dst_host"].to_numpy()]))
    idx = {h: i for i, h in enumerate(hosts)}
    src = df["src_host"].map(idx).to_numpy(dtype=np.int64)
    dst = df["dst_host"].map(idx).to_numpy(dtype=np.int64)
    wgt = df["n"].to_numpy(dtype=np.float64)
    n = len(hosts)
    hub = np.ones(n)
    auth = np.zeros(n)
    for _ in range(n_iters):
        auth = np.zeros(n)
        np.add.at(auth, dst, hub[src] * wgt)
        nrm = np.linalg.norm(auth)
        auth = auth / nrm if nrm > 0 else auth
        hub = np.zeros(n)
        np.add.at(hub, src, auth[dst] * wgt)
        nrm = np.linalg.norm(hub)
        hub = hub / nrm if nrm > 0 else hub
    return _typed_table(_HITS_SCHEMA, host=hosts, hub=hub, authority=auth)


def hits(
    edges: ray.data.Dataset,
    n_iters: int = 20,
    num_partitions: int = 32,
    broadcast_max_edges: int = _PR_BROADCAST_MAX_EDGES,
) -> ray.data.Dataset:
    """Kleinberg HITS hubs/authorities (Kleinberg 1999) over weighted
    (src_host, dst_host, n) edges: the directional complement of
    pagerank — link HUBS (directories, aggregators) vs link
    AUTHORITIES (heavily referenced content hosts), both useful crawl
    prioritization signals.

    Tiers: below `broadcast_max_edges` one driver-side numpy power
    iteration (host graphs are bounded). Above it, the STREAMED tier:
    the score vector is host-cardinality (same boundedness assumption
    pagerank's tiers document) and broadcasts via ray.put each
    half-step, while the EDGES — the unbounded side — are only ever
    streamed through map_batches producing (host, val) partials that
    grouped_sum reduces to host-cardinality; edges are never
    collected. 2*n_iters slim exchanges total; the L2 normalizer is
    one scalar per half-step from the reduced table."""
    from pdf_extractor_ray.ops.relational import grouped_sum

    edges = edges.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return ray.data.from_arrow(_typed_table(_HITS_SCHEMA))
    if n_edges <= broadcast_max_edges:
        df = edges.to_pandas()
        if "src_host" not in df.columns:
            return ray.data.from_arrow(_typed_table(_HITS_SCHEMA))
        return ray.data.from_arrow(_hits_local(df, n_iters))

    # ---- streamed tier ----
    def nodes_of(t: pa.Table) -> pa.Table:
        hs = np.unique(
            np.concatenate(
                [
                    t.column("src_host").to_numpy(zero_copy_only=False),
                    t.column("dst_host").to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"host": pa.array(hs, pa.large_string())})

    hosts = (
        edges.map_batches(nodes_of, batch_format="pyarrow")
        .groupby("host")
        .count()
        .select_columns(["host"])
        .to_pandas()["host"]
        .to_numpy()
    )
    hosts = np.sort(hosts)
    hub = {h: 1.0 for h in hosts}
    auth: dict = {}

    def half_step(scores: dict, from_col: str, to_col: str) -> dict:
        sref = ray.put(scores)

        def contrib(b: pd.DataFrame) -> pd.DataFrame:
            s = ray.get(sref)
            vals = b[from_col].map(s).fillna(0.0).to_numpy() * b["n"].to_numpy(dtype=np.float64)
            out = pd.DataFrame({"host": b[to_col].to_numpy(), "val": vals})
            return out.groupby("host", as_index=False, sort=True)["val"].sum()

        red = grouped_sum(
            edges.map_batches(contrib, batch_format="pandas"), ["host"], ["val"], counts=False
        ).to_pandas()
        nrm = float(np.linalg.norm(red["sum_val"].to_numpy()))
        if nrm == 0:
            return {}
        return dict(zip(red["host"], red["sum_val"].to_numpy() / nrm))

    for _ in range(n_iters):
        auth = half_step(hub, "src_host", "dst_host")
        hub = half_step(auth, "dst_host", "src_host")
    return ray.data.from_arrow(
        _typed_table(
            _HITS_SCHEMA,
            host=hosts,
            hub=np.array([hub.get(h, 0.0) for h in hosts]),
            authority=np.array([auth.get(h, 0.0) for h in hosts]),
        )
    )
