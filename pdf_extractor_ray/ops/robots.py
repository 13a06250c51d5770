"""robots.txt (RFC 9309) evaluation over the page corpus — the
/robots.txt half of crawl compliance (ops/structured.robots_gate is
the html-meta half; its docstring used to declare this half out of
scope, but a (host, robots_txt) table joined against page urls is
exactly a table-in/table-out operator).

Semantics implemented per RFC 9309 (public spec):

- line grammar `field: value`, '#' comments, unknown fields ignored;
- GROUPS: one or more consecutive User-agent lines bind the rules
  that follow; the evaluating crawler uses the group whose agent
  token is the longest case-insensitive prefix of its own product
  token, falling back to the '*' group; rules before any User-agent
  line are ignored;
- RULE MATCH: path rules support '*' (any span) and a final '$'
  (end anchor); among matching rules the LONGEST (by rule length)
  wins; allow wins length ties; no matching rule (or no robots.txt
  for the host) means allowed; an empty-value Disallow allows all.

Two execution tiers (robots tables are host-cardinality — usually
bounded — but a 100-TB crawl can carry 10^8 hosts):

- broadcast (auto below `max_broadcast_hosts`): the parsed per-host
  rule lists ship once via ray.put; evaluation is a shuffle-free
  map_batches over the url stream;
- co-shuffle: both sides exchange on hash(host) mod P (the
  windows.py two-sided pattern) and each partition evaluates its
  hosts' urls in one pass — no side ever materializes.

The SQL-oracled fixture uses single-group, wildcard-free robots
files (longest-match + allow-tie + default-allow are reproduced by a
DuckDB window query); group selection, '*' and '$' semantics are
pinned by unit tests.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from pdf_extractor_ray.ops.shuffle import _typed_table, co_shuffle

_LINE_RE = re.compile(r"^\s*([A-Za-z-]+)\s*:\s*(.*?)\s*$")
_HOST_RE = re.compile(r"^https?://([^/]+)", re.IGNORECASE)
_PATH_RE = re.compile(r"^https?://[^/]+(/.*)?$", re.IGNORECASE)

ALLOW_SCHEMA = pa.schema(
    [
        ("url", pa.large_string()),
        ("host", pa.large_string()),
        ("allowed", pa.int8()),
        ("matched_rule", pa.large_string()),  # None when no rule matched
    ]
)


def parse_robots(text: str, agent: str = "*") -> list[tuple[str, str]]:
    """The (type, rule) list applying to `agent`: groups are formed per
    RFC 9309 §2.2.1 — the rules of ALL groups matching the most
    specific User-agent token are COMBINED ('*' groups combine as the
    fallback), and non-group lines (Crawl-delay, Sitemap, unknown
    fields) are transparent: they neither end a User-agent run nor
    split a group. type is 'allow' or 'disallow'; empty Disallow
    values are dropped (they mean allow-all)."""
    groups: list[tuple[list[str], list[tuple[str, str]]]] = []
    cur_agents: list[str] = []
    cur_rules: list[tuple[str, str]] = []
    in_agent_run = False
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        m = _LINE_RE.match(line)
        if not m:
            continue
        field, value = m.group(1).lower(), m.group(2)
        if field == "user-agent":
            if not in_agent_run and cur_agents:
                groups.append((cur_agents, cur_rules))
                cur_agents, cur_rules = [], []
            cur_agents.append(value.lower())
            in_agent_run = True
        elif field in ("allow", "disallow"):
            in_agent_run = False
            if not cur_agents:
                continue  # rules before any User-agent line are ignored
            if value:
                cur_rules.append((field, value))
        # any other field (crawl-delay / sitemap / unknown) is a
        # non-group line: ignored entirely, group state unchanged
    if cur_agents:
        groups.append((cur_agents, cur_rules))

    agent = agent.lower()
    best_len = -1
    for agents, _ in groups:
        for a in agents:
            if a != "*" and agent.startswith(a) and len(a) > best_len:
                best_len = len(a)
    out: list[tuple[str, str]] = []
    if best_len >= 0:  # combine every group carrying a best-length match
        for agents, rules in groups:
            if any(a != "*" and agent.startswith(a) and len(a) == best_len for a in agents):
                out.extend(rules)
        return out
    for agents, rules in groups:  # fallback: combine all '*' groups
        if "*" in agents:
            out.extend(rules)
    return out


def rule_matches(rule: str, path: str) -> bool:
    """RFC 9309 path match: literal prefix with '*' spans and an
    optional final '$' end anchor."""
    anchored = rule.endswith("$")
    if anchored:
        rule = rule[:-1]
    parts = [re.escape(p) for p in rule.split("*")]
    pat = ".*".join(parts)
    pat = "^" + pat + ("$" if anchored else "")
    return re.match(pat, path) is not None


def evaluate(rules: list[tuple[str, str]], path: str) -> tuple[bool, str | None]:
    """(allowed, matched_rule): longest matching rule wins, allow wins
    ties (same length), deterministic final tie-break on the rule
    string; no match means allowed."""
    best: tuple[int, int, str, str] | None = None  # (-len, typ!=allow, rule, typ)
    for typ, rule in rules:
        if rule_matches(rule, path):
            key = (-len(rule), 0 if typ == "allow" else 1, rule, typ)
            if best is None or key < best:
                best = key
    if best is None:
        return True, None
    return best[3] == "allow", best[2]


def _host_path(urls: pd.Series) -> tuple[pd.Series, pd.Series]:
    host = urls.str.extract(_HOST_RE.pattern, flags=re.IGNORECASE, expand=False).str.lower()
    path = urls.str.extract(_PATH_RE.pattern, flags=re.IGNORECASE, expand=False).fillna("/")
    path = path.where(path != "", "/")
    return host, path


def robots_allow(
    robots: ray.data.Dataset,
    urls: ray.data.Dataset,
    agent: str = "*",
    host_col: str = "host",
    txt_col: str = "robots_txt",
    url_col: str = "url",
    tier: str = "auto",
    max_broadcast_hosts: int = 100_000,
    num_partitions: int = 16,
) -> ray.data.Dataset:
    """(url, host, allowed, matched_rule) per url row. Hosts with no
    robots row are allowed with matched_rule NULL."""
    robots = robots.materialize()
    if tier == "auto":
        tier = "broadcast" if robots.count() <= max_broadcast_hosts else "coshuffle"

    def eval_frame(u: pd.Series, rules_of) -> pa.Table:
        host, path = _host_path(u)
        allowed: list[int] = []
        matched: list = []
        for h, p in zip(host, path):
            rules = rules_of(h)
            if rules is None:
                allowed.append(1)
                matched.append(None)
                continue
            ok, rule = evaluate(rules, p)
            allowed.append(int(ok))
            matched.append(rule)
        return _typed_table(
            ALLOW_SCHEMA,
            url=u.astype(str).tolist(),
            host=host.tolist(),
            allowed=np.asarray(allowed, dtype=np.int8),
            matched_rule=matched,
        )

    def parse_hosts(rdf: pd.DataFrame) -> dict:
        return {h: parse_robots(t, agent) for h, t in zip(rdf[host_col].str.lower(), rdf[txt_col])}

    if tier == "broadcast":
        pref = ray.put(parse_hosts(robots.to_pandas()))

        def score(b: pd.DataFrame) -> pa.Table:
            rmap = ray.get(pref)
            return eval_frame(b[url_col], rmap.get)

        return urls.map_batches(score, batch_format="pandas")

    if tier != "coshuffle":
        raise ValueError(f"unknown tier: {tier}")

    # urls co-shuffle with robots rows on hash(host) mod P; each
    # partition parses its hosts' robots once and evaluates its urls in
    # one pass
    def merge(u: pd.DataFrame, r: pd.DataFrame) -> pa.Table:
        return eval_frame(u[url_col], (parse_hosts(r) if len(r) else {}).get)

    return co_shuffle(
        urls,
        robots,
        lambda t: pd.util.hash_array(_host_path(t.column(url_col).to_pandas())[0].to_numpy(dtype=object)),
        lambda t: pd.util.hash_array(t.column(host_col).to_pandas().str.lower().to_numpy(dtype=object)),
        num_partitions,
        merge,
        ALLOW_SCHEMA,
    )
