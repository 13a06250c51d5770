"""Same-process alternating A/B of a PDF or HTML layer between two
checkouts, per PDF encoding family, on a benchmark workload's inputs.

    python tools/codec_ab.py --base /path/to/parent/checkout \
        --workload pdf_parquet --seeds 1,2,5,7 --alternations 10 \
        [--layer parse|chain|pdf|segment|score] [--json out.json]

``functions/pdf_codec.py`` of the base checkout (A) and of this one (B)
load side by side in one process. Each alternation parses every genuine
PDF of the workload's rows once with each codec, doc by doc, the codec
that goes first on a doc flipping every alternation (so drift in the
host's speed hits both sides alike), and records the CPU time
(``process_time``) per doc and family. Before timing, every doc is
parsed by both and the pages (or error messages) compared by
``repr``, words as dicts (``dict_pages``) whichever form a codec
emits; a mismatch is reported and fails the run. The inputs come
from ``extract_bench/workloads.prepare`` of this checkout.

``--form`` rewrites every decoded stream before either codec reads it
(once per distinct stream, cached, so the timed loop pays only a dict
lookup): ``tj`` turns each ``string Tj`` into ``[string] TJ``, and
``td-tj`` also turns each translation-only ``Tm`` into the equivalent
``Td`` (streams that already use Td/TD/T* keep their Tm). Both are forms
the word-block lane never takes. The result also reports the share of
show operators (Tj, TJ, ', ") that B's word-block lane took.

``--layer chain`` times the word-geometry chain (``extract_pdf_pages``)
instead of the parse, the same way. Each genuine PDF is parsed once by
each side's own codec, so each side gets the page form its codec
emits (``WordColumns`` here, word dicts in a checkout from before the
column contract), as a deep copy per call made outside the timed
region. Each side runs its whole ``pdf_extractor_ray`` package, so its
own ``layout.py`` and ``config.py`` too: both packages are imported
side by side and ``sys.modules`` points at the timed side's modules
while it runs. The parity check compares the two results (or error
messages) by ``repr``, so dict key order and the sign of a zero count.

``--layer pdf`` times parse plus chain (``extract_pdf_bytes``) per
genuine PDF, the contract between the two being internal to each
side, with the same package handling and the same ``repr`` parity of
the results.

``--layer segment`` times the HTML segmenter (``segment_html`` of
``functions/html_extract.py``) of both checkouts, loaded side by side,
over every HTML doc of the workload's rows, each sniff-decoded once
(``sniff_decode`` of this checkout) outside the timed region. The
parity check compares the block tuples (kind, text, link_chars,
total_chars, boiler) by ``repr``.

``--layer score`` times the row scoring: each side's ``Extractor._row``
on every HTML and PDF doc of the workload, with that side's own
``extract_one`` result for the doc computed once outside the timed
region, so the time is ``_row``'s scoring (quality dimensions, grade,
hallucination flags, repetition ratio, confidence) and row assembly.
Both packages load side by side as for ``--layer chain``. The parity
check compares the rows (every ``Extractor`` column but url, warc_ts
and lang) by ``repr``; a doc on which one side raises and the other
does not counts as a mismatch, one on which both raise is left out.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import importlib.util
import json
import os
import re
import statistics
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "extract_bench"))

CODEC = os.path.join("pdf_extractor_ray", "functions", "pdf_codec.py")
HTML_EXTRACT = os.path.join("pdf_extractor_ray", "functions", "html_extract.py")
PKG = "pdf_extractor_ray"


def load_module(checkout: str, name: str, path: str = CODEC):
    spec = importlib.util.spec_from_file_location(name, os.path.join(checkout, path))
    mod = sys.modules[name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(mod)
    return mod


def _pkg_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == PKG or k.startswith(PKG + ".")}


def load_package(checkout: str) -> dict:
    """Import ``checkout``'s whole package without disturbing the one
    already imported; returns its ``sys.modules`` entries."""
    saved = _pkg_modules()
    for k in saved:
        del sys.modules[k]
    sys.path.insert(0, checkout)
    try:
        for name in ("pdf_words", "layout", "pdf_codec", "aes_cipher"):
            importlib.import_module(f"{PKG}.functions.{name}")
        importlib.import_module(f"{PKG}.stages.extractor")
        mods = _pkg_modules()
    finally:
        sys.path.remove(checkout)
        for k in _pkg_modules():
            del sys.modules[k]
        sys.modules.update(saved)
    return mods


class Package:
    """One checkout's package (codec, chain, extractor), run with its own
    modules installed in ``sys.modules`` (function-level imports resolve there)."""

    def __init__(self, checkout: str) -> None:
        self.mods = load_package(checkout)
        pw = self.mods[f"{PKG}.functions.pdf_words"]
        self.extract, self.extract_bytes, self.pats = pw.extract_pdf_pages, pw.extract_pdf_bytes, pw.Patterns()
        self.parse = self.mods[f"{PKG}.functions.pdf_codec"].parse_pdf_bytes

    def activate(self) -> None:
        sys.modules.update(self.mods)


_SHOW_TJ = re.compile(rb"(<[0-9A-Fa-f\s]*>|\((?:[^()\\]|\\.)*\))(\s*)Tj(?![A-Za-z'\"*])", re.S)
_LINE_OPS = re.compile(rb"(?<![A-Za-z])(?:Td|TD|T\*)(?![A-Za-z'\"*])")
_BT_OR_TM = re.compile(
    rb"(?<![A-Za-z])BT(?![A-Za-z])|" + rb"(-?(?:\d+\.?\d*|\.\d+))\s+" * 6 + rb"Tm(?![A-Za-z])"
)


def as_tj(data: bytes) -> bytes:
    return _SHOW_TJ.sub(rb"[\1]\2TJ", data)


def as_td_tj(data: bytes) -> bytes:
    if _LINE_OPS.search(data):
        return as_tj(data)
    prev = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def td(m: re.Match) -> bytes:
        nonlocal prev
        if m.group(1) is None:  # BT resets the line matrix
            prev = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
            return m.group()
        a, b, c, d, e, f = cur = tuple(float(v) for v in m.groups())
        p, prev = prev, cur
        if cur[:4] != p[:4] or b or c or not a or not d:
            return m.group()
        return b"%.6f %.6f Td" % ((e - p[4]) / a, (f - p[5]) / d)

    return as_tj(_BT_OR_TM.sub(td, data))


FORMS = {"tj": as_tj, "td-tj": as_td_tj}


def rewrite_streams(codec, form: str) -> None:
    """Make ``codec`` read every decoded stream in ``form``."""
    decode, rewrite, cache = codec._decode_stream, FORMS[form], {}

    def decode_rewritten(body: bytes) -> bytes | None:
        data = decode(body)
        if data is None:
            return None
        out = cache.get(data)
        if out is None:
            out = cache[data] = rewrite(data)
        return out

    codec._decode_stream = decode_rewritten


def lane_share(codec, payloads: list[bytes]) -> tuple[int, int]:
    """(show operators taken by ``codec``'s word-block lane, all show
    operators) over one parse of every payload."""
    block_re, parse = codec._WORD_BLOCK_RE, codec._parse_content
    taken = shows = 0

    class CountingBlockRe:
        def match(self, content: bytes, pos: int):
            nonlocal taken
            m = block_re.match(content, pos)
            taken += m is not None
            return m

    def counting_parse(content: bytes, *args):
        nonlocal shows
        for t in codec._TOKEN_RE.finditer(codec._preclean_content(content)):
            shows += t[t.re.groups] in (b"Tj", b"TJ", b"'", b'"')
        return parse(content, *args)

    codec._WORD_BLOCK_RE, codec._parse_content = CountingBlockRe(), counting_parse
    try:
        for p in payloads:
            outcome(codec, p)
    finally:
        codec._WORD_BLOCK_RE, codec._parse_content = block_re, parse
    return taken, shows


_WORD_KEYS = ("text", "x0", "x1", "top", "bottom", "size", "fontname")


def dict_pages(pages: list[dict]) -> list[dict]:
    """``pages`` with ``WordColumns`` words as the word dicts codecs
    emitted before the column contract (``upright`` only on rotated
    words, as False)."""
    out = []
    for p in pages:
        c = p["words"]
        if not isinstance(c, list):
            ws = [dict(zip(_WORD_KEYS, row)) for row in zip(*(getattr(c, k) for k in _WORD_KEYS))]
            for w, up in zip(ws, c.upright or ()):
                if up is False:
                    w["upright"] = False
            p = {**p, "words": ws}
        out.append(p)
    return out


def outcome(codec, payload: bytes) -> str:
    try:
        return repr(dict_pages(codec.parse_pdf_bytes(payload)))
    except Exception as exc:  # the error row's message is part of the contract
        return f"{type(exc).__name__}: {exc}"


def run_seed(a, b, workload: str, seed: int, alternations: int) -> dict:
    docs = genuine_pdfs(workload, seed)
    mismatches = [i for i, (_, p) in enumerate(docs) if outcome(a, p) != outcome(b, p)]
    taken, shows = lane_share(b, [p for _, p in docs])
    runs, n_docs = alternate((("A", a.parse_pdf_bytes, None), ("B", b.parse_pdf_bytes, None)), docs, alternations)
    return {
        "mismatches": len(mismatches),
        "lane_shows": {"taken": taken, "all": shows},
        "summary": summarize(runs, n_docs),
        "alternations": runs,
    }


def alternate(sides, docs: list, alternations: int, prepare=None) -> tuple[list, dict]:
    """Time ``fn(arg)`` of both sides on every (family, arg) doc, doc by
    doc, the side that goes first flipping every alternation. ``sides``
    is ((tag, fn, before), ...); ``before`` runs untimed ahead of each
    call, as does ``prepare(arg)``, whose result is what ``fn`` gets."""
    n_docs = defaultdict(int)
    for fam, _ in docs:
        n_docs[fam] += 1
    runs = []
    for k in range(alternations):
        ms = {"A": defaultdict(float), "B": defaultdict(float)}
        order = sides if k % 2 == 0 else sides[::-1]
        for fam, arg in docs:
            for tag, fn, before in order:
                x = prepare(arg) if prepare else arg
                if before:
                    before()
                t0 = time.process_time()
                try:
                    fn(x)
                except Exception:
                    pass
                ms[tag][fam] += (time.process_time() - t0) * 1000.0
        runs.append(
            {
                "first": order[0][0],
                **{
                    tag: {f: round(v / n_docs[f], 3) for f, v in sorted(ms[tag].items())}
                    | {"all": round(sum(ms[tag].values()) / len(docs), 3)}
                    for tag in ("A", "B")
                },
            }
        )
    return runs, n_docs


def summarize(runs: list, n_docs: dict) -> dict:
    summary = {}
    for fam in [*sorted(n_docs), "all"]:
        ra = [r["A"][fam] for r in runs]
        rb = [r["B"][fam] for r in runs]
        qa = statistics.quantiles(ra, n=4) if len(ra) > 1 else [ra[0]] * 3
        summary[fam] = {
            "docs": n_docs[fam] if fam != "all" else sum(n_docs.values()),
            "A_median_ms": round(statistics.median(ra), 3),
            "B_median_ms": round(statistics.median(rb), 3),
            "B_over_A": round(statistics.median(rb) / statistics.median(ra), 3),
            "A_iqr_ms": round(qa[2] - qa[0], 3),
            "B_faster_in": f"{sum(y < x for x, y in zip(ra, rb))}/{len(runs)}",
        }
    return summary


def genuine_pdfs(workload: str, seed: int) -> list[tuple[str, bytes]]:
    from workloads import pdf_family, prepare

    rows = prepare(workload, seed).table("rows")
    return [
        (pdf_family(p), p)
        for p in rows["html"].to_pylist()
        if p.startswith(b"%PDF-") and pdf_family(p) != "fixture_json"
    ]


def side_outcome(side: Package, fn, arg) -> str:
    side.activate()
    try:
        return repr(fn(copy.deepcopy(arg), side.pats))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def run_chain_seed(a: Package, b: Package, workload: str, seed: int, alternations: int, layer: str) -> dict:
    """A/B of ``extract_pdf_pages`` (layer "chain": each side on its own
    codec's pages) or ``extract_pdf_bytes`` (layer "pdf") over every
    genuine PDF of the workload that both codecs read."""
    docs = []
    home = _pkg_modules()  # what workloads.prepare imports from
    try:
        for fam, p in genuine_pdfs(workload, seed):
            if layer == "pdf":
                docs.append((fam, (p, p)))
                continue
            try:
                a.activate()
                pages_a = a.parse(p)
                b.activate()
                docs.append((fam, (pages_a, b.parse(p))))
            except Exception:
                continue  # an error row: the chain never sees it
        fa, fb = (a.extract, b.extract) if layer == "chain" else (a.extract_bytes, b.extract_bytes)
        mismatches = [i for i, (_, (x, y)) in enumerate(docs) if side_outcome(a, fa, x) != side_outcome(b, fb, y)]
        sides = (("A", lambda x: fa(x[0], a.pats), a.activate), ("B", lambda x: fb(x[1], b.pats), b.activate))
        runs, n_docs = alternate(sides, docs, alternations, prepare=copy.deepcopy if layer == "chain" else None)
    finally:
        sys.modules.update(home)
    return {"mismatches": len(mismatches), "summary": summarize(runs, n_docs), "alternations": runs}


def html_docs(workload: str, seed: int) -> list[tuple[str, str]]:
    from workloads import payload_kind, prepare

    from pdf_extractor_ray.functions.html_extract import sniff_decode

    rows = prepare(workload, seed).table("rows")
    return [("html", sniff_decode(p)[0]) for p in rows["html"].to_pylist() if payload_kind(p) == "html"]


def segment_outcome(mod, text: str) -> str:
    try:
        return repr([(b.kind, b.text, b.link_chars, b.total_chars, b.boiler) for b in mod.segment_html(text)])
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def run_segment_seed(a, b, workload: str, seed: int, alternations: int) -> dict:
    """A/B of ``segment_html`` over every HTML doc of the workload."""
    docs = html_docs(workload, seed)
    if not docs:  # e.g. pdf_parquet
        return {"docs": 0, "mismatches": 0, "summary": {}, "alternations": []}
    mismatches = [i for i, (_, t) in enumerate(docs) if segment_outcome(a, t) != segment_outcome(b, t)]
    runs, n_docs = alternate((("A", a.segment_html, None), ("B", b.segment_html, None)), docs, alternations)
    return {"docs": len(docs), "mismatches": len(mismatches), "summary": summarize(runs, n_docs), "alternations": runs}


def run_score_seed(a: Package, b: Package, workload: str, seed: int, alternations: int) -> dict:
    """A/B of ``Extractor._row`` over every HTML and PDF doc of the
    workload that both sides extract, each side's extraction memoized."""
    from workloads import payload_kind, prepare

    rows = prepare(workload, seed).table("rows")
    home = _pkg_modules()  # what workloads.prepare imports from
    try:
        extractors = {}
        for tag, side in (("A", a), ("B", b)):
            side.activate()
            ex = side.mods[f"{PKG}.stages.extractor"].Extractor()
            memo, extract = {}, ex.extract_one

            def cached(payload, cfg=None, url="", memo=memo, extract=extract):
                if (payload, cfg) not in memo:
                    memo[payload, cfg] = extract(payload, cfg, url)
                return memo[payload, cfg]

            ex.extract_one = cached
            extractors[tag] = (ex, side)
        docs, mismatches = [], 0
        for url, p in zip(rows["url"].to_pylist(), rows["html"].to_pylist()):
            if payload_kind(p) not in ("html", "pdf"):
                continue
            out = []
            for ex, side in extractors.values():
                side.activate()
                try:
                    out.append(repr(ex._row(p, url)))
                except Exception as exc:
                    out.append(exc)
            raised = [isinstance(o, Exception) for o in out]
            if raised == [True, True]:
                continue  # an error row on both sides: nothing is scored
            if any(raised):
                mismatches += 1  # one side raises: a mismatch, and nothing to time
                continue
            docs.append((payload_kind(p), (p, url)))
            mismatches += out[0] != out[1]
        sides = [(tag, lambda x, ex=ex: ex._row(*x), side.activate) for tag, (ex, side) in extractors.items()]
        runs, n_docs = alternate(sides, docs, alternations)
    finally:
        sys.modules.update(home)
    return {"docs": len(docs), "mismatches": mismatches, "summary": summarize(runs, n_docs), "alternations": runs}


def print_summary(summary: dict) -> None:
    for fam, s in summary.items():
        print(
            f"  {fam:10s} n={s['docs']:3d}  A {s['A_median_ms']:7.3f}  B {s['B_median_ms']:7.3f}"
            f" ms/doc  B/A {s['B_over_A']:.3f}  A IQR {s['A_iqr_ms']:.3f}"
            f"  B faster in {s['B_faster_in']}"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout whose code is A")
    ap.add_argument("--workload", default="pdf_parquet")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--alternations", type=int, default=10)
    ap.add_argument("--layer", choices=["parse", "chain", "pdf", "segment", "score"], default="parse")
    ap.add_argument("--form", choices=["as-written", *FORMS], default="as-written")
    ap.add_argument("--json", help="write the full result here")
    args = ap.parse_args()
    if args.layer != "parse" and args.form != "as-written":
        ap.error("--form rewrites streams for the parse layer only")
    if args.layer == "segment":
        a = load_module(args.base, "html_extract_a", HTML_EXTRACT)
        b = load_module(ROOT, "html_extract_b", HTML_EXTRACT)
    elif args.layer in ("chain", "pdf", "score"):
        pkg_a, pkg_b = Package(args.base), Package(ROOT)
    else:
        b = load_module(ROOT, "pdf_codec_b")
        a = load_module(args.base, "pdf_codec_a")
        if args.form != "as-written":
            rewrite_streams(a, args.form)
            rewrite_streams(b, args.form)
    result = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        if args.layer in ("chain", "pdf"):
            res = run_chain_seed(pkg_a, pkg_b, args.workload, seed, args.alternations, args.layer)
            result[f"{args.workload}/{args.layer}/s{seed}"] = res
            fn = "extract_pdf_pages" if args.layer == "chain" else "extract_pdf_bytes"
            print(f"{args.workload} ({fn}) seed {seed}: {res['mismatches']} mismatching docs")
        elif args.layer == "score":
            res = run_score_seed(pkg_a, pkg_b, args.workload, seed, args.alternations)
            result[f"{args.workload}/score/s{seed}"] = res
            print(f"{args.workload} (Extractor._row) seed {seed}: {res['mismatches']} of {res['docs']} rows mismatching")
        elif args.layer == "segment":
            res = run_segment_seed(a, b, args.workload, seed, args.alternations)
            result[f"{args.workload}/segment/s{seed}"] = res
            print(f"{args.workload} (segment_html) seed {seed}: {res['mismatches']} of {res['docs']} docs mismatching")
        else:
            res = run_seed(a, b, args.workload, seed, args.alternations)
            result[f"{args.workload}/{args.form}/s{seed}"] = res
            lane = res["lane_shows"]
            print(
                f"{args.workload} ({args.form}) seed {seed}: {res['mismatches']} mismatching docs;"
                f" B's lane took {lane['taken']} of {lane['all']} show operators"
            )
        print_summary(res["summary"])
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
    return 1 if any(r["mismatches"] for r in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
