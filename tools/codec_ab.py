"""Same-process alternating A/B of ``parse_pdf_bytes`` between two
checkouts, per PDF encoding family, on a benchmark workload's inputs.

    python tools/codec_ab.py --base /path/to/parent/checkout \
        --workload pdf_parquet --seeds 1,2,5,7 --alternations 10 [--json out.json]

``functions/pdf_codec.py`` of the base checkout (A) and of this one (B)
load side by side in one process. Each alternation parses every genuine
PDF of the workload's rows once with each codec, doc by doc, the codec
that goes first on a doc flipping every alternation (so drift in the
host's speed hits both sides alike), and records the CPU time
(``process_time``) per doc and family. Before timing, every doc is
parsed by both and the page dicts (or error messages) compared by
``repr``; a mismatch is reported and fails the run. The inputs come
from ``extract_bench/workloads.prepare`` of this checkout.

``--form`` rewrites every decoded stream before either codec reads it
(once per distinct stream, cached, so the timed loop pays only a dict
lookup): ``tj`` turns each ``string Tj`` into ``[string] TJ``, and
``td-tj`` also turns each translation-only ``Tm`` into the equivalent
``Td`` (streams that already use Td/TD/T* keep their Tm). Both are forms
the word-block lane never takes. The result also reports the share of
show operators (Tj, TJ, ', ") that B's word-block lane took.
"""

from __future__ import annotations

import argparse
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


def load_codec(checkout: str, name: str):
    spec = importlib.util.spec_from_file_location(name, os.path.join(checkout, CODEC))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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


def outcome(codec, payload: bytes) -> str:
    try:
        return repr(codec.parse_pdf_bytes(payload))
    except Exception as exc:  # the error row's message is part of the contract
        return f"{type(exc).__name__}: {exc}"


def run_seed(a, b, workload: str, seed: int, alternations: int) -> dict:
    from workloads import pdf_family, prepare

    rows = prepare(workload, seed).table("rows")
    docs = [
        (pdf_family(p), p)
        for p in rows["html"].to_pylist()
        if p.startswith(b"%PDF-") and pdf_family(p) != "fixture_json"
    ]
    mismatches = [i for i, (_, p) in enumerate(docs) if outcome(a, p) != outcome(b, p)]
    taken, shows = lane_share(b, [p for _, p in docs])
    n_docs = defaultdict(int)
    for fam, _ in docs:
        n_docs[fam] += 1
    runs = []
    for k in range(alternations):
        ms = {"A": defaultdict(float), "B": defaultdict(float)}
        order = (("A", a), ("B", b)) if k % 2 == 0 else (("B", b), ("A", a))
        for fam, p in docs:
            for tag, codec in order:
                t0 = time.process_time()
                try:
                    codec.parse_pdf_bytes(p)
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
    summary = {}
    for fam in [*sorted(n_docs), "all"]:
        ra = [r["A"][fam] for r in runs]
        rb = [r["B"][fam] for r in runs]
        qa = statistics.quantiles(ra, n=4) if len(ra) > 1 else [ra[0]] * 3
        summary[fam] = {
            "docs": n_docs[fam] if fam != "all" else len(docs),
            "A_median_ms": round(statistics.median(ra), 3),
            "B_median_ms": round(statistics.median(rb), 3),
            "B_over_A": round(statistics.median(rb) / statistics.median(ra), 3),
            "A_iqr_ms": round(qa[2] - qa[0], 3),
            "B_faster_in": f"{sum(y < x for x, y in zip(ra, rb))}/{len(runs)}",
        }
    return {
        "mismatches": len(mismatches),
        "lane_shows": {"taken": taken, "all": shows},
        "summary": summary,
        "alternations": runs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="checkout whose codec is A")
    ap.add_argument("--workload", default="pdf_parquet")
    ap.add_argument("--seeds", default="1")
    ap.add_argument("--alternations", type=int, default=10)
    ap.add_argument("--form", choices=["as-written", *FORMS], default="as-written")
    ap.add_argument("--json", help="write the full result here")
    args = ap.parse_args()
    a = load_codec(args.base, "pdf_codec_a")
    b = load_codec(ROOT, "pdf_codec_b")
    if args.form != "as-written":
        rewrite_streams(a, args.form)
        rewrite_streams(b, args.form)
    result = {}
    for seed in (int(s) for s in args.seeds.split(",")):
        res = run_seed(a, b, args.workload, seed, args.alternations)
        result[f"{args.workload}/{args.form}/s{seed}"] = res
        lane = res["lane_shows"]
        print(
            f"{args.workload} ({args.form}) seed {seed}: {res['mismatches']} mismatching docs;"
            f" B's lane took {lane['taken']} of {lane['all']} show operators"
        )
        for fam, s in res["summary"].items():
            print(
                f"  {fam:10s} n={s['docs']:3d}  A {s['A_median_ms']:7.3f}  B {s['B_median_ms']:7.3f}"
                f" ms/doc  B/A {s['B_over_A']:.3f}  A IQR {s['A_iqr_ms']:.3f}"
                f"  B faster in {s['B_faster_in']}"
            )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(result, f, indent=1)
    return 1 if any(r["mismatches"] for r in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
