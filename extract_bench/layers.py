"""Traced per-layer run (`run.py --trace 1`).

Runs the program's own `Extractor.__call__` with a span around each
layer function it calls: name, process_time start and end, parent span
and doc id. The spans come from wrappers put on the module attributes
the extractor looks up (`stages.extractor.sniff_decode` and
`extract_html`, `html_extract.segment_html`,
`pdf_words.pdf_payload_to_pages` and `extract_pdf_pages`, the
`textstats` scoring functions) for the traced calls only, and from a
wrapper on the traced instance's `extract_one`, which opens one doc
span per row. Spans stay in memory and are dumped to
`.bench_work/trace-<workload>-s<seed>.json` at the end.

- Ray legs (wall time): the workload rows read as Parquet and as WARC
  with no UDF, and an identity `map_batches` at the run's batch size
  over the workload's own ingest; the batch overhead is the identity
  leg minus the read-only leg, per batch the identity UDF was called on.
- In-process legs (CPU time): the workload batches through a traced
  and an untraced `Extractor`, the leg that goes first alternating
  batch by batch. Then the manifest writer and the resume read.

Payload kinds or PDF encoding families a workload lacks are traced on
one probe doc each from the same seed's corpus, so every per-kind
metric is measured on every workload; probe docs never enter the
workload-level metrics (extractor.*, trace.*).
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import time
import uuid

import pyarrow as pa

from harness import CFG, Checker, ray_start, ray_stop
from workloads import PDF_FAMILIES, WORK, Inputs, payload_kind, pdf_family, reset_out_dir

from pdf_extractor_ray.functions import html_extract, pdf_words, textstats
from pdf_extractor_ray.pipelines.extract import read_pages, run_extraction
from pdf_extractor_ray.sources.warc import read_warc_pages
from pdf_extractor_ray.stages import extractor as extractor_mod
from pdf_extractor_ray.stages.extractor import Extractor
from pdf_extractor_ray.state.manifest import MANIFEST_DIR, PartitionWriter, completed_urls

PER_LAYER = {  # name -> unit
    "pipelines.read_pages.ms_per_doc": "ms",
    "sources.warc.read_warc_pages.ms_per_doc": "ms",
    "ray_data.batch_overhead_ms": "ms",
    "ray_data.batches": "count",
    "html_extract.sniff_decode.cpu_ms_per_doc": "ms",
    "html_extract.segment_html.cpu_ms_per_doc": "ms",
    "html_extract.classify_render.cpu_ms_per_doc": "ms",
    "html_extract.blocks_kept_ratio": "ratio",
    "pdf_codec.parse_pdf_bytes.cpu_ms_per_doc": "ms",
    **{f"pdf_codec.parse_pdf_bytes.cpu_ms_per_doc.{f}": "ms" for f in PDF_FAMILIES},
    "pdf_codec.pages_per_doc": "count",
    "pdf_codec.words_per_page": "count",
    "pdf_words.extract_pdf_pages.cpu_ms_per_doc": "ms",
    "pdf_words.extract_pdf_pages.cpu_ms_per_page": "ms",
    "textstats.score.cpu_ms_per_doc.html": "ms",
    "textstats.score.cpu_ms_per_doc.pdf": "ms",
    "extractor.call.cpu_ms_per_doc": "ms",
    "extractor.self.cpu_ms_per_doc": "ms",
    "extractor.row_convert.cpu_ms_per_doc": "ms",
    "extractor.doc_ms_p50.html": "ms",
    "extractor.doc_ms_p50.pdf": "ms",
    "extractor.doc_ms_p99.html": "ms",
    "extractor.doc_ms_p99.pdf": "ms",
    "extractor.error_rows": "count",
    "manifest.partition_writer.cpu_ms_per_partition": "ms",
    "manifest.sidecar_bytes_per_partition": "bytes",
    "manifest.completed_urls.ms": "ms",
    "manifest.urls_skipped": "count",
    "trace.overhead_frac": "frac",
    "trace.accounted_frac": "frac",
}

DOC = "extractor.doc"


def _note_pages(info: dict, pages) -> None:
    if pages is not None:
        info["pages"] = len(pages)
        info["words"] = sum(len(p.get("words", [])) for p in pages)


def _note_segmented(info: dict, blocks) -> None:
    info["segmented"] = len(blocks)


def _note_kept(info: dict, out) -> None:
    info["kept"] = out[1]


# (module, attribute, span name, name of the span it must sit directly
# in, note taken from the result). A call from anywhere else (a layer
# calling another) runs unwrapped inside its caller's span.
PATCHES = [
    (extractor_mod, "sniff_decode", "html_extract.sniff_decode", DOC, None),
    (extractor_mod, "extract_html", "html_extract.extract_html", DOC, _note_kept),
    (html_extract, "segment_html", "html_extract.segment_html", "html_extract.extract_html", _note_segmented),
    (pdf_words, "pdf_payload_to_pages", "pdf_codec.parse_pdf_bytes", DOC, _note_pages),
    (pdf_words, "extract_pdf_pages", "pdf_words.extract_pdf_pages", DOC, None),
    *[
        (textstats, f, "textstats.score", DOC, None)
        for f in (
            "quality_dimensions_nw",
            "quality_score_from_dims",
            "grade",
            "hallucination_flags",
            "repetition_ratio",
            "quality_confidence",
        )
    ],
]

# spans directly in a doc span: the child layers of `extractor.call`
CHILD_LAYERS = (
    "html_extract.sniff_decode",
    "html_extract.extract_html",
    "pdf_codec.parse_pdf_bytes",
    "pdf_words.extract_pdf_pages",
    "textstats.score",
)


class Tracer:
    """In-memory spans: [name, start, end, parent index, doc id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.docs: dict[int, dict] = {}  # doc id -> kind, family, counts
        self.next_doc = 0
        self._stack: list[int] = []
        self._patches = [
            (mod, attr, self._wrap(getattr(mod, attr), name, parent, note))
            for mod, attr, name, parent, note in PATCHES
        ]

    def open(self, name: str, doc: int = -1) -> int:
        i = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, doc])
        self._stack.append(i)
        self.spans[i][1] = time.process_time()
        return i

    def close(self, i: int) -> None:
        self.spans[i][2] = time.process_time()
        assert self._stack.pop() == i, "spans closed out of order"

    def _top(self) -> list | None:
        return self.spans[self._stack[-1]] if self._stack else None

    def _wrap(self, fn, name: str, parent: str, note):
        def traced(*args, **kwargs):
            top = self._top()
            if top is None or top[0] != parent:
                return fn(*args, **kwargs)
            doc = top[4]
            i = self.open(name, doc)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if note:
                note(self.docs[doc], out)
            return out

        return traced

    def instrument(self, ex: Extractor) -> Extractor:
        """Open a doc span each time `ex.extract_one` starts a row; the
        doc span runs until the next row starts or the call ends."""
        extract_one = ex.extract_one

        def traced_extract_one(payload: bytes, cfg=None, url: str = "") -> dict:
            if cfg is None:  # a remediation retry stays in its row's doc
                top = self._top()
                if top is not None and top[0] == DOC:
                    self.close(self._stack[-1])
                self.open(DOC, self.next_doc)
                self.next_doc += 1
            return extract_one(payload, cfg, url=url)

        ex.extract_one = traced_extract_one
        return ex

    @contextlib.contextmanager
    def _patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._patches]
        for mod, attr, fn in self._patches:
            setattr(mod, attr, fn)
        try:
            yield
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def call(self, ex: Extractor, batch: pa.Table) -> pa.Table:
        """`ex(batch)` with the layer functions wrapped, in an
        `extractor.call` span. The last doc span ends where its last
        child ends, so the column building after the loop stays outside
        every doc."""
        for j, payload in enumerate(batch.column("html").to_pylist()):
            kind = payload_kind(payload)
            self.docs[self.next_doc + j] = {"kind": kind, "family": pdf_family(payload) if kind == "pdf" else kind}
        with self._patched():
            c = self.open("extractor.call")
            try:
                return ex(batch)
            finally:
                if self._top()[0] == DOC:
                    d = self._stack[-1]
                    self.close(d)
                    ends = [s[2] for s in self.spans[d + 1 :] if s[3] == d]
                    self.spans[d][2] = max([self.spans[d][1], *ends])
                self.close(c)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "doc"], "spans": self.spans}, f)


def _pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(round(q / 100.0 * len(s) + 0.5)) - 1))]


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def _cpu(spans: list[list], name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def _kind_metrics(spans: list[list], docs: dict[int, dict]) -> dict:
    """Per-kind and per-family layer metrics over the docs traced."""
    by_doc: dict[tuple[str, int], float] = {}
    for s in spans:
        if s[4] >= 0:
            by_doc[(s[0], s[4])] = by_doc.get((s[0], s[4]), 0.0) + s[2] - s[1]
    for d in docs:  # the extract_html span minus the segment_html span in it
        if ("html_extract.extract_html", d) in by_doc:
            by_doc[("html_extract.classify_render", d)] = (
                by_doc[("html_extract.extract_html", d)] - by_doc.get(("html_extract.segment_html", d), 0.0)
            )

    def ms_per_doc(name: str, kind: str | None = None, family: str | None = None) -> float:
        cpu = [
            by_doc[(name, d)] for d, i in docs.items()
            if (name, d) in by_doc and kind in (None, i["kind"]) and family in (None, i["family"])
        ]
        return 1000.0 * _per(sum(cpu), len(cpu))

    m = {f"html_extract.{n}.cpu_ms_per_doc": ms_per_doc(f"html_extract.{n}")
         for n in ("sniff_decode", "segment_html", "classify_render")}
    html = [i for i in docs.values() if "segmented" in i]
    m["html_extract.blocks_kept_ratio"] = _per(sum(i["kept"] for i in html), sum(i["segmented"] for i in html))
    m["pdf_codec.parse_pdf_bytes.cpu_ms_per_doc"] = ms_per_doc("pdf_codec.parse_pdf_bytes")
    for fam in PDF_FAMILIES:
        m[f"pdf_codec.parse_pdf_bytes.cpu_ms_per_doc.{fam}"] = ms_per_doc("pdf_codec.parse_pdf_bytes", family=fam)
    parsed = [i for i in docs.values() if "pages" in i]
    n_pages = sum(i["pages"] for i in parsed)
    m["pdf_codec.pages_per_doc"] = _per(n_pages, len(parsed))
    m["pdf_codec.words_per_page"] = _per(sum(i["words"] for i in parsed), n_pages)
    m["pdf_words.extract_pdf_pages.cpu_ms_per_doc"] = ms_per_doc("pdf_words.extract_pdf_pages")
    m["pdf_words.extract_pdf_pages.cpu_ms_per_page"] = 1000.0 * _per(_cpu(spans, "pdf_words.extract_pdf_pages"), n_pages)
    for kind in ("html", "pdf"):
        m[f"textstats.score.cpu_ms_per_doc.{kind}"] = ms_per_doc("textstats.score", kind=kind)
        doc_ms = [1000.0 * by_doc[(DOC, d)] for d, i in docs.items() if i["kind"] == kind]
        m[f"extractor.doc_ms_p50.{kind}"] = _pct(doc_ms, 50)
        m[f"extractor.doc_ms_p99.{kind}"] = _pct(doc_ms, 99)
    return m


def _in_process_pass(
    tr: Tracer, tx: Extractor, ex: Extractor, batches: list[pa.Table], probes: pa.Table, order: int
) -> tuple[dict, list[pa.Table]]:
    """One pass over the workload batches, traced and untraced with the
    leg that goes first alternating, then over the probe docs (traced
    only). Returns (metrics, untraced outputs)."""
    first, doc0 = len(tr.spans), tr.next_doc
    traced_cpu = untraced_cpu = 0.0
    outs = []
    for bi, b in enumerate(batches):
        for leg in ("traced", "untraced") if (bi + order) % 2 == 0 else ("untraced", "traced"):
            c0 = time.process_time()
            if leg == "traced":
                tr.call(tx, b)
                traced_cpu += time.process_time() - c0
            else:
                outs.append(ex(b))
                untraced_cpu += time.process_time() - c0
    ws = tr.spans[first:]  # workload spans; probe spans follow
    n = tr.next_doc - doc0
    if probes.num_rows:
        tr.call(tx, probes)
    child_cpu = sum(s[2] - s[1] for s in ws if s[0] in CHILD_LAYERS and tr.spans[s[3]][0] == DOC)
    call_cpu = _cpu(ws, "extractor.call")
    m = {
        "extractor.call.cpu_ms_per_doc": 1000.0 * untraced_cpu / n,
        # self and row conversion from the traced leg alone, so host
        # noise between the two legs cannot push them below zero
        "extractor.self.cpu_ms_per_doc": 1000.0 * (call_cpu - child_cpu) / n,
        "extractor.row_convert.cpu_ms_per_doc": 1000.0 * (call_cpu - _cpu(ws, DOC)) / n,
        "trace.overhead_frac": traced_cpu / untraced_cpu - 1.0,
        "trace.accounted_frac": child_cpu / untraced_cpu,
        "extractor.error_rows": sum(t.num_rows - t["error"].null_count for t in outs),
    }
    # probes only stand in for kinds and families the workload lacks
    m.update(_kind_metrics(tr.spans[first:], {d: tr.docs[d] for d in range(doc0, tr.next_doc)}))
    return m, outs


def _manifest_pass(tr: Tracer, outs: list[pa.Table], inp: Inputs) -> dict:
    out_dir = os.path.join(WORK, "out", "trace-writer")
    shutil.rmtree(out_dir, ignore_errors=True)
    writer = PartitionWriter(out_dir)
    cpu = 0.0
    for t in outs:
        i = tr.open("manifest.partition_writer")
        try:
            writer(t)
        finally:
            tr.close(i)
        cpu += tr.spans[i][2] - tr.spans[i][1]
    mdir = os.path.join(out_dir, MANIFEST_DIR)
    sidecars = [os.path.join(mdir, n) for n in os.listdir(mdir) if n.endswith(".json")]
    # the resume read a rep starts with: the snapshot for the resume
    # workload, an empty output dir otherwise
    resume_dir = inp.snapshot_dir() if inp.resume else os.path.join(WORK, "out", "trace-empty")
    t0 = time.perf_counter()
    done = completed_urls(resume_dir)
    ms = 1000.0 * (time.perf_counter() - t0)
    return {
        "manifest.partition_writer.cpu_ms_per_partition": 1000.0 * cpu / len(outs),
        "manifest.sidecar_bytes_per_partition": sum(os.path.getsize(p) for p in sidecars) / len(sidecars),
        "manifest.completed_urls.ms": ms,
        "manifest.urls_skipped": len(done),
    }


def _drain(ds) -> tuple[int, set]:
    """(rows, distinct `_batch` tags) read from `ds`."""
    rows, tags = 0, set()
    for b in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        rows += b.num_rows
        if "_batch" in b.column_names:
            tags.update(b["_batch"].unique().to_pylist())
    return rows, tags


def _tag_batch(t: pa.Table) -> pa.Table:
    """The identity UDF, plus one token per call so the batches it saw
    can be counted (Ray may merge a task's output batches into one block)."""
    return t.append_column("_batch", pa.array([uuid.uuid4().hex] * t.num_rows, pa.string()))


def traced(inp: Inputs, seconds: float) -> tuple[dict, dict, int, int, list[str]]:
    checker = Checker(inp)
    problems = list(checker.problems)
    rows = inp.table("rows")
    if inp.resume:
        done = inp.done_urls
        rows = rows.filter(pa.array([u not in done for u in rows["url"].to_pylist()]))
    step = CFG.rows_per_output_file
    batches = [rows.slice(i, step) for i in range(0, rows.num_rows, step)]
    probes = inp.table("probes")
    tr = Tracer()
    tx = tr.instrument(Extractor(CFG))
    ex = Extractor(CFG)
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    errors: dict[str, int] = {}

    def dataset(fmt: str):
        return read_pages(inp.pages_dir) if fmt == "parquet" else read_warc_pages(inp.warc_shards())

    ray_start()
    try:
        # one untimed pipeline run for the output check
        out_dir = os.path.join(WORK, "out", "trace-run")
        reset_out_dir(inp, out_dir)
        stats = run_extraction(inp.source(), out_dir, CFG)
        bad, _, _, run_problems = checker.check(out_dir, stats)
        problems += run_problems
        attempted, failed = stats["rows_written"], bad
        own = inp.fmt
        deadline = time.perf_counter() + seconds
        it = 0
        while it < 2 or time.perf_counter() < deadline:
            legs = {}
            for fmt, name in (("parquet", "pipelines.read_pages"), ("warc", "sources.warc.read_warc_pages")):
                t0 = time.perf_counter()
                n, _ = _drain(dataset(fmt))
                legs[fmt] = time.perf_counter() - t0
                samples.setdefault(f"{name}.ms_per_doc", []).append(1000.0 * legs[fmt] / n)
            t0 = time.perf_counter()
            _, tags = _drain(dataset(own).map_batches(_tag_batch, batch_size=step, batch_format="pyarrow"))
            ident, n_batches = time.perf_counter() - t0, len(tags)
            samples.setdefault("ray_data.batches", []).append(n_batches)
            samples.setdefault("ray_data.batch_overhead_ms", []).append(1000.0 * (ident - legs[own]) / n_batches)
            m, outs = _in_process_pass(tr, tx, ex, batches, probes, it)
            if it == 0:
                for t in outs:
                    for e in t["error"].drop_null().to_pylist():
                        errors[e.split(":")[0]] = errors.get(e.split(":")[0], 0) + 1
            attempted += rows.num_rows
            m.update(_manifest_pass(tr, outs, inp))
            for k, v in m.items():
                samples.setdefault(k, []).append(v)
            it += 1
    finally:
        ray_stop()
    os.makedirs(WORK, exist_ok=True)
    tr.dump(os.path.join(WORK, f"trace-{inp.name}-s{inp.seed}.json"))
    metrics = {name: statistics.median(samples[name]) for name in PER_LAYER}
    print(f"# error rows by class: {errors}")
    print(
        f"# child layers account for {metrics['trace.accounted_frac']:.4f} of extractor.call; "
        f"trace overhead {metrics['trace.overhead_frac']:+.4f}; {it} passes"
    )
    return metrics, PER_LAYER, attempted, failed, problems
