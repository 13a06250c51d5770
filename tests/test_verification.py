"""Tests for the self-verification operators: element inventory /
coverage (A2/A3), anti-hallucination scan, repetition ratio (D6),
encoding fixer (M18), and multi-engine consensus (A9)."""

import pandas as pd
import pytest


def test_hallucination_flags():
    from pdf_extractor_ray.functions.textstats import hallucination_flags

    assert hallucination_flags("plain extracted text, no artifacts") == []
    assert "markdown_fence" in hallucination_flags("text\n```python\ncode\n```")
    assert "html_tag" in hallucination_flags("leaked <div class='x'>markup</div>")
    assert "ai_phrase" in hallucination_flags("As an AI, I cannot do that")
    assert "markdown_heading" in hallucination_flags("# Title\nbody")


def _hallucination_flags_ungated(text):
    # the function before its literal gates: the regex alone decides
    from pdf_extractor_ray.functions.textstats import _HALLU_ANY, _HALLU_PATTERNS

    if _HALLU_ANY.search(text) is None:
        return []
    return [name for name, pat in _HALLU_PATTERNS if pat.search(text)]


# characters re.IGNORECASE folds onto phrase letters (U+017F ~ s,
# U+0130/U+0131 ~ i) next to the pattern literals and line breaks
_HALLU_ALPHABET = "\u017f\u0130\u0131\u212a`#*[]()<>/ ,\n\r\u2028\x0bsSiIaAnNcC"
_HALLU_TOKENS = [
    "as an ai", "AS AN AI", "a\u017f an ai", "As an A\u0130", "\u0131 cannot", "I CANNOT",
    "here is a summary", "here \u0130s a summary", "in summary,", "In Summary,",
    "in \u017fummary,", "div", "SPAN", "h1", "h7", "ul", "li", "table", "p", "a", "```",
    "**", "](", "x", "1", "\n", "\t", " ", "#", "<", ">", "/", "[", "]", "(", ")", "*", "`",
]


def test_hallucination_flags_gate_matches_regex_hypothesis():
    """The literal gates never change the answer: differential against
    the ungated function over texts built from the pattern literals,
    the phrases (case variants and case-fold traps) and line breaks."""
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    from pdf_extractor_ray.functions.textstats import hallucination_flags

    texts = st.one_of(
        st.text(alphabet=_HALLU_ALPHABET, max_size=40),
        st.lists(st.sampled_from(_HALLU_TOKENS), max_size=12).map("".join),
        st.lists(
            st.one_of(st.sampled_from(_HALLU_TOKENS), st.text(alphabet=_HALLU_ALPHABET, max_size=4)),
            max_size=10,
        ).map(" ".join),
    )

    @settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(texts)
    def check(text):
        assert hallucination_flags(text) == _hallucination_flags_ungated(text)

    check()
    for text in ("AS AN A\u0131", "as an a\u0130", "\u0130 cannot go", "in \u017fummary, x", "x\n## y",
                 "see [a](b) x", "**b** x", "x ```y"):
        assert hallucination_flags(text) == _hallucination_flags_ungated(text) != [], text
    # a rendered table's markers hold no gate literal
    assert hallucination_flags("[TABLE: 1x2]\n| a [b] |  |\n[TABLE END]") == []


def test_quality_dimensions_readability():
    """Readability is 100 for text with a sentence end and a 2-12 char
    mean word, 50 for other text with words, 0 for none."""
    from pdf_extractor_ray.functions.textstats import quality_dimensions_nw

    assert quality_dimensions_nw("Plain words end here.")[0]["readability"] == 100.0
    assert quality_dimensions_nw("Plain words without an end")[0]["readability"] == 50.0
    assert quality_dimensions_nw("Ja 日本語のテキスト。")[0]["readability"] == 100.0
    assert quality_dimensions_nw("x y z.")[0]["readability"] == 50.0  # mean word under 2
    assert quality_dimensions_nw("") == ({"completeness": 0.0, "structure": 0.0, "accuracy": 100.0,
                                          "footnotes": 100.0, "readability": 0.0}, 0)


def test_repetition_ratio():
    from pdf_extractor_ray.functions.textstats import repetition_ratio

    assert repetition_ratio("short") == 1.0
    repeated = ("x" * 100) * 10
    assert repetition_ratio(repeated) < 0.5
    varied = "".join(chr(97 + (i * 7) % 26) * 1 for i in range(1000))
    assert repetition_ratio(varied) > 0.5


def test_fix_encoding():
    from pdf_extractor_ray.functions.textstats import fix_encoding

    assert fix_encoding("a\x00b") == "ab"
    assert fix_encoding("a����b") == "a�b"
    assert fix_encoding(r"caf\xe9") == "café"


def test_element_inventory_and_coverage():
    from pdf_extractor_ray.functions.pdf_words import coverage_report, extract_pdf_pages

    pages = [
        {
            "width": 600.0,
            "height": 800.0,
            "words": [
                {"text": "Header", "top": 10.0, "size": 9.0},     # top region, small
                {"text": "Body", "top": 400.0, "size": 12.0},     # middle, normal
                {"text": "Title", "top": 200.0, "size": 20.0},    # middle, large
                {"text": "Footer", "top": 790.0, "size": 5.0},    # bottom, tiny
            ],
            "tables": [],
        }
    ]
    inv = extract_pdf_pages(pages)["inventory"]
    assert inv == {"top_small": 1, "middle_normal": 1, "middle_large": 1, "bottom_tiny": 1}

    pct, status = coverage_report(pages, "Body Title Header Footer")
    assert pct == 100.0 and status == "GOOD"
    pct, status = coverage_report(pages, "Body Title Header")
    assert pct == 75.0 and status == "WARNING"
    pct, status = coverage_report(pages, "Body")
    assert status == "POOR"
    pct, status = coverage_report([{"words": []}], "")
    assert pct == 100.0 and status == "GOOD"


def test_extractor_emits_verification_columns(ray_session):
    import ray.data

    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.pipelines.extract import extraction_dataset
    from pdf_extractor_ray.fixtures.generator import write_corpus
    import os, tempfile

    out_dir = os.path.join(tempfile.gettempdir(), "pdfx_verif_fixture")
    pages = os.path.join(out_dir, "pages.parquet")
    if not os.path.exists(pages):
        write_corpus(out_dir, 40)
    cfg = DEFAULT_CONFIG.with_overrides(concurrency=2)
    df = extraction_dataset(pages, cfg).to_pandas()
    assert {"coverage_pct", "coverage_status", "n_hallu_flags", "repetition_ratio"} <= set(df.columns)
    ok = df[df["error"].isna()]
    assert (ok["coverage_pct"] >= 0).all() and (ok["coverage_pct"] <= 100).all()
    assert set(ok["coverage_status"]) <= {"GOOD", "WARNING", "POOR"}
    # extracted text must carry no generated-markup artifacts
    assert (ok["n_hallu_flags"] == 0).all()
    assert (ok["repetition_ratio"] > 0).all()


def test_verifier_actor_cache_and_issues(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.verifier import MockBackend, VerifierActor, verify_extractions

    issues, conf = MockBackend().verify("clean readable text here")
    assert issues == [] and conf == 1.0
    issues, _ = MockBackend().verify("damaged zzzzzzzzkqx text with ���� and aaaaaaaaaaaa")
    types = {i["type"] for i in issues}
    assert {"ocr_garble", "encoding_damage", "char_run"} <= types
    # positional issues arrive in positional order, deduped on overlap
    assert [i["pos"] for i in issues] == sorted(i["pos"] for i in issues)

    # in-actor cache: duplicate texts within one actor's stream hit it
    actor = VerifierActor()
    b = pd.DataFrame({"url": ["u1", "u2", "u3"], "extracted_text": ["same text", "same text", "other"]})
    out = actor(b)
    assert out["cache_hit"].tolist() == [False, True, False]
    assert actor.hits == 1 and actor.misses == 2

    # full stage over a Dataset
    ds = ray.data.from_pandas(
        pd.DataFrame({"url": ["a", "b"], "extracted_text": ["fine text", "broken �������"]})
    )
    res = verify_extractions(ds).to_pandas().sort_values("url")
    assert res["n_issues"].tolist() == [0, 1]
    assert res["verifier_confidence"].iloc[0] == 1.0


def test_consensus_extract(ray_session):
    import ray.data

    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.ops.consensus import consensus_extract
    from pdf_extractor_ray.fixtures.generator import write_corpus
    import os, tempfile

    out_dir = os.path.join(tempfile.gettempdir(), "pdfx_verif_fixture")
    pages = os.path.join(out_dir, "pages.parquet")
    if not os.path.exists(pages):
        write_corpus(out_dir, 40)
    ds = ray.data.read_parquet(pages, columns=["url", "warc_ts", "html", "lang"])
    out = consensus_extract(ds, DEFAULT_CONFIG).to_pandas()
    assert len(out) >= 40
    # the corpus plants poison docs (url contains "malformed"); they
    # must surface as error rows, never raise
    bad = out[out["error"].notna()]
    assert all("malformed" in u for u in bad["url"])
    ok = out[out["error"].isna()]
    assert (ok["consensus"] >= 0).all() and (ok["consensus"] <= 1).all()
    assert (ok["n_variants"] == 3).all()
    # variants only relax filters, so agreement should be high on the
    # clean synthetic corpus
    assert ok["consensus"].mean() > 0.5


def test_engine_plugin_registry():
    """Duck-typed engine registry (reference multi_engine_extractor.py
    §2.10): named construction, unknown-name error, custom plugin."""
    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.stages.engines import (
        DEFAULT_ENGINE_NAMES,
        ENGINE_REGISTRY,
        build_engines,
        register_engine,
    )

    engines = build_engines(cfg=DEFAULT_CONFIG)
    assert [e.name for e in engines] == list(DEFAULT_ENGINE_NAMES)

    import pytest as _pytest

    with _pytest.raises(KeyError):
        build_engines(("no-such-engine",))

    class UpperEngine:
        name = "upper"

        def extract_one(self, payload: bytes):
            return {"kind": "custom", "text": payload.decode().upper(), "n_blocks": 1, "n_pages": 0, "footnotes": []}

    register_engine("upper", lambda cfg: UpperEngine())
    try:
        es = build_engines(("geometry", "upper"), DEFAULT_CONFIG)
        assert es[1].extract_one(b"hi")["text"] == "HI"
    finally:
        ENGINE_REGISTRY.pop("upper", None)


def test_raw_text_engine_extracts_all_words():
    """The structure-free engine returns every fixture word in reading
    order — no filtering, an independent opinion for consensus."""
    import json

    from pdf_extractor_ray.functions.pdf_words import FIXTURE_MAGIC
    from pdf_extractor_ray.stages.engines import RawTextEngine

    page = {
        "width": 612.0,
        "height": 792.0,
        "words": [
            {"text": "world", "x0": 120.0, "x1": 150.0, "top": 100.0, "bottom": 110.0},
            {"text": "hello", "x0": 72.0, "x1": 110.0, "top": 100.0, "bottom": 110.0},
        ],
    }
    payload = FIXTURE_MAGIC + json.dumps({"pages": [page]}).encode()
    out = RawTextEngine().extract_one(payload)
    assert out["text"] == "hello world"
    assert out["kind"] == "pdf"


def test_strip_hallucinations_opt_in(ray_session):
    """Strip mode unwraps markdown/html artifacts and drops AI-phrase
    lines; the default config never applies it (byte-identity)."""
    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.functions.textstats import (
        hallucination_flags,
        strip_hallucinations,
    )

    dirty = (
        "# Heading\n"
        "normal text with **bold claim** and [a link](http://x) here\n"
        "```python\ncode fence\n"
        "<div>markup</div>\n"
        "In summary, this is an AI line\n"
        "last clean line"
    )
    clean, n = strip_hallucinations(dirty)
    assert n >= 5
    assert hallucination_flags(clean) == []
    assert "bold claim" in clean and "a link" in clean  # inner text kept
    assert "markup" in clean and "<div>" not in clean
    assert "In summary" not in clean and "last clean line" in clean
    assert DEFAULT_CONFIG.strip_hallucinations is False
    # opt-in through the extractor: artifacts in an HTML payload's text
    from pdf_extractor_ray.stages.extractor import Extractor

    cfg = DEFAULT_CONFIG.with_overrides(strip_hallucinations=True)
    html = b"<html><body><p>plain paragraph with **stars** inside and more words here</p></body></html>"
    r_on = Extractor(cfg).extract_one(html)
    import pyarrow as pa

    batch = pa.table({"url": ["u"], "html": [html], "lang": ["en"], "warc_ts": [0]})
    out_on = Extractor(cfg)(batch).column("extracted_text").to_pylist()[0]
    out_off = Extractor(DEFAULT_CONFIG)(batch).column("extracted_text").to_pylist()[0]
    assert "**stars**" in out_off and "**stars**" not in out_on and "stars" in out_on
    del r_on


def test_ngram_backend_separates_garble_from_language():
    """The statistical backend (character-bigram LM) flags gibberish
    windows in any corpus language's text without regex help, and
    passes clean multilingual prose."""
    from pdf_extractor_ray.ops.verifier import BACKENDS, NgramBackend

    b = NgramBackend()
    clean = {
        "en": "the quick brown fox jumps over the lazy dog and keeps going through the field",
        "de": "der schnelle braune fuchs springt über den faulen hund und verteilte systeme arbeiten",
        "fr": "le rapide renard brun saute par dessus le chien paresseux et les systèmes traitent",
    }
    for lang, text in clean.items():
        issues, conf = b.verify(text)
        assert issues == [] and conf == 1.0, (lang, issues)
    garble = "xq zk jw qx vb zx kq wj xz qv bz xk qw jz xv qb zk wx jq zv kx qz wb jx vq zx kw"
    issues, conf = b.verify(garble)
    assert len(issues) >= 1 and conf < 1.0
    assert all(i["type"] == "statistical_garble" for i in issues)
    # spans are positional and inside the text
    assert all(0 <= i["pos"] < i["end"] <= len(garble) for i in issues)
    # garble EMBEDDED in clean text is localized, not a whole-doc flag
    mixed = clean["en"] + " " + garble + " " + clean["en"]
    spans = b.verify(mixed)[0]
    assert spans and all(i["pos"] >= 40 for i in spans)
    # numeric / CJK windows are out of the model's domain -> never flagged
    assert b.verify("12345 67890 " * 10)[0] == []
    assert b.verify("日本語の文章は空白を含まない" * 8)[0] == []
    # registry exposes both real backends + the mock alias
    assert set(BACKENDS) == {"heuristic", "mock", "ngram"}


def test_verify_extractions_backend_param(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.verifier import verify_extractions

    rows = pd.DataFrame(
        {
            "url": ["a", "b"],
            "extracted_text": [
                "perfectly ordinary readable sentence about the weather today and tomorrow",
                "zx qv bk wj xq zk jw qx vb zx kq wj xz qv bz xk qw jz xv qb zk wx jq zv kx",
            ],
        }
    )
    out = (
        verify_extractions(ray.data.from_pandas(rows), backend="ngram", concurrency=2)
        .to_pandas()
        .sort_values("url")
        .reset_index(drop=True)
    )
    assert out.n_issues.tolist()[0] == 0 and out.n_issues.tolist()[1] >= 1
    assert "statistical_garble" in out.issues[1]
