"""Deterministic fixture-corpus generator (FIXTURES.md F1-F3).

Produces the `pages` input table (url, warc_ts, html, text, lang) and
the `golden` oracle table (url, golden_text, n_blocks, n_words). The
reference ships no fixtures (SURVEY.md §5), so this corpus DEFINES the
byte-identity contract: goldens are computed from the generator's
*intent* (which blocks it planted as main content, which as
boilerplate/furniture) using only the fixed rendering conventions —
never by running the extractor — so pytest's
``extracted_text == golden_text`` is a real independent check.

Everything is seeded (seed=42 by default); same (n_rows, seed) =>
byte-identical parquet content. No wall clock, no machine state.
"""

from __future__ import annotations

import datetime as _dt
import json
import random

import pyarrow as pa

from pdf_extractor_ray.functions.pdf_codec import pages_to_pdf_bytes
from pdf_extractor_ray.functions.pdf_words import FIXTURE_MAGIC

_LANGS = ["en", "ja", "de", "fr", "es"]
_LANG_W = [40, 25, 15, 10, 10]

_VOCAB = {
    "en": (
        "the quick brown fox jumps over a lazy dog while distributed systems "
        "process large volumes of web data using streaming execution and careful "
        "memory management across many worker nodes every single day without fail "
        "extraction pipelines must remain deterministic reproducible and efficient"
    ).split(),
    "de": (
        "der schnelle braune fuchs springt über den faulen hund während verteilte "
        "systeme große datenmengen mit sorgfältiger speicherverwaltung verarbeiten "
        "und jeden tag zuverlässig deterministische ergebnisse liefern müssen"
    ).split(),
    "fr": (
        "le rapide renard brun saute par dessus le chien paresseux pendant que les "
        "systèmes distribués traitent de grands volumes de données avec une "
        "exécution en continu et une gestion prudente de la mémoire chaque jour"
    ).split(),
    "es": (
        "el rápido zorro marrón salta sobre el perro perezoso mientras los "
        "sistemas distribuidos procesan grandes volúmenes de datos con ejecución "
        "continua y una gestión cuidadosa de la memoria todos los días sin falta"
    ).split(),
}
_JP_CHARS = list(
    "日本語の文章は空白を含まない形で書かれることが多く抽出処理では文字種の判定が重要になる"
    "データ処理基盤は大規模な計算資源を効率的に使い決定的な結果を返す必要がある"
)
_NAV_WORDS = "Home About Products Services Contact Blog Careers Support Login Register".split()


def _sentence(rng: random.Random, lang: str, n_words: int) -> str:
    if lang == "ja":
        n_chars = n_words * 3
        return "".join(rng.choice(_JP_CHARS) for _ in range(n_chars)) + "。"
    vocab = _VOCAB[lang]
    ws = [rng.choice(vocab) for _ in range(n_words)]
    ws[0] = ws[0].capitalize()
    return " ".join(ws) + "."


def _paragraph(rng: random.Random, lang: str, n_sents: int) -> str:
    if lang == "ja":
        return "".join(_sentence(rng, lang, rng.randint(6, 14)) for _ in range(n_sents))
    return " ".join(_sentence(rng, lang, rng.randint(8, 16)) for _ in range(n_sents))


# ---------------------------------------------------------------------------
# HTML templates — each returns (html, golden_text, n_blocks, visible_text)
# ---------------------------------------------------------------------------


def _nav_html(rng: random.Random) -> str:
    links = "".join(f'<a href="/{w.lower()}">{w}</a> ' for w in _NAV_WORDS[: rng.randint(5, 9)])
    # two deterministic CROSS-SITE anchors so the corpus carries a real
    # host link graph (ops/linkgraph.py). Derived from bytes already
    # drawn — NO extra rng consumption, so the corpus text stream (and
    # every committed golden) is unchanged; nav is boilerplate the
    # extractor strips, so golden_text never sees these.
    k = sum(links.encode()) % 37
    ext = (
        f'<a href="https://site{k}.example/partner">partner</a> '
        f'<a href="https://site{(3 * k + 5) % 37}.example/mirror">mirror</a> '
    )
    return f"<nav>{links}{ext}</nav>"


def _sidebar_html(rng: random.Random) -> str:
    items = "".join(
        f'<li><a href="/p/{i}">{rng.choice(_NAV_WORDS)} {i}</a></li>' for i in range(rng.randint(4, 8))
    )
    return f"<aside><ul>{items}</ul></aside>"


def _tpl_article(rng: random.Random, lang: str, n_paras: int) -> tuple[str, str, int, str]:
    title = _sentence(rng, lang, 5).rstrip(".。")
    paras = [_paragraph(rng, lang, rng.randint(2, 4)) for _ in range(n_paras)]
    body = "".join(f"<p>{p}</p>" for p in paras)
    html = (
        "<html><head><title>Site</title></head><body>"
        + _nav_html(rng)
        + "<header><h1>Example Site</h1></header>"
        + f"<main><article><h1>{title}</h1>{body}</article></main>"
        + _sidebar_html(rng)
        + "<footer>© 2024 Example</footer></body></html>"
    )
    golden = "\n\n".join([title] + paras)
    return html, golden, 1 + len(paras), title + " " + " ".join(paras)


def _tpl_columns(rng: random.Random, lang: str, fat: int = 1) -> tuple[str, str, int, str]:
    left = [_paragraph(rng, lang, 2) for _ in range(2 * fat)]
    right = [_paragraph(rng, lang, 2) for _ in range(2 * fat)]
    html = (
        "<html><body>"
        + _nav_html(rng)
        + '<div class="row"><div class="col">'
        + "".join(f"<p>{p}</p>" for p in left)
        + '</div><div class="col">'
        + "".join(f"<p>{p}</p>" for p in right)
        + "</div></div>"
        + "<footer>contact us</footer></body></html>"
    )
    paras = left + right
    return html, "\n\n".join(paras), len(paras), " ".join(paras)


def _tpl_table(rng: random.Random, lang: str, fat: int = 1) -> tuple[str, str, int, str]:
    title = _sentence(rng, lang, 4).rstrip(".。")
    intro = _paragraph(rng, lang, 2 * fat)
    outro = _paragraph(rng, lang, 2 * fat)
    nrows, ncols = rng.randint(2, 4) * fat, rng.randint(2, 4)
    cells = [[f"v{r}{c}" for c in range(ncols)] for r in range(nrows)]
    rows_html = "".join("<tr>" + "".join(f"<td>{c}</td>" for c in row) + "</tr>" for row in cells)
    html = (
        "<html><body>"
        + _nav_html(rng)
        + f"<main><h2>{title}</h2><p>{intro}</p><table>{rows_html}</table><p>{outro}</p></main>"
        + "<footer>fine print</footer></body></html>"
    )
    tbl_lines = [f"[TABLE: {nrows}x{ncols}]"]
    for row in cells:
        tbl_lines.append("| " + " | ".join(row) + " |")
    tbl_lines.append("[TABLE END]")
    golden = "\n\n".join([title, intro, "\n".join(tbl_lines), outro])
    visible = " ".join([title, intro, " ".join(c for row in cells for c in row), outro])
    return html, golden, 4, visible


def _tpl_list(rng: random.Random, lang: str, fat: int = 1) -> tuple[str, str, int, str]:
    title = _sentence(rng, lang, 4).rstrip(".。")
    items = [_sentence(rng, lang, rng.randint(5, 9)) for _ in range(rng.randint(3, 5) * fat)]
    html = (
        "<html><body>"
        + _nav_html(rng)
        + f"<main><h3>{title}</h3><ul>"
        + "".join(f"<li>{i}</li>" for i in items)
        + "</ul></main>"
        + _sidebar_html(rng)
        + "</body></html>"
    )
    golden = "\n\n".join([title] + ["- " + i for i in items])
    return html, golden, 1 + len(items), title + " " + " ".join(items)


def _encode_html(html: str, lang: str, n_html_docs: int) -> bytes:
    """Encode an HTML doc's source to payload bytes. Most docs are
    plain UTF-8; every 6th rotates through a NON-UTF-8 charset variant
    (Common-Crawl reality) with the correct in-band declaration, so the
    extractor's charset sniff (functions/html_extract.sniff_decode) is
    corpus-tested: ja -> Shift-JIS via <meta charset>, de/fr/es ->
    Latin-1 via http-equiv, en -> UTF-16-LE via BOM. The decoded text —
    and therefore the golden — is identical in every variant; a doc
    whose text a legacy charset can't encode stays UTF-8."""
    if n_html_docs % 6 != 3:
        return html.encode("utf-8")
    if lang == "ja":
        try:
            return html.replace(
                "<html>", '<html><meta charset="shift_jis">', 1
            ).encode("shift_jis")
        except UnicodeEncodeError:
            return html.encode("utf-8")
    if lang in ("de", "fr", "es"):
        try:
            return html.replace(
                "<html>",
                '<html><meta http-equiv="Content-Type" '
                'content="text/html; charset=ISO-8859-1">',
                1,
            ).encode("latin-1")
        except UnicodeEncodeError:
            return html.encode("utf-8")
    return b"\xff\xfe" + html.encode("utf-16-le")


def _tpl_boilerplate_only(rng: random.Random, lang: str) -> tuple[str, str, int, str]:
    html = (
        "<html><body>"
        + _nav_html(rng)
        + '<div role="navigation"><a href="/x">more links</a> <a href="/y">here too</a></div>'
        + "<footer>© 2024 nothing to see</footer></body></html>"
    )
    return html, "", 0, "more links here too"


# ---------------------------------------------------------------------------
# PDF word-geometry payloads (F3) — layout engine + intent-derived golden
# ---------------------------------------------------------------------------

_PAGE_W, _PAGE_H = 612.0, 792.0
_LATIN_CW, _LATIN_GAP = 6.0, 4.0
_JP_CW, _JP_GAP = 11.0, 2.0


def _lay_line(text: str, top: float, x0: float, jp: bool, size: float = 10.0) -> list[dict]:
    """Lay out one line of text as word boxes. Latin: split on spaces,
    4pt gaps (> latin_space_gap => spaces reproduced). JP: 1-3 char
    chunks, 2pt gaps (<= jp_space_gap => no spaces reproduced)."""
    words = []
    x = x0
    if jp:
        chunks, i, rng_step = [], 0, (3, 2, 1, 2, 3, 1)
        k = 0
        while i < len(text):
            step = rng_step[k % len(rng_step)]
            chunks.append(text[i : i + step])
            i += step
            k += 1
        for ch in chunks:
            w = len(ch) * _JP_CW
            words.append({"text": ch, "x0": x, "x1": x + w, "top": top, "bottom": top + 12.0, "size": size, "fontname": "F0"})
            x += w + _JP_GAP
    else:
        for tok in text.split(" "):
            if not tok:
                continue
            w = len(tok) * _LATIN_CW
            words.append({"text": tok, "x0": x, "x1": x + w, "top": top, "bottom": top + 12.0, "size": size, "fontname": "F0"})
            x += w + _LATIN_GAP
    return words


def _layout_detection_page(page_idx: int, header: str) -> tuple[dict, str, str]:
    """A page exercising GEOMETRY DETECTION (functions/layout.py): a
    ruled 3x3 grid carried as `lines` + cell words (NO `tables` hint —
    the extractor must detect it) and a bordered textbox carried as a
    `rects` entry with words inside (NO `boxes` hint). One grid word is
    rotated (upright=False) to exercise the M19 metric. Deterministic:
    no rng draws, so adding this page leaves the corpus rng stream —
    and every other document's golden — untouched."""
    words: list[dict] = []
    lines: list[dict] = []
    rects: list[dict] = []
    words += _lay_line(header, 20.0, 72.0, False)
    # ruled 3x3 grid: edges x 320/400/480/560, y 300/330/360/390
    xs = [320.0, 400.0, 480.0, 560.0]
    ys = [300.0, 330.0, 360.0, 390.0]
    for y in ys:
        lines.append({"x0": xs[0], "x1": xs[-1], "top": y, "bottom": y})
    for x in xs:
        lines.append({"x0": x, "x1": x, "top": ys[0], "bottom": ys[-1]})
    cells = [[f"g{r}{c}" for c in range(3)] for r in range(3)]
    for r in range(3):
        for c in range(3):
            w = {
                "text": cells[r][c],
                "x0": xs[c] + 5.0,
                "x1": xs[c] + 23.0,
                "top": ys[r] + 5.0,
                "bottom": ys[r] + 15.0,
                "size": 10.0,
                "fontname": "F0",
            }
            if r == 1 and c == 1:
                # M19 rotated-word metric. Box geometry consistent with
                # a genuine 90-degree text matrix (pdf_codec.py): device
                # width = 1.2em of the 10pt font, device height = the
                # glyph advance. Center stays inside cell (1,1).
                w["upright"] = False
                w["x1"] = w["x0"] + 12.0
                w["bottom"] = w["top"] + 18.0
            words.append(w)
    # bordered textbox (sidebar) with 6 words inside
    rects.append({"x0": 72.0, "top": 500.0, "x1": 330.0, "bottom": 560.0})
    box_text = "Side note content lives here too"
    words += _lay_line(box_text, 510.0, 77.0, False)
    # isolated page number -> dropped
    words += _lay_line(f"-{page_idx + 1}-", 768.0, 290.0, False)
    page = {"width": _PAGE_W, "height": _PAGE_H, "words": words, "lines": lines, "rects": rects}
    tbl_lines = ["[TABLE: 3x3]"]
    for row in cells:
        tbl_lines.append("| " + " | ".join(row) + " |")
    tbl_lines.append("[TABLE END]")
    golden = "\n".join(tbl_lines) + "\n\n[BOX]\n" + box_text + "\n[BOX END]"
    visible = " ".join([header] + [c for row in cells for c in row] + [box_text, f"-{page_idx + 1}-"])
    return page, golden, visible


def _two_column_page(page_idx: int, header: str) -> tuple[dict, str, str]:
    """A pure two-column page (M9 column split + M10 reading order over
    genuine PDF bytes): left column ends at x~174, right starts at 340
    — the >50pt whitespace gap splits them; extraction must emit ALL
    left-column lines before the right column. Deterministic: no rng
    draws, so the corpus rng stream (and every HTML doc's golden) is
    untouched."""
    words: list[dict] = []
    words += _lay_line(header, 20.0, 72.0, False)
    left = ["Alpha beta gamma", "Delta epsilon zeta", "Eta theta iota"]
    right = ["Kappa lambda mu", "Nu xi omicron", "Pi rho sigma"]
    for i, line in enumerate(left):
        words += _lay_line(line, 200.0 + 20.0 * i, 72.0, False)
    for i, line in enumerate(right):
        words += _lay_line(line, 200.0 + 20.0 * i, 340.0, False)
    words += _lay_line(f"-{page_idx + 1}-", 768.0, 290.0, False)
    page = {"width": _PAGE_W, "height": _PAGE_H, "words": words}
    golden = "\n".join(left) + "\n" + "\n".join(right)
    visible = " ".join([header] + left + right + [f"-{page_idx + 1}-"])
    return page, golden, visible


def _tpl_pdf(
    rng: random.Random, lang: str, fat: int = 1, encoding: str = "pdf"
) -> tuple[bytes, str, int, str]:
    """Multi-page PDF doc: repeated header (dropped), body lines
    (kept), one superscript attach, isolated page numbers (dropped), a
    footnote definition line (kept), and a ruled table drawn as line
    segments on page 1. Golden derived from intent.

    encoding="pdf" serializes the pages as a GENUINE %PDF-1.4 binary
    (functions/pdf_codec.py — uncompressed content streams, Tj/Tm text
    operators, real xref); encoding="pdf15" emits the modern %PDF-1.5
    layout (ObjStm + XRef stream, Flate content, ISO 32000 §7.5.7-8)
    and "pdf15p" the same with a PNG-predicted xref stream;
    encoding="fixture-json" keeps the legacy %PDF-FIXTURE JSON payload
    so every router branch stays corpus-tested. The extracted text is
    identical in all encodings (same pages)."""
    jp = lang == "ja"
    n_pages = rng.randint(2, 3)
    header = "ACMEREPORT"  # single word, top zone, every page -> dropped
    pages, golden_pages, visible = [], [], []
    for pno in range(n_pages):
        words: list[dict] = []
        lines: list[dict] = []
        golden_lines: list[str] = []
        words += _lay_line(header, 20.0, 72.0, False)
        visible.append(header)
        if pno == n_pages - 1:
            # inline footnote marker in a body line (kept; matched to the def)
            mline = "Refer to note *1"
            words += _lay_line(mline, 92.0, 72.0, False)
            golden_lines.append(mline)
            visible.append(mline)
        top = 110.0
        n_lines = rng.randint(3, 5) * fat
        for _ in range(n_lines):
            line = _sentence(rng, lang, rng.randint(6, 10)).rstrip(".。")
            words += _lay_line(line, top, 72.0, jp)
            golden_lines.append(line.replace(" ", "") if jp else line)
            visible.append(line)
            top += 20.0
        if pno == 0 and not jp:
            # superscript: "E = mc" + small raised "2" -> "E = mc²"
            base_line = "E = mc"
            lw = _lay_line(base_line, top, 72.0, False)
            last = lw[-1]
            lw.append(
                {
                    "text": "2",
                    "x0": last["x1"] + 1.0,
                    "x1": last["x1"] + 5.0,
                    "top": top - 4.0,
                    "bottom": top + 2.0,
                    "size": 6.0,
                    "fontname": "F0",
                }
            )
            words += lw
            golden_lines.append("E = mc²")
            visible.append("E = mc 2")
            top += 20.0
        if pno == n_pages - 1:
            # footnote definition line in the bottom zone (kept; matched)
            def_text = "See appendix for details" if not jp else "付録を参照のこと"
            fwords = _lay_line("*1:", 700.0, 72.0, False)
            fx = fwords[-1]["x1"] + _LATIN_GAP
            fwords += _lay_line(def_text, 700.0, fx, jp)
            words += fwords
            golden_lines.append("*1: " + (def_text.replace(" ", "") if jp else def_text))
            visible.append("*1: " + def_text)
        if pno == 1:
            # ruled 3x3 table drawn as genuine ruling LINES (no hint
            # channel exists in a real PDF) — the geometry detector
            # (functions/layout.py detect_tables_from_lines) must find
            # it, exactly as it would in a wild PDF. 3x3 meets the
            # validation gates (>=3 rows/cols, >=9 cells).
            nrows, ncols = 3, 3
            cells = [[f"t{r}{c}" for c in range(ncols)] for r in range(nrows)]
            txs = [320.0, 400.0, 480.0, 560.0]
            tys = [400.0, 430.0, 460.0, 490.0]
            for y in tys:
                lines.append({"x0": txs[0], "x1": txs[-1], "top": y, "bottom": y})
            for x in txs:
                lines.append({"x0": x, "x1": x, "top": tys[0], "bottom": tys[-1]})
            for r, row in enumerate(cells):
                for c, cell in enumerate(row):
                    words.append({"text": cell, "x0": txs[c] + 5.0, "x1": txs[c] + 23.0, "top": tys[r] + 5.0, "bottom": tys[r] + 15.0, "size": 10.0, "fontname": "F0"})
            tbl_lines = [f"[TABLE: {nrows}x{ncols}]"]
            for row in cells:
                tbl_lines.append("| " + " | ".join(row) + " |")
            tbl_lines.append("[TABLE END]")
            golden_lines.append("")  # blank line before table block
            golden_lines.append("\n".join(tbl_lines))
            visible.append(" ".join(c for row in cells for c in row))
        # isolated page number (single word, bottom center) -> dropped
        words += _lay_line(f"-{pno + 1}-", 768.0, 290.0, False)
        visible.append(f"-{pno + 1}-")
        pages.append({"width": _PAGE_W, "height": _PAGE_H, "words": words, "lines": lines})
        golden_pages.append("\n".join(golden_lines).replace("\n\n\n", "\n\n"))
    col_page, col_golden, col_visible = _two_column_page(n_pages, header)
    pages.append(col_page)
    golden_pages.append(col_golden)
    visible.append(col_visible)
    n_pages += 1
    layout_page, layout_golden, layout_visible = _layout_detection_page(n_pages, header)
    pages.append(layout_page)
    golden_pages.append(layout_golden)
    visible.append(layout_visible)
    n_pages += 1
    if encoding == "pdf":
        payload = pages_to_pdf_bytes(pages)
    elif encoding.startswith("pdf:"):
        # "pdf:rc4-40" / "pdf:rc4-128": classic layout behind the
        # standard security handler, empty user password
        payload = pages_to_pdf_bytes(pages, encrypt=encoding.partition(":")[2])
    elif encoding == "pdf15":
        payload = pages_to_pdf_bytes(pages, pdf15=True)
    elif encoding == "pdf15p":
        payload = pages_to_pdf_bytes(pages, pdf15=True, xref_predictor=True)
    elif encoding.startswith("pdfwild"):
        from pdf_extractor_ray.functions.pdf_codec import pages_to_pdf_bytes_wild

        # "pdfwild" or "pdfwild:<stream_filter>" — the suffix encodes the
        # content streams through a wild transport filter/chain
        # (flate, a85+flate, ahx, rl, ahx+rl), corpus-testing the
        # decoder's /Filter pipeline
        _, _, filt = encoding.partition(":")
        payload = pages_to_pdf_bytes_wild(pages, stream_filter=filt or None)
    else:
        payload = FIXTURE_MAGIC + json.dumps({"pages": pages}, ensure_ascii=False, sort_keys=True).encode("utf-8")
    golden = "\n\n".join(golden_pages)
    # cleanup squeezes >=3 newlines; our construction produces at most 2
    n_words = len(golden.split())
    return payload, golden, n_pages, " ".join(visible)


# ---------------------------------------------------------------------------
# Corpus assembly (F1 + F2)
# ---------------------------------------------------------------------------


def generate_corpus(n_rows: int, seed: int = 42, skew: bool = True, fat: int = 1) -> tuple[pa.Table, pa.Table]:
    """Build (pages, golden) Arrow tables. ~90% HTML / ~10% PDF-geometry
    payloads; 1% big-blob rows; 2 duplicate urls per 250 rows; one empty
    and one malformed payload (FIXTURES.md F1 skew knobs)."""
    rng = random.Random(seed)
    urls, tss, htmls, texts, langs = [], [], [], [], []
    g_urls, g_texts, g_blocks, g_words = [], [], [], []
    base_ts = _dt.datetime(2024, 1, 1)
    lang_cycle = rng.choices(_LANGS, weights=_LANG_W, k=n_rows)

    def add(i: int, lang: str, payload: bytes, golden: str, n_blocks: int, visible: str) -> str:
        url = f"https://site{i % 37}.example/{lang}/doc{i:06d}"
        urls.append(url)
        tss.append(base_ts + _dt.timedelta(seconds=137 * i))
        htmls.append(payload)
        texts.append(visible)
        langs.append(lang)
        g_urls.append(url)
        g_texts.append(golden)
        g_blocks.append(n_blocks)
        g_words.append(len(golden.split()))
        return url

    n_pdf_docs = 0
    n_html_docs = 0
    for i in range(n_rows):
        lang = lang_cycle[i]
        roll = rng.random()
        if roll < 0.10:
            # genuine PDF binaries by default, rotating through the
            # writer's encodings — classic 1.4, modern 1.5 (ObjStm +
            # XRef stream), 1.5 with PNG-predicted xref — with every
            # 5th PDF doc keeping the legacy %PDF-FIXTURE JSON encoding
            # so every router branch stays corpus-tested (same pages ->
            # same golden in all encodings).
            # "pdfwild" serializes in the ordinary-producer grammar
            # (simple fonts, literal strings, marked content) so the
            # content interpreter's token loop is corpus-exercised, not
            # just its word-block lane
            enc = ("pdf", "pdf15", "pdfwild", "pdf15p", "fixture-json")[n_pdf_docs % 5]
            if enc == "pdf":
                # sub-rotate classic docs through the standard security
                # handler (empty user password) so decryption is
                # corpus-tested in every supported cipher: RC4 R2/R3,
                # AESV2 (V4 crypt filter), AESV3 (V5/R6)
                # AESV3 rotates as R5 (single-SHA-256 KDF): the R6
                # Algorithm-2.B hash costs ~0.4 s/doc in pure python —
                # prohibitive at corpus scale — and stream decryption
                # is identical; R6 stays covered by the codec tests
                crypt = ("", "rc4-40", "aes-128", "rc4-128", "aes-256-r5")[(n_pdf_docs // 5) % 5]
                if crypt:
                    enc = f"pdf:{crypt}"
            elif enc == "pdfwild":
                # sub-rotate the wild content streams through the
                # transport filters so every /Filter decoder branch
                # (and the a85+flate / ahx+rl chains) is corpus-tested
                filt = ("", "a85+flate", "flate", "rl", "ahx", "ahx+rl")[
                    (n_pdf_docs // 5) % 6
                ]
                if filt:
                    enc = f"pdfwild:{filt}"
            n_pdf_docs += 1
            payload, golden, n_blocks, visible = _tpl_pdf(rng, lang, fat, encoding=enc)
            add(i, lang, payload, golden, n_blocks, visible)
            continue
        if roll < 0.28:
            html, golden, n_blocks, visible = _tpl_columns(rng, lang, fat)
        elif roll < 0.46:
            html, golden, n_blocks, visible = _tpl_table(rng, lang, fat)
        elif roll < 0.60:
            html, golden, n_blocks, visible = _tpl_list(rng, lang, fat)
        elif roll < 0.66:
            html, golden, n_blocks, visible = _tpl_boilerplate_only(rng, lang)
        else:
            big = skew and rng.random() < 0.012
            n_paras = (rng.randint(120, 240) if big else rng.randint(3, 8)) * fat
            html, golden, n_blocks, visible = _tpl_article(rng, lang, n_paras)
        add(i, lang, _encode_html(html, lang, n_html_docs), golden, n_blocks, visible)
        n_html_docs += 1

    if skew and n_rows >= 20:
        # duplicate urls (exact-dedup knob): re-emit rows 3 and 7 verbatim
        for j in (3, 7):
            urls.append(urls[j]); tss.append(tss[j]); htmls.append(htmls[j])
            texts.append(texts[j]); langs.append(langs[j])
        # one empty and one malformed payload (error-column knob)
        u = f"https://site0.example/en/doc{n_rows:06d}-empty"
        urls.append(u); tss.append(base_ts); htmls.append(b""); texts.append(""); langs.append("en")
        g_urls.append(u); g_texts.append(""); g_blocks.append(0); g_words.append(0)
        u = f"https://site0.example/en/doc{n_rows + 1:06d}-malformed"
        urls.append(u); tss.append(base_ts); htmls.append(FIXTURE_MAGIC + b"{not json")
        texts.append(""); langs.append("en")
        g_urls.append(u); g_texts.append(""); g_blocks.append(0); g_words.append(0)

    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "warc_ts": pa.array(tss, pa.timestamp("us")),
            "html": pa.array(htmls, pa.binary()),
            "text": pa.array(texts, pa.string()),
            "lang": pa.array(langs, pa.string()),
        }
    )
    golden = pa.table(
        {
            "url": pa.array(g_urls, pa.string()),
            "golden_text": pa.array(g_texts, pa.large_string()),
            "n_blocks": pa.array(g_blocks, pa.int32()),
            "n_words": pa.array(g_words, pa.int64()),
        }
    )
    return pages, golden


def write_corpus(
    out_dir: str,
    n_rows: int,
    seed: int = 42,
    skew: bool = True,
    fat: int = 1,
    n_shards: int = 1,
) -> tuple[str, str]:
    """Write the corpus. n_shards > 1 writes pages as a DIRECTORY of
    shard files with small row groups — a single monolithic file with
    one row group is read by ONE Ray task and serializes the whole
    pipeline (measured: the read capped a 32-CPU run at ~2.3x of
    8 CPUs). Real 100-TB inputs are always many shards."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    pages, golden = generate_corpus(n_rows, seed=seed, skew=skew, fat=fat)
    golden_path = os.path.join(out_dir, "golden.parquet")
    pq.write_table(golden, golden_path)
    if n_shards <= 1:
        pages_path = os.path.join(out_dir, "pages.parquet")
        pq.write_table(pages, pages_path, row_group_size=max(512, n_rows // 16 or 1))
        return pages_path, golden_path
    pages_path = os.path.join(out_dir, "pages")
    os.makedirs(pages_path, exist_ok=True)
    n = pages.num_rows
    per = (n + n_shards - 1) // n_shards
    for i in range(n_shards):
        shard = pages.slice(i * per, per)
        if shard.num_rows == 0:
            break
        pq.write_table(shard, os.path.join(pages_path, f"shard-{i:04d}.parquet"), row_group_size=512)
    return pages_path, golden_path


def write_corpus_parallel(
    out_dir: str,
    n_rows: int,
    seed: int = 42,
    skew: bool = True,
    fat: int = 1,
    rows_per_shard: int = 4000,
) -> tuple[str, str]:
    """Ray-parallel sharded generation for BENCH-SCALE corpora.

    Each shard is generated independently with rng seed (seed, shard
    index) — deterministic for the same (n_rows, seed, rows_per_shard)
    but a DIFFERENT byte stream than the sequential `write_corpus`
    (whose single rng threads through all rows). The committed test
    fixtures therefore keep using `write_corpus`; this path exists so
    a 640k-row scaling corpus takes ~30s of cluster time instead of
    ~8 min of one core, and memory stays bounded per shard.

    Requires an initialized Ray session (bench owns one)."""
    import os

    import ray

    os.makedirs(out_dir, exist_ok=True)
    pages_path = os.path.join(out_dir, "pages")
    os.makedirs(pages_path, exist_ok=True)
    golden_dir = os.path.join(out_dir, "golden")
    os.makedirs(golden_dir, exist_ok=True)

    n_shards = (n_rows + rows_per_shard - 1) // rows_per_shard

    @ray.remote(num_cpus=1)
    def gen_shard(shard_idx: int, rows: int) -> int:
        import pyarrow.parquet as _pq

        pages_t, golden_t = generate_corpus(
            rows, seed=seed * 1_000_003 + shard_idx, skew=skew, fat=fat
        )
        # re-key urls so they stay globally unique across shards
        base = shard_idx * rows_per_shard
        import pyarrow as _pa

        # re-key each table via ITS OWN url column: the pages url list
        # carries appended duplicate rows the golden table lacks, so a
        # positional slice would misalign the tail golden rows
        urls = [
            u.replace("/doc", f"/s{shard_idx:05d}doc") for u in pages_t["url"].to_pylist()
        ]
        g_urls = [
            u.replace("/doc", f"/s{shard_idx:05d}doc") for u in golden_t["url"].to_pylist()
        ]
        pages_t = pages_t.set_column(0, "url", _pa.array(urls, _pa.string()))
        golden_t = golden_t.set_column(0, "url", _pa.array(g_urls, _pa.string()))
        _pq.write_table(
            pages_t, os.path.join(pages_path, f"shard-{shard_idx:05d}.parquet"), row_group_size=512
        )
        _pq.write_table(golden_t, os.path.join(golden_dir, f"shard-{shard_idx:05d}.parquet"))
        del base
        return pages_t.num_rows

    refs = []
    remaining = n_rows
    for s in range(n_shards):
        rows = min(rows_per_shard, remaining)
        remaining -= rows
        refs.append(gen_shard.remote(s, rows))
    total = sum(ray.get(refs))
    assert total >= n_rows, (total, n_rows)
    return pages_path, golden_dir
