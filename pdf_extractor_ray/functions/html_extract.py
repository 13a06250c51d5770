"""HTML main-content extraction: DOM-tree boilerplate stripping.

The reference implements only a PDF path; this module supplies the
HTML payload path the north rule demands, designed from public
boilerplate-removal literature (trafilatura / boilerpipe / jusText:
block segmentation at block-level tags, then per-block classification
by container role, text-to-link ratio ("link density") and text
length). Shares the reference's determinism contract
(reference extractor.py:3-9): pure function of the input bytes,
no normalization beyond whitespace collapsing, no wall clock.

Tokenizer: one master regex (``_TOKEN``) reads a text run and the tag
after it; every other '<' goes to ``_markup``. ``segment_html`` folds
those tokens into blocks in one loop, and ``_tokenize`` turns them into
calls on a handler (the structured visitors in ops/structured.py):
handle_starttag / handle_startendtag (tag, attrs), handle_endtag(tag)
and handle_data(text); names are lowercased, character references
decoded. The grammar is CPython 3.11's HTML parser's: tags with
attributes, comments, doctype, bogus comments, ``<?``, raw-text
script/style. Its regexes (_locatestart, _tagfind, _attrfind,
_endtagfind, _commentclose) are owned copies of CPython 3.11.7's, so
the output does not depend on the interpreter. Input outside that
grammar or cut off at EOF follows the WHATWG tokenizer
(https://html.spec.whatwg.org/multipage/parsing.html#tokenization):

  start or end tag still open at EOF    dropped with everything after it
  unclosed comment (but '<!-->', '<!--->' are empty comments)
                                        runs to EOF, dropped
  <?... / <!... / <![... without '>'    bogus comment to EOF, dropped
  '</' + non-letter                     bogus comment up to the next '>'
  '</>' / a bare '</' at EOF            nothing / the text '</'
  start tag with junk before its '>'    a tag ending at the first '>'
                                        outside a quoted value (WHATWG
                                        attribute states from where
                                        CPython's grammar stops)

Each construct is found by one forward find or anchored match from a
cursor that only moves forward, so the cost is linear in the input.

Classification rules (fixed; changing any invalidates the committed
golden corpus, see FIXTURES.md):

  R-skip      : content under script/style/noscript/template/head/svg/
                iframe/form/button/select is never emitted.
  R-container : a block with any nav/header/footer/aside ancestor (or
                role="navigation|banner|contentinfo|complementary")
                is boilerplate.
  R-link      : link_density = non-ws chars inside <a> / non-ws chars
                of the block; > cfg.max_link_density => boilerplate.
  R-short     : paragraphs shorter than cfg.min_paragraph_chars,
                list items shorter than cfg.min_list_item_chars and
                headings shorter than cfg.min_heading_chars are
                boilerplate.
  R-table     : <table> outside boilerplate containers is rendered as
                a pipe-formatted block framed by "[TABLE: RxC]" /
                "[TABLE END]" markers — same output style as the PDF
                path's table insertion (reference extractor.py:844-874,
                layout_analyzer.py:70-103). A new td/th/tr, </tr> or
                </table> closes an open cell of the outermost table; a
                table still open at </body>, </html> or EOF is emitted.

Kept blocks render in document order, joined by a blank line;
headings verbatim, list items prefixed "- ", whitespace inside a
block collapsed to single spaces.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from html import unescape as _unescape

from pdf_extractor_ray.config import DEFAULT_CONFIG, PipelineConfig

_SKIP_TAGS = frozenset(
    "script style noscript template head svg iframe form button select option textarea".split()
)
_BOILER_TAGS = frozenset("nav header footer aside".split())
_BOILER_ROLES = frozenset("navigation banner contentinfo complementary".split())
# Tags whose open/close delimits a text block -> the kind of block they
# open ("" for a transparent container).
_BLOCK_KIND = {t: kind for kind, tags in (
    ("", "div article section main figure ul ol dl tr td th thead tbody table body html nav header footer aside"),
    ("p", "p blockquote pre figcaption dd dt address"), ("heading", "h1 h2 h3 h4 h5 h6"), ("li", "li"),
) for t in tags.split()}


@dataclass
class _Block:
    kind: str  # "p" | "heading" | "li" | "table"
    text: str
    link_chars: int
    total_chars: int
    boiler: bool


def _close_cell(rows: list[list[str]], cell: list[str] | None) -> None:
    """Close the open cell (if any) into the last row."""
    if cell is not None:
        if not rows:
            rows.append([])
        rows[-1].append(" ".join("".join(cell).split()))


def _flush(blocks: list[_Block], kinds: list[str], buf: list[str], link_chars: int, boiler: bool) -> None:
    """Append the block ``buf`` holds, ws-collapsed, if any text, and empty ``buf``."""
    parts = "".join(buf).split()
    buf.clear()
    if parts:
        text = " ".join(parts)
        blocks.append(_Block(kinds[-1] if kinds else "p", text, link_chars, len(text) - len(parts) + 1, boiler))


def _end_table(blocks: list[_Block], rows: list[list[str]], cell: list[str] | None, boiler: bool) -> None:
    _close_cell(rows, cell)
    rows = [r for r in rows if any(c for c in r)]
    if rows:
        ncols = max(len(r) for r in rows)
        lines = [f"[TABLE: {len(rows)}x{ncols}]"]
        lines += ["| " + " | ".join(r + [""] * (ncols - len(r))) + " |" for r in rows]
        lines.append("[TABLE END]")
        total_chars = sum(len(w) for r in rows for c in r for w in c.split()) or 1
        blocks.append(_Block("table", "\n".join(lines), 0, total_chars, boiler))


def segment_html(html: str) -> list[_Block]:
    """Parse HTML into classified text blocks (document order), in one
    loop over the master tokens with its state in locals. R-skip tags
    nest by count. A boilerplate element's mark lasts until the next end
    tag of its name: ``open_boiler`` keeps, per tag name with a marked
    element open, whether each open element of that name is marked.
    Inside the outermost table only its own rows and cells open anything."""
    blocks: list[_Block] = []
    buf: list[str] = []  # text of the block being read
    buf_links = skip = boiler = links = 0
    kinds: list[str] = []
    open_boiler: dict[str, list[bool]] = {}
    tdepth, rows, cell, table_boiler, table_marked = 0, [], None, False, False  # the outermost table
    match = _TOKEN.scanner(html).match
    while True:
        m = match()
        text, k = m[1], m.lastindex
        if k == 7:  # a '<' the master token does not read
            pos, k, val, attrs = _markup(html, m.end())
            if k == 1:  # '<' or '</' as text: it follows the token's text
                text, k = text + val, None
            if pos < 0:
                k = 1
            else:
                match = _TOKEN.scanner(html, pos).match
        else:
            val = m[k]
        if text and not skip:
            if "&" in text:
                text = _unescape(text)
            if tdepth:
                if cell is not None:
                    cell.append(text)
            else:
                buf.append(text)
                if links:
                    buf_links += sum(map(len, text.split()))
        if k == 1:
            break
        if k is None:
            continue
        tag = val.lower()
        if k == 2:  # end tag
            if tdepth:
                if tag == "td" or tag == "tr" or tag == "th" or tag == "table":
                    if tdepth > 1:
                        if cell is not None:
                            cell.append(" ")
                    elif tag != "table":
                        _close_cell(rows, cell)
                        cell = None
                    if tag == "table":
                        tdepth -= 1
                    if tdepth:
                        continue
                elif tag != "body" and tag != "html":
                    if skip and tag in _SKIP_TAGS:
                        skip -= 1
                    continue
                _end_table(blocks, rows, cell, table_boiler)  # at its </table>, or with the document
                tdepth, cell, boiler = 0, None, boiler - table_marked
                if tag == "table":
                    continue
            if tag == "a":
                links -= links > 0
                continue
            kind = _BLOCK_KIND.get(tag)
            if kind is not None:
                if buf:
                    _flush(blocks, kinds, buf, buf_links, boiler > 0)
                    buf_links = 0
                if kinds:
                    kinds.pop()
            elif tag in _SKIP_TAGS:
                skip -= skip > 0
                continue
            if open_boiler and (opened := open_boiler.get(tag)):
                boiler -= opened.pop()
                if not opened:
                    del open_boiler[tag]
            continue
        if not k & 1:  # <x/> (4, 6, 10) opens nothing; only a br acts
            if tag == "br" and not skip and not tdepth:
                buf.append(" ")
            continue
        if tdepth:
            if tag == "td" or tag == "tr" or tag == "th":
                if tdepth == 1:
                    _close_cell(rows, cell)
                    cell = None
                    if tag == "tr":
                        rows.append([])
                    else:
                        cell = []
                elif cell is not None:
                    # a nested table's parts open nothing: they only
                    # separate words of the enclosing outer cell
                    cell.append(" ")
                continue
            if tag == "table":
                tdepth += 1
                if cell is not None:
                    cell.append(" ")
                continue
        elif tag == "a":
            links += 1
            continue
        kind = _BLOCK_KIND.get(tag)
        if kind is None and tag in _SKIP_TAGS:
            close = _RAWTEXT_CLOSE.get(tag)
            if close is None:
                skip += 1
                continue
            # script/style: its raw text and end tag leave skip as it was
            cm = close.search(html, pos if k == 9 else m.end())
            if cm is None:
                break  # raw text runs to EOF
            match = _TOKEN.scanner(html, cm.end()).match
            continue
        if tdepth:
            continue
        if kind is None:
            if tag == "br" or tag == "hr":  # void elements: br = soft space, hr = block break
                if not skip and tag == "br":
                    buf.append(" ")
                elif not skip and buf:
                    _flush(blocks, kinds, buf, buf_links, boiler > 0)
                    buf_links = 0
                continue
        elif buf:
            _flush(blocks, kinds, buf, buf_links, boiler > 0)
            buf_links = 0
        marked = tag in _BOILER_TAGS
        if not marked and (k == 9 or k == 5 and _ROLE.search(html, m.start(5), m.end())):
            if k == 5:
                attrs = _start_tag(html, m.start(5) - 1)[2]
            marked = next((v for n, v in attrs if n == "role" and v), "").lower() in _BOILER_ROLES
        if tag == "table":
            tdepth, rows, cell, table_boiler, table_marked = 1, [], None, boiler > 0 or marked, marked
            boiler += marked
            continue
        if kind is not None:
            kinds.append(kind)
        if marked:
            boiler += 1
            open_boiler.setdefault(tag, []).append(True)
        elif open_boiler and (opened := open_boiler.get(tag)):
            opened.append(False)
    if tdepth:  # a table still open at EOF
        _end_table(blocks, rows, cell, table_boiler)
    if buf:
        _flush(blocks, kinds, buf, buf_links, boiler > 0)
    return blocks


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# Verbatim copies of CPython 3.11.7's (the html package's parser module),
# owned here so the grammar, and with it the golden corpus, is pinned.
_commentclose = re.compile(r'--\s*>')
_tagfind = re.compile(r'([a-zA-Z][^\t\n\r\f />\x00]*)(?:\s|/(?!>))*')
_attrfind = re.compile(
    r'((?<=[\'"\s/])[^\s/>][^\s/=>]*)(\s*=+\s*'
    r'(\'[^\']*\'|"[^"]*"|(?![\'"])[^>\s]*))?(?:\s|/(?!>))*')
_locatestart = re.compile(r"""
  <[a-zA-Z][^\t\n\r\f />\x00]*       # tag name
  (?:[\s/]*                          # optional whitespace before attribute name
    (?:(?<=['"\s/])[^\s/>][^\s/=>]*  # attribute name
      (?:\s*=+\s*                    # value indicator
        (?:'[^']*'                   # LITA-enclosed value
          |"[^"]*"                   # LIT-enclosed value
          |(?!['"])[^>\s]*           # bare value
         )
        \s*                          # possibly followed by a space
       )?(?:\s|/(?!>))*
     )*
   )?
  \s*                                # trailing whitespace
""", re.VERBOSE)
_endtagfind = re.compile(r'</\s*([a-zA-Z][-.a-zA-Z0-9:_]*)\s*>')

# The WHATWG attribute states from an attribute-name position to the
# tag's closing '>' (or EOF): names, '=' and a quoted or unquoted value,
# whitespace and '/'. Possessive throughout: one scan, no backtracking.
_WHATWG_VALUE = r"""(?:[\t\n\f\r ]*+=[\t\n\f\r ]*+(?:"[^"]*+"?+|'[^']*+'?+|[^\t\n\f\r >]*+))?+"""
_TAG_TAIL = re.compile(
    rf"[^\t\n\f\r />=]*+{_WHATWG_VALUE}(?:[\t\n\f\r /]++|[^\t\n\f\r />][^\t\n\f\r />=]*+{_WHATWG_VALUE})*+"
)

# The master token: the text up to the next tag, then the tag, numbered
# as the match's lastindex reads it: 2 end tag, 3 start tag, 4
# self-closing tag, 5 and 6 the same with attributes, 7 a '<' it does
# not read (_markup does), 1 the end of the input. Tags with attributes
# take it only where the CPython grammar above reads the same name,
# attributes, end and '/>': the name ends at ASCII whitespace, quotes
# only open a value right after '=', which joins a name to the value
# after it. Names run in one character class, so a flood is one scan.
_NAME = r"([a-zA-Z][-.a-zA-Z0-9:_]*+)"
_ATTRS = r"""[\t\n\r\f ](?:[^"'/<=>]++|/(?!>)|(?<=[^\s"'/<=>])=(?:"[^"]*+"|'[^']*+'|[^\s"'<=>][^\s>]*+))*+"""
_ROLE = re.compile("role", re.I)  # no match in a tag: no attribute value is needed
_TOKEN = re.compile(
    rf"([^<]*+)(?:{_endtagfind.pattern}|<{_NAME}\s*+>|<{_NAME}\s*+/>|<{_NAME}{_ATTRS}>|<{_NAME}{_ATTRS}/>|(?=<)()|\Z)"
)

_ASCII_LETTERS = frozenset(string.ascii_letters)
_RAWTEXT_CLOSE = {t: re.compile(rf"</\s*{t}\s*>", re.I) for t in ("script", "style")}
_EMPTY_COMMENT_END = re.compile("-?>")


def _tag_end(html: str, j: int) -> int:
    """Index past the '>' of a tag whose WHATWG attribute states resume at ``j``; -1 at EOF."""
    k = _TAG_TAIL.match(html, j).end()
    return k + 1 if k < len(html) else -1


def _start_tag(html: str, i: int):
    """(end, tag, attrs, self_closing) of the start tag at ``i``, or None if open at EOF."""
    if html.find(">", i) < 0:
        return None  # no '>' left: open at EOF in any grammar
    j = _locatestart.match(html, i).end()
    # past the '>' where CPython's grammar ends, else where the WHATWG states end
    endpos = j + 1 if html.startswith(">", j) else j + 2 if html.startswith("/>", j) else _tag_end(html, j)
    if endpos < 0:
        return None
    tm = _tagfind.match(html, i + 1)
    k = tm.end()
    attrs: list[tuple[str, str | None]] = []
    while k < endpos:
        am = _attrfind.match(html, k, endpos)
        if not am:
            break
        name, rest, value = am.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] in ("'", '"') and value[-1:] == value[:1]:
            value = value[1:-1]
        attrs.append((name.lower(), _unescape(value) if value and "&" in value else value))
        k = am.end()
    # anything but '/>' left before the '>' is junk; the tag stands
    return endpos, tm.group(1).lower(), attrs, html[k:endpos].strip() == "/>"


def _markup(html: str, i: int):
    """(end, kind, value, attrs) of the markup at a '<' that matched the
    master token alone. Kind is 1 text, 2 end tag, 9 or 10 for a start
    or self-closing tag whose attributes are read, or None for markup
    that makes no token; end is -1 where it runs to EOF."""
    c = html[i + 1 : i + 2]
    if c in _ASCII_LETTERS:  # a start tag outside the master's grammar
        end, tag, attrs, self_closing = _start_tag(html, i) or (-1, None, None, None)
        return end, 10 if self_closing else 9, tag, attrs
    if c == "/":
        if html[i + 2 : i + 3] in _ASCII_LETTERS:  # end tag with attributes or junk
            tm = _tagfind.match(html, i + 2)
            return _tag_end(html, tm.end(1)), 2, tm.group(1), None
        if i + 2 == len(html):
            return i + 2, 1, "</", None
        return html.find(">", i + 2) + 1 or -1, None, None, None  # '</>' and bogus comments
    if html.startswith("<!--", i):  # WHATWG also closes '<!-->' and '<!--->'
        cm = _commentclose.search(html, i + 4) or _EMPTY_COMMENT_END.match(html, i + 4)
        return cm.end() if cm else -1, None, None, None
    if c == "!" or c == "?":  # doctype, bogus comment, marked section, <?...>
        return html.find(">", i + 2) + 1 or -1, None, None, None
    return i + 1, 1, "<", None  # a '<' that opens no markup


def _tokenize(html: str, h) -> None:
    """Tokenize ``html`` into calls on handler ``h`` (see the module docstring)."""
    data, start, startend, end = h.handle_data, h.handle_starttag, h.handle_startendtag, h.handle_endtag
    match = _TOKEN.scanner(html).match
    while True:
        m = match()
        text, k, i = m[1], m.lastindex, m.end()
        if text:
            data(_unescape(text) if "&" in text else text)
        if k == 1:
            return
        if k == 7:
            i, k, val, attrs = _markup(html, i)
            if i < 0:
                return
            match = _TOKEN.scanner(html, i).match
            if k is None:
                continue
        else:
            val = m[k]
        if k == 1:
            data(val)
            continue
        tag = val.lower()
        if k == 2:
            end(tag)
            continue
        if k < 9:
            attrs = [] if k < 5 else _start_tag(html, m.start(k) - 1)[2]
        if not k & 1:  # 4, 6, 10
            startend(tag, attrs)
            continue
        start(tag, attrs)
        rawtext_close = _RAWTEXT_CLOSE.get(tag)
        if rawtext_close is not None:
            cm = rawtext_close.search(html, i)
            if cm is None:
                return  # raw text runs to EOF
            if cm.start() > i:
                data(html[i : cm.start()])  # no unescape
            end(tag)
            match = _TOKEN.scanner(html, cm.end()).match


def classify_block(b: _Block, cfg: PipelineConfig) -> bool:
    """True if the block is main content (rules R-container/R-link/R-short)."""
    if b.boiler or not b.text:
        return False
    if b.kind != "table":
        density = b.link_chars / b.total_chars if b.total_chars else 1.0
        if density > cfg.max_link_density:
            return False
    n = len(b.text)
    if b.kind == "heading":
        return n >= cfg.min_heading_chars
    if b.kind == "li":
        return n >= cfg.min_list_item_chars
    if b.kind == "table":
        return True
    return n >= cfg.min_paragraph_chars


def render_block(b: _Block) -> str:
    if b.kind == "li":
        return "- " + b.text
    return b.text


def extract_html(html: str, cfg: PipelineConfig = DEFAULT_CONFIG) -> tuple[str, int]:
    """bytes-of-HTML -> (main content text, n_kept_blocks). Deterministic."""
    blocks = segment_html(html)
    kept = [render_block(b) for b in blocks if classify_block(b, cfg)]
    return "\n\n".join(kept), len(kept)


# ---------------------------------------------------------------------------
# Charset sniffing (deterministic; precedence pinned by the goldens)
# ---------------------------------------------------------------------------

# BOMs checked longest-first (UTF-32 BOMs contain the UTF-16 ones)
_BOMS: list[tuple[bytes, str]] = [
    (b"\x00\x00\xfe\xff", "utf-32-be"),
    (b"\xff\xfe\x00\x00", "utf-32-le"),
    (b"\xef\xbb\xbf", "utf-8"),
    (b"\xff\xfe", "utf-16-le"),
    (b"\xfe\xff", "utf-16-be"),
]
_META_TAG_RE = re.compile(rb"<meta\b[^>]*>", re.I)
_CHARSET_RE = re.compile(rb"charset\s*=\s*[\"']?\s*([A-Za-z0-9._:\-]+)", re.I)
_SNIFF_WINDOW = 1024  # bytes; the WHATWG prescan window


def sniff_decode(payload: bytes, fallback: str = "utf-8") -> tuple[str, str]:
    """Deterministic charset sniff -> (decoded text, encoding label).

    Precedence (the WHATWG encoding-sniff order restricted to its
    deterministic prefix; Common-Crawl reality is heavily
    Shift-JIS/GBK/Latin-1, and decoding everything as UTF-8 silently
    mojibakes those pages):

      1. byte-order mark (UTF-8/16/32);
      2. ``charset=`` inside a ``<meta>`` tag within the first 1024
         bytes — covers both ``<meta charset=X>`` and
         ``<meta http-equiv=Content-Type content="...; charset=X">``;
      3. ``fallback`` (utf-8), errors="replace" — the r3 behavior.

    Unknown/bogus declared labels fall through to the fallback; all
    decodes use errors="replace" so the function never raises on any
    byte payload.
    """
    for bom, enc in _BOMS:
        if payload.startswith(bom):
            return payload[len(bom):].decode(enc, errors="replace"), enc
    head = payload[:_SNIFF_WINDOW]
    for tag in _META_TAG_RE.finditer(head):
        m = _CHARSET_RE.search(tag.group(0))
        if not m:
            continue
        label = m.group(1).decode("ascii", errors="replace").strip().lower()
        try:
            return payload.decode(label, errors="replace"), label
        except LookupError:
            break  # bogus label: the WHATWG path would fall back too
    return payload.decode(fallback, errors="replace"), fallback
