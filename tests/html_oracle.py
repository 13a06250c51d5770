"""Differential oracle for ``functions/html_extract.py``: its tokenizer
and ``_BlockParser`` as they stood before segmentation became one loop
over the master-regex token stream, kept verbatim with every helper and
constant they read, so the oracle shares no code with what it checks.

``_tokenize(html, handler)`` makes the handler calls the package's
``_tokenize`` must make, and ``segment_html(html)`` returns the blocks
the package's ``segment_html`` must return.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from html import unescape as _unescape

_SKIP_TAGS = frozenset(
    "script style noscript template head svg iframe form button select option textarea".split()
)
_BOILER_TAGS = frozenset("nav header footer aside".split())
_BOILER_ROLES = frozenset("navigation banner contentinfo complementary".split())
# Tags whose open/close delimits a text block.
_BLOCK_TAGS = frozenset(
    "p div article section main li h1 h2 h3 h4 h5 h6 blockquote pre figure "
    "figcaption ul ol dl dt dd tr td th thead tbody table body html "
    "nav header footer aside address".split()
)
_HEADINGS = frozenset("h1 h2 h3 h4 h5 h6".split())


@dataclass
class _Block:
    kind: str  # "p" | "heading" | "li" | "table"
    text: str
    link_chars: int
    total_chars: int
    boiler: bool


def _nonws_len(s: str) -> int:
    # equivalent to len(\S findall) but ~5x faster; str.split() and \s
    # agree on unicode whitespace for all text that reaches this path
    return sum(map(len, s.split()))


class _BlockParser:
    """``_tokenize`` handler: one-pass segmentation into text blocks."""

    def __init__(self) -> None:
        self.blocks: list[_Block] = []
        self._stack: list[str] = []
        self._skip_depth = 0
        self._boiler_depth = 0
        self._link_depth = 0
        self._kind_stack: list[str] = []
        self._buf: list[str] = []
        self._buf_link_chars = 0
        # table capture state
        self._table_depth = 0
        self._table_rows: list[list[str]] = []
        self._cell_buf: list[str] | None = None
        self._table_boiler = False

    # -- block buffer ------------------------------------------------
    def _flush(self) -> None:
        if not self._buf:
            self._buf_link_chars = 0
            return
        raw = "".join(self._buf)
        self._buf = []
        link_chars = self._buf_link_chars
        self._buf_link_chars = 0
        # one split pass gives the ws-collapsed text AND the non-ws
        # char count (len minus the single-space separators) — same
        # result as re.sub(r"\s+", " ", raw).strip() + _nonws_len(raw)
        parts = raw.split()
        if not parts:
            return
        text = " ".join(parts)
        kind = self._kind_stack[-1] if self._kind_stack else "p"
        total_chars = len(text) - (len(parts) - 1)
        self.blocks.append(_Block(kind, text, link_chars, total_chars, self._boiler_depth > 0))

    # -- tag events --------------------------------------------------
    def handle_starttag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag in _SKIP_TAGS:
            self._skip_depth += 1
            return
        if tag in ("br", "hr"):  # void elements: br = soft space, hr = block break
            if not self._skip_depth and not self._table_depth:
                if tag == "br":
                    self._buf.append(" ")
                else:
                    self._flush()
            return
        boiler = tag in _BOILER_TAGS
        if not boiler and attrs:
            role = next((v for k, v in attrs if k == "role" and v), "")
            boiler = bool(role) and role.lower() in _BOILER_ROLES
        if tag == "table" and self._table_depth == 0:
            self._flush()
            self._table_depth = 1
            self._table_rows = []
            self._cell_buf = None
            self._table_boiler = self._boiler_depth > 0 or boiler
            self._stack.append("table")
            if boiler:
                self._boiler_depth += 1
                self._stack.append("\x00boiler")
            return
        if self._table_depth:
            if tag == "table":
                self._table_depth += 1
            elif tag not in ("tr", "td", "th"):
                return
            elif self._table_depth == 1:
                self._close_cell()
                if tag == "tr":
                    self._table_rows.append([])
                else:
                    self._cell_buf = []
                return
            if self._cell_buf is not None:
                # a nested table's parts open nothing: they only
                # separate words of the enclosing outer cell
                self._cell_buf.append(" ")
            return
        if tag == "a":
            self._link_depth += 1
            self._stack.append(tag)
            return
        if tag in _BLOCK_TAGS:
            self._flush()
            if tag in _HEADINGS:
                self._kind_stack.append("heading")
            elif tag == "li":
                self._kind_stack.append("li")
            elif tag in ("p", "blockquote", "pre", "figcaption", "dd", "dt", "address"):
                self._kind_stack.append("p")
            else:
                self._kind_stack.append("")  # transparent container
        if boiler:
            self._boiler_depth += 1
            self._stack.append("\x00boiler:" + tag)
        else:
            self._stack.append(tag)

    def handle_startendtag(self, tag: str, attrs: list[tuple[str, str | None]]) -> None:
        if tag == "br" and not self._skip_depth and not self._table_depth:
            self._buf.append(" ")

    def handle_endtag(self, tag: str) -> None:
        if tag in _SKIP_TAGS:
            self._skip_depth = max(0, self._skip_depth - 1)
            return
        if self._table_depth:
            if tag not in ("body", "html"):
                if tag not in ("table", "tr", "td", "th"):
                    return
                if self._table_depth > 1:
                    if self._cell_buf is not None:
                        self._cell_buf.append(" ")
                elif tag != "table":
                    self._close_cell()
                if tag == "table":
                    self._table_depth -= 1
                    if self._table_depth == 0:
                        self._end_table()
                return
            self._end_table()  # an open table ends with the document
        if tag == "a":
            if self._link_depth:
                self._link_depth -= 1
            if self._stack and self._stack[-1] == "a":
                self._stack.pop()
            return
        if tag in _BLOCK_TAGS:
            self._flush()
            if self._kind_stack:
                self._kind_stack.pop()
        # unwind stack entry (tolerate malformed nesting)
        for i in range(len(self._stack) - 1, -1, -1):
            s = self._stack[i]
            if s == tag or s == "\x00boiler:" + tag:
                if s.startswith("\x00boiler"):
                    self._boiler_depth = max(0, self._boiler_depth - 1)
                del self._stack[i]
                break

    def _close_cell(self) -> None:
        if self._cell_buf is not None:
            if not self._table_rows:
                self._table_rows.append([])
            self._table_rows[-1].append(" ".join("".join(self._cell_buf).split()))
            self._cell_buf = None

    def _end_table(self) -> None:
        self._close_cell()
        self._table_depth = 0
        # pop table stack entries
        for i in range(len(self._stack) - 1, -1, -1):
            s = self._stack[i]
            if s == "\x00boiler":
                self._boiler_depth = max(0, self._boiler_depth - 1)
                del self._stack[i]
            elif s == "table":
                del self._stack[i]
                break
        rows = [r for r in self._table_rows if any(c for c in r)]
        if not rows:
            return
        ncols = max(len(r) for r in rows)
        lines = [f"[TABLE: {len(rows)}x{ncols}]"]
        lines += ["| " + " | ".join(r + [""] * (ncols - len(r))) + " |" for r in rows]
        lines.append("[TABLE END]")
        total_chars = sum(_nonws_len(c) for r in rows for c in r) or 1
        self.blocks.append(_Block("table", "\n".join(lines), 0, total_chars, self._table_boiler))

    # -- text --------------------------------------------------------
    def handle_data(self, data: str) -> None:
        if self._skip_depth:
            return
        if self._table_depth:
            if self._cell_buf is not None:
                self._cell_buf.append(data)
            return
        self._buf.append(data)
        if self._link_depth:
            self._buf_link_chars += _nonws_len(data)



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

_ASCII_LETTERS = frozenset(string.ascii_letters)
# bare start tags and clean end tags, the overwhelmingly common case:
# one anchored match, no locatestart/attrfind machinery
_SIMPLE_TAG = re.compile(r"<([a-zA-Z][-.a-zA-Z0-9:_]*)\s*(/?)>|" + _endtagfind.pattern)
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


def _skip_markup(html: str, i: int, data, end) -> int:
    """Index past the other markup (or '<') at ``i``, or -1 if it runs to EOF."""
    c = html[i + 1 : i + 2]
    if c == "/":
        if html[i + 2 : i + 3] in _ASCII_LETTERS:  # end tag with attributes or junk
            tm = _tagfind.match(html, i + 2)
            j = _tag_end(html, tm.end(1))
            if j >= 0:
                end(tm.group(1).lower())
            return j
        if i + 2 == len(html):
            data("</")
            return i + 2
        return html.find(">", i + 2) + 1 or -1  # '</>' and bogus comments
    if html.startswith("<!--", i):  # WHATWG also closes '<!-->' and '<!--->'
        cm = _commentclose.search(html, i + 4) or _EMPTY_COMMENT_END.match(html, i + 4)
        return cm.end() if cm else -1
    if c == "!" or c == "?":  # doctype, bogus comment, marked section, <?...>
        return html.find(">", i + 2) + 1 or -1
    data("<")  # a '<' that opens no markup
    return i + 1


def _tokenize(html: str, h) -> None:
    """Tokenize ``html`` into calls on handler ``h`` (see the module docstring)."""
    i, n = 0, len(html)
    find = html.find
    data, start, startend, end = h.handle_data, h.handle_starttag, h.handle_startendtag, h.handle_endtag
    while i < n:
        j = find("<", i)
        if j < 0:
            j = n
        if i < j:
            chunk = html[i:j]
            data(_unescape(chunk) if "&" in chunk else chunk)
        if j == n:
            return
        m = _SIMPLE_TAG.match(html, j)
        if m is not None:
            i = m.end()
            if m[3]:
                end(m[3].lower())
                continue
            tag, attrs, self_closing = m[1].lower(), [], m[2]
        elif html[j + 1 : j + 2] in _ASCII_LETTERS:
            st = _start_tag(html, j)
            if st is None:
                return
            i, tag, attrs, self_closing = st
        else:
            i = _skip_markup(html, j, data, end)
            if i < 0:
                return
            continue
        if self_closing:
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
            i = cm.end()


def segment_html(html: str) -> list[_Block]:
    """Parse HTML into classified text blocks (document order)."""
    p = _BlockParser()
    _tokenize(html, p)
    if p._table_depth:  # a table still open at EOF
        p._end_table()
    p._flush()
    return p.blocks

