"""Minimal genuine-PDF writer + tokenizer over the word/line/rect domain.

The reader for the reference's flagship input (genuine PDFs, reference
extractor.py:101 ``pdfplumber.open``), built from PUBLIC ISO 32000-1
knowledge only:

- ``pages_to_pdf_bytes(pages)`` serializes the pipeline's page dicts
  ({width, height, words, lines, rects}) into a genuine ``%PDF-1.4``
  file: uncompressed content streams, ``Tf``/``Tz``/``Tm``/``Tj`` text
  operators (§9.4), ``m``/``l``/``re``/``S`` path operators (§8.5), a
  Type0 / Identity-H / CIDFontType2 font pair (§9.7) with declared
  ``/DW``, ``/Ascent``, ``/Descent`` metrics, a real cross-reference
  table with exact byte offsets, and a trailer (§7.5).
- ``parse_pdf_bytes(payload)`` tokenizes such a file back into page
  dicts whose ``words`` is one ``WordColumns`` (functions/pdf_words.py):
  the fields pdfplumber's
  ``extract_words(extra_attrs=['fontname','size','height'])`` yields,
  as columns, with no per-word dict — so every downstream geometry
  operator runs on genuine PDF bytes.

Glyph-box math (both directions, straight from the spec):

- A word's device-space box is derived from the text matrix ``Tm``,
  font size ``s`` (``Tf``), horizontal scaling ``Tz`` and the font's
  declared metrics: advance = n_cids * s * (DW/1000) * (Tz/100),
  ascent/descent extents = s * Ascent/1000 and s * |Descent|/1000.
- Two font resources cover the corpus's two box-height regimes:
  ``/F0`` (Ascent 1000 / Descent -200 -> box height 1.2 em) and
  ``/F1`` (Ascent 800 / Descent -200 -> 1.0 em). The writer picks the
  font whose metrics reproduce the requested ``bottom - top`` (or, for
  rotated words, ``x1 - x0``) exactly and errors on any other ratio —
  geometry the format can't round-trip is refused, never silently
  approximated.
- Rotated words (``upright: False``) use the 90-degree-CCW text matrix
  ``[0 1 -1 0 tx ty]``; the parser recognizes the rotated matrix and
  inverts the same math.
- All strings are hex strings of UTF-16BE code units — the genuine
  Identity-H CID encoding (§9.7.5.2), which also covers the corpus's
  Japanese text with zero escaping concerns.

Feature boundary. Stream filters: ``/FlateDecode`` (zlib),
``/LZWDecode``, ``/ASCIIHexDecode``, ``/ASCII85Decode``,
``/RunLengthDecode``, and /Filter ARRAYS applying them left-to-right
(§7.4.1), with PNG predictors (``/DecodeParms /Predictor 10-15``,
§7.4.4.4 — near-universal on xref streams in the wild) reversed per
the matching /DecodeParms entry. PDF 1.5+ structure (§7.5.7-7.5.8):
``/Type /XRef`` cross-reference streams (W-array typed entries,
``/Prev`` chains) decode as the primary object locator and ``/Type
/ObjStm`` containers expand so member objects resolve like direct
ones; the writer's ``pdf15=True`` mode emits exactly that layout so
the path is round-trip-tested. One content interpreter reads the
writer's streams and ordinary wild-PDF ones alike; the word blocks
``[Tf] [Tz] Tm string Tj`` this package's writers emit run as one regex
step inside its operator loop. It reads hex strings (§7.3.4.3), literal
strings with escapes (§7.3.4.2), ``TJ`` arrays with kerning, simple
Type1/TrueType fonts (embedded ``/FirstChar``+``/Widths``, /Encoding
/Differences via an AGL subset, cp1252/MacRoman bases; space-split
into words with exact per-run positions), standard-14 faces WITHOUT widths for the carried
AFM tables (Courier family, Helvetica, Times-Roman — §9.6.2.2),
Type0/Identity-H CID fonts with /ToUnicode CMaps and per-CID /W
widths, full affine CTM composition with ``q``/``Q`` stacks, form
XObjects (recursed; image XObjects are text-free no-ops), inline
images (excised), marked-content operators, the
``Td``/``TD``/``T*``/``TL`` line-positioning family, ``'``/``"``
move-and-show, ``Tc``/``Tw`` spacing, curve flattening, and the
common color/state no-ops. Standard-security encryption with an
EMPTY user password — the wild "permissions-only" case — decrypts in
place in every deployed revision: RC4 (§7.6.3, /V 1-2 /R 2-3),
AESV2 crypt filters (/V 4 /R 4, §7.6.5), and AESV3 (/V 5 /R 5-6,
ISO 32000-2 §7.6.4; AES via functions/aes_cipher.py, FIPS 197).
Anything further — DCT/CCITT/JBIG2 filters, non-empty user passwords,
Type3 fonts, uncarried standard-14 faces, nonzero text rise,
vertical writing, glyph-id CID text without a
CMap — raises ``UnsupportedPdfError``, which the extractor turns into
an error row carrying the named construct.
Honest about what this tokenizer is: a text+ruling-geometry reader,
not a general PDF renderer. The object scanner is stream-aware: each
stream's extent is sliced by its declared ``/Length`` before looking
for ``endobj``, so compressed bytes that happen to contain that
keyword no longer truncate the object.
"""

from __future__ import annotations

import binascii
import codecs
import re
from itertools import cycle, islice

from pdf_extractor_ray.functions.pdf_words import WordColumns

__all__ = ["UnsupportedPdfError", "pages_to_pdf_bytes", "parse_pdf_bytes"]


class UnsupportedPdfError(ValueError):
    """Raised when a %PDF payload uses features outside the subset this
    tokenizer reads; the message names the construct."""


# Font metrics table shared by writer and parser defaults; the parser
# still reads /Ascent, /Descent and /DW from the file itself, so a
# foreign PDF with other declared metrics parses correctly.
_FONTS = {
    "F0": {"ascent": 1000, "descent": -200, "dw": 1000},
    "F1": {"ascent": 800, "descent": -200, "dw": 1000},
}
_EPS = 1e-6


def _fmt(v: float) -> str:
    """Shortest exact-enough PDF number: integers bare, else <=4dp."""
    if abs(v - round(v)) < _EPS:
        return str(int(round(v)))
    return f"{v:.4f}".rstrip("0").rstrip(".")


def _utf16_hex(text: str) -> tuple[str, int]:
    b = text.encode("utf-16-be")
    return b.hex().upper(), len(b) // 2


def _pick_font(ratio: float) -> str | None:
    for name, m in _FONTS.items():
        if abs(ratio - (m["ascent"] - m["descent"]) / 1000.0) < 1e-4:
            return name
    return None


def _word_ops(w: dict, page_h: float, state: dict) -> str:
    """Text operators for one word (inside BT..ET). `state` carries the
    graphics-state registers (font/size/Tz) across words so unchanged
    Tf/Tz are not re-emitted — the PDF text state persists between Tj
    ops (§9.3), which shrinks the stream ~35% and the parse work with
    it."""
    s = float(w["size"])
    x0, x1, top, bottom = float(w["x0"]), float(w["x1"]), float(w["top"]), float(w["bottom"])
    hex_str, n_cids = _utf16_hex(w["text"])
    upright = w.get("upright", True) is not False
    if upright:
        font = _pick_font((bottom - top) / s)
        if font is None:
            raise ValueError(
                f"no font metrics reproduce box height {bottom - top} at size {s} "
                f"(word {w['text']!r}); supported height/size ratios: 1.2, 1.0"
            )
        desc = -_FONTS[font]["descent"] / 1000.0
        baseline = page_h - bottom + desc * s
        tz = 100.0 * (x1 - x0) / (n_cids * s) if n_cids else 100.0
        tm = f"1 0 0 1 {_fmt(x0)} {_fmt(baseline)} Tm"
    else:
        font = _pick_font((x1 - x0) / s)
        if font is None:
            raise ValueError(
                f"rotated word {w['text']!r}: no font metrics reproduce box width "
                f"{x1 - x0} at size {s}; supported width/size ratios: 1.2, 1.0"
            )
        desc = -_FONTS[font]["descent"] / 1000.0
        tx = x1 - desc * s
        ty = page_h - bottom
        tz = 100.0 * (bottom - top) / (n_cids * s) if n_cids else 100.0
        tm = f"0 1 -1 0 {_fmt(tx)} {_fmt(ty)} Tm"
    ops = []
    if state.get("font") != (font, s):
        ops.append(f"/{font} {_fmt(s)} Tf")
        state["font"] = (font, s)
    tz_s = _fmt(tz)
    if state.get("tz") != tz_s:
        ops.append(f"{tz_s} Tz")
        state["tz"] = tz_s
    ops.append(f"{tm}\n<{hex_str}> Tj")
    return "\n".join(ops)


def _page_content(page: dict) -> bytes:
    h = float(page["height"])
    parts: list[str] = []
    for ln in page.get("lines", []):
        parts.append(
            f"{_fmt(ln['x0'])} {_fmt(h - ln['top'])} m "
            f"{_fmt(ln['x1'])} {_fmt(h - ln['bottom'])} l S"
        )
    for r in page.get("rects", []):
        parts.append(
            f"{_fmt(r['x0'])} {_fmt(h - r['bottom'])} "
            f"{_fmt(r['x1'] - r['x0'])} {_fmt(r['bottom'] - r['top'])} re S"
        )
    if page.get("words"):
        parts.append("BT")
        state: dict = {}
        for w in page["words"]:
            parts.append(_word_ops(w, h, state))
        parts.append("ET")
    return "\n".join(parts).encode("utf-8")


def _font_objects(first_num: int) -> tuple[list[bytes], dict[str, int]]:
    """Three objects per font: Type0, CIDFontType2 descendant, and
    FontDescriptor (ISO 32000-1 §9.7.4-9.7.6, Identity-H §9.7.5.2)."""
    objs: list[bytes] = []
    refs: dict[str, int] = {}
    num = first_num
    for name, m in _FONTS.items():
        refs[name] = num
        objs.append(
            f"<< /Type /Font /Subtype /Type0 /BaseFont /{name}Mono "
            f"/Encoding /Identity-H /DescendantFonts [{num + 1} 0 R] >>".encode()
        )
        objs.append(
            f"<< /Type /Font /Subtype /CIDFontType2 /BaseFont /{name}Mono "
            "/CIDSystemInfo << /Registry (Adobe) /Ordering (Identity) /Supplement 0 >> "
            f"/FontDescriptor {num + 2} 0 R /DW {m['dw']} >>".encode()
        )
        objs.append(
            f"<< /Type /FontDescriptor /FontName /{name}Mono /Flags 4 "
            f"/FontBBox [0 {m['descent']} {m['dw']} {m['ascent']}] /ItalicAngle 0 "
            f"/Ascent {m['ascent']} /Descent {m['descent']} /CapHeight {m['ascent']} "
            "/StemV 80 >>".encode()
        )
        num += 3
    return objs, refs


def pages_to_pdf_bytes(
    pages: list[dict],
    *,
    pdf15: bool = False,
    xref_predictor: bool = False,
    encrypt: str | None = None,
) -> bytes:
    """Serialize page dicts into a genuine PDF byte stream.

    Default: ``%PDF-1.4`` — uncompressed content streams, classic
    ``xref`` table + trailer. ``pdf15=True``: ``%PDF-1.5`` modern
    layout (ISO 32000-1 §7.5.7-7.5.8) — every non-stream object
    (catalog, pages tree, fonts, page dicts) packed into ONE
    ``/Type /ObjStm`` compressed container, ``/FlateDecode`` content
    streams, and a ``/Type /XRef`` cross-reference STREAM with W-array
    typed entries instead of a trailer; ``xref_predictor=True``
    additionally encodes the xref entries with PNG Up predictor 12
    (``/DecodeParms``), the wild-PDF norm.

    ``encrypt`` ("rc4-40" or "rc4-128") applies the standard security
    handler (§7.6.3) with an EMPTY user password — the wild
    "permissions-only" encryption: deterministic /ID from the content
    md5, /O from the fixed owner password, every stream RC4-encrypted
    with its per-object key. Classic layout only.

    Refuses pages carrying pre-detected ``tables``/``boxes`` hints —
    real PDFs have no hint channel; draw ruling lines / border rects
    instead and let the geometry detectors (functions/layout.py) find
    them, exactly as they would in a wild PDF.
    """
    if encrypt is not None and pdf15:
        raise ValueError("encrypt is supported for the classic layout only")
    if encrypt not in (None, "rc4-40", "rc4-128", "aes-128", "aes-256", "aes-256-r5"):
        raise ValueError(f"unknown encrypt mode {encrypt!r}")
    for p in pages:
        if p.get("tables") or p.get("boxes"):
            raise ValueError(
                "page carries tables/boxes hints; genuine PDFs can't express those "
                "— render ruling lines/rects and rely on layout detection"
            )
    # object 1: catalog, object 2: pages root, 3..: fonts, then
    # (page, contents) pairs.
    font_objs, font_refs = _font_objects(3)
    first_page_num = 3 + len(font_objs)
    font_res = " ".join(f"/{n} {r} 0 R" for n, r in font_refs.items())
    bodies: list[bytes] = [b"", b""]  # placeholders for 1 and 2
    bodies.extend(font_objs)
    kids: list[int] = []
    content_nums: set[int] = set()
    for i, page in enumerate(pages):
        page_num = first_page_num + 2 * i
        content = _page_content(page)
        kids.append(page_num)
        bodies.append(
            (
                f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {_fmt(float(page['width']))} "
                f"{_fmt(float(page['height']))}] /Resources << /Font << {font_res} >> >> "
                f"/Contents {page_num + 1} 0 R >>"
            ).encode()
        )
        content_nums.add(page_num + 1)
        if pdf15:
            import zlib

            comp = zlib.compress(content)
            bodies.append(
                f"<< /Length {len(comp)} /Filter /FlateDecode >>\nstream\n".encode()
                + comp
                + b"\nendstream"
            )
        else:
            bodies.append(
                f"<< /Length {len(content)} >>\nstream\n".encode() + content + b"\nendstream"
            )
    bodies[0] = b"<< /Type /Catalog /Pages 2 0 R >>"
    bodies[1] = (
        f"<< /Type /Pages /Kids [{' '.join(f'{k} 0 R' for k in kids)}] "
        f"/Count {len(kids)} >>"
    ).encode()

    if pdf15:
        return _emit_pdf15(bodies, content_nums, xref_predictor)

    trailer_extra = ""
    if encrypt is not None:
        import hashlib

        id0 = hashlib.md5(b"".join(bodies)).digest()  # deterministic /ID
        p = -44  # print allowed, modify/copy/annotate denied
        if encrypt in ("rc4-40", "rc4-128", "aes-128"):
            r, v, nbits = {
                "rc4-40": (2, 1, 40),
                "rc4-128": (3, 2, 128),
                "aes-128": (4, 4, 128),  # AESV2 crypt filter (§7.6.5)
            }[encrypt]
            nbytes = nbits // 8
            o = _owner_value(b"owner", b"", r, nbytes)
            key = _crypt_key(b"", o, p, id0, r, nbytes)
            u = _user_value(key, id0, r)
            enc_dict = (
                f"<< /Filter /Standard /V {v} /R {r} /Length {nbits} /P {p} "
                f"/O <{o.hex()}> /U <{u.hex()}> >>"
            )
            if encrypt == "aes-128":
                enc_dict = (
                    f"<< /Filter /Standard /V 4 /R 4 /Length 128 /P {p} "
                    f"/CF << /StdCF << /CFM /AESV2 /AuthEvent /DocOpen /Length 16 >> >> "
                    f"/StmF /StdCF /StrF /StdCF "
                    f"/O <{o.hex()}> /U <{u.hex()}> >>"
                )
        else:  # aes-256 / aes-256-r5: AESV3, /V 5 (ISO 32000-2 §7.6.4)
            from pdf_extractor_ray.functions.aes_cipher import (
                aes_cbc_encrypt,
                aes_ecb_encrypt,
            )

            r5 = encrypt == "aes-256-r5"  # Adobe ext. level 3: single SHA-256 KDF
            r = 5 if r5 else 6

            def khash(pwd: bytes, salt: bytes, udata: bytes = b"") -> bytes:
                if r5:
                    return hashlib.sha256(pwd + salt + udata).digest()
                return _hash_r6(pwd, salt, udata)

            key = hashlib.sha256(b"filekey" + id0).digest()  # deterministic
            vs = hashlib.md5(b"vs" + id0).digest()[:8]
            ks = hashlib.md5(b"ks" + id0).digest()[:8]
            u = khash(b"", vs) + vs + ks
            ue = aes_cbc_encrypt(khash(b"", ks), b"\0" * 16, key, pad=False)
            ovs = hashlib.md5(b"ovs" + id0).digest()[:8]
            oks = hashlib.md5(b"oks" + id0).digest()[:8]
            o = khash(b"owner", ovs, u) + ovs + oks
            oe = aes_cbc_encrypt(khash(b"owner", oks, u), b"\0" * 16, key, pad=False)
            perms_plain = (
                (p & 0xFFFFFFFF).to_bytes(4, "little")
                + b"\xff\xff\xff\xff"
                + b"T"  # EncryptMetadata true
                + b"adb"
                + hashlib.md5(b"perms" + id0).digest()[:4]
            )
            perms = aes_ecb_encrypt(key, perms_plain)
            enc_dict = (
                f"<< /Filter /Standard /V 5 /R {r} /Length 256 /P {p} "
                f"/CF << /StdCF << /CFM /AESV3 /AuthEvent /DocOpen /Length 32 >> >> "
                f"/StmF /StdCF /StrF /StdCF "
                f"/O <{o.hex()}> /U <{u.hex()}> /OE <{oe.hex()}> /UE <{ue.hex()}> "
                f"/Perms <{perms.hex()}> >>"
            )
        enc_pieces = []
        for i, body in enumerate(bodies):
            span = _stream_span(body)
            if span:
                if encrypt.startswith("rc4"):
                    okey = _object_key(key, i + 1, 0)
                    body = (
                        body[: span[0]]
                        + _rc4(okey, body[span[0] : span[1]])
                        + body[span[1] :]
                    )
                else:
                    from pdf_extractor_ray.functions.aes_cipher import aes_cbc_encrypt

                    okey = key if encrypt.startswith("aes-256") else _object_key(key, i + 1, 0, aes=True)
                    # deterministic per-object IV (fixtures, not secrecy)
                    iv = hashlib.md5(b"iv" + id0 + str(i + 1).encode()).digest()
                    ct = iv + aes_cbc_encrypt(okey, iv, body[span[0] : span[1]])
                    body = _patch_length(body[: span[0]] + ct + body[span[1] :], len(ct))
            enc_pieces.append(body)
        bodies = enc_pieces
        bodies.append(enc_dict.encode())
        trailer_extra = f" /Encrypt {len(bodies)} 0 R /ID [<{id0.hex()}> <{id0.hex()}>]"

    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets: list[int] = []
    for i, body in enumerate(bodies):
        offsets.append(len(out))
        out += f"{i + 1} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_at = len(out)
    out += f"xref\n0 {len(bodies) + 1}\n0000000000 65535 f \n".encode()
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    out += (
        f"trailer\n<< /Size {len(bodies) + 1} /Root 1 0 R{trailer_extra} >>\n"
        f"startxref\n{xref_at}\n%%EOF\n"
    ).encode()
    return bytes(out)


def _emit_pdf15(bodies: list[bytes], content_nums: set[int], xref_predictor: bool) -> bytes:
    """Emit the modern (§7.5.7-7.5.8) file layout: non-stream objects
    in one ObjStm, direct content-stream objects, and an XRef stream
    (W = [1 4 2]: 1-byte type, 4-byte offset/container, 2-byte
    gen/index) as the only cross-reference — no classic trailer."""
    import zlib

    objstm_num = len(bodies) + 1
    xref_num = len(bodies) + 2
    members = [n for n in range(1, len(bodies) + 1) if n not in content_nums]

    header_parts: list[str] = []
    data_parts: list[bytes] = []
    cur = 0
    member_index: dict[int, int] = {}
    for idx, n in enumerate(members):
        member_index[n] = idx
        header_parts.append(f"{n} {cur}")
        data_parts.append(bodies[n - 1] + b"\n")
        cur += len(bodies[n - 1]) + 1
    header = (" ".join(header_parts) + "\n").encode()
    stm_plain = header + b"".join(data_parts)
    stm_comp = zlib.compress(stm_plain)
    objstm_body = (
        f"<< /Type /ObjStm /N {len(members)} /First {len(header)} "
        f"/Length {len(stm_comp)} /Filter /FlateDecode >>\nstream\n".encode()
        + stm_comp
        + b"\nendstream"
    )

    out = bytearray(b"%PDF-1.5\n%\xe2\xe3\xcf\xd3\n")
    offsets: dict[int, int] = {}
    for n in sorted(content_nums):
        offsets[n] = len(out)
        out += f"{n} 0 obj\n".encode() + bodies[n - 1] + b"\nendobj\n"
    offsets[objstm_num] = len(out)
    out += f"{objstm_num} 0 obj\n".encode() + objstm_body + b"\nendobj\n"
    xref_at = len(out)

    size = xref_num + 1
    rows: list[bytes] = []
    for n in range(size):
        if n == 0:
            rows.append(b"\x00" + (0).to_bytes(4, "big") + (0xFFFF).to_bytes(2, "big"))
        elif n in member_index:
            rows.append(b"\x02" + objstm_num.to_bytes(4, "big") + member_index[n].to_bytes(2, "big"))
        elif n == xref_num:
            rows.append(b"\x01" + xref_at.to_bytes(4, "big") + (0).to_bytes(2, "big"))
        else:
            rows.append(b"\x01" + offsets[n].to_bytes(4, "big") + (0).to_bytes(2, "big"))
    parms = ""
    if xref_predictor:
        row_w = 7
        enc = bytearray()
        prev = bytes(row_w)
        for row in rows:  # PNG Up (tag 2) per row: delta against previous row
            enc += b"\x02" + bytes((row[i] - prev[i]) & 0xFF for i in range(row_w))
            prev = row
        xref_data = zlib.compress(bytes(enc))
        parms = f"/DecodeParms << /Predictor 12 /Columns {row_w} >> "
    else:
        xref_data = zlib.compress(b"".join(rows))
    out += (
        f"{xref_num} 0 obj\n<< /Type /XRef /Size {size} /W [1 4 2] /Root 1 0 R "
        f"{parms}/Length {len(xref_data)} /Filter /FlateDecode >>\nstream\n".encode()
        + xref_data
        + b"\nendstream\nendobj\n"
    )
    out += f"startxref\n{xref_at}\n%%EOF\n".encode()
    return bytes(out)


def _lit_escape(text: str) -> str:
    return text.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def _asciihex_encode(data: bytes) -> bytes:
    return data.hex().encode("ascii") + b">"


def _ascii85_encode(data: bytes) -> bytes:
    out = bytearray()
    for i in range(0, len(data) - len(data) % 4, 4):
        acc = int.from_bytes(data[i : i + 4], "big")
        if acc == 0:
            out.append(0x7A)  # 'z' zero-group shorthand
            continue
        digits = []
        for _ in range(5):
            acc, rem = divmod(acc, 85)
            digits.append(rem + 0x21)
        out += bytes(reversed(digits))
    tail = data[len(data) - len(data) % 4 :]
    if tail:
        acc = int.from_bytes(tail + b"\0" * (4 - len(tail)), "big")
        digits = []
        for _ in range(5):
            acc, rem = divmod(acc, 85)
            digits.append(rem + 0x21)
        out += bytes(reversed(digits))[: len(tail) + 1]
    return bytes(out) + b"~>"


def _rle_encode(data: bytes) -> bytes:
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        run = 1
        while i + run < n and run < 128 and data[i + run] == data[i]:
            run += 1
        if run >= 3:
            out.append(257 - run)
            out.append(data[i])
            i += run
            continue
        # literal chunk: until the next >=3 repeat run or 128 bytes
        j = i
        while j < n and j - i < 128:
            if j + 2 < n and data[j] == data[j + 1] == data[j + 2]:
                break
            j += 1
        out.append(j - i - 1)
        out += data[i:j]
        i = j
    out.append(128)  # EOD
    return bytes(out)


# writer-side stream_filter options for pages_to_pdf_bytes_wild: the
# /Filter dict fragment and the encoder pipeline for each
_WILD_STREAM_FILTERS: dict[str, tuple[str, object]] = {}


def _register_wild_filters() -> None:
    import zlib

    _WILD_STREAM_FILTERS.update(
        {
            "flate": ("/Filter /FlateDecode ", zlib.compress),
            "a85+flate": (
                "/Filter [/ASCII85Decode /FlateDecode] ",
                lambda d: _ascii85_encode(zlib.compress(d)),
            ),
            "ahx": ("/Filter /ASCIIHexDecode ", _asciihex_encode),
            "rl": ("/Filter /RunLengthDecode ", _rle_encode),
            "ahx+rl": (
                "/Filter [/ASCIIHexDecode /RunLengthDecode] ",
                lambda d: _asciihex_encode(_rle_encode(d)),
            ),
        }
    )


def pages_to_pdf_bytes_wild(pages: list[dict], *, stream_filter: str | None = None) -> bytes:
    """Serialize page dicts in WILD style — the grammar ordinary PDF
    producers emit, exercising the content interpreter's token loop
    around its word-block lane:

    - space-free ASCII upright words use simple TrueType fonts (/S0 or
      /S1 by box-height ratio, uniform /Widths 500) shown as LITERAL
      strings with escapes; Tz encodes the exact word width;
    - non-ASCII / rotated / space-containing words keep the
      Type0/Identity-H hex path (the interpreter space-splits
      simple-font show strings, so a space inside a word's text would
      change the parsed word list);
    - the content wraps in a marked-content sequence (/Doc <</MCID 0>>
      BDC ... EMC) and a no-op q/cm/Q pair, which preclean and the
      token loop carry; the word blocks inside run in the lane.

    Parses back to the same page dicts as pages_to_pdf_bytes (modulo
    fontname labels), so the extraction goldens are encoding-blind.

    ``stream_filter`` encodes the page content streams through a wild
    transport filter (or chain): ``"flate"``, ``"a85+flate"`` (the
    classic mail-safe chain), ``"ahx"``, ``"rl"``, ``"ahx+rl"``.
    """
    if stream_filter is not None:
        if not _WILD_STREAM_FILTERS:
            _register_wild_filters()
        if stream_filter not in _WILD_STREAM_FILTERS:
            raise ValueError(f"unknown stream_filter {stream_filter!r}")
    for p in pages:
        if p.get("tables") or p.get("boxes"):
            raise ValueError("page carries tables/boxes hints (see pages_to_pdf_bytes)")
    # objects: 1 catalog, 2 pages, 3.. CID fonts (6), then simple fonts
    # S0/S1 (font + descriptor each), then (page, contents) pairs
    font_objs, font_refs = _font_objects(3)
    simple_first = 3 + len(font_objs)
    simple_objs: list[bytes] = []
    simple_refs: dict[str, int] = {}
    widths = " ".join("500" for _ in range(95))
    for idx, (sname, m) in enumerate((("S0", _FONTS["F0"]), ("S1", _FONTS["F1"]))):
        num = simple_first + 2 * idx
        simple_refs[sname] = num
        simple_objs.append(
            (
                f"<< /Type /Font /Subtype /TrueType /BaseFont /{sname}Mono "
                f"/FirstChar 32 /LastChar 126 /Widths [{widths}] "
                f"/FontDescriptor {num + 1} 0 R >>"
            ).encode()
        )
        simple_objs.append(
            (
                f"<< /Type /FontDescriptor /FontName /{sname}Mono /Flags 4 "
                f"/FontBBox [0 {m['descent']} 1000 {m['ascent']}] /ItalicAngle 0 "
                f"/Ascent {m['ascent']} /Descent {m['descent']} "
                f"/CapHeight {m['ascent']} /StemV 80 >>"
            ).encode()
        )
    first_page_num = simple_first + len(simple_objs)
    res = " ".join(f"/{n} {r} 0 R" for n, r in {**font_refs, **simple_refs}.items())

    def wild_word_ops(w: dict, page_h: float) -> str:
        text = w["text"]
        s = float(w["size"])
        x0, x1, top, bottom = float(w["x0"]), float(w["x1"]), float(w["top"]), float(w["bottom"])
        upright = w.get("upright", True) is not False
        # space-free ASCII only: the interpreter space-splits
        # simple-font show strings into words (wild-producer semantics),
        # so a word whose TEXT contains a space must keep the CID hex
        # path or it would parse back as several words / vanish
        if upright and text and all(32 < ord(ch) <= 126 for ch in text):
            font = _pick_font((bottom - top) / s)
            if font is None:
                raise ValueError(f"no metrics reproduce box height for {text!r}")
            sfont = "S0" if font == "F0" else "S1"
            desc = -_FONTS[font]["descent"] / 1000.0
            baseline = page_h - bottom + desc * s
            tz = 100.0 * (x1 - x0) / (len(text) * 0.5 * s)
            return (
                f"/{sfont} {_fmt(s)} Tf {_fmt(tz)} Tz "
                f"1 0 0 1 {_fmt(x0)} {_fmt(baseline)} Tm ({_lit_escape(text)}) Tj"
            )
        return _word_ops(w, page_h, {})  # CID hex path, stateless emission

    bodies: list[bytes] = [b"", b""]
    bodies.extend(font_objs)
    bodies.extend(simple_objs)
    kids: list[int] = []
    for i, page in enumerate(pages):
        page_num = first_page_num + 2 * i
        h = float(page["height"])
        parts = ["q 1 0 0 1 0 0 cm", "/Doc <</MCID 0>> BDC"]
        for ln in page.get("lines", []):
            parts.append(
                f"{_fmt(ln['x0'])} {_fmt(h - ln['top'])} m "
                f"{_fmt(ln['x1'])} {_fmt(h - ln['bottom'])} l S"
            )
        for r in page.get("rects", []):
            parts.append(
                f"{_fmt(r['x0'])} {_fmt(h - r['bottom'])} "
                f"{_fmt(r['x1'] - r['x0'])} {_fmt(r['bottom'] - r['top'])} re S"
            )
        if page.get("words"):
            parts.append("BT")
            for w in page["words"]:
                parts.append(wild_word_ops(w, h))
            parts.append("ET")
        parts.append("EMC")
        parts.append("Q")
        content = "\n".join(parts).encode("utf-8")
        filt = ""
        if stream_filter is not None:
            filt, enc = _WILD_STREAM_FILTERS[stream_filter]
            content = enc(content)
        kids.append(page_num)
        bodies.append(
            (
                f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 {_fmt(float(page['width']))} "
                f"{_fmt(float(page['height']))}] /Resources << /Font << {res} >> >> "
                f"/Contents {page_num + 1} 0 R >>"
            ).encode()
        )
        bodies.append(
            f"<< {filt}/Length {len(content)} >>\nstream\n".encode()
            + content
            + b"\nendstream"
        )
    bodies[0] = b"<< /Type /Catalog /Pages 2 0 R >>"
    bodies[1] = (
        f"<< /Type /Pages /Kids [{' '.join(f'{k} 0 R' for k in kids)}] "
        f"/Count {len(kids)} >>"
    ).encode()
    out = bytearray(b"%PDF-1.4\n%\xe2\xe3\xcf\xd3\n")
    offsets: list[int] = []
    for i, body in enumerate(bodies):
        offsets.append(len(out))
        out += f"{i + 1} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_at = len(out)
    out += f"xref\n0 {len(bodies) + 1}\n0000000000 65535 f \n".encode()
    for off in offsets:
        out += f"{off:010d} 00000 n \n".encode()
    out += (
        f"trailer\n<< /Size {len(bodies) + 1} /Root 1 0 R >>\n"
        f"startxref\n{xref_at}\n%%EOF\n"
    ).encode()
    return bytes(out)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_OBJ_HDR_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj\b")
_REF_RE = re.compile(rb"(\d+)\s+\d+\s+R")
# pinned-integer /Length (see _stream_of for the backtracking trap)
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?![0-9])(?!\s+\d+\s+R)")
_NUM_RE = re.compile(rb"/(\w+)\s+(-?[\d.]+)")
# literal-string body without nested parens; an escape takes any byte
# (the patterns compile with re.S), so a backslash-EOL continuation
# (§7.3.4.2) stays inside the string
_LIT_BODY = rb"[^()\\]*+(?:\\.[^()\\]*+)*+"
_LIT = rb"\((" + _LIT_BODY + rb")\)"
_TOKEN_RE = re.compile(
    rb"<([0-9A-Fa-f\s]*)>"            # hex string
    rb"|" + _LIT +                    # literal string (non-nested)
    rb"|(-?(?:\d+\.?\d*|\.\d+))"      # number
    rb"|/([^\s/<>\[\]()]+)"           # name
    rb"|(\[|\])"                      # array delims
    rb"|(\()"                         # nested literal opener (unsupported)
    rb"|([A-Za-z'\"*]+)",             # operator
    re.S,
)

_LIT_ESCAPES = {
    ord("n"): b"\n", ord("r"): b"\r", ord("t"): b"\t",
    ord("b"): b"\b", ord("f"): b"\f",
    ord("("): b"(", ord(")"): b")", ord("\\"): b"\\",
}


def _decode_literal(s: bytes) -> bytes:
    """PDF literal-string body (outer parens stripped) -> raw bytes
    (§7.3.4.2): named escapes, 1-3 digit octal, line continuations;
    an unknown escape drops the backslash per spec."""
    if b"\\" not in s:
        return s
    out = bytearray()
    i = 0
    n = len(s)
    while i < n:
        c = s[i]
        if c != 0x5C:  # backslash
            out.append(c)
            i += 1
            continue
        i += 1
        if i >= n:
            break
        c = s[i]
        esc = _LIT_ESCAPES.get(c)
        if esc is not None:
            out += esc
            i += 1
        elif 0x30 <= c <= 0x37:  # octal, up to 3 digits
            j = i
            while j < min(i + 3, n) and 0x30 <= s[j] <= 0x37:
                j += 1
            out.append(int(s[i:j], 8) & 0xFF)
            i = j
        elif c in (0x0A, 0x0D):  # line continuation
            i += 2 if s[i : i + 2] == b"\r\n" else 1
        else:  # unknown escape: backslash dropped
            out.append(c)
            i += 1
    return bytes(out)


def _unhex(s: bytes) -> bytes:
    """PDF hex-string body -> raw bytes (§7.3.4.3): white space is
    ignored and an odd final digit is taken as followed by 0."""
    try:
        return binascii.unhexlify(s)
    except binascii.Error:  # white space, an odd digit count or a non-hex byte
        s = s.translate(None, b" \t\n\r\f\v")
        return binascii.unhexlify(s + b"0" if len(s) & 1 else s)


def _translate(tx: float, ty: float, m: tuple[float, ...]) -> tuple[float, ...]:
    a, b, c, d, e, f = m
    return (a, b, c, d, tx * a + ty * c + e, tx * b + ty * d + f)


def _advance_tm(m: tuple[float, ...], dx: float) -> tuple[float, ...]:
    a, b, c, d, e, f = m
    return (a, b, c, d, e + dx * a, f + dx * b)


_IDM = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)


def _matmul(m1: tuple[float, ...], m2: tuple[float, ...]) -> tuple[float, ...]:
    """PDF matrix composition m1 x m2 (row-vector convention §8.3.4):
    points transform through m1 first, then m2."""
    a1, b1, c1, d1, e1, f1 = m1
    a2, b2, c2, d2, e2, f2 = m2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
        e1 * a2 + f1 * c2 + e2,
        e1 * b2 + f1 * d2 + f2,
    )


def _apply(m: tuple[float, ...], x: float, y: float) -> tuple[float, float]:
    a, b, c, d, e, f = m
    return (x * a + y * c + e, x * b + y * d + f)


def _object_end(payload: bytes, body_start: int) -> int:
    """End offset (start of ``endobj``) of the object whose body starts
    at ``body_start``. Stream-aware: a stream's extent is sliced by its
    declared /Length first, so stream bytes containing ``endobj`` or
    ``stream`` keywords can't truncate the object."""
    e = payload.find(b"endobj", body_start)
    s = payload.find(b"stream", body_start)
    if s != -1 and (e == -1 or s < e):
        data_start = s + len(b"stream")
        if payload[data_start : data_start + 2] == b"\r\n":
            data_start += 2
        elif payload[data_start : data_start + 1] == b"\n":
            data_start += 1
        lm = _LENGTH_RE.search(payload, body_start, s)
        scan_from = data_start + int(lm.group(1)) if lm else data_start
        es = payload.find(b"endstream", scan_from)
        if es == -1:
            raise UnsupportedPdfError("unterminated stream")
        e = payload.find(b"endobj", es)
    if e == -1:
        raise UnsupportedPdfError("unterminated object")
    return e


def _scan_objects(payload: bytes, gens: dict[int, int]) -> dict[int, bytes]:
    """Sequential whole-file object scan (works without any xref); each
    object's generation number goes into ``gens``."""
    objs: dict[int, bytes] = {}
    pos = 0
    while True:
        m = _OBJ_HDR_RE.search(payload, pos)
        if m is None:
            break
        end = _object_end(payload, m.end())
        objs[int(m.group(1))] = payload[m.end() : end]
        gens[int(m.group(1))] = int(m.group(2))
        pos = end + len(b"endobj")
    return objs


def _object_at(payload: bytes, offset: int) -> tuple[int, int, bytes]:
    """(number, generation, body) of the indirect object at a byte
    offset (from an xref-stream type-1 entry)."""
    m = _OBJ_HDR_RE.match(payload, offset)
    if m is None:
        # tolerate leading whitespace before the header
        m = _OBJ_HDR_RE.search(payload, offset, offset + 32)
        if m is None:
            raise UnsupportedPdfError(f"no object at xref offset {offset}")
    end = _object_end(payload, m.end())
    return int(m.group(1)), int(m.group(2)), payload[m.end() : end]


def _expand_objstm(objs: dict[int, bytes]) -> None:
    """Expand every /Type /ObjStm container (§7.5.8) in place: the
    stream holds N (objnum, relative-offset) integer pairs up to
    /First, then the member object bodies. Members never overwrite a
    directly-scanned object of the same number."""
    for body in list(objs.values()):
        if not re.search(rb"/Type\s*/ObjStm\b", body):
            continue
        data = _decode_stream(body)
        if data is None:
            raise UnsupportedPdfError("ObjStm without stream data")
        dict_part = body[: body.find(b"stream")]  # keys live before the data
        n = int(_dict_num(dict_part, "N"))
        first = int(_dict_num(dict_part, "First"))
        try:
            nums = [int(t) for t in data[:first].split()]
        except ValueError as exc:
            raise UnsupportedPdfError(f"malformed ObjStm header: {exc}") from exc
        if len(nums) < 2 * n:
            raise UnsupportedPdfError("ObjStm header shorter than /N pairs")
        for i in range(n):
            onum, ooff = nums[2 * i], nums[2 * i + 1]
            oend = nums[2 * i + 3] if i + 1 < n else len(data) - first
            objs.setdefault(onum, data[first + ooff : first + oend])


def _parse_xref_stream(
    payload: bytes, objs: dict[int, bytes], at: int, seen: set[int], gens: dict[int, int]
) -> bool:
    """Decode the /Type /XRef cross-reference stream (§7.5.7) at byte
    offset ``at`` and load every live object it indexes into ``objs``
    and its generation number into ``gens`` (type 1 = direct offset,
    type 2 = inside an ObjStm). Follows /Prev chains. Returns False if
    the offset does not hold an xref stream (classic ``xref`` table
    files return False and use the scanner)."""
    if at in seen or at < 0 or at >= len(payload):
        return False
    seen.add(at)
    m = _OBJ_HDR_RE.match(payload, at) or _OBJ_HDR_RE.search(payload, at, at + 32)
    if m is None:
        return False  # classic xref table, not a stream
    body = payload[m.end() : _object_end(payload, m.end())]
    dict_part = body[: max(body.find(b"stream"), 0)]  # keys live before the data
    if not re.search(rb"/Type\s*/XRef\b", dict_part):
        return False
    wm = re.search(rb"/W\s*\[([^\]]*)\]", dict_part)
    if wm is None:
        raise UnsupportedPdfError("XRef stream without /W")
    w = [int(t) for t in wm.group(1).split()]
    if len(w) != 3:
        raise UnsupportedPdfError(f"XRef /W must have 3 fields, got {w}")
    size = int(_dict_num(dict_part, "Size"))
    im = re.search(rb"/Index\s*\[([^\]]*)\]", dict_part)
    index = [int(t) for t in im.group(1).split()] if im else [0, size]
    data = _decode_stream(body)
    if data is None:
        raise UnsupportedPdfError("XRef stream without data")
    row_w = sum(w)
    rows = [data[i : i + row_w] for i in range(0, len(data) - row_w + 1, row_w)]

    def field(row: bytes, k: int) -> int:
        s = sum(w[:k])
        return int.from_bytes(row[s : s + w[k]], "big") if w[k] else (1 if k == 0 else 0)

    ri = 0
    for start, count in zip(index[::2], index[1::2]):
        for onum in range(start, start + count):
            if ri >= len(rows):
                raise UnsupportedPdfError("XRef stream shorter than /Index")
            row = rows[ri]
            ri += 1
            typ = field(row, 0)
            if typ == 1 and onum not in objs:
                got, gen, obody = _object_at(payload, field(row, 1))
                objs[got], gens[got] = obody, gen
            # type 0 (free) ignored. type 2 (member of an ObjStm) needs
            # no action here: its container is a type-1 entry in this or
            # a /Prev section, and _expand_objstm opens every loaded
            # container — a genuinely dangling member raises downstream
    pm = re.search(rb"/Prev\s+(\d+)", dict_part)
    if pm:
        _parse_xref_stream(payload, objs, int(pm.group(1)), seen, gens)
    return True


def _object_map(payload: bytes) -> dict[int, bytes]:
    """Object-number -> body map. Primary locator: the /Type /XRef
    cross-reference stream named by ``startxref`` (PDF 1.5+, §7.5.7);
    fallback: the stream-aware sequential scan (classic xref-table
    files, or broken/absent xref). Either way, /Type /ObjStm
    containers are expanded afterwards."""
    objs: dict[int, bytes] = {}
    gens: dict[int, int] = {}  # generation numbers, which per-object keys hash
    sm = re.search(rb"startxref\s+(\d+)", payload[-256:])
    used_xref = False
    if sm:
        try:
            used_xref = _parse_xref_stream(payload, objs, int(sm.group(1)), set(), gens)
        except UnsupportedPdfError:
            raise
        except Exception:
            used_xref = False  # malformed xref: degrade to the scan
    if not used_xref:
        gens = {}
        objs = _scan_objects(payload, gens)
    if not objs:
        raise UnsupportedPdfError("no indirect objects found")
    # decrypt BEFORE ObjStm expansion: members live inside the
    # (encrypted) container stream and are not re-encrypted (§7.5.8)
    _maybe_decrypt(payload, objs, gens)
    _expand_objstm(objs)
    return objs


def _stream_span(body: bytes) -> tuple[int, int] | None:
    """(start, end) byte span of an object body's stream payload.
    Sliced by /Length when the dict declares it (mandatory for
    compressed streams, whose bytes may contain 'endstream'); falls
    back to the keyword scan for streams whose /Length is an indirect
    reference."""
    i = body.find(b"stream")
    if i < 0:
        return None
    start = i + len(b"stream")
    if body[start : start + 2] == b"\r\n":
        start += 2
    elif body[start : start + 1] == b"\n":
        start += 1
    # (?![0-9]) pins the capture to the full integer so backtracking
    # cannot shorten it to defeat the indirect-reference lookahead:
    # without it, "/Length 10 0 R" matches with Length=1 (the engine
    # drops the trailing '0' until the lookahead passes) and truncates
    # the stream to 1 byte — a silent wrong parse.
    m = re.search(rb"/Length\s+(\d+)(?![0-9])(?!\s+\d+\s+R)", body[:i])
    if m:
        return start, start + int(m.group(1))
    j = body.find(b"endstream")
    end = len(body[start:j].rstrip(b"\r\n")) + start
    return start, end


def _stream_of(body: bytes) -> bytes | None:
    span = _stream_span(body)
    if span is None:
        return None
    return body[span[0] : span[1]]


# ---------------------------------------------------------------------------
# Standard security handler (ISO 32000-1 §7.6.3): RC4 revisions 2/3
# with an EMPTY user password — the ubiquitous "permissions-only"
# encryption on wild PDFs. AES (/V 4+), crypt filters, and non-empty
# user passwords raise UnsupportedPdfError.
# ---------------------------------------------------------------------------

# §7.6.3.3 Algorithm 2 padding string (printed verbatim in the spec)
_CRYPT_PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
        0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
        0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


_RC4_I = [*range(1, 256), 0]  # the PRGA's i, one cycle


def _rc4(key: bytes, data: bytes) -> bytes:
    """RC4 stream cipher (KSA + PRGA). Verified against the published
    test vectors in the test suite."""
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    n = len(data)
    ks: list[int] = []
    emit = ks.append
    j = 0
    for i in islice(cycle(_RC4_I), n):
        si = s[i]
        j = (j + si) & 0xFF
        sj = s[j]
        s[i] = sj
        s[j] = si
        emit(s[(si + sj) & 0xFF])
    # the keystream XORs onto the data as one big integer
    return (int.from_bytes(data, "big") ^ int.from_bytes(bytes(ks), "big")).to_bytes(n, "big")


def _crypt_key(
    password: bytes, o: bytes, p: int, id0: bytes, r: int, nbytes: int, meta_extra: bytes = b""
) -> bytes:
    """§7.6.3.3 Algorithm 2: the file encryption key. For R4 with
    /EncryptMetadata false the spec appends 0xFFFFFFFF (`meta_extra`)."""
    import hashlib

    padded = (password + _CRYPT_PAD)[:32]
    h = hashlib.md5(
        padded + o[:32] + (p & 0xFFFFFFFF).to_bytes(4, "little") + id0 + meta_extra
    ).digest()
    if r >= 3:
        for _ in range(50):
            h = hashlib.md5(h[:nbytes]).digest()
    return h[:nbytes]


def _owner_value(owner_pw: bytes, user_pw: bytes, r: int, nbytes: int) -> bytes:
    """§7.6.3.4 Algorithm 3: the /O entry (writer side)."""
    import hashlib

    digest = hashlib.md5(((owner_pw or user_pw) + _CRYPT_PAD)[:32]).digest()
    if r >= 3:
        for _ in range(50):
            digest = hashlib.md5(digest).digest()
    rc4key = digest[:nbytes]
    enc = _rc4(rc4key, (user_pw + _CRYPT_PAD)[:32])
    if r >= 3:
        for i in range(1, 20):
            enc = _rc4(bytes(b ^ i for b in rc4key), enc)
    return enc


def _user_value(key: bytes, id0: bytes, r: int) -> bytes:
    """§7.6.3.4 Algorithms 4/5: the /U entry for a given file key."""
    import hashlib

    if r == 2:
        return _rc4(key, _CRYPT_PAD)
    u = _rc4(key, hashlib.md5(_CRYPT_PAD + id0).digest())
    for i in range(1, 20):
        u = _rc4(bytes(b ^ i for b in key), u)
    return u + b"\0" * 16  # 16 bytes of arbitrary padding (§ Algorithm 5 step f)


def _object_key(file_key: bytes, num: int, gen: int, aes: bool = False) -> bytes:
    """§7.6.2 Algorithm 1: per-object key. For AESV2 the spec appends
    the fixed bytes 'sAlT' (0x73416C54) to the md5 input (step b)."""
    import hashlib

    h = hashlib.md5(
        file_key
        + (num & 0xFFFFFF).to_bytes(3, "little")
        + (gen & 0xFFFF).to_bytes(2, "little")
        + (b"sAlT" if aes else b"")
    ).digest()
    return h[: min(len(file_key) + 5, 16)]


def _hash_r6(password: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """ISO 32000-2 §7.6.4.3.4 Algorithm 2.B: the revision-6 password
    hash — SHA-256 seeded, then rounds of AES-128-CBC over 64 repeats
    of (password + K + udata) with the digest function cycling by the
    first-16-byte sum mod 3, until >= 64 rounds have run and the last
    byte of E is <= round - 32. (Revision 5 uses a single SHA-256.)"""
    import hashlib

    from pdf_extractor_ray.functions.aes_cipher import aes_cbc_encrypt

    k = hashlib.sha256(password + salt + udata).digest()
    rounds = 0
    while True:
        k1 = (password + k + udata) * 64
        e = aes_cbc_encrypt(k[:16], k[16:32], k1, pad=False)
        k = (hashlib.sha256, hashlib.sha384, hashlib.sha512)[sum(e[:16]) % 3](e).digest()
        rounds += 1
        if rounds >= 64 and e[-1] <= rounds - 32:
            return k[:32]


def _patch_length(body: bytes, new_len: int) -> bytes:
    """Rewrite the stream dict's /Length to `new_len` — needed whenever
    en/decryption changes the payload size (AES-CBC pads and prefixes
    an IV). Only the dict head (before the `stream` keyword) is
    touched; an indirect `/Length n 0 R` is replaced by the direct
    value (the body is already standalone at this point)."""
    i = body.find(b"stream")
    if i < 0:
        return body
    head, rest = body[:i], body[i:]
    head2, n = re.subn(
        rb"/Length\s+\d+(\s+\d+\s+R)?", b"/Length %d" % new_len, head, count=1
    )
    if n == 0:
        j = head.rfind(b">>")
        head2 = head[:j] + b" /Length %d " % new_len + head[j:] if j >= 0 else head
    return head2 + rest


_HEXSTR_RE = re.compile(rb"<([0-9A-Fa-f\s]*)>")


def _dict_string(body: bytes, key: str) -> bytes | None:
    """The string value of ``/key`` in a dict body: hex form ``<..>``
    or literal ``(..)`` with escape handling (§7.3.4). An optional
    leading ``[`` is skipped so ``/ID [<..><..>]`` yields its FIRST
    element."""
    m = re.search(rb"/" + key.encode() + rb"\s*\[?\s*(\(|<(?!<))", body)
    if m is None:
        return None
    if m.group(1) == b"<":
        hm = _HEXSTR_RE.match(body, m.end() - 1)
        if hm is None:
            raise UnsupportedPdfError(f"malformed hex string for /{key}")
        return _unhex(hm.group(1))
    # literal string: honor escapes, balanced parens, stop at the
    # closing unescaped paren
    out = bytearray()
    i = m.end()
    depth = 1
    n = len(body)
    while i < n:
        c = body[i]
        if c == 0x5C:  # backslash
            i += 1
            if i >= n:
                break
            e = body[i]
            mapped = {0x6E: 10, 0x72: 13, 0x74: 9, 0x62: 8, 0x66: 12}.get(e)
            if mapped is not None:
                out.append(mapped)
            elif 0x30 <= e <= 0x37:  # octal, up to 3 digits
                oct_digits = [e - 0x30]
                while len(oct_digits) < 3 and i + 1 < n and 0x30 <= body[i + 1] <= 0x37:
                    i += 1
                    oct_digits.append(body[i] - 0x30)
                val = 0
                for d in oct_digits:
                    val = val * 8 + d
                out.append(val & 0xFF)
            else:
                out.append(e)  # \( \) \\ and any other escaped byte
        elif c == 0x28:
            depth += 1
            out.append(c)
        elif c == 0x29:
            depth -= 1
            if depth == 0:
                return bytes(out)
            out.append(c)
        else:
            out.append(c)
        i += 1
    raise UnsupportedPdfError(f"unterminated literal string for /{key}")


def _find_encrypt(payload: bytes, objs: dict[int, bytes]) -> tuple[int, bytes] | None:
    """(encrypt-dict object number, first /ID element) from the classic
    trailer dict(s) or the xref-stream dict (§7.5.5, §7.5.8)."""
    candidates: list[bytes] = []
    for m in re.finditer(rb"trailer", payload):
        i = payload.find(b"<<", m.end(), m.end() + 64)
        if i < 0:
            continue
        try:
            inner, _ = _balanced_dict(payload, i)
        except UnsupportedPdfError:
            continue
        candidates.append(inner)
    sm = re.search(rb"startxref\s+(\d+)", payload[-256:])
    if sm:
        try:
            _, _, xbody = _object_at(payload, int(sm.group(1)))
            candidates.append(xbody)
        except UnsupportedPdfError:
            pass
    for inner in reversed(candidates):  # latest update wins
        em = re.search(rb"/Encrypt\s+(\d+)\s+\d+\s+R", inner)
        if em is None:
            continue
        id0 = _dict_string(inner, "ID")
        if id0 is None:
            raise UnsupportedPdfError("encrypted PDF without a trailer /ID")
        return int(em.group(1)), id0
    return None


def _maybe_decrypt(payload: bytes, objs: dict[int, bytes], gens: dict[int, int]) -> None:
    """If the document carries a supported /Encrypt dictionary
    (Standard handler, empty user password: /V 1-2 R 2-3 RC4, /V 4
    R 4 crypt filters with /CFM /V2 or /AESV2, or /V 5 R 5-6 /AESV3),
    decrypt every stream payload in place (strings in dict positions
    this tokenizer never reads stay encrypted). XRef streams are never
    encrypted (§7.5.8.2) and are skipped; AES-CBC changes payload
    length, so decrypted bodies get their /Length patched. Raises for
    non-Standard filters, unknown crypt filters, non-empty user
    passwords, and /Encrypt markers without a resolvable dictionary."""
    import hashlib

    if b"/Encrypt" not in payload:
        return
    found = _find_encrypt(payload, objs)
    if found is None:
        raise UnsupportedPdfError("encrypted PDF (unresolvable /Encrypt)")
    enc_num, id0 = found
    enc = objs.get(enc_num)
    if enc is None:
        raise UnsupportedPdfError("dangling /Encrypt reference")
    fm = re.search(rb"/Filter\s*/(\w+)", enc)
    if not fm or fm.group(1) != b"Standard":
        raise UnsupportedPdfError("non-Standard security handler")
    v = int(_dict_num(enc, "V", 0))
    r = int(_dict_num(enc, "R", 0))
    pm = re.search(rb"/P\s+(-?\d+)", enc)
    o = _dict_string(enc, "O")
    u = _dict_string(enc, "U")
    if o is None or u is None or pm is None:
        raise UnsupportedPdfError("encrypt dict missing /O, /U or /P")
    p = int(pm.group(1))
    cipher = "rc4"
    if v in (1, 2) and r in (2, 3):
        nbits = int(_dict_num(enc, "Length", 40.0))
        if nbits % 8 or not 40 <= nbits <= 128:
            raise UnsupportedPdfError(f"bad encryption key length {nbits}")
        nbytes = 5 if v == 1 else nbits // 8
        key = _crypt_key(b"", o, p, id0, r, nbytes)
        expect = _user_value(key, id0, r)
        ok = expect[:16] == u[:16] if r >= 3 else expect == u[:32]
        if not ok:
            raise UnsupportedPdfError("password-protected PDF (empty user password rejected)")
    elif v == 4 and r == 4:
        # crypt filters (§7.6.5): resolve /StmF through /CF; /Identity
        # or an absent /StmF means streams are NOT encrypted
        stmf = re.search(rb"/StmF\s*/(\w+)", enc)
        stmf_name = stmf.group(1) if stmf else b"Identity"
        if stmf_name == b"Identity":
            return
        cfm = re.search(
            rb"/" + re.escape(stmf_name) + rb"\s*<<[^>]*?/CFM\s*/(\w+)", enc
        )
        if cfm is None:
            raise UnsupportedPdfError("V4 encryption without a resolvable /CF crypt filter")
        if cfm.group(1) == b"AESV2":
            cipher = "aes"
        elif cfm.group(1) != b"V2":
            raise UnsupportedPdfError(f"crypt filter /CFM /{cfm.group(1).decode()} unsupported")
        nbits = int(_dict_num(enc, "Length", 128.0))
        if nbits % 8 or not 40 <= nbits <= 128:
            raise UnsupportedPdfError(f"bad encryption key length {nbits}")
        nbytes = nbits // 8
        extra = b"\xff\xff\xff\xff" if re.search(rb"/EncryptMetadata\s+false", enc) else b""
        key = _crypt_key(b"", o, p, id0, r, nbytes, meta_extra=extra)
        if _user_value(key, id0, r)[:16] != u[:16]:
            raise UnsupportedPdfError("password-protected PDF (empty user password rejected)")
    elif v == 5 and r in (5, 6):
        # AESV3 (ISO 32000-2 §7.6.4): SHA-2 key derivation, 256-bit
        # file key carried encrypted in /UE, no per-object derivation
        from pdf_extractor_ray.functions.aes_cipher import aes_cbc_decrypt, aes_ecb_decrypt

        ue = _dict_string(enc, "UE")
        if len(u) < 48 or ue is None or len(ue) != 32:
            raise UnsupportedPdfError("V5 encrypt dict missing /U(48) or /UE(32)")
        vs, ks = u[32:40], u[40:48]
        if r == 6:
            ok = _hash_r6(b"", vs) == u[:32]
            inter = _hash_r6(b"", ks)
        else:  # R5 (Adobe extension level 3): single SHA-256
            ok = hashlib.sha256(vs).digest() == u[:32]
            inter = hashlib.sha256(ks).digest()
        if not ok:
            raise UnsupportedPdfError("password-protected PDF (empty user password rejected)")
        key = aes_cbc_decrypt(inter, b"\0" * 16, ue, unpad=False)
        perms = _dict_string(enc, "Perms")
        if perms is not None and len(perms) == 16:
            if aes_ecb_decrypt(key, perms)[9:12] != b"adb":
                raise UnsupportedPdfError("V5 /Perms failed to validate the file key")
        cipher = "aes"
    else:
        raise UnsupportedPdfError(
            f"encryption V={v} R={r} unsupported (RC4 V1/V2, AESV2 V4, AESV3 V5 only)"
        )
    spans, okeys, data, failure = [], [], [], None
    for num, body in objs.items():
        if num == enc_num or re.search(rb"/Type\s*/XRef\b", body):
            continue
        span = _stream_span(body)
        if span is None:
            continue
        start, end = span
        if cipher == "rc4":
            okey = _object_key(key, num, gens.get(num, 0))
            objs[num] = body[:start] + _rc4(okey, body[start:end]) + body[end:]
            continue
        if end - start < 16 or (end - start - 16) % 16:
            # raised once the streams before it are decrypted, so the
            # first failing stream names the error, as stream by stream
            failure = UnsupportedPdfError("AES stream payload not IV + whole blocks")
            break
        spans.append((num, start, end))
        okeys.append(key if v == 5 else _object_key(key, num, gens.get(num, 0), aes=True))
        data.append(body[start:end])
    if data:  # every AES stream of the document in one pass, each unpadded on its own
        from pdf_extractor_ray.functions.aes_cipher import aes_cbc_decrypt_many, aes_unpad

        try:
            decs = [aes_unpad(d) if d else d for d in aes_cbc_decrypt_many(okeys, data)]
        except ValueError as exc:
            raise UnsupportedPdfError(f"AES stream decryption failed: {exc}") from None
        for (num, start, end), dec in zip(spans, decs):
            body = objs[num]
            objs[num] = _patch_length(body[:start] + dec + body[end:], len(dec))
    if failure is not None:
        raise failure


def _png_unpredict(data: bytes, columns: int, colors: int = 1, bpc: int = 8) -> bytes:
    """Reverse PNG row predictors (RFC 2083 §6; PDF §7.4.4.4) — each
    row is one tag byte (0 None, 1 Sub, 2 Up, 3 Average, 4 Paeth)
    followed by `columns*colors*bpc/8` bytes. Predictor 12 (Up on every
    row) is what wild xref streams overwhelmingly use."""
    bpp = max(1, colors * bpc // 8)
    row_w = columns * bpp
    if row_w <= 0 or len(data) % (row_w + 1):
        raise UnsupportedPdfError("predicted stream length not a multiple of row width")
    out = bytearray()
    prev = bytes(row_w)
    for r in range(0, len(data), row_w + 1):
        tag = data[r]
        row = bytearray(data[r + 1 : r + 1 + row_w])
        if tag == 1:  # Sub
            for i in range(bpp, row_w):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif tag == 2:  # Up
            for i in range(row_w):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif tag == 3:  # Average
            for i in range(row_w):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + (left + prev[i]) // 2) & 0xFF
        elif tag == 4:  # Paeth
            for i in range(row_w):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                row[i] = (row[i] + pred) & 0xFF
        elif tag != 0:
            raise UnsupportedPdfError(f"unknown PNG predictor tag {tag}")
        out += row
        prev = row
    return bytes(out)


# per-stream decode budget (FlateDecode and LZWDecode): over 200x the
# largest FlateDecode stream (19.8 KB) of the benchmark workloads; the
# word-block lane parses a content stream this size in about 0.4 s of
# one 1-vCPU core
_STREAM_CAP = 4 << 20


def _lzw_decode_pdf(data: bytes, early: int = 1) -> bytes:
    """PDF LZWDecode (§7.4.4.2): MSB-first packing, 9->12 bit codes,
    256=clear / 257=EOD, EarlyChange width growth (default 1), output
    refused past _STREAM_CAP. Distinct from the GIF LZW in media_codec
    (LSB-first, variable min code)."""
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: bytes | None = None
    acc = 0
    nbits = 0
    for byte in data:
        acc = ((acc << 8) | byte) & 0xFFFFFFFF
        nbits += 8
        while nbits >= width:
            code = (acc >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:  # clear table
                del table[258:]
                width = 9
                prev = None
                continue
            if code == 257:  # EOD
                return bytes(out)
            if prev is None:
                if code >= len(table):
                    raise UnsupportedPdfError("corrupt LZW stream (first code)")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):  # KwKwK
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise UnsupportedPdfError("corrupt LZW stream (code gap)")
            out += entry
            if len(out) > _STREAM_CAP:
                raise UnsupportedPdfError(f"budget: LZWDecode stream decodes past {_STREAM_CAP} bytes")
            prev = entry
            if len(table) + early >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def _asciihex_decode(data: bytes) -> bytes:
    """/ASCIIHexDecode (§7.4.2): hex digits, whitespace ignored, '>'
    terminates; an odd trailing digit is padded with 0."""
    end = data.find(b">")
    if end != -1:
        data = data[:end]
    hexdigits = re.sub(rb"[\0\t\n\f\r ]+", b"", data)
    if re.search(rb"[^0-9A-Fa-f]", hexdigits):
        raise UnsupportedPdfError("ASCIIHexDecode: non-hex character")
    return _unhex(hexdigits)


def _ascii85_decode(data: bytes) -> bytes:
    """/ASCII85Decode (§7.4.3): base-85 groups of 5 chars ('!'..'u')
    per 4 bytes, 'z' shorthand for a zero group, '~>' EOD; a final
    partial group of n chars yields n-1 bytes. Whitespace is ignored."""
    end = data.find(b"~>")
    if end != -1:
        data = data[:end]
    out = bytearray()
    group: list[int] = []
    for byte in data:
        if byte in (0, 9, 10, 12, 13, 32):
            continue
        if byte == 0x7A:  # 'z'
            if group:
                raise UnsupportedPdfError("ASCII85Decode: 'z' inside group")
            out += b"\0\0\0\0"
            continue
        if not 0x21 <= byte <= 0x75:  # '!'..'u'
            raise UnsupportedPdfError(f"ASCII85Decode: bad character {byte:#x}")
        group.append(byte - 0x21)
        if len(group) == 5:
            acc = 0
            for d in group:
                acc = acc * 85 + d
            if acc > 0xFFFFFFFF:
                raise UnsupportedPdfError("ASCII85Decode: group overflow")
            out += acc.to_bytes(4, "big")
            group = []
    if group:
        if len(group) == 1:
            raise UnsupportedPdfError("ASCII85Decode: lone trailing character")
        n = len(group)
        acc = 0
        for d in group + [84] * (5 - n):  # pad with 'u'
            acc = acc * 85 + d
        if acc > 0xFFFFFFFF:
            raise UnsupportedPdfError("ASCII85Decode: group overflow")
        out += acc.to_bytes(4, "big")[: n - 1]
    return bytes(out)


def _rle_decode(data: bytes) -> bytes:
    """/RunLengthDecode (§7.4.5): length byte 0..127 copies the next
    length+1 bytes literally; 129..255 repeats the next byte
    257-length times; 128 is EOD."""
    out = bytearray()
    i = 0
    n = len(data)
    while i < n:
        length = data[i]
        if length == 128:
            return bytes(out)
        if length < 128:
            chunk = data[i + 1 : i + 2 + length]
            if len(chunk) != length + 1:
                raise UnsupportedPdfError("RunLengthDecode: truncated literal run")
            out += chunk
            i += 2 + length
        else:
            if i + 1 >= n:
                raise UnsupportedPdfError("RunLengthDecode: truncated repeat run")
            out += data[i + 1 : i + 2] * (257 - length)
            i += 2
    raise UnsupportedPdfError("RunLengthDecode: missing EOD")


def _balanced_dict(body: bytes, start: int) -> tuple[bytes, int]:
    """Return (inner bytes, end index past '>>') of the `<< ... >>`
    dictionary starting at `start` (which must point at '<<'),
    tracking nesting depth."""
    depth = 0
    i = start
    n = len(body)
    while i < n - 1:
        pair = body[i : i + 2]
        if pair == b"<<":
            depth += 1
            i += 2
        elif pair == b">>":
            depth -= 1
            i += 2
            if depth == 0:
                return body[start + 2 : i - 2], i
        else:
            i += 1
    raise UnsupportedPdfError("unterminated dictionary in /DecodeParms")


def _parse_decodeparms(body: bytes, n_filters: int) -> list[bytes | None]:
    """Per-filter /DecodeParms entries aligned with the filter list:
    a single dict applies to a single filter; an array holds one
    `null` or `<<..>>` per filter (§7.3.8.2). Missing => all None.
    `body` is the stream dictionary alone: stream data may hold any
    bytes, a key-like ``/DP`` included."""
    m = re.search(rb"/(?:DecodeParms|DP)(?![^\s()<>\[\]{}/%])\s*", body)
    if m is None:
        return [None] * n_filters
    i = m.end()
    if body[i : i + 2] == b"<<":
        inner, _ = _balanced_dict(body, i)
        if n_filters != 1:
            raise UnsupportedPdfError("/DecodeParms dict with a filter chain")
        return [inner]
    if body[i : i + 1] != b"[":
        if body[i : i + 4] == b"null":
            return [None] * n_filters
        raise UnsupportedPdfError("unsupported /DecodeParms form")
    i += 1
    out: list[bytes | None] = []
    n = len(body)
    while i < n:
        while i < n and body[i] in b"\0\t\n\f\r ":
            i += 1
        if body[i : i + 1] == b"]":
            break
        if body[i : i + 4] == b"null":
            out.append(None)
            i += 4
        elif body[i : i + 2] == b"<<":
            inner, i = _balanced_dict(body, i)
            out.append(inner)
        else:
            raise UnsupportedPdfError("unsupported /DecodeParms array entry")
    if len(out) != n_filters:
        raise UnsupportedPdfError("/DecodeParms array length != filter count")
    return out


def _apply_predictor(data: bytes, params: bytes | None) -> bytes:
    if not params:
        return data
    pm = re.search(rb"/Predictor\s+(\d+)", params)
    pred = int(pm.group(1)) if pm else 1
    if pred >= 10:  # PNG family; tag byte per row decides the actual filter
        cm = re.search(rb"/Columns\s+(\d+)", params)
        km = re.search(rb"/Colors\s+(\d+)", params)
        bm = re.search(rb"/BitsPerComponent\s+(\d+)", params)
        return _png_unpredict(
            data,
            int(cm.group(1)) if cm else 1,
            int(km.group(1)) if km else 1,
            int(bm.group(1)) if bm else 8,
        )
    if pred != 1:
        raise UnsupportedPdfError(f"unsupported predictor {pred}")
    return data


def _inflate(data: bytes) -> bytes:
    """zlib-decompress one stream, refusing output past _STREAM_CAP; a
    truncated or corrupt stream fails with zlib's own error text."""
    import zlib

    d = zlib.decompressobj()
    try:
        out = d.decompress(data, _STREAM_CAP + 1)
    except zlib.error as exc:
        raise UnsupportedPdfError(f"FlateDecode stream: {exc}") from exc
    if len(out) > _STREAM_CAP:
        raise UnsupportedPdfError(f"budget: FlateDecode stream inflates past {_STREAM_CAP} bytes")
    if not d.eof:
        raise UnsupportedPdfError(
            "FlateDecode stream: Error -5 while decompressing data: incomplete or truncated stream"
        )
    return out


def _decode_stream(content_body: bytes) -> bytes | None:
    """Raw stream bytes through the declared /Filter pipeline — in
    wild order: /FlateDecode (zlib), /LZWDecode, /ASCIIHexDecode,
    /ASCII85Decode, /RunLengthDecode, applied left-to-right when
    /Filter is an array (§7.4.1 filter chains, e.g. the classic
    ``[/ASCII85Decode /FlateDecode]`` mail-safe transport). PNG
    /Predictor from the matching /DecodeParms entry is reversed on
    Flate/LZW output. Any other filter raises UnsupportedPdfError."""
    raw = _stream_of(content_body)
    if raw is None:
        return None
    # keys are read from the dictionary before `stream` only, never
    # from the (arbitrary) stream data
    head = content_body[: content_body.find(b"stream")]
    fm = re.search(rb"/Filter\s*(/\w+|\[[^\]]*\])", head)
    if fm is None:
        return raw
    spec = fm.group(1)
    names = spec[1:-1].split() if spec.startswith(b"[") else [spec]
    if not names:
        return raw
    parms = _parse_decodeparms(head, len(names))
    data = raw
    for name, dp in zip(names, parms):
        if name == b"/FlateDecode":
            data = _apply_predictor(_inflate(data), dp)
        elif name == b"/LZWDecode":
            em = re.search(rb"/EarlyChange\s+(\d+)", dp) if dp else None
            data = _lzw_decode_pdf(data, early=int(em.group(1)) if em else 1)
            data = _apply_predictor(data, dp)
        elif name == b"/ASCIIHexDecode":
            data = _asciihex_decode(data)
        elif name == b"/ASCII85Decode":
            data = _ascii85_decode(data)
        elif name == b"/RunLengthDecode":
            data = _rle_decode(data)
        else:
            raise UnsupportedPdfError(f"unsupported stream filter {name!r}")
    return data


def _dict_num(body: bytes, key: str, default: float | None = None) -> float:
    m = re.search(rb"/" + key.encode() + rb"\s+(-?[\d.]+)", body)
    if m:
        return float(m.group(1))
    if default is None:
        raise UnsupportedPdfError(f"missing /{key}")
    return default


def _font_descriptor_metrics(objs: dict[int, bytes], body: bytes) -> tuple[float, float]:
    m = re.search(rb"/FontDescriptor\s+(\d+)\s+\d+\s+R", body)
    if not m:
        raise UnsupportedPdfError("font without FontDescriptor (standard-14 AFM metrics not carried)")
    fd = objs.get(int(m.group(1)), b"")
    return _dict_num(fd, "Ascent"), _dict_num(fd, "Descent")


def _parse_w_array(objs: dict[int, bytes], desc_body: bytes) -> dict[int, float]:
    """Per-CID width overrides from the descendant's /W array
    (ISO 32000 §9.7.4.3). Two entry forms, freely mixed:
    ``c [w1 w2 ...]`` (consecutive cids from c) and ``c1 c2 w``
    (every cid in c1..c2). Missing /W -> empty dict (all /DW)."""
    wm = re.search(rb"/W\s*(?:(\[)|(\d+)\s+\d+\s+R)", desc_body)
    if not wm:
        return {}
    if wm.group(1):
        # direct form: /W [ ... ] with one level of nested brackets
        start = wm.end(1) - 1
        depth = 0
        i = start
        while i < len(desc_body):
            if desc_body[i : i + 1] == b"[":
                depth += 1
            elif desc_body[i : i + 1] == b"]":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        arr = desc_body[start + 1 : i]
    else:
        ref_body = objs.get(int(wm.group(2)), b"")
        am = re.search(rb"\[(.*)\]", ref_body, re.S)
        if not am:
            raise UnsupportedPdfError("/W reference without array")
        arr = am.group(1)
    toks = re.findall(rb"\[|\]|-?[\d.]+", arr)
    widths: dict[int, float] = {}
    i = 0
    while i < len(toks):
        if toks[i] in (b"[", b"]"):
            raise UnsupportedPdfError("malformed /W array")
        c1 = int(float(toks[i]))
        if i + 1 < len(toks) and toks[i + 1] == b"[":
            j = i + 2
            cid = c1
            while j < len(toks) and toks[j] != b"]":
                widths[cid] = float(toks[j])
                cid += 1
                j += 1
            i = j + 1
        else:
            if i + 2 >= len(toks):
                raise UnsupportedPdfError("truncated /W range entry")
            c2 = int(float(toks[i + 1]))
            w = float(toks[i + 2])
            for cid in range(c1, c2 + 1):
                widths[cid] = w
            i += 3
    return widths


def _parse_tounicode(objs: dict[int, bytes], font_body: bytes) -> dict[int, str] | None:
    """CID -> unicode map from the font's /ToUnicode CMap stream
    (§9.10.3; Adobe CMap grammar): beginbfchar pairs and beginbfrange
    runs (incrementing-dst and array-dst forms). None when the font
    declares no /ToUnicode."""
    tm = re.search(rb"/ToUnicode\s+(\d+)\s+\d+\s+R", font_body)
    if not tm:
        return None
    data = _decode_stream(objs.get(int(tm.group(1)), b""))
    if data is None:
        raise UnsupportedPdfError("/ToUnicode without stream data")
    out: dict[int, str] = {}
    for seg in re.findall(rb"beginbfchar(.*?)endbfchar", data, re.S):
        toks = _HEXSTR_RE.findall(seg)
        if len(toks) % 2:
            raise UnsupportedPdfError("odd bfchar token count")
        for src, dst in zip(toks[::2], toks[1::2]):
            out[int.from_bytes(_unhex(src), "big")] = _unhex(dst).decode("utf-16-be")
    for seg in re.findall(rb"beginbfrange(.*?)endbfrange", data, re.S):
        # entries: <lo> <hi> <dst>   OR   <lo> <hi> [<d1> <d2> ...]
        for em in re.finditer(
            rb"<([0-9A-Fa-f\s]*)>\s*<([0-9A-Fa-f\s]*)>\s*(?:<([0-9A-Fa-f\s]*)>|\[((?:\s*<[0-9A-Fa-f\s]*>)*)\s*\])",
            seg,
        ):
            lo = int.from_bytes(_unhex(em.group(1)), "big")
            hi = int.from_bytes(_unhex(em.group(2)), "big")
            if em.group(3) is not None:
                dst = _unhex(em.group(3))
                base = int.from_bytes(dst, "big")
                nbytes = len(dst)
                for cid in range(lo, hi + 1):
                    out[cid] = (base + cid - lo).to_bytes(nbytes, "big").decode("utf-16-be")
            else:
                dsts = _HEXSTR_RE.findall(em.group(4))
                if len(dsts) != hi - lo + 1:
                    raise UnsupportedPdfError("bfrange array length mismatch")
                for cid, d in zip(range(lo, hi + 1), dsts):
                    out[cid] = _unhex(d).decode("utf-16-be")
    return out


# Standard-14 font metrics for codes 32..126, from the public Adobe
# Core 14 AFM files (redistributed with the PDF spec; the same tables
# every PDF consumer ships). Values are glyph widths in 1/1000 em for
# StandardEncoding codes 32..126 (0x27 = quoteright, 0x60 = grave).
# Only faces whose tables are carried verbatim here are supported;
# other std-14 faces (bold/italic variants, Symbol, ZapfDingbats)
# raise rather than approximate.
_HELVETICA_W = [
    278, 278, 355, 556, 556, 889, 667, 222, 333, 333, 389, 584, 278, 333,
    278, 278, 556, 556, 556, 556, 556, 556, 556, 556, 556, 556, 278, 278,
    584, 584, 584, 556, 1015, 667, 667, 722, 722, 667, 611, 778, 722, 278,
    500, 667, 556, 833, 722, 778, 667, 778, 722, 667, 611, 722, 667, 944,
    667, 667, 611, 278, 278, 278, 469, 556, 333, 556, 556, 500, 556, 556,
    278, 556, 556, 222, 222, 500, 222, 833, 556, 556, 556, 556, 333, 500,
    278, 556, 500, 722, 500, 500, 500, 334, 260, 334, 584,
]
_TIMES_ROMAN_W = [
    250, 333, 408, 500, 500, 833, 778, 333, 333, 333, 500, 564, 250, 333,
    250, 278, 500, 500, 500, 500, 500, 500, 500, 500, 500, 500, 278, 278,
    564, 564, 564, 444, 921, 722, 667, 667, 722, 611, 556, 722, 722, 333,
    389, 722, 611, 889, 722, 722, 556, 722, 667, 556, 611, 722, 722, 944,
    722, 722, 611, 333, 278, 333, 469, 500, 333, 444, 500, 444, 500, 444,
    333, 500, 500, 278, 278, 500, 278, 778, 500, 500, 500, 500, 333, 389,
    278, 500, 500, 722, 500, 500, 444, 480, 200, 480, 541,
]
_COURIER_W = [600.0] * 95  # monospace: every glyph 600/1000 em
# face -> (widths 32..126, AFM Ascender, AFM Descender)
_STD14_METRICS: dict[str, tuple[list[float], float, float]] = {
    "Courier": (_COURIER_W, 629.0, -157.0),
    "Courier-Bold": (_COURIER_W, 629.0, -157.0),
    "Courier-Oblique": (_COURIER_W, 629.0, -157.0),
    "Courier-BoldOblique": (_COURIER_W, 629.0, -157.0),
    "Helvetica": ([float(w) for w in _HELVETICA_W], 718.0, -207.0),
    "Times-Roman": ([float(w) for w in _TIMES_ROMAN_W], 683.0, -217.0),
}


def _font_model(objs: dict[int, bytes], font_ref: int) -> dict:
    """Font model for the tokenizer. Two kinds:

    - "cid": Type0/Identity-H composite fonts — 2-byte codes, /DW
      default width plus per-CID /W overrides from the descendant
      (§9.7.4.3). Text decodes through the font's /ToUnicode CMap
      when present (§9.10.3 — how every modern subset-embedded font
      maps glyph-id CIDs back to text); without one, codes are
      decoded as UTF-16BE (exact for the writer's identity mapping) —
      glyph-id text without a CMap typically fails UTF-16 validation
      and raises rather than mis-parses.
    - "simple": Type1/TrueType fonts with embedded /FirstChar +
      /Widths + /FontDescriptor (what ordinary word-processor PDFs
      carry) — 1-byte codes, per-glyph widths. Standard-14 faces that
      OMIT the widths (legal per §9.6.2.2) resolve from the carried
      public AFM tables (_STD14_METRICS: Courier family, Helvetica,
      Times-Roman); uncarried faces raise rather than approximate."""
    body = objs.get(font_ref, b"")
    if b"/Type0" in body:
        m = re.search(rb"/DescendantFonts\s*\[\s*(\d+)\s+\d+\s+R", body)
        if not m:
            raise UnsupportedPdfError("Type0 font without DescendantFonts")
        desc_body = objs.get(int(m.group(1)), b"")
        dw = _dict_num(desc_body, "DW", 1000.0)
        asc, desc = _font_descriptor_metrics(objs, desc_body)
        return {
            "kind": "cid",
            "ascent": asc,
            "descent": desc,
            "dw": dw,
            "w": _parse_w_array(objs, desc_body),
            "tounicode": _parse_tounicode(objs, body),
        }
    if re.search(rb"/Subtype\s*/(?:Type1|TrueType|MMType1)\b", body):
        wm = re.search(rb"/Widths\s*(?:\[([^\]]*)\]|(\d+)\s+\d+\s+R)", body)
        if not wm:
            # standard-14 face with AFM metrics (legal per §9.6.2.2:
            # the 14 standard fonts may omit /Widths + /FontDescriptor)
            bm = re.search(rb"/BaseFont\s*/([\w.+-]+)", body)
            base = bm.group(1).decode("ascii", "replace") if bm else ""
            base = base.split("+", 1)[-1]  # drop subset prefix
            std = _STD14_METRICS.get(base)
            if std is None:
                raise UnsupportedPdfError(
                    f"simple font /{base or '?'} without embedded /Widths "
                    "(not a carried standard-14 face)"
                )
            codec, diff = _parse_simple_encoding(objs, body)
            return {
                "kind": "simple",
                "ascent": std[1],
                "descent": std[2],
                "first_char": 32,
                "widths": std[0],
                "codec": codec,
                "diff": diff,
                # without an explicit /Encoding only printable-ASCII
                # codes are unambiguous (StandardEncoding beyond 126
                # differs from cp1252) — the tokenizer raises on others
                "std14_ascii_only": b"/Encoding" not in body,
            }
        if wm.group(1) is not None:
            arr = wm.group(1)
        else:
            ref_body = objs.get(int(wm.group(2)), b"")
            am = re.search(rb"\[([^\]]*)\]", ref_body)
            if not am:
                raise UnsupportedPdfError("/Widths reference without array")
            arr = am.group(1)
        widths = [float(t) for t in arr.split()]
        first = int(_dict_num(body, "FirstChar"))
        asc, desc = _font_descriptor_metrics(objs, body)
        codec, diff = _parse_simple_encoding(objs, body)
        return {
            "kind": "simple",
            "ascent": asc,
            "descent": desc,
            "first_char": first,
            "widths": widths,
            "codec": codec,
            "diff": diff,
        }
    raise UnsupportedPdfError(
        "font subset is Type0/Identity-H, simple Type1/TrueType with /Widths, "
        "and widthless standard-14 (Courier family, Helvetica, Times-Roman)"
    )


def _font_metrics(objs: dict[int, bytes], font_ref: int) -> dict:
    """``_font_model`` plus the per-font constants of the glyph-box
    math, computed once per font: ``asc_k``/``desc_k`` (ascent and
    descent per 1000), ``dw_k`` (/DW per 1000), a simple font's
    ``code_w`` (the width of each 1-byte code, 0.0 outside /Widths),
    and ``lane``: (dw_k, asc_k, desc_k) for the word-block lane when
    every CID is UTF-16 text of width /DW, else None."""
    fm = _font_model(objs, font_ref)
    fm["asc_k"] = fm["ascent"] / 1000.0
    fm["desc_k"] = -fm["descent"] / 1000.0
    fm["dw_k"] = fm.get("dw", 1000.0) / 1000.0
    if fm["kind"] == "simple":
        first, widths = fm["first_char"], fm["widths"]
        fm["code_w"] = [widths[b - first] if 0 <= b - first < len(widths) else 0.0 for b in range(256)]
    identity = fm["kind"] == "cid" and fm["tounicode"] is None and not fm["w"]
    fm["lane"] = (fm["dw_k"], fm["asc_k"], fm["desc_k"]) if identity else None
    return fm


# Adobe Glyph List subset: ASCII names, common western punctuation /
# ligature / accented-letter names (the ones wild /Differences arrays
# overwhelmingly use); /uniXXXX and /uXXXX names resolve directly.
_AGL: dict[str, str] = {
    "space": " ", "exclam": "!", "quotedbl": '"', "numbersign": "#",
    "dollar": "$", "percent": "%", "ampersand": "&", "quotesingle": "'",
    "parenleft": "(", "parenright": ")", "asterisk": "*", "plus": "+",
    "comma": ",", "hyphen": "-", "period": ".", "slash": "/",
    "zero": "0", "one": "1", "two": "2", "three": "3", "four": "4",
    "five": "5", "six": "6", "seven": "7", "eight": "8", "nine": "9",
    "colon": ":", "semicolon": ";", "less": "<", "equal": "=",
    "greater": ">", "question": "?", "at": "@",
    "bracketleft": "[", "backslash": "\\", "bracketright": "]",
    "asciicircum": "^", "underscore": "_", "grave": "`",
    "braceleft": "{", "bar": "|", "braceright": "}", "asciitilde": "~",
    "quoteleft": "‘", "quoteright": "’",
    "quotedblleft": "“", "quotedblright": "”",
    "quotesinglbase": "‚", "quotedblbase": "„",
    "endash": "–", "emdash": "—", "bullet": "•",
    "ellipsis": "…", "dagger": "†", "daggerdbl": "‡",
    "guillemotleft": "«", "guillemotright": "»",
    "fi": "ﬁ", "fl": "ﬂ", "germandbls": "ß",
    "AE": "Æ", "oe": "œ", "OE": "Œ",
    "Euro": "€", "sterling": "£", "yen": "¥",
    "cent": "¢", "copyright": "©", "registered": "®",
    "trademark": "™", "degree": "°", "plusminus": "±",
    "section": "§", "paragraph": "¶", "middot": "·",
    "periodcentered": "·", "multiply": "×", "divide": "÷",
    "exclamdown": "¡", "questiondown": "¿",
    "agrave": "à", "aacute": "á", "acircumflex": "â",
    "atilde": "ã", "adieresis": "ä", "aring": "å",
    "ae": "æ", "ccedilla": "ç", "egrave": "è",
    "eacute": "é", "ecircumflex": "ê", "edieresis": "ë",
    "igrave": "ì", "iacute": "í", "icircumflex": "î",
    "idieresis": "ï", "eth": "ð", "ntilde": "ñ",
    "ograve": "ò", "oacute": "ó", "ocircumflex": "ô",
    "otilde": "õ", "odieresis": "ö", "oslash": "ø",
    "ugrave": "ù", "uacute": "ú", "ucircumflex": "û",
    "udieresis": "ü", "yacute": "ý", "thorn": "þ",
    "ydieresis": "ÿ",
}
for _ch in "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz":
    _AGL[_ch] = _ch
for _lo, _name in list(_AGL.items()):
    if len(_lo) > 1 and _lo[0].islower() and _name and 0xE0 <= ord(_name[0]) <= 0xFF:
        _AGL[_lo.capitalize()] = _name.upper()  # Agrave, Odieresis, ...
del _ch, _lo, _name


def _glyph_to_unicode(name: str) -> str:
    u = _AGL.get(name)
    if u is not None:
        return u
    if name.startswith("uni") and len(name) >= 7:
        try:
            return chr(int(name[3:7], 16))
        except ValueError:
            pass
    if name.startswith("u") and 5 <= len(name) <= 7:
        try:
            return chr(int(name[1:], 16))
        except ValueError:
            pass
    raise UnsupportedPdfError(f"glyph name /{name} outside the AGL subset")


def _parse_simple_encoding(objs: dict[int, bytes], body: bytes) -> tuple[str, dict[int, str]]:
    """(base codec, /Differences overrides) for a simple font's
    /Encoding entry (§9.6.5): a bare base-encoding name, or a dict
    (inline or indirect) with /BaseEncoding + /Differences
    [code /name /name code /name ...]."""
    em = re.search(rb"/Encoding\s*(?:/(\w+)|(<<.*?>>)|(\d+)\s+\d+\s+R)", body, re.S)
    if not em:
        return "cp1252", {}  # TrueType default in practice: WinAnsi
    enc_dict = None
    base_name = em.group(1)
    if em.group(2) is not None:
        enc_dict = em.group(2)
    elif em.group(3) is not None:
        enc_dict = objs.get(int(em.group(3)), b"")
    if enc_dict is not None:
        bm = re.search(rb"/BaseEncoding\s*/(\w+)", enc_dict)
        base_name = bm.group(1) if bm else None
    codec = {
        None: "cp1252",
        b"WinAnsiEncoding": "cp1252",
        b"MacRomanEncoding": "mac_roman",
    }.get(base_name)
    if codec is None:
        raise UnsupportedPdfError(f"base encoding /{base_name.decode()} unsupported")
    diff: dict[int, str] = {}
    if enc_dict is not None:
        dm = re.search(rb"/Differences\s*\[([^\]]*)\]", enc_dict, re.S)
        if dm:
            code = 0
            for tok in re.findall(rb"/([^\s/\[\]<>()]+)|(\d+)", dm.group(1)):
                if tok[1]:
                    code = int(tok[1])
                else:
                    diff[code] = _glyph_to_unicode(tok[0].decode("ascii", "replace"))
                    code += 1
    return codec, diff


class _FontTable:
    """Lazy name -> metrics resolver: a page may declare fonts its
    content never uses, and an unsupported UNUSED font must not fail
    the page — resolution (and its UnsupportedPdfError) happens on
    first use only. ``metrics`` (font object number -> metrics) is
    shared by every table of one document, so a font is resolved once
    per document, not once per page."""

    def __init__(self, objs: dict[int, bytes], refs: dict[str, int], metrics: dict[int, dict]) -> None:
        self._objs = objs
        self._refs = refs
        self.metrics = metrics

    def get(self, name: str) -> dict | None:
        ref = self._refs.get(name)
        if ref is None:
            return None
        fm = self.metrics.get(ref)
        if fm is None:
            fm = self.metrics[ref] = _font_metrics(self._objs, ref)
        return fm


def _resources_of(objs: dict[int, bytes], body: bytes) -> bytes:
    """The /Resources content for a page or form XObject body —
    inline or an indirect reference (common in the wild)."""
    rm = re.search(rb"/Resources\s+(\d+)\s+\d+\s+R", body)
    return objs.get(int(rm.group(1)), b"") if rm else body


def _named_refs(objs: dict[int, bytes], res: bytes, key: bytes) -> dict[str, int]:
    """name -> object number from a /Font or /XObject subdictionary
    (inline ``<< ... >>`` or itself an indirect reference)."""
    m = re.search(rb"/" + key + rb"\s*<<(.*?)>>", res, re.S)
    if not m:
        ref = re.search(rb"/" + key + rb"\s+(\d+)\s+\d+\s+R", res)
        inner = objs.get(int(ref.group(1)), b"") if ref else b""
    else:
        inner = m.group(1)
    return {
        fm.group(1).decode(): int(fm.group(2))
        for fm in re.finditer(rb"/(\w+)\s+(\d+)\s+\d+\s+R", inner)
    }


def _page_fonts(objs: dict[int, bytes], page_body: bytes, metrics: dict[int, dict]) -> _FontTable:
    res = _resources_of(objs, page_body)
    return _FontTable(objs, _named_refs(objs, res, b"Font"), metrics)


def _page_xobjects(objs: dict[int, bytes], page_body: bytes) -> dict[str, int]:
    res = _resources_of(objs, page_body)
    return _named_refs(objs, res, b"XObject")


_UTF16BE = codecs.utf_16_be_decode  # bytes.decode adds a slow Python-level wrapper


def _show_word(
    cols: WordColumns,
    rotated: list[int],
    fm: dict,
    size: float,
    tz: float,
    tm: tuple[float, ...],
    raw: bytes,
    font_name: str,
    page_h: float,
    tc: float = 0.0,
    tw: float = 0.0,
) -> float:
    """Glyph-box math of every show operator (see module docstring):
    appends the word to ``cols`` (its position to ``rotated`` when it
    runs 90 degrees CCW) unless its text is empty, and returns its
    advance in text-space units so the caller can carry the text
    position across Tj/TJ runs. The word-block lane inlines the
    axis-aligned identity-CID case of the same math.
    tc/tw are the Tc character- and Tw word-spacing registers (§9.3.2-3;
    Tw applies to 1-byte code 32 only, i.e. never to 2-byte CID text)."""
    if fm["kind"] == "cid":
        n = len(raw) // 2
        tou = fm.get("tounicode")
        w_over = fm.get("w")
        dw = fm["dw"]
        if tou is None and not w_over:
            # identity UTF-16 text + uniform /DW (the writer's own
            # fonts) — no per-CID work on the hot path
            try:
                text = _UTF16BE(raw, "strict", True)[0]
            except UnicodeDecodeError as exc:
                raise UnsupportedPdfError(
                    "CID string is not UTF-16 text (glyph-id CIDs need a /ToUnicode CMap)"
                ) from exc
            glyph_w = n * size * fm["dw_k"]
        else:
            cids = [int.from_bytes(raw[i : i + 2], "big") for i in range(0, 2 * n, 2)]
            if tou is not None:
                try:
                    text = "".join(tou[c] for c in cids)
                except KeyError as exc:
                    raise UnsupportedPdfError(
                        f"CID {exc.args[0]} missing from /ToUnicode CMap"
                    ) from exc
            else:
                try:
                    text = _UTF16BE(raw, "strict", True)[0]
                except UnicodeDecodeError as exc:
                    raise UnsupportedPdfError(
                        "CID string is not UTF-16 text (glyph-id CIDs need a /ToUnicode CMap)"
                    ) from exc
            glyph_w = sum(w_over.get(c, dw) for c in cids) / 1000.0 * size if w_over else n * size * fm["dw_k"]
        adv = (glyph_w + n * tc) * (tz / 100.0)
    else:
        if fm.get("std14_ascii_only") and raw and (min(raw) < 32 or max(raw) > 126):
            raise UnsupportedPdfError(
                "standard-14 font without /Encoding: code outside printable ASCII"
            )
        diff = fm.get("diff")
        codec = fm.get("codec", "cp1252")
        if diff:
            text = "".join(
                diff.get(b) or bytes([b]).decode(codec, errors="replace") for b in raw
            )
        elif raw.isascii():
            # both base codecs (cp1252, mac_roman) are ASCII below 0x80;
            # the ascii codec skips their Python-level charmap wrapper
            text = raw.decode("ascii")
        else:
            text = raw.decode(codec, errors="replace")
        code_w = fm["code_w"]
        glyph_w = 0.0
        for b in raw:
            glyph_w += code_w[b]
        glyph_w = glyph_w / 1000.0 * size
        adv = (glyph_w + len(raw) * tc + raw.count(b" ") * tw) * (tz / 100.0)
    asc = fm["asc_k"] * size
    desc = fm["desc_k"] * size
    a, b_, c, d, tx, ty = tm
    eps = 1e-9
    if abs(b_) < eps and abs(c) < eps and a > 0 and d > 0:
        # horizontal text, axis-aligned scaling: advance scales by a,
        # vertical extents by d; reported size is the DEVICE height
        # scale (pdfplumber semantics) — a==d==1 reduces to the
        # writer-canonical math exactly
        x0, x1, top, bottom, dev_size = tx, tx + adv * a, page_h - ty - asc * d, page_h - ty + desc * d, size * d
    elif abs(a) < eps and abs(d) < eps and b_ > 0 and c < 0:
        # 90-degree-CCW text (possibly scaled): advance runs +y with
        # scale b, ascent runs -x with scale -c
        sx, sy = -c, b_
        x0, x1, top, bottom, dev_size = tx - asc * sx, tx + desc * sx, page_h - ty - adv * sy, page_h - ty, size * sx
        if text:
            rotated.append(len(cols.text))
    else:
        raise UnsupportedPdfError(f"unsupported text matrix {tm}")
    if text:
        cols.text.append(text)
        cols.x0.append(x0)
        cols.x1.append(x1)
        cols.top.append(top)
        cols.bottom.append(bottom)
        cols.size.append(dev_size)
        cols.fontname.append(font_name)
    return adv


# possessive throughout: nothing in a block is ever re-split, so no
# quantifier needs to give back (about a third of the engine time the
# backtracking forms cost); the number is the token grammar's
_NUM = rb"-?+(?:\d++\.?+\d*+|\.\d++)"
# one word block, `[/F s Tf] [z Tz] a b c d e f Tm (<hex> | (literal)) Tj`,
# the form this package's writers emit for every word: _parse_content
# takes it in one regex step at an operator boundary instead of ~12
# token dispatches; a b c d are one group (mostly the unit `1 0 0 1 `)
_WORD_BLOCK_RE = re.compile(
    rb"\s*+(?:/(\w++)\s++(" + _NUM + rb")\s++Tf\s++)?(?:(" + _NUM + rb")\s++Tz\s++)?"
    rb"((?:" + _NUM + rb"\s++){4})(" + _NUM + rb")\s++(" + _NUM + rb")\s++"
    rb"Tm\s*+(?:<([0-9A-Fa-f]*+)>|" + _LIT + rb")\s*+Tj(?![A-Za-z'\"*])",
    re.S,
)
_UNIT_ABCD = {b"1 0 0 1 ": (1.0, 0.0, 0.0, 1.0)}  # the writers' Tm scale part

_DELIMS = rb"\x00\t\n\f\r ()<>\[\]{}/%"  # PDF white space and delimiters
_BI = rb"(?<![^" + _DELIMS + rb"])BI(?![^" + _DELIMS + rb"])"  # inline-image opener
# one match from the cursor of _preclean_content: what the token
# grammar reads as it is (whole well-formed strings included, so their
# interiors are never taken for the rest) is skipped possessively, then
# the match ends on the next construct to rewrite or at the end
_PRECLEAN_RE = re.compile(
    rb"(?:[^(<B]++"
    rb"|\(" + _LIT_BODY + rb"\)"          # literal string without nested parens
    rb"|<(?!<)[^>]*+>?"                  # hex string
    rb"|(?!" + _BI + rb")B)*+"            # any other B
    rb"(?:(\()|(<<)|(" + _BI + rb")|\Z)",  # 1: nested literal, 2: dict, 3: inline image
    re.S,
)
_DICT_DELIM_RE = re.compile(rb"<<|>>")
_INLINE_ID = re.compile(rb"(?:^|[\0\t\n\f\r >\]])ID[\0\t\n\f\r ]")
_INLINE_EI_AT = re.compile(rb"[\0\t\n\f\r ]*EI(?=[\0\t\n\f\r ]|$)")
_INLINE_EI_SCAN = re.compile(rb"[\0\t\n\f\r ]EI(?=[\0\t\n\f\r ]|$)")


def _nested_literal(content: bytes, i: int) -> tuple[bytes, int]:
    """The literal string opening at ``content[i]`` with its balanced
    inner parens escaped, and the offset just past it."""
    n = len(content)
    out = bytearray(b"(")
    depth = 1
    j = i + 1
    while j < n and depth:
        b = content[j]
        if b == 0x5C:
            out += content[j : j + 2]
            j += 2
            continue
        if b == 0x28:
            depth += 1
            out += b"\\("
        elif b == 0x29:
            depth -= 1
            out += b")" if depth == 0 else b"\\)"
        else:
            out.append(b)
        j += 1
    return bytes(out), j


def _inline_image_end(content: bytes, i: int) -> int:
    """Offset just past the inline image whose ``BI`` is at ``content[i]``."""
    idm = _INLINE_ID.search(content, i + 2)
    if idm is None:
        raise UnsupportedPdfError("inline image (BI) without ID")
    params = content[i + 2 : idm.start()]
    lm = re.search(rb"/L(?:ength)?\s+(\d+)", params)
    if lm:
        em = _INLINE_EI_AT.match(content, idm.end() + int(lm.group(1)))
        if em is None:
            raise UnsupportedPdfError("inline image /L does not reach EI")
    else:
        em = _INLINE_EI_SCAN.search(content, idm.end())
        if em is None:
            raise UnsupportedPdfError("inline image without EI terminator")
    return em.end()


def _preclean_content(content: bytes) -> bytes:
    """Excise or normalize constructs the token grammar cannot carry:
    inline images (``BI params ID binary EI``, §8.9.7 — sized by /L
    when declared, else terminated by a delimited EI) and ``<< ... >>``
    property dicts (operands of the marked-content operators, §14.6,
    which themselves parse as no-ops) each become one space; literal
    strings with legal UNESCAPED balanced nested parens (§7.3.4.2) are
    rewritten with the inner parens escaped so the token regex can
    read them. String interiors are never excised, and everything
    between the rewritten constructs is copied as whole slices."""
    if b"BI" not in content and b"<<" not in content and b"(" not in content:
        return content
    out = bytearray()
    last = i = 0
    while True:
        m = _PRECLEAN_RE.match(content, i)
        kind = m.lastindex
        if kind is None:  # nothing left to rewrite
            break
        start = m.start(kind)
        if kind == 1:
            repl, i = _nested_literal(content, start)
        elif kind == 2:  # property dict: excise to the matching >>
            depth = 1
            i = m.end()
            while depth:
                dm = _DICT_DELIM_RE.search(content, i)
                if dm is None:
                    raise UnsupportedPdfError("unterminated dictionary in content")
                depth += 1 if dm.group() == b"<<" else -1
                i = dm.end()
            repl = b" "
        else:
            repl, i = b" ", _inline_image_end(content, start)
        out += content[last:start]
        out += repl
        last = i
    if not last:
        return content
    out += content[last:]
    return bytes(out)


def _parse_content(
    content: bytes,
    fonts: "_FontTable",
    page_h: float,
    objs: dict[int, bytes] | None = None,
    xobj_refs: dict[str, int] | None = None,
    ctm0: tuple[float, ...] = _IDM,
    depth: int = 0,
    cols: WordColumns | None = None,
    rotated: list[int] | None = None,
) -> tuple[WordColumns, list[dict], list[dict]]:
    """The content-stream interpreter: one operator loop over the
    token grammar, for the writer's streams and foreign ones alike. It
    reads hex and literal strings (with escapes), TJ arrays with
    kerning adjustments, CID and simple-font text, the Td/TD/T*/TL
    line-positioning family, '/\" move-and-show, Tc/Tw spacing, q/Q/cm
    CTM composition, paths with curve flattening (c/v/y -> endpoint
    segment), form XObjects (Do recurses with the form's resources and
    translation /Matrix; image XObjects are text-free no-ops), and the
    common no-op color/state operators. The text position carries
    across show operators, so `(A) Tj (B) Tj` lays out correctly.

    Words append to ``cols`` (a form XObject's to its caller's), the
    positions of rotated ones to ``rotated``; the outermost call sets
    ``cols.upright`` from them.

    Block lane: at an operator boundary (no operand or array pending)
    of a stream that spells both Tm and Tj, one _WORD_BLOCK_RE match
    takes a whole ``[Tf] [Tz] Tm string Tj`` block and sets the same
    text-state registers the token branches would. An identity-CID
    string under an axis-aligned Tm and identity CTM (every word the
    writers emit) goes straight to the columns with ``_show_word``'s
    math inlined; any other string goes through the same ``show``.
    Anything else is read one token at a time."""
    if cols is None:
        cols, rotated = WordColumns(), []
    lines: list[dict] = []
    rects: list[dict] = []
    operands: list = []  # numbers / names / strings in order
    arr: list | None = None  # open [ ... ] collection (for TJ)
    font_name: str | None = None
    fm_cur: dict | None = None
    size = 0.0
    tz = 100.0
    tc = 0.0
    tw = 0.0
    tl = 0.0
    tm: tuple[float, ...] | None = None
    tlm: tuple[float, ...] | None = None
    content = _preclean_content(content)
    # CTM: full affine composition with q/Q save/restore; cm operators
    # compose freely. Constraints apply at USE: text needs an
    # axis-aligned (or 90-degree) combined matrix, rects an
    # axis-aligned non-flipping one — anything else raises there. An
    # identity CTM is held as the _IDM object itself, so show() can
    # skip composing the text matrix with it.
    ctm = ctm0 = _IDM if ctm0 == _IDM else ctm0
    ctm_stack: list[tuple[float, ...]] = []
    # current path = list of subpaths; materialized ONLY by a paint
    # operator (§8.5.3) — 'n' (no-op terminator, e.g. after W clipping
    # setup) and an unpainted trailing path are DISCARDED, so clipping
    # rectangles never become phantom ruling lines downstream.
    subpaths: list[list[tuple[float, float]]] = []
    path: list[tuple[float, float]] = []
    pending: list[dict] = []  # rects awaiting a paint op

    def clear_path() -> None:
        nonlocal path
        subpaths.clear()
        path = []
        pending.clear()

    def flush_paint() -> None:
        nonlocal path
        if path:
            subpaths.append(path)
        for sp in subpaths:
            for a, b in zip(sp, sp[1:]):
                lines.append(
                    {
                        "x0": a[0],
                        "x1": b[0],
                        "top": page_h - max(a[1], b[1]),
                        "bottom": page_h - min(a[1], b[1]),
                    }
                )
        rects.extend(pending)
        clear_path()

    def font() -> dict:
        nonlocal fm_cur
        if fm_cur is None:
            fm_cur = fonts.get(font_name)
            if fm_cur is None:
                raise UnsupportedPdfError(f"unknown font resource /{font_name}")
        return fm_cur

    def show(raw: bytes) -> None:
        nonlocal tm
        if tm is None or font_name is None:
            raise UnsupportedPdfError("show operator without Tm/Tf state")
        font()
        # the device matrix is the text matrix composed with the CTM
        if fm_cur["kind"] != "simple" or b" " not in raw:
            adv = _show_word(
                cols, rotated, fm_cur, size, tz, tm if ctm is _IDM else _matmul(tm, ctm),
                raw, font_name, page_h, tc, tw,
            )
            tm = _advance_tm(tm, adv)
            return
        # split space-separated runs into WORDS with exact per-run
        # positions (pdfplumber extract_words semantics); the total
        # advance is identical to showing the string whole
        space_adv = (fm_cur["code_w"][32] / 1000.0 * size + tc + tw) * (tz / 100.0)
        parts = raw.split(b" ")
        for pi, run in enumerate(parts):
            if run:
                adv = _show_word(
                    cols, rotated, fm_cur, size, tz, tm if ctm is _IDM else _matmul(tm, ctm),
                    run, font_name, page_h, tc, 0.0,
                )
                tm = _advance_tm(tm, adv)
            if pi < len(parts) - 1:
                tm = _advance_tm(tm, space_adv)

    def next_line() -> None:  # T* — move to the start of the next line
        nonlocal tm, tlm
        if tlm is None:
            raise UnsupportedPdfError("T* without a text line matrix")
        tlm = _translate(0.0, -tl, tlm)
        tm = tlm

    # a stream that never spells both Tm and Tj holds no word block, so
    # text positioned with Td or shown with TJ pays no failed block match
    # at each operator boundary
    lane = b"Tm" in content and b"Tj" in content
    word_block = _WORD_BLOCK_RE.match
    next_token = _TOKEN_RE.search
    unhexlify = binascii.unhexlify
    texts, x0s, x1s, tops, bottoms, sizes, fontnames = (
        cols.text.append, cols.x0.append, cols.x1.append, cols.top.append,
        cols.bottom.append, cols.size.append, cols.fontname.append,
    )
    pos = 0
    while True:
        if lane and arr is None and not operands:
            blk = word_block(content, pos)
            if blk is not None:
                pos = blk.end()
                fname, fsize, z, abcd, e, f, hex_s, lit_s = blk.groups()
                if fname is not None:  # Tf
                    fname = fname.decode()
                    if fname != font_name:
                        font_name, fm_cur = fname, None
                    size = float(fsize)
                if z is not None:  # Tz
                    tz = float(z)
                unit = _UNIT_ABCD.get(abcd)
                a, b, c, d = unit or map(float, abcd.split())
                e, f = float(e), float(f)
                tm = tlm = (a, b, c, d, e, f)
                if hex_s is None:
                    raw = _decode_literal(lit_s)
                else:
                    try:
                        raw = unhexlify(hex_s)
                    except binascii.Error:
                        raw = _unhex(hex_s)
                if fm_cur is None and font_name is not None:
                    font()
                k = None if fm_cur is None else fm_cur["lane"]
                if k is None or ctm is not _IDM or (
                    unit is None and not (abs(b) < 1e-9 and abs(c) < 1e-9 and a > 0 and d > 0)
                ):
                    show(raw)
                    continue
                # _show_word's identity-CID, axis-aligned case
                n = len(raw) // 2
                try:
                    text = _UTF16BE(raw, "strict", True)[0]
                except UnicodeDecodeError as exc:
                    raise UnsupportedPdfError(
                        "CID string is not UTF-16 text (glyph-id CIDs need a /ToUnicode CMap)"
                    ) from exc
                adv = (n * size * k[0] + n * tc) * (tz / 100.0)
                ex = e + adv * a
                if text:
                    texts(text)
                    x0s(e)
                    x1s(ex)
                    tops(page_h - f - k[1] * size * d)
                    bottoms(page_h - f + k[2] * size * d)
                    sizes(size * d)
                    fontnames(font_name)
                tm = (a, b, c, d, ex, f + adv * b)
                continue
        tok = next_token(content, pos)
        if tok is None:
            break
        pos = tok.end()
        hex_s, lit_s, num, name, delim, lit_bad, op = tok.groups()
        if hex_s is not None:
            item = ("str", _unhex(hex_s))
        elif lit_s is not None:
            item = ("str", _decode_literal(lit_s))
        elif num is not None:
            item = ("num", float(num))
        elif name is not None:
            item = ("name", name.decode())
        elif delim is not None:
            if delim == b"[":
                if arr is not None:
                    raise UnsupportedPdfError("nested array operand")
                arr = []
            else:
                if arr is None:
                    raise UnsupportedPdfError("unbalanced ']'")
                operands.append(("arr", arr))
                arr = None
            continue
        elif lit_bad is not None:
            raise UnsupportedPdfError("nested literal string")
        else:
            o = op.decode()
            vals = [v for k, v in operands if k == "num"]
            if o == "Tf":
                names = [v for k, v in operands if k == "name"]
                if not names or not vals:
                    raise UnsupportedPdfError("malformed Tf")
                font_name, size = names[-1], vals[-1]
                fm_cur = None  # re-resolve lazily on next show
            elif o == "Tz":
                tz = vals[-1]
            elif o == "Tc":
                tc = vals[-1]
            elif o == "Tw":
                tw = vals[-1]
            elif o == "TL":
                tl = vals[-1]
            elif o == "Ts":
                if vals[-1] != 0.0:
                    raise UnsupportedPdfError("nonzero text rise (Ts) unsupported")
            elif o == "Tm":
                tm = tlm = tuple(vals[-6:])
            elif o in ("Td", "TD"):
                if tlm is None:
                    raise UnsupportedPdfError(f"{o} without a text line matrix")
                if o == "TD":
                    tl = -vals[-1]
                tm = tlm = _translate(vals[-2], vals[-1], tlm)
            elif o == "T*":
                next_line()
            elif o in ("Tj", "'", '"'):
                strs = [v for k, v in operands if k == "str"]
                if o == '"':
                    if not strs or len(vals) < 2:
                        raise UnsupportedPdfError('malformed " operator')
                    tw, tc = vals[-2], vals[-1]
                elif not strs:
                    raise UnsupportedPdfError(f"{o} without a string")
                if o != "Tj":
                    next_line()
                show(strs[-1])
            elif o == "TJ":
                arrs = [v for k, v in operands if k == "arr"]
                if not arrs:
                    raise UnsupportedPdfError("TJ without an array")
                for kind, v in arrs[-1]:
                    if kind == "str":
                        show(v)
                    else:  # kerning adjustment: -v/1000 em in text space
                        if tm is None:
                            raise UnsupportedPdfError("TJ without Tm state")
                        tm = _advance_tm(tm, -v / 1000.0 * size * (tz / 100.0))
            elif o == "m":
                if path:
                    subpaths.append(path)
                path = [_apply(ctm, vals[-2], vals[-1])]
            elif o == "l":
                path.append(_apply(ctm, vals[-2], vals[-1]))
            elif o in ("c", "v", "y"):
                # curve flattened to its endpoint segment: only the
                # coarse ruling geometry matters downstream
                path.append(_apply(ctm, vals[-2], vals[-1]))
            elif o == "h":  # closepath
                if path:
                    path.append(path[0])
            elif o == "re":
                if abs(ctm[1]) > 1e-9 or abs(ctm[2]) > 1e-9 or ctm[0] <= 0 or ctm[3] <= 0:
                    raise UnsupportedPdfError("rect under rotated/flipped CTM unsupported")
                x, y, w_, h_ = vals[-4:]
                x0d, y0d = _apply(ctm, x, y)
                x1d, y1d = _apply(ctm, x + w_, y + h_)
                pending.append(
                    {"x0": x0d, "x1": x1d, "top": page_h - y1d, "bottom": page_h - y0d}
                )
            elif o in ("S", "s", "f", "F", "B", "b", "f*", "B*", "b*"):
                flush_paint()
            elif o == "n":  # end path WITHOUT painting (clip setup)
                clear_path()
            elif o == "BT":
                tm = tlm = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
            elif o == "cm":
                if len(vals) < 6:
                    raise UnsupportedPdfError("malformed cm")
                ctm = _matmul(tuple(vals[-6:]), ctm)
                if ctm == _IDM:
                    ctm = _IDM
            elif o == "q":
                ctm_stack.append(ctm)
            elif o == "Q":
                ctm = ctm_stack.pop() if ctm_stack else ctm0
            elif o == "Do":
                names = [v for k, v in operands if k == "name"]
                if not names or objs is None or xobj_refs is None:
                    raise UnsupportedPdfError("Do without XObject resources")
                ref = xobj_refs.get(names[-1])
                if ref is None:
                    raise UnsupportedPdfError(f"unknown XObject /{names[-1]}")
                xbody = objs.get(ref, b"")
                xdict = xbody[: max(xbody.find(b"stream"), 0)] or xbody
                if re.search(rb"/Subtype\s*/Image\b", xdict):
                    pass  # images carry no text/ruling geometry
                elif re.search(rb"/Subtype\s*/Form\b", xdict):
                    if depth >= 8:
                        raise UnsupportedPdfError("form XObject nesting too deep")
                    data = _decode_stream(xbody)
                    if data is None:
                        raise UnsupportedPdfError("form XObject without stream")
                    mm = re.search(
                        rb"/Matrix\s*\[\s*(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)"
                        rb"\s+(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)", xdict
                    )
                    fmx = (
                        tuple(float(mm.group(i)) for i in range(1, 7)) if mm else _IDM
                    )
                    # a form with its own /Resources scopes them;
                    # otherwise it inherits the caller's tables (§8.10.1)
                    if re.search(rb"/Resources\b", xdict):
                        sub_fonts = _page_fonts(objs, xdict, fonts.metrics)
                        sub_xobjs = _page_xobjects(objs, xdict)
                    else:
                        sub_fonts, sub_xobjs = fonts, xobj_refs
                    _, l2, r2 = _parse_content(
                        data, sub_fonts, page_h, objs, sub_xobjs,
                        _matmul(fmx, ctm), depth + 1, cols, rotated,
                    )
                    lines.extend(l2)
                    rects.extend(r2)
                else:
                    raise UnsupportedPdfError("XObject subtype outside Image/Form")
            elif o in (
                "ET", "w", "W", "W*", "Tr",
                "g", "G", "rg", "RG", "k", "K", "cs", "CS",
                "sc", "SC", "scn", "SCN", "gs", "ri", "i", "j", "J", "M", "d",
                "BDC", "BMC", "EMC", "MP", "DP",  # marked content (§14.6)
            ):
                pass  # color / state / structure: no text/geometry effect
            else:
                raise UnsupportedPdfError(f"unsupported content operator {o!r}")
            operands = []
            continue
        # operand token: route into the open array or the operand list
        (arr if arr is not None else operands).append(item)
    clear_path()  # trailing unpainted path is never materialized
    if depth == 0 and rotated:
        cols.upright = [True] * len(cols.text)
        for i in rotated:
            cols.upright[i] = False
    return cols, lines, rects


def parse_pdf_bytes(payload: bytes) -> list[dict]:
    """Tokenize a %PDF file back into page dicts ({width, height,
    words, lines, rects}, ``words`` a WordColumns). Raises
    UnsupportedPdfError for anything outside the documented subset (see
    the module docstring's feature boundary)."""
    if not payload.startswith(b"%PDF-"):
        raise UnsupportedPdfError("not a %PDF payload")
    # /Encrypt is handled inside _object_map: supported standard-
    # security RC4 documents (empty user password) decrypt in place;
    # anything else raises there
    objs = _object_map(payload)
    catalog = next((b for b in objs.values() if b"/Type /Catalog" in b or b"/Type/Catalog" in b), None)
    if catalog is None:
        raise UnsupportedPdfError("no document catalog")
    m = re.search(rb"/Pages\s+(\d+)\s+\d+\s+R", catalog)
    if not m:
        raise UnsupportedPdfError("catalog without /Pages")

    # walk the pages TREE (documents beyond ~25 pages use intermediate
    # /Pages nodes), carrying the INHERITABLE attributes (§7.7.3.4):
    # /MediaBox and /Resources flow down to pages that omit them
    def collect_pages(num: int, mb_inh, res_inh: bytes | None, depth: int, acc: list) -> None:
        if depth > 32:
            raise UnsupportedPdfError("pages tree too deep")
        body = objs.get(num)
        if body is None:
            raise UnsupportedPdfError("dangling page reference")
        mb = re.search(
            rb"/MediaBox\s*\[\s*(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)\s+(-?[\d.]+)", body
        )
        mbox = tuple(float(mb.group(i)) for i in range(1, 5)) if mb else mb_inh
        res = body if re.search(rb"/Resources\b", body) else res_inh
        km = re.search(rb"/Kids\s*\[(.*?)\]", body, re.S)
        if km is not None:  # interior /Pages node
            for ref in _REF_RE.finditer(km.group(1)):
                collect_pages(int(ref.group(1)), mbox, res, depth + 1, acc)
            return
        if mbox is None:
            raise UnsupportedPdfError("page without /MediaBox (own or inherited)")
        acc.append((body, mbox, res if res is not None else body))

    page_list: list = []
    collect_pages(int(m.group(1)), None, None, 0, page_list)
    if not page_list:
        raise UnsupportedPdfError("pages tree without leaf pages")
    out: list[dict] = []
    metrics: dict[int, dict] = {}
    for page_body, mbox, res_body in page_list:
        x0, y0, x1, y1 = mbox
        width, height = x1 - x0, y1 - y0
        # /Contents: single ref or an array of refs (§7.8.2 — the array
        # concatenates to ONE logical stream, newline-joined)
        am = re.search(rb"/Contents\s*\[((?:\s*\d+\s+\d+\s+R)+)\s*\]", page_body)
        if am:
            refs = [int(r.group(1)) for r in _REF_RE.finditer(am.group(1))]
        else:
            cm = re.search(rb"/Contents\s+(\d+)\s+\d+\s+R", page_body)
            if not cm:
                raise UnsupportedPdfError("page without /Contents")
            refs = [int(cm.group(1))]
        parts = []
        for r in refs:
            part = _decode_stream(objs.get(r, b""))
            if part is None:
                raise UnsupportedPdfError("contents object without stream")
            parts.append(part)
        content = b"\n".join(parts)
        words, lines, rects = _parse_content(
            content, _page_fonts(objs, res_body, metrics), height, objs, _page_xobjects(objs, res_body)
        )
        out.append(
            {"width": width, "height": height, "words": words, "lines": lines, "rects": rects}
        )
    return out
