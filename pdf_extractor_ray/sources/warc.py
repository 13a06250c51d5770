"""WARC (Web ARChive, ISO 28500 / WARC-1.1) source and writer.

The crawl-native ingest format for the north-rule's Common-Crawl-style
web-page table: Common Crawl publishes its corpus as WARC files — one
gzip member per record, `response` records carrying an
`application/http; msgtype=response` payload (HTTP headers + body).
The reference engine has no crawl source at all (it reads local files
handed to it, SURVEY.md §2 S-group); at 100 TB the corpus arrives as
WARC shards, so a first-class streaming reader belongs in the engine.

Format per ISO 28500:2017 / the IIPC warc-specifications (public):

    WARC/1.1<CRLF>
    WARC-Type: response<CRLF>
    WARC-Record-ID: <urn:uuid:...><CRLF>
    WARC-Date: 2024-01-01T00:00:00Z<CRLF>
    WARC-Target-URI: https://...<CRLF>
    Content-Type: application/http; msgtype=response<CRLF>
    Content-Length: N<CRLF>
    <CRLF>
    ...N payload bytes...<CRLF><CRLF>

Reader design (Ray-Data-first):

- `WarcDatasource` is a `FileBasedDatasource`: Ray Data plans one read
  task per file (or file fragment group), so a directory of WARC
  shards streams through the object store with normal backpressure —
  the file is NEVER slurped whole. Decompression is incremental
  (`zlib.decompressobj` per gzip member, `unused_data` chaining
  member-to-member), the record parser consumes a rolling buffer, and
  rows leave as bounded pyarrow batches (`batch_rows`), so peak memory
  per task is O(largest record + batch), not O(file).
- The output schema matches the engine's page-table contract —
  (url, warc_ts, html) plus `http_content_type` — so
  `pipelines.extract.extraction_dataset(read_warc(paths))` composes
  directly.
- Capability boundary, same contract as the PDF/media codecs: a
  stream that is not WARC (bad magic, malformed header, truncated
  record) raises `UnsupportedWarcError` — never guesses.
"""

from __future__ import annotations

import hashlib
import zlib
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Any, Callable, Iterator

if TYPE_CHECKING:  # pragma: no cover
    import pyarrow


class UnsupportedWarcError(ValueError):
    """Stream is not a WARC layout this reader supports."""


# ---------------------------------------------------------------------------
# writer (fixtures + export)
# ---------------------------------------------------------------------------

_CRLF = b"\r\n"


def _warc_date(ts) -> str:
    """ISO-8601 UTC per WARC-1.1 §5.4 (microseconds kept when present
    so a parquet timestamp[us] round-trips bit-exactly)."""
    if hasattr(ts, "to_pydatetime"):  # pandas.Timestamp
        ts = ts.to_pydatetime()
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    if ts.microsecond:
        return ts.strftime("%Y-%m-%dT%H:%M:%S.%fZ")
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def _record_id(url: str, date: str) -> str:
    """Deterministic urn:uuid (md5 of url+date formatted as UUID) —
    stable fixture bytes run-to-run, no RNG in the writer."""
    h = hashlib.md5((url + "|" + date).encode("utf-8")).hexdigest()
    return f"<urn:uuid:{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}>"


def warc_record_bytes(
    url: str,
    warc_ts,
    payload: bytes,
    http_content_type: str = "text/html; charset=utf-8",
    warc_type: str = "response",
) -> bytes:
    """Serialize ONE record. `response` records wrap the payload in a
    minimal HTTP/1.1 200 envelope (the Common-Crawl layout); any other
    warc_type stores the payload directly (a `resource` record)."""
    date = _warc_date(warc_ts)
    if warc_type == "response":
        http = (
            b"HTTP/1.1 200 OK" + _CRLF
            + b"Content-Type: " + http_content_type.encode("ascii") + _CRLF
            + b"Content-Length: " + str(len(payload)).encode("ascii") + _CRLF
            + _CRLF
            + payload
        )
        block, ctype = http, "application/http; msgtype=response"
    else:
        block, ctype = payload, http_content_type
    try:
        uri = url.encode("ascii")
    except UnicodeEncodeError:
        # IRI -> URI per RFC 3987: percent-encode the non-ASCII bytes
        # (WARC-Target-URI must be ASCII); ASCII urls pass unchanged
        from urllib.parse import quote

        uri = quote(url, safe=":/?#[]@!$&'()*+,;=%").encode("ascii")
    head = (
        b"WARC/1.1" + _CRLF
        + b"WARC-Type: " + warc_type.encode("ascii") + _CRLF
        + b"WARC-Record-ID: " + _record_id(url, date).encode("ascii") + _CRLF
        + b"WARC-Date: " + date.encode("ascii") + _CRLF
        + b"WARC-Target-URI: " + uri + _CRLF
        + b"Content-Type: " + ctype.encode("ascii") + _CRLF
        + b"Content-Length: " + str(len(block)).encode("ascii") + _CRLF
        + _CRLF
    )
    return head + block + _CRLF + _CRLF


def write_warc(path: str, rows, compress: bool = True, warc_type: str = "response") -> int:
    """Write rows of (url, warc_ts, payload[, http_content_type]) as a
    WARC file — one gzip member per record when `compress` (the
    Common-Crawl convention, enabling record-level random access), a
    plain concatenation otherwise. warc_type='conversion' with
    text/plain payloads produces Common-Crawl WET-style files.
    Returns the record count."""
    n = 0
    default_ct = "text/plain" if warc_type == "conversion" else "text/html; charset=utf-8"
    with open(path, "wb") as f:
        for row in rows:
            url, ts, payload = row[0], row[1], row[2]
            ctype = row[3] if len(row) > 3 else default_ct
            rec = warc_record_bytes(url, ts, payload, ctype, warc_type=warc_type)
            if compress:
                # mtime=0 pins gzip header bytes → deterministic files
                rec = _gzip_member_deterministic(rec)
            f.write(rec)
            n += 1
    return n


def _gzip_member_deterministic(data: bytes) -> bytes:
    """One gzip member with a zeroed mtime so fixture bytes are stable."""
    co = zlib.compressobj(6, zlib.DEFLATED, -15)
    body = co.compress(data) + co.flush()
    header = b"\x1f\x8b\x08\x00" + b"\x00\x00\x00\x00" + b"\x00\xff"
    crc = zlib.crc32(data) & 0xFFFFFFFF
    trailer = crc.to_bytes(4, "little") + (len(data) & 0xFFFFFFFF).to_bytes(4, "little")
    return header + body + trailer


def write_warc_shards(
    table: "pyarrow.Table",
    out_dir: str,
    n_shards: int = 8,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    payload_col: str = "html",
    warc_type: str = "response",
) -> list[str]:
    """Shard a page table into `n_shards` WARC files by md5(url) — the
    deterministic fixture/export path (used by the warc_roundtrip /
    extract_wet_roundtrip oracle queries and tests). String payload
    columns are utf-8 encoded (the WET text path)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    urls = table[url_col].to_pylist()
    tss = table[ts_col].to_pylist()
    payloads = [
        p.encode("utf-8") if isinstance(p, str) else p
        for p in table[payload_col].to_pylist()
    ]
    buckets: list[list] = [[] for _ in range(n_shards)]
    for u, t, p in zip(urls, tss, payloads):
        shard = int(hashlib.md5(u.encode()).hexdigest()[:8], 16) % n_shards
        buckets[shard].append((u, t, p))
    paths = []
    for i, rows in enumerate(buckets):
        p = os.path.join(out_dir, f"shard-{i:04d}.warc.gz")
        write_warc(p, rows, compress=True, warc_type=warc_type)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# reader
# ---------------------------------------------------------------------------


def _iter_decompressed(read: Callable[[int], bytes], chunk: int = 1 << 20) -> Iterator[bytes]:
    """Yield decompressed chunks from a possibly member-gzipped stream.
    Members are chained via decompressobj.unused_data so a
    one-member-per-record Common-Crawl file streams without ever
    holding more than `chunk` compressed bytes."""
    pending = b""
    while len(pending) < 2:  # a reader may hand out fewer bytes than asked
        b = read(chunk)
        if not b:
            break
        pending += b
    if not pending:
        return
    if pending[:2] != b"\x1f\x8b":  # plain WARC
        yield pending
        while True:
            b = read(chunk)
            if not b:
                return
            yield b
    d = zlib.decompressobj(31)
    fed = False  # current member has consumed bytes but not finished
    while True:
        if pending:
            out = d.decompress(pending)
            fed = True
            if out:
                yield out
            if d.eof:
                pending = d.unused_data
                d = zlib.decompressobj(31)
                fed = False
                continue
            pending = b""
        else:
            b = read(chunk)
            if not b:
                if fed:
                    raise UnsupportedWarcError("truncated gzip member at end of WARC file")
                return
            pending = b


# whole seconds first: the common form then parses on the first try, and
# no string matches both (one has a '.' after the seconds, the other none)
_TS_FORMATS = ("%Y-%m-%dT%H:%M:%SZ", "%Y-%m-%dT%H:%M:%S.%fZ")


def _parse_warc_date(s: str) -> datetime:
    for fmt in _TS_FORMATS:
        try:
            return datetime.strptime(s, fmt)
        except ValueError:
            continue
    raise UnsupportedWarcError(f"unparseable WARC-Date: {s!r}")


def _split_http_payload(block: bytes) -> tuple[bytes, str | None, int | None]:
    """(body, content-type, status) from an application/http block."""
    sep = block.find(b"\r\n\r\n")
    if sep < 0:
        raise UnsupportedWarcError("http payload without header terminator")
    head, body = block[:sep], block[sep + 4 :]
    lines = head.split(b"\r\n")
    status: int | None = None
    if lines and lines[0][:5] == b"HTTP/":
        parts = lines[0].split()
        if len(parts) >= 2 and parts[1].isdigit():
            status = int(parts[1])
    ctype = None
    for ln in lines[1:]:
        k, _, v = ln.partition(b":")
        if k.strip().lower() == b"content-type":
            ctype = v.strip().decode("latin-1")
    return body, ctype, status


def iter_warc_records(read: Callable[[int], bytes]) -> Iterator[dict[str, Any]]:
    """Parse a WARC byte stream (gzipped or plain) into record dicts:
    {type, url, warc_ts, payload, http_content_type, http_status}.
    Non-content records (warcinfo/request/metadata) are yielded too —
    callers filter; the Ray datasource keeps response/resource only."""
    buf = bytearray()
    chunks = _iter_decompressed(read)
    done = False
    while True:
        # top up until one full record is in the buffer
        while True:
            # strip inter-record CRLFs
            start = 0
            while start < len(buf) and buf[start] in (0x0D, 0x0A):
                start += 1
            if start:
                del buf[:start]
            hdr_end = buf.find(b"\r\n\r\n")
            if hdr_end >= 0:
                head = bytes(buf[:hdr_end])
                if not head.startswith(b"WARC/"):
                    raise UnsupportedWarcError("record does not start with WARC/ version line")
                headers: dict[str, str] = {}
                for ln in head.split(b"\r\n")[1:]:
                    k, _, v = ln.partition(b":")
                    headers[k.strip().lower().decode("latin-1")] = v.strip().decode("latin-1")
                try:
                    clen = int(headers["content-length"])
                except (KeyError, ValueError):
                    raise UnsupportedWarcError("WARC record without integer Content-Length")
                if len(buf) >= hdr_end + 4 + clen:
                    break  # full record buffered
            elif len(buf) > (1 << 20) and not bytes(buf[:5]).startswith(b"WARC/"):
                raise UnsupportedWarcError("not a WARC stream (no version line)")
            if done:
                if buf:
                    if not bytes(buf[:5]).startswith(b"WARC/"):
                        raise UnsupportedWarcError("not a WARC stream (no version line)")
                    raise UnsupportedWarcError("truncated WARC record at end of stream")
                return
            nxt = next(chunks, None)
            if nxt is None:
                done = True
            else:
                buf.extend(nxt)
        block = bytes(buf[hdr_end + 4 : hdr_end + 4 + clen])
        del buf[: hdr_end + 4 + clen]
        rtype = headers.get("warc-type", "")
        rec: dict[str, Any] = {
            "type": rtype,
            "url": headers.get("warc-target-uri"),
            "warc_ts": _parse_warc_date(headers["warc-date"]) if "warc-date" in headers else None,
            "http_content_type": None,
            "http_status": None,
            "payload": block,
        }
        ctype = headers.get("content-type", "")
        if rtype in ("response", "revisit") and ctype.startswith("application/http"):
            body, http_ct, status = _split_http_payload(block)
            rec["payload"], rec["http_content_type"], rec["http_status"] = body, http_ct, status
        elif rtype in ("resource", "conversion") and ctype:
            # no HTTP envelope: surface the record-level Content-Type
            rec["http_content_type"] = ctype
        yield rec


def _records_to_table(rows: list[dict[str, Any]]) -> "pyarrow.Table":
    import pyarrow as pa

    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "warc_ts": pa.array([r["warc_ts"] for r in rows], pa.timestamp("us")),
            "html": pa.array([r["payload"] for r in rows], pa.binary()),
            "http_content_type": pa.array([r["http_content_type"] for r in rows], pa.string()),
        }
    )


try:  # Ray is an optional import at module load (parser is pure-python)
    from ray.data.datasource import FileBasedDatasource as _FBD
except Exception:  # pragma: no cover
    _FBD = object  # type: ignore[assignment,misc]


class WarcDatasource(_FBD):
    """Ray Data datasource over WARC shards. One streaming read task
    per file; emits bounded pyarrow batches of
    (url, warc_ts, html, http_content_type) for response/resource
    records — the page-table contract, so the extraction pipeline
    consumes it unchanged."""

    _FILE_EXTENSIONS = ["warc", "warc.gz"]

    def __init__(self, paths, batch_rows: int = 256, **kwargs):
        # default to WARC extensions so reading a sink's output
        # DIRECTORY skips its _SUCCESS manifest (and other sidecars)
        kwargs.setdefault("file_extensions", self._FILE_EXTENSIONS)
        super().__init__(paths, **kwargs)
        self._batch_rows = batch_rows

    def _read_stream(self, f, path: str):
        rows: list[dict[str, Any]] = []
        for rec in iter_warc_records(f.read):
            # conversion = Common-Crawl WET extracted-text records
            if rec["type"] not in ("response", "resource", "conversion") or rec["url"] is None:
                continue
            rows.append(rec)
            if len(rows) >= self._batch_rows:
                yield _records_to_table(rows)
                rows = []
        if rows:
            yield _records_to_table(rows)


def read_warc(paths, batch_rows: int = 256, **read_args):
    """`ray.data.read_parquet`-shaped entry: Dataset of
    (url, warc_ts, html, http_content_type) from WARC shard files."""
    import ray.data

    return ray.data.read_datasource(WarcDatasource(paths, batch_rows=batch_rows), **read_args)


try:
    from ray.data import Datasink as _Datasink
except Exception:  # pragma: no cover
    _Datasink = object  # type: ignore[assignment,misc]


class WarcDatasink(_Datasink):
    """Distributed WARC/WET sink: `ds.write_datasink(WarcDatasink(dir))`
    lets every write TASK serialize its blocks into its own
    member-gzipped shard (named by task index — deterministic under
    retry), written atomically (tmp + rename) so a killed run never
    publishes a torn shard; `on_write_complete` publishes a `_SUCCESS`
    manifest listing (shard, rows) — the same resumable-output
    discipline as the parquet corpus sink (state/manifest.py). This is
    the 100-TB write path; the driver-side `write_warc_shards` remains
    the small-fixture/export convenience.

    String payload columns are utf-8 encoded (WET text);
    warc_type='conversion' + a text/plain payload produces
    Common-Crawl WET shards.
    """

    def __init__(
        self,
        out_dir: str,
        url_col: str = "url",
        ts_col: str = "warc_ts",
        payload_col: str = "html",
        warc_type: str = "response",
        compress: bool = True,
    ) -> None:
        self._out_dir = out_dir
        self._cols = (url_col, ts_col, payload_col)
        self._warc_type = warc_type
        self._compress = compress

    @property
    def supports_distributed_writes(self) -> bool:
        return True

    def get_name(self) -> str:
        return "WARC"

    def on_write_start(self) -> None:
        import os

        os.makedirs(self._out_dir, exist_ok=True)

    def write(self, blocks, ctx) -> list:
        import os

        url_col, ts_col, payload_col = self._cols
        rows: list[tuple] = []
        for block in blocks:
            if hasattr(block, "to_pydict"):  # pyarrow.Table
                d = block.to_pydict()
            else:  # pandas.DataFrame
                d = {c: block[c].tolist() for c in (url_col, ts_col, payload_col)}
            for u, t, p in zip(d[url_col], d[ts_col], d[payload_col]):
                if isinstance(p, str):
                    p = p.encode("utf-8")
                rows.append((u, t, p))
        ext = ".warc.gz" if self._compress else ".warc"
        path = os.path.join(self._out_dir, f"shard-{ctx.task_idx:05d}{ext}")
        tmp = path + ".tmp"
        n = write_warc(tmp, rows, compress=self._compress, warc_type=self._warc_type)
        os.replace(tmp, path)  # atomic publish
        return [(os.path.basename(path), n)]

    def on_write_complete(self, write_result) -> None:
        import json
        import os

        shards = sorted(
            (name, int(n)) for ret in write_result.write_returns for name, n in ret
        )
        tmp = os.path.join(self._out_dir, "_SUCCESS.tmp")
        with open(tmp, "w") as f:
            json.dump(
                {
                    "num_rows": int(write_result.num_rows),
                    "shards": [{"file": s, "rows": n} for s, n in shards],
                },
                f,
            )
        os.replace(tmp, os.path.join(self._out_dir, "_SUCCESS"))


def write_warc_dataset(
    ds,
    out_dir: str,
    url_col: str = "url",
    ts_col: str = "warc_ts",
    payload_col: str = "html",
    warc_type: str = "response",
    compress: bool = True,
) -> None:
    """Dataset-native distributed WARC write (one shard per write
    task; `_SUCCESS` manifest on completion)."""
    ds.write_datasink(
        WarcDatasink(
            out_dir,
            url_col=url_col,
            ts_col=ts_col,
            payload_col=payload_col,
            warc_type=warc_type,
            compress=compress,
        )
    )


def read_warc_pages(paths, default_lang: str = "und", batch_rows: int = 256, **read_args):
    """read_warc projected onto the extraction pipeline's input schema
    (url, warc_ts, html, lang): the http content-type column drops and
    lang defaults to BCP-47 'und' (undetermined) — the downstream
    language-ID operators refine it. `run_extraction(read_warc_pages(
    shards), out_dir)` is the WARC-native flagship pipeline with the
    same checkpoint manifest + resume semantics as the parquet path."""
    import pyarrow as pa

    ds = read_warc(paths, batch_rows=batch_rows, **read_args)

    def proj(t: "pyarrow.Table") -> "pyarrow.Table":
        t = t.drop_columns(["http_content_type"])
        return t.append_column("lang", pa.array([default_lang] * len(t), pa.string()))

    return ds.map_batches(proj, batch_format="pyarrow")
