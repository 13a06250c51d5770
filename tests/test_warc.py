"""WARC source: writer/parser round-trip, gzip member chaining,
record-type filtering, capability boundaries, and the Ray datasource
end-to-end against the committed fixture pages."""

import io
import os
from datetime import datetime

import pyarrow.parquet as pq
import pytest

from pdf_extractor_ray.sources.warc import (
    UnsupportedWarcError,
    WarcDatasource,
    _gzip_member_deterministic,
    iter_warc_records,
    read_warc,
    warc_record_bytes,
    write_warc,
    write_warc_shards,
)

ROWS = [
    ("https://a.example/x", datetime(2024, 1, 1, 0, 0, 0), b"<html>one</html>"),
    ("https://b.example/y", datetime(2024, 1, 1, 0, 2, 17, 123456), b"\x00\xffbinary body"),
    ("https://c.example/z", datetime(2024, 1, 2), b""),
]


@pytest.mark.parametrize("compress", [True, False])
def test_roundtrip_bytes_and_timestamps(tmp_path, compress):
    path = str(tmp_path / "t.warc")
    assert write_warc(path, ROWS, compress=compress) == 3
    with open(path, "rb") as f:
        recs = list(iter_warc_records(f.read))
    assert len(recs) == 3
    for (u, t, p), r in zip(ROWS, recs):
        assert r["url"] == u
        assert r["payload"] == p  # byte-identical incl. empty + binary
        assert r["warc_ts"] == t  # µs precision survives
        assert r["http_status"] == 200
        assert r["http_content_type"] == "text/html; charset=utf-8"


def test_deterministic_writer_bytes(tmp_path):
    a, b = str(tmp_path / "a.warc.gz"), str(tmp_path / "b.warc.gz")
    write_warc(a, ROWS)
    write_warc(b, ROWS)
    assert open(a, "rb").read() == open(b, "rb").read()


def test_non_content_records_parsed_but_typed():
    blob = warc_record_bytes("https://q/", datetime(2024, 1, 1), b"meta", warc_type="warcinfo")
    blob += warc_record_bytes(
        "https://q/",
        datetime(2024, 1, 1),
        b"GET / HTTP/1.1\r\n\r\n",
        "application/http; msgtype=request",
        warc_type="request",
    )
    blob += warc_record_bytes(
        "https://q/", datetime(2024, 1, 1), b"payload", "text/plain", warc_type="resource"
    )
    recs = list(iter_warc_records(io.BytesIO(blob).read))
    assert [r["type"] for r in recs] == ["warcinfo", "request", "resource"]
    # resource records carry the payload directly (no HTTP envelope);
    # the record-level Content-Type is surfaced
    assert recs[2]["payload"] == b"payload"
    assert recs[2]["http_content_type"] == "text/plain"


def test_small_read_chunks_cross_member_boundaries():
    """Parser must be agnostic to how the stream is chunked: feed the
    gzipped members 7 bytes at a time."""
    blob = b"".join(
        _gzip_member_deterministic(warc_record_bytes(u, t, p)) for u, t, p in ROWS
    )
    bio = io.BytesIO(blob)
    recs = list(iter_warc_records(lambda n: bio.read(min(n, 7))))
    assert [r["payload"] for r in recs] == [p for _, _, p in ROWS]


@pytest.mark.parametrize("compress", [True, False])
def test_one_byte_reads(compress):
    """The gzip magic is checked on the first two bytes even when the
    reader hands out one byte per call."""
    rec = warc_record_bytes(*ROWS[0])
    blob = _gzip_member_deterministic(rec) if compress else rec
    bio = io.BytesIO(blob)
    recs = list(iter_warc_records(lambda n: bio.read(1)))
    assert [r["payload"] for r in recs] == [ROWS[0][2]]


def test_read_warc_pages_exported():
    from pdf_extractor_ray import sources
    from pdf_extractor_ray.sources.warc import read_warc_pages

    assert sources.read_warc_pages is read_warc_pages


def test_boundaries_raise():
    full = _gzip_member_deterministic(
        warc_record_bytes("https://a/", datetime(2024, 1, 1), b"x" * 100)
    )
    with pytest.raises(UnsupportedWarcError, match="truncated gzip"):
        list(iter_warc_records(io.BytesIO(full[: len(full) // 2]).read))
    plain = warc_record_bytes("https://a/", datetime(2024, 1, 1), b"x" * 100)
    with pytest.raises(UnsupportedWarcError, match="truncated WARC record"):
        list(iter_warc_records(io.BytesIO(plain[:-30]).read))
    with pytest.raises(UnsupportedWarcError, match="not a WARC stream"):
        list(iter_warc_records(io.BytesIO(b"GARBAGE" * 100).read))
    with pytest.raises(UnsupportedWarcError, match="Content-Length"):
        bad = b"WARC/1.1\r\nWARC-Type: response\r\n\r\n"
        list(iter_warc_records(io.BytesIO(bad).read))


def test_ray_datasource_matches_parquet(ray_session, pages_path, tmp_path):
    """Shard the committed fixture pages into WARC, read them back via
    the Ray datasource, and require byte-identical html + µs-identical
    warc_ts per url — the source-level analog of the golden contract."""
    table = pq.read_table(pages_path, columns=["url", "warc_ts", "html"])
    paths = write_warc_shards(table, str(tmp_path / "warc"), n_shards=4)
    assert len(paths) == 4 and all(os.path.getsize(p) > 0 for p in paths)

    got = read_warc(paths, batch_rows=64).to_pandas()
    assert len(got) == table.num_rows
    # the fixture corpus contains duplicate urls by design — sort both
    # sides by (url, html) and compare positionally
    key = ["url", "html"]
    want = table.to_pandas().sort_values(key, ignore_index=True)
    got = got.sort_values(key, ignore_index=True)
    assert (got["url"] == want["url"]).all()
    assert (got["html"] == want["html"]).all()
    assert (got["warc_ts"] == want["warc_ts"]).all()
    assert (got["http_content_type"] == "text/html; charset=utf-8").all()


def test_extraction_composes_over_warc(ray_session, pages_path, tmp_path):
    """read_warc → extraction_dataset produces the same extracted_text
    as the parquet path for the same urls (lang re-attached from the
    source table, as a crawl pipeline would from its seed list)."""
    import ray

    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.pipelines.extract import extraction_dataset

    table = pq.read_table(pages_path)
    # keep corpus-wide-unique urls only — the url is the join key below
    full = table.to_pandas()
    df = full.drop_duplicates("url", keep=False).head(40)
    import pyarrow as pa

    sub = pa.Table.from_pandas(df, preserve_index=False)
    assert sub.num_rows == 40
    paths = write_warc_shards(sub, str(tmp_path / "warc"), n_shards=2)
    lang_ref = ray.put(dict(zip(sub["url"].to_pylist(), sub["lang"].to_pylist())))

    def attach_lang(b):
        import pyarrow as pa

        langs = [ray.get(lang_ref)[u] for u in b["url"].to_pylist()]
        return b.append_column("lang", pa.array(langs, pa.string()))

    pages = read_warc(paths).map_batches(attach_lang, batch_format="pyarrow")
    cfg = DEFAULT_CONFIG.with_overrides(concurrency=2)
    got = extraction_dataset(pages, cfg).select_columns(["url", "extracted_text"]).to_pandas()
    want = (
        extraction_dataset(str(pages_path), cfg)
        .select_columns(["url", "extracted_text"])
        .to_pandas()
    )
    want = want[want["url"].isin(set(sub["url"].to_pylist()))]
    merged = got.merge(want, on="url", suffixes=("_warc", "_pq"))
    assert len(merged) == 40
    assert (merged["extracted_text_warc"] == merged["extracted_text_pq"]).all()


def test_distributed_warc_datasink_roundtrip(ray_session, pages_path, tmp_path):
    """Dataset-native write path: every write task emits one atomic
    shard, `_SUCCESS` lists (shard, rows), and the datasource reads
    back byte-identical payloads."""
    import json

    import ray.data

    from pdf_extractor_ray.sources.warc import read_warc, write_warc_dataset

    out = str(tmp_path / "warcout")
    ds = ray.data.read_parquet(pages_path, columns=["url", "warc_ts", "html"]).repartition(5)
    write_warc_dataset(ds, out)

    manifest = json.load(open(f"{out}/_SUCCESS"))
    assert manifest["num_rows"] == 504
    assert sum(s["rows"] for s in manifest["shards"]) == 504
    import glob as _glob

    shards = sorted(_glob.glob(f"{out}/*.warc.gz"))
    assert {s["file"] for s in manifest["shards"]} == {p.split("/")[-1] for p in shards}
    assert not _glob.glob(f"{out}/*.tmp")  # atomic publish, no torn files

    got = read_warc(shards).to_pandas()
    import pyarrow.parquet as pq

    want = pq.read_table(pages_path, columns=["url", "warc_ts", "html"]).to_pandas()
    key = ["url", "html"]
    got = got.sort_values(key, ignore_index=True)
    want = want.sort_values(key, ignore_index=True)
    assert (got["html"] == want["html"]).all()
    assert (got["warc_ts"] == want["warc_ts"]).all()


def test_warc_datasink_wet_mode(ray_session, tmp_path):
    """warc_type='conversion' + string payloads = WET shards; strings
    are utf-8 encoded and read back as their exact bytes."""
    import pandas as pd

    import ray.data

    from pdf_extractor_ray.sources.warc import read_warc, write_warc_dataset

    df = pd.DataFrame(
        {
            "url": [f"https://w.example/{i}" for i in range(6)],
            "warc_ts": pd.to_datetime(["2024-05-01 00:00:01"] * 6),
            "html": [f"text {i} éł" for i in range(6)],  # non-ascii
        }
    )
    out = str(tmp_path / "wet")
    write_warc_dataset(
        ray.data.from_pandas(df).repartition(2), out, warc_type="conversion"
    )
    import glob as _glob

    got = read_warc(sorted(_glob.glob(f"{out}/*.warc.gz"))).to_pandas()
    assert len(got) == 6
    m = dict(zip(got["url"], got["html"]))
    for _, r in df.iterrows():
        assert m[r["url"]] == r["html"].encode("utf-8")
    assert (got["http_content_type"] == "text/plain").all()


def test_read_warc_directory_skips_sidecars(ray_session, pages_path, tmp_path):
    """read_warc over the sink's output DIRECTORY must skip the
    _SUCCESS manifest (file_extensions default)."""
    import ray.data

    from pdf_extractor_ray.sources.warc import read_warc, write_warc_dataset

    out = str(tmp_path / "dirread")
    ds = ray.data.read_parquet(pages_path, columns=["url", "warc_ts", "html"]).repartition(3)
    write_warc_dataset(ds, out)
    assert os.path.exists(os.path.join(out, "_SUCCESS"))
    got = read_warc(out)  # directory, not an explicit shard list
    assert got.count() == 504


def test_unicode_url_percent_encoded(tmp_path):
    """IRI urls must not crash the writer: non-ASCII percent-encodes
    (RFC 3987 mapping), ASCII urls pass byte-identical."""
    path = str(tmp_path / "u.warc")
    write_warc(path, [("https://example.com/café?q=ü", datetime(2024, 1, 1), b"x")])
    with open(path, "rb") as f:
        recs = list(iter_warc_records(f.read))
    assert recs[0]["url"] == "https://example.com/caf%C3%A9?q=%C3%BC"
    assert recs[0]["payload"] == b"x"


def test_warc_native_extraction_with_resume(ray_session, pages_path, tmp_path):
    """The north-rule chain WARC-native: read_warc_pages ->
    run_extraction writes the checkpointed corpus; a re-run resumes
    (0 rows written, every url skipped)."""
    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.pipelines.extract import run_extraction
    from pdf_extractor_ray.sources.warc import read_warc_pages, write_warc_shards

    table = pq.read_table(pages_path, columns=["url", "warc_ts", "html"])
    shards = write_warc_shards(table, str(tmp_path / "warc"), n_shards=3)
    out = str(tmp_path / "corpus")
    cfg = DEFAULT_CONFIG.with_overrides(concurrency=2)

    stats = run_extraction(read_warc_pages(shards), out, cfg)
    assert stats["rows_written"] == 504 and stats["urls_skipped_resume"] == 0

    stats2 = run_extraction(read_warc_pages(shards), out, cfg)
    assert stats2["rows_written"] == 0
    assert stats2["urls_skipped_resume"] == 502  # unique urls in the manifest


def _parse_warc_date_oracle(s: str) -> datetime:
    """The strptime-only WARC-Date parser, kept verbatim."""
    for fmt in ("%Y-%m-%dT%H:%M:%S.%fZ", "%Y-%m-%dT%H:%M:%SZ"):
        try:
            return datetime.strptime(s, fmt)
        except ValueError:
            continue
    raise UnsupportedWarcError(f"unparseable WARC-Date: {s!r}")


def test_parse_warc_date_matches_strptime_hypothesis():
    """_parse_warc_date gives the strptime parser's value or its error
    on canonical dates, fractional seconds, one-digit and out-of-range
    fields, other case, non-ASCII digits and garbage."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from pdf_extractor_ray.sources.warc import _parse_warc_date

    field = st.one_of(
        st.integers(0, 99).map(lambda v: f"{v:02d}"),
        st.integers(0, 9).map(str),
        st.sampled_from(["000", "60", "61", "\u0661\u0662", " 1", "+1", "1_0", ""]),
    )
    stamp = st.builds(
        lambda y, mo, d, h, mi, sec, frac, t, z: f"{y}-{mo}-{d}{t}{h}:{mi}:{sec}{frac}{z}",
        st.one_of(st.integers(0, 9999).map(lambda v: f"{v:04d}"), st.sampled_from(["99", "12345", "\u0662024"])),
        field, field, field, field, field,
        st.sampled_from(["", ".5", ".123456", ".1234567", "."]),
        st.sampled_from(["T", "t", " "]),
        st.sampled_from(["Z", "z", "", "Z ", "\n"]),
    )

    def outcome(f, s):
        try:
            return f(s)
        except UnsupportedWarcError as exc:
            return str(exc)

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(stamp, st.text(max_size=30)))
    def check(s):
        assert outcome(_parse_warc_date, s) == outcome(_parse_warc_date_oracle, s)

    check()
    for s in ("2024-02-29T23:59:59Z", "2023-02-29T00:00:00Z", "2024-01-01T00:00:60Z", "2024-13-01T00:00:00Z"):
        assert outcome(_parse_warc_date, s) == outcome(_parse_warc_date_oracle, s)
