"""Resume / idempotency: a partially-completed run (simulated by
pre-writing some partitions) restarts without re-extracting completed
urls and converges to the same corpus (FIXTURES.md F5)."""

import glob
import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

from pdf_extractor_ray.config import DEFAULT_CONFIG
from pdf_extractor_ray.pipelines.extract import run_extraction
from pdf_extractor_ray.state.manifest import completed_urls, load_manifest

CFG = DEFAULT_CONFIG.with_overrides(rows_per_output_file=64, batch_size=16, concurrency=2)


def _corpus_pairs(out_dir):
    tables = [pq.read_table(p) for p in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))]
    t = pa.concat_tables(tables)
    return set(zip(t["url"].to_pylist(), t["extracted_text"].to_pylist()))


def _partition_urls(out_dir, pid):
    return pq.read_table(os.path.join(out_dir, f"part-{pid}.parquet"), columns=["url"])["url"].to_pylist()


def _extracted_batches(pages_path, n_batches=4, rows=12):
    from pdf_extractor_ray.stages.extractor import Extractor

    pages = pq.read_table(pages_path).slice(0, n_batches * rows)
    ex = Extractor(DEFAULT_CONFIG)
    return [ex(pages.slice(i * rows, rows)) for i in range(n_batches)]


def test_partition_write_options_pinned(pages_path, tmp_path):
    """Partitions are zstd; the per-row-unique columns carry no
    dictionary pages, the two text columns no statistics (url keeps
    its min/max); the file reads back equal to its batch. The shared
    atomic writer leaves no tmp file."""
    from pdf_extractor_ray.state.manifest import PartitionWriter, write_parquet_atomic

    (batch,) = _extracted_batches(pages_path, n_batches=1, rows=40)
    out = str(tmp_path / "w")
    (pid,) = PartitionWriter(out)(batch)["partition_id"].to_pylist()
    path = os.path.join(out, f"part-{pid}.parquet")
    assert pq.read_table(path).equals(batch)
    rg = pq.ParquetFile(path).metadata.row_group(0)
    cols = {rg.column(i).path_in_schema: rg.column(i) for i in range(rg.num_columns)}
    assert set(cols) == set(batch.column_names)
    assert {c.compression for c in cols.values()} == {"ZSTD"}
    for name, c in cols.items():
        dictionary = "RLE_DICTIONARY" in c.encodings
        assert dictionary == (name not in ("url", "extracted_text", "element_inventory")), name
        assert c.is_stats_set == (name not in ("extracted_text", "element_inventory")), name
    urls = batch["url"].to_pylist()
    assert (cols["url"].statistics.min, cols["url"].statistics.max) == (min(urls), max(urls))
    # the sidecar is lineage only: no url list
    with open(os.path.join(out, "_manifest", f"{pid}.json"), encoding="utf-8") as f:
        side = json.load(f)
    assert sorted(side) == [
        "n_rows", "partition_id", "stage_checksum", "url_max", "url_min", "wall_time_s"
    ]
    assert (side["n_rows"], side["url_min"], side["url_max"]) == (len(urls), min(urls), max(urls))
    # the shard exporters' tables lack the corpus columns: plain zstd
    t = pa.table({"doc_id": [3, 1, 2], "text": ["c", "a", "b"]})
    write_parquet_atomic(t, str(tmp_path / "x.parquet"))
    assert pq.read_table(str(tmp_path / "x.parquet")).equals(t)
    assert sorted(os.listdir(tmp_path)) == ["w", "x.parquet"]  # no tmp file left
    rg = pq.ParquetFile(str(tmp_path / "x.parquet")).metadata.row_group(0)
    assert {rg.column(i).compression for i in range(rg.num_columns)} == {"ZSTD"}


def _damage(out_dir, pids):
    """Three ways a killed run leaves a partition uncommitted, plus a
    parquet torn under an intact sidecar."""
    mdir = os.path.join(out_dir, "_manifest")
    no_sidecar, torn_sidecar, no_parquet, torn_parquet = pids
    os.remove(os.path.join(mdir, f"{no_sidecar}.json"))
    with open(os.path.join(mdir, f"{torn_sidecar}.json"), "r+", encoding="utf-8") as f:
        f.truncate(17)
    os.remove(os.path.join(out_dir, f"part-{no_parquet}.parquet"))
    with open(os.path.join(out_dir, f"part-{torn_parquet}.parquet"), "r+b") as f:
        f.truncate(100)


def test_completed_urls_counts_only_committed_partitions(pages_path, tmp_path):
    from pdf_extractor_ray.state.manifest import PartitionWriter

    batches = _extracted_batches(pages_path, n_batches=5)
    out = str(tmp_path / "w")
    w = PartitionWriter(out)
    pids = [w(b)["partition_id"][0].as_py() for b in batches]
    assert completed_urls(out) == {u for b in batches for u in b["url"].to_pylist()}
    _damage(out, pids[:4])
    assert completed_urls(out) == set(batches[4]["url"].to_pylist())
    assert completed_urls(str(tmp_path / "missing")) == set()


def test_resume_reextracts_uncommitted_partitions(ray_session, pages_path, tmp_path):
    """A parquet without its sidecar, a torn sidecar, a sidecar without
    its parquet and a torn parquet all count as not done: the resumed
    run re-extracts their urls, and the committed partitions again
    cover every input url."""
    out = str(tmp_path / "out")
    run_extraction(pages_path, out, cfg=CFG, resume=False)
    pids = [r["partition_id"] for r in load_manifest(out)]
    assert len(pids) >= 5
    lost = {u for pid in pids[:4] for u in _partition_urls(out, pid)}
    kept = {u for pid in pids[4:] for u in _partition_urls(out, pid)}
    _damage(out, pids[:4])
    assert completed_urls(out) == kept
    stats = run_extraction(pages_path, out, cfg=CFG, resume=True)
    assert stats["urls_skipped_resume"] == len(kept)
    assert stats["rows_written"] >= len(lost - kept)
    input_urls = set(pq.read_table(pages_path, columns=["url"])["url"].to_pylist())
    assert completed_urls(out) == input_urls


def test_resume_skips_completed_urls(ray_session, pages_path, tmp_path):
    full = str(tmp_path / "full")
    partial = str(tmp_path / "partial")

    run_extraction(pages_path, full, cfg=CFG, resume=False)

    # simulate a killed run: copy HALF the partitions+manifest to `partial`
    os.makedirs(os.path.join(partial, "_manifest"), exist_ok=True)
    parts = sorted(glob.glob(os.path.join(full, "part-*.parquet")))
    assert len(parts) >= 2, "need multiple partitions to simulate a partial run"
    for p in parts[: len(parts) // 2]:
        pid = os.path.basename(p)[len("part-") : -len(".parquet")]
        import shutil

        shutil.copy(p, os.path.join(partial, os.path.basename(p)))
        shutil.copy(
            os.path.join(full, "_manifest", f"{pid}.json"),
            os.path.join(partial, "_manifest", f"{pid}.json"),
        )

    done_before = completed_urls(partial)
    assert done_before

    stats = run_extraction(pages_path, partial, cfg=CFG, resume=True)
    assert stats["urls_skipped_resume"] == len(done_before)

    # resumed corpus must be identical (per distinct url/text pair) to the
    # uninterrupted run; no url extracted twice beyond input duplicates
    assert _corpus_pairs(partial) == _corpus_pairs(full)

    m = load_manifest(partial)
    all_urls = [u for r in m for u in _partition_urls(partial, r["partition_id"])]
    input_urls = pq.read_table(pages_path, columns=["url"])["url"].to_pylist()
    # each INPUT occurrence processed at most once per distinct url
    assert len(all_urls) <= len(input_urls)
    assert set(all_urls) == set(input_urls)


def test_sharded_resume(ray_session, pages_path, tmp_path):
    """Shard-granular resume: finished shard groups are skipped via
    their _SUCCESS marker with zero reads; only the interrupted shard
    re-runs (and its url-level resume skips its completed urls)."""
    from pdf_extractor_ray.pipelines.extract import corpus_files, run_extraction_sharded

    # split the fixture pages into 4 input shard files
    t = pq.read_table(pages_path)
    in_dir = tmp_path / "shards_in"
    os.makedirs(in_dir)
    n = t.num_rows
    for i in range(4):
        pq.write_table(t.slice(i * n // 4, (i + 1) * n // 4 - i * n // 4), in_dir / f"pages-{i}.parquet")

    out = str(tmp_path / "sharded_out")
    stats = run_extraction_sharded(str(in_dir), out, cfg=CFG, files_per_shard=2)
    assert stats["n_shards"] == 2 and stats["shards_skipped"] == 0
    assert stats["rows_written"] == n
    files = corpus_files(out)
    assert files and all("shard-" in f for f in files)
    total = sum(pq.read_table(f).num_rows for f in files)
    assert total == n

    # complete re-run: every shard skipped via _SUCCESS, nothing written
    stats2 = run_extraction_sharded(str(in_dir), out, cfg=CFG, files_per_shard=2)
    assert stats2["shards_skipped"] == 2 and stats2["rows_written"] == 0

    # interrupt shard 1: drop its _SUCCESS and one of its partitions
    import shutil

    sh1 = os.path.join(out, "shard-00001")
    os.remove(os.path.join(sh1, "_SUCCESS"))
    parts = sorted(glob.glob(os.path.join(sh1, "part-*.parquet")))
    victim = parts[0]
    pid = os.path.basename(victim)[len("part-") : -len(".parquet")]
    lost_rows = pq.read_table(victim).num_rows
    os.remove(victim)
    os.remove(os.path.join(sh1, "_manifest", f"{pid}.json"))

    stats3 = run_extraction_sharded(str(in_dir), out, cfg=CFG, files_per_shard=2)
    assert stats3["shards_skipped"] == 1  # shard 0 untouched
    # only the lost partition redone (input-duplicate urls may collapse)
    assert 0 < stats3["rows_written"] <= lost_rows
    got_urls = set()
    for f in corpus_files(out):
        got_urls.update(pq.read_table(f, columns=["url"])["url"].to_pylist())
    assert got_urls == set(t["url"].to_pylist())
    shutil.rmtree(out)


def test_rerun_on_complete_output_is_noop(ray_session, pages_path, tmp_path):
    out = str(tmp_path / "done")
    run_extraction(pages_path, out, cfg=CFG, resume=False)
    before = sorted(glob.glob(os.path.join(out, "part-*.parquet")))
    stats = run_extraction(pages_path, out, cfg=CFG, resume=True)
    assert stats["rows_written"] <= 2  # only the duplicate-url re-occurrences at most
    after = sorted(glob.glob(os.path.join(out, "part-*.parquet")))
    assert set(before) <= set(after)


def test_run_log_sink(ray_session, pages_path, tmp_path):
    # S8: one JSON line per driver-side event in <out>/_run.log
    import json

    out = str(tmp_path / "logged")
    run_extraction(pages_path, out, cfg=CFG, resume=False)
    run_extraction(pages_path, out, cfg=CFG, resume=True)
    with open(os.path.join(out, "_run.log"), encoding="utf-8") as f:
        events = [json.loads(ln) for ln in f]
    kinds = [e["event"] for e in events]
    assert kinds.count("run_start") == 2
    assert kinds.count("run_complete") == 2
    done = [e for e in events if e["event"] == "run_complete"]
    assert done[0]["rows_written"] > 0
    assert all("ts" in e for e in events)


def _many_page_doc(n_pages: int) -> list[dict]:
    from pdf_extractor_ray.fixtures.generator import _lay_line

    pages = []
    for i in range(n_pages):
        words = _lay_line("ACMEREPORT", 20.0, 72.0, False)
        words += _lay_line(f"body line for page {i} with stable words", 110.0, 72.0, False)
        pages.append({"width": 612.0, "height": 792.0, "words": words})
    return pages


def test_page_checkpoint_resumes_mid_document(tmp_path, monkeypatch):
    """Kill/resume on a pathological multi-page doc (reference
    large_doc_extractor.py:147-199): a crash mid-document leaves the
    per-page sidecar; the retry extracts ONLY the remaining pages and
    the combined result is identical to an uninterrupted run."""
    import pdf_extractor_ray.functions.pdf_words as pw

    pages = _many_page_doc(120)
    want = pw.extract_pdf_pages(pages)
    ckpt = str(tmp_path / "doc.pages.jsonl")

    calls = {"n": 0}
    real_ladder = pw._extract_page_ladder

    def dying_ladder(p, pno, *a, **kw):
        calls["n"] += 1
        if calls["n"] > 40:
            raise KeyboardInterrupt("simulated worker kill")
        return real_ladder(p, pno, *a, **kw)

    monkeypatch.setattr(pw, "_extract_page_ladder", dying_ladder)
    import pytest as _pytest

    with _pytest.raises(KeyboardInterrupt):
        pw.extract_pdf_pages_checkpointed(pages, ckpt)
    assert os.path.exists(ckpt)
    n_journaled = sum(1 for _ in open(ckpt))
    assert n_journaled == 40  # every completed page durable pre-kill

    # retry: count fresh ladder calls — only the missing pages run
    calls2 = {"n": 0}

    def counting_ladder(p, pno, *a, **kw):
        calls2["n"] += 1
        return real_ladder(p, pno, *a, **kw)

    monkeypatch.setattr(pw, "_extract_page_ladder", counting_ladder)
    got = pw.extract_pdf_pages_checkpointed(pages, ckpt)
    assert calls2["n"] == 120 - 40
    assert got == want  # identical to the uninterrupted extraction
    assert not os.path.exists(ckpt)  # sidecar removed on success


def test_page_checkpoint_wired_through_pipeline(ray_session, tmp_path):
    """cfg.page_ckpt_bytes routes big PDF payloads through the
    checkpointed extractor inside the real pipeline (sidecar dir is
    created and cleaned per doc) and output text is unchanged."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from pdf_extractor_ray.functions.pdf_codec import pages_to_pdf_bytes
    from pdf_extractor_ray.pipelines.extract import run_extraction

    payload = pages_to_pdf_bytes(_many_page_doc(30))
    src = str(tmp_path / "pages.parquet")
    pq.write_table(
        pa.table(
            {
                "url": pa.array(["https://x.example/big"], pa.string()),
                "warc_ts": pa.array([None], pa.timestamp("us")),
                "html": pa.array([payload], pa.binary()),
                "text": pa.array([""], pa.string()),
                "lang": pa.array(["en"], pa.string()),
            }
        ),
        src,
    )
    out_plain = str(tmp_path / "plain")
    out_ckpt = str(tmp_path / "ckpt")
    from pdf_extractor_ray.config import DEFAULT_CONFIG

    run_extraction(src, out_plain, cfg=DEFAULT_CONFIG, resume=False)
    run_extraction(
        src, out_ckpt, cfg=DEFAULT_CONFIG.with_overrides(page_ckpt_bytes=1), resume=False
    )

    def text_of(d):
        import glob as g

        t = pq.read_table(sorted(g.glob(os.path.join(d, "part-*.parquet")))[0])
        return t["extracted_text"][0].as_py()

    assert text_of(out_ckpt) == text_of(out_plain)
    assert os.path.isdir(os.path.join(out_ckpt, "_pageckpt"))
    assert os.listdir(os.path.join(out_ckpt, "_pageckpt")) == []  # cleaned on success


def test_page_checkpoint_torn_tail_crash_consistency(tmp_path):
    """Property: truncating the sidecar at ANY byte offset (a kill mid-
    append tears the tail line) still finalizes the doc byte-identically
    — journaled whole lines are reused, the torn tail is re-extracted."""
    import pdf_extractor_ray.functions.pdf_words as pw

    pages = _many_page_doc(12)
    want = pw.extract_pdf_pages(pages)
    ckpt = str(tmp_path / "doc.pages.jsonl")

    # produce a complete sidecar by killing the run at the very end
    class Bomb(RuntimeError):
        pass

    real_finalize = pw._finalize_doc

    def exploding_finalize(*a, **kw):
        raise Bomb()

    pw._finalize_doc = exploding_finalize
    try:
        try:
            pw.extract_pdf_pages_checkpointed(pages, ckpt)
        except Bomb:
            pass
    finally:
        pw._finalize_doc = real_finalize
    full = open(ckpt, "rb").read()
    assert full.count(b"\n") == 12

    # 17 truncation offsets across the file, incl. 0 and len-1
    offsets = sorted({0, len(full) - 1, *(len(full) * i // 15 for i in range(1, 15))})
    for off in offsets:
        with open(ckpt, "wb") as f:
            f.write(full[:off])
        got = pw.extract_pdf_pages_checkpointed(pages, ckpt)
        assert got == want, f"diverged after truncation at byte {off}"
        assert not os.path.exists(ckpt)  # removed on success


def test_page_checkpoint_key_includes_payload_digest(tmp_path, monkeypatch):
    """ADVICE r3: two rows with the same url but DIFFERENT payloads (a
    recrawl at another warc_ts) must not share a sidecar — the tag now
    hashes the payload too, so a retry can never resume from another
    payload's journaled pages."""
    from pdf_extractor_ray.fixtures.generator import _lay_line
    from pdf_extractor_ray.functions.pdf_codec import pages_to_pdf_bytes
    from pdf_extractor_ray.stages.extractor import Extractor
    import pdf_extractor_ray.functions.pdf_words as pw

    def doc(tagline):
        return pages_to_pdf_bytes(
            [{"width": 612.0, "height": 792.0, "words": _lay_line(tagline, 110.0, 72.0, False)}]
        )

    seen = []
    real = pw.extract_pdf_pages_checkpointed

    def spying(pages, ckpt_path, *a, **kw):
        seen.append(ckpt_path)
        return real(pages, ckpt_path, *a, **kw)

    monkeypatch.setattr(pw, "extract_pdf_pages_checkpointed", spying)
    cfg = DEFAULT_CONFIG.with_overrides(page_ckpt_bytes=1)
    ex = Extractor(cfg, ckpt_dir=str(tmp_path))
    ex.extract_one(doc("crawl one body"), url="https://x.example/same")
    ex.extract_one(doc("recrawl two body"), url="https://x.example/same")
    ex.extract_one(doc("crawl one body"), url="https://x.example/same")
    assert len(seen) == 3
    assert seen[0] != seen[1], "same url, different payload must use distinct sidecars"
    assert seen[0] == seen[2], "same url+payload must reuse the same sidecar key"
