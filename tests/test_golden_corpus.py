"""End-to-end byte-identity against the committed golden corpus
(FIXTURES.md F2): read_parquet -> map_batches(Extractor) ->
write(PartitionWriter) -> join on url -> extracted_text == golden_text
bytewise. This is the north rule's correctness contract."""

import os

import pyarrow.parquet as pq
import pytest

from pdf_extractor_ray.config import DEFAULT_CONFIG
from pdf_extractor_ray.pipelines.extract import (
    corpus_stats_by_lang,
    dedup_by_url,
    extraction_dataset,
    run_extraction,
)

CFG = DEFAULT_CONFIG.with_overrides(rows_per_output_file=64, batch_size=16, concurrency=2)


@pytest.fixture(scope="module")
def extracted(ray_session, pages_path, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("corpus"))
    stats = run_extraction(pages_path, out, cfg=CFG, resume=False)
    return out, stats


def _load_corpus(out_dir):
    import glob

    tables = [pq.read_table(p) for p in sorted(glob.glob(os.path.join(out_dir, "part-*.parquet")))]
    import pyarrow as pa

    return pa.concat_tables(tables)


def test_byte_identity_per_url(extracted, golden_path):
    out_dir, stats = extracted
    corpus = _load_corpus(out_dir)
    golden = pq.read_table(golden_path)
    gmap = dict(zip(golden["url"].to_pylist(), golden["golden_text"].to_pylist()))
    got = dict(zip(corpus["url"].to_pylist(), corpus["extracted_text"].to_pylist()))
    assert set(got) == set(gmap)
    bad = [u for u in gmap if got[u].encode("utf-8") != gmap[u].encode("utf-8")]
    assert bad == [], f"{len(bad)} urls mismatch, first: {bad[:3]}"


def test_block_and_word_counts(extracted, golden_path):
    out_dir, _ = extracted
    corpus = _load_corpus(out_dir)
    golden = pq.read_table(golden_path)
    gb = dict(zip(golden["url"].to_pylist(), golden["n_blocks"].to_pylist()))
    gw = dict(zip(golden["url"].to_pylist(), golden["n_words"].to_pylist()))
    for u, nb, nw, err in zip(
        corpus["url"].to_pylist(),
        corpus["n_blocks"].to_pylist(),
        corpus["n_words"].to_pylist(),
        corpus["error"].to_pylist(),
    ):
        if err:
            continue
        assert nb == gb[u], u
        assert nw == gw[u], u


def test_malformed_payload_sets_error(extracted):
    out_dir, _ = extracted
    corpus = _load_corpus(out_dir)
    errs = {u: e for u, e in zip(corpus["url"].to_pylist(), corpus["error"].to_pylist()) if e}
    assert any("malformed" in u for u in errs), "malformed payload should carry an error"
    for u, t in zip(corpus["url"].to_pylist(), corpus["extracted_text"].to_pylist()):
        if u in errs:
            assert t == ""


def test_manifest_lineage(extracted):
    out_dir, stats = extracted
    from pdf_extractor_ray.state.manifest import load_manifest

    rows = load_manifest(out_dir)
    assert len(rows) == stats["partitions_written"]
    assert sum(r["n_rows"] for r in rows) == stats["rows_written"]
    for r in rows:
        assert r["url_min"] <= r["url_max"]
        assert len(r["stage_checksum"]) == 64


def test_groupby_lang_aggregate(ray_session, pages_path):
    ds = extraction_dataset(pages_path)
    agg = corpus_stats_by_lang(ds).to_pandas().set_index("lang")
    assert set(agg.index) <= {"en", "ja", "de", "fr", "es"}
    assert agg["n_docs"].sum() == pq.read_metadata(pages_path).num_rows


def test_dedup_by_url(ray_session, pages_path):
    ds = extraction_dataset(pages_path)
    total = pq.read_metadata(pages_path).num_rows
    unique = dedup_by_url(ds).count()
    n_urls = len(set(pq.read_table(pages_path, columns=["url"])["url"].to_pylist()))
    assert unique == n_urls < total  # fixture plants duplicate urls


def test_dedup_by_url_empty_input_and_partition_count(ray_session):
    """Earliest warc_ts per url for every partition count; a zero-row
    input gives zero rows (the columns are the caller's, so an empty
    result declares none)."""
    import numpy as np
    import pandas as pd
    import ray.data

    from pdf_extractor_ray.stages.extractor import RESULT_SCHEMA

    assert dedup_by_url(ray.data.from_arrow(RESULT_SCHEMA.empty_table())).count() == 0
    rng = np.random.default_rng(5)
    rows = pd.DataFrame(
        {
            "url": [f"u{i}" for i in rng.integers(0, 25, 120)],
            "warc_ts": pd.to_datetime(rng.permutation(120), unit="s"),
            "n_words": np.arange(120, dtype="int64"),
        }
    )
    ds = ray.data.from_pandas(rows).repartition(4)
    want = rows.sort_values("warc_ts").drop_duplicates("url").sort_values("url").reset_index(drop=True)
    for p in (1, 7, 32):
        got = dedup_by_url(ds, num_partitions=p).to_pandas().sort_values("url").reset_index(drop=True)
        pd.testing.assert_frame_equal(got[list(want.columns)], want, check_dtype=False)


def test_sort_by_url(ray_session, pages_path):
    ds = extraction_dataset(pages_path).select_columns(["url", "n_words"])
    urls = [r["url"] for r in ds.sort("url").take(50)]
    assert urls == sorted(urls)


def test_extraction_is_deterministic_across_runs(ray_session, pages_path, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    run_extraction(pages_path, out1, cfg=CFG, resume=False)
    run_extraction(pages_path, out2, cfg=CFG, resume=False)
    c1, c2 = _load_corpus(out1), _load_corpus(out2)
    k1 = sorted(zip(c1["url"].to_pylist(), c1["extracted_text"].to_pylist()))
    k2 = sorted(zip(c2["url"].to_pylist(), c2["extracted_text"].to_pylist()))
    assert k1 == k2
