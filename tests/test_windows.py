"""Tests for temporal/windowed operators (ops/windows.py) and the
big-big hash join wrapper, plus the n-gram Jaccard dedup and the audio
featurize stub."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture()
def events_ds(ray_session):
    import ray.data

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = pd.DataFrame(
        {
            "event_id": range(8),
            "user_id": [1, 1, 1, 1, 2, 2, 2, 3],
            "ts": [
                base,
                base + pd.Timedelta(minutes=10),  # same session
                base + pd.Timedelta(minutes=60),  # gap 50m -> new session
                base + pd.Timedelta(minutes=70),
                base,
                base + pd.Timedelta(minutes=31),  # gap 31m -> new session
                base + pd.Timedelta(minutes=40),
                base,
            ],
            "value": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
        }
    )
    return ray.data.from_pandas(rows)


def test_sessionize(events_ds):
    from pdf_extractor_ray.ops.windows import sessionize

    out = (
        sessionize(events_ds, key="user_id", ts_col="ts", gap_minutes=30.0)
        .to_pandas()
        .sort_values(["user_id", "session_start"])
        .reset_index(drop=True)
    )
    per_user = out.groupby("user_id")["n_events"].apply(list).to_dict()
    assert per_user == {1: [2, 2], 2: [1, 2], 3: [1]}
    first = out.iloc[0]
    assert first["session_start"] == pd.Timestamp("2024-01-01 00:00:00")
    assert first["session_end"] == pd.Timestamp("2024-01-01 00:10:00")


def test_sessionize_partition_invariant(events_ds):
    from pdf_extractor_ray.ops.windows import sessionize

    def run(ds, p: int):
        return sessionize(ds, key="user_id", ts_col="ts", gap_minutes=30.0, num_partitions=p)

    outs = [
        run(events_ds.repartition(3), p).to_pandas().sort_values(["user_id", "session_start"]).reset_index(drop=True)
        for p in (1, 7, 32)
    ]
    for out in outs[1:]:
        pd.testing.assert_frame_equal(out, outs[0])
    assert outs[0]["n_events"].tolist() == [2, 2, 1, 2, 1]
    assert run(events_ds.filter(lambda r: False), 7).count() == 0


def test_asof_join_empty_right(ray_session):
    """A right side with no rows: every left row comes back once, and
    the right columns are all null but keep their datetime and float
    types."""
    import ray.data

    from pdf_extractor_ray.ops.windows import asof_join

    base = pd.Timestamp("2024-01-01")
    left = ray.data.from_pandas(
        pd.DataFrame(
            {
                "event_id": [0, 1, 2],
                "user_id": [1, 1, 2],
                "ts": [base + pd.Timedelta(minutes=m) for m in (5, 20, 5)],
            }
        )
    )
    right = ray.data.from_pandas(
        pd.DataFrame(
            {
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[ns]"),
                "value": pd.Series([], dtype="float64"),
            }
        )
    )
    out = asof_join(left, right, key="user_id", ts_col="ts", right_cols=("value",)).to_pandas()
    assert sorted(out["event_id"]) == [0, 1, 2]
    assert out["ts_right"].isna().all() and out["value_right"].isna().all()
    assert pd.api.types.is_datetime64_any_dtype(out["ts_right"])
    assert out["value_right"].dtype == np.float64
    assert out["event_id"].dtype == np.int64


def test_asof_join(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.windows import asof_join

    base = pd.Timestamp("2024-01-01")
    left = ray.data.from_pandas(
        pd.DataFrame(
            {
                "event_id": [0, 1, 2],
                "user_id": [1, 1, 2],
                "ts": [base + pd.Timedelta(minutes=m) for m in (5, 20, 5)],
            }
        )
    )
    right = ray.data.from_pandas(
        pd.DataFrame(
            {
                "user_id": [1, 1, 2],
                "ts": [base + pd.Timedelta(minutes=m) for m in (0, 10, 30)],
                "value": [100.0, 200.0, 300.0],
            }
        )
    )
    out = (
        asof_join(left, right, key="user_id", ts_col="ts", right_cols=("value",))
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    # event 0 at t=5 matches right t=0; event 1 at t=20 matches t=10;
    # event 2 (user 2) at t=5 has no prior right row -> nulls
    assert out["value_right"].tolist()[:2] == [100.0, 200.0]
    assert pd.isna(out["value_right"].iloc[2])
    assert out["ts_right"].iloc[1] == base + pd.Timedelta(minutes=10)
    assert pd.isna(out["ts_right"].iloc[2])


def test_sliding_window_agg(events_ds):
    from pdf_extractor_ray.ops.windows import sliding_window_agg

    out = sliding_window_agg(
        events_ds, ts_col="ts", key="user_id", val="value", window_minutes=60, slide_minutes=15
    ).to_pandas()
    # every event lands in exactly 4 windows
    assert out["n"].sum() == 8 * 4
    # the event at 00:00 for user 3 appears in windows starting 23:15..00:00
    u3 = out[out["user_id"] == 3].sort_values("window_start")
    assert len(u3) == 4
    assert u3["window_start"].iloc[-1] == pd.Timestamp("2024-01-01 00:00:00")
    assert u3["window_start"].iloc[0] == pd.Timestamp("2023-12-31 23:15:00")
    assert (u3["sum_value"] == 8.0).all()


def test_running_total(events_ds):
    from pdf_extractor_ray.ops.windows import running_total

    out = (
        running_total(events_ds.repartition(3), key="user_id", ts_col="ts", val="value")
        .to_pandas()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(out) == 8
    assert out["running_value"].tolist() == [1.0, 3.0, 6.0, 10.0, 5.0, 11.0, 18.0, 8.0]


def test_interarrival_stats(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.windows import interarrival_stats

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = pd.DataFrame(
        {
            "event_id": range(8),
            "user_id": [1, 1, 1, 1, 2, 2, 2, 3],
            "ts": [
                base,
                base + pd.Timedelta(minutes=10),
                base + pd.Timedelta(minutes=60),
                base + pd.Timedelta(minutes=70),
                base,
                base + pd.Timedelta(minutes=31),
                base + pd.Timedelta(minutes=40),
                base,
            ],
            # gap is attributed to the LATER event's type:
            # user1 gaps -> a:10m, b:50m, a:10m; user2 -> b:31m, b:9m
            "event_type": ["a", "a", "b", "a", "a", "b", "b", "a"],
        }
    )
    out = (
        interarrival_stats(ray.data.from_pandas(rows).repartition(3))
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    minute_us = 60_000_000
    assert out["event_type"].tolist() == ["a", "b"]
    assert out["sum_gap_us"].tolist() == [20 * minute_us, 90 * minute_us]
    assert out["n_gaps"].tolist() == [2, 3]
    assert out["avg_gap_us"].tolist() == [10.0 * minute_us, 30.0 * minute_us]


def test_topk_per_group(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.windows import topk_per_group

    df = pd.DataFrame(
        {
            "k": ["a"] * 4 + ["b"] * 3,
            "id": range(7),
            "v": [5.0, 9.0, 9.0, 1.0, 2.0, 8.0, 3.0],
        }
    )
    out = (
        topk_per_group(ray.data.from_pandas(df), key="k", val="v", k=2, tiebreak="id")
        .to_pandas()
        .sort_values(["k", "v", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    # group a: v=9 (id 1), v=9 (id 2) — tie broken by id; group b: 8, 3
    assert out[out["k"] == "a"]["id"].tolist() == [1, 2]
    assert out[out["k"] == "b"]["v"].tolist() == [8.0, 3.0]


def test_distinct_count(events_ds):
    from pdf_extractor_ray.ops.windows import distinct_count

    out = distinct_count(events_ds, key="user_id", col="value", alias="n_vals").to_pandas()
    got = dict(zip(out["user_id"], out["n_vals"]))
    assert got == {1: 4, 2: 3, 3: 1}


def test_hash_join(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.relational import hash_join

    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 2, 3], "x": [10, 20, 21, 30]}))
    right = ray.data.from_pandas(pd.DataFrame({"kk": [2, 3, 4], "y": ["b", "c", "d"]}))
    out = hash_join(left, right, on="k", right_on="kk", num_partitions=2).to_pandas()
    out = out.sort_values(["k", "x"]).reset_index(drop=True)
    assert list(out.columns) == ["k", "x", "y"]  # the right key column is dropped
    assert out["k"].tolist() == [2, 2, 3]
    assert out["y"].tolist() == ["b", "b", "c"]
    left_out = hash_join(left, right, on="k", right_on="kk", how="left", num_partitions=3).to_pandas()
    left_out = left_out.sort_values(["k", "x"]).reset_index(drop=True)
    assert left_out["k"].tolist() == [1, 2, 2, 3]
    assert left_out["y"].tolist()[1:] == ["b", "b", "c"] and pd.isna(left_out["y"][0])
    with pytest.raises(ValueError):
        hash_join(left, right, on="k", right_on="kk", how="outer")


def test_range_join(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.relational import range_join

    big = ray.data.from_pandas(
        pd.DataFrame({"id": [1, 2, 3, 4], "v": [5.0, 15.0, 25.0, 99.0]})
    )
    bands = pd.DataFrame({"band": ["a", "b"], "lo": [0.0, 10.0], "hi": [10.0, 30.0]})
    inner = range_join(big, bands, value_col="v").to_pandas().sort_values("id")
    assert inner["id"].tolist() == [1, 2, 3]  # 99.0 has no band
    assert inner["band"].tolist() == ["a", "b", "b"]
    left = range_join(big, bands, value_col="v", how="left").to_pandas().sort_values("id")
    assert len(left) == 4 and pd.isna(left[left["id"] == 4]["band"].iloc[0])
    # boundary semantics: [lo, hi) — v == hi of band a goes to band b
    edge = ray.data.from_pandas(pd.DataFrame({"id": [9], "v": [10.0]}))
    assert range_join(edge, bands, value_col="v").to_pandas()["band"].iloc[0] == "b"


def test_skewed_big_blob(ray_session):
    """One multi-MB document among tiny ones must stream through the
    extraction pool without poisoning the batch (SURVEY §7.4 #2)."""
    import ray.data

    from pdf_extractor_ray.config import DEFAULT_CONFIG
    from pdf_extractor_ray.pipelines.extract import extraction_dataset

    big_html = ("<p>" + "word " * 200 + "</p>") * 5000  # ~5MB
    rows = pd.DataFrame(
        {
            "url": [f"https://s.example/{i}" for i in range(20)],
            "warc_ts": [pd.Timestamp("2024-01-01")] * 20,
            # paragraphs must clear min_paragraph_chars (25) or the
            # boilerplate filter correctly drops them
            "html": [
                big_html.encode() if i == 7 else b"<p>a small but real paragraph with enough content</p>"
                for i in range(20)
            ],
            "lang": ["en"] * 20,
        }
    )
    cfg = DEFAULT_CONFIG.with_overrides(concurrency=2, batch_size=4)
    out = extraction_dataset(ray.data.from_pandas(rows), cfg).to_pandas()
    assert len(out) == 20
    assert out["error"].isna().all()
    big_row = out[out["url"] == "https://s.example/7"].iloc[0]
    assert big_row["n_words"] == 200 * 5000
    assert (out[out["url"] != "https://s.example/7"]["n_words"] == 8).all()


def test_ngram_jaccard_dedup(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.dedup import ngram_jaccard, ngram_jaccard_dedup

    assert ngram_jaccard("a b c d e", "a b c d e", n=2) == 1.0
    assert ngram_jaccard("a b c d e", "v w x y z", n=2) == 0.0
    rows = pd.DataFrame(
        {
            "doc_id": [0, 1, 2],
            "text": [
                "the quick brown fox jumps over the lazy dog again and again",
                "the quick brown fox jumps over the lazy dog again and again",
                "completely different words describing some other topic entirely",
            ],
        }
    )
    kept = sorted(
        ngram_jaccard_dedup(ray.data.from_pandas(rows), threshold=0.8, n=3).to_pandas()["doc_id"]
    )
    assert kept == [0, 2]


def test_audio_featurize(ray_session):
    """Real codec: a genuine PCM WAV decodes; a truncated RIFF header
    and garbage land in the error column (never a raised batch);
    features are deterministic across runs."""
    import ray.data

    from pdf_extractor_ray.functions.media_codec import encode_wav
    from pdf_extractor_ray.ops.multimodal import featurize_audio

    good = encode_wav(np.sin(np.arange(400) / 10.0) * 0.5, 8000)
    torn = b"RIFF\x00\x00\x00\x00WAVEdata" + b"\x01" * 64  # no fmt chunk
    tbl = pa.table(
        {
            "media_id": pa.array([1, 2, 3], pa.int64()),
            "payload": pa.array([good, torn, b"garbage"], pa.binary()),
        }
    )
    out = featurize_audio(ray.data.from_arrow(tbl), feat_dim=8).to_pandas().sort_values("media_id")
    assert out["format"].tolist() == ["wav", "wav", "unknown"]
    assert out["error"].isna().tolist() == [True, False, False]
    assert out["sample_rate"].iloc[0] == 8000 and out["duration_s"].iloc[0] > 0
    out2 = featurize_audio(ray.data.from_arrow(tbl), feat_dim=8).to_pandas().sort_values("media_id")
    assert np.allclose(np.stack(out["feature"].to_numpy()), np.stack(out2["feature"].to_numpy()))


def test_transition_counts_reference(ray_session):
    """Hand-checked Markov transitions with interleaved users and a
    tie broken by event_id."""
    import pandas as pd

    import ray.data
    from pdf_extractor_ray.ops.windows import transition_counts

    rows = [
        # user 1: a -> b -> a ; user 2: b -> b ; equal-ts tie via event_id
        (1, 1, "2024-01-01 00:00:00", "a"),
        (2, 1, "2024-01-01 00:01:00", "b"),
        (3, 1, "2024-01-01 00:02:00", "a"),
        (4, 2, "2024-01-01 00:00:00", "b"),
        (5, 2, "2024-01-01 00:00:00", "b"),  # same ts: event_id orders it
        (6, 3, "2024-01-01 00:00:00", "a"),  # singleton: no transition
    ]
    df = pd.DataFrame(rows, columns=["event_id", "user_id", "ts", "event_type"])
    df["ts"] = pd.to_datetime(df["ts"])
    out = (
        transition_counts(ray.data.from_pandas(df).repartition(3), num_partitions=4)
        .to_pandas()
        .sort_values(["from_type", "to_type"])
        .reset_index(drop=True)
    )
    got = {(r.from_type, r.to_type): (int(r.n), r.p) for r in out.itertuples()}
    assert got == {
        ("a", "b"): (1, 1.0),  # the only transition out of 'a'
        ("b", "a"): (1, 0.5),
        ("b", "b"): (1, 0.5),
    }
