"""Tests for the shuffle primitive (ops/shuffle.py): every output block
is an Arrow table of the declared schema, including the edge cases
where partitions, groups or a whole side are empty."""

import numpy as np
import pandas as pd
import pyarrow as pa

KV = pa.schema([("k", pa.int64()), ("v", pa.int64())])
COUNTS = pa.schema([("k", pa.int64()), ("n", pa.int64())])
JOINED = pa.schema([("k", pa.int64()), ("v", pa.int64()), ("y", pa.float64())])


# group functions are lambdas: Ray workers cannot import this test
# module, and cloudpickle ships lambdas by value
_count = lambda g: g.groupby("k").size().reset_index(name="n")  # noqa: E731
# the right group has no columns when the whole right side is empty
_left_join = lambda left, right: (  # noqa: E731
    left.assign(y=np.nan) if right.empty else left.merge(right, on="k", how="left")
)


def _blocks(ds) -> list:
    import ray

    return [ray.get(ref) for b in ds.materialize().iter_internal_ref_bundles() for ref, _ in b.blocks]


def _assert_typed(ds, schema: pa.Schema) -> pd.DataFrame:
    """Every block is Arrow with exactly `schema` (no pandas or
    schema-less block); returns the rows sorted by all columns."""
    blocks = _blocks(ds)
    assert blocks
    for b in blocks:
        assert isinstance(b, pa.Table), type(b)
        assert b.schema.equals(schema), b.schema
    assert ds.schema().base_schema.equals(schema)
    df = pa.concat_tables(blocks).to_pandas()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def _frame(keys, **cols):
    import ray.data

    return ray.data.from_pandas(pd.DataFrame({"k": np.asarray(keys, dtype="int64"), **cols}))


def test_hash_partition_empty_input(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.shuffle import _typed_table, hash_partition

    out = hash_partition(ray.data.from_arrow(_typed_table(KV)), "k", 8, _count, COUNTS)
    assert len(_assert_typed(out, COUNTS)) == 0


def test_hash_partition_more_partitions_than_keys(ray_session):
    """P = 16 over 3 distinct keys: most partitions are empty, and
    every key's rows still meet in one group."""
    from pdf_extractor_ray.ops.shuffle import hash_partition

    keys = np.repeat([3, 7, 40], [5, 1, 9])
    ds = _frame(keys, v=np.arange(len(keys))).repartition(3)
    got = _assert_typed(hash_partition(ds, "k", 16, _count, COUNTS), COUNTS)
    assert got.to_dict("list") == {"k": [3, 7, 40], "n": [5, 1, 9]}


def test_hash_partition_single_partition(ray_session):
    from pdf_extractor_ray.ops.shuffle import hash_partition

    ds = _frame([5, 6, 5], v=[1, 2, 3]).repartition(2)
    got = _assert_typed(hash_partition(ds, "k", 1, _count, COUNTS), COUNTS)
    assert got.to_dict("list") == {"k": [5, 6], "n": [2, 1]}


def test_hash_partition_callable_key_hash(ray_session):
    from pdf_extractor_ray.ops.shuffle import hash_partition

    ds = _frame([1, 1, 2, 2, 2], v=np.zeros(5, dtype="int64")).repartition(2)
    out = hash_partition(
        ds, lambda t: pd.util.hash_array(t.column("k").to_numpy()), 4, _count, COUNTS
    )
    assert _assert_typed(out, COUNTS).to_dict("list") == {"k": [1, 2], "n": [2, 3]}


def test_co_shuffle_key_on_one_side_only(ray_session):
    """Left keys without a right match keep null y; a right-only key
    produces no row (fn runs only where the left side has rows)."""
    from pdf_extractor_ray.ops.shuffle import co_shuffle

    left = _frame([1, 2, 3], v=[10, 20, 30]).repartition(2)
    right = _frame([2, 4], y=[0.5, 4.0])
    got = _assert_typed(co_shuffle(left, right, "k", "k", 8, _left_join, JOINED), JOINED)
    assert got.k.tolist() == [1, 2, 3]
    assert got.v.tolist() == [10, 20, 30]
    assert got.y.isna().tolist() == [True, False, True] and got.y[1] == 0.5


def test_co_shuffle_one_side_empty(ray_session):
    import ray.data

    from pdf_extractor_ray.ops.shuffle import _typed_table, co_shuffle

    left = _frame([1, 2, 3], v=[10, 20, 30])
    empty_right = ray.data.from_arrow(_typed_table(pa.schema([("k", pa.int64()), ("y", pa.float64())])))
    got = _assert_typed(co_shuffle(left, empty_right, "k", "k", 4, _left_join, JOINED), JOINED)
    assert got.k.tolist() == [1, 2, 3] and got.y.isna().all()

    empty_left = ray.data.from_arrow(_typed_table(KV))
    right = _frame([1, 2], y=[1.0, 2.0])
    assert len(_assert_typed(co_shuffle(empty_left, right, "k", "k", 4, _left_join, JOINED), JOINED)) == 0


def test_hash_partition_inferred_schema_fewer_keys_than_ranges(ray_session):
    """schema None and one key over several reduce ranges: the ranges
    without rows still emit an empty block, typed like the block with
    rows (the untyped empty string key takes the input's type), so the
    output has one schema and no schema-less block."""
    import ray.data

    from pdf_extractor_ray.ops.shuffle import column_hash, hash_partition

    ds = ray.data.from_pandas(pd.DataFrame({"s": ["x"] * 4, "v": np.arange(4)})).repartition(2)
    count = lambda g: g.groupby("s").size().reset_index(name="n")  # noqa: E731
    blocks = _blocks(hash_partition(ds, column_hash("s"), 8, count, None))
    assert len(blocks) > 1
    want = pa.schema([("s", pa.string()), ("n", pa.int64())])
    for b in blocks:
        assert isinstance(b, pa.Table) and b.schema.equals(want), b.schema
    assert pa.concat_tables(blocks).to_pydict() == {"s": ["x"], "n": [4]}


def test_migrated_modules_hand_roll_no_exchange():
    """Every exchange in the package runs on this primitive: no module
    but `ops/shuffle.py` holds a hand-rolled `groupby("_part")` /
    `("_rpart")` / `("_kpart")` exchange or a Ray `map_groups`."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "pdf_extractor_ray"
    paths = [p for p in sorted(root.rglob("*.py")) if p != root / "ops" / "shuffle.py"]
    assert len(paths) > 50 and root / "pipelines" / "export.py" in paths
    for path in paths:
        text = path.read_text()
        for exchange in ('groupby("_part")', 'groupby("_rpart")', 'groupby("_kpart")', ".map_groups("):
            assert exchange not in text, (path.name, exchange)
