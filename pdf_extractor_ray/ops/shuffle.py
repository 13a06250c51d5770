"""Hash-partitioned exchanges: the one shuffle primitive behind the
per-partition operators in `ops/`.

    hash_partition(ds, key_hash, P, fn, schema)
        fn(group) once per partition that holds rows
    co_shuffle(left, right, left_key_hash, right_key_hash, P, fn, schema)
        fn(left_group, right_group) once per partition that holds LEFT
        rows; right_group may be empty (a left join's shape)

A row goes to partition `key_hash % P`, with the hash viewed as uint64.
`key_hash` is a column name or a callable `(pa.Table) -> ndarray`; the
caller passes the hash it already computes (md5 words, `hash_array`,
`hash_pandas_object`, int64 ids; `column_hash(*cols)` is the pandas
hash of key columns), so the caller decides partition contents. Groups reach
`fn` as pandas DataFrames built from each side's own Arrow rows (no
null-filled columns from the other side, so int columns stay int), the
way Ray builds a pandas batch (tensor columns become ndarray cells).
`fn` returns a DataFrame, an Arrow table or None; the module casts it
to `schema` (None: Arrow types inferred from the DataFrame, for group
columns of caller-defined type).

Mechanism. Each input block splits into one Arrow IPC payload per
partition, so the exchange moves fixed-schema rows
`(_part, _side, _payload)` whatever the input types; Ray's own
`groupby` cannot do this for two sides with different columns, and its
sampled sort ranges can come out empty, which yields schema-less
blocks. Here a range sort on `_part` with fixed boundaries (no
sampling pass) cuts the partitions into one reduce block per cluster
CPU, at most P. Every tagged block also sends a schema-only payload to
the first partition of each range, so each reduce block knows both
sides' columns. One sentinel row per range keeps every reduce block
non-empty even when no input block has rows: Ray skips the UDF on an
empty block. Each reduce block emits its partitions' results, or one
empty table of `schema` when it has none, so every output block
carries `schema`. With schema None that empty table has the columns
of fn's result on empty groups, and a column that pandas leaves
untyped there (object) takes the type of the input column of the same
name; only an input whose blocks are all empty sends no schema to any
reducer and still yields schema-less blocks."""

from __future__ import annotations

from typing import Callable, Union

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.block import BlockAccessor

KeyHash = Union[str, Callable[[pa.Table], np.ndarray]]

_EXCHANGE_SCHEMA = pa.schema(
    [("_part", pa.int64()), ("_side", pa.int8()), ("_payload", pa.large_binary())]
)
_SENTINEL = -1


def _typed_table(schema: pa.Schema, **cols) -> pa.Table:
    """Arrow table with an explicit schema — empty PANDAS blocks lose
    their column names inside Ray (PandasBlockSchema names=[]), which
    breaks downstream joins; Arrow blocks keep schema at 0 rows."""
    return pa.table(
        {f.name: pa.array(cols.get(f.name, []), type=f.type) for f in schema}, schema=schema
    )


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _exchange_rows(parts: np.ndarray, side: int, payloads: list) -> pa.Table:
    return pa.table(
        [
            pa.array(parts, pa.int64()),
            pa.array(np.full(len(parts), side, dtype=np.int8)),
            pa.array(payloads, pa.large_binary()),
        ],
        schema=_EXCHANGE_SCHEMA,
    )


def _tagger(key_hash: KeyHash, P: int, side: int, range_firsts: np.ndarray):
    def tag(t: pa.Table) -> pa.Table:
        h = t.column(key_hash).to_numpy() if isinstance(key_hash, str) else key_hash(t)
        h = np.asarray(h)
        if h.dtype != np.uint64:
            h = h.astype(np.int64).view(np.uint64)
        part = (h % np.uint64(P)).astype(np.int64)
        order = np.argsort(part, kind="stable")
        bounds = np.searchsorted(part[order], np.arange(P + 1))
        t = t.take(pa.array(order))
        parts = np.flatnonzero(bounds[1:] > bounds[:-1])
        payloads = [_ipc(t.slice(bounds[p], bounds[p + 1] - bounds[p])) for p in parts]
        payloads += [_ipc(t.schema.empty_table())] * len(range_firsts)
        return _exchange_rows(np.r_[parts, range_firsts], side, payloads)

    return tag


def _as_schema(out, schema: pa.Schema | None) -> pa.Table | None:
    """fn's result as Arrow with `schema`, without the pandas metadata
    from_pandas attaches (Ray cannot hash a schema carrying it)."""
    if out is None:
        return None
    if isinstance(out, pd.DataFrame):
        out = pa.Table.from_pandas(out, schema=schema, preserve_index=False)
    elif schema is not None:
        out = out.select(schema.names).cast(schema)
    return out.replace_schema_metadata(None)


def _typed_like_inputs(schema: pa.Schema, inputs: list) -> pa.Schema:
    """`schema` with each null-typed column (an empty object column in
    pandas) typed like the input column of the same name, if any."""
    typed = {f.name: f.type for s in inputs if s is not None for f in s}
    return pa.schema(
        [pa.field(f.name, typed.get(f.name, f.type)) if pa.types.is_null(f.type) else f for f in schema]
    )


def _exchange(inputs: list, P: int, fn, schema: pa.Schema | None) -> ray.data.Dataset:
    R = max(1, min(P, int(ray.cluster_resources().get("CPU", 1))))
    range_firsts = np.array([P * i // R for i in range(R)], dtype=np.int64)
    sides = len(inputs)

    def reduce(block: pa.Table):
        tables = [pa.ipc.open_stream(p.as_buffer()).read_all() for p in block["_payload"]]
        side = block["_side"].to_numpy()
        part = block["_part"].to_numpy()
        # a side's empty group takes the columns of its first payload
        # here; no payload at all means that side was empty everywhere
        empty = [
            next((t.schema for t, sd in zip(tables, side) if sd == s), None) for s in range(sides)
        ]

        def group(s: int, idx) -> pd.DataFrame:
            ts = [tables[i] for i in idx if side[i] == s and tables[i].num_rows]
            if ts:
                t = pa.concat_tables(ts, promote_options="permissive")
            else:
                t = pa.table({}) if empty[s] is None else empty[s].empty_table()
            return BlockAccessor.for_block(t).to_pandas()

        emitted = False
        order = np.argsort(part, kind="stable")
        for idx in np.split(order, np.flatnonzero(np.diff(part[order])) + 1):
            groups = [group(s, idx) for s in range(sides)]
            if groups[0].empty:
                continue
            out = _as_schema(fn(*groups), schema)
            if out is not None and out.num_rows:
                emitted = True
                yield out
        if emitted:
            return
        if schema is not None:
            yield _typed_table(schema)
        elif empty[0] is not None:  # a left-side schema reached this block
            out = _as_schema(fn(*[group(s, []) for s in range(sides)]), None)
            if out is not None:
                yield _typed_like_inputs(out.schema, empty).empty_table()

    tagged = [
        ds.map_batches(_tagger(key_hash, P, side, range_firsts), batch_format="pyarrow")
        for side, (ds, key_hash) in enumerate(inputs)
    ]
    sentinels = _exchange_rows(range_firsts, _SENTINEL, [_ipc(pa.table({}))] * R)
    rows = tagged[0].union(*tagged[1:], ray.data.from_arrow(sentinels))
    if R > 1:
        rows = rows.sort("_part", boundaries=range_firsts[1:].tolist())
    else:  # Ray samples boundaries when given none: one reducer is a plain merge
        rows = rows.repartition(1)
    return rows.map_batches(reduce, batch_size=None, batch_format="pyarrow")


def column_hash(*cols: str) -> Callable[[pa.Table], np.ndarray]:
    """Key hash of one or more columns: pandas' `hash_array` of one
    column's values (the same uint64 that `hash_pandas_object(series,
    index=False)` gives), or `hash_pandas_object` of the rows of
    several."""
    if len(cols) == 1:
        return lambda t: pd.util.hash_array(t.column(cols[0]).to_numpy())
    return lambda t: pd.util.hash_pandas_object(t.select(list(cols)).to_pandas(), index=False).to_numpy()


def hash_partition(
    ds: ray.data.Dataset,
    key_hash: KeyHash,
    P: int,
    fn: Callable[[pd.DataFrame], object],
    schema: pa.Schema | None,
) -> ray.data.Dataset:
    """Route every row of `ds` to partition key_hash % P and return the
    union of fn(group) over the non-empty partitions, cast to
    `schema`. Equal keys always share a partition, so a per-key
    reduction inside `fn` sees each key's complete row set."""
    return _exchange([(ds, key_hash)], P, fn, schema)


def co_shuffle(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key_hash: KeyHash,
    right_key_hash: KeyHash,
    P: int,
    fn: Callable[[pd.DataFrame, pd.DataFrame], object],
    schema: pa.Schema | None,
) -> ray.data.Dataset:
    """Co-partition two datasets on their key hashes and return the
    union of fn(left_group, right_group) over the partitions holding
    left rows, cast to `schema`. right_group carries the right side's
    columns when it is empty in a partition, and is a column-less
    empty frame only when the whole right side is empty."""
    return _exchange([(left, left_key_hash), (right, right_key_hash)], P, fn, schema)
