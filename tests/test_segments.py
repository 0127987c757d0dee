"""The two finishes of ``segments.sorted_agg_by`` and ``segment_scan``'s
null-key check, through Ray."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data as rd
from ray.data import DataContext

from scheduler_ray.stages import relational as rel
from scheduler_ray.stages import segments


def _blocks(seed: int, composite: bool, nulls: bool) -> "list[pa.Table]":
    """Four unsorted blocks of random string keys (and an int second key)
    with int values; a quarter of the string keys null when ``nulls``."""
    rng = np.random.default_rng(seed)
    out = []
    for n in (0, 37, 5, 60):
        k = [f"k{i}" for i in rng.integers(0, 12, n)]
        if nulls:
            k = [None if rng.random() < 0.25 else x for x in k]
        cols = {"k": pa.array(k, pa.string())}
        if composite:
            cols["j"] = pa.array(rng.integers(0, 3, n), pa.int64())
        cols["v"] = pa.array(rng.integers(-50, 50, n), pa.int64())
        cols["w"] = pa.array(rng.integers(0, 1000, n), pa.int64())
        out.append(pa.table(cols))
    return out


def _partial_rows(blocks: "list[pa.Table]", keys: "list[str]") -> int:
    return sum(len(b.to_pandas().dropna(subset=keys).drop_duplicates(keys)) for b in blocks)


def _expected(blocks, keys, aggs) -> "list[dict]":
    df = pd.concat([b.to_pandas() for b in blocks]).dropna(subset=keys)
    if aggs:
        df = df.groupby(keys, as_index=False).agg(aggs)
    else:
        df = df[keys].drop_duplicates()
    return df.sort_values(keys)[[*keys, *aggs]].to_dict("records")


CASES = {
    "sum": (["k"], {"v": "sum"}, False, False),
    "min_max_composite": (["k", "j"], {"v": "min", "w": "max"}, True, False),
    "distinct_null_keys": (["k"], {}, False, True),
    "sum_composite_null_keys": (["k", "j"], {"v": "sum"}, True, True),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bounded_finish_matches_range_sort(case, monkeypatch):
    """At cap - 1 partial rows the gate takes the range sort, at cap and
    cap + 1 the one-task finish; all three return the same key-sorted
    table, the pandas groupby's."""
    keys, aggs, composite, nulls = CASES[case]
    blocks = _blocks(sum(map(ord, case)), composite, nulls)
    ds = rd.from_arrow(blocks).materialize()
    cap = _partial_rows(blocks, keys)
    want = _expected(blocks, keys, aggs)

    scans = []
    real_scan = segments.segment_scan

    def spy(*args, **kwargs):
        scans.append(1)
        return real_scan(*args, **kwargs)

    monkeypatch.setattr(segments, "segment_scan", spy)
    for bound, range_sort in ((cap - 1, True), (cap, False), (cap + 1, False)):
        monkeypatch.setattr(segments, "BOUNDED_FINISH_ROWS", bound)
        scans.clear()
        out = segments.sorted_agg_by(ds, keys, aggs)
        assert bool(scans) == range_sort, bound
        assert out.columns() == [*keys, *aggs]
        assert out.take_all() == want, bound


@pytest.mark.parametrize("case", sorted(CASES))
def test_bounded_finish_splits_output(case, monkeypatch):
    """With no minimum block size the finish returns one block per
    non-empty partial block, in key order across the blocks."""
    keys, aggs, composite, nulls = CASES[case]
    blocks = _blocks(sum(map(ord, case)), composite, nulls)
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", 1)
    out = segments.sorted_agg_by(rd.from_arrow(blocks).materialize(), keys, aggs).materialize()
    assert out.num_blocks() == 3
    assert out.take_all() == _expected(blocks, keys, aggs)


def test_bounded_finish_split_drops_empty_slices(monkeypatch):
    """One key in three blocks: one output row, so two of the three
    slices are empty and are dropped."""
    monkeypatch.setattr(DataContext.get_current(), "target_min_block_size", 1)
    ds = rd.from_arrow([pa.table({"k": ["a"] * n, "v": list(range(n))}) for n in (3, 1, 2)])
    out = segments.sorted_agg_by(ds, "k", {"v": "max"}).materialize()
    assert out.num_blocks() == 1
    assert out.take_all() == [{"k": "a", "v": 2}]


@pytest.mark.parametrize("bound", [0, 10**6])
def test_bounded_finish_all_empty_input(bound, monkeypatch):
    """Every key null: no partial rows reach either finish."""
    monkeypatch.setattr(segments, "BOUNDED_FINISH_ROWS", bound)
    ds = rd.from_arrow([pa.table({"k": pa.array([None] * 4, pa.string()), "v": [1, 2, 3, 4]})])
    assert segments.sorted_agg_by(ds, "k", {"v": "sum"}).take_all() == []


def _null_keyed(n_blocks: int, null_col: str = "k") -> rd.Dataset:
    """``n_blocks`` blocks of 40 rows; every fifth ``null_col`` value null."""
    rng = np.random.default_rng(3)
    tables = []
    for b in range(n_blocks):
        rows = range(b, b + 40)
        k = [None if null_col == "k" and i % 5 == 2 else f"u{i % 7}" for i in rows]
        ts = [None if null_col == "ts" and i % 5 == 2 else b * 39 + i for i in rows]
        tables.append(
            pa.table(
                {
                    "k": pa.array(k, pa.string()),
                    "ts": pa.array(ts, pa.int64()),
                    "v": pa.array(rng.integers(0, 9, 40), pa.int64()),
                }
            )
        )
    return rd.from_arrow(tables)


NULL_KEY_OPS = {
    "sorted_map_groups": lambda ds: segments.sorted_map_groups(ds, ["k"], lambda g: g),
    "group_prefix_sum": lambda ds: rel.group_prefix_sum(ds, "k", "v", "ts"),
    "sessionize": lambda ds: rel.sessionize(ds, key="k", ts_col="ts", gap_s=5),
    "lag_per_group": lambda ds: rel.lag_per_group(ds, "k", ["ts"], "v"),
}


@pytest.mark.parametrize("n_blocks", [1, 4])
@pytest.mark.parametrize("op", sorted(NULL_KEY_OPS))
def test_null_sort_key_raises_value_error(op, n_blocks):
    """Four blocks: the sort's range partitioning (or, when no boundary
    lands next to a null, the scan's null check) meets the null; one
    block: the sort has one range, and the scan's null check meets it."""
    with pytest.raises(ValueError, match=r"null in sort key column\(s\) \['k'"):
        NULL_KEY_OPS[op](_null_keyed(n_blocks)).materialize()


@pytest.mark.parametrize("n_blocks", [1, 4])
@pytest.mark.parametrize("op", ["group_prefix_sum", "lag_per_group", "sessionize"])
def test_null_order_column_raises_value_error(op, n_blocks):
    """A null in the ``order`` column, not the key, of the three operators
    that sort on one: the same error, naming both sort columns."""
    with pytest.raises(ValueError, match=r"null in sort key column\(s\) \['k', 'ts'\]"):
        NULL_KEY_OPS[op](_null_keyed(n_blocks, "ts")).materialize()
