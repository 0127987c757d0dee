"""Skew handling: salted keys for hot domains (SURVEY.md §4).

The page corpus is deliberately skewed — two hot domains
(waterdata.usgs.gov, water.noaa.gov) hold the majority of rows, mirroring
the USGS/NOAA skew in BASELINE.json's north_star.  The reference "handles"
this with a 3-day run timeout (dagster.yaml run_monitoring); we handle it
by salting: any per-key operation whose key distribution is hot gets a
``salt = hash(row) % k`` sub-key for the hot keys only, runs the expensive
phase per (key, salt), and merges the small per-salt partials.

For plain ``map_batches`` stages skew is a non-issue (Ray splits blocks by
size); salting matters where one key's rows are processed whole, as in
``segments.sorted_map_groups``: grouping the salted rows on
``[key, salt]`` splits a hot key into ``factor`` groups (the n-quads
release's ``salt_factor``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from .relational import count_by


def detect_hot_keys(ds: Dataset, key: str, *, hot_fraction: float = 0.05) -> list[str]:
    """Keys holding more than ``hot_fraction`` of the rows with a non-null
    key (a ``count_by``)."""
    counts = {r[key]: r["n"] for r in count_by(ds, [key], "n").take_all()}
    total = sum(counts.values())
    return sorted(k for k, n in counts.items() if n > hot_fraction * total)


def add_salt(
    ds: Dataset,
    key: str,
    hot_keys: list[str],
    *,
    factor: int = 8,
    salt_col: str = "salt",
    id_cols: list[str] | None = None,
) -> Dataset:
    """Append a salt column: ``hash(row content) % factor`` for hot keys,
    0 otherwise.

    Deterministic under re-blocking: the hash covers the row's *content*
    (``id_cols`` if given, else every column) — never the batch-local
    positional index, which varies with Ray block boundaries (ADVICE r1).
    """
    def salt(t: pa.Table) -> pa.Table:
        # the pandas row hash keeps the salts of files already released
        cols = t.select(id_cols or t.column_names).to_pandas()
        h = pd.util.hash_pandas_object(cols, index=False).to_numpy(np.uint64)
        hot = pa.array(hot_keys, t[key].type)
        is_hot = pc.is_in(t[key], value_set=hot).to_numpy(zero_copy_only=False)
        return t.append_column(
            salt_col,
            pa.array(np.where(is_hot, (h % np.uint64(factor)).astype(np.int64), 0), pa.int64()),
        )

    return ds.map_batches(salt, batch_format="pyarrow")
