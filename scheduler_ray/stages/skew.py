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
    hot = set(hot_keys)

    def salt(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        cols = b[id_cols] if id_cols else b
        h = pd.util.hash_pandas_object(cols, index=False).to_numpy(np.uint64)
        is_hot = b[key].isin(hot).to_numpy()
        b[salt_col] = np.where(is_hot, (h % np.uint64(factor)).astype(np.int64), 0)
        return b

    return ds.map_batches(salt, batch_format="pandas")
