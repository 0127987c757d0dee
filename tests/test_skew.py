from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

from scheduler_ray.stages import skew
from scheduler_ray.stages.segments import sorted_map_groups


def _skewed():
    rows = [{"k": "hot", "v": i} for i in range(900)] + [
        {"k": f"cold{i % 10}", "v": i} for i in range(100)
    ]
    return rd.from_pandas(pd.DataFrame(rows))


def test_detect_hot_keys():
    assert skew.detect_hot_keys(_skewed(), "k", hot_fraction=0.5) == ["hot"]


def test_salting_flattens_groups():
    ds = _skewed()
    hot = skew.detect_hot_keys(ds, "k", hot_fraction=0.5)
    salted = skew.add_salt(ds, "k", hot, factor=8).to_pandas()
    sizes = salted.groupby(["k", "salt"], as_index=False).size().rename(columns={"size": "n"})
    hot_sizes = sizes[sizes["k"] == "hot"]["n"]
    assert len(hot_sizes) == 8  # hot key split into 8 sub-groups
    assert hot_sizes.max() < 900 / 8 * 2  # roughly flat
    cold = sizes[sizes["k"] != "hot"]
    assert (cold["salt"] == 0).all()  # cold keys unsalted


def test_salted_map_groups_counts():
    """Grouping add_salt's output on [key, salt] through sorted_map_groups
    splits the hot key and keeps every row."""
    ds = skew.add_salt(_skewed(), "k", ["hot"], factor=4)

    def count(g: pa.Table) -> pa.Table:
        return pa.table({"k": [g["k"][0].as_py()], "n": [g.num_rows]})

    out = sorted_map_groups(ds, ["k", "salt"], count).to_pandas()
    assert (out["k"] == "hot").sum() == 4
    merged = out.groupby("k")["n"].sum()
    assert merged["hot"] == 900 and merged.drop("hot").sum() == 100
