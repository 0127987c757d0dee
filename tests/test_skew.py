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


def test_add_salt_pinned():
    """The salt of a row is golden: a salted release concatenates its
    gzip members in salt order, so a changed salt changes the bytes of
    every hot source's file.  Values recorded from the pandas-batch
    implementation; a null key, a null flag and two hot keys included."""
    t = pa.table(
        {
            "graph": pa.array(
                ["hot", "cold", "hot", None, "hot", "warm", "hot", "cold"], pa.large_string()
            ),
            "subj": pa.array([f"https://x.example/s/{i}" for i in range(8)], pa.large_string()),
            "n": pa.array([3, 1, 4, 1, 5, 9, 2, 6], pa.int64()),
            "flag": pa.array([True, False, True, True, False, None, True, False]),
        }
    )
    want = {
        None: [1, 0, 0, 0, 3, 4, 4, 0],
        ("subj",): [3, 0, 4, 0, 1, 4, 3, 0],
        ("n", "graph"): [3, 0, 1, 0, 3, 1, 4, 0],
    }
    for id_cols, salts in want.items():
        out = skew.add_salt(
            rd.from_arrow(t), "graph", ["hot", "warm"], factor=5,
            id_cols=list(id_cols) if id_cols else None,
        ).to_pandas()
        assert list(out.columns) == t.column_names + ["salt"]
        assert out["salt"].dtype == "int64"
        assert out["salt"].tolist() == salts, id_cols
