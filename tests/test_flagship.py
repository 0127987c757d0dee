"""End-to-end flagship pipeline tests on the sf0.001 corpus.

Mirrors the reference's golden-output e2e test shape
(reference userCode/defs_test.py:34-130): run the full pipeline, assert
exact triple membership and P/R ≥ 0.95 against the analytic golden set.
"""

from __future__ import annotations

import duckdb
import pandas as pd

from scheduler_ray import oracles
from scheduler_ray.pipelines import flagship


def _golden(sf_dir: str, sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    return con.sql(sql).df()


def _key(df: pd.DataFrame) -> set[tuple]:
    return set(zip(df["subj"], df["pred"], df["obj"]))


def test_flagship_precision_recall(fixture_sf0001):
    got = flagship.run_flagship(fixture_sf0001).to_pandas()
    want = _golden("/root/testdata/sf0.001", oracles.CANONICAL_TRIPLES_SQL)
    g, w = _key(got), _key(want)
    tp = len(g & w)
    precision = tp / max(1, len(g))
    recall = tp / max(1, len(w))
    assert precision >= 0.95 and recall >= 0.95, (precision, recall)
    # we actually hit exact parity on the synthetic corpus
    assert g == w


def test_flagship_golden_membership(fixture_sf0001):
    """Exact-triple assertions à la the reference's dam→mainstem goldens."""
    got = flagship.run_flagship(fixture_sf0001).to_pandas()
    k = _key(got)
    # doc 6 (src6): valid, %3==0, src6 enabled → linked mainstem 42
    assert (
        "https://pids.geoconnex.dev/src6/6",
        "hyf:linearElement",
        "https://reference.geoconnex.us/collections/mainstems/items/42",
    ) in k
    # doc 3 (src3): %3==0 but src3 gated off → no link triple
    assert not any(
        s == "https://pids.geoconnex.dev/src3/3" and p == "hyf:linearElement"
        for s, p, _ in k
    )
    # 2-hop chain doc 10: alias/provider URIs fully canonicalized away as
    # ENTITIES (blank-node labels deterministically embed the raw root —
    # "_:<raw>#b0" — and are exempt by construction)
    assert not any(
        ("mirror.example" in s or "provider.example" in s) and not s.startswith("_:")
        for s, _, _ in k
    )
    assert not any(
        ("mirror.example" in o or "provider.example" in o) and not o.startswith("_:")
        for _, p, o in k
        if p != "schema:geo" and not p.endswith("/geo")
    )


def test_sorted_partitioned_write(fixture_sf0001, tmp_out):
    out = flagship.run_flagship(fixture_sf0001, out_dir=tmp_out)
    df = out.to_pandas()
    assert set(df.columns) >= {"subj", "obj", "obj_is_literal", "graph", "pred"}
    assert len(df) == 2824


def test_distributed_connected_components():
    import ray.data as rd

    edges = rd.from_items(
        [
            {"node": "a", "root": "b"},
            {"node": "b", "root": "https://pids.geoconnex.dev/x/1"},
            {"node": "c", "root": "d"},
        ]
    )
    from scheduler_ray.stages.canonicalize import connected_components_distributed

    labels = connected_components_distributed(edges).to_pandas()
    lut = dict(zip(labels["node"], labels["label"]))
    assert lut["a"] == lut["b"] == "https://pids.geoconnex.dev/x/1"
    assert lut["c"] == lut["d"] == "c"


def test_canonicalize_joined_matches_broadcast(fixture_sf0001):
    """The partitioned-join rewrite (alias set above the broadcast
    ceiling — ROADMAP §2) must produce byte-identical triples to the
    broadcast hash-LUT path.  canon_broadcast_max_pairs=1 forces the
    switch on this corpus (every alias-bearing doc yields pairs)."""
    from scheduler_ray.config import PipelineConfig

    want = (
        flagship.run_flagship(fixture_sf0001)
        .to_pandas()
        .sort_values(["pred", "subj", "obj"])
        .reset_index(drop=True)
    )
    cfg = PipelineConfig(canon_broadcast_max_pairs=1)
    got = (
        flagship.run_flagship(fixture_sf0001, cfg=cfg)
        .to_pandas()[want.columns.tolist()]
        .sort_values(["pred", "subj", "obj"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)


def test_canonicalize_joined_adversarial_topologies():
    """Joined rewrite vs broadcast rewrite on alias graphs the corpus
    never produces: a 2-cycle, a diamond (two parents one child), a
    two-PID cluster, and a chain whose hops live in different blocks.
    Both paths must pick the same PID-preferring canonical."""
    import pyarrow as pa
    import ray.data as rd

    import ray

    from scheduler_ray.stages.canonicalize import (
        CanonicalRewriter,
        canonicalize_stage_joined,
        collect_sameas_edges,
        lut_ref_from_edges,
        without_sameas,
    )

    P1 = "https://pids.geoconnex.dev/a/1"
    P2 = "https://pids.geoconnex.dev/a/2"

    def _t(rows):
        subj, pred, obj = zip(*rows)
        n = len(rows)
        return pa.table(
            {
                "subj": pa.array(subj, pa.large_string()),
                "pred": pa.array(pred, pa.large_string()),
                "obj": pa.array(obj, pa.large_string()),
                "obj_is_literal": pa.array([False] * n, pa.bool_()),
                "graph": pa.array(["g"] * n, pa.large_string()),
            }
        )

    blocks = [
        _t([  # 2-cycle (no PID): lexicographic minimum wins
            ("https://x.example/cyc1", "owl:sameAs", "https://x.example/cyc2"),
            ("https://x.example/cyc2", "owl:sameAs", "https://x.example/cyc1"),
            ("https://x.example/cyc2", "rdf:type", "hyf:HY_HydroLocation"),
        ]),
        _t([  # diamond: two aliases of the same PID, one referenced
            ("https://x.example/d1", "owl:sameAs", P1),
            ("https://x.example/d2", "owl:sameAs", P1),
            ("https://x.example/d1", "schema:about", "https://x.example/d2"),
        ]),
        _t([  # two PIDs merged: smallest PID wins deterministically
            (P2, "owl:sameAs", P1),
            (P2, "rdf:type", "hyf:HY_HydroLocation"),
        ]),
        _t([  # 3-hop chain, each hop in ITS OWN block (continued below)
            ("https://x.example/c0", "owl:sameAs", "https://x.example/c1"),
        ]),
        _t([
            ("https://x.example/c1", "owl:sameAs", "https://x.example/c2"),
        ]),
        _t([
            ("https://x.example/c2", "owl:sameAs", P2),
            ("https://x.example/c0", "rdf:type", "hyf:HY_HydroLocation"),
        ]),
    ]
    tri = rd.from_arrow(blocks)
    got = (
        canonicalize_stage_joined(tri)
        .to_pandas()
        .sort_values(["pred", "subj", "obj"])
        .reset_index(drop=True)
    )
    lut = ray.get(lut_ref_from_edges(collect_sameas_edges(rd.from_arrow(blocks))))
    rw = CanonicalRewriter(lut)
    # the joined path dedups each block after its last join, which
    # co-locates the two (P1, rdf:type, ...) rows the chains produce
    want = (
        pa.concat_tables([rw(without_sameas(b)) for b in blocks])
        .to_pandas()
        .drop_duplicates()
        .sort_values(["pred", "subj", "obj"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)
    # and the semantic expectations themselves
    k = set(zip(got["subj"], got["pred"], got["obj"]))
    assert ("https://x.example/cyc1", "rdf:type", "hyf:HY_HydroLocation") in k
    assert (P1, "schema:about", P1) in k
    assert (P1, "rdf:type", "hyf:HY_HydroLocation") in k  # P2 → P1, chain c0 → P2 → P1


def test_canonicalize_joined_no_edges():
    """Joined path with zero sameAs pairs: passthrough (+ sameAs drop)."""
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import canonicalize_stage_joined

    tri = rd.from_items(
        [
            {"subj": "s1", "pred": "schema:name", "obj": "x", "graph": "g", "obj_is_literal": True},
            {"subj": "s2", "pred": "schema:name", "obj": "y", "graph": "g", "obj_is_literal": True},
        ]
    )
    out = canonicalize_stage_joined(tri).to_pandas()
    assert sorted(out["subj"]) == ["s1", "s2"]


def test_sorted_map_groups_matches_map_groups():
    """sorted_map_groups must reproduce groupby().map_groups exactly —
    including groups deliberately scattered across many blocks (the
    boundary-straddler fallback) and a hot group wider than a block."""
    import numpy as np
    import ray.data as rd

    from scheduler_ray.stages.segments import sorted_map_groups

    rng = np.random.default_rng(11)
    n = 4000
    df = pd.DataFrame(
        {
            "g1": rng.integers(0, 60, n),          # ~66 rows per group
            "g2": rng.integers(0, 2, n),
            "v": rng.integers(0, 1000, n),
        }
    )
    df.loc[: n // 4, "g1"] = 7  # one hot group wider than a block
    df.loc[: n // 4, "g2"] = 0
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=2)).repartition(13)

    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(g: pa.Table) -> pa.Table:
        return pa.table(
            {
                "g1": g["g1"].slice(0, 1),
                "g2": g["g2"].slice(0, 1),
                "n": [g.num_rows],
                "vsum": [pc.sum(g["v"]).as_py()],
            }
        )

    got = (
        sorted_map_groups(ds, ["g1", "g2"], fn)
        .to_pandas()
        .sort_values(["g1", "g2"])
        .reset_index(drop=True)
    )
    want = (
        ds.groupby(["g1", "g2"])
        .map_groups(fn, batch_format="pyarrow")
        .to_pandas()
        .sort_values(["g1", "g2"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[want.columns.tolist()], want)


def test_sorted_map_groups_all_straddler_blocks():
    """Regression (round-4 flake): a block whose segments are ALL boundary
    straddlers must yield nothing — fn must never see an empty table, so a
    UDF reading row 0 (legal under map_groups) cannot crash on rare block
    layouts."""
    import numpy as np
    import ray.data as rd

    from scheduler_ray.stages.segments import sorted_map_groups

    # 2 groups scattered across 16 blocks: after the range sort almost
    # every block consists ONLY of straddling groups.
    df = pd.DataFrame({"g": np.arange(400) % 2, "v": np.arange(400)})
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=3)).repartition(16)

    import pyarrow as pa
    import pyarrow.compute as pc

    def fn(g: pa.Table) -> pa.Table:
        # g["g"][0] raises on an empty table — the map_groups contract
        return pa.table({"g": [g["g"][0].as_py()], "vsum": [pc.sum(g["v"]).as_py()]})

    def run(op) -> pd.DataFrame:
        return op(fn).to_pandas().sort_values("g").reset_index(drop=True)

    got = run(lambda f: sorted_map_groups(ds, ["g"], f))
    want = run(lambda f: ds.groupby("g").map_groups(f, batch_format="pyarrow"))
    pd.testing.assert_frame_equal(got, want)
    assert got["vsum"].tolist() == df.groupby("g")["v"].sum().tolist()


def test_distributed_cc_multiblock_chains():
    """Alias set spread over many blocks with 3-hop chains: the
    partitioned-join propagation must close every chain without any
    driver-side label materialization (round-1 verdict item 9)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import connected_components_distributed

    n = 500
    rows = []
    for i in range(n):
        pid = f"https://pids.geoconnex.dev/s/{i}"
        rows.append({"node": f"https://a.example/{i}", "root": f"https://b.example/{i}"})
        rows.append({"node": f"https://b.example/{i}", "root": f"https://c.example/{i}"})
        rows.append({"node": f"https://c.example/{i}", "root": pid})
    df = pd.DataFrame(rows).sample(frac=1.0, random_state=0).reset_index(drop=True)
    edges = rd.from_pandas(df).repartition(8)
    labels = connected_components_distributed(edges).to_pandas()
    lut = dict(zip(labels["node"], labels["label"]))
    bad = [
        i
        for i in range(n)
        if lut.get(f"https://a.example/{i}") != f"https://pids.geoconnex.dev/s/{i}"
        or lut.get(f"https://c.example/{i}") != f"https://pids.geoconnex.dev/s/{i}"
    ]
    assert not bad, bad[:5]


def test_distributed_cc_closes_eight_hop_chain():
    """One 8-hop chain spread over four blocks closes to one label: the
    propagation runs to its fixed point, with no round cap."""
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import connected_components_distributed

    rows = [
        {"node": f"https://x.example/{i}", "root": f"https://x.example/{i + 1}"}
        for i in range(8)
    ]
    edges = rd.from_items(rows).repartition(4)
    labels = connected_components_distributed(edges).to_pandas()
    assert set(labels["label"]) == {"https://x.example/0"}


def test_canonicalize_joined_closes_17_node_path():
    """A random-order 17-node alias path, the PID at a random position
    and every edge in its own block, closes to the PID through the
    joined rewrite — as the in-process kernel closes it.  Seed 4 puts
    the PID 12 hops from the far end of the path, more than the ten
    label-propagation rounds the distributed closure used to cap."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import canonicalize_stage_joined

    rng = np.random.default_rng(4)
    pid = "https://pids.geoconnex.dev/chain/1"
    path = [f"https://alias.example/{int(k)}" for k in rng.permutation(1000)[:16]]
    at = int(rng.integers(0, 17))
    path.insert(at, pid)
    assert max(at, 16 - at) > 10
    edges = [(path[i], path[i + 1]) for i in range(16)]
    edges = [edges[i] for i in rng.permutation(16)]
    edge_ds = rd.from_arrow(
        [
            pa.table(
                {
                    "node": pa.array([a], pa.large_string()),
                    "root": pa.array([b], pa.large_string()),
                }
            )
            for a, b in edges
        ]
    )
    tri = rd.from_arrow(
        [
            pa.table(
                {
                    "subj": pa.array(path, pa.large_string()),
                    "pred": pa.array(["schema:name"] * 17, pa.large_string()),
                    "obj": pa.array([f"n{i}" for i in range(17)], pa.large_string()),
                    "obj_is_literal": pa.array([True] * 17),
                    "graph": pa.array(["g"] * 17, pa.large_string()),
                }
            )
        ]
    )
    out = canonicalize_stage_joined(tri, edge_ds).to_pandas()
    assert len(out) == 17
    assert set(out["subj"]) == {pid}


def test_sorted_agg_by_float_composite_keys():
    """Composite keys with a FLOAT column: the dup filter must compare the
    same Arrow string rendering on both sides — pandas astype(str) gives
    '1.0' where Arrow's cast gives '1', which used to let superseded
    per-block partial rows survive (round-4 advice, low)."""
    import numpy as np
    import ray.data as rd

    from scheduler_ray.stages.segments import sorted_agg_by

    rng = np.random.default_rng(5)
    n = 2000
    df = pd.DataFrame(
        {
            "k1": rng.integers(0, 8, n),
            "k2": rng.integers(0, 3, n).astype(np.float64),  # float key: 0.0/1.0/2.0
            "v": rng.integers(0, 10_000, n),
        }
    )
    ds = rd.from_pandas(df.sample(frac=1.0, random_state=1)).repartition(11)
    got = (
        sorted_agg_by(ds, ["k1", "k2"], {"v": "min"})
        .to_pandas()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    want = (
        df.groupby(["k1", "k2"], as_index=False)["v"]
        .min()
        .sort_values(["k1", "k2"])
        .reset_index(drop=True)
    )
    # no duplicated keys may survive, and values must be the exact mins
    assert not got.duplicated(subset=["k1", "k2"]).any()
    pd.testing.assert_frame_equal(
        got.astype({"v": np.int64}), want.astype({"v": np.int64}), check_dtype=False
    )
