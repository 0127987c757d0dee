"""Single-pass streaming materialize (pipelines/streaming.py).

Parity with the two-pass flagship path on the synthetic corpus, plus an
explicit cross-batch-chain scenario that exercises the global-merge →
sidecar-flag → fixup machinery (the case local canonicalization alone
cannot close).
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pytest

import ray.data as rd

from scheduler_ray.pipelines import flagship
from scheduler_ray.pipelines.streaming import write_canonical_single_pass
from scheduler_ray.stages.expand import TRIPLE_SCHEMA


def _tripleset(df):
    return set(zip(df["subj"], df["pred"], df["obj"], df["obj_is_literal"], df["graph"]))


def test_single_pass_matches_two_pass(fixture_sf0001, tmp_out):
    """The single-pass writer (out_dir) and the two-pass canonical
    Dataset (no out_dir) are the same graph."""
    one = flagship.run_flagship(fixture_sf0001, out_dir=tmp_out).to_pandas()
    two = flagship.run_flagship(fixture_sf0001).to_pandas()
    assert len(one) == len(two) == 2824
    assert _tripleset(one) == _tripleset(two)
    assert list(one.columns) == [f.name for f in TRIPLE_SCHEMA]


def _tbl(rows):
    cols = list(zip(*rows))
    return pa.Table.from_arrays(
        [pa.array(c, type=f.type) for c, f in zip(cols, TRIPLE_SCHEMA)],
        schema=TRIPLE_SCHEMA,
    )


PID = "https://pids.geoconnex.dev/x/1"


def test_cross_batch_chain_fixup(tmp_out):
    """A sameAs chain alias→prov (block 1) / prov→PID (block 2) plus a
    third block referencing the alias URI with NO edge knowledge: only the
    global merge + fixup can canonicalize all three blocks."""
    b1 = _tbl(
        [
            ("https://mirror.example/x/1", "owl:sameAs", "https://provider.example/x/1", False, "s"),
            ("https://mirror.example/x/1", "schema:name", "Feature 1", True, "s"),
        ]
    )
    b2 = _tbl(
        [
            ("https://provider.example/x/1", "owl:sameAs", PID, False, "s"),
            ("https://provider.example/x/1", "rdf:type", "hyf:HY_HydroLocation", False, "s"),
        ]
    )
    # cross-document reference to the alias URI (no sameAs edge in-batch)
    b3 = _tbl(
        [
            ("https://pids.geoconnex.dev/x/2", "schema:about", "https://mirror.example/x/1", False, "s"),
        ]
    )
    ds = rd.from_arrow([b1, b2, b3])
    summary = write_canonical_single_pass(ds, tmp_out)
    assert summary["fixed_files"] > 0  # the chain forced a fixup
    got = flagship.read_graph(tmp_out).to_pandas()
    ts = _tripleset(got)
    assert (PID, "schema:name", "Feature 1", True, "s") in ts
    assert (PID, "rdf:type", "hyf:HY_HydroLocation", False, "s") in ts
    assert ("https://pids.geoconnex.dev/x/2", "schema:about", PID, False, "s") in ts
    # no alias/provider URI survives anywhere
    assert not any("mirror.example" in s or "provider.example" in s for s, _, o, _, _ in ts)
    assert not any("mirror.example" in o or "provider.example" in o for _, _, o, _, _ in ts)


def test_single_pass_rerun_idempotent(fixture_sf0001, tmp_out):
    """Re-running over the same input produces the same file set (stems
    are content-derived), so reruns are byte-stable."""
    import os

    flagship.run_flagship(fixture_sf0001, out_dir=tmp_out)
    files1 = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(tmp_out) for f in fs
    )
    flagship.run_flagship(fixture_sf0001, out_dir=tmp_out)
    files2 = sorted(
        os.path.join(r, f) for r, _, fs in os.walk(tmp_out) for f in fs
    )
    assert files1 == files2


def test_file_level_resume_skips_existing(tmp_out):
    """resume=True elides puts whose content-named target exists: after a
    simulated crash (files written, commit manifest deleted) the re-run
    must skip every data-file put (mtimes untouched) and still commit an
    identical readable graph (ROADMAP §4 file-level resume)."""
    import os

    from scheduler_ray.state.fs import LocalFS, read_commit_manifest

    b = _tbl(
        [
            ("https://pids.geoconnex.dev/x/1", "schema:name", "F1", True, "s"),
            ("https://pids.geoconnex.dev/x/2", "rdf:type", "hyf:HY_HydroLocation", False, "s"),
        ]
    )
    ds = rd.from_arrow([b])
    s1 = write_canonical_single_pass(ds, tmp_out)
    assert s1["skipped_files"] == 0
    data_files = sorted(
        os.path.join(r, f)
        for r, _, fs in os.walk(tmp_out)
        for f in fs
        if f.endswith(".parquet") and "pred=" in r
    )
    mtimes = {p: os.stat(p).st_mtime_ns for p in data_files}
    # simulated crash after the data puts but before the commit
    os.remove(os.path.join(tmp_out, "_MANIFEST.json"))
    ds2 = rd.from_arrow([b])
    s2 = write_canonical_single_pass(ds2, tmp_out, resume=True)
    assert s2["skipped_files"] == s2["files"] == len(data_files)
    assert {p: os.stat(p).st_mtime_ns for p in data_files} == mtimes
    assert read_commit_manifest(LocalFS(), tmp_out) is not None
    got = flagship.read_graph(tmp_out).to_pandas()
    assert _tripleset(got) == _tripleset(b.to_pandas())


def test_cross_batch_fixup_at_volume(tmp_out):
    """200 sameAs chains split so every hop lands in a different block,
    plus cross-document references to other docs' aliases: the global
    merge + sidecar flagging must canonicalize everything, and the result
    must equal the two-pass broadcast-rewrite output."""
    import numpy as np
    import pandas as pd

    import ray

    from scheduler_ray.stages.canonicalize import (
        CanonicalRewriter,
        collect_sameas_edges,
        lut_ref_from_edges,
        without_sameas,
    )

    n = 200
    blocks = {k: [] for k in range(10)}
    for i in range(n):
        pid = f"https://pids.geoconnex.dev/s/{i}"
        alias = f"https://mirror.example/s/{i}"
        prov = f"https://provider.example/s/{i}"
        # hops in different blocks; payload in a third; a reference to the
        # alias from an unrelated document in a fourth
        blocks[i % 10].append((alias, "owl:sameAs", prov, False, "s"))
        blocks[(i + 3) % 10].append((prov, "owl:sameAs", pid, False, "s"))
        blocks[(i + 5) % 10].append((alias, "schema:name", f"F {i}", True, "s"))
        blocks[(i + 7) % 10].append(
            (f"https://pids.geoconnex.dev/o/{i}", "schema:about", alias, False, "s")
        )
    tables = [_tbl(rows) for rows in blocks.values()]
    ds = rd.from_arrow(tables)
    summary = write_canonical_single_pass(ds, tmp_out)
    assert summary["fixed_files"] > 0
    got = flagship.read_graph(tmp_out).to_pandas()
    one = _tripleset(got)
    # two-pass oracle: global mapping + broadcast rewrite over the union
    rw = CanonicalRewriter(ray.get(lut_ref_from_edges(collect_sameas_edges(ds))))
    import pyarrow as pa

    all_rows = pa.concat_tables(tables)
    two = _tripleset(rw(without_sameas(all_rows)).to_pandas().drop_duplicates())
    assert one == two
    assert len(got) == 2 * n  # name + about rows (sameAs dropped); no dups
    assert not any("mirror.example" in o or "provider.example" in o
                   for _, _, o, _, _ in one)


def test_compaction_merges_small_files(fixture_sf0001, tmp_out):
    """Post-write compaction: sub-target files in a pred dir merge into
    fewer internally-sorted files; triple multiset unchanged."""
    import os

    from scheduler_ray.pipelines.streaming import compact_partitions

    registry, sources = flagship.load_side_tables(fixture_sf0001)
    raw = flagship.raw_triples(
        flagship.read_pages(fixture_sf0001), registry, sources
    ).repartition(6)  # force one file per (block, pred) — 6 per dir
    write_canonical_single_pass(raw, tmp_out)
    before = flagship.read_graph(tmp_out).to_pandas()
    n_files_before = sum(
        1 for _r, _d, fs in os.walk(tmp_out) for f in fs if f.endswith(".parquet")
    )
    summary = compact_partitions(tmp_out, target_mb=64)
    assert summary["files_merged"] > 0
    n_files_after = sum(
        1 for _r, _d, fs in os.walk(tmp_out) for f in fs if f.endswith(".parquet")
    )
    assert n_files_after < n_files_before
    after = flagship.read_graph(tmp_out).to_pandas()
    assert _tripleset(after) == _tripleset(before)
    # per-file internal subj order still holds
    import pyarrow.parquet as pq

    for root, _dirs, files in os.walk(tmp_out):
        for f in files:
            if f.endswith(".parquet"):
                subjs = pq.read_table(os.path.join(root, f), columns=["subj"])["subj"].to_pylist()
                assert subjs == sorted(subjs)


@pytest.mark.parametrize("fs_kind", ["norename", "fsspec"])
def test_no_rename_fs_and_commit_manifest(tmp_out, fs_kind):
    """Object-store readiness: the full single-pass writer (incl. a
    forced cross-batch fixup) runs against BOTH no-rename seams — the
    NoRenameFS shim and the real fsspec-backed FS (round-4 verdict item
    7; ``file`` protocol so Ray worker processes share the store) — and
    commits via _MANIFEST.json, which names exactly the live parquet
    files."""
    import json
    import os

    from scheduler_ray.state.fs import (
        FsspecFS,
        MANIFEST_NAME,
        NoRenameFS,
        read_commit_manifest,
    )

    b1 = _tbl(
        [
            ("https://mirror.example/x/1", "owl:sameAs", "https://provider.example/x/1", False, "s"),
            ("https://mirror.example/x/1", "schema:name", "Feature 1", True, "s"),
        ]
    )
    b2 = _tbl(
        [
            ("https://provider.example/x/1", "owl:sameAs", PID, False, "s"),
            ("https://provider.example/x/1", "rdf:type", "hyf:HY_HydroLocation", False, "s"),
        ]
    )
    fs = NoRenameFS() if fs_kind == "norename" else FsspecFS("file")
    summary = write_canonical_single_pass(
        rd.from_arrow([b1, b2]), tmp_out, fs=fs
    )
    assert summary["fixed_files"] > 0  # the chain forced the fixup path
    man = read_commit_manifest(fs, tmp_out)
    assert man is not None and man["rows"] >= 2
    on_disk = sorted(
        os.path.relpath(os.path.join(r, f), tmp_out)
        for r, _d, files in os.walk(tmp_out)
        for f in files
        if f.endswith(".parquet")
    )
    assert sorted(man["files"]) == on_disk  # manifest == live file set
    assert not any(f.endswith(".tmp") for f in on_disk)
    got = _tripleset(flagship.read_graph(tmp_out).to_pandas())
    assert (PID, "schema:name", "Feature 1", True, "s") in got
    assert (PID, "rdf:type", "hyf:HY_HydroLocation", False, "s") in got
    # read back THROUGH the same seam (manifest via fs, parquet via the
    # fsspec-backed pyarrow filesystem): identical triples, and an
    # uncommitted garbage file stays invisible
    fs.put_bytes(os.path.join(tmp_out, "pred=junk", "part-dead.parquet"), b"junk")
    got_fs = _tripleset(flagship.read_graph(tmp_out, fs=fs).to_pandas())
    assert got_fs == got
    fs.delete(os.path.join(tmp_out, "pred=junk", "part-dead.parquet"))
    # compaction against the same shim keeps the manifest in sync
    from scheduler_ray.pipelines.streaming import compact_partitions

    compact_partitions(tmp_out, target_mb=64, fs=fs)
    man2 = json.loads(open(os.path.join(tmp_out, MANIFEST_NAME), "rb").read())
    on_disk2 = sorted(
        os.path.relpath(os.path.join(r, f), tmp_out)
        for r, _d, files in os.walk(tmp_out)
        for f in files
        if f.endswith(".parquet")
    )
    assert sorted(man2["files"]) == on_disk2


def test_manifest_gated_read_ignores_garbage(tmp_out):
    """Crash-window semantics (round-3 advice): a stray uncommitted file
    in a pred dir (e.g. a fixup predecessor whose delete never ran, or a
    torn write) is invisible to read_graph and never merged by
    compaction — only manifest-listed files are live."""
    import glob
    import os

    import pyarrow.parquet as pq

    from scheduler_ray.pipelines.streaming import compact_partitions

    b = _tbl(
        [
            ("https://pids.geoconnex.dev/x/9", "schema:name", "Feature 9", True, "s"),
            ("https://pids.geoconnex.dev/x/9", "rdf:type", "hyf:HY_HydroLocation", False, "s"),
        ]
    )
    ds = rd.from_arrow([b])
    write_canonical_single_pass(ds, tmp_out)
    committed = _tripleset(flagship.read_graph(tmp_out).to_pandas())
    # plant garbage: a duplicate-content file under a new (uncommitted) name
    pdir = glob.glob(os.path.join(tmp_out, "pred=*"))[0]
    src = glob.glob(os.path.join(pdir, "part-*.parquet"))[0]
    garbage = os.path.join(pdir, "part-deadbeefdeadbeef.parquet")
    pq.write_table(pq.read_table(src), garbage)
    got = _tripleset(flagship.read_graph(tmp_out).to_pandas())
    assert got == committed  # garbage invisible, no duplicated triples
    assert len(flagship.read_graph(tmp_out).to_pandas()) == len(
        flagship.read_graph(tmp_out).to_pandas().drop_duplicates()
    )
    # compaction must not merge the garbage into a live file
    compact_partitions(tmp_out, target_mb=64)
    assert _tripleset(flagship.read_graph(tmp_out).to_pandas()) == committed


def test_uncommitted_dir_raises(tmp_out):
    """A dir without ``_MANIFEST.json`` holds no committed graph: reading
    or compacting it raises instead of taking whatever parquet is there."""
    import pyarrow.parquet as pq

    from scheduler_ray.pipelines.streaming import compact_partitions

    b = _tbl([("https://pids.geoconnex.dev/x/9", "schema:name", "Feature 9", True, "s")])
    pdir = os.path.join(tmp_out, "pred=schema%3Aname")
    os.makedirs(pdir)
    for name in ("part-a.parquet", "part-b.parquet"):
        pq.write_table(b.drop_columns(["pred"]), os.path.join(pdir, name))
    with pytest.raises(FileNotFoundError, match="no committed graph"):
        flagship.read_graph(tmp_out)
    with pytest.raises(FileNotFoundError, match="no committed graph"):
        compact_partitions(tmp_out, target_mb=64)
    assert sorted(os.listdir(pdir)) == ["part-a.parquet", "part-b.parquet"]


def test_fsspec_fs_contract_memory_protocol():
    """The fsspec seam's put/get/list/size/delete + commit-manifest
    contract on the in-memory object store (pure object semantics — no
    local disk at all), plus pickle round-trip (workers re-open the
    filesystem from protocol + options)."""
    import pickle

    import pyarrow as pa

    from scheduler_ray.state.fs import (
        FsspecFS,
        read_commit_manifest,
        write_commit_manifest,
    )

    fs = FsspecFS("memory")
    base = "/graftmem/out"
    fs.delete_prefix(base)
    fs.put_bytes(f"{base}/a/x.bin", b"abc")
    assert fs.exists(f"{base}/a/x.bin") and fs.get_bytes(f"{base}/a/x.bin") == b"abc"
    assert fs.size(f"{base}/a/x.bin") == 3
    tbl = pa.table({"v": [1, 2, 3]})
    fs.put_table(tbl, f"{base}/a/t.parquet")
    assert fs.read_table(f"{base}/a/t.parquet")["v"].to_pylist() == [1, 2, 3]
    assert fs.list(f"{base}/a", suffix=".parquet") == [f"{base}/a/t.parquet"]
    assert fs.list(f"{base}/missing") == []
    write_commit_manifest(fs, base, [f"{base}/a/t.parquet"], {"rows": 3})
    man = read_commit_manifest(fs, base)
    assert man["files"] == ["a/t.parquet"] and man["rows"] == 3
    # pickle round-trip: the worker-side copy sees the same (memory) store
    fs2 = pickle.loads(pickle.dumps(fs))
    assert fs2.get_bytes(f"{base}/a/x.bin") == b"abc"
    fs.delete(f"{base}/a/x.bin")
    assert not fs.exists(f"{base}/a/x.bin")
    fs.delete_prefix(base)
    assert fs.list(f"{base}/a") == []


def test_local_fs_concurrent_puts_of_one_path(tmp_path):
    """Concurrent puts of one content-named path (two equal blocks) each
    stage under their own tmp name: none raises, the path holds one
    writer's bytes whole, and no ``*.tmp`` is left behind."""
    from concurrent.futures import ThreadPoolExecutor

    from scheduler_ray.state.fs import LocalFS

    path = str(tmp_path / "graph=a" / "part-x.parquet")
    payloads = [bytes([i]) * 200_000 for i in range(8)]
    tables = [pa.table({"v": pa.array([i] * 20_000)}) for i in range(8)]
    fs = LocalFS()
    with ThreadPoolExecutor(8) as pool:
        list(pool.map(lambda b: fs.put_bytes(path, b), payloads))
    assert fs.get_bytes(path) in payloads
    with ThreadPoolExecutor(8) as pool:
        list(pool.map(lambda t: fs.put_table(t, path), tables))
    assert any(fs.read_table(path).equals(t) for t in tables)
    assert os.listdir(os.path.dirname(path)) == ["part-x.parquet"]


def test_local_fs_failed_put_leaves_no_tmp(tmp_path):
    """A put whose write fails raises and removes its staging file."""
    from scheduler_ray.state.fs import LocalFS

    path = str(tmp_path / "graph=a" / "part-x.parquet")
    with pytest.raises(TypeError):
        LocalFS().put_bytes(path, "not bytes")
    with pytest.raises(Exception):
        LocalFS().put_table("not a table", path)
    assert os.listdir(os.path.dirname(path)) == []


def _pair_table(nodes, roots):
    from scheduler_ray.stages.canonicalize import _hash_large_string

    na = pa.array(nodes, pa.large_string())
    ra = pa.array(roots, pa.large_string())
    return pa.table(
        {"node": na, "root": ra,
         "node_hash": pa.array(_hash_large_string(na), pa.uint64()),
         "root_hash": pa.array(_hash_large_string(ra), pa.uint64())}
    )


def test_pair_merger_eager_collapse_matches_direct(tmp_path):
    """The shared LUT builder's incremental path (leaf launches + eager
    intermediate collapse, the path taken at production block counts)
    must yield the same LUT as a single leaf over the same files, and as
    an unsharded build over all pairs."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from scheduler_ray.stages.canonicalize import (
        _merge_pair_tables,
        _PairMerger,
        build_rewrite_lut,
    )
    from scheduler_ray.state.fs import LocalFS

    rng = np.random.default_rng(3)
    paths, tables = [], []
    # 40 files with fanout 2 → leaf refs exceed fanout*2, forcing the
    # eager-collapse branch inside add()
    for i in range(40):
        n = int(rng.integers(1, 6))
        t = _pair_table(
            [f"n{int(rng.integers(0, 30))}" for _ in range(n)],
            [f"r{int(rng.integers(0, 5))}" for _ in range(n)],
        )
        p = str(tmp_path / f"pairs-{i}.parquet")
        pq.write_table(t, p)
        paths.append(p)
        tables.append(t)

    fs = LocalFS()
    luts = []
    for fanout in (2, 64):
        m = _PairMerger(fs, merge_fanout=fanout)
        for p in paths:
            m.add(p)
        luts.append(ray.get(m.finish()))
        assert m.n_parts == 40
    merged = _merge_pair_tables(tables)
    luts.append(
        build_rewrite_lut(merged)
    )
    for lut in luts[1:]:
        for a, b in zip(luts[0], lut):
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))


def test_sharded_lut_conflicted_alias_key_escape(ray_session):
    """A conflicted alias set (same node, two roots) closes through
    union-find, which can emit mapping keys drawn from the ROOT universe
    — hashes outside the emitting shard's node range.  The sharded LUT
    finish must detect the escape and fall back to the exact global
    closure; the resulting LUT must behave exactly like an unsharded
    build over the same pairs."""
    import numpy as np
    import pyarrow as pa

    import ray

    from scheduler_ray.stages.canonicalize import (
        _LUT_SHARD_BITS,
        CanonicalRewriter,
        _concat_lut_shards,
        _finish_lut_shard,
        _merge_pair_tables,
        build_rewrite_lut,
    )

    def mkpairs(pairs):
        return _pair_table([p[0] for p in pairs], [p[1] for p in pairs])

    # conflicts (a_i → two roots), chains (root chains to a pid) and
    # plain pairs, split across two leaf tables like the streaming merger
    # produces
    t1 = mkpairs(
        [(f"https://m.example/a/{i}", f"https://p.example/r/{i}") for i in range(50)]
        + [(f"https://m.example/a/{i}", f"https://pids.example/s/{i}") for i in range(50)]
    )
    t2 = mkpairs(
        [(f"https://p.example/r/{i}", f"https://pids.example/s/{i}") for i in range(50)]
        + [(f"https://m.example/b/{i}", f"https://pids.example/z/{i}") for i in range(20)]
    )
    # both leaf tables reach the sharded finish unmerged
    refs = [ray.put(t1), ray.put(t2)]
    shard_refs = [
        _finish_lut_shard.remote(s, *refs) for s in range(1 << _LUT_SHARD_BITS)
    ]
    sharded = ray.get(_concat_lut_shards.remote(*shard_refs))
    # unsharded oracle over the identical pair set
    merged = _merge_pair_tables([t1, t2])
    oracle = build_rewrite_lut(merged)
    # the LUT arrays must agree exactly (same keys, same canons, sorted)
    np.testing.assert_array_equal(sharded[2], oracle[2])
    assert sharded[0].to_pylist() == oracle[0].to_pylist()
    assert sharded[1].to_pylist() == oracle[1].to_pylist()
    # and the rewriter must canonicalize every alias (no alias survives)
    rw = CanonicalRewriter(sharded)
    probe = pa.table(
        {
            "subj": pa.array(
                [f"https://m.example/a/{i}" for i in range(50)]
                + [f"https://p.example/r/{i}" for i in range(50)],
                pa.large_string(),
            ),
            "pred": pa.array(["p"] * 100, pa.large_string()),
            "obj": pa.array(["x"] * 100, pa.large_string()),
            "obj_is_literal": pa.array([True] * 100),
            "graph": pa.array(["g"] * 100, pa.large_string()),
        }
    )
    got = rw(probe)["subj"].to_pylist()
    want = CanonicalRewriter(oracle)(probe)["subj"].to_pylist()
    assert got == want
    # every probe row is an alias in some conflicted/chained set, so the
    # rewrite must move every row off its original spelling or onto the
    # set's min-label canon — none may dangle at an intermediate alias
    merged_keys = set(merged["node"].to_pylist())
    assert all(g not in merged_keys for g in got), [g for g in got if g in merged_keys][:5]


def _random_pair_sets(seed):
    """Pair tables of random alias sets: conflicted aliases (one node,
    two roots, in different tables) and chains across tables (a root of
    one table is a node of another, up to a pid)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    tables = []
    for t in range(int(rng.integers(2, 6))):
        pairs = []
        for _ in range(int(rng.integers(5, 60))):
            i = int(rng.integers(0, 40))
            kind = rng.integers(0, 3)
            if kind == 0:  # conflicted: the same alias under two roots
                pairs.append((f"https://m.example/a/{i}", f"https://p.example/r/{i % 7}"))
            elif kind == 1:  # chain link: a root of another table → pid
                pairs.append((f"https://p.example/r/{i % 7}", f"https://pids.example/s/{i % 3}"))
            else:
                pairs.append((f"https://m.example/a/{i}", f"https://m.example/c/{t}"))
        tables.append(_pair_table([a for a, _ in pairs], [b for _, b in pairs]))
    return tables


@pytest.mark.parametrize("seed", [0, 1, 2, "empty"])
@pytest.mark.parametrize("feed", ["edges", "files"])
def test_one_task_lut_finish_matches_sharded(tmp_path, monkeypatch, seed, feed):
    """At or below ``segments.BOUNDED_FINISH_ROWS`` pairs the LUT is
    merged and built in one task; above it by the sharded finish.  Both
    give the same keys, canons, key hashes and uniqueness flag, whether
    the pairs come as edge blocks (``lut_ref_from_edges``) or as the
    writer's pair files (``_PairMerger.finish(total_pairs)``)."""
    import numpy as np
    import pyarrow.parquet as pq
    import ray

    from scheduler_ray.stages import canonicalize, segments
    from scheduler_ray.stages.canonicalize import PAIR_SCHEMA, _PairMerger
    from scheduler_ray.state.fs import LocalFS

    tables = [PAIR_SCHEMA.empty_table()] if seed == "empty" else _random_pair_sets(seed)
    n = sum(t.num_rows for t in tables)

    def unused(*_a, **_k):
        raise AssertionError("the other finish ran")

    def build(cap):
        monkeypatch.setattr(segments, "BOUNDED_FINISH_ROWS", cap)
        if feed == "edges":
            return ray.get(canonicalize.lut_ref_from_edges(rd.from_arrow(tables), merge_fanout=2))
        m = _PairMerger(LocalFS(), merge_fanout=2)
        for i, t in enumerate(tables):
            path = str(tmp_path / f"pairs-{cap}-{i}.parquet")
            pq.write_table(t, path)
            m.add(path)
        return ray.get(m.finish(n))

    with monkeypatch.context() as mp:
        mp.setattr(canonicalize, "_finish_lut_shard", type("U", (), {"options": unused}))
        one = build(n)
    with monkeypatch.context() as mp:
        mp.setattr(canonicalize, "_finish_lut", type("U", (), {"options": unused}))
        sharded = build(n - 1)
    assert one[0].to_pylist() == sharded[0].to_pylist()
    assert one[1].to_pylist() == sharded[1].to_pylist()
    np.testing.assert_array_equal(one[2], sharded[2])
    assert one[4] == sharded[4]


def test_distributed_fixup_matches_broadcast(tmp_out):
    """lut_max_pairs gate (ROADMAP §2's last writer gap): forcing the
    ceiling to 1 routes the fixup through the distributed second pass
    (CC over pair sidecars + joined rewrite — no single LUT object); the
    committed graph must equal the broadcast-fixup output exactly, and
    superseded pass-1 files must be gone."""
    import os

    n = 40
    blocks = {k: [] for k in range(8)}
    for i in range(n):
        pid = f"https://pids.geoconnex.dev/s/{i}"
        alias = f"https://mirror.example/s/{i}"
        prov = f"https://provider.example/s/{i}"
        blocks[i % 8].append((alias, "owl:sameAs", prov, False, "s"))
        blocks[(i + 3) % 8].append((prov, "owl:sameAs", pid, False, "s"))
        blocks[(i + 5) % 8].append((alias, "schema:name", f"F {i}", True, "s"))
        blocks[(i + 7) % 8].append(
            (f"https://pids.geoconnex.dev/o/{i}", "schema:about", alias, False, "s")
        )
    tables = [_tbl(rows) for rows in blocks.values()]

    bdir = tmp_out + "_broadcast"
    shutil.rmtree(bdir, ignore_errors=True)
    s_b = write_canonical_single_pass(rd.from_arrow(tables), bdir)
    assert s_b["fixed_files"] > 0  # the corpus genuinely needs the fixup
    broadcast = flagship.read_graph(bdir).to_pandas()

    s_d = write_canonical_single_pass(
        rd.from_arrow(tables), tmp_out, lut_max_pairs=1
    )
    assert s_d["fixed_files"] > 0
    # the summary reports which side of the gate ran and the pair count
    # that decided it
    assert s_b["distributed_fixup"] is False and s_d["distributed_fixup"] is True
    assert s_b["sameas_pairs"] == s_d["sameas_pairs"] > 1
    got = flagship.read_graph(tmp_out).to_pandas()

    assert _tripleset(got) == _tripleset(broadcast)
    assert len(got) == len(broadcast) == 2 * n
    # commit hygiene: scratch dirs gone, manifest names only live files
    assert not os.path.exists(os.path.join(tmp_out, "_pairs"))
    assert not os.path.exists(os.path.join(tmp_out, "_sidecars"))
    from scheduler_ray.state.fs import LocalFS, read_commit_manifest

    man = read_commit_manifest(LocalFS(), tmp_out)
    on_disk = {
        os.path.join(d, f)
        for d, _sub, fls in os.walk(tmp_out)
        for f in fls
        if f.endswith(".parquet")
    }
    assert {os.path.join(tmp_out, f) for f in man["files"]} == on_disk


@pytest.mark.parametrize("n_blocks", [1, 4])
def test_single_pass_closes_long_alias_chain(tmp_out, n_blocks):
    """A 100-alias sameAs chain in random order, in one block or split
    over four, is written with one canonical subject: the PID."""
    import random

    rnd = random.Random(11)
    names = [f"https://mirror.example/c/{i}" for i in range(100)]
    rnd.shuffle(names)
    names.insert(rnd.randrange(101), PID)
    rows = [(names[i], "owl:sameAs", names[i + 1], False, "s") for i in range(100)]
    rows += [(n, "schema:name", f"F {i}", True, "s") for i, n in enumerate(names)]
    rnd.shuffle(rows)
    k = -(-len(rows) // n_blocks)
    blocks = [_tbl(rows[i : i + k]) for i in range(0, len(rows), k)]
    assert len(blocks) == n_blocks
    write_canonical_single_pass(rd.from_arrow(blocks), tmp_out)
    got = flagship.read_graph(tmp_out).to_pandas()
    assert len(got) == 101
    assert set(got["subj"]) == {PID}
