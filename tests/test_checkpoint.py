"""Checkpoint/resume + n-quads sink tests (mirrors the reference's
bytesum-idempotency e2e assertions, userCode/defs_test.py:86-98)."""

from __future__ import annotations

import gzip
import json
import os
from urllib.parse import quote

import pytest

from scheduler_ray.pipelines import checkpoint as cp
from scheduler_ray.sources import nq
from scheduler_ray.state import manifest as mf


def test_input_summary_deterministic(fixture_sf0001):
    a = cp.input_summary(fixture_sf0001).sort_values("source").reset_index(drop=True)
    b = cp.input_summary(fixture_sf0001).sort_values("source").reset_index(drop=True)
    assert a.equals(b)
    assert a["n_pages"].sum() == 500


def test_run_resume_skips_completed(fixture_sf0001, tmp_out):
    out = os.path.join(tmp_out, "kg")
    r1 = cp.run_checkpointed(fixture_sf0001, out)
    assert len(r1["completed"]) == 20 and not r1["skipped"]
    total1 = cp.read_output(out).count()
    assert total1 == 2824
    # manifests carry lineage metrics
    m = mf.load_manifest(out, r1["completed"][0])
    assert m["rows_in"] > 0 and "content_hash" in m and "input_hash" in m
    mtimes1 = {
        f: os.path.getmtime(os.path.join(out, "manifests", f))
        for f in os.listdir(os.path.join(out, "manifests"))
    }

    # rerun: everything skipped, nothing rewritten (bytesum semantics)
    r2 = cp.run_checkpointed(fixture_sf0001, out)
    assert not r2["completed"] and len(r2["skipped"]) == 20
    mtimes2 = {
        f: os.path.getmtime(os.path.join(out, "manifests", f))
        for f in os.listdir(os.path.join(out, "manifests"))
    }
    assert mtimes1 == mtimes2
    assert cp.read_output(out).count() == total1

    # delete one manifest → only that partition recomputes, same content
    victim = r1["completed"][3]
    os.remove(mf.manifest_path(out, victim))
    m_before = m
    r3 = cp.run_checkpointed(fixture_sf0001, out)
    assert r3["completed"] == [victim] and len(r3["skipped"]) == 19
    assert cp.read_output(out).count() == total1
    m_after = mf.load_manifest(out, r1["completed"][0])
    assert m_after["content_hash"] == m_before["content_hash"]


#: sf0.001 input hashes, fixed so that a change to the scan's hashing or
#: aggregation (which would rebuild every source on the next resume) fails
_INPUT_HASHES = {
    "src0": "54439109808", "src1": "53960870321", "src2": "50898361914",
    "src3": "54260795678", "src4": "57652228406", "src5": "53160803306",
    "src6": "51970042539", "src7": "53513260963", "src8": "52245899055",
    "src9": "52850244894", "src10": "49396463947", "src11": "63367905578",
    "src12": "48579321912", "src13": "51765920527", "src14": "55404488677",
    "src15": "49149097122", "src16": "48647042429", "src17": "54978375985",
    "src18": "49298392309", "src19": "56128328323",
}


def test_hashes_pinned(fixture_sf0001, tmp_out):
    """``input_hash`` and ``content_hash`` are golden: any change to how
    they are computed rebuilds every committed source."""
    s = cp.input_summary(fixture_sf0001)
    assert dict(zip(s["source"], s["input_hash"])) == _INPUT_HASHES
    assert (s["n_pages"] == 25).all()
    out = os.path.join(tmp_out, "kg")
    cp.run_checkpointed(fixture_sf0001, out)
    golden = {
        "src0": (142, "307101358552"),
        "src3": (152, "346708800092"),
        "src7": (135, "286798549255"),
        "src13": (137, "290304676755"),
    }
    for src, (n, h) in golden.items():
        m = mf.load_manifest(out, src)
        assert (m["triples_out"], m["content_hash"]) == (n, h)
        assert m["input_hash"] == _INPUT_HASHES[src]


def _page_fixture(fixture_sf0001, path, n_pages, html=None, extra_urls=()):
    """A fixture dir with the first ``n_pages`` pages of sf0.001 (html
    replaced by ``html`` when given) plus pages at ``extra_urls``; returns
    the sources of those ``n_pages``."""
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq

    from scheduler_ray.stages.link import INDEX_CACHE_NAME

    os.makedirs(os.path.join(path, "pages"))
    for f in ("registry.parquet", "sources.parquet", INDEX_CACHE_NAME):
        shutil.copy(os.path.join(fixture_sf0001, f), path)
    pages = pq.read_table(os.path.join(fixture_sf0001, "pages")).slice(0, n_pages)
    if html is not None:
        pages = pages.set_column(2, "html", pa.array([html] * n_pages, pa.binary()))
    sources = sorted({u.split("/")[3] for u in pages["url"].to_pylist()})
    for url in extra_urls:
        extra = pages.slice(0, 1).set_column(0, "url", pa.array([url], pa.string()))
        pages = pa.concat_tables([pages, extra])
    pq.write_table(pages, os.path.join(path, "pages", "part-0.parquet"))
    return sources


def test_input_summary_skips_sourceless_page(fixture_sf0001, tmp_path):
    """A page whose url yields no source belongs to no partition."""
    fx = str(tmp_path / "fx")
    sources = _page_fixture(
        fixture_sf0001, fx, 30, extra_urls=["https://example.org", "https://example.org/x"]
    )
    s = cp.input_summary(fx)
    assert sorted(s["source"]) == sources and s["n_pages"].sum() == 30
    assert s["source"].notna().all()


def _oracle_scan(fx):
    """The per-source scan as one Ray Data execution: ``rd.read_parquet``
    of the pages, ``_scan_block`` per block, the driver fold."""
    import ray.data as rd

    pages = rd.read_parquet(f"{fx}/pages", columns=["url", "html"])
    return cp._fold(cp._streamed(pages, cp._scan_block), "source")


def _as_sums(s):
    return {src: (n, int(h)) for src, n, h in zip(s["source"], s["n_pages"], s["input_hash"])}


def test_input_summary_matches_read_parquet_scan(fixture_sf0001, tmp_path):
    """Page files with 7-row row groups, a nested subdirectory, and
    ``_SUCCESS`` and ``.hidden`` files scan to the summary a
    ``rd.read_parquet`` scan gives."""
    import pyarrow.parquet as pq

    fx = str(tmp_path / "fx")
    _page_fixture(fixture_sf0001, fx, 0)
    pages = pq.read_table(os.path.join(fixture_sf0001, "pages"))
    os.makedirs(os.path.join(fx, "pages", "sub"))
    pq.write_table(pages.slice(0, 180), os.path.join(fx, "pages", "part-0.parquet"), row_group_size=7)
    pq.write_table(pages.slice(180), os.path.join(fx, "pages", "sub", "part-1.parquet"), row_group_size=7)
    open(os.path.join(fx, "pages", "_SUCCESS"), "w").close()
    with open(os.path.join(fx, "pages", ".hidden"), "w") as f:
        f.write("not parquet")
    oracle = _oracle_scan(fx)
    assert len(oracle) == 20 and sum(n for n, _ in oracle.values()) == 500
    assert _as_sums(cp.input_summary(fx)) == oracle


def test_input_summary_runs_without_ray_data_read(fixture_sf0001, monkeypatch):
    """The scan opens its page files itself: no ``rd.read_parquet``."""
    import ray.data

    oracle = _oracle_scan(fixture_sf0001)

    def no_read(*_a, **_k):
        raise AssertionError("read_parquet called")

    monkeypatch.setattr(ray.data, "read_parquet", no_read)
    assert _as_sums(cp.input_summary(fixture_sf0001)) == oracle


def test_input_summary_of_no_pages(fixture_sf0001, tmp_path):
    """An empty ``pages/`` is an empty summary of the usual columns."""
    fx = str(tmp_path / "fx")
    _page_fixture(fixture_sf0001, fx, 0)
    os.remove(os.path.join(fx, "pages", "part-0.parquet"))
    s = cp.input_summary(fx)
    assert list(s.columns) == ["source", "n_pages", "input_hash"] and s.empty
    assert s["n_pages"].dtype == "int64"


def test_zero_triple_rebuild_completes(fixture_sf0001, tmp_path):
    """A pending source whose pages carry no ld+json still commits, with
    ``triples_out`` 0 and ``content_hash`` "0", even when no pending
    source yields a triple."""
    fx, out = str(tmp_path / "fx"), str(tmp_path / "kg")
    html = b"<html><body><p>moved</p></body></html>"
    sources = _page_fixture(fixture_sf0001, fx, 40, html=html)
    r = cp.run_checkpointed(fx, out)
    assert r["completed"] == sources
    for src in sources:
        m = mf.load_manifest(out, src)
        assert (m["triples_out"], m["content_hash"]) == (0, "0")
    assert cp.run_checkpointed(fx, out)["skipped"] == sources


def test_partition_barrier(tmp_out):
    mf.write_manifest(tmp_out, "a", {"input_hash": "1"})
    assert not mf.all_partitions_complete(tmp_out, {"a", "b"})
    mf.write_manifest(tmp_out, "b", {"input_hash": "2"})
    assert mf.all_partitions_complete(tmp_out, {"a", "b"})


def test_nq_writer_deterministic(fixture_sf0001, tmp_out):
    from scheduler_ray.pipelines import flagship

    canon = flagship.run_flagship(fixture_sf0001).materialize()
    s1 = nq.write_release_graphs(canon, os.path.join(tmp_out, "r1"))
    s2 = nq.write_release_graphs(canon, os.path.join(tmp_out, "r2"))
    assert s1["n_quads"].sum() == 2824
    assert list(s1["source"]) == list(s2["source"])
    # byte-identical gzip across runs (mtime pinned) — bytesum analogue
    p1, p2 = s1["path"].iloc[0], s2["path"].iloc[0]
    assert open(p1, "rb").read() == open(p2, "rb").read()
    # content round-trips and contains a golden quad
    text = gzip.decompress(open(p1, "rb").read()).decode()
    assert "<https://www.opengis.net/def/schema/hy_features/hyf/linearElement>" in text
    assert text.endswith(".\n")


def test_expand_curie():
    assert nq.expand_curie("rdf:type") == "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
    assert nq.expand_curie("https://x/y") == "https://x/y"


def test_nq_writer_salted_equivalent(fixture_sf0001, tmp_out):
    """Salted (gzip-member) output decompresses to the same quad multiset
    as the unsalted file for the hot sources."""
    import gzip as _gz
    import os as _os

    from scheduler_ray.pipelines import flagship

    canon = flagship.run_flagship(fixture_sf0001).materialize()
    s_plain = nq.write_release_graphs(canon, _os.path.join(tmp_out, "plain"))
    s_salted = nq.write_release_graphs(
        canon, _os.path.join(tmp_out, "salted"), salt_factor=4, hot_fraction=0.02
    )
    assert list(s_plain["n_quads"]) == list(s_salted["n_quads"])
    for p_plain, p_salt in zip(s_plain["path"], s_salted["path"]):
        a = sorted(_gz.decompress(open(p_plain, "rb").read()).decode().splitlines())
        b = sorted(_gz.decompress(open(p_salt, "rb").read()).decode().splitlines())
        assert a == b


def test_lsh_params():
    from scheduler_ray.stages.dedup import lsh_params

    assert lsh_params(0.8, 64) == (32, 2)
    assert lsh_params(0.6, 64) == (32, 2)
    b, r = lsh_params(0.95, 64)
    assert b * r == 64 and (1 - 0.95**r) ** b <= 1e-6 and r >= 4


def test_manifest_gc_oldest_first_bounded(tmp_out):
    """A4 retention GC: oldest-first order, bounded batch, data dir goes
    with the manifest (reference instance.py:26-51 semantics)."""
    import json as _json
    import os as _os

    from scheduler_ray.state import manifest as mf

    now = 1_000_000.0
    for i, age in enumerate([500, 100, 300, 10]):  # src0 oldest→src3 newest
        p = mf.write_manifest(tmp_out, f"src{i}", {"input_hash": "h"})
        with open(p) as f:
            m = _json.load(f)
        m["written_at"] = now - age
        with open(p, "w") as f:
            _json.dump(m, f)
        _os.makedirs(_os.path.join(tmp_out, "data", f"graph=src{i}"), exist_ok=True)

    # bounded batch of 2, retention 50s → the two oldest (src0, src2) go
    deleted = mf.gc_manifests(tmp_out, max_age_s=50, max_delete=2, now=now)
    assert deleted == ["src0", "src2"]
    assert not _os.path.exists(_os.path.join(tmp_out, "data", "graph=src0"))
    assert _os.path.exists(_os.path.join(tmp_out, "data", "graph=src1"))
    # second sweep picks up the remaining expired one; src3 is retained
    assert mf.gc_manifests(tmp_out, max_age_s=50, now=now) == ["src1"]
    assert mf.load_manifest(tmp_out, "src3") is not None


def test_manifest_gc_deletes_quoted_source_dir(tmp_out):
    """GC removes the quoted hive dir the commit writes (``a:b`` →
    ``graph=a%3Ab``) whole: the files its manifest lists, files no
    manifest lists (a crashed run's part file, an orphaned ``*.tmp``),
    and the dir of a manifest written before manifests listed
    ``files``; other sources' files stay."""
    data = os.path.join(tmp_out, "data")
    for src in ("a:b", "e/f", "c d"):
        rel = f"graph={quote(src, safe='')}/part-0.parquet"
        os.makedirs(os.path.dirname(os.path.join(data, rel)))
        open(os.path.join(data, rel), "wb").close()
        m = {"input_hash": "h"} if src == "e/f" else {"input_hash": "h", "files": [rel]}
        mf.write_manifest(tmp_out, src, m)
    for stray in ("part-1.parquet", "part-0.parquet.0123abcd.tmp"):
        open(os.path.join(data, "graph=a%3Ab", stray), "wb").close()
    now = mf.load_manifest(tmp_out, "c d")["written_at"] + 100
    for src, ts in (("a:b", 0.0), ("e/f", 1.0)):
        m = mf.load_manifest(tmp_out, src)
        m["written_at"] = ts
        with open(mf.manifest_path(tmp_out, src), "w") as f:
            json.dump(m, f)
    assert mf.gc_manifests(tmp_out, max_age_s=1000, now=now) == ["a:b", "e/f"]
    assert os.listdir(data) == ["graph=c%20d"]
    assert os.listdir(os.path.join(data, "graph=c%20d")) == ["part-0.parquet"]


def test_read_output_ignores_uncommitted_partition(fixture_sf0001, tmp_out):
    """Round-3 advice: a partition dir written but never manifest-committed
    (crash between write_parquet and write_manifest) is invisible to
    read_output, and the graph hive column survives the gated read."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = os.path.join(tmp_out, "kg")
    cp.run_checkpointed(fixture_sf0001, out)
    total = cp.read_output(out).count()
    # plant an uncommitted partition with plausible triples
    bogus = os.path.join(out, "data", "graph=bogus")
    os.makedirs(bogus, exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "subj": pa.array(["s"], pa.large_string()),
                "pred": pa.array(["p"], pa.large_string()),
                "obj": pa.array(["o"], pa.large_string()),
                "obj_is_literal": pa.array([False]),
            }
        ),
        os.path.join(bogus, "part-0.parquet"),
    )
    ds = cp.read_output(out)
    assert ds.count() == total
    gvals = set(ds.unique("graph"))
    assert "bogus" not in gvals and len(gvals) == 20


# ------------------------------------------------- crash-consistent commits
_COLS = ["subj", "pred", "obj", "obj_is_literal", "graph"]


@pytest.fixture(scope="module")
def committed(fixture_sf0001, tmp_path_factory):
    """One committed run over sf0.001; tests resume from copies of it."""
    out = str(tmp_path_factory.mktemp("committed") / "kg")
    cp.run_checkpointed(fixture_sf0001, out)
    return out


def _copy(committed, tmp_path):
    import shutil

    out = str(tmp_path / "kg")
    shutil.copytree(committed, out)
    return out


def _triples(out):
    """The multiset of triples ``read_output`` sees, per graph."""
    from collections import Counter

    df = cp.read_output(out).to_pandas()[_COLS].astype({"graph": str})
    return Counter(df.itertuples(index=False, name=None))


def _of(triples, graph):
    return {t: n for t, n in triples.items() if t[4] == graph}


def _edited_fixture(fixture_sf0001, path, sources):
    """sf0.001 with the ``schema:name`` of the first ld+json page of each
    of ``sources`` changed, so that exactly their triples change."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    _page_fixture(fixture_sf0001, path, 500)
    part = os.path.join(path, "pages", "part-0.parquet")
    pages = pq.read_table(part)
    html = pages["html"].to_pylist()
    for src in sources:
        i = next(
            i for i, (u, h) in enumerate(zip(pages["url"].to_pylist(), html))
            if u.split("/")[3] == src and b'"schema:name":"' in h
        )
        html[i] = html[i].replace(b'"schema:name":"', b'"schema:name":"edited ', 1)
    pq.write_table(pages.set_column(2, "html", pa.array(html, pa.binary())), part)
    return path


def _unlisted(out):
    """``.parquet`` files under ``data/graph=*`` that no manifest lists."""
    data = os.path.join(out, "data")
    on_disk = {
        f"{d}/{f}" for d in os.listdir(data) for f in os.listdir(os.path.join(data, d))
        if f.endswith(".parquet")
    }
    listed = {
        f for src in cp.committed_sources(out) for f in mf.load_manifest(out, src)["files"]
    }
    return on_disk - listed


def _crash_on_call(monkeypatch, k):
    """Make the ``k``-th ``write_manifest`` call raise."""
    calls, real = [], mf.write_manifest

    def write_manifest(*args):
        calls.append(args)
        if len(calls) == k:
            raise OSError(f"crash at manifest {k}")
        return real(*args)

    monkeypatch.setattr(mf, "write_manifest", write_manifest)


def test_refresh_crash_before_manifest_reads_old_state(
    committed, fixture_sf0001, tmp_path, monkeypatch
):
    """New files exist but no manifest has moved: readers see exactly the
    pre-run multiset; the next run commits and leaves no garbage."""
    out = _copy(committed, tmp_path)
    before = _triples(out)
    fx = _edited_fixture(fixture_sf0001, str(tmp_path / "fx"), ["src0"])
    _crash_on_call(monkeypatch, 1)
    with pytest.raises(OSError, match="manifest 1"):
        cp.run_checkpointed(fx, out)
    assert _triples(out) == before
    assert _unlisted(out)  # the rebuild's files exist, invisible
    monkeypatch.undo()
    assert cp.run_checkpointed(fx, out)["completed"] == ["src0"]
    after = _triples(out)
    assert _of(after, "src0") != _of(before, "src0")
    assert {t: n for t, n in after.items() if t[4] != "src0"} == {
        t: n for t, n in before.items() if t[4] != "src0"
    }
    assert not _unlisted(out)


def test_refresh_crash_between_manifests_reads_old_or_new(
    committed, fixture_sf0001, tmp_path, monkeypatch
):
    """A crash at the second manifest of a two-source rebuild: the first
    source reads as its new state, the second as its old one."""
    out = _copy(committed, tmp_path)
    before = _triples(out)
    fx = _edited_fixture(fixture_sf0001, str(tmp_path / "fx"), ["src0", "src1"])
    _crash_on_call(monkeypatch, 2)
    with pytest.raises(OSError, match="manifest 2"):
        cp.run_checkpointed(fx, out)
    torn = _triples(out)
    monkeypatch.undo()
    assert cp.run_checkpointed(fx, out)["completed"] == ["src1"]
    after = _triples(out)
    assert _of(torn, "src0") == _of(after, "src0") != _of(before, "src0")
    assert _of(torn, "src1") == _of(before, "src1") != _of(after, "src1")
    assert not _unlisted(out)


def test_manifest_without_files_is_rebuilt_once(committed, fixture_sf0001, tmp_path):
    """A manifest written before manifests listed their files counts as
    pending: its source is rebuilt once, then skipped."""
    import json

    out = _copy(committed, tmp_path)
    p = mf.manifest_path(out, "src3")
    with open(p) as f:
        m = json.load(f)
    del m["files"]
    with open(p, "w") as f:
        json.dump(m, f)
    assert cp.run_checkpointed(fixture_sf0001, out)["completed"] == ["src3"]
    assert mf.load_manifest(out, "src3")["files"]
    assert not cp.run_checkpointed(fixture_sf0001, out)["completed"]
    assert cp.read_output(out).count() == 2824 and not _unlisted(out)


def test_stray_parquet_in_committed_dir_is_invisible(committed, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    out = _copy(committed, tmp_path)
    before = _triples(out)
    stray = pa.table({c: pa.array(["s"], pa.large_string()) for c in ("subj", "pred", "obj")})
    stray = stray.append_column("obj_is_literal", pa.array([False]))
    pq.write_table(stray, os.path.join(out, "data", "graph=src0", "part-stray.parquet"))
    assert _triples(out) == before


def test_commit_layout_independent(committed, fixture_sf0001, tmp_path):
    """``input_summary`` and every manifest's (triples_out, content_hash)
    are the same whether the pages arrive as one parquet file or as many
    small ones, 1-row files included."""
    import pyarrow.parquet as pq

    fx = str(tmp_path / "fx")
    _page_fixture(fixture_sf0001, fx, 0)
    os.remove(os.path.join(fx, "pages", "part-0.parquet"))
    pages = pq.read_table(os.path.join(fixture_sf0001, "pages"))
    cuts = [*range(0, 24), *range(24, 500, 53), 500]
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):
        pq.write_table(pages.slice(a, b - a), os.path.join(fx, "pages", f"part-{i:03d}.parquet"))
    one = cp.input_summary(fixture_sf0001)
    assert cp.input_summary(fx).equals(one)
    out = str(tmp_path / "kg")
    assert len(cp.run_checkpointed(fx, out)["completed"]) == 20
    for src in one["source"]:
        a, b = mf.load_manifest(committed, src), mf.load_manifest(out, src)
        assert (a["triples_out"], a["content_hash"]) == (b["triples_out"], b["content_hash"])
    assert _triples(out) == _triples(committed)


def test_commit_fold_block_layouts(committed, tmp_path):
    """The per-block commit and the driver fold give every source's
    manifest (triples_out, content_hash) over 1-row and ragged blocks,
    with empty and zero-column blocks in between."""
    import pyarrow as pa
    import ray

    t = pa.concat_tables(ray.get(cp.read_output(committed).to_arrow_refs())).select(_COLS)
    t = t.set_column(4, "graph", t["graph"].cast(pa.large_string()))
    cuts = [*range(0, 40), *range(40, t.num_rows, 611), t.num_rows]
    data = str(tmp_path / "data")
    parts = [cp._commit_block(t.slice(a, b - a), data) for a, b in zip(cuts, cuts[1:])]
    parts[5:5] = [pa.table({}), parts[0].slice(0, 0)]
    folded = cp._fold(parts, "graph")
    assert cp._fold(parts[:5] + parts[7:], "graph") == folded
    for src, (n, h) in folded.items():
        m = mf.load_manifest(committed, src)
        assert (m["triples_out"], m["content_hash"]) == (n, str(h))
    assert len(folded) == 20


def test_release_sidecar_failure_pulls_new_bytes(tmp_path, monkeypatch):
    """If the ``.bytesum`` write fails after a release file changed, the
    pull hashes the file itself and pulls the new bytes: no sidecar of
    the old file is left beside the new one."""
    graphs, dest = str(tmp_path / "graphs"), str(tmp_path / "dest")
    os.makedirs(graphs)
    path = os.path.join(graphs, "src0_release.nq.gz")
    nq._publish(path, b"old bytes")
    assert list(nq.pull_release_graphs(graphs, dest)["action"]) == ["pulled"]

    def fail(data):
        raise OSError("sidecar write failed")

    monkeypatch.setattr(nq, "_bytesum", fail)
    with pytest.raises(OSError):
        nq._publish(path, b"new bytes")
    monkeypatch.undo()
    assert not os.path.exists(path + ".bytesum")
    assert list(nq.pull_release_graphs(graphs, dest)["action"]) == ["pulled"]
    with open(os.path.join(dest, "src0_release.nq.gz"), "rb") as f:
        assert f.read() == b"new bytes"
    assert list(nq.pull_release_graphs(graphs, dest)["action"]) == ["skipped"]


def _from_threads(call, n_threads=8, n_calls=50):
    """Run ``call(thread, k)`` for k < ``n_calls`` on each of ``n_threads``
    threads at once; re-raise the first exception."""
    from concurrent.futures import ThreadPoolExecutor

    def run(i):
        for k in range(n_calls):
            call(i, k)

    with ThreadPoolExecutor(n_threads) as pool:
        list(pool.map(run, range(n_threads)))


def test_concurrent_manifest_writes_of_one_partition(tmp_path):
    """Concurrent ``write_manifest`` calls of one partition each stage
    under their own tmp name: none raises, the manifest holds one call's
    payload whole, and no ``*.tmp`` is left behind."""
    out = str(tmp_path)
    _from_threads(lambda i, k: mf.write_manifest(out, "src0", {"input_hash": f"{i}-{k}"}))
    m = mf.load_manifest(out, "src0")
    assert m["partition_id"] == "src0" and m["input_hash"].endswith("-49")
    assert os.listdir(os.path.join(out, "manifests")) == ["src0.json"]


def test_concurrent_publishes_of_one_path(tmp_path):
    """Concurrent ``_publish`` calls of one release file: none raises, the
    file holds one call's bytes whole, its sidecar is one call's digest,
    and no ``*.tmp`` is left behind."""
    path = str(tmp_path / "src0_release.nq.gz")
    payloads = [bytes([i]) * 50_000 for i in range(8)]
    _from_threads(lambda i, k: nq._publish(path, payloads[i]))
    with open(path, "rb") as f:
        assert f.read() in payloads
    with open(path + ".bytesum") as f:
        assert f.read() in {nq._bytesum(p) for p in payloads}
    assert sorted(os.listdir(tmp_path)) == ["src0_release.nq.gz", "src0_release.nq.gz.bytesum"]


def test_sources_sharing_a_sanitized_id_raise(fixture_sf0001, tmp_path):
    """``a:b`` and ``a-b`` are distinct sources that sanitize to one
    manifest name and one release file name: the refresh raises before it
    writes anything, and the release raises instead of letting the last
    write win."""
    import pyarrow as pa
    import ray.data as rd

    from scheduler_ray.stages.expand import TRIPLE_SCHEMA

    fx, out = str(tmp_path / "fx"), str(tmp_path / "kg")
    _page_fixture(
        fixture_sf0001, fx, 5,
        extra_urls=["https://example.org/a:b/1", "https://example.org/a-b/1"],
    )
    with pytest.raises(ValueError, match="'a-b' and 'a:b'"):
        cp.run_checkpointed(fx, out)
    assert not os.path.exists(out)

    tbl = pa.table(
        {
            "subj": ["https://x/1", "https://x/2", "https://x/3", "https://x/4"],
            "pred": ["schema:name"] * 4,
            "obj": ["one", "two", "three", "four"],
            "obj_is_literal": [True] * 4,
            "graph": ["a:b", "a:b", "a:b", "a-b"],
        }
    )
    triples = rd.from_arrow(tbl.cast(TRIPLE_SCHEMA))
    # plain, both sources salted, only a:b salted
    for salt_factor, hot_fraction in ((0, 0.2), (2, 0.0), (2, 0.5)):
        with pytest.raises(ValueError, match=r"\['a-b', 'a:b'\] share the release file"):
            nq.write_release_graphs(
                triples, str(tmp_path / f"rel{hot_fraction}"),
                salt_factor=salt_factor, hot_fraction=hot_fraction,
            )


# ----------------------------------------------------- publishing dry runs
def _release_dir(tmp_path):
    d = tmp_path / "graphs"
    d.mkdir()
    (d / "src1_release.nq").write_text("<s> <p> <o> <g> .\n")
    (d / "src2_release.nq.gz").write_bytes(b"\x1f\x8b fake")
    (d / "src1_release.nq.bytesum").write_text("123")
    (d / "notes.txt").write_text("not a graph")
    return str(d)


def test_oci_push_manifest_golden(tmp_path):
    """S11 dry run matches the reference's oras push contract
    (export.py:249-262): nq/nq.gz layers only, date+latest tags, the two
    image annotations."""
    from scheduler_ray.pipelines.publish import oci_push_manifest

    m = oci_push_manifest(_release_dir(tmp_path), date_str="2026_08_18")
    assert m.target == "ghcr.io/internetofwater/geoconnex-graph:2026_08_18,latest"
    assert [f["file"] for f in m.files] == ["src1_release.nq", "src2_release.nq.gz"]
    assert all(f["media_type"] == "application/n-quads" for f in m.files)
    assert sorted(s["file"] for s in m.skipped) == [
        "notes.txt",
        "src1_release.nq.bytesum",
    ]
    assert "org.opencontainers.image.source" in m.metadata["annotations"]
    assert m.command.startswith("oras push ghcr.io/")
    # test mode routes to the local registry, like RUNNING_AS_TEST_OR_DEV
    m2 = oci_push_manifest(str(tmp_path / "graphs"), date_str="2026_08_18", test_mode=True)
    assert m2.target.startswith("localhost:5000/")


def test_lakefs_copy_manifest_golden(tmp_path):
    """S12 dry run matches classes.py:297-330: include *.nq/*.nq.gz,
    exclude *.bytesum, branch pre-clear + commit message with the source
    prefix."""
    from scheduler_ray.pipelines.publish import lakefs_copy_manifest

    m = lakefs_copy_manifest(
        _release_dir(tmp_path),
        source_prefix="graphs/latest",
        destination_branch="release_2026_08",
        destination_prefix="geoconnex/release_graphs",
    )
    assert m.target == "lakefs:geoconnex/release_2026_08/geoconnex/release_graphs"
    assert [f["file"] for f in m.files] == ["src1_release.nq", "src2_release.nq.gz"]
    reasons = {s["file"]: s["reason"] for s in m.skipped}
    assert reasons["src1_release.nq.bytesum"] == "--exclude *.bytesum"
    assert "graphs/latest" in m.metadata["commit_message"]
    assert "--include *.nq" in m.command and "--exclude *.bytesum" in m.command
    assert m.command.startswith("rclone copy gs:iow/graphs/latest ")


def test_zenodo_deposit_manifest_golden(tmp_path):
    """S13 dry run matches export.py:465-522: bytesum silently skipped,
    other non-nq files warn-skipped, per-file sizes recorded, fixed deposit
    metadata."""
    from scheduler_ray.pipelines.publish import zenodo_deposit_manifest

    m = zenodo_deposit_manifest(_release_dir(tmp_path))
    assert [f["file"] for f in m.files] == ["src1_release.nq", "src2_release.nq.gz"]
    assert all(f["size_bytes"] > 0 for f in m.files)
    assert [s["file"] for s in m.skipped] == ["notes.txt"]  # bytesum is silent
    md = m.metadata["metadata"]
    assert md["title"] == "Geoconnex Graph" and md["upload_type"] == "dataset"
    assert md["creators"][0]["name"] == "Internet of Water Coalition"
