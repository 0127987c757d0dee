"""Property-based tests (hypothesis) for correctness-critical kernels.

The reference has no property tests (SURVEY.md §5); these guard the two
invariants everything else rests on: byte-identical extraction and
canonicalization equivalence with a naive union-find oracle.
"""

from __future__ import annotations

import random

import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scheduler_ray.stages.canonicalize import PID_PREFIX, UnionFind, sameas_edges_batch
from scheduler_ray.stages.extract import extract_jsonld_batch

# payload text that cannot terminate the script block early
payload_st = st.text(
    alphabet=st.characters(blacklist_characters="<", blacklist_categories=("Cs",)),
    min_size=0,
    max_size=300,
)


@settings(max_examples=200, deadline=None)
@given(payload_st, st.text(alphabet="abcdefgh", min_size=1, max_size=8))
def test_extraction_roundtrip(payload, source):
    """embed(payload) → extract == payload, byte-identical, any content."""
    html = f'<html><script type="application/ld+json">{payload}</script></html>'
    batch = pa.table(
        {
            "url": pa.array([f"https://host/{source}/items/1"]),
            "html": pa.array([html.encode()], pa.binary()),
        }
    )
    out = extract_jsonld_batch(batch)
    assert out["extracted"].to_pylist() == [payload]
    assert out["source"].to_pylist() == [source]


node_st = st.one_of(
    st.integers(0, 30).map(lambda i: f"{PID_PREFIX}s/{i}"),
    st.integers(0, 30).map(lambda i: f"https://provider.example/s/{i}"),
    st.integers(0, 30).map(lambda i: f"https://mirror.example/s/{i}"),
)
edges_st = st.lists(st.tuples(node_st, node_st), min_size=0, max_size=40)


def _naive_canonical(edges):
    """Oracle: full union-find, canonical = PID (lexicographically first)
    if the cluster has one, else the lexicographically smallest member."""
    uf = UnionFind()
    members: set[str] = set()
    for a, b in edges:
        uf.union(a, b)
        members.add(a)
        members.add(b)
    clusters: dict[str, set[str]] = {}
    for m in members:
        clusters.setdefault(uf.find(m), set()).add(m)
    mapping = {}
    for _, ms in clusters.items():
        pids = sorted(m for m in ms if m.startswith(PID_PREFIX))
        canon = pids[0] if pids else min(ms)
        for m in ms:
            if m != canon:
                mapping[m] = canon
    return mapping


def _batch_of_edges(edges):
    n = len(edges)
    return pa.table(
        {
            "subj": pa.array([a for a, _ in edges], pa.large_string()),
            "pred": pa.array(["owl:sameAs"] * n, pa.large_string()),
            "obj": pa.array([b for _, b in edges], pa.large_string()),
            "obj_is_literal": pa.array([False] * n),
            "graph": pa.array(["g"] * n, pa.large_string()),
        }
    )


@settings(max_examples=200, deadline=None)
@given(edges_st)
def test_single_batch_combiner_matches_naive_uf(edges):
    """One batch's combiner output already encodes the naive-UF canonical
    mapping (PID preference included)."""
    out = sameas_edges_batch(_batch_of_edges(edges))
    got = dict(zip(out["node"].to_pylist(), out["root"].to_pylist()))
    assert got == _naive_canonical(edges)


def _alias_path(rnd: random.Random, n: int, pid_at: int | None):
    """The edges of one ``n``-node sameAs path whose URIs (and edge order
    and direction) are shuffled, with the PID at ``pid_at`` or absent."""
    names = [f"https://provider.example/a/{i}" for i in range(n)]
    rnd.shuffle(names)
    if pid_at is not None:
        names[pid_at] = f"{PID_PREFIX}a/0"
    edges = [(names[i], names[i + 1]) for i in range(n - 1)]
    rnd.shuffle(edges)
    return [(b, a) if rnd.random() < 0.5 else (a, b) for a, b in edges]


@st.composite
def alias_path_st(draw):
    n = draw(st.integers(2, 300))
    pid_at = draw(st.none() | st.integers(0, n - 1))
    return _alias_path(draw(st.randoms(use_true_random=False)), n, pid_at)


_PATH_100 = _alias_path(random.Random(100), 100, 37)


@settings(max_examples=100, deadline=None)
@given(alias_path_st())
@example(_PATH_100)
def test_combiner_closes_alias_paths(edges):
    """One batch holding a long alias path in random order closes it
    exactly: every alias maps to the one canonical (a capped label
    propagation split such paths into several "canonicals")."""
    out = sameas_edges_batch(_batch_of_edges(edges))
    got = dict(zip(out["node"].to_pylist(), out["root"].to_pylist()))
    assert got == _naive_canonical(edges)


def test_merge_pair_tables_closes_cross_block_chain():
    """100 one-edge blocks of one alias path, each compressed by the
    combiner, merge into one cluster with one root (a pointer chase with
    a round cap left the chain split)."""
    from scheduler_ray.stages.canonicalize import _merge_pair_tables

    rnd = random.Random(7)
    edges = _alias_path(rnd, 101, None)
    tables = [sameas_edges_batch(_batch_of_edges([e])) for e in edges]
    merged = _merge_pair_tables(tables)
    got = dict(zip(merged["node"].to_pylist(), merged["root"].to_pylist()))
    assert len(set(got.values())) == 1
    assert got == _naive_canonical(edges)


@settings(max_examples=75, deadline=None)
@given(edges_st, st.integers(1, 4))
def test_cross_batch_merge_matches_naive_uf(edges, n_splits):
    """Splitting the edges across blocks and merging distributed must give
    the same mapping as the naive single-pass union-find."""
    import ray
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import collect_sameas_edges, lut_ref_from_edges

    rows = [
        {"subj": a, "pred": "owl:sameAs", "obj": b, "obj_is_literal": False, "graph": "g"}
        for a, b in edges
    ]
    if not rows:
        return
    ds = rd.from_items(rows).repartition(n_splits)
    keys, vals = ray.get(lut_ref_from_edges(collect_sameas_edges(ds)))[:2]
    got = dict(zip(keys.to_pylist(), vals.to_pylist()))
    assert got == _naive_canonical(edges)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(edges_st, min_size=1, max_size=12),
    st.integers(2, 5),
    st.integers(2, 5),
)
def test_pair_files_and_block_refs_build_identical_luts(tmp_path_factory, blocks, f_files, f_refs):
    """The one LUT builder, fed pair files (the single-pass writer's way)
    and edge-Dataset block refs (the two-pass way, lut_ref_from_edges),
    builds array-identical LUTs — the naive-UF mapping — for any per-block
    pair tables and fanouts."""
    import os

    import numpy as np
    import pyarrow.parquet as pq
    import ray
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import _PairMerger, lut_ref_from_edges
    from scheduler_ray.state.fs import LocalFS

    tables = [sameas_edges_batch(_batch_of_edges(edges)) for edges in blocks]
    d = str(tmp_path_factory.mktemp("pairs"))
    merger = _PairMerger(LocalFS(), merge_fanout=f_files)
    for i, t in enumerate(tables):
        path = os.path.join(d, f"pairs-{i}.parquet")
        pq.write_table(t, path)
        merger.add(path)
    from_files = ray.get(merger.finish())
    from_refs = ray.get(lut_ref_from_edges(rd.from_arrow(tables), merge_fanout=f_refs))
    assert len(from_files) == len(from_refs) == 5
    for a, b in zip(from_files, from_refs):
        if a is None or b is None:
            assert a is b
        else:
            np.testing.assert_array_equal(np.asarray(a), np.asarray(b))
    got = dict(zip(from_files[0].to_pylist(), from_files[1].to_pylist()))
    assert got == _naive_canonical([e for edges in blocks for e in edges])


# --------------------------- JSON-LD expansion properties (round 2)
import json as _json

_term_st = st.text(alphabet="abcdefgh", min_size=1, max_size=6)
_value_st = st.one_of(
    st.text(alphabet="xyz 0123456789", min_size=0, max_size=20),
    st.integers(-1000, 1000),
    st.booleans(),
)
_nested_st = st.dictionaries(
    _term_st.map(lambda t: f"schema:{t}"), _value_st, min_size=1, max_size=3
)
_doc_st = st.fixed_dictionaries(
    {"@id": st.just("https://x.example/root")},
    optional={
        "@type": _term_st,
        "schema:name": _value_st,
        "schema:geo": _nested_st,
        "schema:extra": _nested_st,
    },
)


@settings(max_examples=150, deadline=None)
@given(_doc_st)
def test_expansion_blank_node_invariants(doc):
    """Every anonymous nested node yields exactly one parent edge to a
    fresh, document-unique blank label, and the nested node's own triples
    sit at that label — no flattening onto the parent, no lost values."""
    from scheduler_ray.stages.expand import expand_triples_batch

    batch = pa.table(
        {
            "source": pa.array(["s"], pa.large_string()),
            "extracted": pa.array([_json.dumps(doc)], pa.large_string()),
        }
    )
    out = expand_triples_batch(batch)
    rows = list(
        zip(*(out[c].to_pylist() for c in ("subj", "pred", "obj", "obj_is_literal")))
    )
    blank_objs = [o for _, _, o, lit in rows if not lit and o.startswith("_:")]
    assert len(blank_objs) == len(set(blank_objs))  # labels unique per doc
    n_nested = sum(1 for k in ("schema:geo", "schema:extra") if k in doc)
    assert len(blank_objs) == n_nested
    # each nested scalar value appears at its blank label, not the root
    for key in ("schema:geo", "schema:extra"):
        nested = doc.get(key)
        if not nested:
            continue
        (label,) = [o for s, p, o, lit in rows if p == key and not lit]
        for ck, cv in nested.items():
            assert any(s == label and p == ck and o == str(cv) for s, p, o, _ in rows)
            assert not any(
                s == "https://x.example/root" and p == ck for s, p, _o, _ in rows
            )


@settings(max_examples=100, deadline=None)
@given(
    st.dictionaries(_term_st, st.just("https://vocab.example/ns#"), min_size=1, max_size=2),
    _term_st,
)
def test_expansion_context_prefix_resolution(ctx, local):
    """Prefixed predicate keys resolve through @context; unmapped prefixes
    pass through verbatim."""
    from scheduler_ray.stages.expand import expand_triples_batch

    pfx = sorted(ctx)[0]
    doc = {
        "@context": ctx,
        "@id": "https://x.example/r",
        f"{pfx}:{local}": "v",
        f"unmapped:{local}": "w",
    }
    batch = pa.table(
        {
            "source": pa.array(["s"], pa.large_string()),
            "extracted": pa.array([_json.dumps(doc)], pa.large_string()),
        }
    )
    out = expand_triples_batch(batch)
    preds = set(out["pred"].to_pylist())
    assert f"https://vocab.example/ns#{local}" in preds
    assert f"unmapped:{local}" in preds


# --- round 3: the TOLERANT extraction must be variant-invariant ----------
attr_st = st.sampled_from(["", " async", ' data-x="1"', " defer", "\nrel='x'"])
q_st = st.sampled_from(['"', "'", ""])
ws_st = st.sampled_from(["", " ", "  ", "\n"])
case_st = st.sampled_from(["script", "SCRIPT", "Script"])
type_case_st = st.sampled_from(["type", "TYPE", "Type"])
mime_st = st.sampled_from(["application/ld+json", "application/LD+JSON"])
charset_st = st.sampled_from(["", "; charset=utf-8"])
close_ws_st = st.sampled_from(["", " ", "\n"])


@settings(max_examples=200, deadline=None)
@given(payload_st, attr_st, attr_st, q_st, ws_st, ws_st, case_st, type_case_st,
       mime_st, charset_st, close_ws_st)
def test_extraction_tag_variant_invariance(
    payload, pre_attr, post_attr, quote, ws_eq1, ws_eq2, tag_case, type_case,
    mime, charset, close_ws
):
    """Any real-world combination of attribute placement, quote style,
    case, whitespace and charset parameter extracts the payload
    byte-identically (reference harvest contract
    userCode/lib/containers.py:62-76)."""
    if quote == "" and charset:
        charset = ""  # unquoted values end at whitespace; keep valid html
    open_tag = (
        f"<{tag_case}{pre_attr} {type_case}{ws_eq1}={ws_eq2}"
        f"{quote}{mime}{charset}{quote}{post_attr}>"
    )
    html = f"<html>{open_tag}{payload}</{tag_case}{close_ws}></html>"
    batch = pa.table(
        {
            "url": pa.array(["https://host/s/items/1"]),
            "html": pa.array([html.encode()], pa.binary()),
        }
    )
    out = extract_jsonld_batch(batch)
    assert out["extracted"].to_pylist() == [payload]


# ---- sorted-segment kernels (the border-repair bug class) ------------
#
# sorted_agg_by's round-5 bug (1-row blocks double-emitting their border
# row, double-counting SUM fixups) came from this class.  Every operator
# on segments.segment_scan is a (summarize, combine, apply) kernel over
# Arrow tables, so scan_tables replays it over random block layouts of a
# sorted stream (empty, 1-row and all-one-key blocks included) with no
# Ray work per example.  Each operator's Ray wiring is covered by its own
# test in test_ops.py / test_flagship.py.

_key_st = st.lists(
    st.sampled_from(["a", "b", "c", "dd", "e"]), min_size=1, max_size=60
)
_cuts_st = st.lists(st.integers(min_value=0, max_value=60), max_size=14)
# a one-key stream cut into 1-row blocks, with an empty block among them
_ONE_KEY = (["a"] * 6, [1, 2, 3, 3, 4, 5], random.Random(0))


def _scan(df, cuts, keys, kernel):
    """Cut the sorted frame ``df`` into blocks at ``cuts``, run ``kernel``
    over them and return the non-empty outputs as one frame."""
    from scheduler_ray.stages.segments import scan_tables

    t = pa.Table.from_pandas(df.reset_index(drop=True), preserve_index=False)
    bounds = [0, *sorted(min(c, t.num_rows) for c in cuts), t.num_rows]
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    outs = [o for o in scan_tables(blocks, keys, kernel) if o.num_rows]
    return pa.concat_tables(outs).to_pandas()


@settings(max_examples=300, deadline=None)
@given(_key_st, _cuts_st, st.randoms())
@example(*_ONE_KEY)
def test_agg_kernel_matches_pandas_any_layout(keys, cuts, rnd):
    import pandas as pd

    from scheduler_ray.stages.segments import agg_kernel

    df = pd.DataFrame({"k": sorted(keys), "v": [rnd.randint(-50, 50) for _ in keys]})
    for agg in ("sum", "min", "max"):
        got = _scan(df, cuts, ["k"], agg_kernel(["k"], {"v": agg}))
        want = df.groupby("k", as_index=False).agg(v=("v", agg))
        pd.testing.assert_frame_equal(
            got.sort_values("k").reset_index(drop=True), want, check_dtype=False
        )
    # empty aggs == distinct, each key exactly once
    assert sorted(_scan(df, cuts, ["k"], agg_kernel(["k"], {}))["k"]) == sorted(set(keys))


@settings(max_examples=200, deadline=None)
@given(_key_st, _cuts_st, st.randoms())
def test_agg_kernel_composite_keys_any_layout(keys, cuts, rnd):
    """A composite (string, int) key, whose groups Arrow's hash grouper
    can emit out of first-appearance order: every block's output stays
    key-sorted and each key is emitted once, with the pandas sum."""
    import pandas as pd

    from scheduler_ray.stages.segments import agg_kernel

    df = pd.DataFrame(
        {"k": keys, "j": [rnd.randint(0, 2) for _ in keys], "v": [rnd.randint(-50, 50) for _ in keys]}
    ).sort_values(["k", "j"])
    got = _scan(df, cuts, ["k", "j"], agg_kernel(["k", "j"], {"v": "sum"}))
    want = df.groupby(["k", "j"], as_index=False)["v"].sum()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@settings(max_examples=200, deadline=None)
@given(_key_st, _cuts_st, st.randoms())
@example(*_ONE_KEY)
def test_map_groups_kernel_calls_fn_once_per_group(keys, cuts, rnd):
    import pandas as pd

    from scheduler_ray.stages.segments import map_groups_kernel

    df = pd.DataFrame(
        {
            "k": keys,
            "k2": [rnd.randint(0, 1) for _ in keys],
            "v": [rnd.randint(0, 9) for _ in keys],
        }
    ).sort_values(["k", "k2"])

    def fn(g: pa.Table) -> pa.Table:
        assert g.num_rows  # the map_groups contract: never an empty table
        # one whole group: a single (k, k2) value
        assert len(set(zip(g["k"].to_pylist(), g["k2"].to_pylist()))) == 1
        return pa.table(
            {
                "k": g["k"].slice(0, 1),
                "k2": g["k2"].slice(0, 1),
                "n": [g.num_rows],
                "s": [sum(g["v"].to_pylist())],
            }
        )

    got = _scan(df, cuts, ["k", "k2"], map_groups_kernel(["k", "k2"], fn))
    want = df.groupby(["k", "k2"], as_index=False).agg(n=("v", "size"), s=("v", "sum"))
    pd.testing.assert_frame_equal(
        got.sort_values(["k", "k2"]).reset_index(drop=True), want, check_dtype=False
    )


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 40), min_size=1, max_size=60),
    st.lists(st.integers(0, 7), min_size=60, max_size=60),
    st.integers(2, 12),
    st.integers(0, 7),
)
def test_bucket_pairs_match_brute_force(ids, sketch, width, thr):
    """The shared LSH bucket-pair helper against brute force: a bucket
    of at most ``max_width`` distinct ids gives exactly the a < b pairs
    that pass the predicate; a capped bucket gives a subset of those that
    holds every pair inside one chunk of its sorted order."""
    import numpy as np

    from scheduler_ray.stages.dedup import bucket_pair_spans, bucket_pairs

    ids = np.array(ids, np.int64)
    sk = np.array(sketch[: len(ids)], np.uint64)

    def keep(x, y):
        return (x ^ y) <= thr

    uid, first = np.unique(ids, return_index=True)
    usk = sk[first]
    want = {
        (int(uid[i]), int(uid[j]))
        for i in range(len(uid))
        for j in range(i + 1, len(uid))
        if keep(usk[i], usk[j])
    }
    a, b = bucket_pairs(ids, sk, keep, width)
    got = set(zip(a.tolist(), b.tolist()))
    assert len(got) == len(a) or len(uid) > width  # no repeats when uncapped
    assert all(x < y for x, y in got)
    if len(uid) <= width:
        assert got == want
        return
    assert got <= want
    order, spans, capped = bucket_pair_spans(usk, uid, width)
    assert capped
    so, ss = uid[order], usk[order]
    for lo, hi in spans:
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                if keep(ss[i], ss[j]):
                    assert (min(so[i], so[j]), max(so[i], so[j])) in got


@settings(max_examples=200, deadline=None)
@given(_key_st, _cuts_st, st.randoms())
@example(*_ONE_KEY)
def test_session_kernel_matches_pandas_any_layout(keys, cuts, rnd):
    import pandas as pd

    from scheduler_ray.stages.relational import session_kernel

    gap = 5
    df = pd.DataFrame({"k": keys, "t": [rnd.randint(0, 60) for _ in keys]})
    df = df.sort_values(["k", "t"]).reset_index(drop=True)
    df["ts"] = pd.to_datetime(df["t"], unit="s").astype("datetime64[us]")
    got = _scan(df[["k", "ts"]], cuts, ["k"], session_kernel("k", "ts", gap))
    step = df.groupby("k")["t"].diff()
    df["sid"] = (step.isna() | (step > gap)).cumsum()
    want = df.groupby("sid").agg(
        k=("k", "first"),
        session_start=("t", "min"),
        session_end=("t", "max"),
        n_events=("t", "size"),
    )
    pd.testing.assert_frame_equal(
        got.sort_values(["k", "session_start"]).reset_index(drop=True),
        want.reset_index(drop=True),
        check_dtype=False,
    )


@settings(max_examples=200, deadline=None)
@given(_key_st, _cuts_st, st.randoms(), st.booleans())
@example(*_ONE_KEY, False)
def test_prefix_sum_kernel_matches_pandas_any_layout(keys, cuts, rnd, dup_orders):
    import pandas as pd
    import pytest

    from scheduler_ray.stages.relational import prefix_sum_kernel

    orders = [rnd.randint(0, 5) for _ in keys] if dup_orders else range(len(keys))
    df = pd.DataFrame(
        {"k": keys, "o": orders, "v": [rnd.randint(0, 30) for _ in keys]}
    ).sort_values(["k", "o"])
    if df.duplicated(["k", "o"]).any():
        # the kernel's one validation point, in a block or across a border
        with pytest.raises(ValueError, match="unique"):
            _scan(df, cuts, ["k"], prefix_sum_kernel("k", "v", "o"))
        return
    for excl in (False, True):
        got = _scan(df, cuts, ["k"], prefix_sum_kernel("k", "v", "o", exclusive=excl))
        want = df.groupby("k")["v"].cumsum() - (df["v"] if excl else 0)
        assert got["prefix_sum"].tolist() == want.tolist()


@settings(max_examples=200, deadline=None)
@given(_key_st, _cuts_st, st.randoms())
@example(*_ONE_KEY)
def test_lag_kernel_matches_pandas_any_layout(keys, cuts, rnd):
    import numpy as np
    import pandas as pd

    from scheduler_ray.stages.relational import lag_kernel

    df = pd.DataFrame(
        {"k": keys, "o": range(len(keys)), "v": [rnd.uniform(-1, 1) for _ in keys]}
    ).sort_values(["k", "o"])
    got = _scan(df, cuts, ["k"], lag_kernel("k", "v"))
    np.testing.assert_array_equal(got["lag"], df.groupby("k")["v"].shift().to_numpy())


# ---- the geo-point kernel ----------------------------------------------
#
# link._subject_points (one batch, in process), link.resolve_points_grouped
# (per-block partials merged across the stream) and export.feature_table
# share one kernel: _point_partials_batch, the blank-keyed max merge,
# _finish_points and the subject-keyed max merge.  Its partials must
# re-aggregate exactly over any cut of the triples, 1-row blocks and
# cuts between a geo edge and its coordinates included.

# (feature, blank, coordinate rows, lat, lon) per geo edge
_geo_edge_st = st.tuples(
    st.integers(0, 4),
    st.integers(0, 2),
    st.sampled_from(["both", "lat", "lon", "none", "bad"]),
    st.integers(-90000, 90000),
    st.integers(-180000, 180000),
)


def _geo_triples(edges, rnd):
    """Shuffled triples of ``edges`` and their points, built naively:
    per blank the max of each parsed coordinate, per feature the max over
    its blanks that have both, in registry units (milli-units / 1000)."""
    rows, blanks = [], {}
    for f, b, kind, lat, lon in edges:
        blank = f"_:f{f}#b{b}"
        rows += [(f"f{f}", "schema:geo", blank), (f"f{f}", "schema:name", f"F {f}")]
        got = blanks.setdefault(blank, {"subj": f"f{f}", "lat": [], "lon": []})
        if kind in ("both", "lat"):
            rows.append((blank, "schema:latitude", str(lat)))
            got["lat"].append(lat)
        if kind in ("both", "lon"):
            rows.append((blank, "https://schema.org/longitude", str(lon)))
            got["lon"].append(lon)
        if kind == "bad":
            rows.append((blank, "schema:latitude", "n/a"))
    # coordinates of a blank no geo edge points at resolve nothing
    rows.append(("_:orphan#b0", "schema:latitude", "1"))
    rows.append(("_:orphan#b0", "schema:longitude", "2"))
    rnd.shuffle(rows)
    per_subj: dict = {}
    for got in blanks.values():
        if got["lat"] and got["lon"]:
            per_subj.setdefault(got["subj"], []).append((max(got["lat"]), max(got["lon"])))
    want = {
        s: (max(p[0] for p in ps) / 1000.0, max(p[1] for p in ps) / 1000.0)
        for s, ps in per_subj.items()
    }
    ls = pa.large_string()
    t = pa.table(
        {
            "subj": pa.array([r[0] for r in rows], ls),
            "pred": pa.array([r[1] for r in rows], ls),
            "obj": pa.array([r[2] for r in rows], ls),
            "obj_is_literal": pa.array([r[1] != "schema:geo" for r in rows]),
            "graph": pa.array(["g"] * len(rows), ls),
        }
    )
    return t, want


def _points_over_blocks(blocks):
    """resolve_points_grouped's kernel calls without Ray: each block's
    partials merged by blank, then all of them merged again, finished,
    and merged by feature."""
    from scheduler_ray.stages.link import (
        _finish_points,
        _merge_blanks,
        _merge_subjects,
        _point_partials_batch,
    )

    parts = [_merge_blanks(_point_partials_batch(b), None, False) for b in blocks]
    merged = _merge_blanks(pa.concat_tables(parts), None, False)
    pts = _merge_subjects(_finish_points(merged), None, False)
    return dict(zip(pts["subj"].to_pylist(), zip(pts["lat"].to_pylist(), pts["lon"].to_pylist())))


@settings(max_examples=200, deadline=None)
@given(st.lists(_geo_edge_st, min_size=1, max_size=20), _cuts_st, st.randoms())
@example([(0, 0, "both", 500, -700)], [1, 2], random.Random(0))
def test_point_kernel_partials_any_layout(edges, cuts, rnd):
    from scheduler_ray.stages.link import _subject_points

    t, want = _geo_triples(edges, rnd)
    assert _subject_points(t) == want
    bounds = [0, *sorted(min(c, t.num_rows) for c in cuts), t.num_rows]
    blocks = [t.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]
    assert _points_over_blocks(blocks) == want
    # 1-row blocks: every geo edge is cut from its coordinates
    assert _points_over_blocks([t.slice(i, 1) for i in range(t.num_rows)]) == want
