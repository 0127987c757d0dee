"""Property-based tests (hypothesis) for correctness-critical kernels.

The reference has no property tests (SURVEY.md §5); these guard the two
invariants everything else rests on: byte-identical extraction and
canonicalization equivalence with a naive union-find oracle.
"""

from __future__ import annotations

import pyarrow as pa
from hypothesis import given, settings
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


# ---- sorted-aggregate primitives (the border-fixup bug class) --------
#
# sorted_agg_by's round-5 bug (1-row blocks double-emitting their border
# row, double-counting SUM fixups) motivates exhaustive layout fuzzing:
# random frames × random block counts must match pandas exactly for
# every aggregate kind.

_key_st = st.lists(
    st.sampled_from(["a", "b", "c", "dd", "e"]), min_size=1, max_size=60
)


@settings(max_examples=60, deadline=None)
@given(_key_st, st.integers(min_value=1, max_value=12), st.randoms())
def test_sorted_agg_by_matches_pandas_any_layout(keys, n_parts, rnd):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from scheduler_ray.stages.canonicalize import sorted_agg_by

    vals = [rnd.randint(-50, 50) for _ in keys]
    df = pd.DataFrame({"k": keys, "v": np.array(vals, np.int64)})
    ds = rd.from_pandas(df).repartition(min(n_parts, len(df)))
    for agg in ("sum", "min", "max"):
        got = (
            sorted_agg_by(ds, "k", {"v": agg})
            .to_pandas()
            .sort_values("k")
            .reset_index(drop=True)
        )
        want = (
            df.groupby("k", as_index=False)
            .agg(v=("v", agg))
            .sort_values("k")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # empty aggs == distinct
    got_d = sorted(sorted_agg_by(ds, "k", {}).to_pandas()["k"])
    assert got_d == sorted(df["k"].unique())


@settings(max_examples=40, deadline=None)
@given(_key_st, st.integers(min_value=1, max_value=10), st.randoms())
def test_group_prefix_sum_matches_pandas_any_layout(keys, n_parts, rnd):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from scheduler_ray.stages.relational import group_prefix_sum

    df = pd.DataFrame(
        {
            "k": keys,
            "o": np.arange(len(keys), dtype=np.int64),
            "v": np.array([rnd.randint(0, 30) for _ in keys], np.int64),
        }
    )
    got = (
        group_prefix_sum(
            rd.from_pandas(df).repartition(min(n_parts, len(df))), "k", "v", "o"
        )
        .to_pandas()
        .sort_values("o")
        .reset_index(drop=True)
    )
    want = (
        df.sort_values(["k", "o"])
        .assign(ps=lambda d: d.groupby("k")["v"].cumsum())
        .sort_values("o")
        .reset_index(drop=True)
    )
    assert (got["prefix_sum"].to_numpy() == want["ps"].to_numpy()).all()
