"""Unit tests for the pure per-batch stage functions (no Ray needed)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from scheduler_ray.stages.canonicalize import (
    CanonicalRewriter,
    UnionFind,
    _canonical_pairs,
    build_rewrite_lut,
    local_canonicalize_batch,
    sameas_edges_batch,
)
from scheduler_ray.stages.expand import TRIPLE_SCHEMA, expand_triples_batch
from scheduler_ray.stages.extract import extract_jsonld_batch
from scheduler_ray.stages.link import RegistryIndex, link_triples_batch


def _pages_batch(html_list, urls=None):
    urls = urls or [f"https://h/{i}/items/{i}" for i in range(len(html_list))]
    return pa.table(
        {
            "url": pa.array(urls),
            "html": pa.array([h.encode() for h in html_list], pa.binary()),
        }
    )


def test_extract_byte_identity_and_nulls():
    payload = '{"@id":"x","a":1}'
    b = _pages_batch(
        [
            f'<html><script type="application/ld+json">{payload}</script></html>',
            "<html>no block</html>",
            # two blocks: first one wins (non-greedy)
            '<x><script type="application/ld+json">A</script>'
            '<script type="application/ld+json">B</script></x>',
        ],
        urls=["https://d/s1/items/1", "https://d/s2/items/2", "https://d/s3/items/3"],
    )
    out = extract_jsonld_batch(b)
    vals = out["extracted"].to_pylist()
    assert vals == [payload, None, "A"]
    assert out["source"].to_pylist() == ["s1", "s2", "s3"]
    assert "html" not in out.column_names


def test_extract_multiline_block():
    payload = '{"@id":\n "x",\n "a":1}'
    b = _pages_batch([f'<p><script type="application/ld+json">{payload}</script></p>'])
    assert extract_jsonld_batch(b)["extracted"].to_pylist() == [payload]


def test_extract_real_world_tag_variants():
    """Attribute order / quote style / case / whitespace / charset variants
    all extract byte-identically (reference harvest contract,
    userCode/lib/containers.py:62-76); lookalike tags must NOT match."""
    payload = '{"@id":"x"}'
    good = [
        f'<script async type=\'application/ld+json\'>{payload}</script>',
        f'<SCRIPT TYPE="application/LD+JSON" data-x="1">{payload}</SCRIPT>',
        f'<script data-y="2" type=application/ld+json>{payload}</script>',
        f'<script  type = "application/ld+json; charset=utf-8" >{payload}</script >',
        f'<script\ntype="application/ld+json"\nasync>{payload}</script\n>',
    ]
    bad = [
        f'<script type="text/javascript">{payload}</script>',
        f'<script data-type="application/ld+json">{payload}</script>',  # not type=
        f'<scriptx type="application/ld+json">{payload}</script>',  # wrong tag
    ]
    out = extract_jsonld_batch(_pages_batch([f"<html>{g}</html>" for g in good]))
    assert out["extracted"].to_pylist() == [payload] * len(good)
    out_bad = extract_jsonld_batch(_pages_batch([f"<html>{b}</html>" for b in bad]))
    assert out_bad["extracted"].to_pylist() == [None] * len(bad)
    # multi-block count is variant-aware: variant first + canonical second
    two = (
        f"<x><script async type='application/ld+json'>A</script>"
        f'<script type="application/ld+json">B</script></x>'
    )
    out2 = extract_jsonld_batch(_pages_batch([two]))
    assert out2["extracted"].to_pylist() == ["A"]
    assert out2["extracted_extra"].to_pylist() == ['["B"]']


def _extracted_batch(pairs):
    return pa.table(
        {
            "source": pa.array([s for s, _ in pairs]),
            "extracted": pa.array([e for _, e in pairs], pa.large_string()),
        }
    )


def test_expand_basic_nested_and_graph():
    doc = (
        '{"@id":"https://p/1","@type":"hyf:HY_HydroLocation","schema:name":"N",'
        '"schema:geo":{"schema:latitude":5,"schema:longitude":-7},'
        '"owl:sameAs":"https://q/1"}'
    )
    graph_doc = '{"@graph":[{"@id":"a","x":"1"},{"@id":"b","owl:sameAs":"https://c"}]}'
    out = expand_triples_batch(
        _extracted_batch([("s1", doc), ("s2", None), ("s2", "{bad"), ("s3", graph_doc)])
    )
    rows = set(zip(*[out[c].to_pylist() for c in ["subj", "pred", "obj", "obj_is_literal", "graph"]]))
    blank = "_:https://p/1#b0"
    assert ("https://p/1", "rdf:type", "hyf:HY_HydroLocation", False, "s1") in rows
    assert ("https://p/1", "schema:name", "N", True, "s1") in rows
    # anonymous nested node → deterministic blank label, not flattening
    assert ("https://p/1", "schema:geo", blank, False, "s1") in rows
    assert (blank, "schema:latitude", "5", True, "s1") in rows
    assert (blank, "schema:longitude", "-7", True, "s1") in rows
    assert ("https://p/1", "owl:sameAs", "https://q/1", False, "s1") in rows
    assert ("a", "x", "1", True, "s3") in rows
    assert ("b", "owl:sameAs", "https://c", False, "s3") in rows
    assert len(rows) == 8  # type,name,geo-edge,lat,lon,sameAs + 2 from @graph doc


def test_expand_context_typed_literals_and_extra_blocks():
    """Round-2 JSON-LD subset: @context prefix expansion, datatyped /
    language-tagged value objects, multiple script blocks.  The sample
    mirrors real-world schema.org structured data."""
    doc = (
        '{"@context":{"schema":"https://schema.org/","hyf":"https://www.opengis.net/def/schema/hy_features/hyf/"},'
        '"@id":"https://p/2","@type":"hyf:HY_HydroLocation",'
        '"schema:name":"Gauge","schema:geo":{"schema:latitude":1,"schema:longitude":2}}'
    )
    extra = (
        '["{\\"@id\\":\\"https://p/2\\",'
        '\\"schema:dateCreated\\":{\\"@value\\":\\"2026-01-17\\",\\"@type\\":\\"schema:Date\\"},'
        '\\"schema:alternateName\\":{\\"@value\\":\\"Pegel\\",\\"@language\\":\\"de\\"}}"]'
    )
    batch = pa.table(
        {
            "source": pa.array(["s1"], pa.large_string()),
            "extracted": pa.array([doc], pa.large_string()),
            "extracted_extra": pa.array([extra], pa.large_string()),
        }
    )
    out = expand_triples_batch(batch)
    rows = set(zip(*[out[c].to_pylist() for c in ["subj", "pred", "obj", "obj_is_literal"]]))
    blank = "_:https://p/2#b0"
    assert ("https://p/2", "rdf:type",
            "https://www.opengis.net/def/schema/hy_features/hyf/HY_HydroLocation", False) in rows
    assert ("https://p/2", "https://schema.org/name", "Gauge", True) in rows
    assert ("https://p/2", "https://schema.org/geo", blank, False) in rows
    assert (blank, "https://schema.org/latitude", "1", True) in rows
    # second block: typed + language-tagged literals (no context there)
    assert ("https://p/2", "schema:dateCreated", "2026-01-17^^schema:Date", True) in rows
    assert ("https://p/2", "schema:alternateName", "Pegel@de", True) in rows


def test_expand_base_list_reverse_remote_context():
    """Round-3 JSON-LD completeness: remote string context via the pinned
    offline table, @base relative-IRI resolution, @list collections,
    @reverse edges (reference contract docs/hdt.md:18-21)."""
    doc = (
        '{"@context":["https://schema.org",{"@base":"https://b.example/x/"}],'
        '"@id":"5/extra","alternateName":"Alt",'
        '"itemListElement":{"@list":["p","q"]},'
        '"empty":{"@list":[]},'
        '"@reverse":{"isPartOf":{"@id":"5/child"}}}'
    )
    out = expand_triples_batch(_extracted_batch([("s1", doc)]))
    rows = set(zip(*[out[c].to_pylist() for c in ["subj", "pred", "obj", "obj_is_literal"]]))
    s = "https://b.example/x/5/extra"
    b0, b1 = f"_:{s}#b0", f"_:{s}#b1"
    assert (s, "https://schema.org/alternateName", "Alt", True) in rows
    assert (s, "https://schema.org/itemListElement", b0, False) in rows
    assert (b0, "rdf:first", "p", True) in rows
    assert (b0, "rdf:rest", b1, False) in rows
    assert (b1, "rdf:first", "q", True) in rows
    assert (b1, "rdf:rest", "rdf:nil", False) in rows
    assert (s, "https://schema.org/empty", "rdf:nil", False) in rows
    assert ("https://b.example/x/5/child", "https://schema.org/isPartOf", s, False) in rows
    assert len(rows) == 8
    # @vocab must NOT apply to @id values; fragments resolve against @base
    frag = '{"@context":["https://schema.org",{"@base":"https://b.example/doc"}],"@id":"#it","name":"F"}'
    out2 = expand_triples_batch(_extracted_batch([("s1", frag)]))
    assert out2["subj"].to_pylist() == ["https://b.example/doc#it"]


def test_expand_real_world_schema_org_sample():
    """A realistic schema.org Dataset JSON-LD block (the shape found on
    actual data-portal landing pages) expands without loss."""
    import json

    sample = {
        "@context": {"@vocab": "https://schema.org/"},
        "@id": "https://waterdata.example/site/0042",
        "@type": "Dataset",
        "name": "Streamflow at site 0042",
        "publisher": {"@type": "Organization", "name": "Example Water Agency"},
        "distribution": {
            "@id": "https://waterdata.example/site/0042.csv",
            "@type": "DataDownload",
            "encodingFormat": "text/csv",
        },
        "temporalCoverage": {"@value": "2020-01-01/2026-01-01", "@type": "Text"},
    }
    batch = pa.table(
        {
            "source": pa.array(["src"], pa.large_string()),
            "extracted": pa.array([json.dumps(sample)], pa.large_string()),
        }
    )
    out = expand_triples_batch(batch)
    rows = set(zip(*[out[c].to_pylist() for c in ["subj", "pred", "obj", "obj_is_literal"]]))
    root = "https://waterdata.example/site/0042"
    assert (root, "rdf:type", "https://schema.org/Dataset", False) in rows
    assert (root, "https://schema.org/name", "Streamflow at site 0042", True) in rows
    # anonymous publisher → blank node with its own name triple
    assert (root, "https://schema.org/publisher", f"_:{root}#b0", False) in rows
    assert (f"_:{root}#b0", "https://schema.org/name", "Example Water Agency", True) in rows
    # named nested node → edge + its own typed triples
    assert (root, "https://schema.org/distribution",
            "https://waterdata.example/site/0042.csv", False) in rows
    assert ("https://waterdata.example/site/0042.csv", "rdf:type",
            "https://schema.org/DataDownload", False) in rows
    assert (root, "https://schema.org/temporalCoverage",
            "2020-01-01/2026-01-01^^https://schema.org/Text", True) in rows


def test_expand_empty():
    out = expand_triples_batch(_extracted_batch([("s", None)]))
    assert out.num_rows == 0 and out.schema == TRIPLE_SCHEMA


def test_union_find_chain():
    uf = UnionFind()
    uf.union("b", "c")
    uf.union("a", "b")
    assert uf.find("c") == uf.find("a") == uf.find("b")


def test_sameas_combiner_and_rewriter():
    t = pa.table(
        {
            "subj": pa.array(["alias", "prov", "alias", "keep"], pa.large_string()),
            "pred": pa.array(["owl:sameAs", "owl:sameAs", "schema:name", "schema:name"], pa.large_string()),
            "obj": pa.array(
                ["prov", "https://pids.geoconnex.dev/x/1", "N", "M"], pa.large_string()
            ),
            "obj_is_literal": pa.array([False, False, True, True]),
            "graph": pa.array(["g"] * 4, pa.large_string()),
        }
    )
    edges = sameas_edges_batch(t)
    assert edges.num_rows >= 2
    pid = "https://pids.geoconnex.dev/x/1"
    rw = CanonicalRewriter(
        build_rewrite_lut(
            _canonical_pairs(
                pa.array(["alias", "prov"], pa.large_string()),
                pa.array([pid, pid], pa.large_string()),
            )
        )
    )
    # the kernel only rewrites; the sameAs rows go where triples enter
    # canonicalization
    assert rw(t)["subj"].to_pylist() == [pid, pid, pid, "keep"]
    out, pairs = local_canonicalize_batch(t)
    assert pairs.num_rows == edges.num_rows
    assert "owl:sameAs" not in out["pred"].to_pylist()
    assert out["subj"].to_pylist() == [pid, "keep"]


def test_pair_merge_resolves_whole_conflict_component():
    """Merging partial node→canon tables where one node has two canons
    (V4) must close the WHOLE component: M7 is a member of the conflict
    component and also heads a pair to another PID, so resolving only
    the conflict's one-hop neighbourhood dropped the M7→P2 link and left
    P2 outside the cluster (seen in multi-level merge trees)."""
    from scheduler_ray.stages.canonicalize import (
        _hash_large_string,
        _merge_pair_tables,
    )

    P, M, V = "https://pids.geoconnex.dev/s/", "https://m.example/s/", "https://v.example/s/"

    def pairs(rows):
        na = pa.array([r[0] for r in rows], pa.large_string())
        ra = pa.array([r[1] for r in rows], pa.large_string())
        return pa.table(
            {"node": na, "root": ra,
             "node_hash": pa.array(_hash_large_string(na), pa.uint64()),
             "root_hash": pa.array(_hash_large_string(ra), pa.uint64())}
        )

    merged = _merge_pair_tables(
        [
            pairs([(V + "20", M + "7"), (M + "2", P + "22")]),
            pairs([(M + "7", P + "2"), (M + "9", M + "2"), (V + "4", V + "20")]),
            pairs([(P + "22", P + "0"), (V + "4", M + "9")]),
        ]
    )
    got = dict(zip(merged["node"].to_pylist(), merged["root"].to_pylist()))
    members = [V + "20", M + "7", P + "2", V + "4", M + "9", M + "2", P + "22"]
    assert got == {m: P + "0" for m in members}


def test_registry_index_links_exact_name():
    reg = pd.DataFrame(
        {
            "id": [f"https://pids.geoconnex.dev/s/{i}" for i in range(5)],
            "feature_name": [f"Feature {i}" for i in range(5)],
            "mainstem_uri": ["https://m/1", None, "https://m/3", None, "https://m/5"],
        }
    )
    idx = RegistryIndex(reg)
    pid, ms = idx.link("Feature 2")
    assert pid == "https://pids.geoconnex.dev/s/2" and ms == "https://m/3"
    pid, ms = idx.link("Unknown Thing")
    assert pid is None


def test_spatial_linker_disambiguates_identical_names():
    """Two registry entries share a name; token blocking alone is
    ambiguous — the bbox containment of the feature's geo point picks the
    right one (J1: the join is driven by coordinates)."""
    reg = pd.DataFrame(
        {
            "id": ["https://pids.geoconnex.dev/s/a", "https://pids.geoconnex.dev/s/b"],
            "feature_name": ["Gauge X", "Gauge X"],
            "mainstem_uri": ["https://m/a", "https://m/b"],
            "bbox_xmin": [0.0, 10.0],
            "bbox_ymin": [0.0, 10.0],
            "bbox_xmax": [1.0, 11.0],
            "bbox_ymax": [1.0, 11.0],
        }
    )
    idx = RegistryIndex(reg)
    assert idx.spatial is not None
    names = pd.Series(["Gauge X", "Gauge X"])
    matched, pids, ms = idx.link_spatial_batch(names, [(10.5, 10.5), (0.5, 0.5)])
    assert list(matched) == [True, True]
    assert pids == ["https://pids.geoconnex.dev/s/b", "https://pids.geoconnex.dev/s/a"]
    assert ms == ["https://m/b", "https://m/a"]
    # no coordinates → token fallback (ambiguous name → smallest row wins)
    matched, pids, _ = idx.link_spatial_batch(pd.Series(["Gauge X"]), [None])
    assert matched[0] and pids[0] == "https://pids.geoconnex.dev/s/a"


def test_nearest_flowline_wins_over_matched_row_attribute():
    """J1 geometry-true mainstem (round-4): the mainstem association is
    the feature point's NEAREST flowline among grid candidates — golden
    pair where the matched registry row's own flowline is farther than a
    neighbor's, so the neighbor's mainstem URI wins; out-of-radius points
    fall back to the matched row's attribute (reference
    userCode/defs_test.py:75-80,120-127)."""
    from scheduler_ray.stages.spatial import wkb_polylines

    lvx = np.array([[0.503, 0.503], [0.5005, 0.5005]])
    lvy = np.array([[0.4, 0.6], [0.4, 0.6]])
    fl = wkb_polylines(lvx, lvy)
    reg = pd.DataFrame(
        {
            "id": ["https://pids.geoconnex.dev/s/a", "https://pids.geoconnex.dev/s/b"],
            "feature_name": ["Gauge A", "Gauge B"],
            "mainstem_uri": ["https://m/a", "https://m/b"],
            "bbox_xmin": [0.0, 10.0],
            "bbox_ymin": [0.0, 10.0],
            "bbox_xmax": [1.0, 11.0],
            "bbox_ymax": [1.0, 11.0],
            # row a's flowline sits 0.003 from (0.5, 0.5); row b's only
            # 0.0005 — nearest-wins must pick b's mainstem for a point
            # matched (by bbox+name) to row a
            "flowline_wkb": [fl[0], fl[1]],
        }
    )
    idx = RegistryIndex(reg)
    assert idx.flowlines is not None
    matched, pids, ms = idx.link_spatial_batch(
        pd.Series(["Gauge A", "Gauge B"]), [(0.5, 0.5), (10.5, 10.5)]
    )
    assert list(matched) == [True, True]
    assert pids == ["https://pids.geoconnex.dev/s/a", "https://pids.geoconnex.dev/s/b"]
    # point 1: nearest flowline (row b's) overrides row a's attribute;
    # point 2: no flowline within the grid pad → attribute fallback
    assert ms == ["https://m/b", "https://m/b"]


def test_polyline_store_matches_allpairs_kernel():
    """GridPolylineIndex.nearest (grid-pruned) agrees with the all-pairs
    nearest_polyline kernel wherever the grid yields a candidate."""
    from scheduler_ray.stages.spatial import (
        GridPolylineIndex,
        nearest_polyline,
        wkb_polylines,
    )

    rng = np.random.RandomState(0)
    k = 4
    base = rng.uniform(-5, 5, (12, 1, 2))
    verts = base + rng.uniform(-0.4, 0.4, (12, k, 2)).cumsum(axis=1)
    wkbs = wkb_polylines(verts[:, :, 0], verts[:, :, 1])
    idx = GridPolylineIndex(np.arange(12), wkbs, pad=12.0)  # pad ≫ extent → all candidates
    xs = rng.uniform(-5, 5, 40)
    ys = rng.uniform(-5, 5, 40)
    line, dist = idx.nearest(xs, ys)
    ref_line, ref_dist = nearest_polyline(xs, ys, [v for v in verts])
    assert np.array_equal(line, ref_line)
    np.testing.assert_allclose(dist, ref_dist, rtol=1e-12, atol=1e-12)


def test_link_batch_extracts_geo_points():
    """link_triples_batch resolves the geo blank node batch-locally and
    routes the point into the spatial index."""
    from scheduler_ray.stages.link import _subject_points

    batch = pa.table(
        {
            "subj": pa.array(["f1", "_:f1#b0", "_:f1#b0"], pa.large_string()),
            "pred": pa.array(
                ["schema:geo", "schema:latitude", "schema:longitude"], pa.large_string()
            ),
            "obj": pa.array(["_:f1#b0", "500", "-700"], pa.large_string()),
            "obj_is_literal": pa.array([False, True, True]),
            "graph": pa.array(["s", "s", "s"], pa.large_string()),
        }
    )
    assert _subject_points(batch) == {"f1": (0.5, -0.7)}


def test_entity_linker_gating():
    reg = pd.DataFrame(
        {
            "id": ["https://pids.geoconnex.dev/s/1"],
            "feature_name": ["Feature 1"],
            "mainstem_uri": ["https://m/9"],
        }
    )
    srcs = pd.DataFrame({"source_id": ["on", "off"], "add_associated_mainstems": [True, False]})
    enabled = dict(zip(srcs["source_id"], srcs["add_associated_mainstems"]))
    batch = pa.table(
        {
            "subj": pa.array(["raw1", "raw2"], pa.large_string()),
            "pred": pa.array(["schema:name", "schema:name"], pa.large_string()),
            "obj": pa.array(["Feature 1", "Feature 1"], pa.large_string()),
            "obj_is_literal": pa.array([True, True]),
            "graph": pa.array(["on", "off"], pa.large_string()),
        }
    )
    out = link_triples_batch(batch, RegistryIndex(reg), enabled)
    links = [
        (s, o)
        for s, p, o in zip(
            out["subj"].to_pylist(), out["pred"].to_pylist(), out["obj"].to_pylist()
        )
        if p == "hyf:linearElement"
    ]
    assert links == [("raw1", "https://m/9")]  # gated source emits nothing


def test_extract_exotic_casing_extra_block():
    """Round-3 advice: one literal-cased block + a second block in an
    exotic casing (Ld+Json) must still be detected by the multi-block
    gate and land in extracted_extra; an exotic-cased FIRST block is
    extracted too ((?i) extraction pattern)."""
    two = (
        '<script type="application/ld+json">A</script>'
        '<script type="application/Ld+Json">B</script>'
    )
    exotic_first = '<script type="application/LD+Json">C</script>'
    geojson_noise = (
        '<p>download as application/geo+json</p>'
        '<script type="application/ld+json">D</script>'
    )
    out = extract_jsonld_batch(
        _pages_batch([f"<html>{two}</html>", f"<html>{exotic_first}</html>",
                      f"<html>{geojson_noise}</html>"])
    )
    assert out["extracted"].to_pylist() == ["A", "C", "D"]
    assert out["extracted_extra"].to_pylist() == ['["B"]', None, None]


def test_link_stage_grouped_matches_local_on_straddled_stream(fixture_sf0001):
    """ROADMAP §4: the batch-local geo resolution assumes a document's
    rows are contiguous within one batch.  link_stage_grouped drops that
    assumption (distributed blank-label merge + subject join).  Oracle:
    the fused local path over CONTIGUOUS blocks; the grouped path must
    reproduce its exact triple multiset over a deliberately re-blocked
    stream whose tiny blocks cut documents mid-stride."""
    import ray.data as rd

    from scheduler_ray.pipelines import flagship
    from scheduler_ray.stages.expand import expand_stage
    from scheduler_ray.stages.extract import extract_stage
    from scheduler_ray.stages.link import link_stage, link_stage_grouped

    registry, sources = flagship.load_side_tables(fixture_sf0001)
    pages = flagship.read_pages(fixture_sf0001)
    expanded = expand_stage(extract_stage(pages)).materialize()

    def _set(ds):
        df = ds.to_pandas()
        return set(
            zip(df["subj"], df["pred"], df["obj"], df["obj_is_literal"], df["graph"])
        )

    oracle = _set(link_stage(expanded, registry, sources))
    assert any(p == "hyf:linearElement" for _, p, _, _, _ in oracle)

    # re-block into 7-row tables: geo edges and their coordinate rows land
    # in different blocks for most documents
    whole = pa.concat_tables(
        expanded.iter_batches(batch_size=None, batch_format="pyarrow")
    ).combine_chunks()
    shards = [whole.slice(i, 7) for i in range(0, whole.num_rows, 7)]
    straddled = rd.from_arrow(shards)

    # the local path on the straddled stream loses geo points (silent
    # degradation this test documents); the grouped path must not
    got = _set(link_stage_grouped(straddled, registry, sources))
    assert got == oracle
