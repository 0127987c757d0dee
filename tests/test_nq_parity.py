"""Golden n-quads format parity with the reference release graphs.

Mirrors reference userCode/defs_test.py:55-130: gzip-decode a release
file, assert the exact full-IRI linearElement substring, check every line
against the N-Quads grammar, and run the 3-hop
referencedPosition/HY_IndirectPosition/linearElement join (the SPARQL
pattern the reference asserts) against the analytic golden pid→mainstem
pairs.
"""

from __future__ import annotations

import gzip
import os
import re

import duckdb
import pandas as pd
import pyarrow as pa
import ray.data as rd
from hypothesis import given, settings
from hypothesis import strategies as st

from scheduler_ray import oracles
from scheduler_ray.pipelines import flagship
from scheduler_ray.sources import nq

#: one N-Quads statement: 3 terms + graph + ' .'
_NQ_LINE = re.compile(
    r"^(?P<s><[^>]+>|_:\S+) (?P<p><[^>]+>) "
    r"(?P<o><[^>]+>|_:\S+|\"(?:[^\"\\]|\\.)*\"(?:@[A-Za-z-]+|\^\^<[^>]+>)?) "
    r"(?P<g><[^>]+>) \.$"
)

HYF = "https://www.opengis.net/def/schema/hy_features/hyf/"


def _golden_pairs(sf_dir: str) -> dict[str, str]:
    con = duckdb.connect()
    con.sql(f"CREATE VIEW documents AS SELECT * FROM '{sf_dir}/documents.parquet'")
    df = con.sql(oracles.ENTITY_LINK_SQL).df()
    return dict(zip(df["subj"], df["mainstem_uri"]))


def test_release_nq_golden_format(fixture_sf0001, tmp_out):
    canon = flagship.run_flagship(fixture_sf0001).materialize()
    nq.write_release_graphs(canon, tmp_out, hyf_structural=True)
    graphs_dir = os.path.join(tmp_out, "graphs", "latest")
    files = sorted(f for f in os.listdir(graphs_dir) if not f.endswith(".bytesum"))
    assert files and all(f.endswith("_release.nq.gz") for f in files)
    # every release graph carries its .bytesum sidecar (pull contract)
    assert all(os.path.exists(os.path.join(graphs_dir, f + ".bytesum")) for f in files)

    text = ""
    for f in files:
        with gzip.open(os.path.join(graphs_dir, f), "rt") as fh:
            text += fh.read()
    lines = [ln for ln in text.splitlines() if ln]
    # every line satisfies the N-Quads grammar
    for ln in lines:
        assert _NQ_LINE.match(ln), ln
    # the reference's byte-asserted substring shape (defs_test.py:75-80)
    assert f"<{HYF}linearElement> <https://reference.geoconnex.us/collections/mainstems/items/" in text

    # 3-hop join ≡ the reference's SPARQL pattern (defs_test.py:104-130)
    ref_pos: dict[str, str] = {}
    ind_pos: dict[str, str] = {}
    linear: dict[str, str] = {}
    for ln in lines:
        m = _NQ_LINE.match(ln)
        s, p, o = m.group("s"), m.group("p")[1:-1], m.group("o")
        if p == f"{HYF}referencedPosition":
            ref_pos[s[1:-1]] = o
        elif p == f"{HYF}HY_IndirectPosition":
            ind_pos[s] = o
        elif p == f"{HYF}linearElement":
            linear[s] = o[1:-1]
    got = {
        pid: linear[ind_pos[rp]]
        for pid, rp in ref_pos.items()
        if rp in ind_pos and ind_pos[rp] in linear
    }
    want = _golden_pairs("/root/testdata/sf0.001")
    assert got == want and len(want) > 0
    # typed + language-tagged literals appear in proper N-Quads syntax
    assert '"2026-01-17"^^<schema:Date>' in text or '"2026-01-17"^^<https://schema.org/Date>' in text
    assert re.search(r'"Fluss \d+"@de', text)


def _render(rows, hyf_structural=False) -> list[str]:
    g = pd.DataFrame(rows, columns=["subj", "pred", "obj", "obj_is_literal"])
    return nq.render_quads(pa.Table.from_pandas(g), "<urn:graph:s>", hyf_structural).to_pylist()


def _scalar(rows, hyf_structural=False) -> list[str]:
    return [
        "\n".join(nq._mainstem_structural_lines(s, o, "<urn:graph:s>"))
        if hyf_structural and p == "hyf:linearElement"
        else nq.triple_to_nq(s, p, o, lit, "s")
        for s, p, o, lit in rows
    ]


def test_render_quads_vectorized_matches_scalar():
    """The vectorized renderer must be byte-identical to triple_to_nq on
    every literal flavor (typed, language-tagged incl. '@' in lex, plain
    with escapes, IRIs containing '^^'-free CURIEs)."""
    rows = [
        ("https://a/1", "schema:name", 'he said "hi"\nand \\ left', True),
        ("hyf:X", "rdf:type", "hyf:HY_HydroLocation", False),
        ("https://a/1", "schema:dateCreated", "2026-01-17^^schema:Date", True),
        ("https://a/1", "schema:alternateName", "Fluss 7@de", True),
        ("https://a/1", "schema:note", "a@b@de-DE", True),
        ("https://a/1", "schema:note", "user@example.com is not a lang", True),
        ("https://a/1", "owl:sameAs", "https://b/2", False),
        ("_:blank1", "rdf:first", "p", True),
        # a tag followed by a newline is no tag: one plain literal, and
        # its newline escaped (no raw newline inside an N-Quads line)
        ("https://a/1", "schema:note", "x@de\n", True),
    ]
    assert _render(rows) == _scalar(rows)
    assert _scalar(rows[-1:])[0].endswith(' <https://schema.org/note> "x@de\\n" <urn:graph:s> .')
    # structural re-expansion matches the scalar helper
    rows2 = [("https://pid/1", "hyf:linearElement", "https://ms/2", False)]
    assert _render(rows2, hyf_structural=True) == [
        "\n".join(nq._mainstem_structural_lines("https://pid/1", "https://ms/2", "<urn:graph:s>"))
    ]


#: text over the characters the renderer treats specially, plus letters,
#: digits (ASCII and not) and other non-ASCII characters
_text = st.text(
    st.one_of(
        st.sampled_from('@^"\\\n-:'),
        st.sampled_from("azAZdeEN09"),
        st.characters(whitelist_categories=("Lu", "Ll", "Nd", "So")),
    ),
    max_size=10,
)
_term = st.one_of(_text, st.builds(str.__add__, st.sampled_from(list(nq.PREFIXES)), _text))
_tag = st.from_regex(r"[A-Za-z0-9-]{0,10}", fullmatch=True)
#: encoded literals: lex, then "^^datatype", "@tag" (maybe with a tail
#: that makes it no tag) or nothing
_obj = st.one_of(
    _term,
    st.builds(lambda lex, dt: f"{lex}^^{dt}", _text, _term),
    st.builds(lambda *p: "{}@{}{}".format(*p), _text, _tag, st.sampled_from(["", "\n", "@"])),
)
_pred = st.one_of(_term, st.just("hyf:linearElement"))
_rows = st.lists(st.tuples(_term, _pred, _obj, st.booleans()), min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(_rows, st.booleans())
def test_render_quads_property(rows, hyf_structural):
    """The Arrow renderer equals triple_to_nq (or the structural block)
    row for row, whatever the strings hold."""
    assert _render(rows, hyf_structural) == _scalar(rows, hyf_structural)


def test_bytesum_sidecars_and_incremental_pull(fixture_sf0001, tmp_out):
    """Reference pull contract (defs_test.py:86-98): every release graph
    gets a .bytesum sidecar; a re-pull with unchanged content transfers
    nothing (destination mtimes unchanged); a changed graph re-pulls."""
    import time

    canon = flagship.run_flagship(fixture_sf0001).materialize()
    nq.write_release_graphs(canon, tmp_out)
    graphs_dir = os.path.join(tmp_out, "graphs", "latest")
    gz_files = [f for f in os.listdir(graphs_dir) if f.endswith(".nq.gz")]
    assert gz_files
    for f in gz_files:
        assert os.path.exists(os.path.join(graphs_dir, f + ".bytesum"))

    dest = os.path.join(tmp_out, "pulled")
    first = nq.pull_release_graphs(graphs_dir, dest)
    assert set(first["action"]) == {"pulled"}
    mtimes = {f: os.path.getmtime(os.path.join(dest, f)) for f in first["file"]}
    time.sleep(0.05)
    second = nq.pull_release_graphs(graphs_dir, dest)
    assert set(second["action"]) == {"skipped"}
    assert all(os.path.getmtime(os.path.join(dest, f)) == mtimes[f] for f in second["file"])

    # mutate one source's graph → only that file re-pulls
    victim = sorted(gz_files)[0]
    with open(os.path.join(graphs_dir, victim), "ab") as fh:
        quad = pa.array(["<urn:a> <urn:b> <urn:c> <urn:g> ."], pa.large_string())
        fh.write(nq._gzip_lines(quad)[0])
    with open(os.path.join(graphs_dir, victim), "rb") as fh:
        new_sum = nq._bytesum(fh.read())
    with open(os.path.join(graphs_dir, victim + ".bytesum"), "w") as fh:
        fh.write(new_sum)
    third = nq.pull_release_graphs(graphs_dir, dest)
    actions = dict(zip(third["file"], third["action"]))
    assert actions[victim] == "pulled"
    assert all(a == "skipped" for f, a in actions.items() if f != victim)


def test_release_bytes_independent_of_block_layout(tmp_out):
    """Each source's .gz and .bytesum are the same bytes whether its
    triples come as one block, as seven, or in reversed row order —
    including two quads that tie on (pred, subj, obj) and differ only in
    obj_is_literal."""
    from scheduler_ray.stages.expand import TRIPLE_SCHEMA

    preds = ["schema:name", "rdf:type", "schema:note"]
    rows = [
        (f"https://f/{i % 11}", preds[i % 3], f"v{i % 17}", i % 2 == 0, f"src{i % 4}")
        for i in range(200)
    ]
    rows += [("https://f/tie", "schema:url", "https://u/1", lit, "src1") for lit in (True, False)]
    t = pa.Table.from_pylist([dict(zip(TRIPLE_SCHEMA.names, r)) for r in rows], TRIPLE_SCHEMA)
    layouts = {
        "one": rd.from_arrow(t),
        "seven": rd.from_arrow([t.slice(i, 29) for i in range(0, t.num_rows, 29)]),
        "reversed": rd.from_arrow(t.take(list(range(t.num_rows))[::-1])),
    }
    files = {}
    for name, ds in layouts.items():
        out = nq.write_release_graphs(ds, os.path.join(tmp_out, name))
        assert list(out["source"]) == [f"src{i}" for i in range(4)]
        graphs = os.path.join(tmp_out, name, "graphs", "latest")
        files[name] = {f: open(os.path.join(graphs, f), "rb").read() for f in os.listdir(graphs)}
    assert len(files["one"]) == 8
    assert files["one"] == files["seven"] == files["reversed"]
