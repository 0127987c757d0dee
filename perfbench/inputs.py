"""Seeded inputs for the benchmark, generated through ``scheduler_ray.corpus``.

A workload's input is a documents frame (``doc_id, text, lang, source,
n_chars``; 20 sources × 250 documents per replica) that the seed makes:
the seed picks the words of each text and shifts the amplified ``doc_id``
base, which changes the mix of corpus rule classes (no block, malformed,
sameAs chains, SHACL violations, ...) at the same size.  The program gets
only the pages/registry/sources fixture derived from it by the corpus
functions (``<case>/input``); the documents frame and the triples the
DuckDB oracle expects from it sit beside that, in ``<case>/``.

Cases are cached under the benchmark's work directory, keyed by
(workload, size, seed, variant).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from scheduler_ray import corpus, oracles
from scheduler_ray.stages.link import INDEX_CACHE_NAME, build_or_load_index

N_SOURCES = 20
DOCS_PER_SOURCE = 250
WORDS = (
    "a agg batch big column customer data dup fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream table "
    "the value vector window"
).split()
LANGS = ("en", "en", "en", "de", "es", "fr", "zh")
#: most fixtures kept on disk; older ones are evicted
MAX_CACHED = 6


def documents(seed: int, replicas: int, docs_per_source: int = DOCS_PER_SOURCE) -> pd.DataFrame:
    """The seeded documents frame: ``replicas`` copies of a base table of
    ``N_SOURCES * docs_per_source`` documents, amplified with
    ``corpus.amplify_documents`` and shifted by a seed-chosen doc_id base."""
    rng = np.random.default_rng(seed)
    n = N_SOURCES * docs_per_source
    n_words = rng.integers(10, 101, n)
    texts = [" ".join(rng.choice(WORDS, k)) for k in n_words]
    base = pd.DataFrame(
        {
            "doc_id": np.arange(n, dtype=np.int64),
            "text": texts,
            "lang": rng.choice(LANGS, n),
            "source": [f"src{i % N_SOURCES}" for i in range(n)],
        }
    )
    base["n_chars"] = base["text"].str.len().astype(np.int64)
    docs = corpus.amplify_documents(base, replicas)
    # the shift stays below the replica stride, so doc_ids stay disjoint
    offset = int(rng.integers(0, corpus.AMPLIFY_STRIDE - n))
    docs["doc_id"] = docs["doc_id"] + offset
    return docs


def revised(docs: pd.DataFrame, changed: list[str]) -> pd.DataFrame:
    """The documents of ``changed`` sources with a body edit: ``text`` is
    rendered outside the ld+json blocks and ``n_chars`` is kept, so the
    pages' html changes while their triples do not."""
    out = docs.copy()
    hit = out["source"].isin(changed)
    out.loc[hit, "text"] = out.loc[hit, "text"] + " revised"
    return out


def write_fixture(docs: pd.DataFrame, out: str, rows_per_file: int = 5000) -> None:
    """pages/ + registry.parquet + sources.parquet + the registry index
    cache, the layout ``flagship.run_flagship`` reads."""
    os.makedirs(os.path.join(out, "pages"), exist_ok=True)
    corpus.registry_from_documents(docs).to_parquet(
        os.path.join(out, "registry.parquet"), index=False
    )
    corpus.sources_config(docs["source"]).to_parquet(
        os.path.join(out, "sources.parquet"), index=False
    )
    for i, lo in enumerate(range(0, len(docs), rows_per_file)):
        pages = corpus.pages_from_documents(docs.iloc[lo : lo + rows_per_file])
        tbl = pa.Table.from_pandas(pages, preserve_index=False).replace_schema_metadata(None)
        pq.write_table(tbl, os.path.join(out, "pages", f"part-{i:05d}.parquet"))
    build_or_load_index(
        os.path.join(out, "registry.parquet"), os.path.join(out, INDEX_CACHE_NAME)
    )


def _evict(root: str, keep: str) -> None:
    dirs = [
        os.path.join(root, d)
        for d in os.listdir(root)
        if os.path.exists(os.path.join(root, d, "_COMPLETE"))
    ]
    dirs.sort(key=lambda d: os.path.getmtime(os.path.join(d, "_COMPLETE")))
    for d in dirs[: max(0, len(dirs) - MAX_CACHED)]:
        if d != keep:
            shutil.rmtree(d, ignore_errors=True)


def fixture(
    work: str, workload: str, seed: int, replicas: int, docs_per_source: int,
    changed: list[str] | None = None,
) -> str:
    """The cached case dir for (workload, size, seed[, changed sources]):
    the program's fixture in ``input/``, ``documents.parquet`` and the
    oracle's ``expected.parquet``."""
    root = os.path.join(work, "fixtures")
    tag = f"{workload}_n{N_SOURCES * docs_per_source * replicas}_s{seed}"
    if changed:
        tag += "_rev-" + "-".join(changed)
    out = os.path.join(root, tag)
    done = os.path.join(out, "_COMPLETE")
    if not os.path.exists(done):
        # in a child process, so that generating the case leaves nothing
        # in this process's memory
        args = [out, seed, replicas, docs_per_source, *(changed or [])]
        subprocess.run(
            [sys.executable, "-m", "perfbench.inputs", *map(str, args)],
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            check=True,
        )
    os.utime(done)
    _evict(root, out)
    return out


def _write_case(
    out: str, seed: int, replicas: int, docs_per_source: int, changed: list[str] | None
) -> None:
    shutil.rmtree(out, ignore_errors=True)
    docs = documents(seed, replicas, docs_per_source)
    if changed:
        docs = revised(docs, changed)
    write_fixture(docs, os.path.join(out, "input"))
    docs.to_parquet(os.path.join(out, "documents.parquet"), index=False)
    write_expected(docs, os.path.join(out, EXPECTED))
    with open(os.path.join(out, "_COMPLETE"), "w") as f:
        f.write("ok")


def load_documents(case: str, columns: list[str] | None = None) -> pd.DataFrame:
    return pq.read_table(os.path.join(case, "documents.parquet"), columns=columns).to_pandas()


EXPECTED = "expected.parquet"
COLS = "subj, pred, obj, obj_is_literal, graph"


def write_expected(docs: pd.DataFrame, path: str) -> None:
    """The triples ``oracles.CANONICAL_TRIPLES_SQL`` expects from ``docs``."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("documents", docs)
        con.execute(
            f"COPY (SELECT {COLS} FROM ({oracles.CANONICAL_TRIPLES_SQL})) "
            f"TO '{path}' (FORMAT PARQUET)"
        )
    finally:
        con.close()


def n_expected(case: str) -> int:
    return pq.read_metadata(os.path.join(case, EXPECTED)).num_rows


def mismatch(case: str, got: pa.Table) -> str | None:
    """None when ``got`` equals the case's expected triples as a multiset
    (``EXCEPT ALL`` both ways), else a one-line reason.  The DuckDB
    connection lives only for the comparison."""
    import duckdb

    con = duckdb.connect()
    try:
        con.execute(
            "CREATE VIEW expected AS SELECT * FROM read_parquet("
            f"'{os.path.join(case, EXPECTED)}')"
        )
        con.register("got", got)
        extra, missing = (
            con.execute(
                f"SELECT COUNT(*) FROM (SELECT {COLS} FROM {a} "
                f"EXCEPT ALL SELECT {COLS} FROM {b})"
            ).fetchone()[0]
            for a, b in (("got", "expected"), ("expected", "got"))
        )
    finally:
        con.close()
    if extra or missing:
        return (
            f"triples differ from the oracle: {extra} unexpected, {missing} missing "
            f"(got {got.num_rows}, expected {n_expected(case)})"
        )
    return None


if __name__ == "__main__":
    # python3 -m perfbench.inputs <case dir> <seed> <replicas> <docs per source> [changed ...]
    _write_case(sys.argv[1], *map(int, sys.argv[2:5]), sys.argv[5:] or None)
