"""The flagship KG-construction pipeline (SURVEY.md §3.4).

One Ray Data program replacing the reference's three Dagster jobs
(setup_config → harvest → release → export, reference userCode/defs.py):

    read_parquet(pages)
      → extract_stage          (M1/M4: byte-identical JSON-LD per url)
      → expand_stage           (M3: JSON-LD → (subj,pred,obj,lit,graph))
      → link_stage             (J1/J2: broadcast PID registry)

then, with an ``out_dir``, ONE streaming pass (pipelines/streaming.py):
per-block local sameAs canonicalization + dedup + (pred, subj)-sorted
hive write, a worker-side pair merge into the global LUT, a fixup of only
the files a cross-batch chain touches, and the ``_MANIFEST.json`` commit.
Without an ``out_dir`` the two-pass path runs:

      → materialize()
      → collect_sameas_edges   (D4: per-batch union-find combiner)
      → lut_ref_from_edges     (worker-side pair merge → LUT ObjectRef)
      → canonicalize_stage     (A1: broadcast vectorized rewrite + D5
                                local pre-dedup)

The triple stream is consumed twice (once to collect the sameAs edge
summary, once to rewrite), so it is materialized in the object store
between expansion and rewrite.  Above ``cfg.canon_broadcast_max_pairs``
the rewrite runs as ``canonicalize_stage_joined`` instead (distributed
CC + two partitioned joins).
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data import Dataset

from ..config import PipelineConfig
from ..stages.canonicalize import canonicalize_stage
from ..stages.expand import expand_stage
from ..stages.extract import extract_stage
from ..stages.link import INDEX_CACHE_NAME, link_stage

PAGE_COLUMNS = ["url", "html"]  # prune at the read: warc_ts/text/lang unused here


def raw_triples(
    pages: Dataset,
    registry: pd.DataFrame,
    sources: pd.DataFrame,
    index_cache_path: str | None = None,
) -> Dataset:
    """pages → linked (pre-canonicalization) triples."""
    tri = expand_stage(extract_stage(pages))
    return link_stage(tri, registry, sources, index_cache_path=index_cache_path)


def canonical_triples(
    pages: Dataset,
    registry: pd.DataFrame,
    sources: pd.DataFrame,
    cfg: PipelineConfig | None = None,
    index_cache_path: str | None = None,
) -> Dataset:
    """pages → canonical deduped triples (unsorted; sort happens at write)."""
    cfg = (cfg or PipelineConfig()).validate()
    tri = raw_triples(pages, registry, sources, index_cache_path).materialize()
    # one combiner pass compresses the alias pairs to a (tiny,
    # materialized) edge Dataset; its row count — free metadata — drives
    # the broadcast-vs-joined switch (ROADMAP §2): above
    # cfg.canon_broadcast_max_pairs no single plasma object could hold the
    # LUT, so the rewrite runs as distributed CC + two partitioned joins.
    # (imported here, not at module level, so the module attributes are
    # looked up at call time)
    from ..stages.canonicalize import canonicalize_stage_joined, collect_sameas_edges, lut_ref_from_edges

    edges = collect_sameas_edges(tri)
    n_pairs = edges.count()
    if cfg.canon_broadcast_max_pairs and n_pairs > cfg.canon_broadcast_max_pairs:
        return canonicalize_stage_joined(tri, edges)
    # worker-side merge → remote LUT build; only the ObjectRef comes
    # back (the driver never holds the mapping bytes)
    return canonicalize_stage(tri, lut_ref_from_edges(edges))


def read_pages(fixture_dir: str, columns: list[str] | None = None) -> Dataset:
    return rd.read_parquet(f"{fixture_dir}/pages", columns=columns or PAGE_COLUMNS)


def load_side_tables(fixture_dir: str) -> tuple[pd.DataFrame, pd.DataFrame]:
    registry = pq.read_table(f"{fixture_dir}/registry.parquet").to_pandas()
    sources = pq.read_table(f"{fixture_dir}/sources.parquet").to_pandas()
    return registry, sources


def load_sources_only(fixture_dir: str) -> pd.DataFrame:
    return pq.read_table(f"{fixture_dir}/sources.parquet").to_pandas()


def link_tables(fixture_dir: str) -> "tuple[str | pd.DataFrame, pd.DataFrame]":
    """``(registry, sources)`` for ``link_stage``: with a warm index cache
    the (possibly huge) registry frame is never loaded — the registry's
    parquet path goes straight to the cache check."""
    if os.path.exists(f"{fixture_dir}/{INDEX_CACHE_NAME}"):
        return f"{fixture_dir}/registry.parquet", load_sources_only(fixture_dir)
    return load_side_tables(fixture_dir)


def read_graph(out_dir: str, fs=None) -> Dataset:
    """Read a committed graph back with the exact TRIPLE_SCHEMA dtypes.

    Only the files the commit manifest names are read — uncommitted
    garbage from a crashed fixup/compaction window (old + new file both
    on disk) is invisible, matching the writer's commit protocol.  A dir
    without ``_MANIFEST.json`` holds no committed graph and raises
    ``FileNotFoundError``.  The ``pred`` hive value is reconstructed from
    each file's path (explicit file lists bypass pyarrow's hive
    inference).

    ``fs`` selects the filesystem seam the graph was written through
    (default LocalFS): the commit manifest is read via the seam, and an
    ``FsspecFS`` routes the parquet reads through the corresponding
    pyarrow filesystem — the full write→commit→read round trip runs on
    a pure object store with no local-path assumption."""
    from ..stages.expand import TRIPLE_SCHEMA
    from ..state.fs import LocalFS, read_commit_manifest

    fs = fs or LocalFS()
    man = read_commit_manifest(fs, out_dir)
    # write_commit_manifest lists each file once, even when two blocks of
    # identical content shared a stem
    paths = [os.path.join(out_dir, f) for f in man["files"]]
    if not paths:
        return rd.from_arrow(TRIPLE_SCHEMA.empty_table())
    # Manifest-driven DIRECT read: the commit manifest already names every
    # live file, so there is nothing for Ray's parquet datasource to
    # discover — its per-fragment stat + footer prefetch + sampling costs
    # ~0.5 ms/file ON THE DRIVER (seconds at thousands of files; at 100-TB
    # output scale, millions of files, it would be the bottleneck of every
    # downstream read).  Instead the file list is sharded into groups and
    # each read task opens its own files with pyarrow directly; the hive
    # pred value is reconstructed from each file's directory name.
    group = 32
    shards = [paths[i : i + group] for i in range(0, len(paths), group)]
    seam = fs

    def read_shard(b: pa.Table):
        from urllib.parse import unquote

        import os as _os

        import pyarrow.parquet as pq

        from ..state.fs import FsspecFS as _F

        shard_fs = None
        if isinstance(seam, _F):
            from pyarrow.fs import FSSpecHandler, PyFileSystem

            shard_fs = PyFileSystem(FSSpecHandler(seam.fs))
        for group_paths in b["paths"].to_pylist():
            parts = []
            for p in group_paths:
                t = pq.read_table(p, filesystem=shard_fs)
                hive = _os.path.basename(_os.path.dirname(p))
                if "pred" not in t.column_names and hive.startswith("pred="):
                    pred = pa.array(
                        [unquote(hive[len("pred="):])] * t.num_rows,
                        pa.large_string(),
                    )
                    t = t.append_column("pred", pred)
                parts.append(t.select(list(TRIPLE_SCHEMA.names)).cast(TRIPLE_SCHEMA))
            if parts:
                yield pa.concat_tables(parts)

    return rd.from_items(
        [{"paths": s} for s in shards], override_num_blocks=len(shards)
    ).map_batches(
        read_shard, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def run_flagship(
    fixture_dir: str,
    out_dir: str | None = None,
    cfg: PipelineConfig | None = None,
    index_ref: "ray.ObjectRef | None" = None,
) -> Dataset:
    """End-to-end: fixture dir → canonical triples (written if out_dir).

    With an ``out_dir`` the job runs the SINGLE-PASS streaming
    materialize (pipelines/streaming.py): local canonicalization fused
    into the main pass, direct per-block (pred, subj)-sorted hive writes,
    global merge + fixup only where cross-batch chains land, and the
    manifest commit; the committed graph is read back.  A total
    (pred, subj) order is ``read_graph(out_dir).sort(["pred", "subj"])``.
    Without an ``out_dir`` the two-pass Dataset is returned unwritten.

    ``index_ref``: an already-broadcast ``RegistryIndex`` ObjectRef (ST1
    steady state — see link_stage); skips the per-job index load/put.
    """
    cfg = (cfg or PipelineConfig()).validate()
    cache = f"{fixture_dir}/{INDEX_CACHE_NAME}"
    registry, sources = link_tables(fixture_dir)
    if index_ref is not None:
        registry = index_ref
    pages = read_pages(fixture_dir)

    if out_dir:
        from .streaming import write_canonical_single_pass

        raw = raw_triples(pages, registry, sources, cache)
        write_canonical_single_pass(
            raw, out_dir,
            # the same broadcast ceiling the two-pass canonical path uses:
            # past it the writer's fixup runs as a distributed second pass
            # instead of merging one plasma LUT (ROADMAP §2)
            lut_max_pairs=cfg.canon_broadcast_max_pairs or None,
        )
        return read_graph(out_dir)

    return canonical_triples(
        pages, registry, sources, cfg,
        index_cache_path=cache,
    )
