"""Checkpointed, resumable flagship run (north_rule: per-partition lineage
manifests + metrics; resume skips unchanged partitions).

Partition unit = source (the reference's sitemap partition — one release
graph per source, reference release_graph_generator.py:31-83).  Flow:

1. cheap metadata pass over pages (url + html — column-pruned read):
   per-source row count + order-insensitive 64-bit input hash, from one
   plain task per page file (no Ray Data execution);
2. compare against stored manifests → pending partitions;
3. run the flagship pipeline on ONLY the pending pages: an Arrow filter
   of each page batch on its derived ``source`` (``pc.is_in`` over the
   pending set; no shuffle, page schema unchanged);
4. commit in ONE pass over the canonical triples: each block writes its
   rows of each source to a content-named
   ``data/graph=<source>/part-<stem>.parquet`` beside the source's old
   files and hashes them; then, per pending source, the manifest
   (atomic, last) with {input_hash, rows_in, triples_out, content_hash,
   files}, and only after it the deletion of the source's unlisted
   files.  A crash anywhere leaves each source's old manifest and old
   files, or its new ones: :func:`read_output` reads only listed files.

Both hashes are order-insensitive sums of per-row 32-bit hashes, so
reruns of unchanged input compare equal without sorting the rows.  Each
block emits one ``(key, n, hash_sum)`` partial row per source, summed
by ``segments.agg_kernel``'s ``apply`` (the scan: one per page-file
task); the driver gathers the partials and finishes them with the same
``apply``: no exchange runs.
"""

from __future__ import annotations

import os
from urllib.parse import quote

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data import Dataset

from ..config import PipelineConfig
from ..stages.extract import derive_source_batch
from ..stages.link import INDEX_CACHE_NAME
from ..stages.segments import agg_kernel
from ..state import manifest as mf
from ..state.fs import LocalFS
from . import flagship
from .streaming import _content_stem


def _hash_col(a: pa.ChunkedArray) -> np.ndarray:
    """Per-row 32-bit content hashes as int64 — summable across millions of
    rows without int64 overflow (order-insensitive change detection)."""
    h = pd.util.hash_array(a.to_numpy(zero_copy_only=False).astype(object))
    return (h & np.uint64(0xFFFFFFFF)).astype(np.int64)


def _sums(key: str, t: pa.Table) -> pa.Table:
    """``(key, n, hash_sum)`` per non-null ``key``, key-sorted: the sums
    of ``t``'s ``n`` and ``hash_sum`` columns by ``agg_kernel``'s
    ``apply``, run on each block and again on the driver."""
    apply = agg_kernel([key], {"n": "sum", "hash_sum": "sum"})[2]
    return apply(t.filter(pc.is_valid(t[key])), None, False)


def _fold(parts, key: str) -> dict:
    """``{key value: (n, hash_sum)}``: the driver's finish of per-block
    partials.  Empty blocks (zero-column ones, which a map passes through
    without calling its function, included) are skipped."""
    parts = [p.select([key, "n", "hash_sum"]) for p in parts if p.num_rows]
    if not parts:
        return {}
    t = _sums(key, pa.concat_tables(parts))
    return {k: (n, h) for k, n, h in zip(*(t[c].to_pylist() for c in (key, "n", "hash_sum")))}


def _streamed(ds: Dataset, fn, *args):
    """Stream ``fn(block, *args)`` over ``ds``'s whole blocks back to the
    driver."""
    out = ds.map_batches(
        fn, fn_args=args, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return out.iter_batches(batch_size=None, batch_format="pyarrow")


def _scan_block(t: pa.Table) -> pa.Table:
    t = derive_source_batch(t)
    h = (_hash_col(t["url"]) ^ (_hash_col(t["html"]) << 1)) & 0xFFFFFFFF
    return _sums("source", pa.table({"source": t["source"], "hash_sum": h, "n": np.ones_like(h)}))


@ray.remote
def _scan_file(path: str) -> pa.Table:
    """One ``(source, n, hash_sum)`` partial over the pages of ``path``:
    each row group's (url, html) columns go through :func:`_scan_block`."""
    f = pq.ParquetFile(path)
    parts = [
        _scan_block(f.read_row_group(g, columns=flagship.PAGE_COLUMNS))
        for g in range(f.num_row_groups)
    ]
    parts = [p for p in parts if p.num_rows]
    return _sums("source", pa.concat_tables(parts)) if parts else pa.table({})


def input_summary(fixture_dir: str) -> pd.DataFrame:
    """Per-source (n_pages, input_hash) from a (url, html)-pruned scan.

    The hash folds in the page *content* (html bytes), not just the url
    set, so a re-crawl that changes a page body under an unchanged url
    invalidates the partition — true ``.bytesum`` content-hash semantics
    (reference userCode/defs_test.py:86-98), per ADVICE r1.  A page whose
    url yields no source belongs to no partition.

    The page files are discovered as Ray Data's parquet reader finds them
    (pyarrow dataset discovery: subdirectories included, ``_``- and
    ``.``-prefixed names skipped).  One plain task per page file returns
    one partial, and the driver folds the partials: a metadata-sized
    result needs no streaming executor.
    """
    files = pq.ParquetDataset(f"{fixture_dir}/pages").files
    sums = _fold(ray.get([_scan_file.remote(f) for f in files]), "source")
    return pd.DataFrame(
        [(src, n, str(h)) for src, (n, h) in sums.items()],
        columns=["source", "n_pages", "input_hash"],
    ).astype({"n_pages": "int64"})


def _commit_block(t: pa.Table, data_dir: str) -> pa.Table:
    """Write each source's rows of the block to a content-named file in
    its hive dir (through ``LocalFS``: tmp + rename) and return their
    ``(graph, n, hash_sum, file)`` partials, ``file`` relative to
    ``data_dir``."""
    h = (
        _hash_col(t["subj"]) ^ (_hash_col(t["pred"]) << 1) ^ (_hash_col(t["obj"]) << 2)
    ) & 0xFFFFFFFF
    part = _sums("graph", pa.table({"graph": t["graph"], "hash_sum": h, "n": np.ones_like(h)}))
    files = []
    for g in part["graph"].to_pylist():
        rows = t.filter(pc.equal(t["graph"], g))
        files.append(f"graph={quote(g, safe='')}/part-{_content_stem(rows)}.parquet")
        LocalFS().put_table(rows.drop_columns(["graph"]), os.path.join(data_dir, files[-1]))
    return part.append_column("file", pa.array(files, pa.string()))


def run_checkpointed(
    fixture_dir: str,
    out_dir: str,
    cfg: PipelineConfig | None = None,
) -> dict:
    """Run (or resume) the flagship pipeline with per-partition manifests.

    Returns a summary {"completed": [...], "skipped": [...], "failed": []}.
    Two sources whose partition ids sanitize alike raise ``ValueError``
    before anything is written.
    """
    cfg = cfg or PipelineConfig()
    summary = input_summary(fixture_dir)
    hashes = dict(zip(summary["source"], summary["input_hash"]))
    # two sources with one sanitized id would share one manifest
    ids: dict[str, str] = {}
    for src in sorted(hashes):
        pid = mf.sanitize_partition_id(src)
        if ids.setdefault(pid, src) != src:
            raise ValueError(f"sources {ids[pid]!r} and {src!r} share the partition id {pid!r}")
    os.makedirs(out_dir, exist_ok=True)
    rows_in = dict(zip(summary["source"], summary["n_pages"]))
    done = mf.completed_partitions(out_dir, hashes)
    pending = [s for s in sorted(hashes) if s not in done]
    if not pending:
        return {"completed": [], "skipped": sorted(done), "failed": []}

    registry, sources = flagship.link_tables(fixture_dir)
    pages = flagship.read_pages(fixture_dir)
    pending_set = pa.array(pending)

    def only_pending(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(derive_source_batch(b)["source"], value_set=pending_set))

    pages = pages.map_batches(only_pending, batch_format="pyarrow", batch_size=None)
    canon = flagship.canonical_triples(
        pages, registry, sources, cfg,
        index_cache_path=f"{fixture_dir}/{INDEX_CACHE_NAME}",
    )
    # the per-source files, triple counts and content hashes in one pass
    data_dir = os.path.join(out_dir, "data")
    parts = [p for p in _streamed(canon, _commit_block, data_dir) if p.num_rows]
    if parts:
        # blocks of equal content write one file and equal partials: count
        # it once.  Unequal partials under one name mean a stem collision
        parts = [pa.concat_tables(parts).group_by(parts[0].column_names).aggregate([])]
        if len(set(parts[0]["file"].to_pylist())) < parts[0].num_rows:
            raise RuntimeError("two different triple sets share a content-named file")
    stats = _fold(parts, "graph")
    files: dict[str, list[str]] = {}
    for p in parts:
        for g, f in zip(p["graph"].to_pylist(), p["file"].to_pylist()):
            files.setdefault(g, []).append(f)
    completed = []
    for src in pending:
        # a source whose pages all had no/invalid JSON-LD still completes
        # — with zero triples and no files (exit-3-non-fatal semantics)
        n, h = stats.get(src, (0, 0))
        live = sorted(files.get(src, []))
        mf.write_manifest(
            out_dir,
            src,
            {
                "input_hash": hashes[src],
                "rows_in": int(rows_in[src]),
                "triples_out": int(n),
                "content_hash": str(h),
                "files": live,
            },
        )
        # only now are the source's superseded (or crashed-run) files gone
        gdir = f"graph={quote(src, safe='')}"
        for f in LocalFS().list(os.path.join(data_dir, gdir), suffix=".parquet"):
            if f"{gdir}/{os.path.basename(f)}" not in live:
                os.remove(f)
        completed.append(src)
    return {"completed": completed, "skipped": sorted(done), "failed": []}


def committed_sources(out_dir: str) -> set[str]:
    """Partitions with a committed manifest (sanitized ids — the
    manifest file names)."""
    mdir = os.path.join(out_dir, "manifests")
    if not os.path.isdir(mdir):
        return set()
    return {f[: -len(".json")] for f in os.listdir(mdir) if f.endswith(".json")}


def read_output(out_dir: str) -> Dataset:
    """Manifest-gated read: exactly the files the committed manifests
    list, with the ``graph`` column from their hive dirs.  Files a
    rebuild writes beside a source's listed ones, before its manifest
    moves, are invisible; so is any other unlisted file (a stray
    ``graph=`` dir, garbage of a crashed run) and a manifest written
    before manifests listed files, until its source is rebuilt.  Reading
    ``data/`` directly with Ray Data's parquet reader bypasses this gate."""
    data_dir = os.path.join(out_dir, "data")
    files = [
        os.path.join(data_dir, f)
        for src in sorted(committed_sources(out_dir))
        for f in mf.load_manifest(out_dir, src).get("files", [])
    ]
    if not files:
        from ..stages.expand import TRIPLE_SCHEMA

        return rd.from_arrow(TRIPLE_SCHEMA.empty_table())
    return rd.read_parquet(files)
