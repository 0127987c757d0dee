"""Single-pass streaming materialize of the canonical graph.

The two-pass flagship (materialize raw triples → collect global sameAs
mapping → rewrite) pays a full object-store round-trip plus a second
executor run.  At 100 TB the raw triple set should never be resident at
once — and on the bench the two fixed executions cap scaling efficiency.

This module streams ONE pass (reference semantics unchanged — SURVEY.md
A1/D4/D5/O4):

1. Per block: **local canonicalization** (a document's owl:sameAs edges
   are always in its own batch — `stages/expand.py` emits per-document
   rows contiguously), exact dedup, (pred, subj) sort, and a direct
   hive-partitioned parquet write with a deterministic content-hash file
   name (idempotent under task retry).  Each block also writes two tiny
   sidecars: its compressed (node → local canon) pair table and the
   distinct uint64 hashes of the URIs remaining in its output.
2. Driver: the pair sidecars are tree-merged **on workers** into the
   global mapping LUT (`canonicalize._PairMerger`, the same builder the
   two-pass path uses; zero-copy in plasma).  If the global merge
   changed nothing — every sameAs cluster was batch-local, the common
   case — the written files are already canonical and the job is done:
   one pass total.
3. Otherwise (cross-batch chains, or documents referencing another
   document's alias URI): every written file whose URI-hash sidecar
   intersects the mapping keys is **fixed up** — rewritten to a NEW
   content-named file (read → rewrite → dedup → sort → put).  Only
   affected files are touched.

Correctness equals the two-pass path: step 3's probe set is the full
global mapping, so any value a global rewrite would have changed is
caught by the sidecar intersection (no false negatives; hash-prefix false
positives only cost a redundant file rewrite).

**Object-store readiness** (round-2 verdict items 4/7): every byte goes
through the ``state/fs.py`` seam — ``LocalFS`` uses the POSIX tmp+rename
fast path, ``NoRenameFS`` proves the writer needs no rename at all.  The
run commits by putting ``_MANIFEST.json`` (the single small object naming
the live files) LAST; fixed-up predecessors are deleted only after the
commit, so a crash at any point leaves either the old committed state or
the new one, never a torn mix.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
from ray.data import Dataset

from ..stages.canonicalize import (
    CanonicalRewriter,
    _hash_large_string,
    _PairMerger,
    local_canonicalize_batch,
    local_exact_dedup,
)
from ..state.fs import LocalFS, read_commit_manifest, write_commit_manifest

MANIFEST_SCHEMA = pa.schema(
    [
        ("file", pa.large_string()),
        ("pred", pa.large_string()),
        ("rows", pa.int64()),
        ("stem", pa.large_string()),
        ("n_pairs", pa.int64()),
        # True when the put was elided because an identical content-named
        # file already existed (file-level resume)
        ("skipped", pa.bool_()),
    ]
)

PAIRS_DIR = "_pairs"
SIDECAR_DIR = "_sidecars"


def _write_block(tbl: pa.Table, out_dir: str, fs, resume: bool = False) -> pa.Table:
    """The fused per-block stage: local canon → dedup → sort → write.

    Every per-row hash the stage needs (dedup key, content-derived file
    stem, fixup sidecar) is derived from ONE hashing pass over the four
    string columns — the columns are never hashed twice.

    ``resume=True`` enables FILE-level resume (ROADMAP §4): file names
    are content-derived (the stem is a pure function of the block's
    rows), so a file that already exists from a previous crashed run IS
    this block's output — the put is elided.  Assumes atomic whole-file
    puts (true of object stores and LocalFS's tmp+rename; NoRenameFS's
    direct-write test double can leave partials on a hard kill, which
    the commit-manifest protocol — not resume — protects readers from).
    """
    if tbl.num_rows == 0:
        return MANIFEST_SCHEMA.empty_table()
    tbl, pairs = local_canonicalize_batch(tbl)
    hs = _hash_large_string(tbl["subj"])
    hp = _hash_large_string(tbl["pred"])
    ho = _hash_large_string(tbl["obj"])
    hg = _hash_large_string(tbl["graph"])
    # exact (subj, pred, obj) dedup on the combined hash (sort-based dup
    # detection; hash-colliding candidates go through exact dedup)
    h = hs * np.uint64(1000003) + hp * np.uint64(31) + ho
    h_sorted = np.sort(h)
    if len(h_sorted) > 1 and (h_sorted[:-1] == h_sorted[1:]).any():
        tbl = local_exact_dedup(tbl)
        hs = _hash_large_string(tbl["subj"])
        hp = _hash_large_string(tbl["pred"])
        ho = _hash_large_string(tbl["obj"])
        hg = _hash_large_string(tbl["graph"])
    # distinct URI hashes remaining in this block's output — the fixup
    # probe set (subjects + non-literal objects); computed BEFORE the sort
    # so the mask aligns with the hash arrays (both are sets, order-free)
    lit = tbl["obj_is_literal"].combine_chunks().to_numpy(zero_copy_only=False).astype(bool)
    distinct = np.unique(np.concatenate([hs, ho[~lit]]))
    # order-insensitive content stem: XOR-reduce survives the sort
    stem_h = np.uint64(len(tbl))
    for hv in (hs, hp, ho, hg):
        stem_h ^= np.bitwise_xor.reduce(hv) if len(hv) else np.uint64(0)
    stem = f"{int(stem_h):016x}"
    tbl = tbl.sort_by([("pred", "ascending"), ("subj", "ascending")])
    files, preds, rows, skipped = [], [], [], []
    # split by pred → hive layout (pred column dropped from the file,
    # reconstructed from the dir name at read, like write_parquet does)
    from urllib.parse import quote

    # the table is sorted by (pred, subj), so pred partitions are
    # CONTIGUOUS: one run-length pass + zero-copy slices instead of a
    # full-column equality filter per pred (O(n) total, not O(preds·n))
    pred_np = tbl["pred"].combine_chunks().to_numpy(zero_copy_only=False)
    starts = (
        np.concatenate([[0], np.flatnonzero(pred_np[1:] != pred_np[:-1]) + 1])
        if len(pred_np)
        else np.array([], np.int64)
    )
    ends = np.concatenate([starts[1:], [len(pred_np)]]) if len(starts) else starts
    body = tbl.drop_columns(["pred"])
    for s, e in zip(starts.tolist(), ends.tolist()):
        p = pred_np[s]
        part = body.slice(s, e - s)
        # percent-encode the partition value (IRI preds contain '/');
        # read_graph decodes it
        pdir = os.path.join(out_dir, f"pred={quote(p, safe='')}")
        path = os.path.join(pdir, f"part-{stem}.parquet")
        skip = resume and fs.exists(path)
        if not skip:
            fs.put_table(part, path)
        files.append(path)
        preds.append(p)
        rows.append(part.num_rows)
        skipped.append(skip)
    if pairs.num_rows:
        ppath = os.path.join(out_dir, PAIRS_DIR, f"pairs-{stem}.parquet")
        if not (resume and fs.exists(ppath)):
            fs.put_table(pairs, ppath)
    import io

    spath = os.path.join(out_dir, SIDECAR_DIR, f"{stem}.npy")
    if not (resume and fs.exists(spath)):
        buf = io.BytesIO()
        np.save(buf, distinct)
        fs.put_bytes(spath, buf.getvalue())
    return pa.table(
        {
            "file": pa.array(files, pa.large_string()),
            "pred": pa.array(preds, pa.large_string()),
            "rows": pa.array(rows, pa.int64()),
            "stem": pa.array([stem] * len(files), pa.large_string()),
            "n_pairs": pa.array([pairs.num_rows] * len(files), pa.int64()),
            "skipped": pa.array(skipped, pa.bool_()),
        }
    )


@ray.remote(num_cpus=1)
def _flag_sidecars(sidecar_paths: list[str], lut: tuple, fs=None) -> list[bool]:
    import io

    fs = fs or LocalFS()
    _keys, _vals, kh_sorted, _bitmap, _uniq = lut
    out = []
    for p in sidecar_paths:
        h = np.load(io.BytesIO(fs.get_bytes(p)))
        if not len(h) or not len(kh_sorted):
            out.append(False)
            continue
        pos = np.clip(np.searchsorted(kh_sorted, h), 0, len(kh_sorted) - 1)
        out.append(bool((kh_sorted[pos] == h).any()))
    return out


def _content_stem(tbl: pa.Table) -> str:
    """Order-insensitive content-derived file stem (pred-less table)."""
    h = np.uint64(tbl.num_rows)
    for col in ("subj", "obj", "graph"):
        hv = _hash_large_string(tbl[col])
        h ^= np.bitwise_xor.reduce(hv) if len(hv) else np.uint64(0)
    return f"{int(h):016x}"


@ray.remote(num_cpus=1)
def _fixup_file(path: str, lut: tuple, fs=None) -> tuple[str, int]:
    """Rewrite one flagged file (read → global rewrite → dedup → sort) to
    a NEW content-named file in the same hive dir — no in-place replace,
    so object stores without rename commit via the manifest instead.
    Returns (new_path, rows); the caller deletes the predecessor AFTER
    the commit manifest is written."""
    fs = fs or LocalFS()
    # pass 1 already dropped the sameAs rows
    tbl = CanonicalRewriter(lut)(fs.read_table(path))
    # file-level exact dedup on (subj, obj) — pred constant within a file
    hs = _hash_large_string(tbl["subj"])
    ho = _hash_large_string(tbl["obj"])
    h = hs * np.uint64(1000003) + ho
    _uniq_h, first = np.unique(h, return_index=True)
    if len(first) != tbl.num_rows:
        import pandas as pd

        df = tbl.to_pandas().drop_duplicates(subset=["subj", "obj"], keep="first")
        tbl = pa.Table.from_pandas(df, preserve_index=False, schema=tbl.schema)
    tbl = tbl.sort_by([("subj", "ascending")])
    new_path = os.path.join(os.path.dirname(path), f"part-{_content_stem(tbl)}.parquet")
    fs.put_table(tbl, new_path)
    return new_path, tbl.num_rows


@ray.remote(num_cpus=1)
def _compact_dir(
    pdir: str, target_bytes: int, fs, files: list[str]
) -> tuple[list[str], list[str]]:
    """Merge this hive partition dir's small committed ``files`` (the
    commit manifest's live files for this dir) into ~target-size sorted
    files.  Only files below the target participate; large files are left
    untouched, and uncommitted garbage is never merged into a live file
    (round-3 advice).  Writes new content-named files but deletes
    NOTHING: returns (added, removed-candidates) so the caller re-commits
    the manifest FIRST and deletes predecessors after, keeping every
    crash window readable."""
    small = [f for f in sorted(files) if fs.size(f) < target_bytes]
    added: list[str] = []
    removed: list[str] = []
    if len(small) < 2:
        return added, removed
    group: list[str] = []
    size = 0

    def flush(group: list[str]) -> None:
        if len(group) < 2:
            return
        tbl = pa.concat_tables([fs.read_table(g) for g in group])
        tbl = tbl.sort_by([("subj", "ascending")])  # pred constant per dir
        path = os.path.join(pdir, f"part-{_content_stem(tbl)}.parquet")
        fs.put_table(tbl, path)
        added.append(path)
        removed.extend(g for g in group if g != path)

    for f in small:
        group.append(f)
        size += fs.size(f)
        if size >= target_bytes:
            flush(group)
            group, size = [], 0
    flush(group)
    return added, removed


def compact_partitions(out_dir: str, *, target_mb: int = 128, fs=None) -> dict:
    """Post-write compaction sweep over the hive layout (one remote task
    per pred dir): the single-pass writer emits one file per (block,
    pred), so rare predicates produce many tiny files — the classic
    small-file problem at 100 TB.  Compaction merges sub-target files
    into ~target-size internally-sorted files; per-dir sort order and
    hive semantics are preserved.  Commit ordering (round-3 advice): the
    tasks only ADD files; the manifest is re-committed to the
    post-compaction set on the driver, and only then are merged
    predecessors deleted — a crash anywhere leaves a committed,
    readable state (plus reclaimable garbage at worst).  Only committed
    files take part: a dir without ``_MANIFEST.json`` raises
    ``FileNotFoundError``."""
    fs = fs or LocalFS()
    target = target_mb * 1024 * 1024
    man = read_commit_manifest(fs, out_dir)
    by_dir: dict[str, list[str]] = {}
    for f in man["files"]:
        p = os.path.join(out_dir, f)
        by_dir.setdefault(os.path.dirname(p), []).append(p)
    pdirs = sorted(by_dir)
    results = ray.get([_compact_dir.remote(d, target, fs, by_dir[d]) for d in pdirs])
    added = [p for a, _r in results for p in a]
    removed = {p for _a, r in results for p in r}
    live = {os.path.join(out_dir, f) for f in man["files"]}
    live = (live - removed) | set(added)
    write_commit_manifest(fs, out_dir, live, {k: v for k, v in man.items() if k != "files"})
    for p in removed:
        fs.delete(p)
    return {"dirs": len(pdirs), "files_merged": int(sum(len(r) for _a, r in results))}


def _distributed_fixup(
    out_dir: str,
    manifests,
    pair_paths: list[str],
    fs,
    resume: bool,
):
    """LUT-free fixup for alias sets too large for one plasma object
    (ROADMAP §2's last writer gap): the same broadcast→joined escape
    hatch flagship.canonical_triples has, applied to the single-pass
    writer.

    Pass 1's files (already locally canonical) are COMMITTED as an
    interim state — a crash mid-rewrite leaves a readable graph — then
    read back through the manifest-driven direct read, rewritten with
    :func:`canonicalize_stage_joined` (distributed CC over the pair
    sidecars + two hash-partitioned joins; the mapping never exists as
    one object), and re-written by a second ``_write_block`` pass.
    Honest cost: one extra full read+write pass — the price of the
    regime where no node can hold the mapping; below the gate the
    sidecar-flagged broadcast fixup touches only affected files.

    Returns the pass-2 manifest DataFrame; the caller commits it and
    deletes superseded pass-1 files."""
    import ray.data as rd

    from ..stages.canonicalize import canonicalize_stage_joined
    from ..state.fs import FsspecFS
    from .flagship import read_graph

    write_commit_manifest(
        fs,
        out_dir,
        manifests["file"].tolist(),
        {"rows": int(manifests["rows"].sum()) if len(manifests) else 0,
         "interim": True},
    )
    pa_fs = None
    if isinstance(fs, FsspecFS):
        from pyarrow.fs import FSSpecHandler, PyFileSystem

        pa_fs = PyFileSystem(FSSpecHandler(fs.fs))
    edges = rd.read_parquet(pair_paths, filesystem=pa_fs)
    fixed = canonicalize_stage_joined(read_graph(out_dir, fs), edges=edges)

    def stage2(tbl: pa.Table) -> pa.Table:
        # re-canonicalizing canonical rows is a no-op (idempotent), so the
        # second pass reuses the same fused write stage
        return _write_block(tbl, out_dir, fs, resume)

    man_tables = [
        t
        for t in fixed.map_batches(
            stage2, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
        ).iter_batches(batch_size=None, batch_format="pyarrow")
        if t.num_rows
    ]
    return (
        pa.concat_tables(man_tables) if man_tables else MANIFEST_SCHEMA.empty_table()
    ).to_pandas()


def write_canonical_single_pass(
    triples: Dataset,
    out_dir: str,
    *,
    fs=None,
    resume: bool = False,
    lut_max_pairs: int | None = None,
) -> dict:
    """Stream linked raw triples into a canonical hive-partitioned graph
    in ONE pass (+ a fixup touching only files that cross-batch sameAs
    chains actually affect).  ``fs`` selects the filesystem seam
    (``LocalFS`` default; ``NoRenameFS`` for object-store semantics —
    the commit manifest, written LAST, is the only atomicity the
    protocol needs).  ``resume=True`` elides puts whose content-named
    target already exists (file-level resume after a crash before the
    commit — see _write_block).  ``lut_max_pairs`` gates the mapping
    size ONE plasma object may hold: when the running compressed-pair
    count crosses it mid-stream, the broadcast LUT merge is abandoned
    and the fixup runs as a distributed second pass
    (:func:`_distributed_fixup`) — no single object ever holds the
    mapping (None/0 = no gate).  Returns a summary dict: ``files``,
    ``rows``, ``fixed_files``, ``skipped_files``, whether the gate sent
    the fixup down the distributed path (``distributed_fixup``) and the
    compressed sameAs pair count that decided it (``sameas_pairs``)."""
    fs = fs or LocalFS()
    os.makedirs(out_dir, exist_ok=True)

    def stage(tbl: pa.Table) -> pa.Table:
        return _write_block(tbl, out_dir, fs, resume)

    # Stream the manifest blocks back as they complete: each block's pair
    # sidecar is fed to the incremental worker-side tree merge, so the LUT
    # reduction OVERLAPS the main execution instead of being a serial tail
    # after it.  (Also: no object-store LIST calls — pair/sidecar paths
    # are derived from the manifest stems.)
    merger = _PairMerger(fs)
    man_tables: list[pa.Table] = []
    seen_stems: set[str] = set()
    pairs_dir = os.path.join(out_dir, PAIRS_DIR)
    total_pairs = 0
    pair_paths: list[str] = []
    distributed = False
    for tbl in triples.map_batches(
        stage, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).iter_batches(batch_size=None, batch_format="pyarrow"):
        if tbl.num_rows == 0:
            continue
        man_tables.append(tbl)
        for stem, n_pairs in zip(tbl["stem"].to_pylist(), tbl["n_pairs"].to_pylist()):
            if stem in seen_stems:
                continue
            seen_stems.add(stem)
            if n_pairs:
                total_pairs += n_pairs
                pair_paths.append(os.path.join(pairs_dir, f"pairs-{stem}.parquet"))
                if distributed:
                    continue
                if lut_max_pairs and total_pairs > lut_max_pairs:
                    # gate trips MID-STREAM: stop feeding the LUT merge
                    # before its eager collapse can accumulate a large
                    # object; already-launched leaf merges are bounded
                    # (fanout pair files each) and simply get GC'd
                    distributed = True
                    merger.refs = []
                    merger.pending = []
                    continue
                merger.add(pair_paths[-1])
    manifests = (
        pa.concat_tables(man_tables) if man_tables else MANIFEST_SCHEMA.empty_table()
    ).to_pandas()

    fixed = 0
    replaced: list[str] = []
    if distributed:
        old_files = set(manifests["file"].tolist())
        manifests = _distributed_fixup(
            out_dir, manifests, pair_paths, fs, resume
        )
        new_files = set(manifests["file"].tolist())
        replaced = sorted(old_files - new_files)
        fixed = len(replaced)
    elif merger.n_parts:
        # no pair file at all → nothing can need a fixup
        lut_ref = merger.finish(total_pairs)
        sidecars = [
            os.path.join(out_dir, SIDECAR_DIR, f"{s}.npy") for s in sorted(seen_stems)
        ]
        group = 32
        flag_refs = [
            _flag_sidecars.remote(sidecars[i : i + group], lut_ref, fs)
            for i in range(0, len(sidecars), group)
        ]
        flags = [f for part in ray.get(flag_refs) for f in part]
        flagged_stems = {
            os.path.basename(s)[: -len(".npy")] for s, f in zip(sidecars, flags) if f
        }
        if flagged_stems:
            todo = manifests.index[manifests["stem"].isin(flagged_stems)]
            fixed = len(todo)
            results = ray.get(
                [
                    _fixup_file.remote(manifests.loc[i, "file"], lut_ref, fs)
                    for i in todo
                ]
            )
            for i, (new_path, rows) in zip(todo, results):
                old = manifests.loc[i, "file"]
                if new_path != old:
                    replaced.append(old)
                manifests.loc[i, "file"] = new_path
                manifests.loc[i, "rows"] = rows
    # COMMIT: one small object naming the live files; only then delete
    # fixed-up predecessors and scratch sidecars
    write_commit_manifest(
        fs,
        out_dir,
        manifests["file"].tolist(),
        {"rows": int(manifests["rows"].sum()) if len(manifests) else 0},
    )
    for old in replaced:
        fs.delete(old)
    fs.delete_prefix(os.path.join(out_dir, PAIRS_DIR))
    fs.delete_prefix(os.path.join(out_dir, SIDECAR_DIR))
    return {
        "files": int(len(manifests)),
        "rows": int(manifests["rows"].sum()) if len(manifests) else 0,
        "fixed_files": int(fixed),
        "skipped_files": int(manifests["skipped"].sum()) if len(manifests) else 0,
        "distributed_fixup": distributed,
        "sameas_pairs": int(total_pairs),
    }
