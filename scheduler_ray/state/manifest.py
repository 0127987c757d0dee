"""Per-partition lineage manifests + checkpoint/resume (SURVEY.md ST6/S6).

Generalizes the reference's ``.bytesum`` sidecar idempotency (reference
userCode/defs_test.py:86-98 — unchanged release graphs are not re-pulled)
and its crawl cleanup bookkeeping into explicit per-source-partition
manifests:

    out_dir/
      data/graph=<quote(source)>/part-<stem>.parquet  (the partition's triples,
                                                  content-named files)
      manifests/<source>.json          {partition_id, input_hash, rows_in,
                                        triples_out, content_hash, files,
                                        …}

``files`` lists the partition's live data files (relative to ``data/``);
readers read those and no other.  A rerun skips every partition whose
``input_hash`` still matches the current input — the resume contract the
north_rule requires.  Manifests are written last and atomically
(``LocalFS.put_bytes``: a per-put tmp name + rename), after the files
they list and before the files they supersede are deleted, so a
partition reads as its old or its new state and is either
complete-with-manifest or will be redone.
"""

from __future__ import annotations

import json
import os
import time
from urllib.parse import quote

from .fs import LocalFS


def manifest_path(out_dir: str, partition_id: str) -> str:
    safe = sanitize_partition_id(partition_id)
    return os.path.join(out_dir, "manifests", f"{safe}.json")


def sanitize_partition_id(partition_id: str) -> str:
    """Filesystem-safe partition label (M5 semantics: strip exotic chars,
    ``:`` → ``-``, bounded length; reference userCode/lib/utils.py:25-41)."""
    out = "".join(c if c.isalnum() or c in "-_." else "-" for c in partition_id)
    return out[:63]


def load_manifest(out_dir: str, partition_id: str) -> dict | None:
    p = manifest_path(out_dir, partition_id)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def write_manifest(out_dir: str, partition_id: str, payload: dict) -> str:
    p = manifest_path(out_dir, partition_id)
    payload = {"partition_id": partition_id, "written_at": time.time(), **payload}
    LocalFS().put_bytes(p, json.dumps(payload, sort_keys=True).encode())
    return p


def completed_partitions(out_dir: str, input_hashes: dict[str, str]) -> set[str]:
    """Partitions whose stored input_hash matches the current input —
    these are skipped on resume (bytesum semantics).  A manifest that
    lists no ``files`` (one written before manifests listed them) does
    not count: its partition is rebuilt once."""
    done = set()
    for pid, h in input_hashes.items():
        m = load_manifest(out_dir, pid)
        if m is not None and m.get("input_hash") == h and "files" in m:
            done.add(pid)
    return done


def gc_manifests(
    out_dir: str,
    *,
    max_age_s: float,
    max_delete: int = 100_000,
    now: float | None = None,
    delete_data: bool = True,
) -> list[str]:
    """A4 retention GC (reference userCode/instance.py:26-51 semantics:
    fetch records older than the retention window, OLDEST FIRST, bounded
    batch, delete).

    Deletes up to ``max_delete`` manifests whose ``written_at`` is older
    than ``max_age_s`` seconds, oldest first; with ``delete_data`` the
    partition's ``data/graph=<quote(source)>/`` directory goes with it
    whole (each source owns its dir, so files no manifest lists — a
    crashed run's, an orphaned ``*.tmp`` — go too).  Returns the deleted
    partition ids (oldest first).
    """
    import shutil

    mdir = os.path.join(out_dir, "manifests")
    if not os.path.isdir(mdir):
        return []
    cutoff = (now if now is not None else time.time()) - max_age_s
    candidates: list[tuple[float, str, str]] = []
    for f in os.listdir(mdir):
        if not f.endswith(".json"):
            continue
        p = os.path.join(mdir, f)
        try:
            with open(p) as fh:
                m = json.load(fh)
        except (ValueError, OSError):
            continue
        ts = float(m.get("written_at", 0))
        if ts < cutoff:
            candidates.append((ts, m.get("partition_id", os.path.splitext(f)[0]), p))
    candidates.sort()  # oldest first — the reference's ascending order
    deleted: list[str] = []
    for _ts, pid, p in candidates[:max_delete]:
        os.remove(p)
        if delete_data:
            shutil.rmtree(
                os.path.join(out_dir, "data", f"graph={quote(pid, safe='')}"),
                ignore_errors=True,
            )
        deleted.append(pid)
    return deleted


def failure_report(out_dir: str, expected_hashes: dict[str, str]) -> dict:
    """The failure-alerting analogue of the reference's run-failure Slack
    sensor (reference userCode/defs.py:129-138): summarize which expected
    partitions are MISSING a manifest (failed / never ran) and which are
    STALE (manifest present but input_hash no longer matches).  A caller
    wires this to whatever notifier exists; in-sandbox the report itself
    is the signal (and is what a rerun will redo).
    """
    missing, stale, ok = [], [], []
    for pid, h in sorted(expected_hashes.items()):
        m = load_manifest(out_dir, pid)
        if m is None:
            missing.append(pid)
        elif m.get("input_hash") != h:
            stale.append(pid)
        else:
            ok.append(pid)
    return {
        "missing": missing,
        "stale": stale,
        "ok": ok,
        "healthy": not missing and not stale,
    }


def all_partitions_complete(out_dir: str, expected: set[str]) -> bool:
    """The export barrier (J5 semantics: proceed only when every partition
    is materialized; reference userCode/lib/dagster.py:62-84)."""
    have = {
        os.path.splitext(f)[0]
        for f in os.listdir(os.path.join(out_dir, "manifests"))
        if f.endswith(".json")
    } if os.path.isdir(os.path.join(out_dir, "manifests")) else set()
    return {sanitize_partition_id(p) for p in expected} <= have
