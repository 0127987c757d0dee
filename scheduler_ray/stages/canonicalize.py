"""Stage 4: owl:sameAs canonicalization (SURVEY.md A1/D4).

The reference resolves every feature to its canonical Geoconnex PID
(``https://pids.geoconnex.dev/...`` — asserted at reference
userCode/defs_test.py:121-126); provider-native URIs are aliased to PIDs
via owl:sameAs edges.  We must rewrite every subject/object URI to its
cluster's canonical representative — a connected-components problem over
the sameAs edge graph (chains can be multi-hop: alias → provider → PID).

Ray-Data-first, shuffle-free for the big side:

1. ``sameas_edges``: filter the triple stream to sameAs edges
   (``map_batches`` predicate — the edge set is a tiny fraction of the
   triples).
2. Per-batch **union-find combiner** (:func:`collect_sameas_edges`):
   each batch closes its edges locally and emits at most one
   ``(node, root)`` pair per distinct node — the classic mergeable-summary
   pattern, so nothing downstream ever sees the raw triples.
3. :class:`_PairMerger` tree-merges the pair tables **on workers** (the
   associative intermediate reduce of FP-Hadoop, VLDB 2015) and builds the
   hash-sorted rewrite LUT in node-hash shards; the canonical
   representative per cluster is the PID if the cluster contains one,
   else the lexicographically smallest URI (deterministic).  The driver
   only holds ObjectRefs.  The two-pass path feeds it edge-block refs
   (:func:`lut_ref_from_edges`); the single-pass writer feeds it the
   per-block pair files as they stream back.
4. The LUT stays in plasma and :class:`CanonicalRewriter` — the one
   rewrite kernel — applies it with a vectorized hash probe inside
   ``map_batches``: no shuffle of the triple set at all.

Every in-process closure — the per-batch combiner, the tree merge's
exact path and the embedding near-dup groups — is ONE exact kernel:
:func:`_canonical_pairs` numbers the URIs in canonical order and
:func:`_close_codes` closes them by hook-and-compress union-find, with no
round cap, so an alias chain of any length lands on one canonical.  The
FP-Hadoop combine/merge tree is exact only because each combine is.

Every path drops the sameAs rows with one Arrow filter
(:func:`without_sameas`) where the raw triples enter it, and dedups each
rewritten block.

Scale note: if the alias set itself outgrows one plasma object, swap
steps 3-4 for :func:`canonicalize_stage_joined` (hash-partitioned
min-label propagation, run to its fixed point with no round cap, + two
partitioned joins; same output, all-shuffle).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# one polars thread per process, set before polars starts its pool: Ray's
# 1-CPU tasks would otherwise oversubscribe the node
os.environ.setdefault("POLARS_MAX_THREADS", "1")
import polars as pl  # noqa: E402

import ray
from ray.data import Dataset

from . import segments
from .expand import SAME_AS, SAME_AS_IRI
from .segments import _drop_empty_blocks, join_partitions, sorted_agg_by

PID_PREFIX = "https://pids.geoconnex.dev/"

#: owl:sameAs in both spellings (prefixed and context-expanded)
_SAMEAS_SET = pa.array([SAME_AS, SAME_AS_IRI], pa.large_string())


def _is_sameas(pred_col) -> pa.ChunkedArray:
    return pc.is_in(pred_col, value_set=_SAMEAS_SET)


def without_sameas(tbl: pa.Table) -> pa.Table:
    """``tbl`` minus its owl:sameAs rows — the one filter raw triples
    pass where they enter canonicalization: the final graph holds no
    sameAs edges, their clusters live on as the rewritten URIs."""
    return tbl.filter(pc.invert(_is_sameas(tbl["pred"])))


class UnionFind:
    __slots__ = ("parent",)

    def __init__(self):
        self.parent: dict[str, str] = {}

    def find(self, x: str) -> str:
        p = self.parent
        root = x
        while p.get(root, root) != root:
            root = p[root]
        while p.get(x, x) != x:
            p[x], x = root, p[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # deterministic orientation: larger string points at smaller
            if ra < rb:
                ra, rb = rb, ra
            self.parent[ra] = rb

    def items(self):
        for node in list(self.parent):
            yield node, self.find(node)


def sameas_edges_batch(batch: pa.Table) -> pa.Table:
    """Compress one batch of triples to (node, canonical) pairs.

    Each batch closes its own sameAs edges exactly with
    :func:`_canonical_pairs` (one Arrow sort, then the integer
    union-find :func:`_close_codes` — no per-edge Python loop, no round
    cap) and emits one node → *canonical* (PID-preferring, deterministic)
    pair per aliased node.  Because a document's sameAs edges are emitted
    adjacently by the expansion stage, within-batch closure resolves
    nearly every cluster — the tree merge then only deduplicates
    identical pairs and closes the rare cross-batch chain (see
    :class:`_PairMerger`).
    """
    edges = batch.filter(_is_sameas(batch["pred"]))
    return _canonical_pairs(edges["subj"], edges["obj"])


def _close_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Exact connected components of the edges ``a[i] — b[i]`` over the
    codes ``0..n-1``: each code's component minimum.

    Hook-and-compress: each round, every edge whose endpoints have
    different roots hooks the larger root onto the smaller
    (``np.minimum.at``), then ``parent = parent[parent]`` repeats until it
    stops changing.  A root only ever points at a smaller code, so no
    cycle forms, and each round with a live edge removes at least one
    root, so the loop ends — with no round cap — once no edge joins two
    roots.  On a random-order alias path the rounds grow with the log of
    its length, not with its diameter (13 rounds at 10⁶ nodes).
    """
    parent = np.arange(n, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        live = ra != rb
        if not live.any():
            return parent
        # an edge inside one root's tree never goes live again
        a, b, ra, rb = a[live], b[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _canonical_pairs(nodes, roots) -> pa.Table:
    """Close the string edges ``nodes[i] — roots[i]`` exactly: one
    :data:`PAIR_SCHEMA` row per member that is not its cluster's
    canonical.

    The unique URIs are numbered in canonical order — PIDs first, then
    lexicographic — by one Arrow ``sort_indices``, so the smallest code of
    each component (:func:`_close_codes`) is its canonical.  Each unique
    URI is hashed once; the hashes ride along so merge fast paths never
    touch Python string objects.
    """
    n_edges = len(nodes)
    if n_edges == 0:
        return PAIR_SCHEMA.empty_table()
    enc = pa.concat_arrays([_large_array(nodes), _large_array(roots)]).dictionary_encode()
    uniq = enc.dictionary
    not_pid = pc.invert(pc.starts_with(uniq, pattern=PID_PREFIX))
    # order[c] = the dictionary index of canonical code c
    order = pc.sort_indices(
        pa.table({"not_pid": not_pid, "uri": uniq}),
        sort_keys=[("not_pid", "ascending"), ("uri", "ascending")],
    ).to_numpy()
    code = np.empty(len(uniq), np.int64)
    code[order] = np.arange(len(uniq))
    codes = code[enc.indices.to_numpy()]
    root = _close_codes(codes[:n_edges], codes[n_edges:], len(uniq))
    changed = np.flatnonzero(root != np.arange(len(uniq)))
    key_idx, val_idx = order[changed], order[root[changed]]
    h = _hash_large_string(uniq)
    return pa.table(
        {
            "node": uniq.take(pa.array(key_idx)),
            "root": uniq.take(pa.array(val_idx)),
            "node_hash": pa.array(h[key_idx], pa.uint64()),
            "root_hash": pa.array(h[val_idx], pa.uint64()),
        },
        schema=PAIR_SCHEMA,
    )


def _large_array(col) -> pa.Array:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.cast(col, pa.large_string())


#: schema of the compressed (node → canonical) pair tables the combiner and
#: the tree-merge exchange; hashes ride along so merge fast paths never
#: touch Python string objects
PAIR_SCHEMA = pa.schema(
    [
        ("node", pa.large_string()),
        ("root", pa.large_string()),
        ("node_hash", pa.uint64()),
        ("root_hash", pa.uint64()),
    ]
)


def _merge_pair_tables(tables: list[pa.Table]) -> pa.Table:
    """Merge canonical-pair tables into one canonical-pair table.

    Associative/commutative (union-find closure is), so it runs at every
    level of a tree reduce on workers — the driver never concatenates the
    full pair set.  Fast path: after deduping identical (node, root) pairs
    on their 64-bit hashes, if no node appears twice and no canon is
    itself aliased, the pairs already ARE the merged mapping.  Any
    suspicion (conflict, chain, hash collision) falls through to the exact
    closure of the whole table (:func:`_canonical_pairs`).
    """
    tables = [t for t in tables if t.num_rows > 0]
    if not tables:
        return PAIR_SCHEMA.empty_table()
    tbl = pa.concat_tables(tables)
    hn = tbl["node_hash"].to_numpy()
    hr = tbl["root_hash"].to_numpy()
    # no explicit pair dedup here: duplicate (node, root) pairs imply a
    # duplicate node hash, which routes to the exact closure — where a
    # duplicate is just one more edge inside its component
    hn_sorted = np.sort(hn)
    no_dups = bool((hn_sorted[1:] != hn_sorted[:-1]).all()) if len(hn) > 1 else True
    if no_dups:
        pos = np.searchsorted(hn_sorted, hr)
        pos_c = np.clip(pos, 0, max(len(hn_sorted) - 1, 0))
        chained = hn_sorted[pos_c] == hr
        if not chained.any():
            return tbl
    return _canonical_pairs(tbl["node"], tbl["root"])


def collect_sameas_edges(triples: Dataset) -> Dataset:
    """Per-batch sameAs combiner output as a (materialized) Dataset.

    Each block is compressed to at most one ``(node, root)`` pair per
    aliased entity (``sameas_edges_batch``), so the materialized result
    is tiny relative to the triple stream.  Having the edges as a
    Dataset (rather than fused into the LUT tree merge) buys two things
    for the price of one extra streaming pass over already-materialized
    blocks: the **pair count** (free metadata after materialize) that
    drives the broadcast-vs-joined switch in flagship.canonical_triples,
    and a direct input for :func:`connected_components_distributed` when
    the joined path wins.
    """
    return triples.map_batches(
        sameas_edges_batch, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()


def local_canonicalize_batch(tbl: pa.Table):
    """Batch-local sameAs canonicalization (the single-pass combiner).

    Collapses the batch's OWN sameAs edges (a document's edges are always
    emitted in its own batch), drops them, and rewrites the rest through
    the resulting tiny LUT.  Returns ``(rewritten_table, pair_table)`` —
    the pair table (node → local canon) is the residue the global merge
    needs to detect cross-batch chains.
    """
    is_sameas = _is_sameas(tbl["pred"])
    edges = tbl.filter(is_sameas)
    pairs = _canonical_pairs(edges["subj"], edges["obj"])
    tbl = tbl.filter(pc.invert(is_sameas))
    if pairs.num_rows:
        tbl = CanonicalRewriter(build_rewrite_lut(pairs))(tbl)
    return tbl, pairs


def local_exact_dedup(tbl: pa.Table) -> pa.Table:
    """Within-block exact-(subj,pred,obj) dedup.

    Hash prefilter: rows whose 64-bit combined hash is unique are kept
    without any string comparison; only hash-colliding candidates go
    through an exact pandas dedup (usually zero rows).
    """
    import numpy as np
    import pandas as pd

    if tbl.num_rows < 2:
        return tbl
    hs = _hash_large_string(tbl["subj"])
    hp = _hash_large_string(tbl["pred"])
    ho = _hash_large_string(tbl["obj"])
    h = hs * np.uint64(1000003) + hp * np.uint64(31) + ho
    # duplicated-detection via sort (vectorized, no pandas hashing)
    hs_sorted = np.sort(h)
    dup_vals = hs_sorted[:-1][hs_sorted[:-1] == hs_sorted[1:]]
    if not len(dup_vals):
        return tbl
    dup_vals = np.unique(dup_vals)
    pos = np.searchsorted(dup_vals, h)
    pos_c = np.clip(pos, 0, len(dup_vals) - 1)
    dup_any = dup_vals[pos_c] == h
    if not dup_any.any():
        return tbl
    uniq_part = tbl.filter(pa.array(~dup_any))
    cand = tbl.filter(pa.array(dup_any)).to_pandas()
    cand = cand.drop_duplicates(subset=["subj", "pred", "obj"], keep="first")
    return pa.concat_tables(
        [uniq_part, pa.Table.from_pandas(cand, preserve_index=False, schema=tbl.schema)]
    )


def _hash_large_string(arr) -> np.ndarray:
    """Vectorized uint64 hash of an Arrow (large_)string array / chunked
    array / numpy string array.

    Uses polars (~40 ns/row, no per-row Python objects — measured 40×
    faster than ``pd.util.hash_array``), pinned to ONE thread at import.
    ``hash(seed=0)`` is deterministic across processes for a fixed polars
    version, which is all the tree merge needs.  There is no second hash:
    content stems, LUT hashes and sidecar probes must agree with the
    files already written, so a missing polars fails at import.
    """
    if not isinstance(arr, (pa.Array, pa.ChunkedArray)):
        arr = pa.array(arr, pa.large_string())
    return pl.from_arrow(arr).hash(seed=0).to_numpy().astype(np.uint64)


#: bits of hash prefix indexed by the probe-prefilter bitmap (2^24 bools =
#: 16 MB, shared zero-copy) — at 2M keys the bitmap is ~11% occupied, so
#: ~89% of probes skip the binary search entirely
_PREFIX_BITS = 24


def build_rewrite_lut(pairs: pa.Table) -> tuple:
    """Build of the broadcast rewrite LUT (driver or remote task) from a
    :data:`PAIR_SCHEMA` table; its ``node_hash`` column is the key hash,
    so no key is hashed again.

    Returns ``(keys_sorted, vals_sorted, kh_sorted, prefix_bitmap,
    hash_unique)`` where the arrays are Arrow / numpy — after ``ray.put``
    every worker reads them **zero-copy from plasma** (no per-worker LUT
    build, no per-worker private copy; round-1's per-worker duplication
    went superlinear at 16 workers × multi-hundred-MB mappings).
    """
    keys = pairs["node"].combine_chunks()
    vals = pairs["root"].combine_chunks()
    if len(keys) == 0:
        return keys, vals, np.array([], np.uint64), np.zeros(1, bool), True
    kh = pairs["node_hash"].to_numpy()
    order = np.argsort(kh, kind="stable")
    kh_sorted = kh[order]
    order_pa = pa.array(order)
    keys_sorted = pc.take(keys, order_pa)
    vals_sorted = pc.take(vals, order_pa)
    # the prefilter only pays for itself on big LUTs — a per-batch local
    # LUT (a few thousand keys) would spend more on the 16 MB memset than
    # the searchsorted it skips
    if len(kh_sorted) >= 65536:
        bitmap = np.zeros(1 << _PREFIX_BITS, bool)
        bitmap[(kh_sorted >> np.uint64(64 - _PREFIX_BITS)).astype(np.int64)] = True
    else:
        bitmap = None
    # the LUT requires collision-free key hashes; two distinct keys
    # sharing a hash (p ≈ n²/2⁶⁴) falls back to exact index_in
    hash_unique = bool((kh_sorted[1:] != kh_sorted[:-1]).all()) if len(kh) > 1 else True
    return keys_sorted, vals_sorted, kh_sorted, bitmap, hash_unique


def _merge_parts(fs, parts) -> pa.Table:
    """Merge pair tables; a ``str`` part is a pair file read through
    ``fs``, anything else an already-resolved pair table."""
    return _merge_pair_tables(
        [fs.read_table(p) if isinstance(p, str) else p for p in parts]
    )


@ray.remote
def _merge_pairs(fs, *parts) -> pa.Table:
    return _merge_parts(fs, parts)


@ray.remote
def _finish_lut(fs, *parts) -> tuple:
    """The whole LUT in one task: one merge and one build, the exact
    path :func:`_concat_lut_shards` falls back to."""
    return build_rewrite_lut(_merge_parts(fs, parts))


#: node-hash range shards for the LUT build above the one-task cap
#: (2^3 = 8 tasks).  Sharding by NODE hash keeps every
#: duplicate/conflicting pair for one node in one shard, so per-shard
#: closure is exact within the shard.
_LUT_SHARD_BITS = 3


@ray.remote
def _finish_lut_shard(shard: int, *tables: pa.Table) -> tuple:
    """Resolve one node-hash range of the pair set and build its LUT
    slice.  Returns ``(keys_sorted, vals_sorted, kh_sorted, unique,
    root_hashes, in_range)`` — the last two feed the soundness checks in
    :func:`_concat_lut_shards`: ``root_hashes`` the cross-shard chain
    check, ``in_range`` the key-escape check (a CONFLICTED alias set's
    union-find closure can emit mapping keys drawn from the ROOT
    universe, whose hashes leave this shard's node range)."""
    shift = np.uint64(64 - _LUT_SHARD_BITS)
    parts = []
    for t in tables:
        if t.num_rows == 0:
            continue
        hn = t["node_hash"].to_numpy()
        mask = (hn >> shift).astype(np.int64) == shard
        if mask.any():
            parts.append(t.filter(pa.array(mask)))
    merged = _merge_pair_tables(parts)
    keys, vals, kh, _bitmap, unique = build_rewrite_lut(merged)
    rh = merged["root_hash"].to_numpy() if merged.num_rows else np.array([], np.uint64)
    in_range = bool(len(kh) == 0 or ((kh >> shift).astype(np.int64) == shard).all())
    return keys, vals, kh, unique, np.unique(rh), in_range


@ray.remote
def _concat_lut_shards(*shards: tuple) -> tuple:
    """Assemble the global rewrite LUT from per-shard slices.

    The shard hash ranges are disjoint and ascending, so the hash-sorted
    global arrays are the shards concatenated in shard order — no resort.
    Two conditions force the exact global fallback (a re-closure over the
    already per-shard-resolved pairs — sound, because per-shard closure
    replaces a component's edges with star edges over the SAME member
    strings, so global connectivity and min-label canons are preserved):

    * a root hash appears as a node hash — a CROSS-shard alias chain (or
      a hash collision) the per-shard closure could not follow;
    * a shard emitted an out-of-range key — conflicted alias sets close
      through union-find, which may mint mapping keys from the ROOT
      universe, breaking the disjoint/ascending concat invariant.

    On this engine's corpora chains are batch-local and neither fires;
    the fallback exists for correctness, not speed."""
    live = [s for s in shards if len(s[2])]
    if not live:
        return build_rewrite_lut(PAIR_SCHEMA.empty_table())
    kh = np.concatenate([s[2] for s in live])
    rh = np.concatenate([s[4] for s in live])
    keys = pa.concat_arrays([s[0] for s in live])
    vals = pa.concat_arrays([s[1] for s in live])
    pos = np.clip(np.searchsorted(kh, rh), 0, len(kh) - 1)
    escaped = not all(s[5] for s in live)
    if escaped or bool((kh[pos] == rh).any()):
        return build_rewrite_lut(_canonical_pairs(keys, vals))
    bitmap = None
    if len(kh) >= 65536:
        bitmap = np.zeros(1 << _PREFIX_BITS, bool)
        bitmap[(kh >> np.uint64(64 - _PREFIX_BITS)).astype(np.int64)] = True
    # shard ranges are disjoint, so uniqueness is per-shard uniqueness
    return keys, vals, kh, bitmap, all(s[3] for s in live)


class _PairMerger:
    """THE sameAs LUT builder: incremental worker-side tree merge of pair
    tables into the global rewrite LUT.  ``add()`` takes a pair-file path
    (the single-pass writer, as manifest blocks stream back) or a pair
    table ObjectRef (:func:`lut_ref_from_edges`); leaf merges launch every
    ``merge_fanout`` parts, so the merge waves OVERLAP the stream and
    ``finish()`` only pays the final small reduction.  The driver never
    holds pair bytes — only ObjectRefs.

    ``finish(n_rows)`` takes the pair row count the caller already has
    (the writer's pair-file counts, the edge blocks' metadata).  At most
    ``segments.BOUNDED_FINISH_ROWS`` pairs are merged and built into the
    LUT by ONE task; more (or an unknown count) go through the sharded
    finish.

    ``num_cpus`` is the CPU request of every merge task.  The writer uses
    0: each merge is milliseconds of compute over at most fanout small
    pair tables, but while the writer streams every whole CPU is held by
    the fused map tasks, so a num_cpus=1 merge would QUEUE until the
    stream drains and the overlapped tree merge would serialize into a
    tail.  With no stream to overlap, 1 is cheaper: Ray starts a worker
    process for every zero-CPU task it cannot place on an idle one."""

    def __init__(self, fs=None, merge_fanout: int = 8, num_cpus: int = 0):
        if merge_fanout < 2:
            raise ValueError("merge_fanout must be at least 2")
        self.fs = fs
        self.fanout = merge_fanout
        self.opts = {"num_cpus": num_cpus}
        self.pending: list = []
        self.refs: list = []
        self.n_parts = 0

    def _merge(self, parts: list) -> "ray.ObjectRef":
        return _merge_pairs.options(**self.opts).remote(self.fs, *parts)

    def add(self, part) -> None:
        self.n_parts += 1
        self.pending.append(part)
        if len(self.pending) >= self.fanout:
            self.refs.append(self._merge(self.pending))
            self.pending = []
        # collapse eagerly so the intermediate waves also overlap execution
        if len(self.refs) >= self.fanout * 2:
            self.refs = [self._merge(self.refs[: self.fanout])] + self.refs[self.fanout :]

    def finish(self, n_rows: int | None = None) -> "ray.ObjectRef":
        """The ObjectRef of the finished LUT tuple (empty if nothing was
        added); ``n_rows`` is the pair count of all parts, None if
        unknown."""
        if n_rows is not None and n_rows <= segments.BOUNDED_FINISH_ROWS:
            # up to the cap one task is no slower than the eight shards
            # on four CPUs, and it skips their nine task launches
            parts, self.refs, self.pending = self.refs + self.pending, [], []
            return _finish_lut.options(**self.opts).remote(self.fs, *parts)
        if self.pending:
            self.refs.append(self._merge(self.pending))
            self.pending = []
        refs = self.refs
        while len(refs) > self.fanout:
            refs = [
                self._merge(refs[i : i + self.fanout])
                for i in range(0, len(refs), self.fanout)
            ]
        # sharded finish: a single-task final merge + LUT build was the
        # serial tail of the whole write (concat+closure+sort of the full
        # pair set); per-hash-range shards run it in parallel and the
        # global LUT is their ordered concatenation
        shard_refs = [
            _finish_lut_shard.options(**self.opts).remote(s, *refs)
            for s in range(1 << _LUT_SHARD_BITS)
        ]
        return _concat_lut_shards.options(**self.opts).remote(*shard_refs)


def lut_ref_from_edges(edges: Dataset, *, merge_fanout: int = 8) -> "ray.ObjectRef":
    """Tree-merge a collected edge Dataset (:func:`collect_sameas_edges`)
    into the rewrite-LUT ObjectRef on workers — the mapping bytes never
    land on the driver.  Returns once the LUT is built; pass the ref
    straight to :func:`canonicalize_stage`."""
    # The edges are already materialized, so there is no stream to
    # overlap: whole-CPU tasks, and the LUT is finished before the rewrite
    # starts.  Otherwise rewrite tasks block on the ref while holding
    # workers and Ray starts extra worker processes for the merge tasks
    # (on one CPU: refresh-benchmark wall 1.5 s → 3.0-3.5 s, +180 MB RSS).
    merger = _PairMerger(merge_fanout=merge_fanout, num_cpus=1)
    rows = []
    for ref, meta in segments._blocks(edges):
        merger.add(ref)
        rows.append(meta.num_rows)
    lut_ref = merger.finish(None if None in rows else sum(rows))
    ray.wait([lut_ref], fetch_local=False)
    return lut_ref


class CanonicalRewriter:
    """THE alias→canonical rewrite kernel: every path that applies a LUT
    to ``subj``/``obj`` — the two-pass rewrite, the writer's per-block
    local canon and its file fixup — calls it.  It only rewrites; the
    sameAs rows are dropped before it (:func:`without_sameas`).

    The lookup structure is a sorted uint64 hash LUT over the mapping keys
    (:func:`build_rewrite_lut`, or the :class:`_PairMerger` result) — per batch the column is hashed, searchsorted, and hash hits are
    string-verified with Arrow kernels.  Unlike ``pc.index_in`` (which
    rebuilds its value_set hash table on every call — the round-1 fixed
    cost that forced few large blocks), per-batch cost is
    O(batch · log keys), so the rewrite runs at natural block granularity
    and scales with CPUs.
    """

    def __init__(self, lut: tuple):
        (
            self.keys_sorted,
            self.vals_sorted,
            self.kh_sorted,
            self.prefix_bitmap,
            self.hash_unique,
        ) = lut

    def _rewrite(self, col: pa.ChunkedArray, probe_mask: "np.ndarray | None" = None):
        """Rewrite ``col``; when ``probe_mask`` is given, only rows where
        it is True are probed (literal objects never match a URI key)."""
        col = pc.cast(col, pa.large_string())
        if len(self.keys_sorted) == 0:
            return col
        if not self.hash_unique:
            idx = pc.index_in(col, value_set=self.keys_sorted)
            repl = pc.take(self.vals_sorted, idx)
            return pc.coalesce(repl, col)
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ch = _hash_large_string(col)
        # prefix-bitmap prefilter: most non-alias values miss here and
        # skip the binary search entirely
        if self.prefix_bitmap is not None:
            cand = self.prefix_bitmap[(ch >> np.uint64(64 - _PREFIX_BITS)).astype(np.int64)]
            if probe_mask is not None:
                cand &= probe_mask
        elif probe_mask is not None:
            cand = probe_mask.copy()
        else:
            cand = np.ones(len(ch), bool)
        if not cand.any():
            return col
        cand_rows = np.flatnonzero(cand)
        ch_c = ch[cand_rows]
        # probe in sorted order (sequential LUT access beats random by ~25%)
        qorder = np.argsort(ch_c, kind="stable")
        pos = np.empty(len(ch_c), np.int64)
        pos[qorder] = np.searchsorted(self.kh_sorted, ch_c[qorder])
        pos_c = np.clip(pos, 0, len(self.kh_sorted) - 1)
        hit = self.kh_sorted[pos_c] == ch_c
        if not hit.any():
            return col
        hit_idx = cand_rows[hit]
        cand_pos = pos_c[hit]
        # string-verify the hash hits (rules out value-vs-key collisions)
        cand_keys = pc.take(self.keys_sorted, pa.array(cand_pos))
        actual = pc.take(col, pa.array(hit_idx))
        eq = pc.fill_null(pc.equal(cand_keys, actual), False).to_numpy(zero_copy_only=False)
        ok_idx = hit_idx[eq]
        if not len(ok_idx):
            return col
        # scatter: null index → keep original via coalesce
        idx_np = np.full(len(col), -1, np.int64)
        idx_np[ok_idx] = cand_pos[eq]
        idx_pa = pa.array(idx_np, pa.int64(), mask=idx_np < 0)
        repl = pc.take(self.vals_sorted, idx_pa)
        return pc.coalesce(repl, col)

    def __call__(self, batch: pa.Table) -> pa.Table:
        subj = self._rewrite(batch["subj"])
        # only URI objects are entity references; literal rows skip the
        # probe entirely (mask) and pass through via coalesce
        lit = batch["obj_is_literal"].combine_chunks() if isinstance(
            batch["obj_is_literal"], pa.ChunkedArray
        ) else batch["obj_is_literal"]
        not_lit = np.logical_not(lit.to_numpy(zero_copy_only=False).astype(bool))
        obj = self._rewrite(batch["obj"], probe_mask=not_lit)
        i_subj = batch.schema.get_field_index("subj")
        i_obj = batch.schema.get_field_index("obj")
        return batch.set_column(i_subj, "subj", subj).set_column(i_obj, "obj", obj)


def canonicalize_stage(triples: Dataset, lut_ref: "ray.ObjectRef") -> Dataset:
    """Vectorized alias→canonical rewrite over the plasma-resident LUT
    that :func:`lut_ref_from_edges` returns.

    Stateless whole-block tasks with a per-worker-process cached
    :class:`CanonicalRewriter` (see link_stage docstring): each drops the
    block's sameAs rows, rewrites the rest and folds in a within-block
    exact-triple dedup (cheap combiner before any global dedup).
    """
    from .link import _cached_get

    def rewrite_fn(batch: pa.Table) -> pa.Table:
        # imported in the task: a closed-over dict would be pickled by
        # value, giving every task a fresh, empty cache
        from .link import _BROADCAST_CACHE

        key = "rewriter:" + lut_ref.hex()
        rw = _BROADCAST_CACHE.get(key)
        if rw is None:
            rw = CanonicalRewriter(_cached_get(lut_ref))
            _BROADCAST_CACHE[key] = rw
        return local_exact_dedup(rw(without_sameas(batch)))

    return triples.map_batches(
        rewrite_fn,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


def canonicalize_stage_joined(triples: Dataset, edges: Dataset | None = None) -> Dataset:
    """Broadcast-free canonicalization: partitioned-join alias rewrite.

    The scale escape hatch for alias sets too large to live in one plasma
    object (ROADMAP §2; module docstring "Scale note").  The compressed
    ``(node, root)`` edge set is closed with
    :func:`connected_components_distributed` (hash-partitioned min-label
    propagation — never broadcast, never on the driver) and the resulting
    alias→canonical labels are applied with two hash-partitioned
    LEFT OUTER joins (subject, then non-literal object) instead of a
    broadcast LUT.  Same output as :func:`canonicalize_stage` — both pick
    the PID-preferring lexicographic cluster minimum — but it costs two
    all-to-all exchanges of the triple stream, so it only wins above the
    broadcast ceiling; flagship.canonical_triples switches automatically
    on ``cfg.canon_broadcast_max_pairs``.

    Partitioning assumption: labels and triples co-partition on the join
    key per join (Ray's hash join); driver state is O(1) scalars.
    """
    if edges is None:
        edges = collect_sameas_edges(triples)
    # empty upstream blocks would be re-emitted column-less by the maps
    # below and poison the joins — drop them first (metadata-only)
    triples = _drop_empty_blocks(triples)
    # the sameAs filter below keeps the block count
    n_parts = join_partitions(triples)
    triples = triples.map_batches(
        without_sameas, batch_format="pyarrow", zero_copy_batch=True
    )
    if edges.count() == 0:
        return triples.map_batches(
            local_exact_dedup, batch_format="pyarrow", zero_copy_batch=True
        )

    labels = connected_components_distributed(edges)

    # acero joins require EXACT key-type equality (string vs large_string
    # is an error, not a cast) — align the label dtype with the triples
    sch = triples.schema()
    key_type = dict(zip(sch.names, sch.types))["subj"]

    def _alias_only(t: pa.Table) -> pa.Table:
        # roots label themselves — joining them is wasted shuffle width
        t = t.filter(pc.invert(pc.equal(t["node"], t["label"])))
        return pa.table(
            {
                "node": pc.cast(t["node"], key_type),
                "label": pc.cast(t["label"], key_type),
            }
        )

    labels = _drop_empty_blocks(
        labels.map_batches(_alias_only, batch_format="pyarrow", zero_copy_batch=True)
    )
    def _rename(dst: str, canon: str):
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([dst, canon])

        return fn

    subj_lab = labels.map_batches(
        _rename("subj", "_subj_canon"), batch_format="pyarrow", zero_copy_batch=True
    )
    # joins are all-to-all barriers anyway; the _drop_empty_blocks hops
    # between them are metadata-only and keep the map outputs join-safe
    out = _drop_empty_blocks(
        triples.join(subj_lab, "left_outer", n_parts, on=("subj",))
    )

    def _apply_subj(t: pa.Table) -> pa.Table:
        subj = pc.coalesce(pc.cast(t["_subj_canon"], t["subj"].type), t["subj"])
        t = t.set_column(t.schema.get_field_index("subj"), "subj", subj)
        return t.drop_columns(["_subj_canon"])

    out = out.map_batches(_apply_subj, batch_format="pyarrow", zero_copy_batch=True)

    obj_lab = labels.map_batches(
        _rename("obj", "_obj_canon"), batch_format="pyarrow", zero_copy_batch=True
    )
    out = _drop_empty_blocks(out.join(obj_lab, "left_outer", n_parts, on=("obj",)))

    def _apply_obj(t: pa.Table) -> pa.Table:
        # literal objects are never entity references: even on an exact
        # string match with some alias IRI, a literal row keeps its value
        lit = pc.cast(t["obj_is_literal"], pa.bool_())
        canon = pc.cast(t["_obj_canon"], t["obj"].type)
        obj = pc.if_else(lit, t["obj"], pc.coalesce(canon, t["obj"]))
        t = t.set_column(t.schema.get_field_index("obj"), "obj", obj)
        return local_exact_dedup(t.drop_columns(["_obj_canon"]))

    return out.map_batches(_apply_obj, batch_format="pyarrow", zero_copy_batch=True)


def connected_components_distributed(edges: Dataset) -> Dataset:
    """All-shuffle min-label propagation for alias sets too big to broadcast.

    ``edges(node, root)`` → ``(node, label)`` where label is the cluster
    minimum (with PID preference encoded by a sort-key prefix).  FULLY
    distributed (round-1 verdict item 9 — the old version materialized
    the whole label table on the driver each iteration and shipped it by
    closure): every iteration is

        labels ⋈ edges ON peer   (hash-partitioned Dataset.join)
        → groupby(node).min(label)

    and the fixed-point check is a distributed checksum of the label table
    (row count and wrap-sum of row hashes — two scalars, never the
    table).  A label only ever decreases, so the loop runs to its
    fixed point with no round cap and closes a chain of any length; a
    label moves one hop per iteration, so the rounds grow with the
    longest distance to a cluster's minimum.  Geoconnex sameAs chains
    are shallow (SURVEY.md §7), and the per-batch combiner has already
    closed every block-local chain.  Partitioning assumption: labels
    and edges co-partition on the join key per iteration (Ray's hash
    join); no driver-side state beyond scalars.
    """
    # ALL blocks stay Arrow: pandas blocks pickle Python string objects
    # across every shuffle/join hop (measured ~10× slower end-to-end);
    # Arrow blocks ship zero-copy.
    LS = pa.large_string()

    def undirect(t: pa.Table) -> pa.Table:
        n = pc.cast(t["node"], LS)
        r = pc.cast(t["root"], LS)
        return pa.concat_tables(
            [
                pa.table({"node": n, "peer": r}),
                pa.table({"node": r, "peer": n}),
                pa.table({"node": n, "peer": n}),
                pa.table({"node": r, "peer": r}),
            ]
        ).combine_chunks()

    # drop empty edge blocks first: map_batches would re-emit them
    # column-less (UDF skipped) and poison every join below
    edges = _drop_empty_blocks(edges)
    und = edges.map_batches(
        undirect, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def keyed(t: pa.Table) -> pa.Table:
        # PIDs sort before everything else so min-label == canonical rep
        peer = pc.cast(t["peer"], LS)
        pref = pc.if_else(
            pc.starts_with(peer, pattern=PID_PREFIX),
            pa.scalar("0", LS),
            pa.scalar("1", LS),
        )
        label = pc.binary_join_element_wise(pref, peer, pa.scalar("", LS))
        return pa.table({"node": t["node"], "label": label})

    def _rename(ds: Dataset, mapping: dict[str, str]) -> Dataset:
        def fn(t: pa.Table) -> pa.Table:
            return t.rename_columns([mapping.get(c, c) for c in t.column_names])

        return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)

    def _min_by_node(ds: Dataset) -> Dataset:
        return sorted_agg_by(ds, "node", {"label": "min"})

    def _checksum(ds: Dataset) -> tuple:
        # distributed order-insensitive fingerprint of the label table:
        # (row count, wrap-sum of 64-bit row hashes).  Replaces the old
        # per-iteration convergence JOIN — a changed label set colliding
        # on both is ~2^-64 per iteration.
        def chk(t: pa.Table) -> pa.Table:
            joined = pc.binary_join_element_wise(
                pc.cast(t["node"], LS), pc.cast(t["label"], LS), pa.scalar("\x00", LS)
            )
            h = _hash_large_string(joined)
            return pa.table(
                {
                    "s": pa.array([int(h.sum(dtype=np.uint64))], pa.uint64()),
                    "n": pa.array([t.num_rows], pa.int64()),
                }
            )

        parts = ds.map_batches(
            chk, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        return (
            int(parts["n"].sum()),
            int(parts["s"].to_numpy(np.uint64).sum(dtype=np.uint64)),
        )

    labels = _min_by_node(
        und.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    ).materialize()
    prev = _checksum(labels)
    n_parts = join_partitions(und)
    while True:
        # propagate: each edge (node, peer) contributes label[peer] to node
        peer_labels = _rename(labels, {"node": "peer"})
        prop = _drop_empty_blocks(
            und.join(
                peer_labels, join_type="inner", num_partitions=n_parts, on=("peer",)
            )
        ).select_columns(["node", "label"])
        # no union(labels) needed: und carries a SELF edge for every
        # node, so prop already contributes each node's current label
        labels = _min_by_node(prop).materialize()
        cur = _checksum(labels)
        if cur == prev:
            break
        prev = cur

    def strip(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "label": pc.utf8_slice_codeunits(pc.cast(t["label"], LS), 1),
            }
        )

    return labels.map_batches(strip, batch_format="pyarrow", zero_copy_batch=True)
