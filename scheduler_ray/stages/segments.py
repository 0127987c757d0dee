"""Sorted-segment scan: the one primitive behind every operator that
range-sorts a Dataset and then works on whole key runs.

After a range sort a key's rows are contiguous, but a run can still
straddle block borders.  Instead of collecting border rows on the driver
and repairing them, an operator supplies a *kernel* of three pure Arrow
functions:

* ``summarize(t)`` → the partial of block ``t``'s LAST key run;
* ``combine(carry, partial)`` → the carry after a block that is one run
  (``carry`` is ``None`` when no earlier block holds the key);
* ``apply(t, carry_in, drops_tail)`` → the block's output.

:func:`segment_scan` runs them as four steps: the range sort (then
``materialize``); one summary task per ordered block; ONE remote task
that scans the summaries left to right (:func:`carry_scan`) and hands
every block its ``(carry_in, drops_tail)`` by block index; one apply task
per block.  A block whose first key continues the previous block's last
run gets that run's combined partial as its carry-in, and the previous
block drops its tail run, so a folding operator (aggregate, map-groups,
sessions) emits each run once, in the key's last block; a running
operator (prefix sum, lag) ignores ``drops_tail`` and offsets its head
run by the carry.  This is FP-Hadoop's associative combine of small
per-partition partials in place of a second exchange.  The driver holds
only ObjectRefs; :func:`scan_tables` runs the same kernels sequentially
over a list of tables, which is how the tests fuzz block layouts.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset
from ray.data.block import BlockAccessor


def _concat(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(tables, promote_options="permissive")


def _drop_empty_blocks(ds: Dataset) -> Dataset:
    """Rebuild a dataset from its non-empty block refs (metadata-only on
    the driver — no block bytes are fetched).

    Why: Ray's sort/aggregate shuffles emit zero-row blocks for empty
    partitions, and ``map_batches`` passes empty blocks through WITHOUT
    calling the UDF — re-emitting them as zero-COLUMN tables.  A
    zero-column block poisons any downstream ``Dataset.join`` (the acero
    per-partition join raises ``No match ... for FieldRef``).  Every
    map-before-join boundary routes through this filter.
    """
    import ray.data as rd

    m = ds.materialize()
    refs, total = [], 0
    for b in m.iter_internal_ref_bundles():
        for ref, meta in zip(b.block_refs, b.metadata):
            total += 1
            if meta.num_rows is None or meta.num_rows > 0:
                refs.append(ref)
    if not refs or len(refs) == total:
        return m
    return rd.from_arrow_refs(refs)


def run_starts(t: pa.Table, keys: "list[str]") -> np.ndarray:
    """Row indices where a new key run starts in a key-sorted table
    (nulls equal nulls, as in the border comparison)."""
    n = t.num_rows
    if n == 0:
        return np.zeros(0, np.int64)
    same = pa.array(np.ones(n - 1, bool))
    for k in keys:
        a, b = t[k].slice(1), t[k].slice(0, n - 1)
        eq = pc.or_kleene(pc.equal(a, b), pc.and_(pc.is_null(a), pc.is_null(b)))
        same = pc.and_(same, pc.fill_null(eq, False))
    brk = np.concatenate([[True], ~np.asarray(same.to_numpy(zero_copy_only=False), bool)])
    return np.flatnonzero(brk)


def _summary(t: pa.Table, keys: "list[str]", summarize):
    """``(first key, last key, partial of the last run)``; None if empty."""
    if not t.num_rows:
        return None

    def key(i: int) -> tuple:
        return tuple(t[k][i].as_py() for k in keys)

    return key(0), key(t.num_rows - 1), summarize(t)


def carry_scan(summaries: list, combine) -> "list[tuple]":
    """Left-to-right pass over block summaries → ``(carry_in, drops_tail)``
    per block.  A block whose first key equals the last key of the
    previous non-empty block gets the run's carry, and that previous
    block drops its tail run.  A one-run block passes the carry on,
    combined with its own partial; any other block's last run starts the
    next carry."""
    out: list[tuple] = []
    open_key = carry = prev = None
    for i, s in enumerate(summaries):
        if s is None:
            out.append((None, False))
            continue
        first, last, part = s
        cont = prev is not None and open_key == first
        if cont:
            out[prev] = (out[prev][0], True)
        cin = carry if cont else None
        out.append((cin, False))
        carry = combine(cin if first == last else None, part)
        open_key, prev = last, i
    return out


def scan_tables(tables: "list[pa.Table]", keys: "list[str]", kernel) -> "list[pa.Table]":
    """:func:`segment_scan` over an already sorted list of tables, in
    process: the same kernel calls in the same order, without Ray."""
    summarize, combine, apply = kernel
    carries = carry_scan([_summary(t, keys, summarize) for t in tables], combine)
    return [apply(t, *c) if t.num_rows else t for t, c in zip(tables, carries)]


def _arrow(block) -> pa.Table:
    return BlockAccessor.for_block(block).to_arrow()


@ray.remote
def _summarize_task(block, keys, summarize):
    return _summary(_arrow(block), keys, summarize)


@ray.remote
def _scan_task(combine, *summaries):
    out = carry_scan(summaries, combine)
    return out if len(out) > 1 else out[0]


@ray.remote
def _apply_task(block, carry, apply):
    t = _arrow(block)
    return apply(t, *carry) if t.num_rows else t


def segment_scan(ds: Dataset, keys: "list[str]", kernel, *, order: "list[str]" = ()) -> Dataset:
    """Range-sort ``ds`` on ``keys`` (then ``order``) and run ``kernel``
    = ``(summarize, combine, apply)`` over its key runs (module
    docstring).  Empty output blocks are dropped."""
    return scan_sorted(_drop_empty_blocks(ds.sort([*keys, *order])), keys, kernel)


def scan_sorted(srt: Dataset, keys: "list[str]", kernel) -> Dataset:
    """Steps 2-4 of :func:`segment_scan` over a materialized dataset
    whose block order is already its sort order."""
    import ray.data as rd

    summarize, combine, apply = kernel
    blocks = srt.to_arrow_refs()
    if not blocks:
        return srt
    sums = [_summarize_task.remote(b, keys, summarize) for b in blocks]
    carries = _scan_task.options(num_returns=len(sums)).remote(combine, *sums)
    if len(sums) == 1:
        carries = [carries]
    out = [_apply_task.remote(b, c, apply) for b, c in zip(blocks, carries)]
    return _drop_empty_blocks(rd.from_arrow_refs(out))


# ------------------------------------------------------------- kernels
def agg_kernel(keys: "list[str]", aggs: "dict[str, str]"):
    """Per-key ``aggs`` (value column → "min" | "max" | "sum"; empty =
    DISTINCT): a partial is the one-row aggregate of a run, and partials
    re-aggregate exactly because the three are associative."""
    cols = [*keys, *aggs]

    def partial(t: pa.Table) -> pa.Table:
        # single-threaded: groups come out in first-appearance (= sorted)
        # order, so the head run is row 0 and the tail run the last row
        g = pa.TableGroupBy(t.select(cols), keys, use_threads=False)
        return g.aggregate(list(aggs.items())).rename_columns(cols)

    def summarize(t: pa.Table) -> pa.Table:
        g = partial(t)
        return g.slice(g.num_rows - 1)

    def combine(carry, part: pa.Table) -> pa.Table:
        return part if carry is None else partial(_concat([carry, part]))

    def apply(t: pa.Table, carry, drops_tail: bool) -> pa.Table:
        g = partial(t)
        if carry is not None:
            g = partial(_concat([carry, g]))
        return g.slice(0, g.num_rows - drops_tail)

    return summarize, combine, apply


def map_groups_kernel(keys: "list[str]", fn):
    """``fn`` once per whole group: a straddling group's rows from
    earlier blocks (the tail fragment) are the carry into its last
    block, which prepends them; earlier blocks drop it."""

    def summarize(t: pa.Table) -> pa.Table:
        return t.slice(run_starts(t, keys)[-1])

    def combine(carry, part: pa.Table) -> pa.Table:
        return part if carry is None else _concat([carry, part])

    def apply(t: pa.Table, carry, drops_tail: bool) -> pa.Table:
        if carry is not None:
            t = _concat([carry, t])
        starts = run_starts(t, keys)
        if drops_tail:
            t, starts = t.slice(0, starts[-1]), starts[:-1]
        ends = np.append(starts[1:], t.num_rows)
        outs = [o for s, e in zip(starts, ends) if (o := fn(t.slice(s, e - s))).num_rows]
        return _concat(outs) if outs else pa.table({})

    return summarize, combine, apply


# ----------------------------------------------------------- operators
def sorted_agg_by(
    ds: Dataset, key: "str | list[str]", aggs: "dict[str, str]"
) -> Dataset:
    """Distributed per-key min/max/sum of value columns WITHOUT Ray's
    groupby aggregate.  ``aggs`` maps value column → "min" | "max" |
    "sum" (any aggregate that is associative over per-block partials);
    an EMPTY ``aggs`` makes this a distributed DISTINCT over the key
    column(s).  ``key`` may be a list for composite keys.

    This is the package's one grouped aggregate.  A count is the
    ``"sum"`` of an int64 ones column that the caller's projection adds;
    callers derive key and value columns in one Arrow ``map_batches``
    and hand the rows over unaggregated.  Rows whose key has a null are
    dropped, as pandas' ``groupby`` drops them (the range sort cannot
    order a null against a value).

    Ray's ``groupby(...).min(...)`` reduce runs per-group PYTHON
    accumulators — measured ~165 s for 400k rows / 150k groups on 8
    cpus, which made the distributed-CC loop unusable at scale.  Here a
    per-block pyarrow hash aggregate (the combiner) shrinks each block
    before the range sort, and :func:`segment_scan` re-aggregates each
    sorted block, carrying a straddling key's partial into its last
    block.  Blocks stay Arrow end to end (blocks of Python string
    objects pickle them across the shuffle — measured ~10× slower).

    Returns a Dataset with columns ``(*keys, *aggs)``.
    """
    keys = [key] if isinstance(key, str) else list(key)
    kernel = agg_kernel(keys, aggs)
    apply = kernel[2]
    valid = functools.reduce(operator.and_, [pc.field(k).is_valid() for k in keys])
    part = _drop_empty_blocks(
        ds.map_batches(
            lambda t: apply(t.filter(valid), None, False),
            batch_format="pyarrow",
            batch_size=None,
            zero_copy_batch=True,
        )
    )
    return segment_scan(part, keys, kernel)


def sorted_map_groups(ds: Dataset, keys: "list[str]", fn) -> Dataset:
    """The semantics of Ray's ``map_groups(fn)`` on ``groupby(keys)``
    without one Python UDF task per group.

    Ray's map_groups reduce builds a sub-block and calls the UDF once
    per GROUP (~0.5-1 ms each) — at corpus-scale group counts (LSH
    buckets, candidate pairs) that is hours of pure overhead.  Here one
    range sort, then ``fn`` runs per segment of each sorted block as a
    plain function call; a group straddling blocks is completed in its
    last block (:func:`map_groups_kernel`).

    ``fn``: Arrow group table → Arrow table, called once per WHOLE
    group and never on an empty table — the contract of
    Ray's ``map_groups(fn, batch_format="pyarrow")``.  Empty outputs
    are dropped, so a group that yields nothing returns any empty table.
    Output blocks are the concatenated ``fn`` results; row order differs
    from map_groups (callers must be order-insensitive).
    """
    return segment_scan(ds, list(keys), map_groups_kernel(list(keys), fn))
