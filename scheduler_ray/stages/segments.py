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
over a list of tables, which is how the tests fuzz block layouts.  A
null in a sort column raises ``ValueError`` naming the columns.

:func:`sorted_agg_by` has a second, bounded-key finish: when its
per-block partials total at most :data:`BOUNDED_FINISH_ROWS` rows (read
from block metadata), ONE task re-aggregates them with the kernel's
``apply`` and returns them key-sorted, with no range sort, cut back into
about as many blocks as the partials had; larger partials go through
:func:`segment_scan`.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset, DataContext
from ray.data.block import BlockAccessor


def _concat(tables: list[pa.Table]) -> pa.Table:
    return pa.concat_tables(tables, promote_options="permissive")


def _blocks(m: Dataset) -> "list[tuple]":
    """``(ref, metadata)`` of every block of the materialized ``m``, read
    on the driver (no block bytes are fetched); ``num_rows`` and
    ``size_bytes`` are None when the metadata does not know them."""
    return [
        (ref, meta)
        for b in m.iter_internal_ref_bundles()
        for ref, meta in zip(b.block_refs, b.metadata)
    ]


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
    blocks = _blocks(m)
    refs = [ref for ref, meta in blocks if meta.num_rows != 0]
    if not refs or len(refs) == len(blocks):
        return m
    return rd.from_arrow_refs(refs)


def join_partitions(ds: Dataset) -> int:
    """Partition count for Ray's hash join of the materialized ``ds``: one
    per block, at least 2, at most the cluster's CPUs.  Each partition
    wants an aggregator actor (globally capped at 64), and more
    partitions than schedulable actors deadlock the join on small
    clusters."""
    cpus = int(ray.cluster_resources().get("CPU", 8))
    return min(max(2, ds.num_blocks()), max(2, cpus))


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


def _null_keys(keys: "list[str]") -> ValueError:
    return ValueError(
        f"null in sort key column(s) {keys}: a range sort cannot order a "
        "null against a value; drop or fill those rows first"
    )


@ray.remote
def _summarize_task(block, keys, cols, summarize):
    t = _arrow(block)
    # null_count is array metadata: a check, not a pass over the rows.
    # It catches the nulls a sort with one output range let through.
    if t.num_rows and any(t[c].null_count for c in cols):
        raise _null_keys(cols)
    return _summary(t, keys, summarize)


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
    docstring).  Empty output blocks are dropped.  A null in a sort
    column raises ``ValueError``."""
    cols = [*keys, *order]
    try:
        srt = _drop_empty_blocks(ds.sort(cols))
    except TypeError as e:
        # Ray's sort map compares each block's keys with the sampled
        # range boundaries; a null key fails that comparison
        if "NoneType" not in str(e):
            raise
        raise _null_keys(cols) from e
    return scan_sorted(srt, keys, kernel, order=order)


def scan_sorted(srt: Dataset, keys: "list[str]", kernel, *, order: "list[str]" = ()) -> Dataset:
    """Steps 2-4 of :func:`segment_scan` over a materialized dataset
    whose block order is already its sort order (``keys``, then
    ``order``).  A null in any of those columns raises ``ValueError``."""
    import ray.data as rd

    summarize, combine, apply = kernel
    blocks = srt.to_arrow_refs()
    if not blocks:
        return srt
    cols = [*keys, *order]
    sums = [_summarize_task.remote(b, keys, cols, summarize) for b in blocks]
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
    order = [(k, "ascending") for k in keys]

    def partial(t: pa.Table) -> pa.Table:
        # key-sorted, so the head run is row 0 and the tail run the last
        # row: Arrow's hash grouper does not keep first-appearance order
        # for every key type (it reorders composite string/int keys)
        g = pa.TableGroupBy(t.select(cols), keys, use_threads=False)
        return g.aggregate(list(aggs.items())).rename_columns(cols).sort_by(order)

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
#: ``sorted_agg_by``'s size gate, in partial rows.  On one CPU the one-task
#: finish beats the range sort at every size (measured to 4*10^6 rows).
#: On four, in the distributed-CC loop, it is even with the sort at
#: 0.5-2*10^5 rows a call and 4% behind at 2-8*10^5: the sort's reduce
#: spreads over the CPUs, the finish does not.  The cap sits at the low
#: end of that crossover.
BOUNDED_FINISH_ROWS = 250_000


@ray.remote
def _finish_task(apply, n, *blocks):
    """The bounded-key finish: every partial in one table, re-aggregated
    (and so key-sorted) by the kernel's own ``apply``, returned as ``n``
    contiguous slices so that later stages still get one task a block."""
    t = apply(_concat([_arrow(b) for b in blocks]), None, False)
    cuts = [t.num_rows * i // n for i in range(n + 1)]
    out = [t.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
    return out if n > 1 else out[0]


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
    per-block pyarrow hash aggregate (the combiner) shrinks each block,
    and one of two finishes re-aggregates the partials:

    * at most :data:`BOUNDED_FINISH_ROWS` partial rows (block metadata):
      one ``_finish_task`` over all of them, so a few keys per block
      (the low-cardinality query rollups) never pay for a range sort.
      Its output comes back in as many blocks as the partials had, but
      at most one per ``target_min_block_size`` (Ray Data's, 1 MiB) of
      partial bytes;
    * more: :func:`segment_scan` range-sorts them and re-aggregates each
      sorted block, carrying a straddling key's partial into its last
      block.

    Blocks stay Arrow end to end (blocks of Python string objects pickle
    them across the shuffle — measured ~10× slower).

    Returns a Dataset with columns ``(*keys, *aggs)`` in ascending key
    order (across its blocks, in block order).
    """
    import ray.data as rd

    keys = [key] if isinstance(key, str) else list(key)
    kernel = agg_kernel(keys, aggs)
    apply = kernel[2]
    valid = functools.reduce(operator.and_, [pc.field(k).is_valid() for k in keys])
    part = ds.map_batches(
        lambda t: apply(t.filter(valid), None, False),
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    ).materialize()
    blocks = [(ref, meta) for ref, meta in _blocks(part) if meta.num_rows != 0]
    if not blocks:
        return part
    refs, metas = map(list, zip(*blocks))
    rows = [m.num_rows for m in metas]
    if None not in rows and sum(rows) <= BOUNDED_FINISH_ROWS:
        nbytes = sum(m.size_bytes or 0 for m in metas)
        n = max(1, min(len(refs), nbytes // DataContext.get_current().target_min_block_size))
        out = rd.from_arrow_refs(_finish_task.options(num_returns=n).remote(apply, n, *refs))
        return _drop_empty_blocks(out) if n > 1 else out
    return segment_scan(rd.from_arrow_refs(refs), keys, kernel)


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
