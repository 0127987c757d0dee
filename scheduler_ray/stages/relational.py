"""Relational operators: lookup joins, grouped aggregates, windows.

The reference's joins are all small-side lookups (SURVEY.md §2.4), so the
primary join here is :func:`lookup_join`: the small side is collected
once into one key-sorted Arrow table and shipped with ``ray.put``, and
every probe block finds its keys' runs with ``pc.index_in`` and gathers
both sides with ``take``.  Above a row ceiling the same inner join runs
as Ray's hash-partitioned ``Dataset.join``; on both paths a null key
matches nothing.  Every keyed sum / count / min / max
is one Arrow projection (key columns, value columns, an int64 ones
column for a count) into ``segments.sorted_agg_by``, whose per-block
Arrow aggregate is the combiner (SURVEY.md §2.5): only one row per key
per block reaches the range sort.  Event-time windows are window-id
columns of that projection.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import pyarrow as pa
import pyarrow.compute as pc
import ray
from ray.data import Dataset

from .segments import (
    _concat,
    _drop_empty_blocks,
    run_starts,
    segment_scan,
    sorted_agg_by,
    sorted_map_groups,
)


def _np(t: pa.Table, col: str, dtype) -> np.ndarray:
    """Column ``col`` of ``t`` as a numpy array of ``dtype``."""
    return t[col].to_numpy().astype(dtype, copy=False)


def _collect(ds: Dataset) -> pa.Table:
    """The materialized ``ds`` as one Arrow table on the driver."""
    return _concat(ray.get(ds.to_arrow_refs()))


def lookup_side(small: pa.Table, on: str) -> "tuple[pa.Table, pa.Array, np.ndarray]":
    """The build side of :func:`lookup_rows`: ``small`` without its
    null-key rows (a null key matches nothing), sorted by ``on``; its
    distinct keys; and the row bounds of each key's run."""
    small = small.filter(pc.is_valid(small[on])).sort_by(on)
    starts = run_starts(small, [on])
    return small, small[on].take(starts).combine_chunks(), np.append(starts, small.num_rows)


def lookup_rows(big: pa.Table, side: tuple, on: str) -> pa.Table:
    """Inner equi-join of the probe table ``big`` with a
    :func:`lookup_side`: ``index_in`` gives each probe row its key's run,
    the probe indices repeat over the run lengths, and ``take`` gathers
    both sides (with unique keys, a plain ``take``).  ``big``'s columns
    come first, then the small side's non-key columns."""
    small, keys, bounds = side
    run = pc.fill_null(pc.index_in(big[on], value_set=keys, skip_nulls=True), -1).to_numpy()
    probe = np.flatnonzero(run >= 0)
    run = run[probe]
    lo, n = bounds[run], bounds[run + 1] - bounds[run]
    big_idx = np.repeat(probe, n)
    small_idx = np.repeat(lo - (np.cumsum(n) - n), n) + np.arange(len(big_idx))
    right = small.drop_columns([on]).take(small_idx)
    return pa.Table.from_arrays(
        big.take(big_idx).columns + right.columns, names=big.column_names + right.column_names
    )


def lookup_join(big: Dataset, small: pa.Table, on: str) -> Dataset:
    """Broadcast lookup join: ``small`` ships once via ``ray.put`` as a
    :func:`lookup_side` and every block of ``big`` joins it through
    :func:`lookup_rows` — no shuffle of the big side."""
    side_ref = ray.put(lookup_side(small, on))

    def join(t: pa.Table) -> pa.Table:
        return lookup_rows(t, ray.get(side_ref), on)

    return big.map_batches(join, batch_format="pyarrow")


#: broadcast ceiling for join_auto and semi_join_auto, in small-side
#: ROWS; above it the join shuffles.  Against Ray's hash join on four
#: CPUs (4M probe rows, unique int64 keys) the lookup still wins at 10⁷
#: rows over 16 probe blocks (14.5 vs 21.2 s) but loses at 5·10⁶ over
#: 128 (27.2 vs 17.1 s): ``index_in`` builds its hash set of the small
#: side's keys once per block, so the crossover moves with the block count.
JOIN_BROADCAST_MAX_ROWS = 5_000_000


def _n_parts() -> int:
    # each hash-join partition wants an aggregator actor (globally capped
    # at 64): more partitions than schedulable actors deadlocks on small
    # clusters (num_blocks() is unavailable on a lazy Dataset, so the CPU
    # count is the sizing signal)
    return min(64, max(2, int(ray.cluster_resources().get("CPU", 8))))


def join_auto(
    big: Dataset,
    small: Dataset,
    on: str,
    *,
    right_on: str | None = None,
    broadcast_max_rows: int | None = None,
) -> Dataset:
    """Size-gated inner equi-join on one key column (round-4 verdict item
    5): a small side of at most ``broadcast_max_rows`` rows goes through
    :func:`lookup_join`; above the ceiling, Ray's hash-partitioned
    ``Dataset.join`` — the same broadcast→distributed escape hatch
    ``canonicalize_stage_joined`` uses for oversized alias sets.  At 100×
    sf the TPC-H ``customer`` table stops being a broadcastable side;
    this keeps ``q_segment_revenue`` (and any dimension join) correct
    there without rewriting the query.

    ``right_on`` names the small side's key column; the output keeps
    only ``big``'s key, so its schema is identical regardless of which
    path ran (the forced-ceiling equivalence pytest relies on that):
    ``big``'s columns, then ``small``'s non-key ones.  A null key matches
    nothing on either path (SQL and Ray-join semantics).  Neither path
    renames columns, so a non-key column on both sides raises
    ``ValueError`` before anything runs.
    """
    ceiling = (
        JOIN_BROADCAST_MAX_ROWS if broadcast_max_rows is None else broadcast_max_rows
    )
    r_key = on if right_on is None else right_on
    small = small.materialize()
    both = (set(big.columns() or ()) - {on}) & (set(small.columns() or ()) - {r_key})
    if both:
        raise ValueError(f"join_auto: non-key columns {sorted(both)} are on both sides")
    if small.count() <= ceiling:
        tbl = _collect(small)
        tbl = tbl.rename_columns([on if c == r_key else c for c in tbl.column_names])
        return lookup_join(big, tbl, on)
    return _drop_empty_blocks(
        _drop_empty_blocks(big).join(
            _drop_empty_blocks(small),
            join_type="inner",
            num_partitions=_n_parts(),
            on=(on,),
            right_on=(r_key,),
        )
    )


def semi_join(
    big: Dataset, keys: "pa.Array | np.ndarray | pd.Series", on: str, *, anti: bool = False
) -> Dataset:
    """Semi/anti join by broadcasting the key set (SURVEY.md J3/J5):
    ``ray.put`` the keys once, ``pc.is_in`` per block.
    A null key matches nothing, so its row fails a semi join and passes
    an anti join (SQL ``EXISTS`` / ``NOT EXISTS``)."""
    key_ref = ray.put(pa.array(keys))

    def filt(t: pa.Table) -> pa.Table:
        hit = pc.is_in(t[on], value_set=ray.get(key_ref), skip_nulls=True)
        return t.filter(pc.invert(hit) if anti else hit)

    return big.map_batches(filt, batch_format="pyarrow")


def semi_join_auto(
    big: Dataset,
    keys: "Dataset | pa.Array | np.ndarray | pd.Series",
    on: str,
    *,
    anti: bool = False,
    broadcast_max_rows: int | None = None,
) -> Dataset:
    """Size-gated semi/anti join over a key Dataset (first column) or
    array-like: :func:`semi_join` while the key set fits; above the
    ceiling, shuffle instead — distinct keys (``sorted_agg_by``) marked
    with a constant column, ``left_outer`` hash join, filter on the
    marker.  Deduping the key side first keeps the big side's cardinality
    exact (a duplicated key would otherwise fan out join rows).  A null
    key matches nothing on either path.  At 100 TB the crawl seen-set /
    staleness key set stops being broadcastable — this is the same
    escape hatch ``join_auto`` gives dimension joins.
    """
    import ray.data as rd

    ceiling = (
        JOIN_BROADCAST_MAX_ROWS if broadcast_max_rows is None else broadcast_max_rows
    )
    if not isinstance(keys, Dataset):
        keys = rd.from_arrow(pa.table({on: pa.array(keys)}))
    keys = keys.materialize()
    if keys.count() <= ceiling:
        return semi_join(big, _collect(keys).column(0), on, anti=anti)

    def as_marked(t: pa.Table) -> pa.Table:
        col = t.column(0)
        return pa.table({on: col, "__sj_marker": pa.array(np.ones(len(col), np.int8))})

    marked = sorted_agg_by(keys, keys.columns()[0], {}).map_batches(
        as_marked, batch_format="pyarrow", zero_copy_batch=True
    )
    joined = _drop_empty_blocks(big).join(
        _drop_empty_blocks(marked),
        join_type="left_outer",
        num_partitions=_n_parts(),
        on=(on,),
    )

    def finish(t: pa.Table) -> pa.Table:
        hit = pc.is_valid(t["__sj_marker"])
        return t.filter(pc.invert(hit) if anti else hit).drop_columns(["__sj_marker"])

    return _drop_empty_blocks(
        joined.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
    )


def count_by(ds: Dataset, keys: "list[str]", out_col: str) -> Dataset:
    """Rows per ``keys`` (SQL ``COUNT(*) GROUP BY``) as ``(*keys,
    out_col)``: the ``sorted_agg_by`` sum of an int64 ones column."""

    def ones(t: pa.Table) -> pa.Table:
        return t.select(keys).append_column(out_col, pa.array(np.ones(t.num_rows, np.int64)))

    return sorted_agg_by(ds.map_batches(ones, batch_format="pyarrow"), keys, {out_col: "sum"})


def tumbling_window_agg(
    events: Dataset,
    *,
    key: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window_s: int = 3600,
) -> Dataset:
    """Tumbling event-time windows per key (ordered-log semantics; no
    watermarks — the input is a bounded batch, SURVEY.md §2.9).

    Implemented as a vectorized window id + ``sorted_agg_by``:
    window = floor(epoch_seconds / window_s).  Window cardinality is
    keys × windows (hundreds of thousands at bench scale), the regime
    where Ray's per-group Python accumulators dominate (measured 68 s
    for 400k rows / 382k groups on the hopping variant; the sorted-agg
    path does the same merge in ~3 s).
    """

    def bucket(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t[ts_col], pa.int64()).to_numpy() // 1_000_000
        return pa.table(
            {
                key: t[key],
                "window": epoch // window_s,
                "win_sum": t[value_col],
                "win_n": np.ones(t.num_rows, np.int64),
            }
        )

    partials = events.map_batches(bucket, batch_format="pyarrow")
    return sorted_agg_by(partials, [key, "window"], {"win_sum": "sum", "win_n": "sum"})


def session_kernel(key: str, ts_col: str, gap_s: int):
    """Session windows over runs of ``key`` (sorted on ``(key, ts_col)``).
    Events and carried sessions are both ``(key, start, end, n)``
    fragments; a block's partial is its first and last session (a carry
    only meets it in a one-run block), the carry the session still open
    at a block's end."""

    def stitch(carry, frags):
        if carry is not None:
            frags = [np.concatenate([[c], f]) for c, f in zip((frags[0][0], *carry), frags)]
        u, s, e, n = frags
        brk = np.ones(len(u), bool)
        brk[1:] = (u[1:] != u[:-1]) | ((s[1:] - e[:-1]) > gap_s)
        i = np.flatnonzero(brk)
        return u[i], s[i], e[np.append(i[1:], len(u)) - 1], np.add.reduceat(n, i)

    def events(t: pa.Table):
        ep = pc.divide(pc.cast(t[ts_col], pa.int64()), 1_000_000)
        ep = ep.to_numpy(zero_copy_only=False).astype(np.int64)
        return t[key].to_numpy(zero_copy_only=False), ep, ep, np.ones(len(ep), np.int64)

    def summarize(t: pa.Table):
        sess = stitch(None, events(t))
        ends = np.unique([0, len(sess[0]) - 1])
        return [f[ends] for f in sess]

    def combine(carry, part):
        _, s, e, n = stitch(carry, part)
        return int(s[-1]), int(e[-1]), int(n[-1])

    def apply(t: pa.Table, carry, drops_tail: bool) -> pa.Table:
        u, s, e, n = (f[: len(f) - drops_tail] for f in stitch(carry, events(t)))
        return pa.table(
            {
                key: pa.array(u).cast(t.schema.field(key).type),
                "session_start": pa.array(s, pa.int64()),
                "session_end": pa.array(e, pa.int64()),
                "n_events": pa.array(n, pa.int64()),
            }
        )

    return summarize, combine, apply


def sessionize(
    events: Dataset,
    *,
    key: str = "user_id",
    ts_col: str = "ts",
    gap_s: int = 1800,
) -> Dataset:
    """Session windows per key: split each key's event stream on ts gaps
    > ``gap_s``.  A session is identified by its START epoch (unique per
    key, globally consistent without a per-key rank).

    Sort-based, NOT ``groupby().map_groups`` (one Python UDF call per
    key — at web scale one call per user): one range sort on (key, ts),
    vectorized numpy session breaks per block, and a session straddling
    block borders is carried into the block that closes it
    (:func:`session_kernel` on :func:`segments.segment_scan`)."""
    return segment_scan(events, [key], session_kernel(key, ts_col, gap_s), order=[ts_col])


def top_k(ds: Dataset, by: str, k: int, *, descending: bool = True) -> Dataset:
    """Global top-k: per-block partial top-k combiner, then one small sort.

    The full dataset is never totally sorted — each block contributes at
    most k rows to the final (driver-sized) sort.
    """

    def partial(batch: pd.DataFrame) -> pd.DataFrame:
        return batch.nlargest(k, by) if descending else batch.nsmallest(k, by)

    return ds.map_batches(partial, batch_format="pandas").sort(by, descending=descending).limit(k)


def _head_per_key(t: pa.Table, key: str, order: "list[tuple[str, str]]", quota) -> pa.Table:
    """The first ``quota`` rows of every ``key`` run of ``t`` stably
    sorted on ``(key, *order)``.  ``quota`` is an int, or a function of
    the sorted table giving each row its group's quota."""
    t = t.sort_by([(key, "ascending"), *order])
    starts = run_starts(t, [key])
    rank = np.arange(t.num_rows) - np.repeat(starts, np.diff(starts, append=t.num_rows))
    return t.filter(pa.array(rank < (quota(t) if callable(quota) else quota)))


def topk_per_group(
    ds: Dataset,
    key: str,
    order_col: str,
    k: int,
    *,
    descending: bool = True,
    tiebreak: str | None = None,
) -> Dataset:
    """PER-GROUP top-k (``row_number() OVER (PARTITION BY key ORDER BY
    order_col) <= k`` semantics) — the training-data curation staple
    "keep the k best documents per source/label/domain".

    Scale shape: a per-block partial top-k combiner bounds every block's
    contribution to ``groups_in_block × k`` rows, so only those partials
    shuffle; the exact finish runs as ``sorted_map_groups`` over the
    partials (each surviving group holds ≤ k × #blocks rows — bounded,
    never the group's full corpus slice).  The input stream is never
    globally sorted and no group's raw rows ever co-locate.

    ``tiebreak`` (ascending) makes the selection deterministic when
    ``order_col`` has duplicates — without it, which of the tied rows
    survives is block-layout-dependent (same caveat as SQL's ROW_NUMBER
    without a unique ORDER BY suffix).
    """

    order = [(order_col, "descending" if descending else "ascending")]
    order += [(tiebreak, "ascending")] if tiebreak else []

    def _topk(t: pa.Table) -> pa.Table:
        return _head_per_key(t, key, order, k)

    parts = ds.map_batches(_topk, batch_format="pyarrow", batch_size=None)
    return sorted_map_groups(parts, [key], _topk)


def hopping_window_agg(
    events: Dataset,
    *,
    key: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    window_s: int = 3600,
    hop_s: int = 900,
) -> Dataset:
    """HOPPING (sliding) event-time windows per key: window starts at
    every multiple of ``hop_s``, each ``window_s`` long, so an event
    belongs to ``ceil(window_s / hop_s)`` overlapping windows
    (tumbling == hop_s = window_s).

    Same scale shape as :func:`tumbling_window_agg`: the explode runs
    inside the map task and ``sorted_agg_by``'s per-block aggregate
    bounds what shuffles to (keys × windows) per block — the raw event
    stream never crosses the exchange.  Bounded-batch semantics (no
    watermarks), floored-second event time.
    """
    n_win = -(-window_s // hop_s)

    def bucket(t: pa.Table) -> pa.Table:
        epoch = pc.cast(t[ts_col], pa.int64()).to_numpy() // 1_000_000
        base = (epoch // hop_s) * hop_s  # latest window start containing t
        starts = base[:, None] - np.arange(n_win)[None, :] * hop_s
        valid = starts > (epoch[:, None] - window_s)
        idx = np.repeat(np.arange(t.num_rows), n_win)[valid.ravel()]
        return pa.table(
            {
                key: t[key].take(idx),
                "win_start": starts.ravel()[valid.ravel()],
                "win_sum": t[value_col].take(idx),
                "win_n": np.ones(len(idx), np.int64),
            }
        )

    partials = events.map_batches(bucket, batch_format="pyarrow")
    return sorted_agg_by(
        partials, [key, "win_start"], {"win_sum": "sum", "win_n": "sum"}
    )


def prefix_sum_kernel(
    key: str, value_col: str, order_col: str, *, out_col: str = "prefix_sum", exclusive: bool = False
):
    """Running per-key sum over a ``(key, order_col)``-sorted stream: the
    carry is ``(sum of the key's earlier rows, last order value)``.  The
    one validation point: a duplicate ``(key, order)`` pair, inside a
    block or across a border, raises ``ValueError``."""

    def ints(t: pa.Table) -> np.ndarray:
        return t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)

    def summarize(t: pa.Table):
        return int(ints(t)[run_starts(t, [key])[-1] :].sum()), t[order_col][-1].as_py()

    def combine(carry, part):
        return part if carry is None else (carry[0] + part[0], part[1])

    def apply(t: pa.Table, carry, drops_tail: bool) -> pa.Table:
        if len(run_starts(t, [key, order_col])) < t.num_rows or (
            carry is not None and carry[1] == t[order_col][0].as_py()
        ):
            raise ValueError(
                f"group_prefix_sum: ({key}, {order_col}) must be unique per group — "
                f"add a tiebreak column to the order key"
            )
        v = ints(t)
        starts = run_starts(t, [key])
        ends = np.append(starts[1:], len(v))
        cum = np.cumsum(v)
        inc = cum - np.repeat(cum[starts] - v[starts], ends - starts)
        if carry is not None:
            inc[: ends[0]] += carry[0]
        return t.append_column(out_col, pa.array(inc - v if exclusive else inc, pa.int64()))

    return summarize, combine, apply


def group_prefix_sum(
    ds: Dataset,
    key: str,
    value_col: str,
    order_col: str,
    *,
    out_col: str = "prefix_sum",
    exclusive: bool = False,
) -> Dataset:
    """Distributed per-group PREFIX SUM (SQL's ``SUM(v) OVER (PARTITION
    BY key ORDER BY order ROWS UNBOUNDED PRECEDING)``) — the scan
    primitive behind sequence packing ("fill 2048-token windows per
    source"), running budgets and cumulative quotas.

    Scale shape: one range sort on (key, order), a vectorized segmented
    cumsum per block, and the sum a key accumulated in earlier blocks as
    the carry that offsets its head run (:func:`prefix_sum_kernel` on
    :func:`segments.segment_scan`).  ``order_col`` must be unique per
    key: a duplicate (key, order) pair raises ``ValueError``.  Rows
    never leave their block after the sort; no per-group Python.

    ``exclusive=True`` returns the sum of STRICTLY PRIOR rows (the
    packing form: ``window = prefix_before // budget``).
    """
    kernel = prefix_sum_kernel(key, value_col, order_col, out_col=out_col, exclusive=exclusive)
    return segment_scan(ds, [key], kernel, order=[order_col])


def zscore_per_group(
    ds: Dataset,
    key: str,
    value_col: str,
    *,
    out_col: str = "z",
    nd: int = 4,
) -> Dataset:
    """Per-group z-score normalization (``(x - mean_g) / stddev_samp_g``)
    — the feature-scaling / outlier-trim curation step.

    Scale shape (aggregate-then-rejoin enrichment): per-row
    ``(key, x, x², 1)`` moments → ``sorted_agg_by`` (only one partial
    row per key per block shuffles) → the keys-cardinality
    moments table rejoins the raw stream through size-gated
    :func:`join_auto` (broadcast under the ceiling, partitioned hash
    join above).  The raw rows are never shuffled in the broadcast
    regime.  Sample stddev (n-1); single-row groups get NaN like SQL's
    ``STDDEV_SAMP`` returns NULL.
    """

    def moments(t: pa.Table) -> pa.Table:
        v = pc.cast(t[value_col], pa.float64())
        n = np.ones(t.num_rows, np.int64)
        return pa.table({key: t[key], "_s": v, "_ss": pc.multiply(v, v), "_n": n})

    stats = sorted_agg_by(
        ds.map_batches(moments, batch_format="pyarrow"),
        key,
        {"_s": "sum", "_ss": "sum", "_n": "sum"},
    )

    joined = join_auto(ds, stats, on=key)

    def finish(t: pa.Table) -> pa.Table:
        v, s, ss, n = (_np(t, c, np.float64) for c in (value_col, "_s", "_ss", "_n"))
        mean = s / n
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (ss - s * s / n) / (n - 1.0)
            std = np.sqrt(np.maximum(var, 0.0))
            z = np.round((v - mean) / std, nd)
        return t.drop_columns(["_s", "_ss", "_n"]).append_column(out_col, pa.array(z))

    return joined.map_batches(finish, batch_format="pyarrow")


def stratified_sample(
    ds: Dataset,
    key: str,
    num: int,
    den: int,
    order_col: str,
    *,
    broadcast_max_rows: int | None = None,
) -> Dataset:
    """Deterministic stratified downsampling: keep the first
    ``ceil(n_g * num / den)`` rows of each group in ``order_col`` order
    — the domain-mix rebalancing step ("cap every source at 10%").

    The fraction is a RATIO OF INTS so the per-group quota is exact
    integer arithmetic on both engines (a float ``frac * n`` differs
    between binary doubles and SQL decimals at boundaries).

    Scale shape: ``sorted_agg_by`` counts (one row per key) → counts
    rejoin the stream through
    size-gated :func:`join_auto` → per-block pruning caps each block's
    contribution at ``quota_g`` rows per group → ``sorted_map_groups``
    exact finish over the bounded survivors.  No global sort; raw rows
    shuffle only in the above-ceiling join regime.  ``order_col`` must
    be unique per group (e.g. a doc id) for a deterministic sample.
    """

    n_by_key = count_by(ds, [key], "_n")
    joined = join_auto(
        ds, n_by_key, on=key, broadcast_max_rows=broadcast_max_rows
    )

    def quota(t: pa.Table) -> np.ndarray:
        return (t["_n"].to_numpy().astype(np.int64) * num + den - 1) // den

    def head_quota(t: pa.Table) -> pa.Table:
        return _head_per_key(t, key, [(order_col, "ascending")], quota)

    parts = joined.map_batches(head_quota, batch_format="pyarrow", batch_size=None)

    def finish(g: pa.Table) -> pa.Table:
        return head_quota(g).drop_columns(["_n"])

    return sorted_map_groups(parts, [key], finish)


def asof_join(
    left: Dataset,
    right: Dataset,
    *,
    key: str,
    ts_col: str = "ts",
    how: str = "inner",
    direction: str = "backward",
    suffix: str = "_r",
) -> Dataset:
    """AS-OF join: for each left row, attach the single right row with
    the same ``key`` and the latest right ``ts_col`` <= the left row's
    (``direction="backward"``; ``"forward"`` takes the earliest >=).
    Semantics match DuckDB's ``ASOF JOIN`` (the time-series staple Ray
    Data has no native operator for).

    Scale shape: neither side is broadcast or materialized — both
    streams are tagged, union'd, and range-sorted ONCE on ``key``
    (``sorted_map_groups``), then each key's merge is a vectorized
    ``searchsorted`` over its sorted timestamps; a group that straddles
    blocks is completed whole in its last block.  Only
    that one sort-shuffle moves data, the same cost as any keyed join.

    Timestamp columns are normalized to int64 (epoch µs for datetimes)
    in the output; the matched right timestamp comes back as
    ``f"{ts_col}{suffix}"``.  Under ``how="left"`` an unmatched row's
    right columns are null in their own type (an int64 column stays
    int64).  With duplicate right timestamps for one
    (key, ts) the surviving row is input-order-dependent — dedup the
    right side first (e.g. ``sorted_agg_by`` max) for determinism, as
    SQL's ASOF does implicitly by picking an arbitrary peer.
    """
    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction {direction!r}")
    if how not in ("inner", "left"):
        raise ValueError(f"unknown how {how!r}")

    _ls, _rs = left.schema(), right.schema()
    l_types = dict(zip(_ls.names, _ls.types))
    r_types = dict(zip(_rs.names, _rs.types))
    l_cols = list(_ls.names)
    r_val_cols = [c for c in _rs.names if c not in (key, ts_col)]
    # right columns colliding with left names get the suffix; the right
    # timestamp always comes along (for lag computation) under suffix
    r_out = {c: (c + suffix if c in l_cols else c) for c in r_val_cols}
    r_ts_out = ts_col + suffix
    r_cols_out = [r_ts_out] + [r_out[c] for c in r_val_cols]

    def _arrow_type(field_type):
        return pa.int64() if pa.types.is_timestamp(field_type) else field_type

    # one Arrow schema for both tagged sides, so they union cleanly
    uni = pa.schema(
        [pa.field(key, _arrow_type(l_types[key]))]
        + [pa.field(ts_col, pa.int64())]
        + [
            pa.field(c, _arrow_type(l_types[c]))
            for c in l_cols
            if c not in (key, ts_col)
        ]
        + [pa.field(r_ts_out, pa.int64())]
        + [pa.field(r_out[c], _arrow_type(r_types[c])) for c in r_val_cols]
        + [pa.field("__side", pa.int8())]
    )

    def _as(col, t):
        # timestamps of any unit → epoch µs (explicit, truncating)
        if pa.types.is_timestamp(col.type):
            col = pc.cast(col, pa.timestamp("us", col.type.tz), safe=False)
        return col.cast(t)

    def tagger(side: int, names: "dict[str, str]"):
        def tag(b: pa.Table) -> pa.Table:
            cols = [
                _as(b[names[f.name]], f.type) if f.name in names else pa.nulls(b.num_rows, f.type)
                for f in uni
            ]
            cols[-1] = pa.array(np.full(b.num_rows, side, np.int8))
            return pa.Table.from_arrays(cols, schema=uni)

        return tag

    tag_left = tagger(1, {c: c for c in l_cols})
    tag_right = tagger(0, {key: key, r_ts_out: ts_col, **{v: c for c, v in r_out.items()}})
    tagged = _drop_empty_blocks(
        left.map_batches(tag_left, batch_format="pyarrow")
    ).union(_drop_empty_blocks(right.map_batches(tag_right, batch_format="pyarrow")))

    back = direction == "backward"

    def merge(g: pa.Table) -> pa.Table:
        is_l = pc.equal(g["__side"], 1)
        l, r = g.filter(is_l), g.filter(pc.invert(is_l))
        lts = l[ts_col].to_numpy()
        order = np.argsort(r[r_ts_out].to_numpy(), kind="stable")
        rts = r[r_ts_out].to_numpy()[order]
        if back:
            idx = np.searchsorted(rts, lts, side="right") - 1
            ok = idx >= 0
        else:
            idx = np.searchsorted(rts, lts, side="left")
            ok = idx < len(rts)
        if how == "inner":
            l, take = l.filter(pa.array(ok)), pa.array(order[idx[ok]])
        else:
            # a miss is a null index: its right columns come back null
            # in their own type
            pos = np.where(ok, idx, 0)
            take = pa.array(order[pos] if len(order) else pos, mask=~ok)
        rt = r.select(r_cols_out).take(take)
        return pa.Table.from_arrays(
            [l[c] for c in l_cols] + rt.columns, names=l_cols + r_cols_out
        )

    return sorted_map_groups(tagged, [key], merge)


def interval_join(
    points: Dataset,
    intervals: Dataset,
    *,
    ts_col: str,
    start_col: str,
    end_col: str,
    bin_width: int,
    broadcast_max_rows: int | None = None,
) -> Dataset:
    """Range (interval-containment) join: every point row joins every
    interval row with ``start <= ts < end`` — no equality key at all,
    the shape Ray Data's hash ``join`` cannot express.

    Scale shape (the standard bin-replication recipe): each interval
    replicates to the coarse time bins it overlaps
    (``(end - start) / bin_width + 1`` copies — pick ``bin_width`` near
    the typical interval length to bound the fan-out); each point maps
    to exactly ONE bin, so the equi-join on the bin column introduces
    no duplicates; an exact containment filter finishes.  The join
    itself routes through :func:`join_auto`, so a small interval set
    broadcasts (``ray.put`` once) and a large one falls back to the
    partitioned hash join — the point stream never shuffles in the
    broadcast regime.

    All three range columns must be int64-comparable (cast timestamps
    to epoch µs upstream); ``end_col`` is exclusive.  As in
    :func:`join_auto`, a non-key column on both sides raises
    ``ValueError``.
    """

    def explode(t: pa.Table) -> pa.Table:
        s = _np(t, start_col, np.int64) // bin_width
        e = (_np(t, end_col, np.int64) - 1) // bin_width
        reps = (e - s + 1).clip(min=0)
        idx = np.repeat(np.arange(t.num_rows), reps)
        # per-row bin offsets 0..reps-1, vectorized
        offs = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        return t.take(idx).append_column("__bin", pa.array(s[idx] + offs))

    def add_bin(t: pa.Table) -> pa.Table:
        return t.append_column("__bin", pa.array(_np(t, ts_col, np.int64) // bin_width))

    joined = join_auto(
        points.map_batches(add_bin, batch_format="pyarrow"),
        intervals.map_batches(explode, batch_format="pyarrow"),
        on="__bin",
        broadcast_max_rows=broadcast_max_rows,
    )

    def finish(t: pa.Table) -> pa.Table:
        ts = _np(t, ts_col, np.int64)
        keep = (_np(t, start_col, np.int64) <= ts) & (ts < _np(t, end_col, np.int64))
        return t.filter(pa.array(keep)).drop_columns(["__bin"])

    return _drop_empty_blocks(joined.map_batches(finish, batch_format="pyarrow"))


def quantile_per_group(
    ds: Dataset,
    key: str,
    value_col: str,
    q: float = 0.5,
    *,
    out_col: str | None = None,
    nd: int = 6,
) -> Dataset:
    """EXACT per-group continuous quantile (``quantile_cont`` / numpy
    'linear', the type-7 convention DuckDB and pandas share) — the
    distribution-stats curation op ("median document length per
    source").

    Scale shape: a ``(key, value) → count`` HISTOGRAM through
    ``sorted_agg_by`` (cardinality = keys × distinct values — bounded
    for ints/rounded floats, never the row count), then the interpolated
    quantile per key from cumulative counts.  Only per-block histogram
    rows shuffle; for unbounded-cardinality floats, quantize
    ``value_col`` first (the histogram is the contract).
    """
    out_col = out_col or f"q{int(q * 100)}"
    hist = count_by(ds, [key, value_col], "cnt")

    def qtile(g: pa.Table) -> pa.Table:
        g = g.sort_by(value_col)
        c = g["cnt"].to_numpy().astype(np.int64)
        v = g[value_col].to_numpy().astype(np.float64)
        n = int(c.sum())
        pos = q * (n - 1)
        cum = np.cumsum(c)
        lo = int(np.searchsorted(cum, np.floor(pos), side="right"))
        hi = int(np.searchsorted(cum, np.ceil(pos), side="right"))
        frac = pos - np.floor(pos)
        val = v[lo] * (1.0 - frac) + v[hi] * frac
        return pa.table({key: g[key].slice(0, 1), out_col: [round(val, nd)]})

    return sorted_map_groups(hist, [key], qtile)


def _check_hex_cut(cut, nchars: int, what: str) -> None:
    """A cut compares against an ``nchars``-char lowercase md5 hex prefix;
    any other length or alphabet silently misbuckets every row."""
    import re

    if not (isinstance(cut, str) and re.fullmatch(f"[0-9a-f]{{{nchars}}}", cut)):
        raise ValueError(
            f"{what} must be exactly {nchars} lowercase hex chars, got {cut!r}"
        )


def hash_sample(ds: Dataset, on: str, *, max_hex: str = "28", nchars: int = 2) -> Dataset:
    """Deterministic content-hash downsampling: keep rows whose
    ``md5(str(key))`` hex prefix sorts below ``max_hex`` — the standard
    "sample p% of the corpus reproducibly, independent of block layout /
    cluster size / run order" curation op (a seeded ``random_sample``
    changes membership whenever the partitioning does; a key-hash rule
    never does, so reruns, resumes and incremental pulls agree on the
    sample).

    ``nchars=2`` gives 256 equal-probability buckets; ``max_hex="28"``
    (0x28 = 40) keeps ≈ 40/256 = 15.6 %.  Lowercase-hex string order ==
    numeric order, so the rule is expressible identically in SQL
    (``substr(md5(k), 1, 2) < '28'``) — md5 is the one hash both engines
    share bit-for-bit, which is why it is the oracle contract here; the
    per-row digest cost is ~16 B of hashing per key (trivial next to any
    text kernel).  Embarrassingly parallel: a pure per-batch filter, no
    shuffle, no state.
    """
    import hashlib

    _check_hex_cut(max_hex, nchars, "hash_sample max_hex")

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        keys = b[on].astype(str)
        mask = np.fromiter(
            (
                hashlib.md5(k.encode("utf-8")).hexdigest()[:nchars] < max_hex
                for k in keys
            ),
            dtype=bool,
            count=len(b),
        )
        return b[mask]

    return ds.map_batches(filt, batch_format="pandas")


def ntile_per_group(
    ds: Dataset,
    key: str,
    order_cols: list[str],
    k: int,
    *,
    out_col: str = "bucket",
) -> Dataset:
    """Distributed per-group NTILE (SQL ``NTILE(k) OVER (PARTITION BY key
    ORDER BY ...)``) — equal-count discretization ("bucket documents
    into length quartiles per source"), the rank-based complement of
    ``quantile_per_group``'s value-based cuts.

    Exact SQL remainder semantics: with n rows and k buckets the first
    ``n % k`` buckets hold ``n // k + 1`` rows, the rest ``n // k``.

    The order key must be unique per group, as for a deterministic SQL
    NTILE: add a tiebreak column (e.g. the row id) as the second order
    column.  A duplicate (key, order) pair raises ``ValueError`` — ranks
    of tied rows would otherwise depend on the block layout.

    Scale shape: the composite order key packs into ONE int64 (bounds
    asserted — the ADVICE narrowing lesson: never pack silently), ranks
    come from ``group_prefix_sum`` (one range-sort + segmented cumsum +
    O(#blocks) carry chain — rows never leave their block after the
    sort), group counts are a bounded ``count_by`` table rejoined
    through size-gated ``join_auto``, and the bucket formula is pure
    vectorized arithmetic.  No per-group Python anywhere.
    """
    if not (1 <= len(order_cols) <= 2):
        raise ValueError("order_cols must be 1 or 2 columns")

    def pack(t: pa.Table) -> pa.Table:
        ord_ = _np(t, order_cols[0], np.int64)
        if len(order_cols) == 2:
            hi, lo = ord_, _np(t, order_cols[1], np.int64)
            if t.num_rows and (
                hi.min() < 0 or lo.min() < 0 or hi.max() >= 1 << 31 or lo.max() >= 1 << 32
            ):
                raise ValueError(
                    f"ntile_per_group: order cols exceed the 31+32-bit pack "
                    f"budget (max {hi.max()}/{lo.max()})"
                )
            ord_ = (hi << 32) | lo
        return t.append_column("_ord", pa.array(ord_)).append_column(
            "_one", pa.array(np.ones(t.num_rows, np.int64))
        )

    ranked = group_prefix_sum(
        ds.map_batches(pack, batch_format="pyarrow"), key, "_one", "_ord", out_col="_rank"
    )

    joined = join_auto(ranked, count_by(ranked, [key], "_n"), on=key)

    def bucketize(t: pa.Table) -> pa.Table:
        r = _np(t, "_rank", np.int64) - 1  # 0-based rank
        n = _np(t, "_n", np.int64)
        q, rem = n // k, n % k
        big_span = rem * (q + 1)  # rows covered by the (q+1)-sized buckets
        in_big = r < big_span
        # guard the q==0 division (n < k: every row lands in a big bucket)
        q_safe = np.maximum(q, 1)
        bucket = np.where(in_big, r // (q + 1), rem + (r - big_span) // q_safe) + 1
        return t.drop_columns(["_ord", "_one", "_rank", "_n"]).append_column(
            out_col, pa.array(bucket.astype(np.int64))
        )

    return joined.map_batches(bucketize, batch_format="pyarrow")


def hash_split(
    ds: Dataset,
    on: str,
    cuts: list[tuple[str, str]] | None = None,
    default_label: str = "test",
    *,
    out_col: str = "split",
) -> Dataset:
    """Deterministic train/val/test split assignment: label each row by
    where ``md5(str(key))``'s 2-hex prefix falls among ordered cut
    points — the dataset-split contract every training pipeline needs to
    be REPRODUCIBLE (membership is a pure function of the key: stable
    across block layouts, cluster sizes, reruns and incremental pulls,
    so a document can never migrate between train and eval when the
    corpus is re-partitioned — the leakage mode a seeded random split
    invites).

    ``cuts`` is ordered ``[(label, upper_hex_exclusive), ...]``; the
    default ``[("train", "cc"), ("val", "e6")]`` + ``"test"`` gives
    ≈ 80/10/10 (204/26/26 of 256 buckets).  Same md5-prefix rule as
    ``hash_split``'s filtering sibling ``hash_sample`` — expressible
    verbatim in SQL as a CASE over ``substr(md5(k), 1, 2)``.  Pure
    per-batch map, no shuffle, no state.
    """
    import hashlib

    cuts = [("train", "cc"), ("val", "e6")] if cuts is None else cuts
    bounds = [c[1] for c in cuts]
    labels = np.array([c[0] for c in cuts] + [default_label])
    for b in bounds:
        _check_hex_cut(b, 2, "hash_split cut")
    if bounds != sorted(bounds):
        raise ValueError("hash_split cut points must be ascending")

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        keys = b[on].astype(str)
        pref = [hashlib.md5(k.encode("utf-8")).hexdigest()[:2] for k in keys]
        idx = np.searchsorted(np.array(bounds), np.array(pref, dtype=object), side="right")
        out = b.copy()
        out[out_col] = labels[idx]
        return out

    return ds.map_batches(assign, batch_format="pandas")


def corr_per_group(
    ds: Dataset,
    key: str,
    x_col: str,
    y_col: str,
    *,
    out_col: str = "corr",
    nd: int = 4,
) -> Dataset:
    """Per-group Pearson correlation (SQL ``corr(x, y) GROUP BY key``) —
    the CO-moment aggregation pattern (``zscore_per_group`` covers
    single-variable moments): per-row ``(1, x, y, x², y², xy)`` into a
    keys-cardinality ``sorted_agg_by`` over those six sums, and a
    vectorized closed-form finish.  The raw rows never shuffle and
    nothing driver-side scales with the corpus.

    Numerical contract: the closed form ``(nΣxy−ΣxΣy)/√((nΣx²−Σx²)(nΣy²−Σy²))``
    is algebraically DuckDB's ``covar_samp/(stddev·stddev)`` but
    catastrophically cancels when a column's magnitude dwarfs its
    variance (epoch timestamps!) — CENTER such columns first
    (correlation is translation-invariant; see ``q_event_corr``).
    Groups with zero variance yield NaN (SQL NULL).
    """

    def moments(t: pa.Table) -> pa.Table:
        x = t[x_col].to_numpy().astype(np.float64)
        y = t[y_col].to_numpy().astype(np.float64)
        n = np.ones(t.num_rows, np.int64)
        return pa.table(
            {key: t[key], "_n": n, "_sx": x, "_sy": y, "_sxx": x * x, "_syy": y * y, "_sxy": x * y}
        )

    sums = sorted_agg_by(
        ds.map_batches(moments, batch_format="pyarrow"),
        key,
        {c: "sum" for c in ["_n", "_sx", "_sy", "_sxx", "_syy", "_sxy"]},
    )

    def finish(t: pa.Table) -> pa.Table:
        n, sx, sy, sxx, syy, sxy = (
            _np(t, c, np.float64) for c in ["_n", "_sx", "_sy", "_sxx", "_syy", "_sxy"]
        )
        var = (n * sxx - sx * sx) * (n * syy - sy * sy)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(var > 0, (n * sxy - sx * sy) / np.sqrt(var), np.nan)
        return pa.table({key: t[key], out_col: np.round(r, nd)})

    return sums.map_batches(finish, batch_format="pyarrow")


def lag_kernel(key: str, value_col: str, *, out_col: str = "lag"):
    """Previous row's value within runs of ``key``: the carry is the last
    value of the key's earlier blocks.  The one validation point: a
    non-numeric ``value_col`` raises ``ValueError``."""

    def summarize(t: pa.Table):
        return t[value_col][-1].as_py()

    def combine(carry, part):
        return part

    def apply(t: pa.Table, carry, drops_tail: bool) -> pa.Table:
        vt = t.schema.field(value_col).type
        if not (pa.types.is_integer(vt) or pa.types.is_floating(vt) or pa.types.is_boolean(vt)):
            raise ValueError(f"lag_per_group: value_col {value_col!r} must be numeric, got {vt}")
        v = pc.cast(t[value_col], pa.float64()).to_numpy(zero_copy_only=False)
        lag = np.concatenate([[np.nan if carry is None else carry], v[:-1]])
        lag[run_starts(t, [key])[1:]] = np.nan
        return t.append_column(out_col, pa.array(lag, pa.float64()))

    return summarize, combine, apply


def lag_per_group(
    ds: Dataset,
    key: str,
    order_cols: list[str],
    value_col: str,
    *,
    out_col: str = "lag",
) -> Dataset:
    """Distributed per-group LAG (SQL ``LAG(v) OVER (PARTITION BY key
    ORDER BY ...)``) — window NAVIGATION, the primitive behind deltas /
    time-since-last / change detection per entity.

    Scale shape: one range sort on (key, *order), a per-block vectorized
    shift within key runs, and a straddling run's last value carried
    into the next block's head row (:func:`lag_kernel` on
    :func:`segments.segment_scan`).  Rows never leave their block after
    the sort; the first row of each group lags NaN (SQL NULL).
    ``order_cols`` must be unique per key (add a tiebreak id, exactly
    like SQL's deterministic-LAG requirement).  ``value_col`` must be
    numeric (integer, float or bool): the lag column is float64.
    """
    return segment_scan(ds, [key], lag_kernel(key, value_col, out_col=out_col), order=order_cols)
