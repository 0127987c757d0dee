"""Relational operators: broadcast joins, grouped aggregates, windows.

The reference's joins are all small-side lookups (SURVEY.md §2.4), so the
primary join here is the broadcast hash join (``ray.put`` the dimension
table once, pandas merge per batch).  Every keyed sum / count / min / max
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
    _drop_empty_blocks,
    run_starts,
    segment_scan,
    sorted_agg_by,
    sorted_map_groups,
)


def broadcast_join(
    big: Dataset,
    small: pd.DataFrame,
    on: str | list[str],
    *,
    how: str = "inner",
    suffix: str = "_r",
) -> Dataset:
    """Broadcast hash join: the small side ships once via ``ray.put`` and
    is merged per batch — no shuffle of the big side."""
    small_ref = ray.put(small)

    def join(batch: pd.DataFrame) -> pd.DataFrame:
        s = ray.get(small_ref)
        return batch.merge(s, on=on, how=how, suffixes=("", suffix))

    return big.map_batches(join, batch_format="pandas")


#: broadcast ceiling for join_auto, in small-side ROWS.  ~5M dimension rows
#: ≈ a few hundred MB replicated into each map task's heap — past that the
#: small side is not broadcastable and the join must shuffle.  Same
#: auto-switch idea as canonicalize's `canon_broadcast_max_pairs`.
JOIN_BROADCAST_MAX_ROWS = 5_000_000


def join_auto(
    big: Dataset,
    small: "Dataset | pd.DataFrame",
    on: str | list[str],
    *,
    right_on: str | list[str] | None = None,
    how: str = "inner",
    suffix: str = "_r",
    broadcast_max_rows: int | None = None,
) -> Dataset:
    """Size-gated join (round-4 verdict item 5): broadcast the small side
    while it fits under ``broadcast_max_rows``; above the ceiling, fall
    back to Ray's hash-partitioned ``Dataset.join`` — the same
    broadcast→distributed escape hatch ``canonicalize_stage_joined`` uses
    for oversized alias sets.  At 100× sf the TPC-H ``customer`` table
    stops being a broadcastable side; this keeps ``q_segment_revenue``
    (and any dimension join) correct there without rewriting the query.

    ``right_on`` maps differently-named key columns; the right side is
    renamed to the left names in BOTH paths so the output schema is
    identical regardless of which path ran (the forced-ceiling
    equivalence pytest relies on that).
    """
    import ray.data as rd

    ceiling = (
        JOIN_BROADCAST_MAX_ROWS if broadcast_max_rows is None else broadcast_max_rows
    )
    on_keys = [on] if isinstance(on, str) else list(on)
    r_keys = (
        on_keys
        if right_on is None
        else ([right_on] if isinstance(right_on, str) else list(right_on))
    )
    is_ds = isinstance(small, Dataset)
    n_small = small.count() if is_ds else len(small)

    if n_small <= ceiling:
        sdf = small.to_pandas() if is_ds else small
        if r_keys != on_keys:
            sdf = sdf.rename(columns=dict(zip(r_keys, on_keys)))
        return broadcast_join(big, sdf, on=on, how=how, suffix=suffix)

    small_ds = small if is_ds else rd.from_pandas(small)
    if r_keys != on_keys:
        ren = dict(zip(r_keys, on_keys))

        def _rn(t):
            return t.rename_columns([ren.get(c, c) for c in t.column_names])

        small_ds = small_ds.map_batches(_rn, batch_format="pyarrow", zero_copy_batch=True)
    # each hash-join partition wants an aggregator actor (globally capped
    # at 64): more partitions than schedulable actors deadlocks on small
    # clusters (num_blocks() is unavailable on a lazy Dataset, so the CPU
    # count is the sizing signal)
    n_parts = min(64, max(2, int(ray.cluster_resources().get("CPU", 8))))
    join_type = {"inner": "inner", "left": "left_outer"}.get(how, how)
    return _drop_empty_blocks(
        _drop_empty_blocks(big).join(
            _drop_empty_blocks(small_ds),
            join_type=join_type,
            num_partitions=n_parts,
            on=tuple(on_keys),
            right_suffix=suffix,
        )
    )


def semi_join(big: Dataset, keys: pd.Series | np.ndarray, on: str, *, anti: bool = False) -> Dataset:
    """Semi/anti join by broadcasting the key set (SURVEY.md J3/J5)."""
    key_ref = ray.put(np.unique(np.asarray(keys)))

    def filt(batch: pd.DataFrame) -> pd.DataFrame:
        ks = ray.get(key_ref)
        mask = batch[on].isin(ks)
        return batch[~mask] if anti else batch[mask]

    return big.map_batches(filt, batch_format="pandas")


def semi_join_auto(
    big: Dataset,
    keys: "Dataset | pd.Series | np.ndarray",
    on: str,
    *,
    anti: bool = False,
    broadcast_max_rows: int | None = None,
) -> Dataset:
    """Size-gated semi/anti join: broadcast the key set while it fits
    (the J3/D3 pattern — ``ray.put`` once, ``isin`` per batch); above the
    ceiling, shuffle instead — distinct keys (``sorted_agg_by``) marked
    with a constant column, ``left_outer`` hash join, filter on the
    marker.  Deduping the key side first keeps the big side's cardinality
    exact (a duplicated key would otherwise fan out join rows).  At 100 TB
    the crawl seen-set / staleness key set stops being broadcastable —
    this is the same escape hatch ``join_auto`` gives dimension joins.
    """
    import ray.data as rd

    ceiling = (
        JOIN_BROADCAST_MAX_ROWS if broadcast_max_rows is None else broadcast_max_rows
    )
    is_ds = isinstance(keys, Dataset)
    n_keys = keys.count() if is_ds else len(keys)
    if n_keys <= ceiling:
        arr = (
            keys.to_pandas().iloc[:, 0].to_numpy() if is_ds else np.asarray(keys)
        )
        return semi_join(big, arr, on, anti=anti)

    keys_ds = keys if is_ds else rd.from_pandas(pd.DataFrame({on: np.asarray(keys)}))

    def as_marked(t):
        import pyarrow as pa

        col = t.column(0)
        return pa.table({on: col, "__sj_marker": pa.array([1] * len(col), pa.int8())})

    marked = sorted_agg_by(keys_ds, keys_ds.schema().names[0], {}).map_batches(
        as_marked, batch_format="pyarrow", zero_copy_batch=True
    )
    n_parts = min(64, max(2, int(ray.cluster_resources().get("CPU", 8))))
    joined = _drop_empty_blocks(big).join(
        _drop_empty_blocks(marked),
        join_type="left_outer",
        num_partitions=n_parts,
        on=(on,),
    )

    def finish(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        hit = pc.is_valid(t["__sj_marker"])
        keep = pc.invert(hit) if anti else hit
        return t.filter(keep).drop_columns(["__sj_marker"])

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

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        v = b[value_col].to_numpy(np.float64)
        s = b["_s"].to_numpy(np.float64)
        ss = b["_ss"].to_numpy(np.float64)
        n = b["_n"].to_numpy(np.float64)
        mean = s / n
        with np.errstate(invalid="ignore", divide="ignore"):
            var = (ss - s * s / n) / (n - 1.0)
            std = np.sqrt(np.maximum(var, 0.0))
            z = np.round((v - mean) / std, nd)
        out = b.drop(columns=["_s", "_ss", "_n"]).reset_index(drop=True)
        out[out_col] = z
        return out

    return joined.map_batches(finish, batch_format="pandas")


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
    intervals: "Dataset | pd.DataFrame",
    *,
    ts_col: str,
    start_col: str,
    end_col: str,
    bin_width: int,
    broadcast_max_rows: int | None = None,
    suffix: str = "_r",
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
    to epoch µs upstream); ``end_col`` is exclusive.
    """
    import ray.data as rd

    def explode(b: pd.DataFrame) -> pd.DataFrame:
        s = b[start_col].to_numpy(np.int64) // bin_width
        e = (b[end_col].to_numpy(np.int64) - 1) // bin_width
        reps = (e - s + 1).clip(min=0)
        idx = np.repeat(np.arange(len(b)), reps)
        out = b.iloc[idx].reset_index(drop=True)
        # per-row bin offsets 0..reps-1, vectorized
        offs = np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)
        out["__bin"] = s[idx] + offs
        return out

    if isinstance(intervals, Dataset):
        iv = intervals.map_batches(explode, batch_format="pandas")
    else:
        iv = rd.from_pandas(explode(intervals))

    def add_bin(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__bin"] = b[ts_col].to_numpy(np.int64) // bin_width
        return b

    binned = points.map_batches(add_bin, batch_format="pandas")
    joined = join_auto(
        binned, iv, on="__bin", suffix=suffix, broadcast_max_rows=broadcast_max_rows
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        ts = b[ts_col].to_numpy(np.int64)
        keep = (b[start_col].to_numpy(np.int64) <= ts) & (
            ts < b[end_col].to_numpy(np.int64)
        )
        return b[keep].drop(columns=["__bin"])

    return _drop_empty_blocks(joined.map_batches(finish, batch_format="pandas"))


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

    def pack(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        if len(order_cols) == 1:
            b["_ord"] = b[order_cols[0]].astype("int64")
        else:
            hi = b[order_cols[0]].to_numpy(np.int64)
            lo = b[order_cols[1]].to_numpy(np.int64)
            if len(b) and (
                hi.min() < 0 or lo.min() < 0 or hi.max() >= 1 << 31 or lo.max() >= 1 << 32
            ):
                raise ValueError(
                    f"ntile_per_group: order cols exceed the 31+32-bit pack "
                    f"budget (max {hi.max() if len(hi) else 0}/{lo.max() if len(lo) else 0})"
                )
            b["_ord"] = (hi << 32) | lo
        b["_one"] = np.int64(1)
        return b

    ranked = group_prefix_sum(
        ds.map_batches(pack, batch_format="pandas"), key, "_one", "_ord", out_col="_rank"
    )

    joined = join_auto(ranked, count_by(ranked, [key], "_n"), on=key)

    def bucketize(b: pd.DataFrame) -> pd.DataFrame:
        if not len(b):
            return b.assign(**{out_col: pd.Series([], dtype="int64")}).drop(
                columns=["_ord", "_one", "_rank", "_n"]
            )
        r = b["_rank"].to_numpy(np.int64) - 1  # 0-based rank
        n = b["_n"].to_numpy(np.int64)
        q, rem = n // k, n % k
        big_span = rem * (q + 1)  # rows covered by the (q+1)-sized buckets
        in_big = r < big_span
        # guard the q==0 division (n < k: every row lands in a big bucket)
        q_safe = np.maximum(q, 1)
        bucket = np.where(in_big, r // (q + 1), rem + (r - big_span) // q_safe) + 1
        out = b.drop(columns=["_ord", "_one", "_rank", "_n"]).copy()
        out[out_col] = bucket.astype(np.int64)
        return out

    return joined.map_batches(bucketize, batch_format="pandas")


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

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        n = b["_n"].to_numpy(np.float64)
        sx, sy = b["_sx"].to_numpy(np.float64), b["_sy"].to_numpy(np.float64)
        sxx, syy, sxy = (
            b["_sxx"].to_numpy(np.float64),
            b["_syy"].to_numpy(np.float64),
            b["_sxy"].to_numpy(np.float64),
        )
        var = (n * sxx - sx * sx) * (n * syy - sy * sy)
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where(var > 0, (n * sxy - sx * sy) / np.sqrt(var), np.nan)
        return pd.DataFrame({key: b[key], out_col: np.round(r, nd)})

    return sums.map_batches(finish, batch_format="pandas")


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
