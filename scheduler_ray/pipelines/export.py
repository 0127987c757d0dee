"""Export projections: the GeoParquet-shaped feature table (SURVEY.md S8).

The reference converts the merged graph to a feature table with columns
``id, geoconnex_sitemap, feature_name, feature_description, bbox,
geometry`` plus a Hilbert spatial sort and bounded row groups (reference
userCode/assetGroups/export.py:111-186; columns asserted at
export_test.py:77-86).  Ray-Data-first equivalent:

* triples → one row per subject via per-batch partial pivot + a
  ``groupby(subj)`` merge of the (already single-valued) fields — the
  wide triple stream shuffles only one pivoted row per subject per batch;
* WKB point geometry encoded from the document's lat/lon (F11 bbox
  computation);
* Hilbert-curve sort key (O2) for locality-preserving output; written
  with bounded row groups.
"""

from __future__ import annotations

import struct

import pandas as pd
import pyarrow as pa

from ray.data import Dataset
from ..stages.spatial import hilbert_index

#: both predicate spellings (prefixed / @context-expanded IRI)
_FIELD_PREDS = {
    "schema:name": "feature_name",
    "https://schema.org/name": "feature_name",
    "schema:description": "feature_description",
    "https://schema.org/description": "feature_description",
    "schema:latitude": "lat_milli",
    "https://schema.org/latitude": "lat_milli",
    "schema:longitude": "lon_milli",
    "https://schema.org/longitude": "lon_milli",
}
_GEO_PREDS = {"schema:geo", "https://schema.org/geo"}
#: every pivot block has this schema, so an all-null field column is
#: never typed ``null`` in one block and ``string`` in the next
_PIVOT_SCHEMA = pa.schema(
    (c, pa.large_string())
    for c in ["id", "geoconnex_sitemap", "feature_name", "feature_description",
              "lat_milli", "lon_milli"]
)


def _pivot_partial(b: pd.DataFrame) -> pa.Table:
    """Partial per-batch pivot.

    lat/lon live on the geo BLANK node (``expand.py`` emits
    ``(feature, schema:geo, _:…#b0)`` + the coordinates at the label);
    the blank→feature edge is resolved batch-locally.  Partitioning
    assumption: a document's rows are contiguous within one batch —
    true for the expansion/canonicalization stream this pivot consumes
    (do NOT run it over pred-partitioned files).
    """
    b = b[b["pred"].isin(_FIELD_PREDS) | b["pred"].isin(_GEO_PREDS)]
    if b.empty:
        return _PIVOT_SCHEMA.empty_table()
    # vectorized assembly (round-3 verdict item 8 — this was a per-row
    # dict loop): blank→parent via a keep-last map, owner resolution via
    # Series.map, field pivot via groupby().last().unstack()
    is_geo = b["pred"].isin(_GEO_PREDS)
    parent = b[is_geo].drop_duplicates("obj", keep="last").set_index("obj")["subj"]
    is_blank = b["subj"].str.startswith("_:")
    owner = b["subj"].where(~is_blank, b["subj"].map(parent))
    b2 = b.assign(owner=owner)
    b2 = b2[b2["owner"].notna()]  # orphan blanks (parent in another batch)
    # first-encountered graph per owner (same as the old setdefault)
    base = (
        b2.drop_duplicates("owner")[["owner", "graph"]]
        .rename(columns={"owner": "id", "graph": "geoconnex_sitemap"})
    )
    fields = b2[~b2["pred"].isin(_GEO_PREDS)]
    if fields.empty:
        piv = pd.DataFrame(index=pd.Index([], name="owner"))
    else:
        piv = (
            fields.assign(field=fields["pred"].map(_FIELD_PREDS))
            .groupby(["owner", "field"], sort=False)["obj"]
            .last()  # overwrite-wins, like the old dict assignment
            .unstack("field")
        )
    out = base.merge(piv, left_on="id", right_index=True, how="left")
    for col in _PIVOT_SCHEMA.names:
        if col not in out:
            out[col] = None
    return pa.Table.from_pandas(out, schema=_PIVOT_SCHEMA, preserve_index=False)


def wkb_point(x: float, y: float) -> bytes:
    """Little-endian WKB Point (the geometry column's encoding)."""
    return b"\x01" + struct.pack("<I", 1) + struct.pack("<dd", x, y)


def _pivot_grouped(canon: Dataset) -> Dataset:
    """Contiguity-free partial pivot (ROADMAP §4): resolves the geo
    blank node → feature edge with a hash-partitioned join instead of
    the batch-local map, so a document's rows may be scattered across
    arbitrary batches (e.g. when pivoting pred-partitioned files).

    Costs one shuffle of the (pruned) coordinate rows — use the default
    contiguous pivot when the stream preserves document locality.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    from ..stages.segments import _drop_empty_blocks

    field_preds = pa.array(sorted(_FIELD_PREDS), pa.large_string())
    geo_preds = pa.array(sorted(_GEO_PREDS), pa.large_string())

    def prune(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.is_in(t["pred"], value_set=field_preds),
            pc.is_in(t["pred"], value_set=geo_preds),
        )
        return t.filter(keep)

    kept = _drop_empty_blocks(
        canon.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True)
    )
    n_parts = min(
        max(2, kept.num_blocks()),
        max(2, int(ray.cluster_resources().get("CPU", 8))),
    )

    def geo_edges(t: pa.Table) -> pa.Table:
        g = t.filter(pc.is_in(t["pred"], value_set=geo_preds))
        return pa.table(
            {
                "subj": pc.cast(g["obj"], pa.large_string()),
                "_owner": pc.cast(g["subj"], pa.large_string()),
            }
        )

    edges = _drop_empty_blocks(
        kept.map_batches(geo_edges, batch_format="pyarrow", zero_copy_batch=True)
    )

    def field_rows(t: pa.Table) -> pa.Table:
        f = t.filter(pc.is_in(t["pred"], value_set=field_preds))
        return pa.table(
            {
                "subj": pc.cast(f["subj"], pa.large_string()),
                "pred": pc.cast(f["pred"], pa.large_string()),
                "obj": pc.cast(f["obj"], pa.large_string()),
                "graph": pc.cast(f["graph"], pa.large_string()),
            }
        )

    fields = _drop_empty_blocks(
        kept.map_batches(field_rows, batch_format="pyarrow", zero_copy_batch=True)
    )

    def split_blank(want_blank: bool):
        def fn(t: pa.Table) -> pa.Table:
            blank = pc.starts_with(t["subj"], pattern="_:")
            return t.filter(blank if want_blank else pc.invert(blank))

        return fn

    direct = fields.map_batches(
        split_blank(False), batch_format="pyarrow", zero_copy_batch=True
    )
    blanks = _drop_empty_blocks(
        fields.map_batches(split_blank(True), batch_format="pyarrow", zero_copy_batch=True)
    )
    # inner join: orphan blanks (no geo edge anywhere) drop, matching the
    # contiguous pivot's owner.notna() filter
    resolved = _drop_empty_blocks(blanks.join(edges, "inner", n_parts, on=("subj",)))

    def rekey(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("subj")
        t = t.set_column(i, "subj", pc.cast(t["_owner"], pa.large_string()))
        return t.drop_columns(["_owner"]).select(["subj", "pred", "obj", "graph"])

    owned = resolved.map_batches(rekey, batch_format="pyarrow", zero_copy_batch=True)
    # blank-free stream → the batch-local pivot is now assumption-free
    return direct.union(owned).map_batches(_pivot_partial, batch_format="pandas")


def feature_table(canon: Dataset, *, pivot_mode: str = "contiguous") -> Dataset:
    """Canonical triples → one feature row per subject.

    Partial pivot per batch, then a per-subject max merge — every field
    is single-valued per subject, so max acts as coalesce (non-null wins
    over null) while staying a combiner-friendly aggregate.

    ``pivot_mode="contiguous"`` (default) assumes a document's rows are
    batch-contiguous (true of the expansion/canonicalization stream);
    ``"grouped"`` drops that assumption via a join-based blank-node
    resolution (one extra shuffle of the pruned coordinate rows).
    """
    if pivot_mode == "grouped":
        partial = _pivot_grouped(canon)
    elif pivot_mode == "contiguous":
        partial = canon.map_batches(_pivot_partial, batch_format="pandas")
    else:
        raise ValueError(f"unknown pivot_mode: {pivot_mode!r}")
    # per-subject merge via the sorted-agg primitive, NOT Ray's groupby
    # aggregate: the latter's reduce runs per-GROUP Python accumulators
    # (measured ~165 s per 150k groups), which at registry scale (3.2M
    # features) would dominate the export end-to-end
    from ..stages.segments import sorted_agg_by

    merged = sorted_agg_by(
        partial,
        "id",
        {
            "geoconnex_sitemap": "max",
            "feature_name": "max",
            "feature_description": "max",
            "lat_milli": "max",
            "lon_milli": "max",
        },
    )

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        lat = b["lat_milli"].astype("float64") / 1000.0
        lon = b["lon_milli"].astype("float64") / 1000.0
        b = b.drop(columns=["lat_milli", "lon_milli"])
        b["bbox_xmin"] = lon
        b["bbox_ymin"] = lat
        b["bbox_xmax"] = lon
        b["bbox_ymax"] = lat
        b["geometry"] = [wkb_point(x, y) for x, y in zip(lon, lat)]
        b["hilbert"] = hilbert_index(lon.to_numpy(), lat.to_numpy())
        return b

    return merged.map_batches(finish, batch_format="pandas")


def write_geoparquet(
    features: Dataset, path: str, *, rows_per_group: int = 50_000, check: bool = True
) -> None:
    """Hilbert-sorted, bounded-row-group GeoParquet (S8/O2 semantics).

    Each file carries GeoParquet-style ``geo`` schema metadata (primary
    column, WKB encoding, per-file bbox), and — like the reference's
    post-write ``check()`` (reference userCode/assetGroups/export.py:
    155-163) — the written output is validated before the call returns.
    """
    import hashlib
    import json
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)

    def write_block(t: "pa.Table") -> "pa.Table":
        if t.num_rows == 0:
            return pa.table({"file": pa.array([], pa.large_string())})
        xs = t["bbox_xmin"].to_numpy(zero_copy_only=False)
        ys = t["bbox_ymin"].to_numpy(zero_copy_only=False)
        xe = t["bbox_xmax"].to_numpy(zero_copy_only=False)
        ye = t["bbox_ymax"].to_numpy(zero_copy_only=False)
        geo = {
            "version": "1.0.0",
            "primary_column": "geometry",
            "columns": {
                "geometry": {
                    "encoding": "WKB",
                    "geometry_types": ["Point"],
                    "crs": "EPSG:4326",
                    "bbox": [
                        float(xs.min()),
                        float(ys.min()),
                        float(xe.max()),
                        float(ye.max()),
                    ],
                }
            },
        }
        t2 = t.replace_schema_metadata({b"geo": json.dumps(geo).encode()})
        stem = hashlib.md5(
            ("|".join(t["id"].to_pylist()[:64]) + str(t.num_rows)).encode()
        ).hexdigest()[:16]
        fp = os.path.join(path, f"part-{stem}.parquet")
        pq.write_table(t2, fp + ".tmp", row_group_size=rows_per_group)
        os.replace(fp + ".tmp", fp)
        return pa.table({"file": pa.array([fp], pa.large_string())})

    features.sort("hilbert").map_batches(
        write_block, batch_format="pyarrow", batch_size=None
    ).materialize()
    if check:
        check_geoparquet(path)


def check_geoparquet(path: str) -> dict:
    """Validity checks over a written GeoParquet directory (the analogue
    of the reference's ``check()`` step): geo metadata present and
    well-formed, required columns, WKB point geometries parse, bbox
    fields finite with min ≤ max and consistent with the geometry.
    Raises ``ValueError`` on the first violation; returns a summary."""
    import json
    import os
    import struct as _struct

    import pyarrow.parquet as pq

    required = {
        "id", "geoconnex_sitemap", "feature_name", "feature_description",
        "bbox_xmin", "bbox_ymin", "bbox_xmax", "bbox_ymax", "geometry",
    }
    n_rows = 0
    n_files = 0
    for root, _dirs, files in os.walk(path):
        for f in sorted(files):
            if not f.endswith(".parquet"):
                continue
            n_files += 1
            t = pq.read_table(os.path.join(root, f))
            meta = t.schema.metadata or {}
            if b"geo" not in meta:
                raise ValueError(f"{f}: missing geo metadata")
            geo = json.loads(meta[b"geo"])
            if geo.get("primary_column") != "geometry":
                raise ValueError(f"{f}: bad primary_column")
            missing = required - set(t.column_names)
            if missing:
                raise ValueError(f"{f}: missing columns {sorted(missing)}")
            xmin = t["bbox_xmin"].to_numpy(zero_copy_only=False)
            ymin = t["bbox_ymin"].to_numpy(zero_copy_only=False)
            xmax = t["bbox_xmax"].to_numpy(zero_copy_only=False)
            ymax = t["bbox_ymax"].to_numpy(zero_copy_only=False)
            if not ((xmin <= xmax).all() and (ymin <= ymax).all()):
                raise ValueError(f"{f}: bbox min > max")
            fb = geo["columns"]["geometry"]["bbox"]
            if len(xmin) and not (
                fb[0] <= xmin.min() and fb[1] <= ymin.min()
                and fb[2] >= xmax.max() and fb[3] >= ymax.max()
            ):
                raise ValueError(f"{f}: file bbox metadata inconsistent")
            for wkb, x, y in zip(t["geometry"].to_pylist(), xmin, ymin):
                if wkb[:5] != b"\x01\x01\x00\x00\x00" or len(wkb) != 21:
                    raise ValueError(f"{f}: bad WKB point")
                gx, gy = _struct.unpack("<dd", wkb[5:])
                if abs(gx - x) > 1e-9 or abs(gy - y) > 1e-9:
                    raise ValueError(f"{f}: geometry outside its bbox")
            n_rows += t.num_rows
    if n_files == 0:
        raise ValueError("no parquet files written")
    return {"files": n_files, "rows": n_rows}
