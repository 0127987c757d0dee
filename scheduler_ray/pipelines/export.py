"""Export projections: the GeoParquet-shaped feature table (SURVEY.md S8).

The reference converts the merged graph to a feature table with columns
``id, geoconnex_sitemap, feature_name, feature_description, bbox,
geometry`` plus a Hilbert spatial sort and bounded row groups (reference
userCode/assetGroups/export.py:111-186; columns asserted at
export_test.py:77-86).  Ray-Data-first equivalent:

* triples → one row per subject: an Arrow projection of each feature's
  id, graph, name and description rows, unioned with its point from the
  linker's point kernel (``link.resolve_points_grouped``: geo blank node
  → owning feature + lat/lon, merged across blocks), then one
  ``sorted_agg_by("id", max)`` merge.  No step assumes that a document's
  rows share a batch, so the table is the same over the expansion
  stream, a re-sorted stream or pred-partitioned files;
* WKB point geometry encoded from the feature's lat/lon (F11 bbox
  computation);
* Hilbert-curve sort key (O2) for locality-preserving output; written
  with bounded row groups.
"""

from __future__ import annotations

import struct

import pyarrow as pa
import pyarrow.compute as pc

from ray.data import Dataset
from ..stages.link import GEO_PREDS, NAME_PREDS, resolve_points_grouped
from ..stages.segments import sorted_agg_by
from ..stages.spatial import hilbert_index

#: both predicate spellings (prefixed / @context-expanded IRI)
DESCRIPTION_PREDS = ("schema:description", "https://schema.org/description")

_LS = pa.large_string()
#: every field block has this schema, so an all-null field column is
#: never typed ``null`` in one block and ``string`` in the next
_FEATURE_SCHEMA = pa.schema(
    [("id", _LS), ("geoconnex_sitemap", _LS), ("feature_name", _LS),
     ("feature_description", _LS), ("lat", pa.float64()), ("lon", pa.float64())]
)


def _feature_fields(t: pa.Table) -> pa.Table:
    """The feature table's field rows: one ``(id, geoconnex_sitemap,
    feature_name | null, feature_description | null, null, null)`` row
    per name, description or geo-edge triple of a non-blank subject."""
    preds = pa.array(NAME_PREDS + DESCRIPTION_PREDS + GEO_PREDS, _LS)
    t = t.filter(
        pc.and_(
            pc.is_in(t["pred"], value_set=preds),
            pc.invert(pc.starts_with(t["subj"], pattern="_:")),
        )
    )
    obj = pc.cast(t["obj"], _LS)
    null = pa.scalar(None, _LS)
    no_coord = pa.nulls(t.num_rows, pa.float64())
    return pa.table(
        [
            pc.cast(t["subj"], _LS),
            pc.cast(t["graph"], _LS),
            pc.if_else(pc.is_in(t["pred"], value_set=pa.array(NAME_PREDS, _LS)), obj, null),
            pc.if_else(
                pc.is_in(t["pred"], value_set=pa.array(DESCRIPTION_PREDS, _LS)), obj, null
            ),
            no_coord,
            no_coord,
        ],
        schema=_FEATURE_SCHEMA,
    )


def _point_fields(t: pa.Table) -> pa.Table:
    """``(subj, lat, lon)`` points as field rows with null text fields."""
    null = pa.nulls(t.num_rows, _LS)
    return pa.table(
        [t["subj"], null, null, null, t["lat"], t["lon"]], schema=_FEATURE_SCHEMA
    )


def wkb_point(x: float, y: float) -> bytes:
    """Little-endian WKB Point (the geometry column's encoding)."""
    return b"\x01" + struct.pack("<I", 1) + struct.pack("<dd", x, y)


def feature_table(canon: Dataset) -> Dataset:
    """Canonical triples → one feature row per subject.

    The field rows of :func:`_feature_fields` and the feature points of
    :func:`~scheduler_ray.stages.link.resolve_points_grouped` meet in one
    per-subject max merge: every field is single-valued per subject, so
    max acts as coalesce (non-null wins over null), and a field a
    subject carries more than once (duplicate coordinates included)
    resolves by max.  The merge runs across blocks, so ``canon`` may cut
    its documents anywhere.  ``canon`` is read twice (fields and points),
    so a lazy one is computed twice.
    """
    fields = canon.map_batches(_feature_fields, batch_format="pyarrow", zero_copy_batch=True)
    points = resolve_points_grouped(canon).map_batches(
        _point_fields, batch_format="pyarrow", zero_copy_batch=True
    )
    # per-subject merge via the sorted-agg primitive, NOT Ray's groupby
    # aggregate: the latter's reduce runs per-GROUP Python accumulators
    # (measured ~165 s per 150k groups), which at registry scale (3.2M
    # features) would dominate the export end-to-end
    merged = sorted_agg_by(
        fields.union(points), "id", dict.fromkeys(_FEATURE_SCHEMA.names[1:], "max")
    )

    def finish(t: pa.Table) -> pa.Table:
        lat = t["lat"].to_numpy(zero_copy_only=False)
        lon = t["lon"].to_numpy(zero_copy_only=False)
        # a feature without a point keeps null bbox fields
        x, y = pa.array(lon, from_pandas=True), pa.array(lat, from_pandas=True)
        cols = {
            "bbox_xmin": x,
            "bbox_ymin": y,
            "bbox_xmax": x,
            "bbox_ymax": y,
            "geometry": pa.array([wkb_point(a, b) for a, b in zip(lon, lat)], pa.binary()),
            "hilbert": pa.array(hilbert_index(lon, lat)),
        }
        t = t.drop_columns(["lat", "lon"])
        for name, col in cols.items():
            t = t.append_column(name, col)
        return t

    return merged.map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)


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
